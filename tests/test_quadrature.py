"""Quadrature oracles: gamma-function identities and guard behavior."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heismod.errors import NonConvergent
from heismod.quadrature import (
    _AITKEN_PASSES,
    _AITKEN_TERMS,
    _BLOCK_NODES,
    _EPS,
    _RATIO_CEILING,
    _NODES,
    _WG15,
    _WK,
    QuadResult,
    _panel_block,
    _panel_rule,
    _row_median,
    _tail_limits,
    integrate_batch,
)


def integrate_1d(f, a, b, **kwargs):
    """(value, error) of one vectorized scalar integrand."""
    res = integrate_batch(lambda x, cols: np.asarray(f(x))[:, None][:, cols],
                          a, b, **kwargs)
    return complex(res.value[0]), float(res.error[0])


def test_gauss_kronrod_constants_solve_moment_equations():
    # Kronrod exact through degree 22, its Gauss part through degree 13;
    # odd moments vanish by symmetry
    for k in range(0, 23, 2):
        assert abs(_WK @ _NODES ** k - 2.0 / (k + 1)) <= 4 * _EPS
    for k in range(0, 14, 2):
        assert abs(_WG15 @ _NODES ** k - 2.0 / (k + 1)) <= 4 * _EPS


def test_monomials_on_unit_interval_to_two_ulps():
    k = np.arange(23)
    res = integrate_batch(lambda x, cols: x[:, None] ** k[None, cols],
                          0.0, 1.0,
                          singular=(False, False), atol=0.0, rtol=1e-13)
    exact = 1.0 / (k + 1)
    assert np.all(np.abs(res.value.real - exact) <= 2 * np.spacing(exact))


def test_inverse_sqrt_singularity():
    v, e = integrate_1d(lambda s: s ** -0.5, 0.0, 1.0,
                        atol=1e-12, rtol=1e-11)
    assert abs(v.real - 2.0) < 1e-10
    assert abs(v.imag) == 0.0
    assert e < 1e-11 * 2 + 1e-12


def test_sin_power_singular_both_ends():
    exact = math.sqrt(math.pi) * math.gamma(1 / 6) / math.gamma(2 / 3)
    v, e = integrate_1d(lambda s: np.sin(s) ** (-2 / 3), 0.0, math.pi,
                        atol=1e-12, rtol=1e-10)
    assert abs(v.real - exact) < 1e-8
    assert e < 1e-8


def test_log_singularity():
    v, e = integrate_1d(np.log, 0.0, 1.0, atol=1e-12, rtol=1e-10)
    assert abs(v.real + 1.0) < 1e-10


def test_beta_half_half():
    v, _ = integrate_1d(lambda s: (s * (1 - s)) ** -0.5, 0.0, 1.0,
                        atol=1e-12, rtol=1e-10)
    assert abs(v.real - math.pi) < 1e-9


def test_smooth_cases():
    v, e = integrate_1d(np.exp, 0.0, 1.0)
    assert abs(v.real - (math.e - 1)) < 1e-12
    v, _ = integrate_1d(lambda s: np.exp(np.cos(s)) * np.cos(np.sin(s)),
                        0.0, 2 * math.pi, singular=(False, False))
    assert abs(v.real - 2 * math.pi) < 1e-11


def test_power_sweep_against_closed_form():
    # int_0^1 s^beta = 1/(beta+1), through the ladder + extrapolation path
    for beta in (-0.9, -2 / 3, -0.5, -0.25, 0.5, 2.0):
        v, e = integrate_1d(lambda s, b=beta: s ** b, 0.0, 1.0,
                            atol=1e-12, rtol=1e-10)
        exact = 1.0 / (beta + 1.0)
        assert abs(v.real - exact) < 1e-9 * exact, beta
        assert abs(v.real - exact) <= 50 * e + 1e-12, beta


def test_batch_columns_and_complex():
    res = integrate_batch(
        lambda x, cols: np.stack([x ** -0.5, x ** 2, np.exp(1j * x)],
                                 axis=1)[:, cols],
        0.0, 1.0, atol=1e-12, rtol=1e-10)
    assert isinstance(res, QuadResult)
    assert abs(res.value[0] - 2.0) < 3e-11
    assert abs(res.value[1] - 1 / 3) < 1e-12
    assert abs(res.value[2] - (math.sin(1) + 1j * (1 - math.cos(1)))) < 1e-11
    assert res.n_evals > 0
    assert (res.error <= 1e-12 + 1e-10 * np.abs(res.value) + 1e-300).all()


def _mixed_columns(x, cols):
    # real columns with endpoint blowups of both sides and a smooth one
    return np.stack([x ** -0.5, (1.0 - x) ** -0.7, np.cos(3.0 * x)],
                    axis=1)[:, cols]


def test_real_columns_stay_real_and_agree_with_their_complex_cast():
    real = integrate_batch(_mixed_columns, 0.0, 1.0, atol=1e-12, rtol=1e-10)
    cplx = integrate_batch(lambda x, c: _mixed_columns(x, c).astype(complex),
                           0.0, 1.0, atol=1e-12, rtol=1e-10)
    assert real.value.dtype == np.float64
    assert cplx.value.dtype == np.complex128
    assert real.error.dtype == cplx.error.dtype == np.float64
    assert real.n_evals == cplx.n_evals
    assert (cplx.value.imag == 0.0).all()
    assert (np.abs(real.value - cplx.value.real)
            <= real.error + cplx.error).all()


def test_result_bits_do_not_depend_on_the_integrands_memory_layout():
    # the panel rule sums in the order of its input's layout: returned in
    # Fortran order, these columns used to come out with other bits
    rates = np.linspace(-3.0, 3.0, 40)

    def cols(x, live):
        return (np.exp(np.outer(x, rates)) * np.cos(7.0 * x)[:, None]
                + 1e-3 / np.sqrt(x)[:, None])[:, live]

    got = [integrate_batch(lambda x, live: order(cols(x, live)), 0.0, 1.0,
                           atol=0.0, rtol=1e-10, singular=(True, False))
           for order in (np.ascontiguousarray, np.asfortranarray)]
    assert got[1].n_evals == got[0].n_evals
    for attr in ("value", "error"):
        a, b = (getattr(r, attr) for r in got)
        assert a.tobytes() == b.tobytes()


def test_constant_integrand_keeps_its_dtype():
    # one column never retires, so a constant may ignore `cols`
    assert integrate_batch(lambda x, cols: 2.0, 0.0,
                           1.0).value.dtype == np.float64
    res = integrate_batch(lambda x, cols: 2.0 + 1.0j, 0.0, 1.0)
    assert res.value.dtype == np.complex128


@pytest.mark.parametrize("kind", [float, complex])
def test_infinite_node_raises_no_runtime_warning(kind):
    def f(x, cols):
        return np.where(x > 0.5, np.inf, 1.0).astype(kind)[:, None][:, cols]

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = integrate_batch(f, 0.0, 1.0, singular=(False, False),
                              best_effort=True)
    assert not np.isfinite(res.error[0])


def test_real_batch_peak_memory_is_a_few_node_batches():
    # 2,048 real columns of sin(s)^(-2/3) k_j on [0, pi]: the first node
    # batch, 68 panels (two 30-cell ladders and 8 interior) x 15 nodes,
    # is the largest array of the call.  The integrand's own array, one
    # scratch array in the panel rule and per-panel results fit in three
    # of it; casting the columns to complex128 took more than six.
    k = np.linspace(1.0, 2.0, 2048)
    batch = 68 * 15 * k.size * 8
    tracemalloc.start()
    try:
        res = integrate_batch(lambda s, cols: (np.sin(s) ** (-2 / 3))[:, None]
                              * k[cols],
                              0.0, math.pi, rtol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_evals == 68 * 15
    assert peak < 3.0 * batch


@pytest.mark.parametrize("m, n", [
    (1, 2 * _BLOCK_NODES // 15 + 7),   # m = 1: einsum's own summation order
    (3, 3000),
    (2040, 7),                          # two panels a block, one left over
    (5000, 3),                          # one panel a block
])
@pytest.mark.parametrize("kind", [np.float64, np.complex128])
def test_blocked_panel_rule_matches_one_block_bit_for_bit(m, n, kind):
    rng = np.random.default_rng(m * n)
    fx = rng.standard_normal((n, 15, m)) * 10.0 ** rng.integers(-6, 6,
                                                                (n, 1, m))
    if kind is np.complex128:
        fx = fx + 1j * rng.standard_normal((n, 15, m))
    fx = fx.astype(kind)
    fx[0, 4, 0] = np.inf
    fx[n - 1, 11, m - 1] = np.nan
    hw = rng.uniform(1e-6, 1.0, n)
    step = max(1, _BLOCK_NODES // (15 * m))
    assert n > step and (step == 1 or n % step)     # a partial last block
    got, want = _panel_rule(fx, hw), _panel_block(fx, hw)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape == (n, m)
        assert g.tobytes() == w.tobytes()
    assert got[0][0, 0] == 0 and np.isinf(got[1][0, 0])
    assert got[0][n - 1, m - 1] == 0 and np.isinf(got[1][n - 1, m - 1])


def test_panel_rule_scratch_is_one_block():
    # a 2,048-column real batch: beyond its (n, m) outputs the rule
    # holds one block's scratch, not a second node-by-column array
    fx = np.random.default_rng(0).standard_normal((68, 15, 2048))
    hw = np.full(68, 0.5)
    tracemalloc.start()
    try:
        _panel_rule(fx, hw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * fx.nbytes


def test_row_median_is_numpys_median_bit_for_bit():
    rng = np.random.default_rng(7)
    for w in range(1, 9):
        a = np.abs(rng.standard_normal((40, w))) * \
            10.0 ** rng.integers(-300, 300, (40, w))
        a[3, rng.integers(w)] = np.nan
        a[5, rng.integers(w)] = np.inf
        a[7] = 0.0
        a[9, :] = a[9, 0]
        assert _row_median(a).tobytes() == np.median(a, axis=1).tobytes()


def _columns(fns, calls):
    """Integrand over the columns fns, evaluating only those asked for
    and logging each request."""
    def f(x, cols):
        calls.append(cols)
        return np.stack([fns[i](x) for i in np.arange(len(fns))[cols]],
                        axis=1)
    return f


def _peak(c):
    return lambda x: 1.0 / ((x - c) ** 2 + 1e-4)


def test_mixed_batch_retires_its_easy_columns():
    # smooth e^(kx) beside two sharp peaks: the smooth columns meet their
    # budget on the initial mesh and retire at the first split
    k = np.array([0.5, 1.0, 1.5, 2.0])
    easy, hard = [0, 1, 3, 5], [2, 4]
    fns = [None] * 6
    for j, kj in zip(easy, k):
        fns[j] = lambda x, kj=kj: np.exp(kj * x)
    fns[2], fns[4] = _peak(0.3), _peak(0.61)
    calls = []
    res = integrate_batch(_columns(fns, calls), 0.0, 1.0,
                          atol=1e-12, rtol=1e-10)
    assert calls[0] == slice(None) and len(calls) > 2
    assert all(list(c) == hard for c in calls[1:])
    assert (np.abs(res.value[easy] - np.expm1(k) / k)
            <= res.error[easy]).all()
    # two hard columns, as a one-column batch sums in another order
    alone = integrate_batch(_columns([fns[j] for j in hard], []), 0.0, 1.0,
                            atol=1e-12, rtol=1e-10)
    assert res.value[hard].tobytes() == alone.value.tobytes()
    assert res.error[hard].tobytes() == alone.error.tobytes()
    # n_evals counts nodes; n_points adds the easy columns on the first
    # node batch only: two 30-cell ladders and 8 panels of 15 nodes
    assert res.n_evals == alone.n_evals
    assert res.n_points == alone.n_points + len(easy) * 68 * 15
    rng = np.random.default_rng(7)
    fns[4] = lambda x: 1.0 + 1e-6 * rng.standard_normal(x.size)
    with pytest.raises(NonConvergent, match=r"^column 4: "):
        integrate_batch(_columns(fns, []), 0.0, 1.0, atol=1e-12, rtol=1e-10)


def test_per_column_rtol():
    # four equal peaks, two held to a loose budget: one shared mesh, each
    # column within its own tolerance, the loose ones retiring first
    c, w = np.array([0.3, 0.45, 0.61, 0.77]), 1e-4
    fns = [_peak(cj) for cj in c]
    exact = (np.arctan((1 - c) / math.sqrt(w))
             + np.arctan(c / math.sqrt(w))) / math.sqrt(w)
    one = integrate_batch(_columns(fns, []), 0.0, 1.0, atol=1e-12,
                          rtol=1e-10, singular=(False, False))
    full = integrate_batch(_columns(fns, []), 0.0, 1.0, atol=1e-12,
                           rtol=np.full(4, 1e-10), singular=(False, False))
    assert full.value.tobytes() == one.value.tobytes()
    assert full.error.tobytes() == one.error.tobytes()
    assert (full.n_evals, full.n_points) == (one.n_evals, one.n_points)

    rtol = np.array([1e-5, 1e-10, 1e-5, 1e-10])
    calls = []
    res = integrate_batch(_columns(fns, calls), 0.0, 1.0, atol=1e-12,
                          rtol=rtol, singular=(False, False))
    assert (np.abs(res.value - exact) <= res.error).all()
    assert (res.error <= 1e-12 + rtol * np.abs(res.value)).all()
    assert (res.error[[0, 2]] > 1e-12 + 1e-10 * exact[[0, 2]]).all()
    # a loose column is evaluated only while both tight ones still are
    live = [set(np.arange(4)[cols].tolist()) for cols in calls]
    assert all({1, 3} <= cols for cols in live if cols & {0, 2})
    assert {1, 3} in live
    assert res.n_points < one.n_points


def test_reversed_bounds_negate():
    v1, _ = integrate_1d(np.exp, 0.0, 1.0)
    v2, _ = integrate_1d(np.exp, 1.0, 0.0)
    assert v2 == pytest.approx(-v1, rel=1e-14)


def test_divergent_raises():
    with pytest.raises(NonConvergent):
        integrate_1d(lambda s: 1.0 / s, 0.0, 1.0)


def test_barely_nonintegrable_power_rejected():
    # decay ratio guard: anything at or past ~u^-0.95 is refused
    with pytest.raises(NonConvergent):
        integrate_1d(lambda s: s ** -0.98, 0.0, 1.0)


def test_nonfinite_integrand_raises():
    with pytest.raises(NonConvergent):
        integrate_1d(lambda s: np.where(s > 0.5, np.nan, 1.0), 0.0, 1.0,
                     singular=(False, False))


def test_unflagged_singularity_raises_rather_than_lying():
    with pytest.raises(NonConvergent):
        integrate_1d(lambda s: s ** -0.5, 0.0, 1.0, singular=(False, False))


def test_singular_at_nonzero_endpoint():
    # the float64 failure mode the ladders exist for: singular end at pi
    exact = 3.0  # int_0^pi (pi - s)^(-2/3) ds = 3 pi^(1/3) / pi^... no:
    exact = 3.0 * math.pi ** (1 / 3)
    v, _ = integrate_1d(lambda s: (math.pi - s) ** (-2 / 3), 0.0, math.pi,
                        singular=(False, True), atol=1e-12, rtol=1e-10)
    assert abs(v.real - exact) < 1e-9


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        integrate_1d(np.exp, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_1d(np.exp, 0.0, math.inf)


def test_error_estimate_not_wildly_optimistic():
    cases = [
        (lambda s: s ** -0.5, 0.0, 1.0, 2.0),
        (np.log, 0.0, 1.0, -1.0),
        (np.exp, 0.0, 1.0, math.e - 1),
    ]
    for f, a, b, exact in cases:
        v, e = integrate_1d(f, a, b, atol=1e-12, rtol=1e-10)
        assert abs(v.real - exact) <= 100 * e + 1e-12


def test_best_effort_returns_honest_error_on_noise_floor():
    rng = np.random.default_rng(7)

    def noisy(x, cols):
        return (1.0 + 1e-6 * rng.standard_normal(x.size))[:, None][:, cols]

    res = integrate_batch(noisy, 0.0, 1.0, atol=0.0, rtol=1e-12,
                          singular=(False, False), best_effort=True)
    assert abs(res.value[0].real - 1.0) < 1e-5
    assert res.error[0] > 1e-12  # did not pretend to meet the target


def test_noise_floor_fails_fast_without_best_effort():
    rng = np.random.default_rng(7)

    def noisy(x, cols):
        return (1.0 + 1e-6 * rng.standard_normal(x.size))[:, None][:, cols]

    with pytest.raises(NonConvergent):
        integrate_batch(noisy, 0.0, 1.0, atol=0.0, rtol=1e-12,
                        singular=(False, False))
    # stall detection: refinement must give up long before the panel
    # budget once splitting stops reducing the error
    res = integrate_batch(noisy, 0.0, 1.0, atol=0.0, rtol=1e-12,
                          singular=(False, False), best_effort=True)
    assert res.n_evals < 4096 * 15 / 4


def test_best_effort_flags_nonintegrable_tail_as_infinite():
    res = integrate_batch(lambda s, cols: (s ** -1.5)[:, None][:, cols],
                          0.0, 1.0,
                          singular=(True, False), best_effort=True)
    assert not np.isfinite(res.error[0])


def test_aux_column_keeps_partial_sum_of_unresolvable_tail():
    res = integrate_batch(
        # an aux batch never retires: its integrand ignores `cols`
        lambda s, cols: np.stack([s ** -0.5, s ** -1.5], axis=1), 0.0, 1.0,
        singular=(True, False), aux_cols=1, atol=1e-12, rtol=1e-10)
    assert abs(res.value[0] - 2.0) < 1e-9
    assert np.isfinite(res.error[1])


# -- column-batched tail pass against the scalar per-column original --------

def _aitken(seq, scale):
    """Iterated Aitken acceleration.  Returns (limit, final-pass spread)."""
    cur = seq
    for _ in range(_AITKEN_PASSES):
        if cur.size < 3:
            break
        d1 = np.diff(cur)
        d2 = np.diff(d1)
        good = np.abs(d2) > 64.0 * _EPS * scale
        if not good.any():
            break
        stop = len(d2) if good.all() else int(np.argmin(good))
        if stop == 0:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            cur = cur[2:stop + 2] - d1[1:stop + 1] ** 2 / d2[:stop]
    spread = abs(cur[-1] - cur[-2]) if cur.size >= 2 else 0.0
    return cur[-1], spread


def _tail_limit(cells, noise, strict=True):
    """Estimate the full ladder mass (including the unsampled cap) from
    per-cell sums ordered outermost first.  Returns (limit, uncertainty).

    Pure power behavior makes the running sums a geometric sequence, which
    one Aitken pass resolves exactly; corrections to the leading power add
    further transients that extra passes absorb.  The uncertainty combines
    the final pass spread with the limit's sensitivity to dropping the two
    oldest input terms.
    """
    total = cells.sum()
    last = abs(cells[-1])
    if last <= noise:
        return total, last
    mags = np.abs(cells[-6:])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = mags[1:] / np.where(mags[:-1] > 0, mags[:-1], np.inf)
    med = float(np.median(ratios))
    if med >= _RATIO_CEILING:
        if not strict:
            return total, np.inf
        raise NonConvergent(
            "endpoint cell masses decay too slowly "
            f"(ratio {med:.3f}); singularity is not integrable enough")
    partial = np.cumsum(cells)
    scale = max(np.abs(partial).max(), noise)
    limit, spread = _aitken(partial[-_AITKEN_TERMS:], scale)
    alt, _ = _aitken(partial[-(_AITKEN_TERMS - 2):], scale)
    unc = spread + abs(limit - alt) + 16.0 * _EPS * scale
    return limit, unc


def _oracle(cells, noise, aux, strict):
    """The per-column loop over a (levels, m) ladder, as finalize ran it."""
    total, limit, unc = [], [], []
    for c in range(cells.shape[1]):
        lim, u = _tail_limit(cells[:, c], noise[c],
                             strict=strict and not aux[c])
        if not np.isfinite(u) and aux[c]:
            lim, u = cells[:, c].sum(), 0.0
        total.append(cells[:, c].sum())
        limit.append(lim)
        unc.append(u)
    return (np.array(total, np.complex128), np.array(limit, np.complex128),
            np.array(unc, float))


def _run(fn, *args):
    """Call fn, returning (result or exception, RuntimeWarning messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except NonConvergent as ex:
            out = ex
    return out, {str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)}


def _assert_matches_oracle(cells, noise, aux):
    batched = np.ascontiguousarray(cells.T)
    for strict in (True, False):
        want, want_warn = _run(_oracle, cells, noise, aux, strict)
        got, got_warn = _run(_tail_limits, batched, noise, aux, strict)
        assert got_warn <= want_warn
        if isinstance(want, NonConvergent):
            assert isinstance(got, NonConvergent)
            assert str(got) == str(want)
            continue
        assert not isinstance(got, NonConvergent), got
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w, equal_nan=True)


_KINDS = ("power", "exact", "noisy", "slow", "zero_tail", "zeros", "random")


def _ladder_column(rng, kind, levels):
    """Cell sums, outermost first, of one synthetic ladder column."""
    k = np.arange(levels)
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    amp = 10.0 ** rng.uniform(-8.0, 4.0)
    if kind == "zeros":
        return np.zeros(levels, np.complex128)
    if kind == "random":
        return (rng.standard_normal(levels) + 1j * rng.standard_normal(levels)
                ) * 10.0 ** rng.uniform(-12.0, 2.0, levels)
    if kind == "slow":
        return amp * phase * rng.uniform(_RATIO_CEILING, 1.05) ** k
    r = rng.uniform(0.05, 0.96)
    col = amp * phase * r ** k
    if kind != "exact":
        # corrections to the leading power: transients that later
        # Aitken passes absorb, or fail to, at different depths
        for _ in range(rng.integers(1, 4)):
            col = col + amp * rng.uniform(-1.0, 1.0) * \
                rng.uniform(0.01, 0.99) ** k
    if kind == "noisy":
        col = col + amp * 10.0 ** rng.uniform(-16.0, -4.0) * \
            rng.standard_normal(levels)
    if kind == "zero_tail":
        col[rng.integers(0, levels):] = 0.0
    return col


@st.composite
def _ladders(draw):
    levels = draw(st.sampled_from((2, 3, 4, 6, 9, 12, 20, 30, 30)))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = np.stack([_ladder_column(rng, kd, levels) for kd in kinds], axis=1)
    # noise floors: from none at all to above the innermost cell
    floor = draw(st.lists(st.sampled_from((0.0, 1e-14, 1e-9, 1e-3, 1.0, 1e3)),
                          min_size=len(kinds), max_size=len(kinds)))
    scale = np.abs(cells).max(axis=0)
    noise = np.array(floor) * np.where(scale > 0, scale, 1.0)
    aux = np.array(draw(st.lists(st.booleans(), min_size=len(kinds),
                                 max_size=len(kinds))))
    return cells, noise, aux


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_ladders())
def test_tail_pass_is_bitwise_equal_to_per_column_oracle(ladder):
    _assert_matches_oracle(*ladder)


def test_tail_pass_matches_oracle_on_one_wide_batch():
    # one batch mixing every kind, as the s-stage of a nested integral
    # sees it: columns stop at different Aitken passes side by side
    rng = np.random.default_rng(2024)
    kinds = rng.choice(_KINDS, size=3000)
    cells = np.stack([_ladder_column(rng, kd, 30) for kd in kinds], axis=1)
    noise = 1e-3 * (1e-10 + 1e-8 * np.abs(cells.sum(axis=0)))
    aux = rng.random(kinds.size) < 0.1
    _assert_matches_oracle(cells, noise, aux)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_tail_pass_ratio_ceiling_and_aux_fallback():
    k = np.arange(30)
    fast, slow = 0.5 ** k, 0.99 ** k
    # Aitken overflows on this one: its limit is not finite
    huge = 1e300 * (0.5 ** k + 0.3 ** k)
    cells = np.stack([fast, slow, huge, 0.98 ** k, slow],
                     axis=1).astype(complex)
    noise = np.full(5, 1e-13)
    aux = np.array([False, True, True, False, False])
    batched = np.ascontiguousarray(cells.T)
    with pytest.raises(NonConvergent, match=r"ratio 0\.980"):
        _tail_limits(batched, noise, aux)
    total, limit, unc = _tail_limits(batched, noise, aux, strict=False)
    assert np.isfinite(unc[0])
    # aux columns fall back to their partial sums with no uncertainty
    assert np.array_equal(limit[1:3], total[1:3]) and (unc[1:3] == 0).all()
    assert np.isfinite(total[2])
    assert np.isinf(unc[3:]).all()
    assert np.array_equal(limit[3:], total[3:])
    _assert_matches_oracle(cells, noise, aux)
