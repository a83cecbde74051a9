"""Adaptive panel quadrature that tolerates integrable endpoint blowups.

The workhorse is a 7/15 Gauss-Kronrod pair on panels.  All nodes are
strictly interior, so the integrand is never sampled at an interval
endpoint.  An endpoint flagged as (possibly) singular gets a ladder of
geometrically shrinking cells; for an integrand growing like u**beta
(beta > -1, measured from the endpoint) the cell masses decay
geometrically, and the mass hiding between the innermost cell and the
endpoint is recovered by iterated Aitken extrapolation of the running
cell sums.  Plain bisection cannot do this in float64: panel boundaries
within rounding distance of a non-zero endpoint stop moving long before
the unresolved mass drops below useful tolerances.  The extrapolation
runs column-batched: one numpy pass per ladder side covers every
integrand column, with per-column lengths and masks for the columns
whose Aitken sequence stops early.

Singularities stronger than about u**-0.95 are rejected rather than
mis-integrated (the cell-mass ratio guard), as is anything whose cell
masses refuse to decay, e.g. 1/u.

Batch calls share one panel subdivision across all integrand columns;
only the columns that fail their tolerance score panels for splitting.
A column whose panel error is already within a tenth of its tolerance
when a split is due retires: its ladder tails are finalized then, and
no later round evaluates it.  Retiring a column that does not fail
leaves the split sequence as it was, so the columns still live keep
their bits.  Node positions inside a ladder are computed as exact
dyadic offsets from the endpoint, never by subtracting nearly equal
floats.
The arithmetic follows the integrand's dtype: real columns stay float64
from the nodes to the result, complex ones run in complex128.
The panel rule runs over blocks of whole panels of at most
`_BLOCK_NODES` = 2**16 node values (one panel at least), so its scratch
is one block (512 KiB of float64), not a second copy of a
(panels, 15, columns) batch.  Each panel's value and error depend on
that panel alone, so the blocks change no bit of any result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent

_EPS = float(np.finfo(np.float64).eps)

# 7-point Gauss / 15-point Kronrod pair on [-1, 1], correctly rounded:
# Gauss nodes are the roots of P7; Kronrod nodes and weights solve the
# even moment equations through degree 22 (30-digit mpmath Newton).
_XK_HALF = np.array([
    0.99145537112081261, 0.94910791234275849, 0.8648644233597691,
    0.74153118559939446, 0.58608723546769115, 0.40584515137739718,
    0.20778495500789848, 0.0])
_WK_HALF = np.array([
    0.022935322010529224, 0.063092092629978558, 0.10479001032225019,
    0.14065325971552592, 0.16900472663926791, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782])
_WG_HALF = np.array([
    0.1294849661688697, 0.27970539148927664, 0.38183005050511892,
    0.4179591836734694])

_NODES = np.concatenate((-_XK_HALF[:7], _XK_HALF[::-1]))   # ascending, 15
_WK = np.concatenate((_WK_HALF[:7], _WK_HALF[::-1]))
_WG15 = np.zeros(15)
_WG15[1:14:2] = np.concatenate((_WG_HALF[:3], _WG_HALF[::-1]))

_RATIO_CEILING = 0.97      # cell-mass decay slower than this is hopeless
_AITKEN_TERMS = 10
_AITKEN_PASSES = 4
_LADDER_LEVELS = 30        # geometric cells per flagged endpoint
_LADDER_FRAC = 0.25        # share of the interval each ladder spans
_MAX_PANELS = 4096
_BLOCK_NODES = 2 ** 16     # node values per block of the panel rule
_MAX_ROUNDS = 48


@dataclass
class QuadResult:
    """Integral values per column with absolute error estimates."""

    value: np.ndarray      # (m,) float64 or complex128, as the integrand
    error: np.ndarray      # (m,) float64
    n_evals: int           # nodes
    n_points: int          # nodes times the columns evaluated there


class _Panels:
    """Panel bookkeeping.  Offsets are measured from a (a + off), and on
    the right ladder (side 1) back from b (b - off), so ladder nodes never
    lose precision to cancellation; widths stay exact under halving."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.olo = np.empty(0)
        self.ohi = np.empty(0)
        self.side = np.empty(0, np.int8)    # -1 left ladder, 0 mid, 1 right
        self.cell = np.empty(0, np.int32)
        self.vals = None                    # (n, m) integrand dtype
        self.errs = None                    # (n, m) float

    def positions(self, olo, ohi, side):
        mid = 0.5 * (olo + ohi)
        hw = 0.5 * (ohi - olo)
        off = mid[:, None] + hw[:, None] * _NODES[None, :]
        return np.where(side[:, None] == 1, self.b - off, self.a + off)


def _panel_rule(fx, hw):
    """Kronrod value and scaled error estimate per panel and column.

    fx: (n, 15, m) float64 or complex128 at the nodes, whose dtype the
    values keep; hw: (n,) half-widths.  The rule runs over blocks of
    whole panels, at most `_BLOCK_NODES` node values each (one panel at
    least), and writes every block into the (n, m) outputs.  Every
    panel's value and estimate depend on that panel alone, and a block
    keeps the column layout, so the blocks change no bit; they bound
    the scratch below to one block.  Within a block one node-sized
    float64 scratch array (a real fx's own deviation) holds |fx - mean|
    for resasc, then |fx| for resabs and the finiteness mask.  A panel
    holding inf or nan is zeroed with an infinite error, silently.
    """
    n, _, m = fx.shape
    i15 = np.empty((n, m), fx.dtype)
    err = np.empty((n, m))
    step = max(1, _BLOCK_NODES // (15 * m))
    for lo in range(0, n, step):
        blk = slice(lo, lo + step)
        i15[blk], err[blk] = _panel_block(fx[blk], hw[blk])
    return i15, err


def _panel_block(fx, hw):
    """`_panel_rule` on one block of panels."""
    with np.errstate(all="ignore"):
        i15 = np.einsum("pnc,n->pc", fx, _WK) * hw[:, None]
        i7 = np.einsum("pnc,n->pc", fx, _WG15) * hw[:, None]
        # the mean as i15 times 1/(2 hw), rounded as numpy's complex by
        # real division rounds it: real columns keep complex bits
        dev = fx - (i15 * (1.0 / (2.0 * hw))[:, None])[:, None, :]
        mag = np.abs(dev, out=dev if dev.dtype == np.float64 else None)
        del dev
        resasc = np.einsum("pnc,n->pc", mag, _WK) * hw[:, None]
        diff = np.abs(i15 - i7)
        scaled = resasc * np.minimum(
            1.0, (200.0 * diff / np.where(resasc > 0, resasc, 1.0)) ** 1.5)
        err = np.where(resasc > 0, scaled, diff)
        # QUADPACK's roundoff floor: the 15-term sum is no better than this
        resabs = np.einsum("pnc,n->pc", np.abs(fx, out=mag), _WK) * hw[:, None]
        err = np.maximum(err, 50.0 * _EPS * resabs)
        ok = np.isfinite(mag).all(axis=1)
    i15 = np.where(ok, i15, 0.0)
    err = np.where(ok, err, np.inf)
    return i15, err


def _aitken_rows(seq, scale):
    """Iterated Aitken acceleration of every row of `seq` (k, n) at once.

    Returns (limit, final-pass spread) per row.  A pass keeps the prefix
    of a row whose second differences are all resolved above rounding;
    a row whose leading one is not, or that has fewer than three terms,
    stops, and as its terms no longer change it stays stopped.  Entries
    past a row's current length are padding: they are computed
    silently, but never read.
    """
    k, n = seq.shape
    cur = seq.copy()
    length = np.full(k, n)
    thr = 64.0 * _EPS * scale[:, None]
    cols = np.arange(n - 2)
    with np.errstate(all="ignore"):
        for _ in range(_AITKEN_PASSES if n >= 3 else 0):
            d1 = cur[:, 1:] - cur[:, :-1]
            d2 = d1[:, 1:] - d1[:, :-1]
            bad = ~(np.abs(d2) > thr) & (cols < (length - 2)[:, None])
            stop = np.where(bad.any(axis=1), bad.argmax(axis=1), length - 2)
            go = stop > 0
            if not go.any():
                break
            cur[:, :-2] = np.where(go[:, None],
                                   cur[:, 2:] - d1[:, 1:] ** 2 / d2,
                                   cur[:, :-2])
            length = np.where(go, stop, length)
        i = np.arange(k)
        limit = cur[i, length - 1]
        d = limit - cur[i, np.maximum(length - 2, 0)]
        spread = np.where(length >= 2, np.hypot(d.real, d.imag), 0.0)
    return limit, spread


def _row_median(a):
    """``np.median(a, axis=1)`` bit for bit, without the lazy import of
    `numpy.ma` that np.median makes on its first call: the middle
    element of each row of a real (k, w) array, w >= 1, or (x + y) / 2.0
    of the two middle ones for an even w, and NaN where a row holds NaN.
    """
    h = a.shape[1] // 2
    odd = a.shape[1] % 2
    part = np.partition(a, h if odd else (h - 1, h), axis=1)
    med = part[:, h] if odd else (part[:, h - 1] + part[:, h]) / 2.0
    return np.where(np.isnan(a).any(axis=1), np.nan, med)


def _tail_limits(cells, noise, aux, strict=True):
    """Estimate the full ladder mass (including the unsampled cap) of
    every column from per-cell sums.  Returns (partial sum, limit,
    uncertainty) per column.

    cells: (m, levels) float64 or complex128, C-contiguous, one row per
    integrand column, ordered outermost cell first; noise: (m,) floors
    below which the innermost cell is taken as resolved; aux: (m,) bool
    marks columns that never raise and fall back to (partial sum, 0)
    when their tail cannot be resolved.

    Pure power behavior makes the running sums a geometric sequence, which
    one Aitken pass resolves exactly; corrections to the leading power add
    further transients that extra passes absorb.  The uncertainty combines
    the final pass spread with the limit's sensitivity to dropping the two
    oldest input terms.  Magnitudes of single values use hypot, matching
    the scalar complex abs bit for bit, and |x| itself on real cells.
    """
    total = cells.sum(axis=1)
    limit = total.copy()
    unc = np.hypot(cells[:, -1].real, cells[:, -1].imag)
    work = np.flatnonzero(~(unc <= noise))
    if work.size:
        mags = np.abs(cells[work, -6:])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = mags[:, 1:] / np.where(mags[:, :-1] > 0, mags[:, :-1],
                                            np.inf)
        med = _row_median(ratios)
        slow = med >= _RATIO_CEILING
        hit = slow & ~aux[work]
        if strict and hit.any():
            raise NonConvergent(
                "endpoint cell masses decay too slowly "
                f"(ratio {med[hit.argmax()]:.3f}); "
                "singularity is not integrable enough")
        unc[work[slow]] = np.inf
        work = work[~slow]
    if work.size:
        partial = np.cumsum(cells[work], axis=1)
        pmax = np.abs(partial).max(axis=1)
        scale = np.where(noise[work] > pmax, noise[work], pmax)
        lim, spread = _aitken_rows(partial[:, -_AITKEN_TERMS:], scale)
        alt, _ = _aitken_rows(partial[:, -(_AITKEN_TERMS - 2):], scale)
        d = lim - alt
        limit[work] = lim
        unc[work] = spread + np.hypot(d.real, d.imag) + 16.0 * _EPS * scale
    # aux channels (error bookkeeping) may legitimately have
    # non-integrable-looking tails; keep their partial sums
    fallback = aux & ~np.isfinite(unc)
    limit[fallback] = total[fallback]
    unc[fallback] = 0.0
    return total, limit, unc


def integrate_batch(f, a, b, *, atol=1e-10, rtol=1e-8, singular=(True, True),
                    initial_panels=8, aux_cols=0, best_effort=False):
    """Integrate columns of `f` over [a, b] with a shared adaptive mesh.

    Parameters
    ----------
    f : callable ``f(x, cols)`` mapping (n,) positions to the columns
        `cols` of its (n, m) values (or (n,) for one column), real or
        complex; `value` has the same kind.  Values in another memory
        layout are copied to C order, so no bit depends on it.  `cols`
        is ``slice(None)`` on the first call, then the ascending indices
        of the live columns, so ``f(x)[:, cols]`` always answers.  When
        a split is due, every column whose summed panel error is within
        0.1 (atol + rtol*|value|), the stricter budget, retires; a batch
        with `aux_cols` retires none.  `n_evals` counts nodes.
    singular : pair of bools; flag an endpoint to enable its geometric
        ladder and tail extrapolation.  Unflagged endpoints are handled
        by ordinary bisection, which assumes the integrand is smooth
        enough there.
    atol, rtol : per-column convergence is err <= atol + rtol*|value|,
        with rtol one value or one per column.
    aux_cols : the last `aux_cols` columns ride along on the shared mesh
        (useful for error-propagation channels) but are excluded from
        the convergence test and from refinement scoring.
    best_effort : return the result with its honest (possibly large)
        error estimates instead of raising NonConvergent.  Meant for
        inner stages of nested integration whose values are weighted by
        an enclosing quadrature: evaluation noise near a degenerate
        point then shows up as a large error bound on a value of tiny
        weight rather than aborting the whole computation.  An
        unresolvable ladder tail still yields an infinite error bound.

    Returns
    -------
    QuadResult

    Raises
    ------
    NonConvergent
        If tolerances cannot be met, the integrand keeps producing
        non-finite values, or an endpoint singularity is too strong
        (suppressed by `best_effort`).
    """
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a == b:
        raise ValueError("degenerate integration interval")
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
        singular = (singular[1], singular[0])
    span = b - a
    sing_l, sing_r = bool(singular[0]), bool(singular[1])

    ps = _Panels(a, b)
    n_evals = n_points = 0
    live = slice(None)          # the caller's columns still evaluated

    def build_initial():
        olo, ohi, side, cell = [], [], [], []
        ll = span * _LADDER_FRAC if sing_l else 0.0
        lr = span * _LADDER_FRAC if sing_r else 0.0
        for flag, width, sd in ((sing_l, ll, -1), (sing_r, lr, 1)):
            if not flag:
                continue
            hi = width
            for k in range(_LADDER_LEVELS):
                lo = hi * 0.5
                olo.append(lo)
                ohi.append(hi)
                side.append(sd)
                cell.append(k)
                hi = lo
        mid_w = span - ll - lr
        step = mid_w / initial_panels
        for j in range(initial_panels):
            olo.append(ll + j * step)
            ohi.append(ll + (j + 1) * step if j < initial_panels - 1
                       else span - lr)
            side.append(0)
            cell.append(-1)
        return (np.array(olo), np.array(ohi), np.array(side, np.int8),
                np.array(cell, np.int32))

    def eval_and_append(olo, ohi, side, cell):
        nonlocal n_evals, n_points
        pos = ps.positions(olo, ohi, side)
        n_evals += pos.size
        with np.errstate(all="ignore"):
            fx = np.asarray(f(pos.ravel(), live))
        if fx.ndim == 0:
            # constant integrand: expand to one full column
            fx = np.full(pos.size, fx)
        if fx.ndim == 1:
            fx = fx[:, None]
        m = fx.shape[-1]
        kind = np.complex128 if np.iscomplexobj(fx) else np.float64
        n_points += pos.size * m
        # the panel rule's sums follow the layout, so fix it to C order
        fx = np.ascontiguousarray(fx, dtype=kind).reshape(len(olo), 15, m)
        vals, errs = _panel_rule(fx, 0.5 * (ohi - olo))
        ps.olo = np.concatenate((ps.olo, olo))
        ps.ohi = np.concatenate((ps.ohi, ohi))
        ps.side = np.concatenate((ps.side, side))
        ps.cell = np.concatenate((ps.cell, cell))
        if ps.vals is None:
            ps.vals, ps.errs = vals, errs
        else:
            ps.vals = np.concatenate((ps.vals, vals))
            ps.errs = np.concatenate((ps.errs, errs))

    eval_and_append(*build_initial())
    m = ps.vals.shape[1]
    if aux_cols and m <= aux_cols:
        raise ValueError("aux_cols must be fewer than the integrand columns")
    rtol = np.full(m, rtol, dtype=float)
    value, error = np.empty(m, ps.vals.dtype), np.empty(m)
    width_floor = 32.0 * _EPS * max(1.0, abs(a), abs(b))
    rounds = 0

    def main_cols(arr):
        return arr[..., :arr.shape[-1] - aux_cols] if aux_cols else arr

    def target():
        return main_cols(atol + rtol[live] * np.abs(ps.vals.sum(axis=0)))

    def refine_to(budget_frac):
        nonlocal rounds, live
        stall = 0
        prev_excess = None
        while rounds < _MAX_ROUNDS and len(ps.olo) < _MAX_PANELS:
            tgt = target()
            perr = main_cols(ps.errs.sum(axis=0))
            failing = perr > budget_frac * tgt
            if not failing.any():
                return True
            # a split is due: columns within the stricter budget retire
            # with their tails, and no later round evaluates them
            if not aux_cols and (done := perr <= 0.1 * tgt).any():
                ids = np.arange(m)[live]
                value[ids[done]], error[ids[done]] = finalize(done)
                stay = ~done
                live = ids[stay]
                ps.vals, ps.errs = ps.vals[:, stay], ps.errs[:, stay]
                perr, tgt, failing = perr[stay], tgt[stay], failing[stay]
            excess = float(np.minimum(
                np.maximum(perr - budget_frac * tgt, 0.0), 1e300).sum())
            # splitting panels cannot beat an evaluation-noise floor;
            # two consecutive rounds without real progress mean the
            # residual error is noise, not unresolved structure
            if prev_excess is not None and excess > 0.9 * prev_excess:
                stall += 1
                if stall >= 2:
                    return False
            else:
                stall = 0
            prev_excess = excess
            nscore = (main_cols(ps.errs)[:, failing] / tgt[failing]).max(axis=1)
            splittable = (ps.ohi - ps.olo) > width_floor
            nscore = np.where(splittable, nscore, 0.0)
            top = nscore.max()
            if top <= 0.0:
                return False
            pick = nscore >= 0.25 * top
            room = _MAX_PANELS - len(ps.olo)
            if room <= 0:
                return False
            if pick.sum() > room:
                order = np.argsort(nscore)[::-1]
                keep = order[:room]
                pick = np.zeros_like(pick)
                pick[keep] = True
            idx = np.flatnonzero(pick)
            if idx.size == 0:
                return False
            lo, hi = ps.olo[idx], ps.ohi[idx]
            mid = 0.5 * (lo + hi)
            olo = np.concatenate((lo, mid))
            ohi = np.concatenate((mid, hi))
            side = np.tile(ps.side[idx], 2)
            cell = np.tile(ps.cell[idx], 2)
            keep_mask = ~pick
            ps.olo, ps.ohi = ps.olo[keep_mask], ps.ohi[keep_mask]
            ps.side, ps.cell = ps.side[keep_mask], ps.cell[keep_mask]
            ps.vals, ps.errs = ps.vals[keep_mask], ps.errs[keep_mask]
            eval_and_append(olo, ohi, side, cell)
            rounds += 1
        tgt = target()
        return not (main_cols(ps.errs.sum(axis=0)) > budget_frac * tgt).any()

    def finalize(cols=slice(None)):
        """Values and errors, ladder tails included, of live columns."""
        vals = ps.vals[:, cols]
        value = vals.sum(axis=0)
        tgt = atol + rtol[live][cols] * np.abs(value)
        error = ps.errs[:, cols].sum(axis=0)
        k = vals.shape[1]
        aux = np.arange(k) >= k - aux_cols
        for sd, flag in ((-1, sing_l), (1, sing_r)):
            if not flag:
                continue
            mask = ps.side == sd
            cells = np.zeros((_LADDER_LEVELS, k), vals.dtype)
            np.add.at(cells, ps.cell[mask], vals[mask])
            # one contiguous row per column, so a row sum is the same
            # pairwise sum as a sum over that column alone
            total, lim, unc = _tail_limits(np.ascontiguousarray(cells.T),
                                           1e-3 * tgt, aux,
                                           strict=not best_effort)
            value += lim - total
            error += unc
        return value, error

    for budget in (0.5, 0.1):
        refine_to(budget)
        value[live], error[live] = finalize()
        tgt = atol + rtol * np.abs(value)
        if not (main_cols(error) > main_cols(tgt)).any():
            return QuadResult(sign * value, error, n_evals, n_points)
    if best_effort:
        return QuadResult(sign * value, error, n_evals, n_points)
    ratio = main_cols(error) / np.maximum(main_cols(tgt), 1e-300)
    bad = int(np.argmax(ratio))
    raise NonConvergent(
        f"column {bad}: error estimate {error[bad]:.3e} exceeds "
        f"tolerance {tgt[bad]:.3e} after {len(ps.olo)} panels")
