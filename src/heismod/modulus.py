"""Moduli of horizontal families, their q-mass, and density energies.

Everything is evaluated in parameter coordinates,

    M_n = int_Lambda l(p)^-n  int_I |q(Phi(s,p))|^(n/2) |J_Phi| ds dp,

with n = 4 for a group family over two p-axes (M4) and n = 2 for a
planar family over one p-axis (M2), so the leaf map Phi is never
inverted.  One engine serves both: it reads the chart's p-axes and
exponent, and `modulus_m4` here and `heismod.planar.modulus_m2` only
add their family's gates.  Leaf lengths l(p) come from
:class:`LeafLengthField`: one shared value when they are constant,
exact leaf integrals otherwise.  Every leaf integral collapses dead
p-axes through `_dedup_pairs`.  The p-integrals ride on the batch
quadrature with error channels (`aux_cols`), so ``error_estimate``
aggregates the s-stage, leaf-length and p-stage errors.

A density rho = w sqrt|q|/L_w, w = 1 + eps*g and L_w the leaf's
w-weighted q-length, has as energy the same ratio integral with w^n in
the mass and L_w for l.  `density_energies` takes k densities as one
integral: the mass and speed columns are evaluated once per s-node
batch and weighted per channel, and one p-stage integrates the 2k
channels [g_k/L_k^n ..., g_k ...].  The extremal energy (w = 1) is the
modulus bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field, replace
from time import perf_counter

import numpy as np

from . import expr as E
from .errors import (
    ConstantLengthViolated,
    KernelResidualHigh,
    NonAdmissibleAfterRenormalization,
    NonConvergent,
    VariableMismatch,
    ZeroLeafLength,
)
from .foliation import (
    Foliation,
    _full_shape,
    check_horizontal,
    check_jacobian,
    column_binding,
    leaf_speed_fn,
)
from .qdiff import Q_FLOOR, QuadDiff
from .quadrature import integrate_batch

B2_GATE_TOL = 1e-8
CONSTANT_LENGTH_RTOL = 1e-6
_CHUNK = 2048
_INIT_AXIS = 9              # leaf-length grid points per p-axis
_CONSTANT_RTOL = 1e-9       # grid spread below which lengths are constant
_ATOL = 1e-14               # absolute tolerance of _leaf_integrals, p-stages
_SETTLED_RTOL = 1e-3        # relative spread of a settled probe tail
_DEAD_AXIS_RTOL = 1e-12     # relative variation below which an axis is dead
_EDGE_OFFS = 10.0 ** -np.arange(2.0, 11.0)  # probe offsets, box fractions


@dataclass(frozen=True)
class ModulusReport:
    """Outcome of a modulus computation with its error budget.

    consistency_gap is |main formula - constant-length shortcut| when the
    leaf lengths came out constant, else None; residual_stats is the max
    |B2 q| on the sample grid; meta carries run diagnostics.
    """

    modulus: float
    error_estimate: float
    leaf_length_stats: tuple
    consistency_gap: float | None
    residual_stats: float
    meta: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self.modulus > 0.0:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not self.error_estimate >= 0.0:
            raise ValueError("error_estimate must be nonnegative")


class LeafLengthField:
    """Leaf q-lengths over the parameter box, with per-query error bounds.

    Sampled first on a slightly inset tensor grid over the chart's
    p-axes (quadrature ladders probe far closer to the box edge than any
    grid, and some families' lengths blow up right at the edge), the
    field is ``constant`` when the relative spread there is below
    `_CONSTANT_RTOL` (queries are free and carry the spread in their
    error bound) and ``exact`` otherwise (every query is a batched leaf
    integral, as is every query of a one-axis field; see `eval`).
    """

    def __init__(self, q, fol, length_tol: float = 1e-10):
        self.fol = fol
        self.length_tol = float(length_tol)
        self._computed: list = []   # (leaf keys, lengths) per batch
        axes = [np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo),
                            _INIT_AXIS) for lo, hi in fol.p_box]
        qv = E.eval_array(fol.compose(q.coeff), fol.grid(5))
        if np.abs(qv).max() < Q_FLOOR:
            raise ZeroLeafLength(
                "q vanishes identically on the box; leaves have no length")
        pairs = _tensor_pairs(axes)
        check_horizontal(q, fol, *pairs)
        self._speed_cols = _speed_cols_fn(q, fol)
        self._sing = _probe_singular(self._speed_cols, fol)
        self._dep = _axis_dependence(self._speed_cols, fol)
        vals, errs = self.exact(*pairs)
        if vals.min() <= 0.0 or not np.isfinite(vals).all():
            raise ZeroLeafLength("a sampled leaf has no q-length")
        self.value = float(vals.mean())
        self.value_err = float(errs.max()) + float(np.ptp(vals))
        self.spread_rel = float(np.ptp(vals)) / self.value
        self.mode = "exact" if self.spread_rel > _CONSTANT_RTOL else "constant"

    def exact(self, *ps):
        """Exact leaf integrals and error bounds at paired parameter
        arrays, whatever the mode, each distinct leaf of a query once."""
        return _dedup_pairs(self._integrate, ps, self._dep)

    def _integrate(self, *ps):
        # best effort: queries at the box edge carry honest enlarged errors
        vals, errs = (a[:, 0] for a in _s_batched(
            self.fol, self._speed_cols, ps, rtol=self.length_tol,
            atol=0.01 * self.length_tol, counter=None, singular=self._sing))
        keys = np.column_stack([p if d else np.zeros(p.size)
                                for p, d in zip(ps, self._dep)])
        self._computed.append((keys, vals))
        return vals, errs

    def eval(self, *ps):
        """Lengths and error bounds at paired parameter arrays, one per
        p-axis.  A one-axis field takes every length exactly at its own
        node (one cheap batch of leaves), so a leaf's mass and length
        share the rounding of q o Phi, which cancels in g / l^n; one
        shared length would leave a few ulps, the planar oracles' whole
        error."""
        ps = tuple(np.asarray(p, dtype=float) for p in ps)
        if self.mode == "constant" and len(ps) > 1:
            return tuple(np.full(ps[0].shape, v)
                         for v in (self.value, self.value_err))
        return self.exact(*ps)

    def stats(self) -> tuple:
        """(min, max, mean) over the distinct leaves computed exactly, each
        at its first computation, in the order they were computed."""
        keys = np.concatenate([k for k, _ in self._computed])
        _, first = np.unique(keys, axis=0, return_index=True)
        vals = np.concatenate([v for _, v in self._computed])[np.sort(first)]
        return (float(vals.min()), float(vals.max()), float(vals.mean()))


def _tensor_pairs(axes):
    """The tensor grid over `axes`, one array per axis, first slowest."""
    total = math.prod(a.size for a in axes)
    out, inner = [], total
    for a in axes:
        inner //= a.size
        out.append(np.tile(np.repeat(a, inner), total // (a.size * inner)))
    return tuple(out)


def _interior_pairs(fol, n: int):
    fr = np.linspace(0.0, 1.0, n + 2)[1:-1]
    return _tensor_pairs([lo + (hi - lo) * fr for lo, hi in fol.p_box])


def _probe_singular(cols_fn, fol):
    """Classify each s-endpoint of a nonnegative integrand as regular.

    A finite, settled tail over a few parameter pairs proves plain panels
    suffice there; anything non-finite or still moving keeps the endpoint
    ladder, so the probe only disables machinery it can certify as
    unnecessary.
    """
    (s0, s1) = fol.s_range
    offs, ps = (s1 - s0) * _EDGE_OFFS, _interior_pairs(fol, 2)
    return (_unsettled(np.abs(cols_fn(s0 + offs, *ps))),
            _unsettled(np.abs(cols_fn(s1 - offs, *ps))))


def _unsettled(v, vanish=False):
    """Whether any column of magnitudes v, sampled at `_EDGE_OFFS` toward
    an edge, is non-finite or still moving over its last three samples
    (with `vanish`, a tail that dies out counts as settled)."""
    tail = v[-3:]
    ok = np.ptp(tail, axis=0) / (tail.max(axis=0) + 1e-300) < _SETTLED_RTOL
    if vanish:
        ok |= tail.max(axis=0) < 1e-10 * (v.max(axis=0) + 1e-300)
    return not (np.isfinite(v).all(axis=0) & ok).all()


def _axis_dependence(cols_fn, fol):
    """Which p-axes a nonnegative s-integrand numerically varies along.

    Many families are symmetric in one parameter (a pullback through a
    rotation-like Phi), which a symbolic check cannot see once conjugate
    phases multiply out; a dead axis lets pair evaluations dedup.  The
    single axis of a one-axis family is always live: its modulus pairs
    each leaf's mass with its own length (see `LeafLengthField.eval`).
    """
    d = len(fol.p_box)
    if d == 1:
        return (True,)
    (s0, s1) = fol.s_range
    sv = s0 + (s1 - s0) * np.array([0.23, 0.52, 0.81])
    fr = np.linspace(0.1, 0.9, 5)
    ps = _tensor_pairs([lo + (hi - lo) * fr for lo, hi in fol.p_box])
    # one (s, p1, ...) block per channel; an axis is live if any
    # channel varies along it, relative to that channel's own scale
    v = np.abs(cols_fn(sv, *ps)).reshape(
        (sv.size, -1) + (fr.size,) * d).swapaxes(0, 1)
    scale = v.reshape(len(v), -1).max(axis=1) + 1e-300
    return tuple(bool((np.ptp(v, axis=k + 2).reshape(len(v), -1).max(axis=1)
                       / scale > _DEAD_AXIS_RTOL).any()) for k in range(d))


def _dedup_pairs(fn, ps, dep):
    """Evaluate fn over parameter pairs, collapsing dead axes."""
    if all(dep):
        return fn(*ps)
    live = [p for p, d in zip(ps, dep) if d]
    key = live[0] if live else np.zeros_like(ps[0])
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    outs = fn(*(p[first] for p in ps))
    return tuple(np.asarray(o)[inv] for o in outs)


def _probe_p_edges(pair_fn, fol):
    """Per-edge singularity flags ((lo, hi) per p-axis) for the box.

    `_unsettled` along geometric approaches to each box edge: a channel
    that keeps growing (integrable blowup, e.g. leaf mass diverging where
    leaves pinch) keeps that edge's ladder; channels that settle or
    vanish release it.
    """
    mid = [0.5 * (lo + hi) for lo, hi in fol.p_box]

    def flag(axis, x):
        ps = [np.full(x.size, m) for m in mid]
        ps[axis] = x
        return _unsettled(np.abs(pair_fn(*ps)[0]), vanish=True)
    return tuple((flag(k, lo + (hi - lo) * _EDGE_OFFS),
                  flag(k, hi - (hi - lo) * _EDGE_OFFS))
                 for k, (lo, hi) in enumerate(fol.p_box))


def _nested_p_integral(fol, pair_fn, n_chan: int, *, rtol: float,
                       counter: dict):
    """Integrate pointwise channels over the parameter box.

    pair_fn(*ps) -> (values (k, n_chan), pointwise error bounds) at
    paired parameter arrays, one per p-axis.  Error bounds travel through
    every stage as aux columns and join the quadrature's own estimates.
    A one-axis box has the outer stage only.  The inner stage runs 5x
    tighter than the outer, so outer refinement sees the inner noise as
    flat, not as structure worth splitting (or it digs toward box edges
    where pullback phases degenerate and evaluation noise explodes).
    Edges where a channel genuinely blows up get ladders, found by
    probing.
    """
    sing = _probe_p_edges(pair_fn, fol)
    (a0, a1) = fol.p_box[0]

    def outer(x1):
        x1 = np.asarray(x1, dtype=float)
        if len(fol.p_box) == 1:
            return np.hstack(pair_fn(x1))
        (b0, b1) = fol.p_box[1]
        n1 = x1.size
        blk = n1 * n_chan

        def inner(x2):
            x2 = np.asarray(x2, dtype=float)
            vals, perr = pair_fn(np.tile(x1, x2.size), np.repeat(x2, n1))
            return np.hstack((vals.reshape(x2.size, blk),
                              perr.reshape(x2.size, blk)))

        res = integrate_batch(inner, b0, b1, atol=_ATOL, rtol=0.2 * rtol,
                              singular=sing[1], initial_panels=4,
                              aux_cols=blk, best_effort=True)
        counter["p_evals"] = counter.get("p_evals", 0) + res.n_evals
        v = res.value[:blk].real.reshape(n1, n_chan)
        pe = res.value[blk:].real.reshape(n1, n_chan)
        qe = res.error[:blk].reshape(n1, n_chan)
        return np.hstack((v, pe + qe))

    res = integrate_batch(outer, a0, a1, atol=_ATOL, rtol=rtol,
                          singular=sing[0], initial_panels=4,
                          aux_cols=n_chan)
    counter["p_evals"] = counter.get("p_evals", 0) + res.n_evals
    vals = res.value[:n_chan].real
    errs = res.error[:n_chan] + res.value[n_chan:].real
    # the outer quadrature enforced its own budget; the aggregated
    # pointwise channels must stay commensurate or the result is junk
    bad = errs > 8.0 * (_ATOL + 2.0 * rtol * np.abs(vals))
    if bad.any():
        c = int(np.argmax(errs))
        raise NonConvergent(
            f"aggregated error {errs[c]:.3e} on channel {c} is far beyond "
            f"the requested budget (value {vals[c]:.6e})")
    return vals, errs


def _s_batched(fol, cols_fn, ps, *, rtol, atol, counter, singular,
               chans=1):
    """Leaf-direction integrals of cols_fn, shape (pairs, chans), its
    channels channel-major, at most `_CHUNK` columns per integrate_batch
    call.  Best-effort: pairs pinned against a degenerate box edge return
    honest oversized error bounds, which the p-stage weights, instead of
    aborting."""
    (s0, s1) = fol.s_range
    k = ps[0].size
    step = max(1, _CHUNK // chans)
    vals = np.empty((chans, k))
    errs = np.empty((chans, k))
    for lo in range(0, k, step):
        sl = slice(lo, min(lo + step, k))
        res = integrate_batch(lambda x: cols_fn(x, *(p[sl] for p in ps)),
                              s0, s1, atol=atol, rtol=rtol,
                              singular=singular, best_effort=True)
        vals[:, sl] = res.value.real.reshape(chans, -1)
        errs[:, sl] = res.error.reshape(chans, -1)
        if counter is not None:
            counter["s_evals"] = counter.get("s_evals", 0) + res.n_evals
    return vals.T, errs.T


def _leaf_integrals(fol, cols, rtol: float, counter, chans: int = 1):
    """(*ps) -> (values, errors), shape (pairs, chans): leaf integrals of
    the nonnegative column evaluator cols(x, *pc), its singular endpoints
    and dead p-axes probed once, here.  Masses and energies run at 0.01
    tol, so their leaf noise never looks like structure to p refinement."""
    sing = _probe_singular(cols, fol)
    dep = _axis_dependence(cols, fol)

    def raw(*ps):
        return _s_batched(fol, cols, ps, rtol=rtol, atol=_ATOL,
                          counter=counter, singular=sing, chans=chans)

    return lambda *ps: _dedup_pairs(raw, ps, dep)


def _speed_cols_fn(q, fol):
    """sqrt|q(Phi)| |d_s Phi1|, the q-length element, in (s, pairs)."""
    speed = leaf_speed_fn(q, fol)
    return lambda x, *pc: speed(column_binding(fol, x, pc))


def _mass_cols_fn(q, fol):
    """|q(Phi)|^(n/2) |J| as a column evaluator in (s, pairs): |q|^2 |J|
    for the group's n = 4, |q| |J| for the plane's n = 2."""
    qabs = fol.compose(q.coeff if fol.exponent == 2 else E.abs2(q.coeff))
    jac = fol.jac_a_expr

    def cols(x, *pc):
        b = column_binding(fol, x, pc)
        v = np.abs(E.eval_array(qabs, b)) * np.abs(E.eval_array(jac, b))
        return _full_shape(v, (x.size, pc[0].size))
    return cols


def _ratio_fn(g_of, l_of, n: int):
    """p-stage integrand of a modulus or of k energies: channels
    [g_k / l_k^n ..., g_k ...] and their error bounds, from (pairs, k)
    leaf integrals g_of and lengths l_of (one length column serves all)."""
    def pair_fn(*ps):
        g, ge = g_of(*ps)
        lv, le = (np.reshape(a, (len(g), -1)) for a in l_of(*ps))
        lin = 1.0 / lv ** n
        vals = np.column_stack((g * lin, g))
        errs = np.column_stack((ge * lin + n * g * lin * (le / lv), ge))
        return vals, errs
    return pair_fn


def _b2_spot_max(q: QuadDiff, fol: Foliation, n: int = 6) -> float:
    composed = fol.compose(q.b2_expr)
    return float(np.abs(E.eval_array(composed, fol.grid(n))).max())


def _q_mass(q, fol, tol: float, counter):
    """(mass, error) of the family: the p-integral of the leaf masses."""
    g_of = _leaf_integrals(fol, _mass_cols_fn(q, fol), 0.01 * tol, counter)
    vals, errs = _nested_p_integral(fol, g_of, 1, rtol=0.5 * tol,
                                    counter=counter)
    return float(vals[0]), float(errs[0])


def q_volume(q, fol, tol: float = 1e-8) -> float:
    """Total |q|^(n/2) mass of the family in parameter coordinates: the
    q-volume of a group family, the q-area of a planar one."""
    fol.validate()
    return _q_mass(q, fol, tol, {})[0]


def family_modulus(q, fol, tol: float, residual: float,
                   t0: float) -> ModulusReport:
    """M_n = int l(p)^-n int |q o Phi|^(n/2) |J| ds dp for a family that
    already passed its entry point's gates; n is the chart's exponent.
    `residual` is the entry point's diagnostic for residual_stats and t0
    its start time.  The report carries the q-mass in meta under
    ``q_volume`` and, when leaf lengths are constant, the gap against the
    constant-length shortcut mass / l^n.
    """
    n = fol.exponent
    field = LeafLengthField(q, fol, length_tol=min(1e-10, 0.01 * tol))
    counter: dict = {}
    g_of = _leaf_integrals(fol, _mass_cols_fn(q, fol), 0.01 * tol, counter)
    vals, errs = _nested_p_integral(fol, _ratio_fn(g_of, field.eval, n), 2,
                                    rtol=0.5 * tol, counter=counter)
    mod, vol = float(vals[0]), float(vals[1])
    gap = (abs(mod - vol / field.value ** n) if field.mode == "constant"
           else None)
    meta = {"q_volume": vol, "q_volume_error": float(errs[1]),
            "field_mode": field.mode, "tol": tol,
            "elapsed": perf_counter() - t0, **counter}
    return ModulusReport(mod, float(errs[0]), field.stats(), gap, residual,
                         meta)


def _m4_gates(q, fol):
    """Entry gates of both 4-modulus routes: a valid legendrian chart, its
    Jacobian not zero on the whole sample grid, its leaves horizontal."""
    fol.validate()
    check_jacobian(fol)
    check_horizontal(q, fol, *_interior_pairs(fol, 7))


def modulus_m4(q: QuadDiff, fol: Foliation, tol: float = 1e-8, *,
               override_b2_check: bool = False) -> ModulusReport:
    """Fourth-power modulus of the horizontal family carved out by q.

    Past `_m4_gates`, q must pass a B2-kernel spot check
    (`override_b2_check` downgrades a failure to a warning; the modulus
    formula is only exact on the kernel).  The report carries the q-volume in meta and, when leaf
    lengths are constant, the gap against the constant-length shortcut.
    """
    t0 = perf_counter()
    _m4_gates(q, fol)
    b2max = _b2_spot_max(q, fol)
    if b2max > B2_GATE_TOL:
        msg = (f"max |B2 q| = {b2max:.3e} exceeds {B2_GATE_TOL:.1e} on the "
               "sample grid; q is not in the B2 kernel")
        if not override_b2_check:
            raise KernelResidualHigh(msg)
        warnings.warn(msg)
    return family_modulus(q, fol, tol, b2max, t0)


def modulus_constant_length(q: QuadDiff, fol: Foliation,
                            tol: float = 1e-8) -> ModulusReport:
    """q_volume / l^4 shortcut, valid only for constant leaf lengths."""
    t0 = perf_counter()
    _m4_gates(q, fol)
    field = LeafLengthField(q, fol, length_tol=min(1e-10, 0.01 * tol))
    if field.spread_rel > CONSTANT_LENGTH_RTOL:
        raise ConstantLengthViolated(
            f"leaf lengths spread by {field.spread_rel:.3e} relative "
            f"(limit {CONSTANT_LENGTH_RTOL:.1e})")
    counter: dict = {}
    vol, vol_err = _q_mass(q, fol, tol, counter)
    lbar = field.stats()[2]
    mod = vol / lbar ** 4
    err = vol_err / lbar ** 4 + 4.0 * vol * field.value_err / lbar ** 5
    meta = {"q_volume": vol, "q_volume_error": vol_err,
            "common_length": lbar, "field_mode": field.mode, "tol": tol,
            "elapsed": perf_counter() - t0, **counter}
    return ModulusReport(mod, err, field.stats(), None,
                         _b2_spot_max(q, fol), meta)


@dataclass(frozen=True)
class Density:
    """Pullback density rho(Phi(s,p)) = w sqrt|q(Phi)| / L_w(p), w = 1+eps*g.

    L_w = int w sqrt|q(Phi)| |d_s Phi1| ds is the leaf's w-weighted
    q-length, so every leaf integral of rho is 1.  The modifier g is an
    expression in s and the chart's p-variables; unless `weighted`, L_w
    is the field's length l and rho the extremal rho0.
    """

    q: QuadDiff
    foliation: Foliation
    length_field: LeafLengthField = dc_field(repr=False, compare=False)
    modifier: E.Expr | None = None
    eps: float = 0.0

    def __post_init__(self):
        if self.modifier is not None:
            names = ("s", *self.foliation.p_vars)
            extra = E.free_vars(self.modifier) - set(names)
            if extra:
                raise VariableMismatch(
                    f"modifier uses variables {sorted(extra)}; only "
                    f"({', '.join(names)}) are allowed")

    @property
    def weighted(self) -> bool:
        return self.modifier is not None and self.eps != 0.0

    def _factor(self, binding, shape):
        if not self.weighted:
            return np.ones(shape)
        v = E.eval_array(self.modifier, binding)
        return _full_shape(1.0 + self.eps * np.real(v), shape)

    def leaf_lengths(self, tol: float = 1e-10):
        """(*ps) -> (L_w, error bounds): the field's lengths when w = 1,
        else the weighted leaf integrals of `_weighted_lengths`."""
        if not self.weighted:
            return self.length_field.eval
        lengths = _weighted_lengths([self], tol)
        return lambda *ps: tuple(a[:, 0] for a in lengths(*ps))

    def pullback(self, s, *ps):
        """Density values rho(Phi(s, *ps)) at broadcastable arrays."""
        s, *ps = np.broadcast_arrays(
            *(np.asarray(a, dtype=float) for a in (s, *ps)))
        b = dict(zip(("s", *self.foliation.p_vars), (s, *ps)))
        qv = np.abs(E.eval_array(self.foliation.compose(self.q.coeff), b))
        base = np.sqrt(_full_shape(qv, s.shape))
        lv, _ = self.leaf_lengths()(*(p.ravel() for p in ps))
        return base * self._factor(b, s.shape) / lv.reshape(s.shape)


def extremal_density(q, fol) -> Density:
    """The density sqrt|q|/l that attains the modulus."""
    return Density(q, fol, LeafLengthField(q, fol))


def _weighted_cols(base, rhos, n: int):
    """Column evaluator base(x, *pc) * w_k^n for k densities,
    channel-major: base runs once per s-node batch and each channel is
    written in place into one complex (nodes, k*pairs) array, the type
    integrate_batch works in, so it makes no converted copy."""
    def cols(x, *pc):
        m, b = pc[0].size, column_binding(rhos[0].foliation, x, pc)
        v, out = base(x, *pc), np.empty((x.size, len(rhos) * m), complex)
        for j, rho in enumerate(rhos):
            np.multiply(v, rho._factor(b, (x.size, m)) ** n,
                        out=out[:, j * m:(j + 1) * m])
        return out
    return cols


def _weighted_lengths(rhos, tol: float):
    """(*ps) -> (L_w, error bounds) per pair and density: the field's
    lengths where w = 1, else int w sqrt|q(Phi)| |d_s Phi1| ds, one
    stacked s-stage at 0.1 tol, which must not collapse.  Its probes run
    once, here: build it once per use."""
    rho, field = rhos[0], rhos[0].length_field
    wtd = [j for j, r in enumerate(rhos) if r.weighted]
    if wtd:
        speed = _speed_cols_fn(rho.q, rho.foliation)
        raw = _leaf_integrals(rho.foliation, _weighted_cols(
            speed, [rhos[j] for j in wtd], 1), 0.1 * tol, None, len(wtd))

    def lengths(*ps):
        out = np.empty((2, ps[0].size, len(rhos)))
        if len(wtd) < len(rhos):
            out[:] = np.asarray(field.eval(*ps))[:, :, None]
        if wtd:
            out[:, :, wtd] = raw(*ps)
            low = out[0][:, wtd].min()
            if low <= math.sqrt(Q_FLOOR) * field.value:
                raise NonAdmissibleAfterRenormalization(
                    f"a weighted leaf length collapsed to {low:.3e}; the "
                    "perturbed density cannot be renormalized")
        return out[0], out[1]
    return lengths


def admissibility_check(rho: Density, leaf_sample_count: int = 64,
                        tol: float = 1e-10):
    """Per-leaf line integrals of rho; admissible iff the min is >= 1.

    Returns (min_integral, table) with table columns (*p, integral,
    error bound), one p column per chart axis, over roughly
    `leaf_sample_count` sampled leaves.
    """
    fol = rho.foliation
    n = max(2, math.ceil(leaf_sample_count ** (1.0 / len(fol.p_box))))
    ps = _interior_pairs(fol, n)
    if rho.weighted:        # the numerator is L_w: integrate it once
        v, ve = lv, le = rho.leaf_lengths(tol)(*ps)
    else:
        v, ve = (a[:, 0] for a in _leaf_integrals(
            fol, _speed_cols_fn(rho.q, fol), 0.1 * tol, None)(*ps))
        lv, le = rho.length_field.eval(*ps)
    vals = v / lv
    errs = ve / lv + np.abs(v) * le / lv ** 2
    table = np.column_stack((*ps, vals, errs))
    return float(vals.min()), table


def density_energies(rhos, tol: float = 1e-8) -> list:
    """Energies int (rho_k o Phi)^n |J| of k densities that share q,
    foliation and length field, n the chart's exponent: one stacked mass
    s-stage, one stacked weighted-length s-stage and one p-stage over
    the 2k channels of `_ratio_fn` (see the module docstring)."""
    rho, fol = rhos[0], rhos[0].foliation
    if len({(id(r.q), id(r.foliation), id(r.length_field))
            for r in rhos}) > 1:
        raise ValueError("densities of one batch must share q, foliation "
                         "and length field")
    fol.validate()
    n, k, counter = fol.exponent, len(rhos), {}
    mass = _weighted_cols(_mass_cols_fn(rho.q, fol), rhos, n)
    g_of = _leaf_integrals(fol, mass, 0.01 * tol, counter, k)
    l_of = _weighted_lengths(rhos, min(1e-10, 0.02 * tol))
    vals, _ = _nested_p_integral(fol, _ratio_fn(g_of, l_of, n), 2 * k,
                                 rtol=0.5 * tol, counter=counter)
    return [float(v) for v in vals[:k]]


def density_energy(rho: Density, tol: float = 1e-8) -> float:
    """`density_energies` of one density: the modulus, bit for bit,
    when rho is extremal."""
    return density_energies([rho], tol)[0]


def perturbed_density(rho: Density, g, eps: float) -> Density:
    """The renormalized perturbation of rho: (1+eps*g) sqrt|q| over its
    leaf's (1+eps*g)-weighted q-length.  g, an expression or its text,
    must be real and keep 1 + eps*g positive on the whole box."""
    g = E.parse(g) if isinstance(g, str) else g
    gv = E.eval_array(g, rho.foliation.grid(8))
    if np.abs(gv.imag).max() > 1e-9 * (1.0 + np.abs(gv.real).max()):
        raise ValueError("perturbation g must be real-valued")
    low = 1.0 + eps * (gv.real.min() if eps >= 0 else gv.real.max())
    if low <= 0.0:
        raise ValueError(
            f"1 + eps*g reaches {low:.3g} on the box; the perturbed "
            "density would not be nonnegative")
    return replace(rho, modifier=g, eps=float(eps))


def perturbation_probe(rho: Density, g, eps: float,
                       tol: float = 1e-8) -> float:
    """Energy of the `perturbed_density` of the extremal density rho,
    which by extremality can never undercut the modulus (beyond
    quadrature noise); the caller compares the two."""
    return density_energies([perturbed_density(rho, g, eps)], tol)[0]
