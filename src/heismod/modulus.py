"""Moduli of horizontal families, their q-mass, and density probes.

Everything is evaluated in parameter coordinates,

    M_n = int_Lambda l(p)^-n  int_I |q(Phi(s,p))|^(n/2) |J_Phi| ds dp,

with n = 4 for a group family over two p-axes,

    M4 = int l(p1, p2)^-4  int |q(Phi)|^2 |J_Phi| ds dp1 dp2,

and n = 2 for a planar family over one p-axis,

    M2 = int l(p)^-2  int |q(Phi)| |J_Phi| ds dp,

so the leaf map Phi is never inverted.  One engine serves both: it
reads the chart's p-axes and exponent, and `modulus_m4` here and
`heismod.planar.modulus_m2` only add their family's gates.  Leaf
lengths l(p) are served by :class:`LeafLengthField`, which serves one
shared value when the lengths are constant and exact leaf integrals
otherwise.  Every leaf integral (lengths, masses, energies) collapses
dead p-axes through `_dedup_pairs`.  The p-integrals ride on the shared
batch quadrature with error channels (`aux_cols`), so the reported
``error_estimate`` aggregates the s-stage error, the leaf-length error,
and every p-stage.

Densities rho = w sqrt|q|/L_w, L_w the leaf's w-weighted q-length, live
here too; their energy runs through the modulus's own p-stage integrand
`_ratio_fn`, so the extremal energy (w = 1) is the modulus bit for bit.
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
    InversionFailure,
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


@dataclass(frozen=True)
class ModulusReport:
    """Outcome of a modulus computation with its error budget.

    consistency_gap is |main formula - constant-length shortcut| when the
    leaf lengths came out constant, else None.  residual_stats is the
    max |B2 q| seen on the sample grid.  meta carries run diagnostics
    (eval counts, elapsed seconds, tolerances, leaf-field mode).
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
    """Leaf q-lengths over the parameter box.

    Sampling starts on a slightly inset tensor grid over the chart's p
    axes (quadrature ladders probe far closer to the box edge than any
    practical grid, and some families have lengths that blow up right at
    the edge).  The field then settles into one of two modes:

    ``constant``
        relative spread on the grid below `_CONSTANT_RTOL`; queries are
        free and carry the spread in their error bound.
    ``exact``
        every query is an exact batched leaf integral, as is every query
        of a one-axis field, whatever its mode (see `eval`).

    `eval` always returns per-query error bounds alongside the values.
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
        speed = leaf_speed_fn(q, fol)

        def speed_cols(x, *pc):
            return speed(column_binding(fol, x, pc))

        self._speed_cols = speed_cols
        self._sing = _probe_singular(speed_cols, fol)
        self._dep = _axis_dependence(speed_cols, fol)
        vals, errs = self.exact(*pairs)
        if vals.min() <= 0.0 or not np.isfinite(vals).all():
            raise ZeroLeafLength("a sampled leaf has no q-length")
        self.value = float(vals.mean())
        self.value_err = float(errs.max()) + float(np.ptp(vals))
        self.spread_rel = float(np.ptp(vals)) / self.value
        self.mode = "constant" if self.spread_rel <= _CONSTANT_RTOL \
            else "exact"

    @property
    def constant(self) -> bool:
        return self.mode == "constant"

    def exact(self, *ps):
        """Exact leaf integrals and error bounds at paired parameter
        arrays, one per p-axis, whatever the mode; a family symmetric in
        one parameter computes each leaf of a query once."""
        return _dedup_pairs(self._integrate, ps, self._dep)

    def _integrate(self, *ps):
        # best effort: queries squeezed against the box edge carry honest
        # enlarged errors instead of aborting the field
        vals, errs = _s_batched(self.fol, self._speed_cols, ps,
                                rtol=self.length_tol,
                                atol=0.01 * self.length_tol,
                                counter=None, singular=self._sing)
        keys = np.column_stack([p if d else np.zeros(p.size)
                                for p, d in zip(ps, self._dep)])
        self._computed.append((keys, vals))
        return vals, errs

    def eval(self, *ps):
        """Lengths and error bounds at paired parameter arrays, one per
        p-axis.

        A one-axis field takes every length exactly at its own node: a
        one-axis p-stage is a single batch of leaves, so this is cheap,
        and a leaf's mass and length then share the rounding of q o Phi,
        which cancels in g / l^n.  One shared length per family leaves
        that rounding in: a few ulps, as large as the whole error of the
        planar oracles."""
        ps = tuple(np.asarray(p, dtype=float) for p in ps)
        if self.mode == "constant" and len(ps) > 1:
            shape = ps[0].shape
            return (np.full(shape, self.value),
                    np.full(shape, self.value_err))
        return self.exact(*ps)

    def stats(self) -> tuple:
        """(min, max, mean) over the distinct leaves computed exactly, each
        at its first computation, in the order they were computed."""
        keys = np.concatenate([k for k, _ in self._computed])
        _, first = np.unique(keys, axis=0, return_index=True)
        vals = np.concatenate([v for _, v in self._computed])[np.sort(first)]
        return (float(vals.min()), float(vals.max()), float(vals.mean()))


def _tensor_pairs(axes):
    """Every point of the tensor grid over `axes`, one array per axis,
    the first axis slowest."""
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

    Samples the integrand at geometrically shrinking offsets from the
    endpoint over a few parameter pairs; a finite, settled tail proves
    plain panels suffice there.  Anything non-finite or still moving
    keeps the endpoint ladder, so the probe only ever disables
    machinery it can certify as unnecessary.
    """
    (s0, s1) = fol.s_range
    span = s1 - s0
    ps = _interior_pairs(fol, 2)
    offs = span * 10.0 ** -np.arange(2.0, 11.0)
    flags = []
    for end, sgn in ((s0, 1.0), (s1, -1.0)):
        v = np.abs(cols_fn(end + sgn * offs, *ps))
        tail = v[-3:]
        scale = tail.max(axis=0) + 1e-300
        settled = bool(np.isfinite(v).all()
                       and (np.ptp(tail, axis=0) / scale
                            < _SETTLED_RTOL).all())
        flags.append(not settled)
    return tuple(flags)


def _axis_dependence(cols_fn, fol):
    """Which p-axes a nonnegative s-integrand numerically varies along.

    Many families are symmetric in one parameter (the integrand is a
    pullback through a rotation-like Phi), which a symbolic check
    cannot see once conjugate phases multiply out.  A collapse here
    lets pair evaluations dedup along the dead axis.

    The single axis of a one-axis family is always live: its modulus
    pairs every leaf's mass with that leaf's own length (see
    `LeafLengthField.eval`), which a collapse would undo.
    """
    d = len(fol.p_box)
    if d == 1:
        return (True,)
    (s0, s1) = fol.s_range
    sv = s0 + (s1 - s0) * np.array([0.23, 0.52, 0.81])
    fr = np.linspace(0.1, 0.9, 5)
    ps = _tensor_pairs([lo + (hi - lo) * fr for lo, hi in fol.p_box])
    v = np.abs(cols_fn(sv, *ps)).reshape((sv.size,) + (fr.size,) * d)
    scale = v.max() + 1e-300
    return tuple(bool(np.ptp(v, axis=k + 1).max() / scale > _DEAD_AXIS_RTOL)
                 for k in range(d))


def _dedup_pairs(fn, ps, dep):
    """Evaluate fn over parameter pairs, collapsing dead axes."""
    if all(dep):
        return fn(*ps)
    live = [p for p, d in zip(ps, dep) if d]
    key = live[0] if live else np.zeros_like(ps[0])
    uniq, first, inv = np.unique(key, return_index=True,
                                 return_inverse=True)
    outs = fn(*(p[first] for p in ps))
    return tuple(np.asarray(o)[inv] for o in outs)


def _probe_p_edges(pair_fn, fol):
    """Per-edge singularity flags ((lo, hi) per p-axis) for the box.

    The settled-tail rule of the leaf-direction probe, applied to the
    pointwise channels along geometric approaches to each box edge.  A
    channel that keeps growing (integrable parameter-edge blowup, e.g.
    leaf mass diverging where leaves pinch) keeps that edge's ladder in
    the nested integration; channels that settle or vanish release it.
    """
    mid = [0.5 * (lo + hi) for lo, hi in fol.p_box]
    out = []
    for axis, (lo, hi) in enumerate(fol.p_box):
        offs = (hi - lo) * 10.0 ** -np.arange(2.0, 11.0)
        flags = []
        for end, sgn in ((lo, 1.0), (hi, -1.0)):
            x = end + sgn * offs
            ps = [np.full(x.size, m) for m in mid]
            ps[axis] = x
            v = np.abs(np.asarray(pair_fn(*ps)[0]))
            tail = v[-3:]
            settled = np.isfinite(v).all(axis=0) & (
                (np.ptp(tail, axis=0) / (tail.max(axis=0) + 1e-300)
                 < _SETTLED_RTOL)
                | (tail.max(axis=0) < 1e-10 * (v.max(axis=0) + 1e-300)))
            flags.append(not settled.all())
        out.append(tuple(flags))
    return tuple(out)


def _nested_p_integral(fol, pair_fn, n_chan: int, *, rtol: float,
                       counter: dict):
    """Integrate pointwise channels over the parameter box.

    pair_fn(*ps) -> (values (k, n_chan), pointwise error bounds) at
    paired parameter arrays, one per p-axis.  Error bounds travel
    through every integration stage as aux columns; the returned errors
    combine them with the quadrature's own estimates.  A one-axis box
    has the outer stage only.

    The inner stage runs 5x tighter than the outer: the outer panels
    integrate values that carry the inner stages' quadrature noise, and
    refinement must see that noise as flat, not as structure worth
    splitting (otherwise it digs toward box edges where pullback phases
    degenerate and evaluation noise explodes).  Edges where a channel
    genuinely blows up get ladders, found by probing.
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


def _s_batched(fol, cols_fn, ps, *, rtol, atol, counter, singular):
    """Leaf-direction integrals of cols_fn over every parameter pair.

    Best-effort: pairs pinned against a degenerate box edge return
    honest oversized error bounds (which the enclosing p-integration
    weights and aggregates) instead of aborting the run.
    """
    (s0, s1) = fol.s_range
    k = ps[0].size
    vals = np.empty(k)
    errs = np.empty(k)
    for lo in range(0, k, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, k))
        res = integrate_batch(lambda x: cols_fn(x, *(p[sl] for p in ps)),
                              s0, s1, atol=atol, rtol=rtol,
                              singular=singular, best_effort=True)
        vals[sl] = res.value.real
        errs[sl] = res.error
        if counter is not None:
            counter["s_evals"] = counter.get("s_evals", 0) + res.n_evals
    return vals, errs


def _leaf_integrals(fol, cols, rtol: float, counter):
    """(*ps) -> (values, errors): the leaf-direction integrals of the
    nonnegative column evaluator cols(x, *pc) at paired parameter
    arrays.  Singular endpoints and dead p-axes are probed once, here.
    Masses and energies run at 0.01 tol, so their leaf noise never looks
    like structure to the p refinement."""
    sing = _probe_singular(cols, fol)
    dep = _axis_dependence(cols, fol)

    def raw(*ps):
        return _s_batched(fol, cols, ps, rtol=rtol, atol=_ATOL,
                          counter=counter, singular=sing)

    return lambda *ps: _dedup_pairs(raw, ps, dep)


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
    """p-stage integrand of a modulus or an energy: channels (g / l^n, g)
    and their error bounds, from leaf integrals g_of and lengths l_of."""
    def pair_fn(*ps):
        g, ge = g_of(*ps)
        lv, le = l_of(*ps)
        lin = 1.0 / lv ** n
        vals = np.stack((g * lin, g), axis=1)
        errs = np.stack((ge * lin + n * g * lin * (le / lv), ge), axis=1)
        return vals, errs
    return pair_fn


def _b2_spot_max(q: QuadDiff, fol: Foliation, n: int = 6) -> float:
    composed = fol.compose(q.b2_expr)
    return float(np.abs(E.eval_array(composed, fol.grid(n))).max())


def _q_mass(q, fol, tol: float, counter):
    """(mass, error) of the whole family: the one-channel p-integral of
    the leaf masses."""
    g_of = _leaf_integrals(fol, _mass_cols_fn(q, fol), 0.01 * tol, counter)

    def pair_fn(*ps):
        v, e = g_of(*ps)
        return v[:, None], e[:, None]

    vals, errs = _nested_p_integral(fol, pair_fn, 1, rtol=0.5 * tol,
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
    gap = abs(mod - vol / field.value ** n) if field.constant else None
    meta = {"q_volume": vol, "q_volume_error": float(errs[1]),
            "field_mode": field.mode, "tol": tol,
            "elapsed": perf_counter() - t0, **counter}
    return ModulusReport(mod, float(errs[0]), field.stats(), gap, residual,
                         meta)


def modulus_m4(q: QuadDiff, fol: Foliation, tol: float = 1e-8, *,
               override_b2_check: bool = False) -> ModulusReport:
    """Fourth-power modulus of the horizontal family carved out by q.

    The foliation must be legendrian with a Jacobian that does not
    vanish on the whole sample grid, its leaves horizontal for q, and q
    must pass a B2-kernel spot check (`override_b2_check` downgrades a
    failure to a warning; the modulus formula is only exact on the
    kernel).  The report carries the q-volume in meta and, when leaf
    lengths are constant, the gap against the constant-length shortcut.
    """
    t0 = perf_counter()
    fol.validate()
    if (np.abs(E.eval_array(fol.jac_a_expr, fol.grid(8))) < Q_FLOOR).all():
        raise InversionFailure("the chart's Jacobian vanishes on the whole "
                               "sample grid: its leaves sweep no volume")
    check_horizontal(q, fol, *_interior_pairs(fol, 7))
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
    fol.validate()
    check_horizontal(q, fol, *_interior_pairs(fol, 7))
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
    expression in s and the chart's p-variables; with none (or eps = 0),
    L_w is the field's length l and rho the extremal rho0.  Parameter
    arguments come one array per p-axis.
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

    def _factor(self, binding, shape):
        if self.modifier is None or self.eps == 0.0:
            return np.ones(shape)
        v = E.eval_array(self.modifier, binding)
        return _full_shape(1.0 + self.eps * np.real(v), shape)

    def _speed_integrals(self, tol):
        """(*ps) -> int w sqrt|q(Phi)| |d_s Phi1| ds per leaf, at 0.1 tol."""
        fol, speed = self.foliation, leaf_speed_fn(self.q, self.foliation)

        def cols(x, *pc):
            b = column_binding(fol, x, pc)
            return speed(b) * self._factor(b, (x.size, pc[0].size))
        return _leaf_integrals(fol, cols, 0.1 * tol, None)

    def leaf_lengths(self, tol: float = 1e-10):
        """(*ps) -> (L_w, error bounds): the field's lengths when w = 1,
        else the weighted leaf integrals at 0.1 tol, which must not
        collapse.  Its probes run once, here: build it once per use."""
        if self.modifier is None or self.eps == 0.0:
            return self.length_field.eval
        raw = self._speed_integrals(tol)

        def lengths(*ps):
            vals, errs = raw(*ps)
            if vals.min() <= math.sqrt(Q_FLOOR) * self.length_field.value:
                raise NonAdmissibleAfterRenormalization(
                    f"a weighted leaf length collapsed to {vals.min():.3e};"
                    " the perturbed density cannot be renormalized")
            return vals, errs
        return lengths

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
    v, ve = rho._speed_integrals(tol)(*ps)
    lv, le = rho.leaf_lengths(tol)(*ps)
    vals = v / lv
    errs = ve / lv + np.abs(v) * le / lv ** 2
    table = np.column_stack((*ps, vals, errs))
    return float(vals.min()), table


def density_energy(rho: Density, tol: float = 1e-8) -> float:
    """Energy int (rho o Phi)^n |J| over the family, n the chart's
    exponent: the modulus integral with w^n in the mass and L_w for l,
    so the modulus itself, bit for bit, when rho is extremal."""
    fol = rho.foliation
    fol.validate()
    n = fol.exponent
    counter: dict = {}
    mass = _mass_cols_fn(rho.q, fol)

    def cols(x, *pc):
        b = column_binding(fol, x, pc)
        return mass(x, *pc) * rho._factor(b, (x.size, pc[0].size)) ** n

    g_of = _leaf_integrals(fol, cols, 0.01 * tol, counter)
    l_of = rho.leaf_lengths(min(1e-10, 0.02 * tol))
    vals, _ = _nested_p_integral(fol, _ratio_fn(g_of, l_of, n), 2,
                                 rtol=0.5 * tol, counter=counter)
    return float(vals[0])


def perturbation_probe(rho: Density, g, eps: float,
                       tol: float = 1e-8) -> float:
    """Energy of the renormalized perturbation of the extremal density
    rho: (1+eps*g) sqrt|q| over its leaf's (1+eps*g)-weighted q-length.

    Extremality of rho means the energy can never undercut the modulus
    (beyond quadrature noise); the caller compares the two.  g must be
    real and keep 1 + eps*g positive on the whole box.
    """
    g = E.parse(g) if isinstance(g, str) else g
    rho = replace(rho, modifier=g, eps=float(eps))
    gv = E.eval_array(g, rho.foliation.grid(8))
    if np.abs(gv.imag).max() > 1e-9 * (1.0 + np.abs(gv.real).max()):
        raise ValueError("perturbation g must be real-valued")
    low = 1.0 + eps * gv.real.min() if eps >= 0 else 1.0 + eps * gv.real.max()
    if low <= 0.0:
        raise ValueError(
            f"1 + eps*g reaches {low:.3g} on the box; the perturbed "
            "density would not be nonnegative")
    return density_energy(rho, tol)
