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
lengths l(p) are served by :class:`LeafLengthField`, which memoizes
exact leaf integrals and only interpolates when a cubic fit
demonstrably reproduces probe values.  The p-integrals ride on the
shared batch quadrature with error channels (`aux_cols`), so the
reported ``error_estimate`` aggregates the s-stage error, the
leaf-length error, and every p-stage.

The extremal density rho0 = sqrt|q|/l and its perturbations live here
too; ``perturbation_probe`` renormalizes per leaf, which keeps every
probe exactly admissible and makes the energy comparison against the
modulus a genuine lower-bound test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field, replace
from time import perf_counter

import numpy as np
from scipy.interpolate import RegularGridInterpolator

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
    column_binding,
    leaf_length_batch,
    leaf_speed_fn,
)
from .qdiff import Q_FLOOR, QuadDiff
from .quadrature import integrate_batch

B2_GATE_TOL = 1e-8
CONSTANT_LENGTH_RTOL = 1e-6
_CHUNK = 2048


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
    """Leaf q-lengths over the parameter box, memoized and fitted.

    Sampling starts on a slightly inset tensor grid over the chart's p
    axes (quadrature ladders probe far closer to the box edge than any
    practical grid, and some families have lengths that blow up right at
    the edge).  The field then settles into one of three modes:

    ``constant``
        relative spread below `constant_rtol`; queries are free.
    ``interpolated``
        a cubic fit reproduces midpoint probes within `rtol`; queries
        inside the grid hull interpolate, queries outside fall back to
        exact integrals.
    ``exact``
        the fit cannot meet `rtol` even after refining the axes where
        probes fail; every query is an exact batched leaf integral.

    `eval` always returns per-query error bounds alongside the values.
    """

    def __init__(self, q, fol, rtol: float = 1e-9,
                 length_tol: float = 1e-10, init_axis: int = 9,
                 max_axis: int = 65, constant_rtol: float = 1e-9):
        self.q, self.fol = q, fol
        self.rtol = float(rtol)
        self.length_tol = float(length_tol)
        self._memo: dict = {}
        self._itp = None
        axes = [np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo),
                            init_axis) for lo, hi in fol.p_box]
        qv = E.eval_array(fol.compose(q.coeff), fol.grid(5))
        if np.abs(qv).max() < Q_FLOOR:
            raise ZeroLeafLength(
                "q vanishes identically on the box; leaves have no length")
        check_horizontal(q, fol, *_tensor_pairs(axes))
        speed = leaf_speed_fn(q, fol)

        def speed_cols(x, *pc):
            return speed(column_binding(fol, x, pc))

        self._sing = _probe_singular(speed_cols, fol)
        self._dep = _axis_dependence(speed_cols, fol)
        vals = self._tensor(axes)
        if vals.min() <= 0.0 or not np.isfinite(vals).all():
            raise ZeroLeafLength("a sampled leaf has no q-length")
        mean = float(vals.mean())
        self._spread_rel = float(np.ptp(vals)) / mean
        self.value = mean
        self.value_err = self._max_memo_err() + float(np.ptp(vals))
        if self._spread_rel <= constant_rtol:
            self.mode = "constant"
            return
        for _ in range(6):
            itp = RegularGridInterpolator(tuple(axes), vals, method="cubic")
            mids = [0.5 * (a[:-1] + a[1:]) for a in axes]
            P = _tensor_pairs(mids)
            exact = self.exact(*P)[0].reshape(tuple(m.size for m in mids))
            got = itp(np.column_stack(P)).reshape(exact.shape)
            relerr = np.abs(got - exact) / exact
            if relerr.max() <= self.rtol:
                self.mode = "interpolated"
                self._itp = itp
                self._axes = axes
                # snapshot: later out-of-hull queries must not inflate
                # the error attributed to in-hull interpolation
                self._grid_err = self._max_memo_err()
                return
            for k, m in enumerate(mids):
                worst = np.moveaxis(relerr, k, 0).reshape(m.size, -1)
                axes[k] = np.union1d(axes[k],
                                     m[worst.max(axis=1) > self.rtol])
            if max(a.size for a in axes) > max_axis:
                break
            vals = self._tensor(axes)
            self._spread_rel = max(self._spread_rel,
                                   float(np.ptp(vals)) / float(vals.mean()))
        self.mode = "exact"

    @property
    def constant(self) -> bool:
        return self.mode == "constant"

    @property
    def spread_rel(self) -> float:
        return self._spread_rel

    def _tensor(self, axes):
        return self.exact(*_tensor_pairs(axes))[0].reshape(
            tuple(a.size for a in axes))

    def exact(self, *ps):
        """Exact leaf integrals and error bounds at paired parameter
        arrays, one per p-axis, memoized whatever the mode."""
        points = list(zip(*(p.tolist() for p in ps)))
        # lengths memo under dead-axis collapse, so a family that is
        # symmetric in one parameter never recomputes along it
        keys = points if all(self._dep) else [
            tuple(a if d else 0.0 for a, d in zip(p, self._dep))
            for p in points]
        rep: dict = {}
        for k, p in zip(keys, points):
            if k not in self._memo and k not in rep:
                rep[k] = p
        missing = list(rep)
        for lo in range(0, len(missing), _CHUNK):
            part = missing[lo:lo + _CHUNK]
            mps = [np.array([rep[k][j] for k in part])
                   for j in range(len(ps))]
            # best effort: queries squeezed against the box edge carry
            # honest enlarged errors instead of aborting the field
            vals, errs = leaf_length_batch(self.q, self.fol, *mps,
                                           tol=self.length_tol, check=False,
                                           singular=self._sing,
                                           best_effort=True)
            for k, v, e in zip(part, vals, errs):
                self._memo[k] = (float(v), float(e))
        out = np.array([self._memo[k] for k in keys])
        return out[:, 0], out[:, 1]

    def _max_memo_err(self) -> float:
        return max(e for _, e in self._memo.values())

    def eval(self, *ps):
        """Lengths and error bounds at paired parameter arrays, one per
        p-axis."""
        ps = tuple(np.asarray(p, dtype=float) for p in ps)
        shape = ps[0].shape
        if self.mode == "constant":
            return (np.full(shape, self.value),
                    np.full(shape, self.value_err))
        if self.mode == "exact":
            return self.exact(*ps)
        inside = np.ones(shape, dtype=bool)
        for p, a in zip(ps, self._axes):
            inside &= (p >= a[0]) & (p <= a[-1])
        vals = np.empty(shape)
        errs = np.empty(shape)
        if inside.any():
            v = self._itp(np.column_stack([p[inside] for p in ps]))
            vals[inside] = v
            errs[inside] = 2.0 * self.rtol * np.abs(v) + self._grid_err
        if (~inside).any():
            vo, eo = self.exact(*(p[~inside] for p in ps))
            vals[~inside] = vo
            errs[~inside] = eo
        return vals, errs

    def stats(self) -> tuple:
        """(min, max, mean) over every exactly computed leaf."""
        vals = np.array([v for v, _ in self._memo.values()])
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


def _probe_singular(cols_fn, fol, rtol: float = 1e-3):
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
                       and (np.ptp(tail, axis=0) / scale < rtol).all())
        flags.append(not settled)
    return tuple(flags)


def _axis_dependence(cols_fn, fol, rtol: float = 1e-12):
    """Which p-axes a nonnegative s-integrand numerically varies along.

    Many families are symmetric in one parameter (the integrand is a
    pullback through a rotation-like Phi), which a symbolic check
    cannot see once conjugate phases multiply out.  A collapse here
    lets pair evaluations dedup along the dead axis.

    The single axis of a one-axis family is always live: its modulus
    pairs every leaf's mass with that leaf's own length (see
    `family_modulus`), which a collapse would undo.
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
    return tuple(bool(np.ptp(v, axis=k + 1).max() / scale > rtol)
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


def _probe_p_edges(pair_fn, fol, rtol: float = 1e-3):
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
            v, _ = pair_fn(*ps)
            v = np.abs(np.asarray(v))
            tail = v[-3:]
            settled = np.isfinite(v).all(axis=0) & (
                (np.ptp(tail, axis=0) / (tail.max(axis=0) + 1e-300) < rtol)
                | (tail.max(axis=0) < 1e-10 * (v.max(axis=0) + 1e-300)))
            flags.append(not settled.all())
        out.append(tuple(flags))
    return tuple(out)


def _nested_p_integral(fol, pair_fn, n_chan: int, *,
                       rtol: float, atol: float = 1e-14, counter=None):
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

        res = integrate_batch(inner, b0, b1, atol=atol, rtol=0.2 * rtol,
                              singular=sing[1], initial_panels=4,
                              aux_cols=blk, best_effort=True)
        if counter is not None:
            counter["p_evals"] = counter.get("p_evals", 0) + res.n_evals
        v = res.value[:blk].real.reshape(n1, n_chan)
        pe = res.value[blk:].real.reshape(n1, n_chan)
        qe = res.error[:blk].reshape(n1, n_chan)
        return np.hstack((v, pe + qe))

    res = integrate_batch(outer, a0, a1, atol=atol, rtol=rtol,
                          singular=sing[0], initial_panels=4,
                          aux_cols=n_chan)
    if counter is not None:
        counter["p_evals"] = counter.get("p_evals", 0) + res.n_evals
    vals = res.value[:n_chan].real
    errs = res.error[:n_chan] + res.value[n_chan:].real
    # the outer quadrature enforced its own budget; the aggregated
    # pointwise channels must stay commensurate or the result is junk
    bad = errs > 8.0 * (atol + 2.0 * rtol * np.abs(vals))
    if bad.any():
        c = int(np.argmax(errs))
        raise NonConvergent(
            f"aggregated error {errs[c]:.3e} on channel {c} is far beyond "
            f"the requested budget (value {vals[c]:.6e})")
    return vals, errs


def _s_batched(fol, cols_fn, ps, *, rtol, atol, counter,
               singular=(True, True)):
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


def _b2_spot_max(q: QuadDiff, fol: Foliation, n: int = 6) -> float:
    composed = fol.compose(q.b2_expr)
    return float(np.abs(E.eval_array(composed, fol.grid(n))).max())


def _mass_machine(q, fol, tol: float, counter):
    """(*ps) -> (G, err) with G the leaf-direction |q|^(n/2) |J| mass."""
    cols = _mass_cols_fn(q, fol)
    sing = _probe_singular(cols, fol)
    dep = _axis_dependence(cols, fol)

    def raw(*ps):
        # far below the p-stage budgets so leaf-mass noise never looks
        # like structure to the p refinement
        return _s_batched(fol, cols, ps, rtol=0.01 * tol, atol=1e-14,
                          counter=counter, singular=sing)

    return lambda *ps: _dedup_pairs(raw, ps, dep)


def q_volume(q, fol, tol: float = 1e-8) -> float:
    """Total |q|^(n/2) mass of the family in parameter coordinates: the
    q-volume of a group family, the q-area of a planar one."""
    fol.validate()
    counter: dict = {}
    g_of = _mass_machine(q, fol, tol, counter)

    def pair_fn(*ps):
        v, e = g_of(*ps)
        return v[:, None], e[:, None]

    vals, _ = _nested_p_integral(fol, pair_fn, 1, rtol=0.5 * tol,
                                 counter=counter)
    return float(vals[0])


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
    field = LeafLengthField(q, fol, rtol=0.05 * tol,
                            length_tol=min(1e-10, 0.01 * tol))
    counter: dict = {}
    g_of = _mass_machine(q, fol, tol, counter)
    # A one-axis family takes every length exactly at its own node: the
    # p-stage is a single batch of leaves, so this is cheap, and a leaf's
    # mass and length then share the rounding of q o Phi, which cancels in
    # g / l^n.  One shared length per family leaves that rounding in: a
    # few ulps, as large as the whole error of the planar oracles.
    lengths = field.eval if len(fol.p_box) > 1 else field.exact

    def pair_fn(*ps):
        g, ge = g_of(*ps)
        lv, le = lengths(*ps)
        lin = 1.0 / lv ** n
        vals = np.stack((g * lin, g), axis=1)
        errs = np.stack((ge * lin + n * g * lin * (le / lv), ge), axis=1)
        return vals, errs

    vals, errs = _nested_p_integral(fol, pair_fn, 2, rtol=0.5 * tol,
                                    counter=counter)
    mod, vol = float(vals[0]), float(vals[1])
    gap = abs(mod - vol / field.value ** n) if field.constant else None
    meta = {"q_volume": vol, "q_volume_error": float(errs[1]),
            "field_mode": field.mode, "tol": tol,
            "elapsed": perf_counter() - t0, **counter}
    return ModulusReport(mod, float(errs[0]), field.stats(), gap, residual,
                         meta)


def modulus_m4(q: QuadDiff, fol: Foliation, tol: float = 1e-8, *,
               b2_tol: float = B2_GATE_TOL,
               override_b2_check: bool = False) -> ModulusReport:
    """Fourth-power modulus of the horizontal family carved out by q.

    The foliation must be legendrian, its leaves horizontal for q, and q
    must pass a B2-kernel spot check (`override_b2_check` downgrades a
    failure to a warning; the modulus formula is only exact on the
    kernel).  The report carries the q-volume in meta and, when leaf
    lengths are constant, the gap against the constant-length shortcut.
    """
    t0 = perf_counter()
    fol.validate()
    check_horizontal(q, fol, *_interior_pairs(fol, 7))
    b2max = _b2_spot_max(q, fol)
    if b2max > b2_tol:
        msg = (f"max |B2 q| = {b2max:.3e} exceeds {b2_tol:.1e} on the "
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
    field = LeafLengthField(q, fol, rtol=0.05 * tol,
                            length_tol=min(1e-10, 0.01 * tol))
    if field.spread_rel > CONSTANT_LENGTH_RTOL:
        raise ConstantLengthViolated(
            f"leaf lengths spread by {field.spread_rel:.3e} relative "
            f"(limit {CONSTANT_LENGTH_RTOL:.1e})")
    counter: dict = {}
    g_of = _mass_machine(q, fol, tol, counter)

    def pair_fn(*ps):
        v, e = g_of(*ps)
        return v[:, None], e[:, None]

    vals, errs = _nested_p_integral(fol, pair_fn, 1, rtol=0.5 * tol,
                                    counter=counter)
    vol = float(vals[0])
    lbar = field.stats()[2]
    mod = vol / lbar ** 4
    err = float(errs[0]) / lbar ** 4 + 4.0 * vol * field.value_err / lbar ** 5
    meta = {"q_volume": vol, "q_volume_error": float(errs[0]),
            "common_length": lbar, "field_mode": field.mode, "tol": tol,
            "elapsed": perf_counter() - t0, **counter}
    return ModulusReport(mod, err, field.stats(), None,
                         _b2_spot_max(q, fol), meta)


@dataclass(frozen=True)
class Density:
    """Pullback density rho(Phi(s,p)) = scale * sqrt|q(Phi)|/l(p) * (1+eps*g).

    With per_leaf_norm set, each leaf's line integral is divided out, so
    the density is exactly admissible (every leaf integral equals
    `scale`).  The modifier g is an expression in (s, p1, p2); without
    one the density is the extremal rho0 up to `scale`.
    """

    q: QuadDiff
    foliation: Foliation
    length_field: LeafLengthField = dc_field(repr=False, compare=False)
    scale: float = 1.0
    modifier: E.Expr | None = None
    eps: float = 0.0
    per_leaf_norm: bool = False
    _norm_memo: dict = dc_field(default_factory=dict, init=False,
                                repr=False, compare=False)

    def __post_init__(self):
        if self.scale < 0.0:
            raise ValueError("scale must be nonnegative")
        if self.modifier is not None:
            extra = E.free_vars(self.modifier) - {"s", "p1", "p2"}
            if extra:
                raise VariableMismatch(
                    f"modifier uses variables {sorted(extra)}; only "
                    "(s, p1, p2) are allowed")

    def scaled(self, c: float) -> "Density":
        return replace(self, scale=self.scale * c)

    def _factor(self, binding, shape):
        if self.modifier is None or self.eps == 0.0:
            return np.ones(shape)
        v = E.eval_array(self.modifier, binding)
        return _full_shape(1.0 + self.eps * np.real(v), shape)

    def _base_cols(self):
        speed = leaf_speed_fn(self.q, self.foliation)

        def cols(x, p1c, p2c):
            b = {"s": x[:, None], "p1": p1c[None, :], "p2": p2c[None, :]}
            shape = (x.size, p1c.size)
            return _full_shape(speed(b), shape) * self._factor(b, shape)
        return cols

    def _base_leaf_integrals(self, p1, p2, tol, counter=None):
        """(1/l) int sqrt|q(Phi)| (1+eps g) |d_s Phi1| ds per leaf."""
        cols = self._base_cols()
        sing = _probe_singular(cols, self.foliation)
        dep = _axis_dependence(cols, self.foliation)

        def raw(*ps):
            return _s_batched(self.foliation, cols, ps,
                              rtol=0.1 * tol, atol=1e-14,
                              counter=counter, singular=sing)

        v, ve = _dedup_pairs(raw, (p1, p2), dep)
        lv, le = self.length_field.eval(p1, p2)
        return v / lv, ve / lv + np.abs(v) * le / lv ** 2

    def norms(self, p1, p2, tol: float = 1e-10, counter=None):
        """Per-leaf integrals used for renormalization, memoized."""
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        keys = list(zip(p1.tolist(), p2.tolist()))
        missing = [k for k in dict.fromkeys(keys) if k not in self._norm_memo]
        if missing:
            mp1 = np.array([k[0] for k in missing])
            mp2 = np.array([k[1] for k in missing])
            vals, errs = self._base_leaf_integrals(mp1, mp2, tol, counter)
            if vals.min() <= math.sqrt(Q_FLOOR):
                raise NonAdmissibleAfterRenormalization(
                    f"a leaf integral collapsed to {vals.min():.3e}; the "
                    "perturbed density cannot be renormalized")
            for k, v, e in zip(missing, vals, errs):
                self._norm_memo[k] = (float(v), float(e))
        out = np.array([self._norm_memo[k] for k in keys])
        return out[:, 0], out[:, 1]

    def pullback(self, s, p1, p2):
        """Density values rho(Phi(s, p1, p2)) at broadcastable arrays."""
        s, p1, p2 = np.broadcast_arrays(np.asarray(s, dtype=float),
                                        np.asarray(p1, dtype=float),
                                        np.asarray(p2, dtype=float))
        b = {"s": s, "p1": p1, "p2": p2}
        qv = np.abs(E.eval_array(self.foliation.compose(self.q.coeff), b))
        base = np.sqrt(_full_shape(qv, s.shape))
        lv, _ = self.length_field.eval(p1.ravel(), p2.ravel())
        out = self.scale * base * self._factor(b, s.shape) \
            / lv.reshape(s.shape)
        if self.per_leaf_norm:
            nv, _ = self.norms(p1.ravel(), p2.ravel())
            out = out / nv.reshape(s.shape)
        return out


def extremal_density(q: QuadDiff, fol: Foliation) -> Density:
    """The density sqrt|q|/l that attains the modulus."""
    qv = E.eval_array(fol.compose(q.coeff), fol.grid(5))
    if np.abs(qv).max() < Q_FLOOR:
        raise ZeroLeafLength(
            "q vanishes identically on the box; leaves have no length")
    return Density(q, fol, LeafLengthField(q, fol))


def admissibility_check(rho: Density, fol: Foliation | None = None,
                        leaf_sample_count: int = 64,
                        tol: float = 1e-10):
    """Per-leaf line integrals of rho; admissible iff the min is >= 1.

    Returns (min_integral, table) with table columns (p1, p2, integral,
    error bound) over roughly `leaf_sample_count` sampled leaves.
    """
    fol = _check_family(rho, fol)
    n = max(2, math.ceil(math.sqrt(leaf_sample_count)))
    p1, p2 = _interior_pairs(fol, n)
    vals, errs = rho._base_leaf_integrals(p1, p2, tol)
    vals = rho.scale * vals
    errs = rho.scale * errs
    if rho.per_leaf_norm:
        nv, ne = rho.norms(p1, p2, tol)
        errs = errs / nv + vals * ne / nv ** 2
        vals = vals / nv
    table = np.column_stack((p1, p2, vals, errs))
    return float(vals.min()), table


def _check_family(rho: Density, fol: Foliation | None) -> Foliation:
    # compare by value: equal charts built twice must interoperate
    if fol is not None and _family_key(rho.q, fol) != _family_key(
            rho.q, rho.foliation):
        raise ValueError("density was built for a different family")
    return rho.foliation


def density_energy(rho: Density, fol: Foliation | None = None,
                   tol: float = 1e-8) -> float:
    """Fourth-power energy int (rho o Phi)^4 |J| over the family."""
    fol = _check_family(rho, fol)
    if rho.scale == 0.0:
        return 0.0
    fol.validate()
    counter: dict = {}
    qabs2 = fol.compose(E.abs2(rho.q.coeff))
    jac = fol.jac_a_expr
    factor = rho._factor

    def cols(x, p1c, p2c):
        b = {"s": x[:, None], "p1": p1c[None, :], "p2": p2c[None, :]}
        shape = (x.size, p1c.size)
        v = np.abs(E.eval_array(qabs2, b)) * np.abs(E.eval_array(jac, b))
        return _full_shape(v, shape) * factor(b, shape) ** 4

    sing = _probe_singular(cols, fol)
    dep = _axis_dependence(cols, fol)

    def raw(*ps):
        return _s_batched(fol, cols, ps, rtol=0.01 * tol, atol=1e-14,
                          counter=counter, singular=sing)

    def pair_fn(p1, p2):
        e4, e4e = _dedup_pairs(raw, (p1, p2), dep)
        lv, le = rho.length_field.eval(p1, p2)
        if rho.per_leaf_norm:
            nv, ne = rho.norms(p1, p2, min(1e-10, 0.02 * tol), counter)
        else:
            nv, ne = np.ones_like(lv), np.zeros_like(lv)
        denom = (lv * nv) ** 4
        vals = rho.scale ** 4 * e4 / denom
        errs = rho.scale ** 4 * e4e / denom \
            + vals * 4.0 * (le / lv + ne / nv)
        return vals[:, None], errs[:, None]

    vals, _ = _nested_p_integral(fol, pair_fn, 1, rtol=0.5 * tol,
                                 counter=counter)
    return float(vals[0])


_MOD_CACHE: dict = {}
_FIELD_CACHE: dict = {}


def _family_key(q: QuadDiff, fol: Foliation):
    return (E.to_string(q.coeff), E.to_string(fol.phi1),
            E.to_string(fol.phi2), fol.s_range, fol.p_box)


def _cached_modulus(q: QuadDiff, fol: Foliation, tol: float) -> ModulusReport:
    key = (*_family_key(q, fol), float(tol))
    if key not in _MOD_CACHE:
        _MOD_CACHE[key] = modulus_m4(q, fol, tol)
    return _MOD_CACHE[key]


def _cached_density(q: QuadDiff, fol: Foliation) -> Density:
    key = _family_key(q, fol)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = extremal_density(q, fol)
    return _FIELD_CACHE[key]


def perturbation_probe(q: QuadDiff, fol: Foliation, g, eps: float,
                       tol: float = 1e-8):
    """Energy of the renormalized perturbation rho0*(1+eps*g) vs the modulus.

    Returns (energy, reference_modulus).  Extremality of rho0 means the
    energy can never undercut the modulus (beyond quadrature noise); the
    perturbation must keep 1 + eps*g positive on the whole box.
    """
    g = E.parse(g) if isinstance(g, str) else g
    extra = E.free_vars(g) - {"s", "p1", "p2"}
    if extra:
        raise VariableMismatch(
            f"perturbation uses variables {sorted(extra)}; only "
            "(s, p1, p2) are allowed")
    gv = E.eval_array(g, fol.grid(8))
    if np.abs(gv.imag).max() > 1e-9 * (1.0 + np.abs(gv.real).max()):
        raise ValueError("perturbation g must be real-valued")
    low = 1.0 + eps * gv.real.min() if eps >= 0 else 1.0 + eps * gv.real.max()
    if low <= 0.0:
        raise ValueError(
            f"1 + eps*g reaches {low:.3g} on the box; the perturbed "
            "density would not be nonnegative")
    rho = replace(_cached_density(q, fol), modifier=g, eps=float(eps),
                  per_leaf_norm=True)
    energy = density_energy(rho, fol, tol)
    return energy, _cached_modulus(q, fol, tol).modulus
