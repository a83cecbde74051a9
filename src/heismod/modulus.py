"""Moduli of horizontal families, their q-mass, and density energies.

Everything is evaluated in parameter coordinates,

    M_n = int_Lambda l(p)^-n  int_I |q(Phi(s,p))|^(n/2) |J_Phi| ds dp,

with n = 4 for a group family over two p-axes (M4) and n = 2 for a
planar family over one p-axis (M2), so the leaf map Phi is never
inverted.  One engine serves both: it reads the chart's p-axes and
exponent, and `modulus_m4` here and `heismod.planar.modulus_m2` only
add their family's gates.  Every leaf integral collapses dead p-axes,
and leaves are stored by their live coordinates (`_leaf_integrals`),
unless a density's weight runs on every pair (a weight is live along
every p-axis it names); such a batch still evaluates its chart factors
once per distinct leaf of their own live axes, and only the weights on
every pair (`_columns`).  The p-stage collapses the same dead axes: it
probes none of their edges and asks an unweighted builder once per live
node (`_nested_p_integral`).  A stored leaf serves any asker whose
budget is no stricter than its own.  Each builder keeps its own store,
except inside `_leaf_store`: `heismod.scenarios.run_scenario` opens one
per request, so its density checks integrate each leaf once, and its
tolerance ladder (run tightest first) computes one modulus: the store
also keeps each entry point's finished report, and serves it to a call
no stricter (`_served`).  The p-integrals ride on the
batch quadrature with error channels (`aux_cols`), so
``error_estimate`` aggregates the s-stage, leaf-length and p-stage
errors.

A density rho = w sqrt|q|/L_w, w = 1 + eps*g and L_w the leaf's
w-weighted q-length, has as energy the same ratio integral with w^n in
the mass and L_w for l.  `_energies` takes k densities as one integral:
one s-stage over the channels of one builder (`_density_leaves`: k
masses, each beside its density's own lengths; two s-stages when
weights that separate share the batch with weights that do not), one
p-stage over [E_k ..., g_k ...].  A weight that separates, w = A_0(p) +
sum_r A_r(p) b_r(s), needs only the leaf moments of the s-monomials
prod b_r^alpha_r times the mass (|alpha| <= n) and the speed
(|alpha| <= 1); they carry no p, so they collapse like the modulus's
own channels, and the p-stage expands w^n and w from them at each
p-node.  Other weights, and all of them when the moments would run no
fewer s-stage columns, stay on every pair.  Only an unweighted density
on a field constant over two or more p-axes takes the field's one value
as l (`_own_lengths`).  The modulus is the member w = 1, so the
extremal energy is the modulus bit for bit (on such a field only at
tol >= 1e-8: its length_tol).

A batch that holds a weighted density starts both p-stages from one
panel per axis, since each of its p-nodes carries weights of its own;
every other batch (the modulus, `q_volume`, the energy of an
unweighted density) keeps four, since there one panel costs accuracy
where an axis carries endpoint ladders.  So the w = 1 member of a batch
that also holds weighted densities is the modulus only within its
estimate; `density_energy` of the extremal density alone is still the
modulus bit for bit.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
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
_P_PANEL_NODES = 15         # nodes per axis of one p-stage panel
_EPS = float(np.finfo(float).eps)
MASS, SPEED = "mass", "speed"   # the two bases of a `_columns` channel


@dataclass(frozen=True)
class ModulusReport:
    """Outcome of a modulus computation with its error budget.

    leaf_length_stats covers the field's grid leaves (`LeafLengthField`);
    consistency_gap is |main formula - constant-length shortcut| when
    they came out constant, else None; residual_stats is the max |B2 q|
    on the sample grid; meta carries run diagnostics.
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
    """Leaf q-lengths on a slightly inset grid of `_INIT_AXIS` leaves per
    p-axis (quadrature ladders probe far closer to the box edge than any
    grid, and some families' lengths blow up right at the edge): it is
    ``constant`` when their relative spread is below `_CONSTANT_RTOL`,
    else ``exact``; ``value`` is their mean, ``value_err`` carries the
    spread, and `_own_lengths` says which densities take ``value`` as l.
    """

    def __init__(self, q, fol, length_tol: float = 1e-10):
        self.fol = fol
        self.length_tol = float(length_tol)
        axes = [np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo),
                            _INIT_AXIS) for lo, hi in fol.p_box]
        qv = E.eval_array(fol.compose(q.coeff), fol.grid(5))
        if np.abs(qv).max() < Q_FLOOR:
            raise ZeroLeafLength(
                "q vanishes identically on the box; leaves have no length")
        pairs = _tensor_pairs(axes)
        check_horizontal(q, fol, *pairs)
        # best effort: leaves at the box edge carry honest enlarged errors
        leaf = _leaf_integrals(fol, q, [(SPEED, None)], self.length_tol,
                               None, atol=0.01 * self.length_tol)
        vals, errs = (a[:, 0] for a in leaf(*pairs))
        if vals.min() <= 0.0 or not np.isfinite(vals).all():
            raise ZeroLeafLength("a sampled leaf has no q-length")
        self.value = float(vals.mean())
        self.value_err = float(errs.max()) + float(np.ptp(vals))
        self.spread_rel = float(np.ptp(vals)) / self.value
        self.mode = "exact" if self.spread_rel > _CONSTANT_RTOL else "constant"
        if (leaves := _distinct_leaves(pairs, leaf.dep)) is not None:
            vals = vals[leaves[0]]  # each distinct leaf once, as integrated
        self._stats = (float(vals.min()), float(vals.max()),
                       float(vals.mean()))

    def stats(self) -> tuple:
        """(min, max, mean) over the grid's distinct leaves."""
        return self._stats


def _own_lengths(field, rho) -> bool:
    """Whether density rho (None: w = 1) takes its leaf lengths from its
    own SPEED channel; otherwise they are the field's one value."""
    return (rho is not None and rho.weighted) or not (
        field.mode == "constant" and len(field.fol.p_box) > 1)


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
    each leaf's mass with its own length (see `_own_lengths`).
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


def _distinct_leaves(ps, dep):
    """(first, inverse, keys) of the distinct leaves among parameter pairs
    ps, keyed on their live axes `dep` (one live axis, or none):
    ps[k][first] are the distinct leaves, `inverse` maps each pair to its
    leaf and `keys` are the leaves' sorted live coordinates.  None when
    every axis is live, so every pair is its own leaf."""
    if all(dep):
        return None
    live = [p for p, d in zip(ps, dep) if d]
    key = live[0] if live else np.zeros_like(ps[0])
    keys, first, inv = np.unique(key, return_index=True, return_inverse=True)
    return first, inv, keys


def _probe_p_edges(pair_fn, fol, live):
    """Per-edge singularity flags ((lo, hi) per p-axis) for the box.

    `_unsettled` along geometric approaches to each box edge of a `live`
    axis: a channel that keeps growing (integrable blowup, e.g. leaf mass
    diverging where leaves pinch) keeps that edge's ladder; channels that
    settle or vanish release it.  A dead axis is constant, so its edges
    are not probed and carry no ladder.
    """
    mid = [0.5 * (lo + hi) for lo, hi in fol.p_box]

    def flag(axis, x):
        ps = [np.full(x.size, m) for m in mid]
        ps[axis] = x
        return _unsettled(np.abs(pair_fn(*ps)[0]), vanish=True)
    return tuple((flag(k, lo + (hi - lo) * _EDGE_OFFS),
                  flag(k, hi - (hi - lo) * _EDGE_OFFS)) if d
                 else (False, False)
                 for k, ((lo, hi), d) in enumerate(zip(fol.p_box, live)))


def _carried(res, start):
    """Integrated error channels, columns `start` on, of a QuadResult:
    a channel whose own quadrature error is not finite (some node bound
    was inf, and its panel was zeroed) carries an infinite bound."""
    return np.where(np.isfinite(res.error[start:]), res.value[start:],
                    np.inf)


def _nested_p_integral(fol, pair_fn, n_chan: int, *, rtol: float,
                       counter: dict, dep, panels: int = 4):
    """Integrate pointwise channels over the parameter box.

    pair_fn(*ps) -> (values (k, n_chan), pointwise error bounds) at
    paired parameter arrays, one per p-axis.  Error bounds travel through
    every stage as aux columns and join the quadrature's own estimates.
    A one-axis box has the outer stage only.  The inner stage runs 5x
    tighter than the outer, so outer refinement sees the inner noise as
    flat, not as structure worth splitting (or it digs toward box edges
    where pullback phases degenerate and evaluation noise explodes).
    Edges where a channel genuinely blows up get ladders, found by
    probing.  Both stages start from `panels` panels per axis.  The
    probes and the stages ask pair_fn for the same leaves again; the
    leaf builders behind it (`_leaf_integrals`) integrate each once.

    `dep`: the p-axes pair_fn varies along (an unweighted leaf builder's
    ``dep``), or None for all.  A dead axis gets no edge probe, and each
    stage asks pair_fn at that axis's first node only (where the full
    box first asks for the leaf, so a leaf dead only to `_DEAD_AXIS_RTOL`
    keeps its bits) and tiles the answer over the axis's other nodes.
    On a box with no live axis the one leaf moves by an ulp: the full box
    first asked for it at an edge probe.
    """
    live = (True,) * len(fol.p_box) if dep is None else dep
    sing = _probe_p_edges(pair_fn, fol, live)
    (a0, a1) = fol.p_box[0]

    def outer(x1, cols):
        x1 = np.asarray(x1, dtype=float)
        if len(fol.p_box) == 1:
            return np.hstack(pair_fn(x1))
        (b0, b1) = fol.p_box[1]
        n1 = x1.size
        blk = n1 * n_chan
        a = x1 if live[0] else x1[:1]

        def inner(x2, cols):
            x2 = np.asarray(x2, dtype=float)
            b = x2 if live[1] else x2[:1]
            out = np.empty((x2.size, 2, n1, n_chan))    # [values, errors]
            for k, v in enumerate(pair_fn(np.tile(a, b.size),
                                          np.repeat(b, a.size))):
                out[:, k] = v.reshape(b.size, a.size, n_chan)
            return out.reshape(x2.size, 2 * blk)

        res = integrate_batch(inner, b0, b1, atol=_ATOL, rtol=0.2 * rtol,
                              singular=sing[1], initial_panels=panels,
                              aux_cols=blk, best_effort=True)
        counter["p_evals"] = counter.get("p_evals", 0) + res.n_evals
        v = res.value[:blk].reshape(n1, n_chan)
        pe = _carried(res, blk).reshape(n1, n_chan)
        qe = res.error[:blk].reshape(n1, n_chan)
        return np.hstack((v, pe + qe))

    res = integrate_batch(outer, a0, a1, atol=_ATOL, rtol=rtol,
                          singular=sing[0], initial_panels=panels,
                          aux_cols=n_chan)
    counter["p_evals"] = counter.get("p_evals", 0) + res.n_evals
    vals = res.value[:n_chan]
    errs = res.error[:n_chan] + _carried(res, n_chan)
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
    call; rtol is one value or one per channel.  Once columns converge,
    integrate_batch asks for the live ones only: channel-major column c
    of a chunk of n pairs is pair c % n, so each call evaluates the live
    pairs once and picks its channels.  Best-effort: pairs pinned
    against a degenerate box edge return honest oversized error bounds,
    which the p-stage weights, instead of aborting."""
    (s0, s1) = fol.s_range
    k, rtol = ps[0].size, np.asarray(rtol, dtype=float)
    step = max(1, _CHUNK // chans)
    vals = np.empty((chans, k))
    errs = np.empty((chans, k))
    for lo in range(0, k, step):
        pc = [p[lo:lo + step] for p in ps]

        def f(x, cols):
            if isinstance(cols, slice):
                return cols_fn(x, *pc)
            chan, pair = np.divmod(cols, pc[0].size)
            pairs, at = np.unique(pair, return_inverse=True)
            v = cols_fn(x, *(p[pairs] for p in pc))
            return v if chans == 1 else v[:, chan * pairs.size + at]

        res = integrate_batch(
            f, s0, s1, atol=atol, singular=singular, best_effort=True,
            rtol=rtol if rtol.ndim == 0 else np.repeat(rtol, pc[0].size))
        vals[:, lo:lo + step] = res.value.reshape(chans, -1)
        errs[:, lo:lo + step] = res.error.reshape(chans, -1)
        if counter is not None:
            counter["s_evals"] = counter.get("s_evals", 0) + res.n_evals
            counter["s_points"] = counter.get("s_points", 0) + res.n_points
    return vals.T, errs.T


def _weighted(w) -> bool:
    """Whether channel weight w is a weighted density, whose weight runs
    on every parameter pair."""
    return isinstance(w, Density) and w.weighted


def _monomials(x):
    """w -> the s-factor of channel weight w at s-nodes x: 1.0 unless w
    is a moment monomial (a tuple of s-only nodes), which multiplies out
    left to right into a (nodes, 1) column, each node and each prefix
    evaluated once per x."""
    memo: dict = {(): 1.0}

    def mono(w):
        if not isinstance(w, tuple):
            return 1.0
        if w not in memo:
            b = w[-1]
            if b not in memo:
                memo[b] = np.real(E.eval_array(b, {"s": x}))[:, None]
            memo[w] = mono(w[:-1]) * memo[b]
        return memo[w]
    return mono


def _columns(q, fol, chans):
    """Column evaluator (x, *pc) -> (nodes, len(chans) * pairs) of the
    leaf integrands, channel-major.  A channel (base, w) is the mass
    |q(Phi)|^(n/2) |J| (base MASS) or the q-speed sqrt|q(Phi)| |d_s Phi1|
    (SPEED) times its weight: 1 for w None or an unweighted density, the
    weighted density w's weight^n or weight, or the product of the
    s-only nodes of a moment monomial w (a tuple, `_density_leaves`);
    n is the chart's exponent.  Per s-node batch q o Phi runs once, and
    so does each weight and monomial node.  Weighted densities make
    every leaf distinct, so `_leaf_integrals` cannot collapse their
    batch's pairs; its chart factors (q o Phi, |J|, |d_s Phi1|) then
    run on the distinct leaves of their own live p-axes, probed here,
    and each weight on every pair.  Other channels leave the collapsing
    to `_leaf_integrals`; such a batch writes the bases straight into the
    output, and its monomials as (nodes, 1) columns times the bases."""
    qc, n = fol.compose(q.coeff), fol.exponent
    kinds = {kind for kind, _ in chans}
    groups: dict = {}       # id of a weight -> (weight, its channels)
    for j, (kind, w) in enumerate(chans):
        groups.setdefault(id(w), (w, []))[1].append((j, kind))

    def chart(x, *pc, into=lambda kind: None):
        """base -> (nodes, pairs) factors, each written into into(base)
        when that gives an array.  The order keeps few arrays alive while
        an expression is evaluated: |d_s Phi1| before q o Phi, and |J|
        once q o Phi is folded into the factors."""
        shape, b = (x.size, pc[0].size), column_binding(fol, x, pc)
        base = {}
        if SPEED in kinds:
            ds = np.abs(E.eval_array(fol.d_s1, b))
        qv = E.eval_array(qc, b)
        if MASS in kinds and n == 4:    # rounds as abs2(q o Phi) would
            qm = np.multiply(qv.real, qv.real, out=into(MASS))
            qm += qv.imag * qv.imag
        qv = np.abs(qv) if n == 2 or SPEED in kinds else None
        if SPEED in kinds:
            base[SPEED] = _full_shape(
                np.multiply(ds, np.sqrt(qv), out=into(SPEED)), shape)
            ds = None
        if MASS in kinds:
            fac = qm if n == 4 else qv
            qm = qv = None      # only the mass factor waits on |J|
            base[MASS] = _full_shape(np.multiply(
                fac, np.abs(E.eval_array(fol.jac_a_expr, b)),
                out=into(MASS)), shape)
        return base

    weighted = any(_weighted(w) for _, w in chans)
    dep = (True,) * len(fol.p_box)
    if weighted:
        dep = _axis_dependence(
            lambda x, *pc: np.hstack(tuple(chart(x, *pc).values())), fol)

    home: dict = {}         # base -> the first channel of weight 1
    for j, (kind, w) in enumerate(chans):
        if not isinstance(w, tuple):
            home.setdefault(kind, j)

    def unweighted_cols(x, *pc):    # channels of weight 1 are the bases
        m, out, mono = pc[0].size, [], _monomials(x)

        def into(kind):     # allocated once q o Phi is evaluated
            if not out:
                out.append(np.empty((x.size, len(chans) * m)))
            if kind in home:
                return out[0][:, home[kind] * m:(home[kind] + 1) * m]
            return None
        base = chart(x, *pc, into=into)
        for j, (kind, w) in enumerate(chans):
            if j != home.get(kind):
                np.multiply(base[kind], mono(w),
                            out=out[0][:, j * m:(j + 1) * m])
        return out[0]

    def cols(x, *pc):
        if (leaves := _distinct_leaves(pc, dep)) is None:
            base = chart(x, *pc)
        else:   # one distinct leaf broadcasts as its (nodes, 1) column
            first, inv, _ = leaves
            base = chart(x, *(p[first] for p in pc))
            if first.size > 1:
                base = {kind: v[:, inv] for kind, v in base.items()}
        shape, b = (x.size, pc[0].size), column_binding(fol, x, pc)
        out, mono = np.empty((x.size, len(chans) * shape[1])), _monomials(x)
        for w, chs in groups.values():
            f = w._factor(b, shape) if _weighted(w) else mono(w)
            for j, kind in chs:
                np.multiply(base[kind],
                            f ** n if kind == MASS and _weighted(w) else f,
                            out=out[:, j * shape[1]:(j + 1) * shape[1]])
        return out
    return cols if weighted else unweighted_cols


def _leaf_integrals(fol, q, chans, rtol, counter, *, atol=_ATOL,
                    dep=None):
    """(*ps) -> (values, errors), shape (pairs, len(chans)): leaf
    integrals of the `_columns` channels at rtol (one, or one per
    channel), singular endpoints and, unless given as `dep`, dead p-axes
    (its ``dep``) probed once per channel set (`_probed`).  Masses and
    energies run at 0.01 tol, so their leaf noise never looks like
    structure to p refinement.

    Unless every axis is live, leaves are stored per channel (`_Shelf`,
    keyed on q, chart, channel and live axes) with the (rtol, atol) they
    were integrated at.  A stored leaf is served only to an asker whose
    budget is no stricter, never on its error estimate alone; a call
    runs the s-stage on its other leaves, each at the first pair that
    asked for it and on every channel of the builder, and stores them
    over what was there.  So the p-edge probes and every p-stage pass
    share one leaf's integral.  Inside `_leaf_store` (one `run_scenario`
    request) builders share the store and the probes, so the ladder's
    looser levels and the density checks read the leaves the tightest
    level integrated; elsewhere, and for channels that run on every
    pair, each builder keeps its own."""
    store = _store(not any(_weighted(w) for _, w in chans))
    cols = _columns(q, fol, chans)
    sing = _probed(store, ("singular", q, fol, tuple(chans)),
                   lambda: _probe_singular(cols, fol))
    if dep is None:
        # a weight is live along every p-axis it names: a narrow feature
        # of it can fall between the probe's points, and one leaf would
        # then stand for all
        named = _named_axes(w for _, w in chans)
        dep = tuple(d or v in named for d, v in zip(_probed(
            store, ("dependence", q, fol, tuple(chans)),
            lambda: _axis_dependence(cols, fol)), fol.p_vars))

    def s_stage(*ps):
        return _s_batched(fol, cols, ps, rtol=rtol, atol=atol,
                          counter=counter, singular=sing, chans=len(chans))

    shelves = [store.setdefault(("leaves", q, fol, ch, dep), _Shelf())
               for ch in chans]
    rtols = np.broadcast_to(np.asarray(rtol, dtype=float), (len(chans),))

    def leaf(*ps):
        leaves = _distinct_leaves(ps, dep)
        if leaves is None:
            return s_stage(*ps)
        first, inv, keys = leaves
        found = [sh.find(keys, r, atol) for sh, r in zip(shelves, rtols)]
        new = ~np.logical_and.reduce([ok for _, ok in found])
        out = np.empty((2, keys.size, len(chans)))
        for c, (sh, (at, _)) in enumerate(zip(shelves, found)):
            out[:, ~new, c] = sh.rows[:2, at[~new]]
        if new.any():   # the other leaves, each at its first pair
            out[:, new] = s_stage(*(p[first[new]] for p in ps))
            for c, (sh, r) in enumerate(zip(shelves, rtols)):
                sh.put(keys[new], out[:, new, c], r, atol)
        return tuple(out[:, inv])
    leaf.dep = dep
    return leaf


class _Shelf:
    """One channel's stored leaves (`_leaf_integrals`): their sorted live
    keys and, per leaf, rows (value, error, rtol, atol)."""

    def __init__(self):
        self.keys = np.empty(0)
        self.rows = np.empty((4, 0))

    def _at(self, keys):
        at = np.searchsorted(self.keys, keys)
        hit = at < self.keys.size
        hit[hit] = self.keys[at[hit]] == keys[hit]
        return at, hit

    def find(self, keys, rtol, atol):
        """(positions, servable) of sorted keys: stored at a budget no
        looser than (rtol, atol)."""
        at, ok = self._at(keys)
        ok[ok] = (self.rows[2, at[ok]] <= rtol) & (self.rows[3, at[ok]]
                                                   <= atol)
        return at, ok

    def put(self, keys, vals, rtol, atol):
        """Store (value, error) rows `vals` of sorted keys at their budget,
        over any stored before."""
        at, hit = self._at(keys)
        rows = np.vstack((vals, np.broadcast_to([[rtol], [atol]],
                                                (2, keys.size))))
        self.rows[:, at[hit]] = rows[:, hit]
        self.rows = np.insert(self.rows, at[~hit], rows[:, ~hit], axis=1)
        self.keys = np.insert(self.keys, at[~hit], keys[~hit])


_STORE: contextvars.ContextVar = contextvars.ContextVar("leaf_store",
                                                        default=None)


@contextlib.contextmanager
def _leaf_store():
    """Share leaf integrals and probes between the builders made until
    the block exits (`_leaf_integrals`); `run_scenario` opens one per
    request."""
    token = _STORE.set({})
    try:
        yield
    finally:
        _STORE.reset(token)


def _store(shared: bool) -> dict:
    """The open `_leaf_store` when `shared` and one is open, else a
    private one."""
    store = _STORE.get() if shared else None
    return {} if store is None else store


def _probed(store, key, probe):
    """store[key], filled by probe() on first use."""
    if key not in store:
        store[key] = probe()
    return store[key]


def _named_axes(weights) -> set:
    """The variables that the weighted densities among `weights` name."""
    return set().union(*(E.free_vars(w.modifier) for w in weights
                         if _weighted(w)))


def _separate(g):
    """g as a sum of terms a(p) * b(s): {b: a}, b the product of a term's
    s-only factors (an interned node; None for the terms free of s) and
    a the sum of their cofactors, which are free of s.  None when a
    factor of some term depends on s and on a p-variable at once.  Sums
    split over Add, Sub and Neg and products over Mul and Div; nothing is
    distributed, so (s + p1)^2 is one factor and does not separate.
    Both walks keep their own stacks, so a long sum cannot exhaust
    Python's recursion limit."""
    parts: dict = {}
    terms = [(g, 1.0)]
    while terms:
        e, sign = terms.pop()
        t = type(e)
        if t in (E.Add, E.Sub):     # the left term is taken first
            terms += [(e.rhs, -sign if t is E.Sub else sign), (e.lhs, sign)]
            continue
        if t is E.Neg:
            terms.append((e.arg, -sign))
            continue
        fac = {True: E.ONE, False: E.const(sign)}   # "s" in it -> factor
        factors = [(e, False)]      # (factor, whether it divides)
        while factors:
            f, inverse = factors.pop()
            t = type(f)
            if t in (E.Mul, E.Div):
                factors += [(f.rhs, inverse != (t is E.Div)),
                            (f.lhs, inverse)]
            elif t is E.Neg:
                fac[False] = E.neg(fac[False])
                factors.append((f.arg, inverse))
            else:
                names = E.free_vars(f)
                if "s" in names and len(names) > 1:
                    return None
                key = "s" in names
                fac[key] = (E.div if inverse else E.mul)(fac[key], f)
        b = None if fac[True] is E.ONE else fac[True]
        parts[b] = E.add(parts[b], fac[False]) if b in parts else fac[False]
    return parts


def _moment_form(rho):
    """rho's weight w = 1 + eps*g as {b: a} with w = sum_b A_b(p) b(s),
    A_b = eps*a and A_None = 1 + eps*a (`_separate`), or None when g
    does not separate or a part is not real on the chart's sample
    grid."""
    parts = _separate(rho.modifier)
    if parts is None:
        return None
    grid = rho.foliation.grid(8)
    if any(np.any(E.eval_array(x, grid).imag)
           for b, a in parts.items() for x in (a, b) if x is not None):
        return None
    return parts


def _compositions(n: int, parts: int):
    """Every tuple of `parts` nonnegative integers that sum to n, the
    first largest first."""
    for pick in itertools.combinations_with_replacement(range(parts), n):
        alpha = [0] * parts
        for r in pick:
            alpha[r] += 1
        yield tuple(alpha)


def _density_leaves(q, fol, wants, counter, *, atol=_ATOL):
    """(*ps) -> (values, errors), shape (pairs, len(wants)): for each
    want (base, rho, rtol) the leaf integral of the base times rho's
    weight w (w^n for MASS, w for SPEED, n the chart's exponent; w = 1
    for rho None or unweighted) at rtol.  The one channel builder of
    `_energies`, `Density.leaf_lengths` and `admissibility_check`.

    A weight that separates, w = A_0(p) + sum_r A_r(p) b_r(s) with real
    parts (`_moment_form`), needs only the leaf moments M_alpha of the
    s-monomials prod_r b_r^alpha_r times the base, |alpha| <= n for
    MASS and <= 1 for SPEED.  They carry no p-variable, so they collapse
    over the chart's dead axes, and densities share them by node.  Its
    mass is then sum_alpha c_alpha(p) M_alpha, the multinomial expansion
    of w^n, with error sum |c_alpha| e_alpha plus the rounding of the
    sum; its length is sum_r A_r S_r.  Every other weighted density
    keeps its own channel on every pair (`_leaf_integrals`), and so do
    all of them unless the moments run fewer s-stage columns on one
    p-panel (`_moment_leaves`).  A batch with no weighted density
    integrates its wants as they are.  A weighted leaf length that
    collapses raises NonAdmissibleAfterRenormalization."""
    dens = [w for _, w, _ in wants]
    forms = {id(w): _moment_form(w) for w in dens if _weighted(w)}
    leaf = None
    if any(f is not None for f in forms.values()):
        leaf = _moment_leaves(q, fol, wants, forms, counter, atol)
    if leaf is None:
        leaf = _leaf_integrals(
            fol, q, [(kind, w if _weighted(w) else None)
                     for kind, w, _ in wants],
            [r for _, _, r in wants], counter, atol=atol)
    wl = [j for j, (kind, w, _) in enumerate(wants)
          if kind == SPEED and _weighted(w)]

    def checked(*ps):
        v, e = leaf(*ps)
        if wl and (low := v[:, wl].min()) <= math.sqrt(Q_FLOOR) * \
                dens[wl[0]].length_field.value:
            raise NonAdmissibleAfterRenormalization(
                f"a weighted leaf length collapsed to {low:.3e}; the "
                "perturbed density cannot be renormalized")
        return v, e
    checked.dep = None if forms else leaf.dep   # weights run on every pair
    return checked


def _moment_leaves(q, fol, wants, forms, counter, atol):
    """`_density_leaves` with the weighted wants whose `forms` are not
    None on leaf moments, beside the unweighted ones, and every other
    weighted want on every pair.  None unless that runs fewer s-stage
    columns on one p-panel, `_P_PANEL_NODES` leaves per live p-axis,
    than every weighted want on every pair: the count is the channels
    times the leaves, and a weight is live along every p-axis it names
    (`_leaf_integrals`), the moments along the chart's live axes only."""
    n, dens = fol.exponent, [w for _, w, _ in wants]
    moment = [j for j, w in enumerate(dens)
              if _weighted(w) and forms[id(w)] is not None]
    per_pair = [j for j, w in enumerate(dens)
                if _weighted(w) and j not in moment]
    order: dict = {}        # the s-factors b_r, in order of first use
    for j in moment:
        order.update((b, None) for b in forms[id(dens[j])] if b is not None)
    factors = {id(dens[j]): [b for b in order if b in forms[id(dens[j])]]
               for j in moment}
    bases = [(kind, None) for kind in
             dict.fromkeys(kind for kind, _, _ in wants)]
    chart = _probed(_store(True), ("dependence", q, fol, tuple(bases)),
                    lambda: _axis_dependence(_columns(q, fol, bases), fol))

    def columns(count, js):
        live = _named_axes(dens[j] for j in js)
        return count * _P_PANEL_NODES ** sum(
            d or v in live for d, v in zip(chart, fol.p_vars))
    budget = columns(len(wants), moment + per_pair)
    if per_pair:
        budget -= columns(len(per_pair), per_pair)
    chans: dict = {}        # (base, monomial or None) -> s-stage rtol
    plans = {}              # want -> (kind, None), or its terms

    def need(kind, key, rtol):
        chans[kind, key] = min(rtol, chans.get((kind, key), rtol))
        return (kind, key)

    for j, (kind, w, rtol) in enumerate(wants):
        if j in moment:     # w^n or w: the exponents alpha of (1, b, ...)
            bs, deg = factors[id(w)], n if kind == MASS else 1
            if columns(math.comb(len(bs) + deg, deg), ()) >= budget:
                return None     # before its monomials are listed
            plans[j] = [(alpha, need(kind, tuple(
                b for b, k in zip(bs, alpha[1:]) for _ in range(k))
                or None, rtol)) for alpha in _compositions(deg, len(bs) + 1)]
        elif j not in per_pair:
            plans[j] = need(kind, None, rtol)
    if columns(len(chans), ()) >= budget:
        return None
    at = {key: c for c, key in enumerate(chans)}
    plans = {j: [(alpha, at[key]) for alpha, key in plan] if j in moment
             else at[plan] for j, plan in plans.items()}
    mleaf = _leaf_integrals(fol, q, list(chans), list(chans.values()),
                            counter, atol=atol, dep=chart)
    pleaf = per_pair and _leaf_integrals(
        fol, q, [wants[j][:2] for j in per_pair],
        [wants[j][2] for j in per_pair], counter, atol=atol)

    def leaf(*ps):
        v, e = np.empty((2, ps[0].size, len(wants)))
        if per_pair:
            v[:, per_pair], e[:, per_pair] = pleaf(*ps)
        mv, me = mleaf(*ps)
        binding, parts = dict(zip(fol.p_vars, ps)), {}
        for j, plan in plans.items():
            if j not in moment:
                v[:, j], e[:, j] = mv[:, plan], me[:, plan]
                continue
            rho = dens[j]
            if id(rho) not in parts:
                parts[id(rho)] = _weight_parts(
                    rho, forms[id(rho)], factors[id(rho)], binding)
            v[:, j], e[:, j] = _expand(parts[id(rho)], plan, mv, me)
        return v, e
    return leaf


def _weight_parts(rho, form, bs, binding):
    """[A_0, A_1, ...] of rho's weight at the p-nodes of `binding`: A_0
    the part free of s, A_r that of its s-factor bs[r - 1]."""
    size, out = next(iter(binding.values())).size, {}
    for b, a in form.items():
        v = np.broadcast_to(np.real(E.eval_array(a, binding)), (size,))
        out[b] = 1.0 + rho.eps * v if b is None else rho.eps * v
    return [out.get(None, np.ones(size))] + [out[b] for b in bs]


def _expand(A, terms, v, e):
    """The sum over terms (alpha, c) of multinomial(alpha) prod_r
    A_r^alpha_r v[:, c], and its bound: the sum of |coefficient| e[:, c]
    plus the rounding of the products and of the sum."""
    val, mag, err = np.zeros((3, v.shape[0]))
    for alpha, c in terms:
        coef = np.full(v.shape[0], float(math.factorial(sum(alpha)) //
                                         math.prod(map(math.factorial,
                                                       alpha))))
        for a, k in zip(A, alpha):
            if k:
                coef *= a ** k
        t = coef * v[:, c]
        val += t
        mag += np.abs(t)
        err += np.abs(coef) * e[:, c]
    return val, err + (len(terms) + sum(terms[0][0]) + 2) * _EPS * mag


def _energies(q, fol, field, rhos, tol: float, counter: dict):
    """(values, errors) of [E_k ..., g_k ...] over the p-box for k
    densities (None: w = 1), E_k = int g_k / L_k^n dp.  One channel
    builder (`_density_leaves`) integrates the masses g_k = int w_k^n
    |q|^(n/2) |J| ds at 0.01 tol and the lengths L_k = int w_k sqrt|q|
    |d_s Phi1| ds that densities own (`_own_lengths`) at
    0.1 min(1e-10, 0.02 tol).

    The p-stages start from one panel per axis when a density is
    weighted, else from four (module docstring): at one panel,
    annulus-vertical's q-volume estimate grows 84x at tol 1e-8."""
    n, k = fol.exponent, len(rhos)
    own = [j for j, r in enumerate(rhos) if _own_lengths(field, r)]
    leaf = _density_leaves(
        q, fol, [(MASS, r, 0.01 * tol) for r in rhos]
        + [(SPEED, rhos[j], 0.1 * min(1e-10, 0.02 * tol)) for j in own],
        counter)

    def pair_fn(*ps):
        v, e = leaf(*ps)
        g, ge = v[:, :k], e[:, :k]
        lv, le = (np.full(g.shape, c) for c in (field.value, field.value_err))
        lv[:, own], le[:, own] = v[:, k:], e[:, k:]
        lin = 1.0 / lv ** n
        vals = np.column_stack((g * lin, g))
        errs = np.column_stack((ge * lin + n * g * lin * (le / lv), ge))
        return vals, errs

    weighted = any(r is not None and r.weighted for r in rhos)
    return _nested_p_integral(fol, pair_fn, 2 * k, rtol=0.5 * tol,
                              counter=counter, panels=1 if weighted else 4,
                              dep=leaf.dep)


def _check_tol(tol: float):
    """Refuse a tolerance that is not finite and positive: the leaf
    store compares budgets, and the stages divide by them."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


def _new_counter() -> dict:
    """A modulus report's work counters, zero until a stage runs: a
    report served wholly from the leaf store did no s-stage."""
    return {"s_evals": 0, "s_points": 0, "p_evals": 0}


def _residual_max(fol, ex) -> float:
    """max |ex o Phi| on the chart's 6 x 6 (x 6) sample grid: the B2 spot
    check of `modulus_m4` and the operator residual rows of a scenario."""
    return float(np.abs(E.eval_array(fol.compose(ex), fol.grid(6))).max())


def _served(key: tuple, tol: float, t0: float, compute) -> ModulusReport:
    """compute(), the report of an entry point at tol, started at t0.

    Inside `_leaf_store` a finished report is stored under key (entry
    point, q, chart and any option that changes the outcome) with the
    tol it was computed at, as leaves are: a call whose tol is no
    stricter gets a copy of it, whose meta carries this call's tol and
    elapsed, zero work counters and ``served_from``, the stored tol.  A
    stricter call computes and replaces it; a call that raises stores
    nothing.  So `run_scenario`'s looser ladder levels return the
    tightest level's bits without re-running its gates or stages."""
    store = _STORE.get()
    if store is None:
        return compute()
    key = ("report", *key)
    if key in store and store[key][0] <= tol:
        at, rep = store[key]
        return replace(rep, meta={**rep.meta, **_new_counter(), "tol": tol,
                                  "elapsed": perf_counter() - t0,
                                  "served_from": at})
    rep = compute()
    store[key] = (tol, rep)
    return rep


def _q_mass(q, fol, tol: float, counter):
    """(mass, error) of the family: the p-integral of the leaf masses."""
    g_of = _leaf_integrals(fol, q, [(MASS, None)], 0.01 * tol, counter)
    vals, errs = _nested_p_integral(fol, g_of, 1, rtol=0.5 * tol,
                                    counter=counter, dep=g_of.dep)
    return float(vals[0]), float(errs[0])


def q_volume(q, fol, tol: float = 1e-8) -> float:
    """Total |q|^(n/2) mass of the family in parameter coordinates: the
    q-volume of a group family, the q-area of a planar one."""
    _check_tol(tol)
    fol.validate()
    return _q_mass(q, fol, tol, {})[0]


def family_modulus(q, fol, tol: float, residual: float,
                   t0: float) -> ModulusReport:
    """M_n = int l(p)^-n int |q o Phi|^(n/2) |J| ds dp for a family that
    already passed its entry point's gates; n is the chart's exponent.
    `residual` is the entry point's diagnostic for residual_stats and t0
    its start time.  The report carries the q-mass in meta under
    ``q_volume`` and, when the field's grid leaves have one length, the
    gap against the constant-length shortcut mass / l^n.
    """
    field = LeafLengthField(q, fol, length_tol=min(1e-10, 0.01 * tol))
    counter = _new_counter()
    vals, errs = _energies(q, fol, field, [None], tol, counter)
    mod, vol = float(vals[0]), float(vals[1])
    gap = (abs(mod - vol / field.value ** fol.exponent)
           if field.mode == "constant" else None)
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
    formula is only exact on the kernel); the report is `family_modulus`'s.
    Inside `_leaf_store`, a call no stricter than an earlier one on the
    same q, chart and `override_b2_check` is served that call's report
    (`_served`), gates and spot check included.
    """
    t0 = perf_counter()
    _check_tol(tol)

    def compute():
        _m4_gates(q, fol)
        b2max = _residual_max(fol, q.b2_expr)
        if b2max > B2_GATE_TOL:
            msg = (f"max |B2 q| = {b2max:.3e} exceeds {B2_GATE_TOL:.1e} on "
                   "the sample grid; q is not in the B2 kernel")
            if not override_b2_check:
                raise KernelResidualHigh(msg)
            warnings.warn(msg)
        return family_modulus(q, fol, tol, b2max, t0)
    return _served(("modulus_m4", q, fol, override_b2_check), tol, t0,
                   compute)


def modulus_constant_length(q: QuadDiff, fol: Foliation,
                            tol: float = 1e-8) -> ModulusReport:
    """q_volume / l^4 shortcut, valid only for constant leaf lengths."""
    t0 = perf_counter()
    _check_tol(tol)
    _m4_gates(q, fol)
    field = LeafLengthField(q, fol, length_tol=min(1e-10, 0.01 * tol))
    if field.spread_rel > CONSTANT_LENGTH_RTOL:
        raise ConstantLengthViolated(
            f"leaf lengths spread by {field.spread_rel:.3e} relative "
            f"(limit {CONSTANT_LENGTH_RTOL:.1e})")
    counter = _new_counter()
    vol, vol_err = _q_mass(q, fol, tol, counter)
    lbar = field.stats()[2]
    mod = vol / lbar ** 4
    err = vol_err / lbar ** 4 + 4.0 * vol * field.value_err / lbar ** 5
    meta = {"q_volume": vol, "q_volume_error": vol_err,
            "common_length": lbar, "field_mode": field.mode, "tol": tol,
            "elapsed": perf_counter() - t0, **counter}
    return ModulusReport(mod, err, field.stats(), None,
                         _residual_max(fol, q.b2_expr), meta)


@dataclass(frozen=True)
class Density:
    """Pullback density rho(Phi(s,p)) = w sqrt|q(Phi)| / L_w(p), w = 1+eps*g.

    L_w = int w sqrt|q(Phi)| |d_s Phi1| ds is the leaf's w-weighted
    q-length, so every leaf integral of rho is 1.  The modifier g is an
    expression in s and the chart's p-variables; unless `weighted`, L_w
    is the leaf's q-length l and rho the extremal rho0.
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
        """(*ps) -> (L_w, error bounds) at paired parameter arrays: the
        leaf integrals of its own (weighted) q-speed at 0.1 tol, which
        must not collapse, or the field's one value (`_own_lengths`).
        Its probes run once, here: build it once per use."""
        field = self.length_field
        if not _own_lengths(field, self):
            return lambda *ps: tuple(np.full(np.shape(ps[0]), a)
                                     for a in (field.value, field.value_err))
        raw = _density_leaves(self.q, self.foliation,
                              [(SPEED, self, 0.1 * tol)], None)
        return lambda *ps: tuple(a[:, 0] for a in raw(*ps))

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
    fol, field = rho.foliation, rho.length_field
    n = max(2, math.ceil(leaf_sample_count ** (1.0 / len(fol.p_box))))
    ps = _interior_pairs(fol, n)
    # the numerator; when rho is weighted it is L_w, integrated once
    v, ve = (a[:, 0] for a in _density_leaves(
        rho.q, fol, [(SPEED, rho, 0.1 * tol)], None)(*ps))
    if not _own_lengths(field, rho):
        lv, le = field.value, field.value_err
    elif rho.weighted:
        lv, le = v, ve
    else:   # l itself, integrated apart at the field's own tolerance
        lv, le = (a[:, 0] for a in _density_leaves(
            rho.q, fol, [(SPEED, None, field.length_tol)], None,
            atol=0.01 * field.length_tol)(*ps))
    vals = v / lv
    errs = ve / lv + np.abs(v) * le / lv ** 2
    table = np.column_stack((*ps, vals, errs))
    return float(vals.min()), table


def density_energies(rhos, tol: float = 1e-8,
                     counter: dict | None = None) -> list:
    """Energies int (rho_k o Phi)^n |J| of k densities that share q,
    foliation and length field, n the chart's exponent: one s-stage over
    the k masses and the lengths the densities own, or over the leaf
    moments they are expanded from, and one p-stage over the 2k
    channels of `_energies` (see the module docstring).
    `counter`, when given, accumulates the stages' work as a modulus
    report's meta does: ``s_evals``, ``s_points`` and ``p_evals``."""
    _check_tol(tol)
    rho, fol = rhos[0], rhos[0].foliation
    if len({(id(r.q), id(r.foliation), id(r.length_field))
            for r in rhos}) > 1:
        raise ValueError("densities of one batch must share q, foliation "
                         "and length field")
    fol.validate()
    vals, _ = _energies(rho.q, fol, rho.length_field, rhos, tol,
                        {} if counter is None else counter)
    return [float(v) for v in vals[:len(rhos)]]


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
        raise NonAdmissibleAfterRenormalization(
            f"1 + eps*g reaches {low:.3g} on the box; the perturbed "
            "density would not be nonnegative")
    return replace(rho, modifier=g, eps=float(eps))


def perturbation_probe(rho: Density, g, eps: float,
                       tol: float = 1e-8) -> float:
    """Energy of the `perturbed_density` of the extremal density rho,
    which by extremality can never undercut the modulus (beyond
    quadrature noise); the caller compares the two."""
    return density_energies([perturbed_density(rho, g, eps)], tol)[0]
