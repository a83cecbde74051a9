"""Parametrized legendrian foliations and their trajectory machinery.

A foliation Phi(s, p1, p2) = (Phi1, Phi2) maps a parameter box into the
group; s runs along leaves, (p1, p2) indexes them.  Everything downstream
(lengths, volumes, moduli) is integrated in these coordinates, so this
module carries the Jacobian, the leaf line element, the per-leaf
constancy field lambda, and an ODE tracer that follows horizontal
trajectories of a differential directly from q.

The Jacobian that volumes use, `jac_a_expr`, is built from (|z|^2,
theta, t) when Phi1 = sqrt(X)*exp(i*theta): dx dy = 1/2 d|z|^2 dtheta
keeps every entry real, so a phase that grows steeply near an edge of
the box (annulus-vertical's theta = p2 - (s/2) cot p1) never enters a
cancelling product.  Other charts take the A route, which uses the
legendrian identity.  `jac_det_expr`, the Cartesian 3x3 determinant,
checks either.

The leaf functions (horizontality check, line element, leaf lengths,
lambda, Jacobian gate) read a chart only through its family interface
-- `s_range`, `p_box`, `p_vars`, `exponent`, `d_s1`, `jac_a_expr`,
`grid` and `compose` -- so they serve the planar charts of
:mod:`heismod.planar` unchanged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import expr as E
from .errors import (
    DivisionNearZero,
    InversionFailure,
    LeftDomain,
    NegativeQ,
    NotHorizontal,
    NotLegendrian,
    StepFailure,
    VariableMismatch,
    ZeroOfQ,
    ZeroVelocity,
)
from .heis import HPoint, HTangent
from .qdiff import Q_FLOOR, QuadDiff
from .quadrature import integrate_batch

_PARAM_VARS = frozenset({"s", "p1", "p2"})
HORIZONTAL_TOL = 1e-8


@dataclass(frozen=True)
class Foliation:
    """Symbolic chart of a foliated region.

    phi1 is complex-valued, phi2 real-valued, both in (s, p1, p2).
    Construction does not check the legendrian identity (deliberately:
    defective inputs are first-class test subjects); call validate() to
    enforce it.
    """

    phi1: E.Expr
    phi2: E.Expr
    s_range: tuple
    p_box: tuple
    p_vars: ClassVar[tuple] = ("p1", "p2")
    exponent: ClassVar[int] = 4

    def __post_init__(self):
        for name, ex in (("phi1", self.phi1), ("phi2", self.phi2)):
            extra = E.free_vars(ex) - _PARAM_VARS
            if extra:
                raise VariableMismatch(
                    f"{name} uses variables {sorted(extra)}")
        (s0, s1) = self.s_range
        (a0, a1), (b0, b1) = self.p_box
        if not (s0 < s1 and a0 < a1 and b0 < b1):
            raise ValueError("empty parameter ranges")

    @classmethod
    def from_strings(cls, phi1, phi2, s_range, p_box):
        return cls(E.parse(phi1), E.parse(phi2), tuple(s_range),
                   tuple(tuple(r) for r in p_box))

    # symbolic partials, built once per foliation
    @cached_property
    def d_s1(self):
        return E.diff(self.phi1, "s")

    @cached_property
    def d_p1_1(self):
        return E.diff(self.phi1, "p1")

    @cached_property
    def d_p2_1(self):
        return E.diff(self.phi1, "p2")

    @cached_property
    def d_s2(self):
        return E.diff(self.phi2, "s")

    @cached_property
    def d_p1_2(self):
        return E.diff(self.phi2, "p1")

    @cached_property
    def d_p2_2(self):
        return E.diff(self.phi2, "p2")

    @cached_property
    def legendrian_expr(self):
        """d_s Phi2 + 2 Im(conj(Phi1) d_s Phi1), zero iff leaves are
        legendrian."""
        return E.add(self.d_s2, E.mul(
            E.const(2.0),
            E.im_part(E.mul(E.conj_expr(self.phi1), self.d_s1))))

    @cached_property
    def polar_parts(self):
        """(X, Theta) when Phi1 is written sqrt(X)*exp(i*Theta), in either
        factor order, with X positive and Theta real on the interior
        grid; None for any other chart."""
        parts = _polar_parts(self.phi1)
        if parts is None:
            return None
        g = self.grid(8)
        x, theta = (E.eval_array(e, g) for e in parts)
        if (x.imag != 0.0).any() or (theta.imag != 0.0).any() \
                or not (x.real > 0.0).all():
            return None
        return parts

    @cached_property
    def jac_a_expr(self):
        """The Jacobian that every volume integral uses.

        On a polar chart (`polar_parts`) it is the honest determinant
        1/2 det d(X, Theta, Phi2)/d(s, p1, p2), from dx dy = 1/2 d|z|^2
        dTheta: every entry is real, and a steep phase never enters a
        cancelling product.  Any other chart takes the A route,
        -Im(conj(d_s Phi1) A) where A couples the transverse partials;
        it equals the honest determinant exactly when the foliation is
        legendrian, and misses it by residual * Im(conj(d_p1 Phi1)
        d_p2 Phi1) otherwise."""
        if self.polar_parts is not None:
            return E.mul(E.const(0.5), _det3((*self.polar_parts, self.phi2)))
        a = E.add(
            E.sub(E.mul(self.d_p1_2, self.d_p2_1),
                  E.mul(self.d_p2_2, self.d_p1_1)),
            E.mul(E.mul(E.const(2.0), self.phi1),
                  E.im_part(E.mul(self.d_p1_1, E.conj_expr(self.d_p2_1)))))
        return E.neg(E.im_part(E.mul(E.conj_expr(self.d_s1), a)))

    @cached_property
    def jac_det_expr(self):
        """3x3 determinant of d(Re Phi1, Im Phi1, Phi2)/d(s, p1, p2)."""
        return _det3((E.re_part(self.phi1), E.im_part(self.phi1),
                      self.phi2))

    def compose(self, heis_expr: E.Expr) -> E.Expr:
        """Pull an expression in (z, zb, t) back to parameter space."""
        return E.substitute(heis_expr, {
            "z": self.phi1, "zb": E.conj_expr(self.phi1), "t": self.phi2})

    def point_at(self, s, p1, p2) -> HPoint:
        b = {"s": s, "p1": p1, "p2": p2}
        return HPoint(E.evaluate(self.phi1, b),
                      E.evaluate(self.phi2, b).real)

    def grid(self, n: int) -> dict:
        (s0, s1) = self.s_range
        (a0, a1), (b0, b1) = self.p_box
        fr = np.linspace(0.0, 1.0, n + 2)[1:-1]
        s, p1, p2 = np.meshgrid(s0 + (s1 - s0) * fr, a0 + (a1 - a0) * fr,
                                b0 + (b1 - b0) * fr, indexing="ij")
        return {"s": s.ravel(), "p1": p1.ravel(), "p2": p2.ravel()}

    def validate(self):
        """Enforce the construction invariants on an interior grid."""
        g = self.grid(8)
        res = E.eval_array(self.legendrian_expr, g)
        worst = float(np.abs(res).max())
        if worst > HORIZONTAL_TOL:
            raise NotLegendrian(f"legendrian residual reaches {worst:.3e} "
                                f"(tol {HORIZONTAL_TOL:.1e})")
        speed = np.abs(E.eval_array(self.d_s1, g))
        if speed.min() < Q_FLOOR:
            raise ZeroVelocity("d_s Phi1 vanishes on the parameter box")
        return worst


def _polar_parts(phi1):
    """(X, Theta) when phi1 is the node sqrt(X)*exp(i*Theta), in either
    factor order of both products, else None."""
    if type(phi1) is not E.Mul:
        return None
    for root, wave in ((phi1.lhs, phi1.rhs), (phi1.rhs, phi1.lhs)):
        if type(root) is E.Sqrt and type(wave) is E.Exp \
                and type(wave.arg) is E.Mul:
            m = wave.arg
            for unit, theta in ((m.lhs, m.rhs), (m.rhs, m.lhs)):
                if type(unit) is E.Const and unit.value == 1j:
                    return root.arg, theta
    return None


def _det3(comps) -> E.Expr:
    """3x3 determinant of d(comps)/d(s, p1, p2), by cofactors of the
    first row."""
    (a, b, c), (d, e_, f), (g, h, i) = (
        [E.diff(comp, v) for v in ("s", "p1", "p2")] for comp in comps)
    return E.add(
        E.sub(E.mul(a, E.sub(E.mul(e_, i), E.mul(f, h))),
              E.mul(b, E.sub(E.mul(d, i), E.mul(f, g)))),
        E.mul(c, E.sub(E.mul(d, h), E.mul(e_, g))))


def mu_squared_expr(q, fol) -> E.Expr:
    """(q o Phi) * (d_s Phi1)^2 -- real-positive exactly on horizontal
    foliations; its positive root is the leaf q-speed."""
    return E.mul(fol.compose(q.coeff), E.mul(fol.d_s1, fol.d_s1))


def column_binding(fol, x, ps) -> dict:
    """Binding of s-nodes x (rows) against parameter columns ps."""
    b = {"s": x[:, None]}
    b.update((v, np.asarray(p)[None, :]) for v, p in zip(fol.p_vars, ps))
    return b


def _full_shape(v, shape):
    # evaluated expressions drop the axes of the variables they lack
    # (constants collapse to 0-d); restore the full grid shape
    return v if np.shape(v) == shape else np.broadcast_to(v, shape)


def _binding_shape(binding):
    return np.broadcast(*binding.values()).shape


def check_horizontal(q, fol, *ps):
    """Spot-check that the leaves through the parameter columns ps (one
    array per p-axis) are horizontal, at five interior s-nodes."""
    (s0, s1) = fol.s_range
    svals = s0 + (s1 - s0) * np.linspace(0.0, 1.0, 7)[1:-1]
    mu2 = E.eval_array(mu_squared_expr(q, fol),
                       column_binding(fol, svals, ps))
    scale = np.abs(mu2)
    bad_imag = np.abs(mu2.imag) > HORIZONTAL_TOL * (scale + 1.0)
    bad_sign = mu2.real <= 0.0
    if bad_imag.any() or bad_sign.any():
        k = int(np.argmax(bad_imag | bad_sign))
        raise NotHorizontal(
            f"(q o Phi)(d_s Phi1)^2 = {mu2.ravel()[k]:.6g} is not "
            "real-positive; leaves are not horizontal for this q")


def check_jacobian(fol):
    """Refuse a chart whose Jacobian vanishes on the whole sample grid."""
    if (np.abs(E.eval_array(fol.jac_a_expr, fol.grid(8))) < Q_FLOOR).all():
        raise InversionFailure("the chart's Jacobian vanishes on the whole "
                               "sample grid: its leaves sweep no volume")


def leaf_speed_fn(q, fol):
    """Vectorized sqrt|q o Phi| * |d_s Phi1|, the q-length element."""
    qc = fol.compose(q.coeff)
    ds1 = fol.d_s1

    def speed(binding):
        qa = np.abs(E.eval_array(qc, binding))
        va = np.abs(E.eval_array(ds1, binding))
        return _full_shape(np.sqrt(qa) * va, _binding_shape(binding))
    return speed


def leaf_length_batch(q, fol, *ps, tol: float = 1e-10):
    """q-lengths of the leaves through the parameter columns ps, after
    checking that those leaves are horizontal.

    Returns (values, errors) as float arrays.  The s-integrand may blow
    up at either leaf end (integrably); the quadrature ladders handle it.
    """
    ps = tuple(np.asarray(p, dtype=float) for p in ps)
    check_horizontal(q, fol, *ps)
    speed = leaf_speed_fn(q, fol)
    (s0, s1) = fol.s_range

    def integrand(x, cols):
        return speed(column_binding(fol, x, ps))[:, cols]

    res = integrate_batch(integrand, s0, s1, atol=tol * 1e-2, rtol=tol)
    return res.value.real, res.error


def lambda_field_array(q, fol, binding: dict) -> np.ndarray:
    """lambda = mu^(n-1) J / |d_s Phi1|^n over a parameter binding (a
    broadcasting dict), mu the positive leaf q-speed, n the chart's
    exponent.  Constant in s (per leaf) whenever q has vanishing B2
    residual (is holomorphic, in the plane) and the foliation is
    horizontal; that constancy is the tested conclusion."""
    mu2 = E.eval_array(mu_squared_expr(q, fol), binding)
    if (mu2.real <= 0.0).any() or \
            (np.abs(mu2.imag) > HORIZONTAL_TOL * (np.abs(mu2) + 1.0)).any():
        raise NegativeQ("mu^2 is not real-positive across the grid")
    mu = np.sqrt(mu2.real)
    jac = E.eval_array(fol.jac_a_expr, binding).real
    speed2 = np.abs(E.eval_array(fol.d_s1, binding)) ** 2
    n = fol.exponent
    return _full_shape(mu ** (n - 1) * jac / speed2 ** (n // 2),
                       _binding_shape(binding))


# ---------------------------------------------------------------------------
# trajectory tracing

@dataclass(frozen=True)
class LegendrianPath:
    """Samples (s, point, tangent) of a unit-q-speed legendrian curve.

    Tangents come straight from the traced vector field, so their
    legendrian residual is zero up to rounding by construction; the
    geometric solver error lives in the points instead.
    """

    samples: tuple
    rk_tol: float
    stop_reason: str

    def params(self):
        return np.array([s for s, _, _ in self.samples])


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_TWO_PI = 2.0 * math.pi


class _TraceStop(Exception):
    def __init__(self, reason):
        self.reason = reason


def trace_trajectory(q: QuadDiff, start: HPoint, orientation: int = 1,
                     rk_tol: float = 1e-9, *, max_length: float = 10.0,
                     q_floor: float = Q_FLOOR, domain=None,
                     max_steps: int = 100_000) -> LegendrianPath:
    """Follow the horizontal trajectory of q through `start`.

    Integrates dz/ds = orientation * exp(-i arg(q)/2) / sqrt|q| with the
    argument unwrapped continuously along the path (the square root has a
    sign ambiguity that only continuity resolves), and dt/ds pinned to
    the legendrian lift.  The parameter s is q-arc-length: q(gamma') = 1
    along the whole path.

    Stops cleanly (stop_reason) at max_length, at a zero of q, or on
    leaving `domain` (a predicate HPoint -> bool).  Raises ZeroOfQ /
    LeftDomain if the start itself is bad, DivisionNearZero where q has
    a pole (a division by zero, or a log or negative power of zero),
    StepFailure if the step size collapses or the step budget is
    exhausted.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    qfun = E.compile_scalar(q.coeff, ("z", "zb", "t"))

    def q_at(y):
        z = complex(y[0], y[1])
        try:
            return qfun(z, z.conjugate(), y[2])
        except (ZeroDivisionError, ValueError) as exc:   # a pole of q
            raise DivisionNearZero(
                f"q cannot be evaluated at z = {z}, t = {y[2]}: {exc}") \
                from None

    def rhs(y, theta_ref):
        z = complex(y[0], y[1])
        qv = q_at(y)
        aq = abs(qv)
        if aq < q_floor:
            raise _TraceStop("zero_of_q")
        raw = cmath.phase(qv)
        theta = raw + _TWO_PI * round((theta_ref - raw) / _TWO_PI)
        dz = orientation * cmath.exp(-0.5j * theta) / math.sqrt(aq)
        dt = -2.0 * (z.conjugate() * dz).imag
        return np.array((dz.real, dz.imag, dt)), theta

    def inside(y):
        return domain is None or domain(HPoint(complex(y[0], y[1]), y[2]))

    y = np.array((start.z.real, start.z.imag, start.t), dtype=float)
    if not inside(y):
        raise LeftDomain(f"start {start} is outside the domain guard")
    q0 = q_at(y)
    if abs(q0) < q_floor:
        raise ZeroOfQ(f"|q(start)| = {abs(q0):.3e} below floor {q_floor}")
    theta_ref = cmath.phase(q0)

    samples = []

    def record(s, y, dy):
        samples.append((s, HPoint(complex(y[0], y[1]), y[2]),
                        HTangent(complex(dy[0], dy[1]), dy[2])))

    f0, _ = rhs(y, theta_ref)
    record(0.0, y, f0)
    s = 0.0
    h = min(0.05, max_length / 8.0)
    h_floor = 1e3 * np.finfo(float).tiny
    # stopping events (zero of q, domain exit) are localized to h_stop in
    # arc-length; creeping below that just burns the step budget at ulp
    # resolution without moving y
    h_stop = max(1e-10, 64.0 * np.finfo(float).eps * max(1.0, max_length))
    stop_reason = None
    steps = 0
    k = [None] * 7
    k[0] = f0
    while stop_reason is None:
        if steps >= max_steps:
            raise StepFailure(f"step budget {max_steps} exhausted "
                              f"at s = {s:.6g}")
        steps += 1
        h = min(h, max_length - s)
        if h <= 0.0:
            stop_reason = "max_length"
            break
        try:
            for i in range(1, 6):
                yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
                k[i], _ = rhs(yi, theta_ref)
            y5 = y + h * sum(b * k[j] for j, b in enumerate(_DP_B5))
            k[6], theta_new = rhs(y5, theta_ref)
        except _TraceStop as ts:
            # a trial stage fell on a zero of q: creep closer, then stop
            if h > h_stop:
                h *= 0.25
                continue
            stop_reason = ts.reason
            break
        y4 = y + h * (sum(b * k[j] for j, b in enumerate(_DP_B4[:6]))
                      + _DP_B4[6] * k[6])
        scale = rk_tol + rk_tol * np.abs(y5)
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0 and abs(theta_new - theta_ref) <= 0.5 * math.pi:
            if not inside(y5):
                if h > h_stop:
                    h *= 0.5
                    continue
                stop_reason = "domain"
                break
            s += h
            y = y5
            theta_ref = theta_new
            k[0] = k[6]               # first-same-as-last
            record(s, y, k[0])
            if s >= max_length:
                stop_reason = "max_length"
                break
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        else:
            h *= max(0.1, 0.9 * err ** -0.25) if err > 1.0 else 0.5
        if h < h_floor:
            raise StepFailure(f"step size underflow at s = {s:.6g}")
    return LegendrianPath(tuple(samples), rk_tol, stop_reason)
