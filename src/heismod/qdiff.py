"""Quadratic differentials q dz^2 on Heisenberg domains.

A differential is stored by its coefficient expression q(z, zb, t); the
line-bundle factor is fixed and implicit.  Because the class is taken
modulo the contact form, q only pairs with legendrian tangents, and
q_on_tangent refuses anything else.

The three kernel operators live here as symbolic expression builders, so
membership checks reduce to "evaluate an expression, expect zero" and
inherit machine-precision accuracy from the derivative engine instead of
finite-difference noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as E
from .errors import (
    InversionFailure,
    NegativeQ,
    NonLegendrianTangent,
    VariableMismatch,
    ZeroVelocity,
)
from .heis import HPoint, HTangent, legendrian_residual

LEG_TOL = 1e-8
Q_FLOOR = 1e-12

_HEIS_VARS = frozenset({"z", "zb", "t"})
_PARAM_VARS = frozenset({"s", "p1", "p2"})


def _binding(p: HPoint) -> dict:
    return {"z": p.z, "zb": p.z.conjugate(), "t": p.t}


@dataclass(frozen=True)
class QuadDiff:
    """Coefficient of a quadratic differential in variables (z, zb, t)."""

    coeff: E.Expr

    def __post_init__(self):
        extra = E.free_vars(self.coeff) - _HEIS_VARS
        if extra:
            raise VariableMismatch(
                f"quadratic differential uses non-Heisenberg "
                f"variables {sorted(extra)}")

    @classmethod
    def from_string(cls, text: str) -> "QuadDiff":
        return cls(E.parse(text))

    @cached_property
    def b2_expr(self) -> E.Expr:
        """Zbar(|q|^2) + conj(q) * Zbar(q)."""
        qb = E.conj_expr(self.coeff)
        return E.add(E.apply_field(E.mul(self.coeff, qb), "Zbar"),
                     E.mul(qb, E.apply_field(self.coeff, "Zbar")))

    @cached_property
    def d2prime_expr(self) -> E.Expr:
        """2q*Z(Zbar q) - Zq*Zbar q - 4i*q*Tq."""
        q = self.coeff
        zq = E.apply_field(q, "Z")
        zbq = E.apply_field(q, "Zbar")
        zzbq = E.apply_field(zbq, "Z")
        tq = E.apply_field(q, "T")
        return E.sub(
            E.sub(E.mul(E.mul(E.const(2.0), q), zzbq), E.mul(zq, zbq)),
            E.mul(E.mul(E.const(4j), q), tq))

    @cached_property
    def d2doubleprime_expr(self) -> E.Expr:
        """2q*Zbar(Zbar q) - (Zbar q)^2."""
        q = self.coeff
        zbq = E.apply_field(q, "Zbar")
        return E.sub(
            E.mul(E.mul(E.const(2.0), q), E.apply_field(zbq, "Zbar")),
            E.mul(zbq, zbq))


def eval_q(q: QuadDiff, p: HPoint) -> complex:
    """Coefficient value at a point; domain blow-ups propagate."""
    return E.evaluate(q.coeff, _binding(p))


def eval_q_array(q: QuadDiff, zs, ts) -> np.ndarray:
    zs = np.asarray(zs, dtype=np.complex128)
    return E.eval_array(q.coeff, {"z": zs, "zb": zs.conj(),
                                  "t": np.asarray(ts, dtype=float)})


def q_on_tangent(q: QuadDiff, p: HPoint, v: HTangent,
                 tol: float = LEG_TOL) -> complex:
    """q(p) * (dz component)^2 for a legendrian tangent.

    The class [q dz^2] is only defined modulo the contact form, so the
    value is meaningless on non-legendrian input; residuals above `tol`
    raise NonLegendrianTangent.  Real-positive output means horizontal,
    real-negative vertical.
    """
    res = legendrian_residual(p.z, v)
    if abs(res) > tol * (1.0 + abs(v.dz) ** 2 + abs(v.dt)):
        raise NonLegendrianTangent(
            f"tangent residual {res:.3e} exceeds {tol:.1e}")
    return eval_q(q, p) * v.dz * v.dz


def b2_residual(q: QuadDiff, p: HPoint) -> complex:
    return E.evaluate(q.b2_expr, _binding(p))


def d2prime_residual(q: QuadDiff, p: HPoint) -> complex:
    return E.evaluate(q.d2prime_expr, _binding(p))


def d2doubleprime_residual(q: QuadDiff, p: HPoint) -> complex:
    return E.evaluate(q.d2doubleprime_expr, _binding(p))


@dataclass(frozen=True)
class PullbackField:
    """A differential presented in foliation coordinates: its value at
    Phi(s, p1, p2) is expr(s, p1, p2), with no inversion needed for any
    integral over the parameter box."""

    expr: E.Expr
    foliation: object

    def at(self, s: float, p1: float, p2: float) -> complex:
        return E.evaluate(self.expr, {"s": s, "p1": p1, "p2": p2})

    def at_point(self, p: HPoint, **kwargs) -> complex:
        u = invert_foliation(self.foliation, p, **kwargs)
        return self.at(*u)


def q_from_foliation(fol, f: E.Expr, grid_n: int = 6) -> PullbackField:
    """Differential with prescribed positive leaf data f.

    On the leaves of `fol` the differential takes the value
    f / (d_s Phi1)^2, which makes every leaf horizontal with q-speed
    f(s,p).  The returned field lives in parameter coordinates.

    Raises NegativeQ if f is not real-positive on a spot-check grid and
    ZeroVelocity where the leaf velocity vanishes.
    """
    if isinstance(f, str):
        f = E.parse(f)
    extra = E.free_vars(f) - _PARAM_VARS
    if extra:
        raise VariableMismatch(f"leaf data uses variables {sorted(extra)}")
    vel = E.diff(fol.phi1, "s")
    grid = fol.grid(grid_n)
    fv = E.eval_array(f, grid)
    if np.abs(fv.imag).max() > 1e-10 * (1.0 + np.abs(fv.real).max()):
        raise NegativeQ("leaf data f is not real on the parameter box")
    if fv.real.min() <= 0.0:
        raise NegativeQ(f"leaf data f reaches {fv.real.min():.3e} <= 0")
    vv = E.eval_array(vel, grid)
    if np.abs(vv).min() < Q_FLOOR:
        raise ZeroVelocity("leaf velocity d_s Phi1 vanishes on the box")
    return PullbackField(E.div(f, E.mul(vel, vel)), fol)


def invert_foliation(fol, target: HPoint, *, seeds: int = 8,
                     tol: float = 1e-11, max_iter: int = 60):
    """Solve Phi(s, p1, p2) = target by damped Newton iteration.

    The Jacobian is assembled from symbolic partials, and the start point
    is the best node of a coarse parameter grid.  Returns (s, p1, p2) or
    raises InversionFailure.
    """
    comps = (E.re_part(fol.phi1), E.im_part(fol.phi1), fol.phi2)
    jac_exprs = [[E.diff(c, v) for v in ("s", "p1", "p2")] for c in comps]
    tgt = np.array([target.z.real, target.z.imag, target.t])
    scale = 1.0 + float(np.abs(tgt).max())

    grid = fol.grid(seeds)
    vals = np.stack([E.eval_array(c, grid).real for c in comps], axis=1)
    best = int(np.argmin(((vals - tgt) ** 2).sum(axis=1)))
    u = np.array([grid["s"][best], grid["p1"][best], grid["p2"][best]])

    (s0, s1) = fol.s_range
    (a0, a1), (b0, b1) = fol.p_box
    lo = np.array([s0, a0, b0])
    hi = np.array([s1, a1, b1])
    slack = 1e-7 * (hi - lo)

    def residual(u):
        b = {"s": u[0], "p1": u[1], "p2": u[2]}
        return np.array([E.evaluate(c, b).real for c in comps]) - tgt

    r = residual(u)
    for _ in range(max_iter):
        if np.abs(r).max() <= tol * scale:
            break
        b = {"s": u[0], "p1": u[1], "p2": u[2]}
        J = np.array([[E.evaluate(d, b).real for d in row]
                      for row in jac_exprs])
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError as ex:
            raise InversionFailure(f"singular Jacobian at {u}") from ex
        lam = 1.0
        while lam > 2 ** -12:
            cand = np.clip(u - lam * step, lo - slack, hi + slack)
            rc = residual(cand)
            if np.abs(rc).max() < np.abs(r).max():
                u, r = cand, rc
                break
            lam *= 0.5
        else:
            raise InversionFailure(
                f"Newton stalled at {u} with residual {np.abs(r).max():.3e}")
    else:
        raise InversionFailure(
            f"no convergence after {max_iter} iterations "
            f"(residual {np.abs(r).max():.3e})")
    if ((u < lo - slack) | (u > hi + slack)).any():
        raise InversionFailure(f"solution {u} leaves the parameter box")
    return float(u[0]), float(u[1]), float(u[2])
