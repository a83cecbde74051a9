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

from . import expr as E
from .errors import NonLegendrianTangent, VariableMismatch
from .heis import HPoint, HTangent, legendrian_residual

LEG_TOL = 1e-8
Q_FLOOR = 1e-12

_HEIS_VARS = frozenset({"z", "zb", "t"})


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
