"""Complex-plane modulus oracle: the 2-dimensional analog of the group
pipeline, used as a regression bed because its answers are classical.

This module holds the planar quadratic differential q(w, wb) dw^2, the
planar chart Phi(s, p) with leaves along s, and the M2 entry point.  A
planar chart offers the same family interface as a group chart (one
p-axis, exponent 2), so the second-power modulus

    M2 = int_J l(p)^-2  int_I |q(Phi)| |J_Phi| ds dp,
    l(p) = int_I sqrt|q(Phi)| |d_s Phi| ds,

runs through the engine of :mod:`heismod.modulus` and the leaf
functions of :mod:`heismod.foliation`; only the gates differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import ClassVar

import numpy as np

from . import expr as E
from .errors import InversionFailure, VariableMismatch, ZeroVelocity
from .foliation import check_jacobian
from .modulus import ModulusReport, family_modulus
from .qdiff import Q_FLOOR

_PARAM_VARS = frozenset({"s", "p"})
_Q_VARS = frozenset({"w", "wb"})


@dataclass(frozen=True)
class PlanarQD:
    """A quadratic differential q(w, wb) dw^2 on a plane domain.

    Holomorphy (no wb dependence) is not enforced at construction;
    anti-holomorphic negative controls are first-class test subjects.
    Use holomorphy_residual to check it where claimed.
    """

    coeff: E.Expr

    def __post_init__(self):
        extra = E.free_vars(self.coeff) - _Q_VARS
        if extra:
            raise VariableMismatch(
                f"planar coefficient uses variables {sorted(extra)}")

    @classmethod
    def from_string(cls, text: str) -> "PlanarQD":
        return cls(E.parse(text))

    @cached_property
    def d_wb(self) -> E.Expr:
        return E.diff(self.coeff, "wb")


def holomorphy_residual(q: PlanarQD, w) -> complex:
    """d_wb q at w; zero exactly where q is holomorphic."""
    wa = np.asarray(w, dtype=complex)
    out = E.eval_array(q.d_wb, {"w": wa, "wb": np.conj(wa)})
    out = np.broadcast_to(out, wa.shape)
    return complex(out) if np.ndim(w) == 0 else out


@dataclass(frozen=True)
class PlanarFoliation:
    """Chart Phi(s, p) of a plane region foliated by s-curves.

    The complex coordinate is named phi1 and the box p_box holds the
    single p range, so the chart answers to the same names as a group
    chart without phi2.
    """

    phi1: E.Expr
    s_range: tuple
    p_box: tuple
    p_vars: ClassVar[tuple] = ("p",)
    exponent: ClassVar[int] = 2

    def __post_init__(self):
        extra = E.free_vars(self.phi1) - _PARAM_VARS
        if extra:
            raise VariableMismatch(f"phi uses variables {sorted(extra)}")
        (s0, s1), ((p0, p1),) = self.s_range, self.p_box
        if not (s0 < s1 and p0 < p1):
            raise ValueError("empty parameter ranges")

    @classmethod
    def from_strings(cls, phi1, s_range, p_range) -> "PlanarFoliation":
        return cls(E.parse(phi1), tuple(s_range), (tuple(p_range),))

    @cached_property
    def d_s1(self):
        return E.diff(self.phi1, "s")

    @cached_property
    def d_p(self):
        return E.diff(self.phi1, "p")

    @cached_property
    def jac_a_expr(self):
        """Im(conj(d_s Phi) d_p Phi), the oriented area density: the
        complex route, as the group chart's A route is."""
        return E.im_part(E.mul(E.conj_expr(self.d_s1), self.d_p))

    @cached_property
    def jac_det_expr(self):
        """2x2 determinant of d(Re Phi, Im Phi)/d(s, p)."""
        x, y = E.re_part(self.phi1), E.im_part(self.phi1)
        return E.sub(E.mul(E.diff(x, "s"), E.diff(y, "p")),
                     E.mul(E.diff(x, "p"), E.diff(y, "s")))

    def compose(self, plane_expr: E.Expr) -> E.Expr:
        """Pull an expression in (w, wb) back to parameter space."""
        return E.substitute(plane_expr, {
            "w": self.phi1, "wb": E.conj_expr(self.phi1)})

    def grid(self, n: int) -> dict:
        (s0, s1), ((p0, p1),) = self.s_range, self.p_box
        fr = np.linspace(0.0, 1.0, n + 2)[1:-1]
        return {"s": np.repeat(s0 + (s1 - s0) * fr, n),
                "p": np.tile(p0 + (p1 - p0) * fr, n)}

    def validate(self):
        """Spot-check d_s Phi != 0 and injectivity on an interior grid.

        The 7x7 grid puts nodes at k/8 of each range, so parameter pairs a
        half-period apart land on common points of k-fold covers; like
        any spot check this certifies nothing, it only catches the
        natural mistakes.
        """
        g = self.grid(7)
        speed = np.abs(E.eval_array(self.d_s1, g))
        if speed.min() < Q_FLOOR:
            raise ZeroVelocity("d_s Phi vanishes on the parameter box")
        pts = np.ravel(np.broadcast_to(E.eval_array(self.phi1, g),
                                       g["s"].shape))
        scale = np.abs(pts).max() + 1.0
        diff = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(diff, np.inf)
        if diff.min() < 1e-9 * scale:
            raise InversionFailure(
                "chart fails the injectivity spot check: two grid "
                "parameters map to the same point")
        return float(speed.min())


def modulus_m2(q: PlanarQD, fol: PlanarFoliation,
               tol: float = 1e-8) -> ModulusReport:
    """Second-power modulus of the planar family carved out by q.

    Same report shape as the group-side modulus; residual_stats carries
    the worst holomorphy residual |d_wb q| seen on the chart (purely
    diagnostic, not a gate: the length/area decomposition only needs
    horizontality, which is checked, while holomorphy is what makes the
    computed value extremal).  Like `modulus_m4`, it refuses a chart
    whose Jacobian vanishes on the whole sample grid.  Horizontality is
    checked by the leaf-length field, on its initial grid of leaves.
    """
    t0 = perf_counter()
    fol.validate()
    check_jacobian(fol)
    w = E.eval_array(fol.phi1, fol.grid(7))
    resid = float(np.max(np.abs(
        E.eval_array(q.d_wb, {"w": w, "wb": np.conj(w)}))))
    return family_modulus(q, fol, tol, resid, t0)
