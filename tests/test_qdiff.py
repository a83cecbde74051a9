"""Quadratic differential evaluation and the three kernel operators."""

import math

import numpy as np
import pytest

from heismod import expr as E
from heismod.errors import (
    DivisionNearZero,
    NonLegendrianTangent,
    VariableMismatch,
)
from heismod.foliation import Foliation
from heismod.heis import HPoint, HTangent
from heismod.qdiff import (
    QuadDiff,
    b2_residual,
    d2doubleprime_residual,
    d2prime_residual,
    eval_q,
    q_on_tangent,
)

Q0_TEXT = ("conj(z)^2 * (t^2 + (z*conj(z))^2)^(2/3)"
           " / ((z*conj(z))^(4/3) * (t + i*z*conj(z))^2)")
TRIPLE_TEXT = "(t - i*z*conj(z))^2 / (t + i*z*conj(z))^4"

ARC_PHI1 = "sqrt(exp(p1)*sin(s)) * exp(i*(p2 + s/2))"
ARC_PHI2 = "exp(p1)*cos(s)"
RAD_PHI1 = "sqrt(exp(s)*sin(p1)) * exp(i*(p2 - (s/2)*cos(p1)/sin(p1)))"
RAD_PHI2 = "exp(s)*cos(p1)"


def arc_foliation(r=2.0):
    return Foliation(E.parse(ARC_PHI1), E.parse(ARC_PHI2), (0.0, math.pi),
                     ((0.0, 2 * math.log(r)), (0.0, 2 * math.pi)))


def annulus_points(rng, n, r=2.0):
    """Sample the annulus interior through the arc chart."""
    s = rng.uniform(0.15, math.pi - 0.15, n)
    x = rng.uniform(0.05, 2 * math.log(r) - 0.05, n)
    th = rng.uniform(0.0, 2 * math.pi, n)
    z = np.sqrt(np.exp(x) * np.sin(s)) * np.exp(1j * (th + s / 2))
    t = np.exp(x) * np.cos(s)
    return z, t


def test_eval_constant():
    q = QuadDiff.from_string("1")
    assert eval_q(q, HPoint(5 - 2j, 3.0)) == 1.0


def test_eval_q0_reference_point():
    # at (z,t)=(1,0) the denominator factor is (i)^2 = -1, so the value
    # is -1, not +1; the positive values live on arc tangents, not here
    q = QuadDiff.from_string(Q0_TEXT)
    assert eval_q(q, HPoint(1 + 0j, 0.0)) == pytest.approx(-1.0, abs=1e-14)


def test_eval_q0_matches_hand_form():
    q = QuadDiff.from_string(Q0_TEXT)
    rng = np.random.default_rng(21)
    z, t = annulus_points(rng, 40)
    got = E.eval_array(q.coeff, {"z": z, "zb": z.conj(), "t": t})
    want = (np.conj(z) ** 2 * (t ** 2 + np.abs(z) ** 4) ** (2 / 3)
            / (np.abs(z) ** (8 / 3) * (t + 1j * np.abs(z) ** 2) ** 2))
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_eval_q0_off_domain():
    q = QuadDiff.from_string(Q0_TEXT)
    with pytest.raises(DivisionNearZero):
        eval_q(q, HPoint(0j, 1.0))


def test_quaddiff_rejects_parameter_variables():
    with pytest.raises(VariableMismatch):
        QuadDiff.from_string("z + s")


def test_q_on_tangent_constant():
    v = HTangent(1 + 0j, 0.0)
    assert q_on_tangent(QuadDiff.from_string("1"), HPoint(0j, 0.0), v) == 1.0


def test_q_on_tangent_rejects_nonlegendrian():
    with pytest.raises(NonLegendrianTangent):
        q_on_tangent(QuadDiff.from_string("1"), HPoint(1 + 0j, 0.0),
                     HTangent(0j, 1.0))


def tangent_of(phi1, phi2, b):
    d1 = E.evaluate(E.diff(phi1, "s"), b)
    d2 = E.evaluate(E.diff(phi2, "s"), b)
    p = HPoint(E.evaluate(phi1, b), E.evaluate(phi2, b).real)
    return p, HTangent(d1, d2.real)


def test_q0_on_arc_tangents():
    q = QuadDiff.from_string(Q0_TEXT)
    fol = arc_foliation()
    rng = np.random.default_rng(3)
    for _ in range(12):
        s = rng.uniform(0.2, math.pi - 0.2)
        b = {"s": s, "p1": rng.uniform(0.1, 1.2), "p2": rng.uniform(0, 6.2)}
        p, v = tangent_of(fol.phi1, fol.phi2, b)
        val = q_on_tangent(q, p, v)
        want = 1.0 / (4.0 * math.sin(s) ** (4 / 3))
        assert val.real == pytest.approx(want, rel=1e-10)
        assert abs(val.imag) < 1e-10 * want
        assert val.real > 0  # horizontal


def test_q0_on_radius_tangents():
    q = QuadDiff.from_string(Q0_TEXT)
    phi1, phi2 = E.parse(RAD_PHI1), E.parse(RAD_PHI2)
    rng = np.random.default_rng(5)
    for _ in range(12):
        y = rng.uniform(0.25, math.pi - 0.25)
        b = {"s": rng.uniform(0.1, 2 * math.log(2) - 0.1), "p1": y,
             "p2": rng.uniform(0, 6.2)}
        p, v = tangent_of(phi1, phi2, b)
        val = q_on_tangent(q, p, v)
        want = -1.0 / (4.0 * math.sin(y) ** (4 / 3))
        assert val.real == pytest.approx(want, rel=1e-10)
        assert val.real < 0  # vertical


# ---------------------------------------------------------------------------
# kernel operators

def test_b2_constant_is_zero():
    q = QuadDiff.from_string("2 + 3*i")
    assert b2_residual(q, HPoint(1 + 2j, 0.7)) == 0


def test_b2_of_zb():
    q = QuadDiff.from_string("conj(z)")
    assert b2_residual(q, HPoint(1 + 0j, 0.0)) == pytest.approx(2.0)
    # general point: value is 2z
    p = HPoint(0.3 - 1.1j, 0.4)
    assert b2_residual(q, p) == pytest.approx(2 * p.z)


def test_b2_scaling_is_quadratic():
    # both terms of the operator are quadratic in q, so scaling q by a
    # real c scales the residual by c^2
    base = QuadDiff.from_string("conj(z)")
    scaled = QuadDiff.from_string("2*conj(z)")
    p = HPoint(0.8 + 0.2j, -0.3)
    assert b2_residual(scaled, p) == pytest.approx(4 * b2_residual(base, p))


def test_b2_q0_vanishes_on_annulus():
    q = QuadDiff.from_string(Q0_TEXT)
    rng = np.random.default_rng(11)
    z, t = annulus_points(rng, 200)
    vals = E.eval_array(q.b2_expr, {"z": z, "zb": z.conj(), "t": t})
    assert np.abs(vals).max() < 1e-9


def test_d2prime_cases():
    assert d2prime_residual(QuadDiff.from_string("1"),
                            HPoint(1 + 1j, 0.5)) == 0
    # q = -4 zb^2 = (Z(t + i|z|^2))^2: Zq = 0, Z Zbar q = 0, Tq = 0
    q = QuadDiff.from_string("-4*conj(z)^2")
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = HPoint(complex(rng.normal(), rng.normal()), rng.normal())
        assert abs(d2prime_residual(q, p)) < 1e-12


def test_d2doubleprime_cases():
    assert d2doubleprime_residual(QuadDiff.from_string("1"),
                                  HPoint(2j, 1.0)) == 0
    q = QuadDiff.from_string("conj(z)")
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = HPoint(complex(rng.normal(), rng.normal()), rng.normal())
        assert d2doubleprime_residual(q, p) == pytest.approx(-1.0)


def test_triple_kernel_example():
    q = QuadDiff.from_string(TRIPLE_TEXT)
    rng = np.random.default_rng(19)
    n = 200
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    t = rng.normal(size=n)
    keep = (t ** 2 + np.abs(z) ** 4) ** 0.25 >= 0.5
    z, t = z[keep], t[keep]
    binding = {"z": z, "zb": z.conj(), "t": t}
    for ex in (q.b2_expr, q.d2prime_expr, q.d2doubleprime_expr):
        assert np.abs(E.eval_array(ex, binding)).max() < 1e-9


def test_b2_kernel_uniqueness_obstruction():
    # multiplying a kernel element by a non-constant positive real f
    # leaves the kernel: the residual becomes 3 f |q|^2 Zbar(f) != 0
    q0 = E.parse(Q0_TEXT)
    f = E.parse("1 + z*conj(z)")
    fq = QuadDiff(E.mul(f, q0))
    rng = np.random.default_rng(23)
    z, t = annulus_points(rng, 60)
    binding = {"z": z, "zb": z.conj(), "t": t}
    got = E.eval_array(fq.b2_expr, binding)
    fv = E.eval_array(f, binding)
    q0v = E.eval_array(q0, binding)
    want = 3.0 * fv * np.abs(q0v) ** 2 * z   # Zbar(1 + z zb) = z
    assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()
    assert np.abs(got).min() > 1e-3


def test_residuals_match_finite_differences():
    # independent check of the operator assembly: nested central
    # differences for Z, Zbar, T on a generic non-kernel q
    q = QuadDiff.from_string("z^2*conj(z) + t*z")
    p = HPoint(0.7 + 0.4j, 0.6)
    h = 1e-4

    def qv(z, t):
        return z ** 2 * np.conj(z) + t * z

    def Z(g, z, t):
        fx = (g(z + h, t) - g(z - h, t)) / (2 * h)
        fy = (g(z + 1j * h, t) - g(z - 1j * h, t)) / (2 * h)
        return 0.5 * (fx - 1j * fy) + 1j * np.conj(z) * (
            g(z, t + h) - g(z, t - h)) / (2 * h)

    def Zb(g, z, t):
        fx = (g(z + h, t) - g(z - h, t)) / (2 * h)
        fy = (g(z + 1j * h, t) - g(z - 1j * h, t)) / (2 * h)
        return 0.5 * (fx + 1j * fy) - 1j * z * (
            g(z, t + h) - g(z, t - h)) / (2 * h)

    z0, t0 = p.z, p.t
    b2_fd = Zb(lambda z, t: abs(qv(z, t)) ** 2, z0, t0) \
        + np.conj(qv(z0, t0)) * Zb(qv, z0, t0)
    assert b2_residual(q, p) == pytest.approx(b2_fd, rel=2e-6)

    d2pp_fd = 2 * qv(z0, t0) * Zb(lambda z, t: Zb(qv, z, t), z0, t0) \
        - Zb(qv, z0, t0) ** 2
    assert d2doubleprime_residual(q, p) == pytest.approx(d2pp_fd, rel=2e-4)
