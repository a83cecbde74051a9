"""Foliation invariants: legendrian checks, Jacobian routes, lengths,
lambda constancy, and the trajectory tracer."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from heismod import expr as E
from heismod.errors import (
    LeftDomain,
    NegativeQ,
    NotHorizontal,
    NotLegendrian,
    StepFailure,
    ZeroOfQ,
    ZeroVelocity,
)
from heismod.foliation import (
    Foliation,
    LegendrianPath,
    check_horizontal,
    lambda_field_array,
    leaf_length,
    leaf_length_batch,
    trace_trajectory,
)
from heismod.heis import HPoint, legendrian_residual
from heismod.qdiff import QuadDiff

Q0_TEXT = ("conj(z)^2 * (t^2 + (z*conj(z))^2)^(2/3)"
           " / ((z*conj(z))^(4/3) * (t + i*z*conj(z))^2)")
LOG_R = 2 * math.log(2.0)
C_REF = math.sqrt(math.pi) * math.gamma(1 / 6) / (2 * math.gamma(2 / 3))


def arc_foliation():
    return Foliation.from_strings(
        "sqrt(exp(p1)*sin(s)) * exp(i*(p2 + s/2))", "exp(p1)*cos(s)",
        (0.0, math.pi), ((0.0, LOG_R), (0.0, 2 * math.pi)))


def radius_foliation():
    return Foliation.from_strings(
        "sqrt(exp(s)*sin(p1)) * exp(i*(p2 - (s/2)*cos(p1)/sin(p1)))",
        "exp(s)*cos(p1)",
        (0.0, LOG_R), ((0.0, math.pi), (0.0, 2 * math.pi)))


def shear_foliation(a=2.0):
    return Foliation.from_strings("s + i*p1", "p2 + 2*p1*s",
                                  (0.0, a), ((0.0, 1.0), (0.0, 1.0)))


def q0():
    return QuadDiff.from_string(Q0_TEXT)


def neg_q0():
    return QuadDiff(E.neg(E.parse(Q0_TEXT)))


def at(expr, u):
    """Real part of a chart expression at u = (s, p1, p2)."""
    return E.evaluate(expr, dict(zip(("s", "p1", "p2"), u))).real


# ---------------------------------------------------------------------------
# legendrian identity

def test_validate_passes_for_legendrian_charts():
    assert arc_foliation().validate() < 1e-12
    assert radius_foliation().validate() < 1e-12
    assert shear_foliation().validate() == 0.0


def test_validate_rejects_nonlegendrian():
    bad = Foliation.from_strings("s + i*p1", "p2",
                                 (0.0, 1.0), ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(NotLegendrian):
        bad.validate()


def test_validate_rejects_zero_velocity():
    flat = Foliation.from_strings("p1 + i*p2", "0*s",
                                  (0.0, 1.0), ((0.1, 1.0), (0.1, 1.0)))
    with pytest.raises(ZeroVelocity):
        flat.validate()


def test_residual_of_decoupled_chart():
    # d_s Phi2 = 0 and 2 Im((s - i p1) * 1) = -2 p1
    bad = Foliation.from_strings("s + i*p1", "p2",
                                 (0.0, 1.0), ((0.0, 1.0), (0.0, 1.0)))
    assert at(bad.legendrian_expr, (0.5, 0.7, 0.3)) == \
        pytest.approx(-1.4)
    assert at(shear_foliation().legendrian_expr, (0.5, 0.7, 0.3)) == 0


# ---------------------------------------------------------------------------
# Jacobian routes

def test_jacobians_agree_on_legendrian_charts():
    rng = np.random.default_rng(31)
    for fol in (arc_foliation(), radius_foliation(), shear_foliation()):
        (s0, s1) = fol.s_range
        (a0, a1), (b0, b1) = fol.p_box
        for _ in range(25):
            u = (rng.uniform(s0 + 0.1, s1 - 0.1),
                 rng.uniform(a0 + 0.1, a1 - 0.1),
                 rng.uniform(b0, b1))
            ja, jd = at(fol.jac_a_expr, u), at(fol.jac_det_expr, u)
            assert ja == pytest.approx(jd, rel=1e-10, abs=1e-12)


def test_arc_jacobian_value():
    # both routes give the signed value -e^(2x)/2 in this chart order
    u = (1.1, 0.5, 2.0)
    want = -math.exp(2 * 0.5) / 2
    assert at(arc_foliation().jac_a_expr, u) == pytest.approx(want, rel=1e-12)


def test_shear_jacobian_is_one():
    u = (0.3, 0.6, 0.2)
    assert at(shear_foliation().jac_a_expr, u) == pytest.approx(1.0)
    assert at(shear_foliation().jac_det_expr, u) == pytest.approx(1.0)


def test_collapsed_chart_has_zero_jacobian():
    fol = Foliation.from_strings("s + i*p1", "2*p1*s",
                                 (0.0, 1.0), ((0.0, 1.0), (0.0, 1.0)))
    fol.validate()
    u = (0.4, 0.5, 0.6)
    assert at(fol.jac_a_expr, u) == pytest.approx(0.0, abs=1e-14)
    assert at(fol.jac_det_expr, u) == pytest.approx(0.0, abs=1e-14)


def test_jacobian_gap_on_coupled_nonlegendrian_chart():
    # Phi = (s + i p1 + p2, p2): residual -2 p1 couples into the A route,
    # det - A = residual * Im(conj(d_p1 Phi1) d_p2 Phi1) = 2 p1
    fol = Foliation.from_strings("s + i*p1 + p2", "p2",
                                 (0.0, 1.0), ((0.0, 1.0), (0.0, 1.0)))
    u = (0.5, 0.7, 0.3)
    assert at(fol.jac_det_expr, u) == pytest.approx(1.0)
    assert at(fol.jac_a_expr, u) == pytest.approx(1.0 - 2 * 0.7)
    for p1 in (0.1, 0.25, 0.6):
        u = (0.5, p1, 0.3)
        assert at(fol.jac_det_expr, u) - at(fol.jac_a_expr, u) == \
            pytest.approx(2 * p1, rel=1e-12)


# ---------------------------------------------------------------------------
# leaf lengths

def test_leaf_length_shear():
    v, err = leaf_length(QuadDiff.from_string("1"), shear_foliation(2.0),
                         (0.5, 0.5))
    assert v == pytest.approx(2.0, rel=1e-12)
    assert err < 1e-10


def test_leaf_length_arc_is_C():
    v, err = leaf_length(q0(), arc_foliation(), (0.5, 2.0), tol=1e-10)
    assert v == pytest.approx(C_REF, rel=5e-10)


def test_leaf_lengths_constant_across_arc_leaves():
    rng = np.random.default_rng(7)
    vals, errs = leaf_length_batch(
        q0(), arc_foliation(), rng.uniform(0.05, LOG_R - 0.05, 40),
        rng.uniform(0.0, 2 * math.pi, 40), tol=1e-10)
    assert np.abs(vals - C_REF).max() < 5e-10 * C_REF
    assert np.ptp(vals) < 1e-12 * C_REF


def test_leaf_length_radius_formula():
    for y in (0.4, 1.1, 2.3):
        v, _ = leaf_length(neg_q0(), radius_foliation(), (y, 1.0),
                           tol=1e-10)
        assert v == pytest.approx(math.log(2.0) / math.sin(y) ** (2 / 3),
                                  rel=1e-9)


def test_leaf_length_rejects_vertical_leaves():
    with pytest.raises(NotHorizontal):
        leaf_length(neg_q0(), arc_foliation(), (0.5, 1.0))
    with pytest.raises(NotHorizontal):
        check_horizontal(q0(), radius_foliation(), [0.5], [1.0])


# ---------------------------------------------------------------------------
# lambda field

def test_lambda_shear_is_one():
    lam = lambda_field_array(QuadDiff.from_string("1"), shear_foliation(),
                             {"s": 0.3, "p1": 0.4, "p2": 0.5})
    assert lam == pytest.approx(1.0)


def test_lambda_arc_constant_in_s():
    fol, q = arc_foliation(), q0()
    svals = np.linspace(0.05, math.pi - 0.05, 120)
    lam = lambda_field_array(q, fol, {"s": svals, "p1": 0.7, "p2": 1.3})
    # chart orientation makes the constant -1 here
    assert np.abs(lam + 1.0).max() < 1e-12
    assert (lam.max() - lam.min()) / abs(lam.mean()) < 1e-12


def test_lambda_radius_constant_in_s():
    fol, q = radius_foliation(), neg_q0()
    svals = np.linspace(0.05, LOG_R - 0.05, 120)
    for y in (0.3, 1.0, 2.6):
        lam = lambda_field_array(q, fol, {"s": svals, "p1": y, "p2": 0.4})
        assert np.abs(lam - 1.0).max() < 1e-12


def test_lambda_rejects_vertical():
    with pytest.raises(NegativeQ):
        lambda_field_array(neg_q0(), arc_foliation(),
                           {"s": 0.5, "p1": 0.5, "p2": 1.0})


def test_length_element_identity():
    # (|q|^2 o Phi) * J = sqrt(|q| o Phi) * |d_s Phi1| * lambda,
    # the bridge between the volume form and the line element
    for fol, q in ((arc_foliation(), q0()),
                   (radius_foliation(), neg_q0())):
        g = fol.grid(5)
        qc = fol.compose(q.coeff)
        qv = E.eval_array(qc, g)
        jac = E.eval_array(fol.jac_a_expr, g).real
        speed = np.abs(E.eval_array(fol.d_s1, g))
        lam = lambda_field_array(q, fol, g)
        lhs = np.abs(qv) ** 2 * jac
        rhs = np.sqrt(np.abs(qv)) * speed * lam
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(lhs).max()


# ---------------------------------------------------------------------------
# tracer

def test_trace_constant_q_is_straight():
    path = trace_trajectory(QuadDiff.from_string("1"), HPoint(0j, 0.0),
                            max_length=2.0)
    assert isinstance(path, LegendrianPath)
    assert path.stop_reason == "max_length"
    end = path.samples[-1]
    assert end[0] == pytest.approx(2.0)
    assert end[1].z == pytest.approx(2.0 + 0j, abs=1e-12)
    assert end[1].t == pytest.approx(0.0, abs=1e-12)


def test_trace_orientation_reverses():
    path = trace_trajectory(QuadDiff.from_string("1"), HPoint(0j, 0.0),
                            orientation=-1, max_length=1.0)
    assert path.samples[-1][1].z == pytest.approx(-1.0 + 0j, abs=1e-12)


def test_trace_samples_are_legendrian_and_unit_speed():
    q = q0()
    fol = arc_foliation()
    b = {"s": math.pi / 2, "p1": 0.5, "p2": 1.0}
    start = HPoint(E.evaluate(fol.phi1, b), E.evaluate(fol.phi2, b).real)
    path = trace_trajectory(q, start, rk_tol=1e-9, max_length=1.0)
    for s, p, v in path.samples:
        assert abs(legendrian_residual(p.z, v)) < 1e-12
        qv = E.evaluate(q.coeff, {"z": p.z, "zb": p.z.conjugate(),
                                  "t": p.t})
        assert abs(qv * v.dz ** 2 - 1.0) < 1e-8


def arc_closed_form(x, theta):
    phi1 = E.parse("sqrt(exp(p1)*sin(s)) * exp(i*(p2 + s/2))")
    phi2 = E.parse("exp(p1)*cos(s)")

    def at(s):
        b = {"s": s, "p1": x, "p2": theta}
        return HPoint(E.evaluate(phi1, b), E.evaluate(phi2, b).real)
    return at


def test_trace_matches_closed_form_arc():
    q = q0()
    x, theta, s_start = 0.5, 1.0, math.pi / 2
    start = arc_closed_form(x, theta)(s_start)
    path = trace_trajectory(q, start, rk_tol=1e-9, max_length=1.2)

    def sigma(s):
        # q-arc-length along the closed-form arc from s_start
        val, _ = quad(lambda u: 0.5 * math.sin(u) ** (-2 / 3), s_start, s,
                      epsabs=1e-13, epsrel=1e-13)
        return val

    # the tracer picks one of the two unit-speed directions; detect it
    p1 = path.samples[1][1]
    sgn = 1.0 if abs(p1.t) < abs(start.t) else -1.0
    at = arc_closed_form(x, theta)
    worst = 0.0
    for sig, p, _ in path.samples:
        target = sgn * sig
        s = brentq(lambda u: sigma(u) - target, 0.05, math.pi - 0.05,
                   xtol=1e-14)
        ref = at(s)
        worst = max(worst, abs(p.z - ref.z), abs(p.t - ref.t))
    assert worst < 1e-6


def test_trace_zero_of_q_at_start():
    with pytest.raises(ZeroOfQ):
        trace_trajectory(QuadDiff.from_string("z"), HPoint(0j, 0.0))


def test_trace_start_outside_domain():
    with pytest.raises(LeftDomain):
        trace_trajectory(QuadDiff.from_string("1"), HPoint(5 + 0j, 0.0),
                         domain=lambda p: abs(p.z) < 1.0)


def test_trace_stops_at_domain_boundary():
    path = trace_trajectory(QuadDiff.from_string("1"), HPoint(0j, 0.0),
                            max_length=5.0,
                            domain=lambda p: p.z.real < 0.5)
    assert path.stop_reason == "domain"
    assert path.samples[-1][1].z.real <= 0.5
    assert path.samples[-1][1].z.real > 0.49


def test_trace_stops_at_zero_of_q():
    # q = z from z = 1: one orientation walks into the zero at the origin.
    # The unit-q-speed field blows up like |z|^{-1/2} there, so give the
    # stop detector a usable floor instead of the 1e-12 default.
    q = QuadDiff.from_string("z")
    for orientation in (1, -1):
        path = trace_trajectory(q, HPoint(1.0 + 0j, 0.0),
                                orientation=orientation, max_length=3.0,
                                q_floor=1e-3)
        if path.stop_reason == "zero_of_q":
            assert abs(path.samples[-1][1].z) < 0.05
            break
    else:
        pytest.fail("neither orientation reached the zero")


def test_trace_step_budget():
    with pytest.raises(StepFailure):
        trace_trajectory(QuadDiff.from_string("1"), HPoint(0j, 0.0),
                         max_length=10.0, max_steps=3)
