"""Modulus pipeline oracles: closed-form moduli, leaf-length field modes,
volume scaling, density admissibility, and extremality probes.

The annulus charts have closed-form answers built from
C = (1/2) int_0^pi sin^(-2/3), so every heavy computation below is pinned
against an independent constant (scipy's QAGS, or plain arithmetic for
the shear family, never this package's own quadrature).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from heismod import expr as E
from heismod.errors import (
    ConstantLengthViolated,
    KernelResidualHigh,
    NonAdmissibleAfterRenormalization,
    ZeroLeafLength,
)
from heismod.foliation import Foliation
from heismod.modulus import (
    Density,
    LeafLengthField,
    ModulusReport,
    admissibility_check,
    density_energy,
    extremal_density,
    modulus_constant_length,
    modulus_m4,
    perturbation_probe,
    q_volume,
)
from heismod.planar import PlanarFoliation, PlanarQD, modulus_m2
from heismod.qdiff import QuadDiff

LOG_R = math.log(2.0)
Q0_TEXT = ("conj(z)^2 * (t^2 + (z*conj(z))^2)^(2/3)"
           " / ((z*conj(z))^(4/3) * (t + i*z*conj(z))^2)")

# C = (1/2) int_0^pi sin^(-2/3); QAGS agrees with the Gamma-function
# closed form sqrt(pi) Gamma(1/6) / (2 Gamma(2/3)) to 13 digits
C_REF = math.sqrt(math.pi) * math.gamma(1 / 6) / (2 * math.gamma(2 / 3))
C_QAGS = 0.5 * quad(lambda u: math.sin(u) ** (-2 / 3), 0.0, math.pi,
                    limit=200)[0]

M4_ARC = 4 * math.pi * LOG_R / C_REF ** 3          # 0.18016333182553776
M4_RADIUS = math.pi ** 2 / LOG_R ** 3              # 29.636257682862013
VOL_ANNULUS = 4 * math.pi * C_REF * LOG_R          # 31.731575214280976


def arc_foliation(r=2.0):
    return Foliation.from_strings(
        "sqrt(exp(p1)*sin(s)) * exp(i*(p2 + s/2))", "exp(p1)*cos(s)",
        (0.0, math.pi), ((0.0, 2 * math.log(r)), (0.0, 2 * math.pi)))


def radius_foliation(r=2.0):
    return Foliation.from_strings(
        "sqrt(exp(s)*sin(p1)) * exp(i*(p2 - (s/2)*cos(p1)/sin(p1)))",
        "exp(s)*cos(p1)",
        (0.0, 2 * math.log(r)), ((0.0, math.pi), (0.0, 2 * math.pi)))


def shear_foliation(a=2.0):
    return Foliation.from_strings("s + i*p1", "p2 + 2*p1*s",
                                  (0.0, a), ((0.0, 1.0), (0.0, 1.0)))


def varying_foliation(a=2.0):
    # leaves z = s(1 + 0.3 sin p1) + i p1; lengths vary along p1 only,
    # which forces the interpolated field mode
    return Foliation.from_strings(
        "s*(1 + 0.3*sin(p1)) + i*p1",
        "p2 + 2*p1*s*(1 + 0.3*sin(p1))",
        (0.0, a), ((0.0, math.pi), (0.0, 1.0)))


def q0():
    return QuadDiff.from_string(Q0_TEXT)


def neg_q0():
    return QuadDiff(E.neg(E.parse(Q0_TEXT)))


def q_one(c=1.0):
    return QuadDiff.from_string(repr(float(c)))


# ---------------------------------------------------------------------------
# report invariants

def test_report_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        ModulusReport(0.0, 1e-10, (1, 1, 1), None, 0.0, {})
    with pytest.raises(ValueError):
        ModulusReport(1.0, -1e-3, (1, 1, 1), None, 0.0, {})


def test_oracle_constant_agreement():
    assert abs(C_QAGS - C_REF) < 1e-12 * C_REF


# ---------------------------------------------------------------------------
# leaf-length field modes

def test_field_constant_on_shear():
    f = LeafLengthField(q_one(), shear_foliation())
    assert f.mode == "constant"
    assert f.value == pytest.approx(2.0, rel=1e-12)
    v, e = f.eval(np.array([0.3]), np.array([0.7]))
    assert v[0] == pytest.approx(2.0, rel=1e-12)
    assert e[0] >= 0.0


def test_field_constant_on_arc_chart():
    f = LeafLengthField(q0(), arc_foliation())
    assert f.mode == "constant"
    assert f.value == pytest.approx(C_REF, rel=1e-9)


def test_field_exact_on_radius_chart():
    f = LeafLengthField(neg_q0(), radius_foliation())
    assert f.mode == "exact"
    p1 = np.array([0.4, 1.1, 2.2, math.pi / 2])
    v, e = f.eval(p1, np.full(4, 2.0))
    want = LOG_R / np.sin(p1) ** (2 / 3)
    assert np.max(np.abs(v - want) / want) < 1e-8
    lo, hi, mean = f.stats()
    assert lo <= v.min() and hi >= v.max()


def test_field_interpolated_on_varying_chart():
    f = LeafLengthField(q_one(), varying_foliation(), rtol=1e-5)
    assert f.mode == "interpolated"
    p1 = np.linspace(0.2, 2.9, 11)
    v, e = f.eval(p1, np.full(11, 0.5))
    want = 2.0 * (1 + 0.3 * np.sin(p1))
    assert np.max(np.abs(v - want) / want) < 1e-5
    assert (e > 0).all()


def test_field_interpolated_falls_back_outside_hull():
    f = LeafLengthField(q_one(), varying_foliation(), rtol=1e-5)
    # 1e-4 into the box is outside the inset interpolation grid
    v, _ = f.eval(np.array([1e-4]), np.array([0.5]))
    assert v[0] == pytest.approx(2.0 * (1 + 0.3 * math.sin(1e-4)), rel=1e-9)


def test_field_zero_q_raises():
    with pytest.raises(ZeroLeafLength):
        LeafLengthField(QuadDiff.from_string("0"), shear_foliation())


# ---------------------------------------------------------------------------
# q-volume

def test_q_volume_shear_box():
    # int |q|^2 |J| = a * b1 * b2 with |J| = 1
    assert q_volume(q_one(), shear_foliation()) == pytest.approx(
        2.0, rel=1e-12)


def test_q_volume_zero_differential():
    assert q_volume(QuadDiff.from_string("0"), shear_foliation()) == 0.0


def test_q_volume_annulus_both_charts():
    va = q_volume(q0(), arc_foliation())
    vr = q_volume(neg_q0(), radius_foliation())
    assert va == pytest.approx(VOL_ANNULUS, rel=1e-8)
    assert vr == pytest.approx(VOL_ANNULUS, rel=1e-8)
    assert va == pytest.approx(vr, rel=1e-8)


def test_q_volume_scales_quadratically():
    base = q_volume(q_one(), shear_foliation())
    for c in (0.5, 3.0):
        got = q_volume(q_one(c), shear_foliation())
        assert got == pytest.approx(c ** 2 * base, rel=1e-10)


# ---------------------------------------------------------------------------
# modulus_m4

def test_m4_shear_closed_form():
    # M4 = b1 b2 / a^3 for the straight family of length a
    rep = modulus_m4(q_one(), shear_foliation(), tol=1e-9)
    assert rep.modulus == pytest.approx(0.125, rel=1e-9)
    assert rep.error_estimate < 1e-9
    assert rep.consistency_gap is not None and rep.consistency_gap < 1e-12
    assert rep.residual_stats < 1e-12
    assert rep.meta["field_mode"] == "constant"
    lo, hi, mean = rep.leaf_length_stats
    assert lo == pytest.approx(2.0, rel=1e-10)
    assert hi == pytest.approx(2.0, rel=1e-10)


def test_m4_arc_family():
    rep = modulus_m4(q0(), arc_foliation(), tol=1e-8)
    assert rep.modulus == pytest.approx(M4_ARC, rel=1e-7)
    assert rep.meta["q_volume"] == pytest.approx(VOL_ANNULUS, rel=1e-7)
    assert rep.consistency_gap < 1e-8


def test_m4_radius_family():
    rep = modulus_m4(neg_q0(), radius_foliation(), tol=1e-8)
    assert rep.modulus == pytest.approx(M4_RADIUS, rel=1e-7)
    assert rep.consistency_gap is None  # lengths genuinely vary
    assert rep.meta["field_mode"] == "exact"
    assert rep.meta["q_volume"] == pytest.approx(VOL_ANNULUS, rel=1e-7)


def test_m4_varying_chart_interpolated_field():
    # M4 = a^-3 int_0^pi (1 + 0.3 sin u)^-3 du * (p2 width)
    oracle = quad(lambda u: (1 + 0.3 * math.sin(u)) ** -3, 0.0, math.pi,
                  limit=200)[0] / 8.0
    rep = modulus_m4(q_one(), varying_foliation(), tol=1e-6)
    assert rep.meta["field_mode"] in ("interpolated", "exact")
    assert rep.modulus == pytest.approx(oracle, rel=3e-6)


@pytest.mark.parametrize("family, tol, want", [
    ("rectangle", 1e-10, 0.5),
    ("radial", 1e-9, 2 * math.pi / LOG_R),
    ("circular", 1e-9, LOG_R / (2 * math.pi)),
    ("shear", 1e-8, 0.125),
])
def test_error_estimate_covers_closed_form(family, tol, want):
    # the reported error bounds the true error on both lanes of the
    # shared engine: the planar M2 oracles and the straight M4 family
    if family == "shear":
        rep = modulus_m4(q_one(), shear_foliation(), tol=tol)
    else:
        q, phi, s_range, p_range = {
            "rectangle": ("1", "s + i*p", (0.0, 2.0), (0.0, 1.0)),
            "radial": ("1/w^2", "s*exp(i*p)", (1.0, 2.0),
                       (0.0, 2 * math.pi)),
            "circular": ("-1/w^2", "p*exp(i*s)", (0.0, 2 * math.pi),
                         (1.0, 2.0)),
        }[family]
        rep = modulus_m2(PlanarQD.from_string(q),
                         PlanarFoliation.from_strings(phi, s_range, p_range),
                         tol=tol)
    assert abs(rep.modulus - want) <= rep.error_estimate


def test_shear_modulus_to_two_ulps():
    rep = modulus_m4(q_one(), shear_foliation(), tol=1e-8)
    assert abs(rep.modulus - 0.125) <= 2 * math.ulp(0.125)


def test_m4_invariant_under_positive_scaling():
    base = modulus_m4(q_one(), shear_foliation(), tol=1e-9)
    for c in (0.5, 2.0, 10.0):
        rep = modulus_m4(q_one(c), shear_foliation(), tol=1e-9)
        assert rep.modulus == pytest.approx(base.modulus, rel=1e-9)
        assert rep.leaf_length_stats[2] == pytest.approx(
            math.sqrt(c) * base.leaf_length_stats[2], rel=1e-9)


def test_m4_refinement_is_consistent():
    loose = modulus_m4(q0(), arc_foliation(), tol=1e-6)
    tight = modulus_m4(q0(), arc_foliation(), tol=5e-7)
    gap = abs(loose.modulus - tight.modulus)
    assert gap <= loose.error_estimate + tight.error_estimate + 1e-12


def test_m4_gate_rejects_non_kernel_differential():
    q = QuadDiff.from_string("1 + z*conj(z)")
    with pytest.raises(KernelResidualHigh):
        modulus_m4(q, shear_foliation())
    with pytest.warns(UserWarning):
        rep = modulus_m4(q, shear_foliation(), override_b2_check=True,
                         tol=1e-7)
    assert rep.modulus > 0
    assert rep.residual_stats > 1e-8


# ---------------------------------------------------------------------------
# constant-length shortcut (the Vol / l^4 route)

def test_constant_length_route_matches_shear():
    rep = modulus_constant_length(q_one(), shear_foliation(), tol=1e-9)
    assert rep.modulus == pytest.approx(0.125, rel=1e-9)
    assert rep.meta["common_length"] == pytest.approx(2.0, rel=1e-10)


def test_constant_length_route_matches_arc_m4():
    direct = modulus_m4(q0(), arc_foliation(), tol=1e-8)
    shortcut = modulus_constant_length(q0(), arc_foliation(), tol=1e-8)
    assert shortcut.modulus == pytest.approx(direct.modulus, rel=1e-7)
    assert shortcut.modulus == pytest.approx(M4_ARC, rel=1e-7)


def test_constant_length_route_refuses_radius_chart():
    with pytest.raises(ConstantLengthViolated):
        modulus_constant_length(neg_q0(), radius_foliation())


# ---------------------------------------------------------------------------
# densities

def test_extremal_density_shear_is_inverse_length():
    rho = extremal_density(q_one(), shear_foliation())
    v = rho.pullback(np.array([0.5, 1.5]), np.array([0.2, 0.8]),
                     np.array([0.1, 0.9]))
    assert np.allclose(v, 0.5, rtol=1e-10)


def test_extremal_density_arc_spot_values():
    fol = arc_foliation()
    rho = extremal_density(q0(), fol)
    s = np.array([0.6, 1.2])
    p1 = np.array([0.3, 0.9])
    p2 = np.array([1.0, 4.0])
    got = rho.pullback(s, p1, p2)
    # |q0 o Phi| = e^(-2 p1) / (2 sin s)^... the arc chart gives
    # sqrt|q0(Phi)| * |d_s Phi1| = (2 sin s)^(-1/3) e^... ; spot-check
    # against direct evaluation instead of a re-derivation
    qv = np.abs(E.eval_array(fol.compose(q0().coeff),
                             {"s": s, "p1": p1, "p2": p2}))
    assert np.allclose(got, np.sqrt(qv) / C_REF, rtol=1e-8)


def test_extremal_density_zero_q_raises():
    with pytest.raises(ZeroLeafLength):
        extremal_density(QuadDiff.from_string("0"), shear_foliation())


def test_admissibility_shear_exactly_one():
    rho = extremal_density(q_one(), shear_foliation())
    mn, table = admissibility_check(rho, leaf_sample_count=25)
    assert mn == pytest.approx(1.0, rel=1e-10)
    assert table.shape[1] == 4
    assert table.shape[0] >= 25


def test_admissibility_arc_chart():
    rho = extremal_density(q0(), arc_foliation())
    mn, table = admissibility_check(rho, leaf_sample_count=16)
    assert mn == pytest.approx(1.0, rel=1e-8)
    assert np.allclose(table[:, 2], 1.0, rtol=1e-8)


def test_admissibility_scales_linearly():
    rho = extremal_density(q_one(), shear_foliation()).scaled(0.5)
    mn, _ = admissibility_check(rho, leaf_sample_count=9)
    assert mn == pytest.approx(0.5, rel=1e-10)


def test_density_energy_matches_modulus():
    for q, fol, want in (
            (q_one(), shear_foliation(), 0.125),
            (q0(), arc_foliation(), M4_ARC)):
        rho = extremal_density(q, fol)
        assert density_energy(rho, fol, tol=1e-7) == pytest.approx(
            want, rel=1e-6)


def test_density_energy_zero_scale():
    rho = extremal_density(q_one(), shear_foliation()).scaled(0.0)
    assert density_energy(rho) == 0.0


def test_density_energy_rejects_foreign_foliation():
    rho = extremal_density(q_one(), shear_foliation())
    with pytest.raises(ValueError):
        density_energy(rho, arc_foliation())


# ---------------------------------------------------------------------------
# perturbation probes

def test_probe_identity_perturbation_reproduces_modulus():
    energy, ref = perturbation_probe(q0(), arc_foliation(), "cos(s)", 0.0,
                                     tol=1e-7)
    assert energy == pytest.approx(ref, rel=1e-6)


def test_probe_strict_excess_for_real_perturbation():
    energy, ref = perturbation_probe(q0(), arc_foliation(), "cos(s)", 0.1,
                                     tol=1e-7)
    assert energy > ref * (1 + 1e-6)


def test_probe_random_perturbations_never_beat_extremal():
    rng = np.random.default_rng(42)
    fol = arc_foliation()
    q = q0()
    for _ in range(3):
        c0, c1, c2 = rng.uniform(-0.5, 0.5, 3)
        cs = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        g = f"{c0:.6f} + {cs:.6f}*sin(s) + {c1:.6f}*p1 + {c2:.6f}*cos(p2)"
        energy, ref = perturbation_probe(q, fol, g, 0.15, tol=1e-7)
        assert energy >= ref * (1 - 1e-9)


def test_probe_rejects_complex_modifier():
    with pytest.raises(ValueError):
        perturbation_probe(q_one(), shear_foliation(), "i*s", 0.1)


def test_probe_rejects_sign_breaking_modifier():
    with pytest.raises(ValueError):
        perturbation_probe(q_one(), shear_foliation(), "-3*cos(s)", 0.5)
