"""Modulus pipeline oracles: closed-form moduli, leaf-length field modes,
volume scaling, density admissibility, and extremality probes.

The annulus charts have closed-form answers built from
C = (1/2) int_0^pi sin^(-2/3), so every heavy computation below is pinned
against an independent constant (scipy's QAGS, or plain arithmetic for
the shear family, never this package's own quadrature).
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from heismod import expr as E
from heismod.errors import (
    ConstantLengthViolated,
    InversionFailure,
    KernelResidualHigh,
    NonAdmissibleAfterRenormalization,
    VariableMismatch,
    ZeroLeafLength,
)
from heismod import modulus
from heismod.foliation import Foliation
from heismod.modulus import (
    Density,
    LeafLengthField,
    ModulusReport,
    admissibility_check,
    density_energies,
    density_energy,
    extremal_density,
    modulus_constant_length,
    modulus_m4,
    perturbation_probe,
    perturbed_density,
    q_volume,
)
from heismod.planar import PlanarFoliation, PlanarQD, modulus_m2
from heismod.qdiff import QuadDiff
from heismod.quadrature import integrate_batch
from heismod.scenarios import list_scenarios, load_scenario

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
    # which puts the field in exact mode
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
    f = LeafLengthField(q_one(), varying_foliation())
    assert f.mode == "exact"
    p1 = np.linspace(0.2, 2.9, 11)
    v, e = f.eval(p1, np.full(11, 0.5))
    want = 2.0 * (1 + 0.3 * np.sin(p1))
    assert np.max(np.abs(v - want) / want) < 1e-9
    assert (e > 0).all()


def test_field_interpolated_falls_back_outside_hull():
    f = LeafLengthField(q_one(), varying_foliation())
    assert f.mode == "exact"
    # 1e-4 into the box is outside the inset sampling grid
    v, _ = f.eval(np.array([1e-4]), np.array([0.5]))
    assert v[0] == pytest.approx(2.0 * (1 + 0.3 * math.sin(1e-4)), rel=1e-9)


def test_field_collapses_dead_axis_and_counts_each_leaf_once():
    # p2 only rotates the leaves of the vertical annulus chart, so the
    # leaf speed is dead along it and a query's pairs that share p1 share
    # one leaf integral
    f = LeafLengthField(neg_q0(), radius_foliation())
    ps = (np.full(3, 0.7), np.array([0.5, 4.0, 0.5]))
    first = f.exact(*ps)
    for a in first:
        assert a[0].tobytes() == a[1].tobytes() == a[2].tobytes()
    again = f.exact(*ps)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    # the field's own 9-leaf grid along p1 (at the grid's first p2),
    # computed first, then the one new leaf: its six queries count once.
    # A twin field reproduces the grid's bits without touching f.
    inset = 1e-3 * (2 * math.pi)
    axis = np.linspace(1e-3 * math.pi, math.pi - 1e-3 * math.pi, 9)
    twin = LeafLengthField(neg_q0(), radius_foliation())
    grid, _ = twin.exact(axis, np.full(9, inset))
    leaves = np.append(grid, first[0][0])
    assert f.stats() == (leaves.min(), leaves.max(), leaves.mean())


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


def test_converged_leaves_retire_so_a_loose_tol_costs_less(monkeypatch):
    # mass column-points (nodes x pairs) of one modulus_m4: 2,780,127 when
    # every leaf of a batch ran on every node of the shared s-mesh.  With
    # the polar Jacobian no leaf refines evaluation noise, so tol does not
    # set this family's cost
    scn = load_scenario("annulus-vertical")
    real, points = modulus._mass_cols_fn, [0]

    def spy_mass(q, fol):
        cols = real(q, fol)

        def counted(x, *pc):
            points[0] += x.size * pc[0].size
            return cols(x, *pc)
        return counted

    monkeypatch.setattr(modulus, "_mass_cols_fn", spy_mass)
    rep = modulus_m4(scn.q, scn.foliation, tol=1e-8)
    assert rep.modulus == 29.636257682862016
    assert rep.meta["s_points"] <= points[0] <= 2_780_127 // 10

    # where tol does set the refinement, a loose tol costs less: sharp
    # peaks 1/((x - c)^2 + w) beside smooth columns that retire early
    c = np.array([0.23, 0.41, 0.67, 0.88])
    w = np.array([1e-6, 1e-5, 1e-4, 1e-3])
    k = np.array([0.5, 1.5])

    def cols(x, live):
        x = x[:, None]
        return np.hstack((1.0 / ((x - c) ** 2 + w), np.exp(k * x)))[:, live]

    exact = np.concatenate((
        (np.arctan((1 - c) / np.sqrt(w)) + np.arctan(c / np.sqrt(w)))
        / np.sqrt(w), np.expm1(k) / k))
    cost = {}
    for rtol in (1e-10, 1e-6):
        res = integrate_batch(cols, 0.0, 1.0, atol=0.0, rtol=rtol,
                              singular=(False, False))
        assert (np.abs(res.value - exact) <= res.error).all()
        assert res.n_points < res.n_evals * exact.size
        cost[rtol] = res.n_points
    assert cost[1e-6] < cost[1e-10]


def test_s_stage_maps_live_columns_to_their_pairs_and_channels():
    # channel-major columns [e^(px) ..., peak at p ...] of three pairs; the
    # middle peak is wide, so only the narrow peaks of pairs 0 and 2 stay
    # live: columns 3 and 5, channel 1 of pairs 0 and 2
    p, width = np.array([0.3, 0.5, 0.7]), np.array([1e-4, 1.0, 1e-4])
    asked = []

    def cols_fn(x, pc):
        asked.append(pc.tolist())
        w = width[np.searchsorted(p, pc)]
        return np.hstack((np.exp(x[:, None] * pc),
                          1.0 / ((x[:, None] - pc) ** 2 + w)))

    counter = {}
    vals, errs = modulus._s_batched(
        SimpleNamespace(s_range=(0.0, 1.0)), cols_fn, (p,), rtol=1e-10,
        atol=1e-12, counter=counter, singular=(False, False), chans=2)
    assert asked[0] == p.tolist() and len(asked) > 2
    assert all(a == [0.3, 0.7] for a in asked[1:])
    r = np.sqrt(width)
    exact = np.column_stack((np.expm1(p) / p,
                             (np.arctan((1 - p) / r) + np.arctan(p / r)) / r))
    assert (np.abs(vals - exact) <= errs).all()
    assert counter["s_points"] < 6 * counter["s_evals"]


def test_m4_gate_rejects_non_kernel_differential():
    q = QuadDiff.from_string("1 + z*conj(z)")
    with pytest.raises(KernelResidualHigh):
        modulus_m4(q, shear_foliation())
    with pytest.warns(UserWarning):
        rep = modulus_m4(q, shear_foliation(), override_b2_check=True,
                         tol=1e-7)
    assert rep.modulus > 0
    assert rep.residual_stats > 1e-8


def test_m4_gate_rejects_collapsed_chart():
    # Phi = (s + i p1, 2 p1 s) ignores p2: legendrian, horizontal for
    # q = 1, but its leaves sweep no volume
    fol = Foliation.from_strings("s + i*p1", "2*p1*s", (0.0, 1.0),
                                 ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(InversionFailure):
        modulus_m4(q_one(), fol)


def test_constant_length_gate_rejects_collapsed_chart():
    # the shortcut route shares modulus_m4's entry gates
    fol = Foliation.from_strings("s + i*p1", "2*p1*s", (0.0, 1.0),
                                 ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(InversionFailure):
        modulus_constant_length(q_one(), fol)


# ---------------------------------------------------------------------------
# metamorphic invariance under the conformal maps of the group
#
# Each map F moves the family to the chart F o Phi and the differential
# to its pushforward q' with q'(F) (dF)^2 = q, so the leaves stay
# horizontal with the same q-lengths and M4 cannot change.

Z, ZB, T = E.parse("z"), E.parse("zb"), E.parse("t")


def _moved(q, fol, pull, factor, phi1, phi2):
    """(factor * q o pull, chart (phi1, phi2) on fol's parameter box)."""
    coeff = E.mul(E.const(factor), E.substitute(q.coeff, pull))
    return QuadDiff(coeff), Foliation(phi1, phi2, fol.s_range, fol.p_box)


def dilated(q, fol, r=1.7):
    # q' = r^-2 q o delta_{1/r} on the chart delta_r o Phi
    pull = {"z": E.mul(E.const(1 / r), Z), "zb": E.mul(E.const(1 / r), ZB),
            "t": E.mul(E.const(r ** -2), T)}
    return _moved(q, fol, pull, r ** -2, E.mul(E.const(r), fol.phi1),
                  E.mul(E.const(r * r), fol.phi2))


def rotated(q, fol, theta=0.7):
    # q' = e^(-2 i theta) q o R_{-theta} on the chart R_theta o Phi
    u = complex(math.cos(theta), math.sin(theta))
    pull = {"z": E.mul(E.const(u.conjugate()), Z), "zb": E.mul(E.const(u), ZB)}
    return _moved(q, fol, pull, u.conjugate() ** 2,
                  E.mul(E.const(u), fol.phi1), fol.phi2)


def translated(q, fol, w=0.3 - 0.4j, tau=0.25):
    # chart L_g o Phi for g = (w, tau), with the twist of heis.group_mul:
    # t' = tau + t + 2 Im(w conj(z)); q' = q o L_g^-1
    def twist(z):
        return E.mul(E.const(2.0),
                     E.im_part(E.mul(E.const(w), E.conj_expr(z))))

    pull = {"z": E.sub(Z, E.const(w)), "zb": E.sub(ZB, E.const(w.conjugate())),
            "t": E.sub(E.sub(T, E.const(tau)), twist(Z))}
    return _moved(q, fol, pull, 1.0, E.add(E.const(w), fol.phi1),
                  E.add(E.add(E.const(tau), fol.phi2), twist(fol.phi1)))


@pytest.mark.parametrize("move", [dilated, rotated, translated])
@pytest.mark.parametrize("name", ["annulus-horizontal", "shear"])
def test_m4_invariant_under_conformal_maps(name, move):
    scn = load_scenario(name)
    base = modulus_m4(scn.q, scn.foliation)
    rep = modulus_m4(*move(scn.q, scn.foliation))
    assert abs(rep.modulus - base.modulus) <= \
        rep.error_estimate + base.error_estimate


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


def test_weighted_leaf_lengths_repeat_bit_for_bit():
    rho = replace(extremal_density(neg_q0(), radius_foliation()),
                  modifier=E.parse("cos(p1)*sin(s)"), eps=0.1)
    ps = (np.array([0.4, 1.1, 2.2, 1.1]), np.array([0.3, 0.3, 5.0, 2.0]))
    lengths = rho.leaf_lengths()
    first = lengths(*ps)
    again = lengths(*ps)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    fresh = rho.leaf_lengths()(*ps)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, fresh))
    # the dead p2 axis collapses: equal p1 gives equal bits
    assert first[0][1] == first[0][3]


def test_unweighted_leaf_lengths_are_the_field():
    rho = extremal_density(neg_q0(), radius_foliation())
    assert rho.leaf_lengths() == rho.length_field.eval
    assert replace(rho, modifier=E.parse("sin(s)")).leaf_lengths() == \
        rho.length_field.eval


def collapsed_weight():
    # w = 1 - 1 vanishes everywhere, so no leaf has a weighted length
    return replace(extremal_density(q_one(), shear_foliation()),
                   modifier=E.parse("1"), eps=-1.0)


def test_density_energy_refuses_collapsed_weight():
    with pytest.raises(NonAdmissibleAfterRenormalization):
        density_energy(collapsed_weight(), tol=1e-7)


def test_admissibility_refuses_collapsed_weight():
    with pytest.raises(NonAdmissibleAfterRenormalization):
        admissibility_check(collapsed_weight(), leaf_sample_count=9)


def test_pullback_refuses_collapsed_weight():
    with pytest.raises(NonAdmissibleAfterRenormalization):
        collapsed_weight().pullback(np.array([0.5]), np.array([0.2]),
                                    np.array([0.3]))


def test_admissibility_integrates_weighted_columns_once(monkeypatch):
    rho = replace(extremal_density(q0(), arc_foliation()),
                  modifier=E.parse("cos(s) + p1"), eps=0.2)
    calls = []
    real = modulus._s_batched

    def counted(*args, **kwargs):
        calls.append(kwargs["chans"])
        return real(*args, **kwargs)
    monkeypatch.setattr(modulus, "_s_batched", counted)
    _, table = admissibility_check(rho, leaf_sample_count=9)
    # the numerator is L_w itself: one batch, and every ratio exactly 1
    assert calls == [1]
    assert (table[:, 2] == 1.0).all()


def test_perturbed_density_is_admissible():
    rho = replace(extremal_density(q0(), arc_foliation()),
                  modifier=E.parse("cos(s) + p1"), eps=0.2)
    mn, table = admissibility_check(rho, leaf_sample_count=9)
    assert np.allclose(table[:, 2], 1.0, rtol=1e-12)


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


def test_density_energy_matches_modulus():
    for q, fol, want in (
            (q_one(), shear_foliation(), 0.125),
            (q0(), arc_foliation(), M4_ARC)):
        rho = extremal_density(q, fol)
        assert density_energy(rho, tol=1e-7) == pytest.approx(
            want, rel=1e-6)


MODULUS_BUILTINS = [n for n in list_scenarios()
                    if "modulus" in load_scenario(n).expected]


@pytest.mark.parametrize("name", MODULUS_BUILTINS)
def test_extremal_energy_is_the_modulus_bit_for_bit(name):
    # the extremal energy and the modulus are one ratio integral with one
    # set of leaf lengths, so they agree to the last bit
    scn = load_scenario(name)
    q, fol = scn.q, scn.foliation
    modulus = modulus_m4 if scn.space == "heisenberg" else modulus_m2
    want = modulus(q, fol, tol=1e-8).modulus
    assert density_energy(extremal_density(q, fol), tol=1e-8) == want


def plane_rectangle():
    return (PlanarQD.from_string("1"),
            PlanarFoliation.from_strings("s + i*p", (0.0, 2.0), (0.0, 1.0)))


def plane_radial():
    return (PlanarQD.from_string("1/w^2"),
            PlanarFoliation.from_strings("s*exp(i*p)", (1.0, 2.0),
                                         (0.0, 2 * math.pi)))


@pytest.mark.parametrize("family, want", [
    (plane_rectangle, 0.5), (plane_radial, 2 * math.pi / LOG_R)])
def test_planar_density_energy_matches_m2(family, want):
    q, fol = family()
    energy = density_energy(extremal_density(q, fol), tol=1e-9)
    assert energy == pytest.approx(want, rel=1e-8)


def test_planar_admissibility_exactly_one():
    q, fol = plane_radial()
    mn, table = admissibility_check(extremal_density(q, fol),
                                    leaf_sample_count=16)
    assert mn == pytest.approx(1.0, rel=1e-10)
    assert table.shape == (16, 3)
    assert np.allclose(table[:, 1], 1.0, rtol=1e-10)


def test_planar_density_modifier_binds_chart_variables():
    q, fol = plane_rectangle()
    rho = extremal_density(q, fol)
    with pytest.raises(VariableMismatch):
        Density(q, fol, rho.length_field, modifier=E.parse("s + p1"))
    energy = perturbation_probe(rho, "sin(s) + p", 0.1, tol=1e-8)
    assert energy > 0.5 * (1 + 1e-6)


# ---------------------------------------------------------------------------
# perturbation probes

def test_probe_identity_perturbation_reproduces_modulus():
    q, fol = q0(), arc_foliation()
    ref = modulus_m4(q, fol, tol=1e-7).modulus
    energy = perturbation_probe(extremal_density(q, fol), "cos(s)", 0.0,
                                tol=1e-7)
    assert energy == pytest.approx(ref, rel=1e-6)


def test_probe_strict_excess_for_real_perturbation():
    q, fol = q0(), arc_foliation()
    ref = modulus_m4(q, fol, tol=1e-7).modulus
    energy = perturbation_probe(extremal_density(q, fol), "cos(s)", 0.1,
                                tol=1e-7)
    assert energy > ref * (1 + 1e-6)


def test_probe_random_perturbations_never_beat_extremal():
    rng = np.random.default_rng(42)
    fol = arc_foliation()
    q = q0()
    rho = extremal_density(q, fol)
    ref = modulus_m4(q, fol, tol=1e-7).modulus
    for _ in range(3):
        c0, c1, c2 = rng.uniform(-0.5, 0.5, 3)
        cs = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        g = f"{c0:.6f} + {cs:.6f}*sin(s) + {c1:.6f}*p1 + {c2:.6f}*cos(p2)"
        energy = perturbation_probe(rho, g, 0.15, tol=1e-7)
        assert energy >= ref * (1 - 1e-9)


def arc_batch():
    rho = extremal_density(q0(), arc_foliation())
    return [rho, perturbed_density(rho, "cos(s) + p1", 0.1),
            perturbed_density(rho, "0.3 - sin(s) + 0.2*cos(p2)", -0.2)]


def test_batched_energies_are_one_integral_within_each_estimate(
        monkeypatch):
    rhos = arc_batch()
    p_stages, mass_batches, stacked_batches = [], [], []
    real_p, real_mass = modulus._nested_p_integral, modulus._mass_cols_fn
    real_weighted = modulus._weighted_cols

    def spy_p(*args, **kwargs):
        out = real_p(*args, **kwargs)
        p_stages.append(out)
        return out

    def spy_mass(q, fol):
        cols = real_mass(q, fol)

        def counted(x, *pc):
            mass_batches.append(pc[0].size)
            return cols(x, *pc)
        counted.is_mass = True
        return counted

    def spy_weighted(base, rhos, n):
        cols = real_weighted(base, rhos, n)
        if not getattr(base, "is_mass", False):
            return cols

        def counted(x, *pc):
            out = cols(x, *pc)
            stacked_batches.append(out.shape[1] // pc[0].size)
            return out
        return counted

    monkeypatch.setattr(modulus, "_nested_p_integral", spy_p)
    monkeypatch.setattr(modulus, "_mass_cols_fn", spy_mass)
    monkeypatch.setattr(modulus, "_weighted_cols", spy_weighted)
    energies = density_energies(rhos, tol=1e-6)
    # one p-stage over the 2k channels [g_k/L_k^4 ..., g_k ...]
    assert len(p_stages) == 1
    vals, errs = p_stages[0]
    assert vals.shape == (6,) and list(vals[:3]) == energies
    # the mass expression runs once per s-node batch, shared by 3 channels
    assert len(mass_batches) == len(stacked_batches) > 0
    assert set(stacked_batches) == {3}
    monkeypatch.undo()

    for rho, energy, err in zip(rhos, energies, errs[:3]):
        alone = density_energy(rho, tol=1e-6)
        assert abs(energy - alone) <= err
    assert energies[0] < min(energies[1:])


def test_batched_energies_refuse_a_collapsed_channel():
    rhos = arc_batch()
    rhos.insert(1, replace(rhos[0], modifier=E.parse("1"), eps=-1.0))
    with pytest.raises(NonAdmissibleAfterRenormalization):
        density_energies(rhos, tol=1e-6)


def test_batched_energies_need_one_family():
    rho = extremal_density(q_one(), shear_foliation())
    other = extremal_density(q_one(), shear_foliation())
    with pytest.raises(ValueError):
        density_energies([rho, other])


def test_probe_rejects_complex_modifier():
    rho = extremal_density(q_one(), shear_foliation())
    with pytest.raises(ValueError):
        perturbation_probe(rho, "i*s", 0.1)


def test_probe_rejects_sign_breaking_modifier():
    rho = extremal_density(q_one(), shear_foliation())
    with pytest.raises(ValueError):
        perturbation_probe(rho, "-3*cos(s)", 0.5)
