"""Modulus pipeline oracles: closed-form moduli, leaf-length field modes,
volume scaling, density admissibility, and extremality probes.

The annulus charts have closed-form answers built from
C = (1/2) int_0^pi sin^(-2/3), so every heavy computation below is pinned
against an independent constant (scipy's QAGS, or plain arithmetic for
the shear family, never this package's own quadrature).
"""

import functools
import json
import math
from dataclasses import replace
from importlib import resources
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
from heismod.foliation import Foliation, lambda_field_array
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
from heismod.scenarios import (PERTURBATION_PROBES, list_scenarios,
                                load_scenario, run_scenario,
                                scenario_from_dict)

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
    v, e = extremal_density(q_one(), shear_foliation()).leaf_lengths()(
        np.array([0.3]), np.array([0.7]))
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
    v, e = extremal_density(neg_q0(), radius_foliation()).leaf_lengths()(
        p1, np.full(4, 2.0))
    want = LOG_R / np.sin(p1) ** (2 / 3)
    assert np.max(np.abs(v - want) / want) < 1e-8
    # the stats span the field's own grid leaves, inset 1e-3 of the box
    lo, hi, mean = f.stats()
    grid = LOG_R / np.sin(np.linspace(1e-3, 1 - 1e-3, 9) * math.pi) ** (2 / 3)
    assert lo == pytest.approx(grid.min(), rel=1e-8)
    assert hi == pytest.approx(grid.max(), rel=1e-8)


def test_field_interpolated_on_varying_chart():
    f = LeafLengthField(q_one(), varying_foliation())
    assert f.mode == "exact"
    p1 = np.linspace(0.2, 2.9, 11)
    v, e = extremal_density(q_one(), varying_foliation()).leaf_lengths()(
        p1, np.full(11, 0.5))
    want = 2.0 * (1 + 0.3 * np.sin(p1))
    assert np.max(np.abs(v - want) / want) < 1e-9
    assert (e > 0).all()


def test_field_interpolated_falls_back_outside_hull():
    f = LeafLengthField(q_one(), varying_foliation())
    assert f.mode == "exact"
    # 1e-4 into the box is outside the inset sampling grid
    v, _ = extremal_density(q_one(), varying_foliation()).leaf_lengths()(
        np.array([1e-4]), np.array([0.5]))
    assert v[0] == pytest.approx(2.0 * (1 + 0.3 * math.sin(1e-4)), rel=1e-9)


def test_field_collapses_dead_axis_and_counts_each_leaf_once():
    # p2 only rotates the leaves of the vertical annulus chart, so the
    # leaf speed is dead along it and a query's pairs that share p1 share
    # one leaf integral
    rho = extremal_density(neg_q0(), radius_foliation())
    lengths = rho.leaf_lengths()
    ps = (np.full(3, 0.7), np.array([0.5, 4.0, 0.5]))
    first = lengths(*ps)
    for a in first:
        assert a[0].tobytes() == a[1].tobytes() == a[2].tobytes()
    again = lengths(*ps)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    # the field's stats are its own 9-leaf grid along p1 (at the grid's
    # first p2), each leaf once; queries leave them alone.  The same
    # leaf integrals reproduce the grid's bits.
    f = rho.length_field
    inset = 1e-3 * (2 * math.pi)
    axis = np.linspace(1e-3 * math.pi, math.pi - 1e-3 * math.pi, 9)
    grid = modulus._leaf_integrals(
        radius_foliation(), neg_q0(), [(modulus.SPEED, None)], f.length_tol,
        None, atol=0.01 * f.length_tol)(axis, np.full(9, inset))[0][:, 0]
    assert f.stats() == (grid.min(), grid.max(), grid.mean())


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
    ("radius", 1e-8, M4_RADIUS),
])
def test_error_estimate_covers_closed_form(family, tol, want):
    # the reported error bounds the true error on both lanes of the
    # shared engine: the planar M2 oracles, the straight M4 family and
    # the vertical annulus, whose leaf lengths vary
    if family == "shear":
        rep = modulus_m4(q_one(), shear_foliation(), tol=tol)
    elif family == "radius":
        rep = modulus_m4(neg_q0(), radius_foliation(), tol=tol)
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
    real, points = modulus._columns, [0]

    def spy_mass(q, fol, chans):
        cols = real(q, fol, chans)
        if (modulus.MASS, None) not in chans:
            return cols

        def counted(x, *pc):    # the mass channel of each live pair
            points[0] += x.size * pc[0].size
            return cols(x, *pc)
        return counted

    monkeypatch.setattr(modulus, "_columns", spy_mass)
    rep = modulus_m4(scn.q, scn.foliation, tol=1e-8)
    assert rep.modulus == 29.636257682862016
    # s_points counts the mass and the length column of each live pair
    assert rep.meta["s_points"] <= 2 * points[0]
    assert points[0] <= 2_780_127 // 10

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


def test_unweighted_p_stages_keep_four_panels():
    # the radius chart's p1-axis carries endpoint ladders and its p2-axis
    # is dead, so a one-panel start saves no s-node there (360 either
    # way) while its q-volume estimate grows 84x (5.30e-10 -> 4.45e-8,
    # 1,020 -> 930 p-nodes): only weighted batches start from one panel
    scn = load_scenario("annulus-vertical")
    meta = modulus_m4(scn.q, scn.foliation, tol=1e-8).meta
    assert meta["p_evals"] == 1020
    assert meta["q_volume_error"] <= 6e-10


@pytest.mark.parametrize("name, dead", [("annulus-vertical", (False, True)),
                                        ("shear", (True, True))])
def test_a_dead_p_axis_is_asked_at_one_node(name, dead):
    # given the mass builder's dead axes, the p-stage asks it once per
    # live node, each call at one coordinate of a dead axis, probes no
    # edge of that axis, and keeps the bits of the full box
    scn = load_scenario(name)
    fol, runs = scn.foliation, []
    for collapse in (True, False):
        leaf = modulus._leaf_integrals(fol, scn.q, [(modulus.MASS, None)],
                                       1e-10, None)
        asked = []

        def pair_fn(*ps, leaf=leaf, asked=asked):
            asked.append(ps)
            return leaf(*ps)
        runs.append((modulus._nested_p_integral(
            fol, pair_fn, 1, rtol=5e-9, counter={},
            dep=leaf.dep if collapse else None), asked))
    assert tuple(not d for d in leaf.dep) == dead
    (got, asked), (want, full) = runs
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    for ps in asked:
        live = [p for p, d in zip(ps, dead) if not d]
        keys = np.unique(np.column_stack(live), axis=0) if live else ps[0][:1]
        assert len(keys) == ps[0].size
    for k, (lo, hi) in enumerate(fol.p_box):
        if dead[k]:
            assert all(np.ptp(ps[k]) == 0.0 for ps in asked)
            near = min(min(ps[k].min() - lo, hi - ps[k].max())
                       for ps in asked)
            # the full box's edge probes come within 1e-10 of the width
            assert near > 1e-4 * (hi - lo)
            assert min(min(ps[k].min() - lo, hi - ps[k].max())
                       for ps in full) < 1e-9 * (hi - lo)


def test_weighted_batches_keep_the_full_box(monkeypatch):
    # a weight runs on every pair, so its batch's p-stage gets no dead
    # axis; the modulus's unweighted batch gets its builder's
    deps, real = [], modulus._nested_p_integral

    def spy(*args, **kwargs):
        deps.append(kwargs["dep"])
        return real(*args, **kwargs)
    monkeypatch.setattr(modulus, "_nested_p_integral", spy)
    scn = load_scenario("annulus-vertical")
    modulus_m4(scn.q, scn.foliation, tol=1e-6)
    rho = extremal_density(scn.q, scn.foliation)
    for g in ("sin(s)", "cos(s + p1)"):     # on moments, on every pair
        density_energy(perturbed_density(rho, g, 0.1), tol=1e-6)
    assert deps == [(True, False), None, None]


@pytest.mark.parametrize("s_hi, mod, err", [
    (1.4229211513291788, 27.406099309788935, 2.1298817728224224e-12),
    (1.3569320082472058, 31.602065676552265, 2.455973865787766e-12)])
def test_annulus_vertical_off_the_built_in_radius_is_pinned(s_hi, mod, err):
    # two seeded radii of the benchmark's annulus-vertical workload: the
    # dead p2-axis collapses in the p-stage without moving a bit
    raw = json.loads(resources.files("heismod").joinpath(
        "data", "annulus-vertical.json").read_text())
    raw["foliation"]["s_range"] = [0.0, s_hi]
    rep = run_scenario(scenario_from_dict(raw)).modulus_report
    assert (rep.modulus, rep.error_estimate) == (mod, err)


@pytest.mark.parametrize("family", ["radius", "plane-radial"])
def test_varying_or_one_axis_lengths_share_the_mass_stage(family,
                                                          monkeypatch):
    # past the field's grid probe, a modulus whose leaf lengths vary (the
    # radius chart) or whose box has one axis integrates each leaf's mass
    # and length in one s-stage, and runs no length-only stage
    q, fol, modulus_fn = {
        "radius": (neg_q0(), radius_foliation(), modulus_m4),
        "plane-radial": (*plane_radial(), modulus_m2)}[family]
    evaluators, stages = [], []
    real_cols, real_s = modulus._columns, modulus._s_batched

    def spy_cols(q, fol, chans):
        evaluators.append(chans)
        return real_cols(q, fol, chans)

    def spy_s(*args, **kwargs):
        stages.append(kwargs["chans"])
        return real_s(*args, **kwargs)

    monkeypatch.setattr(modulus, "_columns", spy_cols)
    monkeypatch.setattr(modulus, "_s_batched", spy_s)
    modulus_fn(q, fol, tol=1e-8)
    speed, mass = (modulus.SPEED, None), (modulus.MASS, None)
    assert evaluators == [[speed], [mass, speed]]
    assert stages[0] == 1 and len(stages) > 1
    assert all(c == 2 for c in stages[1:])


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
    # one rtol per channel: the same value for both keeps the bits
    again = modulus._s_batched(
        SimpleNamespace(s_range=(0.0, 1.0)), cols_fn, (p,),
        rtol=[1e-10, 1e-10], atol=1e-12, counter=None,
        singular=(False, False), chans=2)
    assert again[0].tobytes() == vals.tobytes()
    assert again[1].tobytes() == errs.tobytes()


def spied_s_stages(monkeypatch):
    """The parameter pairs of every `_s_batched` call, as lists."""
    asked, real = [], modulus._s_batched

    def spy(fol, cols_fn, ps, **kwargs):
        asked.append([p.tolist() for p in ps])
        return real(fol, cols_fn, ps, **kwargs)
    monkeypatch.setattr(modulus, "_s_batched", spy)
    return asked


def radius_lengths():
    """A leaf-length builder on the vertical annulus chart, whose p1 axis
    is live and whose p2 axis only rotates the leaves."""
    leaf = modulus._leaf_integrals(radius_foliation(), neg_q0(),
                                   [(modulus.SPEED, None)], 1e-10, None,
                                   atol=1e-12)
    assert leaf.dep == (True, False)
    return leaf


def test_leaf_builder_integrates_a_leaf_once(monkeypatch):
    asked = spied_s_stages(monkeypatch)
    leaf = radius_lengths()
    first = leaf(np.array([0.7, 0.3, 0.7, 1.1]),
                 np.array([0.5, 4.0, 2.0, 0.5]))
    # the distinct live keys in sorted order, each at its first pair
    assert asked == [[[0.3, 0.7, 1.1], [4.0, 0.5, 0.5]]]
    # the same leaves again, in another order and rotated: no s-stage
    again = leaf(np.array([1.1, 0.3, 0.7]), np.array([6.0, 1.0, 3.0]))
    assert len(asked) == 1
    for a, b in zip(first, again):
        assert a[[3, 1, 0]].tobytes() == b.tobytes()


def test_leaf_builder_integrates_only_unseen_leaves(monkeypatch):
    asked = spied_s_stages(monkeypatch)
    leaf = radius_lengths()
    seen = leaf(np.array([0.3, 1.1]), np.array([0.5, 0.5]))
    mixed = leaf(np.array([0.9, 0.3, 0.5, 0.9, 1.1]),
                 np.array([2.0, 1.0, 3.0, 5.0, 0.2]))
    assert asked[1:] == [[[0.5, 0.9], [3.0, 2.0]]]
    for a, b in zip(seen, mixed):
        assert a.tobytes() == b[[1, 4]].tobytes()
        assert b[0].tobytes() == b[3].tobytes()
    # the unseen leaves carry the bits a fresh builder gives them
    fresh = radius_lengths()(np.array([0.5, 0.9]), np.array([3.0, 2.0]))
    for a, b in zip(fresh, mixed):
        assert a.tobytes() == b[[2, 0]].tobytes()


def test_leaf_memos_do_not_outlive_their_builders():
    scn = load_scenario("annulus-vertical")
    first, second = (modulus_m4(scn.q, scn.foliation, tol=1e-8).meta
                     for _ in range(2))
    assert first["s_evals"] == second["s_evals"] == 360
    assert first["s_points"] == second["s_points"]


def radius_builder(rtol, atol=1e-12):
    """A fresh leaf-length builder on the vertical annulus chart."""
    return modulus._leaf_integrals(radius_foliation(), neg_q0(),
                                   [(modulus.SPEED, None)], rtol, None,
                                   atol=atol)


def test_request_store_serves_only_looser_askers(monkeypatch):
    asked = spied_s_stages(monkeypatch)
    p1, p2 = np.array([0.3, 0.7, 1.1]), np.array([4.0, 0.5, 0.5])
    with modulus._leaf_store():
        tight = radius_builder(1e-10)(p1, p2)
        # a looser builder of an equal q and chart is served, rotated
        loose = radius_builder(1e-8)(p1[::-1], np.full(3, 2.0))
        assert len(asked) == 1
        for a, b in zip(tight, loose):
            assert a[::-1].tobytes() == b.tobytes()
        # a tighter rtol, or a tighter atol, integrates again
        tighter = radius_builder(1e-12)(p1, p2)
        assert len(asked) == 2
        radius_builder(1e-12, atol=1e-14)(p1, p2)
        assert len(asked) == 3
    # with the bits a fresh builder gives them, outside any store
    fresh = radius_builder(1e-12)(p1, p2)
    for a, b in zip(fresh, tighter):
        assert a.tobytes() == b.tobytes()


def test_stored_leaves_keep_their_own_budget(monkeypatch):
    # a leaf is served on the budget it was integrated at, never on its
    # error estimate: the loose leaves' errors meet 1e-10 here, and they
    # are still integrated again for a 1e-10 asker
    asked = spied_s_stages(monkeypatch)
    p1, p2 = np.array([0.4, 0.9]), np.array([1.0, 1.0])
    with modulus._leaf_store():
        loose = radius_builder(1e-3)(p1, p2)
        assert (loose[1] <= 1e-10 * np.abs(loose[0])).all()
        radius_builder(1e-10)(p1, p2)
    assert len(asked) == 2


def flagship_m4(tol, **kwargs):
    """modulus_m4 of annulus-horizontal, whose bits at tol 50 (leaves at
    rtol 0.5) differ from those at tol 5 and below."""
    scn = load_scenario("annulus-horizontal")
    return modulus_m4(scn.q, scn.foliation, tol=tol, **kwargs)


FLAGSHIP_TIGHT = (0.18016333184361855, 1.508220951561071e-11)
FLAGSHIP_LOOSE = (0.18002965340989574, 3.4745850879507444e-05)
ZERO_WORK = {"s_evals": 0, "s_points": 0, "p_evals": 0}


def bits(rep):
    return (rep.modulus.hex(), rep.error_estimate.hex())


def work(rep):
    return {k: rep.meta[k] for k in ZERO_WORK}


def stored_reports():
    return [k for k in modulus._STORE.get() if k[0] == "report"]


def test_a_looser_call_is_served_the_stored_report():
    with modulus._leaf_store():
        tight = flagship_m4(0.5)
        loose = flagship_m4(50.0)
    assert (tight.modulus, tight.error_estimate) == FLAGSHIP_TIGHT
    assert "served_from" not in tight.meta
    assert tight.meta["p_evals"] > 0 and tight.meta["tol"] == 0.5
    # a copy with the tight bits, its own tol and elapsed and no work
    assert loose is not tight and loose == tight
    assert bits(loose) == bits(tight)
    assert loose.meta["served_from"] == 0.5 and loose.meta["tol"] == 50.0
    assert work(loose) == ZERO_WORK
    assert loose.meta["elapsed"] < tight.meta["elapsed"]
    assert loose.meta["q_volume"] == tight.meta["q_volume"]
    # the stored report keeps its own meta
    assert tight.meta["tol"] == 0.5 and "served_from" not in tight.meta


def test_a_stricter_call_computes_and_replaces_the_stored_report():
    with modulus._leaf_store():
        loose = flagship_m4(50.0)
        tight = flagship_m4(0.5)
        middle = flagship_m4(5.0)
    assert (loose.modulus, loose.error_estimate) == FLAGSHIP_LOOSE
    assert (tight.modulus, tight.error_estimate) == FLAGSHIP_TIGHT
    assert "served_from" not in tight.meta and tight.meta["p_evals"] > 0
    assert middle.meta["served_from"] == 0.5 and bits(middle) == bits(tight)


def test_no_report_is_served_outside_a_store():
    tight, loose = flagship_m4(0.5), flagship_m4(50.0)
    assert (loose.modulus, loose.error_estimate) == FLAGSHIP_LOOSE
    for rep in (tight, loose):
        assert rep.meta["p_evals"] > 0 and "served_from" not in rep.meta


def test_reports_with_and_without_the_b2_override_never_serve_each_other():
    q = QuadDiff.from_string("1 + z*conj(z)")   # not in the B2 kernel
    with modulus._leaf_store():
        with pytest.warns(UserWarning):
            modulus_m4(q, shear_foliation(), tol=1e-8,
                       override_b2_check=True)
        with pytest.raises(KernelResidualHigh):
            modulus_m4(q, shear_foliation(), tol=1e-6)
        kept = modulus_m4(q_one(), shear_foliation(), tol=1e-8)
        other = modulus_m4(q_one(), shear_foliation(), tol=1e-6,
                           override_b2_check=True)
        assert "served_from" not in other.meta and other.meta["p_evals"] > 0
        assert bits(other) == bits(kept)
        assert len(stored_reports()) == 3


def test_a_gate_failure_raises_and_stores_nothing():
    q = QuadDiff.from_string("1 + z*conj(z)")
    with modulus._leaf_store():
        with pytest.raises(KernelResidualHigh):
            modulus_m4(q, shear_foliation(), tol=1e-8)
        assert stored_reports() == []
        # so a looser call runs the gate again
        with pytest.raises(KernelResidualHigh):
            modulus_m4(q, shear_foliation(), tol=1e-6)


def test_m2_serves_a_looser_call_on_the_radial_annulus():
    scn = load_scenario("plane-annulus-radial")
    with modulus._leaf_store():
        tight = modulus_m2(scn.q, scn.foliation, tol=1e-9)
        loose = modulus_m2(scn.q, scn.foliation, tol=1e-7)
        tighter = modulus_m2(scn.q, scn.foliation, tol=1e-10)
    assert tight.modulus == 9.064720283654387
    assert tight.meta["p_evals"] > 0 and "served_from" not in tight.meta
    assert bits(loose) == bits(tight) and work(loose) == ZERO_WORK
    assert loose.meta["served_from"] == 1e-9 and loose.meta["tol"] == 1e-7
    assert tighter.meta["p_evals"] > 0 and "served_from" not in tighter.meta


def test_flagship_modulus_runs_one_s_stage_per_builder(monkeypatch):
    # annulus-horizontal's chart varies along neither p-axis: the field's
    # length builder and the energies' mass builder each integrate the
    # one leaf once, where the p-edge probes and the p-stage passes ran
    # the mass stage five times (5,100 s-nodes)
    asked = spied_s_stages(monkeypatch)
    scn = load_scenario("annulus-horizontal")
    meta = modulus_m4(scn.q, scn.foliation, tol=1e-8).meta
    assert [len(ps[0]) for ps in asked] == [1, 1]
    assert meta["s_evals"] == 1020


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


@pytest.mark.parametrize("name, cut", [("annulus-vertical", 1.0),
                                       ("annulus-horizontal", 0.5)])
def test_m4_is_additive_over_a_split_box(name, cut):
    # M = int l^-n mass dp: the two halves of the p-box sum to the whole
    scn = load_scenario(name)
    fol = scn.foliation
    (a0, a1), other = fol.p_box
    reps = [modulus_m4(scn.q, replace(fol, p_box=(rng, other)))
            for rng in ((a0, a1), (a0, cut), (cut, a1))]
    whole, lo, hi = reps
    assert abs(lo.modulus + hi.modulus - whole.modulus) <= \
        sum(r.error_estimate for r in reps)


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
    # on a field constant over two p-axes an unweighted density takes the
    # field's one value; elsewhere it integrates its own.  A modifier at
    # eps = 0 leaves the density unweighted and its lengths' bits alone.
    ps = (np.array([0.4, 1.1]), np.array([0.3, 5.0]))
    for q, fol in ((q0(), arc_foliation()),
                   (neg_q0(), radius_foliation())):
        rho = extremal_density(q, fol)
        v, e = rho.leaf_lengths()(*ps)
        idle = replace(rho, modifier=E.parse("sin(s)")).leaf_lengths()(*ps)
        assert v.tobytes() == idle[0].tobytes()
        assert e.tobytes() == idle[1].tobytes()
        f = rho.length_field
        assert ((v == f.value).all() and (e == f.value_err).all()) == \
            (f.mode == "constant")


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
    # the numerator is L_w itself: one batch, and every ratio exactly 1.
    # w = (1 + 0.2 p1) + 0.2 cos(s) separates, so that batch holds the
    # two length moments of the arc chart's one leaf (`_density_leaves`)
    assert calls == [2]
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
    # weights that do not separate into a(p) b(s), so each runs on every
    # pair (`modulus._density_leaves`)
    rho = extremal_density(q0(), arc_foliation())
    return [rho, perturbed_density(rho, "cos(s + p1)", 0.1),
            perturbed_density(rho, "0.3 - sin(s + 0.2*cos(p2))", -0.2)]


def test_batched_energies_are_one_integral_within_each_estimate(
        monkeypatch):
    rhos = arc_batch()
    p_stages, stages, batches, widths, probes = [], [], [], [], []
    real_p, real_cols, real_eval, real_dep = (
        modulus._nested_p_integral, modulus._columns, E.eval_array,
        modulus._axis_dependence)

    def spy_p(*args, **kwargs):
        out = real_p(*args, **kwargs)
        p_stages.append(out)
        return out

    def spy_cols(q, fol, chans):
        stages.append([kind for kind, _ in chans])
        cols = real_cols(q, fol, chans)

        def counted(x, *pc):
            batches.append([])
            widths.append((pc[0].size, []))
            out = cols(x, *pc)
            batches[-1].append(out.shape[1] // pc[0].size)
            return out
        return counted

    def spy_eval(ex, binding):
        if batches:
            batches[-1].append(id(ex))
            widths[-1][1].append(
                (id(ex), np.broadcast(*binding.values()).shape[-1]))
        return real_eval(ex, binding)

    def spy_dep(cols_fn, fol):
        probes.append(len(stages))
        return real_dep(cols_fn, fol)

    monkeypatch.setattr(modulus, "_nested_p_integral", spy_p)
    monkeypatch.setattr(modulus, "_columns", spy_cols)
    monkeypatch.setattr(modulus, "_axis_dependence", spy_dep)
    monkeypatch.setattr(E, "eval_array", spy_eval)
    rhos[0].foliation.jac_a_expr    # built, polar form probed, on first use
    energies = density_energies(rhos, tol=1e-6)
    # one s-stage: the k = 3 masses and the lengths of the 2 weighted
    # densities share one evaluator
    assert stages == [["mass"] * 3 + ["speed"] * 2]
    # one p-stage over the 2k channels [g_k/L_k^4 ..., g_k ...]
    assert len(p_stages) == 1
    vals, errs = p_stages[0]
    assert vals.shape == (6,) and list(vals[:3]) == energies
    # per s-node batch q o Phi, |J|, |d_s Phi1| and the two g run once
    # each, shared by the 5 channels
    assert batches and all(len(set(b[:-1])) == len(b) - 1 == 5 and
                           b[-1] == 5 for b in batches)
    # the arc chart has no live p-axis: q o Phi, |J| and |d_s Phi1| run
    # on one column, each g on every pair of the batch
    gs = {id(r.modifier) for r in rhos[1:]}
    assert all(w == (pairs if ex in gs else 1)
               for pairs, evals in widths for ex, w in evals)
    assert max(pairs for pairs, _ in widths) > 1
    # the chart's p-axes are probed once, beside the batch's own leaf
    # dedup probe; unweighted evaluators never probe them
    assert probes == [1, 1]
    probes.clear()
    stages.clear()
    scn = load_scenario("annulus-vertical")
    modulus_m4(scn.q, scn.foliation, tol=1e-8)
    admissibility_check(extremal_density(scn.q, scn.foliation))
    assert probes == list(range(1, len(stages) + 1))
    monkeypatch.undo()

    for rho, energy, err in zip(rhos, energies, errs[:3]):
        alone = density_energy(rho, tol=1e-6)
        assert abs(energy - alone) <= err
    assert energies[0] < min(energies[1:])


def test_weighted_batch_evaluates_the_chart_once_per_distinct_leaf(
        monkeypatch):
    # on the radius chart p2 is a rotation, so q o Phi, |J| and
    # |d_s Phi1| vary along p1 only; the weights g vary along both axes
    # and do not separate into a(p) b(s), so they run on every pair
    scn = load_scenario("annulus-vertical")
    rho = extremal_density(scn.q, scn.foliation)
    probes = [perturbed_density(rho, g, 0.1) for g in
              ("0.3*sin(s + 0.2*cos(p2))", "0.1 + 0.2*sin(s*p1)")]
    gs = {id(r.modifier) for r in probes}
    calls, real_cols, real_eval = [], modulus._columns, E.eval_array

    def spy_cols(q, fol, chans):
        cols = real_cols(q, fol, chans)

        def counted(x, *pc):
            calls.append((pc[0], []))
            return cols(x, *pc)
        return counted

    def spy_eval(ex, binding):
        if calls:
            calls[-1][1].append(
                (id(ex), np.broadcast(*binding.values()).shape[-1]))
        return real_eval(ex, binding)

    monkeypatch.setattr(modulus, "_columns", spy_cols)
    monkeypatch.setattr(E, "eval_array", spy_eval)
    scn.foliation.jac_a_expr    # built, polar form probed, on first use
    energies = density_energies(probes, tol=1e-6)
    monkeypatch.undo()
    # the bits of evaluating every factor on every pair, on the same mesh
    monkeypatch.setattr(modulus, "_distinct_leaves", lambda ps, dep: None)
    assert energies == density_energies(probes, tol=1e-6)
    monkeypatch.undo()
    for p1, evals in calls:
        chart = [w for ex, w in evals if ex not in gs]
        assert len(chart) == 3 and len(evals) == 5
        assert all(w == np.unique(p1).size for w in chart)
        assert all(w == p1.size for ex, w in evals if ex in gs)
    assert max(p1.size - np.unique(p1).size for p1, _ in calls) > 0


def _beta(a):               # int_0^pi sin^a(s) ds
    return math.sqrt(math.pi) * math.gamma((a + 1) / 2) \
        / math.gamma(a / 2 + 1)


# moments int sin^i(s) d nu of nu, the normalised q-length measure
# sin^(-2/3)(s) ds of an annulus-horizontal leaf
NU_MOMENTS = [_beta(i - 2 / 3) / _beta(-2 / 3) for i in range(5)]


def leafwise_ratio(a, b):
    """<w^4>_nu / <w>_nu^4 on a leaf where w = a + b sin(s): on
    annulus-horizontal the lambda field is -1 and l is constant, so
    E / M is the mean of this ratio over the p-box (no Jacobian, no
    mass)."""
    def moment(j):
        return sum(math.comb(j, i) * a ** (j - i) * b ** i * NU_MOMENTS[i]
                   for i in range(j + 1))
    return moment(4) / moment(1) ** 4


def drawn_probes(rho, seed, eps_cycle, n):
    """n perturbed densities of rho drawn as the perturbation row (seed
    0) and criterion 7 (seed 7) draw them, eps_k cycling through
    eps_cycle, each with its [eps, c0, cs, c1, c2]."""
    rng = np.random.default_rng(seed)
    coef, probes = [], []
    for k in range(n):
        eps = eps_cycle[k % len(eps_cycle)]
        c0, c1, c2 = rng.uniform(-0.4, 0.4, 3)
        cs = rng.uniform(0.3, 1.0)
        g = (f"{c0:.6f} + {cs:.6f}*sin(s) + {c1:.6f}*p1"
             f" + {c2:.6f}*cos(p2)")
        coef.append([eps] + [float(f"{c:.6f}") for c in (c0, cs, c1, c2)])
        probes.append(perturbed_density(rho, g, eps))
    return probes, coef


def leafwise_moment_gaps(seed, eps_cycle, n):
    """|E_k / M - oracle| of n `drawn_probes`, batched with the
    extremal density as M at tol 1e-7."""
    scn = load_scenario("annulus-horizontal")
    q, fol = scn.q, scn.foliation
    (a0, a1), (b0, b1) = fol.p_box
    rho = extremal_density(q, fol)
    assert rho.length_field.mode == "constant"
    probes, coef = drawn_probes(rho, seed, eps_cycle, n)
    *energies, mod = density_energies(probes + [rho], tol=1e-7)
    x, wt = np.polynomial.legendre.leggauss(40)
    u = a0 + (a1 - a0) * (x + 1) / 2
    v = b0 + (b1 - b0) * (x + 1) / 2
    gaps = []
    for energy, (eps, c0, cs, c1, c2) in zip(energies, coef):
        # on a leaf w = a + b sin(s)
        a = 1 + eps * (c0 + c1 * u[:, None] + c2 * np.cos(v)[None, :])
        oracle = wt @ leafwise_ratio(a, eps * cs) @ wt / 4
        gaps.append(abs(energy / mod - oracle))
    return gaps


def test_perturbation_row_matches_leafwise_moments():
    scn = load_scenario("annulus-horizontal")
    q, fol = scn.q, scn.foliation
    (a0, a1), (b0, b1) = fol.p_box
    s, p1, p2 = np.ix_(np.linspace(0.02, 3.12, 41), np.linspace(a0, a1, 9),
                       np.linspace(b0, b1, 9))
    lam = lambda_field_array(q, fol, {"s": s, "p1": p1, "p2": p2})
    assert np.abs(lam + 1.0).max() <= 1e-13
    assert max(leafwise_moment_gaps(0, (0.1,), 5)) <= 1e-9


def test_criterion_07_probes_match_leafwise_moments():
    # the twenty probes of test_criterion_07 (eps up to 0.2) as one
    # weighted batch, so from the one-panel p-stage start
    assert max(leafwise_moment_gaps(7, (0.01, 0.05, 0.1, 0.2), 20)) <= 1e-9


@functools.lru_cache(maxsize=None)
def p1_bump_energies(sigma, c=0.5):
    """Energies of the weight 1 + g/2, g = sin(s) exp(-(p1 - c)^2 /
    (2 sigma^2)), on annulus-horizontal at tol 1e-8: (whole box, its
    estimate), (sum over the p1-box split at c, summed estimates), the
    modulus M, and E/M - 1 from the leaf-wise moments."""
    scn = load_scenario("annulus-horizontal")
    q, fol = scn.q, scn.foliation
    (a0, a1), other = fol.p_box
    k = 0.5 / sigma ** 2
    g = f"sin(s)*exp(-{k!r}*(p1 - {c!r})^2)"
    parts = []
    for box in ((a0, a1), (a0, c), (c, a1)):
        sub = replace(fol, p_box=(box, other))
        rho = perturbed_density(extremal_density(q, sub), g, 0.5)
        vals, errs = modulus._energies(q, sub, rho.length_field, [rho],
                                       1e-8, {})
        parts.append((vals[0], errs[0]))
    whole, lo, hi = parts
    mod = modulus_m4(q, fol, tol=1e-8).modulus

    def excess(p):
        return leafwise_ratio(1.0, 0.5 * math.exp(-k * (p - c) ** 2)) - 1
    oracle = sum(quad(excess, *box, epsabs=1e-15, limit=200)[0]
                 for box in ((a0, c), (c, a1))) / (a1 - a0)
    return whole, (lo[0] + hi[0], lo[1] + hi[1]), mod, oracle


@pytest.mark.parametrize("sigma", [0.025, 0.005])
def test_split_box_energy_sees_a_narrow_p1_bump(sigma):
    # the split puts a panel edge on the bump.  The weight separates, so
    # its p1-part is evaluated at every p-node however narrow the bump
    # is, beside leaf moments that carry no p (when one weighted leaf
    # stood for all, the half at c = 0.5 read 57x the oracle at sigma
    # 0.005, with an estimate of 7e-11)
    _, (split, _), mod, oracle = p1_bump_energies(sigma)
    assert oracle > 9e-4
    assert abs(split / mod - 1 - oracle) <= 1e-9


@pytest.mark.parametrize("sigma", [
    0.025, pytest.param(0.005, marks=pytest.mark.xfail(
        strict=True, reason="one 15-node p1 panel can miss a bump this "
        "narrow: unsplit E/M - 1 reads -3.7e-12, split 9.58e-4"))])
def test_one_panel_energy_is_additive_over_a_split_at_a_p1_bump(sigma):
    # E/M - 1 is 4.79e-3 at sigma 0.025; the resolution limit is stated
    # in README ("Library use")
    (whole, whole_err), (split, split_err), _, _ = p1_bump_energies(sigma)
    assert abs(whole - split) <= whole_err + split_err


# ---------------------------------------------------------------------------
# weights that separate in s: leaf-wise moments (`modulus._density_leaves`)

SIN_S = E.parse("sin(s)")


@pytest.mark.parametrize("text, keys", [
    # sums of products, with constants, p-only and s-only terms
    ("0.3 + 0.5*sin(s) + 0.2*p1*cos(p2) - cos(s)*p2*2", ["", "sin(s)",
                                                          "cos(s)"]),
    # a product of s-factors is one interned node, whatever the p-factors
    # between them
    ("sin(s)*p1*cos(s) - sin(s)*cos(s)*p2", ["sin(s)*cos(s)"]),
    # division by a factor in p only, and by one in s only
    ("sin(s)/(1 + p1^2) + p2/exp(s)", ["sin(s)", "1/exp(s)"]),
    # Neg and Sub flip the sign of a term
    ("-(s*p1) - -cos(s) - (p2 - 2)", ["s", "cos(s)", ""]),
    ("2.5", [""]), ("exp(-s)", ["exp(-s)"]), ("p1*cos(p2)", [""]),
])
def test_separate_splits_sums_of_products(text, keys):
    parts = modulus._separate(E.parse(text))
    want = [E.parse(k) if k else None for k in keys]
    assert list(parts) == want
    # sum_b a(p) b(s) is g again, on the arc chart's grid
    g = arc_foliation().grid(6)
    total = sum(E.eval_array(a, g) * (1.0 if b is None else
                                      E.eval_array(b, g))
                for b, a in parts.items())
    exact = E.eval_array(E.parse(text), g)
    assert np.allclose(total, exact, rtol=1e-14, atol=1e-14)
    assert all("s" not in E.free_vars(a) for a in parts.values())
    assert all(E.free_vars(b) == {"s"} for b in parts if b is not None)


@pytest.mark.parametrize("text", [
    "sin(s*p1)", "0.2 + sin(s)*p1 + sin(s*p1)",
    # not distributed, although s^2 + 2 s p1 + p1^2 would separate
    "(s + p1)^2", "sin(s)*(s + p1)^2"])
def test_separate_refuses_a_factor_in_s_and_p(text):
    assert modulus._separate(E.parse(text)) is None


def test_a_long_weight_separates_and_falls_back_before_listing_moments():
    # 1,200 terms nest deeper than Python's recursion limit, and 1,200
    # distinct s-factors would need C(1204, 4) mass moments
    text = " + ".join(f"0.001*sin({k}*s)*p1" for k in range(1, 1201))
    rho = replace(extremal_density(q0(), arc_foliation()),
                  modifier=E.parse(text), eps=0.1)
    form = modulus._moment_form(rho)
    assert len(form) == 1200
    assert modulus._moment_leaves(
        rho.q, rho.foliation, [(modulus.MASS, rho, 1e-9)], {id(rho): form},
        None, modulus._ATOL) is None


def test_complex_factors_keep_the_per_pair_route():
    # 2 cos(s + p1) as exp(i s) exp(i p1) + conjugate: real, but its parts
    # are not, and re(a b) is not re(a) re(b)
    rho = replace(extremal_density(q0(), arc_foliation()), eps=0.1,
                  modifier=E.parse("exp(i*s)*exp(i*p1) + "
                                   "exp(-i*s)*exp(-i*p1)"))
    assert modulus._separate(rho.modifier) is not None
    assert modulus._moment_form(rho) is None
    assert modulus._moment_form(replace(
        rho, modifier=E.parse("i*sin(s)*i*p1"))) is not None


def test_weights_over_the_column_count_keep_the_per_pair_route(
        monkeypatch):
    # one axis is always live: sin(s) + p needs 5 moment columns per
    # leaf (1, sin, sin^2 times the mass, 1, sin times the speed) against
    # 2 on every pair, so the per-pair route runs, with its own bits
    q, fol = plane_rectangle()
    rho = perturbed_density(extremal_density(q, fol), "sin(s) + p", 0.1)
    assert modulus._moment_form(rho) is not None
    evaluators, real_cols = [], modulus._columns

    def spy_cols(q, fol, chans):
        evaluators.append([w for _, w in chans])
        return real_cols(q, fol, chans)
    monkeypatch.setattr(modulus, "_columns", spy_cols)
    energy = density_energy(rho, tol=1e-8)
    # the chart probe, then the per-pair evaluator: no moment channel
    assert evaluators == [[None, None], [rho, rho]]
    monkeypatch.setattr(modulus, "_separate", lambda g: None)
    assert density_energy(rho, tol=1e-8) == energy


def test_weights_that_do_not_separate_keep_their_bits():
    # the bits of this batch before leaf-wise moments existed
    assert density_energies(arc_batch(), tol=1e-6) == [
        0.18016333184361855, 0.18556609813087374, 0.18605213516840477]


def test_row_probes_share_seven_moment_channels_on_one_leaf(monkeypatch):
    # every row weight is A_0(p) + A_1(p) sin(s) with one interned
    # sin(s), so the s-stage integrates sin^j(s) times the mass (j <= 4)
    # and the speed (j <= 1): 7 channels free of p, on the one leaf that
    # annulus-horizontal's dead chart axes leave
    scn = load_scenario("annulus-horizontal")
    rho = extremal_density(scn.q, scn.foliation)
    probes = [perturbed_density(rho, g, 0.1) for g in PERTURBATION_PROBES]
    evaluators, stages = [], []
    real_cols, real_s = modulus._columns, modulus._s_batched

    def spy_cols(q, fol, chans):
        evaluators.append(chans)
        return real_cols(q, fol, chans)

    def spy_s(fol, cols_fn, ps, **kwargs):
        stages.append((ps[0].size, kwargs["chans"]))
        return real_s(fol, cols_fn, ps, **kwargs)

    monkeypatch.setattr(modulus, "_columns", spy_cols)
    monkeypatch.setattr(modulus, "_s_batched", spy_s)
    counter = {}
    density_energies(probes, tol=1e-7, counter=counter)
    mass, speed = modulus.MASS, modulus.SPEED
    monomials = [None] + [(SIN_S,) * j for j in range(1, 5)]
    assert evaluators == [
        [(mass, None), (speed, None)],      # the chart's p-axis probe
        [(mass, m) for m in monomials] + [(speed, None), (speed, (SIN_S,))]]
    # one s-stage for the whole row: the p-edge probes and both p-stage
    # passes share the builder's one leaf (six s-stages, 7,920 s-nodes
    # and 44,640 column-points when each call integrated it again)
    assert stages == [(1, 7)]
    assert counter["s_evals"] == 1320
    # 7,252,200 column-points on every pair of the per-pair route
    assert counter["s_points"] == 7440
    assert counter["p_evals"] == 60


@pytest.mark.parametrize("name, seed, eps_cycle, n, tol", [
    ("annulus-horizontal", 0, (0.1,), 5, 1e-7),     # the perturbation row
    ("annulus-horizontal", 7, (0.01, 0.05, 0.1, 0.2), 20, 1e-6),
    ("annulus-vertical", 7, (0.01, 0.05, 0.1, 0.2), 20, 1e-6)])
def test_moment_route_matches_the_per_pair_route(name, seed, eps_cycle, n,
                                                 tol, monkeypatch):
    # criterion 7's twenty draws as one batch; annulus-vertical's p1 axis
    # is live, so there the moments run on one leaf per p1-node
    scn = load_scenario(name)
    q, fol = scn.q, scn.foliation
    rho = extremal_density(q, fol)
    probes, _ = drawn_probes(rho, seed, eps_cycle, n)
    if seed == 0:
        assert [r.modifier for r in probes] == [
            E.parse(g) for g in PERTURBATION_PROBES]
    field = rho.length_field
    vals, errs = modulus._energies(q, fol, field, probes, tol, {})
    with monkeypatch.context() as m:
        m.setattr(modulus, "_separate", lambda g: None)
        ref, ref_errs = modulus._energies(q, fol, field, probes, tol, {})
    # energies and masses, each within the two routes' summed estimates
    assert (np.abs(vals - ref) <= errs + ref_errs).all()
    assert density_energy(rho, tol=tol) == modulus_m4(q, fol, tol=tol).modulus


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


def shear_energies(tol):
    return density_energies([extremal_density(q_one(), shear_foliation())],
                            tol=tol)


@pytest.mark.parametrize("run", [
    lambda tol: modulus_m4(q_one(), shear_foliation(), tol=tol),
    lambda tol: modulus_m2(*plane_rectangle(), tol=tol),
    lambda tol: modulus_constant_length(q_one(), shear_foliation(), tol=tol),
    lambda tol: q_volume(q_one(), shear_foliation(), tol=tol),
    shear_energies,
], ids=["m4", "m2", "constant_length", "q_volume", "density_energies"])
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_entry_points_refuse_a_tolerance_that_is_not_finite_and_positive(
        run, tol):
    # nan and inf used to return the shear modulus 0.125 with tol nan or
    # inf in meta, and 0 raised NonConvergent after a divide-by-zero
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        run(tol)
