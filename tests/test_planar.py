"""Planar oracle: classical moduli (rectangle, annulus), Jacobian
cross-checks, lambda constancy, and the anti-holomorphic negative
control.  Everything here has a closed form, which is the point: this
module regression-tests the shared quadrature/report machinery against
textbook answers.
"""

import math

import numpy as np
import pytest

from heismod import expr as E
from heismod.errors import (
    InversionFailure,
    NegativeQ,
    NonConvergent,
    NotHorizontal,
    VariableMismatch,
    ZeroVelocity,
)
from heismod.foliation import (
    check_horizontal,
    lambda_field_array,
    leaf_length_batch,
)
from heismod import modulus
from heismod.modulus import (
    LeafLengthField,
    ModulusReport,
    extremal_density,
    q_volume,
)
from heismod.planar import (
    PlanarFoliation,
    PlanarQD,
    holomorphy_residual,
    modulus_m2,
)
from heismod.scenarios import load_scenario

R = 2.0


def rectangle(a=2.0, b=1.0):
    return PlanarFoliation.from_strings("s + i*p", (0.0, a), (0.0, b))


def radial_annulus(r=R):
    # leaves are radii; w = s e^{ip}
    return PlanarFoliation.from_strings("s*exp(i*p)", (1.0, r),
                                        (0.0, 2 * math.pi))


def circular_annulus(r=R):
    # leaves are circles; w = p e^{is}
    return PlanarFoliation.from_strings("p*exp(i*s)", (0.0, 2 * math.pi),
                                        (1.0, r))


def varying_chart():
    # leaves w = s(1 + p) + ip have q-length l(p) = 1 + p under q = 1
    return PlanarFoliation.from_strings("s*(1 + p) + i*p", (0.0, 1.0),
                                        (0.0, 1.0))


def q_unit():
    return PlanarQD.from_string("1")


def q_radial():
    return PlanarQD.from_string("1/w^2")


def q_circular():
    return PlanarQD.from_string("-1/w^2")


# ---------------------------------------------------------------------------
# types and residuals

def test_planar_qd_rejects_group_variables():
    with pytest.raises(VariableMismatch):
        PlanarQD.from_string("z + t")


def test_foliation_rejects_extra_variables():
    with pytest.raises(VariableMismatch):
        PlanarFoliation.from_strings("s + i*p1", (0, 1), (0, 1))


def test_holomorphy_residual_examples():
    assert holomorphy_residual(PlanarQD.from_string("w^2"), 0.3 + 1j) == 0
    assert holomorphy_residual(q_radial(), 1 + 1j) == 0
    assert holomorphy_residual(PlanarQD.from_string("conj(w)"), 2j) == 1.0


def test_holomorphy_residual_vectorized():
    w = np.array([1.0, 1j, 2 - 1j])
    out = holomorphy_residual(PlanarQD.from_string("w*conj(w)"), w)
    assert np.allclose(out, w)


# ---------------------------------------------------------------------------
# jacobians: the complex route (jac_a_expr) against the real determinant

def at(expr, u):
    return E.evaluate(expr, {"s": u[0], "p": u[1]}).real


def test_jacobian_translation_chart():
    assert at(rectangle().jac_a_expr, (0.3, 0.4)) == pytest.approx(1.0)


def test_jacobian_polar_chart():
    u = (1.7, 2.1)
    assert at(radial_annulus().jac_a_expr, u) == pytest.approx(1.7,
                                                               rel=1e-12)


def test_jacobian_degenerate_chart_is_zero():
    flat = PlanarFoliation.from_strings("s + p", (0, 1), (0, 1))
    assert at(flat.jac_a_expr, (0.5, 0.5)) == pytest.approx(0.0, abs=1e-14)


def test_jacobian_routes_agree_on_corpus():
    rng = np.random.default_rng(3)
    for fol in (rectangle(), radial_annulus(), circular_annulus()):
        (s0, s1), ((p0, p1),) = fol.s_range, fol.p_box
        for _ in range(25):
            u = (s0 + (s1 - s0) * rng.uniform(0.05, 0.95),
                 p0 + (p1 - p0) * rng.uniform(0.05, 0.95))
            a = at(fol.jac_a_expr, u)
            d = at(fol.jac_det_expr, u)
            assert a == pytest.approx(d, rel=1e-10, abs=1e-12)


def test_validate_rejects_stalled_chart():
    with pytest.raises(ZeroVelocity):
        PlanarFoliation.from_strings("i*p + 0*s", (0, 1), (0, 1)).validate()


def test_validate_rejects_non_injective_chart():
    # two full turns: the chart covers the annulus twice
    fol = PlanarFoliation.from_strings("s*exp(2*i*p)", (1.0, 2.0),
                                       (0.0, 2 * math.pi))
    with pytest.raises(InversionFailure):
        fol.validate()


# ---------------------------------------------------------------------------
# lambda constancy (the planar per-leaf invariant)

def test_lambda_unit_translation():
    lam = lambda_field_array(q_unit(), rectangle(), {"s": 0.5, "p": 0.2})
    assert lam == pytest.approx(1.0, rel=1e-12)


def test_lambda_radial_is_one_and_constant():
    fol = radial_annulus()
    s = np.linspace(1.05, 1.95, 120)
    lam = lambda_field_array(q_radial(), fol,
                             {"s": s, "p": np.full_like(s, 1.3)})
    assert np.allclose(lam, 1.0, rtol=1e-10)
    assert np.ptp(lam) / np.mean(lam) < 1e-8


def test_lambda_antiholomorphic_control_varies():
    # q = conj(w) on the p = 0 radius: mu^2 = s > 0 but lambda = s^(3/2)
    fol = radial_annulus()
    q = PlanarQD.from_string("conj(w)")
    s = np.linspace(1.05, 1.95, 120)
    lam = lambda_field_array(q, fol, {"s": s, "p": np.zeros_like(s)})
    assert np.allclose(lam, s ** 1.5, rtol=1e-10)
    assert np.ptp(lam) / np.abs(lam).max() >= 0.1


def test_lambda_rejects_wrong_sign():
    with pytest.raises(NegativeQ):
        lambda_field_array(q_circular(), radial_annulus(),
                           {"s": 1.5, "p": 0.7})
    with pytest.raises(NotHorizontal):
        check_horizontal(q_circular(), radial_annulus(),
                         np.array([0.5, 1.0]))


# ---------------------------------------------------------------------------
# lengths and areas

def test_leaf_lengths_radial():
    v, e = leaf_length_batch(q_radial(), radial_annulus(),
                             np.array([0.3, 2.0, 5.5]))
    assert np.allclose(v, math.log(R), rtol=1e-10)


def test_leaf_lengths_circular():
    v, _ = leaf_length_batch(q_circular(), circular_annulus(),
                             np.array([1.2, 1.8]))
    assert np.allclose(v, 2 * math.pi, rtol=1e-10)


# ---------------------------------------------------------------------------
# leaf-length field over the single p-axis

def test_field_constant_on_radial_chart():
    f = LeafLengthField(q_radial(), radial_annulus())
    assert f.mode == "constant"
    assert f.value == pytest.approx(math.log(R), rel=1e-10)
    p = np.array([0.3, 4.0])
    v, e = extremal_density(q_radial(), radial_annulus()).leaf_lengths()(p)
    assert np.allclose(v, math.log(R), rtol=1e-10)
    assert (e >= 0.0).all()
    # a one-axis density integrates each leaf's own length, even when
    # the field is constant
    own = modulus._leaf_integrals(radial_annulus(), q_radial(),
                                  [(modulus.SPEED, None)], 1e-11, None)(p)
    assert all(a.tobytes() == b[:, 0].tobytes() for a, b in zip((v, e), own))


def test_field_interpolated_on_varying_chart():
    f = LeafLengthField(q_unit(), varying_chart())
    assert f.mode == "exact"
    p = np.linspace(0.05, 0.95, 11)
    v, e = extremal_density(q_unit(), varying_chart()).leaf_lengths()(p)
    assert np.max(np.abs(v - (1 + p)) / (1 + p)) < 1e-9
    assert (e > 0).all()


def test_field_interpolated_falls_back_outside_hull():
    f = LeafLengthField(q_unit(), varying_chart())
    assert f.mode == "exact"
    # 1e-4 into the box is outside the inset sampling grid; the query is
    # an exact leaf integral, and the field's stats keep to its grid
    v, _ = extremal_density(q_unit(), varying_chart()).leaf_lengths()(
        np.array([1e-4]))
    assert v[0] == pytest.approx(1.0 + 1e-4, rel=1e-9)
    assert f.stats()[0] == pytest.approx(1.0 + 1e-3, rel=1e-9)


def test_q_area_rectangle():
    assert q_volume(q_unit(), rectangle()) == pytest.approx(2.0, rel=1e-10)


def test_q_area_annulus_charts_agree():
    # Area_q = 2 pi ln R through either chart of the same annulus
    want = 2 * math.pi * math.log(R)
    assert q_volume(q_radial(), radial_annulus()) == pytest.approx(
        want, rel=1e-9)
    assert q_volume(q_circular(), circular_annulus()) == pytest.approx(
        want, rel=1e-9)


# ---------------------------------------------------------------------------
# modulus_m2

def test_m2_rectangle_closed_form():
    rep = modulus_m2(q_unit(), rectangle(2.0, 1.0), tol=1e-10)
    assert isinstance(rep, ModulusReport)
    assert rep.modulus == pytest.approx(0.5, rel=1e-10)
    assert rep.consistency_gap is not None and rep.consistency_gap < 1e-13
    assert rep.residual_stats == 0.0
    assert rep.meta["field_mode"] == "constant"


def test_m2_rectangle_reciprocal_pair():
    m_ab = modulus_m2(q_unit(), rectangle(2.0, 1.0), tol=1e-10).modulus
    m_ba = modulus_m2(q_unit(), rectangle(1.0, 2.0), tol=1e-10).modulus
    assert m_ab * m_ba == pytest.approx(1.0, rel=1e-10)


def test_m2_radial_annulus():
    rep = modulus_m2(q_radial(), radial_annulus(), tol=1e-9)
    assert rep.modulus == pytest.approx(2 * math.pi / math.log(R), rel=1e-8)
    assert rep.leaf_length_stats[2] == pytest.approx(math.log(R), rel=1e-9)


def test_m2_circular_annulus_and_product():
    circ = modulus_m2(q_circular(), circular_annulus(), tol=1e-9)
    assert circ.modulus == pytest.approx(math.log(R) / (2 * math.pi),
                                         rel=1e-8)
    rad = modulus_m2(q_radial(), radial_annulus(), tol=1e-9)
    assert rad.modulus * circ.modulus == pytest.approx(1.0, rel=1e-8)


def test_m2_divergent_leaf_lengths_raise():
    # radii from the origin under q = 1/w^2: every leaf length
    # int_0^1 ds/s diverges.  Its infinite error bound must survive the
    # p-stage rather than leave a confident modulus of the truncated sum.
    fol = PlanarFoliation.from_strings("s*exp(i*p)", (0.0, 1.0), (0.0, 1.0))
    for tol in (1e-4, 1e-8):
        with pytest.raises(NonConvergent, match="aggregated error inf"):
            modulus_m2(PlanarQD.from_string("w^(-2)"), fol, tol=tol)


def test_m2_rejects_wrong_sign_differential():
    with pytest.raises(NotHorizontal):
        modulus_m2(q_radial(), circular_annulus())


def test_m2_varying_lengths_no_gap():
    # leaves w = s(1+p) + ip: J = l = 1+p, so M2 = int_0^1 dp/(1+p) = ln 2
    fol = PlanarFoliation.from_strings("s*(1 + p) + i*p", (0.0, 1.0),
                                       (0.0, 1.0))
    rep = modulus_m2(q_unit(), fol, tol=1e-9)
    assert rep.modulus == pytest.approx(math.log(2.0), rel=1e-8)
    assert rep.consistency_gap is None
    assert rep.meta["field_mode"] == "exact"
    lo, hi, mean = rep.leaf_length_stats
    assert lo < hi


# Moebius maps w -> m(w) carry the pair (q, Phi) to (q o m^-1 *
# ((m^-1)')^2, m o Phi); M2 is conformally invariant
W, WB = E.var("w"), E.var("wb")


def _moved(q, fol, pull, factor, phi1):
    """(factor * q o pull, chart phi1 on fol's parameter box)."""
    coeff = E.mul(factor, E.substitute(q.coeff, pull))
    return PlanarQD(coeff), PlanarFoliation(phi1, fol.s_range, fol.p_box)


def inverted(q, fol):
    # q' = q(1/w) w^-4 on the chart 1/Phi
    one = E.const(1.0)
    return _moved(q, fol, {"w": E.div(one, W), "wb": E.div(one, WB)},
                  E.powr(W, -4.0), E.div(one, fol.phi1))


def dilated(q, fol, r=1.7):
    # q' = r^-2 q(w/r) on the chart r Phi
    pull = {"w": E.mul(E.const(1 / r), W), "wb": E.mul(E.const(1 / r), WB)}
    return _moved(q, fol, pull, E.const(r ** -2), E.mul(E.const(r), fol.phi1))


def rotated(q, fol, theta=0.7):
    # q' = e^(-2 i theta) q(e^(-i theta) w) on the chart e^(i theta) Phi
    u = complex(math.cos(theta), math.sin(theta))
    pull = {"w": E.mul(E.const(u.conjugate()), W), "wb": E.mul(E.const(u), WB)}
    return _moved(q, fol, pull, E.const(u.conjugate() ** 2),
                  E.mul(E.const(u), fol.phi1))


@pytest.mark.parametrize("move", [inverted, dilated, rotated])
@pytest.mark.parametrize("name", ["plane-annulus-radial",
                                  "plane-annulus-circular"])
def test_m2_invariant_under_moebius_maps(name, move):
    scn = load_scenario(name)
    base = modulus_m2(scn.q, scn.foliation)
    rep = modulus_m2(*move(scn.q, scn.foliation))
    assert abs(rep.modulus - base.modulus) <= \
        rep.error_estimate + base.error_estimate
