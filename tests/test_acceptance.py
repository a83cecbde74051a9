"""End-to-end acceptance battery: ten pinned criteria, one test each.

Every expected value is either a closed form evaluated with the math
library, an independent quadrature (scipy QAGS), or a hand-derived
identity; nothing here is pinned against this package's own output.
Each test prints a single summary line with the measured quantities, so
`pytest -v -rA` reads as a checklist.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from heismod import expr as E
from heismod.foliation import Foliation, lambda_field_array, \
    leaf_length_batch
from heismod.modulus import (
    density_energy,
    extremal_density,
    modulus_constant_length,
    modulus_m4,
    perturbation_probe,
    q_volume,
)
from heismod.planar import PlanarFoliation, PlanarQD, modulus_m2
from heismod.qdiff import QuadDiff
from heismod.scenarios import (
    lambda_spread_stats,
    load_scenario,
    trace_leaf_deviation,
)

Q0_TEXT = ("conj(z)^2 * (t^2 + (z*conj(z))^2)^(2/3)"
           " / ((z*conj(z))^(4/3) * (t + i*z*conj(z))^2)")

# C = (1/2) int_0^pi sin^(-2/3), from an independent high-order quadrature
C_ORACLE = 0.5 * quad(lambda u: math.sin(u) ** (-2 / 3), 0.0, math.pi,
                      limit=200)[0]


def q0():
    return QuadDiff.from_string(Q0_TEXT)


def neg_q0():
    return QuadDiff(E.neg(E.parse(Q0_TEXT)))


def arc_foliation(r=2.0):
    return Foliation.from_strings(
        "sqrt(exp(p1)*sin(s)) * exp(i*(p2 + s/2))", "exp(p1)*cos(s)",
        (0.0, math.pi), ((0.0, 2 * math.log(r)), (0.0, 2 * math.pi)))


def radius_foliation(r=2.0):
    return Foliation.from_strings(
        "sqrt(exp(s)*sin(p1)) * exp(i*(p2 - (s/2)*cos(p1)/sin(p1)))",
        "exp(s)*cos(p1)",
        (0.0, 2 * math.log(r)), ((0.0, math.pi), (0.0, 2 * math.pi)))


def _line(num, text):
    print(f"criterion {num:02d}: {text}")


# ---------------------------------------------------------------------------

def test_criterion_01_annulus_horizontal_modulus():
    want = 4 * math.pi * math.log(2.0) / C_ORACLE ** 3
    t0 = time.perf_counter()
    rep = modulus_m4(q0(), arc_foliation(), tol=1e-8)
    elapsed = time.perf_counter() - t0
    rel = abs(rep.modulus - want) / want
    _line(1, f"M4(arc)={rep.modulus:.12g} vs {want:.12g} "
             f"rel={rel:.3e} elapsed={elapsed:.2f}s")
    assert rel <= 1e-6
    assert elapsed <= 60.0


def test_criterion_02_annulus_vertical_modulus_and_length_field():
    want = math.pi ** 2 / math.log(2.0) ** 3
    q, fol = neg_q0(), radius_foliation()
    rep = modulus_m4(q, fol, tol=1e-8)
    rel = abs(rep.modulus - want) / want

    p1 = np.linspace(0.08, math.pi - 0.08, 25)
    p2 = np.linspace(0.3, 2 * math.pi - 0.3, 4)
    pp1, pp2 = (a.ravel() for a in np.meshgrid(p1, p2))
    lengths, _ = leaf_length_batch(q, fol, pp1, pp2, tol=1e-12)
    # (t^2+|z|^4)^(1/3) * ln r / |z|^(4/3) at chart points; s cancels
    zv = E.eval_array(fol.phi1, {"s": 0.7, "p1": pp1, "p2": pp2})
    tv = E.eval_array(fol.phi2, {"s": 0.7, "p1": pp1, "p2": pp2}).real
    z2 = np.abs(zv) ** 2
    formula = ((tv ** 2 + z2 ** 2) ** (1 / 3) * math.log(2.0)
               / z2 ** (2 / 3))
    gap = float(np.abs(lengths - formula).max())
    _line(2, f"M4(radius)={rep.modulus:.12g} rel={rel:.3e}; "
             f"l_field max|dev|={gap:.3e} over {pp1.size} leaves")
    assert rel <= 1e-6
    assert gap <= 1e-8


def test_criterion_03_q_volume_and_two_path_consistency():
    rels = []
    for r in (1.5, 2.0, 4.0):
        want = 4 * math.pi * C_ORACLE * math.log(r)
        got = q_volume(q0(), arc_foliation(r), tol=1e-9)
        rels.append(abs(got - want) / want)
    via_vol = modulus_constant_length(q0(), arc_foliation(), tol=1e-8)
    direct = modulus_m4(q0(), arc_foliation(), tol=1e-8)
    path_gap = abs(via_vol.modulus - direct.modulus) / direct.modulus
    _line(3, f"vol rels={[f'{x:.2e}' for x in rels]}; "
             f"two-path gap={path_gap:.3e}")
    assert max(rels) <= 1e-6
    assert path_gap <= 1e-6


def test_criterion_04_kernel_residuals():
    rng = np.random.default_rng(20260815)
    pts = []
    while len(pts) < 1000:
        z = rng.uniform(0.2, 1.5) * np.exp(2j * np.pi * rng.random())
        t = rng.uniform(-4.0, 4.0)
        if 1.0 < (t * t + abs(z) ** 4) ** 0.25 < 2.0:
            pts.append((z, t))
    zv = np.array([z for z, _ in pts])
    tv = np.array([t for _, t in pts])
    bind = {"z": zv, "zb": np.conj(zv), "t": tv}

    b2_worst = float(np.abs(E.eval_array(q0().b2_expr, bind)).max())

    q3 = QuadDiff.from_string(
        "(t - i*z*conj(z))^2 / (t + i*z*conj(z))^4")
    triple_worst = max(
        float(np.abs(E.eval_array(ex, bind)).max())
        for ex in (q3.b2_expr, q3.d2prime_expr, q3.d2doubleprime_expr))

    ctrl = QuadDiff.from_string("conj(z)")
    b2c = np.abs(E.eval_array(ctrl.b2_expr, bind))
    dppc = np.abs(E.eval_array(ctrl.d2doubleprime_expr, bind))
    ctrl_gap = max(float(np.abs(b2c - 2 * np.abs(zv)).max()),
                   float(np.abs(dppc - 1.0).max()))
    _line(4, f"max|B2 q0|={b2_worst:.3e}; triple worst={triple_worst:.3e}; "
             f"control gap={ctrl_gap:.3e} over {zv.size} points")
    assert b2_worst <= 1e-9
    assert triple_worst <= 1e-9
    assert ctrl_gap <= 1e-12


def test_criterion_05_lambda_constancy_and_control():
    arc_spread = lambda_spread_stats(q0(), arc_foliation(), 101, 100)
    rad_spread = lambda_spread_stats(neg_q0(), radius_foliation(), 101, 100)

    radial = PlanarFoliation.from_strings("s*exp(i*p)", (1.0, 2.0),
                                          (0.0, 2 * math.pi))
    plan_spread = lambda_spread_stats(
        PlanarQD.from_string("1/w^2"), radial, 101, 100)

    s = np.linspace(1.02, 1.98, 101)
    lam = lambda_field_array(PlanarQD.from_string("conj(w)"), radial,
                             {"s": s, "p": np.zeros_like(s)})
    control = float(np.ptp(lam) / np.abs(lam).max())
    _line(5, f"spreads: arc={arc_spread:.3e} radius={rad_spread:.3e} "
             f"planar={plan_spread:.3e}; control={control:.3f}")
    assert arc_spread <= 1e-6
    assert rad_spread <= 1e-6
    assert plan_spread <= 1e-8
    assert control >= 0.1


def test_criterion_06_planar_oracles():
    rect = modulus_m2(PlanarQD.from_string("1"),
                      PlanarFoliation.from_strings("s + i*p", (0.0, 2.0),
                                                   (0.0, 1.0)),
                      tol=1e-11)
    rect_rel = abs(rect.modulus - 0.5) / 0.5

    radial = modulus_m2(
        PlanarQD.from_string("1/w^2"),
        PlanarFoliation.from_strings("s*exp(i*p)", (1.0, 2.0),
                                     (0.0, 2 * math.pi)), tol=1e-9)
    want_rad = 2 * math.pi / math.log(2.0)
    rad_rel = abs(radial.modulus - want_rad) / want_rad

    circ = modulus_m2(
        PlanarQD.from_string("-1/w^2"),
        PlanarFoliation.from_strings("p*exp(i*s)", (0.0, 2 * math.pi),
                                     (1.0, 2.0)), tol=1e-9)
    product_gap = abs(radial.modulus * circ.modulus - 1.0)
    _line(6, f"rect rel={rect_rel:.3e}; radial rel={rad_rel:.3e}; "
             f"radial*circular-1={product_gap:.3e}")
    assert rect_rel <= 1e-10
    assert rad_rel <= 1e-8
    assert product_gap <= 1e-8


def test_criterion_07_extremality_probes():
    q, fol = q0(), arc_foliation()
    ref = modulus_m4(q, fol, tol=1e-7)
    rho = extremal_density(q, fol)
    energy0 = density_energy(rho, tol=1e-7)
    base_gap = abs(energy0 - ref.modulus) / ref.modulus

    rng = np.random.default_rng(7)
    eps_cycle = (0.01, 0.05, 0.1, 0.2)
    ratios = []
    strict_ok = True
    mod = modulus_m4(q, fol, tol=1e-6).modulus
    for k in range(20):
        eps = eps_cycle[k % 4]
        c0, c1, c2 = rng.uniform(-0.4, 0.4, 3)
        cs = rng.uniform(0.3, 1.0)
        g = (f"{c0:.6f} + {cs:.6f}*sin(s) + {c1:.6f}*p1"
             f" + {c2:.6f}*cos(p2)")
        energy = perturbation_probe(rho, g, eps, tol=1e-6)
        ratios.append(energy / mod)
        if eps >= 0.05 and not energy > mod * (1 + 1e-8):
            strict_ok = False
    _line(7, f"|E(rho0)-M4|/M4={base_gap:.3e}; "
             f"min ratio={min(ratios):.9f}; strict(eps>=0.05)={strict_ok}")
    assert base_gap <= 1e-6
    assert min(ratios) >= 1.0 - 1e-9
    assert strict_ok


def test_criterion_08_tracer_fidelity():
    dev_h, res_h = trace_leaf_deviation(
        q0(), arc_foliation(), math.log(2.0), math.pi, rk_tol=1e-9)
    dev_v, res_v = trace_leaf_deviation(
        neg_q0(), radius_foliation(), math.pi / 2, math.pi, rk_tol=1e-9)
    _line(8, f"sup deviation: horizontal={dev_h:.3e} vertical={dev_v:.3e}; "
             f"max residual={max(res_h, res_v):.3e}")
    assert dev_h <= 1e-6
    assert dev_v <= 1e-6
    assert max(res_h, res_v) <= 1e-8


def _expr_corpus(n, rng):
    """Seeded random expressions, safe on the sample island."""
    def gen(depth=0):
        if depth >= 2 or rng.random() < 0.25:
            return rng.choice(["z", "conj(z)", "t",
                               f"{rng.uniform(0.3, 2.0):.3f}"])
        op = rng.choice(["add", "mul", "div", "sin", "cos", "exp",
                         "pow", "im", "log"])
        a, b = gen(depth + 1), gen(depth + 1)
        return {
            "add": f"({a} + {b})",
            "mul": f"({a} * {b})",
            "div": f"({a} / (({b})*conj({b}) + 2.5))",
            "sin": f"sin(0.7*{a})",
            "cos": f"cos(0.6*{a})",
            "exp": f"exp(0.4*{a})",
            "pow": f"(abs2(z) + t^2 + ({a})*conj({a}))^(2/3)",
            "im": f"im({a})",
            "log": f"log(abs2(z) + ({b})*conj({b}) + 1.5)",
        }[op]

    out = []
    while len(out) < n:
        text = gen()
        if any(v in text for v in ("z", "t")):
            out.append(text)
    return out


def test_criterion_09_derivative_engine_vs_finite_differences():
    rng = np.random.default_rng(20260815)
    corpus = _expr_corpus(50, rng)
    points = [(complex(rng.uniform(0.4, 1.6), rng.uniform(0.3, 1.5)),
               rng.uniform(0.5, 2.0)) for _ in range(20)]
    h = 1e-5
    worst = 0.0
    for text in corpus:
        e = E.parse(text)
        fields = {nm: E.apply_field(e, nm) for nm in ("Z", "Zbar", "T")}
        for z, t in points:
            b = {"z": z, "zb": z.conjugate(), "t": t}

            def at(dz=0.0, dt=0.0):
                zz = z + dz
                return E.evaluate(e, {"z": zz, "zb": zz.conjugate(),
                                      "t": t + dt})
            fx = (at(dz=h) - at(dz=-h)) / (2 * h)
            fy = (at(dz=1j * h) - at(dz=-1j * h)) / (2 * h)
            ft = (at(dt=h) - at(dt=-h)) / (2 * h)
            fz = 0.5 * (fx - 1j * fy)
            fzb = 0.5 * (fx + 1j * fy)
            fd = {"Z": fz + 1j * z.conjugate() * ft,
                  "Zbar": fzb - 1j * z * ft, "T": ft}
            for nm in ("Z", "Zbar", "T"):
                got = E.evaluate(fields[nm], b)
                rel = (abs(got - fd[nm])
                       / max(abs(got), abs(fd[nm]), 1e-3))
                worst = max(worst, rel)
    _line(9, f"worst rel gap={worst:.3e} over 50 exprs x 20 points x 3 "
             "fields")
    assert worst <= 1e-6


def test_criterion_10_jacobian_identity_and_negative_control():
    worst = 0.0
    for name in ("annulus-horizontal", "annulus-vertical", "shear",
                 "triple-kernel-residuals"):
        fol = load_scenario(name).foliation
        g = fol.grid(8)
        a = E.eval_array(fol.jac_a_expr, g)
        d = E.eval_array(fol.jac_det_expr, g)
        scale = np.abs(d).max()
        worst = max(worst, float(np.abs(a - d).max() / scale))

    # Phi1 = s + i p1 alone leaves d_p2 Phi1 = d_s Phi2 = 0, which
    # decouples the contact defect from both Jacobian routes: the gap
    # is identically zero even though the chart is not legendrian.  The
    # p2 coupling below is the minimal change that lets the defect
    # enter; the gap becomes exactly 2 p1.
    decoupled = Foliation.from_strings("s + i*p1", "p2", (0.0, 1.0),
                                       ((0.1, 1.0), (0.0, 1.0)))
    bad = Foliation.from_strings("s + i*p1 + p2", "p2", (0.0, 1.0),
                                 ((0.1, 1.0), (0.0, 1.0)))
    for fol in (decoupled, bad):
        resid = np.abs(E.eval_array(fol.legendrian_expr, fol.grid(8)))
        assert resid.min() >= 0.2    # both genuinely non-legendrian
    gd = decoupled.grid(8)
    decoupled_gap = float(np.abs(
        E.eval_array(decoupled.jac_a_expr, gd)
        - E.eval_array(decoupled.jac_det_expr, gd)).max())
    gb = bad.grid(8)
    gap = np.abs(E.eval_array(bad.jac_a_expr, gb)
                 - E.eval_array(bad.jac_det_expr, gb))
    expected_gap = 2.0 * np.broadcast_to(gb["p1"], gap.shape)
    min_gap = float(gap.min())
    _line(10, f"legendrian grids worst rel={worst:.3e}; decoupled chart "
              f"gap={decoupled_gap:.1e}; coupled min gap={min_gap:.3f}")
    assert decoupled_gap <= 1e-12
    assert min_gap >= 0.1
    assert np.abs(gap - expected_gap).max() <= 1e-12
