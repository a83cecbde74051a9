"""Scenario model and runner: parse a scenario description, compute the
modulus where one is defined, execute the requested checks, and emit a
deterministic machine-readable report.

Scenarios are plain JSON.  The built-ins under data/ cover both annulus
families, the shear family, the three planar oracles, and a pure
residual battery; each carries its expected closed-form values so a run
doubles as a regression test of the whole pipeline.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from time import perf_counter

import numpy as np

from . import expr as E
from .errors import HeismodError, ScenarioError
from .foliation import Foliation, lambda_field_array, leaf_speed_fn, \
    trace_trajectory
from .heis import legendrian_residual
from .modulus import (
    _leaf_store,
    _residual_max,
    admissibility_check,
    density_energies,
    extremal_density,
    modulus_m4,
    perturbed_density,
)
from .planar import PlanarFoliation, PlanarQD, modulus_m2
from .qdiff import QuadDiff

_HEIS_CHECKS = frozenset({
    "b2", "d2prime", "d2doubleprime", "legendrian", "lambda_constancy",
    "admissibility", "perturbation", "trace_vs_closed_form"})
_PLANE_CHECKS = frozenset({"lambda_constancy"})
_EXPECTED_KEYS = frozenset({"modulus", "leaf_length", "volume"})
_DENSITY_CHECKS = frozenset({"admissibility", "perturbation"})

# fixed check thresholds; scenario tolerances.residual_tol governs the
# operator/legendrian residual rows only
LAMBDA_SPREAD_TOL = {"heisenberg": 1e-6, "plane": 1e-8}
ADMISSIBILITY_TOL = 1e-8
PERTURBATION_TOL = 1e-9
TRACE_DEV_TOL = 1e-6
TRACE_RESIDUAL_TOL = 1e-8

# the perturbation row's five directions g, each the %.6f rounding of
# c0 + cs*sin(s) + c1*p1 + c2*cos(p2) with c0, c1, c2 drawn from
# U(-0.4, 0.4) and then cs from U(0.3, 1) by np.random.default_rng(0);
# kept as strings, so a request never imports numpy.random
PERTURBATION_PROBES = (
    "0.109569 + 0.311569*sin(s) + -0.184171*p1 + -0.367221*cos(p2)",
    "0.250616 + 0.810648*sin(s) + 0.330204*p1 + 0.085309*cos(p2)",
    "0.034900 + 0.301917*sin(s) + 0.348058*p1 + 0.252683*cos(p2)",
    "0.285923 + 0.422959*sin(s) + -0.373132*p1 + 0.183724*cos(p2)",
    "0.290543 + 0.595881*sin(s) + 0.033169*p1 + -0.160230*cos(p2)",
)


@dataclass(frozen=True)
class Scenario:
    """A validated scenario description."""

    name: str
    space: str
    q: object                   # QuadDiff or PlanarQD
    foliation: object           # Foliation or PlanarFoliation
    tolerances: dict
    checks: tuple
    expected: dict


def _fail(msg: str) -> ScenarioError:
    return ScenarioError(msg)


def _real(v) -> bool:
    """True for an int or float that is finite as a float; not for bools."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def _optional(raw: dict, key: str, kind: type, name: str):
    """raw[key] if it is a `kind`; an empty one when absent or null."""
    v = raw.get(key)
    if v is None:
        return kind()
    if not isinstance(v, kind):
        what = "an object" if kind is dict else "a list"
        raise _fail(f"{name}: {key} must be {what}")
    return v


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a raw JSON object into a Scenario.

    Raises ScenarioError with a pointed message on every malformation;
    the CLI maps those to exit code 2.
    """
    if not isinstance(raw, dict):
        raise _fail("scenario must be a JSON object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise _fail("missing scenario name")
    space = raw.get("space")
    if space not in ("heisenberg", "plane"):
        raise _fail(f"{name}: space must be 'heisenberg' or 'plane'")
    q_text = raw.get("q")
    if not isinstance(q_text, str):
        raise _fail(f"{name}: q must be an expression string")
    fol_raw = raw.get("foliation")
    if not isinstance(fol_raw, dict):
        raise _fail(f"{name}: missing foliation object")

    def bounds(r):
        ok = isinstance(r, list) and len(r) == 2 and all(map(_real, r))
        return tuple(map(float, r)) if ok else None

    s_range = bounds(fol_raw.get("s_range"))
    p_raw = fol_raw.get("p_ranges")
    p_ranges = [bounds(r) for r in p_raw] if isinstance(p_raw, list) \
        else [None]
    if s_range is None or None in p_ranges:
        raise _fail(f"{name}: ranges must be [lo, hi] pairs of finite "
                    "numbers")
    for key in ("phi1", "phi2") if space == "heisenberg" else ("phi1",):
        if not isinstance(fol_raw.get(key), str):
            raise _fail(f"{name}: foliation.{key} must be an expression "
                        "string")

    try:
        if space == "heisenberg":
            if len(p_ranges) != 2:
                raise _fail(f"{name}: heisenberg charts need two p ranges")
            fol = Foliation.from_strings(
                fol_raw["phi1"], fol_raw["phi2"], s_range,
                (p_ranges[0], p_ranges[1]))
            q = QuadDiff.from_string(q_text)
        else:
            if "phi2" in fol_raw:
                raise _fail(f"{name}: phi2 is a heisenberg-only field")
            if len(p_ranges) != 1:
                raise _fail(f"{name}: plane charts take one p range")
            fol = PlanarFoliation.from_strings(fol_raw["phi1"], s_range,
                                               p_ranges[0])
            q = PlanarQD.from_string(q_text)
    except ScenarioError:
        raise
    except (HeismodError, ValueError, KeyError) as exc:
        raise _fail(f"{name}: {exc}") from exc

    tol_raw = _optional(raw, "tolerances", dict, name)
    tolerances = {"quad_tol": 1e-8, "rk_tol": 1e-9, "residual_tol": 1e-9}
    for k, v in tol_raw.items():
        if k not in tolerances:
            raise _fail(f"{name}: unknown tolerance '{k}'")
        if not isinstance(v, (int, float)) or not 0 < v < 1:
            raise _fail(f"{name}: tolerance {k} must be in (0, 1)")
        tolerances[k] = float(v)

    checks = tuple(_optional(raw, "checks", list, name))
    allowed = _HEIS_CHECKS if space == "heisenberg" else _PLANE_CHECKS
    for c in checks:
        if not isinstance(c, str):
            raise _fail(f"{name}: checks must be strings, got {c!r}")
        if c not in _HEIS_CHECKS:
            raise _fail(f"{name}: unknown check '{c}'")
        if c not in allowed:
            raise _fail(f"{name}: check '{c}' does not apply to {space}")

    expected = _optional(raw, "expected", dict, name)
    for k, v in expected.items():
        if k not in _EXPECTED_KEYS:
            raise _fail(f"{name}: unknown expected key '{k}'")
        if not (isinstance(v, dict) and "value" in v and "rtol" in v):
            raise _fail(f"{name}: expected.{k} needs value and rtol")
        if not (_real(v["value"]) and _real(v["rtol"]) and v["rtol"] > 0):
            raise _fail(f"{name}: expected.{k} needs a finite real value "
                        "and a finite rtol > 0")

    return Scenario(name, space, q, fol, tolerances, checks,
                    expected)


def load_scenario(source) -> Scenario:
    """Load a scenario from a path or a built-in name."""
    p = Path(source)
    if p.suffix == ".json" or p.exists():
        try:
            raw = json.loads(p.read_text())
        except OSError as exc:
            raise _fail(f"cannot read {source}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise _fail(f"{source} is not valid JSON: {exc}") from exc
        return scenario_from_dict(raw)
    if source in list_scenarios():
        data = resources.files("heismod").joinpath(
            "data", f"{source}.json").read_text()
        return scenario_from_dict(json.loads(data))
    raise _fail(f"no scenario file or built-in named '{source}'")


def list_scenarios() -> list:
    """Stable (sorted) names of the built-in scenarios."""
    folder = resources.files("heismod").joinpath("data")
    return sorted(f.name[:-5] for f in folder.iterdir()
                  if f.name.endswith(".json"))


# ---------------------------------------------------------------------------
# checks

def lambda_spread_stats(q, fol, n_s: int = 101, n_leaves: int = 100):
    """Worst per-leaf relative spread of lambda along s; 0 on a leaf
    where lambda vanishes, since it is constant there."""
    d = len(fol.p_box)
    m = n_leaves if d == 1 else max(2, math.isqrt(n_leaves))
    (s0, s1) = fol.s_range
    fr = np.linspace(0.0, 1.0, m + 2)[1:-1]
    s = s0 + (s1 - s0) * np.linspace(0.02, 0.98, n_s)
    grids = np.ix_(s, *(lo + (hi - lo) * fr for lo, hi in fol.p_box))
    lam = lambda_field_array(q, fol, dict(zip(("s", *fol.p_vars), grids)))
    scale = np.abs(lam).max(axis=0)
    spread = np.ptp(lam, axis=0)
    return float(np.divide(spread, scale, out=np.zeros_like(spread),
                           where=scale > 0).max())


def _cumulative_simpson(y, x):
    """Running Simpson integral of y over strictly increasing x from 0,
    bit for bit scipy's ``cumulative_simpson(y, x=x, initial=0.0)`` on
    1-D input of at least three points.  Interval k takes the quadratic
    through it and interval k+1 for even k, through it and interval k-1
    for odd k and for the last interval."""
    def ahead(f, h):
        a = h[:-1] / (h[:-1] + h[1:])
        b = a * (h[:-1] / h[1:])
        return h[:-1] / 6 * ((3 - a) * f[:-2] + (3 + b + a) * f[1:-1]
                             - b * f[2:])

    h = np.diff(x)
    back = ahead(y[::-1], h[::-1])[::-1]
    parts = np.empty(h.size)
    parts[:-1:2] = ahead(y, h)[::2]
    parts[1::2] = back[::2]
    parts[-1] = back[-1]
    return np.concatenate(([0.0], np.cumsum(parts)))


def trace_leaf_deviation(q: QuadDiff, fol: Foliation, p1: float,
                         p2: float, rk_tol: float = 1e-9):
    """(sup deviation, max residual) of the traced trajectory against
    the chart's own leaf through (p1, p2).

    The tracer parametrizes by q-arc-length and the chart by s, so the
    comparison goes through a monotone reparametrization: each traced
    sample is projected onto the leaf's (|z|, t) profile, which pins the
    matching s without importing the cumulative-length table's error.
    The deviation is then the full coordinate distance at the matched
    parameter; a Koranyi comparison would instead turn the tracer's
    O(rk_tol) vertical drift into its square root and swamp everything.
    """
    (s0, s1) = fol.s_range
    span = s1 - s0
    grid = np.linspace(s0 + 0.02 * span, s1 - 0.02 * span, 16385)
    ones = np.ones_like(grid)
    binding = {"s": grid, "p1": p1 * ones, "p2": p2 * ones}
    speed = leaf_speed_fn(q, fol)
    v = np.ravel(speed(binding))
    sigma = _cumulative_simpson(v, grid)
    z_ref = np.ravel(np.broadcast_to(
        E.eval_array(fol.phi1, binding), grid.shape))
    t_ref = np.ravel(np.broadcast_to(
        E.eval_array(fol.phi2, binding), grid.shape)).real

    i_a = int(0.25 * grid.size)
    i_b = int(0.75 * grid.size)
    start = fol.point_at(grid[i_a], p1, p2)
    leaf_dir = E.evaluate(fol.d_s1, {"s": grid[i_a], "p1": p1, "p2": p2})
    # the tracer starts along exp(-i arg q(start)/2), q evaluated as it
    # does (no checked errors); run it the leaf's way
    q0 = E.eval_array(q.coeff, {"z": start.z, "zb": start.z.conjugate(),
                                "t": start.t})
    step = cmath.exp(-0.5j * cmath.phase(complex(q0)))
    path = trace_trajectory(
        q, start, -1 if (step.conjugate() * leaf_dir).real < 0 else 1,
        rk_tol, max_length=sigma[i_b] - sigma[i_a])

    pts = np.array([[abs(pt.z), pt.t, pt.z.real, pt.z.imag]
                    for _, pt, _ in path.samples])
    # profile distance^2 to the reference polyline, evaluated on a
    # window around the arclength-based guess of the matching node
    guess = np.searchsorted(grid, np.interp(
        sigma[i_a] + path.params(), sigma, grid))
    scale = max(np.abs(z_ref).max(), np.abs(t_ref).max())
    dev = 0.0
    for k, j in enumerate(guess):
        lo, hi = max(j - 8, 0), min(j + 9, grid.size)
        d2 = ((np.abs(z_ref[lo:hi]) - pts[k, 0]) ** 2
              + (t_ref[lo:hi] - pts[k, 1]) ** 2)
        m = lo + int(np.argmin(d2))
        sm = grid[m]
        if 0 < m < grid.size - 1:
            a, b, c = d2[m - 1 - lo], d2[m - lo], d2[m + 1 - lo]
            denom = a - 2 * b + c
            if denom > 1e-30 * scale ** 2:
                sm += 0.5 * (a - c) / denom * (grid[1] - grid[0])
        bref = {"s": sm, "p1": p1, "p2": p2}
        zr = complex(E.evaluate(fol.phi1, bref))
        tr = complex(E.evaluate(fol.phi2, bref)).real
        dev = max(dev, math.hypot(abs(zr - (pts[k, 2] + 1j * pts[k, 3])),
                                  tr - pts[k, 1]))
    resid = max(abs(legendrian_residual(pt.z, tan))
                for _, pt, tan in path.samples)
    return dev, resid


def _check_rows(scn: Scenario, ladder: dict, quad_tol: float, rho,
                rk_tol: float) -> list:
    """Execute the requested checks; one dict per row (two for traces).

    `ladder` maps each tolerance level to its modulus report (empty when
    no modulus was needed) and `rho` is the family's extremal density
    (None unless a density check is requested).  The five perturbation
    probes run as one batched energy integral at the ladder's middle
    level 10*quad_tol and are measured against that level's own modulus.
    """
    q, fol = scn.q, scn.foliation
    report = ladder.get(quad_tol)
    probe_tol = 10.0 * quad_tol
    rtol = scn.tolerances["residual_tol"]
    rows = []

    def row(name, value, threshold, ok):
        rows.append({"name": name, "pass": bool(ok),
                     "value": float(value), "threshold": float(threshold)})

    for c in scn.checks:
        if c in ("b2", "d2prime", "d2doubleprime"):
            worst = _residual_max(fol, getattr(q, f"{c}_expr"))
            row(c, worst, rtol, worst <= rtol)
        elif c == "legendrian":
            worst = float(np.abs(E.eval_array(
                fol.legendrian_expr, fol.grid(8))).max())
            row(c, worst, rtol, worst <= rtol)
        elif c == "lambda_constancy":
            spread = lambda_spread_stats(q, fol)
            tol = LAMBDA_SPREAD_TOL[scn.space]
            row(c, spread, tol, spread <= tol)
        elif c == "admissibility":
            mn, _ = admissibility_check(rho)
            row(c, mn, ADMISSIBILITY_TOL, mn >= 1.0 - ADMISSIBILITY_TOL)
        elif c == "perturbation":
            probes = [perturbed_density(rho, g, 0.1)
                      for g in PERTURBATION_PROBES]
            worst_ratio = min(e / ladder[probe_tol].modulus for e in
                              density_energies(probes, tol=probe_tol))
            row(c, worst_ratio, PERTURBATION_TOL,
                worst_ratio >= 1.0 - PERTURBATION_TOL)
        elif c == "trace_vs_closed_form":
            (a0, a1), (b0, b1) = fol.p_box
            dev, resid = trace_leaf_deviation(
                q, fol, 0.5 * (a0 + a1), 0.5 * (b0 + b1), rk_tol)
            row(c, dev, TRACE_DEV_TOL, dev <= TRACE_DEV_TOL)
            row("trace_residual", resid, TRACE_RESIDUAL_TOL,
                resid <= TRACE_RESIDUAL_TOL)

    for key, gate in sorted(scn.expected.items()):
        if report is None:
            row(f"expected_{key}", math.nan, gate["rtol"], False)
            continue
        if key == "modulus":
            got = report.modulus
        elif key == "leaf_length":
            got = report.leaf_length_stats[2]
        else:
            got = report.meta["q_volume"]
        want, tol = float(gate["value"]), float(gate["rtol"])
        row(f"expected_{key}", got, tol,
            abs(got - want) <= tol * abs(want))
    return rows


def _needs_modulus(scn: Scenario) -> bool:
    return bool(scn.expected) or bool(_DENSITY_CHECKS & set(scn.checks))


@dataclass(frozen=True)
class RunReport:
    """Everything a scenario run produced, JSON-ready."""

    name: str
    modulus_report: object      # ModulusReport or None
    checks: list
    convergence: list
    wall_clock_s: float
    started: str

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.checks)

    def to_json_dict(self) -> dict:
        rep = self.modulus_report
        return {
            "name": self.name,
            "modulus": None if rep is None else rep.modulus,
            "error_estimate": None if rep is None else rep.error_estimate,
            "checks": self.checks,
            "convergence": self.convergence,
            "timestamp": {"started": self.started,
                          "wall_clock_s": self.wall_clock_s},
        }


def run_scenario(scn: Scenario, *, quad_tol: float | None = None,
                 rk_tol: float | None = None,
                 override_b2_check: bool = False) -> RunReport:
    """Compute, check, and package one scenario.

    The request runs in one leaf store (`heismod.modulus._leaf_store`):
    its tolerance ladder runs tightest first, so the looser levels are
    served that level's report (their meta names it as ``served_from``)
    and the density checks read the leaves it integrated; the
    convergence table still lists the levels loosest first."""
    t0 = perf_counter()
    started = datetime.now(timezone.utc).isoformat()
    tol = quad_tol if quad_tol is not None else scn.tolerances["quad_tol"]
    rk = rk_tol if rk_tol is not None else scn.tolerances["rk_tol"]

    with _leaf_store():
        ladder = {}
        if _needs_modulus(scn):
            # tightest first, so the looser levels are served its report
            for level in (tol, 10.0 * tol, 100.0 * tol):
                if scn.space == "heisenberg":
                    ladder[level] = modulus_m4(
                        scn.q, scn.foliation, tol=level,
                        override_b2_check=override_b2_check)
                else:
                    ladder[level] = modulus_m2(scn.q, scn.foliation,
                                               tol=level)
        rho = None
        if _DENSITY_CHECKS & set(scn.checks):
            rho = extremal_density(scn.q, scn.foliation)
        checks = _check_rows(scn, ladder, tol, rho, rk)
    return RunReport(scn.name, ladder.get(tol), checks,
                     [[lv, r.modulus] for lv, r in reversed(ladder.items())],
                     perf_counter() - t0, started)
