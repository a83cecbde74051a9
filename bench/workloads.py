"""Seeded scenario generators and reference oracles for the benchmark.

Every request is a plain scenario dict, built from a built-in scenario
JSON under ``src/heismod/data`` and rewritten by a seeded draw:

``annulus-horizontal`` / ``annulus-vertical``
    The outer Koranyi radius R of the annulus 1 <= |(z, t)| <= R moves
    in a narrow band around the built-in R = 2 (seed 0 and its first
    request are the built-in, bit for bit).  The dilation parameter of
    either chart spans log(R^2), so the expected values follow from the
    pinned ones by scaling laws: modulus and q-volume are linear in that
    span on the horizontal family; on the vertical family the q-volume
    is linear and the modulus scales as span^-3.

``family-sweep``
    The five small built-ins, each rewritten under a dilation by a fresh
    factor c in [0.5, 2]: the plane map w -> c*w with q' = c^-2 q(w/c),
    or the Heisenberg dilation (z, t) -> (c*z, c^2*t) with
    q' = c^-2 q(z/c, t/c^2).  Both are conformal, so modulus, leaf
    lengths and q-volume are unchanged and the pinned expected values
    still gate every request.  Each cycle of five runs every family
    once, in a seeded order, so every run has the same mix.

This module uses only the standard library, so a worker can import it
without paying for numpy or mpmath in its set-up time.  `reference`
imports mpmath lazily.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "heismod" / "data"

ANNULUS = ("annulus-horizontal", "annulus-vertical")
SWEEP_FAMILIES = ("shear", "plane-rectangle", "plane-annulus-radial",
                  "plane-annulus-circular", "triple-kernel-residuals")
WORKLOADS = ANNULUS + ("family-sweep",)

R_BAND = (1.95, 2.05)
C_BAND = (0.5, 2.0)


def builtin(name: str) -> dict:
    """The built-in scenario dict, read from the source tree."""
    return json.loads((DATA / f"{name}.json").read_text())


def _span(raw: dict) -> float:
    """Width of the range that carries the radial dilation."""
    fol = raw["foliation"]
    lo, hi = (fol["p_ranges"][0] if raw["name"] == "annulus-horizontal"
              else fol["s_range"])
    return hi - lo


def annulus_scenario(name: str, radius: float) -> dict:
    """The annulus family `name` between Koranyi radii 1 and `radius`."""
    raw = builtin(name)
    base = _span(raw)
    span = 2.0 * math.log(radius)
    fol = raw["foliation"]
    if name == "annulus-horizontal":
        fol["p_ranges"][0] = [0.0, span]
    else:
        fol["s_range"] = [0.0, span]
    ratio = span / base
    exp = raw["expected"]
    exp["volume"]["value"] *= ratio
    if name == "annulus-horizontal":
        exp["modulus"]["value"] *= ratio
    else:
        exp["modulus"]["value"] /= ratio ** 3
    return raw


def requests(workload: str, seed: int):
    """Endless stream of (family, parameter, scenario dict) requests.

    The parameter is R for the annulus workloads and c for family-sweep.
    """
    if workload == "family-sweep":
        yield from _sweep(seed)
        return
    rng = random.Random(f"{workload}:{seed}")
    if seed == 0:
        yield workload, 2.0, annulus_scenario(workload, 2.0)
    while True:
        radius = rng.uniform(*R_BAND)
        yield workload, radius, annulus_scenario(workload, radius)


def _subst(text: str, mapping: dict) -> str:
    pattern = r"\b(" + "|".join(mapping) + r")\b"
    return re.sub(pattern, lambda m: mapping[m.group(1)], text)


def dilated(raw: dict, c: float) -> dict:
    """`raw` pushed forward by the conformal dilation with factor c."""
    out = json.loads(json.dumps(raw))
    fol = out["foliation"]
    k = f"{c!r}"
    k2 = f"{c * c!r}"
    if raw["space"] == "plane":
        q = _subst(raw["q"], {"w": f"(w/{k})"})
        fol["phi1"] = f"{k}*({fol['phi1']})"
    else:
        q = _subst(raw["q"], {"z": f"(z/{k})", "t": f"(t/{k2})"})
        fol["phi1"] = f"{k}*({fol['phi1']})"
        fol["phi2"] = f"{k2}*({fol['phi2']})"
    out["q"] = f"{c ** -2.0!r}*({q})"
    return out


def _sweep(seed: int):
    rng = random.Random(f"family-sweep:{seed}")
    bases = {name: builtin(name) for name in SWEEP_FAMILIES}
    while True:
        order = list(SWEEP_FAMILIES)
        rng.shuffle(order)
        for name in order:
            c = rng.uniform(*C_BAND)
            yield name, c, dilated(bases[name], c)


# ---------------------------------------------------------------------------
# reference moduli for max_err_ratio


def reference(raw: dict) -> float | None:
    """30-digit reference modulus of a generated request, or None.

    Dilated sweep families share the reference of their built-in, as the
    modulus is a conformal invariant.
    """
    import mpmath as mp

    mp.mp.dps = 30
    name = raw["name"]
    fol = raw["foliation"]
    (s0, s1) = (mp.mpf(x) for x in fol["s_range"])
    ps = [[mp.mpf(x) for x in r] for r in fol["p_ranges"]]
    if name == "annulus-horizontal":
        c = mp.sqrt(mp.pi) / 2 * mp.gamma(mp.mpf(1) / 6) \
            / mp.gamma(mp.mpf(2) / 3)
        return float(2 * mp.pi * (ps[0][1] - ps[0][0]) / c ** 3)
    if name == "annulus-vertical":
        base = builtin(name)
        pinned = mp.mpf(base["expected"]["modulus"]["value"])
        return float(pinned * (mp.mpf(_span(base)) / (s1 - s0)) ** 3)
    if name == "plane-rectangle":
        return float((ps[0][1] - ps[0][0]) / (s1 - s0))
    if name == "plane-annulus-radial":
        return float(2 * mp.pi / mp.log(s1 / s0))
    if name == "plane-annulus-circular":
        return float(mp.log(ps[0][1] / ps[0][0]) / (2 * mp.pi))
    if name == "shear":
        return float((ps[0][1] - ps[0][0]) * (ps[1][1] - ps[1][0])
                     / (s1 - s0) ** 3)
    return None
