"""Moduli of legendrian curve families in the Heisenberg group.

The package computes the 4-modulus of a foliation-by-horizontal-curves of
a quadratic differential on the Heisenberg group (and the classical planar
2-modulus as a cross-check), traces horizontal trajectories, and verifies
the kernel conditions that make a differential's modulus problem exact.
"""

from .errors import HeismodError
from .expr import (
    Expr,
    apply_field,
    conj_expr,
    diff,
    eval_array,
    evaluate,
    free_vars,
    parse,
    substitute,
    to_string,
)
from .foliation import Foliation, LegendrianPath, trace_trajectory
from .heis import (
    HPoint,
    HTangent,
    dilate,
    group_inv,
    group_mul,
    koranyi_distance,
    koranyi_norm,
    legendrian_residual,
)
from .modulus import (
    ModulusReport,
    density_energies,
    density_energy,
    extremal_density,
    modulus_m4,
    q_volume,
)
from .planar import PlanarFoliation, PlanarQD, modulus_m2
from .qdiff import QuadDiff
from .scenarios import (
    RunReport,
    Scenario,
    list_scenarios,
    load_scenario,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Expr", "parse", "to_string", "evaluate", "eval_array", "diff",
    "conj_expr", "substitute", "apply_field", "free_vars",
    "HPoint", "HTangent", "group_mul", "group_inv", "koranyi_norm",
    "koranyi_distance", "dilate", "legendrian_residual",
    "QuadDiff", "Foliation", "LegendrianPath", "trace_trajectory",
    "ModulusReport", "modulus_m4", "q_volume", "extremal_density",
    "density_energy", "density_energies", "PlanarQD", "PlanarFoliation",
    "modulus_m2",
    "Scenario", "RunReport", "list_scenarios", "load_scenario",
    "run_scenario", "HeismodError", "__version__",
]
