"""Span tracer for the benchmark's traced run.

`install` wraps the public entry points of every heismod layer from the
outside.  A function is re-bound at every module that holds it (the
package re-exports names, and e.g. `integrate_batch` is imported by name
into `modulus`, `foliation` and `planar`), so no call escapes the
wrapper.  Spans stay in memory with their parent span and request id and
are aggregated, and optionally written out, when the run ends.

Aggregates per span name, per request:

``calls``    spans recorded;
``total_s``  inclusive time of the spans with no same-name ancestor, so
             a recursive layer (integrate_batch through its p-stages) is
             not counted twice;
``self_s``   span time not covered by direct child spans.

The symbolic functions of `expr` share one name, ``expr.symbolic``, and
only their outermost call is recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (span name, module, attribute); a class entry traces its constructor
SPANS = (
    ("scenarios.run_scenario", "scenarios", "run_scenario"),
    ("scenarios.scenario_from_dict", "scenarios", "scenario_from_dict"),
    ("scenarios.lambda_spread_stats", "scenarios", "lambda_spread_stats"),
    ("scenarios.trace_leaf_deviation", "scenarios", "trace_leaf_deviation"),
    ("modulus.modulus_m4", "modulus", "modulus_m4"),
    ("modulus.LeafLengthField", "modulus", "LeafLengthField"),
    ("modulus.extremal_density", "modulus", "extremal_density"),
    ("modulus.admissibility_check", "modulus", "admissibility_check"),
    ("modulus.perturbation_probe", "modulus", "perturbation_probe"),
    ("modulus.density_energy", "modulus", "density_energy"),
    ("planar.modulus_m2", "planar", "modulus_m2"),
    ("foliation.leaf_length_batch", "foliation", "leaf_length_batch"),
    ("foliation.check_horizontal", "foliation", "check_horizontal"),
    ("foliation.trace_trajectory", "foliation", "trace_trajectory"),
    ("quadrature.integrate_batch", "quadrature", "integrate_batch"),
    ("expr.eval_array", "expr", "eval_array"),
    ("expr.symbolic", "expr", "parse"),
    ("expr.symbolic", "expr", "diff"),
    ("expr.symbolic", "expr", "conj_expr"),
    ("expr.symbolic", "expr", "substitute"),
    ("expr.symbolic", "expr", "apply_field"),
)
# cached properties of QuadDiff that build the kernel operators
KERNEL_PROPS = ("b2_expr", "d2prime_expr", "d2doubleprime_expr")
KERNEL_SPAN = "qdiff.kernel_exprs"
NAMES = tuple(dict.fromkeys([n for n, _, _ in SPANS] + [KERNEL_SPAN]))
MODULUS_SPANS = ("modulus.modulus_m4", "planar.modulus_m2")
SYMBOLIC = "expr.symbolic"


class Tracer:
    """Records one span per wrapped call; single-threaded."""

    def __init__(self):
        self.spans = []         # [name, parent, request, t0, t1, work, nested]
        self._stack = []
        self._open = dict.fromkeys(NAMES, 0)
        self.request = -1
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name):
        stack, spans, open_ = self._stack, self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == SYMBOLIC and open_[SYMBOLIC]:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, self.request,
                    0.0, 0.0, 0, open_[name] > 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            open_[name] += 1
            span[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                open_[name] -= 1
                stack.pop()
            span[5] = _work(name, out)
            return out
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every entry point at every binding site under heismod."""
        importlib.import_module("heismod")
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "heismod" or k.startswith("heismod.")]
        for name, modname, attr in SPANS:
            home = importlib.import_module(f"heismod.{modname}")
            orig = getattr(home, attr)
            if isinstance(orig, type):
                init = orig.__init__
                self._set(orig, "__init__", self.wrap(init, name), init)
                continue
            new = self.wrap(orig, name)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, new, orig)
        qd = importlib.import_module("heismod.qdiff").QuadDiff
        for prop in KERNEL_PROPS:
            old = qd.__dict__[prop]
            new = functools.cached_property(self.wrap(old.func, KERNEL_SPAN))
            new.__set_name__(qd, prop)
            self._set(qd, prop, new, old)

    def _set(self, owner, key, new, old):
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def uninstall(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)

    # -- aggregation -------------------------------------------------------

    def aggregate(self, requests) -> dict:
        """Per-request means over the given request ids."""
        keep = set(requests)
        n = max(len(keep), 1)
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[1] >= 0:
                child[sp[1]] += sp[4] - sp[3]
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = 0.0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        evals = points = s_evals = p_evals = ladder = 0
        for i, sp in enumerate(self.spans):
            name, parent, req, t0, t1, work, nested = sp
            if req not in keep:
                continue
            dur = t1 - t0
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[i]
            if not nested:
                out[f"{name}.total_s"] += dur
            if name == "quadrature.integrate_batch":
                evals += work
            elif name == "expr.eval_array":
                points += work
            elif name in MODULUS_SPANS and work:
                s_evals += work[0]
                p_evals += work[1]
                if parent >= 0 and \
                        self.spans[parent][0] == "scenarios.run_scenario":
                    ladder += 1
        out = {k: v / n for k, v in out.items()}
        eval_self = out["expr.eval_array.self_s"]
        out.update({
            "quadrature.integrate_batch.evals": evals / n,
            "expr.eval_array.points": points / n,
            "expr.eval_array.points_per_s":
                points / n / eval_self if eval_self > 0 else 0.0,
            "modulus.s_evals": s_evals / n,
            "modulus.p_evals": p_evals / n,
            "scenarios.modulus_calls_per_request": ladder / n,
            "trace.spans_per_request":
                sum(1 for sp in self.spans if sp[2] in keep) / n,
        })
        return out

    def dump(self, path):
        """Write the raw spans as JSON: field names, then one list per span."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "request", "t0", "t1",
                                  "work", "nested"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _work(name, out):
    """Work done by one call: evaluations, points or (s, p) evals."""
    if name == "quadrature.integrate_batch":
        return int(out.n_evals)
    if name == "expr.eval_array":
        return int(getattr(out, "size", 1))
    if name in MODULUS_SPANS:
        return (int(out.meta.get("s_evals", 0)),
                int(out.meta.get("p_evals", 0)))
    return 0
