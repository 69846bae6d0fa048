"""Span tracer for the benchmark's traced run.

The tracer wraps the listed program functions from outside the package: each
wrapper records one span (name, start, end, parent span) in flat arrays kept
in memory, and self times are computed from the spans after the pass.  A
function is wrapped at every module attribute that callers reach it through,
so ``from .reps import j_family`` bindings in other modules are covered too.
With ``count_fractions`` the tracer also wraps ``Fraction.__new__`` and
counts exact-number constructions against the layer of the innermost open
span.  That wrapper costs about a microsecond per Fraction, so the traced run
takes self times from one pass without it and the counts from a second pass.

Timed runs never install the tracer; ``Tracer.remove`` undoes every patch.
"""

from __future__ import annotations

import fractions
import functools
import sys
import time
from array import array
from math import comb

# layer -> metric name -> attribute path inside the layer's module
LAYERS = {
    "reps": {
        "build_even_rep": "build_even_rep",
        "j_family": "j_family",
        "evaluate": "evaluate",
        "triality_map": "triality_map",
    },
    "structure": {
        "from_json": "EvenCliffordStructure.from_json",
        "verify_relations": "verify_relations",
        "verify_orthogonality": "verify_orthogonality",
        "split_rank4": "split_rank4",
        "extend_hodge": "extend_hodge",
        "universal_extension": "universal_extension",
        "morphism_call": "EvenAlgebraMorphism.__call__",
    },
    "curvature": {
        "build_model": "build_model",
        "verify_parallel_identities": "verify_parallel_identities",
        "verify_cc_normalization": "verify_cc_normalization",
        "lambda2_spectrum": "lambda2_spectrum",
        "centralizer_dim": "centralizer_dim",
    },
    "classify": {
        "exclusion_scan": "exclusion_scan",
        "case1_n8": "case1_n8",
        "check_conditions": "check_conditions",
        "tables_json": "tables_json",
        "table_markdown": "table_markdown",
    },
    "blades": {"geometric_product": "geometric_product"},
    "linalg": {
        "imatmul": "imatmul",
        "rref": "rref",
        "rank": "rank",
        "nullspace": "nullspace",
        "inverse": "inverse",
        "rank_mod_p": "rank_mod_p",
    },
}

# the command line front end is one span; its self time is everything
# cli.main does outside the listed functions
CLI_LAYER = "cli"
FRACTION_LAYERS = (CLI_LAYER, *LAYERS)
OUTSIDE = "outside"


def relation_identities(r: int) -> int:
    """Identities the relation suite checks at rank r."""
    pairs = comb(r, 2)
    return 2 * pairs + r * (r - 1) * (r - 2) + 3 * comb(r, 4)


def orthogonality_identities(r: int) -> int:
    """Trace pairings the orthogonality suite asserts at rank r (the
    disjoint pairings at r = 4 are reported, not asserted)."""
    disjoint = 0 if r == 4 else 3 * comb(r, 4)
    return r * comb(r - 1, 2) + disjoint


def per_layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in report order."""
    names = []
    for layer, funcs in LAYERS.items():
        for func in funcs:
            names.append((f"{layer}.{func}.self_s", "s"))
            names.append((f"{layer}.{func}.calls", "count"))
    names.append(("cli.self_s", "s"))
    names.append(("cli.calls", "count"))
    names.extend((f"{layer}.fractions", "count") for layer in FRACTION_LAYERS)
    names.append(("structure.identities_checked", "count"))
    names.append(("reps.family_mb", "MB"))
    names.extend(
        [
            ("trace.wall_s", "s"),
            ("trace.overhead_s", "s"),
            ("trace.unattributed_s", "s"),
            ("trace.spans", "count"),
        ]
    )
    return names


class Tracer:
    def __init__(self, count_fractions: bool = False):
        self.count_fractions = count_fractions
        self.layer_names = [OUTSIDE, *FRACTION_LAYERS]
        self.span_names: list[str] = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack = [-1]
        self.layer_stack = [0]
        self.fractions = [0] * len(self.layer_names)
        self.identities = 0
        self.family_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, span_name: str, layer: str, fn, count=None):
        name_id = len(self.span_names)
        self.span_names.append(span_name)
        layer_id = self.layer_names.index(layer)
        names, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, layer_stack = self.stack, self.layer_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(*args)
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            layer_stack.append(layer_id)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                layer_stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, modules, fn, wrapped) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def _counter(self, layer: str, func: str):
        if (layer, func) == ("structure", "verify_relations"):
            return lambda s: self._add_identities(relation_identities(s.r))
        if (layer, func) == ("structure", "verify_orthogonality"):
            return lambda s: self._add_identities(orthogonality_identities(s.r))
        if (layer, func) == ("reps", "j_family"):
            return self._add_family
        return None

    def _add_identities(self, k: int) -> None:
        self.identities += k

    def _add_family(self, rep) -> None:
        self.family_bytes += comb(rep.rank, 2) * rep.dim * rep.dim * 8

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "clifflab"]
        by_name = {m.__name__: m for m in modules}
        for layer, funcs in LAYERS.items():
            module = by_name[f"clifflab.{layer}"]
            for func, path in funcs.items():
                span_name = f"{layer}.{func}"
                count = self._counter(layer, func)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(span_name, layer, raw.__func__, count))
                    else:
                        wrapped = self._wrap(span_name, layer, raw, count)
                    self._set(owner, attr, wrapped)
                else:
                    fn = getattr(module, path)
                    self._patch_function(modules, fn, self._wrap(span_name, layer, fn, count))
        cli = by_name["clifflab.cli"]
        self._patch_function(modules, cli.main, self._wrap(CLI_LAYER, CLI_LAYER, cli.main))

        if not self.count_fractions:
            return
        counts, layer_stack = self.fractions, self.layer_stack
        frac = fractions.Fraction
        raw_new = frac.__dict__["__new__"]
        new = raw_new.__func__ if isinstance(raw_new, staticmethod) else raw_new

        def counting_new(cls, *args, **kwargs):
            counts[layer_stack[-1]] += 1
            return new(cls, *args, **kwargs)

        self._undo.append((frac, "__new__", raw_new))
        frac.__new__ = counting_new

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans of one traced pass."""
        starts, ends, parents = self.starts, self.ends, self.parents
        self_time = [e - s for s, e in zip(starts, ends)]
        for sid, parent in enumerate(parents):
            if parent >= 0:
                self_time[parent] -= ends[sid] - starts[sid]
        total = {name: 0.0 for name in self.span_names}
        calls = {name: 0 for name in self.span_names}
        for sid, name_id in enumerate(self.name_ids):
            name = self.span_names[name_id]
            total[name] += self_time[sid]
            calls[name] += 1
        out: dict[str, float] = {}
        for layer, funcs in LAYERS.items():
            for func in funcs:
                out[f"{layer}.{func}.self_s"] = total[f"{layer}.{func}"]
                out[f"{layer}.{func}.calls"] = calls[f"{layer}.{func}"]
        out["cli.self_s"] = total[CLI_LAYER]
        out["cli.calls"] = calls[CLI_LAYER]
        out["structure.identities_checked"] = self.identities
        out["reps.family_mb"] = self.family_bytes / 1e6
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.unattributed_s"] = traced_wall - sum(total.values())
        out["trace.spans"] = len(starts)
        return out

    def fraction_metrics(self) -> dict[str, int]:
        return {f"{layer}.fractions": self.fractions[self.layer_names.index(layer)] for layer in FRACTION_LAYERS}
