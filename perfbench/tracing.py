"""Spans and counts around the program's public functions.

The tracer replaces each target function, in every ``unimetric`` module
that holds a reference to it, with a wrapper that records a span: layer
name, operation id, parent span, start and end.  Counts are taken from
the same spans.  Nothing inside the program changes, and the wrappers
are only installed for the traced part of a ``--trace 1`` run, so
end-to-end figures are always measured without them.
"""

from __future__ import annotations

import json
import sys
import time

ALTERNATION = "subsets.alternating_product_minimization"
EIGENSOLVES = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
SUBSETS = ("subsets.separable_distance", "subsets.face_distance", ALTERNATION)

# (span name, module, attribute)
TARGETS = (
    ("linalg.validate_unitary", "unimetric.linalg", "validate_unitary"),
    ("metrics.sup_distance", "unimetric.metrics", "sup_distance"),
    ("metrics.distinguishability", "unimetric.metrics", "distinguishability"),
    ("circlegeom.smallest_covering_arc", "unimetric.circlegeom", "smallest_covering_arc"),
    ("circlegeom.polygon_distance_to_origin", "unimetric.circlegeom", "polygon_distance_to_origin"),
    ("circlegeom.distance_from_arc", "unimetric.circlegeom", "distance_from_arc"),
    ("numrange.numrange_origin_distance", "unimetric.numrange", "numrange_origin_distance"),
    ("subsets.separable_distance", "unimetric.subsets", "separable_distance"),
    ("subsets.face_distance", "unimetric.subsets", "face_distance"),
    (ALTERNATION, "unimetric.subsets", "alternating_product_minimization"),
    ("pauli.stabilizer_subspace", "unimetric.pauli", "stabilizer_subspace"),
    ("search.minimal_k", "unimetric.search", "minimal_k"),
    # the CLI reads matrix files through its own loader, not linalg.load_matrix
    ("linalg.load_matrix", "unimetric.cli", "_load_matrix"),
    ("cli.main", "unimetric.cli", "main"),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh"),
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
)

# every per-layer metric with its unit, in BENCHMARK.json order
PER_LAYER = (
    ("linalg.eigensolves_per_op", "count"),
    ("linalg.validate_unitary.calls_per_op", "count"),
    ("linalg.validate_unitary.ms_per_op", "ms"),
    ("linalg.load_matrix.ms_per_call", "ms"),
    ("metrics.sup_distance.self_ms_per_op", "ms"),
    ("metrics.distinguishability.self_ms_per_op", "ms"),
    ("circlegeom.ms_per_op", "ms"),
    ("numrange.calls_per_op", "count"),
    ("numrange.ms_per_call", "ms"),
    ("subsets.alternations_per_restart", "count"),
    ("subsets.self_ms_per_op", "ms"),
    ("cli.import_s", "s"),
    ("cli.main_ms_per_call", "ms"),
    ("pauli.stabilizer_subspace.ms_per_call", "ms"),
    ("search.minimal_k.ms_per_call", "ms"),
    ("host.ref_pass_ms", "ms"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans while ``op`` holds an operation id; passes through otherwise."""

    def __init__(self):
        # each span: [name, op id, parent index or -1, start ns, end ns, alternations]
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, self.op, stack[-1] if stack else -1, time.perf_counter_ns(), 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if name == ALTERNATION:
                span[5] = (len(out[3]) - 1) // 2  # history holds 2 entries per alternation
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in its module and wherever a unimetric module imported it."""
        holders = [m for k, m in list(sys.modules.items()) if k.startswith("unimetric")]
        for name, modname, attr in TARGETS:
            home = sys.modules.get(modname)
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig)
            for mod in [home] + holders:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._replaced.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._replaced):
            setattr(mod, key, orig)
        self._replaced.clear()

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer figures from spans; layers that never ran read 0."""
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    child_ns = [0] * len(spans)
    for name, _op, parent, start, end, _alt in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    outer_geom = 0.0
    alternations = 0
    for i, (name, _op, parent, start, end, alt) in enumerate(spans):
        ms = (end - start) / 1e6
        dur[name] = dur.get(name, 0.0) + ms
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + (end - start - child_ns[i]) / 1e6
        if name.startswith("circlegeom.") and not (
            parent >= 0 and spans[parent][0].startswith("circlegeom.")
        ):
            outer_geom += ms
        alternations += alt

    def per_call(name):
        return dur.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    ops = max(1, n_ops)
    restarts = calls.get(ALTERNATION, 0)
    return {
        "linalg.eigensolves_per_op": sum(calls.get(k, 0) for k in EIGENSOLVES) / ops,
        "linalg.validate_unitary.calls_per_op": calls.get("linalg.validate_unitary", 0) / ops,
        "linalg.validate_unitary.ms_per_op": dur.get("linalg.validate_unitary", 0.0) / ops,
        "linalg.load_matrix.ms_per_call": per_call("linalg.load_matrix"),
        "metrics.sup_distance.self_ms_per_op": self_ms.get("metrics.sup_distance", 0.0) / ops,
        "metrics.distinguishability.self_ms_per_op": self_ms.get("metrics.distinguishability", 0.0)
        / ops,
        "circlegeom.ms_per_op": outer_geom / ops,
        "numrange.calls_per_op": calls.get("numrange.numrange_origin_distance", 0) / ops,
        "numrange.ms_per_call": per_call("numrange.numrange_origin_distance"),
        "subsets.alternations_per_restart": alternations / restarts if restarts else 0.0,
        "subsets.self_ms_per_op": sum(self_ms.get(k, 0.0) for k in SUBSETS) / ops,
        "cli.main_ms_per_call": per_call("cli.main"),
        "pauli.stabilizer_subspace.ms_per_call": per_call("pauli.stabilizer_subspace"),
        "search.minimal_k.ms_per_call": per_call("search.minimal_k"),
    }
