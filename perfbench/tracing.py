"""Spans around the public functions of each linkspace layer, recorded from
the benchmark's side.

`Tracer` rebinds each listed function in every `linkspace.*` namespace that
holds it (its home module and every module that imported it by name), so
spans nest along the real call tree.  Spans stay in memory; `summary()`
derives calls, self time, errors and ratios from them.  `canonicalize` and
`is_admissible_part` are left out on purpose: they run tens of thousands of
times per n=7 build and a wrapper would swamp their cost.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from itertools import count
from time import perf_counter_ns

#: Layer (module of src/linkspace) -> the public functions traced in it.
TRACED = {
    "linkage": ("make_linkage", "is_admissible_partition"),
    "partitions": (
        "enumerate_cyclic_partitions",
        "one_step_refinements",
        "cell_vertices",
        "parse_partition",
    ),
    "cwcomplex": ("build_complex",),
    "geometry": ("perform_surgery", "boundary_cycle", "permutohedron"),
    "topology": ("classify_linkage", "analyze"),
    "export": ("complex_to_json", "complex_from_json", "export_mesh", "report_to_json"),
    "cli": ("main",),
}

SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "raised")


class Tracer:
    """Wrappers are installed only inside `with tracer.active(op): ...`;
    outside that block the program runs its own, unwrapped functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []  # SPAN_FIELDS, appended when a span ends
        self.admissible = 0  # is_admissible_partition calls that returned True
        self.candidates = 0  # partitions returned by enumerate_cyclic_partitions
        self.bytes_out = 0  # characters rendered by the export functions
        self.op = -1
        self._stack: list[int] = []
        self._ids = count()
        self._bindings = []
        homes = {m: importlib.import_module(f"linkspace.{m}") for m in TRACED}
        holders = [sys.modules["linkspace"]] + [
            mod for key, mod in sorted(sys.modules.items()) if key.startswith("linkspace.")
        ]
        for layer, functions in TRACED.items():
            for name in functions:
                original = getattr(homes[layer], name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in holders:
                    if getattr(mod, name, None) is original:
                        self._bindings.append((mod, name, original, wrapper))

    def _observer(self, name: str):
        if name == "linkage.is_admissible_partition":
            return self._count_admissible
        if name == "partitions.enumerate_cyclic_partitions":
            return self._count_candidates
        if name.startswith("export."):
            return self._count_bytes
        return None

    def _count_admissible(self, result) -> None:
        self.admissible += bool(result)

    def _count_candidates(self, result) -> None:
        self.candidates += len(result)

    def _count_bytes(self, result) -> None:
        if isinstance(result, str):
            self.bytes_out += len(result)

    def _wrap(self, name: str, original):
        index = len(self.names)
        self.names.append(name)
        observe = self._observer(name)
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans.append((span, parent, self.op, index, start, perf_counter_ns(), True))
                stack.pop()
                raise
            spans.append((span, parent, self.op, index, start, perf_counter_ns(), False))
            stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    @contextmanager
    def active(self, op: int):
        """Trace the calls made inside the block as op `op`."""
        self.op = op
        for mod, name, _, wrapper in self._bindings:
            setattr(mod, name, wrapper)
        try:
            yield self
        finally:
            for mod, name, original, _ in self._bindings:
                setattr(mod, name, original)
            self.op = -1

    def summary(self, ops: int, linkages: int, op_ns: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.  Counts and times are
        per traced op, `*_per_linkage` per traced input vector, and
        `<layer>.self_share` is the layer's self time over `op_ns`, the
        traced ops' total latency."""
        layer_of = [n.split(".")[0] for n in self.names]
        name_of, child = {}, {}
        for span, parent, _, name, start, end, _ in self.spans:
            name_of[span] = name
            child[parent] = child.get(parent, 0) + end - start
        calls = [0] * len(self.names)
        own = [0] * len(self.names)
        errors = dict.fromkeys(TRACED, 0)
        for span, parent, _, name, start, end, raised in self.spans:
            calls[name] += 1
            own[name] += end - start - child.get(span, 0)
            # an exception escapes a layer when its caller is another layer
            if raised and (parent < 0 or layer_of[name_of[parent]] != layer_of[name]):
                errors[layer_of[name]] += 1
        ops, linkages = max(ops, 1), max(linkages, 1)
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[i] / ops, "count/op")
            out[f"{name}.self_s"] = (own[i] / 1e9 / ops, "s/op")
        checks = calls[self.names.index("linkage.is_admissible_partition")]
        out["linkage.admissible.kept_ratio"] = (self.admissible / checks if checks else 0.0, "ratio")
        out["partitions.candidates"] = (self.candidates / ops, "count/op")
        out["cwcomplex.builds_per_linkage"] = (
            calls[self.names.index("cwcomplex.build_complex")] / linkages,
            "ratio",
        )
        out["topology.analyze_per_linkage"] = (
            calls[self.names.index("topology.analyze")] / linkages,
            "ratio",
        )
        out["export.bytes_out"] = (self.bytes_out / ops, "B/op")
        for layer in TRACED:
            out[f"{layer}.errors"] = (errors[layer] / ops, "count/op")
            layer_ns = sum(t for i, t in enumerate(own) if layer_of[i] == layer)
            out[f"{layer}.self_share"] = (layer_ns / op_ns if op_ns else 0.0, "ratio")
        return out

    def dump(self) -> dict:
        return {"names": self.names, "fields": SPAN_FIELDS, "spans": self.spans}
