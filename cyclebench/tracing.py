"""Spans around the calls into each cyclestab module, recorded from outside.

``install()`` replaces every public function listed in TARGETS, in every
``cyclestab`` module that holds a reference to it, with a wrapper that
records one span: (name id, start, end, parent span index, count).  Spans
stay in memory; the worker writes them out when its round ends.  The
kernel's fixed-length search is split by outcome: a None result is an
absence proof (``kernel.fixed_miss``), a cycle is a hit.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute, span name); the span name's first part is its layer
TARGETS = (
    ("cyclestab.cli", "main", "cli.main"),
    ("cyclestab.formats", "parse_graph", "formats.parse_graph"),
    ("cyclestab.coloring", "parse_coloring", "coloring.parse_coloring"),
    ("cyclestab.reporting", "canonical_json", "reporting.canonical_json"),
    ("cyclestab._kernel", "find_longest_cycle", "kernel.longest"),
    ("cyclestab._kernel", "sweep_filter_range", "kernel.sweep"),
    ("cyclestab._kernel", "find_cycle_of_length", "kernel.fixed"),
    ("cyclestab.cycles", "cycle_spectrum", "cycles.cycle_spectrum"),
    ("cyclestab.cycles", "spectrum_up_to", "cycles.spectrum_up_to"),
    ("cyclestab.cycles", "longest_cycle", "cycles.longest_cycle"),
    ("cyclestab.cycles", "cycle_of_length", "cycles.cycle_of_length"),
    ("cyclestab.cycles", "is_hamiltonian", "cycles.is_hamiltonian"),
    ("cyclestab.cycles", "validate_cycle", "cycles.validate_cycle"),
    ("cyclestab.cycles", "check_erdos_gallai", "cycles.check_erdos_gallai"),
    ("cyclestab.cycles", "check_fan_lv_weng", "cycles.check_fan_lv_weng"),
    ("cyclestab.cycles", "check_bollobas_pancyclicity", "cycles.check_bollobas"),
    ("cyclestab.ramsey", "cycle_edge_masks", "ramsey.edge_masks"),
    ("cyclestab.ramsey", "ramsey_sweep", "ramsey.sweep"),
    ("cyclestab.ramsey", "ramsey_certificate", "ramsey.certificate"),
    ("cyclestab.ramsey", "verify_ramsey_certificate", "ramsey.verify"),
    ("cyclestab.ramsey", "pancyclic_color_verdict", "ramsey.verdict"),
    ("cyclestab.ramsey", "verdict_sample_sweep", "ramsey.verdict_sweep"),
    ("cyclestab.stability", "decompose_two_parts", "stability.decompose"),
    ("cyclestab.stability", "decompose_vertex_split", "stability.decompose"),
    ("cyclestab.stability", "decompose_three_parts", "stability.decompose"),
    ("cyclestab.stability", "verify_stability_certificate", "stability.verify"),
)
# class constructors: (module, class, span name)
CONSTRUCTORS = (
    ("cyclestab.graph", "Graph", "graph.build"),
    ("cyclestab.coloring", "TwoColoring", "coloring.build"),
)


_RAISED = object()  # the result of a call that raised


def _count(name: str, args, result) -> int:
    """The work count a span carries besides its one call."""
    if name == "kernel.sweep":
        return args[3] - args[2]  # counter range stop - start
    if name == "ramsey.edge_masks":
        return len(result)
    if name == "reporting.canonical_json":
        return len(result.encode())
    return 1


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        fixed = name == "kernel.fixed"
        if fixed:
            hit_id, miss_id = self._id("kernel.fixed_hit"), self._id("kernel.fixed_miss")
        else:
            name_id = self._id(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = _RAISED
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if fixed:
                    spans[index] = [miss_id if result is None else hit_id,
                                    start, end, parent, 1]
                else:
                    spans[index] = [name_id, start, end, parent,
                                    1 if result is _RAISED else _count(name, args, result)]

        traced.__wrapped__ = fn
        return traced


def install() -> Recorder:
    recorder = Recorder()
    modules = [m for key, m in list(sys.modules.items())
               if key == "cyclestab" or key.startswith("cyclestab.")]
    for module_name, attr, name in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = recorder.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for module_name, cls_name, name in CONSTRUCTORS:
        cls = getattr(sys.modules[module_name], cls_name)
        cls.__init__ = recorder.wrap(name, cls.__init__)
    return recorder
