"""Spans around the public functions the CLI calls, installed by rebinding.

``gatedepth.cli`` and ``gatedepth.compare`` bind the functions they call at
import time (``from .qasm import parse_file``), so a span wrapper replaces
the name in the importing module's namespace. ``DurationTable.lookup`` runs
once per gate, so it only counts (calls, exact-entry hits), without spans.

A span is ``[call_id, parent_index, name, start, end]``; spans of one CLI
call share ``call_id``. They stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict


def _parsed(counts, args, circuit):
    counts.update({"qasm.gates": len(circuit.gates), "qasm.bytes": os.path.getsize(args[0])})


def _swept(counts, args, result):
    counts["metrics.gates_swept"] += len(args[0].gates)


def _grid(counts, args, result):
    _, tables, grid = args[:3]
    counts["compare.grid_points"] += len(tables) * len(grid)


def _pairs(counts, args, result):
    counts["compare.pairs"] += len(result)


# (module, attribute, span name, counter hook)
TARGETS = [
    ("gatedepth.cli", "main", "cli.main", None),
    ("gatedepth.cli", "parse_file", "qasm.parse_file", _parsed),
    ("gatedepth.cli", "validate", "ir.validate", None),
    ("gatedepth.cli", "traditional_depth", "metrics.traditional_depth", _swept),
    ("gatedepth.cli", "multiqubit_depth", "metrics.multiqubit_depth", _swept),
    ("gatedepth.cli", "gate_aware_depth", "metrics.gate_aware_depth", _swept),
    ("gatedepth.cli", "estimate_runtime", "runtime.estimate_runtime", None),
    ("gatedepth.cli", "load_duration_table", "calibration.load_duration_table", None),
    ("gatedepth.cli", "configure_weights", "calibration.configure_weights", None),
    ("gatedepth.cli", "all_pairs", "compare.all_pairs", _pairs),
    ("gatedepth.cli", "identification_accuracy", "compare.identification_accuracy", None),
    ("gatedepth.cli", "summarize_distribution", "compare.summarize_distribution", None),
    ("gatedepth.cli", "sweep_single_qubit_weight", "compare.sweep_single_qubit_weight", _grid),
    ("gatedepth.compare", "gate_aware_depth", "metrics.gate_aware_depth", _swept),
    ("gatedepth.compare", "estimate_runtime", "runtime.estimate_runtime", None),
    ("gatedepth.compare", "all_pairs", "compare.all_pairs", _pairs),
    ("gatedepth.compare", "summarize_distribution", "compare.summarize_distribution", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.call_id = 0
        self._stack: list[int] = []
        self._round_start = 0

    def begin_round(self) -> None:
        self._round_start = len(self.spans)
        self.counts.clear()

    def install(self, modules: dict) -> None:
        for module, attr, name, hook in TARGETS:
            owner = modules[module]
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, hook))
        table_cls = modules["gatedepth.calibration"].DurationTable
        lookup, counts = table_cls.lookup, self.counts

        @functools.wraps(lookup)
        def counted_lookup(table, gate_name, qubits):
            counts["calibration.lookup.calls"] += 1
            if (gate_name, tuple(qubits)) in table.entries:
                counts["calibration.lookup.exact"] += 1
            return lookup(table, gate_name, qubits)

        table_cls.lookup = counted_lookup

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.call_id, stack[-1] if stack else -1, name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def summarize(self) -> dict:
        """Self time and call count per span name, and the counters, of the
        round since :meth:`begin_round`."""
        first_span = self._round_start
        covered: defaultdict = defaultdict(float)
        for span in self.spans[first_span:]:
            if span[1] >= 0:
                covered[span[1]] += span[4] - span[3]
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        sweep_depth_calls = 0
        for i, span in enumerate(self.spans[first_span:], first_span):
            self_s[span[2]] += span[4] - span[3] - covered[i]
            calls[span[2]] += 1
            if (span[2] == "metrics.gate_aware_depth" and span[1] >= 0
                    and self.spans[span[1]][2] == "compare.sweep_single_qubit_weight"):
                sweep_depth_calls += 1
        counts = dict(self.counts, sweep_depth_calls=sweep_depth_calls)
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": counts}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
