"""Depth metrics computed by a single weighted critical-path sweep.

Every metric is the same sweep over a different increments column. A rule
gives one gate's increment: :func:`increment_rule` gives traditional
depth's (1 per unitary or measure), multi-qubit depth's (1 per multi-qubit
unitary) and gate-aware depth's (the gate name's weight); barriers and
delays add 0. The runtime's rule is :func:`gatedepth.runtime.duration`.
:func:`lower` alone applies rules to a circuit, giving each gate a row of
one increment per rule, and the sweep sets each gate's operands to
``max(operand depths) + row``. A row may be a numpy array, so one sweep of
a circuit yields every metric and its runtime, bit for bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .ir import BARRIER, DELAY, Circuit, multi_qubit

BARRIER_SKIP = "skip"
BARRIER_SYNC = "sync"


def nonnegative_number(value, label: str, error: type[ValueError] = ValueError) -> float:
    """``value`` as a float if it is a finite number >= 0; booleans are not
    numbers. Otherwise raise ``error("<label> must be ...")``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise error(f"{label} must be a number, got {value!r}")
    try:
        num = float(value)
    except OverflowError:
        num = math.inf
    if not math.isfinite(num):
        raise error(f"{label} must be finite, got {num}")
    if num < 0:
        raise error(f"{label} must be >= 0, got {num}")
    return num


def read_json(path, error: type[ValueError] = ValueError):
    """The JSON document in the UTF-8 file ``path``. Text that does not
    decode, or is nested too deep to, raises ``error("invalid JSON: ...")``;
    bytes that are not UTF-8 raise the read's ``UnicodeDecodeError``."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from exc


def write_json(path, document) -> None:
    """Write ``document`` to ``path`` as JSON indented 2, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)  # streamed, so a report is never held as one string
        fh.write("\n")


@dataclass(frozen=True)
class WeightMap:
    """Gate-name -> dimensionless weight in [0, 1] for one architecture."""

    weights: Mapping[str, float]
    architecture: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", {
            name: nonnegative_number(w, f"/weights/{name}: weight")
            for name, w in self.weights.items()
        })

    def __getitem__(self, name: str) -> float:
        return self.weights[name]

    def to_dict(self) -> dict:
        return {"architecture": self.architecture or "",
                "weights": dict(sorted(self.weights.items()))}

    @classmethod
    def from_dict(cls, data) -> "WeightMap":
        if not isinstance(data, dict):
            raise ValueError("/: weight map must be a JSON object")
        if not isinstance(data.get("weights"), dict):
            raise ValueError("/weights: required object")
        return cls(weights=data["weights"], architecture=data.get("architecture") or None)

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "WeightMap":
        return cls.from_dict(read_json(path))


class MissingWeightError(KeyError):
    """A counted gate name has no entry in the weight map."""

    def __init__(self, gate_name: str, position: int):
        self.gate_name = gate_name
        self.position = position
        super().__init__(f"no weight for gate {gate_name!r} (gate position {position})")


def sweep(circuit: Circuit, increments: Sequence, barrier: str = BARRIER_SKIP,
          width: int = 1) -> float | np.ndarray:
    """Run the critical-path sweep; ``increments[i]`` is gate ``i``'s row.

    With ``width`` 1 a row is a float and the result is the depth, a float.
    Otherwise a row is a numpy array of ``width`` increments and the result
    an array whose entry ``k`` equals a width-1 sweep of column ``k``: both
    take the same ``+`` and max in the same order. Rows are never changed in
    place, so gates may share one row object. Only touched qubits keep a
    depth. A gate on one qubit adds its row to that qubit's depth, the
    ``+`` the general step takes on the same two values. Barriers never
    increment (their row is ignored); with ``barrier="sync"`` they
    propagate the max depth across their operands, with the default
    ``"skip"`` they are ignored entirely. A sum past the largest float is
    inf, in a numpy row as in a float, with no warning; callers that report
    a depth check that it is finite.
    """
    zero, maximum = (0.0, max) if width == 1 else (np.zeros(width), np.maximum)
    depths: dict[int, float | np.ndarray] = {}
    get = depths.get
    with np.errstate(over="ignore"):
        for kind, qubits, row in zip(circuit.kinds, circuit.qubits, increments):
            if kind == BARRIER:
                if barrier != BARRIER_SYNC:
                    continue
            elif len(qubits) == 1:
                q = qubits[0]
                depths[q] = get(q, zero) + row
                continue
            top = get(qubits[0], zero)
            for q in qubits[1:]:
                top = maximum(top, get(q, zero))
            if kind != BARRIER:
                top = top + row
            for q in qubits:
                depths[q] = top
    return reduce(maximum, depths.values(), zero)


def increment_rule(metric: str, weights: Mapping | None = None):
    """The rule of ``metric``: the increment one gate adds, as a function of
    the gate's ``(name, kind, qubits, params, position=-1)``. Traditional
    depth counts 1 per unitary or measure, multi-qubit depth 1 per
    multi-qubit unitary, and gate-aware depth takes ``weights[name]``, a
    float or a numpy column, raising :class:`MissingWeightError` naming
    ``position`` for a name it lacks. Barriers and delays add 0."""
    if metric == "traditional":
        return lambda name, kind, qubits, *_: 0.0 if kind in (BARRIER, DELAY) else 1.0
    if metric == "multiqubit":
        return lambda name, kind, qubits, *_: 1.0 if multi_qubit(kind, qubits) else 0.0
    if metric != "gateaware":
        raise ValueError(f"unknown metric {metric!r}")

    def gate_aware(name, kind, qubits, params, position=-1):
        if kind in (BARRIER, DELAY):
            return 0.0
        try:
            return weights[name]
        except KeyError:
            raise MissingWeightError(name, position) from None
    return gate_aware


def lower(circuit: Circuit, rules: Sequence, rows: dict | None = None) -> list:
    """Each gate's sweep row under ``rules``, in gate order: the one rule's
    increment, or a numpy array of each rule's, in order.

    A row depends only on the gate's (name, kind, qubits) key, so it is
    built once per distinct key and kept in ``rows``; a caller may pass
    ``rows`` to share them between circuits lowered under the same rules.
    A delay's row holds its parameter, so it is built per gate and not
    kept. When a row cannot be built (a rule raises ``LookupError``), each
    rule in order is asked at each gate, with its position: the first rule
    that fails anywhere raises, at its first failing gate.
    """
    if len(rules) == 1:
        row = rules[0]
    else:
        def row(*gate):
            return np.array([rule(*gate) for rule in rules])
    rows = {} if rows is None else rows
    lowered = []
    append, get = lowered.append, rows.get
    columns = (circuit.names, circuit.kinds, circuit.qubits, circuit.params)
    try:
        for name, kind, qubits, params in zip(*columns):
            if kind == DELAY:
                append(row(name, kind, qubits, params))
                continue
            key = (name, kind, qubits)
            found = get(key)
            if found is None:
                found = rows[key] = row(name, kind, qubits, params)
            append(found)
    except LookupError:
        for rule in rules:
            for position, gate in enumerate(zip(*columns)):
                rule(*gate, position)
        raise
    return lowered


def increments(circuit: Circuit, metric: str, weights: Mapping | None = None) -> list:
    """Each gate's increment under ``metric``, in gate order: :func:`lower`
    under the metric's :func:`increment_rule`."""
    return lower(circuit, [increment_rule(metric, weights)])


def traditional_depth(circuit: Circuit, barrier: str = BARRIER_SKIP) -> int:
    """Length of the longest chain of logically dependent gates.

    Unitaries and measurements count 1; barriers and delays count 0.
    """
    return int(round(sweep(circuit, increments(circuit, "traditional"), barrier)))


def multiqubit_depth(circuit: Circuit, barrier: str = BARRIER_SKIP) -> int:
    """Depth counting only gates on two or more qubits.

    Single-qubit gates still propagate the running max without incrementing.
    """
    return int(round(sweep(circuit, increments(circuit, "multiqubit"), barrier)))


def gate_aware_depth(circuit: Circuit, weight_map: WeightMap, barrier: str = BARRIER_SKIP) -> float:
    """Weighted critical-path depth: each gate contributes its weight-map entry.

    Every unitary and measure name must be present in the map; barriers and
    delays are exempt and contribute 0.
    """
    return sweep(circuit, increments(circuit, "gateaware", weight_map.weights), barrier)
