"""Depth metrics computed by a single weighted critical-path sweep.

Every metric is the same sweep over a different increments column.
:func:`increment_rule` gives one gate's increment from its name, kind and
qubits: traditional depth uses 1 per unitary or measure, multi-qubit depth
1 per multi-qubit unitary, gate-aware depth the gate name's weight;
barriers and delays add 0. :func:`increments` applies it to each gate, in
gate order. The runtime (:mod:`gatedepth.runtime`) is one more column, of
durations. The sweep sets each gate's operands to ``max(operand depths) +
increment``. An increment may be a numpy array of one float per column, so
one sweep of a circuit yields every metric and its runtime, bit for bit.
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
    """The increment one gate adds under ``metric``, as a function of the
    gate's ``(name, kind, qubits)``: traditional depth counts 1 per unitary
    or measure, multi-qubit depth 1 per multi-qubit unitary, and gate-aware
    depth takes ``weights[name]``, a float or a numpy column, raising
    ``KeyError`` for a name it lacks. Barriers and delays add 0."""
    if metric == "traditional":
        return lambda name, kind, qubits: 0.0 if kind in (BARRIER, DELAY) else 1.0
    if metric == "multiqubit":
        return lambda name, kind, qubits: 1.0 if multi_qubit(kind, qubits) else 0.0
    if metric != "gateaware":
        raise ValueError(f"unknown metric {metric!r}")
    return lambda name, kind, qubits: 0.0 if kind in (BARRIER, DELAY) else weights[name]


def increments(circuit: Circuit, metric: str, weights: Mapping | None = None) -> list:
    """Each gate's increment under ``metric`` (see :func:`increment_rule`),
    in gate order; ``gateaware`` raises :class:`MissingWeightError` at the
    first gate whose name has no weight."""
    rule = increment_rule(metric, weights)
    names, kinds = circuit.names, circuit.kinds
    try:
        return list(map(rule, names, kinds, circuit.qubits))
    except KeyError as exc:
        # gates are mapped in order, so the first gate with this name is the culprit
        missing = exc.args[0]
        pos = next(i for i, (name, kind) in enumerate(zip(names, kinds))
                   if name == missing and kind not in (BARRIER, DELAY))
        raise MissingWeightError(missing, pos) from None


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
