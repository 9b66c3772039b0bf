"""Depth metrics computed by a single weighted critical-path sweep.

Every metric is gate-aware depth under its own weight map, which
:func:`metric_weights` builds from the names of the circuits compared (a
name's first gate decides whether it is multi-qubit). :func:`increment_rule`
is the one rule of every map: a gate adds its name's weight, and barriers
and delays add 0. The runtime's rule is :func:`gatedepth.runtime.duration`.
:func:`lower` alone applies rules to a circuit, giving each gate a row of
one increment per rule, and the sweep sets each gate's operands to
``max(operand depths) + row``. A row is a float under one rule and a tuple
of floats under several, so one sweep of a circuit yields every metric and
its runtime, bit for bit; the w_s grid alone sweeps numpy rows, one entry
per grid value. This module imports no numpy.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

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


def tuple_max(a: tuple, b: tuple) -> tuple:
    """The max of two tuple rows, entry by entry, as ``max(x, y)`` takes it:
    x unless y > x."""
    return tuple([y if y > x else x for x, y in zip(a, b)])


def tuple_add(a: tuple, b: tuple) -> tuple:
    """The sum of two tuple rows, entry by entry, as ``+`` of two floats."""
    return tuple(map(operator.add, a, b))


def sweep(circuit: Circuit, increments: Sequence, barrier: str = BARRIER_SKIP,
          zero=0.0, maximum=max, add=operator.add):
    """Run the critical-path sweep; ``increments[i]`` is gate ``i``'s row.

    ``zero``, ``maximum`` and ``add`` are the rows' zero, max and ``+``. The
    defaults sweep float rows, and the result is the depth, a float. Tuple
    rows of ``width`` floats take ``(0.0,) * width``, :func:`tuple_max` and
    :func:`tuple_add`; the w_s grid's numpy rows take ``np.zeros(width)``,
    ``np.maximum`` and ``np.add``. The result is then a row whose entry
    ``k`` equals a float sweep of column ``k``: both take the same ``+``
    and max in the same order. Rows are never changed in place, so gates
    may share one row object. Only touched qubits keep a depth. A gate on
    one qubit adds its row to that qubit's depth, the ``+`` the general
    step takes on the same two values. Barriers never increment (their row
    is ignored); with ``barrier="sync"`` they propagate the max depth across
    their operands, with the default ``"skip"`` they are ignored entirely.
    A sum past the largest float is inf, in a float or a tuple row with no
    warning (numpy warns unless its caller sets ``np.errstate``); callers
    that report a depth check that it is finite.
    """
    depths: dict = {}
    get = depths.get
    for kind, qubits, row in zip(circuit.kinds, circuit.qubits, increments):
        if kind == BARRIER:
            if barrier != BARRIER_SYNC:
                continue
        elif len(qubits) == 1:
            q = qubits[0]
            depths[q] = add(get(q, zero), row)
            continue
        top = get(qubits[0], zero)
        for q in qubits[1:]:
            top = maximum(top, get(q, zero))
        if kind != BARRIER:
            top = add(top, row)
        for q in qubits:
            depths[q] = top
    return reduce(maximum, depths.values(), zero)


def metric_weights(circuits: Sequence[Circuit], weights: Mapping | None = None) -> dict:
    """Each metric's weight map over the gate names of ``circuits``: 1.0 for
    every name under ``"traditional"``; under ``"multiqubit"`` 1.0 for a
    name whose first gate is a unitary on two or more qubits, else 0.0 (a
    parsed name fixes its kind and arity); ``weights`` under ``"gateaware"``."""
    first: dict = {}  # name -> (kind, qubits) of the name's first gate
    for c in circuits:
        for name in dict.fromkeys(c.names):  # a loop per distinct name, not per gate
            i = c.names.index(name)
            first.setdefault(name, (c.kinds[i], c.qubits[i]))
    return {"traditional": dict.fromkeys(first, 1.0),
            "multiqubit": {name: 1.0 if multi_qubit(*gate) else 0.0 for name, gate in first.items()},
            "gateaware": weights}


def increment_rule(weights: Mapping):
    """The rule of the weight map ``weights``: a gate's ``(name, kind,
    qubits, params, position=-1)`` adds ``weights[name]``, a float, or a
    numpy row on the w_s grid, or raises :class:`MissingWeightError` naming
    ``position``; barriers and delays add 0."""
    def rule(name, kind, qubits, params, position=-1):
        if kind in (BARRIER, DELAY):
            return 0.0
        if name not in weights:
            raise MissingWeightError(name, position)
        return weights[name]
    return rule


def lower(circuit: Circuit, rules: Sequence, rows: dict | None = None) -> list:
    """Each gate's sweep row under ``rules``, in gate order: the one rule's
    increment, or a tuple of each rule's, in order.

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
            return tuple([rule(*gate) for rule in rules])
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


def traditional_depth(circuit: Circuit, barrier: str = BARRIER_SKIP) -> int:
    """Length of the longest chain of logically dependent gates.

    Unitaries and measurements count 1; barriers and delays count 0.
    """
    weight_map = WeightMap(metric_weights([circuit])["traditional"])
    return int(round(gate_aware_depth(circuit, weight_map, barrier)))


def multiqubit_depth(circuit: Circuit, barrier: str = BARRIER_SKIP) -> int:
    """Depth counting only gates whose name :func:`metric_weights` finds multi-qubit.

    Single-qubit gates still propagate the running max without incrementing.
    """
    weight_map = WeightMap(metric_weights([circuit])["multiqubit"])
    return int(round(gate_aware_depth(circuit, weight_map, barrier)))


def gate_aware_depth(circuit: Circuit, weight_map: WeightMap, barrier: str = BARRIER_SKIP) -> float:
    """Weighted critical-path depth: each gate contributes its weight-map entry.

    Every unitary and measure name must be present in the map; barriers and
    delays are exempt and contribute 0.
    """
    return sweep(circuit, lower(circuit, [increment_rule(weight_map.weights)]), barrier)
