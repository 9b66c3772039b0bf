"""Depth metrics computed by a single weighted critical-path sweep.

All three metrics share one algorithm: sweep the gate list in order, keep a
running depth per qubit, and for each counted gate set its operands' depths
to ``max(operand depths) + increment``. The metrics differ only in the
increment: 1 for traditional depth, 1/0 for multi-qubit depth, and a
per-gate-name weight for gate-aware depth.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping

from .ir import BARRIER, DELAY, MEASURE, UNITARY, Circuit, Gate, is_multi_qubit

BARRIER_SKIP = "skip"
BARRIER_SYNC = "sync"


@dataclass(frozen=True)
class WeightMap:
    """Gate-name -> dimensionless weight in [0, 1] for one architecture."""

    weights: Mapping[str, float]
    architecture: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))
        for name, w in self.weights.items():
            if not (w >= 0.0 and w == w and w != float("inf")):
                raise ValueError(f"weight for {name!r} must be finite and >= 0, got {w}")

    def __getitem__(self, name: str) -> float:
        return self.weights[name]

    def to_dict(self) -> dict:
        return {"architecture": self.architecture or "", "weights": dict(self.weights)}

    @classmethod
    def from_dict(cls, data: dict) -> "WeightMap":
        return cls(weights=dict(data["weights"]), architecture=data.get("architecture") or None)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "WeightMap":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


class MissingWeightError(KeyError):
    """A counted gate name has no entry in the weight map."""

    def __init__(self, gate_name: str, position: int):
        self.gate_name = gate_name
        self.position = position
        super().__init__(f"no weight for gate {gate_name!r} (gate position {position})")


def sweep(
    circuit: Circuit,
    increment: Callable[[Gate, int], float],
    barrier: str = BARRIER_SKIP,
) -> float:
    """Run the critical-path sweep; ``increment(gate, position)`` supplies
    each counted gate's contribution.

    Barriers never increment; with ``barrier="sync"`` they propagate the max
    depth across their operands, with the default ``"skip"`` they are ignored
    entirely. Delays are passed to ``increment`` like any other gate.
    """
    depths = [0.0] * circuit.num_qubits
    for pos, gate in enumerate(circuit.gates):
        if gate.kind == BARRIER:
            if barrier == BARRIER_SYNC:
                top = max(depths[q] for q in gate.qubits)
                for q in gate.qubits:
                    depths[q] = top
            continue
        new_depth = max(depths[q] for q in gate.qubits) + increment(gate, pos)
        for q in gate.qubits:
            depths[q] = new_depth
    return max(depths) if depths else 0.0


def traditional_depth(circuit: Circuit, barrier: str = BARRIER_SKIP) -> int:
    """Length of the longest chain of logically dependent gates.

    Unitaries and measurements count 1; barriers and delays count 0.
    """
    def inc(gate: Gate, pos: int) -> float:
        return 1.0 if gate.kind in (UNITARY, MEASURE) else 0.0

    return int(round(sweep(circuit, inc, barrier)))


def multiqubit_depth(circuit: Circuit, barrier: str = BARRIER_SKIP) -> int:
    """Depth counting only gates on two or more qubits.

    Single-qubit gates still propagate the running max without incrementing.
    """
    def inc(gate: Gate, pos: int) -> float:
        return 1.0 if is_multi_qubit(gate) else 0.0

    return int(round(sweep(circuit, inc, barrier)))


def gate_aware_depth(circuit: Circuit, weight_map: WeightMap, barrier: str = BARRIER_SKIP) -> float:
    """Weighted critical-path depth: each gate contributes its weight-map entry.

    Every unitary and measure name must be present in the map; barriers and
    delays are exempt and contribute 0.
    """
    weights = weight_map.weights

    def inc(gate: Gate, pos: int) -> float:
        if gate.kind == DELAY:
            return 0.0
        try:
            return weights[gate.name]
        except KeyError:
            raise MissingWeightError(gate.name, pos) from None

    return sweep(circuit, inc, barrier)
