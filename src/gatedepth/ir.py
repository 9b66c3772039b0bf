"""Circuit intermediate representation: gates over an indexed qubit register.

The IR is deliberately minimal: a circuit is an ordered gate list whose list
order is the execution order per qubit, so it is always a valid topological
order of the logical-dependency DAG.
"""
from __future__ import annotations

from dataclasses import dataclass, field

UNITARY = "unitary"
MEASURE = "measure"
BARRIER = "barrier"
DELAY = "delay"

KINDS = (UNITARY, MEASURE, BARRIER, DELAY)


@dataclass(frozen=True)
class Gate:
    """A named operation applied to an ordered tuple of qubit indices.

    ``params`` holds real numbers (radians for rotation angles, seconds for
    delay durations). ``kind`` distinguishes unitaries from measurements and
    the barrier/delay directives, which the metrics treat specially.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    kind: str = UNITARY

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")


def is_multi_qubit(gate: Gate) -> bool:
    """True iff the gate is a unitary acting on two or more qubits.

    Barriers, delays, and measurements never count as multi-qubit for
    metric purposes.
    """
    return gate.kind == UNITARY and len(gate.qubits) >= 2


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``num_qubits`` qubits."""

    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate`."""

    gate_index: int
    message: str


def validate(circuit: Circuit) -> list[Violation]:
    """Check every IR invariant; an empty list means the circuit is ok.

    Violations are data, not exceptions: callers decide how to react.
    """
    violations: list[Violation] = []
    if circuit.num_qubits < 1:
        violations.append(Violation(-1, f"num_qubits must be positive, got {circuit.num_qubits}"))
    for i, g in enumerate(circuit.gates):
        if not g.qubits:
            violations.append(Violation(i, f"gate {g.name!r} has no qubit operands"))
        if len(set(g.qubits)) != len(g.qubits):
            violations.append(Violation(i, f"gate {g.name!r} has duplicate qubit operands {list(g.qubits)}"))
        for q in g.qubits:
            if q < 0 or q >= circuit.num_qubits:
                violations.append(
                    Violation(i, f"gate {g.name!r} operand {q} out of range for {circuit.num_qubits} qubits")
                )
        if g.kind == BARRIER and g.params:
            violations.append(Violation(i, "barrier must not carry parameters"))
        if g.kind == MEASURE and len(g.qubits) != 1:
            violations.append(Violation(i, f"measure must have exactly one qubit operand, got {len(g.qubits)}"))
    return violations
