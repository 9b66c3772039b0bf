"""Circuit intermediate representation: gates over an indexed qubit register.

The IR is deliberately minimal: a circuit is an ordered gate list whose list
order is the execution order per qubit, so it is always a valid topological
order of the logical-dependency DAG. It is stored as columns, one entry per
gate, which the parser appends to without building an object per gate.
"""
from __future__ import annotations

from functools import cached_property, partial
from typing import Iterable, NamedTuple, Sequence

UNITARY = "unitary"
MEASURE = "measure"
BARRIER = "barrier"
DELAY = "delay"

KINDS = (UNITARY, MEASURE, BARRIER, DELAY)


class _GateFields(NamedTuple):
    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...]
    kind: str


class Gate(_GateFields):
    """A named operation applied to an ordered tuple of qubit indices.

    ``params`` holds real numbers (radians for rotation angles, seconds for
    delay durations). ``kind`` distinguishes unitaries from measurements and
    the barrier/delay directives, which the metrics treat specially.
    """

    __slots__ = ()

    def __new__(cls, name: str, qubits: Iterable[int], params: Iterable[float] = (),
                kind: str = UNITARY):
        if kind not in KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        return tuple.__new__(cls, (name, tuple(qubits), tuple(float(p) for p in params), kind))


def multi_qubit(kind: str, qubits: tuple[int, ...]) -> bool:
    """:func:`is_multi_qubit` of a gate of ``kind`` on ``qubits``."""
    return kind == UNITARY and len(qubits) >= 2


def is_multi_qubit(gate: Gate) -> bool:
    """True iff the gate is a unitary acting on two or more qubits.

    Barriers, delays, and measurements never count as multi-qubit for
    metric purposes.
    """
    return multi_qubit(gate.kind, gate.qubits)


class Circuit:
    """An ordered gate list over ``num_qubits`` qubits, stored as columns.

    Gate ``i`` is named ``names[i]``, of kind ``kinds[i]``, on the qubit
    tuple ``qubits[i]``, with the float tuple ``params[i]``. ``Circuit(n,
    gates)`` builds a circuit from :class:`Gate` objects and keeps them;
    :meth:`from_columns` builds one from its columns, as the parser does.
    ``gates`` is a read-only tuple of Gates: those given, or, for a circuit
    built from columns, Gates built once on first access. Equality and hash
    are those of ``num_qubits`` and the columns, repr that of
    ``(num_qubits, gates)``; no attribute can be assigned or deleted.
    """

    num_qubits: int
    names: tuple[str, ...]
    kinds: tuple[str, ...]
    qubits: tuple[tuple[int, ...], ...]
    params: tuple[tuple[float, ...], ...]

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = ()):
        gates = tuple(gates)
        self.__dict__.update(
            num_qubits=num_qubits, names=tuple(g.name for g in gates),
            kinds=tuple(g.kind for g in gates), qubits=tuple(g.qubits for g in gates),
            params=tuple(g.params for g in gates), gates=gates)

    @classmethod
    def from_columns(cls, num_qubits: int, names: Sequence[str], kinds: Sequence[str],
                     qubits: Sequence[tuple[int, ...]], params: Sequence[tuple[float, ...]]) -> "Circuit":
        """The circuit of the given columns, one entry per gate each: names,
        kinds, qubit tuples and float parameter tuples, taken as they are."""
        if not len(names) == len(kinds) == len(qubits) == len(params):
            raise ValueError("circuit columns differ in length")
        circuit = object.__new__(cls)
        circuit.__dict__.update(num_qubits=num_qubits, names=tuple(names), kinds=tuple(kinds),
                                qubits=tuple(qubits), params=tuple(params))
        return circuit

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        # the columns hold each field in its stored form, so no Gate is re-checked
        fields = zip(self.names, self.qubits, self.params, self.kinds)
        return tuple(map(partial(tuple.__new__, Gate), fields))

    def _columns(self) -> tuple:
        return self.num_qubits, self.names, self.kinds, self.qubits, self.params

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._columns() == other._columns()

    def __hash__(self):
        return hash(self._columns())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{self.__class__.__qualname__}(num_qubits={self.num_qubits!r}, gates={self.gates!r})"


class Violation(NamedTuple):
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
    columns = zip(circuit.names, circuit.kinds, circuit.qubits, circuit.params)
    for i, (name, kind, qubits, params) in enumerate(columns):
        if not qubits:
            violations.append(Violation(i, f"gate {name!r} has no qubit operands"))
        if len(set(qubits)) != len(qubits):
            violations.append(Violation(i, f"gate {name!r} has duplicate qubit operands {list(qubits)}"))
        for q in qubits:
            if q < 0 or q >= circuit.num_qubits:
                violations.append(
                    Violation(i, f"gate {name!r} operand {q} out of range for {circuit.num_qubits} qubits")
                )
        if kind == BARRIER and params:
            violations.append(Violation(i, "barrier must not carry parameters"))
        if kind == MEASURE and len(qubits) != 1:
            violations.append(Violation(i, f"measure must have exactly one qubit operand, got {len(qubits)}"))
    return violations
