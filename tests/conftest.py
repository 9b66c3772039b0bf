"""Shared helpers: random circuit generation and the brute-force
dependency-DAG longest-path oracle used to cross-check the sweep."""
from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.setrecursionlimit(10000)

from gatedepth.ir import BARRIER, DELAY, MEASURE, Circuit, Gate

ONE_QUBIT = ("x", "sx", "rz", "h")
TWO_QUBIT = ("cz", "ecr", "cx")
THREE_QUBIT = ("ccx",)


def random_circuit(rng: random.Random, max_qubits: int = 8, max_gates: int = 30,
                   directives: bool = False) -> Circuit:
    """Random circuit of unitaries; with ``directives=True`` about a quarter
    of the gates are measures, single-qubit delays with a duration, or
    barriers over two or more qubits (one qubit if the circuit has one).
    The default draws no extra random numbers, which keeps the seeded
    corpora of the tests that use it fixed."""
    n = rng.randint(1, max_qubits)
    gates = []
    for _ in range(rng.randint(0, max_gates)):
        if directives and rng.random() < 0.25:
            gates.append(random_directive(rng, n))
            continue
        r = rng.random()
        if n >= 3 and r < 0.05:
            name = rng.choice(THREE_QUBIT)
            qubits = tuple(rng.sample(range(n), 3))
        elif n >= 2 and r < 0.45:
            name = rng.choice(TWO_QUBIT)
            qubits = tuple(rng.sample(range(n), 2))
        else:
            name = rng.choice(ONE_QUBIT)
            qubits = (rng.randrange(n),)
        params = (rng.uniform(-3.14, 3.14),) if name == "rz" else ()
        gates.append(Gate(name, qubits, params))
    return Circuit(n, tuple(gates))


def random_directive(rng: random.Random, n: int) -> Gate:
    kind = rng.choice((MEASURE, DELAY, BARRIER))
    if kind == BARRIER:
        return Gate("barrier", tuple(rng.sample(range(n), rng.randint(min(2, n), n))), (), BARRIER)
    qubit = (rng.randrange(n),)
    if kind == DELAY:
        return Gate("delay", qubit, (rng.uniform(0.0, 1e-6),), DELAY)
    return Gate("measure", qubit, (), MEASURE)


def dependency_predecessors(circuit: Circuit, counted) -> list[list[int]]:
    """For each counted gate, the indices of its immediate predecessors:
    the most recent earlier counted gate on each of its qubits."""
    last: dict[int, int] = {}
    preds: list[list[int]] = []
    index_map: list[int] = []
    for i, gate in enumerate(circuit.gates):
        if not counted(gate):
            continue
        node = len(index_map)
        index_map.append(i)
        p = sorted({last[q] for q in gate.qubits if q in last})
        preds.append(p)
        for q in gate.qubits:
            last[q] = node
    return preds


def longest_path_oracle(circuit: Circuit, weight_of, counted=lambda g: True) -> float:
    """Maximum weighted-path sum over all paths of the logical-dependency
    DAG, by explicit recursive path enumeration (no memoization, no
    per-qubit sweep)."""
    gates = [g for g in circuit.gates if counted(g)]
    preds = dependency_predecessors(circuit, counted)
    weights = [weight_of(g) for g in gates]

    def longest_ending_at(i: int) -> float:
        best = 0.0
        for p in preds[i]:
            best = max(best, longest_ending_at(p))
        return best + weights[i]

    return max((longest_ending_at(i) for i in range(len(gates))), default=0.0)
