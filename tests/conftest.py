"""Shared helpers: random circuit generation, the brute-force
dependency-DAG longest-path oracle used to cross-check the sweep, and the
QASM texts that fuzz the parser and the CLI."""
from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.setrecursionlimit(10000)

from hypothesis import settings
from hypothesis import strategies as st

from gatedepth.ir import BARRIER, DELAY, MEASURE, Circuit, Gate
from gatedepth.qasm import parse

# every property test draws the same examples on every run, with no time limit
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

# pieces of QASM programs for fuzzing the front end; registers are small,
# so no text drawn from them declares one that is costly to sweep
QASM_STATEMENTS = (
    "OPENQASM 2.0;", "OPENQASM 3.0;", 'include "qelib1.inc";', 'include "x.inc";',
    "qreg q[3];", "qreg r[1];", "creg c[3];", "creg c[1];",
    "x q[0];", "cx q[0],q[1];", "cx q,r;", "ccx q[0],q[1],q[2];", "rz(-pi/2) q[2];",
    "u3(0.1,2e-3,(pi)) q;", "delay(1e-7) q[1];", "delay q;",
    "measure q -> c;", "measure q[1] -> c[0];", "barrier q;", "barrier q[2],q,q[0];",
    "gate g a { x a; }", "if (c==1) x q[0];", "reset q;",
)
QASM_PIECES = (
    "q", "c", "r", "[", "]", "(", ")", "{", "}", ";", ",", "->", "-", "+", "*", "/",
    "0", "2", "1.5e3", ".5", "pi", "x", "rz", "//", '"', "@", " ", "\t", "\n", "\r\n",
)

# arbitrary text; QASM statements, pieces and arbitrary characters spliced
# together; and whole statements after the declarations they use, which
# often parse
qasm_texts = st.one_of(
    st.text(),
    st.lists(st.one_of(st.sampled_from(QASM_STATEMENTS + QASM_PIECES), st.text(max_size=3)),
             max_size=30).map("".join),
    st.lists(st.sampled_from(QASM_STATEMENTS[8:]), max_size=20).map(
        lambda statements: "OPENQASM 2.0;\nqreg q[3];\nqreg r[1];\ncreg c[3];\n" + "\n".join(statements)),
)

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


# a gate name and a (name, qubits) pair that repeat after their first
# gate, a barrier before them, and a reversed ecr after the forward one
REPEATS_TEXT = ("OPENQASM 2.0;\nqreg q[2];\nx q[0];\nbarrier q;\necr q[0],q[1];\nsx q[1];\n"
                "ecr q[1],q[0];\nsx q[1];\necr q[1],q[0];\n")


def parsed_and_built(text: str) -> list[Circuit]:
    """The circuit of ``text`` as the parser builds it, from columns, and
    as code builds it, from new Gate objects."""
    viewed = parse(text)
    built = Circuit(viewed.num_qubits, [Gate(g.name, g.qubits, g.params, g.kind) for g in viewed.gates])
    return [parse(text), built]  # a parse whose Gate view is not built yet


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
