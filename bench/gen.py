"""Seeded input generators for the three benchmark workloads.

Every generator takes a ``random.Random`` seeded from the workload seed and
returns plain data: gate lists as ``(name, qubits, kind, param)`` tuples and
duration tables as dicts. The same lists drive both the QASM text the
program reads and the benchmark's independent reference check, so the
program never sees anything but the written files.

The demo generators copy ``demo/generate_demo.py`` (``base_circuit`` and
``compiled_version``) call for call, so the random stream, and with it the
dataset, is the bundled ``demo/`` at seed 20250823. The corpus circuits
follow the random-circuit style of ``tests/conftest.py:random_circuit``.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

UNITARY, MEASURE, BARRIER, DELAY = "unitary", "measure", "barrier", "delay"

DEMO_SEED = 20250823
DEMO_BASES = 10
DEMO_COMPILERS = ("qfirst", "routeopt", "sqmin")
DEMO_ARCH = "eagle-demo"


def gate(name, qubits, param=None, kind=UNITARY):
    return (name, tuple(qubits), kind, param)


# ------------------------------------------------------------- writers ---

def qasm_text(num_qubits: int, gates, param_text=None) -> str:
    """OpenQASM 2.0 text in the layout ``gatedepth.qasm.unparse`` emits.

    ``param_text`` maps a gate's position to the literal parameter text to
    write in place of ``repr(param)`` (pi-expressions, several parameters).
    """
    param_text = param_text or {}
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{num_qubits}];"]
    if any(g[2] == MEASURE for g in gates):
        lines.append(f"creg c[{num_qubits}];")
    for pos, (name, qubits, kind, param) in enumerate(gates):
        operands = ",".join(f"q[{q}]" for q in qubits)
        if kind == MEASURE:
            lines.append(f"measure q[{qubits[0]}] -> c[{qubits[0]}];")
        elif kind == BARRIER:
            lines.append(f"barrier {operands};")
        elif pos in param_text:
            lines.append(f"{name}({param_text[pos]}) {operands};")
        elif param is not None:
            lines.append(f"{name}({param!r}) {operands};")
        else:
            lines.append(f"{name} {operands};")
    return "\n".join(lines) + "\n"


def table_doc(device: str, architecture: str, entries: dict, defaults: dict) -> dict:
    """A duration-table document in ``DurationTable.to_dict`` layout."""
    return {
        "device": device,
        "architecture": architecture,
        "entries": [
            {"gate": name, "qubits": list(qubits), "duration_s": dur}
            for (name, qubits), dur in sorted(entries.items())
        ],
        "defaults": dict(sorted(defaults.items())),
    }


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def manifest_doc(bases) -> dict:
    """``bases``: list of (name, [(compiler, relative file), ...])."""
    return {"bases": [
        {"name": name, "versions": [{"compiler": c, "file": f} for c, f in versions]}
        for name, versions in bases
    ]}


# ---------------------------------------------------------- demo_sweep ---

def base_circuit(rng: random.Random, n: int, n_twoq: int) -> list:
    gates = []
    for _ in range(n_twoq):
        a, b = rng.sample(range(n), 2)
        gates.append(gate("ecr", (a, b)))
        for _ in range(rng.randint(0, 2)):
            gates.append(gate("sx", (rng.randrange(n),)))
    return gates


def compiled_version(rng: random.Random, gates: list, n: int, compiler: str) -> list:
    out = list(gates)
    extra_twoq = {"qfirst": 0, "routeopt": rng.randint(1, 3), "sqmin": rng.randint(0, 1)}[compiler]
    extra_rz = {"qfirst": rng.randint(25, 45), "routeopt": rng.randint(0, 8), "sqmin": rng.randint(10, 20)}[compiler]
    extra_sq = {"qfirst": rng.randint(2, 6), "routeopt": rng.randint(6, 14), "sqmin": rng.randint(0, 3)}[compiler]
    for _ in range(extra_twoq):
        a, b = rng.sample(range(n), 2)
        out.insert(rng.randrange(len(out) + 1), gate("ecr", (a, b)))
    for _ in range(extra_rz):
        pos = rng.randrange(len(out) + 1)
        q = rng.randrange(n)
        out.insert(pos, gate("rz", (q,), rng.uniform(-3.1, 3.1)))
    for _ in range(extra_sq):
        name = rng.choice(("sx", "x"))
        pos = rng.randrange(len(out) + 1)
        out.insert(pos, gate(name, (rng.randrange(n),)))
    return out


def demo_dataset(seed: int, root: Path) -> dict:
    """The demo-shaped sweep dataset: 10 bases x 3 compilers, 3 devices.

    Writes ``manifest.json``, ``circuits/*.qasm`` and
    ``durations_device{0,1,2}.json`` under ``root``.
    """
    rng = random.Random(seed)
    (root / "circuits").mkdir(parents=True, exist_ok=True)
    bases, versions_by_base, circuits = [], {}, []
    for b in range(DEMO_BASES):
        n = rng.choice((3, 4, 5, 6))
        gates = base_circuit(rng, n, rng.randint(6, 16))
        name = f"base{b:02d}"
        files, versions = [], {}
        for compiler in DEMO_COMPILERS:
            circuit = compiled_version(rng, gates, n, compiler)
            fname = f"{name}_{compiler}.qasm"
            (root / "circuits" / fname).write_text(qasm_text(n, circuit), encoding="utf-8")
            files.append((compiler, f"circuits/{fname}"))
            versions[compiler] = circuit
            circuits.append(circuit)
        bases.append((name, files))
        versions_by_base[name] = versions
    write_json(root / "manifest.json", manifest_doc(bases))

    keys = sorted({(g[0], g[1]) for c in circuits for g in c})
    tables = []
    for d in range(3):
        entries = {}
        for name, qubits in keys:
            if name == "rz":
                entries[(name, qubits)] = 0.0
            elif name == "ecr":
                entries[(name, qubits)] = rng.uniform(5.0e-7, 5.6e-7)
            else:
                entries[(name, qubits)] = rng.uniform(4.7e-8, 5.3e-8)
        table = {"device": f"demo-device-{d}", "entries": entries, "defaults": {}}
        write_json(root / f"durations_device{d}.json",
                   table_doc(table["device"], DEMO_ARCH, entries, {}))
        tables.append(table)
    return {"versions": versions_by_base, "tables": tables}


# ------------------------------------------------------ corpus_compare ---

CORPUS_QUBITS = 16
CORPUS_ARCH = "corpus-arch"
CORPUS_COMPILERS = ("alpha", "beta", "delta", "gamma", "omega")


def corpus_edges() -> list[tuple[int, int]]:
    """A 16-qubit ring with four chords."""
    n = CORPUS_QUBITS
    edges = [(i, (i + 1) % n) for i in range(n)]
    return edges + [(0, 8), (2, 10), (4, 12), (6, 14)]


def _angle_text(rng: random.Random) -> str:
    k = rng.randint(1, 7)
    d = rng.choice((2, 4, 8))
    forms = (
        lambda: "pi",
        lambda: f"pi/{d}",
        lambda: f"-pi/{d}",
        lambda: f"{k}*pi/{d}",
        lambda: f"-({k}*pi/{d})+{rng.uniform(0, 1):.4f}",
        lambda: f"{rng.uniform(-3, 3):.6f}",
        lambda: "0",
    )
    return rng.choice(forms)()


def corpus_gate(rng: random.Random, edges: list, kind: str | None = None):
    """One random statement of the full vocabulary, as (gate, parameter
    text); the text is the literal u3 parameter list, None otherwise."""
    n = CORPUS_QUBITS
    if kind is None:
        r = rng.random()
        kind = "cx" if r < 0.35 else "u3" if r < 0.85 else "delay" if r < 0.93 else "barrier"
    if kind == "cx":
        a, b = rng.choice(edges)
        return gate("cx", (a, b) if rng.random() < 0.5 else (b, a)), None
    if kind == "u3":
        return gate("u3", (rng.randrange(n),)), ",".join(_angle_text(rng) for _ in range(3))
    if kind == "delay":
        return gate("delay", (rng.randrange(n),), rng.randint(1, 40) * 1.0e-8, DELAY), None
    width = rng.randint(2, 5)
    return gate("barrier", tuple(sorted(rng.sample(range(n), width))), kind=BARRIER), None


def corpus_version(rng: random.Random, base: list, compiler: str) -> tuple[list, dict]:
    """A "compiled" variant of ``base`` (a list of (gate, text) pairs): the
    base plus compiler-specific insertions (routing cx, extra single-qubit
    work, idle delays), then a measure on every qubit. Returns the gate list
    and the position -> parameter-text map for :func:`qasm_text`."""
    out = list(base)
    extra = {
        "alpha": {"u3": rng.randint(20, 40)},
        "beta": {"cx": rng.randint(2, 8), "u3": rng.randint(0, 6), "delay": rng.randint(0, 3)},
        "delta": {"cx": rng.randint(0, 2), "u3": rng.randint(5, 15), "delay": rng.randint(2, 6)},
        "gamma": {"cx": rng.randint(4, 12)},
        "omega": {"cx": rng.randint(1, 4), "u3": rng.randint(10, 30), "delay": rng.randint(0, 2)},
    }[compiler]
    edges = corpus_edges()
    for kind, count in extra.items():
        for _ in range(count):
            out.insert(rng.randrange(len(out) + 1), corpus_gate(rng, edges, kind))
    gates = [g for g, _ in out]
    gates.extend(gate("measure", (q,), kind=MEASURE) for q in range(CORPUS_QUBITS))
    texts = {i: t for i, (_, t) in enumerate(out) if t is not None}
    return gates, texts


def corpus_table(rng: random.Random, d: int, edges: list) -> dict:
    """Per-location entries for part of the edge set and qubits, per-gate
    defaults for the rest."""
    n = CORPUS_QUBITS
    entries = {}
    for a, b in edges:
        for edge in ((a, b), (b, a)):
            if rng.random() < 0.6:
                entries[("cx", edge)] = rng.uniform(2.5e-7, 4.5e-7)
    for q in range(n):
        if rng.random() < 0.7:
            entries[("u3", (q,))] = rng.uniform(3.0e-8, 6.0e-8)
        if rng.random() < 0.5:
            entries[("measure", (q,))] = rng.uniform(7.0e-7, 1.1e-6)
    defaults = {"cx": 3.5e-7 + d * 1e-8, "u3": 4.5e-8, "measure": 9.0e-7}
    return {"device": f"corpus-dev-{d}", "entries": entries, "defaults": defaults}


def corpus_dataset(seed: int, root: Path, num_bases: int,
                   min_gates: int, max_gates: int) -> dict:
    rng = random.Random(seed)
    edges = corpus_edges()
    (root / "circuits").mkdir(parents=True, exist_ok=True)
    tables = []
    for d in range(3):
        table = corpus_table(rng, d, edges)
        write_json(root / f"device{d}.json",
                   table_doc(table["device"], CORPUS_ARCH, table["entries"], table["defaults"]))
        tables.append(table)
    bases, versions_by_base = [], {}
    for b in range(num_bases):
        # sizes are log-spaced and the same for every seed, so the work of a
        # round does not depend on the seed
        size = round(min_gates * (max_gates / min_gates) ** (b / max(1, num_bases - 1)))
        base = [corpus_gate(rng, edges) for _ in range(size)]
        name = f"c{b:03d}"
        files, versions = [], {}
        for compiler in CORPUS_COMPILERS:
            gates, texts = corpus_version(rng, base, compiler)
            fname = f"{name}_{compiler}.qasm"
            (root / "circuits" / fname).write_text(
                qasm_text(CORPUS_QUBITS, gates, texts), encoding="utf-8")
            files.append((compiler, f"circuits/{fname}"))
            versions[compiler] = gates
        bases.append((name, files))
        versions_by_base[name] = versions
    write_json(root / "manifest.json", manifest_doc(bases))
    return {"versions": versions_by_base, "tables": tables}
