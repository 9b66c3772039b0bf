"""Regenerate the bundled demonstration dataset.

Produces synthetic Eagle-like calibration tables for three fictional
devices, a suite of base circuits each "compiled" by three fictional
compilers with different gate-mix habits, and a manifest tying them
together. Deterministic: running it again rewrites identical files.

Usage: python3 demo/generate_demo.py
"""
from __future__ import annotations

import random
from pathlib import Path

import sys
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gatedepth.calibration import DurationTable, configure_weights
from gatedepth.ir import Circuit, Gate
from gatedepth.metrics import write_json
from gatedepth.qasm import unparse

ROOT = Path(__file__).resolve().parent
N_BASES = 10
COMPILERS = ("qfirst", "routeopt", "sqmin")
ARCH = "eagle-demo"


def base_circuit(rng: random.Random, n: int, n_twoq: int) -> list[Gate]:
    gates = []
    for _ in range(n_twoq):
        a, b = rng.sample(range(n), 2)
        gates.append(Gate("ecr", (a, b)))
        for _ in range(rng.randint(0, 2)):
            gates.append(Gate("sx", (rng.randrange(n),)))
    return gates


def compiled_version(rng: random.Random, gates: list[Gate], n: int, compiler: str) -> Circuit:
    out = list(gates)
    # each compiler has different habits: extra routing ecr pairs, virtual-rz
    # bookkeeping, and single-qubit cleanup
    extra_twoq = {"qfirst": 0, "routeopt": rng.randint(1, 3), "sqmin": rng.randint(0, 1)}[compiler]
    extra_rz = {"qfirst": rng.randint(25, 45), "routeopt": rng.randint(0, 8), "sqmin": rng.randint(10, 20)}[compiler]
    extra_sq = {"qfirst": rng.randint(2, 6), "routeopt": rng.randint(6, 14), "sqmin": rng.randint(0, 3)}[compiler]
    for _ in range(extra_twoq):
        a, b = rng.sample(range(n), 2)
        out.insert(rng.randrange(len(out) + 1), Gate("ecr", (a, b)))
    for _ in range(extra_rz):
        out.insert(rng.randrange(len(out) + 1),
                   Gate("rz", (rng.randrange(n),), (rng.uniform(-3.1, 3.1),)))
    for _ in range(extra_sq):
        name = rng.choice(("sx", "x"))
        out.insert(rng.randrange(len(out) + 1), Gate(name, (rng.randrange(n),)))
    return Circuit(n, tuple(out))


def main():
    rng = random.Random(20250823)
    circuits_dir = ROOT / "circuits"
    circuits_dir.mkdir(exist_ok=True)

    manifest = {"bases": []}
    circuits = []
    for b in range(N_BASES):
        n = rng.choice((3, 4, 5, 6))
        gates = base_circuit(rng, n, rng.randint(6, 16))
        entry = {"name": f"base{b:02d}", "versions": []}
        for compiler in COMPILERS:
            circuit = compiled_version(rng, gates, n, compiler)
            fname = f"base{b:02d}_{compiler}.qasm"
            (circuits_dir / fname).write_text(unparse(circuit))
            entry["versions"].append({"compiler": compiler, "file": f"circuits/{fname}"})
            circuits.append(circuit)
        manifest["bases"].append(entry)
    write_json(ROOT / "manifest.json", manifest)

    # per-location durations with ~5% device-to-device and location spread
    keys = sorted({(g.name, g.qubits) for c in circuits for g in c.gates})
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
        table = DurationTable(f"demo-device-{d}", ARCH, entries)
        table.save(ROOT / f"durations_device{d}.json")
        tables.append(table)

    configure_weights(tables).save(ROOT / "weights.json")
    print(f"wrote {3 * N_BASES} circuits, 3 duration tables, weights.json, manifest.json")


if __name__ == "__main__":
    main()
