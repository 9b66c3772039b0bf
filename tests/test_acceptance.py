"""Acceptance suite: one test per release criterion, each printing a
pass line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""
import json
import random
from pathlib import Path

import pytest

from conftest import longest_path_oracle, random_circuit
from gatedepth.calibration import DurationTable, configure_weights
from gatedepth.cli import main as cli_main
from gatedepth.compare import (VersionRecord, all_pairs, identify_optimal,
                               percent_relative_error, summarize_distribution,
                               sweep_single_qubit_weight)
from gatedepth.ir import UNITARY, Circuit, Gate
from gatedepth.metrics import (WeightMap, gate_aware_depth, multiqubit_depth,
                               traditional_depth)
from gatedepth.runtime import estimate_runtime

from test_compare import make_ratio_dataset

DEMO_DIR = Path(__file__).resolve().parents[1] / "demo"

REFERENCE = Circuit(3, (
    Gate("cz", (0, 1)),
    Gate("x", (0,)),
    Gate("x", (0,)),
    Gate("x", (0,)),
    Gate("x", (1,)),
    Gate("cz", (1, 2)),
))


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def _random_corpus(count=1000, seed=20250823):
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        c = random_circuit(rng, max_qubits=8, max_gates=30)
        names = {g.name for g in c.gates} | {"x"}
        weights = WeightMap({name: rng.uniform(0.0, 1.5) for name in names})
        entries = {(g.name, g.qubits): rng.uniform(1e-8, 1e-6) for g in c.gates}
        corpus.append((c, weights, DurationTable("dev", "arch", entries)))
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return _random_corpus()


def test_criterion_1_reference_circuit_golden_values():
    assert traditional_depth(REFERENCE) == 4
    assert multiqubit_depth(REFERENCE) == 2
    assert gate_aware_depth(REFERENCE, WeightMap({"cz": 1.0, "x": 0.1})) == 2.1
    _report(1, "reference circuit: traditional 4, multi-qubit 2, gate-aware 2.1 (exact)")


def test_criterion_2_weight_map_table_reproduction():
    eagle = [
        DurationTable(f"eagle{i}", "eagle", {
            ("ecr", (0, 1)): ecr, ("sx", (0,)): sq, ("x", (0,)): sq, ("rz", (0,)): 0.0,
        })
        for i, (ecr, sq) in enumerate([(5.3e-7, 5.0e-8), (5.33e-7, 5.02e-8), (5.36e-7, 5.04e-8)])
    ]
    w_eagle = configure_weights(eagle)
    assert w_eagle.weights["ecr"] == 1.0
    assert w_eagle.weights["rz"] == 0.0
    assert round(w_eagle.weights["sx"], 4) == 0.0942
    assert round(w_eagle.weights["x"], 4) == 0.0942

    heron = [
        DurationTable(f"heron{i}", "heron", {
            ("cz", (0, 1)): cz, ("sx", (0,)): 0.483 * cz, ("x", (0,)): 0.483 * cz,
            ("rz", (0,)): 0.0,
        })
        for i, cz in enumerate([6.0e-8, 6.6e-8, 7.2e-8])
    ]
    w_heron = configure_weights(heron)
    assert w_heron.weights["cz"] == 1.0
    assert w_heron.weights["rz"] == 0.0
    assert round(w_heron.weights["sx"], 3) == 0.483
    assert round(w_heron.weights["x"], 3) == 0.483
    _report(2, "synthetic Eagle/Heron tables reproduce weight rows 1.000/0.000/0.0942 and 1.000/0.000/0.483")


def test_criterion_3_oracle_equivalence(corpus):
    failures = 0
    for c, weights, table in corpus:
        depth = gate_aware_depth(c, weights)
        oracle_depth = longest_path_oracle(c, lambda g: weights[g.name],
                                           counted=lambda g: g.kind == UNITARY)
        runtime = estimate_runtime(c, table)
        oracle_runtime = longest_path_oracle(c, lambda g: table.entries[(g.name, g.qubits)],
                                             counted=lambda g: g.kind == UNITARY)
        if abs(depth - oracle_depth) > 1e-12 * max(1.0, abs(oracle_depth)):
            failures += 1
        if abs(runtime - oracle_runtime) > 1e-12 * max(1e-18, abs(oracle_runtime)):
            failures += 1
    assert failures == 0
    _report(3, f"gate-aware depth and runtime match the brute-force DAG oracle on {len(corpus)} circuits (1e-12 rel)")


def test_criterion_4_degeneracy_equivalences(corpus):
    failures = 0
    for c, _, _ in corpus:
        names = {g.name for g in c.gates}
        ones = WeightMap({name: 1.0 for name in names})
        if gate_aware_depth(c, ones) != traditional_depth(c):
            failures += 1
        indicator = WeightMap({
            name: 1.0 if any(g.name == name and len(g.qubits) >= 2 for g in c.gates) else 0.0
            for name in names
        })
        if gate_aware_depth(c, indicator) != multiqubit_depth(c):
            failures += 1
    assert failures == 0
    _report(4, f"all-ones and multi-qubit-indicator weights reproduce traditional/multi-qubit depth exactly on {len(corpus)} circuits")


def test_criterion_5_proportional_durations_consistency(corpus):
    rng = random.Random(99)
    for c, weights, _ in corpus:
        scale = rng.uniform(1e-8, 1e-6)
        entries = {(g.name, g.qubits): weights[g.name] * scale for g in c.gates}
        table = DurationTable("dev", "arch", entries)
        got = estimate_runtime(c, table)
        expected = gate_aware_depth(c, weights) * scale
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-20)
    _report(5, f"runtime equals gate-aware depth times T for proportional durations on {len(corpus)} circuits (1e-12 rel)")


def test_criterion_6_sign_property():
    rng = random.Random(4)
    for _ in range(5000):
        dD = rng.uniform(1e-9, 1e4)
        dR = rng.uniform(1e-9, 1e4)
        assert percent_relative_error(dD, -dR) >= 100.0
        assert percent_relative_error(-dD, dR) >= 100.0
    _report(6, "5000 fuzzed opposite-sign pairs all have %RE >= 100")


def test_criterion_7_pair_count_arithmetic():
    def records(n_bases, n_versions):
        return [
            VersionRecord(f"b{i}", f"c{j}", {"m": float(j + 1)}, (j + 1) * 1e-4)
            for i in range(n_bases) for j in range(n_versions)
        ]
    assert len(all_pairs(records(15, 4), "m")) == 90
    assert len(all_pairs(records(15, 3), "m")) == 45
    _report(7, "15x4 manifest yields 90 comparisons, 15x3 yields 45")


def test_criterion_8_identification_tie_semantics():
    def rec(compiler, value, runtime):
        return VersionRecord("b", compiler, {"m": value}, runtime)

    singleton = identify_optimal([rec("A", 10, 1e-4), rec("B", 12, 2e-4)], "m")
    assert singleton.correct

    asym = identify_optimal([rec("A", 10, 1e-4), rec("B", 10, 2e-4), rec("C", 12, 3e-4)], "m")
    assert not asym.correct
    assert asym.metric_argmin == ("A", "B") and asym.runtime_argmin == ("A",)

    sym = identify_optimal([rec("A", 10, 1e-4), rec("B", 10, 1e-4)], "m")
    assert sym.correct
    _report(8, "singleton match correct, asymmetric tie incorrect, symmetric tie correct")


def test_criterion_9_weight_sweep_recovery():
    grid = [round(0.01 * i, 2) for i in range(101)]
    recovered = {}
    for ratio in (0.1, 0.3, 0.5):
        versions, table = make_ratio_dataset(ratio, seed=int(ratio * 100))
        result = sweep_single_qubit_weight(versions, [table], grid)
        argmin = result.argmin_w_s["synth"]
        assert abs(argmin - ratio) <= 0.02, f"ratio {ratio}: argmin {argmin}"
        recovered[ratio] = argmin
    _report(9, f"sweep argmin w_s recovers duration ratios {recovered} within +/-0.02")


def test_criterion_10_demo_dataset_qualitative_ordering(tmp_path, capsys):
    manifest = DEMO_DIR / "manifest.json"
    assert manifest.exists(), "demo dataset missing; run python3 demo/generate_demo.py"
    out_dir = tmp_path / "demo_out"
    code = cli_main([
        "compare", str(manifest),
        "--durations", str(DEMO_DIR / "durations_device0.json"),
        "--weights", str(DEMO_DIR / "weights.json"),
        "--out", str(out_dir),
    ])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    medians = {m: summary["metrics"][m]["percent_re"]["median"]
               for m in ("traditional", "multiqubit", "gateaware")}
    assert medians["gateaware"] < medians["multiqubit"] < medians["traditional"]
    _report(10, "demo dataset median %RE ordering gate-aware "
               f"({medians['gateaware']:.3g}) < multi-qubit ({medians['multiqubit']:.3g}) "
               f"< traditional ({medians['traditional']:.3g}); device-scale paper results "
               "are out of reach without vendor calibration snapshots")
