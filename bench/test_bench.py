"""Self-test of the benchmark on a tiny corpus.

Run: PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import csv
import filecmp
import functools
import json
from pathlib import Path

import pytest

import gen
import run

ROOT = Path(__file__).resolve().parents[1]
TINY = {
    "demo_sweep": {"points": 11, "samples": 3},
    "corpus_compare": {"bases": 3, "min_gates": 10, "max_gates": 40},
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_spec():
    assert sorted(w["name"] for w in _spec()["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace, monkeypatch, capsys):
    tiny = functools.partial(run.WORKLOADS[workload], **TINY[workload])
    monkeypatch.setitem(run.WORKLOADS, workload, tiny)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert trace or m["value"] > 0
    if trace and workload == "demo_sweep":
        assert out["metrics"]["compare.depth_calls_per_grid_point"]["value"] == 30


def _perturb_sweep(stdouts, out0):
    # only a sample of grid points is recomputed, so shift every point
    path = out0 / "sweep.csv"
    rows = list(csv.reader(path.open(newline="")))
    for row in rows[1:]:
        row[2] = repr(float(row[2]) * (1 + 1e-6))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _perturb_compare(stdouts, out0):
    path = out0 / "report" / "report.json"
    report = json.loads(path.read_text())
    report["records"][4]["runtime_s"] *= 1.001
    path.write_text(json.dumps(report))


@pytest.mark.parametrize("workload,perturb", [
    ("demo_sweep", _perturb_sweep),
    ("corpus_compare", _perturb_compare),
])
def test_perturbed_output_counts_as_failure(workload, perturb, tmp_path):
    plan = run.WORKLOADS[workload](5, tmp_path, **TINY[workload])
    result = run.run_child(plan, tmp_path, 0.01, False, 60, tmp_path / "spans.jsonl")
    attempted, failed, _ = run.count_failures(plan, result, tmp_path)
    assert attempted >= 1 and failed == 0
    perturb(result["stdouts"], tmp_path / "out0")
    attempted, failed, messages = run.count_failures(plan, result, tmp_path)
    assert failed >= 1 and messages


def test_later_round_that_differs_counts_as_failure(tmp_path):
    plan = run.WORKLOADS["demo_sweep"](5, tmp_path, **TINY["demo_sweep"])
    result = run.run_child(plan, tmp_path, 0.01, False, 60, tmp_path / "spans.jsonl")
    result["rounds"].append(json.loads(json.dumps(result["rounds"][0])))
    result["rounds"][1]["calls"][0]["digest"] = "0" * 64
    assert run.count_failures(plan, result, tmp_path)[:2] == (2, 1)


def test_failed_speed_probe_stops_the_run(tmp_path):
    plan = run.WORKLOADS["demo_sweep"](5, tmp_path, **TINY["demo_sweep"])
    plan.probe = [["sweep", str(tmp_path / "missing.json"), "--durations", "missing.json"]]
    with pytest.raises(run.BenchError):
        run.run_child(plan, tmp_path, 0.01, False, 60, tmp_path / "spans.jsonl")


def test_demo_generator_reproduces_bundled_demo(tmp_path):
    gen.demo_dataset(gen.DEMO_SEED, tmp_path)
    names = [p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()]
    assert len(names) == 34
    for name in names:
        assert filecmp.cmp(tmp_path / name, ROOT / "demo" / name, shallow=False), name
