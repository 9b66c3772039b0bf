"""gatedepth benchmark: drive the CLI on a seeded workload and report metrics.

Usage:
    python3 bench/run.py --workload {demo_sweep,corpus_compare}
                         --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program is ``src/gatedepth``,
pure Python, so there is nothing to build. The run generates the
workload's inputs from the seed under ``.bench_work/``, then starts one
child process with one thread (``bench/child.py``) that calls
``gatedepth.cli.main`` back to back for ``--seconds`` (a closed loop with
one caller). Every output of the first round is checked against a
reference the benchmark computes itself; later rounds must reproduce the
first round byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (spans written to
``.bench_work/spans-WORKLOAD.jsonl``). See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speedref import IMPORT_REF_S, speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 9
DEADLINE_S = 170  # the whole run, set-up and checks included

SPAN_NAMES = (
    "qasm.parse_file", "ir.validate", "metrics.traditional_depth",
    "metrics.multiqubit_depth", "metrics.gate_aware_depth",
    "runtime.estimate_runtime", "calibration.load_duration_table",
    "calibration.configure_weights", "compare.all_pairs",
    "compare.identification_accuracy", "compare.summarize_distribution",
    "compare.sweep_single_qubit_weight", "cli.main",
)
CALL_COUNTS = ("qasm.parse_file", "ir.validate", "metrics.gate_aware_depth",
               "runtime.estimate_runtime", "cli.main")


class BenchError(Exception):
    """The run cannot produce a measurement."""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(BENCH))),
                PYTHONHASHSEED="0",
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def time_import(package: str) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    ``package.cli``; the child reports on a pipe, so no polling interval
    is added."""
    argv = [sys.executable, "-c", f"import {package}.cli; print('imported', flush=True)"]
    start = time.perf_counter()
    with subprocess.Popen(argv, env=_env(), stdout=subprocess.PIPE, text=True) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        line = proc.stdout.readline() if ready else ""
        seconds = time.perf_counter() - start
        if line != "imported\n":
            proc.kill()
        code = proc.wait()
    if line != "imported\n" or code != 0:
        raise BenchError(f"import {package}.cli failed (exit {code})")
    return seconds


def measure_setup() -> float:
    """Median import time of ``gatedepth.cli``, scaled to the reference
    speed by the imports of the frozen ``refprog.cli`` between them; the
    first, untimed starts compile the bytecode caches."""
    time_import("gatedepth")
    probes = [time_import("refprog")]
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(time_import("gatedepth"))
        probes.append(time_import("refprog"))
    return statistics.median(times) * speed(probes, IMPORT_REF_S)


def run_child(plan, work: Path, seconds: float, trace: bool, timeout: float,
              spans: Path) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps({
        "calls": plan.calls, "outputs": plan.outputs, "probe": plan.probe, "work": str(work),
        "seconds": seconds, "trace": trace, "spans": str(spans),
    }), encoding="utf-8")
    argv = [sys.executable, str(BENCH / "child.py"), str(plan_path), str(result_path)]
    try:
        subprocess.run(argv, env=_env(), check=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        raise BenchError(f"workload did not finish within {timeout:.0f} s")
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"workload child exited with {exc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def count_failures(plan, result: dict, work: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages). A call fails if it exits nonzero, if
    an output of the first round disagrees with the reference, or if a
    later round's outputs differ from the first round's."""
    ncalls = len(plan.calls)
    try:
        problems = plan.check(result["stdouts"], work / "out0")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [[f"outputs unreadable: {exc!r}"]] * ncalls
    first = result["rounds"][0]["calls"]
    attempted = failed = 0
    messages = [f"call {i} ({plan.calls[i][0]}): {m}" for i, msgs in enumerate(problems) for m in msgs]
    for r, rnd in enumerate(result["rounds"]):
        for i, call in enumerate(rnd["calls"]):
            attempted += 1
            if call["rc"] != 0:
                messages.append(f"round {r} call {i} ({plan.calls[i][0]}) exited {call['rc']}: "
                                f"{call['stderr'][-300:]}")
            elif call["digest"] != first[i]["digest"]:
                messages.append(f"round {r} call {i} ({plan.calls[i][0]}): output differs from round 0")
            failed += bool(call["rc"] != 0 or problems[i] or call["digest"] != first[i]["digest"])
    return attempted, failed, messages


def round_wall(rounds: list[dict]) -> float:
    """Median over rounds of one round's wall time."""
    return statistics.median(sum(c["s"] for c in r["calls"]) for r in rounds)


def end_to_end(plan, result: dict, setup_s: float) -> dict:
    rounds = result["rounds"]
    factor = speed(result["probes"], plan.probe_ref_s)
    wall = round_wall(rounds) * factor
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "gates_per_s": plan.gates / wall,
        "call_s_p50": statistics.median(r["calls"][i]["s"] for r in rounds for i in plan.main) * factor,
        "peak_rss_mib": result["maxrss_kib"] / 1024,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: dict) -> dict:
    """Per-layer metrics of one traced round."""
    self_s, calls, counts = layers["self_s"], layers["calls"], layers["counts"]
    depth_s = sum(self_s.get(f"metrics.{m}_depth", 0.0)
                  for m in ("traditional", "multiqubit", "gate_aware"))
    parse_s = self_s.get("qasm.parse_file", 0.0)
    return {
        **{f"{name}.self_s": self_s.get(name, 0.0) for name in SPAN_NAMES},
        **{f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTS},
        "qasm.gates_per_s": _ratio(counts.get("qasm.gates", 0), parse_s),
        "qasm.bytes_per_s": _ratio(counts.get("qasm.bytes", 0), parse_s),
        "metrics.gates_swept": counts.get("metrics.gates_swept", 0),
        "metrics.gates_per_s": _ratio(counts.get("metrics.gates_swept", 0), depth_s),
        "compare.depth_calls_per_grid_point": _ratio(counts["sweep_depth_calls"],
                                                     counts.get("compare.grid_points", 0)),
        "compare.pairs": counts.get("compare.pairs", 0),
        "calibration.lookup.calls": counts.get("calibration.lookup.calls", 0),
        "calibration.lookup.exact_ratio": _ratio(counts.get("calibration.lookup.exact", 0),
                                                 counts.get("calibration.lookup.calls", 0)),
    }


def per_layer(plan, result: dict) -> dict:
    plain = [r for r in result["rounds"] if not r["traced"]]
    traced = [r for r in result["rounds"] if r["traced"]]
    per_round = [layer_metrics(r["layers"]) for r in traced]
    metrics = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
    metrics["trace.overhead_s"] = round_wall(traced) - round_wall(plain)
    # times and rates at the reference speed, as in end_to_end
    factor = speed(result["probes"], plan.probe_ref_s)
    return {key: value / factor if key.endswith("_per_s") else value * factor
            if key.endswith("_s") else value for key, value in metrics.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object printed last, plus the
    fields ``main`` prints and drops (rounds, messages, call_samples)."""
    started = time.perf_counter()
    if not (ROOT / "src" / "gatedepth" / "cli.py").is_file():
        raise BenchError(f"no gatedepth source under {ROOT / 'src'}")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT))
    try:
        plan = WORKLOADS[workload](seed, work)
        setup_s = None if trace else measure_setup()
        timeout = DEADLINE_S - (time.perf_counter() - started) - 10
        result = run_child(plan, work, seconds, trace, timeout,
                           WORK_ROOT / f"spans-{workload}.jsonl")
        attempted, failed, messages = count_failures(plan, result, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = per_layer(plan, result) if trace else end_to_end(plan, result, setup_s)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if trace else "end_to_end"]},
        "rounds": len(result["rounds"]), "messages": messages,
        "call_samples": len(result["rounds"]) * len(plan.main),
        "plain_wall_s": round_wall(result["rounds"]),
        "probe_s": statistics.mean(result["probes"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for message in out.pop("messages")[:20]:
        print(f"MISMATCH {message}", file=sys.stderr)
    rounds, samples = out.pop("rounds"), out.pop("call_samples")
    plain, probe_s = out.pop("plain_wall_s"), out.pop("probe_s")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds, "
          f"{out['attempted']} calls ({samples} sampled by call_s_p50), {out['failed']} failed; "
          f"unscaled median round {plain:.4g} s, mean speed probe {probe_s:.4g} s")
    for name, m in out["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
