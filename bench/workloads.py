"""The workloads: seeded inputs, the CLI calls of one round, and the
check of those calls' outputs against the independent reference.

``prepare(seed, work)`` writes the inputs under ``work`` and returns a
:class:`Plan`. Calls write their files under ``work/out``; the child keeps
the first round's copy in ``work/out0``, which ``Plan.check`` reads. The
speed probe's calls, the workload's own on smaller inputs generated from
a fixed seed, read ``work/probe_in`` and write under ``work/probe``. Sizes
are keyword arguments so the self-test can run each workload on a tiny
corpus; the benchmark always uses the defaults.
"""
from __future__ import annotations

import csv
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import reference as ref
from reference import close


@dataclass
class Plan:
    calls: list[list[str]]       # argv of each CLI call of one round
    outputs: list[list[str]]     # files each call writes, relative to work/out
    main: list[int]              # calls sampled by call_s_p50
    gates: int                   # gates read (or swept) in one round
    # (stdouts of round 0, work/out0) -> mismatch messages, one list per call
    check: Callable[[list[str], Path], list[list[str]]]
    probe: list[list[str]]       # argv of the speed probe's calls (speedref.py)
    probe_ref_s: float           # the probe's time at the reference speed


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# probe times at the reference speed (see speedref.py)
DEMO_PROBE_REF_S = 1.5
CORPUS_PROBE_REF_S = 1.0
PROBE_SEED = 0


# ---------------------------------------------------------- demo_sweep ---

def _grid(points: int) -> list[float]:
    return [round(i / (points - 1), 12) for i in range(points)]


def demo_sweep(seed: int, work: Path, points: int = 1001, samples: int = 8) -> Plan:
    data = gen.demo_dataset(seed, work / "in")
    tables, versions = data["tables"], data["versions"]
    grid = _grid(points)
    argv = ["sweep", str(work / "in" / "manifest.json"), "--durations",
            *(str(work / "in" / f"durations_device{d}.json") for d in range(len(tables))),
            "--grid", f"0:1:{1 / (points - 1):.12g}", "--out", str(work / "out" / "sweep.csv")]
    multi = {g[0] for vs in versions.values() for gates in vs.values()
             for g in gates if g[2] == gen.UNITARY and len(g[1]) >= 2}

    def median_re(table, w_s):
        def weight(g):
            return 0.0 if g[0] == "rz" else 1.0 if g[0] in multi else w_s
        res = []
        for vs in versions.values():
            depths = {c: ref.dag_longest_path(gates, weight) for c, gates in vs.items()}
            runtimes = {c: ref.runtime(gates, table) for c, gates in vs.items()}
            res += [re for *_, re in ref.pairs(depths, runtimes) if re is not None]
        return statistics.median(res)

    sample_rng = random.Random(seed)

    def check(stdouts, out0):
        msgs = []
        with open(out0 / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["w_s", "device", "median_percent_re"]]:
            return [[f"bad CSV header {rows[:1]}"]]
        rows = rows[1:]
        if len(rows) != len(grid) * len(tables):
            return [[f"{len(rows)} CSV rows, expected {len(grid) * len(tables)}"]]
        argmin = _json_lines(stdouts[0])[-1].get("argmin_w_s", {})
        for d, table in enumerate(tables):
            block = rows[d * len(grid):(d + 1) * len(grid)]
            values = [float(r[2]) for r in block]
            for i, (w, dev, _) in enumerate(block):
                if dev != table["device"] or not close(float(w), grid[i]):
                    msgs.append(f"row {d * len(grid) + i}: ({w}, {dev}) is not grid point {grid[i]} of {table['device']}")
                    break
            best = min(range(len(grid)), key=lambda i: (values[i], i))
            if not close(argmin.get(table["device"]), grid[best]):
                msgs.append(f"{table['device']}: argmin {argmin.get(table['device'])} is not the CSV minimum at w_s={grid[best]}")
            for i in sorted(set(sample_rng.sample(range(len(grid)), min(samples, len(grid)))) | {best}):
                want = median_re(table, grid[i])
                if not close(values[i], want):
                    msgs.append(f"{table['device']} w_s={grid[i]}: median %RE {values[i]!r} != reference {want!r}")
        return [msgs]

    gates = len(grid) * len(tables) * sum(len(g) for vs in versions.values() for g in vs.values())
    # the probe sweeps every 5th grid point over the bundled demo's dataset,
    # whatever the seed, so that its work is the same in every run
    probe_in = work / "probe_in"
    gen.demo_dataset(gen.DEMO_SEED, probe_in)
    probe = ["sweep", str(probe_in / "manifest.json"), "--durations",
             *(str(probe_in / f"durations_device{d}.json") for d in range(len(tables))),
             "--grid", f"0:1:{min(1.0, 5 / (points - 1)):.12g}",
             "--out", str(work / "probe" / "sweep.csv")]
    return Plan([argv], [["sweep.csv"]], [0], gates, check, [probe], DEMO_PROBE_REF_S)


# ------------------------------------------------------ corpus_compare ---

METRICS = ("traditional", "multiqubit", "gateaware")


def corpus_compare(seed: int, work: Path, bases: int = 40,
                   min_gates: int = 30, max_gates: int = 600) -> Plan:
    data = gen.corpus_dataset(seed, work / "in", bases, min_gates, max_gates)
    tables, versions = data["tables"], data["versions"]
    devices = [str(work / "in" / f"device{d}.json") for d in range(len(tables))]
    calls = [
        ["weights", *devices, "--out", str(work / "out" / "weights.json")],
        ["compare", str(work / "in" / "manifest.json"), "--durations", devices[0],
         "--weights", str(work / "out" / "weights.json"), "--out", str(work / "out" / "report")],
    ]
    outputs = [["weights.json"], ["report/pairs.csv", "report/report.json", "report/summary.json"]]

    weights = ref.weight_map(tables)
    records = [{"base": base, "compiler": compiler,
                "metrics": {"traditional": ref.traditional(gates), "multiqubit": ref.multiqubit(gates)},
                "runtime_s": ref.runtime(gates, tables[0])}
               for base, vs in versions.items() for compiler, gates in vs.items()]

    def check_weights(out0):
        got = json.loads((out0 / "weights.json").read_text(encoding="utf-8"))
        if got.get("architecture") != gen.CORPUS_ARCH or set(got.get("weights", {})) != set(weights):
            return [f"weights.json names {sorted(got.get('weights', {}))} != {sorted(weights)}"]
        return [f"weight {n}: {got['weights'][n]!r} != reference {w!r}"
                for n, w in weights.items() if not close(got["weights"][n], w)]

    def check_compare(out0):
        # gate-aware depths use the weight map compare read, which
        # check_weights holds against the reference map
        used = json.loads((out0 / "weights.json").read_text(encoding="utf-8"))["weights"]
        for r in records:
            r["metrics"]["gateaware"] = ref.gate_aware(versions[r["base"]][r["compiler"]], used)
        msgs = []
        report = json.loads((out0 / "report" / "report.json").read_text(encoding="utf-8"))
        got_records = report["records"]
        if [(r["base"], r["compiler"]) for r in got_records] != [(r["base"], r["compiler"]) for r in records]:
            return ["report.json records are not the manifest's versions in order"]
        for got, want in zip(got_records, records):
            for m in METRICS:
                if not close(got["metrics"][m], want["metrics"][m]):
                    msgs.append(f"{want['base']}/{want['compiler']} {m}: {got['metrics'][m]!r} != {want['metrics'][m]!r}")
            if not close(got["runtime_s"], want["runtime_s"]):
                msgs.append(f"{want['base']}/{want['compiler']} runtime {got['runtime_s']!r} != {want['runtime_s']!r}")

        with open(out0 / "report" / "pairs.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected_rows, summary = [], {}
        for m in METRICS:
            res, hits, count = [], 0, 0
            for base in versions:
                values = {r["compiler"]: r["metrics"][m] for r in records if r["base"] == base}
                runtimes = {r["compiler"]: r["runtime_s"] for r in records if r["base"] == base}
                for c1, c2, dm, dr, re in ref.pairs(values, runtimes):
                    expected_rows.append((base, c1, c2, m, dm, dr, re))
                    count += 1
                    if re is not None:
                        res.append(re)
                hits += ref.identified(values, runtimes)
            summary[m] = (count, res, 100.0 * hits / len(versions))
        if len(rows) != len(expected_rows):
            msgs.append(f"pairs.csv has {len(rows)} rows, expected {len(expected_rows)}")
        for row, (base, c1, c2, m, dm, dr, re) in zip(rows, expected_rows):
            if (row["base"], row["compiler_a"], row["compiler_b"], row["metric"]) != (base, c1, c2, m):
                msgs.append(f"pairs.csv row {row} is not pair {(base, c1, c2, m)}")
                break
            for key, want in (("delta_metric", dm), ("delta_runtime", dr), ("percent_re", re)):
                got = float(row[key]) if row[key] else None
                if (got is None) != (want is None) or want is not None and not close(got, want):
                    msgs.append(f"{base} {c1}/{c2} {m} {key}: {row[key]!r} != {want!r}")

        got_summary = json.loads((out0 / "report" / "summary.json").read_text(encoding="utf-8"))
        for m in METRICS:
            count, res, accuracy = summary[m]
            s = got_summary["metrics"][m]
            if s["pair_count"] != count or s["excluded_pairs"] != count - len(res):
                msgs.append(f"summary {m}: pair counts {s['pair_count']}/{s['excluded_pairs']}"
                            f" != {count}/{count - len(res)}")
            want = (len(res), *ref.quartiles(res)) if res else None
            p = s["percent_re"]
            got = p and (p["n"], p["q1"], p["median"], p["q3"])
            if (got is None) != (want is None) or want and not (
                    got[0] == want[0] and all(map(close, got[1:], want[1:]))):
                msgs.append(f"summary {m}: %RE n/q1/median/q3 {got} != {want}")
            if not close(s["identification_accuracy_percent"], accuracy):
                msgs.append(f"summary {m}: identification {s['identification_accuracy_percent']} != {accuracy}")
        return msgs

    # the probe runs the same calls on a quarter of the bases, generated
    # from a fixed seed so that its work is the same in every run
    probe_in = work / "probe_in"
    gen.corpus_dataset(PROBE_SEED, probe_in, max(1, bases // 4), min_gates, max_gates)
    probe_devices = [str(probe_in / f"device{d}.json") for d in range(len(tables))]
    probe = [
        ["weights", *probe_devices, "--out", str(work / "probe" / "weights.json")],
        ["compare", str(probe_in / "manifest.json"), "--durations", probe_devices[0],
         "--weights", str(work / "probe" / "weights.json"), "--out", str(work / "probe" / "report")],
    ]
    gates = sum(len(g) for vs in versions.values() for g in vs.values())
    return Plan(calls, outputs, [1], gates,
                lambda stdouts, out0: [check_weights(out0), check_compare(out0)],
                probe, CORPUS_PROBE_REF_S)


WORKLOADS = {"demo_sweep": demo_sweep, "corpus_compare": corpus_compare}
