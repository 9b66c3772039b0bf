"""Command-line interface.

Subcommands:
    depth     compute depth metrics for .qasm files
    weights   configure an architecture weight map from duration tables
    estimate  estimate circuit runtimes from a duration table
    compare   run the pairwise %RE and identification analyses over a manifest
    sweep     sweep the single-qubit weight w_s over a grid

Exit codes: 0 ok, 2 parse error, 3 unresolved weight/duration or a depth or
runtime past the largest float, 4 configuration error or unwritable output,
5 manifest error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import fields
from functools import partial
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from . import __version__
from .calibration import DurationTable, configure_weights, load_duration_table
from .compare import (PairComparison, SweepPoint, VersionRecord, all_pairs,
                      identification_accuracy, summarize_distribution, sweep_single_qubit_weight)
from .metrics import (MissingWeightError, WeightMap, increment_rule, lower, metric_weights,
                      read_json, sweep, tuple_add, tuple_max, write_json)
from .qasm import QasmParseError, parse_file
from .runtime import UnresolvedDurationError, duration
# not called here: bench/tracing.py wraps these names in this module
from .ir import validate  # noqa: F401
from .metrics import gate_aware_depth, multiqubit_depth, traditional_depth  # noqa: F401
from .runtime import estimate_runtime  # noqa: F401

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOLUTION = 3
EXIT_CONFIG = 4
EXIT_MANIFEST = 5

METRIC_NAMES = ("traditional", "multiqubit", "gateaware")
# the key of each metric in a `depth` output line
DEPTH_KEYS = {"traditional": "traditional_depth", "multiqubit": "multiqubit_depth",
              "gateaware": "gate_aware_depth"}
# most points a --grid may have; a larger grid is rejected before it is built
MAX_GRID_POINTS = 1_000_000


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _read(path: str, code: int, load, what: str = ""):
    """``load(path)``; a file that cannot be read, or that ``load`` rejects
    with a ``ValueError``, exits ``code`` with one line per error, each
    starting with the path (``what`` leads a ``ValueError``'s message)."""
    try:
        return load(path)
    except FileNotFoundError:
        reason = "file not found"
    except UnicodeDecodeError as exc:  # a ValueError: caught before ValueError
        reason = f"not UTF-8 text: byte {exc.start}: {exc.reason}"
    except OSError as exc:
        reason = exc.strerror or exc
    except QasmParseError as exc:
        raise CliError(code, "\n".join(f"{path}:{d}" for d in exc.diagnostics))
    except ValueError as exc:
        reason = f"{what}{exc}"
    raise CliError(code, f"{path}: {reason}")


def _write(path, write, *args, **kwargs) -> None:
    """``write(path, *args, **kwargs)``; a path that cannot be written exits 4."""
    try:
        write(path, *args, **kwargs)
    except OSError as exc:
        raise CliError(EXIT_CONFIG, f"{path}: {exc.strerror or exc}")


def _save_csv(path, header, rows) -> None:
    """``None`` is written as an empty field; a ``None`` path is stdout."""
    with open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\r\n" if path else "\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_device_tables(paths: list[str]) -> list[DurationTable]:
    """The duration table of each path, one device each: a table that names
    the device of an earlier one exits 4, naming its file and the device."""
    tables = [_read(path, EXIT_CONFIG, load_duration_table) for path in paths]
    for i, (path, table) in enumerate(zip(paths, tables)):
        if table.device in (t.device for t in tables[:i]):
            raise CliError(EXIT_CONFIG, f"{path}: device {table.device!r} is in an earlier table")
    return tables


def _weights_for(metrics: tuple[str, ...], path: str | None) -> dict | None:
    """The weights the gate-aware metric needs, if it is requested."""
    if "gateaware" not in metrics:
        return None
    if path is None:
        raise CliError(EXIT_RESOLUTION, "metric gateaware requires --weights")
    return _read(path, EXIT_CONFIG, WeightMap.load, "invalid weight map: ").weights


def _sweep_values(path: str, circuit, metrics: tuple, weights, table, barrier: str,
                  rows: dict | None = None) -> list:
    """Each requested metric's value, in order, then the runtime if
    ``table`` is given, from one sweep of the circuit's :func:`lower` rows.
    ``rows`` is the row table of circuits lowered under these metrics,
    weights and table, and gains this circuit's; None gives one for this
    circuit alone. A missing weight or duration exits 3, naming the gate
    :func:`lower` raises at; a value past the largest float exits 3 after."""
    maps = metric_weights([circuit], weights) if metrics else {}
    rules = [increment_rule(maps[m]) for m in metrics]
    if table is not None:
        rules.append(partial(duration, table))
    try:
        lowered = lower(circuit, rules, rows)
    except (MissingWeightError, UnresolvedDurationError) as exc:
        raise CliError(EXIT_RESOLUTION, f"{path}: {exc.args[0]}")
    if len(rules) == 1:
        values = [sweep(circuit, lowered, barrier)]
    else:
        values = list(sweep(circuit, lowered, barrier, (0.0,) * len(rules), tuple_max, tuple_add))
    for key, value in zip([DEPTH_KEYS[m] for m in metrics] + ["runtime_s"], values):
        if not math.isfinite(value):
            raise CliError(EXIT_RESOLUTION, f"{path}: {key} is {value}: a sum past the largest float")
    return values


# ---------------------------------------------------------------- depth ---

def cmd_depth(args) -> int:
    metrics = METRIC_NAMES if args.metric == "all" else (args.metric,)
    weights = _weights_for(metrics, args.weights)
    for path in args.files:
        values = _sweep_values(path, _read(path, EXIT_PARSE, parse_file), metrics, weights, None,
                               args.barrier)
        record = {"file": path, **{DEPTH_KEYS[m]: v if m == "gateaware" else int(round(v))
                                   for m, v in zip(metrics, values)}}
        print(json.dumps(record))
    return EXIT_OK


# -------------------------------------------------------------- weights ---

def cmd_weights(args) -> int:
    tables = _read_device_tables(args.tables)
    try:
        wmap = configure_weights(tables, pooled=args.pooled)
    except ValueError as exc:  # includes ArchitectureMismatchError
        raise CliError(EXIT_CONFIG, str(exc))
    if args.out:
        _write(args.out, wmap.save)
    print(f"architecture: {wmap.architecture}")
    for name in sorted(wmap.weights):
        print(f"  {name:>10s}  {wmap.weights[name]:.6g}")
    return EXIT_OK


# ------------------------------------------------------------- estimate ---

def cmd_estimate(args) -> int:
    table = _read(args.durations, EXIT_CONFIG, load_duration_table)
    for path in args.files:
        [runtime] = _sweep_values(path, _read(path, EXIT_PARSE, parse_file), (), None, table,
                                  args.barrier)
        print(json.dumps({"file": path, "runtime_s": runtime}))
    return EXIT_OK


# ------------------------------------------------------------- manifest ---

def _load_manifest(path: str) -> list[tuple[str, str, str]]:
    """The (base name, compiler id, file path) of every version, in manifest
    order; a relative file path is taken from the manifest's directory."""
    data = read_json(path)
    bases = data.get("bases") if isinstance(data, dict) else None
    if not isinstance(bases, list) or not bases:
        raise ValueError("/bases: required non-empty array")
    root = Path(path).parent
    out: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str]] = set()  # (base name, compiler id)
    for i, base in enumerate(bases):
        if not isinstance(base, dict) or not isinstance(base.get("name"), str):
            raise ValueError(f"/bases/{i}/name: required string")
        versions = base.get("versions")
        if not isinstance(versions, list) or not versions:
            raise ValueError(f"/bases/{i}/versions: required non-empty array")
        for j, ver in enumerate(versions):
            if (not isinstance(ver, dict) or not isinstance(ver.get("compiler"), str)
                    or not isinstance(ver.get("file"), str)):
                raise ValueError(f"/bases/{i}/versions/{j}: requires compiler and file strings")
            key = (base["name"], ver["compiler"])
            if key in seen:
                raise ValueError(f"/bases/{i}/versions/{j}/compiler: "
                                 f"duplicate compiler id {ver['compiler']!r}")
            seen.add(key)
            out.append((*key, str(root / ver["file"])))  # an absolute file stays as it is
    return out


def _parsed_versions(manifest: list[tuple[str, str, str]]):
    """Each (base name, compiler id, file path, circuit, row table) of
    ``manifest``, in order, parsed as it is reached. Versions of one base
    repeat one another's statements and gates, so consecutive versions of
    a base share a statement memo and a row table for :func:`_sweep_values`;
    a new base starts new ones, which keeps their memory to one base's
    statements and gates."""
    for base, versions in groupby(manifest, key=itemgetter(0)):
        statements: dict = {}
        rows: dict = {}
        for _, compiler, path in versions:
            yield (base, compiler, path, _read(path, EXIT_PARSE, lambda p: parse_file(p, statements)),
                   rows)


# -------------------------------------------------------------- compare ---

def cmd_compare(args) -> int:
    metrics = tuple(args.metrics.split(","))
    for i, metric in enumerate(metrics):
        if metric not in METRIC_NAMES:
            raise CliError(EXIT_CONFIG, f"unknown metric {metric!r}; choose from {METRIC_NAMES}")
        if metric in metrics[:i]:
            raise CliError(EXIT_CONFIG, f"metric {metric!r} repeated in --metrics")
    manifest = _read(args.manifest, EXIT_MANIFEST, _load_manifest)
    table = _read(args.durations, EXIT_CONFIG, load_duration_table)
    weights = _weights_for(metrics, args.weights)

    records = []
    for base, compiler, path, circuit, rows in _parsed_versions(manifest):
        *values, runtime = _sweep_values(path, circuit, metrics, weights, table, args.barrier, rows)
        records.append(VersionRecord(base, compiler, dict(zip(metrics, values)), runtime))

    pairs: list[dict] = []  # the rows of pairs.csv, and the pairs of report.json
    summary: dict = {
        "quartile_method": "linear",
        "orientation": "lexicographically smaller compiler id is the denominator C2",
        "metrics": {},
    }
    for metric in metrics:
        comparisons = all_pairs(records, metric)
        res = [c.percent_re for c in comparisons if c.percent_re is not None]
        try:
            accuracy, idents = identification_accuracy(records, metric)
        except ValueError as exc:  # no base has two versions
            raise CliError(EXIT_MANIFEST, f"{args.manifest}: {exc}")
        pairs += ({**vars(c), "flags": ";".join(c.flags)} for c in comparisons)
        summary["metrics"][metric] = {
            "pair_count": len(comparisons),
            "excluded_pairs": len(comparisons) - len(res),
            "percent_re": vars(summarize_distribution(res)) if res else None,
            "identification_accuracy_percent": accuracy,
            "identifications": [{k: v for k, v in vars(r).items() if k != "metric"}
                                for r in idents],
        }

    out_dir = Path(args.out)
    _write(args.out, os.makedirs, exist_ok=True)
    _write(out_dir / "pairs.csv", _save_csv, [f.name for f in fields(PairComparison)],
           [row.values() for row in pairs])
    _write(out_dir / "report.json", write_json,
           {"records": [vars(r) for r in records], "pairs": pairs})
    _write(out_dir / "summary.json", write_json, summary)

    for metric in metrics:
        m = summary["metrics"][metric]
        med = (f"median %RE {m['percent_re']['median']:.6g}" if m["percent_re"]
               else "no defined %RE")
        print(f"{metric:>12s}: {m['pair_count']} pairs, {med}, "
              f"identification accuracy {m['identification_accuracy_percent']:.6g}%")
    return EXIT_OK


# ---------------------------------------------------------------- sweep ---

def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(part) for part in spec.split(":"))
    except ValueError:
        raise CliError(EXIT_CONFIG, f"invalid grid {spec!r}; expected start:stop:step")
    if not all(map(math.isfinite, (start, stop, step))):
        raise CliError(EXIT_CONFIG, f"invalid grid {spec!r}; start, stop and step must be finite")
    if start < 0:
        raise CliError(EXIT_CONFIG, f"invalid grid {spec!r}; w_s must be >= 0")
    if step <= 0 or stop < start:
        raise CliError(EXIT_CONFIG, f"invalid grid {spec!r}; need step > 0 and stop >= start")
    span = (stop - start) / step  # may overflow to inf, which round() rejects
    if span >= MAX_GRID_POINTS or round(span) + 1 > MAX_GRID_POINTS:
        raise CliError(EXIT_CONFIG, f"invalid grid {spec!r}; more than {MAX_GRID_POINTS} points")
    n = round(span) + 1
    grid = [round(start + i * step, 12) for i in range(n)]
    grid = [g for g in grid if g <= stop + 1e-12]
    if len(set(grid)) < len(grid):  # rounding keeps the order, so points collide as repeats
        raise CliError(EXIT_CONFIG, f"invalid grid {spec!r}; points collide at 12 decimals")
    return grid


def cmd_sweep(args) -> int:
    manifest = _read(args.manifest, EXIT_MANIFEST, _load_manifest)
    tables = _read_device_tables(args.durations)
    grid = _parse_grid(args.grid)
    versions = [(base, compiler, circuit)
                for base, compiler, _, circuit, _ in _parsed_versions(manifest)]
    try:
        result = sweep_single_qubit_weight(versions, tables, grid)
    except (UnresolvedDurationError, OverflowError) as exc:
        raise CliError(EXIT_RESOLUTION, exc.args[0])
    except ValueError as exc:  # the grid is valid, so a point has no defined %RE
        raise CliError(EXIT_MANIFEST, str(exc))

    header = SweepPoint._fields
    if args.out:
        _write(args.out, _save_csv, header, result.points)
    else:
        _save_csv(None, header, result.points)
    print(json.dumps({"argmin_w_s": dict(result.argmin_w_s)}, sort_keys=True))
    return EXIT_OK


# ----------------------------------------------------------------- main ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatedepth",
        description="Quantum circuit depth metrics, runtime estimation, and accuracy analyses.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("depth", help="compute depth metrics for circuits")
    p.add_argument("files", nargs="+", metavar="FILE.qasm")
    p.add_argument("--metric", choices=METRIC_NAMES + ("all",), default="all")
    p.add_argument("--weights", help="weight-map JSON (required for gateaware)")
    p.add_argument("--barrier", choices=("skip", "sync"), default="skip")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("weights", help="configure a weight map from duration tables")
    p.add_argument("tables", nargs="+", metavar="TABLE.json")
    p.add_argument("--out", help="write the weight map JSON here")
    p.add_argument("--pooled", action="store_true",
                   help="pool entries across devices instead of averaging device means")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("estimate", help="estimate circuit runtimes")
    p.add_argument("files", nargs="+", metavar="FILE.qasm")
    p.add_argument("--durations", required=True, help="duration-table JSON")
    p.add_argument("--barrier", choices=("skip", "sync"), default="skip")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("compare", help="pairwise %RE and identification analyses")
    p.add_argument("manifest", help="manifest JSON mapping bases to version files")
    p.add_argument("--metrics", default="traditional,multiqubit,gateaware",
                   help="comma-separated metric list")
    p.add_argument("--durations", required=True)
    p.add_argument("--weights")
    p.add_argument("--barrier", choices=("skip", "sync"), default="skip")
    p.add_argument("--out", required=True, help="output directory for reports")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="sweep the single-qubit weight w_s")
    p.add_argument("manifest")
    p.add_argument("--durations", required=True, nargs="+",
                   help="one duration-table JSON per device")
    p.add_argument("--grid", default="0:1:0.01", help="start:stop:step")
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except BrokenPipeError:  # the reader closed stdout; the flush at exit then writes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("<stdout>: Broken pipe", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
