"""Command-line interface.

Subcommands:
    depth     compute depth metrics for .qasm files
    weights   configure an architecture weight map from duration tables
    estimate  estimate circuit runtimes from a duration table
    compare   run the pairwise %RE and identification analyses over a manifest
    sweep     sweep the single-qubit weight w_s over a grid

Exit codes: 0 ok, 2 parse error, 3 unresolved weight/duration or a depth or
runtime past the largest float, 4 configuration error, unwritable output or
(sweep) numpy that cannot be imported, 5 manifest error.
"""
from __future__ import annotations

import argparse
import csv
import json
import marshal
import math
import os
import sys
import threading
from contextlib import nullcontext, suppress
from functools import partial
from itertools import groupby, repeat
from operator import itemgetter
from pathlib import Path

from . import __version__
from .calibration import (ArchitectureMismatchError, DurationTable, configure_weights,
                          load_duration_table)
from .compare import (PairComparison, SweepPoint, VersionRecord, all_pairs,
                      identification_accuracy, summarize_distribution, sweep_single_qubit_weight)
from .metrics import (BARRIER_SKIP, MissingWeightError, WeightMap, increment_rule, lower,
                      metric_weights, read_json, row_ops, sweep, utf8_text, write_json)
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
# rows of a CSV report formatted, joined and written at a time; bounds the
# field texts and the line text held at once
CSV_CHUNK = 1024
# compare runs in one process per this many bytes of circuit files, up to
# one per usable CPU, and in one process below two. A fork and its reap
# cost about 3 ms; on 2 CPUs the demo's 26.7 KB took 12.8 ms in process
# against 15.7 ms forked, 8 bases of the benchmark's corpus (200 KB, so
# 100 KB a process) were about even, and its 40 bases (1.15 MB) went from
# 150 to 102 ms. Counts above 2 processes were not measured
SHARE_MIN_BYTES = 128 * 1024


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
    """``write(path, *args, **kwargs)``; a path that cannot be written exits
    4. The path None is stdout (a closed pipe, a full disk), which then
    points at the null device, so that the flush at exit writes nowhere."""
    try:
        write(path, *args, **kwargs)
    except OSError as exc:
        if path is None:
            path = "<stdout>"
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise CliError(EXIT_CONFIG, f"{path}: {exc.strerror or exc}")


def _stdout(write, *args) -> None:
    """``write(*args)``, a ``print`` or ``sys.stdout.flush``, as :func:`_write`
    writes the path None."""
    _write(None, lambda _: write(*args))


class _Line:
    """A file whose ``write`` returns the text it is given, so that
    ``csv.writer(_Line).writerow(row)`` returns the row's line."""

    write = str


def _field_texts(values, quote) -> list[str]:
    """Each of ``values`` as ``csv.writer`` writes it in a row of two or more
    fields: "" for None, else its str, as ``quote`` gives it. A float's str
    is its repr, which csv never quotes, so a column of floats and None is
    not quoted; any other column calls ``quote`` once per distinct text."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        return list(map(float.__repr__, values))
    if kinds <= {float, type(None)}:
        return ["" if v is None else float.__repr__(v) for v in values]
    texts = ["" if v is None else str(v) for v in values]
    quoted = {text: quote(text) for text in set(texts)}
    return list(map(quoted.__getitem__, texts))


def _save_csv(path, header, blocks) -> None:
    """Write ``header`` (two or more fields), then the rows of each block,
    byte for byte as ``csv.writer`` writes them: ``\\r\\n`` line ends, or
    ``\\n`` on stdout, the ``None`` path. A block gives each field, in
    header order, as a list of its value in each row, or as one value of
    another type that fills the field in every row; each block has a list.
    Fields are made a column at a time: a list that recurs in blocks is
    formatted once, a one-value field once per block, and csv.writer quotes
    each distinct text once per chunk under the stream's line end, on which
    its quoting depends. The rows are joined and written ``CSV_CHUNK`` at a
    time, so the text held is one chunk's."""
    end = "\r\n" if path else "\n"
    line = csv.writer(_Line, lineterminator=end).writerow
    cut = len(end) + 1

    def quote(text: str) -> str:
        return line((text, ""))[:-cut]  # "<field>,<end>" less its ",<end>"

    lists = [id(f) for block in blocks for f in block if type(f) is list]
    recurring = {key: None for key in lists if lists.count(key) > 1}  # id -> its texts, once made
    with open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        fh.write(",".join(map(quote, header)) + end)
        for block in blocks:
            # per field: its texts, made once for the block, or None to make them per chunk
            made = []
            for f in block:
                if type(f) is not list:
                    made.append(repeat(_field_texts([f], quote)[0]))
                elif id(f) in recurring:
                    recurring[id(f)] = recurring[id(f)] or _field_texts(f, quote)
                    made.append(recurring[id(f)])
                else:
                    made.append(None)
            for start in range(0, len(next(f for f in block if type(f) is list)), CSV_CHUNK):
                chunk = slice(start, start + CSV_CHUNK)
                columns = [_field_texts(f[chunk], quote) if texts is None
                           else texts if type(texts) is repeat else texts[chunk]
                           for f, texts in zip(block, made)]
                fh.write(end.join([*map(",".join, zip(*columns)), ""]))


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


def _sweep_values(path: str, circuit, metrics: tuple, weights, tables: list, barrier: str,
                  rows: dict | None = None) -> list:
    """Each requested metric's value, in order, then the runtime on each of
    ``tables``, in order, from one sweep of the circuit's :func:`lower`
    rows. ``rows`` is the row table of circuits lowered under these
    metrics, weights and tables, and gains this circuit's; None gives one
    for this circuit alone. A missing weight or duration exits 3, naming
    the gate :func:`lower` raises at; a value past the largest float exits 3
    after."""
    maps = metric_weights([circuit], weights) if metrics else {}
    rules = ([increment_rule(maps[m]) for m in metrics]
             + [partial(duration, table) for table in tables])
    try:
        lowered = lower(circuit, rules, rows)
    except (MissingWeightError, UnresolvedDurationError) as exc:
        raise CliError(EXIT_RESOLUTION, f"{path}: {exc.args[0]}")
    swept = sweep(circuit, lowered, barrier, *row_ops(len(rules)))
    values = list(swept) if len(rules) > 1 else [swept]
    for key, value in zip([DEPTH_KEYS[m] for m in metrics] + ["runtime_s"] * len(tables), values):
        if not math.isfinite(value):
            raise CliError(EXIT_RESOLUTION, f"{path}: {key} is {value}: a sum past the largest float")
    return values


# ---------------------------------------------------------------- depth ---

def cmd_depth(args) -> int:
    metrics = METRIC_NAMES if args.metric == "all" else (args.metric,)
    weights = _weights_for(metrics, args.weights)
    for path in args.files:
        values = _sweep_values(path, _read(path, EXIT_PARSE, parse_file), metrics, weights, [],
                               args.barrier)
        record = {"file": path, **{DEPTH_KEYS[m]: v if m == "gateaware" else int(round(v))
                                   for m, v in zip(metrics, values)}}
        _stdout(print, json.dumps(record))
    return EXIT_OK


# -------------------------------------------------------------- weights ---

def cmd_weights(args) -> int:
    tables = _read_device_tables(args.tables)
    try:
        wmap = configure_weights(tables, pooled=args.pooled)
    except ArchitectureMismatchError:
        path, table = next((p, t) for p, t in zip(args.tables, tables)
                           if t.architecture != tables[0].architecture)
        raise CliError(EXIT_CONFIG, f"{path}: architecture {table.architecture!r} is not "
                                    f"{tables[0].architecture!r}, that of {args.tables[0]}")
    except ValueError as exc:  # no gate, or no gate time above 0, in any table
        raise CliError(EXIT_CONFIG, f"{', '.join(args.tables)}: {exc}")
    if args.out:
        _write(args.out, wmap.save)
    _stdout(print, f"architecture: {wmap.architecture}")
    for name in sorted(wmap.weights):
        _stdout(print, f"  {name:>10s}  {wmap.weights[name]:.6g}")
    return EXIT_OK


# ------------------------------------------------------------- estimate ---

def cmd_estimate(args) -> int:
    tables = [_read(args.durations, EXIT_CONFIG, load_duration_table)]
    for path in args.files:
        [runtime] = _sweep_values(path, _read(path, EXIT_PARSE, parse_file), (), None, tables,
                                  args.barrier)
        _stdout(print, json.dumps({"file": path, "runtime_s": runtime}))
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
        utf8_text(base["name"], f"/bases/{i}/name: base name")
        versions = base.get("versions")
        if not isinstance(versions, list) or not versions:
            raise ValueError(f"/bases/{i}/versions: required non-empty array")
        for j, ver in enumerate(versions):
            if (not isinstance(ver, dict) or not isinstance(ver.get("compiler"), str)
                    or not isinstance(ver.get("file"), str)):
                raise ValueError(f"/bases/{i}/versions/{j}: requires compiler and file strings")
            utf8_text(ver["compiler"], f"/bases/{i}/versions/{j}/compiler: compiler id")
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


def _version_results(versions, metrics: tuple, weights, tables: list, barrier: str) -> list:
    """``(base, compiler, values, runtime)`` of each of manifest entries
    ``versions``, whole base groups of it, in order; the first failing
    version raises its CliError. Forked children run it as this process does."""
    results = []
    for base, compiler, path, circuit, rows in _parsed_versions(versions):
        *values, runtime = _sweep_values(path, circuit, metrics, weights, tables, barrier, rows)
        results.append((base, compiler, values, runtime))
    return results


def _file_bytes(path: str) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, ValueError):  # its parse reports it
        return 0


def _shares(manifest: list[tuple[str, str, str]]) -> list[list[tuple[str, str, str]]]:
    """``manifest`` cut into one run of whole base groups per process to
    use, in order, of about equal file bytes: min(usable CPUs, base groups,
    file bytes // ``SHARE_MIN_BYTES``) runs, or one if that is below two or
    this process cannot fork or has more than one thread."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return [manifest]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    groups = [list(versions) for _, versions in groupby(manifest, key=itemgetter(0))]
    sizes = [sum(_file_bytes(path) for *_, path in group) for group in groups]
    total = sum(sizes)
    n = min(cpus, len(groups), total // SHARE_MIN_BYTES)
    if n < 2:
        return [manifest]
    shares: list[list] = [[] for _ in range(n)]
    done = 0
    for group, size in zip(groups, sizes):  # a group goes to the share its middle byte falls in
        shares[min(n - 1, (2 * done + size) * n // (2 * total))] += group
        done += size
    return [share for share in shares if share]


def _fork(work, share) -> tuple[int, int] | None:
    """The pid of a forked child that sends ``marshal.dumps`` of
    ``work(share)``, a list, or of the ``(code, message)`` tuple of the
    CliError it raises, down a pipe, and the pipe's read end, or None if no
    process can be started. The child writes nothing else, flushes no
    buffer it inherited and exits by ``os._exit``: 0 once it has sent the
    result, 1 on any other exception."""
    try:
        read, write = os.pipe()
    except OSError:  # no descriptor left
        return None
    try:
        pid = os.fork()
    except OSError:  # a process limit, or no memory for one
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                result = work(share)
            except CliError as exc:
                result = (exc.code, str(exc))
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(result))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _loaded(data: bytes, status: int):
    """The result a child sent as ``data``, or None if it exited nonzero
    (``status``), was killed or sent a truncated result."""
    if status != 0:
        return None
    try:
        return marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        return None


def _compared_versions(manifest, metrics: tuple, weights, tables: list, barrier: str) -> list:
    """``(base, compiler, values, runtime)`` of each version of ``manifest``,
    in order, from :func:`_version_results` on each of :func:`_shares`: the
    first share in this process, each other in a forked child. A share
    whose child cannot be started or sends no result runs here. The first
    failing version in manifest order raises its CliError, as the share
    that holds it is reached; no child outlives the call."""
    work = partial(_version_results, metrics=metrics, weights=weights, tables=tables,
                   barrier=barrier)
    shares = _shares(manifest)
    children: list = []  # (pid, read end) or None of shares[1:], in order
    reaped: set[int] = set()
    try:
        for share in shares[1:]:
            children.append(_fork(work, share))
        results = work(shares[0])
        for child, share in zip(children, shares[1:]):
            outcome = None
            if child is not None:
                pid, read = child
                with open(read, "rb", closefd=False) as pipe:
                    data = pipe.read()
                try:
                    status = os.waitpid(pid, 0)[1]
                except ChildProcessError:  # reaped already, where SIGCHLD is ignored
                    status = 0  # so the result alone tells
                reaped.add(pid)
                outcome = _loaded(data, status)
            if type(outcome) is tuple:  # a child's CliError
                raise CliError(*outcome)
            results += work(share) if outcome is None else outcome
    finally:
        for pid, read in filter(None, children):
            os.close(read)
            if pid not in reaped:
                from signal import SIGKILL  # only when a child may still run
                with suppress(ProcessLookupError, ChildProcessError):  # gone, SIGCHLD ignored
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
    return results


# -------------------------------------------------------------- compare ---

def cmd_compare(args) -> int:
    metrics = tuple(args.metrics.split(","))
    for i, metric in enumerate(metrics):
        if metric not in METRIC_NAMES:
            raise CliError(EXIT_CONFIG, f"unknown metric {metric!r}; choose from {METRIC_NAMES}")
        if metric in metrics[:i]:
            raise CliError(EXIT_CONFIG, f"metric {metric!r} repeated in --metrics")
    manifest = _read(args.manifest, EXIT_MANIFEST, _load_manifest)
    tables = [_read(args.durations, EXIT_CONFIG, load_duration_table)]
    weights = _weights_for(metrics, args.weights)

    records = [VersionRecord(base, compiler, dict(zip(metrics, values)), runtime)
               for base, compiler, values, runtime
               in _compared_versions(manifest, metrics, weights, tables, args.barrier)]

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
        pairs += ({**c._asdict(), "flags": ";".join(c.flags)} for c in comparisons)
        summary["metrics"][metric] = {
            "pair_count": len(comparisons),
            "excluded_pairs": len(comparisons) - len(res),
            "percent_re": summarize_distribution(res)._asdict() if res else None,
            "identification_accuracy_percent": accuracy,
            "identifications": [{k: v for k, v in r._asdict().items() if k != "metric"}
                                for r in idents],
        }

    out_dir = Path(args.out)
    _write(args.out, os.makedirs, exist_ok=True)
    _write(out_dir / "pairs.csv", _save_csv, PairComparison._fields,
           [[list(map(itemgetter(field), pairs)) for field in PairComparison._fields]])
    _write(out_dir / "report.json", write_json,
           {"records": [r._asdict() for r in records], "pairs": pairs})
    _write(out_dir / "summary.json", write_json, summary)

    for metric in metrics:
        m = summary["metrics"][metric]
        med = (f"median %RE {m['percent_re']['median']:.6g}" if m["percent_re"]
               else "no defined %RE")
        _stdout(print, f"{metric:>12s}: {m['pair_count']} pairs, {med}, "
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
    versions, runtimes = [], []
    for base, compiler, path, circuit, rows in _parsed_versions(manifest):
        versions.append((base, compiler, circuit))
        runtimes.append(_sweep_values(path, circuit, (), None, tables, BARRIER_SKIP, rows))
    devices = [t.device for t in tables]
    try:
        result = sweep_single_qubit_weight(versions, runtimes, devices, grid)
    except ImportError:  # the grid is the one analysis that imports numpy
        raise CliError(EXIT_CONFIG, "sweep needs numpy, which cannot be imported")
    except OverflowError as exc:  # a depth past the largest float
        raise CliError(EXIT_RESOLUTION, f"{args.manifest}: {exc.args[0]}")
    except ValueError as exc:  # the grid is valid, so a point has no defined %RE
        raise CliError(EXIT_MANIFEST, f"{args.manifest}: {exc}")

    # each device's points, in grid order, are one block, so the grid's texts are made once
    medians = list(map(itemgetter(2), result.points))
    blocks = [(grid, device, medians[k * len(grid):(k + 1) * len(grid)])
              for k, device in enumerate(devices)]
    _write(args.out or None, _save_csv, SweepPoint._fields, blocks)
    _stdout(print, json.dumps({"argmin_w_s": dict(result.argmin_w_s)}, sort_keys=True))
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
        _stdout(sys.stdout.flush)
        return code
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
