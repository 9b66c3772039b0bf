import contextlib
import csv
import errno
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gatedepth.calibration
import gatedepth.cli
import gatedepth.compare
import gatedepth.metrics
import gatedepth.runtime
from conftest import ONE_QUBIT, THREE_QUBIT, TWO_QUBIT, qasm_texts, random_circuit
from gatedepth.calibration import DurationTable
from gatedepth.cli import METRIC_NAMES, MAX_GRID_POINTS, CliError, _parse_grid, _sweep_values, main
from gatedepth.compare import VersionRecord, all_pairs, sweep_single_qubit_weight
from gatedepth.ir import DELAY, Circuit, Gate
from gatedepth.metrics import WeightMap, gate_aware_depth, multiqubit_depth, traditional_depth
from gatedepth.runtime import estimate_runtime

REF_TEXT = (
    "OPENQASM 2.0;\n"
    'include "qelib1.inc";\n'
    "qreg q[3];\n"
    "cz q[0],q[1];\n"
    "x q[0];\nx q[0];\nx q[0];\nx q[1];\n"
    "cz q[1],q[2];\n"
)


@pytest.fixture
def ref_qasm(tmp_path):
    path = tmp_path / "ref.qasm"
    path.write_text(REF_TEXT)
    return str(path)


@pytest.fixture
def weights_json(tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"architecture": "eagle", "weights": {"cz": 1.0, "x": 0.1}}))
    return str(path)


@pytest.fixture
def durations_json(tmp_path):
    path = tmp_path / "durations.json"
    path.write_text(json.dumps({
        "device": "dev", "architecture": "eagle",
        "entries": [
            {"gate": "cz", "qubits": [0, 1], "duration_s": 5.0e-7},
            {"gate": "cz", "qubits": [1, 2], "duration_s": 5.0e-7},
        ],
        "defaults": {"x": 5.0e-8},
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- depth --------------------------------------------------------------

def test_depth_traditional(ref_qasm, capsys):
    code, out, _ = run(capsys, "depth", "--metric", "traditional", ref_qasm)
    assert code == 0
    record = json.loads(out)
    assert record == {"file": ref_qasm, "traditional_depth": 4}


def test_depth_gateaware(ref_qasm, weights_json, capsys):
    code, out, _ = run(capsys, "depth", "--metric", "gateaware", "--weights", weights_json, ref_qasm)
    assert code == 0
    assert json.loads(out)["gate_aware_depth"] == pytest.approx(2.1)


def test_depth_all_metrics(ref_qasm, weights_json, capsys):
    code, out, _ = run(capsys, "depth", "--weights", weights_json, ref_qasm)
    record = json.loads(out)
    assert (record["traditional_depth"], record["multiqubit_depth"]) == (4, 2)
    # JSON integers: "4.0" would load as a float
    assert (type(record["traditional_depth"]), type(record["multiqubit_depth"])) == (int, int)
    assert record["gate_aware_depth"] == pytest.approx(2.1)


def test_depth_gateaware_without_weights_exits_3(ref_qasm, capsys):
    code, _, err = run(capsys, "depth", "--metric", "gateaware", ref_qasm)
    assert code == 3
    assert "--weights" in err


def test_depth_missing_weight_entry_exits_3(ref_qasm, tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"architecture": "", "weights": {"x": 0.1}}))
    code, _, err = run(capsys, "depth", "--metric", "gateaware", "--weights", str(weights), ref_qasm)
    assert code == 3
    assert "cz" in err


def test_depth_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0; qreg q[1]; gate foo a { x a; }")
    code, _, err = run(capsys, "depth", "--metric", "traditional", str(bad))
    assert code == 2
    assert "custom gate definitions unsupported" in err


@pytest.mark.parametrize("document, named", [
    ("[1, 2]", "/:"),
    ("{}", "/weights:"),
    ('{"weights": [1]}', "/weights:"),
    ('{"weights": {"x": "a"}}', "/weights/x:"),
    ('{"weights": {"x": true}}', "/weights/x:"),
    ('{"weights": {"x": 1e400}}', "/weights/x:"),
    ('{"weights": {"x": 1' + "0" * 400 + "}}", "/weights/x:"),
], ids=["list", "no-weights", "weights-list", "string", "bool", "inf", "huge-int"])
def test_malformed_weight_map_exits_4(document, named, ref_qasm, tmp_path, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(document)
    code, out, err = run(capsys, "depth", "--weights", str(weights), ref_qasm)
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"invalid weight map: {named}" in err


@pytest.mark.parametrize("body", [
    "creg c[1]; measure q[0] -> c[5];",
    "creg c[1]; measure q -> c[0];",
    "qreg r[1]; creg c[3]; measure r -> c;",
    "rz(" + "(" * 30_000 + "1" + ")" * 30_000 + ") q[0];",
], ids=["bit-index", "register-to-bit", "register-sizes", "nested-parentheses"])
def test_malformed_qasm_exits_2(body, tmp_path, capsys):
    qasm = tmp_path / "bad.qasm"
    qasm.write_text(f"OPENQASM 2.0; qreg q[3]; {body}")
    code, out, err = run(capsys, "depth", "--metric", "traditional", str(qasm))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("body, diagnostic", [
    ("qreg q[0];", "2:8: error: register size must be positive, got 0"),
    ("include;", "2:8: error: expected include file name, found ';'"),
    ('include "qelib1.inc"', "3:1: error: expected ;, found end of input"),
    ("qreg q[1];\ngate g {", "3:1: error: custom gate definitions unsupported"),
], ids=["empty-register", "include-without-name", "include-without-semicolon",
        "unterminated-gate-definition"])
def test_malformed_statement_exits_2_at_its_position(body, diagnostic, tmp_path, capsys):
    qasm = tmp_path / "bad.qasm"
    qasm.write_text(f"OPENQASM 2.0;\n{body}\n")
    assert run(capsys, "depth", "--metric", "traditional", str(qasm)) == (2, "", f"{qasm}:{diagnostic}\n")


def test_broadcast_past_gate_limit_exits_2_at_the_gate_name(tmp_path, capsys):
    qasm = tmp_path / "huge.qasm"
    qasm.write_text("OPENQASM 2.0;\nqreg q[2147483647];\n  x q;\n")
    code, out, err = run(capsys, "depth", "--metric", "traditional", str(qasm))
    assert (code, out) == (2, "")
    assert err == f"{qasm}:3:3: error: 'x' would expand the program past 1000000 gates\n"


@pytest.fixture(scope="module")
def fuzz_qasm(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.qasm"


@given(data=st.one_of(st.binary(), qasm_texts.map(str.encode)))
@settings(max_examples=200)
def test_depth_on_any_bytes_exits_0_or_2(data, fuzz_qasm):
    fuzz_qasm.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["depth", "--metric", "traditional", str(fuzz_qasm)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("unreadable", ["missing", "directory", "not-utf8", "not-json", "schema",
                                        "nested"])
@pytest.mark.parametrize("loader, expected", [
    ("qasm", 2), ("durations", 4), ("second-table", 4), ("weights", 4), ("manifest", 5),
])
def test_unreadable_input_exits_with_its_loader_code(loader, expected, unreadable, ref_qasm,
                                                     durations_json, tmp_path, capsys):
    """One line that names the file once, first; a QASM file's syntax error
    gives its line and column after the name."""
    bad = tmp_path / "input"
    if unreadable == "directory":
        bad.mkdir()
    elif unreadable != "missing":
        bad.write_bytes({"not-utf8": b'OPENQASM 2.0; {"\xff": 1}\n', "not-json": b'{"device"\n',
                         "schema": b"[1, 2]\n", "nested": b"[" * 100_000}[unreadable])
    argv = {
        "qasm": ["depth", "--metric", "traditional", str(bad)],
        "durations": ["estimate", "--durations", str(bad), ref_qasm],
        "second-table": ["weights", durations_json, str(bad)],
        "weights": ["depth", "--weights", str(bad), ref_qasm],
        "manifest": ["compare", str(bad), "--durations", durations_json,
                     "--out", str(tmp_path / "out")],
    }[loader]
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""
    located = loader == "qasm" and unreadable in ("not-json", "schema", "nested")
    assert err.startswith(f"{bad}:1:1: error: " if located else f"{bad}: ")
    assert err.count(str(bad)) == 1 and err.count("\n") == 1


def test_depth_deterministic_output(ref_qasm, weights_json, capsys):
    _, out1, _ = run(capsys, "depth", "--weights", weights_json, ref_qasm)
    _, out2, _ = run(capsys, "depth", "--weights", weights_json, ref_qasm)
    assert out1 == out2


# --- weights ------------------------------------------------------------

def _write_table(path, device, architecture, means):
    path.write_text(json.dumps({
        "device": device, "architecture": architecture,
        "entries": [{"gate": g, "qubits": [i], "duration_s": d}
                    for i, (g, d) in enumerate(means.items())],
    }))
    return str(path)


def test_weights_command(tmp_path, capsys):
    tables = [
        _write_table(tmp_path / f"t{i}.json", f"dev{i}", "eagle",
                     {"ecr": 5.33e-7, "sx": 5.02e-8, "x": 5.02e-8, "rz": 0.0})
        for i in range(3)
    ]
    out_path = tmp_path / "wmap.json"
    code, out, _ = run(capsys, "weights", *tables, "--out", str(out_path))
    assert code == 0
    wmap = json.loads(out_path.read_text())
    assert wmap["architecture"] == "eagle"
    assert wmap["weights"]["ecr"] == 1.0
    assert wmap["weights"]["sx"] == pytest.approx(0.0942, abs=5e-5)
    assert "ecr" in out


def test_weights_single_table_self_normalizes(tmp_path, capsys):
    table = _write_table(tmp_path / "t.json", "d", "a", {"cz": 6.6e-7})
    out_path = tmp_path / "w.json"
    code, _, _ = run(capsys, "weights", table, "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["weights"] == {"cz": 1.0}


def test_weights_mixed_architectures_exit_4(tmp_path, capsys):
    t1 = _write_table(tmp_path / "e.json", "d0", "eagle", {"ecr": 5e-7})
    t2 = _write_table(tmp_path / "h.json", "d1", "heron", {"cz": 7e-8})
    code, _, err = run(capsys, "weights", t1, t2)
    assert code == 4
    assert "architecture" in err


@pytest.mark.parametrize("means, reason", [
    ({}, "duration tables contain no gates"),
    ({"cz": 0.0}, "all gate-time means are zero; no normalization anchor"),
], ids=["no gate", "no time above 0"])
def test_weights_without_a_gate_time_above_0_exit_4_led_by_every_table(means, reason, tmp_path,
                                                                       capsys):
    tables = [_write_table(tmp_path / f"t{i}.json", f"dev{i}", "eagle", means) for i in range(2)]
    out_path = tmp_path / "wmap.json"
    assert run(capsys, "weights", *tables, "--out", str(out_path)) == (
        4, "", f"{tables[0]}, {tables[1]}: {reason}\n")
    assert not out_path.exists()


def test_weights_rejects_two_tables_of_one_device(tmp_path, capsys):
    """A device's table given twice would count its means twice in the
    cross-device mean; it exits 4 as in sweep, and writes nothing."""
    tables = [_write_table(tmp_path / f"t{i}.json", f"dev{i}", "eagle", {"ecr": 5e-7, "sx": 5e-8 * (i + 1)})
              for i in range(2)]
    copy = tmp_path / "copy.json"
    copy.write_text(Path(tables[0]).read_text())
    out_path = tmp_path / "wmap.json"
    for second in (tables[0], str(copy)):
        code, out, err = run(capsys, "weights", tables[0], second, tables[1], "--out", str(out_path))
        assert (code, out) == (4, "")
        assert err == f"{second}: device 'dev0' is in an earlier table\n"
    assert not out_path.exists()


# --- estimate -----------------------------------------------------------

def test_estimate_empty_circuit(tmp_path, durations_json, capsys):
    empty = tmp_path / "empty.qasm"
    empty.write_text("OPENQASM 2.0; qreg q[1];")
    code, out, _ = run(capsys, "estimate", "--durations", durations_json, str(empty))
    assert code == 0
    assert json.loads(out)["runtime_s"] == 0.0


def test_estimate_single_gate(tmp_path, capsys):
    qasm = tmp_path / "one.qasm"
    qasm.write_text("OPENQASM 2.0; qreg q[2]; ecr q[0],q[1];")
    table = tmp_path / "t.json"
    table.write_text(json.dumps({
        "device": "d", "architecture": "a",
        "entries": [{"gate": "ecr", "qubits": [0, 1], "duration_s": 5.33e-7}],
    }))
    code, out, _ = run(capsys, "estimate", "--durations", str(table), str(qasm))
    assert code == 0
    assert json.loads(out)["runtime_s"] == 5.33e-7


def test_estimate_reversed_direction_exits_3(tmp_path, capsys):
    qasm = tmp_path / "rev.qasm"
    qasm.write_text("OPENQASM 2.0; qreg q[2]; ecr q[1],q[0];")
    table = tmp_path / "t.json"
    table.write_text(json.dumps({
        "device": "d", "architecture": "a",
        "entries": [{"gate": "ecr", "qubits": [0, 1], "duration_s": 5.33e-7}],
    }))
    code, _, err = run(capsys, "estimate", "--durations", str(table), str(qasm))
    assert code == 3
    assert "ecr" in err and "[1, 0]" in err


@pytest.mark.parametrize("duration, reason", [
    ("-1e-6", "must be >= 0, got -1e-06"),
    ("1e400", "must be finite, got inf"),
])
def test_estimate_bad_delay_duration_exits_3(duration, reason, tmp_path, durations_json, capsys):
    qasm = tmp_path / "delay.qasm"
    qasm.write_text(f"OPENQASM 2.0; qreg q[1]; delay({duration}) q[0]; x q[0];")
    code, out, err = run(capsys, "estimate", "--durations", durations_json, str(qasm))
    assert code == 3 and out == ""
    assert err == (f"{qasm}: no duration for gate 'delay' at qubits [0] "
                   f"(gate position 0): delay duration {reason}\n")


def test_estimate_bad_table_exits_4(tmp_path, ref_qasm, capsys):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps({"device": "d", "architecture": "a",
                                 "entries": [{"gate": "x", "qubits": [0], "duration_s": -1}]}))
    code, _, err = run(capsys, "estimate", "--durations", str(table), ref_qasm)
    assert code == 4


@pytest.mark.parametrize("fields, message", [
    ({"entries": {}}, "/entries: required array"),
    ({"entries": [1]}, "/entries/0: entry must be an object"),
    ({"entries": [{"qubits": [0], "duration_s": 1e-8}]}, "/entries/0/gate: required non-empty string"),
    ({"entries": [], "defaults": []}, "/defaults: must be an object"),
], ids=["entries-object", "entry-number", "entry-without-gate", "defaults-list"])
def test_duration_table_schema_error_exits_4_naming_the_file(fields, message, tmp_path, ref_qasm,
                                                            capsys):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps({"device": "d", "architecture": "a", **fields}))
    assert run(capsys, "estimate", "--durations", str(table), ref_qasm) == (4, "", f"{table}: {message}\n")


# --- compare ------------------------------------------------------------

def write_version(tmp_path, name, n, body):
    path = tmp_path / f"{name}.qasm"
    path.write_text(f"OPENQASM 2.0;\nqreg q[{n}];\n{body}\n")
    return path.name


@pytest.fixture
def compare_setup(tmp_path):
    """Two bases, two compilers, metric values proportional to runtime
    when durations are uniform."""
    versions = {
        ("b0", "qk"): write_version(tmp_path, "b0_qk", 2, "cz q[0],q[1]; x q[0];"),
        ("b0", "tk"): write_version(tmp_path, "b0_tk", 2, "cz q[0],q[1]; cz q[0],q[1]; x q[0];"),
        ("b1", "qk"): write_version(tmp_path, "b1_qk", 2, "x q[0]; x q[0];"),
        ("b1", "tk"): write_version(tmp_path, "b1_tk", 2, "x q[0];"),
    }
    manifest = {"bases": [
        {"name": base, "versions": [
            {"compiler": comp, "file": versions[(base, comp)]}
            for comp in ("qk", "tk") if (base, comp) in versions
        ]}
        for base in ("b0", "b1")
    ]}
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    table_path = tmp_path / "durations.json"
    table_path.write_text(json.dumps({
        "device": "dev", "architecture": "a", "entries": [],
        "defaults": {"cz": 1e-7, "x": 1e-7},
    }))
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(json.dumps({"architecture": "a",
                                        "weights": {"cz": 1.0, "x": 1.0}}))
    return manifest_path, table_path, weights_path


def test_compare_reports(compare_setup, tmp_path, capsys):
    manifest, table, weights = compare_setup
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "compare", str(manifest),
                       "--durations", str(table), "--weights", str(weights),
                       "--out", str(out_dir))
    assert code == 0
    with open(out_dir / "pairs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 bases x 1 pair x 3 metrics
    assert len(rows) == 6
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["quartile_method"] == "linear"
    # uniform durations: traditional depth is exactly proportional to runtime
    trad = summary["metrics"]["traditional"]
    assert trad["identification_accuracy_percent"] == 100.0
    assert trad["percent_re"]["median"] == pytest.approx(0.0, abs=1e-9)
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["records"]) == 4


def test_compare_one_pair(compare_setup, tmp_path, capsys):
    manifest, table, weights = compare_setup
    data = json.loads(manifest.read_text())
    data["bases"] = data["bases"][:1]
    manifest.write_text(json.dumps(data))
    out_dir = tmp_path / "out1"
    code, _, _ = run(capsys, "compare", str(manifest), "--metrics", "traditional",
                     "--durations", str(table), "--out", str(out_dir))
    assert code == 0
    with open(out_dir / "pairs.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 1


def test_compare_deterministic(compare_setup, tmp_path, capsys):
    manifest, table, weights = compare_setup
    outputs = []
    for name in ("o1", "o2"):
        out_dir = tmp_path / name
        run(capsys, "compare", str(manifest), "--durations", str(table),
            "--weights", str(weights), "--out", str(out_dir))
        outputs.append((out_dir / "pairs.csv").read_bytes()
                       + (out_dir / "summary.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_compare_bad_manifest_exits_5(tmp_path, compare_setup, capsys):
    _, table, _ = compare_setup
    bad = tmp_path / "bad_manifest.json"
    bad.write_text(json.dumps({"bases": "nope"}))
    code, _, err = run(capsys, "compare", str(bad), "--metrics", "traditional",
                       "--durations", str(table), "--out", str(tmp_path / "x"))
    assert code == 5
    assert "/bases" in err


@pytest.mark.parametrize("bases, message", [
    ([{"versions": [{"compiler": "qk", "file": "b0_qk.qasm"}]}], "/bases/0/name: required string"),
    ([{"name": "b0", "versions": []}], "/bases/0/versions: required non-empty array"),
    ([{"name": "b0", "versions": [{"file": "b0_qk.qasm"}]}],
     "/bases/0/versions/0: requires compiler and file strings"),
    ([{"name": "b0", "versions": [{"compiler": "qk"}]}],
     "/bases/0/versions/0: requires compiler and file strings"),
], ids=["no-name", "no-versions", "no-compiler", "no-file"])
@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_manifest_schema_error_exits_5_naming_the_manifest(command, bases, message, compare_setup,
                                                           tmp_path, capsys):
    _, table, _ = compare_setup
    manifest = tmp_path / "bad_manifest.json"
    manifest.write_text(json.dumps({"bases": bases}))
    extra = ["--metrics", "traditional", "--out", str(tmp_path / "out")] if command == "compare" else []
    assert run(capsys, command, str(manifest), "--durations", str(table), *extra) == (
        5, "", f"{manifest}: {message}\n")


def test_compare_without_a_base_of_two_versions_exits_5_naming_the_manifest(tmp_path, compare_setup,
                                                                           capsys):
    _, table, _ = compare_setup
    singles = tmp_path / "singles.json"
    singles.write_text(json.dumps({"bases": [
        {"name": base, "versions": [{"compiler": "qk", "file": f"{base}_qk.qasm"}]}
        for base in ("b0", "b1")]}))
    code, out, err = run(capsys, "compare", str(singles), "--metrics", "traditional",
                         "--durations", str(table), "--out", str(tmp_path / "out"))
    assert (code, out) == (5, "")
    assert err == f"{singles}: no base circuit has two or more versions\n"
    assert not (tmp_path / "out").exists()


def test_compare_repeated_metric_exits_4(compare_setup, tmp_path, capsys):
    manifest, table, _ = compare_setup
    code, _, err = run(capsys, "compare", str(manifest), "--metrics", "traditional,traditional",
                       "--durations", str(table), "--out", str(tmp_path / "out"))
    assert code == 4
    assert err == "metric 'traditional' repeated in --metrics\n"
    assert not (tmp_path / "out").exists()


def test_compare_unknown_metric_exits_4(compare_setup, tmp_path, capsys):
    manifest, table, _ = compare_setup
    assert run(capsys, "compare", str(manifest), "--metrics", "traditional,bogus",
               "--durations", str(table), "--out", str(tmp_path / "out")) == (
        4, "", f"unknown metric 'bogus'; choose from {METRIC_NAMES}\n")
    assert not (tmp_path / "out").exists()


def test_compare_missing_weight_exits_3_before_the_missing_duration(compare_setup, tmp_path, capsys):
    manifest, table, weights = compare_setup
    (tmp_path / "b1_tk.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nx q[0];\nsx q[1];\n")
    code, out, err = run(capsys, "compare", str(manifest), "--durations", str(table),
                         "--weights", str(weights), "--out", str(tmp_path / "out"))
    assert (code, out) == (3, "")
    assert err == f"{tmp_path / 'b1_tk.qasm'}: no weight for gate 'sx' (gate position 1)\n"
    assert not (tmp_path / "out").exists()


def test_compare_missing_duration_exits_3(compare_setup, tmp_path, capsys):
    manifest, table, weights = compare_setup
    (tmp_path / "b1_tk.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nx q[0];\nsx q[1];\n")
    weights.write_text(json.dumps({"architecture": "a",
                                   "weights": {"cz": 1.0, "x": 1.0, "sx": 0.5}}))
    code, out, err = run(capsys, "compare", str(manifest), "--durations", str(table),
                         "--weights", str(weights), "--out", str(tmp_path / "out"))
    assert (code, out) == (3, "")
    assert err == (f"{tmp_path / 'b1_tk.qasm'}: no duration for gate 'sx' at qubits [1] "
                   f"(gate position 1)\n")


def write_base(tmp_path, bodies) -> Path:
    """A manifest of one base, ``b``, with a version ``v<i>`` per QASM body."""
    for i, body in enumerate(bodies):
        (tmp_path / f"v{i}.qasm").write_text(f"OPENQASM 2.0;\n{body}\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"bases": [{"name": "b", "versions": [
        {"compiler": f"v{i}", "file": f"v{i}.qasm"} for i in range(len(bodies))]}]}))
    return manifest


@pytest.fixture
def x_duration_files(tmp_path):
    """A table whose x lasts 1e-7 s on qubit 2 and 3e-7 s on qubit 3, and
    a weight map for x."""
    table = tmp_path / "durations.json"
    table.write_text(json.dumps({"device": "dev", "architecture": "a", "defaults": {"x": 2e-7},
                                 "entries": [{"gate": "x", "qubits": [2], "duration_s": 1e-7},
                                             {"gate": "x", "qubits": [3], "duration_s": 3e-7}]}))
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"architecture": "a", "weights": {"x": 0.5}}))
    return table, weights


def test_versions_of_a_base_with_other_registers_read_their_own(tmp_path, x_duration_files, capsys):
    """``x q[2]`` is qubit 2 in the first version and qubit 3 in the second,
    behind ``qreg a[1]``: each compare record is the file's own depth and
    estimate, though the versions repeat the statement text."""
    table, weights = x_duration_files
    manifest = write_base(tmp_path, ["qreg q[3];\nx q[2];", "qreg a[1];\nqreg q[3];\nx q[1];\nx q[2];"])
    files = [str(tmp_path / "v0.qasm"), str(tmp_path / "v1.qasm")]
    code, out, _ = run(capsys, "depth", "--weights", str(weights), *files)
    assert code == 0
    depths = [json.loads(line) for line in out.splitlines()]
    code, out, _ = run(capsys, "estimate", "--durations", str(table), *files)
    assert code == 0
    runtimes = [json.loads(line)["runtime_s"] for line in out.splitlines()]
    assert [d["traditional_depth"] for d in depths] == [1, 1]
    assert runtimes == [1e-7, 3e-7]
    assert run(capsys, "compare", str(manifest), "--durations", str(table), "--weights", str(weights),
               "--out", str(tmp_path / "out"))[0] == 0
    records = json.loads((tmp_path / "out" / "report.json").read_text())["records"]
    assert [(r["metrics"], r["runtime_s"]) for r in records] == [
        ({m: d[key] for m, key in gatedepth.cli.DEPTH_KEYS.items()}, runtime)
        for d, runtime in zip(depths, runtimes)]


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_a_statement_out_of_range_in_a_later_version_exits_2_naming_it(command, tmp_path, x_duration_files,
                                                                         capsys):
    table, weights = x_duration_files
    manifest = write_base(tmp_path, ["qreg q[3];\nx q[2];", "qreg q[2];\nx q[2];"])
    extra = ["--weights", str(weights), "--out", str(tmp_path / "out")] if command == "compare" else []
    code, out, err = run(capsys, command, str(manifest), "--durations", str(table), *extra)
    assert (code, out) == (2, "")
    assert err == f"{tmp_path / 'v1.qasm'}:3:5: error: index 2 out of range for register 'q' of size 2\n"


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_an_earlier_missing_duration_exits_3_before_a_later_parse_error(command, tmp_path,
                                                                       x_duration_files, capsys):
    """compare and sweep read and evaluate the versions one by one."""
    table, _ = x_duration_files
    manifest = write_base(tmp_path, ["qreg q[1];\nsx q[0];", "qreg q[2];\nx q[2];"])
    extra = ["--metrics", "traditional", "--out", str(tmp_path / "out")] if command == "compare" else []
    assert run(capsys, command, str(manifest), "--durations", str(table), *extra) == (
        3, "", f"{tmp_path / 'v0.qasm'}: no duration for gate 'sx' at qubits [0] (gate position 0)\n")


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_duplicate_compiler_id_exits_5(command, compare_setup, tmp_path, capsys):
    manifest, table, _ = compare_setup
    data = json.loads(manifest.read_text())
    data["bases"][1]["versions"][1]["compiler"] = "qk"
    manifest.write_text(json.dumps(data))
    extra = ["--metrics", "traditional", "--out", str(tmp_path / "out")] if command == "compare" else []
    code, _, err = run(capsys, command, str(manifest), "--durations", str(table), *extra)
    assert code == 5
    assert err == f"{manifest}: /bases/1/versions/1/compiler: duplicate compiler id 'qk'\n"


@pytest.mark.parametrize("command", ["weights", "compare", "sweep"])
def test_unwritable_output_exits_4(command, compare_setup, tmp_path, capsys):
    manifest, table, weights = compare_setup
    existing = tmp_path / "a-file"
    existing.write_text("")
    out, argv = {
        "weights": (tmp_path / "missing" / "w.json", ["weights", str(table)]),
        "compare": (existing, ["compare", str(manifest), "--durations", str(table),
                               "--weights", str(weights)]),
        "sweep": (tmp_path / "missing" / "s.csv", ["sweep", str(manifest), "--durations", str(table)]),
    }[command]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (4, "")
    assert err.startswith(f"{out}: ") and err.count("\n") == 1 and "Traceback" not in err


# --- sweep --------------------------------------------------------------

def test_sweep_grid_rows(compare_setup, tmp_path, capsys):
    manifest, table, _ = compare_setup
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", str(manifest), "--durations", str(table),
                       "--grid", "0:1:0.01", "--out", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 101
    assert "argmin_w_s" in out


def test_sweep_single_point(compare_setup, tmp_path, capsys):
    manifest, table, _ = compare_setup
    code, out, _ = run(capsys, "sweep", str(manifest), "--durations", str(table),
                       "--grid", "0.5:0.5:0.01")
    assert code == 0
    data_lines = [l for l in out.splitlines() if l and not l.startswith("w_s") and not l.startswith("{")]
    assert len(data_lines) == 1


def test_sweep_without_a_defined_percent_re_exits_5(compare_setup, tmp_path, capsys):
    manifest, table, _ = compare_setup
    data = json.loads(manifest.read_text())
    for base in data["bases"]:
        del base["versions"][1:]  # one version per base: no pairs at all
    manifest.write_text(json.dumps(data))
    code, out, err = run(capsys, "sweep", str(manifest), "--durations", str(table),
                         "--grid", "0:1:0.5")
    assert code == 5
    assert out == ""
    assert err == f"{manifest}: device 'dev': no version pair has a defined %RE at w_s=0.0\n"


def test_sweep_missing_duration_exits_3_naming_the_version(compare_setup, tmp_path, capsys):
    manifest, table, _ = compare_setup
    (tmp_path / "b1_tk.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nx q[0];\nsx q[1];\n")
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**json.loads(table.read_text()), "device": "other"}))
    code, out, err = run(capsys, "sweep", str(manifest), "--durations", str(table), str(other),
                         "--grid", "0:1:0.5")
    assert (code, out) == (3, "")
    assert err == (f"{tmp_path / 'b1_tk.qasm'}: no duration for gate 'sx' at qubits [1] "
                   f"(gate position 1)\n")


def test_sweep_rejects_two_tables_of_one_device_before_parsing_a_circuit(compare_setup, tmp_path,
                                                                         capsys):
    manifest, table, _ = compare_setup
    (tmp_path / "b1_tk.qasm").write_text("not qasm")  # parsed, this would exit 2
    copy = tmp_path / "copy.json"
    copy.write_text(table.read_text())
    for second in (table, copy):
        code, out, err = run(capsys, "sweep", str(manifest), "--durations", str(table), str(second))
        assert (code, out) == (4, "")
        assert err == f"{second}: device 'dev' is in an earlier table\n"


def test_sweep_stdout_quotes_a_device_name_as_the_file_does(compare_setup, tmp_path, capsys):
    manifest, table, _ = compare_setup
    table.write_text(json.dumps({**json.loads(table.read_text()), "device": "dev,0"}))
    code, out, _ = run(capsys, "sweep", str(manifest), "--durations", str(table),
                       "--grid", "0:1:0.5")
    assert code == 0
    *lines, argmin = out.splitlines()
    rows = list(csv.reader(lines))
    assert rows[0] == ["w_s", "device", "median_percent_re"]
    assert [len(row) for row in rows] == [3] * 4
    assert {row[1] for row in rows[1:]} == {"dev,0"}
    assert list(json.loads(argmin)["argmin_w_s"]) == ["dev,0"]
    out_csv = tmp_path / "sweep.csv"
    assert run(capsys, "sweep", str(manifest), "--durations", str(table), "--grid", "0:1:0.5",
               "--out", str(out_csv))[0] == 0
    with open(out_csv, newline="") as fh:
        assert list(csv.reader(fh)) == rows


def test_sweep_without_numpy_exits_4_with_one_line(compare_setup, tmp_path, monkeypatch, capsys):
    """numpy is a dependency, but only the grid imports it: without it sweep
    exits 4 naming numpy, not with a ModuleNotFoundError traceback."""
    manifest, table, _ = compare_setup
    monkeypatch.setitem(sys.modules, "numpy", None)  # every import of numpy now fails
    out_csv = tmp_path / "sweep.csv"
    assert run(capsys, "sweep", str(manifest), "--durations", str(table), "--grid", "0:1:0.5",
               "--out", str(out_csv)) == (4, "", "sweep needs numpy, which cannot be imported\n")
    assert not out_csv.exists()


def test_sweep_negative_grid_start_exits_4(compare_setup, capsys):
    manifest, table, _ = compare_setup
    code, _, err = run(capsys, "sweep", str(manifest), "--durations", str(table),
                       "--grid=-0.5:1:0.5")
    assert code == 4
    assert err == "invalid grid '-0.5:1:0.5'; w_s must be >= 0\n"


@pytest.mark.parametrize("spec, reason", [
    ("1:2", "expected start:stop:step"),
    ("0:1:0", "need step > 0 and stop >= start"),
    ("1:0:0.1", "need step > 0 and stop >= start"),
])
def test_sweep_malformed_grid_exits_4(spec, reason, compare_setup, capsys):
    manifest, table, _ = compare_setup
    assert run(capsys, "sweep", str(manifest), "--durations", str(table), "--grid", spec) == (
        4, "", f"invalid grid {spec!r}; {reason}\n")


@pytest.mark.parametrize("spec", [
    "0:inf:1", "nan:1:0.1", "0:1:inf", "0:1:1e-9", "0:1:1e-6", "-1e308:1e308:1e-300",
    "0:1e-11:1e-13", "1000000:1000000.000000001:1e-12",
])
def test_grid_not_finite_or_too_many_points_exits_4(spec):
    with pytest.raises(CliError) as exc:
        _parse_grid(spec)
    assert exc.value.code == 4


def test_grid_at_point_limit_accepted():
    assert len(_parse_grid("0:0.999999:1e-6")) == MAX_GRID_POINTS


# --- values past the largest float --------------------------------------

PAST_MAX_FLOAT = "is inf: a sum past the largest float"


def run_without_warnings(capsys, *argv):
    """``run``, failing on any warning, such as numpy's on an overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


def test_a_runtime_past_the_largest_float_exits_3_and_writes_nothing(compare_setup, tmp_path,
                                                                     capsys):
    """Two gates of 1e308 s in a row take longer than the largest float:
    JSON has no Infinity, so every command that sweeps runtimes stops,
    with one line naming the file."""
    manifest, table, weights = compare_setup
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"device": "huge", "architecture": "a", "entries": [],
                                "defaults": {"cz": 1e308, "x": 1e308}}))
    first = tmp_path / "b0_qk.qasm"
    runs = [
        (("estimate", "--durations", str(huge), str(first)), f"{first}: runtime_s {PAST_MAX_FLOAT}"),
        (("compare", str(manifest), "--durations", str(huge), "--weights", str(weights),
          "--out", str(tmp_path / "report")), f"{first}: runtime_s {PAST_MAX_FLOAT}"),
        (("sweep", str(manifest), "--durations", str(table), str(huge), "--grid", "0:1:0.5",
          "--out", str(tmp_path / "sweep.csv")), f"{first}: runtime_s {PAST_MAX_FLOAT}"),
    ]
    for argv, message in runs:
        assert run_without_warnings(capsys, *argv) == (3, "", message + "\n")
    assert not (tmp_path / "report").exists() and not (tmp_path / "sweep.csv").exists()


def test_a_depth_past_the_largest_float_exits_3(compare_setup, tmp_path, capsys):
    """``x q[0]; x q[0];`` at a weight of 1e308 for ``depth``, and at
    w_s = 9e307 on the grid of ``sweep``."""
    manifest, table, _ = compare_setup
    huge = tmp_path / "huge_weights.json"
    huge.write_text(json.dumps({"architecture": "a", "weights": {"cz": 1.0, "x": 1e308}}))
    twice = tmp_path / "b1_qk.qasm"
    for metric in ("gateaware", "all"):
        assert run_without_warnings(capsys, "depth", "--metric", metric, "--weights", str(huge),
                                    str(twice)) == (3, "", f"{twice}: gate_aware_depth {PAST_MAX_FLOAT}\n")
    assert run_without_warnings(capsys, "sweep", str(manifest), "--durations", str(table),
                                "--grid", "0:1e308:1e307") == (
        3, "", f"{manifest}: base 'b1', compiler 'qk': gate-aware depth at w_s=9e+307 "
               f"{PAST_MAX_FLOAT}\n")


def strict_json(text, **kwargs):
    """``json.loads``, rejecting the NaN and Infinity that RFC 8259 lacks."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject, **kwargs)


@pytest.fixture
def overflow_setup(tmp_path):
    """Two versions of base b whose relative runtime difference passes the
    largest float: C2 = a takes 1e-300 s, C1 = b takes 1e300 s."""
    manifest = tmp_path / "overflow.json"
    manifest.write_text(json.dumps({"bases": [{"name": "b", "versions": [
        {"compiler": "a", "file": write_version(tmp_path, "a", 2, "x q[1];")},
        {"compiler": "b", "file": write_version(tmp_path, "b", 2, "x q[0];")}]}]}))
    table = tmp_path / "d.json"
    table.write_text(json.dumps({"device": "d", "architecture": "a",
                                 "entries": [{"gate": "x", "qubits": [1], "duration_s": 1e-300}],
                                 "defaults": {"x": 1e300}}))
    return manifest, table


def test_compare_flags_a_relative_difference_past_the_largest_float(overflow_setup, tmp_path,
                                                                    capsys):
    """The pair has no %RE, so it is flagged and left out, and every JSON
    document compare writes is JSON."""
    manifest, table = overflow_setup
    out_dir = tmp_path / "report"
    code, _, err = run_without_warnings(capsys, "compare", str(manifest), "--metrics", "traditional",
                                        "--durations", str(table), "--out", str(out_dir))
    assert (code, err) == (0, "")
    with open(out_dir / "pairs.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [["b", "b", "a", "traditional", "0.0", "", "", "overflow"]]
    strict_json((out_dir / "report.json").read_text())
    summary = strict_json((out_dir / "summary.json").read_text())
    assert summary["metrics"]["traditional"]["excluded_pairs"] == 1


def test_compare_prints_a_metric_without_a_defined_percent_re_as_such(tmp_path, capsys):
    """The base C2, p, has no multi-qubit gate: its multi-qubit depth is 0,
    so the only pair has no multi-qubit %RE and no median to print."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"bases": [{"name": "b", "versions": [
        {"compiler": "p", "file": write_version(tmp_path, "p", 1, "x q[0];")},
        {"compiler": "q", "file": write_version(tmp_path, "q", 1, "")}]}]}))
    table = tmp_path / "d.json"
    table.write_text(json.dumps({"device": "d", "architecture": "a", "entries": [],
                                 "defaults": {"x": 1e-7}}))
    out_dir = tmp_path / "report"
    assert run_without_warnings(capsys, "compare", str(manifest), "--metrics", "multiqubit",
                                "--durations", str(table), "--out", str(out_dir)) == (
        0, "  multiqubit: 1 pairs, no defined %RE, identification accuracy 0%\n", "")
    summary = strict_json((out_dir / "summary.json").read_text())
    assert summary["metrics"]["multiqubit"]["percent_re"] is None


def test_sweep_without_a_finite_percent_re_exits_5(overflow_setup, capsys):
    manifest, table = overflow_setup
    assert run_without_warnings(capsys, "sweep", str(manifest), "--durations", str(table),
                                "--grid", "0.5:1:0.5") == (
        5, "", f"{manifest}: device 'd': no version pair has a defined %RE at w_s=0.5\n")


# --- one sweep per circuit ---------------------------------------------

@pytest.fixture
def swept(monkeypatch):
    """The circuit of every metrics.sweep call, under whichever module's
    name the call is made."""
    sweep, circuits = gatedepth.metrics.sweep, []

    def counted(circuit, *args, **kwargs):
        circuits.append(circuit)
        return sweep(circuit, *args, **kwargs)

    for module in (gatedepth.cli, gatedepth.compare, gatedepth.metrics, gatedepth.runtime):
        if getattr(module, "sweep", None) is sweep:
            monkeypatch.setattr(module, "sweep", counted)
    return circuits


@pytest.mark.parametrize("command", ["depth", "estimate"])
def test_depth_and_estimate_sweep_each_circuit_once(command, ref_qasm, weights_json, durations_json,
                                                    tmp_path, swept, capsys):
    other = tmp_path / "other.qasm"
    other.write_text("OPENQASM 2.0;\nqreg q[3];\ncz q[1],q[2];\nx q[0];\n")
    options = (["--metric", "all", "--weights", weights_json] if command == "depth"
               else ["--durations", durations_json])
    code, out, _ = run(capsys, command, *options, ref_qasm, str(other))
    assert code == 0 and out.count("\n") == 2
    assert len(swept) == len({id(c) for c in swept}) == 2


def test_compare_sweeps_each_circuit_once(compare_setup, tmp_path, swept, capsys):
    manifest, table, weights = compare_setup
    code, _, _ = run(capsys, "compare", str(manifest), "--durations", str(table),
                     "--weights", str(weights), "--out", str(tmp_path / "out"))
    assert code == 0
    assert len(swept) == len({id(c) for c in swept}) == 4


def test_sweep_lowers_each_version_once_for_its_runtimes(compare_setup, tmp_path, monkeypatch,
                                                         capsys):
    """sweep gets a version's runtime on every device from one lower call
    with one duration rule per table, as compare gets its one runtime; the
    w_s grid then lowers the version once under its one rule, whatever the
    number of blocks."""
    manifest, table, _ = compare_setup
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**json.loads(table.read_text()), "device": "other"}))
    lowered, lower = [], gatedepth.metrics.lower

    def counted(circuit, rules, rows=None):
        lowered.append((id(circuit), [getattr(rule, "func", rule).__qualname__ for rule in rules]))
        return lower(circuit, rules, rows)

    for module in (gatedepth.cli, gatedepth.compare):
        monkeypatch.setattr(module, "lower", counted)
    monkeypatch.setattr(gatedepth.compare, "GRID_BLOCK", 2)
    code, _, _ = run(capsys, "sweep", str(manifest), "--durations", str(table), str(other),
                     "--grid", "0:1:0.25")  # 5 points: 3 blocks
    assert code == 0
    versions = list(dict.fromkeys(v for v, _ in lowered))
    assert len(versions) == 4
    assert lowered == ([(v, ["duration", "duration"]) for v in versions]
                       + [(v, ["increment_rule.<locals>.rule"]) for v in versions])


@pytest.mark.parametrize("fault", ["missing-duration", "runtime-past-the-largest-float"])
def test_sweep_and_compare_print_one_line_for_one_runtime_fault(fault, compare_setup, tmp_path,
                                                                capsys):
    """sweep reads a version's runtimes as compare does, so one missing
    duration, or a table of 1e308 s gates, stops both with the same line,
    naming the .qasm file."""
    manifest, table, _ = compare_setup
    if fault == "missing-duration":
        (tmp_path / "b1_tk.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nx q[0];\nsx q[1];\n")
        expected = (f"{tmp_path / 'b1_tk.qasm'}: no duration for gate 'sx' at qubits [1] "
                    f"(gate position 1)\n")
    else:
        table.write_text(json.dumps({"device": "huge", "architecture": "a", "entries": [],
                                     "defaults": {"cz": 1e308, "x": 1e308}}))
        expected = f"{tmp_path / 'b0_qk.qasm'}: runtime_s {PAST_MAX_FLOAT}\n"
    compared = run_without_warnings(capsys, "compare", str(manifest), "--metrics", "traditional",
                                    "--durations", str(table), "--out", str(tmp_path / "out"))
    swept = run_without_warnings(capsys, "sweep", str(manifest), "--durations", str(table),
                                 "--grid", "0:1:0.5")
    assert compared == swept == (3, "", expected)



def test_a_name_on_one_qubit_and_on_two_is_what_its_first_gate_is(monkeypatch, capsys):
    """README's definition for circuits built in code: a name is
    multi-qubit, and counts 1 at each of its gates, if its first gate in the
    circuits is a unitary on two or more qubits, and counts 0 at each gate
    otherwise. multiqubit_depth, `depth --metric multiqubit` and sweep's
    w_s = 0 column all follow it. (Counting each gate on its own, as the
    program did before every metric became a weight map, gives both mixed
    circuits a multi-qubit depth of 1.)"""
    mixed = Circuit(2, (Gate("g", (0, 1)), Gate("g", (0,)), Gate("g", (0,)), Gate("x", (1,))))
    flipped = Circuit(2, (Gate("g", (0,)), Gate("g", (0, 1)), Gate("g", (0,)), Gate("x", (1,))))
    assert (multiqubit_depth(mixed), multiqubit_depth(flipped)) == (3, 0)
    # a parsed name fixes its arity, so only a stand-in parser reads these circuits
    monkeypatch.setattr(gatedepth.cli, "parse_file",
                        lambda path, *_: {"mixed.qasm": mixed, "flipped.qasm": flipped}[path])
    code, out, _ = run(capsys, "depth", "--metric", "multiqubit", "mixed.qasm", "flipped.qasm")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"file": "mixed.qasm", "multiqubit_depth": 3}, {"file": "flipped.qasm", "multiqubit_depth": 0}]
    # at w_s = 0 the sweep weighs g 1.0, as the first g of the versions, and x 0.0
    single = Circuit(2, (Gate("g", (0, 1)),))
    table = DurationTable("dev", "arch", {}, {"g": 1e-7, "x": 5e-8})
    versions = [("b", "mixed", mixed), ("b", "single", single)]
    runtimes = [estimate_runtime(c, table) for *_, c in versions]
    [point] = sweep_single_qubit_weight(versions, [[r] for r in runtimes], ["dev"], [0.0]).points
    records = [VersionRecord(base, compiler, {"multiqubit": multiqubit_depth(c)}, runtime)
               for (base, compiler, c), runtime in zip(versions, runtimes)]
    [pair] = all_pairs(records, "multiqubit")
    assert (point.w_s, point.median_percent_re) == (0.0, pair.percent_re)
    assert pair.delta_metric == (1 - 3) / 3

NAMES = ONE_QUBIT + TWO_QUBIT + THREE_QUBIT + ("measure",)


@given(seed=st.integers(0, 10_000), barrier=st.sampled_from(("skip", "sync")),
       metrics=st.lists(st.sampled_from(METRIC_NAMES), unique=True), devices=st.integers(0, 2))
@settings(max_examples=200)
def test_one_sweep_equals_each_metric_and_runtime_alone(seed, barrier, metrics, devices):
    """Every value of a circuit's one sweep, in any order and at any width,
    is exactly what its own public function gives, the runtime on each of
    up to two devices' tables included."""
    assume(metrics or devices)
    rng = random.Random(seed)
    c = random_circuit(rng, directives=True)
    wmap = WeightMap({name: rng.uniform(0, 2) for name in NAMES})
    tables = [DurationTable(f"dev{d}", "arch", {}, {name: rng.uniform(0, 1e-6) for name in NAMES})
              for d in range(devices)]
    alone = {"traditional": traditional_depth(c, barrier), "multiqubit": multiqubit_depth(c, barrier),
             "gateaware": gate_aware_depth(c, wmap, barrier)}
    expected = [alone[m] for m in metrics] + [estimate_runtime(c, t, barrier) for t in tables]
    got = _sweep_values("c.qasm", c, tuple(metrics), wmap.weights, tables, barrier)
    assert got == expected
    assert all(type(v) is float for v in got)


def column_path_values(path, circuit, metrics, weights, tables, barrier):
    """What the column path gives: each requested metric's public function,
    in order, then the runtime on each table. The first missing weight or
    duration exits 3, as does a value past the largest float, each with its
    message."""
    alone = {"traditional": lambda: traditional_depth(circuit, barrier),
             "multiqubit": lambda: multiqubit_depth(circuit, barrier),
             "gateaware": lambda: gate_aware_depth(circuit, WeightMap(weights), barrier)}
    try:
        values = [alone[m]() for m in metrics]
        values += [estimate_runtime(circuit, table, barrier) for table in tables]
    except (gatedepth.metrics.MissingWeightError, gatedepth.runtime.UnresolvedDurationError) as exc:
        raise CliError(3, f"{path}: {exc.args[0]}")
    keys = [gatedepth.cli.DEPTH_KEYS[m] for m in metrics] + ["runtime_s"] * len(tables)
    for key, value in zip(keys, values):
        if not math.isfinite(value):
            raise CliError(3, f"{path}: {key} is {value}: a sum past the largest float")
    return values


def outcome(values_of, *args):
    """The values ``values_of(*args)`` returns, or the code and message of
    the CliError it raises."""
    try:
        return values_of(*args)
    except CliError as exc:
        return exc.code, str(exc)


def odd_circuit(rng: random.Random) -> Circuit:
    """A random circuit on at most 4 qubits, so that gates repeat, with
    directives; one in four also has a delay without a duration parameter
    or with a negative one."""
    c = random_circuit(rng, max_qubits=4, directives=True)
    gates = list(c.gates)
    if rng.random() < 0.25:
        bad = Gate("delay", (rng.randrange(c.num_qubits),), rng.choice(((), (-1e-7,))), DELAY)
        gates.insert(rng.randint(0, len(gates)), bad)
    return Circuit(c.num_qubits, gates)


@given(seed=st.integers(0, 10_000), barrier=st.sampled_from(("skip", "sync")),
       metrics=st.lists(st.sampled_from(METRIC_NAMES), unique=True), devices=st.integers(0, 2))
@settings(max_examples=200)
def test_circuits_sharing_a_row_table_sweep_as_the_column_path(seed, barrier, metrics, devices):
    """Circuits swept one after another with one row table, as compare and
    sweep sweep the versions of one base, give under == what a fresh table
    gives and what the public functions give. A circuit that fails gives
    the column path's exit code and message: a missing weight before a
    missing duration, each at its first gate, and an earlier device's
    missing duration before a later one's. Weights and each device's table
    lack some names; durations may be 0, a two-qubit gate has entries in
    one direction only, and a weight may be 1e308, whose sums overflow."""
    assume(metrics or devices)
    rng = random.Random(seed)
    weights = {name: rng.choice((0.0, rng.uniform(0, 2), 1e308 if rng.random() < 0.1 else 1.0))
               for name in NAMES if rng.random() < 0.9}
    tables = []
    for d in range(devices):
        entries = {(name, qubits): rng.choice((0.0, rng.uniform(0, 1e-6)))
                   for name in NAMES for qubits in ((0,), (1,), (0, 1), (1, 2), (0, 1, 2))
                   if rng.random() < 0.5}
        defaults = {name: rng.choice((0.0, rng.uniform(0, 1e-6)))
                    for name in NAMES if rng.random() < 0.8}
        tables.append(DurationTable(f"dev{d}", "arch", entries, defaults))
    requested = weights if "gateaware" in metrics else None
    rows: dict = {}
    for k in range(4):
        c = odd_circuit(rng)
        args = (f"c{k}.qasm", c, tuple(metrics), requested, tables, barrier)
        shared = outcome(_sweep_values, *args, rows)
        assert shared == outcome(_sweep_values, *args) == outcome(column_path_values, *args)
        if isinstance(shared, list):
            assert all(type(v) is float for v in shared)


def test_a_row_table_per_base_builds_each_key_once(tmp_path, monkeypatch, capsys):
    """compare gives the versions of one base one row table and a new base
    a new one; depth and estimate one per file. Each distinct (name, kind,
    qubits) key's row is built once per table, a delay's once per gate,
    and the duration table is asked once per key that is not a delay or a
    barrier: here 6 lookups in compare, where one per gate would be 11."""
    files = {("a", "v1"): "x q[0]; x q[0]; cx q[0],q[1]; delay(1e-7) q[1]; barrier q; x q[1];",
             ("a", "v2"): "x q[0]; cx q[1],q[0]; delay(2e-7) q[0]; x q[1];",
             ("b", "v1"): "x q[0]; cx q[0],q[1];",
             ("b", "v2"): "cx q[0],q[1]; x q[0];"}
    manifest = {"bases": [{"name": base, "versions": [
        {"compiler": v, "file": write_version(tmp_path, f"{base}_{v}", 2, files[(base, v)])}
        for v in ("v1", "v2")]} for base in ("a", "b")]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "durations.json").write_text(json.dumps({
        "device": "dev", "architecture": "a",
        "entries": [{"gate": "cx", "qubits": [0, 1], "duration_s": 3e-7}],
        "defaults": {"cx": 4e-7, "x": 1e-7}}))
    (tmp_path / "weights.json").write_text(json.dumps({"architecture": "a",
                                                       "weights": {"cx": 1.0, "x": 0.25}}))
    tables, built, looked_up = [], [], []
    sweep_values, duration = gatedepth.cli._sweep_values, gatedepth.cli.duration
    lookup = DurationTable.lookup

    def counted_sweep_values(*args):
        tables.append(args[6] if len(args) > 6 else None)
        return sweep_values(*args)

    def counted_duration(table, name, kind, qubits, params):
        built.append((len(tables), name, qubits))
        return duration(table, name, kind, qubits, params)

    monkeypatch.setattr(gatedepth.cli, "_sweep_values", counted_sweep_values)
    monkeypatch.setattr(gatedepth.cli, "duration", counted_duration)
    monkeypatch.setattr(DurationTable, "lookup",
                        lambda table, name, qubits: looked_up.append((len(tables), name, qubits))
                        or lookup(table, name, qubits))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "compare", "manifest.json", "--durations", "durations.json",
               "--weights", "weights.json", "--out", "out")[0] == 0
    assert [t is tables[0] for t in tables] == [True, True, False, False]
    assert tables[2] is tables[3]
    assert looked_up == [(1, "x", (0,)), (1, "cx", (0, 1)), (1, "x", (1,)), (2, "cx", (1, 0)),
                         (3, "x", (0,)), (3, "cx", (0, 1))]
    assert built == [(1, "x", (0,)), (1, "cx", (0, 1)), (1, "delay", (1,)), (1, "barrier", (0, 1)),
                     (1, "x", (1,)), (2, "cx", (1, 0)), (2, "delay", (0,)),
                     (3, "x", (0,)), (3, "cx", (0, 1))]
    tables.clear(), looked_up.clear()
    assert run(capsys, "estimate", "--durations", "durations.json", "a_v1.qasm", "a_v2.qasm")[0] == 0
    assert tables == [None, None]
    assert looked_up == [(1, "x", (0,)), (1, "cx", (0, 1)), (1, "x", (1,)),
                         (2, "x", (0,)), (2, "cx", (1, 0)), (2, "x", (1,))]


BENCH = Path(__file__).resolve().parent.parent / "bench"
DEMO = Path(__file__).resolve().parent.parent / "demo"


def bench_tracer_targets() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_name_the_bench_tracer_wraps_exists():
    """The tracer rebinds module attributes by name; a name the program no
    longer calls must stay importable until the tracer drops it."""
    missing = [(module, attr) for module, attr, *_ in bench_tracer_targets()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert callable(gatedepth.calibration.DurationTable.lookup)


# the names of gatedepth.cli that the tracer wraps and the CLI calls
CALLED_BY_THE_CLI = ("parse_file", "load_duration_table", "configure_weights", "all_pairs",
                     "identification_accuracy", "summarize_distribution",
                     "sweep_single_qubit_weight")


def test_the_cli_looks_up_each_traced_name_when_it_calls_it(monkeypatch, tmp_path, capsys):
    """A name bound at import time (say, in a table of loaders) escapes the
    tracer's rebinding, and that layer's traced time would read 0."""
    traced = {attr for module, attr, *_ in bench_tracer_targets() if module == "gatedepth.cli"}
    assert set(CALLED_BY_THE_CLI) <= traced
    calls = dict.fromkeys(CALLED_BY_THE_CLI, 0)
    for name in CALLED_BY_THE_CLI:
        def counted(*args, _name=name, _fn=getattr(gatedepth.cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(gatedepth.cli, name, counted)
    monkeypatch.chdir(DEMO)
    tables = ["durations_device0.json", "durations_device1.json", "durations_device2.json"]
    for argv in (["weights", *tables],
                 ["compare", "manifest.json", "--durations", tables[0], "--weights", "weights.json",
                  "--out", str(tmp_path)],
                 ["sweep", "manifest.json", "--durations", *tables, "--grid", "0:1:0.5"]):
        assert run(capsys, *argv)[0] == 0
    assert [name for name, n in calls.items() if n == 0] == []


def buffered_env() -> dict:
    """The environment of a CLI subprocess whose stdout is block-buffered,
    as on a file or pipe by default: under PYTHONUNBUFFERED each print
    writes at once, and main's flush and the flush at exit have nothing
    left to fail on."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(gatedepth.cli.__file__).parents[1])}


def test_closed_stdout_exits_4_with_one_line():
    """30,003 CSV rows overflow a pipe buffer, so sweep is still writing when
    its reader closes the pipe after one line."""
    tables = [str(DEMO / f"durations_device{d}.json") for d in range(3)]
    proc = subprocess.Popen([sys.executable, "-m", "gatedepth.cli", "sweep",
                             str(DEMO / "manifest.json"), "--durations", *tables,
                             "--grid", "0:1:0.0001"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=buffered_env())
    assert proc.stdout.readline() == b"w_s,device,median_percent_re\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 4
    assert b"Traceback" not in err and b"Exception ignored" not in err
    assert err == b"<stdout>: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("command", ["sweep", "depth", "compare"])
def test_a_full_stdout_exits_4_with_one_line(command, tmp_path):
    """sweep's 3,004 CSV lines fill the stdout buffer, so its write fails
    while it writes; depth's and compare's few lines fail at main's flush."""
    argv = {"sweep": ["sweep", "manifest.json", "--durations",
                      *(f"durations_device{d}.json" for d in range(3)), "--grid", "0:1:0.001"],
            "depth": ["depth", "--weights", "weights.json", "circuits/base00_qfirst.qasm"],
            "compare": ["compare", "manifest.json", "--durations", "durations_device0.json",
                        "--weights", "weights.json", "--out", str(tmp_path / "report")]}[command]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "gatedepth.cli", *argv], cwd=DEMO,
                              env=buffered_env(), stdout=full, stderr=subprocess.PIPE, timeout=120)
    assert (proc.returncode, proc.stderr) == (4, f"<stdout>: {os.strerror(errno.ENOSPC)}\n".encode())


# runs gatedepth.cli.main on its arguments, or, with none, imports gatedepth
# alone; exits 0 only if that succeeds and numpy was never imported
WITHOUT_NUMPY = """import sys
if sys.argv[1:]:
    from gatedepth.cli import main
    code = main(sys.argv[1:])
else:
    import gatedepth
    code = 0
sys.exit("numpy was imported" if "numpy" in sys.modules else code)
"""


@pytest.mark.parametrize("command", ["import", "depth", "estimate", "weights", "compare"])
def test_every_command_but_sweep_runs_without_numpy(command, tmp_path):
    """numpy's import is most of the start-up time; only sweep's grid needs it."""
    circuits = sorted(str(p.relative_to(DEMO)) for p in DEMO.glob("circuits/*.qasm"))
    argv = {"import": [],
            "depth": ["depth", "--weights", "weights.json", *circuits],
            "estimate": ["estimate", "--durations", "durations_device0.json", *circuits],
            "weights": ["weights", *(f"durations_device{d}.json" for d in range(3)),
                        "--out", str(tmp_path / "weights.json")],
            "compare": ["compare", "manifest.json", "--durations", "durations_device0.json",
                        "--weights", "weights.json", "--out", str(tmp_path / "report")]}[command]
    env = {**os.environ, "PYTHONPATH": str(Path(gatedepth.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *argv], cwd=DEMO, env=env,
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert bool(proc.stdout) == (command != "import")


def test_importing_the_cli_loads_no_dataclasses_nor_what_it_imports():
    """dataclasses loads inspect, ast, dis and tokenize, and builds each
    class's methods from source text: milliseconds at every start."""
    script = ("import sys, gatedepth.cli\n"
              "print(*(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')"
              " if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(gatedepth.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "\n")


# --- byte identity on the bundled demo ------------------------------------

# sha256 of the demo outputs; a change to any of them changes a reported number
DEMO_SHA256 = {
    "pairs.csv": "4bcbac243614abb4e909295e759a25bba4a77a17db75d5c4126f088a689ae7a4",
    "report.json": "125dfcf395b3138663510d7408c3e5cfe0929d5259d461947a490a8e50469b74",
    "summary.json": "63b1615a49e781130e70e63c97231e0c77d4e316dcdb239745ddb2244233d302",
    "sweep.csv": "e7a6275ad383d4d22a2491a32e260c4a79a55b352ead2d621a5b695d80f591d5",
    # the benchmark's grid: 1001 points cross three GRID_BLOCK edges
    "sweep1001.csv": "c6345cae3cd8f0a2a34351d06b1b3c43c90d2c7d84ad5c185abc6d029f92206e",
    "weights_pooled.json": "cd7dedac6d3a5f2b1247d4d94e5f78c1074bc81287f7b929b19311fc46226489",
}


def test_demo_outputs_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(DEMO)
    code, _, _ = run(capsys, "compare", "manifest.json", "--durations", "durations_device0.json",
                     "--weights", "weights.json", "--out", str(tmp_path))
    assert code == 0
    code, _, _ = run(capsys, "sweep", "manifest.json", "--durations", "durations_device0.json",
                     "durations_device1.json", "durations_device2.json",
                     "--grid", "0:1:0.01", "--out", str(tmp_path / "sweep.csv"))
    assert code == 0
    code, _, _ = run(capsys, "sweep", "manifest.json", "--durations", "durations_device0.json",
                     "durations_device1.json", "durations_device2.json",
                     "--grid", "0:1:0.001", "--out", str(tmp_path / "sweep1001.csv"))
    assert code == 0
    code, _, _ = run(capsys, "weights", "--pooled", "--out", str(tmp_path / "weights_pooled.json"),
                     "durations_device0.json", "durations_device1.json", "durations_device2.json")
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DEMO_SHA256}
    assert digests == DEMO_SHA256


@pytest.mark.parametrize("w_s", [0.0, 0.093, 0.37, 1.0])
def test_sweep_median_is_the_compare_median_of_the_same_weight_map(w_s, tmp_path, monkeypatch,
                                                                    capsys):
    """On each demo device, sweep's median at w_s is, as written text, the
    gate-aware median compare writes for the weight map rz 0, ecr 1 and w_s
    for every other gate name. The demo gains a base whose two versions,
    one y gate each, have a relative runtime difference past the largest
    float; no demo circuit has a y gate, so no demo runtime moves. Both
    commands leave that pair out: at w_s = 0 for its zero metric base."""
    manifest = json.loads((DEMO / "manifest.json").read_text(encoding="utf-8"))
    for base in manifest["bases"]:
        for version in base["versions"]:
            version["file"] = str(DEMO / version["file"])
    manifest["bases"].append({"name": "overflow", "versions": [
        {"compiler": "a", "file": write_version(tmp_path, "a", 2, "y q[1];")},
        {"compiler": "b", "file": write_version(tmp_path, "b", 2, "y q[0];")}]})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    tables = [f"durations_device{d}.json" for d in range(3)]
    for table in tables:
        data = json.loads((DEMO / table).read_text(encoding="utf-8"))
        data["entries"].append({"gate": "y", "qubits": [1], "duration_s": 1e-300})
        data["defaults"]["y"] = 1e300
        (tmp_path / table).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"architecture": "eagle-demo", "weights": {
        "rz": 0.0, "ecr": 1.0, "sx": w_s, "x": w_s, "y": w_s}}))
    assert run(capsys, "sweep", "manifest.json", "--durations", *tables,
               "--grid", f"{w_s}:{w_s}:1", "--out", str(tmp_path / "sweep.csv"))[0] == 0
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        swept = {device: median for _, device, median in list(csv.reader(fh))[1:]}
    compared = {}
    for table in tables:
        out = tmp_path / f"report_{table}"
        assert run(capsys, "compare", "manifest.json", "--metrics", "gateaware", "--durations", table,
                   "--weights", str(weights), "--out", str(out))[0] == 0
        with open(out / "pairs.csv", newline="", encoding="utf-8") as fh:
            flags = [row["flags"] for row in csv.DictReader(fh) if row["base"] == "overflow"]
        assert flags == ["zero_metric_base" if w_s == 0 else "overflow"]
        summary = strict_json((out / "summary.json").read_text(encoding="utf-8"), parse_float=str)
        device = json.loads((tmp_path / table).read_text(encoding="utf-8"))["device"]
        compared[device] = summary["metrics"]["gateaware"]["percent_re"]["median"]
    assert len(compared) == 3
    assert compared == swept


def test_the_demo_generator_rewrites_the_bundled_demo(tmp_path, monkeypatch):
    """The demo's circuits, tables and weight map are what generate_demo.py
    writes: its unparse, table and weight-map writers and configure_weights."""
    spec = importlib.util.spec_from_file_location("generate_demo", DEMO / "generate_demo.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "ROOT", tmp_path)
    generator.main()
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    bundled = sorted(p.relative_to(DEMO) for p in DEMO.rglob("*")
                     if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts)
    assert written == bundled
    assert [p for p in written if (tmp_path / p).read_bytes() != (DEMO / p).read_bytes()] == []
