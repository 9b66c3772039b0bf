"""The JSON inputs, malformed: the demo's duration table, weight map and
manifest, each with one value replaced by an odd one or one key or element
deleted, through every command that reads them. Each run exits 0, 2, 3, 4
or 5 without a traceback, and each line of a nonzero exit starts with the
path of an input; a name that cannot be written as UTF-8 exits when it is
read, before anything is written."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedepth.cli import main

DEMO = Path(__file__).resolve().parent.parent / "demo"
CIRCUITS = [str(DEMO / "circuits" / f"base0{b}_{c}.qasm") for b in range(2)
            for c in ("qfirst", "routeopt")]
ODD = (None, True, False, 10**400, -1, -0.0, 0, 1e308, [], [[[]]], {}, "", "nan", "x",
       "\ud800", "g\udfff")
DELETE = object()


def demo_document(name: str):
    """A demo input as parsed JSON; the manifest's files are absolute, so
    that the mutated copy, written elsewhere, names the demo's circuits."""
    document = json.loads((DEMO / name).read_text())
    if name == "manifest.json":
        for base in document["bases"]:
            for version in base["versions"]:
                version["file"] = str(DEMO / version["file"])
    return document


DOCUMENTS = {name: demo_document(name)
             for name in ("durations_device0.json", "weights.json", "manifest.json")}


@st.composite
def mutants(draw):
    """(file name, the document with one value replaced or deleted). The
    value is found by a walk from the root to a drawn depth, so that a
    top-level key is mutated about as often as any of the many entries'
    fields (the deepest, a version's file, is 5 levels down)."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    document = json.loads(json.dumps(DOCUMENTS[name]))
    parent, key, value = None, None, document
    for _ in range(draw(st.integers(0, 5))):
        if not (isinstance(value, (dict, list)) and value):
            break
        parent = value
        key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
        value = parent[key]
    new = draw(st.sampled_from(ODD if parent is None else (*ODD, DELETE)))
    if parent is None:
        return name, new
    if new is DELETE:
        del parent[key]
    else:
        parent[key] = new
    return name, document


def commands(name: str, path: str, out: Path) -> list[list[str]]:
    """The argv of each command that reads ``path``, the mutated ``name``."""
    tables = [str(DEMO / f"durations_device{d}.json") for d in range(3)]
    manifest, weights = str(DEMO / "manifest.json"), str(DEMO / "weights.json")
    if name == "durations_device0.json":
        return [["weights", path, *tables[1:], "--out", str(out / "w.json")],
                ["estimate", "--durations", path, *CIRCUITS],
                ["compare", manifest, "--durations", path, "--weights", weights,
                 "--out", str(out / "report")],
                ["sweep", manifest, "--durations", path, tables[1], "--grid", "0:1:0.25"]]
    if name == "weights.json":
        return [["depth", "--weights", path, *CIRCUITS],
                ["compare", manifest, "--durations", tables[0], "--weights", path,
                 "--out", str(out / "report")]]
    return [["compare", path, "--durations", tables[0], "--weights", weights,
             "--out", str(out / "report")],
            ["sweep", path, "--durations", *tables, "--grid", "0:1:0.25"]]


def version_files(manifest, root: Path) -> list[str]:
    """The file of each version of a parsed manifest in ``root``, as
    compare reads it."""
    def items(value, key):
        found = value.get(key) if isinstance(value, dict) else None
        return found if isinstance(found, list) else []

    return [str(root / version["file"]) for base in items(manifest, "bases")
            for version in items(base, "versions")
            if isinstance(version, dict) and isinstance(version.get("file"), str)]


@settings(max_examples=400)
@given(mutants(), st.data())
def test_a_mutated_input_exits_with_a_code_and_lines_naming_an_input(mutant, data):
    name, document = mutant
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / name)
        Path(path).write_text(json.dumps(document))
        argv = data.draw(st.sampled_from(commands(name, path, Path(tmp))))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code:
        inputs = [a for a in argv[1:] if a.endswith((".json", ".qasm"))]
        inputs += (version_files(document, Path(path).parent) if name == "manifest.json"
                   else version_files(DOCUMENTS["manifest.json"], DEMO))
        lines = err.getvalue().splitlines()
        assert lines and all(line.startswith(tuple(inputs)) for line in lines)


def rejected(capsys, argv: list[str], out: Path) -> tuple[int, str]:
    """The exit code and stderr of ``argv``, which must write nothing."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    return code, captured.err


@pytest.mark.parametrize("field, pointer, at", [
    (lambda m: m["bases"][1].update(name="b\ud800"), "/bases/1/name: base name 'b\\ud800'", 1),
    (lambda m: m["bases"][2]["versions"][1].update(compiler="\udc80c"),
     "/bases/2/versions/1/compiler: compiler id '\\udc80c'", 0),
])
def test_a_manifest_name_that_is_not_utf8_exits_5(field, pointer, at, tmp_path, capsys):
    manifest = demo_document("manifest.json")
    field(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, err = rejected(capsys, ["compare", str(path), "--durations",
                                  str(DEMO / "durations_device0.json"), "--weights",
                                  str(DEMO / "weights.json"), "--out", str(tmp_path / "out")],
                         tmp_path / "out")
    assert (code, err) == (5, f"{path}: {pointer} is not UTF-8 text: "
                              f"a lone surrogate at character {at}\n")


@pytest.mark.parametrize("field, pointer", [
    (lambda t: t.update(device="d\ud800"), "/device: device 'd\\ud800'"),
    (lambda t: t.update(architecture="a\ud800"), "/architecture: architecture 'a\\ud800'"),
    (lambda t: t["entries"][3].update(gate="g\ud800"), "/entries/3/gate: gate 'g\\ud800'"),
    (lambda t: t.update(defaults={"x": 1e-8, "g\ud800": 1e-8}), "/defaults: gate 'g\\ud800'"),
])
def test_a_duration_table_name_that_is_not_utf8_exits_4(field, pointer, tmp_path, capsys):
    table = demo_document("durations_device0.json")
    field(table)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    out = tmp_path / "w.json"
    code, err = rejected(capsys, ["weights", str(path), "--out", str(out)], out)
    assert (code, err) == (4, f"{path}: {pointer} is not UTF-8 text: "
                              "a lone surrogate at character 1\n")


def test_a_weight_map_name_that_is_not_utf8_exits_4(tmp_path, capsys):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"architecture": "a", "weights": {"x": 0.5, "s\ud800x": 1.0}}))
    code, err = rejected(capsys, ["compare", str(DEMO / "manifest.json"), "--durations",
                                  str(DEMO / "durations_device0.json"), "--weights", str(path),
                                  "--out", str(tmp_path / "out")], tmp_path / "out")
    assert (code, err) == (4, f"{path}: invalid weight map: /weights: gate 's\\ud800x' is not "
                              "UTF-8 text: a lone surrogate at character 1\n")


def test_a_manifest_of_one_version_per_base_exits_5_naming_it(tmp_path, capsys):
    """No single mutation of the demo's manifest leaves every base one
    version, so the fuzzer above never reaches the exit 5 of a manifest
    without a version pair; in each command its one line starts with the
    manifest's path."""
    manifest = demo_document("manifest.json")
    for base in manifest["bases"]:
        del base["versions"][1:]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    for argv in commands("manifest.json", str(path), tmp_path):
        code, err = rejected(capsys, argv, tmp_path / "report")
        assert (code, err.count("\n")) == (5, 1) and err.startswith(f"{path}: ")


def test_a_weight_map_architecture_that_is_not_a_string_exits_4(tmp_path, capsys):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"architecture": [1], "weights": {"x": 0.5}}))
    code, err = rejected(capsys, ["depth", "--weights", str(path), *CIRCUITS], tmp_path / "out")
    assert (code, err) == (4, f"{path}: invalid weight map: /architecture: "
                              "must be a string or null\n")


def test_tables_of_two_architectures_exit_4_led_by_the_table_that_differs(tmp_path, capsys):
    tables = []
    for d, architecture in enumerate(("eagle-demo", "eagle-demo", "heron")):
        table = demo_document(f"durations_device{d}.json")
        table["architecture"] = architecture
        tables.append(tmp_path / f"t{d}.json")
        tables[-1].write_text(json.dumps(table))
    out = tmp_path / "w.json"
    code, err = rejected(capsys, ["weights", *map(str, tables), "--out", str(out)], out)
    assert (code, err) == (4, f"{tables[2]}: architecture 'heron' is not 'eagle-demo', "
                              f"that of {tables[0]}\n")
