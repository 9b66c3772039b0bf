"""Metamorphic checks on the bundled demo, exact in floats: an input change
that must scale or keep every number, and the outputs compared byte for
byte before and after it."""
import csv
import json
from pathlib import Path

import pytest

from gatedepth.cli import main
from gatedepth.compare import relative_difference

DEMO = Path(__file__).resolve().parents[1] / "demo"
TABLES = [DEMO / f"durations_device{d}.json" for d in range(3)]
COMPARE_OUTPUTS = ("pairs.csv", "report.json", "summary.json")


def run(capsys, *argv) -> str:
    code = main([str(arg) for arg in argv])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


def write_table(data: dict, path: Path) -> Path:
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def demo_table(path: Path, defaults: bool) -> dict:
    """The demo table at ``path``; with ``defaults``, the x and sx gates are
    timed by a per-gate default (the duration of their first entry) in place
    of their location entries."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if defaults:
        for entry in data["entries"]:
            data["defaults"].setdefault(entry["gate"], entry["duration_s"])
        data["defaults"] = {gate: data["defaults"][gate] for gate in ("sx", "x")}
        data["entries"] = [e for e in data["entries"] if e["gate"] not in data["defaults"]]
    return data


def doubled(data: dict) -> dict:
    """``data`` with every duration, entries and defaults both, doubled:
    a power of two, so every sum, mean and runtime doubles exactly."""
    return {**data, "entries": [{**e, "duration_s": 2 * e["duration_s"]} for e in data["entries"]],
            "defaults": {gate: 2 * d for gate, d in data["defaults"].items()}}


def read_outputs(out_dir: Path) -> dict:
    return {name: (out_dir / name).read_bytes() for name in COMPARE_OUTPUTS}


def pair_rows(out_dir: Path) -> list[dict]:
    with open(out_dir / "pairs.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def accuracies(out_dir: Path) -> dict:
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return {metric: m["identification_accuracy_percent"] for metric, m in summary["metrics"].items()}


@pytest.mark.parametrize("defaults", [False, True], ids=["entries", "defaults"])
@pytest.mark.parametrize("pooled", [[], ["--pooled"]], ids=["device_means", "pooled"])
def test_doubling_every_duration_keeps_the_weights(defaults, pooled, tmp_path, capsys):
    written = []
    for name, scale in (("once", lambda d: d), ("twice", doubled)):
        tables = [write_table(scale(demo_table(t, defaults)), tmp_path / f"{name}_{t.name}")
                  for t in TABLES]
        out = tmp_path / f"weights_{name}.json"
        run(capsys, "weights", *pooled, *tables, "--out", out)
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert len(json.loads(written[0])["weights"]) == 4


@pytest.mark.parametrize("defaults", [False, True], ids=["entries", "defaults"])
@pytest.mark.parametrize("table", TABLES, ids=lambda t: t.stem)
def test_doubling_every_duration_doubles_each_runtime_and_keeps_every_other_byte(
        table, defaults, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(DEMO)
    outputs = []
    for name, scale in (("once", lambda d: d), ("twice", doubled)):
        durations = write_table(scale(demo_table(table, defaults)), tmp_path / f"{name}.json")
        run(capsys, "compare", "manifest.json", "--durations", durations,
            "--weights", "weights.json", "--out", tmp_path / name)
        outputs.append(read_outputs(tmp_path / name))
    once, twice = outputs
    assert once["pairs.csv"] == twice["pairs.csv"]
    assert once["summary.json"] == twice["summary.json"]
    lines = [o["report.json"].decode().splitlines(keepends=True) for o in outputs]
    assert len(lines[0]) == len(lines[1])
    runtimes = 0
    for old, new in zip(*lines):
        if old.strip().startswith('"runtime_s": '):
            key, old_value = old.rstrip(",\n").split(": ")
            new_key, new_value = new.rstrip(",\n").split(": ")
            assert new_key == key and float(new_value) == 2 * float(old_value)
            assert new.endswith(",\n") == old.endswith(",\n")
            runtimes += 1
        else:
            assert new == old
    assert runtimes == len(json.loads(once["report.json"])["records"]) == 30


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_scaling_every_weight_by_a_power_of_two_scales_only_the_gateaware_depths(
        factor, tmp_path, monkeypatch, capsys):
    """A gate-aware depth is a max of sums of weights, so it scales exactly
    with them; every relative difference, %RE and argmin stays as it was."""
    monkeypatch.chdir(DEMO)
    data = json.loads((DEMO / "weights.json").read_text(encoding="utf-8"))
    scaled = {**data, "weights": {gate: factor * w for gate, w in data["weights"].items()}}
    outputs = []
    for name, weights in (("once", DEMO / "weights.json"),
                          ("scaled", write_table(scaled, tmp_path / "weights.json"))):
        printed = run(capsys, "compare", "manifest.json", "--durations", "durations_device0.json",
                      "--weights", weights, "--out", tmp_path / name)
        outputs.append((printed, read_outputs(tmp_path / name)))
    (printed, once), (scaled_printed, scaled) = outputs
    assert printed == scaled_printed
    assert once["pairs.csv"] == scaled["pairs.csv"]
    assert once["summary.json"] == scaled["summary.json"]
    lines = [o["report.json"].decode().splitlines(keepends=True) for o in (once, scaled)]
    assert len(lines[0]) == len(lines[1])
    depths = 0
    for old, new in zip(*lines):
        if old.strip().startswith('"gateaware": '):
            key, old_value = old.rstrip(",\n").split(": ")
            new_key, new_value = new.rstrip(",\n").split(": ")
            assert new_key == key and float(new_value) == factor * float(old_value)
            assert new.endswith(",\n") == old.endswith(",\n")
            depths += 1
        else:
            assert new == old
    assert depths == len(json.loads(once["report.json"])["records"]) == 30


@pytest.mark.parametrize(("scale", "bound"), [(1.0, 0.0), (1e-7, 1e-9), (3e-7, 1e-9)])
def test_durations_proportional_to_the_weights_make_gateaware_depth_exact(
        scale, bound, tmp_path, monkeypatch, capsys):
    """A table of no entries whose per-gate defaults are the weights times
    ``scale``: each runtime is the gate-aware depth times ``scale``, so each
    gate-aware %RE is 0 (at ``scale`` 1, exactly; else up to rounding) and
    every base's fastest version is identified."""
    monkeypatch.chdir(DEMO)
    weights = json.loads((DEMO / "weights.json").read_text(encoding="utf-8"))
    table = {"device": "proportional", "architecture": weights["architecture"], "entries": [],
             "defaults": {gate: scale * w for gate, w in weights["weights"].items()}}
    durations = write_table(table, tmp_path / "durations.json")
    run(capsys, "compare", "manifest.json", "--durations", durations,
        "--weights", "weights.json", "--out", tmp_path / "report")
    rows = [row for row in pair_rows(tmp_path / "report") if row["metric"] == "gateaware"]
    defined = [float(row["percent_re"]) for row in rows if row["percent_re"]]
    assert len(rows) == 30 and defined
    assert max(defined) <= bound, max(defined)
    assert accuracies(tmp_path / "report")["gateaware"] == 100.0


def test_renaming_a_compiler_id_to_sort_last_swaps_only_its_pairs(tmp_path, monkeypatch, capsys):
    """``qfirst`` renamed ``zfirst`` sorts last, so each of its pairs takes
    it as C1 in place of C2; every other pair and every identification
    accuracy stays as it was."""
    monkeypatch.chdir(DEMO)
    manifest = json.loads((DEMO / "manifest.json").read_text(encoding="utf-8"))
    for base in manifest["bases"]:
        for version in base["versions"]:
            version["file"] = str(DEMO / version["file"])
            if version["compiler"] == "qfirst":
                version["compiler"] = "zfirst"
    renamed = write_table(manifest, tmp_path / "manifest.json")
    for name, path in (("plain", "manifest.json"), ("renamed", renamed)):
        run(capsys, "compare", path, "--durations", "durations_device0.json",
            "--weights", "weights.json", "--out", tmp_path / name)
    plain, after = pair_rows(tmp_path / "plain"), pair_rows(tmp_path / "renamed")
    assert len(plain) == len(after) == 90
    assert ([row for row in after if "zfirst" not in (row["compiler_a"], row["compiler_b"])]
            == [row for row in plain if "qfirst" not in (row["compiler_a"], row["compiler_b"])])
    report = json.loads((tmp_path / "renamed" / "report.json").read_text(encoding="utf-8"))
    values = {(r["base"], r["compiler"]): r["metrics"] for r in report["records"]}
    swapped = [row for row in after if "zfirst" in (row["compiler_a"], row["compiler_b"])]
    assert len(swapped) == 60
    for row in swapped:
        assert row["compiler_a"] == "zfirst"
        a = values[row["base"], "zfirst"][row["metric"]]
        b = values[row["base"], row["compiler_b"]][row["metric"]]
        assert float(row["delta_metric"]) == relative_difference(a, b), row
    assert accuracies(tmp_path / "renamed") == accuracies(tmp_path / "plain")


def with_barriers(tmp_path: Path) -> Path:
    """A copy of the demo manifest whose every circuit has ``barrier q;``
    after its register declaration and after each of its statements."""
    manifest = json.loads((DEMO / "manifest.json").read_text(encoding="utf-8"))
    for base in manifest["bases"]:
        for version in base["versions"]:
            lines = (DEMO / version["file"]).read_text(encoding="utf-8").splitlines()
            qreg = next(i for i, line in enumerate(lines) if line.startswith("qreg "))
            body = [s for line in lines[qreg:] for s in (line, "barrier q;")]
            path = tmp_path / Path(version["file"]).name
            path.write_text("\n".join(lines[:qreg] + body) + "\n", encoding="utf-8")
            version["file"] = str(path)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def test_a_barrier_after_every_statement_changes_no_compare_byte_under_skip(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(DEMO)
    barriered = with_barriers(tmp_path)
    outputs = {}
    for name, manifest, barrier in (("plain", "manifest.json", "skip"),
                                    ("skip", barriered, "skip"),
                                    ("sync", barriered, "sync")):
        printed = run(capsys, "compare", manifest, "--durations", "durations_device0.json",
                      "--weights", "weights.json", "--barrier", barrier,
                      "--out", tmp_path / name)
        outputs[name] = (printed, read_outputs(tmp_path / name))
    assert outputs["skip"] == outputs["plain"]
    # the barriers are read: synchronizing on them moves the report
    assert outputs["sync"][1]["report.json"] != outputs["plain"][1]["report.json"]


def sweep_blocks(capsys, out: Path, tables, grid: str) -> tuple[list[list[bytes]], str]:
    """``sweep`` on the demo over ``tables``: the rows of ``out`` (its CSV)
    in one block per device, in the order of ``tables``, and the argmin
    line it prints."""
    printed = run(capsys, "sweep", "manifest.json", "--durations", *tables, "--grid", grid,
                  "--out", out)
    header, *rows = out.read_bytes().splitlines(keepends=True)
    assert header == b"w_s,device,median_percent_re\r\n"
    size = len(rows) // len(tables)
    blocks = [rows[i:i + size] for i in range(0, len(rows), size)]
    assert [{row.split(b",")[1] for row in block} for block in blocks] == [
        {json.loads(t.read_text(encoding="utf-8"))["device"].encode()} for t in tables]
    return blocks, printed


def test_a_longer_grid_starts_with_the_shorter_grids_rows(tmp_path, monkeypatch, capsys):
    """0:2:0.001 crosses the edge of the first 1,024-value sweep block, which
    0:1:0.001 does not reach; each device's first 1,001 rows are still the
    shorter grid's, byte for byte."""
    monkeypatch.chdir(DEMO)
    short, _ = sweep_blocks(capsys, tmp_path / "short.csv", TABLES, "0:1:0.001")
    long, _ = sweep_blocks(capsys, tmp_path / "long.csv", TABLES, "0:2:0.001")
    assert [len(block) for block in short + long] == [1001] * 3 + [2001] * 3
    assert [block[:1001] for block in long] == short


def test_reversing_the_tables_reverses_the_device_blocks(tmp_path, monkeypatch, capsys):
    """Each device is scored on its own: the order of --durations orders the
    CSV's device blocks and changes no row and no argmin."""
    monkeypatch.chdir(DEMO)
    forward, printed = sweep_blocks(capsys, tmp_path / "forward.csv", TABLES, "0:1:0.001")
    backward, reversed_printed = sweep_blocks(capsys, tmp_path / "backward.csv", TABLES[::-1],
                                              "0:1:0.001")
    assert backward == forward[::-1]
    assert reversed_printed == printed
