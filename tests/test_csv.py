"""The CSV report writer, ``cli._save_csv``, against ``csv.writer``: the
same text for any header and blocks of rows under both line ends and any
chunk size, and at the commands that write CSV (``compare``'s
``pairs.csv``, ``sweep``'s file and its stdout)."""
import contextlib
import csv
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatedepth.cli
from gatedepth.cli import _save_csv, main
from gatedepth.compare import PairComparison, SweepPoint


class OddFloat(float):
    """A float whose str is not its repr: csv.writer writes its str."""

    def __str__(self):
        return f"<{float.__repr__(self)}>"


FLOATS = st.one_of(st.sampled_from((-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308)),
                   st.floats())
# "" and every character csv may quote, under either line end
TEXTS = st.text(st.sampled_from(',"\r\n a0é→'), max_size=5)
# the columns the writer tells apart; "mixed" draws every kind of value
VALUES = {
    "float": FLOATS,
    "float or None": st.one_of(FLOATS, st.none()),
    "text": TEXTS,
    "mixed": st.one_of(FLOATS, TEXTS, st.none(), st.integers(), st.booleans(),
                       FLOATS.map(OddFloat)),
}


@st.composite
def reports(draw):
    """A header of 2-8 fields and 0-3 blocks of 0-7 rows. Each field of a
    block is a list or one value, at least one a list; a list may be one an
    earlier block gave the same field."""
    width = draw(st.integers(2, 8))
    header = draw(st.lists(TEXTS, min_size=width, max_size=width))
    kinds = draw(st.lists(st.sampled_from(sorted(VALUES)), min_size=width, max_size=width))
    blocks, lists = [], {}  # (field, rows) -> a list an earlier block gave
    for _ in range(draw(st.integers(0, 3))):
        rows = draw(st.integers(0, 7))
        listed = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        listed[draw(st.integers(0, width - 1))] = True
        block = []
        for field, (kind, is_list) in enumerate(zip(kinds, listed)):
            if not is_list:
                block.append(draw(VALUES[kind]))
            elif (field, rows) in lists and draw(st.booleans()):
                block.append(lists[field, rows])
            else:
                lists[field, rows] = draw(st.lists(VALUES[kind], min_size=rows, max_size=rows))
                block.append(lists[field, rows])
        blocks.append(tuple(block))
    return header, blocks


def csv_writer_text(header, blocks, end: str) -> str:
    """What ``csv.writer`` writes for the header and each block's rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end)
    writer.writerow(header)
    for block in blocks:
        rows = len(next(f for f in block if type(f) is list))
        writer.writerows([f[r] if type(f) is list else f for f in block] for r in range(rows))
    return out.getvalue()


def assert_same_text(written: str, expected: str) -> None:
    """``written == expected``, failing with the first difference: pytest's
    diff of two texts of thousands of lines takes minutes."""
    if written != expected:
        i = next((i for i, pair in enumerate(zip(written, expected)) if pair[0] != pair[1]),
                 min(len(written), len(expected)))
        pytest.fail(f"first difference at {i}: {written[i - 40:i + 40]!r} != "
                    f"{expected[i - 40:i + 40]!r}")


def stdout_text(header, blocks) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _save_csv(None, header, blocks)
    return out.getvalue()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "report.csv"


@given(report=reports(), chunk=st.integers(1, 3))
@settings(max_examples=500)
def test_the_writer_writes_what_csv_writer_writes(report, chunk, csv_path):
    """Chunks of 1-3 rows, so most blocks end in a part chunk or span
    several; the file has \\r\\n line ends, stdout \\n, and csv quotes a
    \\r under one and not, on some Python versions, under the other."""
    header, blocks = report
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gatedepth.cli, "CSV_CHUNK", chunk)
        _save_csv(csv_path, header, blocks)
        printed = stdout_text(header, blocks)
    assert csv_path.read_bytes() == csv_writer_text(header, blocks, "\r\n").encode("utf-8")
    assert printed == csv_writer_text(header, blocks, "\n")


def test_the_writer_formats_a_recurring_list_once(monkeypatch):
    """sweep's w_s list is each device block's first field: its 1,001
    reprs are made once, not once per device, and each device's name once."""
    grid = [i / 1000 for i in range(1001)]
    blocks = [(grid, f"dev{d}", [float(d)] * len(grid)) for d in range(3)]
    made = []

    def field_texts(values, quote):
        made.append(len(values))
        return texts(values, quote)

    texts = gatedepth.cli._field_texts
    monkeypatch.setattr(gatedepth.cli, "_field_texts", field_texts)
    assert_same_text(stdout_text(SweepPoint._fields, blocks),
                     csv_writer_text(SweepPoint._fields, blocks, "\n"))
    assert sorted(made) == [1] * 3 + [1001] * 4  # each name; the grid once, each device's medians


# a base name, compiler ids and a device name that csv must quote
BASE = 'b,"0"\nx'
COMPILERS = ("q,k", 'tk"')
DEVICE = 'dev,"0"'


@pytest.fixture
def quoted_names(tmp_path):
    """Two bases of two versions each, one named ``BASE``; compiler ids
    ``COMPILERS``; one duration table of device ``DEVICE``."""
    bodies = {(BASE, COMPILERS[0]): "cz q[0],q[1]; x q[0];",
              (BASE, COMPILERS[1]): "cz q[0],q[1]; cz q[0],q[1]; x q[0];",
              ("b1", COMPILERS[0]): "x q[0]; x q[0];",
              ("b1", COMPILERS[1]): "x q[0];"}
    for i, body in enumerate(bodies.values()):
        (tmp_path / f"v{i}.qasm").write_text(f"OPENQASM 2.0;\nqreg q[2];\n{body}\n")
    manifest = {"bases": [{"name": base, "versions": [
        {"compiler": compiler, "file": f"v{i}.qasm"}
        for i, (b, compiler) in enumerate(bodies) if b == base]} for base in (BASE, "b1")]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "durations.json").write_text(json.dumps({
        "device": DEVICE, "architecture": "a", "entries": [],
        "defaults": {"cz": 3e-7, "x": 1e-7}}))
    (tmp_path / "weights.json").write_text(json.dumps({"architecture": "a",
                                                       "weights": {"cz": 1.0, "x": 0.3}}))
    return tmp_path


def read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_compare_writes_pairs_csv_as_csv_writer_does(quoted_names, capsys):
    out = quoted_names / "report"
    assert main(["compare", str(quoted_names / "manifest.json"),
                 "--durations", str(quoted_names / "durations.json"),
                 "--weights", str(quoted_names / "weights.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    pairs = json.loads((out / "report.json").read_text())["pairs"]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\r\n")
    writer.writerow(PairComparison._fields)
    writer.writerows(pair.values() for pair in pairs)
    assert (out / "pairs.csv").read_bytes() == expected.getvalue().encode("utf-8")
    rows = read_csv(out / "pairs.csv")
    assert len(rows) == 1 + 2 * 3  # a pair per base per metric
    assert {row[0] for row in rows[1:]} == {BASE, "b1"}
    assert {(row[1], row[2]) for row in rows[1:]} == {COMPILERS[::-1]}  # C2 sorts first


def test_sweep_writes_its_file_and_stdout_as_csv_writer_does(quoted_names, monkeypatch, capsys):
    results = []

    def sweep(*args):
        results.append(grid_sweep(*args))
        return results[-1]

    grid_sweep = gatedepth.cli.sweep_single_qubit_weight
    monkeypatch.setattr(gatedepth.cli, "sweep_single_qubit_weight", sweep)
    argv = ["sweep", str(quoted_names / "manifest.json"),
            "--durations", str(quoted_names / "durations.json"), "--grid", "0:2:0.25"]
    assert main([*argv, "--out", str(quoted_names / "sweep.csv")]) == 0
    argmin = capsys.readouterr().out
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert results[0] == results[1]
    for end, text in (("\r\n", (quoted_names / "sweep.csv").read_bytes().decode("utf-8")),
                      ("\n", printed.removesuffix(argmin))):
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator=end)
        writer.writerow(SweepPoint._fields)
        writer.writerows(results[0].points)
        assert text == expected.getvalue()
    rows = read_csv(quoted_names / "sweep.csv")
    assert len(rows) == 1 + 9 and {row[1] for row in rows[1:]} == {DEVICE}
    assert list(csv.reader(printed.splitlines()[:-1])) == rows
    assert list(json.loads(argmin)["argmin_w_s"]) == [DEVICE]


def test_writing_100k_rows_holds_about_one_chunk(tmp_path):
    """A pairs.csv of 100,000 rows (about 7 MB): the writer's traced peak
    stays under 2 KiB per row of one chunk, 2 MiB at 1,024 rows. It was
    0.6 MB; with all 100,000 rows in one chunk it is 44 MB."""
    rows = 100_000
    names = [f"base{i // 30}" for i in range(rows)]
    floats = [i / 7 for i in range(rows)]
    maybe = [[None if i % 9 == 0 else -i / k for i in range(rows)] for k in (3, 11)]
    block = [names, [f"c{i % 5}" for i in range(rows)], "c0", "gateaware", floats, *maybe,
             ["" if i % 9 else "zero_delta_runtime" for i in range(rows)]]
    tracemalloc.start()
    try:
        _save_csv(tmp_path / "pairs.csv", PairComparison._fields, [block])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "pairs.csv").stat().st_size
    assert size > 6_000_000
    assert peak < 2048 * gatedepth.cli.CSV_CHUNK, peak
