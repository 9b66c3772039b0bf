"""The JSON report writer, ``metrics.write_json``, against ``json.dumps``:
the same text, plus a newline, for any document under any chunk size, the
same exception for what json cannot encode, and a bounded text held while
it writes: a chunk of parts, and the key texts of one dict shape per depth."""
import enum
import inspect
import io
import json
import math
import sys
import tracemalloc
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatedepth.metrics
from gatedepth.metrics import write_json


class OddFloat(float):
    """A float whose repr is not float's: json writes float's."""

    def __repr__(self):
        return f"<{float.__repr__(self)}>"


class OddInt(int):
    def __repr__(self):
        return "<int>"


class OddStr(str):
    def __str__(self):
        return "<str>"


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 20


class Pair(NamedTuple):
    first: object
    second: object


class OddDict(dict):
    pass


class OddList(list):
    pass


FLOATS = st.one_of(st.sampled_from((-0.0, 0.0, 5e-324, 1e16, 1e308, math.nan, math.inf, -math.inf)),
                   st.floats())
# quotes, backslashes, control characters, non-ASCII and astral characters
TEXTS = st.one_of(st.text(st.sampled_from('"\\/\x00\x1f\n\r\t\x7f aé→ 😀'), max_size=5),
                  st.text(max_size=5))
INTS = st.one_of(st.integers(-10, 10), st.integers(-2**200, 2**200))
SCALARS = st.one_of(TEXTS, FLOATS, INTS, st.booleans(), st.none(),
                    FLOATS.map(OddFloat), INTS.map(OddInt), TEXTS.map(OddStr),
                    st.sampled_from(Colour))
# a few names, so that dicts of the same keys recur; and the other keys json takes
KEYS = st.one_of(st.sampled_from(("a", "b", "c\n", 'd"')), TEXTS, TEXTS.map(OddStr),
                 INTS, FLOATS, st.booleans(), st.none())


def containers(children):
    return st.one_of(st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
                     st.dictionaries(st.sampled_from(("a", "b", "c\n", 'd"')), children, max_size=4),
                     st.dictionaries(KEYS, children, max_size=4),
                     st.lists(children, max_size=4).map(OddList),
                     st.dictionaries(KEYS, children, max_size=3).map(OddDict),
                     st.builds(Pair, children, children))


DOCUMENTS = st.recursive(SCALARS, containers, max_leaves=40)


def dumps_text(document) -> bytes:
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


def assert_same_text(written: bytes, expected: bytes) -> None:
    """``written == expected``, failing with the first difference."""
    if written != expected:
        i = next((i for i, pair in enumerate(zip(written, expected)) if pair[0] != pair[1]),
                 min(len(written), len(expected)))
        pytest.fail(f"first difference at {i}: {written[i - 40:i + 40]!r} != "
                    f"{expected[i - 40:i + 40]!r}")


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "report.json"


@given(document=DOCUMENTS, chunk=st.integers(1, 3))
@settings(max_examples=500)
def test_the_writer_writes_what_json_dumps_writes(document, chunk, json_path):
    """Chunks of 1-3 parts, so most writes flush inside a container."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gatedepth.metrics, "JSON_CHUNK", chunk)
        write_json(json_path, document)
    assert_same_text(json_path.read_bytes(), dumps_text(document))


@given(rows=st.lists(st.tuples(TEXTS, FLOATS, st.one_of(FLOATS, st.none())), max_size=20))
def test_dicts_of_one_shape_at_two_depths(rows, json_path):
    """The same keys in a dict at depth 2 and at depth 4 have their own
    indentation, a float written once is written again the same, and dicts
    whose keys alternate between two orders at one depth each take their
    own key texts."""
    pairs = [{"name": name, "x": x, "y": y} for name, x, y in rows]
    alternating = [{"name": name, "x": x, "y": y} if i % 2 == 0 else {"y": y, "x": x, "name": name}
                   for i, (name, x, y) in enumerate(rows)]
    document = {"pairs": pairs, "again": [{"pairs": pairs}], "x": [x for _, x, _ in rows],
                "alternating": alternating}
    write_json(json_path, document)
    assert_same_text(json_path.read_bytes(), dumps_text(document))


def test_a_float_that_equals_another_keeps_its_own_text(json_path):
    """0.0 == -0.0, and a nan is not equal to itself."""
    document = [0.0, -0.0, 0.0, -0.0, math.nan, math.nan, 1.5, 1.5, -math.inf, math.inf]
    write_json(json_path, document)
    assert json_path.read_bytes() == dumps_text(document)
    assert b"-0.0" in json_path.read_bytes() and b"NaN" in json_path.read_bytes()


def cycle_list():
    items = [1]
    items.append({"a": items})
    return items


def cycle_through_a_subclass():
    items = [1]
    items.append(OddList([items]))
    return items


def nested(depth):
    document = []
    for _ in range(depth):
        document = [document]
    return document


UNENCODABLE = {
    "a set": lambda: {"a": [1, {2, 3}]},
    "a tuple key": lambda: [{"a": 1, (1, 2): 3}],
    "an object": lambda: {"a": object()},
    "a cycle": cycle_list,
    "a cycle through a subclass": cycle_through_a_subclass,
    "a nan key beside a bytes key": lambda: {math.nan: 1, b"k": 2},
}


@pytest.mark.parametrize("make", UNENCODABLE.values(), ids=UNENCODABLE.keys())
def test_what_json_cannot_encode_raises_what_json_dumps_raises(make, tmp_path):
    document = make()
    with pytest.raises(Exception) as expected:
        json.dumps(document, indent=2)
    with pytest.raises(expected.type):
        write_json(tmp_path / "report.json", document)


def test_nesting_past_the_recursion_limit_raises_recursion_error(tmp_path):
    """Under a limit a few hundred frames above the test's own: json's
    encoder nests a generator per level, and resumes each one at every
    yield, so at the suite's limit of 10,000 it takes seconds to fail. The
    reference is ``json.dump``: from Python 3.13 ``json.dumps`` indents in
    C, which this limit does not bound."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 300)
    try:
        document = nested(600)
        with pytest.raises(RecursionError):
            json.dump(document, io.StringIO(), indent=2)
        with pytest.raises(RecursionError):
            write_json(tmp_path / "report.json", document)
    finally:
        sys.setrecursionlimit(limit)


def test_a_recursion_error_of_the_writer_leaves_what_json_writes(tmp_path, monkeypatch):
    """Past the writer's depth json.dump writes the file anew, from its start."""
    def overflow(document, write):
        write("[" * 1000)  # longer than json's text
        raise RecursionError

    monkeypatch.setattr(gatedepth.metrics, "_write_json_parts", overflow)
    document = {"a": [1.5, {"b": None}]}
    write_json(tmp_path / "report.json", document)
    assert (tmp_path / "report.json").read_bytes() == dumps_text(document)


def test_a_report_is_written_without_json(tmp_path, monkeypatch):
    """A report's values are all of exact type: none goes to json."""
    document = {"records": [{"base": "b", "compiler": "c", "metrics": {"traditional": 2.0},
                             "runtime_s": 1e-6}],
                "pairs": [{"base": "b", "percent_re": None, "flags": ""}] * 3,
                "quartile_method": "linear", "count": 3, "ok": True}
    expected = dumps_text(document)

    def called(*args, **kwargs):
        raise AssertionError("json called")

    monkeypatch.setattr(json, "dump", called)
    monkeypatch.setattr(json, "dumps", called)
    write_json(tmp_path / "report.json", document)
    assert (tmp_path / "report.json").read_bytes() == expected


def test_writing_200k_entries_holds_about_one_chunk(tmp_path):
    """A pairs-shaped document of 25,000 dicts of 8 entries (6.4 MB of
    text): the writer's traced peak stays under 2 MiB. It was 0.27 MB; with
    the whole text in one chunk it is 28 MB, and with every float's text
    kept for reuse 7.4 MB."""
    metrics = ("traditional", "multiqubit", "gateaware")
    pairs = [{"base": f"base{i // 30}", "compiler_a": f"c{i % 5}", "compiler_b": "c0",
              "metric": metrics[i % 3], "delta_metric": i / 7, "delta_runtime": -i / 3,
              "percent_re": None if i % 9 == 0 else i / 11, "flags": ""}
             for i in range(25_000)]
    document = {"records": [], "pairs": pairs}
    tracemalloc.start()
    try:
        write_json(tmp_path / "report.json", document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "report.json").stat().st_size
    assert size > 6_000_000
    assert peak < 2 * 1024 * 1024, peak
    assert (tmp_path / "report.json").read_bytes() == dumps_text(document)


def test_dicts_of_distinct_keys_hold_a_bounded_store(tmp_path):
    """30,000 dicts of one key each, a new one every time: each replaces the
    last dict's key texts at its depth, so the traced peak stays under
    2 MiB. It was 0.22 MB; with every shape's texts kept it is 7.4 MB."""
    document = [{f"k{i}": i} for i in range(30_000)]
    tracemalloc.start()
    try:
        write_json(tmp_path / "report.json", document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, peak
    assert (tmp_path / "report.json").read_bytes() == dumps_text(document)
