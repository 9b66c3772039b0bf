import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedepth.calibration import (ArchitectureMismatchError, DurationTable,
                                   DurationTableError, configure_weights,
                                   duration_table_from_dict,
                                   load_duration_table, summarize)


def make_table(device="dev0", architecture="eagle", entries=(), defaults=None):
    return DurationTable(device, architecture, dict(entries), defaults or {})


# --- loading ------------------------------------------------------------

def test_load_single_entry(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "device": "d", "architecture": "a",
        "entries": [{"gate": "x", "qubits": [0], "duration_s": 5.0e-8}],
    }))
    table = load_duration_table(path)
    assert table.entries == {("x", (0,)): 5.0e-8}


def test_negative_duration_rejected():
    with pytest.raises(DurationTableError, match="/entries/0/duration_s"):
        duration_table_from_dict({
            "device": "d", "architecture": "a",
            "entries": [{"gate": "x", "qubits": [0], "duration_s": -1}],
        })


def test_non_finite_duration_rejected():
    with pytest.raises(DurationTableError, match="finite"):
        duration_table_from_dict({
            "device": "d", "architecture": "a",
            "entries": [{"gate": "x", "qubits": [0], "duration_s": float("nan")}],
        })


def test_duplicate_key_rejected():
    with pytest.raises(DurationTableError, match="duplicate"):
        duration_table_from_dict({
            "device": "d", "architecture": "a",
            "entries": [
                {"gate": "cz", "qubits": [0, 1], "duration_s": 1e-7},
                {"gate": "cz", "qubits": [0, 1], "duration_s": 2e-7},
            ],
        })


def test_schema_errors_carry_json_pointer():
    with pytest.raises(DurationTableError, match="/entries/1/qubits"):
        duration_table_from_dict({
            "device": "d", "architecture": "a",
            "entries": [
                {"gate": "x", "qubits": [0], "duration_s": 1e-8},
                {"gate": "x", "qubits": "zero", "duration_s": 1e-8},
            ],
        })


def test_missing_device_rejected():
    with pytest.raises(DurationTableError, match="/device"):
        duration_table_from_dict({"architecture": "a", "entries": []})


def test_direction_sensitive_keys():
    table = make_table(entries={("ecr", (0, 1)): 1e-7})
    assert table.lookup("ecr", (0, 1)) == 1e-7
    assert table.lookup("ecr", (1, 0)) is None


def test_default_fallback():
    table = make_table(entries={("x", (0,)): 1e-8}, defaults={"x": 2e-8})
    assert table.lookup("x", (0,)) == 1e-8
    assert table.lookup("x", (5,)) == 2e-8


def test_load_serialize_load_identical(tmp_path):
    table = make_table(entries={("ecr", (0, 1)): 5.33e-7, ("x", (0,)): 5.02e-8},
                       defaults={"rz": 0.0})
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    table.save(p1)
    loaded = load_duration_table(p1)
    loaded.save(p2)
    assert loaded == load_duration_table(p2) == table


def test_nested_document_is_invalid_json(tmp_path):
    """Nested past the decoder's limit, a document is invalid JSON (RFC 8259
    section 9 lets a parser limit nesting), not a RecursionError."""
    path = tmp_path / "nested.json"
    path.write_bytes(b"[" * 100_000)
    with pytest.raises(DurationTableError, match="invalid JSON"):
        load_duration_table(path)


# --- summarize ----------------------------------------------------------

def test_summarize_two_point_mean():
    table = make_table(entries={("x", (0,)): 4e-8, ("x", (1,)): 6e-8})
    stats = summarize(table)["x"]
    assert stats.mean == pytest.approx(5e-8)
    assert (stats.count, stats.min, stats.max) == (2, 4e-8, 6e-8)


def test_summarize_single_entry():
    stats = summarize(make_table(entries={("cz", (0, 1)): 6.6e-7}))["cz"]
    assert stats.mean == stats.min == stats.max == 6.6e-7


def test_summarize_matches_brute_force_sum():
    rng = random.Random(42)
    entries = {("x", (q,)): rng.uniform(1e-8, 1e-7) for q in range(10)}
    stats = summarize(make_table(entries=entries))["x"]
    assert stats.mean == pytest.approx(sum(entries.values()) / 10, rel=1e-15)
    assert stats.min <= stats.mean <= stats.max


@pytest.mark.parametrize("pooled", [False, True])
def test_means_add_left_to_right_on_every_python(pooled):
    """From Python 3.12 ``sum`` compensates float rounding, which gives
    (1 + 2**53 + 2) / 3 here; every mean adds its durations in order, as
    ``sum`` did before, so a weight map has the same bytes on every Python."""
    durations = (1.0, 2.0**53, 1.0)
    table = make_table(entries={("x", (q,)): d for q, d in enumerate(durations)},
                       defaults={"ecr": 2.0**54})
    mean = (((0.0 + 1.0) + 2.0**53) + 1.0) / 3
    assert summarize(table)["x"].mean == mean != (2.0**53 + 2.0) / 3
    assert configure_weights([table], pooled=pooled)["x"] == mean / 2.0**54


def test_summarize_defaults_excluded_when_entries_exist():
    table = make_table(entries={("x", (0,)): 1e-8}, defaults={"x": 9e-8, "sx": 3e-8})
    stats = summarize(table)
    assert stats["x"].mean == 1e-8
    assert stats["sx"].mean == 3e-8 and stats["sx"].count == 0


# --- configure_weights --------------------------------------------------

def test_single_gate_self_normalizes():
    wmap = configure_weights([make_table(entries={("cz", (0, 1)): 6.6e-7})])
    assert wmap.weights == {"cz": 1.0}
    assert wmap.architecture == "eagle"


def make_eagle_tables():
    # cross-device means: ecr 5.33e-7, rz 0, sx 5.02e-8, x 5.02e-8
    tables = []
    for i, (ecr, sq) in enumerate([(5.3e-7, 5.0e-8), (5.33e-7, 5.02e-8), (5.36e-7, 5.04e-8)]):
        tables.append(make_table(
            device=f"eagle{i}",
            entries={("ecr", (0, 1)): ecr, ("sx", (0,)): sq, ("x", (0,)): sq,
                     ("rz", (0,)): 0.0},
        ))
    return tables


def test_eagle_weight_ratios():
    wmap = configure_weights(make_eagle_tables())
    assert wmap.weights["ecr"] == 1.0
    assert wmap.weights["rz"] == 0.0
    assert wmap.weights["sx"] == pytest.approx(0.0942, abs=5e-5)
    assert wmap.weights["x"] == pytest.approx(0.0942, abs=5e-5)


def test_heron_weight_ratios():
    tables = [
        make_table(device=f"heron{i}", architecture="heron",
                   entries={("cz", (0, 1)): cz, ("sx", (0,)): 0.483 * cz,
                            ("x", (0,)): 0.483 * cz, ("rz", (0,)): 0.0})
        for i, cz in enumerate([6.0e-8, 6.6e-8, 7.2e-8])
    ]
    wmap = configure_weights(tables)
    assert wmap.weights["cz"] == 1.0
    assert wmap.weights["sx"] == pytest.approx(0.483, abs=5e-4)


def test_mixed_architectures_rejected():
    with pytest.raises(ArchitectureMismatchError):
        configure_weights([
            make_table(architecture="eagle", entries={("ecr", (0, 1)): 1e-7}),
            make_table(architecture="heron", entries={("cz", (0, 1)): 1e-7}),
        ])


def test_all_zero_means_rejected():
    with pytest.raises(ValueError, match="anchor"):
        configure_weights([make_table(entries={("rz", (0,)): 0.0})])


@pytest.mark.parametrize("tables, message", [
    ([], "at least one duration table is required"),
    ([make_table(), make_table(device="dev1")], "duration tables contain no gates"),
], ids=["no-table", "no-gate"])
def test_weights_need_a_table_and_a_gate(tables, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        configure_weights(tables)


def test_gate_absent_from_one_device():
    # x only on dev1: its cross-device mean is dev1's mean alone
    tables = [
        make_table(device="d0", entries={("cz", (0, 1)): 1e-7}),
        make_table(device="d1", entries={("cz", (0, 1)): 1e-7, ("x", (0,)): 5e-8}),
    ]
    wmap = configure_weights(tables)
    assert wmap.weights["x"] == pytest.approx(0.5)


def test_hierarchical_vs_pooled():
    # d0 has many slow x entries; hierarchical averages device means equally
    tables = [
        make_table(device="d0", entries={("cz", (0, 1)): 1e-7,
                                         **{("x", (q,)): 8e-8 for q in range(9)}}),
        make_table(device="d1", entries={("cz", (0, 1)): 1e-7, ("x", (0,)): 2e-8}),
    ]
    hier = configure_weights(tables)
    pooled = configure_weights(tables, pooled=True)
    assert hier.weights["x"] == pytest.approx(0.5)
    assert pooled.weights["x"] == pytest.approx((9 * 8e-8 + 2e-8) / 10 / 1e-7)


@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 1000))
@settings(max_examples=40)
def test_scale_invariance(scale, seed):
    rng = random.Random(seed)
    tables = [
        make_table(device=f"d{i}", entries={
            ("cz", (0, 1)): rng.uniform(1e-8, 1e-6),
            ("x", (0,)): rng.uniform(1e-9, 1e-7),
        })
        for i in range(3)
    ]
    scaled = [make_table(device=t.device,
                         entries={k: v * scale for k, v in t.entries.items()})
              for t in tables]
    base = configure_weights(tables)
    rescaled = configure_weights(scaled)
    for name in base.weights:
        assert rescaled.weights[name] == pytest.approx(base.weights[name], rel=1e-9)


def test_permutation_invariance():
    tables = make_eagle_tables()
    a = configure_weights(tables)
    b = configure_weights(list(reversed(tables)))
    assert a.weights == b.weights


def test_output_range_and_anchor():
    wmap = configure_weights(make_eagle_tables())
    assert all(0.0 <= w <= 1.0 for w in wmap.weights.values())
    assert max(wmap.weights.values()) == 1.0
