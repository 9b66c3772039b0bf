"""The public behaviour of every record type: repr, equality, hash,
read-only fields, pickling and each constructor's rules."""
import pickle

import pytest

from gatedepth.calibration import DurationTable, GateStats
from gatedepth.compare import (DistributionSummary, IdentificationResult, PairComparison,
                               SweepPoint, SweepResult, VersionRecord)
from gatedepth.ir import MEASURE, Circuit, Gate, Violation
from gatedepth.metrics import WeightMap
from gatedepth.qasm import ParseDiagnostic, ParseResult

GATES = (Gate("cx", (0, 1)), Gate("rz", (1,), (0.5,)))

# (instance, an equal instance, a different instance, its literal repr, its
# field values in order, or None for an unhashable record)
RECORDS = {
    "Gate": (
        Gate("rz", [1], [1]), Gate(name="rz", qubits=(1,), params=(1.0,)), Gate("rz", (1,), (2,)),
        "Gate(name='rz', qubits=(1,), params=(1.0,), kind='unitary')",
        ("rz", (1,), (1.0,), "unitary")),
    "Circuit": (
        Circuit(2, GATES),
        Circuit.from_columns(2, ["cx", "rz"], ["unitary"] * 2, [(0, 1), (1,)], [(), (0.5,)]),
        Circuit(3, GATES),
        "Circuit(num_qubits=2, gates=(Gate(name='cx', qubits=(0, 1), params=(), kind='unitary'), "
        "Gate(name='rz', qubits=(1,), params=(0.5,), kind='unitary')))",
        (2, ("cx", "rz"), ("unitary", "unitary"), ((0, 1), (1,)), ((), (0.5,)))),
    "Violation": (
        Violation(3, "bad"), Violation(gate_index=3, message="bad"), Violation(4, "bad"),
        "Violation(gate_index=3, message='bad')", (3, "bad")),
    "ParseDiagnostic": (
        ParseDiagnostic(1, 2, "oops"), ParseDiagnostic(1, 2, "oops", "error"),
        ParseDiagnostic(1, 2, "oops", "warning"),
        "ParseDiagnostic(line=1, column=2, message='oops', severity='error')",
        (1, 2, "oops", "error")),
    "ParseResult": (
        ParseResult(None, [ParseDiagnostic(1, 1, "x")]),
        ParseResult(circuit=None, diagnostics=[ParseDiagnostic(1, 1, "x")]),
        ParseResult(Circuit(1)),
        "ParseResult(circuit=None, diagnostics=[ParseDiagnostic(line=1, column=1, "
        "message='x', severity='error')])",
        None),
    "DurationTable": (
        DurationTable("dev", "eagle", {("x", (0,)): 1e-8}, {"x": 2e-8}),
        DurationTable(device="dev", architecture="eagle", entries={("x", (0,)): 1e-8},
                      defaults={"x": 2e-8}),
        DurationTable("dev", "eagle", {("x", (0,)): 1e-8}),
        "DurationTable(device='dev', architecture='eagle', entries={('x', (0,)): 1e-08}, "
        "defaults={'x': 2e-08})",
        None),
    "GateStats": (
        GateStats(1.5, 2, 1.0, 2.0), GateStats(mean=1.5, count=2, min=1.0, max=2.0),
        GateStats(1.5, 0, 1.0, 2.0),
        "GateStats(mean=1.5, count=2, min=1.0, max=2.0)", (1.5, 2, 1.0, 2.0)),
    "WeightMap": (
        WeightMap({"ecr": 1, "x": 0.25}, "eagle"),
        WeightMap(weights={"ecr": 1.0, "x": 0.25}, architecture="eagle"),
        WeightMap({"ecr": 1, "x": 0.25}),
        "WeightMap(weights={'ecr': 1.0, 'x': 0.25}, architecture='eagle')",
        None),
    "VersionRecord": (
        VersionRecord("b", "tk", {"gateaware": 2.0}, 1e-6),
        VersionRecord(base="b", compiler="tk", metrics={"gateaware": 2.0}, runtime_s=1e-6),
        VersionRecord("b", "qk", {"gateaware": 2.0}, 1e-6),
        "VersionRecord(base='b', compiler='tk', metrics={'gateaware': 2.0}, runtime_s=1e-06)",
        None),
    "PairComparison": (
        PairComparison("b", "tk", "qk", "gateaware", 0.5, 0.25, 100.0),
        PairComparison(base="b", compiler_a="tk", compiler_b="qk", metric="gateaware",
                       delta_metric=0.5, delta_runtime=0.25, percent_re=100.0, flags=()),
        PairComparison("b", "tk", "qk", "gateaware", None, None, None, ("overflow",)),
        "PairComparison(base='b', compiler_a='tk', compiler_b='qk', metric='gateaware', "
        "delta_metric=0.5, delta_runtime=0.25, percent_re=100.0, flags=())",
        ("b", "tk", "qk", "gateaware", 0.5, 0.25, 100.0, ())),
    "IdentificationResult": (
        IdentificationResult("b", "gateaware", True, ("qk",), ("qk",)),
        IdentificationResult(base="b", metric="gateaware", correct=True,
                             metric_argmin=("qk",), runtime_argmin=("qk",)),
        IdentificationResult("b", "gateaware", False, ("qk", "tk"), ("qk",)),
        "IdentificationResult(base='b', metric='gateaware', correct=True, "
        "metric_argmin=('qk',), runtime_argmin=('qk',))",
        ("b", "gateaware", True, ("qk",), ("qk",))),
    "DistributionSummary": (
        DistributionSummary(5, 2.0, 1.0, 3.0, 2.0, (9.0,)),
        DistributionSummary(n=5, median=2.0, q1=1.0, q3=3.0, iqr=2.0, outliers=(9.0,)),
        DistributionSummary(5, 2.0, 1.0, 3.0, 2.0, ()),
        "DistributionSummary(n=5, median=2.0, q1=1.0, q3=3.0, iqr=2.0, outliers=(9.0,))",
        (5, 2.0, 1.0, 3.0, 2.0, (9.0,))),
    "SweepResult": (
        SweepResult((SweepPoint(0.5, "dev", 12.0),), {"dev": 0.5}),
        SweepResult(points=(SweepPoint(0.5, "dev", 12.0),), argmin_w_s={"dev": 0.5}),
        SweepResult((), {"dev": 0.5}),
        "SweepResult(points=(SweepPoint(w_s=0.5, device='dev', median_percent_re=12.0),), "
        "argmin_w_s={'dev': 0.5})",
        None),
}

# the fields of each record, one of which is assigned to below
FIELDS = {
    "Gate": "name", "Circuit": "num_qubits", "Violation": "gate_index",
    "ParseDiagnostic": "line", "ParseResult": "circuit", "DurationTable": "device",
    "GateStats": "mean", "WeightMap": "architecture", "VersionRecord": "base",
    "PairComparison": "base", "IdentificationResult": "base", "DistributionSummary": "n",
    "SweepResult": "points",
}


def test_every_record_type_is_pinned():
    assert len(RECORDS) == 13 and set(RECORDS) == set(FIELDS)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_literal(name):
    record, equal, _, text, _ = RECORDS[name]
    assert type(record).__name__ == name
    assert repr(record) == text
    assert repr(equal) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_and_different_instances(name):
    record, equal, different, _, _ = RECORDS[name]
    assert record == equal and not record != equal
    assert record != different and not record == different


@pytest.mark.parametrize("name", RECORDS)
def test_hash_is_that_of_the_field_values(name):
    record, equal, _, _, values = RECORDS[name]
    if values is None:  # a dict or list field
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(equal) == hash(values)


@pytest.mark.parametrize("name", [n for n in RECORDS if n != "ParseResult"])
def test_a_field_cannot_be_assigned_or_deleted(name):
    record, equal, different, _, _ = RECORDS[name]
    field = FIELDS[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(different, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == equal


def test_a_circuit_refuses_its_gates_and_new_attributes():
    circuit = RECORDS["Circuit"][1]
    assert circuit.gates == GATES
    for attr in ("gates", "names", "extra"):
        with pytest.raises(AttributeError):
            setattr(circuit, attr, ())
    assert circuit.gates is circuit.gates


@pytest.mark.parametrize("name", RECORDS)
def test_a_pickled_record_loads_equal(name):
    record = RECORDS[name][0]
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is type(record)
    assert loaded == record and repr(loaded) == repr(record)


def test_a_gate_stores_tuples_of_qubits_and_float_params():
    gate = Gate("u3", [2], [1, 0.5, True])
    assert gate.qubits == (2,) and type(gate.qubits) is tuple
    assert gate.params == (1.0, 0.5, 1.0) and all(type(p) is float for p in gate.params)
    assert Gate("measure", (0,), kind=MEASURE).kind == MEASURE
    assert Gate("x", (0,)).params == () and Gate("x", (0,)).kind == "unitary"


def test_a_gate_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind 'reset'"):
        Gate("reset", (0,), (), "reset")


def test_a_circuit_keeps_the_gates_it_was_given():
    circuit = Circuit(2, iter(GATES))
    assert circuit.gates == GATES and all(a is b for a, b in zip(circuit.gates, GATES))
    assert circuit.names == ("cx", "rz") and circuit.params == ((), (0.5,))
    assert Circuit(1).gates == () and Circuit(1) == Circuit.from_columns(1, [], [], [], [])


def test_a_weight_map_rejects_a_negative_weight_and_copies_its_weights():
    with pytest.raises(ValueError, match=r"/weights/x: weight must be >= 0, got -0.5"):
        WeightMap({"ecr": 1.0, "x": -0.5})
    given = {"ecr": 1}
    weights = WeightMap(given)
    given["ecr"] = 0.5
    assert weights.weights == {"ecr": 1.0} and weights["ecr"] == 1.0
    assert weights.architecture is None


def test_version_record_duration_table_and_sweep_result_copy_their_dicts():
    metrics, entries, defaults, argmin = {"m": 1.0}, {("x", (0,)): 1.0}, {"x": 2.0}, {"d": 0.5}
    record = VersionRecord("b", "c", metrics, 1.0)
    table = DurationTable("d", "a", entries, defaults)
    result = SweepResult((), argmin)
    assert record.metrics is not metrics and table.entries is not entries
    assert table.defaults is not defaults and result.argmin_w_s is not argmin
    metrics["m"] = entries[("x", (0,))] = defaults["x"] = argmin["d"] = 9.0
    assert record.metrics == {"m": 1.0} and result.argmin_w_s == {"d": 0.5}
    assert table.entries == {("x", (0,)): 1.0} and table.defaults == {"x": 2.0}
    assert type(VersionRecord("b", "c", (("m", 1.0),), 1.0).metrics) is dict


def test_defaults_are_fresh_per_instance():
    assert DurationTable("d", "a", {}).defaults == {}
    first, second = ParseResult(None), ParseResult(None)
    assert first.diagnostics == [] and first.diagnostics is not second.diagnostics
    assert not first.ok and ParseResult(Circuit(1)).ok
    assert PairComparison("b", "a", "c", "m", None, None, None).flags == ()


@pytest.mark.parametrize("name", [n for n in RECORDS if n not in ("Circuit", "WeightMap")])
def test_a_record_is_the_tuple_of_its_field_values(name):
    """Every record but Circuit and WeightMap is a NamedTuple: it equals the
    plain tuple of its fields, and a parse result is read-only too."""
    record = RECORDS[name][0]
    assert record == tuple(getattr(record, field) for field in record._fields)
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[name], None)
