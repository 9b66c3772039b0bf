import operator
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ONE_QUBIT, REPEATS_TEXT, TWO_QUBIT, THREE_QUBIT, longest_path_oracle,
                      parsed_and_built, random_circuit)
from gatedepth.calibration import DurationTable
from gatedepth.ir import BARRIER, DELAY, MEASURE, UNITARY, Circuit, Gate, is_multi_qubit
from gatedepth.metrics import (BARRIER_SKIP, BARRIER_SYNC, MissingWeightError, WeightMap,
                               gate_aware_depth, increment_rule, lower, multiqubit_depth, sweep,
                               traditional_depth, tuple_add, tuple_max)
from gatedepth.runtime import UnresolvedDurationError, duration, estimate_runtime

REFERENCE = Circuit(3, (
    Gate("cz", (0, 1)),
    Gate("x", (0,)),
    Gate("x", (0,)),
    Gate("x", (0,)),
    Gate("x", (1,)),
    Gate("cz", (1, 2)),
))

ALL_NAMES = ONE_QUBIT + TWO_QUBIT + THREE_QUBIT


def random_weights(rng: random.Random, high: float = 1.0) -> WeightMap:
    return WeightMap({name: rng.uniform(0, high) for name in ALL_NAMES})


# --- golden values ------------------------------------------------------

def test_traditional_depth_reference():
    assert traditional_depth(REFERENCE) == 4


def test_multiqubit_depth_reference():
    assert multiqubit_depth(REFERENCE) == 2


def test_gate_aware_depth_reference():
    assert gate_aware_depth(REFERENCE, WeightMap({"cz": 1.0, "x": 0.1})) == pytest.approx(2.1, abs=0)


def test_gate_aware_degenerates_to_multiqubit():
    assert gate_aware_depth(REFERENCE, WeightMap({"cz": 1.0, "x": 0.0})) == 2.0


def test_empty_circuit():
    assert traditional_depth(Circuit(2)) == 0
    assert multiqubit_depth(Circuit(2)) == 0
    assert gate_aware_depth(Circuit(2), WeightMap({})) == 0.0


def test_single_gate():
    c = Circuit(3, (Gate("ccx", (0, 1, 2)),))
    assert traditional_depth(c) == 1


def test_single_qubit_only_circuit_has_zero_multiqubit_depth():
    c = Circuit(1, (Gate("x", (0,)), Gate("x", (0,))))
    assert multiqubit_depth(c) == 0


def test_cz_chain():
    c = Circuit(4, (Gate("cz", (0, 1)), Gate("cz", (1, 2)), Gate("cz", (2, 3))))
    assert multiqubit_depth(c) == 3


# --- directive and measurement handling ---------------------------------

def test_barrier_not_counted():
    c = Circuit(2, (Gate("x", (0,)), Gate("barrier", (0, 1), (), BARRIER), Gate("x", (0,))))
    assert traditional_depth(c) == 2


def test_barrier_skip_does_not_merge_depths():
    c = Circuit(2, (
        Gate("x", (0,)), Gate("x", (0,)),
        Gate("barrier", (0, 1), (), BARRIER),
        Gate("x", (1,)),
    ))
    assert traditional_depth(c) == 2
    assert traditional_depth(c, barrier="sync") == 3


def test_delay_not_counted_in_metrics():
    c = Circuit(1, (Gate("x", (0,)), Gate("delay", (0,), (1e-6,), DELAY), Gate("x", (0,))))
    assert traditional_depth(c) == 2
    assert gate_aware_depth(c, WeightMap({"x": 1.0})) == 2.0


def test_measure_counts_in_traditional_not_multiqubit():
    c = Circuit(1, (Gate("x", (0,)), Gate("measure", (0,), (), MEASURE)))
    assert traditional_depth(c) == 2
    assert multiqubit_depth(c) == 0


def test_measure_requires_weight():
    c = Circuit(1, (Gate("measure", (0,), (), MEASURE),))
    with pytest.raises(MissingWeightError):
        gate_aware_depth(c, WeightMap({"x": 1.0}))
    assert gate_aware_depth(c, WeightMap({"measure": 0.5})) == 0.5


def test_missing_weight_names_first_missing_gate():
    c = Circuit(2, (Gate("x", (0,)), Gate("cz", (0, 1))))
    with pytest.raises(MissingWeightError) as exc:
        gate_aware_depth(c, WeightMap({"x": 0.1}))
    assert exc.value.gate_name == "cz"
    assert exc.value.position == 1


@pytest.mark.parametrize("circuit", parsed_and_built(REPEATS_TEXT), ids=["parsed", "built"])
def test_missing_weight_names_the_first_gate_of_a_repeated_name(circuit):
    with pytest.raises(MissingWeightError) as exc:
        gate_aware_depth(circuit, WeightMap({"x": 0.1, "ecr": 1.0}))
    assert (exc.value.gate_name, exc.value.position) == ("sx", 3)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        WeightMap({"x": -0.1})


def test_weight_map_saves_names_sorted(tmp_path):
    path = tmp_path / "weights.json"
    WeightMap({"x": 0.1, "ecr": 1.0, "rz": 0.0}, "eagle").save(path)
    assert path.read_text(encoding="utf-8") == (
        '{\n  "architecture": "eagle",\n  "weights": {\n    "ecr": 1.0,\n'
        '    "rz": 0.0,\n    "x": 0.1\n  }\n}\n')
    assert WeightMap.load(path) == WeightMap({"ecr": 1.0, "rz": 0.0, "x": 0.1}, "eagle")


def test_weight_map_nested_document_is_invalid_json(tmp_path):
    path = tmp_path / "nested.json"
    path.write_bytes(b"[" * 100_000)
    with pytest.raises(ValueError, match="invalid JSON"):
        WeightMap.load(path)


# --- equivalence and bounding properties --------------------------------

@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_all_ones_equals_traditional(seed):
    c = random_circuit(random.Random(seed))
    ones = WeightMap({name: 1.0 for name in ALL_NAMES})
    assert gate_aware_depth(c, ones) == traditional_depth(c)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_multiqubit_indicator_equals_multiqubit(seed):
    c = random_circuit(random.Random(seed))
    w = WeightMap({name: 1.0 if name in TWO_QUBIT + THREE_QUBIT else 0.0 for name in ALL_NAMES})
    assert gate_aware_depth(c, w) == multiqubit_depth(c)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_bounded_by_traditional_when_weights_below_one(seed):
    rng = random.Random(seed)
    c = random_circuit(rng)
    w = random_weights(rng, high=1.0)
    assert gate_aware_depth(c, w) <= traditional_depth(c) + 1e-9


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_bounded_below_by_multiqubit_when_multiqubit_weights_are_one(seed):
    rng = random.Random(seed)
    c = random_circuit(rng)
    weights = {name: rng.uniform(0, 1) for name in ONE_QUBIT}
    weights.update({name: 1.0 for name in TWO_QUBIT + THREE_QUBIT})
    assert gate_aware_depth(c, WeightMap(weights)) >= multiqubit_depth(c) - 1e-9


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_raising_a_weight_never_decreases_depth(seed):
    rng = random.Random(seed)
    c = random_circuit(rng)
    w = random_weights(rng)
    name = rng.choice(ALL_NAMES)
    raised = dict(w.weights)
    raised[name] += rng.uniform(0, 2)
    assert gate_aware_depth(c, WeightMap(raised)) >= gate_aware_depth(c, w) - 1e-12


@given(seed=st.integers(0, 10_000), barrier=st.sampled_from((BARRIER_SKIP, BARRIER_SYNC)))
@settings(max_examples=100)
def test_sweep_matches_brute_force_oracle(seed, barrier):
    """All four sweeps against the DAG oracle on circuits with measures,
    delays and barriers. Neither the weight map nor the duration table has
    a barrier or delay entry: both are exempt from lookup."""
    rng = random.Random(seed)
    c = random_circuit(rng, directives=True)
    w = WeightMap({**random_weights(rng, high=2.0).weights, "measure": rng.uniform(0, 2)})
    table = DurationTable("dev", "arch", {}, {name: rng.uniform(0, 1e-6) for name in w.weights})

    def directives_zero(weight_of):
        return lambda g: 0.0 if g.kind in (BARRIER, DELAY) else weight_of(g)

    def duration_of(g):
        if g.kind == DELAY:
            return g.params[0]
        return 0.0 if g.kind == BARRIER else table.defaults[g.name]

    # a synchronizing barrier is a node of weight 0 that joins its qubits
    counted = (lambda g: g.kind != BARRIER) if barrier == BARRIER_SKIP else (lambda g: True)
    cases = [
        (traditional_depth(c, barrier), directives_zero(lambda g: 1.0)),
        (multiqubit_depth(c, barrier), lambda g: 1.0 if is_multi_qubit(g) else 0.0),
        (gate_aware_depth(c, w, barrier), directives_zero(lambda g: w[g.name])),
        (estimate_runtime(c, table, barrier), duration_of),
    ]
    for got, weight_of in cases:
        expected = longest_path_oracle(c, weight_of, counted)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)


def row_forms(width: int) -> list[tuple]:
    """Each row form the program sweeps at ``width`` columns, as (the row
    made from a tuple of floats, then sweep's zero, maximum and add): a
    tuple (the CLI's metrics and runtime) and a numpy row (the w_s grid) at
    any width, and a float at one column."""
    forms = [(tuple, (0.0,) * width, tuple_max, tuple_add),
             (np.array, np.zeros(width), np.maximum, np.add)]
    if width == 1:
        forms.append((lambda row: row[0], 0.0, max, operator.add))
    return forms


@given(seed=st.integers(0, 10_000), width=st.integers(1, 4),
       barrier=st.sampled_from((BARRIER_SKIP, BARRIER_SYNC)))
@settings(max_examples=100)
def test_row_sweep_equals_each_column_swept_alone(seed, width, barrier):
    """In every row form, entry k of a width-K sweep is bit-identical to the
    float sweep of column k, and equals the DAG oracle with column k as the
    weights."""
    rng = random.Random(seed)
    c = random_circuit(rng, directives=True)
    rows = [tuple(0.0 if g.kind == BARRIER else rng.uniform(0, 2) for _ in range(width))
            for g in c.gates]
    counted = (lambda g: g.kind != BARRIER) if barrier == BARRIER_SKIP else (lambda g: True)
    position = {id(g): i for i, g in enumerate(c.gates)}
    for as_row, *operations in row_forms(width):
        got = np.atleast_1d(sweep(c, [as_row(row) for row in rows], barrier, *operations))
        assert len(got) == width
        for k in range(width):
            assert got[k] == sweep(c, [row[k] for row in rows], barrier)
            expected = longest_path_oracle(c, lambda g: rows[position[id(g)]][k], counted)
            assert got[k] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_sweep_of_no_gates_gives_a_zero_per_column():
    assert sweep(Circuit(3), [], BARRIER_SKIP, (0.0,) * 3, tuple_max, tuple_add) == (0.0, 0.0, 0.0)
    assert sweep(Circuit(3), [], BARRIER_SKIP, np.zeros(3), np.maximum,
                 np.add).tolist() == [0.0, 0.0, 0.0]
    assert sweep(Circuit(3), []) == 0.0


def test_depths_kept_only_for_touched_qubits():
    """A huge declared register costs nothing unless its qubits are used."""
    c = Circuit(20_000_000, (Gate("x", (0,)),))
    tracemalloc.start()
    try:
        assert traditional_depth(c) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_concatenation_superadditive(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    c1 = random_circuit(rng, max_qubits=n)
    c2 = random_circuit(rng, max_qubits=n)
    width = max(c1.num_qubits, c2.num_qubits)
    combined = Circuit(width, c1.gates + c2.gates)
    a, b = Circuit(width, c1.gates), Circuit(width, c2.gates)
    for metric in (traditional_depth, multiqubit_depth):
        assert metric(combined) >= max(metric(a), metric(b))
    w = random_weights(rng)
    assert gate_aware_depth(combined, w) >= max(gate_aware_depth(a, w), gate_aware_depth(b, w)) - 1e-12


# --- lowering -------------------------------------------------------------

def recording_rule(calls: list, value: float):
    """A rule that gives ``value`` and records each gate it is asked for."""
    def rule(name, kind, qubits, params, position=-1):
        calls.append((name, kind, qubits, params, position))
        return value
    return rule


# two versions of one base: they share the x q[0] and cx q[0],q[1] keys
VERSIONS = (
    Circuit(2, (Gate("x", (0,)), Gate("cx", (0, 1)), Gate("x", (0,)),
                Gate("delay", (1,), (1e-7,), DELAY), Gate("barrier", (0, 1), (), BARRIER))),
    Circuit(2, (Gate("cx", (0, 1)), Gate("x", (1,)), Gate("delay", (0,), (1e-7,), DELAY),
                Gate("x", (0,)))),
)


def test_circuits_sharing_rows_ask_each_rule_once_per_distinct_key():
    """Only the failure scan passes a position, so every call here has -1."""
    first, second = [], []
    rows: dict = {}
    for c in VERSIONS:
        lower(c, [recording_rule(first, 1.0), recording_rule(second, 2.0)], rows)
    keys = [("x", UNITARY, (0,)), ("cx", UNITARY, (0, 1)), ("barrier", BARRIER, (0, 1)),
            ("x", UNITARY, (1,))]
    assert [call[:3] for call in first if call[1] != DELAY] == keys
    assert list(rows) == keys
    assert first == second
    assert {call[4] for call in first} == {-1}


def test_gates_of_one_key_get_one_row_object():
    rows: dict = {}
    a, b = (lower(c, [recording_rule([], 1.0), recording_rule([], 2.0)], rows) for c in VERSIONS)
    assert a[0] is a[2] is b[3] is rows[("x", UNITARY, (0,))]
    assert a[1] is b[0]
    assert a[0] == (1.0, 2.0)
    # under one rule a row is the rule's own value
    assert lower(VERSIONS[0], [recording_rule([], 0.5)]) == [0.5] * 5


def test_a_delays_row_is_built_per_gate_and_not_kept():
    calls: list = []
    rows: dict = {}
    c = Circuit(1, [Gate("delay", (0,), (t,), DELAY) for t in (1e-7, 2e-7, 1e-7)])
    table = DurationTable("dev", "arch", {}, {})
    got = lower(c, [recording_rule(calls, 0.0), partial(duration, table)], rows)
    assert got == [(0.0, 1e-7), (0.0, 2e-7), (0.0, 1e-7)]
    assert got[0] is not got[2]
    assert len(calls) == 3
    assert rows == {}


def test_the_first_rule_that_fails_raises_at_its_first_failing_gate():
    """The weight rule first fails at gate 3 and the duration rule at gate
    1, whose reversed cx has neither an entry nor a default: the weight
    rule comes first, so its error is raised, naming gate 3."""
    c = Circuit(2, (Gate("x", (0,)), Gate("cx", (1, 0)), Gate("x", (1,)), Gate("h", (0,)),
                    Gate("cx", (1, 0))))
    weights = increment_rule("gateaware", {"x": 0.1, "cx": 1.0})
    durations = partial(duration, DurationTable("dev", "arch", {("cx", (0, 1)): 3e-7},
                                                {"x": 1e-7, "h": 1e-7}))
    with pytest.raises(MissingWeightError) as missing:
        lower(c, [weights, durations])
    assert (missing.value.gate_name, missing.value.position) == ("h", 3)
    with pytest.raises(UnresolvedDurationError) as unresolved:
        lower(c, [durations, weights])
    assert (unresolved.value.gate_name, unresolved.value.position) == ("cx", 1)
