import json
import math
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatedepth
from conftest import (ONE_QUBIT, REPEATS_TEXT, TWO_QUBIT, THREE_QUBIT, longest_path_oracle,
                      parsed_and_built, random_circuit)
from gatedepth.calibration import DurationTable
from gatedepth.ir import BARRIER, DELAY, MEASURE, UNITARY, Circuit, Gate, is_multi_qubit, multi_qubit
from gatedepth.metrics import (BARRIER_SKIP, BARRIER_SYNC, MissingWeightError, WeightMap,
                               gate_aware_depth, increment_rule, lower, metric_weights,
                               multiqubit_depth, row_ops, sweep, traditional_depth)
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


@pytest.mark.parametrize("document, loaded", [
    ({"architecture": "eagle"}, "eagle"), ({"architecture": ""}, None),
    ({"architecture": None}, None), ({}, None)])
def test_weight_map_architecture_is_a_string_or_null(document, loaded, tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({**document, "weights": {"x": 0.5}}))
    assert WeightMap.load(path).architecture == loaded


@pytest.mark.parametrize("architecture, message", [
    ([1], "/architecture: must be a string or null"),
    (1, "/architecture: must be a string or null"),
    ({}, "/architecture: must be a string or null"),
    ("a\ud800", "/architecture: architecture 'a\\ud800' is not UTF-8 text: "
                "a lone surrogate at character 1"),
])
def test_weight_map_architecture_of_another_type_is_rejected(architecture, message, tmp_path):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"architecture": architecture, "weights": {"x": 0.5}}))
    with pytest.raises(ValueError) as err:
        WeightMap.load(path)
    assert err.value.args == (message,)


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


def tuple_max(a: tuple, b: tuple) -> tuple:
    """The reference max of two tuple rows, entry by entry, as ``max(x, y)``
    takes it: x unless y > x."""
    return tuple([y if y > x else x for x, y in zip(a, b)])


def tuple_add(a: tuple, b: tuple) -> tuple:
    """The reference sum of two tuple rows, entry by entry, as ``+`` of two floats."""
    return tuple(map(operator.add, a, b))


def reference_ops(width: int) -> tuple:
    """The zero, max and ``+`` that ``row_ops(width)`` stands in for:
    builtin ``max`` and ``operator.add`` on floats, the generic tuple forms
    on wider rows."""
    if width == 1:
        return 0.0, max, operator.add
    return (0.0,) * width, tuple_max, tuple_add


def row_forms(width: int) -> list[tuple]:
    """Each row form the program sweeps at ``width`` columns, as (the row
    made from a tuple of floats, then sweep's zero, maximum and add): a
    float at one column and a tuple at more under ``row_ops`` (the CLI's
    metrics and runtime), a numpy row (the w_s grid), and the reference
    tuple form, at any width."""
    return [(tuple if width > 1 else (lambda row: row[0]), *row_ops(width)),
            (np.array, np.zeros(width), np.maximum, np.add),
            (tuple, (0.0,) * width, tuple_max, tuple_add)]


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
    assert sweep(Circuit(3), [], BARRIER_SKIP, *row_ops(3)) == (0.0, 0.0, 0.0)
    assert sweep(Circuit(3), [], BARRIER_SKIP, (0.0,) * 3, tuple_max, tuple_add) == (0.0, 0.0, 0.0)
    assert sweep(Circuit(3), [], BARRIER_SKIP, np.zeros(3), np.maximum,
                 np.add).tolist() == [0.0, 0.0, 0.0]
    assert sweep(Circuit(3), []) == 0.0


# row entries where max and + are easy to get wrong: signed zeros that tie,
# the least subnormal, sums that overflow to inf, and inf itself
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1.0, 1e308, math.inf)
ENTRIES = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(min_value=0.0, allow_nan=False))


def identical(a, b) -> bool:
    """``a == b``, and the same floats bit for bit (``repr`` tells -0.0 from 0.0)."""
    return a == b and repr(a) == repr(b)


@given(width=st.integers(1, 6), data=st.data())
@settings(max_examples=300)
def test_row_ops_equal_the_reference_max_and_add(width, data):
    """Each width's generated max and + give what the reference forms give,
    in either operand order, ties (drawn entries copied from the other row)
    included."""
    row = st.lists(ENTRIES, min_size=width, max_size=width)
    a, b = data.draw(row), data.draw(row)
    ties = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
    b = [x if tie else y for x, y, tie in zip(a, b, ties)]
    a, b = (a[0], b[0]) if width == 1 else (tuple(a), tuple(b))
    ops, reference = row_ops(width), reference_ops(width)
    assert identical(ops[0], reference[0])
    for x, y in ((a, b), (b, a)):
        for op, reference_op in zip(ops[1:], reference[1:]):
            assert identical(op(x, y), reference_op(x, y))


@given(seed=st.integers(0, 10_000), width=st.integers(1, 6),
       barrier=st.sampled_from((BARRIER_SKIP, BARRIER_SYNC)))
@settings(max_examples=200)
def test_sweep_under_row_ops_equals_the_reference_sweep(seed, width, barrier):
    """A sweep under row_ops(width), and at width 1 under sweep's defaults,
    is bit-identical to the sweep under the reference ops, on rows rich in
    ties and edge floats."""
    rng = random.Random(seed)
    c = random_circuit(rng, directives=True)
    rows = [tuple(rng.choice(EDGE_FLOATS) if rng.random() < 0.5 else rng.uniform(0, 2)
                  for _ in range(width)) for _ in c.gates]
    if width == 1:
        rows = [row[0] for row in rows]
    expected = sweep(c, rows, barrier, *reference_ops(width))
    assert identical(sweep(c, rows, barrier, *row_ops(width)), expected)
    if width == 1:
        assert identical(sweep(c, rows, barrier), expected)


# exits with the number of row widths whose ops were asked for: 0 if
# importing the CLI generates no kernel
IMPORT_CLI = """import sys
import gatedepth.cli
from gatedepth.metrics import row_ops
sys.exit(row_ops.cache_info().currsize)
"""


def test_importing_the_cli_generates_no_kernel_and_each_width_once():
    """Kernels cost no start-up: they are generated when a sweep first asks
    for a width, and once per width."""
    env = {**os.environ, "PYTHONPATH": str(Path(gatedepth.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_CLI], env=env, capture_output=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    for width in range(1, 7):
        assert row_ops(width) is row_ops(width)


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
    weights = increment_rule({"x": 0.1, "cx": 1.0})
    durations = partial(duration, DurationTable("dev", "arch", {("cx", (0, 1)): 3e-7},
                                                {"x": 1e-7, "h": 1e-7}))
    with pytest.raises(MissingWeightError) as missing:
        lower(c, [weights, durations])
    assert (missing.value.gate_name, missing.value.position) == ("h", 3)
    with pytest.raises(UnresolvedDurationError) as unresolved:
        lower(c, [durations, weights])
    assert (unresolved.value.gate_name, unresolved.value.position) == ("cx", 1)


# --- one rule: every metric is a weight map -------------------------------

def reference_rule(metric: str, weights=None):
    """The rule of ``metric`` as the program gave it before every metric
    became a weight map, kept as the reference: traditional depth counts 1
    per unitary or measure, multi-qubit depth 1 per gate that is itself a
    unitary on two or more qubits, and gate-aware depth takes
    ``weights[name]``; barriers and delays add 0."""
    if metric == "traditional":
        return lambda name, kind, qubits, *_: 0.0 if kind in (BARRIER, DELAY) else 1.0
    if metric == "multiqubit":
        return lambda name, kind, qubits, *_: 1.0 if multi_qubit(kind, qubits) else 0.0

    def gate_aware(name, kind, qubits, params, position=-1):
        if kind in (BARRIER, DELAY):
            return 0.0
        try:
            return weights[name]
        except KeyError:
            raise MissingWeightError(name, position) from None
    return gate_aware


@given(seed=st.integers(0, 10_000), barrier=st.sampled_from((BARRIER_SKIP, BARRIER_SYNC)),
       metrics=st.lists(st.sampled_from(("traditional", "multiqubit", "gateaware")), min_size=1,
                        max_size=4),
       count=st.integers(1, 3))
@settings(max_examples=200)
def test_weight_maps_equal_the_reference_rules(seed, barrier, metrics, count):
    """Under its metric_weights map the one rule gives every gate the row
    the metric's reference rule gives, under ==, at one rule and at
    several: each circuit alone, and circuits that share one row table, as
    the versions of one base do. The sweeps and the public depth functions
    then equal the reference too. A name of random_circuit fixes its arity,
    as a parsed name does."""
    rng = random.Random(seed)
    circuits = [random_circuit(rng, directives=True) for _ in range(count)]
    weights = {**random_weights(rng, high=2.0).weights, "measure": rng.uniform(0, 2)}
    maps = metric_weights(circuits, weights)
    rules = [increment_rule(maps[m]) for m in metrics]
    references = [reference_rule(m, weights) for m in metrics]
    rows: dict = {}
    reference_rows: dict = {}
    operations = () if len(metrics) == 1 else ((0.0,) * len(metrics), tuple_max, tuple_add)
    for c in circuits:
        got = lower(c, rules, rows)
        expected = lower(c, references, reference_rows)
        assert got == expected == lower(c, rules)
        assert sweep(c, got, barrier, *operations) == sweep(c, expected, barrier, *operations)
        alone = {"traditional": traditional_depth(c, barrier), "multiqubit": multiqubit_depth(c, barrier),
                 "gateaware": gate_aware_depth(c, WeightMap(weights), barrier)}
        for metric in metrics:
            reference = sweep(c, lower(c, [reference_rule(metric, weights)]), barrier)
            assert alone[metric] == (reference if metric == "gateaware" else int(round(reference)))


def test_the_maps_of_a_circuit_name_each_of_its_gates():
    """Every name of the circuits gets an entry in the traditional and
    multi-qubit maps, directives' names too (the rule gives barriers and
    delays 0 before it looks): a barrier over two qubits is not a
    multi-qubit unitary, nor is a measure. Gate-aware depth's map is the
    weights given, as they are."""
    c = Circuit(3, (Gate("x", (0,)), Gate("cx", (0, 1)), Gate("barrier", (0, 1, 2), (), BARRIER),
                    Gate("measure", (2,), (), MEASURE), Gate("delay", (1,), (1e-7,), DELAY),
                    Gate("ccx", (0, 1, 2))))
    weights = {"x": 0.5}
    maps = metric_weights([c, Circuit(1, (Gate("sx", (0,)),))], weights)
    assert maps["traditional"] == dict.fromkeys(["x", "cx", "barrier", "measure", "delay", "ccx", "sx"],
                                                1.0)
    assert maps["multiqubit"] == {"x": 0.0, "cx": 1.0, "barrier": 0.0, "measure": 0.0, "delay": 0.0,
                                  "ccx": 1.0, "sx": 0.0}
    assert maps["gateaware"] is weights
    assert metric_weights([]) == {"traditional": {}, "multiqubit": {}, "gateaware": None}


def test_a_name_is_what_its_first_gate_in_the_circuits_is():
    """A name that built code applies to one qubit and to two is multi-qubit
    if its first gate, in circuit order and then gate order, is."""
    one, two = Circuit(2, (Gate("g", (0,)),)), Circuit(2, (Gate("g", (0, 1)), Gate("g", (1,))))
    assert metric_weights([one, two])["multiqubit"] == {"g": 0.0}
    assert metric_weights([two, one])["multiqubit"] == {"g": 1.0}
    assert metric_weights([two])["traditional"] == {"g": 1.0}
