import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPEATS_TEXT, longest_path_oracle, parsed_and_built, random_circuit
from gatedepth.calibration import DurationTable
from gatedepth.ir import BARRIER, DELAY, MEASURE, UNITARY, Circuit, Gate
from gatedepth.metrics import WeightMap, gate_aware_depth
from gatedepth.runtime import UnresolvedDurationError, estimate_runtime


def table_for(circuit: Circuit, rng: random.Random, device="dev", architecture="arch"):
    """Per-location random durations covering every gate occurrence."""
    entries = {}
    for g in circuit.gates:
        if g.kind in (UNITARY, MEASURE):
            key = (g.name, g.qubits)
            if key not in entries:
                entries[key] = rng.uniform(1e-8, 1e-6)
    return DurationTable(device, architecture, entries)


def test_empty_circuit_runtime_zero():
    table = DurationTable("d", "a", {})
    assert estimate_runtime(Circuit(3), table) == 0.0


def test_single_gate_runtime():
    c = Circuit(2, (Gate("ecr", (0, 1)),))
    table = DurationTable("d", "a", {("ecr", (0, 1)): 5.33e-7})
    assert estimate_runtime(c, table) == 5.33e-7


def test_default_fallback_lookup():
    c = Circuit(2, (Gate("x", (1,)),))
    table = DurationTable("d", "a", {("x", (0,)): 1e-8}, {"x": 3e-8})
    assert estimate_runtime(c, table) == 3e-8


def test_exact_entry_precedes_default():
    c = Circuit(1, (Gate("x", (0,)),))
    table = DurationTable("d", "a", {("x", (0,)): 1e-8}, {"x": 3e-8})
    assert estimate_runtime(c, table) == 1e-8


def test_reversed_direction_errors_without_default():
    c = Circuit(2, (Gate("ecr", (1, 0)),))
    table = DurationTable("d", "a", {("ecr", (0, 1)): 5.33e-7})
    with pytest.raises(UnresolvedDurationError) as exc:
        estimate_runtime(c, table)
    assert exc.value.gate_name == "ecr"
    assert exc.value.qubits == (1, 0)
    assert exc.value.position == 0


def test_unresolved_error_names_gate_and_position():
    c = Circuit(1, (Gate("x", (0,)), Gate("sx", (0,))))
    table = DurationTable("d", "a", {("x", (0,)): 1e-8})
    with pytest.raises(UnresolvedDurationError) as exc:
        estimate_runtime(c, table)
    assert exc.value.gate_name == "sx" and exc.value.position == 1


@pytest.mark.parametrize("circuit", parsed_and_built(REPEATS_TEXT), ids=["parsed", "built"])
def test_unresolved_duration_names_the_first_gate_of_a_repeated_pair(circuit):
    """A repeated pair with no duration raises at its first gate; the
    reversed ecr, with no entry of its own and no default, raises although
    the forward ecr resolved."""
    entries = {("x", (0,)): 1e-8, ("ecr", (0, 1)): 5e-7}
    with pytest.raises(UnresolvedDurationError) as exc:
        estimate_runtime(circuit, DurationTable("d", "a", entries))
    assert (exc.value.gate_name, exc.value.qubits, exc.value.position) == ("sx", (1,), 3)
    with pytest.raises(UnresolvedDurationError) as exc:
        estimate_runtime(circuit, DurationTable("d", "a", entries, {"sx": 3e-8}))
    assert (exc.value.gate_name, exc.value.qubits, exc.value.position) == ("ecr", (1, 0), 4)
    with_reversed = {**entries, ("ecr", (1, 0)): 6e-7}
    assert estimate_runtime(circuit, DurationTable("d", "a", with_reversed, {"sx": 3e-8})) == (
        pytest.approx(1e-8 + 5e-7 + 3e-8 + 6e-7 + 3e-8 + 6e-7, rel=1e-12))


def test_delay_adds_its_duration():
    c = Circuit(1, (Gate("x", (0,)), Gate("delay", (0,), (1e-6,), DELAY), Gate("x", (0,))))
    table = DurationTable("d", "a", {("x", (0,)): 1e-8})
    assert estimate_runtime(c, table) == pytest.approx(2e-8 + 1e-6, rel=1e-12)


def test_delay_without_duration_errors():
    c = Circuit(1, (Gate("delay", (0,), (), DELAY),))
    with pytest.raises(UnresolvedDurationError):
        estimate_runtime(c, DurationTable("d", "a", {}))


@pytest.mark.parametrize("duration, reason", [
    (-1e-6, "delay duration must be >= 0, got -1e-06"),
    (math.inf, "delay duration must be finite, got inf"),
    (math.nan, "delay duration must be finite, got nan"),
])
def test_delay_duration_must_be_finite_and_nonnegative(duration, reason):
    c = Circuit(1, (Gate("delay", (0,), (duration,), DELAY), Gate("x", (0,))))
    table = DurationTable("d", "a", {("x", (0,)): 1e-8})
    with pytest.raises(UnresolvedDurationError) as exc:
        estimate_runtime(c, table)
    assert exc.value.gate_name == "delay" and exc.value.position == 0
    assert str(exc.value).endswith(f"(gate position 0): {reason}")


def test_measure_is_a_timed_instruction():
    c = Circuit(1, (Gate("measure", (0,), (), MEASURE),))
    table = DurationTable("d", "a", {}, {"measure": 1.2e-6})
    assert estimate_runtime(c, table) == 1.2e-6


def test_barrier_skip_vs_sync():
    c = Circuit(2, (
        Gate("x", (0,)), Gate("x", (0,)),
        Gate("barrier", (0, 1), (), BARRIER),
        Gate("x", (1,)),
    ))
    table = DurationTable("d", "a", {}, {"x": 1e-8})
    assert estimate_runtime(c, table) == pytest.approx(2e-8)
    assert estimate_runtime(c, table, barrier="sync") == pytest.approx(3e-8)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_runtime_matches_brute_force_oracle(seed):
    rng = random.Random(seed)
    c = random_circuit(rng, max_qubits=6, max_gates=25)
    table = table_for(c, rng)
    got = estimate_runtime(c, table)
    expected = longest_path_oracle(c, lambda g: table.entries[(g.name, g.qubits)],
                                   counted=lambda g: g.kind == UNITARY)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-18)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_proportional_durations_consistency(seed):
    # durations = W(g) * T implies runtime = gate_aware_depth * T
    rng = random.Random(seed)
    c = random_circuit(rng)
    names = {g.name for g in c.gates}
    weights = WeightMap({name: rng.uniform(0.0, 1.0) for name in names})
    scale = rng.uniform(1e-8, 1e-6)
    entries = {(g.name, g.qubits): weights[g.name] * scale for g in c.gates}
    table = DurationTable("d", "a", entries)
    got = estimate_runtime(c, table)
    expected = gate_aware_depth(c, weights) * scale
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-18)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_runtime_lower_bound_is_slowest_gate(seed):
    rng = random.Random(seed)
    c = random_circuit(rng)
    if not c.gates:
        return
    table = table_for(c, rng)
    if not table.entries:
        return
    assert estimate_runtime(c, table) >= max(table.entries.values()) - 1e-18


def test_serial_composition_additive_under_barrier_sync():
    rng = random.Random(7)
    n = 4
    def block():
        c = random_circuit(rng, max_qubits=n, max_gates=12)
        return Circuit(n, c.gates)
    c1, c2 = block(), block()
    boundary = Gate("barrier", tuple(range(n)), (), BARRIER)
    combined = Circuit(n, c1.gates + (boundary,) + c2.gates)
    entries = {}
    for c in (c1, c2):
        entries.update(table_for(c, rng).entries)
    table = DurationTable("d", "a", entries)
    total = estimate_runtime(combined, table, barrier="sync")
    assert total == pytest.approx(
        estimate_runtime(c1, table) + estimate_runtime(c2, table), rel=1e-12)
