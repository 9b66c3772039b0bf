import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_circuit
from gatedepth import compare
from gatedepth.calibration import DurationTable
from gatedepth.compare import (FLAG_ZERO_DELTA_RUNTIME, SweepPoint, SweepResult,
                               VersionRecord, all_pairs, identification_accuracy,
                               identify_optimal, percent_relative_error,
                               relative_difference, summarize_distribution,
                               sweep_single_qubit_weight)
from gatedepth.ir import Circuit, Gate, is_multi_qubit
from gatedepth.metrics import WeightMap, gate_aware_depth
from gatedepth.runtime import estimate_runtime


def rec(base, compiler, value, runtime, metric="m"):
    return VersionRecord(base, compiler, {metric: value}, runtime)


# --- relative_difference ------------------------------------------------

def test_relative_difference_zero():
    assert relative_difference(4, 4) == 0.0


def test_relative_difference_increase():
    assert relative_difference(6, 4) == 0.5


def test_relative_difference_sign():
    assert relative_difference(3, 4) == -0.25


def test_relative_difference_zero_base():
    with pytest.raises(ZeroDivisionError):
        relative_difference(1, 0)


@given(a=st.floats(0.1, 1e6), b=st.floats(0.1, 1e6))
@settings(max_examples=100)
def test_relative_difference_antisymmetry(a, b):
    d_ab = relative_difference(a, b)
    d_ba = relative_difference(b, a)
    assert (1 + d_ab) * (1 + d_ba) == pytest.approx(1.0, rel=1e-9)


# --- percent_relative_error ---------------------------------------------

def test_percent_re_perfect_prediction():
    assert percent_relative_error(0.3, 0.3) == 0.0


def test_percent_re_opposite_signs():
    assert percent_relative_error(-0.1, 0.1) == pytest.approx(200.0)


def test_percent_re_direct_value():
    assert percent_relative_error(0.115, 0.1) == pytest.approx(15.0)


def test_percent_re_zero_runtime_difference():
    with pytest.raises(ZeroDivisionError):
        percent_relative_error(0.1, 0.0)


@given(dD=st.floats(1e-6, 1e3), dR=st.floats(1e-6, 1e3))
@settings(max_examples=200)
def test_percent_re_sign_property(dD, dR):
    # opposite signs always give at least 100%
    assert percent_relative_error(-dD, dR) >= 100.0
    assert percent_relative_error(dD, -dR) >= 100.0


# --- all_pairs ----------------------------------------------------------

def test_four_versions_give_six_pairs():
    records = [rec("b", c, i + 1, (i + 1) * 1e-4) for i, c in enumerate("wxyz")]
    assert len(all_pairs(records, "m")) == 6


def test_fifteen_by_three_gives_45():
    records = [rec(f"b{i}", c, j + 1, (j + 1) * 1e-4)
               for i in range(15) for j, c in enumerate("xyz")]
    assert len(all_pairs(records, "m")) == 45


def test_fifteen_by_four_gives_90():
    records = [rec(f"b{i}", c, j + 1, (j + 1) * 1e-4)
               for i in range(15) for j, c in enumerate("wxyz")]
    assert len(all_pairs(records, "m")) == 90


def test_single_version_yields_no_pairs():
    assert all_pairs([rec("b", "only", 1, 1e-4)], "m") == []


def test_orientation_smaller_compiler_is_denominator():
    records = [rec("b", "zeta", 6, 3e-4), rec("b", "alpha", 4, 2e-4)]
    (pair,) = all_pairs(records, "m")
    assert (pair.compiler_a, pair.compiler_b) == ("zeta", "alpha")
    assert pair.delta_metric == pytest.approx(0.5)
    assert pair.delta_runtime == pytest.approx(0.5)
    assert pair.percent_re == pytest.approx(0.0)


def test_zero_delta_runtime_flagged():
    records = [rec("b", "a", 4, 1e-4), rec("b", "b", 6, 1e-4)]
    (pair,) = all_pairs(records, "m")
    assert pair.percent_re is None
    assert FLAG_ZERO_DELTA_RUNTIME in pair.flags


def test_zero_metric_base_flagged():
    records = [rec("b", "a", 0, 1e-4), rec("b", "b", 2, 2e-4)]
    (pair,) = all_pairs(records, "m")
    assert pair.delta_metric is None and pair.percent_re is None


def test_duplicate_compiler_rejected():
    records = [rec("b", "a", 1, 1e-4), rec("b", "a", 2, 2e-4)]
    with pytest.raises(ValueError, match="duplicate compiler"):
        all_pairs(records, "m")


def test_perfect_metric_fixpoint():
    # metric exactly proportional to runtime: every %RE is 0, every id correct
    rng = random.Random(3)
    records = []
    for i in range(6):
        for c in "abcd":
            runtime = rng.uniform(1e-5, 1e-3)
            records.append(rec(f"b{i}", c, runtime * 1e4, runtime))
    pairs = all_pairs(records, "m")
    assert all(p.percent_re == pytest.approx(0.0, abs=1e-9) for p in pairs)
    accuracy, _ = identification_accuracy(records, "m")
    assert accuracy == 100.0


# --- identify_optimal ---------------------------------------------------

def test_identify_singleton_match():
    records = [rec("b", "A", 10, 1e-4), rec("b", "B", 12, 2e-4)]
    res = identify_optimal(records, "m")
    assert res.correct
    assert res.metric_argmin == ("A",) and res.runtime_argmin == ("A",)


def test_identify_asymmetric_tie_is_incorrect():
    records = [rec("b", "A", 10, 1e-4), rec("b", "B", 10, 2e-4), rec("b", "C", 12, 3e-4)]
    res = identify_optimal(records, "m")
    assert not res.correct
    assert res.metric_argmin == ("A", "B") and res.runtime_argmin == ("A",)


def test_identify_symmetric_tie_is_correct():
    records = [rec("b", "A", 10, 1e-4), rec("b", "B", 10, 1e-4)]
    res = identify_optimal(records, "m")
    assert res.correct
    assert res.metric_argmin == res.runtime_argmin == ("A", "B")


def test_identify_metric_tie_tolerance():
    # within 1e-9 relative counts as tied
    records = [rec("b", "A", 10.0, 1e-4), rec("b", "B", 10.0 * (1 + 1e-12), 2e-4)]
    res = identify_optimal(records, "m")
    assert res.metric_argmin == ("A", "B")


def test_identify_runtime_tie_tolerance():
    records = [rec("b", "A", 10, 1.0e-4), rec("b", "B", 12, 1.0e-4 + 1e-13)]
    res = identify_optimal(records, "m")
    assert res.runtime_argmin == ("A", "B")


def test_identify_requires_two_versions():
    with pytest.raises(ValueError):
        identify_optimal([rec("b", "A", 1, 1e-4)], "m")


# --- summarize_distribution ---------------------------------------------

def test_summary_singleton():
    s = summarize_distribution([5])
    assert (s.median, s.q1, s.q3, s.iqr) == (5, 5, 5, 0)
    assert s.outliers == ()


def test_summary_four_values():
    s = summarize_distribution([1, 2, 3, 4])
    assert s.median == 2.5
    assert s.q1 == pytest.approx(1.75)
    assert s.q3 == pytest.approx(3.25)


def test_summary_outliers():
    s = summarize_distribution([1, 2, 3, 4, 100])
    assert s.outliers == (100,)


def test_summary_order_invariants():
    rng = random.Random(5)
    values = [rng.expovariate(1.0) for _ in range(137)]
    s = summarize_distribution(values)
    assert s.q1 <= s.median <= s.q3
    assert s.n == 137


def test_summary_uniform_median_near_half():
    rng = random.Random(11)
    s = summarize_distribution([rng.random() for _ in range(1000)])
    assert abs(s.median - 0.5) < 0.05


def test_summary_empty_rejected():
    with pytest.raises(ValueError):
        summarize_distribution([])


# --- weight sweep -------------------------------------------------------

def make_ratio_dataset(ratio: float, seed: int = 0, n_bases: int = 6):
    """Versions whose runtimes come from durations with an exact
    single/two-qubit time ratio; the sweep optimum is the ratio itself."""
    rng = random.Random(seed)
    two_q = 5e-7
    bases = []
    entries = {}
    for b in range(n_bases):
        versions = []
        for compiler in ("alpha", "beta", "gamma"):
            c = random_circuit(rng, max_qubits=5, max_gates=25)
            while len(c.gates) < 4 or c.num_qubits < 2:
                c = random_circuit(rng, max_qubits=5, max_gates=25)
            versions.append((compiler, c))
            for g in c.gates:
                dur = two_q if len(g.qubits) >= 2 else (0.0 if g.name == "rz" else ratio * two_q)
                entries[(g.name, g.qubits)] = dur
        bases.append((f"base{b}", versions))
    table = DurationTable("synth", "synth-arch", entries)
    return bases, table


@pytest.mark.parametrize("ratio", [0.1, 0.3, 0.5])
def test_sweep_recovers_duration_ratio(ratio):
    bases, table = make_ratio_dataset(ratio, seed=int(ratio * 10))
    grid = [round(0.01 * i, 2) for i in range(101)]
    result = sweep_single_qubit_weight(bases, [table], grid)
    assert abs(result.argmin_w_s["synth"] - ratio) <= 0.02


def test_sweep_grid_size():
    bases, table = make_ratio_dataset(0.3, seed=1, n_bases=2)
    grid = [round(0.01 * i, 2) for i in range(101)]
    result = sweep_single_qubit_weight(bases, [table], grid)
    assert len(result.points) == 101


def test_sweep_single_point():
    bases, table = make_ratio_dataset(0.0, seed=2, n_bases=2)
    result = sweep_single_qubit_weight(bases, [table], [0.0])
    assert len(result.points) == 1
    assert result.argmin_w_s["synth"] == 0.0
    # all single-qubit durations zero: w_s = 0 predicts perfectly
    assert result.points[0].median_percent_re == pytest.approx(0.0, abs=1e-9)


def reference_sweep(bases, tables, grid) -> SweepResult:
    """The weight sweep done the direct way: one weight map and one
    gate-aware depth per version for every (device, w_s)."""
    names = {g.name for _, versions in bases for _, c in versions for g in c.gates}
    multiqubit = {g.name for _, versions in bases for _, c in versions for g in c.gates
                  if is_multi_qubit(g)}
    points, argmin = [], {}
    for table in tables:
        best = None
        for w_s in grid:
            wmap = WeightMap({name: 0.0 if name == "rz" else 1.0 if name in multiqubit else w_s
                              for name in names})
            records = [VersionRecord(base, compiler, {"gateaware": gate_aware_depth(c, wmap)},
                                     estimate_runtime(c, table))
                       for base, versions in bases for compiler, c in versions]
            res = [p.percent_re for p in all_pairs(records, "gateaware") if p.percent_re is not None]
            median = summarize_distribution(res).median
            points.append(SweepPoint(w_s, table.device, median))
            if best is None or median < best[0]:
                best = (median, w_s)
        argmin[table.device] = best[1]
    return SweepResult(tuple(points), argmin)


def test_sweep_equals_one_weight_map_per_point(monkeypatch):
    """Blocked sweeping changes no float: 101 points in blocks of 7 cross
    fifteen block edges, over two devices."""
    monkeypatch.setattr(compare, "GRID_BLOCK", 7)
    bases, fast = make_ratio_dataset(0.2, seed=3, n_bases=4)
    _, slow = make_ratio_dataset(0.6, seed=3, n_bases=4)
    tables = [fast, dataclasses.replace(slow, device="synth-slow")]
    grid = [round(0.01 * i, 2) for i in range(101)]
    assert sweep_single_qubit_weight(bases, tables, grid) == reference_sweep(bases, tables, grid)


@pytest.mark.parametrize("w_s", [-0.5, math.inf, math.nan, "0.5", True])
def test_sweep_rejects_a_bad_grid_value(w_s):
    bases, table = make_ratio_dataset(0.3, seed=1, n_bases=2)
    with pytest.raises(ValueError, match="w_s must be"):
        sweep_single_qubit_weight(bases, [table], [0.0, w_s])


def test_sweep_without_a_defined_percent_re_names_device_and_w_s():
    c = Circuit(1, (Gate("x", (0,)),))
    bases = [("b0", [("alpha", c), ("beta", c)])]  # equal runtimes: dR = 0
    table = DurationTable("dev", "arch", {}, {"x": 1e-7})
    with pytest.raises(ValueError, match=r"device 'dev': .* at w_s=0.5"):
        sweep_single_qubit_weight(bases, [table], [0.5])
