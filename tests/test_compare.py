import dataclasses
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_circuit
from gatedepth import compare
from gatedepth.calibration import DurationTable
from gatedepth.compare import (FLAG_ZERO_DELTA_RUNTIME, FLAG_ZERO_METRIC_BASE,
                               FLAG_ZERO_RUNTIME_BASE, ZERO_FLAGS, DistributionSummary,
                               PairComparison, SweepPoint, SweepResult, VersionRecord, all_pairs,
                               identification_accuracy, identify_optimal, percent_relative_error,
                               relative_difference, summarize_distribution,
                               sweep_single_qubit_weight)
from gatedepth.ir import BARRIER, DELAY, MEASURE, Circuit, Gate, is_multi_qubit
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


# compare's overflow repro: one x gate each, C2 = a at 1e-300 s on qubit 1,
# C1 = b at the 1e300 s default
OVERFLOW_REPRO = [rec("b", "a", 1, 1e-300), rec("b", "b", 1, 1e300)]


def test_a_quotient_past_the_largest_float_is_flagged_overflow():
    """A C2 runtime of 5e-324 s: the relative runtime difference is inf. In
    the repro, (1e300 - 1e-300) / 1e-300 passes the largest float."""
    (pair,) = all_pairs([rec("b", "a", 1, 5e-324), rec("b", "b", 2, 1e-7)], "m")
    assert pair.delta_metric == 1.0
    assert pair.delta_runtime is None and pair.percent_re is None
    assert pair.flags == ("overflow",)
    (repro,) = all_pairs(OVERFLOW_REPRO, "m")
    assert (repro.delta_metric, repro.delta_runtime, repro.percent_re) == (0.0, None, None)
    assert repro.flags == ("overflow",)


def reference_all_pairs(records, metric):
    """all_pairs done the direct way: one pair at a time, with the scalar
    definitions relative_difference and percent_relative_error, each value
    reported only where it is finite, and FLAG_OVERFLOW on a pair without a
    %RE that no zero flag explains."""
    comparisons = []
    for i, j in compare._oriented_pairs([(rec.base, rec.compiler) for rec in records]):
        rec1, rec2 = records[i], records[j]
        flags = []
        delta_metric = delta_runtime = percent_re = None
        if rec2.metrics[metric] == 0:
            flags.append(FLAG_ZERO_METRIC_BASE)
        else:
            delta_metric = relative_difference(rec1.metrics[metric], rec2.metrics[metric])
        if rec2.runtime_s == 0:
            flags.append(FLAG_ZERO_RUNTIME_BASE)
        else:
            delta_runtime = relative_difference(rec1.runtime_s, rec2.runtime_s)
        if delta_metric is not None and delta_runtime is not None:
            if delta_runtime == 0:
                flags.append(FLAG_ZERO_DELTA_RUNTIME)
            else:
                percent_re = percent_relative_error(delta_metric, delta_runtime)
        delta_metric, delta_runtime, percent_re = (
            v if v is not None and math.isfinite(v) else None
            for v in (delta_metric, delta_runtime, percent_re))
        if percent_re is None and not flags:
            flags.append(compare.FLAG_OVERFLOW)
        comparisons.append(PairComparison(rec1.base, rec1.compiler, rec2.compiler, metric,
                                          delta_metric, delta_runtime, percent_re, tuple(flags)))
    return comparisons


# Records for the differential test below: a base may have one version; zero
# metric bases, zero runtimes and equal runtimes of two versions are common;
# metric values may be ints
RECORDS = st.lists(
    st.tuples(st.sampled_from(("b0", "b1", "b2")), st.sampled_from(("alpha", "beta", "gamma", "delta")),
              st.one_of(st.integers(0, 3), st.sampled_from((0.0, 0.5, 2.0)), st.floats(0, 1e6)),
              st.one_of(st.sampled_from((0, 0.0, 1e-7, 2e-7)), st.floats(0, 1e-3))),
    max_size=10, unique_by=lambda t: t[:2],
).map(lambda ts: [rec(base, compiler, value, runtime) for base, compiler, value, runtime in ts])


@given(records=RECORDS)
@settings(max_examples=300)
def test_all_pairs_equals_reference_all_pairs(records):
    """Every value, None and flag of the %RE kernel is the scalar path's.
    Compared as reprs, which tell every float apart."""
    assert repr(all_pairs(records, "m")) == repr(reference_all_pairs(records, "m"))


def numpy_all_pairs(records, metric):
    """all_pairs by the w_s grid's numpy kernel, compare._pair_errors, on
    one column of metric values: each value where it is finite, else None,
    and the flags from the C2 values and the kernel's relative runtime
    difference."""
    pairs = compare._oriented_pairs([(rec.base, rec.compiler) for rec in records])
    c1, c2 = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    values = np.array([rec.metrics[metric] for rec in records], dtype=float)[:, None]
    runtimes = np.array([rec.runtime_s for rec in records], dtype=float)
    errors = (e[:, 0].tolist() for e in compare._pair_errors(values, runtimes, c1, c2))
    comparisons = []
    for (i, j), *pair in zip(pairs, *errors):
        delta_metric, delta_runtime, percent_re = (v if math.isfinite(v) else None for v in pair)
        m2, r2 = records[j].metrics[metric], records[j].runtime_s
        flags = [flag for flag, zero in zip(ZERO_FLAGS, (m2 == 0, r2 == 0,
                                                         delta_runtime == 0 and m2 != 0)) if zero]
        if percent_re is None and not flags:
            flags.append(compare.FLAG_OVERFLOW)
        comparisons.append(PairComparison(records[i].base, records[i].compiler,
                                          records[j].compiler, metric, delta_metric,
                                          delta_runtime, percent_re, tuple(flags)))
    return comparisons


@given(records=RECORDS)
@example(records=[rec("b", "a", 0, 1e-4), rec("b", "b", 2, 2e-4)])  # zero metric base
@example(records=[rec("b", "a", 1, 0.0), rec("b", "b", 2, 1e-7)])  # zero runtime base
@example(records=[rec("b", "a", 4, 1e-4), rec("b", "b", 6, 1e-4)])  # zero runtime difference
@example(records=[rec("b", "a", 0, 0.0), rec("b", "b", 0, 0.0)])  # 0/0 twice
@example(records=OVERFLOW_REPRO)
@settings(max_examples=300)
def test_scalar_kernel_equals_the_grids_numpy_kernel(records):
    """all_pairs on Python floats gives, under ==, every value, None and
    flag that the grid's numpy kernel gives on the same records."""
    assert all_pairs(records, "m") == numpy_all_pairs(records, "m")


def test_duplicate_compiler_rejected():
    records = [rec("b", "a", 1, 1e-4), rec("b", "a", 2, 2e-4)]
    with pytest.raises(ValueError, match="duplicate compiler"):
        all_pairs(records, "m")


def test_a_repeated_compiler_id_is_rejected_by_every_analysis():
    """Keeping either 'a' would analyse a version set the input does not
    have: identification would report z the optimum of {a, z}."""
    records = [rec("b", "a", 10, 1e-4), rec("b", "a", 12, 3e-4), rec("b", "z", 11, 2e-4)]
    for analysis in (all_pairs, identify_optimal, identification_accuracy):
        with pytest.raises(ValueError, match="duplicate compiler ids for base 'b'"):
            analysis(records, "m")


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


def numpy_summary(values) -> DistributionSummary:
    """summarize_distribution by np.percentile, the reference."""
    arr = np.asarray(values, dtype=float)
    q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = tuple(float(v) for v in sorted(arr[(arr < lo) | (arr > hi)]))
    return DistributionSummary(len(arr), float(median), float(q1), float(q3), float(iqr), outliers)


# 1-60 values from 0 to 1e8; zeros and repeated values are common
SAMPLES = st.lists(st.one_of(st.floats(0, 1e8), st.sampled_from((0.0, 1.0, 37.5, 1e8))),
                   min_size=1, max_size=60)


@given(values=SAMPLES)
@example(values=[0.0])
@example(values=[0.0, 1e8])
@example(values=[5.0, 5.0, 5.0, 1e8])
@settings(max_examples=500)
def test_quartiles_equal_numpy_percentile(values):
    """The pure-Python quartiles are np.percentile's floats, and so are the
    IQR and the outliers built on them."""
    s = summarize_distribution(values)
    assert [s.q1, s.median, s.q3] == np.percentile(values, [25, 50, 75]).tolist()
    assert s == numpy_summary(values)


# --- weight sweep -------------------------------------------------------

def make_ratio_dataset(ratio: float, seed: int = 0, n_bases: int = 6):
    """Versions whose runtimes come from durations with an exact
    single/two-qubit time ratio; the sweep optimum is the ratio itself."""
    rng = random.Random(seed)
    two_q = 5e-7
    versions = []
    entries = {}
    for b in range(n_bases):
        for compiler in ("alpha", "beta", "gamma"):
            c = random_circuit(rng, max_qubits=5, max_gates=25)
            while len(c.gates) < 4 or c.num_qubits < 2:
                c = random_circuit(rng, max_qubits=5, max_gates=25)
            versions.append((f"base{b}", compiler, c))
            for g in c.gates:
                dur = two_q if len(g.qubits) >= 2 else (0.0 if g.name == "rz" else ratio * two_q)
                entries[(g.name, g.qubits)] = dur
    table = DurationTable("synth", "synth-arch", entries)
    return versions, table


@pytest.mark.parametrize("ratio", [0.1, 0.3, 0.5])
def test_sweep_recovers_duration_ratio(ratio):
    versions, table = make_ratio_dataset(ratio, seed=int(ratio * 10))
    grid = [round(0.01 * i, 2) for i in range(101)]
    result = sweep_single_qubit_weight(versions, [table], grid)
    assert abs(result.argmin_w_s["synth"] - ratio) <= 0.02


def test_sweep_grid_size():
    versions, table = make_ratio_dataset(0.3, seed=1, n_bases=2)
    grid = [round(0.01 * i, 2) for i in range(101)]
    result = sweep_single_qubit_weight(versions, [table], grid)
    assert len(result.points) == 101


def test_sweep_single_point():
    versions, table = make_ratio_dataset(0.0, seed=2, n_bases=2)
    result = sweep_single_qubit_weight(versions, [table], [0.0])
    assert len(result.points) == 1
    assert result.argmin_w_s["synth"] == 0.0
    # all single-qubit durations zero: w_s = 0 predicts perfectly
    assert result.points[0].median_percent_re == pytest.approx(0.0, abs=1e-9)


def reference_sweep(versions, tables, grid) -> SweepResult:
    """The weight sweep done the direct way: one weight map and one
    gate-aware depth per version for every (device, w_s)."""
    names = {g.name for *_, c in versions for g in c.gates}
    multiqubit = {g.name for *_, c in versions for g in c.gates if is_multi_qubit(g)}
    points, argmin = [], {}
    for table in tables:
        best = None
        for w_s in grid:
            wmap = WeightMap({name: 0.0 if name == "rz" else 1.0 if name in multiqubit else w_s
                              for name in names})
            records = [VersionRecord(base, compiler, {"gateaware": gate_aware_depth(c, wmap)},
                                     estimate_runtime(c, table))
                       for base, compiler, c in versions]
            res = [p.percent_re for p in reference_all_pairs(records, "gateaware")
                   if p.percent_re is not None]
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
    versions, fast = make_ratio_dataset(0.2, seed=3, n_bases=4)
    _, slow = make_ratio_dataset(0.6, seed=3, n_bases=4)
    tables = [fast, dataclasses.replace(slow, device="synth-slow")]
    grid = [round(0.01 * i, 2) for i in range(101)]
    assert (sweep_single_qubit_weight(versions, tables, grid)
            == reference_sweep(versions, tables, grid))


def test_sweep_builds_one_gateaware_column_per_version_per_block(monkeypatch):
    """Each version is lowered by metrics.lower under the one gate-aware
    rule, once per block of GRID_BLOCK grid values, and each is swept once
    per block; its runtime on each device is one estimate_runtime call."""
    monkeypatch.setattr(compare, "GRID_BLOCK", 40)
    calls, sweeps, runtimes = [], [], []
    lower, sweep, estimate = compare.lower, compare.sweep, compare.estimate_runtime

    def counted(c, rules, rows=None):
        calls.append((id(c), [rule.__qualname__ for rule in rules]))
        return lower(c, rules, rows)

    def counted_sweep(c, rows, barrier="skip", zero=0.0, maximum=max, add=operator.add):
        sweeps.append((id(c), np.size(zero)))
        return sweep(c, rows, barrier, zero, maximum, add)

    def counted_estimate(c, table):
        runtimes.append((id(c), table.device))
        return estimate(c, table)

    monkeypatch.setattr(compare, "lower", counted)
    monkeypatch.setattr(compare, "sweep", counted_sweep)
    monkeypatch.setattr(compare, "estimate_runtime", counted_estimate)
    versions, table = make_ratio_dataset(0.3, seed=1, n_bases=2)
    tables = [table, dataclasses.replace(table, device="other")]
    compare.sweep_single_qubit_weight(versions, tables, [round(0.01 * i, 2) for i in range(101)])
    ids = [id(c) for *_, c in versions]
    assert sorted(calls) == sorted((v, ["increment_rule.<locals>.rule"]) for v in ids * 3)
    assert sorted(sweeps) == sorted((v, width) for v in ids for width in (40, 40, 21))
    assert sorted(runtimes) == sorted((v, device) for v in ids for device in ("synth", "other"))


@pytest.mark.parametrize("w_s", [-0.5, math.inf, math.nan, "0.5", True])
def test_sweep_rejects_a_bad_grid_value(w_s):
    versions, table = make_ratio_dataset(0.3, seed=1, n_bases=2)
    with pytest.raises(ValueError, match="w_s must be"):
        sweep_single_qubit_weight(versions, [table], [0.0, w_s])


def test_sweep_without_a_defined_percent_re_names_device_and_w_s():
    c = Circuit(1, (Gate("x", (0,)),))
    versions = [("b0", "alpha", c), ("b0", "beta", c)]  # equal runtimes: dR = 0
    table = DurationTable("dev", "arch", {}, {"x": 1e-7})
    with pytest.raises(ValueError, match=r"device 'dev': .* at w_s=0.5"):
        sweep_single_qubit_weight(versions, [table], [0.5])


def test_sweep_without_versions_names_device_and_w_s():
    """No version, so no pair: the runtimes stay one row per device."""
    table = DurationTable("dev", "arch", {}, {"x": 1e-7})
    with pytest.raises(ValueError, match=r"^device 'dev': no version pair has a defined %RE "
                                         r"at w_s=0\.5$"):
        sweep_single_qubit_weight([], [table], [0.5])


def test_sweep_names_the_first_w_s_without_a_defined_percent_re():
    """alpha, the base C2 of the only pair, has no cx: depth 0 at w_s = 0 only."""
    versions = [("b0", "alpha", Circuit(1, (Gate("x", (0,)),))),
                ("b0", "beta", Circuit(2, (Gate("cx", (0, 1)),)))]
    table = DurationTable("dev", "arch", {}, {"x": 1e-7, "cx": 3e-7})
    with pytest.raises(ValueError, match=r"device 'dev': .* at w_s=0.0$"):
        sweep_single_qubit_weight(versions, [table], [0.5, 0.25, 0.0, 1.0])


# Small draws for the differential test below. Durations come from a
# four-value set with 0 in it, so zero runtimes (every gate of a version
# takes 0 s) and equal runtimes of two versions are common; a version
# without cx has gate-aware depth 0 at w_s = 0 (or at every w_s, with only
# rz and directives); a grid value may repeat and medians often tie across
# distinct w_s.
GATES = st.one_of(
    st.tuples(st.sampled_from(("x", "sx")), st.integers(0, 2)).map(lambda t: Gate(t[0], (t[1],))),
    st.integers(0, 2).map(lambda q: Gate("rz", (q,), (0.5,))),
    st.integers(0, 2).map(lambda q: Gate("measure", (q,), (), MEASURE)),
    st.integers(0, 2).map(lambda q: Gate("delay", (q,), (1e-7,), DELAY)),
    st.permutations(range(3)).map(lambda p: Gate("cx", tuple(p[:2]))),
    st.permutations(range(3)).map(lambda p: Gate("cx", tuple(p[:2]))),  # cx twice as likely
    st.just(Gate("barrier", (0, 1, 2), (), BARRIER)),
)
# (base name, compiler id, circuit) triples, unique per (base name, compiler
# id); a base name's versions need not be adjacent, and a base may have one
# version
VERSIONS = st.lists(
    st.tuples(st.sampled_from(("b0", "b1")), st.sampled_from(("alpha", "beta", "gamma", "delta")),
              st.lists(GATES, min_size=1, max_size=8).map(lambda gates: Circuit(3, tuple(gates)))),
    min_size=3, max_size=8, unique_by=lambda t: t[:2],
)
DURATIONS = st.fixed_dictionaries(
    {name: st.sampled_from((0.0, 1e-7, 2e-7, 3e-7)) for name in ("x", "sx", "rz", "measure", "cx")})


@given(versions=VERSIONS, durations=st.lists(DURATIONS, min_size=1, max_size=2),
       grid=st.lists(st.sampled_from((0.0, 0.125, 0.25, 0.5, 1.0, 2.0)), min_size=2,
                     max_size=12).map(sorted),
       block=st.integers(1, 3))
@settings(max_examples=300)
def test_array_sweep_equals_reference_sweep(versions, durations, grid, block):
    """The block-wise numpy sweep gives exactly the reference's floats and
    argmin, with blocks small enough that most grids cross a block edge,
    and fails with ValueError wherever the reference has an empty %RE
    distribution."""
    tables = [DurationTable(f"dev{i}", "arch", {}, d) for i, d in enumerate(durations)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compare, "GRID_BLOCK", block)
        try:
            expected = reference_sweep(versions, tables, grid)
        except ValueError:  # summarize_distribution: some point has no defined %RE
            with pytest.raises(ValueError, match="no version pair has a defined %RE"):
                sweep_single_qubit_weight(versions, tables, grid)
            return
        result = sweep_single_qubit_weight(versions, tables, grid)
    assert result == expected
    for table in tables:
        medians = {p.w_s: p.median_percent_re for p in result.points if p.device == table.device}
        lowest = min(medians.values())
        assert result.argmin_w_s[table.device] == min(w for w, m in medians.items() if m == lowest)


def test_array_sweep_rejects_a_duplicate_compiler_id_across_entries():
    c = Circuit(2, (Gate("cx", (0, 1)),))
    versions = [("b", "alpha", c), ("b", "alpha", c)]
    table = DurationTable("dev", "arch", {}, {"cx": 3e-7})
    with pytest.raises(ValueError, match="duplicate compiler ids for base 'b'"):
        sweep_single_qubit_weight(versions, [table], [0.0, 0.5])
