"""Accuracy harness for comparing depth metrics against true runtimes.

Given several compiled versions of each base circuit, this module computes
relative-difference predictions and their percent relative error (%RE) for
every version pair, checks whether each metric picks out the
runtime-optimal version(s), summarizes %RE distributions, and sweeps the
single-qubit weight of a parameterized weight map over a grid. Only the
grid sweep imports numpy; every other analysis runs on Python floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .calibration import DurationTable
from .ir import Circuit
from .metrics import increment_rule, lower, metric_weights, nonnegative_number, sweep
from .runtime import UnresolvedDurationError, estimate_runtime
# not called here: bench/tracing.py wraps this name in this module
from .metrics import gate_aware_depth  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

# argmin tie tolerances: depths are exact sums of a few doubles, runtimes
# can differ by float noise around 1e-16 s
METRIC_REL_TOL = 1e-9
RUNTIME_ABS_TOL = 1e-12

FLAG_ZERO_DELTA_RUNTIME = "zero_delta_runtime"
FLAG_ZERO_METRIC_BASE = "zero_metric_base"
FLAG_ZERO_RUNTIME_BASE = "zero_runtime_base"
# each leaves a pair's %RE undefined; a pair's flags are listed in this order
ZERO_FLAGS = (FLAG_ZERO_METRIC_BASE, FLAG_ZERO_RUNTIME_BASE, FLAG_ZERO_DELTA_RUNTIME)
# an undefined %RE without a zero flag: a quotient past the largest float
FLAG_OVERFLOW = "overflow"

# most grid values one weight-sweep pass carries; bounds the per-qubit rows
GRID_BLOCK = 256


@dataclass(frozen=True)
class VersionRecord:
    """One compiled version of a base circuit with its metric values."""

    base: str
    compiler: str
    metrics: Mapping[str, float]
    runtime_s: float

    def __post_init__(self):
        object.__setattr__(self, "metrics", dict(self.metrics))


def relative_difference(a: float, b: float) -> float:
    """(a - b) / b, the relative change of ``a`` with respect to base ``b``."""
    if b == 0:
        raise ZeroDivisionError("relative difference undefined for zero base value")
    return (a - b) / b


def percent_relative_error(delta_metric: float, delta_runtime: float) -> float:
    """|dD - dR| / |dR| * 100; at least 100 whenever the signs differ."""
    if delta_runtime == 0:
        raise ZeroDivisionError("%RE undefined for zero runtime difference")
    return abs(delta_metric - delta_runtime) / abs(delta_runtime) * 100.0


@dataclass(frozen=True)
class PairComparison:
    """One pairwise prediction: compiler_a is C1, compiler_b the base C2."""

    base: str
    compiler_a: str
    compiler_b: str
    metric: str
    delta_metric: float | None
    delta_runtime: float | None
    percent_re: float | None
    flags: tuple[str, ...] = ()


def _versions_by_base(keys: Sequence[tuple[str, str]]) -> dict[str, dict[str, int]]:
    """Per base name, in order of first appearance, each compiler id's index
    into ``keys``; a compiler id repeated within a base raises ``ValueError``."""
    groups: dict[str, list[tuple[str, int]]] = {}
    for i, (base, compiler) in enumerate(keys):
        groups.setdefault(base, []).append((compiler, i))
    for base, group in groups.items():
        if len(dict(group)) != len(group):
            raise ValueError(f"duplicate compiler ids for base {base!r}")
    return {base: dict(group) for base, group in groups.items()}


def _oriented_pairs(keys: Sequence[tuple[str, str]]) -> list[tuple[int, int]]:
    """The indices (C1, C2) into ``keys`` of each unordered compiler pair of
    each base name, bases in order of first appearance, the
    lexicographically smaller compiler id as C2."""
    pairs = []
    for by_compiler in _versions_by_base(keys).values():
        compilers = sorted(by_compiler)
        for i, c2 in enumerate(compilers):
            pairs.extend((by_compiler[c1], by_compiler[c2]) for c1 in compilers[i + 1:])
    return pairs


def _divide(a: float, b: float) -> float:
    """``a / b`` of two floats as numpy gives it, with no exception: a zero
    ``b`` gives nan where ``a`` is 0 or nan, else inf of the quotient's
    sign. CPython's ``/`` already gives inf for a quotient past the largest
    float."""
    if b == 0:
        if a == 0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _pair_errors(values: np.ndarray, runtimes: np.ndarray, c1: np.ndarray, c2: np.ndarray):
    """The %RE of each version pair (C1, C2) = (``c1[k]``, ``c2[k]``) for each
    column of ``values`` (versions x columns), against ``runtimes`` (one per
    version): the relative metric differences, the relative runtime
    differences and the %REs, each pairs x columns. A value is defined where
    it is finite: a zero base, a zero runtime difference or a quotient past
    the largest float leaves it inf or nan. This is the w_s grid's kernel;
    :func:`all_pairs` takes the same float operations on one pair at a
    time."""
    import numpy as np

    m1, m2, r1, r2 = values[c1], values[c2], runtimes[c1, None], runtimes[c2, None]
    with np.errstate(all="ignore"):  # a zero base, or an overflow, as Python floats give it
        delta_metric = (m1 - m2) / m2
        delta_runtime = np.broadcast_to((r1 - r2) / r2, m2.shape)
        percent_re = np.abs(delta_metric - delta_runtime) / np.abs(delta_runtime) * 100.0
    return delta_metric, delta_runtime, percent_re


def all_pairs(records: Sequence[VersionRecord], metric: str) -> list[PairComparison]:
    """One comparison per unordered compiler pair per base circuit.

    Orientation is deterministic: the lexicographically smaller compiler id
    is the denominator C2. A base with k versions yields k*(k-1)/2 pairs.
    Each value takes the float operations of :func:`_pair_errors`, the
    grid's kernel. A value that is not finite is None; a pair without a %RE
    is flagged with each zero flag that applies, or else ``FLAG_OVERFLOW``."""
    comparisons = []
    for i, j in _oriented_pairs([(rec.base, rec.compiler) for rec in records]):
        rec1, rec2 = records[i], records[j]
        m2, r2 = float(rec2.metrics[metric]), float(rec2.runtime_s)
        delta_metric = _divide(float(rec1.metrics[metric]) - m2, m2)
        delta_runtime = _divide(float(rec1.runtime_s) - r2, r2)
        percent_re = _divide(abs(delta_metric - delta_runtime), abs(delta_runtime)) * 100.0
        delta_metric, delta_runtime, percent_re = (
            v if math.isfinite(v) else None for v in (delta_metric, delta_runtime, percent_re))
        flags = (tuple(compress(ZERO_FLAGS, (m2 == 0, r2 == 0, delta_runtime == 0 and m2 != 0)))
                 or ((FLAG_OVERFLOW,) if percent_re is None else ()))
        comparisons.append(PairComparison(rec1.base, rec1.compiler, rec2.compiler, metric,
                                          delta_metric, delta_runtime, percent_re, flags))
    return comparisons


@dataclass(frozen=True)
class IdentificationResult:
    base: str
    metric: str
    correct: bool
    metric_argmin: tuple[str, ...]
    runtime_argmin: tuple[str, ...]


def _argmin_set(values: Mapping[str, float], rel_tol: float, abs_tol: float) -> tuple[str, ...]:
    lowest = min(values.values())
    tied = [
        key for key, v in values.items()
        if v - lowest <= abs_tol or (lowest != 0 and (v - lowest) / abs(lowest) <= rel_tol)
    ]
    return tuple(sorted(tied))


def identify_optimal(records: Sequence[VersionRecord], metric: str) -> IdentificationResult:
    """Check whether the metric's argmin set equals the runtime argmin set.

    Ties that enlarge the metric argmin set beyond the runtime argmin set
    count as incorrect; a symmetric tie on both sides is correct.
    """
    if len(records) < 2:
        raise ValueError("identification needs at least two versions")
    groups = _versions_by_base([(rec.base, rec.compiler) for rec in records])
    if len(groups) != 1:
        raise ValueError(f"records span multiple base circuits: {sorted(groups)}")
    [(base, by_compiler)] = groups.items()
    metric_values = {c: records[i].metrics[metric] for c, i in by_compiler.items()}
    runtimes = {c: records[i].runtime_s for c, i in by_compiler.items()}
    metric_argmin = _argmin_set(metric_values, METRIC_REL_TOL, 0.0)
    runtime_argmin = _argmin_set(runtimes, 0.0, RUNTIME_ABS_TOL)
    return IdentificationResult(
        base=base,
        metric=metric,
        correct=metric_argmin == runtime_argmin,
        metric_argmin=metric_argmin,
        runtime_argmin=runtime_argmin,
    )


def identification_accuracy(records: Sequence[VersionRecord], metric: str) -> tuple[float, list[IdentificationResult]]:
    """Percentage of base circuits whose runtime-optimal set is identified."""
    groups = _versions_by_base([(rec.base, rec.compiler) for rec in records])
    results = [identify_optimal([records[i] for i in by_compiler.values()], metric)
               for by_compiler in groups.values() if len(by_compiler) >= 2]
    if not results:
        raise ValueError("no base circuit has two or more versions")
    accuracy = 100.0 * sum(r.correct for r in results) / len(results)
    return accuracy, results


@dataclass(frozen=True)
class DistributionSummary:
    """Boxplot-style summary: quartiles by linear interpolation, Tukey fences."""

    n: int
    median: float
    q1: float
    q3: float
    iqr: float
    outliers: tuple[float, ...]


def _percentile(ordered: Sequence[float], q: float) -> float:
    """``np.percentile(ordered, q)`` of the ascending ``ordered``, in the same
    float operations: the index (n - 1) * (q / 100) falls between two order
    statistics a and b at fraction t, and the value is numpy's ``_lerp``,
    a + (b - a) * t, or b - (b - a) * (1 - t) where t >= 0.5."""
    last = len(ordered) - 1
    index = last * (q / 100)
    i = min(math.floor(index), last)
    a, b = ordered[i], ordered[min(i + 1, last)]
    t = index - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def summarize_distribution(values: Sequence[float]) -> DistributionSummary:
    """Median/quartiles via linear interpolation between order statistics,
    each the float ``np.percentile`` gives; outliers are values beyond the
    1.5*IQR fences."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty distribution")
    ordered = sorted(map(float, values))
    q1, median, q3 = (_percentile(ordered, q) for q in (25.0, 50.0, 75.0))
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = tuple(v for v in ordered if v < lo or v > hi)
    return DistributionSummary(len(ordered), median, q1, q3, iqr, outliers)


class SweepPoint(NamedTuple):
    """One row of the sweep's CSV."""

    w_s: float
    device: str
    median_percent_re: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    argmin_w_s: Mapping[str, float]  # device -> w_s minimizing median %RE

    def __post_init__(self):
        object.__setattr__(self, "argmin_w_s", dict(self.argmin_w_s))


def sweep_single_qubit_weight(
    versions: Sequence[tuple[str, str, Circuit]],
    tables: Sequence[DurationTable],
    grid: Sequence[float],
) -> SweepResult:
    """Evaluate gate-aware depth accuracy for each single-qubit weight w_s,
    over one (base name, compiler id, circuit) per compiled version.

    A gate weighs 0.0 if it is an rz, barrier or delay, 1.0 where the
    versions' multi-qubit :func:`metric_weights` map gives 1.0, and w_s
    otherwise (measure included). Every float equals what :func:`all_pairs`
    and :func:`summarize_distribution` give for the same weight map, but the
    work is done per block of at most ``GRID_BLOCK`` grid values: each
    version is swept once per block, one numpy column per w_s (depths do
    not depend on the device), and each device's %RE is one pairs x block
    array from :func:`_pair_errors`, with its column medians. This is the
    only analysis that imports numpy.
    The version pairs are formed once, and each version's runtime on each
    device is its :func:`estimate_runtime`. Memory is per block. Ties in
    the argmin go to the smallest w_s. A grid value that is not a finite
    number >= 0, or a point where no pair has a defined %RE, raises
    ``ValueError``; a gate without a duration raises
    :class:`UnresolvedDurationError`, and a runtime or depth past the
    largest float ``OverflowError``, naming the base and compiler id.
    """
    import numpy as np

    for w_s in grid:
        nonnegative_number(w_s, "w_s")
    multiqubit = metric_weights([c for *_, c in versions])["multiqubit"]
    runtimes = []
    for base, compiler, c in versions:
        try:
            runtime = [estimate_runtime(c, table) for table in tables]
        except UnresolvedDurationError as exc:
            exc.args = (f"base {base!r}, compiler {compiler!r}: {exc.args[0]}",)
            raise
        if not all(map(math.isfinite, runtime)):
            raise OverflowError(f"base {base!r}, compiler {compiler!r}: runtime is inf: "
                                f"a sum past the largest float")
        runtimes.append(runtime)
    # one row per device; the reshape keeps that shape when there is no version
    runtimes = np.array(runtimes).reshape(len(versions), len(tables)).T
    c1, c2 = np.array(_oriented_pairs([(base, compiler) for base, compiler, _ in versions]),
                      dtype=np.intp).reshape(-1, 2).T
    points: list[list[SweepPoint]] = [[] for _ in tables]
    for start in range(0, len(grid), GRID_BLOCK):
        block = grid[start:start + GRID_BLOCK]
        width = len(block)
        zeros, ones, ws = np.zeros(width), np.ones(width), np.array(block, dtype=float)
        weights = {name: ones if multi else ws for name, multi in multiqubit.items()}
        rule = increment_rule({**weights, "rz": zeros})
        with np.errstate(over="ignore"):  # a depth past the largest float is inf, checked below
            depths = np.array([sweep(c, lower(c, [rule]), zero=zeros, maximum=np.maximum, add=np.add)
                               for *_, c in versions]).reshape(len(versions), width)
        if not np.isfinite(depths).all():
            v, k = np.argwhere(~np.isfinite(depths))[0]
            base, compiler, _ = versions[v]
            raise OverflowError(f"base {base!r}, compiler {compiler!r}: gate-aware depth at "
                                f"w_s={block[k]} is inf: a sum past the largest float")
        for table, r, table_points in zip(tables, runtimes, points):
            *_, percent_re = _pair_errors(depths, r, c1, c2)
            defined = np.isfinite(percent_re)
            undefined = ~defined.any(axis=0)
            if undefined.any():
                w_s = block[int(np.argmax(undefined))]
                raise ValueError(f"device {table.device!r}: no version pair has a defined %RE "
                                 f"at w_s={w_s}")
            # np.percentile takes the same pairs in every column: one call per set of defined pairs
            groups: dict[bytes, list[int]] = {}
            for k in range(width):
                groups.setdefault(defined[:, k].tobytes(), []).append(k)
            medians = np.empty(width)
            for columns in groups.values():
                rows = defined[:, columns[0]]
                medians[columns] = np.percentile(percent_re[rows][:, columns], 50.0, axis=0)
            table_points.extend(SweepPoint(w_s, table.device, float(m))
                                for w_s, m in zip(block, medians))
    # min keeps the first of equal medians: the smallest w_s of an ascending grid
    argmin = {table.device: min(ps, key=lambda p: p.median_percent_re).w_s
              for table, ps in zip(tables, points)}
    return SweepResult(tuple(p for ps in points for p in ps), argmin)
