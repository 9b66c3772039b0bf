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
from functools import partial
from itertools import chain, compress, repeat
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .ir import Circuit
from .metrics import increment_rule, lower, metric_weights, nonnegative_number, sweep
# not called here: bench/tracing.py wraps these names in this module
from .metrics import gate_aware_depth  # noqa: F401
from .runtime import estimate_runtime  # noqa: F401

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

# most grid values one sweep pass carries; bounds each touched qubit's depth
# row and the versions x width depth matrix (8 KB per version)
SWEEP_BLOCK = 1024
# most grid values scored at once; bounds the pairs x width %RE temporaries.
# A divisor of SWEEP_BLOCK, so a scoring block starts every GRID_BLOCK values
GRID_BLOCK = 256


class _VersionRecordFields(NamedTuple):
    base: str
    compiler: str
    metrics: dict[str, float]
    runtime_s: float


class VersionRecord(_VersionRecordFields):
    """One compiled version of a base circuit with its metric values, which
    are copied into a dict."""

    __slots__ = ()

    def __new__(cls, base: str, compiler: str, metrics: Mapping[str, float], runtime_s: float):
        return tuple.__new__(cls, (base, compiler, dict(metrics), runtime_s))


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


class PairComparison(NamedTuple):
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
    grid's kernel, where its denominator is nonzero. A value with a zero
    denominator, or that is not finite, is None; a pair without a %RE is
    flagged with each zero flag that applies, or else ``FLAG_OVERFLOW``."""
    comparisons = []
    for i, j in _oriented_pairs([(rec.base, rec.compiler) for rec in records]):
        rec1, rec2 = records[i], records[j]
        m2, r2 = float(rec2.metrics[metric]), float(rec2.runtime_s)
        delta_metric = (float(rec1.metrics[metric]) - m2) / m2 if m2 else math.nan
        delta_runtime = (float(rec1.runtime_s) - r2) / r2 if r2 else math.nan
        percent_re = (abs(delta_metric - delta_runtime) / abs(delta_runtime) * 100.0
                      if delta_runtime else math.nan)
        delta_metric, delta_runtime, percent_re = (
            v if math.isfinite(v) else None for v in (delta_metric, delta_runtime, percent_re))
        flags = (tuple(compress(ZERO_FLAGS, (m2 == 0, r2 == 0, delta_runtime == 0 and m2 != 0)))
                 or ((FLAG_OVERFLOW,) if percent_re is None else ()))
        comparisons.append(PairComparison(rec1.base, rec1.compiler, rec2.compiler, metric,
                                          delta_metric, delta_runtime, percent_re, flags))
    return comparisons


class IdentificationResult(NamedTuple):
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
    return identification_accuracy(records, metric)[1][0]


def identification_accuracy(records: Sequence[VersionRecord], metric: str) -> tuple[float, list[IdentificationResult]]:
    """Percentage of base circuits whose runtime-optimal set is identified,
    and each such base's :func:`identify_optimal` result."""
    results = []
    for base, by_compiler in _versions_by_base([(rec.base, rec.compiler) for rec in records]).items():
        if len(by_compiler) < 2:
            continue
        versions = [(c, records[i]) for c, i in by_compiler.items()]
        metric_argmin = _argmin_set({c: rec.metrics[metric] for c, rec in versions}, METRIC_REL_TOL, 0.0)
        runtime_argmin = _argmin_set({c: rec.runtime_s for c, rec in versions}, 0.0, RUNTIME_ABS_TOL)
        results.append(IdentificationResult(base, metric, metric_argmin == runtime_argmin,
                                            metric_argmin, runtime_argmin))
    if not results:
        raise ValueError("no base circuit has two or more versions")
    accuracy = 100.0 * sum(r.correct for r in results) / len(results)
    return accuracy, results


class DistributionSummary(NamedTuple):
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


class _SweepResultFields(NamedTuple):
    points: tuple[SweepPoint, ...]
    argmin_w_s: dict[str, float]  # device -> w_s minimizing median %RE


class SweepResult(_SweepResultFields):
    """The sweep's points, device by device in ``devices`` order, each
    device's in grid order; and each device's argmin copied into a dict."""

    __slots__ = ()

    def __new__(cls, points: tuple[SweepPoint, ...], argmin_w_s: Mapping[str, float]):
        return tuple.__new__(cls, (points, dict(argmin_w_s)))


def sweep_single_qubit_weight(
    versions: Sequence[tuple[str, str, Circuit]],
    runtimes: Sequence[Sequence[float]],
    devices: Sequence[str],
    grid: Sequence[float],
) -> SweepResult:
    """Evaluate gate-aware depth accuracy for each single-qubit weight w_s,
    over one (base name, compiler id, circuit) per compiled version, whose
    runtime in seconds on each device of ``devices`` is its row of
    ``runtimes`` (versions x devices), as :func:`estimate_runtime` gives it.

    A gate weighs 0.0 if it is an rz, barrier or delay, 1.0 where the
    versions' multi-qubit :func:`metric_weights` map gives 1.0, and w_s
    otherwise (measure included). Every float equals what :func:`all_pairs`
    and :func:`summarize_distribution` give for the same weight map and
    runtimes. Each version is lowered once, each gate's row naming one of
    those three weights, and swept once per ``SWEEP_BLOCK`` grid values,
    its rows read as numpy columns of one entry per w_s (depths do not
    depend on the device), into a versions x width depth matrix. Each
    ``GRID_BLOCK`` of its columns is scored on its own: each device's %RE
    is one pairs x block array from :func:`_pair_errors`, each column's
    median taken by :func:`_percentile`'s rule. Each column is computed
    elementwise, so neither block size changes a float. This is the only
    analysis that imports numpy. The version pairs are formed once. Memory
    is per block. Ties in the argmin go to the smallest w_s. A grid value
    that is not a finite number >= 0, or a point where no pair has a
    defined %RE, raises ``ValueError``; a depth past the largest float
    raises ``OverflowError``, naming the base, the compiler id and w_s.
    The first scoring block with such a point raises: an inf depth before
    a %RE, naming the first version inf in the block, else the first
    device without a defined %RE, at its first such w_s.
    """
    import numpy as np

    for w_s in grid:
        nonnegative_number(w_s, "w_s")
    multiqubit = metric_weights([c for *_, c in versions])["multiqubit"]
    # each gate's row is its weight's column in a sweep: 0 for rz, barriers
    # and delays (the rule's 0.0), 1 for a weight of 1.0, 2 for w_s
    column = {name: 1 if multi else 2 for name, multi in multiqubit.items()}
    rule = increment_rule({**column, "rz": 0})
    lowered = [(c, lower(c, [rule])) for *_, c in versions]
    # one row per device; the reshape keeps that shape when there is no version
    runtimes = np.array(runtimes, dtype=float).reshape(len(versions), len(devices)).T
    c1, c2 = np.array(_oriented_pairs([(base, compiler) for base, compiler, _ in versions]),
                      dtype=np.intp).reshape(-1, 2).T
    medians: list[list[float]] = [[] for _ in devices]
    for start in range(0, len(grid), SWEEP_BLOCK):
        swept = grid[start:start + SWEEP_BLOCK]
        width = len(swept)
        zeros = np.zeros(width)
        columns = {0: zeros, 1: np.ones(width), 2: np.array(swept, dtype=float)}
        with np.errstate(over="ignore"):  # a depth past the largest float is inf, checked below
            swept_depths = np.array([sweep(c, map(columns.__getitem__, rows), zero=zeros,
                                           maximum=np.maximum, add=np.add)
                                     for c, rows in lowered]).reshape(len(versions), width)
        for offset in range(0, width, GRID_BLOCK):
            block = swept[offset:offset + GRID_BLOCK]
            depths = swept_depths[:, offset:offset + GRID_BLOCK]
            if not np.isfinite(depths).all():
                v, k = np.argwhere(~np.isfinite(depths))[0]
                base, compiler, _ = versions[v]
                raise OverflowError(f"base {base!r}, compiler {compiler!r}: gate-aware depth at "
                                    f"w_s={block[k]} is inf: a sum past the largest float")
            for device, r, device_medians in zip(devices, runtimes, medians):
                *_, percent_re = _pair_errors(depths, r, c1, c2)
                defined = np.isfinite(percent_re)
                n = defined.sum(axis=0)
                if not n.all():
                    w_s = block[int(np.argmin(n))]
                    raise ValueError(f"device {device!r}: no version pair has a defined %RE "
                                     f"at w_s={w_s}")
                # _percentile's median of each column's n defined values, sorted
                # first: a and b are one value where n is odd, so b - 0.0 is a
                ordered = np.sort(np.where(defined, percent_re, np.inf), axis=0)
                a, b = ordered[[(n - 1) // 2, n // 2], np.arange(len(block))]
                device_medians.extend((b - (b - a) * 0.5).tolist())
    point = partial(tuple.__new__, SweepPoint)  # SweepPoint(*row) without its Python __new__
    points = tuple(chain.from_iterable(map(point, zip(grid, repeat(device), ms))
                                       for device, ms in zip(devices, medians)))
    # index finds the first of equal medians: the smallest w_s of an ascending grid
    argmin = {device: grid[ms.index(min(ms))] for device, ms in zip(devices, medians)}
    return SweepResult(points, argmin)
