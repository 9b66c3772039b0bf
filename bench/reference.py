"""Independent reference results, computed from the generator's gate lists.

Nothing here imports ``gatedepth``. Depths come from an explicit
dependency DAG (an edge from the previous gate on each operand qubit) and
its longest weighted path; runtimes come from an explicit ASAP schedule
(each gate starts when its last operand qubit is free). %RE, quartiles and
medians use :mod:`statistics`. The semantics follow the toolkit's
documentation: barriers are skipped, a delay is a node that adds nothing to
the depths and its parameter (seconds) to the runtime, and a duration is an
exact (gate, qubit tuple) entry, else the gate's default.
"""
from __future__ import annotations

import math
import statistics

from gen import BARRIER, DELAY, MEASURE, UNITARY

# documented argmin tie tolerances of the identification analysis
METRIC_REL_TOL = 1e-9
RUNTIME_ABS_TOL = 1e-12
# outputs must agree to this relative tolerance (floats are printed in full)
REL_TOL = 1e-9


def close(a, b) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def dag_longest_path(gates, weight) -> float:
    """Longest ``weight``-sum path through the dependency DAG."""
    nodes = [g for g in gates if g[2] != BARRIER]
    last_on_qubit: dict[int, int] = {}
    preds: list[set[int]] = []
    for i, (_, qubits, _, _) in enumerate(nodes):
        preds.append({last_on_qubit[q] for q in qubits if q in last_on_qubit})
        for q in qubits:
            last_on_qubit[q] = i
    longest: list[float] = []
    for i, g in enumerate(nodes):  # list order is a topological order
        longest.append(max((longest[p] for p in preds[i]), default=0.0) + weight(g))
    return max(longest, default=0.0)


def asap_makespan(gates, duration) -> float:
    """Finish time of the last gate of the ASAP schedule."""
    free_at: dict[int, float] = {}
    finish = 0.0
    for g in gates:
        if g[2] == BARRIER:
            continue
        start = max((free_at.get(q, 0.0) for q in g[1]), default=0.0)
        end = start + duration(g)
        for q in g[1]:
            free_at[q] = end
        finish = max(finish, end)
    return finish


def traditional(gates) -> int:
    return int(dag_longest_path(gates, lambda g: 1.0 if g[2] in (UNITARY, MEASURE) else 0.0))


def multiqubit(gates) -> int:
    return int(dag_longest_path(gates, lambda g: 1.0 if g[2] == UNITARY and len(g[1]) >= 2 else 0.0))


def gate_aware(gates, weights: dict) -> float:
    return dag_longest_path(gates, lambda g: 0.0 if g[2] == DELAY else weights[g[0]])


def runtime(gates, table: dict) -> float:
    entries, defaults = table["entries"], table["defaults"]

    def duration(g):
        if g[2] == DELAY:
            return g[3]
        hit = entries.get((g[0], g[1]))
        return hit if hit is not None else defaults[g[0]]

    return asap_makespan(gates, duration)


def weight_map(tables) -> dict:
    """Per gate: mean over each device's location entries (the default
    stands in when a device has no entry for the gate), then the mean of
    the device means, normalised so the slowest gate weighs 1.0."""
    device_means: dict[str, list[float]] = {}
    for table in tables:
        samples: dict[str, list[float]] = {}
        for (name, _), dur in table["entries"].items():
            samples.setdefault(name, []).append(dur)
        for name, dur in table["defaults"].items():
            samples.setdefault(name, [dur])
        for name, durs in samples.items():
            device_means.setdefault(name, []).append(sum(durs) / len(durs))
    means = {name: sum(m) / len(m) for name, m in device_means.items()}
    anchor = max(means.values())
    return {name: m / anchor for name, m in means.items()}


def pairs(values: dict, runtimes: dict):
    """All unordered compiler pairs of one base; the lexicographically
    smaller compiler is the denominator. Yields (c1, c2, dm, dr, %RE), with
    None where a base value or the runtime difference is zero."""
    compilers = sorted(values)
    for i, c2 in enumerate(compilers):
        for c1 in compilers[i + 1:]:
            dm = None if values[c2] == 0 else (values[c1] - values[c2]) / values[c2]
            dr = None if runtimes[c2] == 0 else (runtimes[c1] - runtimes[c2]) / runtimes[c2]
            re = None
            if dm is not None and dr is not None and dr != 0:
                re = abs(dm - dr) / abs(dr) * 100.0
            yield c1, c2, dm, dr, re


def argmin_set(values: dict, rel_tol: float, abs_tol: float) -> tuple:
    low = min(values.values())
    return tuple(sorted(
        k for k, v in values.items()
        if v - low <= abs_tol or (low != 0 and (v - low) / abs(low) <= rel_tol)))


def identified(values: dict, runtimes: dict) -> bool:
    return (argmin_set(values, METRIC_REL_TOL, 0.0)
            == argmin_set(runtimes, 0.0, RUNTIME_ABS_TOL))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3
