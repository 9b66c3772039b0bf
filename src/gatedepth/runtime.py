"""Exact circuit runtime from per-location gate durations.

:func:`duration` gives one gate its device duration in seconds. Bound to a
table, it is one more rule of :func:`gatedepth.metrics.lower`: the runtime
is one more column of the critical-path sweep, swept with the depth
metrics'. With per-gate exact times the sweep reproduces an ASAP
schedule's total duration.
"""
from __future__ import annotations

from functools import partial

from .calibration import DurationTable
from .ir import BARRIER, DELAY, Circuit
from .metrics import BARRIER_SKIP, lower, nonnegative_number, sweep


class UnresolvedDurationError(LookupError):
    """A gate's duration could not be resolved from the table."""

    def __init__(self, gate_name: str, qubits: tuple[int, ...], position: int, reason: str = ""):
        self.gate_name = gate_name
        self.qubits = tuple(qubits)
        self.position = position
        detail = f": {reason}" if reason else ""
        super().__init__(
            f"no duration for gate {gate_name!r} at qubits {list(self.qubits)} "
            f"(gate position {position}){detail}"
        )


def duration(table: DurationTable, name: str, kind: str, qubits: tuple[int, ...],
             params: tuple[float, ...], position: int = -1) -> float:
    """One gate's duration in seconds, the runtime's rule for
    :func:`gatedepth.metrics.lower`; an :class:`UnresolvedDurationError`
    names ``position``.

    Lookup precedence per gate: exact (name, qubit tuple) entry, then the
    per-gate default, then :class:`UnresolvedDurationError`. The qubit
    tuple is direction-sensitive; a reversed two-qubit gate with no
    reversed entry and no default is an error, never a silent reuse of the
    forward duration. Delays contribute their explicit duration parameter
    (seconds), which must be a finite number >= 0; barriers need no entry.
    """
    if kind == BARRIER:
        return 0.0
    if kind == DELAY:
        if not params:
            raise UnresolvedDurationError(name, qubits, position, "delay without a duration parameter")
        try:
            return nonnegative_number(params[0], "delay duration")
        except ValueError as exc:
            raise UnresolvedDurationError(name, qubits, position, str(exc)) from None
    dur = table.lookup(name, qubits)
    if dur is None:
        raise UnresolvedDurationError(name, qubits, position)
    return dur


def estimate_runtime(circuit: Circuit, table: DurationTable, barrier: str = BARRIER_SKIP) -> float:
    """Total runtime in seconds of the ASAP schedule implied by the table."""
    return sweep(circuit, lower(circuit, [partial(duration, table)]), barrier)
