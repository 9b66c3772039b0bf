"""Gate-duration table ingestion and architecture weight-map configuration.

A duration table maps (gate name, qubit location) to an execution time in
seconds for one device. Weight maps are configured by averaging gate times
over the devices of an architecture and dividing by the slowest gate's
average, so the slowest gate gets weight exactly 1.0 and virtual gates
(duration 0) get weight 0.0.
"""
from __future__ import annotations

import operator
from functools import reduce
from typing import Mapping, NamedTuple, Sequence

from .metrics import WeightMap, nonnegative_number, read_json, utf8_text, write_json


class DurationTableError(ValueError):
    """Schema or content violation in a duration-table document."""


class _DurationTableFields(NamedTuple):
    device: str
    architecture: str
    entries: dict[tuple[str, tuple[int, ...]], float]
    defaults: dict[str, float]


class DurationTable(_DurationTableFields):
    """Per-device map from (gate name, qubit tuple) to seconds.

    Qubit tuples are direction-sensitive: ("ecr", (0, 1)) and ("ecr", (1, 0))
    are distinct entries. ``defaults`` supplies a per-gate fallback duration
    when a location entry is absent. Both mappings are copied into dicts.
    """

    __slots__ = ()

    def __new__(cls, device: str, architecture: str,
                entries: Mapping[tuple[str, tuple[int, ...]], float],
                defaults: Mapping[str, float] = {}):
        return tuple.__new__(cls, (device, architecture, dict(entries), dict(defaults)))

    def lookup(self, gate_name: str, qubits: tuple[int, ...]) -> float | None:
        """Exact-location entry first, then the per-gate default."""
        hit = self.entries.get((gate_name, tuple(qubits)))
        if hit is not None:
            return hit
        return self.defaults.get(gate_name)

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "architecture": self.architecture,
            "entries": [
                {"gate": name, "qubits": list(qubits), "duration_s": dur}
                for (name, qubits), dur in sorted(self.entries.items())
            ],
            "defaults": dict(sorted(self.defaults.items())),
        }

    def save(self, path) -> None:
        write_json(path, self.to_dict())


def duration_table_from_dict(data: dict) -> DurationTable:
    """Validate a parsed JSON document; error messages carry JSON pointers."""
    if not isinstance(data, dict):
        raise DurationTableError("/: document must be a JSON object")
    for key in ("device", "architecture"):
        if not isinstance(data.get(key), str) or not data[key]:
            raise DurationTableError(f"/{key}: required non-empty string")
        utf8_text(data[key], f"/{key}: {key}", DurationTableError)
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise DurationTableError("/entries: required array")
    entries: dict[tuple[str, tuple[int, ...]], float] = {}
    for i, item in enumerate(raw_entries):
        ptr = f"/entries/{i}"
        if not isinstance(item, dict):
            raise DurationTableError(f"{ptr}: entry must be an object")
        gate = item.get("gate")
        if not isinstance(gate, str) or not gate:
            raise DurationTableError(f"{ptr}/gate: required non-empty string")
        utf8_text(gate, f"{ptr}/gate: gate", DurationTableError)
        qubits = item.get("qubits")
        if not isinstance(qubits, list) or not all(isinstance(q, int) and not isinstance(q, bool) and q >= 0 for q in qubits):
            raise DurationTableError(f"{ptr}/qubits: required array of non-negative integers")
        dur = nonnegative_number(item.get("duration_s"), f"{ptr}/duration_s: duration",
                                 DurationTableError)
        key = (gate, tuple(qubits))
        if key in entries:
            raise DurationTableError(f"{ptr}: duplicate entry for gate {gate!r} at qubits {qubits}")
        entries[key] = dur
    defaults: dict[str, float] = {}
    raw_defaults = data.get("defaults", {})
    if not isinstance(raw_defaults, dict):
        raise DurationTableError("/defaults: must be an object")
    for name, value in raw_defaults.items():
        utf8_text(name, "/defaults: gate", DurationTableError)
        defaults[name] = nonnegative_number(value, f"/defaults/{name}: duration", DurationTableError)
    return DurationTable(data["device"], data["architecture"], entries, defaults)


def load_duration_table(path) -> DurationTable:
    return duration_table_from_dict(read_json(path, DurationTableError))


def _mean(values: Sequence[float]) -> float:
    """The mean of ``values``, summed left to right as ``sum`` does before
    Python 3.12, whose ``sum`` compensates float rounding: so a weight map
    has the same bytes on every Python."""
    return reduce(operator.add, values, 0.0) / len(values)


class GateStats(NamedTuple):
    """Per-gate duration statistics over one device's table."""

    mean: float
    count: int
    min: float
    max: float


def _durations_by_gate(table: DurationTable) -> dict[str, list[float]]:
    """Each gate's durations in ``table``: its location entries, or its
    default alone when it has none; gates with entries first."""
    durations: dict[str, list[float]] = {}
    for (name, _), dur in table.entries.items():
        durations.setdefault(name, []).append(dur)
    for name, dur in table.defaults.items():
        durations.setdefault(name, [dur])
    return durations


def summarize(table: DurationTable) -> dict[str, GateStats]:
    """Arithmetic mean/min/max per gate over its location entries.

    Defaults only contribute when a gate has no location entries at all, in
    which case the default stands in as the single data point (count 0).
    """
    located = {name for name, _ in table.entries}
    return {name: GateStats(_mean(durs), len(durs) if name in located else 0,
                            min(durs), max(durs))
            for name, durs in _durations_by_gate(table).items()}


class ArchitectureMismatchError(ValueError):
    """Input tables do not share a single architecture label."""


def configure_weights(tables: Sequence[DurationTable], pooled: bool = False) -> WeightMap:
    """Derive an architecture weight map from one or more device tables.

    Per gate, each device's mean gate time is computed first and the
    cross-device value is the unweighted mean of those device means, so a
    device with more qubits cannot dominate (``pooled=True`` averages over
    the durations of all devices instead: each gate's location entries, or
    its default where it has none). Every cross-device mean is
    then divided by the largest one, anchoring the slowest gate at 1.0.
    """
    if not tables:
        raise ValueError("at least one duration table is required")
    architectures = {t.architecture for t in tables}
    if len(architectures) != 1:
        raise ArchitectureMismatchError(
            f"tables span multiple architectures: {sorted(architectures)}"
        )
    architecture = tables[0].architecture

    samples: dict[str, list[float]] = {}  # per gate, each device's durations or their mean
    for table in tables:
        for name, durs in _durations_by_gate(table).items():
            samples.setdefault(name, []).extend(durs if pooled else [_mean(durs)])
    cross_means = {name: _mean(values) for name, values in samples.items()}
    if not cross_means:
        raise ValueError("duration tables contain no gates")
    anchor = max(cross_means.values())
    if anchor <= 0:
        raise ValueError("all gate-time means are zero; no normalization anchor")
    weights = {name: mean / anchor for name, mean in cross_means.items()}
    return WeightMap(weights=weights, architecture=architecture)
