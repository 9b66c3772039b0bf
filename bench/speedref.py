"""Speed reference: every timed step is scaled to one machine speed by
timing a frozen copy of the program next to it.

The benchmark runs on a share of a host whose speed for the same work
swings by up to 2x, within a second and for minutes at a time, as other
tenants come and go, and the swing is not the same for all code: a fixed
probe of other pure-Python work missed a third of the program's slowdown.
No statistic over a one-minute run removes that. So the probe is the
program itself, frozen: ``refprog/`` is ``src/gatedepth`` as of commit
47ac536, the first one this benchmark measured, and is never changed. Each
workload names a probe, its own CLI calls on smaller inputs of a fixed
seed, run with ``refprog.cli`` before the first round and after every
round. Every time of the run is multiplied by

    speed = ref_s / mean(probe times of the run)

with ``ref_s`` the probe's time at the reference speed. A single probe
sees the speed of its own second or two, so the mean over the run, not
the probes next to a round, is the estimate. At that commit the program
and the probe are the same code, so the scaled times hold still whatever
the host does; a later change to the program moves them by its own
speed-up. Set-up time is scaled the same way, by the import times of
``refprog.cli`` taken between the imports of ``gatedepth.cli``.
"""
from __future__ import annotations

# The ref_s values, this one and the workloads' probe times in
# workloads.py, are round numbers near the probes' times at that commit on
# a 2-vCPU Intel Xeon (2.0 GHz) share of a busy host, so scaled times read
# roughly as wall times there.
IMPORT_REF_S = 0.25


def speed(probes: list[float], ref_s: float) -> float:
    """Factor that takes a time of the run to the reference speed."""
    return ref_s * len(probes) / sum(probes)
