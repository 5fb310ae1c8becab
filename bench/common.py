"""Job description and speed reference shared by the benchmark modules."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional


@dataclass
class Job:
    """One library or CLI call, from its input to its verdict.

    ``run`` performs the call and returns its output; it looks the package's
    functions up at call time so that a traced run sees the wrappers.
    ``check`` compares that output with the benchmark's own reference and
    returns None when it agrees, else a short reason.  ``family`` and
    ``size`` place the job on its workload's ladder.
    """

    family: str
    size: int
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def warmup_jobs(jobs):
    """The smallest job of each family."""
    best = {}
    for job in jobs:
        if job.family not in best or job.size < best[job.family].size:
            best[job.family] = job
    return list(best.values())


# The shared host's speed drifts by up to 2x, over periods from a fraction of
# a second to minutes.  A short slice of fixed big-integer arithmetic, which
# never touches mathieulab and allocates no garbage-collected objects (so its
# time does not depend on the heap a job leaves behind), runs after every
# job; the slice times sample the machine's speed while the jobs ran.  Every
# time the benchmark reports is scaled to a machine on which one slice takes
# SLICE_S seconds; run.py prints the unscaled wall time too.
SLICE_S = 0.002
_SLICE_STEPS = 2000
_SLICE_A = 3 ** 120 + 7
_SLICE_B = 5 ** 90 + 11
_SLICE_M = 2 ** 521 - 1


def reference_slice():
    """Wall time of one slice of the fixed reference computation."""
    start = perf_counter()
    x = _SLICE_B
    for _ in range(_SLICE_STEPS):
        x = (x * _SLICE_A + _SLICE_B) % _SLICE_M
    return perf_counter() - start
