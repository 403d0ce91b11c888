"""Measurement helpers shared by the workloads: samples, CPU, memory, facts."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Every run reports its result tail latency at this percentile; each
#: workload records at least ten samples beyond it per run (see ``tail``).
TAIL_PERCENTILE = 95.0


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children (pool and
    shard workers are reaped when their runner or service closes)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of raw samples."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> Optional[float]:
    """The sample at :data:`TAIL_PERCENTILE`, or ``None`` when fewer than ten
    samples lie beyond it."""
    beyond = len(samples) - math.ceil(TAIL_PERCENTILE / 100.0 * len(samples))
    return percentile(samples, TAIL_PERCENTILE) if beyond >= 10 else None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def calibration_ms() -> float:
    """Best of three runs of a fixed pure-Python loop: how fast this host is
    running right now, recorded so runs on a busy host can be told apart."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def machine_facts() -> Dict[str, object]:
    import numpy

    return {
        "effective_cores": effective_cores(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class Pass:
    """One timed repetition of a workload's measured operation."""

    events: int
    wall_s: float
    cpu_s: float

    @property
    def throughput(self) -> float:
        return self.events / self.wall_s

    @property
    def cpu_us_per_event(self) -> float:
        return self.cpu_s / self.events * 1e6


@dataclass
class RunReport:
    """Everything one run measured, before it is reduced to metrics."""

    passes: List[Pass] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def end_to_end(self) -> Dict[str, float]:
        """The end-to-end metric values (units are declared in BENCHMARK.json)."""
        return {
            "setup_s": median(self.setups),
            "throughput_ev_per_s": median([p.throughput for p in self.passes]),
            "result_p50_ms": percentile(self.latencies_ms, 50.0),
            "cpu_us_per_event": median([p.cpu_us_per_event for p in self.passes]),
            "peak_rss_mb": peak_rss_mb(),
        }

    def samples(self) -> Dict[str, object]:
        """Sample counts behind each end-to-end median, and the result tail.

        The tail is reported here, unbounded: on a shared two-core host it
        swings with the host's load by more than any bound the benchmark
        may set, so it is shown next to its sample count but not gated.
        """
        return {
            "setups": len(self.setups),
            "passes": len(self.passes),
            "results": len(self.latencies_ms),
            f"result_p{TAIL_PERCENTILE:g}_ms": tail(self.latencies_ms),
        }


def overhead_pct(untraced: RunReport, traced: RunReport) -> float:
    """Extra CPU per event of the traced passes over the untraced ones."""
    base = median([p.cpu_us_per_event for p in untraced.passes])
    return (median([p.cpu_us_per_event for p in traced.passes]) / base - 1.0) * 100.0
