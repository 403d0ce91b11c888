"""Multi-core scaling of the sharded process-pool executor.

Annotates a scalability-style workload (many objects, full annotation stack)
across the executor/dispatch/transport matrix — sequential ``annotate_many``,
the serial executor with deferred write-back (isolates the merge overhead)
and the 4-worker process pool under every dispatch mode (``static`` is the
historical round-robin baseline, ``balanced`` bin-packs by GPS point count,
``stealing`` adds finer shards drained largest-first) plus a
``shared_memory="on"`` run that exercises the zero-copy segment transport —
and reports throughput for each.  Every leg runs once untimed (which also
forks and primes each pool), then the legs are timed interleaved, best of
``ROUNDS`` each, so host noise hits every leg alike.  Output equality is
asserted byte-for-byte on every run.

The speedup gate is tiered by what the machine can actually deliver: the
sidecar records the affinity-aware effective core count next to every number,
pool modes are explicitly marked non-gating when the process cannot run
``WORKERS`` ways in parallel, and the assertion arms only with >= 2 effective
cores (>1.5x target at >= 4 cores, >1.1x at 2-3).  A 1-core runner records an
honest <1x pool number instead of a silently-passed gate.
"""

from __future__ import annotations

import time
from typing import List

from benchmarks.conftest import save_result
from repro.analytics.reporting import render_table
from repro.core import PipelineConfig, SeMiTriPipeline
from repro.core.cpu import effective_cpu_count
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine import Plan, ProcessPoolExecutor, SequentialExecutor
from repro.parallel import GeoContext, canonical_bytes, canonical_digest

WORKERS = 4
#: Required pool speedup when the machine really has >= WORKERS cores.
SPEEDUP_TARGET = 1.5
#: Reduced target on 2-3 core machines: perfect WORKERS-way scaling is
#: impossible there, but the pool must still beat sequential.
SPEEDUP_TARGET_SMALL = 1.1
#: Timed rounds per leg, after one untimed warm-up round.
ROUNDS = 5


def _scalability_workload(world, objects: int = 8, points_per_object: int = 600):
    """Zig-zag drives with dwell clusters for several objects over the world core."""
    core_min = world.config.core_min
    trajectories: List[RawTrajectory] = []
    for obj in range(objects):
        points: List[SpatioTemporalPoint] = []
        t = 0.0
        x = core_min + 120.0 * obj
        y = core_min + 80.0 * obj
        for i in range(points_per_object):
            if i % 150 < 12:  # periodic dwell: stop episodes for the point layer
                x += 0.3
                t += 60.0
            else:
                x = core_min + (x - core_min + 10.0) % 3000.0
                y = core_min + ((i * 10.0) // 3000.0 * 400.0 + 80.0 * obj) % 3000.0
                t += 1.0
            points.append(SpatioTemporalPoint(x, y, t))
        trajectories.append(
            RawTrajectory(points, object_id=f"car{obj}", trajectory_id=f"car{obj}-t0")
        )
    return trajectories


def test_parallel_scaling(benchmark, world, annotation_sources):
    config = PipelineConfig.for_vehicles()
    trajectories = _scalability_workload(world)
    total_points = sum(len(t) for t in trajectories)
    context = GeoContext.build(annotation_sources, config)
    effective = effective_cpu_count()

    plan = Plan.from_context(context)
    #: pool mode name -> a warm pool (every pool mode is one the speedup gate may judge)
    pools = {
        f"pool x{WORKERS} {name}": ProcessPoolExecutor(
            workers=WORKERS, dispatch=dispatch, shared_memory=shared_memory
        )
        for name, dispatch, shared_memory in (
            ("static", "static", "auto"),
            ("balanced", "balanced", "auto"),
            ("stealing", "stealing", "auto"),
            ("balanced+shm", "balanced", "on"),
        )
    }
    legs = {
        "sequential": lambda: SeMiTriPipeline(config).annotate_many(
            trajectories, annotation_sources, annotators=context.annotators
        ),
        "serial executor": lambda: SequentialExecutor(deferred_writeback=True).run(
            plan, trajectories
        ),
        **{mode: (lambda pool=pool: pool.run(plan, trajectories)) for mode, pool in pools.items()},
    }

    def run():
        """Untimed warm-up of every leg, then ``ROUNDS`` interleaved timed rounds."""
        results = {leg: fn() for leg, fn in legs.items()}
        best = dict.fromkeys(legs, float("inf"))
        for _ in range(ROUNDS):
            for leg, fn in legs.items():
                started = time.perf_counter()
                results[leg] = fn()
                best[leg] = min(best[leg], time.perf_counter() - started)
        return {leg: (best[leg], results[leg]) for leg in legs}

    try:
        measured = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        for pool in pools.values():
            pool.close()

    reference_bytes = canonical_bytes(measured["sequential"][1])
    for mode, (_, results) in measured.items():
        assert canonical_bytes(results) == reference_bytes, f"{mode} output diverged"

    gate_armed = effective >= 2
    gate_target = SPEEDUP_TARGET if effective >= WORKERS else SPEEDUP_TARGET_SMALL
    sequential_seconds = measured["sequential"][0]
    rows = []
    data = {
        "workers": WORKERS,
        "effective_cores": effective,
        "gps_points": total_points,
        "canonical_digest": canonical_digest(measured["sequential"][1]),
        "gate": {
            "armed": gate_armed,
            "target": gate_target if gate_armed else None,
            "reason": (
                f"{effective} effective core(s) >= 2"
                if gate_armed
                else f"only {effective} effective core(s); pool numbers recorded, not judged"
            ),
        },
        "modes": {},
    }
    for mode, (seconds, _) in measured.items():
        speedup = sequential_seconds / max(seconds, 1e-9)
        is_pool = mode in pools
        rows.append(
            [
                mode,
                f"{seconds * 1e3:.0f}",
                f"{total_points / seconds:,.0f}",
                f"{speedup:.2f}x",
                ("yes" if gate_armed else "no") if is_pool else "-",
            ]
        )
        data["modes"][mode] = {
            "seconds": seconds,
            "points_per_second": total_points / seconds,
            "speedup_vs_sequential": speedup,
            "gating": is_pool and gate_armed,
        }
    text = render_table(
        ["mode", "total ms", "GPS points/s", "speedup", "gated"],
        rows,
        title=(
            f"Parallel annotation scaling ({len(trajectories)} objects, "
            f"{total_points:,} points, {effective} effective core(s))"
        ),
    )
    save_result("parallel_scaling", text, data=data)

    # Sharding/merge overhead must stay negligible on the serial executor.
    assert data["modes"]["serial executor"]["speedup_vs_sequential"] > 0.8
    if gate_armed:
        best_pool = max(
            data["modes"][mode]["speedup_vs_sequential"] for mode in pools
        )
        assert best_pool > gate_target, (
            f"expected >{gate_target}x at {WORKERS} workers on {effective} cores, "
            f"got {best_pool:.2f}x"
        )
    else:
        pool_speedups = ", ".join(
            f"{mode}: {data['modes'][mode]['speedup_vs_sequential']:.2f}x"
            for mode in pools
        )
        print(f"\n[speedup gate disarmed on {effective} core(s); recorded {pool_speedups}]")
