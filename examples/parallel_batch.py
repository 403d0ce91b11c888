"""Sharded parallel batch annotation over a shared geographic snapshot.

This example builds a private-car fleet, snapshots the geographic sources
once into an immutable :class:`GeoContext` (frozen R-trees, POI grid, HMM)
and annotates the whole fleet three ways:

* sequentially with :func:`repro.annotate_many`,
* on a :class:`SequentialExecutor` with deferred write-back (the merge and
  one-transaction commit of the sharded path, zero processes — the
  determinism baseline), and
* on a warm :class:`ProcessPoolExecutor`, where every worker annotates its
  shards against the same snapshot.

``repro.annotate_many(..., workers=4)`` runs the last of these in one call,
with a pool that lives for that call; driving the executor directly keeps
the pool warm across batches.  The example verifies that all three outputs
are byte-identical and prints the wall-clock comparison and the
per-trajectory summary.

Run it with::

    python examples/parallel_batch.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro import AnnotationSources, PipelineConfig
from repro.core.cpu import effective_cpu_count
from repro.datasets import PrivateCarSimulator, SyntheticWorld, WorldConfig
from repro.engine import Plan, ProcessPoolExecutor, SequentialExecutor
from repro.parallel import GeoContext, canonical_bytes
from repro.store.store import SemanticTrajectoryStore

WORKERS = 4


def main() -> None:
    # 1. Geographic substrate and a fleet of private cars.
    world = SyntheticWorld(WorldConfig(size=6000.0, poi_count=800, seed=7))
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    dataset = PrivateCarSimulator(world, car_count=8, trips_per_car=3, seed=23).generate()
    trajectories = dataset.trajectories
    config = PipelineConfig.for_vehicles()

    # 2. Build the read-only snapshot once: indexes, observation model, HMM.
    context = GeoContext.build(sources, config)
    print(
        f"snapshot ready: layers={context.available_layers()}, "
        f"{len(trajectories)} trajectories from {len({t.object_id for t in trajectories})} cars"
    )

    # 3. Sequential reference.
    started = time.perf_counter()
    sequential = repro.annotate_many(trajectories, context=context)
    sequential_s = time.perf_counter() - started

    # 4. Serial executor: merge + deferred commit without processes.
    started = time.perf_counter()
    serial = SequentialExecutor(deferred_writeback=True).run(
        Plan.from_context(context), trajectories
    )
    serial_s = time.perf_counter() - started

    # 5. Process pool over the shared snapshot, persisting the merged batch
    #    in input order in one transaction.
    store = SemanticTrajectoryStore()
    with ProcessPoolExecutor(workers=WORKERS) as pool:
        # Warm the pool with a full-width batch: a single-trajectory batch
        # would collapse to one shard and never start the workers.
        pool.run(Plan.from_context(context), trajectories)
        started = time.perf_counter()
        parallel = pool.run(
            Plan.from_context(context, store=store, persist=True), trajectories
        )
        parallel_s = time.perf_counter() - started
    print(f"persisted via the merged commit: {store.stop_move_summary()}")

    # 6. Determinism guarantee: all three runs are byte-identical.
    assert canonical_bytes(sequential) == canonical_bytes(serial) == canonical_bytes(parallel)
    print("outputs byte-identical across sequential / serial executor / process pool")
    print(
        f"sequential {sequential_s * 1e3:6.0f} ms | serial executor {serial_s * 1e3:6.0f} ms | "
        f"process pool x{WORKERS} {parallel_s * 1e3:6.0f} ms "
        f"({effective_cpu_count()} cores usable)"
    )

    # 7. Per-trajectory summary, in input order as always.
    for result in parallel[:6]:
        modes = ", ".join(result.transport_modes()) or "-"
        print(
            f"  {result.trajectory.trajectory_id:10s} {len(result.stops)} stops / "
            f"{len(result.moves)} moves  modes: {modes}"
        )
    print(f"  ... {len(parallel) - 6} more")


if __name__ == "__main__":
    main()
