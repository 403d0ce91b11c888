"""Unit coverage for the parallel batch path: sharding, executor choice,
snapshot rules, freezing and pool cleanup.

``repro.annotate_many(..., workers=W)`` compiles a plan from a
:class:`GeoContext` snapshot and runs it on a
:class:`~repro.engine.executors.ProcessPoolExecutor` (or, with the serial
executor, a deferred-write-back :class:`SequentialExecutor`); these tests pin
what that path promises.
"""

from __future__ import annotations

import pytest

import repro
import repro.engine
from repro.core import AnnotationSources, PipelineConfig, SeMiTriPipeline
from repro.core.config import ParallelConfig
from repro.core.errors import ConfigurationError
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine import ProcessPoolExecutor, SequentialExecutor
from repro.engine import executors as executors_mod
from repro.engine.executors import dispatch_shards
from repro.engine.plan import Plan
from repro.parallel import GeoContext, canonical_bytes


def _trajectories(objects: int = 5, per_object: int = 3, length: int = 6):
    trajectories = []
    for obj in range(objects):
        for segment in range(per_object):
            points = [
                SpatioTemporalPoint(100.0 * obj + 5.0 * i, 40.0 * segment, 30.0 * i)
                for i in range(length + obj)  # skewed: later objects are heavier
            ]
            trajectories.append(
                RawTrajectory(points, object_id=f"o{obj}", trajectory_id=f"o{obj}-t{segment}")
            )
    return trajectories


def _shards(trajectories, workers: int):
    """The shards a default-config pool of ``workers`` processes builds."""
    parallel = ParallelConfig()
    count = max(1, min(workers * parallel.shards_per_worker, len(trajectories)))
    return dispatch_shards(trajectories, count, parallel.dispatch)


def test_sharding_groups_by_object_and_is_deterministic():
    trajectories = _trajectories()
    shards = _shards(trajectories, workers=2)
    again = _shards(trajectories, workers=2)
    assert [(i, [t.trajectory_id for _, t in items]) for i, items in shards] == [
        (i, [t.trajectory_id for _, t in items]) for i, items in again
    ]
    # All trajectories of one object land in the same shard.
    placement = {}
    seen_orders = set()
    for shard_index, items in shards:
        for order, trajectory in items:
            assert order not in seen_orders
            seen_orders.add(order)
            placement.setdefault(trajectory.object_id, set()).add(shard_index)
    assert seen_orders == set(range(len(trajectories)))
    assert all(len(shard_set) == 1 for shard_set in placement.values())
    # Requested parallelism is actually used.
    assert len(shards) > 1


def test_shard_count_never_exceeds_object_count():
    shards = _shards(_trajectories(objects=2), workers=8)
    assert len(shards) <= 2


def test_annotate_many_requires_sources_or_context():
    with pytest.raises(ConfigurationError):
        repro.annotate_many(_trajectories(objects=1), workers=2)


def test_runner_defaults_come_from_pipeline_config(annotation_sources, monkeypatch):
    """``annotate_many`` picks its executor from ``config.parallel`` and ``workers``."""
    built = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, **kwargs):
            built.append(("process", kwargs["workers"]))
            super().__init__(**kwargs)

        def run(self, plan, trajectories):
            return []

    class RecordingSequential(SequentialExecutor):
        def __init__(self, deferred_writeback: bool = False):
            built.append(("deferred" if deferred_writeback else "sequential", None))
            super().__init__(deferred_writeback)

        def run(self, plan, trajectories):
            return []

    # The entry point imports its executors from the engine package.
    monkeypatch.setattr(repro.engine, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(repro.engine, "SequentialExecutor", RecordingSequential)
    context = GeoContext.build(annotation_sources, PipelineConfig())
    batch = _trajectories(objects=2, per_object=1)

    serial = PipelineConfig(parallel=ParallelConfig(workers=3, executor="serial"))
    serial_context = GeoContext(annotation_sources, serial, annotators=context.annotators)
    repro.annotate_many(batch, context=serial_context)
    repro.annotate_many(batch, context=context, workers=2)
    repro.annotate_many(batch, context=context, workers=1)
    repro.annotate_many(batch, context=context)
    forced = PipelineConfig(parallel=ParallelConfig(executor="process"))
    forced_context = GeoContext(annotation_sources, forced, annotators=context.annotators)
    repro.annotate_many(batch, context=forced_context)
    assert built == [
        ("deferred", None),
        ("process", 2),
        ("sequential", None),
        ("sequential", None),
        ("process", 1),
    ]
    with pytest.raises(ConfigurationError):
        repro.annotate_many(batch, context=context, workers=-1)


def test_empty_batch_returns_empty(annotation_sources):
    context = GeoContext.build(annotation_sources, PipelineConfig())
    assert repro.annotate_many([], context=context, workers=2) == []
    with ProcessPoolExecutor(workers=2) as executor:
        assert executor.run(Plan.from_context(context), []) == []
        assert executor._pool is None  # nothing to shard, nothing spawned
    deferred = SequentialExecutor(deferred_writeback=True)
    assert deferred.run(Plan.from_context(context), []) == []


def test_geo_context_freezes_source_indexes(annotation_sources):
    """Building a snapshot (what the parallel path does) freezes every index."""
    config = PipelineConfig.for_vehicles()
    context = GeoContext.build(annotation_sources, config)
    assert annotation_sources.road_network._index.frozen
    assert annotation_sources.regions._index.frozen
    assert annotation_sources.pois._index.frozen
    assert context.available_layers() == ["region", "line", "point"]
    assert context.windowed_matcher() is not None


def test_runner_rejects_context_with_conflicting_config(annotation_sources):
    """Serial and process executors must segment identically: configs must match."""
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    with pytest.raises(ConfigurationError):
        repro.annotate_many(
            _trajectories(objects=1), context=context, config=PipelineConfig.for_people()
        )
    with pytest.raises(ConfigurationError):  # sources that are not the snapshot's
        repro.annotate_many(_trajectories(objects=1), AnnotationSources(), context=context)


def test_dropped_pool_executor_releases_workers_and_registry(annotation_sources):
    """GC of a never-closed pool stops its workers and clears the fork registry."""
    import gc

    config = PipelineConfig.for_vehicles()
    context = GeoContext.build(annotation_sources, config)
    executor = ProcessPoolExecutor(workers=2)
    executor.run(Plan.from_context(context), _trajectories(objects=4, per_object=1))
    pool = executor._pool
    assert pool is not None and len(executors_mod._FORK_CONTEXTS) >= 1
    before = len(executors_mod._FORK_CONTEXTS)
    del executor
    gc.collect()
    assert len(executors_mod._FORK_CONTEXTS) == before - 1
    with pytest.raises(RuntimeError):  # executor was shut down by the finalizer
        pool.submit(int)


def test_engine_rejects_config_conflicting_with_snapshot(annotation_sources):
    """A GeoContext carries its own config; a different explicit one is an error."""
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    executor = repro.stream(context)  # snapshot config adopted
    assert executor.plan.config == PipelineConfig.for_vehicles()
    assert repro.stream(context, config=PipelineConfig.for_vehicles()) is not None
    with pytest.raises(ConfigurationError):
        repro.stream(context, config=PipelineConfig.for_people())
    with pytest.raises(ConfigurationError):
        # An explicitly requested default config is also a conflict here.
        repro.stream(context, config=PipelineConfig())


@pytest.mark.parametrize(
    "entry_point",
    ["annotate_many_workers_1", "annotate_many_workers_2", "compile_plan", "stream", "serve"],
)
def test_every_entry_point_applies_the_snapshot_config_rule(
    entry_point, annotation_sources, car_dataset
):
    """One rule everywhere: an explicit config must equal the snapshot's."""
    context = GeoContext.build(annotation_sources, PipelineConfig.for_vehicles())
    batch = car_dataset.trajectories[:2]
    calls = {
        "annotate_many_workers_1": lambda **kw: repro.annotate_many(
            batch, context=context, workers=1, **kw
        ),
        "annotate_many_workers_2": lambda **kw: repro.annotate_many(
            batch, context=context, workers=2, **kw
        ),
        "compile_plan": lambda **kw: repro.compile_plan(context=context, **kw),
        "stream": lambda **kw: repro.stream(context, **kw),
        "serve": lambda **kw: repro.serve(context, **kw),
    }
    call = calls[entry_point]
    call()  # the snapshot's config rules
    call(config=PipelineConfig.for_vehicles())  # an equal explicit config is fine
    with pytest.raises(ConfigurationError):
        call(config=PipelineConfig.for_people())


def test_serial_runner_matches_sequential_pipeline(annotation_sources, car_dataset):
    """The serial-executor run of ``annotate_many(workers=4)`` equals sequential."""
    config = PipelineConfig.for_vehicles()
    sequential = SeMiTriPipeline(config).annotate_many(
        car_dataset.trajectories, annotation_sources
    )
    parallel = repro.annotate_many(
        car_dataset.trajectories,
        annotation_sources,
        config=config,
        workers=4,
        overrides={"parallel.executor": "serial"},
    )
    assert canonical_bytes(parallel) == canonical_bytes(sequential)
