"""Store concurrency: out-of-order sharded results commit like a single writer.

:func:`~repro.engine.executors.merge_shard_results` receives per-shard
results in arbitrary completion order (from a process pool, or in-process
from several producer threads).  With a persisting plan its deferred commit
must produce exactly the row set, row order and autoincrement identifiers of
a sequential single-writer run — atomically when any row is rejected, and
re-sending the identical batch when a ``retry`` policy retries the commit.
"""

from __future__ import annotations

import queue
import threading
from typing import List, Tuple

import pytest

from repro.core.annotations import activity_annotation
from repro.core.config import PipelineConfig, StopMoveConfig
from repro.core.episodes import Episode
from repro.core.errors import StoreError
from repro.core.pipeline import LayerAnnotators, PipelineResult
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine.executors import merge_shard_results
from repro.engine.plan import Plan
from repro.faults.inject import FaultInjector, FaultPlan
from repro.preprocessing.stops import StopMoveDetector
from repro.store.store import SemanticTrajectoryStore


def _make_workload(count: int = 8) -> List[Tuple[RawTrajectory, List[Episode]]]:
    """Trajectories with real segmented episodes and an annotation each."""
    detector = StopMoveDetector(StopMoveConfig())
    workload = []
    for index in range(count):
        points = []
        t = 0.0
        for i in range(6):  # move
            points.append(SpatioTemporalPoint(50.0 * i, 10.0 * index, t))
            t += 10.0
        for i in range(5):  # dwell
            points.append(SpatioTemporalPoint(300.0 + 0.1 * i, 10.0 * index, t))
            t += 90.0
        trajectory = RawTrajectory(
            points, object_id=f"obj{index % 3}", trajectory_id=f"obj{index % 3}-t{index}"
        )
        episodes = detector.segment(trajectory)
        assert episodes
        episodes[0].annotations.append(
            activity_annotation("errand", category=f"cat-{index}")
        )
        workload.append((trajectory, episodes))
    return workload


def _results(workload) -> List[PipelineResult]:
    return [PipelineResult(trajectory, episodes) for trajectory, episodes in workload]


def _persisting_plan(store: SemanticTrajectoryStore, config=None, faults=None) -> Plan:
    """A plan whose deferred commit writes to ``store`` (no annotation layers)."""
    return Plan.compile(
        config=config,
        annotators=LayerAnnotators(),
        store=store,
        persist=True,
        faults=faults,
    )


def _single_writer_store(workload) -> SemanticTrajectoryStore:
    store = SemanticTrajectoryStore()
    for trajectory, episodes in workload:
        store.save_trajectory(trajectory)
        store.save_episodes(episodes)
    return store


def _assert_stores_identical(got: SemanticTrajectoryStore, want: SemanticTrajectoryStore):
    assert got.stop_move_summary() == want.stop_move_summary()
    assert got.annotation_count() == want.annotation_count()
    assert got.trajectory_ids() == want.trajectory_ids()
    for trajectory_id in want.trajectory_ids():
        want_rows = want.episodes_for(trajectory_id)
        got_rows = got.episodes_for(trajectory_id)
        assert got_rows == want_rows  # includes autoincrement episode ids
        for row in want_rows:
            assert got.annotations_for(row["episode_id"]) == want.annotations_for(
                row["episode_id"]
            )


def test_interleaved_shard_commits_match_single_writer():
    """Shards finishing out of order still commit single-writer rows."""
    workload = _make_workload()
    reference = _single_writer_store(workload)
    results = _results(workload)

    store = SemanticTrajectoryStore()
    # Completion order scrambled across 3 shards: last shard reports first.
    shard_results = [(order % 3, [(order, results[order])]) for order in (7, 2, 5, 0, 3, 6, 1, 4)]
    merged = merge_shard_results(_persisting_plan(store), len(workload), shard_results)
    assert merged == results  # input order, whatever the completion order

    _assert_stores_identical(store, reference)
    reference.close()
    store.close()


def test_threaded_shard_adds_match_single_writer():
    """Shard results produced concurrently (one thread per shard) stay consistent."""
    workload = _make_workload()
    reference = _single_writer_store(workload)
    results = _results(workload)

    completed: "queue.Queue[Tuple[int, List[Tuple[int, PipelineResult]]]]" = queue.Queue()
    shards = {0: [0, 3, 6], 1: [1, 4, 7], 2: [2, 5]}

    def produce(shard_index: int, orders: List[int]) -> None:
        for order in orders:
            completed.put((shard_index, [(order, results[order])]))

    threads = [
        threading.Thread(target=produce, args=(shard_index, orders))
        for shard_index, orders in shards.items()
    ]
    for thread in threads:
        thread.start()
    store = SemanticTrajectoryStore()
    merged = merge_shard_results(
        _persisting_plan(store),
        len(workload),
        (completed.get(timeout=10.0) for _ in range(len(workload))),
    )
    for thread in threads:
        thread.join()
    assert merged == results

    _assert_stores_identical(store, reference)
    reference.close()
    store.close()


def test_commit_is_atomic_on_rejected_row():
    """A duplicate trajectory in the batch rolls the whole commit back."""
    workload = _make_workload(count=4)
    store = SemanticTrajectoryStore()
    # The first trajectory is already stored -> the batch must be rejected.
    store.save_trajectory(workload[0][0])
    shard_results = [
        (order % 2, [(order, result)]) for order, result in enumerate(_results(workload))
    ]
    with pytest.raises(StoreError):
        merge_shard_results(_persisting_plan(store), len(workload), shard_results)
    # Nothing from the batch landed.
    assert store.trajectory_count() == 1
    assert store.episode_count() == 0
    assert store.annotation_count() == 0
    store.close()


def test_multiple_commits_append_in_order():
    """Successive commits extend the store exactly like continued sequential writes."""
    workload = _make_workload()
    reference = _single_writer_store(workload)
    results = _results(workload)

    store = SemanticTrajectoryStore()
    plan = _persisting_plan(store)
    first, second = results[:3], results[3:]
    merge_shard_results(plan, 3, [(0, [(order, first[order])]) for order in (1, 0, 2)])
    merge_shard_results(plan, 5, [(1, [(order, second[order])]) for order in (2, 4, 0, 1, 3)])

    _assert_stores_identical(store, reference)
    reference.close()
    store.close()


def test_retry_policy_resends_the_same_batch():
    """A failed deferred commit is retried with the identical merged batch."""
    workload = _make_workload()
    reference = _single_writer_store(workload)
    results = _results(workload)

    store = SemanticTrajectoryStore()
    attempts: List[List[str]] = []
    save = store.save_annotated_trajectories

    def recording_save(items, store_points=True):
        items = list(items)
        attempts.append([trajectory.trajectory_id for trajectory, _ in items])
        return save(items, store_points=store_points)

    store.save_annotated_trajectories = recording_save  # type: ignore[method-assign]
    config = PipelineConfig().with_overrides(
        {"failure.mode": "retry", "failure.max_retries": 2, "failure.backoff_base": 0.0}
    )
    plan = _persisting_plan(
        store, config=config, faults=FaultInjector(FaultPlan.parse("commit:n=1,times=1"))
    )
    shard_results = [(order % 3, [(order, results[order])]) for order in (7, 2, 5, 0, 3, 6, 1, 4)]
    merged = merge_shard_results(plan, len(workload), shard_results)
    assert merged == results
    # The first commit failed and rolled back; the retry re-sent the same
    # rows in the same (input) order and committed them exactly once.
    expected = [trajectory.trajectory_id for trajectory, _ in workload]
    assert attempts == [expected, expected]
    log = plan.failure_log
    assert log is not None and (log.failures, log.retries) == (1, 1)

    _assert_stores_identical(store, reference)
    reference.close()
    store.close()
