"""Driving a live :class:`AnnotationService` pass: set-up, feed, drain, check.

Shared by the two streaming workloads.  A pass builds the service from
freshly indexed sources (timed as set-up), feeds a prepared list of items,
drains, and checks every sealed trajectory and store row against the
sequential reference before anything it measured is kept.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.core import PipelineConfig
from repro.core.pipeline import PipelineResult
from repro.core.points import SpatioTemporalPoint
from repro.parallel.context import GeoContext
from repro.store.store import SemanticTrajectoryStore

from perfbench import data

EVENT, CLOSE = "event", "close"


@dataclass
class Feed:
    """The items one pass sends, in order, and where each trajectory seals.

    ``items`` are ``(kind, object_id, point)``; ``seal_position`` maps a
    trajectory id to the position in ``items`` of the event (or close) that
    seals it, per the reference's ``seal_index``.
    """

    object_ids: List[str]
    items: List[Tuple[str, str, Optional[SpatioTemporalPoint]]]
    seal_position: Dict[str, int]
    events: int


def build_feed(
    streams: data.Streams,
    references: Dict[str, data.ObjectReference],
    object_ids: Sequence[str],
    seed: int,
    concurrency: Optional[int] = None,
) -> Feed:
    """Merged events of ``object_ids`` (see :func:`data.merged_order`), each
    object closed right after its last event."""
    chosen = {object_id: streams[object_id] for object_id in object_ids}
    merged = data.merged_order(chosen, seed, concurrency)
    remaining = {object_id: len(points) for object_id, points in chosen.items()}
    seen = {object_id: 0 for object_id in chosen}
    position_of: Dict[Tuple[str, int], int] = {}
    items: List[Tuple[str, str, Optional[SpatioTemporalPoint]]] = []
    for object_id, point in merged:
        position_of[(object_id, seen[object_id])] = len(items)
        items.append((EVENT, object_id, point))
        seen[object_id] += 1
        remaining[object_id] -= 1
        if remaining[object_id] == 0:
            position_of[(object_id, seen[object_id])] = len(items)
            items.append((CLOSE, object_id, None))
    seal_position = {
        trajectory_id: position_of[(object_id, index)]
        for object_id in chosen
        for trajectory_id, index in references[object_id].seal_index.items()
    }
    return Feed(list(object_ids), items, seal_position, len(merged))


def warm_up(context: GeoContext, trajectory) -> None:
    """Build the lazily constructed index and annotator state in-process."""
    api.annotate_many([trajectory], context=context, workers=1)


class ServiceRig:
    """One service (and its store) built from fresh sources, with set-up timed."""

    def __init__(
        self,
        geo: data.Geography,
        config: PipelineConfig,
        warm_trajectory,
        store_path: Optional[str],
    ):
        self.sealed_at: Dict[str, float] = {}
        started = time.perf_counter()
        context = GeoContext.build(geo.fresh_sources(), config)
        warm_up(context, warm_trajectory)
        self.context_build_s = time.perf_counter() - started
        self.store_path = store_path
        self.store = SemanticTrajectoryStore(store_path) if store_path else None
        self.service = api.serve(
            context,
            store=self.store,
            persist=self.store is not None,
            on_result=self._on_result,
        )
        self.started_at = started
        self.setup_s = 0.0
        #: Open sessions sampled by a traced HTTP pass after each request.
        self.sessions_sampled: List[int] = []

    def _on_result(self, result: PipelineResult) -> None:
        self.sealed_at[result.trajectory.trajectory_id] = time.perf_counter()

    async def start(self) -> None:
        await self.service.start()
        self.setup_s = time.perf_counter() - self.started_at

    async def close(self) -> None:
        try:
            await asyncio.wait_for(self.service.shutdown(), timeout=30.0)
        finally:
            if self.store is not None:
                self.store.close()
            if self.store_path and os.path.exists(self.store_path):
                os.remove(self.store_path)

    def check(
        self,
        references: Dict[str, data.ObjectReference],
        object_ids: Sequence[str],
        results: Sequence[PipelineResult],
    ) -> List[str]:
        """Reference parity, store rows and the service's own no-drop ledger."""
        service = self.service
        problems = data.check_results(results, references, object_ids)
        if self.store is not None:
            got = data.store_rows(self.store)
            want = data.expected_rows(references, object_ids)
            if got != want:
                problems.append(f"store rows {got} != reference {want}")
        if service.dropped_events:
            problems.append(f"{service.dropped_events} events dropped")
        if service.stats.errors:
            problems.append(f"{service.stats.errors} shard batch errors")
        if service.quarantined_count:
            problems.append(f"{service.quarantined_count} trajectories quarantined")
        return problems

    def failures(self) -> int:
        service = self.service
        return service.dropped_events + service.stats.errors + service.quarantined_count


def latencies_ms(
    feed: Feed, sealed_at: Dict[str, float], sent_or_due: Sequence[float]
) -> List[float]:
    """Per sealed trajectory: its sealing item's due (or send) time to its
    ``on_result`` call."""
    return [
        (sealed_at[trajectory_id] - sent_or_due[position]) * 1000.0
        for trajectory_id, position in feed.seal_position.items()
        if trajectory_id in sealed_at
    ]

