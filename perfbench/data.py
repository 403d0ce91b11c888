"""Seeded inputs and the sequential reference every run is checked against.

The geography (landuse cells, road network, POIs) is one fixed synthetic
city; the seed only varies the traffic.  Each workload's program input is a
set of per-object raw GPS point streams; the reference annotates each stream
on its own (``ingest_stream`` then sequential ``annotate_many``), so any
subset of objects can be checked against it and every result is keyed by
trajectory id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import PipelineConfig
from repro.core.episodes import EpisodeKind
from repro.core.errors import SourceError
from repro.core.pipeline import AnnotationSources, PipelineResult, SeMiTriPipeline
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.datasets import (
    PersonSimulator,
    PrivateCarSimulator,
    SyntheticWorld,
    TaxiFleetSimulator,
    WorldConfig,
)
from repro.lines.road_network import RoadNetwork
from repro.parallel.canonical import canonical_bytes
from repro.parallel.context import GeoContext
from repro.points.poi import PoiSource
from repro.regions.sources import RegionSource

#: Raw point stream per moving object, each in timestamp order.
Streams = Dict[str, List[SpatioTemporalPoint]]


class Geography:
    """The fixed city: its geographic elements, from which sources are indexed."""

    def __init__(self) -> None:
        world = SyntheticWorld(WorldConfig(size=8000.0, poi_count=2000, seed=7))
        self.world = world
        self._regions = world.region_source().regions
        self._segments = world.road_network().segments
        self._pois = world.poi_source().pois

    def fresh_sources(self) -> AnnotationSources:
        """Newly indexed sources over the same elements (nothing cached)."""
        return AnnotationSources(
            regions=RegionSource(self._regions, name="landuse"),
            road_network=RoadNetwork(self._segments),
            pois=PoiSource(self._pois, name="synthetic-pois"),
        )


def _retrying(make: Callable[[int], List[RawTrajectory]], seed: int) -> List[RawTrajectory]:
    """``make(seed)``, moving to the next derived seed when the simulator's
    random route lands on a disconnected part of the road network."""
    for attempt in range(50):
        try:
            return make(seed * 7919 + attempt)
        except SourceError:
            continue
    raise RuntimeError(f"no connected routes for generator seed {seed}")


def cars(
    geo: Geography,
    count: int,
    seed: int,
    trips: int = 1,
    prefix: str = "car",
    sample_interval: float = 40.0,
) -> List[RawTrajectory]:
    """``count`` private cars making ``trips`` purpose-driven trips each,
    reporting a fix every ``sample_interval`` seconds."""
    out: List[RawTrajectory] = []
    for index in range(count):
        trajectories = _retrying(
            lambda s: PrivateCarSimulator(
                geo.world,
                car_count=1,
                trips_per_car=trips,
                sample_interval=sample_interval,
                seed=s,
            )
            .generate()
            .trajectories,
            seed * 100_003 + index,
        )
        for trajectory in trajectories:
            out.append(
                RawTrajectory(
                    trajectory.points,
                    object_id=f"{prefix}{index}",
                    trajectory_id=f"{prefix}{index}-day0",
                )
            )
    return out


def taxis(geo: Geography, count: int, fares: int, seed: int) -> List[RawTrajectory]:
    """``count`` taxis driving ``fares`` fares in one shift each."""
    return _retrying(
        lambda s: TaxiFleetSimulator(
            geo.world, taxi_count=count, days=1, fares_per_day=fares, seed=s
        )
        .generate()
        .trajectories,
        seed * 31 + 1,
    )


def people(geo: Geography, users: int, days: int, seed: int) -> List[RawTrajectory]:
    """Smartphone people-days: dense sampling, many stops, indoor gaps."""
    return _retrying(
        lambda s: PersonSimulator(geo.world, user_count=users, days_per_user=days, seed=s)
        .generate()
        .all_trajectories,
        seed * 37 + 2,
    )


def up_to(trajectories: Sequence[RawTrajectory], events: int) -> List[RawTrajectory]:
    """Whole objects, in generation order, until ``events`` GPS fixes are reached.

    Fixing each object class's event count (rather than its object count)
    keeps the amount of work nearly the same from one seed to the next.
    """
    chosen: List[RawTrajectory] = []
    taken: set = set()
    total = 0
    for trajectory in trajectories:
        if trajectory.object_id not in taken:
            if total >= events:
                continue
            taken.add(trajectory.object_id)
        chosen.append(trajectory)
        total += len(trajectory)
    if total < events:
        raise RuntimeError(f"generated {total} events, fewer than the {events} asked for")
    return chosen


def to_streams(*trajectory_lists: Sequence[RawTrajectory]) -> Streams:
    """Concatenate each object's trajectories into one raw point stream."""
    grouped: Dict[str, List[RawTrajectory]] = {}
    for trajectories in trajectory_lists:
        for trajectory in trajectories:
            grouped.setdefault(trajectory.object_id, []).append(trajectory)
    streams: Streams = {}
    for object_id in sorted(grouped):
        ordered = sorted(grouped[object_id], key=lambda trajectory: trajectory.points[0].t)
        points = [point for trajectory in ordered for point in trajectory.points]
        if any(b.t < a.t for a, b in zip(points, points[1:])):
            raise RuntimeError(f"generated stream of {object_id} is not in time order")
        streams[object_id] = points
    return streams


def merged_order(
    streams: Streams, seed: int, concurrency: Optional[int] = None
) -> List[Tuple[str, SpatioTemporalPoint]]:
    """All events of a fleet in one feed; each object keeps its own order.

    Without ``concurrency`` the feed follows the recorded timestamps, so
    objects whose days overlap interleave as they were recorded.  With it,
    objects join one after another in a seeded order, each shifted to start
    ``mean duration / concurrency`` after the previous one: a steady state of
    about ``concurrency`` live objects whose ends (and so the trajectories
    they seal) spread evenly over the feed instead of piling up at its end.
    Ties are broken by a seeded rank; timestamps themselves are not changed.
    """
    ids = sorted(streams)
    random.Random(seed).shuffle(ids)
    rank = {object_id: position for position, object_id in enumerate(ids)}
    shift = {object_id: 0.0 for object_id in ids}
    if concurrency:
        durations = [points[-1].t - points[0].t for points in streams.values()]
        step = sum(durations) / len(durations) / concurrency
        shift = {
            object_id: rank[object_id] * step - streams[object_id][0].t for object_id in ids
        }
    events = [
        (point.t + shift[object_id], rank[object_id], index, object_id, point)
        for object_id, points in streams.items()
        for index, point in enumerate(points)
    ]
    events.sort(key=lambda event: event[:3])
    return [(object_id, point) for _, _, _, object_id, point in events]


@dataclass
class ObjectReference:
    """What the sequential pipeline makes of one object's stream."""

    canonical: Dict[str, bytes]
    """Canonical bytes per trajectory id."""
    rows: Dict[str, int]
    """Store row counts its results persist to."""
    seal_index: Dict[str, int]
    """Per trajectory id: the index in the object's raw stream of the event
    that seals it (the first event past its end), or the stream length when
    only the object's close seals it."""


def reference_for(
    streams: Streams, config: PipelineConfig, context: GeoContext
) -> Dict[str, ObjectReference]:
    """Per-object sequential reference (annotators shared via ``context``)."""
    pipeline = SeMiTriPipeline(config)
    references: Dict[str, ObjectReference] = {}
    for object_id, points in streams.items():
        raw = pipeline.ingest_stream(points, object_id=object_id)
        results = pipeline.annotate_many(raw, context.sources, annotators=context.annotators)
        seal_index: Dict[str, int] = {}
        cursor = 0
        for result in results:
            end = result.trajectory.end_time
            while cursor < len(points) and points[cursor].t <= end:
                cursor += 1
            seal_index[result.trajectory.trajectory_id] = cursor
        references[object_id] = ObjectReference(
            canonical={
                result.trajectory.trajectory_id: canonical_bytes([result]) for result in results
            },
            rows=row_counts(results),
            seal_index=seal_index,
        )
    return references


def row_counts(results: Sequence[PipelineResult]) -> Dict[str, int]:
    """The store rows ``results`` persist to, by table."""
    episodes = [episode for result in results for episode in result.episodes]
    return {
        "trajectories": len(results),
        "gps_records": sum(len(result.trajectory) for result in results),
        "stops": sum(1 for episode in episodes if episode.kind is EpisodeKind.STOP),
        "moves": sum(1 for episode in episodes if episode.kind is EpisodeKind.MOVE),
        "annotations": sum(len(episode.annotations) for episode in episodes),
    }


def check_results(
    results: Sequence[PipelineResult],
    references: Dict[str, ObjectReference],
    object_ids: Sequence[str],
) -> List[str]:
    """Mismatches between ``results`` and the reference of ``object_ids``."""
    expected: Dict[str, bytes] = {}
    for object_id in object_ids:
        expected.update(references[object_id].canonical)
    got: Dict[str, bytes] = {}
    problems: List[str] = []
    for result in results:
        trajectory_id = result.trajectory.trajectory_id
        if trajectory_id in got:
            problems.append(f"trajectory {trajectory_id} delivered twice")
        got[trajectory_id] = canonical_bytes([result])
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing:
        problems.append(f"{len(missing)} trajectories missing, e.g. {missing[:3]}")
    if extra:
        problems.append(f"{len(extra)} unexpected trajectories, e.g. {extra[:3]}")
    differing = sorted(
        trajectory_id
        for trajectory_id in set(expected) & set(got)
        if expected[trajectory_id] != got[trajectory_id]
    )
    if differing:
        problems.append(f"{len(differing)} trajectories differ, e.g. {differing[:3]}")
    return problems


def expected_rows(references: Dict[str, ObjectReference], object_ids: Sequence[str]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for object_id in object_ids:
        for table, count in references[object_id].rows.items():
            total[table] = total.get(table, 0) + count
    return total


def store_rows(store) -> Dict[str, int]:
    """The same row counts, read back from a store."""
    counts = dict(store.stop_move_summary())
    counts["annotations"] = store.annotation_count()
    return counts
