"""``archive-batch``: the paper's offline mode over a mixed archive.

A seeded archive of smartphone people-days, taxi shifts and private cars is
cleaned and split (``ingest_stream``), annotated by
``repro.api.annotate_many(..., workers=0, store=..., persist=True)`` with the
default dispatch into a fresh SQLite store, then read back per trajectory
(``load_trajectory``, ``episodes_for``, ``annotations_for``) and summarised
(``category_histogram``, ``stop_move_summary``).  No service, WAL, IPC frame
or HTTP code runs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import api
from repro.core import PipelineConfig
from repro.core.pipeline import SeMiTriPipeline
from repro.core.points import RawTrajectory
from repro.parallel.context import GeoContext
from repro.store.store import SemanticTrajectoryStore

from perfbench import data
from perfbench.common import Pass, RunReport, cpu_seconds, median, overhead_pct
from perfbench.streams import warm_up
from perfbench.trace import STAGES, Tracer, stage_metrics, wrap_stages, wrap_store

#: GPS fixes per object class: people-days, taxi shifts, private cars.
PEOPLE_EVENTS = 4200
TAXI_EVENTS = 2400
CAR_EVENTS = 11000


@dataclass
class ArchiveInputs:
    geo: data.Geography
    config: PipelineConfig
    streams: data.Streams
    references: Dict[str, data.ObjectReference]
    warm_trajectory: RawTrajectory


def build_inputs(seed: int, work_dir: str) -> ArchiveInputs:
    geo = data.Geography()
    streams = data.to_streams(
        data.up_to(data.people(geo, 24, 1, seed), PEOPLE_EVENTS),
        data.up_to(data.taxis(geo, 10, 4, seed), TAXI_EVENTS),
        data.up_to(data.cars(geo, 120, seed, trips=2), CAR_EVENTS),
    )
    config = PipelineConfig()
    context = GeoContext.build(geo.fresh_sources(), config)
    references = data.reference_for(streams, config, context)
    warm = data.cars(geo, 1, seed + 1, trips=2, prefix="warm")[0]
    return ArchiveInputs(geo, config, streams, references, warm)


def prepare(config: PipelineConfig, streams: data.Streams) -> List[RawTrajectory]:
    """Clean and split every archived stream into raw trajectories."""
    pipeline = SeMiTriPipeline(config)
    return [
        trajectory
        for object_id, points in streams.items()
        for trajectory in pipeline.ingest_stream(points, object_id=object_id)
    ]


def read_back(store: SemanticTrajectoryStore) -> int:
    """The analyst's read pass; returns the number of rows it returned."""
    rows = 0
    for trajectory_id in store.trajectory_ids():
        rows += 1 + len(store.load_trajectory(trajectory_id))
        for episode in store.episodes_for(trajectory_id):
            rows += 1 + len(store.annotations_for(episode["episode_id"]))
    rows += len(store.category_histogram())
    rows += len(store.stop_move_summary())
    return rows


def setup(inputs: ArchiveInputs) -> Tuple[GeoContext, float]:
    started = time.perf_counter()
    context = GeoContext.build(inputs.geo.fresh_sources(), inputs.config)
    warm_up(context, inputs.warm_trajectory)
    return context, time.perf_counter() - started


def batch_pass(
    inputs: ArchiveInputs, store_path: str, report: RunReport, read_rates: List[float]
) -> None:
    context, setup_s = setup(inputs)
    report.setups.append(setup_s)
    store = SemanticTrajectoryStore(store_path)
    try:
        events = sum(len(points) for points in inputs.streams.values())
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        raw = prepare(inputs.config, inputs.streams)
        results = api.annotate_many(raw, context=context, workers=0, store=store, persist=True)
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu0
        read_started = time.perf_counter()
        rows = read_back(store)
        read_rates.append(rows / (time.perf_counter() - read_started))
        report.attempted += events
        report.passes.append(Pass(events, wall, cpu))
        report.latencies_ms.extend([wall * 1000.0] * len(results))
        objects = sorted(inputs.streams)
        report.problems.extend(data.check_results(results, inputs.references, objects))
        got = data.store_rows(store)
        want = data.expected_rows(inputs.references, objects)
        if got != want:
            report.problems.append(f"store rows {got} != reference {want}")
    finally:
        store.close()
        os.remove(store_path)


def measure(inputs: ArchiveInputs, seconds: float, work_dir: str) -> RunReport:
    report = RunReport()
    read_rates: List[float] = []
    store_path = os.path.join(work_dir, "archive.sqlite")
    started = time.perf_counter()
    while not report.problems:
        batch_pass(inputs, store_path, report, read_rates)
        elapsed = time.perf_counter() - started
        if len(report.passes) >= 3 and elapsed * (1 + 1 / len(report.passes)) > seconds:
            break
    report.layers["store.read_rows_per_s"] = median(read_rates)
    return report


def traced(inputs: ArchiveInputs, seconds: float, work_dir: str, tracer: Tracer) -> RunReport:
    """Untraced passes, traced passes, then one traced in-process sequential
    pass whose stage self times stand in for the pool workers' (their spans
    stay in the worker processes)."""
    from repro.core.cpu import effective_cpu_count
    from repro.engine import executors

    report = measure(inputs, seconds * 0.4, work_dir)
    shards: List[list] = []
    wrap_stages(tracer)
    wrap_store(tracer)
    tracer.wrap(
        executors,
        "dispatch_shards",
        "parallel.dispatch",
        on_call=lambda result, *args: shards.extend(result),
    )
    try:
        traced_report = measure(inputs, seconds * 0.4, work_dir)
        sequential_mark = tracer.mark()
        context, _ = setup(inputs)
        with tracer.span("parallel.sequential_pass"):
            raw = prepare(inputs.config, inputs.streams)
            api.annotate_many(raw, context=context, workers=1)
    finally:
        tracer.restore()
    layers = report.layers
    events = sum(len(points) for points in inputs.streams.values())
    trajectories = sum(len(ref.canonical) for ref in inputs.references.values())
    stage = tracer.by_name(since=sequential_mark)
    stage_self = sum(stage[name]["self"] for name in STAGES)
    loads = [sum(len(trajectory) for _, trajectory in shard[1]) for shard in shards]
    whole = tracer.by_name(until=sequential_mark)
    rows_per_pass = sum(data.expected_rows(inputs.references, sorted(inputs.streams)).values())
    commits = tracer.durations("store.commit", until=sequential_mark)
    layers.update(
        {
            "parallel.context_build_s": median(report.setups),
            "parallel.shard_skew": max(loads) / (sum(loads) / len(loads)),
            "parallel.efficiency": stage_self
            / (effective_cpu_count() * median([p.wall_s for p in traced_report.passes])),
            **stage_metrics(stage, events, trajectories),
            "store.commit_ms": median(commits) * 1e3,
            "store.us_per_row_written": whole["store.commit"]["total"]
            / (rows_per_pass * len(traced_report.passes))
            * 1e6,
            "store.us_per_row_read": 1e6 / layers["store.read_rows_per_s"],
            "trace.overhead_pct": overhead_pct(report, traced_report),
        }
    )
    report.attempted += traced_report.attempted
    report.problems.extend(traced_report.problems)
    return report


def run(
    inputs: ArchiveInputs, seconds: float, work_dir: str, tracer: Optional[Tracer]
) -> RunReport:
    if tracer is None:
        return measure(inputs, seconds, work_dir)
    return traced(inputs, seconds, work_dir, tracer)
