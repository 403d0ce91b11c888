"""``fleet-stream``: live vehicle ingest through the default service.

Several hundred private cars plus a few taxis, fed in-process by one
generator task into ``repro.api.serve`` with the default ``ServiceConfig``
(shards and transport ``auto``), the crash-safe WAL on and results committed
to a SQLite store at drain.  Cars join the feed one after another, so the
service sees a steady state of about ``CONCURRENCY`` live sessions.  Phase 1
offers the whole fleet open-loop at a fixed rate and times each sealed
trajectory from its sealing event's due time; phase 2 repeats closed-loop
passes over the taxis and the first cars, as fast as the service accepts,
for throughput and CPU per event.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import PipelineConfig
from repro.core.pipeline import PipelineResult
from repro.engine.executors import MicroBatchExecutor
from repro.engine.plan import Plan
from repro.parallel.context import GeoContext
from repro.service.workers import DRAIN_FRAME, ShardProcessHandle, decode_frame

from perfbench import data
from perfbench.archive import read_back
from perfbench.common import Pass, RunReport, cpu_seconds, median, overhead_pct, percentile
from perfbench.liveness import Stalled, guarded
from perfbench.streams import CLOSE, Feed, ServiceRig, build_feed, latencies_ms
from perfbench.trace import (
    Tracer,
    stage_metrics,
    wrap_engine,
    wrap_service,
    wrap_stages,
    wrap_store,
)

CARS = 750
#: Seconds between a car's fixes: sparse telematics, short sessions.
CAR_SAMPLE_INTERVAL_S = 120.0
#: GPS fixes of the taxis (long shifts, where map matching dominates).
TAXI_EVENTS = 2300
#: Cars live at once in the steady state the feeds replay.
CONCURRENCY = 100
#: Objects of each closed-loop pass: every taxi plus cars up to this count.
CLOSED_OBJECTS = 200
#: Offered rate of the open-loop phase (the whole fleet), about a fifth of
#: the closed-loop knee on two cores: low enough that the host's own speed
#: swings do not push the service into queueing.
RATE_EV_PER_S = 1200.0
STALL_S = 20.0


@dataclass
class FleetInputs:
    geo: data.Geography
    config: PipelineConfig
    streams: data.Streams
    references: Dict[str, data.ObjectReference]
    warm_trajectory: object
    open_feed: Feed
    """The open loop's feed: the whole fleet."""
    closed_feed: Feed
    """A closed-loop pass's feed: every taxi and the first cars of the
    seeded order."""


def build_inputs(seed: int, work_dir: str) -> FleetInputs:
    geo = data.Geography()
    streams = data.to_streams(
        data.cars(geo, CARS, seed, sample_interval=CAR_SAMPLE_INTERVAL_S),
        data.up_to(data.taxis(geo, 6, 6, seed), TAXI_EVENTS),
    )
    config = PipelineConfig.for_vehicles().with_overrides(
        {
            "streaming.apply_cleaning": True,
            "service.journal_dir": os.path.join(work_dir, "wal"),
        }
    )
    context = GeoContext.build(geo.fresh_sources(), config)
    references = data.reference_for(streams, config, context)
    taxi_ids = [object_id for object_id in sorted(streams) if object_id.startswith("taxi")]
    car_ids = [object_id for object_id in sorted(streams) if not object_id.startswith("taxi")]
    random.Random(seed).shuffle(car_ids)
    order = taxi_ids + car_ids
    warm = data.cars(geo, 1, seed + 1, trips=2, prefix="warm")[0]
    return FleetInputs(
        geo,
        config,
        streams,
        references,
        warm,
        build_feed(streams, references, order, seed, CONCURRENCY),
        build_feed(streams, references, order[:CLOSED_OBJECTS], seed, CONCURRENCY),
    )


async def _send(
    rig: ServiceRig, feed: Feed, due: List[float], stamps: List[float], sent: List[int]
) -> None:
    """Send ``feed`` in order; ``due`` empty means closed loop (no pacing).

    ``stamps`` receives each item's send time, ``sent[0]`` the items sent.
    """
    service = rig.service
    paced = bool(due)
    for position, (kind, object_id, point) in enumerate(feed.items):
        if paced:
            wait = due[position] - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
        stamps[position] = time.perf_counter()
        sent[0] = position
        if kind == CLOSE:
            await service.close_object(object_id)
        else:
            await service.ingest(object_id, point)


async def service_pass(
    inputs: FleetInputs,
    feed: Feed,
    rate: float,
    store_path: str,
    report: RunReport,
    late_ms: List[float],
    before_drain: Optional[Callable[[ServiceRig], None]] = None,
    after_drain: Optional[Callable[[ServiceRig], None]] = None,
) -> ServiceRig:
    """One service lifetime over ``feed``; appends its figures to ``report``.

    ``before_drain``/``after_drain`` let a traced run look at the WAL and
    the store; they run outside the timed window's figures only in traced
    runs, which publish no end-to-end metric.
    """
    rig = ServiceRig(inputs.geo, inputs.config, inputs.warm_trajectory, store_path)
    await rig.start()
    report.setups.append(rig.setup_s)
    report.facts.setdefault("transport", rig.service.transport)
    report.facts.setdefault("shards", rig.service.shard_count)
    stamps = [0.0] * len(feed.items)
    sent = [0]
    try:
        cpu0 = cpu_seconds()
        start = time.perf_counter() + (0.05 if rate else 0.0)
        due = [start + position / rate for position in range(len(feed.items))] if rate else []

        def progress() -> int:
            return sent[0] + len(rig.sealed_at)

        try:
            await guarded(_send(rig, feed, due, stamps, sent), progress, STALL_S)
            if before_drain is not None:
                before_drain(rig)
            results = await guarded(rig.service.drain(), progress, STALL_S)
        except Stalled as stall:
            unsent = sum(1 for kind, _, _ in feed.items[sent[0] :] if kind != CLOSE)
            report.failed += unsent + (len(feed.seal_position) - len(rig.sealed_at))
            report.problems.append(f"watchdog: {stall}")
            return rig
        first = due[0] if due else stamps[0]
        wall = time.perf_counter() - first
        if after_drain is not None:
            after_drain(rig)
        await rig.service.shutdown()
        cpu = cpu_seconds() - cpu0
        report.attempted += feed.events
        report.failed += rig.failures()
        report.problems.extend(rig.check(inputs.references, feed.object_ids, results))
        if rate:
            report.latencies_ms.extend(latencies_ms(feed, rig.sealed_at, due))
            late_ms.extend((stamps[i] - due[i]) * 1000.0 for i in range(len(due)))
        else:
            report.passes.append(Pass(feed.events, wall, cpu))
    finally:
        await rig.close()
    return rig


def lateness(report: RunReport, late_ms: List[float]) -> None:
    report.layers["generator.late_p99_ms"] = percentile(late_ms, 99.0)
    report.layers["generator.late_max_ms"] = max(late_ms)


async def measure(inputs: FleetInputs, seconds: float, work_dir: str) -> RunReport:
    report = RunReport()
    late_ms: List[float] = []
    store_path = os.path.join(work_dir, "fleet.sqlite")
    open_feed, closed_feed = inputs.open_feed, inputs.closed_feed
    started = time.perf_counter()
    await service_pass(inputs, open_feed, RATE_EV_PER_S, store_path, report, late_ms)
    lateness(report, late_ms)
    while not report.problems:
        await service_pass(inputs, closed_feed, 0.0, store_path, report, late_ms)
        elapsed = time.perf_counter() - started
        last = report.passes[-1].wall_s + report.setups[-1] if report.passes else 0.0
        if len(report.passes) >= 3 and elapsed + last > seconds:
            break
    return report


def replay(
    inputs: FleetInputs, frames: List[Tuple[int, bytes]], tracer: Tracer
) -> Tuple[List[PipelineResult], int]:
    """Worker-side layers, measured in this process: decode the frames the
    traced pass shipped and absorb them through one executor per shard."""
    context = GeoContext.build(inputs.geo.fresh_sources(), inputs.config)
    executors: Dict[int, MicroBatchExecutor] = {}
    results: List[PipelineResult] = []
    open_peak = 0
    for shard, frame in frames:
        executor = executors.get(shard)
        if executor is None:
            executor = executors[shard] = MicroBatchExecutor(Plan.from_context(context))
        with tracer.span("service.workers.decode"):
            ops = decode_frame(frame)
        for tag, target, point in ops:
            if tag == "e":
                results.extend(executor.ingest(str(target), point))
            elif tag == "c":
                results.extend(executor.close_object(str(target)))
            elif tag == "v":
                results.extend(executor.evict_sessions(int(target)))
            elif tag == "drain":
                results.extend(executor.close_all())
        open_peak = max(open_peak, sum(e.open_session_count for e in executors.values()))
    return results, open_peak


async def traced(inputs: FleetInputs, work_dir: str, tracer: Tracer) -> RunReport:
    """Traced open loop, one untraced and one traced closed-loop pass, then
    the traced pass's frames replayed through the worker-side layers."""
    report = RunReport()
    traced_report = RunReport()
    late_ms: List[float] = []
    store_path = os.path.join(work_dir, "fleet.sqlite")
    open_feed, closed_feed = inputs.open_feed, inputs.closed_feed
    await service_pass(inputs, closed_feed, 0.0, store_path, report, late_ms)
    frames: List[Tuple[int, bytes]] = []
    wal_bytes: List[int] = []
    read: Dict[str, float] = {}

    def journal_size(rig: ServiceRig) -> None:
        journal = rig.service.journal
        assert journal is not None
        journal.sync()
        wal_bytes.append(sum(path.stat().st_size for path in journal.directory.iterdir()))

    def read_store(rig: ServiceRig) -> None:
        assert rig.store is not None
        started = time.perf_counter()
        rows = read_back(rig.store)
        read["rows_per_s"] = rows / (time.perf_counter() - started)

    wrap_service(tracer)
    wrap_store(tracer)
    wrap_stages(tracer)
    wrap_engine(tracer)
    tracer.wrap(
        ShardProcessHandle,
        "send_frame",
        "service.workers.send",
        on_call=lambda result, handle, frame: frames.append((handle.index, frame)),
    )
    try:
        await service_pass(inputs, open_feed, RATE_EV_PER_S, store_path, report, late_ms)
        lateness(report, late_ms)
        open_mark = tracer.mark()
        frames.clear()
        rig = await service_pass(
            inputs, closed_feed, 0.0, store_path, traced_report, late_ms,
            before_drain=journal_size, after_drain=read_store,
        )
        replay_mark = tracer.mark()
        replayed, open_peak = replay(inputs, frames, tracer)
    finally:
        tracer.restore()
    report.problems.extend(traced_report.problems)
    report.problems.extend(
        f"replay: {problem}"
        for problem in data.check_results(replayed, inputs.references, closed_feed.object_ids)
    )
    report.attempted += traced_report.attempted
    report.failed += traced_report.failed
    events = closed_feed.events
    trajectories = len(closed_feed.seal_position)
    front = tracer.by_name(since=open_mark, until=replay_mark)
    opened = tracer.by_name(until=open_mark)
    worker = tracer.by_name(since=replay_mark)
    data_frames = [frame for _, frame in frames if frame != DRAIN_FRAME]
    service = rig.service
    shard_events = Counter(
        service.shard_for(object_id)
        for kind, object_id, _ in closed_feed.items
        if kind != CLOSE
    )
    rows = sum(data.expected_rows(inputs.references, closed_feed.object_ids).values())
    report.layers.update(
        {
            "parallel.context_build_s": rig.context_build_s,
            "service.start_s": median(tracer.durations("service.start")),
            "service.ingest_us": opened["service.ingest"]["self"]
            / opened["service.ingest"]["count"]
            * 1e6,
            "service.backpressure_waits_per_kev": service.stats.backpressure_waits
            / events
            * 1e3,
            "service.drain_s": front["service.drain"]["total"],
            "service.results_held_peak": float(len(service.results)),
            "service.routing.shard_for_us": front["service.routing.shard_for"]["self"]
            / front["service.routing.shard_for"]["count"]
            * 1e6,
            "service.routing.shard_skew": max(shard_events.values())
            / (sum(shard_events.values()) / service.shard_count),
            "faults.journal.append_us": front["faults.journal.append"]["self"]
            / front["faults.journal.append"]["count"]
            * 1e6,
            "faults.journal.fsync_ms": front["faults.journal.fsync"]["total"]
            / max(1.0, front["faults.journal.fsync"]["count"])
            * 1e3,
            "faults.journal.bytes_per_event": wal_bytes[0] / events,
            "service.workers.encode_us_per_event": front["service.workers.encode"]["self"]
            / events
            * 1e6,
            "service.workers.decode_us_per_event": worker["service.workers.decode"]["self"]
            / events
            * 1e6,
            "service.workers.bytes_per_event": sum(map(len, data_frames)) / events,
            "service.workers.frames_per_kev": len(data_frames) / events * 1e3,
            "engine.absorb_us_per_event": worker["engine.absorb"]["self"] / events * 1e6,
            "streaming.sessions_open_peak": float(open_peak),
            "streaming.sessions_evicted": float(service.sessions_evicted),
            **stage_metrics(worker, events, trajectories),
            "store.commit_ms": front["store.commit"]["total"] * 1e3,
            "store.us_per_row_written": front["store.commit"]["total"] / rows * 1e6,
            "store.us_per_row_read": 1e6 / read["rows_per_s"],
            "store.read_rows_per_s": read["rows_per_s"],
            "trace.overhead_pct": overhead_pct(report, traced_report),
        }
    )
    return report


def run(
    inputs: FleetInputs, seconds: float, work_dir: str, tracer: Optional[Tracer]
) -> RunReport:
    if tracer is None:
        return asyncio.run(measure(inputs, seconds, work_dir))
    return asyncio.run(traced(inputs, work_dir, tracer))
