"""``people-http``: smartphone feeds over the stdlib HTTP facade.

A dozen people over three days each (dense sampling, long sessions, many
stops), joining the feed one after another, are sent as batched
``POST /ingest`` requests by a closed loop over at most ``nproc`` keep-alive
connections.  Every object is pinned to one
connection and sent in timestamp order; ``GET /metrics`` and ``/healthz``
polls ride the same connections every half second.  The service runs the
thread transport with no WAL and no store; results arrive via ``on_result``.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import PipelineConfig
from repro.parallel.context import GeoContext
from repro.service import HttpIngestServer

from perfbench import data
from perfbench.common import (
    Pass,
    RunReport,
    cpu_seconds,
    effective_cores,
    median,
    overhead_pct,
    percentile,
)
from perfbench.liveness import Stalled, guarded
from perfbench.streams import CLOSE, Feed, ServiceRig, build_feed, latencies_ms
from perfbench.trace import Tracer, stage_metrics, wrap_engine, wrap_service, wrap_stages

USERS = 12
DAYS = 3
#: People live at once in the feed: users join one after another, so their
#: day boundaries (which seal trajectories) do not all land together.
CONCURRENCY = 5
MIN_PASSES = 6
#: Events per ``POST /ingest`` body.
BATCH = 64
POLL_EVERY_S = 0.5
STALL_S = 20.0


@dataclass
class PeopleInputs:
    geo: data.Geography
    config: PipelineConfig
    streams: data.Streams
    references: Dict[str, data.ObjectReference]
    warm_trajectory: object
    feed: Feed


def build_inputs(seed: int, work_dir: str) -> PeopleInputs:
    geo = data.Geography()
    streams = data.to_streams(data.people(geo, USERS, DAYS, seed))
    config = PipelineConfig.for_people().with_overrides(
        {"streaming.apply_cleaning": True, "service.transport": "thread"}
    )
    context = GeoContext.build(geo.fresh_sources(), config)
    references = data.reference_for(streams, config, context)
    warm = data.people(geo, 1, 1, seed + 1)[0]
    feed = build_feed(streams, references, sorted(streams), seed, CONCURRENCY)
    return PeopleInputs(geo, config, streams, references, warm, feed)


class HttpClient:
    """One keep-alive HTTP/1.1 connection speaking the ingest protocol."""

    def __init__(self, port: int):
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self.non_ok = 0

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection("127.0.0.1", self._port)
        assert self._reader is not None
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        status = int((await self._reader.readline()).split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self._reader.readexactly(length)
        if status != 200:
            self.non_ok += 1
        return status, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass


def requests_for(feed: Feed, positions: List[int]) -> List[Tuple[str, bytes, List[int]]]:
    """Pre-encoded ``(path, body, feed positions)`` requests of one connection."""
    out: List[Tuple[str, bytes, List[int]]] = []
    batch: List[dict] = []
    batch_positions: List[int] = []

    def flush() -> None:
        if batch:
            body = json.dumps({"events": batch}).encode("utf-8")
            out.append(("/ingest", body, list(batch_positions)))
            batch.clear()
            batch_positions.clear()

    for position in positions:
        kind, object_id, point = feed.items[position]
        if kind == CLOSE:
            flush()
            body = json.dumps({"object_id": object_id}).encode("utf-8")
            out.append(("/close", body, [position]))
            continue
        assert point is not None
        batch.append({"object_id": object_id, "x": point.x, "y": point.y, "t": point.t})
        batch_positions.append(position)
        if len(batch) >= BATCH:
            flush()
    flush()
    return out


async def _connection_loop(
    client: HttpClient,
    requests: List[Tuple[str, bytes, List[int]]],
    stamps: List[float],
    sent: List[int],
    poll_path: str,
    tracer: Optional[Tracer],
    sessions: List[int],
    service,
) -> None:
    """Send one connection's requests in order; ``sent[0]`` counts requests
    sent over every connection (the watchdog's progress)."""
    next_poll = time.perf_counter() + POLL_EVERY_S
    for path, body, positions in requests:
        sent[0] += 1
        now = time.perf_counter()
        if now >= next_poll:
            await client.request("GET", poll_path)
            next_poll = now + POLL_EVERY_S
        now = time.perf_counter()
        for position in positions:
            stamps[position] = now
        if tracer is None or path != "/ingest":
            await client.request("POST", path, body)
            continue
        async with tracer.aspan("service.http.request"):
            await client.request("POST", path, body)
        sessions.append(service.open_session_count)


async def http_pass(
    inputs: PeopleInputs, feed: Feed, report: RunReport, tracer: Optional[Tracer] = None
) -> ServiceRig:
    """One service + HTTP server lifetime over ``feed``; with a ``tracer``
    the client's ingest requests become spans and the open sessions are
    sampled after each."""
    rig = ServiceRig(inputs.geo, inputs.config, inputs.warm_trajectory, None)
    server = HttpIngestServer(rig.service, port=0)
    await rig.start()
    await server.start()
    setup = time.perf_counter() - rig.started_at
    report.setups.append(setup)
    report.facts.setdefault("transport", rig.service.transport)
    report.facts.setdefault("shards", rig.service.shard_count)
    connections = max(1, min(2, effective_cores()))
    report.facts.setdefault("connections", connections)
    owner = {object_id: index % connections for index, object_id in enumerate(feed.object_ids)}
    per_connection: List[List[int]] = [[] for _ in range(connections)]
    for position, (_, object_id, _) in enumerate(feed.items):
        per_connection[owner[object_id]].append(position)
    plans = [requests_for(feed, positions) for positions in per_connection]
    clients = [HttpClient(server.port) for _ in range(connections)]
    stamps = [0.0] * len(feed.items)
    sent = [0]

    def progress() -> int:
        return sent[0] + len(rig.sealed_at)

    try:
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        loops = [
            _connection_loop(
                client,
                plan,
                stamps,
                sent,
                "/metrics" if index == 0 else "/healthz",
                tracer,
                rig.sessions_sampled,
                rig.service,
            )
            for index, (client, plan) in enumerate(zip(clients, plans))
        ]
        try:
            await guarded(asyncio.gather(*loops), progress, STALL_S)
            results = await guarded(rig.service.drain(), progress, STALL_S)
        except Stalled as stall:
            unsent = sum(
                1 for stamp, (kind, _, _) in zip(stamps, feed.items) if not stamp and kind != CLOSE
            )
            report.failed += unsent + (len(feed.seal_position) - len(rig.sealed_at))
            report.problems.append(f"watchdog: {stall}")
            return rig
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu0
        non_ok = sum(client.non_ok for client in clients)
        report.attempted += feed.events
        report.failed += rig.failures() + non_ok
        if non_ok:
            report.problems.append(f"{non_ok} non-200 replies")
        report.problems.extend(rig.check(inputs.references, feed.object_ids, results))
        report.latencies_ms.extend(latencies_ms(feed, rig.sealed_at, stamps))
        report.passes.append(Pass(feed.events, wall, cpu))
    finally:
        for client in clients:
            await client.close()
        await server.stop()
        await rig.close()
    return rig


async def measure(inputs: PeopleInputs, seconds: float) -> RunReport:
    report = RunReport()
    feed = inputs.feed
    started = time.perf_counter()
    while not report.problems:
        await http_pass(inputs, feed, report)
        elapsed = time.perf_counter() - started
        per_pass = elapsed / len(report.passes) if report.passes else 0.0
        if len(report.passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break
    return report


async def traced(inputs: PeopleInputs, seconds: float, tracer: Tracer) -> RunReport:
    """Untraced passes, then traced passes; every layer runs in this process."""
    feed = inputs.feed
    report = RunReport()
    await http_pass(inputs, feed, report)
    traced_report = RunReport()
    wrap_service(tracer)
    wrap_stages(tracer)
    wrap_engine(tracer)
    rigs: List[ServiceRig] = []
    try:
        started = time.perf_counter()
        while not traced_report.problems:
            rigs.append(await http_pass(inputs, feed, traced_report, tracer))
            if time.perf_counter() - started > seconds * 0.45:
                break
    finally:
        tracer.restore()
    report.problems.extend(traced_report.problems)
    report.attempted += traced_report.attempted
    report.failed += traced_report.failed
    passes = len(rigs)
    events = feed.events * passes
    trajectories = len(feed.seal_position) * passes
    layers = tracer.by_name()
    waits = sum(rig.service.stats.backpressure_waits for rig in rigs)
    shard_events = Counter(
        rigs[0].service.shard_for(object_id)
        for kind, object_id, _ in feed.items
        if kind != CLOSE
    )
    shards = rigs[0].service.shard_count
    report.layers.update(
        {
            "parallel.context_build_s": median([rig.context_build_s for rig in rigs]),
            "service.start_s": median(tracer.durations("service.start")),
            "service.ingest_us": (
                layers["service.ingest"]["self"] + layers["service.ingest_many"]["self"]
            )
            / events
            * 1e6,
            "service.backpressure_waits_per_kev": waits / events * 1e3,
            "service.drain_s": median(tracer.durations("service.drain")),
            "service.results_held_peak": float(max(len(rig.service.results) for rig in rigs)),
            "service.routing.shard_for_us": layers["service.routing.shard_for"]["self"]
            / layers["service.routing.shard_for"]["count"]
            * 1e6,
            "service.routing.shard_skew": max(shard_events.values())
            / (sum(shard_events.values()) / shards),
            "service.http.request_ms_p50": percentile(
                tracer.durations("service.http.request"), 50.0
            )
            * 1e3,
            "service.http.self_us_per_event": (
                layers["service.http.request"]["total"] - layers["service.ingest_many"]["total"]
            )
            / events
            * 1e6,
            "engine.absorb_us_per_event": layers["engine.absorb"]["self"] / events * 1e6,
            "streaming.sessions_open_peak": float(
                max(max(rig.sessions_sampled) for rig in rigs)
            ),
            "streaming.sessions_evicted": float(
                sum(rig.service.sessions_evicted for rig in rigs)
            ),
            **stage_metrics(layers, events, trajectories),
            "trace.overhead_pct": overhead_pct(report, traced_report),
        }
    )
    return report


def run(
    inputs: PeopleInputs, seconds: float, work_dir: str, tracer: Optional[Tracer]
) -> RunReport:
    if tracer is None:
        return asyncio.run(measure(inputs, seconds))
    return asyncio.run(traced(inputs, seconds, tracer))
