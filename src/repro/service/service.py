"""Annotation-as-a-service: an asyncio ingest tier over the stage-graph engine.

:class:`AnnotationService` multiplexes many concurrent GPS object streams into
sharded :class:`~repro.engine.executors.MicroBatchExecutor` instances — the
same streaming session loop :class:`StreamingAnnotationEngine` drives, but
fanned out across shards so heavy traffic from many emitters does not
serialise behind one session registry.  The service is one router tier
(this module, a single event loop) over one shard protocol
(:mod:`repro.service.workers`):

* **routing** — events are routed to a shard by consistent-hashing the object
  id (:mod:`repro.service.routing`), so all trajectories of one object share
  one stateful session and routing is stable across processes;
* **backpressure** — each shard owns a bounded ``asyncio.Queue``; when it
  fills, ``await service.ingest(...)`` suspends the producer until the shard
  catches up.  Events are *never* dropped: slow producers wait;
* **memory budget** — ``config.service.session_budget`` is divided across
  shards as each shard's LRU session capacity; the least recently active
  sessions are gracefully closed through the same gap close-out path an
  explicit close takes (sealing and annotating their open trajectories), and
  :meth:`evict_sessions` forces the same path on demand;
* **drain/shutdown** — :meth:`drain` stops intake, flushes every queue, closes
  every open session in every shard and (when persistence is on) commits all
  sealed results in one deterministic-order transaction, so the drained
  output is canonically byte-identical to a sequential
  :meth:`~repro.core.pipeline.SeMiTriPipeline.annotate_many` over the
  delivered events;
* **telemetry** — per-shard queue-depth gauges, events/results counters and a
  service-wide enqueue-to-absorbed latency histogram live in a
  :class:`~repro.obs.metrics.MetricsRegistry`, Prometheus rendering included.

Per shard, one consumer task forms micro-batches from the queue and sends
them through the shard's handle, and one reader task awaits the handle's
FIFO acks and folds them in (results, counters, quarantines, batch
errors).  ``config.service.transport`` only picks the handle:

* ``"thread"`` — :class:`~repro.service.workers.ShardThreadHandle` steps the
  shard on one dedicated thread in this process, one batch in flight.  Zero
  IPC, but the GIL serializes the annotation work itself, so added shards buy
  isolation and fairness rather than throughput;
* ``"process"`` — :class:`~repro.service.workers.ShardProcessHandle` steps it
  in a worker process attached zero-copy to the parent's
  :class:`~repro.parallel.context.GeoContext`, fed batched pre-encoded
  frames over pipes.  A dead worker surfaces as EOF and is respawned with
  its journal prefix replayed (see :meth:`AnnotationService._recover_shard`)
  — only proven poison objects are quarantined;
* ``"auto"`` — ``process`` on multi-core hosts, ``thread`` on a single core.

Either way, per-shard absorption order equals enqueue order, which is what
the cross-transport parity tests pin down.  The IPC counters and the worker
pid gauge stay 0 under the thread handle.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.config import PipelineConfig
from repro.core.errors import ConfigurationError, SemitriError, ServiceError
from repro.core.pipeline import AnnotationSources, PipelineResult
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.engine.executors import _pool_mp_context
from repro.faults.failures import FailureEvent, FailureLog, TrajectoryFailure
from repro.faults.inject import FaultInjector
from repro.faults.journal import IngestJournal, JournalRecord
from repro.obs.metrics import MetricsRegistry, ServiceMetrics
from repro.parallel.context import GeoContext
from repro.parallel.shared import SharedContextSpec, SharedGeoContext, share_context
from repro.service.routing import ConsistentHashRing
from repro.service.workers import (
    CLOSE,
    DRAIN,
    EVENT,
    EVICT,
    Ack,
    ShardHandle,
    ShardProcessHandle,
    ShardThreadHandle,
)
from repro.store.store import SemanticTrajectoryStore

__all__ = ["AnnotationService", "ServiceStats"]

#: Queue sentinel that tells a shard consumer the stream is over.
_STOP = object()

#: One queued item: [op tag, object id or eviction target, point, enqueue
#: time] — the shard step's operation shape.  Events and per-object control
#: ops share the queue, so control respects the same ordering and
#: backpressure as data.  A (mutable) list, not a tuple: the enqueue
#: timestamp is stamped by the queue itself at true insertion time (see
#: :class:`_StampedQueue`).
_Item = List[object]


class _StampedQueue(asyncio.Queue):
    """Bounded queue that stamps items with their true insertion time.

    ``ingest`` may suspend on a full queue; stamping at ``_put`` (which only
    runs once capacity is available) keeps producer backpressure wait out of
    the enqueue-to-absorbed latency histogram — that wait is the *producer's*
    admission delay and is already visible as ``backpressure_waits``.  The
    ``_STOP`` sentinel is not a list and passes through unstamped.
    """

    def _put(self, item: object) -> None:
        if type(item) is list:
            item[3] = time.perf_counter()
        super()._put(item)


@dataclass
class ServiceStats:
    """Counters the service maintains across its lifetime."""

    events: int = 0
    """Events accepted into a shard queue."""

    results: int = 0
    """Sealed trajectories collected from the shards."""

    closed_objects: int = 0
    """Explicit per-object close requests."""

    backpressure_waits: int = 0
    """Ingest calls that found their shard queue full and had to await."""

    batches: int = 0
    """Micro-batches handed to shard executors."""

    errors: int = 0
    """Shard batches that failed while processing.

    Each failure is annotated with its shard and object ids, counted in the
    shard's metrics and routed through the failure policy (``fail_fast``
    re-raises at drain; isolating policies keep the shard alive) — see
    :attr:`AnnotationService.batch_failures` for the captured errors.
    """

    wal_appended: int = 0
    """Operations journaled to the crash-safe ingest WAL."""

    wal_replayed: int = 0
    """Journal records replayed through the normal path during recovery."""

    dedup_skipped: int = 0
    """Replayed trajectories skipped at commit because the store already
    holds them (the idempotency half of WAL recovery)."""


class AnnotationService:
    """Long-running ingest front end over sharded streaming executors.

    Typical usage::

        service = AnnotationService(sources, config=config)
        async with service:
            await service.ingest("car-7", point)       # awaits when shard is full
            ...
            results = await service.drain()            # flush + close everything

    Parameters
    ----------
    sources:
        The annotation sources, or a prebuilt immutable
        :class:`~repro.parallel.context.GeoContext` snapshot whose frozen
        indexes every shard then shares (one index build for the whole
        service).
    config:
        Pipeline configuration; ``config.service`` sizes the shard fan-out,
        queues and session budget.  Must be ``None`` or equal to the
        snapshot's config when a :class:`GeoContext` is passed.
    store / persist:
        When both are given, :meth:`drain` commits every sealed trajectory in
        one deterministic-order transaction.  Shards never touch the store.
    on_result:
        Callback invoked on the event-loop thread for every sealed trajectory
        as it is collected.
    fault_injector:
        An explicit :class:`~repro.faults.inject.FaultInjector` for
        deterministic chaos runs; defaults to whatever ``SEMITRI_FAULTS``
        describes (disabled when unset).
    """

    def __init__(
        self,
        sources: Union[AnnotationSources, GeoContext],
        config: Optional[PipelineConfig] = None,
        store: Optional[SemanticTrajectoryStore] = None,
        persist: bool = False,
        on_result: Optional[Callable[[PipelineResult], None]] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if isinstance(sources, GeoContext):
            context = sources
            if config is not None and config != context.config:
                raise ConfigurationError(
                    "config conflicts with the GeoContext snapshot's config; "
                    "bake the desired config into the snapshot via GeoContext.build"
                )
        else:
            context = GeoContext(sources, config if config is not None else PipelineConfig())
        self._context = context
        self._config = context.config
        service_config = self._config.service
        self._shard_count = service_config.resolved_shards
        self._queue_depth = service_config.queue_depth
        self._max_batch = service_config.max_batch
        self._ring = ConsistentHashRing(self._shard_count, replicas=service_config.ring_replicas)
        self._store = store
        self._persist = persist and store is not None
        self._on_result = on_result

        self.registry = MetricsRegistry()
        self.metrics = ServiceMetrics(self.registry)
        self.stats = ServiceStats()
        self._faults = fault_injector if fault_injector is not None else FaultInjector.from_env()
        if store is not None and self._faults.enabled:
            store.bind_faults(self._faults)
        # One failure log for the whole service, fed only on the event loop:
        # shards run on their own thread or process with a shard-local log,
        # and their quarantines and retried results arrive with the acks.
        # It is *not* bound to the store — quarantines buffer until the drain
        # flushes them.
        self._failure_log = FailureLog(self._config.failure, registry=self.registry)
        self._journal: Optional[IngestJournal] = None
        self._batch_failures: List[ServiceError] = []

        # Each shard gets its share of the session budget; everything else
        # (annotators, indexes, config) is the shared snapshot's.  Shard plans
        # never persist — the service commits at drain time, in one place.
        self._transport = service_config.resolved_transport
        self._per_shard_sessions = max(1, service_config.session_budget // self._shard_count)
        self._shard_metrics = [self.metrics.shard(index) for index in range(self._shard_count)]

        self._queues: List["asyncio.Queue[object]"] = []
        # Per shard: a handle, the consumer task feeding it, the reader task
        # folding its acks in, a ready gate (cleared while a dead worker is
        # recovered) and the in-flight batch permits.
        self._handles: List[ShardHandle] = []
        self._consumers: List["asyncio.Task[None]"] = []
        self._readers: List["asyncio.Task[None]"] = []
        self._ready: List[asyncio.Event] = []
        self._inflight: List[asyncio.Semaphore] = []
        # The shared-memory segment, when the worker start method would
        # otherwise pickle the snapshot per worker.
        self._shared: Optional[SharedGeoContext] = None
        self._collected_ids: Set[str] = set()
        self._poisoned: Set[str] = set()
        self._closing = False
        self._results: List[PipelineResult] = []
        # (object id, collection sequence) per result: the deterministic sort
        # key of the drain-time store commit.  Within one object the sequence
        # follows absorption order (one shard, serialized), so sorting by it
        # reproduces per-object sealing order no matter how shards interleave.
        self._order: List[Tuple[str, int]] = []
        self._state = "new"

    # ---------------------------------------------------------------- identity
    @property
    def shard_count(self) -> int:
        """Number of executor shards the service fans out to."""
        return self._shard_count

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration every shard runs."""
        return self._config

    @property
    def context(self) -> GeoContext:
        """The immutable geographic snapshot shared by every shard."""
        return self._context

    @property
    def results(self) -> List[PipelineResult]:
        """Every sealed trajectory collected so far (collection order)."""
        return list(self._results)

    @property
    def transport(self) -> str:
        """The resolved execution transport: ``"thread"`` or ``"process"``."""
        return self._transport

    @property
    def worker_pids(self) -> List[Optional[int]]:
        """Per-shard worker PIDs (empty under the thread transport)."""
        return [handle.pid for handle in self._handles if isinstance(handle, ShardProcessHandle)]

    @property
    def delivered_events(self) -> int:
        """Events absorbed by shard executors (equals ``stats.events`` after drain).

        Events belonging to a quarantined poison object are *handled* by
        skipping them at the shard boundary; they count as delivered so the
        no-drop ledger still closes.
        """
        return sum(handle.events_absorbed + handle.poison_skipped for handle in self._handles)

    @property
    def dropped_events(self) -> int:
        """Accepted-but-never-absorbed events.

        Positive only while events are still queued or after a shard batch
        failed; a clean :meth:`drain` leaves it at zero — the service's
        no-drop contract.
        """
        return self.stats.events - self.delivered_events

    @property
    def open_session_count(self) -> int:
        """Open per-object sessions across every shard.

        Mirrored from the most recent shard acks, so the value trails
        in-flight batches by at most ``max_inflight`` of them.
        """
        return sum(handle.open_sessions for handle in self._handles)

    @property
    def sessions_evicted(self) -> int:
        """Sessions closed by LRU budget pressure or explicit eviction."""
        return sum(handle.sessions_evicted for handle in self._handles)

    def queue_depths(self) -> List[int]:
        """Current per-shard queue depths (diagnostics)."""
        return [queue.qsize() for queue in self._queues]

    def shard_for(self, object_id: str) -> int:
        """The shard index the router assigns to ``object_id``."""
        return self._ring.shard_for(object_id)

    @property
    def failure_log(self) -> FailureLog:
        """The run-scoped failure log (counters, quarantine buffer)."""
        return self._failure_log

    @property
    def quarantined_count(self) -> int:
        """Trajectories the failure policy dead-lettered so far."""
        return self._failure_log.quarantined

    @property
    def batch_failures(self) -> List[ServiceError]:
        """Shard-batch failures captured so far (annotated with shard + objects)."""
        return list(self._batch_failures)

    @property
    def journal(self) -> Optional[IngestJournal]:
        """The crash-safe ingest journal, when ``service.journal_dir`` is set."""
        return self._journal

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the service registry."""
        return self.registry.render_prometheus()

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> "AnnotationService":
        """Create the shard queues, handles, consumers and ack readers.

        With ``config.service.journal_dir`` set, the crash-safe ingest
        journal opens here — and if a previous service died with un-drained
        events in that directory, they are **replayed through the normal
        ingest path** before new traffic, re-journaled under their original
        origin ids (so a crash mid-replay dedups instead of duplicating).
        """
        if self._state != "new":
            raise ServiceError(f"cannot start a service in state {self._state!r}")
        service_config = self._config.service
        if service_config.journal_dir:
            self._journal = IngestJournal(
                service_config.journal_dir,
                self._shard_count,
                fsync_batch=service_config.journal_fsync_batch,
            )
        self._queues = [
            _StampedQueue(maxsize=self._queue_depth) for _ in range(self._shard_count)
        ]
        make_handle: Callable[[int], ShardHandle]
        if self._transport == "process":
            # Each worker compiles its own plan against the attached snapshot.
            make_handle = functools.partial(
                ShardProcessHandle,
                payload=self._worker_payload(),
                per_shard_sessions=self._per_shard_sessions,
                fault_plan=self._faults.plan.render() if self._faults.enabled else "",
            )
        else:
            make_handle = functools.partial(
                ShardThreadHandle,
                context=self._context,
                per_shard_sessions=self._per_shard_sessions,
                faults=self._faults,
            )
        for index in range(self._shard_count):
            handle = make_handle(index)
            self._shard_metrics[index].worker_pid.set(float(handle.pid or 0))
            self._handles.append(handle)
            ready = asyncio.Event()
            ready.set()
            self._ready.append(ready)
            self._inflight.append(asyncio.Semaphore(handle.max_inflight))
        self._consumers = [
            asyncio.create_task(self._consume(index), name=f"semitri-shard-{index}")
            for index in range(self._shard_count)
        ]
        self._readers = [
            asyncio.create_task(self._read_acks(index), name=f"semitri-acks-{index}")
            for index in range(self._shard_count)
        ]
        self._state = "running"
        if self._journal is not None and self._journal.pending_records:
            await self._replay_journal()
        return self

    def _worker_payload(self) -> Union[SharedContextSpec, GeoContext]:
        """What ships the snapshot to shard workers, mirroring PR 7's rule.

        Shared memory is used exactly when the start method would otherwise
        pickle the snapshot per worker (``parallel.shared_memory == "auto"``
        off-fork, or ``"on"`` anywhere); under fork the context rides
        copy-on-write inheritance, which is equally zero-copy with no segment
        to manage.
        """
        start_method = _pool_mp_context().get_start_method()
        shared_memory = self._config.parallel.shared_memory
        use_shared = shared_memory == "on" or (
            shared_memory == "auto" and start_method != "fork"
        )
        if use_shared:
            self._shared = share_context(self._context)
            return self._shared.spec
        return self._context

    async def _replay_journal(self) -> None:
        """Feed a crashed predecessor's surviving WAL records back in."""
        assert self._journal is not None
        records = self._journal.pending_records
        for record in records:
            shard = self._ring.shard_for(record.object_id)
            self._journal.append_replayed(shard, record)
            if record.kind == "event":
                await self._enqueue(
                    self._queues[shard], [EVENT, record.object_id, record.point(), 0.0]
                )
                self.stats.events += 1
            else:
                await self._enqueue(
                    self._queues[shard], [CLOSE, record.object_id, None, 0.0]
                )
                self.stats.closed_objects += 1
        # Only after every record is safely re-journaled may the recovered
        # files go; a crash in between replays from the re-journaled copies.
        self._journal.sync()
        self._journal.discard_recovered()
        self.stats.wal_replayed += len(records)
        self._failure_log.record_wal_replayed(len(records))

    async def __aenter__(self) -> "AnnotationService":
        return await self.start()

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.shutdown()

    async def drain(self) -> List[PipelineResult]:
        """Stop intake, flush every queue, close every session, commit.

        Returns **all** results collected since :meth:`start` — queued events
        are fully absorbed (FIFO per shard) before the remaining sessions are
        closed through the gap close-out path, so nothing is lost.  With
        persistence enabled the sealed trajectories are committed here, in
        one transaction, ordered by (object id, per-object sealing order) —
        a deterministic order independent of shard interleaving.
        """
        if self._state == "drained":
            return self.results
        if self._state != "running":
            raise ServiceError(f"cannot drain a service in state {self._state!r}")
        self._state = "draining"
        for queue in self._queues:
            await queue.put(_STOP)
        # Each consumer flushes its queue and then asks its shard to close
        # out every session; the drain request is FIFO behind the in-flight
        # batches, so each shard seals in exactly the order it absorbed.  The
        # readers return once that last ack lands (re-requested by recovery
        # if a worker dies mid-drain).  Anything a task raises surfaces here.
        await asyncio.gather(*self._consumers, *self._readers)
        if self._batch_failures and not self._config.failure.isolates:
            # fail_fast: batch errors arrive as acks, so the first one
            # surfaces once everything in flight has settled.  The journal
            # is kept.
            raise self._batch_failures[0]
        if self._journal is not None:
            self._journal.sync()
        if self._persist:
            self._commit_with_policy()
        if self._store is not None:
            self._failure_log.flush_to_store(self._store)
        if self._journal is not None:
            # The store now durably holds everything the journal covered; a
            # failed commit raises above and keeps the journal for recovery.
            self._journal.rotate()
        self._state = "drained"
        return self.results

    async def shutdown(self) -> List[PipelineResult]:
        """Drain (if still running) and release the shard threads/processes.

        A service stuck in ``"draining"`` means a previous :meth:`drain`
        raised part-way (fail-fast batch or commit failure); shutdown then
        just releases resources so the original exception propagates instead
        of being masked by a "cannot drain" error.  The journal is *not*
        rotated on that path — the WAL stays on disk for recovery.
        """
        self._closing = self._state != "running"
        results = await self.drain() if self._state == "running" else self.results
        self._closing = True
        # Error-path tasks may still be waiting on acks or permits that will
        # never come; cancel them before tearing the handles down.
        tasks = [*self._consumers, *self._readers]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        # Handles are closed but kept: their mirrored counters back the
        # post-shutdown ledger properties (delivered_events & co.).
        for handle in self._handles:
            handle.close()
        if self._shared is not None:
            # Workers are gone; unlinking the segment is safe now.
            self._shared.close()
            self._shared = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        self._state = "closed"
        return results

    # -------------------------------------------------------------------- feed
    async def ingest(self, object_id: str, point: SpatioTemporalPoint) -> None:
        """Feed one event; awaits (never drops) when the shard queue is full.

        With the ingest journal enabled the event is journaled *before* it is
        enqueued — once this call returns, a crashed service replays it.
        """
        shard = self._intake_shard(object_id)
        if self._journal is not None:
            self._journal.append_event(shard, object_id, point)
            self.stats.wal_appended += 1
        await self._enqueue(self._queues[shard], [EVENT, object_id, point, 0.0])
        self.stats.events += 1

    async def ingest_many(
        self, events: Iterable[Tuple[str, SpatioTemporalPoint]]
    ) -> int:
        """Feed several events in order; returns the number accepted."""
        accepted = 0
        for object_id, point in events:
            await self.ingest(object_id, point)
            accepted += 1
        return accepted

    async def close_object(self, object_id: str) -> None:
        """End of stream for one object: its open trajectory is sealed.

        The close rides the shard queue behind the object's queued events, so
        it takes effect exactly where the emitter hung up.
        """
        shard = self._intake_shard(object_id)
        if self._journal is not None:
            self._journal.append_close(shard, object_id)
            self.stats.wal_appended += 1
        await self._enqueue(self._queues[shard], [CLOSE, object_id, None, 0.0])
        self.stats.closed_objects += 1

    async def evict_sessions(self, target_per_shard: int) -> None:
        """Ask every shard to shrink to ``target_per_shard`` open sessions.

        The eviction request is queued like any event, so it is applied after
        everything already accepted; evicted sessions seal (and annotate)
        their open trajectories exactly like a gap close-out.
        """
        if self._state != "running":
            raise ServiceError(f"cannot evict on a service in state {self._state!r}")
        if target_per_shard < 0:
            raise ConfigurationError("target_per_shard must be non-negative")
        for queue in self._queues:
            await self._enqueue(queue, [EVICT, target_per_shard, None, 0.0])

    # --------------------------------------------------------------- internals
    def _intake_shard(self, object_id: str) -> int:
        if self._state != "running":
            raise ServiceError(
                f"cannot ingest on a service in state {self._state!r}; "
                "start() it first (or stop feeding after drain())"
            )
        return self._ring.shard_for(object_id)

    async def _enqueue(self, queue: "asyncio.Queue[object]", item: _Item) -> None:
        if queue.full():
            # Explicit backpressure: the producer suspends until the shard
            # frees a slot.  Counted so operators can see producers waiting.
            self.stats.backpressure_waits += 1
            self.metrics.backpressure_waits.inc()
        await queue.put(item)

    async def _consume(self, index: int) -> None:
        """Per-shard consumer: form micro-batches and ship them, then drain."""
        queue = self._queues[index]
        metrics = self._shard_metrics[index]
        inflight = self._inflight[index]
        ready = self._ready[index]
        stopping = False
        while not stopping:
            # A batch is formed only once it may be sent: with one batch in
            # flight, the next one gathers everything queued meanwhile.
            await inflight.acquire()
            head = await queue.get()
            batch: List[_Item] = []
            if head is _STOP:
                stopping = True
            else:
                # Fairness: drain adaptively — half the backlog per wake-up,
                # at least 8 items, capped at max_batch — instead of greedily
                # taking max_batch every time.  A lightly loaded shard hands
                # the loop back quickly (other shards' consumers get
                # scheduled, keeping their p99 flat); a saturated one still
                # reaches full batches, so single-shard throughput holds.
                cap = min(self._max_batch, max(8, (queue.qsize() + 2) // 2))
                batch.append(head)  # type: ignore[arg-type]
                while len(batch) < cap:
                    try:
                        item = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is _STOP:
                        stopping = True
                        break
                    batch.append(item)  # type: ignore[arg-type]
                metrics.queue_depth.set(queue.qsize())
                self.stats.batches += 1
            # Never send while a dead worker is being recovered (the replay
            # owns the handle until the gate reopens).
            await ready.wait()
            self._ship(index, batch)
            # Yield between batches so co-resident consumers interleave even
            # when this queue never goes empty.
            await asyncio.sleep(0)
        await ready.wait()
        self._request_drain(index)

    def _ship(self, index: int, batch: List[_Item]) -> None:
        """Hand one micro-batch to the shard (holding one in-flight permit).

        ``sent_ops`` counts the batch's WAL-covered operations *before* it
        leaves (poison-skips included), so a worker death at any point is
        recovered by replaying exactly that journal prefix.
        """
        handle = self._handles[index]
        sendable: List[_Item] = []
        wal_ops = 0
        now = time.perf_counter()
        for item in batch:
            kind = item[0]
            if kind != EVICT:
                wal_ops += 1
                if self._poisoned and str(item[1]) in self._poisoned:
                    # Proven-poison objects are handled at the boundary: the
                    # worker never sees them again, but they count as
                    # delivered (and observed) so the ledger closes.
                    if kind == EVENT:
                        handle.poison_skipped += 1
                    self.metrics.ingest_latency.observe(now - item[3])  # type: ignore[operator]
                    continue
            sendable.append(item)
        handle.sent_ops += wal_ops
        if not sendable:
            self._inflight[index].release()
            return
        handle.pending.append(sendable)
        shipped = handle.send(sendable)
        if shipped:
            metrics = self._shard_metrics[index]
            metrics.ipc_frames.inc()
            metrics.ipc_bytes.inc(shipped)

    def _request_drain(self, index: int) -> None:
        """Ask the shard to close out every session (re-sent by recovery)."""
        handle = self._handles[index]
        handle.drain_requested = True
        handle.send([[DRAIN, None, None, 0.0]])

    async def _read_acks(self, index: int) -> None:
        """Per-shard reader: fold the shard's acks in on the event loop.

        Runs until the ack of the drain request (normal end of life) or until
        shutdown cancels it.  ``EOFError`` while the service is live means
        the worker died — recover it and keep reading.
        """
        handle = self._handles[index]
        while True:
            try:
                ack = await handle.recv()
            except (EOFError, OSError):
                if self._closing or self._state not in ("running", "draining"):
                    return
                await self._recover_shard(index)
                continue
            # Once the drain was requested and every batch is acked, the
            # next ack answers the drain request: the shard's last.
            last = handle.drain_requested and not handle.pending
            self._apply_ack(index, ack, pop_pending=True)
            if last:
                return

    def _apply_ack(self, index: int, ack: Ack, *, pop_pending: bool) -> None:
        """Fold one shard ack into service state (also used by replay)."""
        _, results, absorbed, open_sessions, evicted, quarantines, error = ack
        handle = self._handles[index]
        metrics = self._shard_metrics[index]
        if pop_pending and handle.pending:
            items = handle.pending.pop(0)
            self._inflight[index].release()
            finished = time.perf_counter()
            for item in items:
                self.metrics.ingest_latency.observe(finished - item[3])  # type: ignore[operator]
        handle.events_absorbed += absorbed
        handle.open_sessions = open_sessions
        # ``evicted`` is the executor's lifetime count (a respawned executor
        # starts again from 0), so the delta since the last ack is new work.
        self.metrics.sessions_evicted.inc(max(0, evicted - handle.sessions_evicted))
        handle.sessions_evicted = evicted
        metrics.events.inc(absorbed)
        metrics.results.inc(len(results))
        metrics.open_sessions.set(float(open_sessions))
        # The shard's own log is never read: the service's log is the single
        # counting point for shipped dead letters and retried results.
        for failure in quarantines:
            self._failure_log.quarantine(failure)
        self._collect_deduped(results)
        if error is not None:
            # Infrastructure-level batch failure: counted, annotated with
            # shard + object ids and routed through the policy — fail_fast
            # surfaces it at drain, isolating policies keep the shard alive
            # (a batch replay would be unsafe: the session pass already
            # consumed some events; the WAL still holds them).
            kind_name, error_repr, object_ids, op_count = error
            self.stats.errors += 1
            metrics.errors.inc()
            self._failure_log.record_failure("shard_batch", kind_name)
            self._batch_failures.append(
                ServiceError(
                    f"shard {index} failed a batch of {op_count} items "
                    f"(objects {object_ids}): {error_repr}"
                )
            )

    def _collect_deduped(self, sealed: List[PipelineResult]) -> None:
        """Collect worker results, keep-first across worker-loss replays.

        A replayed journal prefix re-seals trajectories that were already
        acked before the worker died; sealing is deterministic, so the
        duplicate arrives under the same trajectory id and is dropped here.
        Retried-then-successful results carry their failure history with
        them — absorbed on first collection only.
        """
        fresh: List[PipelineResult] = []
        for result in sealed:
            trajectory_id = result.trajectory.trajectory_id
            if trajectory_id is not None:
                if trajectory_id in self._collected_ids:
                    continue
                self._collected_ids.add(trajectory_id)
            self._failure_log.absorb_result(result)
            fresh.append(result)
        self._collect(fresh)

    # ------------------------------------------------ worker-loss recovery
    async def _recover_shard(self, index: int) -> None:
        """Bring a dead shard worker back: respawn + WAL prefix replay.

        The journal holds every event/close this shard accepted;
        ``sent_ops`` says how many of them the dead worker had been handed.
        Replaying exactly that prefix (in order) rebuilds the worker's
        session state and re-seals whatever it had sealed — duplicates are
        dropped at collection, so the recovered stream stays row-identical.
        Without a journal the lost tail is unrecoverable: the loss is
        recorded and routed through the failure policy.
        """
        handle = self._handles[index]
        metrics = self._shard_metrics[index]
        policy = self._config.failure
        self._ready[index].clear()
        self._failure_log.record_worker_loss()
        metrics.worker_restarts.inc()
        # Un-acked frames died with the worker; free their in-flight permits
        # so the consumer (possibly blocked on one) can proceed once ready.
        for _ in range(len(handle.pending)):
            self._inflight[index].release()
        if self._journal is None:
            handle.sent_ops = 0
            handle.respawn()
            metrics.worker_pid.set(float(handle.pid or 0))
            self.stats.errors += 1
            metrics.errors.inc()
            self._failure_log.record_failure("shard_worker", "WorkerLost")
            self._batch_failures.append(
                ServiceError(
                    f"shard {index} worker died with no ingest journal; "
                    "its un-acked events are lost (enable service.journal_dir "
                    "for lossless worker recovery)"
                )
            )
        else:
            records = self._journal.records_for_shard(index)[: handle.sent_ops]
            solo = handle.restarts + 1 > policy.max_shard_retries
            handle.respawn()
            metrics.worker_pid.set(float(handle.pid or 0))
            replayed = await self._replay_prefix(index, records, solo=solo)
            self.stats.wal_replayed += replayed
            self._failure_log.record_wal_replayed(replayed)
        self._ready[index].set()
        if self._state == "draining" and handle.drain_requested:
            self._request_drain(index)

    async def _replay_prefix(
        self, index: int, records: List[JournalRecord], solo: bool
    ) -> int:
        """Replay a journal prefix into a fresh worker; isolate proven poison.

        Bulk replay first (one pass, batched).  If the replay itself kills
        the fresh worker — or the shard has already exhausted
        ``failure.max_shard_retries`` — fall back to object-by-object replay:
        an object whose *solo* replay kills a fresh worker is proven poison,
        quarantined, and skipped by all further intake; everything else is
        replayed from scratch after each death (the dead worker's state is
        gone).  Returns the number of records the live worker absorbed.
        """
        handle = self._handles[index]
        metrics = self._shard_metrics[index]

        def poison_events() -> int:
            return sum(
                1
                for record in records
                if record.kind == "event" and record.object_id in self._poisoned
            )

        handle.poison_skipped = poison_events()
        clean = [r for r in records if r.object_id not in self._poisoned]
        if not solo:
            if not await self._replay_records(index, clean):
                return len(clean)
            # The replay itself killed the fresh worker: find the poison.
            self._failure_log.record_worker_loss()
            metrics.worker_restarts.inc()
            handle.respawn()
            metrics.worker_pid.set(float(handle.pid or 0))
        by_object: Dict[str, List[JournalRecord]] = {}
        order: List[str] = []
        for record in clean:
            if record.object_id not in by_object:
                by_object[record.object_id] = []
                order.append(record.object_id)
            by_object[record.object_id].append(record)
        while True:
            survivors = [oid for oid in order if oid not in self._poisoned]
            died_at: Optional[str] = None
            for object_id in survivors:
                if await self._replay_records(index, by_object[object_id]):
                    died_at = object_id
                    break
            if died_at is None:
                return sum(len(by_object[oid]) for oid in survivors)
            self._failure_log.record_worker_loss()
            metrics.worker_restarts.inc()
            self._quarantine_poison(index, died_at, by_object[died_at])
            handle.respawn()
            metrics.worker_pid.set(float(handle.pid or 0))
            handle.poison_skipped = poison_events()

    async def _replay_records(self, index: int, records: List[JournalRecord]) -> bool:
        """Feed records to the worker in lockstep batches; True if it died."""
        handle = self._handles[index]
        for start in range(0, len(records), self._max_batch):
            chunk = records[start : start + self._max_batch]
            handle.send(
                [
                    [EVENT, record.object_id, record.point(), 0.0]
                    if record.kind == "event"
                    else [CLOSE, record.object_id, None, 0.0]
                    for record in chunk
                ]
            )
            try:
                ack = await handle.recv()
            except (EOFError, OSError):
                return True
            # Replayed batches carry no live enqueue times (and no pending
            # entry): counters and results fold in, latency is not observed.
            self._apply_ack(index, ack, pop_pending=False)
        return False

    def _quarantine_poison(
        self, index: int, object_id: str, records: List[JournalRecord]
    ) -> None:
        """Dead-letter an object whose solo replay killed a fresh worker."""
        self._poisoned.add(object_id)
        points = sorted(
            (record.point() for record in records if record.kind == "event"),
            key=lambda point: point.t,
        )
        try:
            trajectory = RawTrajectory(points, object_id=object_id)
        except SemitriError:
            # No reconstructable trajectory (e.g. close-only record set):
            # count the loss, skip the store record.
            self._failure_log.record_failure("shard_worker", "WorkerLost")
            return
        self._failure_log.quarantine(
            TrajectoryFailure(
                trajectory=trajectory,
                stage="shard_worker",
                error=(
                    f"shard {index} worker died replaying {object_id!r} in "
                    "isolation; object quarantined as proven poison"
                ),
                attempts=self._handles[index].restarts,
                events=[FailureEvent(stage="shard_worker", kind="WorkerLost", attempt=1)],
            )
        )

    def _collect(self, sealed: List[PipelineResult]) -> None:
        for result in sealed:
            self._order.append((result.trajectory.object_id, len(self._order)))
            self._results.append(result)
            self.stats.results += 1
            if self._on_result is not None:
                self._on_result(result)

    def _commit_with_policy(self) -> None:
        """Commit results, retrying per the failure policy.

        A failed commit rolls back inside the store (see
        ``SemanticTrajectoryStore._commit``), so a retry re-sends the exact
        same batch; under ``fail_fast``/``skip`` the first failure raises and
        the journal (kept by :meth:`drain`) covers recovery.
        """
        policy = self._config.failure
        attempt = 0
        while True:
            attempt += 1
            try:
                self._commit_results()
                return
            except Exception as error:
                retryable = policy.mode == "retry" and attempt <= policy.max_retries
                self._failure_log.record_failure(
                    "service_commit", type(error).__name__, retried=retryable
                )
                if not retryable:
                    raise
                time.sleep(policy.backoff(attempt))

    def _commit_results(self) -> None:
        assert self._store is not None
        ordered = sorted(
            range(len(self._results)), key=lambda position: self._order[position]
        )
        # WAL-replay idempotency: a crash after commit but before the journal
        # rotated replays already-committed trajectories; skip anything the
        # store has, so recovery never duplicates rows.
        fresh = []
        skipped = 0
        for position in ordered:
            result = self._results[position]
            if self._store.has_trajectory(result.trajectory.trajectory_id):
                skipped += 1
                continue
            fresh.append((result.trajectory, result.episodes))
        self._store.save_annotated_trajectories(fresh)
        # Counted only after a successful save, so commit retries do not
        # double-count the same skips.
        self.stats.dedup_skipped += skipped
