"""Shard execution for the annotation service: one protocol, two handles.

Every shard of :class:`~repro.service.service.AnnotationService` runs the
same batch step, :meth:`ShardCore.step`: absorb one micro-batch of
``(tag, object id or eviction target, point)`` operations into a
:class:`~repro.engine.executors.MicroBatchExecutor`, in order, and answer
with one ack.  The service drives each shard through a :class:`ShardHandle`
— ``send`` a batch, ``await recv()`` the next FIFO ack, ``respawn`` /
``close`` — and mirrors the counters the acks carry.  Two handles implement
that contract:

* :class:`ShardThreadHandle` — the step runs on one dedicated thread per
  shard in this process.  Operations are passed through as-is (no encode, no
  decode, zero IPC), but the GIL serializes the annotation work itself;
* :class:`ShardProcessHandle` — the step runs in a dedicated worker process
  attached zero-copy to the parent's
  :class:`~repro.parallel.context.GeoContext` (``share_context`` /
  ``attach_context``: one shm segment, read-only views, or copy-on-write
  inheritance under fork).

Wire discipline of the process handle, chosen for amortized IPC:

* **parent → worker** — batched frames over a ``multiprocessing`` pipe, one
  ``send_bytes`` per micro-batch.  A frame is newline-joined JSON lines using
  the WAL's fast-path encoder (cached object-id encoding, ``repr``-formatted
  finite floats): ``["e",id,x,y,t]`` events, ``["c",id]`` closes, ``["v",n]``
  evictions, plus the ``["drain"]``/``["stop"]`` control frames;
* **worker → parent** — pickled acks on a second pipe, one per frame and in
  frame order.

Every ack, whichever handle produced it, is the tuple ``(status, results,
absorbed, open_sessions, evicted, quarantines, error)``: ``"ok"`` or
``"error"``, the sealed :class:`PipelineResult` rows of the batch, the events
absorbed, the open-session gauge, the executor's lifetime eviction count,
the dead-lettered quarantines, and — for ``"error"`` — ``(exception type
name, repr, object ids, op count)``.  Shards never persist: sealed rows go to
the service, which commits at drain.  A worker process that dies mid-stream
surfaces as ``EOFError`` from ``recv``; the service recovers it from the WAL
(see ``AnnotationService._recover_shard``).
"""

from __future__ import annotations

import abc
import asyncio
import json
import multiprocessing
import multiprocessing.connection
import signal
import sqlite3
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.errors import SemitriError
from repro.core.pipeline import PipelineResult
from repro.core.points import SpatioTemporalPoint
from repro.engine.executors import MicroBatchExecutor, _pool_mp_context
from repro.engine.plan import Plan
from repro.faults.failures import FailureLog, TrajectoryFailure
from repro.faults.inject import FaultInjector, FaultPlan
from repro.faults.journal import ObjectIdEncoder, encode_point_fast
from repro.parallel.context import GeoContext
from repro.parallel.shared import SharedContextSpec, attach_context

__all__ = [
    "BATCH_ERRORS",
    "DRAIN_FRAME",
    "FrameEncoder",
    "STOP_FRAME",
    "ShardCore",
    "ShardHandle",
    "ShardProcessHandle",
    "ShardThreadHandle",
    "decode_frame",
    "shard_worker_main",
]

#: Operation tags: the service's queue-item kinds, the wire tags of frame
#: lines (events dominate, so one byte each) and the step's dispatch keys.
EVENT, CLOSE, EVICT, DRAIN = "e", "c", "v", "drain"

#: Control frames (single-line, no payload).
DRAIN_FRAME = b'["drain"]'
STOP_FRAME = b'["stop"]'

#: One decoded frame item: (tag, object id or eviction target, point or None).
FrameOp = Tuple[str, object, Optional[SpatioTemporalPoint]]

#: An ``"error"`` ack's detail: (exception type name, repr, object ids, op count).
BatchError = Tuple[str, str, List[str], int]

#: ``(status, results, absorbed, open_sessions, evicted, quarantines, error)``.
Ack = Tuple[
    str,
    List[PipelineResult],
    int,
    int,
    int,
    List[TrajectoryFailure],
    Optional[BatchError],
]

#: Exception types a shard batch may fail with that become an ``"error"`` ack
#: (counted, annotated with shard + object ids, routed through the failure
#: policy) instead of killing the shard.  Deliberately narrow — anything
#: outside this tuple (MemoryError, KeyboardInterrupt, arbitrary C-extension
#: crashes) propagates untouched.
BATCH_ERRORS = (
    SemitriError,
    sqlite3.Error,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    ArithmeticError,
    RuntimeError,
    OSError,
)


class FrameEncoder:
    """Encodes service queue items into one batched IPC frame.

    Reuses the WAL's fast-path discipline: object ids are JSON-encoded once
    and cached (:class:`~repro.faults.journal.ObjectIdEncoder`), finite float
    triples format via ``repr`` (byte-identical to ``json.dumps``), and the
    rare non-finite/non-float point falls back to a full ``json.dumps``.
    """

    def __init__(self) -> None:
        self._ids = ObjectIdEncoder()

    def encode_batch(self, items: Iterable[Sequence[object]]) -> bytes:
        """One frame for ``items`` shaped ``(tag, id_or_target, point, ...)``."""
        lines: List[str] = []
        for item in items:
            tag, target, point = item[0], item[1], item[2]
            if tag == EVENT:
                assert isinstance(point, SpatioTemporalPoint)
                fields = encode_point_fast(point.x, point.y, point.t)
                if fields is not None:
                    lines.append(f'["e",{self._ids.encode(str(target))},{fields}]')
                else:
                    lines.append(
                        json.dumps(
                            ["e", str(target), point.x, point.y, point.t],
                            separators=(",", ":"),
                        )
                    )
            elif tag == CLOSE:
                lines.append(f'["c",{self._ids.encode(str(target))}]')
            elif tag == EVICT:  # target carries the open-session budget
                lines.append(f'["v",{int(target)}]')  # type: ignore[call-overload]
            else:  # DRAIN
                lines.append(DRAIN_FRAME.decode("utf-8"))
        return "\n".join(lines).encode("utf-8")


def decode_frame(data: bytes) -> List[FrameOp]:
    """Parse one batched frame back into per-item operations."""
    ops: List[FrameOp] = []
    for line in data.decode("utf-8").split("\n"):
        if not line:
            continue
        payload = json.loads(line)
        tag = payload[0]
        if tag == EVENT:
            ops.append(
                (
                    tag,
                    payload[1],
                    SpatioTemporalPoint(
                        x=float(payload[2]), y=float(payload[3]), t=float(payload[4])
                    ),
                )
            )
        elif tag == CLOSE:
            ops.append((tag, payload[1], None))
        elif tag == EVICT:
            ops.append((tag, int(payload[1]), None))
        else:  # "drain" / "stop" control frames are single-line
            ops.append((tag, None, None))
    return ops


class ShardCore:
    """One shard's executor and the batch step both handles run.

    The plan compiles against the snapshot with the shard's share of the
    session budget and a shard-local :class:`FailureLog`: its counters are
    never read — per the module counting rule the service's log is the
    single counting point — and its buffered quarantines ship on every ack.
    """

    def __init__(
        self,
        context: GeoContext,
        per_shard_sessions: int,
        faults: FaultInjector,
        worker: bool,
    ):
        config = replace(
            context.config,
            streaming=replace(context.config.streaming, max_sessions=per_shard_sessions),
        )
        self._failure_log = FailureLog(config.failure)
        self.executor = MicroBatchExecutor(
            Plan.compile(
                sources=context.sources,
                config=config,
                annotators=context.annotators,
                faults=faults,
                failure_log=self._failure_log,
            )
        )
        # Kill-style chaos follows a shard into its worker process only: the
        # hook fires per event there (streams have no trajectory boundary
        # until sealing); threads of the service process are never killed.
        self._kill_hook = faults.on_trajectory if worker else None

    def step(self, ops: Sequence[Sequence[object]]) -> Ack:
        """Absorb one micro-batch in order and build its ack."""
        executor = self.executor
        kill_hook = self._kill_hook
        results: List[PipelineResult] = []
        absorbed = 0
        error: Optional[BatchError] = None
        try:
            for op in ops:
                tag = op[0]
                if tag == EVENT:
                    object_id = str(op[1])
                    if kill_hook is not None:
                        kill_hook(object_id, worker=True)
                    results.extend(executor.ingest(object_id, op[2]))  # type: ignore[arg-type]
                    absorbed += 1
                elif tag == CLOSE:
                    results.extend(executor.close_object(str(op[1])))
                elif tag == EVICT:  # op[1] carries the open-session target
                    target = int(op[1])  # type: ignore[call-overload]
                    results.extend(executor.evict_sessions(target))
                else:  # DRAIN: close every open session
                    results.extend(executor.close_all())
        except BATCH_ERRORS as exc:
            # Per-trajectory failures are isolated inside the executor; an
            # error escaping the batch is infrastructure-level.  The shard
            # survives and reports how far it got.
            object_ids = sorted({str(op[1]) for op in ops if op[0] in (EVENT, CLOSE)})
            error = (type(exc).__name__, repr(exc), object_ids, len(ops))
        # Exceptions are stripped: arbitrary exception objects may not cross
        # process boundaries (the repr travels on the record).
        quarantines = self._failure_log.drain_pending()
        for failure in quarantines:
            failure.exception = None
        return (
            "ok" if error is None else "error",
            results,
            absorbed,
            executor.open_session_count,
            executor.sessions_evicted,
            quarantines,
            error,
        )


def shard_worker_main(
    payload: Union[SharedContextSpec, GeoContext],
    per_shard_sessions: int,
    fault_plan: str,
    requests: "multiprocessing.connection.Connection",
    responses: "multiprocessing.connection.Connection",
    parent_ends: Sequence["multiprocessing.connection.Connection"] = (),
) -> None:
    """Entry point of one shard's worker process: decode, step, ack.

    Acks go out in frame order on a FIFO pipe, which is what keeps per-shard
    absorption order (and therefore canonical parity) identical to the
    in-process handle.  ``parent_ends`` are the parent's pipe ends a forked
    child inherits: closed first, so the request pipe reports EOF once the
    parent is gone and the worker exits instead of outliving it.
    """
    for connection in parent_ends:
        connection.close()
    # The parent handles SIGINT for the whole service; a Ctrl-C must not kill
    # workers before the parent decides whether to drain or shut down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A SharedContextSpec attaches to the parent's shm segment; ``bundle``
    # stays referenced for the life of the frame loop (the context's arrays
    # alias the mapping) and is never unlinked here — the parent owns it.
    # A plain GeoContext arrived via fork inheritance or the spawn pickle.
    if isinstance(payload, SharedContextSpec):
        context, bundle = attach_context(payload)
    else:
        context, bundle = payload, None
    del payload
    faults = FaultInjector(FaultPlan.parse(fault_plan)) if fault_plan else FaultInjector.from_env()
    core = ShardCore(context, per_shard_sessions, faults, worker=True)
    while True:
        try:
            ops = decode_frame(requests.recv_bytes())
            if ops and ops[0][0] == "stop":
                break
            responses.send(core.step(ops))
        except (EOFError, OSError):
            break  # the parent went away; nothing useful left to do
    del bundle


class ShardHandle(abc.ABC):
    """Parent-side end of one shard: the contract the service drives.

    ``send`` ships one micro-batch, ``recv`` awaits the next ack (FIFO), and
    the service mirrors the acks' counters here: events absorbed, open
    sessions and evictions (reset by a respawn — the executor is new), plus
    its own bookkeeping — ``sent_ops`` (WAL-covered operations handed over
    so far: the replay prefix after a worker loss), ``pending`` (the items of
    each in-flight batch, popped as acks arrive to observe latency),
    ``restarts``, ``poison_skipped`` and ``drain_requested``.
    """

    #: Batches allowed in flight before the service's consumer awaits an ack.
    max_inflight = 1

    def __init__(self, index: int):
        self.index = index
        self.restarts = 0
        self.sent_ops = 0
        #: Events of proven-poison objects skipped at the shard boundary.
        #: Counted in ``sent_ops`` (they are journaled) but never shipped;
        #: recomputed from the WAL prefix at each recovery, incremented live
        #: in between.  Survives respawns — these were handled, not lost.
        self.poison_skipped = 0
        #: Whether the service already asked this shard to drain; recovery
        #: re-sends the drain request when its ack died with the worker.
        self.drain_requested = False
        self._reset()

    def _reset(self) -> None:
        self.events_absorbed = 0
        self.open_sessions = 0
        self.sessions_evicted = 0
        self.pending: List[Sequence[Sequence[object]]] = []

    @property
    def pid(self) -> Optional[int]:
        """The worker's PID, or ``None`` when the shard runs in this process."""
        return None

    @abc.abstractmethod
    def send(self, items: Sequence[Sequence[object]]) -> int:
        """Ship one micro-batch; returns the wire bytes (0 in-process).

        Never raises for a dead worker: the death surfaces at :meth:`recv`.
        """

    @abc.abstractmethod
    async def recv(self) -> Ack:
        """The next ack, in send order (``EOFError`` once a worker died)."""

    @abc.abstractmethod
    def respawn(self) -> None:
        """Replace the shard's executor with a fresh one (a restart)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the shard's thread or process (idempotent)."""


class ShardThreadHandle(ShardHandle):
    """A shard stepped on one dedicated thread of the service process.

    One thread per shard means one shard's batches never overlap; the items
    are handed to :meth:`ShardCore.step` as they are, so this handle adds no
    encoding and no IPC.
    """

    def __init__(
        self,
        index: int,
        context: GeoContext,
        per_shard_sessions: int,
        faults: FaultInjector,
    ):
        super().__init__(index)
        self._make_core = lambda: ShardCore(context, per_shard_sessions, faults, worker=False)
        self._core = self._make_core()
        self._thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"semitri-shard-{index}"
        )
        self._acks: "asyncio.Queue[asyncio.Future[Ack]]" = asyncio.Queue()

    def send(self, items: Sequence[Sequence[object]]) -> int:
        loop = asyncio.get_running_loop()
        self._acks.put_nowait(loop.run_in_executor(self._thread, self._core.step, items))
        return 0

    async def recv(self) -> Ack:
        return await (await self._acks.get())

    def respawn(self) -> None:
        self.restarts += 1
        self._core = self._make_core()
        self._acks = asyncio.Queue()
        self._reset()

    def close(self) -> None:
        self._thread.shutdown(wait=True)


class ShardProcessHandle(ShardHandle):
    """A shard stepped in its own worker process, fed frames over pipes."""

    #: Two keeps the worker busy while the parent encodes the next batch;
    #: frames are a few KB, so the pipe buffer never fills and ``send_bytes``
    #: never blocks the event loop.
    max_inflight = 2

    def __init__(
        self,
        index: int,
        payload: Union[SharedContextSpec, GeoContext],
        per_shard_sessions: int,
        fault_plan: str = "",
    ):
        super().__init__(index)
        self._payload = payload
        self._per_shard_sessions = per_shard_sessions
        self._fault_plan = fault_plan
        self._mp_ctx = _pool_mp_context()
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._requests: Optional[multiprocessing.connection.Connection] = None
        self._responses: Optional[multiprocessing.connection.Connection] = None
        self.encoder = FrameEncoder()
        # Blocking ack reads run here, off the event loop.
        self._reader = ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"semitri-ipc-{index}")
        self._spawn()

    # ------------------------------------------------------------- lifecycle
    def _spawn(self) -> None:
        """Start the worker process on fresh pipes."""
        self._close_connections()
        request_reader, request_writer = self._mp_ctx.Pipe(duplex=False)
        response_reader, response_writer = self._mp_ctx.Pipe(duplex=False)
        # A forked child inherits the parent's ends too; it must close them,
        # or its request pipe never reports EOF once the parent dies.  (Spawn
        # children inherit nothing; passing the ends would duplicate them.)
        forked = self._mp_ctx.get_start_method() == "fork"
        self._process = self._mp_ctx.Process(
            target=shard_worker_main,
            args=(
                self._payload,
                self._per_shard_sessions,
                self._fault_plan,
                request_reader,
                response_writer,
                (request_writer, response_reader) if forked else (),
            ),
            name=f"semitri-shard-{self.index}",
            daemon=True,
        )
        self._process.start()
        # The child holds its own ends now; closing ours makes a worker death
        # surface as EOF on the response pipe instead of a hang.
        request_reader.close()
        response_writer.close()
        self._requests = request_writer
        self._responses = response_reader
        self._reset()

    def respawn(self) -> None:
        if self._process is not None and self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self.restarts += 1
        self._spawn()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def close(self) -> None:
        """Best-effort stop + join + release both pipe ends and the reader."""
        if self._requests is not None:
            try:
                self._requests.send_bytes(STOP_FRAME)
            except (OSError, ValueError):
                pass
        if self._process is not None:
            self._process.join(timeout=5.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5.0)
            self._process = None
        self._close_connections()
        self._reader.shutdown(wait=True)

    def _close_connections(self) -> None:
        for connection in (self._requests, self._responses):
            if connection is not None:
                try:
                    connection.close()
                except OSError:
                    pass
        self._requests = None
        self._responses = None

    # ------------------------------------------------------------------- IPC
    def send(self, items: Sequence[Sequence[object]]) -> int:
        frame = self.encoder.encode_batch(items)
        try:
            self.send_frame(frame)
        except OSError:
            pass  # the worker died; recv reports the EOF
        return len(frame)

    def send_frame(self, data: bytes) -> None:
        """Ship one encoded frame (raises ``OSError`` once the worker died)."""
        assert self._requests is not None, "worker not spawned"
        self._requests.send_bytes(data)

    async def recv(self) -> Ack:
        assert self._responses is not None, "worker not spawned"
        return await asyncio.get_running_loop().run_in_executor(self._reader, self._responses.recv)
