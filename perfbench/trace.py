"""Spans recorded by the benchmark's own wrappers around the program's layers.

Nothing here edits the program's files: :class:`Tracer` replaces one of its
functions or methods with a timing wrapper for the duration of a traced run
and puts the original back afterwards.  Wrappers installed before a worker
process forks run in that worker too, but their spans stay there; the
workloads measure worker-side layers in this process instead.  A span is ``(id, parent, name, start, end,
trace id)``; synchronous spans nest through a per-thread stack, coroutine
spans through a context variable, so a span's parent is the innermost span
that caused it.  A layer's self time is its spans' durations minus the part
their direct children cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, AsyncIterator, Callable, Dict, Iterator, List, Optional, Tuple

#: (span id, parent id or 0, layer name, start, end, trace id)
Span = Tuple[int, int, str, float, float, str]

_current: "contextvars.ContextVar[int]" = contextvars.ContextVar("perfbench_span", default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else _current.get()

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str = "") -> Iterator[None]:
        """A synchronous span around a block of the benchmark's own code."""
        span_id, parent = next(self._ids), self._parent()
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, trace_id))

    @contextlib.asynccontextmanager
    async def aspan(self, name: str, trace_id: str = "") -> AsyncIterator[None]:
        """A span around a block of a coroutine (its parent link is task-local)."""
        span_id, parent = next(self._ids), self._parent()
        token = _current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self.spans.append((span_id, parent, name, start, end, trace_id))

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        trace_id: Optional[Callable[..., str]] = None,
        on_call: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as a span named ``name``.

        ``on_call(result, *args)`` sees each call's arguments and result.
        """
        # A class's own attribute, so restoring never shadows an inherited one.
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        tracer = self

        def ident(args: tuple) -> str:
            return "" if trace_id is None else str(trace_id(*args))

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                span_id, parent = next(tracer._ids), tracer._parent()
                token = _current.set(span_id)
                start = time.perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _current.reset(token)
                    tracer.spans.append((span_id, parent, name, start, end, ident(args)))

            replacement: Any = async_wrapper
        else:

            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                span_id, parent = next(tracer._ids), tracer._parent()
                stack = tracer._stack()
                stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    tracer.spans.append((span_id, parent, name, start, end, ident(args)))
                if on_call is not None:
                    on_call(result, *args)
                return result

            replacement = wrapper
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Put every wrapped function back (in reverse order of wrapping)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- analysis
    def mark(self) -> int:
        """A position in the span log; pass it as ``since`` to analyse what follows."""
        return len(self.spans)

    def by_name(self, since: int = 0, until: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, total duration and total self time (s)."""
        spans = self.spans[since:until]
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in spans:
            if parent:
                child_time[parent] += end - start
        layers: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0.0, "total": 0.0, "self": 0.0}
        )
        for span_id, _, name, start, end, _ in spans:
            entry = layers[name]
            entry["count"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child_time.get(span_id, 0.0)
        return defaultdict(lambda: {"count": 0.0, "total": 0.0, "self": 0.0}, layers)

    def durations(self, name: str, since: int = 0, until: Optional[int] = None) -> List[float]:
        return [
            end - start
            for _, _, span_name, start, end, _ in self.spans[since:until]
            if span_name == name
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, trace_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "trace_id": trace_id,
                        }
                    )
                    + "\n"
                )


#: Span names of the annotation stages, as :func:`wrap_stages` records them.
STAGES = (
    "preprocessing.clean",
    "preprocessing.stop_move",
    "regions.landuse_join",
    "lines.map_match",
    "points.poi_annotation",
)


def stage_metrics(
    layers: Dict[str, Dict[str, float]], events: int, trajectories: int
) -> Dict[str, float]:
    """The stages' self time per GPS event (preprocessing) or per trajectory."""
    return {
        "preprocessing.clean_us_per_event": layers["preprocessing.clean"]["self"] / events * 1e6,
        "preprocessing.stop_move_us_per_event": layers["preprocessing.stop_move"]["self"]
        / events
        * 1e6,
        "regions.landuse_join_ms_per_traj": layers["regions.landuse_join"]["self"]
        / trajectories
        * 1e3,
        "lines.map_match_ms_per_traj": layers["lines.map_match"]["self"] / trajectories * 1e3,
        "points.poi_annotation_ms_per_traj": layers["points.poi_annotation"]["self"]
        / trajectories
        * 1e3,
    }


def _item_trajectory(stage: Any, item: Any, *rest: Any) -> str:
    return item.trajectory.trajectory_id


def wrap_stages(tracer: Tracer) -> None:
    """Spans around the annotation stages, batch and streaming bodies alike."""
    from repro.engine import stages
    from repro.streaming.cleaning import StreamingGpsCleaner
    from repro.streaming.stops import IncrementalStopMoveDetector

    tracer.wrap(stages.CleanStage, "apply", "preprocessing.clean")
    tracer.wrap(StreamingGpsCleaner, "push", "preprocessing.clean")
    tracer.wrap(StreamingGpsCleaner, "finish", "preprocessing.clean")
    tracer.wrap(stages.ComputeEpisodesStage, "run", "preprocessing.stop_move", _item_trajectory)
    tracer.wrap(IncrementalStopMoveDetector, "advance", "preprocessing.stop_move")
    tracer.wrap(IncrementalStopMoveDetector, "finalize", "preprocessing.stop_move")
    for owner, name in (
        (stages.RegionJoinStage, "regions.landuse_join"),
        (stages.MapMatchStage, "lines.map_match"),
        (stages.PoiAnnotationStage, "points.poi_annotation"),
    ):
        for attribute in ("run", "absorb_episode", "finish"):
            if attribute in owner.__dict__:
                tracer.wrap(owner, attribute, name, _item_trajectory)


def wrap_engine(tracer: Tracer) -> None:
    from repro.engine.executors import MicroBatchExecutor

    for attribute in ("ingest", "close_object", "close_all", "evict_sessions"):
        tracer.wrap(
            MicroBatchExecutor,
            attribute,
            "engine.absorb",
            (lambda executor, object_id, *rest: object_id) if attribute != "close_all" else None,
        )


def wrap_service(tracer: Tracer) -> None:
    from repro.faults import journal
    from repro.service.routing import ConsistentHashRing
    from repro.service.service import AnnotationService
    from repro.service.workers import FrameEncoder

    object_arg = lambda service, object_id, *rest: object_id  # noqa: E731
    tracer.wrap(AnnotationService, "start", "service.start")
    tracer.wrap(AnnotationService, "drain", "service.drain")
    tracer.wrap(AnnotationService, "ingest", "service.ingest", object_arg)
    tracer.wrap(AnnotationService, "ingest_many", "service.ingest_many")
    tracer.wrap(AnnotationService, "close_object", "service.ingest", object_arg)
    tracer.wrap(ConsistentHashRing, "shard_for", "service.routing.shard_for", object_arg)
    tracer.wrap(journal.IngestJournal, "append_event", "faults.journal.append")
    tracer.wrap(journal.IngestJournal, "append_close", "faults.journal.append")
    tracer.wrap(journal, "_sync_file", "faults.journal.fsync")
    tracer.wrap(FrameEncoder, "encode_batch", "service.workers.encode")


def wrap_store(tracer: Tracer) -> None:
    from repro.store.store import SemanticTrajectoryStore

    tracer.wrap(SemanticTrajectoryStore, "save_annotated_trajectories", "store.commit")
