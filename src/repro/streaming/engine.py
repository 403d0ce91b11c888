"""The streaming annotation engine: SeMiTri as an online service.

:class:`StreamingAnnotationEngine` turns the batch pipeline of Figure 2 into
an incremental, stateful process over a stream of ``(object_id, point)``
events.  Since the stage-graph refactor it is a thin façade: the engine
compiles a :class:`~repro.engine.plan.Plan` from its sources and
configuration and hands the whole session loop to a
:class:`~repro.engine.executors.MicroBatchExecutor`, the same stage graph
the batch pipeline and the parallel runner execute.  Concretely:

* events are **micro-batched** (``streaming.micro_batch_size``) — each
  processing pass appends the buffered points to their per-object sessions,
  then lets every touched session seal episodes;
* each session applies the gap-based trajectory identification thresholds
  online and runs an :class:`IncrementalStopMoveDetector` on its open buffer;
* **sealed episodes are annotated immediately** through the plan stages'
  incremental bodies: every episode goes through the region layer, sealed
  move episodes are matched whole (the batch matcher's episode kernel) and
  mode-classified by the line layer;
* sealed **stop** episodes wait for the point layer, whose HMM decodes the
  whole stop sequence at trajectory close — Viterbi is a sequence-level
  maximum-a-posteriori decoder, so per-stop categories are only final once
  the trajectory is sealed;
* on trajectory close the executor assembles a
  :class:`~repro.core.pipeline.PipelineResult` identical to what
  :meth:`SeMiTriPipeline.annotate_many` produces for the same points (parity
  tested on every seed dataset) and, when persistence is on, writes the
  trajectory, episodes and annotations to the
  :class:`~repro.store.store.SemanticTrajectoryStore` inside one
  commit-on-success transaction scope, with the same per-stage latency
  breakdown (Figure 17 stage names) the batch pipeline reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.engine.plan import Plan
    from repro.parallel.context import GeoContext

from repro.core.config import PipelineConfig
from repro.core.episodes import Episode
from repro.core.errors import ConfigurationError
from repro.core.pipeline import AnnotationSources, LayerAnnotators, PipelineResult
from repro.core.points import SpatioTemporalPoint
from repro.engine.executors import EngineStats, MicroBatchExecutor
from repro.store.store import SemanticTrajectoryStore

__all__ = ["EngineStats", "StreamingAnnotationEngine"]


class StreamingAnnotationEngine:
    """Annotates trajectories online from a stream of ``(object_id, point)`` events."""

    def __init__(
        self,
        sources: Union[AnnotationSources, "GeoContext"],
        config: Optional[PipelineConfig] = None,
        store: Optional[SemanticTrajectoryStore] = None,
        persist: bool = False,
        on_result: Optional[Callable[[PipelineResult], None]] = None,
        on_episode: Optional[Callable[[Episode], None]] = None,
    ):
        # A prebuilt GeoContext snapshot may stand in for the raw sources: the
        # engine then reuses its frozen indexes and annotator bundle (and the
        # configuration baked into them) instead of rebuilding per engine.  An
        # explicitly passed config must match the snapshot's — the annotators
        # were built from that config, so silently honouring a different one
        # would split the engine's behaviour in two.
        from repro.engine.plan import Plan
        from repro.parallel.context import GeoContext  # deferred: avoids an import cycle

        if isinstance(sources, GeoContext):
            context = sources
            if config is not None and config != context.config:
                raise ConfigurationError(
                    "config conflicts with the GeoContext snapshot's config; "
                    "bake the desired config into the snapshot via GeoContext.build"
                )
            plan = Plan.from_context(context, store=store, persist=persist)
        else:
            if config is None:
                config = PipelineConfig()
            plan = Plan.compile(sources, config=config, store=store, persist=persist)
        self._plan = plan
        self._executor = MicroBatchExecutor(plan, on_result=on_result, on_episode=on_episode)

    # ------------------------------------------------------------- properties
    @property
    def plan(self) -> "Plan":
        """The compiled stage plan the micro-batch executor drives."""
        return self._plan

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration driving every layer."""
        return self._plan.config

    @property
    def store(self) -> Optional[SemanticTrajectoryStore]:
        """The semantic trajectory store, when one was supplied."""
        return self._plan.store

    @property
    def annotators(self) -> LayerAnnotators:
        """The cached layer annotators shared by every session."""
        return self._plan.annotators

    @property
    def stats(self) -> EngineStats:
        """Counters maintained while processing the stream."""
        return self._executor.stats

    @property
    def telemetry(self):
        """The plan's observability runtime (the shared no-op when disabled)."""
        return self._plan.telemetry

    @property
    def open_session_count(self) -> int:
        """Number of currently open per-object sessions."""
        return self._executor.open_session_count

    @property
    def sessions_evicted(self) -> int:
        """Sessions closed because the LRU capacity was exceeded."""
        return self._executor.sessions_evicted

    @property
    def pending_event_count(self) -> int:
        """Events buffered in the current micro-batch."""
        return self._executor.pending_event_count

    # ------------------------------------------------------------------ feed
    def ingest(self, object_id: str, point: SpatioTemporalPoint) -> List[PipelineResult]:
        """Feed one event; returns results for any trajectories sealed by it.

        Most calls only buffer the event and return ``[]``; every
        ``micro_batch_size`` events the engine runs a processing pass, during
        which gap close-outs, LRU evictions and episode sealing happen.
        """
        return self._executor.ingest(object_id, point)

    def ingest_many(
        self, events: Iterable[Tuple[str, SpatioTemporalPoint]]
    ) -> List[PipelineResult]:
        """Feed several events in order; returns every sealed result."""
        return self._executor.ingest_many(events)

    def flush(self) -> List[PipelineResult]:
        """Process the buffered micro-batch immediately.

        Sessions are not explicitly closed, but the pass itself may still seal
        trajectories: gap close-outs and LRU evictions triggered by the
        buffered events happen here, so results can be returned.
        """
        return self._executor.flush()

    def close_object(self, object_id: str) -> List[PipelineResult]:
        """End of stream for one object: seal and annotate its open trajectory."""
        return self._executor.close_object(object_id)

    def close_all(self) -> List[PipelineResult]:
        """End of stream for every object; returns all remaining results."""
        return self._executor.close_all()
