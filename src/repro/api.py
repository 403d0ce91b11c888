"""The single public API surface of the SeMiTri reproduction.

Every supported way of running the pipeline is a function in this module —
batch, parallel batch, streaming, serving and plan compilation all start
here, and everything accepts configuration in one of three equivalent forms
(a :class:`~repro.core.config.PipelineConfig`, a plain ``dict`` routed
through :meth:`PipelineConfig.from_dict`, or ``None`` for defaults):

==================  ========================================================
entry point         what it gives you
==================  ========================================================
:func:`open_pipeline`  a :class:`SeMiTriPipeline` for batch annotation
:func:`annotate`       one trajectory, annotated (one-shot convenience)
:func:`annotate_many`  a batch, sequential or multi-process via ``workers``
:func:`stream`         a :class:`~repro.engine.executors.MicroBatchExecutor`
                       for online feeds
:func:`serve`          an :class:`AnnotationService` multiplexing many feeds
:func:`compile_plan`   the stage-graph :class:`Plan` behind all of the above
==================  ========================================================

Nothing sits between these functions and :mod:`repro.engine`: each one
compiles a :class:`~repro.engine.plan.Plan` (from a
:class:`~repro.parallel.context.GeoContext` snapshot when one is passed) and
runs it on an executor, or hands the executor back.  Wherever a snapshot
stands in for the sources, an explicit config must equal the snapshot's
(:meth:`GeoContext.resolve_config`).  Deep imports (``repro.core``,
``repro.engine``, ``repro.streaming``) remain supported for library-internal
and advanced use.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, List, Mapping, Optional, Sequence, Union

from repro.core.config import PipelineConfig
from repro.core.episodes import Episode
from repro.core.errors import ConfigurationError
from repro.core.pipeline import (
    AnnotationSources,
    LayerAnnotators,
    PipelineResult,
    SeMiTriPipeline,
)
from repro.core.points import RawTrajectory

if TYPE_CHECKING:  # deferred: the engine/streaming/parallel modules form an
    # import cycle with the package root; functions import them lazily.
    from repro.engine.executors import MicroBatchExecutor
    from repro.engine.plan import Plan
    from repro.parallel.context import GeoContext
    from repro.service.service import AnnotationService
    from repro.store.store import SemanticTrajectoryStore

__all__ = [
    "annotate",
    "annotate_many",
    "compile_plan",
    "open_pipeline",
    "serve",
    "stream",
]

#: Config in any accepted spelling: a built object, a ``to_dict``-shaped
#: mapping, or ``None`` for defaults.
ConfigLike = Union[PipelineConfig, Mapping[str, object], None]


def _resolve_config(
    config: ConfigLike, overrides: Optional[Mapping[str, object]] = None
) -> PipelineConfig:
    """Build a validated :class:`PipelineConfig` from any accepted spelling."""
    if isinstance(config, PipelineConfig):
        return config.with_overrides(overrides) if overrides else config
    return PipelineConfig.from_dict(config, overrides=overrides)


def _explicit_config(
    config: ConfigLike, overrides: Optional[Mapping[str, object]]
) -> Optional[PipelineConfig]:
    """The caller's config, or ``None`` when neither it nor overrides were given.

    ``None`` lets a :class:`GeoContext` snapshot's own config rule.
    """
    if config is None and overrides is None:
        return None
    return _resolve_config(config, overrides)


def open_pipeline(
    config: ConfigLike = None,
    store: Optional[SemanticTrajectoryStore] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> SeMiTriPipeline:
    """A batch annotation pipeline (the paper's offline mode).

    ``config`` may be a :class:`PipelineConfig`, a ``dict`` in
    :meth:`PipelineConfig.to_dict` shape, or ``None``; dotted ``overrides``
    (e.g. ``{"stop_move.velocity_threshold": 1.2}``) apply on top either way.
    """
    return SeMiTriPipeline(_resolve_config(config, overrides), store=store)


def annotate(
    trajectory: RawTrajectory,
    sources: AnnotationSources,
    config: ConfigLike = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    overrides: Optional[Mapping[str, object]] = None,
) -> PipelineResult:
    """Annotate one raw trajectory (one-shot convenience)."""
    from repro.engine import Plan, SequentialExecutor

    plan = Plan.compile(
        sources, config=_resolve_config(config, overrides), store=store, persist=persist
    )
    return SequentialExecutor().run_one(plan, trajectory)


def annotate_many(
    trajectories: Sequence[RawTrajectory],
    sources: Optional[AnnotationSources] = None,
    config: ConfigLike = None,
    context: Optional[GeoContext] = None,
    workers: Optional[int] = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    overrides: Optional[Mapping[str, object]] = None,
) -> List[PipelineResult]:
    """Annotate a batch of trajectories, sequentially or across processes.

    With ``workers`` unset (or 1, the config default) this is the plain
    sequential batch mode.  Any other value shards the batch by moving
    object — ``workers=0`` auto-detects the effective core count — on a
    :class:`~repro.engine.executors.ProcessPoolExecutor` that lives for this
    call (or, with ``parallel.executor="serial"``, an in-process
    :class:`~repro.engine.executors.SequentialExecutor` with deferred
    write-back), with results (and persisted rows) byte-identical to the
    sequential run.  A prebuilt ``context`` snapshot may stand in for
    ``sources`` to skip index building.
    """
    from repro.engine import Plan, ProcessPoolExecutor, SequentialExecutor
    from repro.faults.failures import FailureLog
    from repro.parallel.context import GeoContext

    explicit = _explicit_config(config, overrides)
    if context is not None:
        if sources is not None and sources is not context.sources:
            raise ConfigurationError("sources and context disagree; pass one or the other")
        resolved = context.resolve_config(explicit)
    elif sources is None:
        raise _missing_sources()
    else:
        resolved = explicit if explicit is not None else PipelineConfig()
    parallel = resolved.parallel
    if workers is not None:
        parallel = dataclasses.replace(parallel, workers=int(workers))  # re-validates
    if not trajectories:
        return []
    if parallel.workers == 1 and parallel.executor != "process":
        plan = (
            Plan.from_context(context, store=store, persist=persist)
            if context is not None
            else Plan.compile(sources, config=resolved, store=store, persist=persist)
        )
        return SequentialExecutor().run(plan, trajectories)

    if context is None:
        assert sources is not None
        context = GeoContext.build(sources, resolved)
    plan = Plan.from_context(
        context,
        store=store,
        persist=persist,
        failure_log=FailureLog(resolved.failure, store=store),
    )
    count = parallel.resolved_workers
    if parallel.executor == "serial" or (parallel.executor == "auto" and count == 1):
        # Deferred write-back commits the merged batch in one transaction,
        # the same shape as the pool's, so persistence cannot depend on the
        # executor.
        return SequentialExecutor(deferred_writeback=True).run(plan, trajectories)
    with ProcessPoolExecutor(
        workers=count,
        shards_per_worker=parallel.shards_per_worker,
        dispatch=parallel.dispatch,
        shared_memory=parallel.shared_memory,
    ) as executor:
        return executor.run(plan, trajectories)


def stream(
    sources: Union[AnnotationSources, GeoContext],
    config: ConfigLike = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    on_result: Optional[Callable[[PipelineResult], None]] = None,
    on_episode: Optional[Callable[[Episode], None]] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> MicroBatchExecutor:
    """An online annotation executor for one ``(object_id, point)`` event feed.

    Feed it with ``ingest``/``ingest_many`` and end objects with
    ``close_object``/``close_all``; ``.plan`` carries the config, store and
    telemetry it runs with.  ``sources`` may be raw sources or a prebuilt
    :class:`~repro.parallel.context.GeoContext` snapshot; with a snapshot,
    ``config``/``overrides`` must be unset or equal to the snapshot's config.
    """
    from repro.engine import MicroBatchExecutor, Plan
    from repro.parallel.context import GeoContext

    explicit = _explicit_config(config, overrides)
    if isinstance(sources, GeoContext):
        sources.resolve_config(explicit)
        plan = Plan.from_context(sources, store=store, persist=persist)
    else:
        plan = Plan.compile(sources, config=explicit, store=store, persist=persist)
    return MicroBatchExecutor(plan, on_result=on_result, on_episode=on_episode)


def serve(
    sources: Union[AnnotationSources, GeoContext],
    config: ConfigLike = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    on_result: Optional[Callable[[PipelineResult], None]] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> AnnotationService:
    """The asyncio ingestion service multiplexing many concurrent feeds.

    Returns an unstarted :class:`~repro.service.service.AnnotationService`;
    run it with ``async with serve(...) as service:`` (or ``await
    service.start()``).  ``config.service`` sizes shards, queue depths and
    the session memory budget.  For emitters speaking HTTP, wrap the service
    in an :class:`~repro.service.http.HttpIngestServer`.
    """
    from repro.service.service import AnnotationService

    return AnnotationService(
        sources,
        config=_explicit_config(config, overrides),
        store=store,
        persist=persist,
        on_result=on_result,
    )


def compile_plan(
    sources: Optional[AnnotationSources] = None,
    config: ConfigLike = None,
    context: Optional[GeoContext] = None,
    annotators: Optional[LayerAnnotators] = None,
    store: Optional[SemanticTrajectoryStore] = None,
    persist: bool = False,
    layers: Optional[Sequence[str]] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> Plan:
    """Compile the stage-graph plan every execution mode runs.

    Use ``layers`` to restrict the annotation layers compiled in (e.g.
    ``["regions"]`` for a region-only pass); pass a ``context`` snapshot to
    reuse frozen indexes across plans.
    """
    from repro.engine.plan import Plan

    if context is not None:
        context.resolve_config(_explicit_config(config, overrides))
        return Plan.from_context(context, store=store, persist=persist, layers=layers)
    if sources is None and annotators is None:
        raise _missing_sources()
    return Plan.compile(
        sources=sources,
        config=_resolve_config(config, overrides),
        annotators=annotators,
        store=store,
        persist=persist,
        layers=layers,
    )


def _missing_sources() -> ConfigurationError:
    return ConfigurationError(
        "annotation needs geographic data: pass sources=AnnotationSources(...) "
        "or context=GeoContext.build(...)"
    )
