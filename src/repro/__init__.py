"""SeMiTri reproduction: semantic annotation of heterogeneous trajectories.

A from-scratch Python implementation of the SeMiTri framework (Yan et al.,
EDBT 2011): the semantic trajectory model, the trajectory-computation layer
(cleaning, identification, stop/move segmentation), the three semantic
annotation layers (regions via spatial join, lines via global map matching and
transportation-mode inference, points via an HMM over POI categories), the
semantic trajectory store and analytics, and deterministic synthetic datasets
standing in for the paper's proprietary GPS and geographic sources.

The public API is the handful of functions in :mod:`repro.api`, re-exported
here::

    import repro
    from repro import AnnotationSources, PipelineConfig
    from repro.datasets import SyntheticWorld, TaxiFleetSimulator

    world = SyntheticWorld()
    taxis = TaxiFleetSimulator(world).generate()
    sources = AnnotationSources(
        regions=world.region_source(),
        road_network=world.road_network(),
        pois=world.poi_source(),
    )
    results = repro.annotate_many(
        taxis.trajectories, sources, config=PipelineConfig.for_vehicles()
    )

plus :func:`repro.stream` for online feeds, :func:`repro.serve` for the
asyncio multi-stream ingestion service and :func:`repro.compile_plan` for
custom stage plans.  These functions drive the stage-graph engine
(:mod:`repro.engine`) directly.  The package root exports no classes that
run the pipeline; deep imports (``repro.core``, ``repro.engine``,
``repro.streaming``) remain fully supported.
"""

from repro.core import (
    Annotation,
    AnnotationKind,
    AnnotationSources,
    Episode,
    EpisodeKind,
    LineOfInterest,
    MapMatchingConfig,
    PipelineConfig,
    PipelineResult,
    PointAnnotationConfig,
    PointOfInterest,
    RawTrajectory,
    RegionAnnotationConfig,
    RegionOfInterest,
    SemanticPlace,
    SemanticTrajectory,
    SpatioTemporalPoint,
    StopMoveConfig,
    StreamingConfig,
    StructuredSemanticTrajectory,
)

# The streaming package must be imported before anything touches
# ``repro.engine``: engine stages import ``repro.streaming.matching``, and
# entering that cycle through ``repro.streaming`` (rather than through
# ``repro.engine``) is the order that resolves.  Priming it here covers every
# later import, eager or lazy.
import repro.streaming  # noqa: E402,F401  (import-cycle priming)
from repro.api import (  # noqa: E402
    annotate,
    annotate_many,
    compile_plan,
    open_pipeline,
    serve,
    stream,
)

__version__ = "1.1.0"

__all__ = [
    "Annotation",
    "AnnotationKind",
    "AnnotationSources",
    "Episode",
    "EpisodeKind",
    "LineOfInterest",
    "MapMatchingConfig",
    "PipelineConfig",
    "PipelineResult",
    "PointAnnotationConfig",
    "PointOfInterest",
    "RawTrajectory",
    "RegionAnnotationConfig",
    "RegionOfInterest",
    "SemanticPlace",
    "SemanticTrajectory",
    "SpatioTemporalPoint",
    "StopMoveConfig",
    "StreamingConfig",
    "StructuredSemanticTrajectory",
    "__version__",
    "annotate",
    "annotate_many",
    "compile_plan",
    "open_pipeline",
    "serve",
    "stream",
]
