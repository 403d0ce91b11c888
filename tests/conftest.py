"""Shared fixtures for the SeMiTri test-suite.

The synthetic world and its derived sources (landuse regions, road network,
POIs) are expensive enough to build that they are shared at session scope;
tests must therefore treat them as read-only.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# Make the package importable even when it has not been pip-installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import AnnotationSources, PipelineConfig, SeMiTriPipeline  # noqa: E402

# ``SEMITRI_TEST_PIPELINE_EXECUTOR`` reroutes every ``annotate_many`` call in
# the suite through the stage-graph engine's sharded process-pool executor
# (value: worker count, e.g. "4"), so CI can run the whole pipeline
# integration suite against the parallel runtime.  Unset keeps the default
# in-process sequential executor.
_PIPELINE_EXECUTOR_WORKERS = os.environ.get("SEMITRI_TEST_PIPELINE_EXECUTOR")
if _PIPELINE_EXECUTOR_WORKERS:
    _WORKERS = int(_PIPELINE_EXECUTOR_WORKERS)

    def _annotate_many_via_process_pool(
        self, trajectories, sources, persist=False, annotators=None
    ):
        from repro.engine import Plan, ProcessPoolExecutor

        plan = Plan.compile(
            sources,
            config=self.config,
            annotators=annotators,
            store=self.store,
            persist=persist,
        )
        with ProcessPoolExecutor(workers=_WORKERS) as executor:
            return executor.run(plan, list(trajectories))

    SeMiTriPipeline.annotate_many = _annotate_many_via_process_pool  # type: ignore[method-assign]
from repro.datasets import (  # noqa: E402
    GroundTruthDriveGenerator,
    PersonSimulator,
    PrivateCarSimulator,
    SyntheticWorld,
    TaxiFleetSimulator,
    WorldConfig,
)


@pytest.fixture(scope="session")
def world() -> SyntheticWorld:
    """A compact synthetic world shared by the whole session (read-only)."""
    return SyntheticWorld(WorldConfig(size=6000.0, poi_count=800, seed=7))


@pytest.fixture(scope="session")
def region_source(world):
    """Landuse region source of the shared world."""
    return world.region_source()


@pytest.fixture(scope="session")
def road_network(world):
    """Road network of the shared world."""
    return world.road_network()


@pytest.fixture(scope="session")
def poi_source(world):
    """POI source of the shared world."""
    return world.poi_source()


@pytest.fixture(scope="session")
def annotation_sources(region_source, road_network, poi_source) -> AnnotationSources:
    """All three sources bundled for pipeline tests."""
    return AnnotationSources(regions=region_source, road_network=road_network, pois=poi_source)


@pytest.fixture(scope="session")
def taxi_dataset(world):
    """A small taxi dataset (one taxi, one day)."""
    return TaxiFleetSimulator(world, taxi_count=1, days=1, fares_per_day=4, seed=11).generate()


@pytest.fixture(scope="session")
def car_dataset(world):
    """A small private-car dataset."""
    return PrivateCarSimulator(world, car_count=8, trips_per_car=2, seed=23).generate()


@pytest.fixture(scope="session")
def people_dataset(world):
    """A small people dataset (four users, one day each)."""
    return PersonSimulator(world, user_count=4, days_per_user=1, seed=31).generate()


@pytest.fixture(scope="session")
def ground_truth_drive(world):
    """A drive with known ground-truth road segments."""
    return GroundTruthDriveGenerator(world, waypoint_count=4, noise_sigma=8.0, seed=41).generate()


@pytest.fixture()
def vehicle_pipeline() -> SeMiTriPipeline:
    """A pipeline configured for vehicle trajectories (no store)."""
    return SeMiTriPipeline(PipelineConfig.for_vehicles())


@pytest.fixture()
def people_pipeline() -> SeMiTriPipeline:
    """A pipeline configured for people trajectories (no store)."""
    return SeMiTriPipeline(PipelineConfig.for_people())
