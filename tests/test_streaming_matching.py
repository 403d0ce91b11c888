"""Windowed map matcher: exact parity with the batch global matcher."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import MapMatchingConfig
from repro.lines.map_matching import GlobalMapMatcher
from repro.streaming import WindowedMapMatcher


def _move_point_runs(pipeline, dataset, max_runs: int = 6):
    """Point sequences of the first few move episodes of a dataset."""
    runs = []
    for trajectory in dataset.trajectories:
        for episode in pipeline.compute_episodes(trajectory):
            if episode.is_move and len(episode) >= 5:
                runs.append(list(episode.points))
                if len(runs) >= max_runs:
                    return runs
    return runs


@pytest.mark.parametrize("use_global_score", [True, False])
def test_windowed_matches_batch(road_network, vehicle_pipeline, taxi_dataset, use_global_score):
    config = dataclasses.replace(
        vehicle_pipeline.config.map_matching, use_global_score=use_global_score
    )
    batch = GlobalMapMatcher(road_network, config)
    windowed = WindowedMapMatcher(road_network, config)
    runs = _move_point_runs(vehicle_pipeline, taxi_dataset)
    assert runs
    for points in runs:
        expected = batch.match(points)
        assert windowed.match_stream(points) == expected
        streamed = []
        for point in points:
            streamed.extend(windowed.push(point))
        streamed.extend(windowed.finish())
        assert [m.segment_id for m in streamed] == [m.segment_id for m in expected]
        assert [m.score for m in streamed] == [m.score for m in expected]
        assert [(m.snapped.x, m.snapped.y) for m in streamed] == [
            (m.snapped.x, m.snapped.y) for m in expected
        ]


def test_ground_truth_drive_parity(road_network, vehicle_pipeline, ground_truth_drive):
    config = vehicle_pipeline.config.map_matching
    batch = GlobalMapMatcher(road_network, config)
    windowed = WindowedMapMatcher(road_network, config)
    points = list(ground_truth_drive.trajectory.points)
    expected = batch.match(points)
    streamed = []
    for point in points:
        streamed.extend(windowed.push(point))
    streamed.extend(windowed.finish())
    assert [m.segment_id for m in streamed] == [m.segment_id for m in expected]


def test_emission_happens_before_stream_end(road_network, vehicle_pipeline, ground_truth_drive):
    """Matches must flow out with bounded lag, not all at finish()."""
    windowed = WindowedMapMatcher(road_network, vehicle_pipeline.config.map_matching)
    points = list(ground_truth_drive.trajectory.points)
    early = 0
    for point in points:
        early += len(windowed.push(point))
    tail = windowed.finish()
    assert early > 0
    assert early + len(tail) == len(points)
    # A drive keeps moving, so the pending window stays small relative to the
    # episode; after finish the matcher is reusable.
    assert windowed.pending_count == 0
    assert windowed.match_stream(points[:20])


def test_local_score_only_mode_streams_with_no_lag(road_network, vehicle_pipeline, taxi_dataset):
    config = dataclasses.replace(
        vehicle_pipeline.config.map_matching, use_global_score=False
    )
    windowed = WindowedMapMatcher(road_network, config)
    runs = _move_point_runs(vehicle_pipeline, taxi_dataset, max_runs=1)
    for point in runs[0]:
        windowed.push(point)
        assert windowed.pending_count == 0
