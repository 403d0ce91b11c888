"""Whole-episode global-score kernel: exact parity with the per-point scorer.

:func:`repro.lines.map_matching.episode_global_scores` computes Equations 3-4
for a whole move episode in a few array passes.  Every case below checks it
three ways:

* the kernel's scores equal :meth:`GlobalMapMatcher.global_scores` called
  point by point (``==`` on floats, no tolerance);
* :meth:`GlobalMapMatcher.match` equals the push-by-push
  :class:`~repro.streaming.matching.WindowedMapMatcher` output, which keeps
  the per-point path (segment, score and snapped position, exactly);
* the matched segment ids equal the ``python`` backend's.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np
import pytest

from repro.core.arrays import TrajectoryArrays
from repro.core.config import MapMatchingConfig
from repro.core.points import SpatioTemporalPoint
from repro.geometry.primitives import Point
from repro.lines import map_matching
from repro.lines.map_matching import (
    GlobalMapMatcher,
    context_window_extents,
    episode_global_scores,
)
from repro.lines.road_network import RoadNetwork, make_road_segment
from repro.streaming import WindowedMapMatcher

#: Candidate radius 30 and view radius 2: the context radius R is 60 m.
CONFIG = MapMatchingConfig(candidate_radius=30.0, view_radius=2.0)


@pytest.fixture(scope="module")
def grid_network() -> RoadNetwork:
    """Streets every 100 m over a 1 km square, plus a duplicated avenue.

    ``avenue-a`` and ``avenue-b`` share their geometry, so every point near
    them scores both identically: a structural tie that ``select_best``
    breaks by segment id.
    """
    segments = []
    for k in range(11):
        for j in range(10):
            a, b, c = k * 100.0, j * 100.0, j * 100.0 + 100.0
            segments.append(make_road_segment(f"h{k}-{j}", "h", Point(b, a), Point(c, a)))
            segments.append(make_road_segment(f"v{k}-{j}", "v", Point(a, b), Point(a, c)))
    for name in ("avenue-a", "avenue-b"):
        segments.append(make_road_segment(name, name, Point(0.0, 450.0), Point(1000.0, 450.0)))
    return RoadNetwork(segments, name="grid")


def _walk(rng: np.random.Generator, n: int, start=(150.0, 430.0)) -> List[SpatioTemporalPoint]:
    """A random walk alternating slow and fast stretches.

    Slow stretches (steps of 1-3 m) give windows far above
    ``_VECTOR_MIN_WINDOW`` points, fast ones (15-40 m) windows of a few
    points, so both weight paths occur within one episode.
    """
    points = []
    x, y = start
    heading = float(rng.uniform(0.0, 2.0 * np.pi))
    slow = True
    for i in range(n):
        if i % 25 == 0:
            slow = not slow
        step = float(rng.uniform(1.0, 3.0) if slow else rng.uniform(15.0, 40.0))
        heading += float(rng.normal(0.0, 0.3))
        x = min(max(x + step * np.cos(heading), -20.0), 1020.0)
        y = min(max(y + step * np.sin(heading), -20.0), 1020.0)
        points.append(SpatioTemporalPoint(x, y, float(i)))
    return points


def _rows(matched):
    return [(m.segment_id, m.score, m.snapped.x, m.snapped.y) for m in matched]


def _assert_parity(network: RoadNetwork, points, config: MapMatchingConfig = CONFIG) -> None:
    # Kernel against the per-point scorer, for every episode length.
    if points and config.use_global_score:
        matcher = GlobalMapMatcher(network, config)
        local = [matcher.local_scores(point) for point in points]
        arrays = TrajectoryArrays.from_points(points)
        coords = (arrays.xs, arrays.ys)
        expected = [
            matcher.global_scores(points, local, index, coords=coords) if scores else {}
            for index, scores in enumerate(local)
        ]
        observed = episode_global_scores(
            arrays.xs, arrays.ys, local, config.context_radius, config.kernel_width
        )
        assert observed == expected
        assert all(type(v) is float for scores in observed for v in scores.values())

    for index_backend in ("tree", "flat"):
        # Whole-episode matching against push-by-push windowed matching.
        matcher = GlobalMapMatcher(network, config, index_backend=index_backend)
        windowed = WindowedMapMatcher(network, config, index_backend=index_backend)
        pushed = []
        for point in points:
            pushed.extend(windowed.push(point))
        pushed.extend(windowed.finish())
        matched = matcher.match(points)
        assert _rows(matched) == _rows(pushed)
        assert _rows(windowed.match_stream(points)) == _rows(matched)

        reference = GlobalMapMatcher(
            network, config, backend="python", index_backend=index_backend
        ).match(points)
        assert [m.segment_id for m in matched] == [m.segment_id for m in reference]


@pytest.mark.parametrize("seed", range(6))
def test_random_walks_cross_the_weight_path_cutoff(grid_network, seed):
    points = _walk(np.random.default_rng(seed), 200)
    arrays = TrajectoryArrays.from_points(points)
    before, after = context_window_extents(
        arrays.xs, arrays.ys, np.arange(len(points)), CONFIG.context_radius
    )
    sizes = before + after + 1
    assert (sizes < map_matching._VECTOR_MIN_WINDOW).any()
    assert (sizes >= map_matching._VECTOR_MIN_WINDOW).any()
    _assert_parity(grid_network, points)


def test_window_extents_equal_scalar_walks(grid_network):
    points = _walk(np.random.default_rng(11), 300)
    arrays = TrajectoryArrays.from_points(points)
    rows = np.arange(len(points))
    before, after = context_window_extents(arrays.xs, arrays.ys, rows, CONFIG.context_radius)
    matcher = GlobalMapMatcher(grid_network, CONFIG)
    for index in rows.tolist():
        window = matcher._window_indices(points, index, CONFIG.context_radius)
        assert window == list(range(index - before[index], index + after[index] + 1))


@pytest.mark.parametrize("length", [1, 2, 5, map_matching._VECTOR_MIN_POINTS - 1])
def test_episodes_shorter_than_vector_cutoff(grid_network, length):
    _assert_parity(grid_network, _walk(np.random.default_rng(length), length))


def test_empty_episode(grid_network):
    assert episode_global_scores(np.zeros(0), np.zeros(0), [], 60.0, 30.0) == []
    _assert_parity(grid_network, [])


def test_points_without_candidates(grid_network):
    # Leave the network for a stretch: those points have no candidate but
    # still weigh into their neighbours' windows.
    points = _walk(np.random.default_rng(3), 80)
    points += [SpatioTemporalPoint(1100.0 + 5.0 * i, 1100.0, 80.0 + i) for i in range(30)]
    points += _walk(np.random.default_rng(4), 60, start=(1010.0, 1010.0))
    matcher = GlobalMapMatcher(grid_network, CONFIG)
    assert any(not matcher.local_scores(point) for point in points)
    _assert_parity(grid_network, points)


def test_no_point_has_a_candidate(grid_network):
    points = [SpatioTemporalPoint(5000.0 + i, 5000.0, float(i)) for i in range(40)]
    arrays = TrajectoryArrays.from_points(points)
    scores = episode_global_scores(
        arrays.xs, arrays.ys, [{} for _ in points], CONFIG.context_radius, CONFIG.kernel_width
    )
    assert scores == [{} for _ in points]
    _assert_parity(grid_network, points)


def test_all_neighbour_weights_zero(grid_network):
    # A kernel width of a micrometre underflows every neighbour's weight to
    # 0.0; only the centre (distance 0, weight 1) is left in each window.
    config = dataclasses.replace(CONFIG, kernel_width_factor=1e-8)
    points = _walk(np.random.default_rng(5), 120)
    _assert_parity(grid_network, points, config)
    matcher = GlobalMapMatcher(grid_network, config)
    for matched, point in zip(matcher.match(points), points):
        local = matcher.local_scores(point)
        if local:
            assert matched.score == local[matched.segment_id][0]


def test_tied_candidate_scores(grid_network):
    # Along the duplicated avenue both copies tie everywhere.
    points = [SpatioTemporalPoint(20.0 + 4.0 * i, 452.0 + (i % 3), float(i)) for i in range(120)]
    _assert_parity(grid_network, points)
    matched = GlobalMapMatcher(grid_network, CONFIG).match(points)
    assert {m.segment_id for m in matched} == {"avenue-b"}


def test_local_score_only_mode(grid_network):
    config = dataclasses.replace(CONFIG, use_global_score=False)
    _assert_parity(grid_network, _walk(np.random.default_rng(8), 150), config)


@pytest.mark.parametrize("block_shape", [(7, 3), None])
def test_dense_cluster_spans_several_row_blocks(grid_network, monkeypatch, block_shape):
    # A slow drift of ~0.6 m per fix: each window holds about two hundred
    # points, so the episode covers several row blocks and offset chunks,
    # both under a tiny block shape and under the module's own.
    if block_shape is not None:
        monkeypatch.setattr(map_matching, "_ROW_BLOCK", block_shape[0])
        monkeypatch.setattr(map_matching, "_OFFSET_CHUNK", block_shape[1])
    count = 3 * map_matching._ROW_BLOCK + 40
    rng = np.random.default_rng(21)
    xs = 300.0 + np.cumsum(rng.uniform(0.0, 1.2, size=count))
    ys = 95.0 + rng.normal(0.0, 2.0, size=count)
    points = [
        SpatioTemporalPoint(float(x), float(y), float(i)) for i, (x, y) in enumerate(zip(xs, ys))
    ]
    _assert_parity(grid_network, points)
