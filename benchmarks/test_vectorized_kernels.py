"""Scalar-versus-numpy speedups of the hot-path kernels (the bench-gate set).

Times the vectorized kernels of :mod:`repro.geometry.vectorized` (and the
flag kernels built on them) against their pure-Python reference loops on a
dwell-heavy 15k-point trajectory — the shape the acceptance criterion names:
stop-flag and distance kernels must be at least 3x faster vectorized on
trajectories of 10k+ points.  The ``episode_global_scores`` case times the
whole-episode Equations 3-4 kernel against the scalar per-point scorer on a
dense 2,000-point move episode, under the same floor.

Every timing also asserts output equality first, so a "fast but wrong"
kernel can never post a speedup.  The recorded metrics are *ratios*
(vectorized over scalar on the same machine, same process), which makes the
CI regression gate robust to absolute machine speed; the sidecar still
carries machine metadata for like-with-like checks.
"""

from __future__ import annotations

from typing import List

import numpy as np

from benchmarks.conftest import best_of, save_result
from repro.analytics.reporting import render_table
from repro.core.arrays import TrajectoryArrays
from repro.core.config import MapMatchingConfig
from repro.core.points import RawTrajectory, SpatioTemporalPoint
from repro.geometry.distance import point_segment_distance
from repro.geometry.kernels import gaussian_kernel_weight
from repro.geometry.primitives import Point, Segment
from repro.geometry.vectorized import (
    consecutive_distances,
    gaussian_kernel_weights,
    point_segment_distances,
)
from repro.lines.map_matching import GlobalMapMatcher, episode_global_scores
from repro.preprocessing.stops import (
    density_stop_flags,
    density_stop_flags_arrays,
    velocity_stop_flags,
    velocity_stop_flags_arrays,
)

POINT_COUNT = 15_000
SPEED_THRESHOLD = 1.5
DENSITY_RADIUS = 60.0
MIN_STOP_DURATION = 150.0
KERNEL_BANDWIDTH = 50.0
KERNEL_RADIUS = 100.0
#: The acceptance floor for the gated kernels (stop flags + distances).
REQUIRED_SPEEDUP = 3.0
_REPEATS = 5
#: Length of the dense move episode of the ``episode_global_scores`` case.
EPISODE_POINTS = 2_000


def _dwell_heavy_trajectory(n: int = POINT_COUNT, seed: int = 97) -> RawTrajectory:
    """A synthetic trajectory mixing move stretches with long dwell clusters."""
    rng = np.random.default_rng(seed)
    points: List[SpatioTemporalPoint] = []
    t, x, y = 0.0, 1000.0, 1000.0
    dwell = 0
    for _ in range(n):
        t += float(rng.uniform(10.0, 30.0))
        if dwell > 0:
            dwell -= 1
            x += float(rng.normal(0.0, 2.0))
            y += float(rng.normal(0.0, 2.0))
        else:
            if rng.random() < 0.02:
                dwell = int(rng.integers(20, 60))
            x += float(rng.normal(0.0, 25.0))
            y += float(rng.normal(0.0, 25.0))
        points.append(SpatioTemporalPoint(x, y, t))
    return RawTrajectory(points, object_id="bench", trajectory_id="bench-0")


def _dense_move_episode(world, n: int = EPISODE_POINTS, seed: int = 53):
    """A walk along the world's street grid: a fix every 2 m, 5 m GPS noise.

    With the default 100 m context radius each window holds about a hundred
    points, the dense shape where Equations 3-4 dominate map matching.
    """
    rng = np.random.default_rng(seed)
    core_min = world.config.core_min
    points = []
    for i in range(n):
        x = core_min + (i * 2.0) % 3000.0 + float(rng.normal(0.0, 5.0))
        y = core_min + ((i * 2.0) // 3000.0) * 400.0 + float(rng.normal(0.0, 5.0))
        points.append(SpatioTemporalPoint(x, y, float(i)))
    return points


def _assert_same_episode_scores(scalar, vector) -> None:
    """Segment ids exact (candidates and winners); scores within 1 ulp of exp."""
    assert len(scalar) == len(vector)
    for expected, observed in zip(scalar, vector):
        assert list(expected) == list(observed)
        if expected:
            assert max(expected.items(), key=lambda pair: (pair[1], pair[0]))[0] == max(
                observed.items(), key=lambda pair: (pair[1], pair[0])
            )[0]
            assert np.allclose(
                list(expected.values()), list(observed.values()), rtol=1e-14, atol=0.0
            )


def test_vectorized_kernel_speedups(benchmark, world):
    trajectory = _dwell_heavy_trajectory()
    points = trajectory.points
    arrays = TrajectoryArrays.from_trajectory(trajectory)

    # Batched segment geometry: one query point against POINT_COUNT segments.
    seg_rng = np.random.default_rng(131)
    axs = seg_rng.uniform(0.0, 4000.0, size=POINT_COUNT)
    ays = seg_rng.uniform(0.0, 4000.0, size=POINT_COUNT)
    bxs = axs + seg_rng.uniform(-120.0, 120.0, size=POINT_COUNT)
    bys = ays + seg_rng.uniform(-120.0, 120.0, size=POINT_COUNT)
    segments = [
        Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in zip(axs, ays, bxs, bys)
    ]
    query = Point(2000.0, 2000.0)
    kernel_distances = seg_rng.uniform(0.0, 2.0 * KERNEL_RADIUS, size=POINT_COUNT)
    kernel_distance_list = kernel_distances.tolist()

    # Equations 3-4 over a dense move episode: the scalar python-backend
    # scorer point by point against the whole-episode kernel.
    matching = MapMatchingConfig()
    scalar_matcher = GlobalMapMatcher(world.road_network(), matching, backend="python")
    episode = _dense_move_episode(world)
    episode_local = [scalar_matcher.local_scores(point) for point in episode]

    def episode_kernel():
        columns = TrajectoryArrays.from_points(episode)
        return episode_global_scores(
            columns.xs,
            columns.ys,
            episode_local,
            matching.context_radius,
            matching.kernel_width,
        )

    measured = {}

    def run_all():
        cases = {
            "stop_flags_velocity": (
                lambda: velocity_stop_flags(points, SPEED_THRESHOLD),
                lambda: velocity_stop_flags_arrays(arrays, SPEED_THRESHOLD),
            ),
            "stop_flags_density": (
                lambda: density_stop_flags(points, DENSITY_RADIUS, MIN_STOP_DURATION),
                lambda: density_stop_flags_arrays(arrays, DENSITY_RADIUS, MIN_STOP_DURATION),
            ),
            "consecutive_distances": (
                lambda: [points[i].distance_to(points[i + 1]) for i in range(len(points) - 1)],
                lambda: consecutive_distances(arrays.xs, arrays.ys).tolist(),
            ),
            "point_segment_distances": (
                lambda: [point_segment_distance(query, segment) for segment in segments],
                lambda: point_segment_distances(
                    query.x, query.y, axs, ays, bxs, bys
                ).tolist(),
            ),
            "gaussian_kernel_weights": (
                lambda: [
                    gaussian_kernel_weight(d, KERNEL_BANDWIDTH, KERNEL_RADIUS)
                    for d in kernel_distance_list
                ],
                lambda: gaussian_kernel_weights(
                    kernel_distances, KERNEL_BANDWIDTH, KERNEL_RADIUS
                ).tolist(),
            ),
            "episode_global_scores": (
                lambda: [
                    scalar_matcher.global_scores(episode, episode_local, index) if local else {}
                    for index, local in enumerate(episode_local)
                ],
                episode_kernel,
            ),
        }
        for name, (scalar_fn, vector_fn) in cases.items():
            scalar_seconds, scalar_value = best_of(scalar_fn)
            vector_seconds, vector_value = best_of(vector_fn)
            if name == "gaussian_kernel_weights":
                # exp-based kernel: documented 1-ulp tolerance per element.
                assert np.allclose(scalar_value, vector_value, rtol=1e-14, atol=0.0)
            elif name == "episode_global_scores":
                _assert_same_episode_scores(scalar_value, vector_value)
            else:
                assert scalar_value == vector_value  # bit-for-bit
            measured[name] = (scalar_seconds, vector_seconds)
        return measured

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    metrics = {}
    for name, (scalar_seconds, vector_seconds) in measured.items():
        speedup = scalar_seconds / vector_seconds
        metrics[f"speedup_{name}"] = round(speedup, 2)
        rows.append(
            [
                name,
                f"{scalar_seconds * 1e3:.2f}",
                f"{vector_seconds * 1e3:.2f}",
                f"{speedup:.1f}x",
            ]
        )
    text = render_table(
        ["kernel", "python (ms)", "numpy (ms)", "speedup"],
        rows,
        title=f"Vectorized kernel speedups ({POINT_COUNT} points, best of {_REPEATS})",
    )
    save_result(
        "vectorized_kernels",
        text,
        data={
            "point_count": POINT_COUNT,
            "episode_point_count": EPISODE_POINTS,
            "repeats": _REPEATS,
            "seconds": {
                name: {"python": s, "numpy": v} for name, (s, v) in measured.items()
            },
        },
        metrics=metrics,
    )

    # The acceptance floor: stop-flag, distance and episode global-score
    # kernels at >= 3x (the episode kernel read 9.3-14.4x over five runs on
    # a 2-core x86-64 host).
    for gated in (
        "stop_flags_velocity",
        "consecutive_distances",
        "point_segment_distances",
        "episode_global_scores",
    ):
        assert metrics[f"speedup_{gated}"] >= REQUIRED_SPEEDUP, (
            f"{gated} speedup {metrics[f'speedup_{gated}']}x below the "
            f"{REQUIRED_SPEEDUP}x acceptance floor"
        )
