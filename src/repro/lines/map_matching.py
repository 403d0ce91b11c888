"""Global map matching (Algorithm 2, Equations 1-4).

For every GPS point of a move episode the matcher:

1. selects the candidate segments within ``candidate_radius`` through the road
   network's R-tree;
2. computes the point-segment distance of Equation 1 to every candidate;
3. normalises those distances to a ``localScore`` (Equation 2): the ratio of
   the minimum distance over the candidate's distance, so the closest
   candidate scores 1 and farther ones score proportionally less;
4. aggregates the local scores of the neighbouring points inside the context
   window (radius R) with Gaussian kernel weights (Equations 3-4) to produce
   the ``globalScore``;
5. picks the candidate with the highest global score and, when requested,
   snaps the GPS position onto it.

Under the ``numpy`` backend step 4 runs for a whole episode at once through
:func:`episode_global_scores`: a few array passes over window offsets instead
of one :meth:`GlobalMapMatcher.global_scores` call per point.  Batch matching
and the streaming engine (which matches each sealed move episode) both go
through it; the per-point :meth:`GlobalMapMatcher.global_scores` remains the
``python`` reference and the scorer of the incremental
:class:`~repro.streaming.matching.WindowedMapMatcher`, and the two agree
exactly (parity tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arrays import TrajectoryArrays
from repro.core.config import MapMatchingConfig
from repro.core.places import LineOfInterest
from repro.core.points import SpatioTemporalPoint
from repro.geometry.distance import (
    closest_point_on_segment,
    perpendicular_distance,
    point_segment_distance,
)
from repro.geometry.kernels import gaussian_kernel_weight
from repro.geometry.primitives import Point
from repro.geometry.vectorized import (
    gaussian_kernel_weights,
    leading_run_within_radius,
    perpendicular_distances,
    point_segment_distances,
    points_in_bbox,
)
from repro.lines.road_network import RoadNetwork

#: Coordinate columns of the points being matched: ``(xs, ys)``.  The
#: incremental :class:`~repro.streaming.matching.WindowedMapMatcher` appends
#: into growable buffers and passes their views to
#: :meth:`GlobalMapMatcher.global_scores`.
CoordinateArrays = Tuple[np.ndarray, np.ndarray]

#: Small-input cutoffs below which the scalar loops beat the fixed per-call
#: overhead of numpy kernels.  Crossing them never changes output bytes: the
#: distance and window computations are bit-equal across paths (arithmetic
#: only), and the ``exp``-dependent weight path is selected from the window
#: alone, which is identical however it was computed — so batch and streaming
#: always take the same weight path for the same emitted point.
_VECTOR_MIN_POINTS = 32
_VECTOR_MIN_CANDIDATES = 8
_VECTOR_MIN_WINDOW = 16

#: Block shape of :func:`episode_global_scores`: rows (points) scored
#: together, and window offsets handled per array pass.  Every pass allocates
#: (rows x offsets x candidates) temporaries, so the fixed shape bounds them
#: however long the episode or dense its windows.
_ROW_BLOCK = 128
_OFFSET_CHUNK = 16

LocalScores = Dict[str, Tuple[float, LineOfInterest]]


def context_window_extents(
    xs: np.ndarray, ys: np.ndarray, rows: np.ndarray, radius: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Backward and forward context-window lengths of the points ``rows``.

    Point ``i``'s window is ``range(i - before, i + after + 1)``: the walks of
    :meth:`GlobalMapMatcher._window_indices`, which stop at the first
    neighbour not strictly closer than ``radius``.  Each array pass tests a
    chunk of window offsets for every row whose walk is still running, with
    the same ``sqrt(dx*dx + dy*dy) < radius`` comparison as the scalar walk.
    """
    n = len(xs)
    extents = []
    for step in (-1, 1):
        extent = np.zeros(rows.size, dtype=np.intp)
        running = np.arange(rows.size)
        first = 1
        while running.size:
            centres = rows[running, None]
            neighbours = centres + step * np.arange(first, first + _OFFSET_CHUNK)
            exists = (neighbours >= 0) & (neighbours < n)
            neighbours = np.where(exists, neighbours, centres)
            dx = xs[neighbours] - xs[centres]
            dy = ys[neighbours] - ys[centres]
            inside = exists & (np.sqrt(dx * dx + dy * dy) < radius)
            full = inside.all(axis=1)
            extent[running] += np.where(full, _OFFSET_CHUNK, np.argmin(inside, axis=1))
            running = running[full]
            first += _OFFSET_CHUNK
        extents.append(extent)
    return extents[0], extents[1]


def episode_global_scores(
    xs: np.ndarray,
    ys: np.ndarray,
    local_scores: Sequence[LocalScores],
    radius: float,
    bandwidth: float,
) -> List[Dict[str, float]]:
    """Equations 3-4 for every point of an episode at once.

    Returns, per point, the global score of each of its candidates (an empty
    dict for a point without candidates), exactly what
    :meth:`GlobalMapMatcher.global_scores` returns point by point under the
    ``numpy`` backend:

    * the windows come from :func:`context_window_extents`;
    * a point whose window has at least ``_VECTOR_MIN_WINDOW`` points gets
      ``np.exp`` kernel weights, a smaller window ``math.exp`` ones — the two
      may differ by 1 ulp, so the per-point choice is kept;
    * ``weight * localScore`` is summed for each point and candidate in
      ascending neighbour order: ``np.cumsum`` adds sequentially, and a slot
      outside the window or a neighbour without the candidate adds ``0.0``,
      which leaves the non-negative sum unchanged.  The sums are therefore
      bit-identical to the scalar loop's.

    Points are processed in blocks of ``_ROW_BLOCK`` rows and
    ``_OFFSET_CHUNK`` window offsets.
    """
    n = len(local_scores)
    result: List[Dict[str, float]] = [{} for _ in range(n)]
    counts = np.fromiter((len(scores) for scores in local_scores), dtype=np.intp, count=n)
    scored = np.flatnonzero(counts)
    if not scored.size:
        return result

    # Dense segment codes; candidate (point, code) pairs become sorted keys
    # in which a neighbour's score is looked up with one searchsorted call.
    codes: Dict[str, int] = {}
    flat_codes = np.fromiter(
        (
            codes.setdefault(segment_id, len(codes))
            for scores in local_scores
            for segment_id in scores
        ),
        dtype=np.intp,
        count=int(counts.sum()),
    )
    flat_scores = np.fromiter(
        (score for scores in local_scores for score, _ in scores.values()),
        dtype=np.float64,
        count=flat_codes.size,
    )
    stride = len(codes) + 1  # code len(codes) pads unused candidate slots
    owners = np.repeat(np.arange(n), counts)
    slots = np.arange(flat_codes.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = int(counts.max())
    candidates = np.full((n, width), stride - 1, dtype=np.intp)
    candidates[owners, slots] = flat_codes
    keys = owners * stride + flat_codes
    order = np.argsort(keys)
    sorted_keys = keys[order]
    sorted_scores = flat_scores[order]
    last_key = sorted_keys.size - 1
    denominator = 2.0 * bandwidth * bandwidth

    for start in range(0, scored.size, _ROW_BLOCK):
        rows = scored[start : start + _ROW_BLOCK]
        before, after = context_window_extents(xs, ys, rows, radius)
        exact_exp = (before + after + 1 < _VECTOR_MIN_WINDOW)[:, None]
        before = before[:, None]
        after = after[:, None]
        centres = rows[:, None]
        row_candidates = candidates[rows][:, None, :]
        total = np.zeros((rows.size, 1))
        weighted = np.zeros((rows.size, 1, width))
        last = int(after.max())
        for first in range(-int(before.max()), last + 1, _OFFSET_CHUNK):
            offsets = np.arange(first, min(first + _OFFSET_CHUNK, last + 1))
            inside = (offsets >= -before) & (offsets <= after)
            neighbours = np.where(inside, centres + offsets, centres)
            dx = xs[neighbours] - xs[centres]
            dy = ys[neighbours] - ys[centres]
            distances = np.sqrt(dx * dx + dy * dy)
            exponents = -(distances * distances) / denominator
            weights = np.exp(exponents)
            exact = inside & exact_exp
            if exact.any():
                weights[exact] = list(map(math.exp, exponents[exact].tolist()))
            weights[~inside] = 0.0
            total = np.cumsum(np.concatenate((total, weights), axis=1), axis=1)[:, -1:]
            query = neighbours[:, :, None] * stride + row_candidates
            found = np.minimum(np.searchsorted(sorted_keys, query), last_key)
            values = np.where(sorted_keys[found] == query, sorted_scores[found], 0.0)
            terms = weights[:, :, None] * values
            weighted = np.cumsum(np.concatenate((weighted, terms), axis=1), axis=1)[:, -1:]
        # Every window holds its centre at weight exp(-0.0) == 1, so each
        # total is positive and the scalar scorer's fallback for a weightless
        # window never applies.
        totals = total[:, 0].tolist()
        for row, row_total, sums in zip(rows.tolist(), totals, weighted[:, 0].tolist()):
            result[row] = {
                segment_id: value / row_total for segment_id, value in zip(local_scores[row], sums)
            }
    return result


@dataclass(frozen=True)
class MatchedPoint:
    """Result of matching one GPS point.

    Attributes
    ----------
    point:
        The original GPS fix.
    segment:
        The matched road segment, or None when no candidate was within reach.
    score:
        The winning global score (0 when unmatched).
    snapped:
        The corrected position on the matched segment (Algorithm 2 line 17),
        or the original position when unmatched.
    """

    point: SpatioTemporalPoint
    segment: Optional[LineOfInterest]
    score: float
    snapped: Point

    @property
    def is_matched(self) -> bool:
        """True when a road segment was found for this point."""
        return self.segment is not None

    @property
    def segment_id(self) -> Optional[str]:
        """Identifier of the matched segment, or None."""
        return self.segment.place_id if self.segment is not None else None


class GlobalMapMatcher:
    """The global map-matching algorithm of Section 4.2.

    ``backend`` selects the per-point compute path: ``"numpy"`` columnarises
    the episode once, prefilters points that cannot reach any segment with a
    vectorized bounding-box test, scores candidate sets through the batch
    point-segment-distance kernel and aggregates context windows with
    vectorized Gaussian kernel weights; ``"python"`` is the scalar reference.
    Candidate selection, ordering and tie-breaking are shared, so both
    backends match every point to the same segment.

    ``index_backend`` selects how candidate segments are pulled from the road
    network: ``"flat"`` issues **one** batch query per episode against the
    network's compiled :class:`~repro.index.flat.FlatSpatialIndex` (same
    candidate sets, same order, bit-identical distances as the scalar tree),
    ``"tree"`` walks the scalar R-tree once per point.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: MapMatchingConfig = MapMatchingConfig(),
        backend: str = "numpy",
        index_backend: str = "tree",
    ):
        self._network = network
        self._config = config
        self._backend = backend
        self._index_backend = index_backend

    @property
    def network(self) -> RoadNetwork:
        """The underlying road network."""
        return self._network

    @property
    def config(self) -> MapMatchingConfig:
        """The active map-matching configuration."""
        return self._config

    @property
    def backend(self) -> str:
        """The active compute backend (``"numpy"`` or ``"python"``)."""
        return self._backend

    @property
    def index_backend(self) -> str:
        """The active spatial-index backend (``"flat"`` or ``"tree"``)."""
        return self._index_backend

    # -------------------------------------------------------------- matching
    def match(self, points: Sequence[SpatioTemporalPoint]) -> List[MatchedPoint]:
        """Match every GPS point of a move episode to a road segment."""
        if not points:
            return []
        arrays: Optional[TrajectoryArrays] = None
        if self._backend == "numpy" and len(points) >= _VECTOR_MIN_POINTS:
            arrays = TrajectoryArrays.from_points(points)
        if self._index_backend == "flat":
            # One batch index query for the whole episode; the flat index
            # prunes unreachable points through the root box, so the separate
            # reachability prefilter is unnecessary.
            local_scores = self.batch_local_scores(points)
        elif arrays is not None:
            reachable = self._reachable_mask(arrays)
            local_scores = [
                self.local_scores(point) if reachable[index] else {}
                for index, point in enumerate(points)
            ]
        else:
            local_scores = [self.local_scores(point) for point in points]
        if not self._config.use_global_score:
            episode_scores = [
                {seg_id: score for seg_id, (score, _) in candidates.items()}
                for candidates in local_scores
            ]
        elif arrays is not None:
            episode_scores = episode_global_scores(
                arrays.xs,
                arrays.ys,
                local_scores,
                self._config.context_radius,
                self._config.kernel_width,
            )
        else:
            # The python reference, and short episodes, where the kernel's
            # fixed per-call overhead exceeds the per-point walks.
            episode_scores = [
                self.global_scores(points, local_scores, index) if candidates else {}
                for index, candidates in enumerate(local_scores)
            ]
        return [
            self.select_best(point, candidates, scores)
            if candidates
            else MatchedPoint(point=point, segment=None, score=0.0, snapped=point.position)
            for point, candidates, scores in zip(points, local_scores, episode_scores)
        ]

    def _reachable_mask(self, arrays: TrajectoryArrays) -> np.ndarray:
        """Vectorized prefilter: which points could have a candidate at all.

        A point farther than ``candidate_radius`` (in every axis) from the
        network's bounding box is farther than that radius from every
        segment, so its R-tree query is guaranteed empty and skipped.  The
        padding carries a small slack beyond the radius because the scalar
        filter compares a *rounded* ``sqrt`` distance against the radius: a
        point whose true distance exceeds the radius by less than a rounding
        error could still pass it, and the prefilter must never skip a point
        the query could match.  Extra non-skips are merely an empty query.
        """
        bounds = self._network.bounds()
        radius = self._config.candidate_radius
        padding = radius * (1.0 + 1e-9) + 1e-9
        return points_in_bbox(
            arrays.xs,
            arrays.ys,
            bounds.min_x - padding,
            bounds.min_y - padding,
            bounds.max_x + padding,
            bounds.max_y + padding,
        )

    def select_best(
        self,
        point: SpatioTemporalPoint,
        candidates: Dict[str, Tuple[float, LineOfInterest]],
        scores: Dict[str, float],
    ) -> MatchedPoint:
        """Pick the highest-scoring candidate and snap the point onto it."""
        best_id = max(scores.items(), key=lambda pair: (pair[1], pair[0]))[0]
        best_segment = candidates[best_id][1]
        snapped = closest_point_on_segment(point.position, best_segment.segment)
        return MatchedPoint(
            point=point, segment=best_segment, score=scores[best_id], snapped=snapped
        )

    def matched_segment_sequence(self, points: Sequence[SpatioTemporalPoint]) -> List[str]:
        """De-duplicated sequence of matched segment ids (Algorithm 2 output)."""
        sequence: List[str] = []
        for matched in self.match(points):
            if matched.segment_id is None:
                continue
            if not sequence or sequence[-1] != matched.segment_id:
                sequence.append(matched.segment_id)
        return sequence

    # -------------------------------------------------------------- internals
    def _distance(self, point: Point, segment: LineOfInterest) -> float:
        if self._config.distance_metric == "perpendicular":
            return perpendicular_distance(point, segment.segment)
        return point_segment_distance(point, segment.segment)

    def local_scores(
        self, point: SpatioTemporalPoint
    ) -> Dict[str, Tuple[float, LineOfInterest]]:
        """Equation 2: localScore of every candidate segment of ``point``."""
        candidates = self._network.candidate_segments(
            point.position,
            radius=self._config.candidate_radius,
            max_candidates=self._config.max_candidates,
        )
        return self._local_scores_from_candidates(point, candidates)

    def batch_local_scores(
        self, points: Sequence[SpatioTemporalPoint]
    ) -> List[Dict[str, Tuple[float, LineOfInterest]]]:
        """Equation 2 for every point of an episode with one batch index query.

        Candidate selection goes through the flat index
        (:meth:`RoadNetwork.candidate_segments_batch`); for the default
        ``point_segment`` metric the selection distances *are* Equation 1's
        scoring distances (the same kernel, bit-identical to the scalar
        recomputation), so the scores are normalised straight from the batch
        result; the ``perpendicular`` ablation metric re-scores each candidate
        set through the per-point path, exactly like the scalar matcher.
        """
        candidate_lists = self._network.candidate_segments_batch(
            [point.position for point in points],
            radius=self._config.candidate_radius,
            max_candidates=self._config.max_candidates,
        )
        if self._config.distance_metric == "point_segment":
            return [
                self._normalized_scores(
                    {segment.place_id: (distance, segment) for distance, segment in candidates}
                )
                for candidates in candidate_lists
            ]
        return [
            self._local_scores_from_candidates(point, candidates)
            for point, candidates in zip(points, candidate_lists)
        ]

    def _local_scores_from_candidates(
        self,
        point: SpatioTemporalPoint,
        candidates: Sequence[Tuple[float, LineOfInterest]],
    ) -> Dict[str, Tuple[float, LineOfInterest]]:
        """Score an already-selected candidate list with the configured metric."""
        if not candidates:
            return {}
        if self._backend == "numpy" and len(candidates) >= _VECTOR_MIN_CANDIDATES:
            distances = self._candidate_distances_arrays(point.position, candidates)
        else:
            distances = {
                segment.place_id: (self._distance(point.position, segment), segment)
                for _, segment in candidates
            }
        return self._normalized_scores(distances)

    @staticmethod
    def _normalized_scores(
        distances: Dict[str, Tuple[float, LineOfInterest]],
    ) -> Dict[str, Tuple[float, LineOfInterest]]:
        """Equation 2's min-ratio normalisation over a candidate distance map."""
        if not distances:
            return {}
        d_min = min(distance for distance, _ in distances.values())
        scores: Dict[str, Tuple[float, LineOfInterest]] = {}
        for segment_id, (distance, segment) in distances.items():
            if distance <= 0.0:
                score = 1.0
            elif d_min <= 0.0:
                score = 0.0
            else:
                score = d_min / distance
            scores[segment_id] = (score, segment)
        return scores

    def _candidate_distances_arrays(
        self, position: Point, candidates: Sequence[Tuple[float, LineOfInterest]]
    ) -> Dict[str, Tuple[float, LineOfInterest]]:
        """Candidate distances through the batch kernel (bit-equal to scalar).

        Gathers the candidates' endpoint geometry from the network's cached
        :class:`~repro.lines.road_network.SegmentArrays` with one
        fancy-indexing operation and evaluates Equation 1 over the whole
        candidate set at once, preserving candidate order (and with it the
        deterministic tie-breaking downstream).
        """
        arrays = self._network.segment_arrays()
        rows = np.fromiter(
            (arrays.row_of[segment.place_id] for _, segment in candidates),
            dtype=np.intp,
            count=len(candidates),
        )
        kernel = (
            perpendicular_distances
            if self._config.distance_metric == "perpendicular"
            else point_segment_distances
        )
        distances = kernel(
            position.x,
            position.y,
            arrays.start_xs[rows],
            arrays.start_ys[rows],
            arrays.end_xs[rows],
            arrays.end_ys[rows],
        )
        return {
            segment.place_id: (float(distances[column]), segment)
            for column, (_, segment) in enumerate(candidates)
        }

    def global_scores(
        self,
        points: Sequence[SpatioTemporalPoint],
        local_scores: Sequence[Dict[str, Tuple[float, LineOfInterest]]],
        index: int,
        coords: Optional[CoordinateArrays] = None,
    ) -> Dict[str, float]:
        """Equations 3-4: kernel-weighted global score of each candidate of point ``index``.

        The context window is intrinsically bounded: the walk in each
        direction stops at the first point leaving the view radius, which is
        what lets the streaming :class:`~repro.streaming.matching.WindowedMapMatcher`
        emit a point's match as soon as one later out-of-radius point has been
        observed.

        ``coords`` carries the episode's coordinate columns for the numpy
        backend (streamed into growable buffers by the windowed matcher); the
        window walk and the kernel weights then run vectorized, while the
        per-candidate accumulation keeps the scalar loop's order.  Under the
        numpy backend :meth:`match` scores whole episodes through
        :func:`episode_global_scores` instead, with identical results.
        """
        center = points[index].position
        radius = self._config.context_radius
        sigma = self._config.kernel_width
        candidate_ids = list(local_scores[index].keys())

        weighted_sum: Dict[str, float] = {segment_id: 0.0 for segment_id in candidate_ids}
        weight_total = 0.0

        # The window is identical whichever walk computes it (comparisons over
        # bit-equal distances), so the weight-path choice below, made from the
        # window alone, is the same in batch and streaming.
        if coords is not None and self._backend == "numpy":
            window = self._window_indices_arrays(coords, index, radius)
        else:
            window = self._window_indices(points, index, radius)

        if self._backend == "numpy" and len(window) >= _VECTOR_MIN_WINDOW:
            if coords is not None:
                xs, ys = coords
                dx = xs[window] - center.x
                dy = ys[window] - center.y
            else:
                count = len(window)
                dx = np.fromiter(
                    (points[k].x for k in window), dtype=np.float64, count=count
                ) - center.x
                dy = np.fromiter(
                    (points[k].y for k in window), dtype=np.float64, count=count
                ) - center.y
            weights = gaussian_kernel_weights(
                np.sqrt(dx * dx + dy * dy), bandwidth=sigma, radius=radius
            )
        else:
            weights = [
                gaussian_kernel_weight(
                    center.distance_to(points[neighbor_index].position),
                    bandwidth=sigma,
                    radius=radius,
                )
                for neighbor_index in window
            ]

        # Aggregate the neighbours inside the context window in both directions.
        for position, neighbor_index in enumerate(window):
            weight = float(weights[position])
            if weight <= 0.0:
                continue
            weight_total += weight
            neighbor_scores = local_scores[neighbor_index]
            for segment_id in candidate_ids:
                if segment_id in neighbor_scores:
                    weighted_sum[segment_id] += weight * neighbor_scores[segment_id][0]

        if weight_total <= 0.0:
            return {segment_id: score for segment_id, (score, _) in local_scores[index].items()}
        return {segment_id: total / weight_total for segment_id, total in weighted_sum.items()}

    def _window_indices(
        self, points: Sequence[SpatioTemporalPoint], index: int, radius: float
    ) -> List[int]:
        """Indices of points within ``radius`` of point ``index`` (the 2R window).

        Walks backwards and forwards from the centre and stops as soon as a
        point leaves the view radius, mirroring the N1-before/N2-after window
        of the paper.
        """
        center = points[index].position
        window = [index]
        cursor = index - 1
        while cursor >= 0 and center.distance_to(points[cursor].position) < radius:
            window.append(cursor)
            cursor -= 1
        cursor = index + 1
        while cursor < len(points) and center.distance_to(points[cursor].position) < radius:
            window.append(cursor)
            cursor += 1
        return sorted(window)

    def _window_indices_arrays(
        self, coords: CoordinateArrays, index: int, radius: float
    ) -> List[int]:
        """Vectorized :meth:`_window_indices`: adaptive chunked walks over columns.

        The backward walk scans a reversed view, the forward walk the
        trailing slice; both use the strict ``<`` comparison of the scalar
        loops and stop at the first point leaving the view radius, so the
        resulting (sorted) window is identical.
        """
        xs, ys = coords
        cx, cy = float(xs[index]), float(ys[index])
        before = leading_run_within_radius(
            xs[index - 1 :: -1] if index > 0 else xs[:0],
            ys[index - 1 :: -1] if index > 0 else ys[:0],
            cx,
            cy,
            radius,
            inclusive=False,
        )
        after = leading_run_within_radius(
            xs[index + 1 :], ys[index + 1 :], cx, cy, radius, inclusive=False
        )
        return list(range(index - before, index + after + 1))


def matching_accuracy(
    matched_ids: Sequence[Optional[str]], truth_ids: Sequence[Optional[str]]
) -> float:
    """Fraction of points matched to the ground-truth segment.

    Points without a ground-truth segment (off-network) are skipped; the
    metric is the one plotted in Figure 10.
    """
    if len(matched_ids) != len(truth_ids):
        raise ValueError("matched and truth sequences must have the same length")
    considered = 0
    correct = 0
    for matched, truth in zip(matched_ids, truth_ids):
        if truth is None:
            continue
        considered += 1
        if matched == truth:
            correct += 1
    if considered == 0:
        return 0.0
    return correct / considered
