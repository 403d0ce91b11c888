"""Windowed (streaming) global map matching with bounded emission lag.

Algorithm 2's global score aggregates local scores over a context window that
walks outwards from the focal point and stops at the first neighbour leaving
the view radius ``R``.  The forward half of that window is therefore closed
the moment one later point at distance ``>= R`` has been observed — so a
streaming matcher can emit the *final* match for a point long before the move
episode ends, with a lag bounded by the spatial extent of the window rather
than the episode length.

:class:`WindowedMapMatcher` is the incremental API built on exactly that: it
computes each point's local scores on arrival, holds the point until its
forward window closes (or :meth:`finish` marks the end of the episode) and
then emits a :class:`~repro.lines.map_matching.MatchedPoint` that is
identical to what :meth:`GlobalMapMatcher.match` produces on the full point
sequence (parity tested).  Points observed so far are retained until
:meth:`finish` because a later point's *backward* walk may reach arbitrarily
far into a dense cluster; memory is thus bounded by the episode, the same as
the batch matcher.

A complete, sealed move episode needs no incremental emission: the streaming
engine and :meth:`WindowedMapMatcher.match_stream` hand it to the batch
matcher, which scores the whole episode through the array kernel
:func:`~repro.lines.map_matching.episode_global_scores`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.arrays import GrowableArray
from repro.core.config import MapMatchingConfig
from repro.core.errors import DataQualityError
from repro.core.places import LineOfInterest
from repro.core.points import SpatioTemporalPoint
from repro.lines.map_matching import CoordinateArrays, GlobalMapMatcher, MatchedPoint
from repro.lines.road_network import RoadNetwork


class WindowedMapMatcher:
    """Streaming wrapper around the global map-matching algorithm.

    Feed the points of one move episode in order with :meth:`push`; each call
    returns the matches whose kernel window became fully observed.  Call
    :meth:`finish` at the end of the episode to flush the pending tail and
    reset the matcher for the next episode.

    Under the ``numpy`` backend each pushed fix is also appended to growable
    coordinate buffers whose views feed the vectorized window walk and kernel
    weights of :meth:`GlobalMapMatcher.global_scores`; streaming and batch
    matching stay byte-identical per backend.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: MapMatchingConfig = MapMatchingConfig(),
        backend: str = "numpy",
        index_backend: str = "tree",
    ):
        self._matcher = GlobalMapMatcher(
            network, config, backend=backend, index_backend=index_backend
        )
        self._config = config
        self._backend = backend
        self._points: List[SpatioTemporalPoint] = []
        self._local: List[Dict[str, Tuple[float, LineOfInterest]]] = []
        self._xs = GrowableArray()
        self._ys = GrowableArray()
        self._emitted = 0
        self._scan = 1  # next forward index to test for closing the head's window

    def _coords(self) -> Optional[CoordinateArrays]:
        """Filled-prefix coordinate views for the vectorized kernels."""
        if self._backend != "numpy":
            return None
        return (self._xs.view(), self._ys.view())

    @property
    def matcher(self) -> GlobalMapMatcher:
        """The underlying batch matcher (shared scoring code)."""
        return self._matcher

    @property
    def config(self) -> MapMatchingConfig:
        """The active map-matching configuration."""
        return self._config

    @property
    def pending_count(self) -> int:
        """Points pushed but not yet emitted (the current lag)."""
        return len(self._points) - self._emitted

    # ------------------------------------------------------------------ feed
    def push(self, point: SpatioTemporalPoint) -> List[MatchedPoint]:
        """Feed the next point of the episode; returns newly final matches."""
        self._points.append(point)
        self._local.append(self._matcher.local_scores(point))
        self._xs.append(point.x)
        self._ys.append(point.y)
        return self._drain(closed=False)

    def finish(self) -> List[MatchedPoint]:
        """Flush the pending tail and reset for the next episode."""
        remaining = self._drain(closed=True)
        self._points = []
        self._local = []
        self._xs.clear()
        self._ys.clear()
        self._emitted = 0
        self._scan = 1
        return remaining

    def match_stream(self, points: List[SpatioTemporalPoint]) -> List[MatchedPoint]:
        """Match a complete episode: the batch matcher's whole-episode result.

        Equal to pushing every point and finishing, without the per-point
        emission schedule a sealed episode does not need.
        """
        if self._points:
            raise DataQualityError("matcher already has a stream in flight")
        return self._matcher.match(points)

    # ------------------------------------------------------------- internals
    def _drain(self, closed: bool) -> List[MatchedPoint]:
        emitted: List[MatchedPoint] = []
        n = len(self._points)
        while self._emitted < n:
            index = self._emitted
            point = self._points[index]
            candidates = self._local[index]
            if not candidates:
                emitted.append(
                    MatchedPoint(point=point, segment=None, score=0.0, snapped=point.position)
                )
                self._advance_head()
                continue
            if self._config.use_global_score:
                if not closed and not self._forward_window_closed(index):
                    break  # wait for a point beyond the view radius
                scores = self._matcher.global_scores(
                    self._points, self._local, index, coords=self._coords()
                )
            else:
                scores = {seg_id: score for seg_id, (score, _) in candidates.items()}
            emitted.append(self._matcher.select_best(point, candidates, scores))
            self._advance_head()
        return emitted

    def _forward_window_closed(self, index: int) -> bool:
        """True once a point at distance ``>= R`` after ``index`` was observed."""
        center = self._points[index]
        radius = self._config.context_radius
        while self._scan < len(self._points):
            if center.distance_to(self._points[self._scan]) >= radius:
                return True
            self._scan += 1
        return False

    def _advance_head(self) -> None:
        self._emitted += 1
        # The new head's forward window is re-scanned from just after it.
        self._scan = self._emitted + 1
