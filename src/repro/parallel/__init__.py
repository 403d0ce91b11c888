"""Sharded parallel annotation runtime.

SeMiTri annotates each moving object's trajectories independently, which
makes per-object sharding the natural scale-out axis.  This package supplies
the pieces that turn the single-core batch pipeline into a multi-core
runtime without changing a single output byte:

* :class:`~repro.parallel.context.GeoContext` — an immutable snapshot of the
  annotation sources, configuration and prebuilt layer annotators (frozen
  R-trees, POI grid, HMM), built once and shared with workers via ``fork``
  copy-on-write, attached zero-copy through ``multiprocessing.shared_memory``
  or pickled once per worker;
* :mod:`~repro.parallel.shared` — :class:`SharedArrayBundle` and the
  :func:`share_context`/:func:`attach_context` pair that move the snapshot's
  contiguous numpy blocks (flat-index levels, CSR columns, coordinate
  arrays) into one shared segment workers map read-only.

Sharding, the worker pool and the input-order merge (with its one-transaction
store commit) live in :class:`~repro.engine.executors.ProcessPoolExecutor`,
which :func:`repro.api.annotate_many` runs when ``workers`` asks for more
than one process.  :mod:`repro.parallel.canonical` defines the byte-level
equality every executor is tested against.
"""

from repro.parallel.canonical import (
    canonical_annotation,
    canonical_bytes,
    canonical_digest,
    canonical_episode,
    canonical_result,
    canonical_structured,
)
from repro.parallel.context import GeoContext
from repro.parallel.shared import (
    SharedArrayBundle,
    SharedContextSpec,
    SharedGeoContext,
    SharedManifest,
    attach_context,
    share_context,
)

__all__ = [
    "GeoContext",
    "SharedArrayBundle",
    "SharedContextSpec",
    "SharedGeoContext",
    "SharedManifest",
    "attach_context",
    "canonical_annotation",
    "canonical_bytes",
    "canonical_digest",
    "canonical_episode",
    "canonical_result",
    "canonical_structured",
    "share_context",
]
