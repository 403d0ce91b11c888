"""Annotation-as-a-service: asyncio ingest tier over the stage-graph engine.

The package has four small parts:

* :mod:`repro.service.routing` — consistent-hash placement of object ids on
  shards (stable across processes, elastic under resharding);
* :mod:`repro.service.service` — :class:`AnnotationService`, the asyncio
  front end multiplexing many concurrent GPS streams into sharded
  :class:`~repro.engine.executors.MicroBatchExecutor` instances with bounded
  queues, explicit backpressure, LRU session eviction and a drain path whose
  output is canonically identical to a sequential batch run;
* :mod:`repro.service.workers` — the shard protocol: one batch step and two
  handles behind one send/ack/respawn contract — a dedicated thread per
  shard (``transport="thread"``, zero IPC), or one worker process per shard
  attached zero-copy to the shared
  :class:`~repro.parallel.context.GeoContext` and fed batched pre-encoded
  event frames over pipes (``transport="process"``, what lets throughput
  scale past the GIL);
* :mod:`repro.service.http` — an optional stdlib-only HTTP facade
  (``POST /ingest``, ``GET /metrics``, …) for emitters that speak JSON over
  a socket instead of calling into the process.
"""

from repro.service.http import HttpIngestServer
from repro.service.routing import ConsistentHashRing
from repro.service.service import AnnotationService, ServiceStats

__all__ = [
    "AnnotationService",
    "ConsistentHashRing",
    "HttpIngestServer",
    "ServiceStats",
]
