"""Zero-copy shared-memory snapshot transport and size-aware dispatch.

Covers the acceptance criteria of the parallel-scaling fix:

* :class:`SharedArrayBundle` round-trips named numpy blocks through one
  POSIX segment with read-only zero-copy views on the attach side;
* :func:`share_context` / :func:`attach_context` rebuild a
  :class:`GeoContext` whose flat-index arrays *alias* the shared segment
  (asserted with :func:`numpy.shares_memory`) instead of copying;
* canonical output bytes are identical across every
  ``dispatch`` × ``shared_memory`` combination and equal to sequential;
* no ``/dev/shm`` segment survives an executor close, a dropped
  (garbage-collected) executor or a SIGKILLed worker.
"""

from __future__ import annotations

import dataclasses
import gc
import glob
import os
import signal
import time

import numpy as np
import pytest

import repro
from repro.core import PipelineConfig, SeMiTriPipeline
from repro.core.errors import ConfigurationError
from repro.engine.executors import ProcessPoolExecutor, dispatch_shards
from repro.engine.plan import Plan
from repro.parallel import (
    GeoContext,
    SharedArrayBundle,
    canonical_bytes,
    canonical_digest,
    attach_context,
    share_context,
)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="POSIX shared memory not available"
)

TEST_WORKERS = max(2, int(os.environ.get("SEMITRI_TEST_WORKERS", "2")))


def _segment_paths(name):
    return glob.glob(f"/dev/shm/{name}") + glob.glob(f"/dev/shm/psm_{name}")


def _people_config() -> PipelineConfig:
    config = PipelineConfig.for_people()
    # Pin the flat index backend: the zero-copy assertions below inspect the
    # flat-index blocks by name, which only exist on that backend.
    return dataclasses.replace(
        config, compute=dataclasses.replace(config.compute, index_backend="flat")
    )


@pytest.fixture(scope="module")
def flat_context(annotation_sources) -> GeoContext:
    return GeoContext.build(annotation_sources, _people_config())


@pytest.fixture(scope="module")
def small_batch(people_dataset):
    return people_dataset.all_trajectories


@pytest.fixture(scope="module")
def sequential_bytes(small_batch, annotation_sources) -> bytes:
    results = SeMiTriPipeline(_people_config()).annotate_many(
        small_batch, annotation_sources
    )
    return canonical_bytes(results)


# ------------------------------------------------------------ bundle basics
class TestSharedArrayBundle:
    def test_round_trip_values_and_read_only_views(self):
        arrays = {
            "floats": np.linspace(0.0, 1.0, 512),
            "ints": np.arange(128, dtype=np.int64).reshape(8, 16),
            "tiny": np.array([1.5, 2.5]),
        }
        with SharedArrayBundle.create(arrays) as bundle:
            attached = SharedArrayBundle.attach(bundle.manifest)
            try:
                assert attached.keys() == tuple(arrays)
                for key, array in arrays.items():
                    view = attached[key]
                    assert np.array_equal(view, array)
                    assert view.shape == array.shape
                    assert view.dtype == array.dtype
                    assert not view.flags.writeable
                    with pytest.raises((ValueError, RuntimeError)):
                        view[(0,) * view.ndim] = 99.0
            finally:
                attached.close()

    def test_blocks_are_cache_line_aligned(self):
        arrays = {"a": np.ones(3), "b": np.ones(5), "c": np.ones(7)}
        with SharedArrayBundle.create(arrays) as bundle:
            for block in bundle.manifest.blocks:
                assert block.offset % 64 == 0

    def test_unknown_key_and_contiguity_validation(self):
        with SharedArrayBundle.create({"a": np.ones(4)}) as bundle:
            with pytest.raises(KeyError):
                bundle["missing"]
        with pytest.raises(ValueError):
            SharedArrayBundle.create({"f": np.ones((8, 8))[:, ::2]})
        with pytest.raises(ValueError):
            SharedArrayBundle.create({"o": np.array([object()], dtype=object)})

    def test_close_unlinks_segment_even_with_live_views(self):
        bundle = SharedArrayBundle.create({"a": np.arange(64, dtype=np.float64)})
        segment = bundle.segment_name
        view = bundle["a"]  # still referenced when the segment goes away
        assert _segment_paths(segment)
        bundle.close()
        assert bundle.closed
        assert not _segment_paths(segment)
        assert view[1] == 1.0  # the mapping stays valid until process exit
        bundle.close()  # idempotent

    def test_dropped_bundle_is_unlinked_by_finalizer(self):
        bundle = SharedArrayBundle.create({"a": np.ones(32)})
        segment = bundle.segment_name
        del bundle
        gc.collect()
        assert not _segment_paths(segment)


# ------------------------------------------------------ context share/attach
class TestShareContext:
    def test_manifest_names_match_precompiled_blocks(self, flat_context):
        blocks = flat_context.precompiled_blocks()
        assert blocks  # the flat backend always pre-compiles index columns
        with share_context(flat_context) as shared:
            manifest = shared.spec.manifest
            assert manifest is not None
            named = set(manifest.keys()) & set(blocks)
            # Every *large* precompiled block travels via the segment under
            # its human-readable name; only sub-256-byte stragglers pickle
            # inline.
            assert named
            for key in named:
                assert blocks[key].nbytes >= 256

    def test_attached_views_alias_the_segment(self, flat_context):
        with share_context(flat_context) as shared:
            context, bundle = attach_context(shared.spec)
            try:
                assert bundle is not None
                attached_blocks = context.precompiled_blocks()
                shared_keys = set(shared.spec.manifest.keys()) & set(attached_blocks)
                assert shared_keys
                for key in shared_keys:
                    view = attached_blocks[key]
                    assert np.shares_memory(view, bundle[key])  # zero-copy
                    assert not view.flags.writeable
                    assert np.array_equal(
                        view, flat_context.precompiled_blocks()[key]
                    )
            finally:
                bundle.close()

    def test_skeleton_is_smaller_than_a_full_pickle(self, flat_context):
        import pickle

        full = len(pickle.dumps(flat_context, protocol=pickle.HIGHEST_PROTOCOL))
        with share_context(flat_context) as shared:
            assert len(shared.spec.skeleton) < full
            assert shared.spec.shared_bytes > 0

    def test_attached_context_annotates_identically(
        self, flat_context, small_batch, sequential_bytes
    ):
        with share_context(flat_context) as shared:
            context, bundle = attach_context(shared.spec)
            try:
                results = repro.annotate_many(small_batch, context=context)
                assert canonical_bytes(results) == sequential_bytes
            finally:
                bundle.close()


# ----------------------------------------------------------- dispatch modes
class TestDispatch:
    def test_modes_partition_the_same_items(self, small_batch):
        reference = sorted(
            (order, t.trajectory_id)
            for order, t in enumerate(small_batch)
        )
        for mode in ("static", "balanced", "stealing"):
            shards = dispatch_shards(small_batch, 3, mode)
            seen = sorted(
                (order, t.trajectory_id) for _, items in shards for order, t in items
            )
            assert seen == reference, mode

    def test_objects_never_split_across_shards(self, small_batch):
        for mode in ("static", "balanced", "stealing"):
            owner = {}
            for index, items in dispatch_shards(small_batch, 3, mode):
                for _, trajectory in items:
                    assert owner.setdefault(trajectory.object_id, index) == index

    def test_unknown_mode_rejected(self, small_batch):
        with pytest.raises(ConfigurationError):
            dispatch_shards(small_batch, 2, "greedy")


# ------------------------------------------------- full-matrix byte parity
@pytest.mark.parametrize("dispatch", ["static", "balanced", "stealing"])
@pytest.mark.parametrize("shared_memory", ["on", "off"])
def test_pool_parity_across_dispatch_and_transport(
    dispatch, shared_memory, small_batch, flat_context, sequential_bytes
):
    """Canonical bytes are identical for every dispatch × transport combo."""
    with ProcessPoolExecutor(
        workers=TEST_WORKERS, dispatch=dispatch, shared_memory=shared_memory
    ) as executor:
        assert executor.dispatch == dispatch
        results = executor.run(Plan.from_context(flat_context), small_batch)
        segment = executor.shared_segment_name
        if shared_memory == "on":
            assert segment is not None and _segment_paths(segment)
        else:
            assert segment is None
        assert canonical_bytes(results) == sequential_bytes
        assert canonical_digest(results) == canonical_digest_from(sequential_bytes)
    if segment is not None:
        assert not _segment_paths(segment)


def canonical_digest_from(payload: bytes) -> str:
    import hashlib

    return hashlib.sha256(payload).hexdigest()


# ------------------------------------------------------------------ cleanup
class TestSegmentCleanup:
    def test_runner_close_unlinks_segment(self, flat_context, small_batch):
        """An explicit ``close()`` of the pool unlinks its segment at once."""
        executor = ProcessPoolExecutor(workers=TEST_WORKERS, shared_memory="on")
        executor.run(Plan.from_context(flat_context), small_batch)
        segment = executor.shared_segment_name
        assert segment is not None and _segment_paths(segment)
        executor.close()
        assert not _segment_paths(segment)
        assert executor.shared_segment_name is None

    def test_dropped_executor_unlinks_segment(self, flat_context, small_batch):
        executor = ProcessPoolExecutor(workers=2, shared_memory="on")
        plan = Plan.from_context(flat_context)
        executor.run(plan, small_batch[:4])
        segment = executor.shared_segment_name
        assert segment is not None and _segment_paths(segment)
        del executor
        gc.collect()
        assert not _segment_paths(segment)

    def test_worker_crash_unlinks_segment(self, flat_context, small_batch):
        from concurrent.futures import BrokenExecutor

        executor = ProcessPoolExecutor(workers=2, shared_memory="on")
        plan = Plan.from_context(flat_context)
        executor.run(plan, small_batch[:4])  # prime the pool + segment
        segment = executor.shared_segment_name
        assert segment is not None and _segment_paths(segment)
        assert executor._pool is not None
        victim = next(iter(executor._pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        with pytest.raises(BrokenExecutor):
            while time.monotonic() < deadline:  # the pool notices on submit
                executor.run(plan, small_batch[:4])
        # The except-path close() tore everything down: pool gone, segment
        # unlinked, and a fresh run re-primes cleanly.
        assert executor._pool is None
        assert not _segment_paths(segment)
        results = executor.run(plan, small_batch[:4])
        assert len(results) == 4
        executor.close()
        assert not glob.glob("/dev/shm/semitri-*")

    def test_no_stray_segments_after_module(self):
        gc.collect()
        assert not glob.glob("/dev/shm/semitri-*")
