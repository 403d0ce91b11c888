"""Figure 17: per-stage latency of processing daily trajectories.

The paper reports the mean time per daily (phone) trajectory spent in each
pipeline stage: computing episodes, storing episodes, map matching, storing
the matched result and the landuse join; computation/annotation is much
cheaper than storage.  This benchmark runs the full pipeline with persistence
into the SQLite store and reports the same per-stage means — plus the p95
tail — for **both spatial-index backends**: the scalar tree (the reference
oracle) and the flat batch index that `compute.index_backend="flat"` selects.
The two runs must produce byte-identical canonical output, and the flat run
must show a real drop in the ``map_match`` stage mean, which the CI bench
gate then protects via the recorded ratio metric.
"""

from __future__ import annotations

import dataclasses

from benchmarks.conftest import save_result
from repro.analytics.reporting import render_table
from repro.core import ObservabilityConfig, PipelineConfig, SeMiTriPipeline
from repro.core.config import ComputeConfig
from repro.parallel import canonical_bytes
from repro.store.store import SemanticTrajectoryStore

STAGES = (
    "compute_episode",
    "store_episode",
    "map_match",
    "store_match_result",
    "landuse_join",
    "poi_annotation",
)

#: In-test sanity floor for the flat index on the map_match stage mean: the
#: batch index must not be slower than the per-point tree.  The *measurable
#: drop* itself is enforced by the bench-regression gate, which compares the
#: recorded ``speedup_map_match_flat`` ratio against the committed baseline
#: (~1.6x) — a deterministic check that, unlike a hard-coded wall-clock
#: floor here, tolerates loaded CI runners without going flaky.
REQUIRED_MAP_MATCH_SPEEDUP = 1.05
#: Timed tree/flat rounds (interleaved) after the untimed warm-up round.
ROUNDS = 5


def test_fig17_latency(benchmark, world, people_dataset, annotation_sources):
    # Pre-compile the flat indexes like every production entry point does
    # (GeoContext.build compiles them once at freeze time); the per-stage
    # samples then measure query latency, not one-off compilation.
    annotation_sources.regions.flat_index()
    annotation_sources.road_network.flat_index()
    annotation_sources.pois.flat_index()

    def run_pipeline(index_backend: str):
        config = dataclasses.replace(
            PipelineConfig.for_people(),
            compute=ComputeConfig(backend="numpy", index_backend=index_backend),
        )
        store = SemanticTrajectoryStore()
        pipeline = SeMiTriPipeline(config, store=store)
        results = pipeline.annotate_many(
            people_dataset.all_trajectories, annotation_sources, persist=True
        )
        merged = SeMiTriPipeline.merge_latencies(results)
        store.close()
        return merged, canonical_bytes(results)

    # One untimed warm-up round, then ROUNDS interleaved tree/flat rounds;
    # each backend keeps its run with the best map_match mean, so a
    # background-load spike hits both backends alike and cannot fake or mask
    # a regression.
    def interleaved_best():
        run_pipeline("tree")
        run_pipeline("flat")
        best = {}
        outputs = {"tree": set(), "flat": set()}
        for _ in range(ROUNDS):
            for index_backend in ("tree", "flat"):
                profile, payload = run_pipeline(index_backend)
                outputs[index_backend].add(payload)
                kept = best.get(index_backend)
                if kept is None or profile.mean("map_match") < kept.mean("map_match"):
                    best[index_backend] = profile
        return best, outputs

    best, outputs = benchmark.pedantic(interleaved_best, rounds=1, iterations=1)
    assert len(outputs["tree"]) == 1 and len(outputs["flat"]) == 1  # runs are deterministic
    tree_bytes = outputs["tree"].pop()
    flat_bytes = outputs["flat"].pop()
    assert flat_bytes == tree_bytes  # the fast path may never change output
    tree_profile, flat_profile = best["tree"], best["flat"]

    rows = []
    series = {}
    for stage in STAGES:
        if flat_profile.count(stage) == 0:
            continue
        series[stage] = {
            "count": flat_profile.count(stage),
            "tree_mean": tree_profile.mean(stage),
            "tree_p95": tree_profile.p95(stage),
            "flat_mean": flat_profile.mean(stage),
            "flat_p95": flat_profile.p95(stage),
        }
        rows.append(
            [
                stage,
                flat_profile.count(stage),
                f"{tree_profile.mean(stage):.4f}",
                f"{tree_profile.p95(stage):.4f}",
                f"{flat_profile.mean(stage):.4f}",
                f"{flat_profile.p95(stage):.4f}",
            ]
        )
    text = render_table(
        [
            "stage",
            "#daily trajectories",
            "tree mean (s)",
            "tree p95 (s)",
            "flat mean (s)",
            "flat p95 (s)",
        ],
        rows,
        title="Figure 17 - Latency per processing stage (people trajectories)",
    )

    # One extra *untimed* run with full observability on: proves telemetry
    # cannot change the annotation output, and fills the sidecar's telemetry
    # section with the registry snapshot of a traced run.
    observed_config = dataclasses.replace(
        PipelineConfig.for_people(),
        compute=ComputeConfig(backend="numpy", index_backend="flat"),
        observability=ObservabilityConfig(enabled=True),
    )
    from repro.engine import Plan, SequentialExecutor

    observed_store = SemanticTrajectoryStore()
    observed_plan = Plan.compile(
        sources=annotation_sources,
        config=observed_config,
        store=observed_store,
        persist=True,
    )
    observed_results = SequentialExecutor().run(
        observed_plan, people_dataset.all_trajectories
    )
    observed_store.close()
    assert canonical_bytes(observed_results) == tree_bytes  # telemetry is inert
    assert observed_plan.telemetry.tracer is not None
    assert observed_plan.telemetry.metrics is not None
    telemetry_section = {
        "enabled": True,
        "span_count": len(observed_plan.telemetry.tracer.spans),
        "trace_count": len(observed_plan.telemetry.tracer.traces()),
        "metrics": observed_plan.telemetry.metrics.snapshot(),
    }

    map_match_speedup = tree_profile.mean("map_match") / flat_profile.mean("map_match")
    metrics = {
        # Ratio metric (machine-normalised): how much faster the flat index
        # makes the map_match stage; gated so the batch path cannot silently
        # collapse back to per-point speed.
        "speedup_map_match_flat": round(map_match_speedup, 2),
        # Absolute throughput of the heaviest annotation stage under the
        # default (flat) backend, trajectories per second.
        "map_match_traj_per_sec": round(
            flat_profile.count("map_match") / flat_profile.total("map_match"), 2
        ),
    }
    save_result(
        "fig17_latency",
        text,
        data={"stages": series},
        metrics=metrics,
        telemetry=telemetry_section,
    )

    assert flat_profile.count("compute_episode") == len(people_dataset.all_trajectories)
    # Episode computation is cheap relative to the heavier annotation stages,
    # mirroring the ordering in the paper's latency figure.
    assert flat_profile.mean("compute_episode") <= flat_profile.mean(
        "map_match"
    ) + flat_profile.mean("landuse_join")
    # Sanity: the batch index must not lose to the per-point tree; the real
    # regression floor lives in the bench gate (see REQUIRED_MAP_MATCH_SPEEDUP).
    assert map_match_speedup >= REQUIRED_MAP_MATCH_SPEEDUP, (
        f"flat index map_match speedup {map_match_speedup:.2f}x below the "
        f"{REQUIRED_MAP_MATCH_SPEEDUP}x sanity floor"
    )
