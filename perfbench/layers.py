"""The reasoning behind the benchmark's metrics.

``BENCHMARK.json`` at the repository root is the one list of what the
benchmark reports: the workloads with their one-line reason, and every
metric's name, unit, direction and bound.  This module reads it and adds
only what that file cannot hold: what each end-to-end metric is on each
workload (``MEANING``), and for each per-layer metric the end-to-end
metric and workload it should move (``reason``), so a change that claims
a gain on one layer can name, before it is measured, the end-to-end
number that must follow.  ``run.py --self-test`` fails when a declared
metric has no reasoning here, or reasoning here names no declared
metric.

Each workload reports every metric: a layer the workload never calls
reads 0 there (no time spent, nothing counted).

Windows: on the batch workloads every per-layer number covers the timed
part of the traced run.  On ``serve-mixed`` the layer builds, the
``api``/``whatif``/``procpool`` numbers and ``store.save_s`` /
``store.bytes_written`` cover the whole server life (the warmer does
that work during set-up), while ``store.load_*``, ``store.hits``,
``store.misses`` and ``serve.*`` cover the timed request passes.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = tuple(entry["name"] for entry in SPEC["workloads"])


def units(section: str) -> dict[str, str]:
    """``name -> unit`` of a ``BENCHMARK.json`` metric section, in its order."""
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


ARTIFACT_PREFIX = "api.render_self_s."
SCENARIO_PREFIX = "whatif.scenario_s."

#: Every registered artifact, as the per-layer metric names declare them.
ARTIFACTS = tuple(sorted(
    name[len(ARTIFACT_PREFIX):] for name in units("per_layer") if name.startswith(ARTIFACT_PREFIX)
))


def scenario_metric(spec: str) -> str:
    """``whatif.scenario_s.<spec>`` with ``:``/``+``/``@`` made name-safe."""
    safe = spec.replace(":", "-").replace("+", "_").replace("@", "-at-")
    return SCENARIO_PREFIX + safe


#: What each end-to-end metric is on each workload.  Each is a median
#: over the passes of one run.  Latencies per request class exist only
#: on serve-mixed, so they are the per-layer ``serve.client.*`` metrics.
MEANING = {
    "setup_s": (
        "study-cold: interpreter start, import repro, Study(...); whatif-sweep: "
        "the same plus every baseline layer built; serve-mixed: server start until "
        "/healthz reports the warmer done, warehouse writes included"
    ),
    "pass_s": (
        "what one fixed-work pass costs: batch, its wall time, first layer call "
        "until every artifact of the pass rendered and was checked; serve-mixed, "
        "the server's CPU time (all threads) over one closed-loop pass of 4000 "
        "requests, so 4000 / pass_s is the requests per second one server can answer"
    ),
    "peak_rss_mb": (
        "batch: the higher of the pass process's ru_maxrss and its reaped pool "
        "workers'; serve-mixed: the server's VmHWM"
    ),
}

_STUDY = ("pass_s", "study-cold")
_SWEEP = ("pass_s", "whatif-sweep")
_BATCH = ("pass_s", "study-cold and whatif-sweep")
_SERVE = ("pass_s", "serve-mixed")
_SERVE_SETUP = ("setup_s", "serve-mixed")

#: name -> ((end-to-end metric it should move, workload), what it is).
#: ``api.render_self_s.<artifact>`` and ``whatif.scenario_s.<spec>`` are
#: families; ``reason`` covers them.
MOVES: dict[str, tuple[tuple[str, str], str]] = {
    "traffic.build_s": (_STUDY, "self time of build_residence_study"),
    "traffic.flows": (_STUDY, "flows generated: the denominator of traffic.build_s"),
    "traffic.overlay_builds": (_SWEEP, 'builds_total{layer="whatif:traffic"} delta'),
    "crawler.build_s": (_STUDY, "self time of build_census"),
    "core.cloud_s": (_STUDY, "self time of attribute_domains"),
    "core.deps_s": (_STUDY, "self time of analyze_dependencies"),
    "observatory.build_s": (_STUDY, "self time of run_observatory"),
    "observatory.overlay_builds": (_SWEEP, 'builds_total{layer="whatif:observatory"} delta'),
    "sentinel.scan_s": (_BATCH, "self time of run_sentinel"),
    "sentinel.scans": (_BATCH, "run_sentinel calls"),
    "api.render_self_s": (_BATCH, "registry.run self time, nested layer work subtracted, all artifacts"),
    "whatif.sweep_s": (_SWEEP, "run_sweep duration"),
    "whatif.ranking_s": (_SWEEP, "whatif_event_ranking render duration"),
    "whatif.rebuild_ratio": (_SWEEP, "traffic+census+observatory overlay builds over sweep and ranking / over the sweep alone, parallel default"),
    "whatif.rebuild_ratio.sequential": (_SWEEP, "the same with parallel=False"),
    "procpool.calls": (_BATCH, "map_in_pool calls"),
    "procpool.tasks": (_BATCH, "tasks handed to map_in_pool"),
    "procpool.workers": (_BATCH, "largest workers argument passed"),
    "procpool.wall_s": (_BATCH, "time inside map_in_pool"),
    "procpool.child_cpu_s": (_BATCH, "RUSAGE_CHILDREN CPU delta across map_in_pool"),
    "procpool.utilization": (_BATCH, "child CPU / (wall x workers) over calls that used a pool"),
    "procpool.fallbacks": (_BATCH, "map_in_pool calls that fell back to the sequential path"),
    "procpool.parallel_speedup": (_BATCH, "sequential traced pass wall / default traced pass wall"),
    "store.save_s": (_SERVE_SETUP, "time in save_layer and save_artifact"),
    "store.bytes_written": (_SERVE_SETUP, "bytes under the store directory at the end"),
    "store.load_s": (_SERVE, "time in load_layer and load_artifact, timed passes"),
    "store.hits": (_SERVE, "loads that found their entry, timed passes"),
    "store.misses": (_SERVE, "loads that found nothing, timed passes"),
    "serve.client.hit_p50_ms": (_SERVE, "client-observed latency of hit-class requests, untraced server"),
    "serve.client.hit_p99_ms": (_SERVE, "the same, 99th percentile"),
    "serve.client.miss_p50_ms": (_SERVE, "client-observed latency of miss-class requests, untraced server"),
    "serve.client.miss_p99_ms": (_SERVE, "the same, 99th percentile"),
    "serve.client.pass_wall_s": (_SERVE, "client-observed wall of one 4000-request pass, untraced server, median"),
    "serve.hit.handle_p50_ms": (_SERVE, "ArtifactService.handle time of hit-class requests"),
    "serve.hit.handle_p99_ms": (_SERVE, "the same, 99th percentile"),
    "serve.miss.handle_p50_ms": (_SERVE, "off-loop ArtifactService.handle time of miss-class requests"),
    "serve.miss.handle_p99_ms": (_SERVE, "the same, 99th percentile"),
    "serve.hot_hit_ratio": (_SERVE, "serve_hot_cache hits / lookups from /metrics, timed passes"),
    "serve.offloop_ratio": (_SERVE, "executor hops / requests, timed passes"),
    "bench.trace_overhead": (("none: tracing cost", "all"), "traced pass wall / untraced pass wall"),
}


def reason(name: str) -> tuple[tuple[str, str], str]:
    """What per-layer metric ``name`` is and what it should move; KeyError if unknown."""
    if name.startswith(ARTIFACT_PREFIX):
        artifact = name[len(ARTIFACT_PREFIX):]
        workload = "whatif-sweep" if artifact.startswith("whatif") else "study-cold"
        return ("pass_s", workload), f"registry.run self time of {artifact}"
    if name.startswith(SCENARIO_PREFIX):
        return _SWEEP, "scenario_block duration of that scenario, sequential run"
    return MOVES[name]
