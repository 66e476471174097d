"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload study-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload serve-mixed --seed 1 --out a.json
    python3 perfbench/run.py --compare a.json b.json
    python3 perfbench/run.py --self-test

Run from the repository root (the program is imported from ``src/``).
With ``--trace 0`` a run repeats the workload's timed pass until
``--seconds`` have passed and reports every ``end_to_end`` metric of
``BENCHMARK.json`` as a median over the passes.  With ``--trace 1`` it
makes one untraced pass, one traced pass and, for the batch workloads,
one traced ``parallel=False`` pass, and reports every ``per_layer``
metric.

Every run checks the program's outputs (see ``batch.py`` and
``serve.py``); the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above
it give each metric with its unit, the error rate (failed / attempted),
the output digest and the host fingerprint.  The benchmark writes only
under ``.perfbench/`` in the repository root (fresh warehouse
directories, span dumps) and removes its warehouses when it ends.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (the benchmark's own modules sit next to this file)
import serve  # noqa: E402

BATCH = ("study-cold", "whatif-sweep")
WORKLOADS = layers.WORKLOADS

#: Timed server starts per serve-mixed run; set-up is the median.
SERVE_SETUPS = 2

#: Fewest passes a batch run makes, however long they take.  Each pass
#: builds its own study, and whatif-sweep's pass time varies by about
#: 13% from one study to the next: on a 2-vCPU Linux guest, ten runs of
#: three passes spread 0.21 (quartile distance over the median), ten of
#: four 0.09.  A median of four still sets one slow pass aside.
MIN_PASSES = 4


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fingerprint() -> dict:
    """The host and code a result was measured on."""
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "host": {
            "effective_cpus": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def cpu_ticks() -> list[int]:
    """The host-wide ``cpu`` line of ``/proc/stat`` (user ... steal ticks)."""
    with open("/proc/stat", encoding="ascii") as stat:
        return [int(value) for value in stat.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between.

    Stolen time slows every wall-clock metric here, the closed-loop
    serve workload most (each request waits for two wake-ups), so every
    run prints it next to its metrics.
    """
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def _env() -> dict:
    env = dict(os.environ)
    # A persistent warehouse would let one pass warm-start from another.
    env.pop("REPRO_STORE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return env


# -- batch workloads -----------------------------------------------------------


def batch_pass(workload: str, seed: int, sequential: bool = False,
               spans: Path | None = None) -> dict:
    """One fresh-process pass of a batch workload over study seed ``seed``."""
    command = [sys.executable, str(HERE / "batch.py"), "--workload", workload,
               "--seed", str(seed)]
    if sequential:
        command.append("--sequential")
    if spans is not None:
        command += ["--trace", str(spans)]
    spawned = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} pass failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["input"] = seed
    return result


class Outcome:
    """What one run measured, before it is printed."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.notes: list[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


def input_seed(seed: int, index: int) -> int:
    """Study seed number ``index`` of a run with ``--seed seed``.

    Every timed pass builds a study of its own, so a run's medians
    average over several inputs instead of inheriting the size of one:
    at the whatif-sweep scale the simulated flow count, which the pass
    time follows, moves by 13% (coefficient of variation over 30 study
    seeds) from one study to the next.  The traced run makes its three
    passes over one study, so it checks that fresh processes render that
    study to the same digest.
    """
    return 1000 * seed + index


def _check_passes(outcome: Outcome, passes: list[dict]) -> None:
    """Count the checks of every pass: problems, and one digest per input."""
    for result in passes:
        outcome.attempted += result["attempted"]
        for problem in result["problems"]:
            outcome.fail(1, problem)
        known = outcome.digests.setdefault(result["input"], result["digest"])
        if result["digest"] != known:
            outcome.fail(result["attempted"],
                         f"input {result['input']}: digest {result['digest'][:12]} "
                         f"!= {known[:12]}")


def run_batch(workload: str, seed: int, seconds: float) -> Outcome:
    outcome = Outcome(workload)
    passes: list[dict] = []
    began = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - began < seconds:
        passes.append(batch_pass(workload, input_seed(seed, len(passes))))
    _check_passes(outcome, passes)

    def median(per_pass) -> float:
        return statistics.median(per_pass(result) for result in passes)

    outcome.metrics = {
        "setup_s": median(lambda result: result["setup_s"]),
        "pass_s": median(lambda result: result["wall_s"]),
        "peak_rss_mb": median(lambda result: result["peak_rss_kb"]) / 1024,
    }
    walls = " ".join(f"{result['wall_s']:.3f}" for result in passes)
    outcome.notes.append(f"passes={len(passes)} operations_per_pass={passes[0]['attempted']} "
                         f"pass_wall_s=[{walls}]")
    return outcome


def _rebuild_ratio(counts: dict) -> float:
    before = sum(counts["before"].values())
    sweep = sum(counts["sweep"].values()) - before
    total = sum(counts["ranking"].values()) - before
    return total / sweep if sweep else 0.0


def layer_metrics(spans: list[dict], start: float, end: float) -> dict[str, float]:
    """Per-layer numbers from the spans that started inside ``[start, end]``."""
    import tracing

    inside = [span for span in spans if start <= span["start"] <= end]
    own = tracing.self_times(inside)
    metrics = {name: 0.0 for name in layers.units("per_layer")}

    def self_sum(name: str) -> float:
        return sum(own[span["id"]] for span in inside if span["name"] == name)

    metrics["traffic.build_s"] = self_sum("traffic")
    metrics["crawler.build_s"] = self_sum("crawler")
    metrics["core.cloud_s"] = self_sum("core.cloud")
    metrics["core.deps_s"] = self_sum("core.deps")
    metrics["observatory.build_s"] = self_sum("observatory")
    metrics["sentinel.scan_s"] = self_sum("sentinel")
    metrics["sentinel.scans"] = sum(1 for span in inside if span["name"] == "sentinel")
    for span in inside:
        if span["name"] == "api":
            key = f"api.render_self_s.{span['artifact']}"
            if key in metrics:
                metrics[key] += own[span["id"]]
            metrics["api.render_self_s"] += own[span["id"]]
            if span["artifact"] == "whatif_event_ranking":
                metrics["whatif.ranking_s"] += span["end"] - span["start"]
        elif span["name"] == "whatif.sweep":
            metrics["whatif.sweep_s"] += span["end"] - span["start"]
        elif span["name"] == "procpool":
            metrics["procpool.calls"] += 1
            metrics["procpool.tasks"] += span["tasks"]
            metrics["procpool.workers"] = max(metrics["procpool.workers"], span["workers"])
            metrics["procpool.wall_s"] += span["end"] - span["start"]
            metrics["procpool.child_cpu_s"] += span["child_cpu_s"]
            if span["workers"] > 1 and span["tasks"] and span["fallback"]:
                metrics["procpool.fallbacks"] += 1
    capacity = sum(
        (span["end"] - span["start"]) * span["workers"]
        for span in inside
        if span["name"] == "procpool" and span["workers"] > 1 and not span["fallback"]
    )
    if capacity:
        metrics["procpool.utilization"] = metrics["procpool.child_cpu_s"] / capacity
    return metrics


def _scenario_metrics(spans: list[dict], start: float, end: float) -> dict[str, float]:
    return {
        layers.scenario_metric(span["spec"]): span["end"] - span["start"]
        for span in spans
        if span["name"] == "whatif.scenario" and start <= span["start"] <= end
    }


def trace_batch(workload: str, seed: int) -> Outcome:
    outcome = Outcome(workload)
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    default_spans = spans_dir / f"{workload}-seed{seed}-default.json"
    sequential_spans = spans_dir / f"{workload}-seed{seed}-sequential.json"
    study_seed = input_seed(seed, 0)
    untraced = batch_pass(workload, study_seed)
    traced = batch_pass(workload, study_seed, spans=default_spans)
    sequential = batch_pass(workload, study_seed, sequential=True, spans=sequential_spans)
    _check_passes(outcome, [untraced, traced, sequential])
    spans = json.loads(default_spans.read_text())["spans"]
    metrics = layer_metrics(spans, traced["start"], traced["end"])
    metrics["traffic.flows"] = traced["flows"]
    if workload == "whatif-sweep":
        counts = traced["overlay_builds"]
        metrics["whatif.rebuild_ratio"] = _rebuild_ratio(counts)
        metrics["whatif.rebuild_ratio.sequential"] = _rebuild_ratio(sequential["overlay_builds"])
        for layer in ("traffic", "observatory"):
            metrics[f"{layer}.overlay_builds"] = (
                counts["ranking"][layer] - counts["before"][layer]
            )
        sequential_all = json.loads(sequential_spans.read_text())["spans"]
        metrics.update(_scenario_metrics(sequential_all, sequential["start"], sequential["end"]))
    metrics["procpool.parallel_speedup"] = sequential["wall_s"] / traced["wall_s"]
    metrics["bench.trace_overhead"] = traced["wall_s"] / untraced["wall_s"]
    outcome.metrics = metrics
    outcome.notes.append(
        f"wall_s untraced={untraced['wall_s']:.3f} traced={traced['wall_s']:.3f} "
        f"sequential={sequential['wall_s']:.3f}; spans in {spans_dir.relative_to(ROOT)}"
    )
    return outcome


# -- serve-mixed -----------------------------------------------------------------


def _store_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def serve_pass(seed: int, seconds: float, store: Path, spans: Path | None = None) -> dict:
    """One server over a fresh store: its set-up time, then the client's passes."""
    server = serve.ServerProcess(ROOT, store, seed, spans, _env())
    try:
        asyncio.run(serve.wait_warm(server.port))
        setup_s = time.perf_counter() - server.spawned
        result = asyncio.run(serve.drive(server, seed, seconds, spans is not None))
        result["setup_s"] = setup_s
        result["peak_rss_kb"] = server.peak_rss_kb()
    finally:
        server.stop()
    result["store_bytes"] = _store_bytes(store)
    return result


def _count_checks(outcome: Outcome, results: list[dict]) -> None:
    for result in results:
        outcome.attempted += result["attempted"]
        outcome.failed += result["failed"]
        outcome.problems.extend(result["problems"])


def _client_note(results: list[dict]) -> str:
    passes = [item for result in results for item in result["passes"]]
    hit = [value for result in results for value in result["latencies"]["hit"]]
    miss = [value for result in results for value in result["latencies"]["miss"]]
    walls = " ".join(f"{wall:.3f}" for wall, _, _ in passes)
    cpus = " ".join(f"{cpu:.2f}" for _, _, cpu in passes)
    rps = sum(correct for _, correct, _ in passes) / sum(wall for wall, _, _ in passes)
    capacity = sum(correct for _, correct, _ in passes) / sum(cpu for _, _, cpu in passes)
    return (f"passes={len(passes)} requests_per_pass={serve.PASS_REQUESTS} "
            f"pass_wall_s=[{walls}] server_cpu_s=[{cpus}] serve_rps={rps:.1f} "
            f"server_capacity_rps={capacity:.1f} connections={serve.CONNECTIONS} "
            f"hit_samples={len(hit)} miss_samples={len(miss)} "
            f"nonempty_miss_replies={sum(result['nonempty_misses'] for result in results)} "
            f"feed_events={'/'.join(str(result['feed_events']) for result in results)} "
            f"hit_p50/p99_ms={percentile(hit, 0.5) * 1e3:.3f}/{percentile(hit, 0.99) * 1e3:.3f} "
            f"miss_p50/p99_ms={percentile(miss, 0.5) * 1e3:.3f}/{percentile(miss, 0.99) * 1e3:.3f}")


def run_serve(seed: int, seconds: float, run_dir: Path) -> Outcome:
    outcome = Outcome("serve-mixed")
    results = [
        serve_pass(input_seed(seed, index), seconds / SERVE_SETUPS, run_dir / f"store-{index}")
        for index in range(SERVE_SETUPS)
    ]
    _count_checks(outcome, results)
    passes = [item for result in results for item in result["passes"]]
    outcome.metrics = {
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "pass_s": statistics.median(cpu for _, _, cpu in passes),
        "peak_rss_mb": statistics.median(result["peak_rss_kb"] for result in results) / 1024,
    }
    outcome.notes.append(_client_note(results))
    return outcome


def trace_serve(seed: int, seconds: float, run_dir: Path) -> Outcome:
    outcome = Outcome("serve-mixed")
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"serve-mixed-seed{seed}.json"
    study_seed = input_seed(seed, 0)
    untraced = serve_pass(study_seed, seconds / 2, run_dir / "store-0")
    traced = serve_pass(study_seed, seconds / 2, run_dir / "store-1", spans=spans_path)
    _count_checks(outcome, [untraced, traced])
    dump = json.loads(spans_path.read_text())
    spans = dump["spans"]
    # Layer builds, renders, pools and writes happen while the warmer runs.
    metrics = layer_metrics(spans, float("-inf"), traced["start"])
    metrics["traffic.flows"] = dump["flows"]
    for layer in ("traffic", "observatory"):
        metrics[f"{layer}.overlay_builds"] = traced["overlay_builds"][layer]
    metrics["store.save_s"] = sum(
        span["end"] - span["start"] for span in spans if span["name"] == "store.save")
    metrics["store.bytes_written"] = traced["store_bytes"]
    window = [span for span in spans if traced["start"] <= span["start"] <= traced["end"]]
    loads = [span for span in window if span["name"] == "store.load"]
    metrics["store.load_s"] = sum(span["end"] - span["start"] for span in loads)
    metrics["store.hits"] = sum(1 for span in loads if span["hit"])
    metrics["store.misses"] = sum(1 for span in loads if not span["hit"])
    handles = [span for span in window if span["name"] == "serve"]
    hit_handle = [
        span["end"] - span["start"] for span in handles
        if span["hot_only"] and span["answered"] and not span["target"].startswith("/v1/events")
    ]
    miss_handle = [
        span["end"] - span["start"] for span in handles
        if not span["hot_only"] and span["target"].startswith("/v1/events")
    ]
    metrics["serve.hit.handle_p50_ms"] = percentile(hit_handle, 0.5) * 1e3
    metrics["serve.hit.handle_p99_ms"] = percentile(hit_handle, 0.99) * 1e3
    metrics["serve.miss.handle_p50_ms"] = percentile(miss_handle, 0.5) * 1e3
    metrics["serve.miss.handle_p99_ms"] = percentile(miss_handle, 0.99) * 1e3
    probes = sum(1 for span in handles if span["hot_only"])
    hops = sum(1 for span in handles if not span["hot_only"])
    metrics["serve.offloop_ratio"] = hops / probes if probes else 0.0
    metrics["serve.hot_hit_ratio"] = traced["hot_hit_ratio"]
    for kind in ("hit", "miss"):
        client = untraced["latencies"][kind]
        metrics[f"serve.client.{kind}_p50_ms"] = percentile(client, 0.5) * 1e3
        metrics[f"serve.client.{kind}_p99_ms"] = percentile(client, 0.99) * 1e3
    metrics["serve.client.pass_wall_s"] = statistics.median(
        wall for wall, _, _ in untraced["passes"])

    def mean_wall(result: dict) -> float:
        return statistics.fmean(wall for wall, _, _ in result["passes"])

    metrics["bench.trace_overhead"] = mean_wall(traced) / mean_wall(untraced)
    outcome.metrics = metrics
    outcome.notes.append(_client_note([untraced]))
    outcome.notes.append(
        f"wall_s untraced={mean_wall(untraced):.3f} traced={mean_wall(traced):.3f}; "
        f"spans in {spans_path.relative_to(ROOT)}"
    )
    return outcome


# -- output ------------------------------------------------------------------------


def emit(outcome: Outcome, trace: int, seed: int, host: dict, out: str | None) -> None:
    """Print the metric lines and, last, the result JSON."""
    units = layers.units("per_layer" if trace else "end_to_end")
    if set(outcome.metrics) != set(units):
        missing = sorted(set(units) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(units))
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(f"# perfbench {outcome.workload} seed={seed} trace={trace}")
    print("# host: " + " ".join(f"{key}={value}" for key, value in host["host"].items()))
    print(f"# code: commit={host['commit']} source_sha256={host['source_sha256'][:16]}")
    for study_seed, digest in outcome.digests.items():
        print(f"# digest[study seed {study_seed}]: {digest}")
    for note in outcome.notes:
        print(f"# {note}")
    for name in units:
        print(f"{name:<40} {outcome.metrics[name]:>16.6f} {units[name]}")
    print(f"# error_rate {outcome.failed}/{outcome.attempted} = "
          f"{outcome.failed / max(outcome.attempted, 1):.6f}")
    for problem in outcome.problems[:10]:
        print(f"# FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]} for name in units
        },
    }
    if out:
        Path(out).write_text(json.dumps({
            "workload": outcome.workload, "seed": seed, "trace": trace,
            "fingerprint": host, "digests": outcome.digests, **result,
        }, indent=1))
    print(json.dumps(result), flush=True)


def compare(first: str, second: str) -> int:
    """Print per-metric changes, and output digests that differ, between two
    ``--out`` files of the same host; exit 1 on either."""
    a, b = (json.loads(Path(path).read_text()) for path in (first, second))
    if a["fingerprint"]["host"] != b["fingerprint"]["host"]:
        print("refusing to compare results from different hosts:", file=sys.stderr)
        print(f"  {first}: {a['fingerprint']['host']}", file=sys.stderr)
        print(f"  {second}: {b['fingerprint']['host']}", file=sys.stderr)
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare different workloads or trace modes", file=sys.stderr)
        return 3
    better = {entry["name"]: entry for entry in layers.SPEC["end_to_end"] + layers.SPEC["per_layer"]}
    print(f"# {a['workload']}: {a['fingerprint']['commit']} -> {b['fingerprint']['commit']}")
    worse_than_bound = False
    for name, old in a["metrics"].items():
        new = b["metrics"][name]["value"]
        old = old["value"]
        change = (new - old) / old if old else 0.0
        sign = 1 if better[name]["better"] == "lower" else -1
        bound = better[name].get("bound")
        flag = ""
        if bound is not None and sign * change > bound:
            flag, worse_than_bound = "  WORSE THAN BOUND", True
        print(f"{name:<40} {old:>14.6f} {new:>14.6f} {change:+8.2%}{flag}")
    outputs_differ = False
    for study_seed in sorted(set(a["digests"]) & set(b["digests"])):
        if a["digests"][study_seed] != b["digests"][study_seed]:
            print(f"# OUTPUT DIFFERS: study seed {study_seed} digest "
                  f"{a['digests'][study_seed][:16]} -> {b['digests'][study_seed][:16]}")
            outputs_differ = True
    return 1 if worse_than_bound or outputs_differ else 0


def self_test() -> int:
    """Every declared metric has its reasoning, and a run prints exactly the declared names."""
    problems = []
    if set(layers.MEANING) != set(layers.units("end_to_end")):
        problems.append("layers.MEANING and the end_to_end metrics name different metrics")
    for name in layers.units("per_layer"):
        try:
            layers.reason(name)
        except KeyError:
            problems.append(f"per_layer metric {name} has no reasoning in layers.py")
    for name in set(layers.MOVES) - set(layers.units("per_layer")):
        problems.append(f"layers.MOVES names {name}, which BENCHMARK.json does not declare")
    sys.path.insert(0, str(ROOT / "src"))
    from repro.api import registry
    from repro.whatif.spec import default_sweep_grid

    if set(registry.names()) != set(layers.ARTIFACTS):
        problems.append("the api.render_self_s.* metrics differ from the artifact registry")
    declared_scenarios = {name for name in layers.units("per_layer")
                          if name.startswith(layers.SCENARIO_PREFIX)}
    if declared_scenarios != {layers.scenario_metric(s.spec()) for s in default_sweep_grid()}:
        problems.append("the whatif.scenario_s.* metrics differ from the default sweep grid")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "study-cold",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if done.returncode != 0:
            problems.append(f"--trace {trace} run failed: {done.stderr[-500:]}")
            continue
        printed = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        if list(printed) != list(layers.units(section)):
            problems.append(f"--trace {trace} printed {sorted(printed)}")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    host = fingerprint()
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            ticks = cpu_ticks()
            if workload in BATCH:
                outcome = (trace_batch(workload, args.seed) if args.trace
                           else run_batch(workload, args.seed, args.seconds))
            elif args.trace:
                outcome = trace_serve(args.seed, args.seconds, run_dir)
            else:
                outcome = run_serve(args.seed, args.seconds, run_dir)
            outcome.notes.append(f"host_steal={steal_share(ticks, cpu_ticks()):.2%} "
                                 "of CPU time during the run")
            out = args.out
            if out and args.workload == "all":
                out = f"{out}.{workload}"
            emit(outcome, args.trace, args.seed, host, out)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
