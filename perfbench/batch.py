"""One pass of a batch workload, run in a fresh interpreter.

    python3 perfbench/batch.py --workload study-cold --seed 3 \
        [--sequential] [--trace SPANS.json]

``run.py`` starts this once per pass so every pass pays the cold start
the workload is about; ``--seed`` is the study seed of the pass.  The
last stdout line is one JSON object: the set-up finish time
(``time.perf_counter``, which on Linux reads the same monotonic clock
in every process, so the parent can subtract its own spawn time), the
timed window, the digest of every rendered document, the output
checks, peak RSS, and the overlay build counts around the sweep.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time

#: Scale of each batch workload: (days, sites).
SCALES = {"study-cold": (14, 300), "whatif-sweep": (4, 100)}

#: Layers the whatif-sweep set-up builds before the timed part.
BASELINE_LAYERS = ("traffic", "census", "cloud", "dependencies", "observatory", "sentinel")


def _finite(value) -> bool:
    return not isinstance(value, float) or math.isfinite(value)


def _check_document(name: str, document: dict) -> list[str]:
    """Structural checks every rendered artifact document must pass."""
    problems = []
    if document.get("name") != name:
        problems.append(f"{name}: document names {document.get('name')!r}")
    rows = document.get("rows")
    if not isinstance(rows, list):
        problems.append(f"{name}: rows is not a list")
    else:
        for row in rows:
            if not all(_finite(value) for value in row.values()):
                problems.append(f"{name}: non-finite value in {row}")
                break
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sequential", action="store_true")
    parser.add_argument("--trace", default=None, metavar="SPANS.json")
    args = parser.parse_args(argv)

    from repro.api import Study, registry
    from repro.api.session import BUILD_COUNTS
    from repro.whatif.spec import default_sweep_grid

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(f"{args.workload}-{args.seed}")
        tracing.install(recorder)

    days, sites = SCALES[args.workload]
    study = Study(
        days=days, sites=sites, seed=args.seed,
        parallel=False if args.sequential else None,
    )
    if args.workload == "whatif-sweep":
        for layer in BASELINE_LAYERS:
            getattr(study, layer)
        names = [name for name in registry.names() if name.startswith("whatif")]
    else:
        names = [name for name in registry.names() if not name.startswith("whatif")]
    ready = time.perf_counter()

    digest = hashlib.sha256()
    problems: list[str] = []
    overlay_builds: dict[str, dict[str, int]] = {}

    def overlay_counts() -> dict[str, int]:
        return {
            layer: int(BUILD_COUNTS.get(f"whatif:{layer}", 0))
            for layer in ("traffic", "census", "observatory")
        }

    start = time.perf_counter()
    attempted = 0
    if args.workload == "whatif-sweep":
        overlay_builds["before"] = overlay_counts()
        sweep = study.whatif
        overlay_builds["sweep"] = overlay_counts()
        specs = list(sweep.frame.scenarios)
        grid = [scenario.spec() for scenario in default_sweep_grid()]
        attempted += len(grid)
        if specs != grid:
            problems.append(f"sweep ran {specs}, not the default grid")
        elif len(sweep.frame.data) != len(grid) * len(sweep.frame.countries):
            problems.append(f"sweep frame has {len(sweep.frame.data)} rows")
        digest.update(json.dumps(specs).encode())
    for name in names:
        attempted += 1
        document = study.artifact(name).to_dict()
        blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
        problems.extend(_check_document(name, document))
        digest.update(name.encode() + b"\0" + blob.encode() + b"\0")
    end = time.perf_counter()
    if args.workload == "whatif-sweep":
        overlay_builds["ranking"] = overlay_counts()

    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "ready": ready,
        "start": start,
        "end": end,
        "wall_s": end - start,
        "attempted": attempted,
        "problems": problems,
        "digest": digest.hexdigest(),
        "peak_rss_kb": max(self_usage.ru_maxrss, child_usage.ru_maxrss),
        "overlay_builds": overlay_builds,
    }
    if recorder is not None:
        result["flows"] = sum(len(data.frame()) for data in study.traffic.datasets.values())
        recorder.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
