"""Traced server launcher for the serve-mixed workload.

    python3 perfbench/launcher.py --store DIR --days 5 --sites 100 \
        --probe-interval-days 1 --seed 3 --spans SPANS.json

Does what ``python -m repro serve --store DIR --port 0`` does, except
that it installs the benchmark's span wrappers (``tracing.install``)
before calling ``start_server``.  It prints the same ``listening on``
line on stderr, serves until SIGINT or SIGTERM, and then writes the
recorded spans plus the baseline traffic study's flow count to
``SPANS.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

import tracing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--sites", type=int, required=True)
    parser.add_argument("--probe-interval-days", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    from repro.api import Study, StudyConfig
    from repro.store import set_store

    recorder = tracing.Recorder(f"serve-mixed-{args.seed}")
    tracing.install(recorder)

    from repro.serve import ArtifactService, start_server

    store = set_store(args.store)
    config = StudyConfig(days=args.days, sites=args.sites, seed=args.seed,
                         probe_interval_days=args.probe_interval_days)
    service = ArtifactService(config, store=store)

    async def serve() -> None:
        server = await start_server(service, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"perfbench launcher listening on http://{host}:{port} (store: {args.store})",
              file=sys.stderr, flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        async with server:
            await stop.wait()

    asyncio.run(serve())
    flows = sum(len(data.frame()) for data in Study(config).traffic.datasets.values())
    recorder.dump(args.spans, flows=flows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
