"""The serve-mixed workload: a closed-loop client against ``repro serve``.

The server runs in its own process over a fresh warehouse directory:
``python -m repro serve`` for the timed runs, ``launcher.py`` (the same
server with the benchmark's span wrappers installed) for the traced one.
One asyncio client keeps 2 keep-alive connections busy; each sends its
next request only when the previous reply has been read and checked,
because API pollers each wait for their reply.

Requests, drawn from the seed:

* hit class (about 90%): ``/v1/artifact/<name>`` for all 38 artifacts
  and ``/v1/contrast/<cc>`` for every country, sent plain, with
  ``Accept-Encoding: gzip``, or revalidating with the ETag fetched in
  set-up (304).  The reply must match the set-up fetch byte for byte.
* miss class (about 10%): ``/v1/events?since=&country=&min_severity=``
  with a key the server's 512-entry LRU hot cache does not hold.  Most
  keys have never been sent before in the run, with ``since`` past the
  study's last day, so their reply is empty.  A share of them
  (``IN_HORIZON_SHARE``) cycles through every key with ``since`` inside
  the study, where replies list events; such a key is sent again only
  after more than 512 never-sent keys, so the cache has evicted it.
  The reply must list exactly the set-up feed's events that pass the
  filter, and when the feed has events, at least one miss reply of the
  server must list one.
"""

from __future__ import annotations

import asyncio
import gzip
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Serving scale: (days, sites, probe interval in days).  Daily probe
#: rounds give the sentinel a per-country series to fire on: at 5 days,
#: 49 of 50 study seeds had events in their feed, while at the default
#: 14-day interval none of the four seeds tried at 4 days had any.
SCALE = (5, 100, 1)

#: Share of miss-class requests, and the hit-class variant weights.
MISS_SHARE = 0.1
HIT_VARIANTS = (("plain", 0.6), ("gzip", 0.2), ("revalidate", 0.2))

#: Closed-loop client connections.
CONNECTIONS = 2

#: Requests per timed pass.
PASS_REQUESTS = 4000

#: ``since`` of a never-sent miss key is drawn past the study's last
#: day, from below ``SINCE_SPACE``.
SINCE_SPACE = 100_000

#: Share of miss-class requests that try an in-study key; a try whose
#: key may still be cached sends a never-sent key instead.
IN_HORIZON_SHARE = 0.2

#: Entries of the server's LRU hot cache (``ArtifactService(hot_limit=)``).
HOT_LIMIT = 512

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
_START_TIMEOUT_S = 120.0


class ServerProcess:
    """One server process over one fresh store directory.

    The server's stderr goes to ``<store>.log``, read back for the
    ``listening on`` line, so a chatty server can never block on a full
    pipe.
    """

    def __init__(self, root: Path, store: Path, seed: int, spans: Path | None,
                 env: dict[str, str]) -> None:
        days, sites, interval = SCALE
        scale = ["--days", str(days), "--sites", str(sites),
                 "--probe-interval-days", str(interval), "--seed", str(seed)]
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", "--store", str(store),
                       "--port", "0", *scale]
        else:
            command = [sys.executable, str(root / "perfbench" / "launcher.py"),
                       "--store", str(store), "--spans", str(spans), *scale]
        self.log = store.with_suffix(".log")
        self.spawned = time.perf_counter()
        with open(self.log, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=log,
            )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline and self.process.poll() is None:
            match = _LISTENING.search(self.log.read_text(encoding="utf-8"))
            if match:
                return int(match.group(1))
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not report its port:\n{self.log.read_text()[-2000:]}")

    def cpu_s(self) -> float:
        """CPU seconds the server has used, all its threads, live or ended."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        utime, stime = stat.rpartition(")")[2].split()[11:13]
        return (int(utime) + int(stime)) / _CLOCK_TICKS

    def peak_rss_kb(self) -> int:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class Connection:
    """A keep-alive HTTP/1.1 client connection (GET only)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def get(self, target: str, headers: tuple = ()) -> tuple[int, dict, bytes]:
        lines = [f"GET {target} HTTP/1.1", "Host: perfbench"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self.writer.drain()
        head = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        status_line, *header_lines = head.split("\r\n")
        fields = {}
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep:
                fields[name.strip().lower()] = value.strip()
        length = int(fields.get("content-length", "0"))
        body = await self.reader.readexactly(length) if length else b""
        return int(status_line.split(" ", 2)[1]), fields, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


async def wait_warm(port: int, timeout_s: float = _START_TIMEOUT_S) -> None:
    """Poll ``/healthz`` until the warmer reports done."""
    connection = await Connection.open(port)
    try:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            status, _, body = await connection.get("/healthz")
            health = json.loads(body)
            if status != 200 or health["status"] != "ok":
                raise RuntimeError(f"server unhealthy: {status} {body[:200]!r}")
            if health["warmer"]["done"]:
                return
            await asyncio.sleep(0.02)
        raise RuntimeError("warmer did not finish")
    finally:
        await connection.close()


class Expected:
    """What set-up fetched: every hit target's bodies and ETag, and the feed."""

    def __init__(self) -> None:
        self.hits: dict[str, dict] = {}
        self.events: list[dict] = []
        self.countries: list[str] = []
        self.severities: list[str] = []

    @classmethod
    async def fetch(cls, port: int, artifacts: tuple[str, ...]) -> "Expected":
        expected = cls()
        connection = await Connection.open(port)
        try:
            targets = [f"/v1/artifact/{name}" for name in artifacts]
            status, _, body = await connection.get("/v1/artifact/contrast")
            expected.countries = [row["country"] for row in json.loads(body)["rows"]]
            targets.extend(f"/v1/contrast/{code}" for code in expected.countries)
            for target in targets:
                status, fields, body = await connection.get(target)
                gz_status, gz_fields, gz_body = await connection.get(
                    target, (("Accept-Encoding", "gzip"),)
                )
                if status != 200 or gz_status != 200 or "etag" not in fields:
                    raise RuntimeError(f"set-up fetch of {target} failed: {status}")
                if gz_fields.get("content-encoding") == "gzip":
                    if gzip.decompress(gz_body) != body:
                        raise RuntimeError(f"{target}: gzip body differs from plain")
                expected.hits[target] = {
                    "etag": fields["etag"], "plain": body, "gzip": gz_body,
                }
            status, _, body = await connection.get("/v1/artifact/sentinel_events")
            expected.events = json.loads(body)["rows"]
            status, _, body = await connection.get("/v1/events?min_severity=-")
            if status != 400:
                raise RuntimeError(f"/v1/events with a bad severity answered {status}")
            expected.severities = json.loads(body)["known"]
        finally:
            await connection.close()
        return expected

    def events_for(self, since: int, country: str, severity: str) -> list[dict]:
        rank = self.severities.index
        return [
            row for row in self.events
            if row["day"] >= since and row["scope"] == country
            and rank(row["severity"]) >= rank(severity)
        ]


class Plan:
    """The seed's request sequence: an endless, deterministic iterator."""

    def __init__(self, seed: int, expected: Expected) -> None:
        self.rng = random.Random(seed)
        self.expected = expected
        self.targets = sorted(expected.hits)
        self.used: set[tuple] = set()
        self.variants = [name for name, _ in HIT_VARIANTS]
        self.weights = [weight for _, weight in HIT_VARIANTS]
        days = SCALE[0]
        self.horizon = [
            (since, country, severity)
            for since in range(days + 1)
            for country in [*expected.countries, "*"]
            for severity in expected.severities
        ]
        self.rng.shuffle(self.horizon)
        self.cursor = 0
        self.fresh = 0
        self.sent_at: dict[tuple, int] = {}

    def miss(self) -> tuple:
        """A miss-class key: an in-horizon key the cache has evicted, or a new one."""
        if self.rng.random() < IN_HORIZON_SHARE:
            key = self.horizon[self.cursor % len(self.horizon)]
            if self.fresh - self.sent_at.get(key, -HOT_LIMIT - 1) > HOT_LIMIT:
                self.cursor += 1
                self.sent_at[key] = self.fresh
                return ("miss", key)
        while True:
            key = (
                self.rng.randrange(SCALE[0] + 1, SINCE_SPACE),
                self.rng.choice(self.expected.countries),
                self.rng.choice(self.expected.severities),
            )
            if key not in self.used:
                self.used.add(key)
                self.fresh += 1
                return ("miss", key)

    def __next__(self) -> tuple:
        if self.rng.random() < MISS_SHARE:
            return self.miss()
        target = self.rng.choice(self.targets)
        return ("hit", target, self.rng.choices(self.variants, self.weights)[0])

    def __iter__(self) -> "Plan":
        return self


class Tally:
    """Client-side latencies per class, and the check results."""

    def __init__(self) -> None:
        self.latencies = {"hit": [], "miss": []}
        self.nonempty_misses = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def correct(self) -> int:
        return len(self.latencies["hit"]) + len(self.latencies["miss"])

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


async def _send(connection: Connection, item: tuple, expected: Expected, tally: Tally) -> None:
    if item[0] == "miss":
        since, country, severity = item[1]
        target = f"/v1/events?since={since}&country={country}&min_severity={severity}"
        start = time.perf_counter()
        status, fields, body = await connection.get(target)
        latency = time.perf_counter() - start
        tally.attempted += 1
        if status != 200:
            return tally.fail(f"{target}: HTTP {status}")
        document = json.loads(body)
        if document["count"] != len(document["events"]):
            return tally.fail(f"{target}: count {document['count']} != {len(document['events'])}")
        if document["events"] != expected.events_for(since, country, severity):
            return tally.fail(f"{target}: events differ from the filtered set-up feed")
        tally.latencies["miss"].append(latency)
        tally.nonempty_misses += bool(document["events"])
        return None
    _, target, variant = item
    want = expected.hits[target]
    headers: tuple = ()
    if variant == "gzip":
        headers = (("Accept-Encoding", "gzip"),)
    elif variant == "revalidate":
        headers = (("If-None-Match", want["etag"]),)
    start = time.perf_counter()
    status, fields, body = await connection.get(target, headers)
    latency = time.perf_counter() - start
    tally.attempted += 1
    want_status = 304 if variant == "revalidate" else 200
    want_body = b"" if variant == "revalidate" else want[variant]
    if status != want_status:
        return tally.fail(f"{target} ({variant}): HTTP {status}, expected {want_status}")
    if fields.get("etag") != want["etag"]:
        return tally.fail(f"{target} ({variant}): ETag {fields.get('etag')} changed")
    if status == 200 and fields.get("content-length") != str(len(want_body)):
        return tally.fail(f"{target} ({variant}): Content-Length {fields.get('content-length')}")
    if body != want_body:
        return tally.fail(f"{target} ({variant}): body differs from the set-up fetch")
    tally.latencies["hit"].append(latency)
    return None


async def run_pass(port: int, plan, count: int, expected: Expected, tally: Tally) -> float:
    """Send ``count`` requests from ``plan`` over the closed loop; return the wall."""
    connections = [await Connection.open(port) for _ in range(CONNECTIONS)]
    remaining = [count]

    async def loop(connection: Connection) -> None:
        while remaining[0] > 0:
            remaining[0] -= 1
            await _send(connection, next(plan), expected, tally)

    try:
        start = time.perf_counter()
        await asyncio.gather(*(loop(connection) for connection in connections))
        return time.perf_counter() - start
    finally:
        for connection in connections:
            await connection.close()


async def scrape_metrics(port: int) -> dict[str, float]:
    """Every sample of ``/metrics``, keyed by its series (name plus labels)."""
    connection = await Connection.open(port)
    try:
        _, _, body = await connection.get("/metrics")
    finally:
        await connection.close()
    samples = {}
    for line in body.decode().splitlines():
        series, _, value = line.rpartition(" ")
        if series and not line.startswith("#"):
            samples[series] = float(value)
    return samples


def warmup_plan(expected: Expected, plan: Plan) -> list[tuple]:
    """Every hit target in every variant once, plus a few never-seen misses."""
    items = [
        ("hit", target, variant)
        for target in sorted(expected.hits)
        for variant, _ in HIT_VARIANTS
    ]
    items.extend(plan.miss() for _ in range(50))
    return items



async def drive(server: ServerProcess, seed: int, seconds: float, traced: bool) -> dict:
    """Set-up fetches, the warm-up pass, then timed passes for ``seconds``.

    Each pass is recorded as (client-observed wall, correct replies,
    server CPU seconds).
    """
    from layers import ARTIFACTS

    port = server.port
    expected = await Expected.fetch(port, ARTIFACTS)
    plan = Plan(seed, expected)
    tallies = [Tally()]
    warmup = warmup_plan(expected, plan)
    await run_pass(port, iter(warmup), len(warmup), expected, tallies[0])
    before = await scrape_metrics(port) if traced else {}
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tally = Tally()
        cpu = server.cpu_s()
        wall = await run_pass(port, plan, PASS_REQUESTS, expected, tally)
        passes.append((wall, tally.correct(), server.cpu_s() - cpu))
        tallies.append(tally)
    end = time.perf_counter()
    nonempty = sum(tally.nonempty_misses for tally in tallies[1:])
    if expected.events and not nonempty:
        tallies[0].fail(f"the set-up feed has {len(expected.events)} events, "
                        "but no timed miss reply listed one")
    result = {
        "start": start,
        "end": end,
        "passes": passes,
        "attempted": sum(tally.attempted for tally in tallies),
        "failed": sum(tally.failed for tally in tallies),
        "problems": [problem for tally in tallies for problem in tally.problems][:10],
        "feed_events": len(expected.events),
        "nonempty_misses": nonempty,
        "latencies": {
            kind: [value for tally in tallies[1:] for value in tally.latencies[kind]]
            for kind in ("hit", "miss")
        },
    }
    if traced:
        after = await scrape_metrics(port)

        def delta(series: str) -> float:
            return after.get(series, 0.0) - before.get(series, 0.0)

        hits = delta("serve_hot_cache_hits_total")
        lookups = hits + delta("serve_hot_cache_misses_total")
        result["hot_hit_ratio"] = hits / lookups if lookups else 0.0
        result["overlay_builds"] = {
            layer: after.get(f'builds_total{{layer="whatif:{layer}"}}', 0.0)
            for layer in ("traffic", "observatory")
        }
    return result
