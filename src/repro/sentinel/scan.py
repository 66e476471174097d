"""The sentinel scan: series -> detector -> deterministic event feed.

:func:`run_sentinel` is the build function behind the ``"sentinel"``
session layer (``study.sentinel``).  It runs in two steps:
:func:`~repro.sentinel.series.build_signal_series` extracts the five
signal series from the already-built traffic and observatory universes,
then :func:`scan_series` runs the deviation detector over each and
assembles a :class:`SentinelFeed` sorted by (day, signal, scope).
Everything downstream of the universes is pure arithmetic, so the same
seed yields a byte-identical feed.

Telemetry: each scan observes ``sentinel_scan_seconds`` and bumps
``sentinel_events_total{signal,severity}`` per event.  Every
signal x severity sample is pre-seeded at zero so the metric family is
present on ``/metrics`` even when the scan stays silent or the layer
warm-loads from the store -- absence of events must be visible as
zeros, not as a missing metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.sentinel.config import (
    DEFAULT_SENTINEL_CONFIG,
    SEVERITIES,
    SIGNALS,
    SentinelConfig,
)
from repro.sentinel.detect import SentinelEvent, detect_series
from repro.sentinel.series import SignalSeries, build_signal_series
from repro.telemetry import registry as _metrics_registry, span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Study

_EVENTS_TOTAL = _metrics_registry().counter(
    "sentinel_events_total",
    "significant deviations emitted by the sentinel scan",
    ("signal", "severity"),
)
_SCAN_SECONDS = _metrics_registry().histogram(
    "sentinel_scan_seconds",
    "wall time of each sentinel scan",
)


def seed_zero_samples() -> None:
    """Materialize a zero sample per signal x severity combination."""
    for signal in SIGNALS:
        for severity in SEVERITIES:
            _EVENTS_TOTAL.inc(0.0, signal=signal, severity=severity)


seed_zero_samples()


@dataclass(frozen=True)
class SentinelFeed:
    """One study's full event feed plus scan census.

    Attributes:
        events: all emitted events, sorted by (day, signal, scope).
        signals: the signal names scanned, feed order.
        scopes: every scope that appeared in any series (countries plus
            the ``"*"`` global scope), sorted.
        points: total series points scanned across all signals -- the
            denominator that makes "silence is valid data" measurable.
        days: the study's day count.
        config: the threshold model the feed was produced under.
    """

    events: tuple[SentinelEvent, ...]
    signals: tuple[str, ...]
    scopes: tuple[str, ...]
    points: int
    days: int
    config: SentinelConfig

    def since(self, day: int) -> tuple[SentinelEvent, ...]:
        """Events on or after ``day``."""
        return tuple(event for event in self.events if event.day >= day)


def scan_series(
    series_list: Sequence[SignalSeries],
    days: int,
    config: SentinelConfig | None = None,
) -> SentinelFeed:
    """Scan built signal series into a feed (pure arithmetic)."""
    model = DEFAULT_SENTINEL_CONFIG if config is None else config
    events: list[SentinelEvent] = []
    points = 0
    scopes: set[str] = set()
    for series in series_list:
        points += int(series.values.size)
        scopes.update(series.scopes)
        events.extend(detect_series(series, model))
    events.sort(key=lambda event: (event.day, event.signal, event.scope))
    return SentinelFeed(
        events=tuple(events),
        signals=tuple(series.signal for series in series_list),
        scopes=tuple(sorted(scopes)),
        points=points,
        days=days,
        config=model,
    )


def run_sentinel(
    study: "Study", config: SentinelConfig | None = None
) -> SentinelFeed:
    """Scan one study's adoption series for significant deviations."""
    seed_zero_samples()
    with span("sentinel:scan") as scan_span:
        feed = scan_series(build_signal_series(study), study.config.days, config)
    _SCAN_SECONDS.observe(scan_span.duration_s)
    for event in feed.events:
        _EVENTS_TOTAL.inc(signal=event.signal, severity=event.severity)
    return feed
