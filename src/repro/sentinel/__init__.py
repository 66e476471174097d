"""repro.sentinel: significance engine over the adoption time series.

Watches the five non-binary adoption signals (availability, takeoff,
readiness, usage, heavy-hitter mix) against trailing per-scope
baselines and emits a conservative, deterministic event feed -- at most
one :class:`~repro.sentinel.detect.SentinelEvent` per signal per scope
per day, and none at all when nothing deviates ("silence is valid
data").  Cached as the ``"sentinel"`` session layer (``study.sentinel``)
and surfaced via the ``sentinel_events`` artifact, ``/v1/events``, the
``python -m repro sentinel`` CLI, and the whatif event-ranking sweep.
"""

from repro.sentinel.config import (
    DEFAULT_SENTINEL_CONFIG,
    GLOBAL_SCOPE,
    SEVERITIES,
    SIGNALS,
    SentinelConfig,
    severity_rank,
)
from repro.sentinel.detect import SentinelEvent, detect_series
from repro.sentinel.scan import SentinelFeed, run_sentinel, scan_series
from repro.sentinel.series import (
    SignalSeries,
    build_signal_series,
    traffic_signal_series,
)

__all__ = [
    "DEFAULT_SENTINEL_CONFIG",
    "GLOBAL_SCOPE",
    "SEVERITIES",
    "SIGNALS",
    "SentinelConfig",
    "SentinelEvent",
    "SentinelFeed",
    "SignalSeries",
    "build_signal_series",
    "detect_series",
    "run_sentinel",
    "scan_series",
    "severity_rank",
    "traffic_signal_series",
]
