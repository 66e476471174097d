"""The router-resident flow monitor.

Subscribes to conntrack DESTROY events, classifies each finished flow by
scope (external LAN<->WAN vs. internal LAN<->LAN, the split of the paper's
Table 1) and address family, and appends it to a per-day log, mirroring the
daily upload cadence of section 3.1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.flowmon.conntrack import (
    ConntrackEvent,
    ConntrackEventType,
    ConntrackTable,
    FlowRecord,
)
from repro.net.addr import Family, IpAddress, Prefix
from repro.util.timeutil import day_index


class FlowScope(enum.Enum):
    """Where a flow's endpoints sit relative to the home network."""

    EXTERNAL = "external"  # LAN <-> WAN
    INTERNAL = "internal"  # LAN <-> LAN
    TRANSIT = "transit"  # neither endpoint local (should not occur at a
    # home router; kept so misconfigurations surface in tests)


@dataclass(frozen=True)
class RouterConfig:
    """Addressing of one residence's router.

    Attributes:
        lan_v4: the RFC1918-style IPv4 LAN prefix.
        lan_v6: the delegated IPv6 prefix (or None for an IPv4-only ISP
            without a tunnel).
    """

    name: str
    lan_v4: Prefix
    lan_v6: Prefix | None

    def __post_init__(self) -> None:
        if self.lan_v4.family is not Family.V4:
            raise ValueError("lan_v4 must be an IPv4 prefix")
        if self.lan_v6 is not None and self.lan_v6.family is not Family.V6:
            raise ValueError("lan_v6 must be an IPv6 prefix")

    def is_local(self, address: IpAddress) -> bool:
        if address.family is Family.V4:
            return self.lan_v4.contains(address)
        return self.lan_v6 is not None and self.lan_v6.contains(address)


@dataclass
class FlowMonitor:
    """Collects finished flows into per-day logs, split by scope.

    Wire it to a :class:`ConntrackTable` with :meth:`attach`; every DESTROY
    event lands in ``daily_logs[day][scope]``.

    Reads are cached: :meth:`records` memoizes each ``(scope, day)``
    concatenation (the analysis layer's 26 artifacts used to pay a full
    O(total flows) list rebuild per call) and :meth:`frame` memoizes the
    columnar :class:`~repro.flowmon.frame.FlowFrame` view.  Both caches
    are invalidated whenever :meth:`observe` logs a new flow.
    """

    config: RouterConfig
    daily_logs: dict[int, dict[FlowScope, list[FlowRecord]]] = field(default_factory=dict)
    records_seen: int = 0
    #: Bumped on every :meth:`observe`; cheap staleness stamp for callers
    #: (e.g. ``ResidenceDataset``) holding derived views of this log.
    version: int = 0
    _records_cache: dict[tuple, list[FlowRecord]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _frame_cache: object = field(default=None, repr=False, compare=False)

    def __reduce__(self):
        # Every pickle (pool results, the store codec) ships the log as
        # packed columns, not as a graph of records.
        from repro.flowmon.pack import reduce_monitor

        return reduce_monitor(self)

    def attach(self, table: ConntrackTable) -> None:
        table.subscribe(self._on_event)

    def _on_event(self, event: ConntrackEvent) -> None:
        if event.event_type is not ConntrackEventType.DESTROY:
            return
        assert event.record is not None
        self.observe(event.record)

    def observe(self, record: FlowRecord) -> FlowScope:
        """Classify and log one finished flow; returns its scope."""
        scope = self.classify(record)
        day = day_index(record.start_time)
        self.daily_logs.setdefault(day, {}).setdefault(scope, []).append(record)
        self.records_seen += 1
        self.version += 1
        if self._records_cache:
            self._records_cache.clear()
        self._frame_cache = None
        return scope

    def classify(self, record: FlowRecord) -> FlowScope:
        src_local = self.config.is_local(record.key.src)
        dst_local = self.config.is_local(record.key.dst)
        if src_local and dst_local:
            return FlowScope.INTERNAL
        if src_local or dst_local:
            return FlowScope.EXTERNAL
        return FlowScope.TRANSIT

    def records(
        self, scope: FlowScope | None = None, day: int | None = None
    ) -> list[FlowRecord]:
        """All logged records, optionally filtered by scope and/or day.

        The returned list is a cached view -- treat it as read-only.  It
        is rebuilt automatically after the next :meth:`observe`.
        """
        key = (scope, day)
        cached = self._records_cache.get(key)
        if cached is not None:
            return cached
        days = [day] if day is not None else sorted(self.daily_logs)
        found: list[FlowRecord] = []
        for d in days:
            per_scope = self.daily_logs.get(d, {})
            scopes = [scope] if scope is not None else list(FlowScope)
            for s in scopes:
                found.extend(per_scope.get(s, []))
        self._records_cache[key] = found
        return found

    def frame(self):
        """The columnar :class:`~repro.flowmon.frame.FlowFrame` view of
        this log (core columns only, no attribution), built once and
        invalidated on :meth:`observe`."""
        if self._frame_cache is None:
            from repro.flowmon.frame import FlowFrame

            self._frame_cache = FlowFrame.from_monitor(self)
        return self._frame_cache

    def observed_days(self) -> list[int]:
        return sorted(self.daily_logs)

    def external_peer(self, record: FlowRecord) -> IpAddress | None:
        """The non-local endpoint of an external flow (the "service" side)."""
        src_local = self.config.is_local(record.key.src)
        dst_local = self.config.is_local(record.key.dst)
        if src_local and not dst_local:
            return record.key.dst
        if dst_local and not src_local:
            return record.key.src
        return None
