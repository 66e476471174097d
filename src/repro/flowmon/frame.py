"""FlowFrame: a columnar (NumPy structured-array) view of a flow log.

The record-oriented :class:`~repro.flowmon.monitor.FlowMonitor` mirrors
what the paper's router monitor uploads: per-day lists of
:class:`~repro.flowmon.conntrack.FlowRecord` objects.  That shape is
right for the measurement path but wrong for the analysis path, where
every table and figure re-aggregates the same nine months of flows.
``FlowFrame`` holds the log as parallel NumPy columns (day, scope,
family, protocol, bytes in/out, packets, duration, start time, interned
external-peer id) so every downstream group-by is a
``np.bincount``/``np.add.at`` over integer codes instead of a Python
loop over dataclasses.

There is one construction path: :meth:`FlowFrame.from_packed` reads the
packed log of :mod:`repro.flowmon.pack` with whole-column operations.
The traffic generator writes that packed log directly, and
:meth:`FlowFrame.from_monitor` lowers a record log to it first.

Attribution (``peer -> origin AS``, ``peer -> rDNS eTLD+1 domain``) is
computed once per *unique* external peer rather than once per record --
the dominant cost of the AS and domain breakdowns at paper scale -- and
stored as per-peer lookup arrays (:attr:`FlowFrame.peer_asn`,
:attr:`FlowFrame.peer_domain`), so the per-flow AS/domain columns are a
single fancy-indexing expression.

Rows are ordered exactly like ``FlowMonitor.records()`` (days ascending,
scopes in :class:`FlowScope` declaration order, appends within) so
positional and first-appearance semantics of the original record loops
are preserved bit-for-bit by the vectorized analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.flowmon.monitor import FlowScope
from repro.net.addr import Family, IpAddress
from repro.net.psl import PublicSuffixList, default_psl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flowmon.monitor import FlowMonitor, RouterConfig
    from repro.net.bgp import RoutingTable
    from repro.net.rdns import ReverseDns

#: Integer codes for :class:`FlowScope`, in declaration order.
SCOPE_CODES: dict[FlowScope, int] = {s: i for i, s in enumerate(FlowScope)}
SCOPES_BY_CODE: tuple[FlowScope, ...] = tuple(FlowScope)

#: The columnar layout.  ``bytes`` is the precomputed in+out total since
#: every analysis consumes it; ``peer`` indexes :attr:`FlowFrame.peers`
#: (-1 for flows with no external endpoint).
FLOW_DTYPE = np.dtype(
    [
        ("day", np.int32),
        ("hour", np.int64),  # absolute hour-of-study index
        ("scope", np.int8),
        ("family", np.int8),  # 4 or 6
        ("protocol", np.uint8),  # Protocol.value (TCP=6, UDP=17, ICMP=1)
        ("bytes", np.int64),
        ("bytes_in", np.int64),
        ("bytes_out", np.int64),
        ("packets", np.int64),
        ("duration", np.float64),
        ("start_time", np.float64),
        ("peer", np.int32),
    ]
)

_HOUR = 3600.0
_DAY = 86400.0


def _address(family: int, hi: int, lo: int) -> IpAddress:
    return IpAddress(Family(family), (hi << 64) | lo)


def _intern_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D key array, in order of first appearance,
    and each row's index into them."""
    if not len(keys):
        return keys, np.zeros(0, dtype=np.int64)
    order = np.lexsort(keys.T[::-1])  # stable: a group's first row leads it
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.cumsum(starts) - 1
    first = order[starts]
    by_appearance = np.argsort(first, kind="stable")
    rank = np.empty(first.size, dtype=np.int64)
    rank[by_appearance] = np.arange(first.size)
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = rank[group]
    return keys[first[by_appearance]], ids


@dataclass
class FlowFrame:
    """One residence's flow log as parallel NumPy columns.

    Attributes:
        data: the structured array (:data:`FLOW_DTYPE`), one row per
            finished flow, in canonical ``records()`` order.
        peers: interned external peer addresses, in first-appearance
            order; row ``peer`` values index into this tuple.
        peer_asn: per-peer BGP origin AS (-1 unknown); filled by
            :meth:`with_attribution`.
        peer_domain: per-peer rDNS eTLD+1 id into :attr:`domains`
            (-1 unknown); filled by :meth:`with_attribution`.
        domains: interned eTLD+1 strings, in first-appearance order.
    """

    data: np.ndarray
    peers: tuple[IpAddress, ...] = ()
    peer_asn: np.ndarray | None = None
    peer_domain: np.ndarray | None = None
    domains: tuple[str, ...] = ()
    _flow_asn: np.ndarray | None = field(default=None, repr=False)
    _flow_domain: np.ndarray | None = field(default=None, repr=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_monitor(cls, monitor: "FlowMonitor") -> "FlowFrame":
        """Build the core columns from a monitor's daily logs.

        Lowers the log with :func:`~repro.flowmon.pack.pack_daily_logs`
        (free for a log that is still packed) and reads the columns with
        :meth:`from_packed`.  Prefer :meth:`FlowMonitor.frame`, which
        caches the result and invalidates it when new flows are observed.
        """
        from repro.flowmon.pack import pack_daily_logs

        return cls.from_packed(pack_daily_logs(monitor.daily_logs), monitor.config)

    @classmethod
    def from_packed(
        cls, packed: dict[str, np.ndarray], config: "RouterConfig"
    ) -> "FlowFrame":
        """Build the core columns from a packed log (:mod:`repro.flowmon.pack`).

        Rows come segment by segment, segments stable-sorted by (day,
        scope code) -- the ``records()`` order.  An external flow's peer
        is its non-local endpoint (``config.is_local``, asked once per
        distinct source address); peers are interned in order of first
        appearance.
        """
        seg_count = packed["seg_count"]
        seg_order = np.lexsort((packed["seg_scope"], packed["seg_day"]))
        counts = seg_count[seg_order]
        n = int(counts.sum())
        seg_start = np.cumsum(seg_count) - seg_count
        out_start = np.cumsum(counts) - counts
        rows = np.arange(n, dtype=np.int64) + np.repeat(
            seg_start[seg_order] - out_start, counts
        )

        start = packed["start"][rows]
        bytes_in = packed["bytes_in"][rows]
        bytes_out = packed["bytes_out"][rows]
        data = np.empty(n, dtype=FLOW_DTYPE)
        data["day"] = start // _DAY
        data["hour"] = start // _HOUR
        data["scope"] = np.repeat(packed["seg_scope"][seg_order], counts)
        data["family"] = packed["family"][rows]
        data["protocol"] = packed["protocol"][rows]
        data["bytes"] = bytes_in + bytes_out
        data["bytes_in"] = bytes_in
        data["bytes_out"] = bytes_out
        data["packets"] = packed["packets_in"][rows] + packed["packets_out"][rows]
        data["duration"] = packed["end"][rows] - start
        data["start_time"] = start
        data["peer"] = -1

        external = np.flatnonzero(data["scope"] == SCOPE_CODES[FlowScope.EXTERNAL])
        family = data["family"][external].astype(np.uint64)
        src = np.stack(
            [family, packed["src_hi"][rows[external]], packed["src_lo"][rows[external]]],
            axis=1,
        )
        dst = np.stack(
            [family, packed["dst_hi"][rows[external]], packed["dst_lo"][rows[external]]],
            axis=1,
        )
        sources, source_of_row = _intern_rows(src)
        src_local = np.array(
            [config.is_local(_address(*key)) for key in sources.tolist()], dtype=bool
        )
        peers, peer_of_row = _intern_rows(
            np.where(src_local[source_of_row][:, None], dst, src)
        )
        data["peer"][external] = peer_of_row
        return cls(data=data, peers=tuple(_address(*key) for key in peers.tolist()))

    def with_attribution(
        self,
        routing: "RoutingTable",
        rdns: "ReverseDns",
        psl: PublicSuffixList | None = None,
    ) -> "FlowFrame":
        """Fill the per-peer AS and domain lookup arrays (idempotent).

        Each *unique* peer is resolved once through the BGP table and the
        reverse-DNS map; domain strings are interned in first-appearance
        order, which (because peers are interned in first-record order)
        matches the insertion order of the original per-record dict loops.
        """
        if self.peer_asn is not None and self.peer_domain is not None:
            return self
        psl = psl or default_psl()
        n_peers = len(self.peers)
        peer_asn = np.full(n_peers, -1, dtype=np.int64)
        peer_domain = np.full(n_peers, -1, dtype=np.int32)
        domain_ids: dict[str, int] = {}
        domains: list[str] = []
        for index, peer in enumerate(self.peers):
            asn = routing.origin_of(peer)
            if asn is not None:
                peer_asn[index] = asn
            domain = rdns.lookup_etld1(peer, psl)
            if domain is not None:
                domain_id = domain_ids.get(domain)
                if domain_id is None:
                    domain_id = domain_ids[domain] = len(domains)
                    domains.append(domain)
                peer_domain[index] = domain_id
        self.peer_asn = peer_asn
        self.peer_domain = peer_domain
        self.domains = tuple(domains)
        self._flow_asn = None
        self._flow_domain = None
        return self

    # -- basic shape -------------------------------------------------------

    def __len__(self) -> int:
        return int(self.data.size)

    @property
    def day(self) -> np.ndarray:
        return self.data["day"]

    @property
    def hour(self) -> np.ndarray:
        return self.data["hour"]

    @property
    def scope(self) -> np.ndarray:
        return self.data["scope"]

    @property
    def family(self) -> np.ndarray:
        return self.data["family"]

    @property
    def protocol(self) -> np.ndarray:
        return self.data["protocol"]

    @property
    def total_bytes(self) -> np.ndarray:
        return self.data["bytes"]

    @property
    def bytes_in(self) -> np.ndarray:
        return self.data["bytes_in"]

    @property
    def bytes_out(self) -> np.ndarray:
        return self.data["bytes_out"]

    @property
    def packets(self) -> np.ndarray:
        return self.data["packets"]

    @property
    def duration(self) -> np.ndarray:
        return self.data["duration"]

    @property
    def start_time(self) -> np.ndarray:
        return self.data["start_time"]

    @property
    def peer(self) -> np.ndarray:
        return self.data["peer"]

    @property
    def is_v6(self) -> np.ndarray:
        return self.data["family"] == 6

    @property
    def flow_asn(self) -> np.ndarray:
        """Per-flow BGP origin AS (-1 for unattributed flows).

        Requires :meth:`with_attribution`.
        """
        if self.peer_asn is None:
            raise ValueError("frame is not attributed; call with_attribution()")
        if self._flow_asn is None:
            peer = self.data["peer"]
            if self.peer_asn.size == 0:  # no external peers at all
                self._flow_asn = np.full(peer.size, -1, dtype=np.int64)
            else:
                self._flow_asn = np.where(
                    peer >= 0, self.peer_asn[np.maximum(peer, 0)], np.int64(-1)
                )
        return self._flow_asn

    @property
    def flow_domain(self) -> np.ndarray:
        """Per-flow rDNS eTLD+1 id into :attr:`domains` (-1 unknown)."""
        if self.peer_domain is None:
            raise ValueError("frame is not attributed; call with_attribution()")
        if self._flow_domain is None:
            peer = self.data["peer"]
            if self.peer_domain.size == 0:  # no external peers at all
                self._flow_domain = np.full(peer.size, -1, dtype=np.int32)
            else:
                self._flow_domain = np.where(
                    peer >= 0, self.peer_domain[np.maximum(peer, 0)], np.int32(-1)
                )
        return self._flow_domain

    # -- selection ---------------------------------------------------------

    def select(
        self, scope: FlowScope | None = None, day: int | None = None
    ) -> "FlowFrame":
        """A filtered view sharing this frame's interning tables.

        Mirrors ``FlowMonitor.records(scope=..., day=...)``: rows keep
        their canonical order, so first-appearance semantics survive.
        """
        mask = None
        if scope is not None:
            mask = self.data["scope"] == SCOPE_CODES[scope]
        if day is not None:
            day_mask = self.data["day"] == day
            mask = day_mask if mask is None else (mask & day_mask)
        if mask is None:
            return self
        sub = FlowFrame(
            data=self.data[mask],
            peers=self.peers,
            peer_asn=self.peer_asn,
            peer_domain=self.peer_domain,
            domains=self.domains,
        )
        return sub

    def mask(self, mask: np.ndarray) -> "FlowFrame":
        """A boolean-mask view sharing this frame's interning tables."""
        return FlowFrame(
            data=self.data[mask],
            peers=self.peers,
            peer_asn=self.peer_asn,
            peer_domain=self.peer_domain,
            domains=self.domains,
        )


def group_sums(
    keys: np.ndarray, values: Iterable[np.ndarray] = ()
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Group-by with keys in *first-appearance* order.

    Args:
        keys: 1-D integer key per row.
        values: per-row integer columns to sum within each group.

    Returns:
        ``(unique_keys, counts, sums)`` where ``unique_keys`` preserves
        the order each key first appears in (matching the insertion order
        of a ``dict``-based accumulation loop), ``counts`` is the group
        sizes, and ``sums`` holds one exact ``int64`` sum array per value
        column.  All sums use ``np.add.at`` so no float rounding occurs.
    """
    if keys.size == 0:
        return (
            keys[:0],
            np.zeros(0, dtype=np.int64),
            [np.zeros(0, dtype=np.int64) for _ in values],
        )
    uniq, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    inverse = rank[inverse]
    counts = np.bincount(inverse, minlength=order.size).astype(np.int64)
    sums: list[np.ndarray] = []
    for column in values:
        out = np.zeros(order.size, dtype=np.int64)
        np.add.at(out, inverse, column.astype(np.int64, copy=False))
        sums.append(out)
    return uniq[order], counts, sums


def day_sums(
    day: np.ndarray, values: Sequence[np.ndarray], minlength: int = 0
) -> list[np.ndarray]:
    """Per-day exact integer sums via ``np.add.at`` (index = day)."""
    length = max(minlength, int(day.max()) + 1 if day.size else 0)
    out: list[np.ndarray] = []
    for column in values:
        sums = np.zeros(length, dtype=np.int64)
        if day.size:
            np.add.at(sums, day, column.astype(np.int64, copy=False))
        out.append(sums)
    return out
