"""The packed flow log: one columnar format for generation, pickles and the store.

A :class:`~repro.flowmon.monitor.FlowMonitor` at paper scale would hold
millions of :class:`~repro.flowmon.conntrack.FlowRecord` dataclasses;
building, pickling and rebuilding that object graph used to dominate
traffic generation and warm starts alike, even though the analysis
layer reads the columnar :class:`~repro.flowmon.frame.FlowFrame`, not
the records.  This module keeps the log as flat columns and makes it
pay the record cost only when someone actually asks for records:

* :func:`pack_daily_logs` lowers ``monitor.daily_logs`` into flat NumPy
  columns (one row per record, plus a segment table preserving the
  exact ``{day: {scope: [records]}}`` insertion structure) -- arrays
  the store codec externalizes into the ``.npz`` payload;
* :func:`unpack_daily_logs` reverses it losslessly, interning repeated
  addresses so the rebuilt graph shares objects like the original;
* :class:`LazyDailyLogs` is a dict that *carries* the packed columns
  and only runs the unpack on first real access, so a warm-started
  session whose artifacts read frames never rebuilds a single record.

Round-trip fidelity is exact: same days in the same order, same scopes
per day in the same order, same records per scope in the same order,
equal field-for-field -- pinned by ``tests/flowmon/test_pack.py``.

The packed columns are also where synthesized traffic is born:
:class:`PackedLogBuilder` appends one row per generated flow and
:meth:`PackedLogBuilder.build` emits exactly the columns
:func:`pack_daily_logs` would lower the equivalent record log to, so
the traffic generator never allocates a ``FlowKey`` or ``FlowRecord``.
A monitor built either way pickles as columns
(:meth:`FlowMonitor.__reduce__ <repro.flowmon.monitor.FlowMonitor>`
delegates to :func:`reduce_monitor`), which is how pool workers and the
warehouse ship it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.flowmon.conntrack import FlowKey, FlowRecord, IcmpInfo, Protocol
from repro.flowmon.frame import FlowFrame
from repro.flowmon.monitor import FlowMonitor, FlowScope, RouterConfig
from repro.net.addr import Family, IpAddress
from repro.util.timeutil import DAY

#: Scope <-> code, in declaration order (same codes as the FlowFrame).
_SCOPES: tuple[FlowScope, ...] = tuple(FlowScope)
_SCOPE_CODE = {scope: code for code, scope in enumerate(_SCOPES)}

_U64 = (1 << 64) - 1


def pack_daily_logs(
    daily_logs: dict[int, dict[FlowScope, list[FlowRecord]]],
) -> dict[str, np.ndarray]:
    """Lower a daily log into flat columns plus a segment table.

    A :class:`LazyDailyLogs` that is still packed hands back its own
    columns without unpacking.
    """
    if isinstance(daily_logs, LazyDailyLogs) and not daily_logs.materialized:
        return dict(daily_logs._packed)
    seg_day: list[int] = []
    seg_scope: list[int] = []
    seg_count: list[int] = []
    records: list[FlowRecord] = []
    for day, per_scope in daily_logs.items():
        for scope, day_records in per_scope.items():
            seg_day.append(day)
            seg_scope.append(_SCOPE_CODE[scope])
            seg_count.append(len(day_records))
            records.extend(day_records)

    n = len(records)
    protocol = np.empty(n, dtype=np.uint8)
    family = np.empty(n, dtype=np.uint8)
    src_hi = np.empty(n, dtype=np.uint64)
    src_lo = np.empty(n, dtype=np.uint64)
    dst_hi = np.empty(n, dtype=np.uint64)
    dst_lo = np.empty(n, dtype=np.uint64)
    sport = np.empty(n, dtype=np.uint16)
    dport = np.empty(n, dtype=np.uint16)
    icmp_type = np.full(n, -1, dtype=np.int16)  # -1: no IcmpInfo
    icmp_code = np.empty(n, dtype=np.uint8)
    icmp_id = np.empty(n, dtype=np.uint16)
    start = np.empty(n, dtype=np.float64)
    end = np.empty(n, dtype=np.float64)
    bytes_out = np.empty(n, dtype=np.int64)
    bytes_in = np.empty(n, dtype=np.int64)
    packets_out = np.empty(n, dtype=np.int64)
    packets_in = np.empty(n, dtype=np.int64)

    for i, record in enumerate(records):
        key = record.key
        protocol[i] = key.protocol.value
        family[i] = key.src.family.value
        src = key.src.value
        dst = key.dst.value
        src_hi[i] = src >> 64
        src_lo[i] = src & _U64
        dst_hi[i] = dst >> 64
        dst_lo[i] = dst & _U64
        sport[i] = key.sport
        dport[i] = key.dport
        if key.icmp is not None:
            icmp_type[i] = key.icmp.icmp_type
            icmp_code[i] = key.icmp.icmp_code
            icmp_id[i] = key.icmp.icmp_id
        else:
            icmp_code[i] = 0
            icmp_id[i] = 0
        start[i] = record.start_time
        end[i] = record.end_time
        bytes_out[i] = record.bytes_out
        bytes_in[i] = record.bytes_in
        packets_out[i] = record.packets_out
        packets_in[i] = record.packets_in

    return {
        "seg_day": np.asarray(seg_day, dtype=np.int64),
        "seg_scope": np.asarray(seg_scope, dtype=np.int8),
        "seg_count": np.asarray(seg_count, dtype=np.int64),
        "protocol": protocol,
        "family": family,
        "src_hi": src_hi,
        "src_lo": src_lo,
        "dst_hi": dst_hi,
        "dst_lo": dst_lo,
        "sport": sport,
        "dport": dport,
        "icmp_type": icmp_type,
        "icmp_code": icmp_code,
        "icmp_id": icmp_id,
        "start": start,
        "end": end,
        "bytes_out": bytes_out,
        "bytes_in": bytes_in,
        "packets_out": packets_out,
        "packets_in": packets_in,
    }


def unpack_daily_logs(
    packed: dict[str, np.ndarray],
) -> dict[int, dict[FlowScope, list[FlowRecord]]]:
    """Rebuild the exact ``{day: {scope: [records]}}`` structure."""
    by_protocol = {p.value: p for p in Protocol}
    by_family = {f.value: f for f in Family}
    addresses: dict[tuple[int, int], IpAddress] = {}

    def address(family_code: int, hi: int, lo: int) -> IpAddress:
        value = (hi << 64) | lo
        cache_key = (family_code, value)
        cached = addresses.get(cache_key)
        if cached is None:
            cached = addresses[cache_key] = IpAddress(by_family[family_code], value)
        return cached

    protocol = packed["protocol"].tolist()
    family = packed["family"].tolist()
    src_hi = packed["src_hi"].tolist()
    src_lo = packed["src_lo"].tolist()
    dst_hi = packed["dst_hi"].tolist()
    dst_lo = packed["dst_lo"].tolist()
    sport = packed["sport"].tolist()
    dport = packed["dport"].tolist()
    icmp_type = packed["icmp_type"].tolist()
    icmp_code = packed["icmp_code"].tolist()
    icmp_id = packed["icmp_id"].tolist()
    start = packed["start"].tolist()
    end = packed["end"].tolist()
    bytes_out = packed["bytes_out"].tolist()
    bytes_in = packed["bytes_in"].tolist()
    packets_out = packed["packets_out"].tolist()
    packets_in = packed["packets_in"].tolist()

    daily_logs: dict[int, dict[FlowScope, list[FlowRecord]]] = {}
    i = 0
    for day, scope_code, count in zip(
        packed["seg_day"].tolist(),
        packed["seg_scope"].tolist(),
        packed["seg_count"].tolist(),
    ):
        segment: list[FlowRecord] = []
        for _ in range(count):
            icmp = (
                IcmpInfo(icmp_type[i], icmp_code[i], icmp_id[i])
                if icmp_type[i] >= 0
                else None
            )
            key = FlowKey(
                protocol=by_protocol[protocol[i]],
                src=address(family[i], src_hi[i], src_lo[i]),
                dst=address(family[i], dst_hi[i], dst_lo[i]),
                sport=sport[i],
                dport=dport[i],
                icmp=icmp,
            )
            segment.append(
                FlowRecord(
                    key=key,
                    start_time=start[i],
                    end_time=end[i],
                    bytes_out=bytes_out[i],
                    bytes_in=bytes_in[i],
                    packets_out=packets_out[i],
                    packets_in=packets_in[i],
                )
            )
            i += 1
        daily_logs.setdefault(day, {})[_SCOPES[scope_code]] = segment
    return daily_logs


class LazyDailyLogs(dict):
    """A daily log that unpacks its columns on first real access.

    Behaves exactly like the dict it lowers to (it *is* one after
    materialization); until then it weighs a handful of NumPy arrays.
    Every reading or writing dict operation triggers the unpack.
    """

    def __init__(self, packed: dict[str, np.ndarray]) -> None:
        super().__init__()
        self._packed: dict[str, np.ndarray] | None = packed

    @property
    def materialized(self) -> bool:
        return self._packed is None

    def _materialize(self) -> None:
        if self._packed is not None:
            packed, self._packed = self._packed, None
            super().update(unpack_daily_logs(packed))

    def __reduce__(self):
        # A log pickled on its own lowers to an ordinary dict; one inside
        # a monitor never gets here, since FlowMonitor.__reduce__ ships
        # the packed columns instead.
        self._materialize()
        return (dict, (), None, None, iter(self.items()))

    def __repr__(self) -> str:
        if self._packed is not None:
            return f"LazyDailyLogs(<packed, {len(self._packed['seg_day'])} segments>)"
        return super().__repr__()


def _lazify(method_name: str):
    base = getattr(dict, method_name)

    def method(self: LazyDailyLogs, *args: Any, **kwargs: Any):
        self._materialize()
        return base(self, *args, **kwargs)

    method.__name__ = method_name
    return method


for _name in (
    "__getitem__", "__setitem__", "__delitem__", "__contains__", "__iter__",
    "__len__", "__eq__", "__ne__", "__or__", "__ror__", "__ior__",
    "get", "keys", "values", "items", "setdefault", "pop", "popitem",
    "update", "clear", "copy",
):
    setattr(LazyDailyLogs, _name, _lazify(_name))


def reduce_monitor(monitor: FlowMonitor) -> tuple:
    """A pickle reduction that packs the record log columnarly.

    ``FlowMonitor.__reduce__`` delegates here, so every pickle of a
    monitor -- pool results, the store codec -- ships columns: the
    packed arrays ride the store's ``.npz`` payload, the cached frame
    (the analysis layer's actual input) survives, and the transient
    ``records()`` memo is dropped.  :func:`restore_monitor` rebuilds a
    monitor whose log is a :class:`LazyDailyLogs`.
    """
    packed = pack_daily_logs(monitor.daily_logs)
    return (
        restore_monitor,
        (
            monitor.config,
            packed,
            monitor.records_seen,
            monitor.version,
            monitor._frame_cache,
        ),
    )


def restore_monitor(
    config: Any,
    packed: dict[str, np.ndarray],
    records_seen: int,
    version: int,
    frame_cache: Any,
) -> FlowMonitor:
    monitor = FlowMonitor(config=config)
    monitor.daily_logs = LazyDailyLogs(packed)
    monitor.records_seen = records_seen
    monitor.version = version
    monitor._frame_cache = frame_cache
    return monitor


def is_still_packed(monitor: FlowMonitor) -> bool:
    """True while the monitor's log is still packed (test/introspection)."""
    logs = monitor.daily_logs
    return isinstance(logs, LazyDailyLogs) and not logs.materialized


class PackedLogBuilder:
    """Synthesized flows, appended straight into the packed columns.

    One :meth:`append` per finished flow, in the order a monitor
    attached to a conntrack table would observe it.  :meth:`build`
    classifies and groups the rows the way :meth:`FlowMonitor.observe`
    files records (scope by :meth:`RouterConfig.is_local`, day by
    ``start // DAY``, segments in first-appearance order), so its
    columns are byte-identical to :func:`pack_daily_logs` of that
    monitor's log.  The checks ``FlowKey``, ``IcmpInfo``, ``FlowRecord``
    and ``day_index`` make per object run once over the columns and
    raise the same :class:`ValueError` messages.
    """

    def __init__(self) -> None:
        self._rows: list[tuple] = []

    def append(
        self,
        protocol: Protocol,
        src: IpAddress,
        dst: IpAddress,
        sport: int,
        dport: int,
        start: float,
        end: float,
        bytes_out: int,
        bytes_in: int,
        packets_out: int | None = None,
        packets_in: int | None = None,
        icmp: tuple[int, int, int] | None = None,
    ) -> None:
        """Log one finished flow.

        Packet counts default to conntrack's estimate
        (:meth:`ConntrackTable.observe_flow`); ``icmp`` is the
        ``(type, code, id)`` an ICMP flow carries instead of ports.
        """
        if packets_out is None:
            packets_out = max(1, bytes_out // 1400) if bytes_out else 0
        if packets_in is None:
            packets_in = max(1, bytes_in // 1400) if bytes_in else 0
        icmp_type, icmp_code, icmp_id = icmp or (0, 0, 0)
        self._rows.append((
            protocol.value, src, dst, sport, dport, icmp is not None,
            icmp_type, icmp_code, icmp_id, start, end,
            bytes_out, bytes_in, packets_out, packets_in,
        ))

    def build(self, config: RouterConfig) -> FlowMonitor:
        """The monitor these rows make: a still-packed log, its frame cached."""
        n = len(self._rows)
        (protocol, src, dst, sport, dport, has_icmp, icmp_type, icmp_code,
         icmp_id, start, end, bytes_out, bytes_in, packets_out, packets_in,
         ) = zip(*self._rows) if n else ((),) * 15

        # Intern addresses; classify each distinct one once.
        address_ids: dict[IpAddress, int] = {}
        src_id = np.fromiter(
            (address_ids.setdefault(a, len(address_ids)) for a in src), np.int64, n
        )
        dst_id = np.fromiter(
            (address_ids.setdefault(a, len(address_ids)) for a in dst), np.int64, n
        )
        addresses = list(address_ids)
        values = [a.value for a in addresses]
        addr_family = np.array([a.family.value for a in addresses], dtype=np.uint8)
        addr_hi = np.array([v >> 64 for v in values], dtype=np.uint64)
        addr_lo = np.array([v & _U64 for v in values], dtype=np.uint64)
        addr_local = np.array([config.is_local(a) for a in addresses], dtype=bool)

        columns = {
            "protocol": np.array(protocol, dtype=np.int64),
            "sport": np.array(sport, dtype=np.int64),
            "dport": np.array(dport, dtype=np.int64),
            "has_icmp": np.array(has_icmp, dtype=bool),
            "icmp_type": np.array(icmp_type, dtype=np.int64),
            "icmp_code": np.array(icmp_code, dtype=np.int64),
            "icmp_id": np.array(icmp_id, dtype=np.int64),
            "start": np.array(start, dtype=np.float64),
            "end": np.array(end, dtype=np.float64),
            "bytes_out": np.array(bytes_out, dtype=np.int64),
            "bytes_in": np.array(bytes_in, dtype=np.int64),
            "packets_out": np.array(packets_out, dtype=np.int64),
            "packets_in": np.array(packets_in, dtype=np.int64),
        }
        family = addr_family[src_id]
        _check_rows(columns, family, addr_family[dst_id])

        # FlowMonitor.classify, per row.
        src_local = addr_local[src_id]
        dst_local = addr_local[dst_id]
        scope = np.full(n, _SCOPE_CODE[FlowScope.TRANSIT], dtype=np.int8)
        scope[src_local | dst_local] = _SCOPE_CODE[FlowScope.EXTERNAL]
        scope[src_local & dst_local] = _SCOPE_CODE[FlowScope.INTERNAL]
        day = (columns["start"] // DAY).astype(np.int64)
        order, seg_day, seg_scope, seg_count = _segments(day, scope)

        has = columns["has_icmp"][order]
        packed = {
            "seg_day": seg_day,
            "seg_scope": seg_scope,
            "seg_count": seg_count,
            "protocol": columns["protocol"][order].astype(np.uint8),
            "family": family[order],
            "src_hi": addr_hi[src_id][order],
            "src_lo": addr_lo[src_id][order],
            "dst_hi": addr_hi[dst_id][order],
            "dst_lo": addr_lo[dst_id][order],
            "sport": columns["sport"][order].astype(np.uint16),
            "dport": columns["dport"][order].astype(np.uint16),
            "icmp_type": np.where(has, columns["icmp_type"][order], -1).astype(np.int16),
            "icmp_code": np.where(has, columns["icmp_code"][order], 0).astype(np.uint8),
            "icmp_id": np.where(has, columns["icmp_id"][order], 0).astype(np.uint16),
        }
        for name in (
            "start", "end", "bytes_out", "bytes_in", "packets_out", "packets_in"
        ):
            packed[name] = columns[name][order]
        return restore_monitor(
            config, packed, n, n, FlowFrame.from_packed(packed, config)
        )


def _check_rows(
    columns: dict[str, np.ndarray], src_family: np.ndarray, dst_family: np.ndarray
) -> None:
    """The per-object validation of the record path, over whole columns."""
    if np.any(src_family != dst_family):
        raise ValueError("flow endpoints must share an address family")
    is_icmp = columns["protocol"] == Protocol.ICMP.value
    has_icmp = columns["has_icmp"]
    icmp_type = columns["icmp_type"][has_icmp]
    icmp_code = columns["icmp_code"][has_icmp]
    if np.any((icmp_type < 0) | (icmp_type > 255) | (icmp_code < 0) | (icmp_code > 255)):
        raise ValueError("ICMP type and code must fit in one byte")
    icmp_id = columns["icmp_id"][has_icmp]
    if np.any((icmp_id < 0) | (icmp_id > 0xFFFF)):
        raise ValueError("ICMP id must fit in two bytes")
    if np.any(is_icmp & ~has_icmp):
        raise ValueError("ICMP flows must carry IcmpInfo")
    ports = np.stack([columns["sport"], columns["dport"]], axis=1)
    if np.any(is_icmp & (ports != 0).any(axis=1)):
        raise ValueError("ICMP flows have no ports")
    if np.any(~is_icmp & has_icmp):
        raise ValueError("only ICMP flows carry IcmpInfo")
    bad = ports[~is_icmp]
    bad = bad[(bad < 0) | (bad > 0xFFFF)]
    if bad.size:
        raise ValueError(f"port {int(bad[0])} out of range")
    start, end = columns["start"], columns["end"]
    if np.any(end < start):
        raise ValueError("flow cannot end before it starts")
    for name in ("bytes_out", "bytes_in", "packets_out", "packets_in"):
        if np.any(columns[name] < 0):
            raise ValueError("counters cannot be negative")
    if np.any(start < 0):
        raise ValueError("timestamps before the sim epoch are not allowed")


def _segments(
    day: np.ndarray, scope: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group rows into ``{day: {scope: [...]}}`` insertion-order segments.

    Days come in order of first appearance, and within a day its scopes
    in order of first appearance; rows keep their order inside each
    segment.  Returns the row permutation and the segment table.
    """
    if not day.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.int8), empty
    n_scopes = len(_SCOPES)
    pairs, pair_first, pair_of_row = np.unique(
        day * n_scopes + scope, return_index=True, return_inverse=True
    )
    days, day_first = np.unique(day, return_index=True)
    pair_day_first = day_first[np.searchsorted(days, pairs // n_scopes)]
    seg_order = np.lexsort((pair_first, pair_day_first))
    seg_rank = np.empty(seg_order.size, dtype=np.int64)
    seg_rank[seg_order] = np.arange(seg_order.size)
    row_segment = seg_rank[pair_of_row]
    order = np.argsort(row_segment, kind="stable")
    segment_pairs = pairs[seg_order]
    return (
        order,
        segment_pairs // n_scopes,
        (segment_pairs % n_scopes).astype(np.int8),
        np.bincount(row_segment, minlength=seg_order.size).astype(np.int64),
    )
