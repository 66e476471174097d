"""PackedLogBuilder: generated flows written straight to packed columns.

The builder must emit exactly what the record path would -- a conntrack
table feeding an attached monitor, lowered by ``pack_daily_logs`` --
and refuse every row the record path's constructors would refuse.
"""

import numpy as np
import pytest

from repro.flowmon.conntrack import ConntrackTable, FlowKey, IcmpInfo, Protocol
from repro.flowmon.frame import FlowFrame
from repro.flowmon.monitor import FlowMonitor, RouterConfig
from repro.flowmon.pack import PackedLogBuilder, is_still_packed, pack_daily_logs
from repro.net.addr import IpAddress, Prefix
from repro.util.timeutil import DAY

CONFIG = RouterConfig(
    name="T",
    lan_v4=Prefix.parse("192.168.1.0/24"),
    lan_v6=Prefix.parse("2001:db8:77::/64"),
)
LAN4 = IpAddress.parse("192.168.1.10")
LAN4_B = IpAddress.parse("192.168.1.11")
LAN6 = IpAddress.parse("2001:db8:77::10")
WAN4 = IpAddress.parse("198.51.100.7")
WAN4_B = IpAddress.parse("203.0.113.9")
WAN6 = IpAddress.parse("2001:db8:ffff::1")

#: (protocol, src, dst, sport, dport, start, end, bytes_out, bytes_in,
#:  explicit packets or None, icmp or None) -- days and scopes arrive
#: interleaved, a later day before an earlier one, and one transit flow.
ROWS = [
    (Protocol.TCP, LAN4, WAN4, 20001, 443, 2 * DAY + 5, 2 * DAY + 9, 900, 40_000, None, None),
    (Protocol.UDP, LAN6, WAN6, 20002, 443, 10.0, 12.5, 0, 1399, None, None),
    (Protocol.TCP, LAN4, LAN4_B, 20003, 445, 11.0, 300.0, 75_000, 75_000, None, None),
    (Protocol.ICMP, LAN6, WAN6, 0, 0, 12.0, 15.0, 192, 192, (3, 3), (8, 0, 77)),
    (Protocol.TCP, WAN4_B, WAN4, 20004, 80, 13.0, 14.0, 10, 10, None, None),
    (Protocol.TCP, WAN4, LAN4, 443, 20005, DAY + 1, DAY + 2, 1400, 2801, None, None),
    (Protocol.TCP, LAN4, WAN4_B, 20006, 443, 20.0, 20.0, 5, 7, None, None),
    (Protocol.UDP, LAN4_B, LAN4, 20007, 445, 2 * DAY + 1, 2 * DAY + 3, 1, 0, None, None),
]


def built(rows=ROWS) -> FlowMonitor:
    builder = PackedLogBuilder()
    for protocol, src, dst, sport, dport, start, end, out, inb, packets, icmp in rows:
        builder.append(
            protocol, src, dst, sport, dport,
            start=start, end=end, bytes_out=out, bytes_in=inb,
            packets_out=packets[0] if packets else None,
            packets_in=packets[1] if packets else None,
            icmp=icmp,
        )
    return builder.build(CONFIG)


def recorded(rows=ROWS) -> FlowMonitor:
    table = ConntrackTable()
    monitor = FlowMonitor(CONFIG)
    monitor.attach(table)
    for protocol, src, dst, sport, dport, start, end, out, inb, packets, icmp in rows:
        key = FlowKey(
            protocol, src, dst, sport, dport, icmp=IcmpInfo(*icmp) if icmp else None
        )
        table.observe_flow(
            key, start, end, out, inb,
            packets_out=packets[0] if packets else None,
            packets_in=packets[1] if packets else None,
        )
    return monitor


class TestBuilderMatchesTheRecordPath:
    def test_columns_and_segments_are_identical(self):
        got = pack_daily_logs(built().daily_logs)
        want = pack_daily_logs(recorded().daily_logs)
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_records_frame_and_counters_are_identical(self):
        monitor, reference = built(), recorded()
        assert is_still_packed(monitor)
        assert monitor.records_seen == monitor.version == len(ROWS)
        assert monitor.frame().data.tobytes() == reference.frame().data.tobytes()
        assert monitor.frame().peers == reference.frame().peers
        assert is_still_packed(monitor)  # the frame came from the columns
        assert monitor.daily_logs == reference.daily_logs
        assert list(monitor.daily_logs) == list(reference.daily_logs)

    def test_from_packed_is_the_from_monitor_path(self):
        reference = recorded()
        frame = FlowFrame.from_packed(pack_daily_logs(reference.daily_logs), CONFIG)
        assert frame.data.tobytes() == FlowFrame.from_monitor(reference).data.tobytes()

    def test_empty_builder_matches_an_empty_log(self):
        got = pack_daily_logs(PackedLogBuilder().build(CONFIG).daily_logs)
        want = pack_daily_logs({})
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].size == 0
        assert len(FlowFrame.from_packed(got, CONFIG)) == 0


def _row(**changes):
    row = dict(
        protocol=Protocol.TCP, src=LAN4, dst=WAN4, sport=20001, dport=443,
        start=10.0, end=20.0, bytes_out=1, bytes_in=1,
        packets_out=None, packets_in=None, icmp=None,
    )
    row.update(changes)
    return row


class TestBuilderRejectsWhatTheRecordPathRejects:
    @pytest.mark.parametrize(
        ("changes", "message"),
        [
            ({"end": 9.0}, "flow cannot end before it starts"),
            ({"dport": 70000}, "port 70000 out of range"),
            ({"sport": -1}, "port -1 out of range"),
            ({"dst": WAN6}, "must share an address family"),
            ({"protocol": Protocol.ICMP, "sport": 0, "dport": 0}, "must carry IcmpInfo"),
            ({"protocol": Protocol.ICMP, "icmp": (8, 0, 1)}, "ICMP flows have no ports"),
            ({"icmp": (8, 0, 1)}, "only ICMP flows carry IcmpInfo"),
            (
                {"protocol": Protocol.ICMP, "sport": 0, "dport": 0, "icmp": (256, 0, 1)},
                "fit in one byte",
            ),
            (
                {"protocol": Protocol.ICMP, "sport": 0, "dport": 0, "icmp": (8, 0, 1 << 16)},
                "fit in two bytes",
            ),
            ({"bytes_in": -5}, "counters cannot be negative"),
            ({"packets_out": -1}, "counters cannot be negative"),
            ({"start": -1.0, "end": 1.0}, "before the sim epoch"),
        ],
    )
    def test_bad_row_raises(self, changes, message):
        builder = PackedLogBuilder()
        builder.append(**_row())
        builder.append(**_row(**changes))
        with pytest.raises(ValueError, match=message):
            builder.build(CONFIG)
