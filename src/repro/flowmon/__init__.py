"""The router flow monitor: conntrack events, daily logs, anonymized export.

This is the measurement apparatus of the paper's section 3.1: a lightweight
monitor on the home router that records flow beginnings and ends from
connection-tracking events (conntrack NEW and DESTROY), with per-direction
byte accounting (``nf_conntrack_acct``), identifies flows by their 5-tuple
(plus ICMP type/code/id), logs them daily, and uploads CryptoPAN-anonymized
records to the collection server.

Three representations of the same log coexist: the record-oriented
daily lists the monitor appends to (the measurement path), the packed
columns of :mod:`repro.flowmon.pack` (what synthesized traffic is
written to, what pickles and the warehouse carry), and the columnar
:class:`~repro.flowmon.frame.FlowFrame` -- a NumPy structured array (day,
scope, family, protocol, bytes in/out, packets, duration, interned peer /
AS / domain ids) built once per monitor via :meth:`FlowMonitor.frame` and
consumed by the vectorized analysis layer.  The frame's rows follow the
canonical ``records()`` order, so record-loop and columnar analyses agree
bit-for-bit.
"""

from repro.flowmon.conntrack import (
    ConntrackEvent,
    ConntrackEventType,
    ConntrackTable,
    FlowKey,
    FlowRecord,
    IcmpInfo,
    Protocol,
)
from repro.flowmon.export import AnonymizedRecord, FlowExporter
from repro.flowmon.frame import FLOW_DTYPE, FlowFrame
from repro.flowmon.monitor import FlowMonitor, FlowScope, RouterConfig

__all__ = [
    "ConntrackEvent",
    "ConntrackEventType",
    "ConntrackTable",
    "FLOW_DTYPE",
    "FlowFrame",
    "FlowKey",
    "FlowRecord",
    "IcmpInfo",
    "Protocol",
    "AnonymizedRecord",
    "FlowExporter",
    "FlowMonitor",
    "FlowScope",
    "RouterConfig",
]
