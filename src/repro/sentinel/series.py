"""Signal extraction: the adoption time series the sentinel watches.

Each extractor reduces an existing universe (the observatory's
:class:`~repro.observatory.frame.ProbeFrame`, the residences'
:class:`~repro.flowmon.frame.FlowFrame`\\ s) to one
:class:`SignalSeries` -- a dense ``(points, scopes)`` float matrix with
a day index per row.  All reductions are vectorized ``bincount`` /
``group_sums`` group-bys (REP006 discipline: the only Python loops run
over residences and signals, never records).

The five signals mirror the paper's non-binary adoption facets:

* ``availability`` -- per-(round, country) share of probes that
  completed an IPv6 fetch.
* ``takeoff`` -- round-over-round change of that availability share.
* ``readiness`` -- per-round fleet-wide share of probes whose target
  published an AAAA record (DNS readiness, regardless of reachability).
* ``usage`` -- per-day external IPv6 byte fraction across residences.
* ``heavy_hitters`` -- per-day byte share of the single dominant origin
  AS among attributed external traffic (mix concentration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.flowmon.frame import day_sums, group_sums
from repro.flowmon.monitor import FlowScope
from repro.sentinel.config import GLOBAL_SCOPE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Study
    from repro.datasets.scenarios import ResidenceStudy
    from repro.observatory.rounds import ObservatoryStudy

#: Bits reserved for the AS number in ``(day << bits) | asn`` packed
#: group-by keys; matches the attribution packing in ``repro.core.client``.
_ASN_BITS = 32


@dataclass(frozen=True)
class SignalSeries:
    """One signal's dense time series.

    Attributes:
        signal: signal name (one of ``repro.sentinel.config.SIGNALS``).
        days: day index per row of ``values``, ascending.
        scopes: column naming -- country codes, or ``("*",)`` for
            fleet-wide signals.
        values: ``(len(days), len(scopes))`` float matrix.
    """

    signal: str
    days: tuple[int, ...]
    scopes: tuple[str, ...]
    values: np.ndarray


def _availability_matrix(obs: "ObservatoryStudy") -> np.ndarray:
    """Per-(round, country) available-probe share, ``(rounds, countries)``."""
    frame = obs.frame
    rounds = obs.num_rounds
    n = len(obs.countries)
    key = frame.round.astype(np.int64) * n + frame.country
    minlength = rounds * n
    probes = np.bincount(key, minlength=minlength).reshape(rounds, n)
    available = np.bincount(key[frame.available], minlength=minlength).reshape(
        rounds, n
    )
    return np.where(probes > 0, available / np.maximum(probes, 1), 0.0)


def availability_signal(obs: "ObservatoryStudy") -> SignalSeries:
    """Per-country availability share, one row per probe round."""
    return SignalSeries(
        signal="availability",
        days=tuple(obs.config.round_days),
        scopes=tuple(obs.countries),
        values=_availability_matrix(obs),
    )


def takeoff_signal(obs: "ObservatoryStudy") -> SignalSeries:
    """Round-over-round availability delta per country."""
    matrix = _availability_matrix(obs)
    return SignalSeries(
        signal="takeoff",
        days=tuple(obs.config.round_days[1:]),
        scopes=tuple(obs.countries),
        values=np.diff(matrix, axis=0),
    )


def readiness_signal(obs: "ObservatoryStudy") -> SignalSeries:
    """Fleet-wide AAAA-published share, one row per probe round."""
    frame = obs.frame
    rounds = obs.num_rounds
    key = frame.round.astype(np.int64)
    probes = np.bincount(key, minlength=rounds)
    aaaa = np.bincount(key[frame.aaaa], minlength=rounds)
    share = np.where(probes > 0, aaaa / np.maximum(probes, 1), 0.0)
    return SignalSeries(
        signal="readiness",
        days=tuple(obs.config.round_days),
        scopes=(GLOBAL_SCOPE,),
        values=share.reshape(-1, 1),
    )


def _external_frames(traffic: "ResidenceStudy") -> tuple[list, int]:
    """Per-residence external frames plus the day horizon they cover.

    The horizon is data-driven (a flow may land on the boundary day),
    floored at the study's nominal day count.
    """
    frames = [
        dataset.frame().select(scope=FlowScope.EXTERNAL)
        for dataset in traffic.datasets.values()
    ]
    horizon = traffic.num_days
    for frame in frames:
        if frame.day.size:
            horizon = max(horizon, int(frame.day.max()) + 1)
    return frames, horizon


def usage_signal(traffic: "ResidenceStudy") -> SignalSeries:
    """Per-day external IPv6 byte fraction, summed across residences."""
    frames, horizon = _external_frames(traffic)
    total = np.zeros(horizon, dtype=np.int64)
    v6 = np.zeros(horizon, dtype=np.int64)
    for frame in frames:
        volume = frame.total_bytes
        sums = day_sums(
            frame.day, [volume, volume * frame.is_v6], minlength=horizon
        )
        total += sums[0]
        v6 += sums[1]
    present = total > 0
    days = np.nonzero(present)[0]
    values = (v6[present] / np.maximum(total[present], 1)).reshape(-1, 1)
    return SignalSeries(
        signal="usage",
        days=tuple(int(d) for d in days),
        scopes=(GLOBAL_SCOPE,),
        values=values,
    )


def heavy_hitter_signal(traffic: "ResidenceStudy") -> SignalSeries:
    """Per-day dominant-AS byte share of attributed external traffic."""
    frames, horizon = _external_frames(traffic)
    packed_parts: list[np.ndarray] = []
    volume_parts: list[np.ndarray] = []
    for frame in frames:
        asn = frame.flow_asn
        attributed = asn >= 0
        day = frame.day[attributed].astype(np.int64)
        packed_parts.append((day << _ASN_BITS) | asn[attributed])
        volume_parts.append(frame.total_bytes[attributed])
    packed = (
        np.concatenate(packed_parts)
        if packed_parts
        else np.zeros(0, dtype=np.int64)
    )
    volume = (
        np.concatenate(volume_parts)
        if volume_parts
        else np.zeros(0, dtype=np.int64)
    )
    keys, _, (as_bytes,) = group_sums(packed, [volume])
    day_of_group = (keys >> _ASN_BITS).astype(np.int64)
    totals = np.zeros(horizon, dtype=np.int64)
    dominant = np.zeros(horizon, dtype=np.int64)
    if day_of_group.size:
        np.add.at(totals, day_of_group, as_bytes)
        np.maximum.at(dominant, day_of_group, as_bytes)
    present = totals > 0
    days = np.nonzero(present)[0]
    values = (dominant[present] / np.maximum(totals[present], 1)).reshape(-1, 1)
    return SignalSeries(
        signal="heavy_hitters",
        days=tuple(int(d) for d in days),
        scopes=(GLOBAL_SCOPE,),
        values=values,
    )


def traffic_signal_series(
    traffic: "ResidenceStudy",
) -> tuple[SignalSeries, SignalSeries]:
    """The two traffic-derived signals, ``(heavy_hitters, usage)``.

    The only part of a scan that reads the traffic study: a whatif
    sweep computes it once for the baseline and hands it to every
    overlay that leaves traffic alone.
    """
    return heavy_hitter_signal(traffic), usage_signal(traffic)


def build_signal_series(study: "Study") -> tuple[SignalSeries, ...]:
    """All five signals for one study, in :data:`SIGNALS` feed order."""
    obs = study.observatory
    heavy_hitters, usage = study._traffic_signal_series()
    return (
        availability_signal(obs),
        heavy_hitters,
        readiness_signal(obs),
        takeoff_signal(obs),
        usage,
    )
