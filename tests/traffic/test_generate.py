"""Tests for the traffic generator: the paper's causal structure must emerge."""

import hashlib
import pickle

import pytest

from repro.flowmon.conntrack import ConntrackTable, Protocol
from repro.flowmon.frame import FlowFrame
from repro.flowmon.monitor import FlowMonitor, FlowScope
from repro.flowmon.pack import is_still_packed, pack_daily_logs
from repro.traffic.apps import build_service_catalog, catalog_by_name
from repro.traffic.generate import ResidenceDataset, TrafficGenerator
from repro.traffic.residences import build_paper_residences, residences_by_name
from repro.traffic.universe import ServiceUniverse
from repro.util.timeutil import day_index


@pytest.fixture(scope="module")
def universe() -> ServiceUniverse:
    return ServiceUniverse(build_service_catalog())


@pytest.fixture(scope="module")
def dataset_a(universe) -> ResidenceDataset:
    profile = residences_by_name()["A"]
    return TrafficGenerator(universe, seed=7).generate(profile, num_days=14)


@pytest.fixture(scope="module")
def dataset_c(universe) -> ResidenceDataset:
    profile = residences_by_name()["C"]
    return TrafficGenerator(universe, seed=7).generate(profile, num_days=14)


def byte_fraction_v6(records) -> float:
    total = sum(r.total_bytes for r in records)
    v6 = sum(r.total_bytes for r in records if r.key.is_v6)
    return v6 / total if total else 0.0


class TestGeneratorBasics:
    def test_invalid_days(self, universe):
        profile = residences_by_name()["A"]
        with pytest.raises(ValueError):
            TrafficGenerator(universe).generate(profile, num_days=0)

    def test_deterministic(self, universe):
        profile = residences_by_name()["E"]
        d1 = TrafficGenerator(universe, seed=3).generate(profile, num_days=3)
        d2 = TrafficGenerator(universe, seed=3).generate(profile, num_days=3)
        r1 = [(r.start_time, r.total_bytes) for r in d1.external_records()]
        r2 = [(r.start_time, r.total_bytes) for r in d2.external_records()]
        assert r1 == r2

    def test_seed_changes_traffic(self, universe):
        profile = residences_by_name()["E"]
        d1 = TrafficGenerator(universe, seed=3).generate(profile, num_days=3)
        d2 = TrafficGenerator(universe, seed=4).generate(profile, num_days=3)
        assert len(d1.external_records()) != len(d2.external_records()) or (
            byte_fraction_v6(d1.external_records())
            != byte_fraction_v6(d2.external_records())
        )

    def test_all_days_covered(self, dataset_a):
        days = {day_index(r.start_time) for r in dataset_a.external_records()}
        assert days.issuperset(set(range(13)))  # last day may spill over

    def test_internal_and_external_present(self, dataset_a):
        assert dataset_a.external_records()
        assert dataset_a.internal_records()

    def test_flows_attributable_to_ases(self, dataset_a):
        """Every external peer must resolve through the BGP table."""
        monitor = dataset_a.monitor
        routing = dataset_a.universe.routing
        for record in dataset_a.external_records()[:500]:
            peer = monitor.external_peer(record)
            assert peer is not None
            assert routing.origin_of(peer) is not None


class TestEmergentProtocolChoice:
    def test_dual_stack_residence_mostly_v6_to_v6_services(self, dataset_a):
        """Flows to a fully-IPv6 service from capable devices ride IPv6."""
        by_name = catalog_by_name(dataset_a.universe.catalog)
        google = by_name["Google"]
        routing = dataset_a.universe.routing
        monitor = dataset_a.monitor
        google_records = [
            r
            for r in dataset_a.external_records()
            if routing.origin_of(monitor.external_peer(r)) == google.asn
        ]
        assert google_records
        v6 = sum(1 for r in google_records if r.key.is_v6)
        assert v6 / len(google_records) > 0.6

    def test_ipv4_only_service_never_v6(self, dataset_a):
        by_name = catalog_by_name(dataset_a.universe.catalog)
        laggard_asns = {by_name[n].asn for n in ("Zoom", "Twitch", "GitHub", "USC Campus")}
        routing = dataset_a.universe.routing
        monitor = dataset_a.monitor
        for record in dataset_a.external_records():
            peer = monitor.external_peer(record)
            if routing.origin_of(peer) in laggard_asns:
                assert not record.key.is_v6

    def test_broken_devices_depress_v6(self, dataset_a, dataset_c):
        """Residence C (broken CPE) shows far less IPv6 than A."""
        frac_a = byte_fraction_v6(dataset_a.external_records())
        frac_c = byte_fraction_v6(dataset_c.external_records())
        assert frac_a > 0.45
        assert frac_c < 0.30
        assert frac_a > frac_c + 0.2

    def test_happy_eyeballs_inflates_v4_flows(self, dataset_a):
        """Byte fraction exceeds flow fraction at the v6-heavy residence
        (section 3.2: extra IPv4 SYNs make flows overstate IPv4)."""
        records = dataset_a.external_records()
        bytes_frac = byte_fraction_v6(records)
        flow_frac = sum(1 for r in records if r.key.is_v6) / len(records)
        assert bytes_frac > flow_frac

    def test_vacation_gap_visible(self, universe):
        """Residence A's spring break produces near-zero human traffic."""
        profile = residences_by_name()["A"]
        dataset = TrafficGenerator(universe, seed=5).generate(profile, num_days=140)
        on_break = [
            r
            for r in dataset.external_records()
            if 135 <= day_index(r.start_time) <= 138
        ]
        before_break = [
            r
            for r in dataset.external_records()
            if 128 <= day_index(r.start_time) <= 131
        ]
        assert len(on_break) < len(before_break) / 3
        # What remains during the break is background -> IPv4-leaning.
        assert byte_fraction_v6(on_break) < byte_fraction_v6(before_break)


class TestInternalTraffic:
    def test_internal_stays_on_lan(self, dataset_a):
        config = dataset_a.monitor.config
        for record in dataset_a.internal_records():
            assert config.is_local(record.key.src)
            assert config.is_local(record.key.dst)

    def test_d_internal_exceeds_external_flows(self, universe):
        """Residence D: NAS syncs dominate; internal flows > external."""
        profile = residences_by_name()["D"]
        dataset = TrafficGenerator(universe, seed=7).generate(profile, num_days=14)
        assert len(dataset.internal_records()) > len(dataset.external_records())

    def test_d_internal_is_v6_heavy(self, universe):
        profile = residences_by_name()["D"]
        dataset = TrafficGenerator(universe, seed=7).generate(profile, num_days=14)
        internal = dataset.internal_records()
        v6 = sum(1 for r in internal if r.key.is_v6)
        assert v6 / len(internal) > 0.8

    def test_no_transit_flows(self, dataset_a):
        assert not dataset_a.monitor.records(scope=FlowScope.TRANSIT)


class TestIcmp:
    def test_icmp_probes_present_over_long_run(self, universe):
        profile = residences_by_name()["A"]
        dataset = TrafficGenerator(universe, seed=11).generate(profile, num_days=10)
        from repro.flowmon.conntrack import Protocol

        icmp = [
            r
            for r in dataset.monitor.records()
            if r.key.protocol is Protocol.ICMP
        ]
        assert icmp, "expected at least one ICMP probe in 10 days"
        assert all(r.key.icmp is not None for r in icmp)


# -- the generation path, pinned ---------------------------------------------

PIN_SEED = 99
PIN_DAYS = 10
_SEGMENT_KEYS = ("seg_day", "seg_scope", "seg_count")

#: SHA-256 fingerprints of every residence at seed 99 x 10 days, recorded
#: when flows still went through ``FlowKey`` -> ``ConntrackTable`` ->
#: ``FlowMonitor``: the packed columns, the segment table (the daily
#: log's day/scope insertion structure), the frame bytes and the
#: interned peers.
PINNED_FINGERPRINTS = {
    "A": {
        "columns": "396eb8221e755808870f135eca03874298906e4649034746ff4a7dd48d708e73",
        "segments": "1313d54803bc8bf7f7d75527656472d42bb34074763b8f8e0e11531b40220d41",
        "frame": "15ac2071ce71a3383e5d63cf8719ca1b4d9aba586408800e16b2a9c5b7b4bc87",
        "peers": "5073a497629898db4f3304785a712caeb961ccedb14dc1b5961324d5d65436f6",
        "records_seen": 18585,
        "version": 18585,
    },
    "B": {
        "columns": "472ddfd37df418d2dea31406a810c3c913b8d13e22c1cbb96dd44d30f299086d",
        "segments": "f8877c3451dd38c7a199cf4942cf80421d86fd77954491a70d0fe4d222fb579f",
        "frame": "5be10d928274772f52179909d7bf4a8c6864ae09a4a23305f32ff34830f80fb3",
        "peers": "e864c9972d46efd8fb469044f6bc47ebeb06fa2d6586c72de2525b15840c3fd2",
        "records_seen": 14357,
        "version": 14357,
    },
    "C": {
        "columns": "7f096a8c36278e6af7f14f16acaf6744362d588e97693b81d81fef3813cdcfe7",
        "segments": "8eeb2a64333d365cab0936363f4ccea7d1362a818dca1c9b387d028815fddeec",
        "frame": "dec88050696a3f7e3a49756506a2b5de04fd4bf7f5fdd1198152c6be8af9769d",
        "peers": "9c581ada4fbcaa0744c75a7b878c419a4382431e8cfa3476c25586785bd6df8e",
        "records_seen": 11510,
        "version": 11510,
    },
    "D": {
        "columns": "e302d8c92b65767f92a62ae83e201e66d81e6da4f4741d5656190930455f55ee",
        "segments": "b8c6de19db3b8a2cf8db1c8e186100645a7aef4cd14a640fb5bc8bca5991899b",
        "frame": "334ea6dd8dbbd976c4bc3febd8efffba802120cf0e0dc31164afc27c1566b869",
        "peers": "eb96d361f6327fd0fb741aca0fb47a89ec44f6659160ad7326e0390b203f6eac",
        "records_seen": 4087,
        "version": 4087,
    },
    "E": {
        "columns": "0235c2d437452417714495b369968997535ad3ddd9b46548bcbfe8b3e0213337",
        "segments": "a0d63ba4f0595b15a9bcf3ef91fc176dbd96c8b17ad1ddaa25d60980909db0f2",
        "frame": "1a6b9a15370095784b93261c9db8ab5267dfd2bd98f1ffd6dab4ec97943fdb23",
        "peers": "d126d30a14a8861e3a3391a132969d8df56c3d1b2992378f3bb95fef29f99bac",
        "records_seen": 2394,
        "version": 2394,
    },
}


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def fingerprint(monitor: FlowMonitor) -> dict:
    packed = pack_daily_logs(monitor.daily_logs)
    frame = monitor.frame()
    return {
        "columns": _sha256(
            *(packed[k].tobytes() for k in sorted(packed) if k not in _SEGMENT_KEYS)
        ),
        "segments": _sha256(*(packed[k].tobytes() for k in _SEGMENT_KEYS)),
        "frame": _sha256(frame.data.tobytes()),
        "peers": _sha256("\n".join(str(p) for p in frame.peers).encode()),
        "records_seen": monitor.records_seen,
        "version": monitor.version,
    }


def replay(monitor: FlowMonitor) -> FlowMonitor:
    """Feed every logged record, in ``daily_logs`` order, through a fresh
    conntrack table into an attached monitor: the measurement path."""
    table = ConntrackTable()
    replayed = FlowMonitor(monitor.config)
    replayed.attach(table)
    for per_scope in monitor.daily_logs.values():
        for records in per_scope.values():
            for record in records:
                icmp = record.key.protocol is Protocol.ICMP
                table.observe_flow(
                    record.key,
                    start_time=record.start_time,
                    end_time=record.end_time,
                    bytes_out=record.bytes_out,
                    bytes_in=record.bytes_in,
                    # conntrack estimates packets for everything but the
                    # ICMP probes, whose counts are explicit
                    packets_out=record.packets_out if icmp else None,
                    packets_in=record.packets_in if icmp else None,
                )
    return replayed


@pytest.fixture(scope="module")
def pinned(universe):
    return TrafficGenerator(universe, seed=PIN_SEED).generate_all(
        build_paper_residences(), num_days=PIN_DAYS, parallel=False
    )


class TestGenerationPathPinned:
    def test_fingerprints_match_the_record_path(self, pinned):
        assert list(pinned) == list(PINNED_FINGERPRINTS)
        for name, dataset in pinned.items():
            assert fingerprint(dataset.monitor) == PINNED_FINGERPRINTS[name], name

    def test_replay_through_conntrack_reproduces_the_columns(self, pinned):
        for name, dataset in pinned.items():
            generated = pack_daily_logs(dataset.monitor.daily_logs)
            frame = dataset.monitor.frame()
            replayed = replay(dataset.monitor)
            assert replayed.records_seen == dataset.monitor.records_seen, name
            packed = pack_daily_logs(replayed.daily_logs)
            assert list(packed) == list(generated)
            for column in packed:
                assert packed[column].dtype == generated[column].dtype, column
                assert packed[column].tobytes() == generated[column].tobytes(), (
                    name,
                    column,
                )
            rebuilt = FlowFrame.from_monitor(replayed)
            assert rebuilt.data.tobytes() == frame.data.tobytes(), name
            assert rebuilt.peers == frame.peers, name

    def test_generated_monitor_is_packed_and_pickles_packed(self, universe):
        profile = residences_by_name()["B"]
        monitor = TrafficGenerator(universe, seed=3).generate(profile, 2).monitor
        assert is_still_packed(monitor)
        assert monitor.records_seen == monitor.version > 0
        frame = monitor.frame()
        clone = pickle.loads(pickle.dumps(monitor))
        assert is_still_packed(clone)
        assert is_still_packed(monitor)  # pickling did not unpack either
        assert clone.records_seen == monitor.records_seen
        assert clone.version == monitor.version
        assert clone.frame().data.tobytes() == frame.data.tobytes()
        assert clone.records() == monitor.records()
