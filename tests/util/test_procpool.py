"""The process-pool fallback contract: degrade loudly, but only once.

Traffic generation, observatory probe rounds, and whatif sweeps all fan
out through :func:`repro.util.procpool.map_in_pool`; on a host that
cannot run a process pool each of them degrades to its sequential path.
These tests pin the deduplication: exactly **one** ``RuntimeWarning``
per process no matter how many subsystems fall back, with every
fallback still recorded in :func:`fallback_contexts`.
"""

import warnings

import pytest

from repro.util.procpool import (
    fallback_contexts,
    map_in_pool,
    reset_pool_fallback_warnings,
    resolve_worker_count,
    warn_pool_fallback,
)


@pytest.fixture(autouse=True)
def _fresh_process_state():
    reset_pool_fallback_warnings()
    yield
    reset_pool_fallback_warnings()


_INIT_STATE: dict = {}


def _square(task):  # top-level: must pickle into real worker processes
    return task * task


def _remember(value):
    _INIT_STATE["value"] = value


def _offset(task):
    return _INIT_STATE["value"] + task


class TestOneWarningPerProcess:
    def test_exactly_one_warning_across_subsystem_contexts(self):
        """The satellite contract: traffic + observatory + whatif sweep
        fallbacks in one process emit exactly one warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warn_pool_fallback("traffic generation", "sandbox denies fork")
            warn_pool_fallback("observatory probe rounds", "sandbox denies fork")
            warn_pool_fallback("whatif sweep", "sandbox denies fork")
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        message = str(runtime[0].message)
        assert "traffic generation" in message  # the first context names itself
        assert "once per process" in message

    def test_every_fallback_context_is_still_recorded(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warn_pool_fallback("traffic generation", "no fork")
            warn_pool_fallback("observatory probe rounds", "no fork")
            warn_pool_fallback("observatory probe rounds", "again")
            warn_pool_fallback("whatif sweep", "no fork")
        assert fallback_contexts() == (
            "traffic generation",
            "observatory probe rounds",
            "whatif sweep",
        )

    def test_reset_restores_the_warning(self):
        with pytest.warns(RuntimeWarning):
            warn_pool_fallback("ctx-a", "reason")
        reset_pool_fallback_warnings()
        assert fallback_contexts() == ()
        with pytest.warns(RuntimeWarning):
            warn_pool_fallback("ctx-b", "reason")

    def test_map_in_pool_broken_pool_warns_once_across_contexts(self, monkeypatch):
        """The real entry point: two different fan-outs, one warning."""
        from concurrent.futures.process import BrokenProcessPool

        import repro.util.procpool as procpool_module

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise BrokenProcessPool("no pool in this sandbox")

        monkeypatch.setattr(procpool_module, "ProcessPoolExecutor", ExplodingPool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert map_in_pool(abs, [1, 2], 2, "traffic generation") is None
            assert map_in_pool(abs, [1, 2], 2, "observatory probe rounds") is None
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert fallback_contexts() == (
            "traffic generation",
            "observatory probe rounds",
        )


class TestShardResubmission:
    """A pool that breaks *mid-map* loses only its crashed shards.

    Crashes are injected deterministically (seeded ``worker-crash``
    plans fire :class:`BrokenProcessPool` at scheduled shard indices
    during collection), so these run against real worker processes with
    a replayable failure pattern.
    """

    def test_lost_shards_rerun_and_results_match_sequential(self):
        from repro.resilience import FaultPlan, FaultSpec, inject_faults
        from repro.util.procpool import resubmitted_shards

        tasks = list(range(8))
        plan = FaultPlan([FaultSpec("worker-crash", count=2, horizon=8)], seed=7)
        with inject_faults(plan):
            with pytest.warns(RuntimeWarning, match="re-running 2 lost"):
                results = map_in_pool(_square, tasks, 2, "traffic generation")
        assert results == [task * task for task in tasks]  # bit-identical
        assert resubmitted_shards() == (("traffic generation", 2),)
        assert plan.fired() == {"worker-crash": 2}
        assert fallback_contexts() == ()  # recovery, not a full fallback

    def test_total_crash_still_recovers_every_shard(self):
        from repro.resilience import FaultPlan, FaultSpec, inject_faults
        from repro.util.procpool import resubmitted_shards

        plan = FaultPlan([FaultSpec("worker-crash", count=4, horizon=4)], seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with inject_faults(plan):
                results = map_in_pool(_square, [1, 2, 3, 4], 2, "whatif sweep")
        assert results == [1, 4, 9, 16]
        assert resubmitted_shards() == (("whatif sweep", 4),)

    def test_resubmission_warns_once_per_process(self):
        from repro.resilience import FaultPlan, FaultSpec, inject_faults
        from repro.util.procpool import resubmitted_shards

        plan = FaultPlan([FaultSpec("worker-crash", count=4, horizon=4)], seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with inject_faults(plan):
                map_in_pool(_square, [1, 2], 2, "traffic generation")
                map_in_pool(_square, [3, 4], 2, "observatory probe rounds")
        crashes = [w for w in caught if "crashed mid-map" in str(w.message)]
        assert len(crashes) == 1
        assert resubmitted_shards() == (
            ("traffic generation", 2),
            ("observatory probe rounds", 2),
        )

    def test_initializer_reruns_in_the_parent_for_lost_shards(self):
        from repro.resilience import FaultPlan, FaultSpec, inject_faults

        _INIT_STATE["value"] = None  # parent state the initializer must set
        plan = FaultPlan([FaultSpec("worker-crash", count=2, horizon=2)], seed=1)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with inject_faults(plan):
                    results = map_in_pool(
                        _offset, [10, 20], 2, "traffic generation",
                        initializer=_remember, initargs=(100,),
                    )
            assert results == [110, 120]
            assert _INIT_STATE["value"] == 100  # re-ran here, not just in workers
        finally:
            _INIT_STATE.clear()


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def _no_host_quota(self, monkeypatch):
        """Size from the patched CPUs below, not the host's own cgroup."""
        import repro.util.procpool as procpool_module

        monkeypatch.setattr(procpool_module, "read_cgroup_cpu_max", lambda: None)

    def test_resolution_contract_unchanged(self):
        assert resolve_worker_count(False, 10) == 1
        assert resolve_worker_count(0, 10) == 1
        assert resolve_worker_count(4, 10) == 4
        assert resolve_worker_count(4, 2) == 2  # never more workers than tasks
        assert resolve_worker_count(None, 0) == 1

    def test_one_cpu_affinity_sizes_the_pool_to_one(self, monkeypatch):
        """A ``taskset -c 0`` run (or a one-CPU cpuset) never oversubscribes."""
        import repro.util.procpool as procpool_module

        monkeypatch.setattr(
            procpool_module.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(procpool_module.os, "cpu_count", lambda: 8)
        assert resolve_worker_count(None, 10) == 1
        assert resolve_worker_count(True, 10) == 1
        assert resolve_worker_count(4, 10) == 4  # an explicit count still pins

    def test_cpu_count_is_the_fallback_without_affinity(self, monkeypatch):
        import repro.util.procpool as procpool_module

        monkeypatch.delattr(procpool_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(procpool_module.os, "cpu_count", lambda: 3)
        assert resolve_worker_count(None, 10) == 3
        assert resolve_worker_count(True, 2) == 2

    @pytest.mark.parametrize(
        ("cpu_max", "auto", "everything"),
        [
            ("50000 100000\n", 1, 1),  # half a CPU
            ("150000 100000\n", 2, 2),  # 1.5 CPUs round up
            ("max 100000\n", 4, 4),  # no quota: the affinity count
            (None, 4, 4),  # missing or unreadable file
            ("garbled\n", 4, 4),
        ],
    )
    def test_cgroup_quota_caps_usable_cpus(self, monkeypatch, cpu_max, auto, everything):
        import repro.util.procpool as procpool_module

        monkeypatch.setattr(
            procpool_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
            raising=False,
        )
        monkeypatch.setattr(procpool_module, "read_cgroup_cpu_max", lambda: cpu_max)
        assert resolve_worker_count(None, 10) == auto
        assert resolve_worker_count(True, 10) == everything
        assert resolve_worker_count(3, 10) == 3  # an explicit count still pins


class TestCgroupQuotaFile:
    def test_unreadable_cpu_max_means_no_cap(self, monkeypatch, tmp_path):
        import repro.util.procpool as procpool_module

        monkeypatch.setattr(procpool_module, "CGROUP_CPU_MAX", str(tmp_path / "absent"))
        assert procpool_module.read_cgroup_cpu_max() is None
        assert procpool_module.cgroup_cpu_limit() is None
        (tmp_path / "cpu.max").write_text("250000 100000\n")
        monkeypatch.setattr(procpool_module, "CGROUP_CPU_MAX", str(tmp_path / "cpu.max"))
        assert procpool_module.cgroup_cpu_limit() == 3
