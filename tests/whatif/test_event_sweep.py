"""Sweep-by-events: ranking semantics and the cache-reuse contract."""

import warnings

import pytest

from repro.api import BUILD_COUNTS, Study, StudyConfig, clear_caches
from repro.util.procpool import reset_pool_fallback_warnings, resubmitted_shards
from repro.whatif.events import run_event_sweep
from repro.whatif.overlay import OverlayStudy
from repro.whatif.sweep import run_sweep, sweep_grid

CONFIG = StudyConfig(days=3, sites=80, probe_targets=40, parallel=False)

#: Observatory-only levers: a 20+ scenario grid whose overlays rebuild
#: nothing but the vantage layer (and their own sentinel scans).
BASES = (
    "nat64:DE",
    "nat64:FR",
    "nat64:US",
    "nat64:JP",
    "block:BR@0.6",
    "block:CN@0.5",
)


#: One lever per perturbation path: traffic only, census (which also
#: re-derives the observatory), and observatory only.
MIXED_GRID = ("hetimer:300", "dualstack:Amazon", "nat64:US")

OVERLAY_LAYERS = ("traffic", "census", "observatory", "sentinel")


@pytest.fixture(autouse=True)
def _cold():
    clear_caches()
    reset_pool_fallback_warnings()
    yield
    clear_caches()
    reset_pool_fallback_warnings()


def _overlay_counts() -> dict[str, int]:
    return {layer: BUILD_COUNTS[f"whatif:{layer}"] for layer in OVERLAY_LAYERS}


def _sweep_then_rank(parallel):
    """Sweep the mixed grid from cold caches, then rank it.

    Pins the build accounting on the way: the ranking after the sweep
    builds no overlay layer, and every scenario scanned exactly once.
    """
    clear_caches()
    study = Study(CONFIG)
    study.sentinel  # baseline universes + feed, built before counting
    before = _overlay_counts()
    sweep = run_sweep(study, MIXED_GRID, parallel=parallel)
    swept = _overlay_counts()
    ranking = run_event_sweep(study, MIXED_GRID)
    assert _overlay_counts() == swept
    assert swept["sentinel"] - before["sentinel"] == len(MIXED_GRID)
    return sweep.frame, ranking


def _assert_same_outcome(outcome, reference):
    (frame, ranking), (ref_frame, ref_ranking) = outcome, reference
    assert ranking == ref_ranking
    assert frame.data.tobytes() == ref_frame.data.tobytes()
    assert (frame.scenarios, frame.countries) == (
        ref_frame.scenarios,
        ref_frame.countries,
    )


def test_twenty_scenario_sweep_rebuilds_zero_baseline_layers():
    study = Study(CONFIG)
    study.sentinel  # baseline universes + feed, built once
    specs = tuple(scenario.spec() for scenario in sweep_grid(BASES))
    assert len(specs) >= 20

    before = BUILD_COUNTS.copy()
    sweep = run_event_sweep(study, specs)

    # The acceptance contract: baseline layers never rebuild.
    for layer in ("traffic", "census", "cloud", "observatory", "sentinel"):
        assert BUILD_COUNTS[layer] == before[layer], layer
    # No scenario here perturbs traffic or census.
    assert BUILD_COUNTS["whatif:traffic"] == before["whatif:traffic"]
    assert BUILD_COUNTS["whatif:census"] == before["whatif:census"]
    # Each overlay builds exactly its own observatory and sentinel scan.
    assert (
        BUILD_COUNTS["whatif:observatory"] - before["whatif:observatory"]
        == len(specs)
    )
    assert (
        BUILD_COUNTS["whatif:sentinel"] - before["whatif:sentinel"]
        == len(specs)
    )

    # Ranked by triggered-event count, spec as the tiebreaker.
    assert {entry.scenario for entry in sweep.scenarios} == set(specs)
    totals = [entry.events_total for entry in sweep.scenarios]
    assert totals == sorted(totals, reverse=True)

    # A second sweep over the same grid is pure cache hits.
    again = BUILD_COUNTS.copy()
    rerun = run_event_sweep(study, specs)
    assert BUILD_COUNTS == again
    assert rerun == sweep


def test_default_scenarios_come_from_the_whatif_grid():
    scoped = CONFIG.replace(whatif_scenarios=("nat64:DE",))
    study = Study(scoped)
    sweep = run_event_sweep(study)
    assert [entry.scenario for entry in sweep.scenarios] == ["nat64:DE"]
    [entry] = sweep.scenarios
    assert entry.layers == ("observatory",)
    assert dict(entry.by_severity).keys() == {"watch", "elevated", "critical"}
    assert entry.events_total == sum(count for _, count in entry.by_severity)


def test_event_ranking_artifact_renders_the_sweep():
    scoped = CONFIG.replace(whatif_scenarios=("nat64:DE", "block:US@0.6"))
    result = Study(scoped).artifact("whatif_event_ranking")
    assert len(result.rows) == 2
    assert [row["rank"] for row in result.rows] == [1, 2]
    counts = [row["events_total"] for row in result.rows]
    assert counts == sorted(counts, reverse=True)
    assert "baseline feed" in result.to_text()


def test_prebuilt_studies_are_rejected():
    from repro.datasets.scenarios import build_residence_study

    traffic = build_residence_study(num_days=3, seed=9005, residences=("A",))
    study = Study.from_prebuilt(traffic=traffic)
    with pytest.raises(ValueError, match="config-cached baseline"):
        run_event_sweep(study, ("nat64:DE",))


def test_parallel_sweep_then_ranking_matches_sequential():
    reference = _sweep_then_rank(False)
    _assert_same_outcome(_sweep_then_rank(2), reference)
    assert resubmitted_shards() == ()


def test_crashed_shard_rerun_in_the_parent_still_returns_its_feed():
    from repro.resilience import FaultPlan, FaultSpec, inject_faults

    reference = _sweep_then_rank(False)
    plan = FaultPlan([FaultSpec("worker-crash", count=1, horizon=3)], seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with inject_faults(plan):
            outcome = _sweep_then_rank(2)
    assert plan.fired() == {"worker-crash": 1}
    assert resubmitted_shards() == (("whatif sweep", 1),)
    _assert_same_outcome(outcome, reference)


def test_parallel_sweep_writes_overlay_feeds_behind(tmp_path):
    from repro.store import set_store

    store = set_store(tmp_path / "warehouse")
    try:
        study = Study(CONFIG)
        run_sweep(study, MIXED_GRID, parallel=2)
        for spec in MIXED_GRID:
            key = OverlayStudy(study, spec)._sentinel_key()
            assert store.has_layer("sentinel", key), spec
    finally:
        set_store(None)
