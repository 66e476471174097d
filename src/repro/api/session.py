"""The :class:`Study` session: one object owning scale, seed, and caches.

A study is configured once (:class:`StudyConfig`) and then builds each
expensive layer -- the residential traffic study, the web census, the
cloud attribution, the dependency analysis -- lazily, exactly once per
configuration, no matter how many artifacts ask for it.  The caches are
process-wide and keyed on the configuration, so two ``Study`` objects
with equal configs share the same underlying universes (the behaviour
the benchmark harness and ``python -m repro all`` rely on).

    from repro.api import Study

    study = Study(days=28, sites=1500)
    print(study.artifact("table1").to_text())
    print(study.artifact("fig5").to_json())
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.cloudstats import attribute_domains
from repro.core.deps import analyze_dependencies
from repro.datasets.scenarios import (
    BENCH_CENSUS_SITES,
    BENCH_TRAFFIC_DAYS,
    CensusStudy,
    ResidenceStudy,
    build_census,
    build_residence_study,
)
from repro.telemetry import counter_view, registry as _metrics_registry, span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.registry import ArtifactResult
    from repro.core.cloudstats import DomainCloudView
    from repro.core.deps import DependencyAnalysis
    from repro.observatory.rounds import ObservatoryStudy
    from repro.sentinel.scan import SentinelFeed
    from repro.whatif.sweep import WhatifSweep

#: The session's registry instruments.  Builds and store traffic count
#: here (label-keyed), render on ``GET /metrics``, and merge across
#: procpool workers; the legacy ``*_COUNTS`` names below are
#: compatibility views over these instruments, not separate state.
_BUILDS = _metrics_registry().counter(
    "builds_total", "layer builds (process-cache misses), per layer", ("layer",)
)
_STORE_OPS = _metrics_registry().counter(
    "store_ops_total", "session store traffic, per event:layer", ("op",)
)
_BUILD_SECONDS = _metrics_registry().histogram(
    "build_seconds", "wall time of each layer build", ("layer",)
)
_WRITE_BEHIND_FAILURES = _metrics_registry().counter(
    "store_write_behind_failures_total",
    "write-behind persists that failed (the build still served)",
)

#: How many times each layer has actually been *built* (cache misses).
#: Tests assert on deltas of this counter to prove memoization works.
#: Overlay (whatif) rebuilds count under ``whatif:<layer>`` keys, so a
#: sweep never inflates the baseline layer counters.  A layer loaded
#: from the on-disk store is *not* a build: it counts in
#: :data:`STORE_COUNTS` instead.
# replint: allow[REP010] compatibility view over the builds_total registry instrument
BUILD_COUNTS = counter_view(_BUILDS)

#: Disk-tier traffic, when a store is active (``repro.store``):
#: ``hit:<layer>`` / ``miss:<layer>`` on reads, ``write:<layer>`` on
#: write-behind, ``retry:<layer>`` per transient read re-attempt under
#: the shared store retry policy, ``error:<layer>`` when a corrupt or
#: unreadable entry fell back to a rebuild (which then overwrites --
#: repairs -- the damaged entry).
# replint: allow[REP010] compatibility view over the store_ops_total registry instrument
STORE_COUNTS = counter_view(_STORE_OPS)


def _store_load(layer: str, key: tuple) -> tuple[Any | None, bool]:
    """Read-through: fetch a layer from the active store (miss = None).

    Returns ``(value, damaged)``.  Reads run under the shared store
    retry policy (:data:`repro.resilience.retry.STORE_POLICY`), so a
    transient IO failure backs off and re-reads before anything is
    rebuilt; a corrupt entry (checksum failure, which retrying cannot
    cure) or a read that exhausted its retries is a warning and a miss
    with ``damaged=True`` -- the session rebuilds rather than dying on
    a damaged warehouse, and the write-behind then *overwrites* the bad
    entry so the store actually heals.
    """
    from repro.resilience.retry import STORE_POLICY, call_with_retry
    from repro.store.warehouse import StoreReadError, active_store

    store = active_store()
    if store is None:
        return None, False

    def on_retry(attempt: int, exc: BaseException) -> None:
        STORE_COUNTS[f"retry:{layer}"] += 1

    try:
        value = call_with_retry(
            lambda: store.load_layer(layer, key),
            label=f"store:{layer}",
            policy=STORE_POLICY,
            retryable=(StoreReadError, OSError),
            on_retry=on_retry,
        )
    except Exception as exc:
        import warnings

        STORE_COUNTS[f"error:{layer}"] += 1
        warnings.warn(
            f"store: could not load the {layer} layer ({exc}); rebuilding",
            RuntimeWarning,
            stacklevel=3,
        )
        return None, True
    STORE_COUNTS[("hit:" if value is not None else "miss:") + layer] += 1
    return value, False


def _store_save(layer: str, key: tuple, value: Any, repair: bool = False) -> None:
    """Write-behind: persist a freshly built layer (failures are warnings).

    ``repair=True`` (the load before this build failed) overwrites the
    existing entry instead of trusting the content-addressed
    skip-if-present fast path, which would otherwise leave the damaged
    bytes in place forever.
    """
    from repro.store.warehouse import active_store

    store = active_store()
    if store is None:
        return
    try:
        store.save_layer(layer, key, value, overwrite=repair)
    except Exception as exc:
        import warnings

        STORE_COUNTS[f"error:{layer}"] += 1
        _WRITE_BEHIND_FAILURES.inc()
        warnings.warn(
            f"store: could not persist the {layer} layer ({exc}); "
            "continuing without write-behind",
            RuntimeWarning,
            stacklevel=3,
        )
        return
    STORE_COUNTS[f"write:{layer}"] += 1

_TRAFFIC_CACHE: dict[tuple, ResidenceStudy] = {}
_CENSUS_CACHE: dict[tuple, CensusStudy] = {}
_CLOUD_CACHE: dict[tuple, dict] = {}
_DEPS_CACHE: dict[tuple, Any] = {}
_OBSERVATORY_CACHE: dict[tuple, Any] = {}
_WHATIF_CACHE: dict[tuple, Any] = {}
_SENTINEL_CACHE: dict[tuple, Any] = {}

#: Every process-wide layer cache, in one place.  ``clear_caches`` and
#: the sweep-worker priming iterate this; a new layer that adds its own
#: module-level ``_*_CACHE`` dict must register here (enforced by
#: ``tests/api/test_session.py``), so overlays can never be silently
#: leaked across ``clear_caches()``.
_ALL_CACHES: dict[str, dict] = {
    "traffic": _TRAFFIC_CACHE,
    "census": _CENSUS_CACHE,
    "cloud": _CLOUD_CACHE,
    "dependencies": _DEPS_CACHE,
    "observatory": _OBSERVATORY_CACHE,
    "whatif": _WHATIF_CACHE,
    "sentinel": _SENTINEL_CACHE,
}


def clear_caches() -> None:
    """Drop every cached layer (``BUILD_COUNTS`` is left intact)."""
    for cache in _ALL_CACHES.values():
        cache.clear()


def prime_caches(layer_values: dict[str, dict[tuple, Any]]) -> None:
    """Seed the process-wide caches with already-built layers.

    ``layer_values`` maps a layer name (a key of :data:`_ALL_CACHES`)
    to ``{cache_key: built_value}`` entries.  Used in both directions
    of the whatif sweep: the parent ships its baseline universes once
    per worker so a 20-scenario sweep fanned over processes still
    rebuilds zero untouched layers, and it files the overlay sentinel
    feeds the workers return so a later event ranking rebuilds none.
    """
    for layer, entries in layer_values.items():
        try:
            cache = _ALL_CACHES[layer]
        except KeyError:
            raise ValueError(
                f"unknown layer {layer!r}; expected one of "
                f"{', '.join(sorted(_ALL_CACHES))}"
            ) from None
        cache.update(entries)


@dataclass(frozen=True)
class StudyConfig:
    """Scale and seed of one study; hashable, so it keys the caches.

    Defaults are the *bench* scale from :mod:`repro.datasets.scenarios`
    (154 days, 4000 sites); the paper scale is ``days=273``,
    ``sites=100_000``.

    ``parallel`` controls the process-pool fan-outs (traffic generation
    and observatory probe rounds): ``None`` (default) auto-enables a
    pool when the process may run on more than one CPU (its affinity
    mask), ``False`` forces the sequential path, an ``int`` pins the
    worker count.  It does not key the caches --
    parallel and sequential builds are bit-identical (every residence
    and every vantage point draws from its own seeded RNG substream), so
    they share cache entries.

    ``probe_targets`` / ``probe_interval_days`` scale the observatory
    layer only: how many top-ranked sites every vantage probes, and how
    many days apart the probe rounds run across the ``days`` window.

    ``whatif_scenarios`` selects the counterfactual sweep grid: a tuple
    of scenario spec strings (``"nat64:DE"``,
    ``"dualstack:Amazon+ispv6"``; see :mod:`repro.whatif.spec`).
    ``None`` means the default grid.  It keys only the ``whatif`` layer.
    """

    days: int = BENCH_TRAFFIC_DAYS
    sites: int = BENCH_CENSUS_SITES
    seed: int = 42
    link_clicks: int = 5
    residences: tuple[str, ...] | None = None
    parallel: bool | int | None = None
    probe_targets: int = 500
    probe_interval_days: int = 14
    whatif_scenarios: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.sites < 1:
            raise ValueError("sites must be >= 1")
        if self.link_clicks < 0:
            raise ValueError("link_clicks must be >= 0")
        if self.probe_targets < 1:
            raise ValueError("probe_targets must be >= 1")
        if self.probe_interval_days < 1:
            raise ValueError("probe_interval_days must be >= 1")
        if self.residences is not None:
            object.__setattr__(self, "residences", tuple(sorted(self.residences)))
        if self.whatif_scenarios is not None:
            from repro.whatif.spec import parse_scenario

            # Canonicalize each spec (round-trip through the parser) and
            # de-duplicate preserving order, so equal sweeps share keys.
            canonical = tuple(
                dict.fromkeys(
                    parse_scenario(text).spec() for text in self.whatif_scenarios
                )
            )
            if not canonical:
                raise ValueError("whatif_scenarios must not be empty")
            object.__setattr__(self, "whatif_scenarios", canonical)

    def replace(self, **changes: Any) -> "StudyConfig":
        """A copy with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def result_key(self) -> tuple:
        """Everything that determines *results* (``parallel`` does not:
        parallel and sequential builds are bit-identical).  Keys the
        rendered-artifact entries of the store and the serving layer's
        caches, the same way the layer keys key the session caches."""
        return (
            "config",
            self.days,
            self.sites,
            self.seed,
            self.link_clicks,
            self.residences,
            self.probe_targets,
            self.probe_interval_days,
            self.whatif_scenarios,
        )

    @property
    def traffic_key(self) -> tuple:
        return ("traffic", self.days, self.seed, self.residences)

    @property
    def census_key(self) -> tuple:
        return ("census", self.sites, self.seed, self.link_clicks)

    @property
    def observatory_key(self) -> tuple:
        return self.observatory_key_over(self.census_key)

    def observatory_key_over(self, census_key: tuple) -> tuple:
        """The observatory key over an explicit census key.

        The observatory probes the census universe, so its key embeds
        the census key -- which an overlay may have extended.  This is
        the single definition both :attr:`observatory_key` and
        ``Study._observatory_key`` compose.
        """
        return (
            "observatory",
            census_key,
            self.days,
            self.probe_targets,
            self.probe_interval_days,
        )


class Study:
    """A lazy, memoized session over the paper's three perspectives.

    Layers are exposed as properties -- :attr:`traffic`, :attr:`census`,
    :attr:`cloud`, :attr:`dependencies` -- and nothing is generated until
    an artifact (or caller) touches one.  Artifacts run through
    :meth:`artifact` / :meth:`run` and every artifact sharing this
    study's config reuses the same builds.
    """

    def __init__(
        self,
        config: StudyConfig | None = None,
        *,
        log: Callable[[str], None] | None = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = StudyConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self._log = log
        self._prebuilt = False
        self._traffic: ResidenceStudy | None = None
        self._census: CensusStudy | None = None
        self._cloud: dict[str, "DomainCloudView"] | None = None
        self._deps: "DependencyAnalysis | None" = None
        self._observatory: "ObservatoryStudy | None" = None
        self._whatif: "WhatifSweep | None" = None
        self._sentinel: "SentinelFeed | None" = None

    @classmethod
    def from_prebuilt(
        cls,
        traffic: ResidenceStudy | None = None,
        census: CensusStudy | None = None,
        config: StudyConfig | None = None,
    ) -> "Study":
        """Wrap already-built universes (compat shims, tests).

        Derived layers (cloud attribution, dependency analysis) are
        computed from the given objects and cached on the instance only:
        the prebuilt universes' true seed/scale are unknown, so they must
        not populate the config-keyed process caches.
        """
        if config is None:
            config = StudyConfig(
                days=traffic.num_days if traffic is not None else BENCH_TRAFFIC_DAYS,
                sites=census.config.num_sites if census is not None else BENCH_CENSUS_SITES,
            )
        study = cls(config)
        study._prebuilt = True
        study._traffic = traffic
        study._census = census
        return study

    def _say(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    # -- layer cache keys and builders -------------------------------------
    #
    # Each layer's cache key and build recipe is an overridable method,
    # which is how ``repro.whatif.overlay.OverlayStudy`` perturbs only
    # the layers an intervention touches: it extends the keys (and
    # swaps the builders) for perturbed layers and inherits these
    # verbatim for everything else, so untouched layers stay cache hits
    # against the baseline.  ``_count_key`` namespaces BUILD_COUNTS the
    # same way (overlay rebuilds land under ``whatif:<layer>``).

    def _count_key(self, layer: str) -> str:
        return layer

    def _traffic_key(self) -> tuple:
        return self.config.traffic_key

    def _census_key(self) -> tuple:
        return self.config.census_key

    def _observatory_key(self) -> tuple:
        return self.config.observatory_key_over(self._census_key())

    def _whatif_key(self) -> tuple:
        return (
            "whatif",
            self._traffic_key(),
            self._census_key(),
            self._observatory_key(),
            self._whatif_scenario_specs(),
        )

    def _sentinel_key(self) -> tuple:
        return (
            "sentinel",
            self._traffic_key(),
            self._census_key(),
            self._observatory_key(),
        )

    def _whatif_scenario_specs(self) -> tuple[str, ...]:
        """The sweep's scenario specs, with ``None`` resolved to the
        default grid (so explicit-default and implicit-default sweeps
        share one cache entry)."""
        if self.config.whatif_scenarios is not None:
            return self.config.whatif_scenarios
        from repro.whatif.spec import default_sweep_grid

        return tuple(scenario.spec() for scenario in default_sweep_grid())

    def _build_traffic(self) -> ResidenceStudy:
        return build_residence_study(
            num_days=self.config.days,
            seed=self.config.seed,
            residences=self.config.residences,
            parallel=self.config.parallel,
        )

    def _build_census(self) -> CensusStudy:
        return build_census(
            num_sites=self.config.sites,
            seed=self.config.seed,
            link_clicks=self.config.link_clicks,
        )

    def _build_observatory(self, census: CensusStudy) -> "ObservatoryStudy":
        from repro.observatory.rounds import ObservatoryConfig, run_observatory

        return run_observatory(
            census.ecosystem,
            ObservatoryConfig(
                num_days=self.config.days,
                probe_interval_days=self.config.probe_interval_days,
                max_targets=self.config.probe_targets,
                seed=self.config.seed,
                parallel=self.config.parallel,
            ),
        )

    def _traffic_signal_series(self) -> tuple:
        """The sentinel's traffic-derived ``(heavy_hitters, usage)`` series."""
        from repro.sentinel.series import traffic_signal_series

        return traffic_signal_series(self.traffic)

    def _timed_build(self, layer: str, build: Callable[[], Any]) -> Any:
        """Count and trace one actual layer build (the only build path).

        Every build increments ``builds_total``, runs inside a
        ``build:<layer>`` span (nesting under whatever artifact or CLI
        span is open), and lands its wall time in the
        ``build_seconds`` histogram -- so "where did the smoke go"
        is answerable per layer without a profiler.
        """
        count_key = self._count_key(layer)
        BUILD_COUNTS[count_key] += 1
        with span(f"build:{layer}", layer=count_key) as build_span:
            value = build()
        _BUILD_SECONDS.observe(build_span.duration_s, layer=count_key)
        return value

    def _resolve_layer(
        self, layer: str, key: tuple, build: Callable[[], Any], message: str
    ) -> Any:
        """Memory -> disk -> build, the tiering every layer shares.

        On a process-cache miss the active store (if any) is consulted
        first; only a disk miss actually builds (and the fresh value is
        written behind).  ``BUILD_COUNTS`` counts builds only -- a disk
        hit shows up in :data:`STORE_COUNTS` instead, which is what the
        warm-start tests key on.
        """
        cache = _ALL_CACHES[layer]
        if key not in cache:
            value, damaged = _store_load(layer, key)
            if value is None:
                self._say(message)
                value = self._timed_build(layer, build)
                _store_save(layer, key, value, repair=damaged)
            cache[key] = value
        return cache[key]

    # -- the layers --------------------------------------------------------

    @property
    def traffic(self) -> ResidenceStudy:
        """The five-residence traffic study (built on first access)."""
        if self._traffic is None:
            self._traffic = self._resolve_layer(
                "traffic",
                self._traffic_key(),
                self._build_traffic,
                f"# generating {self.config.days} days of residential traffic ...",
            )
        return self._traffic

    @property
    def census(self) -> CensusStudy:
        """The crawled web census (built on first access)."""
        if self._census is None:
            self._census = self._resolve_layer(
                "census",
                self._census_key(),
                self._build_census,
                f"# crawling a {self.config.sites}-site universe ...",
            )
        return self._census

    @property
    def cloud(self) -> dict[str, "DomainCloudView"]:
        """Per-FQDN cloud attribution of the census (section 5)."""
        if self._cloud is None:
            def build() -> dict[str, "DomainCloudView"]:
                census = self.census
                return attribute_domains(
                    census.dataset, census.ecosystem.routing, census.ecosystem.registry
                )

            message = "# attributing crawled FQDNs to cloud organizations ..."
            if self._prebuilt:
                # Prebuilt universes never enter the config-keyed caches
                # (their true seed/scale are unknown) -- and for the same
                # reason they must bypass the store.
                self._say(message)
                self._cloud = self._timed_build("cloud", build)
            else:
                self._cloud = self._resolve_layer(
                    "cloud", self._census_key(), build, message
                )
        return self._cloud

    @property
    def dependencies(self) -> "DependencyAnalysis":
        """The section-4.3 dependency analysis of the census."""
        if self._deps is None:
            def build() -> "DependencyAnalysis":
                return analyze_dependencies(self.census.dataset)

            message = "# analyzing IPv4-only dependencies of partial sites ..."
            if self._prebuilt:
                self._say(message)
                self._deps = self._timed_build("dependencies", build)
            else:
                self._deps = self._resolve_layer(
                    "dependencies", self._census_key(), build, message
                )
        return self._deps

    @property
    def observatory(self) -> "ObservatoryStudy":
        """The active-measurement observatory over the census universe.

        Probe rounds run across the study's ``days`` window against the
        top ``probe_targets`` sites, from the default per-country
        vantage fleet; built lazily (the census ecosystem is the ground
        truth being probed) and cached per configuration like every
        other layer.
        """
        if self._observatory is None:
            def build() -> "ObservatoryStudy":
                return self._build_observatory(self.census)

            message = (
                f"# probing {min(self.config.probe_targets, self.config.sites)}"
                " sites from the vantage fleet ..."
            )
            if self._prebuilt:
                self._say(message)
                self._observatory = self._timed_build("observatory", build)
            else:
                self._observatory = self._resolve_layer(
                    "observatory", self._observatory_key(), build, message
                )
        return self._observatory

    @property
    def whatif(self) -> "WhatifSweep":
        """The counterfactual sweep over this study's scenario grid.

        Runs every scenario of ``config.whatif_scenarios`` (the default
        grid when ``None``) as an :class:`~repro.whatif.overlay.
        OverlayStudy` against this study's baseline and assembles the
        per-country availability/readiness/usage deltas into a columnar
        :class:`~repro.whatif.sweep.DeltaFrame`.  Overlays reuse every
        baseline layer an intervention does not perturb, so the sweep
        costs rebuilds only where the counterfactual differs.
        """
        if self._whatif is None:
            from repro.whatif.spec import parse_scenario
            from repro.whatif.sweep import run_sweep

            if self._prebuilt:
                # Same contract as OverlayStudy/run_sweep: prebuilt
                # universes never entered the process caches, so the
                # overlays would fork a different world than the one
                # the baseline signals come from.
                raise ValueError(
                    "whatif sweeps need a config-cached baseline; prebuilt "
                    "studies bypass the process caches the overlays share"
                )
            scenarios = tuple(
                parse_scenario(spec) for spec in self._whatif_scenario_specs()
            )
            self._whatif = self._resolve_layer(
                "whatif",
                self._whatif_key(),
                lambda: run_sweep(self, scenarios, parallel=self.config.parallel),
                f"# sweeping {len(scenarios)} counterfactual scenarios ...",
            )
        return self._whatif

    @property
    def sentinel(self) -> "SentinelFeed":
        """The significance engine's event feed over this study's series.

        Scans the five adoption signals (availability, takeoff,
        readiness, usage, heavy-hitter mix) against trailing baselines
        and caches the resulting deterministic
        :class:`~repro.sentinel.scan.SentinelFeed` like every other
        layer.  An empty feed is a valid result: silence means nothing
        deviated, not that nothing was watched.
        """
        if self._sentinel is None:
            from repro.sentinel.scan import run_sentinel

            def build() -> "SentinelFeed":
                return run_sentinel(self)

            message = "# scanning adoption series for significant deviations ..."
            if self._prebuilt:
                self._say(message)
                self._sentinel = self._timed_build("sentinel", build)
            else:
                self._sentinel = self._resolve_layer(
                    "sentinel", self._sentinel_key(), build, message
                )
        return self._sentinel

    def artifact(self, name: str, **params: Any) -> "ArtifactResult":
        """Run one registered artifact against this study."""
        from repro.api import registry

        return registry.run(self, name, **params)

    def run(self, names: Iterable[str] | None = None) -> list["ArtifactResult"]:
        """Run several artifacts (all of them by default), in order."""
        from repro.api import registry

        wanted = list(names) if names is not None else registry.names()
        return [self.artifact(name) for name in wanted]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        built = [
            layer
            for layer, value in (
                ("traffic", self._traffic),
                ("census", self._census),
                ("cloud", self._cloud),
                ("dependencies", self._deps),
                ("observatory", self._observatory),
                ("whatif", self._whatif),
                ("sentinel", self._sentinel),
            )
            if value is not None
        ]
        return f"Study({self.config!r}, built={built or 'nothing'})"
