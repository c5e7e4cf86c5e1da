"""Execution knobs of one inspection run (the engine's pieces are
introduced in :mod:`repro.core.pipeline`)."""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field

from repro.core.cache import HypothesisCache, UnitBehaviorCache
from repro.core.schedulers import _SCHEDULERS, Scheduler
from repro.store import DiskBehaviorStore

MODES = ("streaming", "materialized", "full")

#: default convergence thresholds (Section 6.2: e=0.025 for correlation,
#: 0.01 for logistic regression; 0.01 elsewhere).
DEFAULT_THRESHOLDS = {"corr": 0.025, "logreg": 0.01}
FALLBACK_THRESHOLD = 0.01

#: guards InspectConfig._store_tiers memoization (one pair per config even
#: when concurrent runs share the config object)
_STORE_TIER_LOCK = threading.Lock()


@dataclass
class InspectConfig:
    """Execution knobs for one inspection run."""

    mode: str = "streaming"
    early_stop: bool = True
    block_size: int = 512                    # records per block (paper: 512)
    error_threshold: float | dict | None = None
    shuffle: bool = True
    seed: int = 0
    cache: HypothesisCache | None = None     # hypothesis-behavior cache
    unit_cache: UnitBehaviorCache | None = None
    store: DiskBehaviorStore | None = None   # persistent disk tier
    scheduler: Scheduler | str | None = None  # None -> serial
    partition: bool = True      # per-hypothesis-column early stopping
    #: a block's raw sweeps are submitted to the scheduler, one future per
    #: (model, raw sweep) pair, before the calling thread labels the
    #: block's hypotheses (overlapping schedulers only; no block is swept
    #: ahead of the one being processed; frames stay bit-identical — see
    #: InspectionPlan._run_blocks)
    prefetch: bool = True
    #: cross-query single-flight gate over cold raw sweeps.  Anything
    #: exposing ``lease(keys, cold=predicate) -> context manager`` works
    #: (the inspection server installs a
    #: :class:`repro.server.dedup.SweepRegistry`): the plan executor
    #: leases its sweep identities for the duration of the run, so
    #: concurrent queries needing the same cold extraction attach to one
    #: in-flight sweep instead of racing the caches.  ``None`` (the
    #: default) leaves runs ungated.
    sweep_gate: object | None = None
    max_records: int | None = None
    # memoized store-backed tiers (see with_store_tiers); never replace()d
    _store_tiers: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scheduler is not None and not isinstance(
                self.scheduler, (str, Scheduler)):
            raise TypeError("scheduler must be a name or Scheduler, "
                            f"got {self.scheduler!r}")
        if isinstance(self.scheduler, str) \
                and self.scheduler not in _SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{tuple(_SCHEDULERS)} or a Scheduler instance")
        # a memory tier wired to one store while config.store names another
        # would silently split the persistent state across directories —
        # reject the conflict here, where every with_*() copy re-validates
        for label, tier in (("cache", self.cache),
                            ("unit_cache", self.unit_cache)):
            tier_store = getattr(tier, "store", None)
            if (tier_store is not None and self.store is not None
                    and tier_store is not self.store):
                raise ValueError(
                    f"conflicting store wiring: {label} is backed by a "
                    "different DiskBehaviorStore than config.store; pass "
                    "one store object to both (or drop store=)")

    def with_defaults(
            self, cache: HypothesisCache | None = None,
            unit_cache: UnitBehaviorCache | None = None,
            scheduler: Scheduler | str | None = None,
            store: DiskBehaviorStore | None = None,
            sweep_gate: object | None = None) -> "InspectConfig":
        """A copy with unset sharing knobs filled from session defaults.

        The session layer keeps per-session caches, a persistent behavior
        store and a thread-pool scheduler; a config that did not pin those
        fields inherits them, so repeated queries in one session share
        extracted behaviors (and across sessions, through the store), while
        an explicitly-configured run is left untouched.  The operation is
        idempotent: fields filled by one call are pinned, so a second call
        (with the same or another session's defaults) changes nothing.
        """
        if (cache is None or self.cache is not None) \
                and (unit_cache is None or self.unit_cache is not None) \
                and (store is None or self.store is not None) \
                and (scheduler is None or self.scheduler is not None) \
                and (sweep_gate is None or self.sweep_gate is not None):
            return self  # nothing to fill: don't build a copy per query
        return dataclasses.replace(
            self,
            cache=self.cache if self.cache is not None else cache,
            unit_cache=(self.unit_cache if self.unit_cache is not None
                        else unit_cache),
            store=self.store if self.store is not None else store,
            scheduler=(self.scheduler if self.scheduler is not None
                       else scheduler),
            sweep_gate=(self.sweep_gate if self.sweep_gate is not None
                        else sweep_gate))

    def with_store_tiers(self) -> "InspectConfig":
        """A copy whose caches sit on top of ``store``, when one is set.

        A configured disk tier implies caching: runs that did not pin their
        own memory tiers get fresh ones backed by the store, so behaviors
        persist (and warm reads come back) even across processes that never
        share a cache object.  The derived tiers are memoized on this
        config, so repeated calls (every plan build re-applies this) hand
        back the *same* memory tiers instead of silently stacking a fresh
        pair per run — repeated runs of one config share their memory tier
        and report coherent hit counters.
        """
        if self.store is None or (self.cache is not None
                                  and self.unit_cache is not None):
            return self
        with _STORE_TIER_LOCK:  # configs are shared across pool threads
            if self._store_tiers is None \
                    or self._store_tiers[0] is not self.store:
                self._store_tiers = (self.store,
                                     HypothesisCache(store=self.store),
                                     UnitBehaviorCache(store=self.store))
            _, hyp_tier, unit_tier = self._store_tiers
        return dataclasses.replace(
            self,
            cache=self.cache or hyp_tier,
            unit_cache=self.unit_cache or unit_tier)

    def threshold_for(self, score_id: str) -> float:
        if isinstance(self.error_threshold, (int, float)):
            return float(self.error_threshold)
        table = dict(DEFAULT_THRESHOLDS)
        if isinstance(self.error_threshold, dict):
            table.update(self.error_threshold)
        prefix = score_id.split(":")[0]
        return table.get(prefix, FALLBACK_THRESHOLD)
