"""Execution knobs of one inspection run (the engine's pieces are
introduced in :mod:`repro.core.pipeline`)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache import HypothesisCache, UnitBehaviorCache
from repro.core.schedulers import _SCHEDULERS, Scheduler

MODES = ("streaming", "materialized", "full")

#: default convergence thresholds (Section 6.2: e=0.025 for correlation,
#: 0.01 for logistic regression; 0.01 elsewhere).
DEFAULT_THRESHOLDS = {"corr": 0.025, "logreg": 0.01}
FALLBACK_THRESHOLD = 0.01


@dataclass
class InspectConfig:
    """Execution knobs for one inspection run."""

    mode: str = "streaming"
    early_stop: bool = True
    block_size: int = 512                    # records per block (paper: 512)
    error_threshold: float | dict | None = None
    shuffle: bool = True
    seed: int = 0
    #: the memory tiers.  A run's disk tier is the ``DiskBehaviorStore``
    #: they were built over (``HypothesisCache(store=s)``,
    #: ``UnitBehaviorCache(store=s)``; a ``Session`` builds the pair): the
    #: run commits it once, and a config names it nowhere else.  Runs
    #: sharing a unit tier sweep each cold (model, extractor) pair once,
    #: however many arrive together (``UnitBehaviorCache.extract``)
    cache: HypothesisCache | None = None     # hypothesis-behavior cache
    unit_cache: UnitBehaviorCache | None = None
    scheduler: Scheduler | str | None = None  # None -> serial
    max_records: int | None = None

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

    def threshold_for(self, score_id: str) -> float:
        if isinstance(self.error_threshold, (int, float)):
            return float(self.error_threshold)
        table = dict(DEFAULT_THRESHOLDS)
        if isinstance(self.error_threshold, dict):
            table.update(self.error_threshold)
        prefix = score_id.split(":")[0]
        return table.get(prefix, FALLBACK_THRESHOLD)
