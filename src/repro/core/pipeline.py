"""The plan-based inspection engine: extraction + measures as operators.

An inspection run compiles into an :class:`InspectionPlan` of explicit
operators, mirroring Section 5's view of neural inspection as a
query-optimizable workload:

* :class:`BehaviorSource` — produces aligned unit/hypothesis behavior
  blocks.  The paper's three designs are *configurations* of this one
  operator: ``full`` and ``materialized`` extract everything up front
  (Section 5.1.2), ``streaming`` extracts lazily per block and narrows unit
  extraction to the units still-active groups need (Section 5.2.3).  Both
  behavior sides can be served from caches (:class:`HypothesisCache` /
  :class:`UnitBehaviorCache`).
* :class:`ScoreTask` — one (unit group, measure) pair driving an
  incremental :class:`~repro.measures.base.MeasureState`.  Measures whose
  statistics factor across hypothesis columns converge *per hypothesis*:
  a converged column freezes its scores and drops out of ``process_block``
  compute, instead of the coarse max-over-all-pairs criterion.
* :class:`Scheduler` — executes independent operator invocations.  The
  serial scheduler reproduces single-threaded execution exactly; the
  thread-pool scheduler parallelizes unit extraction across (model,
  extractor) pairs and score updates across tasks (numpy releases the GIL,
  so multi-model workloads scale across cores) while producing bit-identical
  results.  The process-pool scheduler goes further: cold extraction is
  *described* as picklable shard tasks (:mod:`repro.core.shard`) and
  executed across worker processes, with the mmap'd disk store as the
  exchange medium — scoring stays on the coordinator, so frames remain
  bit-identical to serial there too.

The pieces live in :mod:`~repro.core.schedulers`, :mod:`~repro.core.config`,
:mod:`~repro.core.source` and :mod:`~repro.core.plan`; this module is the
import surface over them.  A run under :func:`repro.util.trace.tracing`
reports its wall time as ``unit_extraction``, ``hypothesis_extraction`` and
``inspection`` spans, Figure 8's runtime breakdown.
"""

from __future__ import annotations

from repro.core.config import (DEFAULT_THRESHOLDS, FALLBACK_THRESHOLD, MODES,
                               InspectConfig)
from repro.core.plan import GroupMeasureOutcome, InspectionPlan, ScoreTask
from repro.core.schedulers import (_SCHEDULERS, ProcessPoolScheduler,
                                   Scheduler, SerialScheduler,
                                   ThreadPoolScheduler, _resolve_scheduler,
                                   default_scheduler)
from repro.core.source import BehaviorSource

__all__ = ["DEFAULT_THRESHOLDS", "FALLBACK_THRESHOLD", "MODES",
           "BehaviorSource", "GroupMeasureOutcome", "InspectConfig",
           "InspectionPlan", "ProcessPoolScheduler", "Scheduler", "ScoreTask",
           "SerialScheduler", "ThreadPoolScheduler", "_SCHEDULERS",
           "_resolve_scheduler", "default_scheduler"]
