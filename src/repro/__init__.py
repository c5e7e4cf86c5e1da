"""repro: a reproduction of DeepBase (Sellam et al., SIGMOD 2019).

DeepBase performs Deep Neural Inspection: measuring the statistical affinity
between hidden-unit behaviors of trained neural networks and user-provided
hypothesis functions, through the declarative :func:`inspect` API.

Quick start (the connection-style Session API)::

    from repro import Session
    from repro.data import generate_sql_workload
    from repro.hypotheses import grammar_hypotheses
    from repro.nn import CharLSTMModel, train_model
    from repro.util.rng import new_rng

    wl = generate_sql_workload("default", n_queries=100)
    model = CharLSTMModel(len(wl.vocab), n_units=128, rng=new_rng(0))
    train_model(model, wl.dataset.symbols, wl.targets)
    hyps = grammar_hypotheses(wl.grammar, wl.queries, wl.trees,
                              mode="derivation")
    with Session() as session:
        session.register_model("m0", model)
        session.register_dataset("d0", wl.dataset)
        session.register_hypotheses(hyps)
        frame = (session.inspect("m0", "d0")
                 .using("corr", "logreg_l1")
                 .hypotheses(hyps)
                 .run())

The stateless one-shot :func:`inspect` free function runs the same plan
engine with the config exactly as given (no session resources).
"""

from repro.core.cache import HypothesisCache, UnitBehaviorCache
from repro.core.groups import UnitGroup, all_units_group, layer_groups
from repro.core.inspect import InspectConfig, inspect, top_units
from repro.core.pipeline import (InspectionPlan, Scheduler, SerialScheduler,
                                 ThreadPoolScheduler)
from repro.core.saliency import saliency_frame, top_symbols
from repro.session import InspectionQuery, Session
from repro.store import DiskBehaviorStore
from repro.util.frame import Frame

__version__ = "2.0.0"

__all__ = [
    "DiskBehaviorStore",
    "Frame",
    "HypothesisCache",
    "InspectConfig",
    "InspectionPlan",
    "InspectionQuery",
    "Scheduler",
    "SerialScheduler",
    "Session",
    "ThreadPoolScheduler",
    "UnitBehaviorCache",
    "UnitGroup",
    "__version__",
    "all_units_group",
    "inspect",
    "layer_groups",
    "saliency_frame",
    "top_symbols",
    "top_units",
]
