"""Shared fixtures: tiny workloads and pre-trained models.

Session-scoped so expensive artifacts (trained models, sampled corpora) are
built once per test run.  Sizes are deliberately small -- tests check
behavior and invariants, not score quality; the benchmarks exercise
realistic scales.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro import Session
from repro.core import schedulers
from repro.data import generate_parens_workload, generate_sql_workload
from repro.hypotheses import CharSetHypothesis, grammar_hypotheses
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.nn import CharLSTMModel, SpecializedLSTMModel, TrainConfig, train_model
from repro.util.rng import new_rng


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end tests (subprocess runs)")
    # race amplification: a short thread switch interval (e.g. 1e-6 s)
    # makes races that hide behind the default 5 ms show up
    interval = os.environ.get("REPRO_SWITCH_INTERVAL")
    if interval:
        sys.setswitchinterval(float(interval))


@pytest.fixture
def fake_cpu_count(monkeypatch):
    """Make host shape a test parameter: ``fake_cpu_count(n)`` pins
    ``usable_cpus()`` — and with it ``default_scheduler()``'s choice,
    unless ``REPRO_SCHEDULER`` forces one, and both pools' default size —
    for the rest of the test."""
    def fake(n: int) -> None:
        monkeypatch.setattr(schedulers, "usable_cpus", lambda: n)
    return fake


@pytest.fixture
def hand_built_session():
    """``hand_built_session(db, models, hypotheses, datasets, **kwargs)``:
    a :class:`Session` over a hand-built catalog ``db``.  The live objects
    (``models`` / ``datasets`` by name, ``hypotheses`` as a list) register
    with ``catalog=False``, so SQL statements join exactly the rows the
    test created.  Every session built is closed at teardown."""
    opened: list[Session] = []

    def build(db, models, hypotheses, datasets, **kwargs) -> Session:
        session = Session(db=db, **kwargs)
        opened.append(session)
        for mid, model in models.items():
            session.register_model(mid, model, catalog=False)
        session.register_hypotheses(hypotheses, catalog=False)
        for did, dataset in datasets.items():
            session.register_dataset(did, dataset, catalog=False)
        return session

    yield build
    for session in opened:
        session.close()


@pytest.fixture(scope="session")
def sql_workload():
    return generate_sql_workload("default", n_queries=30, window=30,
                                 stride=5, seed=11)


@pytest.fixture(scope="module")
def hyps72(sql_workload):
    """The benchmark's hypothesis set over the test workload: every
    grammar rule plus the SQL keywords (fresh objects per module)."""
    wl = sql_workload
    return grammar_hypotheses(wl.grammar, wl.queries, wl.trees,
                              mode="derivation") + sql_keyword_hypotheses()


@pytest.fixture(scope="session")
def small_sql_workload():
    return generate_sql_workload("small", n_queries=12, window=20,
                                 stride=5, seed=5, max_records=100)


@pytest.fixture(scope="session")
def trained_sql_model(sql_workload):
    model = CharLSTMModel(len(sql_workload.vocab), n_units=16,
                          rng=new_rng(1), model_id="sql_test_model")
    train_model(model, sql_workload.dataset.symbols, sql_workload.targets,
                TrainConfig(epochs=3, batch_size=64, lr=3e-3, patience=5))
    return model


@pytest.fixture(scope="session")
def parens_workload():
    return generate_parens_workload(n_strings=80, window=16, stride=3,
                                    seed=7)


@pytest.fixture(scope="session")
def specialized_parens_model(parens_workload):
    wl = parens_workload
    hyp = CharSetHypothesis("parens", "()")
    aux = hyp.extract(wl.dataset)
    model = SpecializedLSTMModel(len(wl.vocab), 16, new_rng(3),
                                 specialized_units=[0, 1, 2, 3], weight=0.8,
                                 model_id="specialized_test_model")
    train_model(model, wl.dataset.symbols, wl.targets,
                TrainConfig(epochs=20, lr=5e-3, patience=25),
                aux_behavior=aux)
    return model


@pytest.fixture
def rng():
    return new_rng(123)


@pytest.fixture
def synthetic_behaviors(rng):
    """(units, hyps) matrices with known structure for measure tests.

    Unit 0 tracks hypothesis 0 exactly (scaled); unit 1 noisily; the rest
    are independent noise.  Hypothesis 1 is unrelated to every unit.
    """
    n = 3000
    h0 = (rng.random(n) > 0.7).astype(float)
    h1 = (rng.random(n) > 0.5).astype(float)
    units = rng.standard_normal((n, 5)) * 0.3
    units[:, 0] += 2.0 * h0
    units[:, 1] += 0.7 * h0
    hyps = np.stack([h0, h1], axis=1)
    return units, hyps
