"""Failure-injection and edge-case tests: the engine must fail loudly on
malformed inputs and stay numerically sane on degenerate data."""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro import (InspectConfig, InspectionPlan, Session,
                   ThreadPoolScheduler, UnitGroup, inspect)
from repro.extract import RnnActivationExtractor
from repro.extract.base import Extractor
from repro.hypotheses import FunctionHypothesis, HypothesisFunction
from repro.hypotheses.base import extract_columns
from repro.hypotheses.library import (KeywordHypothesis,
                                      sql_keyword_hypotheses)
from repro.measures import (CorrelationScore, DiffMeansScore, JaccardScore,
                            LinearProbeScore, LogRegressionScore,
                            MutualInfoScore)
from repro.nn import CharLSTMModel
from repro.util.rng import new_rng
from repro.util.testing import CountingForwardModel


class _BrokenExtractor(Extractor):
    """Returns behaviors with the wrong row count."""

    def n_units(self, model) -> int:
        return model.n_units

    def raw_states(self, model, records):
        # wrong: must be (n_records, ns, n_units)
        return np.zeros((3, 1, model.n_units))


class TestMalformedInputs:
    def test_misaligned_extractor_rejected(self, trained_sql_model,
                                           sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT",))
        with pytest.raises(ValueError, match="row mismatch"):
            inspect([trained_sql_model], sql_workload.dataset,
                    [CorrelationScore()], hyps,
                    extractor=_BrokenExtractor(),
                    config=InspectConfig(mode="streaming",
                                         max_records=20))

    def test_negative_unit_ids_rejected(self, trained_sql_model):
        # numpy would wrap -1 to the last unit and report h_unit_id = -1
        with pytest.raises(ValueError, match="'wrapped'.*negative"):
            UnitGroup(model=trained_sql_model, unit_ids=[-1, 0],
                      name="wrapped")

    def test_unit_ids_past_the_extractor_width_rejected(
            self, trained_sql_model, sql_workload):
        model = CountingForwardModel(trained_sql_model)
        group = UnitGroup(model=model, unit_ids=[0, model.n_units],
                          name="too_wide")
        with pytest.raises(ValueError, match="'too_wide'.*16 units"):
            InspectionPlan.build(
                [group], sql_workload.dataset, [CorrelationScore()],
                sql_keyword_hypotheses(("SELECT",)),
                RnnActivationExtractor(), InspectConfig(max_records=20))
        assert model.forward_calls == 0

    def test_session_query_rejects_negative_units_before_extraction(
            self, trained_sql_model, sql_workload):
        model = CountingForwardModel(trained_sql_model)
        with Session() as session:
            query = (session.inspect(model, sql_workload.dataset)
                     .using("corr")
                     .hypotheses(sql_keyword_hypotheses(("SELECT",)))
                     .where(units=[-1]))
            with pytest.raises(ValueError, match="negative"):
                query.run()
        assert model.forward_calls == 0

    def test_hypothesis_wrong_length_rejected(self, trained_sql_model,
                                              sql_workload):
        bad = FunctionHypothesis("bad", lambda text: np.zeros(3))
        with pytest.raises(ValueError, match="behaviors"):
            inspect([trained_sql_model], sql_workload.dataset,
                    [CorrelationScore()], [bad],
                    config=InspectConfig(max_records=10))

    def test_hypothesis_raising_mid_stream_propagates(self, trained_sql_model,
                                                      sql_workload):
        calls = {"n": 0}

        def flaky(text):
            calls["n"] += 1
            if calls["n"] > 5:
                raise RuntimeError("annotation service down")
            return np.zeros(len(text))

        hyp = FunctionHypothesis("flaky", flaky)
        with pytest.raises(RuntimeError, match="annotation service"):
            inspect([trained_sql_model], sql_workload.dataset,
                    [CorrelationScore()], [hyp],
                    config=InspectConfig(mode="streaming", block_size=4,
                                         max_records=40))

    def test_nan_behaviors_do_not_crash_correlation(self):
        # NaN activations (diverged model) must not silently poison scores
        units = np.zeros((100, 2))
        units[:, 1] = np.nan
        hyps = np.ones((100, 1))
        hyps[:50] = 0.0
        result = CorrelationScore().compute(units, hyps)
        assert result.unit_scores[0, 0] == 0.0  # constant unit stays defined

    def test_non_numeric_hypothesis_output_rejected(self, sql_workload):
        bad = FunctionHypothesis(
            "strings", lambda text: np.array(list(text)))
        with pytest.raises(ValueError):
            bad.extract(sql_workload.dataset, [0])


class TestDegenerateData:
    def test_all_measures_survive_constant_behaviors(self):
        units = np.ones((600, 3))
        hyps = np.zeros((600, 2))
        hyps[:300, 0] = 1.0
        for measure in (CorrelationScore(), DiffMeansScore(),
                        MutualInfoScore(calibration_rows=128),
                        JaccardScore(calibration_rows=128),
                        LinearProbeScore(),
                        LogRegressionScore(epochs=1, cv_folds=2)):
            result = measure.compute(units, hyps)
            assert np.isfinite(result.unit_scores).all(), measure.score_id
            if result.group_scores is not None:
                assert np.isfinite(result.group_scores).all(), \
                    measure.score_id

    def test_single_record_dataset(self, trained_sql_model, sql_workload):
        tiny = sql_workload.dataset.head(1)
        frame = inspect([trained_sql_model], tiny, [CorrelationScore()],
                        sql_keyword_hypotheses(("SELECT",)),
                        config=InspectConfig(mode="full"))
        assert len(frame) == trained_sql_model.n_units

    def test_empty_unit_group_rejected(self, trained_sql_model):
        with pytest.raises(ValueError, match="no units"):
            UnitGroup(model=trained_sql_model,
                      unit_ids=np.array([], dtype=int), name="empty")

    def test_extreme_activation_magnitudes(self):
        rng = np.random.default_rng(0)
        units = rng.standard_normal((500, 2)) * 1e12
        hyps = (rng.random((500, 1)) > 0.5).astype(float)
        result = CorrelationScore().compute(units, hyps)
        assert np.isfinite(result.unit_scores).all()
        assert np.all(np.abs(result.unit_scores) <= 1.0 + 1e-9)

    def test_duplicate_rows_do_not_break_probe(self):
        units = np.tile(np.array([[1.0, 0.0]]), (400, 1))
        units[200:] = [0.0, 1.0]
        hyps = np.zeros((400, 1))
        hyps[200:] = 1.0
        result = LogRegressionScore(epochs=3, cv_folds=2).compute(units,
                                                                  hyps)
        assert result.group_scores[0] > 0.9  # perfectly separable

    def test_hypothesis_all_positive_class(self):
        units = np.random.default_rng(1).standard_normal((300, 2))
        hyps = np.ones((300, 1))
        result = DiffMeansScore().compute(units, hyps)
        assert np.all(result.unit_scores == 0.0)  # undefined contrast -> 0


# ----------------------------------------------------------------------
# hypothesis families and fanned-out sweeps: right frame or typed error
# ----------------------------------------------------------------------
class _SymbolFamily:
    """Labels "this symbol is s" for all of its members in one pass; its
    kernel can be broken on demand."""

    fault = None    # None | "raise" | "shape" | "dtype"

    def extract_block(self, members, dataset, indices):
        if self.fault == "raise":
            raise RuntimeError("label service down")
        symbols = dataset.symbols[indices]
        block = np.stack([symbols == m.symbol for m in members],
                         axis=2).astype(np.uint8)
        if self.fault == "shape":
            return block[:, :-1]
        if self.fault == "dtype":
            return block.astype(str)
        return block


class _SymbolIs(HypothesisFunction):
    def __init__(self, symbol, family):
        super().__init__(f"is:{symbol}")
        self.symbol = symbol
        self._family = family

    family = property(lambda self: self._family)

    def extract(self, dataset, indices=None):
        return extract_columns([self], dataset, indices)[:, :, 0]


class _LoggingModel(CountingForwardModel):
    """Logs each sweep's thread, start and end; can be slowed or armed to
    fail on its n-th sweep."""

    def __init__(self, model, log, delay=0.0, fail_on=None):
        super().__init__(model)
        self.log, self.delay, self.fail_on = log, delay, fail_on

    def hidden_states(self, ids):
        self.log.append(("start", self.model_id, threading.get_ident()))
        try:
            time.sleep(self.delay)
            if self.forward_calls + 1 == self.fail_on:
                self.forward_calls += 1
                raise RuntimeError(f"{self.model_id}: device lost")
            return super().hidden_states(ids)
        finally:
            self.log.append(("end", self.model_id, threading.get_ident()))


def _lstm(sql_workload, seed):
    return CharLSTMModel(len(sql_workload.vocab), n_units=8,
                         rng=new_rng(seed), model_id=f"m{seed}")


class TestFamilyFailures:
    N_RECORDS, BLOCK = 60, 30

    def _query(self, session, trained_sql_model, sql_workload, hyps):
        return (session.inspect(trained_sql_model, sql_workload.dataset)
                .using("corr").hypotheses(hyps))

    @pytest.mark.parametrize("fault, reason", [
        ("raise", "label service down"), ("shape", "block, not numeric"),
        ("dtype", "block, not numeric")])
    def test_a_broken_family_is_a_typed_error_and_leaves_no_trace(
            self, trained_sql_model, sql_workload, tmp_path, fault, reason):
        family = _SymbolFamily()
        hyps = ([_SymbolIs(s, family) for s in (3, 5, 8)]
                + sql_keyword_hypotheses(("SELECT", "FROM")))
        config = InspectConfig(early_stop=False, block_size=self.BLOCK,
                               max_records=self.N_RECORDS)
        with Session(config=config, scheduler="serial") as session:
            want = self._query(session, trained_sql_model, sql_workload,
                               hyps).run()
        with Session(str(tmp_path / "store"), config=config,
                     scheduler="serial") as session:
            query = self._query(session, trained_sql_model, sql_workload,
                                hyps)
            family.fault = fault
            with pytest.raises(ValueError, match=reason) as info:
                query.run()
            assert "_SymbolFamily" in str(info.value)
            assert "['is:3', 'is:5', 'is:8']" in str(info.value)
            # nothing of those columns reached the memory tier or the store
            assert session.stats()["hypothesis_cache"]["extractions"] == 0
            assert not any(arena.filled.any()
                           for arena in session.hyp_cache._arenas.values())
            assert not [key for key in session.store.keys()
                        if key.startswith("panel/")]
            # the next statement re-extracts and returns the serial frame
            family.fault = None
            assert query.run() == want
            assert session.stats()["hypothesis_cache"]["extractions"] \
                == len(hyps) * (self.N_RECORDS // self.BLOCK)


class TestFanOut:
    def _session(self, models, sql_workload, hyps, store=None):
        config = InspectConfig(early_stop=False, block_size=20,
                               max_records=60)
        session = Session(store, config=config,
                          scheduler=ThreadPoolScheduler(max_workers=2))
        session.register_dataset("d0", sql_workload.dataset)
        session.register_hypotheses(hyps, name="keywords")
        for model in models:
            session.register_model(model.model_id, model)
        return session

    def test_every_worker_sweeps_and_block_0_starts_under_the_labelling(
            self, sql_workload):
        """A cold 4-model, 2-block statement on two workers."""
        log: list = []

        class LoggingKeyword(KeywordHypothesis):
            def extract(self, dataset, indices=None):
                time.sleep(0.05)        # long enough for a worker to start
                rows = super().extract(dataset, indices)
                log.append(("labelled", self.name, threading.get_ident()))
                return rows

        hyps = sql_keyword_hypotheses(("SELECT",)) + [LoggingKeyword("FROM")]
        seeds = (1, 2, 3, 4)
        config = InspectConfig(early_stop=False, block_size=30,
                               max_records=60)
        with Session(config=config, scheduler="serial") as serial:
            serial.register_dataset("d0", sql_workload.dataset)
            want = (serial.inspect([_lstm(sql_workload, s) for s in seeds],
                                   "d0").using("corr").hypotheses(hyps).run())
        del log[:]
        models = [_LoggingModel(_lstm(sql_workload, s), log, delay=0.02)
                  for s in seeds]
        with Session(config=config,
                     scheduler=ThreadPoolScheduler(max_workers=2)) as session:
            session.register_dataset("d0", sql_workload.dataset)
            got = session.inspect(models, "d0").using("corr") \
                .hypotheses(hyps).run()
        assert got == want
        assert [m.forward_calls for m in models] == [2, 2, 2, 2]
        events = [event for event, _, _ in log]
        # block 0's first sweep started while block 0 was being labelled
        assert events.index("start") < events.index("labelled")
        # block 1 (each model's second sweep) ran on both workers
        starts = [(mid, thread) for event, mid, thread in log
                  if event == "start"]
        block_1 = {thread for i, (mid, thread) in enumerate(starts)
                   if mid in [m for m, _ in starts[:i]]}
        assert len(block_1) == 2
        assert threading.get_ident() not in {t for _, t in starts}

    def test_one_failing_sweep_fails_the_statement_and_nothing_leaks(
            self, sql_workload, tmp_path):
        hyps = sql_keyword_hypotheses(("SELECT", "FROM"))
        log: list = []
        # the failing pair is gathered first, while its siblings still run
        models = [_LoggingModel(_lstm(sql_workload, 2), log, fail_on=2),
                  _LoggingModel(_lstm(sql_workload, 1), log, delay=0.05),
                  _LoggingModel(_lstm(sql_workload, 3), log, delay=0.05)]
        names = [m.model_id for m in models]
        with Session(config=InspectConfig(early_stop=False, block_size=20,
                                          max_records=60),
                     scheduler="serial") as serial:
            serial.register_dataset("d0", sql_workload.dataset)
            want = (serial.inspect([_lstm(sql_workload, s) for s in (2, 1, 3)],
                                   "d0").using("corr").hypotheses(hyps).run())
        session = self._session(models, sql_workload, hyps,
                                store=str(tmp_path / "store"))
        with session:
            scope = session.store.deferred_commits

            @contextlib.contextmanager
            def logged_scope():
                try:
                    with scope():
                        yield
                finally:
                    log.append(("scope closed", None, None))

            session.store.deferred_commits = logged_scope
            query = session.inspect(names, "d0").using("corr").hypotheses(hyps)
            with pytest.raises(RuntimeError, match="m2: device lost"):
                query.run()
            # every sweep that started also ended inside the store scope
            assert log[-1][0] == "scope closed"
            events = [event for event, _, _ in log]
            assert events.count("start") == events.count("end") >= 4
            # the pool survives: the same statement now runs to the end
            pool = session.scheduler
            models[0].fail_on = None
            assert query.run() == want
            assert session.scheduler is pool

    @pytest.mark.parametrize("mode, fail_on", [("streaming", 2),
                                               ("materialized", 1)])
    def test_a_failing_sweep_stops_an_inline_scheduler_at_once(
            self, sql_workload, mode, fail_on):
        """Serial execution sweeps the pairs in order: the first failure
        ends the statement and no later pair runs its sweep."""
        hyps = sql_keyword_hypotheses(("SELECT", "FROM"))
        models = [_LoggingModel(_lstm(sql_workload, 2), [], fail_on=fail_on),
                  _LoggingModel(_lstm(sql_workload, 1), []),
                  _LoggingModel(_lstm(sql_workload, 3), [])]
        config = InspectConfig(mode=mode, early_stop=False, block_size=20,
                               max_records=60)
        with Session(config=config, scheduler="serial") as session:
            session.register_dataset("d0", sql_workload.dataset)
            with pytest.raises(RuntimeError, match="m2: device lost"):
                session.inspect(models, "d0").using("corr") \
                    .hypotheses(hyps).run()
        assert [m.forward_calls for m in models] \
            == [fail_on, fail_on - 1, fail_on - 1]

    def test_an_abandoned_stream_swept_exactly_its_blocks_times_pairs(
            self, sql_workload):
        hyps = sql_keyword_hypotheses(("SELECT", "FROM"))
        log: list = []
        models = [_LoggingModel(_lstm(sql_workload, s), log)
                  for s in (1, 2, 3)]
        with self._session(models, sql_workload, hyps) as session:
            stream = (session.inspect([m.model_id for m in models], "d0")
                      .using("corr").hypotheses(hyps).stream())
            next(stream)
            next(stream)
            stream.close()
            time.sleep(0.2)     # a stray sweep would land now
            assert [m.forward_calls for m in models] == [2, 2, 2]


class TestCloseUnderFailure:
    def test_a_failing_flush_still_commits_the_catalog_and_stops_the_pool(
            self, trained_sql_model, sql_workload, tmp_path, monkeypatch):
        """``close()`` is three steps — flush the store, close the
        catalog, stop the pool — and a full disk under the first must
        not skip the other two (the session is marked closed either way,
        so nobody could run them later)."""
        import errno
        hyps = sql_keyword_hypotheses(("SELECT", "FROM"))
        session = Session(str(tmp_path / "store"), scheduler="threads",
                          db_path=str(tmp_path / "db"),
                          config=InspectConfig(early_stop=False,
                                               block_size=20,
                                               max_records=40))
        session.register_model("m0", trained_sql_model)
        session.register_dataset("d0", sql_workload.dataset)
        session.inspect("m0", "d0").using("corr").hypotheses(hyps).run()
        workers = list(session.scheduler._pool._threads)
        assert workers and all(t.is_alive() for t in workers)
        db_closed = []
        db_close = session.db.close
        monkeypatch.setattr(session.db, "close",
                            lambda: (db_closed.append(True), db_close()))

        def full_disk():
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(session.store, "flush", full_disk)
        with pytest.raises(OSError) as raised:
            session.close()
        assert raised.value.errno == errno.ENOSPC
        assert session.closed
        assert db_closed == [True]
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)
        assert session.scheduler._pool is None
        # committed: a new handle on the directory reads the catalog back
        from repro.db import Database
        assert "models" in Database(str(tmp_path / "db")).tables
        session.close()     # and a second close is still a no-op
