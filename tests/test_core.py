"""Tests for the core engine: groups, cache, pipeline modes, inspect API."""

import numpy as np
import pytest

from repro import (HypothesisCache, InspectConfig, Session, UnitGroup,
                   all_units_group, inspect, top_units)
from repro.core.pipeline import InspectionPlan
from repro.extract import RnnActivationExtractor
from repro.hypotheses import CharSetHypothesis, KeywordHypothesis
from repro.measures import (CorrelationScore, DiffMeansScore,
                            LogRegressionScore)


@pytest.fixture
def hyps():
    return [KeywordHypothesis("SELECT"), KeywordHypothesis("FROM"),
            CharSetHypothesis("space", " ")]


class TestUnitGroup:
    def test_all_units_group(self, trained_sql_model):
        group = all_units_group(trained_sql_model)
        assert group.n_units == trained_sql_model.n_units
        assert group.model_id == "sql_test_model"

    def test_explicit_subset(self, trained_sql_model):
        group = UnitGroup(model=trained_sql_model, unit_ids=[1, 3],
                          name="pair")
        assert group.n_units == 2

    def test_rejects_2d_unit_ids(self, trained_sql_model):
        with pytest.raises(ValueError):
            UnitGroup(model=trained_sql_model,
                      unit_ids=np.zeros((2, 2), dtype=int))


class TestHypothesisCache:
    def test_first_access_misses_then_hits(self, sql_workload, hyps):
        cache = HypothesisCache()
        idx = np.arange(5)
        a = cache.extract(hyps[0], sql_workload.dataset, idx)
        assert cache.misses == 5 and cache.hits == 0
        b = cache.extract(hyps[0], sql_workload.dataset, idx)
        assert cache.hits == 5
        assert np.array_equal(a, b)

    def test_cached_equals_direct(self, sql_workload, hyps):
        cache = HypothesisCache()
        idx = np.arange(8)
        cached = cache.extract(hyps[1], sql_workload.dataset, idx)
        direct = hyps[1].extract(sql_workload.dataset, idx)
        assert np.array_equal(cached, direct)

    def test_partial_fill_then_extend(self, sql_workload, hyps):
        cache = HypothesisCache()
        cache.extract(hyps[0], sql_workload.dataset, np.arange(3))
        cache.extract(hyps[0], sql_workload.dataset, np.arange(6))
        assert cache.misses == 6  # only 3 new records computed
        assert cache.hits == 3

    def test_keyed_by_hypothesis(self, sql_workload, hyps):
        cache = HypothesisCache()
        cache.extract(hyps[0], sql_workload.dataset, np.arange(2))
        cache.extract(hyps[1], sql_workload.dataset, np.arange(2))
        assert cache.stats()["entries"] == 2

    def test_eviction_under_pressure(self, sql_workload, hyps):
        tiny = HypothesisCache(max_bytes=1)
        tiny.extract(hyps[0], sql_workload.dataset, np.arange(2))
        tiny.extract(hyps[1], sql_workload.dataset, np.arange(2))
        assert tiny.stats()["entries"] == 1  # evicted down to one

    def test_clear(self, sql_workload, hyps):
        cache = HypothesisCache()
        cache.extract(hyps[0], sql_workload.dataset, np.arange(2))
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "disk_hits": 0,
                                 "disk_misses": 0, "extractions": 0,
                                 "entries": 0, "bytes": 0,
                                 "stat_hits": 0, "stat_misses": 0,
                                 "stat_waits": 0, "panel_waits": 0}

    def test_running_byte_total_matches_entries(self, sql_workload, hyps):
        entry_bytes = 8 * sql_workload.dataset.n_records * \
            sql_workload.dataset.n_symbols + sql_workload.dataset.n_records
        cache = HypothesisCache(max_bytes=2 * entry_bytes)
        for hyp in hyps:  # third insert must evict the first entry
            cache.extract(hyp, sql_workload.dataset, np.arange(2))
            assert cache.stats()["bytes"] == sum(
                e.nbytes for e in cache._entries.values())
        assert cache.stats()["entries"] == 2


class _RecordingExtractor(RnnActivationExtractor):
    """Records the width of every raw sweep the engine runs."""

    def __init__(self):
        super().__init__()
        self._sweep_widths = []

    def raw_rows(self, model, records):
        rows = super().raw_rows(model, records)
        self._sweep_widths.append(rows.shape[1])
        return rows


def _overlapping_groups(model):
    return [UnitGroup(model=model, unit_ids=[1, 3], name="a"),
            UnitGroup(model=model, unit_ids=[3, 5], name="b")]


def _frame_rows(frame):
    return list(zip(frame["group_id"], frame["hyp_id"], frame["h_unit_id"],
                    frame["val"], frame["n_rows_seen"], frame["converged"]))


class TestTierlessExtraction:
    def test_one_full_width_sweep_per_block_per_pair(
            self, trained_sql_model, sql_workload, hyps):
        """Groups over one (model, raw sweep) pair share one sweep per
        block, at the sweep's full width whichever units they read."""
        extractor = _RecordingExtractor()
        config = InspectConfig(mode="streaming", block_size=16,
                               early_stop=False, max_records=40)
        inspect(None, sql_workload.dataset, CorrelationScore(), hyps,
                unit_groups=_overlapping_groups(trained_sql_model),
                extractor=extractor, config=config)
        assert extractor._sweep_widths == [trained_sql_model.n_units] * 3

    def test_frames_equal_a_tiered_session(self, trained_sql_model,
                                           sql_workload, hyps):
        """The tier-less view and the unit tier's view are one view: the
        frames agree bit for bit."""
        groups = _overlapping_groups(trained_sql_model)
        knobs = dict(mode="streaming", block_size=16, early_stop=False,
                     max_records=40)
        tierless = inspect(None, sql_workload.dataset,
                           [CorrelationScore(), DiffMeansScore()], hyps,
                           unit_groups=groups,
                           config=InspectConfig(**knobs))
        with Session(scheduler="serial") as session:
            tiered = (session.inspect(dataset=sql_workload.dataset)
                      .using(CorrelationScore(), DiffMeansScore())
                      .hypotheses(hyps).where(groups=groups)
                      .with_config(**knobs).run())
            assert session.unit_cache.stats()["extractions"] == 3
        assert _frame_rows(tierless) == _frame_rows(tiered)

    def test_inspect_one_liner_is_the_plan_exactly(self, trained_sql_model,
                                                   sql_workload, hyps):
        """``inspect()`` runs the config as given: no cache appears behind
        the caller's back, so every block is swept afresh, and its frame
        equals the plan's outcomes."""
        extractor = _RecordingExtractor()
        groups = [UnitGroup(model=trained_sql_model, unit_ids=[1, 3],
                            name="a")]
        config = InspectConfig(mode="streaming", block_size=32,
                               early_stop=False, max_records=40)
        outcomes = inspect(None, sql_workload.dataset, CorrelationScore(),
                           hyps, unit_groups=groups, extractor=extractor,
                           config=config, as_frame=False)
        assert config.cache is None and config.unit_cache is None
        assert len(extractor._sweep_widths) == 2
        plan = InspectionPlan.build(groups, sql_workload.dataset,
                                    [CorrelationScore()], hyps,
                                    RnnActivationExtractor(), config)
        assert np.array_equal(outcomes[0].result.unit_scores,
                              plan.execute()[0].result.unit_scores)
        # models= (one model, no explicit groups) covers every unit
        frame = inspect(trained_sql_model, sql_workload.dataset,
                        [CorrelationScore()], hyps, config=config)
        assert set(frame["h_unit_id"]) == set(range(
            trained_sql_model.n_units))


class TestInspectConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            InspectConfig(mode="warp")

    def test_default_thresholds(self):
        cfg = InspectConfig()
        assert cfg.threshold_for("corr:pearson") == 0.025
        assert cfg.threshold_for("logreg:l1") == 0.01
        assert cfg.threshold_for("mutual_info") == 0.01

    def test_scalar_threshold_overrides_all(self):
        cfg = InspectConfig(error_threshold=0.5)
        assert cfg.threshold_for("corr:pearson") == 0.5

    def test_dict_threshold_merges(self):
        cfg = InspectConfig(error_threshold={"corr": 0.1})
        assert cfg.threshold_for("corr:pearson") == 0.1
        assert cfg.threshold_for("logreg:l1") == 0.01


class TestInspect:
    def test_frame_schema(self, trained_sql_model, sql_workload, hyps):
        frame = inspect([trained_sql_model], sql_workload.dataset,
                        [CorrelationScore()], hyps,
                        config=InspectConfig(mode="full"))
        assert frame.columns[:5] == ["model_id", "group_id", "score_id",
                                     "hyp_id", "h_unit_id"]
        n_units = trained_sql_model.n_units
        assert len(frame) == n_units * len(hyps)  # no group rows for corr

    def test_group_rows_for_joint_measures(self, trained_sql_model,
                                           sql_workload, hyps):
        frame = inspect([trained_sql_model], sql_workload.dataset,
                        [LogRegressionScore(epochs=1, cv_folds=2)], hyps,
                        config=InspectConfig(mode="full", max_records=40))
        groups = frame.where(kind="group")
        assert len(groups) == len(hyps)
        assert all(u == -1 for u in groups["h_unit_id"])

    def test_modes_agree_on_correlation(self, trained_sql_model,
                                        sql_workload, hyps):
        results = {}
        for mode in ("streaming", "materialized", "full"):
            cfg = InspectConfig(mode=mode, early_stop=False, seed=0)
            frame = inspect([trained_sql_model], sql_workload.dataset,
                            [CorrelationScore()], hyps, config=cfg)
            results[mode] = frame.sort("val")["val"]
        assert np.allclose(results["streaming"], results["full"], atol=1e-9)
        assert np.allclose(results["materialized"], results["full"],
                           atol=1e-9)

    def test_early_stopping_reads_fewer_records(self, trained_sql_model,
                                                sql_workload, hyps):
        lazy = InspectConfig(mode="streaming", early_stop=True,
                             block_size=32, error_threshold=0.15)
        eager = InspectConfig(mode="streaming", early_stop=False,
                              block_size=32)
        out_lazy = inspect([trained_sql_model], sql_workload.dataset,
                           [CorrelationScore()], hyps, config=lazy,
                           as_frame=False)
        out_eager = inspect([trained_sql_model], sql_workload.dataset,
                            [CorrelationScore()], hyps, config=eager,
                            as_frame=False)
        assert out_lazy[0].records_processed < out_eager[0].records_processed
        assert out_lazy[0].result.converged

    def test_multiple_models(self, trained_sql_model, sql_workload, hyps):
        from repro.nn import CharLSTMModel
        from repro.util.rng import new_rng
        other = CharLSTMModel(len(sql_workload.vocab), 16, new_rng(99),
                              model_id="untrained")
        frame = inspect([trained_sql_model, other], sql_workload.dataset,
                        [CorrelationScore()], hyps,
                        config=InspectConfig(mode="full", max_records=30))
        assert set(frame["model_id"]) == {"sql_test_model", "untrained"}

    def test_explicit_unit_groups(self, trained_sql_model, sql_workload,
                                  hyps):
        groups = [UnitGroup(model=trained_sql_model, unit_ids=[0, 1],
                            name="front"),
                  UnitGroup(model=trained_sql_model, unit_ids=[2, 3, 4],
                            name="back")]
        frame = inspect(None, sql_workload.dataset, [CorrelationScore()],
                        hyps, unit_groups=groups,
                        config=InspectConfig(mode="full", max_records=30))
        assert set(frame["group_id"]) == {"front", "back"}
        assert len(frame.where(group_id="front")) == 2 * len(hyps)

    def test_cache_used_by_pipeline(self, trained_sql_model, sql_workload,
                                    hyps):
        cache = HypothesisCache()
        cfg = InspectConfig(mode="streaming", cache=cache, early_stop=False)
        inspect([trained_sql_model], sql_workload.dataset,
                [CorrelationScore()], hyps, config=cfg)
        first_misses = cache.misses
        cfg2 = InspectConfig(mode="streaming", cache=cache, early_stop=False)
        inspect([trained_sql_model], sql_workload.dataset,
                [CorrelationScore()], hyps, config=cfg2)
        assert cache.misses == first_misses  # all hits on the second run

    def test_max_records(self, trained_sql_model, sql_workload, hyps):
        cfg = InspectConfig(mode="streaming", early_stop=False,
                            max_records=20)
        out = inspect([trained_sql_model], sql_workload.dataset,
                      [CorrelationScore()], hyps, config=cfg,
                      as_frame=False)
        assert out[0].records_processed == 20

    def test_requires_inputs(self, sql_workload, hyps):
        with pytest.raises(ValueError):
            inspect(None, sql_workload.dataset, [CorrelationScore()], hyps)

    def test_empty_measures_rejected(self, trained_sql_model, sql_workload,
                                     hyps):
        with pytest.raises(ValueError):
            inspect([trained_sql_model], sql_workload.dataset, [], hyps)

    def test_empty_hypotheses_rejected(self, trained_sql_model,
                                       sql_workload):
        with pytest.raises(ValueError):
            inspect([trained_sql_model], sql_workload.dataset,
                    [CorrelationScore()], [])

    def test_single_measure_and_hypothesis_unwrapped(self, trained_sql_model,
                                                     sql_workload, hyps):
        frame = inspect([trained_sql_model], sql_workload.dataset,
                        CorrelationScore(), hyps[0],
                        config=InspectConfig(mode="full", max_records=20))
        assert len(frame) == trained_sql_model.n_units

    def test_top_units_helper(self, trained_sql_model, sql_workload, hyps):
        frame = inspect([trained_sql_model], sql_workload.dataset,
                        [CorrelationScore()], hyps,
                        config=InspectConfig(mode="full", max_records=40))
        top = top_units(frame, "corr:pearson", "kw:SELECT", k=3)
        assert len(top) == 3
        vals = [abs(v) for v in top["abs_val"]]
        assert vals == sorted(vals, reverse=True)

    def test_multiple_measures_share_extraction(self, trained_sql_model,
                                                sql_workload, hyps):
        cfg = InspectConfig(mode="streaming", early_stop=False)
        frame = inspect([trained_sql_model], sql_workload.dataset,
                        [CorrelationScore(), DiffMeansScore()], hyps,
                        config=cfg)
        assert set(frame["score_id"]) == {"corr:pearson", "diff_means"}
