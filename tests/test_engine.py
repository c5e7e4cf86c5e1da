"""Tests for the plan-based engine: scheduler equivalence, per-hypothesis
freezing, the unit-behavior cache, and plan introspection."""

import numpy as np
import pytest

from repro import (InspectConfig, ThreadPoolScheduler, UnitBehaviorCache,
                   UnitGroup, inspect)
from repro.core.cache import model_fingerprint
from repro.core.pipeline import InspectionPlan, _resolve_scheduler
from repro.extract import RnnActivationExtractor
from repro.extract.base import Extractor
from repro.hypotheses import CharSetHypothesis, KeywordHypothesis
from repro.hypotheses.base import PrecomputedHypothesis
from repro.measures import (CorrelationScore, DiffMeansScore,
                            LogRegressionScore, SpearmanCorrelationScore)
from repro.measures.base import Measure, MeasureState


@pytest.fixture
def hyps():
    return [KeywordHypothesis("SELECT"), KeywordHypothesis("FROM"),
            CharSetHypothesis("space", " ")]


def _frame_tuples(frame):
    """Comparable row tuples (vals kept at full float precision)."""
    return list(zip(frame["model_id"], frame["group_id"], frame["score_id"],
                    frame["hyp_id"], frame["h_unit_id"], frame["val"],
                    frame["kind"], frame["n_rows_seen"], frame["converged"]))


class TestSchedulerEquivalence:
    """Thread-pool execution must be bit-identical to serial execution."""

    @pytest.mark.parametrize("mode", ["streaming", "materialized", "full"])
    def test_serial_vs_threads_identical(self, trained_sql_model,
                                         sql_workload, hyps, mode):
        frames = {}
        for scheduler in ("serial", "threads"):
            cfg = InspectConfig(mode=mode, seed=3, block_size=32,
                                scheduler=scheduler)
            frames[scheduler] = inspect(
                [trained_sql_model], sql_workload.dataset,
                [CorrelationScore(), DiffMeansScore()], hyps, config=cfg)
        assert _frame_tuples(frames["serial"]) == _frame_tuples(
            frames["threads"])

    def test_multi_model_threads_identical(self, trained_sql_model,
                                           sql_workload, hyps):
        from repro.nn import CharLSTMModel
        from repro.util.rng import new_rng
        other = CharLSTMModel(len(sql_workload.vocab), 16, new_rng(4),
                              model_id="second_model")
        frames = {}
        for scheduler in ("serial", "threads"):
            cfg = InspectConfig(mode="streaming", seed=0, block_size=32,
                                scheduler=scheduler, max_records=60)
            frames[scheduler] = inspect(
                [trained_sql_model, other], sql_workload.dataset,
                [CorrelationScore()], hyps, config=cfg)
        assert _frame_tuples(frames["serial"]) == _frame_tuples(
            frames["threads"])

    def test_scheduler_instance_reusable(self, trained_sql_model,
                                         sql_workload, hyps):
        scheduler = ThreadPoolScheduler(max_workers=2)
        try:
            for _ in range(2):
                cfg = InspectConfig(mode="streaming", scheduler=scheduler,
                                    max_records=40)
                frame = inspect([trained_sql_model], sql_workload.dataset,
                                [CorrelationScore()], hyps, config=cfg)
                assert len(frame)
        finally:
            scheduler.shutdown()

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            _resolve_scheduler("warp")


class TestModeEquivalence:
    """All three source configurations agree with the exhaustive result."""

    @pytest.mark.parametrize("measure_cls", [CorrelationScore,
                                             SpearmanCorrelationScore])
    def test_modes_agree(self, trained_sql_model, sql_workload, hyps,
                         measure_cls):
        results = {}
        for mode in ("streaming", "materialized", "full"):
            cfg = InspectConfig(mode=mode, early_stop=False, seed=0)
            frame = inspect([trained_sql_model], sql_workload.dataset,
                            [measure_cls()], hyps, config=cfg)
            results[mode] = np.array(frame.sort("val")["val"], dtype=float)
        assert np.allclose(results["streaming"], results["full"], atol=1e-9)
        assert np.allclose(results["materialized"], results["full"],
                           atol=1e-9)


# ----------------------------------------------------------------------
# synthetic workload with controlled convergence speeds
# ----------------------------------------------------------------------
class _SynthModel:
    model_id = "synth"
    n_units = 4


class _SynthExtractor(Extractor):
    """Every unit tracks the space indicator plus small deterministic noise,
    so a space hypothesis correlates ~1 with all units (fast convergence)
    while an unrelated pseudo-random hypothesis correlates ~0 (slow)."""

    def __init__(self, space_id: int):
        self.space_id = space_id
        self.calls = 0

    def n_units(self, model) -> int:
        return 4

    def raw_states(self, model, records):
        self.calls += 1
        flat = records.reshape(-1).astype(np.float64)
        pos = np.tile(np.arange(records.shape[1]), records.shape[0])
        space = (flat == self.space_id).astype(np.float64)
        units = np.stack(
            [space + 0.05 * _hash_noise(flat, pos, phase)
             for phase in (0.0, 1.0, 2.0, 3.0)], axis=1)
        units[:, 1] *= -2.0  # sign/scale variety; |corr| is unaffected
        return units.reshape(records.shape[0], records.shape[1], 4)


def _hash_noise(flat, pos, phase):
    return np.sin(flat * 12.9898 + pos * 78.233 + phase) * 43758.5453 % 1.0


class _FiringState(MeasureState):
    """Block-local; a column's error falls as its hypothesis fires."""

    _STATS = {"fired": "h"}

    def block_stats(self, units, hyps, h_moments=None):
        return (hyps.sum(axis=0),)

    def column_errors(self):
        return 1.0 / (1.0 + self.fired)

    def error(self):
        return float(self.column_errors().max())

    def unit_scores(self):
        return np.zeros((self.n_units, self.n_hyps))


class _FiringMeasure(Measure):
    score_id = "firing"

    def new_state(self, n_units, n_hyps):
        return _FiringState(n_units, n_hyps)


@pytest.fixture
def synth_setup(sql_workload):
    dataset = sql_workload.dataset
    space_id = int(dataset.vocab.encode(" ")[0])
    n, ns = dataset.symbols.shape
    space = (dataset.symbols == space_id).astype(np.float64)
    rng = np.random.default_rng(99)
    noise = (rng.random((n, ns)) > 0.5).astype(np.float64)
    hyps = [PrecomputedHypothesis("fast:space", space),
            PrecomputedHypothesis("slow:noise", noise)]
    group = UnitGroup(model=_SynthModel(), unit_ids=np.arange(4),
                      name="synth")
    return dataset, space_id, hyps, group


class TestPerHypothesisFreezing:
    def test_fast_column_freezes_with_fewer_rows(self, synth_setup):
        dataset, space_id, hyps, group = synth_setup
        cfg = InspectConfig(mode="streaming", early_stop=True,
                            error_threshold=0.1, block_size=4,
                            shuffle=False)
        frame = inspect(None, dataset, [CorrelationScore()], hyps,
                        unit_groups=[group],
                        extractor=_SynthExtractor(space_id), config=cfg)
        rows_fast = set(frame.where(hyp_id="fast:space")["n_rows_seen"])
        rows_slow = set(frame.where(hyp_id="slow:noise")["n_rows_seen"])
        assert len(rows_fast) == 1 and len(rows_slow) == 1
        assert rows_fast.pop() < rows_slow.pop()
        assert all(frame["converged"])

    def test_frozen_scores_stop_changing(self, synth_setup):
        """A frozen column's final score equals the score at freeze time."""
        dataset, space_id, hyps, group = synth_setup
        cfg = InspectConfig(mode="streaming", early_stop=True,
                            error_threshold=0.1, block_size=4,
                            shuffle=False)
        frame = inspect(None, dataset, [CorrelationScore()], hyps,
                        unit_groups=[group],
                        extractor=_SynthExtractor(space_id), config=cfg)
        fast = frame.where(hyp_id="fast:space").sort("h_unit_id")
        rows_at_freeze = fast["n_rows_seen"][0]
        records_at_freeze = rows_at_freeze // dataset.n_symbols

        # replay the identical unshuffled prefix without early stopping:
        # the frozen scores must match the replay's exactly
        replay_cfg = InspectConfig(mode="streaming", early_stop=False,
                                   block_size=4, shuffle=False,
                                   max_records=records_at_freeze)
        replay = inspect(None, dataset, [CorrelationScore()], hyps,
                         unit_groups=[group],
                         extractor=_SynthExtractor(space_id),
                         config=replay_cfg)
        replay_fast = replay.where(hyp_id="fast:space").sort("h_unit_id")
        assert fast["val"] == replay_fast["val"]

    def test_freezing_skips_extraction_after_all_converge(self, synth_setup):
        dataset, space_id, hyps, group = synth_setup
        eager_ext = _SynthExtractor(space_id)
        lazy_ext = _SynthExtractor(space_id)
        base = dict(mode="streaming", block_size=4, shuffle=False,
                    error_threshold=0.1)
        inspect(None, dataset, [CorrelationScore()], hyps,
                unit_groups=[group], extractor=eager_ext,
                config=InspectConfig(early_stop=False, **base))
        inspect(None, dataset, [CorrelationScore()], hyps,
                unit_groups=[group], extractor=lazy_ext,
                config=InspectConfig(early_stop=True, **base))
        assert lazy_ext.calls < eager_ext.calls

    def test_measure_without_partition_stops_on_the_scalar_criterion(
            self, synth_setup):
        """A measure whose state does not factor across hypothesis columns
        stops as a whole, on max-over-all-pairs convergence: every column
        reports the same rows-seen count, short of the dataset."""
        dataset, space_id, hyps, group = synth_setup
        measure = LogRegressionScore(epochs=1)
        assert not measure.new_state(1, len(hyps)).partitioned
        cfg = InspectConfig(mode="streaming", early_stop=True,
                            error_threshold=0.1, block_size=4,
                            shuffle=False)
        out = inspect(None, dataset, [measure], hyps, unit_groups=[group],
                      extractor=_SynthExtractor(space_id), config=cfg,
                      as_frame=False)
        assert out[0].result.converged
        assert out[0].records_processed < dataset.n_records
        assert len(set(out[0].result.col_rows_seen)) == 1

    def test_user_state_with_column_errors_freezes_columns_one_by_one(
            self, synth_setup):
        """The convergence policy comes from the state, not from a flag on
        the measure: a block-local user state that defines column_errors
        has its columns frozen one by one."""
        dataset, space_id, _, group = synth_setup
        n, ns = dataset.symbols.shape
        rare = np.zeros((n, ns))
        rare[:, 0] = 1.0                      # fires once per record
        hyps = [PrecomputedHypothesis("often", np.ones((n, ns))),
                PrecomputedHypothesis("rare", rare)]
        assert _FiringMeasure().new_state(4, 2).partitioned
        cfg = InspectConfig(mode="streaming", early_stop=True,
                            error_threshold=0.05, block_size=4,
                            shuffle=False)
        frame = inspect(None, dataset, [_FiringMeasure()], hyps,
                        unit_groups=[group],
                        extractor=_SynthExtractor(space_id), config=cfg)
        # 1 / (1 + fired) <= 0.05 once a column fired 19 times: one block
        # of 4 records for "often", five blocks for "rare"
        assert set(frame.where(hyp_id="often")["n_rows_seen"]) == {4 * ns}
        assert set(frame.where(hyp_id="rare")["n_rows_seen"]) == {20 * ns}
        assert all(frame["converged"])

    def test_late_firing_hypothesis_is_not_frozen_at_zero(self, synth_setup):
        """A hypothesis with no contrast yet is vacuous, not converged:
        while any informative column keeps the task alive, the engine must
        keep the vacuous column open so a later block can still score it."""
        dataset, space_id, hyps, group = synth_setup
        n, ns = dataset.symbols.shape
        late = np.zeros((n, ns))
        late[60:] = (dataset.symbols[60:] == space_id)  # silent first blocks
        # the noise hypothesis converges slowly, keeping the task alive
        # well past record 60 where the late hypothesis starts firing
        late_hyps = [PrecomputedHypothesis("late:space", late), hyps[1]]
        cfg = InspectConfig(mode="streaming", early_stop=True,
                            error_threshold=0.025, block_size=4,
                            shuffle=False)
        frame = inspect(None, dataset, [DiffMeansScore()], late_hyps,
                        unit_groups=[group],
                        extractor=_SynthExtractor(space_id), config=cfg)
        late_rows = frame.where(hyp_id="late:space")
        # must NOT have been frozen at 0 by the blocks before record 60
        assert any(abs(v) > 0.1 for v in late_rows["val"])
        assert all(r > 60 * ns for r in late_rows["n_rows_seen"])

    def test_all_vacuous_columns_converge_like_scalar(self, synth_setup):
        """A hypothesis that never fires converges vacuously (score 0),
        matching the scalar criterion's endpoint."""
        dataset, space_id, hyps, group = synth_setup
        n, ns = dataset.symbols.shape
        never = [PrecomputedHypothesis("never", np.zeros((n, ns)))]
        cfg = InspectConfig(mode="streaming", early_stop=True,
                            block_size=4, shuffle=False)
        out = inspect(None, dataset, [DiffMeansScore()], never,
                      unit_groups=[group],
                      extractor=_SynthExtractor(space_id), config=cfg,
                      as_frame=False)
        assert out[0].result.converged
        assert np.all(out[0].result.unit_scores == 0.0)
        assert out[0].records_processed < n  # stopped early, like before

    def test_frozen_columns_stop_hypothesis_extraction(self, synth_setup):
        """Once a column freezes everywhere, its hypothesis function is no
        longer evaluated for the remaining blocks."""
        dataset, space_id, hyps, group = synth_setup

        calls = {"fast": 0, "slow": 0}

        class _Counting(PrecomputedHypothesis):
            def __init__(self, name, matrix, tag):
                super().__init__(name, matrix)
                self.tag = tag

            def extract(self, ds, indices=None):
                calls[self.tag] += len(list(indices))
                return super().extract(ds, indices)

        counted = [_Counting(h.name, h.matrix, tag)
                   for h, tag in zip(hyps, ("fast", "slow"))]
        cfg = InspectConfig(mode="streaming", early_stop=True,
                            error_threshold=0.1, block_size=4,
                            shuffle=False)
        inspect(None, dataset, [CorrelationScore()], counted,
                unit_groups=[group],
                extractor=_SynthExtractor(space_id), config=cfg)
        assert calls["fast"] < calls["slow"]

    def test_column_errors_consistent_with_scalar_error(self):
        rng = np.random.default_rng(0)
        units = rng.standard_normal((500, 3))
        hyps = rng.standard_normal((500, 2))
        for measure in (CorrelationScore(), DiffMeansScore()):
            state = measure.new_state(3, 2)
            measure.process_block(state, units, hyps)
            errors = state.column_errors()
            assert errors.shape == (2,)
            assert state.error() == pytest.approx(float(errors.max()))

    def test_restrict_columns_preserves_remaining_scores(self):
        rng = np.random.default_rng(1)
        units = rng.standard_normal((400, 3))
        hyps = rng.standard_normal((400, 4))
        for measure in (CorrelationScore(), SpearmanCorrelationScore(),
                        DiffMeansScore()):
            full_state = measure.new_state(3, 4)
            measure.process_block(full_state, units, hyps)
            part_state = measure.new_state(3, 4)
            measure.process_block(part_state, units, hyps)
            part_state.restrict_columns(np.array([1, 3]))
            assert part_state.n_hyps == 2
            assert np.allclose(part_state.unit_scores(),
                               full_state.unit_scores()[:, [1, 3]])

    @pytest.mark.parametrize("measure", [
        CorrelationScore(), SpearmanCorrelationScore(), DiffMeansScore()],
        ids=lambda m: m.score_id)
    def test_restrict_then_a_block_equals_two_blocks_then_the_slice(
            self, measure):
        """Restricting takes every statistic along its hypothesis axis, so
        a block folded after it lands on the kept columns.  The behaviors
        are small integers: every sum is then exact, and the comparison
        sees the bookkeeping, not the width-dependent order in which BLAS
        sums a product's cells."""
        rng = np.random.default_rng(2)
        units = rng.integers(-3, 4, size=(2, 300, 5)).astype(float)
        hyps = rng.integers(0, 3, size=(2, 300, 7)).astype(float)
        keep = np.array([0, 2, 3, 6])
        whole = measure.new_state(5, 7)
        part = measure.new_state(5, 7)
        for u, h in zip(units, hyps):
            measure.process_block(whole, u, h)
        measure.process_block(part, units[0], hyps[0])
        part.restrict_columns(keep)
        measure.process_block(part, units[1], hyps[1][:, keep])
        assert (part.n_hyps, part.n_rows) == (4, 600)
        assert part.unit_scores().tobytes() \
            == whole.unit_scores()[:, keep].tobytes()
        assert part.column_errors().tobytes() \
            == whole.column_errors()[keep].tobytes()


class TestUnitBehaviorCache:
    def test_cold_misses_then_hits(self, trained_sql_model, sql_workload):
        cache = UnitBehaviorCache()
        ext = RnnActivationExtractor()
        idx = np.arange(6)
        a = cache.extract(trained_sql_model, ext, sql_workload.dataset, idx)
        assert cache.misses == 6 and cache.hits == 0
        b = cache.extract(trained_sql_model, ext, sql_workload.dataset, idx)
        assert cache.hits == 6
        assert np.array_equal(a, b)

    def test_cached_equals_direct(self, trained_sql_model, sql_workload):
        cache = UnitBehaviorCache()
        ext = RnnActivationExtractor()
        idx = np.arange(8)
        cached = cache.extract(trained_sql_model, ext, sql_workload.dataset,
                               idx)
        direct = ext.extract(trained_sql_model,
                             sql_workload.dataset.symbols[idx])
        assert np.allclose(cached, direct)

    def test_record_granularity_fill(self, trained_sql_model, sql_workload):
        cache = UnitBehaviorCache()
        ext = RnnActivationExtractor()
        cache.extract(trained_sql_model, ext, sql_workload.dataset,
                      np.arange(3))
        cache.extract(trained_sql_model, ext, sql_workload.dataset,
                      np.arange(6))
        assert cache.misses == 6  # only 3 new records extracted
        assert cache.hits == 3

    def test_unit_selection_is_a_view_over_one_entry(self, trained_sql_model,
                                                     sql_workload):
        """hid_units is a read-time view: narrow and full extraction share
        one raw entry and one forward sweep."""
        cache = UnitBehaviorCache()
        ext = RnnActivationExtractor()
        idx = np.arange(4)
        narrow = cache.extract(trained_sql_model, ext, sql_workload.dataset,
                               idx, hid_units=np.array([1, 3]))
        full = cache.extract(trained_sql_model, ext, sql_workload.dataset,
                             idx)
        assert cache.stats()["entries"] == 1
        assert cache.stats()["extractions"] == 1
        assert cache.hits == 4  # the full-width read reused the raw rows
        assert np.allclose(narrow, full[:, [1, 3]])

    def test_transform_is_a_view_over_one_entry(self, trained_sql_model,
                                                sql_workload):
        """The behavior transform is a read-time view: extractors differing
        only by transform share one raw entry and one forward sweep."""
        cache = UnitBehaviorCache()
        idx = np.arange(4)
        act = cache.extract(trained_sql_model, RnnActivationExtractor(),
                            sql_workload.dataset, idx)
        grad = cache.extract(trained_sql_model,
                             RnnActivationExtractor(transform="gradient"),
                             sql_workload.dataset, idx)
        assert cache.stats()["entries"] == 1
        assert cache.stats()["extractions"] == 1
        assert not np.allclose(act, grad)
        direct = RnnActivationExtractor(transform="gradient").extract(
            trained_sql_model, sql_workload.dataset.symbols[idx])
        assert np.array_equal(grad, direct)

    def test_batch_size_does_not_split_entries(self, trained_sql_model,
                                               sql_workload):
        cache = UnitBehaviorCache()
        idx = np.arange(4)
        cache.extract(trained_sql_model, RnnActivationExtractor(batch_size=2),
                      sql_workload.dataset, idx)
        cache.extract(trained_sql_model,
                      RnnActivationExtractor(batch_size=512),
                      sql_workload.dataset, idx)
        assert cache.stats()["entries"] == 1
        assert cache.hits == 4

    def test_retraining_invalidates_fingerprint(self, sql_workload):
        from repro.nn import CharLSTMModel, TrainConfig, train_model
        from repro.util.rng import new_rng
        model = CharLSTMModel(len(sql_workload.vocab), 8, new_rng(5),
                              model_id="refit")
        before = model_fingerprint(model)
        cache = UnitBehaviorCache()
        ext = RnnActivationExtractor()
        cache.extract(model, ext, sql_workload.dataset, np.arange(3))
        train_model(model, sql_workload.dataset.symbols, sql_workload.targets,
                    TrainConfig(epochs=1, batch_size=64, lr=3e-3))
        assert model_fingerprint(model) != before
        cache.extract(model, ext, sql_workload.dataset, np.arange(3))
        assert cache.stats()["entries"] == 2  # retrained model: fresh entry
        assert cache.hits == 0

    def test_parameter_dtype_is_part_of_the_fingerprint(self, sql_workload,
                                                        hyps):
        """Equal values in float32 and float64 behave differently: the two
        models must not share a unit entry (or kept block statistics)."""
        import hashlib

        from repro import Session
        from repro.nn import CharLSTMModel
        from repro.util.rng import new_rng

        def build(dtype):
            model = CharLSTMModel(len(sql_workload.vocab), 8, new_rng(5),
                                  model_id="twin")
            for param in model.parameters():   # float32-exact values
                param.value = param.value.astype(np.float32).astype(dtype)
            return model

        wide, narrow = build(np.float64), build(np.float32)
        dataset = sql_workload.dataset
        assert model_fingerprint(wide) != model_fingerprint(narrow)
        # a float64 model keeps the key it had (and stores written under it)
        digest = hashlib.sha1()
        for param in wide.parameters():
            digest.update(str(param.value.shape).encode())
            digest.update(param.value.tobytes())
        assert model_fingerprint(wide) == f"twin:{digest.hexdigest()}"

        config = InspectConfig(block_size=128, early_stop=False)

        def solo(model):
            return inspect(model, dataset, CorrelationScore(), hyps,
                           config=InspectConfig(block_size=128,
                                                early_stop=False, cache=None,
                                                unit_cache=None))

        with Session(config=config) as session:
            frames, extractions = [], []
            for model in (narrow, wide):
                frames.append(session.inspect(model, dataset).using("corr")
                              .hypotheses(hyps).run())
                extractions.append(session.stats()["unit_cache"]
                                   ["extractions"])
            stats = session.stats()
        assert extractions[0] > 0
        assert extractions[1] == 2 * extractions[0]   # the wide one swept
        assert stats["hypothesis_cache"]["stat_hits"] == 0
        assert frames == [solo(narrow), solo(wide)]
        assert frames[0] != frames[1]

    def test_eviction_under_pressure(self, trained_sql_model, sql_workload):
        tiny = UnitBehaviorCache(max_bytes=1)
        idx = np.arange(2)
        tiny.extract(trained_sql_model, RnnActivationExtractor(),
                     sql_workload.dataset, idx)
        tiny.extract(trained_sql_model,
                     RnnActivationExtractor(transform="abs"),
                     sql_workload.dataset, idx)
        assert tiny.stats()["entries"] == 1

    def test_warm_reuse_across_thresholds_and_groups(self, trained_sql_model,
                                                     sql_workload, hyps):
        """Cache entries are keyed at full width, so runs with different
        narrow groups and convergence trajectories share one entry."""
        cache = UnitBehaviorCache()
        groups_a = [UnitGroup(model=trained_sql_model, unit_ids=[1, 3],
                              name="a")]
        groups_b = [UnitGroup(model=trained_sql_model, unit_ids=[5, 7],
                              name="b")]
        for groups, threshold in ((groups_a, 0.2), (groups_b, 0.05)):
            cfg = InspectConfig(mode="streaming", early_stop=True,
                                error_threshold=threshold, unit_cache=cache,
                                seed=0)
            inspect(None, sql_workload.dataset, [CorrelationScore()], hyps,
                    unit_groups=groups, config=cfg)
        assert cache.stats()["entries"] == 1
        assert cache.hits > 0  # second run reused the first run's rows

    def test_warm_pipeline_skips_unit_extraction(self, trained_sql_model,
                                                 sql_workload, hyps):
        cache = UnitBehaviorCache()
        for _ in range(2):
            cfg = InspectConfig(mode="streaming", early_stop=False,
                                unit_cache=cache, seed=0)
            frame = inspect([trained_sql_model], sql_workload.dataset,
                            [CorrelationScore()], hyps, config=cfg)
        # second run re-reads every record from the cache
        assert cache.hits >= sql_workload.dataset.n_records
        assert len(frame)

    def test_warm_run_scores_identical(self, trained_sql_model, sql_workload,
                                       hyps):
        cache = UnitBehaviorCache()
        frames = []
        for _ in range(2):
            cfg = InspectConfig(mode="streaming", early_stop=False,
                                unit_cache=cache, seed=0)
            frames.append(inspect([trained_sql_model], sql_workload.dataset,
                                  [CorrelationScore()], hyps, config=cfg))
        assert _frame_tuples(frames[0]) == _frame_tuples(frames[1])

    def test_empty_indices_after_fill(self, trained_sql_model, sql_workload):
        """An empty index set against an already-filled entry returns a
        correctly-shaped (0, width) block."""
        cache = UnitBehaviorCache()
        ext = RnnActivationExtractor()
        cache.extract(trained_sql_model, ext, sql_workload.dataset,
                      np.arange(4))
        out = cache.extract(trained_sql_model, ext, sql_workload.dataset,
                            np.array([], dtype=int))
        assert out.shape == (0, trained_sql_model.n_units)

    def test_empty_dataset_with_unit_cache(self, trained_sql_model,
                                           sql_workload, hyps):
        """Zero records + unit cache must behave like the uncached path."""
        cfg = InspectConfig(mode="full", max_records=0,
                            unit_cache=UnitBehaviorCache())
        frame = inspect([trained_sql_model], sql_workload.dataset,
                        [CorrelationScore()], hyps, config=cfg)
        assert len(frame) == trained_sql_model.n_units * len(hyps)
        assert all(v == 0.0 for v in frame["val"])

    def test_clear(self, trained_sql_model, sql_workload):
        cache = UnitBehaviorCache()
        cache.extract(trained_sql_model, RnnActivationExtractor(),
                      sql_workload.dataset, np.arange(2))
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "disk_hits": 0,
                                 "disk_misses": 0, "extractions": 0,
                                 "entries": 0, "bytes": 0, "leads": 0,
                                 "joins": 0, "waits": 0,
                                 "timeouts": 0, "inflight": 0}


class TestPlanIntrospection:
    def test_describe_names_operators(self, trained_sql_model, sql_workload,
                                      hyps):
        from repro.core.groups import all_units_group
        ext = RnnActivationExtractor()
        plan = InspectionPlan.build(
            [all_units_group(trained_sql_model, ext)], sql_workload.dataset,
            [CorrelationScore(), LogRegressionScore(epochs=1, cv_folds=2)],
            hyps, ext, InspectConfig(mode="streaming", scheduler="threads"))
        text = plan.describe()
        assert "BehaviorSource" in text
        assert "ScoreTask" in text
        assert "scheduler=threads" in text
        assert "per-column" in text   # correlation partitions
        assert "scalar" in text       # logreg falls back to scalar stopping
