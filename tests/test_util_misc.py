"""Tests for block iteration, RNG management and the stopwatch."""

import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.util.blocks import (iter_blocks, shuffle_symbolwise,
                               shuffled_record_order)
from repro.util.rng import DEFAULT_SEED, new_rng, spawn_rngs
from repro.util.timing import Stopwatch, Timer


class TestBlocks:
    def test_blocks_cover_range_exactly(self):
        slices = list(iter_blocks(10, 3))
        covered = [i for s in slices for i in range(s.start, s.stop)]
        assert covered == list(range(10))

    def test_last_block_is_partial(self):
        slices = list(iter_blocks(10, 3))
        assert slices[-1] == slice(9, 10)

    def test_exact_multiple(self):
        assert list(iter_blocks(6, 3)) == [slice(0, 3), slice(3, 6)]

    def test_zero_items_yields_nothing(self):
        assert list(iter_blocks(0, 4)) == []

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            list(iter_blocks(5, 0))

    def test_shuffled_record_order_is_permutation(self):
        order = shuffled_record_order(50, new_rng(0))
        assert sorted(order.tolist()) == list(range(50))

    def test_shuffle_symbolwise_applies_same_permutation(self):
        rng = new_rng(1)
        a = np.arange(20).reshape(10, 2)
        b = np.arange(20, 40).reshape(10, 2)
        sa, sb = shuffle_symbolwise([a, b], rng)
        # alignment preserved: b row always a row + 20
        assert np.array_equal(sb, sa + 20)

    def test_shuffle_symbolwise_rejects_misaligned(self):
        with pytest.raises(ValueError):
            shuffle_symbolwise([np.zeros((3, 1)), np.zeros((4, 1))], new_rng(0))

    def test_shuffle_symbolwise_empty(self):
        assert shuffle_symbolwise([], new_rng(0)) == []


class TestRng:
    def test_default_seed_reproducible(self):
        assert new_rng().random() == new_rng(DEFAULT_SEED).random()

    def test_distinct_seeds_differ(self):
        assert new_rng(1).random() != new_rng(2).random()

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(new_rng(0), 3)
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_rngs_reproducible(self):
        a = [c.random() for c in spawn_rngs(new_rng(0), 2)]
        b = [c.random() for c in spawn_rngs(new_rng(0), 2)]
        assert a == b


class TestTiming:
    def test_timer_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005

    def test_stopwatch_accumulates_buckets(self):
        watch = Stopwatch()
        with watch.charge("a"):
            time.sleep(0.005)
        with watch.charge("a"):
            time.sleep(0.005)
        with watch.charge("b"):
            pass
        assert watch.buckets["a"] >= 0.008
        assert set(watch.breakdown()) == {"a", "b"}

    def test_stopwatch_total(self):
        watch = Stopwatch()
        with watch.charge("x"):
            time.sleep(0.002)
        assert watch.total() == pytest.approx(watch.buckets["x"])

    def test_stopwatch_reset(self):
        watch = Stopwatch()
        with watch.charge("x"):
            pass
        watch.reset()
        assert watch.breakdown() == {}

    def test_stopwatch_charge_is_exact_under_threads(self, monkeypatch):
        """One Stopwatch serves every query of a served session: 8 threads
        x 2,000 charges must all land.  A per-thread tick clock makes each
        charge worth exactly 1.0, so a lost update shows in the sum."""
        from repro.util import timing
        ticks = threading.local()

        def tick():
            ticks.now = getattr(ticks, "now", 0.0) + 1.0
            return ticks.now

        watch = Stopwatch()
        n_threads, n_charges, nap = 8, 2000, 0.001

        def worker():
            for _ in range(n_charges):
                with watch.charge("ticks"):
                    pass

        def napper():
            for _ in range(5):
                with watch.charge("naps"):
                    time.sleep(nap)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with monkeypatch.context() as patched:
                patched.setattr(timing, "time",
                                types.SimpleNamespace(perf_counter=tick))
                self._run_threads(worker, n_threads)
            self._run_threads(napper, n_threads)
        finally:
            sys.setswitchinterval(interval)
        assert watch.buckets["ticks"] == n_threads * n_charges
        assert watch.buckets["naps"] >= n_threads * 5 * nap

    @staticmethod
    def _run_threads(target, n_threads):
        threads = [threading.Thread(target=target) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

    def test_stopwatch_charges_on_exception(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            with watch.charge("x"):
                raise RuntimeError("boom")
        assert "x" in watch.buckets
