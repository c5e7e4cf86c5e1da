"""Tests for block iteration and RNG management."""

import numpy as np
import pytest

from repro.util.blocks import (iter_blocks, shuffle_symbolwise,
                               shuffled_record_order)
from repro.util.rng import DEFAULT_SEED, new_rng, spawn_rngs


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
