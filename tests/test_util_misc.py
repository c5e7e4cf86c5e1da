"""Tests for block iteration and RNG management."""

import pytest

from repro.util.blocks import iter_blocks
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
