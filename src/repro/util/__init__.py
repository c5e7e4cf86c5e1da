"""Shared utilities: result frames, RNG control, block iteration."""

from repro.util.blocks import iter_blocks
from repro.util.debuglog import (degradation_counts, degraded,
                                 reset_degradation_counts)
from repro.util.frame import Frame
from repro.util.rng import new_rng, spawn_rngs

__all__ = ["Frame", "degradation_counts", "degraded", "iter_blocks", "new_rng",
           "reset_degradation_counts", "spawn_rngs"]
