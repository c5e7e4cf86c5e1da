"""Record-block iteration used by the streaming execution engine.

The paper processes behavior matrices in blocks of ``nb`` records (default
512) that have been shuffled record-wise (Section 5.2.2).  The engine
permutes record order once, when it builds the plan
(``InspectionPlan.build`` with ``config.shuffle``), and then walks that
order in contiguous blocks; nothing shuffles symbol-wise in memory.
"""

from __future__ import annotations

from collections.abc import Iterator


def iter_blocks(n_items: int, block_size: int) -> Iterator[slice]:
    """Yield contiguous slices covering ``range(n_items)``."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    for start in range(0, n_items, block_size):
        yield slice(start, min(start + block_size, n_items))
