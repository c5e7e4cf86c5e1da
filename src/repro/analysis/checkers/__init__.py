"""Importing this package registers every built-in checker."""

from repro.analysis.checkers import (async_blocking, atomic_commit, counters,
                                     degradation, extractor_protocol,
                                     identity, kernels, lifecycle, lock_order)

__all__ = ["async_blocking", "atomic_commit", "counters", "degradation",
           "extractor_protocol", "identity", "kernels", "lifecycle",
           "lock_order"]
