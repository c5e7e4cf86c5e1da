"""Saliency analysis (Section 2.2).

Identifies the input symbols that have the largest "effect" on a unit or
group of units: collect the unit's behaviors over the dataset, find the
top-k highest-valued behaviors, and report the corresponding input symbols
with their contexts.  Supports both activation magnitude and the
input-gradient behavior via the extractor's ``transform``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import Dataset
from repro.extract.base import Extractor
from repro.extract.rnn import RnnActivationExtractor
from repro.util.frame import Frame


@dataclass
class SaliencyHit:
    """One high-behavior site: which symbol most excites the unit."""

    record: int
    position: int
    symbol: str
    value: float
    context: str


def top_symbols(model, dataset: Dataset, unit: int, k: int = 5,
                extractor: Extractor | None = None,
                context: int = 8, by_abs: bool = False,
                max_records: int | None = None) -> list[SaliencyHit]:
    """The k input symbols that trigger the unit's highest behaviors.

    Reproduces the paper's example: "whitespaces and periods trigger the
    five highest activations for u86" (Figure 1 discussion).
    """
    n_records = dataset.n_records
    if max_records is not None:
        n_records = min(n_records, max_records)
    extractor = extractor or RnnActivationExtractor()
    behaviors = extractor.extract(model, dataset.symbols[:n_records],
                                  hid_units=[unit])[:, 0]
    values = np.abs(behaviors) if by_abs else behaviors
    ns = dataset.n_symbols
    order = np.argsort(-values)[:k]

    hits = []
    for flat in order:
        record, pos = divmod(int(flat), ns)
        text = dataset.record_text(record)
        lo = max(0, pos - context)
        hi = min(len(text), pos + context + 1)
        hits.append(SaliencyHit(
            record=record, position=pos, symbol=text[pos],
            value=float(behaviors[flat]),
            context=text[lo:pos] + "[" + text[pos] + "]" + text[pos + 1:hi]))
    return hits


def saliency_frame(model, dataset: Dataset, units: list[int], k: int = 5,
                   extractor: Extractor | None = None,
                   max_records: int | None = None) -> Frame:
    """Top-k saliency table for several units."""
    rows = []
    for unit in units:
        for hit in top_symbols(model, dataset, unit, k=k,
                               extractor=extractor,
                               max_records=max_records):
            rows.append({"unit": unit, "record": hit.record,
                         "position": hit.position, "symbol": hit.symbol,
                         "value": hit.value, "context": hit.context})
    return Frame.from_records(
        rows, columns=["unit", "record", "position", "symbol", "value",
                       "context"])

