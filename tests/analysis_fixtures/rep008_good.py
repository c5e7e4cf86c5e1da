"""Good: the two legitimate extractor shapes, the two legitimate
hypothesis shapes (a per-record body; a block kernel the oracle lists) and
a hypothesis family the oracle lists."""
# analysis-scope: hypothesis-kernels

from repro.extract.base import Extractor
from repro.hypotheses.base import HypothesisFunction


class PlainRawExtractor(Extractor):
    """A sweep at its own width (the RNN and CNN-pixel shape)."""

    def n_units(self, model):
        return 4

    def raw_states(self, model, records):
        return None


class LayeredRawExtractor(Extractor):
    """Wider raw sweep with a column view (the encoder shape)."""

    view_attrs = frozenset({"transform", "layer"})

    def n_units(self, model):
        return 4

    def raw_states(self, model, records):
        return None

    def raw_width(self, model):
        return 8

    def view_columns(self, model):
        return None


class PerRecordHypothesis(HypothesisFunction):
    """Arbitrary per-record logic: the base class loops it over a block."""

    def behavior(self, dataset, index):
        return None


class KeywordHypothesis(HypothesisFunction):
    """A block kernel named in tests/test_hypothesis_kernels.py."""

    def extract(self, dataset, indices=None):
        return None


class ParseProvider:
    """A family kernel named in the oracle's FAMILY_CLASSES table."""

    def extract_block(self, members, dataset, indices):
        return None


class BlockTier:
    """Not a family: a cache read that happens to share the method name
    (its first parameter is not ``members``)."""

    def extract_block(self, hypotheses, dataset, indices):
        return None
