"""Bad: incoherent Extractor override sets, and a hypothesis block kernel
without a per-record reference in the differential oracle."""
# analysis-scope: hypothesis-kernels

from repro.extract.base import Extractor
from repro.hypotheses.base import HypothesisFunction


class BadWidthExtractor(Extractor):
    """Widens the raw sweep but never maps its view columns."""

    def n_units(self, model):
        return 4

    def raw_states(self, model, records):
        return None

    def raw_width(self, model):  # expect[REP008]
        return 8


class BadViewExtractor(Extractor):  # expect[REP008]
    """Raw-protocol method without a raw sweep: it never runs."""

    def finalize_rows(self, model, raw, n_symbols, hid_units=None):  # expect[REP008]
        return raw


class BadMixedExtractor(Extractor):
    """Opaque extract() on a raw-capable extractor bypasses the views."""

    def n_units(self, model):
        return 4

    def raw_states(self, model, records):
        return None

    def extract(self, model, records, hid_units=None):  # expect[REP008]
        return None


class UnlistedKernelHypothesis(HypothesisFunction):
    """Overrides extract() but no oracle compares it to anything."""

    def extract(self, dataset, indices=None):  # expect[REP008]
        return None
