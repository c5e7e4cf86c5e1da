"""Bad: incoherent Extractor override sets, and a hypothesis block kernel
and a hypothesis family the differential oracle does not list."""
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
    """Replaces a derived view and has no sweep to derive it from."""

    def finalize_states(self, states, columns=None):  # expect[REP008]
        return states


class OpaqueExtractor(Extractor):  # expect[REP008]
    """Overrides extract() wholesale: the caches never see its sweep."""

    def n_units(self, model):
        return 4

    def extract(self, model, records, hid_units=None):  # expect[REP008]
        return None


class BadMixedExtractor(Extractor):
    """Its own extract() and raw_key() beside the sweep: the direct path,
    the cache path and the store key no longer describe one thing."""

    def n_units(self, model):
        return 4

    def raw_states(self, model, records):
        return None

    def extract(self, model, records, hid_units=None):  # expect[REP008]
        return None

    def raw_key(self):  # expect[REP008]
        return "mine"


class UnlistedKernelHypothesis(HypothesisFunction):
    """Overrides extract() but no oracle compares it to anything."""

    def extract(self, dataset, indices=None):  # expect[REP008]
        return None


class UnlistedFamily:
    """Labels its members in one pass but no oracle holds its columns to
    the per-record references."""

    def extract_block(self, members, dataset, indices):  # expect[REP008]
        return None
