"""Differential oracle for the hypothesis block kernels.

Every built-in hypothesis answers a block of records with one vectorised
``extract(dataset, indices)``.  This module keeps the per-record bodies
those kernels replaced as the **reference implementation** and requires the
kernels to return the same array — values, dtype and shape — on the inputs
where a block formulation can go wrong: windows hanging over either end of
their source, unsorted / repeated / empty index lists, overlapping keyword
matches, characters the vocab has never seen.

``KERNEL_CLASSES`` is the oracle's class table.  The REP008 checker reads
it: a ``HypothesisFunction`` subclass under ``src/`` that overrides
``extract`` and is not listed here fails static analysis.  So does a class
that defines ``extract_block`` (a hypothesis *family*: siblings labelled in
one pass, see ``repro.hypotheses.base.extract_columns``) and is missing from
``FAMILY_CLASSES``: every column of a family's block is held to the same
per-record references.
"""

import hashlib
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (InspectConfig, SerialScheduler, Session,
                   ThreadPoolScheduler)
from repro.core.cache import HypothesisCache, hyp_store_key
from repro.data import generate_sql_workload
from repro.data.datasets import PAD_CHAR, Dataset, Vocab
from repro.extract.rnn import RnnActivationExtractor
from repro.grammar.tree import ParseNode
from repro.hypotheses import (CharSetHypothesis, FsmHypothesis,
                              FunctionHypothesis, HypothesisFunction,
                              KeywordHypothesis, NestingDepthHypothesis,
                              PositionCounterHypothesis,
                              PrecomputedHypothesis, PrefixLengthHypothesis,
                              grammar_hypotheses, keyword_fsm,
                              validate_hypothesis_output)
from repro.hypotheses.base import extract_columns, validate_hypothesis_block
from repro.hypotheses.fsm import FSM
from repro.hypotheses.library import (CurrentCharHypothesis,
                                      sql_keyword_hypotheses)
from repro.hypotheses import parse_hyps
from repro.hypotheses.parse_hyps import ParseProvider, ParseTreeHypothesis


# ----------------------------------------------------------------------
# the reference: one record at a time, as the hypotheses were written
# before the block kernels
# ----------------------------------------------------------------------
def _ref_parse_tree(hyp, dataset, index):
    meta = dataset.meta[index]
    source_id, offset = meta["source_id"], meta["offset"]
    tree = hyp.provider.tree_for(source_id)
    length = len(hyp.provider.sources[source_id])
    if hyp.encoding == "depth":
        labels = [0] * length
        for start, end in tree.spans_of(hyp.rule):
            for i in range(start, min(end, length)):
                labels[i] += 1
        labels = np.asarray(labels, dtype=np.float64)
    else:
        labels = np.zeros(length)
        for start, end in tree.spans_of(hyp.rule):
            end = min(end, length)
            if end <= start:
                continue
            if hyp.encoding == "time":
                labels[start:end] = 1.0
            else:
                labels[start] = 1.0
                labels[end - 1] = 1.0
    ns = dataset.n_symbols
    out = np.zeros(ns)
    lo = max(0, -offset)
    hi = min(ns, length - offset)
    if hi > lo:
        out[lo:hi] = labels[offset + lo:offset + hi]
    return out


def _ref_keyword(hyp, dataset, index):
    text = dataset.record_text(index)
    out = np.zeros(len(text))
    start = text.find(hyp.keyword)
    while start != -1:
        out[start:start + len(hyp.keyword)] = 1.0
        start = text.find(hyp.keyword, start + 1)
    return out


def _ref_charset(hyp, dataset, index):
    text = dataset.record_text(index)
    return np.fromiter((1.0 if c in hyp.chars else 0.0 for c in text),
                       dtype=np.float64, count=len(text))


def _ref_position(hyp, dataset, index):
    return np.arange(dataset.n_symbols, dtype=np.float64)


def _ref_prefix_length(hyp, dataset, index):
    text = dataset.record_text(index)
    count = 0
    out = np.empty(len(text))
    for i, ch in enumerate(text):
        if ch != PAD_CHAR:
            count += 1
        out[i] = count
    return out


def _ref_nesting_depth(hyp, dataset, index):
    text = dataset.record_text(index)
    depth = 0
    out = np.empty(len(text))
    for i, ch in enumerate(text):
        if ch == "(":
            out[i] = depth
            depth += 1
        elif ch == ")":
            depth -= 1
            out[i] = depth
        else:
            out[i] = depth
    if hyp.level is None:
        return out
    return (out == hyp.level).astype(np.float64)


def _ref_current_char(hyp, dataset, index):
    text = dataset.record_text(index)
    return np.fromiter((1.0 if c == hyp.char else 0.0 for c in text),
                       dtype=np.float64, count=len(text))


def _ref_fsm(hyp, dataset, index):
    states = hyp.fsm.run(dataset.record_text(index))
    if hyp.state is None:
        return states.astype(np.float64)
    return (states == hyp.state).astype(np.float64)


def _ref_precomputed(hyp, dataset, index):
    return hyp.matrix[index]


#: the oracle's class table: every class under src/ that overrides
#: ``extract``, with the per-record body its kernel must agree with
KERNEL_CLASSES = {
    ParseTreeHypothesis: _ref_parse_tree,
    KeywordHypothesis: _ref_keyword,
    CharSetHypothesis: _ref_charset,
    PositionCounterHypothesis: _ref_position,
    PrefixLengthHypothesis: _ref_prefix_length,
    NestingDepthHypothesis: _ref_nesting_depth,
    CurrentCharHypothesis: _ref_current_char,
    FsmHypothesis: _ref_fsm,
    PrecomputedHypothesis: _ref_precomputed,
}


#: the oracle's family table: every class under src/ that defines
#: ``extract_block``, with the member class whose reference (above) each
#: column of its block must agree with
FAMILY_CLASSES = {ParseProvider: ParseTreeHypothesis}


def reference_extract(hyp, dataset, indices=None):
    """The per-record loop: one validated reference vector per record."""
    behavior = KERNEL_CLASSES[type(hyp)]
    if indices is None:
        indices = range(dataset.n_records)
    rows = [validate_hypothesis_output(hyp.name,
                                       behavior(hyp, dataset, int(i)),
                                       dataset.n_symbols)
            for i in indices]
    return np.stack(rows) if rows else np.empty((0, dataset.n_symbols))


def assert_matches_reference(hyp, dataset, indices=None):
    got = hyp.extract(dataset, indices)
    want = reference_extract(hyp, dataset, indices)
    assert got.dtype == want.dtype == np.float64, hyp.name
    assert got.shape == want.shape, hyp.name
    assert np.array_equal(got, want), hyp.name


def assert_columns_match_reference(hyps, dataset, indices=None):
    """``extract_columns`` against the per-record loop, column by column."""
    got = extract_columns(hyps, dataset, indices)
    n = dataset.n_records if indices is None else len(indices)
    assert got.dtype == np.float64
    assert got.shape == (n, dataset.n_symbols, len(hyps))
    for j, hyp in enumerate(hyps):
        want = reference_extract(hyp, dataset, indices)
        assert np.array_equal(got[:, :, j], want), (j, hyp.name)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
ENCODINGS = ("time", "signal", "depth")


@pytest.fixture(scope="module")
def workload():
    return generate_sql_workload("default", n_queries=12, window=30,
                                 stride=5, seed=3)


def parse_hypotheses(workload, mode):
    trees = workload.trees if mode == "derivation" else None
    return grammar_hypotheses(workload.grammar, workload.queries, trees,
                              encodings=ENCODINGS, mode=mode)


def symbol_hypotheses(n_records=0, n_symbols=0):
    """One instance (or a few) of every symbol-level built-in."""
    fsm = keyword_fsm("FROM")
    lazy = FSM(initial=-2, transitions={-2: {"S": 3, None: -2},
                                        3: {"E": 7}, 7: {None: -2}})
    hyps = sql_keyword_hypotheses() + [
        KeywordHypothesis(" "), KeywordHypothesis("EE"),
        CharSetHypothesis("space_or_digit", " 0123456789"),
        CharSetHypothesis("nothing_known", "éè"),
        PositionCounterHypothesis(), PrefixLengthHypothesis(),
        NestingDepthHypothesis(), NestingDepthHypothesis(level=1),
        NestingDepthHypothesis(level=-1),
        CurrentCharHypothesis("("), CurrentCharHypothesis("é"),
        FsmHypothesis("from_state", fsm),
        FsmHypothesis("from_done", fsm, state=4),
        FsmHypothesis("sparse_states", lazy),
        FsmHypothesis("sparse_states_at_3", lazy, state=3),
    ]
    if n_records:
        matrix = np.arange(n_records * n_symbols, dtype=float)
        hyps.append(PrecomputedHypothesis(
            "pre", matrix.reshape(n_records, n_symbols)))
    return hyps


def text_dataset(texts, with_text=True, extra_chars=""):
    vocab = Vocab(sorted({c for t in texts for c in t} | set(extra_chars)))
    symbols = np.stack([vocab.encode(t) for t in texts])
    meta = [{"text": t} for t in texts] if with_text else []
    return Dataset(symbols, vocab, meta)


INDEX_SETS = {
    "all": lambda n: None,
    "unsorted": lambda n: np.random.default_rng(0).permutation(n)[:n // 2],
    "duplicates": lambda n: [5, 5, 0, n - 1, 5, 0],
    "empty": lambda n: [],
    "range": lambda n: range(3, n, 7),
}


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
class TestOneImplementation:
    def test_no_kernel_class_keeps_a_per_record_body(self):
        for cls in KERNEL_CLASSES:
            assert "behavior" not in vars(cls), cls.__name__


@pytest.mark.parametrize("index_set", sorted(INDEX_SETS))
class TestSqlWorkload:
    @pytest.mark.parametrize("mode", ["derivation", "reparse"])
    def test_parse_tree_kernels(self, workload, mode, index_set):
        ds = workload.dataset
        indices = INDEX_SETS[index_set](ds.n_records)
        hyps = parse_hypotheses(workload, mode)
        assert {h.encoding for h in hyps} == set(ENCODINGS)
        for hyp in hyps:
            assert_matches_reference(hyp, ds, indices)

    def test_symbol_kernels(self, workload, index_set):
        ds = workload.dataset
        indices = INDEX_SETS[index_set](ds.n_records)
        for hyp in symbol_hypotheses(ds.n_records, ds.n_symbols):
            assert_matches_reference(hyp, ds, indices)


class TestShapes:
    def test_empty_indices_give_an_empty_float64_block(self, workload):
        ds = workload.dataset
        hyps = (parse_hypotheses(workload, "derivation")[:3]
                + symbol_hypotheses(ds.n_records, ds.n_symbols))
        for hyp in hyps:
            for empty in ([], np.array([], dtype=int), range(0)):
                out = hyp.extract(ds, empty)
                assert out.shape == (0, ds.n_symbols), hyp.name
                assert out.dtype == np.float64, hyp.name

    def test_behavior_is_the_one_record_view(self, workload):
        ds = workload.dataset
        hyps = (parse_hypotheses(workload, "derivation")[::7]
                + symbol_hypotheses(ds.n_records, ds.n_symbols))
        for hyp in hyps:
            for index in (0, 17, ds.n_records - 1):
                got = hyp.behavior(ds, index)
                want = KERNEL_CLASSES[type(hyp)](hyp, ds, index)
                assert got.shape == (ds.n_symbols,)
                assert np.array_equal(got, want), hyp.name


@pytest.fixture(scope="module")
def edge_dataset(workload):
    """Windows of the shortest, the longest and the first source at every
    offset where a block formulation can slip: inside the left padding,
    across either end, and past a shorter source's end."""
    ns = 30
    lengths = [len(q) for q in workload.queries]
    short = int(np.argmin(lengths))
    long = int(np.argmax(lengths))
    meta = []
    for sid in (short, long, 0):
        n = lengths[sid]
        for offset in (-ns - 4, -ns, -ns + 1, -7, 0, 3, n - ns - 1,
                       n - ns, n - ns + 1, n - 5, n - 1, n, n + 9,
                       max(lengths) - 2, max(lengths), max(lengths) + 40):
            meta.append({"source_id": sid, "offset": offset})
    symbols = np.zeros((len(meta), ns), dtype=np.int64)
    return Dataset(symbols, workload.dataset.vocab, meta)


class TestWindowsOverTheEdges:
    """Windows may start inside the left padding (negative offsets) and
    run past the end of their source."""

    @pytest.mark.parametrize("mode", ["derivation", "reparse"])
    def test_every_offset_matches(self, workload, edge_dataset, mode):
        for hyp in parse_hypotheses(workload, mode):
            assert_matches_reference(hyp, edge_dataset)

    def test_every_offset_matches_in_one_family_block(self, workload,
                                                      edge_dataset):
        hyps = parse_hypotheses(workload, "derivation")
        assert_columns_match_reference(hyps, edge_dataset)
        for name in ("unsorted", "duplicates", "empty"):
            assert_columns_match_reference(
                hyps, edge_dataset, INDEX_SETS[name](edge_dataset.n_records))

    def test_windows_outside_the_source_are_all_zero(self, workload,
                                                     edge_dataset):
        hyp = next(h for h in parse_hypotheses(workload, "derivation")
                   if h.name == "time:select_clause")
        out = hyp.extract(edge_dataset)
        assert out.any()
        for row, meta in zip(out, edge_dataset.meta):
            length = len(workload.queries[meta["source_id"]])
            if meta["offset"] <= -30 or meta["offset"] >= length:
                assert not row.any()


class TestKeywordEdges:
    def test_overlapping_occurrences(self):
        ds = text_dataset(["aaa", "aab", "baa", "aba"])
        hyp = KeywordHypothesis("aa")
        assert hyp.extract(ds).tolist() == [[1, 1, 1], [1, 1, 0],
                                            [0, 1, 1], [0, 0, 0]]
        assert_matches_reference(hyp, ds)

    def test_keyword_longer_than_the_record(self):
        ds = text_dataset(["abc", "bca"])
        for keyword in ("abcd", "abcabcabc"):
            hyp = KeywordHypothesis(keyword)
            assert not hyp.extract(ds).any()
            assert_matches_reference(hyp, ds)

    def test_keyword_as_long_as_the_record(self):
        ds = text_dataset(["abc", "bca"])
        hyp = KeywordHypothesis("abc")
        assert hyp.extract(ds).tolist() == [[1, 1, 1], [0, 0, 0]]
        assert_matches_reference(hyp, ds)

    def test_keyword_with_a_character_outside_the_vocab(self):
        ds = text_dataset(["abab", "baba"])
        for keyword in ("abz", "z", "zab"):
            hyp = KeywordHypothesis(keyword)
            assert not hyp.extract(ds).any()
            assert_matches_reference(hyp, ds)

    def test_dataset_without_meta_text(self):
        texts = ["(a(b))~", "~~((a)~", "a)b(c)d", "SELECT "]
        with_text = text_dataset(texts)
        without = text_dataset(texts, with_text=False)
        assert "text" not in without.meta[0]
        for hyp in symbol_hypotheses():
            assert_matches_reference(hyp, without)
            assert np.array_equal(hyp.extract(without),
                                  hyp.extract(with_text)), hyp.name

    def test_pad_character_missing_from_nothing(self):
        # '~' is always symbol 0: an all-padding record counts nothing
        ds = text_dataset(["~~~~", "~ab~"])
        assert PrefixLengthHypothesis().extract(ds).tolist() == [
            [0, 0, 0, 0], [0, 1, 2, 2]]


# ----------------------------------------------------------------------
# hypothesis families: one evaluation site, siblings labelled in one pass
# ----------------------------------------------------------------------
def mixed_columns(workload, seed=0):
    """Members of two providers, all three encodings, shuffled among one
    of every symbol-level (solo) built-in."""
    ds = workload.dataset
    hyps = (parse_hypotheses(workload, "derivation")
            + parse_hypotheses(workload, "reparse")[::2]
            + symbol_hypotheses(ds.n_records, ds.n_symbols))
    assert len({id(h.provider) for h in hyps
                if isinstance(h, ParseTreeHypothesis)}) == 2
    order = np.random.default_rng(seed).permutation(len(hyps))
    return [hyps[int(i)] for i in order]


class TestFamilyKernel:
    def test_every_family_class_tables_a_member_the_oracle_knows(self):
        for family_cls, member_cls in FAMILY_CLASSES.items():
            assert callable(vars(family_cls)["extract_block"])
            assert member_cls in KERNEL_CLASSES

    def test_family_is_protocol_not_content(self, workload):
        hyps = parse_hypotheses(workload, "derivation")
        assert all(h.family is hyps[0].provider for h in hyps)
        assert "family" not in vars(hyps[0])     # cache keys do not move
        assert not hasattr(KeywordHypothesis("SELECT"), "family")

    @pytest.mark.parametrize("index_set", sorted(INDEX_SETS))
    def test_mixed_columns_match_reference(self, workload, index_set):
        indices = INDEX_SETS[index_set](workload.dataset.n_records)
        for seed in (0, 1):
            assert_columns_match_reference(mixed_columns(workload, seed),
                                           workload.dataset, indices)

    def test_subset_and_pickled_clones(self, workload):
        sub = workload.dataset.subset([31, 2, 2, 77, 140, 5])
        hyps = mixed_columns(workload, seed=2)
        hyps[0].extract(workload.dataset)        # clones leave a used home
        clones = pickle.loads(pickle.dumps(hyps))
        for indices in (None, [4, 0, 0, 3]):
            assert_columns_match_reference(hyps, sub, indices)
            assert_columns_match_reference(clones, sub, indices)

    def test_member_sets_and_table_dtypes(self, workload):
        ds = workload.dataset
        hyps = parse_hypotheses(workload, "derivation")
        provider = hyps[0].provider
        by_encoding = {e: [h for h in hyps if h.encoding == e]
                       for e in ENCODINGS}
        picks = np.array([9, 3, 3, 180])
        for members, dtype in (
                (by_encoding["time"][:1], np.uint8),         # one member
                (by_encoding["signal"], np.uint8),
                (by_encoding["time"] + by_encoding["signal"], np.uint8),
                (by_encoding["depth"][:1], np.int32),
                (by_encoding["depth"][3:5] + by_encoding["time"][3:5]
                 + by_encoding["signal"][4:5], np.int32)):
            block = provider.extract_block(members, ds, picks)
            assert block.dtype == dtype
            assert block.shape == (4, ds.n_symbols, len(members))
            assert_columns_match_reference(members, ds, picks)
        # a rule that nests counts past what a flag column could hold
        assert provider.extract_block(by_encoding["depth"], ds).max() > 1

    def test_a_member_listed_twice_gets_two_columns(self, workload):
        hyps = parse_hypotheses(workload, "derivation")
        twice = [hyps[3], hyps[40], hyps[3], symbol_hypotheses()[0],
                 hyps[3], hyps[40]]
        assert_columns_match_reference(twice, workload.dataset, [7, 7, 1])

    def test_out_is_filled_in_place(self, workload):
        ds = workload.dataset
        hyps = mixed_columns(workload, seed=3)[:9]
        frame = np.full((5, ds.n_symbols, len(hyps) + 2), -1.0)
        picks = [0, 50, 50, 3, 120]
        got = extract_columns(hyps, ds, picks, out=frame[:, :, 1:-1])
        assert np.shares_memory(got, frame)
        assert np.array_equal(got, extract_columns(hyps, ds, picks))
        assert (frame[:, :, 0] == -1).all() and (frame[:, :, -1] == -1).all()

    def test_no_hypotheses_or_no_records(self, workload):
        ds = workload.dataset
        assert extract_columns([], ds, [1, 2]).shape == (2, ds.n_symbols, 0)
        hyps = mixed_columns(workload)[:5]
        assert extract_columns(hyps, ds, []).shape == (0, ds.n_symbols, 5)


class TestCacheBlocks:
    """The hypothesis tier over the family kernel: same bytes, and
    ``extractions`` still counts (hypothesis, cold record set) pairs."""

    @staticmethod
    def stacked(hyps, ds, indices):
        return np.stack([h.extract(ds, indices).reshape(-1) for h in hyps],
                        axis=1)

    def test_blocks_are_the_stacked_one_column_extracts(self, workload):
        ds = workload.dataset
        hyps = mixed_columns(workload, seed=4)
        cache = HypothesisCache()
        rng = np.random.default_rng(5)
        first = rng.permutation(ds.n_records)[:100]
        for indices, columns in ((first, hyps[10:30]),       # cold
                                 (first, hyps[10:30]),       # warm
                                 (first[50:], hyps[::-1]),   # cold beside warm
                                 (np.arange(40), hyps)):     # other records
            got = cache.extract_block(columns, ds, indices)
            want = self.stacked(columns, ds, indices)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_extractions_count_pairs_and_kernel_calls_count_sets(
            self, workload, monkeypatch):
        ds = workload.dataset
        hyps = parse_hypotheses(workload, "derivation")     # one family
        solo = symbol_hypotheses()[:4]
        calls = []
        original = ParseProvider.extract_block

        def counting(self, members, dataset, indices):
            calls.append((len(members), len(indices)))
            return original(self, members, dataset, indices)

        monkeypatch.setattr(ParseProvider, "extract_block", counting)
        cache = HypothesisCache()
        a, b = np.arange(0, 60), np.arange(30, 90)
        cache.extract_block(hyps[:10] + solo, ds, a)
        assert cache.stats()["extractions"] == 14 and calls == [(10, 60)]
        # columns 0-9 miss records 60-89, columns 10-19 miss all of b:
        # two cold record sets, twenty (hypothesis, set) pairs
        cache.extract_block(hyps[:20], ds, b)
        assert cache.stats()["extractions"] == 34
        assert sorted(calls[1:]) == [(10, 30), (10, 60)]
        cache.extract_block(hyps[:20] + solo, ds, np.arange(30, 60))
        assert cache.stats()["extractions"] == 34 and len(calls) == 3

    @pytest.mark.parametrize("scheduler", ["serial", "threads", "processes"])
    def test_a_cold_statement_extracts_hypotheses_times_blocks(
            self, trained_sql_model, sql_workload, hyps72, scheduler):
        schedulers = {"serial": SerialScheduler,
                      "threads": lambda: ThreadPoolScheduler(2),
                      "processes": lambda: "processes"}
        hyps = pickle.loads(pickle.dumps(hyps72))       # never-used objects
        n_blocks = 2
        config = InspectConfig(early_stop=False, max_records=120,
                               block_size=120 // n_blocks)
        with Session(config=config,
                     scheduler=schedulers[scheduler]()) as session:
            session.register_model("m0", trained_sql_model)
            session.register_dataset("d0", sql_workload.dataset)
            (session.inspect("m0", "d0").hypotheses(hyps).using("corr")
             .run())
            extractions = session.stats()["hypothesis_cache"]["extractions"]
        assert extractions == len(hyps) * n_blocks


# ----------------------------------------------------------------------
# the output spec
# ----------------------------------------------------------------------
class _PerRecord(HypothesisFunction):
    """A user hypothesis on the per-record path."""

    def __init__(self, name, fn):
        super().__init__(name)
        self.fn = fn

    def behavior(self, dataset, index):
        return self.fn(dataset.record_text(index))


class TestOutputSpec:
    def test_per_record_path_names_the_hypothesis(self):
        ds = text_dataset(["abc", "abd"])
        cases = {
            "returned 2 behaviors": lambda text: np.zeros(2),
            "1-D": lambda text: np.zeros((3, 1)),
            "numeric": lambda text: np.array(list(text)),
        }
        for match, fn in cases.items():
            with pytest.raises(ValueError, match=match) as info:
                _PerRecord("my_hyp", fn).extract(ds)
            assert "'my_hyp'" in str(info.value)
        with pytest.raises(ValueError, match="'fn_hyp'.*returned 2"):
            FunctionHypothesis("fn_hyp", lambda text: [0.0, 1.0]).extract(ds)

    def test_per_record_path_validates_every_record(self):
        ds = text_dataset(["abc", "abd", "abe"])
        seen = []

        def fn(text):
            seen.append(text)
            return np.zeros(3 if text != "abe" else 2)

        with pytest.raises(ValueError, match="returned 2 behaviors"):
            _PerRecord("late", fn).extract(ds)
        assert seen == ["abc", "abd", "abe"]

    def test_block_spec(self):
        good = validate_hypothesis_block("h", np.ones((2, 3), np.float32),
                                         2, 3)
        assert good.dtype == np.float64 and good.shape == (2, 3)
        as_is = np.ones((2, 3))
        assert validate_hypothesis_block("h", as_is, 2, 3) is as_is
        for bad, match in ((np.zeros(6), "2-D"),
                           (np.zeros((2, 3, 1)), "2-D"),
                           (np.zeros((3, 2)), r"\(3, 2\) block"),
                           (np.zeros((2, 4)), r"\(2, 4\) block"),
                           (np.full((2, 3), "a"), "numeric")):
            with pytest.raises(ValueError, match=match) as info:
                validate_hypothesis_block("my_kernel", bad, 2, 3)
            assert "'my_kernel'" in str(info.value)

    def test_a_kernel_that_breaks_the_spec_is_caught(self):
        from repro.hypotheses.base import symbol_kernel

        class Short(HypothesisFunction):
            @symbol_kernel
            def extract(self, symbols, vocab):
                return np.zeros((symbols.shape[0], symbols.shape[1] - 1))

        with pytest.raises(ValueError, match="'short'"):
            Short("short").extract(text_dataset(["abc", "abd"]))

    def test_neither_entry_point_defined(self):
        ds = text_dataset(["abc"])
        with pytest.raises(NotImplementedError, match="behavior.. or extract"):
            HypothesisFunction("bare").extract(ds)
        with pytest.raises(NotImplementedError):
            HypothesisFunction("bare").behavior(ds, 0)


# ----------------------------------------------------------------------
# derived tables: shared, lazy, private
# ----------------------------------------------------------------------
class TestSpanIndex:
    def test_one_tree_walk_serves_every_rule_and_encoding(self, workload,
                                                          monkeypatch):
        walks = []
        original = parse_hyps._flat_spans

        def counting(tree, length, codes):
            walks.append(id(tree))
            return original(tree, length, codes)

        hyps = parse_hypotheses(workload, "derivation")
        monkeypatch.setattr(parse_hyps, "_flat_spans", counting)
        for hyp in hyps:
            hyp.extract(workload.dataset)
        assert sorted(walks) == sorted(map(id, workload.trees))

    def test_index_matches_spans_of(self, workload):
        provider = ParseProvider(workload.grammar, workload.queries,
                                 trees=workload.trees, mode="derivation")
        for sid, source in enumerate(workload.queries):
            tree = provider.tree_for(sid)
            with provider._lock:
                codes, starts, ends = provider._span_index(sid)
            rules = {code: rule for rule, code in provider._codes.items()}
            got = sorted(zip(map(rules.get, codes.tolist()),
                             starts.tolist(), ends.tolist()))
            want = sorted((rule, s, min(e, len(source)))
                          for rule in tree.node_types()
                          for s, e in tree.spans_of(rule)
                          if min(e, len(source)) > s)
            assert got == want

    def test_reparse_parses_only_touched_sources_once(self, workload):
        hyps = parse_hypotheses(workload, "reparse")
        ds = workload.dataset
        first = [i for i, m in enumerate(ds.meta) if m["source_id"] == 0]
        for hyp in hyps:
            hyp.extract(ds, first)
        assert hyps[0].provider.parse_count == 1
        for hyp in hyps:
            hyp.extract(ds)
        assert hyps[0].provider.parse_count == len(workload.queries)


def reference_labels(provider, members, dataset, indices):
    """The family block as a per-record loop over ``ParseNode.spans_of``:
    ``(n, ns, len(members))``, uint8, or int32 when a member counts
    depth."""
    counts = any(m.encoding == "depth" for m in members)
    out = np.zeros((len(indices), dataset.n_symbols, len(members)),
                   np.int32 if counts else np.uint8)
    for r, index in enumerate(indices):
        meta = dataset.meta[index]
        source_id, offset = meta["source_id"], meta["offset"]
        tree = provider.tree_for(source_id)
        length = len(provider.sources[source_id])
        for j, member in enumerate(members):
            labels = np.zeros(length, np.int64)
            for start, end in tree.spans_of(member.rule):
                end = min(end, length)
                if end <= start:
                    continue
                if member.encoding == "depth":
                    labels[start:end] += 1
                elif member.encoding == "time":
                    labels[start:end] = 1
                else:
                    labels[start] = labels[end - 1] = 1
            for t in range(dataset.n_symbols):
                if 0 <= offset + t < length:
                    out[r, t, j] = labels[offset + t]
    return out


@st.composite
def label_blocks(draw, n_records):
    """Record ids of one block: every record, a contiguous part, a
    shuffled part, or ids scattered with repeats."""
    kind = draw(st.sampled_from(["all", "part", "shuffled", "scattered"]))
    if kind == "all":
        return np.arange(n_records)
    if kind == "scattered":
        return np.array(draw(st.lists(st.integers(0, n_records - 1),
                                      max_size=40)), dtype=int)
    start = draw(st.integers(0, n_records))
    stop = draw(st.integers(start, n_records))
    if kind == "part":
        return np.arange(start, stop)
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).permutation(n_records)[start:stop]


class TestFlatIndexLabels:
    """The flat span index labels exactly what the trees say: every
    family block equals, byte for byte and dtype for dtype, a reference
    labeller built from ``ParseNode.spans_of`` alone."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_family_block_equals_the_reference(self, workload, edge_dataset,
                                               data):
        mode = data.draw(st.sampled_from(["derivation", "reparse"]))
        dataset = data.draw(st.sampled_from([workload.dataset,
                                             edge_dataset]))
        # a fresh provider per example: rule codes are numbered in the
        # order its walks meet them, which the block decides.  Sampled
        # trees over sources cut short have spans past their source's end
        cut = data.draw(st.integers(0, 4)) if mode == "derivation" else 0
        hyps = grammar_hypotheses(
            workload.grammar, [q[:len(q) - cut] for q in workload.queries],
            workload.trees if mode == "derivation" else None,
            encodings=ENCODINGS, mode=mode)
        members = [hyps[j] for j in data.draw(st.lists(
            st.integers(0, len(hyps) - 1), min_size=1, max_size=12))]
        encodings = data.draw(st.sets(st.sampled_from(ENCODINGS),
                                      min_size=1))
        members = [m for m in members if m.encoding in encodings] \
            or members[:1]
        members += members[:data.draw(st.integers(0, 2))]    # repeats
        indices = data.draw(label_blocks(dataset.n_records))
        provider = hyps[0].provider
        got = provider.extract_block(members, dataset, indices)
        want = reference_labels(provider, members, dataset, indices)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestPickling:
    def test_derived_tables_stay_home(self, workload):
        hyps = parse_hypotheses(workload, "derivation")
        ds = workload.dataset
        want = [hyp.extract(ds) for hyp in hyps]
        assert hyps[0].provider._index and hyps[0].provider._codes
        assert set(hyps[0].__getstate__()) == {
            "name", "categorical", "rule", "encoding", "provider"}
        assert not {"_index", "_codes", "_cache_key_memo", "_lock"} & set(
            hyps[0].provider.__getstate__())
        clones = pickle.loads(pickle.dumps(hyps))
        assert clones[0].provider._index == {}
        assert clones[0].provider._codes == {}
        for clone, rows in zip(clones, want):
            assert np.array_equal(clone.extract(ds), rows)

    def test_one_pickle_shares_the_provider(self, workload):
        hyps = parse_hypotheses(workload, "derivation")
        clones = pickle.loads(pickle.dumps(hyps))
        assert all(c.provider is clones[0].provider for c in clones)
        alone = [pickle.loads(pickle.dumps(h)) for h in hyps[:2]]
        assert alone[0].provider is not alone[1].provider

    def test_dataset_window_columns(self, workload):
        ds = workload.dataset.subset(range(40))
        source_ids, offsets = ds.window_columns()
        assert source_ids.tolist() == [m["source_id"] for m in ds.meta]
        assert offsets.tolist() == [m["offset"] for m in ds.meta]
        assert ds.window_columns()[0] is source_ids     # derived once
        clone = pickle.loads(pickle.dumps(ds))
        assert "_window_columns" not in vars(clone)
        assert np.array_equal(clone.window_columns()[1], offsets)
        # a subset re-derives its own columns from its own meta
        sub = ds.subset([7, 3])
        assert "_window_columns" not in vars(sub)
        assert sub.window_columns()[1].tolist() == [offsets[7], offsets[3]]

    def test_subset_extracts_like_the_parent_rows(self, workload):
        ds = workload.dataset
        picks = [31, 2, 2, 77]
        sub = ds.subset(picks)
        for hyp in parse_hypotheses(workload, "derivation")[::5]:
            assert np.array_equal(hyp.extract(sub), hyp.extract(ds, picks))


class TestStoreKeys:
    """Persisted keys are an on-disk format: a store written before the
    provider memoised its identity must keep serving hits."""

    def test_keys_are_pinned(self):
        wl = generate_sql_workload("small", n_queries=6, window=20,
                                   stride=5, seed=4)
        dataset_key = "a2dcc20896de542831d92fbc97e3fea191b0dd41"
        assert wl.dataset.cache_key() == dataset_key
        prefix = f"hyp/{dataset_key}/ParseTreeHypothesis(categorical=False, e..."
        pinned = {
            ("derivation", "time:bool_op"): "16393b15714c75be",
            ("derivation", "depth:where_clause"): "fcd7712946603e28",
            ("reparse", "time:bool_op"): "22754975f74a1f0f",
            ("reparse", "depth:where_clause"): "6bfd222ca8d0c348",
        }
        for (mode, name), digest in pinned.items():
            hyps = grammar_hypotheses(
                wl.grammar, wl.queries,
                wl.trees if mode == "derivation" else None,
                encodings=ENCODINGS, mode=mode)
            hyp = next(h for h in hyps if h.name == name)
            assert hyp_store_key(dataset_key, hyp.cache_key()) \
                == prefix + digest
        assert hyp_store_key(dataset_key,
                             KeywordHypothesis("SELECT").cache_key()) == (
            f"hyp/{dataset_key}/KeywordHypothesis(categorical=False, "
            "key...bbac0607aca05c80")

    #: SHA-1 of each ``cache_key()`` of the benchmark-shaped hypothesis
    #: set (every grammar rule in derivation mode, then the SQL keywords)
    #: over :meth:`pinned_workload`, as stores written so far hold them
    PINNED_HYPOTHESES = """
    ffeff0575e71a8814078d611ab85c040c42a3c61 time:agg_expr
    e8627f01624fd0074b975559c6e4aadc5a674eaf time:agg_fn
    c64c0b0a356442e45e0ad730b57c5a5d37df2bee time:bool_op
    63478fdc3b1bd1a47a9048df7504e5ea4ea37629 time:column_list
    97e33f3685d8c4e28f26e9c814faeef0c370896a time:column_name
    6eeee599747ab7b5117c228b9593aabadb7a59cd time:column_ref
    e1d56a2fc6c43ac9cfe56f98c0766faf620e8f22 time:comp_op
    0e9137753007ac9295928f760e1b22ee3413fdbb time:comparison
    d91890fb35f11bc40bc3e5ddff64ed63cc9bba56 time:digit
    e4c6cd7251864b9124ba0ccbc78e788789909f55 time:direction
    9dceefdebcffddefca2e49a05b745e17c16ced02 time:from_clause
    4eef02a426a48b84701bfbd080bd1b6afe23b026 time:group_clause
    053d2e4806bae4f7735af136a724bf6e91ec0504 time:letter
    93966c88c1e1f7b8d2d045f0eaaccb127bc4b577 time:limit_clause
    4549bef46908884e335d17d0127d0d28ba227337 time:number
    1ffedcfaff4be6f6490dac3964006d8ebd828511 time:opt_group
    c883e7bc48a305dca220815ced84f4efa48fb438 time:opt_limit
    6306cdc7ac21a847a51f49c9fd6b443b500fcd96 time:opt_order
    bb95922222d56c46a770abb0025d12c0a984d4b2 time:opt_where
    f27d7cf1bc235414efc4a05797302108dffbc7e2 time:order_clause
    38e3304ad796c89976f6196d8fa478eb23e427f2 time:ordering_term
    5304ba9f73b3d2dd3df4cdd7846b8752662accda time:predicate
    d9de55a04be6bfe24fdc3f720f631dc1bfc73ea0 time:select_clause
    b0843a7f6e62960d5d58515de6e49ab18eb54137 time:select_item
    f08d3038c57c7f19b65d651b941da25203cc83e1 time:select_list
    823b22243171f877ad54d69c3fe03bf0a8606add time:string_lit
    18ff337e33cf9a81a31fc90536d239d2a56d438e time:table_list
    60ceb405e3c82fa0f38ce181a1f97f4463858aa1 time:table_name
    aee3d0f87dca2cd855297688654fa6dbb4e64928 time:value
    684aa044fcca60bb13abbd72cfa046a60b102b77 time:where_clause
    7943cab226bb7940983bdbf12ad1396db72e481f time:word
    d85372a33483835d18ec85371b4d25987a7ad0ef signal:agg_expr
    5242687e1dcaa19354957ace8084ad69ba379d58 signal:agg_fn
    02e5e2dc29308428fc077da1a7e36cff8c9393ba signal:bool_op
    cf9b475c7a25224c9e83ecbe7f84640f924c91f3 signal:column_list
    5b7221744d343bebed47f37931fd5196e45162ae signal:column_name
    1c620065df5cd4a967fdf97563055ec48fba9403 signal:column_ref
    3046a86d6ab2892f0dec2aee3a8517774d713be7 signal:comp_op
    22ec71f881d909c5ae823a8c42eaa0908c09fca2 signal:comparison
    c0478fa16ad268c47a1ef3f4c12c54cca0bc7264 signal:digit
    283574984d5838f1f5c198349cfb7559cb1e5015 signal:direction
    ee96d9bf5d1857da1b3bd7155bb07e6ca433bcbd signal:from_clause
    73b5196114b379d4d921b367711f35b70987bd40 signal:group_clause
    3393b994a2fa7ee45a33e4c5776785122bb46f02 signal:letter
    2e0196a79135cd5985d4abda2aba87b73be1a638 signal:limit_clause
    412cec805928dbc0fb16984cc37c1810a51ea435 signal:number
    bf695b8053a69c362a25e486ae974d430b22f094 signal:opt_group
    d163a5404a6e12b18b06a23e8dd216ecbcb12000 signal:opt_limit
    c1a3fa8f32eaf772dab9c8c4aa34664a12a0656f signal:opt_order
    2397e433c33a7d5b986f32a43194b70d51fb1853 signal:opt_where
    26c3a7a132ebed2731c44114b0a3158b24340ac4 signal:order_clause
    b07c8173ef38f971ff845210478d29e388afccc9 signal:ordering_term
    7169c10ced1b1ae87b0ba8a7a1c4acc4aa6a60e1 signal:predicate
    f8ee1e7e1d1534c46a8e7891f174062c5dad7279 signal:select_clause
    7b13b49efa1fa226dcff9f40f47c1b3334851150 signal:select_item
    5c849b4077e5b4cb78905861df2781e57792a075 signal:select_list
    089062546ab50c8c787b6b265db6bdbd9769b897 signal:string_lit
    463f1879e51b88f47031a640dbeb4207a33094bf signal:table_list
    8125f4095e55fddaaf35ab07793bc028a6e08820 signal:table_name
    36cb500cbee835a0bba3a654b03fd814dad19a2a signal:value
    ded2340c681b6f4d642869fd23f9615fdc7e7e06 signal:where_clause
    c7e0c2aeaaa871ad85a2eec43b7f54795ba25286 signal:word
    bbac0607aca05c80f6bbc1613365969c4bc65313 kw:SELECT
    bba7902921cf3c154e241b0a2de20b654df1dac8 kw:FROM
    ffc6e90c7138a57cc4be63a85a8cfc30e23b3150 kw:WHERE
    0ff46525437604afebcb6d4c58699dccffe32031 kw:GROUP BY
    3e93b17f47bf7c633952b8fa162a27b5370c0f15 kw:ORDER BY
    93a1b4ba4503321dd836e0513ae05d11f50f6fd8 kw:LIMIT
    ea4b16d251f38aa9176073e5fb08e3837b3cb7d7 kw:AND
    4ce0be1d2db717ad0e874e42485185f010f750c9 kw:OR
    306a979c59bb9c39b2bdccd349dfc6a7f5a1dc00 kw:ASC
    1806ccd477b9e7a61e6d014bfc072d761a849680 kw:DESC
"""
    #: ... and of the LSTM extractor's behaviour and raw-sweep keys
    PINNED_EXTRACTOR = ("14479766e13385336db20acb0c39142db544cfc2",
                        "b177d0332506b8bc87b49967017063fe7720ccbf")

    @staticmethod
    def pinned_workload():
        return generate_sql_workload("default", n_queries=8, window=30,
                                     stride=5, seed=11)

    def test_benchmark_identities_are_pinned(self):
        """Provider state is private: building the span index (or any
        derived table) moves no identity a store is keyed by."""
        def digest(key):
            return hashlib.sha1(key.encode()).hexdigest()

        pinned = dict(line.split(maxsplit=1)[::-1] for line in
                      self.PINNED_HYPOTHESES.strip().splitlines())
        wl = self.pinned_workload()
        for used in (False, True):
            hyps = grammar_hypotheses(wl.grammar, wl.queries, wl.trees,
                                      mode="derivation") \
                + sql_keyword_hypotheses()
            if used:
                extract_columns(hyps, wl.dataset)
                assert hyps[0].provider._index
            assert len(hyps) == len(pinned) == 72
            assert {h.name: digest(h.cache_key()) for h in hyps} == pinned
        extractor = RnnActivationExtractor()
        assert (digest(extractor.cache_key()),
                digest(extractor.raw_key())) == self.PINNED_EXTRACTOR

    def test_provider_identity_is_rendered_once_and_ignores_use(self,
                                                                workload):
        hyps = parse_hypotheses(workload, "reparse")
        provider = hyps[0].provider
        rendered = provider.cache_key()
        assert provider.cache_key() is rendered
        assert f"provider={rendered}" in hyps[0].cache_key()
        hyps[0].extract(workload.dataset)        # parse_count moves
        assert provider.parse_count > 0
        assert "parse_count=0" in rendered
        assert f"provider={rendered}" in hyps[1].cache_key()


# ----------------------------------------------------------------------
# concurrency: the threads scheduler shares one provider
# ----------------------------------------------------------------------
class TestThreads:
    N_THREADS = 8

    @pytest.mark.parametrize("mode", ["derivation", "reparse"])
    def test_threads_off_one_fresh_provider_yield_the_serial_bytes(
            self, mode):
        wl = generate_sql_workload("default", n_queries=24, window=30,
                                   stride=5, seed=9)
        trees = wl.trees if mode == "derivation" else None

        def make():
            return grammar_hypotheses(wl.grammar, wl.queries, trees,
                                      mode=mode)

        ds = wl.dataset
        blocks = np.array_split(
            np.random.default_rng(1).permutation(ds.n_records), 4)
        serial = [[h.extract(ds, b).tobytes() for b in blocks]
                  for h in make()]
        hyps = make()
        assert len(hyps) >= 54
        barrier = threading.Barrier(self.N_THREADS)

        def work(slot):
            barrier.wait(timeout=30)
            # every thread walks the hypotheses from a different start, so
            # fills of one table and of the span index collide
            order = np.roll(np.arange(len(hyps)), -slot * 7)
            got = {int(hi): [hyps[hi].extract(ds, b).tobytes()
                             for b in blocks] for hi in order}
            return [got[i] for i in range(len(hyps))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(self.N_THREADS) as pool:
                futures = [pool.submit(work, slot)
                           for slot in range(self.N_THREADS)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert got == serial
        if mode == "reparse":   # one parse per source, whoever asked first
            assert hyps[0].provider.parse_count == len(wl.queries)
