"""Tests for hypothesis functions: spec validation, generators, FSMs, POS."""

import numpy as np
import pytest

from repro.data.datasets import Dataset, Vocab
from repro.hypotheses import (CharSetHypothesis, FunctionHypothesis,
                              KeywordHypothesis, NestingDepthHypothesis,
                              PositionCounterHypothesis, PrecomputedHypothesis,
                              PrefixLengthHypothesis, SimplePosTagger,
                              grammar_hypotheses, keyword_fsm,
                              validate_hypothesis_output)
from repro.hypotheses.fsm import FSM, FsmHypothesis
from repro.hypotheses.library import CurrentCharHypothesis
from repro.hypotheses.parse_hyps import ParseProvider, ParseTreeHypothesis


def make_dataset(texts: list[str]) -> Dataset:
    chars = sorted({c for t in texts for c in t})
    vocab = Vocab(chars)
    symbols = np.stack([vocab.encode(t) for t in texts])
    meta = [{"text": t} for t in texts]
    return Dataset(symbols, vocab, meta)


class TestValidation:
    def test_accepts_correct_shape(self):
        out = validate_hypothesis_output("h", np.zeros(5), 5)
        assert out.dtype == np.float64

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="returned 3 behaviors"):
            validate_hypothesis_output("h", np.zeros(3), 5)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            validate_hypothesis_output("h", np.zeros((2, 2)), 4)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="numeric"):
            validate_hypothesis_output("h", np.array(["a", "b"]), 2)

    def test_extract_validates_each_record(self):
        ds = make_dataset(["abc", "abd"])
        bad = FunctionHypothesis("bad", lambda text: np.zeros(2))
        with pytest.raises(ValueError):
            bad.extract(ds)


class TestLibrary:
    def test_keyword_marks_occurrence(self):
        ds = make_dataset(["xxSELECTxx"])
        hyp = KeywordHypothesis("SELECT")
        out = hyp.behavior(ds, 0)
        assert out.tolist() == [0, 0, 1, 1, 1, 1, 1, 1, 0, 0]

    def test_keyword_marks_overlapping_occurrences(self):
        ds = make_dataset(["aaa"])
        out = KeywordHypothesis("aa").behavior(ds, 0)
        assert out.tolist() == [1, 1, 1]

    def test_keyword_absent(self):
        ds = make_dataset(["hello"])
        assert KeywordHypothesis("zz").behavior(ds, 0).sum() == 0

    def test_charset(self):
        ds = make_dataset(["a b c"])
        out = CharSetHypothesis("space", " ").behavior(ds, 0)
        assert out.tolist() == [0, 1, 0, 1, 0]

    def test_position_counter(self):
        ds = make_dataset(["abcd"])
        out = PositionCounterHypothesis().behavior(ds, 0)
        assert out.tolist() == [0, 1, 2, 3]

    def test_prefix_length_skips_padding(self):
        ds = make_dataset(["~~ab"])
        out = PrefixLengthHypothesis().behavior(ds, 0)
        assert out.tolist() == [0, 0, 1, 2]

    def test_nesting_depth(self):
        ds = make_dataset(["0(1(2))"])
        out = NestingDepthHypothesis().behavior(ds, 0)
        assert out.tolist() == [0, 0, 1, 1, 2, 1, 0]

    def test_nesting_depth_labels_example(self):
        ds = make_dataset(["0(1(2((44))))"])
        out = NestingDepthHypothesis().behavior(ds, 0)
        assert out.tolist() == [0, 0, 1, 1, 2, 2, 3, 4, 4, 3, 2, 1, 0]

    def test_nesting_depth_labels_flat(self):
        ds = make_dataset(["012"])
        assert NestingDepthHypothesis().behavior(ds, 0).tolist() == [0, 0, 0]

    def test_nesting_level_indicator(self):
        ds = make_dataset(["0(1)"])
        out = NestingDepthHypothesis(level=1).behavior(ds, 0)
        assert out.tolist() == [0, 0, 1, 0]

    def test_current_char(self):
        ds = make_dataset(["abca"])
        out = CurrentCharHypothesis("a").behavior(ds, 0)
        assert out.tolist() == [1, 0, 0, 1]

    def test_current_char_rejects_multichar(self):
        with pytest.raises(ValueError):
            CurrentCharHypothesis("ab")


class TestPrecomputed:
    def test_returns_rows(self):
        matrix = np.arange(6, dtype=float).reshape(2, 3)
        hyp = PrecomputedHypothesis("pre", matrix)
        ds = make_dataset(["abc", "abd"])
        assert hyp.behavior(ds, 1).tolist() == [3, 4, 5]
        assert np.array_equal(hyp.extract(ds), matrix)

    def test_extract_with_indices(self):
        matrix = np.arange(6, dtype=float).reshape(2, 3)
        hyp = PrecomputedHypothesis("pre", matrix)
        out = hyp.extract(None, [1])
        assert out.tolist() == [[3, 4, 5]]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            PrecomputedHypothesis("pre", np.zeros(3))


class TestFsm:
    def test_keyword_fsm_detects_completion(self):
        fsm = keyword_fsm("ab")
        states = fsm.run("xabab")
        # state 2 = "just read 'ab'"
        assert states.tolist() == [0, 1, 2, 1, 2]

    def test_keyword_fsm_overlap_via_kmp(self):
        fsm = keyword_fsm("aa")
        states = fsm.run("aaa")
        assert states.tolist() == [1, 2, 2]  # overlapping matches

    def test_fsm_hypothesis_state_indicator(self):
        fsm = keyword_fsm("ab")
        hyp = FsmHypothesis("kw", fsm, state=2)
        ds = make_dataset(["xabab"])
        assert hyp.behavior(ds, 0).tolist() == [0, 0, 1, 0, 1]

    def test_fsm_hypothesis_categorical(self):
        fsm = keyword_fsm("ab")
        hyp = FsmHypothesis("kw", fsm)
        assert hyp.categorical
        ds = make_dataset(["ab"])
        assert hyp.behavior(ds, 0).tolist() == [1, 2]

    def test_state_hypotheses_hot_one(self):
        fsm = keyword_fsm("ab")
        hyps = [FsmHypothesis(f"kw_{state}", fsm, state=state)
                for state in range(fsm.n_states)]
        ds = make_dataset(["ab"])
        total = sum(h.behavior(ds, 0) for h in hyps)
        assert np.all(total == 1.0)  # exactly one state active per symbol

    def test_default_transition(self):
        fsm = FSM(initial=0, transitions={0: {"a": 1, None: 0},
                                          1: {None: 0}})
        assert fsm.run("azb").tolist() == [1, 0, 0]


class TestParseHypotheses:
    @pytest.fixture(scope="class")
    def workload(self):
        from repro.data import generate_sql_workload
        return generate_sql_workload("small", n_queries=6, window=20,
                                     stride=5, seed=4)

    def test_two_encodings_per_nonterminal(self, workload):
        hyps = grammar_hypotheses(workload.grammar, workload.queries,
                                  workload.trees, mode="derivation")
        nts = workload.grammar.nonterminals - {"query"}
        assert len(hyps) == 2 * len(nts)

    def test_time_hypothesis_marks_rule_span(self, workload):
        hyps = grammar_hypotheses(workload.grammar, workload.queries,
                                  workload.trees, mode="derivation")
        by_name = {h.name: h for h in hyps}
        hyp = by_name["time:select_clause"]
        ds = workload.dataset
        # find a window overlapping the start of its query
        idx = next(i for i, m in enumerate(ds.meta)
                   if m["offset"] < 7 and m["offset"] > -ds.n_symbols + 7)
        out = hyp.behavior(ds, idx)
        text = ds.record_text(idx)
        for j in range(len(text)):
            pos = ds.meta[idx]["offset"] + j
            if 0 <= pos < 7:  # "SELECT " prefix belongs to select_clause
                assert out[j] == 1.0

    def test_signal_at_most_two_per_span(self, workload):
        hyps = grammar_hypotheses(workload.grammar, workload.queries,
                                  workload.trees,
                                  encodings=("signal",), mode="derivation")
        by_name = {h.name: h for h in hyps}
        hyp = by_name["signal:table_name"]
        # one record that covers source 0 end to end
        vocab = workload.dataset.vocab
        whole = Dataset(vocab.encode(workload.queries[0])[None, :], vocab,
                        [{"source_id": 0, "offset": 0}])
        labels = hyp.extract(whole)[0]
        n_spans = len(hyp.provider.tree_for(0).spans_of("table_name"))
        assert 0 < labels.sum() <= 2 * n_spans

    def test_padding_positions_are_zero(self, workload):
        hyps = grammar_hypotheses(workload.grammar, workload.queries,
                                  workload.trees, mode="derivation")
        ds = workload.dataset
        out = hyps[0].behavior(ds, 0)  # first window starts fully padded
        pad_positions = [j for j, ch in enumerate(ds.record_text(0))
                         if ch == "~"]
        assert all(out[j] == 0.0 for j in pad_positions)

    def test_reparse_mode_counts_parses(self, workload):
        provider = ParseProvider(workload.grammar, workload.queries,
                                 mode="reparse")
        hyp = ParseTreeHypothesis("table_name", "time", provider)
        ds = workload.dataset
        hyp.behavior(ds, 0)
        hyp.behavior(ds, 1)  # same source string: no second parse
        assert provider.parse_count == 1

    def test_provider_shared_across_hypotheses(self, workload):
        hyps = grammar_hypotheses(workload.grammar, workload.queries,
                                  mode="reparse")
        ds = workload.dataset
        hyps[0].behavior(ds, 0)
        hyps[1].behavior(ds, 0)
        assert hyps[0].provider is hyps[1].provider
        assert hyps[0].provider.parse_count == 1

    def test_derivation_mode_never_parses(self, workload):
        hyps = grammar_hypotheses(workload.grammar, workload.queries,
                                  workload.trees, mode="derivation")
        ds = workload.dataset
        for h in hyps[:4]:
            h.behavior(ds, 0)
        assert hyps[0].provider.parse_count == 0

    def test_derivation_mode_requires_trees(self, workload):
        with pytest.raises(ValueError):
            ParseProvider(workload.grammar, workload.queries,
                          mode="derivation")

    def test_invalid_encoding_rejected(self, workload):
        provider = ParseProvider(workload.grammar, workload.queries,
                                 trees=workload.trees, mode="derivation")
        with pytest.raises(ValueError):
            ParseTreeHypothesis("table_name", "nope", provider)


class TestPosTagger:
    def test_closed_class_words(self):
        tagger = SimplePosTagger()
        assert tagger.tag(["the", "dog", "and", "he"]) == \
            ["DT", "NN", "CC", "PRP"]

    def test_lexicon_overrides(self):
        tagger = SimplePosTagger(lexicon={"dog": "NN", "sees": "VBZ"})
        assert tagger.tag_word("sees") == "VBZ"

    def test_capitalized_is_nnp(self):
        assert SimplePosTagger().tag_word("Berlin") == "NNP"

    def test_digits_are_cd(self):
        assert SimplePosTagger().tag_word("42") == "CD"

    def test_suffix_rules(self):
        tagger = SimplePosTagger()
        assert tagger.tag_word("running") == "VBG"
        assert tagger.tag_word("quickly") == "RB"

    def test_default_tag(self):
        assert SimplePosTagger().tag_word("blorp") == "NN"

    def test_tag_maps_unknown_to_default(self):
        assert SimplePosTagger().tag(["the", "blorp"]) == ["DT", "NN"]
