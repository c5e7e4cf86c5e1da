"""Tests for PCFG sampling and the Earley chart parser."""

import pytest

from repro.grammar.cfg import grammar_from_rules
from repro.grammar.earley import EarleyParser, ParseError
from repro.grammar.parens import parens_grammar
from repro.grammar.sampling import GrammarSampler
from repro.grammar.sql import sql_grammar
from repro.util.rng import new_rng


@pytest.fixture
def balanced():
    # classic balanced-parens grammar with epsilon
    return grammar_from_rules("s", [
        ("s", ("(", "s", ")", "s"), 0.4),
        ("s", (), 1.0),
    ])


class TestSampler:
    def test_tree_text_matches_sample(self):
        g = sql_grammar("small")
        sampler = GrammarSampler(g, new_rng(0))
        for _ in range(10):
            text, tree = sampler.sample()
            assert tree.text() == text

    def test_samples_are_reproducible(self):
        g = sql_grammar("small")
        a = GrammarSampler(g, new_rng(42)).sample()[0]
        b = GrammarSampler(g, new_rng(42)).sample()[0]
        assert a == b

    def test_depth_limit_respected(self, balanced):
        sampler = GrammarSampler(balanced, new_rng(0), max_depth=8)
        for _ in range(30):
            text, _ = sampler.sample()
            depth = 0
            for ch in text:
                depth += 1 if ch == "(" else -1
                assert depth >= 0
            assert depth == 0

    def test_sample_corpus_size(self, balanced):
        pairs = GrammarSampler(balanced, new_rng(1)).sample_corpus(5)
        assert len(pairs) == 5

    def test_spans_are_consistent(self):
        g = sql_grammar("small")
        text, tree = GrammarSampler(g, new_rng(3)).sample()
        for node in tree.iter_nodes():
            assert 0 <= node.start <= node.end <= len(text)
            if node.terminal:
                assert text[node.start:node.end] == node.symbol


class TestEarley:
    def test_parses_sampled_sql(self):
        g = sql_grammar("default")
        sampler = GrammarSampler(g, new_rng(5))
        parser = EarleyParser(g)
        for _ in range(5):
            text, _ = sampler.sample()
            tree = parser.parse(text)
            assert tree.text() == text

    def test_parse_tree_spans_match_sampler(self):
        g = sql_grammar("small")
        sampler = GrammarSampler(g, new_rng(9))
        parser = EarleyParser(g)
        text, sampled = sampler.sample()
        parsed = parser.parse(text)
        # same node types should cover the same character spans
        for rule in ("select_clause", "from_clause", "table_name"):
            assert sorted(parsed.spans_of(rule)) == sorted(sampled.spans_of(rule))

    def test_rejects_invalid_input(self):
        g = sql_grammar("small")
        parser = EarleyParser(g)
        with pytest.raises(ParseError):
            parser.parse("NOT SQL AT ALL")

    def test_rejects_truncated_input(self):
        g = sql_grammar("small")
        parser = EarleyParser(g)
        with pytest.raises(ParseError):
            parser.parse("SELECT col_1 FROM")

    def test_epsilon_handling(self, balanced):
        parser = EarleyParser(balanced)
        assert parser.parse("").text() == ""
        assert parser.parse("()").text() == "()"
        assert parser.parse("(())()").text() == "(())()"

    def test_recognizes(self, balanced):
        parser = EarleyParser(balanced)
        assert parser.parse("(())").text() == "(())"
        with pytest.raises(ParseError):
            parser.parse("(()")

    def test_multichar_terminals(self):
        g = grammar_from_rules("s", [("s", ("SELECT ", "x"), 1.0),
                                     ("x", ("col",), 1.0)])
        tree = EarleyParser(g).parse("SELECT col")
        assert tree.text() == "SELECT col"
        leaves = tree.leaves()
        assert leaves[0].symbol == "SELECT "
        assert leaves[0].span == (0, 7)

    def test_ambiguous_prefix_terminals(self):
        # col_1 is a prefix of col_10: parser must explore both
        g = grammar_from_rules("s", [
            ("s", ("name", ";"), 1.0),
            ("name", ("col_1",), 1.0),
            ("name", ("col_10",), 1.0),
        ])
        parser = EarleyParser(g)
        assert parser.parse("col_1;").text() == "col_1;"
        assert parser.parse("col_10;").text() == "col_10;"


class TestPresetGrammars:
    @pytest.mark.parametrize("size,expected", [("small", 95),
                                               ("default", 142),
                                               ("large", 171)])
    def test_rule_counts_match_paper_range(self, size, expected):
        assert len(sql_grammar(size)) == expected

    def test_sql_grammars_validate(self):
        for size in ("small", "default", "large"):
            sql_grammar(size).validate()

    def test_parens_grammar_samples_parse(self):
        g = parens_grammar()
        sampler = GrammarSampler(g, new_rng(2))
        parser = EarleyParser(g)
        for _ in range(10):
            text, _ = sampler.sample()
            assert parser.parse(text).text() == text
