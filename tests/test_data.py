"""Tests for vocab, dataset containers and workload generators."""

import numpy as np
import pytest

from repro.data.datasets import PAD_CHAR, Dataset, Vocab
from repro.data.sql_gen import generate_parens_workload, generate_sql_workload


class TestVocab:
    def test_pad_is_id_zero(self):
        vocab = Vocab("abc")
        assert vocab.pad_id == 0
        assert vocab.char(0) == PAD_CHAR

    def test_encode_decode_roundtrip(self):
        vocab = Vocab("abc")
        ids = vocab.encode("cab~a")
        assert vocab.decode(ids) == "cab~a"

    def test_unknown_char_rejected(self):
        vocab = Vocab("ab")
        with pytest.raises(ValueError, match="not in vocab"):
            vocab.encode("abz")

    def test_duplicate_chars_collapse(self):
        vocab = Vocab("aabbb")
        assert len(vocab) == 3  # pad + a + b

    def test_contains(self):
        vocab = Vocab("ab")
        assert "a" in vocab and "z" not in vocab



class TestDataset:
    @pytest.fixture
    def dataset(self):
        vocab = Vocab("ab")
        symbols = np.array([[1, 2, 0], [2, 1, 1]])
        meta = [{"text": "ab~"}, {"text": "baa"}]
        return Dataset(symbols, vocab, meta)

    def test_shape_accessors(self, dataset):
        assert dataset.n_records == 2
        assert dataset.n_symbols == 3
        assert len(dataset) == 2

    def test_record_text_prefers_meta(self, dataset):
        assert dataset.record_text(0) == "ab~"

    def test_record_text_falls_back_to_decode(self):
        vocab = Vocab("ab")
        ds = Dataset(np.array([[1, 2]]), vocab)
        assert ds.record_text(0) == "ab"

    def test_subset_keeps_meta(self, dataset):
        sub = dataset.subset([1])
        assert sub.n_records == 1
        assert sub.record_text(0) == "baa"

    def test_subset_slice(self, dataset):
        assert dataset.subset(slice(0, 1)).n_records == 1

    def test_head(self, dataset):
        assert dataset.head(1).n_records == 1

    def test_rejects_1d_symbols(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1, 2]), Vocab("ab"))

    def test_rejects_meta_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1], [2]]), Vocab("ab"), meta=[{}])

    def test_cache_key_stable_and_content_sensitive(self, dataset):
        key1 = dataset.cache_key()
        assert key1 == dataset.cache_key()
        other = Dataset(dataset.symbols + 0, dataset.vocab)
        assert other.cache_key() == key1  # same content
        different = Dataset(dataset.symbols[:, :2].copy(), dataset.vocab)
        assert different.cache_key() != key1


class TestSqlWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_sql_workload("small", n_queries=10, window=20,
                                     stride=5, seed=3)

    def test_window_size(self, workload):
        assert workload.dataset.n_symbols == 20

    def test_targets_align_with_next_char(self, workload):
        ds = workload.dataset
        for i in range(min(20, ds.n_records)):
            meta = ds.meta[i]
            query = workload.queries[meta["source_id"]]
            target_pos = meta["offset"] + ds.n_symbols
            expected = query[target_pos] if 0 <= target_pos < len(query) \
                else PAD_CHAR
            assert ds.vocab.char(int(workload.targets[i])) == expected

    def test_window_text_matches_padded_source(self, workload):
        ds = workload.dataset
        for i in range(min(10, ds.n_records)):
            meta = ds.meta[i]
            query = PAD_CHAR * ds.n_symbols + workload.queries[meta["source_id"]]
            start = meta["offset"] + ds.n_symbols
            assert meta["text"] == query[start:start + ds.n_symbols]

    def test_first_window_is_fully_padded_prefix(self, workload):
        first = workload.dataset.record_text(0)
        assert first.startswith(PAD_CHAR)

    def test_stride_spacing(self, workload):
        offs = [m["offset"] for m in workload.dataset.meta
                if m["source_id"] == 0]
        assert all(b - a == 5 for a, b in zip(offs, offs[1:]))

    def test_max_records_cap(self):
        wl = generate_sql_workload("small", n_queries=10, window=20,
                                   stride=5, seed=3, max_records=7)
        assert wl.dataset.n_records == 7

    def test_trees_align_with_queries(self, workload):
        for text, tree in zip(workload.queries, workload.trees):
            assert tree.text() == text

    def test_reproducible(self):
        a = generate_sql_workload("small", n_queries=5, seed=9)
        b = generate_sql_workload("small", n_queries=5, seed=9)
        assert a.queries == b.queries
        assert np.array_equal(a.dataset.symbols, b.dataset.symbols)


class TestParensWorkload:
    def test_min_length_respected(self):
        wl = generate_parens_workload(n_strings=20, window=12, stride=3,
                                      min_length=6, seed=1)
        assert all(len(q) >= 6 for q in wl.queries)

    def test_vocab_covers_grammar(self):
        wl = generate_parens_workload(n_strings=10, seed=2)
        for ch in "0123()":
            assert ch in wl.dataset.vocab
