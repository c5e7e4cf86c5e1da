"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.datasets import Dataset, Vocab
from repro.hypotheses import NestingDepthHypothesis
from repro.hypotheses.fsm import keyword_fsm
from repro.measures import (CorrelationScore, DiffMeansScore,
                            LinearProbeScore)
from repro.measures.stats import f1_score, fisher_ci_halfwidth
from repro.nn.layers import sigmoid, softmax
from repro.util.blocks import iter_blocks
from repro.util.frame import Frame

# moderate examples: the suite must stay fast
FAST = settings(max_examples=30, deadline=None)


# ----------------------------------------------------------------------
# util
# ----------------------------------------------------------------------
@FAST
@given(st.integers(1, 500), st.integers(1, 64))
def test_blocks_partition_range(n, block):
    slices = list(iter_blocks(n, block))
    covered = [i for s in slices for i in range(s.start, s.stop)]
    assert covered == list(range(n))
    assert all(s.stop - s.start <= block for s in slices)


@FAST
@given(st.lists(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                                st.integers(-5, 5)), max_size=20))
def test_frame_roundtrip_preserves_rows(records):
    frame = Frame.from_records(records, columns=["a", "b", "c"])
    rebuilt = Frame.from_records(frame.rows(), columns=["a", "b", "c"])
    assert rebuilt == frame


# ----------------------------------------------------------------------
# grammar / text
# ----------------------------------------------------------------------
@FAST
@given(st.text(alphabet="abc~", min_size=1, max_size=40))
def test_vocab_roundtrip(text):
    vocab = Vocab("abc")
    assert vocab.decode(vocab.encode(text)) == text


@st.composite
def balanced_parens(draw, max_depth=4):
    """Generate well-formed nested paren strings with digits."""
    def gen(depth):
        parts = []
        for _ in range(draw(st.integers(0, 2))):
            if depth < max_depth and draw(st.booleans()):
                parts.append("(" + gen(depth + 1) + ")")
            else:
                parts.append(str(draw(st.integers(0, 4))))
        return "".join(parts)
    return gen(0) or "0"


@FAST
@given(balanced_parens())
def test_nesting_depth_labels_invariants(text):
    vocab = Vocab(sorted(set(text)))
    dataset = Dataset(vocab.encode(text)[None], vocab, [{"text": text}])
    labels = NestingDepthHypothesis().behavior(dataset, 0).tolist()
    assert len(labels) == len(text)
    assert all(lv >= 0 for lv in labels)
    assert labels[-1] == 0  # a balanced string ends at the outer level
    # matching parens carry the same level
    stack = []
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append(i)
        elif ch == ")":
            j = stack.pop()
            assert labels[i] == labels[j]


@FAST
@given(st.text(alphabet="ab", min_size=1, max_size=8),
       st.text(alphabet="ab", max_size=60))
def test_keyword_fsm_matches_python_find(keyword, text):
    fsm = keyword_fsm(keyword)
    states = fsm.run(text)
    ends_at = {i for i in range(len(text))
               if text[:i + 1].endswith(keyword)}
    detected = {i for i, s in enumerate(states) if s == len(keyword)}
    assert detected == ends_at


# ----------------------------------------------------------------------
# numerics
# ----------------------------------------------------------------------
@FAST
@given(arrays(np.float64, (7,), elements=st.floats(-30, 30)))
def test_softmax_is_distribution(x):
    p = softmax(x)
    assert np.all(p >= 0)
    assert np.isclose(p.sum(), 1.0)


@FAST
@given(arrays(np.float64, (9,), elements=st.floats(-500, 500)))
def test_sigmoid_bounded_monotone(x):
    y = sigmoid(np.sort(x))
    assert np.all((y >= 0) & (y <= 1))
    assert np.all(np.diff(y) >= -1e-12)


@FAST
@given(st.floats(-0.99, 0.99), st.integers(5, 10_000))
def test_fisher_halfwidth_positive_and_decreasing(r, n):
    hw_n = fisher_ci_halfwidth(np.array([r]), n)[0]
    hw_2n = fisher_ci_halfwidth(np.array([r]), 2 * n)[0]
    assert hw_n > 0
    assert hw_2n <= hw_n + 1e-12


@FAST
@given(arrays(np.int8, (25,), elements=st.integers(0, 1)),
       arrays(np.int8, (25,), elements=st.integers(0, 1)))
def test_f1_bounds_and_symmetry_at_perfect(pred, truth):
    score = f1_score(pred, truth)
    assert 0.0 <= score <= 1.0
    assert f1_score(truth, truth) in (0.0, 1.0)  # 0 only when all-negative


# ----------------------------------------------------------------------
# measures: invariance properties
# ----------------------------------------------------------------------
@st.composite
def behavior_pair(draw):
    n = draw(st.integers(40, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    units = rng.standard_normal((n, 3))
    hyps = (rng.random((n, 2)) > 0.5).astype(float)
    return units, hyps


@FAST
@given(behavior_pair())
def test_correlation_bounded(pair):
    units, hyps = pair
    res = CorrelationScore().compute(units, hyps)
    assert np.all(np.abs(res.unit_scores) <= 1.0 + 1e-12)


@FAST
@given(behavior_pair(), st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
def test_correlation_affine_invariant(pair, scale, shift):
    units, hyps = pair
    base = CorrelationScore().compute(units, hyps).unit_scores
    scaled = CorrelationScore().compute(units * scale + shift,
                                        hyps).unit_scores
    assert np.allclose(base, scaled, atol=1e-9)


@FAST
@given(behavior_pair())
def test_correlation_sign_flips_with_negation(pair):
    units, hyps = pair
    base = CorrelationScore().compute(units, hyps).unit_scores
    flipped = CorrelationScore().compute(-units, hyps).unit_scores
    assert np.allclose(base, -flipped, atol=1e-9)


@FAST
@given(behavior_pair())
def test_correlation_block_order_invariant(pair):
    units, hyps = pair
    measure = CorrelationScore()
    state_a = measure.new_state(3, 2)
    measure.process_block(state_a, units[:50], hyps[:50])
    measure.process_block(state_a, units[50:], hyps[50:])
    state_b = measure.new_state(3, 2)
    measure.process_block(state_b, units[50:], hyps[50:])
    measure.process_block(state_b, units[:50], hyps[:50])
    assert np.allclose(state_a.unit_scores(), state_b.unit_scores(),
                       atol=1e-9)


@FAST
@given(behavior_pair())
def test_diff_means_antisymmetric_under_label_flip(pair):
    units, hyps = pair
    base = DiffMeansScore().compute(units, hyps).unit_scores
    flipped = DiffMeansScore().compute(units, 1.0 - hyps).unit_scores
    # flipping active/inactive flips the sign wherever the score is defined
    defined = (base != 0) & (flipped != 0)
    assert np.allclose(base[defined], -flipped[defined], atol=1e-9)


@FAST
@given(behavior_pair())
def test_linear_probe_r2_at_most_one(pair):
    units, hyps = pair
    res = LinearProbeScore().compute(units, hyps)
    assert np.all(res.group_scores <= 1.0 + 1e-9)
