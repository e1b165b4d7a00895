import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfactors.errors import InvalidInputError, ParseError
from btfactors.toyseq.models import (
    BOS,
    EOS,
    ChannelModel,
    NGramLM,
    ParallelCorpus,
    channel_score,
    lm_score,
    train_channel,
    train_ngram_lm,
)


# -- n-gram LM ------------------------------------------------------------------

def test_unigram_counting_without_smoothing():
    lm = train_ngram_lm([["a", "a", "b"]], order=1, alpha=0.0, vocab=["a", "b"], use_eos=False)
    assert lm.prob("a", ()) == pytest.approx(2.0 / 3.0)


def test_unigram_add_one_smoothing():
    lm = train_ngram_lm([["a", "a", "b"]], order=1, alpha=1.0, vocab=["a", "b"], use_eos=False)
    assert lm.prob("a", ()) == pytest.approx(3.0 / 5.0)


def test_every_context_row_sums_to_one():
    corpus = [[0, 1, 2, 1], [2, 2, 0, 1], [1, 0]]
    for alpha in (0.0, 0.1, 1.0):
        lm = train_ngram_lm(corpus, order=2, alpha=alpha, vocab=[0, 1, 2])
        contexts = [(BOS,)] + [(t,) for t in lm.event_vocab]
        for ctx in contexts:
            assert float(lm.prob_row(ctx).sum()) == pytest.approx(1.0, abs=1e-9)


def test_deterministic_lm_scores_zero():
    counts = {(BOS,): {"a": 1}, ("a",): {"b": 1}, ("b",): {EOS: 1}}
    lm = NGramLM(order=2, alpha=0.0, vocab=["a", "b"], counts=counts, use_eos=True)
    assert lm_score(lm, ["a", "b"]) == 0.0


def test_lm_scores_are_nonpositive(rng):
    corpus = [[int(t) for t in rng.integers(0, 5, size=6)] for _ in range(30)]
    lm = train_ngram_lm(corpus, order=2, alpha=0.1, vocab=range(5))
    for sentence in corpus[:10]:
        assert lm_score(lm, sentence) <= 0.0


def test_lm_score_matches_product_of_conditionals():
    corpus = [[0, 1, 2], [2, 1, 0], [0, 1, 0], [1, 2, 2]]
    lm = train_ngram_lm(corpus, order=2, alpha=0.3, vocab=[0, 1, 2])
    for seq in ([0, 1, 2], [2, 2, 2], [1, 0, 1]):
        expected = math.log(lm.prob(seq[0], (BOS,)))
        for prev, tok in zip(seq, seq[1:]):
            expected += math.log(lm.prob(tok, (prev,)))
        expected += math.log(lm.prob(EOS, (seq[-1],)))
        assert lm_score(lm, seq) == pytest.approx(expected, abs=1e-12)


def test_lm_oov_token_scores_finite_with_smoothing():
    lm = train_ngram_lm([[0, 1, 1]], order=2, alpha=0.1, vocab=[0, 1])
    assert math.isfinite(lm_score(lm, [0, 99]))


def test_lm_rejects_empty_corpus():
    with pytest.raises(InvalidInputError):
        train_ngram_lm([], order=2, alpha=0.1)


def test_lm_rejects_token_outside_explicit_vocab():
    with pytest.raises(InvalidInputError):
        train_ngram_lm([[0, 7]], order=1, alpha=0.1, vocab=[0, 1])


def test_lm_order_must_be_an_integer():
    # a fractional order was truncated to a lower-order model
    for order in (2.5, 2.0, "2", None):
        with pytest.raises(InvalidInputError, match="order must be an integer"):
            train_ngram_lm([[0, 1]], order=order, alpha=0.1)
    with pytest.raises(InvalidInputError, match="order must be >= 1"):
        NGramLM(order=0, alpha=0.1, vocab=[0, 1])
    lm = train_ngram_lm([[0, 1]], order=np.int64(3), alpha=0.1)
    assert type(lm.order) is int and lm.order == 3


# -- channel model ------------------------------------------------------------------

FIVE_PAIRS = ParallelCorpus.from_pairs(
    [
        ((0, 1), (10, 11)),
        ((0, 1), (10, 10)),
        ((1, 1), (11, 11)),
        ((1, 0), (11, 10)),
        ((0, 0), (10, 11)),
    ]
)


def test_channel_mle_matches_empirical_frequencies():
    model = train_channel(FIVE_PAIRS, "source_to_target", alpha=0.0)
    counts: dict = {}
    for src, tgt in FIVE_PAIRS.pairs:
        prev = BOS
        for out_tok, cond_tok in zip(tgt, src):
            row = counts.setdefault((prev, cond_tok), {})
            row[out_tok] = row.get(out_tok, 0) + 1
            prev = out_tok
    for state, row in counts.items():
        total = sum(row.values())
        for out_tok, cnt in row.items():
            idx = model.out_index(out_tok)
            assert model.prob_row(*state)[idx] == pytest.approx(cnt / total)


def test_channel_rows_sum_to_one():
    for alpha in (0.0, 0.1, 2.0):
        model = train_channel(FIVE_PAIRS, "source_to_target", alpha=alpha)
        for prev in (BOS,) + model.out_vocab:
            for cond in (0, 1, 5):
                assert float(model.prob_row(prev, cond).sum()) == pytest.approx(1.0, abs=1e-9)


def test_channel_smoothing_moves_monotonically_toward_uniform():
    size = 2
    previous_gap = None
    for alpha in (0.0, 0.1, 1.0, 10.0, 1000.0):
        model = train_channel(FIVE_PAIRS, "source_to_target", alpha=alpha)
        row = model.prob_row(BOS, 0)
        gap = float(np.abs(row - 1.0 / size).max())
        if previous_gap is not None:
            assert gap <= previous_gap + 1e-12
        previous_gap = gap


def test_channel_score_single_token_base_case():
    model = train_channel(FIVE_PAIRS, "source_to_target", alpha=0.1)
    expected = math.log(model.prob_row(BOS, 0)[model.out_index(10)])
    assert channel_score(model, (10,), (0,)) == pytest.approx(expected, abs=1e-12)


def test_channel_score_decomposes_across_boundary():
    model = train_channel(FIVE_PAIRS, "source_to_target", alpha=0.1)
    out, inp = (10, 11, 10, 11), (0, 1, 1, 0)
    head = channel_score(model, out[:2], inp[:2])
    tail = sum(
        model.log_prob(out_tok, prev, cond)
        for out_tok, prev, cond in zip(out[2:], out[1:], inp[2:])
    )
    assert channel_score(model, out, inp) == pytest.approx(head + tail, abs=1e-12)


def test_channel_score_matches_product_oracle_length_four():
    model = train_channel(FIVE_PAIRS, "source_to_target", alpha=0.2)
    out, inp = (10, 10, 11, 11), (1, 0, 1, 0)
    expected = math.log(model.prob_row(BOS, inp[0])[model.out_index(out[0])])
    for t in range(1, 4):
        expected += math.log(model.prob_row(out[t - 1], inp[t])[model.out_index(out[t])])
    assert channel_score(model, out, inp) == pytest.approx(expected, abs=1e-12)


def test_channel_score_rejects_length_mismatch():
    model = train_channel(FIVE_PAIRS, "source_to_target", alpha=0.1)
    with pytest.raises(InvalidInputError):
        channel_score(model, (10,), (0, 1))


def test_parallel_corpus_rejects_unequal_lengths():
    with pytest.raises(InvalidInputError):
        ParallelCorpus.from_pairs([((1, 2), (3,))])


def test_trained_channel_beats_uniform_on_heldout(rng):
    from btfactors.toyseq import ToyTaskSpec, generate_toy_task

    task = generate_toy_task(ToyTaskSpec(bitext_size=500, mono_size=10, test_size=100, seed=5))
    trained = train_channel(task.bitext, "source_to_target", 0.1, out_vocab=task.target_vocab)
    uniform = ChannelModel("source_to_target", alpha=1.0, out_vocab=task.target_vocab)
    trained_ll = sum(channel_score(trained, tgt, src) for src, tgt in task.test.pairs)
    uniform_ll = sum(channel_score(uniform, tgt, src) for src, tgt in task.test.pairs)
    assert trained_ll >= uniform_ll


# -- serialization -------------------------------------------------------------------

def test_lm_serialization_round_trip():
    lm = train_ngram_lm([[0, 1, 2, 1], [2, 0, 1, 1]], order=2, alpha=0.1, vocab=[0, 1, 2])
    text = lm.to_text()
    restored = NGramLM.from_text(text)
    assert restored.to_text() == text
    assert restored.counts == lm.counts
    assert restored.order == lm.order and restored.alpha == lm.alpha
    assert lm_score(restored, [0, 1, 2]) == lm_score(lm, [0, 1, 2])


def test_channel_serialization_round_trip_with_float_counts():
    counts = {
        (BOS, 0): {10: 0.85, 11: 0.15},
        (10, 0): {10: 0.25, 11: 0.75},
    }
    model = ChannelModel("source_to_target", alpha=0.0, out_vocab=[10, 11], counts=counts)
    text = model.to_text()
    restored = ChannelModel.from_text(text)
    assert restored.to_text() == text
    assert restored.counts == model.counts


def test_model_parse_errors_cite_line_numbers():
    with pytest.raises(ParseError):
        NGramLM.from_text("not a model\n")
    bad = "btfactors-ngramlm v1\norder 2\nalpha 0.1\neos 1\nvocab 0 1\ncontext 0 | 0\n"
    with pytest.raises(ParseError) as err:
        NGramLM.from_text(bad)
    assert err.value.line_number == 6


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_model_lines_end_at_newline_only(sep):
    # other line separators are whitespace inside a line, and line numbers stay right
    text = f"btfactors-ngramlm v1\norder 2\nalpha 0.1\neos 1\nvocab 0{sep}1 2\n"
    assert NGramLM.from_text(text).content_vocab == (0, 1, 2)
    with pytest.raises(ParseError) as err:
        NGramLM.from_text(text + "context 0 | 0\n")
    assert err.value.line_number == 6


@pytest.mark.parametrize("value", ["yes", "2", "true", "01", ""])
def test_lm_eos_flag_other_than_0_or_1_cites_its_line(value):
    text = f"btfactors-ngramlm v1\norder 2\nalpha 0.1\neos {value}\nvocab 0 1\n"
    with pytest.raises(ParseError) as err:
        NGramLM.from_text(text)
    assert err.value.line_number == 4


@pytest.mark.parametrize("value, use_eos", [("0", False), ("1", True)])
def test_lm_eos_flag_reads_0_and_1(value, use_eos):
    text = f"btfactors-ngramlm v1\norder 2\nalpha 0.1\neos {value}\nvocab 0 1\n"
    assert NGramLM.from_text(text).use_eos is use_eos


def test_channel_oov_tokens_score_finite_with_smoothing():
    model = train_channel(FIVE_PAIRS, "source_to_target", alpha=0.1)
    # unseen conditioning token and unseen output token both stay finite
    assert math.isfinite(channel_score(model, (10, 11), (0, 999)))
    assert math.isfinite(channel_score(model, (10, 999), (0, 1)))


def test_unreadable_header_values_cite_line_numbers():
    with pytest.raises(ParseError) as err:
        NGramLM.from_text("btfactors-ngramlm v1\norder two\nalpha 0.1\neos 1\nvocab 0 1\n")
    assert err.value.line_number == 2
    with pytest.raises(ParseError) as err:
        ChannelModel.from_text("btfactors-channel v1\ndirection source_to_target\nalpha abc\nvocab 0\n")
    assert err.value.line_number == 3


# -- values that make no sense ---------------------------------------------------------

@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5])
def test_models_reject_alpha_that_is_not_finite_and_non_negative(alpha):
    with pytest.raises(InvalidInputError):
        NGramLM(order=2, alpha=alpha, vocab=[0, 1])
    with pytest.raises(InvalidInputError):
        ChannelModel("source_to_target", alpha=alpha, out_vocab=[0, 1])


@pytest.mark.parametrize("count", [-1, -0.5, math.nan, math.inf])
def test_models_reject_counts_that_are_not_finite_and_non_negative(count):
    with pytest.raises(InvalidInputError):
        NGramLM(order=2, alpha=0.1, vocab=[0, 1], counts={(BOS,): {0: 2, 1: count}})
    with pytest.raises(InvalidInputError):
        ChannelModel("source_to_target", alpha=0.1, out_vocab=[0, 1],
                     counts={(BOS, 5): {0: 2, 1: count}})


# -- the shared count table: properties -------------------------------------------------

INT_TOKENS = st.integers(-3, 25)
STR_TOKENS = st.text(alphabet="abAB_z", min_size=1, max_size=3)
COUNTS = st.one_of(st.integers(0, 50), st.floats(0.0, 50.0))
ALPHAS = st.sampled_from((0, 0.1, 2.5))


@st.composite
def vocabularies(draw):
    kind = draw(st.sampled_from(("int", "str", "mixed")))
    if kind == "int":
        return draw(st.lists(INT_TOKENS, min_size=1, max_size=5, unique=True))
    if kind == "str":
        return draw(st.lists(STR_TOKENS, min_size=1, max_size=5, unique=True))
    ints = draw(st.lists(INT_TOKENS, min_size=1, max_size=3, unique=True))
    return ints + draw(st.lists(STR_TOKENS, min_size=1, max_size=2, unique=True))


def count_rows(keys, events):
    row = st.dictionaries(st.sampled_from(events), COUNTS, max_size=len(events))
    return st.dictionaries(keys, row, max_size=6)


@st.composite
def ngram_lms(draw):
    vocab = draw(vocabularies())
    order = draw(st.integers(1, 3))
    use_eos = draw(st.booleans())
    events = vocab + ([EOS] if use_eos else [])
    keys = st.tuples(*[st.sampled_from(vocab + [BOS])] * (order - 1))
    counts = draw(count_rows(keys, events))
    return NGramLM(order, draw(ALPHAS), vocab, counts=counts, use_eos=use_eos)


@st.composite
def channel_models(draw):
    vocab = draw(vocabularies())
    conds = draw(vocabularies())
    keys = st.tuples(st.sampled_from(vocab + [BOS]), st.sampled_from(conds))
    counts = draw(count_rows(keys, vocab))
    return ChannelModel("target_to_source", draw(ALPHAS), vocab, counts=counts)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(lm=ngram_lms())
def test_lm_text_round_trip_is_byte_stable(lm):
    text = lm.to_text()
    restored = NGramLM.from_text(text)
    assert restored.to_text() == text
    assert restored.counts == lm.counts
    unseen = (BOS,) * (lm.order - 1)
    for ctx in [*lm.counts, unseen]:
        assert same_bits(restored.prob_row(ctx), lm.prob_row(ctx))


@settings(max_examples=150, deadline=None)
@given(model=channel_models())
def test_channel_text_round_trip_is_byte_stable(model):
    text = model.to_text()
    restored = ChannelModel.from_text(text)
    assert restored.to_text() == text
    assert restored.counts == model.counts
    for state in [*model.counts, (BOS, "unseen")]:
        assert same_bits(restored.prob_row(*state), model.prob_row(*state))


@settings(max_examples=100, deadline=None)
@given(vocab=vocabularies(), alpha=ALPHAS, use_eos=st.booleans(), data=st.data())
def test_bigram_log_matrix_stacks_the_log_rows(vocab, alpha, use_eos, data):
    events = vocab + ([EOS] if use_eos else [])
    counts = data.draw(count_rows(st.tuples(st.sampled_from(vocab + [BOS])), events))
    lm = NGramLM(2, alpha, vocab, counts=counts, use_eos=use_eos)
    contexts = [(BOS,)] + [(tok,) for tok in lm.event_vocab]
    expected = np.stack([lm.log_row(ctx) for ctx in contexts])
    assert same_bits(lm.bigram_log_matrix(), expected)


@settings(max_examples=100, deadline=None)
@given(model=channel_models())
def test_matrices_for_cond_stack_the_rows(model):
    prevs = (BOS,) + model.out_vocab
    for cond in {c for _, c in model.counts} | {"unseen"}:
        probs, logs = model.matrices_for_cond(cond)
        assert same_bits(probs, np.stack([model.prob_row(p, cond) for p in prevs]))
        assert same_bits(logs, np.stack([model.log_row(p, cond) for p in prevs]))


# -- batched scoring equals the scalar score bit for bit --------------------------------

OOV_TOKENS = (99, "oov", BOS)


def sentences_over(pool, min_size=1):
    return st.lists(st.sampled_from(pool), min_size=min_size, max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(lm=ngram_lms(), data=st.data())
def test_lm_batch_score_equals_score_bit_for_bit(lm, data):
    pool = list(lm.content_vocab) + list(OOV_TOKENS[: data.draw(st.integers(0, 3))])
    sentences = data.draw(st.lists(sentences_over(pool), min_size=1, max_size=8))
    expected = np.array([lm.score(s) for s in sentences])
    assert same_bits(lm.batch_score(sentences), expected)


@settings(max_examples=200, deadline=None)
@given(model=channel_models(), data=st.data())
def test_channel_batch_score_equals_score_bit_for_bit(model, data):
    outs = list(model.out_vocab) + list(OOV_TOKENS[: data.draw(st.integers(0, 3))])
    conds = sorted({c for _, c in model.counts}, key=str) + ["unseen", 42]
    pairs = data.draw(st.lists(
        st.integers(1, 6).flatmap(lambda n: st.tuples(
            st.lists(st.sampled_from(outs), min_size=n, max_size=n).map(tuple),
            st.lists(st.sampled_from(conds), min_size=n, max_size=n).map(tuple))),
        min_size=1, max_size=8))
    expected = np.array([model.score(o, i) for o, i in pairs])
    got = model.batch_score([o for o, _ in pairs], [i for _, i in pairs])
    assert same_bits(got, expected)


def test_lm_batch_score_takes_logs_as_score_does():
    # np.log and math.log round log(14/37) differently on x86-64 with numpy
    # 2.4; score takes math.log, so batch_score must too
    lm = NGramLM(order=1, alpha=0, vocab=["x", "y"], counts={(): {"x": 14, "y": 23}},
                 use_eos=False)
    sentences = [("x",), ("x", "y", "x")]
    assert same_bits(lm.batch_score(sentences), np.array([lm.score(s) for s in sentences]))


def test_batch_score_of_no_sequences_is_empty():
    lm = NGramLM(order=2, alpha=0.1, vocab=[0, 1])
    model = ChannelModel("target_to_source", alpha=0.1, out_vocab=[0, 1])
    assert lm.batch_score([]).shape == (0,)
    assert model.batch_score([], []).shape == (0,)
    assert same_bits(lm.batch_score([()]), np.array([lm.score(())]))


def test_channel_batch_score_rejects_misaligned_pairs():
    model = ChannelModel("target_to_source", alpha=0.1, out_vocab=[0, 1])
    with pytest.raises(InvalidInputError, match="output length 2 != input length 1"):
        model.batch_score([(0,), (0, 1)], [(1,), (1,)])
    with pytest.raises(InvalidInputError, match="2 outputs need as many inputs, got 1"):
        model.batch_score([(0,), (1,)], [(1,)])
