import math
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfactors.errors import InvalidInputError, ParseError
from btfactors.toyseq import models
from btfactors.toyseq.models import (
    _DENSE_RANGE_FACTOR,
    _DENSE_RANGE_SLACK,
    ChannelModel,
    NGramLM,
    _unique_ints,
    channel_score,
    lm_score,
    train_channel,
    train_ngram_lm,
)
from btfactors.tokenio import BOS, EOS, token_sort_key
from conftest import (
    context_of,
    parallel_corpus,
    reference_channel_log_prob,
    reference_channel_score,
    reference_lm_score,
    reference_row,
)


# -- n-gram LM ------------------------------------------------------------------

def test_unigram_counting_without_smoothing():
    lm = train_ngram_lm([["a", "a", "b"]], order=1, alpha=0.0, vocab=["a", "b"], use_eos=False)
    assert lm.rows([()])[0][0, lm.event_index("a")] == pytest.approx(2.0 / 3.0)


def test_unigram_add_one_smoothing():
    lm = train_ngram_lm([["a", "a", "b"]], order=1, alpha=1.0, vocab=["a", "b"], use_eos=False)
    assert lm.rows([()])[0][0, lm.event_index("a")] == pytest.approx(3.0 / 5.0)


def test_every_context_row_sums_to_one():
    corpus = [[0, 1, 2, 1], [2, 2, 0, 1], [1, 0]]
    for alpha in (0.0, 0.1, 1.0):
        lm = train_ngram_lm(corpus, order=2, alpha=alpha, vocab=[0, 1, 2])
        contexts = [(BOS,)] + [(t,) for t in lm.event_vocab]
        for row in lm.rows(contexts)[0]:
            assert float(row.sum()) == pytest.approx(1.0, abs=1e-9)


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

    def prob(tok, context):
        return lm.rows([context])[0][0, lm.event_index(tok)]

    for seq in ([0, 1, 2], [2, 2, 2], [1, 0, 1]):
        expected = math.log(prob(seq[0], (BOS,)))
        for prev, tok in zip(seq, seq[1:]):
            expected += math.log(prob(tok, (prev,)))
        expected += math.log(prob(EOS, (seq[-1],)))
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

FIVE_PAIRS = parallel_corpus(
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
            assert model.rows([state])[0][0, idx] == pytest.approx(cnt / total)


def test_channel_rows_sum_to_one():
    for alpha in (0.0, 0.1, 2.0):
        model = train_channel(FIVE_PAIRS, "source_to_target", alpha=alpha)
        for prev in (BOS,) + model.out_vocab:
            for row in model.rows([(prev, cond) for cond in (0, 1, 5)])[0]:
                assert float(row.sum()) == pytest.approx(1.0, abs=1e-9)


def test_channel_smoothing_moves_monotonically_toward_uniform():
    size = 2
    previous_gap = None
    for alpha in (0.0, 0.1, 1.0, 10.0, 1000.0):
        model = train_channel(FIVE_PAIRS, "source_to_target", alpha=alpha)
        row = model.rows([(BOS, 0)])[0][0]
        gap = float(np.abs(row - 1.0 / size).max())
        if previous_gap is not None:
            assert gap <= previous_gap + 1e-12
        previous_gap = gap


def test_channel_score_single_token_base_case():
    model = train_channel(FIVE_PAIRS, "source_to_target", alpha=0.1)
    expected = math.log(model.rows([(BOS, 0)])[0][0, model.out_index(10)])
    assert channel_score(model, (10,), (0,)) == pytest.approx(expected, abs=1e-12)


def test_channel_score_decomposes_across_boundary():
    model = train_channel(FIVE_PAIRS, "source_to_target", alpha=0.1)
    out, inp = (10, 11, 10, 11), (0, 1, 1, 0)
    head = channel_score(model, out[:2], inp[:2])
    tail = sum(
        reference_channel_log_prob(model, out_tok, prev, cond)
        for out_tok, prev, cond in zip(out[2:], out[1:], inp[2:])
    )
    assert channel_score(model, out, inp) == pytest.approx(head + tail, abs=1e-12)


def test_channel_score_matches_product_oracle_length_four():
    model = train_channel(FIVE_PAIRS, "source_to_target", alpha=0.2)
    out, inp = (10, 10, 11, 11), (1, 0, 1, 0)
    probs = model.rows(list(zip((BOS,) + out[:-1], inp)))[0]
    expected = math.log(probs[0, model.out_index(out[0])])
    for t in range(1, 4):
        expected += math.log(probs[t, model.out_index(out[t])])
    assert channel_score(model, out, inp) == pytest.approx(expected, abs=1e-12)


def test_channel_score_rejects_length_mismatch():
    model = train_channel(FIVE_PAIRS, "source_to_target", alpha=0.1)
    with pytest.raises(InvalidInputError):
        channel_score(model, (10,), (0, 1))


def test_parallel_corpus_rejects_unequal_lengths():
    with pytest.raises(InvalidInputError):
        parallel_corpus([((1, 2), (3,))])


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
    contexts = [*lm.counts, unseen]
    assert same_bits(restored.rows(contexts)[0], lm.rows(contexts)[0])


@settings(max_examples=150, deadline=None)
@given(model=channel_models())
def test_channel_text_round_trip_is_byte_stable(model):
    text = model.to_text()
    restored = ChannelModel.from_text(text)
    assert restored.to_text() == text
    assert restored.counts == model.counts
    states = [*model.counts, (BOS, "unseen")]
    assert same_bits(restored.rows(states)[0], model.rows(states)[0])


@settings(max_examples=100, deadline=None)
@given(vocab=vocabularies(), alpha=ALPHAS, use_eos=st.booleans(), data=st.data())
def test_lm_rows_of_a_batch_stack_the_rows_of_each_key(vocab, alpha, use_eos, data):
    events = vocab + ([EOS] if use_eos else [])
    counts = data.draw(count_rows(st.tuples(st.sampled_from(vocab + [BOS])), events))
    lm = NGramLM(2, alpha, vocab, counts=counts, use_eos=use_eos)
    one_by_one = NGramLM(2, alpha, vocab, counts=counts, use_eos=use_eos)
    contexts = [(BOS,)] + [(tok,) for tok in lm.event_vocab]
    expected = np.stack([one_by_one.rows([ctx])[1][0] for ctx in contexts])
    assert same_bits(lm.rows(contexts)[1], expected)


@settings(max_examples=100, deadline=None)
@given(model=channel_models())
def test_channel_rows_of_a_batch_stack_the_rows_of_each_key(model):
    one_by_one = ChannelModel(model.direction, model.alpha, model.out_vocab, counts=model.counts)
    prevs = (BOS,) + model.out_vocab
    for cond in {c for _, c in model.counts} | {"unseen"}:
        probs, logs = model.rows([(p, cond) for p in prevs])
        assert same_bits(probs, np.stack([one_by_one.rows([(p, cond)])[0][0] for p in prevs]))
        assert same_bits(logs, np.stack([one_by_one.rows([(p, cond)])[1][0] for p in prevs]))


# -- batched scoring equals the count-reading reference bit for bit -----------------------

OOV_TOKENS = (99, "oov", BOS)


def sentences_over(pool, min_size=1):
    return st.lists(st.sampled_from(pool), min_size=min_size, max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(lm=ngram_lms(), data=st.data())
def test_lm_batch_score_equals_score_bit_for_bit(lm, data):
    # the batch, and each sentence alone through lm_score, score the
    # reference's bits
    pool = list(lm.content_vocab) + list(OOV_TOKENS[: data.draw(st.integers(0, 3))])
    sentences = data.draw(st.lists(sentences_over(pool), min_size=1, max_size=8))
    expected = np.array([reference_lm_score(lm, s) for s in sentences])
    assert same_bits(lm.batch_score(sentences), expected)
    alone = [lm_score(lm, s) for s in sentences]
    assert all(type(score) is float for score in alone)
    assert same_bits(np.array(alone), expected)


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
    expected = np.array([reference_channel_score(model, o, i) for o, i in pairs])
    got = model.batch_score([o for o, _ in pairs], [i for _, i in pairs])
    assert same_bits(got, expected)
    # each pair alone through channel_score scores the same bits
    alone = [channel_score(model, o, i) for o, i in pairs]
    assert all(type(score) is float for score in alone)
    assert same_bits(np.array(alone), expected)
    output, input_seq = pairs[0]
    longer = (*input_seq, data.draw(st.sampled_from(conds)))
    with pytest.raises(InvalidInputError,
                       match=f"output length {len(output)} != input length {len(longer)}"):
        channel_score(model, output, longer)


def test_lm_batch_score_takes_logs_as_score_does():
    # np.log and math.log round log(14/37) differently on x86-64 with numpy
    # 2.4; the LM's terms are math.log of its probs, so batch_score must
    # take math.log
    lm = NGramLM(order=1, alpha=0, vocab=["x", "y"], counts={(): {"x": 14, "y": 23}},
                 use_eos=False)
    sentences = [("x",), ("x", "y", "x")]
    expected = np.array([reference_lm_score(lm, s) for s in sentences])
    assert same_bits(lm.batch_score(sentences), expected)


def test_batch_score_of_no_sequences_is_empty():
    lm = NGramLM(order=2, alpha=0.1, vocab=[0, 1])
    model = ChannelModel("target_to_source", alpha=0.1, out_vocab=[0, 1])
    assert lm.batch_score([]).shape == (0,)
    assert model.batch_score([], []).shape == (0,)
    assert same_bits(lm.batch_score([()]), np.array([reference_lm_score(lm, ())]))


def test_channel_batch_score_rejects_misaligned_pairs():
    model = ChannelModel("target_to_source", alpha=0.1, out_vocab=[0, 1])
    with pytest.raises(InvalidInputError, match="output length 2 != input length 1"):
        model.batch_score([(0,), (0, 1)], [(1,), (1,)])
    with pytest.raises(InvalidInputError, match="2 outputs need as many inputs, got 1"):
        model.batch_score([(0,), (1,)], [(1,)])


# -- counted training against the dict-loop trainers --------------------------------

def in_counted_order(model, runs, conds=()):
    """Re-insert ``model.counts`` in the order the counted trainers insert:
    keys by their tokens' codes, first column first, where BOS is code 0 and
    the other tokens are coded in the order first seen in ``runs``, then in
    ``conds``; each row's events by event index."""
    code = {tok: i for i, tok in enumerate(dict.fromkeys([BOS, *chain(*runs), *chain(*conds)]))}
    ordered = {key: {tok: row[tok] for tok in sorted(row, key=model._index.__getitem__)}
               for key, row in sorted(model.counts.items(),
                                      key=lambda item: [code[tok] for tok in item[0]])}
    model.counts.clear()
    model.counts.update(ordered)
    return model


def reference_train_ngram_lm(corpus, order=2, alpha=0.1, vocab=None, use_eos=True):
    """``train_ngram_lm`` as one counts-row update per token, in the counted
    trainers' insertion order."""
    sentences = [tuple(s) for s in corpus]
    if vocab is None:
        vocab = sorted({tok for s in sentences for tok in s}, key=token_sort_key)
    model = NGramLM(order=order, alpha=alpha, vocab=vocab, use_eos=use_eos)
    counts = model.counts
    for sentence in sentences:
        prefix: tuple = ()
        for tok in sentence:
            if model.event_index(tok) is None or tok == EOS:
                raise InvalidInputError(f"training token {tok!r} is outside the vocabulary")
            row = counts.setdefault(context_of(model, prefix), {})
            row[tok] = row.get(tok, 0) + 1
            prefix = prefix + (tok,)
        if use_eos:
            row = counts.setdefault(context_of(model, prefix), {})
            row[EOS] = row.get(EOS, 0) + 1
    return in_counted_order(model, [(*s, EOS) if use_eos else s for s in sentences])


def reference_train_channel(pairs, direction, alpha=0.1, out_vocab=None):
    """``train_channel`` as one counts-row update per token, in the counted
    trainers' insertion order."""
    outputs_first = direction == "target_to_source"
    rows = [(src, tgt) if outputs_first else (tgt, src) for src, tgt in pairs.pairs]
    if out_vocab is None:
        out_vocab = sorted({tok for out_seq, _ in rows for tok in out_seq}, key=token_sort_key)
    model = ChannelModel(direction=direction, alpha=alpha, out_vocab=out_vocab)
    counts = model.counts
    for out_seq, cond_seq in rows:
        prev = BOS
        for out_tok, cond_tok in zip(out_seq, cond_seq):
            if model.out_index(out_tok) is None:
                raise InvalidInputError(f"output token {out_tok!r} is outside the vocabulary")
            row = counts.setdefault((prev, cond_tok), {})
            row[out_tok] = row.get(out_tok, 0) + 1
            prev = out_tok
    return in_counted_order(model, [out_seq for out_seq, _ in rows],
                            [cond_seq for _, cond_seq in rows])


def training_outcome(train, *args, **kwargs):
    """The text and counts of the trained model, with the insertion order of
    its keys and of each row's events (dict ``==`` ignores it, and
    ``_oov_denom`` sums a row in it), or the message it raised."""
    try:
        model = train(*args, **kwargs)
    except InvalidInputError as exc:
        return str(exc)
    assert all(type(c) is int for row in model.counts.values() for c in row.values())
    return (model.to_text(), model.counts, list(model.counts),
            [list(row) for row in model.counts.values()])


# tokens a training corpus may hold although no explicit vocabulary does
STRAY_TOKENS = (99, "oov", EOS)


@st.composite
def training_vocab(draw):
    """A vocabulary, the pool a corpus draws from (the vocabulary, mostly
    with one stray token more), and the vocab argument: None (derived) or
    the vocabulary, maybe with an unused token more."""
    vocab = draw(vocabularies())
    pool = vocab + draw(st.sampled_from(([], *([tok] for tok in STRAY_TOKENS))))
    explicit = vocab + draw(st.sampled_from(([], [40], ["unused"])))
    return pool, draw(st.sampled_from((None, explicit)))


@settings(max_examples=300, deadline=None)
@given(case=training_vocab(), order=st.integers(1, 3), use_eos=st.booleans(),
       alpha=ALPHAS, data=st.data())
def test_counted_lm_training_equals_the_dict_loop(case, order, use_eos, alpha, data):
    pool, vocab = case
    corpus = data.draw(st.lists(sentences_over(pool), min_size=1, max_size=8))
    assert (training_outcome(train_ngram_lm, corpus, order, alpha, vocab, use_eos)
            == training_outcome(reference_train_ngram_lm, corpus, order, alpha, vocab, use_eos))


@settings(max_examples=300, deadline=None)
@given(case=training_vocab(), conds=vocabularies(), alpha=ALPHAS,
       direction=st.sampled_from(ChannelModel.DIRECTIONS), data=st.data())
def test_counted_channel_training_equals_the_dict_loop(case, conds, alpha, direction, data):
    pool, vocab = case
    outputs = data.draw(st.lists(sentences_over(pool), min_size=1, max_size=8))
    inputs = [data.draw(st.lists(st.sampled_from(conds), min_size=len(o), max_size=len(o)))
              for o in outputs]
    if direction == "target_to_source":
        pairs = parallel_corpus(zip(outputs, inputs))
    else:
        pairs = parallel_corpus(zip(inputs, outputs))
    assert (training_outcome(train_channel, pairs, direction, alpha, vocab)
            == training_outcome(reference_train_channel, pairs, direction, alpha, vocab))


def models_unique_calls(monkeypatch):
    """The list that records each ``np.unique`` call made from ``models``."""
    calls = []
    unique = np.unique

    def recorded(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == models.__name__:
            calls.append(len(args[0]))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", recorded)
    return calls


def test_a_large_vocabulary_trains_and_scores_like_the_references(monkeypatch):
    # 5,000 distinct string tokens: the keys of an order-3 LM and a channel
    # span far more codes than there are positions, so they take the sort branch
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(5000)]
    order = rng.permutation(len(words))
    corpus = [tuple(words[j] for j in order[i:i + 5]) for i in range(0, len(words), 5)]
    corpus += [tuple(words[j] for j in rng.integers(0, 60, size=4)) for _ in range(100)]
    conds = [tuple(f"c{j}" for j in rng.integers(0, 30, size=len(s))) for s in corpus]
    pairs = parallel_corpus(zip(corpus, conds))
    calls = models_unique_calls(monkeypatch)
    assert (training_outcome(train_ngram_lm, corpus, 3, 0.1)
            == training_outcome(reference_train_ngram_lm, corpus, 3, 0.1))
    for direction in ChannelModel.DIRECTIONS:
        assert (training_outcome(train_channel, pairs, direction, 0.1)
                == training_outcome(reference_train_channel, pairs, direction, 0.1))
    assert calls
    lm = train_ngram_lm(corpus, order=3, alpha=0.1)
    model = train_channel(pairs, "target_to_source", alpha=0.1)
    held_out = corpus[::25] + [("w1", "unseen", "w2"), ("w3",)]
    inputs = [tuple(f"c{j}" for j in rng.integers(0, 31, size=len(s))) for s in held_out]
    assert same_bits(lm.batch_score(held_out),
                     np.array([reference_lm_score(lm, s) for s in held_out]))
    assert same_bits(model.batch_score(held_out, inputs),
                     np.array([reference_channel_score(model, o, i)
                               for o, i in zip(held_out, inputs)]))


@pytest.mark.parametrize("corpus, use_eos, message", [
    ([[0, 1], [1, 5, 7]], True, "training token 5 is outside the vocabulary"),
    ([[0, EOS, 9]], True, "training token '</s>' is outside the vocabulary"),
    ([[0, 1, EOS]], False, "training token '</s>' is outside the vocabulary"),
    ([[1, BOS]], True, "training token '<s>' is outside the vocabulary"),
])
def test_counted_lm_training_refuses_the_first_stray_token(corpus, use_eos, message):
    for train in (train_ngram_lm, reference_train_ngram_lm):
        with pytest.raises(InvalidInputError) as info:
            train(corpus, order=2, alpha=0.1, vocab=[0, 1], use_eos=use_eos)
        assert str(info.value) == message


def test_counted_channel_training_refuses_the_first_stray_output_token():
    pairs = parallel_corpus([((0, 1), (5, 6)), ((1, "x", 8), (5, 5, 5))])
    for train in (train_channel, reference_train_channel):
        with pytest.raises(InvalidInputError) as info:
            train(pairs, "target_to_source", alpha=0.1, out_vocab=[0, 1])
        assert str(info.value) == "output token 'x' is outside the vocabulary"


# -- sort-free key compaction against np.unique --------------------------------------

def dense_bound(n):
    """The widest key range ``_unique_ints`` compacts without sorting."""
    return _DENSE_RANGE_FACTOR * n + _DENSE_RANGE_SLACK


def same_as_np_unique(keys, counts):
    got = _unique_ints(keys, counts)
    want = np.unique(keys, return_inverse=not counts, return_counts=counts)
    return len(got) == len(want) == 2 and all(
        g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
        for g, w in zip(got, want))


@st.composite
def key_arrays(draw):
    """Int64 keys spanning a range inside or past the dense bound; with two
    keys or more, the range's ends are among them."""
    n = draw(st.integers(0, 50))
    bound = dense_bound(n)
    span = draw(st.one_of(st.integers(1, 8), st.integers(1, bound),
                          st.integers(bound + 1, 2**40)))
    lo = draw(st.integers(-2**40, 2**40))
    inner = draw(st.lists(st.integers(0, span - 1), min_size=max(n - 2, 0),
                          max_size=max(n - 2, 0)))
    offsets = draw(st.permutations(([0, span - 1] if n >= 2 else [0] * n) + inner))
    return np.array([lo + k for k in offsets], dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(keys=key_arrays(), counts=st.booleans())
def test_unique_ints_equals_np_unique(keys, counts):
    assert same_as_np_unique(keys, counts)


@pytest.mark.parametrize("n, span, sorts", [
    (0, 0, False),
    (1, 1, False),
    (3, dense_bound(3), False),
    (3, dense_bound(3) + 1, True),
    (2000, dense_bound(2000), False),
    (2000, dense_bound(2000) + 1, True),
])
def test_unique_ints_sorts_only_past_the_range_bound(monkeypatch, n, span, sorts):
    keys = -7 + np.resize(np.array([span - 1, 0, span // 2], dtype=np.int64), n)
    for counts in (False, True):
        assert same_as_np_unique(keys, counts)
        calls = models_unique_calls(monkeypatch)
        _unique_ints(keys, counts)
        assert calls == ([n] if sorts else [])
        monkeypatch.undo()


def test_the_benchmark_sweep_compacts_every_key_without_sorting(monkeypatch):
    # the benchmark's seed-1 sweep (training, synthesis and diagnostics of
    # every cell) keeps all its model keys on the presence-table path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    sweep = workloads.Sweep()
    config = sweep.build(1, None)
    calls = models_unique_calls(monkeypatch)
    records = sweep.run(config)
    assert records is not None and len(records) == len(config.strategies) + 1
    assert calls == []


# -- one-pass row fill against the per-key loop --------------------------------------

def reference_stack(model, keys):
    probs = np.stack([reference_row(model, key) for key in keys])
    with np.errstate(divide="ignore"):
        return probs, np.log(probs)


# every kind of count a table holds: training's ints, ints past 2**53 that
# round on the way to float, floats read back from model text, and zeros
FILL_COUNTS = st.one_of(st.integers(0, 50), st.integers(2**53, 2**64), st.floats(0.0, 50.0),
                        st.just(0))


def filled_rows(keys, events):
    row = st.dictionaries(st.sampled_from(events), FILL_COUNTS, max_size=len(events))
    return st.dictionaries(keys, row, max_size=8)


def as_read(model, draw):
    """``model``, or the model read back from its text."""
    return type(model).from_text(model.to_text()) if draw(st.booleans()) else model


@st.composite
def filled_lms(draw):
    vocab = draw(vocabularies())
    order = draw(st.integers(1, 3))
    use_eos = draw(st.booleans())
    alpha = draw(ALPHAS)
    if draw(st.booleans()):
        corpus = draw(st.lists(sentences_over(vocab), min_size=1, max_size=6))
        return as_read(train_ngram_lm(corpus, order, alpha, vocab, use_eos), draw)
    keys = st.tuples(*[st.sampled_from(vocab + [BOS])] * (order - 1))
    counts = draw(filled_rows(keys, vocab + ([EOS] if use_eos else [])))
    return as_read(NGramLM(order, alpha, vocab, counts=counts, use_eos=use_eos), draw)


@st.composite
def filled_channels(draw):
    vocab = draw(vocabularies())
    conds = draw(vocabularies())
    alpha = draw(ALPHAS)
    if draw(st.booleans()):
        pairs = draw(st.lists(st.integers(1, 5).flatmap(lambda n: st.tuples(
            st.lists(st.sampled_from(vocab), min_size=n, max_size=n),
            st.lists(st.sampled_from(conds), min_size=n, max_size=n))), min_size=1, max_size=6))
        model = train_channel(parallel_corpus(pairs), "target_to_source", alpha, vocab)
        return as_read(model, draw)
    keys = st.tuples(st.sampled_from(vocab + [BOS]), st.sampled_from(conds))
    counts = draw(filled_rows(keys, vocab))
    return as_read(ChannelModel("target_to_source", alpha, vocab, counts=counts), draw)


@settings(max_examples=200, deadline=None)
@given(lm=filled_lms(), data=st.data())
def test_lm_rows_filled_in_one_pass_equal_the_per_key_loop(lm, data):
    for context in [*lm.counts, ("unseen",) * (lm.order - 1)]:
        probs, logs = reference_stack(lm, [context])
        got = lm.rows([context])
        assert same_bits(got[0][0], probs[0])
        assert same_bits(got[1][0], logs[0])
    if lm.order == 2:
        contexts = [(BOS,)] + [(tok,) for tok in lm.event_vocab]
        assert same_bits(lm.rows(contexts)[1], reference_stack(lm, contexts)[1])
    pool = list(lm.content_vocab) + list(OOV_TOKENS[: data.draw(st.integers(0, 3))])
    sentences = data.draw(st.lists(sentences_over(pool, min_size=0), min_size=1, max_size=8))
    expected = np.array([reference_lm_score(lm, s) for s in sentences])
    assert same_bits(lm.batch_score(sentences), expected)


@settings(max_examples=200, deadline=None)
@given(model=filled_channels(), data=st.data())
def test_channel_rows_filled_in_one_pass_equal_the_per_key_loop(model, data):
    prevs = (BOS,) + model.out_vocab
    conds = sorted({c for _, c in model.counts}, key=token_sort_key) + ["unseen"]
    for state in [*model.counts, (BOS, "unseen")]:
        probs, logs = reference_stack(model, [state])
        got = model.rows([state])
        assert same_bits(got[0][0], probs[0])
        assert same_bits(got[1][0], logs[0])
    for cond in conds:
        probs, logs = reference_stack(model, [(prev, cond) for prev in prevs])
        got = model.rows([(prev, cond) for prev in prevs])
        assert same_bits(got[0], probs) and same_bits(got[1], logs)
    outs = list(model.out_vocab) + list(OOV_TOKENS[: data.draw(st.integers(0, 3))])
    pairs = data.draw(st.lists(
        st.integers(1, 6).flatmap(lambda n: st.tuples(
            st.lists(st.sampled_from(outs), min_size=n, max_size=n).map(tuple),
            st.lists(st.sampled_from(conds), min_size=n, max_size=n).map(tuple))),
        min_size=1, max_size=8))
    expected = np.array([reference_channel_score(model, o, i) for o, i in pairs])
    assert same_bits(model.batch_score([o for o, _ in pairs], [i for _, i in pairs]), expected)


def test_rows_of_zero_counts_and_alpha_zero_are_uniform():
    model = ChannelModel("target_to_source", 0, ["a", 1, "b"],
                         counts={(BOS, 1): {"a": 0, 1: 0}, ("a", 1): {}, (1, "x"): {"b": 2**60}})
    for state in [(BOS, 1), ("a", 1), (BOS, "unseen")]:
        assert model.rows([state])[0][0].tolist() == [1.0 / 3] * 3
    assert model.rows([(1, "x")])[0][0].tolist() == [0.0, 0.0, 1.0]
    assert not any(matrix.flags.writeable for matrix in model.rows([(BOS, 1)]))


def test_a_lookup_fills_only_the_rows_it_asks_for():
    lm = NGramLM(2, 0.1, list(range(50)), counts={(tok,): {tok: 1} for tok in range(50)})
    lm.rows([(3,)])
    assert list(lm._prob_rows) == [(3,)]
    lm.batch_score([(4, 5)])
    assert list(lm._prob_rows) == [(3,), (BOS,), (4,), (5,)]   # (5,) ends the run


def test_a_sweep_fills_each_trained_tables_rows_in_batches(monkeypatch):
    from btfactors.btloop import BTStrategy, ExperimentConfig, run_bt_experiment
    from btfactors.toyseq import models
    from btfactors.toyseq.taskgen import ToyTaskSpec

    trained, passes, filled = [], Counter(), Counter()
    count, fill = models._CountTable._count, models._CountTable._fill_rows

    def counting(self, *args):
        trained.append(self)
        return count(self, *args)

    def filling(self, keys):
        before = len(self._prob_rows)
        fill(self, keys)
        if len(self._prob_rows) > before:
            passes[id(self)] += 1
            filled[id(self)] += len(self._prob_rows) - before

    monkeypatch.setattr(models._CountTable, "_count", counting)
    monkeypatch.setattr(models._CountTable, "_fill_rows", filling)
    # the sweep benchmark's configuration, at seed 1
    task = ToyTaskSpec(source_vocab_size=20, target_vocab_size=20, length_range=(4, 12),
                       channel_noise=0.15, bitext_size=300, mono_size=3000, test_size=400)
    strategies = (BTStrategy("beam"), BTStrategy("beam-weak"), BTStrategy("sampling"),
                  BTStrategy("data-manipulation", 0.5), BTStrategy("gamma-select", 0.2, 50),
                  BTStrategy("gamma-sample", 0.2, 50))
    run_bt_experiment(ExperimentConfig(task=task, strategies=strategies, seeds=(1,),
                                       beam_size=5, alpha=0.1, lm_order=2))
    assert len(trained) == len({id(t) for t in trained}) >= 10
    # one pass per lookup: a channel's stack of every (prev, cond) key of a
    # corpus or a scored batch's keys, the LM's bigram contexts or a scored
    # batch's keys; measured at most 2 per table (13 passes over all 12
    # tables, truth models included), never a pass per key or per token
    for table in trained:
        assert 1 <= passes[id(table)] <= 2
        assert filled[id(table)] >= 10 * passes[id(table)]
