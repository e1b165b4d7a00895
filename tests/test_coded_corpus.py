"""Coded corpora give what their plain sequences give.

Every way of building a ``CodedCorpus`` (``encode``, ``concat``, ``take``,
``from_indices``, ``with_end``) must code as coding token by token would:
the same codes, and the same order of the caller's table, also when one
corpus is coded after another ("runs, then conds").  The consumers must then
give the bits, model text, count order and errors of the plain path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from btfactors.analysis import corpus_bleu, sentence_representation_matrix
from btfactors.errors import BtfactorsError
from btfactors.tokenio import BOS, EOS, UNK, CodedCorpus, encode
from btfactors.toyseq.models import (
    ChannelModel,
    NGramLM,
    ParallelCorpus,
    train_channel,
    train_ngram_lm,
)
from conftest import parallel_corpus, reference_channel_score, reference_lm_score

# ints, strings that must stay strings, the reserved markers
TOKENS = st.one_of(st.integers(-2, 9), st.sampled_from(["007", "-0", "a", "b", BOS, EOS, UNK]))
CONTENT = st.one_of(st.integers(-2, 9), st.sampled_from(["007", "-0", "a", "b"]))


def sentences(tokens=TOKENS, min_len=0, max_size=8):
    return st.lists(st.lists(tokens, min_size=min_len, max_size=5).map(tuple), max_size=max_size)


def reference_encode(seqs, table):
    """Every token of ``seqs``, flat, coded one token at a time into ``table``."""
    return [table.setdefault(tok, len(table)) for seq in seqs for tok in seq]


@st.composite
def coded_by_any_builder(draw, seqs):
    """``seqs`` coded by one of the corpus builders."""
    how = draw(st.sampled_from(("encode", "concat", "take", "from_indices")))
    if how == "encode":
        return encode(seqs)
    if how == "concat":
        cut = draw(st.integers(0, len(seqs)))
        return CodedCorpus.concat([encode(seqs[:cut]), encode(seqs[cut:])])
    if how == "take":
        # shuffled among other sentences, then taken back in order
        pool = seqs + draw(sentences())
        order = draw(st.permutations(range(len(pool))))
        shuffled = encode([pool[i] for i in order])
        return shuffled.take(np.argsort(order)[: len(seqs)])
    # indices into a vocabulary in another order, with entries no sentence uses
    vocab = draw(st.permutations([*dict.fromkeys(t for s in seqs for t in s), "unused", 99]))
    position = {tok: i for i, tok in enumerate(vocab)}
    return CodedCorpus.from_indices(vocab, [position[t] for s in seqs for t in s],
                                    [len(s) for s in seqs])


def same_corpus(corpus, seqs):
    want = encode(seqs)
    return (corpus.tokens == want.tokens and corpus.codes.tolist() == want.codes.tolist()
            and corpus.lengths.tolist() == want.lengths.tolist()
            and list(corpus) == [tuple(s) for s in seqs])


@settings(max_examples=300, deadline=None)
@given(runs=sentences(), conds=sentences(), known=st.lists(TOKENS, max_size=4),
       data=st.data())
def test_every_builder_codes_as_token_by_token_coding(runs, conds, known, data):
    coded_runs = data.draw(coded_by_any_builder(runs))
    coded_conds = data.draw(coded_by_any_builder(conds))
    assert same_corpus(coded_runs, runs) and same_corpus(coded_conds, conds)
    table = dict(zip(dict.fromkeys(known), range(len(known))))
    want = dict(table)
    # runs, then conds, into one table
    assert coded_runs.codes_in(table).tolist() == reference_encode(runs, want)
    assert coded_conds.codes_in(table).tolist() == reference_encode(conds, want)
    assert list(table.items()) == list(want.items())


@settings(max_examples=300, deadline=None)
@given(seqs=sentences(), end=st.sampled_from((EOS, "a", 3, "new")), data=st.data())
def test_with_end_codes_as_the_extended_sentences(seqs, end, data):
    corpus = data.draw(coded_by_any_builder(seqs))
    assert same_corpus(corpus.with_end(end), [(*s, end) for s in seqs])


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class and message of its error."""
    try:
        return "ok", fn(*args)
    except BtfactorsError as exc:
        return type(exc), str(exc)


def model_state(model):
    """A model's text and its count rows, in insertion order."""
    return model.to_text(), [(key, list(row.items())) for key, row in model.counts.items()]


@st.composite
def equal_length_pairs(draw, tokens=CONTENT, min_size=1):
    lengths = draw(st.lists(st.integers(0, 5), min_size=min_size, max_size=8))
    return [tuple(tuple(draw(st.lists(tokens, min_size=n, max_size=n))) for _ in "st")
            for n in lengths]


@settings(max_examples=200, deadline=None)
@given(corpus=sentences(), order=st.integers(1, 3), alpha=st.sampled_from((0, 0.1)),
       use_eos=st.booleans(), vocab=st.sampled_from((None, [0, 1, 2, "a", "007"])),
       data=st.data())
def test_lm_training_and_scoring_read_codes_as_they_read_sequences(corpus, order, alpha,
                                                                   use_eos, vocab, data):
    coded = data.draw(coded_by_any_builder(corpus))
    plain = outcome(lambda c: model_state(train_ngram_lm(c, order, alpha, vocab, use_eos)),
                    corpus)
    assert outcome(lambda c: model_state(train_ngram_lm(c, order, alpha, vocab, use_eos)),
                   coded) == plain
    if plain[0] == "ok":
        lm = train_ngram_lm(corpus, order, alpha, vocab, use_eos)
        scored = data.draw(sentences())
        expected = np.array([reference_lm_score(lm, s) for s in scored])
        assert same_bits(lm.batch_score(data.draw(coded_by_any_builder(scored))), expected)
        assert same_bits(lm.batch_score(scored), expected)


@settings(max_examples=200, deadline=None)
@given(pairs=equal_length_pairs(min_size=0), direction=st.sampled_from(ChannelModel.DIRECTIONS),
       out_vocab=st.sampled_from((None, [0, 1, 2, "a", "-0"])), data=st.data())
def test_channel_training_reads_codes_as_it_reads_a_parallel_corpus(pairs, direction,
                                                                    out_vocab, data):
    if pairs and data.draw(st.booleans()):
        # one target a token longer than its source
        i = data.draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], (*pairs[i][1], 0))
    sources = data.draw(coded_by_any_builder([s for s, _ in pairs]))
    targets = data.draw(coded_by_any_builder([t for _, t in pairs]))

    def train(corpus):
        return model_state(train_channel(corpus, direction, 0.1, out_vocab))

    # a ParallelCorpus refuses what train_channel refuses in a coded pair
    plain = outcome(lambda p: train(ParallelCorpus(pairs=tuple(p))), pairs)
    assert outcome(train, (sources, targets)) == plain


@settings(max_examples=200, deadline=None)
@given(pairs=equal_length_pairs(), data=st.data())
def test_channel_batch_score_reads_codes_as_it_reads_sequences(pairs, data):
    train = [(s, t) for s, t in pairs if s]
    model = train_channel(ParallelCorpus(pairs=tuple(train or [((0,), (0,))])),
                          "target_to_source", 0.1)
    outputs = [s for s, _ in pairs]
    inputs = [t for _, t in pairs]
    # maybe one input one token short, or one input too many
    fault = data.draw(st.sampled_from((None, "short", "extra")))
    if fault == "short" and any(inputs):
        i = next(i for i, t in enumerate(inputs) if t)
        inputs[i] = inputs[i][:-1]
    elif fault == "extra":
        inputs.append((0,))
    coded_outputs = data.draw(coded_by_any_builder(outputs))
    coded_inputs = data.draw(coded_by_any_builder(inputs))
    plain = outcome(model.batch_score, outputs, inputs)
    coded = outcome(model.batch_score, coded_outputs, coded_inputs)
    if plain[0] == "ok":
        expected = np.array([reference_channel_score(model, o, i)
                             for o, i in zip(outputs, inputs)])
        assert coded[0] == "ok" and same_bits(coded[1], expected)
        assert same_bits(plain[1], expected)
    else:
        assert coded == plain


@settings(max_examples=300, deadline=None)
@given(hyps=sentences(max_size=6), refs=sentences(max_size=6), max_n=st.integers(1, 4),
       data=st.data())
def test_bleu_reads_codes_as_it_reads_sequences(hyps, refs, max_n, data):
    refs = (refs + hyps)[: data.draw(st.sampled_from((len(hyps), len(refs))))]
    coded_hyps = data.draw(coded_by_any_builder(hyps))
    coded_refs = data.draw(coded_by_any_builder(refs))
    assert (outcome(corpus_bleu, coded_hyps, coded_refs, max_n)
            == outcome(corpus_bleu, hyps, refs, max_n))


@settings(max_examples=300, deadline=None)
@given(corpus=sentences(), vocab=st.lists(TOKENS, max_size=8), data=st.data())
def test_representations_read_codes_as_they_read_sequences(corpus, vocab, data):
    coded = data.draw(coded_by_any_builder(corpus))
    with np.errstate(invalid="ignore"):
        plain = outcome(sentence_representation_matrix, corpus, vocab)
        got = outcome(sentence_representation_matrix, coded, vocab)
    if plain[0] == "ok":
        assert got[0] == "ok" and same_bits(got[1], plain[1])
    else:
        assert got == plain


def test_iteration_and_builders_keep_tuple_tokens_whole():
    seqs = [((1, 2), (3, 4)), (), ((3, 4),)]
    corpus = encode(seqs)
    assert list(corpus) == seqs and corpus.tokens == ((1, 2), (3, 4))
    assert list(corpus.take([2, 0])) == [seqs[2], seqs[0]]
    assert list(corpus.with_end(EOS)) == [(*s, EOS) for s in seqs]
    assert list(CodedCorpus.from_indices(corpus.tokens, [1, 0], [0, 2])) == [(), ((3, 4), (1, 2))]


def test_channel_models_decode_a_coded_corpus_to_a_coded_corpus():
    from btfactors.toyseq.decode import beam_decode, sample_decode

    model = train_channel(parallel_corpus([((0, 1, 1), ("a", "b", "b")),
                                          ((1, 0), ("b", "a"))]),
                          "target_to_source", 0.1)
    inputs = [("a", "b"), (), ("b", "b", "a")]
    uniforms = [np.full(len(s), 0.3) for s in inputs]
    for decode, args in ((beam_decode, (3,)), (sample_decode, (uniforms,))):
        plain = decode(model, inputs, *args)
        coded = decode(model, encode(inputs), *args)
        # plain input is coded on entry: both give a coded corpus of the same sentences
        assert isinstance(plain, CodedCorpus) and isinstance(coded, CodedCorpus)
        assert same_corpus(plain, list(coded)) and same_corpus(coded, list(plain))
        assert list(plain)[1] == ()
    assert isinstance(NGramLM(2, 0.1, [0]).batch_score(encode([(0,)])), np.ndarray)


def test_a_sweep_codes_each_task_corpus_once_and_no_decoder_output(monkeypatch):
    import sys

    from btfactors import btloop, tokenio
    from btfactors.btloop import BTStrategy, ExperimentConfig, run_bt_experiment
    from btfactors.toyseq.taskgen import ToyTaskSpec, generate_toy_task

    real = tokenio.encode
    coded = []

    def counting(seqs):
        seqs = [tuple(s) for s in seqs]
        coded.append(tuple(seqs))
        return real(seqs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("btfactors") and getattr(module, "encode", None) is real:
            monkeypatch.setattr(module, "encode", counting)
    decoded = []

    def recording(decode):
        def wrapper(*args, **kwargs):
            out = decode(*args, **kwargs)
            decoded.extend(tuple(corpus) for corpus in (out if isinstance(out, list) else [out]))
            return out
        return wrapper

    for name in ("beam_decode", "sample_decode", "_gamma_sources"):
        monkeypatch.setattr(btloop, name, recording(getattr(btloop, name)))
    spec = ToyTaskSpec(source_vocab_size=5, target_vocab_size=5, length_range=(2, 5),
                       bitext_size=40, mono_size=30, test_size=10, seed=4)
    config = ExperimentConfig(task=spec, seeds=(4,), strategies=(
        BTStrategy("data-manipulation", 0.5), BTStrategy("gamma-select", 0.2, 4)))
    run_bt_experiment(config)
    task = generate_toy_task(spec)
    generated = {tuple(corpus) for corpus in (
        task.bitext.sources(), task.bitext.targets(), task.mono.sentences,
        task.mono_refs.sources(), task.test.sources(), task.test.targets())}
    # beam and sampling halves, the gamma pass and three test decodes
    assert len(decoded) == 6
    assert len(coded) == len(set(coded)) and set(coded) <= generated
    assert not set(coded) & set(decoded)
