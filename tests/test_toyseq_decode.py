import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfactors.errors import InvalidInputError
from btfactors.scoring import cdf_table, invert_cdf
from btfactors.streams import sentence_stream
from btfactors.tokenio import encode, token_sort_key
from btfactors.toyseq import ToyTaskSpec, generate_toy_task
from btfactors.toyseq.decode import (
    _ancestral,
    _channel_steps,
    _stacked_conditionals,
    batch_lm_scores,
    batch_sample,
    beam_decode,
    candidate_chunks,
    sample_candidate_set,
    sample_decode,
)
from btfactors.toyseq.models import (
    BOS,
    EOS,
    ChannelModel,
    ParallelCorpus,
    _CountTable,
    channel_score,
    lm_score,
    train_channel,
    train_ngram_lm,
)
from conftest import context_of, reference_lm_log_prob, reference_lm_score


def deterministic_channel():
    # exactly one positive-mass output per state: 0 -> 10, 1 -> 11
    counts = {}
    for prev in (BOS, 10, 11):
        counts[(prev, 0)] = {10: 1}
        counts[(prev, 1)] = {11: 1}
    return ChannelModel("source_to_target", alpha=0.0, out_vocab=[10, 11], counts=counts)


def cond_matrices(model, cond):
    """(prob, log) rows of every previous output given ``cond``: row 0 is
    prev == BOS, row 1 + i is prev == out_vocab[i]."""
    return model.rows([(prev, cond) for prev in (BOS, *model.out_vocab)])


def random_channel(rng, vocab_size=4, alpha=0.2, n_pairs=40, length=5):
    pairs = [
        (
            tuple(int(t) for t in rng.integers(0, vocab_size, size=length)),
            tuple(int(t) for t in rng.integers(0, vocab_size, size=length)),
        )
        for _ in range(n_pairs)
    ]
    return train_channel(
        ParallelCorpus.from_pairs(pairs), "source_to_target", alpha, out_vocab=range(vocab_size)
    )


# -- reference oracles: the per-sentence specification of the corpus decoders --

def reference_beam_decode(model, input_seq, beam_size):
    """Per-sentence beam search; ties compare whole token sequences in
    Python's token order, or by ``token_sort_key`` for a mixed vocabulary."""
    try:
        sorted(model.out_vocab)
        tie_key = None
    except TypeError:
        tie_key = token_sort_key
    beams = [((), 0.0)]
    for cond in input_seq:
        expansions = []
        for tokens, score in beams:
            prev = tokens[-1] if tokens else BOS
            row = model.rows([(prev, cond)])[1][0]
            for tok, tok_lp in zip(model.out_vocab, row):
                expansions.append((tokens + (tok,), score + float(tok_lp)))
        if tie_key is None:
            expansions.sort(key=lambda e: (-e[1], e[0]))
        else:
            expansions.sort(key=lambda e: (-e[1], tuple(map(tie_key, e[0]))))
        beams = expansions[:beam_size]
    return beams[0][0]


def reference_sample_decode(model, input_seq, rng):
    """Per-sentence ancestral sample, one scalar draw per position."""
    out: list = []
    prev = BOS
    last = len(model.out_vocab) - 1
    for cond in input_seq:
        cumulative = np.cumsum(model.rows([(prev, cond)])[0][0])
        idx = min(int(np.searchsorted(cumulative, float(rng.random()), side="right")), last)
        prev = model.out_vocab[idx]
        out.append(prev)
    return tuple(out)


def reference_candidate_arrays(backward, lm, target, n, rng):
    """Per-sentence candidate pool: n samples drawn position by position from
    ``rng``, annotated with channel and LM log-probs."""
    token_idx, log_q = batch_sample(backward, target, n, rng)
    return token_idx, log_q, batch_lm_scores(lm, token_idx, backward.out_vocab)


def reference_channel_scores(model, token_idx, cond_seq):
    """Log-probs of index-encoded outputs under the channel, vectorized."""
    n, length = token_idx.shape
    scores = np.zeros(n)
    prev_idx = np.zeros(n, dtype=np.intp)
    for t, cond in enumerate(cond_seq):
        _, logs = cond_matrices(model, cond)
        idx = token_idx[:, t]
        scores += logs[prev_idx, idx]
        prev_idx = idx + 1
    return scores


def brute_force_argmax(model, input_seq):
    best = None
    for output in itertools.product(model.out_vocab, repeat=len(input_seq)):
        score = channel_score(model, output, input_seq)
        key = (-score, output)
        if best is None or key < best:
            best = key
    return best[1], -best[0]


# -- beam ----------------------------------------------------------------------

def test_beam_on_deterministic_channel_returns_the_image():
    model = deterministic_channel()
    assert beam_decode(model, [(0, 1, 1, 0)], 5) == [(10, 11, 11, 10)]


def test_exhaustive_beam_equals_brute_force(rng):
    model = random_channel(rng, vocab_size=4)
    for _ in range(10):
        src = tuple(int(t) for t in rng.integers(0, 4, size=3))
        [exhaustive] = beam_decode(model, [src], beam_size=4**3)
        expected, best_score = brute_force_argmax(model, src)
        assert exhaustive == expected
        assert channel_score(model, exhaustive, src) == pytest.approx(best_score, abs=1e-12)


def test_beam_one_equals_greedy(rng):
    model = random_channel(rng)
    for _ in range(10):
        src = tuple(int(t) for t in rng.integers(0, 4, size=6))
        greedy = []
        prev = BOS
        for cond in src:
            row = model.rows([(prev, cond)])[1][0]
            prev = model.out_vocab[int(np.argmax(row))]
            greedy.append(prev)
        assert beam_decode(model, [src], beam_size=1) == [tuple(greedy)]


def test_wider_beam_never_scores_worse(rng):
    model = random_channel(rng)
    for _ in range(10):
        src = tuple(int(t) for t in rng.integers(0, 4, size=5))
        narrow = channel_score(model, beam_decode(model, [src], 1)[0], src)
        wide = channel_score(model, beam_decode(model, [src], 8)[0], src)
        assert wide >= narrow - 1e-12


def test_beam_rejects_bad_width():
    with pytest.raises(InvalidInputError):
        beam_decode(deterministic_channel(), [(0,)], 0)
    for width in (2.5, 2.0, "2", None):
        with pytest.raises(InvalidInputError, match="integer"):
            beam_decode(deterministic_channel(), [(0,)], width)


def test_beam_accepts_numpy_integer_widths():
    model = deterministic_channel()
    for width in (np.int64(2), np.int32(1), np.uint8(3)):
        assert beam_decode(model, [(0, 1)], width) == [(10, 11)]


# -- corpus decoders against the reference oracles ------------------------------

CONDITIONING = (0, 1, 2)        # trained conditioning tokens; 3 is never seen
INT_TOKENS = st.integers(-3, 25)
STR_TOKENS = st.text(alphabet="abAB_z", min_size=1, max_size=3)


@st.composite
def channels(draw):
    """A random add-alpha channel over an int, str or mixed output vocabulary."""
    kind = draw(st.sampled_from(("int", "str", "mixed")))
    if kind == "int":
        vocab = draw(st.lists(INT_TOKENS, min_size=1, max_size=5, unique=True))
    elif kind == "str":
        vocab = draw(st.lists(STR_TOKENS, min_size=1, max_size=5, unique=True))
    else:
        ints = draw(st.lists(INT_TOKENS, min_size=1, max_size=3, unique=True))
        strs = draw(st.lists(STR_TOKENS, min_size=1, max_size=2, unique=True))
        vocab = ints + strs
    alpha = draw(st.sampled_from((0.0, 0.1)))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.integers(1, 4))
        cond = draw(st.lists(st.sampled_from(CONDITIONING), min_size=length, max_size=length))
        out = draw(st.lists(st.sampled_from(vocab), min_size=length, max_size=length))
        pairs.append((cond, out))
    return train_channel(ParallelCorpus.from_pairs(pairs), "source_to_target", alpha,
                         out_vocab=vocab)


CORPORA = st.lists(
    st.lists(st.sampled_from(CONDITIONING + (3,)), max_size=4).map(tuple), max_size=6
)


@settings(max_examples=150, deadline=None)
@given(model=channels(), inputs=CORPORA, data=st.data())
def test_corpus_beam_matches_reference(model, inputs, data):
    exhaustive = len(model.out_vocab) ** 4
    beam_size = data.draw(st.one_of(st.integers(1, 3), st.just(exhaustive),
                                    st.integers(1, exhaustive)))
    expected = [reference_beam_decode(model, seq, beam_size) for seq in inputs]
    assert beam_decode(model, inputs, beam_size) == expected


@settings(max_examples=150, deadline=None)
@given(model=channels(), inputs=CORPORA, seed=st.integers(0, 2**16))
def test_corpus_sampling_matches_reference(model, inputs, seed):
    uniforms = [sentence_stream(seed, i).random(len(seq)) for i, seq in enumerate(inputs)]
    expected = [reference_sample_decode(model, seq, sentence_stream(seed, i))
                for i, seq in enumerate(inputs)]
    assert sample_decode(model, inputs, uniforms) == expected


def test_empty_corpus_decodes_to_nothing():
    model = deterministic_channel()
    assert beam_decode(model, [], 3) == []
    assert sample_decode(model, [], []) == []
    with pytest.raises(InvalidInputError):
        beam_decode(model, [], 0)


@pytest.fixture(scope="module")
def sweep_task():
    # the sweep benchmark's seed-1 task (|V| = 20, lengths 4-12), cut to its
    # first 200 mono targets; bitext and mono prefix do not depend on the sizes
    return generate_toy_task(ToyTaskSpec(
        source_vocab_size=20, target_vocab_size=20, length_range=(4, 12), channel_noise=0.15,
        bitext_size=300, mono_size=200, test_size=10, seed=1))


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_corpus_beam_matches_reference_at_sweep_scale(sweep_task, alpha):
    backward = train_channel(sweep_task.bitext, "target_to_source", alpha,
                             out_vocab=sweep_task.source_vocab)
    logs = np.stack([cond_matrices(backward, c)[1] for c in range(20)])
    # unseen (prev, cond) keys give uniform rows, so whole rows tie exactly;
    # without smoothing most entries are -inf
    assert np.mean([np.all(row == row[0]) for row in logs.reshape(-1, 20)]) > 0.05
    if alpha == 0.0:
        assert np.isneginf(logs).mean() > 0.5
    targets = sweep_task.mono.sentences
    for beam_size in (1, 5, 25):
        expected = [reference_beam_decode(backward, y, beam_size) for y in targets]
        assert beam_decode(backward, targets, beam_size) == expected


def test_mixed_vocabulary_ties_follow_token_sort_key():
    # the bitext "a 1" / "2 b", decoded in the backward direction
    pairs = ParallelCorpus.from_pairs([(("a", 1), (2, "b"))])
    backward = train_channel(pairs, "target_to_source", 0.1)
    # ("1", "a") and ("1", 1) tie behind the best hypothesis
    assert beam_decode(backward, [(2, "b")], 4) == [("a", 1)]
    # unseen conditioning tokens make every output tie; str(1) < "a"
    assert beam_decode(backward, [(7, 7)], 4) == [(1, 1)]


# -- sampling -------------------------------------------------------------------

def test_sampling_on_deterministic_channel_is_seed_free():
    model = deterministic_channel()
    for seed in (0, 7, 123):
        [out] = sample_decode(model, [(1, 0, 1)], [np.random.default_rng(seed).random(3)])
        assert out == (11, 10, 11)


def test_sample_never_beats_exhaustive_beam(rng):
    model = random_channel(rng)
    for trial in range(20):
        src = tuple(int(t) for t in rng.integers(0, 4, size=4))
        best = channel_score(model, beam_decode(model, [src], 4**4)[0], src)
        [sampled] = sample_decode(model, [src], [np.random.default_rng(trial).random(len(src))])
        assert channel_score(model, sampled, src) <= best + 1e-12


def test_sampling_frequencies_match_enumerated_probabilities(rng):
    model = random_channel(rng, vocab_size=3, alpha=0.5)
    src = (0, 2)
    enumerated = {
        output: math.exp(channel_score(model, output, src))
        for output in itertools.product(model.out_vocab, repeat=2)
    }
    assert sum(enumerated.values()) == pytest.approx(1.0, abs=1e-9)
    draws = 10**5
    stream = np.random.default_rng(42)
    observed: dict = {}
    uniforms = [stream.random(len(src)) for _ in range(draws)]
    for out in sample_decode(model, [src] * draws, uniforms):
        observed[out] = observed.get(out, 0) + 1
    tv = 0.5 * sum(
        abs(observed.get(seq, 0) / draws - p) for seq, p in enumerated.items()
    )
    assert tv < 0.02


# -- batch helpers ----------------------------------------------------------------

def test_batch_scores_match_scalar_paths(rng):
    model = random_channel(rng, vocab_size=4)
    lm = train_ngram_lm(
        [[int(t) for t in rng.integers(0, 4, size=6)] for _ in range(25)],
        order=2,
        alpha=0.1,
        vocab=range(4),
    )
    src = (1, 3, 0, 2)
    token_idx, log_probs = batch_sample(model, src, 32, np.random.default_rng(5))
    rescored = reference_channel_scores(model, token_idx, src)
    lm_scores = batch_lm_scores(lm, token_idx, model.out_vocab)
    for i in range(32):
        seq = tuple(model.out_vocab[j] for j in token_idx[i])
        assert log_probs[i] == pytest.approx(channel_score(model, seq, src), abs=1e-12)
        assert rescored[i] == pytest.approx(channel_score(model, seq, src), abs=1e-12)
        assert lm_scores[i] == pytest.approx(lm_score(lm, seq), abs=1e-12)


def test_batch_lm_scores_generic_order_fallback(rng):
    model = random_channel(rng, vocab_size=3)
    lm = train_ngram_lm(
        [[int(t) for t in rng.integers(0, 3, size=5)] for _ in range(20)],
        order=3,
        alpha=0.1,
        vocab=range(3),
    )
    token_idx, _ = batch_sample(model, (0, 1, 2), 8, np.random.default_rng(3))
    scores = batch_lm_scores(lm, token_idx, model.out_vocab)
    for i in range(8):
        seq = tuple(model.out_vocab[j] for j in token_idx[i])
        assert scores[i] == pytest.approx(lm_score(lm, seq), abs=1e-12)


def test_batch_lm_scores_sums_the_scalar_terms_pairwise():
    # the sweep benchmark's seed-1 task: 3000 reference sources, order-2 LM
    spec = ToyTaskSpec(source_vocab_size=20, target_vocab_size=20, length_range=(4, 12),
                       channel_noise=0.15, bitext_size=300, mono_size=3000, test_size=400,
                       seed=1)
    task = generate_toy_task(spec)
    lm = train_ngram_lm(task.bitext.sources(), 2, 0.1, vocab=task.source_vocab)
    sources = task.mono_refs.sources()
    scalar = np.array([reference_lm_score(lm, s) for s in sources])
    assert lm.batch_score(sources).tobytes() == scalar.tobytes()
    index = {tok: i for i, tok in enumerate(lm.content_vocab)}
    groups: dict = {}
    for i, s in enumerate(sources):
        groups.setdefault(len(s), []).append(i)
    pooled = np.empty(len(sources))
    for ids in groups.values():
        # scalar reference terms, end marker last
        terms = np.array([
            [reference_lm_log_prob(lm, tok, context_of(lm, sources[i][:t]))
             for t, tok in enumerate(sources[i] + (EOS,))]
            for i in ids
        ])
        token_idx = np.array([[index[tok] for tok in sources[i]] for i in ids])
        pooled[ids] = batch_lm_scores(lm, token_idx, lm.content_vocab)
        pairwise = terms[:, :-1].sum(axis=1) + terms[:, -1]
        assert pooled[ids].tobytes() == pairwise.tobytes()
    # summation order alone moves the last bits: 489 of the 3000 differ, by
    # at most 1.4e-14, on x86-64 with numpy 2.4
    assert np.abs(pooled - scalar).max() < 1e-13


# -- sampling kernel against the row-gather reference -------------------------------

def reference_invert_cdf(cdf, uniforms):
    """Inverse-CDF draw per row of (S, n) cumulative probabilities, as one
    boolean (S, n) matrix: entries at or below the row's uniform, clamped."""
    return np.minimum((cdf <= uniforms[:, None]).sum(axis=1), cdf.shape[1] - 1)


def reference_ancestral(steps, n, length):
    """``_ancestral`` with each sample's table row gathered: every step
    copies ``cdf[state]`` and reads ``logs[state, idx]``."""
    token_idx = np.empty((n, length), dtype=np.intp)
    log_probs = np.zeros(n)
    state = np.zeros(n, dtype=np.intp)
    for t, (cdf, logs, base, draws) in enumerate(steps):
        state = state + base
        idx = reference_invert_cdf(cdf[state], draws)
        if logs is not None:
            log_probs += logs[state, idx]
        token_idx[:, t] = idx
        state = idx + 1
    return token_idx, log_probs


def edge_uniforms(cdf):
    """Uniforms on the edges of a cdf table: 0.0, each entry exactly, and
    the floats just below and above each entry, all inside [0, 1)."""
    entries = np.unique(cdf)
    pool = np.concatenate(([0.0], entries, np.nextafter(entries, 0.0),
                           np.nextafter(entries, 2.0)))
    return np.unique(pool[(pool >= 0.0) & (pool < 1.0)])


@st.composite
def cdf_tables(draw):
    """(S, |V|) probability rows with zero-probability columns, one row
    whose cumsum ends below 1, and row indices with uniforms on the edges of
    the cumsums, +inf and NaN among them.  Widths run 1-6 and on each side
    of the powers of two that ``cdf_table`` pads to."""
    size = draw(st.one_of(st.integers(1, 6), st.sampled_from((16, 17, 32, 33, 50))))
    weights = draw(st.lists(
        st.lists(st.sampled_from((0.0, 0.0, 0.1, 0.3, 1.0, 2.5)), min_size=size, max_size=size)
        .filter(any), min_size=1, max_size=5))
    probs = np.array(weights) / np.array(weights).sum(axis=1, keepdims=True)
    # a row whose cumsum ends below 1: uniforms in [last entry, 1) take the clamp
    probs = np.vstack((probs, probs[0] * (1.0 - 2.0**-40)))
    n = draw(st.integers(1, 40))
    rows = np.array(draw(st.lists(st.integers(0, len(probs) - 1), min_size=n, max_size=n)))
    pool = edge_uniforms(np.cumsum(probs, axis=1))
    uniforms = np.array(draw(st.lists(
        st.one_of(st.sampled_from(pool.tolist()), st.floats(0.0, 1.0, exclude_max=True),
                  st.sampled_from((np.inf, np.nan))),
        min_size=n, max_size=n)))
    return probs, rows, uniforms


@settings(max_examples=200, deadline=None)
@given(case=cdf_tables())
def test_invert_cdf_on_given_rows_equals_the_row_gather(case):
    probs, rows, uniforms = case
    expected = reference_invert_cdf(np.cumsum(probs[rows], axis=1), uniforms)
    np.testing.assert_array_equal(invert_cdf(cdf_table(probs), uniforms, rows), expected)
    np.testing.assert_array_equal(invert_cdf(cdf_table(probs[rows]), uniforms), expected)


def test_invert_cdf_clamps_a_last_entry_below_the_uniform():
    probs = np.full((1, 10), 0.1)
    cdf = np.cumsum(probs, axis=1)
    assert cdf[0, -1] < 1.0      # ten tenths round to 0.9999999999999999
    uniforms = np.array([0.0, cdf[0, -1], np.nextafter(cdf[0, -1], 2.0), cdf[0, 0]])
    rows = np.zeros(4, dtype=np.intp)
    np.testing.assert_array_equal(invert_cdf(cdf_table(probs), uniforms, rows), [0, 9, 9, 1])
    np.testing.assert_array_equal(invert_cdf(cdf_table(probs[rows]), uniforms), [0, 9, 9, 1])


def test_invert_cdf_refuses_a_table_whose_width_is_not_a_power_of_two():
    with pytest.raises(InvalidInputError, match="power-of-two width, got width 3"):
        invert_cdf(np.cumsum(np.full((1, 3), 1 / 3), axis=1), np.array([0.5]))


def test_stacked_conditionals_fill_every_key_in_one_pass(monkeypatch, rng):
    model = random_channel(rng, vocab_size=4)
    inputs = encode([(0, 1, 1), (2, 3), (3, 0, 7)])     # 7 is never seen
    calls = []
    fill = _CountTable._fill_rows

    def counted(self, keys):
        calls.append(len(keys))
        return fill(self, keys)

    monkeypatch.setattr(_CountTable, "_fill_rows", counted)
    table, logs, _ = _stacked_conditionals(model, inputs)
    assert calls == [5 * 5]     # |V|+1 previous outputs for each of 5 distinct tokens
    assert table.shape[0] == 5 * 5 and logs.shape == (5, 5, 4)


@st.composite
def sampling_channels(draw):
    """A trained channel over |V| in 1..6 int tokens, alpha 0 (rows with
    zero-probability columns) or 0.1, and a conditioning sequence that may
    hold the unseen token 3."""
    size = draw(st.integers(1, 6))
    alpha = draw(st.sampled_from((0.0, 0.1)))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.integers(1, 4))
        cond = draw(st.lists(st.sampled_from(CONDITIONING), min_size=length, max_size=length))
        out = draw(st.lists(st.integers(0, size - 1), min_size=length, max_size=length))
        pairs.append((cond, out))
    model = train_channel(ParallelCorpus.from_pairs(pairs), "source_to_target", alpha,
                          out_vocab=range(size))
    cond_seq = tuple(draw(st.lists(st.sampled_from(CONDITIONING + (3,)), min_size=1,
                                   max_size=4)))
    return model, cond_seq


def assert_same_samples(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


@settings(max_examples=150, deadline=None)
@given(case=sampling_channels(), n=st.integers(1, 30), seed=st.integers(0, 2**16),
       data=st.data())
def test_ancestral_equals_the_row_gather_reference(case, n, seed, data):
    model, cond_seq = case
    length = len(cond_seq)
    # batch_sample: one table per position, rng draws in order
    reference_rng = np.random.default_rng(seed)
    reference_steps = ((np.cumsum(p, axis=1), lg, 0, reference_rng.random(n))
                       for p, lg in (cond_matrices(model, cond) for cond in cond_seq))
    assert_same_samples(batch_sample(model, cond_seq, n, np.random.default_rng(seed)),
                        reference_ancestral(reference_steps, n, length))
    # stacked tables with a per-row base, uniforms on the tables' edges; the
    # reference reads the unpadded cumulative rows
    table, logs, cond_rows = _stacked_conditionals(model, encode([cond_seq]))
    probs = np.stack([cond_matrices(model, cond)[0] for cond in encode([cond_seq]).tokens])
    cdfs = np.cumsum(probs, axis=-1)
    flat_cdfs = cdfs.reshape(-1, cdfs.shape[-1])
    np.testing.assert_array_equal(table, cdf_table(probs.reshape(flat_cdfs.shape)))
    pool = edge_uniforms(cdfs).tolist()
    uniforms = np.array(data.draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=length, max_size=length),
        min_size=n, max_size=n)))
    cond_idx = np.repeat(cond_rows([0], length), n, axis=0)
    assert_same_samples(_ancestral(_channel_steps(table, logs, cond_idx, uniforms), n, length),
                        reference_ancestral(_channel_steps(flat_cdfs, logs, cond_idx, uniforms),
                                            n, length))
    # tables without logs, as the toy-task generator samples
    no_logs = [(cdfs[c], None, 0, uniforms[:, t]) for t, c in enumerate(cond_idx[0])]
    assert_same_samples(_ancestral(((cdf_table(probs[c]), None, 0, uniforms[:, t])
                                    for t, c in enumerate(cond_idx[0])), n, length),
                        reference_ancestral(iter(no_logs), n, length))


# -- candidate sets ------------------------------------------------------------------

@pytest.fixture
def backward_and_lm(rng):
    pairs = [
        (
            tuple(int(t) for t in rng.integers(0, 4, size=5)),
            tuple(int(t) for t in rng.integers(0, 4, size=5)),
        )
        for _ in range(60)
    ]
    corpus = ParallelCorpus.from_pairs(pairs)
    backward = train_channel(corpus, "target_to_source", 0.1, out_vocab=range(4))
    lm = train_ngram_lm([src for src, _ in pairs], order=2, alpha=0.1, vocab=range(4))
    return backward, lm


def test_candidate_set_size_and_order(backward_and_lm):
    backward, lm = backward_and_lm
    cset = sample_candidate_set(backward, lm, (0, 1, 2), 50, sentence_stream(3, 0), target_id=0)
    assert len(cset) == 50
    assert cset.target_tokens == (0, 1, 2)


def test_candidate_annotations_match_recomputation(backward_and_lm):
    backward, lm = backward_and_lm
    y = (1, 0, 3, 2)
    cset = sample_candidate_set(backward, lm, y, 20, sentence_stream(9, 4), target_id=4)
    for cand in cset.candidates:
        assert cand.log_q == pytest.approx(channel_score(backward, cand.tokens, y), abs=1e-12)
        assert cand.log_lm == pytest.approx(lm_score(lm, cand.tokens), abs=1e-12)
        assert cand.length == len(y)


def test_candidate_set_deterministic_per_seed_and_target(backward_and_lm):
    backward, lm = backward_and_lm
    y = (2, 2, 1)
    first = sample_candidate_set(backward, lm, y, 15, sentence_stream(11, 7), target_id=7)
    second = sample_candidate_set(backward, lm, y, 15, sentence_stream(11, 7), target_id=7)
    assert first == second


def test_candidate_set_rejects_small_n(backward_and_lm):
    backward, lm = backward_and_lm
    with pytest.raises(InvalidInputError):
        sample_candidate_set(backward, lm, (0, 1), 1, sentence_stream(0, 0))


@settings(max_examples=40, deadline=None)
@given(alpha=st.sampled_from((0.0, 0.1)), n=st.sampled_from((2, 50)),
       order=st.sampled_from((2, 3)), big=st.sampled_from((1, 63, 64, 65, 129)),
       seed=st.integers(0, 2**16))
def test_candidate_chunks_match_per_sentence_reference(alpha, n, order, big, seed):
    rng = np.random.default_rng(seed)
    backward = random_channel(rng, vocab_size=3, alpha=alpha, n_pairs=12, length=4)
    lm = train_ngram_lm([[int(t) for t in rng.integers(0, 3, size=4)] for _ in range(12)],
                        order=order, alpha=0.1, vocab=range(3))
    # one group of ``big`` equal-length targets, mixed with a few other lengths
    big_len = int(rng.integers(1, 5))
    targets = [tuple(int(t) for t in rng.integers(0, 4, size=big_len)) for _ in range(big)]
    targets += [tuple(int(t) for t in rng.integers(0, 4, size=rng.integers(1, 5)))
                for _ in range(int(rng.integers(0, 6)))]
    targets = [targets[i] for i in rng.permutation(len(targets))]

    got, next_uniforms = {}, {}
    for ids, chunk_next, token_idx, log_q, log_lm in candidate_chunks(
            backward, lm, targets, n, lambda ids, count: np.array(
                [sentence_stream(seed, i).random(count) for i in ids])):
        assert 1 <= len(ids) <= 64
        assert len({len(targets[i]) for i in ids}) == 1
        assert token_idx.shape == (len(ids), n, len(targets[ids[0]]))
        for k, i in enumerate(ids):
            got[i] = (token_idx[k], log_q[k], log_lm[k])
            next_uniforms[i] = chunk_next[k]
    assert sorted(got) == list(range(len(targets)))
    for i, y in enumerate(targets):
        reference_stream = sentence_stream(seed, i)
        expected = reference_candidate_arrays(backward, lm, y, n, reference_stream)
        for actual, wanted in zip(got[i], expected):
            np.testing.assert_array_equal(actual, wanted)
        assert next_uniforms[i] == reference_stream.random()


def test_candidate_chunks_reject_bad_input(backward_and_lm):
    backward, lm = backward_and_lm
    draw = lambda ids, count: np.array([sentence_stream(0, i).random(count) for i in ids])
    with pytest.raises(InvalidInputError):
        next(candidate_chunks(backward, lm, [(0, 1)], 1, draw))
    with pytest.raises(InvalidInputError):
        next(candidate_chunks(backward, lm, [(0, 1), ()], 4, draw))
    # an unsmoothed LM that never saw a sampled bigram scores it -inf
    sparse_lm = train_ngram_lm([[0, 0]], order=2, alpha=0.0, vocab=range(4))
    with pytest.raises(InvalidInputError, match="finite"):
        list(candidate_chunks(backward, sparse_lm, [(0, 1, 2, 3)] * 3, 20, draw))
