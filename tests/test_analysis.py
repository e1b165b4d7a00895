import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfactors.analysis import (
    corpus_bleu,
    corpus_importance_report,
    corpus_profile,
    corpus_quality_report,
    sentence_representation_matrix,
    singular_spectrum,
)
from btfactors.errors import InconsistencyError, InvalidInputError
from btfactors.manipulate import SyntheticPair
from btfactors.toyseq.models import (
    ChannelModel,
    NGramLM,
    ParallelCorpus,
    channel_score,
    lm_score,
    train_channel,
    train_ngram_lm,
)

# pre-build oracle values for corpus_bleu (canonical BLEU arithmetic,
# computed by hand at high precision before implementation)
GOLDEN_CAT = 71.65313105737893          # "the cat sat" vs "the cat sat down"
GOLDEN_FLOOR = 59.46035575013605        # "a b c d" vs "a b c e" (4-gram floor)


# -- corpus BLEU -----------------------------------------------------------------

def test_bleu_identity_is_exactly_100():
    hyps = [("the", "cat"), ("a", "b", "c", "d", "e")]
    assert corpus_bleu(hyps, hyps) == 100.0


def test_bleu_zero_unigram_overlap_is_exactly_zero():
    assert corpus_bleu([("x", "y", "z")], [("a", "b", "c")]) == 0.0


def test_bleu_short_hypothesis_golden():
    hyp = [tuple("the cat sat".split())]
    ref = [tuple("the cat sat down".split())]
    assert corpus_bleu(hyp, ref) == pytest.approx(GOLDEN_CAT, abs=1e-4)


def test_bleu_zero_match_floor_golden():
    assert corpus_bleu([tuple("a b c d".split())], [tuple("a b c e".split())]) == pytest.approx(
        GOLDEN_FLOOR, abs=1e-4
    )


def test_bleu_brevity_penalty_only_when_short():
    short, long = [("a", "b", "c")], [("a", "b", "c", "d")]
    # short hypothesis: perfect unigram precision scaled by exp(1 - 4/3)
    assert corpus_bleu(short, long, max_n=1) == pytest.approx(100.0 * math.exp(-1.0 / 3.0))
    # long hypothesis: no penalty, only the 3/4 precision
    assert corpus_bleu(long, short, max_n=1) == pytest.approx(75.0)


def test_bleu_joint_permutation_invariance(rng):
    hyps = [tuple(int(t) for t in rng.integers(0, 8, size=6)) for _ in range(30)]
    refs = [tuple(int(t) for t in rng.integers(0, 8, size=6)) for _ in range(30)]
    base = corpus_bleu(hyps, refs)
    perm = rng.permutation(30)
    assert corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm]) == pytest.approx(
        base, abs=1e-12
    )


def test_bleu_clips_repeated_ngrams():
    # "the the the" can only claim as many "the" as the reference holds
    hyp = [("the", "the", "the")]
    ref = [("the", "cat",)]
    score = corpus_bleu(hyp, ref, max_n=1)
    assert score == pytest.approx(100.0 * (1.0 / 3.0), abs=1e-9)


def test_bleu_rejects_mismatched_or_empty_input():
    with pytest.raises(InvalidInputError):
        corpus_bleu([(1,)], [])
    with pytest.raises(InvalidInputError):
        corpus_bleu([], [])


def fractions_bleu(hyps, refs, max_n=4):
    """Independent reference implementation over exact fractions."""
    from fractions import Fraction
    from collections import Counter

    matched = [0] * max_n
    total = [0] * max_n
    c = r = 0
    for hyp, ref in zip(hyps, refs):
        c += len(hyp)
        r += len(ref)
        for n in range(1, max_n + 1):
            hgrams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            rgrams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            total[n - 1] += sum(hgrams.values())
            matched[n - 1] += sum(min(k, rgrams[g]) for g, k in hgrams.items())
    orders = [i for i in range(max_n) if total[i] > 0]
    if not orders or matched[0] == 0:
        return 0.0
    log_p = 0.0
    for i in orders:
        p = Fraction(matched[i], total[i]) if matched[i] else Fraction(1, 2 * total[i])
        log_p += math.log(p)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_p / len(orders))


def counter_bleu(hypotheses, references, max_n=4):
    """Reference oracle: the per-sentence Counter loop ``corpus_bleu`` replaced.

    Its float arithmetic is the same, so the two must agree bit for bit.
    """
    def ngram_counts(tokens, n):
        return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))

    hyps = [tuple(h) for h in hypotheses]
    refs = [tuple(r) for r in references]
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_grams = ngram_counts(hyp, n)
            if not hyp_grams:
                continue
            ref_grams = ngram_counts(ref, n)
            total[n - 1] += sum(hyp_grams.values())
            matched[n - 1] += sum(min(c, ref_grams.get(g, 0)) for g, c in hyp_grams.items())
    orders = [i for i in range(max_n) if total[i] > 0]
    if not orders or matched[0] == 0:
        return 0.0
    log_precision = 0.0
    for i in orders:
        precision = matched[i] / total[i] if matched[i] > 0 else 1.0 / (2.0 * total[i])
        log_precision += math.log(precision)
    geometric = math.exp(log_precision / len(orders))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * geometric


@st.composite
def token_pools(draw):
    size = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("int", "str", "mixed")))
    ints = draw(st.lists(st.integers(-3, 9), min_size=size, max_size=size, unique=True))
    strs = draw(st.lists(st.text(alphabet="abz_", min_size=1, max_size=2),
                         min_size=size, max_size=size, unique=True))
    if kind == "int":
        return ints
    if kind == "str":
        return strs
    return ints[: (size + 1) // 2] + strs[: size // 2]


@st.composite
def aligned_corpora(draw):
    pool = draw(token_pools())
    sentence = st.lists(st.sampled_from(pool), min_size=0, max_size=6).map(tuple)
    pairs = draw(st.lists(st.tuples(sentence, sentence), min_size=1, max_size=12))
    return [h for h, _ in pairs], [r for _, r in pairs]


@settings(max_examples=300, deadline=None)
@given(corpora=aligned_corpora(), max_n=st.integers(1, 4))
def test_bleu_equals_counter_oracle_bit_for_bit(corpora, max_n):
    hyps, refs = corpora
    assert corpus_bleu(hyps, refs, max_n) == counter_bleu(hyps, refs, max_n)


def test_bleu_over_a_large_string_vocabulary_equals_counter_oracle():
    # drawn from 10**5 types: a 4-gram key of raw token codes, (pair, t1..t4)
    # in base |V| with |V| > 20000, would pass 2**63; compacted ids must not
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(10**5)]
    hyps, refs = [], []
    for _ in range(1500):
        hyp = [vocab[i] for i in rng.integers(0, len(vocab), size=int(rng.integers(0, 40)))]
        ref = list(hyp)
        for j in rng.integers(0, len(ref), size=len(ref) // 4) if ref else ():
            ref[j] = vocab[int(rng.integers(0, len(vocab)))]
        hyps.append(tuple(hyp))
        refs.append(tuple(ref))
    assert len({tok for s in hyps + refs for tok in s}) > 20000
    assert corpus_bleu(hyps, refs) == counter_bleu(hyps, refs)


def test_bleu_matches_fraction_oracle_on_random_corpora(rng):
    for _ in range(25):
        size = int(rng.integers(1, 20))
        hyps = [
            tuple(int(t) for t in rng.integers(0, 6, size=rng.integers(1, 10)))
            for _ in range(size)
        ]
        refs = [
            tuple(int(t) for t in rng.integers(0, 6, size=rng.integers(1, 10)))
            for _ in range(size)
        ]
        assert corpus_bleu(hyps, refs) == pytest.approx(fractions_bleu(hyps, refs), abs=1e-9)


# -- quality / importance reports ------------------------------------------------

@pytest.fixture
def toy_models(rng):
    pairs = [
        (
            tuple(int(t) for t in rng.integers(0, 4, size=5)),
            tuple(int(t) for t in rng.integers(0, 4, size=5)),
        )
        for _ in range(40)
    ]
    corpus = ParallelCorpus.from_pairs(pairs)
    backward = train_channel(corpus, "target_to_source", 0.1, out_vocab=range(4))
    lm = train_ngram_lm([s for s, _ in pairs], order=2, alpha=0.1, vocab=range(4))
    return backward, lm


def synth(pairs, provenance="sampling"):
    return [SyntheticPair(source=s, target=t, provenance=provenance) for s, t in pairs]


def test_quality_report_singleton_equals_channel_score(toy_models):
    backward, _ = toy_models
    pair = SyntheticPair(source=(0, 1, 2), target=(3, 2, 1), provenance="beam")
    report = corpus_quality_report([pair], backward)
    assert report.mean_log_q == pytest.approx(
        channel_score(backward, pair.source, pair.target), abs=1e-12
    )
    assert report.bleu_vs_reference is None


def test_quality_report_matches_recomputation(toy_models, rng):
    backward, _ = toy_models
    pairs = synth(
        [
            (
                tuple(int(t) for t in rng.integers(0, 4, size=5)),
                tuple(int(t) for t in rng.integers(0, 4, size=5)),
            )
            for _ in range(20)
        ]
    )
    report = corpus_quality_report(pairs, backward)
    expected = np.mean([channel_score(backward, p.source, p.target) for p in pairs])
    assert report.mean_log_q == pytest.approx(float(expected), abs=1e-12)


def test_quality_report_bleu_needs_aligned_references(toy_models):
    backward, _ = toy_models
    pairs = synth([((0, 1), (1, 0)), ((2, 3), (3, 2))])
    report = corpus_quality_report(pairs, backward, references=[(0, 1), (2, 3)])
    assert report.bleu_vs_reference == 100.0
    with pytest.raises(InconsistencyError):
        corpus_quality_report(pairs, backward, references=[(0, 1)])


def test_importance_report_matches_recomputation(toy_models, rng):
    backward, lm = toy_models
    pairs = synth(
        [
            (
                tuple(int(t) for t in rng.integers(0, 4, size=5)),
                tuple(int(t) for t in rng.integers(0, 4, size=5)),
            )
            for _ in range(20)
        ]
    )
    report = corpus_importance_report(pairs, lm, backward)
    expected = np.mean(
        [lm_score(lm, p.source) - channel_score(backward, p.source, p.target) for p in pairs]
    )
    assert report.mean_log_importance == pytest.approx(float(expected), abs=1e-12)


def test_importance_report_zero_when_lm_equals_backward():
    # uniform no-EOS LM over V tokens == uniform channel row for every state
    lm = NGramLM(order=1, alpha=1.0, vocab=[0, 1, 2], counts={}, use_eos=False)
    backward = ChannelModel("target_to_source", alpha=1.0, out_vocab=[0, 1, 2])
    pairs = synth([((0, 1, 2), (2, 1, 0)), ((1, 1, 0), (0, 2, 2))])
    report = corpus_importance_report(pairs, lm, backward)
    assert report.mean_log_importance == pytest.approx(0.0, abs=1e-12)


# -- corpus profile -----------------------------------------------------------------

def test_profile_single_sentence():
    profile = corpus_profile([(7, 7, 7, 7, 7)])
    assert profile.length_histogram == {5: 1}
    assert profile.vocab_size == 1


def test_profile_vocab_size():
    assert corpus_profile([("a", "b", "a")]).vocab_size == 2


def test_profile_totals_match_corpus():
    corpus = [(1, 2), (2, 3, 4), (1,)]
    profile = corpus_profile(corpus)
    assert sum(profile.length_histogram.values()) == len(corpus)
    assert sum(profile.token_frequency_histogram.values()) == profile.vocab_size


def test_profile_buckets_are_powers_of_two():
    corpus = [tuple([0] * 9 + [1] * 3 + [2])]
    profile = corpus_profile(corpus)
    assert profile.token_frequency_histogram == {1: 1, 2: 1, 8: 1}


def test_profile_rejects_empty():
    with pytest.raises(InvalidInputError):
        corpus_profile([])


# -- representations -----------------------------------------------------------------

def test_representation_rows_normalized():
    matrix = sentence_representation_matrix([("a", "b")], ["a", "b", "c"])
    assert matrix[0] == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], abs=1e-12)


def test_representation_unit_norm_and_duplicates(rng):
    corpus = [tuple(int(t) for t in rng.integers(0, 6, size=5)) for _ in range(20)]
    corpus.append(corpus[0])
    matrix = sentence_representation_matrix(corpus, range(6))
    norms = np.linalg.norm(matrix, axis=1)
    assert norms == pytest.approx(np.ones(len(corpus)), abs=1e-12)
    assert matrix[-1] == pytest.approx(matrix[0], abs=0.0)


def test_representation_rejects_unknown_tokens():
    with pytest.raises(InvalidInputError):
        sentence_representation_matrix([(0, 9)], [0, 1])
    # the first unknown token in corpus order is named
    with pytest.raises(InvalidInputError, match="token 'y' is outside"):
        sentence_representation_matrix([(0, 1), (1, "y", 8)], [0, 1])


@pytest.mark.parametrize("vocab, repeated", [([1, 2, 1], 1), (["a", "b", "b"], "'b'"),
                                             ([0, 3, 3, 0], 0)])
def test_representation_rejects_a_repeated_vocabulary_token(vocab, repeated):
    # a repeat used to leave a dead column, which widened the spectrum's
    # entropy normalizer by one dimension
    with pytest.raises(InvalidInputError, match=f"repeats the token {repeated}$"):
        sentence_representation_matrix([(1, 2)], vocab)


@pytest.mark.parametrize("max_n", [0, -1, 2.5, "4", None])
def test_bleu_refuses_an_order_that_is_not_a_positive_integer(max_n):
    with pytest.raises(InvalidInputError, match="max_n must be"):
        corpus_bleu([(1, 2)], [(1, 2)], max_n=max_n)


def test_bleu_accepts_numpy_integer_orders():
    assert corpus_bleu([(1, 2)], [(1, 2)], max_n=np.int64(2)) == 100.0


def loop_representation_matrix(corpus, vocab):
    """Reference oracle: one row at a time, normalised by its own norm."""
    vocab = tuple(vocab)
    index = {tok: i for i, tok in enumerate(vocab)}
    matrix = np.zeros((len(corpus), len(vocab)))
    for row, sentence in enumerate(corpus):
        for tok in sentence:
            matrix[row, index[tok]] += 1.0
        with np.errstate(invalid="ignore"):
            matrix[row] /= np.linalg.norm(matrix[row])
    return matrix


def test_representation_equals_row_loop_bit_for_bit(rng):
    vocab = ["a", 3, "b", 7, "c"]
    corpus = [tuple(vocab[i] for i in rng.integers(0, 5, size=rng.integers(0, 9)))
              for _ in range(200)]
    corpus.append(())
    with np.errstate(invalid="ignore"):
        matrix = sentence_representation_matrix(corpus, vocab)
    expected = loop_representation_matrix(corpus, vocab)
    assert matrix.tobytes() == expected.tobytes()
    assert np.isnan(matrix[-1]).all()


# -- singular spectrum ------------------------------------------------------------------

def test_spectrum_identity():
    report = singular_spectrum(np.eye(3))
    assert report.singular_values == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
    assert report.normalized_spectral_entropy == pytest.approx(1.0, abs=1e-9)


def test_spectrum_diagonal():
    report = singular_spectrum(np.diag([3.0, 2.0, 1.0]))
    assert report.singular_values == pytest.approx([3.0, 2.0, 1.0], abs=1e-9)


def test_spectrum_rank_one():
    matrix = np.outer([1.0, 2.0, 3.0], [0.5, -0.5, 1.0, 2.0])
    report = singular_spectrum(matrix)
    above = [v for v in report.singular_values if v > 1e-9]
    assert len(above) == 1
    assert above[0] == pytest.approx(np.linalg.norm(matrix), abs=1e-9)


def test_spectrum_energy_matches_frobenius(rng):
    for _ in range(10):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        matrix = rng.normal(size=(rows, cols))
        report = singular_spectrum(matrix)
        frob2 = float((matrix**2).sum())
        assert sum(v**2 for v in report.singular_values) == pytest.approx(
            frob2, rel=1e-6
        )


def test_spectrum_matches_numpy_svd(rng):
    for _ in range(10):
        matrix = rng.normal(size=(int(rng.integers(2, 30)), int(rng.integers(2, 30))))
        mine = np.asarray(singular_spectrum(matrix).singular_values)
        ref = np.linalg.svd(matrix, compute_uv=False)
        assert mine == pytest.approx(ref, abs=1e-8 * max(1.0, float(ref[0])))


def test_spectrum_is_descending_nonnegative(rng):
    matrix = rng.normal(size=(12, 7))
    values = singular_spectrum(matrix).singular_values
    assert all(v >= 0.0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_spectrum_entropy_in_unit_interval(rng):
    for _ in range(5):
        matrix = rng.normal(size=(10, 10))
        entropy = singular_spectrum(matrix).normalized_spectral_entropy
        assert 0.0 <= entropy <= 1.0


def test_spectrum_rejects_degenerate_input():
    with pytest.raises(InvalidInputError):
        singular_spectrum(np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        singular_spectrum(np.array([1.0, 2.0]))
