import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfactors import analysis
from btfactors.analysis import (
    BleuReferences,
    _jacobi_eigenvalues,
    corpus_bleu,
    corpus_importance_report,
    corpus_profile,
    corpus_quality_report,
    sentence_representation_matrix,
    singular_spectrum,
)
from btfactors.errors import InconsistencyError, InvalidInputError, NumericError
from btfactors.manipulate import SyntheticPair
from btfactors.toyseq.models import (
    ChannelModel,
    NGramLM,
    channel_score,
    lm_score,
    train_channel,
    train_ngram_lm,
)
from conftest import parallel_corpus

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


# tokens that no drawn pool holds: "q" is outside the pools' alphabet
ABSENT = (100, "q")


@st.composite
def prepared_cases(draw):
    """A reference corpus, several hypothesis corpora aligned with it and
    an order that may pass the longest sentence."""
    pool = draw(token_pools())
    refs = draw(st.lists(st.lists(st.sampled_from(pool), max_size=6).map(tuple),
                         min_size=1, max_size=10))
    hyp_tokens = st.sampled_from(pool + list(ABSENT))
    corpus = st.lists(st.lists(hyp_tokens, max_size=6).map(tuple),
                      min_size=len(refs), max_size=len(refs))
    return refs, draw(st.lists(corpus, min_size=1, max_size=4)), draw(st.integers(1, 8))


@settings(max_examples=100, deadline=None)
@given(case=prepared_cases(), data=st.data())
def test_prepared_references_score_each_corpus_as_the_counter_oracle(case, data):
    refs, corpora, max_n = case
    prepared = BleuReferences(refs, max_n)
    # one prepared object serves every corpus, in any order, any number of times
    order = data.draw(st.lists(st.sampled_from(range(len(corpora))), min_size=1, max_size=6))
    for i in order:
        score = corpus_bleu(corpora[i], prepared, max_n)
        assert score == counter_bleu(corpora[i], refs, max_n)
        assert score == corpus_bleu(corpora[i], refs, max_n)


def test_prepared_references_at_their_edges():
    refs = [("a", "b", "c", "d", "e", "f"), ("b", "c", "d", "e", "f", "g")]
    cases = [
        [("a", "b"), ("c",)],                    # every reference longer than every hypothesis
        [("a", "x", "b", "c"), ("y", "z")],      # tokens no reference holds
        [("x",), ("y", "y")],                    # no unigram match: exactly 0
        [("a", "b", "c", "d", "e", "f"), ("b", "c", "d", "e", "f", "g")],
    ]
    for max_n in (1, 4, 6, 7, 12):               # 7 and 12 pass the longest sentence
        prepared = BleuReferences(refs, max_n)
        for hyps in cases + cases[::-1]:
            assert corpus_bleu(hyps, prepared, max_n) == counter_bleu(hyps, refs, max_n)
    assert corpus_bleu(cases[-1], BleuReferences(refs)) == 100.0
    assert corpus_bleu(cases[2], BleuReferences(refs)) == 0.0


def test_prepared_references_refuse_what_corpus_bleu_refuses():
    aligned = "^hypotheses and references must be equal-length and non-empty$"
    prepared = BleuReferences([(1, 2), (3,)])
    assert len(prepared) == 2
    for hyps in ([(1, 2)], [(1,), (2,), (3,)], []):
        with pytest.raises(InvalidInputError, match=aligned):
            corpus_bleu(hyps, prepared)
    with pytest.raises(InvalidInputError, match=aligned):
        BleuReferences([])
    with pytest.raises(InvalidInputError, match="max_n must be"):
        BleuReferences([(1, 2)], max_n=0)
    # counts prepared up to one order cannot score another
    for prepared_n, max_n in ((4, 2), (2, 4), (1, 5)):
        with pytest.raises(InvalidInputError,
                           match=f"^references prepared for max_n {prepared_n} cannot "
                                 f"score max_n {max_n}$"):
            corpus_bleu([(1, 2)], BleuReferences([(1, 2)], prepared_n), max_n)


def test_prepared_references_keep_the_smallest_integer_types():
    # 3000 references of length 4-12 over 20 tokens: each order's ids fit in
    # 32 bits and its counts in 8
    rng = np.random.default_rng(3)
    refs = [tuple(rng.integers(0, 20, size=int(rng.integers(4, 13))).tolist())
            for _ in range(3000)]
    prepared = BleuReferences(refs)
    for keys, counts in zip(prepared._keys, prepared._counts):
        assert keys.dtype.itemsize <= 4 and counts.dtype == np.uint8
        assert len(keys) == len(counts) and np.all(keys[1:] > keys[:-1])


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
    corpus = parallel_corpus(pairs)
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


@pytest.mark.parametrize("shape, entry", [((2, 2), 1e80), ((2, 2), 1e200), ((1, 3), 1e200)])
def test_spectrum_refuses_a_matrix_whose_gram_norm_overflows(shape, entry):
    # an infinite norm passed the Jacobi convergence test before any rotation:
    # 1e80 gave singular values (1.414e80, 1.414e80), 1e200 gave (inf, inf),
    # and the 1 x 1 Gram matrix of one 1e200 row a singular value of inf;
    # numpy's overflow warnings would fail the test as errors
    with pytest.raises(InvalidInputError, match="norm of its Gram matrix overflows"):
        singular_spectrum(np.full(shape, entry))


def test_spectrum_of_a_large_matrix_with_a_finite_gram_norm():
    report = singular_spectrum(np.full((2, 2), 1e76))
    assert report.singular_values[0] == pytest.approx(2e76)
    assert report.singular_values[1] == 0.0
    assert report.normalized_spectral_entropy == 0.0


@pytest.mark.parametrize("matrix", [np.ones((3, 2)), np.full((2, 2), 1e76)], ids=["ones", "1e76"])
def test_rank_one_spectral_entropy_is_positive_zero(matrix):
    # the negated zero sum read -0.0, which a JSON report writes as "-0.0"
    entropy = singular_spectrum(matrix).normalized_spectral_entropy
    assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0


# -- Jacobi rotations against the numpy-slice reference ------------------------------

def reference_jacobi_eigenvalues(sym, tol=1e-10, max_sweeps=100, hits=None):
    """Cyclic Jacobi rotating numpy slices, written apart from
    ``_jacobi_eigenvalues``: its bit reference on rows of Python floats and
    on slices.  ``hits`` counts the rotations skipped (|a_pq| <= 1e-300) and those taken with
    |theta| > 1e150."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    scale = max(float(np.linalg.norm(a)), 1.0)
    off_diag = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a[off_diag]))
        if off <= tol * scale:
            return a.diagonal().copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                # scalars as Python floats, as in ``_jacobi_eigenvalues``: the
                # same IEEE result, but an overflow of theta to inf (a gap over
                # 1.8e308 * |a_pq|) gives t = 0 without numpy's warning
                apq = float(a[p, q])
                if abs(apq) <= 1e-300:
                    if hits is not None:
                        hits["skip"] += 1
                    continue
                theta = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                if abs(theta) > 1e150:
                    if hits is not None:
                        hits["far"] += 1
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
    raise NumericError(f"Jacobi iteration did not converge within {max_sweeps} sweeps")


@st.composite
def jacobi_matrices(draw):
    """n x n Gram matrices, n in 1..40, of row-normalised 0/1 count matrices
    (sentence representations), scaled by 10**e for e in [-150, 70].  A
    zero column leaves zero off-diagonal entries, which rotations skip;
    optionally a tiny entry is planted for the skip, and for the
    |theta| > 1e150 branch a diagonal (0, scale) with an entry 1e-155 times
    the gap at (0, 1): the zero diagonal entry takes that rotation's
    rounding into the eigenvalues."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = (rng.random((draw(st.integers(1, 60)), n)) < draw(
        st.sampled_from((0.05, 0.3, 0.7)))).astype(float)
    counts = counts[counts.any(axis=1)] if counts.any() else np.eye(1, n)
    rows = counts / np.linalg.norm(counts, axis=1)[:, None]
    far = n > 1 and draw(st.booleans())
    scale = 10.0 ** draw(st.floats(-140.0 if far else -150.0, 70.0))
    gram = rows.T @ rows * scale
    if n > 1 and draw(st.booleans()):
        p, q = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        gram[p, q] = gram[q, p] = draw(st.sampled_from((0.0, 1e-301, -1e-300)))
    if far:
        gram[0, 0], gram[1, 1] = 0.0, scale
        gram[0, 1] = gram[1, 0] = scale * 1e-155
    return gram


def jacobi_both_ways(gram):
    """``_jacobi_eigenvalues`` on rows of Python floats, then on numpy slices."""
    results = []
    for bound in (len(gram), 0):
        with mock.patch.object(analysis, "_FLOAT_ROWS_UP_TO", bound):
            results.append(_jacobi_eigenvalues(gram))
    return results


@settings(max_examples=100, deadline=None)
@given(gram=jacobi_matrices())
def test_jacobi_rotations_on_float_rows_and_slices_equal_the_reference(gram):
    expected = reference_jacobi_eigenvalues(gram).tobytes()
    assert [got.tobytes() for got in jacobi_both_ways(gram)] == [expected, expected]


def test_jacobi_above_the_float_row_bound_rotates_slices_to_the_same_bits():
    n = analysis._FLOAT_ROWS_UP_TO + 1
    counts = (np.random.default_rng(5).random((2 * n, n)) < 0.3).astype(float)
    rows = counts / np.linalg.norm(counts, axis=1)[:, None]
    gram = rows.T @ rows
    assert _jacobi_eigenvalues(gram).tobytes() == reference_jacobi_eigenvalues(gram).tobytes()


def test_jacobi_reference_cases_reach_the_skip_and_the_far_branch():
    # (0, 1) has |theta| = 1 / (2e-155) and moves the zero diagonal entry to
    # a subnormal; rows 0-1 and 2-3 never couple
    gram = np.array([[0.0, 1e-155, 0.0, 0.0], [1e-155, 1.0, 0.0, 0.0],
                     [0.0, 0.0, 3.0, 0.5], [0.0, 0.0, 0.5, 4.0]])
    hits = Counter()
    expected = reference_jacobi_eigenvalues(gram, hits=hits)
    assert hits["far"] >= 1 and hits["skip"] >= 4
    assert [got.tobytes() for got in jacobi_both_ways(gram)] == [expected.tobytes()] * 2


def test_jacobi_theta_overflowing_to_inf_leaves_the_eigenvalues_exact():
    # at (0, 1) theta = 1e39 / 2e-280 overflows to inf, so t = 0 and the
    # rotation is the identity; the true eigenvalue -a_pq**2 / gap = -1e-599
    # rounds to 0.  The coupled block 2-3 keeps the sweeps going.
    gram = np.array([[0.0, 1e-280, 0.0, 0.0], [1e-280, 1e39, 0.0, 0.0],
                     [0.0, 0.0, 3e38, 1e38], [0.0, 0.0, 1e38, 4e38]])
    hits = Counter()
    expected = reference_jacobi_eigenvalues(gram, hits=hits)
    assert hits["far"] >= 1
    assert expected[:2].tolist() == [0.0, 1e39]
    assert [got.tobytes() for got in jacobi_both_ways(gram)] == [expected.tobytes()] * 2


def test_jacobi_raises_the_same_error_when_sweeps_run_out():
    rows = np.random.default_rng(3).random((8, 6))
    gram = rows.T @ rows
    message = "Jacobi iteration did not converge within 1 sweeps"
    for bound in (len(gram), 0):    # rows of Python floats, numpy slices
        with mock.patch.object(analysis, "_FLOAT_ROWS_UP_TO", bound), \
                pytest.raises(NumericError, match=message):
            _jacobi_eigenvalues(gram, max_sweeps=1)
    with pytest.raises(NumericError, match=message):
        reference_jacobi_eigenvalues(gram, max_sweeps=1)
