import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfactors.errors import InvalidInputError
from btfactors.scoring import (
    Candidate,
    CandidateSet,
    SIGMA_FLOOR,
    GammaParams,
    cdf_table,
    gamma_distribution,
    gamma_picks,
    gamma_rows,
    gamma_sample,
    gamma_select,
    invert_cdf,
    standardize,
)

from conftest import make_set, random_set


# -- candidate invariants -----------------------------------------------------

def test_candidate_length_must_match_tokens():
    with pytest.raises(InvalidInputError):
        Candidate(tokens=(1, 2), length=3, log_q=-1.0, log_lm=-1.0)


def test_candidate_scores_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            Candidate(tokens=(1,), length=1, log_q=bad, log_lm=-1.0)
        with pytest.raises(InvalidInputError):
            Candidate(tokens=(1,), length=1, log_q=-1.0, log_lm=bad)


def test_candidate_set_needs_two_candidates():
    cand = Candidate(tokens=(1,), length=1, log_q=-1.0, log_lm=-1.0)
    with pytest.raises(InvalidInputError):
        CandidateSet(target_id=0, target_tokens=(5,), candidates=(cand,))


@pytest.mark.parametrize("target_id,message", [
    (2.5, "target_id must be an integer, got 2.5"),
    (-1, "target_id must be >= 0"),
])
def test_candidate_set_target_id_is_an_integer_at_least_0(target_id, message):
    cands = make_set([-1.0, -2.0], [-1.0, -2.0]).candidates
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        CandidateSet(target_id=target_id, target_tokens=(5,), candidates=cands)
    assert CandidateSet(target_id=np.int64(3), target_tokens=(5,), candidates=cands).target_id == 3


def test_gamma_params_range():
    with pytest.raises(InvalidInputError):
        GammaParams(gamma=1.5)


# -- standardize -----------------------------------------------------------------

def test_standardize_unit_lengths():
    result = standardize([-2.0, -4.0, -6.0], [1, 1, 1])
    assert result.values == pytest.approx((1.0, 0.0, -1.0), abs=1e-12)
    assert result.mu == pytest.approx(-4.0)
    assert result.sigma == pytest.approx(2.0)


def test_standardize_length_normalization():
    result = standardize([-4.0, -9.0], [2, 3])
    assert result.values == pytest.approx((0.7071, -0.7071), abs=1e-4)


def test_standardize_sigma_floor_yields_zeros():
    result = standardize([-2.0, -2.0], [1, 1])
    assert result.values == (0.0, 0.0)


def test_standardize_rejects_small_or_ragged_input():
    with pytest.raises(InvalidInputError):
        standardize([-1.0], [1])
    with pytest.raises(InvalidInputError):
        standardize([-1.0, -2.0], [1])
    with pytest.raises(InvalidInputError):
        standardize([-1.0, math.nan], [1, 1])
    with pytest.raises(InvalidInputError):
        standardize([-1.0, -2.0], [1, 0])


def test_standardize_moments_over_random_batches(rng):
    for _ in range(200):
        n = int(rng.integers(2, 12))
        values = rng.normal(-5.0, 3.0, size=n)
        lengths = rng.integers(1, 9, size=n)
        result = standardize(values, lengths)
        if result.sigma > 1e-12:
            out = np.asarray(result.values)
            assert abs(out.mean()) <= 1e-9
            assert abs(out.std(ddof=1) - 1.0) <= 1e-6


# -- gamma distribution ------------------------------------------------------------

def softmax(xs):
    exps = [math.exp(x) for x in xs]
    return [e / sum(exps) for e in exps]


def test_gamma_distribution_quality_only():
    # standardized quality of equally spaced values is [1, 0, -1]
    cset = make_set(log_qs=[-2.0, -4.0, -6.0], log_lms=[-5.0, -5.0, -5.0])
    probs = gamma_distribution(cset, GammaParams(gamma=0.0)).probs
    assert probs == pytest.approx(softmax([1.0, 0.0, -1.0]), abs=1e-12)


def test_gamma_distribution_importance_only():
    # importance = log_lm - log_q standardizes to [-1, 0, 1] for the same set
    cset = make_set(log_qs=[-2.0, -4.0, -6.0], log_lms=[-5.0, -5.0, -5.0])
    probs = gamma_distribution(cset, GammaParams(gamma=1.0)).probs
    assert probs == pytest.approx(softmax([-1.0, 0.0, 1.0]), abs=1e-12)


def test_gamma_distribution_balanced_two_candidates():
    # opposite-sign factors cancel at gamma = 0.5: uniform
    cset = make_set(log_qs=[-2.0, -4.0], log_lms=[-6.0, -4.0])
    probs = gamma_distribution(cset, GammaParams(gamma=0.5)).probs
    assert probs == pytest.approx((0.5, 0.5), abs=1e-12)


def test_gamma_distribution_two_candidate_quality_softmax():
    # two-candidate sample-std z-scores are +-1/sqrt(2)
    cset = make_set(log_qs=[-4.0, -2.0], log_lms=[-5.0, -5.0])
    probs = gamma_distribution(cset, GammaParams(gamma=0.0)).probs
    expected_high = math.exp(math.sqrt(2.0)) / (1.0 + math.exp(math.sqrt(2.0)))
    assert probs == pytest.approx((1.0 - expected_high, expected_high), abs=1e-12)


def test_hand_softmax_reference_values():
    # pins the softmax arithmetic on the documented [-1, 1] example
    assert softmax([-1.0, 1.0]) == pytest.approx([0.1192, 0.8808], abs=1e-4)


def test_gamma_distribution_identical_candidates_uniform():
    for n in (2, 5, 50):
        cset = make_set(log_qs=[-3.0] * n, log_lms=[-4.0] * n)
        probs = gamma_distribution(cset, GammaParams(gamma=0.7)).probs
        assert probs == pytest.approx([1.0 / n] * n, abs=1e-12)


def test_gamma_distribution_normalized_over_random_sets(rng):
    for _ in range(300):
        cset = random_set(rng)
        gamma = float(rng.uniform(0.0, 1.0))
        probs = np.asarray(gamma_distribution(cset, GammaParams(gamma=gamma)).probs)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert np.all(probs > 0.0) and np.all(probs < 1.0)


# -- gamma select ---------------------------------------------------------------------

def test_gamma_select_quality_argmax():
    cset = make_set(log_qs=[-4.0, -2.0], log_lms=[-5.0, -5.0])
    assert gamma_select(cset, GammaParams(gamma=0.0)) == 1


def test_gamma_select_importance_argmax():
    cset = make_set(log_qs=[-2.0, -4.0], log_lms=[-5.0, -5.0])
    assert gamma_select(cset, GammaParams(gamma=1.0)) == 1


def test_gamma_select_tie_breaks_to_lowest_index():
    cset = make_set(log_qs=[-3.0] * 4, log_lms=[-6.0] * 4)
    assert gamma_select(cset, GammaParams(gamma=0.3)) == 0


def test_gamma_picks_take_the_argmax_or_invert_the_cdf():
    probs = np.array([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.25, 0.25, 0.5]])
    assert gamma_picks(probs).tolist() == [1, 0, 2]
    # a uniform at a CDF step moves past it; one at the end picks the last index
    assert gamma_picks(probs, np.array([0.1, 0.4, 1.0])).tolist() == [0, 1, 2]
    assert gamma_picks(probs, np.array([0.7, 0.0, 0.3])).tolist() == [2, 0, 1]


def test_gamma_zero_ranking_matches_normalized_quality(rng):
    for _ in range(50):
        cset = random_set(rng)
        probs = gamma_distribution(cset, GammaParams(gamma=0.0)).probs
        keys = [c.log_q / c.length for c in cset.candidates]
        assert list(np.argsort(probs)) == list(np.argsort(keys))


def test_gamma_one_ranking_matches_normalized_importance(rng):
    for _ in range(50):
        cset = random_set(rng)
        probs = gamma_distribution(cset, GammaParams(gamma=1.0)).probs
        keys = [(c.log_lm - c.log_q) / c.length for c in cset.candidates]
        assert list(np.argsort(probs)) == list(np.argsort(keys))


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-50, -0.01),
            st.floats(-50, -0.01),
            st.integers(1, 8),
        ),
        min_size=2,
        max_size=10,
    ),
    gamma=st.floats(0.0, 1.0),
    shuffle_seed=st.integers(0, 2**31),
)
def test_permutation_equivariance(data, gamma, shuffle_seed):
    log_qs = [d[0] for d in data]
    log_lms = [d[1] for d in data]
    lengths = [d[2] for d in data]
    cset = make_set(log_qs, log_lms, lengths)
    perm = np.random.default_rng(shuffle_seed).permutation(len(data))
    permuted = make_set(
        [log_qs[i] for i in perm], [log_lms[i] for i in perm], [lengths[i] for i in perm]
    )
    params = GammaParams(gamma=gamma)
    base = gamma_distribution(cset, params).probs
    moved = gamma_distribution(permuted, params).probs
    assert moved == pytest.approx(tuple(base[i] for i in perm), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.floats(-50, -0.01), st.floats(-50, -0.01)),
        min_size=2,
        max_size=10,
    ),
    gamma=st.floats(0.0, 1.0),
    shift=st.floats(-20, 20),
    length=st.integers(1, 8),
)
def test_equal_length_shift_invariance(pairs, gamma, shift, length):
    log_qs = [q for q, _ in pairs]
    log_lms = [lm for _, lm in pairs]
    lengths = [length] * len(pairs)
    params = GammaParams(gamma=gamma)
    base = gamma_distribution(make_set(log_qs, log_lms, lengths), params).probs
    shifted_q = gamma_distribution(
        make_set([q + shift for q in log_qs], log_lms, lengths), params
    ).probs
    shifted_lm = gamma_distribution(
        make_set(log_qs, [lm + shift for lm in log_lms], lengths), params
    ).probs
    assert shifted_q == pytest.approx(base, abs=1e-9)
    assert shifted_lm == pytest.approx(base, abs=1e-9)


# -- gamma sample ------------------------------------------------------------------------

def test_gamma_sample_point_mass_on_identical_candidates():
    cset = make_set(log_qs=[-3.0] * 6, log_lms=[-4.0] * 6)
    rng = np.random.default_rng(0)
    for _ in range(20):
        idx = gamma_sample(cset, GammaParams(gamma=0.5), rng)
        assert cset.candidates[idx].tokens == cset.candidates[0].tokens


def batched_gamma_samples(cset, params, seed, draws):
    """The picks of ``draws`` successive ``gamma_sample`` calls on
    ``default_rng(seed)``, from one ``rng.random(draws)`` call inverted at the
    set's one Gamma row; the first 200 are checked against ``gamma_sample``."""
    probs = np.asarray(gamma_distribution(cset, params).probs)
    uniforms = np.random.default_rng(seed).random(draws)
    picks = invert_cdf(cdf_table(probs[None]), uniforms, np.zeros(draws, np.intp))
    stream = np.random.default_rng(seed)
    assert [gamma_sample(cset, params, stream) for _ in range(200)] == picks[:200].tolist()
    return probs, picks


def test_gamma_sample_frequencies_match_distribution():
    cset = make_set(log_qs=[-4.0, -2.0], log_lms=[-5.0, -5.0])
    draws = 10**5
    probs, picks = batched_gamma_samples(cset, GammaParams(gamma=0.0), 99, draws)
    freq = np.bincount(picks, minlength=2) / draws
    assert np.abs(freq - probs).max() <= 0.01


def test_gamma_sample_deterministic_for_fresh_seeded_streams():
    cset = make_set(log_qs=[-1.0, -5.0, -3.0], log_lms=[-2.0, -2.0, -9.0])
    params = GammaParams(gamma=0.4)
    first = gamma_sample(cset, params, np.random.default_rng(77))
    second = gamma_sample(cset, params, np.random.default_rng(77))
    assert first == second


def test_gamma_sample_total_variation_on_larger_set(rng):
    cset = random_set(rng, n=7)
    draws = 10**5
    probs, picks = batched_gamma_samples(cset, GammaParams(gamma=0.3), 2718, draws)
    hits = np.bincount(picks, minlength=len(probs))
    tv = 0.5 * float(np.abs(hits / draws - probs).sum())
    assert tv < 0.01


# -- the row-wise kernel against the per-set reference -----------------------------------

def reference_standardize(values, lengths):
    """Per-set z-scores of length-normalized values (sample std, floored)."""
    normalized = np.asarray(values, dtype=float) / np.asarray(lengths, dtype=float)
    mu = float(np.mean(normalized))
    sigma = float(np.std(normalized, ddof=1))
    if sigma <= SIGMA_FLOOR:
        return np.zeros_like(normalized)
    return (normalized - mu) / sigma


def reference_gamma_distribution(cset, params):
    lengths = [c.length for c in cset.candidates]
    imp = reference_standardize([c.log_lm - c.log_q for c in cset.candidates], lengths)
    qual = reference_standardize([c.log_q for c in cset.candidates], lengths)
    scores = params.gamma * imp + (1.0 - params.gamma) * qual
    weights = np.exp(scores - scores.max())
    return weights / weights.sum()


def reference_gamma_sample(cset, params, u):
    cumulative = np.cumsum(reference_gamma_distribution(cset, params))
    return min(int(np.searchsorted(cumulative, u, side="right")), len(cset) - 1)


@st.composite
def candidate_rows(draw, n):
    """One set's (log_q, log_lm, lengths); some sets are all duplicates, or
    duplicates but for one value an ulp away, inside the sigma floor."""
    kind = draw(st.sampled_from(("random", "duplicates", "one-ulp")))
    if kind != "random":
        q, lm = draw(st.floats(-50, -0.01)), draw(st.floats(-50, -0.01))
        log_qs = [q] * n
        if kind == "one-ulp":
            log_qs[draw(st.integers(0, n - 1))] = float(np.nextafter(q, 0.0))
        return log_qs, [lm] * n, [draw(st.integers(1, 8))] * n
    scores = st.floats(-50, -0.01)
    return (draw(st.lists(scores, min_size=n, max_size=n)),
            draw(st.lists(scores, min_size=n, max_size=n)),
            draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.sampled_from((2, 3, 50)), sets=st.integers(1, 5),
       gamma=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
def test_gamma_rows_match_per_set_reference(data, n, sets, gamma):
    rows = [data.draw(candidate_rows(n)) for _ in range(sets)]
    log_q, log_lm, lengths = (np.array([row[k] for row in rows]) for k in range(3))
    params = GammaParams(gamma=gamma)
    probs = gamma_rows(log_q, log_lm, lengths, params)
    uniforms = np.array([data.draw(st.floats(0.0, 1.0, exclude_max=True)) for _ in rows])
    picks = invert_cdf(cdf_table(probs), uniforms)
    for s, (q, lm, lens) in enumerate(rows):
        cset = make_set(q, lm, lens)
        expected = reference_gamma_distribution(cset, params)
        np.testing.assert_array_equal(probs[s], expected)
        assert gamma_distribution(cset, params).probs == tuple(expected.tolist())
        assert gamma_select(cset, params) == int(np.argmax(expected)) == probs[s].argmax()
        assert picks[s] == reference_gamma_sample(cset, params, uniforms[s])
        if np.ptp(q) < 1e-12 and len(set(lm)) == 1 and len(set(lens)) == 1:
            assert probs[s].tolist() == [1.0 / n] * n
