import dataclasses
import itertools
import math
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btfactors.analysis as analysis
import btfactors.btloop as btloop
from btfactors.analysis import (
    corpus_diagnostics,
    corpus_importance_report,
    corpus_quality_report,
    sentence_representation_matrix,
    singular_spectrum,
)
from btfactors.btloop import (
    BTStrategy,
    ExperimentConfig,
    OracleResult,
    evaluate_marginal_oracles,
    exact_marginal,
    importance_mc_estimate,
    jensen_lower_bound,
    run_bt_experiment,
    synthesize_corpus,
    train_forward,
)
from btfactors.errors import (
    ConfigError,
    EnumerationTooLargeError,
    InvalidInputError,
    NumericError,
)
from btfactors.manipulate import PROVENANCES, MonoCorpus, SyntheticPair
from btfactors.scoring import GammaParams, gamma_sample, gamma_select
from btfactors.streams import sentence_stream
from btfactors.tokenio import BOS, encode
from btfactors.toyseq import ToyTaskSpec, generate_toy_task
from btfactors.toyseq.decode import (
    batch_lm_scores,
    batch_sample,
    sample_candidate_set,
)
from btfactors.toyseq.models import (
    ChannelModel,
    NGramLM,
    channel_score,
    coded_pairs,
    lm_score,
    train_channel,
    train_ngram_lm,
)
from conftest import candidate_set, parallel_corpus, reference_channel_log_prob

TINY = ToyTaskSpec(
    source_vocab_size=4,
    target_vocab_size=4,
    length_range=(2, 4),
    channel_noise=0.2,
    bitext_size=400,
    mono_size=60,
    test_size=30,
    seed=17,
)


@pytest.fixture(scope="module")
def tiny_setup():
    task = generate_toy_task(TINY)
    backward = train_channel(task.bitext, "target_to_source", 0.1, out_vocab=task.source_vocab)
    forward = train_channel(task.bitext, "source_to_target", 0.1, out_vocab=task.target_vocab)
    lm = train_ngram_lm(task.bitext.sources(), 2, 0.1, vocab=task.source_vocab)
    return task, backward, forward, lm


# -- strategy validation ------------------------------------------------------------

def test_strategy_parameter_contracts():
    with pytest.raises(ConfigError):
        BTStrategy(kind="warp")
    with pytest.raises(ConfigError):
        BTStrategy(kind="gamma-select", gamma=0.2)  # missing num_candidates
    with pytest.raises(ConfigError):
        BTStrategy(kind="beam", gamma=0.2)  # spurious parameter
    with pytest.raises(ConfigError):
        BTStrategy(kind="data-manipulation")  # missing gamma


@pytest.mark.parametrize("kwargs,message", [
    ({"kind": "gamma-select", "gamma": 0.2, "num_candidates": 2.5},
     "num_candidates must be an integer, got 2.5"),
    ({"kind": "gamma-sample", "gamma": 0.2, "num_candidates": "5"},
     "num_candidates must be an integer, got '5'"),
    ({"kind": "gamma-sample", "gamma": 0.2, "num_candidates": 1},
     "num_candidates must be >= 2, got 1"),
    ({"kind": "data-manipulation", "gamma": float("nan")},
     "gamma must be in [0, 1], got nan"),
    ({"kind": "gamma-select", "gamma": "0.2", "num_candidates": 5},
     "gamma must be a real number, got '0.2'"),
])
def test_strategy_parameters_are_checked_when_the_strategy_is_made(kwargs, message):
    # refused here, not when a sweep reaches the cell
    with pytest.raises(ConfigError, match=re.escape(message)):
        BTStrategy(**kwargs)


def test_strategy_accepts_numpy_integers_and_reals():
    strategy = BTStrategy("gamma-select", np.float64(0.2), np.int64(4))
    assert strategy == BTStrategy("gamma-select", 0.2, 4)
    assert strategy.label == "gamma-select(gamma=0.2,n=4)"


def label_gamma(label):
    """The gamma a label shows, read back as a float."""
    return float(re.fullmatch(r"[a-z-]+\(gamma=([^,)]+)(,n=\d+)?\)", label).group(1))


@settings(max_examples=300, deadline=None)
@given(st.floats(0, 1), st.sampled_from(["data-manipulation", "gamma-select", "gamma-sample"]))
def test_a_label_shows_gamma_exactly(gamma, kind):
    # gamma={:g} printed 0.1234567 and 0.1234568 alike, so a config refused
    # the pair as one duplicate cell
    n = None if kind == "data-manipulation" else 50
    strategy = BTStrategy(kind, gamma, n)
    assert label_gamma(strategy.label) == gamma
    assert BTStrategy(kind, np.float64(gamma), n).label == strategy.label
    neighbour = float(np.nextafter(gamma, 2.0 if gamma < 1 else 0.0))
    other = BTStrategy(kind, neighbour, n)
    assert label_gamma(other.label) == neighbour and other.label != strategy.label


def test_labels_keep_their_short_form_where_it_is_exact():
    labels = [BTStrategy("gamma-select", gamma, 50).label
              for gamma in (0.2, 0.5, 0, 1, 0.1234567, 0.1234568, 0.30000000000000004)]
    assert labels == [f"gamma-select(gamma={text},n=50)" for text in (
        "0.2", "0.5", "0", "1", "0.1234567", "0.1234568", "0.30000000000000004")]
    assert BTStrategy("data-manipulation", np.float32(0.1)).label == (
        "data-manipulation(gamma=0.10000000149011612)")


@pytest.mark.parametrize("kind,n", [("data-manipulation", None), ("gamma-select", 6),
                                    ("gamma-sample", 6)])
def test_a_fraction_gamma_labels_and_runs_like_its_float(kind, n):
    # check_parameter takes any real; a Fraction's label used to raise TypeError
    third = BTStrategy(kind, Fraction(1, 3), n)
    assert third.label == BTStrategy(kind, 1 / 3, n).label
    assert label_gamma(third.label) == 1 / 3
    cells = [run_bt_experiment(ExperimentConfig(task=TINY, strategies=(strategy,), seeds=(1,)))
             .to_records() for strategy in (third, BTStrategy(kind, 1 / 3, n))]
    assert cells[0] == cells[1]


def test_the_strategy_table_is_consistent():
    fields = [f.name for f in dataclasses.fields(BTStrategy)][1:]
    assert {name for spec in btloop.STRATEGIES.values() for name in spec.params} == set(fields)
    by_key = {}
    for kind, spec in btloop.STRATEGIES.items():
        for name, param in spec.params.items():
            # every parameter is bounded, and its default lies in its domain
            assert name in btloop.DOMAINS
            btloop.check_parameter(name, param.default)
            # a key that two kinds share sets one parameter with one default
            assert by_key.setdefault(param.key, (name, param.default)) == (name, param.default)
    # a synthetic file is read back exactly when its tags are the kinds' tags
    tags = {kind: spec.provenance for kind, spec in btloop.STRATEGIES.items()}
    assert tags.pop("none") is None
    assert set(tags.values()) == set(PROVENANCES)


def test_gamma_strategy_requires_lm(tiny_setup):
    task, backward, _, _ = tiny_setup
    with pytest.raises(ConfigError):
        synthesize_corpus(task.mono, backward, None, BTStrategy("gamma-select", 0.2, 50), seed=0)


# -- synthesis ------------------------------------------------------------------------

def test_none_strategy_yields_empty_corpus(tiny_setup):
    task, backward, _, lm = tiny_setup
    assert synthesize_corpus(task.mono, backward, lm, BTStrategy("none"), seed=0) == []


def test_beam_synthesis_on_noiseless_task_recovers_true_sources():
    spec = ToyTaskSpec(
        channel_noise=1e-12, bitext_size=500, mono_size=50, test_size=10, seed=3
    )
    task = generate_toy_task(spec)
    backward = train_channel(task.bitext, "target_to_source", 0.1, out_vocab=task.source_vocab)
    pairs = synthesize_corpus(task.mono, backward, None, BTStrategy("beam"), seed=0)
    assert [p.source for p in pairs] == task.mono_refs.sources()


def test_synthesis_is_deterministic_and_tagged(tiny_setup):
    task, backward, _, lm = tiny_setup
    for strategy, tag in [
        (BTStrategy("sampling"), "sampling"),
        (BTStrategy("gamma-select", 0.2, 10), "gamma-select"),
        (BTStrategy("gamma-sample", 0.2, 10), "gamma-sample"),
    ]:
        first = synthesize_corpus(task.mono, backward, lm, strategy, seed=5)
        second = synthesize_corpus(task.mono, backward, lm, strategy, seed=5)
        assert first == second
        assert len(first) == len(task.mono)
        assert all(p.provenance == tag for p in first)
        assert [p.target for p in first] == list(task.mono.sentences)


def test_equal_length_tuple_tokens_decode_as_tokens():
    # a vocabulary of equal-length tuples must not index as a 2-D array
    vocab = ((1, 2), (3, 4))
    bitext = parallel_corpus([(((1, 2), (3, 4)), (0, 1)),
                             (((3, 4), (1, 2)), (1, 0))])
    backward = train_channel(bitext, "target_to_source", 0.1, out_vocab=vocab)
    lm = train_ngram_lm(bitext.sources(), 2, 0.1, vocab=vocab)
    mono = MonoCorpus(sentences=((0, 1), (1, 1, 0)))
    for strategy in (BTStrategy("beam"), BTStrategy("sampling"),
                     BTStrategy("gamma-select", 0.2, 4)):
        pairs = synthesize_corpus(mono, backward, lm, strategy, seed=0)
        assert [len(p.source) for p in pairs] == [2, 3]
        for pair in pairs:
            assert all(type(tok) is tuple and tok in vocab for tok in pair.source)


def test_data_manipulation_tags_match_plan(tiny_setup):
    task, backward, _, _ = tiny_setup
    from btfactors.manipulate import split_monolingual

    strategy = BTStrategy("data-manipulation", 0.5)
    pairs = synthesize_corpus(task.mono, backward, None, strategy, seed=4)
    plan = split_monolingual(task.mono, 0.5, 4)
    for i, pair in enumerate(pairs):
        assert pair.provenance == ("beam" if i in set(plan.beam_ids) else "sampling")


def test_gamma_select_zero_gamma_picks_max_normalized_quality(tiny_setup):
    task, backward, _, lm = tiny_setup
    strategy = BTStrategy("gamma-select", 0.0, 12)
    pairs = synthesize_corpus(task.mono, backward, lm, strategy, seed=8)
    for i, y in enumerate(task.mono.sentences[:10]):
        cset = sample_candidate_set(backward, lm, y, 12, sentence_stream(8, i), target_id=i)
        best = max(range(len(cset)), key=lambda j: (cset.candidates[j].log_q, -j))
        assert pairs[i].source == cset.candidates[best].tokens
        assert gamma_select(cset, GammaParams(gamma=0.0)) == best


# -- forward training ---------------------------------------------------------------

def test_train_forward_empty_synthetic_equals_baseline(tiny_setup):
    task, _, _, _ = tiny_setup
    baseline = train_channel(task.bitext, "source_to_target", 0.1, out_vocab=task.target_vocab)
    trained = train_forward(task.bitext, [], 0.1, out_vocab=task.target_vocab)
    assert trained.counts == baseline.counts
    assert trained.to_text() == baseline.to_text()


def test_train_forward_duplicate_pair_counts_twice(tiny_setup):
    task, _, _, _ = tiny_setup
    pair = SyntheticPair(source=(0, 1), target=(2, 3), provenance="beam")
    base = train_forward(task.bitext, [], 0.1, out_vocab=task.target_vocab)
    doubled = train_forward(task.bitext, [pair, pair], 0.1, out_vocab=task.target_vocab)
    state, tok = (BOS, 0), 2
    assert doubled.counts[state][tok] == base.counts.get(state, {}).get(tok, 0) + 2


def test_train_forward_rejects_empty_union():
    with pytest.raises(InvalidInputError):
        train_forward(None, [], 0.1)


def test_true_pairs_never_hurt_heldout_likelihood():
    task = generate_toy_task(ToyTaskSpec(bitext_size=200, mono_size=200, test_size=100, seed=23))
    oracle_synthetic = [
        SyntheticPair(source=src, target=tgt, provenance="beam")
        for src, tgt in task.mono_refs.pairs
    ]
    base = train_forward(task.bitext, [], 0.1, out_vocab=task.target_vocab)
    grown = train_forward(task.bitext, oracle_synthetic, 0.1, out_vocab=task.target_vocab)
    base_ll = sum(channel_score(base, tgt, src) for src, tgt in task.test.pairs)
    grown_ll = sum(channel_score(grown, tgt, src) for src, tgt in task.test.pairs)
    assert grown_ll >= base_ll


# -- exact oracles ---------------------------------------------------------------------

def test_exact_marginal_matches_hand_enumeration(tiny_setup):
    task, _, forward, lm = tiny_setup
    y = task.mono.sentences[0][:2]
    weights = []
    joint = []
    for x in itertools.product(range(4), repeat=2):
        weights.append(math.exp(lm_score(lm, x)))
        joint.append(math.exp(lm_score(lm, x)) * math.exp(channel_score(forward, y, x)))
    expected = math.log(sum(joint)) - math.log(sum(weights))
    assert exact_marginal(lm, forward, y) == pytest.approx(expected, abs=1e-10)


def test_jensen_matches_hand_enumeration(tiny_setup):
    task, _, forward, lm = tiny_setup
    y = task.mono.sentences[1][:2]
    weights = np.array([math.exp(lm_score(lm, x)) for x in itertools.product(range(4), repeat=2)])
    values = np.array(
        [channel_score(forward, y, x) for x in itertools.product(range(4), repeat=2)]
    )
    expected = float((weights / weights.sum() * values).sum())
    assert jensen_lower_bound(lm, forward, y) == pytest.approx(expected, abs=1e-10)


def test_single_support_lm_reduces_to_channel_score(tiny_setup):
    _, _, forward, _ = tiny_setup
    counts = {(BOS,): {0: 1}, (0,): {1: 1}, (1,): {0: 1}}
    point_lm = NGramLM(order=2, alpha=0.0, vocab=[0, 1, 2, 3], counts=counts, use_eos=False)
    y = (2, 3)
    assert exact_marginal(point_lm, forward, y) == pytest.approx(
        channel_score(forward, y, (0, 1)), abs=1e-10
    )


def test_bound_never_exceeds_marginal(tiny_setup):
    task, _, forward, lm = tiny_setup
    for y in task.mono.sentences[:30]:
        assert jensen_lower_bound(lm, forward, y) <= exact_marginal(lm, forward, y) + 1e-9


def test_bound_equality_for_constant_forward(tiny_setup):
    task, _, _, lm = tiny_setup
    flat_forward = ChannelModel("source_to_target", alpha=1.0, out_vocab=task.target_vocab)
    for y in task.mono.sentences[:5]:
        exact = exact_marginal(lm, flat_forward, y)
        bound = jensen_lower_bound(lm, flat_forward, y)
        assert bound == pytest.approx(exact, abs=1e-10)
        assert exact == pytest.approx(len(y) * math.log(1.0 / 4.0), abs=1e-10)


def test_marginal_dominates_any_single_term(tiny_setup):
    task, backward, forward, lm = tiny_setup
    y = task.mono.sentences[2]
    weights = [lm_score(lm, x) for x in itertools.product(range(4), repeat=len(y))]
    log_z = math.log(sum(math.exp(w) for w in weights))
    exact = exact_marginal(lm, forward, y)
    for x in itertools.product(range(4), repeat=len(y)):
        single = (lm_score(lm, x) - log_z) + channel_score(forward, y, x)
        assert exact >= single - 1e-9


def test_enumeration_guard():
    big_task = generate_toy_task(ToyTaskSpec(bitext_size=50, mono_size=5, test_size=5, seed=1))
    lm = train_ngram_lm(big_task.bitext.sources(), 2, 0.1, vocab=big_task.source_vocab)
    forward = train_channel(
        big_task.bitext, "source_to_target", 0.1, out_vocab=big_task.target_vocab
    )
    with pytest.raises(EnumerationTooLargeError):
        exact_marginal(lm, forward, tuple(range(6)))  # 20**6 terms


# -- Monte-Carlo estimator -----------------------------------------------------------

def test_mc_estimate_constant_integrand_is_exact():
    vocab = [0, 1, 2]
    lm = NGramLM(order=2, alpha=1.0, vocab=vocab, counts={}, use_eos=True)
    backward = ChannelModel("target_to_source", alpha=1.0, out_vocab=vocab)
    forward = ChannelModel("source_to_target", alpha=1.0, out_vocab=vocab)
    y = (0, 2, 1)
    mean, se = importance_mc_estimate(lm, backward, forward, y, 100, np.random.default_rng(0))
    assert mean == pytest.approx(3 * math.log(1.0 / 3.0), abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_mc_estimate_within_three_standard_errors(tiny_setup):
    task, backward, forward, lm = tiny_setup
    failures = 0
    for i, y in enumerate(task.mono.sentences[:10]):
        bound = jensen_lower_bound(lm, forward, y)
        ok = False
        for retry in range(3):
            mean, se = importance_mc_estimate(
                lm, backward, forward, y, 10**5, sentence_stream(500 + retry, i)
            )
            if abs(mean - bound) <= 3.0 * se:
                ok = True
                break
        failures += not ok
    assert failures == 0


def test_mc_standard_error_shrinks_with_samples(tiny_setup):
    task, backward, forward, lm = tiny_setup
    y = task.mono.sentences[0]
    errors = []
    for n in (10**3, 10**4, 10**5):
        _, se = importance_mc_estimate(lm, backward, forward, y, n, sentence_stream(3, 1))
        errors.append(se)
    assert errors[0] > errors[1] > errors[2]


def test_mc_estimate_input_validation(tiny_setup):
    task, backward, forward, lm = tiny_setup
    y = task.mono.sentences[0]
    with pytest.raises(InvalidInputError):
        importance_mc_estimate(lm, backward, forward, y, 1, np.random.default_rng(0))
    unsmoothed = train_channel(task.bitext, "target_to_source", 0.0, out_vocab=task.source_vocab)
    with pytest.raises(InvalidInputError):
        importance_mc_estimate(lm, unsmoothed, forward, y, 10, np.random.default_rng(0))


@pytest.mark.parametrize("num_samples", [2.5, "100", 100.0, None])
@pytest.mark.parametrize("estimator", [importance_mc_estimate, evaluate_marginal_oracles])
def test_mc_sample_count_must_be_an_integer(tiny_setup, estimator, num_samples):
    # these used to escape as a bare TypeError from numpy or from a comparison
    task, backward, forward, lm = tiny_setup
    y = task.mono.sentences[0]
    message = f"num_samples must be an integer, got {num_samples!r}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        estimator(lm, backward, forward, y, num_samples, np.random.default_rng(0))


@pytest.mark.parametrize("num_samples", [btloop.MC_SAMPLE_LIMIT + 1, 10**12, 2**62])
@pytest.mark.parametrize("estimator", [importance_mc_estimate, evaluate_marginal_oracles])
def test_mc_sample_count_is_bounded_before_any_draw(tiny_setup, estimator, num_samples):
    # such counts used to fail inside numpy, allocating the (L, n) uniforms
    task, backward, forward, lm = tiny_setup
    rng = np.random.default_rng(0)
    message = f"num_samples must be <= {btloop.MC_SAMPLE_LIMIT}"
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        estimator(lm, backward, forward, task.mono.sentences[0], num_samples, rng)
    assert rng.random() == np.random.default_rng(0).random()


@pytest.mark.parametrize("num_samples", [np.int64(300), np.uint16(300), np.intp(300)])
def test_mc_sample_count_accepts_numpy_integers(tiny_setup, num_samples):
    task, backward, forward, lm = tiny_setup
    y = task.mono.sentences[0]
    want = importance_mc_estimate(lm, backward, forward, y, 300, np.random.default_rng(4))
    got = importance_mc_estimate(lm, backward, forward, y, num_samples,
                                 np.random.default_rng(4))
    assert got == want
    result = evaluate_marginal_oracles(lm, backward, forward, y, num_samples,
                                       np.random.default_rng(4))
    assert (result.mc_estimate, result.mc_std_error) == want


# -- Monte-Carlo estimator against the per-sample reference ----------------------------

def reference_importance_mc_estimate(lm, backward, forward, y, num_samples, rng):
    """The estimator with every sample scored on its own row: LM log-probs
    by ``batch_lm_scores`` and forward log-probs by ``_scores_given_sources``
    over the (num_samples, L) sample matrix."""
    if num_samples < 2:
        raise InvalidInputError("num_samples must be >= 2")
    if backward.alpha <= 0.0:
        raise InvalidInputError("backward model must smooth with alpha > 0 (positive mass)")
    y = tuple(y)
    vocab = lm.content_vocab
    if tuple(backward.out_vocab) != tuple(vocab):
        raise InvalidInputError("backward output vocabulary must match the LM vocabulary")
    enum_idx = btloop._enumeration_indices(len(vocab), len(y))
    log_z = btloop._logsumexp(batch_lm_scores(lm, enum_idx, vocab))
    sample_idx, log_proposal = batch_sample(backward, y, num_samples, rng)
    log_lm = batch_lm_scores(lm, sample_idx, vocab)
    log_weights = (log_lm - log_z) - log_proposal
    forward_ll = btloop._scores_given_sources(forward, y, sample_idx, vocab)
    values = np.exp(log_weights) * forward_ll
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(num_samples))
    return mean, std_error


@st.composite
def oracle_models(draw):
    """LM (order 2 or 3, with or without EOS), backward and forward channels
    over a |V| in 2..4 int vocabulary, and a target of length 1..4."""
    size = draw(st.integers(2, 4))
    vocab = list(range(size))
    sentences = st.lists(st.integers(0, size - 1), min_size=1, max_size=5)
    corpus = draw(st.lists(sentences, min_size=1, max_size=8))
    lm = train_ngram_lm(corpus, draw(st.sampled_from((2, 3))), draw(st.sampled_from((0.1, 1.0))),
                        vocab=vocab, use_eos=draw(st.booleans()))
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, 4))
        token = st.integers(0, size - 1)
        pairs.append((draw(st.lists(token, min_size=length, max_size=length)),
                      draw(st.lists(token, min_size=length, max_size=length))))
    bitext = parallel_corpus(pairs)
    backward = train_channel(bitext, "target_to_source", draw(st.sampled_from((0.1, 0.5))),
                             out_vocab=vocab)
    forward = train_channel(bitext, "source_to_target", draw(st.sampled_from((0.1, 1.0))),
                            out_vocab=vocab)
    y = tuple(draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4)))
    return lm, backward, forward, y


def same_float_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=120, deadline=None)
@given(models=oracle_models(), num_samples=st.sampled_from((2, 3, 257, 4000)),
       seed=st.integers(0, 2**16))
def test_mc_estimate_equals_the_per_sample_reference_bit_for_bit(models, num_samples, seed):
    lm, backward, forward, y = models
    got = importance_mc_estimate(lm, backward, forward, y, num_samples,
                                 np.random.default_rng(seed))
    want = reference_importance_mc_estimate(lm, backward, forward, y, num_samples,
                                            np.random.default_rng(seed))
    assert same_float_bits(got[0], want[0]) and same_float_bits(got[1], want[1])
    result = evaluate_marginal_oracles(lm, backward, forward, y, num_samples,
                                       np.random.default_rng(seed))
    assert same_float_bits(result.mc_estimate, got[0])
    assert same_float_bits(result.mc_std_error, got[1])
    assert same_float_bits(result.exact_log_marginal, exact_marginal(lm, forward, y))
    assert same_float_bits(result.jensen_bound, jensen_lower_bound(lm, forward, y))


def reference_mc_moments(lm_scores, forward_scores, backward, y, num_samples, rng):
    """The estimator over full-size sample arrays: ``batch_sample``'s (n, L)
    index matrix and n log-probs, each sample's enumeration row by
    ``ravel_multi_index``, and n importance-weighted values."""
    sample_idx, log_proposal = batch_sample(backward, y, num_samples, rng)
    rows = np.ravel_multi_index(sample_idx.T, (len(backward.out_vocab),) * len(y))
    log_weights = (lm_scores[rows] - btloop._logsumexp(lm_scores)) - log_proposal
    values = np.exp(log_weights) * forward_scores[rows]
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(num_samples))


@pytest.mark.parametrize("seed", [1, 3, 8])
@pytest.mark.parametrize("use_eos", [True, False], ids=["eos", "no-eos"])
def test_blocked_estimator_equals_full_array_reference_bit_for_bit(seed, use_eos):
    task = generate_toy_task(TINY.with_seed(seed))
    backward = train_channel(task.bitext, "target_to_source", 0.1, out_vocab=task.source_vocab)
    forward = train_channel(task.bitext, "source_to_target", 0.1, out_vocab=task.target_vocab)
    lm = train_ngram_lm(task.bitext.sources(), 2, 0.1, vocab=task.source_vocab,
                        use_eos=use_eos)
    tokens = itertools.chain.from_iterable(task.mono.sentences)
    block = btloop._MC_BLOCK
    for length in (1, 2, 3, 4):
        y = tuple(itertools.islice(tokens, length))
        _, lm_scores, forward_scores = btloop._enumerate_lm_and_channel(lm, forward, y)
        for num_samples in (2, block - 1, block, block + 1, 3 * block + 7):
            got_rng = np.random.default_rng([seed, length, num_samples])
            want_rng = np.random.default_rng([seed, length, num_samples])
            got = importance_mc_estimate(lm, backward, forward, y, num_samples, got_rng)
            want = reference_mc_moments(lm_scores, forward_scores, backward, y, num_samples,
                                        want_rng)
            assert same_float_bits(got[0], want[0]) and same_float_bits(got[1], want[1]), (
                length, num_samples)
            # both consumed the generator alike
            assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("seed", [1, 8])
def test_sample_rows_equal_the_ravel_multi_index_reference_at_every_enumerable_length(seed):
    # the estimator carries each sample's enumeration row from position to
    # position; the reference maps its index matrix with np.ravel_multi_index
    task = generate_toy_task(TINY.with_seed(seed))
    size = len(task.source_vocab)
    assert size == 4 and size**9 <= btloop.ENUMERATION_GUARD < size**10
    backward = train_channel(task.bitext, "target_to_source", 0.1, out_vocab=task.source_vocab)
    forward = train_channel(task.bitext, "source_to_target", 0.1, out_vocab=task.target_vocab)
    lm = train_ngram_lm(task.bitext.sources(), 2, 0.1, vocab=task.source_vocab)
    tokens = itertools.chain.from_iterable(task.mono.sentences)
    for length in range(1, 10):
        y = tuple(itertools.islice(tokens, length))
        _, lm_scores, forward_scores = btloop._enumerate_lm_and_channel(lm, forward, y)
        for num_samples in (2, 257):
            got = importance_mc_estimate(lm, backward, forward, y, num_samples,
                                         np.random.default_rng([seed, length]))
            want = reference_mc_moments(lm_scores, forward_scores, backward, y, num_samples,
                                        np.random.default_rng([seed, length]))
            assert same_float_bits(got[0], want[0]) and same_float_bits(got[1], want[1]), (
                length, num_samples)


@pytest.mark.parametrize("size", [1, 2, 3, 5], ids=["P1", "P2", "P4", "P8"])
@pytest.mark.parametrize("use_eos", [True, False], ids=["eos", "no-eos"])
def test_estimator_equals_the_reference_at_every_padded_table_width(size, use_eos):
    # |V| = 1, 2, 3, 5 pad the cdf tables to widths 1, 2, 4, 8; each estimate
    # leaves its generator where the reference's rng.random((L, n)) does
    vocab = list(range(size))
    draw = np.random.default_rng(size)
    pairs = [(draw.integers(0, size, length).tolist(), draw.integers(0, size, length).tolist())
             for length in (1, 2, 3, 4, 2, 3)]
    bitext = parallel_corpus(pairs)
    backward = train_channel(bitext, "target_to_source", 0.1, out_vocab=vocab)
    forward = train_channel(bitext, "source_to_target", 0.1, out_vocab=vocab)
    lm = train_ngram_lm([x for x, _ in pairs], 2, 0.1, vocab=vocab, use_eos=use_eos)
    for length in (1, 2, 3, 4):
        y = tuple(draw.integers(0, size, length).tolist())
        _, lm_scores, forward_scores = btloop._enumerate_lm_and_channel(lm, forward, y)
        for num_samples in (2, btloop._MC_BLOCK + 1):
            got_rng = np.random.default_rng([size, length, num_samples])
            want_rng = np.random.default_rng([size, length, num_samples])
            got = importance_mc_estimate(lm, backward, forward, y, num_samples, got_rng)
            want = reference_mc_moments(lm_scores, forward_scores, backward, y, num_samples,
                                        want_rng)
            assert same_float_bits(got[0], want[0]) and same_float_bits(got[1], want[1]), (
                length, num_samples)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_oracle_samples_in_blocks_without_log_probs(monkeypatch, tiny_setup):
    # at n = 10^5 each position takes one search per block of at most
    # _MC_BLOCK draws, positions in order, and the backward logs are read
    # per enumerated source (at most |V|^L values), never per sample
    task, backward, forward, lm = tiny_setup
    y = length_four_target(task)
    searches, log_reads = [], []
    invert_cdf, stacked = btloop.invert_cdf, btloop._stacked_conditionals

    class ReadLogs(np.ndarray):
        def __getitem__(self, key):
            got = super().__getitem__(key)
            log_reads.append(np.size(got))
            return got

    def counted(table, uniforms, rows=None):
        searches.append(len(uniforms))
        return invert_cdf(table, uniforms, rows)

    def watched(model, inputs):
        table, logs, cond_rows = stacked(model, inputs)
        return table, logs.view(ReadLogs), cond_rows

    monkeypatch.setattr(btloop, "invert_cdf", counted)
    monkeypatch.setattr(btloop, "_stacked_conditionals", watched)
    evaluate_marginal_oracles(lm, backward, forward, y, 10**5, sentence_stream(7, 0))
    block = btloop._MC_BLOCK
    assert block == 8192
    sizes = [block] * 12 + [1696]
    assert searches == [size for _ in y for size in sizes]
    assert log_reads and max(log_reads) <= 4 ** len(y) < min(sizes)


def length_four_target(task):
    return next(y for y in task.mono.sentences if len(y) == 4)


@pytest.mark.parametrize("estimator", [importance_mc_estimate, evaluate_marginal_oracles])
@pytest.mark.parametrize("num_samples", [2, 3 * btloop._MC_BLOCK + 7])
def test_oracle_leaves_the_generator_as_the_full_uniform_draw_does(tiny_setup, estimator,
                                                                   num_samples):
    # a pending 32-bit half survives rng.random((L, n)), and the estimate's
    # in-order draws keep it too
    task, backward, forward, lm = tiny_setup
    y = length_four_target(task)
    rng, twin = sentence_stream(7, 0), sentence_stream(7, 0)
    for generator in (rng, twin):
        generator.integers(0, 10, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    estimator(lm, backward, forward, y, num_samples, rng)
    twin.random((len(y), num_samples))
    assert rng.bit_generator.state == twin.bit_generator.state
    for _ in range(3):
        assert (rng.integers(0, 2**32, dtype=np.uint32)
                == twin.integers(0, 2**32, dtype=np.uint32))
        assert rng.random() == twin.random()


@pytest.mark.parametrize("num_samples", [2, 3 * btloop._MC_BLOCK + 7])
@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox,
                                           np.random.PCG64, np.random.PCG64DXSM],
                         ids=lambda bit_generator: bit_generator.__name__)
def test_oracle_accepts_every_bit_generator_as_the_full_uniform_draw(tiny_setup, bit_generator,
                                                                      num_samples):
    # each is read in order, so its pending 32-bit half (where it keeps one)
    # survives as it does rng.random((L, n))
    task, backward, forward, lm = tiny_setup
    y = length_four_target(task)
    _, lm_scores, forward_scores = btloop._enumerate_lm_and_channel(lm, forward, y)
    got_rng, want_rng, twin = (np.random.Generator(bit_generator(5)) for _ in range(3))
    for generator in (got_rng, want_rng, twin):
        generator.integers(0, 10, dtype=np.uint32)
    got = importance_mc_estimate(lm, backward, forward, y, num_samples, got_rng)
    want = reference_mc_moments(lm_scores, forward_scores, backward, y, num_samples, want_rng)
    assert same_float_bits(got[0], want[0]) and same_float_bits(got[1], want[1])
    twin.random((len(y), num_samples))
    # pickled, since MT19937 and Philox states hold arrays
    assert pickle.dumps(got_rng.bit_generator) == pickle.dumps(twin.bit_generator)
    for _ in range(3):
        assert (got_rng.integers(0, 2**32, dtype=np.uint32)
                == twin.integers(0, 2**32, dtype=np.uint32))
        assert got_rng.random() == twin.random()


@pytest.mark.parametrize("make_rng", [lambda: np.random.RandomState(0),
                                      lambda: np.random.PCG64(0)], ids=["RandomState", "PCG64"])
@pytest.mark.parametrize("estimator", [importance_mc_estimate, evaluate_marginal_oracles])
def test_oracle_refuses_an_rng_that_is_not_a_generator_before_any_draw(tiny_setup, estimator,
                                                                      make_rng):
    # a bare PCG64 has no random(out=...); it is refused like any non-Generator
    task, backward, forward, lm = tiny_setup
    rng = make_rng()
    message = f"rng must be a numpy Generator, got {type(rng).__name__}"
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        estimator(lm, backward, forward, task.mono.sentences[0], 100, rng)
    assert pickle.dumps(rng) == pickle.dumps(make_rng())


def test_oracle_memory_grows_by_the_values_alone(tiny_setup):
    # numpy reports its buffers to tracemalloc; the values and std's temporary
    # take 16 bytes a sample, where an (L, n) uniform draw would add 8 L more
    task, backward, forward, lm = tiny_setup
    y = length_four_target(task)

    def traced_peak(num_samples):
        tracemalloc.start()
        try:
            importance_mc_estimate(lm, backward, forward, y, num_samples,
                                   sentence_stream(7, 0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    low, high = 10**5, 4 * 10**5
    growth = (traced_peak(high) - traced_peak(low)) / (high - low)
    assert growth <= 24, f"{growth:.1f} B per sample"


def test_oracle_bundle_scores_one_enumeration_and_no_sample_rows(monkeypatch, tiny_setup):
    # the three quantities share one LM and one forward pass over |V|^L sources
    task, backward, forward, lm = tiny_setup
    lm_rows, channel_rows = [], []
    lm_scores, channel_scores = btloop.batch_lm_scores, btloop._scores_given_sources

    def counted_lm(lm, token_idx, out_vocab):
        lm_rows.append(len(token_idx))
        return lm_scores(lm, token_idx, out_vocab)

    def counted_channel(channel, out_seq, cond_idx, cond_vocab):
        channel_rows.append(len(cond_idx))
        return channel_scores(channel, out_seq, cond_idx, cond_vocab)

    monkeypatch.setattr(btloop, "batch_lm_scores", counted_lm)
    monkeypatch.setattr(btloop, "_scores_given_sources", counted_channel)
    y = task.mono.sentences[3]
    evaluate_marginal_oracles(lm, backward, forward, y, 1000, sentence_stream(7, 3))
    assert lm_rows == [4 ** len(y)] and channel_rows == [4 ** len(y)]


def reference_scores_given_sources(channel, out_seq, cond_idx, cond_vocab):
    """One scalar reference log-prob per position and conditioning token,
    added into every source's score position by position."""
    scores = np.zeros(cond_idx.shape[0])
    prev = BOS
    for position, out_tok in enumerate(out_seq):
        per_cond = np.array([reference_channel_log_prob(channel, out_tok, prev, c)
                             for c in cond_vocab])
        scores += per_cond[cond_idx[:, position]]
        prev = out_tok
    return scores


@st.composite
def enumerated_channels(draw):
    """A channel with sparse counts (so unseen keys), alpha 0 included, its
    conditioning vocabulary, and an output of length 1..4 that may hold
    out-of-vocabulary tokens at any position."""
    out_vocab = list(range(draw(st.integers(1, 4))))
    cond_vocab = tuple(range(draw(st.integers(1, 4))))
    keys = st.tuples(st.sampled_from([BOS, *out_vocab]), st.sampled_from(cond_vocab))
    row = st.dictionaries(st.sampled_from(out_vocab), st.integers(0, 5))
    counts = draw(st.dictionaries(keys, row, max_size=8))
    alpha = draw(st.sampled_from((0.0, 0.1, 1.0)))
    out_seq = tuple(draw(st.lists(st.sampled_from([*out_vocab, 99, "oov"]),
                                  min_size=1, max_size=4)))
    return (ChannelModel("source_to_target", alpha, out_vocab, counts=counts), cond_vocab,
            out_seq)


@settings(max_examples=300, deadline=None)
@given(case=enumerated_channels())
def test_scores_given_sources_equal_the_per_condition_log_prob_loop(case):
    channel, cond_vocab, out_seq = case
    cond_idx = btloop._enumeration_indices(len(cond_vocab), len(out_seq))
    got = btloop._scores_given_sources(channel, out_seq, cond_idx, cond_vocab)
    want = reference_scores_given_sources(channel, out_seq, cond_idx, cond_vocab)
    assert got.tobytes() == want.tobytes()


def test_oracle_result_validates_bound():
    with pytest.raises(NumericError):
        OracleResult(
            y=(0,), exact_log_marginal=-2.0, jensen_bound=-1.0, mc_estimate=0.0, mc_std_error=0.1
        )


def test_evaluate_marginal_oracles_bundle(tiny_setup):
    task, backward, forward, lm = tiny_setup
    y = task.mono.sentences[3]
    result = evaluate_marginal_oracles(lm, backward, forward, y, 5000, sentence_stream(7, 3))
    assert result.y == y
    assert result.jensen_bound <= result.exact_log_marginal + 1e-9
    assert result.mc_std_error > 0.0


# -- experiment sweep -----------------------------------------------------------------

SMALL_EXPERIMENT = ExperimentConfig(
    task=ToyTaskSpec(bitext_size=150, mono_size=150, test_size=60),
    strategies=(
        BTStrategy("beam"),
        BTStrategy("sampling"),
        BTStrategy("gamma-select", 0.2, 10),
    ),
    seeds=(1, 2),
)


def test_experiment_report_is_complete_and_bounded():
    report = run_bt_experiment(SMALL_EXPERIMENT)
    labels = ["none", "beam", "sampling", "gamma-select(gamma=0.2,n=10)"]
    assert len(report.cells) == len(labels) * 2
    for seed in (1, 2):
        for label in labels:
            cell = report.cell(label, seed)
            assert 0.0 <= cell.test_bleu <= 100.0
            if label == "none":
                assert cell.mean_log_q is None and cell.synthetic_size == 0
            else:
                assert cell.synthetic_size == 150
                assert cell.mean_log_q is not None
                assert cell.synthetic_bleu is not None


def test_experiment_is_deterministic():
    first = run_bt_experiment(SMALL_EXPERIMENT)
    second = run_bt_experiment(SMALL_EXPERIMENT)
    assert first.to_records() == second.to_records()


def test_experiment_requires_strategies_and_seeds():
    with pytest.raises(ConfigError):
        ExperimentConfig(task=TINY, strategies=(), seeds=(1,))
    with pytest.raises(ConfigError):
        ExperimentConfig(task=TINY, strategies=(BTStrategy("beam"),), seeds=())


def test_experiment_rejects_duplicate_seeds():
    # each (label, seed) pair names one report cell
    for seeds in ((1, 1), (3, 1, 2, 1)):
        with pytest.raises(ConfigError, match="^duplicate seed 1$"):
            ExperimentConfig(task=TINY, strategies=(BTStrategy("beam"),), seeds=seeds)
    ExperimentConfig(task=TINY, strategies=(BTStrategy("beam"),), seeds=(1, 2, 3))


def test_experiment_beam_size_must_be_a_positive_integer():
    for width in (2.5, 2.0, "5", None):
        with pytest.raises(ConfigError, match="integer"):
            ExperimentConfig(task=TINY, strategies=(BTStrategy("beam"),), seeds=(1,),
                             beam_size=width)
    with pytest.raises(ConfigError, match=">= 1"):
        ExperimentConfig(task=TINY, strategies=(BTStrategy("beam"),), seeds=(1,), beam_size=0)
    ExperimentConfig(task=TINY, strategies=(BTStrategy("beam"),), seeds=(1,),
                     beam_size=np.int64(3))


def test_experiment_refuses_a_fractional_lm_order():
    # it used to train an order-2 LM; the config itself is refused, before any cell runs
    with pytest.raises(ConfigError, match=r"^lm_order must be an integer, got 2\.5$"):
        ExperimentConfig(task=TINY, strategies=(BTStrategy("beam"),), seeds=(1,), lm_order=2.5)


@pytest.mark.parametrize("field,value,message", [
    ("seeds", (1, 2, -1), "seed must be >= 0, got -1"),
    ("seeds", (1, 2.0), "seed must be an integer, got 2.0"),
    ("alpha", -1.0, "alpha must be finite and non-negative, got -1.0"),
    ("alpha", math.nan, "alpha must be finite and non-negative, got nan"),
    ("alpha", math.inf, "alpha must be finite and non-negative, got inf"),
    ("alpha", "0.1", "alpha must be a real number, got '0.1'"),
    ("lm_order", 0, "lm_order must be >= 1, got 0"),
])
def test_experiment_refuses_bad_seeds_alpha_and_lm_order(field, value, message):
    # each of these used to fail inside run_bt_experiment, after earlier cells had run
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**{"task": TINY, "strategies": (BTStrategy("beam"),), "seeds": (1,),
                            field: value})


@pytest.mark.parametrize("build,error,message", [
    (lambda: ExperimentConfig(task=TINY, strategies=(BTStrategy("beam"),), seeds=(True,)),
     ConfigError, "seed must be an integer, got True"),
    (lambda: ExperimentConfig(task=TINY, strategies=(BTStrategy("beam"),), seeds=(1,),
                              beam_size=True),
     ConfigError, "beam_size must be an integer, got True"),
    (lambda: BTStrategy("gamma-select", gamma=True, num_candidates=50),
     ConfigError, "gamma must be a real number, got True"),
    (lambda: BTStrategy("gamma-select", gamma=0.2, num_candidates=True),
     ConfigError, "num_candidates must be an integer, got True"),
    (lambda: ToyTaskSpec(seed=False), InvalidInputError, "seed must be an integer, got False"),
    (lambda: sentence_stream(1, True), InvalidInputError,
     "target_id must be an integer, got True"),
], ids=["seeds", "beam_size", "gamma", "num_candidates", "task seed", "target_id"])
def test_a_bool_is_not_a_parameter(build, error, message):
    # bool is an int subclass, so operator.index alone would take True as 1
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_experiment_accepts_the_edges_of_seeds_alpha_and_lm_order():
    config = ExperimentConfig(task=TINY, strategies=(BTStrategy("beam"),),
                              seeds=(0, np.int64(7)), alpha=0, lm_order=np.int64(1))
    assert (config.alpha, config.lm_order) == (0, 1)


def test_experiment_rejects_duplicate_strategies():
    # each label names one report cell, so a repeated label is refused
    for strategies in ((BTStrategy("beam"), BTStrategy("beam")),
                       (BTStrategy("none"), BTStrategy("sampling"), BTStrategy("none")),
                       (BTStrategy("gamma-sample", 0.2, 5),
                        BTStrategy("gamma-sample", np.float64(0.2), np.int64(5)))):
        with pytest.raises(ConfigError, match="duplicate strategy"):
            ExperimentConfig(task=TINY, strategies=strategies, seeds=(1,))
    # a label shows gamma exactly, so a gamma 1e-9 away names another cell
    config = ExperimentConfig(task=TINY, strategies=(BTStrategy("gamma-sample", 0.2, 5),
                                                     BTStrategy("gamma-sample", 0.2 + 1e-9, 5),
                                                     BTStrategy("gamma-sample", 0.2, 6)),
                              seeds=(1,))
    assert [s.label for s in config.strategies] == [
        "gamma-sample(gamma=0.2,n=5)", "gamma-sample(gamma=0.200000001,n=5)",
        "gamma-sample(gamma=0.2,n=6)"]


GAMMA_GRID = tuple(BTStrategy(kind, gamma, 6) for kind in ("gamma-select", "gamma-sample")
                   for gamma in (0.0, 0.2, 0.5, 1.0))


def test_gamma_cells_share_one_candidate_pass_per_seed(monkeypatch):
    passes = []
    chunks = btloop.candidate_chunks

    def counted(*args, **kwargs):
        passes.append(args[3])
        return chunks(*args, **kwargs)

    config = ExperimentConfig(task=TINY.with_seed(0), seeds=(2, 3),
                              strategies=(BTStrategy("beam"), *GAMMA_GRID))
    monkeypatch.setattr(btloop, "candidate_chunks", counted)
    records = run_bt_experiment(config).to_records()
    assert passes == [6, 6]
    monkeypatch.undo()
    assert len(records) == 2 * 10
    for strategy in GAMMA_GRID:
        alone = run_bt_experiment(ExperimentConfig(task=config.task, seeds=config.seeds,
                                                   strategies=(strategy,))).to_records()
        assert [r for r in records if r["strategy"] == strategy.label] == alone[1::2]


def test_each_seed_gives_the_cells_of_a_run_on_that_seed_alone():
    # seeds share no state, so they can run in any order or apart
    strategies = (BTStrategy("beam"), BTStrategy("gamma-select", 0.2, 6),
                  BTStrategy("gamma-sample", 0.5, 6))
    config = ExperimentConfig(task=TINY, strategies=strategies, seeds=(3, 2))
    records = run_bt_experiment(config).to_records()
    assert [r["seed"] for r in records] == [3] * 4 + [2] * 4
    for seed in config.seeds:
        alone = run_bt_experiment(ExperimentConfig(task=TINY, strategies=strategies,
                                                   seeds=(seed,))).to_records()
        cells = [cell.to_record() for cell in btloop._seed_cells(config, seed)]
        assert [r for r in records if r["seed"] == seed] == alone == cells


@pytest.mark.parametrize("callee,calls_per_seed,label", [
    ("train_forward", 3, "none"),
    ("_weak_backward", 1, "beam-weak"),
    ("_gamma_sources", 1, "gamma-select(gamma=0.2,n=4)"),
])
def test_a_failing_cell_names_its_strategy_and_seed(monkeypatch, callee, calls_per_seed, label):
    # the callee fails on its first call of the second seed
    calls = []
    original = getattr(btloop, callee)

    def failing(*args, **kwargs):
        calls.append(callee)
        if len(calls) > calls_per_seed:
            raise InvalidInputError("boom")
        return original(*args, **kwargs)

    monkeypatch.setattr(btloop, callee, failing)
    config = ExperimentConfig(task=TINY, seeds=(3, 2), strategies=(
        BTStrategy("beam-weak"), BTStrategy("gamma-select", 0.2, 4)))
    with pytest.raises(InvalidInputError) as caught:
        run_bt_experiment(config)
    assert type(caught.value) is InvalidInputError
    assert str(caught.value) == f"strategy {label!r} seed 2: boom"


def reference_gamma_sources(mono, backward, lm, strategy, seed):
    """Per-sentence Gamma synthesis: each sentence's stream draws its pool
    position by position, then gamma-sample's pick."""
    sources = []
    for i, y in enumerate(mono.sentences):
        stream = sentence_stream(seed, i)
        token_idx, log_q = batch_sample(backward, y, strategy.num_candidates, stream)
        cset = candidate_set(backward.out_vocab, i, y, token_idx, log_q,
                             batch_lm_scores(lm, token_idx, backward.out_vocab))
        params = GammaParams(gamma=strategy.gamma)
        pick = (gamma_select(cset, params) if strategy.kind == "gamma-select"
                else gamma_sample(cset, params, stream))
        sources.append(cset.candidates[pick].tokens)
    return sources


def test_shared_gamma_pass_equals_each_strategy_alone(tiny_setup):
    task, backward, _, lm = tiny_setup
    for seed in (0, 2**32 + 3):
        shared = btloop._gamma_sources(encode(task.mono.sentences), backward, lm, GAMMA_GRID,
                                       seed)
        for strategy, coded_sources in zip(GAMMA_GRID, shared):
            sources = list(coded_sources)
            assert sources == reference_gamma_sources(task.mono, backward, lm, strategy, seed)
            alone = synthesize_corpus(task.mono, backward, lm, strategy, seed)
            assert [p.source for p in alone] == sources
    with pytest.raises(InvalidInputError, match="one num_candidates"):
        btloop._gamma_sources(encode(task.mono.sentences), backward, lm,
                              (BTStrategy("gamma-select", 0.2, 4),
                               BTStrategy("gamma-sample", 0.2, 5)), 0)


def cell_synthetics(config):
    """The records of ``config`` and the coded synthetic corpus each of its
    cells trained on, in cell order."""
    synthetics = []
    train = btloop.train_forward

    def recorded(bitext, synthetic, *args, **kwargs):
        synthetics.append(synthetic)
        return train(bitext, synthetic, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(btloop, "train_forward", recorded)
        records = run_bt_experiment(config).to_records()
    return records, synthetics


def same_codes(a, b) -> bool:
    return (a.tokens == b.tokens and np.array_equal(a.codes, b.codes)
            and np.array_equal(a.lengths, b.lengths))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from((0.0, 0.37, 0.5, 1.0)))
def test_shared_data_manipulation_equals_its_own_decodes(seed, gamma):
    # the sweep's data-manipulation cell takes its halves from the beam and
    # sampling cells; synthesize_corpus decodes them itself
    dm = BTStrategy("data-manipulation", gamma=gamma)
    config = ExperimentConfig(task=TINY, seeds=(seed,),
                              strategies=(BTStrategy("beam"), BTStrategy("sampling"), dm))
    records, synthetics = cell_synthetics(config)
    task = generate_toy_task(TINY.with_seed(seed))
    mono = encode(task.mono.sentences)
    backward = train_channel(coded_pairs(task.bitext), "target_to_source", config.alpha,
                             out_vocab=task.source_vocab)
    sources, targets = synthesize_corpus(mono, backward, None, dm, seed)
    assert same_codes(synthetics[3][0], sources) and same_codes(synthetics[3][1], targets)
    # listed before beam and sampling, or without them, it decodes its halves itself
    for strategies in ((dm, BTStrategy("beam"), BTStrategy("sampling")), (dm,)):
        alone = run_bt_experiment(dataclasses.replace(config, strategies=strategies))
        assert alone.cell(dm.label, seed).to_record() == records[3]


def test_a_seed_decodes_its_mono_once_per_decoder_and_calls_corpus_bleu_13_times(monkeypatch):
    # the acceptance strategies: 7 cells with none, 6 of them with synthetic
    # data; by-name wrappers of corpus_bleu and _evaluate_test_bleu see every call
    task = ToyTaskSpec(source_vocab_size=4, target_vocab_size=4, length_range=(2, 4),
                       bitext_size=200, mono_size=50, test_size=20)
    config = ExperimentConfig(task=task, seeds=(4, 9), strategies=(
        BTStrategy("beam"), BTStrategy("beam-weak"), BTStrategy("sampling"),
        BTStrategy("data-manipulation", gamma=0.5), BTStrategy("gamma-select", 0.2, 4),
        BTStrategy("gamma-sample", 0.2, 4)))
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, args, result))
            return result
        monkeypatch.setattr(module, name, wrapper)

    for name in ("train_channel", "beam_decode", "sample_decode", "_evaluate_test_bleu",
                 "corpus_bleu"):
        counted(btloop, name)
    counted(analysis, "corpus_bleu")
    for seed in config.seeds:
        calls.clear()
        btloop._seed_cells(config, seed)
        # the first backward model trained is the standard one, the second the weak one
        backward = next(result for name, args, result in calls
                        if name == "train_channel" and args[1] == "target_to_source")
        decodes = [(name, len(args[1])) for name, args, _ in calls
                   if name in ("beam_decode", "sample_decode") and args[0] is backward]
        assert decodes == [("beam_decode", 50), ("sample_decode", 50)]
        names = [name for name, _, _ in calls]
        assert names.count("sample_decode") == 1
        assert names.count("corpus_bleu") == 13
        assert names.count("_evaluate_test_bleu") == 7


def test_each_cell_scores_its_pairs_with_one_channel_once(monkeypatch):
    # the quality and importance reports share one backward pass per cell
    calls = []
    batch_score = ChannelModel.batch_score

    def counted(self, outputs, inputs):
        calls.append((id(self), tuple(map(tuple, outputs)), tuple(map(tuple, inputs))))
        return batch_score(self, outputs, inputs)

    monkeypatch.setattr(ChannelModel, "batch_score", counted)
    # an order-3 LM: the candidate pools' log_lm and the importance report
    # both come from NGramLM.batch_score
    config = ExperimentConfig(
        task=TINY.with_seed(5),
        strategies=(BTStrategy("beam"), BTStrategy("sampling"),
                    BTStrategy("gamma-select", 0.2, 4)),
        seeds=(5,),
        lm_order=3,
    )
    report = run_bt_experiment(config)
    # 3 cells with synthetic data: one backward and one truth-channel pass each
    assert len(calls) == 6 and len(set(calls)) == 6
    assert all(c.mean_log_importance is not None for c in report.cells if c.synthetic_size)


def test_corpus_diagnostics_equal_the_separate_reports(tiny_setup):
    task, backward, _, lm = tiny_setup
    synthetic = [SyntheticPair(source=s, target=t, provenance="beam")
                 for s, t in task.bitext.pairs[:25]]
    sources = [p.source for p in synthetic]
    refs = list(reversed(sources))
    for references in (refs, None):
        assert corpus_diagnostics(synthetic, backward, lm, references, task.source_vocab) == (
            corpus_quality_report(synthetic, backward, references),
            corpus_importance_report(synthetic, lm, backward),
            singular_spectrum(sentence_representation_matrix(sources, task.source_vocab)))
    with pytest.raises(InvalidInputError, match="synthetic corpus must be non-empty"):
        corpus_diagnostics([], backward, lm, None, task.source_vocab)


def test_experiment_matches_frozen_golden():
    # regression pin captured from a verified run of SMALL_EXPERIMENT
    import json
    from pathlib import Path

    golden = json.loads(
        (Path(__file__).parent / "goldens" / "experiment_small.json").read_text()
    )
    records = run_bt_experiment(SMALL_EXPERIMENT).to_records()
    assert len(records) == len(golden)
    for record, expected in zip(records, golden):
        for key, value in expected.items():
            if isinstance(value, float):
                assert record[key] == pytest.approx(value, rel=1e-9), (key, record)
            else:
                assert record[key] == value, (key, record)
