import itertools
import math

import numpy as np
import pytest

from btfactors.analysis import (
    backward_scores,
    corpus_importance_report,
    corpus_quality_report,
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
    InconsistencyError,
    InvalidInputError,
    NumericError,
)
from btfactors.manipulate import SyntheticPair
from btfactors.scoring import GammaParams, gamma_select
from btfactors.streams import sentence_stream
from btfactors.toyseq import ToyTaskSpec, generate_toy_task
from btfactors.toyseq.decode import sample_candidate_set
from btfactors.toyseq.models import (
    BOS,
    ChannelModel,
    NGramLM,
    channel_score,
    lm_score,
    train_channel,
    train_ngram_lm,
)

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
    with pytest.raises(ConfigError):
        BTStrategy(kind="sampling", split_seed=1)


def test_gamma_strategy_requires_lm(tiny_setup):
    task, backward, _, _ = tiny_setup
    with pytest.raises(ConfigError):
        synthesize_corpus(task.mono, backward, None, BTStrategy.gamma_select(), seed=0)


# -- synthesis ------------------------------------------------------------------------

def test_none_strategy_yields_empty_corpus(tiny_setup):
    task, backward, _, lm = tiny_setup
    assert synthesize_corpus(task.mono, backward, lm, BTStrategy.none(), seed=0) == []


def test_beam_synthesis_on_noiseless_task_recovers_true_sources():
    spec = ToyTaskSpec(
        channel_noise=1e-12, bitext_size=500, mono_size=50, test_size=10, seed=3
    )
    task = generate_toy_task(spec)
    backward = train_channel(task.bitext, "target_to_source", 0.1, out_vocab=task.source_vocab)
    pairs = synthesize_corpus(task.mono, backward, None, BTStrategy.beam(), seed=0)
    assert [p.source for p in pairs] == task.mono_refs.sources()


def test_synthesis_is_deterministic_and_tagged(tiny_setup):
    task, backward, _, lm = tiny_setup
    for strategy, tag in [
        (BTStrategy.sampling(), "sampling"),
        (BTStrategy.gamma_select(num_candidates=10), "gamma-select"),
        (BTStrategy.gamma_sample(num_candidates=10), "gamma-sample"),
    ]:
        first = synthesize_corpus(task.mono, backward, lm, strategy, seed=5)
        second = synthesize_corpus(task.mono, backward, lm, strategy, seed=5)
        assert first == second
        assert len(first) == len(task.mono)
        assert all(p.provenance == tag for p in first)
        assert [p.target for p in first] == list(task.mono.sentences)


def test_data_manipulation_tags_match_plan(tiny_setup):
    task, backward, _, _ = tiny_setup
    from btfactors.manipulate import split_monolingual

    strategy = BTStrategy.data_manipulation(gamma=0.5, split_seed=9)
    pairs = synthesize_corpus(task.mono, backward, None, strategy, seed=4)
    plan = split_monolingual(task.mono, 0.5, 9)
    for i, pair in enumerate(pairs):
        assert pair.provenance == ("beam" if i in set(plan.beam_ids) else "sampling")


def test_gamma_select_zero_gamma_picks_max_normalized_quality(tiny_setup):
    task, backward, _, lm = tiny_setup
    strategy = BTStrategy.gamma_select(gamma=0.0, num_candidates=12)
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
    with pytest.raises(EnumerationTooLargeError):
        jensen_lower_bound(lm, forward, (0, 1, 2), max_len=2)


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
        BTStrategy.beam(),
        BTStrategy.sampling(),
        BTStrategy.gamma_select(num_candidates=10),
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
        ExperimentConfig(task=TINY, strategies=(BTStrategy.beam(),), seeds=())


@pytest.mark.parametrize("lm_order", [2, 3])
def test_diagnostics_never_call_the_scalar_scorers(monkeypatch, tiny_setup, lm_order):
    # the corpus diagnostics score whole corpora in one batched pass
    def scalar(*args, **kwargs):
        raise AssertionError("per-sentence score called")

    task, backward, _, lm = tiny_setup
    synthetic = [SyntheticPair(source=s, target=t, provenance="sampling")
                 for s, t in task.bitext.pairs[:20]]
    monkeypatch.setattr(NGramLM, "score", scalar)
    monkeypatch.setattr(ChannelModel, "score", scalar)
    corpus_quality_report(synthetic, backward, [p.source for p in synthetic])
    corpus_importance_report(synthetic, lm, backward)
    config = ExperimentConfig(
        task=TINY.with_seed(3),
        strategies=(BTStrategy.beam(), BTStrategy.sampling(),
                    BTStrategy.gamma_select(num_candidates=4)),
        seeds=(3,),
        lm_order=lm_order,
    )
    report = run_bt_experiment(config)
    assert all(c.mean_log_importance is not None for c in report.cells if c.synthetic_size)


def test_each_cell_scores_its_pairs_with_one_channel_once(monkeypatch):
    # the quality and importance reports share one backward pass per cell
    calls = []
    batch_score = ChannelModel.batch_score

    def counted(self, outputs, inputs):
        calls.append((id(self), tuple(map(tuple, outputs)), tuple(map(tuple, inputs))))
        return batch_score(self, outputs, inputs)

    monkeypatch.setattr(ChannelModel, "batch_score", counted)
    config = ExperimentConfig(
        task=TINY.with_seed(5),
        strategies=(BTStrategy.beam(), BTStrategy.sampling(),
                    BTStrategy.gamma_select(num_candidates=4)),
        seeds=(5,),
    )
    run_bt_experiment(config)
    # 3 cells with synthetic data: one backward and one truth-channel pass each
    assert len(calls) == 6 and len(set(calls)) == 6


def test_reports_take_precomputed_backward_scores(tiny_setup):
    task, backward, _, lm = tiny_setup
    synthetic = [SyntheticPair(source=s, target=t, provenance="beam")
                 for s, t in task.bitext.pairs[:25]]
    log_q = backward_scores(synthetic, backward)
    refs = [p.source for p in synthetic]
    assert (corpus_quality_report(synthetic, backward, refs, log_q=log_q)
            == corpus_quality_report(synthetic, backward, refs))
    assert (corpus_importance_report(synthetic, lm, backward, log_q=log_q)
            == corpus_importance_report(synthetic, lm, backward))
    with pytest.raises(InconsistencyError):
        corpus_quality_report(synthetic, backward, log_q=log_q[:-1])


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
