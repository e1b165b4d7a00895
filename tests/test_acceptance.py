"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them inline).
The experiment-level criteria share one 5-seed strategy sweep.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from btfactors.analysis import corpus_bleu, singular_spectrum
from btfactors.btloop import (
    BTStrategy,
    ExperimentConfig,
    exact_marginal,
    importance_mc_estimate,
    jensen_lower_bound,
    run_bt_experiment,
)
from btfactors.cli.main import dispatch, rerun_from_manifest
from btfactors.scoring import (
    Candidate,
    CandidateSet,
    GammaParams,
    gamma_distribution,
    standardize,
)
from btfactors.streams import sentence_stream
from btfactors.toyseq import ToyTaskSpec, generate_toy_task, train_channel, train_ngram_lm
from btfactors.btloop import synthesize_corpus
from btfactors.analysis import corpus_importance_report, corpus_quality_report

SEEDS = (1, 2, 3, 4, 5)

# weak bitext relative to the monolingual corpus keeps the toy sensitive to
# synthetic-data quality; vocabulary, lengths, and noise stay at defaults
ACCEPTANCE_TASK = ToyTaskSpec(bitext_size=300, mono_size=3000, test_size=400)

TINY_ORACLE_TASK = ToyTaskSpec(
    source_vocab_size=4,
    target_vocab_size=4,
    length_range=(2, 4),
    channel_noise=0.2,
    bitext_size=400,
    mono_size=120,
    test_size=60,
    seed=11,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def sweep():
    strategies = (
        BTStrategy("beam"),
        BTStrategy("beam-weak"),
        BTStrategy("sampling"),
        BTStrategy("data-manipulation", 0.5),
        BTStrategy("gamma-select", 0.2, 50),
        BTStrategy("gamma-sample", 0.2, 50),
    )
    config = ExperimentConfig(task=ACCEPTANCE_TASK, strategies=strategies, seeds=SEEDS)
    start = time.monotonic()
    result = run_bt_experiment(config)
    return result, time.monotonic() - start


def random_candidate_sets(rng, count):
    sets = []
    for i in range(count):
        n = int(rng.integers(2, 9))
        kind = i % 4
        if kind == 0:
            lengths = np.full(n, int(rng.integers(1, 7)))  # equal-length sets
        else:
            lengths = rng.integers(1, 7, size=n)
        if kind == 3:
            log_q = np.full(n, -float(rng.exponential(4.0)) - 0.1)  # degenerate duplicates
            log_lm = np.full(n, -float(rng.exponential(4.0)) - 0.1)
        else:
            log_q = -rng.exponential(4.0, size=n) - 0.1
            log_lm = -rng.exponential(4.0, size=n) - 0.1
        cands = tuple(
            Candidate(
                tokens=tuple(range(int(length))),
                length=int(length),
                log_q=float(q),
                log_lm=float(lm),
            )
            for q, lm, length in zip(log_q, log_lm, lengths)
        )
        sets.append(CandidateSet(target_id=i, target_tokens=(0,), candidates=cands))
    return sets


def test_criterion_1_scoring_invariants():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    sets = random_candidate_sets(rng, 10_000)
    ok = True
    for cset in sets:
        gamma = float(rng.uniform())
        probs = np.asarray(gamma_distribution(cset, GammaParams(gamma=gamma)).probs)
        ok &= abs(float(probs.sum()) - 1.0) <= 1e-9
        ok &= bool(np.all(probs > 0.0))

        lengths = [c.length for c in cset.candidates]
        quality = [c.log_q / c.length for c in cset.candidates]
        importance = [(c.log_lm - c.log_q) / c.length for c in cset.candidates]
        p0 = gamma_distribution(cset, GammaParams(gamma=0.0)).probs
        p1 = gamma_distribution(cset, GammaParams(gamma=1.0)).probs
        ok &= int(np.argmax(p0)) == int(np.argmax(np.round(quality, 12)))
        ok &= int(np.argmax(p1)) == int(np.argmax(np.round(importance, 12)))

        std = standardize([c.log_q for c in cset.candidates], lengths)
        if std.sigma > 1e-12:
            values = np.asarray(std.values)
            ok &= abs(float(values.mean())) <= 1e-9
            ok &= abs(float(values.std(ddof=1)) - 1.0) <= 1e-6

        if len(set(lengths)) == 1:  # equal-length shift invariance
            shift = float(rng.uniform(-10.0, 10.0))
            shifted = CandidateSet(
                target_id=cset.target_id,
                target_tokens=cset.target_tokens,
                candidates=tuple(
                    Candidate(c.tokens, c.length, c.log_q + shift, c.log_lm + shift)
                    for c in cset.candidates
                ),
            )
            moved = np.asarray(
                gamma_distribution(shifted, GammaParams(gamma=gamma)).probs
            )
            base = np.asarray(gamma_distribution(cset, GammaParams(gamma=gamma)).probs)
            ok &= bool(np.abs(moved - base).max() <= 1e-9)
        if not ok:
            break
    elapsed = time.monotonic() - start
    report("1 scoring-invariants", ok and elapsed < 10.0,
           f"{len(sets)} sets in {elapsed:.1f}s")


def test_criterion_2_oracle_suite():
    start = time.monotonic()
    task = generate_toy_task(TINY_ORACLE_TASK)
    backward = train_channel(task.bitext, "target_to_source", 0.1, out_vocab=task.source_vocab)
    forward = train_channel(task.bitext, "source_to_target", 0.1, out_vocab=task.target_vocab)
    lm = train_ngram_lm(task.bitext.sources(), 2, 0.1, vocab=task.source_vocab)
    targets = task.mono.sentences[:100]
    assert len(targets) == 100
    bound_ok = True
    mc_ok = True
    for i, y in enumerate(targets):
        exact = exact_marginal(lm, forward, y)
        bound = jensen_lower_bound(lm, forward, y)
        bound_ok &= bound <= exact + 1e-9
        within = False
        for retry in range(3):  # the criterion allows two fresh-seed retries
            mean, se = importance_mc_estimate(
                lm, backward, forward, y, 10**5, sentence_stream(7000 + retry, i)
            )
            if abs(mean - bound) <= 3.0 * se:
                within = True
                break
        mc_ok &= within
    elapsed = time.monotonic() - start
    report("2 oracle-suite", bound_ok and mc_ok and elapsed < 120.0,
           f"100 targets in {elapsed:.1f}s")


def test_criterion_3_two_factor_ordering():
    start = time.monotonic()
    quality_wins = 0
    importance_wins = 0
    for seed in SEEDS:
        task = generate_toy_task(ACCEPTANCE_TASK.with_seed(seed))
        backward = train_channel(task.bitext, "target_to_source", 0.1,
                                 out_vocab=task.source_vocab)
        lm = train_ngram_lm(task.bitext.sources(), 2, 0.1, vocab=task.source_vocab)
        beam = synthesize_corpus(task.mono, backward, lm, BTStrategy("beam"), seed)
        sampling = synthesize_corpus(task.mono, backward, lm, BTStrategy("sampling"), seed)
        q_beam = corpus_quality_report(beam, backward).mean_log_q
        q_samp = corpus_quality_report(sampling, backward).mean_log_q
        i_beam = corpus_importance_report(beam, lm, backward).mean_log_importance
        i_samp = corpus_importance_report(sampling, lm, backward).mean_log_importance
        quality_wins += q_beam > q_samp
        importance_wins += i_samp > i_beam
    elapsed = time.monotonic() - start
    report(
        "3 two-factor-ordering",
        quality_wins >= 4 and importance_wins >= 4 and elapsed < 120.0,
        f"quality {quality_wins}/5, importance {importance_wins}/5 in {elapsed:.1f}s",
    )


def test_criterion_4_weak_backward_pattern(sweep):
    result, _ = sweep
    wins = sum(
        result.cell("beam-weak", seed).test_bleu <= result.cell("beam", seed).test_bleu
        for seed in SEEDS
    )
    report("4 weak-backward", wins >= 4, f"beam-weak <= beam on {wins}/5 seeds")


def test_criterion_5_method_ordering(sweep):
    result, elapsed = sweep
    gamma_wins = 0
    dm_wins = 0
    for seed in SEEDS:
        beam = result.cell("beam", seed).test_bleu
        sampling = result.cell("sampling", seed).test_bleu
        best_gamma = max(
            result.cell("gamma-select(gamma=0.2,n=50)", seed).test_bleu,
            result.cell("gamma-sample(gamma=0.2,n=50)", seed).test_bleu,
        )
        dm = result.cell("data-manipulation(gamma=0.5)", seed).test_bleu
        gamma_wins += best_gamma >= max(beam, sampling) - 0.5
        dm_wins += dm >= min(beam, sampling) - 0.5
    report(
        "5 method-ordering",
        gamma_wins >= 4 and dm_wins >= 4 and elapsed < 600.0,
        f"gamma {gamma_wins}/5, dm {dm_wins}/5, sweep {elapsed:.0f}s",
    )


def test_criterion_6_bleu_units():
    identity = corpus_bleu([(1, 2, 3), (4, 5)], [(1, 2, 3), (4, 5)])
    disjoint = corpus_bleu([("x", "y", "z")], [("a", "b", "c")])
    golden = corpus_bleu(
        [tuple("the cat sat".split())], [tuple("the cat sat down".split())]
    )
    ok = (
        identity == 100.0
        and disjoint == 0.0
        and abs(golden - 71.65313105737893) <= 1e-4
    )
    report("6 bleu-units", ok, f"identity={identity}, zero={disjoint}, golden={golden:.6f}")


def test_criterion_7_spectrum(sweep):
    rng = np.random.default_rng(99)
    identity_vals = singular_spectrum(np.eye(3)).singular_values
    diag_vals = singular_spectrum(np.diag([3.0, 2.0, 1.0])).singular_values
    rank_one = singular_spectrum(np.outer([1.0, 2.0], [3.0, 4.0, 5.0])).singular_values
    exact_ok = (
        identity_vals == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
        and diag_vals == pytest.approx([3.0, 2.0, 1.0], abs=1e-9)
        and sum(v > 1e-9 for v in rank_one) == 1
    )
    frob_ok = True
    for _ in range(5):
        matrix = rng.normal(size=(50, 50))
        spectrum = singular_spectrum(matrix)
        frob_ok &= math.isclose(
            sum(v**2 for v in spectrum.singular_values),
            float((matrix**2).sum()),
            rel_tol=1e-6,
        )
    result, _ = sweep
    entropy_wins = sum(
        result.cell("sampling", seed).spectral_entropy
        >= result.cell("beam", seed).spectral_entropy
        for seed in SEEDS
    )
    report(
        "7 spectrum",
        exact_ok and frob_ok and entropy_wins >= 4,
        f"exact={exact_ok}, frobenius={frob_ok}, entropy {entropy_wins}/5",
    )


def _snapshot(root: Path) -> dict:
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_8_cli_reproducibility(tmp_path):
    task_dir = tmp_path / "task"
    models = tmp_path / "models"
    models.mkdir()
    toy_args = ["--source-vocab", "6", "--target-vocab", "6", "--min-len", "3",
                "--max-len", "6", "--bitext", "80", "--mono", "40", "--test", "20"]
    config = tmp_path / "exp.cfg"
    config.write_text(
        "seeds = 1\nstrategies = beam sampling\nbitext = 60\nmono = 60\ntest = 30\n"
        "min_len = 3\nmax_len = 5\nsource_vocab = 6\ntarget_vocab = 6\n"
    )

    bitext = str(task_dir / "bitext.tsv")
    mono = str(task_dir / "mono.txt")
    backward = str(models / "backward.txt")
    lm = str(models / "lm.txt")
    commands = [
        ["toygen", "--seed", "5", "--out", str(task_dir), *toy_args],
        ["train", "--kind", "backward", "--bitext", bitext, "--out", backward],
        ["train", "--kind", "lm", "--bitext", bitext, "--out", lm],
        ["train", "--kind", "forward", "--bitext", bitext, "--out", str(models / "fwd.txt")],
        ["backtranslate", "--mono", mono, "--backward", backward, "--strategy",
         "gamma-select", "--lm", lm, "--num-candidates", "8", "--seed", "3",
         "--out", str(tmp_path / "bt.tsv")],
        ["manipulate", "--mono", mono, "--backward", backward, "--gamma", "0.5",
         "--seed", "7", "--out", str(tmp_path / "dm")],
        ["score", "--mono", mono, "--backward", backward, "--lm", lm,
         "--num-candidates", "8", "--seed", "11", "--out", str(tmp_path / "scores.txt"),
         "--dump-candidates", str(tmp_path / "cands.txt")],
        ["select", "--candidates", str(tmp_path / "cands.txt"), "--mode", "sample",
         "--seed", "2", "--out", str(tmp_path / "sel.tsv")],
        ["analyze", "--synthetic", str(tmp_path / "bt.tsv"), "--backward", backward,
         "--lm", lm, "--spectrum", "--out", str(tmp_path / "analysis")],
        ["oracle", "--task", "tiny", "--seed", "3", "--num-targets", "4",
         "--samples", "300", "--out", str(tmp_path / "oracle")],
        ["bt-experiment", "--config", str(config), "--out", str(tmp_path / "exp")],
    ]
    manifests = []
    for argv in commands:
        assert dispatch(argv) == 0, argv
        out = Path(argv[argv.index("--out") + 1])
        manifest = out / "manifest.json" if out.is_dir() else Path(str(out) + ".manifest.json")
        manifests.append(manifest)

    before = _snapshot(tmp_path)
    for manifest in manifests:  # re-drive every command from its manifest
        assert rerun_from_manifest(manifest) == 0
    after = _snapshot(tmp_path)
    identical = before == after
    report("8 cli-reproducibility", identical,
           f"{len(commands)} commands re-run from manifests, {len(before)} files compared")
