"""The back-translation loop and its exact oracles.

``synthesize_corpus`` turns a monolingual corpus into synthetic pairs under
one of the generation strategies; ``train_forward`` retrains the forward
channel on authentic plus synthetic data; ``run_bt_experiment`` sweeps
(strategy, seed) cells over freshly generated toy tasks and reports test
BLEU together with the quality/importance diagnostics of each synthetic
corpus.

The oracle functions enumerate every equal-length source exactly:
``exact_marginal`` is the log marginal likelihood of a target under the
source LM (conditioned on the target's length, so the enumerated weights
form a true distribution), ``jensen_lower_bound`` the corresponding
expectation of the forward log-likelihood, and ``importance_mc_estimate``
the importance-sampling Monte-Carlo estimator of that bound with the
backward channel as proposal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analysis import (
    backward_scores,
    corpus_bleu,
    corpus_importance_report,
    corpus_quality_report,
    sentence_representation_matrix,
    singular_spectrum,
)
from .errors import (
    BtfactorsError,
    ConfigError,
    EnumerationTooLargeError,
    InvalidInputError,
    NumericError,
)
from .manipulate import (
    MonoCorpus,
    SplitPlan,
    SyntheticPair,
    assemble_mixed_corpus,
    split_monolingual,
)
from .scoring import GammaParams, gamma_rows, invert_cdf
from .streams import sentence_stream
from .toyseq.decode import (
    batch_lm_scores,
    batch_sample,
    beam_decode,
    candidate_chunks,
    sample_decode,
)
from .toyseq.models import (
    BOS,
    ChannelModel,
    NGramLM,
    ParallelCorpus,
    train_channel,
    train_ngram_lm,
)
from .toyseq.taskgen import ToyTask, ToyTaskSpec, generate_toy_task

STRATEGY_KINDS = (
    "none",
    "beam",
    "sampling",
    "data-manipulation",
    "gamma-select",
    "gamma-sample",
    "beam-weak",
)

DEFAULT_BEAM_SIZE = 5
DEFAULT_NUM_CANDIDATES = 50
DEFAULT_GAMMA_SCORE = 0.2
DEFAULT_GAMMA_SPLIT = 0.5
ENUMERATION_GUARD = 10**6
WEAK_BITEXT_FRACTION = 0.1


# -- strategies ---------------------------------------------------------------

@dataclass(frozen=True)
class BTStrategy:
    """A synthetic-generation strategy with exactly its required parameters."""

    kind: str
    gamma: float | None = None
    split_seed: int | None = None
    num_candidates: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        needs_gamma = self.kind in ("data-manipulation", "gamma-select", "gamma-sample")
        if needs_gamma and self.gamma is None:
            raise ConfigError(f"strategy {self.kind!r} requires gamma")
        if not needs_gamma and self.gamma is not None:
            raise ConfigError(f"strategy {self.kind!r} does not take gamma")
        if self.kind in ("gamma-select", "gamma-sample"):
            if self.num_candidates is None or self.num_candidates < 2:
                raise ConfigError(f"strategy {self.kind!r} requires num_candidates >= 2")
        elif self.num_candidates is not None:
            raise ConfigError(f"strategy {self.kind!r} does not take num_candidates")
        if self.kind != "data-manipulation" and self.split_seed is not None:
            raise ConfigError(f"strategy {self.kind!r} does not take split_seed")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")

    @property
    def label(self) -> str:
        if self.kind == "data-manipulation":
            return f"data-manipulation(gamma={self.gamma:g})"
        if self.kind in ("gamma-select", "gamma-sample"):
            return f"{self.kind}(gamma={self.gamma:g},n={self.num_candidates})"
        return self.kind

    # convenience constructors
    @classmethod
    def none(cls) -> "BTStrategy":
        return cls(kind="none")

    @classmethod
    def beam(cls) -> "BTStrategy":
        return cls(kind="beam")

    @classmethod
    def beam_weak(cls) -> "BTStrategy":
        return cls(kind="beam-weak")

    @classmethod
    def sampling(cls) -> "BTStrategy":
        return cls(kind="sampling")

    @classmethod
    def data_manipulation(cls, gamma: float = DEFAULT_GAMMA_SPLIT,
                          split_seed: int | None = None) -> "BTStrategy":
        return cls(kind="data-manipulation", gamma=gamma, split_seed=split_seed)

    @classmethod
    def gamma_select(cls, gamma: float = DEFAULT_GAMMA_SCORE,
                     num_candidates: int = DEFAULT_NUM_CANDIDATES) -> "BTStrategy":
        return cls(kind="gamma-select", gamma=gamma, num_candidates=num_candidates)

    @classmethod
    def gamma_sample(cls, gamma: float = DEFAULT_GAMMA_SCORE,
                     num_candidates: int = DEFAULT_NUM_CANDIDATES) -> "BTStrategy":
        return cls(kind="gamma-sample", gamma=gamma, num_candidates=num_candidates)


# -- synthesis ----------------------------------------------------------------

def _beam_pairs(backward: ChannelModel, mono: MonoCorpus, ids,
                beam_size: int) -> list[SyntheticPair]:
    targets = [mono.sentences[i] for i in ids]
    sources = beam_decode(backward, targets, beam_size)
    return [SyntheticPair(x, y, "beam") for x, y in zip(sources, targets)]


def _sampling_pairs(backward: ChannelModel, mono: MonoCorpus, ids,
                    seed: int) -> list[SyntheticPair]:
    targets = [mono.sentences[i] for i in ids]
    sources = sample_decode(backward, targets, [sentence_stream(seed, i) for i in ids])
    return [SyntheticPair(x, y, "sampling") for x, y in zip(sources, targets)]


def synthesize_split(mono: MonoCorpus, backward: ChannelModel, plan: SplitPlan, seed: int,
                     beam_size: int = DEFAULT_BEAM_SIZE) -> list[SyntheticPair]:
    """Data manipulation: beam sources for ``plan.beam_ids``, sampled sources
    (one stream per sentence from ``seed``) for the rest, in corpus order."""
    beam_pairs = dict(zip(plan.beam_ids, _beam_pairs(backward, mono, plan.beam_ids, beam_size)))
    sampling_pairs = dict(zip(plan.sampling_ids,
                              _sampling_pairs(backward, mono, plan.sampling_ids, seed)))
    return list(assemble_mixed_corpus(plan, beam_pairs, sampling_pairs).pairs)


def _gamma_sources(mono: MonoCorpus, backward: ChannelModel, lm: NGramLM,
                   strategy: BTStrategy, seed: int) -> list[tuple]:
    """The Gamma-chosen candidate of each sentence's n-candidate pool.

    Selection takes each row's argmax (lowest index on ties); sampling draws
    one more uniform from the sentence's stream after its candidates.
    """
    params = GammaParams(gamma=strategy.gamma)
    vocab = np.array(backward.out_vocab, dtype=object)
    sources: list = [None] * len(mono.sentences)
    chunks = candidate_chunks(backward, lm, mono.sentences, strategy.num_candidates,
                              lambda i: sentence_stream(seed, i))
    for ids, streams, token_idx, log_q, log_lm in chunks:
        probs = gamma_rows(log_q, log_lm, token_idx.shape[2], params)
        if strategy.kind == "gamma-select":
            picks = probs.argmax(axis=1)
        else:
            picks = invert_cdf(np.cumsum(probs, axis=1),
                               np.array([stream.random() for stream in streams]))
        for i, row in zip(ids, vocab[token_idx[np.arange(len(ids)), picks]]):
            sources[i] = tuple(row)
    return sources


def synthesize_corpus(mono: MonoCorpus, backward: ChannelModel, lm: NGramLM | None,
                      strategy: BTStrategy, seed: int,
                      beam_size: int = DEFAULT_BEAM_SIZE) -> list[SyntheticPair]:
    """One synthetic source per target sentence, tagged with its provenance.

    Stochastic strategies derive one stream per sentence from (seed, index),
    so output is independent of evaluation order.
    """
    kind = strategy.kind
    if kind == "none":
        return []
    if kind in ("beam", "beam-weak"):
        return _beam_pairs(backward, mono, range(len(mono.sentences)), beam_size)
    if kind == "sampling":
        return _sampling_pairs(backward, mono, range(len(mono.sentences)), seed)
    if kind == "data-manipulation":
        split_seed = strategy.split_seed if strategy.split_seed is not None else seed
        plan = split_monolingual(mono, strategy.gamma, split_seed)
        return synthesize_split(mono, backward, plan, seed, beam_size)
    if kind in ("gamma-select", "gamma-sample"):
        if lm is None:
            raise ConfigError(f"strategy {kind!r} needs a source language model")
        sources = _gamma_sources(mono, backward, lm, strategy, seed)
        return [SyntheticPair(x, y, kind) for x, y in zip(sources, mono.sentences)]
    raise ConfigError(f"unknown strategy kind {kind!r}")


def train_forward(bitext: ParallelCorpus | None, synthetic: Sequence[SyntheticPair],
                  alpha: float = 0.1, out_vocab=None) -> ChannelModel:
    """Forward channel trained on authentic plus synthetic pairs.

    Every pair counts exactly once (no upsampling).  ``bitext`` may be None
    for synthetic-only training; the union must be non-empty.
    """
    pairs = list(bitext.pairs) if bitext is not None else []
    pairs.extend((p.source, p.target) for p in synthetic)
    if not pairs:
        raise InvalidInputError("cannot train a forward model on an empty corpus")
    corpus = ParallelCorpus(pairs=tuple(pairs))
    return train_channel(corpus, "source_to_target", alpha, out_vocab=out_vocab)


# -- experiment sweep -----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    task: ToyTaskSpec
    strategies: tuple[BTStrategy, ...]
    seeds: tuple[int, ...]
    beam_size: int = DEFAULT_BEAM_SIZE
    alpha: float = 0.1
    lm_order: int = 2

    def __post_init__(self):
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.beam_size < 1:
            raise ConfigError("beam_size must be >= 1")


@dataclass
class CellReport:
    strategy: str
    seed: int
    test_bleu: float
    synthetic_size: int
    mean_log_q: float | None = None
    mean_log_importance: float | None = None
    synthetic_bleu: float | None = None
    mean_log_truth: float | None = None
    spectral_entropy: float | None = None

    def to_record(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "test_bleu": self.test_bleu,
            "synthetic_size": self.synthetic_size,
            "mean_log_q": self.mean_log_q,
            "mean_log_importance": self.mean_log_importance,
            "synthetic_bleu": self.synthetic_bleu,
            "mean_log_truth": self.mean_log_truth,
            "spectral_entropy": self.spectral_entropy,
        }


@dataclass
class ExperimentReport:
    cells: list[CellReport] = field(default_factory=list)

    def cell(self, strategy_label: str, seed: int) -> CellReport:
        for cell in self.cells:
            if cell.strategy == strategy_label and cell.seed == seed:
                return cell
        raise KeyError(f"no cell for strategy {strategy_label!r} seed {seed}")

    def to_records(self) -> list[dict]:
        return [cell.to_record() for cell in self.cells]

    def render(self) -> str:
        headers = (
            "strategy", "seed", "test_bleu", "synth_bleu",
            "mean_log_q", "mean_log_imp", "entropy",
        )
        rows = [headers]
        for c in self.cells:
            rows.append((
                c.strategy,
                str(c.seed),
                f"{c.test_bleu:.4f}",
                "-" if c.synthetic_bleu is None else f"{c.synthetic_bleu:.4f}",
                "-" if c.mean_log_q is None else f"{c.mean_log_q:.4f}",
                "-" if c.mean_log_importance is None else f"{c.mean_log_importance:.4f}",
                "-" if c.spectral_entropy is None else f"{c.spectral_entropy:.4f}",
            ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
        lines = []
        for idx, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"


def _evaluate_test_bleu(forward: ChannelModel, test: ParallelCorpus, beam_size: int) -> float:
    return corpus_bleu(beam_decode(forward, test.sources(), beam_size), test.targets())


def _weak_backward(task: ToyTask, alpha: float) -> ChannelModel:
    # under-trained variant: fit on the leading tenth of the bitext
    weak_size = max(1, int(len(task.bitext) * WEAK_BITEXT_FRACTION))
    subset = ParallelCorpus(pairs=task.bitext.pairs[:weak_size])
    return train_channel(subset, "target_to_source", alpha, out_vocab=task.source_vocab)


def run_bt_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Sweep every (strategy, seed) cell on freshly generated toy tasks.

    The no-synthetic baseline is always included as the common reference.
    Each cell: train backward model and source LM on bitext, synthesize,
    retrain the forward model on bitext + synthetic, score test BLEU, and
    attach the synthetic corpus diagnostics.  Deterministic per seed.
    """
    strategies = list(config.strategies)
    if not any(s.kind == "none" for s in strategies):
        strategies.insert(0, BTStrategy.none())
    report = ExperimentReport()
    for seed in config.seeds:
        task = generate_toy_task(config.task.with_seed(seed))
        backward = train_channel(
            task.bitext, "target_to_source", config.alpha, out_vocab=task.source_vocab
        )
        lm = train_ngram_lm(
            task.bitext.sources(), config.lm_order, config.alpha, vocab=task.source_vocab
        )
        weak = None
        if any(s.kind == "beam-weak" for s in strategies):
            weak = _weak_backward(task, config.alpha)
        references = task.mono_refs.sources()
        for strategy in strategies:
            try:
                generator_model = weak if strategy.kind == "beam-weak" else backward
                synthetic = synthesize_corpus(
                    task.mono, generator_model, lm, strategy, seed, config.beam_size
                )
                forward = train_forward(
                    task.bitext, synthetic, config.alpha, out_vocab=task.target_vocab
                )
                cell = CellReport(
                    strategy=strategy.label,
                    seed=seed,
                    test_bleu=_evaluate_test_bleu(forward, task.test, config.beam_size),
                    synthetic_size=len(synthetic),
                )
                if synthetic:
                    # diagnostics always use the standard backward model,
                    # even for corpora generated by the weak variant
                    log_q = backward_scores(synthetic, backward)
                    quality = corpus_quality_report(synthetic, backward, references,
                                                    log_q=log_q)
                    importance = corpus_importance_report(synthetic, lm, backward, log_q=log_q)
                    truth_scores = task.truth_channel.batch_score(
                        [p.target for p in synthetic], [p.source for p in synthetic]
                    )
                    matrix = sentence_representation_matrix(
                        [p.source for p in synthetic], task.source_vocab
                    )
                    spectrum = singular_spectrum(matrix)
                    cell.mean_log_q = quality.mean_log_q
                    cell.synthetic_bleu = quality.bleu_vs_reference
                    cell.mean_log_importance = importance.mean_log_importance
                    cell.mean_log_truth = float(np.mean(truth_scores))
                    cell.spectral_entropy = spectrum.normalized_spectral_entropy
                report.cells.append(cell)
            except BtfactorsError as exc:
                raise type(exc)(f"strategy {strategy.label!r} seed {seed}: {exc}") from exc
    return report


# -- exact oracles ---------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    y: tuple
    exact_log_marginal: float
    jensen_bound: float
    mc_estimate: float
    mc_std_error: float

    def __post_init__(self):
        if self.jensen_bound > self.exact_log_marginal + 1e-9:
            raise NumericError(
                f"lower bound {self.jensen_bound} exceeds marginal {self.exact_log_marginal}"
            )


def _logsumexp(values: np.ndarray) -> float:
    peak = float(values.max())
    if not math.isfinite(peak):
        return peak
    return peak + math.log(float(np.exp(values - peak).sum()))


def _enumeration_indices(vocab_size: int, length: int, max_len: int | None) -> np.ndarray:
    if length < 1:
        raise InvalidInputError("sequences must be non-empty")
    if max_len is not None and length > max_len:
        raise EnumerationTooLargeError(f"length {length} exceeds the configured cap {max_len}")
    terms = vocab_size**length
    if terms > ENUMERATION_GUARD:
        raise EnumerationTooLargeError(
            f"enumeration of {terms} sources exceeds the {ENUMERATION_GUARD} guard"
        )
    remaining = np.arange(terms)
    idx = np.empty((terms, length), dtype=np.intp)
    for position in range(length - 1, -1, -1):
        idx[:, position] = remaining % vocab_size
        remaining //= vocab_size
    return idx


def _scores_given_sources(channel: ChannelModel, out_seq, cond_idx: np.ndarray,
                          cond_vocab) -> np.ndarray:
    """log p(out_seq | source) for every index-encoded source row."""
    scores = np.zeros(cond_idx.shape[0])
    prev = BOS
    for position, out_tok in enumerate(out_seq):
        per_cond = np.array([channel.log_prob(out_tok, prev, c) for c in cond_vocab])
        scores += per_cond[cond_idx[:, position]]
        prev = out_tok
    return scores


def _enumerate_lm_and_channel(lm: NGramLM, channel: ChannelModel, y,
                              max_len: int | None) -> tuple[np.ndarray, np.ndarray]:
    y = tuple(y)
    vocab = lm.content_vocab
    idx = _enumeration_indices(len(vocab), len(y), max_len)
    lm_scores = batch_lm_scores(lm, idx, vocab)
    channel_scores = _scores_given_sources(channel, y, idx, vocab)
    return lm_scores, channel_scores


def exact_marginal(lm: NGramLM, channel: ChannelModel, y, max_len: int | None = None) -> float:
    """log sum_x p(x) p(y | x) over every source of length len(y).

    p(x) is the LM conditioned on that length (the enumerated weights are
    normalized), so the Jensen bound below is a true lower bound.
    """
    lm_scores, channel_scores = _enumerate_lm_and_channel(lm, channel, y, max_len)
    return _logsumexp(lm_scores + channel_scores) - _logsumexp(lm_scores)


def jensen_lower_bound(lm: NGramLM, forward_channel: ChannelModel, y,
                       max_len: int | None = None) -> float:
    """sum_x p(x) log p(y | x) over the same length-conditioned enumeration."""
    lm_scores, channel_scores = _enumerate_lm_and_channel(lm, forward_channel, y, max_len)
    weights = np.exp(lm_scores - _logsumexp(lm_scores))
    return float((weights * channel_scores).sum())


def importance_mc_estimate(lm: NGramLM, backward: ChannelModel, forward: ChannelModel,
                           y, num_samples: int, rng: np.random.Generator,
                           max_len: int | None = None) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of Imp(x) * log p(y | x) with
    x drawn from the backward channel.

    Unbiased for ``jensen_lower_bound`` because the importance weight uses
    the same length-conditioned LM normalization.
    """
    if num_samples < 2:
        raise InvalidInputError("num_samples must be >= 2")
    if backward.alpha <= 0.0:
        raise InvalidInputError("backward model must smooth with alpha > 0 (positive mass)")
    y = tuple(y)
    vocab = lm.content_vocab
    if tuple(backward.out_vocab) != tuple(vocab):
        raise InvalidInputError("backward output vocabulary must match the LM vocabulary")
    enum_idx = _enumeration_indices(len(vocab), len(y), max_len)
    log_z = _logsumexp(batch_lm_scores(lm, enum_idx, vocab))
    sample_idx, log_proposal = batch_sample(backward, y, num_samples, rng)
    log_lm = batch_lm_scores(lm, sample_idx, vocab)
    log_weights = (log_lm - log_z) - log_proposal
    forward_ll = _scores_given_sources(forward, y, sample_idx, vocab)
    values = np.exp(log_weights) * forward_ll
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(num_samples))
    return mean, std_error


def evaluate_marginal_oracles(lm: NGramLM, backward: ChannelModel, forward: ChannelModel,
                              y, num_samples: int, rng: np.random.Generator,
                              max_len: int | None = None) -> OracleResult:
    """All three oracle quantities for one target sentence."""
    mc_mean, mc_se = importance_mc_estimate(lm, backward, forward, y, num_samples, rng, max_len)
    return OracleResult(
        y=tuple(y),
        exact_log_marginal=exact_marginal(lm, forward, y, max_len),
        jensen_bound=jensen_lower_bound(lm, forward, y, max_len),
        mc_estimate=mc_mean,
        mc_std_error=mc_se,
    )
