"""The back-translation loop and its exact oracles.

``synthesize_corpus`` turns a monolingual corpus into synthetic pairs under
one of the generation strategies; ``train_forward`` retrains the forward
channel on authentic plus synthetic data; ``run_bt_experiment`` sweeps
(strategy, seed) cells over freshly generated toy tasks and reports test
BLEU together with each synthetic corpus's ``corpus_diagnostics`` (quality,
importance and spectrum from one backward pass).  Stochastic strategies draw
each sentence's uniforms from its own stream through ``sentence_uniforms``.
Gamma strategies pick with ``scoring.gamma_picks``.  In a sweep, the Gamma
cells of one candidate count make one candidate-pool pass per seed between
them: each chunk of pools is sampled once, every cell takes its picks from
it, and no pool outlives its chunk.

The oracle functions enumerate every equal-length source exactly:
``exact_marginal`` is the log marginal likelihood of a target under the
source LM (conditioned on the target's length, so the enumerated weights
form a true distribution), ``jensen_lower_bound`` the corresponding
expectation of the forward log-likelihood, and ``importance_mc_estimate``
the importance-sampling Monte-Carlo estimator of that bound with the
backward channel as proposal.  Every sample is one of the enumerated
sources, so the estimator reads each sample's LM and forward log-probs from
the enumeration's scores at the sample's row instead of scoring the samples;
``evaluate_marginal_oracles`` enumerates once for all three quantities.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .analysis import corpus_bleu, corpus_diagnostics
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
from .scoring import DEFAULT_GAMMA, GammaParams, gamma_picks, gamma_rows
from .streams import sentence_uniforms
from .toyseq.decode import (
    batch_lm_scores,
    batch_sample,
    beam_decode,
    candidate_chunks,
    sample_decode,
    token_array,
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
DEFAULT_GAMMA_SPLIT = 0.5
ENUMERATION_GUARD = 10**6
WEAK_BITEXT_FRACTION = 0.1
GAMMA_KINDS = ("gamma-select", "gamma-sample")


# -- strategies ---------------------------------------------------------------

def _integer(name: str, value) -> int:
    # numpy integers pass, floats and numeric strings do not
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


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
        if self.kind in GAMMA_KINDS:
            if (self.num_candidates is None
                    or _integer("num_candidates", self.num_candidates) < 2):
                raise ConfigError(f"strategy {self.kind!r} requires num_candidates >= 2")
        elif self.num_candidates is not None:
            raise ConfigError(f"strategy {self.kind!r} does not take num_candidates")
        if self.split_seed is not None:
            if self.kind != "data-manipulation":
                raise ConfigError(f"strategy {self.kind!r} does not take split_seed")
            if _integer("split_seed", self.split_seed) < 0:
                raise ConfigError(f"split_seed must be non-negative, got {self.split_seed}")
        if self.gamma is not None and not isinstance(self.gamma, numbers.Real):
            raise ConfigError(f"gamma must be a real number, got {self.gamma!r}")
        if self.gamma is not None and not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")

    @property
    def label(self) -> str:
        if self.kind == "data-manipulation":
            return f"data-manipulation(gamma={self.gamma:g})"
        if self.kind in GAMMA_KINDS:
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
    def gamma_select(cls, gamma: float = DEFAULT_GAMMA,
                     num_candidates: int = DEFAULT_NUM_CANDIDATES) -> "BTStrategy":
        return cls(kind="gamma-select", gamma=gamma, num_candidates=num_candidates)

    @classmethod
    def gamma_sample(cls, gamma: float = DEFAULT_GAMMA,
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
    uniforms = sentence_uniforms(seed, ids, [len(y) for y in targets])
    sources = sample_decode(backward, targets, uniforms)
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
                   strategies: Sequence[BTStrategy], seed: int) -> list[list[tuple]]:
    """The Gamma-chosen candidate of each sentence's n-candidate pool, one
    source list per strategy, from one pass over the pools.

    Every strategy must share one ``num_candidates``.  Each chunk of pools
    is sampled once and every strategy takes its picks from it before the
    next chunk is drawn.  Selection takes each row's argmax (lowest index on
    ties); sampling inverts the Gamma CDF at the sentence's next uniform
    after its candidates, the same uniform for every sampling strategy, so
    each strategy picks exactly what it would pick alone.
    """
    sizes = {s.num_candidates for s in strategies}
    if len(sizes) != 1:
        raise InvalidInputError(
            f"one candidate pass needs one num_candidates, got {sorted(sizes)}")
    vocab = token_array(backward.out_vocab)
    sources: list = [[None] * len(mono.sentences) for _ in strategies]
    chunks = candidate_chunks(backward, lm, mono.sentences, sizes.pop(),
                              lambda ids, count: sentence_uniforms(seed, ids, count))
    for ids, next_uniforms, token_idx, log_q, log_lm in chunks:
        rows = np.arange(len(ids))
        probs_by_gamma: dict = {}
        for strategy, chosen in zip(strategies, sources):
            probs = probs_by_gamma.get(strategy.gamma)
            if probs is None:
                probs = gamma_rows(log_q, log_lm, token_idx.shape[2],
                                   GammaParams(gamma=strategy.gamma))
                probs_by_gamma[strategy.gamma] = probs
            picks = gamma_picks(probs, None if strategy.kind == "gamma-select" else next_uniforms)
            for i, row in zip(ids, vocab[token_idx[rows, picks]]):
                chosen[i] = tuple(row)
    return sources


def _tagged(sources, mono: MonoCorpus, kind: str) -> list[SyntheticPair]:
    return [SyntheticPair(x, y, kind) for x, y in zip(sources, mono.sentences)]


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
    if lm is None:
        raise ConfigError(f"strategy {kind!r} needs a source language model")
    [sources] = _gamma_sources(mono, backward, lm, [strategy], seed)
    return _tagged(sources, mono, kind)


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
        labels: set[str] = set()
        for strategy in self.strategies:
            # a label names one report cell
            if strategy.label in labels:
                raise ConfigError(f"duplicate strategy {strategy.label!r}")
            labels.add(strategy.label)
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if _integer("beam_size", self.beam_size) < 1:
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
        return asdict(self)


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

    Gamma cells with equal ``num_candidates`` share one candidate-pool pass
    per seed, made when the first of them runs; each cell's sources equal
    those of ``synthesize_corpus`` with that strategy alone.
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
        gamma_synthetic: dict = {}
        for strategy in strategies:
            try:
                if strategy.kind not in GAMMA_KINDS:
                    generator_model = weak if strategy.kind == "beam-weak" else backward
                    synthetic = synthesize_corpus(
                        task.mono, generator_model, lm, strategy, seed, config.beam_size
                    )
                else:
                    if strategy not in gamma_synthetic:
                        # the first Gamma cell of its candidate count makes
                        # the one pool pass for every cell of that count
                        group = [s for s in strategies if s.kind in GAMMA_KINDS
                                 and s.num_candidates == strategy.num_candidates]
                        passes = _gamma_sources(task.mono, backward, lm, group, seed)
                        for member, sources in zip(group, passes):
                            gamma_synthetic[member] = _tagged(sources, task.mono, member.kind)
                    synthetic = gamma_synthetic.pop(strategy)
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
                    quality, importance, spectrum = corpus_diagnostics(
                        synthetic, backward, lm, references, task.source_vocab
                    )
                    truth_scores = task.truth_channel.batch_score(
                        [p.target for p in synthetic], [p.source for p in synthetic]
                    )
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
    """LM and channel log-probs of every source of length len(y), one entry
    per row of ``_enumeration_indices``."""
    y = tuple(y)
    vocab = lm.content_vocab
    idx = _enumeration_indices(len(vocab), len(y), max_len)
    lm_scores = batch_lm_scores(lm, idx, vocab)
    channel_scores = _scores_given_sources(channel, y, idx, vocab)
    return lm_scores, channel_scores


def _log_marginal(lm_scores: np.ndarray, channel_scores: np.ndarray) -> float:
    return _logsumexp(lm_scores + channel_scores) - _logsumexp(lm_scores)


def _jensen(lm_scores: np.ndarray, channel_scores: np.ndarray) -> float:
    weights = np.exp(lm_scores - _logsumexp(lm_scores))
    return float((weights * channel_scores).sum())


def exact_marginal(lm: NGramLM, channel: ChannelModel, y, max_len: int | None = None) -> float:
    """log sum_x p(x) p(y | x) over every source of length len(y).

    p(x) is the LM conditioned on that length (the enumerated weights are
    normalized), so the Jensen bound below is a true lower bound.
    """
    return _log_marginal(*_enumerate_lm_and_channel(lm, channel, y, max_len))


def jensen_lower_bound(lm: NGramLM, forward_channel: ChannelModel, y,
                       max_len: int | None = None) -> float:
    """sum_x p(x) log p(y | x) over the same length-conditioned enumeration."""
    return _jensen(*_enumerate_lm_and_channel(lm, forward_channel, y, max_len))


def _check_mc_inputs(lm: NGramLM, backward: ChannelModel, num_samples: int) -> None:
    if num_samples < 2:
        raise InvalidInputError("num_samples must be >= 2")
    if backward.alpha <= 0.0:
        raise InvalidInputError("backward model must smooth with alpha > 0 (positive mass)")
    if tuple(backward.out_vocab) != tuple(lm.content_vocab):
        raise InvalidInputError("backward output vocabulary must match the LM vocabulary")


def _mc_moments(lm_scores: np.ndarray, forward_scores: np.ndarray, backward: ChannelModel,
                y, num_samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard error of Imp(x) * log p(y | x) over ``num_samples``
    draws from the backward channel, with each draw's LM and forward
    log-probs read from the enumeration's ``lm_scores`` and
    ``forward_scores`` at the draw's row."""
    y = tuple(y)
    sample_idx, log_proposal = batch_sample(backward, y, num_samples, rng)
    # a source's row in _enumeration_indices: its indices as base-|V| digits
    rows = np.ravel_multi_index(sample_idx.T, (len(backward.out_vocab),) * len(y))
    log_weights = (lm_scores[rows] - _logsumexp(lm_scores)) - log_proposal
    values = np.exp(log_weights) * forward_scores[rows]
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(num_samples))
    return mean, std_error


def importance_mc_estimate(lm: NGramLM, backward: ChannelModel, forward: ChannelModel,
                           y, num_samples: int, rng: np.random.Generator,
                           max_len: int | None = None) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of Imp(x) * log p(y | x) with
    x drawn from the backward channel.

    Unbiased for ``jensen_lower_bound`` because the importance weight uses
    the same length-conditioned LM normalization.  Every sample is one of
    the enumerated sources, so its LM and forward log-probs are looked up
    in the enumeration rather than scored again.
    """
    _check_mc_inputs(lm, backward, num_samples)
    lm_scores, forward_scores = _enumerate_lm_and_channel(lm, forward, y, max_len)
    return _mc_moments(lm_scores, forward_scores, backward, y, num_samples, rng)


def evaluate_marginal_oracles(lm: NGramLM, backward: ChannelModel, forward: ChannelModel,
                              y, num_samples: int, rng: np.random.Generator,
                              max_len: int | None = None) -> OracleResult:
    """All three oracle quantities for one target sentence, from one
    enumeration of its sources."""
    _check_mc_inputs(lm, backward, num_samples)
    lm_scores, forward_scores = _enumerate_lm_and_channel(lm, forward, y, max_len)
    mc_mean, mc_se = _mc_moments(lm_scores, forward_scores, backward, y, num_samples, rng)
    return OracleResult(
        y=tuple(y),
        exact_log_marginal=_log_marginal(lm_scores, forward_scores),
        jensen_bound=_jensen(lm_scores, forward_scores),
        mc_estimate=mc_mean,
        mc_std_error=mc_se,
    )
