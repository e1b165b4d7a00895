"""The back-translation loop and its exact oracles.

``STRATEGIES`` is the one table of generation strategies that ``BTStrategy``,
the config parser and the CLI read: each kind's parameters, each with the
config key that sets it, and its ``stochastic`` and ``needs_lm`` flags.  A
Gamma kind is one that takes ``num_candidates``.  ``DOMAINS`` bounds them,
and the ``ExperimentConfig`` seeds and ``EXPERIMENT_KEYS`` fields.

``synthesize_corpus`` turns a monolingual corpus into synthetic pairs under
one of the generation strategies; ``train_forward`` retrains the forward
channel on authentic plus synthetic data; ``run_bt_experiment`` sweeps
(strategy, seed) cells over freshly generated toy tasks and reports test
BLEU together with each synthetic corpus's ``corpus_diagnostics`` (quality,
importance and spectrum from one backward pass).  Stochastic strategies draw
each sentence's uniforms from its own stream through ``sentence_uniforms``.
``run_bt_experiment`` codes each corpus of a seed's task once
(``tokenio.encode``); ``synthesize_corpus`` then hands out each synthetic
corpus coded by its decoder, and training, scoring, BLEU and the
diagnostics read those codes, so no decoder output is coded token by token.
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
sources, so the estimator computes each source's importance-weighted value
once, from the enumeration's LM, forward and backward log-probs, and draws
the samples as enumeration rows, ``_MC_BLOCK`` at a time through
``_ancestral``; only the uniforms and the values span all the samples.
``evaluate_marginal_oracles`` enumerates once for all three quantities.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analysis import corpus_bleu, corpus_diagnostics
from .errors import (
    BtfactorsError,
    ConfigError,
    EnumerationTooLargeError,
    InvalidInputError,
    NumericError,
    check_integer,
)
from .manipulate import (
    MonoCorpus,
    SplitPlan,
    SyntheticPair,
    split_monolingual,
)
from .scoring import GammaParams, gamma_picks, gamma_rows
from .streams import sentence_uniforms
from .tokenio import CodedCorpus, encode
from .toyseq.decode import (
    _ancestral,
    _stacked_conditionals,
    batch_lm_scores,
    beam_decode,
    candidate_chunks,
    sample_decode,
)
from .toyseq.models import (
    BOS,
    DEFAULT_ALPHA,
    DEFAULT_LM_ORDER,
    ChannelModel,
    NGramLM,
    ParallelCorpus,
    coded_pairs,
    train_channel,
    train_ngram_lm,
)
from .toyseq.taskgen import ToyTaskSpec, generate_toy_task

DEFAULT_BEAM_SIZE = 5
DEFAULT_NUM_CANDIDATES = 50
DEFAULT_GAMMA_SPLIT = 0.5
ENUMERATION_GUARD = 10**6
# Monte-Carlo samples drawn at a time; bounds the oracle's per-sample working set
_MC_BLOCK = 8192
WEAK_BITEXT_FRACTION = 0.1


# -- strategies ---------------------------------------------------------------

class StrategySpec(NamedTuple):
    """What one strategy kind takes and needs."""

    params: dict[str, str]  # each required parameter -> the config key that sets it
    stochastic: bool        # draws random numbers, so the CLI requires --seed
    needs_lm: bool          # picks by Gamma score, which reads the source LM


_GAMMA_PARAMS = {"gamma": "gamma_score", "num_candidates": "num_candidates"}
STRATEGIES = {
    "none": StrategySpec({}, stochastic=False, needs_lm=False),
    "beam": StrategySpec({}, stochastic=False, needs_lm=False),
    "beam-weak": StrategySpec({}, stochastic=False, needs_lm=False),
    "sampling": StrategySpec({}, stochastic=True, needs_lm=False),
    "data-manipulation": StrategySpec({"gamma": "gamma_dm"}, stochastic=True, needs_lm=False),
    "gamma-select": StrategySpec(_GAMMA_PARAMS, stochastic=True, needs_lm=True),
    "gamma-sample": StrategySpec(_GAMMA_PARAMS, stochastic=True, needs_lm=True),
}


class Domain(NamedTuple):
    """The values one numeric parameter takes."""

    type: type                      # int or float
    text: str                       # the range as error messages state it
    holds: Callable[[float], bool]


DOMAINS = {
    "gamma": Domain(float, "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "num_candidates": Domain(int, ">= 2", lambda v: v >= 2),
    "beam_size": Domain(int, ">= 1", lambda v: v >= 1),
    "seed": Domain(int, ">= 0", lambda v: v >= 0),
    "alpha": Domain(float, "finite and non-negative", lambda v: 0.0 <= v < math.inf),
    "lm_order": Domain(int, ">= 1", lambda v: v >= 1),
}
# the ExperimentConfig fields that a config sets by key, each bounded in DOMAINS
EXPERIMENT_KEYS = ("beam_size", "alpha", "lm_order")
# each strategy parameter, as a label shows it
_LABELS = {"gamma": "gamma={:g}", "num_candidates": "n={}"}


def check_parameter(name: str, value, label: str | None = None, shown: str | None = None):
    """ConfigError unless ``value`` has the type and range of parameter
    ``name``; the message calls it ``label`` and its value ``shown``."""
    label = name if label is None else label
    domain = DOMAINS[name]
    if domain.type is int:
        try:
            # numpy integers pass, floats and numeric strings do not
            value = operator.index(value)
        except TypeError:
            raise ConfigError(f"{label} must be an integer, got {value!r}") from None
    elif not isinstance(value, numbers.Real):
        raise ConfigError(f"{label} must be a real number, got {value!r}")
    if not domain.holds(value):
        raise ConfigError(
            f"{label} must be {domain.text}, got {value if shown is None else shown}")


@dataclass(frozen=True)
class BTStrategy:
    """A synthetic-generation strategy with exactly the parameters that
    ``STRATEGIES`` lists for its kind."""

    kind: str
    gamma: float | None = None
    num_candidates: int | None = None

    def __post_init__(self):
        spec = STRATEGIES.get(self.kind)
        if spec is None:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        for name in _LABELS:
            value = getattr(self, name)
            if name not in spec.params:
                if value is not None:
                    raise ConfigError(f"strategy {self.kind!r} does not take {name}")
            elif value is None:
                raise ConfigError(f"strategy {self.kind!r} requires {name}")
            else:
                check_parameter(name, value)

    @property
    def label(self) -> str:
        params = STRATEGIES[self.kind].params
        if not params:
            return self.kind
        shown = ",".join(_LABELS[name].format(getattr(self, name)) for name in params)
        return f"{self.kind}({shown})"


# -- synthesis ----------------------------------------------------------------

def _split_sources(mono: CodedCorpus, backward: ChannelModel, plan: SplitPlan, seed: int,
                   beam_size: int) -> CodedCorpus:
    """Data manipulation on the coded ``mono``: beam sources for
    ``plan.beam_ids``, sampled sources (one stream per sentence from
    ``seed``) for the rest, coded, in corpus order."""
    beam = beam_decode(backward, mono.take(plan.beam_ids), beam_size)
    ids = plan.sampling_ids
    uniforms = sentence_uniforms(seed, ids, mono.lengths[list(ids)].tolist())
    sampled = sample_decode(backward, mono.take(ids), uniforms)
    # the beam half, then the sampling half, back in corpus order
    return CodedCorpus.concat([beam, sampled]).take(np.argsort(plan.beam_ids + ids))


def synthesize_split(mono: MonoCorpus, backward: ChannelModel, plan: SplitPlan, seed: int,
                     beam_size: int = DEFAULT_BEAM_SIZE) -> list[SyntheticPair]:
    """Data manipulation: beam sources for ``plan.beam_ids``, sampled sources
    (one stream per sentence from ``seed``) for the rest, in corpus order,
    tagged ``beam`` or ``sampling``."""
    sources = _split_sources(encode(mono.sentences), backward, plan, seed, beam_size)
    beam = set(plan.beam_ids)
    return [SyntheticPair(x, y, "beam" if i in beam else "sampling")
            for i, (x, y) in enumerate(zip(sources, mono.sentences))]


def _gamma_sources(mono: CodedCorpus, backward: ChannelModel, lm: NGramLM,
                   strategies: Sequence[BTStrategy], seed: int) -> list[CodedCorpus]:
    """The Gamma-chosen candidate of each sentence's n-candidate pool, one
    coded source corpus per strategy, from one pass over the pools of the
    coded ``mono``.

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
    picked = [np.empty(len(mono.codes), dtype=np.int64) for _ in strategies]
    starts = mono.starts
    chunks = candidate_chunks(backward, lm, mono, sizes.pop(),
                              lambda ids, count: sentence_uniforms(seed, ids, count))
    for ids, next_uniforms, token_idx, log_q, log_lm in chunks:
        rows = np.arange(len(ids))
        at = np.add.outer(starts[ids], np.arange(token_idx.shape[2]))
        probs_by_gamma: dict = {}
        for strategy, chosen in zip(strategies, picked):
            probs = probs_by_gamma.get(strategy.gamma)
            if probs is None:
                probs = gamma_rows(log_q, log_lm, token_idx.shape[2],
                                   GammaParams(gamma=strategy.gamma))
                probs_by_gamma[strategy.gamma] = probs
            picks = gamma_picks(probs, None if strategy.kind == "gamma-select" else next_uniforms)
            chosen[at] = token_idx[rows, picks]
    return [CodedCorpus.from_indices(backward.out_vocab, chosen, mono.lengths)
            for chosen in picked]


def _coded_sources(mono: CodedCorpus, backward: ChannelModel, lm: NGramLM | None,
                   strategy: BTStrategy, seed: int, beam_size: int) -> CodedCorpus:
    """The coded synthetic sources of the coded ``mono`` under ``strategy``;
    empty for ``none``."""
    kind = strategy.kind
    if kind == "none":
        return mono.take(())
    if kind in ("beam", "beam-weak"):
        return beam_decode(backward, mono, beam_size)
    if kind == "sampling":
        ids = range(len(mono))
        return sample_decode(backward, mono,
                             sentence_uniforms(seed, ids, mono.lengths.tolist()))
    if kind == "data-manipulation":
        plan = split_monolingual(mono, strategy.gamma, seed)
        return _split_sources(mono, backward, plan, seed, beam_size)
    [sources] = _gamma_sources(mono, backward, lm, [strategy], seed)
    return sources


# each strategy kind's provenance tag, where it is not the kind itself
_PROVENANCE = {"beam-weak": "beam"}


def synthesize_corpus(mono, backward: ChannelModel, lm: NGramLM | None,
                      strategy: BTStrategy, seed: int, beam_size: int = DEFAULT_BEAM_SIZE):
    """One synthetic source per target sentence.

    ``mono`` is a ``MonoCorpus``, which gives a list of ``SyntheticPair``
    tagged with their provenance, or its sentences coded
    (``tokenio.CodedCorpus``), which gives the coded (sources, targets) pair,
    both empty for ``none``.  Stochastic strategies derive one stream per
    sentence from (seed, index), so output is independent of evaluation
    order.
    """
    kind = strategy.kind
    if STRATEGIES[kind].needs_lm and lm is None:
        raise ConfigError(f"strategy {kind!r} needs a source language model")
    if isinstance(mono, CodedCorpus):
        sources = _coded_sources(mono, backward, lm, strategy, seed, beam_size)
        return sources, (mono if len(sources) else sources)
    if kind == "data-manipulation":
        plan = split_monolingual(mono, strategy.gamma, seed)
        return synthesize_split(mono, backward, plan, seed, beam_size)
    sources = _coded_sources(encode(mono.sentences), backward, lm, strategy, seed, beam_size)
    return [SyntheticPair(x, y, _PROVENANCE.get(kind, kind))
            for x, y in zip(sources, mono.sentences)]


def train_forward(bitext: ParallelCorpus | None, synthetic: Sequence[SyntheticPair],
                  alpha: float = DEFAULT_ALPHA, out_vocab=None) -> ChannelModel:
    """Forward channel trained on authentic plus synthetic pairs.

    Every pair counts exactly once (no upsampling).  ``bitext`` may be None
    for synthetic-only training; the union must be non-empty.  Either
    corpus may be given coded as its (sources, targets) pair.
    """
    parts = [coded_pairs(corpus) for corpus in (bitext, synthetic) if corpus is not None]
    sources = CodedCorpus.concat([src for src, _ in parts])
    if not len(sources):
        raise InvalidInputError("cannot train a forward model on an empty corpus")
    targets = CodedCorpus.concat([tgt for _, tgt in parts])
    return train_channel((sources, targets), "source_to_target", alpha, out_vocab=out_vocab)


# -- experiment sweep -----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    task: ToyTaskSpec
    strategies: tuple[BTStrategy, ...]
    seeds: tuple[int, ...]
    beam_size: int = DEFAULT_BEAM_SIZE
    alpha: float = DEFAULT_ALPHA
    lm_order: int = DEFAULT_LM_ORDER

    def __post_init__(self):
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        # a (strategy label, seed) pair names one report cell
        for what, items in (("strategy", [s.label for s in self.strategies]),
                            ("seed", self.seeds)):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ConfigError(f"duplicate {what} {item!r}")
        for seed in self.seeds:
            check_parameter("seed", seed)
        for name in EXPERIMENT_KEYS:
            check_parameter(name, getattr(self, name))


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


def _evaluate_test_bleu(forward: ChannelModel, test, beam_size: int) -> float:
    sources, targets = coded_pairs(test)
    return corpus_bleu(beam_decode(forward, sources, beam_size), targets)


def _weak_backward(bitext: tuple[CodedCorpus, CodedCorpus], alpha: float,
                   vocab) -> ChannelModel:
    # under-trained variant: fit on the leading tenth of the coded bitext
    sources, targets = bitext
    weak = range(max(1, int(len(sources) * WEAK_BITEXT_FRACTION)))
    return train_channel((sources.take(weak), targets.take(weak)), "target_to_source", alpha,
                         out_vocab=vocab)


def run_bt_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Sweep every (strategy, seed) cell on freshly generated toy tasks.

    The no-synthetic baseline is always included as the common reference.
    Each cell: train backward model and source LM on bitext, synthesize,
    retrain the forward model on bitext + synthetic, score test BLEU, and
    attach the synthetic corpus diagnostics.  Deterministic per seed.

    Gamma cells with equal ``num_candidates`` share one candidate-pool pass
    per seed, made when the first of them runs; each cell's sources equal
    those of ``synthesize_corpus`` with that strategy alone.  Each corpus of
    the task is coded once per seed, and each synthetic corpus comes coded
    from its decoder.
    """
    strategies = list(config.strategies)
    if not any(s.kind == "none" for s in strategies):
        strategies.insert(0, BTStrategy("none"))
    report = ExperimentReport()
    for seed in config.seeds:
        task = generate_toy_task(config.task.with_seed(seed))
        bitext, test = coded_pairs(task.bitext), coded_pairs(task.test)
        mono = encode(task.mono.sentences)
        references = encode(task.mono_refs.sources())
        backward = train_channel(
            bitext, "target_to_source", config.alpha, out_vocab=task.source_vocab
        )
        lm = train_ngram_lm(bitext[0], config.lm_order, config.alpha, vocab=task.source_vocab)
        weak = None
        if any(s.kind == "beam-weak" for s in strategies):
            weak = _weak_backward(bitext, config.alpha, task.source_vocab)
        gamma_synthetic: dict = {}
        for strategy in strategies:
            try:
                if strategy.num_candidates is None:
                    generator_model = weak if strategy.kind == "beam-weak" else backward
                    synthetic = synthesize_corpus(
                        mono, generator_model, lm, strategy, seed, config.beam_size
                    )
                else:
                    if strategy not in gamma_synthetic:
                        # the first Gamma cell of its candidate count makes
                        # the one pool pass for every cell of that count
                        group = [s for s in strategies
                                 if s.num_candidates == strategy.num_candidates]
                        passes = _gamma_sources(mono, backward, lm, group, seed)
                        for member, sources in zip(group, passes):
                            gamma_synthetic[member] = (sources, mono)
                    synthetic = gamma_synthetic.pop(strategy)
                sources, targets = synthetic
                forward = train_forward(
                    bitext, synthetic, config.alpha, out_vocab=task.target_vocab
                )
                cell = CellReport(
                    strategy=strategy.label,
                    seed=seed,
                    test_bleu=_evaluate_test_bleu(forward, test, config.beam_size),
                    synthetic_size=len(sources),
                )
                if len(sources):
                    # diagnostics always use the standard backward model,
                    # even for corpora generated by the weak variant
                    quality, importance, spectrum = corpus_diagnostics(
                        synthetic, backward, lm, references, task.source_vocab
                    )
                    truth_scores = task.truth_channel.batch_score(targets, sources)
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
    """log p(out_seq | source) for every source row of indices into
    ``cond_vocab``, bit for bit as ``channel.batch_score``: position t
    gathers column out_seq[t] of the log rows of the (out_seq[t-1] or BOS,
    c) keys, all read in one ``rows`` lookup, and an out-of-vocabulary
    output takes each condition's ``_oov_term``.  Not ``batch_score``
    itself: its (rows x positions) keys would take hundreds of MB at
    ``ENUMERATION_GUARD``."""
    out_seq = tuple(out_seq)
    prevs = (BOS, *out_seq)[: len(out_seq)]
    logs = channel.rows([(prev, c) for prev in prevs for c in cond_vocab])[1]
    logs = logs.reshape(len(out_seq), len(cond_vocab), len(channel.out_vocab))
    scores = np.zeros(cond_idx.shape[0])
    for position, (prev, out_tok) in enumerate(zip(prevs, out_seq)):
        col = channel.out_index(out_tok)
        if col is None:
            per_cond = np.array([channel._oov_term((prev, c)) for c in cond_vocab])
        else:
            per_cond = logs[position, :, col]
        scores += per_cond[cond_idx[:, position]]
    return scores


def _enumerate_lm_and_channel(lm: NGramLM, channel: ChannelModel, y,
                              max_len: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (|V|^L, L) index matrix of every source of length L = len(y), with
    the LM and channel log-probs of each of its rows."""
    y = tuple(y)
    vocab = lm.content_vocab
    idx = _enumeration_indices(len(vocab), len(y), max_len)
    lm_scores = batch_lm_scores(lm, idx, vocab)
    channel_scores = _scores_given_sources(channel, y, idx, vocab)
    return idx, lm_scores, channel_scores


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
    _, lm_scores, channel_scores = _enumerate_lm_and_channel(lm, channel, y, max_len)
    return _log_marginal(lm_scores, channel_scores)


def jensen_lower_bound(lm: NGramLM, forward_channel: ChannelModel, y,
                       max_len: int | None = None) -> float:
    """sum_x p(x) log p(y | x) over the same length-conditioned enumeration."""
    _, lm_scores, channel_scores = _enumerate_lm_and_channel(lm, forward_channel, y, max_len)
    return _jensen(lm_scores, channel_scores)


def _check_mc_inputs(lm: NGramLM, backward: ChannelModel, num_samples: int) -> int:
    """``num_samples`` as an int, once the estimator's inputs are checked."""
    num_samples = check_integer("num_samples", num_samples, 2)
    if backward.alpha <= 0.0:
        raise InvalidInputError("backward model must smooth with alpha > 0 (positive mass)")
    if tuple(backward.out_vocab) != tuple(lm.content_vocab):
        raise InvalidInputError("backward output vocabulary must match the LM vocabulary")
    return num_samples


def _mc_moments(idx: np.ndarray, lm_scores: np.ndarray, forward_scores: np.ndarray,
                backward: ChannelModel, y, num_samples: int,
                rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard error of Imp(x) * log p(y | x) over ``num_samples``
    draws from the backward channel.

    Each value is computed once per row of ``idx``, with the row's backward
    log-prob summed from 0.0 position by position as ``_ancestral`` sums a
    sample's, from the same ``_stacked_conditionals`` tables, so a sample
    drawn as that row gets the same bits.  The draws are made ``_MC_BLOCK``
    at a time, without log-probs, from one (L, n) uniform draw, the numbers
    of L successive ``rng.random(n)`` calls.
    """
    y = tuple(y)
    table, logs, cond_rows = _stacked_conditionals(backward, encode([y]))
    blocks = cond_rows([0], len(y))[0].tolist()     # position t's matrix in the stack
    log_q = np.zeros(len(idx))
    state = np.zeros(len(idx), dtype=np.intp)       # previous output; 0 is BOS
    for block, column in zip(blocks, idx.T):
        log_q += logs[block][state, column]
        state = column + 1
    by_row = np.exp((lm_scores - _logsumexp(lm_scores)) - log_q) * forward_scores
    bases = [block * logs.shape[1] for block in blocks]
    # a source's row in _enumeration_indices: its indices as base-|V| digits
    dims = (len(backward.out_vocab),) * len(y)
    uniforms = rng.random((len(y), num_samples))
    values = np.empty(num_samples)
    for start in range(0, num_samples, _MC_BLOCK):
        draws = uniforms[:, start : start + _MC_BLOCK]
        count = draws.shape[1]
        steps = ((table, None, base, row) for base, row in zip(bases, draws))
        token_idx, _ = _ancestral(steps, count, len(y))
        values[start : start + count] = by_row[np.ravel_multi_index(token_idx.T, dims)]
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
    the enumerated sources, so the samples are drawn as enumeration rows, a
    block at a time, and each takes its row's value, computed once per
    source; no sample is scored on its own.  The generator is consumed as by
    ``len(y)`` calls of ``rng.random(num_samples)``, the numbers
    ``batch_sample`` would draw.
    """
    num_samples = _check_mc_inputs(lm, backward, num_samples)
    idx, lm_scores, forward_scores = _enumerate_lm_and_channel(lm, forward, y, max_len)
    return _mc_moments(idx, lm_scores, forward_scores, backward, y, num_samples, rng)


def evaluate_marginal_oracles(lm: NGramLM, backward: ChannelModel, forward: ChannelModel,
                              y, num_samples: int, rng: np.random.Generator,
                              max_len: int | None = None) -> OracleResult:
    """All three oracle quantities for one target sentence, from one
    enumeration of its sources; the Monte-Carlo draws are rows of that
    enumeration, as in ``importance_mc_estimate``."""
    num_samples = _check_mc_inputs(lm, backward, num_samples)
    idx, lm_scores, forward_scores = _enumerate_lm_and_channel(lm, forward, y, max_len)
    mc_mean, mc_se = _mc_moments(idx, lm_scores, forward_scores, backward, y, num_samples, rng)
    return OracleResult(
        y=tuple(y),
        exact_log_marginal=_log_marginal(lm_scores, forward_scores),
        jensen_bound=_jensen(lm_scores, forward_scores),
        mc_estimate=mc_mean,
        mc_std_error=mc_se,
    )
