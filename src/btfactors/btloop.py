"""The back-translation loop and its exact oracles.

``STRATEGIES`` is the one table of generation strategies that ``BTStrategy``,
the config parser and the CLI read: each kind's parameters (each with its
config key, default and name in a label), ``stochastic`` and ``needs_lm``
flags and provenance tag.  A Gamma kind is one that takes ``num_candidates``.
``DOMAINS`` bounds the parameters, and the ``ExperimentConfig`` seeds and
``EXPERIMENT_KEYS`` fields.  A label shows a value by ``:g`` where that reads
back exactly, else by its ``repr``, so distinct strategies get distinct labels.

``synthesize_corpus`` is the one strategy dispatch: it turns a monolingual
corpus into synthetic pairs under one of the generation strategies, for the
sweep, ``backtranslate`` and ``manipulate`` alike (the sweep's Gamma cells
share its candidate pass, below).  ``train_forward`` retrains the forward
channel on authentic plus synthetic data; ``run_bt_experiment`` sweeps
(strategy, seed) cells over freshly generated toy tasks and reports test
BLEU together with each synthetic corpus's ``corpus_diagnostics`` (quality,
importance and spectrum from one backward pass).  Stochastic strategies draw
each sentence's uniforms from its own stream through ``sentence_uniforms``.
``run_bt_experiment`` maps ``_seed_cells``, a function of (config, seed)
that keeps no state between seeds, over the config's seeds.
``_seed_cells`` codes each corpus of the seed's task once
(``tokenio.encode``); ``synthesize_corpus`` then hands out each synthetic
corpus coded by its decoder, and training, scoring, BLEU and the
diagnostics read those codes, so no decoder output is coded token by token.
Gamma strategies pick with ``scoring.gamma_picks`` from ``gamma_chunks``,
the one candidate-pool pass of the sweep, ``backtranslate`` and ``score``.
Within one seed, the Gamma cells of one candidate count share one such pass
(``_gamma_sources``): every cell picks from each chunk of pools before the
next is drawn.  A seed shares two more things among its cells.  The
``data-manipulation`` cell takes its beam and sampling halves from the
sources of the ``beam`` and ``sampling`` cells where those ran first
(``_manipulated_sources``, which ``synthesize_corpus`` calls too and which
decodes a half itself when none is given).  Every BLEU of the seed counts
against ``analysis.BleuReferences`` of the true mono sources or of the test
targets, each prepared once.

The oracle functions enumerate every equal-length source exactly:
``exact_marginal`` is the log marginal likelihood of a target under the
source LM (conditioned on the target's length, so the enumerated weights
form a true distribution), ``jensen_lower_bound`` the corresponding
expectation of the forward log-likelihood, and ``importance_mc_estimate``
the importance-sampling Monte-Carlo estimator of that bound with the
backward channel as proposal.  Every sample is one of the enumerated
sources, so the estimator computes each source's importance-weighted value
once, from the enumeration's LM, forward and backward log-probs, and draws
the samples as enumeration rows: each sample carries its prefix's row from
position to position, and position t's inverse-CDF search (``invert_cdf``)
reads a table with one row per prefix of length t, built once per target.
Positions run in order and each draws its uniforms from the caller's
generator ``_MC_BLOCK`` at a time, so the stream is read as ``len(y)``
calls of ``rng.random(num_samples)`` read it, and no array spans the
positions and the samples; only the rows and the values do, 16 bytes a
sample in all, and ``MC_SAMPLE_LIMIT`` bounds their count per target.
``evaluate_marginal_oracles`` enumerates once for all three quantities.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analysis import BleuReferences, corpus_bleu, corpus_diagnostics
from .errors import (
    BtfactorsError,
    ConfigError,
    EnumerationTooLargeError,
    InvalidInputError,
    NumericError,
    check_integer,
)
from .manipulate import SyntheticPair, split_monolingual
from .scoring import DEFAULT_GAMMA, GammaParams, gamma_picks, gamma_rows, invert_cdf
from .streams import sentence_uniforms
from .tokenio import BOS, CodedCorpus, encode
from .toyseq.decode import (
    DEFAULT_BEAM_SIZE,
    _stacked_conditionals,
    batch_lm_scores,
    beam_decode,
    candidate_chunks,
    sample_decode,
)
from .toyseq.models import (
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

ENUMERATION_GUARD = 10**6
# Monte-Carlo samples per target: the rows and values, then the values and
# std's temporary, take 16 bytes each
MC_SAMPLE_LIMIT = 10**7
# Monte-Carlo samples drawn at a time; bounds the uniforms and invert_cdf's temporaries
_MC_BLOCK = 8192
WEAK_BITEXT_FRACTION = 0.1


# -- strategies ---------------------------------------------------------------

class StrategyParam(NamedTuple):
    """How a config sets one strategy parameter and a label shows it."""

    key: str        # the config key that sets it
    default: float  # its value where the config leaves the key out
    label: str      # its name in a label, as in gamma-select(gamma=0.2,n=50)


class StrategySpec(NamedTuple):
    """What one strategy kind takes and needs."""

    params: dict[str, StrategyParam]  # each required parameter, by its BTStrategy field
    stochastic: bool        # draws random numbers, so the CLI requires --seed
    needs_lm: bool          # picks by Gamma score, which reads the source LM
    provenance: str | None  # its pairs' tag; data-manipulation tags its beam half beam


_GAMMA_PARAMS = {"gamma": StrategyParam("gamma_score", DEFAULT_GAMMA, "gamma"),
                 "num_candidates": StrategyParam("num_candidates", 50, "n")}
STRATEGIES = {  # kind: (params, stochastic, needs_lm, provenance)
    "none": StrategySpec({}, False, False, None),
    "beam": StrategySpec({}, False, False, "beam"),
    "beam-weak": StrategySpec({}, False, False, "beam"),
    "sampling": StrategySpec({}, True, False, "sampling"),
    "data-manipulation": StrategySpec({"gamma": StrategyParam("gamma_dm", 0.5, "gamma")},
                                      True, False, "sampling"),
    "gamma-select": StrategySpec(_GAMMA_PARAMS, True, True, "gamma-select"),
    "gamma-sample": StrategySpec(_GAMMA_PARAMS, True, True, "gamma-sample"),
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


def check_parameter(name: str, value, label: str | None = None, shown: str | None = None):
    """ConfigError unless ``value`` has the type and range of parameter
    ``name``; the message calls it ``label`` and its value ``shown``."""
    label = name if label is None else label
    domain = DOMAINS[name]
    if domain.type is int:
        try:
            # numpy integers pass; bools, floats and numeric strings do not
            index = operator.index(value)
        except TypeError:
            index = None
        if index is None or isinstance(value, bool):
            raise ConfigError(f"{label} must be an integer, got {value!r}")
        value = index
    elif not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{label} must be a real number, got {value!r}")
    if not domain.holds(value):
        raise ConfigError(
            f"{label} must be {domain.text}, got {value if shown is None else shown}")


def _shown(value) -> str:
    """``value`` as a label shows it: ``:g`` where that reads back exactly, else its repr."""
    if isinstance(value, numbers.Integral):
        return str(value)
    short = f"{float(value):g}"
    return short if float(short) == float(value) else repr(float(value))  # not np.float64(...)


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
        for name in (f.name for f in fields(self)[1:]):  # the fields after kind
            value = getattr(self, name)
            if name not in spec.params:
                if value is not None:
                    raise ConfigError(f"strategy {self.kind!r} does not take {name}")
            elif value is None:
                raise ConfigError(f"strategy {self.kind!r} requires {name}")
            else:
                check_parameter(name, value)
                if DOMAINS[name].type is float:
                    # held as the float its label shows, which numpy computes with
                    object.__setattr__(self, name, float(value))

    @property
    def label(self) -> str:
        params = STRATEGIES[self.kind].params
        if not params:
            return self.kind
        shown = ",".join(f"{p.label}={_shown(getattr(self, name))}" for name, p in params.items())
        return f"{self.kind}({shown})"


# -- synthesis ----------------------------------------------------------------

def gamma_chunks(mono, backward: ChannelModel, lm: NGramLM, n: int, seed: int, gammas):
    """The one candidate-pool pass: each chunk of ``candidate_chunks`` over
    ``mono``, sentence i drawing from stream (seed, i), and after it a dict
    of its ``gamma_rows`` for every distinct value of ``gammas``."""
    for chunk in candidate_chunks(backward, lm, mono, n,
                                  lambda ids, count: sentence_uniforms(seed, ids, count)):
        token_idx, log_q, log_lm = chunk[2:]
        yield (*chunk, {gamma: gamma_rows(log_q, log_lm, token_idx.shape[2], GammaParams(gamma))
                        for gamma in dict.fromkeys(gammas)})


def _gamma_sources(mono: CodedCorpus, backward: ChannelModel, lm: NGramLM,
                   strategies: Sequence[BTStrategy], seed: int) -> list[CodedCorpus]:
    """The Gamma-chosen candidate of each sentence's n-candidate pool, one
    coded source corpus per strategy, from one ``gamma_chunks`` pass over
    the coded ``mono``.

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
    chunks = gamma_chunks(mono, backward, lm, sizes.pop(), seed, [s.gamma for s in strategies])
    for ids, next_uniforms, token_idx, _, _, probs in chunks:
        rows = np.arange(len(ids))
        at = np.add.outer(starts[ids], np.arange(token_idx.shape[2]))
        for strategy, chosen in zip(strategies, picked):
            picks = gamma_picks(probs[strategy.gamma],
                                None if strategy.kind == "gamma-select" else next_uniforms)
            chosen[at] = token_idx[rows, picks]
    return [CodedCorpus.from_indices(backward.out_vocab, chosen, mono.lengths)
            for chosen in picked]


def _manipulated_sources(coded: CodedCorpus, backward: ChannelModel, gamma: float, seed: int,
                         beam_size: int, beam: CodedCorpus | None = None,
                         sampled: CodedCorpus | None = None) -> tuple[CodedCorpus, tuple]:
    """Data manipulation's sources of the coded corpus, in corpus order, and
    the ids of its beam half.

    Draws the ``split_monolingual`` plan once.  ``beam`` and ``sampled``,
    where given, are the whole corpus beam-decoded and sampled under
    ``backward`` as the ``beam`` and ``sampling`` strategies decode it, and
    a half is taken from them; a half without one is decoded here.  Beam
    search and the per-sentence streams give a sentence the same output
    alone or in any batch, so either way gives the same sources.
    """
    plan = split_monolingual(coded, gamma, seed)
    beam_ids, ids = plan.beam_ids, plan.sampling_ids
    beam = (beam_decode(backward, coded.take(beam_ids), beam_size) if beam is None
            else beam.take(beam_ids))
    sampled = (sample_decode(backward, coded.take(ids), sentence_uniforms(
        seed, ids, coded.lengths[list(ids)].tolist())) if sampled is None else sampled.take(ids))
    # the beam half, then the sampling half, back in corpus order
    return CodedCorpus.concat([beam, sampled]).take(np.argsort(beam_ids + ids)), beam_ids


def synthesize_corpus(mono, backward: ChannelModel, lm: NGramLM | None,
                      strategy: BTStrategy, seed: int, beam_size: int = DEFAULT_BEAM_SIZE):
    """One synthetic source per target sentence under ``strategy``.

    ``mono`` is a ``MonoCorpus``, which gives a list of ``SyntheticPair``
    tagged with their provenance, or its sentences coded
    (``tokenio.CodedCorpus``), which gives the coded (sources, targets) pair,
    both empty for ``none``.  Stochastic strategies derive one stream per
    sentence from (seed, index), so output is independent of evaluation
    order.  Data manipulation (``_manipulated_sources``) draws its
    ``split_monolingual`` plan once, beam-decodes ``plan.beam_ids``, samples
    the rest and tags each sentence ``beam`` or ``sampling`` by the half it
    fell in.
    """
    kind = strategy.kind
    if STRATEGIES[kind].needs_lm and lm is None:
        raise ConfigError(f"strategy {kind!r} needs a source language model")
    coded = mono if isinstance(mono, CodedCorpus) else encode(mono.sentences)
    beam_ids: tuple[int, ...] = ()
    if kind == "none":
        sources = coded.take(())
    elif kind in ("beam", "beam-weak"):
        sources = beam_decode(backward, coded, beam_size)
    elif kind == "sampling":
        sources = sample_decode(backward, coded, sentence_uniforms(
            seed, range(len(coded)), coded.lengths.tolist()))
    elif kind == "data-manipulation":
        sources, beam_ids = _manipulated_sources(coded, backward, strategy.gamma, seed, beam_size)
    else:
        [sources] = _gamma_sources(coded, backward, lm, [strategy], seed)
    if isinstance(mono, CodedCorpus):
        return sources, (mono if len(sources) else sources)
    beam, tag = set(beam_ids), STRATEGIES[kind].provenance
    return [SyntheticPair(x, y, "beam" if i in beam else tag)
            for i, (x, y) in enumerate(zip(sources, mono.sentences))]


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


def _evaluate_test_bleu(forward: ChannelModel, sources: CodedCorpus,
                        targets: BleuReferences, beam_size: int) -> float:
    return corpus_bleu(beam_decode(forward, sources, beam_size), targets)


def _weak_backward(bitext: tuple[CodedCorpus, CodedCorpus], alpha: float,
                   vocab) -> ChannelModel:
    # under-trained variant: fit on the leading tenth of the coded bitext
    sources, targets = bitext
    weak = range(max(1, int(len(sources) * WEAK_BITEXT_FRACTION)))
    return train_channel((sources.take(weak), targets.take(weak)), "target_to_source", alpha,
                         out_vocab=vocab)


def _seed_cells(config: ExperimentConfig, seed: int) -> list[CellReport]:
    """The cells of one seed, in strategy order, the ``none`` baseline first
    unless the config lists it.

    The seed's task, its coded splits, the backward model, the source LM
    and the BLEU references (``BleuReferences`` of the true mono sources and
    of the test targets) are built once and shared by the cells; the weak
    backward model is built in the ``beam-weak`` cell.  Each cell
    synthesizes, retrains the forward model on bitext + synthetic, scores
    test BLEU and attaches the synthetic corpus diagnostics.  The Gamma
    cells of one ``num_candidates`` share one ``_gamma_sources`` pass, made
    when the first of them runs.  The ``beam`` and ``sampling`` cells keep
    their sources, and a later ``data-manipulation`` cell takes its halves
    from them (``_manipulated_sources``).  Each cell's sources equal those
    of ``synthesize_corpus`` with that strategy alone.  A failing cell's
    error names its strategy and seed.
    """
    strategies = list(config.strategies)
    if not any(s.kind == "none" for s in strategies):
        strategies.insert(0, BTStrategy("none"))
    task = generate_toy_task(config.task.with_seed(seed))
    bitext, (test, test_targets) = coded_pairs(task.bitext), coded_pairs(task.test)
    mono = encode(task.mono.sentences)
    test_refs = BleuReferences(test_targets)
    references = BleuReferences(encode(task.mono_refs.sources()))
    backward = train_channel(bitext, "target_to_source", config.alpha, out_vocab=task.source_vocab)
    lm = train_ngram_lm(bitext[0], config.lm_order, config.alpha, vocab=task.source_vocab)
    # num_candidates -> the sources of each Gamma cell with that count
    gamma_passes: dict[int, dict[BTStrategy, CodedCorpus]] = {}
    # "beam" / "sampling" -> the mono corpus so decoded under the backward model
    decoded: dict[str, CodedCorpus] = {}
    cells = []
    for strategy in strategies:
        try:
            n = strategy.num_candidates
            if strategy.kind == "beam-weak":
                weak = _weak_backward(bitext, config.alpha, task.source_vocab)
                synthetic = synthesize_corpus(mono, weak, lm, strategy, seed, config.beam_size)
            elif strategy.kind == "data-manipulation":
                synthetic = _manipulated_sources(mono, backward, strategy.gamma, seed,
                                                 config.beam_size, decoded.get("beam"),
                                                 decoded.get("sampling"))[0], mono
            elif n is None:
                synthetic = synthesize_corpus(mono, backward, lm, strategy, seed, config.beam_size)
                decoded[strategy.kind] = synthetic[0]
            else:
                if n not in gamma_passes:
                    group = [s for s in strategies if s.num_candidates == n]
                    passes = _gamma_sources(mono, backward, lm, group, seed)
                    gamma_passes[n] = dict(zip(group, passes))
                synthetic = gamma_passes[n][strategy], mono
            sources, targets = synthetic
            forward = train_forward(bitext, synthetic, config.alpha, out_vocab=task.target_vocab)
            cell = CellReport(strategy.label, seed,
                              _evaluate_test_bleu(forward, test, test_refs, config.beam_size),
                              len(sources))
            if len(sources):
                # diagnostics always use the standard backward model,
                # even for corpora generated by the weak variant
                quality, importance, spectrum = corpus_diagnostics(
                    synthetic, backward, lm, references, task.source_vocab)
                cell.mean_log_q = quality.mean_log_q
                cell.synthetic_bleu = quality.bleu_vs_reference
                cell.mean_log_importance = importance.mean_log_importance
                truth_scores = task.truth_channel.batch_score(targets, sources)
                cell.mean_log_truth = float(np.mean(truth_scores))
                cell.spectral_entropy = spectrum.normalized_spectral_entropy
            cells.append(cell)
        except BtfactorsError as exc:
            raise type(exc)(f"strategy {strategy.label!r} seed {seed}: {exc}") from exc
    return cells


def run_bt_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Every (strategy, seed) cell on freshly generated toy tasks: the
    ``_seed_cells`` of each seed in turn.  Seeds share no state, so each
    seed's cells equal those of a run on that seed alone."""
    return ExperimentReport([cell for seed in config.seeds for cell in _seed_cells(config, seed)])


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


def _enumeration_indices(vocab_size: int, length: int) -> np.ndarray:
    if length < 1:
        raise InvalidInputError("sequences must be non-empty")
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


def _enumerate_lm_and_channel(lm: NGramLM, channel: ChannelModel,
                              y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (|V|^L, L) index matrix of every source of length L = len(y), with
    the LM and channel log-probs of each of its rows."""
    y = tuple(y)
    vocab = lm.content_vocab
    idx = _enumeration_indices(len(vocab), len(y))
    lm_scores = batch_lm_scores(lm, idx, vocab)
    channel_scores = _scores_given_sources(channel, y, idx, vocab)
    return idx, lm_scores, channel_scores


def _log_marginal(lm_scores: np.ndarray, channel_scores: np.ndarray) -> float:
    return _logsumexp(lm_scores + channel_scores) - _logsumexp(lm_scores)


def _jensen(lm_scores: np.ndarray, channel_scores: np.ndarray) -> float:
    weights = np.exp(lm_scores - _logsumexp(lm_scores))
    return float((weights * channel_scores).sum())


def exact_marginal(lm: NGramLM, channel: ChannelModel, y) -> float:
    """log sum_x p(x) p(y | x) over every source of length len(y).

    p(x) is the LM conditioned on that length (the enumerated weights are
    normalized), so the Jensen bound below is a true lower bound.
    """
    _, lm_scores, channel_scores = _enumerate_lm_and_channel(lm, channel, y)
    return _log_marginal(lm_scores, channel_scores)


def jensen_lower_bound(lm: NGramLM, forward_channel: ChannelModel, y) -> float:
    """sum_x p(x) log p(y | x) over the same length-conditioned enumeration."""
    _, lm_scores, channel_scores = _enumerate_lm_and_channel(lm, forward_channel, y)
    return _jensen(lm_scores, channel_scores)


def _check_mc_inputs(lm: NGramLM, backward: ChannelModel, num_samples: int,
                     rng: np.random.Generator) -> int:
    """``num_samples`` as an int, once the estimator's inputs are checked."""
    num_samples = check_integer("num_samples", num_samples, 2)
    if num_samples > MC_SAMPLE_LIMIT:
        raise InvalidInputError(f"num_samples must be <= {MC_SAMPLE_LIMIT}")
    if backward.alpha <= 0.0:
        raise InvalidInputError("backward model must smooth with alpha > 0 (positive mass)")
    if tuple(backward.out_vocab) != tuple(lm.content_vocab):
        raise InvalidInputError("backward output vocabulary must match the LM vocabulary")
    # named here, not at import, so importing btloop does not import numpy.random
    if not isinstance(rng, np.random.Generator):
        raise InvalidInputError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    return num_samples


def _mc_moments(idx: np.ndarray, lm_scores: np.ndarray, forward_scores: np.ndarray,
                backward: ChannelModel, y, num_samples: int,
                rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard error of Imp(x) * log p(y | x) over ``num_samples``
    draws from the backward channel.

    Each value is computed once per row of ``idx``, with the row's backward
    log-prob summed from 0.0 position by position as ``_ancestral`` sums a
    sample's, from the same ``_stacked_conditionals`` tables, so a sample
    drawn as that row gets the same bits.  The draws are made without
    log-probs, position by position, from the numbers of L successive
    ``rng.random(n)`` calls: each position refills one reused buffer
    ``_MC_BLOCK`` uniforms at a time and searches row r of its table for
    each sample whose prefix is enumeration row r of the length-t sources;
    the drawn index is the prefix's next base-|V| digit
    (``row * |V| + index``), so the last position leaves each sample's row
    in ``idx``, the same row ``batch_sample``'s tokens name.
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
    size = len(backward.out_vocab)
    # position t's table: row r is the stack row given prefix r's last index
    # (r % |V|), or BOS at t = 0, so a prefix's enumeration row indexes it
    tables = [table[block * (size + 1) + np.arange(size**t) % size + (t > 0)]
              for t, block in enumerate(blocks)]
    uniforms = np.empty(min(num_samples, _MC_BLOCK))
    rows = np.zeros(num_samples, dtype=np.intp)
    for position_table in tables:
        for start in range(0, num_samples, _MC_BLOCK):
            row = rows[start : start + _MC_BLOCK]
            draws = uniforms[: len(row)]
            rng.random(out=draws)
            column = invert_cdf(position_table, draws, row)
            row *= size
            row += column
    values = by_row.take(rows)
    del rows, row   # so std's temporary does not sit beside them
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(num_samples))
    return mean, std_error


def importance_mc_estimate(lm: NGramLM, backward: ChannelModel, forward: ChannelModel,
                           y, num_samples: int,
                           rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of Imp(x) * log p(y | x) with
    x drawn from the backward channel.

    Unbiased for ``jensen_lower_bound`` because the importance weight uses
    the same length-conditioned LM normalization.  Every sample is one of
    the enumerated sources, so the samples are drawn as enumeration rows and
    each takes its row's value, computed once per source; no sample is
    scored on its own.  ``rng`` must be a numpy ``Generator`` (anything else
    is refused before a draw), over any bit generator; it is consumed as by
    ``len(y)`` calls of ``rng.random(num_samples)``, the numbers
    ``batch_sample`` would draw.
    """
    num_samples = _check_mc_inputs(lm, backward, num_samples, rng)
    idx, lm_scores, forward_scores = _enumerate_lm_and_channel(lm, forward, y)
    return _mc_moments(idx, lm_scores, forward_scores, backward, y, num_samples, rng)


def evaluate_marginal_oracles(lm: NGramLM, backward: ChannelModel, forward: ChannelModel,
                              y, num_samples: int, rng: np.random.Generator) -> OracleResult:
    """All three oracle quantities for one target sentence, from one
    enumeration of its sources; the Monte-Carlo draws are rows of that
    enumeration, as in ``importance_mc_estimate``."""
    num_samples = _check_mc_inputs(lm, backward, num_samples, rng)
    idx, lm_scores, forward_scores = _enumerate_lm_and_channel(lm, forward, y)
    mc_mean, mc_se = _mc_moments(idx, lm_scores, forward_scores, backward, y, num_samples, rng)
    return OracleResult(
        y=tuple(y),
        exact_log_marginal=_log_marginal(lm_scores, forward_scores),
        jensen_bound=_jensen(lm_scores, forward_scores),
        mc_estimate=mc_mean,
        mc_std_error=mc_se,
    )
