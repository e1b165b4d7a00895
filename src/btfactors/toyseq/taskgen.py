"""Seeded toy translation task.

The ground truth is a bigram source language (Dirichlet-random transition
rows, end-of-sequence column included) and a memoryless token-substitution
channel: each source token maps to a dominant target token (a seeded
one-to-one assignment) with the remaining ``channel_noise`` mass spread
uniformly over the other target tokens.  Sentences draw a uniform length
from ``length_range`` and walk the bigram rows with the end marker masked
out, so the truth LM used for scoring is a slightly mis-specified model of
the actual corpus law in its length marginal — as a real LM would be.

Bitext, monolingual, and test splits are disjoint slices of one sampled
stream and are fully determined by the spec's seed.  Each sentence takes
its length and then 2 * length uniforms from that stream, the first half
for the source walk and the second for the channel outputs; sentences of
equal length are then sampled together through the decoders' ancestral
kernel.  The monolingual split's true sources are kept aside
(``mono_refs``) for reference-based diagnostics that only a synthetic task
can provide.

``ToyTaskSpec.keys()`` is the one table of task keys: the ``toygen`` flags,
the config's task keys and the ``toygen`` manifest's params, with the
fields' defaults; ``ToyTaskSpec.from_keys`` builds a spec from any subset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import InvalidInputError
from ..manipulate import MonoCorpus
from ..streams import TAG_CORPUS, TAG_TRUTH_CHANNEL, TAG_TRUTH_LM, task_stream
from .decode import _ancestral, _sample_outputs, token_array
from .models import BOS, ChannelModel, EOS, NGramLM, ParallelCorpus

__all__ = ["ToyTaskSpec", "ToyTask", "generate_toy_task"]


@dataclass(frozen=True)
class ToyTaskSpec:
    source_vocab_size: int = 20
    target_vocab_size: int = 20
    length_range: tuple[int, int] = (4, 12)
    channel_noise: float = 0.15
    bitext_size: int = 2000
    mono_size: int = 2000
    test_size: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.source_vocab_size < 2 or self.target_vocab_size < 2:
            raise InvalidInputError("vocabulary sizes must be >= 2")
        lo, hi = self.length_range
        if not 1 <= lo <= hi:
            raise InvalidInputError(f"bad length range {self.length_range}")
        if not 0.0 < self.channel_noise < 1.0:
            raise InvalidInputError("channel_noise must lie strictly inside (0, 1)")
        if min(self.bitext_size, self.mono_size, self.test_size) < 1:
            raise InvalidInputError("corpus sizes must be positive")
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")

    def with_seed(self, seed: int) -> "ToyTaskSpec":
        return replace(self, seed=seed)

    def keys(self) -> dict:
        """Each task key with its value here: ``ToyTaskSpec().keys()`` gives the defaults."""
        lo, hi = self.length_range
        return {"source_vocab": self.source_vocab_size, "target_vocab": self.target_vocab_size,
                "min_len": lo, "max_len": hi, "noise": self.channel_noise,
                "bitext": self.bitext_size, "mono": self.mono_size, "test": self.test_size}

    @classmethod
    def from_keys(cls, values, seed: int = 0) -> "ToyTaskSpec":
        """The spec that ``values`` sets; a task key it leaves out keeps its default."""
        keys = cls().keys()
        if not set(values) <= set(keys):
            raise InvalidInputError(f"unknown task keys: {sorted(set(values) - set(keys))}")
        keys.update(values)
        return cls(keys["source_vocab"], keys["target_vocab"], (keys["min_len"], keys["max_len"]),
                   keys["noise"], keys["bitext"], keys["mono"], keys["test"], seed)


@dataclass(frozen=True)
class ToyTask:
    spec: ToyTaskSpec
    bitext: ParallelCorpus
    mono: MonoCorpus
    mono_refs: ParallelCorpus
    test: ParallelCorpus
    truth_lm: NGramLM
    truth_channel: ChannelModel

    @property
    def source_vocab(self) -> tuple:
        return tuple(range(self.spec.source_vocab_size))

    @property
    def target_vocab(self) -> tuple:
        return tuple(range(self.spec.target_vocab_size))


def _truth_lm(spec: ToyTaskSpec) -> NGramLM:
    rng = task_stream(spec.seed, TAG_TRUTH_LM)
    vocab = tuple(range(spec.source_vocab_size))
    events = vocab + (EOS,)
    counts = {}
    for context in [(BOS,)] + [(tok,) for tok in vocab]:
        row = rng.dirichlet(np.ones(len(events)))
        counts[context] = {tok: float(p) for tok, p in zip(events, row)}
    return NGramLM(order=2, alpha=0.0, vocab=vocab, counts=counts, use_eos=True)


def _truth_channel(spec: ToyTaskSpec) -> ChannelModel:
    rng = task_stream(spec.seed, TAG_TRUTH_CHANNEL)
    src_vocab = tuple(range(spec.source_vocab_size))
    tgt_vocab = tuple(range(spec.target_vocab_size))
    assignment = rng.permutation(spec.target_vocab_size)
    noise = spec.channel_noise
    spread = noise / (len(tgt_vocab) - 1)
    rows = {}
    for s in src_vocab:
        dominant = int(assignment[s % len(tgt_vocab)])
        rows[s] = {t: (1.0 - noise if t == dominant else spread) for t in tgt_vocab}
    # memoryless: identical rows for every previous-output state
    counts = {}
    for prev in (BOS,) + tgt_vocab:
        for s in src_vocab:
            counts[(prev, s)] = dict(rows[s])
    return ChannelModel(direction="source_to_target", alpha=0.0, out_vocab=tgt_vocab, counts=counts)


def _walk_cdf(truth_lm: NGramLM) -> np.ndarray:
    """(|V|+1, |V|) cumulative source-walk rows with the end marker masked
    out: row 0 follows BOS, row 1 + i follows content_vocab[i]."""
    eos_idx = len(truth_lm.event_vocab) - 1
    rows = []
    for context in [(BOS,)] + [(tok,) for tok in truth_lm.content_vocab]:
        row = truth_lm.prob_row(context).copy()
        row[eos_idx] = 0.0  # walk stays inside the length budget
        row /= row.sum()    # at full width: a sum over fewer terms can round differently
        rows.append(row[:eos_idx])
    return np.cumsum(rows, axis=1)


def _sample_sentence_pairs(truth_lm: NGramLM, truth_channel: ChannelModel,
                           draws) -> list[tuple[tuple, tuple]]:
    """(source, target) per sentence from its 2 * length pre-drawn uniforms."""
    walk = _walk_cdf(truth_lm)
    vocab = token_array(truth_lm.content_vocab)
    groups: dict[int, list[int]] = {}
    for i, uniforms in enumerate(draws):
        groups.setdefault(len(uniforms) // 2, []).append(i)
    sources: list = [None] * len(draws)
    for length, ids in groups.items():
        uniforms = np.array([draws[i][:length] for i in ids])
        steps = ((walk, None, 0, uniforms[:, t]) for t in range(length))
        for i, row in zip(ids, vocab[_ancestral(steps, len(ids), length)[0]]):
            sources[i] = tuple(row)
    targets = _sample_outputs(truth_channel, sources, [d[len(d) // 2 :] for d in draws])
    return list(zip(sources, targets))


def generate_toy_task(spec: ToyTaskSpec) -> ToyTask:
    """Draw ground-truth models and disjoint corpus splits from the seed."""
    truth_lm = _truth_lm(spec)
    truth_channel = _truth_channel(spec)
    rng = task_stream(spec.seed, TAG_CORPUS)
    lo, hi = spec.length_range
    total = spec.bitext_size + spec.mono_size + spec.test_size
    draws = [rng.random(2 * int(rng.integers(lo, hi + 1))) for _ in range(total)]
    pairs = _sample_sentence_pairs(truth_lm, truth_channel, draws)
    bitext = ParallelCorpus(pairs=tuple(pairs[: spec.bitext_size]))
    mono_pairs = pairs[spec.bitext_size : spec.bitext_size + spec.mono_size]
    mono_refs = ParallelCorpus(pairs=tuple(mono_pairs))
    mono = MonoCorpus(sentences=tuple(tgt for _, tgt in mono_pairs))
    test = ParallelCorpus(pairs=tuple(pairs[spec.bitext_size + spec.mono_size :]))
    return ToyTask(
        spec=spec,
        bitext=bitext,
        mono=mono,
        mono_refs=mono_refs,
        test=test,
        truth_lm=truth_lm,
        truth_channel=truth_channel,
    )
