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
equal length are then sampled together through the decoders' grouped
decode loop and ancestral kernel, which hand the sources to the channel
sampler coded, never re-read token by token.  The
monolingual split's true sources are kept aside (``mono_refs``) for
reference-based diagnostics that only a synthetic task can provide.

``ToyTaskSpec.keys()`` is the one table of task keys: the ``toygen`` flags,
the config's task keys and the ``toygen`` manifest's params, with the
fields' defaults; ``ToyTaskSpec.from_keys`` builds a spec from any subset,
and names the key of a value out of range with the caller's label for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import InvalidInputError, check_integer
from ..manipulate import MonoCorpus
from ..scoring import cdf_table
from ..streams import TAG_CORPUS, TAG_TRUTH_CHANNEL, TAG_TRUTH_LM, task_stream
from ..tokenio import BOS, EOS
from .decode import _ancestral, _decode_by_length, _sample_outputs
from .models import ChannelModel, NGramLM, ParallelCorpus


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
        fault = _key_fault(self.keys())
        if fault is not None:
            raise InvalidInputError(fault[1])
        check_integer("seed", self.seed, 0)

    def with_seed(self, seed: int) -> "ToyTaskSpec":
        return replace(self, seed=seed)

    def keys(self) -> dict:
        """Each task key with its value here: ``ToyTaskSpec().keys()`` gives the defaults."""
        lo, hi = self.length_range
        return {"source_vocab": self.source_vocab_size, "target_vocab": self.target_vocab_size,
                "min_len": lo, "max_len": hi, "noise": self.channel_noise,
                "bitext": self.bitext_size, "mono": self.mono_size, "test": self.test_size}

    @classmethod
    def from_keys(cls, values, seed: int = 0, label=None) -> "ToyTaskSpec":
        """The spec that ``values`` sets; a task key it leaves out keeps its
        default.  With ``label``, a value out of range is refused with the
        message ``f"{label(key)}: {check's message}"``, naming the first key
        the failed check reads that ``values`` sets."""
        keys = cls().keys()
        if not set(values) <= set(keys):
            raise InvalidInputError(f"unknown task keys: {sorted(set(values) - set(keys))}")
        keys.update(values)
        fault = _key_fault(keys)
        if fault is not None and label is not None:
            names, message = fault
            key = next((name for name in names if name in values), names[0])
            raise InvalidInputError(f"{label(key)}: {message}")
        return cls(keys["source_vocab"], keys["target_vocab"], (keys["min_len"], keys["max_len"]),
                   keys["noise"], keys["bitext"], keys["mono"], keys["test"], seed)


def _key_fault(keys: dict) -> tuple[tuple[str, ...], str] | None:
    """The first range check the task ``keys`` fail, as the keys it reads
    and its message; None if they pass every check."""
    lo, hi = keys["min_len"], keys["max_len"]
    checks = [
        (("source_vocab",), keys["source_vocab"] >= 2, "vocabulary sizes must be >= 2"),
        (("target_vocab",), keys["target_vocab"] >= 2, "vocabulary sizes must be >= 2"),
        (("min_len", "max_len"), 1 <= lo <= hi, f"bad length range {(lo, hi)}"),
        (("noise",), 0.0 < keys["noise"] < 1.0, "channel_noise must lie strictly inside (0, 1)"),
        *(((key,), keys[key] >= 1, "corpus sizes must be positive")
          for key in ("bitext", "mono", "test")),
    ]
    return next(((names, message) for names, ok, message in checks if not ok), None)


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
    """The ``cdf_table`` of the (|V|+1, |V|) source-walk rows with the end
    marker masked out: row 0 follows BOS, row 1 + i follows
    content_vocab[i].  All contexts are read in one ``rows`` lookup; each
    row's ``sum(axis=1)`` has the bits of summing that row alone."""
    eos_idx = len(truth_lm.event_vocab) - 1
    rows = np.array(truth_lm.rows([(BOS,), *((tok,) for tok in truth_lm.content_vocab)])[0])
    rows[:, eos_idx] = 0.0  # walk stays inside the length budget
    # at full width: a sum over fewer terms can round differently
    rows /= rows.sum(axis=1, keepdims=True)
    return cdf_table(rows[:, :eos_idx])


def _sample_sentence_pairs(truth_lm: NGramLM, truth_channel: ChannelModel,
                           draws) -> list[tuple[tuple, tuple]]:
    """(source, target) per sentence from its 2 * length pre-drawn uniforms."""
    walk = _walk_cdf(truth_lm)
    lengths = np.array([len(d) // 2 for d in draws], dtype=np.intp)

    def walk_group(ids, length):
        uniforms = np.array([draws[i][:length] for i in ids])
        steps = ((walk, None, 0, uniforms[:, t]) for t in range(length))
        return _ancestral(steps, len(ids), length)[0]

    sources = _decode_by_length(truth_lm.content_vocab, lengths, walk_group)
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
