"""Corpus-split data manipulation.

A seeded Fisher-Yates shuffle of the monolingual corpus routes the first
floor(gamma * n) sentences to beam generation and the remainder to sampling
generation; assembly merges both generated halves back into original corpus
order with provenance tags intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sized

import numpy as np

from .errors import InconsistencyError, InvalidInputError
from .streams import split_stream

PROVENANCES = ("beam", "sampling", "gamma-select", "gamma-sample")


@dataclass(frozen=True)
class MonoCorpus:
    """Target-language sentences, in corpus order."""

    sentences: tuple[tuple, ...]

    def __post_init__(self):
        if not self.sentences:
            raise InvalidInputError("monolingual corpus must be non-empty")
        if any(not s for s in self.sentences):
            raise InvalidInputError("monolingual sentences must be non-empty")

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint beam/sampling index sets covering one corpus."""

    gamma: float
    seed: int
    beam_ids: tuple[int, ...]
    sampling_ids: tuple[int, ...]

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidInputError("gamma must be in [0, 1]")
        beam, sampling = set(self.beam_ids), set(self.sampling_ids)
        if beam & sampling:
            raise InvalidInputError("beam_ids and sampling_ids must be disjoint")
        if beam | sampling != set(range(self.size)):
            raise InvalidInputError("beam_ids and sampling_ids must partition the index range")

    @property
    def size(self) -> int:
        return len(self.beam_ids) + len(self.sampling_ids)


@dataclass(frozen=True)
class SyntheticPair:
    """A generated source with its real target and the strategy that made it."""

    source: tuple
    target: tuple
    provenance: str

    def __post_init__(self):
        if not self.source or not self.target:
            raise InvalidInputError("synthetic pair sequences must be non-empty")
        if self.provenance not in PROVENANCES:
            raise InvalidInputError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class MixedSyntheticCorpus:
    pairs: tuple[SyntheticPair, ...]
    plan: SplitPlan

    def __post_init__(self):
        if len(self.pairs) != self.plan.size:
            raise InvalidInputError("pair count must equal the plan size")


def split_monolingual(corpus: Sized, gamma: float, seed: int) -> SplitPlan:
    """Seeded uniform split: floor(gamma * n) shuffled indices go to beam.

    Reads only ``len(corpus)``, so a ``MonoCorpus`` and its coded sentences
    (``tokenio.CodedCorpus``) split alike."""
    if not 0.0 <= gamma <= 1.0:
        raise InvalidInputError(f"gamma must be in [0, 1], got {gamma}")
    n = len(corpus)
    # epsilon guards the floor against binary representation of decimal ratios
    k = int(math.floor(gamma * n + 1e-9))
    order = list(range(n))
    rng = split_stream(seed)
    # Fisher-Yates, written out so the shuffle is pinned to this exact draw
    # order; one array draw gives the j's (and leaves the generator) as
    # n - 1 scalar rng.integers(0, i + 1) calls would
    js = rng.integers(0, np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), js):
        order[i], order[j] = order[j], order[i]
    return SplitPlan(
        gamma=float(gamma),
        seed=int(seed),
        beam_ids=tuple(sorted(order[:k])),
        sampling_ids=tuple(sorted(order[k:])),
    )


def assemble_mixed_corpus(
    plan: SplitPlan,
    beam_pairs: Mapping[int, SyntheticPair],
    sampling_pairs: Mapping[int, SyntheticPair],
) -> MixedSyntheticCorpus:
    """Union of both generated halves, restored to original corpus order."""
    if set(beam_pairs) != set(plan.beam_ids):
        raise InconsistencyError("beam_pairs indices do not match the plan's beam_ids")
    if set(sampling_pairs) != set(plan.sampling_ids):
        raise InconsistencyError("sampling_pairs indices do not match the plan's sampling_ids")
    for idx, pair in beam_pairs.items():
        if pair.provenance != "beam":
            raise InconsistencyError(f"pair {idx} routed to beam has provenance {pair.provenance!r}")
    for idx, pair in sampling_pairs.items():
        if pair.provenance != "sampling":
            raise InconsistencyError(
                f"pair {idx} routed to sampling has provenance {pair.provenance!r}"
            )
    merged = dict(beam_pairs)
    merged.update(sampling_pairs)
    pairs = tuple(merged[i] for i in range(plan.size))
    return MixedSyntheticCorpus(pairs=pairs, plan=plan)
