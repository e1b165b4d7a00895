"""Two-factor candidate scoring.

A candidate translation carries two natural-log scores: its backward-model
log-probability (quality) and its source language-model log-probability.
The log importance weight is their difference.  Both factors are divided by
the candidate's token count, standardized across the candidate set, mixed
with weight ``gamma``, and pushed through a softmax to give the Gamma score
distribution.  Selection takes the argmax; sampling draws from it.

``gamma_rows`` scores many candidate sets at once, one set per row of
(S, n) score arrays, and ``gamma_picks`` picks one candidate per row.
``gamma_distribution``, ``gamma_select`` and ``gamma_sample`` are one-row
calls of them, for a single ``CandidateSet``.

The token count includes one terminal end-of-sequence marker when the token
sequence carries one.  For equal-length candidate sets (the toy task's
channel preserves length) the convention cancels: z-scores are invariant to
a common positive length divisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_integer

DEFAULT_GAMMA = 0.2
# a candidate set whose standard deviation is at most this scores all 0
SIGMA_FLOOR = 1e-12


def check_candidate(length: int, num_tokens: int, log_q: float, log_lm: float) -> None:
    """Raise InvalidInputError unless a candidate of ``num_tokens`` tokens
    declares that positive length and has finite log-probabilities."""
    if length != num_tokens or length < 1:
        raise InvalidInputError(f"candidate length {length} does not match {num_tokens} tokens")
    if not (math.isfinite(log_q) and math.isfinite(log_lm)):
        raise InvalidInputError("candidate log-probabilities must be finite")


def check_candidate_set(target_id: int, target_tokens, size: int) -> None:
    """Raise InvalidInputError unless a set of ``size`` candidates has an
    integer target id >= 0, a non-empty target and at least 2 candidates."""
    check_integer("target_id", target_id, 0)
    if not target_tokens:
        raise InvalidInputError("target_tokens must be non-empty")
    if size < 2:
        raise InvalidInputError("a candidate set needs at least 2 candidates")


@dataclass(frozen=True)
class Candidate:
    """One back-translated hypothesis with its two model log-probabilities."""

    tokens: tuple
    length: int
    log_q: float
    log_lm: float

    def __post_init__(self):
        check_candidate(self.length, len(self.tokens), self.log_q, self.log_lm)


@dataclass(frozen=True)
class CandidateSet:
    """The candidate pool for one target sentence, in generation order.

    Duplicates are kept: identical sampled sequences accumulate their own
    Gamma mass naturally.
    """

    target_id: int
    target_tokens: tuple
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        check_candidate_set(self.target_id, self.target_tokens, len(self.candidates))

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class GammaParams:
    """Mixing weight between importance (gamma) and quality (1 - gamma)."""

    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidInputError(f"gamma must be in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class StandardizedScores:
    values: tuple[float, ...]
    mu: float
    sigma: float


def _check_gamma_rows(probs: np.ndarray) -> None:
    """Every row must be a distribution over >= 2 candidates, each strictly
    inside (0, 1)."""
    if probs.shape[-1] < 2 or not ((probs > 0.0) & (probs < 1.0)).all():
        raise InvalidInputError("Gamma probabilities must lie strictly inside (0, 1)")
    if (np.abs(probs.sum(axis=-1) - 1.0) > 1e-9).any():
        raise InvalidInputError("Gamma probabilities must sum to 1")


@dataclass(frozen=True)
class GammaDistribution:
    probs: tuple[float, ...]

    def __post_init__(self):
        _check_gamma_rows(np.asarray(self.probs, dtype=float))


def _zscore_rows(values, lengths):
    """Length-normalized z-scores of each row of (R, n) values, with each
    row's mean and sample std (N-1 divisor, the arithmetic of ``np.std``);
    a row whose std is at most ``SIGMA_FLOOR`` scores all 0."""
    values = np.asarray(values, dtype=float)
    lengths = np.broadcast_to(np.asarray(lengths, dtype=float), values.shape)
    if values.ndim != 2 or values.shape[1] < 2:
        raise InvalidInputError("standardization needs at least 2 values")
    if not np.isfinite(values).all():
        raise InvalidInputError("log values must be finite")
    if (lengths < 1).any():
        raise InvalidInputError("lengths must be positive")
    n = values.shape[1]
    normalized = values / lengths
    mu = normalized.sum(axis=1, keepdims=True) / n
    deviation = normalized - mu
    sigma = np.sqrt((deviation * deviation).sum(axis=1, keepdims=True) / (n - 1))
    flat = sigma <= SIGMA_FLOOR
    out = deviation / np.where(flat, 1.0, sigma)
    out[flat[:, 0]] = 0.0
    return out, mu[:, 0], sigma[:, 0]


def standardize(log_values, lengths) -> StandardizedScores:
    """Divide each log value by its sequence length, then z-score the list.

    The scale is the sample standard deviation (N-1 divisor).  When it does
    not exceed ``SIGMA_FLOOR`` every output is exactly 0, which keeps
    degenerate all-duplicate candidate sets away from a division by ~0 and
    turns the downstream Gamma distribution uniform.
    """
    values = np.asarray(log_values, dtype=float)
    lens = np.asarray(lengths, dtype=float)
    if values.ndim != 1 or values.shape != lens.shape:
        raise InvalidInputError("log_values and lengths must be equal-length 1-D sequences")
    out, mu, sigma = _zscore_rows(values[None], lens[None])
    return StandardizedScores(values=tuple(out[0].tolist()), mu=float(mu[0]),
                              sigma=float(sigma[0]))


def gamma_rows(log_q, log_lm, lengths, params: GammaParams = GammaParams()) -> np.ndarray:
    """Gamma distributions of S candidate sets at once, as an (S, n) array.

    Row s holds one set's candidate log-probs ``log_q[s]`` and ``log_lm[s]``;
    ``lengths`` broadcasts against them (one length per row, as (S, 1), or
    one per candidate).  Importance and quality are standardized per row and
    mixed as ``gamma * imp + (1 - gamma) * quality``, then softmaxed per row.
    Sample-std z-scores are bounded by (N-1)/sqrt(N), so the softmax never
    over/underflows and every probability is strictly inside (0, 1).
    """
    log_q = np.asarray(log_q, dtype=float)
    lengths = np.broadcast_to(np.asarray(lengths, dtype=float), log_q.shape)
    # finite log-probs near the float limit can overflow to inf or nan here;
    # the finiteness and range checks refuse such rows with InvalidInputError
    with np.errstate(over="ignore", invalid="ignore"):
        # importance rows stacked over quality rows: one z-scoring pass for both
        z, _, _ = _zscore_rows(np.concatenate((np.asarray(log_lm, dtype=float) - log_q, log_q)),
                               np.concatenate((lengths, lengths)))
        imp, qual = z[: len(log_q)], z[len(log_q) :]
        scores = params.gamma * imp + (1.0 - params.gamma) * qual
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = weights / weights.sum(axis=1, keepdims=True)
    _check_gamma_rows(probs)
    return probs


def cdf_table(probs: np.ndarray) -> np.ndarray:
    """The (S, P) table that ``invert_cdf`` searches for (S, n) rows of
    probabilities: each row's cumulative sums over its first n-1 entries
    (the bits of the first n-1 entries of its cumsum), padded with NaN (no
    uniform, not even +inf or NaN, is at or above one) to a width P >= n, a
    power of two.  A table is built once and searched for any number of
    draws."""
    n = probs.shape[1]
    table = np.full((len(probs), 1 << (n - 1).bit_length()), np.nan)
    np.cumsum(probs[:, : n - 1], axis=1, out=table[:, : n - 1])
    return table


def invert_cdf(table: np.ndarray, uniforms: np.ndarray,
               rows: np.ndarray | None = None) -> np.ndarray:
    """Inverse-CDF draw per uniform from the ``cdf_table`` of (S, n)
    probabilities.

    Draw i reads row ``rows[i]`` of the table (row i when ``rows`` is None)
    and is the number of that row's cumulative probabilities at or below
    ``uniforms[i]``, clamped to n-1: a branchless binary search over the
    padded width P takes log2(P) gathers without a (draws, n) table.  The
    search runs on flat positions, starting at each row's first entry; the
    last step adds its comparison as a bool, and the column is the flat
    position's low log2(P) bits.  Neither ``rows`` nor ``uniforms`` is
    written to.
    """
    width = table.shape[1]
    if width & (width - 1):
        raise InvalidInputError(f"invert_cdf takes a cdf_table, of a power-of-two width, "
                                f"got width {width}")
    flat = table.ravel()
    found, step = (np.arange(len(uniforms)) if rows is None else np.asarray(rows)) * width, width
    while (step := step >> 1) > 1:
        found += (flat[step - 1 :][found] <= uniforms) * step
    if step:
        found += flat[found] <= uniforms
    return found & (width - 1)


def _set_rows(cset: CandidateSet, params: GammaParams) -> np.ndarray:
    cands = cset.candidates
    return gamma_rows([[c.log_q for c in cands]], [[c.log_lm for c in cands]],
                      [[c.length for c in cands]], params)


def gamma_distribution(cset: CandidateSet, params: GammaParams = GammaParams()) -> GammaDistribution:
    """Softmax over gamma-weighted standardized importance and quality."""
    return GammaDistribution(probs=tuple(_set_rows(cset, params)[0].tolist()))


def gamma_picks(probs: np.ndarray, uniforms: np.ndarray | None = None) -> np.ndarray:
    """One candidate per row of (S, n) Gamma distributions: the row's
    argmax (lowest index on ties), or its inverse CDF at ``uniforms[row]``."""
    if uniforms is None:
        return probs.argmax(axis=1)
    return invert_cdf(cdf_table(probs), uniforms)


def gamma_select(cset: CandidateSet, params: GammaParams = GammaParams()) -> int:
    """Index of the maximal Gamma score; ties break to the lowest index."""
    return int(gamma_picks(_set_rows(cset, params))[0])


def gamma_sample(cset: CandidateSet, params: GammaParams, rng: np.random.Generator) -> int:
    """Draw a candidate index from the Gamma distribution.

    Pass a generator derived from (seed, target_id) — see ``streams`` — so a
    corpus pass is reproducible sentence by sentence.
    """
    return int(gamma_picks(_set_rows(cset, params), np.array([rng.random()]))[0])
