"""Corpus diagnostics: BLEU, quality/importance summaries, length and
token-frequency profiles, and singular-value spectra of bag-of-token
sentence representations.

BLEU, the reports and the sentence representations read coded corpora
(``tokenio.CodedCorpus``) and encode plain sequences once on entry; a
synthetic corpus may be given coded as its (sources, targets) pair.  BLEU
reads its references prepared once as ``BleuReferences``: each order's
sorted (sentence, n-gram) ids and their counts.  A hypothesis corpus finds
its n-gram ids there with ``searchsorted`` and clips its ``bincount`` by
the references' counts, so a caller that scores several corpora against
the same references (the sweep scores each seed's cells against the mono
references and the test targets) prepares them once and passes them in.
``corpus_diagnostics`` gives the quality, importance and spectrum reports
of one corpus from one backward ``batch_score`` pass, which adds the
per-position terms one column at a time, so a sentence scores the same bits
alone or in the corpus.  Every reported number is the one the per-sentence
loops gave.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistencyError, InvalidInputError, NumericError, check_integer
from .manipulate import SyntheticPair
from .tokenio import coded
from .toyseq.models import ChannelModel, NGramLM, coded_pairs


# -- BLEU -------------------------------------------------------------------

_ALIGNED = "hypotheses and references must be equal-length and non-empty"


class BleuReferences:
    """A reference corpus prepared for ``corpus_bleu`` up to order ``max_n``.

    For each order n it holds the sorted, distinct ids of the references'
    (sentence, n-gram) pairs and the count of each, as the smallest unsigned
    integer types that hold them.  An n-gram's key is the id of the
    (sentence, (n-1)-gram) it extends, times the number of distinct
    reference tokens, plus the code of its last token; its id is the rank of
    that key among the order's keys, and the order-0 id is the sentence.  A
    hypothesis n-gram finds its id by ``searchsorted`` from the id of its
    (n-1)-gram, so each hypothesis corpus scored against these references
    counts only its own n-grams.  No per-position array is kept.
    """

    __slots__ = ("max_n", "_table", "_size", "_length", "_keys", "_counts")

    def __init__(self, references, max_n: int = 4):
        self.max_n = check_integer("max_n", max_n, 1)
        refs = coded(references)
        if not len(refs):
            raise InvalidInputError(_ALIGNED)
        self._table: dict = {}
        codes = refs.codes_in(self._table)
        vocab = len(self._table)
        lengths = refs.lengths
        self._size, self._length = len(refs), int(lengths.sum())
        # tokens from each position to the end of its sentence: an n-gram
        # starts wherever at least n are left
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes))
        ids = np.repeat(np.arange(len(refs)), lengths)
        self._keys: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        # ids of the order below run from 0 to bound - 1, so a key stays
        # below (sentences + tokens) x (distinct tokens): int64 holds it
        bound = len(refs)
        for n in range(1, self.max_n + 1):
            at = np.flatnonzero(left >= n)
            if not len(at):
                break
            keys, ids[at], counts = np.unique(ids[at] * vocab + codes[at + n - 1],
                                              return_inverse=True, return_counts=True)
            # a hypothesis key is below bound * vocab too, so it casts exactly
            self._keys.append(keys.astype(np.min_scalar_type(bound * vocab)))
            self._counts.append(counts.astype(np.min_scalar_type(int(counts.max()))))
            bound = len(keys)

    def __len__(self) -> int:
        return self._size

    def _matched(self, hyps) -> list[int]:
        """Each order's clipped matches of the coded ``hyps``, aligned with
        the references; orders above the longest reference match nothing."""
        vocab = len(self._table)
        lookup = np.fromiter((self._table.get(tok, vocab) for tok in hyps.tokens),
                             dtype=np.int64, count=len(hyps.tokens))
        codes = lookup[hyps.codes]
        lengths = hyps.lengths
        left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(codes))
        ids = np.repeat(np.arange(len(hyps)), lengths)
        # positions whose (n-1)-gram occurs in its reference
        at = np.arange(len(codes))
        matched = [0] * self.max_n
        for n, (keys, counts) in enumerate(zip(self._keys, self._counts), 1):
            at = at[left[at] >= n]
            last = codes[at + n - 1]
            present = last < vocab  # a token no reference holds ends the match
            at = at[present]
            query = (ids[at] * vocab + last[present]).astype(keys.dtype)
            found = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
            hit = keys[found] == query
            at, found = at[hit], found[hit]
            ids[at] = found
            matched[n - 1] = int(np.minimum(np.bincount(found, minlength=len(keys)), counts).sum())
        return matched


def corpus_bleu(hypotheses, references, max_n: int = 4) -> float:
    """Corpus-level BLEU in [0, 100].

    Modified n-gram precisions are aggregated over the whole corpus; the
    geometric mean runs over the orders that have any hypothesis n-grams;
    an order with zero matches contributes the floor 1 / (2 * total); zero
    unigram matches give exactly 0.  The brevity penalty exp(1 - r/c)
    applies when the hypothesis corpus is shorter than the references.

    ``references`` may be prepared as ``BleuReferences`` for this
    ``max_n``; a plain corpus is prepared here.  The hypotheses' n-grams are
    counted against it with ``searchsorted``, ``bincount`` and ``minimum``.
    Every count is an integer, so the float arithmetic is that of the
    textbook Counter loop and the score is the same bit for bit.
    """
    max_n = check_integer("max_n", max_n, 1)
    refs = (references if isinstance(references, BleuReferences)
            else BleuReferences(references, max_n))
    if refs.max_n != max_n:
        raise InvalidInputError(
            f"references prepared for max_n {refs.max_n} cannot score max_n {max_n}")
    hyps = coded(hypotheses)
    if len(hyps) != len(refs):
        raise InvalidInputError(_ALIGNED)
    matched = refs._matched(hyps)
    total = [int(np.maximum(hyps.lengths - n, 0).sum()) for n in range(max_n)]
    hyp_len = int(hyps.lengths.sum())
    ref_len = refs._length
    orders = [i for i in range(max_n) if total[i] > 0]
    if not orders or matched[0] == 0:
        return 0.0
    log_precision = 0.0
    for i in orders:
        precision = matched[i] / total[i] if matched[i] > 0 else 1.0 / (2.0 * total[i])
        log_precision += math.log(precision)
    geometric = math.exp(log_precision / len(orders))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * geometric


# -- quality / importance summaries ------------------------------------------

@dataclass
class QualityReport:
    mean_log_q: float
    bleu_vs_reference: float | None = None


@dataclass
class ImportanceReport:
    mean_log_importance: float


def _backward_pass(synthetic, backward: ChannelModel):
    """The coded synthetic sources and their backward log-probs given their
    targets."""
    sources, targets = coded_pairs(synthetic)
    if not len(sources):
        raise InvalidInputError("synthetic corpus must be non-empty")
    return sources, backward.batch_score(sources, targets)


def _quality(log_q: np.ndarray, sources, references) -> QualityReport:
    mean_log_q = float(np.mean(log_q))
    if not math.isfinite(mean_log_q):
        raise InvalidInputError("backward scores are not finite; check model smoothing")
    bleu = None
    if references is not None:
        refs = references if isinstance(references, BleuReferences) else coded(references)
        if len(refs) != len(sources):
            raise InconsistencyError("references must align one-to-one with synthetic pairs")
        bleu = corpus_bleu(sources, refs)
    return QualityReport(mean_log_q=mean_log_q, bleu_vs_reference=bleu)


def _importance(log_lm: np.ndarray, log_q: np.ndarray) -> ImportanceReport:
    mean = float(np.mean(log_lm - log_q))
    if not math.isfinite(mean):
        raise InvalidInputError("importance weights are not finite; check model smoothing")
    return ImportanceReport(mean_log_importance=mean)


def corpus_quality_report(synthetic: Sequence[SyntheticPair], backward: ChannelModel,
                          references=None) -> QualityReport:
    """Mean per-sentence backward log-likelihood of the synthetic sources,
    plus their BLEU against reference sources when those exist.
    ``synthetic`` may be given coded as its (sources, targets) pair."""
    sources, log_q = _backward_pass(synthetic, backward)
    return _quality(log_q, sources, references)


def corpus_importance_report(synthetic: Sequence[SyntheticPair], lm: NGramLM,
                             backward: ChannelModel) -> ImportanceReport:
    """Mean per-sentence log importance weight of the synthetic sources."""
    sources, log_q = _backward_pass(synthetic, backward)
    return _importance(lm.batch_score(sources), log_q)


def corpus_diagnostics(synthetic: Sequence[SyntheticPair], backward: ChannelModel, lm: NGramLM,
                       references, vocab) -> tuple[QualityReport, ImportanceReport, SpectrumReport]:
    """``corpus_quality_report``, ``corpus_importance_report`` and the sources'
    spectrum over ``vocab``, with one backward pass for the two reports.
    ``synthetic`` may be given coded as its (sources, targets) pair, and
    ``references`` coded or prepared (``BleuReferences``); then nothing is
    encoded."""
    sources, log_q = _backward_pass(synthetic, backward)
    return (_quality(log_q, sources, references),
            _importance(lm.batch_score(sources), log_q),
            singular_spectrum(sentence_representation_matrix(sources, vocab)))


# -- corpus profile -----------------------------------------------------------

@dataclass
class CorpusProfile:
    length_histogram: dict[int, int]
    token_frequency_histogram: dict[int, int]
    vocab_size: int


def corpus_profile(corpus) -> CorpusProfile:
    """Sentence-length histogram, power-of-two token-frequency histogram
    (bucket 2**k counts the token types with frequency in [2**k, 2**(k+1))),
    and the distinct-token count."""
    sentences = [tuple(s) for s in corpus]
    if not sentences:
        raise InvalidInputError("corpus must be non-empty")
    lengths = Counter(len(s) for s in sentences)
    token_freq = Counter(tok for s in sentences for tok in s)
    buckets: Counter = Counter()
    for freq in token_freq.values():
        buckets[2 ** int(math.floor(math.log2(freq)))] += 1
    return CorpusProfile(
        length_histogram=dict(sorted(lengths.items())),
        token_frequency_histogram=dict(sorted(buckets.items())),
        vocab_size=len(token_freq),
    )


# -- sentence representations and spectrum -------------------------------------

def sentence_representation_matrix(corpus, vocab) -> np.ndarray:
    """Rows are L2-normalized bag-of-token count vectors over ``vocab``.

    A token outside ``vocab`` or repeated in it is refused.  Counts are
    small integers, so each row's sum of squares is exact in any order and
    its norm is the correctly rounded square root.  An empty sentence gives
    a row of NaN (0 / 0).  ``corpus`` may be coded.
    """
    sentences = coded(corpus)
    if not len(sentences):
        raise InvalidInputError("corpus must be non-empty")
    vocab = tuple(vocab)
    index = dict(zip(vocab, range(len(vocab))))
    if len(index) < len(vocab):
        repeated = next(tok for i, tok in enumerate(vocab) if index[tok] != i)
        raise InvalidInputError(f"representation vocabulary repeats the token {repeated!r}")
    cols = sentences.codes_in(index)
    if len(index) > len(vocab):
        raise InvalidInputError(f"token {list(index)[len(vocab)]!r} is outside the "
                                "representation vocabulary")
    lengths = sentences.lengths
    matrix = np.zeros((len(sentences), len(vocab)))
    np.add.at(matrix, (np.repeat(np.arange(len(sentences)), lengths), cols), 1.0)
    matrix /= np.linalg.norm(matrix, axis=1)[:, None]
    return matrix


@dataclass
class SpectrumReport:
    singular_values: tuple[float, ...]
    normalized_spectral_entropy: float


# up to this order the Jacobi rotates rows of Python floats, above it numpy
# slices: a row rotation takes O(n) interpreted float operations, a slice
# rotation about 20 numpy calls whatever n is.  Rows over slices, per
# rotation on 2 cores: 0.5x the time at n = 20, 0.9x at 40, 1.0x at 44,
# 2x at 100, 4x at 200 and 9x at 400.
_FLOAT_ROWS_UP_TO = 40


def _jacobi_eigenvalues(sym: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric (Gram) matrix by cyclic Jacobi rotations
    (Golub & Van Loan, *Matrix Computations*, section 8.5).

    Converged when the off-diagonal Frobenius norm drops below ``tol``
    relative to the matrix norm; raises after ``max_sweeps`` full sweeps.
    A matrix whose norm overflows is refused: it would pass that test
    before any rotation.  Up to order ``_FLOAT_ROWS_UP_TO`` the matrix is
    held as rows of Python floats, and a rotation updates columns p and q
    in one loop over the rows and rows p and q in two comprehensions;
    above it, a rotation updates numpy slices.  Python's float ``*``, ``-``
    and ``+`` are the IEEE operations numpy applies element by element,
    without fused multiply-adds, so both give the same bits.
    """
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise InvalidInputError("matrix is too large: the norm of its Gram matrix overflows")
    if n == 1:
        return a.diagonal().copy()
    scale = max(norm, 1.0)
    off_diag = ~np.eye(n, dtype=bool)
    rows = a.tolist() if n <= _FLOAT_ROWS_UP_TO else a
    for _ in range(max_sweeps):
        # summed directly over off-diagonal entries: a full-norm/diagonal
        # subtraction would bottom out at the cancellation floor ~eps*|A|^2
        off = float(np.linalg.norm(np.asarray(rows)[off_diag]))
        if off <= tol * scale:
            return np.asarray(rows).diagonal().copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                # Python floats: an overflow of theta to inf gives t = 0
                # without numpy's warning
                apq = float(rows[p][q])
                if abs(apq) <= 1e-300:
                    continue
                theta = (float(rows[q][q]) - float(rows[p][p])) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                if rows is a:
                    rot_p = c * a[:, p] - s * a[:, q]
                    rot_q = s * a[:, p] + c * a[:, q]
                    a[:, p], a[:, q] = rot_p, rot_q
                    rot_p = c * a[p, :] - s * a[q, :]
                    rot_q = s * a[p, :] + c * a[q, :]
                    a[p, :], a[q, :] = rot_p, rot_q
                    continue
                for row in rows:
                    ap, aq = row[p], row[q]
                    row[p] = c * ap - s * aq
                    row[q] = s * ap + c * aq
                row_p, row_q = rows[p], rows[q]
                rows[p] = [c * x - s * y for x, y in zip(row_p, row_q)]
                rows[q] = [s * x + c * y for x, y in zip(row_p, row_q)]
    raise NumericError(f"Jacobi iteration did not converge within {max_sweeps} sweeps")


def singular_spectrum(matrix) -> SpectrumReport:
    """Descending singular values via Jacobi eigendecomposition of the
    smaller Gram matrix, plus the entropy of the squared spectrum
    normalized by log(min(rows, cols))."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError("matrix must be 2-D and non-empty")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    # the product overflows once entries near 1e154, its norm near 1e77
    # (sooner in a larger matrix); the Jacobi refuses an infinite norm
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    eigenvalues = np.clip(_jacobi_eigenvalues(gram), 0.0, None)
    singular = np.sqrt(np.sort(eigenvalues)[::-1])
    energy = singular**2
    total = float(energy.sum())
    if total <= 0.0:
        raise InvalidInputError("matrix is degenerate (zero Frobenius norm)")
    shares = energy / total
    # 0.0 - sum, not -sum: a rank-one spectrum's zero sum stays +0.0, not -0.0
    entropy = 0.0 - float((shares[shares > 0.0] * np.log(shares[shares > 0.0])).sum())
    bound = min(a.shape)
    normalized = entropy / math.log(bound) if bound > 1 else 0.0
    return SpectrumReport(
        singular_values=tuple(float(v) for v in singular),
        normalized_spectral_entropy=normalized,
    )
