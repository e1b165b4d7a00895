"""Count-based sequence models on one add-alpha count table.

``_CountTable`` keeps rows of event counts keyed by token tuples of one
fixed length and turns each row into a smoothed conditional:

    p(v | key) = (count + alpha) / (total + alpha * |events|)

Two thin subclasses fix what a key is:

* ``NGramLM``       p(x) = prod_t p(x_t | previous order-1 tokens); keys are
                    the order-1 token context, with an optional
                    end-of-sequence event.
* ``ChannelModel``  p(out | in) = prod_t p(out_t | out_{t-1}, in_t); keys are
                    (previous output, conditioning token), output length
                    equals input length.

Conventions of the table:

* The event space is the configured output vocabulary (plus the end marker
  for an LM with ``use_eos``).  BOS only ever appears in keys.
* Unseen keys score uniformly; with alpha == 0 an unseen key falls back to
  uniform as well, so conditionals always sum to 1.
* An out-of-vocabulary token at score time is treated like the reserved UNK
  event: a never-seen symbol scored at the alpha floor against its key's
  denominator (``_oov_term``).  It never joins the event space, so
  in-vocabulary probabilities stay an exact distribution.  The LM takes the
  log of that floor and the channel subtracts logs; the two round
  differently in the last bit, so each class keeps its own arithmetic.
* Counts may be fractional (the toy task's ground-truth models are stored
  as probability rows with alpha == 0), but alpha and every count must be
  finite and non-negative.

One key builder, ``_keys``, reads a coded corpus (``tokenio.CodedCorpus``)
and gives every position a compacted key id.  ``batch_score``, each
model's one scorer, gathers each position's term from a matrix of the
distinct keys' rows and adds each sequence's terms one position at a time
from 0.0, so a sequence scores the same bits alone or in any batch
(``lm_score`` and ``channel_score`` score one).  The trainers count (key
id, event) pairs with ``np.unique``.  The scorers and trainers take coded
corpora, or plain sequences, which they encode once on entry; a parallel
corpus may be given coded as its (sources, targets) pair of coded corpora
(``coded_pairs``).

``_CountTable.rows(keys)`` is the one row lookup: the prob and log matrices
whose row i belongs to ``keys[i]``.  Each consumer asks once for every key it
reads; the rows of keys not looked up before are filled in one numpy pass
(``_fill_rows``) and kept: models are immutable once built, and the trainers
fill ``counts`` before the first lookup.
Both serialize to a versioned text format with sorted keys, so training is
diffable and bit-reproducible: a magic line, header fields, the ``vocab``
line, then one ``<tag> <key tokens> | <token> <count> ...`` line per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from ..errors import InvalidInputError, ParseError, check_integer
from ..tokenio import (
    BOS,
    EOS,
    UNK,
    CodedCorpus,
    coded,
    encode,
    record_lines,
    sequence_from_str,
    token_from_str,
    token_sort_key,
    token_to_str,
)

__all__ = [
    "BOS",
    "EOS",
    "UNK",
    "ChannelModel",
    "NGramLM",
    "ParallelCorpus",
    "channel_score",
    "coded_pairs",
    "lm_score",
    "train_channel",
    "train_ngram_lm",
]

# the training defaults of the trainers, the experiment config and the CLI
DEFAULT_ALPHA = 0.1
DEFAULT_LM_ORDER = 2


@dataclass(frozen=True)
class ParallelCorpus:
    """Aligned (source, target) pairs; every pair is equal-length."""

    pairs: tuple[tuple[tuple, tuple], ...]

    def __post_init__(self):
        _check_pairs([len(src) for src, _ in self.pairs], [len(tgt) for _, tgt in self.pairs])

    def __len__(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_pairs(cls, pairs) -> "ParallelCorpus":
        return cls(pairs=tuple((tuple(s), tuple(t)) for s, t in pairs))

    def sources(self) -> list[tuple]:
        return [src for src, _ in self.pairs]

    def targets(self) -> list[tuple]:
        return [tgt for _, tgt in self.pairs]


def coded_pairs(pairs) -> tuple[CodedCorpus, CodedCorpus]:
    """The sources and targets of ``pairs`` as coded corpora.  ``pairs`` is
    that (sources, targets) pair already, a ``ParallelCorpus``, or a
    sequence of objects with ``source`` and ``target`` (``SyntheticPair``);
    each side of the last two is encoded once."""
    if isinstance(pairs, tuple) and len(pairs) == 2 and all(
            isinstance(side, CodedCorpus) for side in pairs):
        return pairs
    if isinstance(pairs, ParallelCorpus):
        return encode(pairs.sources()), encode(pairs.targets())
    return encode([p.source for p in pairs]), encode([p.target for p in pairs])


def _check_pairs(src_lengths, tgt_lengths) -> None:
    """Refuse a parallel corpus of these source and target lengths that is
    empty or holds an empty or unequal-length pair."""
    src, tgt = np.asarray(src_lengths, dtype=np.intp), np.asarray(tgt_lengths, dtype=np.intp)
    if len(src) != len(tgt):
        raise InvalidInputError(f"{len(src)} sources need as many targets, got {len(tgt)}")
    if not len(src):
        raise InvalidInputError("parallel corpus must be non-empty")
    bad = (src == 0) | (tgt == 0) | (src != tgt)
    if bad.any():
        i = int(bad.argmax())
        if not src[i] or not tgt[i]:
            raise InvalidInputError(f"pair {i}: sequences must be non-empty")
        raise InvalidInputError(f"pair {i}: source length {src[i]} != target length {tgt[i]}")


def _num_to_str(value) -> str:
    return repr(value) if isinstance(value, float) else str(int(value))


def _num_from_str(text: str):
    return int(text) if text.lstrip("-").isdigit() else float(text)


def _flag_from_str(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, got {text!r}")
    return text == "1"


class _CountTable:
    """Add-alpha rows of event counts keyed by token tuples of one length.

    A subclass names its text format (``_MAGIC``) and row tag (``_TAG``),
    sorts its events, and gives ``_keys`` its per-position keys and
    ``_sum_terms`` its own log arithmetic (``_term_rows``, ``_oov_term``).
    """

    _MAGIC: str
    _TAG: str

    def __init__(self, alpha, events: tuple, counts, key_len: int):
        if not (alpha >= 0 and math.isfinite(alpha)):
            raise InvalidInputError(f"alpha must be finite and non-negative, got {alpha!r}")
        self.alpha = alpha
        self._events = events
        self._index = {tok: i for i, tok in enumerate(events)}
        self.counts: dict[tuple, dict] = {}
        for key, row in (counts or {}).items():
            key = tuple(key)
            if len(key) != key_len:
                raise InvalidInputError(f"{self._TAG} {key!r} must have {key_len} tokens")
            for tok, cnt in row.items():
                if tok not in self._index:
                    raise InvalidInputError(f"count row token {tok!r} is outside the event space")
                if not (cnt >= 0 and math.isfinite(cnt)):
                    raise InvalidInputError(
                        f"count {cnt!r} of {tok!r} in {self._TAG} {key!r} "
                        "must be finite and non-negative"
                    )
            self.counts[key] = dict(row)
        self._prob_rows: dict[tuple, np.ndarray] = {}
        self._log_rows: dict[tuple, np.ndarray] = {}

    def _fill_rows(self, keys) -> None:
        """Fill the read-only prob and log rows of those of ``keys`` not
        filled yet, in one numpy pass: their counts scattered into one
        (keys, events) matrix, summed per row and divided add-alpha.  A row
        whose denominator is not positive is uniform.  Only the keys looked
        up are filled, so the rows kept grow with the lookups, not with the
        keys counted."""
        new = [key for key in dict.fromkeys(keys) if key not in self._prob_rows]
        if not new:
            return
        size = len(self._events)
        rows = [self.counts.get(key, {}) for key in new]
        counts = np.zeros((len(new), size))
        at_key = np.repeat(np.arange(len(new)),
                           np.array([len(row) for row in rows], dtype=np.intp))
        at_event = np.array([self._index[tok] for row in rows for tok in row], dtype=np.intp)
        counts[at_key, at_event] = np.array([cnt for row in rows for cnt in row.values()],
                                            dtype=float)
        denom = counts.sum(axis=1) + self.alpha * size
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = (counts + self.alpha) / denom[:, None]
            probs[denom <= 0.0] = 1.0 / size
            logs = np.log(probs)
        probs.setflags(write=False)
        logs.setflags(write=False)
        self._prob_rows.update(zip(new, probs))
        self._log_rows.update(zip(new, logs))

    def rows(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (len(keys), events) matrices of p(. | key) and its log:
        row i belongs to ``keys[i]``, and every prob row sums to 1.  The
        rows of keys not looked up before are filled in one pass."""
        self._fill_rows(keys)
        size = len(self._events)
        probs = np.array([self._prob_rows[key] for key in keys]).reshape(len(keys), size)
        logs = np.array([self._log_rows[key] for key in keys]).reshape(len(keys), size)
        probs.setflags(write=False)
        logs.setflags(write=False)
        return probs, logs

    def _oov_denom(self, key: tuple) -> float:
        """Denominator of the alpha floor an out-of-vocabulary token gets."""
        row = self.counts.get(key)
        total = sum(row.values()) if row else 0.0
        return total + self.alpha * len(self._events)

    # -- batched scoring --------------------------------------------------
    def _term_rows(self, keys) -> np.ndarray:
        """log p(. | key) over the events for each of ``keys``, in the
        subclass's log arithmetic."""
        raise NotImplementedError

    def _oov_term(self, key: tuple) -> float:
        """log of the alpha floor an out-of-vocabulary token gets under
        ``key``, from ``_oov_denom``; -inf where that floor is 0."""
        raise NotImplementedError

    def _keys(self, runs: CodedCorpus, back: int, conds: CodedCorpus | None = None):
        """The run lengths, the distinct tokens in code order, the flat token
        codes, each position's key id and event index (-1 outside the event
        space), and the keys in id order, of the coded ``runs``.

        Position t of ``runs[i]`` has the key made of the ``back`` tokens
        before it in the run (BOS-padded), followed by ``conds[i][t]`` when
        ``conds`` is given.  Key ids are compacted column by column with
        ``np.unique``, so a key code stays below positions x distinct tokens.
        """
        lengths = runs.lengths
        codes = {BOS: 0}    # code 0 also pads the keys before a run's start
        flat = runs.codes_in(codes)
        at = np.arange(len(flat))
        run_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
        columns = [np.where(at - b >= run_start, flat[np.maximum(at - b, 0)], 0)
                   for b in range(back, 0, -1)]
        if conds is not None:
            columns.append(conds.codes_in(codes))
        key_ids = np.zeros(len(flat), dtype=np.int64)
        for column in columns:
            _, key_ids = np.unique(key_ids * len(codes) + column, return_inverse=True)
        # any position of a key spells it out
        position = np.zeros(int(key_ids.max(initial=-1)) + 1, dtype=np.intp)
        position[key_ids] = at
        tokens = list(codes)
        keys = [tuple(tokens[column[j]] for column in columns) for j in position.tolist()]
        events = np.array([self._index.get(tok, -1) for tok in tokens], dtype=np.intp)[flat]
        return lengths, tokens, flat, key_ids, events, keys

    def _sum_terms(self, runs: CodedCorpus, back: int,
                   conds: CodedCorpus | None = None) -> np.ndarray:
        """Log-probability of every run under its ``_keys``: in-vocabulary
        terms are gathered from one (distinct keys x events) matrix of
        ``_term_rows``, out-of-vocabulary ones come from ``_oov_term``, and
        each run adds its terms one position at a time from 0.0, the order
        of a per-token loop (a pairwise ``.sum(axis=1)`` would round
        differently)."""
        lengths, _, _, key_ids, events, keys = self._keys(runs, back, conds)
        terms = self._term_rows(keys)[key_ids, events]
        for j in np.flatnonzero(events < 0).tolist():
            terms[j] = self._oov_term(keys[key_ids[j]])
        starts = np.cumsum(lengths) - lengths
        totals = np.zeros(len(runs))
        for t in range(int(lengths.max(initial=0))):
            live = np.flatnonzero(lengths > t)
            totals[live] += terms[starts[live] + t]
        return totals

    def _count(self, runs: CodedCorpus, back: int, conds: CodedCorpus | None,
               what: str) -> None:
        """Add the events of ``runs`` under their ``_keys`` to ``counts`` as
        Python ints, refusing the first token in corpus order that is no
        event, or is EOS before the end of its run, as ``what``."""
        lengths, tokens, flat, key_ids, events, keys = self._keys(runs, back, conds)
        ends = np.cumsum(lengths) - 1
        bad = (events < 0) | (events == self._index.get(EOS, -1))
        bad[ends] = events[ends] < 0
        if bad.any():
            token = tokens[flat[bad.argmax()]]
            raise InvalidInputError(f"{what} {token!r} is outside the vocabulary")
        size = len(self._events)
        pairs, counts = np.unique(key_ids * size + events, return_counts=True)
        for pair, count in zip(pairs.tolist(), counts.tolist()):
            key, event = divmod(pair, size)
            self.counts.setdefault(keys[key], {})[self._events[event]] = count

    # -- serialization ----------------------------------------------------
    def _text(self, fields: list[str], vocab) -> str:
        """Magic line, ``fields``, the vocab line, then one line per row."""
        lines = [self._MAGIC, *fields, "vocab " + " ".join(token_to_str(t) for t in vocab)]
        for key in sorted(self.counts, key=lambda k: tuple(map(token_sort_key, k))):
            row = self.counts[key]
            entries = " ".join(
                f"{token_to_str(t)} {_num_to_str(row[t])}"
                for t in sorted(row, key=token_sort_key)
            )
            lines.append(" ".join([self._TAG, *(token_to_str(t) for t in key), "|", entries]))
        return "\n".join(lines) + "\n"

    @classmethod
    def _parse(cls, text: str, fields: dict, key_len: int | None = None) -> tuple[dict, dict]:
        """Header values and count rows of a ``_text`` file.

        ``fields`` maps each required header key to the function that reads
        its value; ``vocab`` is always read.  A ``key_len`` checks each row
        key's length here, where the line number is known.
        """
        lines = record_lines(text)
        if not lines or lines[0].strip() != cls._MAGIC:
            raise ParseError(f"expected header {cls._MAGIC!r}", 1)
        values = {}
        counts: dict[tuple, dict] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            key, _, rest = line.partition(" ")
            try:
                if key in fields:
                    values[key] = fields[key](rest.strip())
                elif key == "vocab":
                    values["vocab"] = sequence_from_str(rest)
                elif key == cls._TAG:
                    key_text, _, entries = rest.partition("|")
                    row_key = sequence_from_str(key_text)
                    if key_len is not None and len(row_key) != key_len:
                        raise ValueError(f"{cls._TAG} must have {key_len} tokens")
                    parts = entries.split()
                    if len(parts) % 2 != 0:
                        raise ValueError("odd entry list")
                    counts[row_key] = {
                        token_from_str(parts[i]): _num_from_str(parts[i + 1])
                        for i in range(0, len(parts), 2)
                    }
                else:
                    raise ValueError(f"unknown key {key!r}")
            except (ValueError, InvalidInputError) as exc:
                raise ParseError(str(exc), lineno) from exc
        for required in (*fields, "vocab"):
            if required not in values:
                raise ParseError(f"missing field {required!r}")
        return values, counts


class NGramLM(_CountTable):
    """Add-alpha smoothed n-gram language model over hashable tokens."""

    _MAGIC = "btfactors-ngramlm v1"
    _TAG = "context"

    def __init__(self, order: int, alpha: float, vocab, counts=None, use_eos: bool = True):
        order = check_integer("order", order, 1)
        content = tuple(sorted(set(vocab), key=token_sort_key))
        if not content:
            raise InvalidInputError("vocabulary must be non-empty")
        if any(t in (BOS, EOS, UNK) for t in content):
            raise InvalidInputError("reserved markers cannot be content tokens")
        self.order = order
        self.use_eos = bool(use_eos)
        self.content_vocab = content
        self.event_vocab = content + ((EOS,) if use_eos else ())
        super().__init__(alpha, self.event_vocab, counts, self.order - 1)

    # -- vocabulary -----------------------------------------------------
    @property
    def vocab(self) -> set:
        full = set(self.event_vocab)
        if self.order > 1:
            full.add(BOS)
        return full

    def event_index(self, token) -> int | None:
        return self._index.get(token)

    # -- probabilities ---------------------------------------------------
    def batch_score(self, sequences) -> np.ndarray:
        """Natural-log probability of every sequence, including the
        end-of-sequence transition when the model has one, from one batched
        pass."""
        runs = coded(sequences)
        # the key of position t is the order-1 tokens before it, BOS-padded
        return self._sum_terms(runs.with_end(EOS) if self.use_eos else runs, self.order - 1)

    def _term_rows(self, keys) -> np.ndarray:
        # math.log of each prob, not np.log, which differs from it in the
        # last bit on a few entries
        probs = self.rows(keys)[0]
        return np.array([math.log(p) if p > 0.0 else -math.inf
                         for p in probs.ravel().tolist()]).reshape(probs.shape)

    def _oov_term(self, key: tuple) -> float:
        denom = self._oov_denom(key)
        p = self.alpha / denom if denom > 0.0 else 0.0
        return math.log(p) if p > 0.0 else -math.inf

    # -- serialization ----------------------------------------------------
    def to_text(self) -> str:
        return self._text(
            [f"order {self.order}", f"alpha {_num_to_str(self.alpha)}",
             f"eos {1 if self.use_eos else 0}"],
            self.content_vocab,
        )

    @classmethod
    def from_text(cls, text: str) -> "NGramLM":
        fields, counts = cls._parse(
            text, {"order": int, "alpha": _num_from_str, "eos": _flag_from_str}
        )
        return cls(
            order=fields["order"],
            alpha=fields["alpha"],
            vocab=fields["vocab"],
            counts=counts,
            use_eos=fields["eos"],
        )


class ChannelModel(_CountTable):
    """Equal-length conditional model, Markov in its own output."""

    DIRECTIONS = ("source_to_target", "target_to_source")
    _MAGIC = "btfactors-channel v1"
    _TAG = "state"

    def __init__(self, direction: str, alpha: float, out_vocab, counts=None):
        if direction not in self.DIRECTIONS:
            raise InvalidInputError(f"direction must be one of {self.DIRECTIONS}")
        vocab = tuple(sorted(set(out_vocab), key=token_sort_key))
        if not vocab:
            raise InvalidInputError("output vocabulary must be non-empty")
        if any(t in (BOS, EOS, UNK) for t in vocab):
            raise InvalidInputError("reserved markers cannot be output tokens")
        self.direction = direction
        self.out_vocab = vocab
        super().__init__(alpha, vocab, counts, 2)

    def out_index(self, token) -> int | None:
        return self._index.get(token)

    def batch_score(self, outputs, inputs) -> np.ndarray:
        """Natural-log probability of every output given its equal-length
        input, from one batched pass."""
        outputs, inputs = coded(outputs), coded(inputs)
        if len(outputs) != len(inputs):
            raise InvalidInputError(
                f"{len(outputs)} outputs need as many inputs, got {len(inputs)}"
            )
        unequal = outputs.lengths != inputs.lengths
        if unequal.any():
            i = int(unequal.argmax())
            raise InvalidInputError(
                f"output length {outputs.lengths[i]} != input length {inputs.lengths[i]}"
            )
        # the key of position t is (output[t - 1] or BOS, input[t])
        return self._sum_terms(outputs, 1, inputs)

    def _term_rows(self, keys) -> np.ndarray:
        return self.rows(keys)[1]

    def _oov_term(self, key: tuple) -> float:
        denom = self._oov_denom(key)
        if self.alpha > 0.0 and denom > 0.0:
            return math.log(self.alpha) - math.log(denom)
        return -math.inf

    # -- serialization ----------------------------------------------------
    def to_text(self) -> str:
        return self._text(
            [f"direction {self.direction}", f"alpha {_num_to_str(self.alpha)}"],
            self.out_vocab,
        )

    @classmethod
    def from_text(cls, text: str) -> "ChannelModel":
        fields, counts = cls._parse(text, {"direction": str, "alpha": _num_from_str}, key_len=2)
        return cls(
            direction=fields["direction"],
            alpha=fields["alpha"],
            out_vocab=fields["vocab"],
            counts=counts,
        )


# -- training -------------------------------------------------------------

def train_ngram_lm(corpus, order: int = DEFAULT_LM_ORDER, alpha: float = DEFAULT_ALPHA,
                   vocab=None, use_eos: bool = True) -> NGramLM:
    """Count-MLE n-gram model with add-alpha smoothing.

    ``vocab`` defaults to the tokens observed in ``corpus``; passing an
    explicit vocabulary fixes the event space (tokens outside it are a
    caller error at training time).
    """
    sentences = coded(corpus)
    if not len(sentences):
        raise InvalidInputError("training corpus must be non-empty")
    if not sentences.lengths.all():
        raise InvalidInputError("training sentences must be non-empty")
    if vocab is None:
        vocab = sorted(set(sentences.tokens), key=token_sort_key)
    model = NGramLM(order=order, alpha=alpha, vocab=vocab, use_eos=use_eos)
    runs = sentences.with_end(EOS) if model.use_eos else sentences
    model._count(runs, model.order - 1, None, "training token")
    return model


def train_channel(pairs, direction: str, alpha: float = DEFAULT_ALPHA,
                  out_vocab=None) -> ChannelModel:
    """Count-MLE channel with add-alpha smoothing.

    ``pairs`` is a ``ParallelCorpus`` or anything else ``coded_pairs``
    takes, such as its coded (sources, targets) pair.  ``direction`` picks
    which side is the output: ``source_to_target`` models p(target |
    source), ``target_to_source`` models p(source | target).
    """
    outputs, conds = coded_pairs(pairs)
    _check_pairs(outputs.lengths, conds.lengths)
    if direction == "source_to_target":
        outputs, conds = conds, outputs
    if out_vocab is None:
        out_vocab = sorted(set(outputs.tokens), key=token_sort_key)
    model = ChannelModel(direction=direction, alpha=alpha, out_vocab=out_vocab)
    model._count(outputs, 1, conds, "output token")
    return model


# -- module-level scoring wrappers -----------------------------------------

def lm_score(lm: NGramLM, sequence) -> float:
    return float(lm.batch_score([sequence])[0])


def channel_score(model: ChannelModel, output, input_seq) -> float:
    return float(model.batch_score([output], [input_seq])[0])
