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
  denominator.  It never joins the event space, so in-vocabulary
  probabilities stay an exact distribution.  The LM takes the log of that
  floor and the channel subtracts logs; the two round differently in the
  last bit, so each class keeps its own arithmetic.
* Counts may be fractional (the toy task's ground-truth models are stored
  as probability rows with alpha == 0), but alpha and every count must be
  finite and non-negative.

One key builder, ``_keys``, codes a corpus with ``tokenio.encode`` and
gives every position a compacted key id.  ``batch_score`` gathers each
position's term from a matrix of the distinct keys' rows and adds each
sequence's terms one position at a time from 0.0, as ``score`` does, so the
two agree bit for bit.  The trainers count (key id, event) pairs with
``np.unique``; the scalar ``score`` methods stay the reference.

Rows, log rows and stacked row matrices are cached: models are immutable
once built, and the trainers fill ``counts`` before the first lookup.
Both serialize to a versioned text format with sorted keys, so training is
diffable and bit-reproducible: a magic line, header fields, the ``vocab``
line, then one ``<tag> <key tokens> | <token> <count> ...`` line per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..errors import InvalidInputError, ParseError, check_integer
from ..tokenio import (
    BOS,
    EOS,
    UNK,
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
        if not self.pairs:
            raise InvalidInputError("parallel corpus must be non-empty")
        for i, (src, tgt) in enumerate(self.pairs):
            if not src or not tgt:
                raise InvalidInputError(f"pair {i}: sequences must be non-empty")
            if len(src) != len(tgt):
                raise InvalidInputError(
                    f"pair {i}: source length {len(src)} != target length {len(tgt)}"
                )

    def __len__(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_pairs(cls, pairs) -> "ParallelCorpus":
        return cls(pairs=tuple((tuple(s), tuple(t)) for s, t in pairs))

    def sources(self) -> list[tuple]:
        return [src for src, _ in self.pairs]

    def targets(self) -> list[tuple]:
        return [tgt for _, tgt in self.pairs]


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
    sorts its events, wraps ``_row``, ``_log_row`` and ``_stack`` in its
    own key shape, and gives ``_keys`` its per-position keys and
    ``_sum_terms`` its own log arithmetic (``_term_row``, ``_oov_term``).
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
        self._row_cache: dict[tuple, np.ndarray] = {}
        self._log_cache: dict[tuple, np.ndarray] = {}
        self._stacks: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _row(self, key: tuple) -> np.ndarray:
        """p(. | key) over the events; always sums to 1."""
        cached = self._row_cache.get(key)
        if cached is not None:
            return cached
        size = len(self._events)
        counts = np.zeros(size)
        row = self.counts.get(key)
        if row:
            for tok, cnt in row.items():
                counts[self._index[tok]] = cnt
        denom = counts.sum() + self.alpha * size
        if denom <= 0.0:
            probs = np.full(size, 1.0 / size)
        else:
            probs = (counts + self.alpha) / denom
        probs.setflags(write=False)
        self._row_cache[key] = probs
        return probs

    def _log_row(self, key: tuple) -> np.ndarray:
        cached = self._log_cache.get(key)
        if cached is not None:
            return cached
        with np.errstate(divide="ignore"):
            logs = np.log(self._row(key))
        logs.setflags(write=False)
        self._log_cache[key] = logs
        return logs

    def _oov_denom(self, key: tuple) -> float:
        """Denominator of the alpha floor an out-of-vocabulary token gets."""
        row = self.counts.get(key)
        total = sum(row.values()) if row else 0.0
        return total + self.alpha * len(self._events)

    def _stack(self, keys: tuple) -> tuple[np.ndarray, np.ndarray]:
        """(prob, log) matrices whose row i is the row of ``keys[i]``."""
        cached = self._stacks.get(keys)
        if cached is not None:
            return cached
        probs = np.stack([self._row(key) for key in keys])
        with np.errstate(divide="ignore"):
            logs = np.log(probs)
        probs.setflags(write=False)
        logs.setflags(write=False)
        self._stacks[keys] = (probs, logs)
        return probs, logs

    # -- batched scoring --------------------------------------------------
    def _term_row(self, key: tuple) -> np.ndarray:
        """log p(. | key) over the events, rounded as ``log_prob`` rounds it."""
        raise NotImplementedError

    def _oov_term(self, key: tuple, token) -> float:
        """``log_prob`` of an out-of-vocabulary token."""
        raise NotImplementedError

    def _keys(self, runs: list, back: int, conds: list | None = None):
        """The run lengths, the distinct tokens in code order, the flat token
        codes, each position's key id and event index (-1 outside the event
        space), and the keys in id order, of ``runs`` coded by ``encode``.

        Position t of ``runs[i]`` has the key made of the ``back`` tokens
        before it in the run (BOS-padded), followed by ``conds[i][t]`` when
        ``conds`` is given.  Key ids are compacted column by column with
        ``np.unique``, so a key code stays below positions x distinct tokens.
        """
        lengths = np.fromiter(map(len, runs), dtype=np.intp, count=len(runs))
        codes = {BOS: 0}    # code 0 also pads the keys before a run's start
        flat = encode(runs, codes)
        at = np.arange(len(flat))
        run_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
        columns = [np.where(at - b >= run_start, flat[np.maximum(at - b, 0)], 0)
                   for b in range(back, 0, -1)]
        if conds is not None:
            columns.append(encode(conds, codes))
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

    def _sum_terms(self, runs: list, back: int, conds: list | None = None) -> np.ndarray:
        """Log-probability of every run under its ``_keys``, bit for bit as
        ``score``: in-vocabulary terms are gathered from one (distinct keys x
        events) matrix of ``_term_row`` rows, out-of-vocabulary ones come
        from ``_oov_term``, and each run adds its terms one position at a
        time from 0.0, the order of the scalar loop (a pairwise
        ``.sum(axis=1)`` would round differently)."""
        lengths, tokens, flat, key_ids, events, keys = self._keys(runs, back, conds)
        rows = (np.stack([self._term_row(key) for key in keys]) if keys
                else np.empty((0, len(self._events))))
        terms = rows[key_ids, events]
        for j in np.flatnonzero(events < 0).tolist():
            terms[j] = self._oov_term(keys[key_ids[j]], tokens[flat[j]])
        starts = np.cumsum(lengths) - lengths
        totals = np.zeros(len(runs))
        for t in range(int(lengths.max(initial=0))):
            live = np.flatnonzero(lengths > t)
            totals[live] += terms[starts[live] + t]
        return totals

    def _count(self, runs: list, back: int, conds: list | None, what: str) -> None:
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
    def context_of(self, prefix) -> tuple:
        """Last order-1 tokens of ``prefix``, BOS-padded on the left."""
        need = self.order - 1
        prefix = tuple(prefix)
        if len(prefix) >= need:
            return prefix[len(prefix) - need :]
        return (BOS,) * (need - len(prefix)) + prefix

    def prob_row(self, context) -> np.ndarray:
        """p(. | context) over the event vocabulary; always sums to 1."""
        return self._row(tuple(context))

    def log_row(self, context) -> np.ndarray:
        return self._log_row(tuple(context))

    def prob(self, token, context) -> float:
        idx = self._index.get(token)
        if idx is not None:
            return float(self._row(tuple(context))[idx])
        # out-of-vocabulary: alpha-floor mass of a never-seen event
        denom = self._oov_denom(tuple(context))
        return self.alpha / denom if denom > 0.0 else 0.0

    def log_prob(self, token, context) -> float:
        p = self.prob(token, context)
        return math.log(p) if p > 0.0 else -math.inf

    def score(self, sequence) -> float:
        """Natural-log probability of ``sequence``, including the
        end-of-sequence transition when the model has one."""
        total = 0.0
        prefix: tuple = ()
        for tok in sequence:
            total += self.log_prob(tok, self.context_of(prefix))
            prefix = prefix + (tok,)
        if self.use_eos:
            total += self.log_prob(EOS, self.context_of(prefix))
        return total

    def batch_score(self, sequences) -> np.ndarray:
        """``score`` of every sequence, bit for bit, from one batched pass."""
        end = (EOS,) if self.use_eos else ()
        # the key of position t is context_of(run[:t])
        return self._sum_terms([(*seq, *end) for seq in sequences], self.order - 1)

    def _term_row(self, key: tuple) -> np.ndarray:
        # math.log, as log_prob takes it: np.log differs in the last bit
        # on a few entries
        return np.array([math.log(p) if p > 0.0 else -math.inf
                         for p in self._row(key).tolist()])

    def _oov_term(self, key: tuple, token) -> float:
        return self.log_prob(token, key)

    def bigram_log_matrix(self) -> np.ndarray:
        """(contexts x events) log matrix for order-2 models.

        Row 0 is the BOS context, row 1 + i the context (event_vocab[i],).
        Backs the vectorized scorer in ``decode``; only defined for order 2.
        """
        if self.order != 2:
            raise InvalidInputError("bigram matrix is only defined for order-2 models")
        return self._stack(((BOS,), *((tok,) for tok in self.event_vocab)))[1]

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

    def prob_row(self, prev, cond) -> np.ndarray:
        """p(. | prev output, conditioning token) over the output vocabulary."""
        return self._row((prev, cond))

    def log_row(self, prev, cond) -> np.ndarray:
        return self._log_row((prev, cond))

    def log_prob(self, token, prev, cond) -> float:
        idx = self._index.get(token)
        if idx is not None:
            return float(self._log_row((prev, cond))[idx])
        denom = self._oov_denom((prev, cond))
        if self.alpha > 0.0 and denom > 0.0:
            return math.log(self.alpha) - math.log(denom)
        return -math.inf

    def score(self, output, input_seq) -> float:
        """Natural-log probability of ``output`` given ``input_seq``."""
        output, input_seq = tuple(output), tuple(input_seq)
        if len(output) != len(input_seq):
            raise InvalidInputError(
                f"output length {len(output)} != input length {len(input_seq)}"
            )
        total = 0.0
        prev = BOS
        for out_tok, cond_tok in zip(output, input_seq):
            total += self.log_prob(out_tok, prev, cond_tok)
            prev = out_tok
        return total

    def batch_score(self, outputs, inputs) -> np.ndarray:
        """``score`` of every (output, input) pair, bit for bit, from one
        batched pass."""
        outputs = [tuple(seq) for seq in outputs]
        inputs = [tuple(seq) for seq in inputs]
        if len(outputs) != len(inputs):
            raise InvalidInputError(
                f"{len(outputs)} outputs need as many inputs, got {len(inputs)}"
            )
        for output, input_seq in zip(outputs, inputs):
            if len(output) != len(input_seq):
                raise InvalidInputError(
                    f"output length {len(output)} != input length {len(input_seq)}"
                )
        # the key of position t is (output[t - 1] or BOS, input[t])
        return self._sum_terms(outputs, 1, inputs)

    def _term_row(self, key: tuple) -> np.ndarray:
        return self._log_row(key)

    def _oov_term(self, key: tuple, token) -> float:
        return self.log_prob(token, *key)

    def matrices_for_cond(self, cond) -> tuple[np.ndarray, np.ndarray]:
        """(prob, log) matrices over prev states for one conditioning token.

        Row 0 is prev == BOS; row 1 + i is prev == out_vocab[i].  Backs the
        vectorized sampler and scorer in ``decode``.
        """
        return self._stack(((BOS, cond), *((prev, cond) for prev in self.out_vocab)))

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
    sentences = [tuple(s) for s in corpus]
    if not sentences:
        raise InvalidInputError("training corpus must be non-empty")
    if any(not s for s in sentences):
        raise InvalidInputError("training sentences must be non-empty")
    if vocab is None:
        vocab = sorted(set(chain.from_iterable(sentences)), key=token_sort_key)
    model = NGramLM(order=order, alpha=alpha, vocab=vocab, use_eos=use_eos)
    end = (EOS,) if model.use_eos else ()
    model._count([(*s, *end) for s in sentences], model.order - 1, None, "training token")
    return model


def train_channel(pairs: ParallelCorpus, direction: str, alpha: float = DEFAULT_ALPHA,
                  out_vocab=None) -> ChannelModel:
    """Count-MLE channel with add-alpha smoothing.

    ``direction`` picks which side is the output: ``source_to_target``
    models p(target | source), ``target_to_source`` models p(source |
    target).
    """
    outputs, conds = pairs.sources(), pairs.targets()
    if direction == "source_to_target":
        outputs, conds = conds, outputs
    if out_vocab is None:
        out_vocab = sorted(set(chain.from_iterable(outputs)), key=token_sort_key)
    model = ChannelModel(direction=direction, alpha=alpha, out_vocab=out_vocab)
    model._count(outputs, 1, conds, "output token")
    return model


# -- module-level scoring wrappers -----------------------------------------

def lm_score(lm: NGramLM, sequence) -> float:
    return lm.score(sequence)


def channel_score(model: ChannelModel, output, input_seq) -> float:
    return model.score(output, input_seq)
