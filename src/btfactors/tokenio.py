"""Token conventions and text serialization.

Tokens are hashable scalars: the toy task uses small ints, but plain strings
work anywhere.  Three reserved string markers never collide with content
tokens: BOS (context padding), EOS (end-of-sequence event), UNK (stand-in
for out-of-vocabulary tokens at score time).

Text reads canonical decimals back as ints, so a string token spelled as
one (``"7"``) cannot be written: it would come back as a different token.

A record (a corpus sentence, a model line, a config line) ends at ``"\\n"``
only; ``record_lines`` splits text so.  Other Unicode line separators
(U+2028, U+2029, U+0085, ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``) are
whitespace inside a record.

Both conversions are memoised, because every reader and writer converts the
same few tokens over and over.  ``token_from_str`` caches on the text.
``token_to_str`` caches tokens whose exact type is ``int`` or ``str`` (the
types the readers produce), where equal values always have equal text;
every other token -- bools, floats (``0.0 == -0.0``), numpy scalars,
tuples, subclasses, unhashable objects -- is converted uncached.  Each cache
holds at most 2**16 entries.  Errors are never cached: an unwritable token
raises the same ParseError on every call.

A corpus is coded once, as a ``CodedCorpus``: its distinct tokens in
first-seen order, its flat int64 codes into them and its sentence lengths.
``encode`` is the one function that codes tokens in Python.  Code that
already holds a corpus as indices into a vocabulary (the decoders, the task
generator) builds it with ``CodedCorpus.from_indices``, and ``take``,
``concat`` and ``with_end`` make new corpora from old codes; all of these
run in numpy.  A consumer moves a corpus into its own code space with
``codes_in(table)``: one ``setdefault`` per distinct token and one gather,
giving the codes, and leaving ``table`` in the order, that coding the
sentences token by token into ``table`` would give.
"""

from __future__ import annotations

import functools
import re
from itertools import chain, islice

import numpy as np

from .errors import ParseError

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

RESERVED = (BOS, EOS, UNK)
# only canonical ASCII decimals read back as ints, so "007", "-0" and
# non-ASCII digits stay distinct string tokens and round-trip unchanged
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")
# distinct tokens each conversion remembers; far above any toy vocabulary
_CACHE_SIZE = 1 << 16
# types whose equal values always have equal text, so a cache keyed on the
# value cannot hand one token another's text
_CACHED_TYPES = frozenset({int, str})


def _token_text(token) -> str:
    """``token_to_str`` without the cache."""
    text = str(token)
    if not text or any(ch.isspace() for ch in text) or "|" in text:
        raise ParseError(f"token {token!r} cannot be serialized (whitespace or '|')")
    if isinstance(token, str) and _INT_RE.fullmatch(text):
        raise ParseError(f"string token {token!r} would read back as the int {text}")
    return text


_cached_token_text = functools.lru_cache(maxsize=_CACHE_SIZE)(_token_text)


def token_to_str(token) -> str:
    """The text of ``token``; ParseError if it has whitespace or ``|``, is
    empty, or is a string that would read back as an int."""
    if type(token) in _CACHED_TYPES:
        return _cached_token_text(token)
    return _token_text(token)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def token_from_str(text: str):
    """The token ``text`` spells: an int for a canonical decimal, else the
    string itself (a reserved marker included)."""
    if _INT_RE.fullmatch(text):
        return int(text)
    return text


def token_sort_key(token) -> str:
    # sort by serialized form so mixed int/str vocabularies order stably
    return str(token)


def sequence_to_str(tokens) -> str:
    return " ".join(map(token_to_str, tokens))


def sequence_from_str(text: str) -> tuple:
    return tuple(map(token_from_str, text.split()))


class CodedCorpus:
    """A corpus of token sequences, coded once.

    ``tokens`` holds the distinct tokens in the order they are first seen,
    ``codes`` every token of every sentence, flat, as its int64 index into
    ``tokens``, and ``lengths`` each sentence's length.  Tokens are distinct
    as dict keys are, so equal tokens of different types (``1``, ``True``)
    share the code of the first one seen.  Iterating gives the sentences as
    tuples.
    """

    __slots__ = ("tokens", "codes", "lengths")

    def __init__(self, tokens: tuple, codes: np.ndarray, lengths: np.ndarray):
        self.tokens = tokens
        self.codes = codes
        self.lengths = lengths

    @classmethod
    def from_indices(cls, vocab, index, lengths) -> "CodedCorpus":
        """The corpus whose flat tokens are ``vocab[index]``: the vocabulary
        entries it uses, ordered by the first position of each (one
        ``np.minimum.at`` pass, no sort of the corpus).  The entries of
        ``vocab`` that ``index`` uses must be distinct."""
        index = np.asarray(index, dtype=np.int64).ravel()
        first = np.full(len(vocab), len(index))
        np.minimum.at(first, index, np.arange(len(index)))
        used = np.flatnonzero(first < len(index))
        used = used[np.argsort(first[used])]
        remap = np.empty(len(vocab), dtype=np.int64)
        remap[used] = np.arange(len(used))
        return cls(tuple(vocab[i] for i in used.tolist()), remap[index],
                   np.asarray(lengths, dtype=np.intp))

    @classmethod
    def concat(cls, corpora) -> "CodedCorpus":
        """The sentences of ``corpora``, one corpus after the other."""
        table: dict = {}
        codes = [corpus.codes_in(table) for corpus in corpora]
        return cls(tuple(table), np.concatenate(codes, dtype=np.int64),
                   np.concatenate([corpus.lengths for corpus in corpora], dtype=np.intp))

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        # one element per token, so equal-length tuple tokens stay tokens
        tokens = np.fromiter(self.tokens, dtype=object, count=len(self.tokens))
        flat = iter(tokens[self.codes].tolist())
        return (tuple(islice(flat, n)) for n in self.lengths.tolist())

    @property
    def starts(self) -> np.ndarray:
        """Each sentence's offset into ``codes``."""
        return np.cumsum(self.lengths) - self.lengths

    def codes_in(self, table: dict) -> np.ndarray:
        """Every token, flat, as its int64 code in ``table``, which maps
        tokens to 0 .. len(table) - 1 and gains each token it lacks, with
        the next code, in the order tokens are first seen."""
        lookup = np.fromiter((table.setdefault(tok, len(table)) for tok in self.tokens),
                             dtype=np.int64, count=len(self.tokens))
        return lookup[self.codes]

    def take(self, ids) -> "CodedCorpus":
        """The sentences at positions ``ids``, in that order."""
        ids = np.asarray(ids, dtype=np.intp)
        lengths = self.lengths[ids]
        offsets = self.starts[ids] - (np.cumsum(lengths) - lengths)
        at = np.repeat(offsets, lengths) + np.arange(int(lengths.sum()))
        return CodedCorpus.from_indices(self.tokens, self.codes[at], lengths)

    def with_end(self, token) -> "CodedCorpus":
        """Every sentence followed by ``token``, coded as ``encode`` codes
        those sentences."""
        size = len(self.tokens)
        code = dict(zip(self.tokens, range(size))).get(token, size)
        return CodedCorpus.from_indices((*self.tokens, token),
                                        np.insert(self.codes, np.cumsum(self.lengths), code),
                                        self.lengths + 1)


def encode(seqs) -> CodedCorpus:
    """``seqs`` coded: the one coder that reads tokens in Python, once
    each.  Iterates in C."""
    seqs = list(map(tuple, seqs))
    flat = list(chain.from_iterable(seqs))
    tokens = tuple(dict.fromkeys(flat))
    index = dict(zip(tokens, range(len(tokens))))
    return CodedCorpus(tokens,
                       np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat)),
                       np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs)))


def coded(seqs) -> CodedCorpus:
    """``seqs`` if it is coded already, else ``encode(seqs)``."""
    return seqs if isinstance(seqs, CodedCorpus) else encode(seqs)


def record_lines(text: str) -> list[str]:
    """``text`` split into records at ``"\\n"``; a final ``"\\n"`` ends the
    last record rather than starting an empty one."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines
