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
"""

from __future__ import annotations

import functools
import re
from itertools import chain

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
    """The token ``text`` spells: a reserved marker, an int for a canonical
    decimal, else the string itself."""
    if text == BOS:
        return BOS
    if text == EOS:
        return EOS
    if text == UNK:
        return UNK
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


def encode(seqs, codes: dict) -> np.ndarray:
    """Every token of ``seqs``, flat, as its int64 code in ``codes``, which
    maps tokens to 0 .. len(codes) - 1 and gains each token it lacks, with
    the next code, in the order tokens are first seen.  Iterates in C."""
    flat = list(chain.from_iterable(seqs))
    fresh = [tok for tok in dict.fromkeys(flat) if tok not in codes]
    codes.update(zip(fresh, range(len(codes), len(codes) + len(fresh))))
    return np.fromiter(map(codes.__getitem__, flat), dtype=np.int64, count=len(flat))


def record_lines(text: str) -> list[str]:
    """``text`` split into records at ``"\\n"``; a final ``"\\n"`` ends the
    last record rather than starting an empty one."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines
