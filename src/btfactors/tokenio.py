"""Token conventions and text serialization.

Tokens are hashable scalars: the toy task uses small ints, but plain strings
work anywhere.  Three reserved string markers never collide with content
tokens: BOS (context padding), EOS (end-of-sequence event), UNK (stand-in
for out-of-vocabulary tokens at score time).

Text reads canonical decimals back as ints, so a string token spelled as
one (``"7"``) cannot be written: it would come back as a different token.
"""

from __future__ import annotations

import re

from .errors import ParseError

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

RESERVED = (BOS, EOS, UNK)
# only canonical ASCII decimals read back as ints, so "007", "-0" and
# non-ASCII digits stay distinct string tokens and round-trip unchanged
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")


def token_to_str(token) -> str:
    text = str(token)
    if not text or any(ch.isspace() for ch in text) or "|" in text:
        raise ParseError(f"token {token!r} cannot be serialized (whitespace or '|')")
    if isinstance(token, str) and _INT_RE.fullmatch(text):
        raise ParseError(f"string token {token!r} would read back as the int {text}")
    return text


def token_from_str(text: str):
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
    return " ".join(token_to_str(t) for t in tokens)


def sequence_from_str(text: str) -> tuple:
    return tuple(token_from_str(part) for part in text.split())
