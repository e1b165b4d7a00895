"""The memoised token codec equals the uncached conversions in any call order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from btfactors import tokenio
from btfactors.errors import ParseError
from btfactors.tokenio import (
    RESERVED,
    sequence_from_str,
    sequence_to_str,
    token_from_str,
    token_to_str,
)

# tokens whose types differ while their values compare equal, numerals that
# must stay strings, the markers, and tokens that cannot be written
EDGE_TOKENS = [
    0, 1, -1, 7, True, False, 0.0, -0.0, 1.0, 1.5, np.int64(1), np.int64(7), np.float64(-0.0),
    "1", "7", "007", "-0", "07", "+7", "\u0661", *RESERVED,
    "a b", "a\tb", "t\u2028u", "a|b", "|", "", (1,), (True,), (1.0,),
]
UNHASHABLE = st.sampled_from([[1], [True], [1, 2], {}, {"a": 1}, {1}, bytearray(b"x")])
TOKENS = st.one_of(
    st.sampled_from(EDGE_TOKENS),
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.floats(allow_nan=False, width=16),
    st.integers(-3, 3).map(np.int64),
    st.text(min_size=0, max_size=3),
    UNHASHABLE,
)


def outcome(convert, token):
    """What ``convert(token)`` returns, by value and type, or its error."""
    try:
        text = convert(token)
    except ParseError as exc:
        return ParseError, str(exc)
    return type(text), text


def clear_caches():
    tokenio._cached_token_text.cache_clear()
    token_from_str.cache_clear()


@settings(max_examples=300, deadline=None)
@given(calls=st.lists(TOKENS, min_size=1, max_size=30), data=st.data())
def test_cached_conversions_equal_the_uncached_ones_in_any_call_order(calls, data):
    clear_caches()
    # repeated calls read cached entries back, and an unwritable token must
    # raise on each of them; unhashable tokens must convert as uncached ones
    calls += data.draw(st.lists(st.sampled_from(calls), max_size=30))
    for token in calls:
        assert outcome(token_to_str, token) == outcome(tokenio._token_text, token)
        assert outcome(token_to_str, token) == outcome(tokenio._token_text, token)
        text = str(token)
        want = token_from_str.__wrapped__(text)
        assert (type(token_from_str(text)), token_from_str(text)) == (type(want), want)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.one_of(st.integers(), st.text(), st.sampled_from(EDGE_TOKENS))))
def test_writable_int_and_str_tokens_round_trip(tokens):
    tokens = tuple(t for t in tokens if type(t) in (int, str)
                   and outcome(tokenio._token_text, t)[0] is str)
    assert sequence_from_str(sequence_to_str(tokens)) == tokens
    assert [type(t) for t in sequence_from_str(sequence_to_str(tokens))] == [
        type(t) for t in tokens]


def test_caches_are_bounded():
    assert tokenio._cached_token_text.cache_info().maxsize == 2**16
    assert token_from_str.cache_info().maxsize == 2**16


HASHABLE_TOKENS = st.one_of(
    st.sampled_from(EDGE_TOKENS),
    st.integers(-3, 3),
    st.integers(-3, 3).map(np.int64),
    st.text(alphabet="ab", max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(seqs=st.lists(st.lists(HASHABLE_TOKENS, max_size=5), max_size=5),
       known=st.lists(HASHABLE_TOKENS, max_size=4))
def test_encode_codes_new_tokens_in_first_seen_order(seqs, known):
    codes = dict(zip(dict.fromkeys(known), range(len(known))))
    want = dict(codes)
    want_flat = [want.setdefault(tok, len(want)) for seq in seqs for tok in seq]
    flat = tokenio.encode(seqs).codes_in(codes)
    assert flat.dtype == np.int64 and flat.tolist() == want_flat
    assert list(codes.items()) == list(want.items())


def test_encode_extends_the_callers_codes():
    codes = {"<s>": 0}
    corpus = tokenio.encode([("b", "a"), (), ("a", "c", "<s>")])
    assert corpus.codes_in(codes).tolist() == [1, 2, 2, 3, 0]
    assert codes == {"<s>": 0, "b": 1, "a": 2, "c": 3}
    assert tokenio.encode([]).codes_in(codes).shape == (0,)
