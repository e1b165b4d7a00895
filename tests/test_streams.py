import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btfactors.streams as streams
from btfactors.errors import InconsistencyError, InvalidInputError
from btfactors.streams import derive_stream, sentence_stream, sentence_uniforms

IDS = st.one_of(st.integers(0, 2**16), st.integers(2**32 - 3, 2**32 + 5))


def reference_uniforms(seed, ids, counts):
    """One ``sentence_stream`` per id: the definition of the batched call."""
    if isinstance(counts, int):
        counts = [counts] * len(ids)
    return [sentence_stream(seed, i).random(c) for i, c in zip(ids, counts)]


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for row, expected in zip(got, want):
        assert row.dtype == np.float64 and row.shape == expected.shape
        assert row.tobytes() == expected.tobytes()


@settings(max_examples=120, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64), st.integers(0, 2**300),
                      st.sampled_from((0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128,
                                       2**160 + 3, 2**1000))),
       ids=st.lists(IDS, max_size=12), data=st.data())
def test_sentence_uniforms_equal_one_stream_per_id(seed, ids, data):
    counts = data.draw(st.one_of(st.integers(0, 400),
                                 st.lists(st.integers(0, 400), min_size=len(ids),
                                          max_size=len(ids))))
    got = sentence_uniforms(seed, ids, counts)
    if isinstance(counts, int):
        assert isinstance(got, np.ndarray) and got.shape == (len(ids), counts)
    assert_bitwise_equal(got, reference_uniforms(seed, ids, counts))


def test_sentence_uniforms_over_a_corpus_and_numpy_integers():
    ids = np.arange(3000)
    got = sentence_uniforms(np.uint64(7), ids, 3)
    assert_bitwise_equal(got, reference_uniforms(7, range(3000), 3))


@pytest.mark.parametrize("change", ["bit generator", "seed hashing", "pool"])
def test_a_numpy_that_derives_streams_otherwise_is_refused(monkeypatch, change):
    if change == "bit generator":
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seq: np.random.Generator(np.random.PCG64DXSM(seq)))
    elif change == "seed hashing":
        class Rehashed(np.random.SeedSequence):
            def generate_state(self, n_words, dtype=np.uint32):
                return super().generate_state(n_words, dtype) ^ dtype(1)

        monkeypatch.setattr(np.random, "SeedSequence", Rehashed)
    else:
        # the pool that the batched derivation reads; numpy's own seeding
        # keeps the true one
        class Repooled(np.random.SeedSequence):
            @property
            def pool(self):
                return super().pool ^ np.uint32(1)

        monkeypatch.setattr(np.random, "SeedSequence", Repooled)
    with pytest.raises(InconsistencyError):
        sentence_uniforms(3, [5, 6], 4)
    # ids that take the per-stream path only need no check
    [row] = sentence_uniforms(3, [2**32 + 1], 2)
    assert row.tobytes() == sentence_stream(3, 2**32 + 1).random(2).tobytes()


def test_stream_inputs_must_be_non_negative_integers():
    for bad_seed in (1.5, 2.0, np.float64(3.0), "4", -1, None):
        with pytest.raises(InvalidInputError):
            sentence_stream(bad_seed, 2)
        with pytest.raises(InvalidInputError):
            sentence_uniforms(bad_seed, [2], 1)
    for bad_id in (2.7, 2.0, "2", -1):
        with pytest.raises(InvalidInputError):
            sentence_stream(1, bad_id)
        with pytest.raises(InvalidInputError):
            sentence_uniforms(1, [0, bad_id], 1)
    for bad_counts in (1.0, -1, [1], [1, -2], [1, 2.0]):
        with pytest.raises(InvalidInputError):
            sentence_uniforms(1, [0, 1], bad_counts)
    with pytest.raises(InvalidInputError):
        derive_stream(1, 0.5)
    # integral numpy scalars are integers
    assert (sentence_stream(np.int64(1), np.int32(2)).random()
            == sentence_stream(1, 2).random())


@pytest.mark.parametrize("bad", [2.5, np.float64(2.0), -1])
def test_a_float_or_negative_id_or_count_gets_check_integers_message(bad):
    message = "must be >= 0" if bad == -1 else f"must be an integer, got {bad!r}"

    def refused(name, call):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{name} {message}')}$"):
            call()

    refused("target_id", lambda: sentence_stream(1, bad))
    refused("target_id", lambda: sentence_uniforms(1, [0, bad], 1))
    refused("count", lambda: sentence_uniforms(1, [0, 1], bad))
    refused("count", lambda: sentence_uniforms(1, [0, 1], [1, bad]))


def test_sentence_uniforms_make_one_checking_stream_per_call(monkeypatch):
    calls = []
    reference = streams.sentence_stream

    def counted(seed, target_id):
        calls.append(target_id)
        return reference(seed, target_id)

    monkeypatch.setattr(streams, "sentence_stream", counted)
    sentence_uniforms(0, range(9, 500), 5)
    assert calls == [9]
