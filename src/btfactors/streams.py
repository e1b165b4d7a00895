"""Deterministic random-stream derivation.

Every stochastic operation takes an explicit ``numpy.random.Generator``.
Per-sentence streams are derived from (global seed, sentence index), so a
corpus pass gives identical results regardless of scheduling or worker
count.  Namespaces keep task-generation streams, per-sentence streams, and
corpus-split streams disjoint under one global seed.  Every seed, key,
sentence id and draw count goes through ``errors.check_integer`` with a
floor of 0, so a float is refused rather than truncated.

``sentence_uniforms`` draws from many sentence streams at once and returns
exactly what ``sentence_stream(seed, id).random(count)`` returns for each
id, by numpy's own rule (``SeedSequence`` feeding ``PCG64``) without
building a ``SeedSequence`` and a ``Generator`` per sentence:

* numpy supplies the pool: the entropy words of (seed, namespace) are the
  same for every id, and ``SeedSequence(seed, spawn_key=(1,)).pool`` is the
  pool they leave, built once per call;
* only the id's last entropy word, ``generate_state(4, uint64)`` and PCG64
  seeding are hand-written.  The first two run as vectorised uint32
  operations over all ids; PCG64's two-step seeding runs in Python ints,
  and each id's state is set on one reused ``PCG64`` before its draws.

An id of 2**32 or more is two entropy words and goes through
``sentence_stream`` itself.  Each call also derives the state of its first
batched id through ``sentence_stream`` and raises ``InconsistencyError`` if
the two differ, so a numpy release that changes the stream algorithm fails
loudly instead of returning other doubles.
"""

from __future__ import annotations

import numpy as np

from .errors import InconsistencyError, InvalidInputError, check_integer

_NS_TASK = 0
_NS_SENTENCE = 1

# phase tags inside the task namespace
TAG_TRUTH_LM = 0
TAG_TRUTH_CHANNEL = 1
TAG_CORPUS = 2

# numpy's SeedSequence (pool of four uint32 words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def derive_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, *key); stable across platforms."""
    seed = check_integer("seed", seed, 0)
    spawn_key = tuple(check_integer("stream key", k, 0) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


def task_stream(seed: int, tag: int) -> np.random.Generator:
    """Stream for one phase of toy-task generation."""
    return derive_stream(seed, _NS_TASK, tag)


def sentence_stream(seed: int, target_id: int) -> np.random.Generator:
    """Stream for all stochastic choices tied to one target sentence."""
    target_id = check_integer("target_id", target_id, 0)
    return derive_stream(seed, _NS_SENTENCE, target_id)


def split_stream(seed: int) -> np.random.Generator:
    """Stream driving a corpus split shuffle."""
    return derive_stream(seed)


# -- batched sentence streams ---------------------------------------------------

def _hashmix(value, const: int, mult: int):
    """SeedSequence's hash of a uint32 array of words and the next hash
    constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _pcg64_states(seed: int, ids: np.ndarray) -> list[dict]:
    """The state of ``PCG64(SeedSequence(seed, spawn_key=(1, id)))`` for
    each of the uint32 ``ids``, as ``PCG64.state`` reads it."""
    # numpy's pool after every entropy word but the id, and the hash constant
    # after its four hashes per word: the seed's words, padded to the pool
    # size because a spawn key follows, and the namespace word
    prefix = np.random.SeedSequence(seed, spawn_key=(_NS_SENTENCE,)).pool.tolist()
    words = max(_POOL_SIZE, -(-seed.bit_length() // 32)) + 1
    const = _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _MASK32
    pool = []
    for word in prefix:
        mixed, const = _hashmix(ids, const, _MULT_A)
        pool.append(_mix(word, mixed))
    # generate_state(4, np.uint64): eight uint32 words, paired little-endian
    const, halves = _INIT_B, []
    for k in range(2 * _POOL_SIZE):
        mixed, const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
        halves.append(mixed.astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (halves[2 * j] | halves[2 * j + 1] << np.uint64(32)).tolist() for j in range(4))
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        # pcg_setseq_128_srandom_r: step from 0, add the seed, step again
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = (((inc + (s_hi << 64 | s_lo)) & _MASK128) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def sentence_uniforms(seed: int, ids, counts):
    """For each id in ``ids``, ``sentence_stream(seed, id).random(count)``.

    ``counts`` is one count for every id, giving a (len(ids), count) array,
    or one count per id, giving a list of (count,) arrays.  Bit-identical to
    the per-sentence streams (see the module docstring); raises
    ``InconsistencyError`` if the installed numpy derives streams otherwise.
    """
    seed = check_integer("seed", seed, 0)
    ids = [check_integer("target_id", i, 0) for i in ids]
    if np.ndim(counts) == 0:
        out = np.empty((len(ids), check_integer("count", counts, 0)))
    else:
        out = [np.empty(check_integer("count", c, 0)) for c in counts]
        if len(out) != len(ids):
            raise InvalidInputError(f"{len(ids)} ids need as many counts, got {len(out)}")
    batched = [k for k, i in enumerate(ids) if i <= _MASK32]
    for k, i in enumerate(ids):
        if i > _MASK32:
            sentence_stream(seed, i).random(out=out[k])
    if batched:
        states = _pcg64_states(seed, np.array([ids[k] for k in batched], dtype=np.uint32))
        first = ids[batched[0]]
        if sentence_stream(seed, first).bit_generator.state != states[0]:
            raise InconsistencyError(
                "numpy's sentence streams no longer match the batched derivation "
                f"(seed {seed}, id {first})"
            )
        generator = np.random.Generator(np.random.PCG64(0))
        for k, state in zip(batched, states):
            generator.bit_generator.state = state
            generator.random(out=out[k])
    return out
