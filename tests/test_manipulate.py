import numpy as np
import pytest

import btfactors.manipulate as manipulate
from btfactors.errors import InconsistencyError, InvalidInputError
from btfactors.manipulate import (
    MixedSyntheticCorpus,
    MonoCorpus,
    SplitPlan,
    SyntheticPair,
    assemble_mixed_corpus,
    split_monolingual,
)


def mono(n):
    return MonoCorpus(sentences=tuple((i, i + 1) for i in range(n)))


def stub_pair(i, provenance):
    return SyntheticPair(source=(100 + i,), target=(i, i + 1), provenance=provenance)


def pairs_for(ids, provenance):
    return {i: stub_pair(i, provenance) for i in ids}


# -- corpus and plan invariants ---------------------------------------------------

def test_mono_corpus_rejects_empty():
    with pytest.raises(InvalidInputError):
        MonoCorpus(sentences=())
    with pytest.raises(InvalidInputError):
        MonoCorpus(sentences=((1,), ()))


def test_plan_requires_partition():
    with pytest.raises(InvalidInputError):
        SplitPlan(gamma=0.5, seed=0, beam_ids=(0, 1), sampling_ids=(1, 2))
    with pytest.raises(InvalidInputError):
        SplitPlan(gamma=0.5, seed=0, beam_ids=(0,), sampling_ids=(2,))


def test_synthetic_pair_validation():
    with pytest.raises(InvalidInputError):
        SyntheticPair(source=(), target=(1,), provenance="beam")
    with pytest.raises(InvalidInputError):
        SyntheticPair(source=(1,), target=(2,), provenance="mystery")


# -- split sizes -------------------------------------------------------------------

def test_split_half_of_ten():
    plan = split_monolingual(mono(10), 0.5, 0)
    assert len(plan.beam_ids) == 5
    assert len(plan.sampling_ids) == 5


def test_split_floor_of_odd_size():
    plan = split_monolingual(mono(7), 0.5, 0)
    assert len(plan.beam_ids) == 3


def test_split_boundaries():
    assert split_monolingual(mono(10), 0.0, 3).beam_ids == ()
    assert len(split_monolingual(mono(10), 1.0, 3).beam_ids) == 10


def test_split_decimal_ratio_floor_is_exact():
    # 0.7 * 10 must floor to 7 despite the binary representation of 0.7
    plan = split_monolingual(mono(10), 0.7, 3)
    assert len(plan.beam_ids) == 7


def test_split_rejects_bad_gamma():
    with pytest.raises(InvalidInputError):
        split_monolingual(mono(5), -0.1, 0)
    with pytest.raises(InvalidInputError):
        split_monolingual(mono(5), 1.1, 0)


def test_split_partitions_indices():
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        for seed in (0, 1, 2):
            plan = split_monolingual(mono(23), gamma, seed)
            ids = sorted(plan.beam_ids + plan.sampling_ids)
            assert ids == list(range(23))
            assert not set(plan.beam_ids) & set(plan.sampling_ids)


def test_split_deterministic_and_seed_sensitive():
    a = split_monolingual(mono(50), 0.5, 1)
    b = split_monolingual(mono(50), 0.5, 1)
    c = split_monolingual(mono(50), 0.5, 2)
    assert a == b
    assert a.beam_ids != c.beam_ids


def test_split_shuffle_regression_pin():
    # frozen output of the seeded Fisher-Yates shuffle
    plan = split_monolingual(mono(10), 0.5, 7)
    assert plan.beam_ids == (0, 1, 2, 4, 7)
    assert plan.sampling_ids == (3, 5, 6, 8, 9)


class RecordingStream:
    """A generator's ``integers`` that keeps every value it hands out."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, []

    def integers(self, *args, **kwargs):
        out = self.rng.integers(*args, **kwargs)
        self.drawn.extend(np.ravel(out).tolist())
        return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1000, 3000])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 2**40 + 9])
def test_split_draws_the_scalar_loops_js_and_leaves_its_generator(monkeypatch, n, seed):
    # the reference: one rng.integers(0, i + 1) call per Fisher-Yates step
    split_stream = manipulate.split_stream
    want_rng = split_stream(seed)
    want_js = [int(want_rng.integers(0, i + 1)) for i in range(n - 1, 0, -1)]
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), want_js):
        order[i], order[j] = order[j], order[i]
    streams = []

    def recorded(seed):
        streams.append(RecordingStream(split_stream(seed)))
        return streams[-1]

    monkeypatch.setattr(manipulate, "split_stream", recorded)
    plan = split_monolingual(range(n), 0.5, seed)
    (got,) = streams
    assert got.drawn == want_js
    # the state holds the pending 32-bit half (has_uint32, uinteger) too
    assert got.rng.bit_generator.state == want_rng.bit_generator.state
    assert plan.beam_ids == tuple(sorted(order[: n // 2]))
    assert plan.sampling_ids == tuple(sorted(order[n // 2 :]))


# -- assembly ------------------------------------------------------------------------

def test_assemble_merges_in_original_order():
    plan = split_monolingual(mono(10), 0.5, 7)
    corpus = assemble_mixed_corpus(
        plan, pairs_for(plan.beam_ids, "beam"), pairs_for(plan.sampling_ids, "sampling")
    )
    assert len(corpus.pairs) == 10
    assert [p.source for p in corpus.pairs] == [(100 + i,) for i in range(10)]
    for i, pair in enumerate(corpus.pairs):
        expected = "beam" if i in plan.beam_ids else "sampling"
        assert pair.provenance == expected


def test_assemble_counts_match_plan():
    plan = split_monolingual(mono(10), 0.5, 0)
    corpus = assemble_mixed_corpus(
        plan, pairs_for(plan.beam_ids, "beam"), pairs_for(plan.sampling_ids, "sampling")
    )
    tags = [p.provenance for p in corpus.pairs]
    assert tags.count("beam") == 5 and tags.count("sampling") == 5


def test_assemble_pure_beam_boundary():
    plan = split_monolingual(mono(6), 1.0, 0)
    corpus = assemble_mixed_corpus(plan, pairs_for(range(6), "beam"), {})
    assert all(p.provenance == "beam" for p in corpus.pairs)


def test_assemble_pure_sampling_equals_sampling_corpus():
    plan = split_monolingual(mono(6), 0.0, 0)
    sampling_pairs = pairs_for(range(6), "sampling")
    corpus = assemble_mixed_corpus(plan, {}, sampling_pairs)
    assert list(corpus.pairs) == [sampling_pairs[i] for i in range(6)]


def test_assemble_rejects_missing_or_extra_indices():
    plan = split_monolingual(mono(6), 0.5, 0)
    beam = pairs_for(plan.beam_ids, "beam")
    sampling = pairs_for(plan.sampling_ids, "sampling")
    missing = dict(beam)
    missing.pop(plan.beam_ids[0])
    with pytest.raises(InconsistencyError):
        assemble_mixed_corpus(plan, missing, sampling)
    extra = dict(sampling)
    extra[99] = stub_pair(99, "sampling")
    with pytest.raises(InconsistencyError):
        assemble_mixed_corpus(plan, beam, extra)


def test_assemble_rejects_mismatched_provenance():
    plan = split_monolingual(mono(6), 0.5, 0)
    wrong = pairs_for(plan.beam_ids, "sampling")
    with pytest.raises(InconsistencyError):
        assemble_mixed_corpus(plan, wrong, pairs_for(plan.sampling_ids, "sampling"))


def test_mixed_corpus_size_invariant():
    plan = split_monolingual(mono(4), 0.5, 0)
    with pytest.raises(InvalidInputError):
        MixedSyntheticCorpus(pairs=(stub_pair(0, "beam"),), plan=plan)
