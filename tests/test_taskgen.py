import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btfactors.errors import InvalidInputError
from btfactors.streams import TAG_CORPUS, task_stream
from btfactors.toyseq import ToyTaskSpec, generate_toy_task
from btfactors.toyseq.models import BOS


# -- reference oracle: the per-sentence specification of the corpus sampler --

def reference_sentence_pair(truth_lm, truth_channel, length, rng):
    """One (source, target) pair, one scalar draw per sampled token: the
    source walk masks the end marker, then the channel maps each token."""
    eos_idx = len(truth_lm.event_vocab) - 1
    source = []
    prev: tuple = (BOS,)
    for _ in range(length):
        row = truth_lm.prob_row(prev).copy()
        row[eos_idx] = 0.0
        row /= row.sum()
        idx = min(int(np.searchsorted(np.cumsum(row), float(rng.random()), side="right")),
                  eos_idx - 1)
        tok = truth_lm.event_vocab[idx]
        source.append(tok)
        prev = (tok,)
    target = []
    prev_out = BOS
    last = len(truth_channel.out_vocab) - 1
    for tok in source:
        cumulative = np.cumsum(truth_channel.prob_row(prev_out, tok))
        idx = min(int(np.searchsorted(cumulative, float(rng.random()), side="right")), last)
        prev_out = truth_channel.out_vocab[idx]
        target.append(prev_out)
    return tuple(source), tuple(target)


def reference_pairs(task):
    spec = task.spec
    rng = task_stream(spec.seed, TAG_CORPUS)
    lo, hi = spec.length_range
    total = spec.bitext_size + spec.mono_size + spec.test_size
    return [reference_sentence_pair(task.truth_lm, task.truth_channel,
                                    int(rng.integers(lo, hi + 1)), rng)
            for _ in range(total)]


@settings(max_examples=60, deadline=None)
@given(
    source_vocab=st.sampled_from((2, 5, 20)),
    target_vocab=st.sampled_from((2, 5, 20)),
    length_range=st.one_of(st.just((1, 1)), st.tuples(st.integers(1, 4), st.integers(0, 5))
                           .map(lambda t: (t[0], t[0] + t[1]))),
    noise=st.sampled_from((1e-12, 1e-6, 0.15, 0.5, 1 - 1e-6, 1 - 1e-12)),
    sizes=st.tuples(st.integers(1, 40), st.integers(1, 20), st.integers(1, 10)),
    seed=st.integers(0, 2**16),
)
def test_corpus_matches_per_sentence_reference(source_vocab, target_vocab, length_range,
                                               noise, sizes, seed):
    spec = ToyTaskSpec(source_vocab_size=source_vocab, target_vocab_size=target_vocab,
                       length_range=length_range, channel_noise=noise, bitext_size=sizes[0],
                       mono_size=sizes[1], test_size=sizes[2], seed=seed)
    task = generate_toy_task(spec)
    pairs = list(task.bitext.pairs + task.mono_refs.pairs + task.test.pairs)
    assert pairs == reference_pairs(task)


def test_same_seed_is_byte_identical():
    spec = ToyTaskSpec(bitext_size=150, mono_size=80, test_size=30, seed=21)
    a = generate_toy_task(spec)
    b = generate_toy_task(spec)
    assert a.bitext == b.bitext
    assert a.mono == b.mono
    assert a.test == b.test
    assert a.truth_lm.to_text() == b.truth_lm.to_text()
    assert a.truth_channel.to_text() == b.truth_channel.to_text()


def test_different_seeds_differ():
    spec = ToyTaskSpec(bitext_size=50, mono_size=20, test_size=10, seed=1)
    a = generate_toy_task(spec)
    b = generate_toy_task(spec.with_seed(2))
    assert a.bitext != b.bitext


def test_split_sizes_and_alignment():
    spec = ToyTaskSpec(bitext_size=120, mono_size=70, test_size=40, seed=4)
    task = generate_toy_task(spec)
    assert len(task.bitext) == 120
    assert len(task.mono) == 70
    assert len(task.mono_refs) == 70
    assert len(task.test) == 40
    assert tuple(task.mono_refs.targets()) == task.mono.sentences


def test_lengths_respect_the_range():
    spec = ToyTaskSpec(length_range=(3, 7), bitext_size=200, mono_size=50, test_size=20, seed=9)
    task = generate_toy_task(spec)
    for src, tgt in task.bitext.pairs:
        assert 3 <= len(src) <= 7
        assert len(src) == len(tgt)


def test_noiseless_limit_emits_the_deterministic_image():
    spec = ToyTaskSpec(channel_noise=1e-12, bitext_size=120, mono_size=30, test_size=20, seed=6)
    task = generate_toy_task(spec)
    channel = task.truth_channel
    mapping = {
        s: channel.out_vocab[int(np.argmax(channel.prob_row(BOS, s)))]
        for s in range(spec.source_vocab_size)
    }
    for src, tgt in task.bitext.pairs:
        assert tuple(mapping[s] for s in src) == tgt


def test_bitext_substitution_frequencies_match_truth():
    spec = ToyTaskSpec(bitext_size=10**4, mono_size=1, test_size=1, seed=13)
    task = generate_toy_task(spec)
    channel = task.truth_channel
    counts: dict = {}
    for src, tgt in task.bitext.pairs:
        for s, t in zip(src, tgt):
            row = counts.setdefault(s, {})
            row[t] = row.get(t, 0) + 1
    for s, row in counts.items():
        total = sum(row.values())
        if total < 500:
            continue  # rare source tokens have too little evidence for a tight check
        truth_row = channel.prob_row(BOS, s)
        for j, t in enumerate(channel.out_vocab):
            assert abs(row.get(t, 0) / total - float(truth_row[j])) <= 0.02


def test_truth_models_are_normalized():
    task = generate_toy_task(ToyTaskSpec(bitext_size=10, mono_size=5, test_size=5, seed=2))
    for ctx in [(BOS,)] + [(t,) for t in range(20)]:
        assert float(task.truth_lm.prob_row(ctx).sum()) == pytest.approx(1.0, abs=1e-9)
    for prev in (BOS, 0, 7):
        for cond in range(20):
            assert float(task.truth_channel.prob_row(prev, cond).sum()) == pytest.approx(
                1.0, abs=1e-9
            )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"source_vocab_size": 1},
        {"length_range": (5, 3)},
        {"length_range": (0, 3)},
        {"channel_noise": 0.0},
        {"channel_noise": 1.0},
        {"bitext_size": 0},
    ],
)
def test_degenerate_specs_are_rejected(kwargs):
    with pytest.raises(InvalidInputError):
        ToyTaskSpec(**kwargs)


# -- the task-key table ---------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    vocab=st.tuples(st.integers(2, 10**6), st.integers(2, 10**6)),
    length_range=st.tuples(st.integers(1, 50), st.integers(0, 50))
                   .map(lambda t: (t[0], t[0] + t[1])),
    noise=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    sizes=st.tuples(*[st.integers(1, 10**9)] * 3),
    seed=st.integers(0, 2**64),
)
def test_spec_round_trips_through_its_keys(vocab, length_range, noise, sizes, seed):
    spec = ToyTaskSpec(vocab[0], vocab[1], length_range, noise, *sizes, seed)
    keys = spec.keys()
    assert ToyTaskSpec.from_keys(keys, spec.seed) == spec
    # ints stay ints and the noise stays a float, as the manifest writes them
    assert {type(v) for k, v in keys.items() if k != "noise"} == {int}
    assert type(keys["noise"]) is float


def test_missing_keys_keep_their_defaults():
    assert ToyTaskSpec.from_keys({}) == ToyTaskSpec()
    assert ToyTaskSpec.from_keys({"max_len": 20, "mono": 7}, seed=3) == ToyTaskSpec(
        length_range=(4, 20), mono_size=7, seed=3)
    assert list(ToyTaskSpec().keys()) == [
        "source_vocab", "target_vocab", "min_len", "max_len", "noise", "bitext", "mono", "test"]


def test_unknown_task_keys_are_refused():
    with pytest.raises(InvalidInputError, match=r"^unknown task keys: \['beta', 'seed'\]$"):
        ToyTaskSpec.from_keys({"seed": 1, "mono": 5, "beta": 2})
