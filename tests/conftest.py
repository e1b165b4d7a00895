import math

import numpy as np
import pytest

from btfactors.scoring import Candidate, CandidateSet
from btfactors.toyseq.models import BOS, EOS


def make_set(log_qs, log_lms, lengths=None, target_id=0):
    """Candidate set with synthetic single-token-per-length sequences."""
    n = len(log_qs)
    lengths = lengths or [1] * n
    candidates = tuple(
        Candidate(tokens=tuple(range(length)), length=length, log_q=float(q), log_lm=float(lm))
        for q, lm, length in zip(log_qs, log_lms, lengths)
    )
    return CandidateSet(target_id=target_id, target_tokens=(0,), candidates=candidates)


def random_set(rng, n=None, max_len=6, target_id=0):
    """Random candidate set with varied lengths and scores."""
    n = n or int(rng.integers(2, 9))
    lengths = rng.integers(1, max_len + 1, size=n)
    log_qs = -rng.exponential(5.0, size=n) - 0.1
    log_lms = -rng.exponential(5.0, size=n) - 0.1
    candidates = tuple(
        Candidate(
            tokens=tuple(int(t) for t in rng.integers(0, 20, size=length)),
            length=int(length),
            log_q=float(q),
            log_lm=float(lm),
        )
        for q, lm, length in zip(log_qs, log_lms, lengths)
    )
    return CandidateSet(target_id=target_id, target_tokens=(0, 1), candidates=candidates)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# -- scalar count-reading references for the count models ---------------------
# One token at a time, from ``counts``, ``alpha`` and the event index alone:
# the oracle every batched scorer of ``toyseq.models`` is checked against.

def reference_row(model, key):
    """p(. | key) built from the key's count dict alone, one entry at a time."""
    size = len(model._events)
    counts = np.zeros(size)
    for tok, cnt in model.counts.get(key, {}).items():
        counts[model._index[tok]] = cnt
    denom = counts.sum() + model.alpha * size
    if denom <= 0.0:
        return np.full(size, 1.0 / size)
    return (counts + model.alpha) / denom


def _oov_denom(model, key):
    """Denominator of the alpha floor a token outside the events gets."""
    return sum(model.counts.get(key, {}).values()) + model.alpha * len(model._events)


def context_of(lm, prefix):
    """Last order-1 tokens of ``prefix``, BOS-padded on the left."""
    prefix = tuple(prefix)
    return ((BOS,) * (lm.order - 1) + prefix)[len(prefix):]


def reference_lm_log_prob(lm, token, context):
    """math.log of p(token | context); a token outside the events gets the
    alpha floor alpha / denominator, and log 0 is -inf."""
    context = tuple(context)
    idx = lm._index.get(token)
    if idx is not None:
        p = float(reference_row(lm, context)[idx])
    else:
        denom = _oov_denom(lm, context)
        p = lm.alpha / denom if denom > 0.0 else 0.0
    return math.log(p) if p > 0.0 else -math.inf


def reference_channel_log_prob(model, token, prev, cond):
    """np.log of the (prev, cond) row at ``token``; a token outside the
    events gets log(alpha) - log(denominator), or -inf when either is 0."""
    idx = model._index.get(token)
    if idx is not None:
        with np.errstate(divide="ignore"):
            return float(np.log(reference_row(model, (prev, cond)))[idx])
    denom = _oov_denom(model, (prev, cond))
    if model.alpha > 0.0 and denom > 0.0:
        return math.log(model.alpha) - math.log(denom)
    return -math.inf


def reference_lm_score(lm, sequence):
    """Natural-log probability of ``sequence``, end marker included when the
    model has one, added token by token from 0.0."""
    total, prefix = 0.0, ()
    for tok in (*sequence, EOS) if lm.use_eos else tuple(sequence):
        total += reference_lm_log_prob(lm, tok, context_of(lm, prefix))
        prefix = prefix + (tok,)
    return total


def reference_channel_score(model, output, input_seq):
    """Natural-log probability of ``output`` given the equal-length
    ``input_seq``, added token by token from 0.0."""
    total, prev = 0.0, BOS
    for out_tok, cond_tok in zip(output, input_seq):
        total += reference_channel_log_prob(model, out_tok, prev, cond_tok)
        prev = out_tok
    return total
