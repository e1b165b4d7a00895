"""Decoding for channel models: beam search, ancestral sampling, and
annotated candidate-set generation.

``beam_decode`` and ``sample_decode`` take a whole corpus, coded
(``tokenio.CodedCorpus``) or as plain sequences, which they encode once.
They group its sentences by length and step through each group position by
position over (sentences x beam x |V|) arrays gathered from a stacked
tensor of the per-conditioning-token matrices, one matrix per distinct
token of the coded input, all read from the model in one ``rows`` lookup
(``_stacked_conditionals``).  The outputs are filled in as indices into the
output vocabulary and handed out coded (``CodedCorpus.from_indices``), or as
tuples when the input was plain sequences.  Beam ties break
lexicographically by token sequence, in Python's token order when the
output vocabulary is mutually comparable and in ``token_sort_key`` order
when it mixes types.
No row is sorted: the tensor's rows and columns are permuted into that tie
order once per call, and each sentence's live hypotheses are kept in
lexicographic order of their prefixes, so the first maximum of an
expansion row is its tie-break.  Each step takes its k best columns by k
``argmax`` passes over a copy of the row in which -inf scores are raised to
the most negative float and every taken column is set to -inf.

Every sampler inverts the cumulative row with ``side="right"`` semantics
through one kernel, ``_ancestral``: corpus sampling, ``batch_sample``, the
oracle's Monte-Carlo draws, candidate sets and the toy-task generator.  It
reads a (states, |V|) table at each position (the channel samplers read the
one stacked table of ``_stacked_conditionals``) and, for each output row,
binary-searches its state's row for its uniform (``invert_cdf`` with row
indices) in a table built once (``cdf_table``); no per-sample copy of a
table row is made.  Each sentence's uniforms are drawn from its own stream
before any sampling (``streams.sentence_uniforms`` draws them for a whole
corpus), so a sentence decoded in a corpus gets the same tokens as it would
alone.
``candidate_chunks`` samples the n-candidate pools of a whole corpus in
chunks of at most ``_CHUNK`` equal-length targets, as (targets x n x L)
index arrays with their channel and LM log-probs.  Its ``draw(ids, count)``
callback returns a (len(ids), count) array of each target's next uniforms;
a target of length L takes L * n + 1 of them, the last being its next
uniform, which is yielded for a draw after the candidates (gamma-sample's
pick).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError, check_integer
from ..scoring import Candidate, CandidateSet, cdf_table, invert_cdf
from ..tokenio import CodedCorpus, coded
from .models import BOS, ChannelModel, EOS, NGramLM

# targets per candidate chunk; bounds the (targets x n x L) working set
_CHUNK = 64


def _stacked_conditionals(model: ChannelModel, inputs: CodedCorpus):
    """The rows of every (previous output, conditioning token) key of the
    coded ``inputs``, from one ``rows`` lookup: one block of |V|+1 rows per
    distinct token, in code order, whose row 0 is prev == BOS and row 1 + i
    prev == out_vocab[i].  Returns the probs as one (conds * (|V|+1), P)
    ``cdf_table``, the logs as a (conds, |V|+1, |V|) tensor, and
    ``cond_rows(ids, length)``: the (len(ids), length) indices into the
    stack of the tokens of the equal-length inputs ``ids``."""
    prevs = (BOS, *model.out_vocab)
    probs, logs = model.rows([(prev, cond) for cond in inputs.tokens for prev in prevs])
    table = cdf_table(probs)
    logs = logs.reshape(len(inputs.tokens), len(prevs), len(model.out_vocab))
    starts = inputs.starts
    return table, logs, lambda ids, length: inputs.codes[np.add.outer(starts[ids],
                                                                      np.arange(length))]


def _by_length(lengths: np.ndarray) -> dict[int, list[int]]:
    """Positions of the non-empty sentences of ``lengths``, grouped by
    length in corpus order."""
    groups: dict[int, list[int]] = {}
    for i, length in enumerate(lengths.tolist()):
        if length:
            groups.setdefault(length, []).append(i)
    return groups


def _decode_by_length(model: ChannelModel, inputs: CodedCorpus, cond_rows,
                      decode_group) -> CodedCorpus:
    """Output tokens for every input, in input order, coded.

    ``decode_group(ids, cond_idx)`` decodes one group of equal-length,
    non-empty inputs: their positions and (n, L) ``cond_rows`` indices in,
    an (n, L) matrix of output indices out.  Empty inputs decode to ``()``.
    """
    out = np.empty(len(inputs.codes), dtype=np.int64)
    starts = inputs.starts
    for length, ids in _by_length(inputs.lengths).items():
        out[np.add.outer(starts[ids], np.arange(length))] = decode_group(
            ids, cond_rows(ids, length))
    return CodedCorpus.from_indices(model.out_vocab, out, inputs.lengths)


def _as_given(outputs: CodedCorpus, inputs):
    """``outputs`` coded if ``inputs`` was, else as a list of tuples."""
    return outputs if isinstance(inputs, CodedCorpus) else list(outputs)


def _beam_tie_order(vocab) -> np.ndarray:
    """Output indices in tie order: Python's own token order when the
    vocabulary is comparable, else ``token_sort_key`` order, which is the
    order of ``out_vocab`` itself."""
    try:
        return np.array(sorted(range(len(vocab)), key=vocab.__getitem__), dtype=np.intp)
    except TypeError:
        return np.arange(len(vocab))


def _beam_group(logs: np.ndarray, cond_idx: np.ndarray, beam_size: int) -> np.ndarray:
    """Best outputs, (n, L), for n equal-length index-encoded inputs, as
    positions in tie order: row 1 + j and column j of every ``logs`` matrix
    belong to the j-th output token in tie order.

    The live hypotheses of each row are kept in lexicographic order of
    their prefixes, so column c of the (n, k * |V|) expansion, hypothesis
    c // |V| extended by tie position c % |V|, is also c-th in
    lexicographic order: the first maximum is the tie-break.  The k best
    columns are taken by k ``argmax`` passes over a copy in which each taken
    column is set to -inf and -inf scores are raised to the most negative
    float, so an untaken -inf candidate still ranks above a taken column.
    The picks are kept in column order, which keeps the prefixes sorted,
    and the answer is the first maximum of the last step's scores.
    """
    n, length = cond_idx.shape
    size = logs.shape[-1]
    lowest = np.finfo(logs.dtype).min
    rows = np.arange(n)
    scores = np.zeros((n, 1))
    prev = np.zeros((n, 1), dtype=np.intp)   # row 0 of every cond matrix is BOS
    parents, tokens = [], []
    for t in range(length):
        expanded = (scores[:, :, None] + logs[cond_idx[:, t, None], prev]).reshape(n, -1)
        width = min(beam_size, expanded.shape[1])
        work = np.maximum(expanded, lowest)
        picks = np.empty((n, width), dtype=np.intp)
        for j in range(width):
            col = work.argmax(axis=1)
            picks[:, j] = col
            work[rows, col] = -np.inf
        picks.sort(axis=1)
        scores = np.take_along_axis(expanded, picks, axis=1)
        parent, tok = np.divmod(picks, size)
        prev = tok + 1
        parents.append(parent)
        tokens.append(tok)
    out = np.empty((n, length), dtype=np.intp)
    beam = scores.argmax(axis=1)
    for t in reversed(range(length)):
        out[:, t] = tokens[t][rows, beam]
        beam = parents[t][rows, beam]
    return out


def beam_decode(model: ChannelModel, inputs, beam_size: int = 5) -> list[tuple]:
    """Highest-scoring hypothesis for each input sequence among those
    explored at width ``beam_size``, in input order.

    Sentences of equal length are searched together, one step over
    (sentences x beam x |V|) arrays per position.  Deterministic: score
    ties break lexicographically by token sequence, comparing tokens in
    Python's own order when the output vocabulary is mutually comparable
    (all ints or all strings) and by ``token_sort_key`` when it mixes
    types.  An exhaustive width (|V| ** len) reduces to brute-force argmax.
    Coded inputs give coded outputs; plain sequences give tuples.
    """
    beam_size = check_integer("beam_size", beam_size, 1)
    corpus = coded(inputs)
    _, logs, cond_rows = _stacked_conditionals(model, corpus)
    order = _beam_tie_order(model.out_vocab)
    # rows (previous token) and columns (next token) both in tie order
    logs = logs[:, np.concatenate(([0], order + 1))][:, :, order]
    return _as_given(_decode_by_length(
        model, corpus, cond_rows,
        lambda ids, cond_idx: order[_beam_group(logs, cond_idx, beam_size)],
    ), inputs)


def _ancestral(steps, n: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF ancestral sampling of n outputs, one position per step.

    Each step is ``(table, logs, base, draws)``: the ``cdf_table`` of
    (states, |V|) probs and the (states, |V|) log table, in both of which
    row ``base + prev`` is an output row's conditional given its previous
    output (prev 0 is BOS, 1 + i is out_vocab[i]), and that position's (n,)
    uniforms.  Returns the (n, L) sampled output indices and their (n,)
    log-probs, which stay 0 where ``logs`` is None.  A table's rows are
    accumulated once, not per sample, and never gathered per sample:
    ``invert_cdf`` binary-searches the samples' rows in place, and each
    log-prob is one flat lookup.
    """
    token_idx = np.empty((n, length), dtype=np.intp)
    log_probs = np.zeros(n)
    state = np.zeros(n, dtype=np.intp)      # previous output; base is added in place
    for t, (table, logs, base, draws) in enumerate(steps):
        state += base
        idx = invert_cdf(table, draws, state)
        if logs is not None:
            log_probs += logs.ravel()[state * logs.shape[1] + idx]
        token_idx[:, t] = idx
        state = idx + 1
    return token_idx, log_probs


def _channel_steps(table: np.ndarray, logs: np.ndarray, cond_idx: np.ndarray,
                   uniforms: np.ndarray):
    """``_ancestral`` steps for rows conditioned on (rows, L) indices into
    a ``_stacked_conditionals`` table and (conds, |V|+1, |V|) log tensor,
    with (rows, L) uniforms."""
    size = logs.shape[-1]
    flat_logs = logs.reshape(-1, size)
    base = cond_idx * (size + 1)
    return ((table, flat_logs, base[:, t], uniforms[:, t])
            for t in range(cond_idx.shape[1]))


def _sample_outputs(model: ChannelModel, inputs: CodedCorpus, draws) -> CodedCorpus:
    """One ancestral sample per coded input, from its pre-drawn (len,)
    uniforms."""
    table, logs, cond_rows = _stacked_conditionals(model, inputs)

    def sample_group(ids, cond_idx):
        uniforms = np.array([draws[i] for i in ids])
        return _ancestral(_channel_steps(table, logs, cond_idx, uniforms),
                          len(ids), cond_idx.shape[1])[0]

    return _decode_by_length(model, inputs, cond_rows, sample_group)


def sample_decode(model: ChannelModel, inputs, uniforms) -> list[tuple]:
    """One ancestral sample per input sequence, in input order.

    ``uniforms[i]`` holds input i's pre-drawn (len(inputs[i]),) uniforms,
    one per position, for example from ``sentence_uniforms(seed, ids,
    lengths)``, so a corpus pass gives the same output as decoding the
    sentences one by one.  Sentences of equal length are sampled together.
    Coded inputs give coded outputs; plain sequences give tuples.
    """
    corpus = coded(inputs)
    uniforms = [np.asarray(row, dtype=float) for row in uniforms]
    if len(uniforms) != len(corpus):
        raise InvalidInputError(
            f"{len(corpus)} input sequences need as many uniform rows, got {len(uniforms)}"
        )
    if any(row.shape != (length,) for length, row in zip(corpus.lengths.tolist(), uniforms)):
        raise InvalidInputError("each input sequence needs one uniform per position")
    return _as_given(_sample_outputs(model, corpus, uniforms), inputs)


def batch_sample(model: ChannelModel, cond_seq, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n ancestral samples as an (n, len) index matrix plus log-probs.
    Position t takes the (n,) uniforms of row t of one (len, n) draw, the
    numbers of len successive ``rng.random(n)`` calls."""
    corpus = coded([tuple(cond_seq)])
    length = int(corpus.lengths[0])
    table, logs, cond_rows = _stacked_conditionals(model, corpus)
    cond_idx = np.repeat(cond_rows([0], length), n, axis=0)
    return _ancestral(_channel_steps(table, logs, cond_idx, rng.random((length, n)).T),
                      n, length)


def batch_lm_scores(lm: NGramLM, token_idx: np.ndarray, out_vocab) -> np.ndarray:
    """LM log-probs of index-encoded sequences.

    For an order-2 model whose events cover ``out_vocab`` the terms come
    from one ``rows`` lookup of the contexts (row 0 is BOS, row 1 + i is
    (event_vocab[i],)) and are summed with ``.sum(axis=1)``, which is
    pairwise summation, so a score can differ from ``NGramLM.batch_score``,
    which adds the terms one position at a time, in the last bits: on the
    3000 reference sources of the sweep benchmark's seed-1 task, 489 differ,
    by at most 1.4e-14 (x86-64, numpy 2.4).  The candidate pools' log_lm,
    and with them the records and Gamma choices, are defined by this sum.
    Other models go through ``NGramLM.batch_score``.
    """
    columns = [lm.event_index(tok) for tok in out_vocab]
    if lm.order != 2 or any(c is None for c in columns):
        n, length = token_idx.shape
        return lm.batch_score(CodedCorpus.from_indices(out_vocab, token_idx, np.full(n, length)))
    mat = lm.rows([(BOS,), *((tok,) for tok in lm.event_vocab)])[1]
    cols = np.asarray(columns, dtype=np.intp)
    event_idx = cols[token_idx]            # (n, L) indices into the event space
    ctx_idx = np.empty_like(event_idx)
    ctx_idx[:, 0] = 0                      # BOS context row
    ctx_idx[:, 1:] = event_idx[:, :-1] + 1
    scores = mat[ctx_idx, event_idx].sum(axis=1)
    if lm.use_eos:
        eos_col = lm.event_index(EOS)
        scores = scores + mat[event_idx[:, -1] + 1, eos_col]
    return scores


def candidate_chunks(backward: ChannelModel, lm: NGramLM, targets, n: int, draw):
    """n ancestral candidates per target, annotated with their backward
    log-prob (quality) and source-LM log-prob, a chunk of targets at a time.

    Targets are grouped by length and each group is cut into chunks of at
    most ``_CHUNK`` targets, in corpus order.  ``draw(ids, count)`` returns
    a (len(ids), count) array holding the next ``count`` uniforms of each
    target's stream; each chunk asks it for L * n + 1 per target.  The first
    L * n are the candidates' draws (position by position, n at a time) and
    the last is the target's next uniform.  Each chunk yields ``(ids,
    next_uniforms, token_idx, log_q, log_lm)``: the targets' corpus
    positions, their (S,) next uniforms, the (S, n, L) candidate indices into
    ``backward.out_vocab`` and the (S, n) log-probs.  Candidates keep
    generation order and duplicates.
    """
    if n < 2:
        raise InvalidInputError("candidate sets need n >= 2")
    targets = coded(targets)
    if not targets.lengths.all():
        raise InvalidInputError("target_tokens must be non-empty")
    table, logs, cond_rows = _stacked_conditionals(backward, targets)
    for length, group in _by_length(targets.lengths).items():
        for start in range(0, len(group), _CHUNK):
            ids = group[start : start + _CHUNK]
            draws = draw(ids, length * n + 1)
            # row (target, candidate) takes draw t * n + candidate at position t
            uniforms = draws[:, :-1].reshape(len(ids), length, n).transpose(0, 2, 1)
            rows = len(ids) * n
            token_idx, log_q = _ancestral(
                _channel_steps(table, logs, np.repeat(cond_rows(ids, length), n, axis=0),
                               uniforms.reshape(rows, length)),
                rows, length)
            log_lm = batch_lm_scores(lm, token_idx, backward.out_vocab)
            if not (np.all(np.isfinite(log_q)) and np.all(np.isfinite(log_lm))):
                raise InvalidInputError("candidate log-probabilities must be finite")
            yield (ids, draws[:, -1], token_idx.reshape(len(ids), n, length),
                   log_q.reshape(len(ids), n), log_lm.reshape(len(ids), n))


def sample_candidate_set(backward: ChannelModel, lm: NGramLM, target, n: int = 50,
                         rng: np.random.Generator = None, target_id: int = 0) -> CandidateSet:
    """n independent ancestral samples from the backward channel given
    ``target``, each annotated with its backward log-prob (quality) and
    source-LM log-prob, in generation order.  Duplicates are kept.  Takes
    L * n + 1 uniforms from ``rng``, as ``candidate_chunks`` asks of each
    target; the last is not used."""
    if rng is None:
        raise InvalidInputError("sample_candidate_set requires a seeded generator")
    target = tuple(target)
    [(_, _, token_idx, log_q, log_lm)] = candidate_chunks(
        backward, lm, [target], n, lambda ids, count: rng.random((1, count)))
    return candidate_set(backward.out_vocab, target_id, target,
                         token_idx[0], log_q[0], log_lm[0])


def candidate_set(vocab, target_id: int, target, token_idx, log_q, log_lm) -> CandidateSet:
    """The ``CandidateSet`` of one target from its (n, L) candidate indices
    into ``vocab`` and their (n,) log-probs."""
    candidates = tuple(
        Candidate(
            tokens=tuple(vocab[j] for j in row),
            length=len(row),
            log_q=float(q),
            log_lm=float(lm_lp),
        )
        for row, q, lm_lp in zip(token_idx, log_q, log_lm)
    )
    return CandidateSet(target_id=target_id, target_tokens=tuple(target), candidates=candidates)
