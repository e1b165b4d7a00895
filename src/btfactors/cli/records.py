"""Line-delimited record formats.

* mono corpus:      one sentence per line, whitespace-separated tokens
* parallel corpus:  source<TAB>target
* synthetic corpus: source<TAB>target<TAB>provenance
* candidate records: one target sentence per line,
      target_id<TAB>target tokens<TAB>cand<TAB>cand...
  where each cand is  "tokens|log_q|log_lm"  (tokens space-separated).

Writers emit canonical text (floats via repr) so write-read-write is
byte-identical; readers attach 1-based line numbers to every error.

Candidate records are processed as batched columns (``CandidateRecords``)
rather than one object per candidate: ``score`` writes them from the
candidate pools' index arrays through one token string table, and
``select``/``score --candidates`` read them into per-record arrays that
are scored one candidate count at a time.  The format is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import InvalidInputError, ParseError, ValidationError
from ..manipulate import MonoCorpus, SyntheticPair, PROVENANCES
from ..scoring import check_candidate, check_candidate_set
from ..tokenio import record_lines, sequence_from_str, sequence_to_str, token_from_str, token_to_str
from ..toyseq.models import ParallelCorpus


def read_text(path) -> str:
    """The UTF-8 text of ``path``; undecodable bytes are a ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


# -- mono ---------------------------------------------------------------------

def write_mono(path, corpus: MonoCorpus) -> None:
    lines = [sequence_to_str(s) for s in corpus.sentences]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_mono(path) -> MonoCorpus:
    sentences = []
    for lineno, line in enumerate(record_lines(read_text(path)), start=1):
        if not line.strip():
            raise ParseError("blank sentence line", lineno)
        sentences.append(sequence_from_str(line))
    if not sentences:
        raise InvalidInputError(f"{path}: empty monolingual corpus")
    return MonoCorpus(sentences=tuple(sentences))


# -- parallel -----------------------------------------------------------------

def write_parallel(path, corpus: ParallelCorpus) -> None:
    lines = [f"{sequence_to_str(src)}\t{sequence_to_str(tgt)}" for src, tgt in corpus.pairs]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_parallel(path) -> ParallelCorpus:
    pairs = []
    for lineno, line in enumerate(record_lines(read_text(path)), start=1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 2 tab-separated fields, found {len(fields)}", lineno)
        pairs.append((sequence_from_str(fields[0]), sequence_from_str(fields[1])))
    if not pairs:
        raise InvalidInputError(f"{path}: empty parallel corpus")
    try:
        return ParallelCorpus(pairs=tuple(pairs))
    except InvalidInputError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# -- synthetic ----------------------------------------------------------------

def write_synthetic(path, pairs: Sequence[SyntheticPair]) -> None:
    lines = [
        f"{sequence_to_str(p.source)}\t{sequence_to_str(p.target)}\t{p.provenance}"
        for p in pairs
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_synthetic(path) -> list[SyntheticPair]:
    pairs = []
    for lineno, line in enumerate(record_lines(read_text(path)), start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, found {len(fields)}", lineno)
        if fields[2] not in PROVENANCES:
            raise ValidationError(f"unknown provenance {fields[2]!r}", lineno)
        try:
            pairs.append(
                SyntheticPair(
                    source=sequence_from_str(fields[0]),
                    target=sequence_from_str(fields[1]),
                    provenance=fields[2],
                )
            )
        except InvalidInputError as exc:
            raise ValidationError(str(exc), lineno) from exc
    return pairs


# -- candidate records ----------------------------------------------------------

@dataclass(frozen=True)
class CandidateRecords:
    """Candidate records as columns, one entry per record in record order.

    Record r holds the candidate pool of target ``target_ids[r]``, whose
    tokens are ``targets[r]``.  Its candidates keep their token text
    (canonical: ``sequence_to_str`` of the tokens) in the list
    ``texts[r]``, and their token counts and log-probs in the (n,) arrays
    ``lengths[r]``, ``log_q[r]`` and ``log_lm[r]``.  No per-candidate object
    is built; a candidate's tokens are decoded only when it is chosen.
    """

    target_ids: list
    targets: list
    texts: list
    lengths: list
    log_q: list
    log_lm: list

    def __len__(self) -> int:
        return len(self.target_ids)

    def groups(self):
        """Yield ``(rows, lengths, log_q, log_lm)`` per candidate count n:
        the positions of the records with n candidates, in record order, and
        their (S, n) arrays."""
        by_n: dict[int, list[int]] = {}
        for r, texts in enumerate(self.texts):
            by_n.setdefault(len(texts), []).append(r)
        for rows in by_n.values():
            yield (rows, np.array([self.lengths[r] for r in rows], dtype=float),
                   np.array([self.log_q[r] for r in rows]),
                   np.array([self.log_lm[r] for r in rows]))

    @classmethod
    def from_chunks(cls, vocab, targets, chunks) -> "CandidateRecords":
        """The records of ``candidate_chunks`` output for ``targets``, one
        per corpus position, with each target's position as its id.

        ``chunks`` are ``(ids, token_idx, log_q, log_lm)`` with (S, n, L)
        indices into ``vocab``.  Tokens go through one string table, built
        with ``token_to_str`` over the indices that occur.  An unwritable
        token raises the ParseError a record-by-record writer would: the
        first in corpus order, target tokens before candidates.
        """
        seen = np.zeros(len(vocab), dtype=bool)
        for _, token_idx, _, _ in chunks:
            seen[token_idx] = True
        table = np.empty(len(vocab), dtype=object)
        try:
            for j in np.flatnonzero(seen).tolist():
                table[j] = token_to_str(vocab[j])
        except ParseError:
            rows = {i: token_idx[k] for ids, token_idx, _, _ in chunks for k, i in enumerate(ids)}
            for i in sorted(rows):
                sequence_to_str(targets[i])
                sequence_to_str(vocab[j] for j in rows[i].ravel().tolist())
            raise
        size = len(targets)
        texts, lengths, log_q, log_lm = [None] * size, [None] * size, [None] * size, [None] * size
        for ids, token_idx, chunk_q, chunk_lm in chunks:
            _, n, length = token_idx.shape
            joined = [" ".join(row) for row in table[token_idx.reshape(-1, length)].tolist()]
            same_length = np.full(n, length)
            for k, i in enumerate(ids):
                texts[i] = joined[k * n : (k + 1) * n]
                lengths[i], log_q[i], log_lm[i] = same_length, chunk_q[k], chunk_lm[k]
        return cls(list(range(size)), [tuple(y) for y in targets], texts, lengths, log_q, log_lm)


def write_candidate_records(path, records: CandidateRecords) -> None:
    """Write ``records`` one line each, floats via ``repr``.  Lines are
    written as they are formatted; every token is checked before the file
    is opened."""
    targets = [sequence_to_str(target) for target in records.targets]
    with open(path, "w", encoding="utf-8") as out:
        for target_id, target, texts, log_q, log_lm in zip(
                records.target_ids, targets, records.texts, records.log_q, records.log_lm):
            cands = "\t".join(f"{text}|{q!r}|{lm!r}"
                              for text, q, lm in zip(texts, log_q.tolist(), log_lm.tolist()))
            out.write(f"{target_id}\t{target}\t{cands}\n")


def read_candidate_records(path) -> CandidateRecords:
    """Parse a candidate-record file into columns; blank lines are skipped.

    Malformed lines, and target ids that are not canonical decimals like
    int tokens, raise ParseError; invariant violations (an empty candidate,
    non-finite scores, a negative id, an empty target, fewer than two
    candidates) raise ValidationError; both cite the 1-based line number.
    Of several faults in one line, the first met reading its fields left to
    right is raised, candidate fields before the set's own invariants.
    """
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    for lineno, line in enumerate(record_lines(read_text(path)), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise ParseError(
                f"expected a target id, target tokens, and candidates, found {len(fields)} fields",
                lineno,
            )
        target_id = token_from_str(fields[0])
        if not isinstance(target_id, int):
            raise ParseError(f"bad target id {fields[0]!r}", lineno)
        target = sequence_from_str(fields[1])
        texts, lengths, log_q, log_lm = [], [], [], []
        for field in fields[2:]:
            parts = field.split("|")
            if len(parts) != 3:
                raise ParseError(f"candidate field needs tokens|log_q|log_lm, got {field!r}", lineno)
            try:
                q, lm = float(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ParseError(f"bad candidate scores in {field!r}", lineno) from exc
            tokens = parts[0].split()
            if not (tokens and math.isfinite(q) and math.isfinite(lm)):
                try:
                    check_candidate(len(tokens), len(tokens), q, lm)
                except InvalidInputError as exc:
                    raise ValidationError(str(exc), lineno) from exc
            texts.append(" ".join(tokens))
            lengths.append(len(tokens))
            log_q.append(q)
            log_lm.append(lm)
        try:
            check_candidate_set(target_id, target, len(texts))
        except InvalidInputError as exc:
            raise ValidationError(str(exc), lineno) from exc
        for column, value in zip(columns, (target_id, target, texts, np.array(lengths),
                                           np.array(log_q), np.array(log_lm))):
            column.append(value)
    return CandidateRecords(*columns)
