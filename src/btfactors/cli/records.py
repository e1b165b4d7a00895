"""Line-delimited record formats.

* mono corpus:      one sentence per line, whitespace-separated tokens
* parallel corpus:  source<TAB>target
* synthetic corpus: source<TAB>target<TAB>provenance
* candidate records: one target sentence per line,
      target_id<TAB>target tokens<TAB>cand<TAB>cand...
  where each cand is  "tokens|log_q|log_lm"  (tokens space-separated).

Writers emit canonical text (floats via repr), one ``"\n"``-ended line
per record, so write-read-write is byte-identical and no records make an
empty file; readers attach 1-based line numbers to every error.

Candidate records are held as columns (``CandidateRecords``) rather than
one object per candidate, and in bounded memory.  ``score`` keeps the
candidate pools' token indices in the smallest integer type that holds
them and formats each record's text through one token string table as it
writes the record.  ``select`` streams the file in blocks of ``_BLOCK``
records (``candidate_record_blocks``), decoding one line at a time: each
block is checked, scored and picked from, and only the chosen pairs are
kept.  ``score --candidates`` reads every record through the same parser
(``read_candidate_records``).  Both score ``_BLOCK`` records at a time,
one candidate count at a time.  The format is unchanged.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import InvalidInputError, ParseError, ValidationError
from ..manipulate import MonoCorpus, SyntheticPair, PROVENANCES
from ..scoring import check_candidate, check_candidate_set
from ..tokenio import record_lines, sequence_from_str, sequence_to_str, token_from_str, token_to_str
from ..toyseq.models import ParallelCorpus


def _not_utf8(path, exc: UnicodeDecodeError, offset: int = 0) -> ParseError:
    """The error for ``exc``, met decoding ``path`` from byte ``offset``."""
    return ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {offset + exc.start})")


def read_text(path) -> str:
    """The UTF-8 text of ``path``; undecodable bytes are a ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _write_lines(path, lines) -> None:
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _read_pair(source_field: str, target_field: str, lineno: int) -> tuple[tuple, tuple]:
    """The (source, target) pair of one corpus line; an empty side or
    unequal lengths is a ValidationError at ``lineno``."""
    source, target = sequence_from_str(source_field), sequence_from_str(target_field)
    if not source or not target:
        raise ValidationError("pair sequences must be non-empty", lineno)
    if len(source) != len(target):
        raise ValidationError(
            f"source length {len(source)} != target length {len(target)}", lineno)
    return source, target


# -- mono ---------------------------------------------------------------------

def write_mono(path, corpus: MonoCorpus) -> None:
    _write_lines(path, (sequence_to_str(s) for s in corpus.sentences))


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
    _write_lines(path, (f"{sequence_to_str(src)}\t{sequence_to_str(tgt)}"
                        for src, tgt in corpus.pairs))


def read_parallel(path) -> ParallelCorpus:
    pairs = []
    for lineno, line in enumerate(record_lines(read_text(path)), start=1):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 2 tab-separated fields, found {len(fields)}", lineno)
        pairs.append(_read_pair(fields[0], fields[1], lineno))
    if not pairs:
        raise InvalidInputError(f"{path}: empty parallel corpus")
    return ParallelCorpus(pairs=tuple(pairs))


# -- synthetic ----------------------------------------------------------------

def write_synthetic(path, pairs: Sequence[SyntheticPair]) -> None:
    _write_lines(path, (f"{sequence_to_str(p.source)}\t{sequence_to_str(p.target)}"
                        f"\t{p.provenance}" for p in pairs))


def read_synthetic(path) -> list[SyntheticPair]:
    pairs = []
    for lineno, line in enumerate(record_lines(read_text(path)), start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"expected 3 tab-separated fields, found {len(fields)}", lineno)
        if fields[2] not in PROVENANCES:
            raise ValidationError(f"unknown provenance {fields[2]!r}", lineno)
        source, target = _read_pair(fields[0], fields[1], lineno)
        pairs.append(SyntheticPair(source, target, fields[2]))
    return pairs


# -- candidate records ----------------------------------------------------------

# records per block of ``candidate_record_blocks`` and per ``groups`` batch;
# bounds the per-block columns and the (records x n) Gamma temporaries
_BLOCK = 256


class _PoolTexts(Sequence):
    """The token texts of one record's candidate pool, formatted when read:
    row c of the (n, L) token indices ``rows`` looked up in the token string
    ``table`` and joined with spaces."""

    def __init__(self, table: np.ndarray, rows: np.ndarray):
        self.table, self.rows = table, rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, c: int) -> str:
        return " ".join(self.table[self.rows[c]].tolist())

    def __iter__(self):
        return (" ".join(row) for row in self.table[self.rows].tolist())


@dataclass(frozen=True)
class CandidateRecords:
    """Candidate records as columns, one entry per record in record order.

    Record r holds the candidate pool of target ``target_ids[r]``, whose
    tokens are ``targets[r]``.  Its candidates keep their token text
    (canonical: ``sequence_to_str`` of the tokens) in the sequence
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

    @classmethod
    def of(cls, records) -> "CandidateRecords":
        """The columns of ``(target_id, target, texts, lengths, log_q, log_lm)``
        tuples, one per record."""
        columns: tuple[list, ...] = ([], [], [], [], [], [])
        for record in records:
            for column, value in zip(columns, record):
                column.append(value)
        return cls(*columns)

    def groups(self):
        """Yield ``(rows, lengths, log_q, log_lm)`` per block of ``_BLOCK``
        records and candidate count n in it: the positions of the block's
        records with n candidates, in record order, and their (S, n) arrays."""
        for start in range(0, len(self), _BLOCK):
            by_n: dict[int, list[int]] = {}
            for r in range(start, min(start + _BLOCK, len(self))):
                by_n.setdefault(len(self.texts[r]), []).append(r)
            for rows in by_n.values():
                yield (rows, np.array([self.lengths[r] for r in rows], dtype=float),
                       np.array([self.log_q[r] for r in rows]),
                       np.array([self.log_lm[r] for r in rows]))

    @classmethod
    def from_chunks(cls, vocab, targets, chunks) -> "CandidateRecords":
        """The records of ``candidate_chunks`` output for ``targets``, one
        per corpus position, with each target's position as its id.

        ``chunks`` are ``(ids, token_idx, log_q, log_lm)`` with (S, n, L)
        indices into ``vocab``.  The records keep those indices: each
        record's candidate texts are joined from one token string table,
        built with ``token_to_str`` over the indices that occur, when they
        are read.  An unwritable token raises the ParseError a
        record-by-record writer would: the first in corpus order, target
        tokens before candidates.
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
            same_length = np.full(token_idx.shape[1], token_idx.shape[2])
            for k, i in enumerate(ids):
                texts[i] = _PoolTexts(table, token_idx[k])
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


def _text_lines(path):
    """Yield the records of ``path`` as ``record_lines`` splits its text,
    decoding one line at a time.  An undecodable byte is the ParseError
    ``read_text`` raises, with its offset in the file."""
    offset = 0
    with open(path, "rb") as lines:
        for raw in lines:  # split at b"\n" only, which no multi-byte character holds
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _not_utf8(path, exc, offset) from exc
            offset += len(raw)
            yield line[:-1] if line.endswith("\n") else line


def _parse_candidate_record(line: str, lineno: int) -> tuple:
    """The ``CandidateRecords`` columns of one non-blank record line."""
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
    return target_id, target, texts, np.array(lengths), np.array(log_q), np.array(log_lm)


def _candidate_rows(path):
    """Yield the columns of each record of ``path``, in file order."""
    lines = enumerate(_text_lines(path), start=1)
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            yield _parse_candidate_record(line, lineno)
        except (ParseError, ValidationError):
            for _ in lines:
                pass  # an undecodable byte anywhere in the file is reported first
            raise


def candidate_record_blocks(path):
    """Parse a candidate-record file into ``CandidateRecords`` of at most
    ``_BLOCK`` records each, in file order, reading one block at a time.

    Errors are ``read_candidate_records``'s.  A malformed record raises as
    its block is read, once the rest of the file has been decoded.
    """
    rows = _candidate_rows(path)
    while block := CandidateRecords.of(itertools.islice(rows, _BLOCK)):
        yield block


def read_candidate_records(path) -> CandidateRecords:
    """Parse a candidate-record file into columns; blank lines are skipped.

    An undecodable byte anywhere in the file is the ParseError ``read_text``
    raises.  Malformed lines, and target ids that are not canonical decimals
    like int tokens, raise ParseError; invariant violations (an empty
    candidate, non-finite scores, a negative id, an empty target, fewer than
    two candidates) raise ValidationError; both cite the 1-based line number.
    Of several faults in one line, the first met reading its fields left to
    right is raised, candidate fields before the set's own invariants.
    """
    return CandidateRecords.of(_candidate_rows(path))
