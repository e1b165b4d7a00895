"""Line-delimited record formats.

* mono corpus:      one sentence per line, whitespace-separated tokens
* parallel corpus:  source<TAB>target
* synthetic corpus: source<TAB>target<TAB>provenance
* candidate records: one target sentence per line,
      target_id<TAB>target tokens<TAB>cand<TAB>cand...
  where each cand is  "tokens|log_q|log_lm"  (tokens space-separated).

Writers emit canonical text (floats via repr) so write-read-write is
byte-identical; readers attach 1-based line numbers to every error.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from ..errors import InvalidInputError, ParseError, ValidationError
from ..manipulate import MonoCorpus, SyntheticPair, PROVENANCES
from ..scoring import Candidate, CandidateSet
from ..tokenio import sequence_from_str, sequence_to_str
from ..toyseq.models import ParallelCorpus


def _float_to_str(value: float) -> str:
    return repr(float(value))


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
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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

def format_candidate_record(cset: CandidateSet) -> str:
    fields = [str(cset.target_id), sequence_to_str(cset.target_tokens)]
    for cand in cset.candidates:
        fields.append(
            f"{sequence_to_str(cand.tokens)}|{_float_to_str(cand.log_q)}|{_float_to_str(cand.log_lm)}"
        )
    return "\t".join(fields)


def write_candidate_records(path, sets: Sequence[CandidateSet]) -> None:
    text = "".join(format_candidate_record(s) + "\n" for s in sets)
    Path(path).write_text(text, encoding="utf-8")


def parse_candidate_records(lines: Iterable[str]) -> list[CandidateSet]:
    """Parse candidate records from an iterable of lines.

    Malformed lines raise ParseError, invariant violations (fewer than two
    candidates, non-finite scores) raise ValidationError; both cite the
    1-based line number.
    """
    sets = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise ParseError(
                f"expected a target id, target tokens, and candidates, found {len(fields)} fields",
                lineno,
            )
        try:
            target_id = int(fields[0])
        except ValueError as exc:
            raise ParseError(f"bad target id {fields[0]!r}", lineno) from exc
        target_tokens = sequence_from_str(fields[1])
        candidates = []
        for field in fields[2:]:
            parts = field.split("|")
            if len(parts) != 3:
                raise ParseError(f"candidate field needs tokens|log_q|log_lm, got {field!r}", lineno)
            try:
                log_q, log_lm = float(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ParseError(f"bad candidate scores in {field!r}", lineno) from exc
            try:
                candidates.append(Candidate.from_scores(sequence_from_str(parts[0]), log_q, log_lm))
            except InvalidInputError as exc:
                raise ValidationError(str(exc), lineno) from exc
        try:
            sets.append(
                CandidateSet(
                    target_id=target_id,
                    target_tokens=target_tokens,
                    candidates=tuple(candidates),
                )
            )
        except InvalidInputError as exc:
            raise ValidationError(str(exc), lineno) from exc
    return sets


def read_candidate_records(path) -> list[CandidateSet]:
    return parse_candidate_records(read_text(path).splitlines())
