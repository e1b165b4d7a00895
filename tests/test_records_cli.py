import contextlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btfactors.btloop as btloop
from btfactors.btloop import STRATEGIES, BTStrategy
import btfactors.cli.main as cli_main
from btfactors.cli.main import (
    CONFIG_KEYS,
    TASK_KEYS,
    _parse_config_text,
    dispatch,
    rerun_from_manifest,
)
from btfactors.cli.manifest import read_manifest
from btfactors.cli.records import (
    CandidateRecords,
    read_candidate_records,
    read_mono,
    read_parallel,
    read_synthetic,
    read_text,
    write_candidate_records,
    write_mono,
    write_parallel,
    write_synthetic,
)
from btfactors.errors import ConfigError, InvalidInputError, ParseError, ValidationError
from btfactors.manipulate import MonoCorpus, SyntheticPair
from btfactors.scoring import (
    Candidate,
    CandidateSet,
    GammaParams,
    gamma_distribution,
    gamma_sample,
    gamma_select,
)
from btfactors.streams import sentence_stream
from btfactors.tokenio import sequence_from_str, sequence_to_str, token_to_str
import btfactors.toyseq.decode as decode
from btfactors.toyseq.models import ChannelModel, NGramLM
from btfactors.toyseq.taskgen import ToyTaskSpec
from conftest import (
    candidate_set,
    parallel_corpus,
    reference_channel_score,
    reference_lm_score,
)


# -- reference oracle: the per-set candidate-record writer and reader ----------------

def format_candidate_record(cset: CandidateSet) -> str:
    fields = [str(cset.target_id), sequence_to_str(cset.target_tokens)]
    for cand in cset.candidates:
        fields.append(
            f"{sequence_to_str(cand.tokens)}|{float(cand.log_q)!r}|{float(cand.log_lm)!r}"
        )
    return "\t".join(fields)


def write_candidate_sets(path, sets) -> None:
    text = "".join(format_candidate_record(s) + "\n" for s in sets)
    path.write_text(text, encoding="utf-8")


def parse_candidate_records(lines) -> list[CandidateSet]:
    """Parse candidate records one ``CandidateSet`` at a time; errors cite
    the 1-based line number."""
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
                tokens = sequence_from_str(parts[0])
                candidates.append(Candidate(tokens, len(tokens), log_q, log_lm))
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


def read_candidate_sets(path) -> list[CandidateSet]:
    return parse_candidate_records(read_text(path).splitlines())


def as_sets(records: CandidateRecords) -> list[CandidateSet]:
    """The columnar records as ``CandidateSet``s, every candidate decoded."""
    return [
        CandidateSet(target_id, target, tuple(
            Candidate(tokens, len(tokens), q, lm)
            for tokens, q, lm in zip(map(sequence_from_str, texts), log_q.tolist(),
                                     log_lm.tolist())))
        for target_id, target, texts, log_q, log_lm in zip(
            records.target_ids, records.targets, records.texts, records.log_q, records.log_lm)
    ]


def as_records(sets) -> CandidateRecords:
    """``CandidateSet``s as columnar records."""
    return CandidateRecords(
        [s.target_id for s in sets], [s.target_tokens for s in sets],
        [[sequence_to_str(c.tokens) for c in s.candidates] for s in sets],
        [np.array([c.length for c in s.candidates]) for s in sets],
        [np.array([c.log_q for c in s.candidates]) for s in sets],
        [np.array([c.log_lm for c in s.candidates]) for s in sets],
    )


def outcome(call):
    """What ``call`` returns, or the class, message and line of its error."""
    try:
        return "ok", call()
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), exc.line_number


# -- record round trips ------------------------------------------------------------

def test_mono_round_trip(tmp_path):
    corpus = MonoCorpus(sentences=((1, 2, 3), (4, 5)))
    path = tmp_path / "mono.txt"
    write_mono(path, corpus)
    assert read_mono(path) == corpus
    write_mono(tmp_path / "again.txt", read_mono(path))
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_non_canonical_numerals_stay_distinct_string_tokens(tmp_path):
    text = "007 7 -0 0 -7 \u0661 +7 07\n"
    path = tmp_path / "mono.txt"
    path.write_text(text, encoding="utf-8")
    corpus = read_mono(path)
    assert corpus.sentences == (("007", 7, "-0", 0, -7, "\u0661", "+7", "07"),)
    write_mono(tmp_path / "again.txt", corpus)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_string_tokens_spelled_as_ints_are_not_written():
    # "7" would read back as the int 7, merging it with a different token
    assert sequence_from_str(sequence_to_str((7, "x", "007"))) == (7, "x", "007")
    with pytest.raises(ParseError):
        sequence_to_str(("7", "x"))
    model = ChannelModel("source_to_target", 0.1, out_vocab=(10, "10", "a"))
    with pytest.raises(ParseError):
        model.to_text()


def test_parallel_round_trip(tmp_path):
    corpus = parallel_corpus([((1, 2), (3, 4)), ((5,), (6,))])
    path = tmp_path / "pairs.tsv"
    write_parallel(path, corpus)
    assert read_parallel(path) == corpus


def test_synthetic_round_trip(tmp_path):
    pairs = [
        SyntheticPair((1, 2), (3, 4), "beam"),
        SyntheticPair((5,), (6,), "gamma-sample"),
    ]
    path = tmp_path / "synth.tsv"
    write_synthetic(path, pairs)
    assert read_synthetic(path) == pairs


def test_parallel_parse_errors_cite_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1 2\t3 4\nonly-one-field\n")
    with pytest.raises(ParseError) as err:
        read_parallel(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("line, fault", [
    ("1 2\t3", "source length 2 != target length 1"),
    ("\t3", "pair sequences must be non-empty"),
    ("1 2\t ", "pair sequences must be non-empty"),
])
def test_parallel_pair_faults_cite_lines(tmp_path, line, fault):
    path = tmp_path / "bad.tsv"
    path.write_text(f"1 2\t3 4\n{line}\n")
    with pytest.raises(ValidationError) as err:
        read_parallel(path)
    assert (err.value.line_number, str(err.value)) == (2, f"line 2: {fault}")


@pytest.mark.parametrize("line, fault", [
    ("1 2\t3\tbeam", "source length 2 != target length 1"),
    ("\t3\tbeam", "pair sequences must be non-empty"),
    ("1 2\t3\tmystery", "unknown provenance 'mystery'"),
])
def test_synthetic_pair_faults_cite_lines(tmp_path, line, fault):
    path = tmp_path / "bad.tsv"
    path.write_text(f"1 2\t3 4\tbeam\n{line}\n")
    with pytest.raises(ValidationError) as err:
        read_synthetic(path)
    assert (err.value.line_number, str(err.value)) == (2, f"line 2: {fault}")


def test_synthetic_rejects_unknown_provenance(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t2\tmystery\n")
    with pytest.raises(ValidationError) as err:
        read_synthetic(path)
    assert err.value.line_number == 1


# the line separators str.splitlines() honours besides "\n" and "\r"
LINE_SEPARATORS = ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c", "\x1d", "\x1e"]


def test_crlf_and_cr_line_ends_are_accepted(tmp_path):
    path = tmp_path / "mono.txt"
    path.write_bytes(b"a b\r\nc\rd\n")
    assert read_mono(path).sentences == (("a", "b"), ("c",), ("d",))
    path.write_bytes(b"1 2\t3 4\r\n5\t6\r")
    assert read_parallel(path).pairs == (((1, 2), (3, 4)), ((5,), (6,)))


@pytest.mark.parametrize("sep", LINE_SEPARATORS)
def test_mono_lines_end_at_newline_only(tmp_path, sep):
    path = tmp_path / "mono.txt"
    path.write_text(f"a b{sep}c d\n1 2\n", encoding="utf-8")
    assert read_mono(path).sentences == (("a", "b", "c", "d"), (1, 2))
    path.write_text(f"a b{sep}c d\n\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_mono(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("sep", LINE_SEPARATORS)
def test_parallel_lines_end_at_newline_only(tmp_path, sep):
    path = tmp_path / "pairs.tsv"
    path.write_text(f"1 2{sep}3\t4 5{sep}6\n7\t8\n", encoding="utf-8")
    assert read_parallel(path).pairs == (((1, 2, 3), (4, 5, 6)), ((7,), (8,)))
    path.write_text(f"1 2{sep}3\t4 5{sep}6\nonly-one-field\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_parallel(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("sep", LINE_SEPARATORS)
def test_synthetic_lines_end_at_newline_only(tmp_path, sep):
    path = tmp_path / "synth.tsv"
    path.write_text(f"1{sep}2\t3 4\tbeam\n", encoding="utf-8")
    assert read_synthetic(path) == [SyntheticPair((1, 2), (3, 4), "beam")]
    path.write_text(f"1{sep}2\t3 4\tbeam\n1\t2\tmystery\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        read_synthetic(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("sep", LINE_SEPARATORS)
def test_candidate_record_lines_end_at_newline_only(tmp_path, sep):
    record = f"0\t1{sep}2\t3 4|-1.0|-2.0\t5{sep}6|-3.0|-4.0"
    records = read_lines(tmp_path, [record])
    assert records.targets == [(1, 2)] and records.texts == [["3 4", "5 6"]]
    with pytest.raises(ValidationError) as err:
        read_lines(tmp_path, [record, "1\t7\t8|-1.0|-1.0"])
    assert err.value.line_number == 2


@pytest.mark.parametrize("sep", LINE_SEPARATORS)
def test_config_lines_end_at_newline_only(sep):
    assert _parse_config_text(f"seeds = 1{sep}2\n").seeds == (1, 2)
    with pytest.raises(ConfigError, match="^config line 2: bitext must be an integer"):
        _parse_config_text(f"# a comment{sep}bitext = 5\nbitext = abc\n")


def make_candidate_set():
    cands = tuple(
        Candidate(tokens=(i, i + 1), length=2, log_q=-1.5 * (i + 1), log_lm=-2.25 * (i + 1))
        for i in range(3)
    )
    return CandidateSet(target_id=4, target_tokens=(9, 8), candidates=cands)


def read_lines(tmp_path, lines) -> CandidateRecords:
    path = tmp_path / "records.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return read_candidate_records(path)


def test_candidate_records_round_trip(tmp_path):
    sets = [make_candidate_set()]
    path = tmp_path / "cands.txt"
    write_candidate_sets(path, sets)
    restored = read_candidate_records(path)
    assert as_sets(restored) == sets
    write_candidate_records(tmp_path / "again.txt", restored)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_candidate_records_empty_stream(tmp_path):
    assert parse_candidate_records([]) == []
    assert parse_candidate_records(["", "   "]) == []
    assert len(read_lines(tmp_path, [])) == 0
    assert len(read_lines(tmp_path, ["", "   "])) == 0


def test_candidate_record_single_candidate_is_invalid(tmp_path):
    record = format_candidate_record(make_candidate_set())
    fields = record.split("\t")[:3]  # target id, target tokens, one candidate
    with pytest.raises(ValidationError) as err:
        parse_candidate_records(["\t".join(fields)])
    assert err.value.line_number == 1
    with pytest.raises(ValidationError) as err:
        read_lines(tmp_path, ["\t".join(fields)])
    assert err.value.line_number == 1


def test_candidate_record_parse_errors_cite_lines(tmp_path):
    good = format_candidate_record(make_candidate_set())
    for parse in (parse_candidate_records, lambda lines: read_lines(tmp_path, lines)):
        with pytest.raises(ParseError) as err:
            parse([good, "zzz\tonly two"])
        assert err.value.line_number == 2
        with pytest.raises(ParseError) as err:
            parse(["4\t9 8\ttokens|notafloat|-1.0"])
        assert err.value.line_number == 1


@pytest.mark.parametrize("spelling", ["1_0", "+7", "\u0663", "07", "-0", " 7", "7\u2028"])
def test_candidate_target_ids_are_canonical_decimals(tmp_path, spelling):
    # int() would read each as a canonical id, so two spellings could name one target
    rest = format_candidate_record(make_candidate_set()).split("\t", 1)[1]
    with pytest.raises(ParseError, match=re.escape(f"line 2: bad target id {spelling!r}")):
        read_lines(tmp_path, [f"10\t{rest}", f"{spelling}\t{rest}"])
    assert read_lines(tmp_path, [f"10\t{rest}", f"0\t{rest}"]).target_ids == [10, 0]
    with pytest.raises(ValidationError, match="target_id must be >= 0"):
        read_lines(tmp_path, [f"-7\t{rest}"])


def test_candidate_record_floats_round_trip_exactly(tmp_path):
    cands = tuple(
        Candidate(tokens=(0,), length=1, log_q=-math.pi * (i + 1), log_lm=-math.e * (i + 1))
        for i in range(2)
    )
    cset = CandidateSet(target_id=0, target_tokens=(1,), candidates=cands)
    path = tmp_path / "cands.txt"
    write_candidate_sets(path, [cset])
    restored = read_candidate_records(path)
    assert restored.log_q[0][0] == cands[0].log_q
    assert restored.log_lm[0][1] == cands[1].log_lm


# legal tokens: ints, strings and the numerals that must stay strings
INT_TOKENS = st.integers(-10**12, 10**12)
STR_TOKENS = st.one_of(
    st.sampled_from(["a", "007", "-0", "07", "+7", "\u0661", "\u0663\u0664", "<s>", "</s>",
                     "<unk>", "x7", "\u00e9t\u00e9"]),
    st.text(min_size=1, max_size=4),
).filter(lambda t: outcome(lambda: token_to_str(t))[0] == "ok")
TOKENS = st.one_of(INT_TOKENS, STR_TOKENS)
FINITE = st.one_of(
    st.sampled_from([5e-324, -5e-324, -0.0, 0.0, 1.7976931348623157e308,
                     -1.7976931348623157e308, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def candidate_sets(draw, tokens=TOKENS, max_sets=4):
    sets = []
    for _ in range(draw(st.integers(0, max_sets))):
        n = draw(st.integers(2, 5))
        cands = []
        for _ in range(n):
            cand_tokens = tuple(draw(st.lists(tokens, min_size=1, max_size=4)))
            cands.append(Candidate(cand_tokens, len(cand_tokens), draw(FINITE), draw(FINITE)))
        sets.append(CandidateSet(draw(st.integers(0, 10**6)),
                                 tuple(draw(st.lists(tokens, min_size=1, max_size=4))),
                                 tuple(cands)))
    return sets


@pytest.fixture(scope="module")
def records_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


@settings(max_examples=150, deadline=None)
@given(sets=st.one_of(candidate_sets(INT_TOKENS), candidate_sets(STR_TOKENS), candidate_sets()))
def test_candidate_records_write_read_write_is_byte_stable(records_dir, sets):
    oracle = records_dir / "oracle.txt"
    write_candidate_sets(oracle, sets)
    first = records_dir / "first.txt"
    write_candidate_records(first, as_records(sets))
    assert first.read_bytes() == oracle.read_bytes()
    restored = read_candidate_records(first)
    assert as_sets(restored) == sets
    again = records_dir / "again.txt"
    write_candidate_records(again, restored)
    assert again.read_bytes() == first.read_bytes()


# tokens a record cannot hold: whitespace, '|', a string spelled as an int
UNWRITABLE = st.sampled_from(["a b", "a|b", "|", "7", "-3", "0", "t\u2028u"])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_records_from_candidate_chunks_equal_the_per_set_writer(records_dir, data):
    tokens = st.one_of(TOKENS, UNWRITABLE) if data.draw(st.booleans()) else TOKENS
    vocab = data.draw(st.lists(tokens, min_size=1, max_size=6, unique=True))
    lengths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    targets = [tuple(data.draw(st.lists(tokens, min_size=k, max_size=k))) for k in lengths]
    n = data.draw(st.integers(2, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    # chunks as candidate_chunks makes them: equal-length targets, at most 2 per chunk
    groups: dict = {}
    for i, k in enumerate(lengths):
        groups.setdefault(k, []).append(i)
    chunks = [
        (ids, rng.integers(0, len(vocab), size=(len(ids), n, k)),
         -rng.exponential(5.0, size=(len(ids), n)), -rng.exponential(5.0, size=(len(ids), n)))
        for k, group in groups.items() for ids in (group[:2], group[2:4], group[4:]) if ids
    ]
    sets = [None] * len(targets)
    for ids, token_idx, log_q, log_lm in chunks:
        for k, i in enumerate(ids):
            sets[i] = candidate_set(vocab, i, targets[i], token_idx[k], log_q[k], log_lm[k])
    oracle, path = records_dir / "oracle.txt", records_dir / "chunks.txt"
    want = outcome(lambda: write_candidate_sets(oracle, sets))
    got = outcome(lambda: write_candidate_records(
        path, CandidateRecords.from_chunks(vocab, targets, chunks)))
    assert got == want
    if want[0] == "ok":
        assert path.read_bytes() == oracle.read_bytes()


FAULTS = ("field count", "bad id", "negative id", "empty target", "missing bar", "extra bar",
          "non-float", "non-finite", "empty candidate", "one candidate")


def corrupt(fields: list, fault: str, k: int) -> list:
    """``fields`` of a record line with one fault in candidate field ``k``
    (or in the set's own fields)."""
    fields = list(fields)
    if len(fields) < 3:  # an earlier fault left no candidate field
        return fields + ["1|-1.0|-1.0"] * (k % 3)
    c = 2 + k % (len(fields) - 2)
    tokens, log_q, log_lm = (fields[c].split("|") + ["", ""])[:3]
    if fault == "field count":
        return fields[: k % 3]
    if fault == "bad id":
        fields[0] = ("x", "1.5", "", "0x1")[k % 4]
    elif fault == "negative id":
        fields[0] = f"-{k + 1}"
    elif fault == "empty target":
        fields[1] = ("", "  ")[k % 2]
    elif fault == "missing bar":
        fields[c] = f"{tokens}{log_q}|{log_lm}"
    elif fault == "extra bar":
        fields[c] = f"{tokens}|{log_q}|{log_lm}|"
    elif fault == "non-float":
        fields[c] = f"{tokens}|{log_q}|{('abc', '1..0', '')[k % 3]}"
    elif fault == "non-finite":
        fields[c] = f"{tokens}|{('nan', 'inf', '-inf', '1e999')[k % 4]}|{log_lm}"
    elif fault == "empty candidate":
        fields[c] = f"{('', ' ')[k % 2]}|{log_q}|{log_lm}"
    else:
        return fields[:3]
    return fields


@settings(max_examples=300, deadline=None)
@given(sets=candidate_sets(max_sets=5), data=st.data())
def test_columnar_reader_raises_what_the_per_set_reader_raises(records_dir, sets, data):
    lines = [format_candidate_record(s).split("\t") for s in sets]
    for _ in range(data.draw(st.integers(0, 3)) if lines else 0):
        r = data.draw(st.integers(0, len(lines) - 1))
        lines[r] = corrupt(lines[r], data.draw(st.sampled_from(FAULTS)),
                           data.draw(st.integers(0, 11)))
    text = ["\t".join(fields) for fields in lines]
    for _ in range(data.draw(st.integers(0, 2))):
        text.insert(data.draw(st.integers(0, len(text))), data.draw(st.sampled_from(["", " "])))
    path = records_dir / "corrupt.txt"
    path.write_text("".join(line + "\n" for line in text), encoding="utf-8")
    want = outcome(lambda: read_candidate_sets(path))
    got = outcome(lambda: read_candidate_records(path))
    if want[0] == "ok":
        assert got[0] == "ok" and as_sets(got[1]) == want[1]
    else:
        assert got == want


# -- CLI pipeline -------------------------------------------------------------------

TOY_ARGS = [
    "--source-vocab", "6", "--target-vocab", "6", "--min-len", "3", "--max-len", "6",
    "--bitext", "80", "--mono", "40", "--test", "20",
]


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("task")
    assert dispatch(["toygen", "--seed", "5", "--out", str(out), *TOY_ARGS]) == 0
    return out


@pytest.fixture(scope="module")
def models_dir(tmp_path_factory, toy_dir):
    out = tmp_path_factory.mktemp("models")
    bitext = str(toy_dir / "bitext.tsv")
    assert dispatch(["train", "--kind", "backward", "--bitext", bitext,
                     "--out", str(out / "backward.txt")]) == 0
    assert dispatch(["train", "--kind", "forward", "--bitext", bitext,
                     "--out", str(out / "forward.txt")]) == 0
    assert dispatch(["train", "--kind", "lm", "--bitext", bitext,
                     "--out", str(out / "lm.txt")]) == 0
    return out


def test_toygen_outputs_and_manifest(toy_dir):
    for name in ("bitext.tsv", "mono.txt", "mono_refs.tsv", "test.tsv",
                 "truth_lm.txt", "truth_channel.txt", "manifest.json"):
        assert (toy_dir / name).exists()
    manifest = read_manifest(toy_dir / "manifest.json")
    assert manifest.command == "toygen"
    assert manifest.seed == 5
    corpus = read_parallel(toy_dir / "bitext.tsv")
    assert len(corpus) == 80


@pytest.mark.parametrize("kind", ["backward", "lm"])
def test_train_refuses_synthetic_unless_forward(toy_dir, tmp_path, capsys, kind):
    out = tmp_path / "model.txt"
    code = dispatch(["train", "--kind", kind, "--bitext", str(toy_dir / "bitext.tsv"),
                     "--synthetic", str(tmp_path / "absent.tsv"), "--out", str(out)])
    assert (code, capsys.readouterr().err) == (
        1, f"error: --synthetic needs --kind forward, got --kind {kind}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["lm", "backward", "forward"])
def test_train_refuses_an_empty_synthetic_path(toy_dir, tmp_path, capsys, kind):
    out = tmp_path / "model.txt"
    code = dispatch(["train", "--kind", kind, "--bitext", str(toy_dir / "bitext.tsv"),
                     "--synthetic", "", "--out", str(out)])
    assert (code, capsys.readouterr().err) == (
        1, "error: --synthetic needs a path, got an empty one\n")
    assert list(tmp_path.iterdir()) == []


def test_select_of_no_records_writes_an_empty_corpus_that_train_reads(toy_dir, tmp_path):
    cands, chosen, model = tmp_path / "cands.tsv", tmp_path / "chosen.tsv", tmp_path / "fwd.txt"
    cands.write_text("\n\n")
    assert dispatch(["select", "--candidates", str(cands), "--mode", "select",
                     "--out", str(chosen)]) == 0
    assert chosen.read_bytes() == b"" and read_synthetic(chosen) == []
    bitext = str(toy_dir / "bitext.tsv")
    assert dispatch(["train", "--kind", "forward", "--bitext", bitext,
                     "--synthetic", str(chosen), "--out", str(model)]) == 0
    plain = tmp_path / "plain.txt"
    assert dispatch(["train", "--kind", "forward", "--bitext", bitext,
                     "--out", str(plain)]) == 0
    assert model.read_text() == plain.read_text()


@pytest.mark.parametrize("mode", ["select", "sample"])
def test_select_refuses_a_candidate_whose_length_is_not_its_targets(tmp_path, capsys, mode):
    # it used to exit 0 and write "3\t1 2\tgamma-select", a pair that
    # train --synthetic and analyze refuse
    cands, out = tmp_path / "cands.tsv", tmp_path / "chosen.tsv"
    cands.write_text("4\t1 2\t3 4|-1.0|-2.0\t4 3|-1.5|-2.5\n"
                     "0\t1 2\t3|-1.0|-2.0\t4|-1.5|-2.5\n")
    assert dispatch(["select", "--candidates", str(cands), "--mode", mode, "--seed", "1",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: candidate record of target 0: candidate length 1 != target length 2\n")
    assert list(tmp_path.iterdir()) == [cands]


def test_trained_models_parse_back(models_dir):
    from btfactors.toyseq.models import ChannelModel, NGramLM

    backward = ChannelModel.from_text((models_dir / "backward.txt").read_text())
    assert backward.direction == "target_to_source"
    lm = NGramLM.from_text((models_dir / "lm.txt").read_text())
    assert lm.order == 2


def test_backtranslate_strategies(toy_dir, models_dir, tmp_path):
    mono = str(toy_dir / "mono.txt")
    backward = str(models_dir / "backward.txt")
    lm = str(models_dir / "lm.txt")
    out_beam = tmp_path / "beam.tsv"
    assert dispatch(["backtranslate", "--mono", mono, "--backward", backward,
                     "--strategy", "beam", "--out", str(out_beam)]) == 0
    beam_pairs = read_synthetic(out_beam)
    assert len(beam_pairs) == 40 and all(p.provenance == "beam" for p in beam_pairs)

    out_gs = tmp_path / "gs.tsv"
    assert dispatch(["backtranslate", "--mono", mono, "--backward", backward,
                     "--strategy", "gamma-select", "--lm", lm, "--num-candidates", "8",
                     "--seed", "3", "--out", str(out_gs)]) == 0
    gs_pairs = read_synthetic(out_gs)
    assert all(p.provenance == "gamma-select" for p in gs_pairs)


def test_stochastic_commands_require_seed(toy_dir, models_dir, tmp_path, capsys):
    code = dispatch(["backtranslate", "--mono", str(toy_dir / "mono.txt"),
                     "--backward", str(models_dir / "backward.txt"),
                     "--strategy", "sampling", "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["beam", "sampling", "gamma-select", "gamma-sample"])
def test_every_backtranslate_strategy_requires_what_its_flags_say(toy_dir, models_dir,
                                                                  tmp_path, capsys, kind):
    spec = STRATEGIES[kind]
    base = ["backtranslate", "--mono", str(toy_dir / "mono.txt"),
            "--backward", str(models_dir / "backward.txt"), "--strategy", kind]
    lm_error = f"error: --lm is required for strategy {kind!r}\n"
    seed_error = "error: --seed is required for stochastic commands\n"
    outcomes = {}
    for extra in ([], ["--seed", "1"], ["--seed", "1", "--lm", str(models_dir / "lm.txt")]):
        out = tmp_path / f"{len(extra)}.tsv"
        outcomes[len(extra)] = (dispatch([*base, *extra, "--out", str(out)]),
                                capsys.readouterr().err, out.exists())
    assert outcomes[0] == ((1, seed_error, False) if spec.stochastic
                           else (1, lm_error, False) if spec.needs_lm else (0, "", True))
    assert outcomes[2] == ((1, lm_error, False) if spec.needs_lm else (0, "", True))
    assert outcomes[4] == (0, "", True)


@pytest.mark.parametrize("flags,message", [
    (["--strategy", "beam", "--gamma", "7", "--num-candidates", "-3"],
     "--gamma must be in [0, 1], got 7.0"),
    (["--strategy", "beam", "--num-candidates", "-3"], "--num-candidates must be >= 2, got -3"),
    (["--strategy", "sampling", "--seed", "1", "--beam-size", "0"],
     "--beam-size must be >= 1, got 0"),
    (["--strategy", "gamma-sample", "--seed", "1", "--gamma", "nan"],
     "--gamma must be in [0, 1], got nan"),
], ids=["gamma-on-beam", "num-candidates-on-beam", "beam-size-on-sampling", "gamma-nan"])
def test_backtranslate_range_checks_every_flag(models_dir, tmp_path, capsys, flags, message):
    # checked before any input is read, and whether or not the strategy reads the flag
    out = tmp_path / "x.tsv"
    code = dispatch(["backtranslate", "--mono", str(tmp_path / "absent.txt"),
                     "--backward", str(models_dir / "backward.txt"), "--lm",
                     str(models_dir / "lm.txt"), *flags, "--out", str(out)])
    assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
    assert not out.exists()


# each command's required flags, every input an absent file
COMMAND_FLAGS = {
    "toygen": {"--seed": "1"},
    "train": {"--kind": "lm", "--bitext": "absent.tsv"},
    "backtranslate": {"--mono": "absent.txt", "--backward": "absent.txt", "--strategy": "beam"},
    "manipulate": {"--mono": "absent.txt", "--backward": "absent.txt", "--seed": "1"},
    "score": {"--mono": "absent.txt", "--backward": "absent.txt", "--lm": "absent.txt",
              "--seed": "1"},
    "select": {"--candidates": "absent.txt"},
    "oracle": {"--seed": "1"},
}


@pytest.mark.parametrize("command,flag,value,message", [
    ("toygen", "--seed", "-1", ">= 0, got -1"),
    ("train", "--order", "0", ">= 1, got 0"),
    ("train", "--alpha", "-1", "finite and non-negative, got -1.0"),
    ("backtranslate", "--seed", "-1", ">= 0, got -1"),
    ("manipulate", "--beam-size", "0", ">= 1, got 0"),
    ("manipulate", "--gamma", "1.5", "in [0, 1], got 1.5"),
    ("manipulate", "--seed", "-1", ">= 0, got -1"),
    ("score", "--num-candidates", "1", ">= 2, got 1"),
    ("score", "--gamma", "nan", "in [0, 1], got nan"),
    ("score", "--seed", "-1", ">= 0, got -1"),
    ("select", "--gamma", "-0.5", "in [0, 1], got -0.5"),
    ("select", "--seed", "-1", ">= 0, got -1"),
    ("oracle", "--order", "0", ">= 1, got 0"),
    ("oracle", "--alpha", "inf", "finite and non-negative, got inf"),
    ("oracle", "--seed", "-1", ">= 0, got -1"),
])
def test_a_flag_out_of_range_is_named_before_any_file_is_read(tmp_path, monkeypatch, capsys,
                                                              command, flag, value, message):
    monkeypatch.chdir(tmp_path)
    flags = {**COMMAND_FLAGS[command], flag: value, "--out": "out"}
    code = dispatch([command, *(part for pair in flags.items() for part in pair)])
    assert (code, capsys.readouterr()) == (1, ("", f"error: {flag} must be {message}\n"))
    assert list(tmp_path.iterdir()) == []


def test_manipulate_is_byte_deterministic(toy_dir, models_dir, tmp_path):
    args = ["manipulate", "--mono", str(toy_dir / "mono.txt"),
            "--backward", str(models_dir / "backward.txt"),
            "--gamma", "0.5", "--seed", "7"]
    first, second = tmp_path / "a", tmp_path / "b"
    assert dispatch(args + ["--out", str(first)]) == 0
    assert dispatch(args + ["--out", str(second)]) == 0
    assert (first / "synthetic.tsv").read_bytes() == (second / "synthetic.tsv").read_bytes()
    assert (first / "plan.json").read_bytes() == (second / "plan.json").read_bytes()
    plan = json.loads((first / "plan.json").read_text())
    assert plan["k"] == 20 and plan["size"] == 40


def test_score_and_select_pipeline(toy_dir, models_dir, tmp_path):
    mono = str(toy_dir / "mono.txt")
    backward = str(models_dir / "backward.txt")
    lm = str(models_dir / "lm.txt")
    scores = tmp_path / "scores.txt"
    cands = tmp_path / "cands.txt"
    assert dispatch(["score", "--mono", mono, "--backward", backward, "--lm", lm,
                     "--num-candidates", "8", "--seed", "11", "--gamma", "0.2",
                     "--out", str(scores), "--dump-candidates", str(cands)]) == 0
    for line in scores.read_text().splitlines():
        _, probs_text = line.split("\t")
        probs = [float(p) for p in probs_text.split()]
        assert len(probs) == 8
        assert abs(sum(probs) - 1.0) <= 1e-9
        assert all(0.0 < p < 1.0 for p in probs)

    chosen = tmp_path / "chosen.tsv"
    assert dispatch(["select", "--candidates", str(cands), "--gamma", "0.2",
                     "--mode", "select", "--out", str(chosen)]) == 0
    pairs = read_synthetic(chosen)
    assert len(pairs) == 40
    assert all(p.provenance == "gamma-select" for p in pairs)

    sampled = tmp_path / "sampled.tsv"
    assert dispatch(["select", "--candidates", str(cands), "--gamma", "0.2",
                     "--mode", "sample", "--seed", "2", "--out", str(sampled)]) == 0
    assert all(p.provenance == "gamma-sample" for p in read_synthetic(sampled))


def test_two_step_select_equals_one_step_gamma_select(toy_dir, models_dir, tmp_path):
    common = ["--mono", str(toy_dir / "mono.txt"), "--backward", str(models_dir / "backward.txt"),
              "--lm", str(models_dir / "lm.txt"), "--gamma", "0.3", "--num-candidates", "9",
              "--seed", "4"]
    one_step = tmp_path / "one.tsv"
    assert dispatch(["backtranslate", "--strategy", "gamma-select", *common,
                     "--out", str(one_step)]) == 0
    scores, cands = tmp_path / "scores.txt", tmp_path / "cands.txt"
    assert dispatch(["score", *common, "--out", str(scores),
                     "--dump-candidates", str(cands)]) == 0
    two_step = tmp_path / "two.tsv"
    assert dispatch(["select", "--candidates", str(cands), "--gamma", "0.3", "--mode", "select",
                     "--out", str(two_step)]) == 0
    assert two_step.read_bytes() == one_step.read_bytes()
    # scoring the dumped records one set at a time gives the batched scores
    rescored = tmp_path / "rescored.txt"
    assert dispatch(["score", "--candidates", str(cands), "--gamma", "0.3",
                     "--out", str(rescored)]) == 0
    assert rescored.read_bytes() == scores.read_bytes()


def counted_pool_passes(monkeypatch):
    """The candidate counts of every ``candidate_chunks`` pass made from here on."""
    passes = []
    chunks = decode.candidate_chunks

    def counted(*args, **kwargs):
        passes.append(args[3])
        return chunks(*args, **kwargs)

    for module in (btloop, decode):
        monkeypatch.setattr(module, "candidate_chunks", counted)
    return passes


@pytest.mark.parametrize("argv", [
    ["score", "--out", "scores.txt", "--dump-candidates", "cands.txt"],
    ["backtranslate", "--strategy", "gamma-select", "--out", "out.tsv"],
    ["backtranslate", "--strategy", "gamma-sample", "--out", "out.tsv"],
], ids=["score", "gamma-select", "gamma-sample"])
def test_gamma_commands_make_one_pool_pass(toy_dir, models_dir, tmp_path, monkeypatch, argv):
    passes = counted_pool_passes(monkeypatch)
    argv = [str(tmp_path / a) if a.endswith((".txt", ".tsv")) else a for a in argv]
    assert dispatch([*argv, "--mono", str(toy_dir / "mono.txt"),
                     "--backward", str(models_dir / "backward.txt"),
                     "--lm", str(models_dir / "lm.txt"), "--num-candidates", "7",
                     "--seed", "6"]) == 0
    assert passes == [7]


def test_select_sample_picks_at_the_pool_pass_next_uniforms(toy_dir, models_dir, tmp_path,
                                                            monkeypatch):
    mono, backward, lm = (str(toy_dir / "mono.txt"), str(models_dir / "backward.txt"),
                          str(models_dir / "lm.txt"))
    cands = tmp_path / "cands.txt"
    assert dispatch(["score", "--mono", mono, "--backward", backward, "--lm", lm,
                     "--num-candidates", "5", "--seed", str(2**32 + 9),
                     "--out", str(tmp_path / "scores.txt"),
                     "--dump-candidates", str(cands)]) == 0
    calls = []
    picks = cli_main.gamma_picks

    def recording(probs, uniforms=None):
        calls.append(uniforms)
        return picks(probs, uniforms)

    monkeypatch.setattr(cli_main, "gamma_picks", recording)
    assert dispatch(["select", "--candidates", str(cands), "--mode", "sample",
                     "--seed", str(2**32 + 9), "--out", str(tmp_path / "out.tsv")]) == 0
    expected = np.full(40, np.nan)
    for ids, next_uniforms, *_ in btloop.gamma_chunks(
            read_mono(mono).sentences, ChannelModel.from_text(read_text(backward)),
            NGramLM.from_text(read_text(lm)), 5, 2**32 + 9, []):
        expected[ids] = next_uniforms
    # one candidate count, so one group: every record, in corpus order
    [uniforms] = calls
    assert uniforms.tolist() == expected.tolist()


# candidate counts 2, 3 and 8, lengths varying inside a set, blank lines,
# a repeated target id and non-canonical spacing and float spellings
MIXED_RECORDS = (
    "0\t3 1\t1 2|-2.5|-3.0\t4|-1.25|-2.0\n"
    "\n"
    "7\tb a\tx y z|-4.0|-6.5\t2  x|-3.5|-1e0\t007 -0|-2.0|-2.75\n"
    "   \n"
    "3\t5 5 5\t1|-0.5|-0.75\t1 2|-1.0|-1.5\t1 2 3|-1.5|-2.25\t2|-0.25|-4.0"
    "\t3 3|-2.0|-0.5\t4 1 4 1|-3.0|-3.0\t1|-0.5|-0.75\t2 2 2 2 2|-6.0|-2.0\n"
    "7\tc\ta|-1.0|-1.0\ta b|-2.0|-1.5\t\u0661|-0.5|-3.5\n"
    "12\t9\t0|-3.25|-1.5\t0 0|-2.50|-3.125\n"
    "\n"
    "4\t1 2 3 4\t5 6|-2.0|-2.0\t5|-1.0|-2.5\t6 5 6|-4.5|-1.0\t5 5|-2.0|-2.0"
    "\t6|-0.75|-3.0\t5 6 5 6|-5.0|-4.0\t6 6|-1.75|-1.75\t5|-1.0|-2.5\n"
)

# the same counts, blank lines, repeated id and spellings, with every
# candidate as long as its target: select refuses any other record
SELECT_RECORDS = (
    "0\t3 1\t1 2|-2.5|-3.0\t4 4|-1.25|-2.0\n"
    "\n"
    "7\tb a\tx y|-4.0|-6.5\t2  x|-3.5|-1e0\t007 -0|-2.0|-2.75\n"
    "   \n"
    "3\t5 5 5\t1 1 1|-0.5|-0.75\t1 2 3|-1.0|-1.5\t1 2  3|-1.5|-2.25\t2 1 2|-0.25|-4.0"
    "\t3 3 3|-2.0|-0.5\t4 1 4|-3.0|-3.0\t1 1 1|-0.5|-0.75\t2 2 2|-6.0|-2.0\n"
    "7\tc\ta|-1.0|-1.0\tb|-2.0|-1.5\t\u0661|-0.5|-3.5\n"
    "12\t9\t0|-3.25|-1.5\t0|-2.50|-3.125\n"
    "\n"
    "4\t1 2 3 4\t5 6 5 6|-2.0|-2.0\t5 5 5 5|-1.0|-2.5\t6 5 6 6|-4.5|-1.0\t5 5 6 6|-2.0|-2.0"
    "\t6 6 6 5|-0.75|-3.0\t5 6 5 6|-5.0|-4.0\t6 6 5 5|-1.75|-1.75\t5 5 5 5|-1.0|-2.5\n"
)


def per_set_selection(path, mode, seed, gamma, out) -> None:
    """Write what ``select`` chooses from the records at ``path``, one set at
    a time, each sampled pick from its target's own stream at the draw after
    the L * n that generating its n candidates of length L took."""
    params = GammaParams(gamma=gamma)
    pairs = []
    for cset in read_candidate_sets(path):
        if mode == "select":
            idx = gamma_select(cset, params)
        else:
            rng = sentence_stream(seed, cset.target_id)
            rng.random(len(cset.target_tokens) * len(cset))
            idx = gamma_sample(cset, params, rng)
        pairs.append(SyntheticPair(cset.candidates[idx].tokens, cset.target_tokens,
                                   f"gamma-{mode}"))
    write_synthetic(out, pairs)


@pytest.mark.parametrize("mode,seed", [("select", None), ("sample", 0), ("sample", 1),
                                       ("sample", 9)])
def test_select_on_mixed_candidate_counts_equals_the_per_set_loop(tmp_path, mode, seed):
    path = tmp_path / "mixed.txt"
    path.write_text(SELECT_RECORDS, encoding="utf-8")
    out = tmp_path / "out.tsv"
    argv = ["select", "--candidates", str(path), "--gamma", "0.3", "--mode", mode,
            "--out", str(out)]
    assert dispatch(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
    expected = tmp_path / "expected.tsv"
    per_set_selection(path, mode, seed, 0.3, expected)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("seed", [4, 2**32 + 7])
def test_select_sample_on_ids_past_two_to_the_32_equals_the_per_set_loop(tmp_path, seed):
    # a stream id of 2**32 or more takes two entropy words
    path = tmp_path / "wide.txt"
    path.write_text("".join(
        f"{target_id}\t1 2\t5 6|-2.0|-2.0\t5 5|-1.0|-2.5\t6 5|-4.5|-1.0\t6 6|-0.75|-3.0\n"
        for target_id in (2**32 + 5, 3, 2**32 - 1, 2**32 + 5, 0, 2**40)), encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert dispatch(["select", "--candidates", str(path), "--gamma", "0.3", "--mode", "sample",
                     "--seed", str(seed), "--out", str(out)]) == 0
    expected = tmp_path / "expected.tsv"
    per_set_selection(path, "sample", seed, 0.3, expected)
    assert out.read_bytes() == expected.read_bytes()


def test_score_on_mixed_candidate_counts_equals_the_per_set_loop(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED_RECORDS, encoding="utf-8")
    scores, dump = tmp_path / "scores.txt", tmp_path / "dump.txt"
    assert dispatch(["score", "--candidates", str(path), "--gamma", "0.6", "--out", str(scores),
                     "--dump-candidates", str(dump)]) == 0
    sets = read_candidate_sets(path)
    params = GammaParams(gamma=0.6)
    lines = [f"{cset.target_id}\t" + " ".join(repr(p) for p in gamma_distribution(cset, params).probs)
             for cset in sets]
    assert scores.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
    expected = tmp_path / "expected.txt"
    write_candidate_sets(expected, sets)
    assert dump.read_bytes() == expected.read_bytes()


OVERFLOWING_RECORDS = (
    # the difference of two finite scores overflows
    "0\t1\t1|-1.0|-2.0\t2|-2.0|-1.0\n1\t2\t1|-1.0|-2.0\t2|-1e308|1e308\t3|-1.0|-1.0\n",
    # the sum of finite scores overflows while they are z-scored
    "0\t1\t1|-1.5e308|-1.0\t1|-1.5e308|-1.0\t1|-1.4e308|-1.0\n",
)


def test_gamma_errors_are_the_per_set_loops(tmp_path, capsys):
    # finite scores that overflow fail inside the Gamma kernel, with no
    # numpy warning beside the one-line error
    path = tmp_path / "overflow.txt"
    for records in OVERFLOWING_RECORDS:
        path.write_text(records, encoding="utf-8")
        with pytest.raises(InvalidInputError) as want:
            for cset in read_candidate_sets(path):
                gamma_select(cset, GammaParams())
        for command in ("select", "score"):
            argv = [command, "--candidates", str(path), "--out", str(tmp_path / "out.txt")]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert dispatch(argv) == 1
            assert capsys.readouterr().err == f"error: {want.value}\n"
            assert run_cli(*argv) == (1, f"error: {want.value}\n")


GOOD_RECORD = "{}\t1 2\t3 4|-1.0|-2.0\t4 3|-1.5|-2.5\n"
# a record whose Gamma kernel overflows, and one whose candidates are shorter than its target
OVERFLOWING_RECORD = "1\t2\t1|-1.0|-2.0\t2|-1e308|1e308\t3|-1.0|-1.0\n"
UNEQUAL_RECORD = "9\t1 2\t3|-1.0|-2.0\t4|-1.5|-2.5\n"
UNEQUAL_ERROR = "candidate record of target 9: candidate length 1 != target length 2"


def filler(count: int) -> str:
    """``count`` good records; 300 put what follows them in a later read block."""
    return "".join(GOOD_RECORD.format(i) for i in range(count))


def overflow_error(tmp_path) -> str:
    path = tmp_path / "overflow-only.txt"
    path.write_text(OVERFLOWING_RECORD, encoding="utf-8")
    with pytest.raises(InvalidInputError) as err:
        for cset in read_candidate_sets(path):
            gamma_select(cset, GammaParams())
    path.unlink()
    return str(err.value)


@pytest.mark.parametrize("gap", [0, 300])
@pytest.mark.parametrize("case", ["length after overflow", "seed with length",
                                  "seed with overflow", "parse after length"])
def test_select_raises_the_first_fault_in_a_fixed_order(tmp_path, capsys, case, gap):
    # of an undecodable byte, the first parse fault, the first length fault,
    # a missing seed and the first Gamma fault, the earliest in this list is
    # raised, wherever in the file each one is
    mode, seed, gap = "select", ["--seed", "1"], filler(gap)
    if case == "length after overflow":
        text, error = OVERFLOWING_RECORD + gap + UNEQUAL_RECORD, UNEQUAL_ERROR
    elif case == "seed with length":
        text, error = gap + UNEQUAL_RECORD, UNEQUAL_ERROR
        mode, seed = "sample", []
    elif case == "seed with overflow":
        text, error = OVERFLOWING_RECORD + gap, "--seed is required for stochastic commands"
        mode, seed = "sample", []
    else:
        lineno = 2 + gap.count("\n")
        text = UNEQUAL_RECORD + gap + "zzz\tonly two\n"
        error = f"line {lineno}: expected a target id, target tokens, and candidates, found 2 fields"
    cands, out = tmp_path / "cands.tsv", tmp_path / "chosen.tsv"
    cands.write_text(text, encoding="utf-8")
    argv = ["select", "--candidates", str(cands), "--mode", mode, *seed, "--out", str(out)]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == [cands]


def test_select_raises_a_gamma_fault_in_a_later_block(tmp_path, capsys):
    cands, out = tmp_path / "cands.tsv", tmp_path / "chosen.tsv"
    cands.write_text(filler(300) + OVERFLOWING_RECORD + filler(300), encoding="utf-8")
    error = overflow_error(tmp_path)
    assert dispatch(["select", "--candidates", str(cands), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == [cands]


@pytest.mark.parametrize("gap", [0, 2000])
def test_select_reports_an_undecodable_byte_after_a_malformed_line(tmp_path, capsys, gap):
    # the byte's offset in the file, also past the first 64 KiB read
    head = ("zzz\tonly two\n" + filler(gap) + GOOD_RECORD.format(5)).encode()
    assert gap == 0 or len(head) > 1 << 16
    cands, out = tmp_path / "cands.tsv", tmp_path / "chosen.tsv"
    cands.write_bytes(head + b"1 \xff\t2\n" + GOOD_RECORD.format(6).encode())
    assert dispatch(["select", "--candidates", str(cands), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cands}: not UTF-8 text (invalid start byte at byte {len(head) + 2})\n")
    assert list(tmp_path.iterdir()) == [cands]


def many_records(count: int, n: int, seed: int) -> str:
    """``count`` records of lengths 1 to 3 with ``n`` candidates each, ids
    shuffled, scores drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    lines = []
    for target_id in rng.permutation(count).tolist():
        length = 1 + target_id % 3
        cands = rng.integers(0, 9, size=(n, length)).tolist()
        log_q, log_lm = -rng.exponential(4.0, size=(2, n))
        lines.append(f"{target_id}\t" + " ".join(["7"] * length) + "".join(
            f"\t{' '.join(map(str, c))}|{q!r}|{lm!r}"
            for c, q, lm in zip(cands, log_q.tolist(), log_lm.tolist())))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("mode,seed", [("select", None), ("sample", 3)])
def test_select_over_many_read_blocks_equals_the_per_set_loop(tmp_path, mode, seed):
    path = tmp_path / "many.txt"
    path.write_text(many_records(700, 3, 1) + "\n" + many_records(200, 5, 2), encoding="utf-8")
    out, expected = tmp_path / "out.tsv", tmp_path / "expected.tsv"
    argv = ["select", "--candidates", str(path), "--gamma", "0.4", "--mode", mode,
            "--out", str(out)]
    assert dispatch(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
    per_set_selection(path, mode, seed, 0.4, expected)
    assert out.read_bytes() == expected.read_bytes()


def test_score_over_many_record_blocks_equals_the_per_set_loop(tmp_path):
    path = tmp_path / "many.txt"
    path.write_text(many_records(600, 4, 5), encoding="utf-8")
    scores = tmp_path / "scores.txt"
    assert dispatch(["score", "--candidates", str(path), "--gamma", "0.7",
                     "--out", str(scores)]) == 0
    params = GammaParams(gamma=0.7)
    assert scores.read_text(encoding="utf-8") == "".join(
        f"{cset.target_id}\t" + " ".join(repr(p) for p in gamma_distribution(cset, params).probs)
        + "\n" for cset in read_candidate_sets(path))


def test_select_memory_grows_by_a_chosen_pair_per_record(tmp_path):
    # records are read and scored a block at a time, so only the chosen
    # pairs grow with the file; record counts are whole 256-record blocks
    def peak(count):
        path = tmp_path / f"records-{count}.txt"
        path.write_text(many_records(count, 50, count), encoding="utf-8")
        tracemalloc.start()
        try:
            assert dispatch(["select", "--candidates", str(path),
                             "--out", str(tmp_path / f"chosen-{count}.tsv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(256), peak(4 * 256)
    assert (large - small) / (3 * 256) < 2048


def test_select_sampling_requires_seed(tmp_path, toy_dir, models_dir, capsys):
    cands = tmp_path / "c.txt"
    sets = [make_candidate_set()]
    write_candidate_sets(cands, sets)
    code = dispatch(["select", "--candidates", str(cands), "--mode", "sample",
                     "--out", str(tmp_path / "out.tsv")])
    assert code == 1


def test_analyze_outputs(toy_dir, models_dir, tmp_path):
    synth = tmp_path / "synth.tsv"
    assert dispatch(["backtranslate", "--mono", str(toy_dir / "mono.txt"),
                     "--backward", str(models_dir / "backward.txt"),
                     "--strategy", "sampling", "--seed", "4", "--out", str(synth)]) == 0
    out = tmp_path / "analysis"
    assert dispatch(["analyze", "--synthetic", str(synth),
                     "--backward", str(models_dir / "backward.txt"),
                     "--lm", str(models_dir / "lm.txt"),
                     "--references", str(toy_dir / "mono_refs.tsv"),
                     "--spectrum", "--out", str(out)]) == 0
    record = json.loads((out / "records.jsonl").read_text())
    assert record["pairs"] == 40
    assert record["synthetic_bleu"] is not None
    assert (out / "spectrum.txt").exists()
    values = [float(line.split("\t")[1]) for line in (out / "spectrum.txt").read_text().splitlines()]
    assert values == sorted(values, reverse=True)


def test_analyze_writes_a_rank_one_spectrum_entropy_as_positive_zero(models_dir, tmp_path):
    # every source has the same bag of tokens, so the representation matrix has rank one
    synth = tmp_path / "synth.tsv"
    write_synthetic(synth, [SyntheticPair(source=(3, 4), target=(t, 1), provenance="sampling")
                            for t in range(3)])
    out = tmp_path / "analysis"
    assert dispatch(["analyze", "--synthetic", str(synth),
                     "--backward", str(models_dir / "backward.txt"),
                     "--lm", str(models_dir / "lm.txt"), "--out", str(out)]) == 0
    text = (out / "records.jsonl").read_text()
    assert '"spectral_entropy": 0.0' in text
    assert math.copysign(1.0, json.loads(text)["spectral_entropy"]) == 1.0
    assert "spectral_entropy  0.000000\n" in (out / "report.txt").read_text()


def test_analyze_scores_out_of_vocabulary_sources_at_the_alpha_floor(models_dir, tmp_path):
    # "zz" and "w" are outside the backward and LM vocabularies, 99 outside
    # the targets the backward channel was trained on
    backward = ChannelModel.from_text((models_dir / "backward.txt").read_text())
    lm = NGramLM.from_text((models_dir / "lm.txt").read_text())
    assert not {"zz", "w"} & (set(backward.out_vocab) | set(lm.content_vocab))
    pairs = [SyntheticPair(source=(0, "zz", 1), target=(2, 3, 99), provenance="sampling"),
             SyntheticPair(source=("w",), target=(1,), provenance="beam"),
             SyntheticPair(source=(3, "w", "zz", 2), target=(0, 1, 4, 5), provenance="sampling")]
    synth = tmp_path / "synth.tsv"
    write_synthetic(synth, pairs)
    out = tmp_path / "analysis"
    assert dispatch(["analyze", "--synthetic", str(synth),
                     "--backward", str(models_dir / "backward.txt"),
                     "--lm", str(models_dir / "lm.txt"), "--out", str(out)]) == 0
    log_q = np.array([reference_channel_score(backward, p.source, p.target) for p in pairs])
    log_lm = np.array([reference_lm_score(lm, p.source) for p in pairs])
    record = json.loads((out / "records.jsonl").read_text())
    assert record["mean_log_q"] == float(np.mean(log_q))
    assert record["mean_log_importance"] == float(np.mean(log_lm - log_q))
    assert math.isfinite(record["mean_log_importance"])


def test_analyze_scores_the_backward_channel_once(toy_dir, models_dir, tmp_path,
                                                   monkeypatch):
    synth = tmp_path / "synth.tsv"
    assert dispatch(["backtranslate", "--mono", str(toy_dir / "mono.txt"),
                     "--backward", str(models_dir / "backward.txt"),
                     "--strategy", "sampling", "--seed", "4", "--out", str(synth)]) == 0
    calls = []
    batch_score = ChannelModel.batch_score

    def counted(self, outputs, inputs):
        calls.append(1)
        return batch_score(self, outputs, inputs)

    monkeypatch.setattr(ChannelModel, "batch_score", counted)
    assert dispatch(["analyze", "--synthetic", str(synth),
                     "--backward", str(models_dir / "backward.txt"),
                     "--lm", str(models_dir / "lm.txt"), "--out", str(tmp_path / "a")]) == 0
    assert len(calls) == 1


def test_oracle_table_rows_satisfy_bound(tmp_path):
    out = tmp_path / "oracle"
    assert dispatch(["oracle", "--task", "tiny", "--seed", "3", "--num-targets", "6",
                     "--samples", "500", "--out", str(out)]) == 0
    lines = (out / "oracle.tsv").read_text().splitlines()
    assert lines[0].startswith("target_id")
    assert len(lines) == 7
    for line in lines[1:]:
        fields = line.split("\t")
        exact, bound = float(fields[2]), float(fields[3])
        assert bound <= exact + 1e-9


@pytest.mark.parametrize("count", ["-1", "-118"])
def test_oracle_refuses_a_negative_target_count(tmp_path, capsys, count):
    # a negative count used to slice off the last |N| targets and exit 0
    out = tmp_path / "oracle"
    assert dispatch(["oracle", "--task", "tiny", "--seed", "1", "--num-targets", count,
                     "--samples", "50", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --num-targets must be >= 0, got {count}\n"
    assert not out.exists()


def test_oracle_refuses_more_targets_than_the_tiny_task_has(tmp_path, capsys):
    # --num-targets 500 used to write the 120 mono targets and record 500
    out = tmp_path / "oracle"
    assert dispatch(["oracle", "--task", "tiny", "--seed", "1", "--num-targets", "121",
                     "--samples", "50", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --num-targets must be <= 120, got 121\n"
    assert not out.exists()
    assert dispatch(["oracle", "--task", "tiny", "--seed", "1", "--num-targets", "120",
                     "--samples", "2", "--out", str(out)]) == 0
    assert len((out / "oracle.tsv").read_text().splitlines()) == 1 + 120


@pytest.mark.parametrize("count", ["0", "6"])
@pytest.mark.parametrize("samples", ["-7", "1"])
def test_oracle_refuses_too_few_samples_before_any_work(tmp_path, capsys, monkeypatch,
                                                          count, samples):
    # with no targets a bad count used to exit 0 and enter the manifest
    def no_task(spec):
        raise AssertionError("task built before --samples was checked")

    monkeypatch.setattr("btfactors.cli.main.generate_toy_task", no_task)
    out = tmp_path / "oracle"
    assert dispatch(["oracle", "--task", "tiny", "--seed", "1", "--num-targets", count,
                     "--samples", samples, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --samples must be >= 2, got {samples}\n"
    assert not out.exists()


@pytest.mark.parametrize("samples", ["10000001", "1000000000000", "4611686018427387904"])
def test_oracle_refuses_more_samples_than_it_can_draw_before_any_work(tmp_path, capsys,
                                                                        monkeypatch, samples):
    # such counts used to end in numpy's "array is too big" or a memory error
    def no_task(spec):
        raise AssertionError("task built before --samples was checked")

    monkeypatch.setattr("btfactors.cli.main.generate_toy_task", no_task)
    out = tmp_path / "oracle"
    assert dispatch(["oracle", "--task", "tiny", "--seed", "1", "--num-targets", "6",
                     "--samples", samples, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --samples must be <= 10000000, got {samples}\n"
    assert not out.exists()


def test_the_toy_experiment_config_is_the_acceptance_sweep():
    # the README, the ROADMAP and the benchmark call this file the acceptance config
    from test_acceptance import ACCEPTANCE_TASK, SEEDS

    text = (Path(__file__).parents[1] / "configs" / "toy-experiment.cfg").read_text()
    strategies = (BTStrategy("beam"), BTStrategy("beam-weak"), BTStrategy("sampling"),
                  BTStrategy("data-manipulation", 0.5), BTStrategy("gamma-select", 0.2, 50),
                  BTStrategy("gamma-sample", 0.2, 50))
    assert SEEDS == (1, 2, 3, 4, 5)
    assert _parse_config_text(text) == btloop.ExperimentConfig(
        task=ACCEPTANCE_TASK, strategies=strategies, seeds=SEEDS)


def test_the_ambiguous_config_is_the_acceptance_sweep_with_forty_source_tokens():
    configs = Path(__file__).parents[1] / "configs"
    acceptance = _parse_config_text((configs / "toy-experiment.cfg").read_text())
    ambiguous = _parse_config_text((configs / "toy-ambiguous.cfg").read_text())
    assert ambiguous == replace(acceptance, task=replace(acceptance.task, source_vocab_size=40))


@pytest.fixture(scope="module")
def ambiguous_records(tmp_path_factory):
    """The records ``bt-experiment`` writes for the many-to-one config."""
    out = tmp_path_factory.mktemp("ambiguous")
    config = Path(__file__).parents[1] / "configs" / "toy-ambiguous.cfg"
    assert dispatch(["bt-experiment", "--config", str(config), "--out", str(out)]) == 0
    return [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]


def test_ambiguous_experiment_matches_frozen_golden(ambiguous_records):
    golden = json.loads(
        (Path(__file__).parent / "goldens" / "experiment_ambiguous.json").read_text())
    assert len(ambiguous_records) == len(golden)
    for record, expected in zip(ambiguous_records, golden):
        for key, value in expected.items():
            if isinstance(value, float):
                assert record[key] == pytest.approx(value, rel=1e-9), (key, record)
            else:
                assert record[key] == value, (key, record)


def test_gamma_select_beats_beam_on_the_ambiguous_task(ambiguous_records):
    # the paper's claim, where picking among a target's likely sources decides BLEU
    bleu = {(r["strategy"], r["seed"]): r["test_bleu"] for r in ambiguous_records}
    seeds = sorted({seed for _, seed in bleu})
    wins = [seed for seed in seeds
            if bleu["gamma-select(gamma=0.2,n=50)", seed] > bleu["beam", seed]]
    assert seeds == [1, 2, 3, 4, 5] and len(wins) >= 4, wins


def test_bt_experiment_command(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "# smoke config\n"
        "seeds = 1\n"
        "strategies = beam sampling\n"
        "bitext = 60\nmono = 60\ntest = 30\n"
        "min_len = 3\nmax_len = 5\n"
        "source_vocab = 6\ntarget_vocab = 6\n"
    )
    out = tmp_path / "exp"
    assert dispatch(["bt-experiment", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "report.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert {r["strategy"] for r in records} == {"none", "beam", "sampling"}
    assert (out / "report.txt").read_text().startswith("strategy")


def run_cli(*argv):
    """The CLI in a fresh interpreter: (exit status, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "btfactors.cli.main", *map(str, argv)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("line,message", [
    ("bitext = abc", "config line 2: bitext must be an integer, got 'abc'"),
    ("seeds = 1 x", "config line 2: seeds must be an integer, got 'x'"),
    ("num_candidates = 2.5", "config line 2: num_candidates must be an integer, got '2.5'"),
    ("alpha = 0.1.2", "config line 2: alpha must be a number, got '0.1.2'"),
    ("strategies = beam sampling beam", "duplicate strategy 'beam'"),
    # range checks hold even though no listed strategy reads these keys
    ("gamma_dm = 2", "config line 2: gamma_dm must be in [0, 1], got '2'"),
    ("gamma_score = 7", "config line 2: gamma_score must be in [0, 1], got '7'"),
    ("gamma_score = nan", "config line 2: gamma_score must be in [0, 1], got 'nan'"),
    ("num_candidates = 1", "config line 2: num_candidates must be >= 2, got '1'"),
    # the later value used to win silently
    ("mono = 5", "config line 3: duplicate key 'mono' (first on line 2)"),
    # each row of the report used to be written twice
    ("seeds = 1 2 1", "duplicate seed 1"),
    # these three used to fail inside the sweep, the first after seeds 1 and 2 had run
    ("seeds = 1 2 -1", "config line 2: seeds must be >= 0, got '-1'"),
    ("lm_order = 0", "config line 2: lm_order must be >= 1, got '0'"),
    ("alpha = -1", "config line 2: alpha must be finite and non-negative, got '-1'"),
    ("alpha = inf", "config line 2: alpha must be finite and non-negative, got 'inf'"),
    # these four used to name neither the key nor the line
    ("beam_size = 0", "config line 2: beam_size must be >= 1, got '0'"),
    ("noise = 1", "config line 2: noise: channel_noise must lie strictly inside (0, 1)"),
    ("min_len = 0", "config line 2: min_len: bad length range (0, 12)"),
    ("source_vocab = 1", "config line 2: source_vocab: vocabulary sizes must be >= 2"),
], ids=["int", "seeds", "int-as-float", "float", "duplicate-strategy", "gamma-dm-range",
        "gamma-score-range", "gamma-score-nan", "num-candidates-range", "duplicate-key",
        "duplicate-seed", "seed-range", "lm-order-range", "alpha-range", "alpha-inf",
        "beam-size-range", "noise-range", "min-len-range", "source-vocab-range"])
def test_bad_config_values_are_a_one_line_error(tmp_path, line, message):
    config = tmp_path / "exp.cfg"
    config.write_text(f"# bad value below\n{line}\nmono = 10\n", encoding="utf-8")
    assert run_cli("bt-experiment", "--config", config, "--out", tmp_path / "exp") == (
        1, f"error: {message}\n")
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--noise", "1", "--noise: channel_noise must lie strictly inside (0, 1)"),
    ("--min-len", "0", "--min-len: bad length range (0, 12)"),
    ("--source-vocab", "1", "--source-vocab: vocabulary sizes must be >= 2"),
    # a length range checks both keys; the message names the flag given
    ("--max-len", "3", "--max-len: bad length range (4, 3)"),
])
def test_toygen_range_faults_name_their_flag(tmp_path, capsys, flag, value, message):
    out = tmp_path / "task"
    assert dispatch(["toygen", "--seed", "0", "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_task_key_labels_name_a_key_the_config_sets():
    # min_len alone past the default max_len: the line that set min_len is named
    with pytest.raises(InvalidInputError) as exc:
        _parse_config_text("\nmin_len = 13\n")
    assert str(exc.value) == "config line 2: min_len: bad length range (13, 12)"
    # without a label the spec's own message is unchanged
    with pytest.raises(InvalidInputError, match=r"^bad length range \(13, 12\)$"):
        ToyTaskSpec.from_keys({"min_len": 13})


# a value other than the default for every task key
TASK_VALUES = {"source_vocab": 7, "target_vocab": 9, "min_len": 2, "max_len": 5,
               "noise": 0.3, "bitext": 11, "mono": 12, "test": 13}


@pytest.mark.parametrize("key", TASK_VALUES)
def test_a_task_key_sets_the_same_spec_as_flag_and_as_config_line(tmp_path, monkeypatch, key):
    assert list(TASK_VALUES) == list(TASK_KEYS)
    value = TASK_VALUES[key]
    assert type(value) is type(TASK_KEYS[key]) and value != TASK_KEYS[key]
    specs = []

    def capture(spec):
        specs.append(spec)
        raise InvalidInputError("captured")

    monkeypatch.setattr(cli_main, "generate_toy_task", capture)
    flag = "--" + key.replace("_", "-")
    assert dispatch(["toygen", "--seed", "0", "--out", str(tmp_path), flag, str(value)]) == 1
    parsed = _parse_config_text(f"{key} = {value}\n").task
    assert specs == [parsed]
    assert parsed != ToyTaskSpec() and parsed.keys()[key] == value


def test_toygen_manifest_params_are_the_spec_keys(toy_dir):
    params = read_manifest(toy_dir / "manifest.json").params
    spec = ToyTaskSpec(source_vocab_size=6, target_vocab_size=6, length_range=(3, 6),
                       bitext_size=80, mono_size=40, test_size=20, seed=5)
    # ints stay ints and the noise stays a float
    assert [(k, v, type(v)) for k, v in params.items()] == sorted(
        (k, v, type(v)) for k, v in spec.keys().items())
    assert params == {"bitext": 80, "max_len": 6, "min_len": 3, "mono": 40, "noise": 0.15,
                      "source_vocab": 6, "target_vocab": 6, "test": 20}


def readme_config_table():
    """(key, default) per row of the README's config-key table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("| key | type | default | sets |\n| --- | --- | --- | --- |\n", 1)[1]
    rows = []
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        key, _, default, _ = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows.append((key, default))
    return rows


def test_readme_config_table_lists_every_key_the_parser_accepts_with_its_default():
    rows = readme_config_table()
    assert [key for key, _ in rows] == list(CONFIG_KEYS)
    # every key is accepted, and the default the README gives is the one a missing key takes
    text = "".join(f"{key} = {default}\n" for key, default in rows)
    assert _parse_config_text(text) == _parse_config_text("")
    with pytest.raises(ConfigError, match=r"^unknown config keys: \['seed'\]$"):
        _parse_config_text("seed = 1\n")


def readme_walkthrough_commands():
    """The argv after ``btfactors`` of each command in the README's
    command-line walkthrough, backslash continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command-line walkthrough", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("btfactors ")]


def test_every_readme_walkthrough_command_parses():
    # parsing only: a renamed or dropped flag fails here, before any command runs
    parser = cli_main.build_parser()
    commands = readme_walkthrough_commands()
    assert commands
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: btfactors {shlex.join(argv)}")


def test_a_flag_prefix_is_a_usage_error(capsys):
    # a manifest stores argv as typed: a prefix accepted today could become
    # ambiguous once a flag sharing it is added
    assert dispatch(["select", "--mod", "select", "--candidates", "c.txt", "--out", "o"]) == 2
    assert "unrecognized arguments: --mod select" in capsys.readouterr().err
    parser = cli_main.build_parser()
    for argv in readme_walkthrough_commands():
        for k, arg in enumerate(argv):
            if arg.startswith("--"):
                cut = [*argv[:k], arg[:-1], *argv[k + 1:]]
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(cut)
                assert exc.value.code == 2, cut
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--vers"])
    assert exc.value.code == 2


EVERY_KIND = (BTStrategy("none"), BTStrategy("beam"), BTStrategy("beam-weak"),
              BTStrategy("sampling"), BTStrategy("data-manipulation", 0.5),
              BTStrategy("gamma-select", 0.2, 50), BTStrategy("gamma-sample", 0.2, 50))


def test_every_strategy_kind_builds_from_config_text_as_directly():
    assert [s.kind for s in EVERY_KIND] == list(STRATEGIES)
    assert [s.label for s in EVERY_KIND] == [
        "none", "beam", "beam-weak", "sampling", "data-manipulation(gamma=0.5)",
        "gamma-select(gamma=0.2,n=50)", "gamma-sample(gamma=0.2,n=50)"]
    for strategy in EVERY_KIND:
        [parsed] = _parse_config_text(f"strategies = {strategy.kind}\n").strategies
        assert parsed == strategy
    # each parameter comes from its own key
    keys = "gamma_dm = 0.25\ngamma_score = 0.75\nnum_candidates = 9\n"
    config = _parse_config_text(f"strategies = {' '.join(STRATEGIES)}\n{keys}")
    assert [s.label for s in config.strategies] == [
        "none", "beam", "beam-weak", "sampling", "data-manipulation(gamma=0.25)",
        "gamma-select(gamma=0.75,n=9)", "gamma-sample(gamma=0.75,n=9)"]


GAMMA_KINDS = ("gamma-select", "gamma-sample")


@pytest.mark.parametrize("argv,kinds,flags", [
    (["backtranslate", "--mono", "m", "--backward", "b", "--strategy", "beam", "--out", "o"],
     GAMMA_KINDS, ("gamma", "num_candidates")),
    (["score", "--out", "o"], GAMMA_KINDS, ("gamma", "num_candidates")),
    # a candidate record carries its own count
    (["select", "--candidates", "c", "--out", "o"], GAMMA_KINDS, ("gamma",)),
    (["manipulate", "--mono", "m", "--backward", "b", "--seed", "1", "--out", "o"],
     ("data-manipulation",), ("gamma",)),
])
def test_flag_defaults_are_the_strategy_tables(argv, kinds, flags):
    args = vars(cli_main.build_parser().parse_args(argv))
    assert {"gamma", "num_candidates"} & set(args) == set(flags)
    for kind in kinds:
        for name in flags:
            assert args[name] == STRATEGIES[kind].params[name].default, (kind, name)


def test_beam_backtranslation_over_a_mixed_vocabulary(tmp_path):
    (tmp_path / "bitext.tsv").write_text("a 1\t2 b\n")
    (tmp_path / "mono.txt").write_text("2 b\nb 2\n")
    backward = str(tmp_path / "backward.txt")
    assert dispatch(["train", "--kind", "backward", "--bitext", str(tmp_path / "bitext.tsv"),
                     "--out", backward]) == 0
    out = tmp_path / "synth.tsv"
    assert dispatch(["backtranslate", "--mono", str(tmp_path / "mono.txt"),
                     "--backward", backward, "--strategy", "beam", "--out", str(out)]) == 0
    assert [p.source for p in read_synthetic(out)] == [("a", 1), (1, 1)]


def test_missing_input_file_is_a_one_line_error(models_dir, tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    code = dispatch(["backtranslate", "--mono", str(missing),
                     "--backward", str(models_dir / "backward.txt"),
                     "--strategy", "beam", "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {missing}: No such file or directory\n"


def test_undecodable_input_file_is_a_one_line_error(models_dir, tmp_path, capsys):
    mono = tmp_path / "mono.txt"
    mono.write_bytes(b"1 2\n\xff\xfe 3\n")
    code = dispatch(["backtranslate", "--mono", str(mono),
                     "--backward", str(models_dir / "backward.txt"),
                     "--strategy", "beam", "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mono}: not UTF-8 text") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["backward", "lm"])
@pytest.mark.parametrize("change", ["alpha nan", "alpha inf", "count -1", "count nan"])
def test_model_values_out_of_range_are_a_one_line_error(toy_dir, models_dir, tmp_path, capsys,
                                                       kind, change):
    field, value = change.split()
    lines = (models_dir / f"{kind}.txt").read_text(encoding="utf-8").splitlines()
    if field == "alpha":
        lines = [f"alpha {value}" if line.startswith("alpha ") else line for line in lines]
    else:
        i = next(i for i, line in enumerate(lines) if line.startswith(("state ", "context ")))
        lines[i] = f"{lines[i].rsplit(' ', 1)[0]} {value}"
    models = {"backward": models_dir / "backward.txt", "lm": models_dir / "lm.txt"}
    models[kind] = tmp_path / f"{kind}.txt"
    models[kind].write_text("\n".join(lines) + "\n", encoding="utf-8")
    strategy = ["--strategy", "beam"] if kind == "backward" else [
        "--strategy", "gamma-select", "--lm", str(models["lm"]), "--seed", "1"]
    code = dispatch(["backtranslate", "--mono", str(toy_dir / "mono.txt"),
                     "--backward", str(models["backward"]), *strategy,
                     "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be finite and non-negative" in err


@pytest.mark.parametrize("kind", ["backward", "lm"])
@pytest.mark.parametrize("change", ["int-count", "int-alpha", "row-total", "alpha-times-events"])
def test_model_values_beyond_the_float_range_are_a_one_line_error(toy_dir, models_dir, tmp_path,
                                                                  capsys, kind, change):
    out = tmp_path / "out.txt"
    if change == "alpha-times-events":
        code = dispatch(["train", "--kind", kind, "--bitext", str(toy_dir / "bitext.tsv"),
                         "--alpha", "1e308", "--out", str(out)])
    else:
        lines = (models_dir / f"{kind}.txt").read_text(encoding="utf-8").splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(("state ", "context ")))
        key = lines[i].partition(" | ")[0]
        first, second = next(line for line in lines if line.startswith("vocab ")).split()[1:3]
        if change == "int-alpha":
            lines = [f"alpha 1{'0' * 400}" if line.startswith("alpha ") else line
                     for line in lines]
        elif change == "int-count":
            lines[i] = f"{key} | {first} 1{'0' * 400}"
        else:
            lines[i] = f"{key} | {first} 1e+308 {second} 1e+308"
        models = {"backward": models_dir / "backward.txt", "lm": models_dir / "lm.txt"}
        models[kind] = tmp_path / f"{kind}.txt"
        models[kind].write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = dispatch(["backtranslate", "--mono", str(toy_dir / "mono.txt"),
                         "--backward", str(models["backward"]), "--strategy", "gamma-select",
                         "--lm", str(models["lm"]), "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("overflow a float" in err) == (change == "row-total")
    assert not out.exists()


@pytest.mark.parametrize("value", ["yes", "2"])
def test_lm_eos_flag_other_than_0_or_1_is_a_one_line_error(toy_dir, models_dir, tmp_path,
                                                          capsys, value):
    lines = (models_dir / "lm.txt").read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("eos "))
    lines[lineno - 1] = f"eos {value}"
    lm = tmp_path / "lm.txt"
    lm.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = dispatch(["backtranslate", "--mono", str(toy_dir / "mono.txt"),
                     "--backward", str(models_dir / "backward.txt"),
                     "--strategy", "gamma-select", "--lm", str(lm), "--seed", "1",
                     "--out", str(tmp_path / "x.tsv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"line {lineno}" in err


def test_unknown_command_exits_2():
    assert dispatch(["warp-drive"]) == 2


def test_unknown_flag_exits_2():
    assert dispatch(["toygen", "--bogus", "1"]) == 2


def test_rerun_from_manifest_is_byte_identical(toy_dir, tmp_path):
    manifest = read_manifest(toy_dir / "manifest.json")
    snapshot = {
        name: (toy_dir / name).read_bytes()
        for name in manifest.outputs + ["manifest.json"]
    }
    assert rerun_from_manifest(toy_dir / "manifest.json") == 0
    for name, blob in snapshot.items():
        assert (toy_dir / name).read_bytes() == blob


@pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
def test_manifest_that_is_not_an_object_is_a_parse_error(tmp_path, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="not a valid run manifest"):
        rerun_from_manifest(path)


@pytest.mark.parametrize("argv", ["toygen", 3, None, ["toygen", 3], [["toygen"]]])
def test_manifest_argv_must_be_a_list_of_strings(tmp_path, argv):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"command": "toygen", "params": {}, "seed": 1, "inputs": {},
                                "outputs": [], "argv": argv, "version": "0.1.0"}))
    with pytest.raises(ParseError, match=re.escape("(argv must be a list of strings)")):
        rerun_from_manifest(path)


def stochastic_walkthrough(seed, vocab, lengths, sizes, gamma, n):
    """The stochastic commands over one small task, with relative paths."""
    s = str(seed)
    models = ["--mono", "task/mono.txt", "--backward", "backward.txt"]
    return [
        ["toygen", "--seed", s, "--out", "task", "--source-vocab", str(vocab[0]),
         "--target-vocab", str(vocab[1]), "--min-len", str(lengths[0]),
         "--max-len", str(lengths[1]), "--bitext", str(sizes[0]), "--mono", str(sizes[1]),
         "--test", str(sizes[2])],
        ["train", "--kind", "backward", "--bitext", "task/bitext.tsv", "--out", "backward.txt"],
        ["train", "--kind", "lm", "--bitext", "task/bitext.tsv", "--out", "lm.txt"],
        ["backtranslate", *models, "--strategy", "sampling", "--seed", s,
         "--out", "sampling.tsv"],
        ["backtranslate", *models, "--strategy", "gamma-sample", "--lm", "lm.txt",
         "--gamma", str(gamma), "--num-candidates", str(n), "--seed", s, "--out", "gs.tsv"],
        ["manipulate", *models, "--gamma", str(gamma), "--seed", s, "--out", "dm"],
        ["score", *models, "--lm", "lm.txt", "--gamma", str(gamma), "--num-candidates", str(n),
         "--seed", s, "--out", "scores.txt", "--dump-candidates", "candidates.txt"],
        ["select", "--candidates", "candidates.txt", "--gamma", str(gamma), "--mode", "sample",
         "--seed", s, "--out", "chosen.tsv"],
        ["backtranslate", *models, "--strategy", "gamma-select", "--lm", "lm.txt",
         "--gamma", str(gamma), "--num-candidates", str(n), "--seed", s, "--out", "gsel.tsv"],
        ["select", "--candidates", "candidates.txt", "--gamma", str(gamma), "--mode", "select",
         "--out", "chosen-select.tsv"],
    ]


def run_in(directory, commands) -> dict:
    """Run ``commands`` with ``directory`` as the working directory; every
    file it holds afterwards, by relative path."""
    with contextlib.chdir(directory):
        for argv in commands:
            assert dispatch(argv) == 0, argv
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 + 10), vocab=st.tuples(st.integers(2, 5), st.integers(2, 5)),
       lengths=st.integers(1, 4).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 5))),
       sizes=st.tuples(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60)),
       gamma=st.sampled_from((0.0, 0.2, 0.5, 1.0)), n=st.integers(2, 12))
def test_stochastic_commands_rerun_byte_identically(seed, vocab, lengths, sizes, gamma, n):
    commands = stochastic_walkthrough(seed, vocab, lengths, sizes, gamma, n)
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        files = run_in(first, commands)
        assert run_in(second, commands) == files
    assert {"sampling.tsv", "gs.tsv", "dm/synthetic.tsv", "dm/plan.json", "scores.txt",
            "candidates.txt", "chosen.tsv", "chosen.tsv.manifest.json"} <= set(files)
    # score + select writes what backtranslate writes, in both Gamma modes
    assert files["chosen.tsv"] == files["gs.tsv"]
    assert files["chosen-select.tsv"] == files["gsel.tsv"]
