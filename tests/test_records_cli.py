import json
import math

import pytest

from btfactors.cli.main import dispatch, rerun_from_manifest
from btfactors.cli.manifest import read_manifest
from btfactors.cli.records import (
    format_candidate_record,
    parse_candidate_records,
    read_candidate_records,
    read_mono,
    read_parallel,
    read_synthetic,
    write_candidate_records,
    write_mono,
    write_parallel,
    write_synthetic,
)
from btfactors.errors import ParseError, ValidationError
from btfactors.manipulate import MonoCorpus, SyntheticPair
from btfactors.scoring import Candidate, CandidateSet
from btfactors.tokenio import sequence_from_str, sequence_to_str
from btfactors.toyseq.models import ChannelModel, ParallelCorpus


# -- record round trips ------------------------------------------------------------

def test_mono_round_trip(tmp_path):
    corpus = MonoCorpus.from_sequences([[1, 2, 3], [4, 5]])
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
    corpus = ParallelCorpus.from_pairs([((1, 2), (3, 4)), ((5,), (6,))])
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


def test_synthetic_rejects_unknown_provenance(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\t2\tmystery\n")
    with pytest.raises(ValidationError) as err:
        read_synthetic(path)
    assert err.value.line_number == 1


def make_candidate_set():
    cands = tuple(
        Candidate(tokens=(i, i + 1), length=2, log_q=-1.5 * (i + 1), log_lm=-2.25 * (i + 1))
        for i in range(3)
    )
    return CandidateSet(target_id=4, target_tokens=(9, 8), candidates=cands)


def test_candidate_records_round_trip(tmp_path):
    sets = [make_candidate_set()]
    path = tmp_path / "cands.txt"
    write_candidate_records(path, sets)
    restored = read_candidate_records(path)
    assert restored == sets
    write_candidate_records(tmp_path / "again.txt", restored)
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_candidate_records_empty_stream():
    assert parse_candidate_records([]) == []
    assert parse_candidate_records(["", "   "]) == []


def test_candidate_record_single_candidate_is_invalid():
    record = format_candidate_record(make_candidate_set())
    fields = record.split("\t")[:3]  # target id, target tokens, one candidate
    with pytest.raises(ValidationError) as err:
        parse_candidate_records(["\t".join(fields)])
    assert err.value.line_number == 1


def test_candidate_record_parse_errors_cite_lines():
    good = format_candidate_record(make_candidate_set())
    with pytest.raises(ParseError) as err:
        parse_candidate_records([good, "zzz\tonly two"])
    assert err.value.line_number == 2
    with pytest.raises(ParseError) as err:
        parse_candidate_records(["4\t9 8\ttokens|notafloat|-1.0"])
    assert err.value.line_number == 1


def test_candidate_record_floats_round_trip_exactly(tmp_path):
    cands = tuple(
        Candidate(tokens=(0,), length=1, log_q=-math.pi * (i + 1), log_lm=-math.e * (i + 1))
        for i in range(2)
    )
    cset = CandidateSet(target_id=0, target_tokens=(1,), candidates=cands)
    path = tmp_path / "cands.txt"
    write_candidate_records(path, [cset])
    restored = read_candidate_records(path)[0]
    assert restored.candidates[0].log_q == cands[0].log_q
    assert restored.candidates[1].log_lm == cands[1].log_lm


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


def test_select_sampling_requires_seed(tmp_path, toy_dir, models_dir, capsys):
    cands = tmp_path / "c.txt"
    sets = [make_candidate_set()]
    write_candidate_records(cands, sets)
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
