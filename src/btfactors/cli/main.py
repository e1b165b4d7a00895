"""Command-line entry point.

Commands mirror the library surface: ``toygen`` emits a seeded toy task,
``train`` fits channel/LM models, ``backtranslate``/``manipulate``/
``select``/``score`` generate and score synthetic corpora, ``bt-experiment``
sweeps strategies over seeds, ``analyze`` reports corpus diagnostics, and
``oracle`` tabulates the exact marginal-likelihood bounds.  Every command
writes a run manifest beside its outputs; stochastic commands require an
explicit ``--seed`` (there is no wall-clock fallback).

Task keys (the ``toygen`` flags and the config's task keys) come from
``ToyTaskSpec().keys()``, strategy keys from ``STRATEGIES`` and experiment
keys from ``EXPERIMENT_KEYS``, with the library's types and defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .. import __version__
from ..btloop import (
    DEFAULT_BEAM_SIZE,
    DEFAULT_GAMMA_SPLIT,
    DEFAULT_NUM_CANDIDATES,
    DOMAINS,
    EXPERIMENT_KEYS,
    STRATEGIES,
    BTStrategy,
    ExperimentConfig,
    check_parameter,
    evaluate_marginal_oracles,
    run_bt_experiment,
    synthesize_corpus,
    synthesize_split,
    train_forward,
)
from ..analysis import corpus_diagnostics, corpus_profile
from ..errors import BtfactorsError, ConfigError, InvalidInputError
from ..manipulate import SyntheticPair, split_monolingual
from ..scoring import DEFAULT_GAMMA, GammaParams, gamma_picks, gamma_rows
from ..streams import sentence_stream, sentence_uniforms
from ..tokenio import record_lines, sequence_from_str
from ..toyseq.decode import candidate_chunks
from ..toyseq.models import (DEFAULT_ALPHA, DEFAULT_LM_ORDER, ChannelModel, NGramLM,
                             train_channel, train_ngram_lm)
from ..toyseq.taskgen import ToyTaskSpec, generate_toy_task
from .manifest import build_manifest, read_manifest, write_manifest
from .records import (
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

TINY_TASK = ToyTaskSpec.from_keys({"source_vocab": 4, "target_vocab": 4, "min_len": 2,
                                  "max_len": 4, "noise": 0.2, "bitext": 400, "mono": 120,
                                  "test": 60})
# each task key with its default: the toygen flags and the config's task keys
TASK_KEYS = ToyTaskSpec().keys()
# the config keys that set strategy parameters, with their defaults
STRATEGY_KEYS = {"gamma_dm": DEFAULT_GAMMA_SPLIT, "gamma_score": DEFAULT_GAMMA,
                 "num_candidates": DEFAULT_NUM_CANDIDATES}
# every key a bt-experiment config may set
CONFIG_KEYS = ("seeds", "strategies", *STRATEGY_KEYS, *EXPERIMENT_KEYS, *TASK_KEYS)


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_channel(path) -> ChannelModel:
    return ChannelModel.from_text(read_text(path))


def _load_lm(path) -> NGramLM:
    return NGramLM.from_text(read_text(path))


def _emit_manifest(out_dir_or_file, command, params, seed, inputs, outputs, argv):
    target = Path(out_dir_or_file)
    manifest_path = target / "manifest.json" if target.is_dir() else Path(str(target) + ".manifest.json")
    manifest = build_manifest(command, params, seed, inputs, outputs, argv)
    write_manifest(manifest_path, manifest)


# -- command implementations ----------------------------------------------------

def _cmd_toygen(args, argv) -> int:
    spec = ToyTaskSpec.from_keys({key: getattr(args, key) for key in TASK_KEYS}, args.seed)
    task = generate_toy_task(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_parallel(out / "bitext.tsv", task.bitext)
    write_mono(out / "mono.txt", task.mono)
    write_parallel(out / "mono_refs.tsv", task.mono_refs)
    write_parallel(out / "test.tsv", task.test)
    _write_text(out / "truth_lm.txt", task.truth_lm.to_text())
    _write_text(out / "truth_channel.txt", task.truth_channel.to_text())
    outputs = ["bitext.tsv", "mono.txt", "mono_refs.tsv", "test.tsv",
               "truth_lm.txt", "truth_channel.txt"]
    _emit_manifest(out, "toygen", spec.keys(), args.seed, {}, outputs, argv)
    return 0


def _cmd_train(args, argv) -> int:
    bitext = read_parallel(args.bitext)
    inputs = {"bitext": args.bitext}
    if args.kind == "lm":
        model_text = train_ngram_lm(bitext.sources(), args.order, args.alpha).to_text()
    elif args.kind == "backward":
        model_text = train_channel(bitext, "target_to_source", args.alpha).to_text()
    else:
        synthetic = []
        if args.synthetic:
            synthetic = read_synthetic(args.synthetic)
            inputs["synthetic"] = args.synthetic
        model_text = train_forward(bitext, synthetic, args.alpha).to_text()
    _write_text(args.out, model_text)
    params = {"kind": args.kind, "order": args.order, "alpha": args.alpha}
    _emit_manifest(args.out, "train", params, None, inputs, [str(args.out)], argv)
    return 0


def _require_seed(args) -> None:
    if args.seed is None:
        raise ConfigError("--seed is required for stochastic commands")


def _cmd_backtranslate(args, argv) -> int:
    # the manifest records every flag, also those the strategy does not read
    flags = {name: getattr(args, name) for name in ("gamma", "num_candidates", "beam_size")}
    for name, value in flags.items():
        check_parameter(name, value, "--" + name.replace("_", "-"))
    spec = STRATEGIES[args.strategy]
    if spec.stochastic:
        _require_seed(args)
    if spec.needs_lm and not args.lm:
        raise ConfigError(f"--lm is required for strategy {args.strategy!r}")
    strategy = BTStrategy(args.strategy, **{name: getattr(args, name) for name in spec.params})
    mono = read_mono(args.mono)
    backward = _load_channel(args.backward)
    inputs = {"mono": args.mono, "backward": args.backward}
    lm = None
    if spec.needs_lm:
        lm = _load_lm(args.lm)
        inputs["lm"] = args.lm
    seed = args.seed if args.seed is not None else 0
    pairs = synthesize_corpus(mono, backward, lm, strategy, seed, args.beam_size)
    write_synthetic(args.out, pairs)
    params = {"strategy": args.strategy, **flags}
    _emit_manifest(args.out, "backtranslate", params, args.seed, inputs, [str(args.out)], argv)
    return 0


def _cmd_manipulate(args, argv) -> int:
    mono = read_mono(args.mono)
    backward = _load_channel(args.backward)
    plan = split_monolingual(mono, args.gamma, args.seed)
    pairs = synthesize_split(mono, backward, plan, args.seed, args.beam_size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_synthetic(out / "synthetic.tsv", pairs)
    plan_record = {
        "gamma": plan.gamma,
        "seed": plan.seed,
        "k": len(plan.beam_ids),
        "beam_count": len(plan.beam_ids),
        "sampling_count": len(plan.sampling_ids),
        "size": plan.size,
    }
    _write_text(out / "plan.json", json.dumps(plan_record, sort_keys=True, indent=2) + "\n")
    params = {"gamma": args.gamma, "beam_size": args.beam_size}
    inputs = {"mono": args.mono, "backward": args.backward}
    _emit_manifest(out, "manipulate", params, args.seed, inputs,
                   ["synthetic.tsv", "plan.json"], argv)
    return 0


def _generate_candidates(args, inputs, params: GammaParams):
    """Every mono sentence's Gamma distribution, in corpus order, and a
    function that builds the candidate records they score."""
    mono = read_mono(args.mono)
    backward = _load_channel(args.backward)
    lm = _load_lm(args.lm)
    inputs.update({"mono": args.mono, "backward": args.backward, "lm": args.lm})
    dists: list = [None] * len(mono)
    kept = []
    chunks = candidate_chunks(backward, lm, mono.sentences, args.num_candidates,
                              lambda ids, count: sentence_uniforms(args.seed, ids, count))
    for ids, _, token_idx, log_q, log_lm in chunks:
        probs = gamma_rows(log_q, log_lm, token_idx.shape[2], params)
        for i, row in zip(ids, probs):
            dists[i] = row
        kept.append((ids, token_idx, log_q, log_lm))
    return range(len(mono)), dists, lambda: CandidateRecords.from_chunks(
        backward.out_vocab, mono.sentences, kept)


def _record_gammas(records: CandidateRecords, params: GammaParams):
    """``(rows, probs)`` per candidate count: the Gamma distributions of the
    records at ``rows``, one ``gamma_rows`` call per count."""
    try:
        return [(rows, gamma_rows(log_q, log_lm, lengths, params))
                for rows, lengths, log_q, log_lm in records.groups()]
    except InvalidInputError:
        # raise the error of the first failing record, as one set at a time would
        for lengths, log_q, log_lm in zip(records.lengths, records.log_q, records.log_lm):
            gamma_rows([log_q], [log_lm], [lengths], params)
        raise


def _write_scores(path, ids, dists) -> None:
    _write_text(path, "".join(f"{target_id}\t" + " ".join(map(repr, probs.tolist())) + "\n"
                              for target_id, probs in zip(ids, dists)))


def _cmd_score(args, argv) -> int:
    inputs: dict = {}
    params_obj = GammaParams(gamma=args.gamma)
    if args.candidates:
        records = read_candidate_records(args.candidates)
        inputs["candidates"] = args.candidates
        ids, dists = records.target_ids, [None] * len(records)
        for rows, probs in _record_gammas(records, params_obj):
            for r, row in zip(rows, probs):
                dists[r] = row
        build_records = lambda: records
    else:
        if not (args.mono and args.backward and args.lm):
            raise ConfigError("score needs --candidates, or --mono with --backward and --lm")
        _require_seed(args)
        ids, dists, build_records = _generate_candidates(args, inputs, params_obj)
    _write_scores(args.out, ids, dists)
    outputs = [str(args.out)]
    if args.dump_candidates:
        # built after the scores are written, where a record-by-record
        # writer would meet an unwritable token
        write_candidate_records(args.dump_candidates, build_records())
        outputs.append(str(args.dump_candidates))
    params = {"gamma": args.gamma, "num_candidates": args.num_candidates}
    _emit_manifest(args.out, "score", params, args.seed, inputs, outputs, argv)
    return 0


def _cmd_select(args, argv) -> int:
    records = read_candidate_records(args.candidates)
    params_obj = GammaParams(gamma=args.gamma)
    if args.mode == "sample":
        _require_seed(args)
        # one uniform per record, each from its target's stream
        uniforms = sentence_uniforms(args.seed, records.target_ids, 1)[:, 0]
    chosen = [0] * len(records)
    for rows, probs in _record_gammas(records, params_obj):
        picks = gamma_picks(probs, None if args.mode == "select" else uniforms[rows])
        for r, c in zip(rows, picks.tolist()):
            chosen[r] = c
    provenance = "gamma-select" if args.mode == "select" else "gamma-sample"
    pairs = [SyntheticPair(sequence_from_str(texts[c]), target, provenance)
             for texts, target, c in zip(records.texts, records.targets, chosen)]
    write_synthetic(args.out, pairs)
    params = {"gamma": args.gamma, "mode": args.mode}
    _emit_manifest(args.out, "select", params, args.seed,
                   {"candidates": args.candidates}, [str(args.out)], argv)
    return 0


def _parse_config_text(text: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
    for lineno, raw in enumerate(record_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in linenos:
            raise ConfigError(
                f"config line {lineno}: duplicate key {key!r} (first on line {linenos[key]})")
        values[key] = value.strip()
        linenos[key] = lineno

    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def parse(key, text, kind):
        try:
            return kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(
                f"config line {linenos[key]}: {key} must be {what}, got {text!r}") from None

    def checked(key, text, name):
        value = parse(key, text, DOMAINS[name].type)
        check_parameter(name, value, f"config line {linenos[key]}: {key}", repr(text))
        return value

    task = ToyTaskSpec.from_keys({key: parse(key, values[key], type(default))
                                  for key, default in TASK_KEYS.items() if key in values})
    seeds = (1, 2, 3, 4, 5)
    if "seeds" in values:
        seeds = tuple(checked("seeds", s, "seed") for s in values["seeds"].split())
    # the parameter each strategy key sets
    key_params = {key: name for spec in STRATEGIES.values() for name, key in spec.params.items()}
    settings = dict(STRATEGY_KEYS)
    for key, name in key_params.items():
        if key in values:
            # checked whenever present, even when no listed strategy reads the key
            settings[key] = checked(key, values[key], name)
    strategies = []
    for kind in values.get("strategies", "beam sampling").split():
        if kind not in STRATEGIES:
            raise ConfigError(f"unknown strategy {kind!r}")
        params = STRATEGIES[kind].params
        strategies.append(BTStrategy(kind, **{name: settings[key] for name, key in params.items()}))
    # only the keys the config sets, so ExperimentConfig's defaults apply;
    # beam_size keeps ExperimentConfig's range message
    experiment = {key: (parse(key, values[key], DOMAINS[key].type) if key == "beam_size"
                        else checked(key, values[key], key))
                  for key in EXPERIMENT_KEYS if key in values}
    return ExperimentConfig(task=task, strategies=tuple(strategies), seeds=seeds, **experiment)


def _cmd_bt_experiment(args, argv) -> int:
    config = _parse_config_text(read_text(args.config))
    report = run_bt_experiment(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "report.txt", report.render())
    records = "".join(json.dumps(r, sort_keys=True) + "\n" for r in report.to_records())
    _write_text(out / "report.jsonl", records)
    _emit_manifest(out, "bt-experiment", {"config": str(args.config)}, None,
                   {"config": args.config}, ["report.txt", "report.jsonl"], argv)
    return 0


def _cmd_analyze(args, argv) -> int:
    synthetic = read_synthetic(args.synthetic)
    backward = _load_channel(args.backward)
    lm = _load_lm(args.lm)
    inputs = {"synthetic": args.synthetic, "backward": args.backward, "lm": args.lm}
    references = None
    if args.references:
        references = read_parallel(args.references).sources()
        inputs["references"] = args.references
    sources = [p.source for p in synthetic]
    vocab = sorted({tok for s in sources for tok in s}, key=str)
    # before the profile, whose empty-corpus error would mask the diagnostics'
    quality, importance, spectrum = corpus_diagnostics(synthetic, backward, lm, references, vocab)
    profile = corpus_profile(sources)

    lines = [
        f"pairs             {len(synthetic)}",
        f"mean_log_q        {quality.mean_log_q:.6f}",
        f"mean_log_imp      {importance.mean_log_importance:.6f}",
        f"synthetic_bleu    "
        + ("-" if quality.bleu_vs_reference is None else f"{quality.bleu_vs_reference:.4f}"),
        f"vocab_size        {profile.vocab_size}",
        f"spectral_entropy  {spectrum.normalized_spectral_entropy:.6f}",
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "report.txt", "\n".join(lines) + "\n")
    record = {
        "pairs": len(synthetic),
        "mean_log_q": quality.mean_log_q,
        "mean_log_importance": importance.mean_log_importance,
        "synthetic_bleu": quality.bleu_vs_reference,
        "vocab_size": profile.vocab_size,
        "length_histogram": {str(k): v for k, v in profile.length_histogram.items()},
        "token_frequency_histogram": {str(k): v for k, v in profile.token_frequency_histogram.items()},
        "spectral_entropy": spectrum.normalized_spectral_entropy,
    }
    _write_text(out / "records.jsonl", json.dumps(record, sort_keys=True) + "\n")
    outputs = ["report.txt", "records.jsonl"]
    if args.spectrum:
        spec_lines = [f"{i}\t{repr(v)}" for i, v in enumerate(spectrum.singular_values)]
        _write_text(out / "spectrum.txt", "\n".join(spec_lines) + "\n")
        outputs.append("spectrum.txt")
    _emit_manifest(out, "analyze", {"spectrum": bool(args.spectrum)}, None, inputs, outputs, argv)
    return 0


def _cmd_oracle(args, argv) -> int:
    if args.task != "tiny":
        raise ConfigError(f"unknown oracle task {args.task!r}")
    if args.num_targets < 0:
        # a negative slice bound would silently drop the last |N| targets
        raise ConfigError(f"--num-targets must be >= 0, got {args.num_targets}")
    if args.samples < 2:
        # checked before any target, so it holds for zero targets too
        raise ConfigError(f"--samples must be >= 2, got {args.samples}")
    spec = TINY_TASK.with_seed(args.seed)
    task = generate_toy_task(spec)
    backward = train_channel(task.bitext, "target_to_source", args.alpha,
                             out_vocab=task.source_vocab)
    forward = train_channel(task.bitext, "source_to_target", args.alpha,
                            out_vocab=task.target_vocab)
    lm = train_ngram_lm(task.bitext.sources(), args.order, args.alpha,
                        vocab=task.source_vocab)
    targets = task.mono.sentences[: args.num_targets]
    rows = ["target_id\tlength\texact_log_marginal\tjensen_bound\tmc_estimate\tmc_std_error"]
    for i, y in enumerate(targets):
        result = evaluate_marginal_oracles(
            lm, backward, forward, y, args.samples, sentence_stream(args.seed, i)
        )
        rows.append(
            f"{i}\t{len(y)}\t{repr(result.exact_log_marginal)}\t{repr(result.jensen_bound)}"
            f"\t{repr(result.mc_estimate)}\t{repr(result.mc_std_error)}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "oracle.tsv", "\n".join(rows) + "\n")
    params = {name: getattr(args, name)
              for name in ("task", "num_targets", "samples", "order", "alpha")}
    _emit_manifest(out, "oracle", params, args.seed, {}, ["oracle.tsv"], argv)
    return 0


# -- parser -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btfactors",
        description="Back-translation synthetic-data toolkit (toy-task scale).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("toygen", help="generate a seeded toy translation task")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    for key, default in TASK_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)
    p.set_defaults(func=_cmd_toygen)

    p = sub.add_parser("train", help="train a channel model or language model")
    p.add_argument("--kind", choices=("backward", "forward", "lm"), required=True)
    p.add_argument("--bitext", required=True)
    p.add_argument("--synthetic", help="synthetic corpus to add (kind=forward)")
    p.add_argument("--order", type=int, default=DEFAULT_LM_ORDER)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("backtranslate", help="synthesize one source per target sentence")
    p.add_argument("--mono", required=True)
    p.add_argument("--backward", required=True)
    p.add_argument("--strategy", required=True,
                   choices=("beam", "sampling", "gamma-select", "gamma-sample"))
    p.add_argument("--lm", help="source LM (gamma strategies)")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--num-candidates", type=int, default=DEFAULT_NUM_CANDIDATES)
    p.add_argument("--beam-size", type=int, default=DEFAULT_BEAM_SIZE)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_backtranslate)

    p = sub.add_parser("manipulate", help="beam/sampling split synthesis at ratio gamma")
    p.add_argument("--mono", required=True)
    p.add_argument("--backward", required=True)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA_SPLIT)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--beam-size", type=int, default=DEFAULT_BEAM_SIZE)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_manipulate)

    p = sub.add_parser("score", help="Gamma score distributions for candidate sets")
    p.add_argument("--candidates", help="existing candidate records")
    p.add_argument("--mono")
    p.add_argument("--backward")
    p.add_argument("--lm")
    p.add_argument("--num-candidates", type=int, default=DEFAULT_NUM_CANDIDATES)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--seed", type=int)
    p.add_argument("--dump-candidates", help="also write the generated candidate records")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("select", help="pick one candidate per record by Gamma score")
    p.add_argument("--candidates", required=True)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--mode", choices=("select", "sample"), default="select")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("bt-experiment", help="sweep strategies x seeds on toy tasks")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bt_experiment)

    p = sub.add_parser("analyze", help="diagnostics for a synthetic corpus")
    p.add_argument("--synthetic", required=True)
    p.add_argument("--backward", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--references")
    p.add_argument("--spectrum", action="store_true", help="dump (index, value) spectrum pairs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("oracle", help="exact marginal / bound / MC table on the tiny task")
    p.add_argument("--task", default="tiny")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--num-targets", type=int, default=20)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--order", type=int, default=DEFAULT_LM_ORDER)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oracle)

    return parser


def dispatch(argv) -> int:
    """Run one command; returns the process exit status.

    Usage errors exit 2 (argparse convention); domain errors and files that
    cannot be read or written print a single-line diagnostic and exit 1.
    """
    argv = [str(a) for a in argv]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except BtfactorsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


def rerun_from_manifest(manifest_path) -> int:
    """Re-drive a command from its stored argv."""
    manifest = read_manifest(manifest_path)
    return dispatch(manifest.argv)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
