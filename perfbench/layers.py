"""What the traced run wraps in btfactors, and the per-layer metrics it
derives from the spans.

Layers are the package's modules: toyseq, scoring, manipulate, streams,
btloop, analysis and cli.  Each traced function gets a span name
``<layer>.<function>``; a metric groups one or more span names.  A metric
that needs a function which is gone at the measured commit is reported as
missing (``None``), never as zero or as a partial sum.
"""

from __future__ import annotations

import os
import statistics

from spans import ATTRS, FAILED, NAME, SpanTree, Target

LAYERS = ("toyseq", "scoring", "manipulate", "streams", "btloop", "analysis", "cli")
CLI_COMMANDS = ("toygen", "train", "backtranslate", "manipulate", "score", "select",
                "analyze", "oracle")


def _beam_key(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    sentence = args[1] if len(args) > 1 else kwargs["input_seq"]
    return {"key": (id(model), tuple(sentence))}


def _rows(args, kwargs, result):
    first = result[0] if isinstance(result, tuple) else result
    return {"rows": int(first.shape[0])}


def _distinct(args, kwargs, result):
    return {"distinct": len({c.tokens for c in result.candidates}),
            "n": len(result.candidates)}


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _command(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    return {"command": str(argv[0]) if argv else ""}


_TOYSEQ = "btfactors.toyseq"
_CLI = "btfactors.cli"

TARGETS = (
    Target("toyseq.beam_decode", f"{_TOYSEQ}.decode", "beam_decode", _beam_key),
    Target("toyseq.sample_decode", f"{_TOYSEQ}.decode", "sample_decode"),
    Target("toyseq.batch_sample", f"{_TOYSEQ}.decode", "batch_sample", _rows),
    Target("toyseq.batch_lm_scores", f"{_TOYSEQ}.decode", "batch_lm_scores", _rows),
    Target("toyseq.sample_candidate_set", f"{_TOYSEQ}.decode", "sample_candidate_set",
           _distinct),
    Target("toyseq.generate_toy_task", f"{_TOYSEQ}.taskgen", "generate_toy_task"),
    Target("toyseq.train_channel", f"{_TOYSEQ}.models", "train_channel"),
    Target("toyseq.train_ngram_lm", f"{_TOYSEQ}.models", "train_ngram_lm"),
    Target("toyseq.channel_score", f"{_TOYSEQ}.models", "channel_score"),
    Target("toyseq.lm_score", f"{_TOYSEQ}.models", "lm_score"),
    Target("toyseq.NGramLM.to_text", f"{_TOYSEQ}.models", "NGramLM.to_text"),
    Target("toyseq.NGramLM.from_text", f"{_TOYSEQ}.models", "NGramLM.from_text"),
    Target("toyseq.ChannelModel.to_text", f"{_TOYSEQ}.models", "ChannelModel.to_text"),
    Target("toyseq.ChannelModel.from_text", f"{_TOYSEQ}.models", "ChannelModel.from_text"),
    Target("streams.sentence_stream", "btfactors.streams", "sentence_stream"),
    Target("scoring.gamma_select", "btfactors.scoring", "gamma_select"),
    Target("scoring.gamma_sample", "btfactors.scoring", "gamma_sample"),
    Target("scoring.gamma_distribution", "btfactors.scoring", "gamma_distribution"),
    Target("manipulate.split_monolingual", "btfactors.manipulate", "split_monolingual"),
    Target("manipulate.assemble_mixed_corpus", "btfactors.manipulate", "assemble_mixed_corpus"),
    Target("btloop.run_bt_experiment", "btfactors.btloop", "run_bt_experiment"),
    Target("btloop.synthesize_corpus", "btfactors.btloop", "synthesize_corpus"),
    Target("btloop.train_forward", "btfactors.btloop", "train_forward"),
    Target("btloop.evaluate_test_bleu", "btfactors.btloop", "_evaluate_test_bleu"),
    Target("btloop.exact_marginal", "btfactors.btloop", "exact_marginal"),
    Target("btloop.jensen_lower_bound", "btfactors.btloop", "jensen_lower_bound"),
    Target("btloop.importance_mc_estimate", "btfactors.btloop", "importance_mc_estimate"),
    Target("btloop.evaluate_marginal_oracles", "btfactors.btloop", "evaluate_marginal_oracles"),
    Target("analysis.corpus_bleu", "btfactors.analysis", "corpus_bleu"),
    Target("analysis.corpus_quality_report", "btfactors.analysis", "corpus_quality_report"),
    Target("analysis.corpus_importance_report", "btfactors.analysis",
           "corpus_importance_report"),
    Target("analysis.sentence_representation_matrix", "btfactors.analysis",
           "sentence_representation_matrix"),
    Target("analysis.singular_spectrum", "btfactors.analysis", "singular_spectrum"),
    Target("cli.dispatch", f"{_CLI}.main", "dispatch", _command),
    *(Target(f"cli.{name}", f"{_CLI}.records", name, _path_bytes)
      for name in ("read_mono", "read_parallel", "read_synthetic", "read_candidate_records",
                   "write_mono", "write_parallel", "write_synthetic",
                   "write_candidate_records")),
    Target("cli.build_manifest", f"{_CLI}.manifest", "build_manifest"),
    Target("cli.write_manifest", f"{_CLI}.manifest", "write_manifest"),
    Target("cli.read_manifest", f"{_CLI}.manifest", "read_manifest"),
    Target("cli.sha256_file", f"{_CLI}.manifest", "sha256_file", _path_bytes),
)

TRAIN = ("toyseq.train_channel", "toyseq.train_ngram_lm")
SCORE = ("toyseq.channel_score", "toyseq.lm_score")
MODEL_TEXT = ("toyseq.NGramLM.to_text", "toyseq.NGramLM.from_text",
              "toyseq.ChannelModel.to_text", "toyseq.ChannelModel.from_text")
GAMMA = ("scoring.gamma_select", "scoring.gamma_sample", "scoring.gamma_distribution")
MANIPULATE = ("manipulate.split_monolingual", "manipulate.assemble_mixed_corpus")
SPECTRUM = ("analysis.sentence_representation_matrix", "analysis.singular_spectrum")
READS = ("cli.read_mono", "cli.read_parallel", "cli.read_synthetic",
         "cli.read_candidate_records")
WRITES = ("cli.write_mono", "cli.write_parallel", "cli.write_synthetic",
          "cli.write_candidate_records")
MANIFEST = ("cli.build_manifest", "cli.write_manifest", "cli.read_manifest",
            "cli.sha256_file")
BEAM = "toyseq.beam_decode"
SYNTH = "btloop.synthesize_corpus"
TEST_EVAL = "btloop.evaluate_test_bleu"
TARGET = "btloop.evaluate_marginal_oracles"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values, q: int) -> float:
    """q-th percentile, interpolated between ranks; 0 with no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _beam_split(tree: SpanTree, kind: str) -> float:
    return sum(tree.duration(i) for i in tree.of(BEAM)
               if tree.nearest(i, (SYNTH, TEST_EVAL)) == kind)


def _unique_ratio(tree: SpanTree) -> float:
    """Distinct (model, sentence) pairs over synthesis beam decodes.

    Pairs are counted within one sweep seed or one CLI command, the scope in
    which a model object stays alive, so a reused ``id`` cannot collide.
    """
    seen = set()
    calls = 0
    for i in tree.of(BEAM):
        if tree.nearest(i, (SYNTH,)) is None:
            continue
        scope = next((a for a in tree.ancestors(i)
                      if tree.spans[a][NAME] in ("btloop.run_bt_experiment", "cli.dispatch")), -1)
        seen.add((scope, (tree.spans[i][ATTRS] or {}).get("key")))
        calls += 1
    return _ratio(len(seen), calls)


def _top_level(tree: SpanTree, names) -> int:
    return sum(1 for i in tree.of(names) if tree.nearest(i, names) is None)


def _command_busy(tree: SpanTree, command: str) -> float:
    return sum(tree.duration(i) for i in tree.of("cli.dispatch")
               if (tree.spans[i][ATTRS] or {}).get("command") == command)


def _failed(tree: SpanTree, layer: str) -> int:
    """Failures counted where they were raised: a failed span of the layer
    none of whose children failed."""
    return sum(1 for i, span in enumerate(tree.spans)
               if span[FAILED] and span[NAME].startswith(layer + ".")
               and not any(tree.spans[c][FAILED] for c in tree.children[i]))


def _target_ms(tree: SpanTree, q: int) -> float:
    return 1000.0 * _percentile([tree.duration(i) for i in tree.of(TARGET)], q)


def _busy(*names):
    return names, lambda t: t.busy(names)


def _calls(name):
    return (name,), lambda t: len(t.of(name))


def _self(name):
    return (name,), lambda t: t.self_total(name)


def _attr(names, key):
    return names, lambda t: t.attr_sum(names, key)


# metric name -> (span names it needs, value from the span tree)
METRICS = {
    "toyseq.beam_decode.busy_s": _busy(BEAM),
    "toyseq.beam_decode.calls": _calls(BEAM),
    "toyseq.beam_decode.ms_per_call":
        ((BEAM,), lambda t: 1000.0 * _ratio(t.busy(BEAM), len(t.of(BEAM)))),
    "toyseq.beam_decode.synth_busy_s": ((BEAM, SYNTH), lambda t: _beam_split(t, SYNTH)),
    "toyseq.beam_decode.test_busy_s": ((BEAM, TEST_EVAL), lambda t: _beam_split(t, TEST_EVAL)),
    "toyseq.beam_decode.unique_ratio": ((BEAM, SYNTH), _unique_ratio),
    "toyseq.sample_candidate_set.busy_s": _busy("toyseq.sample_candidate_set"),
    "toyseq.sample_candidate_set.calls": _calls("toyseq.sample_candidate_set"),
    "toyseq.batch_sample.busy_s": _busy("toyseq.batch_sample"),
    "toyseq.batch_sample.self_s": _self("toyseq.batch_sample"),
    "toyseq.batch_sample.rows": _attr(("toyseq.batch_sample",), "rows"),
    "toyseq.batch_lm_scores.busy_s": _busy("toyseq.batch_lm_scores"),
    "toyseq.batch_lm_scores.self_s": _self("toyseq.batch_lm_scores"),
    "toyseq.batch_lm_scores.rows": _attr(("toyseq.batch_lm_scores",), "rows"),
    "toyseq.sample_decode.busy_s": _busy("toyseq.sample_decode"),
    "toyseq.generate_toy_task.busy_s": _busy("toyseq.generate_toy_task"),
    "toyseq.train.busy_s": _busy(*TRAIN),
    "toyseq.score.busy_s": _busy(*SCORE),
    "toyseq.model_text.busy_s": _busy(*MODEL_TEXT),
    "streams.sentence_stream.busy_s": _busy("streams.sentence_stream"),
    "streams.sentence_stream.calls": _calls("streams.sentence_stream"),
    "scoring.gamma.busy_s": _busy(*GAMMA),
    "scoring.sets": (GAMMA, lambda t: _top_level(t, GAMMA)),
    "scoring.us_per_set": (GAMMA, lambda t: 1e6 * _ratio(t.busy(GAMMA), _top_level(t, GAMMA))),
    "manipulate.busy_s": _busy(*MANIPULATE),
    "manipulate.split_monolingual.calls": _calls("manipulate.split_monolingual"),
    "btloop.synthesize_corpus.self_s": _self(SYNTH),
    "btloop.train_forward.busy_s": _busy("btloop.train_forward"),
    "btloop.run_bt_experiment.self_s": _self("btloop.run_bt_experiment"),
    "btloop.exact_marginal.busy_s": _busy("btloop.exact_marginal"),
    "btloop.jensen_lower_bound.busy_s": _busy("btloop.jensen_lower_bound"),
    "btloop.importance_mc_estimate.self_s": _self("btloop.importance_mc_estimate"),
    "btloop.target_ms_p50": ((TARGET,), lambda t: _target_ms(t, 50)),
    "btloop.target_ms_p90": ((TARGET,), lambda t: _target_ms(t, 90)),
    "analysis.corpus_quality_report.self_s": _self("analysis.corpus_quality_report"),
    "analysis.corpus_importance_report.self_s": _self("analysis.corpus_importance_report"),
    "analysis.corpus_bleu.busy_s": _busy("analysis.corpus_bleu"),
    "analysis.spectrum.busy_s": _busy(*SPECTRUM),
    "cli.records.read_s": _busy(*READS),
    "cli.records.write_s": _busy(*WRITES),
    "cli.records.bytes_read": _attr(READS, "bytes"),
    "cli.records.bytes_written": _attr(WRITES, "bytes"),
    "cli.manifest.busy_s": _busy(*MANIFEST),
    "cli.manifest.bytes_hashed": _attr(("cli.sha256_file",), "bytes"),
    **{f"cli.{cmd}.busy_s": (("cli.dispatch",), lambda t, cmd=cmd: _command_busy(t, cmd))
       for cmd in CLI_COMMANDS},
    # failures in the functions that remain are still counted
    **{f"{layer}.failed": ((), lambda t, layer=layer: _failed(t, layer)) for layer in LAYERS},
}


def layer_metrics(tree: SpanTree, missing) -> dict:
    """Every per-layer metric of a finished run; ``None`` marks a metric
    that needs a traced function which no longer exists."""
    out = {}
    for name, (needs, compute) in METRICS.items():
        if any(n in missing for n in needs):
            out[name] = None
        else:
            out[name] = compute(tree)
    return out


def self_time_ranking(tree: SpanTree, top: int = 8) -> list[tuple[str, float]]:
    """Span names by total self time, largest first."""
    totals: dict[str, float] = {}
    for i, span in enumerate(tree.spans):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + tree.self_time(i)
    return sorted(totals.items(), key=lambda kv: -kv[1])[:top]
