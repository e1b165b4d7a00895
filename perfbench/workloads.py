"""The benchmark's three workloads.

Every workload is a closed loop with one client: the next call starts when
the previous one returns, as in a researcher's script.  The workload seed
is the only input; everything else is fixed here.

* ``sweep`` runs ``run_bt_experiment`` on the acceptance configuration
  (the strategies of configs/toy-experiment.cfg plus the ``none``
  baseline; bitext 300, mono 3000, test 400; V=20, lengths 4-12, beam 5,
  n=50, gamma_dm 0.5, gamma 0.2).  It is the paper's experiment; beam
  decoding does about half of its work, candidate sets and Gamma scoring
  most of the rest, and CLI record I/O none.
* ``cli`` drives the README walkthrough through ``btfactors.cli.main.dispatch``
  with relative paths in a fresh directory, at ``toygen`` defaults
  (2000/2000/400).  The same decoders and scorers run, but about a quarter
  of the time goes to writing and re-parsing records, models and manifests.
* ``oracle`` evaluates the exact marginal, the Jensen bound and the
  importance-sampled estimate at 10^5 samples for 100 targets of the tiny
  enumerable task (V=4, lengths 2-4).  Batched sampling and LM scoring do
  the work; beam decoding, Gamma scoring and record I/O do none, so a
  change to those must leave this workload unchanged.

Operations (a sweep cell, a CLI command, an oracle target) fail when they
raise or when their output check fails.  Outputs are checked against the
reference SHA-256 digests in reference.json when the seed has them, and
against reference-free invariants for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from collections import Counter
from pathlib import Path


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_path(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def length_histogram(sentences) -> dict:
    counts = Counter(len(s) for s in sentences)
    return {str(k): counts[k] for k in sorted(counts)}


class Check:
    """Per-operation outcomes of one iteration."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _matches(reference: dict | None, key: str, digest: str) -> bool:
    return reference is None or reference.get(key) == digest


# -- sweep --------------------------------------------------------------------

SWEEP_SIZES = {"bitext": 300, "mono": 3000, "test": 400, "vocab": 20, "lengths": "4-12",
               "beam": 5, "num_candidates": 50, "gamma_dm": 0.5, "gamma": 0.2}
SWEEP_STRATEGIES = ("beam", "beam-weak", "sampling", "data-manipulation", "gamma-select",
                    "gamma-sample")


class Sweep:
    name = "sweep"

    def build(self, seed: int, workdir: Path):
        from btfactors.btloop import BTStrategy, ExperimentConfig
        from btfactors.toyseq.taskgen import ToyTaskSpec

        def strategy(kind):
            if kind == "data-manipulation":
                return BTStrategy(kind=kind, gamma=SWEEP_SIZES["gamma_dm"])
            if kind.startswith("gamma-"):
                return BTStrategy(kind=kind, gamma=SWEEP_SIZES["gamma"],
                                  num_candidates=SWEEP_SIZES["num_candidates"])
            return BTStrategy(kind=kind)

        task = ToyTaskSpec(source_vocab_size=20, target_vocab_size=20, length_range=(4, 12),
                           channel_noise=0.15, bitext_size=300, mono_size=3000, test_size=400)
        return ExperimentConfig(task=task, strategies=tuple(map(strategy, SWEEP_STRATEGIES)),
                                seeds=(seed,), beam_size=5, alpha=0.1, lm_order=2)

    def run(self, config):
        import btfactors.btloop as btloop

        try:
            return btloop.run_bt_experiment(config).to_records()
        except Exception:  # any failed cell fails the whole call; check() counts it
            return None

    def digests(self, config, records) -> dict:
        """One digest per cell, of its line in ``report.jsonl``."""
        return {r["strategy"]: sha256_text(json.dumps(r, sort_keys=True)) for r in records}

    def check(self, config, records, reference, check: Check) -> None:
        labels = ["none"] + [s.label for s in config.strategies]
        if records is None:
            for label in labels:
                check.op(False, f"{label}: raised")
            return
        by_label = {r["strategy"]: r for r in records}
        digests = self.digests(config, records)
        mono = config.task.mono_size
        for label in labels:
            r = by_label.get(label)
            if r is None:
                check.op(False, f"{label}: missing")
                continue
            numbers = [v for v in r.values() if isinstance(v, float)]
            expected = 0 if label == "none" else mono
            ok = (all(math.isfinite(v) for v in numbers)
                  and r["synthetic_size"] == expected
                  and _matches(reference, label, digests[label]))
            check.op(ok, f"{label}: output differs")

    def items(self, records) -> int:
        return sum(r["synthetic_size"] for r in records or ())

    def properties(self, config, records) -> dict:
        from btfactors.toyseq.taskgen import generate_toy_task

        task = generate_toy_task(config.task.with_seed(config.seeds[0]))
        return {"sizes": SWEEP_SIZES, "mono_length_histogram": length_histogram(task.mono.sentences)}

    def cleanup(self, config) -> None:
        pass


# -- cli ----------------------------------------------------------------------

def cli_commands(seed: int) -> list[list[str]]:
    """The README walkthrough, minus ``bt-experiment`` (the sweep covers it)."""
    s = str(seed)
    return [
        ["toygen", "--seed", s, "--out", "task"],
        ["train", "--kind", "backward", "--bitext", "task/bitext.tsv", "--out", "backward.txt"],
        ["train", "--kind", "lm", "--bitext", "task/bitext.tsv", "--out", "lm.txt"],
        ["backtranslate", "--mono", "task/mono.txt", "--backward", "backward.txt",
         "--strategy", "beam", "--out", "synth-beam.tsv"],
        ["backtranslate", "--mono", "task/mono.txt", "--backward", "backward.txt",
         "--strategy", "sampling", "--seed", s, "--out", "synth-sampling.tsv"],
        ["manipulate", "--mono", "task/mono.txt", "--backward", "backward.txt",
         "--gamma", "0.5", "--seed", s, "--out", "dm"],
        ["backtranslate", "--mono", "task/mono.txt", "--backward", "backward.txt",
         "--strategy", "gamma-select", "--lm", "lm.txt", "--seed", s, "--out", "synth-gs.tsv"],
        ["score", "--mono", "task/mono.txt", "--backward", "backward.txt", "--lm", "lm.txt",
         "--seed", s, "--out", "scores.txt", "--dump-candidates", "candidates.txt"],
        ["select", "--candidates", "candidates.txt", "--gamma", "0.2", "--mode", "select",
         "--out", "chosen.tsv"],
        ["train", "--kind", "forward", "--bitext", "task/bitext.tsv",
         "--synthetic", "synth-gs.tsv", "--out", "forward.txt"],
        ["analyze", "--synthetic", "synth-beam.tsv", "--backward", "backward.txt",
         "--lm", "lm.txt", "--references", "task/mono_refs.tsv", "--spectrum",
         "--out", "analysis"],
        ["oracle", "--task", "tiny", "--seed", s, "--out", "oracle"],
    ]


def _manifest_of(argv: list[str]) -> str:
    """Relative path of the manifest a command writes."""
    out = argv[argv.index("--out") + 1]
    is_dir = argv[0] in ("toygen", "manipulate", "analyze", "oracle")
    return f"{out}/manifest.json" if is_dir else f"{out}.manifest.json"


class Cli:
    name = "cli"

    def build(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        return {"dir": Path(tempfile.mkdtemp(prefix="cli-", dir=workdir)),
                "commands": cli_commands(seed)}

    def run(self, inputs):
        import btfactors.cli.main as cli_main

        results = []
        cwd = os.getcwd()
        os.chdir(inputs["dir"])
        try:
            for argv in inputs["commands"]:
                try:
                    results.append(cli_main.dispatch(argv))
                except Exception as exc:  # one failed command must not stop the walkthrough
                    results.append(repr(exc))
        finally:
            os.chdir(cwd)
        return results

    def digests(self, inputs, results) -> dict:
        """One digest per file the walkthrough wrote, manifests included."""
        root = inputs["dir"]
        return {str(p.relative_to(root)): sha256_path(p)
                for p in sorted(root.rglob("*")) if p.is_file()}

    def check(self, inputs, results, reference, check: Check) -> None:
        root = inputs["dir"]
        digests = self.digests(inputs, results)
        for argv, rc in zip(inputs["commands"], results):
            what = " ".join(argv[:3])
            manifest_path = root / _manifest_of(argv)
            if rc != 0 or not manifest_path.is_file():
                check.op(False, f"{what}: exit {rc}")
                continue
            base = manifest_path.parent if manifest_path.name == "manifest.json" else root
            listed = json.loads(manifest_path.read_text())["outputs"]
            files = [base / name for name in listed] + [manifest_path]
            ok = all(f.is_file() for f in files) and all(
                _matches(reference, str(f.relative_to(root)), digests.get(str(f.relative_to(root))))
                for f in files)
            check.op(ok, f"{what}: outputs missing or differ")

    def items(self, results) -> int:
        return sum(1 for rc in results or () if rc == 0)

    def properties(self, inputs, results) -> dict:
        root = inputs["dir"]
        props = {
            "sizes": {"bitext": 2000, "mono": 2000, "test": 400,
                      "commands": len(inputs["commands"])},
            "output_bytes": sum(p.stat().st_size for p in root.rglob("*") if p.is_file()),
        }
        mono = root / "task" / "mono.txt"
        if mono.is_file():
            props["mono_length_histogram"] = length_histogram(
                line.split() for line in mono.read_text().splitlines())
        candidates = root / "candidates.txt"
        if candidates.is_file():
            distinct = [len({field.split("|", 1)[0] for field in line.split("\t")[2:]})
                        for line in candidates.read_text().splitlines()]
            props["candidate_record_bytes"] = candidates.stat().st_size
            props["distinct_candidates_per_set"] = sum(distinct) / max(len(distinct), 1)
        return props

    def cleanup(self, inputs) -> None:
        shutil.rmtree(inputs["dir"], ignore_errors=True)


# -- oracle -------------------------------------------------------------------

ORACLE_SIZES = {"vocab": 4, "lengths": "2-4", "targets": 100, "samples": 10**5,
                "bitext": 400, "mono": 120}


class Oracle:
    name = "oracle"

    def build(self, seed: int, workdir: Path):
        from btfactors.toyseq.models import train_channel, train_ngram_lm
        from btfactors.toyseq.taskgen import ToyTaskSpec, generate_toy_task

        spec = ToyTaskSpec(source_vocab_size=4, target_vocab_size=4, length_range=(2, 4),
                           channel_noise=0.2, bitext_size=400, mono_size=120, test_size=60,
                           seed=seed)
        task = generate_toy_task(spec)
        return {
            "seed": seed,
            "backward": train_channel(task.bitext, "target_to_source", 0.1,
                                      out_vocab=task.source_vocab),
            "forward": train_channel(task.bitext, "source_to_target", 0.1,
                                     out_vocab=task.target_vocab),
            "lm": train_ngram_lm(task.bitext.sources(), 2, 0.1, vocab=task.source_vocab),
            "targets": task.mono.sentences[:ORACLE_SIZES["targets"]],
        }

    def run(self, inputs):
        import btfactors.btloop as btloop
        import btfactors.streams as streams

        rows = []
        for i, y in enumerate(inputs["targets"]):
            try:
                r = btloop.evaluate_marginal_oracles(
                    inputs["lm"], inputs["backward"], inputs["forward"], y,
                    ORACLE_SIZES["samples"], streams.sentence_stream(inputs["seed"], i))
                rows.append((i, len(y), r.exact_log_marginal, r.jensen_bound,
                             r.mc_estimate, r.mc_std_error))
            except Exception:  # counted as a failed target by check()
                rows.append(None)
        return rows

    def digests(self, inputs, rows) -> dict:
        """One digest per row of the table ``btfactors oracle`` writes."""
        return {str(row[0]): sha256_text("\t".join(repr(v) for v in row))
                for row in rows if row is not None}

    def check(self, inputs, rows, reference, check: Check) -> None:
        digests = self.digests(inputs, rows)
        for i, row in enumerate(rows):
            if row is None:
                check.op(False, f"target {i}: raised")
                continue
            _, _, exact, bound, mc, se = row
            ok = (all(math.isfinite(v) for v in (exact, bound, mc, se))
                  and bound <= exact + 1e-9
                  and _matches(reference, str(i), digests[str(i)]))
            check.op(ok, f"target {i}: output differs")

    def items(self, rows) -> int:
        return sum(1 for row in rows or () if row is not None)

    def properties(self, inputs, rows) -> dict:
        return {"sizes": ORACLE_SIZES, "mono_length_histogram": length_histogram(inputs["targets"])}

    def cleanup(self, inputs) -> None:
        pass


WORKLOADS = {w.name: w for w in (Sweep(), Cli(), Oracle())}
