"""Run manifests.

Every command writes a manifest beside its outputs recording the command,
the fully resolved parameter set, the global seed, digests of every input
file, the produced output files, and the tool version.  Nothing volatile
(no timestamps, no absolute-path dependence beyond what the user typed), so
re-running a command reproduces outputs and manifest byte-for-byte, and the
stored argv is sufficient to re-drive the run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .. import __version__
from ..errors import ParseError
from .records import read_text


@dataclass
class RunManifest:
    command: str
    params: dict
    seed: int | None
    inputs: dict[str, str]
    outputs: list[str]
    argv: list[str]
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def sha256_file(path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


def build_manifest(command: str, params: dict, seed, input_paths: dict,
                   output_paths, argv) -> RunManifest:
    inputs = {name: sha256_file(path) for name, path in sorted(input_paths.items())}
    return RunManifest(
        command=command,
        params={k: params[k] for k in sorted(params)},
        seed=seed,
        inputs=inputs,
        outputs=[str(p) for p in output_paths],
        argv=[str(a) for a in argv],
    )


def write_manifest(path, manifest: RunManifest) -> None:
    Path(path).write_text(manifest.to_json())


def read_manifest(path) -> RunManifest:
    """The manifest at ``path``; a ParseError naming it unless it is a JSON
    object with every field and an ``argv`` of strings."""
    try:
        data = json.loads(read_text(path))
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        manifest = RunManifest(**{f.name: data[f.name] for f in fields(RunManifest)})
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: not a valid run manifest ({exc})") from exc
    if not (isinstance(manifest.argv, list) and all(isinstance(a, str) for a in manifest.argv)):
        raise ParseError(f"{path}: not a valid run manifest (argv must be a list of strings)")
    return manifest
