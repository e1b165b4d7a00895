"""Command-line surface, wire formats, and run manifests."""

from .records import (
    CandidateRecords,
    read_candidate_records,
    read_mono,
    read_parallel,
    read_synthetic,
    write_candidate_records,
    write_mono,
    write_parallel,
    write_synthetic,
)
from .manifest import RunManifest, read_manifest, sha256_file, write_manifest

__all__ = [
    "CandidateRecords",
    "RunManifest",
    "read_candidate_records",
    "read_manifest",
    "read_mono",
    "read_parallel",
    "read_synthetic",
    "sha256_file",
    "write_candidate_records",
    "write_manifest",
    "write_mono",
    "write_parallel",
    "write_synthetic",
]
