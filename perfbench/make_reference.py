"""Regenerate reference.json: output digests of every workload for given seeds.

    PYTHONPATH=src python3 perfbench/make_reference.py 0 1 2 ...

Run it only at a commit whose outputs are known to be right; the benchmark
counts every later mismatch as a failed operation.  A seed is stored only
when its outputs pass the reference-free checks.
"""

from __future__ import annotations

import json
import sys

from worker import HERE, WORKDIR, import_btfactors
from workloads import WORKLOADS, Check


def main(seeds) -> int:
    import_btfactors()
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for workload in WORKLOADS.values():
        for seed in seeds:
            inputs = workload.build(seed, WORKDIR)
            output = workload.run(inputs)
            check = Check()
            workload.check(inputs, output, None, check)
            if check.failures:
                print(f"{workload.name} seed {seed}: not stored, {check.failures}", file=sys.stderr)
                workload.cleanup(inputs)
                return 1
            reference.setdefault(workload.name, {})[str(seed)] = workload.digests(inputs, output)
            workload.cleanup(inputs)
            print(f"{workload.name} seed {seed}: {check.attempted} operations stored")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
