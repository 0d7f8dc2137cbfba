"""Record the reference digests of every exact output any seed can draw.

    python3 perfbench/make_reference.py

Enumerates the pool of each workload (``build(R, None)``), runs every
operation that has a digest key once, and writes ``reference.json``.  Run it
only at a commit whose outputs are the accepted reference; a change that
claims a speed-up must leave these digests unchanged.
"""

from __future__ import annotations

import json
import os
import sys
import warnings

import run
from ops import digest, ref_key
from spans import Tracer


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    os.makedirs(os.path.join(run.ROOT, run.OUT), exist_ok=True)
    R = run.import_package()
    tr = Tracer(False)
    reference: dict[str, str] = {}
    for workload in run.WORKLOADS:
        ops = [op for op in run.build_ops(workload, R, None) if op.key is not None]
        for op in ops:
            out = op.run(tr)
            problems = op.check(out) if op.check else []
            if problems:
                print(f"{workload}: {op.key}: {problems}", file=sys.stderr)
                return 1
            d = digest(op.encode(out) if op.encode else out)
            k = ref_key(op.key)
            if reference.setdefault(k, d) != d:
                print(f"{workload}: {op.key}: two different outputs for one key", file=sys.stderr)
                return 1
        print(f"{workload}: {len(ops)} operations", file=sys.stderr)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
