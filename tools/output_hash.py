"""Print one sha256 per in-process workload and seed over every operation's
result, so that two checkouts can be compared for output changes.

For seeds 11-13 of the benchmark's ``fig-sweeps``, ``mixed-channel`` and
``deep-circuits`` workloads, runs every operation once, as
benchmarks/worker.py's ``run_round`` does, and hashes the list of the
worker's per-operation records: the ``digest`` of each result, which
covers every array and the densities' kept decompositions, or the type
and message of the error an operation raised.  The operations come from
benchmarks/workloads.py, unchanged, and the BLAS pools are pinned to one
thread, as the benchmark pins them.  A refactor that changes no output
prints the same nine lines before and after.  Uses only the standard
library, numpy and tdesim:

    python tools/output_hash.py
"""

import hashlib
import os
import sys

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = (11, 12, 13)
WORKLOADS = ("fig-sweeps", "mixed-channel", "deep-circuits")


def output_hash(workload: str, seed: int) -> str:
    """sha256 of one round's per-operation records, one per line."""
    records = worker.run_round(workloads.WORKLOADS[workload](seed)).digests
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


def main() -> int:
    for workload in WORKLOADS:
        for seed in SEEDS:
            print(f"{workload:<14} {seed:>3} {output_hash(workload, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
