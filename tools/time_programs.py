"""Time the compile and the run of each deep-circuits program kind.

For seed SEED of the benchmark's ``deep-circuits`` workload, prints per
program kind the best time over REPEATS calls of ``parse_circuit`` (which
compiles the program) and of ``run_program`` on the compiled program,
and the compile's share of their sum.  A kind the workload draws several
times reports the median over its programs.  The programs come from the
generators in benchmarks/workloads.py, unchanged; the BLAS pools are
pinned to one thread, as the benchmark pins them.  Uses only the
standard library, numpy and tdesim:

    python tools/time_programs.py
"""

import os
import statistics
import sys
import timeit

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import refcircuit  # noqa: E402
import workloads  # noqa: E402
from tdesim import parse_circuit, run_program  # noqa: E402

SEED = 11
REPEATS = 300


def programs() -> dict:
    """The workload's program texts of seed SEED, grouped by kind, in the
    order the workload first draws each kind."""
    kinds = {}

    def collect(kind, prog):
        kinds.setdefault(kind, []).append(refcircuit.render(prog))

    build, workloads._program_op = workloads._program_op, collect
    try:
        workloads.deep_circuits(SEED)
    finally:
        workloads._program_op = build
    return kinds


def best(fn) -> float:
    """Best time of fn in seconds over REPEATS calls."""
    return min(timeit.repeat(fn, number=1, repeat=REPEATS))


def main() -> int:
    print(f"deep-circuits seed {SEED}, best of {REPEATS}, "
          "median over a kind's programs")
    print(f"{'kind':<22} {'programs':>8} {'parse_us':>9} {'run_us':>8} "
          f"{'compile':>8}")
    total_parse = total_run = 0.0
    for kind, texts in programs().items():
        parse_s, run_s = [], []
        for text in texts:
            program = parse_circuit(text)
            parse_s.append(best(lambda: parse_circuit(text)))
            run_s.append(best(lambda: run_program(program)))
        total_parse += sum(parse_s)
        total_run += sum(run_s)
        parse, run = statistics.median(parse_s), statistics.median(run_s)
        print(f"{kind:<22} {len(texts):>8} {parse * 1e6:>9.1f} "
              f"{run * 1e6:>8.1f} {parse / (parse + run):>8.1%}")
    print(f"{'round':<22} {'':>8} {total_parse * 1e6:>9.1f} "
          f"{total_run * 1e6:>8.1f} "
          f"{total_parse / (total_parse + total_run):>8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
