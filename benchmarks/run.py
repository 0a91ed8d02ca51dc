"""tdesim benchmark: one workload, end-to-end or per-layer figures.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ``src``.
Every measurement runs in a fresh interpreter with the BLAS and OpenMP
pools pinned to one thread.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are the run's report.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fig-sweeps", "mixed-channel", "deep-circuits", "cli-cold")
SETUP_SAMPLES = 7       # fresh interpreters timed per run for setup_s
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0      # the whole run, set-up included

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_ref_s": "ops/ref_s",
    "gate_amps_per_ref_s": "amps/ref_s",
    "op_p50_ref_ms": "ref_ms",
    "peak_rss_mb": "MB",
}

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for name in PINNED:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(start: float) -> float:
    return max(1.0, DEADLINE_S - (perf_counter() - start))


def run_process(cmd, timeout, stdin=None, **kwargs):
    """Run a command to its end and return (exit code, stdout, stderr).

    ``subprocess.run(timeout=...)`` waits by polling with sleeps of up to
    50 ms, which would quantise the times measured here; instead the wait
    blocks and a timer kills the child if it outlives ``timeout``.
    """
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, text=True,
                            **kwargs)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate(stdin)
    finally:
        timer.cancel()
    if proc.returncode < 0:
        raise RuntimeError(f"{cmd[1:3]} ended by signal {-proc.returncode}")
    return proc.returncode, out, err


def setup_seconds(env, start) -> list:
    """Wall time of a fresh interpreter that imports tdesim."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        code, _, _ = run_process([sys.executable, "-c", "import tdesim"],
                                 remaining(start), env=env, cwd=ROOT)
        out.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError("import tdesim failed")
    return out


def import_seconds(stderr: str) -> dict:
    """Cumulative import time of numpy, scipy and tdesim from the
    ``-X importtime`` table.  A module counts once, at its outermost
    entry, so scipy's total covers ``scipy`` and ``scipy.linalg``."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        try:
            us = int(cumulative)
        except ValueError:
            continue   # the header row
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), us))
    totals = {}
    for top in ("numpy", "scipy", "tdesim"):
        total, stack = 0, []
        for depth, name, us in reversed(rows):   # parents before children
            while stack and stack[-1][0] >= depth:
                stack.pop()
            hit = name == top or name.startswith(top + ".")
            if hit and not any(h for _, h in stack):
                total += us
            stack.append((depth, hit))
        totals[f"import.{top}_s"] = total / 1e6
    return totals


def import_profile(env, start) -> dict:
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        _, _, err = run_process(
            [sys.executable, "-X", "importtime", "-c", "import tdesim"],
            remaining(start), env=env, cwd=ROOT, stderr=subprocess.PIPE)
        samples.append(import_seconds(err))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".per_op"):
        return "calls/op"
    if name.endswith("_bytes"):
        return "bytes"
    return "s"


def run_worker(args, env, start) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out, _ = run_process(cmd, remaining(start), env=env, cwd=ROOT,
                               stdout=subprocess.PIPE)
    if code != 0 or not out.strip():
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    start = perf_counter()

    if not os.path.isfile(os.path.join(SRC, "tdesim", "__init__.py")):
        print(f"error: no tdesim sources under {SRC}; run from the root of "
              "a source tree", file=sys.stderr)
        return 2
    env = child_env()

    if args.trace:
        imports = import_profile(env, start)
        result = run_worker(args, env, start)
        values = {**result["metrics"], **imports}
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in values.items()}
    else:
        setup = setup_seconds(env, start)
        result = run_worker(args, env, start)
        values = {"setup_s": statistics.median(setup), **result["metrics"]}
        result["report"]["setup_samples_s"] = setup
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {platform.python_version()}, {os.cpu_count()} cpus, "
          f"BLAS pools pinned to 1 thread")
    for key, value in result["report"].items():
        print(f"  {key}: {value}")
    for failure in result["failures"]:
        print(f"  failed operation: {failure}")
    for error in result["errors"]:
        print(f"  check failed: {error}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
