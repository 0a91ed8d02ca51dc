"""Runs one workload in this process and prints its figures as JSON.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts it in a fresh interpreter with the BLAS pools pinned to
one thread.  With ``--trace 0`` it repeats whole rounds of the workload's
operations until ``--seconds`` have passed and times every operation.
With ``--trace 1`` it alternates an untraced and a traced round, checks
that both give identical outputs, and reports per-round span totals.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import workloads
from tracer import KERNEL_NAMES, SPAN_NAMES, Tracer

MAX_FAILURE_RECORDS = 8

# A reference second is a wall-clock second scaled so that the reference
# kernel's best time in the run reads REF_NOMINAL_S: about one second on
# the machine described in README.md when no other tenant slows it.
REF_NOMINAL_S = 0.007
REF_REPEATS = 3          # kernel timings after every round
_REF_SMALL = np.array([[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.3, 0.2],
                       [0.1, 0.3, -1.0, 0.4], [0.0, 0.2, 0.4, 0.5]])
_REF_LARGE = np.add.outer(np.arange(256.0), np.arange(256.0)) % 7.0 \
    + np.diag(np.arange(256.0))


def reference_kernel() -> float:
    """Seconds for a fixed mix of the work tdesim does: many small numpy
    calls with interpreter overhead, and one dense eigensolve of the size
    that dominates circuit programs.  It shares no code with tdesim."""
    a = _REF_SMALL
    t0 = perf_counter()
    for _ in range(150):
        np.linalg.eigvalsh(a)
        np.kron(a, a[:2, :2])
        b = a @ a.T
        np.abs(b - b.T).max()
    np.linalg.eigvalsh(_REF_LARGE)
    return perf_counter() - t0


def digest(obj) -> str:
    """Hash of a result's full content, for comparing two runs exactly."""
    h = hashlib.sha256()

    def feed(x):
        if hasattr(x, "tobytes") and hasattr(x, "dtype"):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(x.tobytes())
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            h.update(type(x).__name__.encode())
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        elif isinstance(x, dict):
            h.update(b"{")
            for k in sorted(x, key=repr):
                feed(k)
                feed(x[k])
            h.update(b"}")
        elif hasattr(x, "__dict__") and not isinstance(x, type):
            h.update(type(x).__name__.encode())
            feed(vars(x))
        else:
            h.update(repr(x).encode())
    feed(obj)
    return h.hexdigest()


class Round:
    """Outcome of one pass over the operation list."""

    def __init__(self):
        self.times = []        # seconds inside the program, per operation
        self.done = []         # whether each operation completed
        self.wall = 0.0        # time inside the program's calls
        self.ops = 0
        self.amps = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.errors = []
        self.digests = []
        self.spans = []


def error_name(exc) -> str:
    t = type(exc)
    return f"{t.__module__}.{t.__qualname__}"


def run_round(ops, tracer=None, traced=False) -> Round:
    """Run every operation once.  With ``tracer`` the in-process calls run
    with the spans active; with ``traced`` the CLI operations run through
    their traced entry point."""
    r = Round()
    if tracer is not None:
        tracer.reset()
    for op in ops:
        r.attempted += op.weight
        t0 = perf_counter()
        try:
            if traced and op.traced_run is not None:
                result, stats = op.traced_run()
                r.spans.append(stats)
            elif tracer is not None:
                tracer.activate()
                try:
                    result = op.run()
                finally:
                    tracer.deactivate()
            else:
                result = op.run()
        except Exception as exc:  # an operation of the program failed
            dt = perf_counter() - t0
            r.times.append(dt)
            r.done.append(False)
            r.wall += dt
            r.failed += op.weight
            what = f"{error_name(exc)}: {exc}"
            r.failures.append(f"{op.kind}: {what}")
            r.digests.append(what)
            continue
        dt = perf_counter() - t0
        r.times.append(dt)
        r.done.append(True)
        r.wall += dt
        r.ops += op.weight
        r.amps += op.amps
        r.digests.append(digest(result))
        err = op.check(result)
        if err:
            r.errors.append(err)
    if tracer is not None:
        r.spans.append(tracer.snapshot())
    return r


def weighted_quantile(samples, q: float) -> float:
    """Smallest value whose cumulative weight reaches the share q."""
    ordered = sorted(samples)
    target = q * sum(w for _, w in ordered)
    acc = 0
    for value, w in ordered:
        acc += w
        if acc >= target:
            return value
    return ordered[-1][0]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_SELF if workload in workloads.IN_PROCESS \
        else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def warm_up(ops):
    """Run the first operation once, so that lazy set-up in numpy and the
    package happens before timing."""
    try:
        ops[0].run()
    except Exception:  # the timed rounds record and report it
        pass


def measure(ops, seconds, workload) -> dict:
    """Repeat whole rounds for ``seconds`` and summarise them.

    Each operation's time is its minimum over the rounds, and times are
    reported in reference seconds: divided by the reference kernel's best
    time in the same run.  Other tenants of a shared machine slow a single
    thread by tens of percent for seconds to minutes; the fastest repeat
    of an identical operation is the figure they disturb least, and the
    kernel, timed after every round, cancels most of what remains.  The
    report gives the wall-clock figures as well.
    """
    if workload in workloads.IN_PROCESS:
        warm_up(ops)
    reference_kernel()
    rounds, kernel = [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(run_round(ops))
        kernel += [reference_kernel() for _ in range(REF_REPEATS)]
    n = len(rounds)
    best = [min(r.times[i] for r in rounds) for i in range(len(ops))]
    done = [min((r.times[i] for r in rounds if r.done[i]), default=None)
            for i in range(len(ops))]
    samples = [(t / op.weight, op.weight)
               for op, t in zip(ops, done) if t is not None]
    ref_per_s = REF_NOMINAL_S / min(kernel)
    round_s = sum(best)
    ops_per_round = sum(r.ops for r in rounds) / n
    amps_per_round = sum(r.amps for r in rounds) / n
    p50_s = weighted_quantile(samples, 0.5)
    wall = sum(r.wall for r in rounds)
    report = {
        "rounds": n,
        "operations": sum(r.ops for r in rounds),
        "reference_kernel_best_s": min(kernel),
        "ops_per_s": ops_per_round / round_s,
        "gate_amps_per_s": amps_per_round / round_s,
        "op_p50_ms": p50_s * 1e3,
        "wall_s": wall,
        "wall_ops_per_s": sum(r.ops for r in rounds) / wall,
    }
    if ops_per_round >= 100:
        report["op_p90_ms"] = weighted_quantile(samples, 0.9) * 1e3
    metrics = {
        "ops_per_ref_s": ops_per_round / (round_s * ref_per_s),
        "gate_amps_per_ref_s": amps_per_round / (round_s * ref_per_s),
        "op_p50_ref_ms": p50_s * ref_per_s * 1e3,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    return finish(rounds, metrics, report)


def trace(ops, seconds, workload) -> dict:
    tracer = None
    if workload in workloads.IN_PROCESS:
        tracer = Tracer()
        warm_up(ops)
    plain, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(run_round(ops))
        traced.append(run_round(ops, tracer, traced=True))
    mismatch = sorted({i for p, t in zip(plain, traced)
                       for i, (a, b) in enumerate(zip(p.digests, t.digests))
                       if a != b})
    per_round = [merge(t.spans) for t in traced]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = statistics.median(
            s["calls"][name] for s in per_round)
        metrics[f"{name}.self_s"] = statistics.median(
            s["self_s"][name] for s in per_round)
    for name in KERNEL_NAMES:
        metrics[f"{name}.calls"] = statistics.median(
            s["calls"][name] for s in per_round)
    metrics["numpy.kron.out_bytes"] = statistics.median(
        s["kron_out_bytes"] for s in per_round)
    metrics["registers.DensityOperator.per_op"] = \
        metrics["registers.DensityOperator.calls"] / max(1, traced[0].ops)
    metrics["trace.overhead_s"] = statistics.median(
        t.wall - p.wall for p, t in zip(plain, traced))
    report = {"rounds": len(traced), "traced_outputs_identical": not mismatch}
    result = finish(plain + traced, metrics, report)
    if mismatch:
        result["correct"] = False
        result["errors"].insert(
            0, f"traced outputs differ from untraced at operations "
               f"{mismatch[:10]}")
    return result


def merge(spans) -> dict:
    """Sum the span totals of one round (one total per CLI process)."""
    out = {"calls": dict.fromkeys(SPAN_NAMES + KERNEL_NAMES, 0),
           "self_s": dict.fromkeys(SPAN_NAMES, 0.0), "kron_out_bytes": 0}
    for s in spans:
        for k, v in s["calls"].items():
            out["calls"][k] += v
        for k, v in s["self_s"].items():
            out["self_s"][k] += v
        out["kron_out_bytes"] += s["kron_out_bytes"]
    return out


def finish(rounds, metrics, report) -> dict:
    errors = [e for r in rounds for e in r.errors]
    failures = sorted({f for r in rounds for f in r.failures})
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
        "report": report,
        "errors": errors[:MAX_FAILURE_RECORDS],
        "failures": failures[:MAX_FAILURE_RECORDS],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    run = trace if args.trace else measure
    result = run(ops, args.seconds, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
