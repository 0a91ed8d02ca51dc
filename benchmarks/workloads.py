"""Inputs, operations and independent checks of the four workloads.

Every workload is a fixed list of operations built from the seed; a run
repeats the whole list.  The seed moves amplitudes, grid points, mixing
weights and gate choices, never the shapes, so every seed asks for the
same amount of work.  Each operation carries:

* ``weight``: how many operations it stands for (grid points of a sweep,
  otherwise 1);
* ``amps``: the register dimension summed over the logical gate
  applications it performs, from the circuit each scenario describes or,
  for circuit programs, from the reference evaluator's bookkeeping;
* ``check``: a comparison against closed forms, the reference evaluator or
  physical properties, computed here and never copied from the program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import refcircuit
from run import run_process
from tracer import TRACE_MARK

TOL = 1e-12          # full-precision outputs
CSV_TOL = 1e-11      # CSV keeps 12 significant digits

# Logical gate applications of the paper's circuits, as register
# dimensions: run_fig1 gates the (input, ancilla) pair and then the
# four-slot expansion; the entropy study does so per branch on a
# three-level input; reversal adds two CNOTs on the four-slot state; the
# displaced box gates a four-qubit register three times.
FIG1_AMPS = 2 * 2 + 4 * 4
VAC_BRANCH_AMPS = 3 * 2 + 6 * 6
REVERSE_AMPS = FIG1_AMPS + 2 * 16
BOX_AMPS = 3 * 16
NOSIGNAL_AMPS = 3 * BOX_AMPS          # two outcomes and the substitution

FIG_GRID = 51           # points of each in-process sweep
PVAC_COUNT = 3          # run_entropy_study calls per round
SINGLE_INPUTS = 50      # run_reverse and run_fig1 calls per round
MIXED_INPUTS = 50       # run_fig1 calls per round and correlation mode
ENSEMBLES = 20          # run_proper_vs_improper calls per round
ENSEMBLE_SIZES = (2, 3, 4)
SMALL_PROGRAM_SETS = 4   # copies of the 4- and 8-slot programs per round
CLI_STEPS = 21
CLI_TIMEOUT_S = 60

CLI_SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "cli_shim.py")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    weight: int = 1
    amps: int = 0
    traced_run: Optional[Callable[[], tuple]] = None


# ---------------------------------------------------------------- helpers

def h2(p: float) -> float:
    """Binary entropy in bits."""
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def channel_p0(g00: float, g11: float) -> float:
    """Output population of |0> under (g00, g11) -> (g00^2 + g11^2, ...)."""
    return g00 * g00 + g11 * g11


def _dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _need(ok: bool, message: str) -> Optional[str]:
    return None if ok else message


def _first(*results) -> Optional[str]:
    for r in results:
        if r is not None:
            return r
    return None


def random_qubit(rng):
    """Amplitudes of a random pure qubit, with a relative phase."""
    b2 = float(rng.uniform(0.0, 1.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return complex(math.sqrt(1.0 - b2)), math.sqrt(b2) * complex(
        math.cos(phase), math.sin(phase))


def random_mixed(rng) -> np.ndarray:
    """A full-rank, non-degenerate qubit density matrix."""
    v = rng.standard_normal(3)
    v *= rng.uniform(0.1, 0.95) / np.linalg.norm(v)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return (np.eye(2) + v[0] * sx + v[1] * sy + v[2] * sz) / 2.0


def diag2(p0: float) -> np.ndarray:
    return np.diag([p0, 1.0 - p0]).astype(complex)


# ------------------------------------------------------------- fig-sweeps

def _check_fig2(grid):
    def check(points):
        if len(points) != len(grid):
            return f"fig2: {len(points)} points for {len(grid)} inputs"
        for b2, p in zip(grid, points):
            v = p.values
            err = _first(
                _need(p.beta_sq == b2, f"fig2: abscissa {p.beta_sq} != {b2}"),
                _need(abs(v["D_out"] - 4.0 * (b2 - b2 * b2)) <= TOL,
                      f"fig2: D_out {v['D_out']!r} at beta^2={b2!r}"),
                _need(abs(v["D_in_paper"] - 2.0 * b2) <= TOL,
                      f"fig2: D_in_paper at beta^2={b2!r}"),
                _need(abs(v["D_in_tracenorm"] - 2.0 * math.sqrt(b2)) <= TOL,
                      f"fig2: D_in_tracenorm at beta^2={b2!r}"))
            if err:
                return err
        return None
    return check


def _check_entropy(p_vac, grid):
    s_in = h2(p_vac)

    def check(report):
        if len(report.points) != len(grid):
            return "fig3: wrong number of points"
        for b2, p in zip(grid, report.points):
            v = p.values
            s_out = h2(p_vac + (1.0 - p_vac) * (1.0 - 2.0 * b2 * (1.0 - b2)))
            err = _first(
                _need(abs(v["S_in"] - s_in) <= TOL,
                      f"fig3: S_in {v['S_in']!r} != h({p_vac!r})"),
                _need(abs(v["S_out"] - s_out) <= TOL,
                      f"fig3: S_out {v['S_out']!r} at beta^2={b2!r}"),
                _need(v["S_rho_d"] >= v["S_in"] - TOL,
                      f"fig3: S_rho_d below S_in at beta^2={b2!r}"))
            if err:
                return err
        return None
    return check


def _check_reverse(a0, a1):
    psi = np.array([a0, a1])
    target = np.outer(psi, psi.conj())

    def check(result):
        rep, pur = result
        return _first(
            _need(abs(rep.fidelity - 1.0) <= TOL,
                  f"reverse: fidelity {rep.fidelity!r}"),
            _need(_dev(rep.recovered.matrix, target) <= TOL,
                  "reverse: recovered state differs from the input"),
            _need(abs(pur - 1.0) <= TOL, f"reverse: purity {pur!r}"))
    return check


def _check_fig1_pure(a0, a1):
    g00, g11 = abs(a0) ** 2, abs(a1) ** 2
    p0 = channel_p0(g00, g11)

    def check(rep):
        return _first(
            _need(_dev(rep.rho_out.matrix, diag2(p0)) <= TOL,
                  f"fig1: output populations differ from map at g00={g00!r}"),
            _need(abs(rep.entropies["input"]) <= TOL,
                  "fig1: pure input has entropy"),
            _need(abs(rep.entropies["rho_out"] - h2(p0)) <= TOL,
                  "fig1: output entropy"))
    return check


def fig_sweeps(seed: int):
    import tdesim
    rng = np.random.default_rng([seed, 1])
    grid = [float(x) for x in np.sort(rng.uniform(0.0, 1.0, FIG_GRID))]
    p_vacs = [float(x) for x in rng.uniform(0.05, 0.95, PVAC_COUNT)]
    ops = [Op("fig2_curves", lambda: tdesim.fig2_curves(grid),
              _check_fig2(grid), FIG_GRID, FIG1_AMPS * (FIG_GRID + 1))]
    for p in p_vacs:
        ops.append(Op("run_entropy_study",
                      lambda p=p: tdesim.run_entropy_study(p, grid),
                      _check_entropy(p, grid), FIG_GRID,
                      2 * VAC_BRANCH_AMPS * FIG_GRID))
    for _ in range(SINGLE_INPUTS):
        a0, a1 = random_qubit(rng)
        psi = tdesim.qubit_state("1", 0, a0, a1)

        def rev(psi=psi):
            rep = tdesim.run_reverse(psi)
            return rep, tdesim.purity(rep.recovered)
        ops.append(Op("run_reverse", rev, _check_reverse(a0, a1), 1,
                      REVERSE_AMPS))
    for _ in range(SINGLE_INPUTS):
        a0, a1 = random_qubit(rng)
        psi = tdesim.qubit_state("1", 0, a0, a1)
        ops.append(Op("run_fig1", lambda psi=psi: tdesim.run_fig1(psi),
                      _check_fig1_pure(a0, a1), 1, FIG1_AMPS))
    return ops


# ---------------------------------------------------------- mixed-channel

def _check_mixed_fig1(expected_p0, mode):
    def check(rep):
        return _need(_dev(rep.rho_out.matrix, diag2(expected_p0)) <= TOL,
                     f"fig1 {mode}: output differs from the map")
    return check


def _coherent_p0(m: np.ndarray) -> float:
    """Coherent history copies each eigenbranch whole, so the output is
    the eigenvalue-weighted map of the eigenvectors."""
    vals, vecs = np.linalg.eigh(m)
    return float(sum(lam * channel_p0(abs(v[0]) ** 2, abs(v[1]) ** 2)
                     for lam, v in zip(vals, vecs.T)))


def _check_propriety(weights, amps):
    g00 = [abs(a0) ** 2 / (abs(a0) ** 2 + abs(a1) ** 2) for a0, a1 in amps]
    proper = sum(w * channel_p0(g, 1.0 - g) for w, g in zip(weights, g00))
    avg = sum(w * g for w, g in zip(weights, g00))
    improper = channel_p0(avg, 1.0 - avg)

    def check(rep):
        return _first(
            _need(_dev(rep.proper_output.matrix, diag2(proper)) <= TOL,
                  "propriety: proper output differs from sum w map(rho)"),
            _need(_dev(rep.improper_output.matrix, diag2(improper)) <= TOL,
                  "propriety: improper output differs from map(sum w rho)"),
            _need(abs(rep.trace_distance - 2.0 * abs(proper - improper))
                  <= TOL, "propriety: trace distance"))
    return check


def _check_no_signaling(basis):
    half = np.eye(2) / 2.0

    def check(rep):
        for label, prob, out in rep.outcomes:
            err = _first(
                _need(abs(prob - 0.5) <= TOL,
                      f"nosignal {basis}: P({label}) = {prob!r}"),
                _need(_dev(out.matrix, half) <= TOL,
                      f"nosignal {basis}: output for {label} is not I/2"))
            if err:
                return err
        return _first(
            _need(_dev(rep.average.matrix, half) <= TOL,
                  f"nosignal {basis}: average is not I/2"),
            _need(_dev(rep.substitution_output.matrix, half) <= TOL,
                  f"nosignal {basis}: substitution output is not I/2"),
            _need(rep.max_deviation <= TOL and
                  rep.substitution_deviation <= TOL,
                  f"nosignal {basis}: reported deviation above {TOL}"))
    return check


def mixed_channel(seed: int):
    import tdesim
    rng = np.random.default_rng([seed, 2])
    reg = tdesim.Register((tdesim.SlotId("1", 0),), (2,))
    ops = []
    for _ in range(MIXED_INPUTS):
        m = random_mixed(rng)
        rho = tdesim.DensityOperator(reg, m)
        expected = {
            tdesim.CorrelationMode.UNCORRELATED_COPIES:
                channel_p0(m[0, 0].real, m[1, 1].real),
            tdesim.CorrelationMode.COHERENT_HISTORY: _coherent_p0(m),
        }
        for mode, p0 in expected.items():
            ops.append(Op("run_fig1_mixed",
                          lambda rho=rho, mode=mode:
                              tdesim.run_fig1(rho, policy=mode),
                          _check_mixed_fig1(p0, mode.value), 1, FIG1_AMPS))
    for i in range(ENSEMBLES):
        k = ENSEMBLE_SIZES[i % len(ENSEMBLE_SIZES)]
        weights = [float(w) for w in rng.dirichlet(np.ones(k))]
        weights[-1] = 1.0 - sum(weights[:-1])
        amps = [random_qubit(rng) for _ in range(k)]
        ensemble = [(w, tdesim.qubit_state("1", 0, a0, a1))
                    for w, (a0, a1) in zip(weights, amps)]
        ops.append(Op("run_proper_vs_improper",
                      lambda e=ensemble: tdesim.run_proper_vs_improper(e),
                      _check_propriety(weights, amps), 1,
                      FIG1_AMPS * (k + 1)))
    tau = int(rng.integers(1, 4))
    for basis in ("computational", "diagonal"):
        ops.append(Op("run_no_signaling",
                      lambda b=basis: tdesim.run_no_signaling(b, tau=tau),
                      _check_no_signaling(basis), 1, NOSIGNAL_AMPS))
    return ops


# ---------------------------------------------------------- deep-circuits

def _gate(rng, site, cycle):
    name = ("x", "h", "phase")[int(rng.integers(0, 3))]
    theta = float(rng.uniform(0.0, 2.0 * math.pi)) if name == "phase" \
        else None
    return ("gate", name, theta, site, cycle)


def _prep(rng, site, cycle):
    a0, a1 = random_qubit(rng)
    return ("prepare", site, cycle, a0, a1)


def k_round_program(k: int, first=(0.6, 0.8), second=(1.0, 0.0),
                    gate=None):
    """k rounds of ``dilate q1 +1; cnot q1 q2 @c``; registers reach 4, 8,
    8 and 16 slots after 1 to 4 rounds."""
    prog = [("prepare", "q1", 0, *first), ("prepare", "q2", 0, *second)]
    if gate is not None:
        prog.append(gate)
    prog.append(("cnot", "q1", "q2", 0))
    for c in range(1, k + 1):
        prog += [("dilate", "q1", 1), ("cnot", "q1", "q2", c)]
    prog.append(("output", "q2", k))
    return prog


def wide_program(rng, sites: int, extra: int = 0, discard: int = 0,
                 vacuum: bool = False):
    """A CNOT chain over ``sites`` sites at cycle 0, one site dilated and
    gated against its neighbour (which doubles the register), a second
    chain at cycle 1, ``extra`` late sites, then ``discard`` sites traced
    out so that the closing gates act on a density matrix."""
    names = [f"s{i}" for i in range(sites)]
    prog = [_prep(rng, s, 0) for s in names]
    prog += [("cnot", a, b, 0) for a, b in zip(names, names[1:])]
    prog += [_gate(rng, s, 0) for s in names[::2]]
    prog += [("dilate", "s0", 1), ("cnot", "s0", "s1", 1)]
    prog += [("cnot", a, b, 1) for a, b in zip(names[1:], names[2:])]
    for j in range(extra):
        e = f"e{j}"
        prog.append(("prepare", e, 1, "vac") if vacuum else _prep(rng, e, 1))
        prog.append(("cnot", names[1], e, 1))
    for s in names[sites - discard:]:
        prog.append(("discard", s))
    live = names[:sites - discard]
    if discard:
        prog += [("cnot", live[0], live[1], 1), _gate(rng, live[1], 1)]
    prog.append(("output", live[int(rng.integers(1, len(live)))], 1))
    return prog


def _check_program(expected):
    ref_probs = np.clip(np.diag(expected).real, 0.0, None)
    vals = np.linalg.eigvalsh(expected)
    vals = vals[vals > 0.0]
    ref_entropy = float(-(vals * np.log2(vals)).sum())

    def check(result):
        report, _ = result
        probs = [report.probabilities[k]
                 for k in sorted(report.probabilities,
                                 key=lambda s: "v01".index(s))]
        return _first(
            _need(_dev(report.rho_out.matrix, expected) <= TOL,
                  "circuit: rho_out differs from the reference evaluator"),
            _need(_dev(probs, ref_probs) <= TOL,
                  "circuit: outcome probabilities differ from the reference"),
            _need(abs(report.entropy_bits - ref_entropy) <= TOL,
                  "circuit: entropy differs from the reference"))
    return check


def _program_op(kind, prog):
    import tdesim
    text = refcircuit.render(prog)
    expected, gate_dims = refcircuit.evaluate(prog)
    return Op(kind,
              lambda: tdesim.run_program(tdesim.parse_circuit(text)),
              _check_program(expected), 1, int(sum(gate_dims)))


FAILING_PROGRAM = "k_rounds_4"


def deep_circuits(seed: int):
    rng = np.random.default_rng([seed, 3])
    ops = []
    for _ in range(SMALL_PROGRAM_SETS):
        for k in (1, 2, 3):
            prog = k_round_program(k, random_qubit(rng), random_qubit(rng),
                                   _gate(rng, "q1", 0))
            ops.append(_program_op(f"k_rounds_{k}", prog))
        ops.append(_program_op("wide_8", wide_program(rng, 4)))
    ops.append(_program_op("wide_10", wide_program(rng, 5)))
    ops.append(_program_op("wide_10_discard_2",
                           wide_program(rng, 5, discard=2)))
    ops.append(_program_op("wide_9_vac_discard_1",
                           wide_program(rng, 4, extra=1, discard=1,
                                        vacuum=True)))
    # Fixed, seed-independent: at 16 slots apply_gate asks for a 64 GiB
    # operator, so this operation fails on every run.
    ops.append(_program_op(FAILING_PROGRAM, k_round_program(4)))
    return ops


# ---------------------------------------------------------------- cli-cold

def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _matrix(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row]
                     for row in obj["matrix"]])


def _cli_check(parse, body):
    def check(out):
        try:
            data = parse(out)
        except ValueError as exc:
            return f"cli: unreadable output ({exc})"
        return body(data)
    return check


def _check_cli_decohere(d):
    return _first(
        _need(_dev(_matrix(d["rho"]), np.eye(4) / 4.0) <= TOL,
              "cli decohere: rho is not I/4"),
        _need(all(abs(p - 0.25) <= TOL for p in d["joint"].values()),
              "cli decohere: joint probabilities are not 1/4"),
        _need(d["deviation"] <= TOL, "cli decohere: deviation"))


def _check_cli_nosignal(d):
    half = np.eye(2) / 2.0
    for r in d["reports"]:
        for o in r["outcomes"]:
            if abs(o["probability"] - 0.5) > TOL or \
                    _dev(_matrix(o["output"]), half) > TOL:
                return f"cli nosignal: {r['basis']} {o['label']} not I/2"
    return _need(d["max_deviation"] <= TOL, "cli nosignal: deviation")


def _check_cli_propriety(basis):
    expected = 1.0 if basis == "computational" else 0.0
    proper = diag2(1.0) if basis == "computational" else diag2(0.5)

    def body(d):
        return _first(
            _need(abs(d["trace_distance"] - expected) <= TOL,
                  f"cli propriety: trace distance {d['trace_distance']!r}"),
            _need(_dev(_matrix(d["proper"]), proper) <= TOL,
                  "cli propriety: proper output"),
            _need(_dev(_matrix(d["improper"]), diag2(0.5)) <= TOL,
                  "cli propriety: improper output is not map(I/2)"))
    return body


def _check_cli_sweep(b2):
    p0 = channel_p0(1.0 - b2, b2)

    def body(d):
        rep = d["points"][0]["report"]
        return _first(
            _need(_dev(_matrix(rep["rho_out"]), diag2(p0)) <= TOL,
                  "cli sweep: output differs from the map"),
            _need(abs(rep["entropies"]["input"]) <= TOL,
                  "cli sweep: pure input has entropy"))
    return body


def _check_cli_reverse(d):
    return _first(
        _need(len(d["points"]) == CLI_STEPS, "cli reverse: point count"),
        _need(all(abs(p["fidelity"] - 1.0) <= TOL for p in d["points"]),
              "cli reverse: fidelity differs from 1"),
        _need(all(abs(p["purity"] - 1.0) <= TOL for p in d["points"]),
              "cli reverse: purity differs from 1"))


def _check_cli_fig2(rows):
    if len(rows) != CLI_STEPS:
        return "cli fig2: point count"
    for row, b2 in zip(rows, np.linspace(0.0, 1.0, CLI_STEPS)):
        b2 = float(b2)
        if abs(float(row["beta2"]) - b2) > CSV_TOL or \
                abs(float(row["D_out"]) - 4.0 * (b2 - b2 * b2)) > CSV_TOL or \
                abs(float(row["D_in_paper"]) - 2.0 * b2) > CSV_TOL or \
                abs(float(row["D_in_tracenorm"]) - 2.0 * math.sqrt(b2)) \
                > CSV_TOL:
            return f"cli fig2: row at beta^2={b2!r} differs"
    return None


def _check_cli_fig3(p_vac):
    def body(rows):
        if len(rows) != CLI_STEPS:
            return "cli fig3: point count"
        for row in rows:
            b2 = float(row["beta2"])
            s_in, s_d = float(row["S_in"]), float(row["S_rho_d"])
            s_out = h2(p_vac + (1.0 - p_vac) * (1.0 - 2.0 * b2 * (1.0 - b2)))
            if abs(s_in - h2(p_vac)) > CSV_TOL or \
                    abs(float(row["S_out"]) - s_out) > CSV_TOL or \
                    s_d < s_in - CSV_TOL:
                return f"cli fig3: row at beta^2={b2!r} differs"
        return None
    return body


def _check_cli_circuit(expected):
    probs = np.diag(expected).real

    def body(rows):
        got = {r["outcome"]: float(r["probability"]) for r in rows}
        return _need(set(got) == {"0", "1"} and
                     abs(got["0"] - probs[0]) <= CSV_TOL and
                     abs(got["1"] - probs[1]) <= CSV_TOL,
                     "cli circuit: probabilities differ from the reference")
    return body


def _cli_process(argv, stdin, traced):
    cmd = [sys.executable] + ([CLI_SHIM] if traced else ["-m", "tdesim"])
    code, out, err = run_process(cmd + argv, CLI_TIMEOUT_S, stdin=stdin,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
    if code != 0:
        tail = err.strip().splitlines()[-1:] or ["(no message)"]
        raise RuntimeError(f"exit {code}: {tail[0]}")
    return out, err


def _cli_op(kind, argv, body, parse, amps, stdin=None):
    def run():
        return _cli_process(argv, stdin, traced=False)[0]

    def traced_run():
        out, err = _cli_process(argv, stdin, traced=True)
        stats = None
        for line in err.splitlines():
            if line.startswith(TRACE_MARK):
                stats = json.loads(line[len(TRACE_MARK):])
        if stats is None:
            raise RuntimeError("traced command printed no spans")
        return out, stats
    return Op(kind, run, _cli_check(parse, body), 1, amps, traced_run)


def cli_cold(seed: int):
    rng = np.random.default_rng([seed, 4])
    tau = str(int(rng.integers(1, 4)))
    b2 = float(rng.uniform(0.0, 1.0))
    p_vac = float(rng.uniform(0.05, 0.95))
    basis = ("computational", "diagonal")[int(rng.integers(0, 2))]
    fig1 = k_round_program(1, random_qubit(rng))
    expected, gate_dims = refcircuit.evaluate(fig1)
    steps = ["--steps", str(CLI_STEPS)]
    return [
        _cli_op("decohere", ["decohere", "--tau", tau], _check_cli_decohere,
                json.loads, 0),
        _cli_op("nosignal", ["nosignal", "--basis", "both", "--tau", tau],
                _check_cli_nosignal, json.loads, 2 * NOSIGNAL_AMPS),
        _cli_op("propriety", ["propriety", "--basis", basis],
                _check_cli_propriety(basis), json.loads, 3 * FIG1_AMPS),
        _cli_op("sweep", ["sweep", "--beta-sq", repr(b2)],
                _check_cli_sweep(b2), json.loads, FIG1_AMPS),
        _cli_op("reverse", ["reverse"] + steps, _check_cli_reverse,
                json.loads, REVERSE_AMPS * CLI_STEPS),
        _cli_op("fig2", ["fig2", "--format", "csv"] + steps, _check_cli_fig2,
                _parse_csv, FIG1_AMPS * (CLI_STEPS + 1)),
        _cli_op("fig3", ["fig3", "--format", "csv", "--pvac", repr(p_vac)]
                + steps, _check_cli_fig3(p_vac), _parse_csv,
                2 * VAC_BRANCH_AMPS * CLI_STEPS),
        _cli_op("circuit", ["circuit", "-", "--format", "csv"],
                _check_cli_circuit(expected), _parse_csv,
                int(sum(gate_dims)), stdin=refcircuit.render(fig1)),
    ]


WORKLOADS = {
    "fig-sweeps": fig_sweeps,
    "mixed-channel": mixed_channel,
    "deep-circuits": deep_circuits,
    "cli-cold": cli_cold,
}
IN_PROCESS = ("fig-sweeps", "mixed-channel", "deep-circuits")
