"""Command line front end.

Subcommands map one-to-one onto the library scenarios:

    fig2       distinguishability curves across the channel
    fig3       entropy sweep with a vacuum-diluted input
    circuit    parse and run a circuit program file
    nosignal   remote-measurement invariance check
    decohere   dilated pair readout at a single cycle
    reverse    round-trip recovery of the input qubit
    propriety  ensemble-resolved vs averaged channel output
    sweep      full circuit reports over an input grid

Reports go to stdout or --out, as CSV (12 significant digits) or JSON
(full precision); without --format the extension of --out decides, with
JSON the fallback.  Commands that verify a physical statement (nosignal,
decohere, reverse, fig2) exit nonzero when the check fails its tolerance;
only they take --tolerance.  Every command but circuit takes --tau; a
circuit program states its own dilations.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import SimulationError
from .registers import (density_to_json, joint_outcome_distribution,
                        maximally_mixed, qubit_state)
from .dsl import parse_circuit, run_program
from .scenarios import (
    _BASES,
    grid_reports,
    reverse_reports,
    run_entropy_study,
    run_no_signaling,
    run_proper_vs_improper,
    run_sweep,
)
from .analytics import (
    _check_tolerance,
    amplification_points,
    fig2_curves,
    purity,
    trace_norm_distance,
)
from .channel import displaced_bell_channel

# Largest --steps accepted, checked before the grid is built.  At the
# bound `fig2` runs for about 10 s in 0.5 GB (one 2-vCPU x86 core).
MAX_GRID_STEPS = 10**6


def _num(v) -> str:
    return f"{float(v):.12g}"


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else _num(v) for v in row
        ))
    return "\n".join(lines) + "\n"


def _dumps(obj) -> str:
    # compact, so json uses its C encoder; an indent would select the
    # pure-Python one, which dominates a 1001-point `sweep`
    return json.dumps(obj) + "\n"


def _grid(args) -> list:
    if args.beta_sq is not None:
        return [args.beta_sq]
    return np.linspace(0.0, 1.0, args.steps).tolist()


def _cmd_fig2(args):
    points = fig2_curves(_grid(args), tau=args.tau,
                         tolerance=args.tolerance)
    if args.format == "csv":
        rows = [
            (p.beta_sq, p.values["D_in_paper"], p.values["D_in_tracenorm"],
             p.values["D_out"])
            for p in points
        ]
        return _csv("beta2,D_in_paper,D_in_tracenorm,D_out", rows), 0
    body = {
        "tau": args.tau,
        "points": [{"beta_sq": p.beta_sq, **p.values} for p in points],
        "amplified_paper": amplification_points(points, "D_in_paper"),
        "amplified_tracenorm": amplification_points(points, "D_in_tracenorm"),
    }
    return _dumps(body), 0


def _cmd_fig3(args):
    report = run_entropy_study(args.p_vac, _grid(args), tau=args.tau)
    if args.format == "csv":
        rows = [
            (p.beta_sq, p.values["S_in"], p.values["S_rho_d"],
             p.values["S_out"])
            for p in report.points
        ]
        return _csv("beta2,S_in,S_rho_d,S_out", rows), 0
    body = {
        "p_vac": report.p_vac,
        "tau": report.tau,
        "points": [{"beta_sq": p.beta_sq, **p.values}
                   for p in report.points],
        "drop_points": report.drop_points,
    }
    return _dumps(body), 0


def _cmd_circuit(args):
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path) as fh:
            text = fh.read()
    report, _ = run_program(parse_circuit(text))
    if args.format == "csv":
        rows = sorted(report.probabilities.items())
        return _csv("outcome,probability", rows), 0
    return _dumps(report.to_json_dict()), 0


def _cmd_nosignal(args):
    bases = ["computational", "diagonal"] if args.basis == "both" \
        else [args.basis]
    reports = [run_no_signaling(b, tau=args.tau) for b in bases]
    worst = max(
        max(r.max_deviation, r.substitution_deviation) for r in reports
    )
    code = 0 if worst <= args.tolerance else 1
    if args.format == "csv":
        rows = []
        for r in reports:
            for label, prob, out in r.outcomes:
                dev = trace_norm_distance(out, maximally_mixed(out.register))
                rows.append((r.basis, label, prob, dev))
            rows.append((r.basis, "substitution", 1.0,
                         r.substitution_deviation))
        return _csv("basis,outcome,probability,deviation", rows), code
    body = {
        "reports": [r.to_json_dict() for r in reports],
        "max_deviation": worst,
    }
    return _dumps(body), code


def _cmd_decohere(args):
    rho = displaced_bell_channel(args.tau)
    joint = joint_outcome_distribution(rho, rho.register.slots)
    deviation = trace_norm_distance(rho, maximally_mixed(rho.register))
    code = 0 if deviation <= args.tolerance else 1
    if args.format == "csv":
        return _csv("outcome,probability", sorted(joint.items())), code
    body = {
        "tau": args.tau,
        "rho": density_to_json(rho),
        "joint": joint,
        "deviation": deviation,
    }
    return _dumps(body), code


def _cmd_reverse(args):
    grid = _grid(args)
    reports = grid_reports(grid, args.tau, reverse_reports)
    points = [(b2, rep.fidelity, purity(rep.recovered))
              for b2, rep in zip(grid, reports)]
    worst = max(abs(f - 1.0) for _, f, _ in points)
    code = 0 if worst <= args.tolerance else 1
    if args.format == "csv":
        return _csv("beta2,fidelity,purity", points), code
    body = {
        "tau": args.tau,
        "points": [
            {"beta_sq": b, "fidelity": f, "purity": p}
            for b, f, p in points
        ],
        "max_infidelity": worst,
    }
    return _dumps(body), code


def _cmd_propriety(args):
    # an equal mixture of the basis states, a proper ensemble
    ensemble = [(0.5, qubit_state("1", 0, *vec))
                for _, vec in _BASES[args.basis]]
    rep = run_proper_vs_improper(ensemble, tau=args.tau)
    if args.format == "csv":
        return _csv("basis,trace_distance",
                    [(args.basis, rep.trace_distance)]), 0
    body = {
        "basis": args.basis,
        "tau": rep.tau,
        "trace_distance": rep.trace_distance,
        "proper": density_to_json(rep.proper_output),
        "improper": density_to_json(rep.improper_output),
    }
    return _dumps(body), 0


def _cmd_sweep(args):
    grid = _grid(args)
    reports = list(zip(grid, run_sweep(grid, tau=args.tau)))
    if args.format == "csv":
        rows = [
            (b2, rep.rho_out.matrix[0, 0].real, rep.rho_out.matrix[1, 1].real,
             rep.entropies["input"], rep.entropies["rho_s"],
             rep.entropies["rho_d"], rep.entropies["rho_out"])
            for b2, rep in reports
        ]
        return _csv("beta2,out0,out1,S_in,S_rho_s,S_rho_d,S_out", rows), 0
    body = {
        "tau": args.tau,
        "points": [
            {"beta_sq": b2, "report": rep.to_json_dict()}
            for b2, rep in reports
        ],
    }
    return _dumps(body), 0


def _add_output_flags(sp):
    sp.add_argument("--out", help="write the report to this file")
    sp.add_argument("--format", choices=("json", "csv"),
                    help="defaults to the --out extension, else json")


def _add_grid_flags(sp):
    sp.add_argument("--steps", type=int, default=101,
                    help="grid points across beta^2 in [0, 1]")
    sp.add_argument("--beta-sq", type=float, dest="beta_sq",
                    help="single input with this beta^2")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdesim",
        description="exact simulator for displaced-entanglement circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, tau=True, tolerance=False):
        # --tau only where a circuit is built from it, --tolerance only on
        # the commands whose exit code checks it
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        if tau:
            sp.add_argument("--tau", type=int, default=1,
                            help="dilation in whole cycles")
        if tolerance:
            sp.add_argument("--tolerance", type=float, default=1e-12,
                            help="largest deviation the check accepts")
        _add_output_flags(sp)
        return sp

    sp = add("fig2", _cmd_fig2, "distinguishability in and out of the channel",
             tolerance=True)
    _add_grid_flags(sp)

    sp = add("fig3", _cmd_fig3, "entropy sweep with vacuum admixture")
    _add_grid_flags(sp)
    sp.add_argument("--pvac", type=float, dest="p_vac", metavar="PVAC",
                    default=0.5,
                    help="vacuum weight of the input ensemble")

    sp = add("circuit", _cmd_circuit, "run a circuit program file", tau=False)
    sp.add_argument("path", help="program file, or - for stdin")

    sp = add("nosignal", _cmd_nosignal, "remote measurement invariance",
             tolerance=True)
    sp.add_argument("--basis", choices=("computational", "diagonal", "both"),
                    default="both")

    add("decohere", _cmd_decohere, "dilated pair readout at one cycle",
        tolerance=True)

    sp = add("reverse", _cmd_reverse, "undo the circuit and check fidelity",
             tolerance=True)
    _add_grid_flags(sp)

    sp = add("propriety", _cmd_propriety,
             "ensemble-resolved vs averaged output")
    sp.add_argument("--basis", choices=("computational", "diagonal"),
                    default="computational")

    sp = add("sweep", _cmd_sweep, "full circuit reports over an input grid")
    _add_grid_flags(sp)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.format is None:
        args.format = "csv" if (args.out or "").endswith(".csv") else "json"
    try:
        # checked before the grid is built, and before a command runs
        # whose exit code compares against the tolerance
        if not 2 <= getattr(args, "steps", 2) <= MAX_GRID_STEPS:
            raise ValueError(
                f"grid steps must be between 2 and {MAX_GRID_STEPS}, "
                f"got {args.steps}"
            )
        if hasattr(args, "tolerance"):
            _check_tolerance(args.tolerance)
        text, code = args.handler(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(text)
    return code
