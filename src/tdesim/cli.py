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
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import SimulationError
from .registers import density_to_json, maximally_mixed, qubit_state
from .dynamics import _check_tau, joint_outcome_distribution
from .analytics import (
    _check_tolerance,
    amplification_points,
    fig2_curves,
    purity,
    trace_norm_distance,
)
from .channel import displaced_bell_channel
from .scenarios import (
    _BASES,
    grid_reports,
    reverse_reports,
    run_entropy_study,
    run_no_signaling,
    run_proper_vs_improper,
    run_sweep,
)
from .dsl import CircuitProgram, parse_circuit, run_program

# Largest --steps accepted, checked before the grid is built.  At the
# bound `fig2` runs for about 10 s in 0.5 GB (one 2-vCPU x86 core).
MAX_GRID_STEPS = 10**6


@dataclass
class RunConfig:
    """Validated knobs shared by the subcommands.  Its defaults are the
    command line's, which passes only the flags given; a command that
    takes --basis reads None as its own default."""

    steps: int = 101
    beta_sq: Optional[float] = None
    p_vac: float = 0.5
    tau: int = 1
    basis: Optional[str] = None
    out: Optional[str] = None
    format: str = "json"
    tolerance: float = 1e-12

    def __post_init__(self):
        if not 2 <= self.steps <= MAX_GRID_STEPS:
            raise ValueError(
                f"grid steps must be between 2 and {MAX_GRID_STEPS}, "
                f"got {self.steps}"
            )
        self.tau = _check_tau(self.tau)
        self.tolerance = _check_tolerance(self.tolerance)
        if not 0.0 <= self.p_vac <= 1.0:
            raise ValueError(f"--pvac out of range: {self.p_vac}")
        if self.beta_sq is not None and not 0.0 <= self.beta_sq <= 1.0:
            raise ValueError(f"beta^2 out of range: {self.beta_sq}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")


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


def _grid(config: RunConfig):
    if config.beta_sq is not None:
        return [float(config.beta_sq)]
    return [float(b) for b in np.linspace(0.0, 1.0, config.steps)]


def execute(program: CircuitProgram, config: Optional[RunConfig] = None) -> str:
    """Run a parsed program and render its report per the config format."""
    config = config or RunConfig()
    report, _ = run_program(program)
    if config.format == "csv":
        rows = sorted(report.probabilities.items())
        return _csv("outcome,probability", rows)
    return _dumps(report.to_json_dict())


def _cmd_fig2(args, config: RunConfig):
    points = fig2_curves(_grid(config), tau=config.tau,
                         tolerance=config.tolerance)
    if config.format == "csv":
        rows = [
            (p.beta_sq, p.values["D_in_paper"], p.values["D_in_tracenorm"],
             p.values["D_out"])
            for p in points
        ]
        return _csv("beta2,D_in_paper,D_in_tracenorm,D_out", rows), 0
    body = {
        "tau": config.tau,
        "points": [{"beta_sq": p.beta_sq, **p.values} for p in points],
        "amplified_paper": amplification_points(points, "D_in_paper"),
        "amplified_tracenorm": amplification_points(points, "D_in_tracenorm"),
    }
    return _dumps(body), 0


def _cmd_fig3(args, config: RunConfig):
    report = run_entropy_study(config.p_vac, _grid(config), tau=config.tau)
    if config.format == "csv":
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


def _cmd_circuit(args, config: RunConfig):
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path) as fh:
            text = fh.read()
    program = parse_circuit(text)
    return execute(program, config), 0


def _cmd_nosignal(args, config: RunConfig):
    bases = ["computational", "diagonal"] if config.basis in (None, "both") \
        else [config.basis]
    reports = [run_no_signaling(b, tau=config.tau) for b in bases]
    worst = max(
        max(r.max_deviation, r.substitution_deviation) for r in reports
    )
    code = 0 if worst <= config.tolerance else 1
    if config.format == "csv":
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


def _cmd_decohere(args, config: RunConfig):
    rho = displaced_bell_channel(config.tau)
    joint = joint_outcome_distribution(rho, rho.register.slots)
    deviation = trace_norm_distance(rho, maximally_mixed(rho.register))
    code = 0 if deviation <= config.tolerance else 1
    if config.format == "csv":
        return _csv("outcome,probability", sorted(joint.items())), code
    body = {
        "tau": config.tau,
        "rho": density_to_json(rho),
        "joint": joint,
        "deviation": deviation,
    }
    return _dumps(body), code


def _cmd_reverse(args, config: RunConfig):
    grid = _grid(config)
    reports = grid_reports(grid, config.tau, reverse_reports)
    points = [(b2, rep.fidelity, purity(rep.recovered))
              for b2, rep in zip(grid, reports)]
    worst = max(abs(f - 1.0) for _, f, _ in points)
    code = 0 if worst <= config.tolerance else 1
    if config.format == "csv":
        return _csv("beta2,fidelity,purity", points), code
    body = {
        "tau": config.tau,
        "points": [
            {"beta_sq": b, "fidelity": f, "purity": p}
            for b, f, p in points
        ],
        "max_infidelity": worst,
    }
    return _dumps(body), code


def _cmd_propriety(args, config: RunConfig):
    basis = config.basis or "computational"
    if basis not in _BASES:
        raise ValueError(f"basis must be one of {sorted(_BASES)}")
    # an equal mixture of the basis states, a proper ensemble
    ensemble = [(0.5, qubit_state("1", 0, *vec)) for _, vec in _BASES[basis]]
    rep = run_proper_vs_improper(ensemble, tau=config.tau)
    if config.format == "csv":
        return _csv("basis,trace_distance",
                    [(basis, rep.trace_distance)]), 0
    body = {
        "basis": basis,
        "tau": rep.tau,
        "trace_distance": rep.trace_distance,
        "proper": density_to_json(rep.proper_output),
        "improper": density_to_json(rep.improper_output),
    }
    return _dumps(body), 0


def _cmd_sweep(args, config: RunConfig):
    grid = _grid(config)
    reports = list(zip(grid, run_sweep(grid, tau=config.tau)))
    if config.format == "csv":
        rows = [
            (b2, rep.rho_out.matrix[0, 0].real, rep.rho_out.matrix[1, 1].real,
             rep.entropies["input"], rep.entropies["rho_s"],
             rep.entropies["rho_d"], rep.entropies["rho_out"])
            for b2, rep in reports
        ]
        return _csv("beta2,out0,out1,S_in,S_rho_s,S_rho_d,S_out", rows), 0
    body = {
        "tau": config.tau,
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
    sp.add_argument("--steps", type=int,
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
        # the commands whose exit code checks it; a flag left out stays off
        # args, so RunConfig's default applies
        sp = sub.add_parser(name, help=help_text,
                            argument_default=argparse.SUPPRESS)
        sp.set_defaults(handler=handler)
        if tau:
            sp.add_argument("--tau", type=int,
                            help="dilation in whole cycles")
        if tolerance:
            sp.add_argument("--tolerance", type=float,
                            help="largest deviation the check accepts")
        _add_output_flags(sp)
        return sp

    sp = add("fig2", _cmd_fig2, "distinguishability in and out of the channel",
             tolerance=True)
    _add_grid_flags(sp)

    sp = add("fig3", _cmd_fig3, "entropy sweep with vacuum admixture")
    _add_grid_flags(sp)
    sp.add_argument("--pvac", type=float, dest="p_vac", metavar="PVAC",
                    help="vacuum weight of the input ensemble")

    sp = add("circuit", _cmd_circuit, "run a circuit program file", tau=False)
    sp.add_argument("path", help="program file, or - for stdin")

    sp = add("nosignal", _cmd_nosignal, "remote measurement invariance",
             tolerance=True)
    sp.add_argument("--basis", choices=("computational", "diagonal", "both"))

    add("decohere", _cmd_decohere, "dilated pair readout at one cycle",
        tolerance=True)

    sp = add("reverse", _cmd_reverse, "undo the circuit and check fidelity",
             tolerance=True)
    _add_grid_flags(sp)

    sp = add("propriety", _cmd_propriety,
             "ensemble-resolved vs averaged output")
    sp.add_argument("--basis", choices=("computational", "diagonal"))

    sp = add("sweep", _cmd_sweep, "full circuit reports over an input grid")
    _add_grid_flags(sp)

    return parser


def _config_from_args(args) -> RunConfig:
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if hasattr(args, f.name)}
    if "format" not in given:
        out = given.get("out")
        given["format"] = "csv" if out and out.endswith(".csv") else "json"
    return RunConfig(**given)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        text, code = args.handler(args, config)
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(text)
    except (SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not config.out:
        sys.stdout.write(text)
    return code
