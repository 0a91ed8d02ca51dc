"""Line-oriented circuit programs over cycle-labeled slots.

Grammar, one directive per line, '#' starts a comment:

    prepare <site> @<cycle> <state>    state: |0>, |1>, |vac>, a|0>+b|1>
    cnot <control> <target> @<cycle>
    gate <name> <site> @<cycle>        name: x, h, phase(<angle>)
    dilate <site> +<n>
    discard <site>
    output <site> @<cycle>

Amplitudes are finite python floats or complex literals; parenthesize
complex coefficients, as in (0.5+0.5j)|0>+0.5|1>.  States are normalized
when the program is compiled.  Every program ends with exactly one output
directive.

A gate whose participants lack a slot at the gate's cycle triggers a
two-copy expansion: the whole state is tensored with a copy of itself
shifted forward by the smallest dilation that aligns every participant,
which is how a dilated site gets gated against an undilated one.  The
expansion is resolved while parsing, so misaligned programs are rejected
before anything runs; it also requires a pure state, so it cannot follow
a discard.

Parsing compiles the program into a CircuitPlan: the slot order after
every step, each gate's lifted block and axes, each expansion's shift and
each discard's axes.  run_program executes the plan on one array of
amplitude rows, shaped (N, *dims).  A pure state is one row; a discard
moves the discarded axes into the row axis, so a mixed state is carried
as its own purification and never as a density matrix.  Densities are
built and validated only where the run returns them: the output's
reduced state and a mixed final state.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CircuitExecutionError, CircuitParseError, RegisterSizeError
from .registers import (
    DensityOperator,
    PureState,
    Register,
    SlotId,
    check_state_size,
    gram_density,
)
from .dynamics import (
    _gate_block,
    _left_multiply,
    cnot,
    hadamard,
    joint_outcome_distribution,
    pauli_x,
    phase_gate,
)
from .analytics import von_neumann_entropy

_SITE_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_TERM_RE = re.compile(r"(?P<coef>.*?)\|(?P<ket>0|1|vac)>\Z")


@dataclass(frozen=True)
class Prepare:
    site: str
    cycle: int
    kind: str  # "vac" or "qubit"
    amp0: complex = 0j
    amp1: complex = 0j
    line: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Cnot:
    control: str
    target: str
    cycle: int
    line: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class GateOp:
    name: str  # "x", "h", or "phase"
    site: str
    cycle: int
    theta: Optional[float] = None
    line: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Dilate:
    site: str
    delta: int
    line: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Discard:
    site: str
    line: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Output:
    site: str
    cycle: int
    line: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class CircuitProgram:
    directives: tuple

    @property
    def sites(self) -> tuple:
        seen = dict.fromkeys(
            d.site for d in self.directives if isinstance(d, Prepare)
        )
        return tuple(seen)

    @functools.cached_property
    def plan(self) -> "CircuitPlan":
        """The program compiled by the static check, once; a program that
        cannot run raises CircuitParseError with the directive's line."""
        return _static_check(self.directives)


def _fail(line: int, message: str):
    raise CircuitParseError(line, message)


def _parse_site(token: str, line: int) -> str:
    if not _SITE_RE.match(token):
        _fail(line, f"bad site name {token!r}")
    return token


def _parse_cycle(token: str, line: int) -> int:
    if not token.startswith("@"):
        _fail(line, f"expected @<cycle>, got {token!r}")
    try:
        cycle = int(token[1:])
    except ValueError:
        _fail(line, f"bad cycle {token!r}")
    if cycle < 0:
        _fail(line, f"cycle must be nonnegative, got {cycle}")
    return cycle


def _split_terms(spec: str, line: int):
    """Split a superposition on top-level +/- that follow a closed ket."""
    terms = []
    cur = ""
    depth = 0
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                _fail(line, f"unbalanced parentheses in {spec!r}")
        if ch in "+-" and depth == 0 and cur.endswith(">"):
            terms.append(cur)
            cur = "-" if ch == "-" else ""
            continue
        cur += ch
    if depth != 0:
        _fail(line, f"unbalanced parentheses in {spec!r}")
    terms.append(cur)
    return terms


def _parse_coef(text: str, line: int) -> complex:
    if text in ("", "+"):
        return 1.0 + 0j
    if text == "-":
        return -1.0 + 0j
    try:
        coef = complex(text)
    except ValueError:
        _fail(line, f"bad amplitude {text!r}")
    if not cmath.isfinite(coef):
        _fail(line, f"amplitude {text!r} is not finite")
    return coef


def _parse_state(spec: str, line: int):
    """Return (kind, amp0, amp1) for a state expression."""
    if spec == "|vac>":
        return "vac", 0j, 0j
    amps = {}
    for term in _split_terms(spec, line):
        m = _TERM_RE.match(term)
        if not m:
            _fail(line, f"bad state term {term!r}")
        ket = m.group("ket")
        if ket == "vac":
            _fail(line, "|vac> cannot carry an amplitude or be superposed")
        if ket in amps:
            _fail(line, f"duplicate |{ket}> term")
        amps[ket] = _parse_coef(m.group("coef"), line)
    a0 = complex(amps.get("0", 0j))
    a1 = complex(amps.get("1", 0j))
    _qubit_vector(a0, a1, line)  # rejects a zero norm
    return "qubit", a0, a1


_GATE_RE = re.compile(r"(x|h|phase)(?:\((?P<arg>[^)]*)\))?\Z", re.IGNORECASE)


def _parse_gate_name(token: str, line: int):
    m = _GATE_RE.match(token)
    if not m:
        _fail(line, f"unknown gate {token!r}")
    name = m.group(1).lower()
    arg = m.group("arg")
    if name == "phase":
        if arg is None:
            _fail(line, "phase gate needs an angle, e.g. phase(1.57)")
        try:
            theta = float(arg)
        except ValueError:
            _fail(line, f"bad phase angle {arg!r}")
        if not math.isfinite(theta):
            _fail(line, f"phase angle {arg!r} is not finite")
        return name, theta
    if arg is not None:
        _fail(line, f"gate {name!r} takes no argument")
    return name, None


def parse_circuit(text: str) -> CircuitProgram:
    """Parse, statically check and compile a program.

    Finite amplitudes and angles, cycle alignment, slot existence,
    expansion feasibility, and the size of every state the program
    builds (at most MAX_STATE_BYTES) are all verified here, so a parsed
    program is guaranteed runnable; its CircuitPlan is kept on it as
    ``plan``.
    """
    directives = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()
        args = tokens[1:]
        if head == "prepare":
            if len(args) < 3:
                _fail(ln, "usage: prepare <site> @<cycle> <state>")
            site = _parse_site(args[0], ln)
            cycle = _parse_cycle(args[1], ln)
            kind, a0, a1 = _parse_state("".join(args[2:]), ln)
            directives.append(Prepare(site, cycle, kind, a0, a1, line=ln))
        elif head == "cnot":
            if len(args) != 3:
                _fail(ln, "usage: cnot <control> <target> @<cycle>")
            control = _parse_site(args[0], ln)
            target = _parse_site(args[1], ln)
            if control == target:
                _fail(ln, "control and target must differ")
            directives.append(
                Cnot(control, target, _parse_cycle(args[2], ln), line=ln)
            )
        elif head == "gate":
            if len(args) != 3:
                _fail(ln, "usage: gate <name> <site> @<cycle>")
            name, theta = _parse_gate_name(args[0], ln)
            site = _parse_site(args[1], ln)
            directives.append(
                GateOp(name, site, _parse_cycle(args[2], ln), theta, line=ln)
            )
        elif head == "dilate":
            if len(args) != 2:
                _fail(ln, "usage: dilate <site> +<n>")
            site = _parse_site(args[0], ln)
            if not args[1].startswith("+"):
                _fail(ln, f"dilation must be written +<n>, got {args[1]!r}")
            try:
                delta = int(args[1][1:])
            except ValueError:
                _fail(ln, f"bad dilation {args[1]!r}")
            if delta < 1:
                _fail(ln, f"dilation must be at least 1, got {delta}")
            directives.append(Dilate(site, delta, line=ln))
        elif head == "discard":
            if len(args) != 1:
                _fail(ln, "usage: discard <site>")
            directives.append(Discard(_parse_site(args[0], ln), line=ln))
        elif head == "output":
            if len(args) != 2:
                _fail(ln, "usage: output <site> @<cycle>")
            directives.append(
                Output(_parse_site(args[0], ln), _parse_cycle(args[1], ln),
                       line=ln)
            )
        else:
            _fail(ln, f"unknown directive {head!r}")
    program = CircuitProgram(tuple(directives))
    program.plan  # compiles the program, or rejects it
    return program


def _expansion_shift(site_cycles: dict, participants, cycle: int):
    """Smallest whole-state shift that gives every participant a slot at
    the cycle, or None.  0 means no expansion is needed."""
    missing = [s for s in participants if cycle not in site_cycles[s]]
    if not missing:
        return 0
    candidates = None
    for s in missing:
        deltas = {cycle - c for c in site_cycles[s] if cycle - c >= 1}
        candidates = deltas if candidates is None else candidates & deltas
    for delta in sorted(candidates or ()):
        ok = all(
            not (cs & {c + delta for c in cs})
            for cs in site_cycles.values()
        )
        if ok:
            return delta
    return None


@dataclass(frozen=True)
class PlanStep:
    """One step of a compiled program, with the slot order after it.

    kind is one of
      "prepare": operand is the normalized vector appended to every row;
      "expand":  shift is the whole-state shift of the appended copy;
      "gate":    operand is the lifted block, shaped (target dims...,
                 target dims...), acting on the register axes in axes;
      "dilate":  relabels slots only;
      "discard": axes are the register axes traced out;
      "output":  axes holds the register axis of the output slot.
    """

    kind: str
    line: int
    slots: tuple
    operand: Optional[np.ndarray] = None
    axes: tuple = ()
    shift: int = 0


@dataclass(frozen=True)
class CircuitPlan:
    """A program compiled for run_program: its steps in order, the
    register of the final state and that of the output's reduced
    state."""

    steps: tuple
    register: Register
    output_register: Register

    @property
    def pure(self) -> bool:
        """Whether the final state is pure: no step discards a site."""
        return all(step.kind != "discard" for step in self.steps)


_GATES = {"x": pauli_x, "h": hadamard}


def _static_check(directives) -> CircuitPlan:
    """Check a directive list and compile it, in one pass.

    The slot order follows the state: a prepared slot is appended, an
    expansion appends the shifted copy of every slot, a dilation relabels
    in place and a discard removes the site's slots.
    """
    dims = {}
    discarded = set()
    expandable = True  # the state is still pure
    slots = []
    steps = []
    reg = None  # Register of slots, built when a gate or the plan needs it

    def site_cycles():
        out = {}
        for s in slots:
            out.setdefault(s.site, set()).add(s.cycle)
        return out

    def fits(ln):
        try:
            check_state_size(math.prod(dims[s.site] for s in slots),
                             pure=expandable)
        except RegisterSizeError as exc:
            _fail(ln, str(exc))

    def live(site, ln):
        if site in discarded:
            _fail(ln, f"site {site!r} was discarded")
        if all(s.site != site for s in slots):
            _fail(ln, f"site {site!r} was never prepared")

    def layout(kind, ln, **kw):
        nonlocal reg
        reg = None
        steps.append(PlanStep(kind, ln, tuple(slots), **kw))

    def register():
        nonlocal reg
        if reg is None:
            reg = Register(tuple(slots), tuple(dims[s.site] for s in slots))
        return reg

    def align(participants, cycle, ln):
        delta = _expansion_shift(site_cycles(), participants, cycle)
        if delta is None:
            _fail(ln, f"no dilation aligns {participants} at cycle {cycle}")
        if delta:
            if not expandable:
                _fail(ln, "expansion after discard needs a pure state")
            slots.extend([s.shifted(delta) for s in slots])
            fits(ln)
            layout("expand", ln, shift=delta)

    def gate(g, sites, cycle, ln):
        targets = [SlotId(s, cycle) for s in sites]
        block, axes = _gate_block(register(), g, targets)
        steps.append(PlanStep("gate", ln, tuple(slots), block, tuple(axes)))

    if not directives:
        _fail(1, "missing output directive")
    for i, d in enumerate(directives):
        if isinstance(d, Output) and i != len(directives) - 1:
            _fail(d.line, "output must be the final directive")
        if isinstance(d, Prepare):
            if SlotId(d.site, d.cycle) in slots:
                _fail(d.line, f"slot {d.site}@{d.cycle} already prepared")
            dim = 3 if d.kind == "vac" else 2
            if d.site in dims and dims[d.site] != dim:
                _fail(d.line, f"site {d.site!r} mixes slot dimensions")
            dims[d.site] = dim
            discarded.discard(d.site)
            slots.append(SlotId(d.site, d.cycle))
            fits(d.line)
            layout("prepare", d.line, operand=_prepared_vector(d))
        elif isinstance(d, Cnot):
            live(d.control, d.line)
            live(d.target, d.line)
            align([d.control, d.target], d.cycle, d.line)
            gate(cnot(), [d.control, d.target], d.cycle, d.line)
        elif isinstance(d, GateOp):
            live(d.site, d.line)
            align([d.site], d.cycle, d.line)
            g = phase_gate(d.theta) if d.name == "phase" \
                else _GATES[d.name]()
            gate(g, [d.site], d.cycle, d.line)
        elif isinstance(d, Dilate):
            live(d.site, d.line)
            slots[:] = [s.shifted(d.delta) if s.site == d.site else s
                        for s in slots]
            layout("dilate", d.line)
        elif isinstance(d, Discard):
            live(d.site, d.line)
            if all(s.site == d.site for s in slots):
                _fail(d.line, "cannot discard the only remaining site")
            discarded.add(d.site)
            expandable = False
            axes = tuple(p for p, s in enumerate(slots) if s.site == d.site)
            slots[:] = [s for s in slots if s.site != d.site]
            fits(d.line)
            layout("discard", d.line, axes=axes)
        elif isinstance(d, Output):
            live(d.site, d.line)
            slot = SlotId(d.site, d.cycle)
            if slot not in slots:
                _fail(d.line,
                      f"site {d.site!r} has no slot at cycle {d.cycle}")
            steps.append(PlanStep("output", d.line, tuple(slots),
                                  axes=(slots.index(slot),)))
    if not isinstance(directives[-1], Output):
        _fail(directives[-1].line, "missing output directive")
    out = directives[-1]
    return CircuitPlan(tuple(steps), register(),
                       Register((SlotId(out.site, out.cycle),),
                                (dims[out.site],)))


def _prepared_vector(d: Prepare) -> np.ndarray:
    if d.kind == "vac":
        return np.array([1.0, 0.0, 0.0], dtype=complex)
    return _qubit_vector(d.amp0, d.amp1, d.line)


def _qubit_vector(a0: complex, a1: complex, line: int) -> np.ndarray:
    """a0|0> + a1|1>, normalized.  It is scaled to its largest real or
    imaginary component first, so huge amplitudes do not overflow the
    norm."""
    scale = max(abs(a0.real), abs(a0.imag), abs(a1.real), abs(a1.imag))
    if not math.isfinite(scale):
        _fail(line, "amplitudes are not finite")
    if scale == 0.0 or scale * (abs(a0 / scale) + abs(a1 / scale)) < 1e-12:
        _fail(line, "state has zero norm")
    a0, a1 = a0 / scale, a1 / scale
    norm = math.hypot(abs(a0), abs(a1))
    return np.array([a0 / norm, a1 / norm])


def _fmt_amp(c: complex) -> str:
    if c == 1:
        return ""
    if c == -1:
        return "-"
    if c.imag == 0.0:
        return repr(c.real)
    return repr(c)


def _fmt_state(d: Prepare) -> str:
    if d.kind == "vac":
        return "|vac>"
    if (d.amp0, d.amp1) == (1, 0):
        return "|0>"
    if (d.amp0, d.amp1) == (0, 1):
        return "|1>"
    f0, f1 = _fmt_amp(d.amp0), _fmt_amp(d.amp1)
    sep = "+"
    if f1.startswith("-"):
        sep, f1 = "-", f1[1:]
    return f"{f0}|0>{sep}{f1}|1>"


def format_circuit(program: CircuitProgram) -> str:
    """Canonical text for a program; parsing it back gives an equal
    program."""
    lines = []
    for d in program.directives:
        if isinstance(d, Prepare):
            lines.append(f"prepare {d.site} @{d.cycle} {_fmt_state(d)}")
        elif isinstance(d, Cnot):
            lines.append(f"cnot {d.control} {d.target} @{d.cycle}")
        elif isinstance(d, GateOp):
            name = f"phase({d.theta!r})" if d.name == "phase" else d.name
            lines.append(f"gate {name} {d.site} @{d.cycle}")
        elif isinstance(d, Dilate):
            lines.append(f"dilate {d.site} +{d.delta}")
        elif isinstance(d, Discard):
            lines.append(f"discard {d.site}")
        elif isinstance(d, Output):
            lines.append(f"output {d.site} @{d.cycle}")
    return "\n".join(lines) + "\n"


@dataclass
class ExecutionReport:
    """Final reduced state of a program's output slot."""

    output_slot: SlotId
    rho_out: DensityOperator
    probabilities: dict
    entropy_bits: float

    def to_json_dict(self) -> dict:
        from .registers import density_to_json

        return {
            "output_slot": {"site": self.output_slot.site,
                            "cycle": self.output_slot.cycle},
            "rho_out": density_to_json(self.rho_out),
            "probabilities": dict(self.probabilities),
            "entropy_bits": self.entropy_bits,
        }


def run_program(program: CircuitProgram):
    """Execute a program; returns (ExecutionReport, final state).

    The program's plan runs on one array of amplitude rows, shaped
    (N, *dims), whose state is the sum of the rows' projectors: gates
    contract their block with the rows' target axes, a prepare appends
    its vector to every row and an expansion appends the (single) row's
    own copy.  A discard moves the discarded axes into the row axis; when
    that leaves more rows than the kept dimension d, the rows are folded
    to d by a QR factorization, which keeps the state, so the stack never
    outgrows a d x d density matrix.

    Each density the run returns is built and validated once, at the
    end, by registers.gram_density: the output's reduced state and, after
    a discard, the mixed final state, whose spectrum is read off the
    smaller Gram matrix of its rows.  A pure final state is a PureState.
    A hand-built directive list that the static check rejects raises
    CircuitExecutionError.
    """
    try:
        plan = program.plan
    except CircuitParseError as exc:
        raise CircuitExecutionError(str(exc)) from exc
    rows = None
    for step in plan.steps:
        if step.kind == "gate":
            rows = _left_multiply(step.operand, rows,
                                  [a + 1 for a in step.axes])
        elif step.kind == "prepare":
            rows = step.operand[None] if rows is None \
                else rows[..., None] * step.operand
        elif step.kind == "expand":
            rows = np.multiply.outer(rows, rows[0])
        elif step.kind == "discard":
            rows = _discard_rows(rows, step.axes)
    out = plan.steps[-1]
    rho = gram_density(plan.output_register, _factor(rows, out.axes))
    report = ExecutionReport(
        plan.output_register.slots[0],
        rho,
        joint_outcome_distribution(rho, rho.register.slots),
        von_neumann_entropy(rho),
    )
    if plan.pure:
        return report, PureState(plan.register, rows.reshape(-1))
    every = range(len(plan.register.slots))
    return report, gram_density(plan.register, _factor(rows, every))


def _factor(rows: np.ndarray, keep) -> np.ndarray:
    """The (d_keep, M) factor F of amplitude rows whose F F^H is their
    reduced state over the register axes in keep (ascending): the kept
    axes lead, and the row axis and every other axis become columns."""
    lead = [a + 1 for a in keep]
    rest = [0] + [a for a in range(1, rows.ndim) if a not in lead]
    t = rows.transpose(lead + rest)
    return t.reshape(math.prod(t.shape[:len(lead)]), -1)


def _discard_rows(rows: np.ndarray, axes) -> np.ndarray:
    """Amplitude rows of the state with the register axes in axes traced
    out, at most as many as the kept dimension."""
    keep = [a for a in range(rows.ndim - 1) if a not in axes]
    r = _factor(rows, keep).T
    if r.shape[0] > r.shape[1]:
        # R = Q T with Q isometric, so T^H T = R^H R: the same state
        r = np.linalg.qr(r, mode="r")
    return r.reshape((-1,) + tuple(rows.shape[a + 1] for a in keep))
