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
when the program is parsed.  Every program ends with exactly one output
directive.

A gate whose participants lack a slot at the gate's cycle triggers a
two-copy expansion: the whole state is tensored with a copy of itself
shifted forward by the smallest dilation that aligns every participant,
which is how a dilated site gets gated against an undilated one.  The
expansion is resolved while parsing, so misaligned programs are rejected
before anything runs; it also requires a pure state, so it cannot follow
a discard.

Parsing compiles the program into a CircuitPlan: the slot order after
every step, each expansion's shift, each discard's axes and the gates.
Each run of adjacent X, CNOT and phase gates, whose lifted blocks are
monomial, becomes one flat index gather with optional phases; H stays a
dense block.  One executor, _run_steps, runs plan steps on an array of
amplitude rows shaped (B, N, *dims): B independent states, each the sum
of the projectors of its N rows.  run_program runs a program as one
state of one row.  A discard moves the discarded axes into the row axis,
so a mixed state is carried as its own purification and never as a
density matrix.  Densities are built and validated only where the run
returns them: the output's reduced state and a mixed final state.  The
paper's scenarios (scenarios.py) are circuits compiled here, run on the
same executor with their own input rows bound in place of the input
prepares.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import CircuitExecutionError, CircuitParseError, RegisterSizeError
from .registers import (
    MAX_STATE_BYTES,
    DensityOperator,
    PureState,
    Register,
    SlotId,
    check_state_size,
    gram_density,
)
from .dynamics import (
    _gather_axes,
    _left_multiply,
    _lift_logical,
    _monomial,
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

    @functools.cached_property
    def vector(self) -> np.ndarray:
        """The normalized state vector, computed once per directive; a
        zero or non-finite state raises CircuitParseError."""
        if self.kind == "vac":
            return _VACUUM
        return _qubit_vector(self.amp0, self.amp1, self.line)


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


_SPLIT_RE = re.compile(r"[()]|(?<=>)[+-]")


def _split_terms(spec: str, line: int):
    """Split a superposition on top-level +/- that follow a closed ket;
    only parentheses and a sign right after a '>' are visited."""
    terms = []
    start = depth = 0
    for m in _SPLIT_RE.finditer(spec):
        ch = m.group()
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                _fail(line, f"unbalanced parentheses in {spec!r}")
        elif depth == 0:
            terms.append(spec[start:m.start()])
            start = m.start() + (ch == "+")
    if depth != 0:
        _fail(line, f"unbalanced parentheses in {spec!r}")
    terms.append(spec[start:])
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
            prep = Prepare(site, cycle, *_parse_state("".join(args[2:]), ln),
                           line=ln)
            prep.vector  # rejects a zero norm
            directives.append(prep)
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


class PlanStep(NamedTuple):
    """One step of a compiled program, with the slot order after it as
    (site, cycle) pairs.

    kind is one of
      "prepare": operand is the normalized vector appended to every row;
      "expand":  shift is the whole-state shift of the appended copy;
      "gather":  adjacent monomial gates (X, CNOT, phase), also across
                 dilations, composed: each flattened row becomes
                 row[perm], times operand if not None; line is the first
                 gate's and the step sits where the run ends.  A plan's
                 gathers hold at most MAX_STATE_BYTES in all;
      "gate":    a dense gate (H): operand is the lifted block, shaped
                 (target dims..., target dims...), acting on the register
                 axes in axes;
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
    perm: Optional[np.ndarray] = None


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


_GATES = {"x": pauli_x, "h": hadamard, "cnot": cnot}


@functools.lru_cache(maxsize=256)
def _lifted_gate(name: str, theta: Optional[float], dims: tuple):
    """A gate's lifted block on targets of the given dims, shaped dims +
    dims, and its gather read off by dynamics._monomial, None if dense."""
    gate = phase_gate(theta) if name == "phase" else _GATES[name]()
    block = _lift_logical(gate.matrix, dims).reshape(dims + dims)
    gather = _monomial(block, permutation=name in ("x", "cnot"))
    for array in (block,) + (gather or ()):
        if array is not None:  # shared by every plan that uses the gate
            array.flags.writeable = False
    return block, gather


def _static_check(directives) -> CircuitPlan:
    """Check a directive list and compile it, in one pass.

    slots lists the state's (site, cycle) pairs in register order and
    shape their dimensions: a prepared slot is appended, an expansion
    appends the shifted copy of every slot, a dilation relabels in place
    and a discard removes the site's slots.  pos (pair -> register axis)
    and cycles (live site -> its cycles) follow them step by step.  A
    monomial gate extends the open run, which any other step except a
    dilation closes into one gather step, unless the plan's gathers would
    then hold more than MAX_STATE_BYTES.
    """
    dims = {}
    cycles = {}
    discarded = set()
    expandable = True  # the state is still pure
    slots = []
    shape = []
    pos = {}
    steps = []
    run = None  # (line, perm, phase) of the open run of monomial gates
    held = 0  # bytes of the closed runs' gathers

    def fits(ln):
        try:
            check_state_size(math.prod(shape), pure=expandable)
        except RegisterSizeError as exc:
            _fail(ln, str(exc))

    def live(site, ln):
        if site in discarded:
            _fail(ln, f"site {site!r} was discarded")
        if site not in cycles:
            _fail(ln, f"site {site!r} was never prepared")

    def step(kind, ln, operand=None, **kw):
        steps.append(PlanStep(kind, ln, tuple(slots), operand, **kw))

    def close():
        nonlocal run, held
        if run is not None:
            first, perm, phase = run
            run = None
            perm = perm.reshape(-1)
            phase = None if phase is None else phase.reshape(-1)
            for array in (perm, phase):
                if array is not None:  # cached plans share their steps
                    array.flags.writeable = False
            held += perm.nbytes + (0 if phase is None else phase.nbytes)
            step("gather", first, phase, perm=perm)

    def reindex():
        pos.clear()
        pos.update(zip(slots, range(len(slots))))

    def align(participants, cycle, ln):
        delta = _expansion_shift(cycles, participants, cycle)
        if delta is None:
            _fail(ln, f"no dilation aligns {participants} at cycle {cycle}")
        if delta:
            if not expandable:
                _fail(ln, "expansion after discard needs a pure state")
            close()
            slots.extend([(s, c + delta) for s, c in slots])
            shape.extend(shape)
            reindex()
            for cs in cycles.values():
                cs.update([c + delta for c in cs])
            fits(ln)
            step("expand", ln, shift=delta)

    def gate(name, theta, axes, tdims, ln):
        nonlocal run
        block, gather = _lifted_gate(name, theta, tdims)
        # the plan's gathers hold at most MAX_STATE_BYTES in all (8 bytes
        # of perm and 16 of phase per amplitude); past that, a monomial
        # gate stays a dense block like H
        phased = gather is not None and (
            gather[1] is not None or run is not None and run[2] is not None)
        need = math.prod(shape) * (24 if phased else 8)
        if gather is None or held + need > MAX_STATE_BYTES:
            close()
            step("gate", ln, block, axes=axes)
            return
        first, perm, phase = run or (
            ln, np.arange(math.prod(shape)).reshape(shape), None)
        q, phases = gather
        perm = _gather_axes(perm, q, axes)
        if phase is not None:
            phase = _gather_axes(phase, q, axes)
        if phases is not None:  # on the target axes, broadcast elsewhere
            k = len(axes)
            phases = phases.reshape(tdims + (1,) * (len(shape) - k))
            phase = np.broadcast_to(np.moveaxis(phases, range(k), axes)
                                    * (1 if phase is None else phase), shape)
        run = first, perm, phase

    if not directives:
        _fail(1, "missing output directive")
    for i, d in enumerate(directives):
        if isinstance(d, Output) and i != len(directives) - 1:
            _fail(d.line, "output must be the final directive")
        if isinstance(d, Prepare):
            if (d.site, d.cycle) in pos:
                _fail(d.line, f"slot {d.site}@{d.cycle} already prepared")
            dim = 3 if d.kind == "vac" else 2
            if d.site in dims and dims[d.site] != dim:
                _fail(d.line, f"site {d.site!r} mixes slot dimensions")
            dims[d.site] = dim
            discarded.discard(d.site)
            close()
            pos[d.site, d.cycle] = len(slots)
            slots.append((d.site, d.cycle))
            shape.append(dim)
            cycles.setdefault(d.site, set()).add(d.cycle)
            fits(d.line)
            step("prepare", d.line, d.vector)
        elif isinstance(d, Cnot):
            live(d.control, d.line)
            live(d.target, d.line)
            if d.control == d.target:
                _fail(d.line, "control and target must differ")
            align([d.control, d.target], d.cycle, d.line)
            gate("cnot", None,
                 (pos[d.control, d.cycle], pos[d.target, d.cycle]),
                 (dims[d.control], dims[d.target]), d.line)
        elif isinstance(d, GateOp):
            live(d.site, d.line)
            align([d.site], d.cycle, d.line)
            gate(d.name, d.theta, (pos[d.site, d.cycle],), (dims[d.site],),
                 d.line)
        elif isinstance(d, Dilate):
            live(d.site, d.line)
            slots[:] = [(s, c + d.delta) if s == d.site else (s, c)
                        for s, c in slots]
            reindex()
            cycles[d.site] = {c + d.delta for c in cycles[d.site]}
            step("dilate", d.line)
        elif isinstance(d, Discard):
            live(d.site, d.line)
            if len(cycles) == 1:
                _fail(d.line, "cannot discard the only remaining site")
            discarded.add(d.site)
            expandable = False
            close()
            axes = tuple(p for p, (s, _) in enumerate(slots) if s == d.site)
            slots[:] = [slot for slot in slots if slot[0] != d.site]
            shape[:] = [dims[s] for s, _ in slots]
            reindex()
            del cycles[d.site]
            fits(d.line)
            step("discard", d.line, axes=axes)
        elif isinstance(d, Output):
            live(d.site, d.line)
            if (d.site, d.cycle) not in pos:
                _fail(d.line,
                      f"site {d.site!r} has no slot at cycle {d.cycle}")
            close()
            step("output", d.line, axes=(pos[d.site, d.cycle],))
    if not isinstance(directives[-1], Output):
        _fail(directives[-1].line, "missing output directive")
    out = directives[-1]
    return CircuitPlan(tuple(steps), Register(tuple(slots), tuple(shape)),
                       Register(((out.site, out.cycle),), (dims[out.site],)))


_VACUUM = np.array([1.0, 0.0, 0.0], dtype=complex)
_VACUUM.flags.writeable = False


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
    vector = np.array([a0 / norm, a1 / norm])
    vector.flags.writeable = False  # a cached plan's prepare step holds it
    return vector


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

    The program's plan runs through _run_steps on one state held as one
    amplitude row.  Each density the run returns is built and validated
    once, at the end, by registers.gram_density: the output's reduced
    state and, after a discard, the mixed final state, whose spectrum is
    read off the smaller Gram matrix of its rows.  A pure final state is
    a PureState.  A hand-built directive list that the static check
    rejects raises CircuitExecutionError.
    """
    try:
        plan = program.plan
    except CircuitParseError as exc:
        raise CircuitExecutionError(str(exc)) from exc
    rows = _run_steps(plan.steps, None)
    out = plan.steps[-1]
    rho = gram_density(plan.output_register, _factor(rows, out.axes)[0])
    report = ExecutionReport(
        plan.output_register.slots[0],
        rho,
        joint_outcome_distribution(rho, rho.register.slots),
        von_neumann_entropy(rho),
    )
    if plan.pure:
        return report, PureState(plan.register, rows.reshape(-1))
    every = range(len(plan.register.slots))
    return report, gram_density(plan.register, _factor(rows, every)[0])


def _run_steps(steps, rows: Optional[np.ndarray]) -> np.ndarray:
    """Run plan steps on rows shaped (B, N, *dims): B independent states,
    each the sum of the projectors of its N amplitude rows.

    rows None starts from nothing, so the first step must be a prepare.
    A fused run of monomial gates (X, CNOT, phase) is one gather of each
    flattened row, row[perm], times its phases if it has any; a dense
    gate (H) contracts its block with the target axes.  A prepare appends
    its vector to every row.  An expansion takes each state's row set
    times the row set of its shifted copy, N rows to N**2, whose
    projectors sum to rho (x) rho: the uncorrelated copies of a mixed
    state, and the copy of a pure state when N is 1.  A discard moves the
    discarded axes into the row axis; when that leaves more rows than the
    kept dimension d, each state's rows are folded to d by a QR
    factorization, which keeps the state, so no state outgrows a d x d
    density matrix.  Dilations and the output step leave the rows alone.
    """
    for step in steps:
        if step.kind == "gather":
            b, n = rows.shape[:2]
            flat = rows.reshape(b * n, -1).take(step.perm, axis=1)
            if step.operand is not None:
                flat *= step.operand
            rows = flat.reshape(rows.shape)
        elif step.kind == "gate":
            rows = _left_multiply(step.operand, rows,
                                  [a + 2 for a in step.axes])
        elif step.kind == "prepare":
            rows = step.operand[None, None] if rows is None \
                else rows[..., None] * step.operand
        elif step.kind == "expand":
            b, n = rows.shape[:2]
            dims = rows.shape[2:]
            ones = (1,) * len(dims)
            rows = (rows.reshape((b, n, 1) + dims + ones)
                    * rows.reshape((b, 1, n) + ones + dims))
            rows = rows.reshape((b, n * n) + dims + dims)
        elif step.kind == "discard":
            rows = _discard_rows(rows, step.axes)
    return rows


def _factor(rows: np.ndarray, keep) -> np.ndarray:
    """The (B, d_keep, M) factors F of rows shaped (B, N, *dims): each
    state's F F^H is its reduced state over the register axes in keep
    (ascending).  The kept axes lead, and the row axis and every other
    axis become columns."""
    lead = [a + 2 for a in keep]
    rest = [1] + [a for a in range(2, rows.ndim) if a not in lead]
    t = rows.transpose([0] + lead + rest)
    return t.reshape(len(t), math.prod(t.shape[1:len(lead) + 1]), -1)


def _discard_rows(rows: np.ndarray, axes) -> np.ndarray:
    """Rows of each state with the register axes in axes traced out, at
    most as many as the kept dimension."""
    keep = [a for a in range(rows.ndim - 2) if a not in axes]
    r = _factor(rows, keep).swapaxes(-1, -2)
    if r.shape[1] > r.shape[2]:
        # R = Q T with Q isometric, so T^H T = R^H R: the same state
        r = np.linalg.qr(r, mode="r")
    return r.reshape(r.shape[:2] + tuple(rows.shape[a + 2] for a in keep))
