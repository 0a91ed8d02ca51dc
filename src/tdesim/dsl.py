"""Line-oriented circuit programs over cycle-labeled slots.

Grammar, one directive per line, '#' starts a comment:

    prepare <site> @<cycle> <state>    state: |0>, |1>, |vac>, a|0>+b|1>
    cnot <control> <target> @<cycle>
    gate <name> <site> @<cycle>        name: x, h, phase(<angle>)
    dilate <site> +<n>
    discard <site>
    output <site> @<cycle>

Amplitudes are python floats or complex literals; parenthesize complex
coefficients, as in (0.5+0.5j)|0>+0.5|1>.  States are normalized when the
program runs.  Every program ends with exactly one output directive.

A gate whose participants lack a slot at the gate's cycle triggers a
two-copy expansion: the whole state is tensored with a copy of itself
shifted forward by the smallest dilation that aligns every participant,
which is how a dilated site gets gated against an undilated one.  The
expansion is resolved while parsing, so misaligned programs are rejected
before anything runs; it also requires a pure state, so it cannot follow
a discard.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import CircuitExecutionError, CircuitParseError, RegisterSizeError
from .registers import (
    DensityOperator,
    PureState,
    Register,
    SlotId,
    State,
    check_state_size,
    partial_trace,
    relabel_cycles,
    tensor,
)
from .dynamics import (
    apply_gate,
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
        return complex(text)
    except ValueError:
        _fail(line, f"bad amplitude {text!r}")


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
    a0 = amps.get("0", 0j)
    a1 = amps.get("1", 0j)
    if abs(a0) + abs(a1) < 1e-12:
        _fail(line, "state has zero norm")
    return "qubit", complex(a0), complex(a1)


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
            return name, float(arg)
        except ValueError:
            _fail(line, f"bad phase angle {arg!r}")
    if arg is not None:
        _fail(line, f"gate {name!r} takes no argument")
    return name, None


def parse_circuit(text: str) -> CircuitProgram:
    """Parse and statically check a program.

    Cycle alignment, slot existence, expansion feasibility, and the size
    of every state the program builds (at most MAX_STATE_BYTES) are all
    verified here, so a parsed program is guaranteed runnable.
    """
    directives = []
    last_line = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        last_line = ln
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
    if not directives:
        _fail(max(last_line, 1), "missing output directive")
    _static_check(directives)
    return CircuitProgram(tuple(directives))


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


def _apply_expansion(site_cycles: dict, delta: int):
    for s, cs in site_cycles.items():
        site_cycles[s] = cs | {c + delta for c in cs}


def _static_check(directives):
    site_cycles = {}
    dims = {}
    discarded = set()
    expandable = True  # the state is still pure

    def fits(ln):
        dim = 1
        for site, cs in site_cycles.items():
            dim *= dims[site] ** len(cs)
        try:
            check_state_size(dim, pure=expandable)
        except RegisterSizeError as exc:
            _fail(ln, str(exc))

    def live(site, ln):
        if site in discarded:
            _fail(ln, f"site {site!r} was discarded")
        if site not in site_cycles:
            _fail(ln, f"site {site!r} was never prepared")

    def align(participants, cycle, ln):
        nonlocal expandable
        delta = _expansion_shift(site_cycles, participants, cycle)
        if delta is None:
            _fail(ln, f"no dilation aligns {participants} at cycle {cycle}")
        if delta:
            if not expandable:
                _fail(ln, "expansion after discard needs a pure state")
            _apply_expansion(site_cycles, delta)
            fits(ln)

    for i, d in enumerate(directives):
        if isinstance(d, Output) and i != len(directives) - 1:
            _fail(d.line, "output must be the final directive")
        if isinstance(d, Prepare):
            cs = site_cycles.get(d.site, set())
            if d.cycle in cs:
                _fail(d.line, f"slot {d.site}@{d.cycle} already prepared")
            dim = 3 if d.kind == "vac" else 2
            if d.site in dims and dims[d.site] != dim:
                _fail(d.line, f"site {d.site!r} mixes slot dimensions")
            site_cycles[d.site] = cs | {d.cycle}
            dims[d.site] = dim
            discarded.discard(d.site)
            fits(d.line)
        elif isinstance(d, Cnot):
            live(d.control, d.line)
            live(d.target, d.line)
            align([d.control, d.target], d.cycle, d.line)
        elif isinstance(d, GateOp):
            live(d.site, d.line)
            align([d.site], d.cycle, d.line)
        elif isinstance(d, Dilate):
            live(d.site, d.line)
            site_cycles[d.site] = {c + d.delta for c in site_cycles[d.site]}
        elif isinstance(d, Discard):
            live(d.site, d.line)
            if len(site_cycles) == 1:
                _fail(d.line, "cannot discard the only remaining site")
            discarded.add(d.site)
            del site_cycles[d.site]
            expandable = False
            fits(d.line)
        elif isinstance(d, Output):
            live(d.site, d.line)
            if d.cycle not in site_cycles[d.site]:
                _fail(d.line,
                      f"site {d.site!r} has no slot at cycle {d.cycle}")
    if not isinstance(directives[-1], Output):
        _fail(directives[-1].line, "missing output directive")


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


def _prepare_state(d: Prepare) -> PureState:
    reg = Register((SlotId(d.site, d.cycle),), (3 if d.kind == "vac" else 2,))
    if d.kind == "vac":
        return PureState(reg, [1.0, 0.0, 0.0])
    return PureState(reg, [d.amp0, d.amp1])


def _ensure_cycle(state: State, participants, cycle: int, line: int) -> State:
    site_cycles = {
        site: set(state.register.cycles_of(site))
        for site in state.register.sites
    }
    delta = _expansion_shift(site_cycles, participants, cycle)
    if delta is None:
        raise CircuitExecutionError(
            f"line {line}: no dilation aligns {participants} at cycle {cycle}"
        )
    if delta == 0:
        return state
    if not isinstance(state, PureState):
        raise CircuitExecutionError(
            f"line {line}: cannot expand a mixed state"
        )
    return tensor(state, relabel_cycles(state, None, delta))


_GATES = {"x": pauli_x, "h": hadamard}


def run_program(program: CircuitProgram):
    """Execute a parsed program; returns (ExecutionReport, final state)."""
    state = None
    result = None
    for d in program.directives:
        if isinstance(d, Prepare):
            fresh = _prepare_state(d)
            state = fresh if state is None else tensor(state, fresh)
        elif isinstance(d, Cnot):
            state = _ensure_cycle(state, [d.control, d.target], d.cycle,
                                  d.line)
            state = apply_gate(state, cnot(),
                               [SlotId(d.control, d.cycle),
                                SlotId(d.target, d.cycle)])
        elif isinstance(d, GateOp):
            state = _ensure_cycle(state, [d.site], d.cycle, d.line)
            gate = phase_gate(d.theta) if d.name == "phase" \
                else _GATES[d.name]()
            state = apply_gate(state, gate, [SlotId(d.site, d.cycle)])
        elif isinstance(d, Dilate):
            state = relabel_cycles(state, d.site, d.delta)
        elif isinstance(d, Discard):
            keep = [s for s in state.register.slots if s.site != d.site]
            state = partial_trace(state, keep)
        elif isinstance(d, Output):
            slot = SlotId(d.site, d.cycle)
            rho = partial_trace(state, [slot])
            result = ExecutionReport(
                slot,
                rho,
                joint_outcome_distribution(rho, rho.register.slots),
                von_neumann_entropy(rho),
            )
    return result, state
