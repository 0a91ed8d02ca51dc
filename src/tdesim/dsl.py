"""Line-oriented circuit programs over cycle-labeled slots.

Grammar, one directive per line, '#' starts a comment:

    prepare <site> @<cycle> <state>    state: |0>, |1>, |vac>, a|0>+b|1>
    cnot <control> <target> @<cycle>
    gate <name> <site> @<cycle>        name: x, h, phase(<angle>)
    dilate <site> +<n>
    discard <site>
    output <site> @<cycle>

Amplitudes are finite python floats or complex literals; parenthesize
complex coefficients, as in (0.5+0.5j)|0>+0.5|1>.  Cycles and dilations
are ASCII digits only.  States are parsed in one pass over their
tokens and normalized when the program is parsed.  Every program ends
with exactly one output directive.

A gate whose participants lack a slot at the gate's cycle triggers a
two-copy expansion: the whole state is tensored with a copy of itself
shifted forward by the smallest dilation that aligns every participant,
which is how a dilated site gets gated against an undilated one.  The
expansion is resolved while parsing, so misaligned programs are rejected
before anything runs; it also requires a pure state, so it cannot follow
a discard.

Parsing compiles the program into a CircuitPlan, in one pass over the
directives: the slot order after every step, each expansion's shift,
each discard's axes and the gates.  The slot order is one tuple, which
only a prepare, an expansion, a dilation or a discard replaces, so the
steps in between share it; the plan's registers are built once, at the
end, and the output's slot is the final register's own.  Each run of
adjacent X, CNOT and phase gates, whose lifted blocks are monomial,
becomes one flat index gather with optional phases; H stays a dense
block.  A run is composed over only the register axes its gates touch,
starting from its first gate's own gather, and expanded to the
register's flat gather once, when it closes.
One executor, _run_steps, runs plan steps on an array of amplitude rows
shaped (B, N, *dims): B independent states, each the sum of the
projectors of its N rows.  run_program runs a program as one state of
one row, and a pure final state is normalized in place on the run's own
rows.  A discard moves the discarded axes into the row axis, so a mixed
state is carried as its own purification and never as a density matrix.
Densities are built and validated only where the run returns them: the
output's reduced state (a 16-slot state's wide factor is multiplied out
as dot products of its rows, with no conjugate copy) and a mixed final
state; the hermiticity check reads one triangle in bands.  The paper's
scenarios (scenarios.py) are circuits compiled here, run on the same
executor with their own input rows bound in place of the input prepares.
Its row kernels live in registers, shared with every state operation.
The matrices of the gates the language names live here, next to the
gate grammar, and the object path's Gate constructors read them.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass, field
from itertools import product as _iproduct
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (CircuitParseError, InvariantViolationError,
                     RegisterSizeError)
from .registers import (
    MAX_STATE_BYTES,
    DensityOperator,
    Register,
    SlotId,
    _SITE_RE,
    _discard_rows,
    _entropy_bits,
    _factor,
    _from_rows,
    _left_multiply,
    _normalized,
    _on_axes,
    _row_product,
    check_state_size,
    density_to_json,
    gram_density,
    joint_outcome_distribution,
)


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

    @functools.cached_property
    def plan(self) -> "CircuitPlan":
        """The program compiled by the static check, once; a program that
        cannot run raises CircuitParseError with the directive's line."""
        return _static_check(self.directives)


def _fail(line: int, message: str):
    raise CircuitParseError(line, message)


def _parse_site(token: str, line: int) -> str:
    if not (isinstance(token, str) and _SITE_RE.match(token)):
        _fail(line, f"bad site name {token!r}")
    return token


def _parse_cycle(token: str, line: int) -> int:
    if not token.startswith("@"):
        _fail(line, f"expected @<cycle>, got {token!r}")
    digits = token[1:]
    if not (digits.isascii() and digits.isdigit()):
        _fail(line, f"bad cycle {token!r}")
    return int(digits)


def _parse_dilation(token: str, line: int) -> int:
    if not token.startswith("+"):
        _fail(line, f"dilation must be written +<n>, got {token!r}")
    digits = token[1:]
    if not (digits.isascii() and digits.isdigit()):
        _fail(line, f"bad dilation {token!r}")
    delta = int(digits)
    if delta < 1:
        _fail(line, f"dilation must be at least 1, got {delta}")
    return delta


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


# One token of a state expression: a parenthesised group without nested
# parentheses (a complex coefficient), a lone parenthesis, or a sign right
# after a closed ket, which starts a new term when no parenthesis is open.
_STATE_TOKEN_RE = re.compile(r"\([^()]*\)|[()]|(?<=>)[+-]")


def _parse_state(spec: str, line: int):
    """Return (kind, amp0, amp1) for a state expression, in one pass over
    its tokens.  Unbalanced parentheses are reported before any term."""
    if spec == "|vac>":
        return "vac", 0j, 0j
    terms = []
    start = depth = 0
    for m in _STATE_TOKEN_RE.finditer(spec):
        token = m.group()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
            if depth < 0:
                break
        elif depth == 0 and len(token) == 1:
            terms.append(spec[start:m.start()])
            start = m.start() + (token == "+")
    if depth != 0:
        _fail(line, f"unbalanced parentheses in {spec!r}")
    terms.append(spec[start:])
    amps = [None, None]
    for term in terms:
        if term.endswith("|0>"):
            ket = 0
        elif term.endswith("|1>"):
            ket = 1
        elif term.endswith("|vac>"):
            _fail(line, "|vac> cannot carry an amplitude or be superposed")
        else:
            _fail(line, f"bad state term {term!r}")
        if amps[ket] is not None:
            _fail(line, f"duplicate |{ket}> term")
        amps[ket] = _parse_coef(term[:-3], line)
    a0, a1 = amps
    return "qubit", 0j if a0 is None else a0, 0j if a1 is None else a1


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
    ``plan``.  Anything but a str raises ValueError naming its type.
    """
    if not isinstance(text, str):
        raise ValueError(f"a program is text, got {type(text).__name__}")
    directives = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        head, *args = raw.partition("#")[0].split() or ("",)
        if not head:
            continue
        head = head.lower()
        if head == "cnot":
            if len(args) != 3:
                _fail(ln, "usage: cnot <control> <target> @<cycle>")
            directives.append(Cnot(_parse_site(args[0], ln),
                                   _parse_site(args[1], ln),
                                   _parse_cycle(args[2], ln), ln))
        elif head == "dilate":
            if len(args) != 2:
                _fail(ln, "usage: dilate <site> +<n>")
            directives.append(Dilate(_parse_site(args[0], ln),
                                     _parse_dilation(args[1], ln), ln))
        elif head == "prepare":
            if len(args) < 3:
                _fail(ln, "usage: prepare <site> @<cycle> <state>")
            site = _parse_site(args[0], ln)
            cycle = _parse_cycle(args[1], ln)
            kind, a0, a1 = _parse_state("".join(args[2:]), ln)
            directives.append(Prepare(site, cycle, kind, a0, a1, ln))
        elif head == "gate":
            if len(args) != 3:
                _fail(ln, "usage: gate <name> <site> @<cycle>")
            name, theta = _parse_gate_name(args[0], ln)
            directives.append(GateOp(name, _parse_site(args[1], ln),
                                     _parse_cycle(args[2], ln), theta, ln))
        elif head == "discard":
            if len(args) != 1:
                _fail(ln, "usage: discard <site>")
            directives.append(Discard(_parse_site(args[0], ln), ln))
        elif head == "output":
            if len(args) != 2:
                _fail(ln, "usage: output <site> @<cycle>")
            directives.append(Output(_parse_site(args[0], ln),
                                     _parse_cycle(args[1], ln), ln))
        else:
            _fail(ln, f"unknown directive {head!r}")
    program = CircuitProgram(tuple(directives))
    program.plan  # compiles the program, or rejects it
    return program


def _expansion_shift(slots, participants, cycle: int):
    """Smallest whole-state shift that gives every participant a slot at
    the cycle and copies no slot onto one the state holds, or None."""
    held = set(slots)
    candidates = None
    for p in participants:
        if (p, cycle) not in held:
            deltas = {cycle - c for s, c in slots if s == p and c < cycle}
            candidates = deltas if candidates is None else candidates & deltas
    for delta in sorted(candidates or ()):
        if held.isdisjoint([(s, c + delta) for s, c in slots]):
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
        return "discard" not in [step.kind for step in self.steps]


# The matrices of the fixed gates the language names, on their logical
# levels, read-only; dynamics' Gate constructors read the same arrays.
# CNOT is the identity with |10> and |11> swapped.
_GATE_MATRICES = MappingProxyType({
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "cnot": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
})
for _matrix in _GATE_MATRICES.values():
    _matrix.flags.writeable = False


def _phase_matrix(theta: float) -> np.ndarray:
    """diag(1, e^{i theta}), the phase(theta) gate's matrix."""
    return np.diag([1.0, np.exp(1j * float(theta))])


def _lift_logical(matrix: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Embed a 2^k logical unitary into the full product space of the
    target slots, identity on anything involving a vacuum level."""
    if all(d == 2 for d in dims):
        return matrix
    full = int(np.prod(dims))
    lifted = np.eye(full, dtype=complex)
    lattice = [
        int(np.ravel_multi_index(
            tuple(b + (d - 2) for b, d in zip(bits, dims)), tuple(dims)
        ))
        for bits in _iproduct((0, 1), repeat=len(dims))
    ]
    lifted[np.ix_(lattice, lattice)] = matrix
    return lifted


def _monomial(block: np.ndarray, permutation: bool = False):
    """Read a lifted gate block, shaped (target dims..., target dims...),
    off as a gather on its flat target index: (q, phases) with block @ v
    == phases * v[q], phases None if every nonzero is exactly 1.  None if
    some row or column has other than one nonzero (no tolerance).  With
    permutation=True the block claims to be a 0/1 permutation matrix and
    anything else raises InvariantViolationError."""
    k = int(np.prod(block.shape[:block.ndim // 2]))
    nonzero = block.reshape(k, k) != 0
    q = nonzero.argmax(axis=1)
    phases = block.reshape(k, k)[np.arange(k), q]
    monomial = (nonzero.sum(axis=0) == 1).all() \
        and (nonzero.sum(axis=1) == 1).all()
    unit = monomial and (phases == 1).all()
    if permutation and not unit:
        raise InvariantViolationError("lifted block is not a permutation")
    return (q, None if unit else phases) if monomial else None


@functools.lru_cache(maxsize=256)
def _lifted_gate(name: str, theta: Optional[float], dims: tuple):
    """A gate's lifted block on targets of the given dims, shaped dims +
    dims, and its gather read off by _monomial, None if dense."""
    matrix = _phase_matrix(theta) if name == "phase" else _GATE_MATRICES[name]
    block = _lift_logical(matrix, dims).reshape(dims + dims)
    gather = _monomial(block, permutation=name in ("x", "cnot"))
    for array in (block,) + (gather or ()):
        if array is not None:  # shared by every plan that uses the gate
            array.flags.writeable = False
    return block, gather


def _static_check(directives) -> CircuitPlan:
    """Check a directive list and compile it, in one pass.

    slots holds the state's (site, cycle) pairs in register order and
    shape their dims, as tuples replaced only when a step changes them,
    so the steps in between share one: a prepared slot is appended, an
    expansion appends the shifted copy of every slot, a dilation relabels
    in place and a discard removes the site's slots.  A monomial gate
    extends the open run, which any other step except a dilation closes
    into one gather step, unless the plan's gathers would then hold more
    than MAX_STATE_BYTES.
    """
    if not directives:
        _fail(1, "missing output directive")
    final = len(directives) - 1
    dims = {}
    discarded = set()
    pure = True  # no site discarded, so the state may expand
    slots = shape = ()
    size = 1
    steps = []
    # the open run of monomial gates, [(gather, axes, target dims)] in
    # order, with its first line and whether it has phases; no step that
    # changes the register leaves a run open
    run, first, phased = [], 0, False
    held = 0  # bytes of the closed runs' gathers

    def close():
        nonlocal held, phased
        if not run:
            return
        perm, phase = _run_gather(shape, run)
        held += perm.nbytes + (0 if phase is None else phase.nbytes)
        steps.append(PlanStep("gather", first, slots, phase, (), 0, perm))
        run.clear()
        phased = False

    def resize(new, ln):
        nonlocal slots, shape, size
        slots, shape = new, tuple([dims[s] for s, _ in new])
        size = math.prod(shape)
        try:
            check_state_size(size, pure)
        except RegisterSizeError as exc:
            _fail(ln, str(exc))

    def live(site, ln):
        if site in discarded:
            _fail(ln, f"site {site!r} was discarded")
        if site not in dims:
            _fail(ln, f"site {site!r} was never prepared")

    for i, d in enumerate(directives):
        ln = getattr(d, "line", 0)
        if i != final and isinstance(d, Output):
            _fail(ln, "output must be the final directive")
        # a hand-built directive list meets the parser's rules, so that
        # format_circuit's text reads back: a cycle or dilation that is
        # not a plain int goes through the parser's own check, a gate name
        # must be the parser's lowercase spelling, and a site name is
        # checked where it is prepared, since every other directive needs
        # a prepared site
        cycle = getattr(d, "cycle", 0)
        if type(cycle) is not int or cycle < 0:
            _parse_cycle(f"@{cycle}", ln)
        if isinstance(d, (Cnot, GateOp)):
            if isinstance(d, Cnot):
                if d.control == d.target:
                    _fail(ln, "control and target must differ")
                sites, name, theta = [d.control, d.target], "cnot", None
                targets = [(d.control, cycle), (d.target, cycle)]
            else:
                name, theta = d.name, d.theta
                if name not in ("x", "h") or theta is not None:
                    arg = "" if theta is None else f"({theta})"
                    name, theta = _parse_gate_name(f"{name}{arg}", ln)
                    if name != d.name:
                        _fail(ln, f"unknown gate {d.name!r}")
                sites, targets = [d.site], [(d.site, cycle)]
            for s in sites:
                live(s, ln)
            if not all(map(slots.__contains__, targets)):
                delta = _expansion_shift(slots, sites, cycle)
                if delta is None:
                    _fail(ln, f"no dilation aligns {sites} at cycle {cycle}")
                if not pure:
                    _fail(ln, "expansion after discard needs a pure state")
                close()
                resize(slots + tuple([(s, c + delta) for s, c in slots]), ln)
                steps.append(PlanStep("expand", ln, slots, None, (), delta))
            axes = tuple(map(slots.index, targets))
            tdims = tuple(map(dims.__getitem__, sites))
            block, gather = _lifted_gate(name, theta, tdims)
            if gather is not None:
                more = phased or gather[1] is not None
                # the plan's gathers hold at most MAX_STATE_BYTES in all (8
                # bytes of perm and 16 of phase per amplitude); past that,
                # a monomial gate stays a dense block like H
                if held + size * (24 if more else 8) <= MAX_STATE_BYTES:
                    if not run:
                        first = ln
                    run.append((gather, axes, tdims))
                    phased = more
                    continue
            close()
            steps.append(PlanStep("gate", ln, slots, block, axes))
        elif isinstance(d, Dilate):
            delta = d.delta
            if type(delta) is not int or delta < 1:
                _parse_dilation(f"+{delta}", ln)
            live(d.site, ln)
            slots = tuple([(s, c + delta) if s == d.site else (s, c)
                           for s, c in slots])
            steps.append(PlanStep("dilate", ln, slots))
        elif isinstance(d, Prepare):
            _parse_site(d.site, ln)
            if d.kind not in ("vac", "qubit"):
                _fail(ln, f"unknown state kind {d.kind!r}")
            if (d.site, cycle) in slots:
                _fail(ln, f"slot {d.site}@{cycle} already prepared")
            dim = 3 if d.kind == "vac" else 2
            if dims.setdefault(d.site, dim) != dim:
                _fail(ln, f"site {d.site!r} mixes slot dimensions")
            discarded.discard(d.site)
            close()
            resize(slots + ((d.site, cycle),), ln)
            steps.append(PlanStep("prepare", ln, slots, _state_vector(
                d.kind, d.amp0, d.amp1, ln)))
        elif isinstance(d, Discard):
            live(d.site, ln)
            axes = tuple([p for p, (s, _) in enumerate(slots) if s == d.site])
            if len(axes) == len(slots):
                _fail(ln, "cannot discard the only remaining site")
            discarded.add(d.site)
            pure = False
            close()
            resize(tuple([k for k in slots if k[0] != d.site]), ln)
            steps.append(PlanStep("discard", ln, slots, None, axes))
        elif isinstance(d, Output):
            live(d.site, ln)
            if (d.site, cycle) not in slots:
                _fail(ln, f"site {d.site!r} has no slot at cycle {cycle}")
            close()
            steps.append(PlanStep("output", ln, slots, None,
                                  (slots.index((d.site, cycle)),)))
        else:
            _fail(ln, f"unknown directive {d!r}")
    if not isinstance(directives[-1], Output):
        _fail(directives[-1].line, "missing output directive")
    register = Register(tuple([SlotId(*slot) for slot in slots]), shape)
    axis = steps[-1].axes[0]
    return CircuitPlan(tuple(steps), register,
                       Register((register.slots[axis],), (shape[axis],)))


def _run_gather(shape, gates):
    """The read-only flat gather and phases (None if it has none) of a run
    of monomial gates on a register of the given shape, each gate given
    as ((q, phases), its register axes, their dims) in order.

    The gates are composed over just the axes the run touches, in the
    order it first touches them, and the result is expanded to the whole
    register once: each flat index moves by its touched coordinates'
    offset."""
    touched = list(dict.fromkeys(a for _, axes, _ in gates for a in axes))
    sub = list(map(shape.__getitem__, touched))
    perm = phase = None
    for (q, phases), axes, dims in gates:
        at = list(map(touched.index, axes))
        if perm is None:
            # arange gathered by q on the leading axes, those of the first
            # gate: entry (i, j) is q[i] * tail + j
            tail = math.prod(sub[len(at):])
            perm = (q if tail == 1 else
                    np.add.outer(q * tail, np.arange(tail))).reshape(sub)
        else:  # gathered by q on the flat index over the gate's axes
            perm = _on_axes(perm, at, lambda m: m.take(q, axis=0), dims)
            if phase is not None:
                phase = _on_axes(phase, at, lambda m: m.take(q, axis=0), dims)
        if phases is not None:  # on the target axes, broadcast elsewhere
            spread = [1] * len(sub)
            for a, n in zip(at, dims):
                spread[a] = n
            lined = sorted(range(len(at)), key=at.__getitem__)
            phase = np.multiply(
                phases.reshape(dims).transpose(lined).reshape(spread),
                1 if phase is None else phase,
                out=np.empty(sub, dtype=complex))
    rest = [a for a in range(len(shape)) if a not in touched]
    if rest or touched != sorted(touched):
        order = touched + rest
        pad = sub + [1] * len(rest)
        flat = np.arange(math.prod(shape)).reshape(shape)
        front = flat.transpose(order)  # a view of flat
        # the flat offset of each touched subspace index
        offset = front[(...,) + (0,) * len(rest)]
        front += (offset.take(perm) - offset).reshape(pad)
        if phase is not None:
            full = np.empty(shape, dtype=complex)
            full.transpose(order)[...] = phase.reshape(pad)
            phase = full
        perm = flat
    # else the touched subspace is the register, in its order
    perm = perm.reshape(-1)
    phase = None if phase is None else phase.reshape(-1)
    for array in (perm, phase):
        if array is not None:  # cached plans share their steps
            array.setflags(write=False)
    return perm, phase


_VACUUM = np.array([1.0, 0.0, 0.0], dtype=complex)
_VACUUM.flags.writeable = False


def _state_vector(kind: str, a0: complex, a1: complex,
                  line: int) -> np.ndarray:
    """The normalized, read-only vector of a prepared state, by PureState's
    rule (registers._normalized); a zero or non-finite state raises
    CircuitParseError."""
    if kind == "vac":
        return _VACUUM
    # complex, like every row a run holds: a gather multiplies its phases
    # into the rows in place
    try:
        return _normalized(np.array([a0, a1], dtype=complex))
    except ValueError as exc:
        _fail(line, str(exc))


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
    program.  A program the static check refuses raises its
    CircuitParseError instead."""
    program.plan
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
        return {
            "output_slot": {"site": self.output_slot.site,
                            "cycle": self.output_slot.cycle},
            "rho_out": density_to_json(self.rho_out),
            "probabilities": dict(self.probabilities),
            "entropy_bits": self.entropy_bits,
        }


def run_program(program: CircuitProgram):
    """Execute a program; returns (ExecutionReport, final state).

    Each density the run returns, the output's reduced state and, after
    a discard, the mixed final state, is built and validated once, at
    the end (registers.gram_density).  A pure final state is normalized
    in place on the run's own rows.  A hand-built directive list that the
    static check rejects raises its CircuitParseError, and anything but a
    CircuitProgram raises ValueError naming its type.
    """
    if not isinstance(program, CircuitProgram):
        raise ValueError(
            f"expected a CircuitProgram, got {type(program).__name__}")
    plan = program.plan
    rows = _run_steps(plan.steps, None)
    rho = gram_density(plan.output_register,
                       _factor(rows, plan.steps[-1].axes)[0])
    report = ExecutionReport(
        plan.output_register.slots[0],
        rho,
        joint_outcome_distribution(rho, rho.register.slots),
        float(_entropy_bits(rho.eigenvalues)),
    )
    return report, _from_rows(plan.register, rows, plan.pure)


def _run_steps(steps, rows: Optional[np.ndarray]) -> np.ndarray:
    """Run plan steps on rows shaped (B, N, *dims): B independent states,
    each the sum of the projectors of its N amplitude rows; rows None
    starts from nothing, so the first step must be a prepare.

    An expansion takes each state's rows times its shifted copy's
    (registers._row_product), N rows to N**2, whose projectors sum to
    rho (x) rho.  A discard moves the discarded axes into the row axis
    and folds more rows than the kept dimension d to d by a QR
    factorization, so no state outgrows a d x d density matrix.  No step
    writes into the rows it is given, so a caller may keep them.
    """
    for step in steps:
        if step.kind == "gather":
            b, n = rows.shape[:2]
            out = rows.reshape(b * n, -1).take(step.perm, axis=1)
            if step.operand is not None:
                out *= step.operand
            rows = out.reshape(rows.shape)
        elif step.kind == "gate":
            rows = _left_multiply(step.operand, rows,
                                  [a + 2 for a in step.axes])
        elif step.kind == "prepare":
            rows = step.operand[None, None] if rows is None \
                else rows[..., None] * step.operand
        elif step.kind == "expand":
            rows = _row_product(rows, rows)
        elif step.kind == "discard":
            rows = _discard_rows(rows, step.axes)
    return rows

