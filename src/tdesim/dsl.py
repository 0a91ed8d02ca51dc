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
are ASCII digits only.  A well-formed state is read by one match of
_STATE_RE; anything else goes through one pass over its tokens, which
words the refusal.  States are normalized when the program is parsed.
Every program ends with exactly one output directive.

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
block.  Each gate's own gather is built on the register's flat index,
taken once per register change with the axes' strides: the index moves
by how far the gate moves each target coordinate, kept with its lifted
block, times the targets' strides.  It is fused into its run's as the
gate comes, with its phases on the left; a diagonal gate, phase(theta),
leaves the run's gather as it is and adds its phases only.
One executor, _run_steps, runs plan steps on an array of amplitude rows
shaped (B, N, *dims): B independent states, each the sum of the
projectors of its N rows.  run_program runs a program as one state of
one row, and a pure final state is normalized in place on the run's own
rows.  A discard moves the discarded axes into the row axis, so a mixed
state is carried as its own purification and never as a density matrix.
Densities are built and validated only where the run returns them: the
output's reduced state (a 16-slot state's wide factor is multiplied out
as dot products of its rows, with no conjugate copy) and a mixed final
state; the hermiticity check reads one triangle in bands, and a qubit's
2 x 2 matrix as four Python complex numbers.  The paper's
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
    _row_product,
    check_state_size,
    density_to_json,
    gram_density,
    joint_outcome_distribution,
)


# The directives are frozen dataclasses whose line is left out of equality,
# hashing and repr.  Each writes its fields once through __dict__, as
# SlotId does, where a generated frozen __init__ would make one
# object.__setattr__ call per field.

@dataclass(frozen=True, init=False)
class Prepare:
    site: str
    cycle: int
    kind: str  # "vac" or "qubit"
    amp0: complex
    amp1: complex
    line: int = field(compare=False, repr=False)

    def __init__(self, site, cycle, kind, amp0=0j, amp1=0j, line=0):
        self.__dict__.update(site=site, cycle=cycle, kind=kind, amp0=amp0,
                             amp1=amp1, line=line)


@dataclass(frozen=True, init=False)
class Cnot:
    control: str
    target: str
    cycle: int
    line: int = field(compare=False, repr=False)

    def __init__(self, control, target, cycle, line=0):
        self.__dict__.update(control=control, target=target, cycle=cycle,
                             line=line)


@dataclass(frozen=True, init=False)
class GateOp:
    name: str  # "x", "h", or "phase"
    site: str
    cycle: int
    theta: Optional[float]
    line: int = field(compare=False, repr=False)

    def __init__(self, name, site, cycle, theta=None, line=0):
        self.__dict__.update(name=name, site=site, cycle=cycle, theta=theta,
                             line=line)


@dataclass(frozen=True, init=False)
class Dilate:
    site: str
    delta: int
    line: int = field(compare=False, repr=False)

    def __init__(self, site, delta, line=0):
        self.__dict__.update(site=site, delta=delta, line=line)


@dataclass(frozen=True, init=False)
class Discard:
    site: str
    line: int = field(compare=False, repr=False)

    def __init__(self, site, line=0):
        self.__dict__.update(site=site, line=line)


@dataclass(frozen=True, init=False)
class Output:
    site: str
    cycle: int
    line: int = field(compare=False, repr=False)

    def __init__(self, site, cycle, line=0):
        self.__dict__.update(site=site, cycle=cycle, line=line)


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


# A well-formed qubit state: one or two terms, each a coefficient and a
# ket, the second after a sign.  A coefficient is parenthesised or holds
# no parenthesis, and neither holds a bar or a closing angle bracket, so
# the match splits the terms where the token scan does; complex() takes
# no other coefficient.
_COEF = r"\([^()|>]*\)|[^()|>]*"
_STATE_RE = re.compile(rf"(?P<c0>{_COEF})\|(?P<k0>[01])>"
                       rf"(?:(?P<sign>[+-])(?P<c1>{_COEF})\|(?P<k1>[01])>)?\Z")


def _parse_state(spec: str, line: int):
    """Return (kind, amp0, amp1) for a state expression: one match of
    _STATE_RE for a well-formed state, whose coefficients are parsed in
    term order; anything the match rejects, or a repeated ket, goes to
    the token scan, which words its refusal."""
    if spec == "|vac>":
        return "vac", 0j, 0j
    m = _STATE_RE.match(spec)
    if m is None or m["k0"] == m["k1"]:
        return _scan_state(spec, line)
    amps = [0j, 0j]
    amps[int(m["k0"])] = _parse_coef(m["c0"], line)
    if m["k1"] is not None:
        c1 = m["c1"] if m["sign"] == "+" else "-" + m["c1"]
        amps[int(m["k1"])] = _parse_coef(c1, line)
    return "qubit", amps[0], amps[1]


def _scan_state(spec: str, line: int):
    """_parse_state's result for any state but |vac>, in one pass over its
    tokens.  Unbalanced parentheses are reported before any term."""
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
                 dilations, fused: each flattened row becomes row[perm],
                 times operand if not None, as under the gates' own flat
                 gathers in turn; line is the first gate's and the step
                 sits where the run ends.  A plan's gathers hold at most
                 MAX_STATE_BYTES in all;
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
    dims, its gather read off by _monomial (None if dense) and the
    gather's moves.  The moves, shaped dims + (targets,), are how far the
    gather moves each target coordinate of each flat target index: the
    flat gather on a register moves an index by them times the target
    axes' strides.  They are None where the gather moves no index, as a
    diagonal gate's does, or the gate is dense."""
    matrix = _phase_matrix(theta) if name == "phase" else _GATE_MATRICES[name]
    block = _lift_logical(matrix, dims).reshape(dims + dims)
    gather = _monomial(block, permutation=name in ("x", "cnot"))
    moves = None
    if gather is not None:
        q = gather[0]
        moves = np.subtract(np.unravel_index(q, dims),
                            np.unravel_index(np.arange(q.size), dims))
        moves = moves.T.reshape(dims + (len(dims),)) if moves.any() else None
    for array in (block, moves) + (gather or ()):
        if array is not None:  # shared by every plan that uses the gate
            array.flags.writeable = False
    return block, gather, moves


def _static_check(directives) -> CircuitPlan:
    """Check a directive list and compile it, in one pass.

    slots holds the state's (site, cycle) pairs in register order and
    shape their dims, as tuples replaced only when a step changes them,
    so the steps in between share one: a prepared slot is appended, an
    expansion appends the shifted copy of every slot, a dilation relabels
    in place and a discard removes the site's slots.  A monomial gate's
    flat gather is fused into the open run's, which any other step except
    a dilation closes into one gather step, unless the plan's gathers
    would then hold more than MAX_STATE_BYTES.
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
    # the open run of monomial gates: its gather and phases on the flat
    # index (phase None if it has none, perm None if no run is open),
    # shaped like the register, and its first line; no step that changes
    # the register leaves a run open
    perm = phase = None
    first = 0
    held = 0  # bytes of the closed runs' gathers
    # the register's flat index, shaped like it, and its axes' strides,
    # taken by the first monomial gate after each register change
    flat = strides = None

    def close():
        nonlocal held, perm, phase
        if perm is None:
            return
        for array in (perm, phase):
            if array is not None:  # cached plans share their steps
                held += array.nbytes
                array.setflags(write=False)
        steps.append(PlanStep("gather", first, slots, None if phase is None
                              else phase.reshape(-1), (), 0, perm.reshape(-1)))
        perm = phase = None

    def resize(new, ln):
        nonlocal slots, shape, size, flat
        slots, shape = new, tuple([dims[s] for s, _ in new])
        size = math.prod(shape)
        flat = None
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
            block, gather, moves = _lifted_gate(name, theta, tdims)
            if gather is not None:
                phases = gather[1]
                more = phase is not None or phases is not None
                # the plan's gathers hold at most MAX_STATE_BYTES in all (8
                # bytes of perm and 16 of phase per amplitude); past that,
                # a monomial gate stays a dense block like H
                if held + size * (24 if more else 8) <= MAX_STATE_BYTES:
                    if flat is None:  # once per register change
                        flat = np.arange(size).reshape(shape)
                        strides = [s // flat.itemsize for s in flat.strides]
                    # the gate's own gather on the flat index: each index
                    # moves by its target coordinates' moves times their
                    # strides; lay spreads an array shaped tdims, in gate
                    # order, over the register, broadcast on the other
                    # axes, and a gate has one or two targets, so reversing
                    # its axes puts them in register order (only a
                    # one-target gate has phases, shaped tdims as they come)
                    spread = [1] * len(shape)
                    for a, n in zip(axes, tdims):
                        spread[a] = n

                    def lay(v):
                        return (v.T if axes[0] > axes[-1] else v).reshape(
                            spread)

                    if moves is None:  # it moves no index: perm stays
                        if perm is None:
                            perm, first = flat, ln
                    else:
                        p = flat + lay(moves.dot([strides[a] for a in axes]))
                        # fused after the run: row[perm][p] == row[perm[p]]
                        if perm is None:
                            perm, first = p, ln
                        else:
                            perm = perm.take(p)
                            if phase is not None:
                                phase = phase.take(p)
                    # the gate's phases on the left: numpy's complex
                    # multiply can round the other order an ulp apart
                    if phases is not None:
                        phase = np.multiply(lay(phases),
                                            1 if phase is None else phase,
                                            out=np.empty(shape, complex))
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
    CircuitParseError instead, and anything but a CircuitProgram raises
    ValueError naming its type."""
    _check_program(program).plan
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


def _check_program(program) -> CircuitProgram:
    """program itself; anything but a CircuitProgram raises ValueError
    naming its type."""
    if not isinstance(program, CircuitProgram):
        raise ValueError(
            f"expected a CircuitProgram, got {type(program).__name__}")
    return program


def run_program(program: CircuitProgram):
    """Execute a program; returns (ExecutionReport, final state).

    Each density the run returns, the output's reduced state and, after
    a discard, the mixed final state, is built and validated once, at
    the end (registers.gram_density).  A pure final state is normalized
    in place on the run's own rows.  A hand-built directive list that the
    static check rejects raises its CircuitParseError, and anything but a
    CircuitProgram raises ValueError naming its type.
    """
    plan = _check_program(program).plan
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

