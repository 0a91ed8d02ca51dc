"""End-to-end register-level experiments.

Every scenario here is one short circuit of the dsl, built from the same
primitive moves: prepare a pair at one cycle, dilate one site so the
pair straddles cycles, expand into the two-copy form, and either read
out at a single cycle or close the circuit with a second gate.  Each
circuit is written as a directive tuple, compiled by dsl._static_check
once per input dimension, dilation and site, and run by the dsl's own
executor (dsl._run_steps) on rows shaped (B, N, *dims): B states, each
the sum of the projectors of its N purification rows.  The scenario's
input rows, which one binding (registers._bind, shared with the object
path's expansions) makes of a pure or mixed input, take the place of
the circuit's input prepares.

A report's densities come from the circuit's read-out (_Readout),
compiled with it once per row count N: one gather, one batched product
F F^H and one check, on one stack padded to their largest dimension.
The entropy study, whose densities differ in size, gives each its own
read-out of one circuit pass instead.  A call on one state runs the
read-out as a batch of one, with no path of its own, so its report
equals a sweep's point bit for bit.  What it pays is the read-out's cost
per call, which the compile keeps low: each column's view of the stack
is an index built once, columns of one dimension take their spectra
from one registers._eigvalsh of the stack, with no zero pads, and
densities and reports are built in plain loops.  The runners return
report objects carrying the exact intermediate states so tests and the
command line can interrogate any step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvariantViolationError
from .registers import (
    ATOL,
    ENTROPY_SLACK,
    CorrelationMode,
    DensityOperator,
    PureState,
    Register,
    SlotId,
    State,
    _bind,
    _check_hermitian_unit_trace,
    _check_spectrum,
    _check_tau,
    _checked_ensemble,
    _eigvalsh,
    _entropy_bits,
    _factor,
    _items,
    _pure_state,
    _real,
    _trace_norms,
    _validated,
    bell_phi_plus,
    check_densities,
    density_to_json,
    on_register,
    qubit_state,
)
from .dsl import (
    CircuitPlan,
    Cnot,
    Dilate,
    Output,
    Prepare,
    _run_steps,
    _static_check,
)

# States run through a circuit at once when a grid is swept, so that the
# arrays held at one time do not grow with the grid.
ROW_BLOCK = 256


def _input_site(state) -> str:
    """The site of a single-slot circuit input, which it runs on."""
    if not isinstance(state, (PureState, DensityOperator)):
        raise ValueError(f"unsupported circuit input: {type(state).__name__}")
    slots = state.register.slots
    if len(slots) != 1:
        raise ValueError("circuit input must occupy a single slot")
    return slots[0].site


def _mix(weights, stack: np.ndarray) -> np.ndarray:
    """Weighted sum over the leading row axis, as a one-row stack."""
    mixed = np.asarray(weights, dtype=float) @ stack.reshape(len(stack), -1)
    return mixed.reshape((1,) + stack.shape[1:])


def row_blocks(n: int):
    """Slices of at most ROW_BLOCK rows covering range(n)."""
    for start in range(0, n, ROW_BLOCK):
        yield slice(start, min(start + ROW_BLOCK, n))


def grid_inputs(grid, dim: int = 2) -> tuple:
    """beta^2 values and the input rows sqrt(1 - b2)|0> + sqrt(b2)|1>.

    Returns (b2, amplitudes): an (N,) float array and an (N, dim) stack
    of normalized rows; with dim 3 the vacuum amplitude is zero.  A grid
    that is not a sequence, a value that is not a real number, or one
    outside [0, 1], raises ValueError.
    """
    b2 = np.array([_real(b, "a beta^2 value")
                   for b in _items(grid, "a beta^2 grid")])
    bad = ~((b2 >= 0.0) & (b2 <= 1.0))
    if bad.any():
        raise ValueError(f"beta^2 out of range: {b2[bad][0]}")
    amps = np.zeros((len(b2), dim), dtype=complex)
    amps[:, dim - 2] = np.sqrt(1.0 - b2)
    amps[:, dim - 1] = np.sqrt(b2)
    return b2, amps / np.linalg.norm(amps, axis=1, keepdims=True)


def _ancilla(site: str) -> str:
    """The site of the ancilla paired with an input on site."""
    return "2" if site != "2" else "anc"


def _placeholder(site: str, cycle: int, dim: int) -> Prepare:
    """A prepare of a dim-level slot, whose step a scenario replaces by
    its own input rows."""
    if dim == 3:
        return Prepare(site, cycle, "vac")
    return Prepare(site, cycle, "qubit", 1)


def _displaced_cnot(dim: int, tau: int, site: str) -> tuple:
    """The displaced-CNOT circuit up to its closing CNOT: a dim-level
    input on site and an ancilla in |0> at cycle 0, the opening CNOT, the
    site dilated by tau and the closing CNOT at cycle tau, where the
    ancilla has no slot, so the pair expands into its two copies."""
    anc = _ancilla(site)
    return (_placeholder(site, 0, dim), Prepare(anc, 0, "qubit", 1),
            Cnot(site, anc, 0), Dilate(site, tau), Cnot(site, anc, tau))


class _Circuit(NamedTuple):
    """A scenario circuit compiled, with what its reports read off it.

    A scenario's rows, shaped (B, N, *in_dims), take the place of the
    plan's input prepares, and segments are the step slices that follow
    them.  The rows and the rows each segment leaves are the circuit's
    taps, numbered from 0.  columns maps the name of each density a
    report can return to (register, tap, keep): its register, and the
    axes of that tap's register it keeps, ascending.
    """

    plan: CircuitPlan
    in_dims: tuple
    segments: tuple
    columns: Mapping


@functools.lru_cache(maxsize=64)
def _fig1_circuit(dim: int, tau: int, site: str) -> _Circuit:
    """The displaced-CNOT circuit of a dim-level input on site dilated by
    tau, compiled once and shared.

    Its taps are the input rows, the pair after the opening CNOT, and
    the four-slot rows after the expansion and after the closing CNOT.
    plan.register is the four-slot register of the pair's two displaced
    copies and plan.output_register the ancilla at cycle tau.  The input
    and the pair are reported on cycle tau, the input's preparation
    cycle, rho_d keeps the four-slot slots at tau and "four" is the whole
    closed state.
    """
    anc = _ancilla(site)
    plan = _static_check(_displaced_cnot(dim, tau, site)
                         + (Output(anc, tau),))
    steps, four = plan.steps, plan.register
    e = [step.kind for step in steps].index("expand")
    read_pos = tuple(i for i, s in enumerate(four.slots) if s.cycle == tau)
    readout = Register(tuple(four.slots[p] for p in read_pos),
                       tuple(four.dims[p] for p in read_pos))
    segments = (steps[1:e], steps[e:e + 1], steps[e + 1:])
    return _Circuit(plan, (dim,), segments, MappingProxyType({
        "input": (Register(((site, tau),), (dim,)), 0, (0,)),
        "rho_s": (Register(((site, tau), (anc, tau)), (dim, 2)), 1, (0, 1)),
        "rho_d": (readout, 2, read_pos),
        "rho_out": (plan.output_register, 3, steps[-1].axes),
        "four": (four, 3, tuple(range(len(four.slots)))),
    }))


class _Readout(NamedTuple):
    """A circuit's read-out, compiled for states of N rows and a report's
    columns.

    taps concatenates each state's taps into one source row and appends
    a zero.  gather, a read-only (K, D, M) index array, gathers each
    column's factor F from it, in registers._factor's column order,
    padded with the zero to D, the largest dimension, and to M columns.
    Column k has dimension dims[k], register registers[k] and index
    views[k], which takes its (B, d, d) view of a (B, K, D, D) stack and,
    without its last slice, its (B, d) view of the (B, K, D) spectra;
    blocks pairs each dimension, in the order of its first column, with
    the index of its columns, and is empty when the columns share one
    dimension; register is the circuit's final one.  The
    source row depends only on the circuit and N, so every read-out of
    one circuit and row count gathers from the same one.
    """

    segments: tuple
    gather: np.ndarray
    dims: tuple
    views: tuple
    blocks: tuple
    registers: tuple
    register: Register

    def taps(self, rows: np.ndarray) -> tuple:
        """Run the circuit on rows shaped (B, N, *in_dims).  Returns the
        rows its last segment leaves, a new array that the caller may
        take over (each circuit's last segment gathers), and the (B, S)
        source rows: each state's taps, then a zero."""
        b = len(rows)
        taps = [rows.reshape(b, -1)]
        for segment in self.segments:
            rows = _run_steps(segment, rows)
            taps.append(rows.reshape(b, -1))
        taps.append(np.zeros((b, 1), dtype=complex))
        return rows, np.concatenate(taps, axis=1)

    def gram(self, source: np.ndarray) -> np.ndarray:
        """The (B, K, D, D) stack of F F^H gathered from source rows,
        not validated."""
        f = source.take(self.gather, axis=1)
        return f @ f.conj().swapaxes(-1, -2)

    def products(self, rows: np.ndarray) -> tuple:
        """taps and gram in one: the rows the circuit's last segment
        leaves and the (B, K, D, D) stack of F F^H, not validated."""
        rows, source = self.taps(rows)
        return rows, self.gram(source)

    def columns(self, stack: np.ndarray) -> list:
        """Each column's (B, d, d) view of a (B, K, D, D) stack, in
        column order."""
        return [stack[at] for at in self.views]

    def check(self, stack: np.ndarray) -> np.ndarray:
        """check_densities' tests, unchanged, on a (B, K, D, D) stack:
        hermiticity and unit trace to ATOL, which zero pads pass, and no
        eigenvalue below PSD_FLOOR, one _eigvalsh per block.  Returns the
        (B, K, D) spectra, each column's ascending, then zeros.  If a row
        fails, the columns are checked alone in order and the first that
        fails raises as check_densities on it would, naming the row by its
        index within that column."""
        try:
            _check_hermitian_unit_trace(stack)
            # columns of one dimension need no zero pads in their spectra
            spectra = np.zeros(stack.shape[:-1]) if self.blocks \
                else _eigvalsh(stack)
            for d, ks in self.blocks:
                spectra[:, ks, :d] = _eigvalsh(stack[:, ks, :d, :d])
            _check_spectrum(stack, spectra)
        except InvariantViolationError:
            for column in self.columns(stack):
                check_densities(column)
            raise
        return spectra

    def densities(self, stack: np.ndarray, spectra: np.ndarray) -> list:
        """Freeze a checked stack and its spectra; returns each column's
        B DensityOperators, read-only views of its blocks and spectra."""
        stack.flags.writeable = spectra.flags.writeable = False
        # a loop, not a comprehension: on Python 3.11 a comprehension is
        # a function call, which a call on one state pays in full
        b, columns = len(stack), []
        for reg, at in zip(self.registers, self.views):
            columns.append(list(map(_validated, [reg] * b, stack[at],
                                    spectra[at[:3]])))
        return columns


@functools.lru_cache(maxsize=256)
def _readout(compile_circuit, key: tuple, n: int, names: tuple) -> _Readout:
    """The read-out of compile_circuit(*key) for states of n rows and the
    named columns, built once from the shapes of its taps."""
    circuit = compile_circuit(*key)
    rows = np.zeros((1, n) + circuit.in_dims, dtype=complex)
    shapes = [rows.shape]
    for segment in circuit.segments:
        rows = _run_steps(segment, rows)
        shapes.append(rows.shape)
    starts = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    factors, blocks = [], {}
    for k, name in enumerate(names):
        reg, tap, keep = circuit.columns[name]
        index = np.arange(starts[tap], starts[tap + 1]).reshape(shapes[tap])
        factors.append(_factor(index, keep)[0])
        blocks.setdefault(reg.dim, []).append(k)
    dims = tuple(len(f) for f in factors)
    gather = np.full((len(names), max(dims),
                      max(f.shape[1] for f in factors)), starts[-1])
    for k, f in enumerate(factors):
        gather[k, :f.shape[0], :f.shape[1]] = f
    gather.flags.writeable = False
    # one or two columns are evenly spaced: a slice, which takes a view;
    # columns of one dimension leave no block, the stack being its own
    blocks = tuple((d, slice(ks[0], ks[-1] + 1, ks[-1] - ks[0] or 1)
                    if len(ks) < 3 else tuple(ks))
                   for d, ks in blocks.items()) if len(blocks) > 1 else ()
    views = tuple((slice(None), k, slice(d), slice(d))
                  for k, d in enumerate(dims))
    return _Readout(circuit.segments, gather, dims, views, blocks,
                    tuple(circuit.columns[name][0] for name in names),
                    circuit.plan.register)


@dataclass
class CircuitReport:
    """States and entropies from one pass of the displaced-CNOT circuit."""

    input_state: DensityOperator
    rho_s: DensityOperator
    rho_d: DensityOperator
    rho_out: DensityOperator
    four_slot_state: State
    entropies: dict
    tau: int

    def to_json_dict(self) -> dict:
        return {
            "input": density_to_json(self.input_state),
            "rho_s": density_to_json(self.rho_s),
            "rho_d": density_to_json(self.rho_d),
            "rho_out": density_to_json(self.rho_out),
            "entropies": dict(self.entropies),
        }


_ENTROPY_KEYS = ("input", "rho_s", "rho_d", "rho_out")
_MIXED_COLUMNS = ("rho_s", "rho_d", "rho_out", "four")


def _fig1_reports(rows, tau: int, site: str = "1", inp=None,
                  weights=None) -> list:
    """One CircuitReport per state of rows, shaped (B, N, d), from one
    pass of the circuit's read-out; with weights, one report of the B
    states' densities mixed by them.

    inp is the input operator when the rows factor a DensityOperator,
    which was validated when built; its entropy comes from its stored
    spectrum, and its four-slot state is a density however few rows it
    factors into.  Otherwise each state is one pure row, which is its
    input, and keeps its four-slot state as amplitudes.  The read-out's
    one check validates every density the reports return, and one
    _entropy_bits call on its spectra gives every entropy.
    """
    names = _ENTROPY_KEYS if inp is None else _MIXED_COLUMNS
    ro = _readout(_fig1_circuit, (rows.shape[-1], tau, site), rows.shape[1],
                  names)
    closed, stack = ro.products(rows)
    if weights is not None:
        stack = _mix(weights, stack)
    spectra = ro.check(stack)
    columns = ro.densities(stack, spectra)
    if inp is None:
        fours = list(map(_pure_state, [ro.register] * len(closed),
                         closed.reshape(len(closed), -1)))
    else:
        fours = columns.pop()
        columns.insert(0, [inp])
        vals = np.zeros(spectra.shape)
        vals[0, 0, :inp.dim] = inp.eigenvalues
        vals[:, 1:] = spectra[:, :-1]
        spectra = vals
    entropies, reports = _entropy_bits(spectra).tolist(), []
    for b, (i, rho_s, rho_d, rho_out) in enumerate(zip(*columns)):
        reports.append(CircuitReport(i, rho_s, rho_d, rho_out, fours[b],
                                     dict(zip(_ENTROPY_KEYS, entropies[b])),
                                     tau))
    return reports


def run_fig1(state, tau: int = 1,
             policy=CorrelationMode.UNCORRELATED_COPIES) -> CircuitReport:
    """Run the displaced-CNOT circuit on one input qubit.

    The input, a PureState or DensityOperator on one slot (a
    channel.QubitDensity is one, on site "1"), is placed at cycle tau on
    its own site, entangled with a fresh ancilla by a CNOT, and its site
    is dilated by tau cycles.  The expansion then spans four slots;
    reading out at the preparation cycle gives rho_d, and the closing
    CNOT plus partial trace give the channel output on the ancilla.  A
    mixed input runs under `policy` (uncorrelated copies by default), and
    its four-slot state is a density.  Anything else raises ValueError.
    """
    tau = _check_tau(tau)
    site = _input_site(state)
    rows, weights = _bind(state, policy)
    inp = None if isinstance(state, PureState) else on_register(
        state, _fig1_circuit(rows.shape[-1], tau, site).columns["input"][0])
    return _fig1_reports(rows, tau, site, inp, weights)[0]


def grid_reports(grid: Sequence[float], tau: int, block_reports) -> list:
    """block_reports(amplitudes, tau) on the inputs
    sqrt(1 - b2)|0> + sqrt(b2)|1> of site "1" for every beta^2 on the
    grid, run in blocks of ROW_BLOCK rows; one report per point."""
    tau = _check_tau(tau)
    _, amps = grid_inputs(grid)
    reports = []
    for block in row_blocks(len(amps)):
        reports += block_reports(amps[block], tau)
    return reports


def run_sweep(grid: Sequence[float], tau: int = 1) -> list:
    """run_fig1 on the inputs sqrt(1 - b2)|0> + sqrt(b2)|1> of site "1" for
    every beta^2 on the grid, one CircuitReport per point; the grid runs
    through the circuit in blocks of ROW_BLOCK states."""
    return grid_reports(grid, tau,
                        lambda amps, t: _fig1_reports(amps[:, None], t))


@dataclass
class ReverseReport:
    """Outcome of undoing the displaced circuit gate by gate."""

    input_state: PureState
    recovered: DensityOperator
    recovered_slot: SlotId
    fidelity: float
    final_state: PureState
    tau: int


@functools.lru_cache(maxsize=64)
def _reversal(dim: int, tau: int, site: str) -> _Circuit:
    """The displaced-CNOT circuit and its reversal, compiled: after the
    closing CNOT the ancilla site is dilated by tau, which realigns it
    with both copies of the input site, and the CNOTs at cycles tau and 2
    tau are undone; the input comes back on (site, 2 tau).  The three
    CNOTs fuse into one gather.  Its taps are the input rows and the
    final rows, whose output slot is the recovered input."""
    anc = _ancilla(site)
    plan = _static_check(_displaced_cnot(dim, tau, site) + (
        Dilate(anc, tau), Cnot(site, anc, tau), Cnot(site, anc, 2 * tau),
        Output(site, 2 * tau)))
    return _Circuit(plan, (dim,), (plan.steps[1:],), MappingProxyType({
        "input": (Register(((site, tau),), (dim,)), 0, (0,)),
        "recovered": (plan.output_register, 1, plan.steps[-1].axes),
    }))


def reverse_reports(amplitudes, tau: int, site: str = "1") -> list:
    """One ReverseReport per row of an (N, d) stack of pure inputs on
    (site, tau), from one pass of the circuit and of its reversal."""
    tau = _check_tau(tau)
    v = np.asarray(amplitudes, dtype=complex)
    key = (v.shape[1], tau, site)
    ro = _readout(_reversal, key, 1, ("recovered",))
    final, stack = ro.products(v[:, None])
    (recovered,) = ro.densities(stack, ro.check(stack))
    fids = np.einsum("ni,nij,nj->n", v.conj(), stack[:, 0], v).real.tolist()
    in_reg = _reversal(*key).columns["input"][0]
    slot = ro.registers[0].slots[0]
    reports = []
    for b, rho in enumerate(recovered):
        reports.append(ReverseReport(
            PureState(in_reg, v[b]), rho, slot, fids[b],
            _pure_state(ro.register, final[b].reshape(-1)), tau))
    return reports


def run_reverse(state: PureState, tau: int = 1) -> ReverseReport:
    """Invert the displaced circuit and hand the input qubit back.

    After the forward pass the ancilla site is dilated by the same tau,
    which realigns it with both copies of the input site; undoing the
    CNOTs at both cycles then frees the input state on the forward copy,
    the input site at cycle 2 tau (see _reversal).  The whole history
    stays pure, so recovery is exact.
    """
    if not isinstance(state, PureState):
        raise ValueError("reversal is defined for pure inputs")
    site = _input_site(state)
    return reverse_reports(state.amplitudes[None], tau, site)[0]


# The site of the displaced box's ancilla, and so of its output.
_BOX_ANCILLA = "c"


@functools.lru_cache(maxsize=64)
def _box(reg: Register) -> _Circuit:
    """The displaced box compiled for a two-cycle input register.

    The input slots at the early and late cycle c0 < c1 become the
    placeholder sites "c_early" and "c_late", prepared in reg's order
    (the dsl keeps one dimension per site, and the two slots may differ),
    so neither collides with the ancilla site "c".  Each cycle gets a
    fresh ancilla and a CNOT, the early site is dilated by the gap and a
    last CNOT at c1 folds it onto the late ancilla, the output.  The
    three CNOTs fuse into one gather.  The circuit is compiled on cycles
    0 and c1 - c0, since the language has no negative cycle, and its
    output is labelled (c, c1).
    """
    c0, c1 = sorted(s.cycle for s in reg.slots)
    a, gap = _BOX_ANCILLA, c1 - c0
    early, late = a + "_early", a + "_late"
    inputs = tuple(_placeholder(late if s.cycle == c1 else early,
                                s.cycle - c0, d)
                   for s, d in zip(reg.slots, reg.dims))
    plan = _static_check(inputs + (
        Prepare(a, 0, "qubit", 1), Prepare(a, gap, "qubit", 1),
        Cnot(early, a, 0), Cnot(late, a, gap), Dilate(early, gap),
        Cnot(early, a, gap), Output(a, gap)))
    output = Register(((a, c1),), plan.output_register.dims)
    return _Circuit(plan, reg.dims, (plan.steps[2:],), MappingProxyType({
        "output": (output, 1, plan.steps[-1].axes)}))


def run_displaced_backend(state: State) -> DensityOperator:
    """Displaced-CNOT measurement box (_box, compiled once per input
    register) applied to one site at two cycles; returns the late ancilla,
    on site "c", which the input may not occupy.

    This is the back end a distant party can apply to their half of a
    shared state; it is linear in the two-cycle input, which is exactly
    why it cannot leak a remote measurement choice.  The input runs as
    the rows of its UNCORRELATED_COPIES binding (_bind).
    """
    if not isinstance(state, (PureState, DensityOperator)):
        raise ValueError(f"unsupported circuit input: {type(state).__name__}")
    reg = state.register
    if len(reg.slots) != 2 or len(reg.sites) != 1:
        raise ValueError(
            f"expected two slots on one site, got {list(reg.slots)}"
        )
    if reg.sites[0] == _BOX_ANCILLA:
        raise ValueError("ancilla site must differ from the data site")
    rows, _ = _bind(state, CorrelationMode.UNCORRELATED_COPIES)
    ro = _readout(_box, (reg,), rows.shape[1], ("output",))
    _, stack = ro.products(rows)
    return ro.densities(stack, ro.check(stack))[0][0]


@dataclass
class NoSignalReport:
    """Bob-side outputs for each of Alice's outcomes in one basis."""

    basis: str
    outcomes: list
    average: DensityOperator
    max_deviation: float
    substitution_output: DensityOperator
    substitution_deviation: float
    tau: int

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "outcomes": [
                {"label": label, "probability": prob,
                 "output": density_to_json(rho)}
                for label, prob, rho in self.outcomes
            ],
            "average": density_to_json(self.average),
            "max_deviation": self.max_deviation,
            "substitution_deviation": self.substitution_deviation,
        }


_BASES = {
    "computational": (("0", (1.0, 0.0)), ("1", (0.0, 1.0))),
    "diagonal": (("+", (1.0, 1.0)), ("-", (1.0, -1.0))),
}


def run_no_signaling(basis: str, tau: int = 1) -> NoSignalReport:
    """Alice measures her half of a shared pair; Bob runs the displaced
    box on his two-cycle half.

    For each of Alice's outcomes Bob's output is computed exactly, along
    with its trace-norm deviation from the maximally mixed state.  The
    report also evaluates the box on the uncorrelated stand-in (Bob's
    reduced state copied independently to both cycles), which a nonlinear
    box would have to distinguish for signaling to work.

    The shared state is the pair copied to cycles 0 and tau.  Bob's
    inputs are read straight off its amplitudes, with Alice's two slots
    as the row axis: once after projecting her slot at tau onto each
    outcome, and once as they are, which leaves Bob rho_b (x) rho_b.  The
    three run through the box as one stack of states.
    """
    if basis not in _BASES:
        raise ValueError(
            f"basis must be one of {sorted(_BASES)}, got {basis!r}"
        )
    tau = _check_tau(tau)

    pair = bell_phi_plus("a", "b", tau).amplitudes.reshape(2, 2)
    # axes (a@0, a@tau, b@0, b@tau)
    shared = np.einsum("ij,kl->ikjl", pair, pair)
    chis = np.array([vec for _, vec in _BASES[basis]], dtype=complex)
    chis /= np.linalg.norm(chis, axis=1, keepdims=True)
    measured = np.einsum("oa,ob,ibjl->oiajl", chis, chis.conj(), shared)
    probs = (abs(measured) ** 2).sum(axis=(1, 2, 3, 4))
    rows = np.concatenate([measured / np.sqrt(probs)[:, None, None, None,
                                                        None],
                           shared[None]]).reshape(3, 4, 2, 2)
    reg = Register((SlotId("b", 0), SlotId("b", tau)), (2, 2))
    ro = _readout(_box, (reg,), 4, ("output",))
    _, stack = ro.products(rows)
    # Bob's output for each outcome, their average and the substitution
    # output (the last row): one check for the four
    stack = np.concatenate([stack[:-1], _mix(probs, stack[:-1]), stack[-1:]])
    (outs,) = ro.densities(stack, ro.check(stack))
    outcomes = [(label, p, out) for (label, _), p, out
                in zip(_BASES[basis], probs.tolist(), outs)]
    devs = _trace_norms(stack[:, 0] - np.eye(2) / 2.0)
    return NoSignalReport(basis, outcomes, outs[-2], float(devs[:-1].max()),
                          outs[-1], float(devs[-1]), tau)


@dataclass
class ProprietyReport:
    """Same average state, different ensembles, different channel outputs."""

    ensemble: list
    proper_output: DensityOperator
    improper_output: DensityOperator
    trace_distance: float
    tau: int


def run_proper_vs_improper(ensemble: Optional[Sequence] = None,
                           tau: int = 1) -> ProprietyReport:
    """Compare running the circuit branch by branch against running it on
    the averaged density matrix.

    The ensemble is checked by registers._checked_ensemble, and its
    branches must be single-slot.  The branch-by-branch (proper) path is
    its COHERENT_HISTORY binding (_bind), the averaged (improper) path
    its UNCORRELATED_COPIES binding; both run in one pass of the circuit.
    A linear channel could never tell the two apart, so any gap is a
    direct readout of the channel's nonlinearity.
    """
    tau = _check_tau(tau)
    if ensemble is None:
        ensemble = [(0.5, qubit_state("1", tau, 1.0, 0.0)),
                    (0.5, qubit_state("1", tau, 0.0, 1.0))]
    branches = _checked_ensemble(ensemble)
    reg = branches[0][1].register
    if len(reg.slots) != 1:
        raise ValueError("ensemble branches must be single-slot pure states")
    key = (reg.dim, tau, reg.slots[0].site)
    proper_rows, weights = _bind(branches, CorrelationMode.COHERENT_HISTORY)
    improper_rows, _ = _bind(branches, CorrelationMode.UNCORRELATED_COPIES)
    # one stack of states of one row count: a branch's other rows are zero
    k = len(proper_rows)
    rows = np.zeros((k + 1,) + improper_rows.shape[1:], dtype=complex)
    rows[:k, :1], rows[k:] = proper_rows, improper_rows
    ro = _readout(_fig1_circuit, key, rows.shape[1], ("rho_out",))
    _, stack = ro.products(rows)
    # one check for the two qubit outputs, and nothing else
    stack = np.concatenate([_mix(weights, stack[:k]), stack[k:]])
    (outs,) = ro.densities(stack, ro.check(stack))
    distance = _trace_norms((outs[0].matrix - outs[1].matrix)[None])[0]
    return ProprietyReport(branches, outs[0], outs[1], float(distance), tau)


@dataclass(frozen=True, init=False)
class CurvePoint:
    """One abscissa of a parameter sweep plus its named curve values."""

    beta_sq: float
    values: dict

    def __init__(self, beta_sq: float, values: dict):
        # frozen: the fields are written once, past __setattr__
        self.__dict__["beta_sq"], self.__dict__["values"] = beta_sq, values


@dataclass
class EntropyStudyReport:
    """Entropy bookkeeping for a vacuum-diluted input sweep."""

    p_vac: float
    tau: int
    points: list
    drop_points: list = field(default_factory=list)


def run_entropy_study(p_vac: float, grid: Sequence[float],
                      tau: int = 1) -> EntropyStudyReport:
    """Sweep the input amplitude with a vacuum admixture and track entropy.

    The input site carries a three-level slot: with probability p_vac it
    holds the vacuum, which passes through every gate untouched, and
    otherwise the qubit alpha|0> + beta|1>.  The branches stay coherent
    through the expansion (each history is copied whole), so rho_d is the
    branch-weighted mixture of per-branch marginal products.

    For every grid point the readout entropy S_rho_d must dominate the
    input entropy S_in; the closing gate can then push the output entropy
    S_out back below S_rho_d.  Points where S_out drops strictly below
    S_rho_d are collected in drop_points.

    Only the branch mixture is validated, one density at a time in
    report order; each of the three (3 x 3, 6 x 6 and 2 x 2) has its own
    unpadded read-out of one pass of the circuit.
    """
    p_vac = _real(p_vac, "the vacuum weight")
    if not 0.0 <= p_vac <= 1.0:
        raise ValueError(f"vacuum weight out of range: {p_vac}")
    tau = _check_tau(tau)
    b2, qubits = grid_inputs(grid, dim=3)

    names = ("input", "rho_d", "rho_out")
    readouts = [_readout(_fig1_circuit, (3, tau, "1"), 1, (name,))
                for name in names]
    width = max(ro.dims[0] for ro in readouts)
    vacuum = np.array([[1.0, 0.0, 0.0]])
    entropies = np.empty((len(b2), len(names)))
    for block in row_blocks(len(b2)):
        # row 0 is the vacuum branch, the same at every grid point
        _, source = readouts[0].taps(
            np.concatenate([vacuum, qubits[block]])[:, None])
        # zeros pad the spectra and change no bit of an entropy
        spectra = np.zeros((len(source) - 1, len(names), width))
        for k, ro in enumerate(readouts):
            stack = ro.gram(source)
            mixed = stack[1:]
            mixed *= 1.0 - p_vac
            mixed += p_vac * stack[:1]
            spectra[:, k, :ro.dims[0]] = ro.check(mixed)[:, 0]
        entropies[block] = _entropy_bits(spectra)
        s_in, s_d, _ = entropies[block].T
        below = s_in > s_d + ENTROPY_SLACK
        if below.any():
            i = int(np.argmax(below))
            raise InvariantViolationError(
                f"readout entropy {s_d[i]:.12g} fell below input entropy "
                f"{s_in[i]:.12g} at beta^2={b2[block][i]:.12g}"
            )
    _, s_d, s_out = entropies.T
    points = [CurvePoint(b, {"S_in": si, "S_rho_d": sd, "S_out": so})
              for b, (si, sd, so) in zip(b2.tolist(), entropies.tolist())]
    return EntropyStudyReport(p_vac, tau, points,
                              b2[s_out < s_d - ATOL].tolist())


def dilation_from_round_trip(duration: float, speed_fraction: float) -> float:
    """Clock lag accumulated by a round trip at constant speed.

    A traveler moving at v (as a fraction of c) for a stay-at-home
    duration T returns younger by T (1 - sqrt(1 - v^2)); that lag, in the
    same units as T, is the dilation to feed the cycle model after
    rounding to whole cycles.  It is computed as T v^2 / (1 + sqrt(1 - v^2)),
    the same function, which keeps its relative precision as v goes to
    zero, where 1 - sqrt(1 - v^2) cancels.
    """
    duration = _real(duration, "the duration")
    v = _real(speed_fraction, "the speed fraction")
    if not 0.0 <= duration < math.inf:
        raise ValueError(
            f"duration must be finite and nonnegative, got {duration}"
        )
    if not 0.0 <= v < 1.0:
        raise ValueError(f"speed fraction must sit in [0, 1), got {v}")
    return duration * v * v / (1.0 + math.sqrt(1.0 - v * v))
