"""End-to-end register-level experiments.

Every scenario here is built from the same primitive moves: prepare a pair
at one cycle, dilate one site so the pair straddles cycles, expand into the
two-copy form, and either read out at a single cycle or close the circuit
with a second gate.  The displaced-CNOT circuit is laid out once per input
dimension, dilation and site (circuit_plan), with each CNOT an index
permutation, and runs on stacks of pure or density rows.  The runners
return report objects carrying the exact intermediate states so tests and
the command line can interrogate any step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvariantViolationError
from .registers import (
    DensityOperator,
    PureState,
    Register,
    SlotId,
    State,
    _trace_amplitudes,
    _trace_matrices,
    bell_phi_plus,
    check_columns,
    density_columns,
    density_rows,
    density_to_json,
    on_register,
    partial_trace,
    per_dimension,
    qubit_state,
    to_density,
)
from .dynamics import (
    CorrelationMode,
    _as_mode,
    _gate_block,
    _gather_axes,
    _monomial,
    _spectral_rows,
    cnot,
    displaced_copies,
    ensemble_density,
    free_expansion,
    project,
    renormalized,
)
from .analytics import (
    CurvePoint,
    _entropy_bits,
    _trace_norms,
    trace_norm_distance,
)
from .channel import QubitDensity

# Rows run through the circuit at once when a grid is swept, so that the
# arrays held at one time do not grow with the grid.
ROW_BLOCK = 256


def _normalize_input(state, tau: int, site: Optional[str]) -> State:
    """Pin the input onto a single slot at the preparation cycle tau."""
    if isinstance(state, QubitDensity):
        return state.to_density(site or "1", tau)
    if isinstance(state, (PureState, DensityOperator)):
        reg = state.register
        if len(reg.slots) != 1:
            raise ValueError("circuit input must occupy a single slot")
        plan = circuit_plan(reg.dims[0], tau, site or reg.slots[0].site)
        return on_register(state, plan.input_register)
    raise ValueError(f"unsupported circuit input: {type(state).__name__}")


def _check_tau(tau) -> int:
    """tau as an int; a dilation is a whole number of cycles, at least
    one, so anything else raises ValueError."""
    try:
        cycles = int(tau)
    except (TypeError, ValueError, OverflowError):
        cycles = None
    if cycles is None or cycles != tau:
        raise ValueError(
            f"dilation must be a whole number of cycles, got {tau!r}"
        )
    if cycles < 1:
        raise ValueError(f"dilation must be at least one cycle, got {cycles}")
    return cycles


def _slots(site: str, tau: int) -> tuple:
    """The input slot and its ancilla's slot at the preparation cycle."""
    anc = "2" if site != "2" else "anc"
    return SlotId(site, tau), SlotId(anc, tau)


def _outer(rows: np.ndarray) -> np.ndarray:
    """|psi><psi| of each row of an (N, d) amplitude stack."""
    return rows[:, :, None] * rows[:, None, :].conj()


def _density(rows: np.ndarray) -> np.ndarray:
    """An (N, d, d) density stack as it is, an (N, d) amplitude stack as
    its rank-one densities."""
    return rows if rows.ndim == 3 else _outer(rows)


def _mix(weights, stack: np.ndarray) -> np.ndarray:
    """Weighted sum over the leading row axis, as a one-row stack."""
    n = len(stack)
    mixed = np.asarray(weights, dtype=float) @ stack.reshape(n, -1)
    return mixed.reshape((1,) + stack.shape[1:])


def row_blocks(n: int):
    """Slices of at most ROW_BLOCK rows covering range(n)."""
    for start in range(0, n, ROW_BLOCK):
        yield slice(start, min(start + ROW_BLOCK, n))


def grid_inputs(grid, dim: int = 2) -> tuple:
    """beta^2 values and the input rows sqrt(1 - b2)|0> + sqrt(b2)|1>.

    Returns (b2, amplitudes): an (N,) float array and an (N, dim) stack
    of normalized rows; with dim 3 the vacuum amplitude is zero.  A value
    outside [0, 1] raises ValueError.
    """
    b2 = np.array([float(b) for b in grid])
    bad = ~((b2 >= 0.0) & (b2 <= 1.0))
    if bad.any():
        raise ValueError(f"beta^2 out of range: {b2[bad][0]}")
    amps = np.zeros((len(b2), dim), dtype=complex)
    amps[:, dim - 2] = np.sqrt(1.0 - b2)
    amps[:, dim - 1] = np.sqrt(b2)
    return b2, amps / np.linalg.norm(amps, axis=1, keepdims=True)


def _cnot_permutation(reg: Register, targets) -> np.ndarray:
    """A CNOT on the target slots of reg as a flat index permutation p: it
    maps amplitudes psi to psi[p] and a density matrix m to m[p[:, None], p].

    p is read off the lifted gate block of dynamics._gate_block by
    dynamics._monomial, which the circuit compiler shares: the block must
    be exactly a 0/1 permutation matrix (InvariantViolationError
    otherwise).
    """
    block, axes = _gate_block(reg, cnot(), targets)
    q, _ = _monomial(block, permutation=True)
    index = np.arange(reg.dim).reshape(reg.dims)
    perm = _gather_axes(index, q, axes).reshape(-1)
    perm.flags.writeable = False
    return perm


def _gather(rows: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The gates of the index permutation perm applied to each row of an
    (N, d) amplitude or (N, d, d) density stack."""
    if rows.ndim == 2:
        return rows.take(perm, axis=1)
    return rows.take(perm, axis=1).take(perm, axis=2)


def _embed_gather(rows: np.ndarray, anc_dim: int,
                  perm: np.ndarray) -> np.ndarray:
    """Each row of an (N, d) amplitude or (N, d, d) density stack with
    ancillas of anc_dim levels in all appended in their first level, then
    the gates of the index permutation perm applied."""
    n, d = rows.shape[:2]
    if rows.ndim == 2:
        out = np.zeros((n, d, anc_dim), dtype=complex)
        out[:, :, 0] = rows
        return _gather(out.reshape(n, -1), perm)
    out = np.zeros((n, d, anc_dim, d, anc_dim), dtype=complex)
    out[:, :, 0, :, 0] = rows
    return _gather(out.reshape(n, d * anc_dim, d * anc_dim), perm)


@dataclass(frozen=True, eq=False)
class CircuitPlan:
    """The displaced-CNOT circuit laid out for one input dimension,
    dilation tau and input site.

    The input sits on (site, tau) and its ancilla on the slot _slots
    names; the four-slot register is the pair's two displaced copies
    (dynamics.displaced_copies).  rho_d keeps the four-slot positions
    read_pos (the slots at cycle tau) and rho_out the position out_pos
    (the ancilla at tau).  Each CNOT is a flat index permutation of its
    register (see _cnot_permutation): pair_cnot opens the pair and
    four_cnot closes the circuit.
    """

    tau: int
    input_register: Register
    pair_register: Register
    four_register: Register
    readout_register: Register
    output_register: Register
    read_pos: tuple
    out_pos: tuple
    pair_cnot: np.ndarray
    four_cnot: np.ndarray


@functools.lru_cache(maxsize=64)
def circuit_plan(dim: int, tau: int, site: str) -> CircuitPlan:
    """The CircuitPlan of a dim-level input on `site`, dilated by tau;
    built once per (dim, tau, site) and shared."""
    in_slot, anc_slot = _slots(site, tau)
    targets = (in_slot, anc_slot)
    pair_reg = Register(targets, (dim, 2))
    reg_a, reg_b = displaced_copies(pair_reg, tau, site)
    four_reg = Register(reg_a.slots + reg_b.slots, reg_a.dims + reg_b.dims)
    read_pos = tuple(i for i, s in enumerate(four_reg.slots)
                     if s.cycle == tau)
    return CircuitPlan(
        tau=tau,
        input_register=Register((in_slot,), (dim,)),
        pair_register=pair_reg,
        four_register=four_reg,
        readout_register=Register(tuple(four_reg.slots[p] for p in read_pos),
                                  tuple(four_reg.dims[p] for p in read_pos)),
        output_register=Register((anc_slot,), (2,)),
        read_pos=read_pos,
        out_pos=(four_reg.index_of(anc_slot),),
        pair_cnot=_cnot_permutation(pair_reg, targets),
        four_cnot=_cnot_permutation(four_reg, targets),
    )


@dataclass
class CircuitRows:
    """The displaced-CNOT circuit run on a stack of N inputs.

    Every row shares `plan`; each array has a leading row axis.  The
    inputs, the pair rho_s comes from and the four-slot state after the
    closing CNOT are (N, d) amplitude rows for pure inputs and (N, d, d)
    density rows for mixed ones; rho_d and rho_out are always densities.
    """

    plan: CircuitPlan
    inputs: np.ndarray
    pair: np.ndarray
    four: np.ndarray
    rho_d: np.ndarray
    rho_out: np.ndarray

    def densities(self) -> dict:
        """The input, rho_s, rho_d and rho_out density matrix of every
        row, as (N, d, d) stacks by name, checked together by
        check_columns: one pass per dimension."""
        out = {"input": _density(self.inputs), "rho_s": _density(self.pair),
               "rho_d": self.rho_d, "rho_out": self.rho_out}
        check_columns(list(out.values()))
        return out


def displaced_cnot_rows(amplitudes, tau: int, site: str = "1") -> CircuitRows:
    """Run the displaced-CNOT circuit on a stack of pure single-slot inputs.

    amplitudes is (N, d) with d = 2 or 3, each row a normalized input on
    the slot (site, tau).  Every row gets a fresh ancilla in |0> and a
    CNOT; the site is then dilated by tau, the pair expanded into its two
    copies (dynamics.displaced_copies), read out at cycle tau for rho_d,
    and closed by a second CNOT whose ancilla slot is traced out for
    rho_out.  The layout comes from circuit_plan, the CNOTs are index
    gathers, and all of it runs as array operations over the row axis.
    """
    tau = _check_tau(tau)
    amps = np.asarray(amplitudes, dtype=complex)
    n, dim = amps.shape
    plan = circuit_plan(dim, tau, site)
    pair = _embed_gather(amps, 2, plan.pair_cnot)
    four = (pair[:, :, None] * pair[:, None, :]).reshape(n, -1)
    dims = plan.four_register.dims
    rho_d = _trace_amplitudes(four, dims, plan.read_pos)
    four = _gather(four, plan.four_cnot)
    rho_out = _trace_amplitudes(four, dims, plan.out_pos)
    return CircuitRows(plan, amps, pair, four, rho_d, rho_out)


def displaced_cnot_density_rows(matrices, tau: int,
                                site: str = "1") -> CircuitRows:
    """Run the displaced-CNOT circuit on a stack of mixed single-slot
    inputs, expanded as uncorrelated copies.

    matrices is (N, d, d) with d = 2 or 3, each row a density matrix on
    the slot (site, tau).  Row by row: pair = CNOT (rho x |0><0|) CNOT^H,
    the four-slot state is pair x pair (CorrelationMode.UNCORRELATED_COPIES
    on the layout of circuit_plan), rho_d its readout at cycle tau, and
    rho_out the ancilla after the closing CNOT.
    """
    tau = _check_tau(tau)
    m = np.asarray(matrices, dtype=complex)
    n, dim = m.shape[:2]
    plan = circuit_plan(dim, tau, site)
    pair = _embed_gather(m, 2, plan.pair_cnot)
    d4 = plan.four_register.dim
    four = (pair[:, :, None, :, None] * pair[:, None, :, None, :])
    four = four.reshape(n, d4, d4)
    dims = plan.four_register.dims
    rho_d = _trace_matrices(four, dims, plan.read_pos)
    four = _gather(four, plan.four_cnot)
    rho_out = _trace_matrices(four, dims, plan.out_pos)
    return CircuitRows(plan, m, pair, four, rho_d, rho_out)


def _psd_part(rho: DensityOperator) -> np.ndarray:
    """rho's matrix, projected onto the positive semidefinite cone when
    its stored spectrum has a negative eigenvalue.

    Validation lets eigenvalues down to -1e-10 through as roundoff; copied
    into rho (x) rho their cross terms can push a traced output below
    that floor.  The projection sets them to zero and renormalizes the
    rest, the treatment spectral_ensemble gives COHERENT_HISTORY inputs.
    A spectrum with no negative entry leaves the matrix untouched.
    """
    if rho.eigenvalues[0] >= 0.0:
        return rho.matrix
    vals, vecs = np.linalg.eigh(rho.matrix)
    vals = np.clip(vals, 0.0, None)
    return (vecs * (vals / vals.sum())) @ vecs.conj().T


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


def _reports(rows: CircuitRows, inputs=None) -> list:
    """One CircuitReport per row.

    Every density the rows return (input, rho_s, rho_d, rho_out and a
    mixed four-slot state) is validated here, in one density_columns
    pass over all of them: one check and one eigvalsh per dimension.
    The entropies come from the spectra that check computed, one
    _entropy_bits call per dimension.  `inputs` are the input operators
    when the rows ran on DensityOperators, which were validated when
    built; their entropies come from their stored spectra.
    """
    plan = rows.plan
    columns = [(plan.pair_register, _density(rows.pair)),
               (plan.readout_register, rows.rho_d),
               (plan.output_register, rows.rho_out)]
    if inputs is None:
        columns.insert(0, (plan.input_register, _outer(rows.inputs)))
    if rows.four.ndim == 3:
        columns.append((plan.four_register, rows.four))
    checked = density_columns(columns)
    if inputs is None:
        inputs, in_vals = checked.pop(0)
    else:
        in_vals = np.array([rho.eigenvalues for rho in inputs])
    (pairs, s_vals), (reads, d_vals), (outs, out_vals) = checked[:3]
    if rows.four.ndim == 2:
        fours = [PureState(plan.four_register, f) for f in rows.four]
    else:
        fours = checked[3][0]
    entropies = zip(*(s.tolist() for s in per_dimension(
        _entropy_bits, [in_vals, s_vals, d_vals, out_vals])))
    return [
        CircuitReport(inp, rho_s, rho_d, rho_out, four,
                      dict(zip(_ENTROPY_KEYS, ent)), plan.tau)
        for inp, rho_s, rho_d, rho_out, four, ent
        in zip(inputs, pairs, reads, outs, fours, entropies)
    ]


def run_fig1(state, tau: int = 1, input_site: Optional[str] = None,
             policy=CorrelationMode.UNCORRELATED_COPIES) -> CircuitReport:
    """Run the displaced-CNOT circuit on one input qubit.

    The input is placed at cycle tau, entangled with a fresh ancilla by a
    CNOT, and its site is dilated by tau cycles.  The expansion then spans
    four slots; reading out at the preparation cycle gives rho_d, and the
    closing CNOT plus partial trace give the channel output on the ancilla.

    Every input runs as one row of the compiled circuit (circuit_plan).
    Pure inputs never consult the policy.  Mixed inputs are expanded per
    `policy`, uncorrelated copies by default: the input is one density
    row (displaced_cnot_density_rows), projected onto the positive
    semidefinite cone first if its spectrum dips below zero, and the
    four-slot state is a density.  Under COHERENT_HISTORY the input's
    spectral branches run through the circuit as pure rows and are mixed
    afterwards.  A mixed input with no correlation mode raises ValueError.
    """
    tau = _check_tau(tau)
    inp = _normalize_input(state, tau, input_site)
    site = inp.register.slots[0].site
    if isinstance(inp, PureState):
        return _fig1_reports(inp.amplitudes[None], tau, site)[0]
    mode = _as_mode(policy)
    if mode is None:
        raise ValueError(
            "expanding a mixed state needs an explicit correlation mode"
        )
    if mode is CorrelationMode.UNCORRELATED_COPIES:
        rows = displaced_cnot_density_rows(_psd_part(inp)[None], tau, site)
        return _reports(rows, inputs=[inp])[0]
    weights, vectors = _spectral_rows(inp.matrix)
    rows = displaced_cnot_rows(vectors, tau, site)
    mixed = CircuitRows(rows.plan, inp.matrix[None],
                        _mix(weights, _outer(rows.pair)),
                        _mix(weights, _outer(rows.four)),
                        _mix(weights, rows.rho_d), _mix(weights, rows.rho_out))
    return _reports(mixed, inputs=[inp])[0]


def _fig1_reports(amplitudes, tau: int, site: str = "1") -> list:
    """One CircuitReport per row of an (N, d) stack of pure inputs on
    (site, tau), from one pass of the circuit."""
    return _reports(displaced_cnot_rows(amplitudes, tau, site))


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
    through the circuit in blocks of ROW_BLOCK rows."""
    return grid_reports(grid, tau, _fig1_reports)


@dataclass
class ReverseReport:
    """Outcome of undoing the displaced circuit gate by gate."""

    input_state: PureState
    recovered: DensityOperator
    recovered_slot: SlotId
    fidelity: float
    final_state: PureState
    tau: int


@dataclass(frozen=True, eq=False)
class _ReversePlan:
    """The reversal of the circuit of circuit_plan(dim, tau, site).

    register is the four-slot register with the ancilla site dilated by
    tau, undo the reversal's two CNOTs composed into one index
    permutation of it, and recovered_pos the position of the recovered
    input, the only slot of recovered_register.
    """

    register: Register
    undo: np.ndarray
    recovered_register: Register
    recovered_pos: tuple


@functools.lru_cache(maxsize=64)
def _reverse_plan(dim: int, tau: int, site: str) -> _ReversePlan:
    """Dilating the ancilla site by tau realigns it with both copies of
    the input site; the CNOT at cycle tau, then the one at 2 tau, compose
    into one gather."""
    four_reg = circuit_plan(dim, tau, site).four_register
    in_slot, anc_slot = _slots(site, tau)
    anc = anc_slot.site
    reg = Register(tuple(s.shifted(tau) if s.site == anc else s
                         for s in four_reg.slots), four_reg.dims)
    late = (SlotId(site, 2 * tau), SlotId(anc, 2 * tau))
    undo = _cnot_permutation(reg, (in_slot, anc_slot))[
        _cnot_permutation(reg, late)]
    return _ReversePlan(reg, undo, Register((late[0],), (dim,)),
                        (reg.index_of(late[0]),))


def reverse_reports(amplitudes, tau: int, site: str = "1") -> list:
    """One ReverseReport per row of an (N, d) stack of pure inputs on
    (site, tau), from one pass of the circuit and of its reversal."""
    rows = displaced_cnot_rows(amplitudes, tau, site)
    plan = rows.plan
    rev = _reverse_plan(rows.inputs.shape[1], plan.tau, site)
    undone = _gather(rows.four, rev.undo)
    recovered = _trace_amplitudes(undone, rev.register.dims,
                                  rev.recovered_pos)
    v = rows.inputs
    fids = np.einsum("ni,nij,nj->n", v.conj(), recovered, v).real
    slot = rev.recovered_register.slots[0]
    return [
        ReverseReport(PureState(plan.input_register, psi), rho, slot,
                      float(fid), PureState(rev.register, final),
                      plan.tau)
        for psi, rho, fid, final in zip(
            v, density_rows(rev.recovered_register, recovered), fids,
            undone)
    ]


def run_reverse(state: PureState, tau: int = 1,
                input_site: Optional[str] = None) -> ReverseReport:
    """Invert the displaced circuit and hand the input qubit back.

    After the forward pass the ancilla site is dilated by the same tau,
    which realigns it with both copies of the input site; undoing the
    CNOTs at both cycles then frees the input state on the forward copy,
    the input site at cycle 2 tau.  The whole history stays pure, so
    recovery is exact.  The input runs as one pure row of the compiled
    circuit (circuit_plan); the dilation is a relabeling of its four-slot
    register and the two CNOTs are one index gather (_reverse_plan).
    """
    if not isinstance(state, PureState):
        raise ValueError("reversal is defined for pure inputs")
    tau = _check_tau(tau)
    inp = _normalize_input(state, tau, input_site)
    return reverse_reports(inp.amplitudes[None], tau,
                            inp.register.slots[0].site)[0]


@dataclass(frozen=True, eq=False)
class _BoxPlan:
    """The displaced box laid out for one input register: the register
    dims with the two ancillas appended, the box's three CNOTs composed
    into one index permutation, and the position and register of the
    returned late ancilla."""

    dims: tuple
    cnots: np.ndarray
    out_pos: tuple
    output_register: Register


@functools.lru_cache(maxsize=64)
def _box_plan(reg: Register, data_site: str, ancilla_site: str) -> _BoxPlan:
    c0, c1 = sorted(s.cycle for s in reg.slots)
    early, late = SlotId(ancilla_site, c0), SlotId(ancilla_site, c1)
    work = Register(reg.slots + (early, late), reg.dims + (2, 2))
    opened = _cnot_permutation(work, (SlotId(data_site, c0), early))[
        _cnot_permutation(work, (SlotId(data_site, c1), late))]
    # dilating the data site by c1 - c0 moves its early slot to cycle c1
    dilated = Register(tuple(s.shifted(c1 - c0) if s.site == data_site
                             else s for s in work.slots), work.dims)
    folded = opened[_cnot_permutation(dilated, (SlotId(data_site, c1), late))]
    return _BoxPlan(work.dims, folded, (len(work.slots) - 1,),
                    Register((late,), (2,)))


def _box_rows(plan: _BoxPlan, matrices: np.ndarray) -> np.ndarray:
    """The box's output for each row of an (N, d, d) stack of inputs."""
    work = _embed_gather(matrices, 4, plan.cnots)
    return _trace_matrices(work, plan.dims, plan.out_pos)


def run_displaced_backend(state: State, data_site: str,
                          ancilla_site: str = "c") -> DensityOperator:
    """Displaced-CNOT measurement box applied to a two-cycle single site.

    The input occupies one site at two cycles.  Each cycle gets its own
    fresh ancilla and CNOT, the data site is then dilated by the cycle
    gap, and a final CNOT at the later cycle folds the early copy onto
    the late ancilla, which is returned.

    This is the back end a distant party can apply to their half of a
    shared state; it is linear in the two-cycle input, which is exactly
    why it cannot leak a remote measurement choice.  The input runs as one
    density row; the box's layout and its three CNOTs, composed into one
    index gather, are built once per input register.
    """
    reg = state.register
    if len(reg.slots) != 2 or set(reg.sites) != {data_site}:
        raise ValueError(
            f"expected two slots on site {data_site!r}, got {list(reg.slots)}"
        )
    if ancilla_site == data_site:
        raise ValueError("ancilla site must differ from the data site")
    plan = _box_plan(reg, data_site, ancilla_site)
    rho = _outer(state.amplitudes[None]) if isinstance(state, PureState) \
        else state.matrix[None]
    return density_rows(plan.output_register, _box_rows(plan, rho))[0]


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
    """
    if basis not in _BASES:
        raise ValueError(
            f"basis must be one of {sorted(_BASES)}, got {basis!r}"
        )
    tau = _check_tau(tau)

    pair = bell_phi_plus("a", "b", tau)
    shared = free_expansion(pair, [0, tau])
    bob = (SlotId("b", 0), SlotId("b", tau))
    measured = [project(shared, SlotId("a", tau), vec, label=label)
                for label, vec in _BASES[basis]]
    # Bob's state for each outcome, then the substitution input: his
    # reduced state copied independently to both cycles
    rb = partial_trace(to_density(pair), [bob[1]]).matrix
    inputs = [partial_trace(m.post_state, bob).matrix for m in measured]
    inputs.append(np.kron(rb, rb))
    plan = _box_plan(Register(bob, (2, 2)), "b", "c")
    out_reg = plan.output_register
    stack = _box_rows(plan, np.array(inputs))
    avg = sum(m.probability * out for m, out in zip(measured, stack))
    mixed_ref = np.eye(2) / 2.0
    # Bob's outputs, their average and the I/2 reference are all qubits:
    # one check for the three columns
    (outs, _), ((avg,), _), _ = density_columns(
        [(out_reg, stack), (out_reg, avg[None]), (out_reg, mixed_ref[None])])
    outcomes = [(m.label, m.probability, out)
                for m, out in zip(measured, outs)]
    # deviations of each outcome's output, the average and the
    # substitution output (the last row) from I/2
    devs = _trace_norms(np.concatenate([stack[:-1], avg.matrix[None],
                                        stack[-1:]]) - mixed_ref)
    return NoSignalReport(basis, outcomes, avg, float(devs[:-1].max()),
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

    The branch-by-branch (proper) path copies each pure branch through the
    expansion; the averaged (improper) path expands the density matrix as
    uncorrelated copies.  A linear channel could never tell the two
    apart, so any gap is a direct readout of the channel's nonlinearity.
    """
    tau = _check_tau(tau)
    if ensemble is None:
        ensemble = [(0.5, qubit_state("1", tau, 1.0, 0.0)),
                    (0.5, qubit_state("1", tau, 0.0, 1.0))]
    branches = []
    for w, psi in ensemble:
        if not isinstance(psi, PureState) or len(psi.register.slots) != 1:
            raise ValueError("ensemble branches must be single-slot pure states")
        w = float(w)
        if not (math.isfinite(w) and w >= 0.0):
            raise ValueError(
                f"ensemble weight {w!r} of branch {len(branches)} is not a "
                f"finite nonnegative number"
            )
        branches.append((w, psi))
    if not branches:
        raise ValueError("empty ensemble")
    if abs(sum(w for w, _ in branches) - 1.0) > 1e-9:
        raise ValueError("ensemble weights must sum to 1")
    sites = {psi.register.slots[0].site for _, psi in branches}
    if len(sites) != 1:
        raise ValueError("ensemble branches must share one site")
    if len({psi.register.dims for _, psi in branches}) != 1:
        raise ValueError("ensemble branches must share one slot dimension")

    site = sites.pop()
    pinned = [(w, _normalize_input(psi, tau, None))
              for w, psi in renormalized(branches)]
    weights = [w for w, _ in pinned]
    rows = displaced_cnot_rows([psi.amplitudes for _, psi in pinned], tau,
                               site)
    out_reg = rows.plan.output_register
    proper = _mix(weights, rows.densities()["rho_out"])

    avg_in = _psd_part(ensemble_density(pinned))
    improper = displaced_cnot_density_rows(avg_in[None], tau, site).rho_out
    # both outputs are qubits: one check for the two
    ((proper,), _), ((improper,), _) = density_columns(
        [(out_reg, proper), (out_reg, improper)])

    return ProprietyReport(branches, proper, improper,
                           trace_norm_distance(proper, improper), tau)


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
    """
    p_vac = float(p_vac)
    if not 0.0 <= p_vac <= 1.0:
        raise ValueError(f"vacuum weight out of range: {p_vac}")
    tau = _check_tau(tau)
    b2, qubits = grid_inputs(grid, dim=3)

    # The vacuum branch is the same at every point: one row, run once.
    if p_vac > 0.0:
        vacuum = displaced_cnot_rows([[1.0, 0.0, 0.0]], tau).densities()

    def branches(block):
        if p_vac > 0.0:
            yield p_vac, vacuum
        if p_vac < 1.0:
            yield 1.0 - p_vac, \
                displaced_cnot_rows(qubits[block], tau).densities()

    points = []
    drops = []
    for block in row_blocks(len(b2)):
        n = block.stop - block.start
        mixed = None
        for w, dens in branches(block):
            parts = (dens["input"], dens["rho_d"], dens["rho_out"])
            if mixed is None:
                mixed = [np.zeros((n,) + p.shape[1:], dtype=complex)
                         for p in parts]
            mixed = [acc + w * p for acc, p in zip(mixed, parts)]
        s_in, s_d, s_out = per_dimension(_entropy_bits, check_columns(mixed))
        below = s_in > s_d + 1e-9
        if below.any():
            i = int(np.argmax(below))
            raise InvariantViolationError(
                f"readout entropy {s_d[i]:.12g} fell below input entropy "
                f"{s_in[i]:.12g} at beta^2={b2[block][i]:.12g}"
            )
        for b, si, sd, so in zip(b2[block].tolist(), s_in.tolist(),
                                 s_d.tolist(), s_out.tolist()):
            if so < sd - 1e-12:
                drops.append(b)
            points.append(
                CurvePoint(b, {"S_in": si, "S_rho_d": sd, "S_out": so})
            )
    return EntropyStudyReport(p_vac, tau, points, drops)


def dilation_from_round_trip(duration: float, speed_fraction: float) -> float:
    """Clock lag accumulated by a round trip at constant speed.

    A traveler moving at v (as a fraction of c) for a stay-at-home
    duration T returns younger by T (1 - sqrt(1 - v^2)); that lag, in the
    same units as T, is the dilation to feed the cycle model after
    rounding to whole cycles.
    """
    duration = float(duration)
    v = float(speed_fraction)
    if duration < 0.0:
        raise ValueError(f"duration must be nonnegative, got {duration}")
    if not 0.0 <= v < 1.0:
        raise ValueError(f"speed fraction must sit in [0, 1), got {v}")
    return duration * (1.0 - np.sqrt(1.0 - v * v))
