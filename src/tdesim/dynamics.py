"""Gates, two-copy expansions, and cycle-filtered measurement.

Free evolution between cycles is a relabeling, so dynamics here splits into
three pieces: unitary gates acting inside a single cycle, expansions that
append time-shifted copies of a state, and measurements that keep only the
slots at one cycle.

These functions act on whole state objects one step at a time: the
object path.  Nothing else in the package calls it (scenarios and programs
run on the dsl's executor), and it runs on the executor's own row kernels
(registers), so the executor's reference is the tests' dense oracles.

Expanding a mixed state is ambiguous and the two readings give different
physics, so the caller must choose a CorrelationMode, given as the member
or its string value:

* UNCORRELATED_COPIES tensors the reduced density matrix with its shifted
  copy (rho (x) rho').  The copies share no correlations.
* COHERENT_HISTORY copies each pure branch of an ensemble and mixes the
  branch products.  This preserves branch identity across copies and
  depends on the ensemble, not just on the average density matrix; when
  only a DensityOperator is supplied, its spectral decomposition is used
  as a stand-in ensemble, and a density whose kept eigenvalues come
  closer than registers.SPECTRAL_GAP, where that decomposition is not
  determined by the matrix, is refused.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (CycleMisalignmentError, UnknownSlotError,
                     ZeroProbabilityError)
from .registers import (
    ATOL,
    SPECTRAL_GAP,
    WEIGHT_ROUNDOFF,
    ZERO_NORM,
    BasisLevel,
    DensityOperator,
    PureState,
    Register,
    SlotLike,
    State,
    _checked_ensemble,
    _discard_rows,
    _from_rows,
    _left_multiply,
    _row_product,
    _rows,
    _spectral_rows,
    _whole,
    as_slot,
    check_state_size,
    level_index,
    level_label,
    partial_trace,
)

Ensemble = Sequence  # of (weight, PureState) pairs


class CorrelationMode(enum.Enum):
    UNCORRELATED_COPIES = "uncorrelated-copies"
    COHERENT_HISTORY = "coherent-history"


def _check_tau(tau) -> int:
    """tau as an int; a dilation is a whole number of cycles, at least
    one, so anything else raises ValueError."""
    cycles = _whole(tau, "dilation must be a whole number of cycles")
    if cycles < 1:
        raise ValueError(f"dilation must be at least one cycle, got {cycles}")
    return cycles


class Gate:
    """Unitary on the logical levels of its target slots.

    The matrix is 2^arity square.  On dim-3 targets the gate is lifted to
    act as the identity on every basis component where a target sits in the
    vacuum level, so vacuum slots pass through gates untouched.
    """

    def __init__(self, name: str, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("gate matrix must be square")
        n = m.shape[0]
        arity = int(round(np.log2(n)))
        if 2 ** arity != n:
            raise ValueError(f"gate dimension {n} is not a power of 2")
        if not np.isfinite(m).all():
            raise ValueError(f"gate {name!r} has a non-finite entry")
        dev = float(np.abs(m @ m.conj().T - np.eye(n)).max())
        if dev > ATOL:
            raise ValueError(f"gate {name!r} is not unitary (deviation {dev:.3e})")
        m = m.copy()
        m.flags.writeable = False
        self.name = name
        self.arity = arity
        self.matrix = m

    def __repr__(self) -> str:
        return f"Gate({self.name!r}, arity={self.arity})"


# The fixed gates are built and checked for unitarity once; every call
# returns the same Gate, whose matrix is read-only.
@functools.lru_cache(maxsize=None)
def cnot() -> Gate:
    return Gate("cnot", [[1, 0, 0, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, 1],
                         [0, 0, 1, 0]])


@functools.lru_cache(maxsize=None)
def pauli_x() -> Gate:
    return Gate("x", [[0, 1], [1, 0]])


@functools.lru_cache(maxsize=None)
def hadamard() -> Gate:
    s = 1.0 / np.sqrt(2.0)
    return Gate("h", [[s, s], [s, -s]])


def phase_gate(theta: float) -> Gate:
    return Gate(f"phase({theta:g})", np.diag([1.0, np.exp(1j * float(theta))]))


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


def apply_gate(state: State, gate: Gate, targets: Sequence[SlotLike]) -> State:
    """Apply a gate to target slots, which must all sit at one cycle."""
    reg = state.register
    lifted, axes = _gate_block(reg, gate, targets)
    rows = _left_multiply(lifted, _rows(state), [a + 2 for a in axes])
    return _from_rows(reg, rows, isinstance(state, PureState))


def _gate_block(reg: Register, gate: Gate, targets: Sequence[SlotLike]):
    """Check a gate's targets against a register and return the lifted
    gate, shaped (target dims..., target dims...), with the register axes
    of the targets."""
    slots = [as_slot(t) for t in targets]
    if len(slots) != gate.arity:
        raise ValueError(
            f"gate {gate.name!r} takes {gate.arity} targets, got {len(slots)}"
        )
    if len(set(slots)) != len(slots):
        raise ValueError("gate targets must be distinct")
    axes = [reg.index_of(s) for s in slots]
    cycles = {s.cycle for s in slots}
    if len(cycles) > 1:
        raise CycleMisalignmentError(
            f"gate {gate.name!r} spans cycles {sorted(cycles)}; "
            "slots at different cycles are separate tensor factors"
        )
    dims = [reg.dims[a] for a in axes]
    return _lift_logical(gate.matrix, dims).reshape(dims + dims), axes


def _single_cycle(reg: Register) -> int:
    cycles = {s.cycle for s in reg.slots}
    if len(cycles) != 1:
        raise ValueError(
            f"expansion input must live at a single cycle, found {sorted(cycles)}"
        )
    return cycles.pop()


def ensemble_density(branches: Ensemble) -> DensityOperator:
    """Average density matrix of a pure-state ensemble, checked and
    renormalized by registers._checked_ensemble: the gram_density of its
    rows sqrt(w) psi as _bind gives them."""
    branches = _checked_ensemble(branches)
    reg = branches[0][1].register
    check_state_size(reg.dim, pure=False)
    rows, _ = _bind(branches, CorrelationMode.UNCORRELATED_COPIES)
    return _from_rows(reg, rows, pure=False)


def spectral_ensemble(rho: DensityOperator) -> list:
    """Eigendecomposition of a density matrix as a (weight, state) list.

    Eigenvalues up to WEIGHT_ROUNDOFF are dropped as roundoff and the kept
    weights renormalized to sum to 1; the decomposition is the one rho
    keeps (registers._spectral_rows).
    """
    weights, vectors = _spectral_rows(rho)
    return [(w, PureState(rho.register, v))
            for w, v in zip(weights.tolist(), vectors)]


def _bind(state, mode) -> tuple:
    """An expansion or circuit input as executor rows shaped (B, N,
    *dims), and the weights that mix its B states, or None for one state.

    A pure state is one row and never consults mode.  A mixed input's
    branches (w, v) are a DensityOperator's spectral decomposition, which
    it keeps after one eigh (_spectral_rows), or the pairs of an ensemble as
    registers._checked_ensemble returns it, which is not checked again.
    Under COHERENT_HISTORY each branch is a state of one row, mixed by
    w, and a density whose kept eigenvalues come closer than
    SPECTRAL_GAP raises ValueError, since its matrix does not determine
    its eigenvectors, and so the output; under UNCORRELATED_COPIES the
    rows sqrt(w) v are one state, folded by a QR factorization to at
    most d rows (R^H R = r^H r).  A
    mixed input with no mode raises ValueError; a mode is a
    CorrelationMode or its value.
    """
    if isinstance(state, PureState):
        return _rows(state), None
    if mode is None:
        raise ValueError(
            "expanding a mixed state needs an explicit correlation mode"
        )
    mode = CorrelationMode(mode)
    if isinstance(state, DensityOperator):
        dims = state.register.dims
        weights, vectors = _spectral_rows(state)
        if mode is CorrelationMode.COHERENT_HISTORY:
            # ascending, so the closest pair is adjacent; lists are
            # faster than numpy on a handful of weights
            w = weights.tolist()
            gap = min((b - a for a, b in zip(w, w[1:])), default=1.0)
            if gap < SPECTRAL_GAP:
                raise ValueError(
                    f"two eigenvalues {gap:.3e} apart, under SPECTRAL_GAP = "
                    f"{SPECTRAL_GAP:g}, leave coherent history undetermined; "
                    "pass an explicit (weight, PureState) ensemble")
    else:
        dims = state[0][1].register.dims
        weights = np.array([w for w, _ in state])
        vectors = np.array([psi.amplitudes for _, psi in state])
    if mode is CorrelationMode.COHERENT_HISTORY:
        return vectors.reshape((len(vectors), 1) + dims), weights
    rows = np.sqrt(weights)[:, None] * vectors
    if len(rows) > rows.shape[1]:
        rows = np.linalg.qr(rows, mode="r")
    return rows.reshape((1, len(rows)) + dims), None


def _expand(state, policy, copies) -> State:
    """A pure state, DensityOperator or ensemble (checked here) as copies
    of itself on the registers copies(its register) returns: after one
    size check, its rows (_bind) times themselves once per further copy.
    A pure input gives a PureState, any other the gram_density of the
    product rows, each state's scaled by sqrt(w) (registers._from_rows)."""
    if isinstance(state, (PureState, DensityOperator)):
        reg = state.register
    else:
        state = _checked_ensemble(state)
        reg = state[0][1].register
    pure = isinstance(state, PureState)
    regs = copies(reg)
    register = Register(sum((r.slots for r in regs), ()),
                        sum((r.dims for r in regs), ()))
    check_state_size(register.dim, pure)
    rows, weights = _bind(state, policy)
    out = rows
    for _ in regs[1:]:
        out = _row_product(out, rows)
    if weights is not None:
        out = np.sqrt(weights).reshape((-1,) + (1,) * (out.ndim - 1)) * out
    return _from_rows(register, out.reshape((1, -1) + register.dims), pure)


def free_expansion(state, cycles: Iterable[int], policy=None) -> State:
    """Tensor product of time-shifted copies of a single-cycle state, one
    per requested cycle, ascending.  A pure input stays pure.  Each cycle
    must be a whole number."""
    cs = sorted(_whole(c, "expansion cycles must be whole numbers")
                for c in cycles)
    if not cs:
        raise ValueError("need at least one cycle")
    if len(set(cs)) != len(cs):
        raise ValueError("expansion cycles must be distinct")

    def copies(reg):
        base = _single_cycle(reg)
        return [Register(tuple(s.shifted(c - base) for s in reg.slots),
                         reg.dims) for c in cs]

    return _expand(state, policy, copies)


def displaced_expansion(state, tau: int, dilated_site: str, policy=None) -> State:
    """Two-copy expansion of a two-site pair after one site is dilated.

    The input lives on two sites at a single cycle t.  Dilating one site by
    tau cycles makes the pair's support straddle cycles, so the state is
    carried by two copies: one with the undilated site pulled back to
    t - tau, and one with everything pushed forward to t + tau.  The result
    spans four slots ordered (copy A, copy B) with each copy keeping the
    input's slot order.
    """
    tau = _check_tau(tau)
    return _expand(state, policy,
                   lambda reg: _displaced_copies(reg, tau, dilated_site))


def _displaced_copies(reg: Register, tau: int, dilated_site: str) -> tuple:
    """Registers of the two copies in the displaced expansion of a pair.

    Copy A pulls the undilated site back by tau cycles and copy B pushes
    copy A forward by tau, each keeping the input's slot order; the
    expanded state lives on copy A's slots followed by copy B's.
    """
    if len(reg.slots) != 2:
        raise ValueError("displaced expansion expects a two-slot pair")
    sites = reg.sites
    if len(sites) != 2:
        raise ValueError("the two slots must sit on distinct sites")
    if dilated_site not in sites:
        raise UnknownSlotError(f"register has no site {dilated_site!r}")
    _single_cycle(reg)
    other = sites[0] if sites[1] == dilated_site else sites[1]
    slots_a = tuple(s.shifted(-tau) if s.site == other else s
                    for s in reg.slots)
    return (Register(slots_a, reg.dims),
            Register(tuple(s.shifted(tau) for s in slots_a), reg.dims))


def measure_at_cycle(state: State, cycle: int) -> DensityOperator:
    """Reduced state over every slot at one cycle; slots at other cycles
    are traced out, which is where displacement-induced decoherence
    comes from.  A cycle that is not a whole number raises ValueError,
    as SlotId's does."""
    cycle = _whole(cycle, "a cycle must be a whole number")
    keep = [s for s in state.register.slots if s.cycle == cycle]
    if not keep:
        raise UnknownSlotError(f"no slot at cycle {cycle}")
    return partial_trace(state, keep)


@dataclass
class MeasurementOutcome:
    """One projective outcome: its label, Born probability, and the
    renormalized state of the remaining slots (None if the measured slot
    was the whole register)."""

    label: str
    probability: float
    post_state: Optional[State]


def _outcome_operator(outcome, dim: int):
    """Return (Q, label) for an outcome given as a basis level, an
    amplitude vector, or a projector: Q is (r, dim), its orthonormal rows
    span the outcome's range, one row for a level or a vector and the
    range of a projector, from eigh."""
    if isinstance(outcome, (str, int, BasisLevel)):
        idx = level_index(outcome, dim)
        q = np.eye(dim, dtype=complex)[idx:idx + 1]
        return q, ("vac", "0", "1")[idx + (3 - dim)]
    arr = np.asarray(outcome, dtype=complex)
    if arr.ndim == 1:
        if arr.shape != (dim,):
            raise ValueError(f"outcome vector needs {dim} amplitudes")
        if not np.isfinite(arr).all():
            raise ValueError(f"outcome vector {outcome!r} is not finite")
        n = float(np.linalg.norm(arr))
        if n < ZERO_NORM:
            raise ValueError("outcome vector has zero norm")
        return (arr / n)[None], "custom"
    if arr.shape != (dim, dim):
        raise ValueError(f"projector must be {dim}x{dim}, got {arr.shape}")
    if not (np.abs(arr - arr.conj().T).max() <= ATOL
            and np.abs(arr @ arr - arr).max() <= ATOL):
        raise ValueError("outcome matrix is not a projector")
    vals, vecs = np.linalg.eigh(arr)
    return vecs.T[vals > 0.5], "projector"


def project(state: State, slot: SlotLike, outcome,
            label: Optional[str] = None) -> MeasurementOutcome:
    """Condition on finding one slot in a given outcome and drop the slot.

    The outcome is a basis level, an amplitude vector, or a projector
    matrix on the slot's dimension.  The slot's axis of the state's rows
    is contracted with the outcome's range Q^H and the index left is
    traced out with the rows; the probability is their squared norm.  A
    pure state measured on a level or a vector stays pure.  Slots at
    other cycles sit in separate tensor factors, so their entanglement
    survives untouched.
    """
    reg = state.register
    s = as_slot(slot)
    axis = reg.index_of(s)
    q, auto_label = _outcome_operator(outcome, reg.dims[axis])
    label = auto_label if label is None else label
    rows = _left_multiply(q.conj(), _rows(state), [axis + 2])
    p = float(np.vdot(rows, rows).real)
    if p < WEIGHT_ROUNDOFF:
        raise ZeroProbabilityError(
            f"outcome {label!r} on {s} has probability {p:.3e}"
        )
    if len(reg.slots) == 1:
        return MeasurementOutcome(label, p, None)
    rest_reg = Register(reg.slots[:axis] + reg.slots[axis + 1:],
                        reg.dims[:axis] + reg.dims[axis + 1:])
    pure = isinstance(state, PureState) and np.ndim(outcome) < 2
    rows = _discard_rows(rows, [axis]) / np.sqrt(p)
    return MeasurementOutcome(label, p, _from_rows(rest_reg, rows, pure))


def joint_outcome_distribution(state: State, slots: Sequence[SlotLike]) -> dict:
    """Born probabilities of every joint basis outcome on the given slots.

    Keys concatenate one character per slot ('v', '0', '1'), in register
    order.  All outcomes appear, including zero-probability ones.  The
    probabilities are the marginal of the state's own diagonal over the
    other slots, so no reduced state is built.
    """
    reg = state.register
    slots = [as_slot(s) for s in slots]
    if not slots:
        raise ValueError("must keep at least one slot")
    if len(set(slots)) != len(slots):
        raise ValueError("slot list repeats a slot")
    keep_pos = sorted(reg.index_of(s) for s in slots)
    if isinstance(state, PureState):
        diag = (state.amplitudes * state.amplitudes.conj()).real
    else:
        diag = state.matrix.diagonal().real
    rest = tuple(p for p in range(len(reg.dims)) if p not in keep_pos)
    diag = diag.reshape(reg.dims).sum(axis=rest).reshape(-1)
    dims = tuple(reg.dims[p] for p in keep_pos)
    probs = np.clip(diag, 0.0, None)
    # row-major outcome labels, matching the flattened marginal
    labels = _iproduct(*("".join(level_label(i, d) for i in range(d))
                         for d in dims))
    return dict(zip(map("".join, labels), probs.tolist()))
