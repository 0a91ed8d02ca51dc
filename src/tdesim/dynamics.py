"""The object path: gates, two-copy expansions and cycle-filtered
measurement on whole state objects, one step at a time.

Free evolution between cycles is a relabeling, so dynamics here splits into
three pieces: unitary gates acting inside a single cycle, expansions that
append time-shifted copies of a state, and measurements that keep only the
slots at one cycle.

Only the package's __init__ imports this module: the scenarios and
programs run on the dsl's executor and never read the object path.  It
runs on the executor's own pieces, the row kernels and the binding rule
of registers and the gate matrices of dsl, so the executor's reference
is the tests' dense oracles.

Expanding a mixed state is ambiguous and the two readings give different
physics, so the caller must choose a registers.CorrelationMode, given as
the member or its string value:

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

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (CycleMisalignmentError, UnknownSlotError,
                     ZeroProbabilityError)
from .registers import (
    ATOL,
    WEIGHT_ROUNDOFF,
    ZERO_NORM,
    BasisLevel,
    CorrelationMode,
    DensityOperator,
    PureState,
    Register,
    SlotLike,
    State,
    _bind,
    _check_state,
    _check_tau,
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
    partial_trace,
)
from .dsl import _GATE_MATRICES, _lift_logical, _phase_matrix

Ensemble = Sequence  # of (weight, PureState) pairs


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


# The fixed gates are built and checked for unitarity once, from the
# language's matrices; every call returns the same Gate, whose matrix is
# read-only.
@functools.lru_cache(maxsize=None)
def cnot() -> Gate:
    return Gate("cnot", _GATE_MATRICES["cnot"])


@functools.lru_cache(maxsize=None)
def pauli_x() -> Gate:
    return Gate("x", _GATE_MATRICES["x"])


@functools.lru_cache(maxsize=None)
def hadamard() -> Gate:
    return Gate("h", _GATE_MATRICES["h"])


def phase_gate(theta: float) -> Gate:
    return Gate(f"phase({theta:g})", _phase_matrix(theta))


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
    rows sqrt(w) psi as registers._bind gives them."""
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
    as SlotId's does, and so does anything but a state (_check_state)."""
    cycle = _whole(cycle, "a cycle must be a whole number")
    keep = [s for s in _check_state(state).register.slots
            if s.cycle == cycle]
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
