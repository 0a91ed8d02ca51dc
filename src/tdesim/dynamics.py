"""Gates, two-copy expansions, and cycle-filtered measurement.

Free evolution between cycles is a relabeling, so dynamics here splits into
three pieces: unitary gates acting inside a single cycle, expansions that
append time-shifted copies of a state, and measurements that keep only the
slots at one cycle.

These functions act on whole state objects one step at a time: the
object path.  Nothing else in the package calls it (scenarios and programs
run on the dsl's executor); it is the independent reference that the tests
and demos/decoherence.py check the executor against.

Expanding a mixed state is ambiguous and the two readings give different
physics, so the caller must choose a CorrelationMode, given as the member
or its string value:

* UNCORRELATED_COPIES tensors the reduced density matrix with its shifted
  copy (rho (x) rho').  The copies share no correlations.
* COHERENT_HISTORY copies each pure branch of an ensemble and mixes the
  branch products.  This preserves branch identity across copies and
  depends on the ensemble, not just on the average density matrix; when
  only a DensityOperator is supplied, its spectral decomposition is used
  as a stand-in ensemble, which is a canonical but not unique choice.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (CycleMisalignmentError, InvariantViolationError,
                     UnknownSlotError, ZeroProbabilityError)
from .registers import (
    ATOL,
    WEIGHT_ROUNDOFF,
    ZERO_NORM,
    BasisLevel,
    DensityOperator,
    PureState,
    Register,
    SlotLike,
    State,
    _checked_ensemble,
    as_slot,
    level_index,
    level_label,
    on_register,
    partial_trace,
    relabel_cycles,
    tensor,
)

Ensemble = Sequence  # of (weight, PureState) pairs


class CorrelationMode(enum.Enum):
    UNCORRELATED_COPIES = "uncorrelated-copies"
    COHERENT_HISTORY = "coherent-history"


def _as_mode(policy) -> Optional[CorrelationMode]:
    """policy as a CorrelationMode, given as one or as its value, or None."""
    return None if policy is None else CorrelationMode(policy)


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
    if isinstance(state, PureState):
        psi = state.amplitudes.reshape(reg.dims)
        return PureState(reg, _left_multiply(lifted, psi, axes))
    n = len(reg.slots)
    rho = state.matrix.reshape(reg.dims + reg.dims)
    rho = _left_multiply(lifted, rho, axes)
    rho = _left_multiply(lifted.conj(), rho, [n + a for a in axes])
    return DensityOperator(reg, rho.reshape(reg.dim, reg.dim))


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


def _left_multiply(op: np.ndarray, t: np.ndarray, axes) -> np.ndarray:
    """Apply op, shaped (out dims..., in dims...), to the given axes of t
    and leave every other axis where it was."""
    k = len(axes)
    out = np.tensordot(op, t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


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


def _gather_axes(t: np.ndarray, q: np.ndarray, axes) -> np.ndarray:
    """t gathered by q on the flat index over its given axes, taken in
    that order: out[..., i, ...] = t[..., q[i], ...].  Every other axis
    stays where it was."""
    order = list(axes) + [a for a in range(t.ndim) if a not in axes]
    front = t.transpose(order)
    out = front.reshape(len(q), -1).take(q, axis=0).reshape(front.shape)
    return out.transpose(sorted(range(t.ndim), key=order.__getitem__))


def _shift_all(state: State, delta: int) -> State:
    return relabel_cycles(state, None, delta) if delta else state


def _single_cycle(reg: Register) -> int:
    cycles = {s.cycle for s in reg.slots}
    if len(cycles) != 1:
        raise ValueError(
            f"expansion input must live at a single cycle, found {sorted(cycles)}"
        )
    return cycles.pop()


def _as_branches(state, mode: Optional[CorrelationMode]):
    """Normalize the expansion input to (kind, payload).

    kind 'pure' carries a PureState, 'density' a DensityOperator, and
    'branches' a list of (weight, PureState) as registers._checked_ensemble
    returns it.
    """
    if isinstance(state, PureState):
        return "pure", state
    if mode is None:
        raise ValueError(
            "expanding a mixed state needs an explicit correlation mode"
        )
    if isinstance(state, DensityOperator):
        if mode is CorrelationMode.UNCORRELATED_COPIES:
            return "density", state
        return "branches", spectral_ensemble(state)
    branches = _checked_ensemble(state)
    if mode is CorrelationMode.UNCORRELATED_COPIES:
        return "density", ensemble_density(branches)
    return "branches", branches


def ensemble_density(branches: Ensemble) -> DensityOperator:
    """Average density matrix of a pure-state ensemble."""
    reg = branches[0][1].register
    m = np.zeros((reg.dim, reg.dim), dtype=complex)
    for w, psi in branches:
        v = psi.amplitudes
        m += float(w) * np.outer(v, v.conj())
    return DensityOperator(reg, m)


def spectral_ensemble(rho: DensityOperator) -> list:
    """Eigendecomposition of a density matrix as a (weight, state) list.

    Eigenvalues up to WEIGHT_ROUNDOFF are dropped as roundoff and the kept
    weights renormalized to sum to 1.
    """
    weights, vectors = _spectral_rows(rho.matrix)
    return [(w, PureState(rho.register, v))
            for w, v in zip(weights.tolist(), vectors)]


def _spectral_rows(matrix: np.ndarray) -> tuple:
    """spectral_ensemble as arrays: the eigenvalues of a density matrix
    above WEIGHT_ROUNDOFF, renormalized to sum to 1, and their
    eigenvectors from eigh as the rows of a (k, d) stack."""
    vals, vecs = np.linalg.eigh(matrix)
    keep = vals > WEIGHT_ROUNDOFF
    weights = vals[keep]
    return weights / weights.sum(), vecs.T[keep]


def _run_expansion(state, policy, expand_one):
    """Dispatch an expansion over the three input kinds.  expand_one maps a
    single pure or density state to its expanded product."""
    kind, payload = _as_branches(state, _as_mode(policy))
    if kind == "branches":
        return ensemble_density([(w, expand_one(psi)) for w, psi in payload])
    return expand_one(payload)


def free_expansion(state, cycles: Iterable[int], policy=None) -> State:
    """Tensor product of time-shifted copies of a single-cycle state, one
    per requested cycle, ascending.  A pure input stays pure."""
    cs = sorted(int(c) for c in cycles)
    if not cs:
        raise ValueError("need at least one cycle")
    if len(set(cs)) != len(cs):
        raise ValueError("expansion cycles must be distinct")

    def expand_one(st):
        base = _single_cycle(st.register)
        out = None
        for c in cs:
            copy = _shift_all(st, c - base)
            out = copy if out is None else tensor(out, copy)
        return out

    return _run_expansion(state, policy, expand_one)


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

    def expand_one(st):
        reg_a, reg_b = displaced_copies(st.register, tau, dilated_site)
        return tensor(on_register(st, reg_a), on_register(st, reg_b))

    return _run_expansion(state, policy, expand_one)


def displaced_copies(reg: Register, tau: int, dilated_site: str) -> tuple:
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
    comes from."""
    keep = [s for s in state.register.slots if s.cycle == int(cycle)]
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
    """Return (vector or None, projector matrix, label) for an outcome
    given as a basis level, an amplitude vector, or a projector."""
    if isinstance(outcome, (str, int, BasisLevel)):
        idx = level_index(outcome, dim)
        v = np.zeros(dim, dtype=complex)
        v[idx] = 1.0
        return v, np.outer(v, v.conj()), ("vac", "0", "1")[idx + (3 - dim)]
    arr = np.asarray(outcome, dtype=complex)
    if arr.ndim == 1:
        if arr.shape != (dim,):
            raise ValueError(f"outcome vector needs {dim} amplitudes")
        n = float(np.linalg.norm(arr))
        if n < ZERO_NORM:
            raise ValueError("outcome vector has zero norm")
        v = arr / n
        return v, np.outer(v, v.conj()), "custom"
    if arr.shape != (dim, dim):
        raise ValueError(f"projector must be {dim}x{dim}, got {arr.shape}")
    if np.abs(arr - arr.conj().T).max() > ATOL or \
            np.abs(arr @ arr - arr).max() > ATOL:
        raise ValueError("outcome matrix is not a projector")
    return None, arr, "projector"


def project(state: State, slot: SlotLike, outcome,
            label: Optional[str] = None) -> MeasurementOutcome:
    """Condition on finding one slot in a given outcome and drop the slot.

    The outcome is a basis level, an amplitude vector, or a projector
    matrix on the slot's dimension.  Slots at other cycles sit in separate
    tensor factors, so their entanglement survives untouched.
    """
    reg = state.register
    s = as_slot(slot)
    dim = reg.dim_of(s)
    chi, proj, auto_label = _outcome_operator(outcome, dim)
    label = auto_label if label is None else label

    rest = [t for t in reg.slots if t != s]
    if not rest:
        p = _scalar_probability(state, proj)
        _check_probability(p, label, s)
        return MeasurementOutcome(label, p, None)

    axis = reg.index_of(s)
    rest_reg = Register(tuple(rest),
                        tuple(reg.dims[reg.index_of(t)] for t in rest))

    if isinstance(state, PureState):
        # M: the amplitudes as a (slot, rest) matrix
        m = np.moveaxis(state.amplitudes.reshape(reg.dims), axis, 0)
        m = m.reshape(dim, rest_reg.dim)
        if chi is not None:
            post = chi.conj() @ m
            p = float(np.linalg.norm(post) ** 2)
            _check_probability(p, label, s)
            return MeasurementOutcome(
                label, p, PureState(rest_reg, post / np.sqrt(p))
            )
        # Tr_slot[(P x I)|psi><psi|] = (P M)^T M^*
        block = (proj @ m).T @ m.conj()
    else:
        n = len(reg.slots)
        rho = state.matrix.reshape(reg.dims + reg.dims)
        # The outcome index replaces the slot's row axis at the front;
        # tracing it against the slot's column axis (still at n + axis)
        # leaves the rest rows then the rest columns.
        block = np.trace(np.tensordot(proj, rho, axes=(1, axis)),
                         axis1=0, axis2=n + axis)
        block = block.reshape(rest_reg.dim, rest_reg.dim)
    p = float(np.trace(block).real)
    _check_probability(p, label, s)
    return MeasurementOutcome(
        label, p, DensityOperator(rest_reg, block / p)
    )


def _check_probability(p: float, label: str, slot) -> None:
    if p < WEIGHT_ROUNDOFF:
        raise ZeroProbabilityError(
            f"outcome {label!r} on {slot} has probability {p:.3e}"
        )


def _scalar_probability(state: State, proj: np.ndarray) -> float:
    if isinstance(state, PureState):
        v = state.amplitudes
        return float(np.real(v.conj() @ proj @ v))
    return float(np.trace(proj @ state.matrix).real)


def joint_outcome_distribution(state: State, slots: Sequence[SlotLike]) -> dict:
    """Born probabilities of every joint basis outcome on the given slots.

    Keys concatenate one character per slot ('v', '0', '1'), in register
    order.  All outcomes appear, including zero-probability ones.  The
    probabilities are the marginal of the state's own diagonal over the
    other slots, so no reduced state is built; on a one-slot register
    they are its diagonal.
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
    if len(reg.dims) == 1:
        d = reg.dims[0]
        probs = np.clip(diag, 0.0, None).tolist()
        return dict(zip([level_label(i, d) for i in range(d)], probs))
    rest = tuple(p for p in range(len(reg.dims)) if p not in keep_pos)
    diag = diag.reshape(reg.dims).sum(axis=rest).reshape(-1)
    dims = tuple(reg.dims[p] for p in keep_pos)
    probs = np.clip(diag, 0.0, None)
    # row-major outcome labels, matching the flattened marginal
    labels = _iproduct(*("".join(level_label(i, d) for i in range(d))
                         for d in dims))
    return dict(zip(map("".join, labels), probs.tolist()))
