"""Registers of clock-cycle-labeled slots and the states living on them.

A slot is a (site, cycle) pair.  Slots at different cycles are independent
tensor factors even when they share a site, which is what lets a single
physical qubit appear several times in one register.  Slots are qubits
(dim 2) or qutrits (dim 3); the three-level case prepends a vacuum level
below the two logical ones, so the logical block always sits at the top of
the local basis.

Basis ordering is row-major with the first register slot most significant,
so ``basis_index`` of (0, 1) on a two-qubit register is 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    InvariantViolationError,
    OverlappingSlotError,
    RegisterSizeError,
    UnknownSlotError,
)

ATOL = 1e-12
PSD_FLOOR = -1e-10

# Largest state the simulator will build: a pure state on a register of
# dimension d holds 16*d bytes of complex128 amplitudes, a density matrix
# 16*d**2 bytes.
MAX_STATE_BYTES = 256 * 2**20

_LEVEL_CHARS = {2: "01", 3: "v01"}


class BasisLevel(enum.Enum):
    """Logical basis levels.  VAC exists only on dim-3 slots."""

    VAC = "vac"
    ZERO = "0"
    ONE = "1"


@dataclass(frozen=True, order=True)
class SlotId:
    """Address of one tensor factor: which site, at which clock cycle."""

    site: str
    cycle: int

    def shifted(self, delta: int) -> "SlotId":
        return SlotId(self.site, self.cycle + delta)

    def __repr__(self) -> str:
        return f"({self.site}@{self.cycle})"


SlotLike = Union[SlotId, tuple]


def as_slot(slot: SlotLike) -> SlotId:
    """Coerce a (site, cycle) tuple to a SlotId."""
    if isinstance(slot, SlotId):
        return slot
    site, cycle = slot
    return SlotId(str(site), int(cycle))


@dataclass(frozen=True)
class Register:
    """Ordered collection of distinct slots with their local dimensions."""

    slots: tuple
    dims: tuple

    def __post_init__(self):
        slots = tuple(map(as_slot, self.slots))
        dims = tuple(map(int, self.dims))
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "dims", dims)
        if len(slots) != len(dims):
            raise ValueError(
                f"{len(slots)} slots but {len(dims)} dimensions"
            )
        if len(slots) == 0:
            raise ValueError("a register needs at least one slot")
        for d in dims:
            if d not in (2, 3):
                raise ValueError(f"slot dimension must be 2 or 3, got {d}")
        if len(set(slots)) != len(slots):
            seen = set()
            for s in slots:
                if s in seen:
                    raise OverlappingSlotError(f"duplicate slot {s}")
                seen.add(s)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    @property
    def sites(self) -> tuple:
        return tuple(dict.fromkeys(s.site for s in self.slots))

    def cycles_of(self, site: str) -> tuple:
        return tuple(s.cycle for s in self.slots if s.site == site)

    def index_of(self, slot: SlotLike) -> int:
        s = as_slot(slot)
        try:
            return self.slots.index(s)
        except ValueError:
            raise UnknownSlotError(f"register has no slot {s}") from None

    def __contains__(self, slot: SlotLike) -> bool:
        return as_slot(slot) in self.slots

    def dim_of(self, slot: SlotLike) -> int:
        return self.dims[self.index_of(slot)]


def level_index(level, dim: int) -> int:
    """Local basis index of a level label on a slot of the given dimension.

    Integers 0 and 1 mean the logical levels, so on a dim-3 slot they map
    to indices 1 and 2.  The vacuum is addressed as BasisLevel.VAC or "vac".
    """
    if isinstance(level, BasisLevel):
        name = level.value
    elif isinstance(level, str):
        name = level
    elif level in (0, 1):
        name = str(level)
    else:
        raise ValueError(f"not a basis level: {level!r}")
    if name == "vac":
        if dim != 3:
            raise ValueError("vacuum level requires a dim-3 slot")
        return 0
    if name not in ("0", "1"):
        raise ValueError(f"not a basis level: {level!r}")
    return int(name) + (dim - 2)


def level_label(index: int, dim: int) -> str:
    """Inverse of level_index, as a one-character label ('v', '0', '1')."""
    return _LEVEL_CHARS[dim][index]


class PureState:
    """Normalized state vector on a register.

    The amplitude array is copied, normalized, and frozen.  A vector of
    numerically zero norm is rejected rather than silently rescaled, and
    so is one with a non-finite amplitude.
    """

    def __init__(self, register: Register, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (register.dim,):
            raise ValueError(
                f"expected {register.dim} amplitudes, got {amps.shape[0]}"
            )
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not math.isfinite(norm):  # overflow: scale to the largest part
            scale = float(np.maximum(abs(amps.real), abs(amps.imag)).max())
            if not math.isfinite(scale):
                raise ValueError("state vector is not finite")
            amps = amps / scale
            norm = math.sqrt(np.vdot(amps, amps).real)
        elif norm < 1e-12:
            raise ValueError("state vector has zero norm")
        amps = amps / norm
        amps.flags.writeable = False
        self.register = register
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.register.dim

    def overlap(self, other: "PureState") -> complex:
        if other.register != self.register:
            raise ValueError("overlap requires matching registers")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"PureState({list(self.register.slots)})"


class DensityOperator:
    """Density matrix on a register, validated on construction.

    Construction checks hermiticity and unit trace to 1e-12 and rejects
    eigenvalues below -1e-10 (see check_densities); anything worse
    indicates a bug upstream, not roundoff, so it raises
    InvariantViolationError.  The eigenvalues computed by that check are
    kept, read-only, as ``eigenvalues``.
    """

    def __init__(self, register: Register, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (register.dim, register.dim):
            raise ValueError(
                f"expected a {register.dim}x{register.dim} matrix, got {m.shape}"
            )
        vals = check_densities(m)
        self._set(register, m.copy(), vals)

    def _set(self, register: Register, matrix: np.ndarray,
             eigenvalues: np.ndarray) -> None:
        matrix.flags.writeable = False
        eigenvalues.flags.writeable = False
        self.register = register
        self.matrix = matrix
        self.eigenvalues = eigenvalues

    @property
    def dim(self) -> int:
        return self.register.dim

    def __repr__(self) -> str:
        return f"DensityOperator({list(self.register.slots)})"


def check_densities(matrices: np.ndarray) -> np.ndarray:
    """Validate one density matrix or a stack of them, shaped (..., d, d),
    and return their eigenvalues, shaped (..., d), ascending per row.

    Every row must be hermitian and of unit trace to ATOL, checked over
    the whole stack first, and then have no eigenvalue below PSD_FLOOR.
    The first row that fails raises InvariantViolationError, naming its
    index when there is a stack.
    """
    _check_hermitian_unit_trace(matrices)
    return _check_spectrum(matrices, np.linalg.eigvalsh(matrices))


def gram_density(register: Register, factor) -> DensityOperator:
    """The density matrix F F^H of a (d, M) factor F on a register of
    dimension d, validated once.

    F F^H gets check_densities' hermiticity and trace tests unchanged.
    Its spectrum comes from the smaller of the two Gram matrices, F F^H
    or F^H F, which share their nonzero eigenvalues: padded with zeros
    and sorted ascending, it must have no eigenvalue below PSD_FLOOR and
    is kept as the operator's ``eigenvalues``.  A density of dimension d
    held as M < d amplitude columns so costs an M x M eigvalsh.
    """
    f = np.asarray(factor, dtype=complex)
    d, m = f.shape
    if d != register.dim:
        raise ValueError(
            f"expected a factor with {register.dim} rows, got {f.shape}"
        )
    rho = f @ f.conj().T
    _check_hermitian_unit_trace(rho)
    if m < d:
        vals = np.linalg.eigvalsh(f.conj().T @ f)
        vals = np.sort(np.concatenate([np.zeros(d - m), vals]))
    else:
        vals = np.linalg.eigvalsh(rho)
    return _validated(register, rho, _check_spectrum(rho, vals))


def _check_hermitian_unit_trace(m: np.ndarray) -> None:
    dev = abs(m - m.conj().swapaxes(-1, -2)).max()
    trace_err = abs(m.trace(axis1=-2, axis2=-1) - 1.0).max()
    if not (dev <= ATOL and trace_err <= ATOL):
        _reject(m)


def _check_spectrum(m: np.ndarray, vals: np.ndarray) -> np.ndarray:
    if not vals.min() >= PSD_FLOOR:
        _reject(m, vals[..., 0])
    return vals


def _reject(m, lowest=None):
    """Raise InvariantViolationError for the first row of m that fails
    check_densities, with the first check it fails."""
    herm = abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    trace_err = abs(m.trace(axis1=-2, axis2=-1) - 1.0)
    bad = ~(herm <= ATOL) | ~(trace_err <= ATOL)
    if lowest is not None:
        bad = bad | ~(lowest >= PSD_FLOOR)
    i = tuple(int(k) for k in np.argwhere(bad)[0])
    where = f"row {i}: " if m.ndim > 2 else ""
    if not herm[i] <= ATOL:
        what = f"matrix is not hermitian (deviation {float(herm[i]):.3e})"
    elif not trace_err[i] <= ATOL:
        what = f"trace is {complex(m[i].trace()):.15g}, expected 1"
    else:
        what = f"negative eigenvalue {float(lowest[i]):.3e} below tolerance"
    raise InvariantViolationError(where + what)


def _validated(register: Register, matrix: np.ndarray,
               eigenvalues: np.ndarray) -> DensityOperator:
    """A DensityOperator around a matrix check_densities has already
    accepted, with the eigenvalues that check computed."""
    rho = DensityOperator.__new__(DensityOperator)
    rho._set(register, matrix, eigenvalues)
    return rho


State = Union[PureState, DensityOperator]


def to_density(state: State) -> DensityOperator:
    """Project a pure state to its rank-one density matrix; pass densities
    through unchanged."""
    if isinstance(state, DensityOperator):
        return state
    v = state.amplitudes
    return DensityOperator(state.register, np.outer(v, v.conj()))


def basis_index(register: Register, levels: Sequence) -> int:
    """Flat basis index of a product basis assignment, one level per slot."""
    if len(levels) != len(register.slots):
        raise ValueError(
            f"expected {len(register.slots)} levels, got {len(levels)}"
        )
    idx = tuple(
        level_index(lv, d) for lv, d in zip(levels, register.dims)
    )
    return int(np.ravel_multi_index(idx, register.dims))


def basis_state(register: Register, levels: Sequence) -> PureState:
    amps = np.zeros(register.dim, dtype=complex)
    amps[basis_index(register, levels)] = 1.0
    return PureState(register, amps)


def qubit_state(site: str, cycle: int, amp0, amp1, dim: int = 2) -> PureState:
    """Single-slot state amp0|0> + amp1|1>.  With dim=3 the vacuum
    amplitude is zero and the logical pair sits on the upper levels."""
    reg = Register((SlotId(site, cycle),), (dim,))
    amps = np.zeros(dim, dtype=complex)
    amps[dim - 2] = amp0
    amps[dim - 1] = amp1
    return PureState(reg, amps)


def vacuum_state(site: str, cycle: int) -> PureState:
    reg = Register((SlotId(site, cycle),), (3,))
    return PureState(reg, [1.0, 0.0, 0.0])


def bell_phi_plus(site_a: str, site_b: str, cycle: int) -> PureState:
    """(|00> + |11>)/sqrt(2) across two sites at one cycle."""
    reg = Register((SlotId(site_a, cycle), SlotId(site_b, cycle)), (2, 2))
    return PureState(reg, [1.0, 0.0, 0.0, 1.0])


def maximally_mixed(register: Register) -> DensityOperator:
    return DensityOperator(register, np.eye(register.dim) / register.dim)


def check_state_size(dim: int, pure: bool) -> None:
    """Refuse a pure state (or density matrix) of dimension dim that would
    hold more than MAX_STATE_BYTES."""
    need = 16 * dim if pure else 16 * dim * dim
    if need > MAX_STATE_BYTES:
        kind = "pure state" if pure else "density matrix"
        raise RegisterSizeError(
            f"a {kind} of dimension {dim} needs {need / 2**20:.0f} MiB, "
            f"over the {MAX_STATE_BYTES // 2**20} MiB limit"
        )


def tensor(a: State, b: State) -> State:
    """Tensor product of two states on slot-disjoint registers.

    Pure x pure stays pure; any density factor makes the result a density.
    """
    reg = Register(a.register.slots + b.register.slots,
                   a.register.dims + b.register.dims)
    pure = isinstance(a, PureState) and isinstance(b, PureState)
    check_state_size(reg.dim, pure)
    if pure:
        return PureState(reg, np.kron(a.amplitudes, b.amplitudes))
    ma = to_density(a).matrix
    mb = to_density(b).matrix
    return DensityOperator(reg, np.kron(ma, mb))


def partial_trace(state: State, keep: Iterable[SlotLike]) -> DensityOperator:
    """Reduced density matrix over the kept slots, which stay in their
    original relative order regardless of how `keep` is ordered.

    A pure state is traced from its amplitudes: with the kept axes moved to
    the front and the rest flattened, the amplitudes form a d_keep x d_rest
    matrix A and the reduced state is A A^H, so |psi><psi| is never formed.
    """
    reg = state.register
    keep_slots = [as_slot(s) for s in keep]
    if not keep_slots:
        raise ValueError("must keep at least one slot")
    if len(set(keep_slots)) != len(keep_slots):
        raise ValueError("keep list repeats a slot")
    keep_pos = sorted(reg.index_of(s) for s in keep_slots)
    out_reg = Register(tuple(reg.slots[p] for p in keep_pos),
                       tuple(reg.dims[p] for p in keep_pos))
    check_state_size(out_reg.dim, pure=False)
    n, d = len(reg.slots), out_reg.dim
    perm = keep_pos + [p for p in range(n) if p not in keep_pos]
    if isinstance(state, PureState):
        a = state.amplitudes.reshape(reg.dims).transpose(perm)
        a = a.reshape(d, -1)
        return DensityOperator(out_reg, a @ a.conj().T)
    # one axis per slot, rows and columns, the kept ones first; the rest
    # is traced
    block = state.matrix.reshape(reg.dims + reg.dims)
    block = block.transpose(perm + [n + p for p in perm])
    block = block.reshape(d, reg.dim // d, d, reg.dim // d)
    return DensityOperator(out_reg, np.trace(block, axis1=1, axis2=3))


def permute_slots(state: State, order: Sequence[SlotLike]) -> State:
    """Reorder the register slots; amplitudes follow the permutation."""
    reg = state.register
    perm = [reg.index_of(s) for s in order]
    if sorted(perm) != list(range(len(reg.slots))):
        raise ValueError("order must be a permutation of the register slots")
    new_reg = Register(tuple(reg.slots[p] for p in perm),
                       tuple(reg.dims[p] for p in perm))
    n = len(reg.slots)
    if isinstance(state, PureState):
        amps = state.amplitudes.reshape(reg.dims).transpose(perm).reshape(-1)
        return PureState(new_reg, amps)
    block = state.matrix.reshape(reg.dims + reg.dims)
    m = block.transpose(perm + [p + n for p in perm])
    return DensityOperator(new_reg, m.reshape(new_reg.dim, new_reg.dim))


def relabel_cycles(state: State, site, delta: int) -> State:
    """Shift the cycle label of every slot on one site by delta cycles.

    With site=None every slot shifts, which is how a whole state is carried
    forward in time.  A shift that would land two slots of one site on the
    same cycle is rejected.
    """
    delta = int(delta)
    reg = state.register
    if site is not None and site not in reg.sites:
        raise UnknownSlotError(f"register has no site {site!r}")
    new_slots = tuple(
        s.shifted(delta) if site is None or s.site == site else s
        for s in reg.slots
    )
    return on_register(state, Register(new_slots, reg.dims))


def on_register(state: State, register: Register) -> State:
    """The same amplitudes or matrix on another register of equal dims.

    A density matrix keeps the matrix and spectrum its validation
    accepted: relabeling slots changes neither, so it is not checked
    again.
    """
    if isinstance(state, PureState):
        return PureState(register, state.amplitudes)
    if register.dim != state.register.dim:
        raise ValueError(
            f"expected a {register.dim}x{register.dim} matrix, "
            f"got {state.matrix.shape}"
        )
    return _validated(register, state.matrix, state.eigenvalues)


def density_to_json(rho: DensityOperator) -> dict:
    """JSON-friendly encoding: slot list plus a [re, im] matrix."""
    return {
        "slots": [
            {"site": s.site, "cycle": s.cycle, "dim": d}
            for s, d in zip(rho.register.slots, rho.register.dims)
        ],
        "matrix": [
            [[float(z.real), float(z.imag)] for z in row]
            for row in rho.matrix
        ],
    }


def density_from_json(obj: dict) -> DensityOperator:
    slots = tuple(SlotId(str(e["site"]), int(e["cycle"])) for e in obj["slots"])
    dims = tuple(int(e["dim"]) for e in obj["slots"])
    reg = Register(slots, dims)
    raw = obj["matrix"]
    m = np.array([[complex(c[0], c[1]) for c in row] for row in raw])
    return DensityOperator(reg, m)
