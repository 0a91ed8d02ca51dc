"""Registers of clock-cycle-labeled slots and the states living on them.

A slot is a (site, cycle) pair, and a site is named by ASCII letters,
digits and underscores, as the circuit language names it, so every state
can be written as a program.  Slots at different cycles are independent
tensor factors even when they share a site, which is what lets a single
physical qubit appear several times in one register.  Slots are qubits
(dim 2) or qutrits (dim 3); the three-level case prepends a vacuum level
below the two logical ones, so the logical block always sits at the top of
the local basis.

Basis ordering is row-major with the first register slot most significant,
so the basis state |01> of a two-qubit register has flat index 1.

The row kernels defined here serve the circuit executor (dsl._run_steps)
and every state operation alike: amplitude rows shaped (B, N, *dims), B
states, each the sum of the projectors of its N rows.  An operation takes
its input's rows (_rows), runs one kernel and returns a PureState or the
gram_density of the result (_from_rows).  A pure state's rows are its one
row.  A density's are the ones it keeps: the rows it was built from, when
there are at most as many as its dimension, or else its spectral rows
sqrt(w) v from one eigh of its matrix, taken on first use and kept.  That
eigh drops the eigenvalues validation lets through as roundoff and
renormalizes the rest, so diag(1 + 5e-11, -5e-11) acts as |0><0| in every
operation.

The binding rule lives here too, next to _rows: _bind turns a caller's
pure state, density or ensemble into executor rows under a
CorrelationMode, for the scenarios and the object path's expansions
alike.

The spectral kernels _entropy_bits and _trace_norms sit next to
check_densities, whose spectra they read; the engine and the analytics
both call them.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    InvariantViolationError,
    OverlappingSlotError,
    RegisterSizeError,
    UnknownSlotError,
)

# How far matrix entries and scalars may miss an exact relation
# (hermiticity, unit trace, unitarity, a projector's P^2 = P, a strict
# inequality between distances or entropies) and still count as meeting it.
ATOL = 1e-12
PSD_FLOOR = -1e-10
# Ensemble weights, populations, spectral eigenvalues and outcome
# probabilities within this of zero are roundoff: dropped, and never
# counted as negative.
WEIGHT_ROUNDOFF = 1e-12
# How far ensemble weights may sum from 1 before they are refused.
WEIGHT_SUM_SLACK = 1e-9
# A state vector whose (L2) norm is below this is taken to be zero.
ZERO_NORM = 1e-12
# How far an entropy inequality (subadditivity, S(rho_d) >= S(input)) may
# fail before the states are taken to be corrupt.
ENTROPY_SLACK = 1e-9
# The least distance between two kept eigenvalues of a density that
# COHERENT_HISTORY reads by its eigenvectors (_bind).  The output moves by
# about 1.3 eps / gap for a change eps in the matrix entries, so at this
# gap roundoff up to ~8e-15 in a caller's matrix moves it less than
# 1e-12; closer eigenvalues leave the eigenvectors undetermined.
SPECTRAL_GAP = 1e-2


class CorrelationMode(enum.Enum):
    UNCORRELATED_COPIES = "uncorrelated-copies"
    COHERENT_HISTORY = "coherent-history"


# Largest state the simulator will build: a pure state on a register of
# dimension d holds 16*d bytes of complex128 amplitudes, a density matrix
# 16*d**2 bytes.
MAX_STATE_BYTES = 256 * 2**20

_LEVEL_CHARS = {2: "01", 3: "v01"}

# SlotId's site rule, which the circuit language's parser reads too
_SITE_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _items(value, what: str) -> tuple:
    """The items of a sequence as a tuple; anything that cannot be
    iterated raises ValueError naming what it should be and its type."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, got "
                         f"{type(value).__name__}") from None


def _real(value, what: str) -> float:
    """value as a float; anything float() refuses raises ValueError naming
    what it should be and the value."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a real number, got {value!r}") \
            from None


def _whole(value, rule: str) -> int:
    """value as an int; anything but a whole number raises ValueError
    with the rule it broke and the value."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{rule}, got {value!r}")


def _check_tau(tau) -> int:
    """tau as an int; a dilation is a whole number of cycles, at least
    one, so anything else raises ValueError."""
    cycles = _whole(tau, "dilation must be a whole number of cycles")
    if cycles < 1:
        raise ValueError(f"dilation must be at least one cycle, got {cycles}")
    return cycles


class BasisLevel(enum.Enum):
    """Logical basis levels.  VAC exists only on dim-3 slots."""

    VAC = "vac"
    ZERO = "0"
    ONE = "1"


@dataclass(frozen=True, order=True, init=False)
class SlotId:
    """Address of one tensor factor: which site, at which clock cycle.
    A site must be a str of ASCII letters, digits and underscores, and a
    cycle that is not an int a whole number, stored as one; anything else
    raises ValueError naming it."""

    site: str
    cycle: int

    def __init__(self, site: str, cycle: int):
        if not (isinstance(site, str) and _SITE_RE.match(site)):
            raise ValueError("a site is a name of ASCII letters, digits and "
                             f"underscores, got {site!r}")
        if type(cycle) is not int:
            cycle = _whole(cycle, "a cycle must be a whole number")
        # frozen: the fields are written once, past __setattr__
        self.__dict__["site"], self.__dict__["cycle"] = site, cycle

    def shifted(self, delta: int) -> "SlotId":
        return SlotId(self.site, self.cycle + delta)

    def __repr__(self) -> str:
        return f"({self.site}@{self.cycle})"


SlotLike = Union[SlotId, tuple]


def as_slot(slot: SlotLike) -> SlotId:
    """Coerce a (site, cycle) tuple to a SlotId; anything that is not a
    pair raises ValueError."""
    if isinstance(slot, SlotId):
        return slot
    try:
        site, cycle = slot
    except (TypeError, ValueError):
        raise ValueError(
            f"a slot is a (site, cycle) pair, got {slot!r}") from None
    return SlotId(site, cycle)


@dataclass(frozen=True)
class Register:
    """Ordered collection of distinct slots with their local dimensions."""

    slots: tuple
    dims: tuple

    def __post_init__(self):
        # slots already SlotIds and dims already ints are kept as given
        slots = _items(self.slots, "a register's slots")
        if set(map(type, slots)) != {SlotId}:
            slots = tuple(map(as_slot, slots))
        dims = _items(self.dims, "a register's dims")
        if set(map(type, dims)) != {int}:
            dims = tuple(_whole(d, "slot dimensions must be whole numbers")
                         for d in dims)
        self.__dict__.update(slots=slots, dims=dims)
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
            dup = next(s for i, s in enumerate(slots) if s in slots[:i])
            raise OverlappingSlotError(f"duplicate slot {dup}")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def sites(self) -> tuple:
        return tuple(dict.fromkeys(s.site for s in self.slots))

    def index_of(self, slot: SlotLike) -> int:
        s = as_slot(slot)
        try:
            return self.slots.index(s)
        except ValueError:
            raise UnknownSlotError(f"register has no slot {s}") from None

    def __contains__(self, slot: SlotLike) -> bool:
        return as_slot(slot) in self.slots


def _check_register(register) -> Register:
    """register itself; anything but a Register raises ValueError naming
    its type."""
    if not isinstance(register, Register):
        raise ValueError(f"expected a Register, got {type(register).__name__}")
    return register


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


class PureState:
    """Normalized state vector on a register.

    The amplitude array is copied, normalized, and frozen.  A vector of
    numerically zero norm is rejected rather than silently rescaled, and
    so is one with a non-finite amplitude.
    """

    def __init__(self, register: Register, amplitudes):
        self._take(_check_register(register),
                   np.array(amplitudes, dtype=complex).reshape(-1))

    def _take(self, register: Register, amps: np.ndarray) -> None:
        """Hold amps, a flat complex array given up to the state, on
        register, normalized in place (_normalized)."""
        if amps.shape != (register.dim,):
            raise ValueError(
                f"expected {register.dim} amplitudes, got {amps.shape[0]}"
            )
        self.register, self.amplitudes = register, _normalized(amps)

    @property
    def dim(self) -> int:
        return self.register.dim

    def __repr__(self) -> str:
        return f"PureState({list(self.register.slots)})"


def _checked_ensemble(ensemble) -> list:
    """An ensemble of (weight, PureState) pairs, checked and renormalized.

    The ensemble and each branch must be sequences, every weight a finite
    real number at least -WEIGHT_ROUNDOFF, every branch a PureState on one
    register, and the weights must sum to 1 within WEIGHT_SUM_SLACK; a
    failure raises ValueError naming the branch.  Branches of weight up
    to WEIGHT_ROUNDOFF are dropped and the rest rescaled to sum to 1, as
    (float weight, state) pairs.
    """
    branches = _items(ensemble, "an ensemble")
    if not branches:
        raise ValueError("empty ensemble")
    kept, total = [], 0.0
    for i, branch in enumerate(branches):
        w, psi = _items(branch, f"ensemble branch {i}")
        w = _real(w, f"the weight of ensemble branch {i}")
        if not (math.isfinite(w) and w >= -WEIGHT_ROUNDOFF):
            raise ValueError(f"ensemble weight {w!r} of branch {i} is not a "
                             "finite nonnegative number")
        if not isinstance(psi, PureState):
            raise ValueError(f"ensemble branch {i} is not a PureState")
        if psi.register != branches[0][1].register:
            raise ValueError(
                f"ensemble branch {i} lives on another register than branch 0"
            )
        total += w
        if w > WEIGHT_ROUNDOFF:
            kept.append((w, psi))
    if abs(total - 1.0) > WEIGHT_SUM_SLACK:
        raise ValueError(f"ensemble weights sum to {total:.12g}, expected 1")
    total = sum(w for w, _ in kept)
    return [(w / total, psi) for w, psi in kept]


def _normalized(amps: np.ndarray) -> np.ndarray:
    """amps divided by its norm in place, and frozen.  The norm is
    rescaled by the largest real or imaginary part when it overflows; a
    zero norm or a non-finite amplitude raises ValueError."""
    norm = math.sqrt(np.vdot(amps, amps).real)
    if not math.isfinite(norm):  # overflow: scale to the largest part
        scale = float(np.maximum(abs(amps.real), abs(amps.imag)).max())
        if not math.isfinite(scale):
            raise ValueError("state vector is not finite")
        np.divide(amps, scale, out=amps)
        norm = math.sqrt(np.vdot(amps, amps).real)
    elif norm < ZERO_NORM:
        raise ValueError("state vector has zero norm")
    np.divide(amps, norm, out=amps)
    amps.setflags(write=False)
    return amps


def _pure_state(register: Register, amps: np.ndarray) -> PureState:
    """A PureState that takes over amps, a flat complex array its caller
    gives up, normalized in place with PureState's checks; a read-only
    array is copied first."""
    state = PureState.__new__(PureState)
    state._take(register, amps if amps.flags.writeable else amps.copy())
    return state


class DensityOperator:
    """Density matrix on a register, validated on construction.

    Construction checks hermiticity and unit trace to ATOL and rejects
    eigenvalues below PSD_FLOOR (see check_densities); anything worse
    indicates a bug upstream, not roundoff, so it raises
    InvariantViolationError.  The eigenvalues computed by that check are
    kept, read-only, as ``eigenvalues``.

    A density also keeps, read-only, the one decomposition into rows that
    every operation on it reads (registers._rows): the N <= d rows a
    gram_density was built from, and the spectral pair of _spectral_rows,
    from one eigh of the matrix on the first use that needs it.  No kept
    array holds more entries than the matrix.
    """

    _kept_rows = None  # (N, d) rows whose Gram matrix is the density
    _spectral = None  # (weights, eigenvectors) of _spectral_rows

    def __init__(self, register: Register, matrix):
        _check_register(register)
        m = np.array(matrix, dtype=complex)  # the copy the density keeps
        if m.shape != (register.dim, register.dim):
            raise ValueError(
                f"expected a {register.dim}x{register.dim} matrix, got {m.shape}"
            )
        vals = check_densities(m)
        m.flags.writeable = vals.flags.writeable = False
        self.register, self.matrix, self.eigenvalues = register, m, vals

    @property
    def dim(self) -> int:
        return self.register.dim

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.register.slots)})"


def check_densities(matrices: np.ndarray) -> np.ndarray:
    """Validate one density matrix or a stack of them, shaped (..., d, d),
    and return their eigenvalues, shaped (..., d), ascending per row.

    Every row must be hermitian and of unit trace to ATOL, checked over
    the whole stack first, and then have no eigenvalue below PSD_FLOOR,
    from one _eigvalsh of the stack.
    The first row that fails raises InvariantViolationError, naming its
    index when there is a stack.
    A NaN or infinite entry is refused first, by the same error.
    """
    finite = np.isfinite(matrices)
    if not finite.all():
        at = np.argwhere(~finite)[0].tolist()
        raise InvariantViolationError(f"matrix has a non-finite entry at {at}")
    _check_hermitian_unit_trace(matrices)
    return _check_spectrum(matrices, _eigvalsh(matrices))


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of each matrix of m, a complex128 stack
    of square matrices shaped (..., d, d), as every caller passes: the
    LAPACK gufunc that np.linalg.eigvalsh calls, with the same lower
    triangle, so the same bits, without the wrapper's argument handling
    and error state, which cost more than a 2 x 2 spectrum.  The
    wrapper's LinAlgError on a spectrum that does not converge is not
    raised: the gufunc returns NaN there, which fails _check_spectrum's
    PSD_FLOOR test, and every result is read through that test.  No NaN
    input reaches it, since the finiteness and hermiticity tests refuse
    one first."""
    return np.linalg._umath_linalg.eigvalsh_lo(m, signature="D->d")


def _entropy_bits(vals: np.ndarray) -> np.ndarray:
    """Entropies in bits of spectra shaped (..., d), one per row; values
    at or below zero contribute nothing (they become 1, whose term
    1 log2 1 is exactly 0).  Summed left to right, so zeros padding a
    spectrum change no bit of its entropy."""
    p = np.where(vals > 0.0, vals, 1.0)
    total = np.add.accumulate(p * np.log2(p), axis=-1)[..., -1]
    # -total, with roundoff above zero and -0.0 read as 0.0
    return 0.0 - np.minimum(total, 0.0)


def _trace_norms(diff: np.ndarray) -> np.ndarray:
    """Tr|D| for each matrix of an (N, d, d) stack: from the eigenvalues
    where D is hermitian to ATOL, else from the singular values."""
    herm = np.abs(diff - diff.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    out = np.empty(len(diff))
    h = herm <= ATOL
    if h.any():
        out[h] = np.abs(np.linalg.eigvalsh(diff[h])).sum(axis=-1)
    if not h.all():
        out[~h] = np.linalg.svd(diff[~h], compute_uv=False).sum(axis=-1)
    return out


# Columns per entry of F F^H from which gram_density takes its d**2 row
# dot products in place of the matrix product f @ f.conj().T.  Measured on
# one core, the dot products win from (2, 2048) (8 against 12 us) and
# (8, 32768) (0.6 against 1.0 ms) and lose below, at (2, 256) (4.4
# against 3.0 us) and (32, 32768) (12 against 7 ms).
_ROW_DOT_WIDTH = 512


def gram_density(register: Register, factor) -> DensityOperator:
    """The density matrix F F^H of a (d, M) factor F on a register of
    dimension d, validated once by check_densities' tests.

    A factor of at least _ROW_DOT_WIDTH * d**2 columns is multiplied out
    as row dot products, with no conjugate copy of F.  The spectrum, kept
    as ``eigenvalues``, is _eigvalsh's of the smaller of F F^H and F^H F,
    which share their nonzero eigenvalues, padded with zeros.  A factor of at
    most d columns is kept too, copied, as the density's rows F^T.
    """
    f = np.asarray(factor, dtype=complex)
    d, m = f.shape
    if d != register.dim:
        raise ValueError(
            f"expected a factor with {register.dim} rows, got {f.shape}"
        )
    if m >= _ROW_DOT_WIDTH * d * d:
        f = np.ascontiguousarray(f)
        rho = np.empty((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                rho[i, j] = np.vdot(f[j], f[i])
    else:
        rho = f @ f.conj().T
    _check_hermitian_unit_trace(rho)
    if m < d:
        vals = _eigvalsh(f.conj().T @ f)
        vals = np.sort(np.concatenate([np.zeros(d - m), vals]))
    else:
        vals = _eigvalsh(rho)
    vals = _check_spectrum(rho, vals)
    rho.flags.writeable = vals.flags.writeable = False
    out = _validated(register, rho, vals)
    if m <= d:
        out._kept_rows = rows = f.T.copy()
        rows.setflags(write=False)
    return out


# Rows per band of the hermiticity check: a band's temporaries span at
# most this many rows of the matrix.
_HERMITIAN_BAND = 32


def _check_hermitian_unit_trace(m: np.ndarray) -> None:
    """Reject m unless every matrix of the stack is hermitian and of unit
    trace to ATOL.  |m_ij - conj(m_ji)| and |m_ji - conj(m_ij)| are equal
    in IEEE arithmetic, so the largest deviation is read off the upper
    triangle, one band of rows at a time: band i..i+b checks rows i..i+b
    against columns i.., so no temporary is as large as m once it has
    more than a few bands.  A NaN anywhere fails."""
    d = m.shape[-1]
    b = _HERMITIAN_BAND
    for i in range(0, d, b):
        rows, cols = (m[..., i:i + b, i:], m[..., i:, i:i + b]) if d > b \
            else (m, m)  # a small matrix is one band
        # the conjugate transpose copied, so the difference runs on
        # contiguous operands
        if not np.maximum.reduce(abs(rows - cols.conj().swapaxes(-1, -2)
                                     .copy()), axis=None) <= ATOL:
            _reject(m)
    trace_err = abs(np.add.reduce(m.diagonal(0, -2, -1), -1) - 1.0)
    if not np.maximum.reduce(trace_err, axis=None) <= ATOL:
        _reject(m)


def _check_spectrum(m: np.ndarray, vals: np.ndarray) -> np.ndarray:
    if not np.minimum.reduce(vals, axis=None) >= PSD_FLOOR:
        # each row's least eigenvalue, or NaN wherever a spectrum has one
        _reject(m, np.minimum.reduce(vals, axis=-1))
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
    elif np.isnan(lowest[i]):
        what = "spectrum did not converge"
    else:
        what = f"negative eigenvalue {float(lowest[i]):.3e} below tolerance"
    raise InvariantViolationError(where + what)


def _validated(register: Register, matrix: np.ndarray,
               eigenvalues: np.ndarray) -> DensityOperator:
    """A DensityOperator around a matrix check_densities has already
    accepted, with the eigenvalues that check computed; the caller has
    made both read-only."""
    rho = DensityOperator.__new__(DensityOperator)
    rho.register, rho.matrix, rho.eigenvalues = register, matrix, eigenvalues
    return rho


State = Union[PureState, DensityOperator]


def _spectral_rows(rho: DensityOperator) -> tuple:
    """The eigenvalues of a density above WEIGHT_ROUNDOFF, renormalized to
    sum to 1, and their eigenvectors from eigh as the rows of a (k, d)
    stack: one eigh of the matrix on first use, kept on rho read-only."""
    if rho._spectral is None:
        vals, vecs = np.linalg.eigh(rho.matrix)
        keep = vals > WEIGHT_ROUNDOFF
        weights = vals[keep]
        weights, vectors = weights / weights.sum(), vecs.T[keep]
        weights.setflags(write=False)
        vectors.setflags(write=False)
        rho._spectral = weights, vectors
    return rho._spectral


def _rows(state: State) -> np.ndarray:
    """One state as rows shaped (1, N, *dims), N <= d: a pure state's
    amplitudes as one row, a density's kept rows, or else its spectral
    rows sqrt(w) v.  Kept rows are read-only."""
    dims = state.register.dims
    if isinstance(state, PureState):
        return state.amplitudes.reshape((1, 1) + dims)
    if state._kept_rows is not None:
        return state._kept_rows.reshape((1, -1) + dims)
    weights, vectors = _spectral_rows(state)
    return (np.sqrt(weights)[:, None] * vectors).reshape((1, -1) + dims)


def _bind(state, mode) -> tuple:
    """An expansion or circuit input as executor rows shaped (B, N,
    *dims), and the weights that mix its B states, or None for one state.

    A pure state is one row and never consults mode.  A mixed input's
    branches (w, v) are a DensityOperator's spectral decomposition, which
    it keeps after one eigh (_spectral_rows), or the pairs of an ensemble as
    _checked_ensemble returns it, which is not checked again.
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


def _from_rows(register: Register, rows: np.ndarray, pure: bool) -> State:
    """The state of rows shaped (1, N, *register.dims): a PureState on
    its one row (_pure_state, which takes the rows over), or the
    gram_density of its rows."""
    if pure:
        return _pure_state(register, rows.reshape(-1))
    every = range(len(register.dims))
    return gram_density(register, _factor(rows, every)[0])


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each state's rows times the other's: (B, Na, *da) and (B, Nb, *db)
    to (B, Na*Nb, *da, *db), row i*Nb + j the product of a's row i and
    b's row j.  The projectors of a state's product rows sum to the
    tensor product of the two states."""
    n, na, nb = a.shape[0], a.shape[1], b.shape[1]
    # each state's dims flattened, so the product broadcasts over 5 axes
    out = a.reshape(n, na, 1, -1, 1) * b.reshape(n, 1, nb, 1, -1)
    return out.reshape((n, na * nb) + a.shape[2:] + b.shape[2:])


def _on_axes(t: np.ndarray, axes, fn, lead) -> np.ndarray:
    """fn applied to t as one matrix, its rows the flat index over the
    given axes taken in that order and its columns every other axis; the
    rows fn returns span axes of the dims in lead, which take the given
    axes' places, and every other axis stays where it was (a view back in
    t's axis order)."""
    order = list(axes) + [a for a in range(t.ndim) if a not in axes]
    front = t.transpose(order)
    k = len(axes)
    out = fn(front.reshape(math.prod(front.shape[:k]), -1))
    return out.reshape(tuple(lead) + front.shape[k:]).transpose(
        sorted(range(t.ndim), key=order.__getitem__))


def _left_multiply(op: np.ndarray, t: np.ndarray, axes) -> np.ndarray:
    """Apply op, shaped (out dims..., in dims...), to the given axes of t
    and leave every other axis where it was: the one matrix product that
    np.tensordot(op, t, (op's in axes, axes)) takes, on the same operands."""
    return _on_axes(t, axes, lambda m: np.dot(op.reshape(-1, len(m)), m),
                    op.shape[:len(axes)])


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


def _check_state(state) -> State:
    """state itself; anything but a PureState or DensityOperator raises
    ValueError naming its type."""
    if not isinstance(state, (PureState, DensityOperator)):
        raise ValueError(f"not a state: {type(state).__name__}")
    return state


def to_density(state: State) -> DensityOperator:
    """Project a pure state to its rank-one density matrix; pass densities
    through unchanged.  Anything else raises ValueError naming its type
    (_check_state), and a density matrix over MAX_STATE_BYTES raises
    RegisterSizeError before it is built."""
    if isinstance(state, DensityOperator):
        return state
    check_state_size(_check_state(state).dim, pure=False)
    return _from_rows(state.register, _rows(state), pure=False)


def qubit_state(site: str, cycle: int, amp0, amp1) -> PureState:
    """The qubit amp0|0> + amp1|1> on slot (site, cycle), normalized."""
    return PureState(Register((SlotId(site, cycle),), (2,)), [amp0, amp1])


def bell_phi_plus(site_a: str, site_b: str, cycle: int) -> PureState:
    """(|00> + |11>)/sqrt(2) across two sites at one cycle."""
    reg = Register((SlotId(site_a, cycle), SlotId(site_b, cycle)), (2, 2))
    return PureState(reg, [1.0, 0.0, 0.0, 1.0])


def maximally_mixed(register: Register) -> DensityOperator:
    d = _check_register(register).dim
    return DensityOperator(register, np.eye(d) / d)


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
    return _from_rows(reg, _row_product(_rows(a), _rows(b)), pure)


def _positions(register: Register, slots) -> list:
    """The ascending positions in register of slots, a sequence of at
    least one distinct slot."""
    slots = [as_slot(s) for s in _items(slots, "a slot list")]
    if not slots:
        raise ValueError("must keep at least one slot")
    if len(set(slots)) != len(slots):
        raise ValueError("slot list repeats a slot")
    return sorted(map(register.index_of, slots))


def partial_trace(state: State, keep: Iterable[SlotLike]) -> DensityOperator:
    """Reduced density matrix over the kept slots, which stay in their
    original relative order regardless of how `keep` is ordered: F F^H
    of the state's rows with the kept axes leading (_factor), so
    |psi><psi| is never formed."""
    reg = state.register
    keep_pos = _positions(reg, keep)
    out_reg = Register(tuple(reg.slots[p] for p in keep_pos),
                       tuple(reg.dims[p] for p in keep_pos))
    check_state_size(out_reg.dim, pure=False)
    return gram_density(out_reg, _factor(_rows(state), keep_pos)[0])


def joint_outcome_distribution(state: State, slots: Sequence[SlotLike]) -> dict:
    """Born probabilities of every joint basis outcome on the given slots.

    Keys concatenate one character per slot ('v', '0', '1'), in register
    order.  All outcomes appear, including zero-probability ones.  The
    probabilities are the marginal of the state's own diagonal over the
    other slots, so no reduced state is built.  Anything but a state
    raises ValueError naming its type (_check_state).
    """
    reg = _check_state(state).register
    keep_pos = _positions(reg, slots)
    if isinstance(state, PureState):
        diag = (state.amplitudes * state.amplitudes.conj()).real
    else:
        diag = state.matrix.diagonal().real
    rest = tuple(p for p in range(len(reg.dims)) if p not in keep_pos)
    if rest:
        diag = diag.reshape(reg.dims).sum(axis=rest).reshape(-1)
    # roundoff below zero reads as 0.0, and so does -0.0
    probs = np.maximum(diag, 0.0) + 0.0
    # row-major outcome labels, matching the flattened marginal
    labels = _iproduct(*(_LEVEL_CHARS[reg.dims[p]] for p in keep_pos))
    return dict(zip(map("".join, labels), probs.tolist()))


def permute_slots(state: State, order: Sequence[SlotLike]) -> State:
    """Reorder the register slots; amplitudes follow the permutation."""
    reg = state.register
    perm = [reg.index_of(s) for s in order]
    if sorted(perm) != list(range(len(reg.slots))):
        raise ValueError("order must be a permutation of the register slots")
    new_reg = Register(tuple(reg.slots[p] for p in perm),
                       tuple(reg.dims[p] for p in perm))
    rows = _rows(state).transpose([0, 1] + [p + 2 for p in perm])
    return _from_rows(new_reg, rows, isinstance(state, PureState))


def relabel_cycles(state: State, site, delta: int) -> State:
    """Shift the cycle label of every slot on one site by delta cycles.

    With site=None every slot shifts, which is how a whole state is carried
    forward in time.  A shift that would land two slots of one site on the
    same cycle is rejected, and so is one that is not a whole number.
    """
    delta = _whole(delta, "a cycle shift must be a whole number")
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
    accepted, and the rows and spectral pair it has kept: relabeling
    slots changes none of them, so it is not checked again.
    """
    if isinstance(state, PureState):
        return PureState(register, state.amplitudes)
    if register.dim != state.register.dim:
        raise ValueError(
            f"expected a {register.dim}x{register.dim} matrix, "
            f"got {state.matrix.shape}"
        )
    rho = DensityOperator.__new__(DensityOperator)
    rho.__dict__.update(state.__dict__)
    rho.register = register
    return rho


def density_to_json(rho: State) -> dict:
    """JSON-friendly encoding of a state read through to_density: slot
    list plus a [re, im] matrix."""
    rho = to_density(rho)
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
