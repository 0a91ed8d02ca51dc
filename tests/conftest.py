"""Shared fixtures and independent oracles.

The oracles avoid the package's own shortcuts on purpose: partial traces
are plain index loops or one einsum over the full density matrix (or a
state vector and its conjugate), gates are kron(lifted, eye) operators
between slot permutations, expansions are np.kron of density matrices or
projectors, trace norms come from singular values, entropies from
scipy.stats.  None of them calls the package's state operations, which
share the executor's row kernels.  Tests compare the fast
implementations against these.
"""

import functools
import string

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import stats

from tdesim import (
    CircuitParseError,
    CorrelationMode,
    DensityOperator,
    ExecutionReport,
    PureState,
    Register,
    SlotId,
)
from tdesim.dsl import (
    Cnot,
    Dilate,
    Discard,
    GateOp,
    Output,
    Prepare,
)
from tdesim import registers, scenarios

SEED = 20260818


def pytest_configure(config):
    # A complex value written into a real array loses its imaginary part,
    # and numpy reports that only with a ComplexWarning.  The class moved
    # to numpy.exceptions in numpy 1.25; numpy 2 has it only there.
    category = "numpy.exceptions.ComplexWarning" \
        if hasattr(np, "exceptions") else "numpy.ComplexWarning"
    config.addinivalue_line("filterwarnings", f"error::{category}")


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def spectrum_sizes(monkeypatch):
    """The size of every matrix whose spectrum is taken, in call order: the
    validated spectra of registers._eigvalsh, patched where registers and
    scenarios look it up, and the trace norms' np.linalg.eigvalsh."""
    sizes = []

    def counting(eigvalsh):
        return lambda m: sizes.append(m.shape[-1]) or eigvalsh(m)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    for module in (registers, scenarios):
        monkeypatch.setattr(module, "_eigvalsh", counting(module._eigvalsh))
    return sizes


def random_pure(rng, register):
    n = register.dim
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(register, amps)


def random_density(rng, register):
    n = register.dim
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T
    return DensityOperator(register, m / np.trace(m))


def two_qubit_register(site_a="1", site_b="2", cycle=0):
    return Register((SlotId(site_a, cycle), SlotId(site_b, cycle)), (2, 2))


def partial_trace_oracle(matrix, dims, keep_positions):
    """Index-loop partial trace, keeping factor positions in given order."""
    dims = tuple(dims)
    keep = tuple(keep_positions)
    drop = tuple(i for i in range(len(dims)) if i not in keep)
    kdims = tuple(dims[i] for i in keep)
    ddims = tuple(dims[i] for i in drop)
    size = int(np.prod(kdims)) if kdims else 1
    out = np.zeros((size, size), dtype=complex)
    t = np.asarray(matrix, dtype=complex).reshape(dims + dims)
    for ki in np.ndindex(*kdims):
        for kj in np.ndindex(*kdims):
            val = 0.0 + 0.0j
            for d in np.ndindex(*ddims):
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, lv in zip(keep, ki):
                    row[pos] = lv
                for pos, lv in zip(keep, kj):
                    col[pos] = lv
                for pos, lv in zip(drop, d):
                    row[pos] = lv
                    col[pos] = lv
                val += t[tuple(row) + tuple(col)]
            out[np.ravel_multi_index(ki, kdims) if kdims else 0,
                np.ravel_multi_index(kj, kdims) if kdims else 0] = val
    return out


def trace_norm_oracle(diff):
    return float(np.sum(sla.svdvals(np.asarray(diff, dtype=complex))))


def entropy_oracle(matrix):
    vals = np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))
    return float(stats.entropy(np.clip(vals, 0.0, None), base=2))


def lift_oracle(matrix, dims):
    """A 2^k logical gate on target slots of the given dims, acting as the
    identity on every basis state where some target is in its vacuum
    level (index 0 of a dim-3 slot)."""
    dims = tuple(dims)
    out = np.eye(int(np.prod(dims)), dtype=complex)
    logical = [
        int(np.ravel_multi_index(idx, dims))
        for idx in np.ndindex(*dims)
        if all(i >= d - 2 for i, d in zip(idx, dims))
    ]
    out[np.ix_(logical, logical)] = matrix
    return out


def dense_gate_oracle(array, dims, gate_matrix, targets):
    """Apply a gate to the target positions of a state vector or density
    matrix by permuting the targets to the front, multiplying by
    kron(lifted, eye) and permuting back.  A vector is multiplied one
    block of the identity at a time, kron(lifted, eye) v being lifted
    times v as a (targets, rest) matrix, so large registers need no
    d x d operator."""
    dims = list(dims)
    n = len(dims)
    perm = list(targets) + [i for i in range(n) if i not in targets]
    inv = list(np.argsort(perm))
    pdims = [dims[p] for p in perm]
    tdims = pdims[:len(targets)]
    d = int(np.prod(dims))
    lifted = lift_oracle(gate_matrix, tdims)
    array = np.asarray(array, dtype=complex)
    if array.ndim == 1:
        v = array.reshape(dims).transpose(perm).reshape(len(lifted), -1)
        return (lifted @ v).reshape(pdims).transpose(inv).reshape(-1)
    op = np.kron(lifted, np.eye(d // lifted.shape[0]))
    m = array.reshape(dims + dims).transpose(perm + [p + n for p in perm])
    m = op @ m.reshape(d, d) @ op.conj().T
    m = m.reshape(pdims + pdims).transpose(inv + [p + n for p in inv])
    return m.reshape(d, d)


def gather_oracle(dims, gates):
    """The flat gather and phases of a run of monomial gates on a register
    of the given dims, each gate a (logical matrix, target positions)
    pair, from applying the gates one at a time to an arange over the
    whole register: a gate's lifted block has one nonzero per row, so
    index i of the result is the entry that nonzero reads, times it."""
    dims = tuple(dims)
    perm = np.arange(int(np.prod(dims)))
    phase = np.ones(len(perm), dtype=complex)
    for matrix, targets in gates:
        tdims = tuple(dims[t] for t in targets)
        lifted = lift_oracle(matrix, tdims)
        new_perm, new_phase = perm.copy(), phase.copy()
        for i, coords in enumerate(np.ndindex(*dims)):
            row = np.ravel_multi_index([coords[t] for t in targets], tdims)
            (col,) = np.flatnonzero(lifted[row])
            source = list(coords)
            for t, c in zip(targets, np.unravel_index(col, tdims)):
                source[t] = c
            j = np.ravel_multi_index(source, dims)
            new_perm[i] = perm[j]
            new_phase[i] = lifted[row, col] * phase[j]
        perm, phase = new_perm, new_phase
    return perm, phase


def einsum_partial_trace_oracle(state, dims, keep_positions):
    """Partial trace as one einsum over the full density matrix, or over a
    state vector and its conjugate, so that |v><v| is never formed; kept
    positions come out in ascending order."""
    dims = tuple(dims)
    n = len(dims)
    keep = sorted(keep_positions)
    row = "".join(string.ascii_letters[:n])
    col = "".join(c if i in keep else row[i]
                  for i, c in enumerate(string.ascii_letters[n:2 * n]))
    out = "".join(row[p] for p in keep) + "".join(col[p] for p in keep)
    state = np.asarray(state)
    if state.ndim == 1:
        v = state.reshape(dims)
        reduced = np.einsum(f"{row},{col}->{out}", v, v.conj())
    else:
        reduced = np.einsum(f"{row}{col}->{out}", state.reshape(dims + dims))
    d = int(np.prod([dims[p] for p in keep]))
    return reduced.reshape(d, d)


def dense_project_oracle(matrix, dims, position, projector):
    """Unnormalized state of the other slots after finding the slot at
    `position` in the range of `projector`: Tr_slot[(I x P x I) rho]."""
    dims = tuple(dims)
    before = int(np.prod(dims[:position]))
    after = int(np.prod(dims[position + 1:]))
    op = np.kron(np.kron(np.eye(before), projector), np.eye(after))
    keep = [i for i in range(len(dims)) if i != position]
    return einsum_partial_trace_oracle(op @ matrix, dims, keep)


CNOT_MATRIX = np.array([[1, 0, 0, 0],
                        [0, 1, 0, 0],
                        [0, 0, 0, 1],
                        [0, 0, 1, 0]], dtype=complex)


def displaced_cnot_oracle(amps):
    """The displaced-CNOT circuit on one pure input, from dense operators.

    Returns (rho_s, rho_d, rho_out, closed): the (input, ancilla) density
    after the opening CNOT, the readout at the preparation cycle, the
    ancilla output, and the four-slot amplitudes after the closing CNOT.
    The four-slot layout (input@tau, ancilla@0, input@2tau, ancilla@tau)
    is written out here rather than looked up.
    """
    amps = np.asarray(amps, dtype=complex)
    dims = (len(amps), 2, len(amps), 2)
    pair = dense_gate_oracle(np.kron(amps, [1.0, 0.0]), dims[:2],
                             CNOT_MATRIX, [0, 1])
    four = np.kron(pair, pair)
    rho_d = einsum_partial_trace_oracle(np.outer(four, four.conj()), dims,
                                        [0, 3])
    closed = dense_gate_oracle(four, dims, CNOT_MATRIX, [0, 3])
    rho_out = einsum_partial_trace_oracle(np.outer(closed, closed.conj()),
                                          dims, [3])
    return np.outer(pair, pair.conj()), rho_d, rho_out, closed


def expansion_oracle(state, copies, mode):
    """Dense density matrix of `copies` time-shifted copies of a state,
    in copy order, from np.kron alone.

    state is a PureState, a DensityOperator, a dense density matrix or an
    ensemble of (weight, PureState) pairs.  UNCORRELATED_COPIES is the
    kron of the state's density matrix with itself; COHERENT_HISTORY is
    sum w kron(P, ..., P) over the ensemble's branches, a density's
    eigenbranches from eigh, or the one branch of a pure state.
    """
    if isinstance(state, DensityOperator):
        state = state.matrix
    if isinstance(state, PureState):
        branches = [(1.0, state.amplitudes)]
    elif isinstance(state, np.ndarray):
        vals, vecs = np.linalg.eigh(state)
        branches = list(zip(vals, vecs.T))
    else:
        branches = [(w, psi.amplitudes) for w, psi in state]
    projectors = [(w, np.outer(v, v.conj())) for w, v in branches]

    def kron_power(m):
        return functools.reduce(np.kron, [m] * copies)

    if mode is CorrelationMode.COHERENT_HISTORY:
        return sum(w * kron_power(p) for w, p in projectors)
    if isinstance(state, np.ndarray):
        return kron_power(state)
    return kron_power(sum(w * p for w, p in projectors))


def displaced_cnot_density_oracle(rho, tau,
                                  mode=CorrelationMode.UNCORRELATED_COPIES):
    """The displaced-CNOT circuit on one single-slot density input, from
    dense operators: the opening CNOT on rho (x) |0><0|, the two copies
    of the pair from expansion_oracle under mode, the closing CNOT and
    partial traces.  The input slot is (site, tau) and the ancilla site
    is "2" ("anc" when the input site is "2"); the four-slot layout
    (input@tau, ancilla@0, input@2tau, ancilla@tau) is written out here
    rather than looked up.

    Returns (rho_s, rho_d, closed, rho_out) as DensityOperators.
    """
    site = rho.register.slots[0].site
    anc = "anc" if site == "2" else "2"
    dims = (rho.dim, 2, rho.dim, 2)
    slots = (SlotId(site, tau), SlotId(anc, 0), SlotId(site, 2 * tau),
             SlotId(anc, tau))

    def on(positions, matrix):
        return DensityOperator(Register(tuple(slots[p] for p in positions),
                                        tuple(dims[p] for p in positions)),
                               matrix)

    pair = dense_gate_oracle(np.kron(rho.matrix, np.diag([1.0, 0.0])),
                             dims[:2], CNOT_MATRIX, [0, 1])
    four = expansion_oracle(pair, 2, mode)
    closed = dense_gate_oracle(four, dims, CNOT_MATRIX, [0, 3])
    return (on([0, 3], pair),
            on([0, 3], einsum_partial_trace_oracle(four, dims, [0, 3])),
            on([0, 1, 2, 3], closed),
            on([3], einsum_partial_trace_oracle(closed, dims, [3])))


def displaced_box_oracle(state):
    """The displaced box on a two-slot state of one site, from dense
    operators: a fresh ancilla on site "c" and a CNOT at each of the
    input's two cycles, then, the data site dilated by the cycle gap, a
    CNOT folding the early data slot (now at the late cycle) onto the
    late ancilla, which is kept.  The slot positions are written out here from the
    input's cycles rather than looked up."""
    cycles = [s.cycle for s in state.register.slots]
    early, late = np.argsort(cycles)
    dims = state.register.dims + (2, 2)
    if isinstance(state, PureState):
        st = np.kron(state.amplitudes, [1.0, 0.0, 0.0, 0.0])
    else:
        st = np.kron(state.matrix, np.diag([1.0, 0.0, 0.0, 0.0]))
    # slots: the input's two, then the ancilla at the early and late cycle
    for control, target in ((early, 2), (late, 3), (early, 3)):
        st = dense_gate_oracle(st, dims, CNOT_MATRIX, [control, target])
    return DensityOperator(Register((("c", max(cycles)),), (2,)),
                           einsum_partial_trace_oracle(st, dims, [3]))


GATE_MATRICES = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
}


class _DenseState:
    """A program state for run_program_oracle: its slots and dims, and
    its amplitudes or density matrix as a plain array."""

    def __init__(self, slots, dims, array):
        self.slots, self.dims, self.array = list(slots), list(dims), array

    def position(self, site, cycle):
        return self.slots.index(SlotId(site, cycle))

    def matrix(self):
        a = self.array
        return np.outer(a, a.conj()) if a.ndim == 1 else a

    def tensor(self, other):
        if self.array.ndim == 1 and other.array.ndim == 1:
            array = np.kron(self.array, other.array)
        else:
            array = np.kron(self.matrix(), other.matrix())
        return _DenseState(self.slots + other.slots, self.dims + other.dims,
                           array)

    def shifted(self, site, delta):
        return _DenseState([SlotId(s.site, s.cycle + delta)
                            if site is None or s.site == site else s
                            for s in self.slots], self.dims, self.array)

    def reduced(self, keep):
        """The density matrix, slots and dims over the kept positions,
        in register order."""
        keep = sorted(keep)
        return (einsum_partial_trace_oracle(self.array, self.dims, keep),
                [self.slots[p] for p in keep], [self.dims[p] for p in keep])


def _oracle_shift(slots, participants, cycle):
    """The smallest whole-state shift whose copy gives every participant
    a slot at the cycle and lands on no slot the state holds, found by
    trying each shift in turn; 0 if every participant has a slot there
    already, None if no shift does."""
    held = set(slots)
    if all(SlotId(p, cycle) in held for p in participants):
        return 0
    for delta in range(1, cycle + 1):
        copy = {SlotId(s.site, s.cycle + delta) for s in held}
        if not copy & held and \
                all(SlotId(p, cycle) in held | copy for p in participants):
            return delta
    return None


def _oracle_ensure_cycle(state, participants, cycle, line):
    delta = _oracle_shift(state.slots, participants, cycle)
    if delta is None:
        raise CircuitParseError(
            line, f"no dilation aligns {participants} at cycle {cycle}")
    if delta == 0:
        return state
    if state.array.ndim != 1:
        raise CircuitParseError(line, "cannot expand a mixed state")
    return state.tensor(state.shifted(None, delta))


def run_program_oracle(program):
    """The gate-by-gate circuit interpreter on dense arrays: every step
    holds a state vector or a density matrix, a gate multiplies it by
    kron(lifted, eye) between slot permutations (dense_gate_oracle), a
    discard forms the reduced density matrix by einsum, and the expansion
    shift is searched for at each gate by _oracle_shift, which shares no
    code with the compiler.  The output's
    probabilities are its diagonal and its entropy entropy_oracle's.
    Returns (ExecutionReport, final state) like run_program."""
    state = None
    result = None
    for d in program.directives:
        if isinstance(d, Prepare):
            fresh = _DenseState(
                [SlotId(d.site, d.cycle)], [3 if d.kind == "vac" else 2],
                np.array([1.0, 0.0, 0.0] if d.kind == "vac"
                         else [d.amp0, d.amp1], dtype=complex))
            fresh.array /= np.linalg.norm(fresh.array)
            state = fresh if state is None else state.tensor(fresh)
        elif isinstance(d, (Cnot, GateOp)):
            sites = [d.control, d.target] if isinstance(d, Cnot) \
                else [d.site]
            state = _oracle_ensure_cycle(state, sites, d.cycle, d.line)
            if isinstance(d, Cnot):
                matrix = CNOT_MATRIX
            elif d.name == "phase":
                matrix = np.diag([1.0, np.exp(1j * d.theta)])
            else:
                matrix = GATE_MATRICES[d.name]
            state.array = dense_gate_oracle(
                state.array, state.dims, matrix,
                [state.position(s, d.cycle) for s in sites])
        elif isinstance(d, Dilate):
            state = state.shifted(d.site, d.delta)
        elif isinstance(d, Discard):
            m, slots, dims = state.reduced(
                [p for p, s in enumerate(state.slots) if s.site != d.site])
            state = _DenseState(slots, dims, m)
        elif isinstance(d, Output):
            m, slots, dims = state.reduced(
                [state.position(d.site, d.cycle)])
            labels = "01" if dims[0] == 2 else "v01"
            probs = np.clip(np.diag(m).real, 0.0, None).tolist()
            result = ExecutionReport(
                slots[0], DensityOperator(Register(slots, dims), m),
                dict(zip(labels, probs)), entropy_oracle(m))
    register = Register(tuple(state.slots), tuple(state.dims))
    if state.array.ndim == 1:
        return result, PureState(register, state.array)
    return result, DensityOperator(register, state.array)
