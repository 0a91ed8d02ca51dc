"""Shared fixtures and independent oracles.

The oracles avoid the package's own shortcuts on purpose: partial traces
are plain index loops or one einsum over the full density matrix, gates
are dense kron(lifted, eye) operators between slot permutations, trace
norms come from singular values, entropies from scipy.stats.  Tests
compare the fast implementations against these.
"""

import string

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import stats

from tdesim import (
    CircuitExecutionError,
    CorrelationMode,
    DensityOperator,
    ExecutionReport,
    PureState,
    Register,
    SlotId,
    apply_gate,
    cnot,
    displaced_expansion,
    hadamard,
    joint_outcome_distribution,
    measure_at_cycle,
    partial_trace,
    pauli_x,
    phase_gate,
    qubit_state,
    relabel_cycles,
    tensor,
    von_neumann_entropy,
)
from tdesim.dsl import (
    Cnot,
    Dilate,
    Discard,
    GateOp,
    Output,
    Prepare,
    _expansion_shift,
)

SEED = 20260818


def pytest_configure(config):
    # A complex value written into a real array loses its imaginary part,
    # and numpy reports that only with a ComplexWarning.  The class moved
    # to numpy.exceptions in numpy 1.25; numpy 2 has it only there.
    try:
        import numpy.exceptions  # noqa: F401
        category = "numpy.exceptions.ComplexWarning"
    except ImportError:
        category = "numpy.ComplexWarning"
    config.addinivalue_line("filterwarnings", f"error::{category}")


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


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
    kron(lifted, eye) and permuting back."""
    dims = list(dims)
    n = len(dims)
    perm = list(targets) + [i for i in range(n) if i not in targets]
    inv = list(np.argsort(perm))
    pdims = [dims[p] for p in perm]
    tdims = pdims[:len(targets)]
    d = int(np.prod(dims))
    lifted = lift_oracle(gate_matrix, tdims)
    op = np.kron(lifted, np.eye(d // lifted.shape[0]))
    array = np.asarray(array, dtype=complex)
    if array.ndim == 1:
        v = op @ array.reshape(dims).transpose(perm).reshape(-1)
        return v.reshape(pdims).transpose(inv).reshape(-1)
    m = array.reshape(dims + dims).transpose(perm + [p + n for p in perm])
    m = op @ m.reshape(d, d) @ op.conj().T
    m = m.reshape(pdims + pdims).transpose(inv + [p + n for p in inv])
    return m.reshape(d, d)


def einsum_partial_trace_oracle(matrix, dims, keep_positions):
    """Partial trace as one einsum over the full density matrix; kept
    positions come out in ascending order."""
    dims = tuple(dims)
    n = len(dims)
    keep = sorted(keep_positions)
    row = list(string.ascii_letters[:n])
    col = list(string.ascii_letters[n:2 * n])
    for i in range(n):
        if i not in keep:
            col[i] = row[i]
    spec = ("".join(row) + "".join(col) + "->"
            + "".join(row[p] for p in keep) + "".join(col[p] for p in keep))
    reduced = np.einsum(spec, np.asarray(matrix).reshape(dims + dims))
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


def displaced_cnot_density_oracle(rho, tau):
    """The displaced-CNOT circuit on one single-slot density input, from
    the object primitives: tensor with the ancilla, apply_gate, the
    uncorrelated-copies displaced_expansion, measure_at_cycle and
    partial_trace.  The input slot is (site, tau) and the ancilla site
    is "2" ("anc" when the input site is "2").

    Returns (rho_s, rho_d, closed, rho_out) as DensityOperators.
    """
    site = rho.register.slots[0].site
    anc = "anc" if site == "2" else "2"
    targets = [SlotId(site, tau), SlotId(anc, tau)]
    pair = apply_gate(tensor(rho, qubit_state(anc, tau, 1.0, 0.0)), cnot(),
                      targets)
    expanded = displaced_expansion(
        pair, tau, site, policy=CorrelationMode.UNCORRELATED_COPIES)
    closed = apply_gate(expanded, cnot(), targets)
    return (pair, measure_at_cycle(expanded, tau), closed,
            partial_trace(closed, [targets[1]]))


def displaced_box_oracle(state, data_site, ancilla_site="c"):
    """The displaced box from the object primitives, gate by gate: a
    fresh ancilla and a CNOT at each of the input's two cycles, the data
    site dilated by the cycle gap, and a CNOT folding the early copy onto
    the late ancilla, which is kept."""
    c0, c1 = sorted(s.cycle for s in state.register.slots)
    st = tensor(state, tensor(qubit_state(ancilla_site, c0, 1.0, 0.0),
                              qubit_state(ancilla_site, c1, 1.0, 0.0)))
    st = apply_gate(st, cnot(),
                    [SlotId(data_site, c0), SlotId(ancilla_site, c0)])
    st = apply_gate(st, cnot(),
                    [SlotId(data_site, c1), SlotId(ancilla_site, c1)])
    st = relabel_cycles(st, data_site, c1 - c0)
    st = apply_gate(st, cnot(),
                    [SlotId(data_site, c1), SlotId(ancilla_site, c1)])
    return partial_trace(st, [SlotId(ancilla_site, c1)])


def _oracle_ensure_cycle(state, participants, cycle, line):
    site_cycles = {
        site: set(state.register.cycles_of(site))
        for site in state.register.sites
    }
    delta = _expansion_shift(site_cycles, participants, cycle)
    if delta is None:
        raise CircuitExecutionError(
            f"line {line}: no dilation aligns {participants} at cycle {cycle}"
        )
    if delta == 0:
        return state
    if not isinstance(state, PureState):
        raise CircuitExecutionError(
            f"line {line}: cannot expand a mixed state"
        )
    return tensor(state, relabel_cycles(state, None, delta))


def run_program_oracle(program):
    """The gate-by-gate circuit interpreter on the object primitives:
    every step builds a PureState or a validated DensityOperator, a
    discard forms the reduced density matrix with partial_trace, and the
    expansion shift is worked out again from the register at each gate.
    Returns (ExecutionReport, final state) like run_program."""
    gates = {"x": pauli_x, "h": hadamard}
    state = None
    result = None
    for d in program.directives:
        if isinstance(d, Prepare):
            reg = Register((SlotId(d.site, d.cycle),),
                           (3 if d.kind == "vac" else 2,))
            fresh = PureState(reg, [1.0, 0.0, 0.0] if d.kind == "vac"
                              else [d.amp0, d.amp1])
            state = fresh if state is None else tensor(state, fresh)
        elif isinstance(d, Cnot):
            state = _oracle_ensure_cycle(state, [d.control, d.target],
                                         d.cycle, d.line)
            state = apply_gate(state, cnot(),
                               [SlotId(d.control, d.cycle),
                                SlotId(d.target, d.cycle)])
        elif isinstance(d, GateOp):
            state = _oracle_ensure_cycle(state, [d.site], d.cycle, d.line)
            gate = phase_gate(d.theta) if d.name == "phase" \
                else gates[d.name]()
            state = apply_gate(state, gate, [SlotId(d.site, d.cycle)])
        elif isinstance(d, Dilate):
            state = relabel_cycles(state, d.site, d.delta)
        elif isinstance(d, Discard):
            keep = [s for s in state.register.slots if s.site != d.site]
            state = partial_trace(state, keep)
        elif isinstance(d, Output):
            slot = SlotId(d.site, d.cycle)
            rho = partial_trace(state, [slot])
            result = ExecutionReport(
                slot, rho, joint_outcome_distribution(rho, [slot]),
                von_neumann_entropy(rho))
    return result, state
