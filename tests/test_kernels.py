"""Property tests: the state operations against dense references.

Every state operation runs on the executor's row kernels: a density
enters as the rows it keeps, those it was built from or its spectral
rows from one eigh.  These tests draw random registers of qubits and
qutrits, random pure, mixed and rank-deficient states, densities built
from rows, gates, target orders, keep sets, slot orders and outcomes, and
compare every result with np.kron, einsum, np.outer and the dense
oracles in conftest to 1e-12.  The roundoff rule is pinned too: a
density's eigenvalues that validation lets through (down to -1e-10) are
dropped and the rest renormalized, in every operation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tdesim import (
    DensityOperator,
    PureState,
    Register,
    SlotId,
    qubit_state,
    to_density,
)
from tdesim.dynamics import (
    Gate,
    apply_gate,
    cnot,
    ensemble_density,
    hadamard,
    pauli_x,
    project,
)
from tdesim.registers import (
    _from_rows,
    _rows,
    gram_density,
    partial_trace,
    permute_slots,
    tensor,
)

from conftest import (
    dense_gate_oracle,
    dense_project_oracle,
    einsum_partial_trace_oracle,
    random_density,
    random_pure,
)

TOL = 1e-12
KERNEL_SETTINGS = settings(deadline=None)


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _register(dims, site="s"):
    return Register(tuple(SlotId(f"{site}{i}", 0) for i in range(len(dims))),
                    tuple(dims))


def _rank_deficient(rng, register):
    """A density of rank 1 or 2 from random vectors: its zero eigenvalues
    come out of eigh as roundoff of either sign."""
    n = register.dim
    rank = int(rng.integers(1, 3))
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = a @ a.conj().T
    return DensityOperator(register, m / np.trace(m))


def _built(rng, register):
    """A density built from 1 to d random rows (gram_density), which it
    keeps and every operation reads in place of an eigh."""
    n = register.dim
    k = int(rng.integers(1, n + 1))
    f = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return gram_density(register, f / np.linalg.norm(f))


def _random_state(draw, register, rng):
    kind = draw(st.sampled_from((random_pure, random_density,
                                 _rank_deficient, _built)))
    return kind(rng, register)


DIMS = st.lists(st.sampled_from((2, 3)), min_size=1, max_size=6)


@st.composite
def states(draw):
    """A pure, mixed or rank-deficient random state on 1-6 slots of dims
    2 and 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_state(draw, _register(draw(DIMS)), rng), rng


def _dense(state):
    if isinstance(state, PureState):
        return state.amplitudes
    return state.matrix


@KERNEL_SETTINGS
@given(states(), st.data())
def test_apply_gate_matches_dense_operator(drawn, data):
    state, rng = drawn
    n = len(state.register.slots)
    arity = data.draw(st.sampled_from((1, 2) if n > 1 else (1,)))
    targets = data.draw(st.permutations(range(n)))[:arity]
    if arity == 1:
        gate = data.draw(st.sampled_from(
            (hadamard(), Gate("u1", _random_unitary(rng, 2)))))
    else:
        gate = data.draw(st.sampled_from(
            (cnot(), Gate("u2", _random_unitary(rng, 4)))))

    out = apply_gate(state, gate,
                     [state.register.slots[t] for t in targets])

    assert type(out) is type(state)
    assert out.register == state.register
    expected = dense_gate_oracle(_dense(state), state.register.dims,
                                 gate.matrix, targets)
    np.testing.assert_allclose(_dense(out), expected, atol=TOL, rtol=0)


@KERNEL_SETTINGS
@given(states(), st.data())
def test_partial_trace_matches_einsum(drawn, data):
    state, _ = drawn
    slots = state.register.slots
    keep = data.draw(st.lists(st.sampled_from(range(len(slots))),
                              min_size=1, unique=True))

    reduced = partial_trace(state, [slots[k] for k in keep])

    assert isinstance(reduced, DensityOperator)
    assert reduced.register.slots == tuple(slots[k] for k in sorted(keep))
    expected = einsum_partial_trace_oracle(
        to_density(state).matrix, state.register.dims, keep)
    np.testing.assert_allclose(reduced.matrix, expected, atol=TOL, rtol=0)


@st.composite
def outcomes(draw, dim, rng):
    """A basis level, a random amplitude vector or a random projector on
    a slot of the given dimension."""
    kind = draw(st.sampled_from(("level", "vector", "projector")))
    if kind == "level":
        return draw(st.sampled_from(("vac", 0, 1) if dim == 3 else (0, 1)))
    if kind == "vector":
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    rank = draw(st.integers(1, dim - 1))
    q = _random_unitary(rng, dim)[:, :rank]
    return q @ q.conj().T


def _projector(outcome, dim):
    if isinstance(outcome, np.ndarray) and outcome.ndim == 2:
        return outcome
    if isinstance(outcome, np.ndarray):
        v = outcome / np.linalg.norm(outcome)
    else:
        v = np.zeros(dim, dtype=complex)
        v[0 if outcome == "vac" else int(outcome) + dim - 2] = 1.0
    return np.outer(v, v.conj())


@KERNEL_SETTINGS
@given(states(), st.data())
def test_project_matches_dense_projection(drawn, data):
    state, rng = drawn
    reg = state.register
    pos = data.draw(st.integers(0, len(reg.slots) - 1))
    dim = reg.dims[pos]
    outcome = data.draw(outcomes(dim, rng))

    result = project(state, reg.slots[pos], outcome)

    block = dense_project_oracle(to_density(state).matrix, reg.dims, pos,
                                 _projector(outcome, dim))
    p = float(np.trace(block).real)
    assert abs(result.probability - p) <= TOL
    if len(reg.slots) == 1:
        assert result.post_state is None
        return
    assert result.post_state.register.slots == \
        reg.slots[:pos] + reg.slots[pos + 1:]
    np.testing.assert_allclose(
        result.probability * to_density(result.post_state).matrix, block,
        atol=TOL, rtol=0)


@KERNEL_SETTINGS
@given(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=6),
       st.integers(0, 2**32 - 1), st.data())
def test_tensor_permute_and_densities_match_dense_references(dims, seed,
                                                             data):
    rng = np.random.default_rng(seed)
    split = data.draw(st.integers(1, len(dims) - 1))
    a = _random_state(data.draw, _register(dims[:split], "a"), rng)
    b = _random_state(data.draw, _register(dims[split:], "b"), rng)

    ab = tensor(a, b)
    assert ab.register.slots == a.register.slots + b.register.slots
    assert ab.register.dims == tuple(dims)
    if isinstance(a, PureState) and isinstance(b, PureState):
        assert isinstance(ab, PureState)
        np.testing.assert_allclose(
            ab.amplitudes, np.kron(a.amplitudes, b.amplitudes), atol=TOL,
            rtol=0)
    else:
        assert isinstance(ab, DensityOperator)
        np.testing.assert_allclose(
            ab.matrix, np.kron(_matrix(a), _matrix(b)), atol=TOL, rtol=0)

    # a permutation that ignored `order` would pass a round trip
    n = len(dims)
    perm = data.draw(st.permutations(range(n)))
    moved = permute_slots(ab, [ab.register.slots[p] for p in perm])
    assert type(moved) is type(ab)
    assert moved.register.slots == tuple(ab.register.slots[p] for p in perm)
    assert moved.register.dims == tuple(dims[p] for p in perm)
    if isinstance(ab, PureState):
        want = ab.amplitudes.reshape(dims).transpose(perm).reshape(-1)
        np.testing.assert_allclose(moved.amplitudes, want, atol=TOL, rtol=0)
    else:
        want = ab.matrix.reshape(tuple(dims) * 2).transpose(
            list(perm) + [p + n for p in perm]).reshape(ab.dim, ab.dim)
        np.testing.assert_allclose(moved.matrix, want, atol=TOL, rtol=0)

    for state in (a, b, ab):
        rho = to_density(state)
        if isinstance(state, DensityOperator):
            assert rho is state
        else:
            np.testing.assert_allclose(rho.matrix, _matrix(state), atol=TOL,
                                       rtol=0)

    k = data.draw(st.integers(1, 4))
    branches = [random_pure(rng, ab.register) for _ in range(k)]
    weights = rng.dirichlet(np.ones(k))
    mixed = ensemble_density(list(zip(weights, branches)))
    assert mixed.register == ab.register
    np.testing.assert_allclose(
        mixed.matrix, sum(w * _matrix(psi) for w, psi in zip(weights,
                                                             branches)),
        atol=TOL, rtol=0)


def _matrix(state):
    """The density matrix of a state, from np.outer for a pure one."""
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return state.matrix


def test_roundoff_eigenvalues_are_dropped_in_every_operation():
    # diag(1 + 5e-11, -5e-11) passes validation; every operation drops
    # its -5e-11 eigenvalue and renormalizes, so it acts as |0><0|, 5e-11
    # away from what the matrix itself would give
    a0, b0 = SlotId("a", 0), SlotId("b", 0)
    near = np.diag([1.0 + 5e-11, -5e-11])
    rho = DensityOperator(Register((a0,), (2,)), near)
    one = qubit_state("b", 0, 0.0, 1.0)
    pair = DensityOperator(Register((a0, b0), (2, 2)),
                           np.kron(near, np.diag([0.0, 1.0])))
    zero_one = np.diag([0.0, 1.0, 0.0, 0.0])

    np.testing.assert_allclose(apply_gate(rho, pauli_x(), [a0]).matrix,
                               np.diag([0.0, 1.0]), atol=TOL, rtol=0)
    np.testing.assert_allclose(tensor(rho, one).matrix, zero_one, atol=TOL,
                               rtol=0)
    np.testing.assert_allclose(partial_trace(pair, [a0]).matrix,
                               np.diag([1.0, 0.0]), atol=TOL, rtol=0)
    np.testing.assert_allclose(permute_slots(pair, [a0, b0]).matrix,
                               zero_one, atol=TOL, rtol=0)
    for slot, outcome, post in ((a0, 0, np.diag([0.0, 1.0])),
                                (b0, 1, np.diag([1.0, 0.0]))):
        result = project(pair, slot, outcome)
        assert abs(result.probability - 1.0) <= TOL
        np.testing.assert_allclose(result.post_state.matrix, post, atol=TOL,
                                   rtol=0)
    assert abs(project(rho, a0, 0).probability - 1.0) <= TOL


@KERNEL_SETTINGS
@given(DIMS, st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_a_density_reads_back_the_rows_it_was_built_from(dims, n, seed):
    # up to d rows are kept bit for bit; more fall back to at most d
    # spectral rows of the same density
    rng = np.random.default_rng(seed)
    reg = _register(dims)
    shape = (1, n) + reg.dims
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows /= np.linalg.norm(rows)

    rho = _from_rows(reg, rows, False)
    out = _rows(rho)

    if n <= reg.dim:
        assert not out.flags.writeable
        assert out.shape == rows.shape
        assert out.tobytes() == rows.tobytes()
    else:
        assert out.shape[1] <= reg.dim
        f = out.reshape(out.shape[1], reg.dim)
        np.testing.assert_allclose(f.T @ f.conj(), rho.matrix, atol=TOL,
                                   rtol=0)
