"""Property tests: the axis-contraction kernels against dense references.

apply_gate, partial_trace and project work on the state tensor in place.
These tests draw random registers of qubits and qutrits, random states,
gates, target orders, keep sets and outcomes, and compare every result
with the dense kron / einsum oracles in conftest to 1e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tdesim import (
    DensityOperator,
    Gate,
    PureState,
    Register,
    SlotId,
    apply_gate,
    cnot,
    hadamard,
    partial_trace,
    project,
    to_density,
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


@st.composite
def states(draw):
    """A pure or mixed random state on 1-6 slots of dims 2 and 3."""
    dims = tuple(draw(st.lists(st.sampled_from((2, 3)),
                               min_size=1, max_size=6)))
    reg = Register(tuple(SlotId(f"s{i}", 0) for i in range(len(dims))),
                   dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_pure(rng, reg), rng
    return random_density(rng, reg), rng


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
