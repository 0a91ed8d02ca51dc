import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdesim import (
    CorrelationMode,
    CycleMisalignmentError,
    DensityOperator,
    PureState,
    Register,
    RegisterSizeError,
    SlotId,
    UnknownSlotError,
    ZeroProbabilityError,
    bell_phi_plus,
    displaced_expansion,
    joint_outcome_distribution,
    maximally_mixed,
    measure_at_cycle,
    qubit_state,
    subadditivity_margin,
    to_density,
)
from tdesim import dsl, dynamics, scenarios
from tdesim.dynamics import (
    Gate,
    apply_gate,
    cnot,
    ensemble_density,
    free_expansion,
    hadamard,
    pauli_x,
    phase_gate,
    project,
    spectral_ensemble,
)
from tdesim.registers import ATOL, SPECTRAL_GAP, partial_trace, tensor

from conftest import (
    expansion_oracle,
    random_density,
    random_pure,
    two_qubit_register,
)

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def test_gate_requires_unitary():
    with pytest.raises(ValueError):
        Gate("bad", [[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        Gate("bad", np.ones((3, 3)))
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            Gate("bad", [[value, 0.0], [0.0, 1.0]])


def test_standard_gates():
    np.testing.assert_array_equal(cnot().matrix, CNOT)
    np.testing.assert_allclose(
        hadamard().matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    )
    np.testing.assert_array_equal(pauli_x().matrix, [[0, 1], [1, 0]])
    ph = phase_gate(np.pi / 3)
    np.testing.assert_allclose(
        ph.matrix, np.diag([1.0, np.exp(1j * np.pi / 3)])
    )


def test_gate_constructors_read_the_languages_matrices():
    # the language's table and the object path's gates are one set of
    # arrays, bit for bit, each unitary
    def same_bits(a, b):
        return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes())

    for name, make in (("cnot", cnot), ("x", pauli_x), ("h", hadamard)):
        matrix = dsl._GATE_MATRICES[name]
        assert same_bits(make().matrix, matrix)
        assert not matrix.flags.writeable
        deviation = np.abs(matrix @ matrix.conj().T - np.eye(len(matrix)))
        assert deviation.max() <= ATOL
    for theta in (0.0, np.pi, -np.pi / 3, 1.3, 10.0):
        assert same_bits(phase_gate(theta).matrix, dsl._phase_matrix(theta))


def test_fixed_gates_are_shared_and_read_only():
    for make in (cnot, pauli_x, hadamard):
        gate = make()
        assert make() is gate
        assert not gate.matrix.flags.writeable
        with pytest.raises(ValueError):
            gate.matrix[0, 0] = 2.0


def test_apply_gate_matches_dense_matrix(rng):
    reg = two_qubit_register()
    psi = random_pure(rng, reg)
    out = apply_gate(psi, cnot(), [("1", 0), ("2", 0)])
    np.testing.assert_allclose(out.amplitudes, CNOT @ psi.amplitudes,
                               atol=1e-12)

    rho = random_density(rng, reg)
    out_d = apply_gate(rho, cnot(), [("1", 0), ("2", 0)])
    np.testing.assert_allclose(
        out_d.matrix, CNOT @ rho.matrix @ CNOT.conj().T, atol=1e-12
    )


def test_apply_gate_reversed_targets(rng):
    # control on the second register slot, so the dense matrix is the
    # CNOT conjugated by the factor swap
    reg = two_qubit_register()
    psi = random_pure(rng, reg)
    out = apply_gate(psi, cnot(), [("2", 0), ("1", 0)])
    swap = np.eye(4)[[0, 2, 1, 3]]
    np.testing.assert_allclose(
        out.amplitudes, swap @ CNOT @ swap @ psi.amplitudes, atol=1e-12
    )


def test_apply_gate_errors(rng):
    reg = two_qubit_register()
    psi = random_pure(rng, reg)
    with pytest.raises(CycleMisalignmentError):
        joint = tensor(psi, qubit_state("3", 1, 1.0, 0.0))
        apply_gate(joint, cnot(), [("1", 0), ("3", 1)])
    with pytest.raises(UnknownSlotError):
        apply_gate(psi, cnot(), [("1", 0), ("9", 0)])
    with pytest.raises(ValueError):
        apply_gate(psi, cnot(), [("1", 0), ("1", 0)])
    with pytest.raises(ValueError):
        apply_gate(psi, cnot(), [("1", 0)])


def test_vacuum_transparency():
    # gates act on the logical block only; the vacuum component rides along
    psi = PureState(Register((SlotId("1", 0),), (3,)), [1.0, 0.0, 0.0])
    flipped = apply_gate(psi, pauli_x(), [("1", 0)])
    np.testing.assert_allclose(flipped.amplitudes, psi.amplitudes)

    lifted = apply_gate(PureState(psi.register, [0.0, 0.6, 0.8]), pauli_x(),
                        [("1", 0)])
    np.testing.assert_allclose(lifted.amplitudes, [0.0, 0.8, 0.6],
                               atol=1e-15)


def test_cnot_with_dim3_control_keeps_vacuum_branch():
    vac = PureState(Register((SlotId("1", 0),), (3,)), [1.0, 0.0, 0.0])
    tgt = qubit_state("2", 0, 1.0, 0.0)
    out = apply_gate(tensor(vac, tgt), cnot(), [("1", 0), ("2", 0)])
    reduced = partial_trace(out, [SlotId("2", 0)])
    np.testing.assert_allclose(reduced.matrix, [[1, 0], [0, 0]], atol=1e-15)


def test_free_expansion_pure_is_product_of_relabeled_copies(rng):
    reg = Register((SlotId("a", 0),), (2,))
    psi = random_pure(rng, reg)
    out = free_expansion(psi, [0, 2, 5])
    assert out.register.slots == (SlotId("a", 0), SlotId("a", 2),
                                  SlotId("a", 5))
    want = np.kron(np.kron(psi.amplitudes, psi.amplitudes), psi.amplitudes)
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_free_expansion_refuses_cycles_that_are_not_whole():
    psi = qubit_state("a", 0, 0.6, 0.8)
    for cycles in ([0, 1.7], [0.5], [0, float("nan")]):
        with pytest.raises(ValueError, match="whole numbers, got"):
            free_expansion(psi, cycles)
    with pytest.raises(ValueError, match="got 1.7"):
        free_expansion(psi, [0, 1.7])
    # a whole number in another type is a cycle
    out = free_expansion(psi, [np.int64(0), 2.0])
    assert out.register.slots == (SlotId("a", 0), SlotId("a", 2))


def test_expansions_check_the_size_limit_before_allocating():
    def qubits(n):
        return Register(tuple(SlotId(f"q{i}", 0) for i in range(n)),
                        (2,) * n)

    # three copies of a 7-qubit density: a 2^21-dimensional density
    # matrix holds 64 TiB
    rho = maximally_mixed(qubits(7))
    for mode in CorrelationMode:
        with pytest.raises(RegisterSizeError, match="density matrix"):
            free_expansion(rho, [0, 1, 2], policy=mode)
    # three copies of a 12-qubit pure state: 2^36 amplitudes, 1 TiB
    psi = PureState(qubits(12), np.arange(2**12) == 0)
    with pytest.raises(RegisterSizeError, match="pure state"):
        free_expansion(psi, [0, 1, 2])


def test_free_expansion_mixed_needs_explicit_mode(rng):
    # a density and an ensemble are both mixed: neither is expanded under
    # a mode nobody chose
    reg = Register((SlotId("a", 0),), (2,))
    rho = random_density(rng, reg)
    ensemble = [(0.5, qubit_state("a", 0, 1.0, 0.0)),
                (0.5, qubit_state("a", 0, 0.0, 1.0))]
    for state in (rho, ensemble):
        with pytest.raises(ValueError, match="explicit correlation mode"):
            free_expansion(state, [0, 1])


def test_free_expansion_correlation_modes():
    reg = Register((SlotId("a", 0),), (2,))
    rho = DensityOperator(reg, [[0.75, 0.0], [0.0, 0.25]])
    unc = free_expansion(rho, [0, 1],
                         policy=CorrelationMode.UNCORRELATED_COPIES)
    np.testing.assert_allclose(unc.matrix, np.kron(rho.matrix, rho.matrix),
                               atol=1e-12)

    coh = free_expansion(rho, [0, 1],
                         policy=CorrelationMode.COHERENT_HISTORY)
    want = 0.75 * np.diag([1.0, 0, 0, 0]) + 0.25 * np.diag([0, 0, 0, 1.0])
    np.testing.assert_allclose(coh.matrix, want, atol=1e-12)
    # a mode may also be given as its string value
    for mode, out in (("uncorrelated-copies", unc), ("coherent-history", coh)):
        np.testing.assert_array_equal(
            free_expansion(rho, [0, 1], policy=mode).matrix, out.matrix)
    with pytest.raises(ValueError):
        free_expansion(rho, [0, 1], policy="coherent")


def test_free_expansion_ensemble_branches():
    branches = [(0.5, qubit_state("a", 0, 1.0, 0.0)),
                (0.5, qubit_state("a", 0, 0.0, 1.0))]
    coh = free_expansion(branches, [0, 1],
                         policy=CorrelationMode.COHERENT_HISTORY)
    want = 0.5 * np.diag([1.0, 0, 0, 0]) + 0.5 * np.diag([0, 0, 0, 1.0])
    np.testing.assert_allclose(coh.matrix, want, atol=1e-12)
    with pytest.raises(ValueError):
        free_expansion([], [0, 1],
                       policy=CorrelationMode.COHERENT_HISTORY)
    bad = [(0.9, qubit_state("a", 0, 1.0, 0.0))]
    with pytest.raises(ValueError):
        free_expansion(bad, [0, 1],
                       policy=CorrelationMode.COHERENT_HISTORY)
    # branches at different cycles live on different registers
    mixed_cycles = [(0.5, qubit_state("a", 0, 1.0, 0.0)),
                    (0.5, qubit_state("a", 3, 0.0, 1.0))]
    for mode in CorrelationMode:
        with pytest.raises(ValueError, match="another register"):
            free_expansion(mixed_cycles, [0, 1], policy=mode)


@pytest.mark.parametrize("mode", list(CorrelationMode))
@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
def test_expansions_refuse_non_finite_weights(weight, mode):
    # NaN fails every comparison, so without its own check a NaN weight
    # would pass the sign and sum checks and its branch be dropped
    single = [(weight, qubit_state("a", 0, 1.0, 0.0)),
              (1.0, qubit_state("a", 0, 0.0, 1.0))]
    with pytest.raises(ValueError, match="not a finite nonnegative number"):
        free_expansion(single, [0, 1], policy=mode)
    pairs = [(weight, bell_phi_plus("1", "2", 1)),
             (1.0, PureState(two_qubit_register(cycle=1), [0, 1, 0, 0]))]
    with pytest.raises(ValueError, match="not a finite nonnegative number"):
        displaced_expansion(pairs, 1, dilated_site="1", policy=mode)


def test_displaced_expansion_slot_layout(rng):
    psi = bell_phi_plus("1", "2", 3)
    out = displaced_expansion(psi, 2, dilated_site="1")
    assert out.register.slots == (
        SlotId("1", 3), SlotId("2", 1), SlotId("1", 5), SlotId("2", 3)
    )
    base = psi.amplitudes
    np.testing.assert_allclose(out.amplitudes, np.kron(base, base),
                               atol=1e-12)


def test_displaced_expansion_errors(rng):
    psi = bell_phi_plus("1", "2", 1)
    for tau in (0, 1.9, 2.5):
        with pytest.raises(ValueError, match="dilation must be"):
            displaced_expansion(psi, tau, dilated_site="1")
    with pytest.raises(UnknownSlotError):
        displaced_expansion(psi, 1, dilated_site="7")
    rho = to_density(psi)
    with pytest.raises(ValueError):
        displaced_expansion(rho, 1, dilated_site="1")


def test_displaced_expansion_coherent_equals_spectral_mixture(rng):
    reg = two_qubit_register(cycle=1)
    rho = random_density(rng, reg)
    coh = displaced_expansion(rho, 1, dilated_site="1",
                              policy=CorrelationMode.COHERENT_HISTORY)
    acc = None
    for w, psi in spectral_ensemble(rho):
        term = to_density(displaced_expansion(psi, 1, dilated_site="1"))
        acc = w * term.matrix if acc is None else acc + w * term.matrix
    np.testing.assert_allclose(coh.matrix, acc, atol=1e-12)


def _random_input(rng, kind, reg, mode):
    """A pure state, a density or an ensemble of 1-4 branches on reg.  A
    density under COHERENT_HISTORY is redrawn until its eigenvalues lie
    SPECTRAL_GAP apart, as that mode requires."""
    if kind == "pure":
        return random_pure(rng, reg)
    if kind == "density":
        rho = random_density(rng, reg)
        while mode is CorrelationMode.COHERENT_HISTORY and \
                np.diff(rho.eigenvalues).min() < SPECTRAL_GAP:
            rho = random_density(rng, reg)
        return rho
    k = int(rng.integers(1, 5))
    return list(zip(rng.dirichlet(np.ones(k)).tolist(),
                    [random_pure(rng, reg) for _ in range(k)]))


def _check_against_oracle(out, state, copies, mode, register):
    assert out.register == register
    if isinstance(state, PureState):
        assert isinstance(out, PureState)
        want = functools.reduce(np.kron, [state.amplitudes] * copies)
        np.testing.assert_allclose(out.amplitudes, want, rtol=0, atol=1e-12)
    else:
        assert isinstance(out, DensityOperator)
        np.testing.assert_allclose(out.matrix,
                                   expansion_oracle(state, copies, mode),
                                   rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("pure", "density",
                                                   "ensemble")),
       st.sampled_from((2, 3)), st.sampled_from((2, 3)), st.integers(1, 3),
       st.sampled_from(list(CorrelationMode)))
def test_expansions_match_the_dense_oracle(seed, kind, dim, dim_b, copies,
                                           mode):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(0, 4))
    # free_expansion: copies at distinct cycles, given in any order
    state = _random_input(rng, kind, Register((SlotId("a", t),), (dim,)),
                          mode)
    cycles = rng.choice(8, size=copies, replace=False).tolist()
    out = free_expansion(state, cycles, policy=mode)
    _check_against_oracle(out, state, copies, mode, Register(
        tuple(SlotId("a", c) for c in sorted(cycles)), (dim,) * copies))
    # displaced_expansion of a pair on sites 1 and 2: copy A pulls the
    # undilated site back by tau, copy B is copy A pushed forward by tau
    tau = int(rng.integers(1, 4))
    site = ("1", "2")[int(rng.integers(0, 2))]
    pair = _random_input(rng, kind, Register((("1", t), ("2", t)),
                                             (dim, dim_b)), mode)
    out = displaced_expansion(pair, tau, site, policy=mode)
    copy_a = tuple(SlotId(s, t if s == site else t - tau) for s in "12")
    copy_b = tuple(SlotId(s.site, s.cycle + tau) for s in copy_a)
    _check_against_oracle(out, pair, 2, mode, Register(
        copy_a + copy_b, (dim, dim_b) * 2))


def _site_marginals(matrix, dims):
    """The two one-site reduced states of a two-site density matrix."""
    t = matrix.reshape(dims + dims)
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3)),
       st.sampled_from((2, 3)), st.integers(1, 3), st.sampled_from("12"),
       st.sampled_from(("pure", "mixed")),
       st.sampled_from(list(CorrelationMode)))
def test_a_displaced_pair_reads_out_as_the_product_of_its_marginals(
        seed, dim_1, dim_2, tau, site, kind, mode):
    # the decoherence law: at the pair's cycle the dilated site's slot
    # comes from one copy and the other site's from the other, so the
    # read-out is rho_dilated (x) rho_other, mixed over the eigenbranches
    # under coherent history; the oracle is numpy alone
    rng = np.random.default_rng(seed)
    dims, d = (dim_1, dim_2), dim_1 * dim_2
    t = int(rng.integers(0, 4))
    reg = Register((SlotId("1", t), SlotId("2", t)), dims)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rank = int(rng.integers(1, d + 1))
    coherent = kind == "mixed" and mode is CorrelationMode.COHERENT_HISTORY
    if kind == "pure":
        v = z[:, 0] / np.linalg.norm(z[:, 0])
        state, rho = PureState(reg, v), np.outer(v, v.conj())
    elif coherent:
        # rank eigenvalues at least 0.7 / 47.7 apart on a random basis,
        # which SPECTRAL_GAP admits
        w = np.zeros(d)
        w[:rank] = rng.permutation(rank) + 1 + rng.uniform(0.0, 0.3, rank)
        w /= w.sum()
        assert np.diff(np.sort(w[:rank])).min(initial=1.0) >= SPECTRAL_GAP
        u = np.linalg.qr(z)[0]
        state = DensityOperator(reg, (u * w) @ u.conj().T)
        rho = state.matrix
    else:
        a = z[:, :rank]
        state = DensityOperator(reg, a @ a.conj().T / np.vdot(a, a).real)
        rho = state.matrix
    read_out = measure_at_cycle(
        displaced_expansion(state, tau, site, policy=mode), t)
    first = 0 if site == "1" else 1
    assert read_out.register == Register(
        (SlotId(site, t), SlotId("21"[first], t)),
        (dims[first], dims[1 - first]))
    if coherent:
        vals, vecs = np.linalg.eigh(rho)
        branches = [(w, np.outer(v, v.conj())) for w, v in zip(vals, vecs.T)]
    else:
        branches = [(1.0, rho)]
    want = 0
    for w, p in branches:
        marginals = _site_marginals(p, dims)
        want = want + w * np.kron(marginals[first], marginals[1 - first])
    np.testing.assert_allclose(read_out.matrix, want, rtol=0, atol=1e-12)
    if not coherent:  # no correlation between the slots survives
        assert abs(subadditivity_margin(read_out)) < 1e-12


def test_measure_at_cycle_filters_slots():
    psi = bell_phi_plus("1", "2", 1)
    exp = displaced_expansion(psi, 1, dilated_site="1")
    rho = measure_at_cycle(exp, 1)
    assert rho.register.slots == (SlotId("1", 1), SlotId("2", 1))
    np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-12)
    with pytest.raises(UnknownSlotError):
        measure_at_cycle(exp, 9)


@pytest.mark.parametrize("cycle", [0.7, "x", "1", None])
def test_measure_at_cycle_needs_a_whole_cycle(cycle):
    # the rule SlotId applies; 0.7 used to read as cycle 0
    psi = bell_phi_plus("1", "2", 0)
    with pytest.raises(ValueError, match="^a cycle must be a whole number, "):
        measure_at_cycle(psi, cycle)
    whole = measure_at_cycle(psi, np.int64(0)).matrix
    assert measure_at_cycle(psi, 0.0).matrix.tobytes() == whole.tobytes()


def test_project_born_rule(rng):
    reg = two_qubit_register()
    psi = random_pure(rng, reg)
    probs = []
    for outcome in (0, 1):
        m = project(psi, ("1", 0), outcome)
        probs.append(m.probability)
        assert m.post_state.register.slots == (SlotId("2", 0),)
    assert abs(sum(probs) - 1.0) < 1e-12

    rho = to_density(psi)
    for outcome in (0, 1):
        mp = project(psi, ("1", 0), outcome)
        md = project(rho, ("1", 0), outcome)
        assert abs(mp.probability - md.probability) < 1e-12
        np.testing.assert_allclose(
            to_density(mp.post_state).matrix, md.post_state.matrix,
            atol=1e-12,
        )


def test_project_vector_and_projector_outcomes():
    psi = bell_phi_plus("1", "2", 0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    m = project(psi, ("1", 0), plus, label="+")
    assert m.label == "+"
    assert abs(m.probability - 0.5) < 1e-12
    np.testing.assert_allclose(
        to_density(m.post_state).matrix, np.outer(plus, plus), atol=1e-12
    )

    proj = np.outer(plus, plus)
    m2 = project(psi, ("1", 0), proj)
    assert abs(m2.probability - 0.5) < 1e-12
    with pytest.raises(ValueError):
        project(psi, ("1", 0), np.array([[0.5, 0.0], [0.0, 0.7]]))


def test_project_single_slot_leaves_no_state():
    psi = qubit_state("1", 0, 0.6, 0.8)
    m = project(psi, ("1", 0), 1)
    assert abs(m.probability - 0.64) < 1e-12
    assert m.post_state is None


def test_project_zero_probability():
    psi = qubit_state("1", 0, 1.0, 0.0)
    with pytest.raises(ZeroProbabilityError):
        project(psi, ("1", 0), 1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_project_refuses_a_non_finite_outcome_vector(value):
    # NaN passes the zero-norm test, so the vector is checked before it is
    # normalized and the error names the outcome, not the state
    with pytest.raises(ValueError,
                       match=r"outcome vector \[.*\] is not finite"):
        project(bell_phi_plus("a", "b", 0), ("a", 0), [value, 1.0])


def test_project_renormalizes(rng):
    reg = two_qubit_register()
    psi = random_pure(rng, reg)
    m = project(psi, ("1", 0), 0)
    assert abs(np.linalg.norm(m.post_state.amplitudes) - 1.0) < 1e-12


def test_joint_outcome_distribution(rng):
    reg = Register((SlotId("a", 0), SlotId("b", 0)), (3, 2))
    rho = random_density(rng, reg)
    dist = joint_outcome_distribution(rho, reg.slots)
    assert set(dist) == {"v0", "v1", "00", "01", "10", "11"}
    assert abs(sum(dist.values()) - 1.0) < 1e-12
    np.testing.assert_allclose(
        sorted(dist.values()),
        sorted(np.diag(rho.matrix).real),
        atol=1e-12,
    )


def test_joint_distribution_of_one_slot_is_its_diagonal(rng):
    for dim, labels in ((2, ["0", "1"]), (3, ["v", "0", "1"])):
        reg = Register((SlotId("a", 0),), (dim,))
        for state in (random_density(rng, reg), random_pure(rng, reg)):
            dist = joint_outcome_distribution(state, reg.slots)
            assert list(dist) == labels
            want = np.diag(to_density(state).matrix).real
            np.testing.assert_allclose(list(dist.values()), want, atol=1e-15)


def test_joint_distribution_reads_the_state(rng, spectrum_sizes):
    # no reduced state is built: the distribution is the state's own
    # diagonal, summed over the other slots, with no further spectrum
    reg = Register((SlotId("a", 0), SlotId("b", 1)), (3, 2))
    rho, psi = random_density(rng, reg), random_pure(rng, reg)
    wants = [np.diag(to_density(st).matrix).real for st in (rho, psi)]
    assert spectrum_sizes  # the counter saw the states above checked
    spectrum_sizes.clear()
    for state, want in zip((rho, psi), wants):
        for slots in (reg.slots, reg.slots[::-1]):
            dist = joint_outcome_distribution(state, slots)
            np.testing.assert_allclose(list(dist.values()), want, atol=1e-15)
            assert list(dist) == ["v0", "v1", "00", "01", "10", "11"]
    assert not spectrum_sizes
    # a subset of the slots, in any order, is the reduced state's diagonal
    for state in (rho, psi):
        for slots in ([reg.slots[0]], [reg.slots[1]]):
            want = np.diag(partial_trace(state, slots).matrix).real
            spectrum_sizes.clear()
            dist = joint_outcome_distribution(state, slots)
            assert not spectrum_sizes
            np.testing.assert_allclose(list(dist.values()), want, atol=1e-15)
    assert list(joint_outcome_distribution(rho, [reg.slots[1]])) == ["0", "1"]
    with pytest.raises(UnknownSlotError):
        joint_outcome_distribution(rho, [SlotId("a", 0), SlotId("c", 1)])
    with pytest.raises(ValueError, match="repeats"):
        joint_outcome_distribution(rho, [reg.slots[0], reg.slots[0]])
    with pytest.raises(ValueError, match="at least one"):
        joint_outcome_distribution(rho, [])


def test_spectral_ensemble_reconstructs(rng):
    reg = two_qubit_register()
    rho = random_density(rng, reg)
    acc = sum(
        w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        for w, psi in spectral_ensemble(rho)
    )
    np.testing.assert_allclose(acc, rho.matrix, atol=1e-12)


def test_ensemble_density_weighted_sum():
    branches = [(0.25, qubit_state("a", 0, 1.0, 0.0)),
                (0.75, qubit_state("a", 0, 0.0, 1.0))]
    rho = ensemble_density(branches)
    np.testing.assert_allclose(rho.matrix, np.diag([0.25, 0.75]),
                               atol=1e-15)


def test_each_ensemble_is_checked_once_per_call(monkeypatch):
    # a second check renormalizes the weights again, which moves outputs
    # by roundoff
    calls = []
    for module in (dynamics, scenarios):
        monkeypatch.setattr(module, "_checked_ensemble",
                            lambda e, real=module._checked_ensemble:
                            calls.append(e) or real(e))
    single = [(0.3, qubit_state("1", 1, 1.0, 0.0)),
              (0.7, qubit_state("1", 1, 0.6, 0.8))]
    pairs = [(0.5, bell_phi_plus("1", "2", 1)),
             (0.5, PureState(two_qubit_register(cycle=1), [0, 1, 0, 0]))]
    runs = [lambda: ensemble_density(single),
            lambda: scenarios.run_proper_vs_improper(single)]
    for mode in CorrelationMode:
        runs += [lambda m=mode: free_expansion(single, [0, 1], policy=m),
                 lambda m=mode: displaced_expansion(pairs, 1, "1", policy=m)]
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == 1


def test_ensemble_density_checks_the_ensemble_as_the_expansions_do():
    zero = qubit_state("a", 0, 1.0, 0.0)
    # a negative weight that cancels to |0><0|, and weights short of 1
    for bad in ([(1.5, zero), (-0.5, zero)], [(0.9, zero)]):
        with pytest.raises(ValueError, match="ensemble weight"):
            ensemble_density(bad)
        for mode in CorrelationMode:
            with pytest.raises(ValueError, match="ensemble weight"):
                free_expansion(bad, [0, 1], policy=mode)


def test_basis_state_round_trip_through_gates():
    reg = Register((SlotId("a", 0), SlotId("b", 0)), (2, 2))
    psi = PureState(reg, [0, 0, 1, 0])
    out = apply_gate(psi, cnot(), [("a", 0), ("b", 0)])
    np.testing.assert_array_equal(out.amplitudes, [0, 0, 0, 1])


def test_maximally_mixed_is_gate_invariant(rng):
    reg = two_qubit_register()
    rho = maximally_mixed(reg)
    out = apply_gate(rho, cnot(), [("1", 0), ("2", 0)])
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)
