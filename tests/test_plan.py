"""The compiled displaced-CNOT plan and the row paths built on it.

Density rows, stacked reversal and the stacked no-signaling box are
checked against the object primitives (the oracles in conftest.py) on
random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdesim import (
    CorrelationMode,
    DensityOperator,
    InvariantViolationError,
    PureState,
    Register,
    SlotId,
    bell_phi_plus,
    free_expansion,
    partial_trace,
    project,
    run_displaced_backend,
    run_fig1,
    run_no_signaling,
    run_reverse,
    to_density,
)
from tdesim import scenarios
from tdesim.scenarios import (
    _psd_part,
    circuit_plan,
    displaced_cnot_density_rows,
    grid_reports,
    reverse_reports,
)

from conftest import (
    dense_gate_oracle,
    displaced_box_oracle,
    displaced_cnot_density_oracle,
    random_density,
    random_pure,
)

TOL = 1e-12
PROPERTY_SETTINGS = settings(deadline=None, max_examples=25)
SEEDS = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("tau", (1, 2))
def test_plan_cnots_are_the_dense_gates(dim, tau):
    plan = circuit_plan(dim, tau, "1")
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    for reg, perm, pos in ((plan.pair_register, plan.pair_cnot, [0, 1]),
                           (plan.four_register, plan.four_cnot, [0, 3])):
        basis = np.eye(reg.dim)
        dense = np.array([dense_gate_oracle(e, reg.dims, cnot, pos)
                          for e in basis]).T
        np.testing.assert_array_equal(basis[perm], dense)
        assert not perm.flags.writeable
    assert circuit_plan(dim, tau, "1") is plan


def test_cnot_permutation_rejects_a_block_that_is_no_permutation(
        monkeypatch):
    # a lifted block that is not exactly 0/1 would give wrong gather
    # indices, so it raises instead of being read off
    reg = Register((SlotId("1", 1), SlotId("2", 1)), (2, 2))
    gate_block = scenarios._gate_block

    def halved(reg, gate, targets):
        block, axes = gate_block(reg, gate, targets)
        return 0.5 * block, axes

    monkeypatch.setattr(scenarios, "_gate_block", halved)
    with pytest.raises(InvariantViolationError, match="permutation"):
        scenarios._cnot_permutation(reg, reg.slots)


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from((2, 3)), st.integers(1, 3),
       st.sampled_from(("1", "2", "q")), st.integers(1, 4))
def test_density_rows_match_object_path(seed, dim, tau, site, n):
    rng = np.random.default_rng(seed)
    reg = Register((SlotId(site, tau),), (dim,))
    rhos = [random_density(rng, reg) for _ in range(n)]
    rows = displaced_cnot_density_rows([r.matrix for r in rhos], tau, site)
    for i, rho in enumerate(rhos):
        pair, rho_d, closed, rho_out = displaced_cnot_density_oracle(rho, tau)
        np.testing.assert_allclose(rows.pair[i], pair.matrix, atol=TOL)
        np.testing.assert_allclose(rows.rho_d[i], rho_d.matrix, atol=TOL)
        np.testing.assert_allclose(rows.four[i], closed.matrix, atol=TOL)
        np.testing.assert_allclose(rows.rho_out[i], rho_out.matrix, atol=TOL)
        assert rows.plan.four_register == closed.register
        assert rows.plan.readout_register == rho_d.register
        assert rows.plan.output_register == rho_out.register

    rep = run_fig1(rhos[0], tau=tau,
                   policy=CorrelationMode.UNCORRELATED_COPIES)
    pair, rho_d, closed, rho_out = displaced_cnot_density_oracle(rhos[0], tau)
    for got, want in ((rep.rho_s, pair), (rep.rho_d, rho_d),
                      (rep.four_slot_state, closed), (rep.rho_out, rho_out)):
        np.testing.assert_allclose(got.matrix, want.matrix, atol=TOL)
        assert got.register == want.register
    assert rep.input_state.matrix is rhos[0].matrix


@pytest.mark.parametrize("mode", list(CorrelationMode))
def test_input_with_roundoff_eigenvalue_runs_in_both_modes(mode):
    # DensityOperator accepts the -5e-11 eigenvalue; the uncorrelated
    # copies of the raw matrix used to push rho_out below the -1e-10
    # floor, so the input is projected onto the PSD cone first
    reg = Register((SlotId("1", 0),), (2,))
    rho = DensityOperator(reg, np.diag([1.0 + 5e-11, -5e-11]))
    rep = run_fig1(rho, policy=mode)
    np.testing.assert_allclose(rep.rho_out.matrix, np.diag([1.0, 0.0]),
                               atol=TOL)


def test_psd_projection_leaves_full_rank_inputs_untouched(rng):
    reg = Register((SlotId("1", 0),), (3,))
    rho = random_density(rng, reg)
    assert _psd_part(rho) is rho.matrix


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from((2, 3)), st.integers(1, 3),
       st.integers(1, 6))
def test_stacked_reversal_is_exact(seed, dim, tau, n):
    rng = np.random.default_rng(seed)
    reg = Register((SlotId("1", tau),), (dim,))
    psis = [random_pure(rng, reg) for _ in range(n)]
    reports = reverse_reports([p.amplitudes for p in psis], tau, "1")
    for psi, rep in zip(psis, reports):
        v = psi.amplitudes
        assert abs(rep.fidelity - 1.0) <= TOL
        np.testing.assert_allclose(rep.recovered.matrix,
                                   np.outer(v, v.conj()), atol=TOL)
        single = run_reverse(psi, tau=tau)
        np.testing.assert_allclose(rep.final_state.amplitudes,
                                   single.final_state.amplitudes, atol=TOL)
        assert rep.final_state.register == single.final_state.register
        assert rep.recovered_slot == single.recovered_slot == \
            SlotId("1", 2 * tau)


def test_reverse_grid_matches_single_runs():
    grid = np.linspace(0.0, 1.0, 7)
    for b2, rep in zip(grid, grid_reports(grid, 2, reverse_reports)):
        single = run_reverse(PureState(Register((SlotId("1", 0),), (2,)),
                                       [np.sqrt(1 - b2), np.sqrt(b2)]),
                             tau=2)
        assert abs(rep.fidelity - 1.0) <= TOL
        np.testing.assert_allclose(rep.recovered.matrix,
                                   single.recovered.matrix, atol=TOL)


@pytest.mark.parametrize("basis", ("computational", "diagonal"))
@pytest.mark.parametrize("tau", (1, 2, 3))
def test_stacked_no_signaling_box_matches_per_input_box(basis, tau):
    rep = run_no_signaling(basis, tau=tau)
    shared = free_expansion(bell_phi_plus("a", "b", tau), [0, tau])
    bob = [SlotId("b", 0), SlotId("b", tau)]
    vecs = {"computational": ((1, 0), (0, 1)),
            "diagonal": ((1, 1), (1, -1))}[basis]
    for (label, prob, out), vec in zip(rep.outcomes, vecs):
        m = project(shared, SlotId("a", tau), vec)
        want = displaced_box_oracle(partial_trace(m.post_state, bob), "b")
        assert abs(prob - m.probability) <= TOL
        np.testing.assert_allclose(out.matrix, want.matrix, atol=TOL)
        assert out.register == want.register
    rb = partial_trace(to_density(bell_phi_plus("a", "b", tau)),
                       [SlotId("b", tau)])
    sub_in = DensityOperator(Register(tuple(bob), (2, 2)),
                             np.kron(rb.matrix, rb.matrix))
    np.testing.assert_allclose(rep.substitution_output.matrix,
                               displaced_box_oracle(sub_in, "b").matrix,
                               atol=TOL)


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from(((2, 2), (2, 3), (3, 2), (3, 3))),
       st.integers(0, 3), st.integers(1, 3), st.booleans(), st.booleans(),
       st.sampled_from(("c", "z")))
def test_box_matches_object_path(seed, dims, c0, gap, late_first, pure,
                                 ancilla):
    rng = np.random.default_rng(seed)
    slots = [SlotId("b", c0), SlotId("b", c0 + gap)]
    if late_first:
        slots.reverse()
    reg = Register(tuple(slots), dims)
    state = random_pure(rng, reg) if pure else random_density(rng, reg)
    got = run_displaced_backend(state, "b", ancilla_site=ancilla)
    want = displaced_box_oracle(state, "b", ancilla)
    np.testing.assert_allclose(got.matrix, want.matrix, atol=TOL)
    assert got.register == want.register
