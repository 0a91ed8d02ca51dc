"""The paper's scenarios as compiled dsl circuits on the batched executor.

Factored mixed inputs, batches of states, stacked reversal and the
stacked no-signaling box are checked against the dense oracles in
conftest.py on random inputs.
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
    run_displaced_backend,
    run_fig1,
    run_no_signaling,
    run_proper_vs_improper,
    run_reverse,
    to_density,
)
from tdesim import dsl
from tdesim.registers import _SITE_RE
from tdesim.scenarios import (
    _MIXED_COLUMNS,
    _box,
    _fig1_circuit,
    _reversal,
    _readout,
    grid_reports,
    reverse_reports,
)

from conftest import (
    dense_gate_oracle,
    dense_project_oracle,
    displaced_box_oracle,
    displaced_cnot_density_oracle,
    einsum_partial_trace_oracle,
    random_density,
    random_pure,
)

TOL = 1e-12
PROPERTY_SETTINGS = settings(deadline=None, max_examples=25)
SEEDS = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("tau", (1, 2))
def test_plan_cnots_are_the_dense_gates(dim, tau):
    # the circuit's two gathers: the opening CNOT on the pair and the
    # closing one on the four-slot register
    circuit = _fig1_circuit(dim, tau, "1")
    gathers = [s for s in circuit.plan.steps if s.kind == "gather"]
    assert [s.kind for s in circuit.segments[1]] == ["expand"]
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    for dims, step, pos in (((dim, 2), gathers[0], [0, 1]),
                            (circuit.plan.register.dims, gathers[1],
                             [0, 3])):
        basis = np.eye(int(np.prod(dims)))
        dense = np.array([dense_gate_oracle(e, dims, cnot, pos)
                          for e in basis]).T
        assert step.operand is None
        assert not step.perm.flags.writeable
        np.testing.assert_array_equal(basis[step.perm], dense)
    assert not any(s.operand.flags.writeable for s in circuit.plan.steps
                   if s.kind == "prepare")
    assert _fig1_circuit(dim, tau, "1") is circuit


def test_cnot_permutation_rejects_a_block_that_is_no_permutation(
        monkeypatch):
    # a lifted CNOT block that is not exactly 0/1 would give wrong gather
    # indices, so compiling the circuit raises instead of reading it off
    lift = dsl._lift_logical
    monkeypatch.setattr(dsl, "_lift_logical",
                        lambda matrix, dims: 0.5 * lift(matrix, dims))
    dsl._lifted_gate.cache_clear()
    try:
        with pytest.raises(InvariantViolationError, match="permutation"):
            _fig1_circuit.__wrapped__(2, 1, "1")
    finally:
        monkeypatch.undo()
        dsl._lifted_gate.cache_clear()


def _factor_rows(rho):
    """Rows sqrt(w) v of a density's eigendecomposition: one state."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    return np.sqrt(np.clip(vals, 0.0, None)) * vecs


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from((2, 3)), st.integers(1, 3),
       st.sampled_from(("1", "2", "q")), st.integers(1, 4))
def test_density_rows_match_the_dense_oracle(seed, dim, tau, site, n):
    rng = np.random.default_rng(seed)
    reg = Register((SlotId(site, tau),), (dim,))
    rhos = [random_density(rng, reg) for _ in range(n)]
    rows = np.array([_factor_rows(r).T for r in rhos])
    ro = _readout(_fig1_circuit, (dim, tau, site), dim, _MIXED_COLUMNS)
    _, stacks = ro.products(rows)
    for i, rho in enumerate(rhos):
        pair, rho_d, closed, rho_out = displaced_cnot_density_oracle(rho, tau)
        for got, got_reg, want in zip(ro.columns(stacks), ro.registers,
                                      (pair, rho_d, rho_out, closed)):
            np.testing.assert_allclose(got[i], want.matrix, atol=TOL)
            assert got_reg == want.register

    rep = run_fig1(rhos[0], tau=tau,
                   policy=CorrelationMode.UNCORRELATED_COPIES)
    pair, rho_d, closed, rho_out = displaced_cnot_density_oracle(rhos[0], tau)
    for got, want in ((rep.rho_s, pair), (rep.rho_d, rho_d),
                      (rep.four_slot_state, closed), (rep.rho_out, rho_out)):
        np.testing.assert_allclose(got.matrix, want.matrix, atol=TOL)
        assert got.register == want.register
    assert rep.input_state.matrix is rhos[0].matrix


@PROPERTY_SETTINGS
@given(SEEDS, st.integers(1, 4), st.integers(1, 3), st.sampled_from((2, 3)),
       st.integers(1, 3))
def test_batched_states_match_single_runs_and_the_oracle(seed, b, n, dim,
                                                         tau):
    # B states of N rows each run together; each state is the sum of its
    # rows' projectors and must come out as it does alone
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((b, n, dim)) \
        + 1j * rng.standard_normal((b, n, dim))
    rows /= np.linalg.norm(rows, axis=(1, 2), keepdims=True)
    ro = _readout(_fig1_circuit, (dim, tau, "1"), n, _MIXED_COLUMNS[1:])
    _, stacks = ro.products(rows)
    reg = Register((SlotId("1", tau),), (dim,))
    for i in range(b):
        _, one = ro.products(rows[i:i + 1])
        rho = DensityOperator(reg, rows[i].T @ rows[i].conj())
        _, want_d, closed, want_out = displaced_cnot_density_oracle(rho, tau)
        for got, alone, want in zip(ro.columns(stacks), ro.columns(one),
                                    (want_d, want_out, closed)):
            np.testing.assert_allclose(got[i], alone[0], atol=TOL)
            np.testing.assert_allclose(got[i], want.matrix, atol=TOL)


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from((2, 3)), st.integers(1, 3), st.integers(1, 5))
def test_propriety_outputs_match_the_oracle(seed, dim, tau, k):
    # an improper ensemble of more branches than the dimension is folded
    # to d rows, which must keep the averaged state
    rng = np.random.default_rng(seed)
    reg = Register((SlotId("1", tau),), (dim,))
    ensemble = list(zip(rng.dirichlet(np.ones(k)).tolist(),
                        (random_pure(rng, reg) for _ in range(k))))
    rep = run_proper_vs_improper(ensemble, tau=tau)
    average = sum(w * np.outer(psi.amplitudes, psi.amplitudes.conj())
                  for w, psi in ensemble)
    improper = displaced_cnot_density_oracle(DensityOperator(reg, average),
                                             tau)[3]
    proper = sum(w * displaced_cnot_density_oracle(to_density(psi),
                                                   tau)[3].matrix
                 for w, psi in ensemble)
    np.testing.assert_allclose(rep.improper_output.matrix, improper.matrix,
                               atol=TOL)
    np.testing.assert_allclose(rep.proper_output.matrix, proper, atol=TOL)
    assert rep.improper_output.register == improper.register


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


@pytest.mark.parametrize("mode", list(CorrelationMode))
def test_density_input_reports_a_density_four_slot_state(mode):
    # a rank-1 density factors into one row, yet its report stays a
    # density report, as in both modes for any other density input
    reg = Register((SlotId("1", 0),), (2,))
    psi = PureState(reg, np.array([0.6, 0.8j]))
    for rho in (to_density(psi),
                DensityOperator(reg, np.diag([1.0 + 5e-11, -5e-11]))):
        rep = run_fig1(rho, policy=mode)
        assert isinstance(rep.four_slot_state, DensityOperator)
        np.testing.assert_allclose(np.trace(rep.four_slot_state.matrix),
                                   1.0, atol=TOL)


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
    # the Bell pair at cycle tau and its copy at cycle 0, on
    # (a@0, b@0, a@tau, b@tau); Alice measures a@tau
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    shared = np.kron(np.outer(bell, bell), np.outer(bell, bell))
    bob = Register((SlotId("b", 0), SlotId("b", tau)), (2, 2))
    vecs = {"computational": ((1, 0), (0, 1)),
            "diagonal": ((1, 1), (1, -1))}[basis]
    for (label, prob, out), vec in zip(rep.outcomes, vecs):
        v = np.array(vec) / np.linalg.norm(vec)
        block = dense_project_oracle(shared, (2, 2, 2, 2), 2,
                                     np.outer(v, v))
        p = float(np.trace(block).real)
        rho_bob = einsum_partial_trace_oracle(block / p, (2, 2, 2), [1, 2])
        want = displaced_box_oracle(DensityOperator(bob, rho_bob))
        assert abs(prob - p) <= TOL
        np.testing.assert_allclose(out.matrix, want.matrix, atol=TOL)
        assert out.register == want.register
    rb = einsum_partial_trace_oracle(bell, (2, 2), [1])
    sub_in = DensityOperator(bob, np.kron(rb, rb))
    np.testing.assert_allclose(rep.substitution_output.matrix,
                               displaced_box_oracle(sub_in).matrix,
                               atol=TOL)


@PROPERTY_SETTINGS
@given(SEEDS, st.sampled_from(((2, 2), (2, 3), (3, 2), (3, 3))),
       st.integers(-3, 3), st.integers(1, 3), st.booleans(), st.booleans(),
       st.sampled_from(("b", "z")))
def test_box_matches_object_path(seed, dims, c0, gap, late_first, pure,
                                 site):
    rng = np.random.default_rng(seed)
    slots = [SlotId(site, c0), SlotId(site, c0 + gap)]
    if late_first:
        slots.reverse()
    reg = Register(tuple(slots), dims)
    state = random_pure(rng, reg) if pure else random_density(rng, reg)
    got = run_displaced_backend(state)
    want = displaced_box_oracle(state)
    np.testing.assert_allclose(got.matrix, want.matrix, atol=TOL)
    assert got.register == want.register


def test_scenario_plans_use_sites_the_language_accepts():
    # every slot a scenario circuit holds could be written in a program
    plans = [compile_circuit(dim, tau, site).plan
             for compile_circuit in (_fig1_circuit, _reversal)
             for dim in (2, 3) for tau in (1, 2, 3)
             for site in ("1", "2", "q")]
    plans += [_box(Register((SlotId("x", c0), SlotId("x", c1)), dims)).plan
              for dims in ((2, 2), (2, 3), (3, 2), (3, 3))
              for c0, c1 in ((0, 1), (3, 1))]
    for plan in plans:
        for step in plan.steps:
            for site, _ in step.slots:
                assert _SITE_RE.match(site), site
