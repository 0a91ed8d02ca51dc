import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from tdesim import (
    CorrelationMode,
    DensityOperator,
    PureState,
    QubitDensity,
    Register,
    SlotId,
    amplification_points,
    dilation_from_round_trip,
    displaced_expansion,
    format_circuit,
    joint_outcome_distribution,
    maximally_mixed,
    measure_at_cycle,
    nonlinear_map,
    purity,
    qubit_state,
    run_displaced_backend,
    run_entropy_study,
    run_fig1,
    run_no_signaling,
    run_proper_vs_improper,
    run_reverse,
    subadditivity_margin,
    to_density,
)
from tdesim.dynamics import free_expansion
from tdesim.registers import SPECTRAL_GAP

from conftest import (
    dense_project_oracle,
    einsum_partial_trace_oracle,
    expansion_oracle,
    random_density,
    random_pure,
    trace_norm_oracle,
)

H_QUARTER = 0.8112781244591328


def _pure_input(beta_sq, site="1"):
    return qubit_state(site, 0, np.sqrt(1.0 - beta_sq), np.sqrt(beta_sq))


def test_fig1_matches_closed_form_on_spot_inputs():
    for b2 in (0.0, 0.2, 0.5, 0.64, 1.0):
        rep = run_fig1(_pure_input(b2))
        want = nonlinear_map(QubitDensity(1.0 - b2, b2)).to_matrix()
        np.testing.assert_allclose(rep.rho_out.matrix, want, atol=1e-12)


def test_fig1_zero_input_is_fixed():
    rep = run_fig1(_pure_input(0.0))
    np.testing.assert_allclose(rep.rho_out.matrix, [[1, 0], [0, 0]],
                               atol=1e-15)


def test_fig1_balanced_input_gives_balanced_output():
    rep = run_fig1(_pure_input(0.5))
    np.testing.assert_allclose(rep.rho_out.matrix, np.eye(2) / 2,
                               atol=1e-12)


def test_fig1_four_slot_state_amplitudes():
    # two slot pairs carry the expanded history; the closing gate leaves
    # exactly four product terms with weights a^2, ab, ba, b^2
    a, b = 0.6, 0.8
    rep = run_fig1(qubit_state("1", 0, a, b))
    st = rep.four_slot_state
    reg = st.register
    assert reg.slots == (SlotId("1", 1), SlotId("2", 0),
                         SlotId("1", 2), SlotId("2", 1))
    terms = {(0, 0, 0, 0): a * a, (0, 0, 1, 1): a * b,
             (1, 1, 0, 1): b * a, (1, 1, 1, 0): b * b}
    for levels, amp in terms.items():
        got = st.amplitudes[np.ravel_multi_index(levels, reg.dims)]
        assert abs(got - amp) < 1e-12
    assert abs(purity(to_density(st)) - 1.0) < 1e-12


def test_fig1_rho_d_is_product_of_rho_s_marginals(rng):
    for _ in range(5):
        reg = Register((SlotId("1", 0),), (2,))
        rep = run_fig1(random_pure(rng, reg))
        dims = rep.rho_s.register.dims
        left = einsum_partial_trace_oracle(rep.rho_s.matrix, dims, [0])
        right = einsum_partial_trace_oracle(rep.rho_s.matrix, dims, [1])
        np.testing.assert_allclose(rep.rho_d.matrix, np.kron(left, right),
                                   atol=1e-12)


def test_fig1_entropy_report_keys():
    rep = run_fig1(_pure_input(0.3))
    assert set(rep.entropies) == {"input", "rho_s", "rho_d", "rho_out"}
    assert rep.entropies["input"] == 0.0
    assert abs(rep.entropies["rho_s"]) < 1e-12


def test_fig1_output_independent_of_tau():
    base = run_fig1(_pure_input(0.37), tau=1)
    for tau in (2, 3):
        rep = run_fig1(_pure_input(0.37), tau=tau)
        np.testing.assert_allclose(rep.rho_out.matrix, base.rho_out.matrix,
                                   atol=1e-12)
    with pytest.raises(ValueError):
        run_fig1(_pure_input(0.3), tau=0)


@pytest.mark.parametrize("tau", [1.7, 0.5, float("nan"), float("inf"),
                                 "2"])
def test_dilation_must_be_a_whole_number_of_cycles(tau):
    with pytest.raises(ValueError, match="whole number of cycles"):
        run_fig1(_pure_input(0.3), tau=tau)
    with pytest.raises(ValueError, match="whole number of cycles"):
        run_proper_vs_improper(tau=tau)


def test_integral_dilations_of_any_type_run():
    base = run_fig1(_pure_input(0.3), tau=2)
    for tau in (np.int64(2), np.int32(2), 2.0):
        rep = run_fig1(_pure_input(0.3), tau=tau)
        assert rep.tau == 2 and type(rep.tau) is int
        np.testing.assert_array_equal(rep.rho_out.matrix, base.rho_out.matrix)


def test_fig1_accepts_channel_density_input():
    rep = run_fig1(QubitDensity(0.25, 0.75))
    want = nonlinear_map(QubitDensity(0.25, 0.75)).to_matrix()
    np.testing.assert_allclose(rep.rho_out.matrix, want, atol=1e-12)


def test_fig1_takes_states_only():
    # a QubitDensity is a density on site "1", and runs as one
    q = QubitDensity(0.25, 0.75, 0.2 - 0.1j)
    for tau in (1, 2, 3):
        for mode in CorrelationMode:
            want = _report_bytes(run_fig1(q, tau, mode))
            assert _report_bytes(run_fig1(q.to_density(), tau, mode)) == want
            # the runner moves its input to cycle tau, so the cycle q is
            # put on changes no bit
            assert _report_bytes(
                run_fig1(q.to_density("1", tau), tau, mode)) == want


def test_fig1_mixed_input_uncorrelated_copies(rng):
    reg = Register((SlotId("1", 0),), (2,))
    rho = random_density(rng, reg)
    rep = run_fig1(rho, policy=CorrelationMode.UNCORRELATED_COPIES)
    qd = QubitDensity.from_matrix(rho.matrix)
    np.testing.assert_allclose(rep.rho_out.matrix,
                               nonlinear_map(qd).to_matrix(), atol=1e-12)


def _report_bytes(rep):
    """The bits of a CircuitReport's public fields."""
    states = (rep.input_state, rep.rho_s, rep.rho_d, rep.rho_out,
              rep.four_slot_state)
    return ([(s.register, s.matrix.tobytes(), s.eigenvalues.tobytes())
             for s in states], rep.entropies, rep.tau)


@pytest.mark.parametrize("dim", [2, 3])
def test_a_caller_density_is_decomposed_once(rng, monkeypatch, dim):
    # the eigen-pair _bind takes is kept on the density and carried to
    # the report's relabelled input, in both modes and at every tau
    rho = random_density(rng, Register((SlotId("1", 0),), (dim,)))
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: shapes.append(m.shape) or eigh(m))
    runs = [(tau, mode) for tau in (1, 2, 3) for mode in CorrelationMode]

    reports = [run_fig1(rho, tau, mode) for tau, mode in runs]

    assert shapes == [(dim, dim)]
    for rep in reports:
        assert rep.input_state._spectral is rho._spectral
    fresh = [run_fig1(DensityOperator(rho.register, rho.matrix), tau, mode)
             for tau, mode in runs]
    assert len(shapes) == 1 + len(runs)
    for rep, ref in zip(reports, fresh):
        assert _report_bytes(rep) == _report_bytes(ref)


def test_fig1_rejects_multi_slot_input(rng):
    reg = Register((SlotId("1", 0), SlotId("1", 1)), (2, 2))
    with pytest.raises(ValueError):
        run_fig1(random_pure(rng, reg))


def test_fig1_json_schema():
    body = run_fig1(_pure_input(0.5)).to_json_dict()
    assert set(body) == {"input", "rho_s", "rho_d", "rho_out", "entropies"}
    assert body["rho_out"]["slots"][0]["site"] == "2"


def test_reverse_recovers_input(rng):
    for b2 in (0.0, 0.25, 0.7, 1.0):
        rep = run_reverse(_pure_input(b2))
        assert abs(rep.fidelity - 1.0) < 1e-12
        assert abs(purity(rep.recovered) - 1.0) < 1e-12
        psi = rep.input_state.amplitudes
        np.testing.assert_allclose(rep.recovered.matrix,
                                   np.outer(psi, psi.conj()), atol=1e-12)


def test_reverse_slot_sits_one_dilation_late():
    rep = run_reverse(_pure_input(0.25), tau=2)
    assert rep.recovered_slot == SlotId("1", 4)
    assert abs(rep.fidelity - 1.0) < 1e-12


def test_reverse_preserves_purity_of_full_state():
    rep = run_reverse(_pure_input(0.3))
    assert abs(purity(to_density(rep.final_state)) - 1.0) < 1e-12


def test_reverse_rejects_mixed_input(rng):
    reg = Register((SlotId("1", 0),), (2,))
    with pytest.raises(ValueError):
        run_reverse(random_density(rng, reg))


def test_backend_is_linear_in_its_input(rng):
    reg = Register((SlotId("b", 0), SlotId("b", 1)), (2, 2))
    x, y = random_density(rng, reg), random_density(rng, reg)
    lam = 0.3
    mix = DensityOperator(reg, lam * x.matrix + (1 - lam) * y.matrix)
    out_mix = run_displaced_backend(mix)
    out_sep = lam * run_displaced_backend(x).matrix \
        + (1 - lam) * run_displaced_backend(y).matrix
    np.testing.assert_allclose(out_mix.matrix, out_sep, atol=1e-12)


def test_backend_register_validation(rng):
    reg = Register((SlotId("b", 0), SlotId("c", 1)), (2, 2))
    with pytest.raises(ValueError, match="two slots on one site"):
        run_displaced_backend(random_density(rng, reg))
    # the box's ancilla is site "c"
    reg2 = Register((SlotId("c", 0), SlotId("c", 1)), (2, 2))
    with pytest.raises(ValueError, match="ancilla site"):
        run_displaced_backend(random_density(rng, reg2))


def test_no_signaling_outputs_are_flat():
    for basis in ("computational", "diagonal"):
        rep = run_no_signaling(basis)
        assert rep.max_deviation <= 1e-12
        assert rep.substitution_deviation <= 1e-12
        for _, prob, out in rep.outcomes:
            assert abs(prob - 0.5) < 1e-12
            np.testing.assert_allclose(out.matrix, np.eye(2) / 2,
                                       atol=1e-12)
    with pytest.raises(ValueError):
        run_no_signaling("circular")


def test_no_signaling_json_schema():
    body = run_no_signaling("computational").to_json_dict()
    assert set(body) == {"basis", "outcomes", "average", "max_deviation",
                         "substitution_deviation"}
    assert [o["label"] for o in body["outcomes"]] == ["0", "1"]


def test_propriety_computational_ensemble_splits():
    rep = run_proper_vs_improper()
    assert abs(rep.trace_distance - 1.0) < 1e-12
    np.testing.assert_allclose(rep.proper_output.matrix, [[1, 0], [0, 0]],
                               atol=1e-12)
    np.testing.assert_allclose(rep.improper_output.matrix, np.eye(2) / 2,
                               atol=1e-12)


def test_propriety_diagonal_ensemble_agrees():
    ens = [(0.5, qubit_state("1", 0, 1.0, 1.0)),
           (0.5, qubit_state("1", 0, 1.0, -1.0))]
    rep = run_proper_vs_improper(ens)
    assert rep.trace_distance < 1e-12
    np.testing.assert_allclose(rep.proper_output.matrix, np.eye(2) / 2,
                               atol=1e-12)


def test_propriety_singleton_ensemble_is_degenerate():
    rep = run_proper_vs_improper([(1.0, qubit_state("1", 0, 1.0, 0.0))])
    assert rep.trace_distance < 1e-12
    np.testing.assert_allclose(rep.proper_output.matrix, [[1, 0], [0, 0]],
                               atol=1e-12)


def test_propriety_ensemble_validation(rng):
    with pytest.raises(ValueError):
        run_proper_vs_improper([])
    with pytest.raises(ValueError):
        run_proper_vs_improper([(0.5, qubit_state("1", 0, 1, 0))])
    reg = Register((SlotId("1", 0),), (2,))
    with pytest.raises(ValueError):
        run_proper_vs_improper([(1.0, random_density(rng, reg))])
    # branches at different cycles live on different registers
    with pytest.raises(ValueError, match="branch 1 lives on another"):
        run_proper_vs_improper([(0.5, qubit_state("1", 0, 1.0, 0.0)),
                                (0.5, qubit_state("1", 3, 0.0, 1.0))])


@pytest.mark.parametrize("bad", [float("nan"), -0.25, float("inf")])
def test_propriety_refuses_bad_weights_up_front(bad):
    ens = [(bad, qubit_state("1", 0, 1.0, 0.0)),
           (1.25, qubit_state("1", 0, 0.0, 1.0))]
    with pytest.raises(ValueError,
                       match=rf"^ensemble weight {bad!r} of branch 0 "):
        run_proper_vs_improper(ens)
    ens.reverse()
    with pytest.raises(ValueError, match=r"of branch 1 is not a finite"):
        run_proper_vs_improper(ens)


def test_entropy_study_trivial_point():
    rep = run_entropy_study(0.0, [0.0])
    vals = rep.points[0].values
    assert vals["S_in"] == 0.0
    assert vals["S_rho_d"] == 0.0
    assert vals["S_out"] == 0.0


def test_entropy_study_balanced_mixture():
    rep = run_entropy_study(0.5, [0.0, 0.25, 0.5])
    for p in rep.points:
        assert abs(p.values["S_in"] - 1.0) < 1e-12
        assert p.values["S_rho_d"] >= p.values["S_in"] - 1e-9
    mid = rep.points[-1].values
    assert abs(mid["S_rho_d"] - 2.0) < 1e-12
    assert abs(mid["S_out"] - H_QUARTER) < 1e-12
    assert 0.5 in rep.drop_points


def test_entropy_study_validation():
    with pytest.raises(ValueError):
        run_entropy_study(1.5, [0.0])
    with pytest.raises(ValueError):
        run_entropy_study(0.5, [2.0])
    with pytest.raises(ValueError):
        run_entropy_study(0.5, [0.0], tau=0)


def test_round_trip_dilation():
    assert dilation_from_round_trip(10.0, 0.0) == 0.0
    assert abs(dilation_from_round_trip(10.0, 0.8) - 4.0) < 1e-12
    assert abs(dilation_from_round_trip(1.0, 0.6) - 0.2) < 1e-12
    grid = np.linspace(0.0, 0.99, 50)
    lags = [dilation_from_round_trip(1.0, v) for v in grid]
    assert all(b > a for a, b in zip(lags, lags[1:]))
    with pytest.raises(ValueError):
        dilation_from_round_trip(1.0, 1.0)
    for duration, speed in ((-1.0, 0.5), (np.nan, 0.5), (np.inf, 0.5),
                            (1.0, np.nan), (1.0, -np.inf)):
        with pytest.raises(ValueError):
            dilation_from_round_trip(duration, speed)


@pytest.mark.parametrize("call, message", [
    (lambda: run_displaced_backend(None), "unsupported circuit input: "
     "NoneType"),
    (lambda: run_displaced_backend("x"), "unsupported circuit input: str"),
    (lambda: run_displaced_backend(np.nan), "unsupported circuit input: "
     "float"),
    (lambda: run_proper_vs_improper(np.nan), "an ensemble must be a "
     "sequence, got float"),
    (lambda: run_proper_vs_improper([None]), "ensemble branch 0 must be a "
     "sequence, got NoneType"),
    (lambda: run_proper_vs_improper([(None, _pure_input(0.5))]),
     "the weight of ensemble branch 0 must be a real number, got None"),
    (lambda: dilation_from_round_trip(None, 0.5), "the duration must be a "
     "real number, got None"),
    (lambda: dilation_from_round_trip(1.0, None), "the speed fraction must "
     "be a real number, got None"),
    (lambda: PureState(None, [1.0, 0.0]), "expected a Register, got NoneType"),
    (lambda: DensityOperator("x", [[1.0]]), "expected a Register, got str"),
    (lambda: maximally_mixed(np.nan), "expected a Register, got float"),
    (lambda: joint_outcome_distribution(None, [("1", 0)]),
     "not a state: NoneType"),
    (lambda: measure_at_cycle(None, 0), "not a state: NoneType"),
    (lambda: format_circuit(None), "expected a CircuitProgram, got NoneType"),
    (lambda: amplification_points(["x"]), "expected a CurvePoint, got str"),
    (lambda: amplification_points(run_entropy_study(0.5, [0.2]).points),
     "the curve point at beta\\^2=0.2 has no 'D_out' value"),
    (lambda: run_no_signaling([]), re.escape(
        "basis must be one of ['computational', 'diagonal'], got []")),
    (lambda: run_no_signaling(np.zeros(2)), re.escape(
        "basis must be one of ['computational', 'diagonal'], got "
        "array([0., 0.])")),
], ids=["backend-None", "backend-str", "backend-nan", "propriety-nan",
        "propriety-None-branch", "propriety-None-weight",
        "round-trip-None-duration", "round-trip-None-speed",
        "pure-state-register", "density-register", "maximally-mixed-register",
        "joint-outcomes-state", "measure-at-cycle-state",
        "format-circuit-program", "amplification-points-curve",
        "amplification-points-entropy-study", "no-signaling-list",
        "no-signaling-array"])
def test_runners_refuse_a_wrong_type_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("v", (1e-8, 1e-5, 1e-2, 0.6, 0.8))
def test_round_trip_dilation_keeps_its_precision_at_small_speeds(v):
    # 1 - sqrt(1 - v^2) cancels as v goes to 0: at v = 1e-8 it read
    # 1.11e-16 against T v^2 / 2 = 5e-17
    got = dilation_from_round_trip(1.0, v)
    assert type(got) is float
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(v)
        want = 1 - (1 - d * d).sqrt()
        assert abs(Decimal(got) - want) / want <= Decimal("1e-12")


def test_scenario_states_satisfy_subadditivity(rng):
    for b2 in (0.1, 0.5, 0.9):
        rep = run_fig1(_pure_input(b2))
        assert subadditivity_margin(rep.rho_s) >= -1e-9
        assert subadditivity_margin(rep.rho_d) >= -1e-9


PROPERTY_SETTINGS = settings(deadline=None, max_examples=25)


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3)),
       st.integers(1, 3))
def test_reverse_recovers_random_pure_inputs(seed, dim, tau):
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, Register((SlotId("1", 0),), (dim,)))
    rep = run_reverse(psi, tau=tau)
    assert abs(rep.fidelity - 1.0) <= 1e-12
    v = psi.amplitudes
    np.testing.assert_allclose(rep.recovered.matrix, np.outer(v, v.conj()),
                               atol=1e-12)


def _random_basis(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return np.linalg.qr(z)[0].T


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 3),
       st.sampled_from([None] + list(CorrelationMode)),
       st.booleans())
def test_backend_is_no_signaling_for_random_states_and_bases(
        seed, tau, mode, alice_late):
    # Alice measures one of her slots in a random projective basis; Bob's
    # outcome-averaged box output must equal the box on his unconditioned
    # two-cycle state (mode None draws a pure shared state).  The history
    # is the dense two-copy expansion, slots (a@0, b@0, a@tau, b@tau).
    rng = np.random.default_rng(seed)
    reg = Register((SlotId("a", tau), SlotId("b", tau)), (2, 2))
    shared = random_pure(rng, reg) if mode is None \
        else random_density(rng, reg)
    history = expansion_oracle(shared, 2, mode)
    bob = Register((SlotId("b", 0), SlotId("b", tau)), (2, 2))
    alice = 2 if alice_late else 0
    reference = run_displaced_backend(DensityOperator(
        bob, einsum_partial_trace_oracle(history, (2,) * 4, [1, 3])))
    for _ in range(2):
        average = np.zeros((2, 2), dtype=complex)
        for vec in _random_basis(rng):
            rest = dense_project_oracle(history, (2,) * 4, alice,
                                        np.outer(vec, vec.conj()))
            # Bob's slots among the three Alice's projection leaves
            left = einsum_partial_trace_oracle(
                rest, (2,) * 3, [1, 2] if alice_late else [0, 2])
            prob = np.trace(left).real
            out = run_displaced_backend(DensityOperator(bob, left / prob))
            average += prob * out.matrix
        assert trace_norm_oracle(average - reference.matrix) <= 1e-12


_COHERENT = CorrelationMode.COHERENT_HISTORY
_GAP_REFUSAL = (r"^two eigenvalues .* apart, under SPECTRAL_GAP = 0\.01, "
                r"leave coherent history undetermined; pass an explicit "
                r"\(weight, PureState\) ensemble$")


@pytest.mark.parametrize("rho", [
    maximally_mixed(Register((SlotId("1", 0),), (2,))),
    QubitDensity(0.5, 0.5),
    QubitDensity(0.504, 0.496),  # eigenvalues 8e-3 apart
    maximally_mixed(Register((SlotId("1", 0),), (3,))),
], ids=["I/2", "QubitDensity(0.5, 0.5)", "gap-8e-3", "I/3"])
def test_coherent_history_refuses_an_undetermined_eigenbasis(rho):
    # eigh's basis of a degenerate spectrum is arbitrary: I/2 used to give
    # |0><0|, and I/2 with a 1e-9 coherence gives I/2
    with pytest.raises(ValueError, match=_GAP_REFUSAL):
        run_fig1(rho, policy=_COHERENT)
    with pytest.raises(ValueError, match=_GAP_REFUSAL):
        free_expansion(rho, [0, 1], policy=_COHERENT)
    out = run_fig1(rho, policy=CorrelationMode.UNCORRELATED_COPIES)
    if rho.dim == 2:
        # N(rho) of its populations
        want = nonlinear_map(QubitDensity.from_matrix(rho.matrix))
        np.testing.assert_allclose(out.rho_out.matrix, want.to_matrix(),
                                   rtol=0, atol=1e-12)


def test_coherent_history_refuses_a_degenerate_pair():
    pair = maximally_mixed(Register((SlotId("1", 0), SlotId("2", 0)),
                                    (2, 2)))
    with pytest.raises(ValueError, match=_GAP_REFUSAL):
        displaced_expansion(pair, 1, "1", policy=_COHERENT)
    displaced_expansion(pair, 1, "1",
                        policy=CorrelationMode.UNCORRELATED_COPIES)


@pytest.mark.parametrize("amps, proper", [
    (((1.0, 0.0), (0.0, 1.0)), np.diag([1.0, 0.0])),
    (((1.0, 1.0), (1.0, -1.0)), np.eye(2) / 2),
], ids=["computational", "diagonal"])
def test_an_explicit_ensemble_of_i_over_2_runs_under_both_modes(amps,
                                                                proper):
    # the ensemble says which branches are copied whole, so the coherent
    # output is defined, and the two ensembles of I/2 give different ones
    ensemble = [(0.5, qubit_state("1", 0, a0, a1)) for a0, a1 in amps]
    rep = run_proper_vs_improper(ensemble)
    np.testing.assert_allclose(rep.proper_output.matrix, proper, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(rep.improper_output.matrix, np.eye(2) / 2,
                               rtol=0, atol=1e-12)
    for mode in CorrelationMode:
        out = free_expansion(ensemble, [0, 1], policy=mode)
        np.testing.assert_allclose(out.matrix,
                                   expansion_oracle(ensemble, 2, mode),
                                   rtol=0, atol=1e-12)


def _coherent_history_oracle(m: np.ndarray) -> np.ndarray:
    """sum_i lambda_i N(|v_i><v_i|) over scipy's eigenpairs of a qubit
    density, with N(v) = diag(|v0|^4 + |v1|^4, 2 |v0|^2 |v1|^2)."""
    vals, vecs = sla.eigh(m)
    p0, p1 = abs(vecs[0]) ** 2, abs(vecs[1]) ** 2
    return np.diag([vals @ (p0 ** 2 + p1 ** 2), vals @ (2.0 * p0 * p1)])


@PROPERTY_SETTINGS
@given(st.floats(SPECTRAL_GAP * (1 + 1e-9), 1.0), st.floats(0.0, np.pi),
       st.floats(0.0, 2 * np.pi), st.integers(1, 3))
def test_coherent_history_is_the_eigenvalue_weighted_map(radius, theta, phi,
                                                         tau):
    # a qubit density of Bloch radius r has eigenvalues (1 +- r)/2, so
    # every radius drawn meets SPECTRAL_GAP
    bloch = radius * np.array([np.sin(theta) * np.cos(phi),
                               np.sin(theta) * np.sin(phi), np.cos(theta)])
    m = 0.5 * np.array([[1 + bloch[2], bloch[0] - 1j * bloch[1]],
                        [bloch[0] + 1j * bloch[1], 1 - bloch[2]]])
    rho = DensityOperator(Register((SlotId("1", tau),), (2,)), m)
    rep = run_fig1(rho, tau=tau, policy=_COHERENT)
    np.testing.assert_allclose(rep.rho_out.matrix,
                               _coherent_history_oracle(m), rtol=0,
                               atol=1e-12)


_SITES = st.one_of(st.from_regex(r"[A-Za-z0-9_]{1,8}", fullmatch=True),
                   st.text(max_size=4))


@PROPERTY_SETTINGS
@given(_SITES, st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_no_runner_refuses_a_state_the_library_built(site, cycle, seed):
    # a runner compiles its circuit on the input's site: a state refuses
    # a site the circuit language does not read, so no runner raises
    # CircuitParseError (run_fig1 of qubit_state("a b", ...) raised "line
    # 0: bad site name 'a b'")
    try:
        one = Register((SlotId(site, cycle),), (2,))
    except ValueError as exc:
        assert str(exc).startswith("a site is a name of ASCII letters")
        return
    rng = np.random.default_rng(seed)
    psi, rho = random_pure(rng, one), random_density(rng, one)
    run_fig1(psi)
    run_fig1(rho)
    run_reverse(psi)
    run_proper_vs_improper([(0.5, psi), (0.5, random_pure(rng, one))])
    pair = random_density(rng, Register(
        (SlotId(site, cycle), SlotId(site, cycle + 1)), (2, 2)))
    if site == "c":  # the box's ancilla
        with pytest.raises(ValueError, match="ancilla site"):
            run_displaced_backend(pair)
    else:
        run_displaced_backend(pair)
