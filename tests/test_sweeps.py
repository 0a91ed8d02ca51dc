"""Stacked sweeps: grids and ensemble branches run through the
displaced-CNOT circuit as rows of one array, checked point by point
against the dense oracles in conftest, plus the row validation and the
circuit's read-out, which builds and checks all of a report's densities
in one stack padded to their largest dimension."""

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
    apply_gate,
    cnot,
    displaced_expansion,
    fig2_curves,
    free_expansion,
    measure_at_cycle,
    partial_trace,
    qubit_state,
    run_entropy_study,
    run_fig1,
    run_no_signaling,
    run_proper_vs_improper,
    run_reverse,
    run_sweep,
    tensor,
    to_density,
    von_neumann_entropy,
)
from tdesim import dsl, scenarios
from tdesim.registers import check_densities
from tdesim.scenarios import (
    ROW_BLOCK,
    _ENTROPY_KEYS,
    _densities,
    _fig1_circuit,
    _readout,
    _reversal,
)

from conftest import (
    displaced_cnot_density_oracle,
    displaced_cnot_oracle,
    entropy_oracle,
    random_density,
    random_pure,
    trace_norm_oracle,
)

TOL = 1e-12
GRID_POINTS = 1001
SWEEP_SETTINGS = settings(deadline=None, max_examples=3)


@st.composite
def grids(draw):
    """GRID_POINTS values of beta^2 in random order, both endpoints
    included, and a dilation of 1 to 3 cycles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.concatenate([[0.0, 1.0],
                           rng.uniform(0.0, 1.0, GRID_POINTS - 2)])
    rng.shuffle(grid)
    return [float(b) for b in grid], draw(st.integers(1, 3))


def _qubit(b2, dim=2):
    amps = np.zeros(dim, dtype=complex)
    amps[dim - 2:] = np.sqrt(1.0 - b2), np.sqrt(b2)
    return amps


@SWEEP_SETTINGS
@given(grids())
def test_fig2_sweep_matches_dense_oracle(drawn):
    grid, tau = drawn
    points = fig2_curves(grid, tau=tau)
    assert len(points) == GRID_POINTS
    ref_in = np.diag([1.0, 0.0])
    ref_out = displaced_cnot_oracle([1.0, 0.0])[2]
    for b2, p in zip(grid, points):
        amps = _qubit(b2)
        rho_out = displaced_cnot_oracle(amps)[2]
        assert p.beta_sq == b2
        assert p.values["D_in_paper"] == 2.0 * b2
        assert abs(p.values["D_in_tracenorm"]
                   - trace_norm_oracle(np.outer(amps, amps) - ref_in)) <= TOL
        assert abs(p.values["D_out"]
                   - trace_norm_oracle(rho_out - ref_out)) <= TOL


@SWEEP_SETTINGS
@given(grids(), st.sampled_from((0.0, 0.3, 0.5, 0.85, 1.0)))
def test_entropy_sweep_matches_dense_oracle(drawn, p_vac):
    grid, tau = drawn
    rep = run_entropy_study(p_vac, grid, tau=tau)
    assert len(rep.points) == GRID_POINTS
    vac = np.array([1.0, 0.0, 0.0])
    _, vac_d, vac_out, _ = displaced_cnot_oracle(vac)
    for b2, p in zip(grid, rep.points):
        amps = _qubit(b2, dim=3)
        _, rho_d, rho_out, _ = displaced_cnot_oracle(amps)
        want = {
            "S_in": p_vac * np.outer(vac, vac)
            + (1.0 - p_vac) * np.outer(amps, amps.conj()),
            "S_rho_d": p_vac * vac_d + (1.0 - p_vac) * rho_d,
            "S_out": p_vac * vac_out + (1.0 - p_vac) * rho_out,
        }
        assert p.beta_sq == b2
        for key, rho in want.items():
            assert abs(p.values[key] - entropy_oracle(rho)) <= TOL
    assert rep.drop_points == [
        p.beta_sq for p in rep.points
        if p.values["S_out"] < p.values["S_rho_d"] - 1e-12
    ]


@SWEEP_SETTINGS
@given(grids())
def test_sweep_reports_match_dense_oracle(drawn):
    grid, tau = drawn
    reports = run_sweep(grid, tau=tau)
    assert len(reports) == GRID_POINTS
    inputs = [_qubit(b2) for b2 in grid]
    want = list(zip(*(displaced_cnot_oracle(a) for a in inputs)))
    expected = {
        "input_state": [np.outer(a, a) for a in inputs],
        "rho_s": want[0], "rho_d": want[1], "rho_out": want[2],
    }
    for name, matrices in expected.items():
        np.testing.assert_allclose(
            [getattr(rep, name).matrix for rep in reports], matrices,
            atol=TOL)
    np.testing.assert_allclose(
        [rep.four_slot_state.amplitudes for rep in reports], want[3],
        atol=TOL)
    for rep, rho_out in zip(reports, want[2]):
        assert abs(rep.entropies["rho_out"] - entropy_oracle(rho_out)) \
            <= TOL
    assert reports[0].four_slot_state.register.slots == (
        SlotId("1", tau), SlotId("2", 0), SlotId("1", 2 * tau),
        SlotId("2", tau))


def test_sweep_point_equals_single_run():
    grid = np.linspace(0.0, 1.0, 2 * ROW_BLOCK + 3)
    reports = run_sweep(grid, tau=2)
    for i in (0, ROW_BLOCK - 1, ROW_BLOCK, len(grid) - 1):
        single = run_fig1(qubit_state("1", 0, np.sqrt(1.0 - grid[i]),
                                      np.sqrt(grid[i])), tau=2)
        for name in ("input_state", "rho_s", "rho_d", "rho_out"):
            np.testing.assert_allclose(getattr(reports[i], name).matrix,
                                       getattr(single, name).matrix,
                                       atol=TOL)
            assert getattr(reports[i], name).register == \
                getattr(single, name).register


def _invalid_rows():
    return {
        "not hermitian": np.array([[0.5, 0.5], [0.2, 0.5]]),
        "trace": np.diag([0.9, 0.3]),
        "negative eigenvalue": np.diag([1.2, -0.2]),
    }


@pytest.mark.parametrize("kind", sorted(_invalid_rows()))
def test_stack_with_one_invalid_row_raises(kind):
    reg = Register((SlotId("a", 0),), (2,))
    stack = np.array([np.eye(2) / 2.0] * 5, dtype=complex)
    stack[3] = _invalid_rows()[kind]
    with pytest.raises(InvariantViolationError, match=r"^row \(3,\): "):
        check_densities(stack)
    # the reversal's read-out has one qubit column
    ro = _readout(_reversal, (2, 1, "1"), 1, ("recovered",))
    with pytest.raises(InvariantViolationError, match=r"^row \(3,\): "):
        ro.check(stack[:, None])
    with pytest.raises(InvariantViolationError):
        DensityOperator(reg, stack[3])


def test_unnormalized_circuit_row_is_rejected():
    ro, stack = _densities([[1.0, 0.0], [0.6, 0.8], [1.0, 1.0]], 1,
                           _ENTROPY_KEYS)
    with pytest.raises(InvariantViolationError, match=r"^row \(2,\): trace"):
        ro.check(stack)


_REPORT_FIELDS = {"input": "input_state", "rho_s": "rho_s", "rho_d": "rho_d",
                  "rho_out": "rho_out"}


def test_validator_returns_the_spectrum_entropy_uses(rng):
    # each density a report returns keeps, read-only, the spectrum its
    # check computed, and its entropy is read off that spectrum
    for dim in (2, 3):
        reg = Register((SlotId("1", 0),), (dim,))
        reports = [run_fig1(random_pure(rng, reg), tau=2)]
        reports += [run_fig1(random_density(rng, reg), tau=2, policy=mode)
                    for mode in CorrelationMode]
        for rep in reports:
            for key, name in _REPORT_FIELDS.items():
                rho = getattr(rep, name)
                np.testing.assert_array_equal(rho.eigenvalues,
                                              np.linalg.eigvalsh(rho.matrix))
                assert rep.entropies[key] == von_neumann_entropy(rho)
                assert not rho.matrix.flags.writeable
                assert not rho.eigenvalues.flags.writeable


def _fig1_oracle(state, tau, mode):
    """displaced_cnot_density_oracle's matrices (rho_s, rho_d, closed,
    rho_out) for a run_fig1 input: under COHERENT_HISTORY those of the
    input's eigenbranches, mixed by their weights."""
    rho = to_density(state)
    if mode is CorrelationMode.UNCORRELATED_COPIES or \
            isinstance(state, PureState):
        return [o.matrix for o in displaced_cnot_density_oracle(rho, tau)]
    weights, vectors = np.linalg.eigh(rho.matrix)
    branches = [displaced_cnot_density_oracle(
        to_density(PureState(rho.register, v)), tau) for v in vectors.T]
    return [sum(w * b[i].matrix for w, b in zip(weights, branches))
            for i in range(4)]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 3)), st.integers(1, 3),
       st.booleans(), st.sampled_from(list(CorrelationMode)))
def test_padding_never_leaks_into_a_report(seed, dim, tau, pure, mode):
    # the read-out pads every column to the report's largest dimension:
    # no pad may show in a density, its spectrum or an entropy
    rng = np.random.default_rng(seed)
    reg = Register((SlotId("1", tau),), (dim,))
    state = random_pure(rng, reg) if pure else random_density(rng, reg)
    shapes = []
    entropy_bits = scenarios._entropy_bits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "_entropy_bits",
                   lambda vals: shapes.append(vals.shape)
                   or entropy_bits(vals))
        rep = run_fig1(state, tau=tau, policy=mode)
    assert len(shapes) == 1
    rho_s, rho_d, closed, rho_out = _fig1_oracle(state, tau, mode)
    want = {"input_state": to_density(state).matrix, "rho_s": rho_s,
            "rho_d": rho_d, "rho_out": rho_out}
    if not pure:
        want["four_slot_state"] = closed
    for name, matrix in want.items():
        rho = getattr(rep, name)
        d = rho.register.dim
        assert rho.matrix.shape == (d, d)
        assert rho.eigenvalues.shape == (d,)
        np.testing.assert_array_equal(rho.eigenvalues,
                                      check_densities(rho.matrix))
        np.testing.assert_allclose(rho.matrix, matrix, atol=TOL)
    if pure:
        amps = rep.four_slot_state.amplitudes
        np.testing.assert_allclose(np.outer(amps, amps.conj()), closed,
                                   atol=TOL)
    for key, name in _REPORT_FIELDS.items():
        assert abs(rep.entropies[key]
                   - von_neumann_entropy(getattr(rep, name))) <= TOL


@pytest.mark.parametrize("dim", (2, 3))
def test_coherent_history_rows_match_object_expansion(rng, dim):
    # with a non-degenerate spectrum the input's eigenbranches are the
    # pair's, so mixing rows equals expanding the pair's ensemble
    reg = Register((SlotId("1", 2),), (dim,))
    for _ in range(3):
        rho = random_density(rng, reg)
        rep = run_fig1(rho, tau=2, policy=CorrelationMode.COHERENT_HISTORY)
        pair = apply_gate(tensor(rho, qubit_state("2", 2, 1.0, 0.0)), cnot(),
                          [SlotId("1", 2), SlotId("2", 2)])
        expanded = displaced_expansion(
            pair, 2, "1", policy=CorrelationMode.COHERENT_HISTORY)
        closed = apply_gate(expanded, cnot(),
                            [SlotId("1", 2), SlotId("2", 2)])
        np.testing.assert_allclose(rep.rho_s.matrix, pair.matrix, atol=TOL)
        np.testing.assert_allclose(rep.rho_d.matrix,
                                   measure_at_cycle(expanded, 2).matrix,
                                   atol=TOL)
        np.testing.assert_allclose(rep.four_slot_state.matrix, closed.matrix,
                                   atol=TOL)
        np.testing.assert_allclose(
            rep.rho_out.matrix,
            partial_trace(closed, [SlotId("2", 2)]).matrix, atol=TOL)
        assert rep.four_slot_state.register == closed.register


def test_coherent_history_accepts_input_with_roundoff_eigenvalue():
    # DensityOperator accepts the -5e-11 eigenvalue; dropping it must not
    # leave the branch weights summing to 1 + 5e-11
    reg = Register((SlotId("1", 0),), (2,))
    rho = DensityOperator(reg, np.diag([1.0 + 5e-11, -5e-11]))
    rep = run_fig1(rho, policy=CorrelationMode.COHERENT_HISTORY)
    np.testing.assert_allclose(rep.rho_out.matrix, np.diag([1.0, 0.0]),
                               atol=TOL)


def test_ensemble_weights_off_by_roundoff_are_renormalized():
    ens = [(0.5 + 4e-10, qubit_state("1", 0, 1.0, 0.0)),
           (0.5, qubit_state("1", 0, 0.0, 1.0))]
    rep = run_proper_vs_improper(ens)
    assert abs(rep.trace_distance - 1.0) < 1e-9
    for mode in CorrelationMode:
        out = free_expansion(ens, [0, 1], policy=mode)
        assert abs(np.trace(out.matrix) - 1.0) <= TOL
    # a weight of -1e-13 is roundoff: both drop its branch
    ens = [(-1e-13, qubit_state("1", 0, 1.0, 0.0)),
           (1.0, qubit_state("1", 0, 0.0, 1.0))]
    rep = run_proper_vs_improper(ens)
    assert rep.trace_distance == 0.0
    np.testing.assert_allclose(rep.proper_output.matrix, np.diag([1.0, 0.0]),
                               atol=TOL)
    for mode in CorrelationMode:
        out = free_expansion(ens, [0, 1], policy=mode)
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 0, 0, 1.0]),
                                   atol=TOL)


# Every density the displaced-CNOT read-out can return.  With a qubit
# input one eigvalsh takes input with rho_out and one rho_s with rho_d;
# with a qutrit input only rho_s and rho_d share a dimension.
_ALL_COLUMNS = ("input", "rho_s", "rho_d", "rho_out", "four")


@st.composite
def circuit_rows(draw):
    """B = 1-4 states of N = 1-3 random rows, normalized per state, with a
    dimension of 2 or 3, a dilation of 1-3 cycles and an input site."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    dim = draw(st.sampled_from((2, 3)))
    rows = rng.standard_normal((b, n, dim)) \
        + 1j * rng.standard_normal((b, n, dim))
    rows /= np.linalg.norm(rows, axis=(1, 2), keepdims=True)
    return rows, draw(st.integers(1, 3)), draw(st.sampled_from(("1", "2",
                                                                "q")))


def _fig1_readout(rows, tau, site, names=_ALL_COLUMNS):
    key = (rows.shape[2], tau, site)
    return _fig1_circuit(*key), _readout(_fig1_circuit, key, rows.shape[1],
                                         names)


@settings(deadline=None, max_examples=40)
@given(circuit_rows())
def test_readout_densities_equal_their_factors_and_the_oracle(drawn):
    rows, tau, site = drawn
    circuit, ro = _fig1_readout(rows, tau, site)
    closed, stack = ro.products(rows)
    taps = [rows]
    for segment in circuit.segments:
        taps.append(dsl._run_steps(segment, taps[-1]))
    np.testing.assert_array_equal(closed, taps[-1])
    columns = ro.columns(stack)
    # the stack is padded to the largest dimension with exact zeros
    assert stack.shape == (len(rows), len(_ALL_COLUMNS), max(ro.dims),
                           max(ro.dims))
    pads = np.ones(stack.shape, dtype=bool)
    for k, d in enumerate(ro.dims):
        pads[:, k, :d, :d] = False
    assert not stack[pads].any()
    # each density is the product of its own factor ...
    for name, got in zip(_ALL_COLUMNS, columns):
        _, tap, keep = circuit.columns[name]
        f = dsl._factor(taps[tap], keep)
        np.testing.assert_allclose(got, f @ f.conj().swapaxes(-1, -2),
                                   atol=TOL)
    # ... and the object path's density of the state its rows purify
    in_reg = circuit.columns["input"][0]
    for i, state in enumerate(rows):
        rho = DensityOperator(in_reg, state.T @ state.conj())
        want = dict(zip(("rho_s", "rho_d", "four", "rho_out"),
                        displaced_cnot_density_oracle(rho, tau)), input=rho)
        for name, got, reg in zip(_ALL_COLUMNS, columns, ro.registers):
            np.testing.assert_allclose(got[i], want[name].matrix, atol=TOL)
            assert reg == want[name].register
    # the one check gives each column the spectrum its own check would,
    # padded with zeros, and the report's operators are read-only views
    # of the stack
    spectra = ro.check(stack)
    for k, (column, d, reg, ops) in enumerate(zip(
            columns, ro.dims, ro.registers, ro.densities(stack, spectra))):
        alone = check_densities(column)
        np.testing.assert_array_equal(spectra[:, k, :d], alone)
        assert not spectra[:, k, d:].any()
        np.testing.assert_array_equal(alone, np.linalg.eigvalsh(column))
        assert len(ops) == len(rows)
        for rho, matrix, row_vals in zip(ops, column, alone):
            assert rho.register == reg
            np.testing.assert_array_equal(rho.matrix, matrix)
            np.testing.assert_array_equal(rho.eigenvalues, row_vals)
            assert not rho.matrix.flags.writeable
            assert not rho.eigenvalues.flags.writeable


def _spoil(stack, row, kind):
    bad = stack.copy()
    d = bad.shape[-1]
    if kind == "not hermitian":
        bad[row, 0, d - 1] += 0.1
    elif kind == "trace":
        bad[row] *= 1.1
    else:
        bad[row] = np.diag([1.2, -0.2] + [0.0] * (d - 2))
    return bad


@settings(deadline=None, max_examples=60)
@given(circuit_rows(), st.data())
def test_bad_row_raises_as_its_own_stack_would(drawn, data):
    # a spoiled row in the padded stack raises the message its own column
    # gives when checked alone
    rows, tau, site = drawn
    _, ro = _fig1_readout(rows, tau, site)
    _, stack = ro.products(rows)
    j = data.draw(st.integers(0, len(_ALL_COLUMNS) - 1))
    row = data.draw(st.integers(0, len(rows) - 1))
    kind = data.draw(st.sampled_from(sorted(_invalid_rows())))
    column = ro.columns(stack)[j]
    column[...] = _spoil(column, row, kind)
    with pytest.raises(InvariantViolationError) as alone:
        check_densities(column)
    assert str(alone.value).startswith(f"row ({row},): ")
    with pytest.raises(InvariantViolationError) as joined:
        ro.check(stack)
    assert str(joined.value) == str(alone.value)


def test_first_bad_column_in_order_raises():
    # rho_s comes before rho_out in the report, though the stack's trace
    # test meets rho_out's bad row first, and its eigvalsh of the qubit
    # columns (input and rho_out) runs before that of rho_s and rho_d
    ro, stack = _densities([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], 1,
                           _ENTROPY_KEYS)
    assert [(d, np.arange(4)[ks, ].tolist()) for d, ks in ro.blocks] == [
        (2, [0, 3]), (4, [1, 2])]
    _, rho_s, _, rho_out = ro.columns(stack)
    good_s, good_out = rho_s.copy(), rho_out.copy()
    rho_s[...] = _spoil(good_s, 2, "negative eigenvalue")
    rho_out[...] = _spoil(good_out, 0, "trace")
    with pytest.raises(InvariantViolationError,
                       match=r"^row \(2,\): negative eigenvalue"):
        ro.check(stack)
    rho_s[...] = good_s
    with pytest.raises(InvariantViolationError, match=r"^row \(0,\): trace"):
        ro.check(stack)
    # a bad spectrum in rho_s, found after the qubit block's, still wins
    rho_s[...] = _spoil(good_s, 1, "negative eigenvalue")
    rho_out[...] = _spoil(good_out, 0, "negative eigenvalue")
    with pytest.raises(InvariantViolationError,
                       match=r"^row \(1,\): negative eigenvalue"):
        ro.check(stack)


def test_unevenly_spaced_columns_are_read_by_index():
    # qubit columns at 0, 1 and 3 are no slice: their eigvalsh takes them
    # by index, and each column still gets its own spectrum
    names = ("input", "rho_out", "rho_s", "input")
    ro, stack = _densities([[0.6, 0.8j], [1.0, 0.0]], 2, names)
    assert [(d, np.arange(4)[ks, ].tolist()) for d, ks in ro.blocks] == [
        (2, [0, 1, 3]), (4, [2])]
    spectra = ro.check(stack)
    for k, (column, d) in enumerate(zip(ro.columns(stack), ro.dims)):
        np.testing.assert_array_equal(spectra[:, k, :d],
                                      check_densities(column))


def _eigvalsh_sizes(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: sizes.append(m.shape[-1]) or eigvalsh(m))
    return sizes


def test_fig1_validates_once_per_dimension(monkeypatch):
    reg = Register((SlotId("1", 0),), (2,))
    rho = DensityOperator(reg, np.array([[0.7, 0.2 + 0.1j],
                                         [0.2 - 0.1j, 0.3]]))
    psi = qubit_state("1", 0, 0.6, 0.8)
    sizes = _eigvalsh_sizes(monkeypatch)
    # input and rho_out on one qubit, rho_s and rho_d on two
    run_fig1(psi)
    assert sorted(sizes) == [2, 4]
    for mode in CorrelationMode:
        # the input was checked when built; the four-slot state is mixed
        sizes.clear()
        run_fig1(rho, policy=mode)
        assert sorted(sizes) == [2, 4, 16]


@pytest.mark.parametrize("basis", ("computational", "diagonal"))
def test_no_signaling_validates_only_its_outputs(monkeypatch, basis):
    # Bob's inputs are rows, never densities: one check of the joined
    # qubit outputs and one for the trace norms
    sizes = _eigvalsh_sizes(monkeypatch)
    run_no_signaling(basis, tau=2)
    assert sizes == [2, 2]


def test_propriety_validates_only_its_two_outputs(monkeypatch):
    ensemble = [(0.3, qubit_state("1", 0, 1.0, 0.0)),
                (0.7, qubit_state("1", 0, 0.6, 0.8))]
    sizes = _eigvalsh_sizes(monkeypatch)
    # the two outputs in one check, then their trace distance
    run_proper_vs_improper(ensemble)
    assert sizes == [2, 2]


def test_reverse_validates_only_the_recovered_qubit(monkeypatch):
    sizes = _eigvalsh_sizes(monkeypatch)
    run_reverse(qubit_state("1", 0, 0.6, 0.8), tau=2)
    assert sizes == [2]


def test_sweeps_validate_only_what_they_return(monkeypatch):
    grid = np.linspace(0.0, 1.0, 1001)
    sizes = _eigvalsh_sizes(monkeypatch)
    # per block of ROW_BLOCK points: one check of the qubit inputs and
    # outputs, then the trace norms of the two curves
    fig2_curves(grid)
    assert sizes == [2, 2, 2] * 4
    # per block: the branches are read unchecked and the mixture gets one
    # check per dimension (input, rho_d and rho_out)
    sizes.clear()
    run_entropy_study(0.3, grid)
    assert sizes == [3, 6, 2] * 4
