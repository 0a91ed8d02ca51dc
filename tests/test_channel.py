import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdesim import (
    DensityOperator,
    InvariantViolationError,
    QubitDensity,
    Register,
    SlotId,
    displaced_bell_channel,
    nonlinear_map,
    nonlinearity_witness,
    run_fig1,
)
from tdesim.registers import ATOL, PSD_FLOOR

from conftest import displaced_cnot_density_oracle


def test_qubit_density_validation():
    QubitDensity(0.5, 0.5, 0.3j)
    for fields, message in [
            ((-0.1, 1.1), "negative eigenvalue -1.000e-01 below tolerance"),
            ((0.6, 0.6), r"trace is 1\.2\+0j, expected 1"),
            # |coherence| above sqrt(g00 g11)
            ((0.5, 0.5, 0.6), "negative eigenvalue -1.000e-01 below "
                              "tolerance")]:
        with pytest.raises(InvariantViolationError, match=f"^{message}$"):
            QubitDensity(*fields)


@pytest.mark.parametrize("build", [
    lambda: QubitDensity(np.nan, 1.0),
    lambda: QubitDensity(1.0, np.nan),
    lambda: QubitDensity(1.0, 0.0, np.nan),
    lambda: QubitDensity(np.inf, 1.0),
    lambda: QubitDensity(0.5, 0.5, complex(0.0, np.inf)),
    lambda: QubitDensity.from_matrix(np.zeros((2, 2))),
    lambda: QubitDensity.from_matrix([[np.nan, 0.0], [0.0, 1.0]]),
    lambda: QubitDensity.from_matrix([[1.0, np.inf], [np.inf, 0.0]]),
])
def test_non_finite_or_zero_inputs_are_refused(build):
    # NaN fails every comparison, so each check is written to fail on it;
    # a witness of such a density would otherwise read 0, "linear"
    with pytest.raises(InvariantViolationError):
        build()


def test_qubit_density_conversions():
    # 0.6|0> + 0.8|1>
    qd = QubitDensity.from_matrix([[0.36, 0.48], [0.48, 0.64]])
    assert (qd.g00, qd.g11, qd.g01) == (0.36, 0.64, 0.48)

    m = qd.to_matrix()
    np.testing.assert_array_equal(m, [[0.36, 0.48], [0.48, 0.64]])
    assert QubitDensity.from_matrix(m) == qd

    rho = qd.to_density("s", 4)
    assert rho.register.slots[0].site == "s"
    assert rho.register.slots[0].cycle == 4
    np.testing.assert_allclose(rho.matrix, m, atol=1e-15)


@pytest.mark.parametrize("matrix, deviation", [
    ([[0.5, 0.1], [0.3, 0.5]], "2.000e-01"),    # lower coherence differs
    ([[0.5 + 0.2j, 0.0], [0.0, 0.5]], "4.000e-01"),  # imaginary diagonal
])
def test_from_matrix_refuses_a_matrix_it_would_not_keep(matrix, deviation):
    # the fields hold one coherence and real populations only
    with pytest.raises(InvariantViolationError,
                       match=rf"^matrix is not hermitian "
                             rf"\(deviation {deviation}\)$"):
        QubitDensity.from_matrix(matrix)
    # a deviation within ATOL is roundoff, and the coherence kept is the
    # conjugate of the lower one, which the contract's eigvalsh reads
    qd = QubitDensity.from_matrix([[0.5, 0.1], [0.1 + 1e-13, 0.5]])
    assert (qd.g00, qd.g11, qd.g01) == (0.5, 0.5, 0.1 + 1e-13)


def test_nonlinear_map_closed_form():
    out = nonlinear_map(QubitDensity(0.36, 0.64))
    assert abs(out.g00 - (0.36**2 + 0.64**2)) < 1e-15
    assert abs(out.g11 - 2 * 0.36 * 0.64) < 1e-15
    assert out.g01 == 0


def test_nonlinear_map_ignores_coherence():
    a = nonlinear_map(QubitDensity(0.5, 0.5, 0.0))
    b = nonlinear_map(QubitDensity(0.5, 0.5, 0.5))
    assert a.g00 == b.g00 and a.g11 == b.g11


def test_nonlinear_map_fixed_points():
    for g00 in (1.0, 0.5):
        out = nonlinear_map(QubitDensity(g00, 1.0 - g00))
        assert abs(out.g00 - g00) < 1e-15


def test_nonlinear_map_output_is_valid_density(rng):
    for _ in range(50):
        g00 = float(rng.uniform())
        out = nonlinear_map(QubitDensity(g00, 1.0 - g00))
        assert out.g00 >= 0 and out.g11 >= 0
        assert abs(out.g00 + out.g11 - 1.0) < 1e-12


def test_displaced_bell_channel_fully_decoheres():
    # the compiled circuit's read-out against the dense oracle's rho_d on
    # (|0> + |1>)/sqrt(2), over a grid of dilations: the input on site "1"
    # and its ancilla on site "2", both read at cycle tau
    plus = np.full((2, 2), 0.5)
    for tau in (1, 2, 3, 4):
        _, want, _, _ = displaced_cnot_density_oracle(
            DensityOperator(Register((SlotId("1", tau),), (2,)), plus), tau)
        rho = displaced_bell_channel(tau)
        assert rho.register == want.register == Register(
            (SlotId("1", tau), SlotId("2", tau)), (2, 2))
        np.testing.assert_allclose(rho.matrix, want.matrix, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0, rtol=0,
                                   atol=1e-12)
    for tau in (0, 1.9, 2.5):
        with pytest.raises(ValueError, match="dilation must be"):
            displaced_bell_channel(tau)


def test_witness_on_orthogonal_pure_inputs():
    w = nonlinearity_witness(QubitDensity(1.0, 0.0), QubitDensity(0.0, 1.0),
                             0.5)
    assert abs(w - 1.0) < 1e-12


def test_witness_vanishes_for_equal_inputs():
    qd = QubitDensity(0.3, 0.7)
    assert nonlinearity_witness(qd, qd, 0.5) < 1e-12


def test_witness_vanishes_at_mixing_endpoints():
    a, b = QubitDensity(1.0, 0.0), QubitDensity(0.0, 1.0)
    assert nonlinearity_witness(a, b, 0.0) < 1e-12
    assert nonlinearity_witness(a, b, 1.0) < 1e-12
    with pytest.raises(ValueError):
        nonlinearity_witness(a, b, 1.5)


_QUBIT = Register((SlotId("1", 0),), (2,))


def _refusal(build):
    """The type and message build raises, or None if it returns."""
    try:
        build()
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    return None


@st.composite
def _qubit_matrices(draw):
    """2 x 2 matrices at and across every edge of the density contract:
    random densities, spectra within a few 1e-12 of PSD_FLOOR with a
    non-hermitian part inside ATOL, traces of 1 + k 1e-13, NaN and
    infinite entries, and non-hermitian matrices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.standard_normal((2, 2))
                     + 1j * rng.standard_normal((2, 2)))[0]
    kind = draw(st.sampled_from(
        ["random", "edge", "trace", "non-finite", "non-hermitian"]))
    low = float(rng.uniform(0.0, 0.5))
    if kind == "edge":
        low = PSD_FLOOR + draw(st.integers(-5, 5)) * 1e-12
    m = u @ np.diag([low, 1.0 - low]) @ u.conj().T
    if kind == "edge":
        m[0, 1] += draw(st.floats(-1.0, 1.0)) * ATOL
    elif kind == "trace":
        m = m * (1.0 + draw(st.integers(-20, 20)) * 1e-13)
    elif kind == "non-finite":
        m[draw(st.integers(0, 1)), draw(st.integers(0, 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    elif kind == "non-hermitian":
        m[1, 0] += draw(st.sampled_from([1e-13, 1e-12, 2e-12, 1e-3, 0.2]))
    return m


@settings(deadline=None, max_examples=300)
@given(_qubit_matrices())
def test_qubit_density_refuses_exactly_what_a_density_refuses(m):
    # the same refusal, type and message, or none on both sides
    want = _refusal(lambda: DensityOperator(_QUBIT, m))
    assert _refusal(lambda: QubitDensity.from_matrix(m)) == want
    if want is None:
        # the fields hold a matrix the contract accepted
        qd = QubitDensity.from_matrix(m)
        assert QubitDensity(qd.g00, qd.g11, qd.g01) == qd
    fields = (m[0, 0].real, m[1, 1].real, m[0, 1])
    assert _refusal(lambda: QubitDensity(*fields)) == _refusal(
        lambda: DensityOperator(_QUBIT, [[fields[0], fields[2]],
                                         [np.conj(fields[2]), fields[1]]]))


def test_from_matrix_keeps_a_roundoff_eigenvalue():
    # DensityOperator accepts the -5e-11 eigenvalue and run_fig1 maps the
    # matrix to diag(1, 0); from_matrix used to refuse it
    m = np.diag([1.0 + 5e-11, -5e-11])
    qd = QubitDensity.from_matrix(m)
    assert (qd.g00, qd.g11) == (1.0 + 5e-11, -5e-11)
    assert run_fig1(qd).rho_out.matrix.tobytes() == \
        run_fig1(DensityOperator(_QUBIT, m)).rho_out.matrix.tobytes()


def test_nonlinear_map_runs_on_every_density_it_accepts():
    # QubitDensity(1 + 5e-13, -5e-13) used to be accepted and its map
    # refused, for a population of -1e-12 in the output
    out = nonlinear_map(QubitDensity(1.0 + 5e-13, -5e-13))
    assert (out.g00, out.g11) == (1.0, 0.0)


def test_a_zero_coherence_meets_the_contract():
    # used to be refused: "coherence 0j exceeds positivity bound", since
    # g00 g11 + ATOL is below zero
    qd = QubitDensity(1.0 + 1e-12, -1e-12)
    assert qd.g01 == 0


@pytest.mark.parametrize("fields, want", [
    ((1.0 + 5e-11, -5e-11), np.diag([1.0, 0.0])),
    ((0.5 + 4e-13, 0.5 + 4e-13), np.eye(2) / 2),
])
def test_nonlinear_map_reads_populations_as_the_simulator_does(fields, want):
    # a roundoff population counts as zero and the sum as 1, as
    # registers._spectral_rows reads a density's eigenvalues: the map
    # used to refuse an output eigenvalue of -1e-10 and a trace of
    # 1 + 1.6e-12
    np.testing.assert_array_equal(
        nonlinear_map(QubitDensity(*fields)).to_matrix(), want)
    np.testing.assert_allclose(run_fig1(QubitDensity(*fields)).rho_out.matrix,
                               want, rtol=0, atol=1e-15)


def test_nonlinear_map_is_the_closed_form_on_unit_populations():
    for b2 in np.linspace(0.0, 1.0, 1001):
        g00, g11 = 1.0 - b2, b2
        assert g00 + g11 == 1.0
        out = nonlinear_map(QubitDensity(g00, g11))
        assert (out.g00, out.g11) == (g00 ** 2 + g11 ** 2, 2.0 * g00 * g11)
