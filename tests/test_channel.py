import numpy as np
import pytest

from tdesim import (
    DensityOperator,
    QubitDensity,
    Register,
    SlotId,
    displaced_bell_channel,
    nonlinear_map,
    nonlinearity_witness,
)

from conftest import displaced_cnot_density_oracle


def test_qubit_density_validation():
    QubitDensity(0.5, 0.5, 0.3j)
    with pytest.raises(ValueError):
        QubitDensity(-0.1, 1.1)
    with pytest.raises(ValueError):
        QubitDensity(0.6, 0.6)
    with pytest.raises(ValueError):
        QubitDensity(0.5, 0.5, 0.6)  # |coherence| above sqrt(g00 g11)


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
    with pytest.raises(ValueError):
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
    # the fields hold the upper coherence and real populations only
    with pytest.raises(ValueError, match=rf"^matrix is not hermitian "
                                         rf"\(deviation {deviation}\)$"):
        QubitDensity.from_matrix(matrix)
    # a deviation within ATOL is roundoff, and the upper coherence is kept
    qd = QubitDensity.from_matrix([[0.5, 0.1], [0.1 + 1e-13, 0.5]])
    assert (qd.g00, qd.g11, qd.g01) == (0.5, 0.5, 0.1)


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
