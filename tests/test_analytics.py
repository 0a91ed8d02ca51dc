import math
import subprocess
import sys

import numpy as np
import pytest

from tdesim import (
    DensityOperator,
    PureState,
    Register,
    RegisterSizeError,
    SlotId,
    amplification_points,
    bell_phi_plus,
    fig2_curves,
    maximally_mixed,
    purity,
    qubit_state,
    subadditivity_margin,
    to_density,
    trace_norm_distance,
)
from tdesim.analytics import von_neumann_entropy
from tdesim.registers import gram_density, partial_trace, tensor

from conftest import (
    einsum_partial_trace_oracle,
    entropy_oracle,
    random_density,
    random_pure,
    trace_norm_oracle,
    two_qubit_register,
)

H_QUARTER = 0.8112781244591328  # binary entropy of 1/4


def test_entropy_frozen_values():
    reg = Register((SlotId("a", 0),), (2,))
    assert von_neumann_entropy(to_density(qubit_state("a", 0, 1, 0))) == 0.0
    assert abs(von_neumann_entropy(maximally_mixed(reg)) - 1.0) < 1e-12
    reg4 = two_qubit_register()
    assert abs(von_neumann_entropy(maximally_mixed(reg4)) - 2.0) < 1e-12
    rho = DensityOperator(reg, [[0.25, 0.0], [0.0, 0.75]])
    assert abs(von_neumann_entropy(rho) - H_QUARTER) < 1e-12


def test_entropy_matches_scipy(rng):
    reg = two_qubit_register()
    for _ in range(25):
        rho = random_density(rng, reg)
        assert abs(von_neumann_entropy(rho) - entropy_oracle(rho.matrix)) \
            < 1e-10


def test_entropy_never_returns_negative_zero():
    rho = to_density(qubit_state("a", 0, 1.0, 0.0))
    s = von_neumann_entropy(rho)
    assert s == 0.0
    assert math.copysign(1.0, s) == 1.0


@pytest.mark.parametrize("matrix", [
    [[0.5, 0.5], [0.0, 0.5]],
    np.eye(2),
    0.3 * np.eye(2),
    np.diag([np.nan, 1.0]),
], ids=["not-hermitian", "trace-2", "trace-0.6", "nan"])
def test_analytics_refuse_a_raw_matrix(matrix):
    # none of these is a density, yet an analytic that read a raw matrix
    # would return a number for each (entropy 1.0, 0.0, 1.042; purity 2.0)
    state = maximally_mixed(Register((SlotId("a", 0),), (2,)))
    for call in (von_neumann_entropy, purity,
                 lambda x: trace_norm_distance(x, state),
                 lambda x: trace_norm_distance(state, x)):
        with pytest.raises(ValueError, match="not a state: "):
            call(matrix)


def test_trace_norm_distance_conventions():
    # no 1/2 factor: orthogonal pure states sit at distance 2
    a = to_density(qubit_state("a", 0, 1.0, 0.0))
    b = to_density(qubit_state("a", 0, 0.0, 1.0))
    assert abs(trace_norm_distance(a, b) - 2.0) < 1e-12
    assert trace_norm_distance(a, a) == 0.0


def test_trace_norm_distance_matches_svd(rng):
    reg = two_qubit_register()
    for _ in range(25):
        x, y = random_density(rng, reg), random_density(rng, reg)
        want = trace_norm_oracle(x.matrix - y.matrix)
        assert abs(trace_norm_distance(x, y) - want) < 1e-10


def test_trace_norm_distance_register_mismatch(rng):
    a = random_density(rng, two_qubit_register())
    b = random_density(rng, Register((SlotId("z", 0),), (2,)))
    with pytest.raises(ValueError):
        trace_norm_distance(a, b)


def test_purity():
    assert abs(purity(to_density(qubit_state("a", 0, 0.6, 0.8))) - 1.0) \
        < 1e-12
    reg = Register((SlotId("a", 0),), (2,))
    assert abs(purity(maximally_mixed(reg)) - 0.5) < 1e-12


def test_subadditivity_margin_product_state(rng):
    ra = Register((SlotId("a", 0),), (2,))
    rb = Register((SlotId("b", 0),), (2,))
    a, b = random_density(rng, ra), random_density(rng, rb)
    rho = DensityOperator(Register(ra.slots + rb.slots, (2, 2)),
                          np.kron(a.matrix, b.matrix))
    assert abs(subadditivity_margin(rho)) < 1e-9


def test_subadditivity_margin_bell_state():
    rho = to_density(bell_phi_plus("a", "b", 0))
    assert abs(subadditivity_margin(rho) - 2.0) < 1e-12


def test_subadditivity_margin_random(rng):
    reg = two_qubit_register()
    for _ in range(200):
        assert subadditivity_margin(random_density(rng, reg)) >= -1e-9


def test_subadditivity_margin_takes_one_eigh(rng, monkeypatch):
    # both marginals come from one set of spectral rows
    reg = Register((SlotId("a", 0), SlotId("b", 0), SlotId("c", 0)),
                   (2, 3, 2))
    rho = random_density(rng, reg)
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: shapes.append(m.shape) or eigh(m))
    margin = subadditivity_margin(rho)
    assert shapes == [(12, 12)]
    m, dims = rho.matrix, list(reg.dims)
    ref = (entropy_oracle(einsum_partial_trace_oracle(m, dims, [0]))
           + entropy_oracle(einsum_partial_trace_oracle(m, dims, [1, 2]))
           - entropy_oracle(m))
    assert abs(margin - ref) < 1e-10


def test_subadditivity_margin_of_a_density_built_from_rows_takes_no_eigh(
        rng, monkeypatch):
    # to_density of a pure state keeps its one row; so do the tensor of
    # two such densities and a gram_density of at most d columns
    reg = Register((SlotId("a", 0), SlotId("b", 0), SlotId("c", 0)),
                   (2, 3, 2))
    f = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
    built = [
        to_density(random_pure(rng, reg)),
        tensor(to_density(random_pure(rng, Register(reg.slots[:1], (2,)))),
               to_density(random_pure(rng, Register(reg.slots[1:], (3, 2))))),
        gram_density(reg, f / np.linalg.norm(f)),
    ]
    monkeypatch.setattr(np.linalg, "eigh", None)  # any call fails
    for rho in built:
        m, dims = rho.matrix, list(reg.dims)
        ref = (entropy_oracle(einsum_partial_trace_oracle(m, dims, [0]))
               + entropy_oracle(einsum_partial_trace_oracle(m, dims, [1, 2]))
               - entropy_oracle(m))
        assert abs(subadditivity_margin(rho) - ref) < 1e-10
        for keep in ([0], [1, 2], [0, 2]):
            np.testing.assert_allclose(
                partial_trace(rho, [reg.slots[k] for k in keep]).matrix,
                einsum_partial_trace_oracle(m, dims, keep),
                atol=1e-12, rtol=0)


def test_subadditivity_margin_takes_states_only(rng):
    with pytest.raises(ValueError, match="^not a state: ndarray$"):
        subadditivity_margin(np.eye(4) / 4)
    psi = bell_phi_plus("a", "b", 0)
    assert subadditivity_margin(psi) == subadditivity_margin(to_density(psi))
    # a pure state meets to_density's size check before its rows are read
    reg = Register(tuple(SlotId(f"q{i}", 0) for i in range(13)), (2,) * 13)
    with pytest.raises(RegisterSizeError, match="density matrix"):
        subadditivity_margin(PureState(reg, np.arange(2**13) == 0))


def test_subadditivity_margin_needs_two_slots():
    with pytest.raises(ValueError):
        subadditivity_margin(to_density(qubit_state("a", 0, 1, 0)))


def test_fig2_curve_values():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    points = fig2_curves(grid)
    for p in points:
        b2 = p.beta_sq
        assert abs(p.values["D_in_paper"] - 2 * b2) < 1e-12
        assert abs(p.values["D_in_tracenorm"] - 2 * np.sqrt(b2)) < 1e-12
        assert abs(p.values["D_out"] - 4 * (b2 - b2 * b2)) < 1e-12
    for tau in (0, 1.5, -1):
        with pytest.raises(ValueError, match="dilation must be"):
            fig2_curves(grid, tau=tau)


def test_amplification_region_split():
    grid = np.linspace(0.0, 1.0, 21)
    points = fig2_curves(grid)
    boosted = amplification_points(points, "D_in_paper")
    assert boosted == [b for b in boosted if 0.0 < b < 0.5]
    assert len(boosted) == 9  # interior points of (0, 0.5) on this grid
    assert amplification_points(points, "D_in_tracenorm") == []
    with pytest.raises(ValueError):
        amplification_points(points, "D_in_bogus")


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency: the oracles use it as an
    # independent reference, the package itself never imports it
    code = "import sys, tdesim; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
