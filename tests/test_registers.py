import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdesim import (
    DensityOperator,
    InvariantViolationError,
    OverlappingSlotError,
    PureState,
    QubitDensity,
    RegisterSizeError,
    Register,
    SlotId,
    UnknownSlotError,
    bell_phi_plus,
    amplification_points,
    density_to_json,
    fig2_curves,
    joint_outcome_distribution,
    maximally_mixed,
    nonlinearity_witness,
    purity,
    qubit_state,
    run_entropy_study,
    run_fig1,
    run_sweep,
    to_density,
    trace_norm_distance,
)
from tdesim import registers, scenarios
from tdesim.analytics import von_neumann_entropy
from tdesim.registers import (
    ATOL,
    BasisLevel,
    _check_hermitian_unit_trace,
    _eigvalsh,
    _reject,
    check_densities,
    gram_density,
    level_index,
    _rows,
    _spectral_rows,
    on_register,
    partial_trace,
    permute_slots,
    relabel_cycles,
    tensor,
)

from conftest import (
    partial_trace_oracle,
    random_density,
    random_pure,
    two_qubit_register,
)


def test_slot_identity():
    s = SlotId("q1", 3)
    assert s.shifted(2) == SlotId("q1", 5)
    assert s.shifted(-3) == SlotId("q1", 0)
    assert repr(s) == "(q1@3)"
    assert SlotId("q1", 3) == s
    assert SlotId("q1", 4) != s


def test_register_rejects_duplicate_slots():
    with pytest.raises(OverlappingSlotError):
        Register((SlotId("a", 0), SlotId("a", 0)), (2, 2))


def test_register_rejects_bad_dimension():
    with pytest.raises(ValueError):
        Register((SlotId("a", 0),), (4,))


def test_cycles_and_dimensions_must_be_whole_numbers():
    # truncating any of these would address a neighbouring slot or
    # dimension
    for build in (lambda: Register((("a", 1.7),), (2,)),
                  lambda: Register((SlotId("a", 0),), (2.5,)),
                  lambda: Register((SlotId("a", 0),), (3.99,)),
                  lambda: SlotId("a", 1.5),
                  lambda: qubit_state("1", 0.5, 1, 0)):
        with pytest.raises(ValueError, match="whole number"):
            build()
    reg = Register((("a", np.int64(1)), SlotId("b", 2.0)), (np.int64(2), 3.0))
    assert reg == Register((SlotId("a", 1), SlotId("b", 2)), (2, 3))
    assert {type(v) for v in reg.dims + tuple(s.cycle for s in reg.slots)} \
        == {int}


@pytest.mark.parametrize("build, site", [
    (lambda: SlotId("a b", 0), "'a b'"),
    (lambda: SlotId("", 0), "''"),
    (lambda: SlotId(1, 0), "1"),
    (lambda: Register(((1, 0),), (2,)), "1"),  # no longer read as "1"
    (lambda: SlotId("q\n", 0), "'q\\n'"),
    (lambda: SlotId("\u00e9", 0), "'\u00e9'"),
    (lambda: qubit_state("x-y", 0, 1, 0), "'x-y'"),
    (lambda: bell_phi_plus("1", "a.b", 0), "'a.b'"),
])
def test_a_site_is_a_name_the_circuit_language_reads(build, site):
    # the language's site rule: a state could hold a slot a program
    # cannot name, and a scenario's compile then refused it at line 0
    with pytest.raises(ValueError, match="^a site is a name of ASCII "
                       f"letters, digits and underscores, got {re.escape(site)}$"):
        build()
    for name in ("q", "Q_1", "_", "0", "anc"):
        assert SlotId(name, 0).site == name


def test_register_lookup():
    reg = Register((SlotId("a", 0), SlotId("b", 1)), (2, 3))
    assert reg.dim == 6
    assert reg.sites == ("a", "b")
    assert reg.index_of(("b", 1)) == 1
    assert ("a", 0) in reg
    assert ("a", 1) not in reg
    with pytest.raises(UnknownSlotError):
        reg.index_of(("c", 0))


def test_level_index_conventions():
    # logical block sits at the top of each slot: bit b maps to b + dim - 2
    assert level_index(0, 2) == 0
    assert level_index(1, 2) == 1
    assert level_index(0, 3) == 1
    assert level_index(1, 3) == 2
    assert level_index("vac", 3) == 0
    assert level_index(BasisLevel.VAC, 3) == 0
    with pytest.raises(ValueError):
        level_index("vac", 2)
    with pytest.raises(ValueError):
        level_index(2, 2)


def test_pure_state_normalizes_and_freezes():
    reg = Register((SlotId("a", 0),), (2,))
    psi = PureState(reg, [3.0, 4.0])
    np.testing.assert_allclose(psi.amplitudes, [0.6, 0.8])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0
    with pytest.raises(ValueError):
        PureState(reg, [0.0, 0.0])


def test_huge_amplitudes_normalize_without_overflow():
    # the plain sum of squares overflows; the state is scaled first, with
    # no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = qubit_state("a", 0, 1e308, 1e308)
        big = PureState(Register((SlotId("a", 0),), (3,)),
                        [0.0, 1.7e308j, -1.7e308])
    h = 2**-0.5
    np.testing.assert_allclose(psi.amplitudes, [h, h], rtol=0, atol=1e-15)
    np.testing.assert_allclose(big.amplitudes, [0, 1j * h, -h],
                               rtol=0, atol=1e-15)


def test_zero_and_non_finite_state_vectors_are_refused():
    reg = Register((SlotId("a", 0),), (2,))
    with pytest.raises(ValueError, match="zero norm"):
        PureState(reg, [1e-13, 0.0])
    with pytest.raises(ValueError, match="zero norm"):
        qubit_state("a", 0, 7e-13, 7e-13)
    for bad in ([np.inf, 0.0], [np.nan, 1.0], [1.0, complex(0, np.inf)]):
        with pytest.raises(ValueError, match="not finite"):
            PureState(reg, bad)


def test_density_operator_validation():
    reg = Register((SlotId("a", 0),), (2,))
    with pytest.raises(InvariantViolationError):
        DensityOperator(reg, [[0.5, 0.5], [0.2, 0.5]])  # not hermitian
    with pytest.raises(InvariantViolationError):
        DensityOperator(reg, [[0.9, 0.0], [0.0, 0.3]])  # trace 1.2
    with pytest.raises(InvariantViolationError):
        DensityOperator(reg, [[1.2, 0.0], [0.0, -0.2]])  # negative weight


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_density_entries_are_refused_by_name(bad):
    # refused before the hermiticity check, whose inf - inf would warn
    # and whose NaN deviation would name the wrong fault
    reg = Register((SlotId("a", 0),), (2,))
    stack = np.broadcast_to(np.eye(2) / 2, (2, 2, 2)).astype(complex)
    stack[1, 0, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolationError, match="non-finite"):
            DensityOperator(reg, [[1.0, bad], [bad, 0.0]])
        with pytest.raises(InvariantViolationError,
                           match=r"non-finite entry at \[1, 0, 1\]"):
            check_densities(stack)


@pytest.mark.parametrize("columns", [1, 3, 8, 20])
def test_gram_density_matches_a_checked_density(rng, columns):
    reg = Register(tuple(SlotId(s, 0) for s in "abc"), (2, 2, 2))
    f = rng.standard_normal((8, columns)) \
        + 1j * rng.standard_normal((8, columns))
    f /= np.linalg.norm(f)
    rho = gram_density(reg, f)
    ref = DensityOperator(reg, f @ f.conj().T)
    assert rho.register == reg
    np.testing.assert_allclose(rho.matrix, ref.matrix, rtol=0, atol=1e-15)
    np.testing.assert_allclose(rho.eigenvalues, ref.eigenvalues,
                               rtol=0, atol=1e-12)
    assert not rho.matrix.flags.writeable


@pytest.mark.parametrize("dim,columns", [(2, 2047), (2, 2048), (3, 4608),
                                         (2, 32768)])
def test_gram_density_of_a_wide_factor_matches_the_product(rng, dim, columns):
    # from _ROW_DOT_WIDTH * d**2 columns on, F F^H is taken from row dot
    # products; either side of that width, and on a non-contiguous
    # factor, it is the matrix product's density
    reg = Register((SlotId("a", 0),), (dim,))
    f = rng.standard_normal((columns, dim)) \
        + 1j * rng.standard_normal((columns, dim))
    f = (f / np.linalg.norm(f)).T
    rho = gram_density(reg, f)
    ref = DensityOperator(reg, f @ f.conj().T)
    np.testing.assert_allclose(rho.matrix, ref.matrix, rtol=0, atol=1e-15)
    np.testing.assert_allclose(rho.eigenvalues, ref.eigenvalues,
                               rtol=0, atol=1e-12)


def _hermitian_stack(rng, shape):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return a + a.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("d", range(1, 17))
def test_eigvalsh_takes_the_wrappers_spectra_bit_for_bit(rng, d):
    # the helper is the gufunc np.linalg.eigvalsh calls: the same bits on
    # single matrices, stacks, stacks of stacks and the strided views of
    # a read-out's blocks, hermitian or not (both read the lower triangle)
    stacks = [_hermitian_stack(rng, (d, d)), _hermitian_stack(rng, (5, d, d)),
              _hermitian_stack(rng, (3, 4, d, d)),
              rng.standard_normal((3, d, d)) + 1j
              * rng.standard_normal((3, d, d))]
    padded = _hermitian_stack(rng, (3, 4, d + 2, d + 2))
    stacks += [padded[:, 1:3, :d, :d], padded[:, [0, 1, 3], :d, :d],
               padded[:, ::-2, :d, :d],
               padded[:, :2, :d, :d].swapaxes(-1, -2)]
    for m in stacks:
        got = _eigvalsh(m)
        assert got.dtype == np.float64 and got.shape == m.shape[:-1]
        np.testing.assert_array_equal(got, np.linalg.eigvalsh(m))
    roundoff = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    np.testing.assert_array_equal(_eigvalsh(roundoff),
                                  np.linalg.eigvalsh(roundoff))


@pytest.mark.parametrize("where, call", [
    (registers, lambda: check_densities(np.eye(2, dtype=complex) / 2)),
    (registers, lambda: gram_density(two_qubit_register(),
                                     np.eye(4, dtype=complex) / 2)),
    (registers, lambda: gram_density(two_qubit_register(),
                                     np.eye(4, 1, dtype=complex))),
    (scenarios, lambda: run_fig1(qubit_state("1", 0, 0.6, 0.8))),
], ids=["check_densities", "gram_density-square", "gram_density-narrow",
        "readout_check"])
def test_a_spectrum_that_does_not_converge_is_refused(monkeypatch, where,
                                                      call):
    # LAPACK's NaN spectrum fails the PSD_FLOOR test at each call site of
    # the helper, patched where that site looks it up
    monkeypatch.setattr(where, "_eigvalsh",
                        lambda m: np.full(m.shape[:-1], np.nan))
    with pytest.raises(InvariantViolationError, match="did not converge"):
        call()


def test_gram_density_rejects_what_density_operator_rejects():
    reg = Register((SlotId("a", 0),), (2,))
    with pytest.raises(InvariantViolationError, match="trace"):
        gram_density(reg, [[0.9], [0.3]])
    with pytest.raises(InvariantViolationError, match="hermitian"):
        gram_density(reg, [[np.nan], [0.0]])
    with pytest.raises(ValueError):
        gram_density(reg, [[1.0], [0.0], [0.0]])


def test_basis_order_puts_first_slot_most_significant():
    reg = Register((SlotId("a", 0), SlotId("b", 0)), (2, 2))
    for index, label in enumerate(("00", "01", "10", "11")):
        psi = PureState(reg, np.arange(4) == index)
        assert joint_outcome_distribution(psi, reg.slots)[label] == 1.0


def test_bell_state_amplitudes():
    psi = bell_phi_plus("a", "b", 0)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(psi.amplitudes, [r, 0, 0, r])


def test_maximally_mixed():
    reg = Register((SlotId("a", 0), SlotId("b", 0)), (2, 3))
    rho = maximally_mixed(reg)
    np.testing.assert_allclose(rho.matrix, np.eye(6) / 6.0)


def test_tensor_matches_kron(rng):
    ra = Register((SlotId("a", 0),), (2,))
    rb = Register((SlotId("b", 0),), (3,))
    pa, pb = random_pure(rng, ra), random_pure(rng, rb)
    joint = tensor(pa, pb)
    assert isinstance(joint, PureState)
    np.testing.assert_allclose(
        joint.amplitudes, np.kron(pa.amplitudes, pb.amplitudes), atol=1e-12
    )

    da, db = random_density(rng, ra), random_density(rng, rb)
    joint_d = tensor(da, db)
    assert isinstance(joint_d, DensityOperator)
    np.testing.assert_allclose(
        joint_d.matrix, np.kron(da.matrix, db.matrix), atol=1e-12
    )

    mixed = tensor(pa, db)
    assert isinstance(mixed, DensityOperator)
    np.testing.assert_allclose(
        mixed.matrix, np.kron(to_density(pa).matrix, db.matrix), atol=1e-12
    )


def test_tensor_rejects_overlap(rng):
    reg = two_qubit_register()
    with pytest.raises(OverlappingSlotError):
        tensor(random_pure(rng, reg), qubit_state("1", 0, 1.0, 0.0))


def test_size_limit_is_checked_before_allocating():
    def qubits(prefix, n):
        return Register(tuple(SlotId(f"{prefix}{i}", 0) for i in range(n)),
                        (2,) * n)

    # a 2^13-dimensional density matrix holds 1 GiB
    with pytest.raises(RegisterSizeError, match="density matrix"):
        tensor(maximally_mixed(qubits("a", 7)),
               maximally_mixed(qubits("b", 6)))
    big = PureState(qubits("a", 14), np.arange(2**14) == 0)
    with pytest.raises(RegisterSizeError, match="density matrix"):
        partial_trace(big, big.register.slots[:13])
    # a 2^13-dimensional pure state holds 128 KiB, its density 1 GiB; the
    # analytics reach that density through to_density
    pure = PureState(qubits("a", 13), np.arange(2**13) == 0)
    for call in (to_density, purity, von_neumann_entropy,
                 lambda psi: trace_norm_distance(psi, psi)):
        with pytest.raises(RegisterSizeError, match="density matrix"):
            call(pure)


def test_partial_trace_against_index_loop(rng):
    reg = Register(
        (SlotId("a", 0), SlotId("b", 0), SlotId("c", 1)), (2, 3, 2)
    )
    rho = random_density(rng, reg)
    for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        got = partial_trace(rho, [reg.slots[i] for i in keep])
        want = partial_trace_oracle(rho.matrix, reg.dims, keep)
        np.testing.assert_allclose(got.matrix, want, atol=1e-12)
        assert abs(np.trace(got.matrix) - 1.0) < 1e-12


def test_partial_trace_keeps_original_slot_order(rng):
    reg = Register((SlotId("a", 0), SlotId("b", 0), SlotId("c", 0)),
                   (2, 2, 2))
    rho = random_density(rng, reg)
    fwd = partial_trace(rho, [SlotId("a", 0), SlotId("c", 0)])
    rev = partial_trace(rho, [SlotId("c", 0), SlotId("a", 0)])
    assert fwd.register.slots == (SlotId("a", 0), SlotId("c", 0))
    assert rev.register.slots == (SlotId("a", 0), SlotId("c", 0))
    np.testing.assert_allclose(fwd.matrix, rev.matrix, atol=1e-15)


def test_partial_trace_of_pure_product_is_pure_factor(rng):
    ra = Register((SlotId("a", 0),), (2,))
    rb = Register((SlotId("b", 0),), (2,))
    pa, pb = random_pure(rng, ra), random_pure(rng, rb)
    reduced = partial_trace(tensor(pa, pb), [SlotId("a", 0)])
    np.testing.assert_allclose(
        reduced.matrix,
        np.outer(pa.amplitudes, pa.amplitudes.conj()),
        atol=1e-12,
    )


def test_partial_trace_unknown_slot(rng):
    reg = two_qubit_register()
    with pytest.raises(UnknownSlotError):
        partial_trace(random_density(rng, reg), [SlotId("zz", 9)])


def test_permute_slots_reorders_amplitudes(rng):
    reg = Register((SlotId("a", 0), SlotId("b", 0)), (2, 3))
    psi = random_pure(rng, reg)
    perm = permute_slots(psi, [SlotId("b", 0), SlotId("a", 0)])
    assert perm.register.slots == (SlotId("b", 0), SlotId("a", 0))
    src = psi.amplitudes.reshape(2, 3)
    np.testing.assert_allclose(
        perm.amplitudes.reshape(3, 2), src.T, atol=1e-12
    )

    rho = random_density(rng, reg)
    perm_d = permute_slots(rho, [SlotId("b", 0), SlotId("a", 0)])
    back = permute_slots(perm_d, [SlotId("a", 0), SlotId("b", 0)])
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)


def test_relabel_cycles_moves_slots_not_amplitudes(rng):
    reg = two_qubit_register()
    psi = random_pure(rng, reg)
    shifted = relabel_cycles(psi, "1", 2)
    assert shifted.register.slots == (SlotId("1", 2), SlotId("2", 0))
    np.testing.assert_allclose(shifted.amplitudes, psi.amplitudes,
                               rtol=0, atol=1e-15)

    all_shift = relabel_cycles(psi, None, 5)
    assert all_shift.register.slots == (SlotId("1", 5), SlotId("2", 5))


def test_a_cycle_shift_is_a_whole_number(rng):
    psi = random_pure(rng, two_qubit_register())
    with pytest.raises(ValueError, match="whole number, got 1.7"):
        relabel_cycles(psi, None, 1.7)
    for delta in (2.0, np.int64(2)):
        assert relabel_cycles(psi, "2", delta).register.slots == (
            SlotId("1", 0), SlotId("2", 2))


@pytest.mark.parametrize("call, what", [
    (lambda: run_sweep(None), "a beta\\^2 grid"),
    (lambda: fig2_curves(None), "a beta\\^2 grid"),
    (lambda: run_entropy_study(0.5, None), "a beta\\^2 grid"),
    (lambda: Register(None, None), "a register's slots"),
    (lambda: Register((("a", 0),), None), "a register's dims"),
    (lambda: joint_outcome_distribution(qubit_state("a", 0, 1.0, 0.0), None),
     "a slot list"),
    (lambda: amplification_points(None), "a curve"),
], ids=["run_sweep", "fig2_curves", "run_entropy_study", "register_slots",
        "register_dims", "joint_outcome_distribution-slots",
        "amplification_points"])
def test_a_grid_or_register_that_is_no_sequence_is_refused_by_name(call,
                                                                   what):
    with pytest.raises(ValueError,
                       match=f"{what} must be a sequence, got NoneType"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: run_sweep([None]), "a beta\\^2 value must be a real number, "
     "got None"),
    (lambda: fig2_curves([0.5, None]), "a beta\\^2 value must be a real "
     "number, got None"),
    (lambda: run_entropy_study(0.5, [None]), "a beta\\^2 value must be a "
     "real number, got None"),
    (lambda: run_entropy_study(None, [0.5]), "the vacuum weight must be a "
     "real number, got None"),
    (lambda: nonlinearity_witness(QubitDensity(1.0, 0.0),
                                  QubitDensity(0.0, 1.0), None),
     "the mixing weight must be a real number, got None"),
    (lambda: fig2_curves([0.5], 1, None), "the tolerance must be a real "
     "number, got None"),
    (lambda: QubitDensity(None, 1.0), "g00 must be a real number, got None"),
    (lambda: QubitDensity(1.0, 0.0, None),
     "g01 must be a complex number, got None"),
], ids=["run_sweep", "fig2_curves", "run_entropy_study-grid",
        "run_entropy_study-p_vac", "nonlinearity_witness-lam",
        "fig2_curves-tolerance", "qubit_density-g00", "qubit_density-g01"])
def test_a_grid_value_or_weight_that_is_no_number_is_refused_by_name(
        call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_relabeled_density_keeps_its_validated_matrix(rng):
    reg = two_qubit_register()
    rho = random_density(rng, reg)
    shifted = relabel_cycles(rho, "2", 3)
    assert shifted.register.slots == (SlotId("1", 0), SlotId("2", 3))
    assert shifted.matrix is rho.matrix
    assert shifted.eigenvalues is rho.eigenvalues
    with pytest.raises(ValueError):
        on_register(rho, Register((SlotId("a", 0),), (3,)))


def test_kept_decompositions_are_read_only_and_no_larger_than_the_matrix(
        rng):
    reg = Register((SlotId("a", 0), SlotId("b", 0)), (2, 3))
    built = to_density(random_pure(rng, reg))
    caller = random_density(rng, reg)
    assert caller._spectral is None  # taken on first use
    vectors = _spectral_rows(caller)[1]
    assert _spectral_rows(caller)[1] is vectors
    f = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
    wide = gram_density(reg, f / np.linalg.norm(f))
    assert wide._kept_rows is None  # more columns than d are not kept
    assert _rows(wide).shape[:2] == (1, 6)
    assert not _rows(built).flags.writeable

    for rho in (built, caller, wide):
        kept = [a for a in (rho._kept_rows,) + (rho._spectral or ())
                if a is not None]
        assert kept
        for array in kept:
            assert array.size <= rho.matrix.size
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0.0
    # the relabelled copy carries what the density keeps
    moved = on_register(caller, Register((SlotId("a", 4), SlotId("c", 1)),
                                         (2, 3)))
    assert moved._spectral is caller._spectral
    assert on_register(built, moved.register)._kept_rows is built._kept_rows


def test_a_slot_is_a_site_cycle_pair():
    psi = qubit_state("a", 0, 1.0, 0.0)
    for bad in ("1", 3, ("a", 0, 1)):
        with pytest.raises(ValueError,
                           match=r"^a slot is a \(site, cycle\) pair, got "):
            joint_outcome_distribution(psi, [bad])
    with pytest.raises(ValueError, match="a slot is a"):
        joint_outcome_distribution(psi, "1")


def test_density_json_round_trip(rng):
    reg = Register((SlotId("a", 0), SlotId("b", 2)), (3, 2))
    rho = random_density(rng, reg)
    obj = density_to_json(rho)
    assert obj["slots"][0] == {"site": "a", "cycle": 0, "dim": 3}
    assert [(e["site"], e["cycle"], e["dim"]) for e in obj["slots"]] == \
        [(s.site, s.cycle, d) for s, d in zip(reg.slots, reg.dims)]
    back = np.array([[complex(*z) for z in row] for row in obj["matrix"]])
    np.testing.assert_array_equal(back, rho.matrix)


def test_density_json_encodes_a_pure_state_as_its_density():
    psi = qubit_state("1", 0, 0.6, 0.8)
    assert density_to_json(psi) == density_to_json(to_density(psi))


@pytest.mark.parametrize("bad", [None, np.eye(2) / 2],
                         ids=["None", "ndarray"])
def test_density_json_refuses_a_non_state(bad):
    with pytest.raises(ValueError,
                       match=f"^not a state: {type(bad).__name__}$"):
        density_to_json(bad)


def _old_hermitian_unit_trace_accepts(m):
    """The whole-matrix check that the banded one replaced."""
    dev = abs(m - m.conj().swapaxes(-1, -2)).max()
    trace_err = abs(m.trace(axis1=-2, axis2=-1) - 1.0).max()
    return dev <= ATOL and trace_err <= ATOL


def _hermitian_check_outcome(check, m):
    try:
        check(m)
    except InvariantViolationError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 70),
       batch=st.sampled_from(((), (1,), (3,), (2, 2))),
       scale=st.sampled_from((0.0, 1e-14, 1e-12, 1e-11, 1e-3)),
       where=st.sampled_from(("lower", "upper", "diagonal", "trace")))
def test_banded_hermiticity_check_decides_as_the_whole_matrix(
        seed, d, batch, scale, where):
    rng = np.random.default_rng(seed)
    shape = batch + (d, d)
    f = rng.standard_normal(shape + (2,)) @ [1.0, 1j]
    m = f @ f.conj().swapaxes(-1, -2)
    m /= np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    m = (m + m.conj().swapaxes(-1, -2)) / 2
    i, j = sorted(rng.integers(0, d, 2))
    kick = scale * np.exp(2j * np.pi * rng.random())
    if where == "lower":
        m[..., j, i] += kick
    elif where == "upper":
        m[..., i, j] += kick
    elif where == "diagonal":
        m[..., i, i] += 1j * scale
    else:
        m[..., i, i] += scale
    got = _hermitian_check_outcome(_check_hermitian_unit_trace, m)
    if _old_hermitian_unit_trace_accepts(m):
        assert got is None
    else:
        assert got is not None
        assert got == _hermitian_check_outcome(_reject, m)


def test_hermiticity_tolerance_is_inclusive_and_nan_fails():
    # an asymmetry of exactly ATOL passes and the next float above fails,
    # also in the last band of a matrix wider than one band
    d = 40
    for i, j in ((0, 1), (37, 35), (35, 37), (3, 38)):
        m = np.eye(d, dtype=complex) / d
        m[i, j] = ATOL
        assert _old_hermitian_unit_trace_accepts(m)
        _check_hermitian_unit_trace(m)
        m[i, j] = np.nextafter(ATOL, 1.0)
        assert not _old_hermitian_unit_trace_accepts(m)
        with pytest.raises(InvariantViolationError, match="not hermitian"):
            _check_hermitian_unit_trace(m)
        m[i, j] = np.nan
        with pytest.raises(InvariantViolationError, match="not hermitian"):
            _check_hermitian_unit_trace(m)
    stack = np.broadcast_to(np.eye(2) / 2, (3, 2, 2)).astype(complex)
    stack[2, 1, 1] = np.nan
    with pytest.raises(InvariantViolationError, match=r"row \(2,\)"):
        _check_hermitian_unit_trace(stack)
