"""Closed forms for the displaced-CNOT channel and its nonlinearity, and
one read-out of the compiled circuit.

Sending one half of a CNOT pair through a dilation and closing with a
second CNOT acts on the input qubit's populations (g00, g11) as

    (g00, g11)  ->  (g00^2 + g11^2,  2 g00 g11)

independently of any input coherence.  The map is quadratic in the density
matrix, so it cannot come from any linear channel; nonlinearity_witness
quantifies that by how badly the map fails to commute with mixing.
A QubitDensity is a DensityOperator on the slot ("1", 0), checked once on
construction, so it refuses what a DensityOperator refuses and runs
wherever one runs, run_fig1 included; nonlinear_map reads its
populations as the simulator reads a density's spectrum.
displaced_bell_channel is run_fig1's rho_d, read alone from the same
compiled circuit (scenarios._readout) before its closing CNOT.  The
closed forms refuse anything but a QubitDensity with ValueError.
"""

from __future__ import annotations

import numpy as np

from .registers import (DensityOperator, Register, SlotId, _check_tau, _real,
                        _trace_norms, on_register)
from .scenarios import _fig1_circuit, _readout

_QUBIT = Register((SlotId("1", 0),), (2,))


def _complex(g01) -> complex:
    """g01 as a complex number; anything complex() refuses raises
    ValueError naming g01 and the value, as _real does for g00 and g11."""
    try:
        return complex(g01)
    except (TypeError, ValueError):
        raise ValueError(f"g01 must be a complex number, got {g01!r}") \
            from None


class QubitDensity(DensityOperator):
    """The density [[g00, g01], [conj(g01), g11]] on the slot ("1", 0),
    checked once as a DensityOperator; g00, g11 and g01 read its matrix."""

    def __init__(self, g00: float, g11: float, g01: complex = 0j):
        g00, g11, g01 = _real(g00, "g00"), _real(g11, "g11"), _complex(g01)
        super().__init__(_QUBIT, [[g00, g01], [g01.conjugate(), g11]])

    g00 = property(lambda self: float(self.matrix[0, 0].real))
    g11 = property(lambda self: float(self.matrix[1, 1].real))
    g01 = property(lambda self: complex(self.matrix[0, 1]))

    @classmethod
    def from_matrix(cls, matrix) -> "QubitDensity":
        """The density of a 2 x 2 matrix, kept as given once it meets the
        density contract."""
        rho = cls.__new__(cls)
        DensityOperator.__init__(rho, _QUBIT, matrix)
        return rho

    def to_matrix(self) -> np.ndarray:
        return self.matrix.copy()

    def to_density(self, site: str = "1", cycle: int = 0) -> DensityOperator:
        """The same matrix on the slot (site, cycle), not checked again."""
        return on_register(self, Register((SlotId(site, cycle),), (2,)))


def nonlinear_map(rho: QubitDensity) -> QubitDensity:
    """Output of the displaced-CNOT channel on one input qubit.

    The populations are read as the simulator reads a density's spectrum
    (registers._spectral_rows): a negative one is roundoff and counts as
    zero, and the rest are divided by their sum before squaring.  Anything
    but a QubitDensity raises ValueError naming its type.
    """
    if not isinstance(rho, QubitDensity):
        raise ValueError(f"expected a QubitDensity, got {type(rho).__name__}")
    g00, g11 = max(rho.g00, 0.0), max(rho.g11, 0.0)
    g00, g11 = g00 / (g00 + g11), g11 / (g00 + g11)
    return QubitDensity(g00 ** 2 + g11 ** 2, 2.0 * g00 * g11)


def displaced_bell_channel(tau: int = 1) -> DensityOperator:
    """Two-site reduced state of a dilated Bell pair at the readout cycle.

    The pair is prepared at cycle tau on sites "1" and "2", site "1" is
    dilated by tau cycles, and the slots (1, tau) and (2, tau) are kept.
    Both halves decohere completely, leaving the maximally mixed two-qubit
    state.  This is run_fig1's rho_d on (|0> + |1>)/sqrt(2), whose
    ancilla is site "2", from a read-out of that one column.
    """
    tau = _check_tau(tau)
    ro = _readout(_fig1_circuit, (2, tau, "1"), 1, ("rho_d",))
    _, stack = ro.products(np.full((1, 1, 2), np.sqrt(0.5), dtype=complex))
    return ro.densities(stack, ro.check(stack))[0][0]


def nonlinearity_witness(rho_a: QubitDensity, rho_b: QubitDensity,
                         lam: float) -> float:
    """Trace-norm gap between mapping a mixture and mixing the maps.

    Zero for every (rho_a, rho_b, lam) would mean the channel is linear;
    the displaced-CNOT channel reaches 1 at lam = 1/2 on the basis states.
    """
    lam = _real(lam, "the mixing weight")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must sit in [0, 1], got {lam}")
    # nonlinear_map refuses a rho_a or rho_b that is not a QubitDensity
    rhs = (lam * nonlinear_map(rho_a).matrix
           + (1.0 - lam) * nonlinear_map(rho_b).matrix)
    lhs = nonlinear_map(QubitDensity.from_matrix(
        lam * rho_a.matrix + (1.0 - lam) * rho_b.matrix)).matrix
    return float(_trace_norms((lhs - rhs)[None])[0])
