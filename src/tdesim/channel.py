"""Closed forms for the displaced-CNOT channel and its nonlinearity, and
one read-out of the compiled circuit.

Sending one half of a CNOT pair through a dilation and closing with a
second CNOT acts on the input qubit's populations (g00, g11) as

    (g00, g11)  ->  (g00^2 + g11^2,  2 g00 g11)

independently of any input coherence.  The map is quadratic in the density
matrix, so it cannot come from any linear channel; nonlinearity_witness
quantifies that by how badly the map fails to commute with mixing.
A QubitDensity meets the density contract of registers.check_densities,
so it refuses exactly what a DensityOperator refuses, and nonlinear_map
reads its populations as the simulator reads a density's spectrum.
displaced_bell_channel is run_fig1's rho_d, read alone from the same
compiled circuit (scenarios._readout) before its closing CNOT.  The
closed forms refuse anything but a QubitDensity with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .registers import (DensityOperator, Register, SlotId, _check_tau,
                        _trace_norms, check_densities)
from .scenarios import _fig1_circuit, _readout


@dataclass(frozen=True)
class QubitDensity:
    """Single-qubit density matrix as populations plus one coherence,
    held to the density contract (registers.check_densities) on its
    matrix: what DensityOperator refuses raises the same
    InvariantViolationError here."""

    g00: float
    g11: float
    g01: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "g00", float(self.g00))
        object.__setattr__(self, "g11", float(self.g11))
        object.__setattr__(self, "g01", complex(self.g01))
        check_densities(self.to_matrix())

    @classmethod
    def from_matrix(cls, matrix) -> "QubitDensity":
        """The populations and coherence of a 2 x 2 matrix that meets the
        density contract, so that nothing the fields omit (an imaginary
        diagonal, a lower coherence that is not the upper's conjugate) is
        dropped silently.  The coherence is the conjugate of the lower
        one, the entry the contract's eigvalsh reads, so the fields hold
        the spectrum that was checked."""
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got {m.shape}")
        check_densities(m)
        # + 0.0 turns the -0.0 that conj makes of a zero imaginary part
        # back into the 0.0 of the upper entry of a hermitian matrix
        return cls(m[0, 0].real, m[1, 1].real, np.conj(m[1, 0]) + 0.0)

    def to_matrix(self) -> np.ndarray:
        return np.array([[self.g00, self.g01],
                         [np.conj(self.g01), self.g11]])

    def to_density(self, site: str = "1", cycle: int = 0) -> DensityOperator:
        reg = Register((SlotId(site, cycle),), (2,))
        return DensityOperator(reg, self.to_matrix())


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
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must sit in [0, 1], got {lam}")
    # nonlinear_map refuses a rho_a or rho_b that is not a QubitDensity
    rhs = (lam * nonlinear_map(rho_a).to_matrix()
           + (1.0 - lam) * nonlinear_map(rho_b).to_matrix())
    mixed = QubitDensity(
        lam * rho_a.g00 + (1.0 - lam) * rho_b.g00,
        lam * rho_a.g11 + (1.0 - lam) * rho_b.g11,
        lam * rho_a.g01 + (1.0 - lam) * rho_b.g01,
    )
    lhs = nonlinear_map(mixed).to_matrix()
    return float(_trace_norms((lhs - rhs)[None])[0])
