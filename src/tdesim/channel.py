"""Closed forms for the displaced-CNOT channel and its nonlinearity, and
one read-out of the compiled circuit.

Sending one half of a CNOT pair through a dilation and closing with a
second CNOT acts on the input qubit's populations (g00, g11) as

    (g00, g11)  ->  (g00^2 + g11^2,  2 g00 g11)

independently of any input coherence.  The map is quadratic in the density
matrix, so it cannot come from any linear channel; nonlinearity_witness
quantifies that by how badly the map fails to commute with mixing.
displaced_bell_channel reads the same circuit, run on the executor, before
its closing CNOT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .registers import (ATOL, WEIGHT_ROUNDOFF, DensityOperator, Register,
                        SlotId, on_register)


@dataclass(frozen=True)
class QubitDensity:
    """Single-qubit density matrix as populations plus one coherence."""

    g00: float
    g11: float
    g01: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "g00", float(self.g00))
        object.__setattr__(self, "g11", float(self.g11))
        object.__setattr__(self, "g01", complex(self.g01))
        if self.g00 < -WEIGHT_ROUNDOFF or self.g11 < -WEIGHT_ROUNDOFF:
            raise ValueError(f"negative population ({self.g00}, {self.g11})")
        if abs(self.g00 + self.g11 - 1.0) > ATOL:
            raise ValueError(
                f"populations sum to {self.g00 + self.g11:.15g}, expected 1"
            )
        if abs(self.g01) ** 2 > self.g00 * self.g11 + ATOL:
            raise ValueError("coherence exceeds positivity bound")

    @classmethod
    def from_amplitudes(cls, amp0, amp1) -> "QubitDensity":
        a, b = complex(amp0), complex(amp1)
        n = abs(a) ** 2 + abs(b) ** 2
        return cls(abs(a) ** 2 / n, abs(b) ** 2 / n, a * np.conj(b) / n)

    @classmethod
    def from_matrix(cls, matrix) -> "QubitDensity":
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got {m.shape}")
        return cls(m[0, 0].real, m[1, 1].real, m[0, 1])

    def to_matrix(self) -> np.ndarray:
        return np.array([[self.g00, self.g01],
                         [np.conj(self.g01), self.g11]])

    def to_density(self, site: str = "1", cycle: int = 0) -> DensityOperator:
        reg = Register((SlotId(site, cycle),), (2,))
        return DensityOperator(reg, self.to_matrix())


def nonlinear_map(rho: QubitDensity) -> QubitDensity:
    """Output of the displaced-CNOT channel on one input qubit."""
    return QubitDensity(rho.g00 ** 2 + rho.g11 ** 2,
                        2.0 * rho.g00 * rho.g11)


def displaced_bell_channel(tau: int = 1,
                           site_a: str = "1",
                           site_b: str = "2") -> DensityOperator:
    """Two-site reduced state of a dilated Bell pair at the readout cycle.

    The pair is prepared at cycle tau, site_a is dilated by tau cycles,
    and the slots at cycle tau are kept.  Both halves decohere completely,
    leaving the maximally mixed two-qubit state.  This is the rho_d
    read-out of the displaced-CNOT circuit (scenarios._fig1_circuit) on
    (|0> + |1>)/sqrt(2), relabeled from its ancilla onto site_b.
    """
    # scenarios imports this module, so it is imported here
    from .scenarios import _check_tau, _fig1_circuit, _readout

    tau = _check_tau(tau)
    register = Register(((site_a, tau), (site_b, tau)), (2, 2))
    ro = _readout(_fig1_circuit, (2, tau, site_a), 1, ("rho_d",))
    # (|0> + |1>)/sqrt(2) as one state of one row
    _, stack = ro.products(np.full((1, 1, 2), np.sqrt(0.5), dtype=complex))
    ((rho,),) = ro.densities(stack, ro.check(stack))
    return on_register(rho, register)


def nonlinearity_witness(rho_a: QubitDensity, rho_b: QubitDensity,
                         lam: float) -> float:
    """Trace-norm gap between mapping a mixture and mixing the maps.

    Zero for every (rho_a, rho_b, lam) would mean the channel is linear;
    the displaced-CNOT channel reaches 1 at lam = 1/2 on the basis states.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must sit in [0, 1], got {lam}")
    mixed = QubitDensity(
        lam * rho_a.g00 + (1.0 - lam) * rho_b.g00,
        lam * rho_a.g11 + (1.0 - lam) * rho_b.g11,
        lam * rho_a.g01 + (1.0 - lam) * rho_b.g01,
    )
    lhs = nonlinear_map(mixed).to_matrix()
    rhs = (lam * nonlinear_map(rho_a).to_matrix()
           + (1.0 - lam) * nonlinear_map(rho_b).to_matrix())
    return float(np.abs(np.linalg.eigvalsh(lhs - rhs)).sum())
