"""Entropy, distance, and curve utilities.

Entropies are in bits.  Trace norm here means the full Schatten 1-norm
Tr|A - B| with no 1/2 in front, so orthogonal pure states sit at distance
2 and the distinguishability curves below run on a [0, 2] scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantViolationError
from .registers import (ATOL, ENTROPY_SLACK, PSD_FLOOR, DensityOperator,
                        PureState, partial_trace, to_density)


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, (DensityOperator, PureState)):
        return to_density(rho).matrix
    return np.asarray(rho, dtype=complex)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho log2 rho.

    Eigenvalues in [PSD_FLOOR, 0) are clamped to zero as roundoff; anything
    more negative is treated as a corrupted state and raises.  A
    DensityOperator's spectrum is the one its validation computed.
    """
    if isinstance(rho, PureState):
        rho = to_density(rho)
    if isinstance(rho, DensityOperator):
        vals = rho.eigenvalues
    else:
        vals = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
        lo = float(vals.min())
        if lo < PSD_FLOOR:
            raise InvariantViolationError(
                f"eigenvalue {lo:.3e} below tolerance; not a density matrix"
            )
    return float(_entropy_bits(vals))


def _entropy_bits(vals: np.ndarray) -> np.ndarray:
    """Entropies in bits of spectra shaped (..., d), one per row; values
    at or below zero contribute nothing (they become 1, whose term
    1 log2 1 is exactly 0).  Summed left to right, so zeros padding a
    spectrum change no bit of its entropy."""
    p = np.where(vals > 0.0, vals, 1.0)
    total = np.add.accumulate(p * np.log2(p), axis=-1)[..., -1]
    return np.maximum(-total, 0.0) + 0.0


def binary_entropy(p: float) -> float:
    """Entropy in bits of a (p, 1-p) distribution."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    out = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            out -= q * np.log2(q)
    return out


def trace_norm_distance(a, b) -> float:
    """Tr|a - b| between two operators of matching shape."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    if isinstance(a, (DensityOperator, PureState)) and \
            isinstance(b, (DensityOperator, PureState)):
        if a.register.dims != b.register.dims:
            raise ValueError("registers have different slot dimensions")
    return float(_trace_norms((ma - mb)[None])[0])


def _trace_norms(diff: np.ndarray) -> np.ndarray:
    """Tr|D| for each matrix of an (N, d, d) stack: from the eigenvalues
    where D is hermitian to ATOL, else from the singular values."""
    herm = np.abs(diff - diff.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    out = np.empty(len(diff))
    h = herm <= ATOL
    if h.any():
        out[h] = np.abs(np.linalg.eigvalsh(diff[h])).sum(axis=-1)
    if not h.all():
        out[~h] = np.linalg.svd(diff[~h], compute_uv=False).sum(axis=-1)
    return out


def purity(rho) -> float:
    """Tr rho^2; 1 for pure states, 1/d for the maximally mixed state."""
    m = _as_matrix(rho)
    return float(np.einsum("ij,ji->", m, m).real)


def subadditivity_margin(rho: DensityOperator, split: int = 1) -> float:
    """S(A) + S(B) - S(AB) for the bipartition at slot index `split`.

    Nonnegative for every valid state; a margin below -ENTROPY_SLACK
    means the inputs were not a state at all and raises instead of
    returning.
    """
    reg = rho.register
    if len(reg.slots) < 2:
        raise ValueError("subadditivity needs at least two slots")
    if not 0 < split < len(reg.slots):
        raise ValueError(f"split index {split} out of range")
    part_a = partial_trace(rho, reg.slots[:split])
    part_b = partial_trace(rho, reg.slots[split:])
    margin = (von_neumann_entropy(part_a) + von_neumann_entropy(part_b)
              - von_neumann_entropy(rho))
    if margin < -ENTROPY_SLACK:
        raise InvariantViolationError(
            f"subadditivity violated by {margin:.3e}"
        )
    return margin


@dataclass(frozen=True)
class CurvePoint:
    """One abscissa of a parameter sweep plus its named curve values."""

    beta_sq: float
    values: dict


def fig2_curves(grid: Sequence[float], tau: int = 1,
                tolerance: float = 1e-12) -> list:
    """Distinguishability before and after the displaced-CNOT channel.

    For each beta^2 on the grid the input alpha|0> + beta|1> is compared
    against |0>, and the two channel outputs against each other:

    * D_in_paper      population gap 2 beta^2
    * D_in_tracenorm  full trace norm of the input difference, 2 beta
    * D_out           simulated trace norm of the output difference

    D_out is produced by the full register simulation and cross-checked
    against its closed form 4 (beta^2 - beta^4); disagreement beyond the
    tolerance raises.  Only the input and output densities are read off
    the circuit, both qubits, so each block of the grid costs one check.
    """
    from .scenarios import _check_tau, _densities, grid_inputs, row_blocks

    tau = _check_tau(tau)
    b2, amps = grid_inputs(grid)
    # row 0 is the |0> reference every grid point is compared against
    amps = np.concatenate([[[1.0, 0.0]], amps])
    d_in, d_out = [], []
    for block in row_blocks(len(amps)):
        ro, stack = _densities(amps[block], tau, ("input", "rho_out"))
        ro.check(stack)
        inputs, outputs = ro.columns(stack)
        if block.start == 0:
            ref_in, ref_out = inputs[0], outputs[0]
        d_in.append(_trace_norms(inputs - ref_in))
        d_out.append(_trace_norms(outputs - ref_out))
    d_in = np.concatenate(d_in)[1:]
    d_out = np.concatenate(d_out)[1:]

    closed = 4.0 * (b2 - b2 * b2)
    off = np.abs(d_out - closed) > tolerance
    if off.any():
        i = int(np.argmax(off))
        raise InvariantViolationError(
            f"simulated output distance {d_out[i]:.15g} deviates from "
            f"{closed[i]:.15g} at beta^2={b2[i]:.15g}"
        )
    return [
        CurvePoint(b, {"D_in_paper": 2.0 * b, "D_in_tracenorm": di,
                       "D_out": do})
        for b, di, do in zip(b2.tolist(), d_in.tolist(), d_out.tolist())
    ]


def amplification_points(points: Sequence[CurvePoint],
                         definition: str = "D_in_paper") -> list:
    """Grid values where the output distance strictly exceeds the input
    distance under the chosen input definition.

    Under the population-gap definition (D_in_paper) the region is
    0 < beta^2 < 1/2; under the strict trace norm it is empty, since
    4 (beta^2 - beta^4) <= 2 beta everywhere on [0, 1].
    """
    if definition not in ("D_in_paper", "D_in_tracenorm"):
        raise ValueError(f"unknown input definition {definition!r}")
    return [p.beta_sq for p in points
            if p.values["D_out"] > p.values[definition] + ATOL]
