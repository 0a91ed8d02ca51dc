"""Entropy, distance, and curve utilities.

The analytics read the engine (scenarios and registers), and no module
of the engine imports them.  The state analytics take a PureState or a
DensityOperator, read through registers.to_density, and anything else
raises ValueError: they rely on the density contract construction
checked.  Entropies are in bits.
Trace norm here means the full Schatten 1-norm Tr|A - B| with no 1/2 in
front, so orthogonal pure states sit at distance 2 and the
distinguishability curves below run on a [0, 2] scale.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvariantViolationError
from .registers import (ATOL, ENTROPY_SLACK, _check_tau, _entropy_bits,
                        _items, _real, _trace_norms, partial_trace,
                        to_density)
from .scenarios import (CurvePoint, _fig1_circuit, _readout, grid_inputs,
                        row_blocks)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho log2 rho of a PureState or DensityOperator, from
    the spectrum its validation computed; the negative eigenvalues that
    validation lets through as roundoff count as zero."""
    return float(_entropy_bits(to_density(rho).eigenvalues))


def trace_norm_distance(a, b) -> float:
    """Tr|a - b| between two states, pure or mixed, whose registers have
    the same slot dimensions."""
    ma, mb = to_density(a), to_density(b)
    if ma.register.dims != mb.register.dims:
        raise ValueError("registers have different slot dimensions")
    return float(_trace_norms((ma.matrix - mb.matrix)[None])[0])


def purity(rho) -> float:
    """Tr rho^2 of a PureState or DensityOperator; 1 for pure states,
    1/d for the maximally mixed state."""
    m = to_density(rho).matrix
    return float(np.einsum("ij,ji->", m, m).real)


def subadditivity_margin(rho) -> float:
    """S(A) + S(B) - S(AB) of a PureState or DensityOperator, read through
    registers.to_density, where A is the first slot and B the rest.

    Both marginals are registers.partial_trace of it, which reads the
    rows the density keeps, so a density built from rows takes no eigh
    and any other one at most one.  Nonnegative for every valid state; a
    margin below -ENTROPY_SLACK means the inputs were not a state at all
    and raises instead of returning.
    """
    rho = to_density(rho)
    slots = rho.register.slots
    if len(slots) < 2:
        raise ValueError("subadditivity needs at least two slots")
    part_a = partial_trace(rho, slots[:1])
    part_b = partial_trace(rho, slots[1:])
    margin = (von_neumann_entropy(part_a) + von_neumann_entropy(part_b)
              - von_neumann_entropy(rho))
    if margin < -ENTROPY_SLACK:
        raise InvariantViolationError(
            f"subadditivity violated by {margin:.3e}"
        )
    return margin


def _check_tolerance(tolerance) -> float:
    """tolerance as a float; anything but a finite positive number raises
    ValueError."""
    tolerance = _real(tolerance, "the tolerance")
    if not 0.0 < tolerance < np.inf:
        raise ValueError(
            f"tolerance must be finite and positive, got {tolerance}"
        )
    return tolerance


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
    tolerance, which must be finite and positive, raises.  Only the input
    and output densities are read off the circuit, both qubits, so each
    block of the grid costs one check and one trace-norm pass over both
    curves.
    """
    tau = _check_tau(tau)
    tolerance = _check_tolerance(tolerance)
    b2, amps = grid_inputs(grid)
    # row 0 is the |0> reference every grid point is compared against
    amps = np.concatenate([[[1.0, 0.0]], amps])
    ro = _readout(_fig1_circuit, (2, tau, "1"), 1, ("input", "rho_out"))
    norms = []
    for block in row_blocks(len(amps)):
        _, stack = ro.products(amps[block, None])
        ro.check(stack)
        if block.start == 0:
            ref = stack[0]
        # (B, 2, 2, 2) as input, output, input, ...: one pass for both
        norms.append(_trace_norms((stack - ref).reshape(-1, 2, 2)))
    d_in, d_out = np.concatenate(norms).reshape(-1, 2)[1:].T

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
    4 (beta^2 - beta^4) <= 2 beta everywhere on [0, 1].  Points that are
    not a sequence of CurvePoints raise ValueError naming the type.
    """
    points = _items(points, "a curve")
    for p in points:
        if not isinstance(p, CurvePoint):
            raise ValueError(f"expected a CurvePoint, got {type(p).__name__}")
    if definition not in ("D_in_paper", "D_in_tracenorm"):
        raise ValueError(f"unknown input definition {definition!r}")
    return [p.beta_sq for p in points
            if p.values["D_out"] > p.values[definition] + ATOL]
