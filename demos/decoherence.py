"""A maximally entangled pair loses all correlations after displacement.

One member of a Bell pair is dilated by a cycle, so at any single readout
cycle the two slots come from different copies of the history.  Tracing
down to that cycle leaves the maximally mixed two-qubit state: every
joint outcome lands at probability 1/4.
"""

import numpy as np

from tdesim import (
    bell_phi_plus,
    displaced_bell_channel,
    displaced_expansion,
    joint_outcome_distribution,
    measure_at_cycle,
)


def main():
    tau = 1
    pair = bell_phi_plus("1", "2", tau)
    print("shared pair:", pair.register.slots)
    print("amplitudes:", np.round(pair.amplitudes, 6))

    expanded = displaced_expansion(pair, tau, dilated_site="1")
    print("\nafter dilating site 1 by", tau, "cycle(s):")
    print("  slots:", expanded.register.slots)

    rho = measure_at_cycle(expanded, tau)
    print("\nreadout restricted to cycle", tau)
    print(np.round(rho.matrix.real, 6))

    dist = joint_outcome_distribution(rho, rho.register.slots)
    print("\njoint outcome probabilities:")
    for outcome, p in sorted(dist.items()):
        print(f"  {outcome}: {p:.6f}")

    # the channel helper computes the same state on the compiled circuit
    redo = displaced_bell_channel(tau)
    print("\nhelper agrees:",
          np.abs(redo.matrix - rho.matrix).max() < 1e-15)


if __name__ == "__main__":
    main()
