"""Exact simulation of entanglement between clock cycles.

The model treats each (site, cycle) pair as its own tensor factor, so a
time-dilated qubit is literally a relabeled slot.  The package provides
the register algebra, the two-copy expansions, the resulting nonlinear
qubit channel in closed form, entropy and distance analytics, end-to-end
scenario runners, and a small circuit language with a command line.
"""

from .errors import (
    CircuitParseError,
    CycleMisalignmentError,
    InvariantViolationError,
    OverlappingSlotError,
    RegisterSizeError,
    SimulationError,
    UnknownSlotError,
    ZeroProbabilityError,
)
from .registers import (
    MAX_STATE_BYTES,
    CorrelationMode,
    DensityOperator,
    PureState,
    Register,
    SlotId,
    bell_phi_plus,
    density_to_json,
    joint_outcome_distribution,
    maximally_mixed,
    qubit_state,
    to_density,
)
from .dsl import (
    CircuitProgram,
    ExecutionReport,
    format_circuit,
    parse_circuit,
    run_program,
)
from .dynamics import displaced_expansion, measure_at_cycle
from .scenarios import (
    CircuitReport,
    CurvePoint,
    EntropyStudyReport,
    NoSignalReport,
    ProprietyReport,
    ReverseReport,
    dilation_from_round_trip,
    run_displaced_backend,
    run_entropy_study,
    run_fig1,
    run_no_signaling,
    run_proper_vs_improper,
    run_reverse,
    run_sweep,
)
from .analytics import (
    amplification_points,
    fig2_curves,
    purity,
    subadditivity_margin,
    trace_norm_distance,
)
from .channel import (
    QubitDensity,
    displaced_bell_channel,
    nonlinear_map,
    nonlinearity_witness,
)
# loaded with the package: benchmarks/tracer.py wraps the calls of every
# tdesim module that `import tdesim` loads, the command line's included
from . import cli

__version__ = "0.1.0"
