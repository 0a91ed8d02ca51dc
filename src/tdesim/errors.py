"""Exception types shared across the simulator.

Everything raised on purpose derives from SimulationError so callers can
catch one base class.  Plain ValueError is still used for mundane argument
mistakes (wrong lengths, out-of-range parameters).
"""


class SimulationError(Exception):
    """Base class for simulator-specific failures."""


class OverlappingSlotError(SimulationError):
    """Two registers (or a relabeling) would place two slots on the same
    (site, cycle) pair."""


class UnknownSlotError(SimulationError):
    """A slot was addressed that the register does not contain."""


class CycleMisalignmentError(SimulationError):
    """A gate was asked to act across slots at different cycles, or a
    circuit references a cycle no slot can reach."""


class ZeroProbabilityError(SimulationError):
    """Conditioning on an outcome whose probability is numerically zero."""


class RegisterSizeError(SimulationError):
    """A state would need more memory than registers.MAX_STATE_BYTES."""


class InvariantViolationError(SimulationError):
    """A state or derived quantity failed a physical sanity check
    (negative eigenvalue beyond tolerance, broken entropy bound, ...)."""


class CircuitParseError(SimulationError):
    """A circuit program failed to parse.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")
