"""End-to-end register-level experiments.

Every scenario here is built from the same primitive moves: prepare a pair
at one cycle, dilate one site so the pair straddles cycles, expand into the
two-copy form, and either read out at a single cycle or close the circuit
with a second gate.  The runners return report objects carrying the exact
intermediate states so tests and the command line can interrogate any step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvariantViolationError
from .registers import (
    DensityOperator,
    PureState,
    Register,
    SlotId,
    State,
    _trace_amplitudes,
    bell_phi_plus,
    check_densities,
    density_rows,
    density_to_json,
    maximally_mixed,
    partial_trace,
    qubit_state,
    relabel_cycles,
    tensor,
    to_density,
)
from .dynamics import (
    CorrelationMode,
    _as_mode,
    _gate_block,
    _left_multiply,
    apply_gate,
    cnot,
    displaced_copies,
    displaced_expansion,
    ensemble_density,
    free_expansion,
    measure_at_cycle,
    project,
    renormalized,
    spectral_ensemble,
)
from .analytics import (
    CurvePoint,
    _entropy_bits,
    trace_norm_distance,
    von_neumann_entropy,
)
from .channel import QubitDensity

# Rows run through the circuit at once when a grid is swept, so that the
# arrays held at one time do not grow with the grid.
ROW_BLOCK = 256


def _normalize_input(state, tau: int, site: Optional[str]) -> State:
    """Pin the input onto a single slot at the preparation cycle tau."""
    if isinstance(state, QubitDensity):
        return state.to_density(site or "1", tau)
    if isinstance(state, (PureState, DensityOperator)):
        reg = state.register
        if len(reg.slots) != 1:
            raise ValueError("circuit input must occupy a single slot")
        target = SlotId(site or reg.slots[0].site, tau)
        new_reg = Register((target,), reg.dims)
        if isinstance(state, PureState):
            return PureState(new_reg, state.amplitudes)
        return DensityOperator(new_reg, state.matrix)
    raise ValueError(f"unsupported circuit input: {type(state).__name__}")


def _check_tau(tau) -> int:
    tau = int(tau)
    if tau < 1:
        raise ValueError(f"dilation must be at least one cycle, got {tau}")
    return tau


def _slots(site: str, tau: int) -> tuple:
    """The input slot and its ancilla's slot at the preparation cycle."""
    anc = "2" if site != "2" else "anc"
    return SlotId(site, tau), SlotId(anc, tau)


def _outer(rows: np.ndarray) -> np.ndarray:
    """|psi><psi| of each row of an (N, d) amplitude stack."""
    return rows[:, :, None] * rows[:, None, :].conj()


def _mix(weights, stack: np.ndarray) -> np.ndarray:
    """Weighted sum over the leading row axis."""
    return np.tensordot(np.asarray(weights, dtype=float), stack, axes=1)


def row_blocks(n: int):
    """Slices of at most ROW_BLOCK rows covering range(n)."""
    for start in range(0, n, ROW_BLOCK):
        yield slice(start, min(start + ROW_BLOCK, n))


def grid_inputs(grid, dim: int = 2) -> tuple:
    """beta^2 values and the input rows sqrt(1 - b2)|0> + sqrt(b2)|1>.

    Returns (b2, amplitudes): an (N,) float array and an (N, dim) stack
    of normalized rows; with dim 3 the vacuum amplitude is zero.  A value
    outside [0, 1] raises ValueError.
    """
    b2 = np.array([float(b) for b in grid])
    bad = ~((b2 >= 0.0) & (b2 <= 1.0))
    if bad.any():
        raise ValueError(f"beta^2 out of range: {b2[bad][0]}")
    amps = np.zeros((len(b2), dim), dtype=complex)
    amps[:, dim - 2] = np.sqrt(1.0 - b2)
    amps[:, dim - 1] = np.sqrt(b2)
    return b2, amps / np.linalg.norm(amps, axis=1, keepdims=True)


def _gate_rows(rows: np.ndarray, reg: Register, targets) -> np.ndarray:
    """CNOT on the target slots of every row of an (N, reg.dim) stack."""
    lifted, axes = _gate_block(reg, cnot(), targets)
    t = rows.reshape((len(rows),) + reg.dims)
    out = _left_multiply(lifted, t, [a + 1 for a in axes])
    return out.reshape(len(rows), reg.dim)


@dataclass
class CircuitRows:
    """The displaced-CNOT circuit run on a stack of N pure inputs.

    The registers are shared by every row; each array has a leading row
    axis.  `pair` is the (input, ancilla) state rho_s comes from, `four`
    the four-slot state after the closing CNOT.
    """

    input_register: Register
    pair_register: Register
    four_register: Register
    readout_register: Register
    output_register: Register
    inputs: np.ndarray
    pair: np.ndarray
    four: np.ndarray
    rho_d: np.ndarray
    rho_out: np.ndarray

    def densities(self) -> dict:
        """The input, rho_s, rho_d and rho_out density matrix of every
        row, as (N, d, d) stacks by name, each checked by
        check_densities."""
        out = {"input": _outer(self.inputs), "rho_s": _outer(self.pair),
               "rho_d": self.rho_d, "rho_out": self.rho_out}
        for stack in out.values():
            check_densities(stack)
        return out


def displaced_cnot_rows(amplitudes, tau: int, site: str = "1") -> CircuitRows:
    """Run the displaced-CNOT circuit on a stack of pure single-slot inputs.

    amplitudes is (N, d) with d = 2 or 3, each row a normalized input on
    the slot (site, tau).  Every row gets a fresh ancilla in |0> and a
    CNOT; the site is then dilated by tau, the pair expanded into its two
    copies (dynamics.displaced_copies), read out at cycle tau for rho_d,
    and closed by a second CNOT whose ancilla slot is traced out for
    rho_out.  All of it runs as array operations over the row axis.
    """
    tau = _check_tau(tau)
    amps = np.asarray(amplitudes, dtype=complex)
    n, dim = amps.shape
    in_slot, anc_slot = _slots(site, tau)
    targets = (in_slot, anc_slot)
    pair_reg = Register(targets, (dim, 2))
    pair = np.zeros((n, dim, 2), dtype=complex)
    pair[:, :, 0] = amps
    pair = _gate_rows(pair.reshape(n, -1), pair_reg, targets)

    reg_a, reg_b = displaced_copies(pair_reg, tau, site)
    four_reg = Register(reg_a.slots + reg_b.slots, reg_a.dims + reg_b.dims)
    four = (pair[:, :, None] * pair[:, None, :]).reshape(n, four_reg.dim)
    read_pos = [i for i, s in enumerate(four_reg.slots) if s.cycle == tau]
    rho_d = _trace_amplitudes(four, four_reg.dims, read_pos)
    four = _gate_rows(four, four_reg, targets)
    out_pos = [four_reg.index_of(anc_slot)]
    rho_out = _trace_amplitudes(four, four_reg.dims, out_pos)

    return CircuitRows(
        input_register=Register((in_slot,), (dim,)),
        pair_register=pair_reg,
        four_register=four_reg,
        readout_register=Register(tuple(four_reg.slots[p] for p in read_pos),
                                  tuple(four_reg.dims[p] for p in read_pos)),
        output_register=Register((anc_slot,), (2,)),
        inputs=amps, pair=pair, four=four, rho_d=rho_d, rho_out=rho_out,
    )


@dataclass
class CircuitReport:
    """States and entropies from one pass of the displaced-CNOT circuit."""

    input_state: DensityOperator
    rho_s: DensityOperator
    rho_d: DensityOperator
    rho_out: DensityOperator
    four_slot_state: State
    entropies: dict
    tau: int

    def to_json_dict(self) -> dict:
        return {
            "input": density_to_json(self.input_state),
            "rho_s": density_to_json(self.rho_s),
            "rho_d": density_to_json(self.rho_d),
            "rho_out": density_to_json(self.rho_out),
            "entropies": dict(self.entropies),
        }


def _report(inp, rho_s, rho_d, rho_out, four, tau) -> CircuitReport:
    entropies = {
        "input": von_neumann_entropy(inp),
        "rho_s": von_neumann_entropy(rho_s),
        "rho_d": von_neumann_entropy(rho_d),
        "rho_out": von_neumann_entropy(rho_out),
    }
    return CircuitReport(inp, rho_s, rho_d, rho_out, four, entropies, tau)


def _pure_reports(rows: CircuitRows, tau: int) -> list:
    """One CircuitReport per row, every density validated in one pass."""
    columns = zip(
        density_rows(rows.input_register, _outer(rows.inputs)),
        density_rows(rows.pair_register, _outer(rows.pair)),
        density_rows(rows.readout_register, rows.rho_d),
        density_rows(rows.output_register, rows.rho_out),
        rows.four,
    )
    return [_report(inp, rho_s, rho_d, rho_out,
                    PureState(rows.four_register, four), tau)
            for inp, rho_s, rho_d, rho_out, four in columns]


def run_fig1(state, tau: int = 1, input_site: Optional[str] = None,
             policy=CorrelationMode.UNCORRELATED_COPIES) -> CircuitReport:
    """Run the displaced-CNOT circuit on one input qubit.

    The input is placed at cycle tau, entangled with a fresh ancilla by a
    CNOT, and its site is dilated by tau cycles.  The expansion then spans
    four slots; reading out at the preparation cycle gives rho_d, and the
    closing CNOT plus partial trace give the channel output on the ancilla.

    Mixed inputs are expanded per `policy`, uncorrelated copies by default.
    Under COHERENT_HISTORY the input's spectral branches run through the
    circuit as rows and are mixed afterwards.  Pure inputs never consult
    the policy.
    """
    tau = _check_tau(tau)
    inp = _normalize_input(state, tau, input_site)
    site = inp.register.slots[0].site
    if isinstance(inp, PureState):
        rows = displaced_cnot_rows(inp.amplitudes[None], tau, site)
        return _pure_reports(rows, tau)[0]
    if _as_mode(policy) is CorrelationMode.COHERENT_HISTORY:
        branches = spectral_ensemble(inp)
        weights = [w for w, _ in branches]
        rows = displaced_cnot_rows([psi.amplitudes for _, psi in branches],
                                   tau, site)
        return _report(
            inp,
            DensityOperator(rows.pair_register,
                            _mix(weights, _outer(rows.pair))),
            DensityOperator(rows.readout_register, _mix(weights, rows.rho_d)),
            DensityOperator(rows.output_register,
                            _mix(weights, rows.rho_out)),
            DensityOperator(rows.four_register,
                            _mix(weights, _outer(rows.four))),
            tau,
        )

    in_slot, anc_slot = _slots(site, tau)
    joint = tensor(inp, qubit_state(anc_slot.site, tau, 1.0, 0.0))
    pair = apply_gate(joint, cnot(), [in_slot, anc_slot])
    expanded = displaced_expansion(pair, tau, dilated_site=site,
                                   policy=policy)
    rho_d = measure_at_cycle(expanded, tau)
    closed = apply_gate(expanded, cnot(), [in_slot, anc_slot])
    rho_out = partial_trace(closed, [anc_slot])
    return _report(inp, pair, rho_d, rho_out, closed, tau)


def run_sweep(grid: Sequence[float], tau: int = 1) -> list:
    """run_fig1 on the inputs sqrt(1 - b2)|0> + sqrt(b2)|1> of site "1" for
    every beta^2 on the grid, one CircuitReport per point; the grid runs
    through the circuit in blocks of ROW_BLOCK rows."""
    tau = _check_tau(tau)
    _, amps = grid_inputs(grid)
    reports = []
    for block in row_blocks(len(amps)):
        reports += _pure_reports(displaced_cnot_rows(amps[block], tau), tau)
    return reports


@dataclass
class ReverseReport:
    """Outcome of undoing the displaced circuit gate by gate."""

    input_state: PureState
    recovered: DensityOperator
    recovered_slot: SlotId
    fidelity: float
    final_state: PureState
    tau: int


def run_reverse(state: PureState, tau: int = 1,
                input_site: Optional[str] = None) -> ReverseReport:
    """Invert the displaced circuit and hand the input qubit back.

    After the forward pass the ancilla site is dilated by the same tau,
    which realigns it with both copies of the input site; undoing the
    CNOTs at both cycles then frees the input state on the forward copy.
    The whole history stays pure, so recovery is exact.
    """
    if not isinstance(state, PureState):
        raise ValueError("reversal is defined for pure inputs")
    rep = run_fig1(state, tau=tau, input_site=input_site)
    four = rep.four_slot_state
    site = rep.rho_s.register.slots[0].site
    anc = rep.rho_s.register.slots[1].site
    tau = rep.tau

    shifted = relabel_cycles(four, anc, tau)
    undone = apply_gate(shifted, cnot(),
                        [SlotId(site, tau), SlotId(anc, tau)])
    undone = apply_gate(undone, cnot(),
                        [SlotId(site, 2 * tau), SlotId(anc, 2 * tau)])
    out_slot = SlotId(site, 2 * tau)
    recovered = partial_trace(undone, [out_slot])

    inp = _normalize_input(state, tau, input_site)
    fid = float(np.real(
        inp.amplitudes.conj() @ recovered.matrix @ inp.amplitudes
    ))
    return ReverseReport(inp, recovered, out_slot, fid, undone, tau)


def run_displaced_backend(state: State, data_site: str,
                          ancilla_site: str = "c") -> DensityOperator:
    """Displaced-CNOT measurement box applied to a two-cycle single site.

    The input occupies one site at two cycles.  Each cycle gets its own
    fresh ancilla and CNOT, the data site is then dilated by the cycle
    gap, and a final CNOT at the later cycle folds the early copy onto
    the late ancilla, which is returned.

    This is the back end a distant party can apply to their half of a
    shared state; it is linear in the two-cycle input, which is exactly
    why it cannot leak a remote measurement choice.
    """
    reg = state.register
    if len(reg.slots) != 2 or set(reg.sites) != {data_site}:
        raise ValueError(
            f"expected two slots on site {data_site!r}, got {list(reg.slots)}"
        )
    if ancilla_site == data_site:
        raise ValueError("ancilla site must differ from the data site")
    c0, c1 = sorted(s.cycle for s in reg.slots)
    st = tensor(state, tensor(qubit_state(ancilla_site, c0, 1.0, 0.0),
                              qubit_state(ancilla_site, c1, 1.0, 0.0)))
    st = apply_gate(st, cnot(),
                    [SlotId(data_site, c0), SlotId(ancilla_site, c0)])
    st = apply_gate(st, cnot(),
                    [SlotId(data_site, c1), SlotId(ancilla_site, c1)])
    st = relabel_cycles(st, data_site, c1 - c0)
    st = apply_gate(st, cnot(),
                    [SlotId(data_site, c1), SlotId(ancilla_site, c1)])
    return partial_trace(st, [SlotId(ancilla_site, c1)])


@dataclass
class NoSignalReport:
    """Bob-side outputs for each of Alice's outcomes in one basis."""

    basis: str
    outcomes: list
    average: DensityOperator
    max_deviation: float
    substitution_output: DensityOperator
    substitution_deviation: float
    tau: int

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "outcomes": [
                {"label": label, "probability": prob,
                 "output": density_to_json(rho)}
                for label, prob, rho in self.outcomes
            ],
            "average": density_to_json(self.average),
            "max_deviation": self.max_deviation,
            "substitution_deviation": self.substitution_deviation,
        }


_BASES = {
    "computational": (("0", (1.0, 0.0)), ("1", (0.0, 1.0))),
    "diagonal": (("+", (1.0, 1.0)), ("-", (1.0, -1.0))),
}


def run_no_signaling(basis: str, tau: int = 1) -> NoSignalReport:
    """Alice measures her half of a shared pair; Bob runs the displaced
    box on his two-cycle half.

    For each of Alice's outcomes Bob's output is computed exactly, along
    with its trace-norm deviation from the maximally mixed state.  The
    report also evaluates the box on the uncorrelated stand-in (Bob's
    reduced state copied independently to both cycles), which a nonlinear
    box would have to distinguish for signaling to work.
    """
    if basis not in _BASES:
        raise ValueError(
            f"basis must be one of {sorted(_BASES)}, got {basis!r}"
        )
    tau = int(tau)
    if tau < 1:
        raise ValueError(f"dilation must be at least one cycle, got {tau}")

    pair = bell_phi_plus("a", "b", tau)
    shared = free_expansion(pair, [0, tau])
    mixed_ref = None
    outcomes = []
    for label, vec in _BASES[basis]:
        m = project(shared, SlotId("a", tau), vec, label=label)
        bob = partial_trace(m.post_state, [SlotId("b", 0), SlotId("b", tau)])
        out = run_displaced_backend(bob, "b")
        if mixed_ref is None:
            mixed_ref = maximally_mixed(out.register)
        outcomes.append((label, m.probability, out))

    avg = DensityOperator(
        outcomes[0][2].register,
        sum(p * o.matrix for _, p, o in outcomes),
    )
    devs = [trace_norm_distance(o, mixed_ref) for _, _, o in outcomes]
    devs.append(trace_norm_distance(avg, mixed_ref))

    rb = partial_trace(to_density(pair), [SlotId("b", tau)])
    sub_in = tensor(relabel_cycles(rb, "b", -tau), rb)
    sub_out = run_displaced_backend(sub_in, "b")
    sub_dev = trace_norm_distance(sub_out, mixed_ref)

    return NoSignalReport(basis, outcomes, avg, max(devs), sub_out, sub_dev,
                          tau)


@dataclass
class ProprietyReport:
    """Same average state, different ensembles, different channel outputs."""

    ensemble: list
    proper_output: DensityOperator
    improper_output: DensityOperator
    trace_distance: float
    tau: int


def run_proper_vs_improper(ensemble: Optional[Sequence] = None,
                           tau: int = 1) -> ProprietyReport:
    """Compare running the circuit branch by branch against running it on
    the averaged density matrix.

    The branch-by-branch (proper) path copies each pure branch through the
    expansion; the averaged (improper) path expands the density matrix as
    uncorrelated copies.  A linear channel could never tell the two
    apart, so any gap is a direct readout of the channel's nonlinearity.
    """
    tau = _check_tau(tau)
    if ensemble is None:
        ensemble = [(0.5, qubit_state("1", tau, 1.0, 0.0)),
                    (0.5, qubit_state("1", tau, 0.0, 1.0))]
    branches = []
    for w, psi in ensemble:
        if not isinstance(psi, PureState) or len(psi.register.slots) != 1:
            raise ValueError("ensemble branches must be single-slot pure states")
        branches.append((float(w), psi))
    if not branches:
        raise ValueError("empty ensemble")
    if abs(sum(w for w, _ in branches) - 1.0) > 1e-9:
        raise ValueError("ensemble weights must sum to 1")
    sites = {psi.register.slots[0].site for _, psi in branches}
    if len(sites) != 1:
        raise ValueError("ensemble branches must share one site")
    if len({psi.register.dims for _, psi in branches}) != 1:
        raise ValueError("ensemble branches must share one slot dimension")

    pinned = [(w, _normalize_input(psi, tau, None))
              for w, psi in renormalized(branches)]
    weights = [w for w, _ in pinned]
    rows = displaced_cnot_rows([psi.amplitudes for _, psi in pinned], tau,
                               sites.pop())
    proper = DensityOperator(rows.output_register,
                             _mix(weights, rows.densities()["rho_out"]))

    avg_in = ensemble_density(pinned)
    improper = run_fig1(avg_in, tau=tau,
                        policy=CorrelationMode.UNCORRELATED_COPIES).rho_out

    return ProprietyReport(branches, proper, improper,
                           trace_norm_distance(proper, improper), tau)


@dataclass
class EntropyStudyReport:
    """Entropy bookkeeping for a vacuum-diluted input sweep."""

    p_vac: float
    tau: int
    points: list
    drop_points: list = field(default_factory=list)


def run_entropy_study(p_vac: float, grid: Sequence[float],
                      tau: int = 1) -> EntropyStudyReport:
    """Sweep the input amplitude with a vacuum admixture and track entropy.

    The input site carries a three-level slot: with probability p_vac it
    holds the vacuum, which passes through every gate untouched, and
    otherwise the qubit alpha|0> + beta|1>.  The branches stay coherent
    through the expansion (each history is copied whole), so rho_d is the
    branch-weighted mixture of per-branch marginal products.

    For every grid point the readout entropy S_rho_d must dominate the
    input entropy S_in; the closing gate can then push the output entropy
    S_out back below S_rho_d.  Points where S_out drops strictly below
    S_rho_d are collected in drop_points.
    """
    p_vac = float(p_vac)
    if not 0.0 <= p_vac <= 1.0:
        raise ValueError(f"vacuum weight out of range: {p_vac}")
    tau = _check_tau(tau)
    b2, qubits = grid_inputs(grid, dim=3)

    # The vacuum branch is the same at every point: one row, run once.
    if p_vac > 0.0:
        vacuum = displaced_cnot_rows([[1.0, 0.0, 0.0]], tau).densities()

    def branches(block):
        if p_vac > 0.0:
            yield p_vac, vacuum
        if p_vac < 1.0:
            yield 1.0 - p_vac, \
                displaced_cnot_rows(qubits[block], tau).densities()

    points = []
    drops = []
    for block in row_blocks(len(b2)):
        n = block.stop - block.start
        mixed = None
        for w, dens in branches(block):
            parts = (dens["input"], dens["rho_d"], dens["rho_out"])
            if mixed is None:
                mixed = [np.zeros((n,) + p.shape[1:], dtype=complex)
                         for p in parts]
            mixed = [acc + w * p for acc, p in zip(mixed, parts)]
        s_in, s_d, s_out = (_entropy_bits(check_densities(m)) for m in mixed)
        below = s_in > s_d + 1e-9
        if below.any():
            i = int(np.argmax(below))
            raise InvariantViolationError(
                f"readout entropy {s_d[i]:.12g} fell below input entropy "
                f"{s_in[i]:.12g} at beta^2={b2[block][i]:.12g}"
            )
        for b, si, sd, so in zip(b2[block].tolist(), s_in.tolist(),
                                 s_d.tolist(), s_out.tolist()):
            if so < sd - 1e-12:
                drops.append(b)
            points.append(
                CurvePoint(b, {"S_in": si, "S_rho_d": sd, "S_out": so})
            )
    return EntropyStudyReport(p_vac, tau, points, drops)


def dilation_from_round_trip(duration: float, speed_fraction: float) -> float:
    """Clock lag accumulated by a round trip at constant speed.

    A traveler moving at v (as a fraction of c) for a stay-at-home
    duration T returns younger by T (1 - sqrt(1 - v^2)); that lag, in the
    same units as T, is the dilation to feed the cycle model after
    rounding to whole cycles.
    """
    duration = float(duration)
    v = float(speed_fraction)
    if duration < 0.0:
        raise ValueError(f"duration must be nonnegative, got {duration}")
    if not 0.0 <= v < 1.0:
        raise ValueError(f"speed fraction must sit in [0, 1), got {v}")
    return duration * (1.0 - np.sqrt(1.0 - v * v))
