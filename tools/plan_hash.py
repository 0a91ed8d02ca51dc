"""Print one sha256 per seed over every step of the plans the compiler
makes, so that two checkouts can be compared for plan changes.

For seeds 11-13, compiles with ``parse_circuit`` every program of the
benchmark's ``deep-circuits`` workload (benchmarks/workloads.py,
unchanged) and FIXED_PROGRAM, which takes the gates those programs
never take, then the scenario circuits ``_fig1_circuit`` and
``_reversal`` (input sites 1 and 2) and ``_box`` at dims 2 and 3 and
tau 1-3.  It hashes, per plan, each step's kind, line, slots, axes and
shift and the dtype, shape and bytes of its ``operand`` and ``perm``,
then the plan's two registers; a program the compiler refuses
contributes its error's type and message.  A change that keeps every
plan bit-identical prints the same three lines before and after.

The tdesim it compiles with is the one in CHECKOUT's ``src``, this
checkout's by default, so the same tool compares a base and a head:

    python tools/plan_hash.py [CHECKOUT]

Uses only the standard library, numpy and tdesim.
"""

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKOUT = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else ROOT
sys.path[:0] = [os.path.join(CHECKOUT, "src"),
                os.path.join(ROOT, "benchmarks")]

import refcircuit  # noqa: E402
import workloads  # noqa: E402
from tdesim import SimulationError, parse_circuit  # noqa: E402
from tdesim.registers import Register  # noqa: E402
from tdesim.scenarios import _box, _fig1_circuit, _reversal  # noqa: E402

SEEDS = (11, 12, 13)

# Gates the workload's programs never take: CNOTs whose control sits
# after their target in the register, X and phase gates on vacuum
# qutrits, and a run of monomial gates broken by H.
FIXED_PROGRAM = """\
prepare a @0 0.6|0>+0.8|1>
prepare b @0 |vac>
prepare c @0 (0.5+0.5j)|0>-0.5|1>
cnot c a @0
cnot b a @0
gate x b @0
gate phase(0.75) b @0
cnot c b @0
gate h a @0
cnot a c @0
dilate c +1
cnot b c @1
gate phase(2.5) a @1
output a @1
"""


def program_texts(seed: int) -> list:
    """The workload's program texts of one seed, in the order it draws
    them."""
    texts = []
    build = workloads._program_op
    workloads._program_op = lambda kind, prog: texts.append(
        refcircuit.render(prog))
    try:
        workloads.deep_circuits(seed)
    finally:
        workloads._program_op = build
    return texts


def scenario_plans() -> list:
    """The scenario circuits' plans at dims 2 and 3 and tau 1-3."""
    plans = []
    for dim in (2, 3):
        for tau in (1, 2, 3):
            for site in ("1", "2"):
                plans.append(_fig1_circuit(dim, tau, site).plan)
                plans.append(_reversal(dim, tau, site).plan)
            plans.append(_box(Register((("1", 0), ("1", tau)),
                                       (dim, dim))).plan)
    return plans


def _fields(plan):
    """Every field of a plan's steps and registers, arrays as their
    dtype, shape and bytes."""
    for step in plan.steps:
        yield from (step.kind, step.line, step.slots, step.axes, step.shift)
        for array in (step.operand, step.perm):
            if array is None:
                yield None
            else:
                array = np.ascontiguousarray(array)
                yield from (array.dtype.str, array.shape, array.tobytes())
    for register in (plan.register, plan.output_register):
        yield from (register.slots, register.dims)


def plan_hash(seed: int) -> str:
    digest = hashlib.sha256()
    for value in _records(seed):
        digest.update(value if isinstance(value, bytes)
                      else repr(value).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _records(seed: int):
    """The fields of every plan of one seed in order, or the error of a
    program the compiler refuses."""
    for text in program_texts(seed) + [FIXED_PROGRAM]:
        try:
            plan = parse_circuit(text).plan
        except SimulationError as exc:
            yield f"{type(exc).__name__}: {exc}"
            continue
        yield from _fields(plan)
    for plan in scenario_plans():
        yield from _fields(plan)


def main() -> int:
    for seed in SEEDS:
        print(f"plans {seed:>3} {plan_hash(seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
