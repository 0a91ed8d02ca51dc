"""Reference evaluator for the circuit programs the benchmark generates.

It shares no code with the package under test.  A program is a list of
directive tuples (the benchmark renders the same tuples to program text):

    ("prepare", site, cycle, amp0, amp1)    qubit slot, amplitudes as given
    ("prepare", site, cycle, "vac")         three-level slot in the vacuum
    ("cnot", control, target, cycle)
    ("gate", name, theta, site, cycle)      name: "x", "h" or "phase"
    ("dilate", site, n)
    ("discard", site)
    ("output", site, cycle)

The state is a dense array with one axis per slot (two per slot once a
discard has made it a density matrix).  A dilation relabels slots, a
discard traces the site's slots out, and a gate whose participants lack a
slot at its cycle first expands the whole pure state with a copy of
itself shifted by the smallest whole-state shift that aligns every
participant without two slots of one site colliding.  On a three-level
slot the logical levels are the top two and the vacuum level passes
through every gate unchanged.
"""

from __future__ import annotations

import numpy as np

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex)


class RuleError(Exception):
    """The program is outside what the expansion rule allows."""


def gate_matrix(name: str, theta) -> np.ndarray:
    if name == "x":
        return _X
    if name == "h":
        return _H
    if name == "phase":
        return np.diag([1.0, np.exp(1j * float(theta))]).astype(complex)
    raise RuleError(f"unknown gate {name!r}")


def _lift(u: np.ndarray, dims) -> np.ndarray:
    """Embed a 2^k logical unitary into the product space of slots with
    the given local dimensions, identity wherever a slot is in vacuum."""
    full = int(np.prod(dims))
    if full == u.shape[0]:
        return u
    out = np.eye(full, dtype=complex)
    logical = []
    for bits in np.ndindex(*(2,) * len(dims)):
        levels = tuple(b + d - 2 for b, d in zip(bits, dims))
        logical.append(int(np.ravel_multi_index(levels, dims)))
    out[np.ix_(logical, logical)] = u
    return out


def _expansion_shift(site_cycles: dict, participants, cycle: int) -> int:
    missing = [s for s in participants if cycle not in site_cycles[s]]
    if not missing:
        return 0
    shifts = None
    for s in missing:
        options = {cycle - c for c in site_cycles[s] if cycle - c >= 1}
        shifts = options if shifts is None else shifts & options
    for d in sorted(shifts or ()):
        if all(not (cs & {c + d for c in cs}) for cs in site_cycles.values()):
            return d
    raise RuleError(f"no shift aligns {participants} at cycle {cycle}")


class _Register:
    """Slots, their dimensions and the state array."""

    def __init__(self):
        self.slots = []       # (site, cycle) per axis
        self.dims = []
        self.state = None     # pure: shape dims; density: dims + dims
        self.pure = True

    def site_cycles(self) -> dict:
        out = {}
        for site, cycle in self.slots:
            out.setdefault(site, set()).add(cycle)
        return out

    def dim(self) -> int:
        return int(np.prod(self.dims))

    def add_slot(self, slot, vec):
        if not self.pure:
            raise RuleError("preparing into a density matrix")
        self.state = vec if self.state is None else \
            np.multiply.outer(self.state, vec)
        self.slots.append(slot)
        self.dims.append(len(vec))

    def expand(self, delta: int):
        if not self.pure:
            raise RuleError("expanding a mixed state")
        self.state = np.multiply.outer(self.state, self.state)
        self.slots += [(s, c + delta) for s, c in self.slots]
        self.dims += list(self.dims)

    def apply(self, u: np.ndarray, targets):
        axes = [self.slots.index(t) for t in targets]
        tdims = [self.dims[a] for a in axes]
        op = _lift(u, tdims)
        n = len(self.slots)
        self.state = self._left(self.state, op, axes, tdims)
        if not self.pure:
            self.state = self._left(self.state, op.conj(),
                                    [a + n for a in axes], tdims)

    @staticmethod
    def _left(arr, op, axes, tdims):
        front = np.moveaxis(arr, axes, list(range(len(axes))))
        shape = front.shape
        flat = front.reshape(int(np.prod(tdims)), -1)
        out = (op @ flat).reshape(shape)
        return np.moveaxis(out, list(range(len(axes))), axes)

    def trace_out(self, drop_axes):
        n = len(self.slots)
        keep = [i for i in range(n) if i not in drop_axes]
        if self.pure:
            rho = np.tensordot(self.state, self.state.conj(),
                               axes=(drop_axes, drop_axes))
        else:
            letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
            if 2 * n > len(letters):
                raise RuleError("too many slots to trace")
            rows = list(letters[:n])
            cols = list(letters[n:2 * n])
            for i in drop_axes:
                cols[i] = rows[i]
            out = "".join(rows[i] for i in keep) + \
                "".join(cols[i] for i in keep)
            rho = np.einsum("".join(rows) + "".join(cols) + "->" + out,
                            self.state)
        return rho, keep


def evaluate(program):
    """Run a directive list.

    Returns (rho_out, gate_dims): the output slot's reduced density
    matrix, and the register dimension at each gate application.
    """
    reg = _Register()
    gate_dims = []
    for d in program:
        kind = d[0]
        if kind == "prepare":
            site, cycle = d[1], d[2]
            if d[3] == "vac":
                vec = np.array([1.0, 0.0, 0.0], dtype=complex)
            else:
                vec = np.array([d[3], d[4]], dtype=complex)
                vec = vec / np.sqrt(np.vdot(vec, vec).real)
            reg.add_slot((site, cycle), vec)
        elif kind in ("cnot", "gate"):
            if kind == "cnot":
                sites, cycle, u = (d[1], d[2]), d[3], _CNOT
            else:
                sites, cycle, u = (d[3],), d[4], gate_matrix(d[1], d[2])
            delta = _expansion_shift(reg.site_cycles(), sites, cycle)
            if delta:
                reg.expand(delta)
            gate_dims.append(reg.dim())
            reg.apply(u, [(s, cycle) for s in sites])
        elif kind == "dilate":
            reg.slots = [(s, c + d[2]) if s == d[1] else (s, c)
                         for s, c in reg.slots]
        elif kind == "discard":
            drop = [i for i, (s, _) in enumerate(reg.slots) if s == d[1]]
            rho, keep = reg.trace_out(drop)
            reg.state = rho
            reg.slots = [reg.slots[i] for i in keep]
            reg.dims = [reg.dims[i] for i in keep]
            reg.pure = False
        elif kind == "output":
            axis = reg.slots.index((d[1], d[2]))
            drop = [i for i in range(len(reg.slots)) if i != axis]
            rho, _ = reg.trace_out(drop)
            return rho, gate_dims
        else:
            raise RuleError(f"unknown directive {kind!r}")
    raise RuleError("program has no output directive")


def _amp(z: complex) -> str:
    return repr(complex(z))


def render(program) -> str:
    """Program text in the circuit language for a directive list."""
    lines = []
    for d in program:
        kind = d[0]
        if kind == "prepare":
            state = "|vac>" if d[3] == "vac" else \
                f"{_amp(d[3])}|0>+{_amp(d[4])}|1>"
            lines.append(f"prepare {d[1]} @{d[2]} {state}")
        elif kind == "cnot":
            lines.append(f"cnot {d[1]} {d[2]} @{d[3]}")
        elif kind == "gate":
            name = f"phase({d[2]!r})" if d[1] == "phase" else d[1]
            lines.append(f"gate {name} {d[3]} @{d[4]}")
        elif kind == "dilate":
            lines.append(f"dilate {d[1]} +{d[2]}")
        elif kind == "discard":
            lines.append(f"discard {d[1]}")
        elif kind == "output":
            lines.append(f"output {d[1]} @{d[2]}")
    return "\n".join(lines) + "\n"
