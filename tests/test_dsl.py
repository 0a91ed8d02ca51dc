import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import dense_gate_oracle, gather_oracle, run_program_oracle
from tdesim import (
    MAX_STATE_BYTES,
    CircuitParseError,
    DensityOperator,
    InvariantViolationError,
    PureState,
    Register,
    SlotId,
    format_circuit,
    parse_circuit,
    qubit_state,
    run_fig1,
    run_program,
)
from tdesim import dsl
from tdesim.dsl import (
    CircuitProgram,
    Cnot,
    Discard,
    Dilate,
    GateOp,
    Output,
    Prepare,
    _lifted_gate,
    _monomial,
)
from tdesim.registers import _left_multiply

FIG1_PROGRAM = """\
# displaced pair closed by a second gate
prepare q1 @0 0.6|0>+0.8|1>
prepare q2 @0 |0>
cnot q1 q2 @0
dilate q1 +1
cnot q1 q2 @1
output q2 @1
"""


def test_fig1_program_matches_library_runner():
    rep, final = run_program(parse_circuit(FIG1_PROGRAM))
    ref = run_fig1(qubit_state("1", 0, 0.6, 0.8))
    np.testing.assert_allclose(rep.rho_out.matrix, ref.rho_out.matrix,
                               atol=1e-12)
    assert final.register.slots == (SlotId("q1", 1), SlotId("q2", 0),
                                    SlotId("q1", 2), SlotId("q2", 1))
    assert rep.output_slot == SlotId("q2", 1)


def test_longer_dilation_is_equivalent():
    text = FIG1_PROGRAM.replace("+1", "+3").replace("@1", "@3")
    rep, _ = run_program(parse_circuit(text))
    ref = run_fig1(qubit_state("1", 0, 0.6, 0.8), tau=3)
    np.testing.assert_allclose(rep.rho_out.matrix, ref.rho_out.matrix,
                               atol=1e-12)


def test_undisplaced_cnot_pair_cancels():
    text = """\
prepare q1 @0 0.6|0>+0.8|1>
prepare q2 @0 |0>
cnot q1 q2 @0
cnot q1 q2 @0
output q2 @0
"""
    rep, _ = run_program(parse_circuit(text))
    np.testing.assert_allclose(rep.rho_out.matrix, [[1, 0], [0, 0]],
                               atol=1e-12)


def test_vacuum_control_never_flips_target():
    text = """\
prepare q1 @0 |vac>
prepare q2 @0 |0>
cnot q1 q2 @0
output q2 @0
"""
    rep, _ = run_program(parse_circuit(text))
    assert abs(rep.probabilities["0"] - 1.0) < 1e-12


def test_single_site_gates():
    text = """\
prepare a @0 |0>
gate h a @0
gate phase(1.5707963267948966) a @0
gate h a @0
output a @0
"""
    rep, _ = run_program(parse_circuit(text))
    # HZ(pi/2)H rotates |0> to the equator and back off axis
    assert abs(rep.probabilities["0"] - 0.5) < 1e-12
    text_x = "prepare a @0 |0>\ngate x a @0\noutput a @0\n"
    rep_x, _ = run_program(parse_circuit(text_x))
    assert abs(rep_x.probabilities["1"] - 1.0) < 1e-12


def test_discard_reduces_register():
    text = """\
prepare a @0 |0>
prepare b @0 |1>
cnot b a @0
discard b
output a @0
"""
    rep, final = run_program(parse_circuit(text))
    assert final.register.slots == (SlotId("a", 0),)
    assert abs(rep.probabilities["1"] - 1.0) < 1e-12


def test_discard_guard_counts_each_site_once():
    text = """\
prepare a @0 |0>
prepare b @0 |0>
prepare c @0 |0>
cnot a b @0
discard c
discard b
output a @0
"""
    rep, final = run_program(parse_circuit(text))
    assert final.register.slots == (SlotId("a", 0),)
    assert abs(rep.probabilities["0"] - 1.0) < 1e-12
    with pytest.raises(CircuitParseError, match="only remaining site"):
        parse_circuit("prepare a @0 |0>\ndiscard a\noutput a @0\n")


def test_implicit_expansion_without_dilate_directive():
    # the target still sits at cycle 0, so gating at cycle 1 forces the
    # whole-state expansion with shift 1
    text = """\
prepare q1 @0 |1>
prepare q2 @0 |0>
cnot q1 q2 @0
dilate q1 +1
cnot q1 q2 @1
output q2 @0
"""
    rep, final = run_program(parse_circuit(text))
    assert SlotId("q2", 1) in final.register
    assert abs(rep.probabilities["1"] - 1.0) < 1e-12


ROUND_TRIP_CORPUS = [
    FIG1_PROGRAM,
    "prepare a @0 |0>\noutput a @0\n",
    "prepare a @0 |1>\ngate x a @0\noutput a @0\n",
    "prepare a @0 |vac>\nprepare b @0 |0>\ncnot a b @0\noutput b @0\n",
    "prepare a @0 0.7071067811865476|0>-0.7071067811865476|1>\n"
    "gate h a @0\noutput a @0\n",
    "prepare a @0 (0.5+0.5j)|0>+(0.5-0.5j)|1>\noutput a @0\n",
    "prepare a @0 |0>\nprepare b @0 |0>\ncnot a b @0\ndiscard a\n"
    "output b @0\n",
    "prepare a @0 |0>\ndilate a +2\noutput a @2\n",
    "prepare a @0 |0>\ngate phase(0.25) a @0\noutput a @0\n",
    "prepare a @3 |1>\nprepare b @3 |0>\ncnot a b @3\ndilate a +2\n"
    "cnot a b @5\noutput b @5\n",
    "prepare a @0 -|1>\noutput a @0\n",
    "prepare q_1 @0 |0>\nprepare q_2 @0 0.6|0>+0.8j|1>\ncnot q_2 q_1 @0\n"
    "output q_1 @0\n",
]


def _split_terms_reference(spec):
    """The character-by-character scan that _split_terms replaced; None
    for unbalanced parentheses."""
    terms, cur, depth = [], "", 0
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return None
        if ch in "+-" and depth == 0 and cur.endswith(">"):
            terms.append(cur)
            cur = "-" if ch == "-" else ""
            continue
        cur += ch
    return None if depth else terms + [cur]


# The state parser that the one-pass _parse_state replaced, kept as its
# oracle: split on top-level signs after a closed ket, then match each
# term against a regular expression.
_SPLIT_RE_REFERENCE = re.compile(r"[()]|(?<=>)[+-]")
_TERM_RE_REFERENCE = re.compile(r"(?P<coef>.*?)\|(?P<ket>0|1|vac)>\Z")


def _split_terms_oracle(spec, line):
    terms = []
    start = depth = 0
    for m in _SPLIT_RE_REFERENCE.finditer(spec):
        ch = m.group()
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise CircuitParseError(
                    line, f"unbalanced parentheses in {spec!r}")
        elif depth == 0:
            terms.append(spec[start:m.start()])
            start = m.start() + (ch == "+")
    if depth != 0:
        raise CircuitParseError(line, f"unbalanced parentheses in {spec!r}")
    terms.append(spec[start:])
    return terms


def _parse_terms_oracle(terms, line):
    amps = {}
    for term in terms:
        m = _TERM_RE_REFERENCE.match(term)
        if not m:
            raise CircuitParseError(line, f"bad state term {term!r}")
        ket = m.group("ket")
        if ket == "vac":
            raise CircuitParseError(
                line, "|vac> cannot carry an amplitude or be superposed")
        if ket in amps:
            raise CircuitParseError(line, f"duplicate |{ket}> term")
        amps[ket] = dsl._parse_coef(m.group("coef"), line)
    return "qubit", complex(amps.get("0", 0j)), complex(amps.get("1", 0j))


def _parse_state_oracle(spec, line):
    if spec == "|vac>":
        return "vac", 0j, 0j
    return _parse_terms_oracle(_split_terms_oracle(spec, line), line)


def _outcome(parse, spec):
    """What a state parser makes of spec: its (kind, amp0, amp1), or the
    message of the CircuitParseError it raises."""
    try:
        return parse(spec, 7)
    except CircuitParseError as err:
        return str(err)


@settings(max_examples=300)
@given(st.text(alphabet="()+-|01>vac.5je", max_size=16))
@example("(0.5+0.5j)|0>-0.5|1>")
@example("(1>+2)|0>")
def test_split_terms_matches_the_character_scan(spec):
    want = _split_terms_reference(spec)
    if want is None:
        assert "unbalanced" in _outcome(dsl._parse_state, spec)
    elif spec != "|vac>":
        assert _outcome(dsl._parse_state, spec) == \
            _outcome(lambda s, ln: _parse_terms_oracle(want, ln), spec)


_COEFFICIENTS = st.one_of(
    st.sampled_from(("", "+", "-", "1", "-0.5", "0.6", ".8j", "1e3", "2_0",
                     "nan", "inf", "-inf", "1e309", "(0.5+0.5j)",
                     "(1+nanj)", "-(1+2j)", "((1))", "(1", "1)", "0j",
                     "+(0.5)", "-(0.5)", "(-0.5)", "(+1j)", "()", "j",
                     "+-0.5", "--0.5", "1>", "(1>)", "(1|2)", "\u0661",
                     "(1e999j)", " 1")),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.complex_numbers(allow_nan=False).map(repr),
    # parenthesised and signed forms of the same numbers
    st.tuples(st.sampled_from(("", "+", "-")),
              st.complex_numbers(allow_nan=False, allow_infinity=False)
              ).map(lambda t: f"{t[0]}({t[1]!r})".replace("((", "(")
                    .replace("))", ")")),
)
_KETS = st.sampled_from(("|0>", "|1>", "|vac>", "|2>", "|0", "0>", "",
                         "|0>|1>"))


@st.composite
def _state_specs(draw):
    """Superpositions of one to three terms, each a coefficient and a
    ket, mostly well formed; with some chance a stray character is put
    somewhere into the text."""
    terms = [draw(_COEFFICIENTS) + draw(_KETS)
             for _ in range(draw(st.integers(1, 3)))]
    spec = terms[0]
    for term in terms[1:]:
        sign = draw(st.sampled_from("+-"))
        spec += sign + (term[1:] if term[:1] in "+-" and sign == "+"
                        and draw(st.booleans()) else term)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(spec)))
        spec = spec[:at] + draw(st.sampled_from("()|<>+-j_")) + spec[at:]
    return spec


def _scan(spec, line):
    """_parse_state by the token scan alone."""
    if spec == "|vac>":
        return "vac", 0j, 0j
    return dsl._scan_state(spec, line)


@settings(max_examples=800)
@given(st.one_of(_state_specs(),
                 st.text(alphabet="()+-|01>vacnij.5e_", max_size=24)))
@example("(0.6+0j)|0>+(0.48+0.64j)|1>")
@example("((1)|0>+1)|1>")
@example("|2>+((1))|0>")
@example("(|0>+1)|1>")
@example("|0>+|0>")
@example("0.6|1>-0.8|0>")
@example("|vac>+|0>")
@example("|vac>")
@example(")(|0>")
@example("|0>-(1j)|1>")
@example("|0>+-0.5|1>")
@example("1e999|0>+|0>")
@example("(1>+2)|0>")
def test_parse_state_matches_the_replaced_parser(spec):
    got = _outcome(dsl._parse_state, spec)
    assert got == _outcome(_parse_state_oracle, spec)
    # both sides of the match agree with the token scan alone, and the
    # scan refuses whatever _STATE_RE rejects or takes with one ket twice
    assert got == _outcome(_scan, spec)
    m = dsl._STATE_RE.match(spec)
    if spec != "|vac>" and (m is None or m["k0"] == m["k1"]):
        assert isinstance(got, str)


_DIRECTIVE_CASES = [
    (Prepare, ("a", 1, "qubit", 0.6, 0.8j),
     "Prepare(site='a', cycle=1, kind='qubit', amp0=0.6, amp1=0.8j)"),
    (Cnot, ("a", "b", 2), "Cnot(control='a', target='b', cycle=2)"),
    (GateOp, ("phase", "a", 3, 0.5),
     "GateOp(name='phase', site='a', cycle=3, theta=0.5)"),
    (Dilate, ("a", 2), "Dilate(site='a', delta=2)"),
    (Discard, ("a",), "Discard(site='a')"),
    (Output, ("a", 4), "Output(site='a', cycle=4)"),
]


@pytest.mark.parametrize("cls, args, text", _DIRECTIVE_CASES,
                         ids=[c[0].__name__ for c in _DIRECTIVE_CASES])
def test_a_directive_is_a_frozen_dataclass_that_ignores_its_line(
        cls, args, text):
    names = [f.name for f in dataclasses.fields(cls)]
    assert names[-1] == "line" and len(names) == len(args) + 1
    d = cls(*args, 7)
    assert repr(d) == text
    # keyword construction, and line left out of equality and hashing
    assert cls(**dict(zip(names, args)), line=7) == d
    assert d == cls(*args) and hash(d) == hash(cls(*args))
    assert (d.line, cls(*args).line) == (7, 0)
    assert [getattr(d, n) for n in names[:-1]] == list(args)
    assert d != cls(*(["b"] + list(args[1:])))
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, getattr(d, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(d, name)


def test_directive_defaults():
    vac = Prepare("a", 0, "vac")
    assert (vac.amp0, vac.amp1, vac.line) == (0j, 0j, 0)
    assert Prepare("a", 0, "qubit", 1) == Prepare(site="a", cycle=0,
                                                  kind="qubit", amp0=1)
    assert Prepare("a", 0, "qubit", 1).amp1 == 0j
    assert GateOp("x", "a", 0).theta is None
    assert GateOp(name="x", site="a", cycle=0) == GateOp("x", "a", 0, None, 5)
    for d in (Cnot("a", "b", 0), Dilate("a", 1), Discard("a"),
              Output("a", 0), GateOp("h", "a", 0)):
        assert d.line == 0
    with pytest.raises(TypeError):
        Cnot("a", "b")
    with pytest.raises(TypeError):
        Output("a", 0, 1, 2)


@pytest.mark.parametrize("text, needle", [
    ("prepare a @+1 |0>\noutput a @1\n", "bad cycle '@+1'"),
    ("prepare a @-0 |0>\noutput a @0\n", "bad cycle '@-0'"),
    ("prepare a @1_0 |0>\noutput a @10\n", "bad cycle '@1_0'"),
    ("prepare a @\u0661 |0>\noutput a @1\n", "bad cycle '@\u0661'"),
    ("prepare a @0 |0>\ndilate a +0_1\noutput a @1\n",
     "bad dilation '+0_1'"),
])
def test_cycles_and_dilations_are_ascii_digits(text, needle):
    # int() would take each of these, and format_circuit would then
    # write back a different text
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert needle in str(err.value)
    assert err.value.line_no == (2 if "dilate" in text else 1)


def test_parse_print_round_trip_corpus():
    assert len(ROUND_TRIP_CORPUS) >= 10
    for text in ROUND_TRIP_CORPUS:
        program = parse_circuit(text)
        printed = format_circuit(program)
        assert parse_circuit(printed) == program
        assert format_circuit(parse_circuit(printed)) == printed


_AMPLITUDES = st.one_of(
    st.floats(-10.0, 10.0),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                       allow_infinity=False),
    st.sampled_from((0.0, 1.0, -1.0, 1j, -0.0)),
)


@st.composite
def _programs(draw):
    """Valid programs: sites prepared at one cycle, gates there, and
    optionally a dilation whose gate forces an expansion and more gates
    at the later cycle; then up to two discards, gates on what is left,
    and possibly the last discarded site prepared again and gated; then
    an output.  Discarding two of three sites leaves more rows than the
    kept dimension, which run_program folds."""
    sites = [f"s{i}" for i in range(draw(st.integers(2, 4)))]
    cycle = draw(st.integers(0, 3))
    vacuum = {}

    def prepare(site, at):
        if vacuum.setdefault(site, draw(st.integers(0, 3)) == 0):
            return Prepare(site, at, "vac")
        a0, a1 = complex(draw(_AMPLITUDES)), complex(draw(_AMPLITUDES))
        assume(abs(a0) + abs(a1) >= 1e-12)
        return Prepare(site, at, "qubit", a0, a1)

    def gates(at, live):
        out = []
        for _ in range(draw(st.integers(0, 3))):
            a, *rest = draw(st.permutations(live))
            name = draw(st.sampled_from(
                ("cnot", "x", "h", "phase") if rest else ("x", "h", "phase")))
            if name == "cnot":
                out.append(Cnot(a, rest[0], at))
            else:
                theta = draw(st.floats(-100.0, 100.0)) \
                    if name == "phase" else None
                out.append(GateOp(name, a, at, theta))
        return out

    directives = [prepare(site, cycle) for site in sites]
    directives += gates(cycle, sites)
    at = out_cycle = cycle
    if draw(st.booleans()):
        delta = draw(st.integers(1, 3))
        out_cycle = draw(st.sampled_from((cycle, cycle + delta)))
        at = cycle + delta
        directives += [Dilate(sites[0], delta), Cnot(sites[0], sites[1], at)]
        directives += gates(at, sites)
    # sites[1] holds the output and is never discarded
    others = [s for s in reversed(sites) if s != sites[1]]
    dropped = others[:draw(st.integers(0, min(2, len(others))))]
    live = [s for s in sites if s not in dropped]
    directives += [Discard(s) for s in dropped]
    if dropped:
        directives += gates(at, live)
        if draw(st.booleans()):
            directives.append(prepare(dropped[-1], at))
            directives += gates(at, live + [dropped[-1]])
    directives.append(Output(sites[1], out_cycle))
    return CircuitProgram(tuple(directives))


@settings(deadline=None, max_examples=60)
@given(_programs())
def test_random_programs_survive_format_and_parse(program):
    printed = format_circuit(program)
    assert parse_circuit(printed) == program
    assert format_circuit(parse_circuit(printed)) == printed


# three sites, two discarded: 4 rows over the 2-dimensional kept site
# are folded to 2, and the site prepared again is gated against it
FOLD_PROGRAM = """\
prepare a @0 0.6|0>+0.8|1>
prepare b @0 |0>
prepare c @0 (0.5+0.5j)|0>-0.5|1>
gate h c @0
cnot a b @0
cnot c b @0
discard a
discard c
prepare c @0 |1>
cnot b c @0
gate phase(0.7) b @0
output b @0
"""


# b lacks a slot at cycle 4, and shifts of 2, 3 and 4 would each give
# it one from its slots at cycles 2, 1 and 0; a shift of 2 lands on b@2,
# so the expansion is the smallest shift left, 3
SHIFT_PROGRAM = """\
prepare a @0 0.6|0>+0.8|1>
prepare b @0 |0>
prepare b @1 (0.5+0.5j)|0>-0.5|1>
prepare b @2 |1>
cnot a b @0
dilate a +4
cnot a b @4
output b @4
"""


def _assert_same_run(program):
    rep, final = run_program(program)
    ref, ref_final = run_program_oracle(program)
    assert rep.output_slot == ref.output_slot
    assert rep.rho_out.register == ref.rho_out.register
    np.testing.assert_allclose(rep.rho_out.matrix, ref.rho_out.matrix,
                               rtol=0, atol=1e-12)
    assert rep.probabilities.keys() == ref.probabilities.keys()
    for key, p in ref.probabilities.items():
        assert abs(rep.probabilities[key] - p) <= 1e-12
    assert abs(rep.entropy_bits - ref.entropy_bits) <= 1e-12
    assert type(final) is type(ref_final)
    assert final.register == ref_final.register
    if isinstance(final, PureState):
        np.testing.assert_allclose(final.amplitudes, ref_final.amplitudes,
                                   rtol=0, atol=1e-12)
    else:
        np.testing.assert_allclose(final.matrix, ref_final.matrix,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(final.eigenvalues, ref_final.eigenvalues,
                                   rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(_programs())
@example(parse_circuit(FOLD_PROGRAM))
@example(parse_circuit(SHIFT_PROGRAM))
def test_run_program_agrees_with_the_gate_by_gate_oracle(program):
    _assert_same_run(program)


def test_discard_that_leaves_more_rows_than_dimension_folds(monkeypatch):
    qr = np.linalg.qr
    calls = []
    monkeypatch.setattr(np.linalg, "qr",
                        lambda *a, **k: calls.append(1) or qr(*a, **k))
    _assert_same_run(parse_circuit(FOLD_PROGRAM))
    assert len(calls) == 1


# five sites expanded to ten slots, two of them discarded: the run
# returns a 64-dimensional mixed state held as 16 rows
WIDE_DISCARD_PROGRAM = """\
prepare s0 @0 0.6|0>+0.8|1>
prepare s1 @0 |0>
prepare s2 @0 0.8|0>-0.6j|1>
prepare s3 @0 |1>
prepare s4 @0 (0.5+0.5j)|0>+0.5|1>
cnot s0 s1 @0
cnot s1 s2 @0
cnot s2 s3 @0
cnot s3 s4 @0
gate h s0 @0
gate h s4 @0
dilate s0 +1
cnot s0 s1 @1
cnot s1 s2 @1
cnot s2 s3 @1
cnot s3 s4 @1
discard s3
discard s4
cnot s0 s1 @1
gate phase(1.1) s1 @1
output s1 @1
"""


def test_discards_validate_only_the_returned_densities(spectrum_sizes):
    program = parse_circuit(WIDE_DISCARD_PROGRAM)
    rep, final = run_program(program)
    assert isinstance(final, DensityOperator) and final.dim == 64
    # one spectrum per returned density: rho_out and the final state,
    # whose 16 rows give a 16 x 16 Gram matrix
    assert spectrum_sizes == [2, 16]


@pytest.mark.parametrize("text", [WIDE_DISCARD_PROGRAM, FOLD_PROGRAM])
def test_mixed_final_state_keeps_its_full_spectrum(text):
    _, final = run_program(parse_circuit(text))
    assert isinstance(final, DensityOperator)
    assert final.eigenvalues.shape == (final.dim,)
    np.testing.assert_allclose(final.eigenvalues,
                               np.linalg.eigvalsh(final.matrix),
                               rtol=0, atol=1e-12)


def test_huge_amplitudes_are_normalized_without_overflow():
    for state in ("1e308|0>+1e308|1>", "(1.7e308+1.7e308j)|0>+1.7e308|1>"):
        rep, final = run_program(
            parse_circuit(f"prepare a @0 {state}\noutput a @0\n"))
        assert abs(np.linalg.norm(final.amplitudes) - 1.0) <= 1e-12
        ratio = 2.0 if "j" in state else 1.0
        assert abs(rep.probabilities["0"] - ratio / (ratio + 1.0)) <= 1e-12


def test_prepared_vectors_hold_qubit_states_bits(rng):
    # a prepared state is normalized by PureState's own rule
    for _ in range(200):
        scale = 10.0 ** rng.integers(-5, 300)
        a0, a1 = map(complex, rng.standard_normal(4).view(complex) * scale)
        program = parse_circuit(f"prepare a @0 {a0!r}|0>+{a1!r}|1>\n"
                                "output a @0\n")
        np.testing.assert_array_equal(program.plan.steps[0].operand,
                                      qubit_state("a", 0, a0, a1).amplitudes)


def test_output_step_validates_the_reduced_state_once(spectrum_sizes):
    # the only density a pure program builds is the output's reduced
    # state; reading its outcome distribution must not check it again
    program = parse_circuit(FIG1_PROGRAM)
    run_program(program)
    assert len(spectrum_sizes) == 1


_GATE_MATRICES = {
    "x": np.array([[0, 1], [1, 0]]),
    "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                      [0, 0, 1, 0]]),
}


def _gate_matrix(name, theta):
    if name == "phase":
        return np.diag([1.0, np.exp(1j * theta)])
    return _GATE_MATRICES[name]


@st.composite
def _gate_runs(draw):
    """1-6 sites at cycle 0, qubits or vacuum qutrits, and 1-8 gates
    drawn from x, cnot, phase and h on random targets in random order."""
    dims = draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=6))
    names = ("x", "phase", "h", "cnot") if len(dims) > 1 \
        else ("x", "phase", "h")
    gates = []
    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(names))
        targets = tuple(draw(st.permutations(range(len(dims))))
                        [:2 if name == "cnot" else 1])
        theta = draw(st.floats(-7.0, 7.0)) if name == "phase" else None
        gates.append((name, theta, targets))
    return dims, gates, draw(st.integers(0, 2**32 - 1))


def _gate_text(name, theta, targets):
    sites = " ".join(f"s{t}" for t in targets)
    if name == "cnot":
        return f"cnot {sites} @0"
    label = f"phase({theta!r})" if name == "phase" else name
    return f"gate {label} {sites} @0"


@settings(deadline=None, max_examples=80)
@given(_gate_runs())
def test_compiled_gate_steps_match_the_dense_oracle(case):
    dims, gates, seed = case
    text = "".join(f"prepare s{i} @0 {'|vac>' if d == 3 else '|0>'}\n"
                   for i, d in enumerate(dims))
    text += "".join(_gate_text(*g) + "\n" for g in gates) + "output s0 @0\n"
    steps = parse_circuit(text).plan.steps[len(dims):-1]
    # every h is a dense step of its own, and each run of x / cnot /
    # phase between them is one gather
    runs = []
    for g in gates:
        if g[0] == "h" or not runs or runs[-1][0][0] == "h":
            runs.append([g])
        else:
            runs[-1].append(g)
    assert [s.kind for s in steps] == \
        ["gate" if run[0][0] == "h" else "gather" for run in runs]
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    for step, run in zip(steps, runs):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        want = v
        for name, theta, targets in run:
            want = dense_gate_oracle(want, dims, _gate_matrix(name, theta),
                                     list(targets))
        if step.kind == "gate":
            got = _left_multiply(step.operand, v.reshape(dims), step.axes)
        else:
            assert np.array_equal(np.sort(step.perm), np.arange(d))
            got = v[step.perm]
            if step.operand is not None:
                assert step.operand.shape == (d,)
                got = got * step.operand
        np.testing.assert_allclose(got.reshape(-1), want, rtol=0, atol=1e-12)


@st.composite
def _staged_programs(draw):
    """Two or three sites at cycle 0, qubits or vacuum qutrits, and four
    stages of x, phase, cnot and h gates: at cycle 0; after a dilation
    of s0, with s0 gated at cycle 1 and the rest at 0; after a CNOT from
    s0 to s1 at cycle 1, which expands the state; and at cycle 1 after
    an optional discard of the last site.  Returns the text and the
    sites' dims."""
    dims = draw(st.lists(st.sampled_from((2, 3)), min_size=2, max_size=3))
    lines = [f"prepare s{i} @0 {'|vac>' if d == 3 else '0.6|0>+0.8|1>'}"
             for i, d in enumerate(dims)]

    def gates(sites, cycle_of, count):
        for _ in range(draw(st.integers(0, count))):
            name = draw(st.sampled_from(("x", "phase", "cnot", "h")
                                        if len(sites) > 1
                                        else ("x", "phase", "h")))
            picked = draw(st.permutations(sites))[:2 if name == "cnot" else 1]
            if name == "cnot" and cycle_of(picked[0]) != cycle_of(picked[1]):
                continue  # no expansion outside the third stage
            head = "cnot" if name == "cnot" else "gate " + (
                f"phase({draw(st.floats(-7.0, 7.0))!r})"
                if name == "phase" else name)
            lines.append(f"{head} {' '.join(f's{i}' for i in picked)} "
                         f"@{cycle_of(picked[0])}")

    every = range(len(dims))
    gates(every, lambda i: 0, 3)
    lines.append("dilate s0 +1")
    gates(every, lambda i: int(i == 0), 3)
    lines.append("cnot s0 s1 @1")
    gates(every, lambda i: 1, 3)
    live = list(every)
    if len(dims) == 3 and draw(st.booleans()):
        lines.append("discard s2")
        live.pop()
    gates(live, lambda i: 1, 3)
    lines.append(f"output s{draw(st.sampled_from(live))} @1")
    return "\n".join(lines) + "\n", dims


@settings(deadline=None, max_examples=40)
@given(_staged_programs())
def test_gathers_after_expansions_dilations_and_discards(case):
    text, site_dims = case
    program = parse_circuit(text)
    steps = program.plan.steps
    by_line = {d.line: d for d in program.directives}
    gathers = 0
    for k, step in enumerate(steps):
        if step.kind != "gather":
            continue
        gathers += 1
        # the run is every monomial gate from the step's line up to the
        # directive that closes it, the next step's; a gate's slot has
        # moved by the run's later dilations of its site
        end = steps[k + 1].line
        moved = {}
        run = []
        for ln in range(end - 1, step.line - 1, -1):
            d = by_line.get(ln)
            if isinstance(d, Dilate):
                moved[d.site] = moved.get(d.site, 0) + d.delta
            elif isinstance(d, (Cnot, GateOp)):
                sites = [d.control, d.target] if isinstance(d, Cnot) \
                    else [d.site]
                matrix = _gate_matrix("cnot" if isinstance(d, Cnot)
                                      else d.name, d.theta
                                      if isinstance(d, GateOp) else None)
                run.insert(0, (matrix, [
                    step.slots.index((s, d.cycle + moved.get(s, 0)))
                    for s in sites]))
        dims = [site_dims[int(s[1:])] for s, _ in step.slots]
        perm, phase = gather_oracle(dims, run)
        np.testing.assert_array_equal(step.perm, perm)
        if step.operand is None:
            assert (phase == 1).all()
        else:
            np.testing.assert_allclose(step.operand, phase, rtol=0,
                                       atol=1e-12)
    assert gathers == sum(s.kind == "gather" for s in steps)


@st.composite
def _monomial_programs(draw):
    """1-6 sites at cycle 0, qubits or vacuum qutrits, and 1-10 x, cnot
    and phase gates on random targets in random order, descending ones
    included, with one site dilated by a cycle at a random point; a gate
    after it reads that site at cycle 1, and a cnot between cycles is
    dropped.  Also a byte cap for the plan's gathers, None for the real
    one, that may split the run.  Returns (dims, lines, gates, cap), each
    gate (name, theta, targets, line)."""
    dims = draw(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=6))
    names = ("x", "phase", "cnot") if len(dims) > 1 else ("x", "phase")
    lines = [f"prepare s{i} @0 {'|vac>' if d == 3 else '0.6|0>+0.8|1>'}"
             for i, d in enumerate(dims)]
    count = draw(st.integers(1, 10))
    dilated, at = draw(st.integers(0, len(dims) - 1)), \
        draw(st.integers(0, count))
    gates = []
    for k in range(count + 1):
        if k == at:
            lines.append(f"dilate s{dilated} +1")
        if k == count:
            break
        name = draw(st.sampled_from(names))
        targets = tuple(draw(st.permutations(range(len(dims))))
                        [:2 if name == "cnot" else 1])
        cycles = {int(k >= at and t == dilated) for t in targets}
        if len(cycles) > 1:
            continue
        theta = draw(st.floats(-7.0, 7.0)) if name == "phase" else None
        text = _gate_text(name, theta, targets)
        lines.append(text[:-1] + str(cycles.pop()))
        gates.append((name, theta, targets, len(lines)))
    lines.append(f"output s{dilated} @1")
    size = int(np.prod(dims))
    cap = draw(st.one_of(st.none(), st.integers(0, 60 * size)))
    return dims, lines, gates, cap


@settings(deadline=None, max_examples=120)
@given(_monomial_programs())
def test_a_run_of_monomial_gates_fuses_their_flat_gathers(case):
    dims, lines, gates, cap = case
    n = len(dims)
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(dsl, "MAX_STATE_BYTES", cap)
        steps = parse_circuit("\n".join(lines) + "\n").plan.steps
    # each gate's own gather, compiled alone on the same register
    own = {}
    for name, theta, targets, line in gates:
        text = "".join(f"{s}\n" for s in lines[:n]) \
            + _gate_text(name, theta, targets) + "\noutput s0 @0\n"
        alone = parse_circuit(text).plan.steps[n]
        assert alone.kind == "gather"
        own[line] = alone
    held, fused = 0, set()
    for k, step in enumerate(steps):
        if step.kind == "gate":
            assert step.line in own
            fused.add(step.line)
        if step.kind != "gather":
            continue
        held += step.perm.nbytes + (0 if step.operand is None
                                    else step.operand.nbytes)
        # the run is every gate from the step's line up to the step that
        # closes it, the next one
        run = [g for g in gates if step.line <= g[3] < steps[k + 1].line]
        assert run[0][3] == step.line
        fused.update(g[3] for g in run)
        perm, phase = gather_oracle(dims, [(_gate_matrix(name, theta), targets)
                                           for name, theta, targets, _ in run])
        np.testing.assert_array_equal(step.perm, perm)
        if step.operand is None:
            assert (phase == 1).all()
        else:
            np.testing.assert_allclose(step.operand, phase, rtol=0,
                                       atol=1e-15)
        # the gates' own gathers in turn: row[perm][p] == row[perm[p]]
        perm, phase = np.arange(len(perm)), None
        for *_, line in run:
            p = own[line].perm
            perm = perm[p]
            if phase is not None:
                phase = phase[p]
            if own[line].operand is not None:
                phase = own[line].operand * (1 if phase is None else phase)
        np.testing.assert_array_equal(step.perm, perm)
        assert (phase is None) == (step.operand is None)
        if phase is not None:
            np.testing.assert_allclose(step.operand, phase, rtol=0,
                                       atol=1e-15)
    # every gate is fused into a gather or, past the cap, a dense step
    assert fused == set(own)
    assert held <= (MAX_STATE_BYTES if cap is None else cap)
    if cap is None:
        assert all(s.kind != "gate" for s in steps)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(("x", "cnot")), st.lists(st.sampled_from((2, 3)),
                                                min_size=2, max_size=2),
       st.data())
def test_a_permutation_block_off_exact_zero_or_one_raises(name, dims, data):
    tdims = tuple(dims[:2 if name == "cnot" else 1])
    block, (q, phases), _ = _lifted_gate(name, None, tdims)
    assert phases is None
    k = int(np.prod(tdims))
    flat = block.reshape(k, k).copy()
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    # the nearest float away from the exact entry, upwards
    flat[i, j] = np.nextafter(flat[i, j].real, 2.0)
    with pytest.raises(InvariantViolationError, match="permutation"):
        _monomial(flat.reshape(block.shape), permutation=True)


def test_gates_are_classified_by_their_lifted_blocks():
    for dims in ((2,), (3,)):
        assert _lifted_gate("x", None, dims)[1] is not None
        assert _lifted_gate("h", None, dims)[1] is None
        q, phases = _lifted_gate("phase", 0.3, dims)[1]
        np.testing.assert_array_equal(q, np.arange(dims[0]))
        assert phases[-1] == np.exp(0.3j)
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert _lifted_gate("cnot", None, dims)[1][1] is None
    # with no tolerance, an entry off zero by one ulp makes a block dense
    block = _lifted_gate("phase", 0.3, (2,))[0].copy()
    block[0, 1] = 5e-324
    assert _monomial(block) is None


def test_monomial_runs_span_dilations():
    program = parse_circuit("""\
prepare a @0 0.6|0>+0.8|1>
prepare b @0 |1>
prepare c @0 |vac>
cnot a b @0
dilate c +1
gate x c @1
gate phase(0.3) a @0
gate h a @0
cnot a b @0
output b @0
""")
    kinds = [s.kind for s in program.plan.steps]
    # the dilation of c needs no expansion, so the three monomial gates
    # around it compose into one gather
    assert kinds == ["prepare"] * 3 + ["dilate", "gather", "gate",
                                        "gather", "output"]
    assert program.plan.steps[4].line == 4
    _assert_same_run(program)


def test_gathers_past_the_byte_limit_stay_dense(monkeypatch):
    # the gathers a plan holds count against MAX_STATE_BYTES: at four
    # qubits a perm takes 128 bytes and a phase vector 256 more
    text = "".join(f"prepare s{i} @0 0.6|0>+0.8|1>\n" for i in range(4)) \
        + "cnot s0 s1 @0\ngate h s0 @0\ncnot s1 s2 @0\ngate h s1 @0\n" \
        + "cnot s2 s3 @0\ngate phase(0.4) s3 @0\noutput s3 @0\n"
    monkeypatch.setattr(dsl, "MAX_STATE_BYTES", 300)
    program = parse_circuit(text)
    assert [s.kind for s in program.plan.steps[4:-1]] == \
        ["gather", "gate", "gather", "gate", "gate", "gate"]
    monkeypatch.undo()
    _assert_same_run(program)


# five sites, an expansion, two dilations and 20 gates
MANY_GATES_PROGRAM = "".join(
    f"prepare s{i} @0 {'|vac>' if i == 4 else '0.6|0>+0.8|1>'}\n"
    for i in range(5)) + "".join(
    f"cnot s{i % 5} s{(i + 1) % 5} @0\n" for i in range(8)) + """\
gate h s1 @0
gate phase(0.5) s2 @0
dilate s0 +1
cnot s0 s1 @1
dilate s3 +1
gate x s3 @1
""" + "".join(f"cnot s{i % 5} s{(i + 1) % 5} @1\n" for i in range(1, 5)) \
    + "gate x s2 @1\ngate h s2 @1\ngate phase(1.5) s4 @1\n" \
    + "cnot s2 s4 @1\noutput s2 @1\n"


def test_parsing_builds_at_most_two_registers(monkeypatch):
    assert sum(line.startswith(("cnot", "gate"))
               for line in MANY_GATES_PROGRAM.splitlines()) == 20
    built = []
    post_init = Register.__post_init__
    monkeypatch.setattr(Register, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    program = parse_circuit(MANY_GATES_PROGRAM)
    # the final state's register and the output's, nothing per gate
    assert len(built) == 2
    assert len(program.plan.register.slots) == 10
    monkeypatch.undo()
    _assert_same_run(program)


def test_monomial_gates_run_without_tensordot(monkeypatch):
    text = "\n".join(line for line in MANY_GATES_PROGRAM.splitlines()
                     if not line.startswith("gate h")) + "\n"
    program = parse_circuit(text)
    assert all(s.kind != "gate" for s in program.plan.steps)
    calls = []
    tensordot = np.tensordot
    monkeypatch.setattr(np, "tensordot",
                        lambda *a, **k: calls.append(1) or tensordot(*a, **k))
    run_program(program)
    assert calls == []
    monkeypatch.undo()
    _assert_same_run(program)


def test_execution_deterministic():
    program = parse_circuit(FIG1_PROGRAM)
    a, _ = run_program(program)
    b, _ = run_program(program)
    assert a.to_json_dict() == b.to_json_dict()


MALFORMED_CORPUS = [
    ("", "missing output directive"),
    ("prepare a @0 |0>\n", "missing output directive"),
    ("frobnicate a @0\noutput a @0\n", "unknown directive"),
    ("prepare a @0 |0>\ncnot a b @0\noutput a @0\n", "never prepared"),
    ("prepare a @0 |0>\noutput a @5\n", "no slot at cycle 5"),
    ("prepare a @0 |0>\nprepare a @0 |1>\noutput a @0\n",
     "already prepared"),
    ("prepare a @0 |0>\noutput a @0\nprepare b @0 |0>\noutput b @0\n",
     "final directive"),
    ("prepare a @0 |0>\nprepare a @1 |vac>\noutput a @0\n",
     "mixes slot dimensions"),
    ("prepare a @0 |0>\ndiscard a\noutput a @0\n",
     "only remaining site"),
    ("prepare a @0 |0>\nprepare b @0 |0>\ncnot a b @0\ndiscard a\n"
     "dilate b +1\ncnot b b @1\noutput b @1\n", "must differ"),
    ("prepare a @0 |0>\nprepare b @0 |0>\ncnot a b @0\ndiscard a\n"
     "prepare c @0 |0>\ncnot c b @1\noutput b @0\n",
     "expansion after discard"),
    ("prepare a @0 |0>+|vac>\noutput a @0\n", "vac"),
    ("prepare a @0 |0>+|0>\noutput a @0\n", "duplicate"),
    ("prepare a @0 0|0>\noutput a @0\n", "zero norm"),
    # an L2 norm below ZERO_NORM, as qubit_state refuses it
    ("prepare a @0 7e-13|0>+7e-13|1>\noutput a @0\n",
     "line 1: state vector has zero norm"),
    ("prepare a @0 |2>\noutput a @0\n", "bad state term"),
    ("prepare a @x |0>\noutput a @0\n", "cycle"),
    ("prepare a @-1 |0>\noutput a @0\n", "cycle"),
    ("prepare a @0 |0>\ndilate a +0\noutput a @0\n", "dilation"),
    ("prepare a @0 |0>\ngate q a @0\noutput a @0\n", "unknown gate"),
    ("prepare a @0 |0>\ngate phase() a @0\noutput a @0\n", "phase angle"),
    ("prepare a @0\noutput a @0\n", "usage"),
    ("cnot a @0\noutput a @0\n", "usage"),
    ("prepare a @0 |0>\nprepare b @1 |0>\ncnot a b @2\noutput a @0\n",
     "no dilation aligns"),
    ("prepare a @0 nan|0>+1|1>\noutput a @0\n", "not finite"),
    ("prepare a @0 inf|0>\noutput a @0\n", "not finite"),
    ("prepare a @0 (1+nanj)|0>\noutput a @0\n", "not finite"),
    ("prepare a @0 1e309|0>+|1>\noutput a @0\n", "not finite"),
    ("prepare a @0 |0>\ngate phase(nan) a @0\noutput a @0\n",
     "not finite"),
    ("prepare a @0 |0>\ngate phase(inf) a @0\noutput a @0\n",
     "not finite"),
    ("prepare a @0 |0>\ngate phase(-inf) a @0\noutput a @0\n",
     "not finite"),
]


def test_malformed_corpus_diagnoses_without_crashing():
    for text, needle in MALFORMED_CORPUS:
        with pytest.raises(CircuitParseError) as err:
            parse_circuit(text)
        msg = str(err.value)
        assert "line" in msg
        assert needle in msg, f"{needle!r} not in {msg!r}"


def test_parse_errors_carry_line_numbers():
    try:
        parse_circuit("prepare a @0 |0>\nbogus\noutput a @0\n")
    except CircuitParseError as err:
        assert err.line_no == 2
        assert str(err).startswith("line 2:")
    else:
        raise AssertionError("expected a parse error")


_AB = "prepare a @0 |0>\nprepare b @0 |0>\n"
_FOURTEEN = "".join(f"prepare s{i} @0 |0>\n" for i in range(14))


# every refusal of the parser and of the static check, with its line and
# its whole message
@pytest.mark.parametrize("text, line, message", [
    ("prepare a-b @0 |0>\noutput a @0\n", 1, "bad site name 'a-b'"),
    ("prepare a 0 |0>\noutput a @0\n", 1, "expected @<cycle>, got '0'"),
    ("prepare a @x |0>\noutput a @0\n", 1, "bad cycle '@x'"),
    ("prepare a @0 |0>\ndilate a 1\noutput a @1\n", 2,
     "dilation must be written +<n>, got '1'"),
    ("prepare a @0 |0>\ndilate a +x\noutput a @1\n", 2,
     "bad dilation '+x'"),
    ("prepare a @0 |0>\ndilate a +0\noutput a @0\n", 2,
     "dilation must be at least 1, got 0"),
    ("prepare a @0 x|0>\noutput a @0\n", 1, "bad amplitude 'x'"),
    ("prepare a @0 nan|0>+|1>\noutput a @0\n", 1,
     "amplitude 'nan' is not finite"),
    ("prepare a @0 (1+0j|0>\noutput a @0\n", 1,
     "unbalanced parentheses in '(1+0j|0>'"),
    ("prepare a @0 |0>+|vac>\noutput a @0\n", 1,
     "|vac> cannot carry an amplitude or be superposed"),
    ("prepare a @0 |2>\noutput a @0\n", 1, "bad state term '|2>'"),
    ("prepare a @0 |0>+|0>\noutput a @0\n", 1, "duplicate |0> term"),
    ("prepare a @0 0|0>\noutput a @0\n", 1, "state vector has zero norm"),
    ("prepare a @0 |0>\ngate q a @0\noutput a @0\n", 2, "unknown gate 'q'"),
    ("prepare a @0 |0>\ngate phase a @0\noutput a @0\n", 2,
     "phase gate needs an angle, e.g. phase(1.57)"),
    ("prepare a @0 |0>\ngate phase(x) a @0\noutput a @0\n", 2,
     "bad phase angle 'x'"),
    ("prepare a @0 |0>\ngate phase(inf) a @0\noutput a @0\n", 2,
     "phase angle 'inf' is not finite"),
    ("prepare a @0 |0>\ngate x(1) a @0\noutput a @0\n", 2,
     "gate 'x' takes no argument"),
    ("prepare a @0\noutput a @0\n", 1,
     "usage: prepare <site> @<cycle> <state>"),
    (_AB + "cnot a @0\noutput a @0\n", 3,
     "usage: cnot <control> <target> @<cycle>"),
    ("prepare a @0 |0>\ngate x a\noutput a @0\n", 2,
     "usage: gate <name> <site> @<cycle>"),
    ("prepare a @0 |0>\ndilate a\noutput a @0\n", 2,
     "usage: dilate <site> +<n>"),
    (_AB + "discard\noutput a @0\n", 3, "usage: discard <site>"),
    ("prepare a @0 |0>\noutput a\n", 2, "usage: output <site> @<cycle>"),
    ("prepare a @0 |0>\nfrob a\noutput a @0\n", 2,
     "unknown directive 'frob'"),
    ("", 1, "missing output directive"),
    ("# only a comment\n\nprepare a @0 |0>\n", 3, "missing output directive"),
    ("prepare a @0 |0>\noutput a @0\noutput a @0\n", 2,
     "output must be the final directive"),
    ("prepare a @0 |0>\nprepare a @0 |1>\noutput a @0\n", 2,
     "slot a@0 already prepared"),
    ("prepare a @0 |0>\nprepare a @1 |vac>\noutput a @0\n", 2,
     "site 'a' mixes slot dimensions"),
    (_AB + "discard a\ngate x a @0\noutput b @0\n", 4,
     "site 'a' was discarded"),
    ("prepare a @0 |0>\ncnot a b @0\noutput a @0\n", 2,
     "site 'b' was never prepared"),
    ("prepare a @0 |0>\nprepare b @1 |0>\ncnot a b @2\noutput a @0\n", 3,
     "no dilation aligns ['a', 'b'] at cycle 2"),
    (_AB + "prepare c @0 |0>\ndiscard c\ndilate a +1\ncnot a b @1\n"
     "output b @1\n", 6, "expansion after discard needs a pure state"),
    (_AB + "cnot a a @0\noutput a @0\n", 3, "control and target must differ"),
    ("prepare a @0 |0>\ndiscard a\noutput a @0\n", 2,
     "cannot discard the only remaining site"),
    ("prepare a @0 |0>\noutput a @5\n", 2, "site 'a' has no slot at cycle 5"),
    (_FOURTEEN + "discard s13\noutput s0 @0\n", 15,
     "a density matrix of dimension 8192 needs 1024 MiB, over the 256 MiB "
     "limit"),
    ("prepare q1 @0 |0>\nprepare q2 @0 |0>\n" + "".join(
        f"dilate q1 +1\ncnot q1 q2 @{c}\n" for c in range(1, 9))
     + "output q2 @8\n", 18,
     "a pure state of dimension 4294967296 needs 65536 MiB, over the 256 "
     "MiB limit"),
], ids=["site", "cycle-at", "cycle", "dilation-plus", "dilation-digits",
        "dilation-zero", "amplitude", "amplitude-finite", "parentheses",
        "vac-term", "state-term", "duplicate-term", "zero-norm",
        "gate-name", "phase-angle-missing", "phase-angle", "phase-finite",
        "gate-argument", "usage-prepare", "usage-cnot", "usage-gate",
        "usage-dilate", "usage-discard", "usage-output", "directive",
        "empty", "output-missing", "output-final", "slot-prepared",
        "site-dims", "site-discarded", "site-unprepared", "align",
        "expand-mixed", "control-target", "discard-last", "output-slot",
        "size-density", "size-pure"])
def test_every_compile_refusal_keeps_its_message_and_line(text, line,
                                                           message):
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(text)
    assert (err.value.line_no, err.value.message) == (line, message)


def test_comments_and_blank_lines_are_skipped():
    text = """

# leading comment
prepare a @0 |0>   # trailing comment
output a @0
"""
    rep, _ = run_program(parse_circuit(text))
    assert abs(rep.probabilities["0"] - 1.0) < 1e-12


def test_runtime_rejects_mixed_expansion():
    # a parse-legal directive list can still demand expanding a mixed
    # state when assembled by hand; the interpreter must refuse it
    from tdesim.dsl import Cnot, Discard, Output, Prepare

    program_directives = (
        Prepare("a", 0, "qubit", 1.0, 0.0, line=1),
        Prepare("b", 0, "qubit", 0.0, 1.0, line=2),
        Cnot("b", "a", 0, line=3),
        Discard("b", line=4),
        Prepare("c", 0, "qubit", 1.0, 0.0, line=5),
        Cnot("c", "a", 1, line=6),
        Output("a", 0, line=7),
    )
    from tdesim import CircuitProgram

    with pytest.raises(CircuitParseError):
        run_program(CircuitProgram(program_directives))


@pytest.mark.parametrize("text", [None, b"prepare a @0 |0>\n", 3])
def test_parse_circuit_needs_text(text):
    name = type(text).__name__
    with pytest.raises(ValueError, match=f"^a program is text, got {name}$"):
        parse_circuit(text)


def test_run_program_needs_a_program():
    with pytest.raises(ValueError,
                       match="^expected a CircuitProgram, got str$"):
        run_program("prepare a @0 |0>\noutput a @0\n")


def test_hand_built_cnot_on_one_site_is_a_typed_error():
    # the parser refuses it; a directive list built by hand reaches the
    # compiler, which must refuse it too, with the line
    program = CircuitProgram((Prepare("a", 0, "qubit", 1.0, 0.0, line=1),
                              Cnot("a", "a", 0, line=2),
                              Output("a", 0, line=3)))
    with pytest.raises(CircuitParseError, match="line 2: .*must differ"):
        run_program(program)


_QUBIT = Prepare("a", 0, "qubit", 1.0, 0.0, line=1)


@pytest.mark.parametrize("directives, message", [
    ((Prepare("a", 0, "qutrit", 1.0, 0.0, line=1), Output("a", 0, line=2)),
     "line 1: unknown state kind 'qutrit'"),
    ((_QUBIT, GateOp("zz", "a", 0, line=2), Output("a", 0, line=3)),
     "line 2: unknown gate 'zz'"),
    ((_QUBIT, GateOp("phase", "a", 0, line=2), Output("a", 0, line=3)),
     "line 2: phase gate needs an angle"),
    ((_QUBIT, GateOp("phase", "a", 0, float("nan"), line=2),
      Output("a", 0, line=3)),
     "line 2: phase angle 'nan' is not finite"),
    ((Prepare("a", -3, "qubit", 1.0, 0.0, line=1), Output("a", -3, line=2)),
     "line 1: bad cycle '@-3'"),
    ((Prepare("a b", 0, "qubit", 1.0, 0.0, line=1),
      Output("a b", 0, line=2)),
     "line 1: bad site name 'a b'"),
    ((Prepare(1, 0, "qubit", 1.0, 0.0, line=1), Output(1, 0, line=2)),
     "line 1: bad site name 1"),
    ((_QUBIT, Dilate("a", -2, line=2), Output("a", -2, line=3)),
     "line 2: bad dilation '\\+-2'"),
    ((_QUBIT, "gate x a @0", Output("a", 0, line=3)),
     "line 0: unknown directive 'gate x a @0'"),
    ((_QUBIT, GateOp("X", "a", 0, line=2), Output("a", 0, line=3)),
     "line 2: unknown gate 'X'"),
    ((_QUBIT, GateOp("H", "a", 0, line=2), Output("a", 0, line=3)),
     "line 2: unknown gate 'H'"),
    ((_QUBIT, GateOp("Phase", "a", 0, 0.5, line=2), Output("a", 0, line=3)),
     "line 2: unknown gate 'Phase'"),
], ids=["state-kind", "gate-name", "phase-without-angle", "phase-nan",
        "negative-cycle", "site-name", "site-not-str", "negative-dilation",
        "not-a-directive", "gate-name-X", "gate-name-H", "gate-name-Phase"])
def test_hand_built_directives_get_the_parsers_rules(directives, message):
    # each would otherwise compile as something else, crash untyped, run
    # with an element ignored, or run and format to text that
    # parse_circuit refuses or reads back as another program
    with pytest.raises(CircuitParseError, match=message):
        run_program(CircuitProgram(directives))


def test_format_circuit_writes_only_programs_that_compile():
    # "gate X a @0" would parse back as GateOp("x", ...), and
    # "gate Phase a @0" (the angle dropped) would not parse at all
    program = CircuitProgram((_QUBIT, GateOp("X", "a", 0, line=2),
                              Output("a", 0, line=3)))
    with pytest.raises(CircuitParseError, match="line 2: unknown gate 'X'"):
        format_circuit(program)


def test_report_json_schema():
    rep, _ = run_program(parse_circuit(FIG1_PROGRAM))
    body = rep.to_json_dict()
    assert set(body) == {"output_slot", "rho_out", "probabilities",
                         "entropy_bits"}
    assert body["output_slot"] == {"site": "q2", "cycle": 1}


def k_round_program(k):
    """k rounds of `dilate q1 +1; cnot q1 q2 @c`; each expansion doubles
    the register, which holds 4, 8, 8 and 16 slots after rounds 1-4 and
    first needs 32 slots at round 8."""
    lines = ["prepare q1 @0 0.6|0>+0.8|1>", "prepare q2 @0 |0>",
             "cnot q1 q2 @0"]
    for c in range(1, k + 1):
        lines += ["dilate q1 +1", f"cnot q1 q2 @{c}"]
    lines.append(f"output q2 @{k}")
    return "\n".join(lines) + "\n"


def test_sixteen_slot_program_runs_in_small_memory():
    program = parse_circuit(k_round_program(4))
    tracemalloc.start()
    try:
        rep, final = run_program(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(final.register.slots) == 16
    assert peak < 64 * 2**20
    m = rep.rho_out.matrix
    assert m.shape == (2, 2)
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert abs(np.trace(m) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(m).min() > -1e-12


def _plan_arrays(program):
    return [a for step in program.plan.steps for a in (step.operand, step.perm)
            if a is not None]


def test_runs_share_no_buffer_with_the_plan_or_each_other():
    # run_program normalizes the final state in place on the run's own
    # array and reuses the run's dead buffers, so a reused plan or a
    # second run must still see nothing of the first
    program = parse_circuit(k_round_program(4))
    plan = [a.copy() for a in _plan_arrays(program)]
    rep_a, a = run_program(program)
    rep_b, b = run_program(program)
    _, c = run_program(parse_circuit(k_round_program(4)))
    for state in (a, b, c):
        assert not state.amplitudes.flags.writeable
        np.testing.assert_array_equal(state.amplitudes, a.amplitudes)
        for array in _plan_arrays(program):
            assert not np.shares_memory(state.amplitudes, array)
    assert not np.shares_memory(a.amplitudes, b.amplitudes)
    assert not np.shares_memory(rep_a.rho_out.matrix, rep_b.rho_out.matrix)
    for before, after in zip(plan, _plan_arrays(program)):
        np.testing.assert_array_equal(before, after)
    assert rep_a.to_json_dict() == rep_b.to_json_dict()

    # a final state that is the plan's own prepared vector is copied
    program = parse_circuit("prepare a @0 0.6|0>+0.8|1>\noutput a @0\n")
    vector = program.plan.steps[0].operand
    before = vector.copy()
    _, state = run_program(program)
    assert not np.shares_memory(state.amplitudes, vector)
    np.testing.assert_allclose(state.amplitudes, before, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(vector, before)


def test_hand_built_prepares_get_frozen_vectors_and_rerun_alike():
    # a caller cannot hand the compiler a prepared vector: it computes a
    # read-only one itself, so the run's buffer reuse (a gather, a gate
    # and a second gather) cannot write into the plan or the caller's
    # data; float amplitudes still give a complex vector, so a reused
    # buffer keeps the imaginary part the gate makes
    with pytest.raises(TypeError):
        Prepare("a", 0, "qubit", 1.0, 0.0, vector=np.array([1, 0j]))
    directives = (Prepare("a", 0, "qubit", 1.0, 0.0, line=1),
                  Prepare("b", 0, "qubit", 0.6, 0.8, line=2),
                  Cnot("b", "a", 0, line=3),
                  GateOp("h", "a", 0, line=4),
                  Cnot("a", "b", 0, line=5),
                  Output("a", 0, line=6))
    program = CircuitProgram(directives)
    plan = [a.copy() for a in _plan_arrays(program)]
    for step in program.plan.steps:
        if step.kind == "prepare":
            assert not step.operand.flags.writeable
    rep_a, a = run_program(program)
    rep_b, b = run_program(program)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert rep_a.to_json_dict() == rep_b.to_json_dict()
    for before, after in zip(plan, _plan_arrays(program)):
        np.testing.assert_array_equal(before, after)
    parsed = parse_circuit("prepare a @0 |0>\nprepare b @0 0.6|0>+0.8|1>\n"
                           "cnot b a @0\ngate h a @0\ncnot a b @0\n"
                           "output a @0\n")
    rep_c, c = run_program(parsed)
    np.testing.assert_allclose(c.amplitudes, a.amplitudes, rtol=0, atol=1e-15)
    assert rep_c.to_json_dict() == rep_a.to_json_dict()


def test_oversized_programs_are_refused_at_parse_time():
    # round 8 doubles the 16-slot pure state to 32 slots (64 GiB)
    text = k_round_program(8)
    with pytest.raises(CircuitParseError, match="MiB limit") as err:
        parse_circuit(text)
    assert err.value.line_no == text.splitlines().index("cnot q1 q2 @8") + 1

    # 14 pure qubits fit in 256 KiB; tracing one out leaves a 13-qubit
    # density matrix of 1 GiB
    sites = [f"s{i}" for i in range(14)]
    text = "".join(f"prepare {s} @0 |0>\n" for s in sites)
    assert 16 * 2**14 <= MAX_STATE_BYTES < 16 * 2**26
    parse_circuit(text + "output s0 @0\n")
    with pytest.raises(CircuitParseError, match="density matrix") as err:
        parse_circuit(text + "discard s13\noutput s0 @0\n")
    assert err.value.line_no == 15
