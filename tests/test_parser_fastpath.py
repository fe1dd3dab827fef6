"""The parser's call-line fast path, checked against its token parser.

``parser._CALL_LINE`` picks the lines of the base shape that skip the
lexer. With it replaced by a pattern that never matches, every line goes
through the lexer and the token parser, which is the reference here: both
ways must give equal modules that print identically, or the same
``ParseError`` (reason, line, column and token).
"""

import importlib.util
import math
import random
import re
import struct
import sys

import pytest
from hypothesis import given, strategies as st

from qirtk import (ParseError, circuit_from_base_qir, export_openqasm2,
                   intrinsic_table, parse_module, print_module)
from qirtk import intrinsics, parser

import genutil

ALL_LL = sorted(p.name for p in genutil.CORPUS.glob("*.ll"))

_NEVER = re.compile(r"(?!)")


def _outcome(text):
    try:
        module = parse_module(text)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.column, exc.token)
    return ("module", module, print_module(module))


def _both_ways(text):
    """(fast-path outcome, token-parser outcome) of ``text``."""
    fast = _outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_CALL_LINE", _NEVER)
        tokens = _outcome(text)
    return fast, tokens


def _lexed_lines(text):
    """The line numbers whose text reaches ``tokenize`` unblanked."""
    seen, tokenize = [], parser.tokenize
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "tokenize",
                      lambda src: seen.append(src) or tokenize(src))
        parse_module(text)
    [lexed] = seen
    return {i for i, line in enumerate(lexed.splitlines(), start=1) if line}


def _call_lines(text):
    return {i for i, line in enumerate(text.splitlines(), start=1)
            if line.lstrip().startswith("call void @")}


@pytest.mark.parametrize("name", ALL_LL)
def test_corpus_parses_the_same_both_ways(name):
    fast, tokens = _both_ways(genutil.corpus_text(name))
    assert fast[0] == "module"
    assert fast == tokens


def test_base_call_lines_skip_the_lexer():
    text = genutil.corpus_text("bell_static.ll")
    calls = _call_lines(text)
    assert len(calls) == 6
    assert not calls & _lexed_lines(text)


_SHARED_ARGS = """declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__rx__body(double, ptr)
define void @main() {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__rx__body(double 0.5, ptr null)
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__rx__body(double 5e-1, ptr null)
  call void @__quantum__qis__rx__body(double 0.5, ptr null)
  ret void
}
"""


def test_equal_argument_texts_share_one_args_tuple_within_a_parse():
    first = parse_module(_SHARED_ARGS).entry.blocks[0].instructions
    second = parse_module(_SHARED_ARGS).entry.blocks[0].instructions
    assert first[0].args is first[2].args
    assert first[1].args is first[4].args
    # an equal value spelled otherwise is built anew
    assert first[3].args == first[1].args
    assert first[3].args is not first[1].args
    # another parse shares nothing with this one
    for mine, theirs in zip(first, second):
        assert mine.args == theirs.args and mine.args is not theirs.args
    fast, tokens = _both_ways(_SHARED_ARGS)
    assert fast == tokens


_REPEATS = """declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__rz__body(double, ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__rz__body(double 0.0, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__rz__body(double -0.0, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__h__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__rz__body(double -0.0, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__rz__body(double 0.0, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
attributes #0 = { "entry_point" }
"""


def test_equal_call_lines_are_one_call_within_a_parse():
    lines = [line for line in _REPEATS.splitlines()
             if line.startswith("  call")]
    first = parse_module(_REPEATS).entry.blocks[0].instructions
    second = parse_module(_REPEATS).entry.blocks[0].instructions
    firsts = {}
    for line, call in zip(lines, first, strict=True):
        assert firsts.setdefault(line, call) is call
    # one object per distinct text: the two signed zeros are equal
    # values, but not the same call
    assert len({id(call) for call in first}) == len(firsts) == 4
    assert first[1] == first[2] and first[1] is not first[2]
    assert [math.copysign(1.0, first[i].args[0].value.value)
            for i in (1, 2, 5, 6)] == [1.0, -1.0, -1.0, 1.0]
    # equal addresses share one operand across callees
    assert first[1].args[1] is first[2].args[1] is first[4].args[0]
    # another parse shares nothing with this one
    mine = {id(x) for call in first for x in (call, *call.args)}
    theirs = {id(x) for call in second for x in (call, *call.args)}
    assert not mine & theirs
    assert first == second


def test_signed_zero_lines_stay_apart_through_the_exporter():
    expected = ["h q[0];", "rz(0.0) q[1];", "rz(-0.0) q[1];", "h q[0];",
                "h q[1];", "rz(-0.0) q[1];", "rz(0.0) q[1];", "h q[0];"]
    fast = parse_module(_REPEATS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_CALL_LINE", _NEVER)
        unshared = parse_module(_REPEATS)
    for module in (fast, unshared):
        # the first conversion is cold; the second starts from a module
        # whose profile report is kept, and inside each one the repeated
        # lines find their ops and rendered lines in the memos
        for _ in range(2):
            qasm = export_openqasm2(circuit_from_base_qir(module))
            assert qasm.splitlines()[3:] == expected


def _perfbench_gen():
    """``perfbench/gen.py``, which imports nothing from qirtk."""
    name = "perfbench_gen"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, genutil.ROOT / "perfbench" / "gen.py")
        gen = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    return sys.modules[name]


@pytest.mark.parametrize("workload", ["sample", "lower", "convert"])
def test_benchmark_modules_parse_the_same_both_ways(workload):
    generate = getattr(_perfbench_gen(), workload)
    for seed in range(3):
        fast, tokens = _both_ways(generate(seed).text)
        assert fast[0] == "module"
        assert fast == tokens


@pytest.mark.parametrize("seed", range(10))
def test_random_adaptive_modules_parse_the_same_both_ways(seed):
    fast, tokens = _both_ways(
        genutil.random_adaptive_module(random.Random(seed)))
    assert fast[0] == "module"
    assert fast == tokens


# ---------------------------------------------------------------------------
# modules that call every gate, measurement and record intrinsic

_SPELLINGS = (
    repr,
    lambda v: f"{v:e}",
    lambda v: f"{-abs(v)!r}",
    lambda v: "0x" + struct.pack(">d", v).hex().upper(),
    lambda v: "0x" + struct.pack(">d", v).hex(),
    lambda v: f"{round(v)}e{random.Random(v).randint(-9, 9)}",
)


def _address(rng):
    if rng.random() < 0.2:
        return "ptr null"
    index = rng.randrange(1 << rng.choice((3, 16, 70)))
    return f"ptr inttoptr (i64 {index} to ptr)"


def _argument(rng, kind):
    if kind == intrinsics.ANGLE_ARG:
        value = rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-5, 5)
        return f"double {rng.choice(_SPELLINGS)(value)}"
    if kind == intrinsics.INT_ARG:
        return f"i64 {rng.randrange(64)}"
    return _address(rng)


_CALLED = sorted(
    spec.name for spec in intrinsic_table().values()
    if spec.action in (intrinsics.GATE, intrinsics.MEASURE,
                       intrinsics.RECORD, intrinsics.RECORD_ARRAY))


def _every_intrinsic_module(rng):
    lines = []
    for name in _CALLED:
        decl = intrinsics.declaration_for(name)
        params = ", ".join(str(t) for t in decl.param_types)
        lines.append(f"declare void @{name}({params})")
    lines += ["", "define void @main() {", "entry:"]
    for _ in range(3):
        for name in _CALLED:
            kinds = intrinsic_table()[name].arg_kinds
            args = ", ".join(_argument(rng, kind) for kind in kinds)
            lines.append(f"  call void @{name}({args})")
    lines += ["  ret void", "}", ""]
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(20))
def test_every_gate_measure_and_record_call_parses_the_same(seed):
    text = _every_intrinsic_module(random.Random(seed))
    fast, tokens = _both_ways(text)
    assert fast[0] == "module"
    assert fast == tokens
    # only the array record, whose first argument is an i64, is lexed
    lexed = _lexed_lines(text) & _call_lines(text)
    assert {text.splitlines()[i - 1].split("(")[0] for i in lexed} == \
        {"  call void @__quantum__rt__array_record_output"}


# ---------------------------------------------------------------------------
# generated call lines: spacing, comments, quoted names, legacy pointers

_NAMES = ("__quantum__qis__h__body", "__quantum__qis__rx__body",
          "__quantum__qis__cnot__body", "__quantum__qis__mz__body",
          "f.1", "$x_2", "a b")

_DOUBLES = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda v: st.sampled_from([
        repr(v), f"{v:e}", "0x" + struct.pack(">d", v).hex().upper(),
        str(int(v)) if abs(v) < 1e6 else repr(v)]))

_ARGS = st.one_of(
    st.just("ptr null"),
    st.integers(0, 1 << 70).map(lambda n: f"ptr inttoptr (i64 {n} to ptr)"),
    _DOUBLES.map(lambda d: f"double {d}"),
    st.integers(0, 5).flatmap(lambda n: st.sampled_from([
        "ptr null", f"ptr inttoptr (i64 {n} to ptr)", "%Qubit* null",
        "%Result* null", f"%Qubit* inttoptr (i64 {n} to %Qubit*)",
        "ptr writeonly null", f"i64 {n}", "ptr @0", "ptr inttoptr (i64 -1 "
        "to ptr)", f"ptr inttoptr (i32 {n} to ptr)"])),
)


@st.composite
def call_lines(draw):
    name = draw(st.sampled_from(_NAMES))
    callee = f'@"{name}"' if draw(st.integers(0, 5)) == 0 else f"@{name}"
    args = ", ".join(draw(st.lists(_ARGS, max_size=4)))
    line = f"call void {callee}({args})"
    # respace one line in three: change some single spaces, pad some
    # punctuation; the others keep the printer's spacing
    if draw(st.integers(0, 2)) == 0:
        spaces = [i for i, c in enumerate(line) if c == " "]
        for i in sorted(draw(st.sets(st.sampled_from(spaces))),
                        reverse=True):
            gap = draw(st.sampled_from(["  ", "\t", " \t", ""]))
            line = line[:i] + gap + line[i + 1:]
        marks = [i for i, c in enumerate(line) if c in "(),"]
        for i in sorted(draw(st.sets(st.sampled_from(marks))),
                        reverse=True):
            line = line[:i] + draw(st.sampled_from([" ", "\t"])) + line[i:]
    indent = draw(st.sampled_from(["", "  ", "\t", "    "]))
    tail = draw(st.sampled_from(["", "", "", "", " ", " ; note", ";c",
                                 "  ; call void @f(ptr null)"]))
    return indent + line + tail


def _generated_module(body, stray, where):
    decls = [f'declare void @"{name}"(ptr)' for name in _NAMES]
    lines = decls + ["define void @main() {", "entry:"]
    lines += ["  " + line for line in body] + ["  ret void", "}"]
    # where: 0 top level, 1 before the first label, 2 after ``ret``
    at = (0, len(decls) + 1, len(lines) - 1)[where]
    if stray is not None:
        lines.insert(at, stray)
    return "\n".join(lines) + "\n"


@given(st.lists(call_lines(), min_size=1, max_size=4),
       st.none() | call_lines(), st.integers(0, 2))
def test_generated_call_lines_parse_the_same(body, stray, where):
    fast, tokens = _both_ways(_generated_module(body, stray, where))
    assert fast == tokens


@st.composite
def repeated_call_lines(draw):
    """A body that repeats some of its lines, and a stray line that is
    sometimes one of them."""
    lines = draw(st.lists(call_lines(), min_size=1, max_size=3))
    body = draw(st.lists(st.sampled_from(lines), min_size=2, max_size=8))
    stray = draw(st.none() | st.sampled_from(lines) | call_lines())
    return body, stray


@given(repeated_call_lines(), st.integers(0, 2))
def test_repeated_call_lines_parse_the_same(drawn, where):
    body, stray = drawn
    fast, tokens = _both_ways(_generated_module(body, stray, where))
    assert fast == tokens


# ---------------------------------------------------------------------------
# error parity: a matched line where it cannot be built goes to the tokens

_H = "call void @__quantum__qis__h__body(ptr null)"
_DECL = "declare void @__quantum__qis__h__body(ptr)"
_LONG = "7" * 5000

ERROR_CASES = [
    ("top-level",
     f"{_DECL}\n{_H}\ndefine void @main() {{\nentry:\n  ret void\n}}\n",
     ("unsupported module-level statement", 2, 1, "call")),
    ("after-ret",
     f"{_DECL}\ndefine void @main() {{\nentry:\n  ret void\n  {_H}\n}}\n",
     ("instruction after block terminator", 5, 3, "call")),
    ("before-label",
     f"{_DECL}\ndefine void @main() {{\n  {_H}\nentry:\n  ret void\n}}\n",
     ("block 'entry' has no terminator", 4, 6, ":")),
    ("undeclared",
     "define void @main() {\nentry:\n"
     "  call void @__quantum__qis__x__body(ptr inttoptr (i64 3 to ptr))\n"
     "  ret void\n}\n",
     ("call to undeclared symbol @__quantum__qis__x__body", 3, None,
      "@__quantum__qis__x__body")),
    ("lex-error-first",
     f"{_DECL}\ndefine void @main() {{\nentry:\n  {_H}\n  bogus\n"
     + "".join(f"  call void @__quantum__qis__h__body("
               f"ptr inttoptr (i64 {i} to ptr))\n" for i in range(6, 90))
     + f"  {_H} ?\n  ret void\n}}\n",
     ("unrecognized character", 90, 48, "?")),
    ("undeclared-repeated",
     f"{_DECL}\ndefine void @main() {{\nentry:\n  {_H}\n"
     "  call void @__quantum__qis__x__body(ptr inttoptr (i64 3 to ptr))\n"
     "  call void @__quantum__qis__x__body(ptr null)\n"
     f"  {_H}\n"
     "  call void @__quantum__qis__x__body(ptr inttoptr (i64 3 to ptr))\n"
     "  call void @__quantum__qis__x__body(ptr null)\n"
     "  ret void\n}\n",
     ("call to undeclared symbol @__quantum__qis__x__body", 5, None,
      "@__quantum__qis__x__body")),
    ("after-ret-repeated",
     f"{_DECL}\ndefine void @main() {{\nentry:\n  {_H}\n  {_H}\n"
     f"  ret void\n  {_H}\n}}\n",
     ("instruction after block terminator", 7, 3, "call")),
    ("address-too-long",
     f"{_DECL}\ndefine void @main() {{\nentry:\n"
     f"  call void @__quantum__qis__h__body(ptr inttoptr (i64 {_LONG} "
     "to ptr))\n  ret void\n}\n",
     ("integer literal too long", 4, 56, _LONG)),
]


@pytest.mark.parametrize("text, expected",
                         [pytest.param(*c[1:], id=c[0]) for c in ERROR_CASES])
def test_errors_are_the_token_parsers(text, expected):
    fast, tokens = _both_ways(text)
    assert fast == tokens == ("error",) + expected
