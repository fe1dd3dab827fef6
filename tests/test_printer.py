"""Canonical printing and parse/print round trips."""

import random

import pytest
from hypothesis import given, strategies as st

from qirtk import parse_module, print_module
from qirtk.ir import ConstFloat, StaticAddr
from qirtk.lexer import bare_name, spell_name
from qirtk.printer import format_value

import genutil


ALL_LL = sorted(p.name for p in genutil.CORPUS.glob("*.ll"))


@pytest.mark.parametrize("name", ALL_LL)
def test_corpus_round_trips_structurally(name):
    module = parse_module(genutil.corpus_text(name))
    text = print_module(module)
    assert parse_module(text) == module


@pytest.mark.parametrize("seed", range(10))
def test_generated_modules_round_trip(seed):
    module = parse_module(genutil.random_adaptive_module(random.Random(seed)))
    assert parse_module(print_module(module)) == module


def test_printing_is_a_fixed_point_of_reparsing():
    for name in ALL_LL:
        text = print_module(parse_module(genutil.corpus_text(name)))
        assert print_module(parse_module(text)) == text


def test_static_address_spellings():
    assert format_value(StaticAddr(0)) == "null"
    assert format_value(StaticAddr(3)) == "inttoptr (i64 3 to ptr)"


def test_non_finite_floats_are_rejected():
    with pytest.raises(ValueError):
        format_value(ConstFloat(float("nan")))
    with pytest.raises(ValueError):
        format_value(ConstFloat(float("inf")))


@given(st.floats(allow_nan=False, allow_infinity=False,
                 min_value=-1e6, max_value=1e6))
def test_angle_constants_survive_print_and_reparse(angle):
    text = ("declare void @__quantum__qis__rz__body(double, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            f"  call void @__quantum__qis__rz__body(double {angle!r}, "
            "ptr null)\n"
            "  ret void\n"
            "}\n")
    module = parse_module(text)
    again = parse_module(print_module(module))
    call = again.entry.blocks[0].instructions[0]
    assert call.args[0].value.value == angle


# names the lexer reads only when quoted: a function, a declaration, the
# locals of a loop and its slot, and global operands, one of them empty
QUOTED_NAMES = """\
define void @"main fn"() #0 {
entry:
  %"slot a" = alloca i64
  store i64 0, ptr %"slot a"
  br label %"loop"
loop:
  %"i-1" = phi i64 [ 0, %entry ], [ %"i+1", %loop ]
  %"i+1" = add i64 %"i-1", 1
  %"q 0" = call ptr @__quantum__rt__qubit_allocate()
  call void @"ext fn"(ptr %"q 0", ptr @"a label", ptr @"")
  %"done?" = icmp eq i64 %"i+1", 3
  br i1 %"done?", label %exit, label %loop
exit:
  ret void
}
declare ptr @__quantum__rt__qubit_allocate()
declare void @"ext fn"(ptr, ptr, ptr)
attributes #0 = { "entry_point" }
"""


def test_quoted_names_round_trip():
    module = parse_module(QUOTED_NAMES)
    text = print_module(module)
    assert parse_module(text) == module
    assert print_module(parse_module(text)) == text
    for spelling in ('@"main fn"', '@"ext fn"', '%"slot a"', '%"i-1"',
                     '%"i+1"', '%"q 0"', '%"done?"', '@"a label"', '@""',
                     "label %loop"):
        assert spelling in text, spelling


@pytest.mark.parametrize("name, spelled", [
    ("main", "main"), ("0", "0"), ("$a.b_c9", "$a.b_c9"), ("", '""'),
    ("main fn", '"main fn"'), ("a-b", '"a-b"'), ("é", '"é"')])
def test_spell_name_inverts_bare_name(name, spelled):
    assert spell_name(name) == spelled
    assert bare_name("@" + spelled) == name
