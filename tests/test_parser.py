"""Lexer and parser behavior on the textual IR subset."""

import struct

import pytest

from qirtk import ParseError, parse_module
from qirtk.ir import (Call, ConstFloat, PhiNode, StaticAddr)
from qirtk.lexer import tokenize, tokenize_line

import genutil


ALL_LL = sorted(p.name for p in genutil.CORPUS.glob("*.ll"))


@pytest.mark.parametrize("name", ALL_LL)
def test_parses_entire_corpus(name):
    module = parse_module(genutil.corpus_text(name))
    assert module.entry.name == "main"
    assert module.entry.blocks


def test_static_addresses_get_kind_from_signature_position():
    module = parse_module(genutil.corpus_text("bell_static.ll"))
    calls = [i for b in module.entry.blocks for i in b.instructions
             if isinstance(i, Call)]
    h = calls[0]
    assert h.callee == "__quantum__qis__h__body"
    assert h.args[0].value == StaticAddr(0)
    mz = calls[3]
    assert mz.callee == "__quantum__qis__mz__body"
    assert mz.args[0].value == StaticAddr(1)
    assert mz.args[1].value == StaticAddr(1)


def test_null_and_inttoptr_spellings():
    module = parse_module(
        "define void @main() {\n"
        "entry:\n"
        "  call void @__quantum__qis__cnot__body(ptr null, "
        "ptr inttoptr (i64 7 to ptr))\n"
        "  ret void\n"
        "}\n"
        "declare void @__quantum__qis__cnot__body(ptr, ptr)\n")
    call = module.entry.blocks[0].instructions[0]
    assert call.args[0].value.index == 0
    assert call.args[1].value.index == 7


def test_attribute_groups_and_required_counts():
    module = parse_module(genutil.corpus_text("bell_static.ll"))
    assert "entry_point" in module.attributes
    assert module.required_count("required_num_qubits") == 2
    assert module.required_count("required_num_results") == 2
    bare = parse_module(genutil.corpus_text("empty.ll"))
    assert bare.required_count("required_num_qubits") is None


_H_BODY = ("entry:\n"
           "  call void @__quantum__qis__h__body(ptr null)\n"
           "  ret void\n"
           "}\n")


def test_inline_attributes_join_a_group_defined_later():
    module = parse_module(
        'define void @main() #0 "entry_point" {\n' + _H_BODY
        + "declare void @__quantum__qis__h__body(ptr)\n"
        '\nattributes #0 = { "required_num_qubits"="1" }\n')
    assert module.entry.attr_group == 0
    assert module.attributes == {"entry_point": "",
                                 "required_num_qubits": "1"}
    assert module.required_count("required_num_qubits") == 1


def test_inline_only_define_gets_an_id_no_later_group_uses():
    module = parse_module(
        'define void @main() "entry_point" "required_num_qubits"="1" {\n'
        + _H_BODY
        + "declare void @__quantum__qis__h__body(ptr) #0\n"
        '\nattributes #0 = { "irreversible" }\n')
    assert module.entry.attr_group == 1
    assert module.attribute_groups[0] == {"irreversible": ""}
    assert module.attributes == {"entry_point": "",
                                 "required_num_qubits": "1"}


def test_inline_attributes_on_a_shared_group_stay_with_their_define():
    module = parse_module(
        "define void @helper() #0 {\n" + _H_BODY
        + 'define void @main() #0 "entry_point" {\n' + _H_BODY
        + "declare void @__quantum__qis__h__body(ptr)\n"
        '\nattributes #0 = { "required_num_qubits"="1" }\n')
    assert module.entry.name == "main"
    assert module.attribute_groups[0] == {"required_num_qubits": "1"}
    assert module.attributes == {"required_num_qubits": "1",
                                 "entry_point": ""}


def test_inline_attributes_do_not_hide_an_undefined_group():
    with pytest.raises(ParseError, match="attribute group #3 is never"):
        parse_module('define void @main() #3 "entry_point" {\n' + _H_BODY
                     + "declare void @__quantum__qis__h__body(ptr)\n")


def test_declare_with_an_undefined_group_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_module('define void @main() #0 {\n' + _H_BODY
                     + "declare void @__quantum__qis__h__body(ptr) #7\n"
                     '\nattributes #0 = { "entry_point" }\n')
    assert exc.value.message == "attribute group #7 is never defined"
    assert exc.value.line == 6


def test_declare_may_name_a_group_defined_after_it():
    module = parse_module(
        "declare void @__quantum__qis__h__body(ptr) #1\n"
        "define void @main() #0 {\n" + _H_BODY
        + '\nattributes #0 = { "entry_point" }\n'
        'attributes #1 = { "irreversible" }\n')
    assert module.declared_names() == {"__quantum__qis__h__body"}


def test_hex_float_constant_decodes_as_ieee754_bits():
    module = parse_module(genutil.corpus_text("rotations.ll"))
    ry = next(i for b in module.entry.blocks for i in b.instructions
              if isinstance(i, Call)
              and i.callee == "__quantum__qis__ry__body")
    angle = ry.args[0].value
    assert isinstance(angle, ConstFloat)
    expected = struct.unpack(">d", bytes.fromhex("3FF921FB54442D18"))[0]
    assert angle.value == expected


def test_phi_nodes_round_into_structured_form():
    module = parse_module(genutil.corpus_text("phi_loop.ll"))
    phis = [phi for block in module.entry.blocks for phi in block.phis]
    assert phis, "corpus loop should carry at least one phi"
    phi = phis[0]
    assert isinstance(phi, PhiNode)
    assert len(phi.incomings) == 2
    labels = {label for _, label in phi.incomings}
    assert len(labels) == 2


def test_numeric_local_names():
    module = parse_module(genutil.corpus_text("hadamard_loop.ll"))
    names = {i.result for b in module.entry.blocks for i in b.instructions
             if getattr(i, "result", None) is not None}
    assert "0" in names


def test_metadata_and_declaration_annotations_are_tolerated():
    module = parse_module(
        'source_filename = "demo.ll"\n'
        "target datalayout = \"e-m:e\"\n"
        "!0 = !{i32 1}\n"
        "declare void @__quantum__qis__mz__body(ptr, ptr writeonly)\n"
        "define void @main() {\n"
        "entry:\n"
        "  ret void\n"
        "}\n")
    assert module.source_name == "demo.ll"
    assert module.declarations[0].name == "__quantum__qis__mz__body"


def test_parse_error_carries_line_number():
    bad = ("define void @main() {\n"
           "entry:\n"
           "  frobnicate 12\n"
           "  ret void\n"
           "}\n")
    with pytest.raises(ParseError) as exc:
        parse_module(bad)
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_unreadable_character_is_rejected_with_position():
    with pytest.raises(ParseError) as exc:
        tokenize_line("  call \x01 oops", 4)
    assert exc.value.line == 4
    assert exc.value.column == 8


def test_tokenizer_strips_comments_and_blank_lines():
    lines = tokenize("; banner\n\n  ret void ; trailing\n")
    assert len(lines) == 1
    assert [t.text for t in lines[0]] == ["ret", "void"]


def test_missing_entry_function_is_rejected():
    with pytest.raises(ParseError):
        parse_module("declare void @__quantum__qis__h__body(ptr)\n")


def test_duplicate_block_label_is_rejected():
    bad = ("define void @main() {\n"
           "entry:\n"
           "  br label %entry\n"
           "entry:\n"
           "  ret void\n"
           "}\n")
    with pytest.raises(ParseError):
        parse_module(bad)


def test_unterminated_block_is_rejected():
    bad = ("define void @main() {\n"
           "entry:\n"
           "  call void @__quantum__qis__h__body(ptr null)\n"
           "}\n"
           "declare void @__quantum__qis__h__body(ptr)\n")
    with pytest.raises(ParseError):
        parse_module(bad)


_DIGITS = "9" * 5000


@pytest.mark.parametrize("text, line, column", [
    # an iN constant
    ("define void @main() {\nentry:\n"
     f"  %x = add i64 {_DIGITS}, 1\n  ret void\n}}\n", 3, 16),
    # an address constant on a line the token parser reads
    ("declare void @__quantum__qis__h__body(ptr)\n"
     "define void @main() {\nentry:\n"
     f"  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 {_DIGITS} "
     "to %Qubit*))\n  ret void\n}\n", 4, 60),
    # the same on a line of the base call shape
    ("declare void @__quantum__qis__h__body(ptr)\n"
     "define void @main() {\nentry:\n"
     f"  call void @__quantum__qis__h__body(ptr inttoptr (i64 {_DIGITS} "
     "to ptr))\n  ret void\n}\n", 4, 56),
    # attribute group numbers
    (f"declare void @f() #{_DIGITS}\n"
     "define void @main() {\nentry:\n  ret void\n}\n", 1, 19),
    (f"define void @main() #{_DIGITS} {{\nentry:\n  ret void\n}}\n", 1, 21),
    ("define void @main() {\nentry:\n  ret void\n}\n"
     f"attributes #{_DIGITS} = {{ }}\n", 5, 12),
], ids=["int", "address", "base-call-address", "declare-group",
        "define-group", "attributes-group"])
def test_integer_literal_past_the_int_string_limit_is_a_parse_error(
        text, line, column):
    with pytest.raises(ParseError) as exc:
        parse_module(text)
    err = exc.value
    assert (err.message, err.line, err.column) == \
        ("integer literal too long", line, column)
    assert err.token.lstrip("#") == _DIGITS
