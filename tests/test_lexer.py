"""The token stream of the textual IR lexer, pinned token by token."""

import hashlib
import re

import pytest
from hypothesis import given, strategies as st

from qirtk import ParseError
from qirtk.lexer import tokenize, tokenize_line

import genutil


# corpus file -> (token count, sha256 of one "kind\ttext\tline\tcolumn\n"
# record per token, in order)
CORPUS_TOKENS = {
    "bell_dynamic.ll": (215, "c31145bc20507d4d065fec63d75909db85fc79aa779ad613b6c8c1efc1aaec14"),
    "bell_static.ll": (139, "70451b43aefe173c5a5eb29344d8650f3da68fcb53aaeef80853928ec78aa074"),
    "empty.ll": (14, "4a2fb880395475b83807578e91b6b6d0a40a4b18929a8af5ddcad9729d68761b"),
    "feedback.ll": (189, "aa3d8f4eb0a31657464814e40a9d79bb1417b44752719920897492589e5fcb58"),
    "ghz_dynamic.ll": (277, "aa7ca307e4408e6f5887c0e2bf1664c8c3a7cc32f5cc4b9cb0c66e1c1a5ddc8b"),
    "hadamard_loop.ll": (120, "34c97454a73598265849e62f39af53b9f70ed257eba388680f14a9bdb2294e6d"),
    "measure_only.ll": (64, "fb86ad12e3c6ee480710f5dda9a0b546c352cbddd646be53d27852f6f807c180"),
    "phi_loop.ll": (123, "bcf9394ad8ea077c5da6d904cdad6a9459926e6142be9f09ba98dfbfa416dbb9"),
    "reuse.ll": (139, "9e451ecf306b9f99b18c9e8e2769b0e12c5b1b42611e09140d05f22bbdff19b8"),
    "rotations.ll": (189, "0ea1920c99fa5aa94f2c62b5ffd2f168effa528ba8ec9f3c0c1d4d7420e59cdf"),
    "unsupported.ll": (34, "f16b64174d7ef0b2300e50ca2caadf0bcdaa835c39f5d88e89a5a4a734db9b15"),
}


def fields(tokens):
    return [(t.kind, t.text, t.line, t.column) for t in tokens]


def test_every_corpus_module_is_pinned():
    assert sorted(CORPUS_TOKENS) == sorted(
        p.name for p in genutil.CORPUS.glob("*.ll"))


@pytest.mark.parametrize("name", sorted(CORPUS_TOKENS))
def test_corpus_token_stream_is_pinned(name):
    tokens = [t for line in tokenize(genutil.corpus_text(name))
              for t in line]
    record = "".join(f"{k}\t{x}\t{l}\t{c}\n" for k, x, l, c in fields(tokens))
    assert (len(tokens), hashlib.sha256(record.encode()).hexdigest()) \
        == CORPUS_TOKENS[name]


def test_trailing_spaces_and_tabs_are_skipped():
    assert fields(tokenize_line("  ret void \t \t", 3)) == [
        ("WORD", "ret", 3, 3), ("WORD", "void", 3, 7)]


def test_carriage_return_line_ends_count_as_line_breaks():
    lines = tokenize("ret void\r\n\r\n  br label %x\r")
    assert [fields(line) for line in lines] == [
        [("WORD", "ret", 1, 1), ("WORD", "void", 1, 5)],
        [("WORD", "br", 3, 3), ("WORD", "label", 3, 6),
         ("LOCAL", "%x", 3, 12)],
    ]


def test_no_break_space_separates_tokens():
    assert fields(tokenize_line("ret\xa0void\xa0", 1)) == [
        ("WORD", "ret", 1, 1), ("WORD", "void", 1, 5)]


def test_comment_right_after_a_token_ends_the_line():
    assert fields(tokenize_line("void;x", 1)) == [("WORD", "void", 1, 1)]
    assert tokenize_line(";", 1) == []
    assert tokenize_line("   ; only a comment", 1) == []


def test_quoted_names_keep_their_spaces():
    assert fields(tokenize_line('call void @"x y"(ptr %"a b")', 2)) == [
        ("WORD", "call", 2, 1), ("WORD", "void", 2, 6),
        ("GLOBAL", '@"x y"', 2, 11), ("PUNCT", "(", 2, 17),
        ("WORD", "ptr", 2, 18), ("LOCAL", '%"a b"', 2, 22),
        ("PUNCT", ")", 2, 28)]


def test_numbers_hex_exponent_and_negative():
    line = "0x3FF0000000000000 1.5e-3 2E5 -7 -0.25 3. 42 0x12"
    assert fields(tokenize_line(line, 1)) == [
        ("FLOAT", "0x3FF0000000000000", 1, 1), ("FLOAT", "1.5e-3", 1, 20),
        ("FLOAT", "2E5", 1, 27), ("INT", "-7", 1, 31),
        ("FLOAT", "-0.25", 1, 34), ("FLOAT", "3.", 1, 40),
        ("INT", "42", 1, 43), ("INT", "0", 1, 46), ("WORD", "x12", 1, 47)]


def test_other_token_kinds():
    line = 'attributes #12 = { "a"="b" } [2 x ptr]*'
    assert [t.kind for t in tokenize_line(line, 1)] == [
        "WORD", "ATTRID", "PUNCT", "PUNCT", "STRING", "PUNCT", "STRING",
        "PUNCT", "PUNCT", "INT", "WORD", "WORD", "PUNCT", "PUNCT"]


@pytest.mark.parametrize("line, column, token", [
    ("  call \x01 oops", 8, "\x01"),
    ("ret ^void", 5, "^"),
    ("ret void ^", 10, "^"),
    ("a-b", 2, "-"),
    ('x "open', 3, '"'),
])
def test_bad_character_is_reported_at_its_column(line, column, token):
    with pytest.raises(ParseError) as exc:
        tokenize_line(line, 6)
    assert (exc.value.line, exc.value.column, exc.value.token) \
        == (6, column, token)


def test_bad_character_inside_a_module_names_its_line():
    with pytest.raises(ParseError) as exc:
        tokenize("ret void\n\n  %x = ^\n")
    assert (exc.value.line, exc.value.column, exc.value.token) \
        == (3, 8, "^")


def test_bad_character_after_a_comment_is_ignored():
    assert fields(tokenize_line("ret ; ^\x01", 1)) == [("WORD", "ret", 1, 1)]


# An independent statement of the grammar: skip whitespace, then try each
# kind in order at the current position.
_REFERENCE_KINDS = [
    ("COMMENT", r";.*"),
    ("LOCAL", r'%(?:[A-Za-z$._0-9]+|"[^"]*")'),
    ("GLOBAL", r'@(?:[A-Za-z$._0-9]+|"[^"]*")'),
    ("ATTRID", r"#\d+"),
    ("FLOAT", r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+"
              r"|0x[0-9A-Fa-f]{16}"),
    ("INT", r"-?\d+"),
    ("STRING", r'"[^"]*"'),
    ("WORD", r"[A-Za-z$._][A-Za-z$._0-9]*"),
    ("PUNCT", r"[(){}\[\],=:*]"),
]
_REFERENCE_RES = [(kind, re.compile(p)) for kind, p in _REFERENCE_KINDS]


def reference_tokens(text, line_no):
    out, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return out
        for kind, pattern in _REFERENCE_RES:
            m = pattern.match(text, pos)
            if m:
                break
        else:
            return ("error", line_no, pos + 1, text[pos])
        if kind == "COMMENT":
            return out
        out.append((kind, m.group(), line_no, pos + 1))
        pos = m.end()


def lexed(text, line_no):
    try:
        return fields(tokenize_line(text, line_no))
    except ParseError as exc:
        return ("error", exc.line, exc.column, exc.token)


@given(st.text(alphabet=' \t\xa0%@#;"-.xeE019aZ_$(){}[],=:*^\x01',
               max_size=40))
def test_lexer_agrees_with_the_reference_grammar(text):
    assert lexed(text, 5) == reference_tokens(text, 5)
