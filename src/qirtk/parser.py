"""Recursive-descent parser for the textual IR subset.

The grammar is a whitelist: ``declare``/``define``/``attributes`` at module
level; ``call``, ``alloca``, ``load``, ``store``, ``br``, ``icmp``, the six
integer binary ops, ``phi``, ``select``, ``inttoptr``, ``zext``/``sext``/
``trunc``, and ``ret void`` inside functions. Anything else is a hard
``ParseError`` pointing at the offending line, and so is a floating
constant that is not finite (``1e999``, a NaN bit pattern). Unknown
module-level metadata (``target ...`` and ``!...`` lines) is skipped.

Normalizations applied while parsing:
  * legacy typed pointers (``%Qubit*``, ``%Result*``) become opaque ``ptr``
  * ``null`` and ``inttoptr (i64 N to ptr)`` constants become StaticAddr
    with just their index; whether one names a qubit or a result is left
    to the intrinsic table, read at the operand it is passed to
  * ``writeonly``/``readonly`` annotations and ``align``/``nsw``/``nuw``
    flags are accepted and dropped

Call lines of the base shape (``call void @f(...)`` with single spaces and
only ``ptr null``, ``ptr inttoptr (i64 N to ptr)`` and ``double`` constant
arguments) skip the lexer: inside an open block the ``Call`` is built from
one regex match, anywhere else the line is lexed and parsed as usual, so
every ``ParseError`` is the token parser's. ``tests/test_parser_fastpath.py``
checks this against the token parser. Each distinct line is matched once,
and within one parse equal call lines (the same text) share one frozen
``Call`` and equal addresses one operand, so a block may hold one
instruction object many times; ``double 0.0`` and ``double -0.0`` are
different texts and never meet.

The parser collects each block's phis and instructions in lists and
freezes the block when the next label or the closing brace is read; a
function is built once the whole module is read and inline attributes
are folded into groups, so no node is edited after it is built.
"""

from __future__ import annotations

import re
import struct
from math import isfinite

from .errors import ParseError, check_input_size
from .ir import (BINOPS, DOUBLE, EXT_OPS, I1, I64, ICMP_PREDS, PTR, VOID,
                 Alloca, BasicBlock, BinOp, Br, Call, CallArg, CondBr,
                 ConstFloat, DoubleType, Ext, FuncDecl, FuncDef, GlobalRef,
                 ICmp, Instruction, IntToAddr, IntType, Load, LocalRef,
                 PhiNode, PtrType, QirModule, Ret, Select, StaticAddr, Store,
                 Type, Value, make_int)
from .lexer import FLOAT, NAME, Token, bare_name, tokenize, tokenize_line

_TYPE_WORDS: dict[str, Type] = {
    "void": VOID,
    "i1": I1,
    "i32": IntType(32),
    "i64": I64,
    "double": DOUBLE,
    "ptr": PTR,
}

_ARG_ANNOTATIONS = {"writeonly", "readonly"}
_BINOP_FLAGS = {"nsw", "nuw"}

#: legacy typed pointer spellings, read as ``ptr``
_LEGACY_PTRS = {"Qubit", "Result"}

# a base-shape call argument: groups are the address (empty for ``null``)
# and the double; the line's arguments are one group that findall splits
_ARG = rf"ptr (?:null|inttoptr \(i64 (\d+) to ptr\))|double ({FLOAT})"
_CALL_ARG = re.compile(_ARG)
_CALL_LINE = re.compile(
    rf"\s*call void @({NAME})\(((?:{_ARG})(?:, (?:{_ARG}))*)?\)")


class _Cursor:
    """Token cursor over a single source line."""

    def __init__(self, tokens: list[Token], line_no: int):
        self.tokens = tokens
        self.line = line_no
        self.pos = 0

    def peek(self) -> Token | None:
        pos = self.pos
        return self.tokens[pos] if pos < len(self.tokens) else None

    def peek2(self) -> Token | None:
        if self.pos + 1 >= len(self.tokens):
            return None
        return self.tokens[self.pos + 1]

    def next(self) -> Token:
        pos = self.pos
        if pos >= len(self.tokens):
            raise ParseError("unexpected end of line", line=self.line)
        self.pos = pos + 1
        return self.tokens[pos]

    def expect(self, kind: str | None = None, text: str | None = None) -> Token:
        tok = self.next()
        if kind is not None and tok.kind != kind:
            self.fail(f"expected {text or kind}", tok)
        if text is not None and tok.text != text:
            self.fail(f"expected {text!r}", tok)
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            self.fail("trailing tokens", tok)

    def int_value(self, tok: Token) -> int:
        """An INT or ATTRID token's number, checked against the int-string
        limit."""
        try:
            return int(tok.text.lstrip("#"))
        except ValueError:
            self.fail("integer literal too long", tok)

    def fail(self, message: str, token: Token | None = None) -> None:
        token = token or (self.tokens[-1] if self.tokens else None)
        col = token.column if token else None
        txt = token.text if token else None
        raise ParseError(message, line=self.line, column=col, token=txt)


class _ModuleParser:
    def __init__(self, text: str):
        lines = text.splitlines()
        # each distinct line's call-line match, made once however often
        # the line repeats
        self.matches: dict[str, re.Match | None] = {
            line: _CALL_LINE.fullmatch(line) for line in dict.fromkeys(lines)}
        # each nonempty line as its tokens or, for a call line of the base
        # shape, its text; matched lines reach the lexer blank, so lex
        # errors still come first
        self.lines: list[list[Token] | str | None] = [None] * len(lines)
        for i, match in enumerate(map(self.matches.__getitem__, lines)):
            if match is not None:
                self.lines[i] = lines[i]
                lines[i] = ""
            elif lines[i].lstrip().startswith(("!", "target ")):
                lines[i] = ""  # module metadata the grammar does not model
        for tokens in tokenize("\n".join(lines)):
            self.lines[tokens[0].line - 1] = tokens
        self.source_name = ""
        self.declarations: list[FuncDecl] = []
        # (name, blocks, attribute group) of each closed function; its
        # FuncDef is built once inline attributes are folded into groups
        self.functions: list[tuple[str, tuple[BasicBlock, ...],
                                   int | None]] = []
        self.attribute_groups: dict[int, dict[str, str]] = {}
        # (function number, string attributes) written on a define line,
        # folded into groups once the whole module is read
        self.inline_attrs: list[tuple[int, dict[str, str]]] = []
        self.define_lines: list[int] = []
        # (group, line) of each ``#N`` written on a declare
        self.declare_groups: list[tuple[int, int]] = []
        self.call_sites: list[tuple[str, int]] = []
        # text of a base-shape call line -> its Call, built at the line's
        # first use in an open block, so equal lines share one Call within
        # this parse; and an address's digits -> its one CallArg
        self.calls: dict[str, Call | None] = {}
        self.addresses: dict[str, CallArg] = {}
        # the open function: its name, group and closed blocks, reset in
        # _begin_function
        self.fn: str | None = None
        self.group: int | None = None
        self.blocks: list[BasicBlock] = []
        # the open block: label, phis, instructions and terminator; the
        # block is frozen when the next one starts or the function ends
        self.label: str | None = None
        self.phis: list[PhiNode] = []
        self.body: list[Instruction] = []
        self.term: Br | CondBr | Ret | None = None
        self.defined: set[str] = set()
        self.uses: dict[str, int] = {}
        self.label_refs: list[tuple[str, int]] = []
        self.phi_lines: list[tuple[str, PhiNode, int]] = []
        self.last_line = 1

    # ------------------------------------------------------------------
    # top level

    def parse(self) -> QirModule:
        calls = self.calls
        for line, item in enumerate(self.lines, start=1):
            if item is None:
                continue
            self.last_line = line
            if type(item) is str:  # a base-shape call line
                if self.label is not None and self.term is None:
                    call = calls.get(item)
                    if call is None:
                        call = calls[item] = self._base_call(item, line)
                    if call is not None:
                        self.body.append(call)
                        continue
                item = tokenize_line(item, line)
            cur = _Cursor(item, line)
            if self.fn is None:
                self._top_level(cur)
            else:
                self._function_line(cur)
        if self.fn is not None:
            raise ParseError("unterminated function body", line=self.last_line)
        if not self.functions:
            raise ParseError("module defines no function", line=self.last_line)
        self._check_group_refs()
        functions = tuple(
            FuncDef(name, blocks, group) for (name, blocks, _), group
            in zip(self.functions, self._fold_inline_attrs()))
        module = QirModule(self.source_name, tuple(self.declarations),
                           functions, self.attribute_groups)
        self._check_module(module)
        return module

    def _top_level(self, cur: _Cursor) -> None:
        tok = cur.peek()
        assert tok is not None
        if tok.kind != "WORD":
            cur.fail("expected a module-level statement", tok)
        if tok.text == "source_filename":
            cur.next()
            cur.expect("PUNCT", "=")
            name = cur.expect("STRING")
            self.source_name = name.text[1:-1]
            cur.expect_end()
        elif tok.text == "declare":
            self._parse_declare(cur)
        elif tok.text == "define":
            self._parse_define(cur)
        elif tok.text == "attributes":
            self._parse_attr_group(cur)
        else:
            cur.fail("unsupported module-level statement", tok)

    def _parse_declare(self, cur: _Cursor) -> None:
        cur.next()
        ret_type = self._parse_type(cur)
        name = bare_name(cur.expect("GLOBAL").text)
        params = self._typed_list(cur, lambda ty: ty)
        if cur.peek() is not None and cur.peek().kind == "ATTRID":
            self.declare_groups.append((cur.int_value(cur.next()),
                                        cur.line))
        cur.expect_end()
        self.declarations.append(FuncDecl(name, params, ret_type))

    def _parse_define(self, cur: _Cursor) -> None:
        line = cur.line
        cur.next()
        ret = cur.expect("WORD")
        if ret.text != "void":
            cur.fail("only void function definitions are supported", ret)
        name = bare_name(cur.expect("GLOBAL").text)
        cur.expect("PUNCT", "(")
        cur.expect("PUNCT", ")")
        attr_group: int | None = None
        inline_attrs: dict[str, str] = {}
        while not _peek_punct(cur, "{"):
            tok = cur.next()
            if tok.kind == "ATTRID":
                attr_group = cur.int_value(tok)
            elif tok.kind == "STRING":
                inline_attrs[tok.text[1:-1]] = _attr_value(cur)
            else:
                cur.fail("expected attribute or '{'", tok)
        cur.expect("PUNCT", "{")
        cur.expect_end()
        if inline_attrs:
            self.inline_attrs.append((len(self.functions), inline_attrs))
        self._begin_function(name, attr_group, line)

    def _fold_inline_attrs(self) -> list[int | None]:
        """Fold each define's inline string attributes into a group, and
        return each function's group.

        The group the define names takes them when no other define uses
        it; otherwise the define gets a fresh group holding the named
        group's attributes and its own. Fresh ids are picked after every
        ``attributes`` line has been read, so they collide with none.
        """
        groups = [group for _, _, group in self.functions]
        users: dict[int, int] = {}
        for group in groups:
            if group is not None:
                users[group] = users.get(group, 0) + 1
        for number, inline in self.inline_attrs:
            group = groups[number]
            if group is not None and users[group] == 1:
                self.attribute_groups[group].update(inline)
                continue
            attrs = dict(self.attribute_groups.get(group, {}))
            attrs.update(inline)
            gid = 0
            while gid in self.attribute_groups:
                gid += 1
            self.attribute_groups[gid] = attrs
            groups[number] = gid
        return groups

    def _parse_attr_group(self, cur: _Cursor) -> None:
        cur.next()
        gid_tok = cur.expect("ATTRID")
        gid = cur.int_value(gid_tok)
        if gid in self.attribute_groups:
            cur.fail(f"duplicate attribute group #{gid}", gid_tok)
        cur.expect("PUNCT", "=")
        cur.expect("PUNCT", "{")
        attrs: dict[str, str] = {}
        while not _peek_punct(cur, "}"):
            key = cur.expect("STRING").text[1:-1]
            attrs[key] = _attr_value(cur)
        cur.expect("PUNCT", "}")
        cur.expect_end()
        self.attribute_groups[gid] = attrs

    # ------------------------------------------------------------------
    # function bodies

    def _begin_function(self, name: str, attr_group: int | None,
                        line: int) -> None:
        self.fn, self.group, self.blocks = name, attr_group, []
        self.label = None
        self.defined = set()
        self.uses = {}
        self.label_refs = []
        self.phi_lines = []
        self.define_lines.append(line)

    def _function_line(self, cur: _Cursor) -> None:
        tok = cur.peek()
        assert tok is not None and self.fn is not None
        if tok.kind == "PUNCT" and tok.text == "}":
            cur.next()
            cur.expect_end()
            self._end_function(cur)
            return
        if (tok.kind == "WORD" and cur.peek2() is not None
                and cur.peek2().kind == "PUNCT" and cur.peek2().text == ":"):
            cur.next()
            cur.next()
            cur.expect_end()
            self._start_block(tok.text, cur)
            return
        if self.label is None:
            # instructions before any label open an implicit entry block
            self._start_block("entry", cur)
        if self.term is not None:
            cur.fail("instruction after block terminator", tok)
        self._parse_instruction(cur)

    def _start_block(self, label: str, cur: _Cursor) -> None:
        assert self.fn is not None
        if self.label is not None:
            self._close_block(cur)
        if any(b.label == label for b in self.blocks):
            cur.fail(f"duplicate block label {label!r}")
        self.label, self.phis, self.body, self.term = label, [], [], None

    def _close_block(self, cur: _Cursor) -> None:
        if self.term is None:
            cur.fail(f"block {self.label!r} has no terminator")
        self.blocks.append(BasicBlock(self.label, tuple(self.phis),
                                      tuple(self.body), self.term))

    def _end_function(self, cur: _Cursor) -> None:
        assert self.fn is not None
        if self.label is None:
            cur.fail("function body has no blocks")
        self._close_block(cur)
        labels = {b.label for b in self.blocks}
        for label, line in self.label_refs:
            if label not in labels:
                raise ParseError(f"branch to unknown label {label!r}",
                                 line=line, token=label)
        undefined = [u for u in self.uses if u not in self.defined]
        if undefined:
            name = min(undefined, key=lambda u: self.uses[u])
            raise ParseError(f"use of undefined value %{name}",
                             line=self.uses[name], token=f"%{name}")
        self._check_phis()
        self.functions.append((self.fn, tuple(self.blocks), self.group))
        self.fn = self.label = None

    def _check_phis(self) -> None:
        preds: dict[str, set[str]] = {b.label: set() for b in self.blocks}
        for b in self.blocks:
            term = b.terminator
            if isinstance(term, Br):
                preds[term.label].add(b.label)
            elif isinstance(term, CondBr):
                preds[term.true_label].add(b.label)
                preds[term.false_label].add(b.label)
        for block, phi, line in self.phi_lines:
            incoming = [label for _, label in phi.incomings]
            if len(set(incoming)) != len(incoming):
                raise ParseError("phi lists a predecessor twice", line=line)
            if set(incoming) != preds[block]:
                raise ParseError(
                    f"phi incoming labels {sorted(incoming)} do not match "
                    f"predecessors {sorted(preds[block])}", line=line)

    # ------------------------------------------------------------------
    # instructions

    def _parse_instruction(self, cur: _Cursor) -> None:
        tok = cur.peek()
        assert tok is not None
        if tok.kind == "WORD":
            if tok.text == "call":
                cur.next()
                self._finish_call(cur, result=None)
            elif tok.text == "store":
                self._parse_store(cur)
            elif tok.text == "br":
                self._parse_br(cur)
            elif tok.text == "ret":
                cur.next()
                word = cur.expect("WORD")
                if word.text != "void":
                    cur.fail("only 'ret void' is supported", word)
                cur.expect_end()
                self.term = Ret()
            else:
                cur.fail("unsupported instruction", tok)
            return
        if tok.kind == "LOCAL":
            cur.next()
            result = bare_name(tok.text)
            cur.expect("PUNCT", "=")
            op = cur.expect("WORD")
            self._define(result, tok)
            if op.text == "call":
                self._finish_call(cur, result=result)
            elif op.text == "alloca":
                self._parse_alloca(cur, result)
            elif op.text == "load":
                self._parse_load(cur, result)
            elif op.text in BINOPS:
                self._parse_binop(cur, op.text, result)
            elif op.text == "icmp":
                self._parse_icmp(cur, result)
            elif op.text == "inttoptr":
                self._parse_inttoptr(cur, result)
            elif op.text in EXT_OPS:
                self._parse_ext(cur, op.text, result)
            elif op.text == "select":
                self._parse_select(cur, result)
            elif op.text == "phi":
                self._parse_phi(cur, result, op)
            else:
                cur.fail("unsupported instruction", op)
            return
        cur.fail("unsupported statement", tok)

    def _define(self, name: str, tok: Token) -> None:
        if name in self.defined:
            raise ParseError(f"%{name} assigned more than once",
                             line=tok.line, column=tok.column,
                             token=tok.text)
        self.defined.add(name)

    def _finish_call(self, cur: _Cursor, result: str | None) -> None:
        ret_type = self._parse_type(cur)
        callee_tok = cur.expect("GLOBAL")
        callee = bare_name(callee_tok.text)
        args = self._typed_list(
            cur, lambda ty: CallArg(ty, self._parse_value(cur, ty)))
        cur.expect_end()
        self.call_sites.append((callee, callee_tok.line))
        self.body.append(Call(callee, args, result, ret_type))

    def _typed_list(self, cur: _Cursor, read) -> tuple:
        """A parenthesized ``(ty [annotations] ..., ...)`` list: each item
        is ``read(ty)``, which reads what follows the annotations."""
        cur.expect("PUNCT", "(")
        items = []
        if not _peek_punct(cur, ")"):
            while True:
                ty = self._parse_type(cur)
                while _peek_word_in(cur, _ARG_ANNOTATIONS):
                    cur.next()
                items.append(read(ty))
                if _peek_punct(cur, ","):
                    cur.next()
                    continue
                break
        cur.expect("PUNCT", ")")
        return tuple(items)

    def _parse_alloca(self, cur: _Cursor, result: str) -> None:
        ty = self._parse_type(cur)
        if ty == VOID:
            cur.fail("alloca of void")
        self._skip_align(cur)
        cur.expect_end()
        self.body.append(Alloca(result, ty))

    def _parse_store(self, cur: _Cursor) -> None:
        cur.next()
        ty = self._parse_type(cur)
        value = self._parse_value(cur, ty)
        slot = self._slot(cur, "store destination")
        self.body.append(Store(ty, value, slot))

    def _parse_load(self, cur: _Cursor, result: str) -> None:
        ty = self._parse_type(cur)
        if ty == VOID:
            cur.fail("load of void")
        self.body.append(Load(result, ty, self._slot(cur, "load source")))

    def _slot(self, cur: _Cursor, noun: str) -> Value:
        """The ``, ptr slot[, align N]`` tail of a load or store."""
        cur.expect("PUNCT", ",")
        slot_ty = self._parse_type(cur)
        if not isinstance(slot_ty, PtrType):
            cur.fail(f"{noun} must be a pointer")
        slot = self._parse_value(cur, slot_ty)
        self._skip_align(cur)
        cur.expect_end()
        return slot

    def _skip_align(self, cur: _Cursor) -> None:
        if _peek_punct(cur, ","):
            save = cur.pos
            cur.next()
            if _peek_word_in(cur, {"align"}):
                cur.next()
                cur.expect("INT")
            else:
                cur.pos = save
                cur.fail("trailing tokens")

    def _parse_binop(self, cur: _Cursor, op: str, result: str) -> None:
        while _peek_word_in(cur, _BINOP_FLAGS):
            cur.next()
        ty = self._parse_int_type(cur)
        lhs, rhs = self._operand_pair(cur, ty)
        self.body.append(BinOp(op, ty, lhs, rhs, result))

    def _parse_icmp(self, cur: _Cursor, result: str) -> None:
        pred = cur.expect("WORD")
        if pred.text not in ICMP_PREDS:
            cur.fail("unsupported icmp predicate", pred)
        ty = self._parse_int_type(cur)
        lhs, rhs = self._operand_pair(cur, ty)
        self.body.append(ICmp(pred.text, ty, lhs, rhs, result))

    def _operand_pair(self, cur: _Cursor, ty: IntType) -> tuple[Value, Value]:
        """The ``lhs, rhs`` tail of a binop or icmp."""
        lhs = self._parse_value(cur, ty)
        cur.expect("PUNCT", ",")
        rhs = self._parse_value(cur, ty)
        cur.expect_end()
        return lhs, rhs

    def _parse_inttoptr(self, cur: _Cursor, result: str) -> None:
        ty = self._parse_int_type(cur)
        source = self._parse_value(cur, ty)
        cur.expect("WORD", "to")
        to_ty = self._parse_type(cur)
        if not isinstance(to_ty, PtrType):
            cur.fail("inttoptr must cast to a pointer")
        cur.expect_end()
        self.body.append(IntToAddr(result, ty, source))

    def _parse_ext(self, cur: _Cursor, op: str, result: str) -> None:
        from_ty = self._parse_int_type(cur)
        source = self._parse_value(cur, from_ty)
        cur.expect("WORD", "to")
        to_ty = self._parse_int_type(cur)
        if op == "trunc":
            if to_ty.width >= from_ty.width:
                cur.fail("trunc must narrow the width")
        elif to_ty.width <= from_ty.width:
            cur.fail(f"{op} must widen the width")
        cur.expect_end()
        self.body.append(Ext(op, result, source, from_ty, to_ty))

    def _parse_select(self, cur: _Cursor, result: str) -> None:
        cond_ty = self._parse_int_type(cur)
        if cond_ty.width != 1:
            cur.fail("select condition must be i1")
        cond = self._parse_value(cur, cond_ty)
        cur.expect("PUNCT", ",")
        ty = self._parse_type(cur)
        if ty == VOID:
            cur.fail("select of void")
        if_true = self._parse_value(cur, ty)
        cur.expect("PUNCT", ",")
        ty2 = self._parse_type(cur)
        if ty2 != ty:
            cur.fail("select arms must share one type")
        if_false = self._parse_value(cur, ty2)
        cur.expect_end()
        self.body.append(Select(result, cond, ty, if_true, if_false))

    def _parse_phi(self, cur: _Cursor, result: str, op_tok: Token) -> None:
        if self.body:
            cur.fail("phi must precede ordinary instructions", op_tok)
        ty = self._parse_type(cur)
        if ty == VOID:
            cur.fail("phi of void")
        incomings: list[tuple[Value, str]] = []
        while True:
            cur.expect("PUNCT", "[")
            value = self._parse_value(cur, ty)
            cur.expect("PUNCT", ",")
            label = self._parse_label_ref(cur)
            cur.expect("PUNCT", "]")
            incomings.append((value, label))
            if _peek_punct(cur, ","):
                cur.next()
                continue
            break
        cur.expect_end()
        phi = PhiNode(result, ty, tuple(incomings))
        self.phis.append(phi)
        self.phi_lines.append((self.label, phi, op_tok.line))

    def _parse_br(self, cur: _Cursor) -> None:
        cur.next()
        tok = cur.peek()
        if tok is not None and tok.kind == "WORD" and tok.text == "label":
            cur.next()
            label = self._parse_label_ref(cur, bare=True)
            cur.expect_end()
            self.term = Br(label)
            return
        ty = self._parse_int_type(cur)
        if ty.width != 1:
            cur.fail("conditional branch condition must be i1")
        cond = self._parse_value(cur, ty)
        cur.expect("PUNCT", ",")
        cur.expect("WORD", "label")
        true_label = self._parse_label_ref(cur, bare=True)
        cur.expect("PUNCT", ",")
        cur.expect("WORD", "label")
        false_label = self._parse_label_ref(cur, bare=True)
        cur.expect_end()
        self.term = CondBr(cond, true_label, false_label)

    def _parse_label_ref(self, cur: _Cursor, bare: bool = False) -> str:
        tok = cur.next()
        if tok.kind == "LOCAL":
            label = bare_name(tok.text)
        elif tok.kind == "WORD" and bare:
            # tolerate labels whose % sigil was lost in transcription
            label = tok.text
        else:
            cur.fail("expected a label reference", tok)
        self.label_refs.append((label, tok.line))
        return label

    # ------------------------------------------------------------------
    # types and values

    def _parse_type(self, cur: _Cursor) -> Type:
        tok = cur.next()
        if tok.kind == "WORD":
            ty = _TYPE_WORDS.get(tok.text)
            if ty is None:
                cur.fail(f"unknown type {tok.text!r}", tok)
            return ty
        if tok.kind == "LOCAL":
            if bare_name(tok.text) in _LEGACY_PTRS:
                cur.expect("PUNCT", "*")
                return PTR
        cur.fail("expected a type", tok)
        raise AssertionError  # unreachable

    def _parse_int_type(self, cur: _Cursor) -> IntType:
        ty = self._parse_type(cur)
        if not isinstance(ty, IntType):
            cur.fail("expected an integer type")
        assert isinstance(ty, IntType)
        return ty

    def _parse_value(self, cur: _Cursor, ty: Type):
        tok = cur.next()
        if tok.kind == "LOCAL":
            name = bare_name(tok.text)
            self.uses.setdefault(name, tok.line)
            return LocalRef(name)
        if isinstance(ty, IntType):
            if tok.kind == "INT":
                return make_int(ty.width, cur.int_value(tok))
            cur.fail("expected an integer constant or register", tok)
        if isinstance(ty, DoubleType):
            if tok.kind == "FLOAT":
                try:
                    return ConstFloat(_parse_float(tok.text))
                except ValueError:
                    cur.fail("floating constant is not finite", tok)
            cur.fail("expected a floating constant or register", tok)
        if isinstance(ty, PtrType):
            if tok.kind == "WORD" and tok.text == "null":
                return StaticAddr(0)
            if tok.kind == "WORD" and tok.text == "inttoptr":
                return self._parse_addr_const(cur)
            if tok.kind == "GLOBAL":
                return GlobalRef(bare_name(tok.text))
            cur.fail("expected a pointer value", tok)
        cur.fail(f"cannot read a value of type {ty}", tok)
        raise AssertionError  # unreachable

    def _parse_addr_const(self, cur: _Cursor) -> StaticAddr:
        cur.expect("PUNCT", "(")
        ty = self._parse_int_type(cur)
        if ty.width != 64:
            cur.fail("address constants use i64")
        index_tok = cur.expect("INT")
        index = cur.int_value(index_tok)
        if index < 0:
            cur.fail("static addresses must be non-negative", index_tok)
        cur.expect("WORD", "to")
        to_ty = self._parse_type(cur)
        if not isinstance(to_ty, PtrType):
            cur.fail("address constants cast to a pointer")
        cur.expect("PUNCT", ")")
        return StaticAddr(index)

    def _base_call(self, text: str, line: int) -> Call | None:
        """The Call of a base-shape call line, recorded as a call site;
        None for an address past Python's int-string limit or a double
        that is not finite, which the token parser then reports."""
        match = self.matches[text]
        args = []
        try:
            for index, double in _CALL_ARG.findall(match[2] or ""):
                if double:
                    args.append(CallArg(DOUBLE,
                                        ConstFloat(_parse_float(double))))
                    continue
                arg = self.addresses.get(index)
                if arg is None:
                    arg = self.addresses[index] = CallArg(
                        PTR, StaticAddr(int(index) if index else 0))
                args.append(arg)
        except ValueError:
            return None
        self.call_sites.append((match[1], line))
        return Call(match[1], tuple(args), None, VOID)

    # ------------------------------------------------------------------
    # whole-module checks

    def _check_group_refs(self) -> None:
        refs = [(group, line)
                for (_, _, group), line in zip(self.functions,
                                               self.define_lines)]
        for group, line in sorted(refs + self.declare_groups,
                                  key=lambda ref: ref[1]):
            if group is not None and group not in self.attribute_groups:
                raise ParseError(
                    f"attribute group #{group} is never defined",
                    line=line, token=f"#{group}")

    def _check_module(self, module: QirModule) -> None:
        known = module.declared_names() | module.defined_names()
        for callee, line in self.call_sites:
            if callee not in known:
                raise ParseError(
                    f"call to undeclared symbol @{callee}", line=line,
                    token=f"@{callee}")
        try:
            module.entry
        except ValueError:
            raise ParseError(
                "cannot identify the entry point: tag exactly one function "
                "with the entry_point attribute",
                line=self.define_lines[-1]) from None


def _parse_float(text: str) -> float:
    """A FLOAT token's value; ValueError when it is not finite."""
    if text.startswith("0x"):
        # IEEE-754 bit pattern spelling of a double
        value = struct.unpack(">d", bytes.fromhex(text[2:]))[0]
    else:
        value = float(text)
    if not isfinite(value):
        raise ValueError(f"floating constant {text} is not finite")
    return value


def _attr_value(cur: _Cursor) -> str:
    """A string attribute's optional ``="value"``; ``""`` without one."""
    if _peek_punct(cur, "="):
        cur.next()
        return cur.expect("STRING").text[1:-1]
    return ""


def _peek_punct(cur: _Cursor, text: str) -> bool:
    tok = cur.peek()
    return tok is not None and tok.kind == "PUNCT" and tok.text == text


def _peek_word_in(cur: _Cursor, words) -> bool:
    tok = cur.peek()
    return tok is not None and tok.kind == "WORD" and tok.text in words


def parse_module(text: str) -> QirModule:
    """Parse textual IR into a QirModule; raises ParseError on bad input,
    and on text longer than ``errors.MAX_INPUT_CHARS``."""
    check_input_size(text)
    return _ModuleParser(text).parse()
