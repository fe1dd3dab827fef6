"""Canonical text emission for parsed modules.

The printer emits the normalized spelling only: opaque ``ptr`` types,
``null`` for static address 0 and ``inttoptr (i64 N to ptr)`` otherwise,
and no parameter annotations. Reparsing printed text reproduces the module
structurally: every ``%`` and ``@`` name is spelled through
``lexer.spell_name``, bare when the lexer reads it bare and quoted
otherwise.
"""

from __future__ import annotations

from .ir import (Alloca, BasicBlock, BinOp, Br, Call, CondBr, ConstFloat,
                 ConstInt, Ext, FuncDecl, FuncDef, GlobalRef, ICmp,
                 Instruction, IntToAddr, Load, LocalRef, PhiNode, QirModule,
                 Ret, Select, StaticAddr, Store, Terminator, Type, Value)
from .lexer import spell_name


def _format_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("cannot print a non-finite float constant")
    text = repr(value)
    return text


def format_value(value: Value) -> str:
    if isinstance(value, LocalRef):
        return f"%{spell_name(value.name)}"
    if isinstance(value, ConstInt):
        return str(value.value)
    if isinstance(value, ConstFloat):
        return _format_float(value.value)
    if isinstance(value, StaticAddr):
        if value.index == 0:
            return "null"
        return f"inttoptr (i64 {value.index} to ptr)"
    if isinstance(value, GlobalRef):
        return f"@{spell_name(value.name)}"
    raise TypeError(f"unknown value {value!r}")


def _typed(ty: Type, value: Value) -> str:
    return f"{ty} {format_value(value)}"


def format_instruction(instr: Instruction) -> str:
    if isinstance(instr, Store):
        return (f"store {_typed(instr.value_type, instr.value)}, "
                f"ptr {format_value(instr.slot)}")
    if isinstance(instr, Call):
        args = ", ".join(_typed(a.ty, a.value) for a in instr.args)
        text = f"call {instr.ret_type} @{spell_name(instr.callee)}({args})"
        if instr.result is None:
            return text
    elif isinstance(instr, Alloca):
        text = f"alloca {instr.slot_type}"
    elif isinstance(instr, Load):
        text = f"load {instr.ty}, ptr {format_value(instr.slot)}"
    elif isinstance(instr, BinOp):
        text = (f"{instr.op} {instr.ty} "
               f"{format_value(instr.lhs)}, {format_value(instr.rhs)}")
    elif isinstance(instr, ICmp):
        text = (f"icmp {instr.pred} {instr.ty} "
               f"{format_value(instr.lhs)}, {format_value(instr.rhs)}")
    elif isinstance(instr, IntToAddr):
        text = (f"inttoptr {instr.source_type} "
               f"{format_value(instr.source)} to ptr")
    elif isinstance(instr, Ext):
        text = (f"{instr.op} {instr.from_type} "
               f"{format_value(instr.source)} to {instr.to_type}")
    elif isinstance(instr, Select):
        text = (f"select i1 {format_value(instr.cond)}, "
               f"{_typed(instr.ty, instr.if_true)}, "
               f"{_typed(instr.ty, instr.if_false)}")
    else:
        raise TypeError(f"unknown instruction {instr!r}")
    return f"%{spell_name(instr.result)} = {text}"


def _format_phi(phi: PhiNode) -> str:
    incomings = ", ".join(f"[ {format_value(v)}, %{spell_name(label)} ]"
                          for v, label in phi.incomings)
    return f"%{spell_name(phi.result)} = phi {phi.ty} {incomings}"


def _format_terminator(term: Terminator) -> str:
    if isinstance(term, Br):
        return f"br label %{spell_name(term.label)}"
    if isinstance(term, CondBr):
        return (f"br i1 {format_value(term.cond)}, "
                f"label %{spell_name(term.true_label)}, "
                f"label %{spell_name(term.false_label)}")
    if isinstance(term, Ret):
        return "ret void"
    raise TypeError(f"unknown terminator {term!r}")


def _format_block(block: BasicBlock, lines: list[str]) -> None:
    lines.append(f"{block.label}:")
    for phi in block.phis:
        lines.append(f"  {_format_phi(phi)}")
    for instr in block.instructions:
        lines.append(f"  {format_instruction(instr)}")
    if block.terminator is None:
        raise ValueError(f"block {block.label!r} has no terminator")
    lines.append(f"  {_format_terminator(block.terminator)}")


def _format_declaration(decl: FuncDecl) -> str:
    params = ", ".join(str(t) for t in decl.param_types)
    return f"declare {decl.ret_type} @{spell_name(decl.name)}({params})"


def _format_function(fn: FuncDef, lines: list[str]) -> None:
    suffix = f" #{fn.attr_group}" if fn.attr_group is not None else ""
    lines.append(f"define void @{spell_name(fn.name)}(){suffix} {{")
    for block in fn.blocks:
        _format_block(block, lines)
    lines.append("}")


def _format_attr_group(gid: int, attrs: dict[str, str]) -> str:
    items = []
    for key, value in attrs.items():
        if value == "":
            items.append(f'"{key}"')
        else:
            items.append(f'"{key}"="{value}"')
    body = " ".join(items)
    return f"attributes #{gid} = {{ {body} }}"


def print_module(module: QirModule) -> str:
    """Render a module back to its canonical textual form."""
    lines: list[str] = []
    if module.source_name:
        lines.append(f'source_filename = "{module.source_name}"')
        lines.append("")
    for decl in module.declarations:
        lines.append(_format_declaration(decl))
    if module.declarations:
        lines.append("")
    for fn in module.functions:
        _format_function(fn, lines)
        lines.append("")
    for gid in sorted(module.attribute_groups):
        lines.append(_format_attr_group(gid, module.attribute_groups[gid]))
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"
