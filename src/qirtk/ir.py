"""In-memory form of the textual IR subset.

Nodes are ``node`` classes (see ``node.py``), frozen like every node:
instances compare structurally, which the round-trip and idempotence
tests rely on, and refuse assignment, so a pass can share any node of its
input with its output. Sequence fields (``args``, ``incomings``, ``phis``,
``instructions``, ``blocks``, ``functions``, ``declarations``,
``param_types``) are tuples; the parser collects lists while it reads a
block or function and freezes each when it closes. Equal call lines
read in one ``parse_module`` call share one ``Call``, so a block may hold
one instruction object many times. A module's ``attribute_groups``
stays a dict, which no pass edits in place; it makes a module
unhashable. Every module field is required. A module
finds its ``entry``, its ``ProfileReport`` and its ``unsupported``
verdict once, on first use, and keeps them beside its fields;
``unroll_and_fold`` presets the verdict of the module it builds.

SSA registers are immutable values; mutable program state lives in
alloca slots addressed through ``Store``/``Load``.

Integer semantics are two's complement at the declared width. The stored
canonical representative is the signed value for widths above one and the
plain bit for ``i1``, so constants print back exactly as parsed.
"""

from __future__ import annotations

import operator

from .node import lazy, node


# ---------------------------------------------------------------------------
# types


@node
class IntType:
    width: int

    def __str__(self) -> str:
        return f"i{self.width}"


@node
class DoubleType:
    def __str__(self) -> str:
        return "double"


@node
class PtrType:
    def __str__(self) -> str:
        return "ptr"


@node
class VoidType:
    def __str__(self) -> str:
        return "void"


I1 = IntType(1)
I32 = IntType(32)
I64 = IntType(64)
DOUBLE = DoubleType()
PTR = PtrType()
VOID = VoidType()

Type = IntType | DoubleType | PtrType | VoidType


# ---------------------------------------------------------------------------
# values


@node
class LocalRef:
    name: str


@node
class ConstInt:
    width: int
    value: int


@node
class ConstFloat:
    value: float


@node
class StaticAddr:
    """Constant address; index 0 prints as ``null``.

    The address does not say what it names: the intrinsic operand it is
    passed to (``intrinsics`` ``arg_kinds``) decides whether it is a qubit
    or a result.
    """

    index: int


@node
class GlobalRef:
    name: str


Value = LocalRef | ConstInt | ConstFloat | StaticAddr | GlobalRef


def make_int(width: int, value: int) -> ConstInt:
    return ConstInt(width, wrap_int(width, value))


def wrap_int(width: int, value: int) -> int:
    """Reduce to the canonical stored representative at ``width`` bits."""
    bits = value & ((1 << width) - 1)
    if width == 1:
        return bits
    if bits >= 1 << (width - 1):
        bits -= 1 << width
    return bits


def signed_int(width: int, stored: int) -> int:
    # i1 stores the raw bit; its signed reading is 0 or -1.
    if width == 1:
        return -stored
    return stored


def unsigned_int(width: int, stored: int) -> int:
    return stored & ((1 << width) - 1)


#: binary op -> its operation on unbounded ints, before wrapping
BINOP_FUNCS = {"add": operator.add, "sub": operator.sub,
               "mul": operator.mul, "and": operator.and_,
               "or": operator.or_, "xor": operator.xor}

#: icmp predicate -> its comparison; the ordered ones compare the signed
#: readings (``signed_int``)
ICMP_FUNCS = {"eq": operator.eq, "ne": operator.ne, "slt": operator.lt,
              "sle": operator.le, "sgt": operator.gt, "sge": operator.ge}


def eval_cast(op: str, value: int, from_width: int, to_width: int) -> int:
    if op == "zext":
        return wrap_int(to_width, unsigned_int(from_width, value))
    if op == "sext":
        return wrap_int(to_width, signed_int(from_width, value))
    if op == "trunc":
        return wrap_int(to_width, value)
    raise ValueError(f"unknown cast op {op!r}")


# ---------------------------------------------------------------------------
# instructions


@node
class CallArg:
    ty: Type
    value: Value


@node
class Call:
    callee: str
    args: tuple[CallArg, ...]
    result: str | None = None
    ret_type: Type = VOID


@node
class Alloca:
    result: str
    slot_type: Type = I32


@node
class Store:
    value_type: Type
    value: Value
    slot: Value


@node
class Load:
    result: str
    ty: Type
    slot: Value


BINOPS = ("add", "sub", "mul", "and", "or", "xor")


@node
class BinOp:
    op: str
    ty: IntType
    lhs: Value
    rhs: Value
    result: str


ICMP_PREDS = ("eq", "ne", "slt", "sle", "sgt", "sge")


@node
class ICmp:
    pred: str
    ty: IntType
    lhs: Value
    rhs: Value
    result: str


@node
class IntToAddr:
    """Dynamic integer-to-address cast (the ``inttoptr`` instruction)."""

    result: str
    source_type: IntType
    source: Value


EXT_OPS = ("zext", "sext", "trunc")


@node
class Ext:
    op: str
    result: str
    source: Value
    from_type: IntType
    to_type: IntType


@node
class Select:
    result: str
    cond: Value
    ty: Type
    if_true: Value
    if_false: Value


Instruction = Call | Alloca | Store | Load | BinOp | ICmp | IntToAddr | Ext | Select


# ---------------------------------------------------------------------------
# terminators, blocks, functions, modules


@node
class Br:
    label: str


@node
class CondBr:
    cond: Value
    true_label: str
    false_label: str


@node
class Ret:
    pass


Terminator = Br | CondBr | Ret


@node
class PhiNode:
    result: str
    ty: Type
    incomings: tuple[tuple[Value, str], ...]


@node
class BasicBlock:
    label: str
    phis: tuple[PhiNode, ...] = ()
    instructions: tuple[Instruction, ...] = ()
    terminator: Terminator | None = None


@node
class FuncDecl:
    name: str
    param_types: tuple[Type, ...]
    ret_type: Type = VOID


@node
class FuncDef:
    name: str
    blocks: tuple[BasicBlock, ...]
    attr_group: int | None = None


ENTRY_POINT_ATTR = "entry_point"
REQUIRED_QUBITS_ATTR = "required_num_qubits"
REQUIRED_RESULTS_ATTR = "required_num_results"


@node
class QirModule:
    source_name: str
    declarations: tuple[FuncDecl, ...]
    functions: tuple[FuncDef, ...]
    attribute_groups: dict[int, dict[str, str]]

    def function_attributes(self, fn: FuncDef) -> dict[str, str]:
        if fn.attr_group is None:
            return {}
        return self.attribute_groups.get(fn.attr_group, {})

    @lazy
    def entry(self) -> FuncDef:
        """The function executed per shot, found once per module.

        Either the unique function tagged ``entry_point`` or, failing that,
        the module's single definition. The parser guarantees one exists;
        hand-built modules that violate this raise ``ValueError``.
        """
        tagged = [f for f in self.functions
                  if ENTRY_POINT_ATTR in self.function_attributes(f)]
        if len(tagged) == 1:
            return tagged[0]
        if not tagged and len(self.functions) == 1:
            return self.functions[0]
        raise ValueError("module has no unambiguous entry function")

    @lazy
    def profile_report(self):
        """The module's ``ProfileReport``, classified once per module;
        ``profile.validate_profile`` returns it."""
        from . import profile  # profile imports this module
        return profile._classify(self)

    @lazy
    def unsupported(self) -> tuple:
        """The violations of ``profile_report`` when it is unsupported,
        else ``()``: the verdict the transforms gate on.
        ``unroll_and_fold`` presets it on the module it builds, which is
        then never classified for the gate."""
        from .profile import Profile
        report = self.profile_report
        return report.violations if report.profile is Profile.UNSUPPORTED \
            else ()

    @property
    def attributes(self) -> dict[str, str]:
        return dict(self.function_attributes(self.entry))

    def required_count(self, key: str) -> int | None:
        """The entry's ``key`` attribute if it is an integer >= 0, else
        None: a negative or non-numeric count is ignored."""
        try:
            count = int(self.attributes.get(key))
        except (TypeError, ValueError):
            return None
        return count if count >= 0 else None

    def register_size(self, key: str, highest: int) -> int:
        """A base register's size: the larger of its valid declared ``key``
        count and ``highest`` + 1, ``highest`` being its highest constant
        address or -1, so declared but idle qubits and results are kept."""
        return max(self.required_count(key) or 0, highest + 1)

    def defined_names(self) -> set[str]:
        return {f.name for f in self.functions}

    def declared_names(self) -> set[str]:
        return {d.name for d in self.declarations}


def entry_calls(module: QirModule):
    """Iterate over the calls of the entry function, in program order."""
    for block in module.entry.blocks:
        for instr in block.instructions:
            if isinstance(instr, Call):
                yield instr
