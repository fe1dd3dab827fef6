"""The ``node`` class helper behaves as the dataclasses it replaced.

Every expected ``repr`` below was printed by the dataclass version of its
class; error reasons such as ``unknown circuit op {op!r}`` embed them.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

from qirtk.circuit import Gate, GateKind, Measure, QuantumCircuit, Reset
from qirtk.intrinsics import lookup
from qirtk.ir import (DOUBLE, I1, I64, PTR, VOID, Alloca, BasicBlock,
                      BinOp, Br, Call, CallArg, CondBr, ConstFloat, ConstInt,
                      Ext, FuncDecl, FuncDef, GlobalRef, ICmp, IntToAddr,
                      Load, LocalRef, PhiNode, QirModule, Ret, Select,
                      StaticAddr, Store)
import qirtk
from qirtk import ir
from qirtk.node import lazy, node, replace
from qirtk.parser import parse_module
from qirtk.profile import Profile, ProfileReport, Violation

import genutil

REPRS = [
    (I64, "IntType(width=64)"),
    (DOUBLE, "DoubleType()"),
    (PTR, "PtrType()"),
    (VOID, "VoidType()"),
    (LocalRef("x"), "LocalRef(name='x')"),
    (ConstInt(64, -3), "ConstInt(width=64, value=-3)"),
    (ConstFloat(0.5), "ConstFloat(value=0.5)"),
    (StaticAddr(2), "StaticAddr(index=2)"),
    (GlobalRef("g"), "GlobalRef(name='g')"),
    (CallArg(PTR, StaticAddr(1)),
     "CallArg(ty=PtrType(), value=StaticAddr(index=1))"),
    (Call("__quantum__qis__h__body", (CallArg(PTR, StaticAddr(0)),)),
     "Call(callee='__quantum__qis__h__body', args=(CallArg(ty=PtrType(), "
     "value=StaticAddr(index=0)),), result=None, "
     "ret_type=VoidType())"),
    (Alloca("s"), "Alloca(result='s', slot_type=IntType(width=32))"),
    (Store(I64, ConstInt(64, 1), LocalRef("s")),
     "Store(value_type=IntType(width=64), value=ConstInt(width=64, "
     "value=1), slot=LocalRef(name='s'))"),
    (Load("v", I64, LocalRef("s")),
     "Load(result='v', ty=IntType(width=64), slot=LocalRef(name='s'))"),
    (BinOp("add", I64, LocalRef("a"), ConstInt(64, 1), "b"),
     "BinOp(op='add', ty=IntType(width=64), lhs=LocalRef(name='a'), "
     "rhs=ConstInt(width=64, value=1), result='b')"),
    (ICmp("slt", I64, LocalRef("a"), ConstInt(64, 4), "c"),
     "ICmp(pred='slt', ty=IntType(width=64), lhs=LocalRef(name='a'), "
     "rhs=ConstInt(width=64, value=4), result='c')"),
    (IntToAddr("q", I64, LocalRef("a")),
     "IntToAddr(result='q', source_type=IntType(width=64), "
     "source=LocalRef(name='a'))"),
    (Ext("zext", "w", LocalRef("c"), I1, I64),
     "Ext(op='zext', result='w', source=LocalRef(name='c'), "
     "from_type=IntType(width=1), to_type=IntType(width=64))"),
    (Select("r", LocalRef("c"), I64, ConstInt(64, 1), ConstInt(64, 0)),
     "Select(result='r', cond=LocalRef(name='c'), ty=IntType(width=64), "
     "if_true=ConstInt(width=64, value=1), if_false=ConstInt(width=64, "
     "value=0))"),
    (Br("loop"), "Br(label='loop')"),
    (CondBr(LocalRef("c"), "loop", "exit"),
     "CondBr(cond=LocalRef(name='c'), true_label='loop', "
     "false_label='exit')"),
    (Ret(), "Ret()"),
    (PhiNode("i", I64, ((ConstInt(64, 0), "entry"), (LocalRef("j"), "loop"))),
     "PhiNode(result='i', ty=IntType(width=64), incomings=((ConstInt("
     "width=64, value=0), 'entry'), (LocalRef(name='j'), 'loop')))"),
    (BasicBlock("entry", terminator=Ret()),
     "BasicBlock(label='entry', phis=(), instructions=(), "
     "terminator=Ret())"),
    (FuncDecl("__quantum__qis__mz__body", (PTR, PTR)),
     "FuncDecl(name='__quantum__qis__mz__body', param_types=(PtrType(), "
     "PtrType()), ret_type=VoidType())"),
    (FuncDef("main", (BasicBlock("entry", terminator=Ret()),), 0),
     "FuncDef(name='main', blocks=(BasicBlock(label='entry', phis=(), "
     "instructions=(), terminator=Ret()),), attr_group=0)"),
    (QirModule("m", (), (), {0: {"entry_point": ""}}),
     "QirModule(source_name='m', declarations=(), functions=(), "
     "attribute_groups={0: {'entry_point': ''}})"),
    (Gate(GateKind.RX, (0.5,), (1,)),
     "Gate(kind=<GateKind.RX: 'rx'>, params=(0.5,), qubits=(1,))"),
    (Measure(0, 1), "Measure(qubit=0, clbit=1)"),
    (Reset(2), "Reset(qubit=2)"),
    (QuantumCircuit(2, 1, [Gate(GateKind.CNOT, (), (0, 1))]),
     "QuantumCircuit(num_qubits=2, num_clbits=1, ops=(Gate(kind=<GateKind."
     "CNOT: 'cx'>, params=(), qubits=(0, 1)),))"),
    (Violation("main:entry:0", "dynamic qubit"),
     "Violation(location='main:entry:0', reason='dynamic qubit')"),
    (ProfileReport(Profile.BASE, (), ("w",)),
     "ProfileReport(profile=<Profile.BASE: 'base'>, violations=(), "
     "warnings=('w',))"),
]


@pytest.mark.parametrize("value, expected", REPRS,
                         ids=[type(v).__name__ for v, _ in REPRS])
def test_repr_is_the_dataclass_repr(value, expected):
    assert repr(value) == expected


def test_equality_needs_the_same_class():
    assert LocalRef("x") == LocalRef("x")
    assert LocalRef("x") != GlobalRef("x")
    assert GlobalRef("x") != LocalRef("x")
    assert DOUBLE != PTR
    assert ConstInt(64, 0) == ConstInt(64, 0)
    assert ConstInt(64, 0) != ConstInt(32, 0)
    assert Call("f", ()) != Call("f", (), "r")


FROZEN = [StaticAddr(1), I64, LocalRef("x"), Gate(GateKind.H, (), (0,)),
          Violation("l", "r"), lookup("__quantum__qis__h__body")]


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_assigning_to_a_frozen_node_raises(value):
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, 5)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 5


def test_equal_frozen_nodes_hash_equal_and_key_a_dict():
    table = {ConstInt(64, 3): "r3", Gate(GateKind.RX, (0.5,), (1,)): 1}
    assert table[ConstInt(64, 3)] == "r3"
    assert table[Gate(GateKind.RX, (0.5,), (1,))] == 1
    assert ConstInt(32, 3) not in table
    # the dataclass hash, so sets of nodes iterate in the same order
    assert hash(ConstInt(64, 3)) == hash((64, 3))
    assert hash(DOUBLE) == hash(())


# every node class of every qirtk module; a NamedTuple also has _fields,
# and refuses assignment as any tuple does
NODE_CLASSES = sorted(
    {value for info in pkgutil.iter_modules(qirtk.__path__)
     for value in vars(importlib.import_module(
         f"qirtk.{info.name}")).values()
     if isinstance(value, type) and hasattr(value, "_fields")
     and not issubclass(value, tuple)
     and value.__module__ == f"qirtk.{info.name}"},
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def test_the_node_classes_are_found():
    assert {"QuantumCircuit", "ExecOptions", "ExecutionResult", "ElemPtr",
            "QirModule", "Violation"} <= {c.__name__ for c in NODE_CLASSES}


@pytest.mark.parametrize("cls", NODE_CLASSES,
                         ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_every_node_class_refuses_assignment(cls):
    value = cls.__new__(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 5)


def test_replace_leaves_the_original_untouched():
    call = Call("f", (CallArg(PTR, StaticAddr(0)),), "r", I64)
    new = replace(call, result="s")
    assert new == Call("f", call.args, "s", I64)
    assert call == Call("f", (CallArg(PTR, StaticAddr(0)),), "r", I64)
    const = ConstInt(64, 4)
    assert replace(const, width=32) == ConstInt(32, 4)
    assert const.width == 64
    with pytest.raises(TypeError):
        replace(const, no_such_field=1)


def test_post_init_runs_last():
    with pytest.raises(ValueError):
        QuantumCircuit(1, 1, [Measure(0, 3)])


def test_arguments_by_position_and_keyword():
    assert Call("f", (), ret_type=I64) == Call("f", (), None, I64)
    with pytest.raises(TypeError):
        Call("f")
    with pytest.raises(TypeError):
        ConstInt(64, 1, 2)


def test_a_parsed_module_survives_deepcopy_and_pickle():
    module = parse_module(genutil.corpus_text("feedback.ll"))
    for clone in (copy.deepcopy(module),
                  pickle.loads(pickle.dumps(module))):
        assert clone == module
        assert clone is not module


def test_fields_follow_the_annotations():
    @node
    class Pair:
        """A doc string and a method survive."""

        left: int
        right: tuple = ()

        def total(self):
            return self.left + len(self.right)

    assert Pair.__slots__ == ("left", "right")
    assert Pair.__doc__ == "A doc string and a method survive."
    assert Pair(2, (1,)).total() == 3
    assert repr(Pair(1)) == (
        "test_fields_follow_the_annotations.<locals>.Pair(left=1, right=())")


# one instance of every node class in ``ir``
IR_NODES = {type(v): v for v, _ in REPRS if type(v).__module__ == ir.__name__}


def test_every_ir_node_class_has_an_instance_here():
    classes = {c for c in vars(ir).values()
               if isinstance(c, type) and c.__module__ == ir.__name__
               and hasattr(c, "_fields")}
    assert classes == set(IR_NODES)


@pytest.mark.parametrize("value", IR_NODES.values(),
                         ids=lambda v: type(v).__name__)
def test_no_ir_node_can_be_edited(value):
    names = type(value)._fields + ("not_a_field",)
    if isinstance(value, QirModule):
        names += ("entry", "profile_report")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_a_lazy_cache_is_not_a_field():
    text = genutil.corpus_text("bell_static.ll")
    warm, cold = parse_module(text), parse_module(text)
    assert warm.entry is warm.functions[0]
    assert warm.profile_report.profile is Profile.BASE
    assert QirModule._fields == ("source_name", "declarations", "functions",
                                 "attribute_groups")
    assert warm == cold and repr(warm) == repr(cold)
    # replace, copy and pickle build through __init__ and start cold; a
    # cold cache is read on first use and then kept
    for clone in (replace(warm), copy.deepcopy(warm),
                  pickle.loads(pickle.dumps(warm))):
        assert clone == warm
        with pytest.raises(AttributeError):
            QirModule._lazy_profile_report.__get__(clone)
        assert clone.profile_report == warm.profile_report
        assert clone.profile_report is clone.profile_report


def test_a_preset_lazy_reads_back_and_is_not_a_field():
    made = []

    @node
    class Box:
        items: tuple

        @lazy
        def size(self):
            made.append(self)
            return len(self.items)

    preset, cold = Box((1, 2)), Box((1, 2))
    Box.size.preset(preset, 5)
    assert preset.size == 5 and made == []
    assert cold.size == 2 and made == [cold]
    # eq, hash and repr read only the fields, cold or preset
    assert preset == cold and hash(preset) == hash(cold)
    assert repr(preset) == repr(cold)
    assert repr(preset).endswith("Box(items=(1, 2))")
    # replace and deepcopy build through __init__ and compute anew
    for clone in (replace(preset), copy.deepcopy(preset)):
        assert clone == preset
        assert clone.size == 2 and made[-1] is clone
    assert preset.size == 5


def test_frozen_construction_stores_through_the_slots():
    @node
    class Pair:
        left: int
        right: tuple = ()

        def __post_init__(self):
            # runs after every field is stored, and may not assign either
            with pytest.raises(AttributeError):
                self.left = 0

    pair = Pair(1, (2,))
    assert (pair.left, pair.right) == (1, (2,))
    assert replace(pair, right=(3,)) == Pair(1, (3,))
    assert hash(pair) == hash(Pair(1, (2,))) == hash((1, (2,)))
    clone = copy.deepcopy(pair)
    assert clone == pair and clone is not pair
    with pytest.raises(AttributeError):
        pair.right = ()
