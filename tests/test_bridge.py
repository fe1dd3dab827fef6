"""Conversion between circuits and base-profile modules."""

import random

import pytest

from qirtk import (ConversionError, Gate, GateKind, Measure, Profile,
                   QuantumCircuit, Reset, circuit_from_base_qir,
                   circuit_to_base_qir, parse_module, print_module,
                   validate_profile)
from qirtk.ir import (DOUBLE, I1, I64, PTR, BasicBlock, BinOp, Br, Call,
                      CallArg, ConstInt, FuncDecl, FuncDef, LocalRef,
                      QirModule, Ret, StaticAddr)

import genutil


BELL = QuantumCircuit(2, 2, [
    Gate(GateKind.H, (), (0,)),
    Gate(GateKind.CNOT, (), (0, 1)),
    Measure(0, 0),
    Measure(1, 1),
])


def test_static_bell_module_converts_to_the_bell_circuit():
    module = parse_module(genutil.corpus_text("bell_static.ll"))
    assert circuit_from_base_qir(module) == BELL


def _entry(*blocks, declarations=()):
    return QirModule("m", list(declarations),
                     [FuncDef("main", list(blocks), 0)],
                     {0: {"entry_point": ""}})


def _block(label, *instructions, terminator=None):
    return BasicBlock(label, [], list(instructions), terminator or Ret())


_H = "__quantum__qis__h__body"
_Q0 = CallArg(PTR, StaticAddr(0))

NON_BASE = {
    "bell_dynamic": parse_module(genutil.corpus_text("bell_dynamic.ll")),
    "local_qubit": _entry(_block(
        "entry", Call(_H, [CallArg(PTR, LocalRef("q"))]))),
    "int_angle": _entry(_block(
        "entry", Call("__quantum__qis__rx__body",
                      [CallArg(DOUBLE, ConstInt(64, 1)), _Q0]))),
    "classical": _entry(_block(
        "entry", BinOp("add", I64, ConstInt(64, 1), ConstInt(64, 2), "s"),
        Call(_H, [_Q0]))),
    "second_block": _entry(
        _block("entry", Call(_H, [_Q0]), terminator=Br("next")),
        _block("next", Call(_H, [_Q0]))),
    "non_intrinsic": _entry(_block("entry", Call("f", [_Q0])),
                            declarations=[FuncDecl("f", [PTR])]),
    "readback": _entry(_block(
        "entry", Call("__quantum__rt__read_result", [_Q0], "r", I1))),
}


@pytest.mark.parametrize("name", NON_BASE)
def test_non_base_module_is_refused(name):
    module = NON_BASE[name]
    report = validate_profile(module)
    assert report.profile is not Profile.BASE
    first = report.violations[0]
    with pytest.raises(ConversionError) as info:
        circuit_from_base_qir(module)
    assert f"({first.reason} at {first.location})" in str(info.value)


def test_emitted_module_validates_as_base():
    module = circuit_to_base_qir(BELL)
    assert validate_profile(module).profile is Profile.BASE


def test_emitted_module_records_every_clbit_in_ascending_order():
    text = print_module(circuit_to_base_qir(BELL))
    first = text.index("result_record_output(ptr null")
    second = text.index("result_record_output(ptr inttoptr (i64 1 to ptr)")
    assert first < second


def test_emitted_module_carries_register_sizes_as_attributes():
    module = circuit_to_base_qir(QuantumCircuit(3, 1, [Measure(2, 0)]))
    assert module.required_count("required_num_qubits") == 3
    assert module.required_count("required_num_results") == 1
    assert "entry_point" in module.attributes


def test_emitted_module_declares_only_what_it_calls():
    module = circuit_to_base_qir(BELL)
    names = {d.name for d in module.declarations}
    assert names == {"__quantum__qis__h__body",
                     "__quantum__qis__cnot__body",
                     "__quantum__qis__mz__body",
                     "__quantum__rt__result_record_output"}


def test_gate_only_circuit_emits_no_measures_or_records():
    module = circuit_to_base_qir(
        QuantumCircuit(1, 0, [Gate(GateKind.H, (), (0,))]))
    text = print_module(module)
    assert "mz" not in text
    assert "record" not in text
    assert circuit_from_base_qir(module) == QuantumCircuit(
        1, 0, [Gate(GateKind.H, (), (0,))])


def test_resets_pass_through_both_directions():
    circuit = QuantumCircuit(1, 1, [Gate(GateKind.X, (), (0,)), Reset(0),
                                    Measure(0, 0)])
    module = circuit_to_base_qir(circuit)
    assert "reset" in print_module(module)
    assert circuit_from_base_qir(module) == circuit


def test_register_sizes_survive_even_with_idle_tails():
    # qubit 2 and clbit 1 exist but are never touched by an operation
    circuit = QuantumCircuit(3, 2, [Gate(GateKind.X, (), (0,)),
                                    Measure(0, 0)])
    assert circuit_from_base_qir(circuit_to_base_qir(circuit)) == circuit


def test_rotation_parameters_survive_exactly():
    circuit = QuantumCircuit(1, 0, [
        Gate(GateKind.RZ, (0.1234567890123456789,), (0,))])
    out = circuit_from_base_qir(parse_module(print_module(
        circuit_to_base_qir(circuit))))
    assert out.ops[0].params == circuit.ops[0].params


@pytest.mark.parametrize("seed", range(20))
def test_random_circuits_round_trip_through_modules(seed):
    circuit = genutil.random_circuit(random.Random(seed), measured="subset",
                                     allow_resets=True)
    module = parse_module(print_module(circuit_to_base_qir(circuit)))
    assert circuit_from_base_qir(module) == circuit
