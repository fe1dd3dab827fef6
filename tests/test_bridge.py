"""Conversion between circuits and base-profile modules."""

import importlib.util
import random
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qirtk import (ConversionError, Gate, GateKind, Measure, ParseError,
                   Profile, QirError, QuantumCircuit, Reset,
                   circuit_from_base_qir, circuit_to_base_qir,
                   export_openqasm2, import_openqasm2, intrinsics,
                   lower_to_base, parse_module, print_module,
                   validate_profile)
from qirtk.ir import (DOUBLE, I1, I64, PTR, BasicBlock, BinOp, Br, Call,
                      CallArg, ConstFloat, ConstInt, FuncDecl, FuncDef,
                      LocalRef, QirModule, Ret, StaticAddr, entry_calls)

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


# ---------------------------------------------------------------------------
# the bridge trusts a base report: its circuit is the checked one


def _checked_circuit(module: QirModule) -> QuantumCircuit:
    """A base module's circuit built the unshared, checked way: one new op
    per call, read by walking each call's operand kinds, and the circuit
    through ``QuantumCircuit``'s own checks."""
    ops, max_qubit, max_clbit = [], -1, -1
    for call in entry_calls(module):
        spec = intrinsics.lookup(call.callee)
        operands = {intrinsics.QUBIT_ARG: [], intrinsics.RESULT_ARG: [],
                    intrinsics.ANGLE_ARG: []}
        for kind, arg in zip(spec.arg_kinds, call.args):
            if kind in (intrinsics.QUBIT_ARG, intrinsics.RESULT_ARG):
                operands[kind].append(arg.value.index)
            elif kind == intrinsics.ANGLE_ARG:
                operands[kind].append(arg.value.value)
        qubits = operands[intrinsics.QUBIT_ARG]
        results = operands[intrinsics.RESULT_ARG]
        max_qubit = max([max_qubit, *qubits])
        max_clbit = max([max_clbit, *results])
        if spec.action == intrinsics.GATE:
            ops.append(Gate(spec.gate, tuple(operands[intrinsics.ANGLE_ARG]),
                            tuple(qubits)))
        elif spec.action == intrinsics.MEASURE:
            ops.append(Measure(qubits[0], results[0]))
        elif spec.action == intrinsics.RESET:
            ops.append(Reset(qubits[0]))
    return QuantumCircuit(
        max(max_qubit + 1, module.required_count("required_num_qubits") or 0),
        max(max_clbit + 1, module.required_count("required_num_results") or 0),
        ops)


def _assert_trusted_is_checked(module: QirModule) -> None:
    trusted = circuit_from_base_qir(module)
    checked = _checked_circuit(module)
    assert trusted == checked
    assert type(trusted.ops) is tuple
    # the checked circuit's ops are all distinct objects, so this also
    # compares the exporter's shared lines with lines rendered one by one
    assert export_openqasm2(trusted) == export_openqasm2(checked)


def _script(name: str):
    path = genutil.ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _digest_base_modules() -> list[QirModule]:
    """Every base module among the reading and lowering digests' inputs:
    the ``.ll`` inputs that parse and validate as base, the module of
    every ``.qasm`` input that imports, and, read back from its printed
    text, every module that lowering makes of an input that is not a
    mutation."""
    texts = {(suffix, text)
             for _, suffix, text in _script("check_reading").inputs()}
    lowering = _script("check_lowering").inputs()
    texts |= {(".ll", text) for _, text in lowering}
    for name, text in lowering:
        if not name.startswith("mutation"):
            try:
                texts.add((".ll", print_module(lower_to_base(
                    parse_module(text)))))
            except QirError:
                pass
    modules = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # barrier statements warn
        for suffix, text in sorted(texts):
            try:
                if suffix == ".qasm":
                    modules.append(circuit_to_base_qir(import_openqasm2(text)))
                    continue
                module = parse_module(text)
            except ParseError:
                continue
            if validate_profile(module).profile is Profile.BASE:
                modules.append(module)
    return modules


def test_the_trusted_circuit_is_the_checked_one_on_every_digest_input(
        monkeypatch):
    # loading the digest scripts sets both of these
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    modules = _digest_base_modules()
    assert len(modules) > 450
    for module in modules:
        _assert_trusted_is_checked(module)


def test_the_imported_circuit_is_the_checked_one_on_every_digest_input(
        monkeypatch):
    # the importer builds its circuit without QuantumCircuit's checks
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    imported = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # barrier statements warn
        for _, suffix, text in _script("check_reading").inputs():
            if suffix != ".qasm":
                continue
            try:
                circuit = import_openqasm2(text)
            except ParseError:
                continue
            assert QuantumCircuit(circuit.num_qubits, circuit.num_clbits,
                                  circuit.ops) == circuit
            imported += 1
    assert imported > 40


@settings(max_examples=100)
@given(st.integers(0, 2**32))
def test_the_trusted_circuit_is_the_checked_one_on_random_circuits(seed):
    circuit = genutil.random_circuit(random.Random(seed), max_gates=40,
                                     measured="subset", allow_resets=True)
    module = parse_module(print_module(circuit_to_base_qir(circuit)))
    _assert_trusted_is_checked(module)
    assert circuit_from_base_qir(module) == circuit


_SIGNED_ZEROS = """\
declare void @__quantum__qis__rz__body(double, ptr)
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
define void @main() #0 {
entry:
  call void @__quantum__qis__rz__body(double 0.0, ptr null)
  call void @__quantum__qis__rz__body(double -0.0, ptr null)
  call void @__quantum__qis__rz__body(double 0.0, ptr null)
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr null)
  call void @__quantum__qis__rz__body(double -0.0, ptr null)
  call void @__quantum__qis__h__body(ptr null)
  ret void
}
attributes #0 = { "entry_point" }
"""


def test_shared_ops_keep_the_sign_of_zero_cold_and_warm():
    # 0.0 == -0.0 and they hash alike: only an identity key tells apart
    # the calls the parser shares between equal lines
    module = parse_module(_SIGNED_ZEROS)
    expected = export_openqasm2(_checked_circuit(module))
    assert [line.split()[0] for line in expected.splitlines()[3:]] == [
        "rz(0.0)", "rz(-0.0)", "rz(0.0)", "h", "x", "rz(-0.0)", "h"]
    for _ in range(2):  # a second conversion starts from empty memos
        circuit = circuit_from_base_qir(module)
        assert export_openqasm2(circuit) == expected
        assert export_openqasm2(circuit) == expected


def test_calls_of_different_callees_sharing_one_args_tuple_stay_apart():
    args = (_Q0,)
    angle = (CallArg(DOUBLE, ConstFloat(-0.0)), _Q0)
    module = _entry(_block("entry", *[
        Call(callee, operands) for callee, operands in [
            (_H, args), ("__quantum__qis__x__body", args), (_H, args),
            ("__quantum__qis__rz__body", angle),
            ("__quantum__qis__rx__body", angle),
            ("__quantum__qis__reset__body", args),
            ("__quantum__qis__mz__body", (_Q0, _Q0)),
            ("__quantum__rt__result_record_output", args + args)]]))
    for _ in range(2):
        _assert_trusted_is_checked(module)
    assert export_openqasm2(circuit_from_base_qir(module)).splitlines()[4:] \
        == ["h q[0];", "x q[0];", "h q[0];", "rz(-0.0) q[0];",
            "rx(-0.0) q[0];", "reset q[0];", "measure q -> c;"]
