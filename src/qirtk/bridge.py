"""Conversion between flat circuits and statically-addressed modules.

The circuit side indexes qubits and classical bits densely from zero;
the module side uses constant addresses, so the mapping is the identity
on indices: static qubit address N is circuit qubit N, static result
address N is classical bit N. Emitted modules record every classical
bit in ascending index order after the measurements, which fixes the
bitstring layout (bit 0 leftmost) used across the toolkit.
"""

from __future__ import annotations

from . import intrinsics
from .circuit import Gate, Measure, QuantumCircuit, Reset
from .errors import ConversionError
from .ir import (BasicBlock, Call, CallArg, ConstFloat, FuncDef, QirModule,
                 Ret, StaticAddr, DOUBLE, PTR, ENTRY_POINT_ATTR,
                 REQUIRED_QUBITS_ATTR, REQUIRED_RESULTS_ATTR, entry_calls)
from .profile import Profile, validate_profile


def circuit_from_base_qir(module: QirModule) -> QuantumCircuit:
    """Flatten a base-form module into a circuit.

    Qubit counts come from the larger of the highest address used and
    the module's required-count attribute, so declared-but-idle qubits
    survive the conversion.
    """
    report = validate_profile(module)
    if report.profile is not Profile.BASE:
        first = report.violations[0]
        raise ConversionError("only base-form modules convert to circuits "
                              f"({first.reason} at {first.location})")

    # a base report guarantees one block of known intrinsics, each with
    # its arity, static qubit and result addresses and constant angles
    ops: list = []
    max_qubit = -1
    max_clbit = -1
    for call in entry_calls(module):
        spec = intrinsics.lookup(call.callee)
        qubits: list[int] = []
        results: list[int] = []
        params: list[float] = []
        for kind, arg in zip(spec.arg_kinds, call.args):
            if kind == intrinsics.QUBIT_ARG:
                qubits.append(arg.value.index)
                max_qubit = max(max_qubit, arg.value.index)
            elif kind == intrinsics.RESULT_ARG:
                results.append(arg.value.index)
                max_clbit = max(max_clbit, arg.value.index)
            elif kind == intrinsics.ANGLE_ARG:
                params.append(arg.value.value)
        if spec.action == intrinsics.GATE:
            ops.append(Gate(spec.gate, tuple(params), tuple(qubits)))
        elif spec.action == intrinsics.MEASURE:
            ops.append(Measure(qubits[0], results[0]))
        elif spec.action == intrinsics.RESET:
            ops.append(Reset(qubits[0]))
        # recording is implicit on the circuit side

    num_qubits = max(max_qubit + 1,
                     module.required_count(REQUIRED_QUBITS_ATTR) or 0)
    num_clbits = max(max_clbit + 1,
                     module.required_count(REQUIRED_RESULTS_ATTR) or 0)
    return QuantumCircuit(num_qubits, num_clbits, ops)


def circuit_to_base_qir(circuit: QuantumCircuit,
                        name: str = "main") -> QirModule:
    """Emit a statically-addressed module for a circuit.

    One intrinsic call per operation, followed by one recording call
    per classical bit in ascending order; the required-count attributes
    carry the circuit's sizes so the conversion is lossless even for
    idle qubits.
    """
    instructions: list[Call] = []
    used: set[str] = set()

    def addr(index: int) -> CallArg:
        return CallArg(PTR, StaticAddr(index))

    for op in circuit.ops:
        if isinstance(op, Gate):
            callee = intrinsics.gate_intrinsic_name(op.kind)
            args = tuple([CallArg(DOUBLE, ConstFloat(p)) for p in op.params]
                         + [addr(q) for q in op.qubits])
        elif isinstance(op, Measure):
            callee = "__quantum__qis__mz__body"
            args = (addr(op.qubit), addr(op.clbit))
        else:
            callee = "__quantum__qis__reset__body"
            args = (addr(op.qubit),)
        used.add(callee)
        instructions.append(Call(callee, args))

    record = "__quantum__rt__result_record_output"
    for clbit in range(circuit.num_clbits):
        used.add(record)
        instructions.append(Call(record, (addr(clbit), addr(0))))

    declarations = tuple(intrinsics.declaration_for(n)
                         for n in intrinsics.intrinsic_table()
                         if n in used)
    fn = FuncDef(name, (BasicBlock("entry", (), tuple(instructions),
                                   Ret()),), attr_group=0)
    groups = {0: {ENTRY_POINT_ATTR: "",
                  REQUIRED_QUBITS_ATTR: str(circuit.num_qubits),
                  REQUIRED_RESULTS_ATTR: str(circuit.num_clbits)}}
    return QirModule("circuit", declarations, (fn,), groups)
