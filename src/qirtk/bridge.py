"""Conversion between flat circuits and statically-addressed modules,
and the OpenQASM 2 exporter, kept here so that converting a module to
OpenQASM 2 never loads the importer (``qasm2``).

The circuit side indexes qubits and classical bits densely from zero;
the module side uses constant addresses, so the mapping is the identity
on indices: static qubit address N is circuit qubit N, static result
address N is classical bit N. Emitted modules record every classical
bit in ascending index order after the measurements, which fixes the
bitstring layout (bit 0 leftmost) used across the toolkit.
"""

from __future__ import annotations

from math import isfinite

from . import intrinsics
from .circuit import CircuitOp, Gate, Measure, QuantumCircuit, Reset
from .errors import ConversionError
from .ir import (BasicBlock, Call, CallArg, ConstFloat, FuncDef, QirModule,
                 Ret, StaticAddr, DOUBLE, PTR, ENTRY_POINT_ATTR,
                 REQUIRED_QUBITS_ATTR, REQUIRED_RESULTS_ATTR, entry_calls)
from .profile import Profile, validate_profile


def circuit_from_base_qir(module: QirModule) -> QuantumCircuit:
    """Flatten a base-form module into a circuit.

    Register sizes come from ``QirModule.register_size``, so declared
    but idle qubits survive the conversion. Calls with one callee and one
    arguments tuple (the parser shares one between equal texts) share one op.
    """
    report = validate_profile(module)
    if report.profile is not Profile.BASE:
        first = report.violations[0]
        raise ConversionError("only base-form modules convert to circuits "
                              f"({first.reason} at {first.location})")

    # a base report proves every call a known intrinsic with its arity,
    # addresses below the limit, finite constant angles and distinct gate
    # qubits, so nothing is checked again. Ops are shared by the identity
    # of the arguments, never their value: 0.0 == -0.0
    ops: list = []
    shared: dict[tuple[str, int], object] = {}
    max_qubit = max_clbit = -1
    for call in entry_calls(module):
        key = (call.callee, id(call.args))
        op = shared.get(key)
        if op is None:
            spec, args = intrinsics.lookup(call.callee), call.args
            qubits = tuple([args[i].value.index for i in spec.qubit_at])
            results = [args[i].value.index for i in spec.result_at]
            max_qubit = max((max_qubit, *qubits))
            max_clbit = max((max_clbit, *results))
            if spec.action == intrinsics.GATE:
                op = Gate(spec.gate, tuple([args[i].value.value
                                            for i in spec.angle_at]), qubits)
            elif spec.action == intrinsics.MEASURE:
                op = Measure(qubits[0], results[0])
            elif spec.action == intrinsics.RESET:
                op = Reset(qubits[0])
            else:
                continue  # recording is implicit on the circuit side
            shared[key] = op
        ops.append(op)

    return QuantumCircuit._proven(
        module.register_size(REQUIRED_QUBITS_ATTR, max_qubit),
        module.register_size(REQUIRED_RESULTS_ATTR, max_clbit), tuple(ops))


def circuit_to_base_qir(circuit: QuantumCircuit) -> QirModule:
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
    fn = FuncDef("main", (BasicBlock("entry", (), tuple(instructions),
                                     Ret()),), attr_group=0)
    groups = {0: {ENTRY_POINT_ATTR: "",
                  REQUIRED_QUBITS_ATTR: str(circuit.num_qubits),
                  REQUIRED_RESULTS_ATTR: str(circuit.num_clbits)}}
    return QirModule("circuit", declarations, (fn,), groups)


def export_openqasm2(circuit: QuantumCircuit) -> str:
    """Render a circuit as OpenQASM 2 source.

    Importing the output reproduces the circuit exactly. A trailing
    block measuring qubit i into bit i for every index compacts to the
    register-wide ``measure q -> c;`` spelling. An op object that occurs
    more than once is rendered once.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    if circuit.num_qubits:
        lines.append(f"qreg q[{circuit.num_qubits}];")
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")

    ops = circuit.ops
    compact_measure = False
    n = circuit.num_qubits
    if (n and n == circuit.num_clbits and len(ops) >= n
            and ops[-n:] == tuple(Measure(i, i) for i in range(n))):
        compact_measure = True
        ops = ops[:-n]

    rendered: dict[int, str] = {}  # by identity: rz(0.0) == rz(-0.0)
    for op in ops:
        line = rendered.get(id(op))
        if line is None:
            line = rendered[id(op)] = _line(op)
        lines.append(line)
    if compact_measure:
        lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


def _line(op: CircuitOp) -> str:
    if isinstance(op, Measure):
        return f"measure q[{op.qubit}] -> c[{op.clbit}];"
    if isinstance(op, Reset):
        return f"reset q[{op.qubit}];"
    params = ""
    if op.params:
        if not all(map(isfinite, op.params)):  # the importer refuses them
            raise ValueError("cannot print a non-finite float constant")
        params = f"({', '.join(repr(float(p)) for p in op.params)})"
    targets = ", ".join(f"q[{q}]" for q in op.qubits)
    return f"{op.kind.value}{params} {targets};"
