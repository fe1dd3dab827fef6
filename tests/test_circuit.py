"""Circuit container validation and gate metadata."""

import pytest

from qirtk import Gate, GateKind, Measure, QuantumCircuit, Reset


def test_gate_kind_arity_table():
    assert GateKind.H.num_qubits == 1
    assert GateKind.CNOT.num_qubits == 2
    assert GateKind.CCX.num_qubits == 3
    assert GateKind.H.num_params == 0
    assert GateKind.RZ.num_params == 1
    for kind in GateKind:
        assert kind.num_qubits in (1, 2, 3)
        assert kind.num_params in (0, 1)


def test_gate_kind_values_are_openqasm_spellings():
    assert GateKind.CNOT.value == "cx"
    assert GateKind.SDG.value == "sdg"
    assert GateKind.TDG.value == "tdg"
    assert GateKind.CCX.value == "ccx"
    assert GateKind.H.value == "h"


def test_valid_circuit_constructs():
    circuit = QuantumCircuit(2, 2, [
        Gate(GateKind.H, (), (0,)),
        Gate(GateKind.CNOT, (), (0, 1)),
        Measure(0, 0),
        Measure(1, 1),
    ])
    assert circuit.num_qubits == 2
    assert len(circuit.ops) == 4


def test_gate_with_wrong_qubit_count_is_rejected():
    with pytest.raises(ValueError):
        QuantumCircuit(2, 0, [Gate(GateKind.H, (), (0, 1))])


def test_gate_with_wrong_param_count_is_rejected():
    with pytest.raises(ValueError):
        QuantumCircuit(1, 0, [Gate(GateKind.RZ, (), (0,))])
    with pytest.raises(ValueError):
        QuantumCircuit(1, 0, [Gate(GateKind.H, (0.5,), (0,))])


def test_duplicate_gate_targets_are_rejected():
    with pytest.raises(ValueError):
        QuantumCircuit(2, 0, [Gate(GateKind.CNOT, (), (1, 1))])


def test_out_of_range_operands_are_rejected():
    with pytest.raises(ValueError):
        QuantumCircuit(1, 0, [Gate(GateKind.X, (), (1,))])
    with pytest.raises(ValueError):
        QuantumCircuit(1, 1, [Measure(0, 1)])
    with pytest.raises(ValueError):
        QuantumCircuit(1, 1, [Measure(1, 0)])
    with pytest.raises(ValueError):
        QuantumCircuit(1, 0, [Reset(2)])
    with pytest.raises(ValueError):
        QuantumCircuit(1, 0, [Gate(GateKind.X, (), (-1,))])


def test_negative_register_sizes_are_rejected():
    with pytest.raises(ValueError):
        QuantumCircuit(-1, 0, [])
    with pytest.raises(ValueError):
        QuantumCircuit(0, -2, [])


def test_empty_circuit_is_fine():
    circuit = QuantumCircuit(0, 0, [])
    assert circuit.ops == ()
