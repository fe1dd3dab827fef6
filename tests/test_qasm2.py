"""OpenQASM 2 import and export."""

import math
import random

import pytest

from qirtk import (Gate, GateKind, Measure, ParseError, QuantumCircuit,
                   Reset, export_openqasm2, import_openqasm2)
from qirtk.cli import main
from qirtk.qasm2 import MAX_ANGLE_DEPTH

import genutil


def test_import_bell_listing():
    circuit = import_openqasm2(genutil.corpus_text("bell.qasm"))
    assert circuit == QuantumCircuit(2, 2, [
        Gate(GateKind.H, (), (0,)),
        Gate(GateKind.CNOT, (), (0, 1)),
        Measure(0, 0),
        Measure(1, 1),
    ])


def test_export_bell_compacts_the_full_measure_tail():
    circuit = import_openqasm2(genutil.corpus_text("bell.qasm"))
    text = export_openqasm2(circuit)
    assert text == ('OPENQASM 2.0;\n'
                    'include "qelib1.inc";\n'
                    'qreg q[2];\n'
                    'creg c[2];\n'
                    'h q[0];\n'
                    'cx q[0], q[1];\n'
                    'measure q -> c;\n')


def test_partial_measures_are_written_element_wise():
    circuit = QuantumCircuit(2, 1, [Measure(1, 0)])
    text = export_openqasm2(circuit)
    assert "measure q[1] -> c[0];" in text
    assert "measure q -> c;" not in text


def test_export_without_clbits_omits_creg():
    text = export_openqasm2(QuantumCircuit(1, 0, [Gate(GateKind.X, (), (0,))]))
    assert "creg" not in text
    assert "qreg q[1];" in text


def test_whole_register_gate_broadcasts():
    circuit = import_openqasm2("OPENQASM 2.0;\nqreg q[3];\nh q;\n")
    assert circuit.ops == tuple(Gate(GateKind.H, (), (q,)) for q in range(3))


def test_two_register_broadcast_pairs_elementwise():
    circuit = import_openqasm2(
        "OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncx a, b;\n")
    assert circuit.ops == (Gate(GateKind.CNOT, (), (0, 2)),
                           Gate(GateKind.CNOT, (), (1, 3)))


def test_mixed_scalar_register_broadcast():
    circuit = import_openqasm2(
        "OPENQASM 2.0;\nqreg a[1];\nqreg b[3];\ncx a[0], b;\n")
    assert circuit.ops == tuple(Gate(GateKind.CNOT, (), (0, 1 + q))
                                for q in range(3))


def test_broadcast_length_mismatch_is_rejected():
    with pytest.raises(ParseError):
        import_openqasm2("OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\ncx a, b;\n")


def test_whole_register_measure_expands():
    circuit = import_openqasm2(
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q -> c;\n")
    assert circuit.ops == (Measure(0, 0), Measure(1, 1))


def test_measure_register_size_mismatch_is_rejected():
    with pytest.raises(ParseError):
        import_openqasm2(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q -> c;\n")


def test_reset_broadcasts():
    circuit = import_openqasm2("OPENQASM 2.0;\nqreg q[2];\nreset q;\n")
    assert circuit.ops == (Reset(0), Reset(1))


def test_parameter_expressions():
    circuit = import_openqasm2(
        "OPENQASM 2.0;\nqreg q[1];\n"
        "rz(pi/2) q[0];\nrx(-pi) q[0];\nry(2*pi+1) q[0];\nrz((pi)) q[0];\n")
    values = [op.params[0] for op in circuit.ops]
    assert values[0] == pytest.approx(math.pi / 2)
    assert values[1] == pytest.approx(-math.pi)
    assert values[2] == pytest.approx(2 * math.pi + 1)
    assert values[3] == pytest.approx(math.pi)


def test_division_by_zero_in_parameter_is_rejected():
    with pytest.raises(ParseError):
        import_openqasm2("OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];\n")


@pytest.mark.parametrize("gate, column, token", [
    ("rx(1/0) q[0];", 6, "0"),
    ("rx(1/0", 6, "0"),
    ("rx(pi/(1-1)) q[0];", 7, "("),
])
def test_division_by_zero_is_reported_at_the_divisor(gate, column, token):
    with pytest.raises(ParseError, match="division by zero") as info:
        import_openqasm2(f"OPENQASM 2.0;\nqreg q[1];\n{gate}")
    error = info.value
    assert (error.line, error.column, error.token) == (3, column, token)


def _rz(angle: str) -> str:
    return f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n"


@pytest.mark.parametrize("depth", [5000, MAX_ANGLE_DEPTH + 1])
@pytest.mark.parametrize("shape", ["parens", "signs"])
def test_deeply_nested_angles_are_a_parse_error(shape, depth):
    angle = ("(" * depth + "1" + ")" * depth if shape == "parens"
             else "-" * depth + "1")
    with pytest.raises(ParseError, match="nested deeper than"):
        import_openqasm2(_rz(angle))


def test_angles_nested_to_the_limit_still_parse():
    depth = MAX_ANGLE_DEPTH
    (op,) = import_openqasm2(_rz("(" * depth + "1" + ")" * depth)).ops
    assert op.params == (1.0,)
    (op,) = import_openqasm2(_rz("-" * depth + "1")).ops
    assert op.params == ((-1.0) ** depth,)


def test_deep_angle_exits_two_from_the_cli(tmp_path, capsys):
    path = tmp_path / "deep.qasm"
    path.write_text(_rz("(" * 5000 + "1" + ")" * 5000))
    assert main(["transpile", str(path), "--to", "qir-base"]) == 2
    assert "nested deeper than" in capsys.readouterr().err


def test_header_is_optional_but_other_versions_are_rejected():
    circuit = import_openqasm2("qreg q[1];\nh q[0];\n")
    assert circuit.num_qubits == 1
    with pytest.raises(ParseError):
        import_openqasm2("OPENQASM 3.0;\nqreg q[1];\n")


def test_version_statement_must_come_first():
    with pytest.raises(ParseError):
        import_openqasm2("qreg q[1];\nOPENQASM 2.0;\n")


def test_barrier_is_dropped_with_a_warning():
    with pytest.warns(UserWarning):
        circuit = import_openqasm2(
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nbarrier q;\nh q[1];\n")
    assert [op.qubits for op in circuit.ops] == [(0,), (1,)]


def test_comments_are_ignored():
    circuit = import_openqasm2(
        "// leading note\nOPENQASM 2.0;\nqreg q[1]; // trailing\nx q[0];\n")
    assert circuit.ops == (Gate(GateKind.X, (), (0,)),)


def test_unknown_gate_is_rejected():
    with pytest.raises(ParseError):
        import_openqasm2("OPENQASM 2.0;\nqreg q[1];\nfrob q[0];\n")


def test_undeclared_register_is_rejected():
    with pytest.raises(ParseError):
        import_openqasm2("OPENQASM 2.0;\nh q[0];\n")


def test_duplicate_register_name_is_rejected():
    with pytest.raises(ParseError):
        import_openqasm2("OPENQASM 2.0;\nqreg q[1];\nqreg q[2];\n")


def test_index_out_of_range_is_rejected():
    with pytest.raises(ParseError):
        import_openqasm2("OPENQASM 2.0;\nqreg q[2];\nh q[2];\n")


def test_missing_semicolon_is_rejected():
    with pytest.raises(ParseError):
        import_openqasm2("OPENQASM 2.0;\nqreg q[1]\nh q[0];\n")


@pytest.mark.parametrize("seed", range(20))
def test_random_circuits_round_trip(seed):
    circuit = genutil.random_circuit(random.Random(seed), measured="subset",
                                     allow_resets=True)
    assert import_openqasm2(export_openqasm2(circuit)) == circuit


@pytest.mark.parametrize("text, line, column", [
    ("OPENQASM 2.0;\nqreg q[" + "1" * 5000 + "];\n", 2, 8),
    ("OPENQASM 2.0;\nqreg q[2];\nh q[" + "1" * 5000 + "];\n", 3, 5),
], ids=["register-size", "index"])
def test_integer_past_the_int_string_limit_is_a_parse_error(text, line,
                                                           column):
    with pytest.raises(ParseError) as exc:
        import_openqasm2(text)
    err = exc.value
    assert (err.message, err.line, err.column, err.token) == \
        ("integer literal too long", line, column, "1" * 5000)


NON_FINITE = [
    ("nan.ll", "define void @main() #0 {\nentry:\n"
     "  call void @__quantum__qis__rx__body(double 0x7FF8000000000000, "
     "ptr null)\n  ret void\n}\n\n"
     "declare void @__quantum__qis__rx__body(double, ptr)\n\n"
     'attributes #0 = { "entry_point" }\n',
     "line 3, column 46: floating constant is not finite near "
     "'0x7FF8000000000000'"),
    ("inf.qasm", "OPENQASM 2.0;\nqreg q[1];\nrx(1e999) q[0];\n",
     "line 3, column 1: rx angle is not finite near 'rx'"),
]


@pytest.mark.parametrize("name, text, error", NON_FINITE,
                         ids=[name for name, _, _ in NON_FINITE])
def test_a_non_finite_angle_is_not_exported(tmp_path, capsys, name, text,
                                            error):
    # both readers refuse an inf or nan constant, so neither target is
    # reached; a hand-built circuit still meets the exporter's refusal
    path = tmp_path / name
    path.write_text(text)
    for to in ("qasm2", "qir-base"):
        assert main(["transpile", str(path), "--to", to]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"parse error: {error}\n"
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            export_openqasm2(QuantumCircuit(1, 0, [
                Gate(GateKind.RX, (angle,), (0,))]))
