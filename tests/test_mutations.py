"""Mutated programs: whatever the input, only toolkit errors escape, and
every command gives it one verdict.

A ``.ll`` program is a corpus file with a few lines deleted, duplicated or
truncated, or with two tokens of a line swapped. A ``.qasm`` program is
``corpus/bell.qasm`` or an exported random circuit after a few token
edits, some of which write numeric extremes; the verdict property also
reads random circuits with one angle or index replaced, and unmutated
ones. Each goes through reading, profile validation, lowering or the
bridge, interpretation under small qubit and step limits, and the
command line. Every failure must be a
``QirError`` subclass, and every command must exit with 0, 1, 2 or 3.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qirtk import (ExecOptions, Profile, QirError, circuit_from_base_qir,
                   circuit_to_base_qir, export_openqasm2, import_openqasm2,
                   interpret, lower_to_base, parse_module, print_module,
                   validate_profile)
from qirtk.ir import REQUIRED_QUBITS_ATTR, REQUIRED_RESULTS_ATTR
from qirtk.cli import main

import genutil

_LIMITS = ExecOptions(max_qubits=3, step_limit=60)
_RUN = ["run", "--shots", "2", "--max-qubits", "3", "--step-limit", "60"]

# a base program whose required qubit count is negative, which every
# reader ignores
NEG_LL = (
    "define void @main() #0 {\nentry:\n"
    "  call void @__quantum__qis__h__body(ptr null)\n"
    "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
    "  call void @__quantum__rt__result_record_output(ptr null, ptr null)\n"
    "  ret void\n}\n\n"
    "declare void @__quantum__qis__h__body(ptr)\n"
    "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
    "declare void @__quantum__rt__result_record_output(ptr, ptr)\n\n"
    'attributes #0 = { "entry_point" "required_num_qubits"="-5" }\n')


def _api(text: str) -> None:
    try:
        module = parse_module(text)
        validate_profile(module)
    except QirError:
        return
    for step in (lambda: lower_to_base(module, 64),
                 lambda: interpret(module, shots=2, seed=1, options=_LIMITS)):
        try:
            step()
        except QirError:
            pass


def _cli(path, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150)
@given(genutil.mutated())
@example(NEG_LL)
def test_only_toolkit_errors_escape_the_api(text):
    _api(text)


@settings(max_examples=60)
@given(genutil.mutated())
def test_the_command_line_keeps_its_exit_codes(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mutated") / "program.ll"
    path.write_text(text, encoding="utf-8")
    for argv in (["validate"], ["transpile", "--to", "qir-base"],
                 ["transpile", "--to", "qasm2"], _RUN):
        assert _cli(path, argv)[0] in (0, 1, 2, 3)


@settings(max_examples=150)
@given(genutil.mutated_qasm())
def test_only_toolkit_errors_escape_the_qasm_api(text):
    try:
        module = circuit_to_base_qir(import_openqasm2(text))
        validate_profile(module)
    except QirError:
        return
    for step in (lambda: export_openqasm2(circuit_from_base_qir(module)),
                 lambda: interpret(module, shots=2, seed=1, options=_LIMITS)):
        try:
            step()
        except QirError:
            pass


@settings(max_examples=60)
@given(genutil.mutated_qasm())
def test_the_command_line_keeps_its_exit_codes_on_qasm(tmp_path_factory,
                                                       text):
    path = tmp_path_factory.mktemp("mutated") / "program.qasm"
    path.write_text(text, encoding="utf-8")
    for argv in (["validate"], ["transpile", "--to", "qir-base"],
                 ["transpile", "--to", "qasm2"], _RUN):
        assert _cli(path, argv)[0] in (0, 1, 2, 3)


NAN_LL = (
    "define void @main() #0 {\nentry:\n"
    "  call void @__quantum__qis__rx__body(double 0x7FF8000000000000, "
    "ptr null)\n"
    "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
    "  ret void\n}\n\n"
    "declare void @__quantum__qis__rx__body(double, ptr)\n"
    "declare void @__quantum__qis__mz__body(ptr, ptr)\n\n"
    'attributes #0 = { "entry_point" }\n')
INF_QASM = ("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nrx(1e999) q[0];\n"
            "measure q[0] -> c[0];\n")


def _addressed_ll(qubit: int, result: int) -> str:
    """A base program that applies ``h`` and ``mz`` to constant qubit and
    result addresses."""
    def addr(index):
        return f"ptr inttoptr (i64 {index} to ptr)"
    return (
        "define void @main() #0 {\nentry:\n"
        f"  call void @__quantum__qis__h__body({addr(qubit)})\n"
        f"  call void @__quantum__qis__mz__body({addr(qubit)}, "
        f"{addr(result)})\n"
        "  ret void\n}\n\n"
        "declare void @__quantum__qis__h__body(ptr)\n"
        "declare void @__quantum__qis__mz__body(ptr, ptr)\n\n"
        'attributes #0 = { "entry_point" }\n')


# mutated programs, random circuits with one angle or index replaced, and
# random circuits that validate as base unmutated
_PROGRAMS = st.one_of(
    genutil.mutated().map(lambda text: ("ll", text)),
    genutil.mutated_qasm().map(lambda text: ("qasm", text)),
    genutil.edited_qasm().map(lambda text: ("qasm", text)),
    st.randoms(use_true_random=False).map(lambda rng: (
        "qasm", export_openqasm2(genutil.random_circuit(rng)))))


@settings(max_examples=80)
@given(_PROGRAMS)
@example(("ll", NAN_LL))
@example(("qasm", INF_QASM))
@example(("ll", NEG_LL))
@example(("ll", _addressed_ll(70000, 0)))
def test_a_base_verdict_holds_on_every_command(tmp_path_factory, program):
    suffix, text = program
    folder = tmp_path_factory.mktemp("mutated")
    path = folder / f"program.{suffix}"
    path.write_text(text, encoding="utf-8")
    code, out, _ = _cli(path, ["validate"])
    if code != 0 or out.split("\n")[0] != "base":
        return
    for to, ext in (("qir-base", "ll"), ("qasm2", "qasm")):
        code, out, err = _cli(path, ["transpile", "--to", to])
        assert code == 0, err
        # what a base module transpiles to is read back as base
        written = folder / f"transpiled.{ext}"
        written.write_text(out, encoding="utf-8")
        code, out, err = _cli(written, ["validate"])
        assert (code, out.split("\n")[0]) == (0, "base"), out + err
    code, _, err = _cli(path, _RUN)
    assert code == 0 or err.startswith(("error: QubitLimit: ",
                                        "error: StepLimit: ")), err


@pytest.mark.parametrize("kind", ["qubit", "result"])
@pytest.mark.parametrize("index", [65535, 65536])
def test_constant_addresses_are_bounded(tmp_path, kind, index):
    # an address below errors.MAX_DECLARED_SIZE needs a register no larger
    # than the limit; one at the limit would need a larger one
    qubit, result = (index, 0) if kind == "qubit" else (0, index)
    path = tmp_path / "program.ll"
    path.write_text(_addressed_ll(qubit, result), encoding="utf-8")
    code, out, err = _cli(path, ["validate"])
    if index == 65535:
        assert (code, out.split("\n")[0], err) == (0, "base", "")
        code, qasm, err = _cli(path, ["transpile", "--to", "qasm2"])
        assert (code, err) == (0, "")
        assert validate_profile(circuit_to_base_qir(
            import_openqasm2(qasm))).profile is Profile.BASE
        return
    assert (code, out.split("\n")[0]) == (1, "unsupported")
    assert f"{kind} address {index} of @__quantum__qis__" in out
    for to in ("qir-base", "qasm2"):
        code, out, err = _cli(path, ["transpile", "--to", to])
        assert (code, out) == (1, "")
        assert err.startswith("error: Unsupported: "), err


def test_transpile_to_base_prints_the_counts_of_the_calls(tmp_path):
    # a module that is base already is lowered too, so the printed counts
    # are the ones its calls need, not the ignored -5 it was read with
    path = tmp_path / "program.ll"
    path.write_text(NEG_LL, encoding="utf-8")
    code, out, err = _cli(path, ["transpile", "--to", "qir-base"])
    assert (code, err) == (0, "")
    assert out == print_module(lower_to_base(parse_module(NEG_LL)))
    printed = parse_module(out)
    assert printed.attributes[REQUIRED_QUBITS_ATTR] == "1"
    assert printed.attributes[REQUIRED_RESULTS_ATTR] == "1"


def _declaring(qubits: int, results: int) -> str:
    return NEG_LL.replace('"required_num_qubits"="-5"',
                          f'"required_num_qubits"="{qubits}" '
                          f'"required_num_results"="{results}"')


def test_both_targets_keep_declared_idle_registers(tmp_path):
    # NEG_LL declaring 5 qubits and 3 results but calling on one of each:
    # a valid declared count is kept on both targets, as the bridges keep
    # idle qubits, and the lowered module converts to the same circuit.
    # Declaring 1 and 1 but calling on qubit 3 and result 2, both targets
    # size the registers from the highest addresses
    past = _declaring(1, 1).replace(
        "h__body(ptr null)", "h__body(ptr inttoptr (i64 3 to ptr))").replace(
        "mz__body(ptr null, ptr null)", "mz__body(ptr inttoptr (i64 3 to "
                                        "ptr), ptr inttoptr (i64 2 to ptr))")
    past = past.replace("output(ptr null,", "output(ptr inttoptr (i64 2 to "
                                            "ptr),")
    path = tmp_path / "program.ll"
    for text, qubits, results in ((_declaring(5, 3), 5, 3), (past, 4, 3)):
        path.write_text(text, encoding="utf-8")
        code, qasm, err = _cli(path, ["transpile", "--to", "qasm2"])
        assert (code, err) == (0, "")
        assert f"qreg q[{qubits}];\ncreg c[{results}];\n" in qasm
        code, out, err = _cli(path, ["transpile", "--to", "qir-base"])
        assert (code, err) == (0, "")
        printed = parse_module(out)
        assert printed.attributes[REQUIRED_QUBITS_ATTR] == str(qubits)
        assert printed.attributes[REQUIRED_RESULTS_ATTR] == str(results)
        assert export_openqasm2(circuit_from_base_qir(printed)) == qasm
