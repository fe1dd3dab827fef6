"""Command-line behavior: outputs, formats, and the exit-code discipline."""

import json
import os
import random
import subprocess
import sys
import tomllib

import pytest

from hypothesis import given, strategies as st

from qirtk import (ExecOptions, ExecutionError, Gate, GateKind, Measure,
                   Profile, QuantumCircuit, circuit_to_base_qir, cli, errors,
                   import_openqasm2, interpret, interpreter, parse_module,
                   print_module, profile, validate_profile)
from qirtk.cli import main

import genutil


def _path(name):
    return str(genutil.corpus_path(name))


def test_validate_base_module(capsys):
    assert main(["validate", _path("bell_static.ll")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "base"


def test_validate_adaptive_module(capsys):
    assert main(["validate", _path("feedback.ll")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "adaptive-subset"


def test_validate_unsupported_module_fails_with_details(capsys):
    assert main(["validate", _path("unsupported.ll")]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "unsupported"
    assert any(line.startswith("violation:") for line in out.splitlines())


def test_validate_json_format(capsys):
    assert main(["validate", "--format", "json",
                 _path("bell_static.ll")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"] == "base"
    assert payload["violations"] == []


def test_parse_failure_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ll"
    bad.write_text("define void @main() {\nentry:\n  wibble\n}\n")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "line 3" in err


# every command, with the arguments it needs
COMMANDS = [["validate"], ["run", "--shots", "1"], ["unroll"],
            ["transpile", "--to", "qir-base"], ["transpile", "--to", "qasm2"]]


@pytest.mark.parametrize("name, comment", [("bell_static.ll", b";"),
                                           ("bell.qasm", b"//")])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_input_that_is_not_utf8_exits_two(tmp_path, capsys, command, name,
                                          comment):
    # a corpus file with a comment that holds a byte no UTF-8 text has
    bad = tmp_path / name
    bad.write_bytes(genutil.corpus_text(name).encode() + comment + b" \xff\n")
    assert main([command[0], str(bad), *command[1:]]) == 2
    assert capsys.readouterr() == (
        "", "parse error: input: text is not valid UTF-8\n")


@pytest.mark.parametrize("name", ["bell_static.ll", "ghz_dynamic.ll"])
@pytest.mark.parametrize("target", ["qir-base", "qasm2"])
def test_transpile_refuses_an_iteration_cap_below_one(tmp_path, capsys,
                                                      target, name):
    assert validate_profile(parse_module(genutil.corpus_text(name))) \
        .profile is (Profile.BASE if name == "bell_static.ll"
                     else Profile.ADAPTIVE_SUBSET)
    for cap in ("0", "-1"):
        assert main(["transpile", _path(name), "--to", target,
                     "--iteration-cap", cap]) == 1
        assert capsys.readouterr() == (
            "", "error: iteration_cap must be at least 1\n")
    # the input is read first: a parse failure still exits 2
    bad = tmp_path / name
    bad.write_text("wibble\n")
    assert main(["transpile", str(bad), "--to", target,
                 "--iteration-cap", "0"]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


@pytest.mark.parametrize("name, text", [
    ("huge.qasm", "OPENQASM 2.0;\nqreg q[" + "1" * 5000 + "];\n"),
    ("huge.ll", genutil.corpus_text("bell_static.ll").replace(
        "i64 1 to ptr", "i64 " + "1" * 5000 + " to ptr", 1)),
], ids=["qasm", "ll"])
def test_integer_past_the_int_string_limit_exits_two(tmp_path, capsys,
                                                     name, text):
    bad = tmp_path / name
    bad.write_text(text)
    assert main(["run", str(bad)]) == 2
    assert "integer literal too long" in capsys.readouterr().err


def test_dangling_attribute_group_is_a_parse_error(tmp_path, capsys):
    # bell_dynamic.ll without its closing ``attributes #0 = ...`` line
    lines = genutil.corpus_text("bell_dynamic.ll").rstrip("\n").splitlines()
    assert lines[-1].startswith("attributes #0")
    bad = tmp_path / "dangling.ll"
    bad.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["transpile", str(bad), "--to", "qir-base"]) == 2
    err = capsys.readouterr().err
    assert "attribute group #0 is never defined" in err
    assert "line 6" in err


def test_dangling_group_on_a_declare_exits_two(tmp_path, capsys):
    text = genutil.corpus_text("bell_static.ll").replace(
        "declare void @__quantum__qis__h__body(ptr)",
        "declare void @__quantum__qis__h__body(ptr) #9")
    assert "#9" in text
    bad = tmp_path / "dangling_declare.ll"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 2
    assert "attribute group #9 is never defined" in capsys.readouterr().err


def test_missing_file_exits_three(capsys):
    assert main(["validate", "no_such_file.ll"]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_run_bell_counts(capsys):
    assert main(["run", _path("bell_static.ll"),
                 "--shots", "100", "--seed", "42"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["counts"]) <= {"00", "11"}
    assert sum(payload["counts"].values()) == 100
    assert payload["bit_order"] == "clbit0-leftmost"


def test_run_empty_module(capsys):
    assert main(["run", _path("empty.ll"), "--shots", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"": 5}


def test_run_memory_flag_lists_every_shot(capsys):
    assert main(["run", _path("hadamard_loop.ll"), "--shots", "1",
                 "--memory"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["memory"] == [""]


def test_run_text_format(capsys):
    assert main(["run", _path("empty.ll"), "--shots", "2",
                 "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "counts:" in out
    assert "(empty) 2" in out


def test_run_rejects_nonpositive_shots(capsys):
    assert main(["run", _path("empty.ll"), "--shots", "0"]) == 1
    assert "--shots" in capsys.readouterr().err


@pytest.mark.parametrize("shots", [0, errors.MAX_SHOTS + 1])
def test_run_refuses_a_shot_count_before_reading_the_input(capsys, shots):
    # the input does not exist: an input read first would exit 3
    assert main(["run", "missing.ll", "--shots", str(shots)]) == 1
    bound = "at least 1" if shots < 1 else f"at most {errors.MAX_SHOTS}"
    assert capsys.readouterr().err == f"error: --shots must be {bound}\n"


def test_run_unknown_intrinsic_exits_one(capsys):
    assert main(["run", _path("unsupported.ll"), "--shots", "1"]) == 1
    assert "UnknownIntrinsic" in capsys.readouterr().err


def test_run_qubit_limit_exits_one(capsys):
    assert main(["run", _path("bell_static.ll"), "--shots", "1",
                 "--max-qubits", "1"]) == 1
    assert "QubitLimit" in capsys.readouterr().err


def _not_converted(circuit):
    raise AssertionError("the circuit was converted")


@pytest.mark.parametrize("text, code, err", [
    ("qreg q[65536]; h q;\n", 1,
     "error: QubitLimit: module requires 65536 qubits, limit is 26 "
     "[shot 0]\n"),
    # the whole text is read before the width is checked
    ("qreg q[65536]; h q;\nfoo q;\n", 2,
     "parse error: line 2, column 1: unsupported statement near 'foo'\n"),
])
def test_run_refuses_a_wide_openqasm_program_before_converting_it(
        tmp_path, capsys, monkeypatch, text, code, err):
    monkeypatch.setattr(cli, "circuit_to_base_qir", _not_converted)
    path = tmp_path / "wide.qasm"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--shots", "2"]) == code
    assert capsys.readouterr() == ("", err)


_QASM_PROGRAMS = genutil.qasm_programs()


@pytest.mark.parametrize("text", _QASM_PROGRAMS,
                         ids=map(str, range(len(_QASM_PROGRAMS))))
def test_run_refuses_an_openqasm_program_as_its_module_would_be(
        tmp_path, capsys, text):
    # corpus/bell.qasm and the reading digest's exported circuits: one
    # qubit short, the command refuses the circuit with the error that
    # running its module raises; at its width, it runs
    circuit = import_openqasm2(text)
    module = circuit_to_base_qir(circuit)
    width = circuit.num_qubits
    assert interpreter._required_qubits(
        module, ExecOptions(errors.MAX_DECLARED_SIZE), 0) == width
    with pytest.raises(ExecutionError) as info:
        interpret(module, shots=2, options=ExecOptions(width - 1))
    path = tmp_path / "program.qasm"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--shots", "2", "--max-qubits",
                 str(width - 1)]) == 1
    assert capsys.readouterr() == ("", f"error: {info.value}\n")
    assert main(["run", str(path), "--shots", "2", "--max-qubits",
                 str(width)]) == 0


@given(rng=st.randoms(use_true_random=False), qubits=st.integers(1, 40))
def test_the_width_checked_is_the_converted_modules_requirement(rng, qubits):
    # the command checks an OpenQASM 2 program's circuit width; running
    # its module checks the module's required qubit count
    circuit = genutil.random_circuit(rng, max_qubits=qubits, max_gates=4)
    module = circuit_to_base_qir(circuit)
    assert interpreter._required_qubits(
        module, ExecOptions(errors.MAX_DECLARED_SIZE), 0) == circuit.num_qubits


def test_run_out_of_memory_is_one_qubit_limit_line(tmp_path):
    # a 34-qubit state takes 256 GiB; under a 2 GiB address-space limit
    # its allocation fails in the child, wherever the test runs
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    path = tmp_path / "wide.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[34];\n'
                    "creg c[1];\nh q[33];\nmeasure q[0] -> c[0];\n",
                    encoding="utf-8")
    env = dict(_child_env(), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "qirtk.cli", "run", str(path), "--shots", "2",
         "--max-qubits", "40"], capture_output=True, text=True, env=env,
        preexec_fn=limit_address_space, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: QubitLimit: out of memory on a state of 34 qubits "
               "[shot 0]\n")


@pytest.mark.parametrize("filters", [None, "error"])
@pytest.mark.parametrize("command", [
    ["validate"], ["transpile", "--to", "qasm2"], ["unroll"],
    ["run", "--shots", "2"]], ids=lambda command: command[0])
def test_a_reader_warning_is_one_stderr_line(tmp_path, command, filters):
    path = tmp_path / "barrier.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                    "creg c[2];\nh q[0];\nbarrier q[0], q[1];\n"
                    "measure q[0] -> c[0];\n", encoding="utf-8")
    env = _child_env()
    env.pop("PYTHONWARNINGS", None)
    if filters is not None:
        env["PYTHONWARNINGS"] = filters
    proc = subprocess.run(
        [sys.executable, "-m", "qirtk.cli", command[0], str(path),
         *command[1:]], capture_output=True, text=True, env=env,
        timeout=120)
    assert (proc.returncode, proc.stderr) == (
        0, "warning: barrier at line 6 has no circuit equivalent and was "
           "dropped\n")


def test_run_step_limit_exits_one(capsys):
    assert main(["run", _path("phi_loop.ll"), "--shots", "1",
                 "--step-limit", "3"]) == 1
    assert "StepLimit" in capsys.readouterr().err


def test_run_seed_determinism(capsys):
    main(["run", _path("bell_static.ll"), "--shots", "64", "--seed", "7"])
    first = capsys.readouterr().out
    main(["run", _path("bell_static.ll"), "--shots", "64", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_transpile_qasm_to_base_qir(capsys):
    assert main(["transpile", _path("bell.qasm"), "--to", "qir-base"]) == 0
    out = capsys.readouterr().out
    assert "call void @__quantum__qis__h__body(ptr null)" in out
    assert "ptr inttoptr (i64 1 to ptr)" in out
    module = parse_module(out)
    assert validate_profile(module).profile is Profile.BASE


def test_transpile_qir_to_qasm(capsys):
    assert main(["transpile", _path("bell_dynamic.ll"),
                 "--to", "qasm2"]) == 0
    out = capsys.readouterr().out
    assert out == genutil.corpus_text("bell.qasm")


@pytest.mark.parametrize("name, to, classified", [
    ("bell_static.ll", "qasm2", 1),
    ("bell_static.ll", "qir-base", 1),
    ("bell.qasm", "qir-base", 1),
    # the input and the lowered module: the unroller presets the
    # allocator's verdict on the unrolled module, which is never classified
    ("bell_dynamic.ll", "qasm2", 2),
    ("bell_dynamic.ll", "qir-base", 2),
])
def test_transpile_classifies_each_module_once(monkeypatch, capsys, name,
                                               to, classified):
    seen = []
    classify = profile._classify
    monkeypatch.setattr(profile, "_classify",
                        lambda module: seen.append(module) or classify(module))
    assert main(["transpile", _path(name), "--to", to]) == 0
    assert len(seen) == classified
    assert len({id(module) for module in seen}) == classified


@pytest.mark.parametrize("name, circuits", [
    # the circuit read from a base module is proven by its profile report
    ("bell_static.ll", 0),
    # only the imported circuit; the one read back from its module is proven
    ("bell.qasm", 1),
])
def test_transpile_validates_each_circuit_once(monkeypatch, capsys, name,
                                               circuits):
    # a circuit is validated when it is built, and never again: each op is
    # checked once per circuit built, and not at all in a circuit the bridge
    # builds from a module its base report has proven
    built, checked = [], []
    post_init = QuantumCircuit.__post_init__
    check = QuantumCircuit._check_qubits
    monkeypatch.setattr(QuantumCircuit, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(
        QuantumCircuit, "_check_qubits",
        lambda self, qubits: checked.append(qubits) or check(self, qubits))
    assert main(["transpile", _path(name), "--to", "qasm2"]) == 0
    assert len(built) == circuits
    assert len(checked) == sum(len(circuit.ops) for circuit in built)


_QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


@pytest.mark.parametrize("body, code, out, err", [
    # the measurements move behind the gate, and print register-wide
    ("qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\nh q[1];\n"
     "measure q[1] -> c[1];\n", 0,
     _QASM_HEADER + "qreg q[2];\ncreg c[2];\nh q[1];\nmeasure q -> c;\n",
     ""),
    # a gate after a measurement of its qubit has no static schedule
    ("qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nh q[0];\n", 1, "",
     "error: FeedbackRequired: a gate acts on qubit 0 after its "
     "measurement; measurements cannot move past it\n"),
], ids=["measure_moves_behind_a_gate", "gate_after_its_measurement"])
def test_transpile_to_qasm2_lowers_an_openqasm_circuit(tmp_path, capsys, body,
                                                        code, out, err):
    # an OpenQASM 2 input goes through the module and its lowering, so
    # converting it to OpenQASM 2 is not the identity
    path = tmp_path / "circuit.qasm"
    path.write_text(_QASM_HEADER + body, encoding="utf-8")
    assert main(["transpile", str(path), "--to", "qasm2"]) == code
    assert capsys.readouterr() == (out, err)


def test_transpile_feedback_fails_with_reason(capsys):
    assert main(["transpile", _path("feedback.ll"),
                 "--to", "qir-base"]) == 1
    assert "FeedbackRequired" in capsys.readouterr().err


_ALLOCATING_LOOP = """\
declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__qis__h__body(ptr)
define void @main() #0 {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  %next = add i64 %i, 1
  %more = icmp slt i64 %next, 65537
  br i1 %more, label %loop, label %exit
exit:
  ret void
}
attributes #0 = { "entry_point" }
"""


def test_transpile_refuses_an_allocation_past_the_qubit_limit(tmp_path,
                                                              capsys):
    # the loop never releases a qubit, so trip 65,537 needs index 65536
    path = tmp_path / "allocating_loop.ll"
    path.write_text(_ALLOCATING_LOOP, encoding="utf-8")
    assert main(["transpile", str(path), "--to", "qir-base",
                 "--iteration-cap", "70000"]) == 1
    assert capsys.readouterr().err == (
        "error: AllocationLimit: allocating qubit index 65536 exceeds the "
        "limit of 65536 qubits\n")


def test_unroll_command(capsys):
    assert main(["unroll", _path("hadamard_loop.ll")]) == 0
    out = capsys.readouterr().out
    assert out.count("call void @__quantum__qis__h__body") == 10


def test_unroll_cap_exits_one(capsys):
    assert main(["unroll", _path("hadamard_loop.ll"),
                 "--iteration-cap", "4"]) == 1
    assert "CapExceeded" in capsys.readouterr().err


def test_unroll_straight_line_file_is_unchanged(capsys):
    main(["unroll", _path("bell_static.ll")])
    out = capsys.readouterr().out
    module = parse_module(genutil.corpus_text("bell_static.ll"))
    assert parse_module(out) == module


def test_out_flag_writes_a_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    assert main(["run", _path("empty.ll"), "--shots", "1",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["counts"] == {"": 1}


def test_input_format_override(tmp_path, capsys):
    renamed = tmp_path / "bell.txt"
    renamed.write_text(genutil.corpus_text("bell.qasm"))
    assert main(["validate", str(renamed),
                 "--input-format", "qasm2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "base"
    # the same file read as IR is a parse failure
    assert main(["validate", str(renamed)]) == 2


def test_emitted_outputs_reparse_and_validate(tmp_path, capsys):
    for name in ("bell_dynamic.ll", "reuse.ll", "ghz_dynamic.ll"):
        target = tmp_path / ("low_" + name)
        assert main(["transpile", _path(name), "--to", "qir-base",
                     "--out", str(target)]) == 0
        assert main(["validate", str(target)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "base"


def test_console_entry_point_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "qirtk.cli", "validate",
         _path("bell_static.ll")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "base"


# ---------------------------------------------------------------------------
# the process exit: ``python -m qirtk.cli`` ends through ``cli.entry``, which
# skips the interpreter's teardown; each case must leave the same stdout
# bytes, stderr and exit code as the plain ``sys.exit(main())`` wrapper

_SRC = os.path.dirname(os.path.dirname(cli.__file__))


def _child_env() -> dict:
    """This process's environment with this checkout's ``src`` first on
    ``PYTHONPATH``, for a child Python."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))


_PLAIN_EXIT = ("import sys; from qirtk.cli import main; "
               "sys.exit(main(sys.argv[1:]))")


def _both_exits(args, buffered=True, closed_pipe=False, out=None):
    """``(exit code, stdout, stderr)`` of ``args`` run by the module and by
    the plain wrapper, asserted equal. ``buffered`` leaves
    ``PYTHONUNBUFFERED`` unset; ``closed_pipe`` makes stdout a pipe whose
    read end is closed before the command starts; ``out``, a path, is
    passed as ``--out`` and the bytes written there end the tuple."""
    if out is not None:
        args = [*args, "--out", str(out)]
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    runs = []
    for launch in (["-m", "qirtk.cli"], ["-c", _PLAIN_EXIT]):
        stdout = subprocess.PIPE
        if closed_pipe:
            read_end, stdout = os.pipe()
            os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, *launch, *args],
                                  stdout=stdout, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            if closed_pipe:
                os.close(stdout)
        written = ()
        if out is not None:
            written = (out.read_bytes(),)
            out.unlink()
        runs.append((proc.returncode, proc.stdout, proc.stderr, *written))
    assert runs[0] == runs[1]
    return runs[0]


@pytest.fixture(scope="module")
def gates_4000(tmp_path_factory):
    """A base module of 4,000 random gates on 8 qubits, then measure all."""
    rng = random.Random(4000)
    ops = []
    for _ in range(4000):
        kind = rng.choice(list(GateKind))
        ops.append(Gate(kind, tuple(rng.uniform(-3.0, 3.0)
                                    for _ in range(kind.num_params)),
                        tuple(rng.sample(range(8), kind.num_qubits))))
    ops += [Measure(q, q) for q in range(8)]
    path = tmp_path_factory.mktemp("gates") / "gates_4000.ll"
    path.write_text(print_module(circuit_to_base_qir(
        QuantumCircuit(8, 8, ops))), encoding="utf-8")
    return str(path)


def test_fast_exit_keeps_each_exit_code(tmp_path):
    bad = tmp_path / "bad.ll"
    bad.write_text("define void @main() {\nentry:\n  wibble\n}\n")
    code, out, err = _both_exits(["run", _path("bell_static.ll"),
                                  "--shots", "16", "--seed", "3"])
    assert (code, err) == (0, b"")
    assert json.loads(out)["shots"] == 16
    code, out, err = _both_exits(["validate", _path("unsupported.ll")])
    assert (code, err) == (1, b"")
    assert out.startswith(b"unsupported\n")
    code, out, err = _both_exits(["validate", str(bad)])
    assert (code, out) == (2, b"")
    assert err.startswith(b"parse error: ")
    code, out, err = _both_exits(["validate", str(tmp_path / "absent.ll")])
    assert (code, out) == (3, b"")
    assert err.startswith(b"i/o error: ")


def test_fast_exit_keeps_argparse_errors_and_help():
    code, out, err = _both_exits(["transpile", _path("bell_static.ll")])
    assert (code, out) == (2, b"")
    assert b"the following arguments are required: --to" in err
    code, out, err = _both_exits(["--help"])
    assert (code, err) == (0, b"")
    assert out.startswith(b"usage: qirtk")


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
def test_fast_exit_keeps_a_long_output_on_a_pipe(gates_4000, buffered):
    code, out, err = _both_exits(["transpile", gates_4000, "--to", "qasm2"],
                                 buffered)
    assert (code, err) == (0, b"")
    # four header lines, the gates and one register-wide measure
    assert out.count(b";\n") == 4 + 4000 + 1


def test_fast_exit_keeps_a_long_output_in_a_file(gates_4000, tmp_path):
    code, out, err, written = _both_exits(
        ["transpile", gates_4000, "--to", "qasm2"], out=tmp_path / "out.qasm")
    assert (code, out, err) == (0, b"", b"")
    assert written.count(b";\n") == 4 + 4000 + 1


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("long", [True, False], ids=["long", "short"])
def test_fast_exit_keeps_a_closed_pipe_error(gates_4000, buffered, long):
    # main() writes and flushes stdout inside its try, so a closed pipe is
    # an i/o error whether the output is long enough to reach the pipe
    # while it is written or still buffered when it is flushed
    path = gates_4000 if long else _path("bell_static.ll")
    code, out, err = _both_exits(["transpile", path, "--to", "qasm2"],
                                 buffered, closed_pipe=True)
    assert (code, err) == (3, b"i/o error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
def test_fast_exit_keeps_a_closed_pipe_error_on_a_verdict(buffered):
    code, out, err = _both_exits(["validate", _path("bell_static.ll")],
                                 buffered, closed_pipe=True)
    assert (code, err) == (3, b"i/o error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("args", [["--help"], ["transpile", "--help"]],
                         ids=["qirtk", "transpile"])
def test_help_into_a_closed_pipe_is_an_io_error(args):
    # with PYTHONUNBUFFERED unset the help text is still buffered when
    # argparse is done; main() writes and flushes it like any output
    code, out, err = _both_exits(args, closed_pipe=True)
    assert (code, err) == (3, b"i/o error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("args", [["--help"], ["transpile", "--help"],
                                  ["validate", _path("bell_static.ll")]],
                         ids=["qirtk", "transpile", "validate"])
def test_a_process_started_without_stdout_is_an_io_error(args):
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable,
                           "-m", "qirtk.cli", *args],
                          stderr=subprocess.PIPE, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (
        3, b"i/o error: [Errno 9] stdout is closed\n")


def _file_id(fd_or_path) -> tuple[int, int]:
    stat = os.stat(fd_or_path)
    return stat.st_dev, stat.st_ino


def test_a_closed_stdout_is_pointed_at_devnull_where_it_is(monkeypatch,
                                                            capsys):
    # an embedder's stdout on a descriptor other than 1: main() points that
    # descriptor at devnull, leaves fd 1 alone and keeps no descriptor open
    read, write = os.pipe()
    os.close(read)
    stream = open(write, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stream)
    fd_1 = _file_id(1)
    probe = os.open(os.devnull, os.O_RDONLY)
    os.close(probe)
    assert main(["validate", _path("bell_static.ll")]) == 3
    assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"
    assert (_file_id(write), _file_id(1)) == (_file_id(os.devnull), fd_1)
    assert os.open(os.devnull, os.O_RDONLY) == probe
    os.close(probe)
    stream.close()


def test_the_console_script_runs_what_the_module_runs():
    pyproject = os.path.join(os.path.dirname(_SRC), "pyproject.toml")
    with open(pyproject, "rb") as handle:
        script = tomllib.load(handle)["project"]["scripts"]["qirtk"]
    with open(cli.__file__, encoding="utf-8") as handle:
        source = handle.read()
    name = script.removeprefix("qirtk.cli:")
    assert script == f"qirtk.cli:{name}"
    assert source.endswith(f'\n\nif __name__ == "__main__":\n    {name}()\n')
    assert callable(getattr(cli, name))
