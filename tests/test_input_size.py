"""Both source readers refuse text longer than ``errors.MAX_INPUT_CHARS``,
and the command line prints no module longer than it; no declared size
may pass ``errors.MAX_DECLARED_SIZE``, and neither an OpenQASM 2 program
nor an unrolled loop may expand past ``errors.MAX_OPERATIONS``."""

import os
import resource
import subprocess
import sys
import time

import pytest

from qirtk import (ParseError, Profile, errors, import_openqasm2,
                   parse_module, transforms, validate_profile)
from qirtk.cli import main

import genutil


def test_the_limit_is_64_mi_characters():
    assert errors.MAX_INPUT_CHARS == 64 * 1024 * 1024


@pytest.mark.parametrize("name, read", [
    ("bell_static.ll", parse_module),
    ("bell.qasm", import_openqasm2),
])
def test_text_at_the_limit_is_read_and_one_more_is_refused(
        monkeypatch, name, read):
    text = genutil.corpus_text(name)
    monkeypatch.setattr(errors, "MAX_INPUT_CHARS", len(text))
    read(text)
    with pytest.raises(ParseError) as exc:
        read(text + "\n")
    assert exc.value.line is None
    assert str(exc.value) == \
        f"input: text longer than {len(text)} characters"


@pytest.mark.parametrize("name", ["bell_static.ll", "bell.qasm"])
def test_cli_exits_two_on_text_over_the_limit(monkeypatch, tmp_path,
                                              capsys, name):
    text = genutil.corpus_text(name)
    path = tmp_path / name
    monkeypatch.setattr(errors, "MAX_INPUT_CHARS", len(text))
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    path.write_text(text + " " * 1000, encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: input: text longer than {len(text)} characters\n")


# ---------------------------------------------------------------------------
# declared sizes: registers, required counts and qubit arrays share one limit


def test_one_limit_bounds_every_declared_size():
    assert errors.MAX_DECLARED_SIZE == 65536


@pytest.mark.parametrize("text, line, token, message", [
    ("qreg q[65537];\nh q;\n", 1, "65537",
     "registers declare 65537 qubits, more than the limit of 65536"),
    ("creg c[65537];\n", 1, "65537",
     "registers declare 65537 bits, more than the limit of 65536"),
    ("qreg a[65536];\ncreg c[65536];\nqreg b[1];\n", 3, "1",
     "registers declare 65537 qubits, more than the limit of 65536"),
    ("creg a[65535];\nqreg q[2];\ncreg b[2];\n", 3, "2",
     "registers declare 65537 bits, more than the limit of 65536"),
], ids=["qreg", "creg", "second-qreg", "second-creg"])
def test_registers_past_the_declared_size_limit_are_refused(
        text, line, token, message):
    with pytest.raises(ParseError) as exc:
        import_openqasm2("OPENQASM 2.0;\n" + text)
    err = exc.value
    assert (err.message, err.line, err.column, err.token) == \
        (message, line + 1, 8, token)


def test_registers_at_the_declared_size_limit_are_read():
    circuit = import_openqasm2(
        "OPENQASM 2.0;\nqreg q[65535];\nqreg r[1];\ncreg c[65536];\n")
    assert (circuit.num_qubits, circuit.num_clbits) == (65536, 65536)


def test_unmeasured_registers_at_the_limit_warn_in_one_short_line(
        tmp_path, capsys):
    path = tmp_path / "wide.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[65536];\ncreg c[65536];\n",
                    encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "base\nwarning: qubits [0-65535] are never measured\n"
    assert len(out.encode()) < 100


def test_cli_exits_two_on_a_register_past_the_limit(tmp_path, capsys):
    path = tmp_path / "wide.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[65537];\nh q;\n",
                    encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 2, column 8: registers declare 65537 qubits, "
        "more than the limit of 65536 near '65537'\n")


def test_a_program_expands_to_at_most_the_operation_limit():
    # one statement of each kind counts its ops after broadcasting
    assert errors.MAX_OPERATIONS == 4 * 65536
    head = "OPENQASM 2.0;\nqreg q[65536];\ncreg c[65536];\n"
    full = head + "h q;\nreset q;\nrx(0.5) q;\nmeasure q -> c;\n"
    assert len(import_openqasm2(full).ops) == errors.MAX_OPERATIONS
    for statement in ("x q[0];", "reset q[1];", "measure q[2] -> c[2];"):
        with pytest.raises(ParseError) as exc:
            import_openqasm2(full + statement + "\n")
        err = exc.value
        assert (err.message, err.line, err.column) == (
            "the circuit expands to 262145 operations, more than the limit "
            "of 262144", 8, 1)


def _limited_cli(*argv) -> subprocess.CompletedProcess:
    """Run the command line on ``argv`` in a child that may not map more
    than 1 GiB and must end within 5 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(genutil.ROOT / "src"),
                      os.environ.get("PYTHONPATH")])))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "qirtk.cli", *argv],
                          capture_output=True, env=env, preexec_fn=limit,
                          timeout=60)
    assert time.monotonic() - start < 5
    return proc


def test_a_short_program_past_the_operation_limit_fails_fast(tmp_path):
    # 151 bytes that would expand to 1,310,720 ops (about 24 MB a line)
    path = tmp_path / "wide.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[65536];\n'
                    + "h q;\n" * 20, encoding="utf-8")
    assert path.stat().st_size == 151
    proc = _limited_cli("validate", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", (
        b"parse error: line 8, column 1: the circuit expands to 327680 "
        b"operations, more than the limit of 262144 near 'h'\n"))


def _loop(trips: int, calls: int) -> str:
    """A module whose loop runs ``trips`` times over ``calls`` h calls."""
    return ("define void @main() #0 {\nentry:\n  br label %loop\n\nloop:\n"
            "  %i = phi i64 [ 0, %entry ], [ %next, %loop ]\n"
            + "  call void @__quantum__qis__h__body(ptr null)\n" * calls
            + "  %next = add i64 %i, 1\n"
            f"  %again = icmp slt i64 %next, {trips}\n"
            "  br i1 %again, label %loop, label %exit\n\n"
            "exit:\n  ret void\n}\n\n"
            "declare void @__quantum__qis__h__body(ptr)\n\n"
            'attributes #0 = { "entry_point" "required_num_qubits"="1" '
            '"required_num_results"="0" }\n')


@pytest.mark.parametrize("command", [
    ["unroll"], ["transpile", "--to", "qir-base"],
    ["transpile", "--to", "qasm2"]], ids=["unroll", "qir-base", "qasm2"])
def test_unrolling_emits_at_most_the_operation_limit(
        monkeypatch, tmp_path, capsys, command):
    # 3 calls a trip: 4 trips emit exactly the limit, 5 one trip past it
    monkeypatch.setattr(transforms, "MAX_OPERATIONS", 12)
    path = tmp_path / "loop.ll"
    path.write_text(_loop(4, 3), encoding="utf-8")
    assert main([*command, str(path)]) == 0
    path.write_text(_loop(5, 3), encoding="utf-8")
    capsys.readouterr()
    assert main([*command, str(path)]) == 1
    assert capsys.readouterr() == ("", "error: OperationLimit: unrolling "
                                       "emits more than 12 instructions\n")


def test_a_short_loop_past_the_operation_limit_fails_fast(tmp_path):
    # 9.8 KB under the default iteration cap that would emit 13,000,000
    # instructions (about 2.7 GB)
    path = tmp_path / "loop.ll"
    path.write_text(_loop(65000, 200), encoding="utf-8")
    assert path.stat().st_size == 9757
    proc = _limited_cli("unroll", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", (
        b"error: OperationLimit: unrolling emits more than 262144 "
        b"instructions\n"))


@pytest.mark.parametrize("command", [
    ["unroll"], ["transpile", "--to", "qir-base"]],
    ids=["unroll", "qir-base"])
def test_a_printed_module_is_at_most_the_input_limit(
        monkeypatch, tmp_path, capsys, command):
    # 8 trips of 3 calls print longer than the loop that makes them
    path, out = tmp_path / "loop.ll", tmp_path / "out.ll"
    path.write_text(_loop(8, 3), encoding="utf-8")
    assert main([*command, str(path)]) == 0
    printed = capsys.readouterr().out
    assert len(_loop(8, 3)) < len(printed) - 1
    monkeypatch.setattr(errors, "MAX_INPUT_CHARS", len(printed))
    assert main([*command, str(path)]) == 0
    assert capsys.readouterr().out == printed
    monkeypatch.setattr(errors, "MAX_INPUT_CHARS", len(printed) - 1)
    assert main([*command, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", (
        f"error: OutputLimit: printed module is longer than "
        f"{len(printed) - 1} characters\n"))
    assert not out.exists()


def _with_attribute(key: str, value: int):
    text = genutil.corpus_text("bell_static.ll")
    assert f'"{key}"="2"' in text
    return parse_module(text.replace(
        f'"{key}"="2"', f'"{key}"="{value}"'))


@pytest.mark.parametrize("key", ["required_num_qubits",
                                 "required_num_results"])
def test_a_required_count_past_the_limit_is_unsupported(key):
    report = validate_profile(_with_attribute(key, 65537))
    assert report.profile is Profile.UNSUPPORTED
    assert [v.reason for v in report.violations] == [
        f"{key} 65537 exceeds the limit of 65536"]
    assert validate_profile(_with_attribute(key, 65536)).profile \
        is Profile.BASE


def test_a_huge_required_count_is_refused_before_it_is_used(tmp_path,
                                                            capsys):
    # 10**20 declared qubits: warning about each unmeasured one would
    # need more memory than any machine has
    path = tmp_path / "huge.ll"
    path.write_text(genutil.corpus_text("bell_static.ll").replace(
        '"required_num_qubits"="2"',
        '"required_num_qubits"="100000000000000000000"'), encoding="utf-8")
    assert main(["transpile", str(path), "--to", "qasm2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith(
        "required_num_qubits 100000000000000000000 exceeds the limit of "
        "65536 at main\n")
