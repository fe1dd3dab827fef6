"""Mutated corpus programs: whatever the input, only toolkit errors escape.

Each program is a corpus file with a few lines deleted, duplicated or
truncated, or with two tokens of a line swapped. It goes through parsing,
profile validation, lowering, interpretation under small qubit and step
limits, and the command line. Every failure must be a ``QirError``
subclass, and every command must exit with 0, 1, 2 or 3.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings

from qirtk import (ExecOptions, QirError, interpret, lower_to_base,
                   parse_module, validate_profile)
from qirtk.cli import main

import genutil


def _api(text: str) -> None:
    try:
        module = parse_module(text)
        validate_profile(module)
    except QirError:
        return
    limits = ExecOptions(max_qubits=3, step_limit=60)
    for step in (lambda: lower_to_base(module, 64),
                 lambda: interpret(module, shots=2, seed=1, options=limits)):
        try:
            step()
        except QirError:
            pass


@settings(max_examples=150)
@given(genutil.mutated())
def test_only_toolkit_errors_escape_the_api(text):
    _api(text)


@settings(max_examples=60)
@given(genutil.mutated())
def test_the_command_line_keeps_its_exit_codes(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mutated") / "program.ll"
    path.write_text(text, encoding="utf-8")
    for argv in (["validate"], ["transpile", "--to", "qir-base"],
                 ["transpile", "--to", "qasm2"],
                 ["run", "--shots", "2", "--max-qubits", "3",
                  "--step-limit", "60"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2, 3)
