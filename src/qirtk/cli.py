"""Command-line front end: validate, transpile, unroll, and run programs.

Exit codes follow one discipline across commands: 0 success, 1 semantic
failure (unsupported profile, transform or runtime error), 2 parse
failure or usage error, 3 I/O failure. Results go to stdout; diagnostics
go to stderr, among them each warning a command raises, as one
``warning: <message>`` line whatever the warnings filters say.

Input format is detected from the file extension (``.qasm`` is OpenQASM
2, anything else is textual QIR) and can be forced with
``--input-format``; ``--format`` selects the output rendering.

Each command handler returns its exit code and output text and writes
nothing, and so does the argument parser for ``--help``. ``main(argv)``,
the in-process API, writes that text once, to the ``--out`` file
(closed before it returns) or to stdout (flushed), so a failed write,
or a process started without a stdout, is an I/O failure, and returns
the exit code; it never raises ``SystemExit``. A failed stdout write
leaves stdout's descriptor pointing at devnull.
``entry()``, which the ``qirtk`` script and ``python -m qirtk.cli``
run, ends the process with that code through ``os._exit``, skipping
the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings
from typing import NoReturn

from . import _MODULES, errors
from .errors import (DEFAULT_ITERATION_CAP, DEFAULT_MAX_QUBITS,
                     DEFAULT_STEP_LIMIT, ParseError, QirError)

#: each of the package's lazy names resolves here on first use, and the
#: commands call them through this module, so a command loads only the
#: layers it runs and a wrapper set on ``qirtk.cli`` is what runs
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _load_module(args, max_qubits: int | None = None):
    """The input as a module. An OpenQASM 2 program wider than
    ``max_qubits`` is refused as QubitLimit before it is converted."""
    # one character past the limit is enough for the reader to refuse it
    with open(args.path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read(errors.MAX_INPUT_CHARS + 1)
        except UnicodeDecodeError:
            raise ParseError("text is not valid UTF-8") from None
    qasm = args.path.lower().endswith(".qasm")
    if (args.input_format or ("qasm2" if qasm else "qir")) == "qasm2":
        circuit = _cli.import_openqasm2(text)
        if max_qubits is not None and circuit.num_qubits > max_qubits:
            raise errors.qubit_limit(circuit.num_qubits, max_qubits)
        return _cli.circuit_to_base_qir(circuit)
    return _cli.parse_module(text)


def _print_module(module) -> str:
    """The module's text, refused as ``OutputLimit`` when no reader would
    accept it back."""
    text = _cli.print_module(module)
    if len(text) > errors.MAX_INPUT_CHARS:
        raise errors.TransformError(
            "OutputLimit", f"printed module is longer than "
            f"{errors.MAX_INPUT_CHARS} characters")
    return text


# ---------------------------------------------------------------------------
# commands: each returns ``(exit code, output text)``


def _cmd_validate(args) -> tuple[int, str]:
    report = _cli.validate_profile(_load_module(args))
    code = 0 if report.profile is not _cli.Profile.UNSUPPORTED else 1
    if args.format == "json":
        import json
        payload = {
            "profile": report.profile.value,
            "violations": [{"location": v.location, "reason": v.reason}
                           for v in report.violations],
            "warnings": list(report.warnings),
        }
        return code, json.dumps(payload, indent=2) + "\n"
    lines = [report.profile.value]
    lines += [f"violation: {v.location}: {v.reason}"
              for v in report.violations]
    lines += [f"warning: {w}" for w in report.warnings]
    return code, "\n".join(lines) + "\n"


def _cmd_transpile(args) -> tuple[int, str]:
    module = _load_module(args)
    if args.iteration_cap < 1:  # also where a base module is not lowered
        raise ValueError("iteration_cap must be at least 1")
    if args.to == "qir-base":
        # lowered even when already base, so the counts follow the calls
        module = _cli.lower_to_base(module, args.iteration_cap)
        return 0, _print_module(module)
    if _cli.validate_profile(module).profile is not _cli.Profile.BASE:
        module = _cli.lower_to_base(module, args.iteration_cap)
    return 0, _cli.export_openqasm2(_cli.circuit_from_base_qir(module))


def _cmd_unroll(args) -> tuple[int, str]:
    module = _cli.unroll_and_fold(_load_module(args), args.iteration_cap)
    return 0, _print_module(module)


def _cmd_run(args) -> tuple[int, str]:
    if args.shots < 1:
        raise ValueError("--shots must be at least 1")
    if args.shots > errors.MAX_SHOTS:
        raise ValueError(f"--shots must be at most {errors.MAX_SHOTS}")
    module = _load_module(args, args.max_qubits)
    options = _cli.ExecOptions(max_qubits=args.max_qubits,
                               step_limit=args.step_limit)
    result = _cli.interpret(module, shots=args.shots, seed=args.seed,
                            options=options)
    if args.format == "json":
        return 0, result.to_json(include_memory=args.memory) + "\n"
    lines = [f"shots: {result.shots}", f"seed: {result.seed}", "counts:"]
    lines += [f"  {key or '(empty)'} {result.counts[key]}"
              for key in sorted(result.counts)]
    if args.memory:
        lines.append("memory:")
        lines += [f"  {bits or '(empty)'}" for bits in result.memory]
    return 0, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument wiring


class _Help(Exception):
    """``--help`` was given; the argument is the text for stdout."""


class _UsageError(Exception):
    """The arguments are wrong; the argument is the usage line and the
    message for stderr."""


class _Parser(argparse.ArgumentParser):
    """Raises what ``--help`` and a usage error would print, for
    ``main()`` to write, instead of writing it and exiting."""

    def print_help(self, file=None):
        raise _Help(self.format_help())

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: "
                          f"{message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qirtk",
        description="Parse, validate, transform, transpile, and run "
                    "textual QIR and OpenQASM 2 programs.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        sub = commands.add_parser(name, help=help)
        sub.set_defaults(handler=handler)
        sub.add_argument("path", help="input file (.ll or .qasm)")
        sub.add_argument("--input-format", choices=["qir", "qasm2"],
                         help="override input format detection")
        sub.add_argument("--out", help="write output to a file "
                                       "instead of stdout")
        return sub

    validate = command("validate", _cmd_validate,
                       "classify a module's profile")
    validate.add_argument("--format", choices=["json", "text"],
                          default="text")

    transpile = command("transpile", _cmd_transpile,
                        "convert between QIR and OpenQASM 2")
    transpile.add_argument("--to", choices=["qir-base", "qasm2"],
                           required=True, help="target format")
    transpile.add_argument("--iteration-cap", type=int,
                           default=DEFAULT_ITERATION_CAP)

    unroll = command("unroll", _cmd_unroll,
                     "unroll loops and fold constants")
    unroll.add_argument("--iteration-cap", type=int,
                        default=DEFAULT_ITERATION_CAP)

    run = command("run", _cmd_run,
                  "execute a program and report measurement counts")
    run.add_argument("--shots", type=int, default=1024)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--format", choices=["json", "text"],
                     default="json")
    run.add_argument("--max-qubits", type=int,
                     default=DEFAULT_MAX_QUBITS)
    run.add_argument("--step-limit", type=int,
                     default=DEFAULT_STEP_LIMIT)
    run.add_argument("--memory", action="store_true",
                     help="include per-shot bitstrings in the output")
    return parser


def _handle(args) -> tuple[int, str]:
    """Run the command, writing each warning it raises to stderr as one
    ``warning:`` line, whatever the warnings filters say."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return args.handler(args)
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except _Help as shown:
            code, text, out = 0, str(shown), None
        else:
            (code, text), out = _handle(args), args.out
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        elif sys.stdout is None:  # started with descriptor 1 closed
            raise OSError(errno.EBADF, "stdout is closed")
        else:
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError:
                # the unwritten bytes stay buffered: point stdout's fd at
                # devnull so that no later flush of them fails again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise
        return code
    except _UsageError as err:
        print(err, end="", file=sys.stderr)
        return 2
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (QirError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


def entry() -> NoReturn:
    """End the process with ``main()``'s exit code through ``os._exit``,
    skipping the interpreter's teardown (10-30 ms a command). ``main()``
    has flushed stdout or closed the ``--out`` file by then, also after
    ``--help`` or a usage error, and stderr is line-buffered.
    """
    os._exit(main())


if __name__ == "__main__":
    entry()
