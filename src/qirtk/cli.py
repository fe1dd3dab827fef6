"""Command-line front end: validate, transpile, unroll, and run programs.

Exit codes follow one discipline across commands: 0 success, 1 semantic
failure (unsupported profile, transform or runtime error), 2 parse
failure, 3 I/O failure. Results go to stdout; diagnostics go to stderr.

Input format is detected from the file extension (``.qasm`` is OpenQASM
2, anything else is textual QIR) and can be forced with
``--input-format``; ``--format`` selects the output rendering.

``main(argv)`` is the in-process API: it returns the exit code and
leaves the interpreter as it found it. ``entry()`` is what the ``qirtk``
script and ``python -m qirtk.cli`` run: it calls ``main()``, flushes
stdout and stderr, and ends the process with ``os._exit``, skipping the
interpreter's teardown once every output has left the process.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

from . import errors
from .errors import (DEFAULT_ITERATION_CAP, DEFAULT_MAX_QUBITS,
                     DEFAULT_STEP_LIMIT, ParseError, QirError)

#: the names the commands call from the other layers. Each resolves on
#: first use through the package's lazy names, and the handlers call it
#: through this module (``_cli``), so a command loads only the layers it
#: runs and a wrapper set on ``qirtk.cli`` with ``setattr`` is what runs.
_LAYER_NAMES = frozenset({
    "ExecOptions", "Profile", "circuit_from_base_qir",
    "circuit_to_base_qir", "export_openqasm2", "import_openqasm2",
    "interpret", "lower_to_base", "parse_module", "print_module",
    "unroll_and_fold", "validate_profile",
})
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAYER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _detect_format(path: str, override: str | None) -> str:
    if override:
        return override
    return "qasm2" if path.lower().endswith(".qasm") else "qir"


def _read(path: str) -> str:
    # one character past the limit is enough for the reader to refuse it
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read(errors.MAX_INPUT_CHARS + 1)


def _load_module(args):
    text = _read(args.path)
    if _detect_format(args.path, args.input_format) == "qasm2":
        return _cli.circuit_to_base_qir(_cli.import_openqasm2(text))
    return _cli.parse_module(text)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> int:
    report = _cli.validate_profile(_load_module(args))
    if args.format == "json":
        import json
        payload = {
            "profile": report.profile.value,
            "violations": [{"location": v.location, "reason": v.reason}
                           for v in report.violations],
            "warnings": list(report.warnings),
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [report.profile.value]
        lines += [f"violation: {v.location}: {v.reason}"
                  for v in report.violations]
        lines += [f"warning: {w}" for w in report.warnings]
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report.profile is not _cli.Profile.UNSUPPORTED else 1


def _cmd_transpile(args) -> int:
    module = _load_module(args)
    if args.to == "qir-base":
        # lowered even when already base, so the counts follow the calls
        module = _cli.lower_to_base(module, args.iteration_cap)
        _emit(args, _cli.print_module(module))
        return 0
    if _cli.validate_profile(module).profile is not _cli.Profile.BASE:
        module = _cli.lower_to_base(module, args.iteration_cap)
    _emit(args, _cli.export_openqasm2(_cli.circuit_from_base_qir(module)))
    return 0


def _cmd_unroll(args) -> int:
    module = _cli.unroll_and_fold(_load_module(args), args.iteration_cap)
    _emit(args, _cli.print_module(module))
    return 0


def _cmd_run(args) -> int:
    module = _load_module(args)
    options = _cli.ExecOptions(max_qubits=args.max_qubits,
                               step_limit=args.step_limit)
    result = _cli.interpret(module, shots=args.shots, seed=args.seed,
                            options=options)
    if args.format == "json":
        _emit(args, result.to_json(include_memory=args.memory) + "\n")
    else:
        lines = [f"shots: {result.shots}", f"seed: {result.seed}",
                 "counts:"]
        lines += [f"  {key or '(empty)'} {result.counts[key]}"
                  for key in sorted(result.counts)]
        if args.memory:
            lines.append("memory:")
            lines += [f"  {bits or '(empty)'}" for bits in result.memory]
        _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qirtk",
        description="Parse, validate, transform, transpile, and run "
                    "textual QIR and OpenQASM 2 programs.")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("path", help="input file (.ll or .qasm)")
        sub.add_argument("--input-format", choices=["qir", "qasm2"],
                         help="override input format detection")
        sub.add_argument("--out", help="write output to a file "
                                       "instead of stdout")

    validate = commands.add_parser(
        "validate", help="classify a module's profile")
    common(validate)
    validate.add_argument("--format", choices=["json", "text"],
                          default="text")
    validate.set_defaults(handler=_cmd_validate)

    transpile = commands.add_parser(
        "transpile", help="convert between QIR and OpenQASM 2")
    common(transpile)
    transpile.add_argument("--to", choices=["qir-base", "qasm2"],
                           required=True, help="target format")
    transpile.add_argument("--iteration-cap", type=int,
                           default=DEFAULT_ITERATION_CAP)
    transpile.set_defaults(handler=_cmd_transpile)

    unroll = commands.add_parser(
        "unroll", help="unroll loops and fold constants")
    common(unroll)
    unroll.add_argument("--iteration-cap", type=int,
                        default=DEFAULT_ITERATION_CAP)
    unroll.set_defaults(handler=_cmd_unroll)

    run = commands.add_parser("run", help="execute a program and "
                                          "report measurement counts")
    common(run)
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
    run.set_defaults(handler=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "shots", 1) < 1:
        print("error: --shots must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
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
    """Run ``main()`` on the process's arguments and end the process
    with its exit code, without the interpreter's teardown.

    Finalization (module teardown and freeing every object) adds 10-30
    ms after a command's work is done, and writes nothing: ``--out``
    files are closed by ``_emit``, and the two flushes here push out
    what the streams still buffer. If a flush raises (stdout is a closed
    pipe, say), the ordinary ``sys.exit`` runs instead, so Python's own
    shutdown reports the error and sets the exit code as it always has.
    An exception or ``SystemExit`` from ``main`` (an argparse error,
    ``--help``) never gets here and takes that ordinary path too.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # whatever it is, the ordinary shutdown reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
