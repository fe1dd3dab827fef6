"""Exception types shared across the toolkit, the input-size and
declared-size limits of the readers, and the default limits of the
transforms and the interpreter, which the command line offers without
importing either."""

from __future__ import annotations


class QirError(Exception):
    """Base class for all toolkit errors."""


class ParseError(QirError):
    """Source text outside the supported grammar.

    Carries the 1-based line (and column where known) of the offending
    token so callers can point at the exact input location.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, token: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.token = token
        loc = "input" if line is None else f"line {line}"
        if column is not None:
            loc += f", column {column}"
        detail = f" near {token!r}" if token else ""
        super().__init__(f"{loc}: {message}{detail}")


#: longest source text, in characters, that ``parse_module`` and
#: ``import_openqasm2`` accept, and longest module the command line prints
MAX_INPUT_CHARS = 64 * 1024 * 1024


def check_input_size(text: str) -> None:
    """Refuse source text longer than ``MAX_INPUT_CHARS``."""
    if len(text) > MAX_INPUT_CHARS:
        raise ParseError(f"text longer than {MAX_INPUT_CHARS} characters")


#: most qubits, or results, a program may declare: the size of one qubit
#: array, the registers of an OpenQASM 2 program, or a required count
MAX_DECLARED_SIZE = 65536

#: most operations an OpenQASM 2 program may expand to, counted after
#: register-wide statements broadcast, and most instructions unrolling
#: may emit. The longest operation prints as a 138-character ``ccx`` call
#: and each of at most ``MAX_DECLARED_SIZE`` results adds an 89-character
#: record call, so the largest circuit admitted prints as a module of
#: about 42 Mi characters, which reads back under ``MAX_INPUT_CHARS``
MAX_OPERATIONS = 2 ** 18

#: most shots one ``interpret`` call or ``run`` command may take: every
#: shot's bit string is kept, about 71 bytes each
MAX_SHOTS = 2 ** 20

#: default loop iteration cap of ``unroll_and_fold`` and ``lower_to_base``
DEFAULT_ITERATION_CAP = 65536
#: default qubit and step limits of ``interpret`` (``ExecOptions``)
DEFAULT_MAX_QUBITS = 26
DEFAULT_STEP_LIMIT = 10_000_000


class ConversionError(QirError):
    """Module or circuit cannot be converted to the requested form."""


class TransformError(QirError):
    """A rewrite cannot be applied; ``reason`` is a stable machine code.

    Reasons used by the transforms:
      AllocationLimit   a qubit array is larger than ``MAX_DECLARED_SIZE``,
                        or an allocation needs a qubit index at or past it
      BadOperand        a gate names one qubit twice
      CapExceeded       a loop ran past the configured iteration cap
      DataDependent     control flow depends on a measurement outcome
      EscapingHandle    a qubit handle flows outside intrinsic arguments,
                        or a constant into an operand whose type
                        cannot spell it: an int or float as ptr, an
                        address as an int or double, a float as an int
      FeedbackRequired  the program is not expressible in the base profile
      OperationLimit    unrolling emits more than ``MAX_OPERATIONS``
                        instructions
      OutputLimit       a module printed by ``unroll`` or ``transpile``
                        is longer than ``MAX_INPUT_CHARS``
      UseAfterRelease   a qubit handle is used or released after its release
    plus precondition codes such as NotStraightLine and
    NonConstantAllocation.
    """

    def __init__(self, reason: str, message: str):
        self.reason = reason
        self.message = message
        super().__init__(f"{reason}: {message}")


class ExecutionError(QirError):
    """Raised while interpreting a module.

    Reasons: UnknownIntrinsic, QubitLimit (also a state that does not
    fit in memory), ReadBeforeMeasure, StepLimit, BadOperand (also a
    rotation angle that is not finite), plus defensive codes such as
    UseAfterRelease.
    """

    def __init__(self, reason: str, message: str,
                 shot: int | None = None, location: str | None = None):
        self.reason = reason
        self.message = message
        self.shot = shot
        self.location = location
        where = ""
        if shot is not None:
            where += f" [shot {shot}]"
        if location is not None:
            where += f" [{location}]"
        super().__init__(f"{reason}: {message}{where}")


def qubit_limit(required: int, limit: int, shot: int = 0) -> ExecutionError:
    """The refusal of a program that requires ``required`` qubits, more
    than ``limit``, at ``shot``."""
    return ExecutionError(
        "QubitLimit", f"module requires {required} qubits, limit is {limit}",
        shot=shot)
