"""Toolkit for textual QIR: parse, validate, transform, transpile, run.

The pieces compose three pathways for working with quantum programs:
converting them into a flat circuit representation, rewriting the
module text directly (unrolling, static qubit addressing, lowering),
and executing them on a statevector-simulator-backed interpreter.

``StateVector`` and ``apply_gate`` are resolved on first use, so importing
the package does not load numpy until a statevector is needed.
"""

from .bridge import circuit_from_base_qir, circuit_to_base_qir
from .circuit import (CircuitOp, Gate, GateKind, Measure, QuantumCircuit,
                      Reset)
from .errors import (ConversionError, ExecutionError, ParseError, QirError,
                     TransformError)
from .interpreter import (ExecOptions, ExecutionResult, RuntimeState,
                          interpret, run_shot)
from .intrinsics import intrinsic_table
from .ir import QirModule, StaticAddr
from .parser import parse_module
from .printer import print_module
from .profile import Profile, ProfileReport, Violation, validate_profile
from .qasm2 import export_openqasm2, import_openqasm2
from .transforms import (allocate_static_addresses, lower_to_base,
                         unroll_and_fold)

__all__ = [
    "CircuitOp",
    "ConversionError",
    "ExecOptions",
    "ExecutionError",
    "ExecutionResult",
    "Gate",
    "GateKind",
    "Measure",
    "ParseError",
    "Profile",
    "ProfileReport",
    "QirError",
    "QirModule",
    "QuantumCircuit",
    "Reset",
    "RuntimeState",
    "StateVector",
    "StaticAddr",
    "TransformError",
    "Violation",
    "allocate_static_addresses",
    "apply_gate",
    "circuit_from_base_qir",
    "circuit_to_base_qir",
    "export_openqasm2",
    "import_openqasm2",
    "interpret",
    "intrinsic_table",
    "lower_to_base",
    "parse_module",
    "print_module",
    "run_shot",
    "unroll_and_fold",
    "validate_profile",
]

__version__ = "0.1.0"

_STATEVECTOR_NAMES = ("StateVector", "apply_gate")


def __getattr__(name: str):
    if name in _STATEVECTOR_NAMES:
        from . import statevector
        return getattr(statevector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
