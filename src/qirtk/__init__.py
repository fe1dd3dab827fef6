"""Toolkit for textual QIR: parse, validate, transform, transpile, run.

The pieces compose three pathways for working with quantum programs:
converting them into a flat circuit representation, rewriting the
module text directly (unrolling, static qubit addressing, lowering),
and executing them on a statevector-simulator-backed interpreter.

Every public name is resolved on first use, so importing the package
loads only ``errors``, and each layer (numpy too) is loaded when a name
from it is first needed.
"""

from importlib import import_module

from .errors import (ConversionError, ExecutionError, ParseError, QirError,
                     TransformError)

#: public name -> the module that defines it, imported on first use
_MODULES = {
    "circuit_from_base_qir": "bridge", "circuit_to_base_qir": "bridge",
    "export_openqasm2": "bridge",
    "CircuitOp": "circuit", "Gate": "circuit", "GateKind": "circuit",
    "Measure": "circuit", "QuantumCircuit": "circuit", "Reset": "circuit",
    "ExecOptions": "interpreter", "ExecutionResult": "interpreter",
    "RuntimeState": "interpreter", "interpret": "interpreter",
    "run_shot": "interpreter",
    "intrinsic_table": "intrinsics",
    "QirModule": "ir", "StaticAddr": "ir",
    "parse_module": "parser",
    "print_module": "printer",
    "Profile": "profile", "ProfileReport": "profile",
    "Violation": "profile", "validate_profile": "profile",
    "import_openqasm2": "qasm2",
    "StateVector": "statevector", "apply_gate": "statevector",
    "allocate_static_addresses": "transforms", "lower_to_base": "transforms",
    "unroll_and_fold": "transforms",
}

__all__ = sorted([*_MODULES, "ConversionError", "ExecutionError",
                  "ParseError", "QirError", "TransformError"])

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
