"""Catalog of the quantum runtime symbols the toolkit understands.

Each entry records the semantic action, the operand kinds (which also fix
how constant pointer arguments are read: a ``null`` in a result position is
result 0, in a qubit position qubit 0), and the declared signature. Label
operands carry output-tag strings in full runtimes; this toolkit accepts
and ignores them.
"""

from __future__ import annotations

from .circuit import GateKind
from .ir import DOUBLE, I1, I64, PTR, VOID, FuncDecl, Type
from .node import node

QUBIT_ARG = "qubit"
RESULT_ARG = "result"
ANGLE_ARG = "angle"
INT_ARG = "int"
ARRAY_ARG = "array"
LABEL_ARG = "label"

GATE = "gate"
MEASURE = "measure"
RESET = "reset"
ALLOCATE = "allocate"
ALLOCATE_ARRAY = "allocate_array"
GET_ELEMENT = "get_element"
RELEASE = "release"
RELEASE_ARRAY = "release_array"
READ_RESULT = "read_result"
RECORD = "record"
RECORD_ARRAY = "record_array"

#: actions that may appear in a base-profile tail, after the measurements
BASE_RECORD_ACTIONS = frozenset({RECORD, RECORD_ARRAY})


@node
class IntrinsicSpec:
    name: str
    action: str
    arg_kinds: tuple[str, ...]
    ret_type: Type = VOID
    gate: GateKind | None = None
    # positions of the qubit, result and angle operands, set from
    # arg_kinds, so that a reader of a call indexes its operands
    qubit_at: tuple[int, ...] = ()
    result_at: tuple[int, ...] = ()
    angle_at: tuple[int, ...] = ()

    def __post_init__(self):
        for field, kind in (("qubit_at", QUBIT_ARG),
                            ("result_at", RESULT_ARG),
                            ("angle_at", ANGLE_ARG)):
            object.__setattr__(self, field, tuple(
                [i for i, k in enumerate(self.arg_kinds) if k == kind]))


def _gate(name: str, kind: GateKind) -> IntrinsicSpec:
    kinds: tuple[str, ...] = (ANGLE_ARG,) * kind.num_params
    kinds += (QUBIT_ARG,) * kind.num_qubits
    return IntrinsicSpec(name, GATE, kinds, VOID, kind)


_SPECS = [
    _gate("__quantum__qis__h__body", GateKind.H),
    _gate("__quantum__qis__x__body", GateKind.X),
    _gate("__quantum__qis__y__body", GateKind.Y),
    _gate("__quantum__qis__z__body", GateKind.Z),
    _gate("__quantum__qis__s__body", GateKind.S),
    _gate("__quantum__qis__s_adj__body", GateKind.SDG),
    _gate("__quantum__qis__t__body", GateKind.T),
    _gate("__quantum__qis__t_adj__body", GateKind.TDG),
    _gate("__quantum__qis__rx__body", GateKind.RX),
    _gate("__quantum__qis__ry__body", GateKind.RY),
    _gate("__quantum__qis__rz__body", GateKind.RZ),
    _gate("__quantum__qis__cnot__body", GateKind.CNOT),
    _gate("__quantum__qis__cz__body", GateKind.CZ),
    _gate("__quantum__qis__swap__body", GateKind.SWAP),
    _gate("__quantum__qis__ccx__body", GateKind.CCX),
    IntrinsicSpec("__quantum__qis__mz__body", MEASURE,
                  (QUBIT_ARG, RESULT_ARG)),
    IntrinsicSpec("__quantum__qis__reset__body", RESET, (QUBIT_ARG,)),
    IntrinsicSpec("__quantum__rt__qubit_allocate", ALLOCATE, (), PTR),
    IntrinsicSpec("__quantum__rt__qubit_allocate_array", ALLOCATE_ARRAY,
                  (INT_ARG,), PTR),
    IntrinsicSpec("__quantum__rt__array_get_element_ptr_1d", GET_ELEMENT,
                  (ARRAY_ARG, INT_ARG), PTR),
    IntrinsicSpec("__quantum__rt__qubit_release", RELEASE, (QUBIT_ARG,)),
    IntrinsicSpec("__quantum__rt__qubit_release_array", RELEASE_ARRAY,
                  (ARRAY_ARG,)),
    IntrinsicSpec("__quantum__rt__read_result", READ_RESULT,
                  (RESULT_ARG,), I1),
    IntrinsicSpec("__quantum__rt__result_record_output", RECORD,
                  (RESULT_ARG, LABEL_ARG)),
    IntrinsicSpec("__quantum__rt__array_record_output", RECORD_ARRAY,
                  (INT_ARG, LABEL_ARG)),
]

_TABLE: dict[str, IntrinsicSpec] = {s.name: s for s in _SPECS}

_GATE_NAME: dict[GateKind, str] = {
    s.gate: s.name for s in _SPECS if s.gate is not None
}

_ARG_TYPES: dict[str, Type] = {
    QUBIT_ARG: PTR,
    RESULT_ARG: PTR,
    ARRAY_ARG: PTR,
    LABEL_ARG: PTR,
    ANGLE_ARG: DOUBLE,
    INT_ARG: I64,
}


def intrinsic_table() -> dict[str, IntrinsicSpec]:
    """Map from mangled symbol name to its semantic description."""
    return dict(_TABLE)


def lookup(name: str) -> IntrinsicSpec | None:
    return _TABLE.get(name)


def gate_intrinsic_name(kind: GateKind) -> str:
    return _GATE_NAME[kind]


def declaration_for(name: str) -> FuncDecl:
    spec = _TABLE[name]
    return FuncDecl(name, tuple(_ARG_TYPES[k] for k in spec.arg_kinds),
                    spec.ret_type)
