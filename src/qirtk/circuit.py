"""Flat gate-level circuits; the gate set is ``intrinsics.GateKind``.

A circuit is a qubit count, a classical bit count, and an ordered tuple of
ops. Like every node it is frozen, so it is validated once, when it is
built, and every reader can trust it; a circuit the bridge reads from a
base module is proven by the module's profile report instead, and one
the OpenQASM 2 importer reads by the importer's checks as it reads.
Output bitstrings print clbit 0 leftmost.
"""

from __future__ import annotations

from .intrinsics import GateKind
from .node import node


@node
class Gate:
    kind: GateKind
    params: tuple[float, ...]
    qubits: tuple[int, ...]


@node
class Measure:
    qubit: int
    clbit: int


@node
class Reset:
    qubit: int


CircuitOp = Gate | Measure | Reset


@node
class QuantumCircuit:
    num_qubits: int
    num_clbits: int
    ops: tuple[CircuitOp, ...] = ()

    def __post_init__(self):
        """Store ``ops`` as a tuple, then check counts and per-op arity and
        range; raises ValueError."""
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.num_qubits < 0 or self.num_clbits < 0:
            raise ValueError("negative register size")
        for op in self.ops:
            if isinstance(op, Gate):
                if len(op.qubits) != op.kind.num_qubits:
                    raise ValueError(
                        f"{op.kind.value} expects {op.kind.num_qubits} "
                        f"qubits, got {len(op.qubits)}")
                if len(op.params) != op.kind.num_params:
                    raise ValueError(
                        f"{op.kind.value} expects {op.kind.num_params} "
                        f"parameters, got {len(op.params)}")
                if len(set(op.qubits)) != len(op.qubits):
                    raise ValueError(
                        f"duplicate qubit operand in {op.kind.value}")
                self._check_qubits(op.qubits)
            elif isinstance(op, Measure):
                self._check_qubits((op.qubit,))
                if not 0 <= op.clbit < self.num_clbits:
                    raise ValueError(f"clbit {op.clbit} out of range")
            elif isinstance(op, Reset):
                self._check_qubits((op.qubit,))
            else:
                raise ValueError(f"unknown circuit op {op!r}")

    @classmethod
    def _proven(cls, num_qubits, num_clbits, ops) -> QuantumCircuit:
        """A circuit known to pass ``__post_init__``, built without it."""
        circuit = object.__new__(cls)
        for name, value in zip(cls._fields, (num_qubits, num_clbits, ops)):
            object.__setattr__(circuit, name, value)
        return circuit

    def _check_qubits(self, qubits: tuple[int, ...]) -> None:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range")
