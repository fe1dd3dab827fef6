"""Shot-based execution of parsed modules on the statevector backend.

Per shot the interpreter runs the shared evaluator (``evaluator.py``)
over concrete values: phi nodes resolve against the predecessor label,
integers follow two's complement semantics at their declared width, and
quantum intrinsics dispatch through the intrinsic table onto a
``StateVector``.

Qubit bookkeeping mirrors the static allocator so that a lowered module
reproduces the original shot for shot: simulator indices are handed out
first-fit (lowest free index first, growing the state only when no freed
index is available), and releasing a qubit returns its index without
scrubbing it. Programs are expected to reset qubits before release, as
usual for quantum runtimes; the state a sloppy program leaks into a
reused index is identical pre and post lowering, so outcomes still agree.

Results live in a classical table. Reading a result before its
measurement is an error; recording one is not, and yields 0, matching
classical registers that initialize to zero.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

from . import intrinsics
from .circuit import GateKind
from .errors import ExecutionError
from .evaluator import Evaluator
from .ir import Call, Load, QirModule, StaticAddr, REQUIRED_QUBITS_ATTR
from .rng import ShotRng

DEFAULT_MAX_QUBITS = 26
DEFAULT_STEP_LIMIT = 10_000_000


@dataclass
class ExecOptions:
    max_qubits: int = DEFAULT_MAX_QUBITS
    step_limit: int = DEFAULT_STEP_LIMIT


@dataclass
class ExecutionResult:
    """Aggregated run: per-shot bitstrings plus their histogram.

    Bitstrings list recorded bits in recording order; modules emitted by
    this toolkit record ascending result indices, so result 0 prints
    leftmost.
    """

    shots: int
    seed: int
    memory: list[str]
    counts: dict[str, int]

    def to_json(self, include_memory: bool = False) -> str:
        payload = {
            "shots": self.shots,
            "seed": self.seed,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "bit_order": "clbit0-leftmost",
        }
        if include_memory:
            payload["memory"] = list(self.memory)
        return json.dumps(payload, indent=2)


# runtime values for ptr-typed registers


@dataclass(frozen=True)
class _Qubit:
    key: tuple


@dataclass
class _Array:
    elements: list


@dataclass(frozen=True)
class _ElemPtr:
    array: int  # id into RuntimeState.arrays
    index: int


class RuntimeState:
    """Mutable per-shot state: statevector, tables, RNG, record buffer."""

    def __init__(self, rng: ShotRng, options: ExecOptions):
        self.rng = rng
        self.options = options
        # imported here, not at module level, so that commands which never
        # build a state (validate, transpile) do not load numpy
        from .statevector import StateVector
        self.statevector = StateVector(0)
        self.qubit_indices: dict[tuple, int] = {}
        self.free_indices: list[int] = []
        self.released: set[tuple] = set()
        self.results: dict[tuple, int] = {}
        self.record: list[int] = []
        self.arrays: list[_Array] = []
        self.slots: list = []
        self.steps = 0
        self.next_dynamic = 0

    # ------------------------------------------------------------------
    # qubit table

    def presize(self, count: int) -> None:
        for i in range(count):
            self.qubit_index(("s", i))

    def qubit_index(self, key: tuple) -> int:
        if key in self.released:
            raise ExecutionError("UseAfterRelease",
                                 "qubit handle used after release")
        index = self.qubit_indices.get(key)
        if index is None:
            index = self._take_index()
            self.qubit_indices[key] = index
        return index

    def _take_index(self) -> int:
        if self.free_indices:
            return heapq.heappop(self.free_indices)
        if self.statevector.num_qubits >= self.options.max_qubits:
            raise ExecutionError(
                "QubitLimit",
                f"simulation needs more than {self.options.max_qubits} "
                "qubits")
        return self.statevector.grow()

    def allocate_dynamic(self) -> _Qubit:
        key = ("d", self.next_dynamic)
        self.next_dynamic += 1
        self.qubit_index(key)
        return _Qubit(key)

    def release(self, key: tuple) -> None:
        index = self.qubit_indices.pop(key, None)
        if index is None or key in self.released:
            raise ExecutionError("UseAfterRelease",
                                 "release of an unknown or released handle")
        self.released.add(key)
        heapq.heappush(self.free_indices, index)

    # ------------------------------------------------------------------
    # measurement and recording

    def measure(self, qubit_key: tuple, result_key: tuple) -> None:
        index = self.qubit_index(qubit_key)
        outcome = self.statevector.measure(index, self.rng.next_double())
        self.results[result_key] = outcome

    def reset(self, qubit_key: tuple) -> None:
        index = self.qubit_index(qubit_key)
        outcome = self.statevector.measure(index, self.rng.next_double())
        if outcome == 1:
            self.statevector.apply_gate_inplace(GateKind.X, (), (index,))

    def read_result(self, result_key: tuple) -> int:
        bit = self.results.get(result_key)
        if bit is None:
            raise ExecutionError(
                "ReadBeforeMeasure",
                f"result {result_key[1]} read before it was measured")
        return bit

    def record_result(self, result_key: tuple) -> None:
        # unmeasured results record as 0, like zero-initialized registers
        self.record.append(self.results.get(result_key, 0))


class _ShotInterpreter(Evaluator):
    """Execution: every value is concrete and calls act on the state.

    Errors are raised without a shot or location; ``run`` adds both.
    """

    ERROR = ExecutionError
    FAULTS = {
        "undefined": ("BadOperand", "%{0} read before assignment"),
        "unset_slot": ("BadOperand", "load from an uninitialized slot"),
        "entry_phi": ("BadOperand", "phi nodes in the entry block"),
        "phi_edge": ("BadOperand", "phi %{0} has no incoming for {1!r}"),
        "cond": ("BadOperand", "expected an integer value"),
        "terminator": ("BadOperand", "block has no terminator"),
        "opcode": ("BadOperand", "cannot execute {0}"),
    }

    def __init__(self, module: QirModule, state: RuntimeState,
                 shot_index: int):
        super().__init__(module.entry)
        self.module = module
        self.state = state
        self.shot = shot_index
        self.slots = state.slots

    def run(self) -> None:
        try:
            required = self.module.required_count(REQUIRED_QUBITS_ATTR)
            if required:
                if required > self.state.options.max_qubits:
                    raise ExecutionError(
                        "QubitLimit",
                        f"module requires {required} qubits, limit is "
                        f"{self.state.options.max_qubits}", shot=self.shot)
                self.state.presize(required)
            super().run()
        except ExecutionError as err:
            if err.shot is None:
                raise ExecutionError(
                    err.reason, err.message, shot=self.shot,
                    location=err.location or self.location) from None
            raise

    def _step(self) -> None:
        self.state.steps += 1
        if self.state.steps > self.state.options.step_limit:
            raise self._error(
                "StepLimit",
                f"exceeded {self.state.options.step_limit} steps")

    def _residual(self, instr, **operand_types):
        raise self._error("BadOperand", "expected an integer value")

    def _store_through(self, pointer, value) -> None:
        if not isinstance(pointer, _ElemPtr):
            raise self._error("BadOperand", "store through a non-pointer")
        self.state.arrays[pointer.array].elements[pointer.index] = value

    def _load_through(self, pointer, instr: Load):
        if not isinstance(pointer, _ElemPtr):
            raise self._error("BadOperand", "load through a non-pointer")
        return self.state.arrays[pointer.array].elements[pointer.index]

    # ------------------------------------------------------------------

    def _call(self, instr: Call) -> None:
        spec = intrinsics.lookup(instr.callee)
        if spec is None:
            raise self._error(
                "UnknownIntrinsic",
                f"@{instr.callee} is not a runtime intrinsic")
        if len(instr.args) != len(spec.arg_kinds):
            raise self._error(
                "BadOperand",
                f"@{instr.callee} expects {len(spec.arg_kinds)} arguments")
        out = self._dispatch(spec, [self._value(a.value)
                                    for a in instr.args])
        if instr.result is not None:
            self.env[instr.result] = out

    def _qubit_key(self, value) -> tuple:
        if isinstance(value, _Qubit):
            return value.key
        if isinstance(value, StaticAddr):
            return ("s", value.index)
        raise self._error("BadOperand", "expected a qubit reference")

    def _result_key(self, value) -> tuple:
        if isinstance(value, StaticAddr):
            return ("s", value.index)
        raise self._error("BadOperand", "expected a result reference")

    def _dispatch(self, spec: intrinsics.IntrinsicSpec, args: list):
        state = self.state
        action = spec.action
        if action == intrinsics.GATE:
            gate = spec.gate
            assert gate is not None
            params = tuple(self._angle(a)
                           for a in args[:gate.num_params])
            targets = tuple(
                state.qubit_index(self._qubit_key(a))
                for a in args[gate.num_params:])
            if len(set(targets)) != len(targets):
                raise self._error("BadOperand",
                                  "duplicate qubit operand in a gate")
            state.statevector.apply_gate_inplace(gate, params, targets)
            return None
        if action == intrinsics.MEASURE:
            state.measure(self._qubit_key(args[0]),
                          self._result_key(args[1]))
            return None
        if action == intrinsics.RESET:
            state.reset(self._qubit_key(args[0]))
            return None
        if action == intrinsics.ALLOCATE:
            return state.allocate_dynamic()
        if action == intrinsics.ALLOCATE_ARRAY:
            size = self._count(args[0])
            array = _Array([state.allocate_dynamic() for _ in range(size)])
            state.arrays.append(array)
            return _ArrayRef(len(state.arrays) - 1)
        if action == intrinsics.GET_ELEMENT:
            array_ref = args[0]
            if not isinstance(array_ref, _ArrayRef):
                raise self._error("BadOperand", "expected an array handle")
            index = self._count(args[1])
            array = state.arrays[array_ref.id]
            if not 0 <= index < len(array.elements):
                raise self._error(
                    "BadOperand",
                    f"array index {index} out of bounds "
                    f"({len(array.elements)} elements)")
            return _ElemPtr(array_ref.id, index)
        if action == intrinsics.RELEASE:
            state.release(self._qubit_key(args[0]))
            return None
        if action == intrinsics.RELEASE_ARRAY:
            array_ref = args[0]
            if not isinstance(array_ref, _ArrayRef):
                raise self._error("BadOperand", "expected an array handle")
            for element in state.arrays[array_ref.id].elements:
                if isinstance(element, _Qubit):
                    state.release(element.key)
            return None
        if action == intrinsics.READ_RESULT:
            return state.read_result(self._result_key(args[0]))
        if action == intrinsics.RECORD:
            state.record_result(self._result_key(args[0]))
            return None
        if action == intrinsics.RECORD_ARRAY:
            self._count(args[0])  # length marker only; bits come per result
            return None
        raise self._error("UnknownIntrinsic",
                          f"unhandled intrinsic action {action!r}")

    def _angle(self, value) -> float:
        if isinstance(value, float):
            return value
        if isinstance(value, int):
            return float(value)
        raise self._error("BadOperand", "expected a rotation angle")

    def _count(self, value) -> int:
        if not isinstance(value, int):
            raise self._error("BadOperand", "expected an integer")
        return value


@dataclass(frozen=True)
class _ArrayRef:
    id: int


def run_shot(module: QirModule, seed: int = 0, shot_index: int = 0,
             options: ExecOptions | None = None) -> tuple[str, RuntimeState]:
    """Execute one shot; returns (bitstring, final runtime state).

    Exposed for inspection: the returned state carries the statevector as
    left by the program, before any of the cross-shot aggregation.
    """
    options = options or ExecOptions()
    state = RuntimeState(ShotRng(seed, shot_index), options)
    _ShotInterpreter(module, state, shot_index).run()
    return "".join(str(b) for b in state.record), state


def interpret(module: QirModule, shots: int = 1024, seed: int = 0,
              options: ExecOptions | None = None) -> ExecutionResult:
    """Run ``shots`` independent shots and aggregate the counts.

    Shot streams derive from (seed, shot index) only, so any execution
    order, including a parallel one, yields identical results.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    options = options or ExecOptions()
    memory: list[str] = []
    counts: dict[str, int] = {}
    for shot in range(shots):
        bits, _ = run_shot(module, seed, shot, options)
        memory.append(bits)
        counts[bits] = counts.get(bits, 0) + 1
    return ExecutionResult(shots, seed, memory, counts)
