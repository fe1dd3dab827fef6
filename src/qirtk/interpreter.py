"""Shot-based execution of parsed modules on the statevector backend.

``interpret`` compiles the entry function once with the shared
evaluator (``evaluator.py``) over concrete values, and each shot runs
the compiled closures: integers follow two's complement semantics at
their declared width, each call already holds its intrinsic's action and
gate kind and acts on a ``StateVector``, and steps are counted a block
at a time. A fault is raised when a shot reaches it, never while
compiling, with the shot and the ``function:block:index`` of the last
instruction started.

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

from . import intrinsics
from .circuit import GateKind
from .errors import DEFAULT_MAX_QUBITS, DEFAULT_STEP_LIMIT, ExecutionError
from .evaluator import Compiler, Run, raising
from .ir import Call, Load, QirModule, StaticAddr, REQUIRED_QUBITS_ATTR
from .node import node
from .rng import ShotRng


@node
class ExecOptions:
    max_qubits: int = DEFAULT_MAX_QUBITS
    step_limit: int = DEFAULT_STEP_LIMIT


@node
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
        import json
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


@node(frozen=True)
class _Qubit:
    key: tuple


@node
class _Array:
    elements: list


@node(frozen=True)
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
        # static qubit i is index i, as growing a fresh state would give
        from .statevector import StateVector
        self.statevector = StateVector(count)
        self.qubit_indices = {("s", i): i for i in range(count)}

    def qubit_index(self, key: tuple) -> int:
        index = self.qubit_indices.get(key)
        if index is not None:
            return index  # a key in the table was never released
        if key in self.released:
            raise ExecutionError("UseAfterRelease",
                                 "qubit handle used after release")
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


def _qubit_key(value) -> tuple:
    if isinstance(value, StaticAddr):
        return ("s", value.index)
    if isinstance(value, _Qubit):
        return value.key
    raise ExecutionError("BadOperand", "expected a qubit reference")


def _result_key(value) -> tuple:
    if isinstance(value, StaticAddr):
        return ("s", value.index)
    raise ExecutionError("BadOperand", "expected a result reference")


def _angle(value) -> float:
    if isinstance(value, float):
        return value
    if isinstance(value, int):
        return float(value)
    raise ExecutionError("BadOperand", "expected a rotation angle")


def _count(value) -> int:
    if not isinstance(value, int):
        raise ExecutionError("BadOperand", "expected an integer")
    return value


def _array(value) -> "_ArrayRef":
    if not isinstance(value, _ArrayRef):
        raise ExecutionError("BadOperand", "expected an array handle")
    return value


class _ShotCompiler(Compiler):
    """Execution: every value is concrete and calls act on the state.
    Errors are raised without a shot or location; ``run_shot`` adds both.
    """

    ERROR = ExecutionError
    FAULTS = {
        "undefined": ("BadOperand", "%{0} read before assignment"),
        "unset_slot": ("BadOperand", "load from an uninitialized slot"),
        "entry_phi": ("BadOperand", "phi nodes in the entry block"),
        "phi_edge": ("BadOperand", "phi %{0} has no incoming for {1!r}"),
        "cond": ("BadOperand", "expected an integer value"),
        "terminator": ("BadOperand", "block has no terminator"),
        "label": ("BadOperand", "branch to unknown label {0!r}"),
        "opcode": ("BadOperand", "cannot execute {0}"),
        "step_limit": ("StepLimit", "exceeded {0} steps"),
    }

    def _residual(self, env, instr, operands):
        raise self._error("BadOperand", "expected an integer value")

    def _store_through(self, state: RuntimeState, pointer, value) -> None:
        if not isinstance(pointer, _ElemPtr):
            raise self._error("BadOperand", "store through a non-pointer")
        state.arrays[pointer.array].elements[pointer.index] = value

    def _load_through(self, state: RuntimeState, pointer, instr: Load):
        if not isinstance(pointer, _ElemPtr):
            raise self._error("BadOperand", "load through a non-pointer")
        return state.arrays[pointer.array].elements[pointer.index]

    def _call(self, instr: Call):
        spec = intrinsics.lookup(instr.callee)
        if spec is None:
            return raising(self._error, "UnknownIntrinsic",
                           f"@{instr.callee} is not a runtime intrinsic")
        if len(instr.args) != len(spec.arg_kinds):
            return raising(
                self._error, "BadOperand",
                f"@{instr.callee} expects {len(spec.arg_kinds)} arguments")
        keys = [self._key(a.value) for a in instr.args]
        if spec.action == intrinsics.GATE:
            op = _gate(spec.gate, keys)
        else:
            op = _action(_ACTIONS[spec.action],
                         [_CONVERTERS[kind] for kind in spec.arg_kinds], keys)
        result = instr.result
        if result is None:
            return op

        def call(env, state):
            env[result] = op(env, state)
        return call


def _action(run, converters, keys):
    def op(env, state):  # every operand is read before the first converts
        args = list(map(env.__getitem__, keys))
        return run(state, *[convert(arg) for convert, arg
                            in zip(converters, args)])
    return op


def _gate(gate: GateKind, keys):
    n = gate.num_params  # read all operands, then convert angles, then qubits

    def op(env, state):
        args = list(map(env.__getitem__, keys))
        params = tuple(map(_angle, args[:n])) if n else ()
        targets = tuple(map(state.qubit_index, map(_qubit_key, args[n:])))
        if len(targets) > 1 and len(set(targets)) != len(targets):
            raise ExecutionError("BadOperand",
                                 "duplicate qubit operand in a gate")
        state.statevector.apply_gate_inplace(gate, params, targets)
    return op


def _same(value):
    return value


#: operand kind (``intrinsics.arg_kinds``) -> its conversion
_CONVERTERS = {
    intrinsics.QUBIT_ARG: _qubit_key,
    intrinsics.RESULT_ARG: _result_key,
    intrinsics.ANGLE_ARG: _angle,
    intrinsics.INT_ARG: _count,
    intrinsics.ARRAY_ARG: _array,
    intrinsics.LABEL_ARG: _same,
}


def _allocate_array(state: RuntimeState, size: int) -> "_ArrayRef":
    array = _Array([state.allocate_dynamic() for _ in range(size)])
    state.arrays.append(array)
    return _ArrayRef(len(state.arrays) - 1)


def _get_element(state: RuntimeState, array_ref: "_ArrayRef",
                 index: int) -> _ElemPtr:
    array = state.arrays[array_ref.id]
    if not 0 <= index < len(array.elements):
        raise ExecutionError(
            "BadOperand", f"array index {index} out of bounds "
                          f"({len(array.elements)} elements)")
    return _ElemPtr(array_ref.id, index)


def _release_array(state: RuntimeState, array_ref: "_ArrayRef") -> None:
    for element in state.arrays[array_ref.id].elements:
        if isinstance(element, _Qubit):
            state.release(element.key)


#: action -> what the call does with its converted operands; an array's
#: length is a marker only, its bits come per result
_ACTIONS = {
    intrinsics.MEASURE: RuntimeState.measure,
    intrinsics.RESET: RuntimeState.reset,
    intrinsics.ALLOCATE: RuntimeState.allocate_dynamic,
    intrinsics.ALLOCATE_ARRAY: _allocate_array,
    intrinsics.GET_ELEMENT: _get_element,
    intrinsics.RELEASE: RuntimeState.release,
    intrinsics.RELEASE_ARRAY: _release_array,
    intrinsics.READ_RESULT: RuntimeState.read_result,
    intrinsics.RECORD: lambda state, key, label: state.record_result(key),
    intrinsics.RECORD_ARRAY: lambda state, *args: None,
}


@node(frozen=True)
class _ArrayRef:
    id: int


def run_shot(module: QirModule, seed: int = 0, shot_index: int = 0,
             options: ExecOptions | None = None,
             program: Compiler | None = None) -> tuple[str, RuntimeState]:
    """Execute one shot; returns (bitstring, final runtime state).

    ``program`` is the module's entry compiled by ``interpret``, which
    compiles it once for all shots; it is compiled here when not given.
    Exposed for inspection: the returned state carries the statevector as
    left by the program, before any of the cross-shot aggregation.
    """
    options = options or ExecOptions()
    state = RuntimeState(ShotRng(seed, shot_index), options)
    required = module.required_count(REQUIRED_QUBITS_ATTR)
    if required and required > options.max_qubits:
        raise ExecutionError(
            "QubitLimit", f"module requires {required} qubits, limit is "
            f"{options.max_qubits}", shot=shot_index)
    run = Run(program or _ShotCompiler(module.entry).compile(), state)
    try:
        if required:
            state.presize(required)
        run.run(options.step_limit)
    except ExecutionError as err:
        raise ExecutionError(err.reason, err.message, shot=shot_index,
                             location=run.location) from None
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
    program = _ShotCompiler(module.entry).compile() if shots else None
    for shot in range(shots):
        bits, _ = run_shot(module, seed, shot, options, program=program)
        memory.append(bits)
        counts[bits] = counts.get(bits, 0) + 1
    return ExecutionResult(shots, seed, memory, counts)
