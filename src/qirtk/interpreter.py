"""Shot-based execution of parsed modules on the statevector backend.

``interpret`` compiles the entry function once with the shared
evaluator (``evaluator.py``) over concrete values, and each shot runs
the compiled closures: integers follow two's complement semantics at
their declared width, each call already holds its intrinsic's action and
gate kind and acts on a ``StateVector``, and steps are counted a block
at a time. A fault is raised when a shot reaches it, never while
compiling, with the shot and the ``function:block:index`` of the last
instruction started.

A call converts its constant operands once, when it is compiled: an
action whose operands are all constants holds them converted, and a
one- or two-qubit gate whose angles are constants holds its ``params``
and converts and indexes only its qubits per run. A constant that does
not convert (a global in a qubit slot, an angle that is not finite)
leaves its call to the generic closure, which converts every operand
per run, so its fault is raised where it always was. Indexing stays per
run, because a static qubit takes its index when the state first grows
for it.

Only draws (``mz`` and ``reset``) depend on the shot, so the part of a
run before its first draw is the same for every shot. ``interpret`` runs
it once, into a template: a state with no stream raises
``evaluator.Pause`` at a draw, so the template's run stops there, before
the draw's call; each shot but the last runs on from a fork of the
template (``_fork``) with its own ``ShotRng``, and the last from the
template itself. A multi-shot run holds at most two states of the
program's width, the template and one shot's, and a one-shot run copies
nothing. ``run_shot`` without a template runs a shot from the start: it
is the reference that every shot of ``interpret`` matches in bits,
steps and errors.

Qubit bookkeeping follows one rule, the static allocator's, so that a
lowered module reproduces the original shot for shot: a dynamically
allocated qubit takes the lowest index a release gave back, and grows
the state only when none is free; a static qubit grows the state on its
first use and never takes a released index, and releasing it does
nothing. Releasing a qubit gives back its index without scrubbing it.
Programs are expected to reset qubits before release, as usual for
quantum runtimes; the state a sloppy program leaks into a reused index
is the same before and after lowering.

Results live in a classical table. Reading a result before its
measurement is an error; recording one is not, and yields 0, matching
classical registers that initialize to zero.

A ptr-typed register holds a static address, a ``Qubit``, an array (the
list of its elements) or an ``ElemPtr``. ``ExecOptions``,
``ExecutionResult`` and ``ElemPtr`` are frozen nodes, like every node.
"""

from __future__ import annotations

from math import isfinite

from . import intrinsics
from .errors import (DEFAULT_MAX_QUBITS, DEFAULT_STEP_LIMIT, MAX_SHOTS,
                     ExecutionError, qubit_limit)
from .evaluator import (Compiler, ElemPtr, IndexPool, Pause, Qubit, Run,
                        duplicate_operand, raising)
from .intrinsics import GateKind
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


class RuntimeState:
    """Mutable per-shot state: statevector, tables, RNG, record buffer."""

    def __init__(self, rng: ShotRng, options: ExecOptions,
                 num_qubits: int = 0):
        self.rng = rng
        self.options = options
        # imported here, not at module level, so that commands which never
        # build a state (validate, transpile) do not load numpy
        from .statevector import StateVector
        self.statevector = StateVector(num_qubits)
        # static qubit -> index; static qubit i below ``num_qubits`` is
        # index i, as growing a fresh state would give
        self.qubit_indices = {i: i for i in range(num_qubits)}
        self.pool = IndexPool()
        self.results: dict[int, int] = {}
        self.record: list[int] = []
        self.slots: list = []
        self.steps = 0

    def fork(self, copy) -> RuntimeState:
        """A copy of this state with no stream; ``copy`` copies each
        slot's value."""
        new = RuntimeState.__new__(RuntimeState)
        new.rng, new.options = None, self.options
        new.statevector = self.statevector.copy()
        new.qubit_indices = self.qubit_indices.copy()
        new.pool = IndexPool()
        new.pool.free = self.pool.free.copy()
        new.results = self.results.copy()
        new.record = self.record.copy()
        new.slots = list(map(copy, self.slots))
        new.steps = self.steps
        return new

    # ------------------------------------------------------------------
    # qubit table

    def qubit_index(self, qubit) -> int:
        if isinstance(qubit, Qubit):
            return qubit.live(ExecutionError)
        index = self.qubit_indices.get(qubit.index)
        if index is None:
            index = self.qubit_indices[qubit.index] = self._grow()
        return index

    def _grow(self) -> int:
        if self.statevector.num_qubits >= self.options.max_qubits:
            raise ExecutionError(
                "QubitLimit",
                f"simulation needs more than {self.options.max_qubits} "
                "qubits")
        return self.statevector.grow()

    def allocate_dynamic(self) -> Qubit:
        return Qubit(self.pool.take(self._grow))

    def release(self, qubit) -> None:
        if isinstance(qubit, Qubit):
            self.pool.release(qubit, ExecutionError)

    # ------------------------------------------------------------------
    # measurement and recording

    def measure(self, qubit, result: int) -> None:
        if self.rng is None:  # a template's state: the draw is the shot's
            raise Pause
        index = self.qubit_index(qubit)
        outcome = self.statevector.measure(index, self.rng.next_double())
        self.results[result] = outcome

    def reset(self, qubit) -> None:
        if self.rng is None:
            raise Pause
        index = self.qubit_index(qubit)
        outcome = self.statevector.measure(index, self.rng.next_double())
        if outcome == 1:
            self.statevector.apply_gate_inplace(GateKind.X, (), (index,))

    def read_result(self, result: int) -> int:
        bit = self.results.get(result)
        if bit is None:
            raise ExecutionError(
                "ReadBeforeMeasure",
                f"result {result} read before it was measured")
        return bit

    def record_result(self, result: int) -> None:
        # unmeasured results record as 0, like zero-initialized registers
        self.record.append(self.results.get(result, 0))


def _qubit(value):
    if isinstance(value, (StaticAddr, Qubit)):
        return value
    raise ExecutionError("BadOperand", "expected a qubit reference")


def _result(value) -> int:
    if isinstance(value, StaticAddr):
        return value.index
    raise ExecutionError("BadOperand", "expected a result reference")


def _angle(value) -> float:
    if isinstance(value, int):
        value = float(value)
    if not isinstance(value, float):
        raise ExecutionError("BadOperand", "expected a rotation angle")
    if not isfinite(value):
        raise ExecutionError("BadOperand",
                             f"rotation angle {value!r} is not finite")
    return value


def _count(value) -> int:
    if not isinstance(value, int):
        raise ExecutionError("BadOperand", "expected an integer")
    return value


def _array(value) -> list:
    if not isinstance(value, list):
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
        if not isinstance(pointer, ElemPtr):
            raise self._error("BadOperand", "store through a non-pointer")
        pointer.array[pointer.index] = value

    def _load_through(self, state: RuntimeState, pointer, instr: Load):
        if not isinstance(pointer, ElemPtr):
            raise self._error("BadOperand", "load through a non-pointer")
        return pointer.array[pointer.index]

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
            op = self._gate(spec.gate, keys)
        else:
            op = self._action(_ACTIONS[spec.action],
                              [_CONVERTERS[kind] for kind in spec.arg_kinds],
                              keys)
        result = instr.result
        if result is None:
            return op

        def call(env, state):
            env[result] = op(env, state)
        return call

    def _converted(self, converters, keys) -> tuple | None:
        """The operands at ``keys`` converted now, or None when one is not
        a constant or does not convert; its fault is then raised when a
        run reaches the call."""
        try:
            return tuple([convert(self.constants[key])
                          for convert, key in zip(converters, keys)])
        except (KeyError, ExecutionError):
            return None

    def _action(self, run, converters, keys):
        """``run(state, *operands)``, each operand converted."""
        known = self._converted(converters, keys)
        if known is not None:
            return lambda env, state: run(state, *known)

        def op(env, state):  # every operand is read before the first converts
            args = list(map(env.__getitem__, keys))
            return run(state, *[convert(arg) for convert, arg
                                in zip(converters, args)])
        return op

    def _gate(self, gate: GateKind, keys):
        """A gate with constant angles on one or two qubits gets its own
        closure; any other goes through ``_action``. Either converts the
        angles first, then each qubit and its index in turn."""
        n, qubits = gate.num_params, keys[gate.num_params:]
        params = self._converted([_angle] * n, keys[:n])
        if params is None or len(qubits) > 2:
            return self._action(
                lambda state, *args: _apply_gate(state, gate, args),
                [_angle] * n + [_same] * len(qubits), keys)
        if len(qubits) == 1:
            (key,) = qubits

            def one(env, state):
                state.statevector.apply_gate_inplace(
                    gate, params, (state.qubit_index(_qubit(env[key])),))
            return one
        first, second = qubits

        def two(env, state):
            a, b = env[first], env[second]  # both read before either converts
            targets = (state.qubit_index(_qubit(a)),
                       state.qubit_index(_qubit(b)))
            if targets[0] == targets[1]:
                raise duplicate_operand(ExecutionError)
            state.statevector.apply_gate_inplace(gate, params, targets)
        return two


def _apply_gate(state: RuntimeState, gate: GateKind, args) -> None:
    """A gate on its converted angles and its qubit operands, each
    converted and indexed in turn."""
    n = gate.num_params
    targets = tuple(map(state.qubit_index, map(_qubit, args[n:])))
    if len(targets) > 1 and len(set(targets)) != len(targets):
        raise duplicate_operand(ExecutionError)
    state.statevector.apply_gate_inplace(gate, args[:n], targets)


def _same(value):
    return value


#: operand kind (``intrinsics.arg_kinds``) -> its conversion
_CONVERTERS = {
    intrinsics.QUBIT_ARG: _qubit,
    intrinsics.RESULT_ARG: _result,
    intrinsics.ANGLE_ARG: _angle,
    intrinsics.INT_ARG: _count,
    intrinsics.ARRAY_ARG: _array,
    intrinsics.LABEL_ARG: _same,
}


def _allocate_array(state: RuntimeState, size: int) -> list:
    if size < 0:
        raise ExecutionError("BadOperand",
                             f"array allocation size {size} is negative")
    return [state.allocate_dynamic() for _ in range(size)]


def _get_element(state: RuntimeState, array: list, index: int) -> ElemPtr:
    if not 0 <= index < len(array):
        raise ExecutionError(
            "BadOperand", f"array index {index} out of bounds "
                          f"({len(array)} elements)")
    return ElemPtr(array, index)


def _release_array(state: RuntimeState, array: list) -> None:
    for element in array:
        state.release(element)  # a no-op on anything but a Qubit


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


def _required_qubits(module: QirModule, options: ExecOptions,
                     shot_index: int) -> int:
    """The module's required qubit count; QubitLimit at ``shot_index``
    when it is past ``options.max_qubits``."""
    required = module.required_count(REQUIRED_QUBITS_ATTR) or 0
    if required > options.max_qubits:
        raise qubit_limit(required, options.max_qubits, shot_index)
    return required


def run_shot(module: QirModule, seed: int = 0, shot_index: int = 0,
             options: ExecOptions | None = None,
             template: Run | None = None) -> tuple[str, RuntimeState]:
    """Execute one shot; returns (bitstring, final runtime state).

    ``template`` is a run of the module's entry that ``interpret``
    stopped at its first draw, or a fork of one: the shot takes it over
    and runs it on with its own stream, from that draw. Without one the
    shot runs the entry from the start, the reference path.
    Exposed for inspection: the returned state carries the statevector as
    left by the program, before any of the cross-shot aggregation.
    """
    options = options or ExecOptions()
    rng = ShotRng(seed, shot_index)
    run = template
    if run is None:
        run = _start(module, options, rng, shot_index)
    run.state.rng = rng
    try:
        run.run(options.step_limit)
    except ExecutionError as err:
        raise ExecutionError(err.reason, err.message, shot=shot_index,
                             location=run.location) from None
    except MemoryError:
        raise _out_of_memory(run.state.statevector.num_qubits, shot_index,
                             run.location) from None
    return "".join(str(b) for b in run.state.record), run.state


def _out_of_memory(width: int, shot: int,
                   location: str | None = None) -> ExecutionError:
    """QubitLimit for a MemoryError on a state of ``width`` qubits."""
    return ExecutionError(
        "QubitLimit", f"out of memory on a state of {width} qubits",
        shot=shot, location=location)


def _start(module: QirModule, options: ExecOptions, rng: ShotRng | None,
           shot: int) -> Run:
    """A run of the module's entry from the start, on a fresh state."""
    required = _required_qubits(module, options, shot)
    try:
        state = RuntimeState(rng, options, required)
    except MemoryError:
        raise _out_of_memory(required, shot) from None
    return Run(_ShotCompiler(module.entry).compile(), state)


def _template(module: QirModule, options: ExecOptions) -> Run | None:
    """The module's entry run on a state with no stream, so it pauses at
    its first draw, or runs to its end if it draws nothing; None if that
    prefix faults or the step limit falls in it or in the block of the
    draw, and shot 0 then runs from the start and raises its own fault.
    The template's fault is not always shot 0's: with the limit past the
    draw in the draw's block, it is StepLimit at the draw, while a run
    from the start goes on to the limit and can fault before it."""
    run = _start(module, options, None, 0)
    try:
        run.run(options.step_limit)
    except ExecutionError:
        return None
    except MemoryError:
        raise _out_of_memory(run.state.statevector.num_qubits, 0,
                             run.location) from None
    return run


def _fork(template: Run, shot: int) -> Run:
    """A copy of ``template`` and its state that runs on independently.

    Qubits, arrays and ElemPtrs are copied through one memo, so what
    aliases in the template aliases in the copy; every other value is
    immutable and shared. An array is filled after the walk that finds
    it, so a deep or cyclic array needs no recursion.
    """
    memo: dict[int, object] = {}
    unfilled: list[tuple[list, list]] = []

    def copy(value):
        kind = type(value)
        if kind is not Qubit and kind is not list and kind is not ElemPtr:
            return value
        new = memo.get(id(value))
        if new is None:
            if kind is Qubit:
                new = Qubit(value.index)
            elif kind is list:
                new = []
                unfilled.append((value, new))
            else:
                new = ElemPtr(copy(value.array), value.index)
            memo[id(value)] = new
        return new

    try:
        state = template.state.fork(copy)
    except MemoryError:
        raise _out_of_memory(template.state.statevector.num_qubits,
                             shot) from None
    run = template.fork(state, copy)
    while unfilled:
        old, new = unfilled.pop()
        new.extend(map(copy, old))
    return run


def interpret(module: QirModule, shots: int = 1024, seed: int = 0,
              options: ExecOptions | None = None) -> ExecutionResult:
    """Run ``shots`` independent shots and aggregate the counts; more
    than ``errors.MAX_SHOTS`` is a ValueError.

    Shot streams derive from (seed, shot index) only, so any execution
    order, including a parallel one, yields identical results. A module
    that requires more qubits than ``options.max_qubits`` is refused at
    shot 0 before its entry is compiled.

    The prefix before the first draw runs once (see the module
    docstring). A template that ran to the end, drawing nothing, serves
    every shot as it is. If the prefix faults, every shot runs from the
    start, and shot 0 raises its own fault (see ``_template``). A ``MemoryError`` while a state
    is built, grown, forked or updated is raised as QubitLimit at its
    shot, shot 0 for the prefix.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}")
    options = options or ExecOptions()
    memory: list[str] = []
    counts: dict[str, int] = {}
    # each outcome's first string, which memory holds for every shot that
    # gives it, so a run keeps one string per distinct outcome
    firsts: dict[str, str] = {}
    template = _template(module, options) if shots else None
    for shot in range(shots):
        # no name holds a shot's run or state past its call, so the
        # next fork is made once they are gone
        bits = run_shot(module, seed, shot, options,
                        template if template is None or shot == shots - 1
                        or template.block < 0 else _fork(template, shot))[0]
        bits = firsts.setdefault(bits, bits)
        memory.append(bits)
        counts[bits] = counts.get(bits, 0) + 1
    return ExecutionResult(shots, seed, memory, counts)
