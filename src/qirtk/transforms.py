"""Module-to-module rewrites: unrolling, static addressing, lowering.

``unroll_and_fold`` partially evaluates the classical subset of a module
with the evaluator the interpreter also compiles (``evaluator.py``): integer
arithmetic on known values folds, branches on known conditions are
taken, loop bodies replicate, and intrinsic calls are emitted in
execution order with concretized operands; a constant that its
operand's type cannot spell is refused as ``EscapingHandle``.
``allocate_static_addresses`` then eliminates dynamic qubit allocation
by assigning each handle a fixed index, reusing freed indices first-fit
the way a register allocator reuses registers. It walks only calls and
element-pointer loads, and lets the unroller fold any other classical
code and stack slots first. ``lower_to_base`` composes the two with
``_schedule``, which drops dead classical code and sinks measurements, so
that the result is a plain gate sequence followed by measurements and
output recording.

Each public pass refuses a module whose ``QirModule.unsupported``
verdict is not empty. ``unroll_and_fold`` presets that verdict, empty, on
the module it builds, so lowering never classifies the unrolled module.

All transforms are pure functions from module to module and are
idempotent: running one twice gives a structurally identical result.
No pass modifies its input. Each builds a new module that shares with
its input every node it does not change, so callers must not edit
either module in place.
"""

from __future__ import annotations

import copy
import itertools
import math

from . import intrinsics
from .errors import (DEFAULT_ITERATION_CAP, MAX_DECLARED_SIZE,
                     MAX_OPERATIONS, TransformError)
from .evaluator import (Compiler, ElemPtr, IndexPool, Qubit, Run, Slot,
                        duplicate_operand)
from .ir import (BasicBlock, BinOp, Call, CallArg, ConstFloat, ConstInt,
                 DoubleType, Ext, FuncDef, GlobalRef, ICmp, IntToAddr,
                 IntType, Load, LocalRef, PtrType, QirModule, Ret, Select,
                 StaticAddr, Value, REQUIRED_QUBITS_ATTR,
                 REQUIRED_RESULTS_ATTR, entry_calls, make_int)
from .node import replace
from .profile import (Profile, address_past_limit, repeats_a_qubit,
                      validate_profile)


# ---------------------------------------------------------------------------
# abstract values of the unroller
#
# Known classical constants are plain Python ints/floats; known pointer
# constants are StaticAddr/GlobalRef, and stack slots are Slot. A value
# known only at run time is the LocalRef of the emitted instruction that
# makes it.


def _profile_gate(module: QirModule, what: str) -> None:
    if module.unsupported:
        first = module.unsupported[0]
        raise TransformError(
            "Unsupported", f"{what} requires a supported module: "
                           f"{first.reason} at {first.location}")


def _with_body(module: QirModule, instructions) -> QirModule:
    """``module`` with ``instructions`` in its entry's single block, and
    with the required counts the block needs.

    The block keeps its label, phis and terminator; every other node is
    shared, and declarations of intrinsics no longer called are dropped.
    Each count is ``QirModule.register_size`` of the calls' highest
    constant address of its kind; an entry without an attribute group
    gets the lowest unused group id.
    """
    entry = module.entry
    block = replace(entry.blocks[0], instructions=tuple(instructions))
    high = {intrinsics.QUBIT_ARG: -1, intrinsics.RESULT_ARG: -1}
    called = set()
    for call in block.instructions:
        if isinstance(call, Call):
            called.add(call.callee)
            for kind, arg in zip(intrinsics.lookup(call.callee).arg_kinds,
                                 call.args):
                if kind in high and isinstance(arg.value, StaticAddr):
                    high[kind] = max(high[kind], arg.value.index)
    gone = {c.callee for c in entry_calls(module)} - called
    groups = copy.deepcopy(module.attribute_groups)
    gid = entry.attr_group
    if gid is None:
        gid = next(itertools.filterfalse(groups.__contains__,
                                         itertools.count()))
        groups[gid] = {}
    for key, kind in ((REQUIRED_QUBITS_ATTR, intrinsics.QUBIT_ARG),
                      (REQUIRED_RESULTS_ATTR, intrinsics.RESULT_ARG)):
        groups[gid][key] = str(module.register_size(key, high[kind]))
    fn = replace(entry, blocks=(block,), attr_group=gid)
    return replace(
        module,
        declarations=tuple(d for d in module.declarations
                           if d.name not in gone),
        functions=tuple(fn if f is entry else f for f in module.functions),
        attribute_groups=groups)


# ---------------------------------------------------------------------------
# unroll_and_fold


class _Unroller(Compiler):
    """Partial evaluation: ints fold, everything else is emitted. The
    unroller is also the state its run works on."""

    ERROR = TransformError
    FAULTS = {
        "undefined": ("UseBeforeDef", "%{0} is read before any assignment "
                                      "on the executed path"),
        "unset_slot": ("UseBeforeDef", "%{0} loads an uninitialized slot"),
        "entry_phi": ("NotStraightLine", "phi %{0} lacks an incoming for "
                                         "the edge taken from None"),
        "phi_edge": ("NotStraightLine", "phi %{0} lacks an incoming for "
                                        "the edge taken from {1!r}"),
        "cond": ("DataDependent", "branch condition depends on a "
                                  "measurement result and cannot be "
                                  "evaluated statically"),
        "terminator": ("NotStraightLine", "block {0!r} has no terminator"),
        "label": ("NotStraightLine", "branch to unknown label {0!r}"),
        "opcode": ("Unsupported", "cannot evaluate {0}"),
    }

    def __init__(self, module: QirModule, cap: int):
        super().__init__(module.entry)
        self.cap = cap
        self.out: list = []
        self.counter = 0
        self.visits = {b.label: 1 for b in self.fn.blocks[:1]}  # entry block
        self.slots: list = []
        self.steps = 0

    def fresh(self) -> str:
        name = f"v{self.counter}"
        self.counter += 1
        return name

    def _emit(self, instr) -> None:
        if len(self.out) >= MAX_OPERATIONS:
            raise TransformError(
                "OperationLimit", f"unrolling emits more than "
                                  f"{MAX_OPERATIONS} instructions")
        self.out.append(instr)

    def _terminator(self, block: BasicBlock, number: dict):
        branch, labels = super()._terminator(block, number), self.labels

        def visit(env):
            target = branch(env)
            if target >= 0:
                label = labels[target]
                self.visits[label] = count = self.visits.get(label, 0) + 1
                if count > self.cap + 1:
                    raise TransformError(
                        "CapExceeded",
                        f"block {label!r} revisited more than {self.cap} "
                        "times; raise the iteration cap if the loop bound "
                        "is intended")
            return target
        return visit

    def _concretize(self, abstract, ty):
        if isinstance(abstract, LocalRef):
            return abstract
        if isinstance(abstract, Slot):
            raise TransformError(
                "EscapingHandle",
                "a stack-slot address flows into an emitted instruction")
        if isinstance(ty, PtrType):
            if isinstance(abstract, (StaticAddr, GlobalRef)):
                return abstract
        elif isinstance(abstract, int) and isinstance(ty, IntType):
            return make_int(ty.width, abstract)
        elif isinstance(abstract, (int, float)) and isinstance(ty, DoubleType):
            return ConstFloat(float(abstract))
        kind = ("an integer" if isinstance(abstract, int) else
                "a float" if isinstance(abstract, float) else "an address")
        raise TransformError(
            "EscapingHandle",
            f"{kind} constant flows into an operand of type {ty}")

    def _residual(self, env, instr, operands) -> LocalRef:
        name = self.fresh()
        self._emit(replace(instr, result=name, **{
            field: self._concretize(env[key], ty)
            for field, key, ty in operands}))
        return LocalRef(name)

    def _store_slot(self, state, index: int, value) -> None:
        if isinstance(value, Slot):
            raise TransformError(
                "EscapingHandle",
                "a stack-slot address is stored to memory")
        self.slots[index] = value

    def _store_through(self, state, pointer, value) -> None:
        raise TransformError(
            "EscapingHandle",
            "store through a pointer that is not a stack slot")

    def _load_through(self, state, pointer, instr: Load) -> LocalRef:
        if not isinstance(pointer, LocalRef):
            raise _untracked_load()
        # loading a qubit handle out of an array element pointer
        name = self.fresh()
        self._emit(Load(name, instr.ty, pointer))
        return LocalRef(name)

    def _call(self, instr: Call):
        args = [(arg.ty, self._key(arg.value)) for arg in instr.args]
        spec = intrinsics.lookup(instr.callee)
        # operand positions of a gate's qubits, if it takes two or more
        qubit_at = spec.qubit_at if spec and len(spec.qubit_at) > 1 else ()
        # address operands the run computes: the gate bounded the others
        address_at = [(i, kind) for i, (kind, arg) in enumerate(zip(
            spec.arg_kinds if spec else (), instr.args))
            if kind in (intrinsics.QUBIT_ARG, intrinsics.RESULT_ARG)
            and not isinstance(arg.value, StaticAddr)]

        def op(env, state):
            values = tuple([CallArg(ty, self._concretize(env[key], ty))
                            for ty, key in args])
            result = None
            if instr.result is not None:
                result = self.fresh()
                env[instr.result] = LocalRef(result)
            if qubit_at and repeats_a_qubit(
                    [values[i].value.index for i in qubit_at
                     if isinstance(values[i].value, StaticAddr)]):
                raise duplicate_operand(TransformError)
            for i, kind in address_at:
                value = values[i].value
                if isinstance(value, StaticAddr) and (
                        past := address_past_limit(kind, value.index,
                                                   instr.callee)):
                    raise TransformError("Unsupported", past)
            self._emit(Call(instr.callee, values, result, instr.ret_type))
        return op


def unroll_and_fold(module: QirModule,
                    iteration_cap: int = DEFAULT_ITERATION_CAP) -> QirModule:
    """Partially evaluate classical control flow into straight-line code.

    Loops whose trip counts are statically known replicate their bodies;
    arithmetic, comparisons, casts, and selects on known values fold;
    intrinsic calls are emitted in execution order with constant
    operands substituted. Raises TransformError(CapExceeded) when any
    block is revisited more than ``iteration_cap`` times,
    TransformError(OperationLimit) when it would emit more than
    ``errors.MAX_OPERATIONS`` instructions and
    TransformError(DataDependent) when a branch needs a measurement
    outcome.
    """
    if iteration_cap < 1:
        raise ValueError("iteration_cap must be at least 1")
    _profile_gate(module, "unroll_and_fold")
    unroller = _Unroller(module, iteration_cap)
    Run(unroller.compile(), unroller).run(math.inf)
    entry = module.entry
    fn = FuncDef(entry.name,
                 (BasicBlock("entry", (), tuple(unroller.out), Ret()),),
                 entry.attr_group)
    out = QirModule(module.source_name, module.declarations, (fn,),
                    module.attribute_groups)
    # supported by construction: the input passed the gate, and the result
    # has one function and the input's attributes, while every call keeps
    # its intrinsic callee and arity and ``_call`` refuses repeated qubits
    # and folded addresses past the declared-size limit
    QirModule.unsupported.preset(out, ())
    return out


# ---------------------------------------------------------------------------
# allocate_static_addresses


_HANDLE_ACTIONS = frozenset({
    intrinsics.ALLOCATE, intrinsics.ALLOCATE_ARRAY, intrinsics.GET_ELEMENT,
    intrinsics.RELEASE, intrinsics.RELEASE_ARRAY,
})


def allocate_static_addresses(module: QirModule) -> QirModule:
    """Replace dynamic qubit handles with fixed indices.

    Allocation, element-lookup, and release calls disappear; every use
    of a handle becomes a constant address. Indices freed by a release
    are reused lowest-first, and indices already referenced statically
    are never reassigned, so no two simultaneously live qubits share an
    index; a handle used or released after its release is refused as
    UseAfterRelease, a gate whose handles name one qubit twice as
    BadOperand, a load through a constant pointer as EscapingHandle,
    and an allocation that needs an index at or past
    ``MAX_DECLARED_SIZE`` as AllocationLimit. Always sets the
    required-count attributes to the high-water marks of the result's
    calls, or to the module's valid declared counts where those are
    larger.
    A block that holds anything but calls and loads is first folded by
    ``unroll_and_fold``, so classical code and stack slots reach this
    pass as constants; the result keeps the module's block label.
    """
    _profile_gate(module, "allocate_static_addresses")
    entry = module.entry
    if len(entry.blocks) != 1 or entry.blocks[0].phis:
        raise TransformError(
            "NotStraightLine",
            "static allocation requires a single-block module; run "
            "unroll_and_fold first")
    instructions = entry.blocks[0].instructions
    if not all(isinstance(i, (Call, Load)) for i in instructions):
        instructions = unroll_and_fold(module, 1).entry.blocks[0].instructions

    pinned: set[int] = set()  # releasing a static qubit does nothing
    for call in instructions:
        spec = isinstance(call, Call) and intrinsics.lookup(call.callee)
        if spec and spec.action != intrinsics.RELEASE:
            for i in spec.qubit_at:
                if isinstance(call.args[i].value, StaticAddr):
                    pinned.add(call.args[i].value.index)
    unpinned = itertools.filterfalse(pinned.__contains__,
                                     itertools.count()).__next__

    def fresh() -> int:
        index = unpinned()
        if index >= MAX_DECLARED_SIZE:
            raise TransformError(
                "AllocationLimit", f"allocating qubit index {index} "
                f"exceeds the limit of {MAX_DECLARED_SIZE} qubits")
        return index

    pool = IndexPool()

    # SSA name -> a Qubit, an array (a list of Qubits) or an ElemPtr
    handles: dict[str, object] = {}
    kept: list = []

    def as_handle(value: Value):
        if isinstance(value, LocalRef):
            return handles.get(value.name)
        return None

    for instr in instructions:
        if isinstance(instr, Load):
            handle = as_handle(instr.slot)
            if isinstance(handle, ElemPtr):
                handles[instr.result] = handle.array[handle.index]
                continue
            if handle is not None:
                raise TransformError(
                    "EscapingHandle",
                    "load through a qubit handle that is not an "
                    "array element pointer")
            if not isinstance(instr.slot, LocalRef):
                raise _untracked_load()  # as unrolling refuses it
            kept.append(instr)
            continue
        if isinstance(instr, Call):
            spec = intrinsics.lookup(instr.callee)
            action = spec.action
            if action in _HANDLE_ACTIONS:
                if action == intrinsics.ALLOCATE:
                    handles[instr.result] = Qubit(pool.take(fresh))
                elif action == intrinsics.ALLOCATE_ARRAY:
                    size = _const_int(instr.args[0].value,
                                      "array allocation size")
                    if size < 0:
                        raise TransformError(
                            "NonConstantAllocation",
                            f"array allocation size {size} is negative")
                    if size > MAX_DECLARED_SIZE:
                        raise TransformError(
                            "AllocationLimit",
                            f"array allocation of {size} qubits exceeds "
                            f"the limit of {MAX_DECLARED_SIZE}")
                    handles[instr.result] = [Qubit(pool.take(fresh))
                                             for _ in range(size)]
                elif action == intrinsics.GET_ELEMENT:
                    array = as_handle(instr.args[0].value)
                    if not isinstance(array, list):
                        raise TransformError(
                            "EscapingHandle",
                            "element lookup on a value that is not a "
                            "tracked array handle")
                    offset = _const_int(instr.args[1].value,
                                        "array element index")
                    if not 0 <= offset < len(array):
                        raise TransformError(
                            "NonConstantAllocation",
                            f"array element index {offset} is out of "
                            f"bounds for {len(array)} elements")
                    handles[instr.result] = ElemPtr(array, offset)
                elif action == intrinsics.RELEASE:
                    value = instr.args[0].value
                    handle = as_handle(value)
                    if isinstance(handle, Qubit):
                        pool.release(handle, TransformError)
                    elif not isinstance(value, StaticAddr):
                        raise TransformError(
                            "EscapingHandle",
                            "release of a value that is not a tracked "
                            "qubit handle")
                else:  # RELEASE_ARRAY
                    handle = as_handle(instr.args[0].value)
                    if not isinstance(handle, list):
                        raise TransformError(
                            "EscapingHandle",
                            "array release of a value that is not a "
                            "tracked array handle")
                    for qubit in handle:
                        pool.release(qubit, TransformError)
                continue
            new_args, qubits, resolved = [], [], False
            for kind, arg in zip(spec.arg_kinds, instr.args):
                handle = as_handle(arg.value)
                if handle is None:
                    new_args.append(arg)
                    if (kind == intrinsics.QUBIT_ARG
                            and isinstance(arg.value, StaticAddr)):
                        qubits.append(arg.value.index)
                    continue
                if isinstance(handle, list):
                    raise TransformError(
                        "EscapingHandle",
                        "an array handle is passed where a qubit is "
                        "expected")
                if kind != intrinsics.QUBIT_ARG:
                    raise TransformError(
                        "EscapingHandle",
                        "a qubit handle flows into a non-qubit argument")
                if isinstance(handle, ElemPtr):
                    raise TransformError(
                        "EscapingHandle",
                        "an array element pointer is passed where a "
                        "qubit is expected")
                qubits.append(handle.live(TransformError))
                new_args.append(CallArg(arg.ty, StaticAddr(qubits[-1])))
                resolved = True
            if resolved:
                if repeats_a_qubit(qubits):
                    raise duplicate_operand(TransformError)
                instr = Call(instr.callee, tuple(new_args), instr.result,
                             instr.ret_type)
            kept.append(instr)
            continue
        # classical instruction: handles must not leak into it
        for operand in _operands(instr):
            if as_handle(operand) is not None:
                raise TransformError(
                    "EscapingHandle",
                    "a qubit handle flows into a classical instruction")
        kept.append(instr)

    return _with_body(module, kept)


def _untracked_load() -> TransformError:
    return TransformError(
        "EscapingHandle",
        "load through a pointer that is not a stack slot or an array "
        "element")


def _const_int(value: Value, what: str) -> int:
    if not isinstance(value, ConstInt):
        raise TransformError(
            "NonConstantAllocation",
            f"{what} must be a constant integer; run unroll_and_fold "
            "first")
    return value.value


def _operands(instr) -> list[Value]:
    if isinstance(instr, Call):
        return [a.value for a in instr.args]
    if isinstance(instr, (BinOp, ICmp)):
        return [instr.lhs, instr.rhs]
    if isinstance(instr, (IntToAddr, Ext)):
        return [instr.source]
    if isinstance(instr, Select):
        return [instr.cond, instr.if_true, instr.if_false]
    if isinstance(instr, Load):
        return [instr.slot]
    return []


# ---------------------------------------------------------------------------
# dead classical code removal and measurement sinking (used while lowering)


_PURE_CLASSICAL = (BinOp, ICmp, Ext, Select, IntToAddr)


def _static(call: Call, spec, kind: str) -> list[int]:
    """The indices of ``call``'s operands of ``kind``, each of which must
    be a constant address."""
    out = []
    for arg_kind, arg in zip(spec.arg_kinds, call.args):
        if arg_kind == kind:
            if not isinstance(arg.value, StaticAddr):
                raise TransformError(
                    "FeedbackRequired",
                    f"@{call.callee} has a {kind} operand that is not a "
                    "constant address")
            out.append(arg.value.index)
    return out


def _schedule(module: QirModule) -> QirModule:
    """Drop unused classical values and readbacks from the single block,
    then move measurements past later disjoint gates to its tail.

    Output recording moves after the measurements, preserving relative
    order. Obstructions (a gate or reset touching an already-measured
    qubit, a reset after any measurement, or a result re-measured after
    being recorded) raise TransformError(FeedbackRequired): such
    programs need feedback and have no equivalent static schedule.
    """
    # the block is straight-line SSA, so one backward pass finds every
    # value that nothing kept uses
    used: set[str] = set()
    live: list = []  # (instruction, its intrinsic spec or None), reversed
    for instr in reversed(module.entry.blocks[0].instructions):
        spec = None
        if isinstance(instr, Call):
            spec = intrinsics.lookup(instr.callee)
            dead = (spec.action == intrinsics.READ_RESULT
                    and instr.result is not None)
        else:
            dead = isinstance(instr, _PURE_CLASSICAL)
        if dead and instr.result not in used:
            continue
        used.update(operand.name for operand in _operands(instr)
                    if isinstance(operand, LocalRef))
        live.append((instr, spec))

    body: list = []
    measures: list[Call] = []
    records: list[Call] = []
    measured_qubits: set[int] = set()
    recorded_results: set[int] = set()
    for instr, spec in reversed(live):
        action = spec and spec.action
        if action == intrinsics.MEASURE:
            [result] = _static(instr, spec, intrinsics.RESULT_ARG)
            if result in recorded_results:
                raise TransformError(
                    "FeedbackRequired",
                    f"result {result} is measured again after being "
                    "recorded; the recorded value cannot be deferred")
            measured_qubits.update(_static(instr, spec, intrinsics.QUBIT_ARG))
            measures.append(instr)
        elif action == intrinsics.GATE:
            overlap = measured_qubits.intersection(
                _static(instr, spec, intrinsics.QUBIT_ARG))
            if overlap:
                raise TransformError(
                    "FeedbackRequired",
                    f"a gate acts on qubit {min(overlap)} after its "
                    "measurement; measurements cannot move past it")
            body.append(instr)
        elif action in intrinsics.BASE_RECORD_ACTIONS:
            if action == intrinsics.RECORD:
                recorded_results.update(
                    _static(instr, spec, intrinsics.RESULT_ARG))
            records.append(instr)
        elif action == intrinsics.RESET and measures:
            raise TransformError(
                "FeedbackRequired",
                "a reset follows a measurement; reordering would "
                "change the sampling sequence")
        elif action == intrinsics.READ_RESULT and measures:
            raise TransformError(
                "FeedbackRequired",
                "a measurement result is read back inside the "
                "program; the base profile has no readback")
        else:
            body.append(instr)

    return _with_body(module, body + measures + records)


# ---------------------------------------------------------------------------
# lower_to_base


def lower_to_base(module: QirModule,
                  iteration_cap: int = DEFAULT_ITERATION_CAP) -> QirModule:
    """Lower a module with classical control to the static gate form.

    Pipeline: unroll and fold, assign static addresses, drop dead
    classical residue, sink measurements behind the gates they commute
    with. The result always validates as the base form. A module that
    already does keeps its instructions and block label; like every
    result, it gets its required qubit and result counts from its calls,
    raised to its valid declared counts.
    Programs whose gates genuinely depend on earlier measurements raise
    TransformError(FeedbackRequired).
    """
    if iteration_cap < 1:
        raise ValueError("iteration_cap must be at least 1")
    base = validate_profile(module).profile is Profile.BASE
    _profile_gate(module, "lower_to_base")  # reads the report just made
    if base:
        return _with_body(module, module.entry.blocks[0].instructions)
    try:
        out = unroll_and_fold(module, iteration_cap)
    except TransformError as err:
        if err.reason == "DataDependent":
            raise TransformError(
                "FeedbackRequired",
                "control flow depends on a measurement outcome; the "
                "program cannot be scheduled statically") from err
        raise
    out = _schedule(allocate_static_addresses(out))
    # classified as returned, so a caller's validate_profile reuses this
    report = validate_profile(out)
    if report.profile is not Profile.BASE:
        raise TransformError(
            "FeedbackRequired", "lowered module still fails base "
                                f"validation: {report.violations[0].reason}")
    return out
