"""One evaluator for the entry function, shared by unrolling and execution.

The evaluator specialises itself to a function (Jones, Gomard and
Sestoft, *Partial Evaluation and Automatic Program Generation*, 1993): a
``Compiler`` compiles it once, and each ``Run`` executes the compiled
tables. Block targets become block numbers, the phis of a block one
parallel copy per incoming edge, constant operands Python values, and
each instruction a closure. A run keeps SSA values in an environment and
stack slots in a list, folds integer arithmetic, comparisons, casts,
``inttoptr`` and ``select`` on Python ints, and counts one step per
instruction and terminator, a block at a time unless the step limit falls
inside the block. Compiling never raises: a fault such as an undefined
value or a missing terminator becomes a closure that raises it when a run
reaches it. An error's ``function:block:index`` is computed only when the
error is raised.

A run can also stop part way: an op that cannot go on yet raises
``Pause`` before it changes anything, and ``run`` returns with the run
stopped at that op and its block's steps counted. The next ``run`` starts
with that op, in the middle of the block, and goes on as if it had never
stopped. ``fork`` copies a run at its position over a copy of its state.
The interpreter's state pauses at a draw while it has no stream, so a
run without one stops before its first draw, and each shot forks it; the
unroller never pauses.

A value domain, a ``Compiler`` subclass, says what everything else
means. ``transforms`` evaluates partially: values it cannot know become
residual instructions. ``interpreter`` executes on a statevector. A
domain supplies ``ERROR`` and ``FAULTS``; ``_call(instr)``, the closure
for an intrinsic call; ``_residual(env, instr, operands)``, the value of
an operation whose operands are not all ints, given each operand's field,
environment key and type; and ``_load_through`` and ``_store_through``,
memory access through a pointer that is not a stack slot. A run's state
belongs to the domain; the evaluator uses its ``slots`` and ``steps``.

Both domains share ``IndexPool``, ``Qubit`` and ``ElemPtr``, so a lowered
module keeps every shot: a dynamic ``Qubit`` takes the lowest index an
``IndexPool`` got back from a release, and a static qubit never takes one.
"""

from __future__ import annotations

import heapq

from .errors import QirError
from .ir import (BINOP_FUNCS, EXT_OPS, ICMP_FUNCS, Alloca, BinOp, Br, Call,
                 CondBr, ConstFloat, ConstInt, Ext, FuncDef, I1, ICmp,
                 IntToAddr, Load, LocalRef, Ret, Select, StaticAddr, Store,
                 Value, eval_cast)
from .node import node


@node
class Slot:
    """The address of a stack slot (an ``alloca`` result)."""

    index: int


class Qubit:
    """A dynamically allocated qubit: its index, or None once released."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def live(self, error: type[QirError]) -> int:
        """The qubit's index; ``error`` UseAfterRelease once released."""
        if self.index is None:
            raise error("UseAfterRelease", "qubit handle used after release")
        return self.index


def duplicate_operand(error: type[QirError]) -> QirError:
    """The refusal, as ``error``, of a gate that names one qubit twice."""
    return error("BadOperand", "duplicate qubit operand in a gate")


@node
class ElemPtr:
    """A pointer to element ``index`` of an array, the list of its
    elements; loading through it reads ``array[index]``."""

    array: list
    index: int


class IndexPool:
    """Indices of released qubits, handed out again lowest first.

    ``take(fresh)`` calls ``fresh()`` only when none is free. ``fresh`` is
    not kept, so a pool held by a state never refers back to it.
    """

    __slots__ = ("free",)

    def __init__(self):
        self.free: list[int] = []

    def take(self, fresh) -> int:
        return heapq.heappop(self.free) if self.free else fresh()

    def release(self, qubit: Qubit, error: type[QirError]) -> None:
        if qubit.index is None:
            raise error("UseAfterRelease",
                        "release of an unknown or released handle")
        heapq.heappush(self.free, qubit.index)
        qubit.index = None


# ---------------------------------------------------------------------------
# the compiled form


class Pause(Exception):
    """Raised by an op that cannot go on yet, before it changes anything:
    ``Run.run`` stops the run at that op."""


class _Env(dict):
    """A run's SSA values; reading one never assigned raises the domain's
    ``undefined`` fault."""

    __slots__ = ("fault",)

    def __missing__(self, name):
        raise self.fault("undefined", name)


class Run:
    """One execution of a compiled function, as plain data: the block it
    is in and the one it came from, the last block whose instructions it
    started and the index of the last one started there, whether it
    paused at that one (``Pause``), its environment, and the domain's
    state."""

    __slots__ = ("program", "state", "env", "block", "prev", "located",
                 "index", "stopped")

    def __init__(self, program: Compiler, state):
        self.program, self.state = program, state
        self.env = _Env(program.constants)
        self.env.fault = program._fault
        self.block, self.prev, self.located, self.index = 0, -1, -1, 0
        self.stopped = False

    def fork(self, state, copy) -> Run:
        """A run at this run's position over ``state``, its environment's
        values passed through ``copy``."""
        run = Run.__new__(Run)
        run.program, run.state = self.program, state
        run.env = _Env(zip(self.env, map(copy, self.env.values())))
        run.env.fault = self.env.fault
        run.block, run.prev, run.located, run.index, run.stopped = \
            self.block, self.prev, self.located, self.index, self.stopped
        return run

    @property
    def location(self) -> str:
        """``function:block:index`` of the last instruction started."""
        if self.located < 0:
            return ""
        label = self.program.labels[self.located]
        return f"{self.program.fn.name}:{label}:{self.index}"

    def run(self, step_limit) -> None:
        """Run to the end of the function or to a ``Pause``, or raise at
        the first fault; a stopped run first finishes the block it stopped
        in, starting with the op that paused."""
        blocks, env, state = self.program.blocks, self.env, self.state
        b, prev, located, i = self.block, self.prev, self.located, self.index
        steps = state.steps
        try:
            if self.stopped:
                self.stopped = False
                ops, term = blocks[b][1:3]
                for i, op in enumerate(ops[i:], i):
                    op(env, state)
                prev, b = b, term(env)
            while b >= 0:
                phis, ops, term, cost = blocks[b]
                if phis is not None:
                    phis[prev](env)
                if ops:
                    located = b
                steps += cost
                if steps > step_limit:
                    # the limit falls in this block: run the steps that fit
                    fits = max(step_limit - steps + cost, 0)
                    for i, op in enumerate(ops[:fits]):
                        op(env, state)
                    if fits < len(ops):
                        i = fits
                    raise self.program._fault("step_limit", step_limit)
                for i, op in enumerate(ops):
                    op(env, state)
                prev, b = b, term(env)
        except Pause:
            if steps > step_limit:
                # resumed, the run would finish the block the limit falls
                # in, so it faults StepLimit at the op the limit falls on.
                # A run that never paused runs on past this op up to the
                # limit and can fault there first: this is not its fault
                i = min(step_limit - steps + blocks[b][3], len(ops) - 1)
                raise self.program._fault("step_limit", step_limit) from None
            self.stopped = True
        finally:
            self.block, self.prev, self.located, self.index = \
                b, prev, located, i
            state.steps = steps


def raising(make, *args):
    """An op, copy or terminator that raises ``make(*args)`` when run."""
    def op(env, state=None):
        raise make(*args)
    return op


class Compiler:
    """Compiles one function for a value domain.

    ``compile`` fills ``blocks``: for block number ``b``, ``blocks[b]`` is
    ``(phis, ops, term, cost)``. ``phis`` is None or maps the number of the
    block a run came from (-1 on entry) to a parallel copy ``copy(env)``;
    each op is ``op(env, state)``; ``term(env)`` returns the next block
    number, or -1 on return; ``cost`` is the block's steps. ``constants``
    seeds each run's environment with the constant operands.
    """

    ERROR: type[QirError]
    #: fault -> (reason, message template formatted with the fault's
    #: arguments). Faults: undefined (name), unset_slot (load result),
    #: entry_phi (phi), phi_edge (phi, predecessor), cond, terminator
    #: (block label), label (branch target), opcode (instruction), and
    #: step_limit (the limit) for a domain that sets one.
    FAULTS: dict[str, tuple[str, str]]

    _OPS = {Call: "_call", Alloca: "_alloca", Store: "_store",
            Load: "_load", BinOp: "_binop", ICmp: "_icmp",
            IntToAddr: "_inttoaddr", Ext: "_ext", Select: "_select"}

    def __init__(self, fn: FuncDef):
        self.fn = fn
        self.constants: dict = {}

    def _error(self, reason: str, message: str) -> QirError:
        return self.ERROR(reason, message)

    def _fault(self, kind: str, *args) -> QirError:
        reason, message = self.FAULTS[kind]
        return self._error(reason, message.format(*args))

    def _key(self, value: Value):
        """Where a run's environment holds ``value``."""
        if isinstance(value, LocalRef):
            return value.name
        key = ("const", len(self.constants))
        self.constants[key] = value.value if isinstance(
            value, (ConstInt, ConstFloat)) else value  # StaticAddr, GlobalRef
        return key

    def compile(self) -> Compiler:
        blocks = self.fn.blocks
        self.labels = labels = [b.label for b in blocks]
        number = {label: b for b, label in enumerate(labels)}
        preds: list[set[int]] = [set() for _ in blocks]
        for b, block in enumerate(blocks):
            for field in ("label", "true_label", "false_label"):
                target = number.get(getattr(block.terminator, field, None))
                if target is not None:
                    preds[target].add(b)
        self.blocks = compiled = []
        for b, block in enumerate(blocks):
            phis = None
            if block.phis:
                phis = {p: self._copy(block.phis, labels[p]) for p in preds[b]}
                if b == 0:
                    phis[-1] = raising(self._fault, "entry_phi",
                                       block.phis[0].result)
            ops = [getattr(self, self._OPS[type(i)])(i) if type(i) in self._OPS
                   else raising(self._fault, "opcode", type(i).__name__)
                   for i in block.instructions]
            compiled.append((phis, ops, self._terminator(block, number),
                             len(ops) + 1))
        return self

    def _copy(self, phis, prev: str):
        """The parallel copy of ``phis`` on the edge from ``prev``."""
        names, keys, missing = [], [], None
        for phi in phis:
            value = next((v for v, label in phi.incomings if label == prev),
                         None)
            if value is None:
                missing = phi.result
                break
            names.append(phi.result)
            keys.append(self._key(value))
        fault = self._fault

        def copy(env):
            values = [env[k] for k in keys]
            if missing is not None:
                raise fault("phi_edge", missing, prev)
            env.update(zip(names, values))
        return copy

    def _terminator(self, block, number: dict):
        term = block.terminator
        if isinstance(term, Ret):
            return lambda env: -1
        if isinstance(term, Br):
            if term.label not in number:
                return raising(self._fault, "label", term.label)
            target = number[term.label]
            return lambda env: target
        if not isinstance(term, CondBr):
            return raising(self._fault, "terminator", block.label)
        key, fault = self._key(term.cond), self._fault
        labels = (term.false_label, term.true_label)
        targets = tuple(number.get(label) for label in labels)

        def branch(env):
            cond = env[key]
            if not isinstance(cond, int):
                raise fault("cond")
            target = targets[cond & 1]
            if target is None:
                raise fault("label", labels[cond & 1])
            return target
        return branch

    # ------------------------------------------------------------------
    # stack slots

    def _alloca(self, instr: Alloca):
        result = instr.result

        def op(env, state):
            state.slots.append(None)
            env[result] = Slot(len(state.slots) - 1)
        return op

    def _store(self, instr: Store):
        value, slot = self._key(instr.value), self._key(instr.slot)
        store, through = self._store_slot, self._store_through

        def op(env, state):
            v, target = env[value], env[slot]
            if isinstance(target, Slot):
                store(state, target.index, v)
            else:
                through(state, target, v)
        return op

    def _store_slot(self, state, index: int, value) -> None:
        state.slots[index] = value

    def _load(self, instr: Load):
        slot, result = self._key(instr.slot), instr.result
        through, fault = self._load_through, self._fault

        def op(env, state):
            source = env[slot]
            if not isinstance(source, Slot):
                env[result] = through(state, source, instr)
                return
            value = state.slots[source.index]
            if value is None:
                raise fault("unset_slot", result)
            env[result] = value
        return op

    # ------------------------------------------------------------------
    # folding; an operand that is not an int goes to ``_residual``

    def _binop(self, instr: BinOp):
        apply = BINOP_FUNCS.get(instr.op)
        if apply is None:
            return raising(self._fault, "opcode", f"BinOp {instr.op}")
        return self._fold2(instr, apply, instr.ty.width)

    def _icmp(self, instr: ICmp):
        compare = ICMP_FUNCS.get(instr.pred)
        if compare is None:
            return raising(self._fault, "opcode", f"ICmp {instr.pred}")
        if instr.ty.width == 1 and instr.pred not in ("eq", "ne"):
            ordered = compare  # on the signed readings (``signed_int``)

            def compare(a, b):
                return ordered(-a, -b)
        return self._fold2(instr, compare, 1)  # a comparison is an i1

    def _fold2(self, instr, evaluate, width: int):
        """``evaluate(lhs, rhs)`` on ints, wrapped as ``wrap_int`` does."""
        lhs, rhs, result = self._key(instr.lhs), self._key(instr.rhs), \
            instr.result
        mask, modulus = (1 << width) - 1, 1 << width
        sign = 1 << (width - 1) if width > 1 else modulus  # i1 is unsigned
        operands = (("lhs", lhs, instr.ty), ("rhs", rhs, instr.ty))
        residual = self._residual

        def op(env, state):
            a = env[lhs]
            if isinstance(a, int):
                b = env[rhs]
                if isinstance(b, int):
                    bits = evaluate(a, b) & mask
                    env[result] = bits - modulus if bits >= sign else bits
                    return
            env[result] = residual(env, instr, operands)
        return op

    def _inttoaddr(self, instr: IntToAddr):
        mask = (1 << instr.source_type.width) - 1
        return self._fold1(instr, instr.source_type,
                           lambda value: StaticAddr(value & mask))

    def _ext(self, instr: Ext):
        if instr.op not in EXT_OPS:
            return raising(self._fault, "opcode", f"Ext {instr.op}")
        kind, widths = instr.op, (instr.from_type.width, instr.to_type.width)
        return self._fold1(instr, instr.from_type,
                           lambda value: eval_cast(kind, value, *widths))

    def _fold1(self, instr, ty, evaluate):
        """``result = evaluate(source)`` on an int."""
        source, result = self._key(instr.source), instr.result
        operands, residual = (("source", source, ty),), self._residual

        def op(env, state):
            value = env[source]
            if isinstance(value, int):
                env[result] = evaluate(value)
            else:
                env[result] = residual(env, instr, operands)
        return op

    def _select(self, instr: Select):
        cond, result = self._key(instr.cond), instr.result
        choices = (self._key(instr.if_false), self._key(instr.if_true))
        operands = (("cond", cond, I1), ("if_true", choices[1], instr.ty),
                    ("if_false", choices[0], instr.ty))
        residual = self._residual

        def op(env, state):
            value = env[cond]
            if isinstance(value, int):
                env[result] = env[choices[value & 1]]
            else:
                env[result] = residual(env, instr, operands)
        return op

