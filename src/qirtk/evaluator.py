"""One evaluator for the entry function, shared by unrolling and execution.

The evaluator walks the SSA form from the entry block. It resolves phi
nodes against the predecessor label, keeps SSA values in an environment
and stack slots in a list, and folds integer arithmetic, comparisons,
casts, ``inttoptr`` and ``select`` through the ``ir.eval_*`` helpers
whenever the operands are Python ints.

A value domain, a subclass, says what everything else means.
``transforms`` evaluates partially (Jones, Gomard and Sestoft, *Partial
Evaluation and Automatic Program Generation*, 1993): values it cannot
know become residual instructions. ``interpreter`` executes: every value
is concrete and calls act on a statevector. A domain supplies

* ``_call(instr)``, what an intrinsic call does;
* ``_residual(instr, **operand_types)``, the value of an operation whose
  operands are not all ints; each keyword names an operand field and the
  type it is read at;
* ``_load_through`` and ``_store_through``, memory access through a
  pointer that is not a stack slot;
* ``ERROR`` and ``FAULTS``, the exception class, and the reason and message
  of each fault the walk itself detects;
* optionally the budget, ``_visit(block)`` per block entered and
  ``_step()`` per instruction or terminator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import QirError
from .ir import (Alloca, BinOp, Br, Call, CondBr, ConstFloat, ConstInt, Ext,
                 FuncDef, I1, ICmp, IntToAddr, Load, LocalRef, Ret, Select,
                 StaticAddr, Store, Value, eval_binop, eval_cast, eval_icmp)


@dataclass(frozen=True)
class Slot:
    """The address of a stack slot (an ``alloca`` result)."""

    index: int


class Evaluator:
    """Walks one function over the value domain its subclass defines."""

    ERROR: type[QirError]
    #: fault -> (reason, message template formatted with the fault's
    #: arguments). Faults: undefined (name), unset_slot (load result),
    #: entry_phi (phi), phi_edge (phi, predecessor), cond, terminator
    #: (block label), opcode (instruction class name).
    FAULTS: dict[str, tuple[str, str]]

    def __init__(self, fn: FuncDef):
        self.fn = fn
        self.blocks = {b.label: b for b in fn.blocks}
        self.env: dict[str, object] = {}
        self.slots: list = []  # None marks a slot never stored to
        # the last instruction started, for error locations
        self.block = None
        self.index = 0
        self._ops = {
            Call: self._call, Alloca: self._alloca, Store: self._store,
            Load: self._load, BinOp: self._binop, ICmp: self._icmp,
            IntToAddr: self._inttoaddr, Ext: self._ext,
            Select: self._select,
        }

    @property
    def location(self) -> str:
        """``function:block:index`` of the last instruction started."""
        if self.block is None:
            return ""
        return f"{self.fn.name}:{self.block.label}:{self.index}"

    def _error(self, reason: str, message: str) -> QirError:
        return self.ERROR(reason, message)

    def _fault(self, kind: str, *args) -> QirError:
        reason, message = self.FAULTS[kind]
        return self._error(reason, message.format(*args))

    def _visit(self, block) -> None:
        pass

    def _step(self) -> None:
        pass

    # ------------------------------------------------------------------

    def run(self) -> None:
        ops = self._ops
        block = self.fn.blocks[0]
        prev: str | None = None
        while True:
            self._visit(block)
            if block.phis:
                self._phis(block, prev)
            if block.instructions:
                self.block = block
            for i, instr in enumerate(block.instructions):
                self.index = i
                self._step()
                op = ops.get(type(instr))
                if op is None:
                    raise self._fault("opcode", type(instr).__name__)
                op(instr)
            self._step()
            term = block.terminator
            if isinstance(term, Ret):
                return
            if isinstance(term, Br):
                target = term.label
            elif isinstance(term, CondBr):
                cond = self._value(term.cond)
                if not isinstance(cond, int):
                    raise self._fault("cond")
                target = term.true_label if cond & 1 else term.false_label
            else:
                raise self._fault("terminator", block.label)
            prev, block = block.label, self.blocks[target]

    def _phis(self, block, prev: str | None) -> None:
        if prev is None:
            raise self._fault("entry_phi", block.phis[0].result)
        updates = []
        for phi in block.phis:
            for value, label in phi.incomings:
                if label == prev:
                    updates.append((phi.result, self._value(value)))
                    break
            else:
                raise self._fault("phi_edge", phi.result, prev)
        self.env.update(updates)

    def _value(self, value: Value):
        if isinstance(value, LocalRef):
            try:
                return self.env[value.name]
            except KeyError:
                raise self._fault("undefined", value.name) from None
        if isinstance(value, (ConstInt, ConstFloat)):
            return value.value
        return value  # StaticAddr, GlobalRef

    # ------------------------------------------------------------------
    # stack slots

    def _alloca(self, instr: Alloca) -> None:
        self.slots.append(None)
        self.env[instr.result] = Slot(len(self.slots) - 1)

    def _store(self, instr: Store) -> None:
        value = self._value(instr.value)
        target = self._value(instr.slot)
        if isinstance(target, Slot):
            self._store_slot(target, value)
        else:
            self._store_through(target, value)

    def _store_slot(self, slot: Slot, value) -> None:
        self.slots[slot.index] = value

    def _load(self, instr: Load) -> None:
        source = self._value(instr.slot)
        if not isinstance(source, Slot):
            self.env[instr.result] = self._load_through(source, instr)
            return
        value = self.slots[source.index]
        if value is None:
            raise self._fault("unset_slot", instr.result)
        self.env[instr.result] = value

    # ------------------------------------------------------------------
    # folding; an operand that is not an int goes to ``_residual``, which
    # reads every operand again in order

    def _binop(self, instr: BinOp) -> None:
        self._fold2(instr, eval_binop, instr.op)

    def _icmp(self, instr: ICmp) -> None:
        self._fold2(instr, eval_icmp, instr.pred)

    def _fold2(self, instr, evaluate, op: str) -> None:
        lhs = self._value(instr.lhs)
        if isinstance(lhs, int):
            rhs = self._value(instr.rhs)
            if isinstance(rhs, int):
                self.env[instr.result] = evaluate(op, instr.ty.width, lhs,
                                                  rhs)
                return
        self.env[instr.result] = self._residual(instr, lhs=instr.ty,
                                                rhs=instr.ty)

    def _inttoaddr(self, instr: IntToAddr) -> None:
        source = self._value(instr.source)
        if isinstance(source, int):
            mask = (1 << instr.source_type.width) - 1
            self.env[instr.result] = StaticAddr(source & mask)
        else:
            self.env[instr.result] = self._residual(
                instr, source=instr.source_type)

    def _ext(self, instr: Ext) -> None:
        source = self._value(instr.source)
        if isinstance(source, int):
            self.env[instr.result] = eval_cast(
                instr.op, source, instr.from_type.width, instr.to_type.width)
        else:
            self.env[instr.result] = self._residual(
                instr, source=instr.from_type)

    def _select(self, instr: Select) -> None:
        cond = self._value(instr.cond)
        if isinstance(cond, int):
            chosen = instr.if_true if cond & 1 else instr.if_false
            self.env[instr.result] = self._value(chosen)
        else:
            self.env[instr.result] = self._residual(
                instr, cond=I1, if_true=instr.ty, if_false=instr.ty)
