"""Profile classification for parsed modules.

Base profile: the entry function is one straight-line block of quantum
intrinsic calls on static addresses, with every measurement at the end
followed only by output recording. The adaptive subset additionally admits
the classical constructs the interpreter executes (control flow, integer
arithmetic, dynamic allocation, measurement readback). Anything the
runtime cannot execute at all is unsupported.
"""

from __future__ import annotations

import enum

from . import intrinsics
from .ir import (Call, ConstFloat, ConstInt, QirModule, StaticAddr,
                 REQUIRED_QUBITS_ATTR, entry_calls)
from .intrinsics import (ANGLE_ARG, ARRAY_ARG, GATE, INT_ARG, LABEL_ARG,
                         MEASURE, QUBIT_ARG, RECORD, RECORD_ARRAY, RESET,
                         RESULT_ARG)
from .node import factory, node


class Profile(enum.Enum):
    BASE = "base"
    ADAPTIVE_SUBSET = "adaptive-subset"
    UNSUPPORTED = "unsupported"


@node(frozen=True)
class Violation:
    location: str
    reason: str


@node
class ProfileReport:
    profile: Profile
    violations: list[Violation] = factory(list)
    warnings: list[str] = factory(list)


def _loc(fn_name: str, block_label: str, index: int) -> str:
    return f"{fn_name}:{block_label}:{index}"


def validate_profile(module: QirModule) -> ProfileReport:
    """Classify a module and list the constructs that decided the class.

    A Base report carries no violations. An adaptive-subset report lists
    the constructs that keep the module out of the base profile. An
    unsupported report lists the constructs the runtime cannot execute.
    """
    entry = module.entry
    unsupported: list[Violation] = []
    base: list[Violation] = []

    for fn in module.functions:
        if fn is not entry:
            unsupported.append(Violation(
                fn.name, "function definition other than the entry point"))

    seen_measure = False
    seen_record = False
    for block_i, block in enumerate(entry.blocks):
        if block_i > 0:
            base.append(Violation(_loc(entry.name, block.label, 0),
                                  "entry function has multiple blocks"))
        for phi in block.phis:
            base.append(Violation(_loc(entry.name, block.label, 0),
                                  f"phi node %{phi.result}"))
        for i, instr in enumerate(block.instructions):
            loc = _loc(entry.name, block.label, i)
            if not isinstance(instr, Call):
                base.append(Violation(
                    loc, f"classical instruction "
                         f"{type(instr).__name__.lower()}"))
                continue
            spec = intrinsics.lookup(instr.callee)
            if spec is None:
                unsupported.append(Violation(
                    loc, f"call to non-intrinsic symbol @{instr.callee}"))
                continue
            if len(instr.args) != len(spec.arg_kinds):
                unsupported.append(Violation(
                    loc, f"@{instr.callee} expects {len(spec.arg_kinds)} "
                         f"arguments, got {len(instr.args)}"))
                continue
            _check_base_call(instr, spec, loc, base)
            if spec.action in (GATE, RESET):
                if seen_measure:
                    base.append(Violation(
                        loc, "quantum operation after a measurement"))
            elif spec.action == MEASURE:
                if seen_record:
                    base.append(Violation(
                        loc, "measurement after output recording"))
                seen_measure = True
            elif spec.action in (RECORD, RECORD_ARRAY):
                seen_record = True
            else:
                base.append(Violation(loc, f"@{instr.callee} is outside "
                                           "the base profile"))

    if unsupported:
        return ProfileReport(Profile.UNSUPPORTED, unsupported)
    if base:
        return ProfileReport(Profile.ADAPTIVE_SUBSET, base)
    return ProfileReport(Profile.BASE, [], _base_warnings(module))


def _check_base_call(instr: Call, spec, loc: str,
                     base: list[Violation]) -> None:
    for kind, arg in zip(spec.arg_kinds, instr.args):
        if kind in (QUBIT_ARG, RESULT_ARG):
            if not isinstance(arg.value, StaticAddr):
                base.append(Violation(
                    loc, f"{kind} operand of @{instr.callee} is not a "
                         "static address"))
        elif kind == ANGLE_ARG:
            if not isinstance(arg.value, ConstFloat):
                base.append(Violation(
                    loc, f"angle operand of @{instr.callee} is not a "
                         "constant"))
        elif kind == INT_ARG:
            if not isinstance(arg.value, ConstInt):
                base.append(Violation(
                    loc, f"integer operand of @{instr.callee} is not a "
                         "constant"))
        elif kind == ARRAY_ARG:
            base.append(Violation(
                loc, f"@{instr.callee} takes a dynamic array handle"))
        elif kind == LABEL_ARG:
            pass


def _base_warnings(module: QirModule) -> list[str]:
    """Warn when a base module leaves declared qubits unmeasured."""
    used: set[int] = set()
    measured: set[int] = set()
    for instr in entry_calls(module):
        spec = intrinsics.lookup(instr.callee)
        if spec is None:
            continue
        for kind, arg in zip(spec.arg_kinds, instr.args):
            if kind == QUBIT_ARG and isinstance(arg.value, StaticAddr):
                used.add(arg.value.index)
                if spec.action == MEASURE:
                    measured.add(arg.value.index)
    required = module.required_count(REQUIRED_QUBITS_ATTR)
    if required is not None:
        used |= set(range(required))
    unmeasured = sorted(used - measured)
    if used and unmeasured:
        return [f"qubits {unmeasured} are never measured"]
    return []

