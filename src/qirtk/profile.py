"""Profile classification for parsed modules.

Base profile: the entry function is one straight-line block of quantum
intrinsic calls on static addresses, with every measurement at the end
followed only by output recording. The adaptive subset additionally admits
the classical constructs the interpreter executes (control flow, integer
arithmetic, dynamic allocation, measurement readback). Anything the
runtime cannot execute at all is unsupported, and so is a module whose
required qubit or result count exceeds ``errors.MAX_DECLARED_SIZE`` or
that names a constant qubit or result address at or past that limit.
"""

from __future__ import annotations

import enum
from itertools import groupby

from . import intrinsics
from .errors import MAX_DECLARED_SIZE
from .ir import (Call, ConstFloat, ConstInt, QirModule, StaticAddr,
                 REQUIRED_QUBITS_ATTR, REQUIRED_RESULTS_ATTR)
from .intrinsics import (ANGLE_ARG, ARRAY_ARG, BASE_RECORD_ACTIONS, GATE,
                         INT_ARG, MEASURE, QUBIT_ARG, RESET, RESULT_ARG)
from .node import node


class Profile(enum.Enum):
    BASE = "base"
    ADAPTIVE_SUBSET = "adaptive-subset"
    UNSUPPORTED = "unsupported"


@node
class Violation:
    location: str
    reason: str


@node
class ProfileReport:
    profile: Profile
    violations: tuple[Violation, ...] = ()
    warnings: tuple[str, ...] = ()


def _loc(at: tuple[str, str, int]) -> str:
    return "%s:%s:%d" % at  # function:block:index


def validate_profile(module: QirModule) -> ProfileReport:
    """Classify a module and list the constructs that decided the class.

    A Base report carries no violations. An adaptive-subset report lists
    the constructs that keep the module out of the base profile. An
    unsupported report lists the constructs the runtime cannot execute.
    A module is classified once: every call on it returns the report its
    first call made (``QirModule.profile_report``).
    """
    return module.profile_report


def _classify(module: QirModule) -> ProfileReport:
    entry = module.entry
    unsupported: list[Violation] = []
    base: list[Violation] = []

    for fn in module.functions:
        if fn is not entry:
            unsupported.append(Violation(
                fn.name, "function definition other than the entry point"))
    for key in (REQUIRED_QUBITS_ATTR, REQUIRED_RESULTS_ATTR):
        count = module.required_count(key)
        if count is not None and count > MAX_DECLARED_SIZE:
            unsupported.append(Violation(
                entry.name, f"{key} {count} exceeds the limit of "
                            f"{MAX_DECLARED_SIZE}"))

    seen_measure = False
    seen_record = False
    # static qubit indices the calls use and measure, for the warnings
    used: set[int] = set()
    measured: set[int] = set()
    for block_i, block in enumerate(entry.blocks):
        if block_i > 0:
            base.append(Violation(_loc((entry.name, block.label, 0)),
                                  "entry function has multiple blocks"))
        for phi in block.phis:
            base.append(Violation(_loc((entry.name, block.label, 0)),
                                  f"phi node %{phi.result}"))
        for i, instr in enumerate(block.instructions):
            at = (entry.name, block.label, i)  # formatted only if needed
            if not isinstance(instr, Call):
                base.append(Violation(
                    _loc(at), f"classical instruction "
                              f"{type(instr).__name__.lower()}"))
                continue
            spec = intrinsics.lookup(instr.callee)
            if spec is None:
                unsupported.append(Violation(_loc(at), "call to non-intrinsic "
                                             f"symbol @{instr.callee}"))
                continue
            if len(instr.args) != len(spec.arg_kinds):
                unsupported.append(Violation(_loc(at), (
                    f"@{instr.callee} expects {len(spec.arg_kinds)} "
                    f"arguments, got {len(instr.args)}")))
                continue
            qubits = _check_base_call(instr, spec, at, base, unsupported)
            # fewer than two static qubits cannot repeat one
            if len(qubits) > 1 and repeats_a_qubit(qubits):
                unsupported.append(Violation(
                    _loc(at), f"duplicate qubit operand in @{instr.callee}"))
                continue
            used.update(qubits)
            if spec.action in (GATE, RESET):
                if seen_measure:
                    base.append(Violation(
                        _loc(at), "quantum operation after a measurement"))
            elif spec.action == MEASURE:
                if seen_record:
                    base.append(Violation(
                        _loc(at), "measurement after output recording"))
                seen_measure = True
                measured.update(qubits)
            elif spec.action in BASE_RECORD_ACTIONS:
                seen_record = True
            else:
                base.append(Violation(_loc(at), f"@{instr.callee} is "
                                                "outside the base profile"))

    if unsupported:
        return ProfileReport(Profile.UNSUPPORTED, tuple(unsupported))
    if base:
        return ProfileReport(Profile.ADAPTIVE_SUBSET, tuple(base))
    return ProfileReport(Profile.BASE, (),
                         _base_warnings(module, used, measured))


def repeats_a_qubit(qubits: list[int]) -> bool:
    """Whether the static qubit indices of one call name a qubit twice,
    as only a gate's can; the interpreter refuses such a gate."""
    return len(set(qubits)) != len(qubits)


def _check_base_call(instr: Call, spec, at: tuple[str, str, int],
                     base: list[Violation],
                     unsupported: list[Violation]) -> list[int]:
    """Add to ``base`` each operand of ``instr`` outside the base profile
    and to ``unsupported`` each static address past the declared-size
    limit, and return the indices of its static qubit operands."""
    qubits = []
    for kind, arg in zip(spec.arg_kinds, instr.args):
        if kind in (QUBIT_ARG, RESULT_ARG):
            if not isinstance(arg.value, StaticAddr):
                base.append(Violation(
                    _loc(at), f"{kind} operand of @{instr.callee} is not a "
                              "static address"))
            elif past := address_past_limit(kind, arg.value.index,
                                            instr.callee):
                unsupported.append(Violation(_loc(at), past))
            elif kind == QUBIT_ARG:
                qubits.append(arg.value.index)
        elif kind == ANGLE_ARG:
            if not isinstance(arg.value, ConstFloat):
                base.append(Violation(
                    _loc(at), f"angle operand of @{instr.callee} is not a "
                              "constant"))
        elif kind == INT_ARG:
            if not isinstance(arg.value, ConstInt):
                base.append(Violation(
                    _loc(at), f"integer operand of @{instr.callee} is not a "
                              "constant"))
        elif kind == ARRAY_ARG:
            base.append(Violation(
                _loc(at), f"@{instr.callee} takes a dynamic array handle"))
    return qubits


def address_past_limit(kind: str, index: int, callee: str) -> str | None:
    """Why constant ``kind`` address ``index`` of ``@callee`` is
    unsupported, or None when it is below ``MAX_DECLARED_SIZE``."""
    if index < MAX_DECLARED_SIZE:
        return None
    return (f"{kind} address {index} of @{callee} "
            f"is not below the limit of {MAX_DECLARED_SIZE}")


def _base_warnings(module: QirModule, used: set[int],
                   measured: set[int]) -> tuple[str, ...]:
    """Warn when a base module leaves declared qubits unmeasured, given
    the static qubits its calls use and measure."""
    required = module.required_count(REQUIRED_QUBITS_ATTR)
    if required is not None:
        used |= set(range(required))
    unmeasured = sorted(used - measured)
    if used and unmeasured:
        return (f"qubits {_runs(unmeasured)} are never measured",)
    return ()


def _runs(indices: list[int]) -> str:
    """Sorted ``indices`` as a list that writes each run of three or more
    consecutive indices as ``a-b``."""
    parts: list[str] = []
    for _, run in groupby(enumerate(indices), lambda at: at[1] - at[0]):
        run = [index for _, index in run]
        parts += [f"{run[0]}-{run[-1]}"] if len(run) > 2 else map(str, run)
    return f"[{', '.join(parts)}]"

