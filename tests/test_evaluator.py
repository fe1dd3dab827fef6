"""Error paths of the IR evaluator, pinned for both of its value domains.

Every module below parses but fails in at least one domain. Each case runs
through ``unroll_and_fold`` (known-or-residual values) and through
``interpret(shots=1)`` (concrete values on the statevector) and pins the
error class, reason, shot, location and message text of each outcome.
The last tests pin how a run stops at an op that raises ``Pause`` and
runs on from it.
"""

import math

import pytest

from qirtk import (ExecOptions, ExecutionError, TransformError, interpret,
                   interpreter, parse_module, unroll_and_fold)
from qirtk.evaluator import Pause, Run
from qirtk.ir import BinOp
from qirtk.node import replace

import genutil

_DECLS = (
    "declare void @__quantum__qis__h__body(ptr)\n"
    "declare void @__quantum__qis__mz__body(ptr, ptr writeonly)\n"
    "declare ptr @__quantum__rt__qubit_allocate()\n"
    "declare i1 @__quantum__rt__read_result(ptr)\n"
)


def _main(body: str) -> str:
    return _DECLS + "define void @main() {\n" + body + "}\n"


def _residual_add(module):
    [block] = module.entry.blocks
    assert [type(i).__name__ for i in block.instructions] == ["Call", "BinOp"]
    add = block.instructions[1]
    assert isinstance(add, BinOp) and add.op == "add"


# (id, module body, step limit, unroll outcome, interpret outcome)
#   unroll outcome: None (not run), (reason, message), or a check callable
#   interpret outcome: None (succeeds) or (reason, shot, location, str)
CASES = [
    ("load-unset-slot",
     "entry:\n  %s = alloca i64\n  %v = load i64, ptr %s\n  ret void\n",
     None,
     ("UseBeforeDef", "%v loads an uninitialized slot"),
     ("BadOperand", 0, "main:entry:1",
      "BadOperand: load from an uninitialized slot [shot 0] "
      "[main:entry:1]")),
    ("store-load-through-inttoptr",
     "entry:\n  store i64 1, ptr inttoptr (i64 3 to ptr)\n"
     "  %v = load i64, ptr inttoptr (i64 3 to ptr)\n  ret void\n",
     None,
     ("EscapingHandle", "store through a pointer that is not a stack slot"),
     ("BadOperand", 0, "main:entry:0",
      "BadOperand: store through a non-pointer [shot 0] [main:entry:0]")),
    ("add-on-qubit-handle",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  %v = add i64 %q, 1\n  ret void\n",
     None,
     _residual_add,
     ("BadOperand", 0, "main:entry:1",
      "BadOperand: expected an integer value [shot 0] [main:entry:1]")),
    ("slot-address-stored-to-slot",
     "entry:\n  %a = alloca ptr\n  %b = alloca ptr\n"
     "  store ptr %a, ptr %b\n  ret void\n",
     None,
     ("EscapingHandle", "a stack-slot address is stored to memory"),
     None),
    ("branch-on-read-result",
     "entry:\n  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
     "  %r = call i1 @__quantum__rt__read_result(ptr null)\n"
     "  br i1 %r, label %a, label %b\na:\n  ret void\nb:\n  ret void\n",
     None,
     ("DataDependent", "branch condition depends on a measurement result "
                       "and cannot be evaluated statically"),
     None),
    ("value-undefined-on-taken-path",
     "entry:\n  %c = icmp eq i64 0, 1\n  br i1 %c, label %a, label %b\n"
     "a:\n  %x = add i64 1, 2\n  br label %j\nb:\n  br label %j\n"
     "j:\n  %y = add i64 %x, 1\n  ret void\n",
     None,
     ("UseBeforeDef",
      "%x is read before any assignment on the executed path"),
     ("BadOperand", 0, "main:j:0",
      "BadOperand: %x read before assignment [shot 0] [main:j:0]")),
    ("phi-in-entry-block",
     "entry:\n  %i = phi i64 [ 1, %back ]\n  br label %back\n"
     "back:\n  br label %entry\n",
     None,
     ("NotStraightLine",
      "phi %i lacks an incoming for the edge taken from None"),
     ("BadOperand", 0, "",
      "BadOperand: phi nodes in the entry block [shot 0] []")),
    ("step-limit-on-instruction",
     "entry:\n  call void @__quantum__qis__h__body(ptr null)\n  ret void\n",
     0,
     None,
     ("StepLimit", 0, "main:entry:0",
      "StepLimit: exceeded 0 steps [shot 0] [main:entry:0]")),
    # the terminator step reports the location of the block's last
    # instruction
    ("step-limit-on-terminator",
     "entry:\n  call void @__quantum__qis__h__body(ptr null)\n  ret void\n",
     1,
     None,
     ("StepLimit", 0, "main:entry:0",
      "StepLimit: exceeded 1 steps [shot 0] [main:entry:0]")),
]


@pytest.mark.parametrize("body, step_limit, unrolled, executed",
                         [pytest.param(*c[1:], id=c[0]) for c in CASES])
def test_error_paths_are_pinned_in_both_domains(body, step_limit, unrolled,
                                                executed):
    module = parse_module(_main(body))
    if callable(unrolled):
        unrolled(unroll_and_fold(module))
    elif unrolled is not None:
        with pytest.raises(TransformError) as info:
            unroll_and_fold(module)
        reason, message = unrolled
        assert type(info.value) is TransformError
        assert info.value.reason == reason
        assert str(info.value) == f"{reason}: {message}"

    options = ExecOptions() if step_limit is None else \
        ExecOptions(step_limit=step_limit)
    if executed is None:
        assert interpret(module, shots=1, options=options).shots == 1
        return
    with pytest.raises(ExecutionError) as info:
        interpret(module, shots=1, options=options)
    reason, shot, location, text = executed
    err = info.value
    assert type(err) is ExecutionError
    assert (err.reason, err.shot, err.location, str(err)) == \
        (reason, shot, location, text)


def _foreign_ext():
    """A module whose one ``Ext`` has an op the parser never makes."""
    module = parse_module(_main("entry:\n  %w = zext i1 1 to i64\n"
                                "  ret void\n"))
    return genutil.with_entry_block(module, 0, lambda block: replace(
        block, instructions=(replace(block.instructions[0], op="fpext"),)))


def test_unknown_ext_op_is_unsupported_when_unrolled():
    with pytest.raises(TransformError) as info:
        unroll_and_fold(_foreign_ext())
    assert type(info.value) is TransformError
    assert str(info.value) == "Unsupported: cannot evaluate Ext fpext"


def test_unknown_ext_op_is_a_bad_operand_when_run():
    with pytest.raises(ExecutionError) as info:
        interpret(_foreign_ext(), shots=1)
    err = info.value
    assert (err.reason, err.shot, err.location, str(err)) == (
        "BadOperand", 0, "main:entry:0",
        "BadOperand: cannot execute Ext fpext [shot 0] [main:entry:0]")


# ---------------------------------------------------------------------------
# pausing: an op that raises ``Pause`` stops the run at that op


_TICKS = """declare i64 @tick(i64)

define void @main() {
entry:
  %a = call i64 @tick(i64 0)
  br label %loop
loop:
  %i = phi i64 [ %a, %entry ], [ %j, %loop ]
  %j = call i64 @tick(i64 %i)
  %c = icmp slt i64 %j, 4
  br i1 %c, label %loop, label %exit
exit:
  %y = add i64 %j, 10
  %z = call i64 @tick(i64 %y)
  %w = add i64 %z, 1
  ret void
}
"""


class _Ticks(interpreter._ShotCompiler):
    """Each ``@tick(x)`` yields ``x + 1``, except that the first tick
    whose result is named by the state's ``pause_at`` raises ``Pause``
    instead, before it does anything."""

    def _call(self, instr):
        key, result = self._key(instr.args[0].value), instr.result

        def op(env, state):
            if state.pause_at == result:
                state.pause_at = None
                raise Pause
            env[result] = env[key] + 1
        return op


class _State:
    def __init__(self, pause_at=None):
        self.slots, self.steps, self.pause_at = [], 0, pause_at


def _ticks(pause_at=None) -> Run:
    return Run(_Ticks(parse_module(_TICKS).entry).compile(),
               _State(pause_at))


def _outcome(run: Run, step_limit) -> tuple:
    """What ``run.run`` leaves: its environment without the constants,
    its steps, location and whether it stopped; or the fault's reason,
    text and location."""
    try:
        run.run(step_limit)
    except ExecutionError as err:
        return err.reason, str(err), run.location
    return ({k: v for k, v in run.env.items() if isinstance(k, str)},
            run.state.steps, run.location, run.stopped)


# (paused result, its location, steps counted when it pauses)
PAUSES = [("a", "main:entry:0", 2), ("j", "main:loop:0", 5),
          ("z", "main:exit:1", 15)]


@pytest.mark.parametrize("name, location, steps", PAUSES)
def test_a_pause_stops_the_run_at_its_op_with_its_block_counted(
        name, location, steps):
    run = _ticks(pause_at=name)
    run.run(math.inf)
    assert run.stopped and run.block >= 0
    assert run.location == location
    assert run.state.steps == steps
    assert name not in run.env


@pytest.mark.parametrize("name", [p[0] for p in PAUSES])
def test_running_a_paused_run_again_ends_as_if_it_never_paused(name):
    run = _ticks(pause_at=name)
    run.run(math.inf)
    assert run.stopped
    expected = _outcome(_ticks(), math.inf)
    assert expected[0]["w"] == 16 and expected[1:] == (
        15, "main:exit:2", False)
    assert _outcome(run, math.inf) == expected


@pytest.mark.parametrize("name, location, steps", PAUSES)
def test_a_step_limit_gives_the_same_outcome_with_or_without_a_pause(
        name, location, steps):
    for step_limit in range(-1, 17):
        expected = _outcome(_ticks(), step_limit)
        run = _ticks(pause_at=name)
        first = _outcome(run, step_limit)
        if step_limit < steps:
            # the limit falls before the pause or in its block, which a
            # resumed run would finish: the pausing run itself faults
            assert expected[0] == "StepLimit"
            assert first == expected, step_limit
        else:
            assert first[1:] == (steps, location, True), step_limit
            assert _outcome(run, step_limit) == expected, step_limit
