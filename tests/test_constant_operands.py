"""The shot interpreter converts a call's constant operands once, when it
compiles the call; every run must still be the one it would be if each
operand came from a run-time value: the same bits, counts, steps and
error, raised at the same shot and location."""

import collections
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qirtk import (ExecOptions, ExecutionError, circuit_to_base_qir,
                   import_openqasm2, interpret, interpreter, parse_module)
from qirtk.ir import (BasicBlock, Br, Call, ConstFloat, ConstInt, I64,
                      IntToAddr, LocalRef, Select, StaticAddr)
from qirtk.node import replace

import genutil

_module = genutil.entry_module


def _routed(module):
    """``module`` with every constant call operand read from a run-time
    value instead, and the number of steps that adds to a run.

    Each constant becomes a local set in a block of its own that runs
    first and branches to the old entry: an address through
    ``inttoptr``, anything else through a ``select`` on ``true``. The old
    blocks keep their labels and indices, so a location is unchanged.
    """
    entry = module.entry
    assert not entry.blocks[0].phis  # they would see the new edge
    prologue = []

    def route(arg):
        if isinstance(arg.value, LocalRef):
            return arg
        name = f"routed.{len(prologue)}"
        if isinstance(arg.value, StaticAddr):
            prologue.append(IntToAddr(name, I64,
                                      ConstInt(64, arg.value.index)))
        else:
            prologue.append(Select(name, ConstInt(1, 1), arg.ty, arg.value,
                                   arg.value))
        return replace(arg, value=LocalRef(name))

    blocks = [replace(block, instructions=tuple(
        replace(i, args=tuple(map(route, i.args))) if isinstance(i, Call)
        else i for i in block.instructions)) for block in entry.blocks]
    first = BasicBlock("routed", (), tuple(prologue),
                       Br(entry.blocks[0].label))
    fn = replace(entry, blocks=(first, *blocks))
    return replace(module, functions=tuple(
        fn if f is entry else f for f in module.functions)), len(prologue) + 1


@pytest.fixture
def outcome(monkeypatch):
    """``outcome(module, shots, seed, options)``: the memory, counts,
    per-shot steps and error of ``interpret``, whose shot states a spy
    on ``run_shot`` reads."""
    steps = []
    real = interpreter.run_shot

    def spy(*args):
        result = real(*args)
        steps.append(result[1].steps)
        return result
    monkeypatch.setattr(interpreter, "run_shot", spy)

    def run(module, shots, seed, options):
        steps.clear()
        try:
            result = interpret(module, shots, seed, options)
        except ExecutionError as err:
            return None, None, list(steps), (err.reason, err.message,
                                             err.shot, err.location)
        return result.memory, result.counts, list(steps), None
    return run


def _agree(outcome, module, shots=4, seed=7, options=None):
    """The module and its routed copy agree; returns the module's
    outcome."""
    routed, extra = _routed(module)
    expected = outcome(module, shots, seed, options)
    memory, counts, steps, error = outcome(routed, shots, seed, options)
    assert (memory, counts, error) == (expected[0], expected[1], expected[3])
    assert steps == [s + extra for s in expected[2]]
    return expected


def _corpus_modules():
    modules = [parse_module(p.read_text(encoding="utf-8"))
               for p in sorted(genutil.CORPUS.glob("*.ll"))]
    modules += [circuit_to_base_qir(import_openqasm2(
        p.read_text(encoding="utf-8")))
        for p in sorted(genutil.CORPUS.glob("*.qasm"))]
    return modules


_CORPUS = _corpus_modules()
_LIMITS = st.builds(ExecOptions, max_qubits=st.sampled_from([1, 2, 3, 26]))
# the spy that ``outcome`` installs serves every example alike
_SPY = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SPY
@given(rng=st.randoms(use_true_random=False),
       shots=st.integers(1, 4), seed=st.integers(0, 2 ** 32),
       options=_LIMITS)
def test_random_adaptive_modules_agree_with_run_time_operands(
        outcome, rng, shots, seed, options):
    module = parse_module(genutil.random_adaptive_module(rng))
    _agree(outcome, module, shots, seed, options)


@_SPY
@given(module=st.sampled_from(_CORPUS), shots=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32), options=_LIMITS)
def test_corpus_modules_agree_with_run_time_operands(outcome, module, shots,
                                                     seed, options):
    _agree(outcome, module, shots, seed, options)


# each constant-operand fault, as the interpreter raised it when every
# call converted its operands per shot: (reason, message, shot, location)

# result 0 is 1 only in some shots, and only those reach the bad call
_AFTER_A_ONE = """entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__rt__read_result(ptr null)
  br i1 %r, label %bad, label %done

bad:
  {call}
  br label %done

done:
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
"""

_AFTER_A_GATE = """entry:
  call void @__quantum__qis__h__body(ptr null)
  {call}
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
"""

_NOT_A_QUBIT = ("BadOperand", "expected a qubit reference")
_PAST_ONE = ("QubitLimit", "simulation needs more than 1 qubits")
_DUPLICATE = ("BadOperand", "duplicate qubit operand in a gate")
_ADDR_1 = "ptr inttoptr (i64 1 to ptr)"

FAULTS = {
    # a non-qubit constant in a qubit slot
    "global_as_qubit": (_AFTER_A_ONE, "call void @__quantum__qis__h__body("
                        "ptr @g)", 26, (*_NOT_A_QUBIT, 1, "main:bad:0")),
    "int_as_qubit": (_AFTER_A_ONE, "call void @__quantum__qis__rx__body("
                     "double 0.5, i64 3)", 26,
                     (*_NOT_A_QUBIT, 1, "main:bad:0")),
    "global_as_second_qubit": (_AFTER_A_GATE,
                               "call void @__quantum__qis__cnot__body("
                               "ptr null, ptr @g)", 26,
                               (*_NOT_A_QUBIT, 0, "main:entry:1")),
    # the first qubit is indexed, and grows the state past the limit,
    # before the second is converted
    "past_the_limit_then_global": (_AFTER_A_GATE,
                                   "call void @__quantum__qis__cnot__body("
                                   f"{_ADDR_1}, ptr @g)", 1,
                                   (*_PAST_ONE, 0, "main:entry:1")),
    "global_then_past_the_limit": (_AFTER_A_GATE,
                                   "call void @__quantum__qis__cnot__body("
                                   f"ptr @g, {_ADDR_1})", 1,
                                   (*_NOT_A_QUBIT, 0, "main:entry:1")),
    "past_the_limit_then_global_in_three": (
        _AFTER_A_GATE, "call void @__quantum__qis__ccx__body("
        f"ptr null, {_ADDR_1}, ptr @g)", 1, (*_PAST_ONE, 0, "main:entry:1")),
    "global_as_angle": (_AFTER_A_GATE, "call void @__quantum__qis__rz__body("
                        "ptr @g, ptr @g)", 26,
                        ("BadOperand", "expected a rotation angle", 0,
                         "main:entry:1")),
    # a gate naming one constant qubit twice
    "same_qubit_twice": (_AFTER_A_ONE, "call void @__quantum__qis__cz__body("
                         f"{_ADDR_1}, {_ADDR_1})", 26,
                         (*_DUPLICATE, 1, "main:bad:0")),
    "same_qubit_in_three": (_AFTER_A_GATE,
                            "call void @__quantum__qis__ccx__body("
                            f"ptr null, {_ADDR_1}, ptr null)", 26,
                            (*_DUPLICATE, 0, "main:entry:1")),
    # a static address past the limit, reached after a gate grew the state
    "past_the_limit": (_AFTER_A_GATE, "call void @__quantum__qis__x__body("
                       f"{_ADDR_1})", 1, (*_PAST_ONE, 0, "main:entry:1")),
    "past_the_limit_in_a_measure": (_AFTER_A_GATE,
                                    "call void @__quantum__qis__mz__body("
                                    f"{_ADDR_1}, ptr null)", 1,
                                    (*_PAST_ONE, 0, "main:entry:1")),
    # reading a constant result never measured
    "unmeasured_result": (_AFTER_A_ONE, "%x = call i1 "
                          "@__quantum__rt__read_result("
                          f"{_ADDR_1})", 26,
                          ("ReadBeforeMeasure",
                           "result 1 read before it was measured", 1,
                           "main:bad:0")),
}


@pytest.mark.parametrize("body, call, max_qubits, error", FAULTS.values(),
                         ids=FAULTS.keys())
def test_a_constant_operand_fault_is_raised_where_it_was(outcome, body, call,
                                                         max_qubits, error):
    module = _module(body.replace("{call}", call))
    assert _agree(outcome, module, shots=6, seed=3,
                  options=ExecOptions(max_qubits=max_qubits))[3] == error


@pytest.mark.parametrize("value, message", [
    (math.inf, "rotation angle inf is not finite"),
    (-math.inf, "rotation angle -inf is not finite"),
    (math.nan, "rotation angle nan is not finite"),
])
@pytest.mark.parametrize("qubit", ["ptr null", "ptr @g"])
def test_a_non_finite_constant_angle_is_raised_where_it_was(
        outcome, value, message, qubit):
    # the readers refuse such a constant, so the module is built by hand;
    # the angle converts before the qubit, so it is the fault either way
    module = _module(_AFTER_A_ONE.replace(
        "{call}", f"call void @__quantum__qis__rx__body(double 0.5, "
        f"{qubit})"))

    def with_angle(block):
        rx = block.instructions[0]
        angle = replace(rx.args[0], value=ConstFloat(value))
        return replace(block, instructions=(
            replace(rx, args=(angle, *rx.args[1:])),))

    module = genutil.with_entry_block(module, 1, with_angle)
    assert _agree(outcome, module, shots=6, seed=3)[3] == (
        "BadOperand", message, 1, "main:bad:0")


def test_constant_calls_convert_their_operands_once(monkeypatch):
    # a converter that counts its calls: an all-constant measure and a
    # one-qubit gate with a constant angle convert at compile time only,
    # a qubit read from a local converts once per shot
    calls = collections.Counter()
    for name in ("_qubit", "_result", "_angle"):
        real = getattr(interpreter, name)

        def counting(value, real=real, name=name):
            calls[name] += 1
            return real(value)
        monkeypatch.setattr(interpreter, name, counting)
        monkeypatch.setitem(interpreter._CONVERTERS, {
            "_qubit": "qubit", "_result": "result",
            "_angle": "angle"}[name], counting)
    module = _module("""entry:
  %q = inttoptr i64 1 to ptr
  call void @__quantum__qis__rx__body(double 0.5, ptr %q)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr %q, ptr inttoptr (i64 1 to ptr))
  ret void
""")
    interpret(module, shots=5, seed=1)
    # compile: the angle, both operands of the constant mz, and the
    # result of the other; runs: ``%q`` in the gate (template) and in the
    # second mz (each of five shots)
    assert calls == {"_angle": 1, "_qubit": 1 + 1 + 5, "_result": 1 + 5}
