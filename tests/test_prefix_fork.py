"""``interpret`` runs a program's prefix once, up to its first draw, and
forks each shot from it; every shot must still be the one that
``run_shot`` without a template, the reference path, runs from the
start: the same bits, counts, steps and error."""

import collections
import itertools
import random

import pytest

from qirtk import (ExecOptions, ExecutionError, interpret, interpreter,
                   parse_module, run_shot)

import genutil

_module = genutil.entry_module


def _error(err: Exception) -> tuple:
    return (type(err), getattr(err, "reason", None),
            getattr(err, "message", str(err)), getattr(err, "shot", None),
            getattr(err, "location", None))


def _reference(module, shots: int, seed: int, options) -> tuple:
    """Memory, per-shot steps and error of shots run from the start."""
    memory, steps = [], []
    try:
        for shot in range(shots):
            bits, state = run_shot(module, seed, shot, options)
            memory.append(bits)
            steps.append(state.steps)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return memory, steps, _error(err)
    return memory, steps, None


@pytest.fixture
def forked(monkeypatch):
    """``forked(module, shots, seed, options)``: what ``reference`` returns,
    from ``interpret``, whose shot states a spy on ``run_shot`` reads."""
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
        except Exception as err:  # noqa: BLE001 - compared, not handled
            return None, list(steps), _error(err)
        assert result.counts == collections.Counter(result.memory)
        return result.memory, list(steps), None
    return run


def _agree(forked, module, shots=6, seed=11, options=None):
    """Both paths agree; returns the reference's outcome."""
    expected = _reference(module, shots, seed, options)
    memory, steps, error = forked(module, shots, seed, options)
    assert (steps, error) == expected[1:]
    if error is None:
        assert memory == expected[0]
    return expected


@pytest.mark.parametrize("seed", range(0, 220, 10))
def test_random_adaptive_programs_agree(forked, seed):
    for offset in range(10):
        rng = random.Random(seed + offset)
        module = parse_module(genutil.random_adaptive_module(rng))
        _agree(forked, module, shots=5, seed=seed + offset)


@pytest.mark.parametrize("path", sorted(genutil.CORPUS.glob("*.ll")),
                         ids=lambda path: path.name)
def test_corpus_programs_agree(forked, path):
    module = parse_module(path.read_text(encoding="utf-8"))
    for shots in (1, 2, 7):
        _agree(forked, module, shots=shots)


DRAW_IN_ENTRY = """entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__h__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr null)
  ret void
"""

# the first draw is in ``measure``, reached once a phi loop of three trips
# has run; its block has phis, which run before the stop and not again
DRAW_AFTER_A_PHI_LOOP = """entry:
  call void @__quantum__qis__h__body(ptr null)
  br label %loop

loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  call void @__quantum__qis__rx__body(double 0.7, ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  %next = add i64 %i, 1
  %again = icmp slt i64 %next, 3
  br i1 %again, label %loop, label %measure

measure:
  %k = phi i64 [ %next, %loop ], [ %k1, %measure ]
  %q = inttoptr i64 %k to ptr
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  %r = call i1 @__quantum__rt__read_result(ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  %k1 = sub i64 %k, 1
  %more = icmp sgt i64 %k1, 0
  br i1 %more, label %measure, label %exit

exit:
  ret void
"""

NO_DRAW = """entry:
  call void @__quantum__qis__x__body(ptr null)
  br label %next

next:
  call void @__quantum__qis__h__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
"""

# each of these keeps something mutable live across the first draw and
# changes it after, so a fork that shared it with the template would
# carry one shot's change into the next

# a dynamic qubit in a slot and in the environment, released through the
# slot's copy after the draw: using the other name then is an error
QUBIT_RELEASED_AFTER_THE_DRAW = """entry:
  %slot = alloca ptr
  %q = call ptr @__quantum__rt__qubit_allocate()
  store ptr %q, ptr %slot
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  %held = load ptr, ptr %slot
  call void @__quantum__qis__x__body(ptr %held)
  call void @__quantum__rt__qubit_release(ptr %held)
  %r = call i1 @__quantum__rt__read_result(ptr null)
  br i1 %r, label %again, label %done

again:
  call void @__quantum__qis__x__body(ptr %q)
  br label %done

done:
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
"""

# a dynamic qubit released after the draw: a fork that shared it would
# find it released in the next shot
QUBIT_RELEASED_ONCE = """entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__qis__reset__body(ptr %q)
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
"""

# an array, held in a slot, released element by element after the draw
ARRAY_RELEASED_AFTER_THE_DRAW = """entry:
  %slot = alloca ptr
  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  store ptr %a, ptr %slot
  %p = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 1)
  %q = load ptr, ptr %p
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  %held = load ptr, ptr %slot
  call void @__quantum__rt__qubit_release_array(ptr %held)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
"""

# an element pointer stored through after the draw: element 0 becomes
# the qubit in |1>, so result 0 (element 0 before the store) is 0 and
# result 2 (element 0 read again through the slot-held array) is 1 in
# every shot; a fork that saw an earlier shot's store, or whose pointer
# and slot held different copies of the array, records otherwise
ELEMENT_STORED_THROUGH_AFTER_THE_DRAW = """entry:
  %slot = alloca ptr
  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  store ptr %a, ptr %slot
  %p0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 0)
  %p1 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 1)
  %one = load ptr, ptr %p1
  call void @__quantum__qis__x__body(ptr %one)
  call void @__quantum__qis__mz__body(ptr %one, ptr inttoptr (i64 1 to ptr))
  %held = load ptr, ptr %slot
  %h0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %held, i64 0)
  %zero = load ptr, ptr %h0
  call void @__quantum__qis__mz__body(ptr %zero, ptr null)
  store ptr %one, ptr %p0
  %now = load ptr, ptr %h0
  call void @__quantum__qis__mz__body(ptr %now, ptr inttoptr (i64 2 to ptr))
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 2 to ptr), ptr null)
  ret void
"""

# an array that holds itself and an element pointer into itself, stored
# through after the draw: the fork copies the cycle without recursing
ARRAY_THAT_HOLDS_ITSELF = """entry:
  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 3)
  %p0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 0)
  %p1 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 1)
  %p2 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 2)
  %q = load ptr, ptr %p2
  store ptr %a, ptr %p0
  store ptr %p1, ptr %p1
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  %self = load ptr, ptr %p0
  %e = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %self, i64 1)
  %inner = load ptr, ptr %e
  store ptr %q, ptr %inner
  %back = load ptr, ptr %p1
  call void @__quantum__qis__x__body(ptr %back)
  call void @__quantum__qis__mz__body(ptr %back, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr null)
  ret void
"""

# reading result 1 before measuring it faults after the draw; at a step
# limit that falls after the read, in the draw's block, a run from the
# start faults at the read, but the template pauses at the draw past the
# limit and is dropped, so shot 0 runs from the start
READ_AFTER_THE_DRAW = """entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__rt__read_result(ptr inttoptr (i64 1 to ptr))
  ret void
"""

HAND_BUILT = {
    "draw_in_entry": DRAW_IN_ENTRY,
    "draw_after_a_phi_loop": DRAW_AFTER_A_PHI_LOOP,
    "no_draw": NO_DRAW,
    "qubit_released_after_the_draw": QUBIT_RELEASED_AFTER_THE_DRAW,
    "qubit_released_once": QUBIT_RELEASED_ONCE,
    "array_released_after_the_draw": ARRAY_RELEASED_AFTER_THE_DRAW,
    "element_stored_through_after_the_draw":
        ELEMENT_STORED_THROUGH_AFTER_THE_DRAW,
    "array_that_holds_itself": ARRAY_THAT_HOLDS_ITSELF,
    "read_after_the_draw": READ_AFTER_THE_DRAW,
}


@pytest.mark.parametrize("body", HAND_BUILT.values(), ids=HAND_BUILT.keys())
@pytest.mark.parametrize("shots", [1, 2, 8])
def test_hand_built_programs_agree(forked, body, shots):
    _agree(forked, _module(body), shots=shots)


@pytest.mark.parametrize("name, error", [
    ("qubit_released_after_the_draw", "UseAfterRelease"),
    ("qubit_released_once", None),
    ("array_released_after_the_draw", None),
    ("element_stored_through_after_the_draw", None),
    ("array_that_holds_itself", None),
])
def test_aliasing_programs_do_what_they_are_built_for(forked, name, error):
    # seed 9 draws 0 in shots 0 to 2 of the first program and 1 in shot
    # 3, so its reference runs three shots before the error
    memory, _, raised = _agree(forked, _module(HAND_BUILT[name]), shots=8,
                               seed=9)
    if error is None:
        assert raised is None and len(memory) == 8
    else:
        assert raised[1:4:2] == (error, 3)
    if name == "element_stored_through_after_the_draw":
        assert set(memory) == {"011"}
    if name == "array_that_holds_itself":
        assert all(bits[0] != bits[1] for bits in memory)


@pytest.mark.parametrize("name", ["draw_in_entry", "draw_after_a_phi_loop",
                                  "no_draw",
                                  "element_stored_through_after_the_draw",
                                  "read_after_the_draw"])
def test_every_step_limit_agrees(forked, name):
    # every limit from before the first block to one past the first that
    # the run ends or faults within: it falls before the first draw's
    # block, inside it, and after it
    module = _module(HAND_BUILT[name])
    for limit in itertools.count(-1):
        error = _agree(forked, module, shots=3,
                       options=ExecOptions(step_limit=limit))[2]
        if error is None or error[1] != "StepLimit":
            break
    _agree(forked, module, shots=3, options=ExecOptions(step_limit=limit + 1))


def test_a_step_limit_inside_the_first_draws_block_raises_at_shot_0(forked):
    module = _module(DRAW_AFTER_A_PHI_LOOP)
    # entry (2 steps) and three loop trips (5 steps each) fit, and the
    # limit falls at the draw of ``measure``
    limit = 2 + 3 * 5 + 2
    _, _, error = _agree(forked, module, shots=3,
                         options=ExecOptions(step_limit=limit))
    assert error == (ExecutionError, "StepLimit", f"exceeded {limit} steps",
                     0, "main:measure:2")


def test_a_qubit_limit_in_the_prefix_raises_at_shot_0(forked):
    module = _module(DRAW_IN_ENTRY)
    _, _, error = _agree(forked, module, shots=4,
                         options=ExecOptions(max_qubits=1))
    assert error == (ExecutionError, "QubitLimit",
                     "simulation needs more than 1 qubits", 0, "main:entry:1")


def test_a_fault_after_the_first_draw_raises_at_its_shot(forked):
    # reading result 1 before measuring it faults in every shot, after
    # the draw; shot 0 raises it from its fork
    _, steps, error = _agree(forked, _module(READ_AFTER_THE_DRAW), shots=3)
    assert steps == []
    assert error == (ExecutionError, "ReadBeforeMeasure",
                     "result 1 read before it was measured", 0,
                     "main:entry:1")


def _copies(monkeypatch) -> list:
    from qirtk.statevector import StateVector
    made = []
    real = StateVector.copy

    def copy(self):
        made.append(self.num_qubits)
        return real(self)
    monkeypatch.setattr(StateVector, "copy", copy)
    return made


@pytest.mark.parametrize("shots", [1, 2, 5])
def test_an_n_shot_run_with_a_draw_copies_n_minus_1_states(monkeypatch,
                                                           shots):
    made = _copies(monkeypatch)
    interpret(_module(DRAW_IN_ENTRY), shots=shots, seed=3)
    assert made == [2] * (shots - 1)


def test_a_run_that_never_draws_copies_no_state(monkeypatch):
    made = _copies(monkeypatch)
    result = interpret(_module(NO_DRAW), shots=5, seed=3)
    assert made == []
    assert result.counts == {"0": 5}


def test_a_faulting_prefix_copies_no_state(monkeypatch):
    made = _copies(monkeypatch)
    with pytest.raises(ExecutionError):
        interpret(_module(DRAW_IN_ENTRY), shots=5,
                  options=ExecOptions(max_qubits=1))
    assert made == []
