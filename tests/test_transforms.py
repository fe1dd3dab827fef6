"""Unrolling, static allocation, dead-code pruning, and lowering."""

import random

import pytest

from qirtk import (Profile, TransformError, allocate_static_addresses,
                   interpret, lower_to_base, parse_module, print_module,
                   unroll_and_fold, validate_profile)
from qirtk.intrinsics import declaration_for
from qirtk.ir import PTR, BasicBlock, Call, FuncDef, QirModule, Ret
from qirtk.transforms import _schedule

import genutil


def _module(name):
    return parse_module(genutil.corpus_text(name))


def _calls(module):
    return [i for b in module.entry.blocks for i in b.instructions
            if isinstance(i, Call)]


# ---------------------------------------------------------------------------
# unrolling


def test_counted_loop_unrolls_to_ten_ascending_gates():
    out = unroll_and_fold(_module("hadamard_loop.ll"))
    assert len(out.entry.blocks) == 1
    calls = _calls(out)
    assert [c.callee for c in calls] == \
        ["__quantum__qis__h__body"] * 10
    assert [c.args[0].value.index for c in calls] == list(range(10))


def test_unrolling_folds_every_classical_slot_away():
    text = print_module(unroll_and_fold(_module("hadamard_loop.ll")))
    for fragment in ("alloca", "store", "load", "icmp", "add", "br "):
        assert fragment not in text


def test_unrolling_is_idempotent():
    once = print_module(unroll_and_fold(_module("hadamard_loop.ll")))
    twice = print_module(unroll_and_fold(parse_module(once)))
    assert once == twice


def test_straight_line_module_is_unchanged_by_unrolling():
    module = _module("bell_static.ll")
    assert print_module(unroll_and_fold(module)) == print_module(module)


def test_phi_driven_loop_unrolls_too():
    out = unroll_and_fold(_module("phi_loop.ll"))
    assert len(out.entry.blocks) == 1
    kinds = [c.callee for c in _calls(out)]
    assert kinds.count("__quantum__qis__x__body") == 4


def test_unrolled_results_get_fresh_ssa_names():
    text = ("declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "declare i1 @__quantum__rt__read_result(ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  %seen = call i1 @__quantum__rt__read_result(ptr null)\n"
            "  ret void\n"
            "}\n")
    out = unroll_and_fold(parse_module(text))
    read = _calls(out)[1]
    assert read.result == "v0"


def test_iteration_cap_is_enforced():
    with pytest.raises(TransformError) as exc:
        unroll_and_fold(_module("hadamard_loop.ll"), iteration_cap=5)
    assert exc.value.reason == "CapExceeded"


def test_the_entry_block_counts_its_first_visit_against_the_cap():
    module = parse_module("define void @main() {\nentry:\n  br label %a\n"
                          "a:\n  br label %entry\n}\n")
    with pytest.raises(TransformError) as exc:
        unroll_and_fold(module, iteration_cap=2)
    assert str(exc.value).startswith(
        "CapExceeded: block 'entry' revisited more than 2 times")


def test_cap_equal_to_the_trip_count_is_enough():
    out = unroll_and_fold(_module("hadamard_loop.ll"), iteration_cap=10)
    assert len(_calls(out)) == 10


def test_branching_on_a_measurement_cannot_unroll():
    with pytest.raises(TransformError) as exc:
        unroll_and_fold(_module("feedback.ll"))
    assert exc.value.reason == "DataDependent"


# ---------------------------------------------------------------------------
# static allocation


def test_dynamic_bell_lowers_to_the_static_bell_program():
    lowered = lower_to_base(_module("bell_dynamic.ll"))
    reference = _module("bell_static.ll")
    assert lowered.entry == reference.entry
    assert lowered.attributes == reference.attributes


def test_released_indices_are_handed_out_again_lowest_first():
    lowered = lower_to_base(_module("reuse.ll"))
    # both allocations collapse onto index 0, so no other address appears
    assert "inttoptr" not in print_module(lowered)
    assert lowered.required_count("required_num_qubits") == 1


def test_pinned_static_qubits_are_never_reassigned():
    text = ("declare ptr @__quantum__rt__qubit_allocate()\n"
            "declare void @__quantum__qis__x__body(ptr)\n"
            "declare void @__quantum__qis__h__body(ptr)\n"
            "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__x__body("
            "ptr inttoptr (i64 1 to ptr))\n"
            "  %q = call ptr @__quantum__rt__qubit_allocate()\n"
            "  call void @__quantum__qis__h__body(ptr %q)\n"
            "  call void @__quantum__qis__mz__body(ptr %q, ptr null)\n"
            "  ret void\n"
            "}\n")
    lowered = lower_to_base(parse_module(text))
    printed = print_module(lowered)
    assert "call void @__quantum__qis__h__body(ptr null)" in printed
    assert lowered.required_count("required_num_qubits") == 2


def test_result_addresses_do_not_pin_qubit_indices():
    text = ("declare ptr @__quantum__rt__qubit_allocate()\n"
            "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  %q = call ptr @__quantum__rt__qubit_allocate()\n"
            "  call void @__quantum__qis__mz__body(ptr %q, ptr null)\n"
            "  ret void\n"
            "}\n")
    lowered = lower_to_base(parse_module(text))
    assert ("call void @__quantum__qis__mz__body(ptr null, ptr null)"
            in print_module(lowered))


def test_allocation_size_must_be_constant():
    text = ("declare ptr @__quantum__rt__qubit_allocate_array(i64)\n"
            "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "declare i1 @__quantum__rt__read_result(ptr)\n"
            "declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)\n"
            "declare void @__quantum__qis__h__body(ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  %bit = call i1 @__quantum__rt__read_result(ptr null)\n"
            "  %n = zext i1 %bit to i64\n"
            "  %arr = call ptr @__quantum__rt__qubit_allocate_array(i64 %n)\n"
            "  %p = call ptr @__quantum__rt__array_get_element_ptr_1d("
            "ptr %arr, i64 0)\n"
            "  %q = load ptr, ptr %p\n"
            "  call void @__quantum__qis__h__body(ptr %q)\n"
            "  ret void\n"
            "}\n")
    with pytest.raises(TransformError) as exc:
        lower_to_base(parse_module(text))
    assert exc.value.reason == "NonConstantAllocation"


def test_oversized_array_allocation_is_refused_before_assignment():
    text = ("declare ptr @__quantum__rt__qubit_allocate_array(i64)\n"
            "define void @main() {\n"
            "entry:\n"
            "  %arr = call ptr @__quantum__rt__qubit_allocate_array("
            "i64 400000000)\n"
            "  ret void\n"
            "}\n")
    with pytest.raises(TransformError) as exc:
        allocate_static_addresses(parse_module(text))
    assert exc.value.reason == "AllocationLimit"
    assert str(exc.value) == ("AllocationLimit: array allocation of "
                              "400000000 qubits exceeds the limit of 65536")


def _allocations(count: int) -> QirModule:
    """A straight-line module of ``count`` qubit allocations, none of them
    released."""
    allocate = "__quantum__rt__qubit_allocate"
    calls = tuple(Call(allocate, (), f"q{i}", PTR) for i in range(count))
    return QirModule("m", (declaration_for(allocate),),
                     (FuncDef("main", (BasicBlock("entry", (), calls,
                                                  Ret()),), 0),),
                     {0: {"entry_point": ""}})


def test_an_allocation_past_the_qubit_limit_is_refused():
    # the 65,537th live qubit needs index 65536
    with pytest.raises(TransformError) as exc:
        allocate_static_addresses(_allocations(65537))
    assert str(exc.value) == ("AllocationLimit: allocating qubit index 65536 "
                              "exceeds the limit of 65536 qubits")
    assert allocate_static_addresses(_allocations(65536))


def test_slots_cannot_mix_handles_and_integers():
    text = ("declare ptr @__quantum__rt__qubit_allocate()\n"
            "declare void @__quantum__qis__h__body(ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  %slot = alloca i64\n"
            "  %q = call ptr @__quantum__rt__qubit_allocate()\n"
            "  store ptr %q, ptr %slot\n"
            "  store i64 3, ptr %slot\n"
            "  %back = load ptr, ptr %slot\n"
            "  call void @__quantum__qis__h__body(ptr %back)\n"
            "  ret void\n"
            "}\n")
    with pytest.raises(TransformError) as exc:
        allocate_static_addresses(parse_module(text))
    assert exc.value.reason == "EscapingHandle"


def test_static_allocation_requires_a_single_block():
    with pytest.raises(TransformError) as exc:
        allocate_static_addresses(_module("hadamard_loop.ll"))
    assert exc.value.reason == "NotStraightLine"


# ---------------------------------------------------------------------------
# lowering pipeline


def test_lowering_reports_feedback_as_feedback():
    with pytest.raises(TransformError) as exc:
        lower_to_base(_module("feedback.ll"))
    assert exc.value.reason == "FeedbackRequired"


def test_gate_on_a_measured_qubit_blocks_lowering():
    text = ("declare void @__quantum__qis__h__body(ptr)\n"
            "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  call void @__quantum__qis__h__body(ptr null)\n"
            "  ret void\n"
            "}\n")
    with pytest.raises(TransformError) as exc:
        lower_to_base(parse_module(text))
    assert exc.value.reason == "FeedbackRequired"


def test_reset_after_any_measurement_blocks_lowering():
    text = ("declare void @__quantum__qis__reset__body(ptr)\n"
            "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  call void @__quantum__qis__reset__body("
            "ptr inttoptr (i64 1 to ptr))\n"
            "  ret void\n"
            "}\n")
    with pytest.raises(TransformError) as exc:
        lower_to_base(parse_module(text))
    assert exc.value.reason == "FeedbackRequired"


def test_remeasuring_a_recorded_result_blocks_lowering():
    text = ("declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "declare void @__quantum__rt__result_record_output(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  call void @__quantum__rt__result_record_output(ptr null, "
            "ptr null)\n"
            "  call void @__quantum__qis__mz__body("
            "ptr inttoptr (i64 1 to ptr), ptr null)\n"
            "  ret void\n"
            "}\n")
    with pytest.raises(TransformError) as exc:
        lower_to_base(parse_module(text))
    assert exc.value.reason == "FeedbackRequired"


def test_measurements_sink_past_gates_on_other_qubits():
    text = ("declare void @__quantum__qis__h__body(ptr)\n"
            "declare void @__quantum__qis__x__body(ptr)\n"
            "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "declare void @__quantum__rt__result_record_output(ptr, ptr)\n"
            "define void @main() #0 {\n"
            "entry:\n"
            "  call void @__quantum__qis__h__body(ptr null)\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  call void @__quantum__qis__x__body("
            "ptr inttoptr (i64 1 to ptr))\n"
            "  call void @__quantum__qis__mz__body("
            "ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))\n"
            "  call void @__quantum__rt__result_record_output(ptr null, "
            "ptr null)\n"
            "  call void @__quantum__rt__result_record_output("
            "ptr inttoptr (i64 1 to ptr), ptr null)\n"
            "  ret void\n"
            "}\n"
            'attributes #0 = { "entry_point" }\n')
    module = parse_module(text)
    lowered = lower_to_base(module)
    assert validate_profile(lowered).profile is Profile.BASE
    callees = [c.callee for c in _calls(lowered)]
    assert callees == ["__quantum__qis__h__body",
                       "__quantum__qis__x__body",
                       "__quantum__qis__mz__body",
                       "__quantum__qis__mz__body",
                       "__quantum__rt__result_record_output",
                       "__quantum__rt__result_record_output"]
    # moving a measurement past gates on other qubits keeps every shot
    before = interpret(module, shots=300, seed=11)
    after = interpret(lowered, shots=300, seed=11)
    assert before.memory == after.memory


def test_unused_readback_is_pruned_with_its_declaration():
    text = ("declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "declare i1 @__quantum__rt__read_result(ptr)\n"
            "declare void @__quantum__rt__result_record_output(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  %peek = call i1 @__quantum__rt__read_result(ptr null)\n"
            "  call void @__quantum__rt__result_record_output(ptr null, "
            "ptr null)\n"
            "  ret void\n"
            "}\n")
    lowered = lower_to_base(parse_module(text))
    printed = print_module(lowered)
    assert "read_result" not in printed
    assert validate_profile(lowered).profile is Profile.BASE


_READBACK_DECLS = (
    "declare void @__quantum__qis__h__body(ptr)\n"
    "declare void @__quantum__qis__rx__body(double, ptr)\n"
    "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
    "declare i1 @__quantum__rt__read_result(ptr)\n"
    "declare void @__quantum__rt__result_record_output(ptr, ptr)\n")

# a readback widened and cast to an address
_READBACK_ADDRESS = ("  %r = call i1 @__quantum__rt__read_result(ptr null)\n"
                     "  %w = zext i1 %r to i64\n"
                     "  %p = inttoptr i64 %w to ptr\n")


def _single_block(body: str):
    return parse_module(_READBACK_DECLS + "define void @main() #0 {\n"
                        "entry:\n" + body + "  ret void\n}\n"
                        'attributes #0 = { "entry_point" }\n')


@pytest.mark.parametrize("body, message", [
    (_READBACK_ADDRESS + "  call void @__quantum__qis__h__body(ptr %p)\n",
     "@__quantum__qis__h__body has a qubit operand that is not a constant "
     "address"),
    (_READBACK_ADDRESS
     + "  call void @__quantum__qis__mz__body(ptr null, ptr %p)\n",
     "@__quantum__qis__mz__body has a result operand that is not a constant "
     "address"),
    ("  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
     + _READBACK_ADDRESS + "  call void @__quantum__qis__h__body(ptr %p)\n",
     "a measurement result is read back inside the program; the base "
     "profile has no readback"),
    ("  %r = call i1 @__quantum__rt__read_result(ptr null)\n"
     "  %a = select i1 %r, double 1.0, double 2.0\n"
     "  call void @__quantum__qis__rx__body(double %a, ptr null)\n",
     "lowered module still fails base validation: "
     "@__quantum__rt__read_result is outside the base profile"),
], ids=["qubit-operand", "result-operand", "readback-after-measure",
        "readback-picks-an-angle"])
def test_lowering_refuses_what_the_base_profile_cannot_schedule(body,
                                                                message):
    with pytest.raises(TransformError) as exc:
        lower_to_base(_single_block(body))
    assert (exc.value.reason, exc.value.message) == \
        ("FeedbackRequired", message)


def test_a_dead_readback_chain_is_dropped_whole():
    lowered = lower_to_base(_single_block(
        "  call void @__quantum__qis__h__body(ptr null)\n"
        "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
        "  %r = call i1 @__quantum__rt__read_result(ptr null)\n"
        "  %w = zext i1 %r to i64\n"
        "  %s = add i64 %w, 1\n"
        "  call void @__quantum__rt__result_record_output(ptr null, "
        "ptr null)\n"))
    block = lowered.entry.blocks[0]
    assert [i.callee for i in block.instructions] == [
        "__quantum__qis__h__body", "__quantum__qis__mz__body",
        "__quantum__rt__result_record_output"]
    assert validate_profile(lowered).profile is Profile.BASE


def test_lowering_never_invents_output_records():
    lowered = lower_to_base(_module("hadamard_loop.ll"))
    assert "record" not in print_module(lowered)
    assert validate_profile(lowered).profile is Profile.BASE


def test_lowering_a_base_module_is_the_identity():
    module = _module("bell_static.ll")
    assert print_module(lower_to_base(module)) == print_module(module)


def test_lowering_a_base_module_keeps_the_label_of_its_block():
    text = genutil.corpus_text("bell_static.ll").replace("entry:", "start:")
    module = parse_module(text)
    assert validate_profile(module).profile is Profile.BASE
    assert print_module(lower_to_base(module)) == print_module(module)


@pytest.mark.parametrize("attributes, qubits", [
    ('"entry_point"', 2),
    # fewer than the calls use: raised to what they need
    ('"entry_point" "required_num_qubits"="1"', 2),
    # more than the calls use: the idle qubits are kept, as the circuit
    # bridges keep them
    ('"entry_point" "required_num_qubits"="5"', 5),
    ('"entry_point" "required_num_qubits"="-5"', 2),
], ids=["no_counts", "wrong_qubit_count", "idle_qubit_count",
        "negative_qubit_count"])
def test_lowering_a_base_module_sets_its_required_counts(attributes, qubits):
    counts = ('"entry_point" "required_num_qubits"="2" '
              '"required_num_results"="2"')
    text = genutil.corpus_text("bell_static.ll")
    module = parse_module(text.replace(counts, attributes))
    assert validate_profile(module).profile is Profile.BASE
    lowered = lower_to_base(module)
    assert lowered.entry.blocks == module.entry.blocks
    expected = text.replace('"required_num_qubits"="2"',
                            f'"required_num_qubits"="{qubits}"')
    assert print_module(lowered) == print_module(parse_module(expected))


def test_lowering_is_idempotent_on_dynamic_inputs():
    once = lower_to_base(_module("ghz_dynamic.ll"))
    twice = lower_to_base(once)
    assert print_module(once) == print_module(twice)


def test_lowered_modules_carry_both_required_attributes():
    lowered = lower_to_base(_module("ghz_dynamic.ll"))
    assert lowered.required_count("required_num_qubits") == 3
    assert lowered.required_count("required_num_results") == 3


@pytest.mark.parametrize("seed", range(8))
def test_lowering_preserves_every_shot_bit_for_bit(seed):
    module = parse_module(genutil.random_adaptive_module(random.Random(seed)))
    lowered = lower_to_base(module)
    assert validate_profile(lowered).profile is Profile.BASE
    before = interpret(module, shots=100, seed=seed)
    after = interpret(lowered, shots=100, seed=seed)
    assert before.memory == after.memory


# ---------------------------------------------------------------------------
# passes never modify their input


_DYNAMIC_ARRAY_LOOP = (
    "declare ptr @__quantum__rt__qubit_allocate_array(i64)\n"
    "declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)\n"
    "declare void @__quantum__rt__qubit_release_array(ptr)\n"
    "declare void @__quantum__qis__h__body(ptr)\n"
    "declare void @__quantum__qis__cnot__body(ptr, ptr)\n"
    "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
    "declare void @__quantum__rt__result_record_output(ptr, ptr)\n"
    "define void @main() #0 {\n"
    "entry:\n"
    "  %qs = alloca ptr\n"
    "  %arr = call ptr @__quantum__rt__qubit_allocate_array(i64 4)\n"
    "  store ptr %arr, ptr %qs\n"
    "  %ctr = alloca i64\n"
    "  store i64 0, ptr %ctr\n"
    "  br label %header\n"
    "header:\n"
    "  %i = load i64, ptr %ctr\n"
    "  %go = icmp slt i64 %i, 6\n"
    "  br i1 %go, label %body, label %exit\n"
    "body:\n"
    "  %j = load i64, ptr %ctr\n"
    "  %a = and i64 %j, 3\n"
    "  %b0 = add i64 %j, 1\n"
    "  %b = and i64 %b0, 3\n"
    "  %h = load ptr, ptr %qs\n"
    "  %pa = call ptr @__quantum__rt__array_get_element_ptr_1d("
    "ptr %h, i64 %a)\n"
    "  %qa = load ptr, ptr %pa\n"
    "  %pb = call ptr @__quantum__rt__array_get_element_ptr_1d("
    "ptr %h, i64 %b)\n"
    "  %qb = load ptr, ptr %pb\n"
    "  call void @__quantum__qis__h__body(ptr %qa)\n"
    "  call void @__quantum__qis__cnot__body(ptr %qa, ptr %qb)\n"
    "  %n = add i64 %j, 1\n"
    "  store i64 %n, ptr %ctr\n"
    "  br label %header\n"
    "exit:\n"
    "  %e = load ptr, ptr %qs\n"
    "  %p0 = call ptr @__quantum__rt__array_get_element_ptr_1d("
    "ptr %e, i64 0)\n"
    "  %q0 = load ptr, ptr %p0\n"
    "  call void @__quantum__qis__mz__body(ptr %q0, ptr null)\n"
    "  call void @__quantum__rt__result_record_output(ptr null, ptr null)\n"
    "  call void @__quantum__rt__qubit_release_array(ptr %e)\n"
    "  ret void\n"
    "}\n"
    'attributes #0 = { "entry_point" "required_num_results"="1" }\n')

_PURITY_INPUTS = {path.name: path.read_text(encoding="utf-8")
                  for path in sorted(genutil.CORPUS.glob("*.ll"))}
_PURITY_INPUTS["dynamic_array_loop"] = _DYNAMIC_ARRAY_LOOP
# the same loop unrolled, so static allocation has handles to assign
_PURITY_INPUTS["dynamic_array_loop_unrolled"] = print_module(
    unroll_and_fold(parse_module(_DYNAMIC_ARRAY_LOOP)))


def _outcome(transform, module):
    try:
        return transform(module)
    except TransformError as err:
        return err.reason, str(err)


@pytest.mark.parametrize("transform", [
    unroll_and_fold, allocate_static_addresses, lower_to_base])
@pytest.mark.parametrize("name", sorted(_PURITY_INPUTS))
def test_transforms_leave_their_input_unchanged(transform, name):
    text = _PURITY_INPUTS[name]
    module = parse_module(text)
    printed = print_module(module)
    first = _outcome(transform, module)
    assert print_module(module) == printed
    assert module == parse_module(text)
    second = _outcome(transform, module)
    assert second == first
    assert print_module(module) == printed


_START_BLOCK = ("declare ptr @__quantum__rt__qubit_allocate()\n"
                "declare void @__quantum__qis__h__body(ptr)\n"
                "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
                "declare i1 @__quantum__rt__read_result(ptr)\n"
                "define void @main() {\n"
                "start:\n"
                "  %q = call ptr @__quantum__rt__qubit_allocate()\n"
                "  call void @__quantum__qis__mz__body(ptr %q, ptr null)\n"
                "  %peek = call i1 @__quantum__rt__read_result(ptr null)\n"
                "  call void @__quantum__qis__h__body("
                "ptr inttoptr (i64 1 to ptr))\n"
                "  ret void\n"
                "}\n")


def test_static_allocation_keeps_the_label_of_its_block():
    out = allocate_static_addresses(parse_module(_START_BLOCK))
    assert [b.label for b in out.entry.blocks] == ["start"]
    assert "\nstart:\n" in print_module(out)


def test_lowering_passes_keep_the_label_of_their_block():
    # lower_to_base unrolls first, and the unrolled block is always
    # named ``entry``; the passes after it keep whatever label they get
    allocated = allocate_static_addresses(parse_module(_START_BLOCK))
    scheduled = _schedule(allocated)
    assert "read_result" not in print_module(scheduled)
    assert [c.callee for c in _calls(scheduled)] == [
        "__quantum__qis__h__body", "__quantum__qis__mz__body"]
    assert [b.label for b in scheduled.entry.blocks] == ["start"]
    lowered = lower_to_base(parse_module(_START_BLOCK))
    assert [b.label for b in lowered.entry.blocks] == ["entry"]


NON_INTRINSIC = """\
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @f(ptr null)
  ret void
}
declare void @__quantum__qis__h__body(ptr)
declare void @f(ptr)
attributes #0 = { "entry_point" }
"""


@pytest.mark.parametrize("transform, gate", [
    (unroll_and_fold, "unroll_and_fold"),
    (allocate_static_addresses, "allocate_static_addresses"),
    (lower_to_base, "lower_to_base"),
], ids=["unroll_and_fold", "allocate_static_addresses", "lower_to_base"])
def test_a_call_to_a_non_intrinsic_is_refused(transform, gate):
    with pytest.raises(TransformError) as info:
        transform(parse_module(NON_INTRINSIC))
    assert info.value.reason == "Unsupported"
    assert info.value.message == (
        f"{gate} requires a supported module: call to non-intrinsic "
        "symbol @f at main:entry:1")
