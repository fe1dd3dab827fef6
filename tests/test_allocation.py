"""Static allocation lets the unroller fold classical code and slots first.

``allocate_static_addresses`` walks only calls and element-pointer loads.
A single block that holds anything else is first folded by
``unroll_and_fold``, so direct allocation agrees with allocating the
unrolled module, and a constant whose type its operand cannot spell is
refused while unrolling.

The allocator and the interpreter share one qubit-handle model, so a
program that lowers also runs, and keeps its shots.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qirtk import (ExecOptions, ExecutionError, Profile, QirError,
                   TransformError, allocate_static_addresses, interpret,
                   lower_to_base, parse_module, print_module,
                   unroll_and_fold, validate_profile)
from qirtk import intrinsics, profile, transforms
from qirtk.ir import (Call, Load, QirModule, REQUIRED_QUBITS_ATTR,
                      REQUIRED_RESULTS_ATTR, StaticAddr, entry_calls)
from qirtk.node import replace

import genutil

_DECLS = {
    "allocate": "declare ptr @__quantum__rt__qubit_allocate()",
    "array": "declare ptr @__quantum__rt__qubit_allocate_array(i64)",
    "element": "declare ptr @__quantum__rt__array_get_element_ptr_1d("
               "ptr, i64)",
    "release": "declare void @__quantum__rt__qubit_release(ptr)",
    "release_array": "declare void @__quantum__rt__qubit_release_array("
                     "ptr)",
    "h": "declare void @__quantum__qis__h__body(ptr)",
    "x": "declare void @__quantum__qis__x__body(ptr)",
    "cnot": "declare void @__quantum__qis__cnot__body(ptr, ptr)",
    "mz": "declare void @__quantum__qis__mz__body(ptr, ptr)",
    "read": "declare i1 @__quantum__rt__read_result(ptr)",
    "record": "declare void @__quantum__rt__result_record_output(ptr, ptr)",
    "record_array": "declare void @__quantum__rt__array_record_output("
                    "i64, ptr)",
}


def _single_block(body: list[str], label: str = "entry") -> str:
    return "\n".join(list(_DECLS.values()) + [
        "define void @main() {", f"{label}:",
        *(f"  {line}" for line in body), "  ret void", "}", ""])


# each printed by the unroller as text its own parser rejected
PUNNED = {
    "add_result_passed_as_ptr": _single_block([
        "%x = add i64 1, 2",
        "call void @__quantum__qis__h__body(ptr %x)"]),
    "null_stored_then_loaded_as_i64": _single_block([
        "%s = alloca ptr",
        "store ptr null, ptr %s",
        "%n = load i64, ptr %s",
        "call void @__quantum__rt__array_record_output(i64 %n, ptr null)"]),
    "slot_mixes_a_handle_and_an_integer": _single_block([
        "%slot = alloca i64",
        "%q = call ptr @__quantum__rt__qubit_allocate()",
        "store ptr %q, ptr %slot",
        "store i64 3, ptr %slot",
        "%back = load ptr, ptr %slot",
        "call void @__quantum__qis__h__body(ptr %back)"]),
}


@pytest.mark.parametrize("transform", [
    unroll_and_fold, allocate_static_addresses, lower_to_base])
@pytest.mark.parametrize("name", sorted(PUNNED))
def test_a_constant_its_operand_type_cannot_spell_is_refused(transform,
                                                             name):
    with pytest.raises(TransformError) as info:
        transform(parse_module(PUNNED[name]))
    assert info.value.reason == "EscapingHandle"


def test_a_qubit_named_by_inttoptr_is_pinned():
    module = parse_module(_single_block([
        "%a = inttoptr i64 0 to ptr",
        "%q = call ptr @__quantum__rt__qubit_allocate()",
        "call void @__quantum__qis__x__body(ptr %q)",
        "call void @__quantum__qis__mz__body(ptr %a, ptr null)",
        "call void @__quantum__rt__result_record_output(ptr null, "
        "ptr null)"]))
    allocated = allocate_static_addresses(module)
    assert "call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))" \
        in print_module(allocated)
    assert interpret(module, shots=4, seed=1).counts == {"0": 4}
    assert interpret(allocated, shots=4, seed=1).counts == {"0": 4}


# single blocks with classical code or slots, each supported
HAND_BUILT = {
    "classical_arithmetic_picks_an_element": _single_block([
        "%arr = call ptr @__quantum__rt__qubit_allocate_array(i64 3)",
        "%i = add i64 1, 1",
        "%p = call ptr @__quantum__rt__array_get_element_ptr_1d("
        "ptr %arr, i64 %i)",
        "%q = load ptr, ptr %p",
        "call void @__quantum__qis__h__body(ptr %q)",
        "call void @__quantum__qis__mz__body(ptr %q, ptr null)"], "start"),
    "select_on_a_readback_stays_residual": _single_block([
        "call void @__quantum__qis__mz__body(ptr null, ptr null)",
        "%bit = call i1 @__quantum__rt__read_result(ptr null)",
        "%n = zext i1 %bit to i64",
        "%m = select i1 %bit, i64 %n, i64 7",
        "call void @__quantum__rt__array_record_output(i64 %m, ptr null)"]),
    "handle_through_a_slot_is_released_and_reused": _single_block([
        "%s = alloca ptr",
        "%q = call ptr @__quantum__rt__qubit_allocate()",
        "store ptr %q, ptr %s",
        "%back = load ptr, ptr %s",
        "call void @__quantum__qis__x__body(ptr %back)",
        "call void @__quantum__rt__qubit_release(ptr %back)",
        "%r = call ptr @__quantum__rt__qubit_allocate()",
        "call void @__quantum__qis__mz__body(ptr %r, ptr null)"], "body"),
    "pinned_by_a_folded_inttoptr": _single_block([
        "%k = add i64 2, 0",
        "%a = inttoptr i64 %k to ptr",
        "%q = call ptr @__quantum__rt__qubit_allocate()",
        "%r = call ptr @__quantum__rt__qubit_allocate()",
        "call void @__quantum__qis__x__body(ptr %a)",
        "call void @__quantum__qis__h__body(ptr %r)"]),
}


def _outcome(transform, module):
    try:
        return transform(module)
    except TransformError as err:
        return err.reason, str(err)


def _with_label(module, label: str):
    entry = module.entry
    block = replace(entry.blocks[0], label=label)
    return replace(module, functions=(replace(entry, blocks=(block,)),))


def _check_direct_equals_unrolled(module) -> None:
    block = module.entry.blocks[0]
    assert not all(isinstance(i, (Call, Load)) for i in block.instructions)
    direct = _outcome(allocate_static_addresses, module)
    unrolled = _outcome(
        lambda m: allocate_static_addresses(unroll_and_fold(m, 1)), module)
    if isinstance(unrolled, tuple):
        assert direct == unrolled
    else:
        assert direct == _with_label(unrolled, block.label)
        assert print_module(direct) == print_module(
            _with_label(unrolled, block.label))


def _random_single_blocks(count: int) -> list[str]:
    rng, texts = random.Random(11), []
    while len(texts) < count:
        text = genutil.random_adaptive_module(rng)
        if "br label" not in text:
            texts.append(text)
    return texts


@pytest.mark.parametrize("text", [
    genutil.corpus_text("bell_dynamic.ll"),
    *HAND_BUILT.values(),
    *PUNNED.values(),
    *_random_single_blocks(20),
], ids=["bell_dynamic", *HAND_BUILT, *PUNNED,
        *(f"random{i}" for i in range(20))])
def test_direct_allocation_allocates_the_unrolled_block(text):
    _check_direct_equals_unrolled(parse_module(text))


def test_hand_built_blocks_keep_their_shots():
    for text in HAND_BUILT.values():
        module = parse_module(text)
        allocated = allocate_static_addresses(module)
        assert interpret(allocated, shots=16, seed=3).memory == \
            interpret(module, shots=16, seed=3).memory


def test_lowering_a_slot_held_array_loop_unrolls_once(monkeypatch):
    # the unrolled module holds only calls and loads, so allocation
    # walks it as it is
    unrolls = []
    unroll = transforms.unroll_and_fold

    def counted(*args):
        unrolls.append(args)
        return unroll(*args)
    monkeypatch.setattr(transforms, "unroll_and_fold", counted)
    rng = random.Random(5)
    for _ in range(20):
        unrolls.clear()
        lower_to_base(parse_module(genutil.random_adaptive_module(rng)))
        assert len(unrolls) == 1


_SUPPORTED_INPUTS = st.one_of(
    st.randoms(use_true_random=False).map(genutil.random_adaptive_module),
    genutil.mutated())


@settings(max_examples=200)
@given(_SUPPORTED_INPUTS)
def test_every_supported_module_unrolls_to_a_supported_one(text):
    try:
        module = parse_module(text)
        if validate_profile(module).profile is Profile.UNSUPPORTED:
            return
        unrolled = unroll_and_fold(module)
    except QirError:
        return
    assert validate_profile(unrolled).profile is not Profile.UNSUPPORTED
    # what the unroller prints, its parser reads back
    assert parse_module(print_module(unrolled)) == unrolled


def _needed(module, kind: str) -> int:
    """One more than the highest constant address of ``kind`` among the
    calls of ``module``, or 0 when there is none."""
    return 1 + max((arg.value.index for call in entry_calls(module)
                    for arg_kind, arg in zip(
                        intrinsics.lookup(call.callee).arg_kinds, call.args)
                    if arg_kind == kind and isinstance(arg.value, StaticAddr)),
                   default=-1)


@settings(max_examples=150)
@given(_SUPPORTED_INPUTS)
@example(_single_block([
    "%x = add i64 1, 2",
    "call void @__quantum__qis__h__body(ptr inttoptr (i64 2 to ptr))",
    "call void @__quantum__qis__mz__body(ptr inttoptr (i64 2 to ptr), "
    "ptr null)"]))
def test_the_required_counts_follow_the_body(text):
    try:
        module = parse_module(text)
    except QirError:
        return
    for transform in (
            lambda m: allocate_static_addresses(unroll_and_fold(m, 64)),
            lambda m: lower_to_base(m, 64)):
        try:
            out = transform(module)
        except QirError:
            continue
        # what the calls need, or the input's valid declared count where
        # that is larger: declared but idle qubits and results are kept
        for key, kind in ((REQUIRED_QUBITS_ATTR, intrinsics.QUBIT_ARG),
                          (REQUIRED_RESULTS_ATTR, intrinsics.RESULT_ARG)):
            assert out.required_count(key) == max(
                module.required_count(key) or 0, _needed(out, kind))


# ---------------------------------------------------------------------------
# one qubit-handle model for the interpreter and the allocator

_RECORD = "call void @__quantum__rt__result_record_output(ptr null, ptr null)"

# a static qubit neither takes an index a dynamic release gave back nor
# gives its own to a later allocation
SAME_SHOTS = {
    "static_release_keeps_the_index": _single_block([
        "call void @__quantum__qis__x__body(ptr null)",
        "call void @__quantum__rt__qubit_release(ptr null)",
        "%q = call ptr @__quantum__rt__qubit_allocate()",
        "call void @__quantum__qis__mz__body(ptr %q, ptr null)", _RECORD]),
    "static_never_takes_a_released_index": _single_block([
        "%q = call ptr @__quantum__rt__qubit_allocate()",
        "call void @__quantum__qis__x__body(ptr %q)",
        "call void @__quantum__rt__qubit_release(ptr %q)",
        "call void @__quantum__qis__mz__body(ptr null, ptr null)", _RECORD]),
}


def test_releasing_a_static_qubit_pins_no_index():
    # the interpreter needs three qubits, and so does the lowered module
    module = parse_module(_single_block([
        "call void @__quantum__rt__qubit_release("
        "ptr inttoptr (i64 2 to ptr))",
        *(line for i in range(3) for line in (
            f"%q{i} = call ptr @__quantum__rt__qubit_allocate()",
            f"call void @__quantum__qis__x__body(ptr %q{i})"))]))
    options = ExecOptions(max_qubits=3)
    assert interpret(module, shots=1, options=options).counts == {"": 1}
    lowered = lower_to_base(module)
    assert lowered.required_count("required_num_qubits") == 3
    assert interpret(lowered, shots=1, options=options).counts == {"": 1}


@pytest.mark.parametrize("name", sorted(SAME_SHOTS))
def test_static_and_dynamic_qubits_keep_apart_before_and_after_lowering(
        name):
    module = parse_module(SAME_SHOTS[name])
    assert interpret(module, shots=4, seed=1).counts == {"0": 4}
    assert interpret(lower_to_base(module), shots=4, seed=1).counts == \
        {"0": 4}


_ELEMENT = [
    "%a = call ptr @__quantum__rt__qubit_allocate_array(i64 1)",
    "%p = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, i64 0)"]

# body -> (interpreter reason, lowering reason, lowering message)
REFUSED = {
    "element_pointer_passed_as_a_qubit": (_ELEMENT + [
        "call void @__quantum__qis__x__body(ptr %p)",
        "call void @__quantum__qis__mz__body(ptr %p, ptr null)"],
        "BadOperand", "EscapingHandle",
        "an array element pointer is passed where a qubit is expected"),
    "use_after_release": ([
        "%q = call ptr @__quantum__rt__qubit_allocate()",
        "call void @__quantum__rt__qubit_release(ptr %q)",
        "call void @__quantum__qis__h__body(ptr %q)"],
        "UseAfterRelease", "UseAfterRelease",
        "qubit handle used after release"),
    "double_release": ([
        "%q = call ptr @__quantum__rt__qubit_allocate()",
        "call void @__quantum__rt__qubit_release(ptr %q)",
        "call void @__quantum__rt__qubit_release(ptr %q)"],
        "UseAfterRelease", "UseAfterRelease",
        "release of an unknown or released handle"),
    "load_from_an_element_of_a_released_array": (_ELEMENT + [
        "call void @__quantum__rt__qubit_release_array(ptr %a)",
        "%q = load ptr, ptr %p",
        "call void @__quantum__qis__x__body(ptr %q)"],
        "UseAfterRelease", "UseAfterRelease",
        "qubit handle used after release"),
    # two loads of one element are two handles on one qubit
    "one_element_loaded_twice_into_a_gate": (_ELEMENT + [
        "%q = load ptr, ptr %p",
        "%r = load ptr, ptr %p",
        "call void @__quantum__qis__cnot__body(ptr %q, ptr %r)"],
        "BadOperand", "BadOperand", "duplicate qubit operand in a gate"),
    # the unroller folds both operands to one static address
    "folded_addresses_name_one_qubit": ([
        "%i = add i64 0, 1",
        "%q = inttoptr i64 %i to ptr",
        "call void @__quantum__qis__cnot__body(ptr %q, "
        "ptr inttoptr (i64 1 to ptr))"],
        "BadOperand", "BadOperand", "duplicate qubit operand in a gate"),
}


# the unroller folds a result address past the declared-size limit, which
# the interpreter maps to its next free index
FOLDED_PAST_THE_LIMIT = _single_block([
    "%i = add i64 69999, 1",
    "%r = inttoptr i64 %i to ptr",
    "call void @__quantum__qis__mz__body(ptr null, ptr %r)"])


@pytest.mark.parametrize("transform", [
    unroll_and_fold, allocate_static_addresses, lower_to_base])
def test_a_folded_address_past_the_limit_is_unsupported(transform):
    module = parse_module(FOLDED_PAST_THE_LIMIT)
    assert interpret(module, shots=1).shots == 1
    with pytest.raises(TransformError) as info:
        transform(module)
    assert (info.value.reason, info.value.message) == (
        "Unsupported", "result address 70000 of @__quantum__qis__mz__body "
                       "is not below the limit of 65536")
    # the classifier gives the address, written as a constant, that reason
    written = parse_module(_single_block([
        "call void @__quantum__qis__mz__body(ptr null, "
        "ptr inttoptr (i64 70000 to ptr))"]))
    assert [v.reason for v in validate_profile(written).violations] == [
        info.value.message]


@pytest.mark.parametrize("transform", [
    allocate_static_addresses, lower_to_base])
@pytest.mark.parametrize("name", sorted(REFUSED))
def test_lowering_refuses_what_the_interpreter_refuses(transform, name):
    body, run_reason, reason, message = REFUSED[name]
    module = parse_module(_single_block(body))
    with pytest.raises(ExecutionError) as run_info:
        interpret(module, shots=1)
    assert run_info.value.reason == run_reason
    with pytest.raises(TransformError) as info:
        transform(module)
    assert (info.value.reason, info.value.message) == (reason, message)
    if run_reason == reason:
        assert run_info.value.message == message


_ALLOCATE = "%q = call ptr @__quantum__rt__qubit_allocate()"
_ARRAY = "%a = call ptr @__quantum__rt__qubit_allocate_array(i64 2)"
_READ = ["call void @__quantum__qis__mz__body(ptr null, ptr null)",
         "%r = call i1 @__quantum__rt__read_result(ptr null)"]

# a handle or a slot where the lowering passes do not follow it:
# (body, reason, message), the same from both passes
MISUSED = {
    "load_through_a_qubit_handle": (
        [_ALLOCATE, "%x = load ptr, ptr %q"], "EscapingHandle",
        "load through a qubit handle that is not an array element pointer"),
    "element_lookup_on_a_qubit": (
        [_ALLOCATE, "%e = call ptr @__quantum__rt__array_get_element_ptr_1d("
                    "ptr %q, i64 0)"], "EscapingHandle",
        "element lookup on a value that is not a tracked array handle"),
    "element_index_past_the_end": (
        [_ARRAY, "%e = call ptr @__quantum__rt__array_get_element_ptr_1d("
                 "ptr %a, i64 2)"], "NonConstantAllocation",
        "array element index 2 is out of bounds for 2 elements"),
    "array_release_of_a_qubit": (
        [_ALLOCATE, "call void @__quantum__rt__qubit_release_array(ptr %q)"],
        "EscapingHandle",
        "array release of a value that is not a tracked array handle"),
    "array_passed_as_a_qubit": (
        [_ARRAY, "call void @__quantum__qis__h__body(ptr %a)"],
        "EscapingHandle",
        "an array handle is passed where a qubit is expected"),
    "qubit_handle_passed_as_a_result": (
        [_ALLOCATE, "call void @__quantum__qis__mz__body(ptr null, ptr %q)"],
        "EscapingHandle", "a qubit handle flows into a non-qubit argument"),
    "handle_through_select": (
        [_ALLOCATE, *_READ, "%s = select i1 %r, ptr %q, ptr null"],
        "EscapingHandle",
        "a qubit handle flows into a classical instruction"),
    "stack_slot_passed_to_a_call": (
        ["%s = alloca ptr", "call void @__quantum__qis__h__body(ptr %s)"],
        "EscapingHandle",
        "a stack-slot address flows into an emitted instruction"),
    "load_through_null": (
        ["%x = load i64, ptr null"], "EscapingHandle",
        "load through a pointer that is not a stack slot or an array "
        "element"),
    "release_of_an_inttoptr_pointer": (
        [*_READ, "%x = zext i1 %r to i64", "%p = inttoptr i64 %x to ptr",
         "call void @__quantum__rt__qubit_release(ptr %p)"],
        "EscapingHandle",
        "release of a value that is not a tracked qubit handle"),
}


@pytest.mark.parametrize("transform", [
    allocate_static_addresses, lower_to_base])
@pytest.mark.parametrize("name", sorted(MISUSED))
def test_a_misused_handle_or_slot_is_refused_by_both(transform, name):
    body, reason, message = MISUSED[name]
    with pytest.raises(TransformError) as info:
        transform(parse_module(_single_block(body)))
    assert (info.value.reason, info.value.message) == (reason, message)


def test_a_negative_array_size_is_refused_by_both():
    module = parse_module(_single_block([
        "%a = call ptr @__quantum__rt__qubit_allocate_array(i64 -1)"]))
    with pytest.raises(ExecutionError) as run_info:
        interpret(module, shots=1)
    assert (run_info.value.reason, run_info.value.message) == (
        "BadOperand", "array allocation size -1 is negative")
    with pytest.raises(TransformError) as info:
        lower_to_base(module)
    assert info.value.reason == "NonConstantAllocation"


@settings(max_examples=150)
@given(_SUPPORTED_INPUTS)
@example(_single_block(REFUSED["use_after_release"][0]))
@example(_single_block(REFUSED["one_element_loaded_twice_into_a_gate"][0]))
@example(_single_block(REFUSED["element_pointer_passed_as_a_qubit"][0]))
@example(_single_block(REFUSED["folded_addresses_name_one_qubit"][0]))
@example(FOLDED_PAST_THE_LIMIT)
def test_allocation_reads_the_preset_verdict_as_a_computed_one(text):
    # the unroller presets the unrolled module's verdict; the same module
    # read back from its text computes it, and allocation agrees on both
    try:
        unrolled = unroll_and_fold(parse_module(text), 64)
    except QirError:
        return
    assert QirModule._lazy_unsupported.__get__(unrolled) == ()
    assert profile._classify(unrolled).profile is not Profile.UNSUPPORTED
    outcomes = []
    for module in (unrolled, parse_module(print_module(unrolled))):
        try:
            outcomes.append(print_module(allocate_static_addresses(module)))
        except QirError as err:
            outcomes.append((type(err), err.reason, str(err)))
    assert outcomes[0] == outcomes[1]


_STATIC = ["null", "inttoptr (i64 1 to ptr)", "inttoptr (i64 2 to ptr)"]


@st.composite
def handle_programs(draw) -> str:
    """A straight-line program over static qubits, dynamic qubits and
    arrays, whose draws include releases of static qubits, double
    releases and uses after release.

    A ``cnot`` may draw one qubit twice, by one name or by two loads of
    one array element, which both sides refuse.
    """
    qubits = list(_STATIC)
    arrays: list[tuple[str, int]] = []
    lines: list[str] = []
    names = iter(range(1_000_000))
    for _ in range(draw(st.integers(1, 14))):
        step = draw(st.sampled_from([
            "allocate", "array", "element", "release", "release_array",
            "x", "h", "cnot", "mz", "record"]))
        n = next(names)
        if step == "allocate":
            lines.append(f"%q{n} = call ptr @__quantum__rt__qubit_allocate()")
            qubits.append(f"%q{n}")
        elif step == "array":
            size = draw(st.integers(0, 3))
            lines.append(f"%a{n} = call ptr "
                         f"@__quantum__rt__qubit_allocate_array(i64 {size})")
            arrays.append((f"%a{n}", size))
        elif step == "element" and any(size for _, size in arrays):
            array, size = draw(st.sampled_from(
                [a for a in arrays if a[1]]))
            k = draw(st.integers(0, size - 1))
            lines.append(f"%p{n} = call ptr "
                         "@__quantum__rt__array_get_element_ptr_1d("
                         f"ptr {array}, i64 {k})")
            lines.append(f"%q{n} = load ptr, ptr %p{n}")
            qubits.append(f"%q{n}")
        elif step == "release":
            qubit = draw(st.sampled_from(qubits))
            lines.append(f"call void @__quantum__rt__qubit_release(ptr "
                         f"{qubit})")
        elif step == "release_array" and arrays:
            array, _ = draw(st.sampled_from(arrays))
            lines.append("call void @__quantum__rt__qubit_release_array("
                         f"ptr {array})")
        elif step in ("x", "h"):
            qubit = draw(st.sampled_from(qubits))
            lines.append(f"call void @__quantum__qis__{step}__body(ptr "
                         f"{qubit})")
        elif step == "cnot":
            control = draw(st.sampled_from(qubits))
            target = draw(st.sampled_from(qubits))
            lines.append("call void @__quantum__qis__cnot__body("
                         f"ptr {control}, ptr {target})")
        elif step == "mz":
            qubit = draw(st.sampled_from(qubits))
            result = draw(st.sampled_from(_STATIC))
            lines.append(f"call void @__quantum__qis__mz__body(ptr {qubit}, "
                         f"ptr {result})")
        elif step == "record":
            result = draw(st.sampled_from(_STATIC))
            lines.append("call void @__quantum__rt__result_record_output("
                         f"ptr {result}, ptr null)")
    return _single_block(lines)


@settings(max_examples=300)
@given(handle_programs())
def test_a_program_that_lowers_runs_and_keeps_its_shots(text):
    module = parse_module(text)
    try:
        lowered = lower_to_base(module)
    except TransformError:
        return
    memory = interpret(module, shots=8, seed=5).memory
    assert interpret(lowered, shots=8, seed=5).memory == memory
