"""Pinned shot-interpreter behaviour: outcomes, step counts and errors.

This is the reference any change to how the interpreter executes must
match exactly. A run is reduced to one record: on success the memory,
the counts and ``run_shot(...)[1].steps`` of every shot; on failure the
error class, reason, message, shot and location. Records are pinned by
the first 16 hex digits of the SHA-256 of their JSON, or written out in
full where a reader should see the error.

Covered: every ``corpus/*.ll`` at seeds 0 and 7; 200
``genutil.random_adaptive_module`` programs, each also under a small
step limit and a small qubit limit; every step limit that lands inside
a corpus program, so each instruction and terminator is named once;
the error modules of ``test_evaluator.py``; and hand-written modules
for each fault the interpreter reports.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from qirtk import ExecOptions, ExecutionError, interpret, parse_module
from qirtk.interpreter import run_shot
from qirtk.ir import I64, PhiNode
from qirtk.node import replace

import genutil
import test_evaluator

SHOTS = 8


def _record(module, seed: int = 0, shots: int = SHOTS,
            options: ExecOptions | None = None) -> tuple:
    try:
        result = interpret(module, shots=shots, seed=seed, options=options)
    except ExecutionError as err:
        return (type(err).__name__, err.reason, err.message, err.shot,
                err.location)
    steps = [run_shot(module, seed, shot, options)[1].steps
             for shot in range(shots)]
    return ("ok", result.memory, sorted(result.counts.items()), steps)


def _digest(records) -> str:
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# corpus programs

CORPUS = sorted(p.name for p in genutil.CORPUS.glob("*.ll"))

PINNED_CORPUS = {
    ("bell_dynamic.ll", 0): "22f4650369e637bc",
    ("bell_dynamic.ll", 7): "ae390801050c65cd",
    ("bell_static.ll", 0): "f694bd770d59d2b3",
    ("bell_static.ll", 7): "18a4d01cf1157698",
    ("empty.ll", 0): "28c797934edb5ab3",
    ("empty.ll", 7): "28c797934edb5ab3",
    ("feedback.ll", 0): "19b354486d1c320f",
    ("feedback.ll", 7): "df3a674c4234fa5e",
    ("ghz_dynamic.ll", 0): "b9235a8aa48fa896",
    ("ghz_dynamic.ll", 7): "9574b56f895e1721",
    ("hadamard_loop.ll", 0): "d0d8279743e2c350",
    ("hadamard_loop.ll", 7): "d0d8279743e2c350",
    ("measure_only.ll", 0): "1133315796922ff4",
    ("measure_only.ll", 7): "1133315796922ff4",
    ("phi_loop.ll", 0): "b6390ba1aab25de7",
    ("phi_loop.ll", 7): "b6390ba1aab25de7",
    ("reuse.ll", 0): "b8823fb5a6ac1e76",
    ("reuse.ll", 7): "b8823fb5a6ac1e76",
    ("rotations.ll", 0): "8512a193a57269c2",
    ("rotations.ll", 7): "15e13f4ae95050a1",
    ("unsupported.ll", 0): "5ef55d5f3ef90acb",
    ("unsupported.ll", 7): "5ef55d5f3ef90acb",
}


def test_every_corpus_program_is_pinned():
    assert sorted({name for name, _ in PINNED_CORPUS}) == CORPUS


@pytest.mark.parametrize("name, seed", sorted(PINNED_CORPUS))
def test_corpus_outcomes_and_steps_are_pinned(name, seed):
    module = parse_module(genutil.corpus_text(name))
    assert _digest(_record(module, seed)) == PINNED_CORPUS[name, seed]


# one digest per corpus file over every step limit from 0 to the steps of
# shot 0, and over qubit limits 0 to 3
PINNED_LIMITS = {
    "bell_dynamic.ll": "ab5ffdcf3c900ec8",
    "bell_static.ll": "96b9f16f2a77abed",
    "empty.ll": "0713aae8c980edd2",
    "feedback.ll": "4e81e0cb8b02a25d",
    "ghz_dynamic.ll": "673d6a03e188a671",
    "hadamard_loop.ll": "9bf082814be500b7",
    "measure_only.ll": "dd5d4b89de668820",
    "phi_loop.ll": "3b2ce6b0d8f61654",
    "reuse.ll": "e5830249322f3c18",
    "rotations.ll": "a64d0d7622db13eb",
    "unsupported.ll": "6c248a883e8b93fb",
}


def _limit_records(name: str) -> list:
    module = parse_module(genutil.corpus_text(name))
    try:
        steps = run_shot(module, 0, 0)[1].steps
    except ExecutionError:
        steps = 8
    records = [_record(module, 0, 2, ExecOptions(step_limit=limit))
               for limit in range(steps + 1)]
    records += [_record(module, 0, 2, ExecOptions(max_qubits=limit))
                for limit in range(4)]
    return records


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_step_and_qubit_limits_are_pinned(name):
    assert _digest(_limit_records(name)) == PINNED_LIMITS[name]


# ---------------------------------------------------------------------------
# random adaptive programs

RANDOM_SEEDS = range(200)
PINNED_RANDOM = "82cb6211361dbecc"


def _random_records() -> list:
    records = []
    for seed in RANDOM_SEEDS:
        rng = random.Random(seed)
        module = parse_module(genutil.random_adaptive_module(rng))
        plain = _record(module, seed, 4)
        records.append(plain)
        # a step limit somewhere inside shot 0, and a qubit limit that
        # the wider programs exceed
        limit = rng.randint(0, plain[3][0]) if plain[0] == "ok" else 0
        records.append(_record(module, seed, 2, ExecOptions(
            step_limit=limit)))
        records.append(_record(module, seed, 2, ExecOptions(
            max_qubits=rng.randint(0, 4))))
    return records


def test_random_adaptive_programs_are_pinned():
    assert _digest(_random_records()) == PINNED_RANDOM


# ---------------------------------------------------------------------------
# error modules

# every step limit from 0 to 11, then the case's own limit
PINNED_EVALUATOR = {
    "load-unset-slot": "4e0ca5df3bbcfc65",
    "store-load-through-inttoptr": "71d4362bb5c3aba5",
    "add-on-qubit-handle": "bdbc2b1cf109b2d3",
    "slot-address-stored-to-slot": "227cea525f6639b9",
    "branch-on-read-result": "ec22c52a5b7ee9d5",
    "value-undefined-on-taken-path": "e8580afb258d0760",
    "phi-in-entry-block": "88a7a19098ce5da5",
    "step-limit-on-instruction": "904708b17975f690",
    "step-limit-on-terminator": "37bf6c97587682b2",
}


def _evaluator_records(case) -> list:
    _, body, step_limit = case[:3]
    module = parse_module(test_evaluator._main(body))
    records = [_record(module, 0, 2, ExecOptions(step_limit=limit))
               for limit in range(12)]
    if step_limit is not None:
        records.append(_record(module, 0, 2,
                               ExecOptions(step_limit=step_limit)))
    return records


@pytest.mark.parametrize("case", test_evaluator.CASES,
                         ids=[case[0] for case in test_evaluator.CASES])
def test_evaluator_error_modules_are_pinned(case):
    assert _digest(_evaluator_records(case)) == PINNED_EVALUATOR[case[0]]

_DECLS = """
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__rx__body(double, ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare void @__quantum__qis__mz__body(ptr, ptr writeonly)
declare void @__quantum__qis__reset__body(ptr)
declare ptr @__quantum__rt__qubit_allocate()
declare ptr @__quantum__rt__qubit_allocate_array(i64)
declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)
declare void @__quantum__rt__qubit_release(ptr)
declare void @__quantum__rt__qubit_release_array(ptr)
declare i1 @__quantum__rt__read_result(ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
declare void @__quantum__rt__array_record_output(i64, ptr)
declare void @__quantum__qis__bogus__body(ptr)
"""


def _module(body: str, attrs: str = ""):
    head = "define void @main() #0 {\n" if attrs else \
        "define void @main() {\n"
    tail = f'attributes #0 = {{ "entry_point" {attrs} }}\n' if attrs else ""
    return parse_module(_DECLS + head + body + "}\n" + tail)


def _drop_phi_edge(module):
    # the first phi loses its last incoming
    index = next(i for i, b in enumerate(module.entry.blocks) if b.phis)

    def edit(block):
        phi = block.phis[0]
        return replace(block, phis=(replace(
            phi, incomings=phi.incomings[:-1]),) + block.phis[1:])
    return genutil.with_entry_block(module, index, edit)


def _drop_terminator(label):
    def edit(module):
        index = next(i for i, b in enumerate(module.entry.blocks)
                     if b.label == label)
        return genutil.with_entry_block(
            module, index, lambda block: replace(block, terminator=None))
    return edit


def _foreign_opcode(module):
    def edit(block):
        body = block.instructions
        return replace(block, instructions=(
            body[:1] + (PhiNode("bad", I64, ()),) + body[1:]))
    return genutil.with_entry_block(module, -1, edit)


_LOOP = """entry:
  call void @__quantum__qis__h__body(ptr null)
  br label %empty
empty:
  br label %loop
loop:
  %i = phi i64 [ 0, %empty ], [ %next, %latch ]
  %next = add i64 %i, 1
  br label %latch
latch:
  %more = icmp slt i64 %next, 2
  br i1 %more, label %loop, label %exit
exit:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
"""

# (id, body, entry attributes, edit of the parsed module, options,
#  pinned record)
ERROR_CASES = [
    ("unknown-intrinsic",
     "entry:\n  call void @__quantum__qis__h__body(ptr null)\n"
     "  call void @__quantum__qis__bogus__body(ptr null)\n  ret void\n",
     "", None, None,
     ("ExecutionError", "UnknownIntrinsic",
      "@__quantum__qis__bogus__body is not a runtime intrinsic", 0,
      "main:entry:1")),
    ("unknown-intrinsic-not-reached",
     "entry:\n  br label %b\na:\n"
     "  call void @__quantum__qis__bogus__body(ptr null)\n  br label %b\n"
     "b:\n  ret void\n",
     "", None, None,
     ("ok", ["", ""], [("", 2)], [2, 2])),
    ("wrong-argument-count",
     "entry:\n  call void @__quantum__qis__h__body(ptr null, ptr null)\n"
     "  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "@__quantum__qis__h__body expects 1 arguments", 0, "main:entry:0")),
    ("wrong-argument-count-not-reached",
     "entry:\n  br label %b\na:\n"
     "  call void @__quantum__qis__h__body(ptr null, ptr null)\n"
     "  br label %b\nb:\n  ret void\n",
     "", None, None,
     ("ok", ["", ""], [("", 2)], [2, 2])),
    ("duplicate-qubit-operand",
     "entry:\n  call void @__quantum__qis__cnot__body(ptr null, ptr null)\n"
     "  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "duplicate qubit operand in a gate", 0, "main:entry:0")),
    ("angle-not-a-number",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  call void @__quantum__qis__rx__body(double %q, ptr %q)\n"
     "  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected a rotation angle", 0, "main:entry:1")),
    ("integer-angle",
     "entry:\n  %a = add i64 1, 2\n"
     "  call void @__quantum__qis__rx__body(double %a, ptr null)\n"
     "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
     "  call void @__quantum__rt__result_record_output(ptr null, ptr null)\n"
     "  ret void\n",
     "", None, None,
     ("ok", ["1", "1"], [("1", 2)], [5, 5])),
    ("integer-as-qubit",
     "entry:\n  %a = add i64 1, 2\n"
     "  call void @__quantum__qis__h__body(ptr %a)\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected a qubit reference", 0, "main:entry:1")),
    ("global-as-qubit",
     "entry:\n  call void @__quantum__qis__h__body(ptr @g)\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected a qubit reference", 0, "main:entry:0")),
    ("qubit-as-result",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  call void @__quantum__qis__mz__body(ptr %q, ptr %q)\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected a result reference", 0, "main:entry:1")),
    ("read-before-measure",
     "entry:\n  %r = call i1 @__quantum__rt__read_result(ptr null)\n"
     "  ret void\n",
     "", None, None,
     ("ExecutionError", "ReadBeforeMeasure",
      "result 0 read before it was measured", 0, "main:entry:0")),
    ("use-after-release",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  call void @__quantum__rt__qubit_release(ptr %q)\n"
     "  call void @__quantum__qis__h__body(ptr %q)\n  ret void\n",
     "", None, None,
     ("ExecutionError", "UseAfterRelease",
      "qubit handle used after release", 0, "main:entry:2")),
    ("double-release",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  call void @__quantum__rt__qubit_release(ptr %q)\n"
     "  call void @__quantum__rt__qubit_release(ptr %q)\n  ret void\n",
     "", None, None,
     ("ExecutionError", "UseAfterRelease",
      "release of an unknown or released handle", 0, "main:entry:2")),
    ("array-index-out-of-bounds",
     "entry:\n  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 2)\n"
     "  %p = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, "
     "i64 2)\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "array index 2 out of bounds (2 elements)", 0, "main:entry:1")),
    ("element-of-a-qubit",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  %p = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %q, "
     "i64 0)\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected an array handle", 0, "main:entry:1")),
    ("release-array-of-a-qubit",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  call void @__quantum__rt__qubit_release_array(ptr %q)\n"
     "  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected an array handle", 0, "main:entry:1")),
    ("array-size-not-an-integer",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 %q)\n"
     "  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected an integer", 0, "main:entry:1")),
    ("array-record-length-not-an-integer",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  call void @__quantum__rt__array_record_output(i64 %q, ptr null)\n"
     "  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected an integer", 0, "main:entry:1")),
    ("array-handles-and-records",
     "entry:\n  %a = call ptr @__quantum__rt__qubit_allocate_array(i64 2)\n"
     "  %p = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %a, "
     "i64 1)\n  %q = load ptr, ptr %p\n"
     "  call void @__quantum__qis__h__body(ptr %q)\n"
     "  call void @__quantum__qis__mz__body(ptr %q, ptr null)\n"
     "  call void @__quantum__qis__reset__body(ptr %q)\n"
     "  call void @__quantum__rt__array_record_output(i64 1, ptr null)\n"
     "  call void @__quantum__rt__result_record_output(ptr null, ptr null)\n"
     "  call void @__quantum__rt__qubit_release_array(ptr %a)\n"
     "  ret void\n",
     "", None, None,
     ("ok", ["0", "1"], [("0", 1), ("1", 1)], [10, 10])),
    ("branch-on-a-qubit",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  br i1 %q, label %a, label %a\na:\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected an integer value", 0, "main:entry:0")),
    ("select-on-a-qubit",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  %v = select i1 %q, i64 1, i64 2\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected an integer value", 0, "main:entry:1")),
    ("select-and-casts",
     "entry:\n  %c = icmp sgt i64 3, 2\n  %v = select i1 %c, i64 1, i64 2\n"
     "  %w = zext i1 %c to i64\n  %s = sext i1 %c to i64\n"
     "  %t = trunc i64 %s to i1\n  %p = inttoptr i64 %w to ptr\n"
     "  call void @__quantum__qis__x__body(ptr %p)\n"
     "  call void @__quantum__qis__mz__body(ptr %p, ptr null)\n"
     "  call void @__quantum__rt__result_record_output(ptr null, ptr null)\n"
     "  ret void\n",
     "", None, None,
     ("ok", ["1", "1"], [("1", 2)], [10, 10])),
    ("inttoptr-of-a-qubit",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  %p = inttoptr i64 %q to ptr\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected an integer value", 0, "main:entry:1")),
    ("zext-of-a-qubit",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  %p = zext i1 %q to i64\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected an integer value", 0, "main:entry:1")),
    ("icmp-on-a-qubit",
     "entry:\n  %q = call ptr @__quantum__rt__qubit_allocate()\n"
     "  %p = icmp eq i64 1, %q\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "expected an integer value", 0, "main:entry:1")),
    ("qubit-limit-on-grow",
     "entry:\n  call void @__quantum__qis__cnot__body(ptr null, "
     "ptr inttoptr (i64 1 to ptr))\n  ret void\n",
     "", None, ExecOptions(max_qubits=1),
     ("ExecutionError", "QubitLimit",
      "simulation needs more than 1 qubits", 0, "main:entry:0")),
    ("required-qubits-over-limit",
     "entry:\n  ret void\n",
     '"required_num_qubits"="3"', None, ExecOptions(max_qubits=2),
     ("ExecutionError", "QubitLimit",
      "module requires 3 qubits, limit is 2", 0, None)),
    ("required-qubits-at-limit",
     "entry:\n  call void @__quantum__qis__h__body(ptr inttoptr "
     "(i64 2 to ptr))\n  ret void\n",
     '"required_num_qubits"="2"', None, ExecOptions(max_qubits=2),
     ("ExecutionError", "QubitLimit",
      "simulation needs more than 2 qubits", 0, "main:entry:0")),
    ("phi-reads-undefined-value",
     "entry:\n  %c = icmp eq i64 0, 0\n  br i1 %c, label %j, label %a\n"
     "a:\n  %x = add i64 1, 1\n  br label %j\n"
     "j:\n  %y = phi i64 [ 0, %entry ], [ %x, %a ]\n"
     "  %z = phi i64 [ %x, %entry ], [ 1, %a ]\n  ret void\n",
     "", None, None,
     ("ExecutionError", "BadOperand",
      "%x read before assignment", 0, "main:entry:0")),
    ("missing-phi-edge",
     _LOOP, "", _drop_phi_edge, None,
     ("ExecutionError", "BadOperand",
      "phi %i has no incoming for 'latch'", 0, "main:latch:0")),
    ("missing-terminator-in-empty-block",
     _LOOP, "", _drop_terminator("empty"), None,
     ("ExecutionError", "BadOperand",
      "block has no terminator", 0, "main:entry:0")),
    ("missing-terminator",
     _LOOP, "", _drop_terminator("exit"), None,
     ("ExecutionError", "BadOperand",
      "block has no terminator", 0, "main:exit:1")),
    ("unsupported-opcode",
     _LOOP, "", _foreign_opcode, None,
     ("ExecutionError", "BadOperand",
      "cannot execute PhiNode", 0, "main:exit:1")),
]


def _case_module(case):
    _, body, attrs, edit = case[:4]
    module = _module(body, attrs)
    return module if edit is None else edit(module)


def _error_limit_records(case) -> list:
    options = case[4] or ExecOptions()
    return [_record(_case_module(case), 3, 2, ExecOptions(
        max_qubits=options.max_qubits, step_limit=limit))
        for limit in range(16)]


@pytest.mark.parametrize("case", ERROR_CASES,
                         ids=[case[0] for case in ERROR_CASES])
def test_error_modules_are_pinned(case):
    assert _record(_case_module(case), 3, 2, case[4]) == case[5]


# every step limit from 0 to 15
PINNED_ERROR_LIMITS = {
    "unknown-intrinsic": "6244d3bcff73e8b4",
    "unknown-intrinsic-not-reached": "1474aebc9215a776",
    "wrong-argument-count": "63d935a44ed79271",
    "wrong-argument-count-not-reached": "1474aebc9215a776",
    "duplicate-qubit-operand": "5180c2d9ed756a9d",
    "angle-not-a-number": "aef292ada041d3ec",
    "integer-angle": "5a97916a42919043",
    "integer-as-qubit": "36e8082fb11e1dd8",
    "global-as-qubit": "888ae3eb6ae6dc11",
    "qubit-as-result": "cce64c60dfc3c608",
    "read-before-measure": "8d5e127a3d629ba4",
    "use-after-release": "22aa9007ae9d34e1",
    "double-release": "1e61aec4395fdd38",
    "array-index-out-of-bounds": "28b1534ff2ce2463",
    "element-of-a-qubit": "c0ad34b3642c1297",
    "release-array-of-a-qubit": "c0ad34b3642c1297",
    "array-size-not-an-integer": "7d09eced943af4aa",
    "array-record-length-not-an-integer": "7d09eced943af4aa",
    "array-handles-and-records": "463dd86380a334bb",
    "branch-on-a-qubit": "b6f20249a66605fb",
    "select-on-a-qubit": "c92cebaac4fceb34",
    "select-and-casts": "94378b340d06ae12",
    "inttoptr-of-a-qubit": "c92cebaac4fceb34",
    "zext-of-a-qubit": "c92cebaac4fceb34",
    "icmp-on-a-qubit": "c92cebaac4fceb34",
    "qubit-limit-on-grow": "18ae20883753733f",
    "required-qubits-over-limit": "72faf9b5d7558031",
    "required-qubits-at-limit": "798d1d36bd87b40d",
    "phi-reads-undefined-value": "6eef1e8903e2208d",
    "missing-phi-edge": "a28af9e4e1ea1f98",
    "missing-terminator-in-empty-block": "15a04d6ae2bbeabd",
    "missing-terminator": "23f1d5200c420487",
    "unsupported-opcode": "637aa5f6165cf9f3",
}


@pytest.mark.parametrize("case", ERROR_CASES,
                         ids=[case[0] for case in ERROR_CASES])
def test_error_modules_under_step_limits_are_pinned(case):
    assert _digest(_error_limit_records(case)) == \
        PINNED_ERROR_LIMITS[case[0]]
