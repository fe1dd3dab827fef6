"""Shot execution semantics: counts, determinism, allocation, errors."""

import json
import math

import pytest

from qirtk import (ExecOptions, ExecutionError, interpret, interpreter,
                   lower_to_base, parse_module, run_shot, statevector)
from qirtk.cli import main
from qirtk.errors import MAX_SHOTS
from qirtk.ir import ConstFloat
from qirtk.node import replace

import genutil


def _module(name):
    return parse_module(genutil.corpus_text(name))


def test_bell_produces_only_correlated_outcomes():
    result = interpret(_module("bell_static.ll"), shots=500, seed=42)
    assert set(result.counts) <= {"00", "11"}
    assert sum(result.counts.values()) == 500
    assert len(result.memory) == 500


def test_identical_seeds_reproduce_identical_memory():
    first = interpret(_module("bell_static.ll"), shots=200, seed=9)
    second = interpret(_module("bell_static.ll"), shots=200, seed=9)
    assert first.memory == second.memory
    assert first.counts == second.counts
    third = interpret(_module("bell_static.ll"), shots=200, seed=10)
    assert third.memory != first.memory


def test_measure_only_records_a_zero():
    result = interpret(_module("measure_only.ll"), shots=20, seed=0)
    assert result.counts == {"0": 20}


def test_ghz_outcomes_are_all_or_nothing():
    result = interpret(_module("ghz_dynamic.ll"), shots=300, seed=5)
    assert set(result.counts) <= {"000", "111"}
    assert set(result.counts) == {"000", "111"}


def test_phi_loop_applies_an_even_number_of_flips():
    result = interpret(_module("phi_loop.ll"), shots=10, seed=1)
    assert result.counts == {"0": 10}


def test_feedback_correction_forces_the_second_bit_to_zero():
    result = interpret(_module("feedback.ll"), shots=300, seed=3)
    assert set(result.counts) == {"00", "10"}
    assert all(bits[1] == "0" for bits in result.memory)


def test_released_indices_are_reused_lowest_first():
    bits, state = run_shot(_module("reuse.ll"), seed=0, shot_index=0)
    assert bits == "1"
    # the second allocation reuses the released slot instead of growing
    assert state.statevector.num_qubits == 1


def test_empty_program_records_an_empty_string():
    result = interpret(_module("empty.ll"), shots=5, seed=0)
    assert result.counts == {"": 5}
    assert result.memory == ["", "", "", "", ""]


def test_module_without_measurements_has_empty_memory():
    result = interpret(_module("hadamard_loop.ll"), shots=1, seed=0)
    assert result.memory == [""]


def test_recording_an_unmeasured_result_yields_zero():
    text = ("declare void @__quantum__rt__result_record_output(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__rt__result_record_output(ptr null, "
            "ptr null)\n"
            "  ret void\n"
            "}\n")
    result = interpret(parse_module(text), shots=3, seed=0)
    assert result.counts == {"0": 3}


def test_remeasurement_overwrites_the_result_table():
    text = ("declare void @__quantum__qis__x__body(ptr)\n"
            "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "declare void @__quantum__rt__result_record_output(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__x__body(ptr null)\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  call void @__quantum__qis__x__body(ptr null)\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  call void @__quantum__rt__result_record_output(ptr null, "
            "ptr null)\n"
            "  ret void\n"
            "}\n")
    result = interpret(parse_module(text), shots=2, seed=0)
    assert result.counts == {"0": 2}


def test_required_qubit_attribute_presizes_the_state():
    _, state = run_shot(_module("bell_static.ll"), seed=0, shot_index=0)
    assert state.statevector.num_qubits == 2
    _, state = run_shot(_module("hadamard_loop.ll"), seed=0, shot_index=0)
    assert state.statevector.num_qubits == 10


def test_a_presized_static_qubit_is_its_own_amplitude_bit():
    text = ("declare void @__quantum__qis__x__body(ptr)\n"
            "define void @main() #0 {\n"
            "entry:\n"
            "  call void @__quantum__qis__x__body(ptr null)\n"
            "  ret void\n"
            "}\n"
            'attributes #0 = { "entry_point" "required_num_qubits"="3" }\n')
    _, state = run_shot(parse_module(text))
    assert state.statevector.amplitudes[1] == 1.0


def test_use_after_release_is_an_error():
    text = ("declare ptr @__quantum__rt__qubit_allocate()\n"
            "declare void @__quantum__rt__qubit_release(ptr)\n"
            "declare void @__quantum__qis__h__body(ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  %q = call ptr @__quantum__rt__qubit_allocate()\n"
            "  call void @__quantum__rt__qubit_release(ptr %q)\n"
            "  call void @__quantum__qis__h__body(ptr %q)\n"
            "  ret void\n"
            "}\n")
    with pytest.raises(ExecutionError) as exc:
        interpret(parse_module(text), shots=1, seed=0)
    assert exc.value.reason == "UseAfterRelease"


def test_read_before_measure_is_an_error():
    text = ("declare i1 @__quantum__rt__read_result(ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  %r = call i1 @__quantum__rt__read_result(ptr null)\n"
            "  ret void\n"
            "}\n")
    with pytest.raises(ExecutionError) as exc:
        interpret(parse_module(text), shots=1, seed=0)
    assert exc.value.reason == "ReadBeforeMeasure"


def test_qubit_limit_is_enforced():
    with pytest.raises(ExecutionError) as exc:
        interpret(_module("bell_static.ll"), shots=1, seed=0,
                  options=ExecOptions(max_qubits=1))
    assert exc.value.reason == "QubitLimit"


def test_an_over_wide_module_is_refused_before_it_is_compiled(monkeypatch):
    def compile(self):
        raise AssertionError("compiled an over-wide module")

    monkeypatch.setattr(interpreter._ShotCompiler, "compile", compile)
    module, options = _module("bell_static.ll"), ExecOptions(max_qubits=1)
    for shot, refused in [
            (0, lambda: interpret(module, shots=2, options=options)),
            (3, lambda: run_shot(module, shot_index=3, options=options))]:
        with pytest.raises(ExecutionError) as exc:
            refused()
        assert str(exc.value) == ("QubitLimit: module requires 2 qubits, "
                                  f"limit is 1 [shot {shot}]")
    assert interpret(module, shots=0, options=options).counts == {}


def _out_of_memory(*args):
    raise MemoryError


@pytest.mark.parametrize("name, method, error", [
    ("bell_static.ll", "__init__",
     "out of memory on a state of 2 qubits [shot 0]"),
    ("bell_dynamic.ll", "grow",
     "out of memory on a state of 0 qubits [shot 0] [main:entry:1]"),
    ("bell_static.ll", "apply_gate_inplace",
     "out of memory on a state of 2 qubits [shot 0] [main:entry:0]"),
], ids=["build", "grow", "update"])
def test_a_state_out_of_memory_is_a_qubit_limit(monkeypatch, name, method,
                                                error):
    monkeypatch.setattr(statevector.StateVector, method, _out_of_memory)
    module = _module(name)
    with pytest.raises(ExecutionError) as exc:
        interpret(module, shots=2)
    assert str(exc.value) == f"QubitLimit: {error}"
    # the reference path names its own shot
    with pytest.raises(ExecutionError) as exc:
        run_shot(module, shot_index=3)
    assert str(exc.value) == "QubitLimit: " + error.replace("[shot 0]",
                                                            "[shot 3]")


def test_a_fork_out_of_memory_is_a_qubit_limit_at_its_shot(monkeypatch):
    copy = statevector.StateVector.copy
    copies = []

    def second_copy_fails(state):
        copies.append(state.num_qubits)
        if len(copies) == 2:
            raise MemoryError
        return copy(state)

    monkeypatch.setattr(statevector.StateVector, "copy", second_copy_fails)
    with pytest.raises(ExecutionError) as exc:
        interpret(_module("bell_static.ll"), shots=3)
    assert str(exc.value) == ("QubitLimit: out of memory on a state of 2 "
                              "qubits [shot 1]")
    assert copies == [2, 2]


def test_step_limit_stops_runaway_programs():
    with pytest.raises(ExecutionError) as exc:
        interpret(_module("phi_loop.ll"), shots=1, seed=0,
                  options=ExecOptions(step_limit=3))
    assert exc.value.reason == "StepLimit"


def test_unknown_intrinsic_is_reported_with_shot_and_location():
    with pytest.raises(ExecutionError) as exc:
        interpret(_module("unsupported.ll"), shots=1, seed=0)
    err = exc.value
    assert err.reason == "UnknownIntrinsic"
    assert err.shot == 0
    assert err.location.startswith("main:")
    assert "UnknownIntrinsic" in str(err)


def test_negative_shot_count_is_rejected():
    with pytest.raises(ValueError):
        interpret(_module("empty.ll"), shots=-1)


def test_a_shot_count_past_the_bound_is_rejected(monkeypatch):
    # refused before anything is compiled or run
    monkeypatch.setattr(interpreter, "_template", None)
    with pytest.raises(ValueError, match=f"at most {MAX_SHOTS}$"):
        interpret(_module("bell_static.ll"), shots=MAX_SHOTS + 1)


def test_zero_shots_yield_an_empty_result():
    result = interpret(_module("bell_static.ll"), shots=0, seed=0)
    assert result.memory == []
    assert result.counts == {}


def test_json_rendering_sorts_counts_and_gates_memory():
    result = interpret(_module("bell_static.ll"), shots=50, seed=1)
    payload = json.loads(result.to_json())
    assert payload["shots"] == 50
    assert payload["seed"] == 1
    assert payload["bit_order"] == "clbit0-leftmost"
    assert list(payload["counts"]) == sorted(payload["counts"])
    assert "memory" not in payload
    with_memory = json.loads(result.to_json(include_memory=True))
    assert with_memory["memory"] == result.memory


@pytest.mark.parametrize("name", ["bell_static.ll", "ghz_dynamic.ll",
                                  "rotations.ll"])
def test_memory_holds_one_string_per_distinct_outcome(name):
    module = _module(name)
    result = interpret(module, shots=300, seed=5)
    assert result.memory == [run_shot(module, 5, shot)[0]
                             for shot in range(300)]
    # every shot with an outcome shares that outcome's one string
    assert len({id(bits) for bits in result.memory}) == len(result.counts)


def test_shot_streams_are_independent_of_execution_order():
    module = _module("bell_static.ll")
    full = interpret(module, shots=5, seed=123)
    single, _ = run_shot(module, seed=123, shot_index=3)
    assert single == full.memory[3]


_READ_FIRST_DECLS = (
    "declare void @__quantum__qis__cnot__body(ptr, ptr)\n"
    "declare void @__quantum__qis__ccx__body(ptr, ptr, ptr)\n"
    "declare void @__quantum__qis__rx__body(double, ptr)\n"
    "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
    "declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)\n")


@pytest.mark.parametrize("call", [
    "call void @__quantum__qis__cnot__body(ptr @g, ptr %x)",
    "call void @__quantum__qis__ccx__body(ptr @g, ptr null, ptr %x)",
    "call void @__quantum__qis__rx__body(double %x, ptr @g)",
    "call void @__quantum__qis__mz__body(ptr @g, ptr %x)",
    "%e = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr @g, i64 %x)",
])
def test_every_operand_is_read_before_any_is_used(call):
    # %x is defined only on the branch not taken, and the first operand
    # would fail too: the read fails first
    module = parse_module(
        _READ_FIRST_DECLS + "define void @main() {\nentry:\n"
        "  br label %b\na:\n  %x = add i64 1, 2\n  br label %b\n"
        f"b:\n  {call}\n  ret void\n}}\n")
    with pytest.raises(ExecutionError) as exc:
        interpret(module, shots=1)
    assert str(exc.value) == ("BadOperand: %x read before assignment "
                              "[shot 0] [main:b:0]")


def test_a_negative_step_limit_stops_at_the_first_step():
    with pytest.raises(ExecutionError) as exc:
        interpret(_module("bell_static.ll"), shots=1,
                  options=ExecOptions(step_limit=-1))
    assert str(exc.value) == ("StepLimit: exceeded -1 steps [shot 0] "
                              "[main:entry:0]")


_SWAP_AND_COMPARE = (
    "declare void @__quantum__qis__x__body(ptr)\n"
    "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
    "declare void @__quantum__rt__result_record_output(ptr, ptr)\n"
    "define void @main() {\n"
    "entry:\n  br label %loop\n"
    "loop:\n"
    "  %a = phi i64 [ 0, %entry ], [ %b, %loop ]\n"
    "  %b = phi i64 [ 1, %entry ], [ %a, %loop ]\n"
    "  %n = phi i64 [ 0, %entry ], [ %m, %loop ]\n"
    "  %m = add i64 %n, 1\n"
    "  %again = icmp slt i64 %m, 3\n"
    "  br i1 %again, label %loop, label %exit\n"
    "exit:\n"
    "  %q = inttoptr i64 %a to ptr\n"
    "  call void @__quantum__qis__x__body(ptr %q)\n"
    "  %neg = icmp slt i1 1, 0\n"
    "  %r = select i1 %neg, ptr inttoptr (i64 2 to ptr), ptr null\n"
    "  call void @__quantum__qis__x__body(ptr %r)\n"
    "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
    "  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), "
    "ptr inttoptr (i64 1 to ptr))\n"
    "  call void @__quantum__qis__mz__body(ptr inttoptr (i64 2 to ptr), "
    "ptr inttoptr (i64 2 to ptr))\n"
    "  call void @__quantum__rt__result_record_output(ptr null, ptr null)\n"
    "  call void @__quantum__rt__result_record_output("
    "ptr inttoptr (i64 1 to ptr), ptr null)\n"
    "  call void @__quantum__rt__result_record_output("
    "ptr inttoptr (i64 2 to ptr), ptr null)\n"
    "  ret void\n}\n")


def test_phis_copy_in_parallel_and_i1_compares_signed():
    # the phis swap %a and %b on every edge, so %a is 0 after three
    # visits; as signed i1 values 1 is -1, so 1 < 0
    module = parse_module(_SWAP_AND_COMPARE)
    assert interpret(module, shots=3).counts == {"101": 3}
    assert interpret(lower_to_base(module), shots=3).counts == {"101": 3}


NON_FINITE_RUNS = [
    ("nan.ll", "define void @main() #0 {\nentry:\n"
     "  call void @__quantum__qis__rx__body(double 0x7FF8000000000000, "
     "ptr null)\n"
     "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
     "  call void @__quantum__rt__result_record_output(ptr null, ptr null)\n"
     "  ret void\n}\n\n"
     "declare void @__quantum__qis__rx__body(double, ptr)\n"
     "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
     "declare void @__quantum__rt__result_record_output(ptr, ptr)\n\n"
     'attributes #0 = { "entry_point" }\n'),
    ("inf.qasm", "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nrx(1e999) q[0];\n"
     "measure q[0] -> c[0];\n"),
]


@pytest.mark.parametrize("name, text", NON_FINITE_RUNS,
                         ids=[name for name, _ in NON_FINITE_RUNS])
def test_a_non_finite_rotation_angle_is_refused(tmp_path, capsys, name,
                                                 text):
    # the readers refuse the constant, so the run never starts
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--shots", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("parse error: line ")
    assert "is not finite" in err


def test_a_hand_built_non_finite_angle_is_a_bad_operand():
    module = parse_module(NON_FINITE_RUNS[0][1].replace(
        "0x7FF8000000000000", "0.5"))

    def with_nan(block):
        rx = block.instructions[0]
        angle = replace(rx.args[0], value=ConstFloat(math.nan))
        return replace(block, instructions=(
            replace(rx, args=(angle,) + rx.args[1:]),)
            + block.instructions[1:])

    module = genutil.with_entry_block(module, 0, with_nan)
    with pytest.raises(ExecutionError) as info:
        interpret(module, shots=2)
    assert info.value.reason == "BadOperand"
    assert info.value.message == "rotation angle nan is not finite"
