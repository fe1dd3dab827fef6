"""Profile classification of modules."""

import copy
import pickle

import pytest

from qirtk import (Profile, circuit_to_base_qir, import_openqasm2,
                   parse_module, profile, validate_profile)

import genutil


EXPECTED = {
    "bell_static.ll": Profile.BASE,
    "measure_only.ll": Profile.BASE,
    "rotations.ll": Profile.BASE,
    "empty.ll": Profile.BASE,
    "bell_dynamic.ll": Profile.ADAPTIVE_SUBSET,
    "ghz_dynamic.ll": Profile.ADAPTIVE_SUBSET,
    "hadamard_loop.ll": Profile.ADAPTIVE_SUBSET,
    "phi_loop.ll": Profile.ADAPTIVE_SUBSET,
    "feedback.ll": Profile.ADAPTIVE_SUBSET,
    "reuse.ll": Profile.ADAPTIVE_SUBSET,
    "unsupported.ll": Profile.UNSUPPORTED,
}


@pytest.mark.parametrize("name,expected", sorted(EXPECTED.items()))
def test_corpus_classification(name, expected):
    report = validate_profile(parse_module(genutil.corpus_text(name)))
    assert report.profile is expected


def test_base_report_has_no_violations():
    report = validate_profile(parse_module(genutil.corpus_text(
        "bell_static.ll")))
    assert report.violations == ()


def test_unknown_intrinsic_is_reported_with_symbol_and_location():
    report = validate_profile(parse_module(genutil.corpus_text(
        "unsupported.ll")))
    assert report.profile is Profile.UNSUPPORTED
    assert any("bogus" in v.reason for v in report.violations)
    assert all(":" in v.location for v in report.violations)


def test_control_flow_is_an_adaptive_construct():
    report = validate_profile(parse_module(genutil.corpus_text(
        "hadamard_loop.ll")))
    assert any("multiple blocks" in v.reason for v in report.violations)


def test_gate_after_measurement_leaves_base():
    text = ("declare void @__quantum__qis__h__body(ptr)\n"
            "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  call void @__quantum__qis__h__body(ptr null)\n"
            "  ret void\n"
            "}\n")
    report = validate_profile(parse_module(text))
    assert report.profile is Profile.ADAPTIVE_SUBSET
    assert any("after a measurement" in v.reason for v in report.violations)


def test_measurement_after_recording_leaves_base():
    text = ("declare void @__quantum__qis__mz__body(ptr, ptr)\n"
            "declare void @__quantum__rt__result_record_output(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
            "  call void @__quantum__rt__result_record_output(ptr null, "
            "ptr null)\n"
            "  call void @__quantum__qis__mz__body("
            "ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))\n"
            "  ret void\n"
            "}\n")
    report = validate_profile(parse_module(text))
    assert report.profile is Profile.ADAPTIVE_SUBSET
    assert any("after output recording" in v.reason
               for v in report.violations)


def test_dynamic_handles_leave_base():
    report = validate_profile(parse_module(genutil.corpus_text(
        "bell_dynamic.ll")))
    reasons = " / ".join(v.reason for v in report.violations)
    assert "static address" in reasons or "classical instruction" in reasons


def test_wrong_intrinsic_arity_is_unsupported():
    text = ("declare void @__quantum__qis__h__body(ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__h__body(ptr null, ptr null)\n"
            "  ret void\n"
            "}\n")
    report = validate_profile(parse_module(text))
    assert report.profile is Profile.UNSUPPORTED
    assert any("arguments" in v.reason for v in report.violations)


def test_unmeasured_qubits_raise_a_warning_not_a_violation():
    text = ("declare void @__quantum__qis__h__body(ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            "  call void @__quantum__qis__h__body(ptr null)\n"
            "  ret void\n"
            "}\n")
    report = validate_profile(parse_module(text))
    assert report.profile is Profile.BASE
    assert report.violations == ()
    assert any("never measured" in w for w in report.warnings)


def test_runs_of_three_or_more_unmeasured_qubits_are_ranges():
    circuit = import_openqasm2("OPENQASM 2.0;\nqreg q[11];\ncreg c[2];\n"
                               "measure q[3] -> c[0];\n"
                               "measure q[6] -> c[1];\n")
    report = validate_profile(circuit_to_base_qir(circuit))
    assert report.warnings == (
        "qubits [0-2, 4, 5, 7-10] are never measured",)


def test_fully_measured_base_module_has_no_warnings():
    report = validate_profile(parse_module(genutil.corpus_text(
        "bell_static.ll")))
    assert report.warnings == ()


@pytest.mark.parametrize("operands, expected", [
    ("ptr null, ptr null", Profile.UNSUPPORTED),
    ("ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr)",
     Profile.UNSUPPORTED),
    ("ptr null, ptr inttoptr (i64 1 to ptr)", Profile.BASE),
])
def test_a_gate_naming_one_qubit_twice_is_unsupported(operands, expected):
    # the interpreter refuses such a gate, so no pass may lower it
    text = ("declare void @__quantum__qis__cnot__body(ptr, ptr)\n"
            "define void @main() {\n"
            "entry:\n"
            f"  call void @__quantum__qis__cnot__body({operands})\n"
            "  ret void\n"
            "}\n")
    report = validate_profile(parse_module(text))
    assert report.profile is expected
    if expected is Profile.UNSUPPORTED:
        assert [(v.location, v.reason) for v in report.violations] == [
            ("main:entry:0",
             "duplicate qubit operand in @__quantum__qis__cnot__body")]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_a_report_does_not_depend_on_the_cache(name):
    # a module keeps its report; an equal module parsed afresh and a copy,
    # whose cache is not copied, classify cold and report the same
    text = genutil.corpus_text(name)
    module = parse_module(text)
    cold = validate_profile(module)
    assert validate_profile(module) is cold
    fresh = parse_module(text)
    assert fresh == module
    assert validate_profile(fresh) == cold
    for clone in (copy.deepcopy(module), pickle.loads(pickle.dumps(module))):
        assert validate_profile(clone) == cold


def test_a_report_cannot_be_edited():
    report = validate_profile(parse_module(genutil.corpus_text(
        "unsupported.ll")))
    assert type(report.violations) is tuple
    with pytest.raises(AttributeError):
        report.profile = Profile.BASE
    with pytest.raises(AttributeError):
        report.violations[0].reason = "edited"


@pytest.mark.parametrize("name", sorted(
    name for name, expected in EXPECTED.items() if expected is Profile.BASE))
def test_a_base_module_formats_no_location(monkeypatch, name):
    # a location is formatted only for a violation, and a base module has
    # none
    calls = []
    loc = profile._loc
    monkeypatch.setattr(profile, "_loc",
                        lambda *at: calls.append(at) or loc(*at))
    report = validate_profile(parse_module(genutil.corpus_text(name)))
    assert report.profile is Profile.BASE
    assert calls == []
