"""Tests for the benchmark's own code: generators, checks, tracing, stats.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

import checks
import gen
import run
from tracer import Tracer, self_times


def _qirtk(argv: list[str]) -> str:
    from qirtk import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _write(tmp_path, generated: gen.Generated, name: str) -> str:
    path = tmp_path / f"{name}{generated.suffix}"
    path.write_text(generated.text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_generator_is_deterministic_and_seeded(name):
    make = gen.GENERATORS[name]
    assert make(7).text == make(7).text
    assert make(7).reference == make(7).reference
    assert make(7).text != make(8).text


def test_generator_output_is_identical_across_processes():
    code = ("import sys, hashlib, gen\n"
            "print(' '.join(hashlib.sha256(f(3).text.encode()).hexdigest()"
            " for _, f in sorted(gen.GENERATORS.items())))")
    child = subprocess.run([sys.executable, "-c", code], cwd=run.BENCH_DIR,
                           capture_output=True, text=True, check=True)
    here = " ".join(hashlib.sha256(f(3).text.encode()).hexdigest()
                    for _, f in sorted(gen.GENERATORS.items()))
    assert child.stdout.strip() == here


def test_generators_do_not_import_qirtk():
    code = "import sys, gen; gen.GENERATORS['sample'](1); " \
           "print(any(m.startswith('qirtk') for m in sys.modules))"
    child = subprocess.run([sys.executable, "-c", code], cwd=run.BENCH_DIR,
                           capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "False"


def test_gate_mix_uses_every_kind_equally():
    kinds = [line.split()[0].split("(")[0]
             for line in gen.wide(5).text.splitlines()[4:-1]]
    assert len(kinds) == gen.WIDE_GATES
    assert {kinds.count(k) for k in gen.GATES} == {gen.WIDE_GATES
                                                   // len(gen.GATES)}


# ---------------------------------------------------------------------------
# output checks


def _counts_text(counts, shots=4, seed=1):
    return json.dumps({"shots": shots, "seed": seed, "counts": counts,
                       "bit_order": "clbit0-leftmost"})


def test_check_counts_accepts_and_pins():
    counts = {"01": 3, "10": 1}
    digest = checks.counts_digest(counts)
    assert checks.check_counts(_counts_text(counts), 4, 2, 1, digest) is None
    assert checks.check_counts(_counts_text(counts), 4, 2, 1, None) is None


@pytest.mark.parametrize("text", [
    "not json",
    _counts_text({"01": 3, "10": 1}, shots=5),
    _counts_text({"01": 3, "10": 2}),
    _counts_text({"011": 3, "10": 1}),
    _counts_text({"0x": 3, "10": 1}),
    _counts_text({"01": 4, "10": 0}),
    _counts_text({"01": 3, "10": 1}, seed=2),
    _counts_text({"01": 2, "10": 2}),          # digest differs
])
def test_check_counts_rejects_corruption(text):
    digest = checks.counts_digest({"01": 3, "10": 1})
    assert checks.check_counts(text, 4, 2, 1, digest) is not None


@pytest.fixture(scope="module")
def lowered(tmp_path_factory):
    generated = gen.lower(2)
    path = _write(tmp_path_factory.mktemp("lower"), generated, "lower")
    return _qirtk(["transpile", path, "--to", "qir-base"]), generated


def test_check_lowered_accepts_real_output(lowered):
    text, generated = lowered
    assert checks.check_lowered(text, generated.reference["sequence"]) is None


def _swap_first_two_gates(text):
    lines = text.splitlines()
    i = lines.index("entry:") + 1
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines) + "\n"


def _mz_first(text):
    lines = text.splitlines()
    i = lines.index("entry:") + 1
    mz = next(j for j, ln in enumerate(lines) if "__mz__" in ln
              and "call" in ln)
    lines.insert(i, lines.pop(mz))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corrupt", [
    _swap_first_two_gates,
    _mz_first,
    lambda t: t.replace("(i64 3 to ptr)", "(i64 9 to ptr)", 1),
    lambda t: t.replace("entry:\n", "entry:\n  %x = add i64 1, 2\n", 1),
    lambda t: t.replace("declare void @__quantum__qis__h__body(ptr)\n", ""),
    lambda t: t.replace('"required_num_qubits"="8"',
                        '"required_num_qubits"="2"'),
    lambda t: t.replace("  ret void\n", "  br label %next\n"),
    lambda t: "\n".join(t.splitlines()[:-12]) + "\n",
])
def test_check_lowered_rejects_corruption(lowered, corrupt):
    text, generated = lowered
    bad = corrupt(text)
    assert bad != text
    assert checks.check_lowered(bad, generated.reference["sequence"]) \
        is not None


@pytest.fixture(scope="module")
def converted(tmp_path_factory):
    generated = gen.convert(4)
    path = _write(tmp_path_factory.mktemp("convert"), generated, "convert")
    return _qirtk(["transpile", path, "--to", "qasm2"]), generated


def test_check_qasm_accepts_real_output(converted):
    text, generated = converted
    ref = generated.reference
    assert checks.check_qasm(text, ref["gates"], ref["width"]) is None


def _nudge_first_angle(text):
    lines = text.splitlines()
    i = next(j for j, ln in enumerate(lines) if ln.startswith("rx("))
    angle = float(lines[i][3:lines[i].index(")")])
    lines[i] = f"rx({angle + 1e-6!r}){lines[i][lines[i].index(')') + 1:]}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corrupt", [
    _nudge_first_angle,
    lambda t: t.replace("qreg q[16];", "qreg q[15];"),
    lambda t: t.replace("measure q -> c;\n", ""),
    lambda t: "\n".join(t.splitlines()[:5] + t.splitlines()[6:]) + "\n",
    lambda t: t.replace(" q[3];", " q[4];", 1),
    lambda t: t.replace("\nh ", "\ny ", 1),
])
def test_check_qasm_rejects_corruption(converted, corrupt):
    text, generated = converted
    bad = corrupt(text)
    assert bad != text
    ref = generated.reference
    assert checks.check_qasm(bad, ref["gates"], ref["width"]) is not None


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_nested_children():
    spans = [
        (0, -1, 0, 100),    # root
        (1, 0, 10, 40),     # child
        (2, 1, 20, 30),     # grandchild
        (3, 0, 50, 70),     # second child
    ]
    assert self_times(spans) == {0: 50, 1: 20, 2: 10, 3: 20}


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        (0, -1, 0, 100),
        (1, 0, 10, 40),
        (2, 0, 30, 60),     # overlaps the first child by 10
        (3, 0, 90, 130),    # runs past the parent's end
    ]
    assert self_times(spans)[0] == 100 - 50 - 10


def test_tracer_records_parents_and_commands():
    tracer = Tracer()
    tracer.begin_command()
    tracer.call("cli.main", lambda: tracer.call("lexer.tokenize",
                                                lambda: None))
    tracer.begin_command()
    tracer.call("cli.main", lambda: None)
    names = [tracer.names[n] for n in tracer.name]
    assert names == ["lexer.tokenize", "cli.main", "cli.main"]
    assert list(tracer.parent) == [0, -1, -1]
    assert list(tracer.cmd) == [0, 0, 1]


def _traced(argv):
    from qirtk import cli, parser, statevector
    originals = (parser.tokenize, statevector.StateVector.measure)
    tracer = Tracer()
    tracer.install()
    tracer.begin_command()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracer.call("cli.main", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert (parser.tokenize, statevector.StateVector.measure) == originals
    return tracer.command_metrics()[0]


def test_traced_sample_counts_shots_and_shared_gates(tmp_path):
    path = _write(tmp_path, gen.sample(3), "sample")
    row = _traced(["run", path, "--shots", "8", "--seed", "3"])
    assert row["interpreter.shots"] == 8
    assert row["rng.draws"] == row["statevector.measures"] > 0
    assert 0 < row["interpreter.redundant_gate_share"] < 1
    assert row["statevector.peak_qubits"] == gen.SAMPLE_QUBITS
    assert row["lexer.lines"] == len(gen.sample(3).text.splitlines())
    assert row["transforms.deepcopy_s"] == 0


def test_traced_lower_sees_each_pass(tmp_path):
    generated = gen.lower(1)
    path = _write(tmp_path, generated, "lower")
    row = _traced(["transpile", path, "--to", "qir-base"])
    assert row["transforms.instructions_out"] == \
        len(generated.reference["sequence"])
    for key in ("transforms.unroll_s", "transforms.alloc_s",
                "transforms.deepcopy_s", "printer.print_s"):
        assert row[key] > 0
    assert row["interpreter.shots"] == 0


# ---------------------------------------------------------------------------
# statistics


@pytest.mark.parametrize("n, expected", [
    (10, None), (11, 9), (20, 50), (30, 66), (100, 90), (1000, 99),
])
def test_tail_percentile(n, expected):
    assert run.tail_percentile(n) == expected


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 31)]
    value, p, beyond = run.tail(values)
    assert (value, p, beyond) == (20.0, 66, 10)
    assert sum(v > value for v in values) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, None, 0)


def test_scale_divides_by_the_neighbouring_references():
    nominal = run.REF_NOMINAL_S
    # a host twice as slow for the second command leaves its time alone
    scaled = run.scale([nominal, 2 * nominal], [1.0, 1.0, 3.0])
    assert scaled == pytest.approx([nominal * nominal, nominal * nominal])
    assert run.scale([], [1.0]) == []
