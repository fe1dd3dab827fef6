"""Seeded text-template generators for the benchmark's inputs.

Each generator takes the seed as an argument and returns the input text
together with a reference that the output checks compare against. The
same seed gives byte-identical text. This module imports nothing from
qirtk, so the references do not come from the program under test.

Gate multisets are fixed per workload and only their order, operands
and angles depend on the seed, so the work per command does not vary
from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# (qasm name, QIR intrinsic stem, qubits, angle parameters)
GATES = {
    "h": ("h", 1, 0), "x": ("x", 1, 0), "y": ("y", 1, 0),
    "z": ("z", 1, 0), "s": ("s", 1, 0), "sdg": ("s_adj", 1, 0),
    "t": ("t", 1, 0), "tdg": ("t_adj", 1, 0), "rx": ("rx", 1, 1),
    "ry": ("ry", 1, 1), "rz": ("rz", 1, 1), "cx": ("cnot", 2, 0),
    "cz": ("cz", 2, 0), "swap": ("swap", 2, 0), "ccx": ("ccx", 3, 0),
}

SAMPLE_QUBITS = 10          # 9 data qubits and one ancilla
SAMPLE_PREFIX_GATES = 30
SAMPLE_ROUNDS = 24
SAMPLE_SHOTS = 40
WIDE_QUBITS = 18
WIDE_GATES = 90             # each of the 15 kinds 6 times
LOWER_QUBITS = 8
LOWER_TRIPS = 550
CONVERT_QUBITS = 16
CONVERT_GATES = 4000


@dataclass(frozen=True)
class Gate:
    name: str                   # OpenQASM 2 spelling, a key of GATES
    params: tuple[float, ...]
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class Generated:
    text: str
    suffix: str                 # ".ll" or ".qasm"
    reference: dict             # what the output check needs


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _angle(rng: random.Random) -> float:
    return round(rng.uniform(-math.pi, math.pi), 12)


def _random_gate(rng: random.Random, name: str, num_qubits: int) -> Gate:
    _, arity, nparams = GATES[name]
    qubits = tuple(rng.sample(range(num_qubits), arity))
    return Gate(name, tuple(_angle(rng) for _ in range(nparams)), qubits)


def _gate_mix(rng: random.Random, total: int,
              num_qubits: int) -> list[Gate]:
    """``total`` gates cycling through every kind, in seeded order."""
    kinds = list(GATES)
    names = [kinds[i % len(kinds)] for i in range(total)]
    rng.shuffle(names)
    return [_random_gate(rng, name, num_qubits) for name in names]


def _addr(index: int) -> str:
    return "ptr null" if index == 0 else f"ptr inttoptr (i64 {index} to ptr)"


def _qir_call(gate: Gate) -> str:
    stem = GATES[gate.name][0]
    args = [f"double {p!r}" for p in gate.params]
    args += [_addr(q) for q in gate.qubits]
    return f"  call void @__quantum__qis__{stem}__body({', '.join(args)})"


def _declarations(stems: list[str]) -> list[str]:
    lines = []
    for stem in stems:
        name = next(n for n, g in GATES.items() if g[0] == stem)
        _, arity, nparams = GATES[name]
        types = ", ".join(["double"] * nparams + ["ptr"] * arity)
        lines.append(f"declare void @__quantum__qis__{stem}__body({types})")
    return lines


_RT_DECLS = {
    "mz": "declare void @__quantum__qis__mz__body(ptr, ptr writeonly)",
    "reset": "declare void @__quantum__qis__reset__body(ptr)",
    "read": "declare i1 @__quantum__rt__read_result(ptr)",
    "record": "declare void @__quantum__rt__result_record_output(ptr, ptr)",
    "alloc_array": "declare ptr @__quantum__rt__qubit_allocate_array(i64)",
    "get_elem": "declare ptr @__quantum__rt__array_get_element_ptr_1d"
                "(ptr, i64)",
    "release_array": "declare void @__quantum__rt__qubit_release_array(ptr)",
}


def _module(name: str, body: list[str], stems: list[str],
            runtime: list[str], attrs: str) -> str:
    lines = [f'source_filename = "{name}"', "",
             "define void @main() #0 {", *body, "}", ""]
    lines += _declarations(stems) + [_RT_DECLS[r] for r in runtime]
    lines += ["", f'attributes #0 = {{ "entry_point" {attrs} }}']
    return "\n".join(lines) + "\n"


def _measure_and_record(qubits: range) -> list[str]:
    lines = [f"  call void @__quantum__qis__mz__body({_addr(q)}, {_addr(q)})"
             for q in qubits]
    lines += [f"  call void @__quantum__rt__result_record_output({_addr(q)}, "
              "ptr null)" for q in qubits]
    return lines


def sample(seed: int) -> Generated:
    """Adaptive module: a random prefix, then a phi-counted feedback loop.

    Each round entangles the ancilla with two data qubits chosen from
    the counter, measures it, reads the result back, conditionally
    flips a data qubit, and resets the ancilla.
    """
    rng = _rng("sample", seed)
    data = SAMPLE_QUBITS - 1
    anc = _addr(data)
    prefix = [_random_gate(rng, rng.choice(list(GATES)), data)
              for _ in range(SAMPLE_PREFIX_GATES)]
    offset, stride = rng.randrange(8), rng.randrange(1, 8)
    theta = _angle(rng)
    body = ["entry:", *(_qir_call(g) for g in prefix), "  br label %loop", "",
            "loop:",
            "  %i = phi i64 [ 0, %entry ], [ %next, %cont ]",
            f"  %a0 = add i64 %i, {offset}",
            "  %a = and i64 %a0, 7",
            f"  %b0 = add i64 %a, {stride}",
            "  %b = and i64 %b0, 7",
            "  %qa = inttoptr i64 %a to ptr",
            "  %qb = inttoptr i64 %b to ptr",
            f"  call void @__quantum__qis__cnot__body(ptr %qa, {anc})",
            f"  call void @__quantum__qis__cnot__body(ptr %qb, {anc})",
            f"  call void @__quantum__qis__h__body({anc})",
            f"  call void @__quantum__qis__rx__body(double {theta!r}, {anc})",
            f"  call void @__quantum__qis__mz__body({anc}, {anc})",
            f"  %m = call i1 @__quantum__rt__read_result({anc})",
            "  br i1 %m, label %fix, label %cont", "",
            "fix:",
            "  call void @__quantum__qis__x__body(ptr %qa)",
            "  br label %cont", "",
            "cont:",
            f"  call void @__quantum__qis__reset__body({anc})",
            "  %next = add i64 %i, 1",
            f"  %more = icmp slt i64 %next, {SAMPLE_ROUNDS}",
            "  br i1 %more, label %loop, label %exit", "",
            "exit:", *_measure_and_record(range(data)), "  ret void"]
    stems = sorted({GATES[g.name][0] for g in prefix} | {"cnot", "h", "rx",
                                                          "x"})
    text = _module("sample.ll", body, stems,
                   ["mz", "reset", "read", "record"],
                   f'"required_num_qubits"="{SAMPLE_QUBITS}" '
                   f'"required_num_results"="{SAMPLE_QUBITS}"')
    return Generated(text, ".ll", {"shots": SAMPLE_SHOTS, "width": data})


def wide(seed: int) -> Generated:
    """OpenQASM 2 circuit: every gate kind equally often, all measured."""
    rng = _rng("wide", seed)
    gates = _gate_mix(rng, WIDE_GATES, WIDE_QUBITS)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{WIDE_QUBITS}];", f"creg c[{WIDE_QUBITS}];"]
    for g in gates:
        params = ", ".join(repr(p) for p in g.params)
        params = f"({params})" if params else ""
        lines.append(f"{g.name}{params} "
                     f"{', '.join(f'q[{q}]' for q in g.qubits)};")
    lines.append("measure q -> c;")
    return Generated("\n".join(lines) + "\n", ".qasm",
                     {"shots": 1, "width": WIDE_QUBITS, "gates": len(gates)})


def lower(seed: int) -> Generated:
    """Dynamic array behind a stack slot, indexed by a masked counter.

    The reference is the exact gate sequence the unrolled loop emits:
    array element k lands on qubit k, because the module holds no other
    qubits.
    """
    rng = _rng("lower", seed)
    mult = rng.choice([1, 3, 5, 7])
    offset, stride = rng.randrange(8), rng.randrange(1, 8)
    body = ["entry:",
            "  %qs = alloca ptr",
            f"  %arr = call ptr @__quantum__rt__qubit_allocate_array"
            f"(i64 {LOWER_QUBITS})",
            "  store ptr %arr, ptr %qs",
            "  %ctr = alloca i64",
            "  store i64 0, ptr %ctr",
            "  br label %header", "",
            "header:",
            "  %i = load i64, ptr %ctr",
            f"  %go = icmp slt i64 %i, {LOWER_TRIPS}",
            "  br i1 %go, label %body, label %exit", "",
            "body:",
            "  %j = load i64, ptr %ctr",
            f"  %a0 = mul i64 %j, {mult}",
            f"  %a1 = add i64 %a0, {offset}",
            "  %a = and i64 %a1, 7",
            f"  %b0 = add i64 %a, {stride}",
            "  %b = and i64 %b0, 7",
            "  %h = load ptr, ptr %qs",
            "  %pa = call ptr @__quantum__rt__array_get_element_ptr_1d"
            "(ptr %h, i64 %a)",
            "  %qa = load ptr, ptr %pa",
            "  %pb = call ptr @__quantum__rt__array_get_element_ptr_1d"
            "(ptr %h, i64 %b)",
            "  %qb = load ptr, ptr %pb",
            "  call void @__quantum__qis__h__body(ptr %qa)",
            "  call void @__quantum__qis__cnot__body(ptr %qa, ptr %qb)",
            "  %n = add i64 %j, 1",
            "  store i64 %n, ptr %ctr",
            "  br label %header", "",
            "exit:",
            "  %e = load ptr, ptr %qs"]
    for k in range(LOWER_QUBITS):
        body += [f"  %p{k} = call ptr @__quantum__rt__array_get_element_ptr_1d"
                 f"(ptr %e, i64 {k})",
                 f"  %q{k} = load ptr, ptr %p{k}",
                 f"  call void @__quantum__qis__mz__body(ptr %q{k}, "
                 f"{_addr(k)})"]
    body += [f"  call void @__quantum__rt__result_record_output({_addr(k)}, "
             "ptr null)" for k in range(LOWER_QUBITS)]
    body += ["  call void @__quantum__rt__qubit_release_array(ptr %e)",
             "  ret void"]
    text = _module("lower.ll", body, ["cnot", "h"],
                   ["mz", "record", "alloc_array", "get_elem",
                    "release_array"],
                   f'"required_num_results"="{LOWER_QUBITS}"')
    gates = []
    for j in range(LOWER_TRIPS):
        a = (j * mult + offset) & 7
        b = (a + stride) & 7
        gates += [("h", (a,)), ("cnot", (a, b))]
    gates += [("mz", (k, k)) for k in range(LOWER_QUBITS)]
    gates += [("record", (k,)) for k in range(LOWER_QUBITS)]
    return Generated(text, ".ll", {"sequence": gates})


def convert(seed: int) -> Generated:
    """Large base module: random gates over all kinds, then measure all."""
    rng = _rng("convert", seed)
    gates = _gate_mix(rng, CONVERT_GATES, CONVERT_QUBITS)
    body = ["entry:", *(_qir_call(g) for g in gates),
            *_measure_and_record(range(CONVERT_QUBITS)), "  ret void"]
    text = _module("convert.ll", body, sorted({g[0] for g in GATES.values()}),
                   ["mz", "record"],
                   f'"required_num_qubits"="{CONVERT_QUBITS}" '
                   f'"required_num_results"="{CONVERT_QUBITS}"')
    return Generated(text, ".ll", {"gates": gates, "width": CONVERT_QUBITS})


GENERATORS = {"sample": sample, "wide": wide, "lower": lower,
              "convert": convert}
