"""Output checks for the benchmark's commands.

Each check returns None when the output is correct and a one-line reason
when it is not. The references come from the generators and the pinned
counts table, never from qirtk itself, and the parsers here are written
independently of the toolkit's own.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

_ADDR = re.compile(r"ptr (?:null|inttoptr \(i64 (\d+) to ptr\))$")
_CALL = re.compile(r"  call void @__quantum__(?:qis|rt)__(\w+?)(?:__body)?"
                   r"\((.*)\)$")
_QUBIT = re.compile(r"q\[(\d+)\]$")
_QASM_GATE = re.compile(r"([a-z]+)(?:\(([^)]*)\))? (.+);$")

BASE_GATES = {"h", "x", "y", "z", "s", "s_adj", "t", "t_adj", "rx", "ry",
              "rz", "cnot", "cz", "swap", "ccx"}


def counts_digest(counts: dict[str, int]) -> str:
    """Short digest of a counts table, independent of key order."""
    canon = json.dumps(sorted(counts.items()), separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def check_counts(text: str, shots: int, width: int, seed: int,
                 pinned: str | None) -> str | None:
    """A ``run`` result: structure, totals, key width, pinned digest."""
    try:
        payload = json.loads(text)
    except ValueError:
        return "output is not JSON"
    if not isinstance(payload, dict):
        return "output is not a JSON object"
    if payload.get("shots") != shots:
        return f"shots is {payload.get('shots')!r}, expected {shots}"
    if payload.get("seed") != seed:
        return f"seed is {payload.get('seed')!r}, expected {seed}"
    if payload.get("bit_order") != "clbit0-leftmost":
        return "bit_order is not clbit0-leftmost"
    counts = payload.get("counts")
    if not isinstance(counts, dict) or not counts:
        return "counts missing or empty"
    for key, value in counts.items():
        if len(key) != width or set(key) - {"0", "1"}:
            return f"bad key {key!r}, expected {width} bits"
        if type(value) is not int or value < 1:
            return f"bad count {value!r} for {key!r}"
    if sum(counts.values()) != shots:
        return f"counts sum to {sum(counts.values())}, expected {shots}"
    if pinned is not None and counts_digest(counts) != pinned:
        return (f"counts digest {counts_digest(counts)} differs from the "
                f"pinned {pinned}")
    return None


def _operands(text: str) -> list:
    out = []
    for arg in text.split(", ") if text else []:
        if arg.startswith("double "):
            out.append(float(arg[len("double "):]))
            continue
        m = _ADDR.match(arg)
        if m is None:
            raise ValueError(f"operand {arg!r} is not a static address")
        out.append(int(m.group(1) or 0))
    return out


def parse_base(text: str) -> list[tuple[str, tuple]]:
    """Read a base-profile module into (intrinsic, operands) pairs.

    Raises ValueError unless the module is a single straight-line entry
    block of gates on static addresses, then measurements, then output
    recording, with every callee declared and the required-count
    attributes covering the addresses used.
    """
    lines = text.splitlines()
    declared = {m.group(1) for m in
                (re.match(r"declare \S+ @(\S+)\(", ln) for ln in lines) if m}
    try:
        start = lines.index("entry:")
        end = lines.index("  ret void", start)
    except ValueError:
        raise ValueError("no single entry block ending in ret") from None
    if sum(ln.startswith("define ") for ln in lines) != 1 \
            or lines[end + 1] != "}":
        raise ValueError("expected exactly one function of one block")
    ops, stage = [], 0
    max_qubit = max_result = -1
    for ln in lines[start + 1:end]:
        m = _CALL.match(ln)
        if m is None:
            raise ValueError(f"not a base-profile call: {ln.strip()!r}")
        callee = re.search(r"@(\S+?)\(", ln).group(1)
        if callee not in declared:
            raise ValueError(f"@{callee} is not declared")
        name, args = m.group(1), _operands(m.group(2))
        if name in BASE_GATES:
            new_stage = 0
            max_qubit = max([max_qubit] + [a for a in args
                                           if isinstance(a, int)])
        elif name == "mz":
            new_stage = 1
            max_qubit, max_result = max(max_qubit, args[0]), max(max_result,
                                                                 args[1])
        elif name == "result_record_output":
            new_stage, name, args = 2, "record", args[:1]
        else:
            raise ValueError(f"@{callee} is not allowed in the base profile")
        if new_stage < stage:
            raise ValueError(f"{name} after a later section began")
        stage = new_stage
        ops.append((name, tuple(args)))
    attrs = dict(re.findall(r'"(required_num_\w+)"="(\d+)"', text))
    if int(attrs.get("required_num_qubits", 0)) < max_qubit + 1 \
            or int(attrs.get("required_num_results", 0)) < max_result + 1:
        raise ValueError("required-count attributes do not cover the "
                         "addresses used")
    return ops


def check_lowered(text: str, sequence: list) -> str | None:
    """A ``transpile --to qir-base`` result against the expected sequence."""
    try:
        ops = parse_base(text)
    except ValueError as err:
        return f"lowered module is not base: {err}"
    expected = [(name, tuple(args)) for name, args in sequence]
    if ops != expected:
        at = next((i for i, (a, b) in enumerate(zip(ops, expected))
                   if a != b), min(len(ops), len(expected)))
        return (f"instruction {at} differs: got "
                f"{ops[at] if at < len(ops) else None}, expected "
                f"{expected[at] if at < len(expected) else None}")
    return None


def check_qasm(text: str, gates: list, width: int) -> str | None:
    """A ``transpile --to qasm2`` result against the generator's gates."""
    lines = text.splitlines()
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";',
              f"qreg q[{width}];", f"creg c[{width}];"]
    if lines[:4] != header:
        return "header differs"
    tail = ["measure q -> c;"]
    per_qubit = [f"measure q[{q}] -> c[{q}];" for q in range(width)]
    if lines[-1:] == tail:
        body = lines[4:-1]
    elif lines[-width:] == per_qubit:
        body = lines[4:-width]
    else:
        return "measurements of every qubit into its own bit are missing"
    if len(body) != len(gates):
        return f"{len(body)} gate lines, expected {len(gates)}"
    for i, (line, gate) in enumerate(zip(body, gates)):
        m = _QASM_GATE.match(line)
        if m is None:
            return f"line {i + 5} is not a gate: {line!r}"
        try:
            params = tuple(float(p) for p in m.group(2).split(",")) \
                if m.group(2) else ()
            qubits = tuple(int(_QUBIT.match(q).group(1))
                           for q in m.group(3).split(", "))
        except (AttributeError, ValueError):
            return f"line {i + 5} has malformed operands: {line!r}"
        if (m.group(1) != gate.name or qubits != gate.qubits
                or len(params) != len(gate.params)
                or not all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
                           for a, b in zip(params, gate.params))):
            return f"gate {i} is {line!r}, expected {gate}"
    return None
