"""Shared test helpers: a reference simulator and random program builders.

The dense reference simulator is deliberately independent of the
production backend: matrices are written out from their standard
definitions and lifted into the full space entry by entry with explicit
index arithmetic (no axis shuffling), so agreement between the two
implementations is a meaningful check rather than a tautology.
"""

from __future__ import annotations

import cmath
import math
import pathlib
import random
import re

import numpy as np
from hypothesis import strategies as st

from qirtk import (Gate, GateKind, Measure, QuantumCircuit, Reset,
                   parse_module)
from qirtk.intrinsics import declaration_for, intrinsic_table
from qirtk.node import replace

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def corpus_path(name: str) -> pathlib.Path:
    return CORPUS / name


def with_entry_block(module, index: int, edit):
    """``module`` with block ``index`` of its entry replaced by
    ``edit(block)``; IR nodes are frozen, so a test that breaks a parsed
    module rebuilds it."""
    entry = module.entry
    blocks = list(entry.blocks)
    blocks[index] = edit(blocks[index])
    fn = replace(entry, blocks=tuple(blocks))
    return replace(module, functions=tuple(
        fn if f is entry else f for f in module.functions))


def corpus_text(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")


_DECLARATIONS = "\n".join(
    f"declare {d.ret_type} @{d.name}({', '.join(map(str, d.param_types))})"
    for d in map(declaration_for, sorted(intrinsic_table())))


def entry_module(body: str, attributes: str = ""):
    """The entry ``@main`` with ``body`` as its blocks, every intrinsic
    declared."""
    return parse_module(f"define void @main() #0 {{\n{body}}}\n\n"
                        f"{_DECLARATIONS}\n\n"
                        f'attributes #0 = {{ "entry_point" {attributes}}}\n')


# ---------------------------------------------------------------------------
# dense brute-force reference simulator

_S2 = 1.0 / math.sqrt(2.0)


def _permutation(k: int, image) -> np.ndarray:
    m = np.zeros((1 << k, 1 << k), dtype=complex)
    for col in range(1 << k):
        m[image(col), col] = 1.0
    return m


def reference_matrix(kind: GateKind, params: tuple[float, ...]) -> np.ndarray:
    """Standard matrix for one gate, operand 0 on index bit 0."""
    if kind is GateKind.H:
        return np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex)
    if kind is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind is GateKind.Y:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if kind is GateKind.Z:
        return np.diag([1.0, -1.0]).astype(complex)
    if kind is GateKind.S:
        return np.diag([1.0, 1.0j]).astype(complex)
    if kind is GateKind.SDG:
        return np.diag([1.0, -1.0j]).astype(complex)
    if kind is GateKind.T:
        return np.diag([1.0, cmath.exp(0.25j * math.pi)]).astype(complex)
    if kind is GateKind.TDG:
        return np.diag([1.0, cmath.exp(-0.25j * math.pi)]).astype(complex)
    if kind is GateKind.RX:
        (theta,) = params
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind is GateKind.RY:
        (theta,) = params
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind is GateKind.RZ:
        (theta,) = params
        return np.diag([cmath.exp(-0.5j * theta),
                        cmath.exp(0.5j * theta)]).astype(complex)
    if kind is GateKind.CNOT:
        # operand 0 controls, operand 1 flips
        return _permutation(2, lambda b: b ^ ((b & 1) << 1))
    if kind is GateKind.CZ:
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    if kind is GateKind.SWAP:
        return _permutation(2, lambda b: ((b & 1) << 1) | ((b >> 1) & 1))
    if kind is GateKind.CCX:
        # operands 0 and 1 control, operand 2 flips
        return _permutation(3, lambda b: b ^ (4 if (b & 3) == 3 else 0))
    raise AssertionError(f"no reference matrix for {kind}")


def embed(matrix: np.ndarray, targets: tuple[int, ...],
          num_qubits: int) -> np.ndarray:
    """Lift a k-qubit matrix to the full 2**n space, entry by entry.

    Matrix index bit j belongs to ``targets[j]``; every other qubit
    carries the identity. Amplitude index bit i belongs to qubit i.
    """
    k = len(targets)
    rest = [q for q in range(num_qubits) if q not in targets]
    full = np.zeros((1 << num_qubits, 1 << num_qubits), dtype=complex)

    def spread(bits: int, positions) -> int:
        out = 0
        for j, q in enumerate(positions):
            if (bits >> j) & 1:
                out |= 1 << q
        return out

    for spectator in range(1 << len(rest)):
        base = spread(spectator, rest)
        for gr in range(1 << k):
            row = base | spread(gr, targets)
            for gc in range(1 << k):
                full[row, base | spread(gc, targets)] = matrix[gr, gc]
    return full


_DIAGONAL = {GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
             GateKind.RZ, GateKind.CZ}


def whole_state_kernel(kind: GateKind, params: tuple[float, ...],
                       targets: tuple[int, ...],
                       amplitudes: np.ndarray) -> np.ndarray:
    """The amplitudes after one gate, by the whole-state expressions the
    statevector kernels ran before they worked a tile at a time.

    x copies the state with its target's halves exchanged; a controlled
    permutation swaps the two whole slices its matrix exchanges; a
    diagonal gate multiplies the slice under each entry that is not 1;
    a dense gate on a qubit above the lift's run of 16 is one batched
    2x2 product over the state shaped (higher, target, lower), and below
    it every row of (target, lower qubits) is multiplied by the matrix
    lifted with an identity. The matrices are ``reference_matrix``'s,
    which are the kernels' to the last bit.
    """
    n = len(amplitudes).bit_length() - 1
    matrix = reference_matrix(kind, params)
    if kind is GateKind.X:
        (q,) = targets
        halves = amplitudes.reshape(1 << (n - 1 - q), 2, 1 << q)
        return halves[:, ::-1].reshape(-1)
    psi = amplitudes.copy().reshape([2] * n)

    def where(column: int) -> tuple:
        # the view where operand j's qubit holds bit j of ``column``
        index: list = [slice(None)] * n + [...]
        for j, q in enumerate(targets):
            index[n - 1 - q] = (column >> j) & 1
        return tuple(index)
    size = 1 << len(targets)
    if kind in _DIAGONAL:
        for column in range(size):
            if matrix[column, column] != 1:
                part = psi[where(column)]
                part *= matrix[column, column]
        return psi.reshape(-1)
    if len(targets) > 1:
        for column in range(size):
            image = int(np.argmax(np.abs(matrix[:, column])))
            if column < image:
                a, b = psi[where(column)], psi[where(image)]
                held = a.copy()
                a[...] = b
                b[...] = held
        return psi.reshape(-1)
    (q,) = targets
    run = 1 << q
    if run > 16:
        return np.matmul(matrix, amplitudes.reshape(
            1 << (n - 1 - q), 2, run)).reshape(-1)
    width = 2 * run
    lift = (matrix.T[:, None, :, None]
            * np.eye(run)[None, :, None, :]).reshape(width, width)
    return (amplitudes.reshape(-1, width) @ lift).reshape(-1)


def reference_amplitudes(circuit: QuantumCircuit) -> np.ndarray:
    """Amplitudes after the circuit's gates; measurements are ignored."""
    state = np.zeros(1 << circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    for op in circuit.ops:
        if isinstance(op, Gate):
            state = embed(reference_matrix(op.kind, op.params),
                          op.qubits, circuit.num_qubits) @ state
    return state


# ---------------------------------------------------------------------------
# random circuits

def random_circuit(rng: random.Random, max_qubits: int = 5,
                   max_gates: int = 20, measured: str = "subset",
                   allow_resets: bool = False) -> QuantumCircuit:
    """Random circuit over the full gate table.

    ``measured`` selects the tail: "none" leaves the gates bare, "all"
    measures qubit i into clbit i, "subset" measures a shuffled subset
    into distinct clbits. Resets, when allowed, land before the tail so
    the result stays expressible as a straight-line program that ends in
    measurements.
    """
    n = rng.randint(1, max_qubits)
    ops: list = []
    for _ in range(rng.randint(0, max_gates)):
        if allow_resets and rng.random() < 0.1:
            ops.append(Reset(rng.randrange(n)))
            continue
        kind = rng.choice([k for k in GateKind if k.num_qubits <= n])
        qubits = tuple(rng.sample(range(n), kind.num_qubits))
        params = tuple(rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
                       for _ in range(kind.num_params))
        ops.append(Gate(kind, params, qubits))
    if measured == "none":
        return QuantumCircuit(n, 0, ops)
    if measured == "all":
        ops += [Measure(q, q) for q in range(n)]
        return QuantumCircuit(n, n, ops)
    count = rng.randint(0, n)
    qubits = rng.sample(range(n), count)
    clbits = rng.sample(range(count), count)
    ops += [Measure(q, c) for q, c in zip(qubits, clbits)]
    return QuantumCircuit(n, count, ops)


# ---------------------------------------------------------------------------
# random textual modules (adaptive subset, no measurement feedback)

_GATE_DECLS = {
    "h": "declare void @__quantum__qis__h__body(ptr)",
    "x": "declare void @__quantum__qis__x__body(ptr)",
    "y": "declare void @__quantum__qis__y__body(ptr)",
    "z": "declare void @__quantum__qis__z__body(ptr)",
    "s": "declare void @__quantum__qis__s__body(ptr)",
    "t": "declare void @__quantum__qis__t__body(ptr)",
    "rx": "declare void @__quantum__qis__rx__body(double, ptr)",
    "rz": "declare void @__quantum__qis__rz__body(double, ptr)",
    "cnot": "declare void @__quantum__qis__cnot__body(ptr, ptr)",
    "cz": "declare void @__quantum__qis__cz__body(ptr, ptr)",
    "swap": "declare void @__quantum__qis__swap__body(ptr, ptr)",
    "reset": "declare void @__quantum__qis__reset__body(ptr)",
}

_RT_DECLS = [
    "declare ptr @__quantum__rt__qubit_allocate_array(i64)",
    "declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)",
    "declare void @__quantum__rt__qubit_release_array(ptr)",
    "declare void @__quantum__qis__mz__body(ptr, ptr)",
    "declare void @__quantum__rt__result_record_output(ptr, ptr)",
]


def _result_addr(index: int) -> str:
    return "null" if index == 0 else f"inttoptr (i64 {index} to ptr)"


def random_adaptive_module(rng: random.Random) -> str:
    """Textual module in the adaptive subset with no measurement feedback.

    Mixes dynamic array allocation, element loads through a slot-held
    handle, an optional counted loop over a classical slot, resets,
    measurements interleaved with gates on yet-unmeasured qubits, output
    recording, and release. Loop bounds are small constants, so the
    module always lowers to the base profile.
    """
    n = rng.randint(1, 4)
    trips = rng.randint(2, 8)
    use_loop = rng.random() < 0.6
    counter = iter(range(100000))
    used: set[str] = set()
    lines: list[str] = []

    def fresh() -> str:
        return f"t{next(counter)}"

    def element(q: int) -> str:
        handle, ptr, elem = fresh(), fresh(), fresh()
        lines.append(f"  %{handle} = load ptr, ptr %qs")
        lines.append(f"  %{ptr} = call ptr "
                     f"@__quantum__rt__array_get_element_ptr_1d("
                     f"ptr %{handle}, i64 {q})")
        lines.append(f"  %{elem} = load ptr, ptr %{ptr}")
        return elem

    def emit_gate(allowed: list[int], allow_reset: bool) -> None:
        pool = ["h", "x", "y", "z", "s", "t", "rx", "rz"]
        if allow_reset:
            pool.append("reset")
        if len(allowed) >= 2:
            pool += ["cnot", "cz", "swap"]
        name = rng.choice(pool)
        used.add(name)
        if name in ("cnot", "cz", "swap"):
            a, b = rng.sample(allowed, 2)
            ea, eb = element(a), element(b)
            lines.append(f"  call void @__quantum__qis__{name}__body("
                         f"ptr %{ea}, ptr %{eb})")
        elif name in ("rx", "rz"):
            elem = element(rng.choice(allowed))
            angle = repr(rng.uniform(-3.0, 3.0))
            lines.append(f"  call void @__quantum__qis__{name}__body("
                         f"double {angle}, ptr %{elem})")
        else:
            elem = element(rng.choice(allowed))
            lines.append(f"  call void @__quantum__qis__{name}__body("
                         f"ptr %{elem})")

    lines.append("define void @main() #0 {")
    lines.append("entry:")
    lines.append("  %qs = alloca ptr")
    lines.append(f"  %arr = call ptr @__quantum__rt__qubit_allocate_array("
                 f"i64 {n})")
    lines.append("  store ptr %arr, ptr %qs")
    everyone = list(range(n))

    if use_loop:
        lines.append("  %i = alloca i64")
        lines.append("  store i64 0, ptr %i")
        lines.append("  br label %loop.head")
        lines.append("loop.head:")
        cur, cmp_name = fresh(), fresh()
        lines.append(f"  %{cur} = load i64, ptr %i")
        lines.append(f"  %{cmp_name} = icmp slt i64 %{cur}, {trips}")
        lines.append(f"  br i1 %{cmp_name}, label %loop.body, "
                     f"label %tail")
        lines.append("loop.body:")
        for _ in range(rng.randint(1, 3)):
            emit_gate(everyone, allow_reset=True)
        prev, nxt = fresh(), fresh()
        lines.append(f"  %{prev} = load i64, ptr %i")
        lines.append(f"  %{nxt} = add i64 %{prev}, 1")
        lines.append(f"  store i64 %{nxt}, ptr %i")
        lines.append("  br label %loop.head")
        lines.append("tail:")
    for _ in range(rng.randint(0, 4)):
        emit_gate(everyone, allow_reset=True)

    order = rng.sample(range(n), n)
    for position, qubit in enumerate(order):
        remaining = order[position + 1:]
        if remaining and rng.random() < 0.5:
            emit_gate(remaining, allow_reset=False)
        elem = element(qubit)
        lines.append(f"  call void @__quantum__qis__mz__body(ptr %{elem}, "
                     f"ptr {_result_addr(position)})")
        if rng.random() < 0.2:
            # readback whose value is never used; lowering prunes it
            lines.append(f"  %{fresh()} = call i1 "
                         f"@__quantum__rt__read_result("
                         f"ptr {_result_addr(position)})")
            used.add("read_result")
    for position in range(n):
        lines.append(f"  call void @__quantum__rt__result_record_output("
                     f"ptr {_result_addr(position)}, ptr null)")
    handle = fresh()
    lines.append(f"  %{handle} = load ptr, ptr %qs")
    lines.append(f"  call void @__quantum__rt__qubit_release_array("
                 f"ptr %{handle})")
    lines.append("  ret void")
    lines.append("}")

    decls = list(_RT_DECLS)
    decls += [_GATE_DECLS[name] for name in sorted(used)
              if name in _GATE_DECLS]
    if "read_result" in used:
        decls.append("declare i1 @__quantum__rt__read_result(ptr)")
    return "\n".join(decls + [""] + lines +
                     ['attributes #0 = { "entry_point" }', ""])


# ---------------------------------------------------------------------------
# mutated corpus programs

_PROGRAMS = [corpus_text(p.name).splitlines()
             for p in sorted(CORPUS.glob("*.ll"))]


@st.composite
def mutated(draw) -> str:
    """A corpus file with a few lines deleted, duplicated or truncated, or
    with two tokens of a line swapped."""
    lines = list(draw(st.sampled_from(_PROGRAMS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "truncate",
                                     "swap"]))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            tokens = lines[i].split(" ")
            a = draw(st.integers(0, len(tokens) - 1))
            b = draw(st.integers(0, len(tokens) - 1))
            tokens[a], tokens[b] = tokens[b], tokens[a]
            lines[i] = " ".join(tokens)
        if not lines:
            break
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# token mutations of .ll and .qasm text

#: texts a token edit may write besides the tokens of the text itself:
#: numeric extremes (an overflowing literal, an overflowing expression, an
#: integer past every width, a NaN bit pattern) and punctuation of both
#: grammars
EXTREMES = ("1e999", "4.3e30851", "1e308*10", "1" * 30, "0x7FF8000000000000",
            "-0", "0", "pi")
PUNCTUATION = ("(", ")", "[", "]", "{", "}", ",", ";", "=", ":", "*", "+",
               "-", "/", '"', "#", "%", "@", "->")

_TOKEN = re.compile(r'"[^"\n]*"|->|[\w.$]+|\S')
_LINE_EDITS = ("delete line", "duplicate line", "truncate line")
_TOKEN_EDITS = ("delete", "duplicate", "replace", "insert", "swap", "split")


def _token_edit(rng, text: str, kind: str) -> str:
    spans = [m.span() for m in _TOKEN.finditer(text)]
    if not spans:
        return text
    pool = rng.choice((EXTREMES, EXTREMES, PUNCTUATION, spans))
    other = rng.choice(pool)
    if isinstance(other, tuple):
        other = text[other[0]:other[1]]
    if kind == "replace" and pool is EXTREMES:
        # an extreme replaces a number, where the text has one
        spans = [s for s in spans if text[s[0]].isdigit()] or spans
    start, end = rng.choice(spans)
    token = text[start:end]
    if kind == "delete":
        return text[:start] + text[end:]
    if kind == "duplicate":
        return text[:end] + " " + token + text[end:]
    if kind == "replace":
        return text[:start] + other + text[end:]
    if kind == "insert":
        return text[:start] + other + " " + text[start:]
    if kind == "swap":
        start2, end2 = rng.choice(spans)
        if start2 < start:
            start, end, start2, end2 = start2, end2, start, end
        if start2 < end:
            return text
        return (text[:start] + text[start2:end2] + text[end:start2]
                + text[start:end] + text[end2:])
    # split: the token around an inserted one
    cut = rng.randint(start, end)
    return text[:cut] + other + text[cut:]


def mutate(rng, text: str, lines: bool = False) -> str:
    """``text`` after one to three edits drawn from ``rng`` (a
    ``random.Random``, or a Hypothesis random).

    A token edit deletes, duplicates, replaces or swaps a token, inserts
    one, or splits a token around an inserted one; what it writes is a
    token of the text, an entry of ``EXTREMES`` (which replaces a number)
    or of ``PUNCTUATION``.
    With ``lines``, an edit may also delete, duplicate or truncate a line.
    """
    kinds = _TOKEN_EDITS + (_LINE_EDITS if lines else ())
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(kinds)
        if kind not in _LINE_EDITS:
            text = _token_edit(rng, text, kind)
            continue
        rows = text.split("\n")
        i = rng.randrange(len(rows))
        if kind == "delete line":
            del rows[i]
        elif kind == "duplicate line":
            rows.insert(i, rows[i])
        else:
            rows[i] = rows[i][:rng.randint(0, len(rows[i]))]
        text = "\n".join(rows)
    return text


def qasm_programs() -> list[str]:
    """``corpus/bell.qasm`` and 60 exported random circuits."""
    from qirtk import export_openqasm2
    rng = random.Random(16)
    return [corpus_text("bell.qasm")] + [
        export_openqasm2(random_circuit(rng)) for _ in range(60)]


def mutated_qasm():
    """A program of ``qasm_programs`` after one to three token edits."""
    return st.builds(mutate, st.randoms(use_true_random=False),
                     st.sampled_from(qasm_programs()))


# ---------------------------------------------------------------------------
# grammar-aware edits of .qasm text

# a string, the version and a declared size are left as they are; an
# operand's index and any other number, an angle, may be replaced
_QASM_NUMBERS = re.compile(r"""
    "[^"]*" | OPENQASM\s+\S+ | [qc]reg\s+\w+\[\d+\]
  | (?P<register>\w+)\[(?P<index>\d+)\]
  | (?<![\w.])(?P<angle>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    """, re.VERBOSE)


def edit_number(rng, text: str) -> str:
    """``text`` with one NUMBER token replaced, drawn from ``rng``: an
    angle by an entry of ``EXTREMES`` or ``1/0``, or an operand's index by
    its register's size or that size minus 1, whichever differs from it."""
    sizes = dict(re.findall(r"[qc]reg\s+(\w+)\[(\d+)\]", text))
    spots = [m for m in _QASM_NUMBERS.finditer(text)
             if m["index"] or m["angle"]]
    if not spots:
        return text
    spot = rng.choice(spots)
    if spot["angle"]:
        start, end = spot.span("angle")
        value = rng.choice(EXTREMES + ("1/0",))
    else:
        start, end = spot.span("index")
        size = int(sizes[spot["register"]])
        value = rng.choice([str(n) for n in (size - 1, size)
                            if str(n) != spot["index"]])
    return text[:start] + value + text[end:]


def edited_qasm():
    """A program of ``qasm_programs`` with one angle or index replaced."""
    return st.builds(edit_number, st.randoms(use_true_random=False),
                     st.sampled_from(qasm_programs()))
