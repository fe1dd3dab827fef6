"""Outside-in tracing of qirtk: spans and counts at each module boundary.

The tracer wraps public names where the importing module looks them up
(``qirtk.cli.parse_module``, ``qirtk.parser.tokenize``, the
``StateVector`` methods, ...) and restores them on ``uninstall``, so the
program under test is not edited. Spans live in memory in flat integer
arrays and are written out once, after the measured window.

A layer is named after its module and its time is self time: the span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import copy as _copy
import importlib
import statistics
import time
import types
from array import array
from collections import defaultdict

GATE_CLASSES = {
    "perm": {"x", "cx", "swap", "ccx"},
    "diag": {"z", "s", "sdg", "t", "tdg", "rz", "cz"},
    "dense": {"h", "y", "rx", "ry"},
}
_CLASS_OF = {kind: cls for cls, kinds in GATE_CLASSES.items()
             for kind in kinds}

# (module looked up in, attribute, span name); the span name's prefix
# is the layer
_FUNCTIONS = [
    ("qirtk.parser", "tokenize", "lexer.tokenize"),
    ("qirtk.cli", "parse_module", "parser.parse_module"),
    ("qirtk.cli", "validate_profile", "profile.validate_profile"),
    ("qirtk.transforms", "validate_profile", "profile.validate_profile"),
    ("qirtk.bridge", "validate_profile", "profile.validate_profile"),
    ("qirtk.cli", "lower_to_base", "transforms.lower_to_base"),
    ("qirtk.cli", "unroll_and_fold", "transforms.unroll_and_fold"),
    ("qirtk.transforms", "unroll_and_fold", "transforms.unroll_and_fold"),
    ("qirtk.transforms", "allocate_static_addresses",
     "transforms.allocate_static_addresses"),
    ("qirtk.cli", "print_module", "printer.print_module"),
    ("qirtk.cli", "circuit_to_base_qir", "bridge.circuit_to_base_qir"),
    ("qirtk.cli", "circuit_from_base_qir", "bridge.circuit_from_base_qir"),
    ("qirtk.cli", "import_openqasm2", "qasm2.import_openqasm2"),
    ("qirtk.cli", "export_openqasm2", "qasm2.export_openqasm2"),
    ("qirtk.cli", "interpret", "interpreter.interpret"),
    ("qirtk.interpreter", "run_shot", "interpreter.run_shot"),
]

# per-layer metric -> span names whose self time it sums
TIME_METRICS = {
    "cli.self_s": ["cli.main"],
    "lexer.tokenize_s": ["lexer.tokenize"],
    "parser.self_s": ["parser.parse_module"],
    "profile.validate_s": ["profile.validate_profile"],
    "transforms.unroll_s": ["transforms.unroll_and_fold"],
    "transforms.alloc_s": ["transforms.allocate_static_addresses"],
    "transforms.lower_self_s": ["transforms.lower_to_base"],
    "transforms.deepcopy_s": ["transforms.deepcopy"],
    "printer.print_s": ["printer.print_module"],
    "bridge.to_qir_s": ["bridge.circuit_to_base_qir"],
    "bridge.from_qir_s": ["bridge.circuit_from_base_qir"],
    "qasm2.import_s": ["qasm2.import_openqasm2"],
    "qasm2.export_s": ["qasm2.export_openqasm2"],
    "interpreter.self_s": ["interpreter.interpret", "interpreter.run_shot"],
    "statevector.perm_s": ["statevector.perm"],
    "statevector.diag_s": ["statevector.diag"],
    "statevector.dense_s": ["statevector.dense"],
    "statevector.measure_s": ["statevector.measure"],
    "rng.draw_s": ["rng.next_double"],
}

COUNT_METRICS = [
    "lexer.lines", "parser.instructions", "profile.calls",
    "transforms.instructions_in", "transforms.instructions_out",
    "printer.lines", "interpreter.shots", "interpreter.steps",
    "statevector.perm_gates", "statevector.diag_gates",
    "statevector.dense_gates", "statevector.measures",
    "statevector.peak_qubits", "statevector.bytes_moved_computed",
    "rng.draws",
]


def instruction_count(module) -> int:
    return sum(len(block.instructions) for fn in module.functions
               for block in fn.blocks)


# span name -> work counts taken from the wrapped call's arguments and result
_COUNTERS = {
    "lexer.tokenize": lambda args, result: {
        "lexer.lines": len(args[0].splitlines())},
    "parser.parse_module": lambda args, result: {
        "parser.instructions": instruction_count(result)},
    "profile.validate_profile": lambda args, result: {"profile.calls": 1},
    "transforms.lower_to_base": lambda args, result: {
        "transforms.instructions_in": instruction_count(args[0]),
        "transforms.instructions_out": instruction_count(result)},
    "printer.print_module": lambda args, result: {
        "printer.lines": result.count("\n")},
    "interpreter.run_shot": lambda args, result: {
        "interpreter.shots": 1, "interpreter.steps": result[1].steps},
}


def self_times(spans) -> dict[int, int]:
    """Self time of each span: duration minus the union of its children.

    ``spans`` holds (id, parent, start, end) tuples with parent -1 for a
    root. Child intervals are clipped to the parent's interval and
    overlaps between children are counted once.
    """
    children = defaultdict(list)
    for sid, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end in spans:
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = end - start - covered
    return out


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in the order spans end
        self.sid, self.parent, self.cmd = array("q"), array("q"), array("q")
        self.name, self.start, self.end = array("q"), array("q"), array("q")
        self.counts: list[dict[str, float]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._command = -1
        self._restore: list = []
        self._in_deepcopy = False
        self._begin_shot()

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        nid = self._name_id(name)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.sid.append(sid)
            self.parent.append(parent)
            self.cmd.append(self._command)
            self.name.append(nid)
            self.start.append(start)
            self.end.append(end)

    def begin_command(self) -> None:
        self._command += 1
        self.counts.append(defaultdict(float))
        # outcome-history trie: (node, outcome) -> child node; root is 0
        self._trie: dict[tuple[int, int], int] = {}
        self._seen: set[tuple[int, int]] = set()

    def _begin_shot(self) -> None:
        self._node = 0
        self._position = 0

    # -- wrappers ------------------------------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[-1][key] += amount

    def _wrap_function(self, name: str, fn):
        tracer = self
        counters = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if name == "interpreter.run_shot":
                tracer._begin_shot()
            result = tracer.call(name, fn, *args, **kwargs)
            if counters is not None:
                for key, amount in counters(args, result).items():
                    tracer._count(key, amount)
            return result
        return wrapper

    def _wrap_gate(self, fn):
        tracer = self

        def apply_gate_inplace(sv, kind, params, targets):
            cls = _CLASS_OF[kind.value]
            n = sv.num_qubits
            counts = tracer.counts[-1]
            counts[f"statevector.{cls}_gates"] += 1
            counts["statevector.bytes_moved_computed"] += 2 * 16 * (1 << n)
            if n > counts["statevector.peak_qubits"]:
                counts["statevector.peak_qubits"] = n
            key = (tracer._node, tracer._position)
            tracer._position += 1
            if key in tracer._seen:
                counts["interpreter.redundant_gates"] += 1
            else:
                tracer._seen.add(key)
            return tracer.call(f"statevector.{cls}", fn, sv, kind, params,
                               targets)
        return apply_gate_inplace

    def _wrap_measure(self, fn):
        tracer = self

        def measure(sv, qubit, uniform):
            outcome = tracer.call("statevector.measure", fn, sv, qubit,
                                  uniform)
            tracer._count("statevector.measures")
            child = (tracer._node, outcome)
            node = tracer._trie.get(child)
            if node is None:
                node = tracer._trie[child] = len(tracer._trie) + 1
            tracer._node = node
            return outcome
        return measure

    def _wrap_draw(self, fn):
        tracer = self

        def next_double(rng):
            tracer._count("rng.draws")
            return tracer.call("rng.next_double", fn, rng)
        return next_double

    def _wrap_deepcopy(self, fn):
        tracer = self

        def deepcopy(*args, **kwargs):
            if tracer._in_deepcopy:
                return fn(*args, **kwargs)
            tracer._in_deepcopy = True
            try:
                return tracer.call("transforms.deepcopy", fn, *args,
                                   **kwargs)
            finally:
                tracer._in_deepcopy = False
        return deepcopy

    def install(self) -> None:
        """Wrap every traced name; ``uninstall`` puts the originals back."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in _FUNCTIONS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap_function(
                span, getattr(module, attr)))
        sv_class = importlib.import_module("qirtk.statevector").StateVector
        rng_class = importlib.import_module("qirtk.rng").ShotRng
        self._patch(sv_class, "apply_gate_inplace",
                    self._wrap_gate(sv_class.apply_gate_inplace))
        self._patch(sv_class, "measure", self._wrap_measure(sv_class.measure))
        self._patch(rng_class, "next_double",
                    self._wrap_draw(rng_class.next_double))
        transforms = importlib.import_module("qirtk.transforms")
        proxy = types.ModuleType("copy")
        proxy.__dict__.update(vars(_copy))
        proxy.deepcopy = self._wrap_deepcopy(_copy.deepcopy)
        self._patch(transforms, "copy", proxy)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def command_metrics(self) -> list[dict[str, float]]:
        """Per-layer metrics of each traced command, in command order."""
        by_cmd: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        spans = list(zip(self.sid, self.parent, self.start, self.end))
        selfs = self_times(spans)
        for sid, cmd, nid in zip(self.sid, self.cmd, self.name):
            by_cmd[cmd][self.names[nid]] += selfs[sid] / 1e9
        out = []
        for cmd, counts in enumerate(self.counts):
            span_self = by_cmd[cmd]
            row = {metric: sum(span_self[n] for n in names)
                   for metric, names in TIME_METRICS.items()}
            row.update({key: counts.get(key, 0) for key in COUNT_METRICS})
            gates = sum(counts.get(f"statevector.{c}_gates", 0)
                        for c in GATE_CLASSES)
            row["interpreter.redundant_gate_share"] = (
                counts.get("interpreter.redundant_gates", 0) / gates
                if gates else 0.0)
            out.append(row)
        return out

    def write_spans(self, path) -> int:
        """Write every span as CSV; returns the number written."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("command,id,parent,name,start_ns,end_ns\n")
            for sid, parent, cmd, nid, start, end in zip(
                    self.sid, self.parent, self.cmd, self.name, self.start,
                    self.end):
                handle.write(f"{cmd},{sid},{parent},{self.names[nid]},"
                             f"{start},{end}\n")
        return len(self.sid)


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}
