"""OpenQASM 2 import for flat circuits (``bridge`` holds the exporter).

The importer covers the statement subset a transpiler bridge needs:
``OPENQASM 2.0;`` and ``include`` headers, ``qreg``/``creg``
declarations, the standard-library gates named in GateKind, ``measure``,
``reset``, and ``barrier`` (accepted and dropped with a warning).
Registers flatten to contiguous indices in declaration order: a register
is the ``range`` of its indices, and an operand is that range or one
element's index. Register-wide statements broadcast element-wise in index
order, so ``measure q -> c;`` becomes one measurement per bit; the
registers may declare at most ``errors.MAX_DECLARED_SIZE`` qubits and as
many bits, so no statement expands further, and the whole program to at
most ``errors.MAX_OPERATIONS`` operations: the statement that would pass
that is a ParseError. Angle expressions support
literals, ``pi``, arithmetic, and parentheses; a gate whose angle is not
finite (``rx(1e999)``, ``ry(1e308*10)``) is a ParseError at the gate.

Anything outside the subset (``if``, ``gate`` definitions, ``opaque``)
raises ParseError rather than being skipped.
"""

from __future__ import annotations

import re
import warnings
from math import isfinite, pi
from typing import NamedTuple

from .circuit import Gate, Measure, QuantumCircuit, Reset
from .errors import (MAX_DECLARED_SIZE, MAX_OPERATIONS, ParseError,
                     check_input_size)
from .intrinsics import GateKind

_GATES_BY_NAME = {kind.value: kind for kind in GateKind}

# deepest nesting of parentheses and unary signs in one angle expression;
# each level is a Python call, so deeper input is refused before it can
# exhaust the interpreter's recursion limit
MAX_ANGLE_DEPTH = 100

# one match per token, as in ``lexer``, on lines split at "\n" only:
# leading whitespace is part of the pattern, a comment ends the line, and
# the last group takes any other non-space character, so a bad character
# is reported where it stands
_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<COMMENT>//.*)
    | (?P<ARROW>->)
    | (?P<NUMBER>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<ID>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<STRING>"[^"]*")
    | (?P<PUNCT>[\[\](),;+\-*/])
    | (?P<BAD>\S)
    )""", re.VERBOSE)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for line, row in enumerate(text.split("\n"), start=1):
        for match in _TOKEN_RE.finditer(row):
            kind = match.lastgroup
            if kind == "COMMENT":
                break
            column = match.start(kind) + 1
            if kind == "BAD":
                raise ParseError("unexpected character", line, column,
                                 match[kind])
            tokens.append(_Token(kind, match[kind], line, column))
    return tokens


class _Reader:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError("unexpected end of input",
                             last.line if last else 1,
                             last.column if last else 1)
        self.pos += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.next()
        if token.text != text:
            raise ParseError(f"expected {text!r}", token.line,
                             token.column, token.text)
        return token

    def accept(self, text: str) -> bool:
        token = self.peek()
        if token is not None and token.text == text:
            self.pos += 1
            return True
        return False


def _integer(tok: _Token, what: str) -> int:
    """The number a digit token spells, checked against the int-string
    limit; ``what`` names it when ``tok`` is not one."""
    if tok.kind != "NUMBER" or not tok.text.isdigit():
        raise ParseError(f"{what} must be an integer", tok.line, tok.column,
                         tok.text)
    try:
        return int(tok.text)
    except ValueError:
        raise ParseError("integer literal too long", tok.line, tok.column,
                         tok.text) from None


def _each(operand: range | int) -> range | tuple[int]:
    """The flat indices an operand names."""
    return operand if isinstance(operand, range) else (operand,)


class _QasmParser:
    def __init__(self, text: str):
        self.reader = _Reader(_tokenize(text))
        self.qregs: dict[str, range] = {}
        self.cregs: dict[str, range] = {}
        self.num_qubits = 0
        self.num_clbits = 0
        self.ops: list = []
        self.angle_depth = 0

    def parse(self) -> QuantumCircuit:
        first = True
        while self.reader.peek() is not None:
            token = self.reader.next()
            if token.text == "OPENQASM":
                if not first:
                    raise ParseError("version statement must come first",
                                     token.line, token.column, token.text)
                version = self.reader.next()
                if version.text != "2.0":
                    raise ParseError("only OpenQASM 2.0 is supported",
                                     version.line, version.column,
                                     version.text)
                self.reader.expect(";")
            elif token.text == "include":
                path = self.reader.next()
                if path.kind != "STRING":
                    raise ParseError("include expects a quoted filename",
                                     path.line, path.column, path.text)
                self.reader.expect(";")
            elif token.text in ("qreg", "creg"):
                self._declaration(token)
            elif token.text == "measure":
                self._measure(token)
            elif token.text == "reset":
                self._reset(token)
            elif token.text == "barrier":
                self._barrier(token)
            elif token.text in _GATES_BY_NAME:
                self._gate(token)
            else:
                raise ParseError("unsupported statement", token.line,
                                 token.column, token.text)
            first = False
        # each op's arity, angles, operands and range were checked as read
        return QuantumCircuit._proven(self.num_qubits, self.num_clbits,
                                      tuple(self.ops))

    # ------------------------------------------------------------------

    def _declaration(self, keyword: _Token) -> None:
        name = self.reader.next()
        if name.kind != "ID":
            raise ParseError("expected a register name", name.line,
                             name.column, name.text)
        if name.text in self.qregs or name.text in self.cregs:
            raise ParseError(f"register {name.text!r} already declared",
                             name.line, name.column, name.text)
        self.reader.expect("[")
        size_tok = self.reader.next()
        size = _integer(size_tok, "register size")
        if size < 1:
            raise ParseError("register size must be positive",
                             size_tok.line, size_tok.column, size_tok.text)
        qreg = keyword.text == "qreg"
        total = size + (self.num_qubits if qreg else self.num_clbits)
        if total > MAX_DECLARED_SIZE:
            raise ParseError(
                f"registers declare {total} {'qubits' if qreg else 'bits'}, "
                f"more than the limit of {MAX_DECLARED_SIZE}",
                size_tok.line, size_tok.column, size_tok.text)
        self.reader.expect("]")
        self.reader.expect(";")
        if qreg:
            self.qregs[name.text] = range(self.num_qubits, total)
            self.num_qubits = total
        else:
            self.cregs[name.text] = range(self.num_clbits, total)
            self.num_clbits = total

    def _operand(self, table: dict[str, range], what: str) -> range | int:
        name = self.reader.next()
        register = table.get(name.text)
        if register is None:
            raise ParseError(f"unknown {what} register {name.text!r}",
                             name.line, name.column, name.text)
        if not self.reader.accept("["):
            return register
        index_tok = self.reader.next()
        index = _integer(index_tok, "index")
        if index >= len(register):
            raise ParseError(
                f"index {index} out of range for {name.text!r} "
                f"of size {len(register)}",
                index_tok.line, index_tok.column, index_tok.text)
        self.reader.expect("]")
        return register[index]

    def _broadcast(self, operands: list[range | int],
                   token: _Token) -> range:
        lengths = {len(o) for o in operands if isinstance(o, range)}
        if len(lengths) > 1:
            raise ParseError("mismatched register lengths",
                             token.line, token.column, token.text)
        return range(lengths.pop()) if lengths else range(1)

    def _make_room(self, count: int, token: _Token) -> None:
        """Refuse the statement at ``token`` if its ``count`` operations
        would take the circuit past ``MAX_OPERATIONS``."""
        total = len(self.ops) + count
        if total > MAX_OPERATIONS:
            raise ParseError(
                f"the circuit expands to {total} operations, more than the "
                f"limit of {MAX_OPERATIONS}", token.line, token.column,
                token.text)

    def _gate(self, token: _Token) -> None:
        kind = _GATES_BY_NAME[token.text]
        params: tuple[float, ...] = ()
        if self.reader.accept("("):
            values = [self._expression()]
            while self.reader.accept(","):
                values.append(self._expression())
            self.reader.expect(")")
            params = tuple(values)
            if not all(map(isfinite, params)):
                raise ParseError(f"{token.text} angle is not finite",
                                 token.line, token.column, token.text)
        if len(params) != kind.num_params:
            raise ParseError(
                f"{kind.value} takes {kind.num_params} parameter(s)",
                token.line, token.column, token.text)
        operands = [self._operand(self.qregs, "quantum")]
        while self.reader.accept(","):
            operands.append(self._operand(self.qregs, "quantum"))
        self.reader.expect(";")
        if len(operands) != kind.num_qubits:
            raise ParseError(
                f"{kind.value} takes {kind.num_qubits} operand(s)",
                token.line, token.column, token.text)
        indices = self._broadcast(operands, token)
        self._make_room(len(indices), token)
        for i in indices:
            qubits = tuple(o[i] if isinstance(o, range) else o
                           for o in operands)
            if len(set(qubits)) != len(qubits):
                raise ParseError(f"duplicate operand in {kind.value}",
                                 token.line, token.column, token.text)
            self.ops.append(Gate(kind, params, qubits))

    def _measure(self, token: _Token) -> None:
        source = self._operand(self.qregs, "quantum")
        self.reader.expect("->")
        target = self._operand(self.cregs, "classical")
        self.reader.expect(";")
        if isinstance(source, range) != isinstance(target, range):
            raise ParseError(
                "measure needs two registers or two single bits",
                token.line, token.column, token.text)
        source, target = _each(source), _each(target)
        if len(source) != len(target):
            raise ParseError("measure operands differ in length",
                             token.line, token.column, token.text)
        self._make_room(len(source), token)
        self.ops += map(Measure, source, target)

    def _reset(self, token: _Token) -> None:
        qubits = _each(self._operand(self.qregs, "quantum"))
        self.reader.expect(";")
        self._make_room(len(qubits), token)
        self.ops += map(Reset, qubits)

    def _barrier(self, token: _Token) -> None:
        self._operand(self.qregs, "quantum")
        while self.reader.accept(","):
            self._operand(self.qregs, "quantum")
        self.reader.expect(";")
        warnings.warn(
            f"barrier at line {token.line} has no circuit equivalent "
            "and was dropped", stacklevel=4)

    # ------------------------------------------------------------------
    # angle expressions: literals, pi, + - * /, parentheses

    def _expression(self) -> float:
        value = self._term()
        while True:
            if self.reader.accept("+"):
                value += self._term()
            elif self.reader.accept("-"):
                value -= self._term()
            else:
                return value

    def _term(self) -> float:
        value = self._factor()
        while True:
            if self.reader.accept("*"):
                value *= self._factor()
            elif self.reader.accept("/"):
                token = self.reader.peek()
                divisor = self._factor()
                if divisor == 0:
                    raise ParseError("division by zero in angle",
                                     token.line, token.column, token.text)
                value /= divisor
            else:
                return value

    def _factor(self) -> float:
        token = self.reader.next()
        if token.text in ("-", "+", "("):
            self.angle_depth += 1
            if self.angle_depth > MAX_ANGLE_DEPTH:
                raise ParseError(f"angle expression nested deeper than "
                                 f"{MAX_ANGLE_DEPTH} levels", token.line,
                                 token.column, token.text)
            if token.text == "(":
                value = self._expression()
                self.reader.expect(")")
            else:
                value = self._factor()
                if token.text == "-":
                    value = -value
            self.angle_depth -= 1
            return value
        if token.kind == "NUMBER":
            return float(token.text)
        if token.text == "pi":
            return pi
        raise ParseError("expected a number, 'pi', or parentheses",
                         token.line, token.column, token.text)


def import_openqasm2(text: str) -> QuantumCircuit:
    """Parse OpenQASM 2 source into a circuit; raises ParseError on bad
    input, and on text longer than ``errors.MAX_INPUT_CHARS``."""
    check_input_size(text)
    return _QasmParser(text).parse()
