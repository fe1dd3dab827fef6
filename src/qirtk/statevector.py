"""Dense statevector backend.

Conventions:
  * amplitude index bit i holds the basis state of qubit i, so qubit 0 is
    the least-significant bit of the flat index
  * a k-qubit matrix, as ``apply_matrix`` takes it, is indexed the same
    way over its operand list: matrix index bit j belongs to operand j
    (operand 0 least significant)
  * RZ(theta) = diag(exp(-i theta/2), exp(+i theta/2)); RX and RY follow
    the same exp(-i theta/2 P) convention

Gates run through one kernel per gate class, on strided views of the
flat amplitude vector, with no axis moves. Every kernel works on the
state's own array, in place, a tile of at most ``_KRON_BLOCK``
amplitudes at a time, so no gate or measurement allocates more than
about a block beside the state (256 KiB, and numpy's fixed ufunc
buffers), whatever the width. A state of one tile, 14 qubits or fewer,
is the exception: x and a 2x2 product write it to a new array, which is
no larger than a tile and saves a copy back:
  * permutation (x, cx, swap, ccx): amplitudes only trade places. The
    two slices where the operands hold the gate's two bit patterns (for
    x, the target's two halves) are swapped a tile of each at a time,
    half a block apiece: where the slices interleave, numpy copies one
    before it assigns it. No arithmetic is done, so a permutation is
    exact.
  * diagonal (z, s, sdg, t, tdg, rz, cz): the slice under each phase is
    multiplied in place; a phase equal to 1 is skipped.
  * dense (h, y, rx, ry): matrix products over the state reshaped so
    the target's bit is an index of its own. With at most four lower
    qubits each row of 2**(q+1) amplitudes is multiplied in place, a
    block of rows at a time, by the 2x2 matrix lifted with an identity
    (a Kronecker product); above that the 2x2 matrix multiplies each
    2 x 2**q block, a tile of blocks at a time, its product written back
    over it. A block wider than a tile, on the top qubits, is cut into
    columns, and every column gets the product it gets uncut: the
    arithmetic of each amplitude does not depend on the tiles.
Measurement works on the target's two halves: ``prob_one`` is the
squared norm of the 1-half, ``collapse`` zeroes one half and rescales
the other. ``apply_matrix`` applies an arbitrary unitary by moving the
target axes to the front; it copies the state.

A gate application runs through a plan, a closure over what its kernel
derives from the key ``(kind, params, targets, num_qubits)``: the view
indices, the phases, the 2x2 matrix and the reshape shapes. A tiled
kernel keeps the index of one view, and makes each tile's index from it
on every call, so a plan stays small at any width. The first
application of a key validates it and builds the plan; later ones find
it in ``_PLANS`` and run it. Measurement keeps its validated half shape
there too, under ``(qubit, num_qubits)``. A plan never holds amplitudes
or a view of them, so one plan serves every state of its width. The
cache holds at most ``_MAX_PLANS`` entries; past that, plans are built,
run and not stored. Params with a zero or a NaN are never stored, since
``0.0 == -0.0`` and a NaN equals nothing, so no key finds a plan built
from other bits. The Kronecker-lifted matrix is rebuilt on every call.

``StateVector`` methods mutate in place; the module-level ``apply_gate``
is the pure variant used where value semantics read better.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .circuit import GateKind

_SQRT1_2 = 1.0 / math.sqrt(2.0)

# the dense gates' fixed 2x2 matrices; every other gate is defined by
# the data its kernel reads: _PERMUTATIONS, _PHASES and the rz phases
_DENSE_1Q: dict[GateKind, np.ndarray] = {
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT1_2,
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def _dense_matrix(kind: GateKind, params: tuple[float, ...]) -> np.ndarray:
    """The 2x2 matrix of a dense gate: h, y, rx or ry."""
    if kind in _DENSE_1Q:
        return _DENSE_1Q[kind]
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind is GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    return np.array([[c, -s], [s, c]], dtype=complex)


# permutation gates: the two operand bit patterns whose slices trade places
_PERMUTATIONS: dict[GateKind, tuple[tuple[int, ...], tuple[int, ...]]] = {
    GateKind.X: ((0,), (1,)),
    GateKind.CNOT: ((1, 0), (1, 1)),
    GateKind.SWAP: ((1, 0), (0, 1)),
    GateKind.CCX: ((1, 1, 0), (1, 1, 1)),
}

# fixed diagonal gates: (operand bit pattern, phase) for each entry != 1
_PHASES: dict[GateKind, tuple[tuple[tuple[int, ...], complex], ...]] = {
    GateKind.Z: (((1,), -1),),
    GateKind.S: (((1,), 1j),),
    GateKind.SDG: (((1,), -1j),),
    GateKind.T: (((1,), cmath.exp(1j * math.pi / 4)),),
    GateKind.TDG: (((1,), cmath.exp(-1j * math.pi / 4)),),
    GateKind.CZ: (((1, 1), -1),),
}

# longest run of lower qubits for which a dense gate multiplies rows of
# the state by a Kronecker-lifted matrix rather than batching 2x2 products,
# and the number of amplitudes any kernel works on at once. A 2x2 product
# cut into columns takes half a block's: on a 2-vCPU box, numpy 2.4's
# OpenBLAS multiplies 2**13 columns on one thread in about 31 us, and
# 2**14 on two threads in about 180 us, three times its one-thread time
_KRON_MAX_RUN = 16
_KRON_BLOCK = 1 << 14

# gate plans and measured half shapes by key (see the module docstring)
_PLANS: dict[tuple, object] = {}
_MAX_PLANS = 1024


def _diagonal_phases(kind: GateKind, params: tuple[float, ...]):
    if kind is GateKind.RZ:
        (theta,) = params
        return (((0,), cmath.exp(-1j * theta / 2)),
                ((1,), cmath.exp(1j * theta / 2)))
    return _PHASES.get(kind)


def _check_targets(targets: tuple[int, ...], arity: int,
                   num_qubits: int) -> tuple[int, ...]:
    """``targets`` as ints, or a ``ValueError`` for a bad target."""
    if len(targets) != arity:
        raise ValueError("matrix size does not match target count")
    ints = tuple(map(_qubit, targets))
    if len(set(ints)) != arity:
        raise ValueError("duplicate target qubit")
    for q in ints:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range")
    return ints


def _qubit(q) -> int:
    # a key finds the plan of an equal key, so a target is taken only
    # when it equals an int: 1.0, True and numpy.int64(1) all name qubit 1
    try:
        if int(q) == q:
            return int(q)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"qubit {q!r} is not an integer")


def _gate_plan(kind: GateKind, params: tuple[float, ...],
               targets: tuple[int, ...], num_qubits: int):
    """Validate one gate application and build its plan."""
    if len(params) != kind.num_params:
        raise ValueError(f"{kind.value} expects {kind.num_params} "
                         f"parameters, got {len(params)}")
    targets = _check_targets(targets, kind.num_qubits, num_qubits)
    plan = _build_plan(kind, params, targets, num_qubits)
    # 0.0 == -0.0 and a NaN equals nothing, so such a key would share a
    # plan with different bits or never be found: it is not stored
    if len(_PLANS) < _MAX_PLANS and all(p == p and p != 0 for p in params):
        _PLANS[kind, params, targets, num_qubits] = plan
    return plan


def _build_plan(kind: GateKind, params: tuple[float, ...],
                targets: tuple[int, ...], num_qubits: int):
    swap = _PERMUTATIONS.get(kind)
    if swap is not None:
        shape, index, outer = _views(targets, num_qubits, _tile_qubits())
        if kind is GateKind.X and not outer:
            # a state of one tile is copied once with its target's
            # halves exchanged: the copy is no larger than a tile, and
            # cheaper than a swap through a temporary
            flipped = index((slice(None, None, -1),))

            def flip(sv):
                psi = sv.amplitudes.reshape(shape)
                sv.amplitudes = psi[flipped].reshape(-1)
            return flip
        tiles = _tiles(shape, outer, (index(swap[0]), index(swap[1])))

        def trade(sv):
            psi = sv.amplitudes.reshape(shape)
            for first, second in tiles():
                a, b = psi[first], psi[second]
                held = a.copy()
                a[...] = b
                b[...] = held
        return trade
    phases = _diagonal_phases(kind, params)
    if phases is not None:
        shape, index, _ = _views(targets, num_qubits)
        parts = [(index(bits), phase) for bits, phase in phases
                 if phase != 1]

        def rephase(sv):
            psi = sv.amplitudes.reshape(shape)
            for where, phase in parts:
                part = psi[where]
                part *= phase
        return rephase
    return _dense_plan(_dense_matrix(kind, params), targets[0], num_qubits)


def _tile_qubits() -> int:
    """How many untargeted qubits a tile spans: half a block, the other
    half being the partner slice of a swap or the other row of a 2x2
    product."""
    return _KRON_BLOCK.bit_length() - 2


def _views(qubits: tuple[int, ...], num_qubits: int,
           inner: int | None = None):
    """A shape of the state with an axis per qubit of ``qubits`` and one
    per run of other qubits (axis 0 most significant); a function from
    a pattern to the index of the view where the axis of ``qubits[i]``
    is ``pattern[i]``, a bit or ``slice(None)``; and the axes of the
    other qubits above the lowest ``inner`` of them. No run joins qubits
    on both sides of that line, so a tile, which fixes those axes, holds
    ``2**inner`` amplitudes at most of a view whose pattern is all bits,
    and twice that for each ``slice(None)``."""
    shape: list[int] = []
    axis_of: dict[int, int] = {}
    outer: list[int] = []
    below = num_qubits - len(qubits)    # other qubits not passed yet
    run = None                          # the open run's side of the line
    for q in range(num_qubits - 1, -1, -1):
        if q in qubits:
            axis_of[q] = len(shape)
            shape.append(2)
            run = None
            continue
        below -= 1
        high = inner is not None and below >= inner
        if run is high:
            shape[-1] *= 2
            continue
        if high:
            outer.append(len(shape))
        shape.append(2)
        run = high

    def index(pattern: tuple) -> tuple:
        # the trailing Ellipsis keeps a view even when every axis is fixed
        out: list = [slice(None)] * len(shape) + [...]
        for q, at in zip(qubits, pattern):
            out[axis_of[q]] = at
        return tuple(out)
    return tuple(shape), index, outer


def _tiles(shape: tuple[int, ...], outer: list[int], indices: tuple):
    """A function that yields ``indices`` once per tile, with the
    ``outer`` axes of the state shaped ``shape`` fixed to the tile's.

    A plan keeps the indices alone, and the tiles' are made on each
    call, so a plan stays small at any width.
    """
    if not outer:
        whole = (indices,)
        return lambda: whole
    counts = [range(shape[axis]) for axis in outer]

    def each():
        tiles = [list(index) for index in indices]
        for where in itertools.product(*counts):
            for tile in tiles:
                for axis, i in zip(outer, where):
                    tile[axis] = i
            yield tuple(map(tuple, tiles))
    return each


def _dense_plan(matrix: np.ndarray, qubit: int, num_qubits: int):
    run = 1 << qubit
    if run > _KRON_MAX_RUN:
        # one 2x2 product per block of (qubit bit, lower qubits), in
        # place a tile at a time; a block wider than a tile is cut into
        # columns, and each column gets the product it got uncut
        shape, index, outer = _views((qubit,), num_qubits, _tile_qubits())
        if not outer:
            # a state of one tile takes its product as a new array, no
            # larger than a tile, rather than copying it back
            def product(sv):
                sv.amplitudes = np.matmul(
                    matrix, sv.amplitudes.reshape(shape)).reshape(-1)
            return product
        tiles = _tiles(shape, outer, (index((slice(None),)),))

        def multiply(sv):
            psi = sv.amplitudes.reshape(shape)
            for (at,) in tiles():
                part = psi[at]
                part[...] = np.matmul(matrix, part)
        return multiply
    # a short run would make numpy loop over tiny slices, so each row of
    # (qubit bit, lower qubits) is multiplied by (matrix kron I_run)^T
    # instead; a few rows at a time and in place, because a product over
    # the whole state makes BLAS pack state-sized buffers
    width = 2 * run
    step = _KRON_BLOCK // width
    blocks = [slice(start, start + step)
              for start in range(0, (1 << num_qubits) // width, step)]
    left = matrix.T[:, None, :, None]

    def lift_rows(sv):
        # the lift is rebuilt on every call: kept in the plan, these
        # arrays of up to 16 KB outlive the states and fragment the heap
        # between the large ones, which raised peak RSS by a tenth
        lift = (left * np.eye(run)[None, :, None, :]).reshape(width, width)
        rows = sv.amplitudes.reshape(-1, width)
        for block in blocks:
            part = rows[block]
            part[...] = part @ lift
    return lift_rows


def _measured_shape(qubit: int, num_qubits: int) -> tuple[int, int, int]:
    """Validate a measured qubit and plan its half shape: the state
    shaped (higher qubits, ``qubit``, lower qubits)."""
    (qubit,) = _check_targets((qubit,), 1, num_qubits)
    shape = (1 << (num_qubits - 1 - qubit), 2, 1 << qubit)
    if len(_PLANS) < _MAX_PLANS:
        _PLANS[qubit, num_qubits] = shape
    return shape


class StateVector:
    """Mutable dense state over ``num_qubits`` qubits."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int = 0):
        if num_qubits < 0:
            raise ValueError("negative qubit count")
        self.num_qubits = num_qubits
        self.amplitudes = np.zeros(1 << num_qubits, dtype=complex)
        self.amplitudes[0] = 1.0

    def copy(self) -> "StateVector":
        out = StateVector.__new__(StateVector)
        out.num_qubits = self.num_qubits
        out.amplitudes = self.amplitudes.copy()
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def grow(self) -> int:
        """Append one qubit in state |0>; returns its index."""
        index = self.num_qubits
        self.amplitudes = np.concatenate(
            [self.amplitudes, np.zeros_like(self.amplitudes)])
        self.num_qubits += 1
        return index

    # ------------------------------------------------------------------

    def _halves(self, qubit: int) -> tuple[np.ndarray, np.ndarray]:
        """The amplitudes with ``qubit`` at 0 and at 1, each shaped
        (higher qubits, lower qubits)."""
        shape = _PLANS.get((qubit, self.num_qubits))
        if shape is None:
            shape = _measured_shape(qubit, self.num_qubits)
        psi = self.amplitudes.reshape(shape)
        return psi[:, 0], psi[:, 1]

    def apply_matrix(self, matrix: np.ndarray,
                     targets: tuple[int, ...]) -> None:
        """Apply an arbitrary unitary; gates go through the kernels of
        ``apply_gate_inplace`` instead."""
        k = len(targets)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError("matrix size does not match target count")
        n = self.num_qubits
        targets = _check_targets(targets, k, n)
        psi = self.amplitudes.reshape([2] * n)
        # front axes ordered so the flattened group index has operand j
        # at bit j (operand k-1 lands on the most significant position);
        # numpy axis 0 is the most significant index bit
        src = [n - 1 - targets[k - 1 - j] for j in range(k)]
        dst = list(range(k))
        psi = np.moveaxis(psi, src, dst)
        shape = psi.shape
        psi = psi.reshape(1 << k, -1)
        psi = matrix @ psi
        psi = psi.reshape(shape)
        psi = np.moveaxis(psi, dst, src)
        self.amplitudes = np.ascontiguousarray(psi).reshape(-1)

    def apply_gate_inplace(self, kind: GateKind, params: tuple[float, ...],
                           targets: tuple[int, ...]) -> None:
        """Apply one gate through its plan, built and validated on the
        first application of its key; ``params`` and ``targets`` are
        tuples, as they are part of the key."""
        plan = _PLANS.get((kind, params, targets, self.num_qubits))
        if plan is None:
            plan = _gate_plan(kind, params, targets, self.num_qubits)
        plan(self)

    # ------------------------------------------------------------------

    def prob_one(self, qubit: int) -> float:
        """Probability of measuring ``qubit`` as 1."""
        return _norm2(self._halves(qubit)[1])

    def collapse(self, qubit: int, outcome: int) -> None:
        """Zero amplitudes inconsistent with ``outcome`` and renormalize."""
        halves = self._halves(qubit)
        _collapse(halves, outcome, _norm2(halves[outcome]))

    def measure(self, qubit: int, uniform: float) -> int:
        """Sample and collapse one qubit.

        ``uniform`` is a draw in [0, 1); the outcome is 1 when it falls
        below the probability of one. Always consumes exactly one draw.
        """
        halves = self._halves(qubit)
        p_one = _norm2(halves[1])
        outcome = 1 if uniform < p_one else 0
        # the 1-half is unchanged since p_one was taken, so its squared
        # norm is p_one to the last bit
        _collapse(halves, outcome, p_one if outcome else _norm2(halves[0]))
        return outcome


def _norm2(part: np.ndarray) -> float:
    """Squared norm of one of ``StateVector._halves``."""
    if part.shape[0] == 1 or part.shape[1] == 1:
        flat = part.reshape(-1)      # one stride: a view, not a copy
        return float(np.vdot(flat, flat).real)
    # rows are contiguous, so their float pairs are too
    parts = part.view(np.float64)
    return float(np.einsum("ij,ij->", parts, parts))


def _collapse(halves: tuple[np.ndarray, np.ndarray], outcome: int,
              kept_norm2: float) -> None:
    """Zero the other half and rescale the kept one, whose squared norm
    is ``kept_norm2``."""
    kept, dropped = halves[outcome], halves[1 - outcome]
    dropped[...] = 0.0
    norm = math.sqrt(kept_norm2)
    if norm < 1e-150:
        raise ValueError("collapse onto a zero-probability outcome")
    kept *= 1.0 / norm      # a complex multiply is cheaper than a divide


def apply_gate(state: StateVector, kind: GateKind,
               params: tuple[float, ...],
               targets: tuple[int, ...]) -> StateVector:
    """Pure variant: returns a new state, leaving the input untouched."""
    out = state.copy()
    out.apply_gate_inplace(kind, params, targets)
    return out
