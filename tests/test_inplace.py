"""Gate kernels run in place, a tile at a time.

Every kernel works on the state's own array, over tiles of at most
``statevector._KRON_BLOCK`` amplitudes, and must give the bytes the
whole-state expressions it replaced give (``genutil.whole_state_kernel``).
With the block patched small, a 7-qubit state spans many tiles, so every
kind runs on every target tuple with columns, rows and slices cut, and
unpatched, on the same state as one tile, where x and a 2x2 product
write a new array; unpatched too, each kind runs with every qubit as a
target at 17 and 18 qubits. A traced run then shows that no gate,
measurement or collapse allocates more than a few blocks beside the
state.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qirtk import GateKind, StateVector, statevector

import genutil

# the smallest block at which the lift still multiplies two rows of 32
# at a time: one row at a time is a product of another shape (a matrix
# times a vector), whose bytes differ
SMALL_BLOCK = 64


@pytest.fixture
def plans(monkeypatch):
    """An empty plan cache, so plans are built with the block the test
    sets, and the old cache back after it."""
    cache = {}
    monkeypatch.setattr(statevector, "_PLANS", cache)
    return cache


def _state(n: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amplitudes /= np.linalg.norm(amplitudes)
    # zeros of both signs tell a product that keeps a sign from one
    # that flips it
    amplitudes[1::5] = -0.0
    amplitudes[2::7] = complex(0.0, -0.0)
    state = StateVector(n)
    state.amplitudes = amplitudes
    return state


def _params(kind: GateKind) -> list[tuple[float, ...]]:
    if kind.num_params == 0:
        return [()]
    return [(0.7,), (-2.9,), (0.0,), (-0.0,), (math.pi,)]


def _check(kind: GateKind, targets: tuple[int, ...], n: int,
           seed: int) -> None:
    for params in _params(kind):
        state = _state(n, seed)
        expected = genutil.whole_state_kernel(kind, params, targets,
                                              state.amplitudes.copy())
        before = state.amplitudes
        state.apply_gate_inplace(kind, params, targets)
        if 1 << n > statevector._KRON_BLOCK:
            # only a state of one tile may be written to a new array
            assert state.amplitudes is before, "the kernel replaced it"
        assert state.amplitudes.tobytes() == expected.tobytes(), (
            kind, params, targets)


@pytest.mark.parametrize("block", [SMALL_BLOCK, 4 * SMALL_BLOCK, None])
@pytest.mark.parametrize("kind", list(GateKind))
def test_every_target_tuple_gives_the_whole_state_bytes(kind, block, plans,
                                                        monkeypatch):
    # unpatched, the state is one tile
    if block is not None:
        monkeypatch.setattr(statevector, "_KRON_BLOCK", block)
    n = 7
    for seed, targets in enumerate(
            itertools.permutations(range(n), kind.num_qubits)):
        _check(kind, targets, n, seed)


@pytest.mark.parametrize("n", [17, 18])
@pytest.mark.parametrize("kind", list(GateKind))
def test_every_qubit_as_a_target_gives_the_whole_state_bytes(kind, n):
    # every qubit takes each operand's place once, with its neighbours
    # on the other operands
    for q in range(n):
        targets = tuple((q + j * (n // 3 + 1)) % n
                        for j in range(kind.num_qubits))
        _check(kind, targets, n, q)


# a block of 16 KiB, small beside the 1 MiB state. Beside the state a
# call may hold a tile or two, numpy's ufunc buffers (two of
# np.getbufsize() elements: 256 KiB at numpy's default, so the test cuts
# them to a block, as they are a fixed cost at every width) and the
# lift's matrix with its factors (34 KiB at most); six blocks in all.
# Half a state, or a quarter or an eighth of one, is more than that
TRACED_BLOCK = 1 << 10
ALLOWANCE = 6 * TRACED_BLOCK * 16


@pytest.fixture
def small_buffers():
    old = np.setbufsize(TRACED_BLOCK)
    yield
    np.setbufsize(old)


def _peak(state: StateVector, call) -> int:
    """The bytes traced at the peak of ``call``, the state's among them."""
    tracemalloc.start()
    try:
        state.amplitudes = state.amplitudes.copy()   # traced from here on
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _targets(kind: GateKind, n: int) -> list[tuple[int, ...]]:
    # the lowest and highest qubits, one in the lift's run and one just
    # above it, in both orders
    picks = [(0, n - 1, 4), (n - 1, 0, 5), (4, 5, n - 2), (n - 2, n // 2, 0)]
    return [p[:kind.num_qubits] for p in picks]


@pytest.mark.parametrize("kind", list(GateKind))
def test_no_gate_holds_more_than_a_few_blocks(kind, plans, monkeypatch,
                                              small_buffers):
    monkeypatch.setattr(statevector, "_KRON_BLOCK", TRACED_BLOCK)
    n = 16
    state = _state(n, 1)
    params = (0.7,) * kind.num_params
    for targets in _targets(kind, n):
        peak = _peak(state, lambda: state.apply_gate_inplace(
            kind, params, targets))
        assert peak < state.amplitudes.nbytes + ALLOWANCE, (
            targets, peak - state.amplitudes.nbytes)


def test_no_measurement_holds_more_than_a_few_blocks(plans, monkeypatch,
                                                     small_buffers):
    monkeypatch.setattr(statevector, "_KRON_BLOCK", TRACED_BLOCK)
    n = 16
    calls = {"measure": lambda state, qubit: state.measure(qubit, 0.5),
             "collapse": lambda state, qubit: state.collapse(qubit, 1),
             "prob_one": lambda state, qubit: state.prob_one(qubit)}
    for qubit, (name, call) in itertools.product(range(n), calls.items()):
        state = _state(n, qubit)
        peak = _peak(state, lambda: call(state, qubit))
        assert peak < state.amplitudes.nbytes + ALLOWANCE, (
            name, qubit, peak - state.amplitudes.nbytes)
