"""Gate-class kernels and measurement against the independent oracle.

Every gate kind runs on every ordered tuple of distinct targets of a
random normalised 4- and 5-qubit state, and must agree with
``genutil.embed(genutil.reference_matrix(...))`` applied to the same
state. On a 16-qubit state, too large for the oracle, every kind must
agree with ``apply_matrix``. ``prob_one`` and ``collapse`` are checked
against plain index arithmetic over the flat amplitude vector.
"""

import itertools
import math
import random

import numpy as np
import pytest

from qirtk import GateKind, StateVector
from qirtk.statevector import gate_matrix

import genutil

ATOL = 1e-12
WIDTHS = (4, 5)


def _random_state(n: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = StateVector(n)
    state.amplitudes = amplitudes / np.linalg.norm(amplitudes)
    return state


def _angles(kind: GateKind, rng: random.Random) -> list[tuple[float, ...]]:
    if kind.num_params == 0:
        return [()]
    # rz(0) has both phases exactly 1, so its kernel skips both
    return [(rng.uniform(-2 * math.pi, 2 * math.pi),), (0.0,)]


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("kind", list(GateKind))
def test_every_kind_on_every_target_tuple_matches_the_oracle(kind, n):
    rng = random.Random(f"{kind.value}/{n}")
    for seed, targets in enumerate(
            itertools.permutations(range(n), kind.num_qubits)):
        for params in _angles(kind, rng):
            state = _random_state(n, seed)
            expected = genutil.embed(
                genutil.reference_matrix(kind, params), targets,
                n) @ state.amplitudes
            state.apply_gate_inplace(kind, params, targets)
            assert state.amplitudes.shape == (1 << n,)
            np.testing.assert_allclose(state.amplitudes, expected,
                                       rtol=0, atol=ATOL,
                                       err_msg=f"{kind} on {targets}")


@pytest.mark.parametrize("kind", list(GateKind))
def test_kernels_match_apply_matrix_on_a_state_of_several_blocks(kind):
    # 16 qubits hold two blocks of the dense kernel's row products, and
    # their targets reach past the oracle's size; apply_matrix, checked
    # against the oracle below, is the reference here
    n = 16
    k = kind.num_qubits
    params = (0.9,) * kind.num_params
    for targets in [(0, 1, 2), (15, 14, 13), (3, 12, 7), (9, 0, 15)]:
        targets = targets[:k]
        state = _random_state(n, sum(targets))
        reference = state.copy()
        state.apply_gate_inplace(kind, params, targets)
        reference.apply_matrix(gate_matrix(kind, params), targets)
        np.testing.assert_allclose(state.amplitudes, reference.amplitudes,
                                   rtol=0, atol=ATOL,
                                   err_msg=f"{kind} on {targets}")


@pytest.mark.parametrize("kind", [GateKind.X, GateKind.CNOT, GateKind.SWAP,
                                  GateKind.CCX])
def test_permutations_move_amplitudes_exactly(kind):
    n = 5
    for targets in itertools.permutations(range(n), kind.num_qubits):
        state = _random_state(n, 3)
        before = state.amplitudes.copy()
        state.apply_gate_inplace(kind, (), targets)
        image = genutil.embed(genutil.reference_matrix(kind, ()),
                              targets, n).real.astype(int)
        assert np.array_equal(state.amplitudes, image @ before.real
                              + 1j * (image @ before.imag))


def test_apply_matrix_applies_an_arbitrary_unitary():
    n = 4
    rng = np.random.default_rng(11)
    for targets in itertools.permutations(range(n), 2):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        unitary, _ = np.linalg.qr(raw)
        state = _random_state(n, 5)
        expected = genutil.embed(unitary, targets, n) @ state.amplitudes
        state.apply_matrix(unitary, targets)
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0,
                                   atol=ATOL)


def _bit(n: int, qubit: int) -> np.ndarray:
    return (np.arange(1 << n) >> qubit) & 1


@pytest.mark.parametrize("n", WIDTHS)
def test_prob_one_matches_a_reference_sum(n):
    for qubit in range(n):
        state = _random_state(n, 100 + qubit)
        expected = float(np.sum(
            np.abs(state.amplitudes[_bit(n, qubit) == 1]) ** 2))
        assert state.prob_one(qubit) == pytest.approx(expected, abs=ATOL)


@pytest.mark.parametrize("n", WIDTHS)
def test_collapse_matches_a_reference_projection(n):
    for qubit, outcome in itertools.product(range(n), (0, 1)):
        state = _random_state(n, 200 + qubit)
        expected = np.where(_bit(n, qubit) == outcome, state.amplitudes, 0)
        expected /= np.linalg.norm(expected)
        state.collapse(qubit, outcome)
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0,
                                   atol=ATOL)


@pytest.mark.parametrize("n", WIDTHS)
def test_measure_agrees_with_prob_one_and_collapse(n):
    for qubit in range(n):
        state = _random_state(n, 300 + qubit)
        p_one = state.prob_one(qubit)
        for uniform in (p_one - 1e-9, p_one + 1e-9):
            sampled = _random_state(n, 300 + qubit)
            outcome = sampled.measure(qubit, uniform)
            assert outcome == (1 if uniform < p_one else 0)
            projected = _random_state(n, 300 + qubit)
            projected.collapse(qubit, outcome)
            np.testing.assert_array_equal(sampled.amplitudes,
                                          projected.amplitudes)


def test_measurement_of_a_missing_qubit_is_rejected():
    state = StateVector(2)
    for qubit in (2, -1):
        with pytest.raises(ValueError, match="out of range"):
            state.prob_one(qubit)
        with pytest.raises(ValueError, match="out of range"):
            state.collapse(qubit, 0)
        with pytest.raises(ValueError, match="out of range"):
            state.measure(qubit, 0.5)


def test_collapse_onto_a_zero_half_is_rejected_on_any_qubit():
    for qubit in range(4):
        state = StateVector(4)
        with pytest.raises(ValueError, match="zero-probability"):
            state.collapse(qubit, 1)


@pytest.mark.parametrize("kind", list(GateKind))
def test_bad_targets_raise_the_same_value_errors(kind):
    state = StateVector(3)
    params = (0.5,) * kind.num_params
    with pytest.raises(ValueError, match="out of range"):
        state.apply_gate_inplace(kind, params,
                                 (3, *range(kind.num_qubits - 1)))
    if kind.num_qubits > 1:
        with pytest.raises(ValueError, match="duplicate target qubit"):
            state.apply_gate_inplace(kind, params,
                                     (0,) * kind.num_qubits)
