"""Statevector backend against the dense reference simulator."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qirtk import GateKind, StateVector
from qirtk.statevector import apply_gate

import genutil


def _random_params(kind, rng):
    return tuple(rng.uniform(-2 * math.pi, 2 * math.pi)
                 for _ in range(kind.num_params))


def _kernel_matrix(kind, params):
    """The matrix a gate's kernel applies: column j is the kernel's image
    of basis state j of a state over just the gate's operands."""
    k = kind.num_qubits
    columns = []
    for j in range(1 << k):
        state = StateVector(k)
        state.amplitudes = np.eye(1 << k, dtype=complex)[j]
        state.apply_gate_inplace(kind, params, tuple(range(k)))
        columns.append(state.amplitudes)
    return np.column_stack(columns)


@pytest.mark.parametrize("kind", list(GateKind))
def test_every_gate_matches_the_reference_matrix(kind):
    rng = random.Random(hash(kind.value) & 0xFFFF)
    params = _random_params(kind, rng)
    assert np.allclose(_kernel_matrix(kind, params),
                       genutil.reference_matrix(kind, params),
                       atol=1e-12, rtol=0.0)


@pytest.mark.parametrize("kind", list(GateKind))
def test_every_gate_matrix_is_unitary(kind):
    params = _random_params(kind, random.Random(99))
    matrix = _kernel_matrix(kind, params)
    eye = np.eye(matrix.shape[0])
    assert np.allclose(matrix @ matrix.conj().T, eye, atol=1e-12)


@pytest.mark.parametrize("kind", list(GateKind))
def test_embedded_application_matches_reference(kind):
    rng = random.Random(7 + kind.num_qubits)
    n = kind.num_qubits + 1
    state = StateVector(n)
    ref = np.zeros(1 << n, dtype=complex)
    ref[0] = 1.0
    # entangle-free but non-trivial prefix so phases matter
    for q in range(n):
        angle = rng.uniform(0.1, 3.0)
        for prep, prep_params in ((GateKind.RY, (angle,)),
                                  (GateKind.T, ())):
            state.apply_gate_inplace(prep, prep_params, (q,))
            ref = genutil.embed(
                genutil.reference_matrix(prep, prep_params), (q,), n) @ ref
    params = _random_params(kind, rng)
    targets = tuple(rng.sample(range(n), kind.num_qubits))
    state.apply_gate_inplace(kind, params, targets)
    ref = genutil.embed(genutil.reference_matrix(kind, params),
                        targets, n) @ ref
    assert np.allclose(state.amplitudes, ref, atol=1e-10, rtol=0.0)


def test_qubit_zero_is_the_least_significant_index_bit():
    state = StateVector(2)
    state.apply_gate_inplace(GateKind.X, (), (0,))
    assert np.allclose(state.amplitudes, [0, 1, 0, 0])
    state = StateVector(2)
    state.apply_gate_inplace(GateKind.X, (), (1,))
    assert np.allclose(state.amplitudes, [0, 0, 1, 0])


def test_first_operand_of_cnot_is_the_control():
    state = StateVector(2)
    state.apply_gate_inplace(GateKind.X, (), (0,))
    state.apply_gate_inplace(GateKind.CNOT, (), (0, 1))
    assert np.allclose(state.amplitudes, [0, 0, 0, 1])
    state = StateVector(2)
    state.apply_gate_inplace(GateKind.X, (), (1,))
    state.apply_gate_inplace(GateKind.CNOT, (), (0, 1))
    assert np.allclose(state.amplitudes, [0, 0, 1, 0])


def test_rz_phase_sign_convention():
    theta = 0.7
    state = StateVector(1)
    state.apply_gate_inplace(GateKind.RZ, (theta,), (0,))
    assert state.amplitudes[0] == pytest.approx(
        complex(math.cos(theta / 2), -math.sin(theta / 2)))


def test_hadamard_prepares_the_plus_state():
    state = StateVector(1)
    state.apply_gate_inplace(GateKind.H, (), (0,))
    s2 = 1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, [s2, s2])


def test_measure_outcome_follows_the_uniform_draw():
    for draw, expected in ((0.49, 1), (0.51, 0)):
        state = StateVector(1)
        state.apply_gate_inplace(GateKind.H, (), (0,))
        outcome = state.measure(0, draw)
        assert outcome == expected
        assert state.norm() == pytest.approx(1.0)
        assert abs(state.amplitudes[expected]) == pytest.approx(1.0)


def test_measure_on_a_basis_state_is_deterministic():
    state = StateVector(1)
    assert state.measure(0, 0.999999) == 0
    state.apply_gate_inplace(GateKind.X, (), (0,))
    assert state.measure(0, 0.0) == 1


def test_collapse_onto_impossible_outcome_is_rejected():
    state = StateVector(1)
    with pytest.raises(ValueError):
        state.collapse(0, 1)


def test_grow_appends_a_zero_qubit():
    state = StateVector(1)
    state.apply_gate_inplace(GateKind.H, (), (0,))
    before = state.amplitudes.copy()
    index = state.grow()
    assert index == 1
    assert state.num_qubits == 2
    assert np.allclose(state.amplitudes[:2], before)
    assert np.allclose(state.amplitudes[2:], 0)
    assert state.prob_one(1) == pytest.approx(0.0)


def test_operand_errors():
    state = StateVector(2)
    with pytest.raises(ValueError):
        state.apply_gate_inplace(GateKind.CNOT, (), (0, 0))
    with pytest.raises(ValueError):
        state.apply_gate_inplace(GateKind.H, (), (2,))
    with pytest.raises(ValueError):
        state.apply_matrix(np.eye(4, dtype=complex), (0,))
    with pytest.raises(ValueError):
        state.apply_gate_inplace(GateKind.RZ, (), (0,))


def test_pure_apply_leaves_the_input_alone():
    state = StateVector(1)
    out = apply_gate(state, GateKind.X, (), (0,))
    assert state.amplitudes[0] == 1.0
    assert abs(out.amplitudes[1]) == 1.0


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_gate_sequences_preserve_the_norm(seed):
    rng = random.Random(seed)
    circuit = genutil.random_circuit(rng, max_qubits=4, max_gates=12,
                                     measured="none")
    state = StateVector(circuit.num_qubits)
    for op in circuit.ops:
        state.apply_gate_inplace(op.kind, op.params, op.qubits)
    assert state.norm() == pytest.approx(1.0, abs=1e-9)


_INVERSE_PAIRS = [
    (GateKind.H, GateKind.H),
    (GateKind.X, GateKind.X),
    (GateKind.S, GateKind.SDG),
    (GateKind.T, GateKind.TDG),
    (GateKind.CNOT, GateKind.CNOT),
    (GateKind.SWAP, GateKind.SWAP),
]


@pytest.mark.parametrize("kind,inverse", _INVERSE_PAIRS)
def test_gate_followed_by_its_inverse_is_identity(kind, inverse):
    n = kind.num_qubits
    state = StateVector(n + 1)
    rng = random.Random(5)
    for q in range(n + 1):
        state.apply_gate_inplace(GateKind.RY, (rng.uniform(0, 3),), (q,))
    before = state.amplitudes.copy()
    targets = tuple(range(n))
    state.apply_gate_inplace(kind, (), targets)
    state.apply_gate_inplace(inverse, (), targets)
    assert np.allclose(state.amplitudes, before, atol=1e-12)


@given(st.floats(min_value=-6.0, max_value=6.0,
                 allow_nan=False, allow_infinity=False))
def test_rotations_invert_with_negated_angles(theta):
    state = StateVector(1)
    state.apply_gate_inplace(GateKind.H, (), (0,))
    before = state.amplitudes.copy()
    for kind in (GateKind.RX, GateKind.RY, GateKind.RZ):
        state.apply_gate_inplace(kind, (theta,), (0,))
        state.apply_gate_inplace(kind, (-theta,), (0,))
    assert np.allclose(state.amplitudes, before, atol=1e-12)
