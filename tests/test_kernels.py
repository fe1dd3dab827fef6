"""Gate-class kernels and measurement against the independent oracle.

Every gate kind runs on every ordered tuple of distinct targets of a
random normalised 4- and 5-qubit state, and must agree with
``genutil.embed(genutil.reference_matrix(...))`` applied to the same
state. On a 16-qubit state, too large for the oracle, every kind must
agree with ``apply_matrix``. ``prob_one`` and ``collapse`` are checked
against plain index arithmetic over the flat amplitude vector.

Kernels run through plans cached per gate application: a plan from a
warm cache must give the bytes a freshly built one gives, serve any state
of its width, and leave validation to fail the same way on every call.
"""

import itertools
import math
import random

import numpy as np
import pytest

from qirtk import GateKind, StateVector, statevector

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
    # 16 qubits hold several of the kernels' blocks, and their targets
    # reach past the oracle's size; apply_matrix, checked against the
    # oracle below, is the reference here
    n = 16
    k = kind.num_qubits
    params = (0.9,) * kind.num_params
    for targets in [(0, 1, 2), (15, 14, 13), (3, 12, 7), (9, 0, 15)]:
        targets = targets[:k]
        state = _random_state(n, sum(targets))
        reference = state.copy()
        state.apply_gate_inplace(kind, params, targets)
        reference.apply_matrix(genutil.reference_matrix(kind, params),
                               targets)
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


@pytest.fixture
def plans(monkeypatch):
    """An empty plan cache for the test, and the old one back after it."""
    cache = {}
    monkeypatch.setattr(statevector, "_PLANS", cache)
    return cache


def _with_signed_zeros(state: StateVector) -> StateVector:
    # a product with a zero angle's matrix keeps or flips the sign of a
    # zero, so states with zeros of both signs tell 0.0 from -0.0
    state.amplitudes[1::5] = -0.0
    state.amplitudes[2::7] = complex(0.0, -0.0)
    return state


def _edge_angles(kind: GateKind) -> list[tuple[float, ...]]:
    if kind.num_params == 0:
        return [()]
    return [(0.0,), (-0.0,), (math.pi,), (-math.pi,), (float("nan"),),
            (0.7,)]


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("kind", list(GateKind))
def test_warm_plans_give_the_bytes_of_cold_ones(kind, n, plans):
    cases = [(targets, params) for targets in itertools.permutations(
        range(n), kind.num_qubits) for params in _edge_angles(kind)]
    start = _with_signed_zeros(_random_state(n, 7))
    cold = []
    for targets, params in cases:
        plans.clear()
        state = start.copy()
        state.apply_gate_inplace(kind, params, targets)
        cold.append(state.amplitudes.tobytes())
    # warm: every earlier key stays cached, so 0.0 is planned before -0.0
    for _ in range(2):
        for (targets, params), expected in zip(cases, cold):
            state = start.copy()
            state.apply_gate_inplace(kind, params, targets)
            assert state.amplitudes.tobytes() == expected, (targets, params)


@pytest.mark.parametrize("kind,params,targets", [
    (GateKind.H, (), (1,)), (GateKind.H, (), (5,)), (GateKind.X, (), (2,)),
    (GateKind.CNOT, (), (4, 0)), (GateKind.RZ, (0.4,), (3,)),
    (GateKind.CCX, (), (5, 1, 3)),
])
def test_one_plan_serves_two_states_alternately(kind, params, targets,
                                                plans):
    n = 6
    alone = []
    for seed in (1, 2):
        plans.clear()
        state = _random_state(n, seed)
        for _ in range(3):
            state.apply_gate_inplace(kind, params, targets)
        alone.append(state.amplitudes.tobytes())
    plans.clear()
    states = [_random_state(n, 1), _random_state(n, 2)]
    for _ in range(3):
        for state in states:
            state.apply_gate_inplace(kind, params, targets)
    assert len(plans) == 1
    assert [s.amplitudes.tobytes() for s in states] == alone


def test_the_width_is_part_of_the_plan_key(plans):
    for n in (4, 5, 4, 5):
        state = _random_state(n, n)
        expected = genutil.embed(genutil.reference_matrix(GateKind.H, ()),
                                 (0,), n) @ state.amplitudes
        state.apply_gate_inplace(GateKind.H, (), (0,))
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0,
                                   atol=ATOL)
    assert set(plans) == {(GateKind.H, (), (0,), 4),
                          (GateKind.H, (), (0,), 5)}


def _errors(call) -> list[str]:
    """The message of the ValueError ``call`` raises, on three calls."""
    messages = []
    for _ in range(3):
        with pytest.raises(ValueError) as err:
            call()
        messages.append(str(err.value))
    return messages


@pytest.mark.parametrize("kind", list(GateKind))
def test_bad_targets_raise_the_same_value_errors(kind, plans):
    state = StateVector(3)
    params = (0.5,) * kind.num_params
    good = tuple(range(kind.num_qubits))
    bad = {
        "qubit 3 out of range": (kind, params,
                                 (3, *range(kind.num_qubits - 1))),
        f"{kind.value} expects {kind.num_params} parameters, got "
        f"{kind.num_params + 1}": (kind, params + (0.5,), good),
    }
    if kind.num_qubits > 1:
        bad["duplicate target qubit"] = (kind, params,
                                         (0,) * kind.num_qubits)
    for message, args in bad.items():
        before = _errors(lambda: state.apply_gate_inplace(*args))
        # a valid call on a neighbouring key plans it, and must not let
        # the bad key through
        state.apply_gate_inplace(kind, params, good)
        after = _errors(lambda: state.apply_gate_inplace(*args))
        assert before == after == [message] * 3
    assert set(plans) == {(kind, params, good, 3)}


def test_a_missing_qubit_is_rejected_after_a_measured_one(plans):
    state = StateVector(2)
    state.measure(1, 0.5)
    assert _errors(lambda: state.measure(2, 0.5)) == [
        "qubit 2 out of range"] * 3


def test_a_repeated_gate_builds_its_plan_once(plans, monkeypatch):
    built = []
    build = statevector._build_plan

    def counted(*args):
        built.append(args)
        return build(*args)
    monkeypatch.setattr(statevector, "_build_plan", counted)
    state = StateVector(3)
    for _ in range(5):
        state.apply_gate_inplace(GateKind.H, (), (2,))
        state.apply_gate_inplace(GateKind.RX, (0.25,), (1,))
    assert len(built) == 2
    # a zero angle is never stored, so it is planned on every call
    for _ in range(3):
        state.apply_gate_inplace(GateKind.RX, (0.0,), (1,))
    assert len(built) == 5


def test_the_cache_stops_at_its_bound(plans):
    n = 4
    rng = random.Random(5)
    for i in range(statevector._MAX_PLANS + 50):
        theta = rng.uniform(-math.pi, math.pi)
        state = _random_state(n, i % 7)
        expected = genutil.embed(
            genutil.reference_matrix(GateKind.RX, (theta,)), (i % n,),
            n) @ state.amplitudes
        state.apply_gate_inplace(GateKind.RX, (theta,), (i % n,))
        np.testing.assert_allclose(state.amplitudes, expected, rtol=0,
                                   atol=ATOL)
    assert len(plans) == statevector._MAX_PLANS


def _qubit_cases(qubit) -> list:
    """What a measurement and an H on ``qubit`` of a 2-qubit state give:
    the outcome and amplitudes, or the exception's type and message."""
    out = []
    for call in (lambda s: s.measure(qubit, 0.5),
                 lambda s: s.apply_gate_inplace(GateKind.H, (), (qubit,))):
        state = _random_state(2, 3)
        try:
            out.append((call(state), state.amplitudes.tobytes()))
        except Exception as err:
            out.append((type(err), str(err)))
    return out


@pytest.mark.parametrize("qubit", [1.0, True, np.int64(1), 1.5, "1"],
                         ids=repr)
def test_a_target_acts_the_same_with_its_plan_cold_or_warm(qubit, plans):
    plans.clear()
    cold = _qubit_cases(qubit)
    # a plan is stored under int targets only
    assert {type(q) for key in plans
            for q in (key[2] if len(key) == 4 else key[:1])} <= {int}
    again = _qubit_cases(qubit)
    ints = _qubit_cases(1)
    warm = _qubit_cases(qubit)
    assert cold == again == warm
    if qubit == 1:
        assert cold == ints
    else:
        assert cold == [(ValueError, f"qubit {qubit!r} is not an integer")] * 2
