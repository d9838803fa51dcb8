from dataclasses import replace

import numpy as np
import pytest

from spinchain import (
    CircuitSeries,
    FieldProfile,
    HeisenbergModel,
    NoiseParams,
    Program,
    RunConfig,
    SimulationError,
    SimulationPlan,
    StateVector,
    apply_gate,
    expectation_z,
    gate_matrix,
    generate_circuits,
    init_state,
    magnetization_from_counts,
    make_gate,
    program_unitary,
    run_noisy,
    run_statevector,
    sample_counts,
    simulate_series,
)
from spinchain import simulator
from spinchain.workflow import build_plan, prepare_circuits
from helpers import dense_gate_oracle, random_gate, random_program, unitary_equivalent


def test_init_state_bit_ordering():
    state = init_state(3, ["down", "up", "up"])
    # qubit 0 is the most significant bit -> index 0b100
    assert state.amplitudes[4] == 1.0
    assert np.sum(np.abs(state.amplitudes)) == 1.0
    assert init_state(2).amplitudes[0] == 1.0


def test_init_state_rejects_bad_input():
    with pytest.raises(SimulationError):
        init_state(2, ["up"])
    with pytest.raises(SimulationError):
        init_state(2, ["up", "sideways"])
    with pytest.raises(SimulationError):
        init_state(0)


def test_statevector_normalization_guard():
    with pytest.raises(SimulationError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(SimulationError):
        StateVector(2, np.array([1.0, 0.0]))


def test_apply_gate_matches_enumeration_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        state = init_state(n)
        # random preamble so the state is generic
        for _ in range(4):
            state = apply_gate(state, random_gate(rng, n))
        gate = random_gate(rng, n)
        dense = dense_gate_oracle(gate_matrix(gate), gate.qubits, n)
        expected = dense @ state.amplitudes
        got = apply_gate(state, gate).amplitudes
        assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_run_statevector_matches_dense_oracle_product(n):
    # independent of the kernel that program_unitary shares with run_statevector
    rng = np.random.default_rng(300 + n)
    for _ in range(4):
        program = random_program(rng, n, 30)
        expected = init_state(n).amplitudes
        for g in program.gates:
            expected = dense_gate_oracle(gate_matrix(g), g.qubits, n) @ expected
        assert np.max(np.abs(run_statevector(program).amplitudes - expected)) <= 1e-12


def test_apply_gate_reversed_two_qubit_order():
    # CNOT with control on the higher-index qubit
    state = init_state(2, ["up", "down"])  # |01>
    flipped = apply_gate(state, make_gate("cnot", [1, 0]))
    assert np.isclose(abs(flipped.amplitudes[0b11]), 1.0)


def test_apply_gate_range_check():
    with pytest.raises(SimulationError):
        apply_gate(init_state(1), make_gate("x", [1]))


@pytest.mark.parametrize("n", range(1, 11))
def test_z_expectations_match_bit_sign_oracle(n):
    rng = np.random.default_rng(60 + n)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    probs = np.abs(amps / np.linalg.norm(amps)) ** 2
    # each basis index weighted by the sign of the qubit's bit
    signs = 1 - 2 * ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    expected = probs @ signs
    values = simulator._z_expectations(probs.copy())
    assert len(values) == n
    assert np.max(np.abs(np.array(values) - expected)) <= 1e-14


def test_expectation_z_against_enumeration():
    rng = np.random.default_rng(33)
    prog = random_program(rng, 3, 12)
    state = run_statevector(prog)
    probs = np.abs(state.amplitudes) ** 2
    for q in range(3):
        expected = sum(
            p * (1.0 if not (i >> (2 - q)) & 1 else -1.0) for i, p in enumerate(probs)
        )
        assert np.isclose(expectation_z(state, q), expected, atol=1e-12)
    with pytest.raises(SimulationError):
        expectation_z(state, 3)


def test_sample_counts_deterministic_and_complete():
    state = apply_gate(init_state(2), make_gate("h", [0]))
    counts = sample_counts(state, 4096, seed=9)
    again = sample_counts(state, 4096, seed=9)
    assert counts == again
    assert sum(counts.values()) == 4096
    assert set(counts) <= {"00", "10"}
    # H|0> splits evenly; 4096 shots puts both well inside 5 sigma of half
    assert abs(counts["00"] - 2048) < 320
    with pytest.raises(SimulationError):
        sample_counts(state, 0, seed=1)


def test_magnetization_from_counts():
    counts = {"00": 3, "10": 1}
    assert magnetization_from_counts(counts, 0) == pytest.approx(0.5)
    assert magnetization_from_counts(counts, 1) == pytest.approx(1.0)


@pytest.mark.parametrize("qubit", [-1, 2, 5])
def test_magnetization_from_counts_rejects_qubit_outside_register(qubit):
    with pytest.raises(SimulationError, match=f"qubit {qubit} out of range for 2 qubits"):
        magnetization_from_counts({"01": 3, "11": 1}, qubit)


def test_run_noisy_zero_noise_matches_plain_sampling():
    rng = np.random.default_rng(40)
    prog = random_program(rng, 3, 10)
    plain = sample_counts(run_statevector(prog), 500, seed=7)
    noisy = run_noisy(prog, None, 500, NoiseParams(p1=0.0, p2=0.0), seed=7)
    assert plain == noisy


def test_run_noisy_is_seeded_and_conserves_shots():
    prog = Program(
        2,
        tuple(
            make_gate("h", [0]) if i % 3 == 0 else make_gate("cnot", [0, 1])
            for i in range(9)
        ),
    )
    noise = NoiseParams(p1=0.05, p2=0.1)
    a = run_noisy(prog, None, 400, noise, seed=5)
    b = run_noisy(prog, None, 400, noise, seed=5)
    c = run_noisy(prog, None, 400, noise, seed=6)
    assert a == b
    assert sum(a.values()) == 400
    assert a != c


def test_noise_perturbs_an_ideal_identity_circuit():
    # X twice is the identity; with noise the |00> count must drop
    gates = tuple(make_gate("x", [0]) for _ in range(20))
    prog = Program(2, gates)
    ideal = run_noisy(prog, None, 300, NoiseParams(p1=0.0, p2=0.0), seed=3)
    assert ideal == {"00": 300}
    noisy = run_noisy(prog, None, 300, NoiseParams(p1=0.2, p2=0.2), seed=3)
    assert noisy.get("00", 0) < 300


def test_noise_params_validation():
    with pytest.raises(SimulationError):
        NoiseParams(p1=-0.1, p2=0.0)
    with pytest.raises(SimulationError):
        NoiseParams(p1=0.0, p2=1.5)


def _tiny_series():
    model = HeisenbergModel(
        jx=0, jy=0, jz=1.0, field=FieldProfile(amplitude=1.0), field_axis="x"
    )
    plan = SimulationPlan(num_qubits=2, initial_spins=["up", "down"], delta_t=0.1, steps=4)
    return generate_circuits(model, plan), plan


def test_simulate_series_incremental_matches_per_program():
    circuits, plan = _tiny_series()
    series = simulate_series(circuits, plan)
    assert series.times == tuple(pytest.approx(0.1 * k) for k in range(5))
    for index, program in enumerate(circuits):
        state = run_statevector(program)
        for q in range(2):
            assert series.values[q][index] == expectation_z(state, q)


@pytest.mark.parametrize("target", ["ibm", "rigetti"])
def test_compiled_series_matches_source_per_prefix(target):
    config = RunConfig(
        jz=1.0, h_ext=2.0, num_qubits=3, initial_spins=("up", "down", "up"),
        delta_t=0.1, steps=4, backend=target, compile_mode="domain_specific",
    )
    source, _ = prepare_circuits(replace(config, backend="internal", compile_mode="none"))
    compiled, reports = prepare_circuits(config)
    assert len(compiled) == len(source) == len(reports) == 5
    for k in range(len(source)):
        assert unitary_equivalent(
            program_unitary(source[k]), program_unitary(compiled[k]), tol=1e-8
        )
    plan = build_plan(config)
    series = simulate_series(compiled, plan)
    for index, program in enumerate(compiled):
        state = run_statevector(program)
        for q in range(3):
            assert series.values[q][index] == expectation_z(state, q)


def test_simulate_series_sampled_is_deterministic():
    circuits, plan = _tiny_series()
    plan_s = SimulationPlan(
        num_qubits=2, initial_spins=["up", "down"], delta_t=0.1, steps=4, shots=200, seed=12
    )
    a = simulate_series(circuits, plan_s)
    b = simulate_series(circuits, plan_s)
    assert a.values == b.values
    assert all(-1.0 <= v <= 1.0 for row in a.values for v in row)


def test_simulate_series_noisy_mode_runs():
    circuits, plan = _tiny_series()
    plan_n = SimulationPlan(
        num_qubits=2,
        initial_spins=["up", "down"],
        delta_t=0.1,
        steps=4,
        shots=100,
        noise=NoiseParams(),
        seed=2,
    )
    series = simulate_series(circuits, plan_n)
    assert len(series.times) == 5
    assert series.num_qubits == 2


@pytest.mark.parametrize("noise", [None, NoiseParams(p1=0.0, p2=0.05)])
def test_sampled_streams_do_not_overlap_between_seeds(noise):
    # every circuit prepares the same state, so equal streams give equal draws;
    # seed s, circuit k+1 and seed s+1, circuit k once shared their stream
    hadamards = Program(2, (make_gate("h", [0]), make_gate("h", [1])))
    series = CircuitSeries((hadamards, Program(2)), (0, 1, 1, 1, 1))

    def rows(seed):
        plan = SimulationPlan(
            num_qubits=2, initial_spins=None, steps=4, shots=200, noise=noise, seed=seed
        )
        return simulate_series(series, plan).values

    first, second = rows(12), rows(13)
    shifted = [(a[k + 1], b[k]) for a, b in zip(first, second) for k in range(4)]
    assert any(x != y for x, y in shifted)
    # nor do the circuits of one run share a stream
    assert any(len(set(row)) > 1 for row in first)
