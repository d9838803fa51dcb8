import math
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
    make_gate,
    program_unitary,
    run_noisy,
    run_statevector,
    sample_counts,
    simulate_series,
)
from spinchain import simulator
from spinchain.circuits import evolve, fuse
from spinchain.workflow import build_plan, prepare_circuits
from helpers import (
    counts_dict_oracle,
    cut_at,
    dense_gate_oracle,
    magnetization_from_counts_oracle,
    noisy_trajectory_oracle,
    pauli_channel_reference,
    random_gate,
    random_program,
    segment,
    step_ends,
    unitary_equivalent,
)


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
    (values,), (total,) = simulator._z_expectations(probs[None].copy())
    assert len(values) == n
    assert np.max(np.abs(values - expected)) <= 1e-14
    assert abs(total - 1.0) <= 1e-14


def _z_expectations_per_row(weights, total=1.0):
    # the reference: the halving pass on one 1-D row alone
    values = []
    while len(weights) > 1:
        low, high = weights.reshape(2, -1)
        values.append((total - 2 * high.sum().item()) / total)
        weights = np.add(low, high, out=low)
    return values, weights[0].item()


@pytest.mark.parametrize("n", range(1, 11))
def test_batched_z_expectations_equal_the_per_row_pass(n):
    rng = np.random.default_rng(120 + n)
    batch = max(1, simulator._BATCH_ENTRIES >> n)
    for rows in (1, 7, batch + 3):
        amps = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
        probs = np.abs(amps / np.linalg.norm(amps, axis=1, keepdims=True)) ** 2
        counts = np.array([rng.multinomial(1000, p) for p in probs])
        for weights, total in ((probs, 1.0), (counts, 1000)):
            expected = [_z_expectations_per_row(row.copy(), total) for row in weights]
            values, totals = simulator._z_expectations(weights.copy(), total)
            assert values.tolist() == [v for v, _ in expected]
            assert totals.tolist() == [t for _, t in expected]


def test_series_refuses_a_snapshot_off_the_unit_norm(monkeypatch):
    series, plan = _tiny_series()

    def drifting(amps, block_lists):
        for k, state in enumerate(evolve(amps, block_lists)):
            yield state * math.sqrt(1 + 1e-9) if k == 2 else state

    monkeypatch.setattr(simulator, "evolve", drifting)
    with pytest.raises(SimulationError, match="mark 2: state not normalized"):
        simulate_series(series, plan)


def test_exact_series_peak_memory_stays_below_four_states():
    import tracemalloc

    # n = 14, 256 KiB a state: the state, its spare, a row of probabilities
    # and the run's gate matrices come to about 2.7 states; a kernel buffer,
    # or a copy of the state at a step, would each add one
    model = HeisenbergModel(jx=1.0, jy=0.8, jz=0.5, field=FieldProfile(amplitude=1.0))
    spins = ["down" if q % 3 == 1 else "up" for q in range(14)]
    plan = SimulationPlan(num_qubits=14, initial_spins=spins, delta_t=0.05, steps=4)
    series = generate_circuits(model, plan)
    tracemalloc.start()
    try:
        simulate_series(series, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * (16 << 14)


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
    assert np.array_equal(counts, again)
    assert counts.shape == (4,) and counts.sum() == 4096
    assert set(np.flatnonzero(counts)) <= {0b00, 0b10}
    # H|0> splits evenly; 4096 shots puts both well inside 5 sigma of half
    assert abs(counts[0b00] - 2048) < 320
    with pytest.raises(SimulationError):
        sample_counts(state, 0, seed=1)


def test_magnetization_from_counts():
    # the counts {"00": 3, "10": 1}, indexed by basis state
    counts = np.array([[3, 0, 1, 0]])
    values, totals = simulator._z_expectations(counts, 4)
    assert values.tolist() == [[0.5, 1.0]] and totals.tolist() == [4]


@pytest.mark.parametrize("qubit", [-1, 2, 5])
def test_expectation_z_rejects_qubit_outside_register(qubit):
    with pytest.raises(SimulationError, match=f"qubit {qubit} out of range for 2 qubits"):
        expectation_z(init_state(2, ["up", "down"]), qubit)


@pytest.mark.parametrize("n", range(1, 11))
def test_sampled_values_equal_the_bitstring_count_oracle(n):
    rng = np.random.default_rng(80 + n)
    for shots in (1, 2, 4096):
        for seed in range(3):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            state = StateVector(n, amps / np.linalg.norm(amps))
            counts = sample_counts(state, shots, seed)
            oracle = counts_dict_oracle(state, shots, seed)
            assert {format(i, f"0{n}b"): c for i, c in enumerate(counts) if c} == oracle
            expected = [magnetization_from_counts_oracle(oracle, q) for q in range(n)]
            assert simulator._z_expectations(counts[None], shots)[0][0].tolist() == expected


def test_zero_noise_series_matches_plain_sampling():
    circuits, _ = _tiny_series()
    sampled = SimulationPlan(
        num_qubits=2, initial_spins=["up", "down"], delta_t=0.1, steps=4, shots=500, seed=7
    )
    noiseless = replace(sampled, noise=NoiseParams(p1=0.0, p2=0.0))
    assert simulate_series(circuits, noiseless) == simulate_series(circuits, sampled)


def _two_qubit_program():
    return Program(
        2,
        tuple(
            make_gate("h", [0]) if i % 3 == 0 else make_gate("cnot", [0, 1])
            for i in range(9)
        ),
    )


def test_run_noisy_is_seeded_and_conserves_shots():
    prog = _two_qubit_program()
    noise = NoiseParams(p1=0.05, p2=0.1)
    marks = [0, 4, 9]
    a = run_noisy(cut_at(prog, marks), 400, noise, seed=5)
    b = run_noisy(cut_at(prog, marks), 400, noise, seed=5)
    c = run_noisy(cut_at(prog, marks), 400, noise, seed=6)
    assert np.array_equal(a, b)
    assert a.shape == (3, 4)
    assert list(a.sum(axis=1)) == [400, 400, 400]
    assert a[0, 0] == 400  # no gate yet, so no noise
    assert not np.array_equal(a, c)


def test_noise_perturbs_an_ideal_identity_circuit():
    # X twice is the identity; with noise the |00> count must drop
    gates = tuple(make_gate("x", [0]) for _ in range(20))
    prog = Program(2, gates)
    marks = [0, 10, 20]
    ideal = run_noisy(cut_at(prog, marks), 300, NoiseParams(p1=0.0, p2=0.0), seed=3)
    assert list(ideal[:, 0b00]) == [300, 300, 300]
    noisy = run_noisy(cut_at(prog, marks), 300, NoiseParams(p1=0.2, p2=0.2), seed=3)
    assert noisy[0, 0b00] == 300
    assert noisy[1, 0b00] < 300 and noisy[2, 0b00] < 300


def test_run_noisy_edge_cases():
    noise = NoiseParams(p1=0.3, p2=0.3)
    # no gates: every circuit reads |0...0>
    empty = run_noisy(cut_at(Program(3), [0, 0]), 50, noise, seed=1)
    assert empty.shape == (2, 8) and list(empty[:, 0]) == [50, 50]
    # one qubit: X flips it, the noise only sometimes
    flip = Program(1, (make_gate("x", [0]),))
    one = run_noisy(cut_at(flip, [0, 1]), 200, noise, seed=2)
    assert list(one[0]) == [200, 0]
    assert 0 < one[1, 0] < 200 and one[1].sum() == 200
    # repeated marks (empty steps), each measured with its own draw
    prog = _two_qubit_program()
    repeated = run_noisy(cut_at(prog, [4, 4, 9, 9, 9]), 300, noise, seed=3)
    assert list(repeated.sum(axis=1)) == [300] * 5
    assert not np.array_equal(repeated[2], repeated[3])
    with pytest.raises(SimulationError):
        run_noisy(cut_at(prog, [9]), 0, noise, seed=3)


def _count_fused(monkeypatch):
    # every gate list fused, one entry per list: the hit-free segments as
    # CircuitSeries groups them, and the hit ones through the simulator's fuse,
    # which is fuse_group of one list
    from spinchain import circuits

    fused, original = [], circuits.fuse_group

    def counted(lists, *args):
        fused.extend(map(tuple, lists))
        return original(lists, *args)

    monkeypatch.setattr(circuits, "fuse_group", counted)
    return fused


def test_noisy_run_fuses_each_hit_free_interval_once(monkeypatch):
    # single-qubit gates draw no noise at p1 = 0, so the steps of X gates are
    # never hit, and those of CNOTs are hit in most shots
    xs = Program(3, tuple(make_gate("x", [q]) for q in range(3)))
    cnots = Program(3, (make_gate("cnot", [0, 1]), make_gate("cnot", [1, 2])))
    noise = NoiseParams(p1=0.0, p2=0.5)
    fused = _count_fused(monkeypatch)
    for shots in (20, 100):
        fused.clear()
        series = CircuitSeries((xs, cnots), (0, 1, 0, 1, 0))  # one X segment object, three times
        run_noisy(series, shots, noise, seed=2)
        # each distinct segment once before the shots; per shot only those with a Pauli
        assert fused[:2] == [xs.gates, cnots.gates]
        assert fused.count(xs.gates) == 1
        assert all(len(gates) > 2 for gates in fused[2:])  # CNOTs and Paulis
        assert 2 < len(fused) <= 2 + 2 * shots


def test_noisy_run_fuses_a_long_constant_field_series_once_per_segment(monkeypatch):
    config = replace(NOISY_CHAIN, num_qubits=6, initial_spins=None, delta_t=0.05, steps=160)
    fused = _count_fused(monkeypatch)
    series, _ = prepare_circuits(config)
    counts = run_noisy(series, 4, NoiseParams(p1=1e-9, p2=1e-9), seed=1)
    assert len(fused) == len(series.segments) == 2
    assert counts.shape == (161, 64) and list(counts.sum(axis=1)) == [4] * 161


@pytest.mark.parametrize("noise", [NoiseParams(p1=0.1, p2=0.3), NoiseParams(p1=0.3, p2=0.0)])
def test_run_noisy_equals_a_dense_replay_of_its_draws(noise):
    # exact counts: a Pauli spliced before its gate, on the wrong qubit or at
    # the wrong mark changes some shot's outcome
    config = replace(NOISY_CHAIN, num_qubits=3, initial_spins=("up", "down", "up"), steps=2)
    circuits, _ = prepare_circuits(config)
    marks = sorted([*step_ends(circuits), step_ends(circuits)[1]])
    counts = run_noisy(cut_at(circuits[-1], marks), 300, noise, seed=8)
    oracle = noisy_trajectory_oracle(circuits[-1], marks, 300, noise.p1, noise.p2, seed=8)
    assert np.array_equal(counts, oracle)


def test_noisy_series_with_no_steps_reads_the_prepared_state():
    config = RunConfig(
        jx=1.0, num_qubits=3, initial_spins=("up", "down", "down"), steps=0,
        shots=100, noise_choice=True,
    )
    circuits, _ = prepare_circuits(config)
    plan = replace(build_plan(config), noise=NoiseParams(p1=0.0, p2=0.0))
    assert simulate_series(circuits, plan).values == ((1.0,), (-1.0,), (-1.0,))
    noisy = simulate_series(circuits, replace(plan, noise=NoiseParams(p1=0.5, p2=0.5)))
    assert noisy.times == (0.0,)
    assert noisy.values[0] == (1.0,)  # no gate touches qubit 0
    assert noisy.values[1][0] > -1.0 and noisy.values[2][0] > -1.0


NOISY_CHAIN = RunConfig(
    jx=1.0, jy=0.6, jz=0.2, h_ext=0.5, num_qubits=4,
    initial_spins=("up", "up", "down", "down"), delta_t=0.5, steps=3,
    shots=4000, noise_choice=True, seed=4,
)


def test_noisy_series_matches_the_density_matrix_reference():
    noise = NoiseParams(p1=0.02, p2=0.05)
    circuits, _ = prepare_circuits(NOISY_CHAIN)
    plan = replace(build_plan(NOISY_CHAIN), noise=noise)
    estimate = np.array(simulate_series(circuits, plan).values).T  # [mark, site]
    # each value is a mean of shots +-1 outcomes; Hoeffding's bound on all
    # of them together fails with probability at most 1e-6
    eps = math.sqrt(2 * math.log(2 * estimate.size / 1e-6) / plan.shots)
    marks = step_ends(circuits)
    reference = pauli_channel_reference(circuits[-1], marks, noise.p1, noise.p2)
    assert np.max(np.abs(estimate - reference)) <= eps
    # the same bound rejects the noiseless dynamics and the Jx <-> Jz swapped chain
    noiseless = pauli_channel_reference(circuits[-1], marks, 0.0, 0.0)
    assert np.max(np.abs(estimate - noiseless)) > eps
    swapped, _ = prepare_circuits(replace(NOISY_CHAIN, jx=NOISY_CHAIN.jz, jz=NOISY_CHAIN.jx))
    control = pauli_channel_reference(swapped[-1], step_ends(swapped), noise.p1, noise.p2)
    assert np.max(np.abs(estimate - control)) > eps


def test_run_noisy_builds_each_gate_matrix_once_across_shots(monkeypatch):
    from spinchain import circuits

    program = _two_qubit_program()
    built = []

    def counting(gate):
        built.append(gate)
        return gate_matrix(gate)

    monkeypatch.setattr(circuits, "gate_matrix", counting)
    noise = NoiseParams(p1=0.5, p2=0.5)  # every Pauli is drawn in the first few shots
    calls = []
    for shots in (50, 200):
        built.clear()
        run_noisy(cut_at(program, [0, len(program)]), shots, noise, seed=3)
        calls.append(len(built))
        assert len(built) == len(set(built))
    assert calls[0] == calls[1]


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


def _segments_alone(circuits, index):
    """Circuit ``index`` run as its own segments, each fused alone."""
    n = circuits.segments[0].num_qubits
    blocks = [fuse(segment(circuits, k).gates, n) for k in range(index + 1)]
    *_, state = evolve(init_state(n).amplitudes, blocks)
    return StateVector(n, state)


def _assert_series_reads_each_circuit(series, circuits):
    # bit for bit the circuit's segments run alone; within 1e-12 of the
    # circuit fused as one program, where blocks may cross a step mark
    for index, program in enumerate(circuits):
        alone, whole = _segments_alone(circuits, index), run_statevector(program)
        for q in range(program.num_qubits):
            assert series.values[q][index] == expectation_z(alone, q)
            assert abs(series.values[q][index] - expectation_z(whole, q)) <= 1e-12


def test_simulate_series_incremental_matches_per_program():
    circuits, plan = _tiny_series()
    series = simulate_series(circuits, plan)
    assert series.times == tuple(pytest.approx(0.1 * k) for k in range(5))
    _assert_series_reads_each_circuit(series, circuits)


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
    _assert_series_reads_each_circuit(simulate_series(compiled, build_plan(config)), compiled)


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
