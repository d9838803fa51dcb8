import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from spinchain import (
    CircuitSeries,
    FieldProfile,
    GateKind,
    HeisenbergModel,
    Program,
    SimulationError,
    SimulationPlan,
    exact_evolution,
    field_at,
    generate_circuits,
    hamiltonian_matrix,
    init_state,
    program_unitary,
    simulate_series,
)
from spinchain.config import ConfigError, parse_input_text, run_problems
from spinchain.trotter import (
    bond_evolution_gates,
    field_evolution_gates,
    state_prep_gates,
)
from helpers import segment, step_ends, unitary_equivalent

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_state_prep_gates():
    gates = state_prep_gates(["down", "up", "down"])
    assert [(g.kind, g.qubits) for g in gates] == [
        (GateKind.X, (0,)),
        (GateKind.X, (2,)),
    ]
    assert state_prep_gates(None) == []
    assert state_prep_gates(["up", "up"]) == []


def test_field_layer_shape():
    assert field_evolution_gates(0.0, 0.1, "x", 4) == []
    for axis, kind in (("x", GateKind.RX), ("y", GateKind.RY), ("z", GateKind.RZ)):
        gates = field_evolution_gates(0.7, 0.1, axis, 3)
        assert len(gates) == 3
        assert all(g.kind is kind for g in gates)
        assert [g.qubits[0] for g in gates] == [0, 1, 2]
        assert all(g.angles[0] == pytest.approx(-2.0 * 0.7 * 0.1) for g in gates)
    with pytest.raises(ValueError):
        field_evolution_gates(1.0, 0.1, "w", 2)


# every zero pattern of (jx, jy, jz), all-zero included
ZERO_PATTERNS = [
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (0.8, -0.5, 0.3),
    (1.0, 1.0, 0.0),
    (0.8, 0.0, 0.3),
    (0.0, -0.5, 0.3),
    (0.0, 0.0, 0.0),
]


def _assert_bond_matches_expm(jx, jy, jz, t):
    # The bond circuit must equal exp(+i t (jx XX + jy YY + jz ZZ)) exactly
    # (single bond, commuting factors), up to a global phase.
    gates = bond_evolution_gates(jx, jy, jz, t, 0, 1)
    u = program_unitary(Program(2, tuple(gates)))
    target = expm(1j * t * (jx * np.kron(X, X) + jy * np.kron(Y, Y) + jz * np.kron(Z, Z)))
    assert unitary_equivalent(u, target, tol=1e-12)


@pytest.mark.parametrize("jx,jy,jz", ZERO_PATTERNS)
def test_bond_gates_match_expm_oracle(jx, jy, jz):
    _assert_bond_matches_expm(jx, jy, jz, 0.37)


def test_bond_gates_match_expm_oracle_on_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(24):
        jx, jy, jz = rng.uniform(-2.0, 2.0, 3)
        _assert_bond_matches_expm(jx, jy, jz, float(rng.uniform(0.01, 1.0)))


@pytest.mark.parametrize("jx,jy,jz", ZERO_PATTERNS)
def test_bond_gates_take_the_fewest_cnots(jx, jy, jz):
    gates = bond_evolution_gates(jx, jy, jz, 0.37, 0, 1)
    nonzero = sum(j != 0.0 for j in (jx, jy, jz))
    cnots = sum(g.kind is GateKind.CNOT for g in gates)
    assert cnots == {3: 3, 2: 2, 1: 2, 0: 0}[nonzero]
    # and no more gates than one basis-changed ZZ block per nonzero coupling,
    # as bonds were built before: 7 gates for XX or YY, 3 for ZZ
    assert len(gates) <= 7 * (jx != 0.0) + 7 * (jy != 0.0) + 3 * (jz != 0.0)


def test_bond_gates_skip_zero_couplings():
    assert bond_evolution_gates(0.0, 0.0, 0.0, 0.1, 0, 1) == []
    only_zz = bond_evolution_gates(0.0, 0.0, 2.0, 0.1, 0, 1)
    assert [g.kind for g in only_zz] == [GateKind.CNOT, GateKind.RZ, GateKind.CNOT]
    only_xx = bond_evolution_gates(1.0, 0.0, 0.0, 0.1, 0, 1)
    assert [g.kind for g in only_xx] == [GateKind.CNOT, GateKind.RX, GateKind.CNOT]
    # a rotation by exactly zero is left out: here RZ(pi/2 - 2 jz t) on qubit 0
    general = bond_evolution_gates(1.0, 1.0, math.pi / 4, 1.0, 0, 1)
    assert len(general) == 7
    assert all(g.angles != (0.0,) for g in general)
    _assert_bond_matches_expm(1.0, 1.0, math.pi / 4, 1.0)


def test_single_step_is_field_then_bonds():
    model = HeisenbergModel(
        jx=0.4, jy=0.2, jz=-0.6, field=FieldProfile(amplitude=0.9), field_axis="y"
    )
    plan = SimulationPlan(num_qubits=3, initial_spins=None, delta_t=0.11, steps=1)
    program = generate_circuits(model, plan)[1]
    u = program_unitary(program)

    def emb(op, site):
        mats = [np.eye(2, dtype=complex)] * 3
        mats[site] = op
        return np.kron(np.kron(mats[0], mats[1]), mats[2])

    dt = 0.11
    field = expm(1j * 0.9 * dt * (emb(Y, 0) + emb(Y, 1) + emb(Y, 2)))
    def bond(i):
        return expm(
            1j * dt * (
                0.4 * emb(X, i) @ emb(X, i + 1)
                + 0.2 * emb(Y, i) @ emb(Y, i + 1)
                - 0.6 * emb(Z, i) @ emb(Z, i + 1)
            )
        )
    # circuit order field, bond(0,1), bond(1,2) -> matrix product reversed
    expected = bond(1) @ bond(0) @ field
    assert unitary_equivalent(u, expected, tol=1e-12)


def test_series_structure_and_prefix_property():
    model = HeisenbergModel(jx=1.0, jy=1.0, jz=0.0)
    plan = SimulationPlan(
        num_qubits=3, initial_spins=["down", "up", "up"], delta_t=0.1, steps=5
    )
    circuits = generate_circuits(model, plan)
    assert len(circuits) == plan.steps + 1
    ends = step_ends(circuits)
    assert len(circuits[-1]) == ends[-1]
    assert all(a < b for a, b in zip(ends, ends[1:]))
    assert [g.kind for g in circuits[0].gates] == [GateKind.X]
    programs = list(circuits)
    for prev, cur in zip(programs, programs[1:]):
        assert cur.gates[: len(prev.gates)] == prev.gates
    assert circuits[-1].gates == sum((segment(circuits, k).gates for k in range(6)), ())
    assert circuits[-2] == programs[-2]
    # no field -> a step is the two XX+YY bonds alone, two CNOTs each
    bonds = [g for i in range(2) for g in bond_evolution_gates(1.0, 1.0, 0.0, 0.1, i, i + 1)]
    assert segment(circuits, 5).gates == tuple(bonds)
    assert len(bonds) == 16
    assert sum(g.kind is GateKind.CNOT for g in bonds) == 4


def test_circuit_series_segments_and_bad_marks():
    model = HeisenbergModel(jx=0, jy=0, jz=1.0, field=FieldProfile(amplitude=2.0))
    plan = SimulationPlan(num_qubits=3, initial_spins=["up", "down", "up"], steps=3)
    circuits = generate_circuits(model, plan)
    joined = sum((segment(circuits, k).gates for k in range(len(circuits))), ())
    assert joined == circuits[-1].gates
    assert segment(circuits, -1) is segment(circuits, 3) is segment(circuits, 1)
    segments, order = circuits.segments, circuits.order
    assert order == (0, 1, 1, 1)
    wider = Program(4, segments[1].gates)
    for bad_segments, bad_order in (
        (segments, ()),
        (segments, (0, 2)),
        (segments, (-1, 1)),
        ((), ()),
        ((circuits[-1].gates,), (0,)),
        ((segments[0], wider), (0, 1)),
    ):
        with pytest.raises(ValueError):
            CircuitSeries(bad_segments, bad_order)


def test_series_indexes_circuits_as_their_segments_joined():
    # emit_series and the benchmark read circuits by index, by iteration and as series[-1]
    model = HeisenbergModel(
        jx=1.0, jz=0.5, field=FieldProfile(mode="sinusoid", amplitude=1.0, frequency=0.3)
    )
    plan = SimulationPlan(num_qubits=3, initial_spins=["up", "down", "up"], delta_t=0.1, steps=4)
    series = generate_circuits(model, plan)
    joined = [
        Program(3, sum((series.segments[k].gates for k in series.order[: i + 1]), ()))
        for i in range(len(series))
    ]
    assert [series[k] for k in range(len(series))] == list(series) == joined
    assert [series[k - len(series)] for k in range(len(series))] == joined
    assert series[-1] == joined[-1] and len(series[-1]) == step_ends(series)[-1]
    for index in (len(series), -len(series) - 1):
        with pytest.raises(IndexError):
            series[index]


@pytest.mark.parametrize(
    "field",
    [
        FieldProfile(amplitude=0.7),
        FieldProfile(mode="sinusoid", amplitude=1.0, frequency=0.3, phase=0.2),
        FieldProfile(mode="tabulated", samples=((0.0, 0.5), (0.2, -1.0), (0.5, 0.0))),
        FieldProfile(amplitude=0.0),
    ],
    ids=["constant", "sinusoid", "sampled", "zero"],
)
def test_generation_matches_step_by_step_build(field):
    model = HeisenbergModel(jx=1.0, jy=0.8, jz=0.5, field=field, field_axis="y", hbar=2.0)
    plan = SimulationPlan(
        num_qubits=4, initial_spins=["up", "down", "down", "up"], delta_t=0.1, steps=8
    )
    series = generate_circuits(model, plan)
    gates = state_prep_gates(plan.initial_spins)
    ends = [len(gates)]
    for m in range(plan.steps):
        gates += field_evolution_gates(field_at(field, m * 0.1), 0.05, "y", 4)
        for i in range(3):
            gates += bond_evolution_gates(1.0, 0.8, 0.5, 0.05, i, i + 1)
        ends.append(len(gates))
    assert series[-1].gates == tuple(gates)
    assert step_ends(series) == tuple(ends)
    starts = (0, *ends)
    for k in range(len(series)):
        assert segment(series, k).gates == tuple(gates[starts[k] : ends[k]])
        assert series[k].gates == tuple(gates[: ends[k]])
        assert series[k].num_qubits == segment(series, k).num_qubits == 4
    # every step appends the same bond gate objects
    bonds = 3 * len(bond_evolution_gates(1.0, 0.8, 0.5, 0.05, 0, 1))
    first, last = segment(series, 1).gates[-bonds:], segment(series, -1).gates[-bonds:]
    assert all(a is b for a, b in zip(first, last, strict=True))
    # a step with an h seen before adds that step's segment object again
    for k in range(1, len(series)):
        h = field_at(field, (k - 1) * 0.1)
        same = [j for j in range(1, k) if field_at(field, (j - 1) * 0.1) == h]
        if same:
            assert segment(series, k) is segment(series, same[0])


@pytest.mark.parametrize(
    "field, steps, distinct",
    [
        (FieldProfile(amplitude=0.7), 30, 2),
        (FieldProfile(amplitude=0.0), 30, 2),
        (FieldProfile(mode="sinusoid", amplitude=1.0, frequency=0.3, phase=0.2), 12, 13),
        # h over the 10 steps: 0.5 three times, -0.25 (two roundings), -1 twice, 0.5
        # three times: four distinct values, so five segments
        (
            FieldProfile(mode="tabulated", samples=(
                (0.0, 0.5), (0.25, 0.5), (0.35, -1.0), (0.55, -1.0), (0.65, 0.5), (1.0, 0.5),
            )),
            10,
            5,
        ),
        (FieldProfile(amplitude=0.7), 0, 1),
    ],
    ids=["constant", "zero", "sinusoid", "tabulated", "no_steps"],
)
def test_series_holds_one_segment_per_distinct_step(field, steps, distinct):
    model = HeisenbergModel(jx=1.0, jy=0.8, jz=0.5, field=field)
    plan = SimulationPlan(
        num_qubits=3, initial_spins=["down", "up", "up"], delta_t=0.1, steps=steps
    )
    series = generate_circuits(model, plan)
    assert len(series.segments) == distinct
    assert len(series.order) == len(series) == steps + 1
    assert sorted(set(series.order)) == list(range(distinct))
    assert segment(series, 0).gates == tuple(state_prep_gates(plan.initial_spins))


def test_time_dependent_field_sampled_at_step_start():
    field = FieldProfile(mode="sinusoid", amplitude=1.0, frequency=0.2)
    model = HeisenbergModel(jx=0, jy=0, jz=0, field=field, field_axis="x")
    plan = SimulationPlan(num_qubits=1, initial_spins=None, delta_t=0.3, steps=3)
    circuits = generate_circuits(model, plan)
    for m in range(3):
        new_gates = circuits[m + 1].gates[len(circuits[m].gates):]
        h_m = field_at(field, m * 0.3)
        if h_m == 0.0:
            assert new_gates == ()
        else:
            assert len(new_gates) == 1
            assert new_gates[0].angles[0] == pytest.approx(-2.0 * h_m * 0.3)


def test_hbar_rescales_angles():
    model_scaled = HeisenbergModel(jx=0, jy=0, jz=1.0, hbar=2.0)
    model_plain = HeisenbergModel(jx=0, jy=0, jz=1.0, hbar=1.0)
    plan = SimulationPlan(num_qubits=2, initial_spins=None, delta_t=0.4, steps=1)
    half_plan = SimulationPlan(num_qubits=2, initial_spins=None, delta_t=0.2, steps=1)
    scaled = generate_circuits(model_scaled, plan)[1]
    plain = generate_circuits(model_plain, half_plan)[1]
    assert scaled.gates == plain.gates


def test_validate_plan_messages():
    bad = SimulationPlan(
        num_qubits=0,
        initial_spins=["up", "up"],
        delta_t=-1.0,
        steps=-2,
        shots=-3,
    )
    problems = "\n".join(run_problems(bad))
    for token in ("num_qubits", "initial_spins", "delta_t", "steps", "shots"):
        assert token in problems
    assert run_problems(SimulationPlan(num_qubits=2, initial_spins=None)) == []
    with pytest.raises(ValueError):
        generate_circuits(HeisenbergModel(jx=0, jy=0, jz=0), bad)


def test_negative_seed_is_rejected_before_generation():
    plan = SimulationPlan(num_qubits=2, initial_spins=None, seed=-1)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        generate_circuits(HeisenbergModel(jz=1.0), plan)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        exact_evolution(HeisenbergModel(jz=1.0), plan)


def test_file_and_library_give_the_same_problem_text():
    expected = "num_qubits must be between 1 and 24"
    with pytest.raises(ConfigError) as from_file:
        parse_input_text("num_qubits = 25\n")
    plan = SimulationPlan(num_qubits=25, initial_spins=None)
    with pytest.raises(ValueError) as from_library:
        generate_circuits(HeisenbergModel(jz=1.0), plan)
    assert str(from_file.value) == expected
    assert str(from_library.value) == f"invalid simulation inputs: {expected}"


def test_unknown_spin_is_rejected_everywhere():
    plan = SimulationPlan(num_qubits=2, initial_spins=("up", "sideways"))
    message = "initial_spins entries must be up/down/0/1, got 'sideways'"
    assert run_problems(plan) == [message]
    with pytest.raises(ValueError, match=message):
        generate_circuits(HeisenbergModel(jz=1.0), plan)
    with pytest.raises(SimulationError, match=message):
        init_state(2, plan.initial_spins)


def test_exact_evolution_static_matches_dense_expm():
    model = HeisenbergModel(
        jx=0.7, jy=-0.3, jz=0.5, field=FieldProfile(amplitude=0.8), field_axis="z"
    )
    plan = SimulationPlan(
        num_qubits=3, initial_spins=["down", "up", "down"], delta_t=0.25, steps=8
    )
    series = exact_evolution(model, plan)
    h = hamiltonian_matrix(model, 0.0, 3)
    psi0 = np.zeros(8, dtype=complex)
    psi0[0b101] = 1.0
    for k, t in enumerate(series.times):
        psi = expm(-1j * h * t) @ psi0
        probs = np.abs(psi) ** 2
        for q in range(3):
            mask = 1 << (2 - q)
            p1 = probs[(np.arange(8) & mask) > 0].sum()
            assert series.values[q][k] == pytest.approx(1 - 2 * p1, abs=1e-10)


def test_exact_evolution_driven_matches_ode_oracle():
    field = FieldProfile(mode="sinusoid", amplitude=1.5, frequency=0.4)
    model = HeisenbergModel(jx=0.6, jy=0.0, jz=0.9, field=field, field_axis="x")
    plan = SimulationPlan(num_qubits=2, initial_spins=["up", "down"], delta_t=0.5, steps=4)
    series = exact_evolution(model, plan, substeps=256)

    def rhs(t, y):
        h = hamiltonian_matrix(model, t, 2)
        return -1j * (h @ y)

    psi0 = np.zeros(4, dtype=complex)
    psi0[0b01] = 1.0
    sol = solve_ivp(
        rhs, (0.0, 2.0), psi0, t_eval=series.times, rtol=1e-10, atol=1e-12
    )
    for k in range(len(series.times)):
        psi = sol.y[:, k]
        probs = np.abs(psi) ** 2
        for q in range(2):
            mask = 1 << (1 - q)
            p1 = probs[(np.arange(4) & mask) > 0].sum()
            assert series.values[q][k] == pytest.approx(1 - 2 * p1, abs=1e-5)


def test_exact_evolution_single_spin_cosine():
    model = HeisenbergModel(
        jx=0, jy=0, jz=0, field=FieldProfile(amplitude=1.0), field_axis="x"
    )
    plan = SimulationPlan(num_qubits=1, initial_spins=None, delta_t=0.1, steps=30)
    series = exact_evolution(model, plan)
    for t, m in zip(series.times, series.values[0]):
        assert m == pytest.approx(math.cos(2 * t), abs=1e-10)


def test_trotter_first_order_convergence():
    model = HeisenbergModel(jx=1.0, jy=1.0, jz=0.0)
    spins = ["up", "down", "up"]

    def max_err(dt, steps):
        plan = SimulationPlan(num_qubits=3, initial_spins=spins, delta_t=dt, steps=steps)
        approx = simulate_series(generate_circuits(model, plan), plan)
        exact = exact_evolution(model, plan)
        return max(
            abs(a - b)
            for ra, rb in zip(approx.values, exact.values)
            for a, b in zip(ra, rb)
        )

    coarse = max_err(0.1, 10)
    fine = max_err(0.05, 20)
    assert coarse > 1e-4  # the comparison is not trivially exact
    assert 1.3 <= coarse / fine <= 4.0
