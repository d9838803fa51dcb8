import itertools
import math
import re

import numpy as np
import pytest

from spinchain import (
    CircuitSeries,
    FieldProfile,
    GateError,
    GateKind,
    HeisenbergModel,
    Program,
    RunConfig,
    SimulationPlan,
    generate_circuits,
    gate_counts,
    gate_matrix,
    make_gate,
    apply_gate,
    init_state,
    program_unitary,
    run_statevector,
)
from spinchain import circuits
from spinchain.circuits import apply_matrix, evolve, fuse
from spinchain.workflow import prepare_circuits
from helpers import dense_gate_oracle, random_program, segment, unitary_equivalent


def test_kind_arity_tables():
    assert GateKind.H.num_qubits == 1
    assert GateKind.CNOT.num_qubits == 2
    assert GateKind.CZ.num_qubits == 2
    assert GateKind.H.num_angles == 0
    assert GateKind.RX.num_angles == 1
    assert GateKind.U2.num_angles == 2
    assert GateKind.U3.num_angles == 3


def test_make_gate_accepts_string_kind():
    g = make_gate("rz", [1], [0.25])
    assert g.kind is GateKind.RZ
    assert g.qubits == (1,)
    assert g.angles == (0.25,)


@pytest.mark.parametrize(
    "kind,qubits,angles",
    [
        ("h", [0], [0.1]),          # angle on a fixed gate
        ("rx", [0], []),            # missing angle
        ("u3", [0], [0.1, 0.2]),    # wrong angle arity
        ("cnot", [0], []),          # one qubit for a two-qubit gate
        ("cnot", [1, 1], []),       # duplicate qubits
        ("x", [-1], []),            # negative index
        ("rz", [0], [float("nan")]),
        ("bogus", [0], []),
    ],
)
def test_make_gate_rejects(kind, qubits, angles):
    with pytest.raises(GateError):
        make_gate(kind, qubits, angles)


def test_gate_matrices_are_unitary():
    rng = np.random.default_rng(3)
    for kind in GateKind:
        angles = [float(rng.uniform(-7, 7)) for _ in range(kind.num_angles)]
        qubits = [0, 1][: kind.num_qubits]
        m = gate_matrix(make_gate(kind, qubits, angles))
        dim = 2**kind.num_qubits
        assert m.shape == (dim, dim)
        assert np.allclose(m.conj().T @ m, np.eye(dim), atol=1e-12)


def test_fixed_matrices():
    x = gate_matrix(make_gate("x", [0]))
    assert np.array_equal(x, np.array([[0, 1], [1, 0]], dtype=complex))
    h = gate_matrix(make_gate("h", [0]))
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    # Control is qubits[0]; qubit 0 is the most significant bit.
    cnot = gate_matrix(make_gate("cnot", [0, 1]))
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[1, 1] = expect[3, 2] = expect[2, 3] = 1
    assert np.array_equal(cnot, expect)


def test_rotation_conventions():
    theta = 0.77
    rz = gate_matrix(make_gate("rz", [0], [theta]))
    assert np.allclose(rz, np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]))
    u1 = gate_matrix(make_gate("u1", [0], [theta]))
    assert np.allclose(u1, np.diag([1, np.exp(1j * theta)]))
    # u1 equals rz up to global phase
    assert np.allclose(u1, np.exp(1j * theta / 2) * rz)
    rx = gate_matrix(make_gate("rx", [0], [theta]))
    x = np.array([[0, 1], [1, 0]])
    from scipy.linalg import expm

    assert np.allclose(rx, expm(-1j * theta / 2 * x), atol=1e-12)


def test_u3_u2_relations():
    theta, phi, lam = 0.4, 1.1, -0.6
    u3 = gate_matrix(make_gate("u3", [0], [theta, phi, lam]))
    u2 = gate_matrix(make_gate("u2", [0], [phi, lam]))
    u3_half = gate_matrix(make_gate("u3", [0], [math.pi / 2, phi, lam]))
    assert np.allclose(u2, u3_half, atol=1e-12)
    # column structure of u3
    assert np.isclose(u3[0, 0], math.cos(theta / 2))
    assert np.isclose(u3[1, 0], np.exp(1j * phi) * math.sin(theta / 2))


def test_program_validation():
    with pytest.raises(GateError):
        Program(0, ())
    with pytest.raises(GateError):
        Program(1, (make_gate("x", [1]),))
    p = Program(2, (make_gate("x", [1]),))
    q = Program(p.num_qubits, p.gates + (make_gate("h", [0]),))
    assert len(q) == 2
    assert len(p) == 1


def test_program_unitary_gate_order():
    # earliest gate acts first, so it sits rightmost in the product
    p = Program(1, (make_gate("x", [0]), make_gate("h", [0])))
    u = program_unitary(p)
    hx = gate_matrix(make_gate("h", [0])) @ gate_matrix(make_gate("x", [0]))
    assert np.allclose(u, hx, atol=1e-12)


def test_program_unitary_against_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        prog = random_program(rng, 3, int(rng.integers(1, 9)))
        expected = np.eye(8, dtype=complex)
        for g in prog.gates:
            expected = dense_gate_oracle(gate_matrix(g), g.qubits, 3) @ expected
        assert np.allclose(program_unitary(prog), expected, atol=1e-10)


def test_program_unitary_qubit_guard():
    with pytest.raises(GateError):
        program_unitary(Program(13, ()))


def test_unitary_equivalent_quotients_global_phase():
    rng = np.random.default_rng(5)
    p = random_program(rng, 2, 6)
    u = program_unitary(p)
    assert unitary_equivalent(u, np.exp(0.321j) * u)
    other = program_unitary(random_program(rng, 2, 6))
    # collision chance for two random products is negligible
    assert not unitary_equivalent(u, other)


def test_gate_counts():
    p = Program(
        3,
        (
            make_gate("h", [0]),
            make_gate("cnot", [0, 1]),
            make_gate("rz", [1], [0.2]),
            make_gate("cnot", [1, 2]),
        ),
    )
    counts = gate_counts(p)
    assert counts.total == 4
    assert counts.single_qubit == 2
    assert counts.two_qubit == 2
    assert counts[GateKind.CNOT] == 2
    assert counts[GateKind.X] == 0


def _random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_apply_matrix_matches_enumeration_oracle(n, batch):
    rng = np.random.default_rng(100 + n)
    ordered = [(a,) for a in range(n)]
    ordered += [(a, b) for a in range(n) for b in range(n) if a != b]  # both orders
    # wider blocks come ascending: adjacent, such as (1, 2, 3), and interleaved
    ordered += [*itertools.combinations(range(n), 3), *itertools.combinations(range(n), 4)]
    # ranges that end on the last qubit, up to the whole register
    ordered += [tuple(range(a, n)) for a in range(n - 4)]
    for qubits in ordered:
        dim = 1 << len(qubits)
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))
        for m in (_random_unitary(rng, dim), phases):  # dense and diagonal matrices
            amps = rng.normal(size=(1 << n, *batch)) + 1j * rng.normal(size=(1 << n, *batch))
            expected = dense_gate_oracle(m, qubits, n) @ amps
            before, out = amps.copy(), np.empty_like(amps)
            apply_matrix(amps, m, qubits, out)
            assert np.max(np.abs(out - expected)) <= 1e-12
            assert np.array_equal(amps, before)  # the source as it was


@pytest.mark.parametrize("batch", [(), (3,)])
def test_apply_matrix_rejects_an_out_it_cannot_write(batch):
    rng = np.random.default_rng(9)
    amps = rng.normal(size=(16, *batch)) + 1j * rng.normal(size=(16, *batch))
    before = amps.copy()
    m = _random_unitary(rng, 4)
    wide = np.empty((16, 6), amps.dtype)
    bad = (
        np.empty((8, *batch), amps.dtype),  # the wrong shape
        np.empty(amps.shape, np.complex64),  # the wrong dtype
        wide[:, ::2] if batch else wide[:, 0],  # not C-contiguous
        amps,  # amps itself
        amps[::-1],  # the same memory, reversed
    )
    for out in bad:
        for qubits in ((1, 2), (0, 3)):  # a range and a gather
            with pytest.raises(GateError, match="out must be"):
                apply_matrix(amps, m, qubits, out=out)
            assert np.array_equal(amps, before)


def test_apply_matrix_rejects_qubits_out_of_order():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    before, out = amps.copy(), np.zeros_like(amps)
    for k in (3, 4):
        m = _random_unitary(rng, 1 << k)
        for qubits in itertools.product(range(4), repeat=k):
            if any(b <= a for a, b in zip(qubits, qubits[1:])):
                with pytest.raises(GateError, match=re.escape(str(qubits))):
                    apply_matrix(amps, m, qubits, out)
                assert np.array_equal(amps, before) and not out.any()


@pytest.mark.parametrize("batch", [(), (2,)])
def test_apply_matrix_rejects_qubits_outside_the_register(batch):
    # with a batch axis, qubit 4 of a (16, 2) array would name that axis, and
    # X on it would swap the two columns
    rng = np.random.default_rng(8)
    amps = rng.normal(size=(16, *batch)) + 1j * rng.normal(size=(16, *batch))
    before, out = amps.copy(), np.zeros_like(amps)
    for qubits in ((4,), (5,), (3, 4), (4, 0), (0, 2, 4), (1, 2, 3, 4)):
        m = _random_unitary(rng, 1 << len(qubits))
        with pytest.raises(GateError, match="exceed the register"):
            apply_matrix(amps, m, qubits, out)
        assert np.array_equal(amps, before) and not out.any()
    apply_matrix(amps, _random_unitary(rng, 2), (3,), out)  # the last qubit is inside
    assert out.any() and not np.array_equal(out, before)

SINGLE_QUBIT_KINDS = tuple(k for k in GateKind if k.num_qubits == 1)


def _cut(gates, marks):
    """The stretches of ``gates`` between 0 and each of the non-decreasing marks."""
    return [tuple(gates[a:b]) for a, b in zip([0, *marks], marks)]


def _start(n):
    """A state with every amplitude's phase in play: a product state, then H."""
    start = init_state(n, ["down" if q % 2 else "up" for q in range(n)])
    return apply_gate(start, make_gate("h", [0])).amplitudes


def _run(start, stretches, n):
    """The state after each stretch, each stretch fused alone, copied as yielded."""
    return [s.copy() for s in evolve(start.copy(), [fuse(g, n) for g in stretches])]


def _gate_by_gate(amps, gates):
    for gate in gates:
        out = np.empty_like(amps)
        apply_matrix(amps, gate_matrix(gate), gate.qubits, out)
        amps = out
    return amps


def _assert_each_state_is_its_stretches_alone(stretches, n, sample=1):
    """Each state after a stretch is bit-identical to running the stretches up
    to it alone (every sample-th one), and within 1e-12 of the gate-by-gate
    oracle."""
    start = _start(n)
    states = _run(start, stretches, n)
    assert len(states) == len(stretches)
    oracle = start
    for k, state in enumerate(states):
        if k % sample == 0 or k == len(states) - 1:
            assert np.array_equal(state, _run(start, stretches[: k + 1], n)[-1])
        oracle = _gate_by_gate(oracle, stretches[k])
        assert np.max(np.abs(state - oracle)) <= 1e-12
    return states


def test_evolve_snapshots_equal_each_prefix_alone():
    rng = np.random.default_rng(17)
    cases = []
    # n=1 gates all wait on their qubit; n=2 two-qubit gates share one pair,
    # so a stretch can end inside one open block; repeated marks give empty
    # stretches
    for n in (1, 2, 3, 4, 5):
        program = random_program(rng, n, 40)
        marks = sorted([0, 0, 40, 40, *(int(m) for m in rng.integers(0, 41, size=8))])
        cases.append((program, marks))
    # mostly single-qubit gates, which wait off the open pair; stretches of
    # one to three gates, so they end between waiting gates
    for n in (1, 3, 4, 5):
        kinds = SINGLE_QUBIT_KINDS * 4 + (GateKind.CNOT, GateKind.CZ)
        marks = sorted({*rng.integers(0, 61, size=30).tolist(), 60})
        cases.append((random_program(rng, n, 60, kinds), marks))
    # one pair all along: more than a thousand stretches of one gate
    cases.append((random_program(rng, 2, 1200), list(range(1201))))
    for program, marks in cases:
        stretches = _cut(program.gates, marks)
        # each prefix alone costs O(mark): sample the 1,201-stretch case
        _assert_each_state_is_its_stretches_alone(stretches, program.num_qubits, 1 + len(marks) // 25)


def test_evolve_yields_the_live_state_of_amps_or_its_spare():
    rng = np.random.default_rng(4)
    program = random_program(rng, 3, 12)
    blocks = fuse(program.gates, 3)
    amps = init_state(3).amplitudes
    states = evolve(amps, [blocks, blocks[:1], []])
    # each block is one pass from one array into the other, and no copy is made
    first = next(states)
    assert (first is amps) == (len(blocks) % 2 == 0)
    assert np.max(np.abs(first - program_unitary(program)[:, 0])) <= 1e-12
    second = next(states)
    assert (second is amps) == (len(blocks) % 2 == 1)
    assert next(states) is second  # an empty list leaves the state where it is


def _chain_series(n: int, steps: int):
    model = HeisenbergModel(jx=1.0, jy=0.8, jz=0.5, field=FieldProfile(amplitude=1.0))
    spins = ["down" if q % 3 == 1 else "up" for q in range(n)]
    plan = SimulationPlan(num_qubits=n, initial_spins=spins, delta_t=0.05, steps=steps)
    return generate_circuits(model, plan)


def _chain_program(n: int, steps: int) -> Program:
    return _chain_series(n, steps)[-1]


def test_run_statevector_applies_one_block_per_three_bonds_per_step(monkeypatch):
    n, steps = 6, 7
    program = _chain_program(n, steps)
    shapes = []

    def counting(amps, *args, **kwargs):
        shapes.append(amps.shape)
        apply_matrix(amps, *args, **kwargs)

    monkeypatch.setattr(circuits, "apply_matrix", counting)
    state = run_statevector(program)
    # a block holds up to 4 qubits, so 3 bonds of the chain
    assert shapes == [(1 << n,)] * (steps * math.ceil((n - 1) / 3))
    expected = init_state(n)
    for gate in program.gates:
        expected = apply_gate(expected, gate)
    assert np.max(np.abs(state.amplitudes - expected.amplitudes)) <= 1e-12


def _far_pair_program(rng, n: int) -> Program:
    # random gates, with pairs that hold the register's ends apart, so blocks
    # gather interleaved qubits
    far = [make_gate("cnot", [0, n - 1]), make_gate("cz", [n - 2, 0]), make_gate("cnot", [n - 1, 1])]
    gates = list(random_program(rng, n, 40).gates)
    for position, gate in zip((5, 17, 30), far):
        gates.insert(position, gate)
    return Program(n, tuple(gates))


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_evolve_wide_block_snapshots_equal_each_prefix_alone(n):
    rng = np.random.default_rng(40 + n)
    for program in (_chain_program(n, 2), _far_pair_program(rng, n)):
        for every in (len(program), 7, 1):  # the whole program, then shorter stretches
            marks = [*range(every, len(program), every), len(program)]
            _assert_each_state_is_its_stretches_alone(_cut(program.gates, marks), n)


def test_evolve_blocks_stay_within_four_qubits_and_short_of_the_register(monkeypatch):
    applied = []

    def recording(amps, m, qubits, out):
        assert len(m) == 1 << len(qubits)
        applied.append(tuple(qubits))
        apply_matrix(amps, m, qubits, out)

    def is_range(qubits):
        return qubits == tuple(range(qubits[0], qubits[0] + len(qubits)))

    monkeypatch.setattr(circuits, "apply_matrix", recording)
    rng = np.random.default_rng(31)
    for n in range(1, 10):
        widths = []
        programs = [(random_program(rng, n, 80), False)]
        if n >= 3:
            programs += [(_chain_program(n, 3), True), (_far_pair_program(rng, n), False)]
        for program, chain in programs:
            applied.clear()
            _run(init_state(n).amplitudes, _cut(program.gates, range(0, len(program), 7)), n)
            program_unitary(program)
            widths += map(len, applied)
            # a chain's blocks are all ranges, which the kernel applies in one matmul
            assert not chain or all(map(is_range, applied))
        bound = min(4, max(2, n - 1))
        assert max(widths) == (bound if n > 1 else 1)
        assert n < 3 or max(widths) < n
    series = _chain_series(16, 3)
    applied.clear()
    list(evolve(init_state(16).amplitudes, [series.blocks[k] for k in series.order]))
    assert max(map(len, applied)) == 4 and all(map(is_range, applied))


def test_evolve_builds_each_distinct_gate_matrix_once(monkeypatch):
    program = _chain_program(4, 160)
    built = []

    def counting(gate):
        built.append(gate)
        return gate_matrix(gate)

    monkeypatch.setattr(circuits, "gate_matrix", counting)
    run_statevector(program)
    assert len(built) == len(set(built)) == len(set(program.gates))
    assert len(built) < len(program) // 100


def _count_fused_gates(monkeypatch):
    """Per ``fuse`` call as ``CircuitSeries`` looks it up, the gates fused."""
    fused = []

    def counted(gates, *args):
        fused.append(len(gates))
        return fuse(gates, *args)

    monkeypatch.setattr(circuits, "fuse", counted)
    return fused


def _run_series(start, series):
    """The state after each circuit of the series, through the blocks it fused
    from each distinct segment once, copied as yielded."""
    return [s.copy() for s in evolve(start.copy(), [series.blocks[k] for k in series.order])]


def _random_gate_on(rng, qubit, kinds):
    kind = kinds[rng.integers(len(kinds))]
    return make_gate(kind, [qubit], rng.uniform(-np.pi, np.pi, kind.num_angles))


def test_evolve_replays_alternating_segments_exactly(monkeypatch):
    rng = np.random.default_rng(23)
    a, b = random_program(rng, 4, 30), random_program(rng, 4, 30)
    # n=1: every gate waits on qubit 0; n=3: qubit 2 only ever sees
    # single-qubit gates, and the others share pairs
    one = random_program(rng, 1, 5)
    kinds = (GateKind.H, GateKind.RX, GateKind.RZ, GateKind.U3)
    pairs = [make_gate("cnot", [0, 1]), make_gate("cz", [1, 0])]
    gates = [_random_gate_on(rng, q, kinds) for q in (0, 2, 1, 2)] + pairs
    waiting = Program(3, tuple(gates) + (_random_gate_on(rng, 2, kinds),))
    for segments, unit in (((a, b), (0, 1)), ((one,), (0,)), ((waiting,), (0,))):
        n = segments[0].num_qubits
        fused = []
        for repeats in (3, 6):
            order = unit * repeats
            stretches = [segments[k].gates for k in order]
            expected = _assert_each_state_is_its_stretches_alone(stretches, n)
            fused.append(_count_fused_gates(monkeypatch))
            replayed = _run_series(_start(n), CircuitSeries(segments, order))
            monkeypatch.undo()
            assert all(np.array_equal(x, y) for x, y in zip(expected, replayed, strict=True))
        # each distinct segment is fused once, however often it repeats
        assert fused[0] == fused[1] == [len(p) for p in segments]


def _constant_field_series(n, steps, compiled=False):
    config = RunConfig(
        jx=1.0, jy=0.8, jz=0.5, h_ext=1.0, num_qubits=n, delta_t=0.05, steps=steps,
        initial_spins=tuple("down" if q % 3 == 1 else "up" for q in range(n)),
        backend="rigetti", compile_mode="domain_specific" if compiled else "none",
    )
    series, _ = prepare_circuits(config)
    return series


def test_evolve_replays_a_compiled_constant_field_series_exactly():
    series = _constant_field_series(4, 10, compiled=True)
    assert len(series.segments) == 2
    stretches = [segment(series, k).gates for k in range(len(series))]
    expected = _assert_each_state_is_its_stretches_alone(stretches, 4)
    replayed = _run_series(_start(4), series)
    assert all(np.array_equal(x, y) for x, y in zip(expected, replayed, strict=True))


def test_evolve_fold_work_does_not_grow_with_repeated_steps(monkeypatch):
    # at n=8 each step's last block is (6, 7), and the next step's first (0, 1)
    for n in (5, 8):
        fused = []
        for steps in (40, 160):
            series = _constant_field_series(n, steps)
            fused.append(_count_fused_gates(monkeypatch))
            states = _run_series(init_state(n).amplitudes, CircuitSeries(series.segments, series.order))
            monkeypatch.undo()
            assert len(states) == steps + 1
        # one fuse call per distinct segment: state prep and one step
        assert fused[0] == fused[1] == [len(p) for p in series.segments]
        assert sum(fused[1]) < len(series[-1]) // 10


def _count_matrix_builds(monkeypatch):
    # gate_matrix and _embed as fuse looks them up: every matrix the fold builds
    built = [0]
    for name in ("gate_matrix", "_embed"):
        original = getattr(circuits, name)

        def counted(*args, _original=original):
            built[0] += 1
            return _original(*args)

        monkeypatch.setattr(circuits, name, counted)
    return built


def test_series_blocks_replay_from_any_start_state(monkeypatch):
    rng = np.random.default_rng(31)
    segments = (random_program(rng, 5, 40), random_program(rng, 5, 40))
    order = (0, 1, 1, 0)
    prepared = init_state(5, ["up", "down", "down", "up", "down"])
    start = prepared.amplitudes
    series = CircuitSeries(segments, order)
    first = _run_series(start, series)
    built = _count_matrix_builds(monkeypatch)
    # a second run of the same series, from another state, builds no matrix
    other = apply_gate(prepared, make_gate("h", [2])).amplitudes
    second = _run_series(other, series)
    assert built[0] == 0
    monkeypatch.undo()
    stretches = [segments[k].gates for k in order]
    assert all(np.array_equal(x, y) for x, y in zip(_run(start, stretches, 5), first, strict=True))
    plain = _run_series(other, CircuitSeries(segments, order))
    assert all(np.array_equal(x, y) for x, y in zip(plain, second, strict=True))


def test_series_blocks_follow_the_register_width():
    # the same gates at widths 4 and 5 fuse into different blocks (ranges of
    # at most 3 qubits at n=4, 4 at n=5); a lift table shared across widths
    # fuses the blocks a fresh one does
    rng = np.random.default_rng(37)
    gates = random_program(rng, 4, 60).gates
    lifted: dict = {}
    widths = {}
    for n in (4, 5, 4):
        series = CircuitSeries((Program(n, gates),), (0, 0, 0))
        start = init_state(n, ["down" if q % 2 else "up" for q in range(n)]).amplitudes
        plain = _run(start, [gates] * 3, n)
        assert all(np.array_equal(x, y) for x, y in zip(plain, _run_series(start, series), strict=True))
        shared = fuse(gates, n, lifted)
        assert [on for _, on in shared] == [on for _, on in series.blocks[0]]
        assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(shared, series.blocks[0]))
        widths[n] = max(len(on) for _, on in series.blocks[0])
    assert widths == {4: 3, 5: 4}
