import itertools
import math
import re

import numpy as np
import pytest

from spinchain import (
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
from spinchain.circuits import apply_matrix, evolve
from spinchain.workflow import prepare_circuits
from helpers import dense_gate_oracle, random_program, unitary_equivalent


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
            source, out = amps.copy(), np.empty_like(amps)
            apply_matrix(amps, m, qubits)
            assert np.max(np.abs(amps - expected)) <= 1e-12
            # out of place: the same bits in out, and the source as it was
            before = source.copy()
            apply_matrix(source, m, qubits, out=out)
            assert np.array_equal(out, amps) and np.array_equal(source, before)


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
    before = amps.copy()
    for k in (3, 4):
        m = _random_unitary(rng, 1 << k)
        for qubits in itertools.product(range(4), repeat=k):
            if any(b <= a for a, b in zip(qubits, qubits[1:])):
                with pytest.raises(GateError, match=re.escape(str(qubits))):
                    apply_matrix(amps, m, qubits)
                assert np.array_equal(amps, before)


@pytest.mark.parametrize("batch", [(), (2,)])
def test_apply_matrix_rejects_qubits_outside_the_register(batch):
    # with a batch axis, qubit 4 of a (16, 2) array would name that axis, and
    # X on it would swap the two columns
    rng = np.random.default_rng(8)
    amps = rng.normal(size=(16, *batch)) + 1j * rng.normal(size=(16, *batch))
    before = amps.copy()
    for qubits in ((4,), (5,), (3, 4), (4, 0), (0, 2, 4), (1, 2, 3, 4)):
        m = _random_unitary(rng, 1 << len(qubits))
        with pytest.raises(GateError, match="exceed the register"):
            apply_matrix(amps, m, qubits)
        assert np.array_equal(amps, before)
    apply_matrix(amps, _random_unitary(rng, 2), (3,))  # the last qubit is inside
    assert not np.array_equal(amps, before)

SINGLE_QUBIT_KINDS = tuple(k for k in GateKind if k.num_qubits == 1)


def test_evolve_snapshots_equal_each_prefix_alone():
    rng = np.random.default_rng(17)
    cases = []
    # n=1 gates all wait on their qubit; n=2 two-qubit gates share one pair, so
    # marks after the first of them fall inside one open block
    for n in (1, 2, 3, 4, 5):
        program = random_program(rng, n, 40)
        marks = sorted([0, 0, 40, 40, *(int(m) for m in rng.integers(0, 41, size=8))])
        cases.append((program, marks))
    # mostly single-qubit gates, which wait off the open pair; a mark at every
    # gate, so marks fall between waiting gates
    for n in (1, 3, 4, 5):
        kinds = SINGLE_QUBIT_KINDS * 4 + (GateKind.CNOT, GateKind.CZ)
        cases.append((random_program(rng, n, 60, kinds), [0, *range(61), 60]))
    # one pair all along: more than a thousand marks inside a single run
    cases.append((random_program(rng, 2, 1200), list(range(1201))))
    for program, marks in cases:
        n = program.num_qubits
        start = init_state(n, ["down" if i % 2 else "up" for i in range(n)])
        start = apply_gate(start, make_gate("h", [0]))
        snapshots = list(evolve(start.amplitudes.copy(), program.gates, marks))
        assert len(snapshots) == len(marks)
        state, applied = start, 0
        for count, (mark, snapshot) in enumerate(zip(marks, snapshots)):
            # each prefix alone costs O(mark): sample the 1,201-mark case
            if len(marks) < 100 or count % 50 == 0 or mark == marks[-1]:
                (alone,) = evolve(start.amplitudes.copy(), program.gates[:mark], [mark])
                assert np.array_equal(snapshot, alone)
            for gate in program.gates[applied:mark]:
                state = apply_gate(state, gate)
            applied = mark
            assert np.max(np.abs(snapshot - state.amplitudes)) <= 1e-12


def _chain_series(n: int, steps: int):
    model = HeisenbergModel(jx=1.0, jy=0.8, jz=0.5, field=FieldProfile(amplitude=1.0))
    spins = ["down" if q % 3 == 1 else "up" for q in range(n)]
    plan = SimulationPlan(num_qubits=n, initial_spins=spins, delta_t=0.05, steps=steps)
    return generate_circuits(model, plan)


def _chain_program(n: int, steps: int) -> Program:
    return _chain_series(n, steps).program


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
    for program in (_chain_program(n, 1), _far_pair_program(rng, n)):
        marks = list(range(len(program) + 1))  # a mark at every gate
        _assert_each_snapshot_is_its_prefix_alone(program.gates, marks, n)


def test_evolve_blocks_stay_within_four_qubits_and_short_of_the_register(monkeypatch):
    applied = []

    def recording(amps, m, qubits, *args, **kwargs):
        assert len(m) == 1 << len(qubits)
        applied.append(tuple(qubits))
        apply_matrix(amps, m, qubits, *args, **kwargs)

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
            list(evolve(init_state(n).amplitudes, program.gates, range(0, len(program), 7)))
            program_unitary(program)
            widths += map(len, applied)
            # a chain's blocks are all ranges, which the kernel applies in one matmul
            assert not chain or all(map(is_range, applied))
        bound = min(4, max(2, n - 1))
        assert max(widths) == (bound if n > 1 else 1)
        assert n < 3 or max(widths) < n
    series = _chain_series(16, 3)
    applied.clear()
    list(evolve(init_state(16).amplitudes, series.program.gates, series.step_ends))
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


def test_evolve_in_place_and_mark_checks():
    rng = np.random.default_rng(4)
    program = random_program(rng, 3, 12)
    amps = init_state(3).amplitudes
    (final,) = evolve(amps, program.gates, [12])
    assert np.array_equal(amps, final)
    assert np.allclose(final, program_unitary(program)[:, 0], atol=1e-12)
    for bad in ([3, 2], [-1], [13]):
        with pytest.raises(GateError):
            list(evolve(amps, program.gates, bad))


class _Watched:
    """A gate that counts in ``reads[0]`` how often its ``qubits`` are read."""

    def __init__(self, gate, reads):
        self.kind, self.angles, self._qubits = gate.kind, gate.angles, gate.qubits
        self._reads = reads

    @property
    def qubits(self):
        self._reads[0] += 1
        return self._qubits


def _watched_run(n, gates, marks):
    """Snapshots of ``gates`` through ``evolve`` and how often the fold read a gate."""
    # one watcher per distinct gate object, so repeated objects stay repeated
    reads, watchers = [0], {}
    watched = tuple(watchers.setdefault(id(g), _Watched(g, reads)) for g in gates)
    return list(evolve(init_state(n).amplitudes, watched, marks)), reads[0]


def _assert_each_snapshot_is_its_prefix_alone(gates, marks, n):
    start = init_state(n, ["down" if q % 2 else "up" for q in range(n)])
    start = apply_gate(start, make_gate("h", [0])).amplitudes
    snapshots = list(evolve(start.copy(), gates, marks))
    assert len(snapshots) == len(marks)
    for mark, snapshot in zip(marks, snapshots):
        (alone,) = evolve(start.copy(), gates[:mark], [mark])
        assert np.array_equal(snapshot, alone)
    state = start.copy()
    for gate in gates[: marks[-1]]:
        apply_matrix(state, gate_matrix(gate), gate.qubits)
    assert np.max(np.abs(snapshots[-1] - state)) <= 1e-12
    return snapshots


def _repeat(segments, order):
    gates, marks = [], []
    for k in order:
        gates += segments[k].gates
        marks.append(len(gates))
    return tuple(gates), marks


def test_evolve_replays_alternating_segments_exactly():
    rng = np.random.default_rng(23)
    a, b = random_program(rng, 4, 30), random_program(rng, 4, 30)
    reads = []
    for repeats in (3, 6):
        gates, marks = _repeat((a, b), (0, 1) * repeats)
        _assert_each_snapshot_is_its_prefix_alone(gates, marks, 4)
        reads.append(_watched_run(4, gates, marks)[1])
    # the fold reads each gate of the first stretches; the later ones replay
    assert reads[0] == reads[1] < len(gates)


def _random_gate_on(rng, qubit, kinds):
    kind = kinds[rng.integers(len(kinds))]
    return make_gate(kind, [qubit], rng.uniform(-np.pi, np.pi, kind.num_angles))


def test_evolve_replay_keys_on_the_carried_in_state():
    rng = np.random.default_rng(29)
    # n=1: every gate waits on qubit 0, so the waiting product grows every
    # stretch and the same gates never enter with the same state
    one = random_program(rng, 1, 5)
    gates, marks = _repeat((one,), (0,) * 12)
    _assert_each_snapshot_is_its_prefix_alone(gates, marks, 1)
    # qubit 2 only ever sees single-qubit gates; the others share pairs
    kinds = (GateKind.H, GateKind.RX, GateKind.RZ, GateKind.U3)
    pairs = [make_gate("cnot", [0, 1]), make_gate("cz", [1, 0])]
    gates = [_random_gate_on(rng, q, kinds) for q in (0, 2, 1, 2)] + pairs
    segment = Program(3, tuple(gates) + (_random_gate_on(rng, 2, kinds),))
    gates, marks = _repeat((segment,), (0,) * 8)
    _assert_each_snapshot_is_its_prefix_alone(gates, marks, 3)


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
    _assert_each_snapshot_is_its_prefix_alone(series.program.gates, list(series.step_ends), 4)


def test_evolve_fold_work_does_not_grow_with_repeated_steps():
    # at n=8 each step's last block, (6, 7), grows into the next step's (0, 1, 6, 7)
    for n in (5, 8):
        reads = []
        for steps in (40, 160):
            series = _constant_field_series(n, steps)
            marks = list(series.step_ends)
            plain = list(evolve(init_state(n).amplitudes, series.program.gates, marks))
            watched, count = _watched_run(n, series.program.gates, marks)
            reads.append(count)
            assert all(np.array_equal(a, b) for a, b in zip(plain, watched, strict=True))
        # reads: one per folded gate, plus lift's per distinct (gate, block qubits)
        assert reads[0] == reads[1] < len(series.program) // 10


def _count_matrix_builds(monkeypatch):
    # gate_matrix and _embed as evolve looks them up: every matrix the fold builds
    built = [0]
    for name in ("gate_matrix", "_embed"):
        original = getattr(circuits, name)

        def counted(*args, _original=original):
            built[0] += 1
            return _original(*args)

        monkeypatch.setattr(circuits, name, counted)
    return built


def test_evolve_with_a_shared_memo_equals_memo_less_calls(monkeypatch):
    rng = np.random.default_rng(31)
    a, b = random_program(rng, 5, 40), random_program(rng, 5, 40)
    gates, marks = _repeat((a, b), (0, 1, 1, 0))
    prepared = init_state(5, ["up", "down", "down", "up", "down"])
    start = prepared.amplitudes
    alone = list(evolve(start.copy(), gates, marks))
    memo: dict = {}
    first = list(evolve(start.copy(), gates, marks, memo))
    built = _count_matrix_builds(monkeypatch)
    # a second call over the same gates, from another state, replays the first's fold
    other = apply_gate(prepared, make_gate("h", [2])).amplitudes
    second = list(evolve(other.copy(), gates, marks, memo))
    assert built[0] == 0
    monkeypatch.undo()
    assert all(np.array_equal(x, y) for x, y in zip(alone, first, strict=True))
    assert all(
        np.array_equal(x, y) for x, y in zip(evolve(other, gates, marks), second, strict=True)
    )


def test_evolve_memo_never_replays_across_widths():
    # the same gate objects at widths 4 and 5 fold into different blocks
    # (ranges of at most 3 qubits at n=4, 4 at n=5)
    rng = np.random.default_rng(37)
    gates, marks = _repeat((random_program(rng, 4, 60),), (0, 0, 0))
    memo: dict = {}
    for n in (4, 5, 4):
        start = init_state(n, ["down" if q % 2 else "up" for q in range(n)]).amplitudes
        plain = list(evolve(start.copy(), gates, marks))
        shared = list(evolve(start.copy(), gates, marks, memo))
        assert all(np.array_equal(x, y) for x, y in zip(plain, shared, strict=True))
