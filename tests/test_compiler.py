import math

import numpy as np
import pytest

from spinchain import (
    FieldProfile,
    GateKind,
    HeisenbergModel,
    NativeTarget,
    Program,
    SimulationPlan,
    compile_program,
    compiler,
    generate_circuits,
    lower_generic,
    make_gate,
    program_unitary,
)
from spinchain.compiler import CompileError, _rx_native, _wrap, _zyz_angles
from helpers import conforms, on_list, random_program, unitary_equivalent

_pass_cancel_inverse_pairs = on_list(compiler._pass_cancel_inverse_pairs)
_pass_commute_through_entanglers = on_list(compiler._pass_commute_through_entanglers)
_pass_drop_zero_rotations = on_list(compiler._pass_drop_zero_rotations)
_pass_fuse_single_qubit_runs = on_list(compiler._pass_fuse_single_qubit_runs)
_pass_merge_rotations = on_list(compiler._pass_merge_rotations)

TARGETS = (NativeTarget.IBM, NativeTarget.RIGETTI)


def test_wrap_branch():
    assert _wrap(0.0) == 0.0
    assert _wrap(math.pi) == math.pi
    assert _wrap(-math.pi) == math.pi
    assert _wrap(3 * math.pi) == pytest.approx(math.pi)
    assert _wrap(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert -math.pi < _wrap(5.9) <= math.pi
    assert _wrap(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)


def test_rx_native_membership():
    for angle in (math.pi / 2, -math.pi / 2, math.pi, -math.pi, 5 * math.pi / 2, 3 * math.pi):
        assert _rx_native(angle)
    for angle in (0.0, 0.3, 2 * math.pi, math.pi / 4):
        assert not _rx_native(angle)


def _sample_gates(rng):
    """One sample of every kind, with random angles where applicable."""
    out = []
    for kind in GateKind:
        qubits = [0, 1][: kind.num_qubits]
        angles = [float(rng.uniform(-2 * math.pi, 2 * math.pi)) for _ in range(kind.num_angles)]
        out.append(make_gate(kind, qubits, angles))
    return out


@pytest.mark.parametrize("target", TARGETS)
def test_lowering_preserves_every_gate_kind(target):
    rng = np.random.default_rng(17)
    for _ in range(3):
        for gate in _sample_gates(rng):
            source = Program(2, (gate,))
            lowered = lower_generic(source, target)
            assert conforms(lowered, target), f"{gate.kind} not lowered for {target}"
            assert unitary_equivalent(
                program_unitary(source), program_unitary(lowered), tol=1e-12
            ), f"{gate.kind} lowering changed the unitary on {target}"


def test_lowering_is_plain_substitution():
    # no optimization: an obvious cancellation must survive
    p = Program(1, (make_gate("x", [0]), make_gate("x", [0])))
    assert len(lower_generic(p, NativeTarget.IBM).gates) == 2
    # template sizes
    cnot = Program(2, (make_gate("cnot", [0, 1]),))
    assert len(lower_generic(cnot, NativeTarget.RIGETTI).gates) == 7
    h = Program(1, (make_gate("h", [0]),))
    assert len(lower_generic(h, NativeTarget.IBM).gates) == 1
    assert len(lower_generic(h, NativeTarget.RIGETTI).gates) == 3


def test_conforms_predicate():
    ibm_ok = Program(2, (make_gate("u3", [0], [1, 2, 3]), make_gate("cnot", [0, 1])))
    assert conforms(ibm_ok, NativeTarget.IBM)
    assert not conforms(ibm_ok, NativeTarget.RIGETTI)
    rigetti_ok = Program(
        2,
        (
            make_gate("rz", [0], [0.123]),
            make_gate("rx", [0], [math.pi / 2]),
            make_gate("cz", [0, 1]),
        ),
    )
    assert conforms(rigetti_ok, NativeTarget.RIGETTI)
    assert not conforms(
        Program(1, (make_gate("rx", [0], [0.3]),)), NativeTarget.RIGETTI
    )


# ---------------------------------------------------------------------------
# Individual passes


def _gates(*entries):
    return [make_gate(k, q, a) for k, q, a in entries]


def test_merge_rotations_pass():
    gates = _gates(("rz", [0], [0.4]), ("rz", [0], [0.5]))
    merged = _pass_merge_rotations(gates, NativeTarget.IBM)
    assert len(merged) == 1
    assert merged[0].angles[0] == pytest.approx(0.9)
    # interleaved gate on another qubit does not block the merge
    gates = _gates(("rz", [0], [0.4]), ("x", [1], []), ("rz", [0], [0.5]))
    assert len(_pass_merge_rotations(gates, NativeTarget.IBM)) == 2
    # a blocking gate on the same qubit does
    gates = _gates(("rz", [0], [0.4]), ("h", [0], []), ("rz", [0], [0.5]))
    assert len(_pass_merge_rotations(gates, NativeTarget.IBM)) == 3


def test_merge_rotations_respects_rigetti_rx_angles():
    gates = _gates(("rx", [0], [math.pi / 2]), ("rx", [0], [0.3]))
    assert len(_pass_merge_rotations(gates, NativeTarget.RIGETTI)) == 2
    # the same pair merges on IBM
    assert len(_pass_merge_rotations(gates, NativeTarget.IBM)) == 1
    # native-sum pair merges on RIGETTI too
    gates = _gates(("rx", [0], [math.pi / 2]), ("rx", [0], [math.pi / 2]))
    merged = _pass_merge_rotations(gates, NativeTarget.RIGETTI)
    assert len(merged) == 1
    assert merged[0].angles[0] == pytest.approx(math.pi)


def test_cancel_inverse_pairs_pass():
    assert _pass_cancel_inverse_pairs(_gates(("h", [0], []), ("h", [0], [])), None) == []
    assert _pass_cancel_inverse_pairs(
        _gates(("cnot", [0, 1], []), ("cnot", [0, 1], [])), None
    ) == []
    # CZ is symmetric in its qubits
    assert _pass_cancel_inverse_pairs(
        _gates(("cz", [0, 1], []), ("cz", [1, 0], [])), None
    ) == []
    # CNOT is not
    assert len(
        _pass_cancel_inverse_pairs(_gates(("cnot", [0, 1], []), ("cnot", [1, 0], [])), None)
    ) == 2
    # a gate on either involved qubit blocks the cancellation
    blocked = _gates(("cnot", [0, 1], []), ("rz", [1], [0.1]), ("cnot", [0, 1], []))
    assert len(_pass_cancel_inverse_pairs(blocked, None)) == 3
    # nested pairs need one sweep per layer; the fixpoint driver reruns passes
    once = _pass_cancel_inverse_pairs(
        _gates(("h", [0], []), ("x", [0], []), ("x", [0], []), ("h", [0], [])), None
    )
    assert [g.kind for g in once] == [GateKind.H, GateKind.H]
    assert _pass_cancel_inverse_pairs(once, None) == []


def test_drop_zero_rotations_pass():
    gates = _gates(
        ("rz", [0], [2 * math.pi]),
        ("rx", [0], [1e-15]),
        ("u1", [0], [0.5]),
        ("ry", [1], [-2 * math.pi]),
    )
    kept = _pass_drop_zero_rotations(gates, None)
    assert len(kept) == 1
    assert kept[0].kind is GateKind.U1


def test_commute_pass_moves_diagonals_and_x_rotations():
    # diagonal through CZ
    gates = _gates(("rz", [0], [0.3]), ("cz", [0, 1], []))
    moved = _pass_commute_through_entanglers(gates, NativeTarget.RIGETTI)
    assert [g.kind for g in moved] == [GateKind.CZ, GateKind.RZ]
    # diagonal through CNOT control
    gates = _gates(("u1", [0], [0.3]), ("cnot", [0, 1], []))
    moved = _pass_commute_through_entanglers(gates, NativeTarget.IBM)
    assert [g.kind for g in moved] == [GateKind.CNOT, GateKind.U1]
    # x-rotation through CNOT target
    gates = _gates(("rx", [1], [0.3]), ("cnot", [0, 1], []))
    moved = _pass_commute_through_entanglers(gates, NativeTarget.IBM)
    assert [g.kind for g in moved] == [GateKind.CNOT, GateKind.RX]
    # diagonal on a CNOT target must NOT move
    gates = _gates(("rz", [1], [0.3]), ("cnot", [0, 1], []))
    assert _pass_commute_through_entanglers(gates, NativeTarget.IBM) == gates
    # non-diagonal on CZ must not move
    gates = _gates(("x", [0], []), ("cz", [0, 1], []))
    assert _pass_commute_through_entanglers(gates, NativeTarget.RIGETTI) == gates


def test_fuse_pass_collapses_runs():
    gates = _gates(
        ("u3", [0], [0.3, 0.2, 0.1]),
        ("u3", [0], [1.0, -0.4, 0.8]),
        ("u3", [0], [0.7, 0.0, 2.0]),
    )
    fused = _pass_fuse_single_qubit_runs(gates, NativeTarget.IBM)
    assert len(fused) == 1
    assert fused[0].kind is GateKind.U3
    assert unitary_equivalent(
        program_unitary(Program(1, tuple(gates))),
        program_unitary(Program(1, tuple(fused))),
        tol=1e-10,
    )
    # a two-qubit gate splits the run
    split = _gates(
        ("u3", [0], [0.3, 0.2, 0.1]),
        ("cnot", [0, 1], []),
        ("u3", [0], [1.0, -0.4, 0.8]),
    )
    assert _pass_fuse_single_qubit_runs(split, NativeTarget.IBM) == split


def _conforms_up_to_zero_rotations(gates, target):
    # the merge pass may leave a zero-angle rotation behind for the drop
    # pass; that is the only transient non-conformance allowed mid-round
    kept = [
        g
        for g in gates
        if not (len(g.angles) == 1 and abs(_wrap(g.angles[0])) <= 1e-12)
    ]
    return conforms(Program(3, tuple(kept)), target)


@pytest.mark.parametrize("target", TARGETS)
def test_each_pass_preserves_unitary(target):
    passes = (
        _pass_merge_rotations,
        _pass_cancel_inverse_pairs,
        _pass_drop_zero_rotations,
        _pass_commute_through_entanglers,
        _pass_fuse_single_qubit_runs,
    )
    rng = np.random.default_rng(29)
    for _ in range(30):
        source = random_program(rng, 3, int(rng.integers(2, 14)))
        gates = list(lower_generic(source, target).gates)
        u_ref = program_unitary(Program(3, tuple(gates)))
        for pass_fn in passes:
            gates = pass_fn(gates, target)
            assert unitary_equivalent(
                u_ref, program_unitary(Program(3, tuple(gates))), tol=1e-9
            ), pass_fn.__name__
            assert _conforms_up_to_zero_rotations(gates, target), pass_fn.__name__
        # a full round through the pass list restores strict conformance
        assert conforms(Program(3, tuple(gates)), target)


# ---------------------------------------------------------------------------
# ZYZ synthesis


def _random_unitary(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _u3_matrix(theta, phi, lam):
    return np.array(
        [
            [math.cos(theta / 2), -np.exp(1j * lam) * math.sin(theta / 2)],
            [
                np.exp(1j * phi) * math.sin(theta / 2),
                np.exp(1j * (phi + lam)) * math.cos(theta / 2),
            ],
        ]
    )


def test_zyz_reconstructs_random_unitaries():
    rng = np.random.default_rng(41)
    for _ in range(60):
        u = _random_unitary(rng)
        theta, phi, lam = _zyz_angles(u)
        assert 0.0 <= theta <= math.pi
        assert -math.pi < phi <= math.pi
        assert -math.pi < lam <= math.pi
        rebuilt = _u3_matrix(theta, phi, lam)
        assert unitary_equivalent(u, rebuilt, tol=1e-10)


def test_zyz_degenerate_branches():
    theta, phi, lam = _zyz_angles(np.diag([1.0, np.exp(0.4j)]))
    assert theta == 0.0 and lam == 0.0
    assert phi == pytest.approx(0.4)
    theta, phi, lam = _zyz_angles(np.array([[0, 1], [1, 0]], dtype=complex))
    assert theta == math.pi and lam == 0.0


# ---------------------------------------------------------------------------
# Full pipeline


@pytest.mark.parametrize("target", TARGETS)
def test_ds_compile_random_programs(target):
    rng = np.random.default_rng(59)
    for _ in range(25):
        source = random_program(rng, 3, int(rng.integers(1, 20)))
        generic, generic_report = compile_program(source, target, "generic")
        ds, ds_report = compile_program(source, target, "domain_specific")
        for report in (generic_report, ds_report):
            assert report.equivalence_checked
            assert report.equivalence_fidelity >= 1 - 1e-8
        assert conforms(generic, target)
        assert conforms(ds, target)
        assert len(ds) <= len(generic)
        twice, _ = compile_program(ds, target, "domain_specific")
        assert twice.gates == ds.gates


@pytest.mark.parametrize("target", TARGETS)
def test_double_hadamard_compiles_to_nothing(target):
    p = Program(1, (make_gate("h", [0]), make_gate("h", [0])))
    out, report = compile_program(p, target, "domain_specific")
    assert out.gates == ()
    assert report.equivalence_fidelity == pytest.approx(1.0)


@pytest.mark.parametrize("target", TARGETS)
def test_tfim_series_strict_improvement(target):
    model = HeisenbergModel(
        jx=0, jy=0, jz=1.0, field=FieldProfile(amplitude=2.0), field_axis="x"
    )
    plan = SimulationPlan(num_qubits=3, initial_spins=None, delta_t=0.1, steps=2)
    program = generate_circuits(model, plan)[2]
    generic, _ = compile_program(program, target, "generic")
    ds, ds_report = compile_program(program, target, "domain_specific")
    assert len(ds) < len(generic)
    assert ds_report.equivalence_fidelity >= 1 - 1e-8


def test_report_pass_ledger():
    model = HeisenbergModel(
        jx=0, jy=0, jz=1.0, field=FieldProfile(amplitude=2.0), field_axis="x"
    )
    plan = SimulationPlan(num_qubits=2, initial_spins=None, delta_t=0.1, steps=1)
    program = generate_circuits(model, plan)[1]
    _, report = compile_program(program, NativeTarget.IBM, "domain_specific")
    names = [name for name, _ in report.passes_applied]
    assert names[0] == "lower_generic"
    assert len(names) > 1
    assert report.input_counts.total == len(program.gates)


def test_compile_program_dispatch():
    p = Program(1, (make_gate("h", [0]), make_gate("h", [0])))
    generic, _ = compile_program(p, NativeTarget.IBM, "generic")
    assert len(generic.gates) == 2
    ds, _ = compile_program(p, NativeTarget.IBM, "domain_specific")
    assert len(ds.gates) == 0
    with pytest.raises(CompileError):
        compile_program(p, NativeTarget.IBM, "aggressive")
    with pytest.raises(CompileError):
        NativeTarget.from_name("google")


# ---------------------------------------------------------------------------
# The equivalence check


def _driven_series(n, steps=2):
    model = HeisenbergModel(
        jx=1.0, jy=0.8, jz=0.5, field_axis="x",
        field=FieldProfile(mode="sinusoid", amplitude=1.0, frequency=0.25),
    )
    spins = tuple("up" if q < n // 2 else "down" for q in range(n))
    plan = SimulationPlan(num_qubits=n, initial_spins=spins, delta_t=0.05, steps=steps)
    return generate_circuits(model, plan)


def _commute(a, b):
    # whether gates a and b commute, from their dense matrices on their own qubits
    on = sorted({*a.qubits, *b.qubits})
    local = [make_gate(g.kind, [on.index(q) for q in g.qubits], g.angles) for g in (a, b)]
    ab = program_unitary(Program(len(on), tuple(local)))
    ba = program_unitary(Program(len(on), tuple(local[::-1])))
    return unitary_equivalent(ab, ba, tol=1e-12)


def _bend_one_rz(gates):
    i = next(i for i, g in enumerate(gates) if g.kind is GateKind.RZ)
    bent = make_gate(GateKind.RZ, gates[i].qubits, [gates[i].angles[0] + 1e-6])
    return gates[:i] + (bent,) + gates[i + 1 :]


def _drop_one_gate(gates):
    return gates[: len(gates) // 2] + gates[len(gates) // 2 + 1 :]


def _swap_two_non_commuting_gates(gates):
    i = next(
        i for i, (a, b) in enumerate(zip(gates, gates[1:]))
        if {*a.qubits} & {*b.qubits} and not _commute(a, b)
    )
    return gates[:i] + (gates[i + 1], gates[i]) + gates[i + 2 :]


@pytest.mark.parametrize("n", [6, 12, 16])
@pytest.mark.parametrize("mutate", [_bend_one_rz, _drop_one_gate, _swap_two_non_commuting_gates])
def test_check_rejects_a_broken_compiled_segment(monkeypatch, n, mutate):
    series = _driven_series(n)
    compile_one = compiler._compile_one
    broken = []

    def compile_then_break(program, target, mode, tables):
        compiled, applied = compile_one(program, target, mode, tables)
        if program is series.segments[1]:  # a step between two correct segments
            compiled = Program(compiled.num_qubits, mutate(compiled.gates))
            broken.append(compiled)
        return compiled, applied

    monkeypatch.setattr(compiler, "_compile_one", compile_then_break)
    with pytest.raises(CompileError, match=r"compiled segment 1 differs from its source: residual="):
        compiler.compile_segments(series, NativeTarget.RIGETTI, "domain_specific")
    assert len(broken) == 1


@pytest.mark.parametrize("n", range(11, 17))
def test_check_passes_a_correct_driven_compile_at_every_width(n):
    series = _driven_series(n)
    compiled, reports = compiler.compile_segments(series, NativeTarget.RIGETTI, "domain_specific")
    assert len(reports) == len(compiled.segments) == len(series.segments) == 3
    assert compiled.order == series.order
    for program, report in zip(compiled.segments, reports):
        assert conforms(program, NativeTarget.RIGETTI)
        assert report.fidelity_line() == "equivalence fidelity: 1.000000000000"


def test_compile_segments_refuses_a_register_wider_than_the_simulator():
    # refused before any state is allocated
    with pytest.raises(ValueError, match="cannot check a compile on 25 qubits"):
        compile_program(Program(25, (make_gate("h", [24]),)), NativeTarget.IBM, "generic")
