"""End-to-end acceptance checks.

Each test prints a single `[criterion N] PASS/FAIL` line with the measured
numbers, bypassing pytest's capture so the verdicts are visible in any run.
All tolerances and runtime budgets are asserted, not just reported.
"""

import os
import time

import numpy as np

from spinchain import (
    FieldProfile,
    HeisenbergModel,
    NativeTarget,
    SimulationPlan,
    compile_program,
    emit_program,
    exact_evolution,
    generate_circuits,
    init_state,
    parse_program,
    program_unitary,
    run_statevector,
    simulate_series,
)
from spinchain.cli import main
from helpers import conforms, programs_structurally_equal, random_program


def _announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}")


def _magnetization(model, plan):
    return simulate_series(generate_circuits(model, plan), plan)


def _max_error(series, oracle):
    diff = np.abs(np.asarray(series.values) - np.asarray(oracle.values))
    return float(np.max(diff))


def test_criterion_1_single_spin_exactness(capsys):
    started = time.perf_counter()
    model = HeisenbergModel(jx=0, jy=0, jz=0, field=FieldProfile(amplitude=1.0), field_axis="x")
    plan = SimulationPlan(num_qubits=1, initial_spins=None, delta_t=0.05, steps=200)
    series = _magnetization(model, plan)
    times = np.asarray(series.times)
    dev = float(np.max(np.abs(np.asarray(series.values[0]) - np.cos(2 * times))))
    elapsed = time.perf_counter() - started

    ok = dev <= 1e-9 and elapsed < 1.0
    _announce(capsys, 1, ok, f"(max dev {dev:.3g} <= 1e-9, {elapsed:.2f}s < 1s)")
    assert dev <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_two_spin_swap(capsys):
    started = time.perf_counter()
    model = HeisenbergModel(jx=1.0, jy=1.0, jz=0, field=FieldProfile(amplitude=0.0))
    plan = SimulationPlan(
        num_qubits=2, initial_spins=("up", "down"), delta_t=0.05, steps=200
    )
    series = _magnetization(model, plan)
    times = np.asarray(series.times)
    dev = float(np.max(np.abs(np.asarray(series.values[0]) - np.cos(4 * times))))
    elapsed = time.perf_counter() - started

    ok = dev <= 1e-9 and elapsed < 1.0
    _announce(capsys, 2, ok, f"(max dev {dev:.3g} <= 1e-9, {elapsed:.2f}s < 1s)")
    assert dev <= 1e-9
    assert elapsed < 1.0


def _first_relax_time(series, qubit, threshold=0.5):
    for t, m in zip(series.times, series.values[qubit]):
        if abs(m) < threshold:
            return t
    return None


def test_criterion_3_domain_wall_quench(capsys):
    started = time.perf_counter()
    model = HeisenbergModel(jx=1.0, jy=1.0, jz=0, field=FieldProfile(amplitude=0.0))
    spins = ("up", "up", "up", "down", "down", "down")

    def error_at(delta_t, steps):
        plan = SimulationPlan(num_qubits=6, initial_spins=spins, delta_t=delta_t, steps=steps)
        series = _magnetization(model, plan)
        return series, _max_error(series, exact_evolution(model, plan))

    series, err_coarse = error_at(0.0125, 80)
    _, err_fine = error_at(0.00625, 160)
    ratio = err_coarse / err_fine

    start_exact = all(
        series.values[q][0] == (1.0 if spins[q] == "up" else -1.0) for q in range(6)
    )
    relax = [_first_relax_time(series, q) for q in range(6)]
    boundary_last = None not in relax and min(relax[0], relax[5]) > max(relax[1:5])
    elapsed = time.perf_counter() - started

    ok = (
        err_coarse <= 0.05
        and 1.3 <= ratio <= 4.0
        and start_exact
        and boundary_last
        and elapsed < 30.0
    )
    _announce(
        capsys,
        3,
        ok,
        f"(err {err_coarse:.4f} <= 0.05, halving ratio {ratio:.2f} in [1.3,4], "
        f"t=0 exact: {start_exact}, boundary relaxes last: {boundary_last}, "
        f"{elapsed:.1f}s < 30s)",
    )
    assert err_coarse <= 0.05
    assert 1.3 <= ratio <= 4.0
    assert start_exact
    assert boundary_last
    assert elapsed < 30.0


def test_criterion_4_tfim(capsys):
    started = time.perf_counter()
    model = HeisenbergModel(
        jx=0, jy=0, jz=1.0, field=FieldProfile(amplitude=2.0), field_axis="x"
    )
    spins = ("up", "up", "up", "down", "down")

    def plan_at(delta_t, steps, shots=0):
        return SimulationPlan(
            num_qubits=5, initial_spins=spins, delta_t=delta_t, steps=steps, shots=shots, seed=1
        )

    exact_coarse = _magnetization(model, plan_at(0.2, 10))
    err_coarse = _max_error(exact_coarse, exact_evolution(model, plan_at(0.2, 10)))
    err_fine = _max_error(
        _magnetization(model, plan_at(0.1, 20)), exact_evolution(model, plan_at(0.1, 20))
    )
    ratio = err_coarse / err_fine

    sampled = _magnetization(model, plan_at(0.2, 10, shots=100_000))
    shot_dev = _max_error(sampled, exact_coarse)
    elapsed = time.perf_counter() - started

    ok = err_coarse <= 0.05 and 1.3 <= ratio <= 4.0 and shot_dev < 0.02 and elapsed < 60.0
    _announce(
        capsys,
        4,
        ok,
        f"(err {err_coarse:.4f} <= 0.05, halving ratio {ratio:.2f} in [1.3,4], "
        f"1e5-shot dev {shot_dev:.4f} < 0.02, {elapsed:.1f}s < 60s)",
    )
    assert err_coarse <= 0.05
    assert 1.3 <= ratio <= 4.0
    assert shot_dev < 0.02
    assert elapsed < 60.0


def _tfim_series(num_qubits=5, steps=10):
    model = HeisenbergModel(
        jx=0, jy=0, jz=1.0, field=FieldProfile(amplitude=2.0), field_axis="x"
    )
    plan = SimulationPlan(
        num_qubits=num_qubits, initial_spins=None, delta_t=0.1, steps=steps
    )
    return generate_circuits(model, plan)


def _dense_fidelity(source, compiled):
    # |tr(U_src^dagger U_out)| / 2^n, from the dense unitaries
    u_src, u_out = program_unitary(source), program_unitary(compiled)
    return float(abs(np.vdot(u_src, u_out)) / len(u_src))


def test_criterion_5_compiler_soundness(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_fidelity = 1.0
    failures = []

    for index in range(200):
        program = random_program(rng, int(rng.integers(1, 5)), int(rng.integers(0, 31)))
        for target in (NativeTarget.IBM, NativeTarget.RIGETTI):
            generic, _ = compile_program(program, target, "generic")
            ds, _ = compile_program(program, target, "domain_specific")
            generic_fidelity = _dense_fidelity(program, generic)
            ds_fidelity = _dense_fidelity(program, ds)
            worst_fidelity = min(worst_fidelity, generic_fidelity, ds_fidelity)
            if generic_fidelity < 1 - 1e-8:
                failures.append(f"program {index} generic fidelity on {target.value}")
            if ds_fidelity < 1 - 1e-8:
                failures.append(f"program {index} ds fidelity on {target.value}")
            if not conforms(generic, target) or not conforms(ds, target):
                failures.append(f"program {index} conformance on {target.value}")
            if len(ds) > len(generic):
                failures.append(f"program {index} ds larger than generic on {target.value}")

    strict_held = True
    for target in (NativeTarget.IBM, NativeTarget.RIGETTI):
        for k, program in enumerate(_tfim_series()):
            generic, _ = compile_program(program, target, "generic")
            ds, _ = compile_program(program, target, "domain_specific")
            generic_fidelity = _dense_fidelity(program, generic)
            ds_fidelity = _dense_fidelity(program, ds)
            worst_fidelity = min(worst_fidelity, generic_fidelity, ds_fidelity)
            if min(generic_fidelity, ds_fidelity) < 1 - 1e-8:
                failures.append(f"series circuit {k} fidelity on {target.value}")
            if not conforms(generic, target) or not conforms(ds, target):
                failures.append(f"series circuit {k} conformance on {target.value}")
            if len(ds) > len(generic):
                failures.append(f"series circuit {k} ds larger on {target.value}")
            if k >= 2 and len(ds) >= len(generic):
                strict_held = False
                failures.append(f"series circuit {k} not strictly smaller on {target.value}")
    elapsed = time.perf_counter() - started

    ok = not failures and elapsed < 60.0
    _announce(
        capsys,
        5,
        ok,
        f"(200 random + 11-circuit series, both targets, worst fidelity "
        f"{worst_fidelity:.12f} >= 1-1e-8, strict improvement at >=2 steps: "
        f"{strict_held}, {elapsed:.1f}s < 60s)",
    )
    assert not failures, failures[:5]
    assert elapsed < 60.0


def _tree_bytes(root):
    snapshot = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                snapshot[os.path.relpath(path, root)] = handle.read()
    return snapshot


def test_criterion_6_idempotence_and_determinism(capsys, tmp_path):
    rng = np.random.default_rng(77)
    idempotent = True
    for target in (NativeTarget.IBM, NativeTarget.RIGETTI):
        programs = [_tfim_series(steps=4)[4]]
        programs += [random_program(rng, 3, 12) for _ in range(10)]
        for program in programs:
            once, _ = compile_program(program, target, "domain_specific")
            twice, _ = compile_program(once, target, "domain_specific")
            if twice.gates != once.gates:
                idempotent = False

    input_file = tmp_path / "run.txt"
    input_file.write_text(
        "Jz = 1.0\nh_ext = 2.0\next_dir = x\nnum_qubits = 4\n"
        "initial_spins = up, down, up, down\ndelta_t = 0.1\nsteps = 5\n"
        "shots = 400\nbackend = ibm\ncompile = domain_specific\nseed = 9\n"
    )
    assert main(["run", str(input_file), "--output-dir", str(tmp_path / "a")]) == 0
    assert main(["run", str(input_file), "--output-dir", str(tmp_path / "b")]) == 0
    tree_a = _tree_bytes(tmp_path / "a" / "data")
    tree_b = _tree_bytes(tmp_path / "b" / "data")
    same_files = sorted(tree_a) == sorted(tree_b)
    identical = same_files and all(tree_a[name] == tree_b[name] for name in tree_a)

    ok = idempotent and identical
    _announce(
        capsys,
        6,
        ok,
        f"(ds compile idempotent: {idempotent}; two runs, {len(tree_a)} data/ files "
        f"byte-identical: {identical})",
    )
    assert idempotent
    assert same_files
    assert identical


def test_criterion_7_serialization_round_trips(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(4242)
    mismatches = 0
    for _ in range(500):
        program = random_program(rng, int(rng.integers(1, 6)), int(rng.integers(0, 21)))
        for dialect in ("qasm", "quil"):
            parsed = parse_program(emit_program(program, dialect), dialect)
            if not programs_structurally_equal(program, parsed, angle_tol=1e-12):
                mismatches += 1
    elapsed = time.perf_counter() - started

    ok = mismatches == 0 and elapsed < 10.0
    _announce(
        capsys,
        7,
        ok,
        f"(500 programs x 2 dialects, {mismatches} mismatches, {elapsed:.1f}s < 10s)",
    )
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_8_statevector_vs_matrix(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(31337)
    spin_names = ("up", "down")
    worst = 0.0
    for _ in range(100):
        program = random_program(rng, 3, int(rng.integers(1, 26)))
        spins = tuple(spin_names[int(b)] for b in rng.integers(0, 2, size=3))
        evolved = run_statevector(program, spins).amplitudes
        oracle = program_unitary(program) @ init_state(3, spins).amplitudes
        worst = max(worst, float(np.max(np.abs(evolved - oracle))))
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-9 and elapsed < 10.0
    _announce(
        capsys,
        8,
        ok,
        f"(100 programs, worst amplitude dev {worst:.3g} <= 1e-9, {elapsed:.1f}s < 10s)",
    )
    assert worst <= 1e-9
    assert elapsed < 10.0
