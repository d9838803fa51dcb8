"""The benchmark's tracer wraps module attributes by name; they must exist.

``perfbench/tracing.py`` replaces functions such as
``spinchain.workflow.render_svg`` at the attribute the caller looks up.  A
simplification that deletes or renames one of them would only show up as a
crash of ``perfbench/run.py --trace 1``; this test makes it fail here.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spinchain
import spinchain.cli
from spinchain import NoiseParams, RunConfig, generate_circuits, run_workflow
from spinchain.compiler import NativeTarget, compile_program
from spinchain.simulator import run_noisy, simulate_series
from spinchain.workflow import (
    _format_report, build_model, build_plan, compile_series, prepare_circuits,
)
from helpers import segment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_on_current_modules(tmp_path):
    tracing = _load_tracing()
    original = spinchain.workflow.simulate_series
    tracer = tracing.Tracer()
    tracing.install(tracer, spinchain)
    try:
        assert spinchain.workflow.simulate_series is not original
        path = tmp_path / "run.txt"
        path.write_text("Jz = 1.0\nh_ext = 2.0\nnum_qubits = 2\nsteps = 2\nshots = 8\n")
        tracer.start_op(0)
        assert spinchain.cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
        # a compiled, sampled run: simulate_series gets the compiled series
        compiled = tmp_path / "compiled.txt"
        compiled.write_text(path.read_text() + "backend = rigetti\ncompile = domain_specific\n")
        tracer.start_op(1)
        assert spinchain.cli.main(["run", str(compiled), "--output-dir", str(tmp_path / "c")]) == 0
        # a noisy run: trajectories, so no per-circuit sampling
        noisy = tmp_path / "noisy.txt"
        noisy.write_text(path.read_text() + "noise_choice = true\n")
        tracer.start_op(2)
        assert spinchain.cli.main(["run", str(noisy), "--output-dir", str(tmp_path / "n")]) == 0
    finally:
        tracer.close()
    assert spinchain.workflow.simulate_series is original
    for op in (0, 1, 2):
        names = {span[0] for _, span in tracer.op_spans(op)}
        assert {"cli.main", "trotter.generate", "simulator.simulate", "plotting.render"} <= names
        assert ("simulator.sample" in names) == (op != 2)
        assert tracer.counts[op]["simulator.num_qubits"] == 2
    assert tracer.counts[2]["simulator.trajectories"] == 8
    assert (tmp_path / "c" / "data" / "compile_report.txt").exists()
    assert (tmp_path / "n" / "data" / "qubit_1_magnetization.csv").exists()


def _count_compile_calls(monkeypatch):
    # compile_segments per run, _compile_one per distinct step segment, the
    # check's evolve calls (one per side, stimulus state and segment), and the names
    # the benchmark's tracer wraps, which a run no longer calls
    workflow, compiler = spinchain.workflow, spinchain.compiler
    names = (
        (workflow, "compile_segments"), (compiler, "_compile_one"), (compiler, "evolve"),
        (compiler, "program_unitary"), (workflow, "compile_program"),
    )
    calls = {name: 0 for _, name in names}
    for module, name in names:
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


CONSTANT = RunConfig(
    jx=1.0, jz=0.5, h_ext=1.0, num_qubits=3, steps=4, backend="rigetti",
    compile_mode="domain_specific",
)
SINUSOID = replace(CONSTANT, time_dep_flag=True, freq=0.3)
ONE_CHECK = {"compile_segments": 1, "program_unitary": 0, "compile_program": 0}


def _check_evolves(segments):
    # two sides times two stimulus states, each segment from the same states
    return 2 * 2 * segments


def test_prepare_circuits_calls_the_traced_compile_names(monkeypatch):
    calls = _count_compile_calls(monkeypatch)
    circuits, reports = prepare_circuits(CONSTANT)
    assert len(reports) == len(circuits) == 5
    # a constant field has two distinct segments: state prep and one step
    assert calls == {**ONE_CHECK, "_compile_one": 2, "evolve": _check_evolves(2)}


def test_prepare_circuits_compiles_every_step_of_a_sinusoid(monkeypatch):
    calls = _count_compile_calls(monkeypatch)
    circuits, reports = prepare_circuits(SINUSOID)
    assert len(reports) == len(circuits) == len(circuits.segments) == 5
    assert calls == {**ONE_CHECK, "_compile_one": 5, "evolve": _check_evolves(5)}


def test_simulation_replays_the_fold_of_the_check(monkeypatch):
    plan = build_plan(SINUSOID)
    source = generate_circuits(build_model(SINUSOID), plan)
    circuits, _ = compile_series(source, SINUSOID)
    assert circuits.order == tuple(range(len(circuits.segments)))  # all distinct
    built = [0]
    for name in ("gate_matrix", "_embed"):
        original = getattr(spinchain.circuits, name)

        def counted(*args, _original=original):
            built[0] += 1
            return _original(*args)

        monkeypatch.setattr(spinchain.circuits, name, counted)
    shared = simulate_series(circuits, plan)
    assert built[0] == 0
    monkeypatch.undo()
    fresh = replace(circuits)  # the same segments, fused anew
    assert fresh.blocks is not circuits.blocks
    assert shared == simulate_series(fresh, plan)


@pytest.mark.parametrize("p", [1e-9, 0.05])
def test_noisy_simulation_replays_the_fold_of_the_check(monkeypatch, p):
    # the noisy path takes its hit-free blocks from the compiled series, so
    # it builds only the matrices of the Paulis its hits splice in
    config = replace(SINUSOID, shots=64, noise_choice=True)
    plan = replace(build_plan(config), noise=NoiseParams(p1=p, p2=p))
    source = generate_circuits(build_model(config), plan)
    circuits, _ = compile_series(source, config)
    built = []
    for name in ("gate_matrix", "_embed"):
        original = getattr(spinchain.circuits, name)

        def counted(first, *args, _original=original, _name=name):
            built.append((_name, first))
            return _original(first, *args)

        monkeypatch.setattr(spinchain.circuits, name, counted)
    shared = simulate_series(circuits, plan)
    counts = run_noisy(circuits, plan.shots, plan.noise, plan.seed)
    monkeypatch.undo()
    fresh = replace(circuits)  # the same segments, fused anew
    assert shared == simulate_series(fresh, plan)
    assert np.array_equal(counts, run_noisy(fresh, plan.shots, plan.noise, plan.seed))
    paulis = {g.kind.value for name, g in built if name == "gate_matrix"}
    if p < 1e-6:  # no shot is hit: nothing is fused anew
        assert built == []
    else:
        assert paulis and paulis <= {"x", "y", "z"}


@pytest.mark.parametrize(
    "config", [CONSTANT, SINUSOID, replace(SINUSOID, compile_mode="none")],
    ids=["constant", "sinusoid", "uncompiled"],
)
def test_a_run_fuses_each_distinct_segment_once(tmp_path, monkeypatch, config):
    # each segment of the source series fused once and, when compiled, each
    # of the compiled series; the check and the simulation fuse none.  Every
    # fusion goes through fuse_group, so counting its lists counts segments
    # however they group
    distinct = len(generate_circuits(build_model(config), build_plan(config)).segments)
    fused = [0]
    original = spinchain.circuits.fuse_group

    def counted(lists, *args):
        fused[0] += len(lists)
        return original(lists, *args)

    monkeypatch.setattr(spinchain.circuits, "fuse_group", counted)
    run_workflow(config, str(tmp_path))
    assert fused[0] == distinct * (1 if config.compile_mode == "none" else 2)


@pytest.mark.parametrize("config", [CONSTANT, SINUSOID], ids=["constant", "sinusoid"])
def test_compile_report_equals_compiling_each_step_alone(tmp_path, config):
    artifacts = run_workflow(config, str(tmp_path))
    source = generate_circuits(build_model(config), build_plan(config))
    target = NativeTarget.from_name(config.backend)
    lines = ["compilation report", f"target: {config.backend}", f"mode: {config.compile_mode}", ""]
    for k in range(len(source)):
        _, report = compile_program(segment(source, k), target, config.compile_mode)
        lines += _format_report(k, report) + [""]
    with open(artifacts.report_path, encoding="utf-8") as handle:
        assert handle.read() == "\n".join(lines)
