import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spinchain import (
    HBAR_EV_FS,
    RunConfig,
    parse_program,
    run_workflow,
)
from spinchain import workflow
from spinchain.config import parse_input_file
from spinchain.simulator import MagnetizationSeries
from spinchain.workflow import (
    build_model,
    build_plan,
    emit_series,
    prepare_circuits,
)
from helpers import magnetization_csv_oracle, svg_points_oracle


SAMPLES = Path(__file__).resolve().parents[1] / "sample_inputs"


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_build_model_constant_field():
    config = RunConfig(jx=1.0, h_ext=0.5, ext_dir="z")
    model = build_model(config)
    assert model.field.mode == "constant"
    assert model.field.amplitude == 0.5
    assert model.field_axis == "z"
    assert model.hbar == 1.0


def test_build_model_sinusoid_field():
    config = RunConfig(h_ext=2.0, time_dep_flag=True, freq=0.25)
    model = build_model(config)
    assert model.field.mode == "sinusoid"
    assert model.field.amplitude == 2.0
    assert model.field.frequency == 0.25


def test_build_model_tabulated_field(tmp_path):
    drive = tmp_path / "drive.csv"
    drive.write_text("0.0,1.0\n1.0,0.0\n")
    config = RunConfig(time_dep_flag=True, custom_time_dep=str(drive))
    model = build_model(config)
    assert model.field.mode == "tabulated"
    assert model.field.samples == ((0.0, 1.0), (1.0, 0.0))


def test_build_model_physical_units():
    model = build_model(RunConfig(units="ev_fs"))
    assert model.hbar == HBAR_EV_FS


def test_build_plan_noise_mapping():
    plan = build_plan(RunConfig(shots=100, noise_choice=True, seed=5))
    assert plan.noise is not None
    assert plan.shots == 100
    assert plan.seed == 5
    assert build_plan(RunConfig()).noise is None


def test_prepare_circuits_compiles_when_asked():
    config = RunConfig(jz=1.0, h_ext=2.0, num_qubits=2, steps=2)
    circuits, reports = prepare_circuits(config)
    assert reports is None
    assert len(circuits) == 3
    compiled, reports = prepare_circuits(
        RunConfig(
            jz=1.0, h_ext=2.0, num_qubits=2, steps=2,
            backend="ibm", compile_mode="domain_specific",
        )
    )
    assert reports is not None and len(reports) == 3
    # compiled series is never longer than the raw one
    for raw, out in zip(circuits, compiled):
        assert len(out) <= len(raw)


@pytest.fixture
def tfim_config():
    return RunConfig(
        jz=1.0,
        h_ext=2.0,
        ext_dir="x",
        num_qubits=3,
        initial_spins=("up", "down", "up"),
        delta_t=0.1,
        steps=4,
    )


def test_run_workflow_artifacts(tmp_path, tfim_config):
    artifacts = run_workflow(tfim_config, str(tmp_path))
    assert artifacts.data_dir == str(tmp_path / "data")
    assert len(artifacts.csv_paths) == 3
    for q, path in enumerate(artifacts.csv_paths):
        assert os.path.basename(path) == f"qubit_{q}_magnetization.csv"
        lines = _read(path).decode().splitlines()
        assert lines[0] == "t,magnetization"
        assert len(lines) == 1 + tfim_config.steps + 1  # header + series points
        # file contents match the in-memory series exactly
        for line, t, m in zip(lines[1:], artifacts.series.times, artifacts.series.values[q]):
            assert line == f"{t:.17g},{m:.17g}"
    assert artifacts.plot_path is not None
    svg = _read(artifacts.plot_path).decode()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "qubit 2" in svg
    # the log records timings, so it lives outside the deterministic data/
    assert artifacts.log_path == str(tmp_path / "run.log")
    log = _read(artifacts.log_path).decode()
    assert "delta_t = 0.1" in log
    assert "exact statevector" in log
    assert "circuit 4" in log
    # generation and compilation are timed apart
    timed = [line.split(":")[0].strip() for line in log.split("timings:\n")[1].splitlines()[:4]]
    assert timed == ["generate", "compile", "simulate", "write"]
    assert artifacts.report_path is None


def test_run_workflow_deterministic_outputs(tmp_path, tfim_config):
    first = run_workflow(tfim_config, str(tmp_path / "a"))
    second = run_workflow(tfim_config, str(tmp_path / "b"))
    for p1, p2 in zip(first.csv_paths, second.csv_paths):
        assert _read(p1) == _read(p2)
    assert _read(first.plot_path) == _read(second.plot_path)
    # a noisy run, as sample_inputs/noisy_chain.txt: every file of data/ again
    noisy = parse_input_file(str(SAMPLES / "noisy_chain.txt"))
    data = [run_workflow(noisy, str(tmp_path / run)).data_dir for run in ("c", "d")]
    files = [sorted(os.listdir(d)) for d in data]
    assert files[0] == files[1] and "plot.svg" in files[0]
    assert all(_read(os.path.join(data[0], f)) == _read(os.path.join(data[1], f)) for f in files[0])


def test_run_log_is_appended_per_run(tmp_path, tfim_config):
    run_workflow(tfim_config, str(tmp_path))
    once = _read(str(tmp_path / "run.log"))
    run_workflow(tfim_config, str(tmp_path))
    twice = _read(str(tmp_path / "run.log"))
    assert twice.startswith(once)
    assert len(twice) > len(once)


def test_run_workflow_plot_disabled(tmp_path, tfim_config):
    config = replace(tfim_config, plot_flag=False)
    artifacts = run_workflow(config, str(tmp_path))
    assert artifacts.plot_path is None
    assert not os.path.exists(os.path.join(artifacts.data_dir, "plot.svg"))


def test_run_workflow_compile_report(tmp_path, tfim_config):
    config = replace(tfim_config, backend="rigetti", compile_mode="domain_specific")
    artifacts = run_workflow(config, str(tmp_path))
    report = _read(artifacts.report_path).decode()
    assert "target: rigetti" in report
    assert "mode: domain_specific" in report
    assert "lower_generic" in report
    assert "equivalence fidelity: 1.000000000000" in report


def test_run_workflow_sampled_mode(tmp_path, tfim_config):
    config = replace(tfim_config, shots=200, seed=3)
    artifacts = run_workflow(config, str(tmp_path))
    assert "200 shots" in _read(artifacts.log_path).decode()
    assert np.all(np.abs(np.asarray(artifacts.series.values)) <= 1.0)


def test_run_workflow_hardware_request_falls_back(tmp_path, tfim_config):
    config = replace(tfim_config, qcqs="computer", shots=50)
    artifacts = run_workflow(config, str(tmp_path))
    assert artifacts.notes
    assert "local simulator" in artifacts.notes[0]
    assert "note:" in _read(artifacts.log_path).decode()


def test_run_workflow_single_spin_physics(tmp_path):
    # free spin in an x field rotates as cos(2 h t) in z magnetization
    config = RunConfig(
        h_ext=1.0, ext_dir="x", num_qubits=1, delta_t=0.05, steps=40
    )
    artifacts = run_workflow(config, str(tmp_path))
    times = np.asarray(artifacts.series.times)
    values = np.asarray(artifacts.series.values[0])
    assert np.max(np.abs(values - np.cos(2 * times))) < 1e-9


@pytest.mark.parametrize("dialect", ["qasm", "quil"])
def test_emit_series_files_parse_back(tmp_path, dialect, tfim_config):
    circuits, _ = prepare_circuits(tfim_config)
    paths = emit_series(circuits, dialect, str(tmp_path / "out"))
    assert len(paths) == len(circuits)
    assert os.path.basename(paths[0]) == f"circuit_000.{dialect}"
    for path, program in zip(paths, circuits):
        parsed = parse_program(_read(path).decode(), dialect)
        assert len(parsed.gates) == len(program.gates)
        assert parsed.num_qubits == program.num_qubits


def _magnetizations(artifacts):
    # per qubit, the (t, m) rows of its csv
    rows = []
    for path in artifacts.csv_paths:
        lines = _read(path).decode().splitlines()
        assert lines[0] == "t,magnetization"
        rows.append([tuple(map(float, line.split(","))) for line in lines[1:]])
    return rows


@pytest.mark.parametrize("compile_mode", ["none", "domain_specific"])
def test_run_with_no_steps_is_the_initial_state(tmp_path, compile_mode):
    config = RunConfig(
        jz=1.0, h_ext=1.0, num_qubits=3, initial_spins=("down", "up", "down"), steps=0,
        backend="ibm", compile_mode=compile_mode,
    )
    artifacts = run_workflow(config, str(tmp_path))
    assert [_read(p) for p in artifacts.csv_paths] == [
        b"t,magnetization\n0,-1\n", b"t,magnetization\n0,1\n", b"t,magnetization\n0,-1\n",
    ]
    if compile_mode != "none":
        report = _read(artifacts.report_path).decode()
        assert report.count("step ") == 1
        assert "step 0:\n  input:  2 gates\n" in report


@pytest.mark.parametrize("compile_mode", ["none", "domain_specific"])
def test_run_from_all_up_has_an_empty_prep_segment(tmp_path, compile_mode):
    # all up is an eigenstate of the isotropic chain and of a z field
    config = RunConfig(
        jx=1.0, jy=1.0, jz=1.0, h_ext=0.7, ext_dir="z", num_qubits=3, steps=4,
        backend="rigetti", compile_mode=compile_mode,
    )
    artifacts = run_workflow(config, str(tmp_path))
    for row in _magnetizations(artifacts):
        assert [t for t, _ in row] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4], abs=1e-15)
        assert max(abs(m - 1.0) for _, m in row) <= 1e-12
    if compile_mode != "none":
        report = _read(artifacts.report_path).decode()
        assert report.count("step ") == 5
        assert "step 0:\n  input:  0 gates\n  output: 0 gates\n" in report


@pytest.mark.parametrize("compile_mode", ["none", "domain_specific"])
def test_run_with_zero_field_has_no_field_layer(tmp_path, compile_mode):
    # one XX+YY bond from |up down>: the Trotter step is exact, m0(t) = cos(4t)
    config = RunConfig(
        jx=1.0, jy=1.0, h_ext=0.0, num_qubits=2, initial_spins=("up", "down"),
        delta_t=0.1, steps=6, backend="ibm", compile_mode=compile_mode,
    )
    artifacts = run_workflow(config, str(tmp_path))
    first, second = _magnetizations(artifacts)
    for (t, m0), (_, m1) in zip(first, second, strict=True):
        assert abs(m0 - np.cos(4 * t)) <= 1e-12
        assert abs(m1 + np.cos(4 * t)) <= 1e-12
    if compile_mode != "none":
        report = _read(artifacts.report_path).decode()
        assert report.count("step ") == 7
        # two CNOTs between quarter turns, no field
        assert report.count("  input:  8 gates\n") == 6


def test_compiled_sixteen_qubit_run_checks_every_step(tmp_path):
    config = RunConfig(
        jx=1.0, jy=0.8, jz=0.5, h_ext=1.0, time_dep_flag=True, freq=0.25, num_qubits=16,
        initial_spins=("up",) * 8 + ("down",) * 8, delta_t=0.05, steps=3,
        backend="ibm", compile_mode="domain_specific", plot_flag=False,
    )
    artifacts = run_workflow(config, str(tmp_path))
    with open(artifacts.report_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    checked = [line for line in lines if "equivalence fidelity" in line]
    assert checked == ["  equivalence fidelity: 1.000000000000"] * (config.steps + 1)


# values on the edges of the formats: signed zero, the ends of the range,
# 3-decimal rounding ties of m, values whose SVG y falls on a .xxx5 edge (a
# reordered product of the y map prints 49.940 for the first, not 49.941),
# and the smallest normal and subnormal floats
EDGE_VALUES = (
    -0.0, 0.0, 1.0, -1.0, 0.0005, 0.1235, -0.6785, 0.9995,
    0.9950500000000001, 0.8848552631578948, 0.8586184210526316,
    2.2250738585072014e-308, 5e-324,
)


@pytest.mark.parametrize("grid", ["steps", "random", "one_point"])
def test_data_files_equal_value_by_value_formatting(tmp_path, monkeypatch, grid):
    rng = np.random.default_rng(59)
    if grid == "steps":  # the long_series grid: t = k * 0.0125
        times = tuple(k * 0.0125 for k in range(161))
    elif grid == "random":
        times = tuple(np.sort(rng.uniform(0.0, 40.0, 97)).tolist())
    else:
        times = (0.25,)
    rows = [rng.uniform(-1.0, 1.0, len(times)).tolist() for _ in range(3)]
    rows.append([EDGE_VALUES[k % len(EDGE_VALUES)] for k in range(len(times))])
    series = MagnetizationSeries(times, tuple(map(tuple, rows)))
    monkeypatch.setattr(workflow, "simulate_series", lambda circuits, plan: series)
    artifacts = run_workflow(RunConfig(num_qubits=2, steps=2), str(tmp_path))
    assert len(artifacts.csv_paths) == len(rows)
    for path, row in zip(artifacts.csv_paths, rows):
        assert _read(path).decode() == magnetization_csv_oracle(times, row)
    svg = _read(artifacts.plot_path).decode()
    assert re.findall(r'<polyline points="([^"]*)"', svg) == [svg_points_oracle(times, row) for row in rows]
