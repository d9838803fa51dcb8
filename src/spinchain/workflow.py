"""End-to-end orchestration: configuration to circuits to files on disk.

A run writes results under `<output_dir>/data/`:

  qubit_<q>_magnetization.csv   one row per time point, 17 significant digits
  plot.svg                      all traces, unless plotting is disabled
  compile_report.txt            only when a compile mode is selected; one
                                entry per step, each distinct step segment
                                compiled and checked once

Everything in data/ is byte-deterministic for a given configuration.  The
run log (config echo, gate counts, mode, wall-clock timings) cannot be, so
it lives next to data/ as `<output_dir>/run.log` and is appended per run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields

from .circuits import gate_counts
from .compiler import CompileReport, NativeTarget, compile_segments
from .compiler import compile_program  # noqa: F401 - wrapped here by perfbench/tracing.py
from .config import RunConfig, load_field_samples
from .formats import dialect_extension, emit_program
from .hamiltonian import HBAR_EV_FS, FieldProfile, HeisenbergModel
from .plotting import render_svg
from .simulator import MagnetizationSeries, NoiseParams, simulate_series
from .trotter import CircuitSeries, SimulationPlan, generate_circuits


def build_model(config: RunConfig) -> HeisenbergModel:
    if config.time_dep_flag and config.custom_time_dep:
        field = FieldProfile(mode="tabulated", samples=load_field_samples(config.custom_time_dep))
    elif config.time_dep_flag:
        field = FieldProfile(mode="sinusoid", amplitude=config.h_ext, frequency=config.freq)
    else:
        field = FieldProfile(mode="constant", amplitude=config.h_ext)
    hbar = HBAR_EV_FS if config.units == "ev_fs" else 1.0
    return HeisenbergModel(
        jx=config.jx,
        jy=config.jy,
        jz=config.jz,
        field=field,
        field_axis=config.ext_dir,
        hbar=hbar,
    )


def build_plan(config: RunConfig) -> SimulationPlan:
    return SimulationPlan(
        num_qubits=config.num_qubits,
        initial_spins=config.initial_spins,
        delta_t=config.delta_t,
        steps=config.steps,
        shots=config.shots,
        noise=NoiseParams() if config.noise_choice else None,
        seed=config.seed,
    )


def prepare_circuits(
    config: RunConfig,
) -> tuple[CircuitSeries, tuple[CompileReport, ...] | None]:
    """Generate the Trotter series, compiling it when the config asks for it."""
    return compile_series(generate_circuits(build_model(config), build_plan(config)), config)


def compile_series(
    circuits: CircuitSeries, config: RunConfig
) -> tuple[CircuitSeries, tuple[CompileReport, ...] | None]:
    """Compile and check each distinct step segment once, when the config asks.

    Each step segment is compiled on its own, so no rewrite crosses a step
    mark and every compiled circuit is the compiled prefix of its source;
    one ``compile_segments`` call checks them all through the blocks each
    series fused, and the compiled series carries its blocks on to the
    simulation.  A repeated step reuses its segment's compiled program and
    report, so the reports hold one entry per step.
    """
    if config.compile_mode == "none":
        return circuits, None
    target = NativeTarget.from_name(config.backend)
    series, reports = compile_segments(circuits, target, config.compile_mode)
    return series, tuple(reports[k] for k in circuits.order)


@dataclass(frozen=True)
class RunArtifacts:
    series: MagnetizationSeries
    data_dir: str
    csv_paths: tuple[str, ...]
    plot_path: str | None
    log_path: str
    report_path: str | None
    notes: tuple[str, ...]


def _mode_description(plan: SimulationPlan) -> str:
    if plan.shots == 0:
        return "exact statevector expectation values"
    if plan.noise is None:
        return f"sampled estimates, {plan.shots} shots per circuit"
    return (
        f"sampled estimates with depolarizing noise, {plan.shots} shots per circuit, "
        f"p1={plan.noise.p1:g}, p2={plan.noise.p2:g}"
    )


def _format_report(index: int, report: CompileReport) -> list[str]:
    lines = [f"step {index}:"]
    lines.append(f"  input:  {report.input_counts.total} gates")
    lines.append(f"  output: {report.output_counts.total} gates")
    lines.append("  passes:")
    for name, delta in report.passes_applied:
        lines.append(f"    {name}: {delta:+d}")
    lines.append(f"  {report.fidelity_line()}")
    return lines


def run_workflow(config: RunConfig, output_dir: str) -> RunArtifacts:
    notes = []
    if config.qcqs == "computer":
        notes.append(
            "QCQS = computer requested, but no hardware connection exists in this "
            "build; sampling on the local simulator instead."
        )

    plan = build_plan(config)
    timings: list[tuple[str, float]] = []

    started = time.perf_counter()
    circuits = generate_circuits(build_model(config), plan)
    timings.append(("generate", time.perf_counter() - started))

    started = time.perf_counter()
    circuits, reports = compile_series(circuits, config)
    timings.append(("compile", time.perf_counter() - started))

    started = time.perf_counter()
    series = simulate_series(circuits, plan)
    timings.append(("simulate", time.perf_counter() - started))

    started = time.perf_counter()
    data_dir = os.path.join(output_dir, "data")
    os.makedirs(data_dir, exist_ok=True)

    stamps = [f"{t:.17g}," for t in series.times]  # each time point formatted once
    csv_paths = []
    for q, row in enumerate(series.values):
        path = os.path.join(data_dir, f"qubit_{q}_magnetization.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("t,magnetization\n" + "".join([f"{s}{m:.17g}\n" for s, m in zip(stamps, row)]))
        csv_paths.append(path)

    plot_path = None
    if config.plot_flag:
        plot_path = os.path.join(data_dir, "plot.svg")
        with open(plot_path, "w", encoding="utf-8") as handle:
            handle.write(render_svg(series))

    report_path = None
    if reports is not None:
        report_path = os.path.join(data_dir, "compile_report.txt")
        lines = [
            "compilation report",
            f"target: {config.backend}",
            f"mode: {config.compile_mode}",
            "",
        ]
        for index, report in enumerate(reports):
            lines.extend(_format_report(index, report))
            lines.append("")
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
    timings.append(("write", time.perf_counter() - started))

    log_path = os.path.join(output_dir, "run.log")
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write("spin-chain simulation run\n\nconfiguration:\n")
        for field in fields(config):
            value = getattr(config, field.name)
            if field.name == "initial_spins" and value is None:
                value = "all up (default)"
            handle.write(f"  {field.name} = {value}\n")
        handle.write(f"\nmode: {_mode_description(plan)}\n")
        handle.write(f"circuits: {len(circuits)} programs on {plan.num_qubits} qubits\n")
        counts = [gate_counts(segment) for segment in circuits.segments]
        single = two = 0
        for index, k in enumerate(circuits.order):
            single += counts[k].single_qubit
            two += counts[k].two_qubit
            handle.write(
                f"  circuit {index}: {single + two} gates "
                f"({single} single-qubit, {two} two-qubit)\n"
            )
        for note in notes:
            handle.write(f"\nnote: {note}\n")
        handle.write("\ntimings:\n")
        for name, seconds in timings:
            handle.write(f"  {name}: {seconds:.3f} s\n")
        handle.write("-" * 60 + "\n")

    return RunArtifacts(
        series=series,
        data_dir=data_dir,
        csv_paths=tuple(csv_paths),
        plot_path=plot_path,
        log_path=log_path,
        report_path=report_path,
        notes=tuple(notes),
    )


def emit_series(circuits: CircuitSeries, dialect: str, out_dir: str) -> tuple[str, ...]:
    """Write one circuit file per circuit, named circuit_<index>.<ext>."""
    os.makedirs(out_dir, exist_ok=True)
    extension = dialect_extension(dialect)
    paths = []
    for index, program in enumerate(circuits):
        path = os.path.join(out_dir, f"circuit_{index:03d}{extension}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(emit_program(program, dialect))
        paths.append(path)
    return tuple(paths)
