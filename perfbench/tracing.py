"""Spans and counts around the calls into spinchain's modules.

The tracer replaces public functions at the module attribute where the
caller looks them up (for example ``spinchain.workflow.simulate_series``,
which ``run_workflow`` calls), so the program itself is unchanged.  Spans
and counts stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    """Records (name, start, end, parent, op) spans and per-op counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._first: dict[int, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, module, attr: str, name: str, on_return=None) -> None:
        """Time every call to module.attr as a span called `name`.

        on_return(counts, args, result) may add counts for the current op.
        """
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if on_return is not None:
                on_return(self.counts[self.op], args, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def close(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def start_op(self, op: int) -> None:
        """Attribute the spans that follow to operation `op`."""
        self.op = op
        self._first[op] = len(self.spans)

    def op_spans(self, op: int) -> list[tuple[int, tuple]]:
        """(index, span) of every span of `op`; operations run one at a time."""
        first = self._first[op]
        return [(i, s) for i, s in enumerate(self.spans[first:], first) if s[4] == op]


def install(tracer: Tracer, spinchain) -> None:
    """Wrap the public entry points of each layer on the run and emit paths."""
    cli, workflow, compiler, simulator = (
        spinchain.cli, spinchain.workflow, spinchain.compiler, spinchain.simulator,
    )

    def on_generate(c, args, series):
        c["trotter.gates_held"] += sum(len(p.gates) for p in series)

    def on_compile(c, args, result):
        compiled, report = result
        c["compiler.programs"] += 1
        c["compiler.gates_in"] += len(args[0].gates)
        c["compiler.gates_out"] += len(compiled.gates)
        c["compiler.two_qubit_out"] += sum(len(g.qubits) == 2 for g in compiled.gates)
        c["compiler.verified"] += bool(report.equivalence_checked)

    def on_simulate(c, args, result):
        series, plan = args
        programs = list(series)
        c["simulator.num_qubits"] = plan.num_qubits
        c["simulator.final_gates"] += len(programs[-1].gates)
        noisy = plan.noise is not None and plan.shots > 0
        c["simulator.trajectories"] += plan.shots if noisy else 1

    def on_emit(c, args, text):
        c["formats.bytes"] += len(text.encode("utf-8"))

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "parse_input_file", "config.parse")
    tracer.wrap(cli, "run_workflow", "workflow.run")
    tracer.wrap(workflow, "generate_circuits", "trotter.generate", on_generate)
    tracer.wrap(workflow, "compile_program", "compiler.compile", on_compile)
    # circuits.program_unitary as called by the compiler's equivalence check
    tracer.wrap(compiler, "program_unitary", "compiler.verify")
    tracer.wrap(workflow, "simulate_series", "simulator.simulate", on_simulate)
    tracer.wrap(simulator, "apply_gate", "simulator.apply_gate")
    tracer.wrap(simulator, "expectation_z", "simulator.expect")
    tracer.wrap(simulator, "sample_counts", "simulator.sample")
    # circuits.gate_counts as called while writing run.log
    tracer.wrap(workflow, "gate_counts", "workflow.log_counts")
    tracer.wrap(workflow, "render_svg", "plotting.render")
    tracer.wrap(workflow, "emit_program", "formats.emit", on_emit)


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f)) for root, _, files in os.walk(path) for f in files
    )


def run_op_metrics(tracer: Tracer, op: int, data_dir: str) -> tuple[dict, dict]:
    """(values, counts) of one traced `run`.

    Values are seconds spent in each layer and ratios; the benchmark reports
    their median over the traced runs.  Counts must repeat exactly between
    runs of the same input.
    """
    spans = tracer.op_spans(op)
    c = tracer.counts[op]
    total = defaultdict(float)
    child_time = defaultdict(float)
    for _, (name, start, end, parent, _) in spans:
        total[name] += end - start
        child_time[parent] += end - start

    def self_time(name):
        return sum(end - start - child_time[i] for i, (n, start, end, _, _) in spans if n == name)

    apps = sum(1 for _, s in spans if s[0] == "simulator.apply_gate")
    n = c["simulator.num_qubits"]
    per_program = c["simulator.final_gates"] * c["simulator.trajectories"]
    counts = {
        "trotter.gates_held": c["trotter.gates_held"],
        "compiler.verify_calls": sum(1 for _, s in spans if s[0] == "compiler.verify"),
        "compiler.gates_out": c["compiler.gates_out"],
        "compiler.two_qubit_out": c["compiler.two_qubit_out"],
        "simulator.gate_apps": apps,
        "workflow.bytes_written": _dir_bytes(data_dir),
    }
    values = {
        "config.parse_s": total["config.parse"],
        "trotter.generate_s": total["trotter.generate"],
        "compiler.compile_s": total["compiler.compile"],
        "compiler.verify_s": total["compiler.verify"],
        "compiler.verified_frac": _ratio(c["compiler.verified"], c["compiler.programs"]),
        "compiler.out_per_in": _ratio(c["compiler.gates_out"], c["compiler.gates_in"]),
        "simulator.simulate_s": total["simulator.simulate"],
        "simulator.us_per_gate_app": _ratio(total["simulator.apply_gate"] * 1e6, apps),
        "simulator.bytes_moved_computed": apps * 2 * (1 << n) * 16 if apps else 0,
        "simulator.replay_ratio": _ratio(apps, per_program),
        "simulator.expect_s": total["simulator.expect"],
        "simulator.sample_s": total["simulator.sample"],
        "workflow.self_s": self_time("workflow.run"),
        "workflow.log_counts_s": total["workflow.log_counts"],
        "plotting.render_s": total["plotting.render"],
        "cli.self_s": self_time("cli.main"),
    }
    return values, counts


def emit_op_metrics(tracer: Tracer, op: int) -> tuple[dict, dict]:
    """(values, counts) of one traced `emit`."""
    spans = tracer.op_spans(op)
    emit_s = sum(s[2] - s[1] for _, s in spans if s[0] == "formats.emit")
    return {"formats.emit_s": emit_s}, {"formats.bytes": tracer.counts[op]["formats.bytes"]}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def summarize(per_op: list[tuple[dict, dict]]) -> tuple[dict, bool]:
    """Median of each value over the ops, the counts of the first op, and
    whether every op repeated those counts exactly."""
    values = {k: statistics.median(v[k] for v, _ in per_op) for k in per_op[0][0]}
    counts = per_op[0][1]
    return {**values, **counts}, all(c == counts for _, c in per_op)
