"""Benchmark of `spinchain run` and `spinchain emit` on fixed workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's input file.  Operations run in cycles of
one `spinchain run`, followed on `long_series` by one
`spinchain emit --dialect qasm`, all called in-process through
`spinchain.cli.main`, until S seconds have passed.  Every output is
checked against the independent references in reference.py after the timed
loop, and negative controls confirm that each check rejects a corrupted
result.

With --trace 0 the last stdout line reports the end-to-end metrics, measured
with tracing off.  With --trace 1 the run first times a few operations with
tracing off, then traces at least two cycles and reports the
per-layer metrics.  The line before the result holds provenance and details;
the same record, with the spans of a traced run, is written under
`.perfbench_out/` in the checkout.

The program is imported from `src/` of the checkout this file sits in.
Without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # at or below the core count, and steadier than more
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
import tracing
from workloads import WORKLOADS, Chain

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7

_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import spinchain\n"
    "from spinchain.config import parse_input_file\n"
    "parse_input_file(sys.argv[2])\n"
    "print(repr(time.time()))\n"
)


def import_spinchain():
    package = SRC / "spinchain"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spinchain sources at {package}")
    sys.path.insert(0, str(SRC))
    import spinchain
    import spinchain.cli

    if Path(spinchain.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported spinchain from {spinchain.__file__}, not {package}")
    return spinchain


def measure_setup(input_path: Path) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    spinchain and parsed the input file."""
    start = time.time()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(input_path)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip()) - start


class Runner:
    """Runs operations through spinchain.cli.main and keeps their outputs."""

    def __init__(self, spinchain, workload, chain: Chain, input_path: Path, work: Path):
        self.cli = spinchain.cli
        self.kinds = ("run", "emit") if workload.emits else ("run",)
        self.chain = chain
        self.input = str(input_path)
        self.work = work
        self.ops: list[dict] = []
        self.tracer = None

    def op(self, kind: str) -> dict:
        if self.tracer is not None:
            self.tracer.start_op(len(self.ops))
        out_dir = self.work / f"{kind}_out"
        shutil.rmtree(out_dir, ignore_errors=True)
        if kind == "run":
            argv = ["run", self.input, "--output-dir", str(out_dir)]
        else:
            argv = ["emit", "--dialect", "qasm", self.input, str(out_dir)]
        sink = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = self.cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            status, error = None, repr(exc)
        seconds = time.perf_counter() - start
        record = {"kind": kind, "seconds": seconds, "status": status, "error": error}
        if status != 0:
            record["error"] = error or sink.getvalue()[-500:]
        else:
            try:
                record.update(self._collect(kind, out_dir))
            except (OSError, ValueError) as exc:
                record["error"] = repr(exc)
        self.ops.append(record)
        return record

    def _collect(self, kind: str, out_dir: Path) -> dict:
        if kind == "run":
            return {
                "values": ref.read_magnetizations(str(out_dir / "data"), self.chain),
                "data_dir": str(out_dir / "data"),
            }
        names = sorted(os.listdir(out_dir))
        expected = [f"circuit_{k:03d}.qasm" for k in range(self.chain.steps + 1)]
        if names != expected:
            raise ValueError(f"emit wrote {len(names)} files, expected {len(expected)}")
        return {"last_qasm": (out_dir / expected[-1]).read_text(encoding="utf-8")}


def timed_loop(
    runner: Runner, seconds: float, min_cycles: int, on_op=None, between=None
) -> None:
    """Repeat cycles (a run, then an emit where the workload emits) until
    `seconds` pass and `min_cycles` are done.  `between` runs before each
    cycle, outside the operations' timings."""
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < min_cycles or time.perf_counter() < deadline:
        if between is not None:
            between()
        for kind in runner.kinds:
            record = runner.op(kind)
            if on_op is not None:
                on_op(record)
        cycles += 1


class Checker:
    """Verifies operation outputs and runs the negative controls."""

    def __init__(self, spinchain, workload, chain: Chain, input_path: Path):
        self.workload = workload
        self.chain = chain
        config = spinchain.config.parse_input_file(str(input_path))
        self.config = config
        if workload.emits:
            programs, _ = spinchain.workflow.prepare_circuits(config)
            self.expected_last = ref.program_gates(programs[-1])
        self.ref = ref.product_formula_z(chain)
        self.swapped_ref = ref.product_formula_z(chain.swapped_couplings())
        self._qasm_ok: dict[str, bool] = {}

    def check_values(self, values: np.ndarray, against: np.ndarray) -> tuple[bool, float]:
        if self.workload.check == "exact":
            return ref.check_exact(values, against)
        return ref.check_hoeffding(values, against, self.chain.shots)

    def check_qasm(self, text: str) -> bool:
        if text not in self._qasm_ok:
            try:
                n, gates = ref.read_qasm(text)
                ok = n == self.chain.num_qubits and ref.same_program(gates, self.expected_last)
            except (ValueError, IndexError):
                ok = False
            self._qasm_ok[text] = ok
        return self._qasm_ok[text]

    def check_op(self, record: dict) -> bool:
        if record.get("error"):
            return False
        if record["kind"] == "run":
            ok, statistic = self.check_values(record["values"], self.ref)
            record["statistic"] = statistic
            return ok
        return self.check_qasm(record["last_qasm"])

    def emitted_physics(self, text: str) -> float:
        """Max |<Z>| difference between the emitted last circuit, simulated by
        the reference's own gate matrices, and the product-formula reference."""
        n, gates = ref.read_qasm(text)
        return float(np.max(np.abs(ref.final_z(gates, n) - self.ref[:, -1])))

    def negative_controls(self, run: dict) -> dict[str, bool]:
        """Each corrupted run result, and whether its check rejected it."""
        values = run["values"]
        perturbed = values.copy()
        mid = values.shape[1] // 2
        if self.workload.check == "exact":
            perturbed[0, mid] += 10 * ref.EXACT_TOL
        else:
            perturbed[0, mid] += 2 * ref.hoeffding_eps(self.chain.shots, values.size)
        return {
            "perturbed_magnetization": not self.check_values(perturbed, self.ref)[0],
            "swapped_couplings": not self.check_values(values, self.swapped_ref)[0],
        }

    def emit_negative_controls(self, emit: dict) -> dict[str, bool]:
        """Each corrupted emitted file, and whether its check rejected it."""
        text = emit["last_qasm"]
        lines = text.split("\n")
        bent = list(lines)
        i = [k for k, line in enumerate(lines) if "(" in line][-1]
        name, rest = bent[i].split("(", 1)
        angles, operands = rest.split(")", 1)
        first, *others = angles.split(",")
        bent[i] = f"{name}({','.join([repr(float(first) + 1e-10), *others])}){operands}"
        # The file ends with one measure line per qubit and a final newline.
        n = self.chain.num_qubits
        dropped_gate = "\n".join(lines[: len(lines) - n - 2] + lines[len(lines) - n - 1 :])
        return {
            "truncated_emit": not self.check_qasm(text[: len(text) // 2]),
            "dropped_last_gate_emit": not self.check_qasm(dropped_gate),
            "bent_emit_angle": not self.check_qasm("\n".join(bent)),
        }


def tail(samples: list[float]) -> tuple[float, dict]:
    """The largest sample, and the record of how the tail was taken.

    A run holds 4 to 9 samples of an operation, so no percentile has ten
    samples beyond it; the tail is the maximum, recorded with its count.
    """
    return max(samples), {"percentile": 100.0, "samples": len(samples)}


def provenance(args, chain: Chain) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    llc = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            text = fh.read().strip()
        llc = int(text[:-1]) * 1024 if text.endswith("K") else int(text)
    except (OSError, ValueError):
        pass
    state_bytes = (1 << chain.num_qubits) * 16
    largest = max((1 << w.make(args.seed).num_qubits) * 16 for w in WORKLOADS.values())
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinchain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "state_bytes": state_bytes,
        "bandwidth_note": (
            f"the largest state of any workload ({largest} B) is far below 4x LLC "
            f"({4 * llc} B), so the kernel runs from cache and no bandwidth ratio "
            "is reported; simulator.bytes_moved_computed is a computed count"
            if llc and largest < 4 * llc
            else "no bandwidth ratio is reported"
        ),
    }


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None  # not a git checkout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spinchain = import_spinchain()
    workload = WORKLOADS[args.workload]
    chain = workload.make(args.seed)

    work = WORK / f"{args.workload}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        input_path = work / "input.txt"
        input_path.write_text(chain.input_text(), encoding="utf-8")
        metrics, details, correct, attempted, failed = measure(
            spinchain, workload, chain, input_path, work, args
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    details["provenance"] = provenance(args, chain)
    details["failed_frac"] = failed / attempted
    OUT.mkdir(exist_ok=True)
    spans = details.pop("spans", None)
    record_path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({**details, "metrics": metrics, "spans": spans}, fh)
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def measure(spinchain, workload, chain, input_path, work, args):
    """(metrics, details, correct, attempted, failed) of one benchmark run."""
    runner = Runner(spinchain, workload, chain, input_path, work)
    if args.trace == 0:
        # Set-up samples are spread over the run, one before each cycle, so
        # that their median does not hang on the host's speed at one moment.
        setup: list[float] = []

        def sample_setup():
            if len(setup) < SETUP_REPEATS:
                setup.append(measure_setup(input_path))

        timed_loop(runner, args.seconds, min_cycles=1, between=sample_setup)
        while len(setup) < SETUP_REPEATS:
            sample_setup()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, attempted, failed, details = verify(spinchain, workload, chain, input_path, runner)
        run_s = [r["seconds"] for r in runner.ops if r["kind"] == "run"]
        run_tail, details["run_s_tail"] = tail(run_s)
        details.update(run_s_samples=run_s, setup_s_samples=setup)
        emit_s = [r["seconds"] for r in runner.ops if r["kind"] == "emit"]
        if emit_s:
            # Recorded, not gated: only long_series emits (see README.md).
            emit_tail, details["emit_s_tail"] = tail(emit_s)
            details["emit_s_tail"]["value"] = emit_tail
            details.update(emit_s=statistics.median(emit_s), emit_s_samples=emit_s)
        values = {
            "run_s": statistics.median(run_s),
            "run_s_tail": run_tail,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        return _with_units(values, "end_to_end"), details, correct, attempted, failed

    timed_loop(runner, args.seconds / 3, min_cycles=1)
    untraced_run_s = [r["seconds"] for r in runner.ops if r["kind"] == "run"]
    tracer = tracing.Tracer()
    tracing.install(tracer, spinchain)
    per_op = {kind: [] for kind in runner.kinds}
    traced_run_s = []

    def on_op(record):
        if record.get("error"):
            return
        op = len(runner.ops) - 1
        if record["kind"] == "run":
            traced_run_s.append(record["seconds"])
            per_op["run"].append(tracing.run_op_metrics(tracer, op, record["data_dir"]))
        else:
            per_op["emit"].append(tracing.emit_op_metrics(tracer, op))

    runner.tracer = tracer
    try:
        timed_loop(runner, args.seconds * 2 / 3, min_cycles=2, on_op=on_op)
    finally:
        tracer.close()
    correct, attempted, failed, details = verify(spinchain, workload, chain, input_path, runner)
    if not all(per_op.values()):
        raise SystemExit("perfbench: no traced operation succeeded")
    values = {"formats.emit_s": 0.0, "formats.bytes": 0}  # where nothing is emitted
    details["counts_repeat"] = True
    for ops in per_op.values():
        summary, repeat = tracing.summarize(ops)
        values.update(summary)
        details["counts_repeat"] = details["counts_repeat"] and repeat
    values["trotter.err"] = details.get("trotter_err", 0.0)
    values["trace.overhead_s"] = statistics.median(traced_run_s) - statistics.median(untraced_run_s)
    details.update(traced_run_s=traced_run_s, untraced_run_s=untraced_run_s)
    details["spans"] = [list(s) for s in tracer.spans]
    correct = correct and details["counts_repeat"]
    return _with_units(values, "per_layer"), details, correct, attempted, failed


def verify(spinchain, workload, chain, input_path, runner):
    """Check every operation, then the negative controls, after the timed loop."""
    checker = Checker(spinchain, workload, chain, input_path)
    verdicts = [checker.check_op(r) for r in runner.ops]
    attempted, failed = len(verdicts), verdicts.count(False)
    passed = [r for r, ok in zip(runner.ops, verdicts) if ok]
    good = {kind: next((r for r in passed if r["kind"] == kind), None) for kind in runner.kinds}
    details: dict = {
        "check": workload.check,
        "check_statistics": sorted({r["statistic"] for r in runner.ops if "statistic" in r}),
        "errors": [r["error"] for r in runner.ops if r.get("error")][:5],
    }
    if workload.check == "hoeffding":
        details["hoeffding_eps"] = ref.hoeffding_eps(
            chain.shots, chain.num_qubits * (chain.steps + 1)
        )
    if None in good.values():
        return False, attempted, failed, details
    controls = checker.negative_controls(good["run"])
    correct = failed == 0
    if workload.emits:
        controls.update(checker.emit_negative_controls(good["emit"]))
        physics = checker.emitted_physics(good["emit"]["last_qasm"])
        details["emitted_final_circuit_deviation"] = physics
        correct = correct and physics <= ref.EXACT_TOL
    details["negative_controls_rejected"] = controls
    if workload.check == "exact" and chain.num_qubits <= 8:
        details["trotter_err"] = trotter_error(spinchain, checker.config, good["run"]["values"])
    return correct and all(controls.values()), attempted, failed, details


def trotter_error(spinchain, config, values: np.ndarray) -> float:
    """max |<Z_q>(t) - exact_evolution| over sites and time points."""
    model = spinchain.workflow.build_model(config)
    plan = spinchain.workflow.build_plan(config)
    exact = np.array(spinchain.trotter.exact_evolution(model, plan).values)
    return float(np.max(np.abs(values - exact)))


def _with_units(values: dict, section: str) -> dict:
    """Attach each metric's unit from BENCHMARK.json, which must list exactly
    the metrics measured."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(units) != set(values):
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: {set(units) ^ set(values)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


if __name__ == "__main__":
    sys.exit(main())
