"""Command line interface.

Subcommands:

  run      simulate an input file and write CSV/plot/log artifacts
  compile  translate a single circuit file to a native gate set
  emit     write the generated circuit series as QASM or Quil files

Exit codes: 0 on success, 1 for usage/configuration/input problems, 2 for
internal failures.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .circuits import GateError
from .compiler import CompileError, NativeTarget, compile_program
from .config import ConfigError, parse_input_file
from .formats import DIALECTS, ParseError, emit_program, parse_program
from .simulator import SimulationError
from .workflow import emit_series, prepare_circuits, run_workflow


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this project reserves 2 for
    # internal failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built once per process; main looks up the handler at each call
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="spinchain",
        description="Trotterized spin-chain dynamics on a local statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    run = sub.add_parser("run", help="simulate an input file and write artifacts")
    run.add_argument("input_file", help="key = value configuration file")
    run.add_argument(
        "--output-dir",
        default=".",
        help="directory that will contain data/ (default: current directory)",
    )

    comp = sub.add_parser("compile", help="compile one circuit file to a native gate set")
    comp.add_argument("--dialect", choices=DIALECTS, required=True)
    comp.add_argument("--target", choices=["ibm", "rigetti"], required=True)
    comp.add_argument(
        "--ds",
        action="store_true",
        help="run the optimizing domain-specific pipeline instead of plain lowering",
    )
    comp.add_argument("input", help="circuit file to read")
    comp.add_argument("output", help="path for the compiled circuit")

    emit = sub.add_parser("emit", help="write the generated circuit series to files")
    emit.add_argument("--dialect", choices=DIALECTS, required=True)
    emit.add_argument("input_file", help="key = value configuration file")
    emit.add_argument("outdir", help="directory for the circuit files")

    return parser


def _cmd_run(args) -> int:
    config = parse_input_file(args.input_file)
    artifacts = run_workflow(config, args.output_dir)
    for note in artifacts.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"wrote {len(artifacts.csv_paths)} magnetization series under {artifacts.data_dir}")
    if artifacts.plot_path:
        print(f"plot: {artifacts.plot_path}")
    if artifacts.report_path:
        print(f"compile report: {artifacts.report_path}")
    print(f"log: {artifacts.log_path}")
    return 0


def _cmd_compile(args) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read(), args.dialect)
    target = NativeTarget.from_name(args.target)
    mode = "domain_specific" if args.ds else "generic"
    compiled, report = compile_program(program, target, mode)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(emit_program(compiled, args.dialect))
    print(
        f"compiled {report.input_counts.total} -> {report.output_counts.total} gates "
        f"for {args.target} ({mode})"
    )
    print(report.fidelity_line())
    print(f"wrote {args.output}")
    return 0


def _cmd_emit(args) -> int:
    config = parse_input_file(args.input_file)
    circuits, _ = prepare_circuits(config)
    paths = emit_series(circuits, args.dialect, args.outdir)
    print(f"wrote {len(paths)} circuit files to {args.outdir}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return {"run": _cmd_run, "compile": _cmd_compile, "emit": _cmd_emit}[args.command](args)
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GateError, SimulationError, CompileError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
