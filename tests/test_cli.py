import os
from pathlib import Path

import pytest

from spinchain import SimulationError, parse_program, workflow
from spinchain.cli import main

TFIM_INPUT = """\
Jz = 1.0
h_ext = 2.0
ext_dir = x
num_qubits = 2
delta_t = 0.1
steps = 3
"""


@pytest.fixture
def input_file(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text(TFIM_INPUT)
    return str(path)


SAMPLES = sorted((Path(__file__).resolve().parents[1] / "sample_inputs").glob("*.txt"))


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda path: path.stem)
def test_every_sample_input_runs_and_emits(tmp_path, sample):
    assert main(["run", str(sample), "--output-dir", str(tmp_path / "out")]) == 0
    for path in sorted((tmp_path / "out" / "data").glob("qubit_*_magnetization.csv")):
        rows = path.read_text().splitlines()[1:]
        assert rows and all(-1.0 <= float(row.split(",")[1]) <= 1.0 for row in rows)
    for dialect in ("qasm", "quil"):
        assert main(["emit", "--dialect", dialect, str(sample), str(tmp_path / dialect)]) == 0


def test_run_success(tmp_path, input_file, capsys):
    code = main(["run", input_file, "--output-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote 2 magnetization series" in out
    data = tmp_path / "out" / "data"
    assert (data / "qubit_0_magnetization.csv").exists()
    assert (data / "plot.svg").exists()
    assert (tmp_path / "out" / "run.log").exists()


def test_run_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("Jz = not-a-number\n")
    assert main(["run", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_missing_file_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "Jx = 1e300\ndelta_t = 1e300\nnum_qubits = 2\n",
        "Jz = 1.0\nh_ext = 1e308\nnum_qubits = 2\ndelta_t = 10\nsteps = 1\n",
    ],
    ids=["coupling", "field"],
)
def test_run_overflowing_angle_exits_1(tmp_path, capsys, text):
    path = tmp_path / "overflow.txt"
    path.write_text(text)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "angle overflows" in err


def test_run_negative_seed_exits_1_before_writing(tmp_path, capsys):
    path = tmp_path / "seed.txt"
    path.write_text(TFIM_INPUT + "shots = 10\nseed = -3\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (out / "data").exists()


def test_internal_simulation_error_exits_2(tmp_path, input_file, monkeypatch, capsys):
    def broken(series, plan, **kwargs):
        raise SimulationError("kernel produced an unnormalized state")

    monkeypatch.setattr(workflow, "simulate_series", broken)
    assert main(["run", input_file, "--output-dir", str(tmp_path / "out")]) == 2
    assert "internal error: kernel produced" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--dialect", "qasm", "--target", "google", "a", "b"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize("dialect", ["qasm", "quil"])
def test_emit_then_compile_round_trip(tmp_path, input_file, dialect, capsys):
    outdir = tmp_path / "circuits"
    assert main(["emit", "--dialect", dialect, input_file, str(outdir)]) == 0
    assert "wrote 4 circuit files" in capsys.readouterr().out
    files = sorted(os.listdir(outdir))
    assert files[0] == f"circuit_000.{dialect}"
    assert len(files) == 4

    source = str(outdir / files[-1])
    compiled = str(tmp_path / f"compiled.{dialect}")
    code = main(
        ["compile", "--dialect", dialect, "--target", "ibm", "--ds", source, compiled]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "equivalence fidelity: 1.000000000000" in out
    with open(compiled, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read(), dialect)
    allowed = {"u1", "u2", "u3", "cnot"}
    assert {g.kind.value for g in program.gates} <= allowed


def test_compile_rejects_malformed_circuit(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nt q[0];\n")
    out = str(tmp_path / "out.qasm")
    code = main(["compile", "--dialect", "qasm", "--target", "ibm", str(bad), out])
    assert code == 1
    assert "line 4" in capsys.readouterr().err


def test_compile_generic_mode(tmp_path, capsys):
    circuit = tmp_path / "in.quil"
    circuit.write_text("DECLARE ro BIT[1]\nH 0\nH 0\n")
    out = str(tmp_path / "out.quil")
    code = main(["compile", "--dialect", "quil", "--target", "rigetti", str(circuit), out])
    assert code == 0
    with open(out, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read(), "quil")
    # plain lowering keeps both hadamards (3 native gates each)
    assert len(program.gates) == 6


def test_compile_above_ten_qubits_is_checked(tmp_path, capsys):
    circuit = tmp_path / "wide.quil"
    circuit.write_text("DECLARE ro BIT[11]\nH 10\nCNOT 0 10\nH 10\n")
    out = str(tmp_path / "out.quil")
    for flags in ([], ["--ds"]):
        code = main(
            ["compile", "--dialect", "quil", "--target", "ibm", *flags, str(circuit), out]
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[1] == "equivalence fidelity: 1.000000000000"
    # wider than the simulator: refused up front, as an input error
    circuit.write_text("DECLARE ro BIT[25]\nH 24\n")
    code = main(["compile", "--dialect", "quil", "--target", "ibm", str(circuit), out])
    assert code == 1
    assert "error: cannot check a compile on 25 qubits" in capsys.readouterr().err


def test_main_runs_a_handler_patched_after_the_first_call(tmp_path, input_file, monkeypatch):
    from spinchain import cli

    assert main(["run", input_file, "--output-dir", str(tmp_path / "out")]) == 0
    seen = []
    monkeypatch.setattr(cli, "_cmd_run", lambda args: seen.append(args.input_file) or 0)
    assert main(["run", input_file]) == 0
    assert seen == [input_file]
