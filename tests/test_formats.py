import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (
    ParseError,
    Program,
    emit_program,
    make_gate,
    parse_program,
)
from spinchain.formats import (
    DIALECTS,
    dialect_extension,
    emit_qasm,
    emit_quil,
    parse_qasm,
    parse_quil,
)
from helpers import programs_structurally_equal, random_program


def _program():
    return Program(
        2,
        (
            make_gate("h", [0]),
            make_gate("rz", [1], [math.pi / 2]),
            make_gate("sdg", [0]),
            make_gate("u1", [1], [0.25]),
            make_gate("cnot", [0, 1]),
        ),
    )


def test_qasm_golden_text():
    text = emit_qasm(_program())
    lines = text.strip().splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert 'include "qelib1.inc";' in lines[1]
    assert "qreg q[2];" in lines
    assert "creg c[2];" in lines
    assert "h q[0];" in lines
    assert "sdg q[0];" in lines
    assert "cx q[0],q[1];" in lines
    assert "measure q[0] -> c[0];" in lines
    assert "measure q[1] -> c[1];" in lines
    rz_line = next(l for l in lines if l.startswith("rz"))
    assert rz_line == f"rz({math.pi / 2:.17g}) q[1];"


def test_quil_golden_text():
    text = emit_quil(_program())
    lines = text.strip().splitlines()
    assert lines[0] == "DECLARE ro BIT[2]"
    assert "H 0" in lines
    # common angles stay symbolic
    assert "RZ(pi/2) 1" in lines
    assert "DAGGER S 0" in lines
    assert "PHASE(0.25) 1" in lines
    assert "CNOT 0 1" in lines
    assert "MEASURE 0 ro[0]" in lines
    assert "MEASURE 1 ro[1]" in lines


def test_quil_symbolic_angles():
    cases = {
        math.pi: "RX(pi) 0",
        -math.pi: "RX(-pi) 0",
        math.pi / 2: "RX(pi/2) 0",
        -math.pi / 2: "RX(-pi/2) 0",
    }
    for angle, expected in cases.items():
        text = emit_quil(Program(1, (make_gate("rx", [0], [angle]),)))
        assert expected in text
    # close-but-not-equal stays numeric
    text = emit_quil(Program(1, (make_gate("rx", [0], [math.pi + 1e-9]),)))
    assert "RX(pi)" not in text


@pytest.mark.parametrize("dialect", DIALECTS)
def test_round_trip_random_programs(dialect):
    rng = np.random.default_rng(67)
    for _ in range(100):
        num_qubits = int(rng.integers(1, 5))
        source = random_program(rng, num_qubits, int(rng.integers(0, 20)))
        text = emit_program(source, dialect)
        parsed = parse_program(text, dialect)
        assert parsed.num_qubits == source.num_qubits
        assert programs_structurally_equal(source, parsed)


def test_dialect_dispatch():
    with pytest.raises(ValueError):
        emit_program(_program(), "cirq")
    with pytest.raises(ValueError):
        parse_program("", "cirq")
    assert dialect_extension("qasm") == ".qasm"
    assert dialect_extension("quil") == ".quil"
    with pytest.raises(ValueError):
        dialect_extension("cirq")


# ---------------------------------------------------------------------------
# Angle expressions


@pytest.mark.parametrize(
    "expr,value",
    [
        ("pi/2", math.pi / 2),
        ("-pi", -math.pi),
        ("3*pi/4", 3 * math.pi / 4),
        ("(pi+1)/2", (math.pi + 1) / 2),
        ("1e-3", 1e-3),
        ("2", 2.0),
        ("-0.5", -0.5),
    ],
)
def test_angle_expressions_accepted(expr, value):
    program = parse_qasm(
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n" + f"rz({expr}) q[0];\n"
    )
    assert program.gates[0].angles[0] == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize(
    "expr",
    ["pi**2", "__import__('os')", "foo", "1/0", "pi(", "sin(1)", "pi pi"],
)
def test_angle_expressions_rejected(expr):
    with pytest.raises(ParseError) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n" + f"rz({expr}) q[0];\n")
    assert "line 4" in str(err.value)


# ---------------------------------------------------------------------------
# Parse errors carry line numbers


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("qreg q[1];\nh q[0];", 1),  # missing header
        ("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nt q[0];", 4),  # unknown gate
        ("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[3];", 4),  # index out of range
        ("OPENQASM 2.0;\nqreg q[1];\nqreg r[1];", 3),  # duplicate qreg
        ("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\ncx q[0],q[0];", 4),  # repeated qubit
        ("OPENQASM 2.0;\nqreg q[1];\nmeasure q[0] -> c[0];", 3),  # creg undeclared
        ("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nbarrier q;", 4),  # unsupported stmt
        ("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0]", 4),  # missing semicolon
    ],
)
def test_qasm_errors_have_line_numbers(text, line_no):
    with pytest.raises(ParseError) as err:
        parse_qasm(text)
    assert f"line {line_no}" in str(err.value)


def test_qasm_comments_and_blanks_ignored():
    text = (
        "// leading comment\n"
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "\n"
        "qreg q[1];\n"
        "creg c[1];\n"
        "h q[0]; // trailing comment\n"
    )
    program = parse_qasm(text)
    assert len(program.gates) == 1
    assert program.num_qubits == 1


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("DAGGER H 0", 1),  # DAGGER only wraps S
        ("FOO 0", 1),
        ("RZ(1) 0 1", 1),  # wrong arity
        ("CNOT 0", 1),
        ("RZ 0", 1),  # missing angle
        ("H(0.1) 0", 1),  # unexpected angle
        ("MEASURE ro[0] 0", 1),  # operands reversed
    ],
)
def test_quil_errors_have_line_numbers(text, line_no):
    with pytest.raises(ParseError) as err:
        parse_quil("DECLARE ro BIT[2]\n" + text)
    assert f"line {line_no + 1}" in str(err.value)


def test_quil_qubit_count_inference():
    # no DECLARE: sized by highest index
    program = parse_quil("H 0\nCNOT 0 2\n")
    assert program.num_qubits == 3
    # declared register larger than usage wins
    program = parse_quil("DECLARE ro BIT[5]\nH 0\n")
    assert program.num_qubits == 5
    # empty program still has one qubit
    assert parse_quil("").num_qubits == 1
    assert parse_quil("# only a comment\n").num_qubits == 1


def test_quil_comments_ignored():
    program = parse_quil("DECLARE ro BIT[1]\n# setup\nH 0 # flip\nMEASURE 0 ro[0]\n")
    assert len(program.gates) == 1


@settings(max_examples=80, deadline=None)
@given(
    st.floats(
        min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
    )
)
def test_angle_text_round_trip(angle):
    text = emit_qasm(Program(1, (make_gate("rz", [0], [angle]),)))
    parsed = parse_qasm(text)
    assert parsed.gates[0].angles[0] == pytest.approx(angle, abs=1e-12)
