"""Text emitters and parsers for circuit exchange formats.

Two dialects are supported: OpenQASM 2.0 and Quil.  The emitters write one
statement per line and end with a full-register measurement; the parsers
accept the same subset, validate it strictly, and report failures with the
offending line number.  Measurement statements are checked for shape but do
not appear in the returned program, since every program here measures all
qubits at the end anyway.

Quil has no standard PHASE-free spelling of U1, no S-dagger shorthand, and
no U2/U3.  PHASE covers U1 and ``DAGGER S`` covers SDG; U2 and U3 are
emitted under their own names as a dialect extension so that all supported
gates survive a round trip.
"""

from __future__ import annotations

import ast
import math
import operator
import re

from .circuits import Gate, GateKind, Program, make_gate

PI = math.pi

SYMBOLIC_ANGLE_TOL = 1e-12

DIALECTS = ("qasm", "quil")


class ParseError(ValueError):
    """Raised on malformed circuit text; message carries the line number."""


def _fail(line_no: int, message: str) -> "ParseError":
    return ParseError(f"line {line_no}: {message}")


# ---------------------------------------------------------------------------
# Angle expressions.  Both dialects accept arithmetic over numbers and pi.

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def _eval_node(node: ast.AST) -> float:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return PI
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _eval_node(node.operand)
        return -operand if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_eval_node(node.left), _eval_node(node.right))
    raise ValueError("unsupported expression element")


def _parse_angle(text: str, line_no: int) -> float:
    try:
        tree = ast.parse(text.strip(), mode="eval")
        value = _eval_node(tree.body)
    except SyntaxError:
        raise _fail(line_no, f"bad angle expression {text.strip()!r}") from None
    except ZeroDivisionError:
        raise _fail(line_no, f"division by zero in angle {text.strip()!r}") from None
    except ValueError:
        raise _fail(line_no, f"bad angle expression {text.strip()!r}") from None
    if not math.isfinite(value):
        raise _fail(line_no, f"angle {text.strip()!r} is not finite")
    return value


def _split_angles(args: str | None, expected: int, line_no: int) -> list[float]:
    if args is None or not args.strip():
        parts: list[str] = []
    else:
        parts = args.split(",")
    if len(parts) != expected:
        raise _fail(line_no, f"expected {expected} angle(s), got {len(parts)}")
    return [_parse_angle(p, line_no) for p in parts]


def _make_gate_checked(kind: GateKind, qubits, angles, line_no: int) -> Gate:
    try:
        return make_gate(kind, qubits, angles)
    except ValueError as exc:
        raise _fail(line_no, str(exc)) from None


# ---------------------------------------------------------------------------
# OpenQASM 2.0

_QASM_NAMES = {"cx" if k is GateKind.CNOT else k.value: k for k in GateKind}
_QASM_EMIT_NAMES = {kind: name for name, kind in _QASM_NAMES.items()}

_QASM_GATE_RE = re.compile(
    # args are greedy so parenthesized subexpressions survive; operands can
    # never contain parentheses, which keeps the match unambiguous
    r"^(?P<name>[a-z][a-z0-9]*)\s*(?:\((?P<args>.*)\))?\s+(?P<operands>[^;()]+);$"
)
_QASM_REG_RE = re.compile(r"^(?P<kind>qreg|creg)\s+(?P<name>[A-Za-z_][\w]*)\[(?P<size>\d+)\];$")
_QASM_MEASURE_RE = re.compile(
    r"^measure\s+(?P<qreg>[A-Za-z_][\w]*)\[(?P<qi>\d+)\]\s*->\s*"
    r"(?P<creg>[A-Za-z_][\w]*)\[(?P<ci>\d+)\]\s*;$"
)


def _format_angle(value: float) -> str:
    return f"{value:.17g}"


def emit_qasm(program: Program) -> str:
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{program.num_qubits}];",
        f"creg c[{program.num_qubits}];",
    ]
    for g in program.gates:
        name = _QASM_EMIT_NAMES[g.kind]
        params = f"({','.join(_format_angle(a) for a in g.angles)})" if g.angles else ""
        operands = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{name}{params} {operands};")
    lines += [f"measure q[{q}] -> c[{q}];" for q in range(program.num_qubits)]
    return "\n".join(lines) + "\n"


def parse_qasm(text: str) -> Program:
    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    saw_version = False
    gates: list[Gate] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if not saw_version:
            if re.fullmatch(r"OPENQASM\s+2\.0;", line):
                saw_version = True
                continue
            raise _fail(line_no, "expected 'OPENQASM 2.0;' before any statement")
        if re.fullmatch(r'include\s+"[^"]*";', line):
            continue
        reg = _QASM_REG_RE.match(line)
        if reg:
            entry = (reg.group("name"), int(reg.group("size")))
            if entry[1] < 1:
                raise _fail(line_no, "register size must be at least 1")
            if reg.group("kind") == "qreg":
                if qreg is not None:
                    raise _fail(line_no, "duplicate qreg declaration")
                qreg = entry
            else:
                if creg is not None:
                    raise _fail(line_no, "duplicate creg declaration")
                creg = entry
            continue
        measure = _QASM_MEASURE_RE.match(line)
        if measure:
            if qreg is None or measure.group("qreg") != qreg[0]:
                raise _fail(line_no, "measure references an undeclared quantum register")
            if creg is None or measure.group("creg") != creg[0]:
                raise _fail(line_no, "measure references an undeclared classical register")
            if int(measure.group("qi")) >= qreg[1] or int(measure.group("ci")) >= creg[1]:
                raise _fail(line_no, "measure index out of range")
            continue
        gate = _QASM_GATE_RE.match(line)
        if gate:
            name = gate.group("name")
            kind = _QASM_NAMES.get(name)
            if kind is None:
                raise _fail(line_no, f"unknown gate {name!r}")
            if qreg is None:
                raise _fail(line_no, "gate appears before qreg declaration")
            qubits = []
            for operand in gate.group("operands").split(","):
                ref = re.fullmatch(rf"{re.escape(qreg[0])}\[(\d+)\]", operand.strip())
                if not ref:
                    raise _fail(line_no, f"bad operand {operand.strip()!r}")
                index = int(ref.group(1))
                if index >= qreg[1]:
                    raise _fail(line_no, f"qubit index {index} exceeds register size {qreg[1]}")
                qubits.append(index)
            if len(qubits) != kind.num_qubits:
                raise _fail(
                    line_no, f"{name} takes {kind.num_qubits} qubit(s), got {len(qubits)}"
                )
            angles = _split_angles(gate.group("args"), kind.num_angles, line_no)
            gates.append(_make_gate_checked(kind, qubits, angles, line_no))
            continue
        raise _fail(line_no, f"unrecognized statement {line!r}")

    if qreg is None:
        raise ParseError("no qreg declaration found")
    return Program(qreg[1], tuple(gates))


# ---------------------------------------------------------------------------
# Quil

# every kind under its upper-case name, but U1 as PHASE and SDG as DAGGER S
_QUIL_NAMES = {
    "PHASE" if k is GateKind.U1 else k.value.upper(): k for k in GateKind if k is not GateKind.SDG
}
_QUIL_EMIT_NAMES = {kind: name for name, kind in _QUIL_NAMES.items()}
_QUIL_EMIT_NAMES[GateKind.SDG] = "DAGGER S"

_QUIL_GATE_RE = re.compile(
    r"^(?P<dagger>DAGGER\s+)?(?P<name>[A-Z][A-Z0-9]*)"
    r"\s*(?:\((?P<args>.*)\))?\s+(?P<qubits>\d+(?:\s+\d+)*)$"
)
_QUIL_DECLARE_RE = re.compile(r"^DECLARE\s+(?P<name>[A-Za-z_][\w]*)\s+BIT\[(?P<size>\d+)\]$")
_QUIL_MEASURE_RE = re.compile(r"^MEASURE\s+(?P<qubit>\d+)\s+(?P<name>[A-Za-z_][\w]*)\[(?P<bit>\d+)\]$")

_QUIL_SYMBOLIC_ANGLES = (("pi", PI), ("-pi", -PI), ("pi/2", PI / 2), ("-pi/2", -PI / 2))


def _format_quil_angle(value: float) -> str:
    for text, ref in _QUIL_SYMBOLIC_ANGLES:
        if abs(value - ref) <= SYMBOLIC_ANGLE_TOL:
            return text
    return f"{value:.17g}"


def emit_quil(program: Program) -> str:
    lines = [f"DECLARE ro BIT[{program.num_qubits}]"]
    for g in program.gates:
        name = _QUIL_EMIT_NAMES[g.kind]
        params = f"({', '.join(_format_quil_angle(a) for a in g.angles)})" if g.angles else ""
        qubits = " ".join(str(q) for q in g.qubits)
        lines.append(f"{name}{params} {qubits}")
    lines += [f"MEASURE {q} ro[{q}]" for q in range(program.num_qubits)]
    return "\n".join(lines) + "\n"


def parse_quil(text: str) -> Program:
    declared = 0
    saw_declare = False
    max_index = -1
    gates: list[Gate] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        declare = _QUIL_DECLARE_RE.match(line)
        if declare:
            if saw_declare:
                raise _fail(line_no, "duplicate DECLARE")
            saw_declare = True
            declared = int(declare.group("size"))
            continue
        measure = _QUIL_MEASURE_RE.match(line)
        if measure:
            max_index = max(max_index, int(measure.group("qubit")))
            continue
        gate = _QUIL_GATE_RE.match(line)
        if gate:
            name = gate.group("name")
            if gate.group("dagger"):
                if name != "S":
                    raise _fail(line_no, f"DAGGER is only supported on S, not {name}")
                kind = GateKind.SDG
            else:
                kind = _QUIL_NAMES.get(name)
                if kind is None:
                    raise _fail(line_no, f"unknown gate {name!r}")
            qubits = [int(tok) for tok in gate.group("qubits").split()]
            if len(qubits) != kind.num_qubits:
                raise _fail(
                    line_no, f"{name} takes {kind.num_qubits} qubit(s), got {len(qubits)}"
                )
            angles = _split_angles(gate.group("args"), kind.num_angles, line_no)
            gates.append(_make_gate_checked(kind, qubits, angles, line_no))
            max_index = max(max_index, *qubits)
            continue
        raise _fail(line_no, f"unrecognized statement {line!r}")

    num_qubits = max(declared, max_index + 1, 1)
    return Program(num_qubits, tuple(gates))


# ---------------------------------------------------------------------------
# Dispatch helpers

_EMITTERS = {"qasm": emit_qasm, "quil": emit_quil}
_PARSERS = {"qasm": parse_qasm, "quil": parse_quil}
_EXTENSIONS = {"qasm": ".qasm", "quil": ".quil"}


def _for_dialect(table: dict, dialect: str):
    if dialect not in table:
        raise ValueError(f"unknown dialect {dialect!r}; expected one of {DIALECTS}")
    return table[dialect]


def emit_program(program: Program, dialect: str) -> str:
    return _for_dialect(_EMITTERS, dialect)(program)


def parse_program(text: str, dialect: str) -> Program:
    return _for_dialect(_PARSERS, dialect)(text)


def dialect_extension(dialect: str) -> str:
    return _for_dialect(_EXTENSIONS, dialect)
