"""Independent references and the checks that compare program outputs to them.

Nothing here uses spinchain's gate templates, gate matrices, kernel or
parsers.  The product-formula reference is built from Pauli terms, and the
QASM reader is a separate small parser.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

from workloads import Chain

I2 = np.eye(2, dtype=np.complex128)
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

EXACT_TOL = 1e-9  # run outputs against the product-formula reference
ANGLE_TOL = 1e-12  # emitted angles against the generated program
FALSE_ALARM = 1e-5  # per check, for the sampled check


# ---------------------------------------------------------------------------
# Statevector helpers (qubit 0 is the most significant bit)


def _apply(psi: np.ndarray, u: np.ndarray, first: int) -> np.ndarray:
    """Apply u (2^k x 2^k) to the k adjacent qubits starting at `first`."""
    dim = u.shape[0]
    view = psi.reshape(1 << first, dim, -1)
    return np.matmul(u, view).reshape(-1)


def _z_of_probs(probs: np.ndarray, n: int) -> np.ndarray:
    out = np.empty(n)
    for q in range(n):
        p = probs.reshape(1 << q, 2, -1).sum(axis=(0, 2))
        out[q] = p[0] - p[1]
    return out


def _basis_index(spins, n: int) -> int:
    index = 0
    for q, spin in enumerate(spins):
        if spin == "down":
            index |= 1 << (n - 1 - q)
    return index


def product_formula_z(chain: Chain) -> np.ndarray:
    """<sigma^z_q>(k dt) of the first-order product formula, shape (n, steps+1).

    One step is exp(i h(m dt) dt P) on every site, then
    exp(i dt (Jx XX + Jy YY + Jz ZZ)) on bonds (0,1), (1,2), ... in order.
    """
    n = chain.num_qubits
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[_basis_index(chain.spins, n)] = 1.0
    bond = (
        chain.jx * np.kron(PAULI["x"], PAULI["x"])
        + chain.jy * np.kron(PAULI["y"], PAULI["y"])
        + chain.jz * np.kron(PAULI["z"], PAULI["z"])
    )
    w, v = np.linalg.eigh(bond)
    u_bond = (v * np.exp(1j * chain.dt * w)) @ v.conj().T
    out = np.empty((n, chain.steps + 1))
    out[:, 0] = _z_of_probs(np.abs(psi) ** 2, n)
    for m in range(chain.steps):
        h = chain.field(m * chain.dt)
        if h != 0.0:
            u_field = math.cos(h * chain.dt) * I2 + 1j * math.sin(h * chain.dt) * PAULI[chain.axis]
            for q in range(n):
                psi = _apply(psi, u_field, q)
        for q in range(n - 1):
            psi = _apply(psi, u_bond, q)
        out[:, m + 1] = _z_of_probs(np.abs(psi) ** 2, n)
    return out


# ---------------------------------------------------------------------------
# Gate matrices from Pauli exponentials, for programs read back


def _rot(axis: str, theta: float) -> np.ndarray:
    return math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * PAULI[axis]


def gate_unitary(name: str, angles) -> np.ndarray:
    """Matrix of a gate named as in QASM or by spinchain's GateKind value."""
    if name in ("x", "y", "z"):
        return PAULI[name]
    if name == "h":
        return (PAULI["x"] + PAULI["z"]) / math.sqrt(2)
    if name in ("s", "sdg"):
        return np.diag([1, 1j if name == "s" else -1j])
    if name in ("rx", "ry", "rz"):
        return _rot(name[1], angles[0])
    if name == "u1":
        return np.diag([1, np.exp(1j * angles[0])])
    if name in ("u2", "u3"):
        theta, phi, lam = (math.pi / 2, *angles) if name == "u2" else angles
        # U3 = e^{i(phi+lam)/2} RZ(phi) RY(theta) RZ(lam)
        return np.exp(0.5j * (phi + lam)) * _rot("z", phi) @ _rot("y", theta) @ _rot("z", lam)
    if name in ("cx", "cnot"):
        return np.kron(np.diag([1, 0]), I2) + np.kron(np.diag([0, 1]), PAULI["x"])
    if name == "cz":
        return np.diag([1, 1, 1, -1]).astype(np.complex128)
    raise ValueError(f"no reference matrix for gate {name!r}")


def final_z(gates, n: int) -> np.ndarray:
    """<sigma^z_q> after (name, angles, qubits) gates applied to |0...0>."""
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    shape = [2] * n
    for name, angles, qubits in gates:
        u = gate_unitary(name, angles).reshape([2] * (2 * len(qubits)))
        k = len(qubits)
        t = np.tensordot(u, psi.reshape(shape), axes=(list(range(k, 2 * k)), list(qubits)))
        psi = np.moveaxis(t, list(range(k)), list(qubits)).reshape(-1)
    return _z_of_probs(np.abs(psi) ** 2, n)


def program_gates(program):
    """A spinchain Program as plain (name, angles, qubits) tuples."""
    return [(g.kind.value, tuple(g.angles), tuple(g.qubits)) for g in program.gates]


# ---------------------------------------------------------------------------
# Reading outputs


def read_magnetizations(data_dir: str, chain: Chain) -> np.ndarray:
    """The run's CSVs as an (n, steps+1) array; raises on any malformation."""
    n, points = chain.num_qubits, chain.steps + 1
    out = np.empty((n, points))
    for q in range(n):
        with open(os.path.join(data_dir, f"qubit_{q}_magnetization.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if rows[0] != "t,magnetization" or len(rows) != points + 1:
            raise ValueError(f"qubit {q}: malformed CSV ({len(rows)} lines)")
        for k, row in enumerate(rows[1:]):
            t, m = (float(x) for x in row.split(","))
            if abs(t - k * chain.dt) > 1e-12 * max(1.0, k * chain.dt):
                raise ValueError(f"qubit {q}: time {t} at row {k}, expected {k * chain.dt}")
            out[q, k] = m
    return out


_GATE_RE = re.compile(r"^([a-z][a-z0-9]*)(?:\(([^)]*)\))? (q\[\d+\](?:,q\[\d+\])?);$")


def read_qasm(text: str):
    """(num_qubits, gates) of an emitted OpenQASM 2.0 file.

    Requires the four header lines, then gate lines, then one measure per
    qubit in order, then a final newline; a truncated file fails.
    """
    if not text.endswith("\n"):
        raise ValueError("file does not end with a newline")
    lines = text[:-1].split("\n")
    match = re.fullmatch(r"qreg q\[(\d+)\];", lines[2]) if len(lines) > 3 else None
    if lines[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";'] or match is None:
        raise ValueError("bad header")
    n = int(match.group(1))
    if lines[3] != f"creg c[{n}];":
        raise ValueError("bad creg line")
    if lines[len(lines) - n:] != [f"measure q[{q}] -> c[{q}];" for q in range(n)]:
        raise ValueError("missing or misplaced measurements")
    gates = []
    for line in lines[4 : len(lines) - n]:
        m = _GATE_RE.match(line)
        if m is None:
            raise ValueError(f"bad gate line {line!r}")
        angles = tuple(float(a) for a in m.group(2).split(",")) if m.group(2) else ()
        qubits = tuple(int(q) for q in re.findall(r"\d+", m.group(3)))
        gates.append(("cnot" if m.group(1) == "cx" else m.group(1), angles, qubits))
    return n, gates


def same_program(read, expected) -> bool:
    """Equal gate lists, angles within ANGLE_TOL."""
    if len(read) != len(expected):
        return False
    for (na, aa, qa), (nb, ab, qb) in zip(read, expected):
        if na != nb or qa != qb or len(aa) != len(ab):
            return False
        if any(abs(x - y) > ANGLE_TOL for x, y in zip(aa, ab)):
            return False
    return True


# ---------------------------------------------------------------------------
# Checks.  Each returns (passed, largest deviation).


def check_exact(values: np.ndarray, ref: np.ndarray) -> tuple[bool, float]:
    dev = float(np.max(np.abs(values - ref)))
    return dev <= EXACT_TOL, dev


def hoeffding_eps(shots: int, count: int) -> float:
    """Half-width that a mean of `shots` independent +-1 outcomes leaves with
    probability at most FALSE_ALARM / count (two-sided Hoeffding)."""
    return math.sqrt(2.0 * math.log(2.0 * count / FALSE_ALARM) / shots)


def check_hoeffding(values: np.ndarray, ref: np.ndarray, shots: int) -> tuple[bool, float]:
    """All estimates within the Hoeffding half-width, union-bounded over
    every site and time point (valid however those are correlated)."""
    dev = float(np.max(np.abs(values - ref)))
    return dev <= hoeffding_eps(shots, values.size), dev
