"""Gate-level intermediate representation for spin-chain circuits.

A circuit is a flat, time-ordered list of gates acting on a register of
``num_qubits`` qubits.  Qubit 0 corresponds to the leftmost character of a
measurement bitstring (most significant bit of the basis-state index), and
spin-up is identified with |0>.  Angles are stored unreduced; any mod-2*pi
normalization happens in compiler passes, never here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

MAX_UNITARY_QUBITS = 12


class GateError(ValueError):
    """Raised when a gate or program fails structural validation."""


class GateKind(enum.Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    U1 = "u1"
    U2 = "u2"
    U3 = "u3"
    CNOT = "cnot"
    CZ = "cz"

    @property
    def num_qubits(self) -> int:
        return 2 if self in (GateKind.CNOT, GateKind.CZ) else 1

    @property
    def num_angles(self) -> int:
        return _NUM_ANGLES[self]


_NUM_ANGLES = {
    GateKind.H: 0,
    GateKind.X: 0,
    GateKind.Y: 0,
    GateKind.Z: 0,
    GateKind.S: 0,
    GateKind.SDG: 0,
    GateKind.RX: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.U1: 1,
    GateKind.U2: 2,
    GateKind.U3: 3,
    GateKind.CNOT: 0,
    GateKind.CZ: 0,
}


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate application.  For CNOT, ``qubits[0]`` is the control."""

    kind: GateKind
    angles: tuple[float, ...] = ()
    qubits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, GateKind):
            raise GateError(f"kind must be a GateKind, got {self.kind!r}")
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(self.angles) != self.kind.num_angles:
            raise GateError(
                f"{self.kind.value} takes {self.kind.num_angles} angle(s), "
                f"got {len(self.angles)}"
            )
        if len(self.qubits) != self.kind.num_qubits:
            raise GateError(
                f"{self.kind.value} acts on {self.kind.num_qubits} qubit(s), "
                f"got {len(self.qubits)}"
            )
        if any(q < 0 for q in self.qubits):
            raise GateError(f"qubit indices must be non-negative: {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise GateError(f"qubit indices must be distinct: {self.qubits}")
        if any(not math.isfinite(a) for a in self.angles):
            raise GateError(f"angles must be finite: {self.angles}")


def make_gate(kind: GateKind | str, qubits, angles=()) -> Gate:
    """Build a validated Gate; ``kind`` may be a GateKind or its lowercase name."""
    if isinstance(kind, str):
        try:
            kind = GateKind(kind.lower())
        except ValueError:
            raise GateError(f"unknown gate kind {kind!r}") from None
    return Gate(kind=kind, angles=tuple(angles), qubits=tuple(qubits))


@dataclass(frozen=True, slots=True)
class Program:
    """An immutable gate list over a fixed-width qubit register.

    Measurement of every qubit in the z basis is implicit at the end of the
    program; no explicit measure instruction exists in the IR.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_qubits", int(self.num_qubits))
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.num_qubits < 1:
            raise GateError(f"num_qubits must be >= 1, got {self.num_qubits}")
        for g in self.gates:
            if not isinstance(g, Gate):
                raise GateError(f"program gates must be Gate instances, got {g!r}")
            if any(q >= self.num_qubits for q in g.qubits):
                raise GateError(
                    f"gate {g.kind.value} on {g.qubits} exceeds register "
                    f"of {self.num_qubits} qubit(s)"
                )

    def __len__(self) -> int:
        return len(self.gates)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix of one gate (2x2, or 4x4 with qubits[0] as the high bit)."""
    k = gate.kind
    if k is GateKind.H:
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
    if k is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if k is GateKind.Y:
        return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    if k is GateKind.Z:
        return np.array([[1, 0], [0, -1]], dtype=np.complex128)
    if k is GateKind.S:
        return np.array([[1, 0], [0, 1j]], dtype=np.complex128)
    if k is GateKind.SDG:
        return np.array([[1, 0], [0, -1j]], dtype=np.complex128)
    if k is GateKind.RX:
        (t,) = gate.angles
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if k is GateKind.RY:
        (t,) = gate.angles
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if k is GateKind.RZ:
        (t,) = gate.angles
        return np.array(
            [[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=np.complex128
        )
    if k is GateKind.U1:
        (lam,) = gate.angles
        return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=np.complex128)
    if k is GateKind.U2:
        phi, lam = gate.angles
        return np.array(
            [
                [1, -np.exp(1j * lam)],
                [np.exp(1j * phi), np.exp(1j * (phi + lam))],
            ],
            dtype=np.complex128,
        ) / math.sqrt(2)
    if k is GateKind.U3:
        t, phi, lam = gate.angles
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array(
            [
                [c, -np.exp(1j * lam) * s],
                [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
            ],
            dtype=np.complex128,
        )
    if k is GateKind.CNOT:
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=np.complex128,
        )
    if k is GateKind.CZ:
        return np.diag([1, 1, 1, -1]).astype(np.complex128)
    raise GateError(f"no matrix for gate kind {k!r}")


def _apply_one_qubit(u: np.ndarray, g: np.ndarray, qubit: int, n: int) -> None:
    # Left-multiplies u (in place) by g embedded at `qubit`, via row arithmetic
    # on basis indices.  Qubit 0 is the most significant bit.
    shift = n - 1 - qubit
    idx = np.arange(u.shape[0])
    r0 = idx[(idx >> shift) & 1 == 0]
    r1 = r0 + (1 << shift)
    a, b = u[r0], u[r1]
    u[r0] = g[0, 0] * a + g[0, 1] * b
    u[r1] = g[1, 0] * a + g[1, 1] * b


def _apply_two_qubit(u: np.ndarray, g: np.ndarray, qa: int, qb: int, n: int) -> None:
    sa, sb = n - 1 - qa, n - 1 - qb
    idx = np.arange(u.shape[0])
    base = idx[((idx >> sa) & 1 == 0) & ((idx >> sb) & 1 == 0)]
    rows = [base + (i >> 1 << sa) + ((i & 1) << sb) for i in range(4)]
    old = [u[r] for r in rows]
    for i in range(4):
        u[rows[i]] = (
            g[i, 0] * old[0] + g[i, 1] * old[1] + g[i, 2] * old[2] + g[i, 3] * old[3]
        )


def program_unitary(program: Program) -> np.ndarray:
    """Dense unitary of the whole program.

    Gates compose in time order, so the earliest gate sits rightmost in the
    matrix product.  Guarded at MAX_UNITARY_QUBITS qubits; beyond that the
    dense form is not meaningfully computable on a workstation.
    """
    n = program.num_qubits
    if n > MAX_UNITARY_QUBITS:
        raise GateError(
            f"program_unitary supports at most {MAX_UNITARY_QUBITS} qubits, got {n}"
        )
    u = np.eye(1 << n, dtype=np.complex128)
    for gate in program.gates:
        g = gate_matrix(gate)
        if len(gate.qubits) == 1:
            _apply_one_qubit(u, g, gate.qubits[0], n)
        else:
            _apply_two_qubit(u, g, gate.qubits[0], gate.qubits[1], n)
    return u


def unitary_equivalent(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether a and b agree up to a global phase.

    Uses the phase-invariant overlap |tr(a^dag b)| / 2^n >= 1 - tol, which is
    1 exactly when b = e^{i phi} a.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GateError(f"shape mismatch: {a.shape} vs {b.shape}")
    dim = a.shape[0]
    return bool(abs(np.trace(a.conj().T @ b)) / dim >= 1 - tol)


@dataclass(frozen=True)
class GateCounts:
    """Gate totals for one program, broken down by kind and arity."""

    by_kind: dict
    single_qubit: int
    two_qubit: int
    total: int

    def __getitem__(self, kind: GateKind) -> int:
        return self.by_kind.get(kind, 0)


def gate_counts(program: Program) -> GateCounts:
    by_kind: dict = {}
    one = two = 0
    for g in program.gates:
        by_kind[g.kind] = by_kind.get(g.kind, 0) + 1
        if g.kind.num_qubits == 1:
            one += 1
        else:
            two += 1
    return GateCounts(by_kind=by_kind, single_qubit=one, two_qubit=two, total=one + two)
