"""Gate-level intermediate representation for spin-chain circuits.

A circuit is a flat, time-ordered list of gates acting on a register of
``num_qubits`` qubits.  Qubit 0 corresponds to the leftmost character of a
measurement bitstring (most significant bit of the basis-state index), and
spin-up is identified with |0>.  Angles are stored unreduced; any mod-2*pi
normalization happens in compiler passes, never here.

One kernel, ``apply_matrix``, applies a gate or block from one array into
another: one matmul on a reshaped view when the qubits form a range, and a
gather through the target array for any other set.  ``fuse`` folds one
stretch of gates into blocks on ranges of up to four qubits, one open block
at a time, and ``evolve`` applies lists of blocks to a state, yielding it
after each list.
A run fuses each step segment once (``fuse_segments``) for the simulator and
the compiler's equivalence check; ``program_unitary`` fuses its program.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

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

    __hash__ = object.__hash__  # members are singletons; Enum's hash is Python-level

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
    # the hash of (kind, angles, qubits), taken once: gates key the matrix and
    # compile caches, and hashing through the dataclass and the enum is slow
    _hash: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_hash", hash((self.kind, self.angles, self.qubits)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not restored: an enum's hash differs between interpreters
        return Gate, (self.kind, self.angles, self.qubits)

    @staticmethod
    def _trusted(kind: GateKind, angles: tuple[float, ...], qubits: tuple[int, ...]) -> "Gate":
        # a gate known to pass these checks: finite Python float angles, as
        # many as kind takes, and the qubits of a valid gate of kind's arity
        gate = object.__new__(Gate)
        object.__setattr__(gate, "kind", kind)
        object.__setattr__(gate, "angles", angles)
        object.__setattr__(gate, "qubits", qubits)
        object.__setattr__(gate, "_hash", hash((kind, angles, qubits)))
        return gate


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

    @staticmethod
    def _unchecked(num_qubits: int, gates: tuple[Gate, ...]) -> "Program":
        # a program of gates that passed these checks in a program of this width
        program = object.__new__(Program)
        object.__setattr__(program, "num_qubits", num_qubits)
        object.__setattr__(program, "gates", gates)
        return program


_FIXED_MATRICES = {
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=np.complex128),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=np.complex128),
    GateKind.CNOT: np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]],
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(np.complex128),
}


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix of one gate (2x2, or 4x4 with qubits[0] as the high bit)."""
    k = gate.kind
    fixed = _FIXED_MATRICES.get(k)
    if fixed is not None:
        return fixed.copy()
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
    raise GateError(f"no matrix for gate kind {k!r}")


# per k, the kernel view's axes with its k qubit axes first (numpy allows 64 axes)
_QUBIT_AXES_FIRST = [(*range(1, 2 * k, 2), *range(0, 2 * k + 1, 2)) for k in range(32)]


def apply_matrix(amps: np.ndarray, m: np.ndarray, qubits, out: np.ndarray) -> None:
    """Write ``amps`` left-multiplied by the 2^k x 2^k ``m`` on k ``qubits`` into
    ``out``, a separate array of its shape and dtype, leaving ``amps`` as it was.

    The qubits ascend, except that a pair may come in either order; any other
    order, or a qubit outside the register, raises GateError before anything
    is written.  ``amps`` is C-contiguous with 2^n entries on its leading axis
    and an optional trailing batch axis, and m's high bit is the first qubit.
    Qubits that form one range q..q+k-1 are a single axis of ``amps`` viewed
    as (2^q, 2^k, rest), so one matmul writes the product into ``out``; a
    range that ends on the last qubit of an unbatched state is one
    (2^q, 2^k) @ m.T product.  Any other set is viewed as (2^a, 2, 2^b, 2,
    ..., rest), one axis per qubit, and its slices are gathered into ``out``,
    multiplied into a fresh array and scattered back into ``out``.
    """
    if len(qubits) == 2 and qubits[0] > qubits[1]:
        m = m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        qubits = qubits[::-1]
    if any(b <= a for a, b in zip(qubits, qubits[1:])):
        raise GateError(f"qubits must ascend, or be a pair in either order: {tuple(qubits)}")
    if qubits[-1] >= len(amps).bit_length() - 1:
        raise GateError(f"qubits {tuple(qubits)} exceed the register of {len(amps)} amplitudes")
    if (out.shape != amps.shape or out.dtype != amps.dtype or not out.flags.c_contiguous
            or np.may_share_memory(amps, out)):
        raise GateError("out must be a C-contiguous array of amps's shape and dtype, apart from it")
    view = amps.view()
    if qubits[-1] - qubits[0] == len(qubits) - 1:  # a range, as they ascend
        view.shape = (1 << qubits[0], len(m), -1)  # raises for a non-contiguous amps
        product = out.reshape(view.shape)
        if view.shape[2] == 1:  # one large matrix product, not 2^q small ones
            np.matmul(view[..., 0], m.T, out=product[..., 0])
        else:
            np.matmul(m, view, out=product)
        return
    shape, low = [], 0
    for q in qubits:
        shape += [1 << (q - low), 2]
        low = q + 1
    view.shape = (*shape, -1)
    axes = _QUBIT_AXES_FIRST[len(qubits)]
    sub, gathered = view.transpose(axes), out.reshape(len(m), -1)
    np.copyto(gathered.reshape(sub.shape), sub)
    product = m @ gathered  # the one state this path allocates
    np.copyto(out.reshape(view.shape).transpose(axes), product.reshape(sub.shape))


_EYE2 = np.eye(2, dtype=np.complex128)
_ONE = np.ones((1, 1), dtype=np.complex128)  # the block on no qubits
_ZERO = np.zeros(1, dtype=np.complex128)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron of two square matrices, without its per-call overhead
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


@functools.cache  # k <= 4 in fuse, so it holds a few dozen arrays
def _spread(k: int, places: tuple[int, ...]) -> np.ndarray:
    # for the 2^k x 2^k matrix that acts as some m on the qubits at places of
    # k (m's high bit first) and as the identity on the rest: the index of
    # each of its entries into m's entries, flattened, with one 0 appended
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    sub = bits[:, list(places)] @ (1 << np.arange(len(places) - 1, -1, -1))
    rest = bits[:, [i for i in range(k) if i not in places]]
    same = (rest[:, None] == rest[None]).all(-1)
    index = np.where(same, (sub[:, None] << len(places)) + sub, 1 << 2 * len(places))
    index.setflags(write=False)  # shared by every caller
    return index


def _embed(m: np.ndarray, qubits: tuple[int, ...], on: tuple[int, ...]) -> np.ndarray:
    # m on qubits (its high bit first) as the matrix on their ascending superset on
    return np.concatenate((m.ravel(), _ZERO))[_spread(len(on), tuple(map(on.index, qubits)))]


def fuse(gates, n: int, lifted: dict | None = None) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The blocks ``(matrix, qubits)`` that apply ``gates`` on n qubits, in order.

    Gates fold into one open block on an ascending set of qubits.  A two-qubit
    gate that reaches outside the set grows it while the set stays a range of
    at most min(4, max(2, n-1)) of the n qubits, which ``apply_matrix`` applies
    in one matmul; otherwise the block is closed and a block on the gate's own
    pair opens.  A gate inside the set folds in by a small matmul with its
    matrix lifted onto the set.  A single-qubit gate outside the set commutes
    with every gate since, so its product waits on its qubit and joins the
    block with that qubit.  The last blocks are the open block and then the
    waiting products, on ranges of adjacent qubits within the same bound.
    ``lifted`` keeps each gate's matrix on each set of qubits from one call to
    the next (None: a fresh dict); it does not depend on n.
    """
    limit = min(4, max(2, n - 1))  # a block holds at most 4 qubits, and fewer than n once n >= 3
    lifted = {} if lifted is None else lifted

    def lift(gate: Gate, on: tuple[int, ...]) -> np.ndarray:
        # the gate's matrix on on (its own qubits, or an ascending superset)
        m = lifted.get((gate, on))
        if m is None:
            qubits = gate.qubits
            m = lifted.get((gate, qubits))
            if m is None:
                m = lifted[(gate, qubits)] = gate_matrix(gate)
            if on != qubits:
                m = lifted[(gate, on)] = _embed(m, qubits, on)
        return m

    blocks = []
    held, block = (), _ONE  # the open block and the qubits it holds
    waiting: dict[int, np.ndarray] = {}  # per qubit outside the block: its gates' product
    for gate in gates:
        qubits = gate.qubits
        if qubits[0] in held and qubits[-1] in held:
            block = lift(gate, held) @ block
        elif len(qubits) == 1:
            waiting[qubits[0]] = lift(gate, qubits) @ waiting.get(qubits[0], _EYE2)
        else:
            grown = tuple(sorted({*held, *qubits}))
            # the set grows only into a range of at most limit qubits, which
            # the kernel applies in one matmul
            if held and (len(grown) > limit or grown[-1] - grown[0] >= len(grown)):
                blocks.append((block, held))
                held, block, grown = (), _ONE, tuple(sorted(qubits))
            for q in grown:  # the joining qubits' waiting products
                if q in waiting:
                    block, held = _kron(block, waiting.pop(q)), held + (q,)
            block = lift(gate, grown) @ _embed(block, held, grown)
            held = grown
    if held:
        blocks.append((block, held))
    ranges: list[list[int]] = []
    for q in sorted(waiting):
        if ranges and ranges[-1][-1] == q - 1 and len(ranges[-1]) < limit:
            ranges[-1].append(q)
        else:
            ranges.append([q])
    return blocks + [(functools.reduce(_kron, map(waiting.get, on)), on) for on in map(tuple, ranges)]


def fuse_segments(segments, memo: dict | None = None) -> list[list[tuple[np.ndarray, tuple[int, ...]]]]:
    """Each program's ``fuse`` blocks on its register, each program object
    fused once.  ``memo`` is a dict that keeps the blocks of every program and
    the lifted gate matrices from one call to the next (None: a fresh one)."""
    memo = {} if memo is None else memo
    lifted, fused = memo.setdefault("lifted", {}), memo.setdefault("fused", {})
    for program in segments:
        if id(program) not in fused:  # the entry keeps the program, so its id stays unique
            fused[id(program)] = program, fuse(program.gates, program.num_qubits, lifted)
    return [fused[id(program)][1] for program in segments]


def evolve(amps: np.ndarray, block_lists):
    """Apply each list of ``fuse`` blocks in turn to ``amps`` and yield the
    state after each list.

    Each block is one pass that writes the state into one spare array, and
    the two swap, so the state yielded is ``amps`` or the spare, whichever
    the last pass wrote; the next list overwrites it.  Blocks do not depend
    on the state, so a list fused once applies to any state of its width.
    """
    state, spare = amps, np.empty_like(amps)
    for blocks in block_lists:
        for m, on in blocks:
            apply_matrix(state, m, on, spare)
            state, spare = spare, state
        yield state


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
    (u,) = evolve(np.eye(1 << n, dtype=np.complex128), [fuse(program.gates, n)])
    return u


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
        if len(g.qubits) == 1:
            one += 1
        else:
            two += 1
    return GateCounts(by_kind=by_kind, single_qubit=one, two_qubit=two, total=one + two)
