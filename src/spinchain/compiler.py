"""Native-gate lowering and the domain-specific peephole optimizer.

Two hardware gate sets are modeled:

  IBM:     {U1, U2, U3, CNOT}, angles unrestricted
  RIGETTI: {RX at +-pi/2 or +-pi only, RZ at any angle, CZ}

``lower_generic`` performs plain gate-by-gate table substitution with no
optimization.  The domain-specific mode lowers and then runs a round-robin
pipeline of rewriting passes to a fixpoint; every rewrite preserves the
program unitary up to a global phase.  ``compile_segments`` compiles the
step segments of a ``CircuitSeries`` one by one and then checks each from
the same seeded random states (``_check``); the report records each
segment's worst overlap with its source as a fidelity.

The gate list is held as a doubly linked list whose nodes are also linked
per wire, so finding the next gate on a qubit, deleting a gate and moving one
are O(1).  One list carries a compile through every round and marks as dirty
each node whose gate or wire neighbourhood changes: merged, deleted, moved or
substituted nodes and their neighbours on each wire.  Each pass visits, in
list order, only the nodes dirtied since it last ran, so a round costs what
the rounds before it changed (Nam et al., npj QI 4, 23, 2018).  The segments
of one ``compile_segments`` call share tables of each distinct source gate's
lowering and single-qubit run's synthesis.  Gates made here are built by
``Gate._trusted``: their angles are Python floats from valid gates, ``_wrap``
or ``_zyz_angles``, and their qubits those of a valid gate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .circuits import CircuitSeries, Gate, GateCounts, GateKind, Program, evolve, gate_counts
from .circuits import gate_matrix, program_unitary  # noqa: F401 - perfbench wraps program_unitary here
from .config import MAX_QUBITS

PI = math.pi
HALF_PI = math.pi / 2

ANGLE_MATCH_TOL = 1e-9
ZERO_ANGLE_TOL = 1e-12
COMMUTE_TOL = 1e-12
SYNTH_BRANCH_TOL = 1e-9
MAX_PASS_ROUNDS = 100
CHECK_STATES = 2  # random states per equivalence check
CHECK_SEED = 2021
CHECK_TOL = 1e-9  # on the residual's 2-norm

_ROTATION_KINDS = (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.U1)
_SELF_INVERSE_KINDS = (GateKind.H, GateKind.X, GateKind.CNOT, GateKind.CZ)
_DIAGONAL_KINDS = (GateKind.RZ, GateKind.U1, GateKind.Z, GateKind.S, GateKind.SDG)

_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_EYE2 = np.eye(2, dtype=np.complex128)

_gate = Gate._trusted  # (kind, angles, qubits), each a tuple of valid parts


class CompileError(RuntimeError):
    """Raised when compilation cannot produce a conformant program."""


class NativeTarget(enum.Enum):
    IBM = "ibm"
    RIGETTI = "rigetti"

    @classmethod
    def from_name(cls, name: str) -> "NativeTarget":
        try:
            return cls(name.lower())
        except ValueError:
            raise CompileError(f"unknown compilation target {name!r}") from None


def _wrap(angle: float) -> float:
    """Reduce an angle to the branch (-pi, pi]."""
    a = (angle + PI) % (2 * PI) - PI
    return PI if a == -PI else a


def _rx_native(angle: float) -> bool:
    # Membership in {+-pi/2, +-pi} modulo 2*pi, to ANGLE_MATCH_TOL.
    d = angle % (2 * PI)
    return min(abs(d - HALF_PI), abs(d - PI), abs(d - 3 * HALF_PI)) <= ANGLE_MATCH_TOL


# ---------------------------------------------------------------------------
# Generic lowering


def _zxzxz(theta: float, phi: float, lam: float, q: tuple[int]) -> list[Gate]:
    # Circuit order; equals U3(theta, phi, lam) up to a global phase.
    rx = _gate(GateKind.RX, (HALF_PI,), q)
    z = [_gate(GateKind.RZ, (a,), q) for a in (lam, theta + PI, phi + PI)]
    return [z[0], rx, z[1], rx, z[2]]


# Per target, the kinds that lower to a fixed sequence on the gate's qubit:
# each native gate as (kind, angles), None standing for the source's angle.
_FIXED_LOWERINGS = {
    NativeTarget.IBM: {
        GateKind.H: [(GateKind.U2, (0.0, PI))],
        GateKind.X: [(GateKind.U3, (PI, 0.0, PI))],
        GateKind.Y: [(GateKind.U3, (PI, HALF_PI, HALF_PI))],
        GateKind.Z: [(GateKind.U1, (PI,))],
        GateKind.S: [(GateKind.U1, (HALF_PI,))],
        GateKind.SDG: [(GateKind.U1, (-HALF_PI,))],
        GateKind.RX: [(GateKind.U3, (None, -HALF_PI, HALF_PI))],
        GateKind.RY: [(GateKind.U3, (None, 0.0, 0.0))],
        GateKind.RZ: [(GateKind.U1, (None,))],
    },
    NativeTarget.RIGETTI: {
        GateKind.H: [(GateKind.RZ, (HALF_PI,)), (GateKind.RX, (HALF_PI,)), (GateKind.RZ, (HALF_PI,))],
        GateKind.X: [(GateKind.RX, (PI,))],
        GateKind.Y: [(GateKind.RZ, (PI,)), (GateKind.RX, (PI,))],
        GateKind.Z: [(GateKind.RZ, (PI,))],
        GateKind.S: [(GateKind.RZ, (HALF_PI,))],
        GateKind.SDG: [(GateKind.RZ, (-HALF_PI,))],
        GateKind.U1: [(GateKind.RZ, (None,))],
        GateKind.RY: [(GateKind.RX, (HALF_PI,)), (GateKind.RZ, (None,)), (GateKind.RX, (-HALF_PI,))],
    },
}


def _fixed(target: NativeTarget, kind: GateKind, q: tuple[int, ...], angles=()) -> list[Gate]:
    return [
        _gate(k, tuple(angles[0] if a is None else a for a in fixed), q)
        for k, fixed in _FIXED_LOWERINGS[target][kind]
    ]


def _lower_gate_ibm(g: Gate) -> list[Gate]:
    k, q = g.kind, g.qubits
    if k in (GateKind.U1, GateKind.U2, GateKind.U3, GateKind.CNOT):
        return [g]
    if k is GateKind.CZ:  # H CNOT H, the Hs on its second qubit
        hadamard = _fixed(NativeTarget.IBM, GateKind.H, q[1:])
        return hadamard + [_gate(GateKind.CNOT, (), q)] + hadamard
    return _fixed(NativeTarget.IBM, k, q, g.angles)


def _lower_gate_rigetti(g: Gate) -> list[Gate]:
    k, q, a = g.kind, g.qubits, g.angles
    if k in (GateKind.RZ, GateKind.CZ) or k is GateKind.RX and _rx_native(a[0]):
        return [g]
    if k is GateKind.CNOT:  # H CZ H, the Hs on its target
        hadamard = _fixed(NativeTarget.RIGETTI, GateKind.H, q[1:])
        return hadamard + [_gate(GateKind.CZ, (), q)] + hadamard
    if k is GateKind.RX:
        return _zxzxz(a[0], -HALF_PI, HALF_PI, q)
    if k is GateKind.U2:
        return _zxzxz(HALF_PI, *a, q)
    if k is GateKind.U3:
        return _zxzxz(*a, q)
    return _fixed(NativeTarget.RIGETTI, k, q, a)


def _memo_key(gates: tuple[Gate, ...]):
    # Gates compare by value, and an angle of -0.0 equals 0.0 but prints as
    # "-0"; when any angle is zero, its text keeps the two zeros apart.
    for g in gates:
        if 0.0 in g.angles:
            return gates, repr([g.angles for g in gates])
    return gates


def _lower_gates(gates, target: NativeTarget, lowered: dict) -> list[Gate]:
    table = _lower_gate_ibm if target is NativeTarget.IBM else _lower_gate_rigetti
    out: list[Gate] = []
    for g in gates:
        key = _memo_key((g,))
        sub = lowered.get(key)
        if sub is None:
            sub = lowered[key] = table(g)
        out += sub
    return out


def lower_generic(program: Program, target: NativeTarget) -> Program:
    """Gate-by-gate substitution into the target set; no optimization."""
    return Program(program.num_qubits, tuple(_lower_gates(program.gates, target, {})))


# ---------------------------------------------------------------------------
# Peephole passes.  Each pass edits a ``_Links`` in place, looking only at the
# nodes stamped since ``since``, returns whether it changed anything and must
# preserve the program unitary up to a global phase on any input.  "Adjacent"
# always means: no gate in between touches any of the qubits involved.


class _Links:
    """A gate list as a doubly linked list whose nodes are also linked per wire.

    Node i starts as ``gates[i]``.  ``after``/``before`` give the list order and
    ``wire_after[q][i]``/``wire_before[q][i]`` the next and previous node on
    qubit q.  Node ``end`` (gate None) closes the list and every wire, so the
    next gate touching a node's qubits is one lookup, and deleting or moving a
    node is O(1).  ``size`` counts the linked gates.

    Deleting, linking in or substituting a node stamps it and its neighbour on
    each wire with ``clock``; ``marked`` is the last clock stamped.  A pass
    given ``since`` visits the nodes stamped at or after it in list order:
    after a merge the same node again, after a cancel or a move its old
    successor.
    """

    def __init__(self, gates) -> None:
        n = self.end = self.size = len(gates)
        self.gates = [*gates, None]
        self.after = [*range(1, n + 1), 0]
        self.before = [n, *range(n)]
        width = 1 + max((q for g in gates for q in g.qubits), default=-1)
        wire_after = self.wire_after = [[n] * (n + 1) for _ in range(width)]
        wire_before = self.wire_before = [[n] * (n + 1) for _ in range(width)]
        for i, g in enumerate(gates):
            for q in g.qubits:  # wire_before[q][end] is the last node on q so far
                p = wire_before[q][i] = wire_before[q][n]
                wire_after[q][p] = wire_before[q][n] = i
        self.stamp = [0] * (n + 1)
        self.clock = self.marked = 0

    def _mark(self, i: int) -> None:
        stamp, self.marked = self.stamp, self.clock
        stamp[i] = self.clock
        for q in self.gates[i].qubits:
            stamp[self.wire_before[q][i]] = stamp[self.wire_after[q][i]] = self.clock

    def next_touching(self, i: int) -> int:
        """The next node on every wire of node i (one or two), or end if none is."""
        qubits, wire_after = self.gates[i].qubits, self.wire_after
        j = wire_after[qubits[0]][i]
        return j if wire_after[qubits[-1]][i] == j else self.end

    def delete(self, i: int) -> None:
        self._mark(i)
        self.size -= 1
        a, b = self.after[i], self.before[i]
        self.after[b], self.before[a] = a, b
        for q in self.gates[i].qubits:
            after, before = self.wire_after[q], self.wire_before[q]
            after[before[i]], before[after[i]] = after[i], before[i]

    def insert_after(self, i: int, e: int) -> None:
        """Link the deleted node i back in right after node e, on all its wires."""
        self.size += 1
        a = self.after[e]
        self.after[e], self.before[i], self.after[i], self.before[a] = i, e, a, i
        for q in self.gates[i].qubits:
            after, before = self.wire_after[q], self.wire_before[q]
            s = after[e]
            after[e] = before[s] = i
            before[i], after[i] = e, s
        self._mark(i)

    def substitute(self, i: int, gate: Gate) -> None:
        """Put gate, on the same qubits, at the linked node i."""
        self.gates[i] = gate
        self._mark(i)

    def in_order(self) -> list[Gate]:
        out, i = [], self.after[self.end]
        while i != self.end:
            out.append(self.gates[i])
            i = self.after[i]
        return out


def _pass_merge_rotations(links: _Links, target: NativeTarget, since: int) -> bool:
    """Sum adjacent same-kind rotations on the same qubit.

    On the RIGETTI target an RX pair only merges when the summed angle is
    itself native (or zero, which the drop pass then removes); anything else
    would push the gate out of the allowed angle set.
    """
    size, after, end, stamp, gates = links.size, links.after, links.end, links.stamp, links.gates
    wire_after = links.wire_after
    i = after[end]
    while i != end:
        if stamp[i] >= since:
            g = gates[i]
            if g.kind in _ROTATION_KINDS:
                h = gates[j := wire_after[g.qubits[0]][i]]
                if h is not None and h.kind is g.kind and h.qubits == g.qubits:
                    total = _wrap(g.angles[0] + h.angles[0])
                    mergeable = True
                    if g.kind is GateKind.RX and target is NativeTarget.RIGETTI:
                        mergeable = abs(total) <= ZERO_ANGLE_TOL or _rx_native(total)
                    if mergeable:
                        links.delete(j)
                        links.substitute(i, _gate(g.kind, (total,), g.qubits))
                        continue
        i = after[i]
    return links.size != size


def _pass_cancel_inverse_pairs(links: _Links, target: NativeTarget, since: int) -> bool:
    """Drop adjacent identical self-inverse pairs (H, X, CNOT, CZ)."""
    size, after, end, stamp, gates = links.size, links.after, links.end, links.stamp, links.gates
    i = after[end]
    while i != end:
        if stamp[i] >= since:
            g = gates[i]
            if g.kind in _SELF_INVERSE_KINDS:
                h = gates[j := links.next_touching(i)]
                if h is not None and h.kind is g.kind and (
                    h.qubits == g.qubits or g.kind is GateKind.CZ and h.qubits == g.qubits[::-1]
                ):
                    links.delete(j)
                    successor = after[i]
                    links.delete(i)
                    i = successor
                    continue
        i = after[i]
    return links.size != size


def _pass_drop_zero_rotations(links: _Links, target: NativeTarget, since: int) -> bool:
    """Remove rotations whose angle is 0 modulo 2*pi (within 1e-12)."""
    size, after, end, stamp, gates = links.size, links.after, links.end, links.stamp, links.gates
    i = after[end]
    while i != end:
        g, successor = gates[i], after[i]
        if stamp[i] >= since and g.kind in _ROTATION_KINDS:
            if abs(_wrap(g.angles[0])) <= ZERO_ANGLE_TOL:
                links.delete(i)
        i = successor
    return links.size != size


def _commutes_with_x(g: Gate) -> bool:
    if g.kind in (GateKind.X, GateKind.RX):
        return True
    if g.kind in (GateKind.U2, GateKind.U3):
        m = gate_matrix(g)
        return bool(np.max(np.abs(m @ _X_MATRIX - _X_MATRIX @ m)) <= COMMUTE_TOL)
    return False


def _pass_commute_through_entanglers(links: _Links, target: NativeTarget, since: int) -> bool:
    """Move single-qubit gates rightward through entanglers they commute with.

    Diagonal gates (RZ/U1 and friends) slide through CZ on either leg and
    through CNOT controls; x-axis rotations slide through CNOT targets.  The
    drift is rightward only, which both terminates and parks rotations next
    to each other for the merge and fuse passes.
    """
    moved, after, end, stamp, gates = False, links.after, links.end, links.stamp, links.gates
    wire_after = links.wire_after
    i = after[end]
    while i != end:
        if stamp[i] >= since:
            g = gates[i]
            if len(g.qubits) == 1:
                e = gates[j := wire_after[g.qubits[0]][i]]
                if e is None or e.kind not in (GateKind.CZ, GateKind.CNOT):
                    movable = False
                elif e.kind is GateKind.CZ or g.qubits[0] == e.qubits[0]:
                    movable = g.kind in _DIAGONAL_KINDS  # through a CZ or a control
                else:
                    movable = _commutes_with_x(g)
                if movable:
                    successor = after[i]
                    links.delete(i)
                    links.insert_after(i, j)
                    i, moved = successor, True
                    continue
        i = after[i]
    return moved


def _angle(z: np.complex128) -> np.float64:
    # np.angle(z): the same arctan2, without its array conversions
    return np.arctan2(z.imag, z.real)


def _zyz_angles(m: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (theta, phi, lam) with m ~ U3(theta, phi, lam).

    theta lies in [0, pi], phi and lam in (-pi, pi].  At the theta = 0 and
    theta = pi degeneracies lam is fixed to 0 and the free angle folds into
    phi.
    """
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    m = m / np.sqrt(det)
    theta = 2.0 * math.atan2(abs(m[1, 0]), abs(m[0, 0]))
    if theta <= SYNTH_BRANCH_TOL:
        return 0.0, _wrap(float(_angle(m[1, 1]) - _angle(m[0, 0]))), 0.0
    if theta >= PI - SYNTH_BRANCH_TOL:
        return PI, _wrap(float(_angle(m[1, 0]) - _angle(-m[0, 1]))), 0.0
    phi = _wrap(float(_angle(m[1, 0]) - _angle(m[0, 0])))
    lam = _wrap(float(_angle(-m[0, 1]) - _angle(m[0, 0])))
    return theta, phi, lam


def _resynthesize(m: np.ndarray, target: NativeTarget, q: tuple[int]) -> list[Gate]:
    """Shortest native single-qubit sequence on q for a 2x2 unitary, up to phase."""
    theta, phi, lam = _zyz_angles(m)
    if target is NativeTarget.IBM:
        if theta == 0.0 and abs(phi) <= ZERO_ANGLE_TOL:
            return []
        return [_gate(GateKind.U3, (theta, phi, lam), q)]
    if theta == 0.0:
        return [] if abs(phi) <= ZERO_ANGLE_TOL else [_gate(GateKind.RZ, (phi,), q)]
    if theta == PI:
        delta = _wrap(phi + PI)
        rz = [_gate(GateKind.RZ, (delta,), q)] if abs(delta) > ZERO_ANGLE_TOL else []
        return [_gate(GateKind.RX, (PI,), q), *rz]
    out = []
    if abs(_wrap(lam)) > ZERO_ANGLE_TOL:
        out.append(_gate(GateKind.RZ, (_wrap(lam),), q))
    rx = _gate(GateKind.RX, (HALF_PI,), q)
    out += [rx, _gate(GateKind.RZ, (_wrap(theta + PI),), q), rx]
    if abs(_wrap(phi + PI)) > ZERO_ANGLE_TOL:
        out.append(_gate(GateKind.RZ, (_wrap(phi + PI),), q))
    return out


def _takes_three(run: tuple[Gate, ...]) -> bool:
    # RZs and RX(+-pi)s around one RX(+-pi/2) multiply to entries of modulus
    # 1/sqrt(2) only: theta = pi/2, which RIGETTI spells RX RZ RX at the least
    quarters = 0
    for g in run:
        turn = abs(_wrap(g.angles[0])) if g.kind is GateKind.RX else None
        if turn is not None and abs(turn - HALF_PI) <= ANGLE_MATCH_TOL:
            quarters += 1
        elif g.kind is not GateKind.RZ and (turn is None or abs(turn - PI) > ANGLE_MATCH_TOL):
            return False
    return quarters == 1


def _pass_fuse_single_qubit_runs(
    links: _Links, target: NativeTarget, since: int, synthesized: dict | None = None,
    matrices: dict | None = None,
) -> bool:
    """Collapse maximal single-qubit runs when a shorter native form exists.

    A run is a wire-contiguous stretch of single-qubit gates on one qubit.
    Its product is re-synthesized (one U3 on IBM, a native ZXZXZ-style
    sequence on RIGETTI) and substituted at the position of the run's first
    gate, but only when that is strictly shorter.  Only runs holding a dirty
    node are looked at; a change next to a run marks its neighbour in it.
    ``synthesized`` maps each run met before (its gates, in order) to its
    synthesis and ``matrices`` each gate to its matrix, so each is built once.
    """
    synthesized = {} if synthesized is None else synthesized
    matrices = {} if matrices is None else matrices
    end, gates, stamp = links.end, links.gates, links.stamp
    wire_after, wire_before = links.wire_after, links.wire_before
    starts = []  # the first node of each run with a dirty node, found once
    i = links.after[end]
    while i != end:
        if stamp[i] >= since and len(gates[i].qubits) == 1:
            first, q = i, gates[i].qubits[0]
            p = wire_before[q][i]  # back to the run's first node or an earlier dirty one
            while p != end and len(gates[p].qubits) == 1 and stamp[p] < since:
                first, p = p, wire_before[q][p]
            if p == end or len(gates[p].qubits) == 2:
                starts.append(first)
        i = links.after[i]

    changed = False
    for first in starts:
        q = gates[first].qubits[0]
        run, j = [first], wire_after[q][first]
        while j != end and len(gates[j].qubits) == 1:
            run.append(j)
            j = wire_after[q][j]
        run_gates = tuple([gates[i] for i in run])
        if len(run) < 2 or len(run) < 4 and target is NativeTarget.RIGETTI and _takes_three(run_gates):
            continue  # no synthesis is shorter
        key = _memo_key(run_gates)
        synth = synthesized.get(key)
        if synth is None:
            m = _EYE2
            for g in run_gates:
                g_m = matrices.get(g_key := _memo_key((g,)))
                if g_m is None:
                    g_m = matrices[g_key] = gate_matrix(g)
                m = g_m @ m
            synth = synthesized[key] = _resynthesize(m, target, run_gates[0].qubits)
        if len(synth) < len(run):
            # the synthesis takes over the run's first nodes, linked in a row
            for i in run[len(synth) :]:
                links.delete(i)
            for prev, i in zip(run, run[1 : len(synth)]):
                if links.after[prev] != i:
                    links.delete(i)
                    links.insert_after(i, prev)
            for i, g in zip(run, synth):
                links.substitute(i, g)
            changed = True
    return changed


_PASSES = (
    ("merge_rotations", _pass_merge_rotations),
    ("cancel_inverse_pairs", _pass_cancel_inverse_pairs),
    ("drop_zero_rotations", _pass_drop_zero_rotations),
    ("commute_through_entanglers", _pass_commute_through_entanglers),
    ("fuse_single_qubit_runs", _pass_fuse_single_qubit_runs),
)


# ---------------------------------------------------------------------------
# Reports and drivers


@dataclass(frozen=True)
class CompileReport:
    """What one compilation did, and how closely it matched its source."""

    target: NativeTarget
    input_counts: GateCounts
    output_counts: GateCounts
    passes_applied: tuple[tuple[str, int], ...]
    equivalence_fidelity: float  # the worst |<source|compiled>| over the check's states

    # read by the benchmark's tracer (perfbench/tracing.py); every compile is checked
    equivalence_checked = True

    def fidelity_line(self) -> str:
        return f"equivalence fidelity: {self.equivalence_fidelity:.12f}"


def _compile_one(program: Program, target: NativeTarget, mode: str, tables) -> tuple[Program, list]:
    """One segment alone, unchecked: the compiled program and its pass ledger.

    ``tables`` are the call's {source gate: its lowering}, {run of
    single-qubit gates: its synthesis} and {gate in a run: its matrix}, keyed
    by ``_memo_key``.  The 'domain_specific' mode runs the pass pipeline
    round-robin after lowering, each pass on the nodes dirtied since it last
    ran; a round with no change ends the loop.  Exceeding MAX_PASS_ROUNDS
    means some rewrite is cycling, which is a bug worth surfacing rather than
    hiding.
    """
    lowered, synthesized, matrices = tables
    gates = _lower_gates(program.gates, target, lowered)
    applied = [("lower_generic", len(gates) - len(program.gates))]
    if mode == "domain_specific":
        links = _Links(gates)
        seen = [0] * len(_PASSES)  # per pass, the clock of its last run
        for _ in range(MAX_PASS_ROUNDS):
            changed = False
            for k, (name, pass_fn) in enumerate(_PASSES):
                if links.marked < seen[k]:
                    continue  # no node is dirty since the pass last ran
                since, links.clock = seen[k], links.clock + 1
                seen[k], size = links.clock, links.size
                extra = (synthesized, matrices) if pass_fn is _pass_fuse_single_qubit_runs else ()
                if pass_fn(links, target, since, *extra):
                    applied.append((name, links.size - size))
                    changed = True
            if not changed:
                break
        else:
            raise CompileError(f"pass pipeline failed to reach a fixpoint in {MAX_PASS_ROUNDS} rounds")
        gates = links.in_order()
    # every gate is the program's, or made by lowering or a pass on the qubits of one
    return Program._unchecked(program.num_qubits, tuple(gates)), applied


def _check(source: CircuitSeries, compiled: CircuitSeries) -> list[float]:
    """Per segment, the worst overlap |<source|compiled>| on CHECK_STATES states.

    Every segment starts from the same seeded Haar-random states, so its
    result does not depend on the other segments of the series: each state
    runs through the segment's source blocks and its compiled blocks, as each
    series fused them, one ``evolve`` per side.  With o_c the overlap on state
    c and phi = o_0/|o_0|, each ||compiled_c - phi source_c|| must be at most
    CHECK_TOL.  That 2-norm moves to first order in a gate's error, where
    1 - |o_c| moves to second order (Burgholzer & Wille, IEEE TCAD 40(9), 2021).
    """
    rng = np.random.default_rng(CHECK_SEED)
    phases, worst = [], [1.0] * len(source.segments)
    for c in range(CHECK_STATES):  # one state at a time
        state = rng.standard_normal(2 << source.segments[0].num_qubits).view(np.complex128)
        state /= np.linalg.norm(state)
        for k, (src_blocks, out_blocks) in enumerate(zip(source.blocks, compiled.blocks)):
            (src,) = evolve(state.copy(), [src_blocks])
            (out,) = evolve(state.copy(), [out_blocks])
            overlap = np.vdot(src, out)
            if c == 0:  # a zero overlap leaves the residual at sqrt(2)
                phases.append(overlap / abs(overlap) if overlap else 1.0)
            np.multiply(src, phases[k], out=src)  # src is this segment's own array
            residual = float(np.linalg.norm(np.subtract(out, src, out=src)))
            if not residual <= CHECK_TOL:  # NaN fails too
                raise CompileError(f"compiled segment {k} differs from its source: {residual=:.3e}")
            worst[k] = min(worst[k], float(abs(overlap)))
    return worst


def compile_segments(
    series: CircuitSeries, target: NativeTarget, mode: str
) -> tuple[CircuitSeries, list[CompileReport]]:
    """Compile each segment of a series alone, then check each from the same states.

    Returns the compiled series, in the source's order, and one report per
    segment.  ``mode`` is 'generic' lowering or 'domain_specific' (lowering,
    then the pass pipeline); the check raises CompileError for a compiled
    segment that differs from its source.  The segments share this call's
    tables of each distinct source gate's lowering, each distinct
    single-qubit run's synthesis (kept even when it is not shorter) and each
    distinct gate's matrix in a run, keyed by whole gates so that a hit
    returns exactly what the work would; nothing outlives the call.
    """
    if mode not in ("generic", "domain_specific"):
        raise CompileError(f"unknown compile mode {mode!r}")
    n = series.segments[0].num_qubits
    if n > MAX_QUBITS:  # refused before the check allocates a state
        raise ValueError(f"cannot check a compile on {n} qubits: the check runs at most {MAX_QUBITS}")
    tables = ({}, {}, {})
    done = [_compile_one(program, target, mode, tables) for program in series.segments]
    compiled = CircuitSeries(tuple(out for out, _ in done), series.order)
    fidelities = _check(series, compiled)
    return compiled, [
        CompileReport(target, gate_counts(src), gate_counts(out), tuple(applied), fidelity)
        for src, (out, applied), fidelity in zip(series.segments, done, fidelities)
    ]


def compile_program(program: Program, target: NativeTarget, mode: str) -> tuple[Program, CompileReport]:
    """``compile_segments`` on one program: 'generic' or 'domain_specific' mode."""
    compiled, (report,) = compile_segments(CircuitSeries((program,), (0,)), target, mode)
    return compiled.segments[0], report
