"""Native-gate lowering and the domain-specific peephole optimizer.

Two hardware gate sets are modeled:

  IBM:     {U1, U2, U3, CNOT}, angles unrestricted
  RIGETTI: {RX at +-pi/2 or +-pi only, RZ at any angle, CZ}

``lower_generic`` performs plain gate-by-gate table substitution with no
optimization.  ``ds_compile`` lowers and then runs a round-robin pipeline of
rewriting passes to a fixpoint; every rewrite preserves the program unitary
up to a global phase, which the report records as a fidelity whenever the
register is small enough to check densely.

Each pass is one linear sweep: the gate list is held as a doubly linked list
whose nodes are also linked per wire, so finding the next gate on a qubit,
deleting a gate and moving one are O(1).  One such list carries a compile
through every round; each pass edits it in place.  A memo, one per run,
holds each distinct source gate's lowering and each distinct single-qubit
run's synthesis, so the step segments of a run share that work.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Gate,
    GateCounts,
    GateKind,
    Program,
    gate_counts,
    gate_matrix,
    make_gate,
    program_unitary,
)

PI = math.pi
HALF_PI = math.pi / 2

ANGLE_MATCH_TOL = 1e-9
ZERO_ANGLE_TOL = 1e-12
COMMUTE_TOL = 1e-12
SYNTH_BRANCH_TOL = 1e-9
EQUIV_CHECK_MAX_QUBITS = 10
MAX_PASS_ROUNDS = 100

_ROTATION_KINDS = (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.U1)
_SELF_INVERSE_KINDS = (GateKind.H, GateKind.X, GateKind.CNOT, GateKind.CZ)
_DIAGONAL_KINDS = (GateKind.RZ, GateKind.U1, GateKind.Z, GateKind.S, GateKind.SDG)

_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=np.complex128)


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

    def allows(self, gate: Gate) -> bool:
        if self is NativeTarget.IBM:
            return gate.kind in (GateKind.U1, GateKind.U2, GateKind.U3, GateKind.CNOT)
        if gate.kind in (GateKind.RZ, GateKind.CZ):
            return True
        if gate.kind is GateKind.RX:
            return _rx_native(gate.angles[0])
        return False


def conforms(program: Program, target: NativeTarget) -> bool:
    """Whether every gate of the program is native to the target."""
    return all(target.allows(g) for g in program.gates)


def _wrap(angle: float) -> float:
    """Reduce an angle to the branch (-pi, pi]."""
    a = (angle + PI) % (2 * PI) - PI
    return PI if a == -PI else a


def _rx_native(angle: float) -> bool:
    # Membership in {+-pi/2, +-pi} modulo 2*pi, to ANGLE_MATCH_TOL.
    d = angle % (2 * PI)
    return any(abs(d - t) <= ANGLE_MATCH_TOL for t in (HALF_PI, PI, 3 * HALF_PI))


# ---------------------------------------------------------------------------
# Generic lowering


def _zxzxz(theta: float, phi: float, lam: float, q: int) -> list[Gate]:
    # Circuit order; equals U3(theta, phi, lam) up to a global phase.
    return [
        make_gate(GateKind.RZ, [q], [lam]),
        make_gate(GateKind.RX, [q], [HALF_PI]),
        make_gate(GateKind.RZ, [q], [theta + PI]),
        make_gate(GateKind.RX, [q], [HALF_PI]),
        make_gate(GateKind.RZ, [q], [phi + PI]),
    ]


def _lower_gate_ibm(g: Gate) -> list[Gate]:
    k, q = g.kind, g.qubits
    if k in (GateKind.U1, GateKind.U2, GateKind.U3, GateKind.CNOT):
        return [g]
    if k is GateKind.H:
        return [make_gate(GateKind.U2, q, [0.0, PI])]
    if k is GateKind.X:
        return [make_gate(GateKind.U3, q, [PI, 0.0, PI])]
    if k is GateKind.Y:
        return [make_gate(GateKind.U3, q, [PI, HALF_PI, HALF_PI])]
    if k is GateKind.Z:
        return [make_gate(GateKind.U1, q, [PI])]
    if k is GateKind.S:
        return [make_gate(GateKind.U1, q, [HALF_PI])]
    if k is GateKind.SDG:
        return [make_gate(GateKind.U1, q, [-HALF_PI])]
    if k is GateKind.RX:
        return [make_gate(GateKind.U3, q, [g.angles[0], -HALF_PI, HALF_PI])]
    if k is GateKind.RY:
        return [make_gate(GateKind.U3, q, [g.angles[0], 0.0, 0.0])]
    if k is GateKind.RZ:
        return [make_gate(GateKind.U1, q, [g.angles[0]])]
    if k is GateKind.CZ:
        hadamard = make_gate(GateKind.U2, [q[1]], [0.0, PI])
        return [hadamard, make_gate(GateKind.CNOT, q), hadamard]
    raise CompileError(f"no ibm lowering for {k.value}")


def _lower_gate_rigetti(g: Gate) -> list[Gate]:
    k, q = g.kind, g.qubits
    if k in (GateKind.RZ, GateKind.CZ):
        return [g]
    if k is GateKind.RX:
        if _rx_native(g.angles[0]):
            return [g]
        return _zxzxz(g.angles[0], -HALF_PI, HALF_PI, q[0])
    if k is GateKind.H:
        return [
            make_gate(GateKind.RZ, q, [HALF_PI]),
            make_gate(GateKind.RX, q, [HALF_PI]),
            make_gate(GateKind.RZ, q, [HALF_PI]),
        ]
    if k is GateKind.X:
        return [make_gate(GateKind.RX, q, [PI])]
    if k is GateKind.Y:
        return [make_gate(GateKind.RZ, q, [PI]), make_gate(GateKind.RX, q, [PI])]
    if k is GateKind.Z:
        return [make_gate(GateKind.RZ, q, [PI])]
    if k is GateKind.S:
        return [make_gate(GateKind.RZ, q, [HALF_PI])]
    if k is GateKind.SDG:
        return [make_gate(GateKind.RZ, q, [-HALF_PI])]
    if k is GateKind.U1:
        return [make_gate(GateKind.RZ, q, [g.angles[0]])]
    if k is GateKind.RY:
        return [
            make_gate(GateKind.RX, q, [HALF_PI]),
            make_gate(GateKind.RZ, q, [g.angles[0]]),
            make_gate(GateKind.RX, q, [-HALF_PI]),
        ]
    if k is GateKind.U2:
        return _zxzxz(HALF_PI, g.angles[0], g.angles[1], q[0])
    if k is GateKind.U3:
        return _zxzxz(g.angles[0], g.angles[1], g.angles[2], q[0])
    if k is GateKind.CNOT:
        control, target = q
        h_native = [
            make_gate(GateKind.RZ, [target], [HALF_PI]),
            make_gate(GateKind.RX, [target], [HALF_PI]),
            make_gate(GateKind.RZ, [target], [HALF_PI]),
        ]
        return h_native + [make_gate(GateKind.CZ, [control, target])] + h_native
    raise CompileError(f"no rigetti lowering for {k.value}")


def _memo_tables(memo: dict | None, target: NativeTarget) -> tuple[dict, dict]:
    # memo's (lowered, synthesized) tables for target: {source gate: its
    # lowering} and {run of single-qubit gates: its synthesis}
    return ({} if memo is None else memo).setdefault(target, ({}, {}))


def _memo_key(gates: tuple[Gate, ...]):
    # Gates compare by value, and an angle of -0.0 equals 0.0 but prints as
    # "-0"; when any angle is zero, its text keeps the two zeros apart.
    if any(0.0 in g.angles for g in gates):
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


def lower_generic(program: Program, target: NativeTarget, memo: dict | None = None) -> Program:
    """Gate-by-gate substitution into the target set; no optimization."""
    lowered, _ = _memo_tables(memo, target)
    return Program(program.num_qubits, tuple(_lower_gates(program.gates, target, lowered)))


# ---------------------------------------------------------------------------
# Peephole passes.  Each pass edits a ``_Links`` in place, returns whether it
# changed anything and must preserve the program unitary up to a global phase
# on any input.  "Adjacent" always means: no gate in between touches any of
# the qubits involved.


class _Links:
    """A gate list as a doubly linked list whose nodes are also linked per wire.

    Node i starts as ``gates[i]``.  ``after``/``before`` give the list order and
    ``wire_after[i][q]``/``wire_before[i][q]`` the next and previous node on
    qubit q.  Node ``end`` (gate None) closes the list and every wire, so the
    next gate touching a node's qubits is one lookup, and deleting or moving a
    node is O(1).  ``size`` counts the linked gates.  A sweep visits the nodes
    in list order; after a merge it looks at the same node again, after a
    cancel or a move it goes on at the node's old successor.
    """

    def __init__(self, gates) -> None:
        n = self.end = self.size = len(gates)
        self.gates = [*gates, None]
        self.after = [*range(1, n + 1), 0]
        self.before = [n, *range(n)]
        self.wire_after = [dict.fromkeys(g.qubits, n) for g in gates] + [{}]
        self.wire_before: list[dict[int, int]] = [{} for _ in range(n + 1)]
        last: dict[int, int] = {}
        for i, g in enumerate(gates):
            for q in g.qubits:
                p = self.wire_before[i][q] = last.get(q, n)
                self.wire_after[p][q] = last[q] = i

    def next_touching(self, i: int) -> int:
        """The next node on every wire of node i (a gate has one or two), or
        end if no one node is."""
        qubits, wires = self.gates[i].qubits, self.wire_after[i]
        j = wires[qubits[0]]
        return j if wires[qubits[-1]] == j else self.end

    def delete(self, i: int) -> None:
        self.size -= 1
        a, b = self.after[i], self.before[i]
        self.after[b], self.before[a] = a, b
        for q, p in self.wire_before[i].items():
            s = self.wire_after[i][q]
            self.wire_after[p][q], self.wire_before[s][q] = s, p

    def insert_after(self, i: int, e: int) -> None:
        """Link the deleted node i back in right after node e, which touches
        every wire of i."""
        self.size += 1
        a = self.after[e]
        self.after[e], self.before[i], self.after[i], self.before[a] = i, e, a, i
        for q in self.wire_before[i]:
            s = self.wire_after[e][q]
            self.wire_after[e][q] = self.wire_before[s][q] = i
            self.wire_before[i][q], self.wire_after[i][q] = e, s

    def in_order(self) -> list[Gate]:
        out, i = [], self.after[self.end]
        while i != self.end:
            out.append(self.gates[i])
            i = self.after[i]
        return out


def _pass_merge_rotations(links: _Links, target: NativeTarget) -> bool:
    """Sum adjacent same-kind rotations on the same qubit.

    On the RIGETTI target an RX pair only merges when the summed angle is
    itself native (or zero, which the drop pass then removes); anything else
    would push the gate out of the allowed angle set.
    """
    size = links.size
    i = links.after[links.end]
    while i != links.end:
        g = links.gates[i]
        if g.kind in _ROTATION_KINDS:
            j = links.next_touching(i)
            h = links.gates[j]
            if h is not None and h.kind is g.kind and h.qubits == g.qubits:
                total = _wrap(g.angles[0] + h.angles[0])
                mergeable = True
                if g.kind is GateKind.RX and target is NativeTarget.RIGETTI:
                    mergeable = abs(total) <= ZERO_ANGLE_TOL or _rx_native(total)
                if mergeable:
                    links.delete(j)
                    links.gates[i] = make_gate(g.kind, g.qubits, [total])
                    continue
        i = links.after[i]
    return links.size != size


def _pass_cancel_inverse_pairs(links: _Links, target: NativeTarget) -> bool:
    """Drop adjacent identical self-inverse pairs (H, X, CNOT, CZ)."""
    size = links.size
    i = links.after[links.end]
    while i != links.end:
        g = links.gates[i]
        if g.kind in _SELF_INVERSE_KINDS:
            j = links.next_touching(i)
            h = links.gates[j]
            if h is not None and h.kind is g.kind:
                same = h.qubits == g.qubits or (
                    g.kind is GateKind.CZ and set(h.qubits) == set(g.qubits)
                )
                if same:
                    links.delete(j)
                    successor = links.after[i]
                    links.delete(i)
                    i = successor
                    continue
        i = links.after[i]
    return links.size != size


def _pass_drop_zero_rotations(links: _Links, target: NativeTarget) -> bool:
    """Remove rotations whose angle is 0 modulo 2*pi (within 1e-12)."""
    size = links.size
    i = links.after[links.end]
    while i != links.end:
        g, successor = links.gates[i], links.after[i]
        if g.kind in _ROTATION_KINDS and abs(_wrap(g.angles[0])) <= ZERO_ANGLE_TOL:
            links.delete(i)
        i = successor
    return links.size != size


def _is_diagonal(g: Gate) -> bool:
    return g.kind in _DIAGONAL_KINDS


def _commutes_with_x(g: Gate) -> bool:
    if g.kind in (GateKind.X, GateKind.RX):
        return True
    if g.kind in (GateKind.U2, GateKind.U3):
        m = gate_matrix(g)
        return bool(np.max(np.abs(m @ _X_MATRIX - _X_MATRIX @ m)) <= COMMUTE_TOL)
    return False


def _pass_commute_through_entanglers(links: _Links, target: NativeTarget) -> bool:
    """Move single-qubit gates rightward through entanglers they commute with.

    Diagonal gates (RZ/U1 and friends) slide through CZ on either leg and
    through CNOT controls; x-axis rotations slide through CNOT targets.  The
    drift is rightward only, which both terminates and parks rotations next
    to each other for the merge and fuse passes.
    """
    moved = False
    i = links.after[links.end]
    while i != links.end:
        g = links.gates[i]
        if len(g.qubits) == 1:
            j = links.next_touching(i)
            e = links.gates[j]
            if e is not None:
                q = g.qubits[0]
                movable = False
                if e.kind is GateKind.CZ:
                    movable = _is_diagonal(g)
                elif e.kind is GateKind.CNOT:
                    if q == e.qubits[0]:
                        movable = _is_diagonal(g)
                    else:
                        movable = _commutes_with_x(g)
                if movable:
                    successor = links.after[i]
                    links.delete(i)
                    links.insert_after(i, j)
                    i, moved = successor, True
                    continue
        i = links.after[i]
    return moved


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
        return 0.0, _wrap(float(np.angle(m[1, 1]) - np.angle(m[0, 0]))), 0.0
    if theta >= PI - SYNTH_BRANCH_TOL:
        return PI, _wrap(float(np.angle(m[1, 0]) - np.angle(-m[0, 1]))), 0.0
    phi = _wrap(float(np.angle(m[1, 0]) - np.angle(m[0, 0])))
    lam = _wrap(float(np.angle(-m[0, 1]) - np.angle(m[0, 0])))
    return theta, phi, lam


def _resynthesize(m: np.ndarray, target: NativeTarget, q: int) -> list[Gate]:
    """Shortest native single-qubit sequence for a 2x2 unitary, up to phase."""
    theta, phi, lam = _zyz_angles(m)
    if target is NativeTarget.IBM:
        if theta == 0.0 and abs(phi) <= ZERO_ANGLE_TOL:
            return []
        return [make_gate(GateKind.U3, [q], [theta, phi, lam])]
    if theta == 0.0:
        if abs(phi) <= ZERO_ANGLE_TOL:
            return []
        return [make_gate(GateKind.RZ, [q], [phi])]
    if theta == PI:
        out = [make_gate(GateKind.RX, [q], [PI])]
        delta = _wrap(phi + PI)
        if abs(delta) > ZERO_ANGLE_TOL:
            out.append(make_gate(GateKind.RZ, [q], [delta]))
        return out
    out = []
    if abs(_wrap(lam)) > ZERO_ANGLE_TOL:
        out.append(make_gate(GateKind.RZ, [q], [_wrap(lam)]))
    out += [
        make_gate(GateKind.RX, [q], [HALF_PI]),
        make_gate(GateKind.RZ, [q], [_wrap(theta + PI)]),
        make_gate(GateKind.RX, [q], [HALF_PI]),
    ]
    if abs(_wrap(phi + PI)) > ZERO_ANGLE_TOL:
        out.append(make_gate(GateKind.RZ, [q], [_wrap(phi + PI)]))
    return out


def _pass_fuse_single_qubit_runs(
    links: _Links, target: NativeTarget, synthesized: dict | None = None
) -> bool:
    """Collapse maximal single-qubit runs when a shorter native form exists.

    A run is a wire-contiguous stretch of single-qubit gates on one qubit.
    Its product is re-synthesized (one U3 on IBM, a native ZXZXZ-style
    sequence on RIGETTI) and substituted at the position of the run's first
    gate, but only when that is strictly shorter.  ``synthesized`` maps each
    run met before (its gates, in order) to its synthesis, so that equal runs
    are synthesized once.
    """
    if synthesized is None:
        synthesized = {}
    end, gates, wire_after = links.end, links.gates, links.wire_after
    runs: list[list[int]] = []
    i = links.after[end]
    while i != end:  # each run of two or more, found from its first gate
        qubits = gates[i].qubits
        if len(qubits) == 1:
            q = qubits[0]
            p = links.wire_before[i][q]
            if p == end or len(gates[p].qubits) == 2:
                run, j = [i], wire_after[i][q]
                while j != end and len(gates[j].qubits) == 1:
                    run.append(j)
                    j = wire_after[j][q]
                if len(run) > 1:
                    runs.append(run)
        i = links.after[i]

    changed = False
    for run in runs:
        run_gates = tuple(gates[i] for i in run)
        key = _memo_key(run_gates)
        synth = synthesized.get(key)
        if synth is None:
            m = np.eye(2, dtype=np.complex128)
            for g in run_gates:
                m = gate_matrix(g) @ m
            synth = synthesized[key] = _resynthesize(m, target, run_gates[0].qubits[0])
        if len(synth) < len(run):
            # the synthesis takes over the run's first nodes, linked in a row
            for i in run[1:]:
                links.delete(i)
            for prev, i, g in zip(run, run[1:], synth[1:]):
                gates[i] = g
                links.insert_after(i, prev)
            if synth:
                gates[run[0]] = synth[0]
            else:
                links.delete(run[0])
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
    """What one compilation did, and whether it was verified."""

    target: NativeTarget
    input_counts: GateCounts
    output_counts: GateCounts
    passes_applied: tuple[tuple[str, int], ...]
    equivalence_checked: bool
    equivalence_fidelity: float | None

    def fidelity_line(self) -> str:
        if self.equivalence_checked:
            return f"equivalence fidelity: {self.equivalence_fidelity:.12f}"
        return "equivalence fidelity: not checked (register too large)"


def _equivalence(a: Program, b: Program) -> tuple[bool, float | None]:
    if a.num_qubits > EQUIV_CHECK_MAX_QUBITS:
        return False, None
    ua = program_unitary(a)
    ub = program_unitary(b)
    fidelity = float(abs(np.trace(ua.conj().T @ ub)) / ua.shape[0])
    return True, fidelity


def _report(
    source: Program,
    compiled: Program,
    target: NativeTarget,
    applied: list[tuple[str, int]],
) -> CompileReport:
    checked, fidelity = _equivalence(source, compiled)
    return CompileReport(
        target=target,
        input_counts=gate_counts(source),
        output_counts=gate_counts(compiled),
        passes_applied=tuple(applied),
        equivalence_checked=checked,
        equivalence_fidelity=fidelity,
    )


def ds_compile(
    program: Program, target: NativeTarget, memo: dict | None = None
) -> tuple[Program, CompileReport]:
    """Lower to the target set, then optimize to a fixpoint.

    The pass pipeline runs round-robin; a full round with no change ends the
    loop.  Exceeding MAX_PASS_ROUNDS means some rewrite is cycling, which is
    a bug worth surfacing rather than hiding.  ``memo`` is as for
    ``compile_program``.
    """
    lowered, synthesized = _memo_tables(memo, target)
    links = _Links(_lower_gates(program.gates, target, lowered))
    applied = [("lower_generic", links.size - len(program.gates))]
    for _ in range(MAX_PASS_ROUNDS):
        changed = False
        for name, pass_fn in _PASSES:
            size = links.size
            if pass_fn is _pass_fuse_single_qubit_runs:
                fired = pass_fn(links, target, synthesized)
            else:
                fired = pass_fn(links, target)
            if fired:
                applied.append((name, links.size - size))
                changed = True
        if not changed:
            break
    else:
        raise CompileError(
            f"pass pipeline failed to reach a fixpoint in {MAX_PASS_ROUNDS} rounds"
        )
    compiled = Program(program.num_qubits, tuple(links.in_order()))
    return compiled, _report(program, compiled, target, applied)


def compile_program(
    program: Program, target: NativeTarget, mode: str, memo: dict | None = None
) -> tuple[Program, CompileReport]:
    """Dispatch on compile mode: 'generic' lowering or 'domain_specific'.

    ``memo`` is a dict that carries work from one call to the next: each
    distinct source gate's lowering and each distinct single-qubit run's
    synthesis (kept even when it is not shorter).  Its keys are whole gates,
    so a hit returns exactly what the work would.  Pass one fresh dict to the
    compilations of one run and drop it with the run.
    """
    if mode == "generic":
        lowered = lower_generic(program, target, memo)
        report = _report(
            program,
            lowered,
            target,
            [("lower_generic", len(lowered.gates) - len(program.gates))],
        )
        return lowered, report
    if mode == "domain_specific":
        return ds_compile(program, target, memo)
    raise CompileError(f"unknown compile mode {mode!r}")
