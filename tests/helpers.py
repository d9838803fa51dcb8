"""Shared test utilities: random program generation and dense oracles."""

from __future__ import annotations

import functools

import numpy as np

from spinchain import GateError, GateKind, Program, RunConfig, compiler, gate_matrix, make_gate

ALL_KINDS = tuple(GateKind)

# kinds that make merges, cancellations and moves frequent
DENSE_KINDS = (
    GateKind.RZ, GateKind.RX, GateKind.U1, GateKind.U3, GateKind.H, GateKind.X,
    GateKind.CZ, GateKind.CNOT,
)

# compiled_sampled in perfbench/workloads.py: a driven n=6 domain wall
# compiled to Rigetti
COMPILED_SAMPLED = RunConfig(
    jx=1.0, jy=0.8, jz=0.5, h_ext=1.0, time_dep_flag=True, freq=0.25,
    num_qubits=6, initial_spins=("up", "up", "up", "down", "down", "down"),
    delta_t=0.05, steps=12, shots=4096, backend="rigetti",
    compile_mode="domain_specific", seed=1,
)


def random_gate(rng: np.random.Generator, num_qubits: int, kinds=ALL_KINDS):
    if num_qubits < 2:
        kinds = tuple(k for k in kinds if k.num_qubits == 1)
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind.num_qubits == 2:
        qubits = [int(q) for q in rng.choice(num_qubits, size=2, replace=False)]
    else:
        qubits = [int(rng.integers(num_qubits))]
    angles = [float(rng.uniform(-2 * np.pi, 2 * np.pi)) for _ in range(kind.num_angles)]
    return make_gate(kind, qubits, angles)


def random_program(rng: np.random.Generator, num_qubits: int, num_gates: int, kinds=ALL_KINDS):
    gates = tuple(random_gate(rng, num_qubits, kinds) for _ in range(num_gates))
    return Program(num_qubits, gates)


def dense_gate_oracle(matrix: np.ndarray, qubits, num_qubits: int) -> np.ndarray:
    """Dense operator built by scalar enumeration over basis states.

    Deliberately naive: walks every basis index with plain Python bit
    arithmetic, independent of any vectorized kernel under test.  Qubit 0 is
    the most significant bit.
    """
    dim = 1 << num_qubits
    out = np.zeros((dim, dim), dtype=np.complex128)
    shifts = [num_qubits - 1 - q for q in qubits]
    k = len(qubits)
    for col in range(dim):
        in_bits = 0
        for pos, shift in enumerate(shifts):
            in_bits |= ((col >> shift) & 1) << (k - 1 - pos)
        for out_bits in range(1 << k):
            row = col
            for pos, shift in enumerate(shifts):
                bit = (out_bits >> (k - 1 - pos)) & 1
                row = (row & ~(1 << shift)) | (bit << shift)
            out[row, col] += matrix[out_bits, in_bits]
    return out


def counts_dict_oracle(state, shots: int, seed) -> dict[str, int]:
    """The same multinomial draw as ``sample_counts``, keyed by bitstring."""
    probs = np.abs(state.amplitudes) ** 2
    drawn = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    n = state.num_qubits
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(drawn) if c > 0}


def magnetization_from_counts_oracle(counts: dict[str, int], qubit: int) -> float:
    """(n_up - n_down) / shots for one qubit, counted over bitstrings."""
    shots = sum(counts.values())
    up = sum(c for bits, c in counts.items() if bits[qubit] == "0")
    return (up - (shots - up)) / shots


# X, Y, Z written out, not taken from the gate table
PAULI_MATRICES = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli_channel_reference(program: Program, marks, p1: float, p2: float) -> np.ndarray:
    """<sigma^z> per mark and site under Pauli noise, by density matrix.

    After each gate, each touched qubit's state goes through
    rho -> (1 - p) rho + (p/3) sum_P P rho P, with p = p1 for single-qubit
    gates and p2 for two-qubit gates.  Gates and Paulis are dense operators
    from ``dense_gate_oracle``; the register starts in |0...0>.
    """
    n = program.num_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    paulis = [[dense_gate_oracle(m, (q,), n) for m in PAULI_MATRICES] for q in range(n)]
    signs = 1 - 2 * ((np.arange(dim)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
    values, done = [], 0
    for mark in marks:
        for gate in program.gates[done:mark]:
            u = dense_gate_oracle(gate_matrix(gate), gate.qubits, n)
            rho = u @ rho @ u.conj().T
            p = p1 if len(gate.qubits) == 1 else p2
            for q in gate.qubits:
                rho = (1 - p) * rho + (p / 3) * sum(m @ rho @ m for m in paulis[q])
        done = max(done, mark)
        values.append(rho.diagonal().real @ signs)
    return np.array(values)


def noisy_trajectory_oracle(program: Program, marks, shots: int, p1: float, p2: float, seed):
    """``run_noisy``'s counts, replayed gate by gate with dense operators.

    Each shot takes the draws in the documented order: a uniform per (gate,
    touched qubit), a hit when below p1 or p2; a Pauli index (X, Y, Z) per
    hit; a uniform per mark.  A hit Pauli acts right after its gate, and a
    mark's outcome is the first basis state whose cumulative probability
    exceeds its uniform times the total.
    """
    n = program.num_qubits
    dense = [dense_gate_oracle(gate_matrix(g), g.qubits, n) for g in program.gates]
    paulis = [[dense_gate_oracle(m, (q,), n) for m in PAULI_MATRICES] for q in range(n)]
    touched = [(i, q, p1 if len(g.qubits) == 1 else p2)
               for i, g in enumerate(program.gates) for q in g.qubits]
    counts = np.zeros((len(marks), 1 << n), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for _ in range(shots):
        hit = [(i, q) for (i, q, p), u in zip(touched, rng.random(len(touched))) if u < p]
        errors = {}
        for (i, q), kind in zip(hit, rng.integers(3, size=len(hit))):
            errors.setdefault(i, []).append(paulis[q][kind])
        draws = rng.random(len(marks))
        psi = np.zeros(1 << n, dtype=complex)
        psi[0] = 1.0
        done = 0
        for k, mark in enumerate(marks):
            for i in range(done, mark):
                psi = dense[i] @ psi
                for pauli in errors.get(i, ()):
                    psi = pauli @ psi
            done = max(done, mark)
            cumulative = np.cumsum(np.abs(psi) ** 2)
            counts[k, next(b for b, c in enumerate(cumulative) if c > draws[k] * cumulative[-1])] += 1
    return counts


def allows(target: compiler.NativeTarget, gate) -> bool:
    """Whether the gate is native to the target (RIGETTI RX only at +-pi/2 or +-pi)."""
    if target is compiler.NativeTarget.IBM:
        return gate.kind in (GateKind.U1, GateKind.U2, GateKind.U3, GateKind.CNOT)
    if gate.kind is GateKind.RX:
        return compiler._rx_native(gate.angles[0])
    return gate.kind in (GateKind.RZ, GateKind.CZ)


def conforms(program: Program, target: compiler.NativeTarget) -> bool:
    """Whether every gate of the program is native to the target."""
    return all(allows(target, g) for g in program.gates)


def on_list(pass_fn):
    """A compiler pass as a function from a gate list to the list it leaves.

    The pass edits a linked list in place, where every node starts dirty, so
    it sweeps the whole list, and must say whether it changed it.
    """

    @functools.wraps(pass_fn)
    def run(gates, target, *args):
        links = compiler._Links(gates)
        changed = pass_fn(links, target, 0, *args)
        out = links.in_order()
        assert changed == (out != list(gates)), pass_fn.__name__
        return out

    return run


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


def programs_structurally_equal(a: Program, b: Program, angle_tol: float = 1e-12) -> bool:
    if a.num_qubits != b.num_qubits or len(a.gates) != len(b.gates):
        return False
    for ga, gb in zip(a.gates, b.gates):
        if ga.kind is not gb.kind or ga.qubits != gb.qubits:
            return False
        if any(abs(x - y) > angle_tol for x, y in zip(ga.angles, gb.angles)):
            return False
    return True


# ---------------------------------------------------------------------------
# Quadratic oracles for the compiler's linked-list passes.  These are the
# passes as first written: index scans over a plain list, with a forward
# search for the next gate touching a qubit.  Each must return exactly the
# list its linked counterpart in spinchain.compiler returns.


def _next_touching(gates, start, qubits):
    qs = set(qubits)
    for j in range(start + 1, len(gates)):
        if qs.intersection(gates[j].qubits):
            return j
    return None


def merge_rotations_oracle(gates, target):
    out = list(gates)
    i = 0
    while i < len(out):
        g = out[i]
        if g.kind in compiler._ROTATION_KINDS:
            j = _next_touching(out, i, g.qubits)
            if j is not None and out[j].kind is g.kind and out[j].qubits == g.qubits:
                total = compiler._wrap(g.angles[0] + out[j].angles[0])
                mergeable = True
                if g.kind is GateKind.RX and target is compiler.NativeTarget.RIGETTI:
                    mergeable = (
                        abs(total) <= compiler.ZERO_ANGLE_TOL or compiler._rx_native(total)
                    )
                if mergeable:
                    del out[j]
                    out[i] = make_gate(g.kind, g.qubits, [total])
                    continue
        i += 1
    return out


def cancel_inverse_pairs_oracle(gates, target):
    out = list(gates)
    i = 0
    while i < len(out):
        g = out[i]
        if g.kind in compiler._SELF_INVERSE_KINDS:
            j = _next_touching(out, i, g.qubits)
            if j is not None and out[j].kind is g.kind:
                same = out[j].qubits == g.qubits or (
                    g.kind is GateKind.CZ and set(out[j].qubits) == set(g.qubits)
                )
                if same:
                    del out[j]
                    del out[i]
                    continue
        i += 1
    return out


def commute_through_entanglers_oracle(gates, target):
    out = list(gates)
    i = 0
    while i < len(out):
        g = out[i]
        if g.kind.num_qubits == 1:
            j = _next_touching(out, i, g.qubits)
            if j is not None:
                e = out[j]
                q = g.qubits[0]
                movable = False
                if e.kind is GateKind.CZ:
                    movable = g.kind in compiler._DIAGONAL_KINDS
                elif e.kind is GateKind.CNOT:
                    if q == e.qubits[0]:
                        movable = g.kind in compiler._DIAGONAL_KINDS
                    else:
                        movable = compiler._commutes_with_x(g)
                if movable:
                    del out[i]
                    out.insert(j, g)
                    continue
        i += 1
    return out


def fuse_single_qubit_runs_oracle(gates, target):
    # runs found by one scan over the list, closed by the two-qubit gates
    runs, open_runs = [], {}
    for idx, g in enumerate(gates):
        if g.kind.num_qubits == 1:
            open_runs.setdefault(g.qubits[0], []).append(idx)
        else:
            for q in g.qubits:
                run = open_runs.pop(q, None)
                if run:
                    runs.append(run)
    runs.extend(open_runs.values())
    replacements, dropped = {}, set()
    for run in runs:
        if len(run) < 2:
            continue
        m = np.eye(2, dtype=np.complex128)
        for idx in run:
            m = compiler.gate_matrix(gates[idx]) @ m
        synth = compiler._resynthesize(m, target, gates[run[0]].qubits)
        if len(synth) < len(run):
            replacements[run[0]] = synth
            dropped.update(run)
    out = []
    for idx, g in enumerate(gates):
        if idx in replacements:
            out.extend(replacements[idx])
        elif idx not in dropped:
            out.append(g)
    return out


def drop_zero_rotations_oracle(gates, target):
    return [
        g
        for g in gates
        if g.kind not in compiler._ROTATION_KINDS
        or abs(compiler._wrap(g.angles[0])) > compiler.ZERO_ANGLE_TOL
    ]


ORACLE_PASSES = (
    ("merge_rotations", merge_rotations_oracle),
    ("cancel_inverse_pairs", cancel_inverse_pairs_oracle),
    ("drop_zero_rotations", drop_zero_rotations_oracle),
    ("commute_through_entanglers", commute_through_entanglers_oracle),
    ("fuse_single_qubit_runs", fuse_single_qubit_runs_oracle),
)


def full_sweep_ds_compile(program, target):
    """The reference for ``compiler.ds_compile``: the round-robin pass loop that
    sweeps every gate with every pass oracle in every round, until a round
    changes nothing.  Returns the compiled gate list and the ledger of the
    passes that fired, as ``CompileReport.passes_applied`` holds it.
    """
    gates = compiler._lower_gates(program.gates, target, {})
    applied = [("lower_generic", len(gates) - len(program.gates))]
    for _ in range(compiler.MAX_PASS_ROUNDS):
        changed = False
        for name, oracle in ORACLE_PASSES:
            out = oracle(gates, target)
            if out != gates:
                applied.append((name, len(out) - len(gates)))
                changed = True
            gates = out
        if not changed:
            return gates, tuple(applied)
    raise compiler.CompileError("the reference loop reached no fixpoint")
