"""Local statevector backend: exact runs, multinomial sampling, Pauli noise.

Basis-state indexing matches the IR convention: qubit 0 is the leftmost
character of a bitstring, i.e. the most significant bit of the state index,
and spin-up is |0>.  All randomness flows through numpy's default PCG64
generator seeded explicitly, so identical seeds give identical outputs.  A
series draws each circuit's samples from its own stream, spawned from the
run seed, so no two circuits or seeds share one.

Exact runs use ``circuits.evolve`` (gates fused into blocks on ranges of up to
four qubits, each applied in place by one matmul on a reshaped view, a repeated
step replayed from its recorded blocks); noisy ones apply each gate and Pauli in
place, through the same kernel, which gathers any qubit set that is not a
range.  Every site's <sigma^z> comes from one pairwise-halving pass over the
probabilities, which ``simulate_series`` and ``expectation_z`` share, so the two
agree bit for bit.  Each returned ``StateVector`` is checked once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .circuits import Gate, Program, apply_matrix, evolve, gate_matrix, make_gate
from .config import register_problems, spin_bit

if TYPE_CHECKING:
    from .trotter import CircuitSeries, SimulationPlan


class SimulationError(ValueError):
    """Raised for invalid simulator inputs."""


@dataclass
class StateVector:
    """A normalized pure state over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise SimulationError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({1 << self.num_qubits},)"
            )
        norm = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if abs(norm - 1.0) > 1e-10:
            raise SimulationError(f"state is not normalized: |psi|^2 = {norm}")


def init_state(num_qubits: int, initial_spins: Sequence[str] | None = None) -> StateVector:
    """Product basis state with the given spin per site (default all up)."""
    spins = None if initial_spins is None else tuple(initial_spins)
    problems = register_problems(num_qubits, spins)
    if problems:
        raise SimulationError("; ".join(problems))
    index = 0
    for q, spin in enumerate(spins or ()):
        index |= spin_bit(spin) << (num_qubits - 1 - q)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """One gate on a copy of the state, through the in-place kernel."""
    n = state.num_qubits
    if any(q >= n for q in gate.qubits):
        raise SimulationError(f"gate on {gate.qubits} exceeds {n} qubit register")
    amps = state.amplitudes.copy()
    apply_matrix(amps, gate_matrix(gate), gate.qubits)
    return StateVector(n, amps)


def run_statevector(program: Program, initial_spins: Sequence[str] | None = None) -> StateVector:
    """Run the whole program from the given product state."""
    amps = init_state(program.num_qubits, initial_spins).amplitudes
    (final,) = evolve(amps, program.gates, [len(program)])
    return StateVector(program.num_qubits, final)


def _check_qubit(qubit: int, n: int) -> None:
    if not 0 <= qubit < n:
        raise SimulationError(f"qubit {qubit} out of range for {n} qubits")


def _z_expectations(probs: np.ndarray) -> list[float]:
    # every qubit's <sigma^z> from the basis-state probabilities, which it
    # overwrites: the high half of probs has the first qubit down, and adding
    # it onto the low half leaves the distribution of the qubits after it, so
    # all n values take O(2^n) in total
    values = []
    while len(probs) > 1:
        low, high = probs.reshape(2, -1)
        values.append(1.0 - 2.0 * float(high.sum()))
        probs = np.add(low, high, out=low)
    return values


def expectation_z(state: StateVector, qubit: int) -> float:
    """<sigma^z> on one qubit: +1 for |0> (spin-up), -1 for |1>."""
    _check_qubit(qubit, state.num_qubits)
    return _z_expectations(np.abs(state.amplitudes) ** 2)[qubit]


def sample_counts(
    state: StateVector, shots: int, seed: int | np.random.SeedSequence
) -> dict[str, int]:
    """Multinomial z-basis measurement counts, keyed by bitstring."""
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, probs)
    n = state.num_qubits
    return {
        format(i, f"0{n}b"): int(c) for i, c in enumerate(drawn) if c > 0
    }


def magnetization_from_counts(counts: dict[str, int], qubit: int) -> float:
    """Estimator (n_up - n_down) / shots for one qubit from sampled counts."""
    shots = sum(counts.values())
    if shots < 1:
        raise SimulationError("counts are empty")
    _check_qubit(qubit, len(next(iter(counts))))
    up = sum(c for bits, c in counts.items() if bits[qubit] == "0")
    return (up - (shots - up)) / shots


@dataclass(frozen=True, slots=True)
class NoiseParams:
    """Depolarizing-style Pauli noise strengths.

    After each gate, every qubit the gate touched is independently hit with a
    uniformly random non-identity Pauli with probability p1 (single-qubit
    gates) or p2 (two-qubit gates).
    """

    p1: float = 0.001
    p2: float = 0.01

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {p}")


_PAULIS = tuple(gate_matrix(make_gate(kind, [0])) for kind in "xyz")


def run_noisy(
    program: Program,
    initial_spins: Sequence[str] | None,
    shots: int,
    noise: NoiseParams,
    seed: int | np.random.SeedSequence,
) -> dict[str, int]:
    """Monte Carlo Pauli-noise sampling: one trajectory per shot.

    Draw order is fixed (per gate in program order, per touched qubit in gate
    order, then one measurement draw per shot), so results are reproducible
    for a given seed.  With p1 = p2 = 0 this reduces exactly to
    ``sample_counts`` of the noiseless final state under the same seed.
    """
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    if noise.p1 == 0.0 and noise.p2 == 0.0:
        return sample_counts(run_statevector(program, initial_spins), shots, seed)
    rng = np.random.default_rng(seed)
    n = program.num_qubits
    initial = init_state(n, initial_spins).amplitudes
    gates = [  # each gate's qubits, matrix and error probability, taken once
        (g.qubits, gate_matrix(g), noise.p1 if len(g.qubits) == 1 else noise.p2)
        for g in program.gates
    ]
    work = np.empty((3, initial.size // 2), initial.dtype)
    counts: dict[str, int] = {}
    dim = 1 << n
    for _ in range(shots):
        amps = initial.copy()
        for qubits, matrix, p in gates:
            apply_matrix(amps, matrix, qubits, work)
            for q in qubits:
                if rng.random() < p:
                    apply_matrix(amps, _PAULIS[rng.integers(3)], (q,), work)
        probs = np.abs(amps) ** 2
        outcome = int(rng.choice(dim, p=probs / probs.sum()))
        bits = format(outcome, f"0{n}b")
        counts[bits] = counts.get(bits, 0) + 1
    return counts


@dataclass(frozen=True)
class MagnetizationSeries:
    """Per-qubit <sigma^z> (or its sampled estimate) over the time grid.

    ``values[q][k]`` is the magnetization of qubit q at ``times[k]``.
    """

    times: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise SimulationError("magnetization series needs at least one qubit row")
        for row in self.values:
            if len(row) != len(self.times):
                raise SimulationError(
                    f"row length {len(row)} does not match {len(self.times)} times"
                )

    @property
    def num_qubits(self) -> int:
        return len(self.values)


def _series_states(series: "CircuitSeries"):
    """Yield the state after each circuit of the series.

    Circuit k is a prefix of the series program, so the program runs once
    from |0...0> and the state is snapshotted at every step mark.  A step
    that repeats a segment's gates from the same fuser state is replayed.
    """
    n = series.program.num_qubits
    amps = init_state(n).amplitudes
    for snapshot in evolve(amps, series.program.gates, series.step_ends):
        yield StateVector(n, snapshot)


def simulate_series(series: "CircuitSeries", plan: "SimulationPlan") -> MagnetizationSeries:
    """Run every circuit of a circuit series and collect magnetizations.

    The series program already contains the state-preparation gates, so
    execution always starts from the all-zero state.

    plan.shots == 0 selects exact expectation values; otherwise each circuit
    is sampled with ``plan.shots`` shots (with Pauli noise when plan.noise is
    set), circuit k from the k-th stream that ``SeedSequence(plan.seed)``
    spawns.  Noisy trajectories run each circuit on its own, from the start.
    """
    n = plan.num_qubits
    rows: list[list[float]] = [[] for _ in range(n)]
    times: list[float] = []
    streams = np.random.SeedSequence(plan.seed).spawn(len(series)) if plan.shots else None
    if plan.noise is not None and plan.shots > 0:
        for index, program in enumerate(series):
            times.append(index * plan.delta_t)
            counts = run_noisy(program, None, plan.shots, plan.noise, streams[index])
            for q in range(n):
                rows[q].append(magnetization_from_counts(counts, q))
    else:
        for index, state in enumerate(_series_states(series)):
            times.append(index * plan.delta_t)
            if plan.shots == 0:
                probs = np.abs(state.amplitudes)
                probs *= probs  # in place: one state-sized temporary fewer at the peak
                for row, value in zip(rows, _z_expectations(probs)):
                    row.append(value)
            else:
                counts = sample_counts(state, plan.shots, streams[index])
                for q in range(n):
                    rows[q].append(magnetization_from_counts(counts, q))
            state = probs = None  # free them before the next snapshot
    return MagnetizationSeries(
        times=tuple(times), values=tuple(tuple(row) for row in rows)
    )
