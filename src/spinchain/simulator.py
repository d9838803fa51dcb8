"""Local statevector backend: exact runs, multinomial sampling, Pauli noise.

Basis-state indexing matches the IR convention: qubit 0 is the leftmost
character of a bitstring, i.e. the most significant bit of the state index,
and spin-up is |0>.  All randomness flows through numpy's default PCG64
generator seeded explicitly, so identical seeds give identical outputs.  A
sampled series draws each circuit's samples from its own stream, spawned from
the run seed, so no two circuits or seeds share one; a noisy series draws its
trajectories from one generator on the run seed.

Every mode moves a state only through ``circuits.evolve`` (gates fused into
blocks on ranges of up to four qubits, each one matmul from the state into a
spare, a repeated step replayed from its recorded blocks), which runs the
series program once and writes a snapshot at every step mark.  A noisy shot
is the program with its drawn Paulis spliced in, run the same way.  Every
site's <sigma^z>, and each row's sum, comes from one pairwise-halving pass
over a batch of rows: the probabilities of many marks in exact mode (a sum
off 1 by over 1e-10 is refused), shot counts in sampled and noisy mode.
``simulate_series`` and ``expectation_z`` share it and agree bit for bit.
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


_BATCH_ENTRIES = 1 << 12  # per readout pass: many marks' rows at small n, one row at n >= 12


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


def _z_expectations(weights: np.ndarray, total=1.0) -> tuple[np.ndarray, np.ndarray]:
    # per row of the (rows, 2^n) weights, every qubit's <sigma^z> from the
    # basis-state probabilities, or from shot counts that sum to total, and
    # the row's sum; it overwrites weights.  The high half of a row has the
    # first qubit down, and adding it onto the low half leaves the weights of
    # the qubits after it, so all n values take O(2^n) in total.  Each half
    # sums along a contiguous axis, row by row, so each row's values are the
    # bits of a pass on that row alone; on counts each value is the exact
    # (shots - 2 down) / shots
    values = np.empty((len(weights), weights.shape[1].bit_length() - 1))
    for q in range(values.shape[1]):
        low, high = weights.reshape(len(weights), 2, -1).transpose(1, 0, 2)
        values[:, q] = (total - 2 * high.sum(axis=1)) / total
        weights = np.add(low, high, out=low)
    return values, weights[:, 0]


def expectation_z(state: StateVector, qubit: int) -> float:
    """<sigma^z> on one qubit: +1 for |0> (spin-up), -1 for |1>."""
    if not 0 <= qubit < state.num_qubits:
        raise SimulationError(f"qubit {qubit} out of range for {state.num_qubits} qubits")
    return float(_z_expectations(np.abs(state.amplitudes)[None] ** 2)[0][0, qubit])


def sample_counts(
    state: StateVector, shots: int, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """Multinomial z-basis measurement counts, indexed by basis state."""
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    return np.random.default_rng(seed).multinomial(shots, probs)


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


def run_noisy(
    program: Program,
    marks: Sequence[int],
    shots: int,
    noise: NoiseParams,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Monte Carlo Pauli-noise sampling: one trajectory per shot, read at every mark.

    Returns ``counts[i, b]``, how many shots measured basis state b after the
    first ``marks[i]`` gates; each row sums to ``shots``.  Each shot starts
    from |0...0> and draws from one generator on ``seed``, in this order: one
    uniform per (gate, touched qubit) in program order, a hit when below p1
    (single-qubit gate) or p2; one Pauli (X, Y or Z) per hit; one uniform per
    mark.  The hit Paulis are spliced in after their gates, the shot runs once
    through ``evolve`` with the marks shifted by the splices before them, and
    each snapshot is measured by inverse CDF with its mark's uniform.
    """
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    n, gates, marks = program.num_qubits, program.gates, np.asarray(marks, dtype=np.intp)
    # per (gate, touched qubit): the gate's index, the qubit, its error probability
    owner = np.array([i for i, g in enumerate(gates) for _ in g.qubits], dtype=np.intp)
    touched = [q for g in gates for q in g.qubits]
    p = np.array([noise.p1 if len(g.qubits) == 1 else noise.p2 for g in gates for _ in g.qubits])
    paulis = [[make_gate(kind, [q]) for kind in "xyz"] for q in range(n)]
    lifted: dict = {}  # the gate matrices every shot shares; each keeps its own replays
    initial = init_state(n).amplitudes
    counts = np.zeros((len(marks), len(initial)), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for _ in range(shots):
        hits = np.flatnonzero(rng.random(len(p)) < p)
        kinds = rng.integers(3, size=len(hits))
        draws = rng.random(len(marks))
        spliced, start = [], 0
        for h, kind in zip(hits.tolist(), kinds.tolist()):
            stop = owner[h] + 1
            spliced += gates[start:stop]
            spliced.append(paulis[touched[h]][kind])
            start = stop
        spliced += gates[start:]
        shifted = marks + np.searchsorted(owner[hits], marks)  # hits on gates before each mark
        snapshots = evolve(initial.copy(), spliced, shifted.tolist(), {"lifted": lifted})
        for row, snapshot, u in zip(counts, snapshots, draws):
            cdf = np.cumsum(np.abs(snapshot) ** 2)
            row[min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(cdf) - 1)] += 1
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


def simulate_series(
    series: "CircuitSeries", plan: "SimulationPlan", *, memo: dict | None = None
) -> MagnetizationSeries:
    """Run every circuit of a circuit series and collect magnetizations.

    The series program already contains the state-preparation gates, so
    execution always starts from the all-zero state.  Circuit k is the prefix
    of the program up to mark k, so the program runs once and the state is
    read at every mark; a step that repeats a segment's gates from the same
    fuser state is replayed.  ``memo`` is passed to ``evolve``, so a run's
    memo replays the blocks that the compiler's check fused on the same
    compiled segments; a noisy series splices each shot anew and ignores it.

    plan.shots == 0 selects exact expectation values.  Otherwise each circuit
    is sampled with ``plan.shots`` shots, circuit k from the k-th stream that
    ``SeedSequence(plan.seed)`` spawns; with Pauli noise of nonzero strength
    in plan.noise, ``run_noisy`` instead draws ``plan.shots`` trajectories
    from one generator on ``SeedSequence(plan.seed)``, each read at every
    mark.  Zero noise is plain sampling.
    """
    marks, n, shots, noise = series.step_ends, series.program.num_qubits, plan.shots, plan.noise
    if shots and noise is not None and (noise.p1 or noise.p2):
        values = _z_expectations(run_noisy(series.program, marks, shots, noise, plan.seed), shots)[0]
    else:
        streams = np.random.SeedSequence(plan.seed).spawn(len(marks)) if shots else None
        size = max(1, min(len(marks), _BATCH_ENTRIES >> n))  # marks read per halving pass
        batch = np.empty((size, 1 << n), np.int64 if shots else float)
        values = np.empty((len(marks), n))
        snapshots = evolve(init_state(n).amplitudes, series.program.gates, marks, memo)
        for first in range(0, len(marks), len(batch)):
            rows = batch[: len(marks) - first]
            # next(snapshots) in place: nothing holds a snapshot while the next one is written
            for index, row in enumerate(rows, first):
                if shots:
                    row[:] = sample_counts(StateVector(n, next(snapshots)), shots, streams[index])
                else:
                    np.abs(next(snapshots), out=row)
                    row *= row
            values[first : first + len(rows)], norms = _z_expectations(rows, shots or 1.0)
            for index, norm in enumerate(() if shots else norms.tolist(), first):
                if abs(norm - 1.0) > 1e-10:  # as a StateVector checks its norm
                    raise SimulationError(f"mark {index}: state not normalized: |psi|^2 = {norm}")
    return MagnetizationSeries(
        times=tuple(k * plan.delta_t for k in range(len(marks))),
        values=tuple(map(tuple, values.T.tolist())),
    )
