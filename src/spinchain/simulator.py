"""Local statevector backend: exact runs, multinomial sampling, Pauli noise.

Basis-state indexing matches the IR convention: qubit 0 is the leftmost
character of a bitstring, i.e. the most significant bit of the state index,
and spin-up is |0>.  All randomness flows through numpy's default PCG64
generator seeded explicitly, so identical seeds give identical outputs.  A
sampled series draws each circuit's samples from its own stream, spawned from
the run seed, so no two circuits or seeds share one; a noisy series draws its
trajectories from one generator on the run seed.

Every mode moves a state only through ``circuits.evolve``: gates fused into
blocks on ranges of up to four qubits, each one matmul from the state into a
spare.  Every mode runs the blocks a series fused from its step segments and
reads the state after each step; a noisy run fuses anew, per shot, only the
steps its drawn Paulis hit.  Every site's <sigma^z>, and each row's sum,
comes from one pairwise-halving pass over a batch of rows: the probabilities
of many circuits in exact mode (a sum off 1 by over 1e-10 is refused), shot
counts in sampled and noisy mode.
``simulate_series`` and ``expectation_z`` share it and agree bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .circuits import CircuitSeries, Gate, Program, apply_matrix, evolve, fuse, gate_matrix, make_gate
from .config import register_problems, spin_bit

if TYPE_CHECKING:
    from .trotter import SimulationPlan


class SimulationError(ValueError):
    """Raised for invalid simulator inputs."""


_BATCH_ENTRIES = 1 << 12  # per readout pass: many circuits' rows at small n, one row at n >= 12


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
    """One gate on the state, written by the kernel into a fresh array."""
    n = state.num_qubits
    if any(q >= n for q in gate.qubits):
        raise SimulationError(f"gate on {gate.qubits} exceeds {n} qubit register")
    amps = np.ascontiguousarray(state.amplitudes)
    out = np.empty_like(amps)
    apply_matrix(amps, gate_matrix(gate), gate.qubits, out)
    return StateVector(n, out)


def run_statevector(program: Program, initial_spins: Sequence[str] | None = None) -> StateVector:
    """Run the whole program from the given product state."""
    amps = init_state(program.num_qubits, initial_spins).amplitudes
    (final,) = evolve(amps, [fuse(program.gates, program.num_qubits)])
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
    series: CircuitSeries, shots: int, noise: NoiseParams, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """Monte Carlo Pauli-noise sampling: one trajectory per shot, read after every circuit.

    Returns ``counts[k, b]``, how many shots measured basis state b after
    circuit k of the series; each row sums to ``shots``.  Each shot starts
    from |0...0> and draws from one generator on ``seed``, in this order: one
    uniform per (gate, touched qubit) in the last circuit's gate order, a hit
    when below p1 (single-qubit gate) or p2; one Pauli (X, Y or Z) per hit;
    one uniform per circuit.  The steps' hit-free blocks are the series'
    own; a shot fuses anew, with the series' lifted matrices, only the steps
    it hits, with the Paulis spliced in after their gates.  It runs the steps
    through ``evolve`` and measures the state after each by inverse CDF with
    its circuit's uniform.
    """
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    segments, order = series.segments, series.order
    n = segments[0].num_qubits
    # per (gate, touched qubit) of each segment: the gate's index in it, the qubit, the gate's width
    slots = [[(i, q, len(g.qubits)) for i, g in enumerate(s.gates) for q in g.qubits] for s in segments]
    # the same over the last circuit, in its gate order, with each slot's step and error probability
    step = np.repeat(np.arange(len(order)), [len(slots[k]) for k in order])
    gate, qubit, width = np.array([slot for k in order for slot in slots[k]], np.intp).reshape(-1, 3).T
    p = np.where(width == 1, noise.p1, noise.p2)
    paulis = [[make_gate(kind, [q]) for kind in "xyz"] for q in range(n)]
    clean = [series.blocks[k] for k in order]  # each step's hit-free blocks
    initial = init_state(n).amplitudes
    counts = np.zeros((len(order), len(initial)), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for _ in range(shots):
        hits = np.flatnonzero(rng.random(len(p)) < p)
        kinds = rng.integers(3, size=len(hits)).tolist()
        draws = rng.random(len(order))
        blocks = clean.copy()
        at = zip(step[hits].tolist(), gate[hits].tolist(), qubit[hits].tolist(), kinds)
        for j, group in itertools.groupby(at, key=lambda hit: hit[0]):
            gates, spliced, start = segments[order[j]].gates, [], 0
            for _, i, q, kind in group:
                spliced += [*gates[start : i + 1], paulis[q][kind]]
                start = i + 1
            blocks[j] = fuse([*spliced, *gates[start:]], n, series.lifted)
        for row, state, u in zip(counts, evolve(initial.copy(), blocks), draws):
            cdf = np.cumsum(np.abs(state) ** 2)
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


def simulate_series(series: CircuitSeries, plan: "SimulationPlan") -> MagnetizationSeries:
    """Run every circuit of a circuit series and collect magnetizations.

    The first segment holds the state-preparation gates, so execution
    always starts from the all-zero state.  Circuit k adds one step segment
    to circuit k-1, so the blocks the series fused from its segments run
    once in order and the state is read after each; the state of circuit k
    is bit-identical to running its segments alone.

    plan.shots == 0 selects exact expectation values.  Otherwise each circuit
    is sampled with ``plan.shots`` shots, circuit k from the k-th stream that
    ``SeedSequence(plan.seed)`` spawns; with Pauli noise of nonzero strength
    in plan.noise, ``run_noisy`` instead draws ``plan.shots`` trajectories
    from one generator on ``SeedSequence(plan.seed)``, each read after every
    circuit.  Zero noise is plain sampling.
    """
    steps, n, shots, noise = len(series), series.segments[0].num_qubits, plan.shots, plan.noise
    if shots and noise is not None and (noise.p1 or noise.p2):
        values = _z_expectations(run_noisy(series, shots, noise, plan.seed), shots)[0]
    else:
        streams = np.random.SeedSequence(plan.seed).spawn(steps) if shots else None
        size = max(1, min(steps, _BATCH_ENTRIES >> n))  # circuits read per halving pass
        batch = np.empty((size, 1 << n), np.int64 if shots else float)
        values = np.empty((steps, n))
        states = evolve(init_state(n).amplitudes, [series.blocks[k] for k in series.order])
        for first in range(0, steps, len(batch)):
            rows = batch[: steps - first]
            for index, row in enumerate(rows, first):  # each state is read before the next
                if shots:
                    row[:] = sample_counts(StateVector(n, next(states)), shots, streams[index])
                else:
                    np.abs(next(states), out=row)
                    row *= row
            values[first : first + len(rows)], norms = _z_expectations(rows, shots or 1.0)
            for index, norm in enumerate(() if shots else norms.tolist(), first):
                if abs(norm - 1.0) > 1e-10:  # as a StateVector checks its norm
                    raise SimulationError(f"mark {index}: state not normalized: |psi|^2 = {norm}")
    return MagnetizationSeries(
        times=tuple(k * plan.delta_t for k in range(steps)),
        values=tuple(map(tuple, values.T.tolist())),
    )
