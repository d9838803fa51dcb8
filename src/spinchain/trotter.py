"""First-order Trotter circuit generation and the matching exact propagator.

One evolution step of length dt applies the field layer sampled at the step
start time, then the bond layer over pairs (i, i+1) in ascending order.  A
run over `steps` steps yields steps+1 circuits: circuit n evolves to time
n*dt, and circuit 0 contains only state preparation.  Each circuit is a
prefix of the next, and a step is the same segment for the same field, so a
run holds its distinct step segments and which one each circuit adds
(``CircuitSeries``): two for a constant field, at most one per distinct h
plus the state preparation otherwise.

``exact_evolution`` integrates the same model by dense eigendecomposition
and serves as the convergence oracle for the circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import CircuitSeries, Gate, GateKind, Program, make_gate
from .config import FIELD_AXIS_CHOICES, run_problems, spin_bit
from .hamiltonian import HeisenbergModel, field_at, hamiltonian_matrix, validate
from .simulator import MagnetizationSeries, NoiseParams, init_state

DEFAULT_SUBSTEPS = 64


@dataclass(frozen=True, slots=True)
class SimulationPlan:
    """Everything about a run that is not the physics: register, grid, sampling."""

    num_qubits: int
    initial_spins: tuple[str, ...]
    delta_t: float = 0.1
    steps: int = 10
    shots: int = 0
    noise: NoiseParams | None = None
    seed: int = 1


def _check_inputs(model: HeisenbergModel, plan: SimulationPlan) -> None:
    errors = validate(model) + run_problems(plan)
    if errors:
        raise ValueError("invalid simulation inputs: " + "; ".join(errors))


def state_prep_gates(initial_spins) -> list[Gate]:
    """X on every spin-down site; spin-up is the |0> default."""
    gates = []
    for q, spin in enumerate(initial_spins or ()):
        if spin_bit(spin) == 1:
            gates.append(make_gate(GateKind.X, [q]))
    return gates


def bond_evolution_gates(
    jx: float, jy: float, jz: float, dt_over_hbar: float, a: int, b: int
) -> list[Gate]:
    """Circuit for exp(i * dt_over_hbar * (jx XX + jy YY + jz ZZ)) on (a, b).

    Each bond takes the fewest CNOTs its couplings allow (Vatan and Williams,
    PRA 69, 032315, 2004): three when all three are nonzero, two when one or
    two are, none when all are zero.  With two couplings at most, CNOT(a, b)
    turns X on a into XX and Z on b into ZZ, and a quarter turn on both
    qubits first turns YY into XX (about z) or ZZ (about x).  Rotations by
    exactly zero are left out.
    """
    alpha, beta, gamma = jx * dt_over_hbar, jy * dt_over_hbar, jz * dt_over_hbar
    half = math.pi / 2
    rx, ry, rz, cnot = GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.CNOT
    if alpha and beta and gamma:
        spec = [
            (rz, [b], half), (cnot, [b, a]), (rz, [a], half - 2.0 * gamma),
            (ry, [b], half - 2.0 * alpha), (cnot, [a, b]), (ry, [b], 2.0 * beta - half),
            (cnot, [b, a]), (rz, [a], -half),
        ]
    elif alpha or beta or gamma:
        if not beta:
            turn, on_a, on_b = None, alpha, gamma
        elif not alpha:
            turn, on_a, on_b = rz, beta, gamma
        else:
            turn, on_a, on_b = rx, alpha, beta
        spec = [(cnot, [a, b]), (rx, [a], -2.0 * on_a), (rz, [b], -2.0 * on_b), (cnot, [a, b])]
        if turn is not None:
            spec = [(turn, [a], half), (turn, [b], half), *spec, (turn, [a], -half), (turn, [b], -half)]
    else:
        return []
    return [make_gate(kind, qubits, angles) for kind, qubits, *angles in spec if angles != [0.0]]


def field_evolution_gates(
    h: float, dt_over_hbar: float, axis: str, num_qubits: int
) -> list[Gate]:
    """One rotation per qubit for exp(i * h * dt_over_hbar * P) on each site.

    Returns an empty layer when h is exactly zero.
    """
    if axis not in FIELD_AXIS_CHOICES:
        raise ValueError(f"axis must be one of {FIELD_AXIS_CHOICES}, got {axis!r}")
    if h == 0.0:
        return []
    kind = {"x": GateKind.RX, "y": GateKind.RY, "z": GateKind.RZ}[axis]
    angle = -2.0 * h * dt_over_hbar
    return [make_gate(kind, [q], [angle]) for q in range(num_qubits)]


def generate_circuits(model: HeisenbergModel, plan: SimulationPlan) -> CircuitSeries:
    """Build the steps+1 Trotter circuits for one run.

    The field is sampled at the step start time m*delta_t, so every circuit
    shares the gates of its predecessors as a prefix.  Each distinct h makes
    one step segment, its field layer then the bond gates, built and checked
    once; every step with that h adds the same segment.
    """
    _check_inputs(model, plan)
    n = plan.num_qubits
    dt_over_hbar = plan.delta_t / model.hbar
    segments = [Program(n, tuple(state_prep_gates(plan.initial_spins)))]
    order = [0]
    index: dict[float, int] = {}  # the segment of each distinct h
    for m in range(plan.steps):
        h = field_at(model.field, m * plan.delta_t)
        if h not in index:
            # finite inputs can still overflow a rotation angle 2 * (J or h) * dt / hbar
            scales = (model.jx, model.jy, model.jz, h)
            if not all(math.isfinite(2.0 * x * dt_over_hbar) for x in scales):
                raise ValueError(f"invalid simulation inputs: a rotation angle overflows in step {m}")
            if m == 0:  # built once, after the check above has passed the couplings
                couplings = (model.jx, model.jy, model.jz, dt_over_hbar)
                bonds = [g for i in range(n - 1) for g in bond_evolution_gates(*couplings, i, i + 1)]
            layer = field_evolution_gates(h, dt_over_hbar, model.field_axis, n)
            index[h] = len(segments)
            segments.append(Program(n, tuple(layer + bonds)))
        order.append(index[h])
    return CircuitSeries(tuple(segments), tuple(order))


def _z_expectations(psi: np.ndarray, n: int) -> list[float]:
    # Independent of the simulator's reduction: weight each basis index by
    # the sign of the addressed bit.
    probs = np.abs(psi) ** 2
    idx = np.arange(probs.size)
    out = []
    for q in range(n):
        bit = (idx >> (n - 1 - q)) & 1
        out.append(float(np.dot(1.0 - 2.0 * bit, probs)))
    return out


def exact_evolution(
    model: HeisenbergModel, plan: SimulationPlan, substeps: int = DEFAULT_SUBSTEPS
) -> MagnetizationSeries:
    """Reference dynamics by dense time-ordered integration.

    Each Trotter interval delta_t is cut into ``substeps`` slices; each slice
    applies exp(-i * H(t*) * delta / hbar) with H sampled at the slice
    midpoint and exponentiated through an eigendecomposition.  This is the
    oracle the circuit series is expected to converge to as delta_t -> 0.
    """
    _check_inputs(model, plan)
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    n = plan.num_qubits
    delta = plan.delta_t / substeps
    psi = init_state(n, plan.initial_spins).amplitudes

    field_is_static = (
        model.field.mode == "constant"
        or model.field.amplitude == 0.0
        or (model.field.mode == "sinusoid" and model.field.frequency == 0.0)
    )

    def propagator(t_mid: float) -> np.ndarray:
        h = hamiltonian_matrix(model, t_mid, n)
        w, v = np.linalg.eigh(h)
        phases = np.exp(-1j * w * delta / model.hbar)
        return (v * phases) @ v.conj().T

    static_u = propagator(0.0) if field_is_static else None

    rows = [[m] for m in _z_expectations(psi, n)]
    times = [0.0]
    for step in range(plan.steps):
        for sub in range(substeps):
            if static_u is not None:
                u = static_u
            else:
                u = propagator(step * plan.delta_t + (sub + 0.5) * delta)
            psi = u @ psi
        times.append((step + 1) * plan.delta_t)
        for q, m in enumerate(_z_expectations(psi, n)):
            rows[q].append(m)
    return MagnetizationSeries(
        times=tuple(times), values=tuple(tuple(r) for r in rows)
    )
