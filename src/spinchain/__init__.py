"""Trotterized dynamics of driven Heisenberg spin chains.

The package generates quantum circuits that approximate the time evolution
of a one-dimensional Heisenberg model with an optionally time-dependent
transverse field, runs them on a built-in statevector simulator (exact,
sampled, or with a simple depolarizing noise model), compiles them to the
IBM or Rigetti native gate sets, and reads/writes OpenQASM 2.0 and Quil.
"""

from .circuits import (
    Gate,
    GateCounts,
    GateError,
    GateKind,
    Program,
    gate_counts,
    gate_matrix,
    make_gate,
    program_unitary,
)
from .compiler import (
    CompileError,
    CompileReport,
    NativeTarget,
    compile_program,
    ds_compile,
    lower_generic,
)
from .config import ConfigError, RunConfig, parse_input_file, parse_input_text
from .formats import (
    ParseError,
    emit_program,
    emit_qasm,
    emit_quil,
    parse_program,
    parse_qasm,
    parse_quil,
)
from .hamiltonian import (
    HBAR_EV_FS,
    FieldProfile,
    HeisenbergModel,
    field_at,
    hamiltonian_matrix,
)
from .simulator import (
    MagnetizationSeries,
    NoiseParams,
    SimulationError,
    StateVector,
    apply_gate,
    expectation_z,
    init_state,
    run_noisy,
    run_statevector,
    sample_counts,
    simulate_series,
)
from .trotter import (
    CircuitSeries,
    SimulationPlan,
    exact_evolution,
    generate_circuits,
)
from .workflow import RunArtifacts, build_model, build_plan, prepare_circuits, run_workflow

__version__ = "0.1.0"

__all__ = [
    "CircuitSeries",
    "CompileError",
    "CompileReport",
    "ConfigError",
    "FieldProfile",
    "Gate",
    "GateCounts",
    "GateError",
    "GateKind",
    "HBAR_EV_FS",
    "HeisenbergModel",
    "MagnetizationSeries",
    "NativeTarget",
    "NoiseParams",
    "ParseError",
    "Program",
    "RunArtifacts",
    "RunConfig",
    "SimulationError",
    "SimulationPlan",
    "StateVector",
    "apply_gate",
    "build_model",
    "build_plan",
    "compile_program",
    "ds_compile",
    "emit_qasm",
    "emit_quil",
    "exact_evolution",
    "expectation_z",
    "field_at",
    "gate_counts",
    "gate_matrix",
    "generate_circuits",
    "hamiltonian_matrix",
    "init_state",
    "lower_generic",
    "emit_program",
    "make_gate",
    "parse_input_file",
    "parse_input_text",
    "parse_program",
    "parse_qasm",
    "parse_quil",
    "prepare_circuits",
    "program_unitary",
    "run_noisy",
    "run_statevector",
    "run_workflow",
    "sample_counts",
    "simulate_series",
]
