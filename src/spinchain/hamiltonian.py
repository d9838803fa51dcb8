"""Driven Heisenberg spin-chain Hamiltonian and its dense matrix form.

The chain Hamiltonian is

    H(t) = - sum_i [Jx XX + Jy YY + Jz ZZ]_{i,i+1}  -  h(t) * sum_i P_i

with open boundaries, a uniform transverse/longitudinal drive h(t) along a
single Pauli axis P in {X, Y, Z}, and hbar carried as an explicit scale so
the same code serves dimensionless and eV/fs unit systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FIELD_AXIS_CHOICES

# hbar in eV * fs, for runs whose couplings are given in eV and times in fs.
HBAR_EV_FS = 0.6582119569

FIELD_MODES = ("constant", "sinusoid", "tabulated")

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True, slots=True)
class FieldProfile:
    """Time profile of the external field amplitude h(t).

    mode "constant":  h(t) = amplitude
    mode "sinusoid":  h(t) = amplitude * cos(2*pi*frequency*t + phase),
                      frequency in cycles per time unit
    mode "tabulated": piecewise-linear interpolation of (t, h) samples,
                      clamped to the endpoint values outside the table
    """

    mode: str = "constant"
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    samples: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True, slots=True)
class HeisenbergModel:
    """Couplings, drive, and unit scale for one chain."""

    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0
    field: FieldProfile = FieldProfile()
    field_axis: str = "x"
    hbar: float = 1.0


def field_at(field: FieldProfile, t: float) -> float:
    """Field amplitude h(t)."""
    if field.mode == "constant":
        return field.amplitude
    if field.mode == "sinusoid":
        return field.amplitude * math.cos(2 * math.pi * field.frequency * t + field.phase)
    if field.mode == "tabulated":
        ts = [s[0] for s in field.samples]
        hs = [s[1] for s in field.samples]
        return float(np.interp(t, ts, hs))
    raise ValueError(f"unknown field mode {field.mode!r}")


def validate(model: HeisenbergModel) -> list[str]:
    """All validation failures, by field name; an empty list means valid."""
    errors: list[str] = []
    for name in ("jx", "jy", "jz"):
        if not math.isfinite(getattr(model, name)):
            errors.append(f"{name}: must be finite, got {getattr(model, name)!r}")
    if model.field_axis not in FIELD_AXIS_CHOICES:
        errors.append(
            f"field_axis: must be one of {FIELD_AXIS_CHOICES}, got {model.field_axis!r}"
        )
    if not (math.isfinite(model.hbar) and model.hbar > 0):
        errors.append(f"hbar: must be a positive finite number, got {model.hbar!r}")
    f = model.field
    if f.mode not in FIELD_MODES:
        errors.append(f"field.mode: must be one of {FIELD_MODES}, got {f.mode!r}")
    else:
        for name in ("amplitude", "frequency", "phase"):
            if not math.isfinite(getattr(f, name)):
                errors.append(f"field.{name}: must be finite, got {getattr(f, name)!r}")
        if f.mode == "tabulated":
            if not f.samples:
                errors.append("field.samples: tabulated mode needs at least one sample")
            else:
                ts = [s[0] for s in f.samples]
                if any(not math.isfinite(t) or not math.isfinite(h) for t, h in f.samples):
                    errors.append("field.samples: all entries must be finite")
                elif any(b <= a for a, b in zip(ts, ts[1:])):
                    errors.append("field.samples: times must be strictly increasing")
    return errors


def _embed(op: np.ndarray, site: int, num_qubits: int) -> np.ndarray:
    # Qubit 0 is the leftmost Kronecker factor (most significant bit).
    left = np.eye(1 << site, dtype=np.complex128)
    right = np.eye(1 << (num_qubits - site - 1), dtype=np.complex128)
    return np.kron(np.kron(left, op), right)


def hamiltonian_matrix(model: HeisenbergModel, t: float, num_qubits: int) -> np.ndarray:
    """Dense 2^n x 2^n Hermitian matrix of H(t)."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    errors = validate(model)
    if errors:
        raise ValueError("invalid model: " + "; ".join(errors))
    dim = 1 << num_qubits
    h = np.zeros((dim, dim), dtype=np.complex128)
    couplings = ((model.jx, _PAULI["x"]), (model.jy, _PAULI["y"]), (model.jz, _PAULI["z"]))
    for i in range(num_qubits - 1):
        for j, op in couplings:
            if j != 0.0:
                h -= j * (_embed(op, i, num_qubits) @ _embed(op, i + 1, num_qubits))
    ht = field_at(model.field, t)
    if ht != 0.0:
        drive = _PAULI[model.field_axis]
        for i in range(num_qubits):
            h -= ht * _embed(drive, i, num_qubits)
    return h
