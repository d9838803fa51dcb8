"""Run configuration parsed from plain `key = value` input files.

The file format is line oriented: blank lines and `#` comments are ignored,
every other line must be `key = value`.  Unknown keys and duplicate keys are
rejected with their line number so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

FIELD_AXIS_CHOICES = ("x", "y", "z")
QCQS_CHOICES = ("simulator", "computer")
BACKEND_CHOICES = ("internal", "ibm", "rigetti")
COMPILE_CHOICES = ("none", "generic", "domain_specific")
UNITS_CHOICES = ("dimensionless", "ev_fs")
# Spin word -> computational-basis bit; spin-up is |0>.
SPIN_BITS = {"up": 0, "down": 1, "0": 0, "1": 1}

# Largest register a run accepts; the statevector holds 2^n amplitudes.
MAX_QUBITS = 24


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0
    h_ext: float = 0.0
    ext_dir: str = "x"
    num_qubits: int = 2
    initial_spins: tuple[str, ...] | None = None
    delta_t: float = 0.1
    steps: int = 10
    qcqs: str = "simulator"
    shots: int = 0
    noise_choice: bool = False
    device_choice: str = ""
    plot_flag: bool = True
    time_dep_flag: bool = False
    freq: float = 0.0
    custom_time_dep: str = ""
    backend: str = "internal"
    compile_mode: str = "none"
    units: str = "dimensionless"
    seed: int = 1


# Input-file key -> (RunConfig attribute, parser).  Parsers get (value, line)
# and raise ConfigError on bad input.


def _parse_float(value: str, line_no: int, key: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} expects a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"line {line_no}: {key} must be finite")
    return out


def _parse_int(value: str, line_no: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} expects an integer, got {value!r}") from None


def _parse_bool(value: str, line_no: int, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"line {line_no}: {key} expects true or false, got {value!r}")


def _choice_parser(choices: tuple[str, ...]):
    def parse(value: str, line_no: int, key: str) -> str:
        lowered = value.lower()
        if lowered not in choices:
            raise ConfigError(
                f"line {line_no}: {key} must be one of {', '.join(choices)}; got {value!r}"
            )
        return lowered

    return parse


def _parse_spins(value: str, line_no: int, key: str) -> tuple[str, ...]:
    spins = tuple(part.strip().lower() for part in value.split(","))
    problems = _unknown_spins(spins)
    if problems:
        raise ConfigError(f"line {line_no}: {problems[0]}")
    return spins


def _parse_string(value: str, line_no: int, key: str) -> str:
    return value


_KEYS = {
    "Jx": ("jx", _parse_float),
    "Jy": ("jy", _parse_float),
    "Jz": ("jz", _parse_float),
    "h_ext": ("h_ext", _parse_float),
    "ext_dir": ("ext_dir", _choice_parser(FIELD_AXIS_CHOICES)),
    "num_qubits": ("num_qubits", _parse_int),
    "initial_spins": ("initial_spins", _parse_spins),
    "delta_t": ("delta_t", _parse_float),
    "steps": ("steps", _parse_int),
    "QCQS": ("qcqs", _choice_parser(QCQS_CHOICES)),
    "shots": ("shots", _parse_int),
    "noise_choice": ("noise_choice", _parse_bool),
    "device_choice": ("device_choice", _parse_string),
    "plot_flag": ("plot_flag", _parse_bool),
    "time_dep_flag": ("time_dep_flag", _parse_bool),
    "freq": ("freq", _parse_float),
    "custom_time_dep": ("custom_time_dep", _parse_string),
    "backend": ("backend", _choice_parser(BACKEND_CHOICES)),
    "compile": ("compile_mode", _choice_parser(COMPILE_CHOICES)),
    "units": ("units", _choice_parser(UNITS_CHOICES)),
    "seed": ("seed", _parse_int),
}


def spin_bit(spin) -> int:
    """Computational-basis bit of a spin word already accepted by the rules."""
    return SPIN_BITS[str(spin).strip().lower()]


def _unknown_spins(spins) -> list[str]:
    for spin in spins:
        if str(spin).strip().lower() not in SPIN_BITS:
            return [f"initial_spins entries must be up/down/0/1, got {spin!r}"]
    return []


def register_problems(num_qubits: int, initial_spins) -> list[str]:
    """Register size and one known spin per site; returns every problem."""
    problems = []
    if not 1 <= num_qubits <= MAX_QUBITS:
        problems.append(f"num_qubits must be between 1 and {MAX_QUBITS}")
    if initial_spins is not None:
        if len(initial_spins) != num_qubits:
            problems.append(
                f"initial_spins lists {len(initial_spins)} entries "
                f"but num_qubits is {num_qubits}"
            )
        problems += _unknown_spins(initial_spins)
    return problems


def run_problems(run) -> list[str]:
    """The rules on the fields a RunConfig and a SimulationPlan share.

    ``run`` is either of them: it needs num_qubits, initial_spins, delta_t,
    steps, shots and seed.  Returns every problem, not only the first.
    """
    problems = register_problems(run.num_qubits, run.initial_spins)
    if not run.delta_t > 0:
        problems.append("delta_t must be positive")
    elif not math.isfinite(run.delta_t):
        problems.append("delta_t must be finite")
    for name in ("steps", "shots", "seed"):
        if getattr(run, name) < 0:
            problems.append(f"{name} must be non-negative")
    return problems


def validate_config(config: RunConfig) -> list[str]:
    """Cross-field consistency checks; returns human-readable problems."""
    problems = run_problems(config)
    if config.qcqs == "computer" and config.shots < 1:
        problems.append("QCQS = computer requires shots >= 1")
    if config.noise_choice and config.shots < 1:
        problems.append("noise_choice requires shots >= 1")
    if config.compile_mode != "none" and config.backend == "internal":
        problems.append("compile requires backend = ibm or rigetti")
    if config.time_dep_flag and config.custom_time_dep and config.freq != 0.0:
        problems.append("freq and custom_time_dep are mutually exclusive")
    return problems


def parse_input_text(text: str) -> RunConfig:
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} (first set on line {seen[key]})"
            )
        if not value:
            raise ConfigError(f"line {line_no}: {key} has no value")
        seen[key] = line_no
        attr, parser = _KEYS[key]
        values[attr] = parser(value, line_no, key)

    config = replace(RunConfig(), **values)
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def parse_input_file(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_input_text(text)


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def load_field_samples(path: str) -> tuple[tuple[float, float], ...]:
    """Read a tabulated drive profile: CSV rows of `time,field`.

    The first line that is not blank or a comment may be a header, whose two
    fields are both not numbers; any other row that does not parse is an
    error naming its line.  Times must be strictly increasing.
    """
    rows: list[tuple[float, float]] = []
    header_allowed = True
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{path}: line {line_no}: expected 'time,field'")
            numbers = [_number(part) for part in parts]
            if None not in numbers:
                rows.append((numbers[0], numbers[1]))
            elif not (header_allowed and numbers == [None, None]):
                raise ConfigError(f"{path}: line {line_no}: expected numeric 'time,field'")
            header_allowed = False
    if not rows:
        raise ConfigError(f"{path}: no samples found")
    for (t0, _), (t1, _) in zip(rows, rows[1:]):
        if t1 <= t0:
            raise ConfigError(f"{path}: sample times must be strictly increasing")
    return tuple(rows)
