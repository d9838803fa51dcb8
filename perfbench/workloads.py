"""The benchmark's workloads and the input files they generate from a seed.

Each workload is one `spinchain` input file.  The seed sets the file's
`seed =` line and, for `wide_exact`, the up/down pattern of the initial
state; nothing else about a workload depends on it.  The program only ever
sees the generated file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable


@dataclass(frozen=True)
class Chain:
    """The physics and run settings of one input file.

    The checks rebuild their references from these fields, never from the
    program's own configuration objects.
    """

    num_qubits: int
    spins: tuple[str, ...]
    jx: float
    jy: float
    jz: float
    h: float
    dt: float
    steps: int
    freq: float = 0.0
    axis: str = "x"
    shots: int = 0
    backend: str = "internal"
    compile: str = "none"
    seed: int = 1

    def field(self, t: float) -> float:
        """h(t): constant, or h cos(2 pi freq t) when a drive frequency is set."""
        if self.freq == 0.0:
            return self.h
        return self.h * math.cos(2.0 * math.pi * self.freq * t)

    def input_text(self) -> str:
        lines = [
            f"Jx = {self.jx!r}",
            f"Jy = {self.jy!r}",
            f"Jz = {self.jz!r}",
            f"h_ext = {self.h!r}",
            f"ext_dir = {self.axis}",
            f"num_qubits = {self.num_qubits}",
            f"initial_spins = {', '.join(self.spins)}",
            f"delta_t = {self.dt!r}",
            f"steps = {self.steps}",
            f"shots = {self.shots}",
            f"backend = {self.backend}",
            f"compile = {self.compile}",
            f"seed = {self.seed}",
            "plot_flag = true",
        ]
        if self.freq != 0.0:
            lines += ["time_dep_flag = true", f"freq = {self.freq!r}"]
        return "\n".join(lines) + "\n"

    def swapped_couplings(self) -> "Chain":
        """The same chain with Jx and Jz exchanged (a negative control)."""
        return replace(self, jx=self.jz, jz=self.jx)


DOMAIN_WALL_6 = ("up", "up", "up", "down", "down", "down")


def _input_seed(seed: int) -> int:
    # The simulator seeds numpy generators with seed + index, which must not
    # be negative.
    return seed % 2**31


def _wide_exact(seed: int) -> Chain:
    rng = random.Random(seed)
    spins = tuple(rng.choice(("up", "down")) for _ in range(16))
    return Chain(16, spins, 1.0, 0.8, 0.5, h=1.0, dt=0.05, steps=20, seed=_input_seed(seed))


def _compiled_sampled(seed: int) -> Chain:
    return Chain(
        6, DOMAIN_WALL_6, 1.0, 0.8, 0.5, h=1.0, freq=0.25, dt=0.05, steps=12,
        shots=4096, backend="rigetti", compile="domain_specific", seed=_input_seed(seed),
    )


def _long_series(seed: int) -> Chain:
    # sample_inputs/xx_domain_wall.txt extended from 80 to 160 steps.
    return Chain(
        6, DOMAIN_WALL_6, 1.0, 1.0, 0.0, h=0.0, dt=0.0125, steps=160, seed=_input_seed(seed)
    )


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each was chosen."""

    name: str
    check: str  # "exact" or "hoeffding": how run outputs are verified
    make: Callable[[int], Chain]
    emits: bool = False  # whether each cycle also runs `spinchain emit`


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide_exact", "exact", _wide_exact),
        Workload("compiled_sampled", "hoeffding", _compiled_sampled),
        Workload("long_series", "exact", _long_series, emits=True),
    )
}
