"""Experiment configuration: one JSON-serializable object holding every knob
the command-line pipelines need, with validation and a content hash.

All randomness downstream flows from the single ``seed`` here; no command
reads the clock or the OS entropy pool, so a config hash pins a run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from . import msa, potential, torus
from .operators import KINETIC_CONVENTIONS, Interaction


@dataclass
class ExperimentConfig:
    # model
    n_particles: int = 2
    dim: int = 1
    nu: int = 1
    b: float = 2.5
    A: int = 1
    A_prime: int = 1
    C_A: float = 3.0
    partition_C: float = None      # defaults to C_A when unset
    g: float = 20.0
    convention: str = "laplacian"
    interaction_B: float = 10.0    # None disables the pair interaction
    range_rule: str = "L"          # interaction cutoff rule: "L" or a number
    # scales
    L0: int = 2
    j_max: int = 2
    m: float = 1.0
    # dynamics
    preset: str = "golden"
    omega: float = 0.15
    # sampling
    seed: int = 1
    trials: int = 200
    workers: int = 1
    s_grid: tuple = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
    # windows and budgets
    window_sites: int = 6
    budget: int = 4000
    hull_depth: int = None         # defaults to the base-scale generation + 2
    out_dir: str = None

    def validate(self):
        """Raise ValueError on hard errors; return a list of warning strings."""
        if self.n_particles < 1 or self.dim < 1 or self.nu < 1:
            raise ValueError("need n_particles, dim, nu >= 1")
        if self.b <= 0:
            raise ValueError("need b > 0")
        if self.L0 < 2:
            raise ValueError("need L0 >= 2")
        if self.j_max < 0:
            raise ValueError("need j_max >= 0")
        if self.m <= 0:
            raise ValueError("need m > 0")
        if self.convention not in KINETIC_CONVENTIONS:
            raise ValueError(f"unknown kinetic convention {self.convention!r}")
        if self.trials < 0:
            raise ValueError("need trials >= 0")
        if self.workers < 1:
            raise ValueError("need workers >= 1")
        if self.budget <= 0 or self.window_sites < 2:
            raise ValueError("need positive budgets and a window of >= 2 sites")
        if self.range_rule != "L":
            try:
                float(self.range_rule)
            except (TypeError, ValueError):
                raise ValueError("range_rule must be 'L' or a number")
        if not self.s_grid or any(s <= 0 for s in self.s_grid):
            raise ValueError("s_grid must be nonempty with positive entries")
        torus.preset_frequencies(self.preset, self.dim, self.nu)  # raises if unknown
        if self.hull(None).depth * self.nu > torus.MAX_CELL_BITS:
            raise ValueError(f"nonzero hull generations x nu exceed {torus.MAX_CELL_BITS} bits")

        warnings = []
        if self.b <= 2 * self.n_particles * self.dim:
            warnings.append(
                f"b = {self.b} is at or below 2 N d = {2 * self.n_particles * self.dim}; "
                "the decay hypotheses behind the headline bounds want it larger")
        level0 = self.scales().level(0)
        if level0.log2_delta < -900:
            warnings.append(
                f"delta_0 = 2^{level0.log2_delta:.0f} underflows double precision; "
                "resonance thresholds will read as zero (consider a coarser "
                "partition_C for numerical work)")
        return warnings

    # ---- derived objects -------------------------------------------------

    def system(self) -> torus.ShiftSystem:
        return torus.ShiftSystem(
            torus.preset_frequencies(self.preset, self.dim, self.nu),
            A=self.A, C_A=self.C_A, A_prime=self.A_prime,
            partition_C=self.partition_C)

    def scales(self) -> msa.ScaleSequence:
        C = self.C_A if self.partition_C is None else self.partition_C
        return msa.ScaleSequence(self.L0, self.b, self.A, C, self.j_max)

    def hull_generations(self) -> int:
        if self.hull_depth is not None:
            return int(self.hull_depth)
        return self.scales().level(0).generation + 2

    def hull(self, theta) -> potential.HaarHull:
        return potential.HaarHull(self.b, self.hull_generations(), theta)

    def interaction_range(self, L: int):
        if self.range_rule == "L":
            return max(int(L), 1)
        return float(self.range_rule)

    def interaction(self, L: int):
        if self.interaction_B is None:
            return None
        return Interaction(self.interaction_B, cutoff=self.interaction_range(L))

    # ---- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        data = asdict(self)
        data["s_grid"] = list(self.s_grid)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        cfg = cls(**data)
        if isinstance(cfg.s_grid, list):
            cfg.s_grid = tuple(cfg.s_grid)
        return cfg

    def config_hash(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()
