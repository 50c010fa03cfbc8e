"""Experiment configuration: one JSON-serializable object holding every knob
the command-line pipelines need, with validation and a content hash.

``validate`` checks the field types and the few rules no derived object
owns; each range rule (b, L0, j_max, m, seed, trials, workers, the ``s_grid``
entries, ``range_rule``, the hull depth) lives in the object that uses it,
which ``validate`` builds so that the rule refuses a bad value before a run.

All randomness downstream flows from the single ``seed`` here; no command
reads the clock or the OS entropy pool, so a config hash pins a run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

from . import msa, potential, torus, wegner
from .operators import KINETIC_CONVENTIONS, Interaction

_COUNTS = ("n_particles", "dim", "nu", "A", "A_prime", "L0", "j_max", "seed", "trials",
           "workers", "window_sites", "budget", "hull_depth")
_REALS = ("b", "C_A", "g", "m", "omega", "partition_C", "interaction_B")
_UNSET = ("hull_depth", "partition_C", "interaction_B")   # fields that may be None


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_count(value) or isinstance(value, float) and math.isfinite(value)


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
        """Check the field types and the rules no derived object owns, then
        build each object a run uses, so that its own checks refuse a bad
        range before any run starts.  Raise ValueError on a hard error;
        return a list of warning strings."""
        for names, ok, kind in ((_COUNTS, _is_count, "an integer"), (_REALS, _is_real, "a number")):
            for name in names:
                value = getattr(self, name)
                if not (ok(value) or value is None and name in _UNSET):
                    raise ValueError(f"{name} must be {kind}, got {value!r}")
        if not all(map(_is_real, self.s_grid)):
            raise ValueError(f"s_grid entries must be numbers, got {self.s_grid!r}")
        if self.n_particles < 1 or self.dim < 1 or self.nu < 1:
            raise ValueError("need n_particles, dim, nu >= 1")
        if self.g < 0:
            # a negative g*delta would flag no ball resonant: a scan that cannot fail
            raise ValueError(f"need g >= 0, got {self.g}")
        if self.convention not in KINETIC_CONVENTIONS:
            raise ValueError(f"unknown kinetic convention {self.convention!r}")
        if self.budget <= 0 or self.window_sites < 2:
            raise ValueError("need positive budgets and a window of >= 2 sites")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a path string, got {self.out_dir!r}")
        if not self.s_grid:
            raise ValueError("s_grid must be nonempty")
        # the system first: A = 0 would otherwise surface from the scales
        self.system()
        self.interaction_range(self.L0)
        self.interaction(self.L0)
        msa.gamma(self.m, 0)
        wegner.McPlan(self.trials, self.seed, self.s_grid, workers=self.workers)
        # a one-row cell table checks the hull's depth; the scales (b, L0,
        # j_max) are built by the hull, or with hull_depth set, below
        potential.cell_table([[0.0] * self.nu], self.hull(None).depth)

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
            A=self.A, C_A=self.C_A, A_prime=self.A_prime)

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
        """The pair cutoff at scale L: L itself (at least 1) under the rule
        "L", else the rule's number."""
        if self.range_rule == "L":
            return max(int(L), 1)
        if not (_is_real(self.range_rule) and self.range_rule >= 1):
            # a cutoff below the minimal particle distance 1 cuts every pair
            raise ValueError(f"range_rule must be 'L' or a finite number >= 1, "
                             f"got {self.range_rule!r}")
        return float(self.range_rule)

    def interaction(self, L: int):
        if self.interaction_B is None:
            return None
        return Interaction(self.interaction_B, cutoff=self.interaction_range(L))

    # ---- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """The fields one level deep, ``s_grid`` as a fresh list; every other
        field of a validated config is a number, a string or None, which
        nothing can mutate."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
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
        """:func:`hash_config` of this config."""
        return hash_config(self.to_json())


def hash_config(data: dict) -> str:
    """sha256 of a config's ``to_json`` with ``workers`` and ``out_dir`` at
    their defaults: neither changes a result, so a rerun on another pool
    size or output root names the same run."""
    data = {**data, "workers": 1, "out_dir": None}
    payload = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()
