"""Lacunary Haar-type expansion of the site potential hull.

The hull value at a phase point is a weighted sum over dyadic generations:
generation n contributes weight a_n = 2^(-2 b n^2) times an amplitude drawn
uniformly from [0, 1) and indexed by the dyadic cell containing the point.
Amplitudes are realized lazily through a keyed counter hash, so arbitrarily
deep generations are addressable without storing the field.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from itertools import takewhile
from typing import Optional, Sequence

import numpy as np

from . import torus
from .configs import FermiConfig

LN2 = math.log(2.0)
_TWO64 = float(1 << 64)


class AmplitudeField:
    """Deterministic uniform amplitudes addressed by (generation, cell).

    Values come from a keyed 64-bit blake2b digest of the counter, mapped to
    [0, 1).  Distinct seeds give independent fields; ``resampled`` replaces a
    single generation by a fresh field, which is the operation used by the
    conditional-uniformity diagnostics.
    """

    __slots__ = ("seed", "_overrides", "_cache")

    def __init__(self, seed: int, _overrides: Optional[dict] = None):
        self.seed = int(seed)
        self._overrides = dict(_overrides or {})
        self._cache = {}

    def value(self, n: int, k: int) -> float:
        cached = self._cache.get((n, k))
        if cached is not None:
            return cached
        seed = self._overrides.get(n, self.seed)
        kb = int(k).to_bytes((int(k).bit_length() + 7) // 8 or 1, "little", signed=False)
        h = hashlib.blake2b(
            struct.pack("<qI", n, len(kb)) + kb,
            digest_size=8,
            key=(seed & (2 ** 64 - 1)).to_bytes(8, "little"),
        )
        out = int.from_bytes(h.digest(), "little") / _TWO64
        if len(self._cache) > 1_000_000:
            self._cache.clear()
        self._cache[(n, k)] = out
        return out

    def resampled(self, generation: int, salt: int) -> "AmplitudeField":
        """Fresh independent amplitudes in one generation, all others frozen."""
        mixed = int.from_bytes(
            hashlib.blake2b(
                struct.pack("<qqq", self.seed, generation, salt), digest_size=8
            ).digest(),
            "little",
        )
        overrides = dict(self._overrides)
        overrides[generation] = mixed
        return AmplitudeField(self.seed, overrides)


class ConstantAmplitudeField:
    """Every amplitude equal to a constant; handy for exact-value tests."""

    __slots__ = ("constant",)

    def __init__(self, constant: float):
        if not 0.0 <= constant <= 1.0:
            raise ValueError("amplitude constant must lie in [0, 1]")
        self.constant = float(constant)

    def value(self, n: int, k: int) -> float:
        return self.constant


def generation_weight(n: int, b: float) -> float:
    """Weight a_n = 2^(-2 b n^2) of dyadic generation n >= 1."""
    if n < 1:
        raise ValueError("generations are numbered from 1")
    if b <= 0:
        raise ValueError("need b > 0")
    return 2.0 ** (-2.0 * b * n * n)


def log2_generation_weight(n: int, b: float) -> float:
    if n < 1 or b <= 0:
        raise ValueError("need n >= 1 and b > 0")
    return -2.0 * b * n * n


def tail_bound(N: int, b: float) -> float:
    """Upper bound (1/2) 2^(-2bN) a_N on the total weight beyond generation N."""
    if N < 1:
        raise ValueError("need N >= 1")
    return 0.5 * 2.0 ** (-2.0 * b * N) * generation_weight(N, b)


def log2_tail_bound(N: int, b: float) -> float:
    return -1.0 - 2.0 * b * N + log2_generation_weight(N, b)


def tail_bound_sharp(N: int, b: float) -> float:
    """Geometric-series tail sum_{n>N} a_n <= a_{N+1} / (1 - 2^(-2b(2N+3))).

    Far smaller than tail_bound (which is the quotable closed form); used
    where worst-case truncation arithmetic has to actually close.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    ratio = 2.0 ** (-2.0 * b * (2 * N + 3))
    return generation_weight(N + 1, b) / (1.0 - ratio)


@dataclass(frozen=True, eq=False)
class HaarHull:
    """Truncatable hull v_N(w) = sum_{n<=N} a_n theta_{n, cell(w,n)}."""

    b: float
    n_max: int
    theta: object  # AmplitudeField-compatible

    def __post_init__(self):
        if self.b <= 0 or self.n_max < 1:
            raise ValueError("need b > 0 and n_max >= 1")
        # a_n decreases: generations from the first underflow to 0.0 on add nothing
        weights = (generation_weight(n, self.b) for n in range(1, self.n_max + 1))
        object.__setattr__(self, "_weights", np.fromiter(takewhile(bool, weights), float))

    @property
    def depth(self) -> int:
        """Number of leading generations with a nonzero weight."""
        return len(self._weights)

    def values(self, phases, N: Optional[int] = None) -> np.ndarray:
        """Truncated hull values v_N at each row of an (m, nu) phase array,
        looking each distinct (generation, cell) amplitude up once."""
        N = self.n_max if N is None else N
        if N < 1 or N > self.n_max:
            raise ValueError(f"truncation generation {N} outside [1, {self.n_max}]")
        depth = min(N, self.depth)
        flat = torus.cell_indices(phases, depth)
        m, nu = np.shape(phases)
        # heap order: generation n owns the keys [2^(n nu), 2^(n nu + 1))
        starts = np.int64(1) << (np.arange(1, depth + 1) * nu)
        cells, inverse = np.unique((starts - 1 + flat).ravel(), return_inverse=True)
        gens = np.searchsorted(starts, cells, side="right")
        ks = (cells - starts[gens - 1] + 1).tolist()
        theta = np.fromiter(map(self.theta.value, gens.tolist(), ks), float, len(cells))
        terms = np.zeros((m, depth + 1))
        terms[:, 1:] = self._weights[:depth] * theta[inverse].reshape(m, depth)
        return np.add.accumulate(terms, axis=1)[:, -1]

    def value(self, omega, N: Optional[int] = None):
        """Truncated hull value and the tail bound of the discarded generations.

        ``N`` defaults to ``n_max``.  The tail bound refers to the exact hull
        minus the returned truncation.
        """
        N = self.n_max if N is None else N
        return float(self.values(torus.wrap(omega)[None, :], N)[0]), tail_bound(N, self.b)


def config_potentials(hull: HaarHull, system: torus.ShiftSystem, omega, configs,
                      N: Optional[int] = None) -> np.ndarray:
    """Potentials of many configurations at one phase: each distinct site is
    translated once, and a configuration sums its sites in particle order."""
    configs = tuple(configs)
    index = {s: i for i, s in enumerate(dict.fromkeys(x for c in configs for x in c.sites))}
    phases = np.asarray([system.translate(omega, s) for s in index],
                        dtype=float).reshape(len(index), system.nu)
    site = hull.values(phases, N)
    return np.array([sum(site[index[s]] for s in c.sites) for c in configs], float)


def site_potential(hull: HaarHull, system: torus.ShiftSystem, omega, x,
                   N: Optional[int] = None) -> float:
    """Hull value along the orbit: v_N(T^x w)."""
    val, _ = hull.value(system.translate(omega, x), N)
    return val


def config_potential(hull: HaarHull, system: torus.ShiftSystem, omega,
                     cfg: FermiConfig, N: Optional[int] = None) -> float:
    """Multi-particle potential: sum of site potentials over the configuration."""
    return float(config_potentials(hull, system, omega, (cfg,), N)[0])


def potential_on(hull: HaarHull, system: torus.ShiftSystem, omega,
                 N: Optional[int] = None):
    """Bind hull, dynamics and phase into a config -> float callable."""
    def _v(cfg: FermiConfig) -> float:
        return config_potential(hull, system, omega, cfg, N)
    return _v


# ---------------------------------------------------------------------------
# scale arithmetic
# ---------------------------------------------------------------------------

def partition_generation(L: int, A: int, C: float) -> int:
    """Dyadic generation that resolves an L-window orbit: 1 + floor((4A ln L - ln(C/2)) / ln 2)."""
    if L < 2:
        raise ValueError("need L >= 2")
    if C <= 0:
        raise ValueError("need C > 0")
    q = (4.0 * A * math.log(L) - math.log(C / 2.0)) / LN2
    return 1 + math.floor(q + 1e-9)


def window_generation(L: int, A: int, C: float) -> int:
    """Resolving generation for the L^4 window: partition_generation(L^4)."""
    return partition_generation(L ** 4, A, C)


def generation_sandwich(L: int, A: int, C: float):
    """Bracketing (3 A ln L / ln 2, 5 A ln L / ln 2) valid once A ln L > |ln C| + 2 ln 2."""
    lo = 3.0 * A * math.log(L) / LN2
    hi = 5.0 * A * math.log(L) / LN2
    applicable = A * math.log(L) > abs(math.log(C)) + 2.0 * LN2
    return lo, hi, applicable


def min_gap(values: Sequence[float]) -> float:
    """Smallest |v_i - v_j| over distinct index pairs; repeated values give zero."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size < 2:
        raise ValueError("need at least two values")
    return float(np.min(np.diff(arr)))


def growth_exponent(b: float, A: int) -> float:
    """Exponent B with a_{N(L)}^(-1) <= L^(B ln L); equals 800 b A^2 / ln 2.

    The combination follows from the generation bracket N(L) < 20 A ln L / ln 2
    applied to the weight a_n = 2^(-2 b n^2).
    """
    return 800.0 * b * A * A / LN2


@dataclass(frozen=True)
class DensityBoundReport:
    inverse_weight: float        # a_N^{-1}, inf when it overflows
    log2_inverse_weight: float
    log2_bound: float            # log2 of L^{B ln L}
    generation: int
    holds: bool


def density_bound(L: int, b: float, A: int, C: float) -> DensityBoundReport:
    """Inverse finest-generation weight against its polynomial-type bound, in log2."""
    N = window_generation(L, A, C)
    log2_inv = 2.0 * b * N * N
    log2_bnd = growth_exponent(b, A) * math.log(L) ** 2 / LN2
    inv = 2.0 ** log2_inv if log2_inv < 1023 else math.inf
    return DensityBoundReport(inv, log2_inv, log2_bnd, N, log2_inv <= log2_bnd)
