"""Quasi-periodic shift dynamics on the torus and its dyadic partitions.

The phase space is the nu-dimensional torus acted on by Z^d through commuting
shifts: step j adds frequency row alpha^(j) mod 1.  Dyadic partitions at
generation n cut each coordinate into 2^n half-open intervals; the flat cell
index is one-based and lexicographic in the per-coordinate indices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SeparationError

_QUADRATIC_UNITS = [
    (math.sqrt(5.0) - 1.0) / 2.0,  # golden mean
    math.sqrt(2.0) - 1.0,
    math.sqrt(3.0) - 1.0,
    math.sqrt(7.0) - 2.0,
    math.sqrt(11.0) - 3.0,
    math.sqrt(13.0) - 3.0,
    math.sqrt(17.0) - 4.0,
    math.sqrt(19.0) - 4.0,
]


def preset_frequencies(name: str, d: int = 1, nu: int = 1) -> np.ndarray:
    """Frequency matrix (d rows, nu columns) of pairwise distinct quadratic units."""
    if name != "golden":
        raise ValueError(f"unknown frequency preset {name!r}")
    need = d * nu
    if need > len(_QUADRATIC_UNITS):
        raise ValueError(f"preset supports at most {len(_QUADRATIC_UNITS)} frequencies")
    return np.array(_QUADRATIC_UNITS[:need], dtype=float).reshape(d, nu)


MAX_CELL_BITS = 62  # flat cell indices are int64: generations x nu <= 62
MAX_PHASE_BITS = 52  # generations per coordinate that a float64 phase resolves


def _finite_phase(omega) -> np.ndarray:
    """``omega`` as an at least 1-d float array; a NaN or infinite
    coordinate has no place on the torus and raises before ``np.mod`` warns."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if not np.isfinite(w).all():
        raise ValueError("non-finite phase")
    return w


def wrap(omega) -> np.ndarray:
    """Coordinates mod 1 in [0, 1), at least 1-d; the 1.0 that ``np.mod``
    gives for a coordinate in (-2^-54, 0) is folded to 0.0."""
    w = np.mod(_finite_phase(omega), 1.0)
    w[w == 1.0] = 0.0
    return w


def torus_distance(w1, w2) -> float:
    """Max over coordinates of the circle distance."""
    a, b = wrap(w1), wrap(w2)
    if a.shape != b.shape:
        raise ValueError("torus points of different dimension")
    diff = np.abs(a - b)
    return float(np.max(np.minimum(diff, 1.0 - diff)))


@dataclass(frozen=True, eq=False)
class ShiftSystem:
    """Z^d action on the torus together with its arithmetic quality constants.

    ``A``/``C_A`` witness the separation lower bound dist(T^x w, T^y w) >=
    (C_A |x-y|^A)^(-1); ``A_prime``/``C_A_prime`` the Lipschitz upper bound in
    the initial point.
    """

    frequencies: np.ndarray
    A: int = 1
    C_A: float = 3.0
    A_prime: int = 1
    C_A_prime: float = 1.0

    def __post_init__(self):
        freq = np.atleast_2d(np.asarray(self.frequencies, dtype=float))
        freq.setflags(write=False)
        object.__setattr__(self, "frequencies", freq)
        if self.A < 1 or self.A_prime < 0:
            raise ValueError("need A >= 1 and A_prime >= 0")

    @property
    def d(self) -> int:
        return self.frequencies.shape[0]

    @property
    def nu(self) -> int:
        return self.frequencies.shape[1]

    def translate(self, omega, x) -> np.ndarray:
        """Apply the shift indexed by the lattice vector ``x`` to a scalar
        phase or to an array of phases whose last axis has nu coordinates; a
        shift with an entry that is not an integer is refused."""
        xv = np.atleast_1d(np.asarray(x))
        if xv.dtype.kind not in "iub":
            raise ValueError(f"shift vector {x!r} has an entry that is not an integer")
        if xv.shape != (self.d,):
            raise ValueError(f"shift vector has shape {xv.shape}, expected ({self.d},)")
        w = np.asarray(omega, dtype=float)
        if w.ndim and w.shape[-1] != self.nu:
            raise ValueError(f"phase has shape {w.shape}, expected a last axis of nu = {self.nu}")
        # plain mod, not wrap: a start in (-2^-54, 0) keeps its historic orbit
        start = np.mod(_finite_phase(w), 1.0)
        return np.mod(start + np.asarray(xv, dtype=float) @ self.frequencies, 1.0)


def cell_key(omega, generation: int) -> tuple:
    """Per-coordinate dyadic indices at the given generation (exact integers)."""
    if generation < 0:
        raise ValueError("generation must be nonnegative")
    scale = 1 << generation
    return tuple(int(c * scale) for c in wrap(omega))


def cell_indices(phases, depth: int) -> np.ndarray:
    """One-based lexicographic flat indices of the generation-1..depth cells of
    each row of an (m, nu) phase array, shape (m, depth)."""
    w = wrap(phases)
    nu = w.shape[1]
    if depth * nu > MAX_CELL_BITS:
        raise ValueError(f"{depth} generations x nu = {nu} exceed {MAX_CELL_BITS} bits")
    scale, shift = _cell_scales(depth, nu)
    per = (w[:, None, :] * scale).astype(np.int64)
    return (per << shift).sum(axis=2) + 1


@functools.lru_cache(maxsize=64)
def _cell_scales(depth: int, nu: int):
    """Read-only (depth, 1) cell counts 2^n and (depth, nu) shifts that place
    each coordinate's index in the lexicographic flat index."""
    gens = np.arange(1, depth + 1)[:, None]
    scale, shift = np.int64(1) << gens, gens * np.arange(nu - 1, -1, -1)
    scale.setflags(write=False)
    shift.setflags(write=False)
    return scale, shift


# ---------------------------------------------------------------------------
# arithmetic quality reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpaReport:
    margin: float
    worst_shift: tuple
    worst_distance: float
    best_C_A: float
    holds: bool


def _shift_range(d: int, radius: int):
    if d == 1:
        for z in range(1, radius + 1):
            yield (z,)
        return
    grids = np.meshgrid(*[np.arange(-radius, radius + 1)] * d, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    for row in pts:
        if np.any(row):
            yield tuple(int(v) for v in row)


def verify_upa(system: ShiftSystem, shift_range: int) -> UpaReport:
    """Scan all nonzero shifts up to ``shift_range`` for the separation bound.

    The orbit difference dist(T^x w, T^y w) depends only on z = x - y, so the
    scan runs over single shifts from the zero phase.  ``margin`` is the
    minimum of dist * C_A * |z|^A; the bound holds on the range iff it is at
    least one.  ``best_C_A`` is the smallest constant that would make the
    bound hold with margin exactly one.
    """
    if shift_range < 0:
        raise ValueError("shift_range must be nonnegative")
    if shift_range == 0:
        # single-point window: nothing to compare
        return UpaReport(math.inf, (), math.inf, 0.0, True)
    origin = np.zeros(system.nu)
    margin = math.inf
    worst = None
    worst_dist = math.inf
    best = 0.0
    for z in _shift_range(system.d, shift_range):
        dist = torus_distance(system.translate(origin, z), origin)
        zn = max(abs(c) for c in z)
        m = dist * system.C_A * zn ** system.A
        best = max(best, 1.0 / (dist * zn ** system.A)) if dist > 0 else math.inf
        if m < margin:
            margin, worst, worst_dist = m, z, dist
    return UpaReport(margin, worst, worst_dist, best, margin >= 1.0)


@dataclass(frozen=True)
class DivReport:
    max_ratio: float
    holds: bool
    samples: int


def _check_counts(**counts):
    """Refuse, naming it, a sample count below 1: a check over no sample
    would hold over nothing."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"need {name} >= 1, got {value}")


def verify_div(system: ShiftSystem, samples: int, shift_range: int, seed: int = 0) -> DivReport:
    """Sample the Lipschitz-in-initial-point bound dist(T^x w, T^x w') <= C |x|^A' dist(w, w')."""
    _check_counts(samples=samples, shift_range=shift_range)
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    shifts = list(_shift_range(system.d, shift_range))
    for _ in range(samples):
        w1 = rng.random(system.nu)
        w2 = rng.random(system.nu)
        base = torus_distance(w1, w2)
        if base == 0.0:
            continue
        z = shifts[rng.integers(len(shifts))]
        zn = max(abs(c) for c in z)
        ratio = torus_distance(system.translate(w1, z), system.translate(w2, z)) / (
            zn ** system.A_prime * base
        )
        worst = max(worst, ratio)
        used += 1
    return DivReport(worst, worst <= system.C_A_prime * (1.0 + 1e-12), used)


def trajectory_cells_distinct(system: ShiftSystem, omega, shifts: Sequence, generation: int):
    """Check that all shifted phases fall into distinct generation-``generation`` cells.

    Returns ``(True, None)`` or ``(False, (x, y))`` with an offending pair of
    lattice shifts.  This is the runtime guard required before any statistics
    that treat the finest-generation amplitudes as independent across sites.
    """
    seen = {}
    for x in shifts:
        key = cell_key(system.translate(omega, x), generation)
        if key in seen:
            return False, (seen[key], tuple(np.atleast_1d(x)))
        seen[key] = tuple(np.atleast_1d(x))
    return True, None


def require_trajectory_separation(system, omega, shifts, generation):
    ok, pair = trajectory_cells_distinct(system, omega, shifts, generation)
    if not ok:
        raise SeparationError(
            f"shifts {pair} share a generation-{generation} cell; "
            "decrease the partition constant or shrink the window"
        )


# ---------------------------------------------------------------------------
# entropy covers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyCovers:
    """Cover radii and counts used by the piecewise-constancy estimates."""

    coarse_radius: float   # R = (6 L^{4A})^{-1}
    fine_radius: float     # r = (6 L^{4A+4A'})^{-1}
    coarse_count: float    # R^{-nu}
    generation: int        # n with 2^{-n-2} <= 6R < 2^{-n-1}


def entropy_covers(L: int, A: int, A_prime: int, nu: int) -> EntropyCovers:
    if L < 2:
        raise ValueError("need L >= 2")
    R = 1.0 / (6.0 * L ** (4 * A))
    r = 1.0 / (6.0 * L ** (4 * A + 4 * A_prime))
    count = R ** (-nu)
    n = math.ceil(-math.log2(6.0 * R)) - 2
    while 2.0 ** (-n - 2) > 6.0 * R:
        n += 1
    while 6.0 * R >= 2.0 ** (-n - 1):
        n -= 1
    return EntropyCovers(R, r, count, n)


def cover_split_check(system: ShiftSystem, L: int, samples: int = 64,
                      points_per_cube: int = 32, seed: int = 0) -> int:
    """Sampled verification that shifted fine cubes meet few next-generation cells.

    Draws random fine cubes of radius r and random shifts from the L^4 window,
    pushes a point cloud of each cube forward and counts distinct cells at
    generation ``n+1``.  Returns the worst count over the sample; the cover
    corollary predicts at most 2^nu.
    """
    _check_counts(samples=samples, points_per_cube=points_per_cube)
    cov = entropy_covers(L, system.A, system.A_prime, system.nu)
    rng = np.random.default_rng(seed)
    shifts = list(_shift_range(system.d, L ** 4))
    worst = 0
    for _ in range(samples):
        center = rng.random(system.nu)
        z = shifts[rng.integers(len(shifts))]
        cells = set()
        for _ in range(points_per_cube):
            point = np.mod(center + cov.fine_radius * (2 * rng.random(system.nu) - 1), 1.0)
            cells.add(cell_key(system.translate(point, z), cov.generation + 1))
        worst = max(worst, len(cells))
    return worst
