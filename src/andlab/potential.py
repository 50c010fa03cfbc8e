"""Lacunary Haar-type expansion of the site potential hull.

The hull value at a phase point is a weighted sum over dyadic generations:
generation n contributes weight a_n = 2^(-2 b n^2) times an amplitude drawn
uniformly from [0, 1) and indexed by the dyadic cell containing the point.
Amplitudes are realized lazily through a keyed counter hash, so arbitrarily
deep generations are addressable without storing the field.  A hull's depth
``n_max`` is its one truncation: v_N is the hull of depth N on the same field.

Evaluation comes in two halves.  ``cell_table`` is the part that depends
only on the phases: the dyadic cells each point falls in, every distinct
(generation, cell) listed once.  ``HaarHull.stacked_sums`` is the part that
depends on the fields: it fetches the amplitudes of the cells it needs, for
one field or a stack of them, and sums them in array passes.
``HaarHull.values`` is the one followed by the other on the field ``theta``.
The Monte-Carlo trials of ``andlab.wegner`` (``bad_measure_trials`` and
``sep_trials``) draw a new field per trial over a fixed orbit, so a batch of
trials (``wegner._trial_potentials``) builds one table over the sites of all
its domains and phases and fetches through ``field_amplitudes``, which
hashes every (seed, cell) asked for in one loop.  A field sums the same bits
in a stack as alone, so every trial computes exactly the bits of a fresh
evaluation, and a replay from a trial's seed alone stays bit-exact.

``stacked_sums`` adds and looks up only the generations a float64 sum can
still feel: it stops before the first n with a_n < ulp(S)/2, where S is the
smallest partial sum of any point.  The proof is one line: a term is
fl(a_n theta) <= a_n, so under round-to-nearest fl(S + term) = S, and the
weights decrease, so every later term rounds away too.  The stop starts at
the generations no partial sum <= sum a_n can drop (3 at b = 2.5, all 7 at
b = 0.5 with n_max = 7); the fields whose sums are smaller go on from them
through the generations the smallest sum of all feels.

``config_potentials`` keeps nothing: it evaluates its configurations'
distinct sites in one batch.  The one-configuration ``config_potential``
keeps a hull's one memo slot: the site values of the most recent (system,
phase), the system compared by identity (its frequencies are read-only) and
the phase by its shape and bytes; a call at another key replaces the slot.
No bit moves: a translated phase is a function of the key and the site, and
the batch a row is summed in adds at least the generations the row's own sum
feels while every later term rounds away, so a row's value does not depend
on its batch.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import takewhile
from typing import Optional, Sequence

import numpy as np

from . import torus
from .configs import FermiConfig

LN2 = math.log(2.0)
_TWO64 = float(1 << 64)
_SEED_MASK = (1 << 64) - 1


class AmplitudeField:
    """Deterministic uniform amplitudes addressed by (generation, cell).

    Values come from a keyed 64-bit blake2b digest of the counter, mapped to
    [0, 1).  Distinct seeds give independent fields; ``resampled`` replaces a
    single generation by a fresh field, which is the operation used by the
    conditional-uniformity diagnostics.
    """

    __slots__ = ("seed", "_overrides")

    def __init__(self, seed: int, _overrides: Optional[dict] = None):
        self.seed = int(seed)
        self._overrides = dict(_overrides or {})

    def value(self, n: int, k: int) -> float:
        h = _keyed(self._overrides.get(n, self.seed))
        h.update(_counter(n, k))
        return int.from_bytes(h.digest(), "little") / _TWO64

    def values(self, table: "CellTable", cells: slice = slice(None)) -> np.ndarray:
        """``[value(n, k) for n, k in zip(table.gens, table.ks)][cells]`` as a
        float array, bit for bit.  Each cell is hashed by a copy of the keyed
        hasher of its generation's seed, fed the cell's counter, and the
        digests are converted in one array pass: uint64 -> float64 rounds
        correctly and dividing by 2^64 is exact, so this maps a digest to
        [0, 1) exactly as ``value`` does."""
        gens, ks = table.gens[cells], table.ks[cells]
        base = _keyed(self.seed)
        keyed = {n: _keyed(seed) for n, seed in self._overrides.items()}
        digests = []
        append = digests.append
        for n, k in zip(gens, ks):
            h = keyed.get(n, base).copy()
            h.update(_counter(n, k))
            append(h.digest())
        return np.frombuffer(b"".join(digests), "<u8") / _TWO64

    def resampled(self, generation: int, salt: int) -> "AmplitudeField":
        """Fresh independent amplitudes in one generation, all others frozen."""
        mixed = int.from_bytes(
            hashlib.blake2b(
                struct.pack("<Qqq", self.seed & _SEED_MASK, generation, salt), digest_size=8
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

    def values(self, table: "CellTable", cells: slice = slice(None)) -> np.ndarray:
        return np.full(len(table.ks[cells]), self.constant)


def generation_weight(n: int, b: float) -> float:
    """Weight a_n = 2^(-2 b n^2) of dyadic generation n >= 1."""
    return 2.0 ** log2_generation_weight(n, b)


def log2_generation_weight(n: int, b: float) -> float:
    """log2 a_n = -2 b n^2; the one home of the rule on b."""
    if not 0 < b < math.inf:
        raise ValueError(f"need finite b > 0, got {b!r}")
    if n < 1:
        raise ValueError("generations are numbered from 1")
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
    """Hull v(w) = sum_{n<=n_max} a_n theta_{n, cell(w,n)}; v_N is ``HaarHull(b, N, theta)``."""

    b: float
    n_max: int
    theta: object  # AmplitudeField-compatible: value(n, k) and values(table, cells)

    def __post_init__(self):
        n_max = self.n_max  # an int or a numpy int, which operator.index takes
        if isinstance(n_max, bool) or not hasattr(n_max, "__index__") or n_max < 1:
            raise ValueError(f"need an integer n_max >= 1, got {n_max!r}")
        object.__setattr__(self, "n_max", operator.index(n_max))
        # generation_weight(1, b) refuses a bad b
        weights, stop = _generation_weights(float(self.b), self.n_max)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_stop", stop)
        # config_potential's memo slot: its most recent key and {site: value}
        object.__setattr__(self, "_sites", (None, {}))

    @property
    def depth(self) -> int:
        """Number of leading generations with a nonzero weight."""
        return len(self._weights)

    def values(self, phases) -> np.ndarray:
        """Hull values at the rows of an (m, nu) phase array, each distinct cell hashed once."""
        table = cell_table(phases, self.depth)
        return self.stacked_sums(table, lambda _, cells: self.theta.values(table, cells)[None])[0]

    def felt_cells(self, table: "CellTable") -> int:
        """Number of the table's leading cells that ``stacked_sums`` fetches
        for every field: those of the stop's generations."""
        return table.end(min(self._stop, table.inverse.shape[1]))

    def stacked_sums(self, table: "CellTable", amplitudes) -> np.ndarray:
        """(T, m) hull values at the m points of a cell table for T fields.
        ``amplitudes(rows, cells)`` returns the amplitudes of the table's
        ``cells`` (a slice), one row per field in ``rows`` (None: all T).
        Every row adds the stop's generations from 0.0; the rows whose
        smallest sum feels the next one go on from their own sums, their
        deeper cells fetched once.  Past a sum's felt generations every term
        rounds away, so each row has the bits of the full-depth sum."""
        depth = table.inverse.shape[1]
        if depth > self.depth:
            raise ValueError(f"table of {depth} generations; the hull has {self.depth}")
        stop = min(self._stop, depth)
        felt = table.end(stop)
        first = amplitudes(None, slice(0, felt))
        sums = _add_generations(np.zeros((len(first), len(table.inverse))),
                                self._weights[:stop], table.inverse[:, :stop], first)
        # a row can feel generation stop + 1 only if the smallest sum of all does
        if stop < depth and sums.size and self._weights[stop] >= math.ulp(sums.min()) / 2:
            need = min(_felt(self._weights, sums.min()), depth)
            # the sums are finite and >= 0, where np.spacing is math.ulp
            rows = np.flatnonzero(self._weights[stop] >= np.spacing(sums.min(axis=1)) / 2)
            deeper = amplitudes(rows.tolist(), slice(felt, table.end(need)))
            sums[rows] = _add_generations(sums[rows], self._weights[stop:need],
                                          table.inverse[:, stop:need] - felt, deeper)
        return sums

    def value(self, omega):
        """The hull value at one phase and the tail bound past ``n_max`` on its error."""
        return float(self.values(torus.wrap(omega)[None, :])[0]), tail_bound(self.n_max, self.b)


class CellTable:
    """The seed-independent half of a hull evaluation at m phase points:
    each distinct (generation, cell) pair they meet, listed once, and for
    each point and generation the position of its pair in that list."""

    __slots__ = ("gens", "ks", "inverse")

    def __init__(self, gens: tuple, ks: tuple, inverse: np.ndarray):
        self.gens = gens          # generation of each distinct cell
        self.ks = ks              # its one-based flat index within the generation
        self.inverse = inverse    # (m, depth) read-only positions into gens and ks

    def end(self, n: int) -> int:
        """Number of cells of generations 1..n, which lead the list: a table
        from ``cell_table`` lists its cells in generation order."""
        return bisect_right(self.gens, n)


def _keyed(seed: int):
    """A 64-bit blake2b hasher keyed by the seed's low 64 bits, fed nothing yet."""
    return hashlib.blake2b(digest_size=8, key=(seed & _SEED_MASK).to_bytes(8, "little"))


def _counter(n: int, k: int) -> bytes:
    """The message an amplitude's keyed digest is taken of: the generation
    as an int64, the byte length of the cell index, and the index in the
    fewest little-endian bytes (one byte for 0)."""
    k = int(k)
    kb = k.to_bytes((k.bit_length() + 7) // 8 or 1, "little")
    return struct.pack("<qI", n, len(kb)) + kb


def _add_generations(sums, weights, inverse, amplitudes) -> np.ndarray:
    """The (T, m) ``sums`` with the generations of ``weights`` added in
    order, a left fold per element; ``inverse`` (m, len(weights)) holds each
    point's columns of the (T, c) ``amplitudes``."""
    terms = weights * amplitudes.take(inverse, axis=1)
    return np.add.accumulate(np.concatenate([sums[:, :, None], terms], axis=2),
                             axis=2)[:, :, -1]


def field_amplitudes(seeds, messages) -> np.ndarray:
    """(len(seeds), len(messages)) amplitudes: entry (t, i) is
    ``AmplitudeField(seeds[t]).value`` of the cell whose hash message is
    ``messages[i]``, bit for bit.  Each digest is taken by a copy of the
    seed's keyed hasher, and all of them are converted in one array pass
    (uint64 -> float64 rounds correctly and dividing by 2^64 is exact)."""
    digests = []
    append = digests.append
    for seed in seeds:
        copy = _keyed(int(seed)).copy
        for message in messages:
            h = copy()
            h.update(message)
            append(h.digest())
    return (np.frombuffer(b"".join(digests), "<u8") / _TWO64).reshape(len(seeds),
                                                                     len(messages))


def cell_table(phases, depth: int) -> CellTable:
    """Cell table of generations 1..depth at the rows of an (m, nu) phase array."""
    if depth > torus.MAX_PHASE_BITS:
        raise ValueError(f"{depth} nonzero generations exceed the {torus.MAX_PHASE_BITS} "
                         "bits a float phase resolves per coordinate")
    flat = torus.cell_indices(phases, depth)
    m, nu = np.shape(phases)
    starts = _heap_starts(depth, nu)
    cells, inverse = np.unique((starts - 1 + flat).ravel(), return_inverse=True)
    gens = np.searchsorted(starts, cells, side="right")
    ks = cells - starts[gens - 1] + 1
    inverse = inverse.reshape(m, depth)
    inverse.setflags(write=False)
    return CellTable(tuple(gens.tolist()), tuple(ks.tolist()), inverse)


@functools.lru_cache(maxsize=64)
def _generation_weights(b: float, n_max: int):
    """Read-only weights a_1, a_2, ... of the generations up to ``n_max``
    that do not underflow (a_n decreases, so the generations from the first
    0.0 on add nothing), and how many of them no partial sum <= their total
    can drop.  Every hull of equal (b, n_max) shares the two."""
    weights = (generation_weight(n, b) for n in range(1, n_max + 1))
    out = np.fromiter(takewhile(bool, weights), float)
    out.setflags(write=False)
    return out, _felt(out, out.sum())


def _felt(weights: np.ndarray, total) -> int:
    """Leading generations a sum >= ``total`` can still feel: a_n >= ulp(total) / 2."""
    return int(np.count_nonzero(weights >= math.ulp(total) / 2))


@functools.lru_cache(maxsize=64)
def _heap_starts(depth: int, nu: int) -> np.ndarray:
    """Heap order: generation n owns the keys [2^(n nu), 2^(n nu + 1))."""
    starts = np.int64(1) << (np.arange(1, depth + 1) * nu)
    starts.setflags(write=False)
    return starts


def _translated(system: torus.ShiftSystem, omega, sites) -> np.ndarray:
    """(len(sites), nu) phases of the sites at ``omega``, one ``translate`` each."""
    return np.asarray([system.translate(omega, s) for s in sites],
                      dtype=float).reshape(len(sites), system.nu)


def site_rows(system: torus.ShiftSystem, omega, configs: tuple):
    """Phases of the distinct sites of ``configs`` at ``omega``, an (s, nu)
    array in first-seen order, and each configuration's rows into it in
    particle order, an (m, N) array; every configuration has N particles."""
    if len({c.n for c in configs}) > 1:
        raise ValueError("configurations of mixed particle number")
    index = {s: i for i, s in enumerate(dict.fromkeys(x for c in configs for x in c.sites))}
    rows = np.fromiter((index[s] for c in configs for s in c.sites), np.intp)
    return _translated(system, omega, index), rows.reshape(len(configs), -1 if configs else 0)


def sum_rows(site: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(T, m): for each of the T rows of a (T, s) stack of site arrays, the
    site values each row of ``rows`` names, added from 0.0 in particle order."""
    total = np.zeros((len(site), len(rows)))
    for column in rows.T:
        total += site[:, column]
    return total


def config_potentials(hull: HaarHull, system: torus.ShiftSystem, omega, configs) -> np.ndarray:
    """Potentials of many configurations at one phase: each distinct site is
    translated and evaluated once, in one batch, and a configuration adds its
    sites' hull values from 0.0 in particle order."""
    phases, rows = site_rows(system, omega, tuple(configs))
    return sum_rows(hull.values(phases)[None], rows)[0]


def config_potential(hull: HaarHull, system: torus.ShiftSystem, omega,
                     cfg: FermiConfig) -> float:
    """Multi-particle potential: the configuration's site values added from
    0.0 in particle order.  The hull's memo slot holds the site values at the
    most recent (system, phase), so a loop over a domain's configurations
    translates and evaluates each site once."""
    omega = np.asarray(omega, dtype=float)
    key = (system, omega.shape, omega.tobytes())
    if hull._sites[0] != key:
        object.__setattr__(hull, "_sites", (key, {}))
    values = hull._sites[1]
    missed = [s for s in cfg.sites if s not in values]
    if missed:
        values.update(zip(missed, hull.values(_translated(system, omega, missed)).tolist()))
    total = 0.0
    for s in cfg.sites:
        total += values[s]
    return total


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


def min_gap(values: Sequence[float]) -> float:
    """Smallest |v_i - v_j| over distinct index pairs; repeated values give
    zero.  A NaN, or an infinity minus itself, would make the gap NaN, so
    the values must be finite."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size < 2:
        raise ValueError("need at least two values")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value")
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
