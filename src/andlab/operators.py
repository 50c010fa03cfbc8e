"""Finite-volume many-fermion Hamiltonians on configuration graphs.

H = kinetic + g * potential + interaction, acting on functions over a finite
set of configurations.  The kinetic part follows the configuration graph,
with the coordination number counted inside the assembly domain, so the
matrix of a sub-domain obtained by *restriction* is the exact sub-block of
the parent matrix (which is what resolvent identities need), while a matrix
*assembled* directly on the sub-domain has its own, smaller coordination
numbers.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import potential as pot
from . import torus
from .configs import DomainGraph, FermiConfig, ball, domain_graph, matching_distances

KINETIC_CONVENTIONS = ("laplacian", "adjacency", "none")


class Interaction:
    """Pair potential U(r) = exp(-2 B ln^2 r) on l1 particle distance.

    Monotone decreasing past r = 1 and faster than any polynomial; an
    optional hard range cutoff sets U to zero beyond ``cutoff``.
    """

    __slots__ = ("B", "cutoff")

    def __init__(self, B: float, cutoff=None):
        if not 0 < B < math.inf:
            raise ValueError(f"need a finite B > 0, got {B!r}")
        if cutoff is not None and not cutoff >= 1:   # NaN would never cut
            raise ValueError(f"cutoff {cutoff!r} below the minimal particle distance 1")
        self.B = float(B)
        self.cutoff = cutoff

    def value(self, r) -> float:
        if r < 1:
            raise ValueError("distinct fermions are at l1 distance >= 1")
        if self.cutoff is not None and r > self.cutoff:
            return 0.0
        lr = math.log(r)
        return math.exp(-2.0 * self.B * lr * lr)

    def energy(self, cfg: FermiConfig) -> float:
        """Total pair energy of one configuration."""
        total = 0.0
        sites = cfg.sites
        for i in range(len(sites)):
            for j in range(i + 1, len(sites)):
                r = sum(abs(a - b) for a, b in zip(sites[i], sites[j]))
                total += self.value(r)
        return total

    def tail(self, cutoff) -> float:
        """Largest discarded pair value when truncating at ``cutoff``."""
        if cutoff < 1:
            raise ValueError("cutoff below the minimal particle distance")
        lr = math.log(cutoff + 1)
        return math.exp(-2.0 * self.B * lr * lr)


@dataclass(frozen=True, eq=False)
class FiniteHamiltonian:
    """Dense symmetric matrix over an ordered configuration domain."""

    domain: tuple
    matrix: np.ndarray
    g: float
    convention: str

    @property
    def n(self) -> int:
        return len(self.domain)

    @cached_property
    def graph(self) -> DomainGraph:
        """Configuration graph of the domain, shared by every operator on an
        equal domain (``configs.domain_graph``)."""
        return domain_graph(self.domain)

    def restrict(self, subdomain) -> "FiniteHamiltonian":
        """Exact sub-block on ``subdomain`` (diagonal kept from the parent)."""
        idx = self.graph.index
        try:
            rows = [idx[c] for c in subdomain]
        except KeyError as bad:
            raise ValueError(f"configuration {bad} not in the parent domain")
        if len(set(rows)) != len(rows):
            raise ValueError("subdomain repeats a configuration")
        sel = np.asarray(rows)
        return FiniteHamiltonian(tuple(subdomain), self.matrix[np.ix_(sel, sel)],
                                 self.g, self.convention)


def _potential_values(domain, potential) -> np.ndarray:
    """A function on ``domain`` (a callable on configurations, a dict, an array
    in domain order, or None for zero) as a float array in domain order."""
    if potential is None:
        return np.zeros(len(domain))
    if callable(potential):
        return np.asarray([float(potential(c)) for c in domain])
    if isinstance(potential, dict):
        return np.asarray([float(potential[c]) for c in domain])
    arr = np.asarray(potential, dtype=float)
    if arr.shape != (len(domain),):
        raise ValueError("potential array length does not match the domain")
    return arr


def assemble(domain, potential=None, g: float = 1.0, interaction: Interaction = None,
             convention: str = "laplacian") -> FiniteHamiltonian:
    """Build H over ``domain`` (an ordered collection of configurations).

    ``potential`` may be a callable on configurations, a dict, an array
    aligned with the domain, or None.  ``convention`` picks the kinetic term:

    - "laplacian": off-diagonal -1 on configuration-graph edges, diagonal
      adds the within-domain coordination number;
    - "adjacency": off-diagonal +1, no kinetic diagonal;
    - "none": no kinetic term at all.

    A non-finite ``g`` or potential value, and a domain that mixes particle
    numbers or dimensions, are refused with a ``ValueError``.
    """
    if convention not in KINETIC_CONVENTIONS:
        raise ValueError(f"unknown kinetic convention {convention!r}")
    if not math.isfinite(g):
        raise ValueError(f"g must be finite, got {g!r}")
    domain = tuple(domain)
    m = len(domain)
    H = FiniteHamiltonian(domain, np.zeros((m, m)), float(g), convention)
    graph = H.graph  # rejects a domain that repeats a configuration
    graph.sites      # rejects a domain that mixes particle numbers or dimensions
    values = _potential_values(domain, potential)
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))   # the first non-finite value
        raise ValueError(f"potential must be finite, got {values[i].item()!r} at {domain[i]}")
    if convention != "none":
        rows = np.repeat(np.arange(m), graph.degrees)
        cols = np.fromiter(itertools.chain.from_iterable(graph.adjacency), dtype=np.intp,
                           count=rows.size)
        H.matrix[rows, cols] = -1.0 if convention == "laplacian" else 1.0
        if convention == "laplacian":
            H.matrix[np.arange(m), np.arange(m)] += graph.degrees
    diag = g * values
    if interaction is not None:
        diag = diag + np.asarray([interaction.energy(c) for c in domain])
    H.matrix[np.arange(m), np.arange(m)] += diag
    return H


def ball_operator(center, L: int, potential=None, g: float = 1.0,
                  interaction: Interaction = None, convention: str = "laplacian",
                  max_size: int = 20_000) -> FiniteHamiltonian:
    """H on the radius-L ball as an exact sub-block of the whole-lattice operator.

    Assembling on the 1-inflated ball and restricting keeps the diagonal
    coordination numbers of the infinite lattice, which is the operator the
    spectral statistics refer to; a direct assemble() on the ball would see
    smaller degrees along its edge.
    """
    if L < 0:
        raise ValueError(f"need a ball radius L >= 0, got {L}")
    H = assemble(ball(center, L + 1, max_size).members, potential, g, interaction,
                 convention)
    row = matching_distances(np.asarray([center.sites]), H.graph.sites)[0]
    return H.restrict([H.domain[j] for j in np.flatnonzero(row <= L)])


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k is the k-th eigenvector

    def eigenfunction(self, k: int) -> np.ndarray:
        return self.eigenvectors[:, k]


def diagonalize(H: FiniteHamiltonian) -> Spectrum:
    """Full symmetric eigensolve; eigenvectors signed so the largest-modulus
    entry of each is positive (a deterministic gauge for comparisons)."""
    vals, vecs = np.linalg.eigh(H.matrix)
    if vecs.size:   # argmax has nothing to reduce on a 0x0 operator
        lead = np.argmax(np.abs(vecs), axis=0)   # first index of the largest modulus
        flip = vecs[lead, np.arange(vecs.shape[1])] < 0
        vecs[:, flip] = -vecs[:, flip]
    return Spectrum(vals, vecs)


def spectral_distance(a, b) -> float:
    """min |a_i - b_j| between two spectra (either may be a scalar)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return float(np.min(np.abs(a[:, None] - b[None, :])))


def covariance_deviation(domain, system: torus.ShiftSystem, hull: pot.HaarHull,
                         omega, shift, g: float, interaction: Interaction = None,
                         convention: str = "laplacian") -> float:
    """Max-entry mismatch between translating the domain and shifting the phase.

    The ergodic family satisfies H_{domain+x}(w) = H_domain(T^x w) exactly;
    anything beyond roundoff signals a broken orbit evaluation.  ``shift``
    is a lattice vector: a non-integer entry is refused, not truncated.
    """
    moved = tuple(c.shifted(shift) for c in domain)
    H_moved = assemble(moved, pot.config_potentials(hull, system, omega, moved),
                       g, interaction, convention)
    H_phase = assemble(tuple(domain), pot.config_potentials(
        hull, system, system.translate(omega, shift), domain), g, interaction, convention)
    return float(np.max(np.abs(H_moved.matrix - H_phase.matrix)))


@dataclass(frozen=True)
class TruncationBound:
    hull_term: float         # g * particles * discarded hull weight
    interaction_term: float  # pairs * largest discarded pair value
    total: float


def truncation_bound(n_particles: int, g: float, b: float, N: int,
                     interaction: Interaction = None, cutoff=None) -> TruncationBound:
    """Norm bound on H_full - H_truncated for hull depth N and range cutoff."""
    hull_term = abs(g) * n_particles * pot.tail_bound(N, b)
    inter_term = 0.0
    if interaction is not None and cutoff is not None:
        pairs = n_particles * (n_particles - 1) // 2
        inter_term = pairs * interaction.tail(cutoff)
    return TruncationBound(hull_term, inter_term, hull_term + inter_term)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_operator(path, H: FiniteHamiltonian):
    """Matrix to ``path``.npy plus a JSON sidecar with the domain and tags."""
    path = str(path)
    base = path[:-4] if path.endswith(".npy") else path
    np.save(base + ".npy", H.matrix, allow_pickle=False)
    meta = {
        "domain": [c.to_json() for c in H.domain],
        "g": H.g,
        "convention": H.convention,
    }
    with open(base + ".json", "w") as fh:
        json.dump(meta, fh)


def load_operator(path) -> FiniteHamiltonian:
    path = str(path)
    base = path[:-4] if path.endswith(".npy") else path
    matrix = np.load(base + ".npy", allow_pickle=False)
    with open(base + ".json") as fh:
        meta = json.load(fh)
    domain = tuple(FermiConfig.from_json(c) for c in meta["domain"])
    if matrix.shape != (len(domain), len(domain)):
        raise ValueError("matrix and domain sizes disagree")
    return FiniteHamiltonian(domain, matrix, float(meta["g"]), meta["convention"])


def spectrum_rows(H: FiniteHamiltonian, spec: Spectrum):
    """Rows (k, eigenvalue, center configuration, peak mass) for CSV export."""
    rows = []
    for k, lam in enumerate(spec.eigenvalues):
        v = spec.eigenvectors[:, k]
        peak = int(np.argmax(np.abs(v)))
        rows.append((k, float(lam), json.dumps(H.domain[peak].to_json()),
                     float(v[peak] ** 2)))
    return rows
