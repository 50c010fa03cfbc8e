"""Multi-scale machinery: scale sequences, Green functions, resonance and
singularity classification, dominated-function bounds, scans and reports.

Every resonance and singularity verdict on a ball, in the scan and the
classifiers alike, comes from one per-ball test on its eigenpairs, ``_ball_test``.

Thresholds here live on wildly different scales (resonance widths can be
2^-280 while Green values sit near 1), so every comparison that could
underflow is done on logarithms; float fields are kept alongside for
reporting and may quietly be 0.0 or inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

import numpy as np

from . import potential as pot
from .configs import FermiConfig, domain_graph, matching_distances
from .configs import neighbors  # noqa: F401  (msa.neighbors stays importable)
from .errors import BudgetExceededError, NearResonantError
from .operators import FiniteHamiltonian, Spectrum, _potential_values, diagonalize


def gamma(m: float, L: int) -> float:
    """Decay exponent target: m(1 + L^(-1/8))L for L >= 1, 2m at L = 0.

    Satisfies mL < gamma < 2mL for every L >= 1.
    """
    if m <= 0:
        raise ValueError("need m > 0")
    if L < 0:
        raise ValueError("need L >= 0")
    if L == 0:
        return 2.0 * m
    return m * (1.0 + L ** (-0.125)) * L


# ---------------------------------------------------------------------------
# scale sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleLevel:
    j: int
    L: int
    generation: int      # finest dyadic generation resolving the L^4 window
    log2_beta: float
    log2_delta: float

    @property
    def beta(self) -> float:
        return 2.0 ** self.log2_beta if self.log2_beta > -1074 else 0.0

    @property
    def delta(self) -> float:
        return 2.0 ** self.log2_delta if self.log2_delta > -1074 else 0.0


class ScaleSequence:
    """Doubling-exponent length scales L_j = L0^(2^j) with their widths.

    Level j = -1 is the single-site scale: L = 0 by convention, but its
    dyadic generation (and hence beta, delta) is taken from L0.  beta_j is
    the weight of one generation step below the resolving generation and
    delta_j multiplies it by the generation weight itself; both decay so
    fast that the float fields underflow quickly (log2 fields are exact).
    """

    def __init__(self, L0: int, b: float, A: int = 1, C: float = 3.0, j_max: int = 4):
        if L0 < 2:
            raise ValueError("need L0 >= 2")
        if j_max < 0:
            raise ValueError("need j_max >= 0")
        self.L0 = int(L0)
        self.b = float(b)
        self.A = int(A)
        self.C = float(C)
        self.j_max = int(j_max)
        levels = []
        for j in range(-1, j_max + 1):
            L = 0 if j == -1 else L0 ** (2 ** j)
            gen = pot.window_generation(L0 if j == -1 else L, A, C)
            log2_beta = -2.0 * b * gen
            log2_delta = log2_beta + pot.log2_generation_weight(gen, b)
            levels.append(ScaleLevel(j, L, gen, log2_beta, log2_delta))
        self.levels = tuple(levels)

    def level(self, j: int) -> ScaleLevel:
        if not -1 <= j <= self.j_max:
            raise ValueError(f"level {j} outside [-1, {self.j_max}]")
        return self.levels[j + 1]


# ---------------------------------------------------------------------------
# Green functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GreenData:
    domain: tuple
    energy: float
    matrix: np.ndarray
    margin: float  # dist(spectrum, E)


def green(H: FiniteHamiltonian, E: float) -> GreenData:
    """Resolvent (H - E)^(-1) through the full eigensystem.

    Refuses energies closer to the spectrum than 1e-12 times the spectral
    radius since the columns are then garbage.
    """
    vals, vecs = np.linalg.eigh(H.matrix)
    margin = float(np.min(np.abs(vals - E)))
    scale = max(float(np.max(np.abs(vals))), 1.0)
    floor = 1e-12 * scale
    if margin < floor or margin == 0.0:
        raise NearResonantError(
            f"E={E} is within {margin:.3e} of the spectrum (floor {floor:.3e})")
    G = (vecs / (vals - E)) @ vecs.T
    return GreenData(H.domain, float(E), G, margin)


@dataclass(frozen=True)
class GreDefect:
    absolute: float
    relative: float
    scale: float


def _edge_defect(parent: FiniteHamiltonian, subdomain, x, y, E: float, far) -> GreDefect:
    """|far[x] - 1_{y in sub} G_sub(x,y;E) - sum over edge pairs (z, z') of
    G_sub(x,z;E) (-H_{z z'}) far[z']|, relative to the largest magnitude
    entering it; ``far`` is a vector over the parent domain."""
    if x not in subdomain:
        raise ValueError("x must lie in the sub-domain")
    Gs = green(parent.restrict(subdomain), E)   # restrict validates the sub-domain
    index, adjacency = parent.graph.index, parent.graph.adjacency
    rows = [index[c] for c in subdomain]
    inside = set(rows)
    gx = Gs.matrix[subdomain.index(x)]
    lhs = far[index[x]]
    rhs = gx[subdomain.index(y)] if y in subdomain else 0.0
    terms = [abs(lhs), abs(rhs)]
    for k, z in enumerate(rows):
        for zp in adjacency[z]:
            if zp not in inside:   # edges to the rest of the parent domain
                term = gx[k] * (-parent.matrix[z, zp]) * far[zp]
                rhs += term
                terms.append(abs(term))
    absolute = abs(lhs - rhs)
    scale = max(max(terms), 1e-300)
    return GreDefect(absolute, absolute / scale, scale)


def gre_defect(parent: FiniteHamiltonian, subdomain, x, y, E: float) -> GreDefect:
    """Mismatch in the geometric resolvent identity across the sub-domain edge.

    For x in the sub-domain: G'(x,y) = 1_{y in sub} G_sub(x,y)
    + sum over edge pairs (z, z') of G_sub(x,z) (-H_{z z'}) G'(z',y).
    The restriction is the exact sub-block, so the identity holds to
    solver accuracy; the relative defect is normalized by the largest
    magnitude entering the identity.
    """
    return _edge_defect(parent, tuple(subdomain), x, y, E,
                        green(parent, E).matrix[:, parent.graph.index[y]])


def eigenfunction_gre_defect(parent: FiniteHamiltonian, subdomain, x, k: int,
                             spectrum: Optional[Spectrum] = None) -> GreDefect:
    """Defect of psi(x) = sum over edges of G_sub(x,z;E) (-H_{z z'}) psi(z')
    for the k-th eigenpair of the parent and x inside the sub-domain."""
    spec = spectrum if spectrum is not None else diagonalize(parent)
    return _edge_defect(parent, tuple(subdomain), x, None, float(spec.eigenvalues[k]),
                        spec.eigenvectors[:, k])


# ---------------------------------------------------------------------------
# resonance / singularity classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceReport:
    nonresonant: bool
    distance: float
    threshold: float

    @property
    def margin(self) -> float:
        return self.distance - self.threshold


def _ball_test(vals, weights, energies, res_threshold: float, log_threshold: float):
    """The two multiscale predicates of one ball at each of ``energies``.

    ``weights`` holds one row psi_k(center) psi_k(y) per inner-boundary y of
    the ball's eigenpairs (vals[k], psi_k), so G(center, y; E) is the row's
    dot product with 1/(vals - E).  Returns dist(spectrum, E); the table of
    |G(center, y; E)|, one row per y; log max_y |G(center, y; E)|, +inf at a
    pole or where the sum is NaN; and the flags resonant (dist below
    ``res_threshold``) and singular (log max above ``log_threshold``).
    """
    diff = vals[:, None] - np.asarray(energies, dtype=float)[None, :]
    dist = np.min(np.abs(diff), axis=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        size = np.abs(weights @ (1.0 / diff))
        log_worst = np.log(np.max(size, axis=0))
    log_worst[np.isnan(log_worst)] = np.inf
    return dist, size, log_worst, dist < res_threshold, log_worst > log_threshold


def _ball_spectrum(matrix: np.ndarray, center: int, boundary):
    """Eigenvalues of a ball's matrix and its ``_ball_test`` weights over its boundary rows."""
    vals, vecs = np.linalg.eigh(matrix)
    return vals, vecs[boundary] * vecs[center]


def _ball_table(H: FiniteHamiltonian, L: int):
    """``(center position, eigenvalues, weights)`` for each radius-L ball of
    H's domain over its inner boundary, in ``DomainGraph.balls`` order."""
    graph = H.graph
    if not L:   # a radius-0 ball is its center: eigh of [[a]] gives ([a], [[1.0]]),
        # and the center is its inner boundary (every configuration has a lattice neighbour)
        diagonal = H.matrix.diagonal().copy()
        for i, _ in graph.balls(0):
            yield i, diagonal[i:i + 1], np.ones((1, 1))
        return
    for i, idx in graph.balls(L):
        yield (i, *_ball_spectrum(H.matrix[np.ix_(idx, idx)], int(np.flatnonzero(idx == i)[0]),
                                  np.flatnonzero(graph.boundary(idx))))


def classify_resonant(eigenvalues, E: float, threshold: float) -> ResonanceReport:
    """Non-resonant iff dist(spectrum, E) >= threshold (>= is the convention).

    ``threshold`` is typically g * delta_j of the working scale level; it is
    a parameter because the literature normalizes it more than one way.
    """
    vals = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    # one zero weight row: resonance reads only the distance
    dist, _, _, resonant, _ = _ball_test(vals, np.zeros((1, vals.size)), [E],
                                         threshold, math.inf)
    return ResonanceReport(not resonant[0], float(dist[0]), float(threshold))


@dataclass(frozen=True)
class SingularityReport:
    nonsingular: bool
    log_worst: float     # max over the inner boundary of log |G(center, y)|
    log_threshold: float
    witness: object      # first boundary configuration attaining the max

    @property
    def margin(self) -> float:
        return self.log_threshold - self.log_worst


def singularity_threshold_log(L: int, m: float, n_particles: int, dim: int) -> float:
    """log of the decay threshold: (3L)^(-Nd) e^(-gamma) for L >= 1,
    (2Nd)^(-1) e^(-2m) for L = 0."""
    if L == 0:
        return -math.log(2.0 * n_particles * dim) - gamma(m, 0)
    return -n_particles * dim * math.log(3.0 * L) - gamma(m, L)


def classify_singular(H_ball: FiniteHamiltonian, center, E: float, m: float,
                      L: int) -> SingularityReport:
    """Non-singular iff |G(center, y; E)| stays under the decay threshold for
    every inner-boundary y; at a pole of G the ball is singular."""
    log_thr = singularity_threshold_log(L, m, center.n, center.d)
    graph = H_ball.graph
    boundary = graph.order[graph.boundary(graph.order)]   # rows in configuration order
    _, size, log_worst, _, singular = _ball_test(
        *_ball_spectrum(H_ball.matrix, graph.index[center], boundary), [E], 0.0, log_thr)
    return SingularityReport(not singular[0], float(log_worst[0]), log_thr,
                             graph.domain[boundary[int(np.argmax(size[:, 0]))]])


# ---------------------------------------------------------------------------
# dominated functions
# ---------------------------------------------------------------------------

def _dominated_setup(f, domain, center, L: int, ell: int, q: float):
    """Validated |f| as a list in domain order, and (x, the domain members of its closed
    (ell+1)-ball) as positions for each x with rho(center, x) <= 2L - ell (full lattice).

    The table comes from one array pass over the metric rows of the checked
    points: their ball entries are taken in row order and cut into one list
    per point, so each list is in ascending domain order.  A non-finite |f|
    is refused: NaN would make a ball max depend on the order of its members,
    and inf would make every ball that holds it vacuously dominated."""
    if not 0.0 < q < 1.0:
        raise ValueError("need 0 < q < 1")
    if ell < 0 or L < 0:
        raise ValueError("need L, ell >= 0")
    graph = domain_graph(tuple(domain))
    fv = np.abs(_potential_values(graph.domain, f))
    if not np.isfinite(fv).all():
        raise ValueError("the function must be finite on the domain")
    row = matching_distances(np.asarray([center.sites]), graph.sites)[0]
    xs = np.flatnonzero(row <= 2 * L - ell)
    rows, ys = np.nonzero(graph.metric[xs] <= ell + 1)
    cuts = np.searchsorted(rows, np.arange(len(xs) + 1)).tolist()
    ys = ys.tolist()
    return fv.tolist(), [(x, ys[a:b]) for x, a, b in zip(xs.tolist(), cuts, cuts[1:])]


def _ball_getters(local: list) -> list:
    """Each checked x with a getter of |f| on its ball as a tuple.  x lies in
    its own ball; naming it once more makes a one-member ball a tuple too."""
    return [(x, itemgetter(x, *ys)) for x, ys in local]


def _clip(fv: list, balls: list, q: float) -> bool:
    """One in-place sweep clipping each checked |f(x)| to q times the max over
    its ball; whether any value moved.  Nothing moves before the first
    violation, so a sweep moves something exactly when fv is not dominated.

    The sweep is Gauss-Seidel: each clip reads the values clipped before it
    in the same sweep.  A Jacobi or array sweep reaches the same fixed point
    but in another number of sweeps, which would change the profiles that
    exhaust force_dominated's budget."""
    changed = False
    for x, ball in balls:
        cap = q * max(ball(fv))
        if fv[x] > cap:
            fv[x] = cap
            changed = True
    return changed


def dominated_check(f, domain, center, L: int, ell: int, q: float) -> bool:
    """Whether |f(x)| <= q * max of |f| over the closed (ell+1)-ball around x,
    for every x in the domain with rho(center, x) <= 2L - ell.

    ``domain`` holds the 2L-inflated ball the function lives on; ``f`` may be
    a dict, a callable or an array in domain order, and must be finite.  The
    ball maxima are taken inside the domain.
    """
    fv, local = _dominated_setup(f, domain, center, L, ell, q)
    return not _clip(fv, _ball_getters(local), q)


def dominated_bound(L: int, ell: int, q: float, M: float) -> float:
    """Center-value bound q^(floor((L+1)/(ell+1))) * M for dominated functions."""
    if not 0.0 < q < 1.0:
        raise ValueError("need 0 < q < 1")
    return q ** ((L + 1) // (ell + 1)) * M


_SWEEPS = 64   # clipping sweeps force_dominated makes before it gives up


def force_dominated(f, domain, center, L: int, ell: int, q: float):
    """Largest dominated function below |f|: sweep x in the checked region,
    clipping f(x) to q times its (ell+1)-ball max, until stable.  ``f`` is
    taken as in :func:`dominated_check` and must be finite.

    Used to manufacture dominated test functions from arbitrary profiles;
    the result passes dominated_check by construction (it may be all zero).
    With every member checked, the maximum lies in its own ball: only 0 is left.
    """
    domain = tuple(domain)
    fv, local = _dominated_setup(f, domain, center, L, ell, q)
    if len(local) == len(fv):
        return dict.fromkeys(domain, 0.0)
    balls = _ball_getters(local)
    for _ in range(_SWEEPS):
        if not _clip(fv, balls, q):
            return dict(zip(domain, fv))
    raise BudgetExceededError("dominated repair did not stabilize")


# ---------------------------------------------------------------------------
# sparseness scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanViolation:
    energy: float
    center_a: FermiConfig
    center_b: FermiConfig
    kind: str  # "singular-pair" or "resonant-pair"


@dataclass(frozen=True)
class SparsenessReport:
    L: int
    n_balls: int
    n_energies: int
    singular_pairs: int
    resonant_pairs: int
    examples: tuple   # first few ScanViolation records
    truncated: bool   # some violation is missing from the examples

    @property
    def clean(self) -> bool:
        return self.singular_pairs == 0 and self.resonant_pairs == 0


def sparseness_scan(H_window: FiniteHamiltonian, L: int, m: float, g: float,
                    delta: float, energy_cap: int = 4000,
                    max_examples: int = 50,
                    flop_budget: float = 2e9) -> SparsenessReport:
    """Scan a window for forbidden pairs of distant bad balls.

    Every radius-L ball fully contained in the window is classified by
    ``_ball_test``, at each energy of a grid of all sub-ball eigenvalues plus
    midpoints, as (E,m)-singular or not and as E-resonant (dist < g*delta).  A pair
    of singular (or resonant) balls whose centers are farther than 3NL apart
    in the configuration graph is a violation; localization theory says a
    clean window carries at most one bad cluster per energy.

    With S the (balls x energies) flag matrix of one kind and F the strictly
    upper-triangular mask of far center pairs, the violations at each energy
    are diag(S^T F S).  The diagonal is computed one chunk of energies at a
    time, as matmuls in float64 that are exact for these integer counts.
    ``flop_budget`` bounds the eigenvector contractions plus the
    n_balls^2 * n_energies pair count and is checked before the flag
    matrices are allocated.
    """
    table = list(_ball_table(H_window, L))
    if not table:
        return SparsenessReport(L, 0, 0, 0, 0, (), False)
    rows, spectra, weights = zip(*table)
    centers = [H_window.domain[i] for i in rows]

    grid = np.unique(np.concatenate(spectra))
    if grid.size > 1:
        grid = np.unique(np.concatenate([grid, (grid[:-1] + grid[1:]) / 2.0]))
    if grid.size > energy_cap:
        grid = grid[np.linspace(0, grid.size - 1, energy_cap).astype(int)]
    nE = grid.size
    n_balls = len(table)

    flops = sum(w.size * nE for w in weights) + n_balls * n_balls * nE
    if flops > flop_budget:
        raise BudgetExceededError(
            f"scan needs ~{flops:.2e} operations (budget {flop_budget:.2e}); "
            "shrink the window or the energy grid")

    log_thr = singularity_threshold_log(L, m, centers[0].n, centers[0].d)
    singular = np.zeros((n_balls, nE), dtype=bool)
    resonant = np.zeros((n_balls, nE), dtype=bool)
    for bi, (vals, w) in enumerate(zip(spectra, weights)):
        _, _, _, resonant[bi], singular[bi] = _ball_test(vals, w, grid, g * delta, log_thr)

    # strictly upper-triangular mask of center pairs far enough apart that the
    # sparseness property applies
    far = H_window.graph.far(rows, 3 * centers[0].n * L)

    s_pairs, r_pairs, examples = _far_flagged_pairs(
        singular, resonant, far, grid, centers, max_examples)
    return SparsenessReport(L, n_balls, nE, s_pairs, r_pairs,
                            tuple(examples), s_pairs + r_pairs > len(examples))


_SCAN_CHUNK = 256   # energy columns per matmul: float temporaries of n_balls * 2 KB


def _far_flagged_pairs(singular, resonant, far, grid, centers, max_examples):
    """Far flagged ball pairs: (singular count, resonant count, examples).

    The count at energy e is (S^T F S)_ee = sum_i S_ie (F S)_ie.  Examples
    list the pairs in the order energy, kind (singular first), i, j, up to
    ``max_examples``.
    """
    F = far.astype(float)
    counts = []
    for S in (singular, resonant):
        per_energy = np.empty(S.shape[1], dtype=np.int64)
        for lo in range(0, S.shape[1], _SCAN_CHUNK):
            # exact in float64: every partial sum is an integer <= n_balls^2
            block = S[:, lo:lo + _SCAN_CHUNK].astype(float)
            per_energy[lo:lo + _SCAN_CHUNK] = np.einsum(
                "ie,ie->e", block, F @ block).astype(np.int64)
        counts.append(per_energy)

    examples = []
    for ei in np.flatnonzero(counts[0] + counts[1]):
        for S, kind in ((singular, "singular-pair"), (resonant, "resonant-pair")):
            idx = np.flatnonzero(S[:, ei])
            rows, cols = np.nonzero(far[np.ix_(idx, idx)])
            for i, j in zip(idx[rows], idx[cols]):
                if len(examples) >= max_examples:
                    break
                examples.append(ScanViolation(
                    float(grid[ei]), centers[i], centers[j], kind))
        if len(examples) >= max_examples:
            break
    return int(counts[0].sum()), int(counts[1].sum()), examples


def nr_ns_premises(H_ball: FiniteHamiltonian, center, L: int, ell: int,
                   E: float, m: float, res_threshold: float):
    """Hypotheses of the bad-cluster implication: outer ball E-non-resonant
    and all singular ell-sub-balls huddled in one cluster of diameter <= 2 ell.

    Returns (premises_hold, outer_report); the implication itself (premises
    force the outer ball non-singular) is checked by the caller.
    """
    outer = classify_resonant(np.linalg.eigvalsh(H_ball.matrix), E, res_threshold)
    log_thr = singularity_threshold_log(ell, m, center.n, center.d)
    bad = [i for i, vals, w in _ball_table(H_ball, ell)
           if _ball_test(vals, w, [E], 0.0, log_thr)[4][0]]
    return outer.nonresonant and not H_ball.graph.far(bad, 2 * ell).any(), outer


# ---------------------------------------------------------------------------
# localization reports
# ---------------------------------------------------------------------------

def adaptive_noise_floor(eigenvalues, k: int) -> float:
    """Smallest trustworthy eigenvector amplitude for eigenpair k.

    Dense symmetric solvers leave entry noise of order machine epsilon times
    the spectral spread divided by the local gap; amplitudes below that are
    solver artifacts, not decay, so fits must ignore them.  A fixed base
    floor of 1e-14 is kept for well-conditioned cases.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    spread = float(vals.max() - vals.min())
    others = np.delete(vals, k)
    gap = float(np.min(np.abs(others - vals[k]))) if others.size else math.inf
    if gap == 0.0:
        return math.inf
    return max(1e-14, 32.0 * np.finfo(float).eps * spread / gap)


def _noise_floors(vals: np.ndarray) -> list:
    """``adaptive_noise_floor(vals, k)`` for every k of a non-empty spectrum, types
    included, from one pass over the sorted spectrum.

    Rounding is monotone, so the nearest other eigenvalue is a sorted neighbour:
    each gap is the smaller of the two neighbouring differences.
    """
    order = np.argsort(vals, kind="stable")
    step = np.diff(vals[order])
    gaps = np.empty_like(vals)
    gaps[order] = np.minimum(np.append(np.inf, step), np.append(step, np.inf))
    spread = float(vals.max() - vals.min())
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        formula = 32.0 * np.finfo(float).eps * spread / gaps
    return [math.inf if gap == 0.0 else f if f > 1e-14 else 1e-14
            for gap, f in zip(gaps.tolist(), formula)]


def _ols_fit(xs: np.ndarray, ys: np.ndarray):
    """Least-squares line through the points: (slope, intercept, R^2)."""
    coef = np.polyfit(xs, ys, 1)
    pred = np.polyval(coef, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return float(coef[0]), float(coef[1]), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


@dataclass(frozen=True)
class LocalizedState:
    k: int
    eigenvalue: float
    centers: tuple       # configurations attaining the sup norm
    peak_mass: float     # squared amplitude at the center
    decay_rate: float    # OLS slope of -log|psi| vs graph distance (nan if unfit)
    r_squared: float
    unimodal: bool       # single center carrying more than half the mass
    noise_floor: float


@dataclass(frozen=True)
class LocalizationReport:
    states: tuple
    bijection: bool      # unique centers, pairwise distinct, covering the domain
    fraction_unimodal: float
    min_peak_mass: float

    @property
    def all_unimodal(self) -> bool:
        return all(s.unimodal for s in self.states)


def localization_report(spec: Spectrum, domain) -> LocalizationReport:
    """Per-eigenfunction localization diagnostics plus the center bijection.

    Centers are the argmax set of |psi| up to a relative tie tolerance of
    1e-9; the decay rate is a least-squares fit of -log|psi(y)| against the
    in-domain graph distance from the main center, dropping amplitudes under
    the adaptive noise floor.  Every state is reduced in one array pass; only
    the fits run per state.
    """
    domain = tuple(domain)
    n = len(domain)
    if spec.eigenvectors.shape != (n, n) or np.shape(spec.eigenvalues) != (n,):
        raise ValueError("spectrum size does not match the domain")
    if not n:
        return LocalizationReport((), True, 0.0, 0.0)
    vals = np.asarray(spec.eigenvalues, dtype=float)
    psi = np.abs(spec.eigenvectors).T           # row k is |psi_k|
    mains = np.argmax(psi, axis=1)
    center = psi >= (np.max(psi, axis=1) * (1 - 1e-9))[:, None]
    cols = np.nonzero(center)[1].tolist()       # center positions, state by state
    bounds = [0, *np.cumsum(np.count_nonzero(center, axis=1)).tolist()]
    # Python's float pow, as for one scalar: numpy's array square can round differently
    peaks = [a ** 2 for a in psi[np.arange(n), mains].tolist()]
    floors = _noise_floors(vals)
    d_main = domain_graph(domain).distances[mains]   # row k: distances from psi_k's main center
    keep = (psi > np.asarray(floors)[:, None]) & (d_main >= 0)
    fitted = ((np.count_nonzero(keep, axis=1) >= 3)
              & (np.max(np.where(keep, d_main, -1), axis=1) > 0)).tolist()
    states = []
    for k, (lam, peak, floor) in enumerate(zip(vals.tolist(), peaks, floors)):
        centers = tuple(domain[i] for i in cols[bounds[k]:bounds[k + 1]])
        slope, r2 = math.nan, math.nan
        if fitted[k]:
            slope, _, r2 = _ols_fit(d_main[k, keep[k]].astype(float), -np.log(psi[k, keep[k]]))
        states.append(LocalizedState(k, lam, centers, peak, slope, r2,
                                     len(centers) == 1 and peak > 0.5, floor))
    singles = [s.centers[0] for s in states if len(s.centers) == 1]
    bijection = (len(singles) == n and len(set(singles)) == n)
    frac = sum(1 for s in states if s.unimodal) / n
    return LocalizationReport(tuple(states), bijection, frac, min(peaks))


# ---------------------------------------------------------------------------
# correlators and dynamical envelopes
# ---------------------------------------------------------------------------

def envelope_matrix(spec: Spectrum) -> np.ndarray:
    """Correlator envelope sum_z |psi_z(x) psi_z(y)| for all pairs at once.

    Dominates |<1_x| phi(H) |1_y>| for every test function with sup norm 1,
    and in particular every propagator magnitude.
    """
    a = np.abs(spec.eigenvectors)
    return a @ a.T


def propagator_excess(spec: Spectrum, times) -> float:
    """Worst-case |<x| e^{-itH} |y>| minus the envelope over sampled times;
    nonpositive (up to roundoff) if the envelope bound is honest."""
    env = envelope_matrix(spec)
    worst = -math.inf
    for t in np.atleast_1d(times):
        phase = np.exp(-1j * float(t) * spec.eigenvalues)
        prop = (spec.eigenvectors * phase) @ spec.eigenvectors.T
        worst = max(worst, float(np.max(np.abs(prop) - env)))
    return worst


@dataclass(frozen=True)
class EnvelopeFit:
    rate: float        # fitted decay exponent m'
    prefactor: float
    r_squared: float
    n_pairs: int


def envelope_decay_fit(spec: Spectrum, domain) -> EnvelopeFit:
    """Fit envelope(x,y) ~ C e^(-m' rho(x,y)) over all pairs, diagonal included.

    The diagonal entries equal 1 exactly (eigenbasis completeness) and anchor
    the fit at rho = 0.  Pairs with envelope below a floor are excluded; the
    floor is the solver noise for a state with a median-sized local
    gap, so entries contaminated by near-degenerate pairs drop out while the
    typical decay signal survives.
    """
    domain = tuple(domain)
    env = envelope_matrix(spec)
    dist = domain_graph(domain).distances
    n = len(domain)
    vals = spec.eigenvalues
    spread = float(vals.max() - vals.min()) if n > 1 else 1.0
    gaps = np.diff(np.sort(vals))
    gaps = gaps[gaps > 0]
    gap = float(np.median(gaps)) if gaps.size else 1.0
    floor = max(1e-13, 32 * n * np.finfo(float).eps * spread / gap)
    xs, ys = [], []
    for i in range(n):
        for j in range(i, n):
            if dist[i, j] >= 0 and env[i, j] > floor:
                xs.append(dist[i, j])
                ys.append(math.log(env[i, j]))
    if len(xs) < 3 or len(set(xs)) < 2:
        return EnvelopeFit(math.nan, math.nan, math.nan, len(xs))
    slope, intercept, r2 = _ols_fit(np.asarray(xs, dtype=float), np.asarray(ys))
    return EnvelopeFit(-slope, math.exp(intercept), r2, len(xs))


# ---------------------------------------------------------------------------
# piecewise constancy of the operator family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyReport:
    count: int
    bound: float
    grid_size: int
    quantum: float
    saturated: bool  # count hit the grid size: the grid is too coarse to trust


def equivalence_entropy_check(system, hull: pot.HaarHull, L: int, N_trunc: int,
                              grid_size: int = 10_000) -> EntropyReport:
    """Count distinct truncated operators over an omega grid for fixed theta.

    The kinetic and interaction parts never move with omega, so two phase
    points give the same operator exactly when the site-potential profiles
    over the relevant window agree; profiles are compared after quantizing
    at the truncation tail bound, and the count is checked against
    2^nu * L^(4A + 4A').
    """
    if L < 2:
        raise ValueError("need L >= 2")
    nu = system.nu
    half = L ** 4
    quantum = pot.tail_bound(N_trunc, hull.b)
    bound = 2.0 ** nu * float(L) ** (4 * system.A + 4 * system.A_prime)
    grid = np.repeat((np.arange(grid_size) + 0.5)[:, None] / grid_size, nu, axis=1)
    window = [()]
    for _ in range(system.d):
        window = [w + (s,) for w in window for s in range(-half, half + 1)]
    # one hull call per <= 2^18 phases; rounded quotients stay exact floats
    step = max(1, (1 << 18) // len(window))
    profiles = []
    for lo in range(0, grid_size, step):
        phases = np.stack([system.translate(grid[lo:lo + step], x) for x in window], axis=1)
        vals = hull.values(phases.reshape(-1, nu), N_trunc)
        profiles.append(np.round(vals / quantum).reshape(-1, len(window)))
    count = int(np.unique(np.concatenate(profiles), axis=0).shape[0])
    return EntropyReport(count, bound, grid_size, quantum, count >= grid_size)
