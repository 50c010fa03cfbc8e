"""Multi-scale machinery: scale sequences, Green functions, resonance and
singularity classification, dominated-function bounds, scans and reports.

Every resonance and singularity verdict on a ball, in the scan and the
classifiers alike, comes from one per-ball test on its eigenpairs, ``_ball_test``,
or from its one-pass form for radius-0 balls, ``_center_flags``.  A sparseness
scan works in array passes per scale: one flag pass at radius 0, stacked ball
eigensolves at larger radii, and far pairs counted once per run of equal flag
columns.

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
from .configs import FermiConfig, _read_only, domain_graph, matching_distances
from .configs import neighbors  # noqa: F401  (msa.neighbors stays importable)
from .errors import BudgetExceededError, NearResonantError
from .operators import FiniteHamiltonian, Spectrum, _potential_values, diagonalize


def gamma(m: float, L: int) -> float:
    """Decay exponent target: m(1 + L^(-1/8))L for L >= 1, 2m at L = 0.

    Satisfies mL < gamma < 2mL for every L >= 1.
    """
    if not 0 < m < math.inf:     # a NaN m would make every threshold NaN
        raise ValueError(f"need finite m > 0, got {m!r}")
    _check_scales(L=L)
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

    Refuses a NaN or infinite energy, and energies closer to the spectrum
    than 1e-12 times the spectral radius since the columns are then garbage.
    """
    if not math.isfinite(E):
        raise ValueError(f"energy E must be finite, got {E!r}")
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
    pole or where the sum is NaN; and the flags resonant (dist not at least
    ``res_threshold``, so a NaN dist is resonant) and singular (log max above
    ``log_threshold``).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diff = vals[:, None] - np.asarray(energies, dtype=float)[None, :]
        dist = np.min(np.abs(diff), axis=0)
        size = np.abs(weights @ (1.0 / diff))
        log_worst = np.log(np.max(size, axis=0))
    log_worst[np.isnan(log_worst)] = np.inf
    return dist, size, log_worst, ~(dist >= res_threshold), log_worst > log_threshold


def _ball_spectrum(matrix: np.ndarray, center: int, boundary):
    """Eigenvalues of a ball's matrix and its ``_ball_test`` weights over its boundary rows."""
    vals, vecs = np.linalg.eigh(matrix)
    return vals, vecs[boundary] * vecs[center]


def _center_flags(diagonal: np.ndarray, energies: np.ndarray, res_threshold: float,
                  log_threshold: float):
    """``_ball_test``'s resonant and singular flags of every radius-0 ball in one
    pass, one row per ball.  A radius-0 ball is its center, with eigenvalue its
    diagonal entry a and weight 1, so dist is |a - E| and |G| is |1 / (a - E)|."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diff = diagonal[:, None] - energies[None, :]
        log_worst = np.log(np.abs(1.0 / diff))
    log_worst[np.isnan(log_worst)] = np.inf
    return ~(np.abs(diff) >= res_threshold), log_worst > log_threshold


_EIGH_CHUNK_BYTES = 1 << 22   # working bytes per stacked eigh call (see _ball_table)


def _ball_table(H: FiniteHamiltonian, L: int) -> list:
    """``(center position, eigenvalues, weights)`` for each radius-L ball of
    H's domain over its inner boundary, in ``DomainGraph.balls`` order.

    At L >= 1 the balls are grouped by size, and each group is diagonalized by
    stacked ``eigh`` calls, with the inner-boundary masks of a chunk from one
    ``DomainGraph.boundary`` pass.  A chunk of k-member balls takes about
    16 k^2 bytes per ball for its matrices and eigenvectors and len(domain) + 1
    for its membership row, at most ``_EIGH_CHUNK_BYTES`` in all (or one ball).
    A stacked ``eigh`` runs LAPACK on each matrix as a call on that matrix
    alone does, so every entry has the bits ``_ball_spectrum`` gives."""
    graph = H.graph
    balls = list(graph.balls(L))
    if not L:   # a radius-0 ball is its center: eigh of [[a]] gives ([a], [[1.0]]),
        # and the center is its inner boundary (every configuration has a lattice neighbour)
        diagonal = H.matrix.diagonal().copy()
        return [(i, diagonal[i:i + 1], np.ones((1, 1))) for i, _ in balls]
    by_size = {}
    for b, (_, idx) in enumerate(balls):
        by_size.setdefault(idx.size, []).append(b)
    table = [None] * len(balls)
    for k, group in by_size.items():
        step = max(1, _EIGH_CHUNK_BYTES // (16 * k * k + len(H.domain) + 1))
        for lo in range(0, len(group), step):
            chunk = group[lo:lo + step]
            centers = np.asarray([balls[b][0] for b in chunk])
            idxs = np.stack([balls[b][1] for b in chunk])
            vals, vecs = np.linalg.eigh(H.matrix[idxs[:, :, None], idxs[:, None, :]])
            # each ball's eigenvector row at its center, the member equal to it
            at_center = vecs[np.arange(len(chunk)), np.argmax(idxs == centers[:, None], axis=1)]
            for b, i, v, vec, c, mask in zip(chunk, centers.tolist(), vals, vecs, at_center,
                                             graph.boundary(idxs)):
                table[b] = (i, v, vec[mask] * c)
    return table


def classify_resonant(eigenvalues, E: float, threshold: float) -> ResonanceReport:
    """Non-resonant iff dist(spectrum, E) >= threshold (>= is the convention);
    a NaN distance (an infinite eigenvalue at an infinite E) is resonant.

    ``threshold`` is typically g * delta_j of the working scale level; it is
    a parameter because the literature normalizes it more than one way.
    """
    if not 0 <= threshold < math.inf:   # an infinite threshold reads every energy resonant
        raise ValueError(f"need a finite resonance threshold >= 0, got {threshold}")
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
    _check_scales(L=L)
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
    """Validated |f| as an array in domain order, and the checked neighbourhoods
    ``(checked, balls, table)`` of (center, L, ell) on the domain's graph.

    The neighbourhoods depend only on the graph and the key (center, L, ell),
    so they are built once by :func:`_neighbourhoods` and kept in the graph's
    ``dominated`` slot for its most recent key; another key replaces them.
    A non-finite |f| is refused: NaN would make a ball max depend on the
    order of its members, and inf would make every ball that holds it
    vacuously dominated."""
    if not 0.0 < q < 1.0:
        raise ValueError("need 0 < q < 1")
    _check_scales(L=L, ell=ell)
    graph = domain_graph(tuple(domain))
    fv = np.abs(_potential_values(graph.domain, f))
    if not np.isfinite(fv).all():
        raise ValueError("the function must be finite on the domain")
    key = (center, L, ell)
    if graph.dominated is None or graph.dominated[0] != key:
        graph.dominated = (key, *_neighbourhoods(graph, center, L, ell))
    return fv, graph.dominated[1:]


def _neighbourhoods(graph, center, L: int, ell: int) -> tuple:
    """``(checked, balls, table)`` of the members x with rho(center, x) <= 2L - ell
    (full lattice): their positions; per x, (x, a getter of |f| on its closed
    (ell+1)-ball as a tuple); and per x, one row of the ball's members in
    ascending domain order, padded with x itself to the widest ball.

    One array pass over the metric rows of the checked points takes their ball
    entries in row order and cuts them per point.  x lies in its own ball;
    its getter names it once more, so a one-member ball gives a tuple too, and
    the table has at least one column, so with no point checked it is (0, 1)
    and a max along its rows reduces no empty row.  The getters share one int
    per member position, so each holds one pointer per ball member."""
    row = matching_distances(np.asarray([center.sites]), graph.sites)[0]
    xs = np.flatnonzero(row <= 2 * L - ell)
    rows, ys = np.nonzero(graph.metric[xs] <= ell + 1)
    cuts = np.searchsorted(rows, np.arange(len(xs) + 1))
    table = np.repeat(xs[:, None], np.diff(cuts).max(initial=1), axis=1)
    table[rows, np.arange(len(ys)) - cuts[rows]] = ys
    positions = list(range(len(graph.domain)))
    ys, cuts = list(map(positions.__getitem__, ys.tolist())), cuts.tolist()
    balls = tuple((positions[x], itemgetter(positions[x], *ys[a:b]))
                  for x, a, b in zip(xs.tolist(), cuts, cuts[1:]))
    return _read_only(xs), balls, _read_only(table)


def _clip(fv: list, balls: tuple, q: float) -> bool:
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
    ball maxima are taken inside the domain, in one array pass over the padded
    neighbourhood table the domain's graph keeps for (center, L, ell) (see
    :func:`_dominated_setup`).  It gives the bits of a clipping sweep: a max
    is exact, q * max is one multiply either way, and nothing moves before a
    sweep's first violation.
    """
    fv, (xs, _, table) = _dominated_setup(f, domain, center, L, ell, q)
    return not (fv[xs] > q * fv[table].max(axis=1)).any()


def _check_scales(**scales):
    """Refuse a negative scale (L, ell), naming it."""
    for name, value in scales.items():
        if value < 0:
            raise ValueError(f"need {name} >= 0, got {value}")


def dominated_bound(L: int, ell: int, q: float, M: float) -> float:
    """Center-value bound q^(floor((L+1)/(ell+1))) * M for dominated functions."""
    if not 0.0 < q < 1.0:
        raise ValueError("need 0 < q < 1")
    _check_scales(L=L, ell=ell)
    return q ** ((L + 1) // (ell + 1)) * M


_SWEEPS = 64   # clipping sweeps force_dominated makes before it gives up


def force_dominated(f, domain, center, L: int, ell: int, q: float):
    """Largest dominated function below |f|: sweep x in the checked region,
    clipping f(x) to q times its (ell+1)-ball max, until stable.  ``f`` is
    taken as in :func:`dominated_check` and must be finite.

    Used to manufacture dominated test functions from arbitrary profiles;
    the result passes dominated_check by construction (it may be all zero).
    With every member checked, the maximum lies in its own ball: only 0 is left.
    The sweeps read the ball getters the domain's graph keeps for
    (center, L, ell), so a loop over profiles on one key builds them once.
    """
    domain = tuple(domain)
    fv, (xs, balls, _) = _dominated_setup(f, domain, center, L, ell, q)
    if len(xs) == len(fv):
        return dict.fromkeys(domain, 0.0)
    fv = fv.tolist()
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

    Every radius-L ball fully contained in the window is classified, at each
    energy of a grid of all sub-ball eigenvalues plus midpoints, as
    (E,m)-singular or not and as E-resonant (dist < g*delta).  A pair
    of singular (or resonant) balls whose centers are farther than 3NL apart
    in the configuration graph is a violation; localization theory says a
    clean window carries at most one bad cluster per energy.

    Each scale works in array passes.  At L = 0 every ball is its center and
    one pass over the diagonal-minus-grid array flags them all
    (``_center_flags``).  At L >= 1 the balls are diagonalized by stacked
    eigensolves (``_ball_table``) and each is classified by ``_ball_test``.

    With S the (balls x energies) flag matrix of one kind and F the strictly
    upper-triangular mask of far center pairs, the violations at each energy
    are diag(S^T F S).  Neighbouring energies often share their flag column,
    so the count is computed once per run of equal columns, one chunk of runs
    at a time, as matmuls in float64 that are exact for these integer counts.
    ``flop_budget`` bounds the eigenvector contractions plus the
    n_balls^2 * n_energies pair count and is checked before the flag
    matrices are allocated.  ``L`` must be at least 0, the resonance width
    g*delta finite and at least 0 (so g and delta are finite), ``energy_cap``
    at least 1 and ``max_examples`` at least 0.
    """
    _check_scales(L=L)
    if not 0 <= g * delta < math.inf:   # NaN or inf flags every ball, < 0 none
        raise ValueError(f"need a finite resonance width g*delta >= 0, got g = {g}, "
                         f"delta = {delta}")
    if energy_cap < 1:
        raise ValueError(f"need energy_cap >= 1, got {energy_cap}")
    if max_examples < 0:
        raise ValueError(f"need max_examples >= 0, got {max_examples}")
    table = _ball_table(H_window, L)
    if not table:
        return SparsenessReport(L, 0, 0, 0, 0, (), False)
    rows, spectra, weights = zip(*table)
    centers = [H_window.domain[i] for i in rows]

    eigenvalues = np.concatenate(spectra)
    grid = np.unique(eigenvalues)
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
    if L:
        singular = np.zeros((n_balls, nE), dtype=bool)
        resonant = np.zeros((n_balls, nE), dtype=bool)
        for bi, (vals, w) in enumerate(zip(spectra, weights)):
            _, _, _, resonant[bi], singular[bi] = _ball_test(vals, w, grid, g * delta, log_thr)
    else:   # one eigenvalue per ball: the concatenated spectra are the diagonal
        resonant, singular = _center_flags(eigenvalues, grid, g * delta, log_thr)

    # strictly upper-triangular mask of center pairs far enough apart that the
    # sparseness property applies
    far = H_window.graph.far(rows, 3 * centers[0].n * L)

    s_pairs, r_pairs, examples = _far_flagged_pairs(
        singular, resonant, far, grid, centers, max_examples)
    return SparsenessReport(L, n_balls, nE, s_pairs, r_pairs,
                            tuple(examples), s_pairs + r_pairs > len(examples))


_SCAN_CHUNK = 256   # flag columns per matmul: float temporaries of n_balls * 2 KB


def _run_starts(S: np.ndarray) -> np.ndarray:
    """The first column of each run of equal neighbouring columns of S."""
    change = np.ones(S.shape[1], dtype=bool)
    change[1:] = (S[:, 1:] != S[:, :-1]).any(axis=0)
    return np.flatnonzero(change)


def _far_flagged_pairs(singular, resonant, far, grid, centers, max_examples):
    """Far flagged ball pairs: (singular count, resonant count, examples).

    The count at energy e is (S^T F S)_ee = sum_i S_ie (F S)_ie.  It depends
    on column e of S only, so it is computed for the first column of each run
    of equal columns and repeated over the run.  Examples list the pairs in the
    order energy, kind (singular first), i, j, up to ``max_examples``.
    """
    F = far.astype(float)
    counts = []
    for S in (singular, resonant):
        starts = _run_starts(S)
        firsts = S[:, starts]
        per_run = np.empty(starts.size, dtype=np.int64)
        for lo in range(0, starts.size, _SCAN_CHUNK):
            # exact in float64: every partial sum is an integer <= n_balls^2
            block = firsts[:, lo:lo + _SCAN_CHUNK].astype(float)
            per_run[lo:lo + _SCAN_CHUNK] = np.einsum(
                "ie,ie->e", block, F @ block).astype(np.int64)
        counts.append(np.repeat(per_run, np.diff(starts, append=S.shape[1])))

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
    _check_scales(L=L, ell=ell)
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


def _ols_fits(X: np.ndarray, Y: np.ndarray):
    """Least-squares lines through the rows of the (G, m) point arrays ``X``
    and ``Y``: (slopes, intercepts, R^2), three (G,) arrays.

    Each row keeps the bits of ``np.polyfit(x, y, 1)``, of ``np.polyval`` on
    its coefficients, and of 1-D ``np.sum`` for the R^2 sums; every reduction
    is written to match theirs:

    - polyfit scales its (m, 2) Vandermonde matrix by column norms summed
      over axis 0, a left fold over the rows; ``np.add.accumulate`` along
      each row is that fold for any G (a sum over axis 0 of the (m, G)
      transpose folds too, but turns pairwise when G = 1).  The ones
      column's norm is sqrt(m).
    - ``np.linalg.lstsq`` refuses a stack, and a closed form rounds
      otherwise, so each row keeps polyfit's own call: the scaled matrix,
      ``y + 0.0`` (which turns -0.0 into +0.0) and rcond = m eps.
    - Predictions follow polyval's Horner steps, (0 x + c0) x + c1.
    - The mean and the residual sums are row sums along axis 1 of a
      C-contiguous array, which pair up as 1-D ``np.sum`` does
      (``np.add.reduceat`` does not).

    Every row must hold two distinct x values: polyfit's rank warning is
    not raised.
    """
    G, m = X.shape
    X = X + 0.0
    col = np.sqrt(np.add.accumulate(X * X, axis=1)[:, -1])
    ones = math.sqrt(m)
    lhs = np.empty((G, m, 2))
    lhs[:, :, 0] = X / col[:, None]
    lhs[:, :, 1] = 1.0 / ones
    rhs = Y + 0.0
    rcond = m * np.finfo(float).eps
    coef = np.array([np.linalg.lstsq(lhs[g], rhs[g], rcond)[0] for g in range(G)])
    slopes = coef[:, 0] / col
    intercepts = coef[:, 1] / ones
    pred = (0.0 * X + slopes[:, None]) * X + intercepts[:, None]
    ss_res = ((Y - pred) ** 2).sum(axis=1)
    ss_tot = ((Y - (Y.sum(axis=1) / m)[:, None]) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot > 0, 1.0 - ss_res / ss_tot, 1.0)
    return slopes, intercepts, r2


def _check_spectrum(spec: Spectrum, n: int):
    """Refuse a spectrum that is not n eigenpairs of finite numbers."""
    if spec.eigenvectors.shape != (n, n) or np.shape(spec.eigenvalues) != (n,):
        raise ValueError("spectrum size does not match the domain")
    if not (np.isfinite(spec.eigenvalues).all() and np.isfinite(spec.eigenvectors).all()):
        raise ValueError("spectrum holds a non-finite eigenvalue or eigenvector entry")


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
    the adaptive noise floor.  Every state is reduced in one array pass, and
    the fitted states in one ``_ols_fits`` pass per kept-point count; only the
    line solves run per state.  A non-finite spectrum is refused.
    """
    domain = tuple(domain)
    n = len(domain)
    _check_spectrum(spec, n)
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
    counts = np.count_nonzero(keep, axis=1)
    fitted = (counts >= 3) & (np.max(np.where(keep, d_main, -1), axis=1) > 0)
    slopes, r2s = np.full(n, math.nan), np.full(n, math.nan)
    for m in sorted(set(counts[fitted].tolist())):   # rows of m kept points each
        rows = np.flatnonzero(fitted & (counts == m))
        sel = keep[rows]
        slopes[rows], _, r2s[rows] = _ols_fits(d_main[rows][sel].reshape(-1, m).astype(float),
                                               -np.log(psi[rows][sel]).reshape(-1, m))
    states = []
    for k, (lam, peak, floor, slope, r2) in enumerate(zip(vals.tolist(), peaks, floors,
                                                           slopes.tolist(), r2s.tolist())):
        centers = tuple(domain[i] for i in cols[bounds[k]:bounds[k + 1]])
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
    typical decay signal survives.  A spectrum of another size than the
    domain, or with a non-finite entry, is refused.
    """
    domain = tuple(domain)
    n = len(domain)
    _check_spectrum(spec, n)
    env = envelope_matrix(spec)
    dist = domain_graph(domain).distances
    vals = spec.eigenvalues
    spread = float(vals.max() - vals.min()) if n > 1 else 1.0
    gaps = np.diff(np.sort(vals))
    gaps = gaps[gaps > 0]
    gap = float(np.median(gaps)) if gaps.size else 1.0
    floor = max(1e-13, 32 * n * np.finfo(float).eps * spread / gap)
    # the pairs i <= j in row-major order; math.log, as np.log may round otherwise
    upper = np.triu_indices(n)
    rho, envelope = dist[upper], env[upper]
    keep = (rho >= 0) & (envelope > floor)
    xs = rho[keep]
    if xs.size < 3 or (xs == xs[0]).all():
        return EnvelopeFit(math.nan, math.nan, math.nan, int(xs.size))
    ys = [math.log(v) for v in envelope[keep].tolist()]
    (slope,), (intercept,), (r2,) = (a.tolist() for a in _ols_fits(
        xs[None].astype(float), np.asarray([ys])))
    return EnvelopeFit(-slope, math.exp(intercept), r2, int(xs.size))


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


def equivalence_entropy_check(system, hull: pot.HaarHull, L: int,
                              grid_size: int = 10_000) -> EntropyReport:
    """Count distinct truncated operators over an omega grid for fixed theta.

    The truncation is the hull's depth.  The kinetic and interaction parts
    never move with omega, so two phase points give the same operator
    exactly when the site-potential profiles over the relevant window agree;
    profiles are compared after quantizing at the tail bound past the hull's
    depth, and the count is checked against 2^nu * L^(4A + 4A').
    """
    if L < 2:
        raise ValueError("need L >= 2")
    nu = system.nu
    half = L ** 4
    quantum = pot.tail_bound(hull.n_max, hull.b)
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
        vals = hull.values(phases.reshape(-1, nu))
        profiles.append(np.round(vals / quantum).reshape(-1, len(window)))
    count = int(np.unique(np.concatenate(profiles), axis=0).shape[0])
    return EntropyReport(count, bound, grid_size, quantum, count >= grid_size)
