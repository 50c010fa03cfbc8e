"""Monte-Carlo estimation over amplitude fields: inter-spectral spacing
bounds, base-scale separation, bad-parameter measures, sample-mean
concentration, and the eigenvalue-shift mechanics of weak separation.

Every trial is a pure function of (base seed, trial index); reports carry
per-trial seeds and sha256 digests of the trial statistics so any trial can
be replayed bit-exactly.  Theoretical bounds are compared one-sided
(empirical <= bound) and evaluated on logarithms where they overflow.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import struct
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import potential as pot
from .configs import DomainGraph, _box_count, distances_within, weakly_separated
from .errors import SeparationError
from .operators import FiniteHamiltonian, Interaction, assemble, ball_operator, spectral_distance

_C5_ASSUMED = 1.0  # prefactor used in bound checks; a fitted value is reported


def trial_seed(base: int, index: int) -> int:
    """Derived 64-bit seed for one trial; independent across indices."""
    h = hashlib.blake2b(struct.pack("<qq", base, index), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def value_digest(values) -> str:
    """sha256 of the packed float64 payload; bit-exact replay comparator."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


class TrialRecord(NamedTuple):
    """One Monte-Carlo trial; serializes as ``[index, seed, digest]``."""

    index: int
    seed: int
    digest: str


class _JsonReport:
    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class McPlan(_JsonReport):
    """Trial count, base seed and grids; the scenario dict is provenance
    only (echoed into reports, never interpreted)."""

    trials: int
    seed: int
    s_grid: tuple = ()
    scenario: dict = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("need trials >= 0")
        if self.workers < 1:
            raise ValueError("need workers >= 1")

    def seeds(self):
        return [trial_seed(self.seed, t) for t in range(self.trials)]

    @classmethod
    def from_json(cls, data):
        return cls(int(data["trials"]), int(data["seed"]),
                   tuple(data.get("s_grid", ())), dict(data.get("scenario", {})),
                   int(data.get("workers", 1)))


def _run_trials(plan: McPlan, trial, *args):
    """Rows of ``trial(seed, *args)`` over the plan's seeds, with their records;
    a pool of min(workers, trials) spawned processes past one."""
    seeds = plan.seeds()
    argtuples = [(s,) + args for s in seeds]
    if plan.workers <= 1 or len(seeds) <= 1:
        rows = [trial(*a) for a in argtuples]
    else:
        with multiprocessing.get_context("spawn").Pool(min(plan.workers, len(seeds))) as pool:
            rows = pool.starmap(trial, argtuples)
    records = tuple(TrialRecord(t, s, value_digest(r))
                    for t, (s, r) in enumerate(zip(seeds, rows)))
    return rows, records


def _half_width(p_hat: float, n: int) -> float:
    """Two-sigma normal-approximation half width of a proportion."""
    if n <= 0:
        return math.inf
    return 2.0 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def omega_samples(system, L: int, n_adversarial: int, n_random: int, seed: int = 0):
    """Phase points for inf-over-omega surrogates: centers of the fine cover
    cubes (evenly thinned to n_adversarial) plus uniform draws.

    Any finite set under-approximates the true inf; reports should say which
    set was used.
    """
    from .torus import entropy_covers
    nu = system.nu
    rng = np.random.default_rng(np.random.PCG64(seed))
    rows = []
    if n_adversarial > 0 and L >= 2:
        r = entropy_covers(L, system.A, system.A_prime, nu).fine_radius
        per_axis = max(int(round(0.5 / r)), 1)
        idx = np.unique(np.linspace(0, per_axis - 1, n_adversarial).astype(int))
        for k in idx:
            rows.append(np.full(nu, (2 * k + 1) * r % 1.0))
    elif n_adversarial > 0:
        for k in range(n_adversarial):
            rows.append(np.full(nu, (k + 0.5) / n_adversarial))
    for _ in range(n_random):
        rows.append(rng.uniform(0.0, 1.0, nu))
    return np.asarray(rows)


# ---------------------------------------------------------------------------
# operator scaffolding shared by the trials
# ---------------------------------------------------------------------------

def ball_scaffold(center, L: int, interaction: Interaction = None,
                  convention: str = "laplacian", max_size: int = 20_000) -> FiniteHamiltonian:
    """The g = 0 radius-L :func:`ball_operator`, to which trials add their potential;
    raises ``BudgetExceededError`` past ``max_size`` configurations."""
    return ball_operator(center, L, None, 0.0, interaction, convention, max_size)


def _with_potential(scaffold: FiniteHamiltonian, hull, system, omega, g: float) -> np.ndarray:
    """Scaffold matrix plus g times the hull potential on the diagonal."""
    H = scaffold.matrix.copy()
    H[np.diag_indices(scaffold.n)] += g * pot.config_potentials(
        hull, system, omega, scaffold.domain)
    return H


# ---------------------------------------------------------------------------
# Wegner-type spacing bound
# ---------------------------------------------------------------------------

def wegner_trial(seed: int, system, omega, scaffold_x: FiniteHamiltonian,
                 scaffold_y: FiniteHamiltonian, g: float, b: float, n_hull: int):
    """Distance between the two ball spectra for one amplitude field."""
    return bad_measure_trial(seed, system, [omega], [scaffold_x, scaffold_y], [(0, 1)],
                             g, b, n_hull)


@dataclass(frozen=True)
class WegnerReport(_JsonReport):
    s_grid: tuple
    empirical: tuple
    half_widths: tuple
    log_bound: tuple          # natural log of the theoretical curve at C5 = 1
    holds: bool
    log_c5_fit: float         # largest log prefactor consistent with the data
    n_trials: int
    records: tuple
    plan: McPlan


def wegner_estimate(plan: McPlan, system, omega, center_x, center_y, L: int,
                    g: float, b: float, n_hull: int,
                    interaction: Interaction = None,
                    convention: str = "laplacian") -> WegnerReport:
    """Empirical CDF of the spacing dist(spectrum_x, spectrum_y) at g*s
    against the polynomial-in-L, s^(2/3) theoretical curve.

    The two balls must be weakly separated (witness from the configuration
    module); the bound's exponent grows like ln L so the curve is evaluated
    and compared in logs.
    """
    if center_x == center_y:
        raise SeparationError("identical ball centers")
    if weakly_separated(center_x, center_y, L) is None:
        raise SeparationError("the selected ball pair is not weakly separated")
    if not plan.s_grid:
        raise ValueError("plan.s_grid is empty")
    if any(s <= 0 for s in plan.s_grid):
        raise ValueError("s grid must be positive")
    sx = ball_scaffold(center_x, L, interaction, convention)
    sy = ball_scaffold(center_y, L, interaction, convention)
    rows, records = _run_trials(plan, wegner_trial, system, omega, sx, sy, g, b, n_hull)
    D = np.asarray([r[0] for r in rows])

    n_p, dim = center_x.n, center_x.d
    B = pot.growth_exponent(b, system.A)
    lnL = math.log(max(L, 2))
    log_pref = math.log(_C5_ASSUMED) + ((2 * n_p + 4) * dim + B * lnL) * lnL
    emp, hw, log_bnd, fits = [], [], [], []
    for s in plan.s_grid:
        p = float(np.mean(D <= g * s)) if D.size else 0.0
        emp.append(p)
        hw.append(_half_width(p, D.size))
        log_bnd.append(log_pref + (2.0 / 3.0) * math.log(s))
        if p > 0:
            fits.append(math.log(p) - (2.0 / 3.0) * math.log(s)
                        - ((2 * n_p + 4) * dim + B * lnL) * lnL)
    holds = all((p == 0.0) or (math.log(p) <= lb)
                for p, lb in zip(emp, log_bnd))
    log_c5 = max(fits) if fits else -math.inf
    return WegnerReport(tuple(plan.s_grid), tuple(emp), tuple(hw),
                        tuple(log_bnd), holds, log_c5, D.size, records, plan)


# ---------------------------------------------------------------------------
# base-scale separation of the diagonal potential
# ---------------------------------------------------------------------------

def sep_trial(seed: int, system, omegas, window, g: float, b: float,
              n_hull: int, N_trunc: int):
    """Per omega: (truncated, full) separation g*min-gap of the window's
    configuration potentials; 'full' means the deepest available truncation."""
    hull = pot.HaarHull(b, n_hull, pot.AmplitudeField(seed))
    out = np.empty((len(omegas), 2))
    for i, w in enumerate(omegas):
        for j, N in enumerate((N_trunc, None)):
            out[i, j] = g * pot.min_gap(pot.config_potentials(hull, system, w, window, N))
    return out


@dataclass(frozen=True)
class SepL0Report(_JsonReport):
    bad_fraction: float       # measure of {theta: full Sep < 4 g delta_0 at some omega}
    half_width: float
    implication_violations: int   # truncated >= 5 g delta_0 but full < 4 g delta_0
    threshold_full: float
    threshold_trunc: float
    guard_ratio: float        # worst-case 2*shift / (g delta_0), sharp tail bound
    n_trials: int
    n_omegas: int
    records: tuple
    plan: McPlan


def sep_l0_estimate(plan: McPlan, system, omegas, window, g: float, b: float,
                    n_hull: int, generation: int, delta0: float) -> SepL0Report:
    """Estimate the bad-theta measure for base-scale separation and verify
    the truncated-implies-full implication trial by trial.

    'Bad' means the deep potential separates by less than 4 g delta_0 at
    some sampled omega.  The implication (truncated Sep >= 5 g delta_0
    forces full Sep >= 4 g delta_0) must never fail; guard_ratio reports the
    worst-case perturbation 2 N g tail relative to g delta_0 using the sharp
    geometric tail, so a value < 1 certifies it a priori.
    """
    window = tuple(window)
    if len(window) < 2:
        raise ValueError("need at least two configurations to separate")
    if generation >= n_hull:
        raise ValueError("deep truncation must exceed the working generation")
    rows, records = _run_trials(plan, sep_trial, system, omegas, window, g, b,
                                n_hull, generation)
    thr_full = 4.0 * g * delta0
    thr_trunc = 5.0 * g * delta0
    bad = 0
    violations = 0
    for arr in rows:
        if np.any(arr[:, 1] < thr_full):
            bad += 1
        violations += int(np.any((arr[:, 0] >= thr_trunc) & (arr[:, 1] < thr_full)))
    frac = bad / len(rows) if rows else 0.0
    n_p = window[0].n
    shift = 2.0 * n_p * pot.tail_bound_sharp(generation, b)
    guard = shift / delta0 if delta0 > 0 else math.inf
    return SepL0Report(frac, _half_width(frac, len(rows)), violations,
                       thr_full, thr_trunc, guard, len(rows), len(omegas),
                       records, plan)


# ---------------------------------------------------------------------------
# bad-parameter measure across a window of ball pairs
# ---------------------------------------------------------------------------

def bad_measure_trial(seed: int, system, omegas, scaffolds, pairs, g: float,
                      b: float, n_hull: int):
    """Per omega: min over the selected weakly separated pairs of the
    spectral distance between the two ball operators."""
    hull = pot.HaarHull(b, n_hull, pot.AmplitudeField(seed))
    out = np.empty(len(omegas))
    for i, w in enumerate(omegas):
        spectra = [np.linalg.eigvalsh(_with_potential(sc, hull, system, w, g))
                   for sc in scaffolds]
        out[i] = min(spectral_distance(spectra[a], spectra[bx]) for a, bx in pairs)
    return out


@dataclass(frozen=True)
class BadMeasureReport(_JsonReport):
    level_L: int
    bad_fraction: float
    bound: float              # L^(-bA)
    half_width: float
    holds: bool               # fraction <= bound + half width (one-sided)
    threshold: float          # 4 g delta_j
    n_pairs: int
    n_trials: int
    records: tuple
    plan: McPlan


def theta_bad_measure(plan: McPlan, system, omegas, window_center, window_radius: int,
                      L: int, g: float, delta: float, b: float, n_hull: int,
                      interaction: Interaction = None,
                      convention: str = "laplacian") -> BadMeasureReport:
    """Fraction of amplitude fields whose worst (over sampled omega) minimal
    pair spacing falls under 4 g delta, against the L^(-bA) target.

    Ball centers come from the window (its members thinned evenly to 4000,
    then to 24 centers), pairs are those farther than 3NL apart in the
    configuration graph (thinned evenly to 60); the window is
    a capped stand-in for the scale's full L^4 region, and the omega grid
    under-approximates the true inf, which the report does not hide.
    """
    members = sorted(distances_within(window_center, window_radius))
    if len(members) > 4000:
        members = members[::max(1, len(members) // 4000)][:4000]
    n_p = window_center.n
    step = max(1, len(members) // 24)
    centers = members[::step][:24]
    far_pairs = np.argwhere(DomainGraph(centers).far(range(len(centers)), 3 * n_p * L)).tolist()
    if not far_pairs:
        raise SeparationError("no sufficiently distant ball pairs in the window")
    if len(far_pairs) > 60:
        far_pairs = far_pairs[::max(1, len(far_pairs) // 60)][:60]
    used = sorted({i for p in far_pairs for i in p})
    remap = {i: k for k, i in enumerate(used)}
    scaffolds = [ball_scaffold(centers[i], L, interaction, convention) for i in used]
    pairs = [(remap[a], remap[bx]) for a, bx in far_pairs]

    rows, records = _run_trials(plan, bad_measure_trial, system, omegas, scaffolds,
                                pairs, g, b, n_hull)
    thr = 4.0 * g * delta
    bad = sum(1 for arr in rows if float(np.min(arr)) < thr)
    frac = bad / len(rows) if rows else 0.0
    hw = _half_width(frac, len(rows))
    bound = float(L) ** (-b * system.A) if L >= 1 else 2.0 ** (-b * system.A)
    return BadMeasureReport(L, frac, bound, hw, frac <= bound + hw, thr,
                            len(pairs), len(rows), records, plan)


# ---------------------------------------------------------------------------
# sample-mean anti-concentration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RcmCell:
    t: float
    eps: float
    empirical: float
    bound: float
    half_width: float
    holds: bool


@dataclass(frozen=True)
class RcmReport(_JsonReport):
    cells: tuple
    q_size: int
    interval: float
    n_bins: int
    bin_diameter: float       # largest oscillation-bin width
    sensitivity: float        # max |exceedance shift| when bins are halved
    digest: str
    plan: McPlan

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.cells)


def _nu_by_bins(means, osc, t_grid, n_bins):
    """Per oscillation bin, the sliding-window estimate of the largest
    conditional probability that the sample mean lands in a length-t window."""
    order = np.argsort(osc, kind="stable")
    edges = np.linspace(0, len(means), n_bins + 1).astype(int)
    edges = np.unique(edges)
    nu = np.zeros((len(edges) - 1, len(t_grid)))
    counts = np.zeros(len(edges) - 1, dtype=int)
    widths = []
    for bi in range(len(edges) - 1):
        sel = order[edges[bi]:edges[bi + 1]]
        counts[bi] = sel.size
        if sel.size == 0:
            continue
        widths.append(float(osc[sel].max() - osc[sel].min()))
        v = np.sort(means[sel])
        for ti, t in enumerate(t_grid):
            hi = np.searchsorted(v, v + t, side="right")
            nu[bi, ti] = float(np.max(hi - np.arange(v.size))) / v.size
    return nu, counts, (max(widths) if widths else 0.0)


def rcm_check(plan: McPlan, q_size: int, interval: float, t_grid, eps_grid,
              n_bins: int = 100) -> RcmReport:
    """Concentration of the sample mean of q_size iid uniforms on [0, interval],
    conditioned on the fluctuation vector via oscillation binning.

    The conditional law of the mean given the fluctuations is uniform on an
    interval of length (interval - oscillation), so the oscillation is the
    whole story and binning on it is exact in the limit; the checked claim is
    P{nu_Q(t) > t/(interval*eps)} <= q_size^2 * eps^2, one-sided with a
    two-sigma allowance.
    """
    if q_size < 1:
        raise ValueError("need at least one site in the sample mean")
    if interval <= 0:
        raise ValueError("need a positive interval length")
    if plan.trials < max(10 * n_bins, 100):
        raise ValueError("too few trials for the requested bin count")
    rng = np.random.default_rng(np.random.PCG64(plan.seed))
    xi = rng.uniform(0.0, interval, size=(plan.trials, q_size))
    means = xi.mean(axis=1)
    osc = xi.max(axis=1) - xi.min(axis=1)
    digest = value_digest(xi)

    t_grid = tuple(float(t) for t in t_grid)
    nu, counts, diam = _nu_by_bins(means, osc, t_grid, n_bins)
    nu_half, counts_half, _ = _nu_by_bins(means, osc, t_grid, max(2, n_bins // 2))

    cells = []
    sensitivity = 0.0
    for ti, t in enumerate(t_grid):
        for eps in eps_grid:
            eps = float(eps)
            thr = t / (interval * eps)
            p = float(counts[nu[:, ti] > thr].sum()) / plan.trials
            p_half = float(counts_half[nu_half[:, ti] > thr].sum()) / plan.trials
            sensitivity = max(sensitivity, abs(p - p_half))
            bound = q_size ** 2 * eps ** 2
            hw = _half_width(p, plan.trials)
            cells.append(RcmCell(t, eps, p, bound, hw, p <= bound + hw))
    return RcmReport(tuple(cells), q_size, interval, n_bins, diam,
                     sensitivity, digest, plan)


# ---------------------------------------------------------------------------
# eigenvalue shifts under a witness-box bump
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvcReport:
    n_inner: int            # particles of the inner-role ball center in the box
    n_other: int
    exact: bool             # L = 0 path: shifts checked exactly
    max_abs_error: float    # exact path: worst |shift - n g c|
    max_rel_deviation: float  # perturbative path: worst relative FD mismatch
    holds: bool


def evc_shift_check(domain_x, domain_y, potential, g: float, witness, c: float,
                    interaction: Interaction = None,
                    convention: str = "laplacian") -> EvcReport:
    """Bump the potential by c on the witness box and watch the spectra move.

    Singleton domains shift exactly by (particles in box) * g * c; larger
    balls are checked through the finite-difference eigenvalue derivative
    against first-order perturbation theory, within 5 % relatively.
    """
    lower, upper = witness.lower, witness.upper

    def bumped(cfg):
        base = potential(cfg) if callable(potential) else potential[cfg]
        return base + c * _box_count(cfg, lower, upper)

    reports = []
    for dom in (tuple(domain_x), tuple(domain_y)):
        H0 = assemble(dom, potential, g, interaction, convention)
        H1 = assemble(dom, bumped, g, interaction, convention)
        counts = np.asarray([_box_count(cfg, lower, upper) for cfg in dom],
                            dtype=float)
        if len(dom) == 1:
            shift = H1.matrix[0, 0] - H0.matrix[0, 0]
            reports.append(("exact", abs(shift - g * c * counts[0])))
        elif c == 0.0:
            vals0 = np.linalg.eigvalsh(H0.matrix)
            vals1 = np.linalg.eigvalsh(H1.matrix)
            reports.append(("exact", float(np.max(np.abs(vals1 - vals0)))))
        else:
            vals0, vecs0 = np.linalg.eigh(H0.matrix)
            vals1 = np.linalg.eigvalsh(H1.matrix)
            fd = (vals1 - vals0) / c
            first_order = g * np.einsum("ik,i,ik->k", vecs0, counts, vecs0)
            # states the bump never touches have first_order = 0 but carry
            # finite-difference noise ~ eps ||H|| / c; keep the comparison
            # scale above both that and the natural slope unit g
            noise = 64 * np.finfo(float).eps * np.abs(vals0).max() / abs(c)
            scale = np.maximum(np.abs(first_order),
                               max(1e-6 * abs(g), noise, 1e-300))
            reports.append(("fd", float(np.max(np.abs(fd - first_order) / scale))))
    exact = all(kind == "exact" for kind, _ in reports)
    n_x = _box_count(tuple(domain_x)[0], lower, upper)
    n_y = _box_count(tuple(domain_y)[0], lower, upper)
    n_inner, n_other = max(n_x, n_y), min(n_x, n_y)
    worst = max(err for _, err in reports)
    if exact:
        holds = worst <= 1e-9 * max(abs(g * c), 1.0) and n_inner > n_other
        return EvcReport(n_inner, n_other, True, worst, 0.0, holds)
    holds = worst <= 0.05 and n_inner > n_other
    return EvcReport(n_inner, n_other, False, 0.0, worst, holds)
