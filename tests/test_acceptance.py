"""Acceptance suite: one test per headline criterion, each printing a single
PASS/FAIL line through the conftest recorder.

Small instances are checked against exact oracles (brute-force graph
enumeration, rational arithmetic, free-spectrum closed forms); the
strong-disorder localization claims are checked empirically on windows where
the separation threshold can actually be cleared in double precision.
"""

import math
import time
from fractions import Fraction

import numpy as np
from conftest import record_criterion
from scipy import stats

from andlab.configs import (
    FermiConfig,
    ball,
    boundaries,
    box_configs,
    distances_within,
    neighbors,
    weakly_separated,
)
from andlab.msa import (
    dominated_bound,
    dominated_check,
    eigenfunction_gre_defect,
    envelope_decay_fit,
    equivalence_entropy_check,
    force_dominated,
    gre_defect,
    localization_report,
    propagator_excess,
)
from andlab.operators import Interaction, assemble, covariance_deviation, diagonalize
from andlab.potential import (
    AmplitudeField,
    HaarHull,
    config_potentials,
    min_gap,
    tail_bound,
    tail_bound_sharp,
)
from andlab.torus import ShiftSystem, preset_frequencies
from andlab.wegner import (
    McPlan,
    ball_scaffold,
    rcm_check,
    trial_seed,
    value_digest,
    wegner_estimate,
    wegner_trial,
)


def golden_system():
    return ShiftSystem(preset_frequencies("golden", 1, 1))


def matching_1d(x, y):
    return sum(abs(a[0] - b[0]) for a, b in zip(x.sites, y.sites))


def brute_neighbors(x):
    out = set()
    occupied = set(x.sites)
    for s in x.sites:
        for axis in range(len(s)):
            for step in (-1, 1):
                t = list(s)
                t[axis] += step
                t = tuple(t)
                if t in occupied:
                    continue
                out.add(FermiConfig.make(
                    [q for q in x.sites if q != s] + [t]))
    return out


def strong_disorder_run(seed, om, margin=1.05, sites=13):
    """Window operator with g scaled so the measured separation clears the
    unimodality threshold 16 N d e^(4m) by the given margin (N=2, d=1, m=1)."""
    sys_ = golden_system()
    dom = box_configs(2, (0,), (sites,))
    hull = HaarHull(0.5, 7, AmplitudeField(seed))
    omega = np.array([om])
    vals = config_potentials(hull, sys_, omega, dom)
    sep = min_gap(vals)
    threshold = 16 * 2 * 1 * math.exp(4.0)
    g = margin * threshold / sep
    return assemble(dom, potential=vals, g=g), dom, g * sep >= threshold


# ---------------------------------------------------------------------------
# 1. graph oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_01_graph_oracle_equivalence():
    t0 = time.perf_counter()
    window = box_configs(2, (0,), (11,))
    superset = box_configs(2, (-4,), (15,))
    failures = 0
    for c in window:
        got = distances_within(c, 3)
        want = {z: matching_1d(c, z) for z in superset if matching_1d(c, z) <= 3}
        failures += got != want
        failures += set(neighbors(c)) != brute_neighbors(c)
        members = ball(c, 2).members
        mset = set(members)
        inner, outer, edges = boundaries(members)
        brute_edges = {(a, b) for a in members
                       for b in brute_neighbors(a) if b not in mset}
        failures += set(edges) != brute_edges
        failures += inner != frozenset(a for a, _ in brute_edges)
        failures += outer != frozenset(b for _, b in brute_edges)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 5.0
    assert record_criterion(
        1, ok, "BFS distances, neighbors and boundaries match brute force "
        f"on all {len(window)} radius-3 balls ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 2. weak separation beyond 3NL
# ---------------------------------------------------------------------------

def test_criterion_02_weak_separation_exhaustive():
    t0 = time.perf_counter()
    window = box_configs(2, (0,), (19,))
    pairs = [(x, y, matching_1d(x, y))
             for i, x in enumerate(window) for y in window[i + 1:]]
    failures = 0
    checked = 0
    for L in (0, 1, 2):
        cutoff = 3 * 2 * L  # 3NL with N=2, d=1
        for x, y, rho in pairs:
            if rho <= cutoff:
                continue
            checked += 1
            wit = weakly_separated(x, y, L)
            if wit is None or wit.count_inner <= wit.count_other:
                failures += 1
                continue
            if wit.diameter > 2 * 2 * L:
                failures += 1
                continue
            big, small = (x, y) if wit.role == "first" else (y, x)

            def inside(s):
                return all(l <= v <= h
                           for v, l, h in zip(s, wit.lower, wit.upper))

            if (sum(inside(s) for s in big.sites) != wit.count_inner
                    or sum(inside(s) for s in small.sites) != wit.count_other):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    assert record_criterion(
        2, ok, f"weak-separation witness for all {checked} pairs with "
        f"hop distance > 3NL, L in 0..2 ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 3. geometric resolvent identities
# ---------------------------------------------------------------------------

def test_criterion_03_resolvent_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_green = worst_eig = 0.0
    for _ in range(100):
        n_sites = int(rng.integers(8, 20))
        dom = box_configs(2, (0,), (n_sites,))
        vals = {c: float(rng.normal()) for c in dom}
        # weak-to-moderate coupling and interior energies keep every term of
        # the identity far above the resolvent's double-precision noise floor
        H = assemble(dom, potential=vals, g=0.3 + 1.7 * rng.random())
        half = n_sites // 2
        pick = [i for i, c in enumerate(dom)
                if max(s[0] for s in c.sites) <= half]
        sub = [dom[i] for i in pick]
        x = sub[int(rng.integers(len(sub)))]
        y = dom[int(rng.integers(len(dom)))]
        spec = diagonalize(H)
        sub_eigs = np.linalg.eigvalsh(H.matrix[np.ix_(pick, pick)])
        spread = float(spec.eigenvalues[-1] - spec.eigenvalues[0])
        lo = spec.eigenvalues[0] + 0.05 * spread
        hi = spec.eigenvalues[-1] - 0.05 * spread
        merged = np.sort(np.concatenate([spec.eigenvalues, sub_eigs]))
        gaps = np.diff(merged)
        mids = 0.5 * (merged[:-1] + merged[1:])
        interior = [i for i in np.argsort(gaps)[::-1]
                    if lo <= mids[i] <= hi][:10]
        E = float(mids[int(rng.choice(interior))])
        dg = gre_defect(H, sub, x, y, E)
        margins = np.abs(sub_eigs[None, :] - spec.eigenvalues[:, None]).min(1)
        good = np.flatnonzero(margins >= 0.01 * spread)
        k = int(rng.choice(good)) if good.size else int(np.argmax(margins))
        de = eigenfunction_gre_defect(H, sub, x, k, spectrum=spec)
        worst_green = max(worst_green, dg.relative)
        worst_eig = max(worst_eig, de.relative)
    elapsed = time.perf_counter() - t0
    ok = worst_green <= 1e-8 and worst_eig <= 1e-8 and elapsed < 60.0
    assert record_criterion(
        3, ok, "resolvent identity defects on 100 random instances: "
        f"green {worst_green:.1e}, eigenfunction {worst_eig:.1e} "
        f"({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 4. free spectrum closed forms
# ---------------------------------------------------------------------------

def test_criterion_04_free_spectrum():
    dom = box_configs(2, (0,), (2,))
    zero = {c: 0.0 for c in dom}
    lap = diagonalize(assemble(dom, zero, g=0.0)).eigenvalues
    adj = diagonalize(assemble(dom, zero, g=0.0,
                               convention="adjacency")).eigenvalues
    r2 = math.sqrt(2.0)
    ok = (np.allclose(lap, [0.0, 1.0, 3.0], atol=1e-12, rtol=0.0)
          and np.allclose(adj, [-r2, 0.0, r2], atol=1e-12, rtol=0.0))
    assert record_criterion(
        4, ok, "two fermions on three sites: kinetic spectra {0,1,3} and "
        "{-sqrt2,0,sqrt2} to 1e-12")


# ---------------------------------------------------------------------------
# 5. covariance under lattice shifts
# ---------------------------------------------------------------------------

def test_criterion_05_covariance():
    rng = np.random.default_rng(9)
    sys_ = golden_system()
    dom = box_configs(2, (0,), (7,))
    worst = 0.0
    for _ in range(20):
        hull = HaarHull(2.5, 6, AmplitudeField(int(rng.integers(1 << 30))))
        omega = rng.random(1)
        shift = (int(rng.integers(-7, 8)),)
        dev = covariance_deviation(dom, sys_, hull, omega, shift,
                                   g=float(1.0 + 10 * rng.random()),
                                   interaction=Interaction(10.0, cutoff=2))
        worst = max(worst, dev)
    ok = worst <= 1e-10
    assert record_criterion(
        5, ok, f"translating the window equals shifting the phase: "
        f"max spectral-entry deviation {worst:.1e} over 20 draws")


# ---------------------------------------------------------------------------
# 6. exact tail verification
# ---------------------------------------------------------------------------

def exact_tail(N, two_b, terms=64):
    total = Fraction(0)
    for n in range(N + 1, N + terms + 1):
        total += Fraction(1, 2 ** (two_b * n * n))
    ratio = Fraction(1, 2 ** two_b)
    last = N + terms
    remainder = Fraction(1, 2 ** (two_b * (last + 1) ** 2)) / (1 - ratio)
    return total, total + remainder


def test_criterion_06_tail_bounds_exact():
    ok = True
    for b in (2.0, 2.5, 5.0):
        two_b = int(round(2 * b))
        for N in range(1, 9):
            lower, upper = exact_tail(N, two_b)
            loose = tail_bound(N, b)
            sharp = tail_bound_sharp(N, b)
            ok = ok and upper <= Fraction(loose)
            ok = ok and float(upper) <= sharp <= float(loose)
            ok = ok and lower > 0
    assert record_criterion(
        6, ok, "generation tails bounded in exact rational arithmetic, "
        "N=1..8, three decay exponents")


# ---------------------------------------------------------------------------
# 7. strong-disorder unimodality and center bijection
# ---------------------------------------------------------------------------

def test_criterion_07_unimodal_bijection():
    t0 = time.perf_counter()
    omegas = (0.11, 0.31, 0.53, 0.71, 0.93)
    total = passes = 0
    sep_ok = True
    for seed in range(100):
        for om in omegas:
            H, dom, cleared = strong_disorder_run(seed, om)
            sep_ok = sep_ok and cleared
            rep = localization_report(diagonalize(H), dom)
            total += 1
            passes += (rep.bijection and rep.all_unimodal
                       and rep.min_peak_mass > 0.5)
    elapsed = time.perf_counter() - t0
    frac = passes / total
    ok = sep_ok and frac >= 0.95 and elapsed < 600.0
    assert record_criterion(
        7, ok, f"unimodal eigenfunctions with center bijection in "
        f"{100 * frac:.1f}% of {total} strong-disorder runs ({elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# 8. decay rate grows with coupling
# ---------------------------------------------------------------------------

def test_criterion_08_decay_rate_trend():
    H_hat, dom, _ = strong_disorder_run(3, 0.31)
    vals = {c: H_hat.matrix[i, i] / H_hat.g for i, c in enumerate(dom)}
    grid = H_hat.g * np.logspace(-2.5, 0.0, 6)
    medians = []
    for g in grid:
        rep = localization_report(diagonalize(assemble(dom, vals, g=float(g))),
                                  dom)
        rates = [s.decay_rate for s in rep.states
                 if s.decay_rate is not None and np.isfinite(s.decay_rate)]
        medians.append(float(np.median(rates)))
    rho = stats.spearmanr(np.arange(len(grid)), medians).statistic
    increasing = all(a < b for a, b in zip(medians, medians[1:]))
    ok = increasing and rho > 0.9 and grid[-1] / grid[0] >= 100.0
    assert record_criterion(
        8, ok, f"median fitted decay rate rises {medians[0]:.2f} -> "
        f"{medians[-1]:.2f} across 2.5 decades of coupling "
        f"(spearman {rho:.2f})")


# ---------------------------------------------------------------------------
# 9. eigenbasis envelope controls the propagator
# ---------------------------------------------------------------------------

def test_criterion_09_dynamical_envelope():
    H, dom, _ = strong_disorder_run(8, 0.11)
    spec = diagonalize(H)
    rep = localization_report(spec, dom)
    fit = envelope_decay_fit(spec, dom)
    excess = propagator_excess(spec, np.linspace(0.0, 60.0, 121))
    ok = (rep.bijection and rep.all_unimodal
          and fit.rate > 0.0 and fit.r_squared > 0.9
          and excess <= 1e-10)
    assert record_criterion(
        9, ok, f"envelope decay m'={fit.rate:.2f} (R^2 {fit.r_squared:.3f}); "
        f"propagator never exceeds it (worst excess {excess:.1e})")


# ---------------------------------------------------------------------------
# 10. eigenvalue-distance concentration
# ---------------------------------------------------------------------------

def test_criterion_10_spectral_distance_bound():
    t0 = time.perf_counter()
    plan = McPlan(trials=2000, seed=11,
                  s_grid=(0.001, 0.002, 0.005, 0.01, 0.02,
                          0.05, 0.1, 0.2, 0.5, 1.0))
    cx = FermiConfig.make([(0,), (1,)])
    cy = cx.shifted((8,))
    report = wegner_estimate(plan, golden_system(), np.array([0.15]),
                             cx, cy, L=2, g=20.0, b=2.5, n_hull=6,
                             interaction=Interaction(10.0, cutoff=2))
    elapsed = time.perf_counter() - t0
    ok = (report.holds and report.n_trials == 2000
          and len(report.s_grid) == 10 and elapsed < 600.0)
    assert record_criterion(
        10, ok, "empirical spectral-distance CDF below the log-domain bound "
        f"at all 10 grid points, 2000 trials ({elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# 11. conditional concentration of the sample mean
# ---------------------------------------------------------------------------

def test_criterion_11_rcm_concentration():
    ok = True
    for q in (2, 4):
        plan = McPlan(trials=20_000, seed=5 + q)
        rep = rcm_check(plan, q_size=q, interval=1.0,
                        t_grid=(0.2, 0.4, 0.8, 1.2, 1.6),
                        eps_grid=(0.05, 0.1, 0.15, 0.2, 0.25),
                        n_bins=100)
        ok = ok and rep.holds and len(rep.cells) == 25
        for cell in rep.cells:
            ok = ok and cell.empirical <= cell.bound + 2 * cell.half_width
    assert record_criterion(
        11, ok, "sample-mean exceedance within |Q|^2 eps^2 + 2 sigma on a "
        "5x5 grid, |Q| in {2,4}, 20000 trials each")


# ---------------------------------------------------------------------------
# 12. operator entropy over the frequency grid
# ---------------------------------------------------------------------------

def test_criterion_12_quantized_operator_count():
    sys_ = golden_system()
    hull = HaarHull(2.5, 2, AmplitudeField(3))
    ok = True
    counts = []
    for L in (2, 3):
        rep = equivalence_entropy_check(sys_, hull, L, grid_size=10_000)
        counts.append(rep.count)
        ok = ok and rep.count <= 2 * L ** 8 and rep.count <= rep.bound
    assert record_criterion(
        12, ok, f"distinct truncated operators over 10^4 frequencies: "
        f"{counts[0]} (L=2), {counts[1]} (L=3), both within 2 L^8")


# ---------------------------------------------------------------------------
# 13. dominated functions obey the center bound
# ---------------------------------------------------------------------------

def test_criterion_13_dominated_center_bound():
    rng = np.random.default_rng(31)
    center = FermiConfig.make([(0,), (8,)])
    L, ell = 3, 1
    domain = sorted(distances_within(center, 2 * L))
    violations = 0
    for _ in range(500):
        q = float(rng.uniform(0.2, 0.8))
        raw = {c: float(rng.random()) for c in domain}
        f = force_dominated(raw, domain, center, L, ell, q)
        M = max(abs(v) for v in f.values())
        if not dominated_check(f, domain, center, L, ell, q):
            violations += 1
        elif abs(f[center]) > dominated_bound(L, ell, q, M) + 1e-12:
            violations += 1
    ok = violations == 0
    assert record_criterion(
        13, ok, "500 forced dominated functions all satisfy the iterated "
        "q-contraction bound at the center")


# ---------------------------------------------------------------------------
# 14. bit-exact Monte-Carlo replay
# ---------------------------------------------------------------------------

def test_criterion_14_bit_exact_replay():
    plan = McPlan(trials=60, seed=21, s_grid=(0.01, 0.1, 1.0))
    sys_ = golden_system()
    omega = np.array([0.15])
    cx = FermiConfig.make([(0,), (1,)])
    cy = cx.shifted((8,))
    inter = Interaction(10.0, cutoff=2)
    report = wegner_estimate(plan, sys_, omega, cx, cy, L=2, g=20.0,
                             b=2.5, n_hull=6, interaction=inter)
    sx = ball_scaffold(cx, 2, inter)
    sy = ball_scaffold(cy, 2, inter)
    mismatches = 0
    for rec in report.records:
        if trial_seed(plan.seed, rec.index) != rec.seed:
            mismatches += 1
            continue
        row = wegner_trial(rec.seed, sys_, omega, sx, sy, 20.0, 2.5, 6)
        if value_digest(row) != rec.digest:
            mismatches += 1
    # the digest actually discriminates: a different seed gives new values
    probe = report.records[0]
    foreign = wegner_trial(probe.seed + 1, sys_, omega, sx, sy, 20.0, 2.5, 6)
    ok = mismatches == 0 and value_digest(foreign) != probe.digest
    assert record_criterion(
        14, ok, "all 60 recorded trials replay to identical digests from "
        "their seeds alone")
