"""Multi-scale machinery tests: scale sequences, Green identities, resonance
and singularity classification, dominated functions, sparseness scans,
localization reports, correlators, and operator-count entropy."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from andlab import msa
from andlab import potential as pot
from andlab.cli import _omega, _staircase
from andlab.configs import (DomainGraph, FermiConfig, ball, box_configs, capped_ball,
                            distances_within)
from andlab.errors import BudgetExceededError, NearResonantError
from andlab.expconfig import ExperimentConfig
from andlab.msa import (
    ScaleSequence,
    ScanViolation,
    adaptive_noise_floor,
    classify_resonant,
    classify_singular,
    dominated_bound,
    dominated_check,
    eigenfunction_gre_defect,
    envelope_decay_fit,
    envelope_matrix,
    equivalence_entropy_check,
    force_dominated,
    gamma,
    gre_defect,
    green,
    localization_report,
    matrix_element,
    nr_ns_premises,
    propagator_excess,
    singularity_threshold_log,
    sparseness_scan,
)
from andlab.operators import assemble, ball_operator, diagonalize
from andlab.potential import (
    AmplitudeField,
    HaarHull,
    config_potential,
    min_gap,
    window_generation,
)
from andlab.torus import ShiftSystem, preset_frequencies


def cfg(*sites):
    return FermiConfig.make([(s,) for s in sites])


def golden_system():
    return ShiftSystem(preset_frequencies("golden", 1, 1))


def strong_disorder_instance(seed=8, om=0.11, margin=1.05, sites=13):
    """Window operator with coupling scaled to clear the separation threshold."""
    sys_ = golden_system()
    dom = box_configs(2, (0,), (sites,))
    hull = HaarHull(0.5, 7, AmplitudeField(seed))
    omega = np.array([om])
    vals = {c: config_potential(hull, sys_, omega, c) for c in dom}
    sep = min_gap(list(vals.values()))
    g = margin * 16 * 2 * 1 * math.exp(4.0) / sep
    return assemble(dom, potential=vals, g=g), dom


# ---------------------------------------------------------------------------
# decay exponent and scales
# ---------------------------------------------------------------------------

def test_gamma_values():
    assert gamma(2.0, 16) == 54.62741699796952
    assert gamma(1.5, 0) == 3.0


def test_gamma_sandwich():
    for m in (0.5, 1.0, 3.0):
        for L in (1, 2, 7, 100):
            assert m * L < gamma(m, L) <= 2 * m * L


def test_scale_sequence_growth():
    seq = ScaleSequence(3, 2.5, j_max=3)
    for lev in seq.levels:
        if lev.j >= 0:
            assert lev.L == 3 ** (2 ** lev.j)
    assert seq.level(-1).L == 0
    assert seq.level(-1).generation == window_generation(3, seq.A, seq.C)


def test_scale_sequence_deltas_decrease():
    seq = ScaleSequence(2, 2.5, j_max=4)
    logs = [lev.log2_delta for lev in seq.levels]
    # the seed level shares the first generation, deeper levels drop strictly
    assert all(b <= a for a, b in zip(logs, logs[1:]))
    assert all(b < a for a, b in zip(logs[1:], logs[2:]))
    # delta = beta * a_N in the log domain
    for lev in seq.levels:
        gen = lev.generation
        assert lev.log2_delta == pytest.approx(lev.log2_beta - 2 * 2.5 * gen * gen)
        assert lev.log2_beta == pytest.approx(-2 * 2.5 * gen)


def test_scale_level_underflow_guard():
    seq = ScaleSequence(4, 2.5, j_max=2)
    deep = seq.level(2)
    assert deep.log2_delta < -1074
    assert deep.delta == 0.0
    assert seq.level(0).beta > 0


def test_shape_fit_positive_constants():
    c2, cp = ScaleSequence(3, 2.0, j_max=3).shape_fit()
    assert c2 > 0 and cp > 0


# ---------------------------------------------------------------------------
# Green functions and the resolvent expansion identity
# ---------------------------------------------------------------------------

def random_window_operator(rng, n_sites=8):
    dom = box_configs(2, (0,), (n_sites,))
    vals = {c: float(rng.normal()) for c in dom}
    return assemble(dom, potential=vals, g=1.0 + rng.random())


def test_green_solves_resolvent():
    rng = np.random.default_rng(0)
    H = random_window_operator(rng)
    E = 0.123
    G = green(H, E)
    n = len(H.domain)
    resid = (H.matrix - E * np.eye(n)) @ G.matrix - np.eye(n)
    assert np.max(np.abs(resid)) <= 1e-9
    assert G.margin > 0


def test_green_raises_at_eigenvalue():
    H = assemble(box_configs(2, (0,), (3,)), g=0.0)
    E = float(np.linalg.eigvalsh(H.matrix)[1])
    with pytest.raises(NearResonantError):
        green(H, E)


def test_gre_defect_small_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        H = random_window_operator(rng)
        sub = [c for c in H.domain if max(s[0] for s in c.sites) <= 5]
        x = sub[int(rng.integers(len(sub)))]
        y = H.domain[int(rng.integers(len(H.domain)))]
        E = float(rng.normal()) * 0.5
        try:
            d = gre_defect(H, sub, x, y, E)
        except NearResonantError:
            continue
        assert d.relative <= 1e-8


def test_gre_defect_degenerate_subdomain():
    rng = np.random.default_rng(3)
    H = random_window_operator(rng)
    d = gre_defect(H, H.domain, H.domain[0], H.domain[-1], 0.05)
    assert d.absolute == 0.0


def test_eigenfunction_gre_defect():
    rng = np.random.default_rng(11)
    H = random_window_operator(rng)
    sub = [c for c in H.domain if max(s[0] for s in c.sites) <= 5]
    spec = diagonalize(H)
    for k in (0, 3, len(H.domain) - 1):
        for x in sub[:4]:
            d = eigenfunction_gre_defect(H, sub, x, k, spectrum=spec)
            assert d.relative <= 1e-8


# ---------------------------------------------------------------------------
# resonance / singularity classification
# ---------------------------------------------------------------------------

def test_classify_resonant_boundary_convention():
    rep = classify_resonant(np.array([1.0, 4.0]), 2.0, threshold=1.0)
    assert rep.nonresonant          # distance equals threshold: still NR
    assert rep.distance == 1.0
    rep2 = classify_resonant(np.array([1.0, 4.0]), 2.5, threshold=2.0)
    assert not rep2.nonresonant
    assert rep2.margin < 0


def test_classify_resonant_accepts_operator():
    H = assemble(box_configs(2, (0,), (3,)), g=0.0)
    rep = classify_resonant(H, -5.0, threshold=1.0)
    assert rep.nonresonant


def test_singularity_threshold_log_forms():
    # L = 0: (2Nd)^{-1} e^{-2m}; L >= 1: (3L)^{-Nd} e^{-gamma}
    assert singularity_threshold_log(0, 1.0, 2, 1) == pytest.approx(
        -math.log(4.0) - 2.0)
    assert singularity_threshold_log(3, 1.0, 2, 1) == pytest.approx(
        -2 * math.log(9.0) - gamma(1.0, 3))


def test_classify_singular_single_site():
    center = cfg(0, 2)
    m = 1.0
    H = ball_operator(center, 0, potential=lambda c: 100.0, g=1.0,
                      convention="none")
    rep = classify_singular(H, center, E=0.0, m=m, L=0)
    # |G(c,c)| = 1/100, below the single-site threshold e^{-2m}/(2Nd)
    assert rep.nonsingular
    assert rep.log_worst == pytest.approx(-math.log(100.0))
    near = classify_singular(H, center, E=99.99, m=m, L=0)
    assert not near.nonsingular


def test_classify_singular_at_eigenvalue_is_singular():
    center = cfg(0, 2)
    H = ball_operator(center, 0, potential=lambda c: 3.0, g=1.0,
                      convention="none")
    rep = classify_singular(H, center, E=3.0, m=1.0, L=0)
    assert not rep.nonsingular
    assert rep.log_worst == math.inf


def test_classify_singular_strong_disorder_ball():
    H_win, dom = strong_disorder_instance(sites=9)
    idx = H_win.index()
    center = dom[len(dom) // 2]
    members = sorted(distances_within(center, 1))
    H_ball = H_win.restrict(members)
    lam = np.linalg.eigvalsh(H_ball.matrix)
    # an energy far from the ball spectrum relative to the decay demand
    E = float(lam.min() - 10 * math.exp(gamma(1.0, 1)))
    rep = classify_singular(H_ball, center, E=E, m=1.0, L=1)
    assert rep.nonsingular


# ---------------------------------------------------------------------------
# dominated functions
# ---------------------------------------------------------------------------

def test_dominated_bound_example():
    assert dominated_bound(7, 1, 0.5, 1.0) == pytest.approx(0.0625)


def test_zero_function_dominated():
    center = cfg(0, 8)
    domain = sorted(distances_within(center, 6))
    f = {c: 0.0 for c in domain}
    assert dominated_check(f, domain, center, 3, 1, 0.5)


def test_forced_functions_satisfy_center_bound():
    rng = np.random.default_rng(21)
    center = cfg(0, 8)
    L, ell, q = 3, 1, 0.5
    domain = sorted(distances_within(center, 2 * L))
    for _ in range(25):
        raw = {c: float(rng.random()) for c in domain}
        f = force_dominated(raw, domain, center, L, ell, q)
        assert dominated_check(f, domain, center, L, ell, q)
        M = max(abs(v) for v in f.values())
        assert abs(f[center]) <= dominated_bound(L, ell, q, M) + 1e-12


def dominated_neighbourhoods_oracle(domain, center, L: int, ell: int) -> dict:
    """Each x of the domain with rho(center, x) <= 2L - ell, mapped to the
    domain members of its closed (ell+1)-ball (full-lattice distances)."""
    graph = DomainGraph(domain)
    center_dist = distances_within(center, 2 * L)
    return {x: [y for y in distances_within(x, ell + 1) if y in graph.index]
            for x in graph.domain if x in center_dist and center_dist[x] <= 2 * L - ell}


def dominated_check_oracle(f, domain, center, L: int, ell: int, q: float) -> bool:
    """Whether |f(x)| <= q * max of |f| over the closed (ell+1)-ball around x,
    for every x in the domain with rho(center, x) <= 2L - ell."""
    if not 0.0 < q < 1.0:
        raise ValueError("need 0 < q < 1")
    if ell < 0 or L < 0:
        raise ValueError("need L, ell >= 0")
    domain = tuple(domain)
    fv = {c: abs(f[c] if isinstance(f, dict) else f(c)) for c in domain}
    return not any(fv[x] > q * max(fv[y] for y in local)
                   for x, local in dominated_neighbourhoods_oracle(domain, center, L, ell).items())


def force_dominated_oracle(f, domain, center, L: int, ell: int, q: float, sweeps: int = 64):
    """Largest dominated function below |f|: sweep x in the checked region,
    clipping f(x) to q times its (ell+1)-ball max, until stable."""
    domain = tuple(domain)
    fv = {c: abs(f[c] if isinstance(f, dict) else f(c)) for c in domain}
    local = dominated_neighbourhoods_oracle(domain, center, L, ell)
    for _ in range(sweeps):
        changed = False
        for x in local:
            cap = q * max(fv[y] for y in local[x])
            if fv[x] > cap:
                fv[x] = cap
                changed = True
        if not changed:
            return fv
    raise BudgetExceededError("dominated repair did not stabilize")


profile_values = st.one_of(st.sampled_from([0.0, 0.5, 1.0, -1.0]),
                           st.floats(-10.0, 10.0, allow_nan=False))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(0, 1), st.sampled_from([0.1, 0.5, 0.9]),
       st.booleans(), st.data())
def test_dominated_routines_match_oracles(L, ell, q, as_callable, data):
    center = cfg(0, 8)
    domain = sorted(distances_within(center, 2 * L))
    values = data.draw(st.lists(profile_values, min_size=len(domain), max_size=len(domain)))
    raw = dict(zip(domain, values))
    outcomes = []
    for repair in (force_dominated, force_dominated_oracle):
        try:
            outcomes.append(list(repair(raw, domain, center, L, ell, q).items()))
        except BudgetExceededError:   # e.g. a profile decaying to 0 at q^sweeps
            outcomes.append(None)
    if ell == 0:
        # every member of the 2L-ball is checked, so the largest dominated
        # function below |f| is 0; the sweeps stop short of it or at a
        # subnormal fixed point where q * |f| rounds back to |f|
        assert outcomes[1] is None or max(v for _, v in outcomes[1]) < np.finfo(float).tiny
        outcomes[1] = [(c, 0.0) for c in domain]
    assert outcomes[0] == outcomes[1]
    forced = dict(outcomes[0]) if outcomes[0] else {c: 0.0 for c in domain}
    x = data.draw(st.sampled_from(sorted(dominated_neighbourhoods_oracle(domain, center,
                                                                         L, ell))))
    bumped = dict(forced)
    bumped[x] = 1.0 + max(forced.values())
    assert dominated_check_oracle(forced, domain, center, L, ell, q)
    assert not dominated_check_oracle(bumped, domain, center, L, ell, q)
    for f in (raw, forced, bumped):
        g = f.__getitem__ if as_callable else f
        assert (dominated_check(g, domain, center, L, ell, q)
                == dominated_check_oracle(g, domain, center, L, ell, q))


@pytest.mark.parametrize("L", [1, 2])
@pytest.mark.parametrize("q", [0.1, 0.5])
def test_force_dominated_zero_fixed_point(L, q):
    """With ell = 0 every member is checked and the repair is all zero; the
    sweep oracle reaches it after about log(max / 5e-324) / log(1/q) sweeps."""
    center = cfg(0, 8)
    domain = sorted(distances_within(center, 2 * L))
    rng = np.random.default_rng(L)
    for raw in ({c: 1.0 for c in domain}, {c: float(rng.normal()) for c in domain}):
        want = force_dominated_oracle(raw, domain, center, L, 0, q, sweeps=4000)
        got = force_dominated(raw, domain, center, L, 0, q)
        assert list(got.items()) == list(want.items())
        assert set(got.values()) == {0.0}


DOMINATED_POOLS = (sorted(distances_within(FermiConfig.make([0, 8]), 4)),
                   box_configs(2, (0, 0), (2, 3)), box_configs(3, (0,), (6,)),
                   box_configs(6, (0, 0), (1, 3)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DOMINATED_POOLS), st.data(), st.integers(0, 2), st.integers(0, 2))
def test_dominated_setup_matches_oracle(pool, data, L, ell):
    domain = data.draw(st.lists(st.sampled_from(pool), max_size=40, unique=True))
    center = data.draw(st.sampled_from(pool))
    fv, local = msa._dominated_setup(dict.fromkeys(pool, -1.0), domain, center, L, ell, 0.5)
    want = dominated_neighbourhoods_oracle(domain, center, L, ell)
    assert list(fv.items()) == [(c, 1.0) for c in domain]
    assert list(local) == list(want)
    assert {x: sorted(ys) for x, ys in local.items()} == {x: sorted(ys) for x, ys in want.items()}


@pytest.mark.parametrize("routine", [dominated_check, force_dominated])
@pytest.mark.parametrize("q, L, ell", [(-0.5, 3, 1), (0.0, 3, 1), (1.0, 3, 1),
                                       (0.5, -1, 1), (0.5, 3, -1)])
def test_dominated_routines_reject_bad_parameters(routine, q, L, ell):
    center = cfg(0, 8)
    domain = sorted(distances_within(center, 6))
    with pytest.raises(ValueError):
        routine({c: 1.0 for c in domain}, domain, center, L, ell, q)


def test_eigenfunction_single_site_subharmonicity():
    """At any configuration whose diagonal is 2Nd e^{2m}-far from the
    eigenvalue, the eigenfunction obeys |psi(x)| <= e^{-2m} max over the
    punctured 1-ball, up to solver noise."""
    H_win, dom = strong_disorder_instance(seed=5, om=0.53)
    spec = diagonalize(H_win)
    idx = {c: i for i, c in enumerate(dom)}
    m = 1.0
    demand = 2 * 2 * 1 * math.exp(2 * m)
    slack = 64 * np.finfo(float).eps
    checked = 0
    for k in (0, len(dom) // 2, len(dom) - 1):
        lam = spec.eigenvalues[k]
        psi = np.abs(spec.eigenvectors[:, k])
        for c, i in idx.items():
            if abs(H_win.matrix[i, i] - lam) < demand:
                continue
            nbrs = [idx[y] for y in distances_within(c, 1) if y != c and y in idx]
            if len(nbrs) < 4:   # keep full in-window neighborhoods only
                continue
            assert psi[i] <= math.exp(-2 * m) * psi[nbrs].max() + slack
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# sparseness scans
# ---------------------------------------------------------------------------

def test_sparseness_clean_at_strong_disorder():
    H_win, dom = strong_disorder_instance(sites=9)
    rep = sparseness_scan(H_win, L=0, m=1.0, g=H_win.g, delta=1e-30,
                          energy_cap=200)
    assert rep.clean
    assert rep.n_energies > 0 and rep.n_balls > 0


def test_sparseness_flags_free_operator():
    dom = box_configs(2, (0,), (9,))
    H = assemble(dom, g=0.0)
    rep = sparseness_scan(H, L=0, m=1.0, g=1.0, delta=0.5, energy_cap=100)
    assert not rep.clean
    assert rep.singular_pairs + rep.resonant_pairs > 0
    assert len(rep.examples) > 0


def test_sparseness_budget_checked_before_scan():
    dom = box_configs(2, (0,), (9,))
    H = assemble(dom, g=0.0)
    with pytest.raises(BudgetExceededError):
        sparseness_scan(H, L=0, m=1.0, g=1.0, delta=0.5, energy_cap=100,
                        flop_budget=1e3)


def _scan_pairs_loop(singular, resonant, far, grid, centers, max_examples):
    """Per-energy pair loop that the matmul count in ``sparseness_scan``
    replaced, kept as its oracle; same signature as ``_far_flagged_pairs``."""
    far = {i: np.flatnonzero(row).tolist() for i, row in enumerate(far)}
    s_pairs = r_pairs = 0
    examples = []
    for ei, E in enumerate(grid):
        s_idx = np.flatnonzero(singular[:, ei])
        r_idx = np.flatnonzero(resonant[:, ei])
        for flags, kind in ((s_idx, "singular-pair"), (r_idx, "resonant-pair")):
            flagged = set(flags.tolist())
            for i in flags:
                for j in far[int(i)]:
                    if j in flagged:
                        if kind == "singular-pair":
                            s_pairs += 1
                        else:
                            r_pairs += 1
                        if len(examples) < max_examples:
                            examples.append(ScanViolation(
                                float(E), centers[int(i)], centers[j], kind))
    return s_pairs, r_pairs, examples


def _pair_case(seed, n_balls, n_energies, density, far_density):
    """Random flag matrices and a random strictly upper-triangular far mask."""
    rng = np.random.default_rng(seed)
    singular = rng.random((n_balls, n_energies)) < density
    resonant = rng.random((n_balls, n_energies)) < density
    far = np.triu(rng.random((n_balls, n_balls)) < far_density, k=1)
    grid = np.sort(rng.normal(size=n_energies))
    centers = [cfg(i) for i in range(n_balls)]
    return singular, resonant, far, grid, centers


def _assert_pairs_match(case, max_examples):
    got = msa._far_flagged_pairs(*case, max_examples)
    want = _scan_pairs_loop(*case, max_examples)
    assert got == want
    assert (len(got[2]) >= max_examples) == (len(want[2]) >= max_examples)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 600),
       st.sampled_from([0.0, 0.05, 0.3, 1.0]), st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(0, 60))
@example(0, 6, 40, 0.0, 1.0, 50)      # no flags
@example(1, 1, 40, 1.0, 1.0, 50)      # one ball
@example(2, 8, 40, 1.0, 0.0, 50)      # all pairs near
@example(3, 8, 300, 0.3, 0.5, 0)      # no examples kept
@example(4, 8, 300, 0.3, 0.5, 1)      # one example kept
def test_far_pair_count_matches_loop(seed, n_balls, n_energies, density,
                                     far_density, max_examples):
    case = _pair_case(seed, n_balls, n_energies, density, far_density)
    _assert_pairs_match(case, max_examples)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_far_pair_examples_cap_at_violation_count(seed):
    case = _pair_case(seed, 5, 30, 0.2, 0.7)
    s_pairs, r_pairs, _ = _scan_pairs_loop(*case, 0)
    assert s_pairs + r_pairs > 0
    for cap in (s_pairs + r_pairs - 1, s_pairs + r_pairs, s_pairs + r_pairs + 1):
        _assert_pairs_match(case, cap)


@pytest.fixture(scope="module")
def readme_window():
    """README-config window assembled as ``andlab msa`` does, at budget 30."""
    exp = ExperimentConfig(n_particles=2, dim=1, seed=7, g=20.0, L0=2,
                           omega=0.15, budget=30)
    window = capped_ball(_staircase(exp), min(exp.L0 ** 4, 30), exp.budget)
    hull = exp.hull(AmplitudeField(exp.seed))
    V = pot.potential_on(hull, exp.system(), _omega(exp))
    H = assemble(window.members, V, exp.g, exp.interaction(exp.L0), exp.convention)
    return exp, H


@pytest.mark.parametrize("L", [0, 2])
@pytest.mark.parametrize("delta", ["level", 1e-3, 0.3])
@pytest.mark.parametrize("max_examples", [50, 10 ** 6])
def test_sparseness_scan_matches_loop_on_readme_window(readme_window, L, delta,
                                                       max_examples, monkeypatch):
    exp, H = readme_window
    if delta == "level":
        delta = exp.scales().level(-1 if L == 0 else 0).delta
    got = sparseness_scan(H, L, exp.m, exp.g, delta, max_examples=max_examples)
    monkeypatch.setattr(msa, "_far_flagged_pairs", _scan_pairs_loop)
    want = sparseness_scan(H, L, exp.m, exp.g, delta, max_examples=max_examples)
    assert got == want
    assert got.n_balls > 0


def test_nr_ns_implication_on_strong_ball():
    H_win, dom = strong_disorder_instance(sites=11)
    center = dom[len(dom) // 2]
    members = sorted(distances_within(center, 3))
    dset = set(dom)
    if not all(c in dset for c in members):
        pytest.skip("ball does not fit the window")
    H_ball = H_win.restrict(members)
    lam = np.linalg.eigvalsh(H_ball.matrix)
    E = float(lam.min() - 10 * math.exp(gamma(1.0, 3)))
    holds, outer = nr_ns_premises(H_ball, center, L=3, ell=1, E=E, m=1.0,
                                  res_threshold=1e-6)
    assert holds and outer.nonresonant
    rep = classify_singular(H_ball, center, E=E, m=1.0, L=3)
    assert rep.nonsingular


# ---------------------------------------------------------------------------
# localization reports
# ---------------------------------------------------------------------------

def test_noise_floor_scales():
    lam = np.array([0.0, 1e-9, 1.0])
    assert adaptive_noise_floor(lam, 2) >= 1e-14
    assert adaptive_noise_floor(lam, 0) > adaptive_noise_floor(
        np.array([0.0, 0.5, 1.0]), 0)


def test_localization_diagonal_operator():
    dom = box_configs(2, (0,), (5,))
    H = assemble(dom, potential={c: float(i) for i, c in enumerate(dom)},
                 g=1.0, convention="none")
    rep = localization_report(diagonalize(H), dom)
    assert rep.bijection
    assert rep.fraction_unimodal == 1.0
    assert rep.min_peak_mass == pytest.approx(1.0)


def test_localization_free_path_fails():
    dom = box_configs(2, (0,), (9,))
    rep = localization_report(diagonalize(assemble(dom, g=0.0)), dom)
    assert rep.fraction_unimodal < 0.5


def test_localization_strong_disorder_passes():
    H_win, dom = strong_disorder_instance()
    rep = localization_report(diagonalize(H_win), dom)
    assert rep.bijection
    assert rep.fraction_unimodal == 1.0
    rates = [s.decay_rate for s in rep.states
             if s.decay_rate is not None and np.isfinite(s.decay_rate)]
    assert len(rates) > len(dom) // 2
    assert np.median(rates) > 0


# ---------------------------------------------------------------------------
# correlators
# ---------------------------------------------------------------------------

def test_matrix_element_identity():
    H_win, dom = strong_disorder_instance(sites=7)
    spec = diagonalize(H_win)
    n = len(dom)
    for ix, iy in ((0, 0), (1, 4), (n - 1, 2)):
        got = matrix_element(spec, ix, iy, lambda lam: 1.0)
        assert abs(got - (1.0 if ix == iy else 0.0)) < 1e-10


def test_envelope_dominates_propagator():
    H_win, dom = strong_disorder_instance(sites=7)
    spec = diagonalize(H_win)
    env = envelope_matrix(spec)
    assert env.shape == (len(dom), len(dom))
    assert np.allclose(np.diag(env), 1.0, atol=1e-12)
    assert propagator_excess(spec, (0.3, 1.0, 4.0)) <= 1e-10


def test_envelope_decay_fit_strong_disorder():
    H_win, dom = strong_disorder_instance()
    spec = diagonalize(H_win)
    fit = envelope_decay_fit(spec, dom)
    assert fit.rate > 0
    assert fit.r_squared > 0.9
    assert fit.n_pairs >= len(dom)


# ---------------------------------------------------------------------------
# operator-count entropy
# ---------------------------------------------------------------------------

def test_entropy_constant_amplitudes_single_class():
    sys_ = golden_system()
    from andlab.potential import ConstantAmplitudeField
    hull = HaarHull(2.5, 4, ConstantAmplitudeField(0.25))
    rep = equivalence_entropy_check(sys_, hull, L=2, N_trunc=2, grid_size=500)
    assert rep.count == 1
    assert not rep.saturated


def test_entropy_within_bound():
    sys_ = golden_system()
    hull = HaarHull(2.5, 4, AmplitudeField(9))
    rep = equivalence_entropy_check(sys_, hull, L=2, N_trunc=2, grid_size=2000)
    assert 1 <= rep.count <= rep.bound
    assert rep.grid_size == 2000
    assert not rep.saturated


def test_entropy_monotone_under_refinement():
    sys_ = golden_system()
    hull = HaarHull(2.5, 4, AmplitudeField(9))
    coarse = equivalence_entropy_check(sys_, hull, L=2, N_trunc=2, grid_size=500)
    fine = equivalence_entropy_check(sys_, hull, L=2, N_trunc=2, grid_size=4000)
    assert fine.count >= coarse.count


def _entropy_count_oracle_1d(system, hull, L, N_trunc, grid_size):
    """The numpy branch equivalence_entropy_check used to take at d = nu = 1."""
    half = L ** 4
    quantum = pot.tail_bound(N_trunc, hull.b)
    omegas = (np.arange(grid_size) + 0.5) / grid_size
    sites = np.arange(-half, half + 1)
    alpha = float(system.frequencies[0, 0])
    phases = np.mod(omegas[:, None] + sites[None, :] * alpha, 1.0)
    values = np.zeros_like(phases)
    for n in range(1, N_trunc + 1):
        cells = np.minimum((phases * (1 << n)).astype(np.int64), (1 << n) - 1)
        theta = np.asarray([hull.theta.value(n, int(k) + 1)
                            for k in range(1 << n)])
        values += pot.generation_weight(n, hull.b) * theta[cells]
    quant = np.round(values / quantum).astype(np.int64)
    return int(np.unique(quant, axis=0).shape[0])


def _entropy_count_oracle_points(system, hull, L, N_trunc, grid_size):
    """The per-point branch equivalence_entropy_check used for other d, nu."""
    nu = system.nu
    half = L ** 4
    quantum = pot.tail_bound(N_trunc, hull.b)
    omegas = (np.arange(grid_size) + 0.5) / grid_size
    window = [()]
    for _ in range(system.d):
        window = [w + (s,) for w in window for s in range(-half, half + 1)]
    profiles = set()
    for w in omegas:
        row = []
        for x in window:
            val, _ = hull.value(system.translate(np.full(nu, w), x), N_trunc)
            row.append(round(val / quantum))
        profiles.add(tuple(row))
    return len(profiles)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([0.5, 2.5]), st.integers(1, 3),
       st.integers(1, 3000))
@example(3, 2.5, 2, 10_000)
def test_entropy_count_matches_1d_oracle(seed, b, N_trunc, grid_size):
    sys_ = golden_system()
    hull = HaarHull(b, N_trunc + 2, AmplitudeField(seed))
    rep = equivalence_entropy_check(sys_, hull, 2, N_trunc, grid_size)
    assert rep.count == _entropy_count_oracle_1d(sys_, hull, 2, N_trunc, grid_size)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 60))
def test_entropy_count_matches_point_oracle_nu2(seed, N_trunc, grid_size):
    sys_ = ShiftSystem(preset_frequencies("golden", 1, 2))
    hull = HaarHull(0.5, 4, AmplitudeField(seed))
    rep = equivalence_entropy_check(sys_, hull, 2, N_trunc, grid_size)
    assert rep.count == _entropy_count_oracle_points(sys_, hull, 2, N_trunc, grid_size)


def test_entropy_count_matches_point_oracle_d2():
    sys_ = ShiftSystem(preset_frequencies("golden", 2, 1))
    hull = HaarHull(0.5, 4, AmplitudeField(12))
    rep = equivalence_entropy_check(sys_, hull, 2, 3, 12)
    assert rep.count == _entropy_count_oracle_points(sys_, hull, 2, 3, 12)
