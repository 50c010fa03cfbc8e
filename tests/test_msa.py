"""Multi-scale machinery tests: scale sequences, Green identities, resonance
and singularity classification, dominated functions, sparseness scans,
localization reports, correlators, and operator-count entropy."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from andlab import configs, msa
from andlab import potential as pot
from andlab.cli import _omega, _staircase
from andlab.configs import (DomainGraph, FermiConfig, ball, box_configs, capped_ball,
                            distances_within, graph_distance)
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
    nr_ns_premises,
    propagator_excess,
    singularity_threshold_log,
    sparseness_scan,
)
from andlab.operators import FiniteHamiltonian, Spectrum, assemble, ball_operator, diagonalize
from andlab.potential import (
    AmplitudeField,
    HaarHull,
    config_potentials,
    min_gap,
    window_generation,
)
from andlab.torus import ShiftSystem, preset_frequencies
from test_fermi_graph import BOX_1D, BOX_2D, boundary_oracle


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
    vals = config_potentials(hull, sys_, omega, dom)
    sep = min_gap(vals)
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


def test_gre_defect_rejects_x_outside_subdomain():
    H = random_window_operator(np.random.default_rng(5))
    sub = [c for c in H.domain if max(s[0] for s in c.sites) <= 5]
    outside = next(c for c in H.domain if c not in sub)
    with pytest.raises(ValueError, match="sub-domain"):
        gre_defect(H, sub, outside, H.domain[0], 0.05)


def test_eigenfunction_gre_defect():
    rng = np.random.default_rng(11)
    H = random_window_operator(rng)
    sub = [c for c in H.domain if max(s[0] for s in c.sites) <= 5]
    spec = diagonalize(H)
    for k in (0, 3, len(H.domain) - 1):
        for x in sub[:4]:
            d = eigenfunction_gre_defect(H, sub, x, k, spectrum=spec)
            assert d.relative <= 1e-8


def boundary_pairs_oracle(parent, sub_idx: dict):
    """Edges (z inside, z' outside) of the sub-domain within the parent."""
    graph = parent.graph
    return [(z, nb) for z in sub_idx for nb in graph.neighbor_lists[graph.index[z]]
            if nb in graph.index and nb not in sub_idx]


def _edge_defect_oracle(parent, subdomain, x, y, E, far):
    """``_edge_defect`` as it was, on index dicts keyed by configuration."""
    sub_idx = {c: i for i, c in enumerate(subdomain)}
    if x not in sub_idx:
        raise ValueError("x must lie in the sub-domain")
    parent_idx = parent.graph.index
    Gs = green(parent.restrict(subdomain), E)
    lhs = far[parent_idx[x]]
    rhs = Gs.matrix[sub_idx[x], sub_idx[y]] if y in sub_idx else 0.0
    terms = [abs(lhs), abs(rhs)]
    for z, zp in boundary_pairs_oracle(parent, sub_idx):
        hop = parent.matrix[parent_idx[z], parent_idx[zp]]
        term = Gs.matrix[sub_idx[x], sub_idx[z]] * (-hop) * far[parent_idx[zp]]
        rhs += term
        terms.append(abs(term))
    absolute = abs(lhs - rhs)
    scale = max(max(terms), 1e-300)
    return msa.GreDefect(absolute, absolute / scale, scale)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([BOX_1D, BOX_2D]), st.sampled_from(["laplacian", "adjacency", "none"]),
       st.sampled_from(["inside", "outside", None]), st.integers(0, 2 ** 32 - 1), st.data())
def test_edge_defect_matches_oracle(pool, convention, where, seed, data):
    """The same terms in the same order as the configuration-keyed body: the
    defect is equal to the last bit, for y inside, outside and without a y."""
    rng = np.random.default_rng(seed)
    domain = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=20, unique=True))
    H = assemble(domain, {c: float(rng.normal()) for c in domain}, 0.2 + 4.8 * rng.random(),
                 convention=convention)
    sub = tuple(data.draw(st.lists(st.sampled_from(domain), min_size=1, unique=True)))
    x = data.draw(st.sampled_from(sub))
    if where is None:
        y, spec = None, diagonalize(H)
        k = data.draw(st.integers(0, len(domain) - 1))
        E, far = float(spec.eigenvalues[k]), spec.eigenvectors[:, k]
    else:
        outside = [c for c in domain if c not in sub]
        assume(where == "inside" or outside)
        y = data.draw(st.sampled_from(sub if where == "inside" else outside))
        E = float(rng.normal() * 3.0)
        try:
            far = green(H, E).matrix[:, H.graph.index[y]]
        except NearResonantError:
            assume(False)
    try:
        want = _edge_defect_oracle(H, sub, x, y, E, far)
    except NearResonantError:
        with pytest.raises(NearResonantError):
            msa._edge_defect(H, sub, x, y, E, far)
        return
    assert msa._edge_defect(H, sub, x, y, E, far) == want


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


def test_classify_resonant_reads_a_nan_distance_as_resonant():
    """|inf - inf| is NaN: the distance is unknown, so the ball counts as
    resonant, as a NaN Green value counts as singular, and no warning leaks."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = classify_resonant([math.inf, 0.5], math.inf, 0.1)
    assert not rep.nonresonant and math.isnan(rep.distance)


def test_classify_resonant_accepts_operator():
    H = assemble(box_configs(2, (0,), (3,)), g=0.0)
    rep = classify_resonant(np.linalg.eigvalsh(H.matrix), -5.0, threshold=1.0)
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


def test_singularity_margin_is_threshold_minus_worst():
    center = cfg(0, 2)
    H = ball_operator(center, 0, potential=lambda c: 100.0, g=1.0, convention="none")
    rep = classify_singular(H, center, E=0.0, m=1.0, L=0)
    assert rep.margin == rep.log_threshold - rep.log_worst > 0
    assert classify_singular(H, center, E=99.99, m=1.0, L=0).margin < 0


def test_classify_singular_at_eigenvalue_is_singular():
    center = cfg(0, 2)
    H = ball_operator(center, 0, potential=lambda c: 3.0, g=1.0,
                      convention="none")
    rep = classify_singular(H, center, E=3.0, m=1.0, L=0)
    assert not rep.nonsingular
    assert rep.log_worst == math.inf


def test_classify_singular_strong_disorder_ball():
    H_win, dom = strong_disorder_instance(sites=9)
    idx = H_win.graph.index
    center = dom[len(dom) // 2]
    members = sorted(distances_within(center, 1))
    H_ball = H_win.restrict(members)
    lam = np.linalg.eigvalsh(H_ball.matrix)
    # an energy far from the ball spectrum relative to the decay demand
    E = float(lam.min() - 10 * math.exp(gamma(1.0, 1)))
    rep = classify_singular(H_ball, center, E=E, m=1.0, L=1)
    assert rep.nonsingular


def _nan_m_window():
    """The 6-site N = 2 box at b = 0.5, 7 generations, field 3, omega = 0.15
    and g = 2, its first configuration and its lowest eigenvalue: at m = 1 and
    at m = 1e-3 the scan finds 3,045 singular pairs and the center is
    singular there."""
    dom = box_configs(2, (0,), (5,))
    hull = HaarHull(0.5, 7, AmplitudeField(3))
    H = assemble(dom, potential=dict(zip(dom, pot.config_potentials(
        hull, golden_system(), np.array([0.15]), dom))), g=2.0)
    return H, dom[0], float(np.linalg.eigvalsh(H.matrix)[0])


@pytest.mark.parametrize("m", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda H, c, E, m: gamma(m, 3),
    lambda H, c, E, m: singularity_threshold_log(0, m, 2, 1),
    lambda H, c, E, m: sparseness_scan(H, 0, m, 2.0, 1e-3),
    lambda H, c, E, m: classify_singular(H, c, E, m, 0),
    lambda H, c, E, m: nr_ns_premises(H, c, 1, 0, E, m, 1e-3),
], ids=["gamma", "threshold", "scan", "classify", "premises"])
def test_singularity_checks_refuse_m_outside_the_positive_reals(call, m):
    """A NaN m made every decay threshold NaN, which no Green function
    exceeds: the scan found no singular pair and the center read
    non-singular.  An infinite m is no decay rate either."""
    with pytest.raises(ValueError, match="finite m > 0"):
        call(*_nan_m_window(), m)


def _classify_singular_oracle(H_ball, center, E, m, L, boundary=None):
    """``classify_singular`` as it was before the shared per-ball test: the
    dense resolvent from ``green`` and a loop over the boundary, with every
    energy inside ``green``'s 1e-12 floor called singular."""
    n_p, dim = center.n, center.d
    log_thr = singularity_threshold_log(L, m, n_p, dim)
    if boundary is None:
        boundary = boundary_oracle(H_ball.graph, H_ball.domain)
    if not boundary:
        boundary = [center]
    try:
        G = green(H_ball, E)
    except NearResonantError:
        return msa.SingularityReport(False, math.inf, log_thr, None)
    idx = H_ball.graph.index
    ci = idx[center]
    worst, witness = -math.inf, None
    for y in boundary:
        g_abs = abs(G.matrix[ci, idx[y]])
        lg = math.log(g_abs) if g_abs > 0 else -math.inf
        if lg > worst:
            worst, witness = lg, y
    return msa.SingularityReport(worst <= log_thr, worst, log_thr, witness)


def _nr_ns_premises_oracle(H_ball, center, L, ell, E, m, res_threshold):
    """``nr_ns_premises`` as it was, one ``classify_singular`` (here its
    oracle) per sub-ball."""
    outer = classify_resonant(np.linalg.eigvalsh(H_ball.matrix), E, res_threshold)
    graph = H_ball.graph
    balls = [(c, sorted(distances_within(c, ell))) for c in H_ball.domain
             if all(y in graph.index for y in distances_within(c, ell))]
    bad = [c for c, members in balls
           if not _classify_singular_oracle(H_ball.restrict(members), c, E, m, ell,
                                            boundary_oracle(graph, members)).nonsingular]
    far = any(graph_distance(x, y, cap=2 * ell) is None
              for i, x in enumerate(bad) for y in bad[i + 1:])
    return outer.nonresonant and not far, outer


def _random_ball(seed, L, convention, d=1):
    """Radius-L ball operator around a two-particle configuration, with a
    random potential and coupling, and a generator for the energies."""
    rng = np.random.default_rng(seed)
    center = FermiConfig.make([(0,) * d, (2,) + (0,) * (d - 1)])
    V = {c: float(rng.normal()) for c in ball(center, L + 1).members}
    H = ball_operator(center, L, potential=V, g=0.2 + 4.8 * rng.random(),
                      convention=convention)
    return H, center, rng


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2), st.integers(1, 2),
       st.sampled_from(["laplacian", "adjacency", "none"]),
       st.sampled_from([None, 1e-10, 1e-6, 1e-2]), st.sampled_from([0.5, 1.0, 2.0]))
def test_classify_singular_matches_oracle(seed, L, d, convention, offset, m):
    """Outside the 1e-12 floor the shared ball test gives the old verdict,
    the old log max |G| and a witness attaining it."""
    H, center, rng = _random_ball(seed, L, convention, d)
    vals = np.linalg.eigvalsh(H.matrix)
    if offset is None:
        E = float(rng.normal() * 3.0)
    else:
        E = float(vals[rng.integers(vals.size)] + offset * rng.choice([-1, 1]))
    try:
        G = green(H, E).matrix
    except NearResonantError:
        assume(False)
    old = _classify_singular_oracle(H, center, E, m, L)
    assume(abs(old.log_worst - old.log_threshold) > 1e-6)
    new = classify_singular(H, center, E, m, L)
    assert new.nonsingular == old.nonsingular
    assert new.log_threshold == old.log_threshold
    assert new.log_worst == pytest.approx(old.log_worst, abs=1e-9)
    idx = H.graph.index
    assert new.witness in boundary_oracle(H.graph, H.domain)
    if old.witness is not None:
        assert math.log(abs(G[idx[center], idx[new.witness]])) == pytest.approx(
            old.log_worst, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 1),
       st.sampled_from(["laplacian", "none"]), st.sampled_from([1e-3, 0.3]))
def test_nr_ns_premises_matches_oracle(seed, ell, convention, res_threshold):
    H, center, rng = _random_ball(seed, 3, convention)
    E = float(rng.normal() * 3.0)
    got = nr_ns_premises(H, center, 3, ell, E, 1.0, res_threshold)
    assert got == _nr_ns_premises_oracle(H, center, 3, ell, E, 1.0, res_threshold)


def test_classify_singular_measures_near_pole_energy():
    """1e-13 above the eigenvalue of a boundary configuration of a ball with
    no kinetic term, every |G(center, y)| is exactly 0: the ball is
    non-singular, where the old 1e-12 floor called it singular."""
    H, center, _ = _random_ball(0, 1, "none")
    boundary = boundary_oracle(H.graph, H.domain)
    assert center not in boundary
    i = H.graph.index[boundary[0]]
    E = float(H.matrix[i, i]) + 1e-13
    rep = classify_singular(H, center, E, m=1.0, L=1)
    assert rep.nonsingular
    assert rep.log_worst == -math.inf
    assert rep.witness == boundary[0]
    old = _classify_singular_oracle(H, center, E, m=1.0, L=1)
    assert not old.nonsingular and old.log_worst == math.inf


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


def assert_neighbourhoods_match_oracle(hoods, domain, center, L: int, ell: int):
    """Kept ``(checked, balls, table)`` against the oracle: the checked points in
    domain order, each getter reading x and then its ball in ascending domain
    order, each table row that ball padded with x; arrays read-only, containers
    tuples."""
    checked, balls, table = hoods
    want = dominated_neighbourhoods_oracle(domain, center, L, ell)
    index = {c: i for i, c in enumerate(domain)}
    xs = checked.tolist()
    assert [domain[x] for x in xs] == list(want)
    assert isinstance(balls, tuple) and all(isinstance(b, tuple) for b in balls)
    assert [x for x, _ in balls] == xs
    width = max(map(len, want.values()), default=1)
    assert table.shape == (len(xs), width)
    positions = list(range(len(domain)))
    for x, (_, getter), row in zip(xs, balls, table.tolist()):
        ys = sorted(index[y] for y in want[domain[x]])
        assert getter(positions) == (x, *ys)
        assert row == ys + [x] * (width - len(ys))
    for arr in (checked, table):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[:1] = 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DOMINATED_POOLS), st.data(), st.integers(0, 2), st.integers(0, 2))
def test_dominated_setup_matches_oracle(pool, data, L, ell):
    domain = data.draw(st.lists(st.sampled_from(pool), max_size=40, unique=True))
    center = data.draw(st.sampled_from(pool))
    fv, hoods = msa._dominated_setup(dict.fromkeys(pool, -1.0), domain, center, L, ell, 0.5)
    assert fv.tolist() == [1.0] * len(domain)
    assert_neighbourhoods_match_oracle(hoods, domain, center, L, ell)


_BALL_8 = sorted(distances_within(cfg(0, 8), 4))
DOMINATED_CASES = {   # (domain, center, L, ell)
    "none-checked": (_BALL_8, cfg(0, 8), 0, 1),   # 2L - ell < 0
    "ell-0-all-checked": (_BALL_8, cfg(0, 8), 2, 0),
    "center-outside": (_BALL_8, cfg(0, 13), 2, 1),
    "one-member-balls": ([cfg(0, 8), cfg(20, 30), cfg(40, 50), cfg(60, 61)], cfg(20, 30), 40, 1),
    "several-sizes": (_BALL_8, cfg(0, 8), 2, 1),
    "empty-domain": ([], cfg(0, 8), 2, 1),
}


@pytest.mark.parametrize("case", list(DOMINATED_CASES))
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_dominated_check_array_pass_matches_oracle(case, q, fresh_graphs):
    """The one-pass check equals the oracle on random, forced and bumped
    profiles, with no checked point, every member checked, a center outside
    the domain, one-member balls, padded rows and an empty domain."""
    domain, center, L, ell = DOMINATED_CASES[case]
    rng = np.random.default_rng(len(domain) + L)
    _, (xs, _, table) = msa._dominated_setup(dict.fromkeys(domain, 1.0), domain, center,
                                             L, ell, q)
    widths = {len(ys) for ys in dominated_neighbourhoods_oracle(domain, center, L, ell).values()}
    assert {"none-checked": xs.size == 0, "ell-0-all-checked": xs.size == len(domain) > 0,
            "center-outside": 0 < xs.size < len(domain) and cfg(0, 13) not in domain,
            "one-member-balls": widths == {1} and table.shape == (xs.size, 1) and xs.size > 1,
            "several-sizes": len(widths) > 1, "empty-domain": table.shape == (0, 1)}[case]
    profiles = [dict(zip(domain, rng.random(len(domain)))) for _ in range(4)]
    profiles += [force_dominated(raw, domain, center, L, ell, q) for raw in profiles]
    for forced in profiles[4:]:
        for x in xs.tolist():
            bumped = dict(forced)
            bumped[domain[x]] = 1.0 + max(forced.values())
            profiles.append(bumped)
    for f in profiles:
        assert dominated_check(f, domain, center, L, ell, q) is dominated_check_oracle(
            f, domain, center, L, ell, q)


def test_graph_keeps_the_neighbourhoods_of_its_latest_key(fresh_graphs):
    """Keys A, B, A on one graph, where center, L and ell all change: each call
    leaves the kept slot equal to its own key's oracle, so a stale table fails."""
    domain = sorted(distances_within(cfg(0, 8), 6))
    graph = configs.domain_graph(tuple(domain))
    assert graph.dominated is None
    a, b = (cfg(0, 8), 3, 1), (cfg(1, 7), 2, 0)
    assert (dominated_neighbourhoods_oracle(domain, *a)
            != dominated_neighbourhoods_oracle(domain, *b))
    f = dict.fromkeys(domain, 1.0)
    for key in (a, b, a):
        dominated_check(f, domain, *key, 0.5)
        assert graph.dominated[0] == key
        assert_neighbourhoods_match_oracle(graph.dominated[1:], domain, *key)


@pytest.fixture
def neighbourhood_builds(monkeypatch, fresh_graphs):
    """The keys (center, L, ell) of every dominated-neighbourhood build."""
    builds = []

    def counted(graph, *key, real=msa._neighbourhoods):
        builds.append(key)
        return real(graph, *key)

    monkeypatch.setattr(msa, "_neighbourhoods", counted)
    return builds


def test_equal_domain_reuses_the_kept_neighbourhoods(neighbourhood_builds):
    """An equal domain, built anew, finds the graph's slot: no second build."""
    center = cfg(0, 8)
    domain = sorted(distances_within(center, 4))
    dominated_check(dict.fromkeys(domain, 1.0), domain, center, 2, 1, 0.5)
    slot = configs.domain_graph(tuple(domain)).dominated
    again = sorted(distances_within(cfg(0, 8), 4))
    force_dominated(dict.fromkeys(again, 1.0), again, cfg(0, 8), 2, 1, 0.5)
    assert configs.domain_graph(tuple(again)).dominated is slot
    assert neighbourhood_builds == [(center, 2, 1)]


def test_dominated_loop_builds_its_neighbourhoods_once(neighbourhood_builds):
    """A 25-profile loop in the style of criterion 13 (force, then check, on one
    key) builds the neighbourhood table once, not once per call."""
    rng = np.random.default_rng(31)
    center, L, ell = cfg(0, 8), 3, 1
    domain = sorted(distances_within(center, 2 * L))
    for _ in range(25):
        q = float(rng.uniform(0.2, 0.8))
        f = force_dominated({c: float(rng.random()) for c in domain}, domain, center, L, ell, q)
        assert dominated_check(f, domain, center, L, ell, q)
    assert neighbourhood_builds == [(center, L, ell)]


def test_force_dominated_gives_up_after_its_sweeps(monkeypatch):
    """A constant profile needs more than one clipping sweep: with one sweep
    allowed, the repair stops unstable."""
    center = cfg(0, 8)
    domain = sorted(distances_within(center, 6))
    monkeypatch.setattr(msa, "_SWEEPS", 1)
    with pytest.raises(BudgetExceededError, match="did not stabilize"):
        force_dominated(dict.fromkeys(domain, 1.0), domain, center, 3, 1, 0.5)
    monkeypatch.setattr(msa, "_SWEEPS", 64)
    assert dominated_check(force_dominated(dict.fromkeys(domain, 1.0), domain, center, 3, 1, 0.5),
                           domain, center, 3, 1, 0.5)


@pytest.mark.parametrize("routine", [dominated_check, force_dominated])
@pytest.mark.parametrize("q, L, ell", [(-0.5, 3, 1), (0.0, 3, 1), (1.0, 3, 1),
                                       (0.5, -1, 1), (0.5, 3, -1)])
def test_dominated_routines_reject_bad_parameters(routine, q, L, ell):
    center = cfg(0, 8)
    domain = sorted(distances_within(center, 6))
    with pytest.raises(ValueError):
        routine({c: 1.0 for c in domain}, domain, center, L, ell, q)


@pytest.mark.parametrize("routine", [dominated_check, force_dominated])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("form", ["dict", "callable", "array"])
@pytest.mark.parametrize("ell", [0, 1])
def test_dominated_routines_reject_non_finite_functions(routine, bad, form, ell):
    """NaN would make a ball max depend on the order of its members, and inf
    would dominate every ball that holds it; with ell = 0 every member is
    checked and force_dominated would otherwise return zeros unread."""
    center = cfg(0, 8)
    domain = sorted(distances_within(center, 6))
    values = [1.0] * len(domain)
    values[len(domain) // 2] = bad
    f = {"dict": dict(zip(domain, values)), "callable": dict(zip(domain, values)).__getitem__,
         "array": np.asarray(values)}[form]
    with pytest.raises(ValueError, match="finite"):
        routine(f, domain, center, 3, ell, 0.5)
    with pytest.raises(ValueError, match="finite"):
        routine(dict.fromkeys(domain, bad), domain, center, 3, ell, 0.5)


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
                          energy_cap=200, max_examples=0)
    assert rep.clean
    assert not rep.truncated   # no violation was left out
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


def test_sparseness_truncated_only_when_a_violation_is_left_out():
    H = assemble(box_configs(2, (0,), (10,)), g=0.0)

    def scan(cap):
        return sparseness_scan(H, L=0, m=1.0, g=1.0, delta=0.5, energy_cap=100,
                               max_examples=cap)

    counts = scan(0)
    total = counts.singular_pairs + counts.resonant_pairs
    full = scan(total)
    assert len(full.examples) == total and not full.truncated
    short = scan(total - 1)
    assert len(short.examples) == total - 1 and short.truncated


def test_sparseness_window_without_balls_gives_empty_report():
    H = assemble(box_configs(2, (0,), (3,)), g=1.0)
    rep = sparseness_scan(H, L=3, m=1.0, g=1.0, delta=0.5)
    assert rep == msa.SparsenessReport(3, 0, 0, 0, 0, (), False)
    assert rep.clean


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


def _pair_case(seed, n_balls, n_energies, density, far_density, layout="random"):
    """Random flag matrices and a random strictly upper-triangular far mask.

    ``layout`` sets the flag columns: "random" draws each one; "alternating"
    alternates two drawn columns; "runs" repeats drawn columns in runs of 37
    and flips one flag inside one run."""
    rng = np.random.default_rng(seed)

    def flags():
        if layout == "random":
            return rng.random((n_balls, n_energies)) < density
        if layout == "alternating":
            return (rng.random((n_balls, 2)) < density)[:, np.arange(n_energies) % 2]
        S = np.repeat(rng.random((n_balls, -(-n_energies // 37))) < density, 37,
                      axis=1)[:, :n_energies]
        S[rng.integers(n_balls), rng.integers(n_energies)] ^= True
        return S

    singular, resonant = flags(), flags()
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
       st.integers(0, 60), st.sampled_from(["random", "alternating", "runs"]))
@example(0, 6, 40, 0.0, 1.0, 50, "random")      # no flags
@example(1, 1, 40, 1.0, 1.0, 50, "random")      # one ball
@example(2, 8, 40, 1.0, 0.0, 50, "random")      # all pairs near
@example(3, 8, 300, 0.3, 0.5, 0, "random")      # no examples kept
@example(4, 8, 300, 0.3, 0.5, 1, "random")      # one example kept
@example(5, 8, 600, 1.0, 1.0, 50, "random")     # every flag and pair: one run of columns
@example(6, 8, 600, 0.5, 0.5, 50, "alternating")   # each column differs from the next
@example(7, 8, 600, 0.5, 0.5, 50, "runs")       # long runs, a change inside one
def test_far_pair_count_matches_loop(seed, n_balls, n_energies, density,
                                     far_density, max_examples, layout):
    case = _pair_case(seed, n_balls, n_energies, density, far_density, layout)
    _assert_pairs_match(case, max_examples)


def test_far_pair_runs():
    """Each run of equal neighbouring flag columns starts once: all-true flags
    make one run, alternating columns one run each, and a change inside a run
    splits it."""
    assert msa._run_starts(np.ones((3, 100), dtype=bool)).tolist() == [0]
    assert msa._run_starts(np.tile([True, False], (3, 50))).tolist() == list(range(100))
    S = np.zeros((3, 100), dtype=bool)
    S[0, 30:70] = True   # a run of 40 equal columns ...
    S[2, 50] = True      # ... with a change inside it
    assert msa._run_starts(S).tolist() == [0, 30, 50, 51, 70]
    assert msa._run_starts(np.zeros((3, 0), dtype=bool)).size == 0


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_far_pair_examples_cap_at_violation_count(seed):
    case = _pair_case(seed, 5, 30, 0.2, 0.7)
    s_pairs, r_pairs, _ = _scan_pairs_loop(*case, 0)
    assert s_pairs + r_pairs > 0
    for cap in (s_pairs + r_pairs - 1, s_pairs + r_pairs, s_pairs + r_pairs + 1):
        _assert_pairs_match(case, cap)


def _readme_window(**overrides):
    """README-config window assembled as ``andlab msa`` does."""
    exp = ExperimentConfig(n_particles=2, dim=1, seed=7, g=20.0, L0=2, omega=0.15, **overrides)
    window = capped_ball(_staircase(exp), min(exp.L0 ** 4, 30), exp.budget)
    hull = exp.hull(AmplitudeField(exp.seed))
    V = pot.config_potentials(hull, exp.system(), _omega(exp), window.members)
    H = assemble(window.members, V, exp.g, exp.interaction(exp.L0), exp.convention)
    return exp, H


@pytest.fixture(scope="module")
def readme_window():
    """README-config window at budget 30."""
    return _readme_window(budget=30)


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


def test_scan_builds_no_graph_per_ball(readme_window, monkeypatch, fresh_graphs):
    """The balls of a scan are read off the window's own graph: no operator
    or configuration graph is built per ball."""
    exp, H = readme_window
    H.graph   # the window's own graph
    built = []
    init = DomainGraph.__init__

    def counted(self, domain):
        built.append(domain)
        init(self, domain)

    monkeypatch.setattr(DomainGraph, "__init__", counted)
    rep = sparseness_scan(H, 2, exp.m, exp.g, exp.scales().level(0).delta)
    assert rep.n_balls > 0
    assert built == []


def _ball_table_by_eigh(H, L):
    """``_ball_table`` ball by ball, each with its own ``eigh`` call and boundary
    mask: the oracle of the stacked table."""
    graph = H.graph
    return [(i, *msa._ball_spectrum(H.matrix[np.ix_(idx, idx)], int(np.flatnonzero(idx == i)[0]),
                                    np.flatnonzero(graph.boundary(idx))))
            for i, idx in graph.balls(L)]


def _assert_tables_equal(got, want):
    assert len(got) == len(want)
    for (i, vals, w), (j, vals_want, w_want) in zip(got, want):
        assert i == j
        assert vals.dtype == vals_want.dtype and vals.shape == vals_want.shape
        assert w.dtype == w_want.dtype and w.shape == w_want.shape
        assert vals.tobytes() == vals_want.tobytes() and w.tobytes() == w_want.tobytes()


SPECIAL_DIAGONALS = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.3]


@pytest.mark.parametrize("special", SPECIAL_DIAGONALS)
def test_radius_zero_ball_table_reads_the_diagonal(special, monkeypatch):
    """At L = 0 each ball is its center and its eigenpair is read off the
    diagonal without eigh, with the bits eigh gives for the 1x1 block."""
    dom = box_configs(2, (0,), (6,))
    rng = np.random.default_rng(4)
    off = rng.normal(size=(len(dom), len(dom)))
    matrix = off + off.T
    matrix[np.diag_indices(len(dom))] = rng.normal(size=len(dom))
    matrix[[0, 5, 9], [0, 5, 9]] = special
    matrix[7, 7] = -0.0
    H = FiniteHamiltonian(tuple(dom), matrix, 1.0, "laplacian")
    want = _ball_table_by_eigh(H, 0)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called on a radius-0 ball")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    got = list(msa._ball_table(H, 0))
    assert len(got) == len(dom)
    _assert_tables_equal(got, want)


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shapes of the arrays passed to ``np.linalg.eigh`` during the test."""
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


def _random_operator(dom, seed):
    """A random symmetric matrix on ``dom``: every ball block has generic eigenvectors."""
    rng = np.random.default_rng(seed)
    off = rng.normal(size=(len(dom), len(dom)))
    return FiniteHamiltonian(tuple(dom), off + off.T, 1.0, "laplacian")


@pytest.mark.parametrize("dom, L", [(box_configs(2, (0,), (13,)), 1),
                                    (box_configs(2, (0,), (13,)), 3),
                                    (box_configs(2, (0, 0), (5, 5)), 1),
                                    (box_configs(2, (0, 0), (6, 6)), 2)])
@pytest.mark.parametrize("chunk_bytes", [1 << 22, 20_000])
def test_stacked_ball_table_matches_eigh_per_ball(dom, L, chunk_bytes, eigh_shapes,
                                                  monkeypatch):
    """The stacked eigensolves of ``_ball_table`` give each ball the bits of
    ``eigh`` on its own block, on windows whose balls come in several sizes,
    in one chunk per size or in many."""
    H = _random_operator(dom, 11)
    sizes = [idx.size for _, idx in H.graph.balls(L)]
    assert len(set(sizes)) >= 2
    monkeypatch.setattr(msa, "_EIGH_CHUNK_BYTES", chunk_bytes)
    got = msa._ball_table(H, L)
    calls = list(eigh_shapes)
    assert all(len(shape) == 3 for shape in calls) and sum(s[0] for s in calls) == len(sizes)
    _assert_tables_equal(got, _ball_table_by_eigh(H, L))
    if chunk_bytes < 1 << 22:   # some size group is split across chunks
        assert len(calls) > len(set(sizes))


def test_stacked_ball_table_with_nan_fails_as_per_ball():
    """A NaN inside one L >= 1 ball either raises the per-ball error type or
    gives the per-ball bits."""
    H = _random_operator(box_configs(2, (0,), (10,)), 3)
    i, idx = list(H.graph.balls(2))[4]
    matrix = H.matrix.copy()
    matrix[idx[0], idx[1]] = matrix[idx[1], idx[0]] = math.nan
    H = FiniteHamiltonian(H.domain, matrix, 1.0, "laplacian")
    outcomes = []
    for build in (msa._ball_table, _ball_table_by_eigh):
        try:
            outcomes.append(build(H, 2))
        except Exception as exc:   # noqa: BLE001 - the type is what is compared
            outcomes.append(type(exc))
    got, want = outcomes
    if isinstance(want, type):
        assert got is want
    else:
        _assert_tables_equal(got, want)


def _center_flags_by_ball(diagonal, energies, res_threshold, log_threshold):
    """Per-ball ``_ball_test`` flags of radius-0 balls, the oracle of ``_center_flags``."""
    with np.errstate(invalid="ignore"):   # inf - inf in the differences
        tests = [msa._ball_test(diagonal[i:i + 1], np.ones((1, 1)), energies,
                                res_threshold, log_threshold) for i in range(diagonal.size)]
    return np.array([t[3] for t in tests]), np.array([t[4] for t in tests])


@pytest.mark.parametrize("special", SPECIAL_DIAGONALS)
@pytest.mark.parametrize("res_threshold, log_threshold", [(0.3, -0.2), (0.0, math.inf),
                                                          (5e-324, -math.inf), (math.inf, 3.0)])
def test_center_flags_match_ball_test(special, res_threshold, log_threshold):
    """The one-pass radius-0 flags equal per-ball ``_ball_test`` on diagonals with
    signed zeros, NaN, infinities, a subnormal and exact ties, at every energy
    of the scan's grid of them plus a few more."""
    rng = np.random.default_rng(4)
    diagonal = rng.normal(size=21)
    diagonal[[0, 5, 9]] = special
    diagonal[7] = -0.0
    diagonal[[11, 12]] = diagonal[13]   # exact ties
    grid = np.unique(diagonal)
    grid = np.unique(np.concatenate([grid, (grid[:-1] + grid[1:]) / 2.0,
                                     [0.0, -0.0, math.inf, 5e-324, 1e300]]))
    got = msa._center_flags(diagonal, grid, res_threshold, log_threshold)
    want = _center_flags_by_ball(diagonal, grid, res_threshold, log_threshold)
    for flags, flags_want in zip(got, want):
        assert flags.dtype == flags_want.dtype == bool and flags.shape == (21, grid.size)
        assert np.array_equal(flags, flags_want)


@pytest.mark.parametrize("L", [0, 2])
def test_scan_matches_per_ball_paths_on_readme_window(readme_window, L, monkeypatch):
    """The README scans equal scans that diagonalize and flag ball by ball."""
    exp, H = readme_window
    delta = exp.scales().level(-1 if L == 0 else 0).delta
    got = sparseness_scan(H, L, exp.m, exp.g, delta, max_examples=10 ** 6)
    monkeypatch.setattr(msa, "_ball_table", _ball_table_by_eigh)
    monkeypatch.setattr(msa, "_center_flags", _center_flags_by_ball)
    want = sparseness_scan(H, L, exp.m, exp.g, delta, max_examples=10 ** 6)
    assert got == want and got.n_balls > 0


def test_readme_scan_stacks_its_eigensolves(eigh_shapes):
    """The README L = 2 scan (the full 281-configuration window) makes one
    stacked ``eigh`` call per chunk of equal-size balls, not one call per ball."""
    exp, H = _readme_window()
    sizes = Counter(idx.size for _, idx in H.graph.balls(2))
    # every size group fits in one chunk
    assert all(count * (16 * k * k + len(H.domain) + 1) <= msa._EIGH_CHUNK_BYTES
               for k, count in sizes.items())
    rep = sparseness_scan(H, 2, exp.m, exp.g, exp.scales().level(0).delta)
    assert rep.n_balls == sum(sizes.values()) == 218
    assert len(eigh_shapes) == len(sizes)
    assert sorted(shape[0] for shape in eigh_shapes) == sorted(sizes.values())


@pytest.mark.parametrize("bad", [{"energy_cap": 0}, {"energy_cap": -1}, {"max_examples": -1}])
def test_sparseness_scan_refuses_bad_caps(bad, monkeypatch):
    """``energy_cap < 1`` (a vacuous clean scan at 0) and ``max_examples < 0``
    are refused by name before any ball is built."""
    H = assemble(box_configs(2, (0,), (7,)), g=1.0)

    def no_table(*args):
        raise AssertionError("ball table built")

    monkeypatch.setattr(msa, "_ball_table", no_table)
    with pytest.raises(ValueError, match=next(iter(bad))):
        sparseness_scan(H, 0, 1.0, 1.0, 0.5, **bad)


@pytest.mark.parametrize("bad, message", [
    pytest.param({"g": math.nan}, "g = nan, delta = 0.001", id="g=NaN"),
    pytest.param({"g": math.inf}, "g = inf, delta = 0.001", id="g=inf"),
    pytest.param({"g": math.inf, "delta": 0.0}, "g = inf, delta = 0.0", id="g=inf,delta=0"),
    pytest.param({"delta": math.nan}, "g = 10.0, delta = nan", id="delta=NaN"),
    pytest.param({"delta": -1.0}, "g = 10.0, delta = -1.0", id="delta=-1"),
    pytest.param({"g": -10.0}, "g = -10.0, delta = 0.001", id="g=-10"),
    pytest.param({"g": 1e200, "delta": 1e200}, "g = 1e[+]200, delta = 1e[+]200", id="width=inf"),
    pytest.param({"L": -1}, "L >= 0, got -1", id="L=-1"),
])
def test_sparseness_scan_refuses_vacuous_widths_and_scales(bad, message, monkeypatch):
    """A NaN or infinite g, delta or g*delta flagged every far pair, a
    negative width none (a clean scan that cannot fail), and L < 0 crashed
    in argmax: each is refused by name before any ball is built."""
    H = assemble(box_configs(2, (0,), (5,)), g=1.0)

    def no_table(*args):
        raise AssertionError("ball table built")

    monkeypatch.setattr(msa, "_ball_table", no_table)
    args = {"L": 0, "m": 1.0, "g": 10.0, "delta": 1e-3, **bad}
    with pytest.raises(ValueError, match=message):
        sparseness_scan(H, **args)


def test_sparseness_scan_takes_a_zero_width():
    """An underflowed delta gives a width of 0.0, which stays a valid scan."""
    H = assemble(box_configs(2, (0,), (5,)), np.linspace(0.0, 3.0, 15), g=1.0)
    assert sparseness_scan(H, 0, 1.0, 10.0, 0.0).resonant_pairs == 0


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: classify_resonant([1.0, 4.0], 2.0, -1.0), "threshold >= 0, got -1.0",
                 id="classify_resonant-threshold=-1"),
    pytest.param(lambda: classify_resonant([1.0, 4.0], 2.0, math.nan),
                 "threshold >= 0, got nan", id="classify_resonant-threshold=NaN"),
    pytest.param(lambda: classify_resonant([1.0, 4.0, 100.0], 2.0, math.inf),
                 "finite resonance threshold >= 0, got inf",
                 id="classify_resonant-threshold=Infinity"),
    pytest.param(lambda: dominated_bound(3, -1, 0.5, 1.0), "ell >= 0, got -1",
                 id="dominated_bound-ell=-1"),
    pytest.param(lambda: dominated_bound(-2, 1, 0.5, 1.0), "L >= 0, got -2",
                 id="dominated_bound-L=-2"),
    pytest.param(lambda: dominated_check(np.ones(15), box_configs(2, (0,), (5,)), cfg(2, 3),
                                         -1, 0, 0.5), "L >= 0, got -1",
                 id="dominated_check-L=-1"),
    pytest.param(lambda: force_dominated(np.ones(15), box_configs(2, (0,), (5,)), cfg(2, 3),
                                         1, -1, 0.5), "ell >= 0, got -1",
                 id="force_dominated-ell=-1"),
    pytest.param(lambda: singularity_threshold_log(-1, 1.0, 2, 1), "L >= 0, got -1",
                 id="singularity_threshold_log-L=-1"),
    pytest.param(lambda: nr_ns_premises(ball_operator(cfg(0, 2), 2, g=1.0), cfg(0, 2), 2, -1,
                                        0.3, 1.0, 0.1), "ell >= 0, got -1",
                 id="nr_ns_premises-ell=-1"),
])
def test_negative_thresholds_and_scales_are_refused(call, message):
    """A negative threshold read every energy non-resonant, and a negative
    scale raised ZeroDivisionError or IndexError."""
    with pytest.raises(ValueError, match=message):
        call()


def test_one_graph_per_domain(monkeypatch, fresh_graphs):
    """The loops that revisit one domain (window operators and their
    localization reports; dominated-function repairs and checks) build its
    graph once."""
    built = []
    init = DomainGraph.__init__

    def counted(self, domain):
        built.append(len(domain))
        init(self, domain)

    monkeypatch.setattr(DomainGraph, "__init__", counted)
    dom = box_configs(2, (0,), (8,))
    for g in (1.0, 10.0, 100.0):
        H = assemble(dom, np.linspace(0.0, 1.0, len(dom)), g=g)
        localization_report(diagonalize(H), dom)
        envelope_decay_fit(diagonalize(H), dom)
    assert built == [len(dom)]
    center = cfg(0, 8)
    domain = sorted(distances_within(center, 4))
    for q in (0.3, 0.5):
        f = force_dominated(dict.fromkeys(domain, 1.0), domain, center, 2, 1, q)
        assert dominated_check(f, domain, center, 2, 1, q)
    assert built == [len(dom), len(domain)]


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


def test_localization_report_rejects_misshapen_eigenvalues():
    dom = box_configs(2, (0,), (3,))
    spec = diagonalize(assemble(dom, g=0.0))
    vals = spec.eigenvalues
    for bad in (np.append(vals, 9.0), vals[:-1], vals[:, None]):
        with pytest.raises(ValueError, match="does not match the domain"):
            localization_report(Spectrum(bad, spec.eigenvectors), dom)


def _window_spectrum():
    dom = box_configs(2, (0,), (5,))          # 15 configurations
    return diagonalize(assemble(dom, np.linspace(0.0, 3.0, len(dom)), g=5.0)), dom


@pytest.mark.parametrize("report", [localization_report, envelope_decay_fit])
@pytest.mark.parametrize("where", ["eigenvalues", "eigenvectors"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reports_refuse_non_finite_spectra(report, where, bad):
    spec, dom = _window_spectrum()
    vals, vecs = spec.eigenvalues.copy(), spec.eigenvectors.copy()
    if where == "eigenvalues":
        vals[3] = bad
    else:
        vecs[2, 4] = bad
    with pytest.raises(ValueError, match="non-finite eigenvalue or eigenvector"):
        report(Spectrum(vals, vecs), dom)


@pytest.mark.parametrize("report", [localization_report, envelope_decay_fit])
def test_reports_refuse_a_spectrum_of_another_size(report):
    spec, dom = _window_spectrum()
    with pytest.raises(ValueError, match="spectrum size does not match the domain"):
        report(spec, dom[:14])


def test_localization_report_empty_domain():
    rep = localization_report(Spectrum(np.zeros(0), np.zeros((0, 0))), ())
    assert repr(rep) == ("LocalizationReport(states=(), bijection=True, "
                         "fraction_unimodal=0.0, min_peak_mass=0.0)")


def _ols_fit(xs: np.ndarray, ys: np.ndarray):
    """Least-squares line through the points by ``np.polyfit``: (slope,
    intercept, R^2), the oracle for ``msa._ols_fits``."""
    coef = np.polyfit(xs, ys, 1)
    pred = np.polyval(coef, xs)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return float(coef[0]), float(coef[1]), 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _fits_by_rows(X, Y):
    """``msa._ols_fits`` as one (slope, intercept, R^2) tuple of floats per row."""
    return list(zip(*(a.tolist() for a in msa._ols_fits(np.asarray(X), np.asarray(Y)))))


@st.composite
def _fit_rows(draw):
    """(X, Y) of G in 1..6 rows and m in 3..40 points, each row holding x = 0
    and some x >= 1: integer x with repeats, or real x; |y| from 1e-3 to 1e3,
    either sign, with signed zeros among them."""
    G, m = draw(st.integers(1, 6)), draw(st.integers(3, 40))
    xs = st.one_of(st.integers(0, 6).map(float), st.floats(0.0, 50.0))
    ys = st.one_of(st.sampled_from([-0.0, 0.0]),
                   st.tuples(st.floats(1e-3, 1e3), st.booleans()).map(
                       lambda t: -t[0] if t[1] else t[0]))
    X = np.asarray(draw(st.lists(st.lists(xs, min_size=m, max_size=m), min_size=G, max_size=G)))
    Y = np.asarray(draw(st.lists(st.lists(ys, min_size=m, max_size=m), min_size=G, max_size=G)))
    zero, far = draw(st.integers(0, m - 1)), draw(st.integers(1, m - 1))
    far = (zero + far) % m
    X[:, zero] = 0.0
    X[:, far] = np.maximum(X[:, far], 1.0)
    return X, Y


@settings(max_examples=200, deadline=None)
@given(_fit_rows())
def test_ols_fits_rows_match_polyfit(rows):
    X, Y = rows
    expected = [_ols_fit(X[g].copy(), Y[g].copy()) for g in range(len(X))]
    assert repr(_fits_by_rows(X, Y)) == repr(expected)


@pytest.mark.parametrize("G", [1, 2, 5])
def test_ols_fits_fold_column_norms_past_the_pairwise_block(G):
    """polyfit sums its column norms as a left fold, and 1-D ``np.sum`` pairs
    them from m = 8 on: rows of real x at m = 3..40 (and one long row) tell
    the two apart, whatever the number of rows."""
    rng = np.random.default_rng(G)
    for m in [*range(3, 41), 3000]:
        X = rng.random((G, m)) * 40.0
        X[:, 0] = 0.0
        Y = rng.normal(size=(G, m)) * 10.0
        assert repr(_fits_by_rows(X, Y)) == repr([_ols_fit(X[g], Y[g]) for g in range(G)])


def test_localization_report_fits_in_one_pass_per_point_count(monkeypatch):
    """One ``_ols_fits`` call per distinct kept-point count, one ``lstsq`` per
    fitted state, and no ``np.polyfit``."""
    calls = Counter()
    shapes = []
    lstsq, fits = np.linalg.lstsq, msa._ols_fits

    def counted_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return lstsq(*args, **kwargs)

    def counted_fits(X, Y):
        shapes.append(X.shape)
        return fits(X, Y)

    def no_polyfit(*args, **kwargs):
        raise AssertionError("np.polyfit called")

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    monkeypatch.setattr(np, "polyfit", no_polyfit)
    monkeypatch.setattr(msa, "_ols_fits", counted_fits)
    H_win, dom = strong_disorder_instance()
    rep = localization_report(diagonalize(H_win), dom)
    fitted = sum(not math.isnan(s.decay_rate) for s in rep.states)
    assert fitted > len(dom) // 2
    assert calls["lstsq"] == fitted == sum(G for G, _ in shapes)
    counts = [m for _, m in shapes]
    assert counts == sorted(set(counts)) and len(counts) > 1


def _report_loop(spec, domain):
    """``localization_report`` as one loop over the eigenpairs, calling the scalar
    ``adaptive_noise_floor``: the reference for the array pass."""
    domain = tuple(domain)
    n = len(domain)
    dist = DomainGraph(domain).distances
    states = []
    for k in range(n):
        psi = np.abs(spec.eigenvectors[:, k])
        top = float(psi.max())
        centers = tuple(domain[i] for i in np.flatnonzero(psi >= top * (1 - 1e-9)))
        main = int(np.argmax(psi))
        peak = float(psi[main] ** 2)
        floor = adaptive_noise_floor(spec.eigenvalues, k)
        keep = (psi > floor) & (dist[main] >= 0)
        slope, r2 = math.nan, math.nan
        if int(keep.sum()) >= 3 and dist[main][keep].max() > 0:
            slope, _, r2 = _ols_fit(dist[main][keep].astype(float), -np.log(psi[keep]))
        states.append(msa.LocalizedState(
            k, float(spec.eigenvalues[k]), centers, peak, slope, r2,
            len(centers) == 1 and peak > 0.5, floor))
    mains = [s.centers[0] for s in states if len(s.centers) == 1]
    bijection = (len(mains) == n and len(set(mains)) == n)
    frac = sum(1 for s in states if s.unimodal) / n if n else 0.0
    min_peak = min((s.peak_mass for s in states), default=0.0)
    return msa.LocalizationReport(tuple(states), bijection, frac, min_peak)


LOCALIZE_BOX = box_configs(2, (0,), (6,))   # 21 configurations


def _localize_case(seed: int, shape: str, kind: str):
    """(spectrum, domain) for the report comparisons.

    Shapes: the box; a shuffled subset of it, which is no box, so its in-domain
    distances hold -1; one configuration; none.  Kinds: a random symmetric
    matrix; strong disorder, where most states are fitted; the free operator,
    whose mirror-symmetric states tie their centers exactly; and random
    eigenvectors under an unsorted spectrum with repeated values (floor inf).
    """
    rng = np.random.default_rng(seed)
    if shape == "box":
        domain = LOCALIZE_BOX
    elif shape == "subset":
        pick = rng.choice(len(LOCALIZE_BOX), size=int(rng.integers(2, 13)), replace=False)
        domain = tuple(LOCALIZE_BOX[i] for i in pick)
    else:
        domain = LOCALIZE_BOX[:1] if shape == "single" else ()
    n = len(domain)
    if kind == "random":
        m = rng.normal(size=(n, n))
        return diagonalize(FiniteHamiltonian(domain, m + m.T, 1.0, "none")), domain
    if kind == "disorder":
        return diagonalize(assemble(domain, rng.normal(size=n), g=30.0)), domain
    if kind == "free":
        return diagonalize(assemble(domain, g=0.0)), domain
    vecs = np.linalg.qr(rng.normal(size=(n, n)))[0] if n else np.zeros((0, 0))
    return Spectrum(rng.integers(0, 3, n).astype(float), vecs), domain


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["box", "subset", "single", "empty"]),
       st.sampled_from(["random", "disorder", "free", "repeated"]))
def test_localization_report_matches_state_loop(seed, shape, kind):
    spec, domain = _localize_case(seed, shape, kind)
    assert repr(localization_report(spec, domain)) == repr(_report_loop(spec, domain))


def test_peak_masses_square_like_a_scalar():
    """A numpy scalar squares through the C library's pow, which can round
    otherwise than numpy's array square.  Amplitudes where the two differ on
    this platform, if any, lead; the peak masses must keep the loop's bits."""
    domain = box_configs(2, (0,), (10,))   # 55 configurations
    amps = np.random.default_rng(3).random(200_000)
    differ = amps[amps ** 2 != np.asarray([a ** 2 for a in amps.tolist()])]
    spec = Spectrum(np.arange(len(domain), dtype=float),
                    np.diag(np.concatenate([differ, amps])[:len(domain)]))
    assert repr(localization_report(spec, domain)) == repr(_report_loop(spec, domain))


def test_localize_cases_reach_ties_gaps_and_fits():
    """The comparison above meets each regime it is meant to cover."""
    free = localization_report(*_localize_case(0, "box", "free"))
    assert any(len(s.centers) > 1 for s in free.states)
    repeated = localization_report(*_localize_case(0, "box", "repeated"))
    assert all(s.noise_floor == math.inf for s in repeated.states)
    assert (DomainGraph(_localize_case(0, "subset", "random")[1]).distances < 0).any()
    disorder = localization_report(*_localize_case(0, "box", "disorder"))
    assert sum(not math.isnan(s.decay_rate) for s in disorder.states) > len(LOCALIZE_BOX) // 2


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=12))
@example([0.0, 1e-9, 1.0])
@example([2.0])
@example([1.0, -0.0, 0.0, 1.0, 3.0])
@example([0.0, 1.0, 1e-14 * 2.0 ** 47])   # 32 eps = 2^-47: state 0's formula is 1e-14 exactly
def test_noise_floors_match_scalar_floor(vals):
    vals = np.asarray(vals, dtype=float)
    # repr tells np.float64 (the formula wins) from float (1e-14 or inf wins)
    with np.errstate(over="ignore"):   # the spread of extreme values overflows to inf
        expected = [repr(adaptive_noise_floor(vals, k)) for k in range(vals.size)]
        got = [repr(f) for f in msa._noise_floors(vals)]
    assert got == expected


# ---------------------------------------------------------------------------
# correlators
# ---------------------------------------------------------------------------

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


def test_envelope_decay_fit_single_configuration_is_unfit():
    H = assemble([cfg(0, 2)], potential=[1.5], g=1.0)
    fit = envelope_decay_fit(diagonalize(H), H.domain)
    assert math.isnan(fit.rate) and math.isnan(fit.prefactor)
    assert math.isnan(fit.r_squared)
    assert fit.n_pairs == 1


def _envelope_fit_oracle(spec, domain):
    """``envelope_decay_fit`` by a Python loop over the pairs i <= j, in
    row-major order, with ``math.log`` per kept pair."""
    domain = tuple(domain)
    n = len(domain)
    env = envelope_matrix(spec)
    dist = DomainGraph(domain).distances
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
        return msa.EnvelopeFit(math.nan, math.nan, math.nan, len(xs))
    (slope,), (intercept,), (r2,) = (a.tolist() for a in msa._ols_fits(
        np.asarray([xs], dtype=float), np.asarray([ys])))
    return msa.EnvelopeFit(-slope, math.exp(intercept), r2, len(xs))


@pytest.mark.parametrize("dom, n_pairs", [
    # two boxes 7 sites apart: no in-domain path joins them (distance -1)
    (box_configs(2, (0,), (3,)) + box_configs(2, (10,), (13,)), 42),
    # two unjoined configurations: only the 2 diagonal pairs clear the floor
    ((cfg(0, 1), cfg(5, 6)), 2),
    ((cfg(0, 2),), 1),
])
def test_envelope_decay_fit_matches_the_pair_loop_at_the_edges(dom, n_pairs):
    spec = diagonalize(assemble(dom, np.linspace(0.0, 3.0, len(dom)), g=5.0))
    fit = envelope_decay_fit(spec, dom)
    assert repr(fit) == repr(_envelope_fit_oracle(spec, dom))
    assert fit.n_pairs == n_pairs and isinstance(fit.n_pairs, int)


@st.composite
def _fit_windows(draw):
    """A subset of the two-fermion configurations of a 2..9-site box (often
    not a box itself, so some distances are -1), a potential and a g."""
    box = box_configs(2, (0,), (draw(st.integers(1, 8)),))
    picked = draw(st.lists(st.integers(0, len(box) - 1), min_size=1, unique=True))
    dom = tuple(box[i] for i in sorted(picked))
    V = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(dom), max_size=len(dom)))
    return dom, V, draw(st.sampled_from([0.0, 1.0, 1e2, 1e4]))


@settings(max_examples=100, deadline=None)
@given(_fit_windows())
def test_envelope_decay_fit_matches_the_pair_loop(case):
    dom, V, g = case
    spec = diagonalize(assemble(dom, V, g=g))
    assert repr(envelope_decay_fit(spec, dom)) == repr(_envelope_fit_oracle(spec, dom))


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
