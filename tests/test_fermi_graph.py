"""Configuration-graph unit tests.

The d=1 distance oracle used here is the sorted-matching formula: for two
N-point configurations on the line, the hop distance equals the sum of
coordinate differences after sorting both site lists.  It is kept local to
the tests on purpose; the library side must go through BFS.
"""

import copy
import dataclasses
import gc
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andlab import configs, msa
from andlab.configs import (
    DomainGraph,
    FermiConfig,
    ball,
    boundaries,
    box_configs,
    capped_ball,
    cluster_canonical_form,
    distances_within,
    domain_graph,
    graph_distance,
    matching_distances,
    neighbors,
    r_clusters,
    shift_equivalence_classes,
    site_dist,
    weakly_separated,
    weakly_separated_exhaustive,
)
from andlab.errors import BudgetExceededError
from andlab.operators import assemble


def matching_distance_1d(x, y):
    """Sorted-matching hop distance for d=1 configurations (test oracle)."""
    ax = sorted(s[0] for s in x.sites)
    ay = sorted(s[0] for s in y.sites)
    return sum(abs(a - b) for a, b in zip(ax, ay))


def brute_neighbors(x, lo=-50, hi=50):
    """All configurations reachable by one unit move of one particle."""
    out = set()
    sites = set(x.sites)
    for s in x.sites:
        for axis in range(len(s)):
            for step in (-1, 1):
                t = list(s)
                t[axis] += step
                t = tuple(t)
                if t in sites or not (lo <= t[axis] <= hi):
                    continue
                out.add(FermiConfig.make(list(sites - {s}) + [t]))
    return out


def cfg(*sites):
    return FermiConfig.make([(s,) if np.isscalar(s) else tuple(s) for s in sites])


# ---------------------------------------------------------------------------
# sites and metrics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    pytest.param(lambda: FermiConfig.make([(1.9,), (3,)]), id="make"),
    pytest.param(lambda: FermiConfig.make([2.5, 3]), id="make-scalar"),
    pytest.param(lambda: FermiConfig.make([(1, np.float64(2.0)), (3, 0)]), id="make-float64"),
    pytest.param(lambda: box_configs(1, (0.7,), (2.2,)), id="box_configs"),
    pytest.param(lambda: FermiConfig.from_json([[1.0], [2]]), id="from_json"),
    pytest.param(lambda: cfg(1, 3).shifted((0.5,)), id="shifted"),
])
def test_non_integer_site_is_refused(make):
    """A coordinate that is not an integer is refused, not truncated."""
    with pytest.raises(ValueError, match="not an integer"):
        make()


def test_integer_sites_of_any_integer_type():
    assert FermiConfig.make([np.int64(2), (3,)]) == cfg(2, 3)
    assert cfg(2, 3).shifted(np.array([1])) == cfg(3, 4)
    assert box_configs(1, (np.int32(0),), (2,)) == [cfg(0), cfg(1), cfg(2)]


def test_site_metrics():
    assert site_dist((0, 0), (3, -4)) == 4
    assert site_dist((2,), (2,)) == 0


def test_config_construction_rejects_duplicates():
    with pytest.raises(ValueError):
        FermiConfig.make([(0,), (0,)])


def test_config_sorted_and_hashable():
    a = FermiConfig.make([(3,), (1,)])
    b = FermiConfig.make([(1,), (3,)])
    assert a == b
    assert a.sites == ((1,), (3,))
    assert len({a, b}) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.data())
def test_config_hash_is_stored_once(d, data):
    """The hash is computed when a configuration is made and is the dataclass
    hash of its sites; pickles, copies and replacements keep it right, and it
    is neither a field nor part of the JSON form."""
    site = st.tuples(*[st.integers(-30, 30)] * d)
    c = FermiConfig.make(data.draw(st.sets(site, min_size=1, max_size=6)))
    assert hash(c) == hash((c.sites,))
    for other in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c),
                  dataclasses.replace(c)):
        assert other == c and hash(other) == hash((other.sites,))
    moved = dataclasses.replace(c, sites=c.shifted((1,) * d).sites)
    assert hash(moved) == hash((moved.sites,)) and moved != c
    assert [f.name for f in dataclasses.fields(c)] == ["sites"]
    assert dataclasses.asdict(c) == {"sites": c.sites}
    assert c.to_json() == [list(s) for s in c.sites]
    assert FermiConfig.from_json(c.to_json()) == c


def test_json_round_trip():
    a = cfg((0, 2), (5, -1))
    assert FermiConfig.from_json(a.to_json()) == a


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------

def test_neighbors_match_brute_force_1d():
    for sites in itertools.combinations(range(6), 2):
        x = cfg(*sites)
        assert set(neighbors(x)) == brute_neighbors(x)


def test_neighbors_match_brute_force_2d():
    x = FermiConfig.make([(0, 0), (0, 1), (2, 2)])
    assert set(neighbors(x)) == brute_neighbors(x)


def test_adjacency_is_symmetric():
    x = cfg(0, 3, 4)
    for y in neighbors(x):
        assert x in neighbors(y)


def test_blocked_move_excluded():
    # particles at 0,1: the two inward moves are Pauli-blocked
    x = cfg(0, 1)
    assert set(neighbors(x)) == {cfg(-1, 1), cfg(0, 2)}


# ---------------------------------------------------------------------------
# BFS distance vs the d=1 oracle
# ---------------------------------------------------------------------------

def test_graph_distance_matches_matching_formula():
    window = box_configs(2, (0,), (7,))
    for x, y in itertools.combinations(window, 2):
        assert graph_distance(x, y) == matching_distance_1d(x, y)


def test_graph_distance_cap_returns_none():
    x, y = cfg(0, 1), cfg(10, 12)
    assert graph_distance(x, y, cap=3) is None
    assert graph_distance(x, y) == matching_distance_1d(x, y)


def test_distances_within_agrees_with_pairwise():
    x = cfg(0, 2)
    table = distances_within(x, 4)
    assert table[x] == 0
    for y, rho in table.items():
        assert graph_distance(x, y) == rho
        assert rho <= 4


def test_single_particle_ball_sizes():
    # N=1 graph distance is plain l1 distance, so ball sizes are exact
    c1 = FermiConfig.make([(0,)])
    for L in range(4):
        assert len(ball(c1, L).members) == 2 * L + 1
    c2 = FermiConfig.make([(0, 0)])
    for L in range(4):
        assert len(ball(c2, L).members) == 2 * L * (L + 1) + 1


def test_ball_membership_and_index():
    b = ball(cfg(0, 1), 2)
    assert b.center in b.members
    idx = {c: i for i, c in enumerate(b.members)}
    assert sorted(idx.values()) == list(range(len(b.members)))
    assert all(y in b for y in b.members) and cfg(0, 9) not in b and cfg(-9, 9) not in b
    for y in b.members:
        assert graph_distance(b.center, y) <= 2


def test_ball_budget_checked_shell_by_shell(neighbor_calls):
    with pytest.raises(BudgetExceededError):
        ball(cfg(0, 1), 60, max_size=50)
    # the whole radius-60 ball has 3,691 members; stop near the 50-member shell
    assert len(neighbor_calls) < 200
    exact = ball(cfg(0, 1), 3)
    assert ball(cfg(0, 1), 3, max_size=len(exact)) == exact
    with pytest.raises(BudgetExceededError):
        ball(cfg(0, 1), 3, max_size=len(exact) - 1)


def test_capped_ball_honest_radius():
    b = capped_ball(cfg(0, 1), 6, budget=10)
    assert len(b.members) <= 10
    assert b.radius < 6
    full = ball(cfg(0, 1), b.radius)
    assert set(full.members) == set(b.members)


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------

def test_boundaries_brute_force():
    domain = ball(cfg(0, 1), 2).members
    inner, outer, edges = boundaries(domain)
    dset = set(domain)
    for x in dset:
        touches = any(y not in dset for y in neighbors(x))
        assert (x in inner) == touches
    for y in outer:
        assert y not in dset
        assert any(z in dset for z in neighbors(y))
    for z, w in edges:
        assert z in inner and w in outer
        assert w in set(neighbors(z))
    # every outer config is reached by some edge
    assert {w for _, w in edges} == set(outer)


# ---------------------------------------------------------------------------
# clusters and shift classes
# ---------------------------------------------------------------------------

def test_r_clusters_partition():
    x = cfg(0, 1, 5, 6, 20)
    dec = r_clusters(x, 2)
    got = sorted(s for c in dec.clusters for s in c)
    assert got == sorted(x.sites)
    assert len(dec.clusters) == 3
    assert sorted(len(c) for c in dec.clusters) == [1, 2, 2]


def test_clusters_are_maximal():
    x = cfg(0, 1, 5, 6, 20)
    dec = r_clusters(x, 2)
    for a, b in itertools.combinations(dec.clusters, 2):
        gap = min(site_dist(s, t) for s in a for t in b)
        assert gap > 2


def test_canonical_form_shift_invariant():
    x = cfg(0, 1, 7)
    y = x.shifted((11,))
    assert cluster_canonical_form(x, 2) == cluster_canonical_form(y, 2)


def test_shift_classes_two_particles_1d():
    # gaps 1..t are distinct classes; all wider gaps collapse into split shapes
    for t in (1, 2, 3):
        classes = shift_equivalence_classes(2, 1, t)
        assert len(classes) == t + 1


@pytest.mark.parametrize("call", [
    pytest.param(lambda: box_configs(2, (0,), (999_999,)), id="box_configs"),
    pytest.param(lambda: box_configs(2, (0, 0), (999, 999)), id="box_configs-d=2"),
    pytest.param(lambda: shift_equivalence_classes(2, 1, 500_000),
                 id="shift_equivalence_classes"),
])
def test_enumeration_budget_is_checked_before_the_sites_are_listed(call):
    """A refused enumeration of 10^6 sites listed them all first (about 92 MB)."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_box_with_an_empty_axis_holds_no_configuration():
    # two empty axes hold no site, not (-1) * (-1) = 1 of them
    assert box_configs(1, (0, 0), (-2, -2), budget=0) == []
    assert box_configs(1, (0, 3), (2, 2), budget=0) == []


# ---------------------------------------------------------------------------
# weak separation
# ---------------------------------------------------------------------------

def check_witness(x, y, wit):
    lo, hi = np.asarray(wit.lower), np.asarray(wit.upper)

    def inside(s):
        return bool(np.all(lo <= s) and np.all(s <= hi))

    big, small = (x, y) if wit.role == "first" else (y, x)
    assert sum(inside(np.asarray(s)) for s in big.sites) == wit.count_inner
    assert sum(inside(np.asarray(s)) for s in small.sites) == wit.count_other
    assert wit.count_inner > wit.count_other


def test_weak_separation_witness_valid():
    x, y = cfg(0, 1), cfg(5, 9)
    wit = weakly_separated(x, y, 1)
    assert wit is not None
    check_witness(x, y, wit)


def test_weak_separation_l0_distinct_always():
    x, y = cfg(0, 1), cfg(0, 2)
    wit = weakly_separated(x, y, 0)
    assert wit is not None
    check_witness(x, y, wit)
    assert weakly_separated(x, x, 0) is None


def test_weak_separation_agrees_with_exhaustive():
    window = box_configs(2, (0,), (9,))
    for L in (0, 1):
        for x, y in itertools.combinations(window, 2):
            fast = weakly_separated(x, y, L)
            slow = weakly_separated_exhaustive(x, y, L)
            if slow is None:
                assert fast is None
            if fast is not None:
                check_witness(x, y, fast)


def test_distant_pairs_always_separated():
    # hop distance beyond 3NL guarantees a witness
    window = box_configs(2, (0,), (11,))
    L = 1
    cap = 3 * 2 * L
    for x, y in itertools.combinations(window, 2):
        rho = graph_distance(x, y, cap=cap + 1)
        if rho is None or rho > cap:
            assert weakly_separated(x, y, L) is not None


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

site_lists = st.lists(st.integers(-8, 8), min_size=2, max_size=4, unique=True)


@settings(max_examples=60, deadline=None)
@given(site_lists, st.integers(-5, 5))
def test_distance_shift_invariant(sites, shift):
    x = cfg(*sites)
    y = cfg(*[s + 1 for s in sites])
    sx, sy = x.shifted((shift,)), y.shifted((shift,))
    assert graph_distance(x, y) == graph_distance(sx, sy)


@settings(max_examples=60, deadline=None)
@given(site_lists)
def test_distance_zero_iff_equal(sites):
    x = cfg(*sites)
    assert graph_distance(x, x) == 0
    for y in neighbors(x):
        assert graph_distance(x, y) == 1


@settings(max_examples=30, deadline=None)
@given(site_lists, site_lists)
def test_pairwise_distance_symmetry(a, b):
    try:
        x, y = cfg(*a), cfg(*b)
    except ValueError:
        return
    if len(x.sites) != len(y.sites):
        return
    dxy = graph_distance(x, y, cap=80)
    dyx = graph_distance(y, x, cap=80)
    assert dxy == dyx


# ---------------------------------------------------------------------------
# DomainGraph against per-configuration BFS oracles
# ---------------------------------------------------------------------------

def domain_graph_distances(domain):
    """All-pairs BFS distances on the sub-graph induced by the domain, one
    search per source over adjacency lists built from neighbors() (oracle)."""
    domain = tuple(domain)
    idx = {c: i for i, c in enumerate(domain)}
    adj = [[] for _ in domain]
    for i, c in enumerate(domain):
        for nb in neighbors(c):
            j = idx.get(nb)
            if j is not None:
                adj[i].append(j)
    n = len(domain)
    dist = np.full((n, n), -1, dtype=int)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[s, v] < 0:
                        dist[s, v] = d
                        nxt.append(v)
            frontier = nxt
    return dist


BOX_1D = box_configs(2, (0,), (8,))
BOX_2D = box_configs(2, (0, 0), (2, 2))
BOX_3 = box_configs(3, (0,), (6,))
BOX_6 = box_configs(6, (0, 0), (1, 3))
POOLS = {(2, 1): BOX_1D, (2, 2): BOX_2D, (3, 1): BOX_3, (6, 2): BOX_6}
domains = st.one_of(
    st.lists(st.sampled_from(BOX_1D), min_size=1, max_size=24, unique=True),
    st.lists(st.sampled_from(BOX_2D), min_size=1, max_size=24, unique=True),
    st.lists(st.sampled_from(BOX_3), min_size=1, max_size=24, unique=True),
    st.lists(st.sampled_from(BOX_6), min_size=1, max_size=24, unique=True),
)


@settings(max_examples=60, deadline=None)
@given(domains)
def test_domain_graph_distances_match_oracle(domain):
    got = DomainGraph(domain).distances
    want = domain_graph_distances(domain)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def at(domain, idx) -> list:
    """The configurations at member positions ``idx``."""
    return [domain[i] for i in idx]


@settings(max_examples=40, deadline=None)
@given(domains, st.integers(0, 2))
def test_domain_graph_balls_and_boundaries(domain, L):
    graph = DomainGraph(domain)
    dset = set(domain)
    expect = [(c, sorted(distances_within(c, L))) for c in domain
              if set(distances_within(c, L)) <= dset]
    got = list(graph.balls(L))
    assert [(domain[i], at(domain, idx)) for i, idx in got] == expect
    for _, idx in got:
        assert at(domain, idx[graph.boundary(idx)]) == sorted(boundaries(at(domain, idx))[0])
    order = graph.order
    assert at(domain, order) == sorted(domain)
    assert at(domain, order[graph.boundary(order)]) == sorted(boundaries(domain)[0])


def boundary_oracle(graph, members) -> list:
    """Sorted inner boundary of ``members``, a subset of the domain: the
    members with a lattice neighbour outside ``members``."""
    inside = set(members)
    lists, index = graph.neighbor_lists, graph.index
    return sorted(x for x in inside if any(y not in inside for y in lists[index[x]]))


def boundaries_oracle(domain):
    """Inner boundary, outer boundary and crossing edge pairs of a finite domain."""
    graph = DomainGraph(set(domain))
    edges = sorted((x, y) for x, nbs in zip(graph.domain, graph.neighbor_lists)
                   for y in nbs if y not in graph.index)
    return (frozenset(x for x, _ in edges), frozenset(y for _, y in edges),
            tuple(edges))


@settings(max_examples=60, deadline=None)
@given(domains, st.data())
def test_leaving_edges_match_oracles(domain, data):
    graph = DomainGraph(domain)
    members = data.draw(st.lists(st.sampled_from(domain), unique=True))
    mask = graph.boundary([graph.index[c] for c in members])
    assert mask.shape == (len(members),)
    assert sorted(c for c, inner in zip(members, mask) if inner) == boundary_oracle(graph, members)
    assert boundaries(members) == boundaries_oracle(members)
    assert boundaries(domain) == boundaries_oracle(domain)


def boundary_loop(graph, idx) -> np.ndarray:
    """``DomainGraph.boundary`` as the per-member loop it replaced, kept as its oracle."""
    idx = np.asarray(idx, dtype=int).tolist()
    inside, adjacency, lists = set(idx), graph.adjacency, graph.neighbor_lists
    return np.asarray([sum(j in inside for j in adjacency[i]) < len(lists[i]) for i in idx],
                      dtype=bool)


@settings(max_examples=60, deadline=None)
@given(st.one_of(domains, st.sampled_from([BOX_1D, BOX_3])), st.data())
def test_boundary_matches_member_loop(domain, data):
    """One member set, or a stack of equal-size sets masked in one pass, gives
    the masks of the per-member loop, set by set: random sets, and the balls
    of a full box, whose inner members are not on the boundary."""
    graph = DomainGraph(domain)
    balls = [idx for _, idx in graph.balls(1)]
    for size in {idx.size for idx in balls}:
        stack = np.stack([idx for idx in balls if idx.size == size])
        assert np.array_equal(graph.boundary(stack), [boundary_loop(graph, idx) for idx in stack])
    positions = st.integers(0, len(domain) - 1)
    size = data.draw(st.integers(0, len(domain)))
    stack = data.draw(st.lists(st.lists(positions, min_size=size, max_size=size, unique=True),
                               min_size=1, max_size=5))
    for idx in stack:
        got = graph.boundary(idx)
        assert got.dtype == bool and np.array_equal(got, boundary_loop(graph, idx))
    got = graph.boundary(np.asarray(stack, dtype=int).reshape(len(stack), size))
    assert got.shape == (len(stack), size) and got.dtype == bool
    assert np.array_equal(got, [boundary_loop(graph, idx) for idx in stack])


@settings(max_examples=40, deadline=None)
@given(domains, st.data(), st.integers(0, 4))
def test_far_mask_matches_graph_distance(domain, data, sep):
    rows = data.draw(st.lists(st.integers(0, len(domain) - 1), max_size=8, unique=True))
    centers = at(domain, rows)
    mask = DomainGraph(domain).far(rows, sep)
    assert mask.shape == (len(centers), len(centers)) and mask.dtype == bool
    for i, j in itertools.product(range(len(centers)), repeat=2):
        want = i < j and graph_distance(centers[i], centers[j], cap=sep) is None
        assert mask[i, j] == want


def site_box(d, side):
    return list(itertools.product(range(side), repeat=d))


# (d, N) -> (sites, BFS cap): every ball searched stays small
MATCHING_CASES = {
    (1, 1): (site_box(1, 9), 8), (1, 2): (site_box(1, 9), 8),
    (1, 3): (site_box(1, 9), 8), (1, 4): (site_box(1, 9), 8),
    (2, 1): (site_box(2, 4), 5), (2, 2): (site_box(2, 4), 5),
    (2, 3): (site_box(2, 3), 5), (2, 4): (site_box(2, 3), 4),
    (3, 1): (site_box(3, 2), 4), (3, 2): (site_box(3, 2), 4),
    (3, 3): (site_box(3, 2), 3), (3, 4): (site_box(3, 2), 3),
    (2, 5): (site_box(2, 3), 3), (3, 5): (site_box(3, 2), 3),
    # 7 sites of l1 diameter 3: every pair of configurations is within radius 3
    (2, 6): (site_box(2, 3)[:6] + [(2, 1)], 3),
    (2, 7): (site_box(2, 3), 3),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(MATCHING_CASES)), st.data(), st.booleans())
def test_matching_distances_match_bfs(case, data, chunked):
    (d, n), (pool, cap) = case, MATCHING_CASES[case]
    draw = st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True)
    xs, ys = ([FermiConfig.make(data.draw(draw)) for _ in range(data.draw(st.integers(1, k)))]
              for k in (3, 4))
    ys.extend(neighbors(xs[0])[:2])
    with pytest.MonkeyPatch.context() as mp:
        if chunked:   # one row per chunk
            mp.setattr(configs, "_MATCH_TEMP", 1)
        got = matching_distances(np.asarray([x.sites for x in xs]),
                                 np.asarray([y.sites for y in ys]))
    assert got.shape == (len(xs), len(ys)) and got.dtype == np.int64
    for i, x in enumerate(xs):
        near = distances_within(x, cap)
        for j, y in enumerate(ys):
            assert near.get(y, -1) == (got[i, j] if got[i, j] <= cap else -1)


def test_matching_distances_bfs_fallback():
    """Six particles in d=2: all 7 configurations on the 7-site pool, whose
    pairwise distances are at most 3."""
    configs_6 = [FermiConfig(c) for c in itertools.combinations(MATCHING_CASES[2, 6][0], 6)]
    xs, ys = configs_6[:4], configs_6[2:]
    got = matching_distances(np.asarray([x.sites for x in xs]), np.asarray([y.sites for y in ys]))
    assert got.tolist() == [[distances_within(x, 3)[y] for y in ys] for x in xs]


def gapped_pairs():
    """Every pair of sites in {0, 1, 2, 4, 5}: not a box, split at site 3."""
    return [FermiConfig(c) for c in itertools.combinations([(0,), (1,), (2,), (4,), (5,)], 2)]


@pytest.mark.parametrize("domain", [box_configs(2, (0,), (7,)), box_configs(3, (0,), (6,)),
                                    box_configs(2, (0, 0), (2, 3)),
                                    box_configs(3, (0, 0), (2, 2)), gapped_pairs(),
                                    box_configs(6, (0, 0), (1, 3)),
                                    box_configs(4, (0, 0), (2, 2))])
@pytest.mark.parametrize("drop", [None, 0, 7])
def test_domain_graph_distances_on_site_boxes(domain, drop):
    if drop is not None:
        domain = domain[:drop] + domain[drop + 1:]
    graph = DomainGraph(domain)
    want = domain_graph_distances(domain)
    assert np.array_equal(graph.distances, want) and graph.distances.dtype == want.dtype
    full_box = drop is None and len(domain) != len(gapped_pairs())
    assert (graph.distances is graph.metric) == full_box


def test_six_fermion_window_searches_only_what_it_needs(neighbor_calls):
    """Six particles in d=2 on a full site box: in-domain distances, far pairs
    and dominated neighbourhoods are read off the matching metric, and the only
    searches are one neighbours call per member, the exposure check of balls."""
    domain, graph = BOX_6, DomainGraph(BOX_6)
    dist = graph.distances
    balls = [(domain[i], at(domain, idx)) for i, idx in graph.balls(1)]
    far = graph.far(range(12), 2)
    _, getters, _ = msa._dominated_setup(dict.fromkeys(domain, 1.0), domain, domain[10],
                                         1, 0, 0.5)[1]
    assert len(neighbor_calls) == len(domain)
    assert np.array_equal(dist, domain_graph_distances(domain))
    assert balls == [(c, sorted(distances_within(c, 1))) for c in domain
                     if set(distances_within(c, 1)) <= set(domain)]
    assert far.tolist() == [[i < j and graph_distance(x, y, cap=2) is None
                             for j, y in enumerate(domain[:12])] for i, x in enumerate(domain[:12])]
    positions = list(range(len(domain)))
    assert {domain[x]: sorted(at(domain, getter(positions)[1:])) for x, getter in getters} == {
        x: sorted(y for y in distances_within(x, 1) if y in graph.index)
        for x in domain if graph_distance(domain[10], x, cap=2) is not None}


def test_radius_zero_balls_need_no_distances():
    graph = DomainGraph(BOX_2D)
    assert [(i, idx.tolist()) for i, idx in graph.balls(0)] == [(i, [i]) for i in range(len(BOX_2D))]
    assert "metric" not in vars(graph)


def test_far_reads_the_cached_metric(monkeypatch):
    graph = DomainGraph(BOX_3)
    metric = graph.metric
    monkeypatch.setattr(configs, "matching_distances", None)   # no second computation
    idx = list(range(0, len(BOX_3), 3))
    assert np.array_equal(graph.far(idx, 4), np.triu(metric[np.ix_(idx, idx)] > 4, 1))


def test_mismatched_configurations_are_rejected():
    graph = DomainGraph(box_configs(3, (0,), (5,)))
    pair, plane = FermiConfig.make([0, 1]), FermiConfig.make([(0, 0), (0, 1), (0, 2)])
    for outsider in (pair, plane):
        with pytest.raises(ValueError, match="incompatible configurations"):
            DomainGraph([graph.domain[0], outsider]).far([0, 1], 2)
        with pytest.raises(ValueError, match="incompatible configurations"):
            msa.dominated_check(dict.fromkeys(graph.domain, 1.0), graph.domain, outsider, 1, 0, 0.5)


def test_domain_graph_rejects_repeats():
    with pytest.raises(ValueError):
        DomainGraph([cfg(0, 1), cfg(0, 2), cfg(0, 1)])


def test_equal_domains_share_one_graph(fresh_graphs, monkeypatch):
    """Equal domains, however built, get one graph; a domain in another
    order gets its own, with its own positions.  A repeat call on the most
    recent domain's own members hashes nothing; an older domain is found by
    its hash and becomes the most recent."""
    dom = box_configs(2, (0,), (6,))
    graph = domain_graph(tuple(dom))
    assert domain_graph(tuple(box_configs(2, (0,), (6,)))) is graph
    assert assemble(dom).graph is graph and assemble(dom, g=2.0).graph is graph
    flipped = domain_graph(tuple(reversed(dom)))
    assert flipped is not graph
    assert flipped.index[dom[0]] == len(dom) - 1 and graph.index[dom[0]] == 0
    assert np.array_equal(flipped.metric, graph.metric[::-1, ::-1])
    hashed = []
    monkeypatch.setattr(FermiConfig, "__hash__", lambda c: hashed.append(c) or c._hash)
    assert domain_graph(tuple(reversed(dom))) is flipped
    assert hashed == []
    assert domain_graph(tuple(dom)) is graph
    assert len(hashed) >= len(dom) and next(reversed(configs._graphs.values())) is graph
    assert domain_graph(tuple(dom)) is graph and list(configs._graphs.values()) == [flipped, graph]


def test_domain_graph_takes_lists_on_a_warm_cache(fresh_graphs):
    """A list domain, as ``box_configs`` returns one, finds or builds its
    graph whatever the cache already holds."""
    first = domain_graph(box_configs(2, (0,), (4,)))
    second = domain_graph(box_configs(2, (0,), (5,)))
    assert second.domain == tuple(box_configs(2, (0,), (5,)))
    assert domain_graph(box_configs(2, (0,), (4,))) is first


@pytest.mark.parametrize("drop", [None, 3])
def test_cached_graph_arrays_refuse_writes(fresh_graphs, drop):
    dom = box_configs(2, (0,), (6,))
    if drop is not None:   # off a full box, distances come from the in-domain searches
        dom = dom[:drop] + dom[drop + 1:]
    graph = domain_graph(tuple(dom))
    for name in ("sites", "degrees", "metric", "distances", "order"):
        arr = getattr(graph, name)
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]
    assert (graph.distances is graph.metric) == (drop is None)


def test_cached_graph_containers_refuse_writes(fresh_graphs):
    """A shared graph's index, neighbour lists and adjacency cannot be
    edited, so no caller can change the graph another caller gets."""
    dom = box_configs(2, (0,), (6,))
    graph = assemble(dom).graph
    with pytest.raises(TypeError):
        graph.index[cfg(50, 51)] = 0
    with pytest.raises(TypeError):
        del graph.index[dom[0]]
    for rows in (graph.neighbor_lists, graph.adjacency):
        assert isinstance(rows, tuple) and all(isinstance(r, tuple) for r in rows)
        with pytest.raises(AttributeError):
            rows[0].append(9)
    assert assemble(dom).graph is graph
    assert graph.adjacency == tuple(tuple(graph.index[y] for y in neighbors(x) if y in dom)
                                    for x in dom)


def test_graph_cache_stays_bounded(fresh_graphs):
    domains = [tuple(box_configs(2, (0,), (k,))) for k in range(2, 22)]
    first = domain_graph(domains[0])
    for dom in domains:
        assert domain_graph(dom).domain == dom
    assert len(configs._graphs) == configs._GRAPHS_MAX < len(domains)
    assert domain_graph(domains[0]) is not first   # evicted, then built again
    assert domain_graph(domains[-1]) is domain_graph(domains[-1])


def test_graph_cache_bounds_its_memory(fresh_graphs, monkeypatch):
    """The kept graphs stay within the byte budget: a domain over the whole
    budget is built for its caller and not kept, and older graphs make room
    for a new one; the memory of a graph nobody holds is returned."""
    small, large = (tuple(box_configs(2, (0,), (k,))) for k in (6, 40))
    assert configs._graph_bytes(small) < configs._graph_bytes(large)
    monkeypatch.setattr(configs, "_GRAPH_BYTES_MAX", configs._graph_bytes(large) - 1)
    graph = domain_graph(small)
    assert domain_graph(small) is graph
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        big = domain_graph(large)
        big.distances, big.adjacency, big.order
        assert domain_graph(large) is not big
        assert list(configs._graphs) == [small]
        held = tracemalloc.get_traced_memory()[0] - base
        del big
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held > 16 * len(large) ** 2 // 2   # the graph's metric, 820 x 820 int64
    assert left < held // 50
    kept = [tuple(box_configs(2, (0,), (k,))) for k in (5, 4, 3)]
    monkeypatch.setattr(configs, "_GRAPH_BYTES_MAX",
                        configs._graph_bytes(small) + configs._graph_bytes(kept[0]))
    for dom in kept:
        domain_graph(dom)
    assert sum(map(configs._graph_bytes, configs._graphs)) <= configs._GRAPH_BYTES_MAX
    assert small not in configs._graphs and list(configs._graphs)[-1] == kept[-1]
