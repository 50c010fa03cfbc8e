"""Configuration space of N indistinguishable fermions on the lattice Z^d.

A configuration is an N-element set of distinct lattice sites, stored as a
lexicographically sorted tuple.  Two configurations are adjacent when exactly
one particle moves to a vacant lattice nearest neighbor (l1 step of length 1);
graph distance, balls and boundaries all refer to this adjacency.

Norm conventions, fixed package-wide: particle moves and the interaction
range use the l1 site distance, while cluster decompositions and enclosing
cubes use the max-norm, which matches the axis-aligned cube geometry of the
separation construction.

Two graph distances are in use.  The full-lattice distance lets paths leave
any domain.  It is the least total l1 distance over the matchings of the two
site sets: :func:`matching_distances` and :attr:`DomainGraph.metric` compute
it for every particle number.  The rules of :class:`DomainGraph` read balls,
dominated-function neighbourhoods and far ball pairs off it by member
position; a domain is indexed once.  The breadth-first searches
:func:`distances_within`, :func:`ball`, :func:`graph_distance` and
:func:`capped_ball` enumerate balls and are its oracle.  The in-domain
distance keeps paths inside a finite domain: :attr:`DomainGraph.distances`
measures it, for the localization and envelope fits, and the kinetic degrees
of ``assemble`` count in-domain edges only; every search is :func:`_shells`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from types import MappingProxyType
from typing import Iterable, Optional

import numpy as np

from .errors import BudgetExceededError

Site = tuple
_MATCH_TEMP = 1 << 18   # int64 entries per row chunk of matching_distances: 2 MB


def site_dist(p: Site, q: Site) -> int:
    """Max-norm distance between two lattice sites."""
    return max(abs(a - b) for a, b in zip(p, q))


def _as_site(point, dim: Optional[int] = None) -> Site:
    """``point`` as a tuple of ints (an int is a 1-d site); a coordinate that
    is not an integer is refused, not truncated."""
    point = tuple(point) if np.iterable(point) else (point,)
    try:
        site = tuple(map(operator.index, point))
    except TypeError:
        raise ValueError(f"site {point} has a coordinate that is not an integer") from None
    if dim is not None and len(site) != dim:
        raise ValueError(f"site {site} has dimension {len(site)}, expected {dim}")
    return site


@dataclass(frozen=True, order=True)
class FermiConfig:
    """Sorted tuple of N distinct sites in Z^d.

    The hash is computed once, when the configuration is made, and stored
    outside the dataclass fields: it is ``hash((sites,))``, the value the
    dataclass would compute on every call, so set and dict orders are unchanged.
    """

    sites: tuple

    def __post_init__(self):
        sites = self.sites
        if not sites:
            raise ValueError("configuration needs at least one particle")
        d = len(sites[0])
        prev = None
        for s in sites:
            if len(s) != d:
                raise ValueError("sites of mixed dimension")
            if prev is not None and s <= prev:
                raise ValueError(f"sites must be sorted and distinct, got {sites}")
            prev = s
        object.__setattr__(self, "_hash", hash((sites,)))

    def __hash__(self):
        return self._hash

    @classmethod
    def make(cls, points: Iterable) -> "FermiConfig":
        """Canonicalize a collection of sites; integers are accepted for d=1."""
        sites = tuple(sorted(_as_site(p) for p in points))
        return cls(sites)

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def d(self) -> int:
        return len(self.sites[0])

    def shifted(self, a) -> "FermiConfig":
        """Translate every particle by the lattice vector ``a``."""
        a = _as_site(a, self.d)
        return FermiConfig(tuple(sorted(tuple(c + da for c, da in zip(s, a)) for s in self.sites)))

    def to_json(self) -> list:
        return [list(s) for s in self.sites]

    @classmethod
    def from_json(cls, data) -> "FermiConfig":
        return cls.make(data)


def neighbors(x: FermiConfig) -> list:
    """All configurations reachable by moving one particle to a vacant l1 neighbor."""
    occ = set(x.sites)
    d = x.d
    out = []
    sites = x.sites
    for i, p in enumerate(sites):
        for ax in range(d):
            for step in (-1, 1):
                q = p[:ax] + (p[ax] + step,) + p[ax + 1:]
                if q in occ:
                    continue
                out.append(FermiConfig(tuple(sorted(sites[:i] + sites[i + 1:] + (q,)))))
    out.sort()
    return out


def _check_compatible(x: FermiConfig, y: FermiConfig):
    if x.n != y.n or x.d != y.d:
        raise ValueError(
            f"incompatible configurations: ({x.n} particles, d={x.d}) vs ({y.n} particles, d={y.d})"
        )


def _shells(start, expand):
    """Breadth-first search from ``start``, one shell at a time.

    Yields ``(r, shell, seen)`` for r = 0, 1, 2, ...: the nodes first reached
    at distance r in discovery order, and the distance map of every node
    reached so far (one dict, updated in place).  ``expand`` gives a node's
    neighbours.  Shell r + 1 is only searched when the caller asks for it,
    and the search ends at the first empty shell.
    """
    seen = {start: 0}
    shell, r = [start], 0
    while shell:
        yield r, shell, seen
        r += 1
        frontier, shell = shell, []
        for cur in frontier:
            for nb in expand(cur):
                if nb not in seen:
                    seen[nb] = r
                    shell.append(nb)


def distances_within(x: FermiConfig, cap: int) -> dict:
    """BFS distance map from ``x`` to every configuration within graph distance ``cap``."""
    for r, _, seen in _shells(x, neighbors):
        if r >= cap:
            break
    return seen


def graph_distance(x: FermiConfig, y: FermiConfig, cap: int = 64) -> Optional[int]:
    """Canonical graph distance by breadth-first search; None when it exceeds ``cap``."""
    _check_compatible(x, y)
    for r, _, seen in _shells(x, neighbors):
        if y in seen:
            return r
        if r >= cap:
            break
    return None


@dataclass(frozen=True)
class FermiBall:
    """Graph ball: all configurations within distance ``radius`` of ``center``.

    ``members`` is sorted lexicographically and fixes the matrix index order
    of every operator assembled on the ball.
    """

    center: FermiConfig
    radius: int
    members: tuple

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        i = bisect.bisect_left(self.members, x)
        return i < len(self.members) and self.members[i] == x


def ball(center: FermiConfig, radius: int, max_size: Optional[int] = None) -> FermiBall:
    """Breadth-first enumeration of the graph ball of given radius; past
    ``max_size`` members it raises once the first shell crosses the budget."""
    found = capped_ball(center, radius, math.inf if max_size is None else max_size)
    if found.radius < radius:
        raise BudgetExceededError(f"ball of radius {radius} exceeds the budget {max_size}")
    return found


def capped_ball(center: FermiConfig, radius: int, budget: int) -> FermiBall:
    """Largest complete ball of radius <= ``radius`` fitting inside ``budget``.

    BFS grows shell by shell and stops before the shell that would blow the
    budget, so the result is always a genuine graph ball (the achieved radius
    is in the returned object); callers use it where nominal window sizes are
    astronomically large.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if budget < 1:
        raise BudgetExceededError("budget admits no configurations at all")
    achieved = 0
    for r, _, seen in _shells(center, neighbors):
        if len(seen) > budget:
            break
        achieved = r
        if r >= radius:
            break
    return FermiBall(center, achieved,
                     tuple(sorted(c for c, d in seen.items() if d <= achieved)))


class DomainGraph:
    """Configuration graph of one finite domain, built once per domain.

    ``index`` maps each member to its position in ``domain``.  Everything
    else is derived on first use and kept: ``neighbor_lists`` holds each
    member's full-lattice neighbours (one :func:`neighbors` call per
    member), ``adjacency`` and ``degrees`` the edges inside the domain, and
    ``metric`` / ``distances`` the full-lattice / in-domain graph distances.

    The package gets its graphs from :func:`domain_graph`, which hands one
    graph to every caller on an equal domain, so nothing a graph hands out
    can be written: ``index`` is a read-only mapping, ``neighbor_lists`` and
    ``adjacency`` are tuples of tuples, and the arrays (``sites``,
    ``degrees``, ``metric``, ``distances``, ``order``) are read-only.

    One slot is filled from outside: ``dominated`` keeps the checked
    neighbourhoods of the dominated-function routines in :mod:`andlab.msa`,
    ``(key, checked, balls, table)`` for the most recent key
    ``(center, L, ell)``, or None.  A call on another key replaces the slot
    whole; its arrays are read-only and its containers tuples.
    """

    def __init__(self, domain: Iterable[FermiConfig]):
        self.domain = tuple(domain)
        self.index = MappingProxyType({c: i for i, c in enumerate(self.domain)})
        if len(self.index) != len(self.domain):
            raise ValueError("domain repeats a configuration")
        self.dominated = None

    @cached_property
    def neighbor_lists(self) -> tuple:
        return tuple(tuple(neighbors(c)) for c in self.domain)

    @cached_property
    def adjacency(self) -> tuple:
        """Per member, the indices of its neighbours inside the domain."""
        index = self.index
        return tuple(tuple(index[y] for y in nbs if y in index) for nbs in self.neighbor_lists)

    @cached_property
    def degrees(self) -> np.ndarray:
        return _read_only(np.asarray([len(js) for js in self.adjacency], dtype=int))

    @cached_property
    def sites(self) -> np.ndarray:
        """(n, N, d) int64 array of the members' sorted sites."""
        try:
            return _read_only(np.asarray([c.sites for c in self.domain], dtype=np.int64))
        except ValueError:   # a ragged array
            raise ValueError("incompatible configurations: the domain mixes particle "
                             "numbers or dimensions") from None

    @cached_property
    def metric(self) -> np.ndarray:
        """Full-lattice graph distances between all members."""
        return _read_only(matching_distances(self.sites, self.sites))

    @cached_property
    def distances(self) -> np.ndarray:
        """In-domain graph distances between all members; -1 where no path
        inside the domain connects them.  On every N-subset of a box of sites
        they are ``metric``: shortest lattice paths never leave the box."""
        occupied = {s for c in self.domain for s in c.sites}
        if self.domain and (
                len(occupied) == np.prod(np.ptp(list(occupied), axis=0) + 1)
                and len(self.domain) == math.comb(len(occupied), self.domain[0].n)):
            return self.metric
        n = len(self.domain)
        dist = np.full((n, n), -1, dtype=int)
        for s in range(n):
            for r, shell, _ in _shells(s, self.adjacency.__getitem__):
                dist[s, shell] = r
        return _read_only(dist)

    @cached_property
    def order(self) -> np.ndarray:
        """Member positions in configuration order."""
        return _read_only(np.asarray(sorted(range(len(self.domain)), key=self.domain.__getitem__),
                                     dtype=int))

    def balls(self, radius: int):
        """(center position, member positions in configuration order) of every full-lattice
        ball of the given radius inside the domain, in domain order: by induction on
        shells, those whose members closer than ``radius`` have no neighbour outside."""
        if not radius:   # every member is its own radius-0 ball
            yield from ((i, np.asarray([i])) for i in range(len(self.domain)))
            return
        metric, order = self.metric, self.order
        exposed = self.degrees < self._neighbor_table[1]
        for i in np.flatnonzero(~((metric < radius) & exposed).any(axis=1)):
            yield int(i), order[metric[i, order] <= radius]

    @cached_property
    def _neighbor_table(self) -> tuple:
        """Each member's in-domain neighbour positions as one row padded with
        ``len(domain)``, and each member's number of lattice neighbours."""
        n = len(self.domain)
        table = np.full((n, max(map(len, self.adjacency), default=0)), n, dtype=int)
        for i, js in enumerate(self.adjacency):
            table[i, :len(js)] = js
        return _read_only(table), _read_only(np.asarray([len(nbs) for nbs in self.neighbor_lists],
                                                        dtype=int))

    def boundary(self, idx) -> np.ndarray:
        """Inner-boundary mask over the member positions ``idx``: whether each has
        fewer in-domain neighbours in ``idx`` than lattice neighbours.  A 2-D
        ``idx`` is a stack of member sets, one per row, masked in one array pass."""
        idx = np.asarray(idx, dtype=int)
        sets = np.atleast_2d(idx)
        table, lattice = self._neighbor_table
        rows = np.arange(len(sets))[:, None]
        inside = np.zeros((len(sets), len(self.domain) + 1), dtype=bool)   # the pad stays False
        inside[rows, sets] = True
        within = np.count_nonzero(inside[rows[:, :, None], table[sets]], axis=2)
        return (within < lattice[sets]).reshape(idx.shape)

    def far(self, rows, sep: int) -> np.ndarray:
        """Strictly upper-triangular mask of the pairs i < j of member positions
        ``rows`` more than ``sep`` apart in the full-lattice graph."""
        return np.triu(self.metric[np.ix_(rows, rows)] > sep, 1)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


_GRAPHS_MAX = 8                 # graphs domain_graph keeps ...
_GRAPH_BYTES_MAX = 32 << 20     # ... and the most memory they may hold (see _graph_bytes)
_graphs: "dict[tuple, DomainGraph]" = {}   # least recently used first


def _graph_bytes(domain: tuple) -> int:
    """About the memory a graph of ``domain`` holds once every property has
    been used: two n x n int64 distance tables; the ``dominated`` slot, at
    most one more n x n int64 table and one pointer per table entry in its
    getters; and per member its entries in ``index`` and ``sites``, its 2 N d
    full-lattice neighbours and its getter."""
    n = len(domain)
    if not n:
        return 0
    n_p, d = domain[0].n, domain[0].d
    return 32 * n * n + n * (600 + 2 * n_p * d * (120 + 80 * n_p))


def domain_graph(domain) -> DomainGraph:
    """The :class:`DomainGraph` of a domain, a sequence of configurations: equal
    domains share one graph, a domain in another order gets its own.

    The most recently used graphs are kept, at most ``_GRAPHS_MAX`` of them
    and ``_GRAPH_BYTES_MAX`` bytes by :func:`_graph_bytes`, so a loop over one
    domain (operators, reports and dominated-function checks on a fixed
    window) hashes its members and builds its metric once.  A graph larger
    than the whole budget is built for its caller and not kept.  A domain
    equal to the most recent graph's is found by comparison, which hashes
    nothing and is one identity check per member when they are the same objects.
    """
    domain = tuple(domain)   # the same object when it is one; a list is no dict key
    last = next(reversed(_graphs.values()), None)
    if last is not None and domain == last.domain:
        return last
    graph = _graphs.pop(domain, None)
    if graph is not None:
        _graphs[graph.domain] = graph
        return graph
    graph = DomainGraph(domain)
    size = _graph_bytes(graph.domain)
    if size <= _GRAPH_BYTES_MAX:
        while _graphs and (len(_graphs) >= _GRAPHS_MAX or
                           size + sum(map(_graph_bytes, _graphs)) > _GRAPH_BYTES_MAX):
            del _graphs[next(iter(_graphs))]
        _graphs[graph.domain] = graph
    return graph


def boundaries(domain: Iterable[FermiConfig]):
    """Inner boundary, outer boundary and crossing edge pairs of a finite domain.

    Returns ``(inner, outer, edges)`` where ``edges`` is the sorted tuple of
    pairs ``(x, y)`` with ``x`` in the domain adjacent to ``y`` outside it.
    """
    graph = domain_graph(tuple(set(domain)))
    edges = sorted((x, y) for x, nbs in zip(graph.domain, graph.neighbor_lists)
                   for y in nbs if y not in graph.index)
    return (frozenset(x for x, _ in edges), frozenset(y for _, y in edges),
            tuple(edges))


def matching_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, n) full-lattice graph distances between the configurations whose
    sorted sites are the (m, N, d) and (n, N, d) int arrays ``a`` and ``b``:
    the least cost of matching the particles of ``a`` onto those of ``b``.

    A dynamic programme over subsets of ``b``'s particles (Held and Karp):
    layer k maps each k-particle mask to the least cost of matching ``a``'s
    first k particles onto it, N 2^(N-1) array steps per chunk.  On a line
    particle k goes to particle k, the sorted matching.  Rows go in chunks
    whose live arrays, one particle's costs and two layers, hold about 2 MB.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    out = np.zeros((len(a), len(b)), dtype=np.int64)
    if not out.size:
        return out
    if a.shape[1:] != b.shape[1:]:
        raise ValueError("incompatible configurations: ({} particles, d={}) vs "
                         "({} particles, d={})".format(*a.shape[1:], *b.shape[1:]))
    _, N, d = a.shape
    targets = [[k] if d == 1 else range(N) for k in range(N)]
    widest = 1 if d == 1 else math.comb(N, N // 2)
    at, bt = a.transpose(1, 2, 0), b.transpose(1, 2, 0)
    rows = max(1, _MATCH_TEMP // (len(b) * (N + 2 * widest)))
    for lo in range(0, len(a), rows):
        layer = {0: 0}
        for k, ls in enumerate(targets):
            cost = [reduce(np.add, (np.abs(at[k, i, lo:lo + rows, None] - bt[l, i])
                                    for i in range(d))) for l in ls]
            nxt = {}
            for mask, c in layer.items():
                for l, cl in zip(ls, cost):
                    m = mask | 1 << l
                    if m in nxt:
                        np.minimum(nxt[m], c + cl, out=nxt[m])
                    elif m != mask:   # particle l of b is still free
                        # layer 1 holds the cost arrays; only sums are written in place
                        nxt[m] = c + cl if k else cl
            layer = nxt
        out[lo:lo + rows] = layer[(1 << N) - 1]
    return out


# ---------------------------------------------------------------------------
# cluster decompositions and weak separation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterDecomposition:
    """Partition of a configuration into maximal chains of sites within ``threshold``.

    Clusters are max-norm R-connected components: two sites join when their
    max-norm distance is at most ``threshold``; distinct clusters are then
    more than ``threshold`` apart.
    """

    clusters: tuple
    threshold: int


def r_clusters(x: FermiConfig, threshold: int) -> ClusterDecomposition:
    """Union-find decomposition of the particle set at max-norm range ``threshold``."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    sites = x.sites
    parent = list(range(len(sites)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(sites)), 2):
        if site_dist(sites[i], sites[j]) <= threshold:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups = {}
    for i, s in enumerate(sites):
        groups.setdefault(find(i), []).append(s)
    clusters = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    return ClusterDecomposition(clusters, threshold)


def _enclosing_box(points, pad: int):
    arr = np.asarray(points)
    lo = tuple(int(v) - pad for v in arr.min(axis=0))
    hi = tuple(int(v) + pad for v in arr.max(axis=0))
    return lo, hi


def _box_count(cfg: FermiConfig, lo: Site, hi: Site) -> int:
    return sum(1 for s in cfg.sites if all(l <= c <= h for l, c, h in zip(lo, s, hi)))


@dataclass(frozen=True)
class SeparationWitness:
    """Axis-aligned box certifying weak separation of a configuration pair.

    The box holds ``count_inner`` particles of the config in the ``role``
    position and strictly fewer (``count_other``) of the partner; its max-norm
    diameter never exceeds 2NL.
    """

    lower: Site
    upper: Site
    count_inner: int
    count_other: int
    role: str  # 'first' when x carries the larger count, 'second' for y

    @property
    def diameter(self) -> int:
        return max(h - l for l, h in zip(self.lower, self.upper))


def weakly_separated(x: FermiConfig, y: FermiConfig, L: int) -> Optional[SeparationWitness]:
    """Constructive weak-separation test at scale ``L``.

    Decomposes one configuration into 2L-clusters, surrounds each cluster by
    the minimal box containing its L-neighborhood and compares occupation
    numbers; the symmetric role swap is tried before giving up.  Guaranteed
    to find a witness when the pair distance exceeds 3NL.
    """
    _check_compatible(x, y)
    n = x.n
    for role, (a, b) in (("first", (x, y)), ("second", (y, x))):
        dec = r_clusters(a, 2 * L)
        for cl in dec.clusters:
            lo, hi = _enclosing_box(cl, L)
            na = _box_count(a, lo, hi)
            nb = _box_count(b, lo, hi)
            if na > nb:
                w = SeparationWitness(lo, hi, na, nb, role)
                if w.diameter > 2 * n * L:
                    raise AssertionError("witness box exceeded its diameter bound")
                return w
    return None


def weakly_separated_exhaustive(x: FermiConfig, y: FermiConfig, L: int) -> Optional[SeparationWitness]:
    """Slow reference search over every split of the two particle sets.

    For each choice of sub-configurations with strictly larger cardinality on
    one side, the minimal box around the chosen particles is tested for
    diameter at most 2NL and disjointness from all remaining particles.  Used
    as a test oracle for :func:`weakly_separated`.
    """
    _check_compatible(x, y)
    n = x.n
    for role, (a, b) in (("first", (x, y)), ("second", (y, x))):
        for r1 in range(1, n + 1):
            for sub_a in itertools.combinations(a.sites, r1):
                rest_a = [s for s in a.sites if s not in set(sub_a)]
                for r2 in range(0, r1):
                    for sub_b in itertools.combinations(b.sites, r2):
                        rest_b = [s for s in b.sites if s not in set(sub_b)]
                        lo, hi = _enclosing_box(sub_a + sub_b, 0)
                        if max(h - l for l, h in zip(lo, hi)) > 2 * n * L:
                            continue
                        inside = [
                            s for s in rest_a + rest_b
                            if all(l <= c <= h for l, c, h in zip(lo, s, hi))
                        ]
                        if inside:
                            continue
                        return SeparationWitness(lo, hi, r1, r2, role)
    return None


# ---------------------------------------------------------------------------
# shift equivalence of cluster decompositions
# ---------------------------------------------------------------------------

def cluster_canonical_form(x: FermiConfig, threshold: int) -> tuple:
    """Translation-invariant fingerprint: sorted multiset of cluster shapes.

    Each cluster is normalized by moving its lexicographically least site to
    the origin.  Two configurations share a form exactly when their cluster
    decompositions match bijectively up to per-cluster lattice shifts.
    """
    dec = r_clusters(x, threshold)
    shapes = []
    for cl in dec.clusters:
        base = cl[0]
        shapes.append(tuple(tuple(c - b for c, b in zip(s, base)) for s in cl))
    return tuple(sorted(shapes))


def _representative_from_form(form: tuple, threshold: int, d: int) -> FermiConfig:
    sites = []
    cursor = 0
    for shape in form:
        span = max(s[0] for s in shape)
        for s in shape:
            sites.append((s[0] + cursor,) + s[1:])
        cursor += span + threshold + 2
    return FermiConfig.make(sites)


def shift_equivalence_classes(n: int, d: int, threshold: int, budget: int = 500_000) -> list:
    """Representatives of the shift-equivalence classes at range ``threshold``.

    Enumerates all n-point configurations inside a window just large enough to
    realize every class, canonicalizes, and rebuilds one representative per
    distinct form with clusters laid out along the first axis.
    """
    if n < 1 or d < 1 or threshold < 0:
        raise ValueError("need n >= 1, d >= 1, threshold >= 0")
    m = n * (threshold + 2)
    total = math.comb((m + 1) ** d, n)   # counted before the sites are listed
    if total > budget:
        raise BudgetExceededError(
            f"window enumeration needs {total} configurations, budget {budget}"
        )
    forms = {}
    sites = list(itertools.product(range(m + 1), repeat=d))
    for combo in itertools.combinations(sites, n):
        cfg = FermiConfig(tuple(combo))
        form = cluster_canonical_form(cfg, threshold)
        if form not in forms:
            forms[form] = _representative_from_form(form, threshold, d)
    return sorted(forms.values())


def box_configs(n: int, lows, highs, budget: int = 2_000_000) -> list:
    """All n-particle configurations in the axis-aligned box [lows, highs]."""
    lows = _as_site(lows)
    highs = _as_site(highs, len(lows))
    # counted from the box's shape before the sites are listed
    total = math.comb(math.prod(max(0, h - l + 1) for l, h in zip(lows, highs)), n)
    if total > budget:
        raise BudgetExceededError(f"box enumeration needs {total} configurations")
    sites = itertools.product(*(range(l, h + 1) for l, h in zip(lows, highs)))
    return [FermiConfig(tuple(c)) for c in itertools.combinations(sites, n)]
