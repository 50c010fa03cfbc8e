"""Potential hull tests: amplitude field, lacunary weights, exact tail sums,
scale generations, and the separation statistic."""

import math
import warnings
from fractions import Fraction
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from andlab import potential, torus
from andlab.configs import FermiConfig, box_configs
from andlab.potential import (
    AmplitudeField,
    CellTable,
    ConstantAmplitudeField,
    HaarHull,
    cell_table,
    config_potential,
    config_potentials,
    density_bound,
    generation_weight,
    growth_exponent,
    log2_generation_weight,
    log2_tail_bound,
    min_gap,
    partition_generation,
    tail_bound,
    tail_bound_sharp,
    window_generation,
)
from andlab.torus import MAX_CELL_BITS, MAX_PHASE_BITS, ShiftSystem, preset_frequencies

LN2 = math.log(2.0)


def golden_system():
    return ShiftSystem(preset_frequencies("golden", 1, 1))


# ---------------------------------------------------------------------------
# amplitude field
# ---------------------------------------------------------------------------

def test_amplitudes_deterministic():
    f, g = AmplitudeField(7), AmplitudeField(7)
    assert f.value(3, 5) == g.value(3, 5)
    assert AmplitudeField(8).value(3, 5) != f.value(3, 5)


def test_amplitudes_in_unit_interval():
    f = AmplitudeField(0)
    vals = [f.value(n, k) for n in range(1, 6) for k in range(1, 40)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert len(set(vals)) == len(vals)


def test_amplitudes_roughly_uniform():
    f = AmplitudeField(123)
    vals = [f.value(2, k) for k in range(1, 3001)]
    _, p = stats.kstest(vals, "uniform")
    assert p > 0.01


def test_resampled_touches_only_one_generation():
    f = AmplitudeField(42)
    g = f.resampled(2, salt=9)
    assert g.value(1, 3) == f.value(1, 3)
    assert g.value(3, 3) == f.value(3, 3)
    assert g.value(2, 3) != f.value(2, 3)
    # resampling is itself deterministic
    assert g.value(2, 3) == f.resampled(2, 9).value(2, 3)
    assert g.value(2, 3) != f.resampled(2, 10).value(2, 3)


# the scalar value(n, k) is the oracle of the batched values(table)
_SEEDS = st.one_of(st.integers(-2 ** 63, -1), st.integers(0, 2 ** 63 - 1),
                   st.integers(2 ** 63, 2 ** 64 - 1))
_CELLS = st.lists(st.tuples(st.integers(1, 62),
                            st.one_of(st.integers(1, 2 ** 52), st.sampled_from([1, 2 ** 52]))),
                  max_size=40)


def _field(seed, resamples):
    field = AmplitudeField(seed)
    for generation, salt in resamples:
        field = field.resampled(generation, salt)
    return field


def _table(cells):
    """A cell table naming ``cells`` in order, repeats kept; only the field
    reads it, so it maps no points."""
    return CellTable(tuple(n for n, _ in cells), tuple(k for _, k in cells),
                     np.empty((0, 0), dtype=np.intp))


@settings(max_examples=150, deadline=None)
@given(_SEEDS, st.lists(st.tuples(st.integers(1, 62), st.integers(0, 2 ** 32)), max_size=3),
       _CELLS, st.integers(0, 5), st.lists(st.booleans(), max_size=45))
def test_amplitude_values_match_scalar_value(seed, resamples, cells, repeats, warm):
    cells = cells + cells[:repeats]      # a batch may name a cell twice
    oracle = _field(seed, resamples)
    want = np.array([oracle.value(n, k) for n, k in cells], dtype=float)
    field = _field(seed, resamples)
    for cell, hot in zip(cells, warm):   # some cells are read by value first
        if hot:
            field.value(*cell)
    table = _table(cells)
    got = field.values(table)
    assert got.dtype == np.float64 and got.shape == (len(cells),)
    assert got.tobytes() == want.tobytes()
    # value after the batch, and the batch again
    assert [field.value(n, k) for n, k in cells] == want.tolist()
    assert field.values(table).tobytes() == want.tobytes()
    # a cold field on the same table
    assert _field(seed, resamples).values(table).tobytes() == want.tobytes()


def test_amplitude_values_cover_both_halves_of_the_digest():
    # digests with the top bit set map to [0.5, 1): the uint64 -> float path
    cells = [(n, k) for n in (1, 17, 52, 62) for k in (1, 3, 2 ** 52 - 1, 2 ** 52)]
    for seed in (-1, 0, 2 ** 64 - 1, 2 ** 63):
        got = AmplitudeField(seed).values(_table(cells))
        want = [AmplitudeField(seed).value(n, k) for n, k in cells]
        assert got.tolist() == want
        assert (got >= 0.5).any() and (got < 0.5).any()
    assert AmplitudeField(3).values(_table([])).shape == (0,)


def test_constant_field_values():
    f = ConstantAmplitudeField(0.25)
    assert f.values(_table([(1, 3), (2, 4), (2, 4)])).tolist() == [f.value(1, 3)] * 3


def test_resampled_seed_past_int64():
    # trial seeds fill the whole uint64 range; the salt hash reads the seed
    # as its 64 bits, so a negative seed and its uint64 twin resample alike
    f = AmplitudeField(2 ** 64 - 5).resampled(2, 9)
    g = AmplitudeField(-5).resampled(2, 9)
    assert f.value(2, 3) == g.value(2, 3) != AmplitudeField(-5).value(2, 3)
    assert f.value(1, 3) == AmplitudeField(-5).value(1, 3)


# ---------------------------------------------------------------------------
# lacunary weights and tails
# ---------------------------------------------------------------------------

def test_generation_weight_values():
    assert generation_weight(1, 2.5) == pytest.approx(2.0 ** -5)
    assert generation_weight(2, 2.5) == pytest.approx(2.0 ** -20)
    assert log2_generation_weight(3, 2.5) == pytest.approx(-45.0)
    with pytest.raises(ValueError):
        generation_weight(0, 2.5)


@pytest.mark.parametrize("b", [math.nan, math.inf])
@pytest.mark.parametrize("call", [lambda b: HaarHull(b, 4, AmplitudeField(1)),
                                  lambda b: generation_weight(1, b),
                                  lambda b: log2_generation_weight(1, b)],
                         ids=["HaarHull", "generation_weight", "log2_generation_weight"])
def test_non_finite_b_is_refused(call, b):
    # NaN passes a b <= 0 check; b = inf weighs every generation 0.0
    with pytest.raises(ValueError, match="finite b > 0"):
        call(b)


def exact_tail(N, two_b, terms=64):
    """Sum_{n>N} 2^(-two_b n^2) in exact rationals, padded with a geometric
    remainder bound so the comparison against the closed forms is rigorous."""
    total = Fraction(0)
    for n in range(N + 1, N + terms + 1):
        total += Fraction(1, 2 ** (two_b * n * n))
    # remainder after the last computed term: ratio <= 2^(-two_b)
    last = N + terms
    ratio = Fraction(1, 2 ** two_b)
    remainder = Fraction(1, 2 ** (two_b * (last + 1) ** 2)) / (1 - ratio)
    return total, total + remainder


@pytest.mark.parametrize("b", [2.0, 2.5, 5.0])
def test_tail_bound_exact(b):
    two_b = int(round(2 * b))
    for N in range(1, 9):
        lower, upper = exact_tail(N, two_b)
        bound = Fraction(1, 2) * Fraction(1, 2 ** (two_b * N)) * Fraction(
            1, 2 ** (two_b * N * N))
        assert upper <= bound, (b, N)
        assert tail_bound(N, b) == pytest.approx(float(bound), rel=1e-12)
        # the sharp geometric form also dominates the true tail
        sharp = float(tail_bound_sharp(N, b))
        assert float(upper) <= sharp <= float(bound)
        assert float(lower) <= sharp


def test_tail_bound_log_form():
    for N in (1, 4, 8):
        assert log2_tail_bound(N, 2.5) == pytest.approx(
            math.log2(tail_bound(N, 2.5)), abs=1e-9)
    # deep generations underflow the float form; the log form keeps going
    assert tail_bound(17, 2.5) == 0.0
    assert log2_tail_bound(17, 2.5) == pytest.approx(-1531.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.floats(0.5, 3))
def test_tail_monotone_in_generation(N, b):
    assert tail_bound(N + 1, b) < tail_bound(N, b)
    assert tail_bound_sharp(N, b) < tail_bound(N, b)
    assert log2_tail_bound(N + 1, b) < log2_tail_bound(N, b)


# ---------------------------------------------------------------------------
# hull values
# ---------------------------------------------------------------------------

def test_hull_value_frozen_instance():
    hull = HaarHull(2.5, 6, AmplitudeField(42))
    v, tail = hull.value(np.array([0.3]), 3)
    assert v == 0.007493889102239277
    assert tail == pytest.approx(2.0 ** -61)


def test_hull_constant_amplitudes_sum_weights():
    hull = HaarHull(2.0, 5, ConstantAmplitudeField(1.0))
    v, _ = hull.value(np.array([0.77]))
    expect = sum(generation_weight(n, 2.0) for n in range(1, 6))
    assert v == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("b, n_max, depth", [(2.5, 6, 6), (2.5, 18, 14), (0.05, 40, 40)])
def test_hulls_share_their_generation_weights(b, n_max, depth):
    """Hulls of equal (b, n_max) share one read-only weight array with the
    bits of the generation_weight loop, cut where a weight underflows to 0.0."""
    one, two = HaarHull(b, n_max, AmplitudeField(1)), HaarHull(b, n_max, AmplitudeField(2))
    assert one._weights is two._weights and not one._weights.flags.writeable
    want = list(takewhile(bool, (generation_weight(n, b) for n in range(1, n_max + 1))))
    assert len(want) == one.depth == depth
    assert one._weights.tobytes() == np.asarray(want).tobytes()


def test_hull_truncation_monotone():
    hull = HaarHull(2.5, 6, AmplitudeField(1))
    om = np.array([0.61])
    full, _ = hull.value(om)
    for N in range(1, 7):
        v, tail = hull.value(om, N)
        assert abs(full - v) <= tail + 1e-18


def test_hull_rejects_bad_truncation():
    hull = HaarHull(2.5, 4, AmplitudeField(1))
    with pytest.raises(ValueError):
        hull.value(np.array([0.5]), 0)
    with pytest.raises(ValueError):
        hull.value(np.array([0.5]), 5)


_NON_FINITE_PHASE_CALLS = {
    "wrap": lambda w: torus.wrap(w),
    "cell_indices": lambda w: torus.cell_indices(np.array([[w]]), 3),
    "cell_key": lambda w: torus.cell_key(w, 3),
    "torus_distance": lambda w: torus.torus_distance(w, 0.2),
    "translate": lambda w: golden_system().translate(np.array([w]), (1,)),
    "HaarHull.value": lambda w: HaarHull(0.5, 5, AmplitudeField(3)).value([w]),
    "HaarHull.values": lambda w: HaarHull(0.5, 5, AmplitudeField(3)).values([[w]]),
    "config_potentials": lambda w: config_potentials(
        HaarHull(0.5, 5, AmplitudeField(3)), golden_system(), w, box_configs(2, (0,), (3,))),
}


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(_NON_FINITE_PHASE_CALLS))
def test_non_finite_phase_is_refused(entry, w):
    # a NaN or infinite phase has no cell and no orbit: it is refused before
    # numpy can warn, not carried on as NaN or into the cell counter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite phase"):
            _NON_FINITE_PHASE_CALLS[entry](w)


def test_site_and_config_potential_consistent():
    sys_ = golden_system()
    hull = HaarHull(2.5, 5, AmplitudeField(3))
    om = np.array([0.21])
    dom = box_configs(2, (0,), (4,))
    f = config_potentials(hull, sys_, om, dom)
    for c, value in zip(dom, f):
        direct = sum(hull.value(sys_.translate(om, s))[0] for s in c.sites)
        assert value == pytest.approx(direct, rel=1e-15)


# ---------------------------------------------------------------------------
# the scalar hull loop as the oracle of HaarHull.values / config_potentials
# ---------------------------------------------------------------------------

def _wrap_oracle(omega):
    return np.mod(np.atleast_1d(np.asarray(omega, dtype=float)), 1.0)


def _cell_key_oracle(omega, generation):
    """Per-coordinate dyadic indices, as torus.cell_key computed them with a
    plain mod and a clamp to the top cell."""
    if generation < 0:
        raise ValueError("generation must be nonnegative")
    w = _wrap_oracle(omega)
    scale = 1 << generation
    key = tuple(int(c * scale) for c in w)
    # a coordinate equal to 1.0 after rounding noise belongs to the top cell
    return tuple(min(k, scale - 1) for k in key)


def _hull_value_oracle(hull, omega, N=None):
    """The per-generation scalar loop HaarHull.value used to run."""
    N = hull.n_max if N is None else N
    if N < 1 or N > hull.n_max:
        raise ValueError(f"truncation generation {N} outside [1, {hull.n_max}]")
    w = _wrap_oracle(omega)
    total = 0.0
    for n in range(1, N + 1):
        key = _cell_key_oracle(w, n)
        scale = 1 << n
        flat = 0
        for k in key:
            flat = flat * scale + k
        total += generation_weight(n, hull.b) * hull.theta.value(n, flat + 1)
    return total, tail_bound(N, hull.b)


def _config_potential_oracle(hull, system, omega, cfg, N=None):
    # a left fold from 0.0 in particle order, as the package adds: the builtin
    # sum() adds floats with compensation from Python 3.12 on, so its bits
    # would depend on the Python version
    total = 0.0
    for s in cfg.sites:
        total += _hull_value_oracle(hull, system.translate(omega, s), N)[0]
    return total


def _edge_coordinates(max_generation):
    """Dyadic boundaries, the wrap edge (0.0, 1.0, -1e-18, the last float
    below 1) and arbitrary coordinates, shifted by whole turns."""
    dyadic = st.builds(lambda n, k: k / 2.0 ** n, st.integers(1, max_generation),
                       st.integers(0, 2 ** max_generation))
    special = st.sampled_from([0.0, 1.0, -1e-18, -0.0, 1.0 - 2.0 ** -53, 0.5])
    plain = st.floats(-2.0, 2.0, allow_nan=False)
    turns = st.integers(-2, 2)
    return st.builds(lambda c, t: c + t, st.one_of(dyadic, special, plain), turns)


@st.composite
def _hull_and_phases(draw):
    nu = draw(st.sampled_from([1, 2]))
    b = draw(st.sampled_from([0.05, 0.5, 2.5]))
    n_max = draw(st.integers(1, MAX_CELL_BITS // nu if b < 1 else 20))
    N = draw(st.one_of(st.none(), st.integers(1, n_max)))
    rows = draw(st.lists(st.lists(_edge_coordinates(min(n_max, 30)), min_size=nu,
                                  max_size=nu), min_size=1, max_size=6))
    hull = HaarHull(b, n_max, AmplitudeField(draw(st.integers(0, 2 ** 32))))
    return hull, np.asarray(rows, dtype=float), N


@settings(max_examples=200, deadline=None)
@given(_hull_and_phases())
def test_hull_values_match_scalar_loop(case):
    hull, phases, N = case
    if min(hull.n_max if N is None else N, hull.depth) > MAX_PHASE_BITS:
        # past the bits of a float phase the cells alias: refused, not summed
        with pytest.raises(ValueError, match="float phase"):
            hull.values(phases, N)
        return
    got = hull.values(phases, N)
    expect = [_hull_value_oracle(hull, row, N)[0] for row in phases]
    assert got.tolist() == expect
    assert [hull.value(row, N) for row in phases] == \
        [_hull_value_oracle(hull, row, N) for row in phases]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from([1, 2]), st.sampled_from([2, 3]),
       st.integers(-20, 20), _edge_coordinates(12),
       st.one_of(st.none(), st.integers(1, 5)), st.integers(0, 2 ** 32))
def test_config_potentials_match_scalar_loop(d, nu, n, offset, coord, N, seed):
    system = ShiftSystem(preset_frequencies("golden", d, nu))
    hull = HaarHull(0.5, 12, AmplitudeField(seed))
    omega = np.full(nu, coord)
    upper = 4 if d == 1 else 1
    dom = box_configs(n, (offset,) * d, (offset + upper,) * d)
    got = config_potentials(hull, system, omega, dom, N)
    expect = [_config_potential_oracle(hull, system, omega, c, N) for c in dom]
    assert got.tolist() == expect
    assert [config_potential(hull, system, omega, c, N) for c in dom] == expect


def test_config_potentials_empty_and_repeated():
    sys_ = golden_system()
    hull = HaarHull(2.5, 5, AmplitudeField(3))
    om = np.array([0.21])
    assert config_potentials(hull, sys_, om, ()).shape == (0,)
    c = FermiConfig.make([(0,), (3,)])
    assert config_potentials(hull, sys_, om, (c, c)).tolist() == \
        [config_potential(hull, sys_, om, c)] * 2


class _CountingField:
    """Amplitude field that records every (generation, cell) lookup, scalar
    or batched."""

    def __init__(self, seed):
        self.inner = AmplitudeField(seed)
        self.lookups = []

    def value(self, n, k):
        self.lookups.append((n, k))
        return self.inner.value(n, k)

    def values(self, table, cells=slice(None)):
        self.lookups.extend(zip(table.gens[cells], table.ks[cells]))
        return self.inner.values(table, cells)


def test_zero_weight_generations_are_skipped():
    # at b = 2.5, a_n = 2^(-5 n^2) underflows to 0.0 from n = 15 on, and a
    # float64 sum near a_1 = 2^-5 feels no generation past 3 (2^-45 against
    # a half spacing of 2^-58); at b = 0.5 with n_max = 7 it feels all 7
    assert generation_weight(14, 2.5) > 0.0 == generation_weight(15, 2.5)
    field = _CountingField(5)
    deep, shallow = HaarHull(2.5, 18, field), HaarHull(2.5, 14, AmplitudeField(5))
    assert deep.depth == shallow.depth == 14
    phases = np.array([[0.0], [0.15], [1.0], [-1e-18], [0.7390851332151607]])
    got = deep.values(phases)
    assert field.lookups and max(n for n, _ in field.lookups) == 3
    lacunary = _CountingField(5)
    HaarHull(0.5, 7, lacunary).values(phases)
    assert {n for n, _ in lacunary.lookups} == set(range(1, 8))
    assert got.tolist() == shallow.values(phases).tolist()
    assert got.tolist() == [_hull_value_oracle(deep, row)[0] for row in phases]
    for row in phases:
        assert deep.value(row)[0] == shallow.value(row)[0]
        assert deep.value(row)[1] == tail_bound(18, 2.5)


_CONSTANTS = st.sampled_from([0.0, 2.0 ** -60, 0.5, 1.0])


@st.composite
def _cut_hull_and_phases(draw):
    """A hull of any b in [0.05, 8], a seeded field (resampled in up to two
    generations, past the stop too) or a constant one, and edge phases."""
    nu = draw(st.sampled_from([1, 2]))
    # some draws put a generation n within a few bits of half the spacing
    # of a sum near a_1, where a cut one generation early changes the bits
    edge = st.builds(lambda n, bits: (53.0 + bits) / (2 * (n * n - 1)),
                     st.integers(3, 20), st.floats(-3.0, 3.0))
    b = draw(st.one_of(st.floats(0.05, 8.0), edge))
    n_max = draw(st.integers(1, 20))
    N = draw(st.one_of(st.none(), st.integers(1, n_max)))
    if draw(st.booleans()):
        theta = ConstantAmplitudeField(draw(_CONSTANTS))
    else:
        resamples = draw(st.lists(st.tuples(st.integers(1, n_max), st.integers(0, 2 ** 32)),
                                  max_size=2))
        theta = _field(draw(st.integers(0, 2 ** 64 - 1)), resamples)
    rows = draw(st.lists(st.lists(_edge_coordinates(n_max), min_size=nu, max_size=nu),
                         min_size=1, max_size=6))
    return HaarHull(b, n_max, theta), np.asarray(rows, dtype=float), N


@settings(max_examples=300, deadline=None)
@given(_cut_hull_and_phases())
def test_cut_hull_values_match_full_depth_sum(case):
    """Stopping at the last generation a float64 sum can feel keeps every bit
    of the full-depth sum."""
    hull, phases, N = case
    got = hull.values(phases, N)
    assert got.tobytes() == np.array([_hull_value_oracle(hull, row, N)[0]
                                      for row in phases]).tobytes()
    assert [hull.value(row, N) for row in phases] == \
        [_hull_value_oracle(hull, row, N) for row in phases]


class _StopsField(ConstantAmplitudeField):
    """Constant field that records the last generation of each batched lookup."""

    def __init__(self, constant):
        super().__init__(constant)
        self.stops = []

    def values(self, table, cells=slice(None)):
        self.stops.append(table.gens[cells][-1])
        return super().values(table, cells)


def test_cut_grows_once_when_a_sum_is_small():
    # b = 2.5 starts at 3 generations; a sum of 2^-65 feels generation 4
    # (2^-80 >= 2^-118) but not 5, and a zero sum feels all 14
    phases = np.array([[0.3], [0.8]])
    for constant, stops in ((0.5, [3]), (2.0 ** -60, [3, 4]), (0.0, [3, 14])):
        field = _StopsField(constant)
        hull = HaarHull(2.5, 18, field)
        assert hull.values(phases).tolist() == [_hull_value_oracle(hull, row)[0]
                                                for row in phases]
        assert field.stops == stops


def test_cut_edge_cases():
    # every weight underflows: zeros, and nothing is looked up
    field = _CountingField(1)
    flat = HaarHull(600.0, 4, field)
    assert flat.depth == 0
    assert flat.values(np.array([[0.3], [0.9]])).tolist() == [0.0, 0.0]
    assert flat.value(np.array([0.3]))[0] == 0.0 and field.lookups == []
    # no points, no configurations
    for b in (0.5, 2.5):
        hull = HaarHull(b, 18, AmplitudeField(3))
        assert hull.values(np.zeros((0, 1))).shape == (0,)
        assert hull.values(np.zeros((0, 2)), 9).shape == (0,)
        assert config_potentials(hull, golden_system(), np.array([0.2]), ()).shape == (0,)
    # a truncation below the depth still truncates, inside and past the stop
    phases = np.array([[0.15], [0.7390851332151607]])
    for b, n_max, N in ((0.5, 7, 3), (2.5, 18, 2), (2.5, 18, 10), (5.0, 10, 1)):
        field = _CountingField(8)
        hull = HaarHull(b, n_max, field)
        got = hull.values(phases, N)
        assert max(n for n, _ in field.lookups) <= N
        assert got.tolist() == [_hull_value_oracle(hull, row, N)[0] for row in phases]
        assert [hull.value(row, N) for row in phases] == \
            [_hull_value_oracle(hull, row, N) for row in phases]


def test_values_hash_each_cell_once_per_call():
    field = _CountingField(9)
    hull = HaarHull(0.5, 6, field)
    phases = np.array([[0.1], [0.1], [0.12], [0.9], [0.1]])
    hull.values(phases)
    assert len(field.lookups) == len(set(field.lookups))
    assert {n for n, _ in field.lookups} == set(range(1, 7))


def test_values_depth_guard():
    hull = HaarHull(0.05, 40, AmplitudeField(1))
    assert hull.depth == 40
    hull.values(np.zeros((1, 1)))                      # 40 bits
    hull.values(np.zeros((2, 2)), MAX_CELL_BITS // 2)  # 62 bits
    with pytest.raises(ValueError):
        hull.values(np.zeros((2, 2)))                  # 80 bits
    with pytest.raises(ValueError):
        hull.value(np.zeros(2), MAX_CELL_BITS // 2 + 1)


def test_values_reject_generations_past_float_phase():
    # a float64 phase resolves 52 generations per coordinate; deeper cells alias
    hull = HaarHull(0.05, 60, AmplitudeField(1))
    assert hull.depth == 60
    assert hull.values(np.full((1, 1), 0.7), MAX_PHASE_BITS).shape == (1,)
    for N in (MAX_PHASE_BITS + 1, None):
        with pytest.raises(ValueError, match="float phase"):
            hull.values(np.full((1, 1), 0.7), N)
    with pytest.raises(ValueError, match="float phase"):
        cell_table(np.zeros((1, 1)), MAX_PHASE_BITS + 1)


def test_stacked_sums_on_a_shared_table():
    """One table serves every field: summing it equals a fresh evaluation,
    and a table deeper than the hull's nonzero generations is refused."""
    phases = np.array([[0.1], [0.1], [0.37], [0.9]])
    table = cell_table(phases, 6)
    assert table.inverse.shape == (4, 6) and not table.inverse.flags.writeable
    assert len(table.gens) == len(set(zip(table.gens, table.ks))) == len(table.ks)
    for seed in (0, 1, 2 ** 63):
        hull = HaarHull(0.5, 6, AmplitudeField(seed))
        sums = hull.stacked_sums(table, lambda rows, cells: hull.theta.values(table, cells)[None])
        assert sums.shape == (1, 4) and sums[0].tobytes() == hull.values(phases).tobytes()
    with pytest.raises(ValueError):
        HaarHull(0.5, 5, None).stacked_sums(table, lambda rows, cells: None)


def test_config_potentials_reject_mixed_particle_numbers():
    hull = HaarHull(2.5, 5, AmplitudeField(3))
    mixed = (FermiConfig.make([(0,), (3,)]), FermiConfig.make([(1,)]))
    with pytest.raises(ValueError, match="particle number"):
        config_potentials(hull, golden_system(), np.array([0.2]), mixed)


# ---------------------------------------------------------------------------
# a warm hull against fresh ones
# ---------------------------------------------------------------------------

_OMEGAS = [0.31, -0.0, 0.0, np.nextafter(1.0, 0.0), 1.0 - 2.0 ** -40, 0.999999, 1.0,
           -1e-18, 0.61803398875]


@st.composite
def _warm_calls(draw):
    """A field, a hull shape and a run of calls on one hull: each a phase
    (array or scalar, from edge values and arbitrary ones), a truncation in
    {None, 1, ..., n_max}, a particle number and random configurations."""
    d = draw(st.sampled_from([1, 2]))
    n_max = draw(st.integers(1, 6))
    constant = draw(st.one_of(st.none(), st.sampled_from([0.0, 0.25, 1.0])))
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        om = draw(st.one_of(st.sampled_from(_OMEGAS), st.floats(-3.0, 3.0, allow_nan=False)))
        n = draw(st.integers(1, 3))
        sites = st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=n, max_size=n,
                         unique=True)
        configs = [FermiConfig.make(c) for c in draw(st.lists(sites, max_size=6))]
        calls.append((draw(st.booleans()), om, draw(st.one_of(st.none(), st.integers(1, n_max))),
                      configs, draw(st.booleans())))
    return d, n_max, draw(st.integers(0, 2 ** 32)), constant, calls


@settings(max_examples=150, deadline=None)
@given(_warm_calls())
def test_warm_hull_matches_fresh_hulls(case):
    """One hull serving a run of calls gives, call by call, the bits of a new
    hull (and field) per call: the amplitudes its field keeps change nothing."""
    d, n_max, seed, constant, calls = case
    system = ShiftSystem(preset_frequencies("golden", d, 1))

    def hull():
        field = AmplitudeField(seed) if constant is None else ConstantAmplitudeField(constant)
        return HaarHull(0.5, n_max, field)

    warm = hull()
    for scalar, om, N, configs, batch in calls:
        omega = om if scalar else np.array([om])
        if batch:
            got = config_potentials(warm, system, omega, configs, N).tolist()
            want = config_potentials(hull(), system, omega, configs, N).tolist()
        else:
            got = [config_potential(warm, system, omega, c, N) for c in configs]
            want = [config_potential(hull(), system, omega, c, N) for c in configs]
        assert repr(got) == repr(want)


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return repr(info.value)


def test_warm_hull_raises_what_a_fresh_one_raises():
    """Bad truncations (also on an empty list), mixed particle numbers and
    shifts of the wrong dimension fail the same way on a hull whose field
    already holds the amplitudes of the sites."""
    system, omega = golden_system(), np.array([0.21])
    dom = box_configs(2, (0,), (4,))
    warm = HaarHull(2.5, 5, AmplitudeField(3))
    config_potentials(warm, system, omega, dom)
    config_potentials(warm, system, omega, dom, 5)
    plane = FermiConfig.make([(0, 0), (1, 1)])
    bad = [((), 0), ((), 6), ((), -1), (dom, 0), (dom, 6), (dom[:1], 6),
           ((dom[0], FermiConfig.make([(2,)])), None), ((plane,), None)]
    for configs, N in bad:
        fresh = HaarHull(2.5, 5, AmplitudeField(3))
        assert _error(lambda: config_potentials(warm, system, omega, configs, N)) == \
            _error(lambda: config_potentials(fresh, system, omega, configs, N))
    assert config_potentials(warm, system, omega, (), 5).shape == (0,)


_BOX = box_configs(2, (0,), (5,))


@st.composite
def _memo_calls(draw):
    """A hull shape and a run of scalar and batched calls on one hull, each
    at one of a few phases (a -0.0 among them), a truncation in
    {1, ..., n_max, None} and some configurations of a box domain."""
    n_max = draw(st.integers(1, 6))
    calls = [(draw(st.booleans()), draw(st.sampled_from([0.31, -0.0, 0.0, 0.999999])),
              draw(st.one_of(st.none(), st.integers(1, n_max))),
              [_BOX[i] for i in draw(st.lists(st.integers(0, len(_BOX) - 1), max_size=8))])
             for _ in range(draw(st.integers(1, 10)))]
    return draw(st.sampled_from([0.5, 2.5])), n_max, draw(st.integers(0, 2 ** 32)), calls


@settings(max_examples=150, deadline=None)
@given(_memo_calls())
def test_site_memo_returns_fresh_batched_bits(case):
    """Whatever a hull remembers from earlier calls, a call returns the bits
    of one batched config_potentials call on a fresh hull."""
    b, n_max, seed, calls = case
    system = golden_system()
    warm = HaarHull(b, n_max, AmplitudeField(seed))
    for scalar, om, N, configs in calls:
        omega = np.array([om])
        want = config_potentials(HaarHull(b, n_max, AmplitudeField(seed)), system, omega,
                                 configs, N)
        if scalar:
            got = np.array([config_potential(warm, system, omega, c, N) for c in configs])
        else:
            got = config_potentials(warm, system, omega, configs, N)
        assert got.tobytes() == want.tobytes()


_SYSTEMS = (golden_system(), ShiftSystem(preset_frequencies("golden", 2, 1)),
            ShiftSystem(preset_frequencies("golden", 2, 1)[1:]))


@st.composite
def _system_calls(draw):
    """A run of calls on one hull across three systems (golden d = 1, d = 2
    with nu = 1, and d = 1 at another frequency), each at a phase given as a
    scalar, a 1-element array or a list (a -0.0 among them), a truncation
    and configurations of a few sites near the origin."""
    n_max = draw(st.integers(1, 6))
    calls = []
    for _ in range(draw(st.integers(1, 10))):
        system = draw(st.sampled_from(_SYSTEMS))
        om = draw(st.sampled_from([0.31, -0.0, 0.0, 0.999999]))
        omega = draw(st.sampled_from([om, np.array([om]), [om]]))
        n = draw(st.integers(1, 3))
        sites = st.lists(st.tuples(*[st.integers(-3, 3)] * system.d), min_size=n,
                         max_size=n, unique=True)
        configs = [FermiConfig.make(c) for c in draw(st.lists(sites, max_size=6))]
        calls.append((system, omega, draw(st.one_of(st.none(), st.integers(1, n_max))),
                      configs, draw(st.booleans())))
    return n_max, draw(st.integers(0, 2 ** 32)), calls


@settings(max_examples=150, deadline=None)
@given(_system_calls())
def test_site_memo_keeps_systems_and_phases_apart(case):
    """One hull serving several systems and phase spellings returns, call by
    call, the bytes of a fresh hull: a site's value is remembered per
    (truncation, system, phase, site)."""
    n_max, seed, calls = case
    warm = HaarHull(0.5, n_max, AmplitudeField(seed))
    for system, omega, N, configs, scalar in calls:
        want = config_potentials(HaarHull(0.5, n_max, AmplitudeField(seed)), system, omega,
                                 configs, N)
        if scalar:
            got = np.array([config_potential(warm, system, omega, c, N) for c in configs])
        else:
            got = config_potentials(warm, system, omega, configs, N)
        assert got.tobytes() == want.tobytes()


def test_warm_call_translates_no_site(monkeypatch):
    system, omega = golden_system(), np.array([0.21])
    dom = box_configs(2, (0,), (13,))
    hull = HaarHull(0.5, 7, AmplitudeField(3))
    first = [config_potential(hull, system, omega, c) for c in dom]
    translated = []

    def counting(self, omega, x, real=ShiftSystem.translate):
        translated.append(x)
        return real(self, omega, x)

    monkeypatch.setattr(ShiftSystem, "translate", counting)
    assert [config_potential(hull, system, omega, c) for c in dom] == first
    assert translated == []
    # a new site is translated, and only that
    config_potential(hull, system, omega, FermiConfig.make([(0,), (14,)]))
    assert translated == [(14,)]


def test_repeated_call_builds_no_cell_table(monkeypatch):
    system, omega = golden_system(), np.array([0.21])
    dom = box_configs(2, (0,), (13,))
    hull = HaarHull(0.5, 7, AmplitudeField(3))
    first = [config_potential(hull, system, omega, c) for c in dom]
    built = []

    def counting(phases, depth):
        built.append(len(phases))
        return cell_table(phases, depth)

    monkeypatch.setattr(potential, "cell_table", counting)
    assert [config_potential(hull, system, omega, c) for c in dom] == first
    assert built == []
    # a new site at the same key is evaluated, and only that
    config_potential(hull, system, omega, FermiConfig.make([(0,), (14,)]))
    assert built == [1]
    # another truncation replaces the slot, so its sites are evaluated afresh
    config_potential(hull, system, omega, dom[0], 3)
    assert built == [1, 2]
    assert hull._sites[0][0] == 3 and len(hull._sites[1]) == 2


def test_config_potentials_keep_no_state():
    """The batched call neither reads nor writes the memo slot: on a hull
    whose slot holds a poisoned site value at the call's own key, it returns
    a fresh hull's bytes and leaves the slot's key and dict as they were."""
    system, omega = golden_system(), np.array([0.21])
    dom = box_configs(2, (0,), (13,))
    hull = HaarHull(0.5, 7, AmplitudeField(3))
    for c in dom:
        config_potential(hull, system, omega, c)
    key, values = hull._sites
    values[(3,)] = 123.0
    poisoned = dict(values)
    want = config_potentials(HaarHull(0.5, 7, AmplitudeField(3)), system, omega, dom)
    assert config_potentials(hull, system, omega, dom).tobytes() == want.tobytes()
    assert hull._sites[0] == key and hull._sites[1] is values and values == poisoned
    # the batched call at another key leaves the slot alone too
    config_potentials(hull, system, omega, dom, 3)
    assert hull._sites[0] == key and hull._sites[1] is values and values == poisoned


@pytest.mark.parametrize("N", [0, -1, 6])
def test_config_potential_refuses_a_bad_truncation(N):
    """A bad N raises what HaarHull.values raises, on a cold hull and on one
    warm at another truncation, and fills no slot."""
    system, omega = golden_system(), np.array([0.21])
    c = FermiConfig.make([(0,), (3,)])
    want = _error(lambda: HaarHull(2.5, 5, AmplitudeField(3)).values(np.zeros((1, 1)), N))
    cold, warm = HaarHull(2.5, 5, AmplitudeField(3)), HaarHull(2.5, 5, AmplitudeField(3))
    config_potential(warm, system, omega, c, 3)
    for hull in (cold, warm):
        assert _error(lambda: config_potential(hull, system, omega, c, N)) == want
        key, values = hull._sites
        assert key is None or key[0] != N or not values
        assert config_potential(hull, system, omega, c) == \
            config_potential(HaarHull(2.5, 5, AmplitudeField(3)), system, omega, c)


def test_site_memo_stays_bounded():
    """The hull keeps one memo slot: a call at another phase replaces it, so
    it holds one key's sites, each with the bytes of a fresh hull."""
    system = golden_system()
    dom = box_configs(2, (0,), (13,))
    hull = HaarHull(0.5, 7, AmplitudeField(3))
    for om in (0.11, 0.53, 0.11):
        omega = np.array([om])
        want = config_potentials(HaarHull(0.5, 7, AmplitudeField(3)), system, omega, dom)
        got = []
        for c in dom:
            got.append(config_potential(hull, system, omega, c))
            assert len(hull._sites[1]) <= 14
        assert got == want.tolist()
        key, values = hull._sites
        assert key == (7, system, omega.shape, omega.tobytes()) and len(values) == 14
        phases = np.array([system.translate(omega, s) for s in values])
        fresh = HaarHull(0.5, 7, AmplitudeField(3)).values(phases)
        assert np.array(list(values.values())).tobytes() == fresh.tobytes()


def test_deep_resampling_leaves_sep_distribution(two_sided_n=250):
    """Resampling shallow generations must not shift the separation law when
    the minimal gaps live in the deepest visible generation."""
    sys_ = golden_system()
    dom = box_configs(2, (0,), (5,))
    om = np.array([0.33])

    def seps(transform):
        out = []
        for seed in range(two_sided_n):
            field = transform(AmplitudeField(seed))
            hull = HaarHull(0.5, 6, field)
            out.append(min_gap(config_potentials(hull, sys_, om, dom)))
        return np.array(out)

    base = seps(lambda f: f)
    shallow = seps(lambda f: f.resampled(1, 77).resampled(2, 77))
    _, p = stats.ks_2samp(base, shallow)
    assert p > 1e-3


# ---------------------------------------------------------------------------
# partition generations and growth exponent
# ---------------------------------------------------------------------------

def test_partition_generation_examples():
    assert partition_generation(16, 1, 2.0) == 17
    assert window_generation(16, 1, 2.0) == partition_generation(16 ** 4, 1, 2.0)
    assert window_generation(16, 1, 2.0) == 65


def test_partition_generation_monotone():
    gens = [partition_generation(L, 1, 3.0) for L in range(2, 200)]
    assert all(b >= a for a, b in zip(gens, gens[1:]))


def test_partition_generation_brackets():
    # 3 log2 L < n < 5 log2 L once ln L > |ln C| + 2 ln 2
    for L in (32, 64, 256, 1024):
        assert 3 * math.log2(L) < partition_generation(L, 1, 3.0) < 5 * math.log2(L)


def test_growth_exponent_closed_form():
    assert growth_exponent(2.0, 1) == pytest.approx(1600.0 / LN2)
    assert growth_exponent(2.5, 2) == pytest.approx(800 * 2.5 * 4 / LN2)


def test_density_bound_report():
    rep = density_bound(16, 2.5, 1, 2.0)
    gen = window_generation(16, 1, 2.0)
    assert rep.generation == gen
    assert rep.log2_inverse_weight == pytest.approx(2 * 2.5 * gen * gen)
    expected_log2 = growth_exponent(2.5, 1) * math.log(16) ** 2 / LN2
    assert rep.log2_bound == pytest.approx(expected_log2)
    assert rep.holds == (rep.log2_inverse_weight <= rep.log2_bound)
    assert rep.holds


# ---------------------------------------------------------------------------
# separation statistic
# ---------------------------------------------------------------------------

def test_min_gap_examples():
    assert min_gap([1.0, 3.0, 8.0]) == 2.0
    assert min_gap([4.0, 4.0, 9.0]) == 0.0
    with pytest.raises(ValueError):
        min_gap([1.0])


@pytest.mark.parametrize("values", [[1.0, math.nan, 2.0], [math.inf, math.inf, 1.0]],
                         ids=["nan", "inf-inf"])
def test_min_gap_refuses_non_finite_values(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite value"):
            min_gap(values)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
def test_min_gap_permutation_invariant(vals):
    rng = np.random.default_rng(0)
    shuffled = list(rng.permutation(vals))
    assert min_gap(vals) == min_gap(shuffled)
