"""Torus dynamics tests: rotations, dyadic cells, orbit separation, covers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andlab.errors import SeparationError
from andlab.potential import AmplitudeField, HaarHull
from andlab.torus import (
    MAX_CELL_BITS,
    ShiftSystem,
    cell_indices,
    cell_key,
    cover_split_check,
    entropy_covers,
    preset_frequencies,
    require_trajectory_separation,
    torus_distance,
    trajectory_cells_distinct,
    verify_div,
    verify_upa,
    wrap,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_system(**kw):
    return ShiftSystem(preset_frequencies("golden", 1, 1), **kw)


def _flat(omega, n):
    """One-based lexicographic index of omega's generation-n cell, folded from
    the per-coordinate indices of ``cell_key``."""
    flat = 0
    for k in cell_key(omega, n):
        flat = flat * (1 << n) + k
    return flat + 1


# ---------------------------------------------------------------------------
# wrapping and distance
# ---------------------------------------------------------------------------

def test_wrap_into_unit_cell():
    assert np.allclose(wrap(np.array([1.25, -0.25])), [0.25, 0.75])
    assert np.all(wrap(np.array([0.999])) < 1.0)


def test_torus_distance_is_circle_metric():
    assert torus_distance(np.array([0.1]), np.array([0.9])) == pytest.approx(0.2)
    assert torus_distance(np.array([0.5]), np.array([0.5])) == 0.0
    # max over coordinates
    a = np.array([0.0, 0.4])
    b = np.array([0.1, 0.0])
    assert torus_distance(a, b) == pytest.approx(0.4)


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True))
def test_torus_distance_symmetric_and_bounded(a, b):
    x, y = np.array([a]), np.array([b])
    d1, d2 = torus_distance(x, y), torus_distance(y, x)
    assert d1 == pytest.approx(d2)
    assert 0.0 <= d1 <= 0.5


# ---------------------------------------------------------------------------
# presets and translation
# ---------------------------------------------------------------------------

def test_golden_preset_leading_frequency():
    freqs = preset_frequencies("golden", 1, 1)
    assert freqs.shape == (1, 1)
    assert freqs[0, 0] == pytest.approx(GOLDEN, abs=1e-15)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_frequencies("nosuch", 1, 1)


def test_translation_is_additive():
    sys_ = golden_system()
    om = np.array([0.2])
    one = sys_.translate(om, (1,))
    five = sys_.translate(om, (5,))
    assert np.allclose(wrap(one + 4 * sys_.frequencies[0]), five)


@pytest.mark.parametrize("shift", [(0.5,), 0.5, (np.float64(1.0),), np.array([2.0]),
                                   (math.nan,), ("1",)])
def test_translate_refuses_a_shift_off_the_lattice(shift):
    with pytest.raises(ValueError, match="not an integer"):
        golden_system().translate(np.array([0.1]), shift)


def test_integer_shifts_keep_their_bits():
    """Any integer spelling of a shift translates as its float vector did."""
    sys_ = ShiftSystem(preset_frequencies("golden", 2, 2))
    om = np.array([0.1, 0.7])
    want = np.mod(om + np.asarray((3, -5), float) @ sys_.frequencies, 1.0)
    for shift in [(3, -5), [3, -5], np.array([3, -5]), (np.int64(3), np.int8(-5))]:
        assert sys_.translate(om, shift).tobytes() == want.tobytes()
    assert golden_system().translate(om[:1], 4).tobytes() == \
        golden_system().translate(om[:1], (4,)).tobytes()


def test_translation_shape_multifrequency():
    sys_ = ShiftSystem(preset_frequencies("golden", 1, 2))
    assert sys_.nu == 2
    out = sys_.translate(np.array([0.1, 0.2]), (3,))
    assert out.shape == (2,)
    assert np.all((0 <= out) & (out < 1))


@pytest.mark.parametrize("nu, omega", [(1, [0.3, 0.4]), (2, [0.3]), (2, np.zeros((4, 3))),
                                       (2, np.zeros((4, 1)))])
def test_translate_refuses_a_phase_of_another_nu(nu, omega):
    """An array phase whose last axis is not nu was broadcast, not refused."""
    sys_ = ShiftSystem(preset_frequencies("golden", 1, nu))
    with pytest.raises(ValueError, match=f"nu = {nu}"):
        sys_.translate(omega, (3,))


def test_translate_takes_a_scalar_phase_and_a_grid_of_phases():
    sys_ = ShiftSystem(preset_frequencies("golden", 1, 2))
    assert sys_.translate(0.1, (3,)).tobytes() == \
        sys_.translate(np.array([0.1, 0.1]), (3,)).tobytes()
    grid = np.array([[0.1, 0.2], [0.5, 0.7], [0.9, 0.0]])
    out = sys_.translate(grid, (3,))
    assert out.shape == (3, 2)
    assert out[1].tobytes() == sys_.translate(grid[1], (3,)).tobytes()


# ---------------------------------------------------------------------------
# orbit separation hypotheses
# ---------------------------------------------------------------------------

def test_upa_golden_holds_desk_range():
    rep = verify_upa(golden_system(), 1000)
    assert rep.holds
    assert rep.margin >= 1.0
    # golden rotation: best constant is phi + 2, so 3.0 clears it
    assert rep.best_C_A < 3.0


def test_upa_rational_frequency_fails():
    sys_ = ShiftSystem(np.array([[0.5]]))
    rep = verify_upa(sys_, 10)
    assert not rep.holds
    assert rep.worst_shift == (2,)


def test_div_rotation_is_isometry():
    rep = verify_div(golden_system(), samples=200, shift_range=50)
    assert rep.holds
    assert rep.max_ratio <= 1.0 + 1e-12


def test_upa_d2_scans_every_nonzero_shift_of_the_box():
    sys_ = ShiftSystem(preset_frequencies("golden", 2, 1))
    rep = verify_upa(sys_, 3)
    origin = np.zeros(sys_.nu)
    margins = {z: torus_distance(sys_.translate(origin, z), origin) * sys_.C_A
               * max(map(abs, z))
               for z in itertools.product(range(-3, 4), repeat=2) if any(z)}
    assert len(margins) == 48
    assert rep.margin == min(margins.values())
    assert rep.worst_shift == min(margins, key=margins.get)
    assert rep.holds == (rep.margin >= 1.0)


def test_div_d2_rotation_is_isometry():
    rep = verify_div(ShiftSystem(preset_frequencies("golden", 2, 1)), samples=100,
                     shift_range=4)
    assert rep.holds and rep.samples == 100
    assert rep.max_ratio <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# dyadic cells
# ---------------------------------------------------------------------------

def test_cell_key_basic():
    assert cell_key(np.array([0.3]), 1) == (0,)
    assert cell_key(np.array([0.75]), 2) == (3,)
    assert cell_key(np.array([0.25, 0.75]), 1) == (0, 1)


def test_cell_key_top_edge():
    # 1.0 wraps to 0.0; a phase just under 1 stays in the last cell
    assert cell_key(np.array([1.0]), 3) == (0,)
    assert cell_key(np.array([1.0 - 1e-12]), 3) == (7,)


def test_cube_index_one_based():
    assert cell_indices(np.array([[0.0], [0.5]]), 1).tolist() == [[1], [2]]


def test_cube_index_lexicographic_2d():
    # nu=2, generation 1: cells scan in row-major order
    seen = {}
    for a in (0.25, 0.75):
        for b in (0.25, 0.75):
            seen[(a, b)] = int(cell_indices(np.array([[a, b]]), 1)[0, 0])
    assert sorted(seen.values()) == [1, 2, 3, 4]
    assert seen[(0.25, 0.25)] == 1
    assert seen[(0.75, 0.75)] == 4


def test_wrap_edge_one_cell_rule():
    # np.mod rounds -1e-18 up to 1.0; wrap folds that to 0.0, so raw cells
    # agree with the hull, which has always read cell 0 there
    assert np.mod(-1e-18, 1.0) == 1.0
    assert wrap(-1e-18).tolist() == [0.0]
    assert wrap([1.0, -1e-18, 0.25, -0.25]).tolist() == [0.0, 0.0, 0.25, 0.75]
    hull = HaarHull(0.5, 8, AmplitudeField(4))
    for n in (1, 3, 8):
        assert cell_key(np.array([-1e-18]), n) == (0,)
        assert cell_indices(np.array([[-1e-18, 0.5]]), n)[0, -1] == (1 << n) // 2 + 1
    assert hull.value(np.array([-1e-18])) == hull.value(np.array([0.0]))


def test_cell_indices_match_cube_index():
    rng = np.random.default_rng(3)
    for nu in (1, 2, 3):
        pts = np.vstack([rng.random((20, nu)), np.full((1, nu), 1.0 - 2.0 ** -53)])
        flat = cell_indices(pts, 7)
        assert flat.shape == (len(pts), 7) and flat.dtype == np.int64
        for row, idx in zip(pts, flat):
            assert idx.tolist() == [_flat(row, n) for n in range(1, 8)]
    with pytest.raises(ValueError):
        cell_key(np.array([0.3]), -1)
    assert cell_indices(np.zeros((4, 2)), 0).shape == (4, 0)


def test_cell_indices_bit_guard():
    # the last float below 1 sits 2^9 cells under the top at generation 62
    top = cell_indices(np.array([[1.0 - 2.0 ** -53]]), MAX_CELL_BITS)[0, -1]
    assert top == 2 ** 62 - 2 ** 9 + 1
    assert cell_indices(np.zeros((1, 2)), MAX_CELL_BITS // 2)[0, -1] == 1
    with pytest.raises(ValueError):
        cell_indices(np.zeros((1, 1)), MAX_CELL_BITS + 1)
    with pytest.raises(ValueError):
        cell_indices(np.zeros((1, 2)), MAX_CELL_BITS // 2 + 1)


def test_cell_boundaries_exact():
    # dyadic boundaries are exactly representable: no misclassification
    for n in (1, 2, 5):
        for k in range(2 ** n):
            om = np.array([k * 2.0 ** (-n)])
            assert cell_key(om, n) == (k,)


# ---------------------------------------------------------------------------
# trajectory separation
# ---------------------------------------------------------------------------

def test_golden_trajectory_separates():
    sys_ = golden_system()
    shifts = [(z,) for z in range(-8, 9)]
    ok, collision = trajectory_cells_distinct(sys_, np.array([0.13]), shifts, 7)
    assert ok and collision is None
    require_trajectory_separation(sys_, np.array([0.13]), shifts, 7)


def test_rational_trajectory_collides():
    sys_ = ShiftSystem(np.array([[0.5]]))
    shifts = [(0,), (2,)]  # T^2 is the identity for frequency 1/2
    ok, collision = trajectory_cells_distinct(sys_, np.array([0.1]), shifts, 4)
    assert not ok
    assert set(collision) == {(0,), (2,)}
    with pytest.raises(SeparationError):
        require_trajectory_separation(sys_, np.array([0.1]), shifts, 4)


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def test_entropy_covers_fields():
    cov = entropy_covers(3, 1, 1, 1)
    assert cov.coarse_radius == pytest.approx(1.0 / (6 * 81))
    assert cov.fine_radius == pytest.approx(1.0 / (6 * 3 ** 8))
    assert cov.fine_radius < cov.coarse_radius
    assert cov.coarse_count == pytest.approx(6 * 81)
    side = 2.0 ** (-cov.generation)
    assert side / 4 <= 6 * cov.coarse_radius < side / 2


def test_entropy_covers_requires_scale():
    with pytest.raises(ValueError):
        entropy_covers(1, 1, 1, 1)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: verify_upa(golden_system(), 0), "shift_range",
                 id="verify_upa-shift_range=0"),
    pytest.param(lambda: verify_div(golden_system(), 0, 3), "samples", id="verify_div-samples=0"),
    pytest.param(lambda: verify_div(golden_system(), 5, 0), "shift_range",
                 id="verify_div-shift_range=0"),
    pytest.param(lambda: cover_split_check(golden_system(), 2, samples=0), "samples",
                 id="cover_split_check-samples=0"),
    pytest.param(lambda: cover_split_check(golden_system(), 2, points_per_cube=0),
                 "points_per_cube", id="cover_split_check-points_per_cube=0"),
])
def test_sampled_checks_refuse_no_samples(call, name):
    """No sample held over nothing (``holds=True`` with no shift compared,
    ``samples=0``, or a worst count of 0), and no shift raised numpy's
    ``high <= 0``."""
    with pytest.raises(ValueError, match=f"need {name} >= 1, got 0"):
        call()


def test_cover_split_bounded():
    sys_ = golden_system()
    worst = cover_split_check(sys_, 2, samples=32, points_per_cube=16, seed=3)
    assert worst <= 2 ** sys_.nu


def test_cover_split_bounded_d2():
    sys_ = ShiftSystem(preset_frequencies("golden", 2, 1))
    worst = cover_split_check(sys_, 2, samples=32, points_per_cube=16, seed=3)
    assert 1 <= worst <= 2 ** sys_.nu


def test_cover_split_draws_shifts_without_listing_the_window():
    """At d = 2 and L = 3 the window holds 26,568 nonzero shifts: listing
    them all to draw 4 peaked at about 4 MB."""
    sys_ = ShiftSystem(preset_frequencies("golden", 2, 1))
    # a first call pays numpy's one-time random and import setup (about 1 MB)
    cover_split_check(sys_, 3, samples=4, points_per_cube=4)
    tracemalloc.start()
    try:
        cover_split_check(sys_, 3, samples=4, points_per_cube=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


@pytest.mark.parametrize("d, shifts", [
    (1, {(1,), (2,), (3,)}),
    (2, {z for z in itertools.product((-1, 0, 1), repeat=2) if any(z)}),
], ids=["d=1", "d=2"])
def test_sampled_shifts_cover_the_nonzero_window(d, shifts, monkeypatch):
    """verify_div draws its shifts from z in 1..R at d = 1 and from the
    nonzero points of the box [-R, R]^d at d >= 2, and never the zero shift."""
    drawn = []

    def recording(self, omega, x, real=ShiftSystem.translate):
        drawn.append(tuple(x))
        return real(self, omega, x)

    monkeypatch.setattr(ShiftSystem, "translate", recording)
    radius = 3 if d == 1 else 1
    rep = verify_div(ShiftSystem(preset_frequencies("golden", d, 1)), samples=400,
                     shift_range=radius)
    assert rep.samples == 400 and len(drawn) == 800
    assert set(drawn) == shifts
