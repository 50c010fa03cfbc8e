"""Monte-Carlo estimator tests: trial seeding and digests, the inter-spectral
spacing bound, initial-scale separation, bad-parameter measures, sample-mean
concentration, and eigenvalue-shift checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andlab import potential as pot
from andlab import wegner
from andlab.configs import FermiConfig, box_configs, weakly_separated
from andlab.errors import BudgetExceededError, SeparationError
from andlab.operators import spectral_distance
from andlab.potential import tail_bound_sharp, window_generation
from andlab.torus import ShiftSystem, preset_frequencies
from andlab.wegner import (
    McPlan,
    ball_scaffold,
    evc_shift_check,
    omega_samples,
    rcm_check,
    sep_l0_estimate,
    sep_trial,
    theta_bad_measure,
    trial_seed,
    value_digest,
    wegner_estimate,
    wegner_trial,
)


def cfg(*sites):
    return FermiConfig.make([(s,) for s in sites])


def golden_system():
    return ShiftSystem(preset_frequencies("golden", 1, 1))


# ---------------------------------------------------------------------------
# seeding and digests
# ---------------------------------------------------------------------------

def test_trial_seed_deterministic_and_spread():
    s1 = trial_seed(5, 0)
    assert s1 == trial_seed(5, 0)
    seeds = {trial_seed(5, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert trial_seed(6, 0) != s1


def test_value_digest_bit_sensitivity():
    a = np.array([0.1, 0.2, 0.3])
    d1 = value_digest(a)
    assert d1 == value_digest(a.copy())
    b = a.copy()
    b[1] = np.nextafter(b[1], 1.0)
    assert value_digest(b) != d1


def test_mcplan_round_trip():
    plan = McPlan(trials=40, seed=3, s_grid=(0.1, 0.2), scenario={"L": 2})
    plan2 = McPlan.from_json(plan.to_json())
    assert plan2.trials == 40 and plan2.seed == 3
    assert tuple(plan2.s_grid) == (0.1, 0.2)
    assert list(plan.seeds()) == list(plan2.seeds())


def test_omega_samples_shape_and_determinism():
    sys_ = golden_system()
    oms = omega_samples(sys_, 2, n_adversarial=6, n_random=4, seed=1)
    assert oms.shape[1] == sys_.nu
    assert len(oms) <= 10
    assert np.all((0 <= oms) & (oms < 1))
    again = omega_samples(sys_, 2, n_adversarial=6, n_random=4, seed=1)
    assert np.array_equal(oms, again)


# ---------------------------------------------------------------------------
# spacing trials
# ---------------------------------------------------------------------------

def test_ball_scaffold_checks_budget():
    with pytest.raises(BudgetExceededError):
        ball_scaffold(cfg(0, 1), 2, max_size=5)


def test_wegner_trial_bit_exact_replay():
    sys_ = golden_system()
    sx = ball_scaffold(cfg(0, 1), 1)
    sy = ball_scaffold(cfg(8, 12), 1)
    om = np.array([0.29])
    d1 = wegner_trial(991, sys_, om, sx, sy, g=3.0, b=2.5, n_hull=4)
    d2 = wegner_trial(991, sys_, om, sx, sy, g=3.0, b=2.5, n_hull=4)
    assert value_digest(d1) == value_digest(d2)
    d3 = wegner_trial(992, sys_, om, sx, sy, g=3.0, b=2.5, n_hull=4)
    assert value_digest(d3) != value_digest(d1)


def wegner_trial_oracle(seed: int, system, omega, scaffold_x, scaffold_y, g: float,
                        b: float, n_hull: int):
    """Distance between the two ball spectra for one amplitude field."""
    hull = pot.HaarHull(b, n_hull, pot.AmplitudeField(seed))
    vx = np.linalg.eigvalsh(wegner._with_potential(scaffold_x, hull, system, omega, g))
    vy = np.linalg.eigvalsh(wegner._with_potential(scaffold_y, hull, system, omega, g))
    return np.asarray([spectral_distance(vx, vy)])


SCAFFOLDS = {L: (ball_scaffold(cfg(0, 1), L), ball_scaffold(cfg(8, 12), L)) for L in (0, 1, 2)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.sampled_from([0, 1, 2]),
       st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.5, 3.0, 20.0]))
def test_wegner_trial_matches_two_eigvalsh_oracle(seed, L, om, g):
    sx, sy = SCAFFOLDS[L]
    args = (seed, golden_system(), np.array([om]), sx, sy, g, 2.5, 6)
    got, want = wegner_trial(*args), wegner_trial_oracle(*args)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_wegner_estimate_checks_s_grid_before_trials(monkeypatch):
    def no_trials(*args):
        raise AssertionError("trials ran before the s grid was checked")

    monkeypatch.setattr(wegner, "_run_trials", no_trials)
    for grid in ((0.1, 0.0), (-1.0,)):
        with pytest.raises(ValueError):
            wegner_estimate(McPlan(trials=40, seed=0, s_grid=grid), golden_system(),
                            np.array([0.4]), cfg(0, 1), cfg(8, 12), L=1, g=1.0, b=2.5,
                            n_hull=3)


def test_wegner_estimate_report():
    sys_ = golden_system()
    plan = McPlan(trials=150, seed=11, s_grid=(1e-4, 1e-3, 1e-2, 1e-1, 1.0))
    rep = wegner_estimate(plan, sys_, np.array([0.41]), cfg(0, 1), cfg(8, 12),
                          L=1, g=3.0, b=2.5, n_hull=4)
    emp = np.asarray(rep.empirical)
    assert np.all(np.diff(emp) >= 0)          # CDF in s
    assert np.all((0 <= emp) & (emp <= 1))
    assert len(rep.records) == 150
    assert rep.holds                          # the desk-scale bound is huge
    assert np.isfinite(rep.log_c5_fit)
    js = rep.to_json()
    assert js["n_trials"] == 150


@pytest.mark.parametrize("bad", [{"trials": -1}, {"workers": 0}])
def test_plan_rejects_bad_counts(bad):
    with pytest.raises(ValueError):
        McPlan(**{"trials": 10, "seed": 0, **bad})


def test_wegner_estimate_rejects_bad_pairs():
    sys_ = golden_system()
    plan = McPlan(trials=10, seed=0, s_grid=(0.1,))
    with pytest.raises(SeparationError):
        wegner_estimate(plan, sys_, np.array([0.4]), cfg(0, 1), cfg(0, 1),
                        L=1, g=1.0, b=2.5, n_hull=3)
    with pytest.raises(ValueError):
        wegner_estimate(McPlan(trials=10, seed=0), sys_, np.array([0.4]),
                        cfg(0, 1), cfg(8, 12), L=1, g=1.0, b=2.5, n_hull=3)


# ---------------------------------------------------------------------------
# initial-scale separation
# ---------------------------------------------------------------------------

def test_sep_trial_truncated_vs_full():
    sys_ = golden_system()
    window = box_configs(2, (0,), (5,))
    oms = np.array([[0.21], [0.68]])
    out = sep_trial(3, sys_, oms, window, g=2.0, b=0.5, n_hull=6, N_trunc=3)
    assert out.shape == (2, 2)
    assert np.all(out > 0)


def test_sep_l0_small_threshold_never_bad():
    sys_ = golden_system()
    window = box_configs(2, (0,), (5,))
    oms = np.array([[0.21], [0.68], [0.9]])
    gen = 3
    plan = McPlan(trials=120, seed=7)
    rep = sep_l0_estimate(plan, sys_, oms, window, g=1.0, b=0.5, n_hull=6,
                          generation=gen, delta0=1e-12)
    assert rep.implication_violations == 0
    assert rep.bad_fraction == 0.0
    assert rep.threshold_full == pytest.approx(4e-12)
    assert rep.threshold_trunc == pytest.approx(5e-12)
    expect_guard = 2 * 2 * tail_bound_sharp(gen, 0.5) / 1e-12
    assert rep.guard_ratio == pytest.approx(expect_guard)


def test_sep_l0_records_independent_of_workers():
    sys_ = golden_system()
    window = box_configs(2, (0,), (5,))
    oms = np.array([[0.21], [0.68]])
    reps = [sep_l0_estimate(McPlan(trials=6, seed=5, workers=w), sys_, oms, window,
                            g=1.0, b=0.5, n_hull=6, generation=3, delta0=1e-3)
            for w in (1, 2)]
    assert len(reps[0].records) == 6
    assert reps[0].records == reps[1].records
    assert reps[0].bad_fraction == reps[1].bad_fraction


def test_run_trials_starts_at_most_one_process_per_trial(monkeypatch):
    """A pool never outnumbers the trials; the fake context records the pool
    size and runs the trials in this process."""
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, argtuples):
            return [fn(*a) for a in argtuples]

    class FakeContext:
        Pool = InProcessPool

    monkeypatch.setattr(wegner.multiprocessing, "get_context", lambda method: FakeContext)
    sys_ = golden_system()
    window = box_configs(2, (0,), (5,))
    oms = np.array([[0.21], [0.68]])
    reps = [sep_l0_estimate(McPlan(trials=2, seed=5, workers=w), sys_, oms, window,
                            g=1.0, b=0.5, n_hull=6, generation=3, delta0=1e-3)
            for w in (1, 8)]
    assert sizes == [2]
    assert reps[0].records == reps[1].records


def test_sep_l0_huge_threshold_all_bad():
    sys_ = golden_system()
    window = box_configs(2, (0,), (5,))
    oms = np.array([[0.21]])
    plan = McPlan(trials=60, seed=2)
    rep = sep_l0_estimate(plan, sys_, oms, window, g=1.0, b=0.5, n_hull=6,
                          generation=3, delta0=10.0)
    assert rep.bad_fraction == 1.0


def test_sep_l0_requires_room_for_tail():
    sys_ = golden_system()
    window = box_configs(2, (0,), (4,))
    plan = McPlan(trials=10, seed=1)
    with pytest.raises(ValueError):
        sep_l0_estimate(plan, sys_, np.array([[0.2]]), window, g=1.0, b=0.5,
                        n_hull=4, generation=4, delta0=1e-9)


# ---------------------------------------------------------------------------
# bad-parameter measure
# ---------------------------------------------------------------------------

def test_theta_bad_measure_trivial_thresholds():
    sys_ = golden_system()
    oms = omega_samples(sys_, 2, 4, 4, seed=5)
    common = dict(system=sys_, omegas=oms, window_center=cfg(0, 1),
                  window_radius=8, L=2, g=1.0, b=2.5, n_hull=4,
                  interaction=None, convention="laplacian")
    tiny = theta_bad_measure(McPlan(trials=40, seed=9), delta=0.0, **common)
    assert tiny.bad_fraction == 0.0
    assert tiny.holds
    assert tiny.bound == pytest.approx(2.0 ** -2.5)   # L^{-bA} at L = 2
    huge = theta_bad_measure(McPlan(trials=40, seed=9), delta=1e6, **common)
    assert huge.bad_fraction == 1.0
    assert not huge.holds


def test_theta_bad_measure_l0_bound():
    sys_ = golden_system()
    oms = omega_samples(sys_, 2, 4, 0, seed=5)
    rep = theta_bad_measure(McPlan(trials=30, seed=4), system=sys_, omegas=oms,
                            window_center=cfg(0, 1), window_radius=4, L=0,
                            g=1.0, delta=0.0, b=2.5, n_hull=4)
    assert rep.level_L == 0
    assert rep.bound == pytest.approx(2.0 ** -2.5)


# ---------------------------------------------------------------------------
# sample-mean concentration
# ---------------------------------------------------------------------------

def test_rcm_singleton_is_deterministic():
    plan = McPlan(trials=3000, seed=13)
    rep = rcm_check(plan, q_size=1, interval=1.0, t_grid=(0.5, 0.9),
                    eps_grid=(0.1, 0.3), n_bins=20)
    # |Q| = 1: the conditional mean has zero width, nu = t / ell exactly,
    # so the exceedance is a step function in t
    for cell in rep.cells:
        assert cell.holds
    assert rep.holds


def test_rcm_pair_within_bound():
    plan = McPlan(trials=12000, seed=17)
    rep = rcm_check(plan, q_size=2, interval=1.0, t_grid=(0.2, 0.4, 0.8),
                    eps_grid=(0.05, 0.1, 0.2), n_bins=60)
    assert rep.holds
    assert rep.bin_diameter > 0
    for cell in rep.cells:
        assert cell.empirical <= cell.bound + cell.half_width
    js = rep.to_json()
    assert len(js["cells"]) == 9


def test_rcm_requires_enough_trials():
    with pytest.raises(ValueError):
        rcm_check(McPlan(trials=50, seed=1), q_size=2, interval=1.0,
                  t_grid=(0.5,), eps_grid=(0.1,), n_bins=100)


def test_rcm_digest_reproducible():
    plan = McPlan(trials=2000, seed=23)
    kw = dict(q_size=2, interval=1.0, t_grid=(0.3,), eps_grid=(0.1,), n_bins=20)
    assert rcm_check(plan, **kw).digest == rcm_check(plan, **kw).digest


# ---------------------------------------------------------------------------
# eigenvalue shifts under potential bumps
# ---------------------------------------------------------------------------

def test_evc_singletons_shift_exactly():
    x, y = cfg(0, 1), cfg(0, 5)
    wit = weakly_separated(x, y, 0)
    assert wit is not None
    pot = {x: 0.3, y: -0.2}
    rep = evc_shift_check([x], [y], pot, g=2.0, witness=wit, c=0.7,
                          convention="none")
    assert rep.exact
    assert rep.holds
    assert rep.n_inner != rep.n_other
    assert rep.max_abs_error <= 1e-9 * max(1.0, 2.0 * 0.7)


def test_evc_zero_bump_is_noop():
    x, y = cfg(0, 1), cfg(0, 5)
    wit = weakly_separated(x, y, 0)
    rep = evc_shift_check([x], [y], {x: 0.3, y: -0.2}, g=1.5, witness=wit,
                          c=0.0, convention="none")
    assert rep.exact and rep.holds
    assert rep.max_abs_error == 0.0


def test_evc_first_order_shift_on_balls():
    rng = np.random.default_rng(31)
    dom_x = box_configs(2, (0,), (5,))
    dom_y = box_configs(2, (7,), (12,))
    wit = weakly_separated(dom_x[0], dom_y[0], 1)
    assert wit is not None
    vals = {}
    for c in set(dom_x) | set(dom_y):
        vals[c] = float(rng.normal()) * 5.0
    rep = evc_shift_check(dom_x, dom_y, vals, g=30.0, witness=wit, c=1e-6)
    assert not rep.exact
    assert rep.holds
    assert rep.max_rel_deviation <= 0.05
