"""Monte-Carlo estimator tests: trial seeding and digests, the inter-spectral
spacing bound, initial-scale separation, bad-parameter measures, sample-mean
concentration, and eigenvalue-shift checks."""

import dataclasses
import functools
import json
import math
import operator
import pickle
import struct
from collections import Counter
from contextlib import contextmanager

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
    bad_measure_trials,
    ball_scaffold,
    evc_shift_check,
    omega_samples,
    rcm_check,
    sep_l0_estimate,
    sep_trials,
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
    plan2 = McPlan(**plan.to_json())
    assert plan2.trials == 40 and plan2.seed == 3
    assert tuple(plan2.s_grid) == (0.1, 0.2)
    assert list(plan.seeds()) == list(plan2.seeds())


@settings(max_examples=40, deadline=None)
@given(st.integers(-2 ** 63, 2 ** 63 - 1), st.sampled_from([0, 1, 3000]))
def test_plan_seeds_are_the_trial_seeds(seed, trials):
    """``McPlan.seeds`` updates copies of one hasher fed the base seed; it
    derives what ``trial_seed``, the replay path, derives one trial at a time."""
    seeds = McPlan(trials=trials, seed=seed).seeds()
    assert seeds == [trial_seed(seed, t) for t in range(trials)]


def _seed_rows(seeds):
    """One integer per seed: rows of shape (T,) that are not float64 yet."""
    return np.asarray(seeds, dtype=np.uint64) >> np.uint64(11)


def _assert_records_digest_rows(plan, trials, *args):
    """The records of ``_run_trials`` are the replay path's, row by row."""
    rows, records = wegner._run_trials(plan, trials, *args)
    seeds = [trial_seed(plan.seed, t) for t in range(plan.trials)]
    assert len(rows) == plan.trials
    assert records == tuple(wegner.TrialRecord(t, s, value_digest(row))
                            for t, (s, row) in enumerate(zip(seeds, rows)))
    return rows


SEP_ARGS = (golden_system(), np.array([[0.21], [0.68], [0.9]]), box_configs(2, (0,), (5,)),
            1.0, 0.5, 6, 3)


def test_run_trials_records_digest_each_row():
    """Rows of shape (T,), (T, k) (the ball-pair trials) and (T, k, 2) (the
    ``sep_trials`` rows) are each digested as ``value_digest`` digests them."""
    rows = _assert_records_digest_rows(McPlan(trials=7, seed=-5), _seed_rows)
    assert rows.shape == (7,) and rows.dtype == np.uint64
    omegas = [np.array([0.29]), np.array([0.61])]
    rows = _assert_records_digest_rows(McPlan(trials=5, seed=2), bad_measure_trials,
                                       golden_system(), omegas, list(SCAFFOLDS[1]),
                                       [(0, 1)], 3.0, 2.5, 6)
    assert rows.shape == (5, 2)
    rows = _assert_records_digest_rows(McPlan(trials=4, seed=3), sep_trials, *SEP_ARGS)
    assert rows.shape == (4, 3, 2)


def test_run_trials_records_digest_pooled_rows():
    """Rows that a 2-worker pool computes and concatenates are digested row
    by row as well, and are the rows one process computes."""
    rows = _assert_records_digest_rows(McPlan(trials=5, seed=4, workers=2), sep_trials,
                                       *SEP_ARGS)
    alone, _ = wegner._run_trials(McPlan(trials=5, seed=4), sep_trials, *SEP_ARGS)
    assert rows.tobytes() == alone.tobytes()


def test_omega_samples_shape_and_determinism():
    sys_ = golden_system()
    oms = omega_samples(sys_, 2, n_adversarial=6, n_random=4, seed=1)
    assert oms.shape[1] == sys_.nu
    assert len(oms) <= 10
    assert np.all((0 <= oms) & (oms < 1))
    again = omega_samples(sys_, 2, n_adversarial=6, n_random=4, seed=1)
    assert np.array_equal(oms, again)


def test_omega_samples_below_scale_two_are_evenly_spaced():
    # no entropy cover below L = 2: the adversarial points are bin midpoints
    oms = omega_samples(golden_system(), 1, n_adversarial=4, n_random=0)
    assert np.array_equal(oms, [[0.125], [0.375], [0.625], [0.875]])


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


def _ball_spectrum_oracle(scaffold, hull, system, omega, g):
    """Eigenvalues of the scaffold with g times ``pot.config_potentials`` on
    its diagonal: the potential rebuilt from scratch, no shared table."""
    H = scaffold.matrix.copy()
    H[np.diag_indices(scaffold.n)] += g * pot.config_potentials(
        hull, system, omega, scaffold.domain)
    return np.linalg.eigvalsh(H)


def bad_measure_trial_oracle(seed: int, system, omegas, scaffolds, pairs, g: float,
                             b: float, n_hull: int):
    """Per omega, for one amplitude field: min over the pairs of the
    distance between the two ball spectra, each rebuilt one at a time."""
    hull = pot.HaarHull(b, n_hull, pot.AmplitudeField(seed))
    out = np.empty(len(omegas))
    for i, w in enumerate(omegas):
        spectra = [_ball_spectrum_oracle(sc, hull, system, w, g) for sc in scaffolds]
        out[i] = min(spectral_distance(spectra[a], spectra[bx]) for a, bx in pairs)
    return out


def _pair_oracle(seed, system, omega, scaffold_x, scaffold_y, g, b, n_hull):
    """``bad_measure_trial_oracle`` with ``wegner_trial``'s arguments."""
    return bad_measure_trial_oracle(seed, system, [omega], [scaffold_x, scaffold_y],
                                    [(0, 1)], g, b, n_hull)


SCAFFOLDS = {L: (ball_scaffold(cfg(0, 1), L), ball_scaffold(cfg(8, 12), L)) for L in (0, 1, 2)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.sampled_from([0, 1, 2]),
       st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.5, 3.0, 20.0]))
def test_wegner_trial_matches_two_eigvalsh_oracle(seed, L, om, g):
    sx, sy = SCAFFOLDS[L]
    args = (seed, golden_system(), np.array([om]), sx, sy, g, 2.5, 6)
    got, want = wegner_trial(*args), _pair_oracle(*args)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _fresh_scaffolds(L: int):
    """The ball pair of ``SCAFFOLDS[L]`` built anew."""
    return ball_scaffold(cfg(0, 1), L), ball_scaffold(cfg(8, 12), L)


def test_interleaved_trials_match_their_rebuilds():
    """Trials at two phases, two systems and three ball sizes, interleaved in
    one process on the same scaffolds, each equal a rebuild through
    config_potentials: anything a trial kept from the previous phase, system
    or ball would change the bits."""
    systems = [golden_system(), ShiftSystem(np.array([[math.sqrt(2.0) - 1.0]]))]
    omegas = [np.array([0.29]), np.array([0.61])]
    scaffolds = {L: _fresh_scaffolds(L) for L in (0, 1, 2)}
    cases = [(L, s, om) for L in (0, 1, 2) for s in systems for om in omegas]
    for seed in (5, 2 ** 64 - 3):
        for L, sys_, om in cases:
            args = (seed, sys_, om, *scaffolds[L], 3.0, 2.5, 6)
            assert wegner_trial(*args).tobytes() == _pair_oracle(*args).tobytes()
    # several phases and scaffolds in one bad-measure trial
    trio = [*scaffolds[1], scaffolds[2][0]]
    for sys_ in systems:
        args = (sys_, omegas, trio, [(0, 1), (1, 2)], 3.0, 2.5, 6)
        got = bad_measure_trials([8], *args)[0]
        assert got.tobytes() == bad_measure_trial_oracle(8, *args).tobytes()


@pytest.fixture
def built_tables(monkeypatch):
    """Numbers of points of the cell tables that get built."""
    built = []
    cell_table = pot.cell_table

    def counting(phases, depth):
        built.append(len(phases))
        return cell_table(phases, depth)

    monkeypatch.setattr(pot, "cell_table", counting)
    return built


def test_pickled_scaffolds_replay_their_trials():
    """Scaffolds pickled after a trial, as a pool chunk would receive them:
    the trial replays bit for bit, and a new field on them equals the
    rebuild."""
    scaffolds = _fresh_scaffolds(1)
    args = (golden_system(), np.array([0.29]), *scaffolds, 3.0, 2.5, 6)
    first = wegner_trial(17, *args)
    copies = pickle.loads(pickle.dumps(scaffolds))
    want = _pair_oracle(18, *args)
    again = (golden_system(), np.array([0.29]), *copies, 3.0, 2.5, 6)
    assert wegner_trial(17, *again).tobytes() == first.tobytes()
    assert wegner_trial(18, *again).tobytes() == want.tobytes()


@contextmanager
def _chunked(budget: int):
    """The trials with ``budget`` working bytes per chunk of
    ``_trial_potentials``; yields the number of seeds each chunk summed and,
    per pass (one cell table), the (seed, hash message) pairs hashed."""
    sizes, passes = [], []
    stacked_sums, amplitudes, cell_table = (pot.HaarHull.stacked_sums, pot.field_amplitudes,
                                            pot.cell_table)
    default = wegner._TRIAL_CHUNK_BYTES

    def counting(self, table, fetch):
        sums = stacked_sums(self, table, fetch)
        if self.theta is None:      # the trials' hull, not an oracle's one-field hull
            sizes.append(len(sums))
        return sums

    def hashing(seeds, messages):
        passes[-1].extend((seed, message) for seed in seeds for message in messages)
        return amplitudes(seeds, messages)

    def building(phases, depth):
        passes.append([])
        return cell_table(phases, depth)

    pot.HaarHull.stacked_sums, pot.field_amplitudes, pot.cell_table = counting, hashing, building
    wegner._TRIAL_CHUNK_BYTES = budget
    try:
        yield sizes, passes
    finally:
        pot.HaarHull.stacked_sums, pot.field_amplitudes, pot.cell_table = (
            stacked_sums, amplitudes, cell_table)
        wegner._TRIAL_CHUNK_BYTES = default


TRIO = (*SCAFFOLDS[1], SCAFFOLDS[2][0])


def _assert_rows_match_trials(seeds, args):
    rows = bad_measure_trials(seeds, *args)
    assert rows.shape == (len(seeds), len(args[1])) and rows.dtype == np.float64
    for seed, row in zip(seeds, rows):
        want = bad_measure_trial_oracle(seed, *args)
        assert row.tobytes() == want.tobytes()
        assert value_digest(row) == value_digest(want)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=24, max_size=24),
       st.sampled_from([0.5, 2.5, 5.0]), st.sampled_from([1, 3]),
       st.sampled_from(["one", "full", "past"]))
def test_batched_trials_match_the_scalar_trials(seeds, b, n_omegas, length):
    """Rows of ``bad_measure_trials`` are byte-equal to the one-trial rebuild
    through config_potentials for fields across [0, 2^64), at b = 0.5 (the
    stop is the whole depth), 2.5 and 5, on one phase and on several, in a
    chunk of one trial, in exactly one full chunk and one trial past a
    chunk."""
    omegas = [np.array([0.29]), np.array([0.61]), np.array([0.07])][:n_omegas]
    if n_omegas == 1:
        args = (golden_system(), omegas, list(SCAFFOLDS[1]), [(0, 1)], 3.0, b, 6)
    else:
        args = (golden_system(), omegas, list(TRIO), [(0, 1), (1, 2), (0, 2)], 3.0, b, 6)
    with _chunked(16_000) as (sizes, _):
        _assert_rows_match_trials(seeds, args)     # learn the chunk length
    step = sizes[0]
    assert len(sizes) > 1 and all(n == step for n in sizes[:-1])
    n = {"one": 1, "full": step, "past": step + 1}[length]
    with _chunked(16_000) as (sizes, _):
        _assert_rows_match_trials(seeds[-n:], args)
    assert sizes == {"one": [1], "full": [step], "past": [step, 1]}[length]


def _generation_fold(hull, table, row, depth=None):
    """Per point, generations 1..depth (default: the table's) of a field
    whose amplitudes of the table's cells, in table order, are ``row``,
    added in order from 0.0."""
    total = np.zeros(len(table.inverse))
    for n in range(table.inverse.shape[1] if depth is None else depth):
        total += pot.generation_weight(n + 1, hull.b) * row[table.inverse[:, n]]
    return total


@pytest.mark.parametrize("b", [2.5, 5.0])
def test_stacked_sums_take_the_deeper_stop_a_small_sum_needs(b):
    """A field whose smallest partial sum is tiny feels generations past the
    stop: ``stacked_sums`` fetches every row's cells of the stop's
    generations, then those of the deeper generations for the rows that
    feel them only, and each row has the bits of its full-depth fold."""
    scaffold = SCAFFOLDS[2][0]
    hull = pot.HaarHull(b, 6, None)
    table = pot.cell_table(pot.site_rows(golden_system(), np.array([0.29]),
                                         scaffold.domain)[0], hull.depth)
    rng = np.random.default_rng(3)
    rows = rng.random((4, len(table.ks)))
    rows[1] = 0.0                                   # every sum 0: the whole depth
    rows[2] = np.where(np.asarray(table.gens) <= 2, 2.0 ** -40, rows[2])
    fetched = []

    def fetch(picked, cells):
        fetched.append((picked, cells))
        return rows[:, cells] if picked is None else rows[picked, cells]

    sums = hull.stacked_sums(table, fetch)
    felt = hull.felt_cells(table)
    assert felt < len(table.ks)
    assert fetched == [(None, slice(0, felt)), ([1, 2], slice(felt, len(table.ks)))]
    for row, got in zip(rows, sums):
        assert got.tobytes() == _generation_fold(hull, table, row).tobytes()
    assert np.array_equal(sums[1], np.zeros(len(table.inverse)))
    # the deeper generations count: the stop's generations alone differ
    stop = table.gens[felt - 1]
    assert _generation_fold(hull, table, rows[2], stop).tobytes() != sums[2].tobytes()


def test_batched_trials_sum_unfinished_rows_past_the_stop(monkeypatch):
    """At b = 1.9 the stop keeps 3 generations and a_4 = a_1 2^-57, so a sum
    under about a_1 / 16 feels generation 4: the cells of the generations
    past the stop are hashed for the fields with such a sum only, and every
    trial keeps the oracle's bits.  At g = 2^30 the potential dwarfs the
    kinetic diagonal, so the bits that generation 4 changes reach the
    spectral distances."""
    deeper = []
    amplitudes = pot.field_amplitudes

    def recording(seeds, messages):
        if struct.unpack_from("<q", messages[0])[0] > 3:    # the message's generation
            deeper.extend(seeds)
        return amplitudes(seeds, messages)

    monkeypatch.setattr(pot, "field_amplitudes", recording)
    seeds = [trial_seed(4, t) for t in range(24)]
    args = (golden_system(), [np.array([0.29])], list(SCAFFOLDS[1]), [(0, 1)], 2.0 ** 30,
            1.9, 6)
    rows = bad_measure_trials(seeds, *args)
    monkeypatch.undo()
    assert 0 < len(deeper) == len(set(deeper)) < len(seeds)
    for seed, row in zip(seeds, rows):
        assert row.tobytes() == bad_measure_trial_oracle(seed, *args).tobytes()


def test_sum_rows_adds_a_stack_column_by_column():
    """Each row of a (T, s) stack is summed per configuration row as a left
    fold from 0.0 in particle order."""
    rng = np.random.default_rng(5)
    site = rng.random((3, 7))
    rows = rng.integers(0, 7, (4, 3))
    stacked = pot.sum_rows(site, rows)
    assert stacked.shape == (3, 4)
    want = [[functools.reduce(operator.add, one[row].tolist(), 0.0) for row in rows]
            for one in site]
    assert stacked.tobytes() == np.array(want).tobytes()


def test_wegner_estimate_records_independent_of_workers():
    reps = [wegner_estimate(McPlan(trials=4, seed=3, s_grid=(0.1, 1.0), workers=w),
                            golden_system(), np.array([0.41]), cfg(0, 1), cfg(8, 12),
                            L=1, g=3.0, b=2.5, n_hull=4)
            for w in (1, 2)]
    assert len(reps[0].records) == 4
    assert reps[0].records == reps[1].records
    assert reps[0].empirical == reps[1].empirical


def test_wegner_estimate_checks_s_grid_before_trials(monkeypatch):
    def no_trials(*args):
        raise AssertionError("trials ran before the s grid was checked")

    monkeypatch.setattr(wegner, "_run_trials", no_trials)
    for grid in ((0.1, 0.0), (-1.0,)):
        with pytest.raises(ValueError):
            wegner_estimate(McPlan(trials=40, seed=0, s_grid=grid), golden_system(),
                            np.array([0.4]), cfg(0, 1), cfg(8, 12), L=1, g=1.0, b=2.5,
                            n_hull=3)


def test_wegner_estimate_refuses_no_trials():
    """No trial would report ``holds`` with ``n_trials = 0``."""
    with pytest.raises(ValueError, match="at least one trial"):
        wegner_estimate(McPlan(trials=0, seed=11, s_grid=(0.1, 1.0)), golden_system(),
                        np.array([0.41]), cfg(0, 1), cfg(8, 12), L=1, g=3.0, b=2.5,
                        n_hull=4)


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


@pytest.mark.parametrize("bad", [{"trials": -1}, {"workers": 0}, {"trials": True},
                                 {"trials": 2.5}, {"workers": True}, {"workers": 1.5},
                                 {"seed": 2 ** 63}, {"seed": -2 ** 63 - 1}, {"seed": 1.5},
                                 {"seed": False}])
def test_plan_rejects_bad_counts(bad):
    """Each bad field fails when the plan is built, with its name in the
    message, not later inside a trial (``struct.error`` or ``TypeError``)."""
    with pytest.raises(ValueError, match=next(iter(bad))):
        McPlan(**{"trials": 10, "seed": 0, **bad})


def test_plan_accepts_the_int64_seed_range():
    for seed in (-2 ** 63, 2 ** 63 - 1):
        plan = McPlan(trials=2, seed=seed)
        assert len(plan.seeds()) == 2
        assert plan.to_json() == {"trials": 2, "seed": seed, "s_grid": (), "scenario": {},
                                  "workers": 1}


SCENARIO = {"L0": 2, "s_grid": [0.1, 1.0], "nested": {"trials": [6]}}


@pytest.fixture(scope="module")
def json_reports():
    """One of each report that a plan with a scenario gives."""
    plan = McPlan(trials=6, seed=5, s_grid=(0.1, 1.0), scenario=SCENARIO)
    sys_ = golden_system()
    oms = omega_samples(sys_, 2, 2, 0, seed=5)
    return {
        "plan": plan,
        "wegner": wegner_estimate(plan, sys_, np.array([0.41]), cfg(0, 1), cfg(8, 12),
                                  L=1, g=3.0, b=2.5, n_hull=4),
        "sep_l0": sep_l0_estimate(plan, *SEP_ARGS[:3], g=1.0, b=0.5, n_hull=6,
                                  generation=3, delta0=1e-3),
        "bad_measure": theta_bad_measure(plan, sys_, oms, cfg(0, 1), 8, L=2, g=1.0,
                                         delta=0.01, b=2.5, n_hull=4),
        "rcm": rcm_check(McPlan(trials=200, seed=5, scenario=SCENARIO), q_size=2,
                         interval=1.0, t_grid=(0.3,), eps_grid=(0.1, 0.2), n_bins=10),
    }


REPORT_NAMES = ("plan", "wegner", "sep_l0", "bad_measure", "rcm")


@pytest.mark.parametrize("name", REPORT_NAMES)
def test_report_json_is_asdict(json_reports, name):
    """``to_json`` walks one level deep, yet gives what ``dataclasses.asdict``
    gives, as values and as the bytes the CLI writes."""
    report = json_reports[name]
    js, want = report.to_json(), dataclasses.asdict(report)
    assert js == want
    assert json.dumps(js, indent=1) == json.dumps(want, indent=1)


@pytest.mark.parametrize("name", REPORT_NAMES)
def test_report_json_is_a_copy(json_reports, name):
    """Mutating the returned scenario leaves the frozen report as it was."""
    report = json_reports[name]
    js = report.to_json()
    scenario = (js if name == "plan" else js["plan"])["scenario"]
    scenario["s_grid"].append(2.0)
    scenario["nested"]["trials"].append(7)
    scenario["extra"] = 1
    assert (report if name == "plan" else report.plan).scenario == {
        "L0": 2, "s_grid": [0.1, 1.0], "nested": {"trials": [6]}}
    assert report.to_json() == dataclasses.asdict(report)


def test_wegner_estimate_rejects_a_pair_not_weakly_separated():
    plan = McPlan(trials=10, seed=0, s_grid=(0.1,))
    with pytest.raises(SeparationError, match="not weakly separated"):
        wegner_estimate(plan, golden_system(), np.array([0.4]), cfg(0, 1), cfg(0, 2),
                        L=2, g=1.0, b=2.5, n_hull=3)


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
    out = sep_trials([3], sys_, oms, window, g=2.0, b=0.5, n_hull=6, N_trunc=3)[0]
    assert out.shape == (2, 2)
    assert np.all(out > 0)


def sep_trial_oracle(seed: int, system, omegas, window, g: float, b: float, n_hull: int,
                     N_trunc: int):
    """Per omega, for one amplitude field: the (truncated, full) separations,
    each from ``pot.config_potentials`` on the field's hull of depth N_trunc
    and of depth n_hull."""
    field = pot.AmplitudeField(seed)
    hulls = [pot.HaarHull(b, depth, field) for depth in (N_trunc, n_hull)]
    return np.array([[g * pot.min_gap(pot.config_potentials(hull, system, w, window))
                      for hull in hulls] for w in omegas])


SEP_WINDOWS = {1: box_configs(2, (0,), (5,)), 2: box_configs(2, (0, 0), (2, 2))}


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), st.floats(0.05, 8.0),
       st.integers(1, 7), st.sampled_from([1.0, 3.0, 2.0 ** 30]),
       st.lists(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=7),
       st.sampled_from([1, 8_000, 1 << 22]))
def test_sep_trials_match_the_one_field_oracle(data, shape, b, n_hull, g, seeds, budget):
    """Rows of ``sep_trials`` are byte-equal to the one-field rebuild through
    config_potentials, at d and nu in {1, 2}, every truncation, phases with
    zero coordinates, fields across [0, 2^63), and chunks of one seed, of a
    few and of all of them."""
    d, nu = shape
    system = ShiftSystem(preset_frequencies("golden", d, nu))
    coordinate = st.sampled_from([0.0]) | st.floats(0.0, 1.0, exclude_max=True)
    omegas = data.draw(st.lists(st.lists(coordinate, min_size=nu, max_size=nu).map(np.array),
                                min_size=1, max_size=3))
    N_trunc = data.draw(st.integers(1, n_hull))
    args = (system, omegas, SEP_WINDOWS[d], g, b, n_hull, N_trunc)
    with _chunked(budget) as (sizes, passes):
        rows = sep_trials(seeds, *args)
    assert sum(sizes) == 2 * len(seeds)        # each seed summed once per truncation
    assert len(passes) == 2
    trials = Counter(seeds)
    for hashed in passes:                      # and each of its cells hashed once a trial
        assert all(n <= trials[seed] for (seed, _), n in Counter(hashed).items())
    assert rows.shape == (len(seeds), len(omegas), 2) and rows.dtype == np.float64
    for seed, row in zip(seeds, rows):
        assert row.tobytes() == sep_trial_oracle(seed, *args).tobytes()


def test_sep_l0_builds_one_table_per_truncation(built_tables):
    """A 120-trial, 3-phase estimate builds one cell table for the truncated
    sums and one for the full sums, each over the window's 6 sites at the 3
    phases."""
    rep = sep_l0_estimate(McPlan(trials=120, seed=7), *SEP_ARGS[:3], g=1.0, b=0.5, n_hull=6,
                          generation=3, delta0=1e-3)
    assert rep.n_trials == 120 and rep.n_omegas == 3
    assert built_tables == [18, 18]


@pytest.mark.parametrize("omegas, N_trunc, match",
                         [(np.zeros((0, 1)), 3, "at least one phase"),
                          (SEP_ARGS[1], 0, "outside"), (SEP_ARGS[1], 7, "outside")],
                         ids=["no-phases", "truncation-0", "truncation-past-hull"])
def test_sep_trials_refuse_bad_input(omegas, N_trunc, match):
    """No phase would give an empty row per seed, which estimates nothing."""
    with pytest.raises(ValueError, match=match):
        sep_trials([1, 2], golden_system(), omegas, *SEP_ARGS[2:6], N_trunc)


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


def test_sep_l0_refuses_no_phases():
    # no phase would report bad_fraction = 0.0 over zero phases, a vacuous pass
    with pytest.raises(ValueError, match="at least one phase"):
        sep_l0_estimate(McPlan(trials=4, seed=1), golden_system(), np.zeros((0, 1)),
                        box_configs(2, (0,), (4,)), g=1.0, b=0.5, n_hull=6,
                        generation=3, delta0=1e-3)


def test_sep_l0_refuses_no_trials():
    # no trial would report bad_fraction = 0.0 over nothing
    with pytest.raises(ValueError, match="at least one trial"):
        sep_l0_estimate(McPlan(trials=0, seed=2), *SEP_ARGS[:3], g=1.0, b=0.5, n_hull=6,
                        generation=3, delta0=10.0)


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


def test_theta_bad_measure_builds_each_table_once(built_tables):
    """One call builds one cell table, over the sites of its 11 balls at its
    8 phases, for all 40 trials; a call of several chunks builds it once as
    well."""
    sys_ = golden_system()
    oms = omega_samples(sys_, 2, 4, 4, seed=5)
    kw = dict(system=sys_, omegas=oms, window_center=cfg(0, 1), window_radius=8, L=2,
              g=1.0, delta=0.0, b=2.5, n_hull=4)
    rep = theta_bad_measure(McPlan(trials=40, seed=9), **kw)
    assert rep.n_trials == 40 and len(oms) == 8
    assert len(built_tables) == 1
    with _chunked(1 << 20) as sizes:
        chunked = theta_bad_measure(McPlan(trials=40, seed=9), **kw)
    assert len(sizes) > 1 and len(built_tables) == 2
    assert chunked.records == rep.records


def test_theta_bad_measure_refuses_no_trials():
    # no trial would report holds at a threshold where every trial is bad
    # (test_theta_bad_measure_trivial_thresholds)
    sys_ = golden_system()
    with pytest.raises(ValueError, match="at least one trial"):
        theta_bad_measure(McPlan(trials=0, seed=1), system=sys_,
                          omegas=omega_samples(sys_, 2, 4, 4, seed=5), window_center=cfg(0, 1),
                          window_radius=8, L=2, g=1.0, delta=1e6, b=2.5, n_hull=4)


def test_theta_bad_measure_l0_bound():
    sys_ = golden_system()
    oms = omega_samples(sys_, 2, 4, 0, seed=5)
    rep = theta_bad_measure(McPlan(trials=30, seed=4), system=sys_, omegas=oms,
                            window_center=cfg(0, 1), window_radius=4, L=0,
                            g=1.0, delta=0.0, b=2.5, n_hull=4)
    assert rep.level_L == 0
    assert rep.bound == pytest.approx(2.0 ** -2.5)


def test_bad_measure_trials_refuse_no_phases():
    with pytest.raises(ValueError, match="at least one phase"):
        bad_measure_trials([1, 2], golden_system(), [], list(SCAFFOLDS[1]), [(0, 1)],
                           3.0, 2.5, 6)
    with pytest.raises(ValueError, match="at least one phase"):
        theta_bad_measure(McPlan(trials=4, seed=0), system=golden_system(), omegas=[],
                          window_center=cfg(0, 1), window_radius=8, L=2, g=1.0,
                          delta=0.0, b=2.5, n_hull=4)


def _sep_l0_call(**kw):
    return sep_l0_estimate(McPlan(trials=40, seed=7), *SEP_ARGS[:3], **{
        "g": 1.0, "b": 0.5, "n_hull": 6, "generation": 3, "delta0": 1e-3, **kw})


def _bad_measure_call(**kw):
    sys_ = golden_system()
    return theta_bad_measure(McPlan(trials=40, seed=3), system=sys_,
                             omegas=omega_samples(sys_, 2, 4, 4, seed=5), **{
                                 "window_center": cfg(0, 1), "window_radius": 8, "L": 2,
                                 "g": 3.0, "delta": 1e-3, "b": 2.5, "n_hull": 6, **kw})


def _wegner_call(s_grid=(0.1, 1.0), **kw):
    return wegner_estimate(McPlan(trials=40, seed=3, s_grid=s_grid), golden_system(),
                           np.array([0.41]), cfg(0, 1), cfg(8, 12), **{
                               "L": 1, "g": 3.0, "b": 2.5, "n_hull": 4, **kw})


REFUSED = [
    (_sep_l0_call, "g", math.nan), (_sep_l0_call, "g", math.inf),
    (_sep_l0_call, "delta0", math.nan), (_sep_l0_call, "delta0", -1.0),
    (_sep_l0_call, "delta0", math.inf),
    (_bad_measure_call, "g", math.nan), (_bad_measure_call, "g", -math.inf),
    (_bad_measure_call, "delta", math.nan), (_bad_measure_call, "delta", -1.0),
    (_bad_measure_call, "delta", math.inf),
    (_wegner_call, "g", math.nan), (_wegner_call, "g", math.inf),
    (_wegner_call, "s_grid", (math.nan,)), (_wegner_call, "s_grid", (0.1, math.inf)),
]


@pytest.mark.parametrize("call, name, value", REFUSED,
                         ids=[f"{call.__name__[1:-5]}-{name}-{value}" for call, name, value in REFUSED])
def test_estimators_refuse_non_finite_or_negative_thresholds(monkeypatch, call, name, value):
    """Each estimator refuses, naming it, a non-finite g, threshold or s and
    a negative threshold before any trial runs: a NaN threshold compares
    false and a negative one is never reached, so either counts no trial
    bad, and a non-finite g fails in LAPACK only after every trial."""
    def no_trials(*args):
        raise AssertionError("trials ran before the arguments were checked")

    monkeypatch.setattr(wegner, "_run_trials", no_trials)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(**{name: value})


def test_theta_bad_measure_needs_a_far_pair():
    # every center of a radius-1 window lies within 2 of another, far below 3NL = 12
    sys_ = golden_system()
    with pytest.raises(SeparationError, match="no sufficiently distant ball pairs"):
        theta_bad_measure(McPlan(trials=4, seed=0), system=sys_,
                          omegas=omega_samples(sys_, 2, 2, 0), window_center=cfg(0, 1),
                          window_radius=1, L=2, g=1.0, delta=0.0, b=2.5, n_hull=4)


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


@pytest.mark.parametrize("bad, match", [({"n_bins": 0}, "n_bins"), ({"n_bins": -3}, "n_bins"),
                                        ({"t_grid": ()}, "t_grid"),
                                        ({"eps_grid": ()}, "eps_grid")],
                         ids=["no-bins", "negative-bins", "empty-t-grid", "empty-eps-grid"])
def test_rcm_refuses_no_bins_and_empty_grids(bad, match):
    """No bins or no grid cell would report ``holds`` over nothing."""
    kw = dict(q_size=2, interval=1.0, t_grid=(0.3,), eps_grid=(0.1,), n_bins=20)
    with pytest.raises(ValueError, match=match):
        rcm_check(McPlan(trials=2000, seed=23), **{**kw, **bad})


@pytest.mark.parametrize("bad, match", [({"t_grid": (math.nan,)}, "t_grid"),
                                        ({"t_grid": (0.3, math.inf)}, "t_grid"),
                                        ({"t_grid": (-0.1,)}, "t_grid"),
                                        ({"eps_grid": (0.0,)}, "eps_grid"),
                                        ({"eps_grid": (-0.1,)}, "eps_grid"),
                                        ({"eps_grid": (math.nan,)}, "eps_grid"),
                                        ({"interval": math.nan}, "interval"),
                                        ({"interval": math.inf}, "interval")],
                         ids=["nan-t", "inf-t", "negative-t", "zero-eps", "negative-eps",
                              "nan-eps", "nan-interval", "inf-interval"])
def test_rcm_refuses_non_finite_and_out_of_range_reals(bad, match):
    """A NaN t counts no trial over its threshold and read ``holds``; eps = 0
    divided by zero and a NaN interval overflowed in the draw."""
    kw = dict(q_size=2, interval=1.0, t_grid=(0.3,), eps_grid=(0.1,), n_bins=20)
    with pytest.raises(ValueError, match=match):
        rcm_check(McPlan(trials=2000, seed=1), **{**kw, **bad})


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


@pytest.mark.parametrize("c", [pytest.param(0.0, id="c=0"), pytest.param(math.nan, id="c=NaN"),
                               pytest.param(math.inf, id="c=Infinity"),
                               pytest.param(-math.inf, id="c=-Infinity")])
def test_evc_refuses_a_vacuous_bump(c):
    """A zero bump moved nothing and held over nothing; a NaN or infinite one
    was refused only as a non-finite potential, without naming c."""
    x, y = cfg(0, 1), cfg(0, 5)
    wit = weakly_separated(x, y, 0)
    with pytest.raises(ValueError, match=f"bump c, got {c!r}"):
        evc_shift_check([x], [y], {x: 0.3, y: -0.2}, g=1.5, witness=wit, c=c,
                        convention="none")


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
