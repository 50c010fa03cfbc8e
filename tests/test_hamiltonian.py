"""Finite-volume operator tests: kinetic conventions, interaction values,
restriction, covariance under shifts, truncation error, persistence."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from andlab.configs import FermiConfig, ball, box_configs, neighbors
from andlab.errors import BudgetExceededError
from andlab.operators import (
    KINETIC_CONVENTIONS,
    FiniteHamiltonian,
    Interaction,
    assemble,
    ball_operator,
    covariance_deviation,
    diagonalize,
    load_operator,
    save_operator,
    spectral_distance,
    spectrum_rows,
    truncation_bound,
)
from andlab.potential import AmplitudeField, HaarHull, tail_bound
from andlab.torus import ShiftSystem, preset_frequencies


def cfg(*sites):
    return FermiConfig.make([(s,) for s in sites])


def path3():
    return box_configs(2, (0,), (2,))


# ---------------------------------------------------------------------------
# interaction
# ---------------------------------------------------------------------------

def test_interaction_contact_value():
    assert Interaction(10.0).value(1) == 1.0
    assert Interaction(0.3).value(1) == 1.0


def test_interaction_frozen_value():
    assert Interaction(10.0).value(2) == 6.711786678855937e-05


def test_interaction_rejects_zero_distance():
    with pytest.raises(ValueError):
        Interaction(1.0).value(0)


def test_interaction_cutoff_and_tail():
    u = Interaction(2.0, cutoff=3)
    assert u.value(4) == 0.0
    assert u.value(3) > 0.0
    full = Interaction(2.0)
    assert full.tail(3) == full.value(4)
    assert Interaction(2.0, cutoff=2).value(3) == 0.0


@pytest.mark.parametrize("B, cutoff", [(math.nan, None), (math.inf, None), (-math.inf, None),
                                       (0.0, None), (1.0, math.nan), (1.0, 0.5)])
def test_interaction_refuses_what_it_cannot_represent(B, cutoff):
    """A NaN B gave NaN pair values, an infinite one 0.0 at every distance,
    and a NaN cutoff never cut."""
    with pytest.raises(ValueError, match=repr(B) if cutoff is None else "cutoff"):
        Interaction(B, cutoff)


def test_interaction_energy_sums_pairs():
    u = Interaction(1.5)
    x = cfg(0, 2, 5)
    expect = sum(u.value(sum(abs(a - b) for a, b in zip(p, q)))
                 for p, q in itertools.combinations(x.sites, 2))
    assert u.energy(x) == pytest.approx(expect, rel=1e-15)


# ---------------------------------------------------------------------------
# assembly and conventions
# ---------------------------------------------------------------------------

def test_free_spectrum_laplacian():
    H = assemble(path3(), g=0.0)
    vals = np.linalg.eigvalsh(H.matrix)
    assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)


def test_free_spectrum_adjacency():
    H = assemble(path3(), g=0.0, convention="adjacency")
    vals = np.linalg.eigvalsh(H.matrix)
    root2 = np.sqrt(2.0)
    assert np.allclose(vals, [-root2, 0.0, root2], atol=1e-12)


def test_convention_none_is_diagonal():
    dom = path3()
    H = assemble(dom, potential={c: float(i) for i, c in enumerate(dom)},
                 g=2.0, convention="none")
    assert np.allclose(H.matrix, np.diag([0.0, 2.0, 4.0]))


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        assemble(path3(), convention="weird")


def test_potential_forms_agree():
    dom = box_configs(2, (0,), (4,))
    vals = {c: 0.1 * i for i, c in enumerate(dom)}
    H_dict = assemble(dom, potential=vals, g=3.0)
    H_call = assemble(dom, potential=lambda c: vals[c], g=3.0)
    H_arr = assemble(dom, potential=np.array([vals[c] for c in dom]), g=3.0)
    assert np.array_equal(H_dict.matrix, H_call.matrix)
    assert np.array_equal(H_dict.matrix, H_arr.matrix)


def test_offdiagonal_structure_matches_adjacency():
    dom = box_configs(2, (0,), (4,))
    H = assemble(dom, g=0.0)
    idx = H.graph.index
    for i, x in enumerate(dom):
        nbrs = {idx[y] for y in neighbors(x) if y in idx}
        offs = {j for j in range(len(dom)) if j != i and H.matrix[i, j] != 0}
        assert offs == nbrs
        for j in offs:
            assert H.matrix[i, j] == -1.0
        # within-window coordination count on the diagonal
        assert H.matrix[i, i] == len(nbrs)


def assemble_oracle(domain, potential, g, interaction, convention):
    """H built one configuration at a time from neighbors() (oracle)."""
    m = len(domain)
    idx = {c: i for i, c in enumerate(domain)}
    H = np.zeros((m, m))
    if convention != "none":
        off = -1.0 if convention == "laplacian" else 1.0
        for i, c in enumerate(domain):
            deg = 0
            for nb in neighbors(c):
                j = idx.get(nb)
                if j is None:
                    continue
                H[i, j] = off
                deg += 1
            if convention == "laplacian":
                H[i, i] += deg
    diag = g * np.asarray(potential, dtype=float)
    if interaction is not None:
        diag = diag + np.asarray([interaction.energy(c) for c in domain])
    H[np.arange(m), np.arange(m)] += diag
    return H


@settings(max_examples=60, deadline=None)
@given(st.one_of(
           st.lists(st.sampled_from(box_configs(2, (0,), (8,))), min_size=1,
                    max_size=30, unique=True),
           st.lists(st.sampled_from(box_configs(3, (0, 0), (2, 2))), min_size=1,
                    max_size=30, unique=True)),
       st.sampled_from(KINETIC_CONVENTIONS), st.booleans(), st.data())
def test_assemble_matches_neighbors_oracle(domain, convention, interacting, data):
    # random domains in random order: mostly not balls, often disconnected
    potential = data.draw(st.lists(st.floats(-3, 3), min_size=len(domain),
                                   max_size=len(domain)))
    inter = Interaction(1.5) if interacting else None
    H = assemble(domain, potential, 0.7, inter, convention)
    assert np.array_equal(H.matrix, assemble_oracle(domain, potential, 0.7, inter, convention))


def _kinetic_loop(domain, convention):
    """The kinetic term written one row at a time from the domain graph's
    adjacency (oracle for ``assemble``'s single scatter)."""
    H = FiniteHamiltonian(tuple(domain), np.zeros((len(domain),) * 2), 0.0, convention)
    graph = H.graph
    if convention != "none":
        off = -1.0 if convention == "laplacian" else 1.0
        for i, js in enumerate(graph.adjacency):
            H.matrix[i, js] = off
        if convention == "laplacian":
            H.matrix[np.arange(H.n), np.arange(H.n)] += graph.degrees
    return H.matrix


def _kinetic_domains():
    box = box_configs(2, (0,), (8,))
    order = np.random.default_rng(5).permutation(len(box))[:20]
    return {"box": box, "subset": tuple(box[i] for i in order), "single": box[:1],
            "empty": (), "box2d": box_configs(2, (0, 0), (2, 2))}


@pytest.mark.parametrize("convention", KINETIC_CONVENTIONS)
@pytest.mark.parametrize("shape", ["box", "subset", "single", "empty", "box2d"])
def test_kinetic_scatter_matches_row_loop(shape, convention):
    domain = _kinetic_domains()[shape]
    H = assemble(domain, g=0.0, convention=convention)
    assert H.matrix.shape == (len(domain),) * 2
    assert H.matrix.tobytes() == _kinetic_loop(domain, convention).tobytes()


@pytest.mark.parametrize("g", [np.inf, -np.inf, np.nan])
def test_assemble_refuses_non_finite_g(g):
    with pytest.raises(ValueError, match="g must be finite"):
        assemble(path3(), g=g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("form", ["array", "dict", "callable"])
def test_assemble_refuses_non_finite_potential(bad, form):
    dom = path3()
    values = [0.5, bad, 1.5]
    potential = {"array": np.asarray(values), "dict": dict(zip(dom, values)),
                 "callable": dict(zip(dom, values)).__getitem__}[form]
    with pytest.raises(ValueError, match=f"potential must be finite, got {bad!r} at "
                                         rf"{re.escape(repr(dom[1]))}"):
        assemble(dom, potential, g=1.0)


@pytest.mark.parametrize("domain", [
    (cfg(0), cfg(0, 1)),                                         # particle numbers 1 and 2
    (cfg(0, 1), FermiConfig.make([(0, 0), (0, 1)])),             # dimensions 1 and 2
])
def test_assemble_refuses_mixed_domains(domain):
    with pytest.raises(ValueError, match="incompatible configurations"):
        assemble(domain)


def test_interaction_enters_diagonal():
    dom = path3()
    u = Interaction(1.0)
    H0 = assemble(dom, g=1.0)
    H1 = assemble(dom, g=1.0, interaction=u)
    diff = np.diag(H1.matrix - H0.matrix)
    expect = [u.energy(c) for c in dom]
    assert np.allclose(diff, expect, rtol=1e-15)
    assert np.array_equal(np.triu(H1.matrix, 1), np.triu(H0.matrix, 1))


# ---------------------------------------------------------------------------
# restriction and ball operators
# ---------------------------------------------------------------------------

def test_restrict_is_exact_subblock():
    dom = box_configs(2, (0,), (5,))
    H = assemble(dom, potential=lambda c: float(sum(s[0] for s in c.sites)),
                 g=1.3)
    sub = dom[3:9]
    Hs = H.restrict(sub)
    idx = H.graph.index
    rows = [idx[c] for c in sub]
    assert np.array_equal(Hs.matrix, H.matrix[np.ix_(rows, rows)])
    assert Hs.domain == tuple(sub)
    assert Hs.g == H.g and Hs.convention == H.convention


def test_restrict_rejects_foreign_config():
    H = assemble(path3())
    with pytest.raises(ValueError):
        H.restrict([cfg(7, 9)])


def test_ball_operator_refuses_a_negative_radius():
    with pytest.raises(ValueError, match="L >= 0, got -1"):
        ball_operator(FermiConfig.make([(0,), (2,)]), -1)


def test_ball_operator_full_lattice_diagonal():
    # the ball operator is a sub-block of the infinite-volume operator: its
    # free diagonal counts all lattice moves, not just in-ball ones
    center = cfg(0, 5)
    H = ball_operator(center, 1, g=0.0)
    idx = H.graph.index
    for c, i in idx.items():
        assert H.matrix[i, i] == len(neighbors(c))


def test_ball_operator_matches_restricted_window():
    center = cfg(3, 6)
    members = ball(center, 2).members
    window = box_configs(2, (-3,), (12,))
    H_win = assemble(window, g=0.0)
    H_ball = ball_operator(center, 2, g=0.0)
    sub = H_win.restrict(H_ball.domain)
    off_ball = H_ball.matrix - np.diag(np.diag(H_ball.matrix))
    off_sub = sub.matrix - np.diag(np.diag(sub.matrix))
    assert set(H_ball.domain) == set(members)
    assert np.array_equal(off_ball, off_sub)


def test_ball_operator_budget(neighbor_calls):
    with pytest.raises(BudgetExceededError):
        ball_operator(cfg(0, 40), 12, max_size=10)
    neighbor_calls.clear()
    with pytest.raises(BudgetExceededError):
        ball_operator(cfg(0, 1), 59, max_size=50)
    # the inflated radius-60 ball has 3,691 members; stop near the 50-member shell
    assert len(neighbor_calls) < 200


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shift", [0.5, (0.5,), (1.5,), np.array([-2.0])])
def test_covariance_check_refuses_a_shift_off_the_lattice(shift):
    """A half step is not a lattice vector: it was truncated to 0 and read 0.0."""
    sys_ = ShiftSystem(preset_frequencies("golden", 1, 1))
    hull = HaarHull(2.5, 5, AmplitudeField(11))
    with pytest.raises(ValueError, match="not an integer"):
        covariance_deviation(box_configs(2, (0,), (5,)), sys_, hull, np.array([0.3]), shift,
                             g=7.0)


def test_covariance_check_refuses_a_phase_of_another_nu():
    """On a nu = 2 system a one-coordinate phase was spread over both
    coordinates, and the check read 0.0."""
    sys_ = ShiftSystem(preset_frequencies("golden", 1, 2))
    hull = HaarHull(2.5, 5, AmplitudeField(11))
    with pytest.raises(ValueError, match="nu = 2"):
        covariance_deviation(box_configs(2, (0,), (5,)), sys_, hull, np.array([0.3]), (3,),
                             g=7.0)


def test_covariance_takes_any_integer_shift():
    sys_ = ShiftSystem(preset_frequencies("golden", 1, 1))
    hull = HaarHull(2.5, 5, AmplitudeField(11))
    dom = box_configs(2, (0,), (5,))
    for shift in (3, (3,), np.array([3]), (np.int64(3),)):
        assert covariance_deviation(dom, sys_, hull, np.array([0.3]), shift, g=7.0) <= 1e-12


def test_covariance_shift_identity():
    sys_ = ShiftSystem(preset_frequencies("golden", 1, 1))
    hull = HaarHull(2.5, 5, AmplitudeField(11))
    dom = box_configs(2, (0,), (5,))
    rng = np.random.default_rng(5)
    for _ in range(10):
        shift = (int(rng.integers(-20, 21)),)
        om = rng.random(1)
        dev = covariance_deviation(dom, sys_, hull, om, shift, g=7.0,
                                   interaction=Interaction(1.0))
        assert dev <= 1e-12


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------

def test_diagonalize_matches_numpy():
    dom = box_configs(2, (0,), (5,))
    H = assemble(dom, potential=lambda c: float(c.sites[0][0]), g=2.0)
    spec = diagonalize(H)
    vals = np.linalg.eigvalsh(H.matrix)
    assert np.allclose(spec.eigenvalues, vals, atol=1e-12)
    # residuals and the sign gauge
    for k in range(len(dom)):
        v = spec.eigenvectors[:, k]
        r = H.matrix @ v - spec.eigenvalues[k] * v
        assert np.linalg.norm(r) <= 1e-10 * max(1.0, abs(spec.eigenvalues[k]))
        assert v[np.argmax(np.abs(v))] > 0


def _gauge_loop(vecs):
    """The sign gauge one column at a time: the reference for ``diagonalize``."""
    vecs = vecs.copy()
    for k in range(vecs.shape[1]):
        lead = np.argmax(np.abs(vecs[:, k]))
        if vecs[lead, k] < 0:
            vecs[:, k] = -vecs[:, k]
    return vecs


# column 0 ties its largest modulus between -0.5 (first) and 0.5, so it flips;
# column 1 ties 0.5 (first) with -0.5 and stays; column 2 flips a signed zero
TIED_VECTORS = np.array([[-0.5, 0.5, 0.0, 1.0],
                         [0.5, -0.5, -0.0, 0.0],
                         [0.25, 0.0, -1.0, 0.0],
                         [0.0, -0.25, 0.0, 0.0]])


def test_diagonalize_gauge_first_index_wins_a_tie(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.zeros(4), TIED_VECTORS.copy()))
    spec = diagonalize(FiniteHamiltonian(tuple(range(4)), np.zeros((4, 4)), 1.0, "none"))
    assert spec.eigenvectors.tobytes() == _gauge_loop(TIED_VECTORS).tobytes()
    assert spec.eigenvectors[:, 0].tolist() == [0.5, -0.5, -0.25, -0.0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 12))
@example(0, 0)   # a 0x0 operator
def test_diagonalize_gauge_matches_column_loop(seed, n):
    m = np.random.default_rng(seed).normal(size=(n, n))
    H = FiniteHamiltonian(tuple(range(n)), m + m.T, 1.0, "none")
    spec = diagonalize(H)
    assert spec.eigenvectors.shape == (n, n)
    assert spec.eigenvectors.tobytes() == _gauge_loop(np.linalg.eigh(H.matrix)[1]).tobytes()


def test_eigenfunction_accessor():
    H = assemble(path3(), g=0.0)
    spec = diagonalize(H)
    psi = spec.eigenfunction(1)
    assert psi.shape == (3,)
    assert np.linalg.norm(psi) == pytest.approx(1.0)


def test_spectral_distance():
    assert spectral_distance([0.0, 2.0], [2.5, 10.0]) == 0.5
    assert spectral_distance([1.0], [1.0]) == 0.0


# ---------------------------------------------------------------------------
# truncation error
# ---------------------------------------------------------------------------

def test_truncation_bound_dominates_actual():
    sys_ = ShiftSystem(preset_frequencies("golden", 1, 1))
    dom = box_configs(2, (0,), (6,))
    om = np.array([0.37])
    g = 5.0
    field = AmplitudeField(2)
    deep = HaarHull(1.0, 8, field)
    for N in (1, 2, 3):
        shallow = HaarHull(1.0, N, field)
        shallow_v = {}
        deep_v = {}
        for c in dom:
            sv = sum(shallow.value(sys_.translate(om, s))[0] for s in c.sites)
            dv = sum(deep.value(sys_.translate(om, s))[0] for s in c.sites)
            shallow_v[c] = sv
            deep_v[c] = dv
        H_N = assemble(dom, potential=shallow_v, g=g)
        H_full = assemble(dom, potential=deep_v, g=g)
        actual = np.max(np.abs(H_N.matrix - H_full.matrix))
        bound = truncation_bound(2, g, 1.0, N).total
        assert actual <= bound
        # and the bound is not vacuous: it shrinks with depth
        assert bound == pytest.approx(2 * g * tail_bound(N, 1.0))


def test_truncation_bound_interaction_term():
    u = Interaction(2.0)
    tb = truncation_bound(3, 1.0, 2.5, 2, interaction=u, cutoff=2)
    assert tb.interaction_term == pytest.approx(3 * u.value(3))
    assert tb.total == tb.hull_term + tb.interaction_term


# ---------------------------------------------------------------------------
# persistence and export
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    dom = box_configs(2, (0,), (4,))
    H = assemble(dom, potential=lambda c: float(c.sites[1][0]), g=1.7,
                 interaction=Interaction(0.5))
    save_operator(tmp_path / "op", H)
    H2 = load_operator(tmp_path / "op")
    assert np.array_equal(H.matrix, H2.matrix)
    assert H2.domain == H.domain
    assert H2.g == H.g
    assert H2.convention == H.convention


def test_spectrum_rows_shape():
    dom = path3()
    H = assemble(dom, potential={c: float(i) for i, c in enumerate(dom)}, g=9.0)
    spec = diagonalize(H)
    rows = spectrum_rows(H, spec)
    assert len(rows) == 3
    ks, lams, peaks, masses = zip(*rows)
    assert list(ks) == [0, 1, 2]
    assert all(0 < m <= 1 for m in masses)
    assert np.allclose(sorted(lams), spec.eigenvalues)
