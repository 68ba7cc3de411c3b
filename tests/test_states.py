import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cencov_ncp as c
from cencov_ncp.errors import GroupoidMismatch, InvalidDensity, InvalidState
from cencov_ncp.states import (
    check_state,
    classical_state,
    density_from_state,
    expectation,
    make_density,
    make_state,
    outcome_distribution,
    state_from_density,
)

from conftest import GATE_RATIOS, random_density, random_hermitian


def test_classical_state_basic(triv2):
    rho = classical_state(triv2, [0.3, 0.7])
    dist = outcome_distribution(rho)
    assert dist["1"] == pytest.approx(0.3)
    assert dist["2"] == pytest.approx(0.7)


def test_classical_state_nonuniform_reference():
    G = c.trivial_groupoid(2, P={"1": 0.25, "2": 0.75})
    rho = classical_state(G, [0.5, 0.5])
    assert rho.phi[G.index["1_1"]] == pytest.approx(2.0)
    dist = outcome_distribution(rho)
    assert dist["1"] == pytest.approx(0.5)


def test_density_dictionary_round_trip(pair2):
    rng = np.random.default_rng(7)
    for _ in range(5):
        D = random_density(rng, 2)
        rho = state_from_density(D, pair2)
        back = density_from_state(rho).matrix
        assert np.abs(back - D).max() < 1e-12


def test_expectation_matches_trace(pair3):
    rng = np.random.default_rng(8)
    D = random_density(rng, 3)
    A = random_hermitian(rng, 3)
    rho = state_from_density(D, pair3)
    a = c.element_from_matrix(pair3, A)
    assert expectation(rho, a) == pytest.approx(np.trace(D @ A), abs=1e-12)


def test_invalid_states_rejected(pair2):
    phi = np.zeros(4, dtype=complex)
    with pytest.raises(InvalidState):
        make_state(pair2, phi)  # not normalized
    # non-PSD: off-diagonal larger than diagonal
    D = np.array([[0.5, 0.9], [0.9, 0.5]])
    with pytest.raises(InvalidDensity):
        state_from_density(D, pair2)
    # a non-finite entry is decided before any arithmetic, so no RuntimeWarning
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidState, match="non-finite"):
            make_state(pair2, [bad, 0.0, 0.0, 1.0])
        with pytest.raises(InvalidState, match="non-finite"):
            classical_state(c.trivial_groupoid(2), [bad, 0.5])
        with pytest.raises(InvalidDensity, match="non-finite"):
            state_from_density(np.array([[bad, 0.0], [0.0, 1.0]]), pair2)


def test_check_state_report(pair2):
    D = np.array([[0.5, 0.0], [0.0, 0.5]])
    rho = state_from_density(D, pair2)
    report = check_state(rho.phi, pair2)
    assert report.passed
    assert min(report.fiber_min_eigenvalue.values()) >= -1e-12

    bad = rho.phi.copy()
    bad[pair2.index["(1,2)"]] = 5.0  # breaks hermitian symmetry
    report = check_state(bad, pair2)
    assert not report.symmetry_ok and not report.passed


def test_make_density_guards():
    with pytest.raises(InvalidDensity):
        make_density(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(InvalidDensity):
        make_density(np.diag([0.8, 0.8]))  # trace 1.6
    with pytest.raises(InvalidDensity, match="empty"):
        make_density(np.zeros((0, 0)))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidDensity, match="non-finite"):
            make_density(np.array([[0.5, bad], [bad, 0.5]]))


def test_state_groupoid_mismatch(pair2, triv2):
    rho = classical_state(triv2, [0.5, 0.5])
    a = c.unit_element(pair2)
    with pytest.raises(GroupoidMismatch):
        expectation(rho, a)
    for p in ([0.2, 0.3, 0.5], [1.0]):  # a probability per outcome
        with pytest.raises(GroupoidMismatch):
            classical_state(triv2, p)
    with pytest.raises(GroupoidMismatch):
        state_from_density(np.eye(3) / 3, pair2)


def test_state_on_group_groupoid():
    # uniform phi on Z_2: phi(g0)=1, phi(g1)=t must have |t| <= 1 for PSD
    G = c.cyclic_group_groupoid(2)
    rho = make_state(G, [1.0, 0.5])
    assert expectation(rho, c.unit_element(G)) == pytest.approx(1.0)
    with pytest.raises(InvalidState):
        make_state(G, [1.0, 1.5])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([2, 3, 4]))
def test_random_densities_make_valid_states(seed, n):
    rng = np.random.default_rng(seed)
    D = random_density(rng, n)
    G = c.pair_groupoid(n)
    rho = state_from_density(D, G)
    report = check_state(rho.phi, G)
    assert report.passed


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_random_classical_states(ps):
    p = np.array(ps) / sum(ps)
    G = c.trivial_groupoid(len(ps))
    rho = classical_state(G, p)
    dist = outcome_distribution(rho)
    assert np.abs(np.array([dist[x] for x in G.outcomes]) - p).max() < 1e-12


def test_one_eigensolve_per_fiber_size(monkeypatch):
    """check_state makes one eigvalsh call per distinct fiber size, and
    validate_kernel that many per unit of the source groupoid."""
    G = c.disjoint_union(c.pair_groupoid(2), c.cyclic_group_groupoid(3), 0.5)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: calls.append(H.shape) or eigvalsh(H))
    phi = np.zeros(len(G.elements), dtype=complex)
    phi[G.unit_ix] = 1.0  # every fiber Gram is the identity
    assert check_state(phi, G).psd_ok
    assert sorted(calls) == [(1, 3, 3), (2, 2, 2)]
    calls.clear()
    assert c.validate_kernel(c.identity_kernel(G)).positivity_ok
    assert len(calls) == len(G.outcomes) * 2


@pytest.mark.parametrize("ratio, passes", GATE_RATIOS)
def test_density_asymmetry_gate_is_tol_times_one_plus_max_entry(ratio, passes):
    """diag(0.5, 0.5) (max|D| = 0.5, so a bound of 1.5 tol) made asymmetric by
    ``ratio`` times the bound, its Hermitian part kept: a density below the
    bound, refused as not Hermitian past it."""
    tol = 1e-6
    D = np.diag([0.5, 0.5]).astype(complex)
    D[[0, 1], [1, 0]] = 0.75j * ratio * tol
    assert np.abs(D - D.conj().T).max() == pytest.approx(ratio * 1.5 * tol)
    if passes:
        assert np.array_equal(make_density(D, tol).matrix, D)
    else:
        with pytest.raises(InvalidDensity, match="density matrix is not Hermitian"):
            make_density(D, tol)
