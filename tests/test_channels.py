import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cencov_ncp as c
from cencov_ncp.channels import (
    ClassicalKernel,
    check_ncp_morphism,
    choi_matrix,
    choi_to_kernel,
    completeness_deficit,
    compose,
    cp_verdict,
    embed_classical,
    identity_kernel,
    kernel_from_matrix_map,
    kernel_to_cp_map,
    pull_observable,
    push_state,
    validate_kernel,
)
from cencov_ncp.errors import (
    DimensionMismatch,
    GroupoidMismatch,
    NonTracePreserving,
    PositivityLost,
    RowSumViolation,
)

from conftest import (
    GATE_RATIOS,
    non_hermitian_choi,
    random_density,
    random_hermitian,
    random_kraus,
    random_stochastic,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def depolarizing_kraus(p):
    return [
        math.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
        math.sqrt(p / 4) * SX,
        math.sqrt(p / 4) * SY,
        math.sqrt(p / 4) * SZ,
    ]


def test_classical_kernel_guards():
    with pytest.raises(RowSumViolation):
        ClassicalKernel(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(RowSumViolation):
        ClassicalKernel(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(RowSumViolation, match="non-finite"):
        ClassicalKernel(np.array([[np.nan, 1.0], [0.5, 0.5]]))
    with pytest.raises(RowSumViolation, match="no rows"):
        ClassicalKernel(np.zeros((0, 2)))


def test_identity_kernel_axioms(pair2):
    assert validate_kernel(identity_kernel(pair2)).passed


def test_identity_kernel_is_identity(pair2):
    rng = np.random.default_rng(11)
    rho = c.state_from_density(random_density(rng, 2), pair2)
    pushed = push_state(rho, identity_kernel(pair2))
    assert np.abs(pushed.phi - rho.phi).max() < 1e-12
    assert check_ncp_morphism(identity_kernel(pair2), rho, rho)


def test_depolarizing_kernel(pair2):
    Pi = choi_to_kernel(depolarizing_kraus(0.3), pair2, pair2)
    assert validate_kernel(Pi).passed
    is_cp, lo = cp_verdict(Pi)
    assert is_cp and lo > -1e-9

    rng = np.random.default_rng(12)
    D = random_density(rng, 2)
    rho = c.state_from_density(D, pair2)
    out = c.density_from_state(push_state(rho, Pi)).matrix
    expect = sum(a @ D @ a.conj().T for a in depolarizing_kraus(0.3))
    assert np.abs(out - expect).max() < 1e-12


def test_transpose_kernel_not_cp(pair2):
    Pi = kernel_from_matrix_map(lambda M: M.T, pair2, pair2)
    assert validate_kernel(Pi).passed  # passes the kernel axioms
    is_cp, lo = cp_verdict(Pi)
    assert not is_cp and lo < -0.5  # Choi eigenvalue -1 for the qubit transpose
    # a Choi matrix that is not Hermitian is never CP: the gate of
    # numkit.psd_verdicts marks it with least eigenvalue -inf
    Pi = non_hermitian_choi(pair2)
    C = choi_matrix(Pi)
    assert np.abs(C - C.conj().T).max() == pytest.approx(0.2)
    assert validate_kernel(Pi).hermiticity_deficit == pytest.approx(0.4)
    assert cp_verdict(Pi) == (False, -np.inf)
    assert all(type(x) in (bool, float) for x in cp_verdict(Pi))


@pytest.mark.parametrize("ratio, passes", GATE_RATIOS)
def test_cp_asymmetry_gate_is_tol_times_one_plus_max_entry(pair2, ratio, passes):
    """The Choi matrix of the identity on pair(2) (max|C| = 1, so a bound of
    2 tol) made asymmetric by ``ratio`` times the bound, its Hermitian part
    kept: CP at least eigenvalue 0 below the bound, (False, -inf) past it."""
    tol = 1e-6
    Pi = non_hermitian_choi(pair2, ratio * tol)
    C = choi_matrix(Pi)
    assert np.abs(C - C.conj().T).max() == pytest.approx(ratio * 2 * tol)
    assert cp_verdict(Pi, tol) == ((True, 0.0) if passes else (False, -np.inf))


def test_choi_matrix_of_identity(pair2):
    C = choi_matrix(identity_kernel(pair2))
    # Choi of the identity map is the maximally entangled projector (unnormalized)
    expect = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            expect[i * 2 + i, j * 2 + j] = 1.0
    assert np.abs(C - expect).max() < 1e-12


def test_non_trace_preserving_rejected(pair2):
    """An empty family too: its sum is 0, not the identity; and a family with
    an entry that is not finite, whose deficit is nan or inf."""
    for kraus in ([np.eye(2) * 0.5], []):
        with pytest.raises(NonTracePreserving):
            choi_to_kernel(kraus, pair2, pair2)
    for bad in (np.nan, np.inf, 1e200):
        kraus = [np.array([[bad, 0.0], [0.0, 1.0]])]
        assert not np.isfinite(completeness_deficit(kraus))
        with pytest.raises(NonTracePreserving, match="by (nan|inf)"):
            choi_to_kernel(kraus, pair2, pair2)


def test_completeness_deficit_needs_matrices_of_one_shape():
    """A non-empty list of nonempty matrices of one shape, or an ``(r, m, n)``
    stack, which may be empty; any other input is a DimensionMismatch, not a
    numpy error or a number."""
    assert completeness_deficit(depolarizing_kraus(0.3)) < 1e-12
    assert completeness_deficit(np.array(depolarizing_kraus(0.3))) < 1e-12
    assert completeness_deficit(np.zeros((0, 2, 2))) == 1.0
    assert completeness_deficit([np.zeros((2, 3))]) == 1.0
    for kraus in ([], [np.eye(2), np.eye(3)], [np.ones(3)], np.ones((2, 2)),
                  [np.zeros((0, 0))], np.zeros((1, 0, 2))):
        with pytest.raises(DimensionMismatch):
            completeness_deficit(kraus)


def test_push_pull_duality():
    rng = np.random.default_rng(13)
    G2, G3 = c.pair_groupoid(2), c.pair_groupoid(3)
    for _ in range(10):
        Pi = choi_to_kernel(random_kraus(rng, 2, 3), G2, G3)
        assert validate_kernel(Pi).passed
        rho = c.state_from_density(random_density(rng, 2), G2)
        f = c.element_from_matrix(G3, random_hermitian(rng, 3))
        lhs = c.expectation(push_state(rho, Pi), f)
        rhs = c.expectation(rho, pull_observable(Pi, f))
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


def test_compose_matches_sequential_push(pair2):
    rng = np.random.default_rng(14)
    Pi1 = choi_to_kernel(random_kraus(rng, 2, 2), pair2, pair2)
    Pi2 = choi_to_kernel(random_kraus(rng, 2, 2), pair2, pair2)
    Pi12 = compose(Pi1, Pi2)
    assert validate_kernel(Pi12).passed
    rho = c.state_from_density(random_density(rng, 2), pair2)
    a = push_state(push_state(rho, Pi1), Pi2)
    b = push_state(rho, Pi12)
    assert np.abs(a.phi - b.phi).max() < 1e-12


def test_compose_associative(pair2):
    rng = np.random.default_rng(15)
    k = [choi_to_kernel(random_kraus(rng, 2, 2), pair2, pair2) for _ in range(3)]
    lhs = compose(compose(k[0], k[1]), k[2]).pi
    rhs = compose(k[0], compose(k[1], k[2])).pi
    assert np.abs(lhs - rhs).max() < 1e-12


def test_compose_mismatch(pair2, pair3):
    Pi = identity_kernel(pair2)
    with pytest.raises(GroupoidMismatch):
        compose(Pi, identity_kernel(pair3))


def test_embed_classical_reproduces_markov(triv2):
    rng = np.random.default_rng(16)
    T3 = c.trivial_groupoid(3)
    K = ClassicalKernel(random_stochastic(rng, 2, 3))
    Pi = embed_classical(K, triv2, T3)
    assert validate_kernel(Pi).passed
    p = np.array([0.35, 0.65])
    rho = c.classical_state(triv2, p)
    dist = c.outcome_distribution(push_state(rho, Pi))
    out = np.array([dist[x] for x in T3.outcomes])
    assert np.abs(out - p @ K.K).max() < 1e-12


def test_embed_classical_composition_is_matrix_product(triv2):
    rng = np.random.default_rng(17)
    T3, T4 = c.trivial_groupoid(3), c.trivial_groupoid(4)
    K1 = ClassicalKernel(random_stochastic(rng, 2, 3))
    K2 = ClassicalKernel(random_stochastic(rng, 3, 4))
    Pi = compose(embed_classical(K1, triv2, T3), embed_classical(K2, T3, T4))
    PiProd = embed_classical(ClassicalKernel(K1.K @ K2.K), triv2, T4)
    assert np.abs(Pi.pi - PiProd.pi).max() < 1e-12


def test_push_rejects_positivity_loss(pair2):
    # transpose preserves hermiticity/trace, so push succeeds on any state;
    # amplify an off-diagonal loss instead with a non-positive map
    bad = kernel_from_matrix_map(lambda M: 2 * M - np.trace(M) * np.eye(2), pair2, pair2)
    rng = np.random.default_rng(18)
    D = random_density(rng, 2)
    # make it far from maximally mixed so the output has a negative eigenvalue
    D = 0.9 * np.diag([1.0, 0.0]) + 0.1 * D
    D = D / np.trace(D).real
    rho = c.state_from_density(D, pair2)
    with pytest.raises(PositivityLost):
        push_state(rho, bad)


def test_kernel_to_cp_map_linear(pair2):
    Pi = choi_to_kernel(depolarizing_kraus(0.5), pair2, pair2)
    phi_star = kernel_to_cp_map(Pi)
    E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    out = phi_star(E)
    expect = sum(a @ E @ a.conj().T for a in depolarizing_kraus(0.5))
    assert np.abs(out - expect).max() < 1e-12
    with pytest.raises(GroupoidMismatch, match=r"matrix shape \(3, 3\), expected \(2, 2\)"):
        phi_star(np.eye(3))
    with pytest.raises(GroupoidMismatch, match=r"image shape \(3, 3\), expected \(2, 2\)"):
        kernel_from_matrix_map(lambda M: np.eye(3), pair2, pair2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_stochastic_kernels_pass_axioms(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    G1, G2 = c.trivial_groupoid(n), c.trivial_groupoid(m)
    Pi = embed_classical(ClassicalKernel(random_stochastic(rng, n, m)), G1, G2)
    assert validate_kernel(Pi).passed


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_kraus_kernels_pass_axioms_and_cp(seed):
    rng = np.random.default_rng(seed)
    G = c.pair_groupoid(2)
    Pi = choi_to_kernel(random_kraus(rng, 2, 2), G, G)
    assert validate_kernel(Pi).passed
    is_cp, _ = cp_verdict(Pi)
    assert is_cp
