import numpy as np
import pytest

import cencov_ncp as c
from cencov_ncp.algebra import convolve, star, unit_element
from cencov_ncp.errors import DegenerateState, DimensionMismatch, GroupoidMismatch
from cencov_ncp.gns import (
    build_gns,
    cyclic_vector,
    gns_inner,
    gns_represent,
    gram_matrix,
)

from conftest import random_density, random_hermitian


def random_element(G, rng):
    n = len(G.elements)
    return c.AlgebraElement(G, rng.normal(size=n) + 1j * rng.normal(size=n))


def test_gram_matrix_matches_state_definition(pair2):
    rng = np.random.default_rng(20)
    rho = c.state_from_density(random_density(rng, 2), pair2)
    G = gram_matrix(rho)
    # gram[a, b] must equal rho(star(delta_a) . delta_b) by direct convolution
    for a in pair2.elements:
        for b in pair2.elements:
            val = c.expectation(rho, convolve(star(c.delta_element(pair2, a)),
                                              c.delta_element(pair2, b)))
            assert G[pair2.index[a], pair2.index[b]] == pytest.approx(val, abs=1e-12)


def test_faithful_qubit_state_dim_4(pair2):
    rho = c.state_from_density(np.diag([0.6, 0.4]), pair2)
    S = build_gns(rho)
    assert S.dim == 4
    assert S.ideal_basis.shape[1] == 0


def test_pure_state_dim_2(pair2):
    rho = c.state_from_density(np.diag([1.0, 0.0]), pair2)
    S = build_gns(rho)
    assert S.dim == 2
    assert S.ideal_basis.shape[1] == 2


def test_cyclic_vector_reproduces_state(pair2):
    rng = np.random.default_rng(21)
    rho = c.state_from_density(random_density(rng, 2), pair2)
    S = build_gns(rho)
    om = cyclic_vector(S)
    for _ in range(10):
        a = random_element(pair2, rng)
        lhs = om.conj() @ gns_represent(S, a) @ om
        assert abs(lhs - c.expectation(rho, a)) < 1e-10


def test_representation_is_homomorphism(pair2):
    rng = np.random.default_rng(22)
    rho = c.state_from_density(random_density(rng, 2), pair2)
    S = build_gns(rho)
    a, b = random_element(pair2, rng), random_element(pair2, rng)
    lhs = gns_represent(S, convolve(a, b))
    rhs = gns_represent(S, a) @ gns_represent(S, b)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_representation_respects_star(pair2):
    rng = np.random.default_rng(23)
    rho = c.state_from_density(random_density(rng, 2), pair2)
    S = build_gns(rho)
    a = random_element(pair2, rng)
    assert np.abs(gns_represent(S, star(a)) - gns_represent(S, a).conj().T).max() < 1e-10


def test_quotient_basis_orthonormal(pair3):
    rng = np.random.default_rng(24)
    rho = c.state_from_density(random_density(rng, 3), pair3)
    S = build_gns(rho)
    Q = S.quotient_basis
    M = Q.conj().T @ S.gram @ Q
    assert np.abs(M - np.eye(S.dim)).max() < 1e-9


def test_gns_inner_and_norm(pair2):
    rho = c.state_from_density(np.diag([0.5, 0.5]), pair2)
    S = build_gns(rho)
    u = unit_element(pair2).coeff
    # <1|1> = rho(1) = 1
    assert gns_inner(S, u, u) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        gns_inner(S, u[:2], u)


def test_classical_gns_dim_equals_support(triv2):
    rho = c.classical_state(triv2, [0.5, 0.5])
    assert build_gns(rho).dim == 2
    G3 = c.trivial_groupoid(3)
    # mass concentrated on one outcome: support 1
    rho = c.classical_state(G3, [1.0, 0.0, 0.0])
    assert build_gns(rho).dim == 1


def test_degenerate_state_raises(pair2):
    rho = c.State(pair2, np.zeros(4, dtype=complex))  # bypass validation
    with pytest.raises(DegenerateState):
        build_gns(rho)


def test_represent_groupoid_mismatch(pair2, triv2):
    rho = c.state_from_density(np.diag([0.5, 0.5]), pair2)
    S = build_gns(rho)
    with pytest.raises(GroupoidMismatch):
        gns_represent(S, unit_element(triv2))


def test_gns_on_group_groupoid():
    G = c.cyclic_group_groupoid(3)
    rho = c.make_state(G, [1.0, 0.2, 0.2])
    S = build_gns(rho)
    assert S.dim == 3
    om = cyclic_vector(S)
    a = c.delta_element(G, "g1")
    assert abs(om.conj() @ gns_represent(S, a) @ om - c.expectation(rho, a)) < 1e-10


def test_rank_cut_is_relative_to_the_largest_gram_eigenvalue():
    """On pair(2) with P = (1e-3, 1 - 1e-3), the state phi = 500 at (1,1) and
    0.5 / (1 - 1e-3) at (2,2) has Gram eigenvalues P(x) phi(1_y): 499.5, 0.5,
    0.5 and 5.005e-4.  At tol = 1e-4 the cut is tol * 499.5 = 0.05, so the
    last one, above tol but below the cut, joins the Gelfand ideal."""
    G = c.pair_groupoid(2, {"1": 1e-3, "2": 1 - 1e-3})
    phi = np.zeros(4, dtype=complex)
    phi[G.index["(1,1)"]], phi[G.index["(2,2)"]] = 500.0, 0.5 / (1 - 1e-3)
    S = build_gns(c.make_state(G, phi), tol=1e-4)
    assert S.gram_eigenvalues == pytest.approx([5.005e-4, 0.5, 0.5, 499.5], rel=1e-3)
    assert S.dim == 3
    assert S.quotient_basis.shape == (4, 3) and S.ideal_basis.shape == (4, 1)
