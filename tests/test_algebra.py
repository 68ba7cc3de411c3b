import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cencov_ncp as c
from cencov_ncp.algebra import (
    add,
    convolve,
    delta_element,
    element_from_matrix,
    fundamental_rep_pair,
    left_regular_rep,
    scale,
    star,
    unit_element,
)
from cencov_ncp.errors import GroupoidMismatch, NonUniformP, NotPairGroupoid
from reference import matrix_rank_hermitian


def random_element(G, rng):
    n = len(G.elements)
    return c.AlgebraElement(G, rng.normal(size=n) + 1j * rng.normal(size=n))


STANDARD = [
    c.pair_groupoid(2),
    c.pair_groupoid(3),
    c.pair_groupoid(2, P={"1": 0.3, "2": 0.7}),
    c.trivial_groupoid(4),
    c.cyclic_group_groupoid(2),
    c.cyclic_group_groupoid(3),
    c.product(c.pair_groupoid(2), c.trivial_groupoid(2)),
    c.disjoint_union(c.pair_groupoid(2), c.cyclic_group_groupoid(3), 0.4),
]


def test_unit_element_is_identity():
    rng = np.random.default_rng(1)
    for G in STANDARD:
        a = random_element(G, rng)
        e = unit_element(G)
        assert np.abs(convolve(e, a).coeff - a.coeff).max() < 1e-12
        assert np.abs(convolve(a, e).coeff - a.coeff).max() < 1e-12


def test_convolution_associative():
    rng = np.random.default_rng(2)
    for G in STANDARD:
        a, b, d = (random_element(G, rng) for _ in range(3))
        lhs = convolve(convolve(a, b), d).coeff
        rhs = convolve(a, convolve(b, d)).coeff
        assert np.abs(lhs - rhs).max() < 1e-10


def test_star_is_involution_and_antihomomorphism():
    rng = np.random.default_rng(3)
    for G in STANDARD:
        a, b = random_element(G, rng), random_element(G, rng)
        assert np.abs(star(star(a)).coeff - a.coeff).max() < 1e-12
        lhs = star(convolve(a, b)).coeff
        rhs = convolve(star(b), star(a)).coeff
        assert np.abs(lhs - rhs).max() < 1e-10


def test_regular_rep_star_homomorphism():
    rng = np.random.default_rng(4)
    for G in STANDARD:
        a, b = random_element(G, rng), random_element(G, rng)
        La, Lb = left_regular_rep(a), left_regular_rep(b)
        assert np.abs(left_regular_rep(convolve(a, b)) - La @ Lb).max() < 1e-12
        assert np.abs(left_regular_rep(star(a)) - La.conj().T).max() < 1e-12


def test_regular_rep_faithful():
    for G in STANDARD:
        n = len(G.elements)
        rows = np.array([
            left_regular_rep(delta_element(G, e)).reshape(-1) for e in G.elements
        ])
        assert matrix_rank_hermitian(rows) == n


def test_fundamental_rep_is_star_isomorphism():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        G = c.pair_groupoid(n)
        a, b = random_element(G, rng), random_element(G, rng)
        Fa, Fb = fundamental_rep_pair(a), fundamental_rep_pair(b)
        assert np.abs(fundamental_rep_pair(convolve(a, b)) - Fa @ Fb).max() < 1e-12
        assert np.abs(fundamental_rep_pair(star(a)) - Fa.conj().T).max() < 1e-12
        # bijective: round trip through the matrix picture
        back = element_from_matrix(G, Fa)
        assert np.abs(back.coeff - a.coeff).max() < 1e-12


def test_fundamental_rep_guards():
    with pytest.raises(NotPairGroupoid):
        fundamental_rep_pair(unit_element(c.trivial_groupoid(2)))
    G = c.pair_groupoid(2, P={"1": 0.3, "2": 0.7})
    with pytest.raises(NonUniformP):
        fundamental_rep_pair(unit_element(G))


def test_groupoid_mismatch():
    a = unit_element(c.pair_groupoid(2))
    b = unit_element(c.trivial_groupoid(2))
    with pytest.raises(GroupoidMismatch):
        convolve(a, b)


def test_add_scale():
    G = c.pair_groupoid(2)
    a = delta_element(G, "(1,2)")
    s = add(scale(2.0, a), a)
    assert s["(1,2)"] == pytest.approx(3.0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=8, max_size=8),
       st.lists(st.floats(-3, 3), min_size=8, max_size=8))
def test_hom_property_on_nonuniform_pair(xs, ys):
    G = c.pair_groupoid(2, P={"1": 0.2, "2": 0.8})
    a = c.AlgebraElement(G, np.array(xs[:4]) + 1j * np.array(xs[4:]))
    b = c.AlgebraElement(G, np.array(ys[:4]) + 1j * np.array(ys[4:]))
    La, Lb = left_regular_rep(a), left_regular_rep(b)
    dev = np.abs(left_regular_rep(convolve(a, b)) - La @ Lb).max()
    assert dev < 1e-10 * (1 + np.abs(La).max() * np.abs(Lb).max())
