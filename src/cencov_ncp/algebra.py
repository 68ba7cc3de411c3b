"""The groupoid convolution *-algebra and its matrix representations.

Elements are complex coefficient functions on the groupoid.  The product is
normalized so that the delta-weighted regular representation is an exact
*-homomorphism: with ``lambda(a)`` carrying the weight ``delta^(1/2)(alpha)``
on each coefficient, the modular homomorphism makes the induced product the
plain convolution ``(a.b)(gamma) = sum_{beta o alpha = gamma} a(beta) b(alpha)``
and the involution ``a*(alpha) = conj(a(inv(alpha))) / delta(alpha)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupoidMismatch
from .groupoid import FiniteGroupoid


@dataclass(frozen=True)
class AlgebraElement:
    """A formal linear combination of groupoid elements."""

    groupoid: FiniteGroupoid
    coeff: np.ndarray  # complex, canonical element order

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=complex).reshape(-1)
        if c.shape[0] != len(self.groupoid.elements):
            raise GroupoidMismatch("coefficient vector length does not match groupoid")
        object.__setattr__(self, "coeff", c)

    def __getitem__(self, elem: str) -> complex:
        return complex(self.coeff[self.groupoid.index[elem]])


def element_from_dict(G: FiniteGroupoid, coeff: dict[str, complex]) -> AlgebraElement:
    c = np.zeros(len(G.elements), dtype=complex)
    for e, v in coeff.items():
        c[G.index[e]] = v
    return AlgebraElement(G, c)


def delta_element(G: FiniteGroupoid, elem: str) -> AlgebraElement:
    """The basis element supported on a single transition."""
    c = np.zeros(len(G.elements), dtype=complex)
    c[G.index[elem]] = 1.0
    return AlgebraElement(G, c)


def unit_element(G: FiniteGroupoid) -> AlgebraElement:
    """The algebra unit: the sum of all outcome units."""
    c = np.zeros(len(G.elements), dtype=complex)
    c[G.unit_ix] = 1.0
    return AlgebraElement(G, c)


def _same_groupoid(a: AlgebraElement, b: AlgebraElement) -> FiniteGroupoid:
    if a.groupoid != b.groupoid:
        raise GroupoidMismatch("algebra elements live on different groupoids")
    return a.groupoid


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product pinned down by ``left_regular_rep(a.b) = lambda(a) lambda(b)``."""
    G = _same_groupoid(a, b)
    beta, alpha, gamma = G.triples
    terms = a.coeff[beta] * b.coeff[alpha]
    # summed per gamma in canonical pair order, real and imaginary parts apart
    n = len(G.elements)
    c = (np.bincount(gamma, weights=terms.real, minlength=n)
         + 1j * np.bincount(gamma, weights=terms.imag, minlength=n))
    return AlgebraElement(G, c)


def star(a: AlgebraElement) -> AlgebraElement:
    """Involution: ``a*(alpha) = conj(a(inv(alpha))) / delta(alpha)``."""
    G = a.groupoid
    return AlgebraElement(G, np.conj(a.coeff[G.inv_ix]) / G.delta_vec)


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    G = _same_groupoid(a, b)
    return AlgebraElement(G, a.coeff + b.coeff)


def scale(z: complex, a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.groupoid, z * a.coeff)


def left_regular_rep(a: AlgebraElement) -> np.ndarray:
    """Matrix of the bounded operator lambda(a) on l2(Gamma, nu).

    ``M[beta, gamma] = a(beta o inv(gamma)) * delta^(1/2)(beta o inv(gamma))``
    when source(gamma) = source(beta), zero otherwise; canonical element order.
    """
    G = a.groupoid
    n = len(G.elements)
    # every (beta, gamma) with equal sources is (alpha o gamma, gamma) for one
    # composable pair (alpha, gamma)
    alpha, gamma, beta = G.triples
    M = np.zeros((n, n), dtype=complex)
    M[beta, gamma] = (a.coeff * np.sqrt(G.delta_vec))[alpha]
    return M


def fundamental_rep_pair(a: AlgebraElement) -> np.ndarray:
    """The n x n matrix picture of a pair-groupoid algebra element.

    ``F[y, x] = a((y,x))`` with (y,x) the transition x -> y.  Only defined for
    pair groupoids with uniform P, where delta is identically 1 and the map is
    a *-isomorphism onto the full matrix algebra.
    """
    return a.coeff[a.groupoid.pair_index]


def element_from_matrix(G: FiniteGroupoid, F: np.ndarray) -> AlgebraElement:
    """Inverse of :func:`fundamental_rep_pair` on a uniform pair groupoid."""
    c = np.zeros(len(G.elements), dtype=complex)
    c[G.pair_index] = np.asarray(F, dtype=complex)
    return AlgebraElement(G, c)
