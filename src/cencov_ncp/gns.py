"""Finite-dimensional GNS construction for a state on a groupoid algebra.

The spanning set is the delta basis of the convolution algebra, the inner
product is ``<A|B> = rho(A* B)``, and the Gelfand ideal is the numerical null
space of the resulting Gram matrix.  The quotient Hilbert space is spanned by
the Gram eigenvectors above the rank threshold, rescaled to unit Gram norm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .algebra import AlgebraElement, unit_element
from .errors import DegenerateState, DimensionMismatch, GroupoidMismatch
from .groupoid import FiniteGroupoid
from .states import State


@dataclass(frozen=True)
class GnsSpace:
    """Gram matrix, Gelfand-ideal basis, and quotient basis for a state."""

    groupoid: FiniteGroupoid
    base_state: State
    gram: np.ndarray            # |Gamma| x |Gamma|, Hermitian PSD
    gram_eigenvalues: np.ndarray
    ideal_basis: np.ndarray     # |Gamma| x (|Gamma| - dim), columns
    quotient_basis: np.ndarray  # |Gamma| x dim, columns, Gram-orthonormal
    dim: int


def gram_matrix(rho: State) -> np.ndarray:
    """``gram[a, b] = rho(star(delta_a) . delta_b)`` in canonical order.

    Closed form: ``[t(a) = t(b)] phi(inv(a) o b) nu(inv(a) o b) / delta(a)``.
    """
    G = rho.groupoid
    n = len(G.elements)
    # every (a, b) with equal targets is (inv(x), y) for one composable pair (x, y)
    x, y, g = G.triples
    a = G.inv_ix[x]
    M = np.zeros((n, n), dtype=complex)
    M[a, y] = rho.phi[g] * G.nu_vec[g] / G.delta_vec[a]
    return M


def build_gns(rho0: State, rank_tol: float = numkit.RANK_TOL) -> GnsSpace:
    """Assemble the Gram matrix and split it spectrally at ``rank_tol * lam_max``."""
    G = rho0.groupoid
    gram = gram_matrix(rho0)
    # the state check has decided symmetry; eigendecompose the Hermitian part
    res = numkit.hermitian_eigen(gram, eig_tol=np.inf)
    w, V = res.eigenvalues, res.eigenvectors
    lam_max = float(np.abs(w).max()) if w.size else 0.0
    if lam_max <= 0.0:
        raise DegenerateState("Gram matrix is numerically zero")
    keep = w > rank_tol * lam_max
    quotient = V[:, keep] / np.sqrt(w[keep])
    ideal = V[:, ~keep]
    return GnsSpace(
        groupoid=G,
        base_state=rho0,
        gram=gram,
        gram_eigenvalues=w,
        ideal_basis=ideal,
        quotient_basis=quotient,
        dim=int(np.count_nonzero(keep)),
    )


def gns_inner(S: GnsSpace, u, v) -> complex:
    """``<u|v> = u† gram v`` on spanning-set coordinate vectors."""
    uu = np.asarray(u, dtype=complex).reshape(-1)
    vv = np.asarray(v, dtype=complex).reshape(-1)
    n = S.gram.shape[0]
    if uu.shape[0] != n or vv.shape[0] != n:
        raise DimensionMismatch("coordinate vectors must have length |Gamma|")
    return complex(uu.conj() @ S.gram @ vv)


def gns_represent(S: GnsSpace, a: AlgebraElement) -> np.ndarray:
    """Matrix of left multiplication by ``a`` on the quotient basis."""
    G = S.groupoid
    if a.groupoid != G:
        raise GroupoidMismatch("algebra element lives on a different groupoid")
    n = len(G.elements)
    # left multiplication by a in the delta basis: L[g, al] = a(be) for be o al = g
    # (beta is unique given gamma and alpha)
    beta, alpha, gamma = G.triples
    L = np.zeros((n, n), dtype=complex)
    L[gamma, alpha] = a.coeff[beta]
    Q = S.quotient_basis
    return Q.conj().T @ S.gram @ (L @ Q)


def cyclic_vector(S: GnsSpace) -> np.ndarray:
    """Quotient coordinates of the class of the algebra unit."""
    u = unit_element(S.groupoid).coeff
    return S.quotient_basis.conj().T @ S.gram @ u
