"""Finite-dimensional GNS construction for a state on a groupoid algebra.

The spanning set is the delta basis of the convolution algebra and the inner
product ``<A|B> = rho(A* B)`` vanishes unless ``t(a) = t(b)``, so the Gram
matrix is block diagonal over the target fibers.  The Gelfand ideal is
spanned by the block eigenvectors at or below one global rank threshold, the
quotient Hilbert space by those above it, rescaled to unit Gram norm.  The
dense forms are read-only and built on first use.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numkit
from .algebra import AlgebraElement, unit_element
from .errors import DegenerateState, DimensionMismatch, GroupoidMismatch
from .groupoid import FiniteGroupoid
from .states import State


@dataclass(frozen=True)
class GnsSpace:
    """Per-fiber Gram blocks and their spectral split for a state."""

    groupoid: FiniteGroupoid
    base_state: State
    # per fiber size s, (F, gram, w, V, keep) over its k fibers: element indices
    # (k, s), Gram blocks (k, s, s), ascending eigenvalues, eigenvectors, kept mask
    blocks: tuple[tuple[np.ndarray, ...], ...]
    gram_eigenvalues: np.ndarray  # all block eigenvalues, ascending, length |Gamma|
    dim: int

    def apply(self, u) -> np.ndarray:
        """``gram @ u`` for a vector or matrix u of |Gamma| rows."""
        u = np.asarray(u, dtype=complex)
        out = np.zeros_like(u)
        for F, B, *_ in self.blocks:
            out[F] = np.einsum("kij,kj...->ki...", B, u[F])
        return out

    def solve(self, v) -> np.ndarray:
        """``Q Q† v``, the minimum-norm solution of ``gram x = v`` on the range
        of the Gram matrix: ``V diag(1/w) V† v_F`` on the kept block spectra."""
        x = np.zeros(len(v), dtype=complex)
        for F, _, w, V, keep in self.blocks:
            c = np.einsum("kji,kj->ki", V.conj(), v[F])
            x[F] = np.einsum("kij,kj->ki", V, np.divide(c, w, out=np.zeros_like(c), where=keep))
        return x

    @cached_property
    def gram(self) -> np.ndarray:
        """|Gamma| x |Gamma| Gram matrix, Hermitian PSD: the blocks in place."""
        M = gram_matrix(self.base_state)
        M.flags.writeable = False
        return M

    @cached_property
    def quotient_basis(self) -> np.ndarray:
        """|Gamma| x dim, columns, Gram-orthonormal."""
        return self._columns(kept=True)

    @cached_property
    def ideal_basis(self) -> np.ndarray:
        """|Gamma| x (|Gamma| - dim), columns."""
        return self._columns(kept=False)

    def _columns(self, kept: bool) -> np.ndarray:
        n, cols = len(self.groupoid.elements), []
        for F, _, w, V, keep in self.blocks:
            i, j = np.nonzero(keep == kept)
            scale = np.sqrt(w[i, j])[:, None] if kept else 1.0
            C = np.zeros((n, len(i)), dtype=complex)
            C[F[i], np.arange(len(i))[:, None]] = V[i, :, j] / scale
            cols.append(C)
        M = np.hstack(cols)
        M.flags.writeable = False
        return M


def _gram_blocks(rho: State):
    """``(F, B)`` per fiber size: the elements ``F`` (k, s) of k target fibers
    and their Gram blocks ``B[i, k, l] = gram[F[i, k], F[i, l]]``."""
    G = rho.groupoid
    for _, F, T in G.fiber_blocks:
        yield F, rho.phi[T] * G.nu_vec[T] / G.delta_vec[F][:, :, None]


def gram_matrix(rho: State) -> np.ndarray:
    """``gram[a, b] = rho(star(delta_a) . delta_b)`` in canonical order.

    Closed form: ``[t(a) = t(b)] phi(inv(a) o b) nu(inv(a) o b) / delta(a)``.
    """
    n = len(rho.groupoid.elements)
    M = np.zeros((n, n), dtype=complex)
    for F, B in _gram_blocks(rho):
        M[F[:, :, None], F[:, None, :]] = B
    return M


def build_gns(rho0: State, tol: float = numkit.TOL) -> GnsSpace:
    """Eigendecompose the Gram block of every target fiber and split the
    spectra at ``tol * lam_max``, ``lam_max`` over all blocks: eigenvalues
    above the cut span the quotient, the rest the Gelfand ideal."""
    # the state check has decided symmetry; eigendecompose the Hermitian part
    eig = [(F, B, *numkit.hermitian_spectra(B, vectors=True)) for F, B in _gram_blocks(rho0)]
    spectrum = np.sort(np.concatenate([w.ravel() for _, _, w, _ in eig]))
    lam_max = float(np.abs(spectrum).max())
    if lam_max <= 0.0:
        raise DegenerateState("Gram matrix is numerically zero")
    cut = tol * lam_max
    blocks = tuple((F, B, w, V, w > cut) for F, B, w, V in eig)
    return GnsSpace(groupoid=rho0.groupoid, base_state=rho0, blocks=blocks,
                    gram_eigenvalues=spectrum, dim=int(np.count_nonzero(spectrum > cut)))


def gns_inner(S: GnsSpace, u, v) -> complex:
    """``<u|v> = u† gram v`` on spanning-set coordinate vectors."""
    uu, vv = (numkit._as_array(x, (len(S.groupoid.elements),), DimensionMismatch,
                               "coordinate vector") for x in (u, v))
    return complex(uu.conj() @ S.apply(vv))


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
    return Q.conj().T @ S.apply(L @ Q)


def cyclic_vector(S: GnsSpace) -> np.ndarray:
    """Quotient coordinates of the class of the algebra unit."""
    u = unit_element(S.groupoid).coeff
    return S.quotient_basis.conj().T @ S.apply(u)
