"""Dense complex linear algebra used by every other module.

Thin, tolerance-aware wrappers around LAPACK (via numpy) for Hermitian
eigenproblems, positive-semidefiniteness verdicts, and numerical rank.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, NotSquare

EIG_TOL = 1e-10
PSD_TOL = 1e-9
RANK_TOL = 1e-9


@dataclass(frozen=True)
class EigenResult:
    """Full spectrum (ascending) and orthonormal eigenbasis (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(H, eig_tol: float = EIG_TOL) -> EigenResult:
    """Eigendecompose a Hermitian matrix, ascending eigenvalues.

    Raises NotHermitian when the max asymmetry exceeds
    ``eig_tol * (1 + max|H|)``.
    """
    M = np.asarray(H, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NotHermitian("matrix contains non-finite entries")
    scale = 1.0 + (np.abs(M).max() if M.size else 0.0)
    asym = np.abs(M - M.conj().T).max() if M.size else 0.0
    if asym > eig_tol * scale:
        raise NotHermitian(f"max asymmetry {asym:.3e} exceeds tolerance")
    try:
        w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NoConvergence(str(exc)) from exc
    return EigenResult(eigenvalues=w, eigenvectors=V)


def psd_verdict(H, psd_tol: float = PSD_TOL, eig_tol: float = EIG_TOL):
    """Return ``(is_psd, min_eigenvalue)`` for a Hermitian matrix.

    PSD means the minimum eigenvalue is at least
    ``-psd_tol * (1 + spectral radius)``.
    """
    res = hermitian_eigen(H, eig_tol=eig_tol)
    if res.eigenvalues.size == 0:
        return True, 0.0
    lo = float(res.eigenvalues[0])
    radius = float(np.abs(res.eigenvalues).max())
    return lo >= -psd_tol * (1.0 + radius), lo


def psd_verdicts(H, tol: float, scale=None):
    """:func:`psd_verdict` with ``eig_tol = tol``, ``psd_tol = max(tol, PSD_TOL)``
    on each matrix of a (k, s, s) stack, by one eigensolve; a matrix past the
    asymmetry bound gets ``(False, -inf)``, and ``scale`` if given replaces
    each ``1 + spectral radius`` in the PSD bound."""
    H = np.asarray(H, dtype=complex)
    Ht = H.conj().swapaxes(1, 2)
    herm = ~(np.abs(H - Ht).max(axis=(1, 2)) > tol * (1.0 + np.abs(H).max(axis=(1, 2))))
    if not np.isfinite(H[herm]).all():
        raise NotHermitian("matrix contains non-finite entries")
    try:
        w = np.linalg.eigvalsh((H[herm] + Ht[herm]) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NoConvergence(str(exc)) from exc
    lo, radius = np.full(len(H), -np.inf), np.zeros(len(H))
    lo[herm], radius[herm] = w[:, 0], np.abs(w).max(axis=1)
    return lo >= -max(tol, PSD_TOL) * (1.0 + radius if scale is None else scale), lo


def matrix_rank_hermitian(rows: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    """Rank of a (possibly rectangular) stack of row vectors.

    Computed from the spectrum of the Hermitian Gram matrix ``rows rows†``,
    so it only relies on :func:`hermitian_eigen`.
    """
    A = np.asarray(rows, dtype=complex)
    w = hermitian_eigen(A @ A.conj().T).eigenvalues
    return int(np.count_nonzero(w > rank_tol * np.abs(w).max(initial=0.0)))
