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


def _as_matrix(H) -> np.ndarray:
    M = np.asarray(H, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NotHermitian("matrix contains non-finite entries")
    return M


def hermitian_eigen(H, eig_tol: float = EIG_TOL) -> EigenResult:
    """Eigendecompose a Hermitian matrix, ascending eigenvalues.

    Raises NotHermitian when the max asymmetry exceeds
    ``eig_tol * (1 + max|H|)``.
    """
    M = _as_matrix(H)
    scale = 1.0 + (np.abs(M).max() if M.size else 0.0)
    asym = np.abs(M - M.conj().T).max() if M.size else 0.0
    if asym > eig_tol * scale:
        raise NotHermitian(f"max asymmetry {asym:.3e} exceeds tolerance")
    try:
        w, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(w, kind="stable")
    return EigenResult(eigenvalues=w[order], eigenvectors=V[:, order])


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


def matrix_rank_hermitian(rows: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    """Rank of a (possibly rectangular) stack of row vectors.

    Computed from the spectrum of the Hermitian Gram matrix ``rows rows†``,
    so it only relies on :func:`hermitian_eigen`.
    """
    A = np.asarray(rows, dtype=complex)
    if A.size == 0:
        return 0
    gram = A @ A.conj().T
    w = hermitian_eigen(gram).eigenvalues
    lam_max = float(np.abs(w).max())
    if lam_max == 0.0:
        return 0
    return int(np.count_nonzero(w > rank_tol * lam_max))
