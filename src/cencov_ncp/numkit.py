"""Batched Hermitian eigensolves and positive-semidefiniteness verdicts, and
the shared PSD and rank tolerances.

Thin wrappers around LAPACK (via numpy): each call decides a whole stack of
matrices with one eigensolve.
"""
from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NotHermitian

PSD_TOL = 1e-9
RANK_TOL = 1e-9


def hermitian_spectra(H, vectors: bool = False):
    """Ascending eigenvalues, and with ``vectors`` the eigenvectors (columns),
    of the Hermitian part of each matrix of a (..., s, s) stack."""
    if not np.isfinite(H).all():
        raise NotHermitian("matrix contains non-finite entries")
    Hh = (H + H.conj().swapaxes(-1, -2)) / 2.0
    try:
        return np.linalg.eigh(Hh) if vectors else np.linalg.eigvalsh(Hh)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NoConvergence(str(exc)) from exc


def psd_verdicts(H, tol: float, scale=None):
    """``(is_psd, min_eigenvalue)`` of each matrix of a (k, s, s) stack: a matrix
    past the asymmetry bound ``tol * (1 + max|H|)`` gets ``(False, -inf)``, the
    others are PSD at ``min eigenvalue >= -max(tol, PSD_TOL) * (1 + spectral
    radius)``, and ``scale`` if given replaces each ``1 + spectral radius``."""
    H = np.asarray(H, dtype=complex)
    Ht = H.conj().swapaxes(1, 2)
    herm = ~(np.abs(H - Ht).max(axis=(1, 2)) > tol * (1.0 + np.abs(H).max(axis=(1, 2))))
    w = hermitian_spectra(H[herm])
    lo, radius = np.full(len(H), -np.inf), np.zeros(len(H))
    lo[herm], radius[herm] = w[:, 0], np.abs(w).max(axis=1)
    return lo >= -max(tol, PSD_TOL) * (1.0 + radius if scale is None else scale), lo
