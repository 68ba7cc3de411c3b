"""Batched Hermitian eigensolves and positive-semidefiniteness verdicts, every
tolerance of the package, and the one conversion of array arguments.

Thin wrappers around LAPACK (via numpy): each call decides a whole stack of
matrices with one eigensolve.  Each verdict that takes a ``tol`` (the state,
kernel, Kraus, CP and GNS rank verdicts) defaults to ``TOL``, and the CLI's
``--tol`` sets it; the other bounds below are fixed.  ``_as_array`` converts
every array argument of the library and raises its caller's error class.
"""
from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NotHermitian

TOL = 1e-9  # default verdict tolerance; fixed for groupoid measures and Fisher's imaginary part
DEFAULT_H = 1e-5  # central-difference step of model derivatives (the CLI's --h)
STOCHASTIC_TOL = 1e-12  # negative entry and row-sum deviation of a ClassicalKernel
FOLIUM_TOL = 1e-6  # relative Riesz residual past which a derivative leaves the folium
BOUND_TOL = 1e-12  # a Fisher metric at or below it has no Cramer-Rao bound
SELFADJOINT_TOL = 1e-10  # relative |A* - A| of an Estimator
UNBIASED_TOL = 1e-8  # |rho_s(A) - s| of an unbiased estimator at each grid point
SATURATION_TOL = 1e-6  # Cramer-Rao slack at or below which an estimator saturates
P_FLOOR = 1e-12  # outcome probability at or below which classical Fisher-Rao fails
CONGRUENCE_TOL = 1e-10  # max |K L - I| of a congruent embedding K with left inverse L
# relative size below which an entry is set to zero before an eigensolve: its square
# underflows, and LAPACK's eigenvalue-only solver, which works with squares, loses digits
_UNDERFLOW_FLOOR = float(np.sqrt(np.finfo(float).tiny))
_RANKS = {1: "a vector", 2: "a matrix", 3: "a stack of matrices"}


def _as_array(x, shape: tuple, error: type, what: str, dtype=complex) -> np.ndarray:
    """``np.asarray(x, dtype)``; ``error`` naming ``what`` if that fails (a ragged
    nesting, an entry that is not a number, a nonzero imaginary part where
    ``dtype`` is real, a non-integral value, or an integer that does not fit,
    where it is an integer type) or the shape is not ``shape`` (-1: any)."""
    try:
        a = np.asarray(x)
        if a.dtype.kind in "US":  # refused, never parsed
            raise error(f"{what} is not an array of numbers")
        if a.dtype.kind == "c" and np.dtype(dtype).kind != "c":
            if a.imag.any():  # refused, never dropped
                raise error(f"{what} is not an array of real numbers")
            a = a.real
        with np.errstate(invalid="ignore"):  # a nan or inf cast to an integer
            b = np.asarray(a, dtype)
        if a.dtype.kind in "fiu" and b.dtype.kind == "i" and (b != a).any():
            if a.dtype.kind == "f":
                raise error(f"{what} is not an array of integers")  # refused, never truncated
            raise error(f"{what} holds an integer outside the range of {b.dtype}")  # never wrapped
        a = b
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} is not an array of numbers") from exc
    if a.ndim != len(shape):
        raise error(f"{what} must be {_RANKS[len(shape)]}, not of shape {a.shape}")
    if any(want not in (-1, got) for want, got in zip(shape, a.shape)):
        raise error(f"{what} shape {a.shape}, expected {shape}")
    return a


def hermitian_spectra(H, vectors: bool = False):
    """Ascending eigenvalues, and with ``vectors`` the eigenvectors (columns),
    of the Hermitian part of each matrix of a (..., s, s) stack, its entries
    below ``_UNDERFLOW_FLOOR * max|entry|`` of their matrix set to zero."""
    if not np.isfinite(H).all():
        raise NotHermitian("matrix contains non-finite entries")
    Hh = (H + H.conj().swapaxes(-1, -2)) / 2.0
    size = np.abs(Hh)
    Hh[size < _UNDERFLOW_FLOOR * size.max(axis=(-2, -1), keepdims=True, initial=0.0)] = 0.0
    try:
        return np.linalg.eigh(Hh) if vectors else np.linalg.eigvalsh(Hh)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NoConvergence(str(exc)) from exc


def psd_verdicts(H, tol: float, scale=None):
    """``(is_psd, min_eigenvalue)`` of each matrix of a (k, s, s) stack: a matrix
    past the asymmetry bound ``tol * (1 + max|H|)`` gets ``(False, -inf)``, the
    others are PSD at ``min eigenvalue >= -tol * (1 + spectral radius)``, and
    ``scale`` if given replaces each ``1 + spectral radius``."""
    H = np.asarray(H, dtype=complex)
    Ht = H.conj().swapaxes(1, 2)
    herm = ~(np.abs(H - Ht).max(axis=(1, 2)) > tol * (1.0 + np.abs(H).max(axis=(1, 2))))
    w = hermitian_spectra(H[herm])
    lo, radius = np.full(len(H), -np.inf), np.zeros(len(H))
    lo[herm], radius[herm] = w[:, 0], np.abs(w).max(axis=1)
    return lo >= -tol * (1.0 + radius if scale is None else scale), lo
