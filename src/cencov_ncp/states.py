"""States as normalized positive-definite characteristic functions.

A characteristic function phi on a finite groupoid is positive definite when
every target-fiber Gram matrix ``M[k,l] = phi(inv(a_k) o a_l)`` is Hermitian
PSD, and normalized when ``sum_x phi(1_x) P(x) = 1``.  On a uniform pair
groupoid these are exactly the density matrices under the dictionary
``phi(element y<-x) = n * D[x, y]`` (so that expectations become ``Tr(D A)``
in the fundamental representation).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .algebra import AlgebraElement
from .errors import GroupoidMismatch, InvalidDensity, InvalidState
from .groupoid import FiniteGroupoid

NORM_TOL = 1e-9


@dataclass(frozen=True)
class StateReport:
    """Outcome of the three state checks; the state is valid iff all pass."""

    fiber_min_eigenvalue: dict[str, float]
    normalization_deficit: float
    symmetry_deficit: float
    psd_ok: bool
    normalization_ok: bool
    symmetry_ok: bool

    @property
    def passed(self) -> bool:
        return self.psd_ok and self.normalization_ok and self.symmetry_ok


@dataclass(frozen=True)
class State:
    """A validated state; use :func:`make_state` to construct one."""

    groupoid: FiniteGroupoid
    phi: np.ndarray  # complex, canonical element order

    def __getitem__(self, elem: str) -> complex:
        return complex(self.phi[self.groupoid.index[elem]])


def fiber_gram(G: FiniteGroupoid, phi: np.ndarray, x: str) -> np.ndarray:
    """Gram matrix ``phi(inv(a_k) o a_l)`` over the target fiber of x."""
    fiber = G.fiber_ix(x)
    return np.asarray(phi, dtype=complex)[G.compose_ix[np.ix_(G.inv_ix[fiber], fiber)]]


def fiber_psd_verdicts(G: FiniteGroupoid, phi: np.ndarray, tol: float, scale=None):
    """:func:`numkit.psd_verdicts` of the target-fiber Grams of the array phi,
    in outcome order; one eigensolve per distinct fiber size."""
    ok, lo = np.empty(len(G.outcomes), dtype=bool), np.empty(len(G.outcomes))
    for xs, _, T in G.fiber_blocks:
        ok[xs], lo[xs] = numkit.psd_verdicts(phi[T], tol, scale)
    return ok, lo


def check_state(phi, G: FiniteGroupoid, tol: float = NORM_TOL) -> StateReport:
    """Report positive definiteness, normalization, and hermitian symmetry."""
    v = np.asarray(phi, dtype=complex).reshape(-1)
    if v.shape[0] != len(G.elements):
        raise GroupoidMismatch("phi length does not match groupoid")
    psd, fiber_min = fiber_psd_verdicts(G, v, tol)
    norm_deficit = abs(complex(v[G.unit_ix] @ G.P_vec) - 1.0)
    sym_deficit = float(np.abs(v[G.inv_ix] - np.conj(v)).max())
    return StateReport(
        fiber_min_eigenvalue=dict(zip(G.outcomes, fiber_min.tolist())),
        normalization_deficit=float(norm_deficit),
        symmetry_deficit=sym_deficit,
        psd_ok=bool(psd.all()),
        normalization_ok=norm_deficit <= tol,
        symmetry_ok=sym_deficit <= max(tol, 1e-9),
    )


def make_state(G: FiniteGroupoid, phi, tol: float = NORM_TOL) -> State:
    """Construct a State, raising InvalidState when any invariant fails."""
    report = check_state(phi, G, tol=tol)
    if not report.passed:
        raise InvalidState(
            f"invalid state: psd={report.psd_ok} "
            f"norm_deficit={report.normalization_deficit:.3e} "
            f"sym_deficit={report.symmetry_deficit:.3e}"
        )
    return State(G, np.asarray(phi, dtype=complex).reshape(-1).copy())


def expectation(rho: State, a: AlgebraElement) -> complex:
    """``rho(lambda(a)) = sum_alpha a(alpha) phi(alpha) nu(alpha)``."""
    G = rho.groupoid
    if a.groupoid != G:
        raise GroupoidMismatch("state and observable live on different groupoids")
    return complex(np.sum(a.coeff * rho.phi * G.nu_vec))


def outcome_distribution(rho: State) -> dict[str, float]:
    """``p(x) = phi(1_x) P(x)``, nonnegative and summing to 1."""
    G = rho.groupoid
    return dict(zip(G.outcomes, (rho.phi[G.unit_ix].real * G.P_vec).tolist()))


# ---------------------------------------------------------------------------
# density-matrix dictionary on uniform pair groupoids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD unit-trace matrix; use :func:`make_density` to build."""

    matrix: np.ndarray


def make_density(D, tol: float = NORM_TOL) -> DensityMatrix:
    M = np.asarray(D, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidDensity("density matrix must be square")
    (ok,), (lo,) = numkit.psd_verdicts(M[None], tol)
    if lo == -np.inf:
        raise InvalidDensity("density matrix is not Hermitian")
    if not ok:
        raise InvalidDensity(f"density matrix has negative eigenvalue {lo:.3e}")
    if abs(np.trace(M).real - 1.0) > tol:
        raise InvalidDensity(f"density matrix trace is {np.trace(M).real}")
    return DensityMatrix(M.copy())


def density_from_state(rho: State) -> DensityMatrix:
    """``D[s, t] = phi(element (t,s)) / n`` on a uniform pair groupoid.

    Indexing: the pair element ``(t, s)`` is the transition s -> t and carries
    the matrix entry ``D[s, t]`` (this is the unique orientation for which the
    algebra expectation becomes ``Tr(D A)``).
    """
    return make_density(density_from_phi_unchecked(rho.phi, rho.groupoid))


def state_from_density(D: DensityMatrix | np.ndarray, G: FiniteGroupoid) -> State:
    """Inverse dictionary: ``phi(element t<-s) = n * D[s, t]``."""
    M = D.matrix if isinstance(D, DensityMatrix) else np.asarray(D, dtype=complex)
    M = make_density(M).matrix
    if G.pair_index.shape[0] != M.shape[0]:
        raise GroupoidMismatch("density matrix size does not match outcome count")
    return make_state(G, phi_from_density_unchecked(M, G))


def phi_from_density_unchecked(M: np.ndarray, G: FiniteGroupoid) -> np.ndarray:
    """Linear (unvalidated) half of the dictionary, for linear extensions."""
    phi = np.zeros(len(G.elements), dtype=complex)
    phi[G.pair_index] = len(G.outcomes) * np.asarray(M).T
    return phi


def density_from_phi_unchecked(phi: np.ndarray, G: FiniteGroupoid) -> np.ndarray:
    return phi[G.pair_index].T / len(G.outcomes)


def classical_state(G: FiniteGroupoid, p) -> State:
    """State on a trivial groupoid from a probability vector: phi(1_x) = p(x)/P(x)."""
    if len(G.elements) != len(G.outcomes):
        raise GroupoidMismatch("classical_state needs a trivial groupoid")
    p = np.asarray(p, dtype=float).reshape(-1)
    phi = np.zeros(len(G.elements), dtype=complex)
    phi[G.unit_ix] = p / G.P_vec
    return make_state(G, phi)
