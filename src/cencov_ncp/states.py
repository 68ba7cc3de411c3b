"""States as normalized positive-definite characteristic functions.

A characteristic function phi on a finite groupoid is positive definite when
every target-fiber Gram matrix ``M[k,l] = phi(inv(a_k) o a_l)`` is Hermitian
PSD, and normalized when ``sum_x phi(1_x) nu(1_x) = 1``.  On a pair groupoid
with ``nu = 1/n`` (uniform P and unit fiber weights) these are exactly the
density matrices under the dictionary ``phi(element y<-x) = n * D[x, y]`` (so
that expectations become ``Tr(D A)`` in the fundamental representation): phi
is n times the element whose matrix picture (:mod:`.algebra`) is ``D^T``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .algebra import AlgebraElement, element_from_matrix, fundamental_rep_pair
from .errors import GroupoidMismatch, InvalidDensity, InvalidState
from .groupoid import FiniteGroupoid


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


def fiber_psd_verdicts(G: FiniteGroupoid, phi: np.ndarray, tol: float, size=None):
    """:func:`numkit.psd_verdicts` of the target-fiber Grams of the array phi,
    in outcome order; one eigensolve per distinct fiber size."""
    ok, lo = np.empty(len(G.outcomes), dtype=bool), np.empty(len(G.outcomes))
    for xs, _, T in G.fiber_blocks:
        ok[xs], lo[xs] = numkit.psd_verdicts(phi[T], tol, size)
    return ok, lo


def check_state(phi, G: FiniteGroupoid, tol: float = numkit.TOL) -> StateReport:
    """Report positive definiteness, normalization, and hermitian symmetry."""
    v = numkit._as_array(phi, (len(G.elements),), GroupoidMismatch, "phi")
    psd, fiber_min = fiber_psd_verdicts(G, v, tol)
    norm_deficit = abs(complex(v[G.unit_ix] @ G.nu_vec[G.unit_ix]) - 1.0)
    sym_deficit = float(np.abs(v[G.inv_ix] - np.conj(v)).max())
    return StateReport(
        fiber_min_eigenvalue=dict(zip(G.outcomes, fiber_min.tolist())),
        normalization_deficit=float(norm_deficit),
        symmetry_deficit=sym_deficit,
        psd_ok=bool(psd.all()),
        normalization_ok=numkit.within(norm_deficit, tol),
        symmetry_ok=numkit.within(sym_deficit, tol),
    )


def make_state(G: FiniteGroupoid, phi, tol: float = numkit.TOL) -> State:
    """Construct a State, raising InvalidState when any invariant fails."""
    phi = numkit._as_array(phi, (len(G.elements),), GroupoidMismatch, "phi")
    if not np.isfinite(phi).all():
        raise InvalidState("phi has non-finite entries")
    report = check_state(phi, G, tol=tol)
    if not report.passed:
        raise InvalidState(
            f"invalid state: psd={report.psd_ok} "
            f"norm_deficit={report.normalization_deficit:.3e} "
            f"sym_deficit={report.symmetry_deficit:.3e}"
        )
    return State(G, phi.copy())


def expectation(rho: State, a: AlgebraElement) -> complex:
    """``rho(lambda(a)) = sum_alpha a(alpha) phi(alpha) nu(alpha)``."""
    G = rho.groupoid
    if a.groupoid != G:
        raise GroupoidMismatch("state and observable live on different groupoids")
    return complex(np.sum(a.coeff * rho.phi * G.nu_vec))


def outcome_distribution(rho: State) -> dict[str, float]:
    """``p(x) = phi(1_x) nu(1_x)``, nonnegative and summing to 1."""
    G = rho.groupoid
    return dict(zip(G.outcomes, (rho.phi[G.unit_ix].real * G.nu_vec[G.unit_ix]).tolist()))


# ---------------------------------------------------------------------------
# density-matrix dictionary on pair groupoids with nu = 1/n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD unit-trace matrix; use :func:`make_density` to build."""

    matrix: np.ndarray


def make_density(D, tol: float = numkit.TOL) -> DensityMatrix:
    M = numkit._as_array(D, (-1, -1), InvalidDensity, "density matrix")
    if M.shape[0] != M.shape[1]:
        raise InvalidDensity("density matrix must be square")
    if not M.size:
        raise InvalidDensity("density matrix is empty")
    if not np.isfinite(M).all():
        raise InvalidDensity("density matrix has non-finite entries")
    (ok,), (lo,) = numkit.psd_verdicts(M[None], tol)
    if lo == -np.inf:
        raise InvalidDensity("density matrix is not Hermitian")
    if not ok:
        raise InvalidDensity(f"density matrix has negative eigenvalue {lo:.3e}")
    if not numkit.within(abs(np.trace(M).real - 1.0), tol):
        raise InvalidDensity(f"density matrix trace is {np.trace(M).real}")
    return DensityMatrix(M.copy())


def density_from_state(rho: State) -> DensityMatrix:
    """``D[s, t] = phi(element (t,s)) / n`` on a pair groupoid with nu = 1/n.

    Indexing: the pair element ``(t, s)`` is the transition s -> t and carries
    the matrix entry ``D[s, t]`` (this is the unique orientation for which the
    algebra expectation becomes ``Tr(D A)``).
    """
    G = rho.groupoid
    return make_density(fundamental_rep_pair(AlgebraElement(G, rho.phi)).T / len(G.outcomes))


def state_from_density(D: DensityMatrix | np.ndarray, G: FiniteGroupoid) -> State:
    """Inverse dictionary: ``phi(element t<-s) = n * D[s, t]``."""
    M = make_density(D.matrix if isinstance(D, DensityMatrix) else D).matrix
    return make_state(G, len(G.outcomes) * element_from_matrix(G, M.T).coeff)


def classical_state(G: FiniteGroupoid, p) -> State:
    """State on a trivial groupoid from a probability vector: phi(1_x) = p(x)/nu(1_x)."""
    if len(G.elements) != len(G.outcomes):
        raise GroupoidMismatch("classical_state needs a trivial groupoid")
    p = numkit._as_array(p, (len(G.outcomes),), GroupoidMismatch, "probability vector", float)
    phi = np.zeros(len(G.elements), dtype=complex)
    phi[G.unit_ix] = p / G.nu_vec[G.unit_ix]
    return make_state(G, phi)
