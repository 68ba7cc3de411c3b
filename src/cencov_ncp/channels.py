"""Classical and quantum Markov kernels.

A quantum kernel is a complex function on Gamma_1 x Gamma_2 subject to three
axioms: (i) measure-weighted normalization ``sum_x Pi(a1, 1_x) P2(x) = 1``
for unit a1 and 0 otherwise, (ii) positive definiteness of ``Pi(1_x, .)`` on
Gamma_2 for every unit of Gamma_1, and (iii) the delta-twisted hermiticity
``conj(Pi(a1, a2)) = delta2(a2) Pi(inv(a1), inv(a2))``.  Kernels transport
states forward and observables backward, compose associatively, contain
row-stochastic matrices as the trivial-groupoid special case, and on uniform
pair groupoids correspond to linear maps on density matrices, where complete
positivity is decided through the Choi matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numkit
from .algebra import AlgebraElement
from .errors import (
    GroupoidMismatch,
    NonTracePreserving,
    NormalizationLost,
    NotPairGroupoid,
    PositivityLost,
    RowSumViolation,
)
from .groupoid import FiniteGroupoid
from .states import (
    State,
    check_state,
    density_from_phi_unchecked,
    fiber_psd_verdicts,
    phi_from_density_unchecked,
)

KERNEL_TOL = 1e-9


# ---------------------------------------------------------------------------
# classical kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalKernel:
    """Row-stochastic transition matrix between finite outcome sets."""

    K: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.K, dtype=float)
        if M.ndim != 2:
            raise RowSumViolation("classical kernel must be a matrix")
        if not np.isfinite(M).all():
            raise RowSumViolation("classical kernel has non-finite entries")
        if np.any(M < -1e-12):
            raise RowSumViolation("classical kernel has negative entries")
        rows = M.sum(axis=1)
        if np.abs(rows - 1.0).max() > 1e-12:
            raise RowSumViolation(f"row sums deviate by {np.abs(rows - 1.0).max():.3e}")
        object.__setattr__(self, "K", M)


# ---------------------------------------------------------------------------
# quantum kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumKernel:
    """Kernel function stored as a |Gamma_1| x |Gamma_2| complex array."""

    g1: FiniteGroupoid
    g2: FiniteGroupoid
    pi: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.pi, dtype=complex)
        if M.shape != (len(self.g1.elements), len(self.g2.elements)):
            raise GroupoidMismatch("kernel array shape does not match groupoids")
        object.__setattr__(self, "pi", M)

    def value(self, a1: str, a2: str) -> complex:
        return complex(self.pi[self.g1.index[a1], self.g2.index[a2]])


@dataclass(frozen=True)
class KernelReport:
    normalization_deficit: float
    positivity_min_eigenvalue: dict[str, float]
    hermiticity_deficit: float
    normalization_ok: bool
    positivity_ok: bool
    hermiticity_ok: bool

    @property
    def passed(self) -> bool:
        return self.normalization_ok and self.positivity_ok and self.hermiticity_ok


def validate_kernel(Pi: QuantumKernel, tol: float = KERNEL_TOL) -> KernelReport:
    """Check the three kernel axioms and report the deficits."""
    G1, G2 = Pi.g1, Pi.g2

    # (i) sum_x Pi(a1, 1_x) P2(x) = [a1 is a unit]
    want = (G1.unit_ix[G1.src] == np.arange(len(G1.elements))).astype(float)
    norm_dev = float(np.abs(Pi.pi[:, G2.unit_ix] @ G2.P_vec - want).max())

    # (ii) Pi(1_x, .) positive definite on Gamma_2, for every unit of Gamma_1
    pos = [fiber_psd_verdicts(G2, Pi.pi[u], tol, 1.0 + np.abs(Pi.pi[u]).max())
           for u in G1.unit_ix]
    pos_min = {x1: float(lo.min()) for x1, (_, lo) in zip(G1.outcomes, pos)}

    # (iii) conj(Pi(a1,a2)) = delta2(a2) Pi(inv(a1), inv(a2))
    herm_dev = float(np.abs(
        Pi.pi.conj() - G2.delta_vec * Pi.pi[np.ix_(G1.inv_ix, G2.inv_ix)]
    ).max(initial=0.0))

    scale = 1.0 + float(np.abs(Pi.pi).max(initial=0.0))
    return KernelReport(
        normalization_deficit=norm_dev,
        positivity_min_eigenvalue=pos_min,
        hermiticity_deficit=herm_dev,
        normalization_ok=norm_dev <= tol * scale,
        positivity_ok=all(ok.all() for ok, _ in pos),
        hermiticity_ok=herm_dev <= tol * scale,
    )


def identity_kernel(G: FiniteGroupoid) -> QuantumKernel:
    """The unit morphism: ``Pi(a1, a2) = [a1 = a2] / nu(a1)``."""
    return QuantumKernel(G, G, np.diag(1.0 / G.nu_vec).astype(complex))


def push_phi(phi1: np.ndarray, Pi: QuantumKernel) -> np.ndarray:
    """Unvalidated pushforward ``(phi1 Pi)(a2) = sum phi1 Pi nu1``."""
    return (phi1 * Pi.g1.nu_vec) @ Pi.pi


def push_state(phi1: State, Pi: QuantumKernel) -> State:
    """Transport a state forward; fails loudly when the result is not a state."""
    return push_state_report(phi1, Pi)[0]


def push_state_report(phi1: State, Pi: QuantumKernel, tol: float = KERNEL_TOL):
    """:func:`push_state` and the report of its one state check, at ``tol``."""
    if phi1.groupoid != Pi.g1:
        raise GroupoidMismatch("state groupoid does not match kernel source")
    phi2 = push_phi(phi1.phi, Pi)
    report = check_state(phi2, Pi.g2, tol=tol)
    if not report.psd_ok or not report.symmetry_ok:
        bad = min(report.fiber_min_eigenvalue, key=report.fiber_min_eigenvalue.get)
        raise PositivityLost(
            f"pushed state fails positive definiteness on fiber {bad!r} "
            f"(min eigenvalue {report.fiber_min_eigenvalue[bad]:.3e})"
        )
    if not report.normalization_ok:
        raise NormalizationLost(
            f"pushed state normalization deficit {report.normalization_deficit:.3e}"
        )
    return State(Pi.g2, phi2), report


def pull_observable(Pi: QuantumKernel, f2: AlgebraElement) -> AlgebraElement:
    """``(Pi f2)(a1) = sum_{a2} Pi(a1, a2) f2(a2) nu2(a2)``."""
    if f2.groupoid != Pi.g2:
        raise GroupoidMismatch("observable groupoid does not match kernel target")
    return AlgebraElement(Pi.g1, Pi.pi @ (f2.coeff * Pi.g2.nu_vec))


def compose(Pi12: QuantumKernel, Pi23: QuantumKernel) -> QuantumKernel:
    """``(Pi12 o Pi23)(a1, a3) = sum_{a2} Pi12(a1,a2) Pi23(a2,a3) nu2(a2)``."""
    if Pi12.g2 != Pi23.g1:
        raise GroupoidMismatch("middle groupoids do not match")
    return QuantumKernel(Pi12.g1, Pi23.g2, (Pi12.pi * Pi12.g2.nu_vec) @ Pi23.pi)


def embed_classical(K: ClassicalKernel, G1: FiniteGroupoid,
                    G2: FiniteGroupoid) -> QuantumKernel:
    """Embed a row-stochastic matrix between trivial groupoids:
    ``Pi(1_x, 1_y) = K[x, y] / P2(y)``."""
    for G in (G1, G2):
        if len(G.elements) != len(G.outcomes):
            raise GroupoidMismatch("classical embedding needs trivial groupoids")
    if K.K.shape != (len(G1.outcomes), len(G2.outcomes)):
        raise GroupoidMismatch("stochastic matrix shape does not match outcome sets")
    pi = np.zeros((len(G1.elements), len(G2.elements)), dtype=complex)
    pi[np.ix_(G1.unit_ix, G2.unit_ix)] = K.K / G2.P_vec
    return QuantumKernel(G1, G2, pi)


def check_ncp_morphism(Pi: QuantumKernel, rho1: State, rho2: State,
                       tol: float = KERNEL_TOL) -> bool:
    """True iff Pi maps rho1 to rho2, i.e. is a morphism of state couples."""
    if rho1.groupoid != Pi.g1 or rho2.groupoid != Pi.g2:
        raise GroupoidMismatch("state groupoids do not match kernel")
    pushed = push_state(rho1, Pi)
    return bool(np.abs(pushed.phi - rho2.phi).max() <= tol * (1 + np.abs(rho2.phi).max()))


# ---------------------------------------------------------------------------
# completely positive maps on uniform pair groupoids
# ---------------------------------------------------------------------------

def kernel_to_cp_map(Pi: QuantumKernel) -> Callable[[np.ndarray], np.ndarray]:
    """State-side (predual) linear map on matrices induced by the kernel.

    Defined as the density dictionary conjugation of :func:`push_phi`, extended
    by linearity to all of M_n.
    """
    G1, G2 = Pi.g1, Pi.g2

    def phi_star(D: np.ndarray) -> np.ndarray:
        phi1 = phi_from_density_unchecked(np.asarray(D, dtype=complex), G1)
        phi2 = push_phi(phi1, Pi)
        return density_from_phi_unchecked(phi2, G2)

    return phi_star


def completeness_deficit(kraus: Sequence[np.ndarray]) -> float:
    """``max |sum_k A_k† A_k - I|``, zero for a trace-preserving Kraus family."""
    total = sum(a.conj().T @ a for a in kraus)
    return float(np.abs(total - np.eye(total.shape[0])).max())


def _pair_indices(G1: FiniteGroupoid, G2: FiniteGroupoid, what: str):
    """Both pair indices; a missing pair structure on either side is reported
    before non-uniform P on either side."""
    if G1.pair_grid is None or G2.pair_grid is None:
        raise NotPairGroupoid(f"{what} need pair groupoids")
    return G1.pair_index, G2.pair_index


def choi_to_kernel(kraus: Sequence[np.ndarray], G1: FiniteGroupoid,
                   G2: FiniteGroupoid, tol: float = 1e-9) -> QuantumKernel:
    """Kernel of the channel ``D -> sum_k A_k D A_k†`` between uniform pair
    groupoids, via ``Pi((t1,s1),(t2,s2)) = m * sum_k A_k[s2,s1] conj(A_k[t2,t1])``.
    """
    E1, E2 = _pair_indices(G1, G2, "Kraus kernels")
    n, m = len(E1), len(E2)
    A = [np.asarray(a, dtype=complex) for a in kraus]
    for a in A:
        if a.shape != (m, n):
            raise GroupoidMismatch(f"Kraus operator shape {a.shape}, expected {(m, n)}")
    dev = completeness_deficit(A)
    if dev > tol:
        raise NonTracePreserving(f"sum A†A deviates from identity by {dev:.3e}")
    return kernel_from_matrix_map(lambda D: sum(a @ D @ a.conj().T for a in A), G1, G2)


def kernel_from_matrix_map(phi_star: Callable[[np.ndarray], np.ndarray],
                           G1: FiniteGroupoid, G2: FiniteGroupoid) -> QuantumKernel:
    """Kernel of an arbitrary linear matrix map (no CP requirement).

    ``Pi((t1,s1),(t2,s2)) = m * phi_star(E_{s1 t1})[s2, t2]``; useful for
    building counterexample kernels such as the transpose map.
    """
    E1, E2 = _pair_indices(G1, G2, "matrix-map kernels")
    n, m = len(E1), len(E2)
    pi = np.zeros((n * n, m * m), dtype=complex)
    for t1 in range(n):
        for s1 in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[s1, t1] = 1.0
            pi[E1[t1, s1], E2] = m * np.asarray(phi_star(unit), dtype=complex).T
    return QuantumKernel(G1, G2, pi)


def choi_matrix(Pi: QuantumKernel) -> np.ndarray:
    """``C = sum_ij E_ij (x) Phi_*(E_ij)`` for the state-side map of Pi.

    Entrywise ``C[(i,k),(j,l)] = Pi((j,i),(l,k)) / m``, a reshuffle of the kernel.
    """
    E1, E2 = _pair_indices(Pi.g1, Pi.g2, "Choi matrices")
    n, m = len(E1), len(E2)
    blocks = Pi.pi[np.ix_(E1.ravel(), E2.ravel())].reshape(n, n, m, m)
    return blocks.transpose(1, 3, 0, 2).reshape(n * m, n * m) / m


def cp_verdict(Pi: QuantumKernel, psd_tol: float = numkit.PSD_TOL):
    """``(is_cp, min_choi_eigenvalue)`` via the Choi criterion."""
    # the Choi matrix of a hermiticity-respecting kernel is Hermitian only up
    # to numerical noise, so no asymmetry bound; the eigensolve symmetrizes
    w = numkit.hermitian_spectra(choi_matrix(Pi))
    lo = float(w[0])
    return lo >= -psd_tol * (1.0 + float(np.abs(w).max())), lo
