"""Classical and quantum Markov kernels.

A quantum kernel is a complex function on Gamma_1 x Gamma_2 subject to three
axioms: (i) measure-weighted normalization ``sum_x Pi(a1, 1_x) nu2(1_x) = 1``
for unit a1 and 0 otherwise, (ii) positive definiteness of ``Pi(1_x, .)`` on
Gamma_2 for every unit of Gamma_1, and (iii) the delta-twisted hermiticity
``conj(Pi(a1, a2)) = delta2(a2) Pi(inv(a1), inv(a2))``.  Kernels transport
states forward and observables backward, compose associatively, contain
row-stochastic matrices as the trivial-groupoid special case, and on pair
groupoids with ``nu = 1/n`` correspond to linear maps on density matrices,
where complete positivity is decided through the Choi matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numkit
from .algebra import AlgebraElement
from .errors import (
    DimensionMismatch,
    GroupoidMismatch,
    NonTracePreserving,
    NormalizationLost,
    NotPairGroupoid,
    PositivityLost,
    RowSumViolation,
)
from .groupoid import FiniteGroupoid
from .states import State, check_state, fiber_psd_verdicts


# ---------------------------------------------------------------------------
# classical kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalKernel:
    """Row-stochastic transition matrix between finite outcome sets."""

    K: np.ndarray

    def __post_init__(self):
        M = numkit._as_array(self.K, (-1, -1), RowSumViolation, "classical kernel", float)
        if not M.shape[0]:
            raise RowSumViolation("classical kernel has no rows")
        if not np.isfinite(M).all():
            raise RowSumViolation("classical kernel has non-finite entries")
        if not numkit.within(-M, numkit.STOCHASTIC_TOL).all():
            raise RowSumViolation("classical kernel has negative entries")
        dev = np.abs(M.sum(axis=1) - 1.0).max()
        if not numkit.within(dev, numkit.STOCHASTIC_TOL):
            raise RowSumViolation(f"row sums deviate by {dev:.3e}")
        object.__setattr__(self, "K", M.copy())  # read-only, and not the caller's
        self.K.flags.writeable = False


# ---------------------------------------------------------------------------
# quantum kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumKernel:
    """Kernel function stored as a |Gamma_1| x |Gamma_2| complex array; only
    the shape is checked, and a complex ``pi`` is kept as given, the caller's array."""

    g1: FiniteGroupoid
    g2: FiniteGroupoid
    pi: np.ndarray

    def __post_init__(self):
        shape = (len(self.g1.elements), len(self.g2.elements))
        object.__setattr__(self, "pi", numkit._as_array(self.pi, shape, GroupoidMismatch, "pi"))


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


def validate_kernel(Pi: QuantumKernel, tol: float = numkit.TOL) -> KernelReport:
    """Check the three kernel axioms and report the deficits; NotHermitian,
    before any arithmetic, if an entry of the kernel is not finite."""
    G1, G2 = Pi.g1, Pi.g2
    numkit._finite(Pi.pi)

    # (i) sum_x Pi(a1, 1_x) nu2(1_x) = [a1 is a unit]
    want = (G1.unit_ix[G1.src] == np.arange(len(G1.elements))).astype(float)
    norm_dev = float(np.abs(Pi.pi[:, G2.unit_ix] @ G2.nu_vec[G2.unit_ix] - want).max())

    # (ii) Pi(1_x, .) positive definite on Gamma_2, for every unit of Gamma_1
    pos = [fiber_psd_verdicts(G2, Pi.pi[u], tol, np.abs(Pi.pi[u]).max())
           for u in G1.unit_ix]
    pos_min = {x1: float(lo.min()) for x1, (_, lo) in zip(G1.outcomes, pos)}

    # (iii) conj(Pi(a1,a2)) = delta2(a2) Pi(inv(a1), inv(a2))
    herm_dev = float(np.abs(
        Pi.pi.conj() - G2.delta_vec * Pi.pi[np.ix_(G1.inv_ix, G2.inv_ix)]
    ).max(initial=0.0))

    size = float(np.abs(Pi.pi).max(initial=0.0))
    return KernelReport(
        normalization_deficit=norm_dev,
        positivity_min_eigenvalue=pos_min,
        hermiticity_deficit=herm_dev,
        normalization_ok=numkit.within(norm_dev, tol, size),
        positivity_ok=all(ok.all() for ok, _ in pos),
        hermiticity_ok=numkit.within(herm_dev, tol, size),
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


def push_state_report(phi1: State, Pi: QuantumKernel, tol: float = numkit.TOL):
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
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan entry, no warning
        pi = (Pi12.pi * Pi12.g2.nu_vec) @ Pi23.pi
    return QuantumKernel(Pi12.g1, Pi23.g2, pi)


def embed_classical(K: ClassicalKernel, G1: FiniteGroupoid,
                    G2: FiniteGroupoid) -> QuantumKernel:
    """Embed a row-stochastic matrix between trivial groupoids:
    ``Pi(1_x, 1_y) = K[x, y] / nu2(1_y)``."""
    for G in (G1, G2):
        if len(G.elements) != len(G.outcomes):
            raise GroupoidMismatch("classical embedding needs trivial groupoids")
    if K.K.shape != (len(G1.outcomes), len(G2.outcomes)):
        raise GroupoidMismatch("stochastic matrix shape does not match outcome sets")
    pi = np.zeros((len(G1.elements), len(G2.elements)), dtype=complex)
    pi[np.ix_(G1.unit_ix, G2.unit_ix)] = K.K / G2.nu_vec[G2.unit_ix]
    return QuantumKernel(G1, G2, pi)


def check_ncp_morphism(Pi: QuantumKernel, rho1: State, rho2: State,
                       tol: float = numkit.TOL) -> bool:
    """True iff Pi maps rho1 to rho2, i.e. is a morphism of state couples."""
    if rho1.groupoid != Pi.g1 or rho2.groupoid != Pi.g2:
        raise GroupoidMismatch("state groupoids do not match kernel")
    pushed = push_state_report(rho1, Pi, tol)[0]
    return bool(numkit.within(np.abs(pushed.phi - rho2.phi).max(), tol, np.abs(rho2.phi).max()))


# ---------------------------------------------------------------------------
# completely positive maps on pair groupoids with nu = 1/n
# ---------------------------------------------------------------------------

def kernel_to_cp_map(Pi: QuantumKernel) -> Callable[[np.ndarray], np.ndarray]:
    """State-side (predual) linear map on n x n matrices induced by the kernel,
    ``Phi_*(D)[k,l] = sum_ij D[i,j] C[(i,k),(j,l)]`` with C its Choi matrix: the
    density dictionary conjugation of :func:`push_phi`, extended by linearity.
    """
    n, m = len(Pi.g1.outcomes), len(Pi.g2.outcomes)
    C = choi_matrix(Pi).reshape(n, m, n, m)

    def phi_star(D: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ikjl->kl", numkit._as_array(D, (n, n), GroupoidMismatch, "matrix"), C)

    return phi_star


def completeness_deficit(kraus: Sequence[np.ndarray]) -> float:
    """``max |sum_k A_k† A_k - I|``, zero for a trace-preserving Kraus family:
    nonempty matrices of one shape, in a non-empty list or an ``(r, m, n)``
    stack, which may be empty, with sum 0.  DimensionMismatch on other input."""
    A = numkit._as_array(kraus, (-1, -1, -1), DimensionMismatch, "Kraus family")
    if 0 in A.shape[1:]:
        raise DimensionMismatch("Kraus operators must be nonempty matrices of one shape")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan deficit, no warning
        total = sum(a.conj().T @ a for a in A)
    return float(np.abs(total - np.eye(A.shape[-1])).max())


def _choi_index(G1: FiniteGroupoid, G2: FiniteGroupoid, what: str):
    """``(K, n, m)``: ``K[(i,k),(j,l)]`` is the flat index of the kernel entry
    at ``((j,i),(l,k))``, so ``pi.ravel()[K] / m`` is the Choi matrix.  A
    missing pair structure on either side comes before nu != 1/n."""
    if G1.pair_grid is None or G2.pair_grid is None:
        raise NotPairGroupoid(f"{what} need pair groupoids")
    E1, E2 = G1.pair_index, G2.pair_index
    n, m = len(E1), len(E2)
    K = E1.T[:, None, :, None] * (m * m) + E2.T[None, :, None, :]
    return K.reshape(n * m, n * m), n, m


def _from_choi(C: np.ndarray, K: np.ndarray, G1: FiniteGroupoid,
               G2: FiniteGroupoid) -> QuantumKernel:
    """The kernel of the Choi matrix C: the inverse reshuffle, ``pi[K] = m C``."""
    pi = np.empty(C.size, dtype=complex)
    pi[K] = len(G2.outcomes) * C
    return QuantumKernel(G1, G2, pi.reshape(len(G1.elements), len(G2.elements)))


def choi_to_kernel(kraus: Sequence[np.ndarray], G1: FiniteGroupoid,
                   G2: FiniteGroupoid, tol: float = numkit.TOL) -> QuantumKernel:
    """Kernel of the channel ``D -> sum_a A_a D A_a†`` between pair groupoids
    with nu = 1/n: the inverse reshuffle of its Choi matrix,
    ``Pi((j,i),(l,k)) = m * sum_a A_a[k,i] conj(A_a[l,j])``.
    """
    K, n, m = _choi_index(G1, G2, "Kraus kernels")
    A = [numkit._as_array(a, (m, n), GroupoidMismatch, "Kraus operator") for a in kraus]
    A = np.reshape(A, (len(A), m, n))  # of shape (0, m, n) for an empty family
    dev = completeness_deficit(A)
    if not numkit.within(dev, tol):
        raise NonTracePreserving(f"sum A†A deviates from identity by {dev:.3e}")
    return _from_choi(np.einsum("aki,alj->ikjl", A, np.conj(A)).reshape(K.shape), K, G1, G2)


def kernel_from_matrix_map(phi_star: Callable[[np.ndarray], np.ndarray],
                           G1: FiniteGroupoid, G2: FiniteGroupoid) -> QuantumKernel:
    """Kernel of an arbitrary linear matrix map (no CP requirement), from its
    Choi matrix ``C[(i,k),(j,l)] = phi_star(E_ij)[k,l]``; useful for building
    counterexample kernels such as the transpose map.
    """
    K, n, m = _choi_index(G1, G2, "matrix-map kernels")
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)  # E_ij at i * n + j
    images = [numkit._as_array(phi_star(E), (m, m), GroupoidMismatch, "matrix map image")
              for E in units]
    images = np.reshape(images, (n, n, m, m))
    return _from_choi(images.transpose(0, 2, 1, 3).reshape(K.shape), K, G1, G2)


def choi_matrix(Pi: QuantumKernel) -> np.ndarray:
    """``C = sum_ij E_ij (x) Phi_*(E_ij)`` for the state-side map of Pi.

    Entrywise ``C[(i,k),(j,l)] = Pi((j,i),(l,k)) / m``, a reshuffle of the kernel.
    """
    K, _, m = _choi_index(Pi.g1, Pi.g2, "Choi matrices")
    return Pi.pi.ravel()[K] / m


def cp_verdict(Pi: QuantumKernel, tol: float = numkit.TOL) -> tuple[bool, float]:
    """``(is_cp, min_choi_eigenvalue)`` via the Choi criterion: the
    :func:`numkit.psd_verdicts` of the Choi matrix, so a Choi matrix that is
    not Hermitian is not CP and has least eigenvalue -inf; NotHermitian,
    before any arithmetic, if an entry of the kernel is not finite."""
    numkit._finite(Pi.pi)
    (ok,), (lo,) = numkit.psd_verdicts(choi_matrix(Pi)[None], tol)
    return bool(ok), float(lo)
