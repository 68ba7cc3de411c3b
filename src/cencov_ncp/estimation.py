"""Parametric state families, the Fisher metric, and the Cramer-Rao bound.

A statistical model is a one-parameter curve of states on a fixed groupoid.
The derivative functional at the base point is represented, via the GNS inner
product, by a unique vector; the squared GNS norm of that representer is the
Fisher metric, and its reciprocal is the generalized Cramer-Rao bound.  On
trivial groupoids everything reduces to the classical Fisher-Rao quantity
``sum_x (d ln p / ds)^2 p``, which is invariant under congruent embeddings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numkit
from .algebra import AlgebraElement, convolve, star
from .channels import ClassicalKernel, embed_classical, push_state
from .errors import (
    FoliumViolation,
    GroupoidMismatch,
    IntervalExceeded,
    NoConvergence,
    NotCongruent,
    NotSelfAdjoint,
    SupportBoundary,
    ZeroInformation,
)
from .gns import GnsSpace, gns_inner
from .groupoid import FiniteGroupoid, trivial_groupoid
from .states import State, classical_state, expectation


@dataclass(frozen=True)
class StatisticalModel:
    """A curve ``s -> State`` on a fixed groupoid, evaluable on an interval."""

    groupoid: FiniteGroupoid
    curve: Callable[[float], State]
    s0: float
    interval: tuple[float, float]

    def at(self, s: float) -> State:
        lo, hi = self.interval
        if not (lo <= s <= hi):
            raise IntervalExceeded(f"s = {s} outside declared interval [{lo}, {hi}]")
        rho = self.curve(s)
        if rho.groupoid != self.groupoid:
            raise GroupoidMismatch("curve returned a state on a different groupoid")
        return rho


@dataclass(frozen=True)
class Estimator:
    """A self-adjoint algebra element used to estimate the curve parameter."""

    a: AlgebraElement

    def __post_init__(self):
        dev = np.abs(star(self.a).coeff - self.a.coeff).max()
        if not numkit.within(dev, numkit.SELFADJOINT_TOL, np.abs(self.a.coeff).max()):
            raise NotSelfAdjoint(
                f"estimator is not self-adjoint (deviation {dev:.3e})"
            )


def derivative_vector(M: StatisticalModel, h: float = numkit.DEFAULT_H) -> np.ndarray:
    """Central difference of ``s -> phi_s(alpha) nu(alpha)`` per element;
    NoConvergence if it is not finite."""
    nu = M.groupoid.nu_vec
    v = (M.at(M.s0 + h).phi * nu - M.at(M.s0 - h).phi * nu) / (2.0 * h)
    if not np.isfinite(v).all():
        raise NoConvergence(f"derivative vector is not finite (h = {h})")
    return v


def riesz_representer(M: StatisticalModel, S: GnsSpace, h: float = numkit.DEFAULT_H):
    """Coordinate vector of the GNS representer of the derivative functional.

    Solves ``<l | delta_b> = v_b`` for all basis elements b, i.e.
    ``gram l = conj(v)`` with v the derivative vector; the minimum-norm
    solution on the range of the Gram matrix is ``Q Q† conj(v)`` for the
    Gram-orthonormal quotient basis Q of ``S``, solved block by block.  The
    residual measures how far the derivative leaves the folium of the base
    state; a derivative that is not finite raises NoConvergence.
    """
    if S.groupoid != M.groupoid:
        raise GroupoidMismatch("GNS space built on a different groupoid")
    v = derivative_vector(M, h=h)
    b = np.conj(v)
    ell = S.solve(b)
    residual = float(np.linalg.norm(S.apply(ell) - b))
    if not numkit.within(residual, numkit.FOLIUM_TOL, float(np.abs(v).max(initial=0.0))):
        raise FoliumViolation(f"derivative leaves the folium (residual {residual:.3e})")
    return ell, float(residual)


def fisher_metric(M: StatisticalModel, S: GnsSpace, h: float = numkit.DEFAULT_H) -> float:
    """``G_F = <l | l>`` for the Riesz representer; real part, with the
    imaginary part required to be negligible."""
    ell, _ = riesz_representer(M, S, h=h)
    val = gns_inner(S, ell, ell)
    if not numkit.within(abs(val.imag), numkit.TOL, abs(val.real)):
        raise FoliumViolation(f"Fisher metric has imaginary part {val.imag:.3e}")
    return float(val.real)


def cramer_rao_bound(M: StatisticalModel, S: GnsSpace, h: float = numkit.DEFAULT_H) -> float:
    """``1 / G_F``; raises ZeroInformation for a stationary curve."""
    gf = fisher_metric(M, S, h=h)
    if numkit.within(gf, numkit.BOUND_TOL):
        raise ZeroInformation(f"Fisher metric {gf:.3e} is numerically zero")
    return 1.0 / gf


@dataclass(frozen=True)
class UnbiasednessReport:
    deviations: dict[float, float]
    tol: float

    @property
    def passed(self) -> bool:
        return all(numkit.within(d, self.tol) for d in self.deviations.values())


def check_unbiased(M: StatisticalModel, A: Estimator,
                   grid: Sequence[float]) -> UnbiasednessReport:
    """Per-grid-point deviation ``|rho_s(A) - s|``."""
    devs = {}
    for s in grid:
        val = expectation(M.at(s), A.a)
        devs[float(s)] = abs(val - s)
    return UnbiasednessReport(deviations=devs, tol=numkit.UNBIASED_TOL)


@dataclass(frozen=True)
class CramerRaoAudit:
    second_moment: float
    bound: float
    slack: float
    saturated: bool


def cramer_rao_audit(M: StatisticalModel, A: Estimator, bound: float) -> CramerRaoAudit:
    """Compare the second moment ``rho_0(A* A)`` against the Cramer-Rao bound."""
    rho0 = M.at(M.s0)
    second = expectation(rho0, convolve(star(A.a), A.a)).real
    slack = second - bound
    return CramerRaoAudit(
        second_moment=float(second),
        bound=float(bound),
        slack=float(slack),
        saturated=bool(numkit.within(slack, numkit.SATURATION_TOL)),
    )


# ---------------------------------------------------------------------------
# classical Fisher-Rao and congruent-embedding invariance
# ---------------------------------------------------------------------------

def classical_fisher_rao(M: StatisticalModel, h: float = numkit.DEFAULT_H) -> float:
    """``sum_x (dp/ds)^2 / p`` at the base point of a model on a trivial
    groupoid, with ``dp/ds`` the units' entries of :func:`derivative_vector`."""
    G = M.groupoid
    if len(G.elements) != len(G.outcomes):
        raise GroupoidMismatch("classical Fisher-Rao needs a trivial groupoid")
    p0 = M.at(M.s0).phi[G.unit_ix].real * G.nu_vec[G.unit_ix]
    if not np.isfinite(p0).all():
        raise SupportBoundary("probability mass is not finite")
    if numkit.within(p0, numkit.P_FLOOR).any():
        raise SupportBoundary("probability mass at or below the support floor")
    dp = derivative_vector(M, h=h)[G.unit_ix].real
    return float(np.sum(dp * dp / p0))


@dataclass(frozen=True)
class CongruenceReport:
    fisher_before: float
    fisher_after: float
    deviation: float


def congruent_invariance(M: StatisticalModel, K: ClassicalKernel,
                         L: ClassicalKernel, h: float = numkit.DEFAULT_H) -> CongruenceReport:
    """Fisher-Rao before and after pushing the whole curve through K.

    K must be a congruent embedding: the caller supplies a left inverse L with
    ``K L = identity``.  Each state of the curve is pushed through
    :func:`embed_classical` of K, onto a trivial groupoid whose reference
    measure is the pushforward of the original one.
    """
    if len(K.K) != len(M.groupoid.outcomes) or L.K.shape != K.K.shape[::-1]:
        raise GroupoidMismatch(f"K {K.K.shape} and L {L.K.shape} do not fit "
                               f"{len(M.groupoid.outcomes)} outcomes, L shaped as K transposed")
    KL = K.K @ L.K
    if not numkit.within(np.abs(KL - np.eye(KL.shape[0])).max(), numkit.CONGRUENCE_TOL):
        raise NotCongruent("K has no left inverse: K L != identity")

    before = classical_fisher_rao(M, h=h)

    P2 = M.groupoid.P_vec @ K.K
    if np.any(P2 <= 0.0):
        raise NotCongruent("pushforward reference measure is not strictly positive")
    m = K.K.shape[1]
    G2 = trivial_groupoid(m, P={str(i + 1): float(P2[i]) for i in range(m)})
    Pi = embed_classical(K, M.groupoid, G2)
    pushed = StatisticalModel(groupoid=G2, curve=lambda s: push_state(M.at(s), Pi),
                              s0=M.s0, interval=M.interval)
    after = classical_fisher_rao(pushed, h=h)
    return CongruenceReport(
        fisher_before=before,
        fisher_after=after,
        deviation=abs(before - after),
    )


# ---------------------------------------------------------------------------
# ready-made model curves
# ---------------------------------------------------------------------------

def coin_model(s0: float = 0.0, half_width: float = 0.4) -> StatisticalModel:
    """The biased coin ``p_s = (1/2 + s, 1/2 - s)`` on trivial(2), uniform P."""
    G = trivial_groupoid(2)

    def curve(s: float) -> State:
        return classical_state(G, [0.5 + s, 0.5 - s])

    return StatisticalModel(groupoid=G, curve=curve, s0=s0,
                            interval=(s0 - half_width, s0 + half_width))


def qubit_z_model(s0: float = 0.0, half_width: float = 0.4) -> StatisticalModel:
    """The qubit family ``D(s) = (I + s sigma_z) / 2`` on pair(2), uniform P."""
    from .groupoid import pair_groupoid
    from .states import state_from_density

    G = pair_groupoid(2)
    sz = np.diag([1.0, -1.0])

    def curve(s: float) -> State:
        return state_from_density((np.eye(2) + s * sz) / 2.0, G)

    return StatisticalModel(groupoid=G, curve=curve, s0=s0,
                            interval=(s0 - half_width, s0 + half_width))
