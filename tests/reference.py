"""Loop implementations of the groupoid formulas, kept as test oracles.

These are the string-keyed, element-by-element versions of the library's
array code: the groupoid axioms, the modular function, the standard
constructions built as string tables (pair, trivial, group, disjoint union
and product groupoids), fiber Gram matrices, the state check and the kernel
axioms with one eigensolve per target fiber, the density check,
convolution, involution, the regular representation, the GNS Gram matrix,
the density-matrix dictionary, Kraus kernels and the Choi matrix; the dense
GNS construction (one eigensolve of the whole Gram matrix) and its Fisher
metric and Cramer-Rao bound, which ``gns`` replaced by per-fiber blocks; the
single-matrix Hermitian eigensolver, PSD verdict and numerical rank; the
spectral minimum-norm solve that the Riesz representer in ``estimation``
replaced by its projection onto the GNS quotient basis; the two scipy
``CubicSpline`` fits that model files were interpolated with before
``fileio`` had its own cubic; ``fileio``'s indented writer and the tables it
was given, which the one-line writer replaced; a groupoid writer that lists
the compose rows by loops over the elements; and the table decoder through
Python lists, which the ``np.fromiter`` decoder replaced.  The groupoid
oracles read a ``FiniteGroupoid`` only through :func:`label_tables`, its
string tables read from the arrays by loops (``validate`` fills in the index
arrays by loops, only to construct its result), so the property tests in
``test_reference.py`` compare two independent implementations of each formula.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from cencov_ncp import numkit
from cencov_ncp.algebra import AlgebraElement
from cencov_ncp.channels import KernelReport, QuantumKernel
from cencov_ncp.errors import (
    AssociativityViolation,
    BadMeasure,
    BadWeight,
    CoherenceViolation,
    DegenerateState,
    DimensionMismatch,
    FoliumViolation,
    GroupoidMismatch,
    HomomorphismViolation,
    InvalidDensity,
    InverseViolation,
    NonTracePreserving,
    NoConvergence,
    NonUniformP,
    NotAGroup,
    NotHermitian,
    NotPairGroupoid,
    NotSquare,
    SchemaError,
    UnitViolation,
    ZeroInformation,
)
from cencov_ncp.fileio import FMT
from cencov_ncp.groupoid import FiniteGroupoid, GroupoidSpec
from cencov_ncp.numkit import BOUND_TOL, DEFAULT_H, FOLIUM_TOL
from cencov_ncp.states import DensityMatrix, State, StateReport, make_state

KERNEL_TOL = 1e-9
MEASURE_TOL = numkit.TOL
NORM_TOL = 1e-9


# ---------------------------------------------------------------------------
# the string tables of a groupoid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelTables:
    """A groupoid's tables keyed by label, each a new dict: ``compose`` maps
    every composable pair ``(beta, alpha)`` to ``beta o alpha``, in canonical
    order; ``nu`` and ``delta`` are the groupoid's ``nu_vec`` and ``delta_vec``."""

    source: dict[str, str]
    target: dict[str, str]
    inverse: dict[str, str]
    units: dict[str, str]
    compose: dict[tuple[str, str], str]
    P: dict[str, float]
    fiber_weight: dict[str, float]
    nu: dict[str, float]
    delta: dict[str, float]


def label_tables(G: FiniteGroupoid) -> LabelTables:
    """The string tables of G, read from its arrays by loops; ``compose_ix``
    lists ``b o a`` for each b, then each a of the target fiber of s(b), in
    element order."""
    e, o = G.elements, G.outcomes
    source = {a: o[i] for a, i in zip(e, G.src.tolist())}
    target = {a: o[i] for a, i in zip(e, G.tgt.tolist())}
    fiber = {x: [a for a in e if target[a] == x] for x in o}
    products = iter(G.compose_ix.tolist())
    return LabelTables(
        source=source, target=target,
        inverse={a: e[i] for a, i in zip(e, G.inv_ix.tolist())},
        units={x: e[i] for x, i in zip(o, G.unit_ix.tolist())},
        compose={(b, a): e[next(products)] for b in e for a in fiber[source[b]]},
        P=dict(zip(o, G.P_vec.tolist())),
        fiber_weight=dict(zip(e, G.weight_vec.tolist())),
        nu=dict(zip(e, G.nu_vec.tolist())),
        delta=dict(zip(e, G.delta_vec.tolist())))


# ---------------------------------------------------------------------------
# groupoid axioms and the modular function
# ---------------------------------------------------------------------------

def _check_measure(outcomes: Sequence[str], P: Mapping[str, float]) -> None:
    for x in outcomes:
        if x not in P:
            raise BadMeasure(f"P missing outcome {x!r}")
        if not (P[x] > 0.0) or not math.isfinite(P[x]):
            raise BadMeasure(f"P({x!r}) = {P[x]} is not strictly positive")
    total = sum(P[x] for x in outcomes)
    if abs(total - 1.0) > MEASURE_TOL:
        raise BadMeasure(f"P sums to {total}, expected 1")


def validate(spec: GroupoidSpec) -> FiniteGroupoid:
    """Check every groupoid axiom on the raw tables and return the groupoid.

    Raises the violation class matching the first defect found; the check
    order is measure, table well-formedness, units, coherence, inverses,
    associativity, fiber weights.
    """
    outcomes = tuple(spec.outcomes)
    elements = tuple(spec.elements)
    _check_measure(outcomes, spec.P)

    oset, eset = set(outcomes), set(elements)
    if len(oset) != len(outcomes) or len(eset) != len(elements):
        raise SchemaError("duplicate outcome or element ids")
    for a in elements:
        for table, name, domain in (
            (spec.source, "source", oset),
            (spec.target, "target", oset),
            (spec.inverse, "inverse", eset),
        ):
            if a not in table:
                raise SchemaError(f"{name} table missing element {a!r}")
            if table[a] not in domain:
                raise SchemaError(f"{name}[{a!r}] references undeclared id")
    for row in spec.compose:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise SchemaError(f"compose entry {row!r} is not a (beta, alpha, beta o alpha) row")
        b, a, g = row
        if b not in eset or a not in eset or g not in eset:
            raise SchemaError(f"compose entry ({b!r},{a!r}) references undeclared id")
    for x in outcomes:
        if x not in spec.units or spec.units[x] not in eset:
            raise SchemaError(f"units table missing outcome {x!r}")
    comp = {(b, a): g for b, a, g in spec.compose}
    listed = Counter((b, a) for b, a, _ in spec.compose)
    for b in elements:
        for a in elements:
            if listed[(b, a)] > 1:
                raise SchemaError(f"compose pair ({b!r},{a!r}) is listed twice")

    s, t, inv = spec.source, spec.target, spec.inverse
    units = spec.units

    # units act as identities on both sides
    for x in outcomes:
        u = units[x]
        if s[u] != x or t[u] != x:
            raise UnitViolation(f"unit {u!r} of {x!r} is not an endo-transition")
    for a in elements:
        if comp.get((a, units[s[a]])) != a:
            raise UnitViolation(f"compose({a!r}, unit of source) != {a!r}")
        if comp.get((units[t[a]], a)) != a:
            raise UnitViolation(f"compose(unit of target, {a!r}) != {a!r}")

    # definedness and source/target coherence
    for b in elements:
        for a in elements:
            defined = (b, a) in comp
            if defined != (t[a] == s[b]):
                raise CoherenceViolation(
                    f"compose({b!r},{a!r}) definedness disagrees with t/s match"
                )
            if defined:
                g = comp[(b, a)]
                if s[g] != s[a] or t[g] != t[b]:
                    raise CoherenceViolation(
                        f"compose({b!r},{a!r}) = {g!r} breaks source/target coherence"
                    )

    # inverses
    for a in elements:
        ia = inv[a]
        if comp.get((ia, a)) != units[s[a]] or comp.get((a, ia)) != units[t[a]]:
            raise InverseViolation(f"inverse law fails for {a!r}")

    # associativity on all doubly-composable triples
    for (c, b), cb in comp.items():
        for a in elements:
            if t[a] != s[b]:
                continue
            ba = comp[(b, a)]
            left = comp.get((cb, a))
            right = comp.get((c, ba))
            if left is None or right is None or left != right:
                raise AssociativityViolation(
                    f"(({c!r} o {b!r}) o {a!r}) != ({c!r} o ({b!r} o {a!r}))"
                )

    weights = dict(spec.fiber_weight) if spec.fiber_weight else {a: 1.0 for a in elements}
    for a in elements:
        w = weights.get(a)
        if w is None or not (w > 0.0) or not math.isfinite(w):
            raise BadWeight(f"fiber weight of {a!r} must be a positive number")
    # left invariance of the Haar system: w(alpha o beta) = w(beta)
    for (b, a), g in comp.items():
        if abs(weights[g] - weights[a]) > MEASURE_TOL * (1.0 + abs(weights[a])):
            raise BadWeight(
                f"fiber weights are not left-invariant at compose({b!r},{a!r})"
            )

    oix = {x: i for i, x in enumerate(outcomes)}
    eix = {a: i for i, a in enumerate(elements)}
    # one entry per composable pair: b o a for the a of the target fiber of
    # s(b), row b after row b-1
    C = [eix[comp[(b, a)]] for b in elements for a in elements if t[a] == s[b]]
    return FiniteGroupoid(
        elements=elements,
        outcomes=outcomes,
        src=np.array([oix[s[a]] for a in elements], dtype=np.intp),
        tgt=np.array([oix[t[a]] for a in elements], dtype=np.intp),
        inv_ix=np.array([eix[inv[a]] for a in elements], dtype=np.intp),
        unit_ix=np.array([eix[units[x]] for x in outcomes], dtype=np.intp),
        compose_ix=C,
        P_vec=np.array([spec.P[x] for x in outcomes], dtype=float),
        weight_vec=np.array([weights[a] for a in elements], dtype=float),
    )


def modular_function(G: FiniteGroupoid) -> dict[str, float]:
    """The modular map delta, verified to be a groupoid homomorphism."""
    T = label_tables(G)
    delta = T.delta
    for x in G.outcomes:
        u = T.units[x]
        if abs(delta[u] - 1.0) > MEASURE_TOL:
            raise HomomorphismViolation(f"delta(unit of {x!r}) != 1")
    for b, a, g in G.composable_pairs:
        if abs(delta[g] - delta[b] * delta[a]) > MEASURE_TOL * (1.0 + abs(delta[g])):
            raise HomomorphismViolation(
                f"delta is not multiplicative on compose({b!r},{a!r})"
            )
    return delta


def pair_structure(G: FiniteGroupoid) -> Optional[dict[tuple[str, str], str]]:
    """Map ``(target, source) -> element`` when G is a pair groupoid, else None."""
    n = len(G.outcomes)
    if len(G.elements) != n * n:
        return None
    table: dict[tuple[str, str], str] = {}
    T = label_tables(G)
    for a in G.elements:
        key = (T.target[a], T.source[a])
        if key in table:
            return None
        table[key] = a
    return table


def has_uniform_nu(G: FiniteGroupoid, tol: float = MEASURE_TOL) -> bool:
    """``nu(a) = 1/n`` on every element: uniform P and unit fiber weights."""
    n, nu = len(G.outcomes), label_tables(G).nu
    return all(abs(nu[a] - 1.0 / n) <= tol for a in G.elements)


# ---------------------------------------------------------------------------
# standard constructions, built as string tables and checked by ``validate``
# ---------------------------------------------------------------------------

def _uniform(outcomes: Sequence[str]) -> dict[str, float]:
    n = len(outcomes)
    return {x: 1.0 / n for x in outcomes}


def pair_groupoid(n: int, P: Optional[Mapping[str, float]] = None) -> FiniteGroupoid:
    """The pair groupoid on n outcomes: element ``(y,x)`` is the transition x -> y."""
    if n < 1:
        raise BadMeasure("need at least one outcome")
    outcomes = [str(i + 1) for i in range(n)]
    elements = [f"({y},{x})" for y in outcomes for x in outcomes]
    source = {f"({y},{x})": x for y in outcomes for x in outcomes}
    target = {f"({y},{x})": y for y in outcomes for x in outcomes}
    inverse = {f"({y},{x})": f"({x},{y})" for y in outcomes for x in outcomes}
    compose = [(f"({z},{y})", f"({y},{x})", f"({z},{x})")
               for z in outcomes for y in outcomes for x in outcomes]
    units = {x: f"({x},{x})" for x in outcomes}
    return validate(GroupoidSpec(
        outcomes=outcomes, elements=elements, source=source, target=target,
        inverse=inverse, compose=compose, units=units,
        P=dict(P) if P else _uniform(outcomes),
    ))


def trivial_groupoid(n: int, P: Optional[Mapping[str, float]] = None) -> FiniteGroupoid:
    """The trivial groupoid on n outcomes: units only (classical probability)."""
    if n < 1:
        raise BadMeasure("need at least one outcome")
    outcomes = [str(i + 1) for i in range(n)]
    elements = [f"1_{x}" for x in outcomes]
    return validate(GroupoidSpec(
        outcomes=outcomes, elements=elements,
        source={f"1_{x}": x for x in outcomes},
        target={f"1_{x}": x for x in outcomes},
        inverse={f"1_{x}": f"1_{x}" for x in outcomes},
        compose=[(f"1_{x}", f"1_{x}", f"1_{x}") for x in outcomes],
        units={x: f"1_{x}" for x in outcomes},
        P=dict(P) if P else _uniform(outcomes),
    ))


def group_groupoid(table: Mapping[tuple[str, str], str],
                   labels: Sequence[str]) -> FiniteGroupoid:
    """A finite group viewed as a one-outcome groupoid; NotAGroup when the
    table is not a group multiplication table."""
    labels = list(labels)
    lset = set(labels)
    for g in labels:
        for h in labels:
            if table.get((g, h)) not in lset:
                raise NotAGroup(f"product of {g!r} and {h!r} missing or out of range")
    identity = None
    for e in labels:
        if all(table[(e, g)] == g and table[(g, e)] == g for g in labels):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    inverse = {}
    for g in labels:
        invs = [h for h in labels if table[(g, h)] == identity and table[(h, g)] == identity]
        if not invs:
            raise NotAGroup(f"{g!r} has no inverse")
        inverse[g] = invs[0]
    for a in labels:
        for b in labels:
            for c in labels:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    raise NotAGroup("multiplication table is not associative")
    o = "*"
    return validate(GroupoidSpec(
        outcomes=[o], elements=labels,
        source={g: o for g in labels}, target={g: o for g in labels},
        inverse=inverse, compose=[(g, h, gh) for (g, h), gh in table.items()],
        units={o: identity},
        P={o: 1.0},
    ))


def disjoint_union(G1: FiniteGroupoid, G2: FiniteGroupoid, w: float) -> FiniteGroupoid:
    """Disjoint union, with P re-normalized by the mixing weight w in (0,1)."""
    if not (0.0 < w < 1.0):
        raise BadWeight(f"mixing weight {w} not in (0,1)")

    def l(x: str) -> str:
        return f"1:{x}"

    def r(x: str) -> str:
        return f"2:{x}"

    T1, T2 = label_tables(G1), label_tables(G2)
    outcomes = [l(x) for x in G1.outcomes] + [r(x) for x in G2.outcomes]
    elements = [l(a) for a in G1.elements] + [r(a) for a in G2.elements]
    source = {l(a): l(T1.source[a]) for a in G1.elements}
    source.update({r(a): r(T2.source[a]) for a in G2.elements})
    target = {l(a): l(T1.target[a]) for a in G1.elements}
    target.update({r(a): r(T2.target[a]) for a in G2.elements})
    inverse = {l(a): l(T1.inverse[a]) for a in G1.elements}
    inverse.update({r(a): r(T2.inverse[a]) for a in G2.elements})
    compose = [(l(b), l(a), l(g)) for (b, a), g in T1.compose.items()]
    compose += [(r(b), r(a), r(g)) for (b, a), g in T2.compose.items()]
    units = {l(x): l(T1.units[x]) for x in G1.outcomes}
    units.update({r(x): r(T2.units[x]) for x in G2.outcomes})
    P = {l(x): w * T1.P[x] for x in G1.outcomes}
    P.update({r(x): (1.0 - w) * T2.P[x] for x in G2.outcomes})
    weights = {l(a): T1.fiber_weight[a] for a in G1.elements}
    weights.update({r(a): T2.fiber_weight[a] for a in G2.elements})
    return validate(GroupoidSpec(
        outcomes=outcomes, elements=elements, source=source, target=target,
        inverse=inverse, compose=compose, units=units, P=P, fiber_weight=weights,
    ))


def product(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    """Componentwise product groupoid with P = P1 (x) P2."""

    def po(x: str, y: str) -> str:
        return f"{x}*{y}"

    T1, T2 = label_tables(G1), label_tables(G2)
    outcomes = [po(x, y) for x in G1.outcomes for y in G2.outcomes]
    elements = [po(a, b) for a in G1.elements for b in G2.elements]
    source = {po(a, b): po(T1.source[a], T2.source[b])
              for a in G1.elements for b in G2.elements}
    target = {po(a, b): po(T1.target[a], T2.target[b])
              for a in G1.elements for b in G2.elements}
    inverse = {po(a, b): po(T1.inverse[a], T2.inverse[b])
               for a in G1.elements for b in G2.elements}
    compose = [(po(b1, b2), po(a1, a2), po(g1, g2))
               for (b1, a1), g1 in T1.compose.items()
               for (b2, a2), g2 in T2.compose.items()]
    units = {po(x, y): po(T1.units[x], T2.units[y])
             for x in G1.outcomes for y in G2.outcomes}
    P = {po(x, y): T1.P[x] * T2.P[y] for x in G1.outcomes for y in G2.outcomes}
    weights = {po(a, b): T1.fiber_weight[a] * T2.fiber_weight[b]
               for a in G1.elements for b in G2.elements}
    return validate(GroupoidSpec(
        outcomes=outcomes, elements=elements, source=source, target=target,
        inverse=inverse, compose=compose, units=units, P=P, fiber_weight=weights,
    ))


# ---------------------------------------------------------------------------
# algebra, states, GNS
# ---------------------------------------------------------------------------


def fiber_gram(G: FiniteGroupoid, phi: np.ndarray, x: str) -> np.ndarray:
    """Gram matrix ``phi(inv(a_k) o a_l)`` over the target fiber of x."""
    T = label_tables(G)
    fiber = [a for a in G.elements if T.target[a] == x]
    M = np.zeros((len(fiber), len(fiber)), dtype=complex)
    for k, ak in enumerate(fiber):
        for l, al in enumerate(fiber):
            g = T.compose.get((T.inverse[ak], al))
            M[k, l] = phi[G.index[g]]
    return M


def check_state(phi, G: FiniteGroupoid, tol: float = NORM_TOL) -> StateReport:
    """Report positive definiteness, normalization, and hermitian symmetry,
    deciding one target fiber at a time."""
    v = np.asarray(phi, dtype=complex).reshape(-1)
    if v.shape[0] != len(G.elements):
        raise GroupoidMismatch("phi length does not match groupoid")

    fiber_min: dict[str, float] = {}
    psd_ok = True
    for x in G.outcomes:
        M = fiber_gram(G, v, x)
        herm_dev = float(np.abs(M - M.conj().T).max()) if M.size else 0.0
        scale = 1.0 + (float(np.abs(M).max()) if M.size else 0.0)
        if herm_dev > tol * scale:
            psd_ok = False
            fiber_min[x] = float("-inf")
            continue
        ok, lo = psd_verdict(M, psd_tol=tol, eig_tol=tol)
        fiber_min[x] = lo
        psd_ok = psd_ok and ok

    T = label_tables(G)
    norm_deficit = abs(sum(v[G.index[u]] * T.nu[u] for u in T.units.values()) - 1.0)
    sym_deficit = max(abs(v[G.index[T.inverse[a]]] - np.conj(v[G.index[a]])) for a in G.elements)
    return StateReport(
        fiber_min_eigenvalue=fiber_min,
        normalization_deficit=float(norm_deficit),
        symmetry_deficit=float(sym_deficit),
        psd_ok=psd_ok,
        normalization_ok=norm_deficit <= tol,
        symmetry_ok=sym_deficit <= tol,
    )


def make_density(D, tol: float = NORM_TOL) -> DensityMatrix:
    M = np.asarray(D, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidDensity("density matrix must be square")
    if np.abs(M - M.conj().T).max() > tol * (1.0 + np.abs(M).max()):
        raise InvalidDensity("density matrix is not Hermitian")
    ok, lo = psd_verdict(M, psd_tol=tol, eig_tol=tol)
    if not ok:
        raise InvalidDensity(f"density matrix has negative eigenvalue {lo:.3e}")
    if abs(np.trace(M).real - 1.0) > tol:
        raise InvalidDensity(f"density matrix trace is {np.trace(M).real}")
    return DensityMatrix(M.copy())


def _same_groupoid(a: AlgebraElement, b: AlgebraElement) -> FiniteGroupoid:
    if a.groupoid != b.groupoid:
        raise GroupoidMismatch("algebra elements live on different groupoids")
    return a.groupoid


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product pinned down by ``left_regular_rep(a.b) = lambda(a) lambda(b)``."""
    G = _same_groupoid(a, b)
    idx = G.index
    c = np.zeros(len(G.elements), dtype=complex)
    for beta, alpha, gamma in G.composable_pairs:
        c[idx[gamma]] += a.coeff[idx[beta]] * b.coeff[idx[alpha]]
    return AlgebraElement(G, c)


def star(a: AlgebraElement) -> AlgebraElement:
    """Involution: ``a*(alpha) = conj(a(inv(alpha))) / delta(alpha)``."""
    G = a.groupoid
    T = label_tables(G)
    c = np.zeros(len(G.elements), dtype=complex)
    for alpha in G.elements:
        c[G.index[alpha]] = np.conj(a.coeff[G.index[T.inverse[alpha]]]) / T.delta[alpha]
    return AlgebraElement(G, c)


def left_regular_rep(a: AlgebraElement) -> np.ndarray:
    """Matrix of the bounded operator lambda(a) on l2(Gamma, nu).

    ``M[beta, gamma] = a(beta o inv(gamma)) * delta^(1/2)(beta o inv(gamma))``
    when source(gamma) = source(beta), zero otherwise; canonical element order.
    """
    G = a.groupoid
    n = len(G.elements)
    M = np.zeros((n, n), dtype=complex)
    idx, T = G.index, label_tables(G)
    for beta in G.elements:
        for gamma in G.elements:
            if T.source[gamma] != T.source[beta]:
                continue
            alpha = T.compose.get((beta, T.inverse[gamma]))
            M[idx[beta], idx[gamma]] = (
                a.coeff[idx[alpha]] * math.sqrt(T.delta[alpha])
            )
    return M




def gram_matrix(rho: State) -> np.ndarray:
    """``gram[a, b] = rho(star(delta_a) . delta_b)`` in canonical order.

    Closed form: ``[t(a) = t(b)] phi(inv(a) o b) nu(inv(a) o b) / delta(a)``.
    """
    G = rho.groupoid
    n = len(G.elements)
    M = np.zeros((n, n), dtype=complex)
    T = label_tables(G)
    for a in G.elements:
        ia = G.index[a]
        for b in G.elements:
            if T.target[a] != T.target[b]:
                continue
            g = T.compose.get((T.inverse[a], b))
            M[ia, G.index[b]] = rho.phi[G.index[g]] * T.nu[g] / T.delta[a]
    return M




@dataclass(frozen=True)
class DenseGns:
    """Gram matrix, Gelfand-ideal basis, and quotient basis for a state."""

    gram: np.ndarray            # |Gamma| x |Gamma|, Hermitian PSD
    gram_eigenvalues: np.ndarray
    ideal_basis: np.ndarray     # |Gamma| x (|Gamma| - dim), columns
    quotient_basis: np.ndarray  # |Gamma| x dim, columns, Gram-orthonormal
    dim: int


def build_gns(rho0: State, rank_tol: float = numkit.TOL) -> DenseGns:
    """Assemble the dense Gram matrix, eigendecompose it in one piece and split
    it spectrally at ``rank_tol * lam_max``."""
    gram = gram_matrix(rho0)
    res = hermitian_eigen(gram, eig_tol=np.inf)
    w, V = res.eigenvalues, res.eigenvectors
    lam_max = float(np.abs(w).max()) if w.size else 0.0
    if lam_max <= 0.0:
        raise DegenerateState("Gram matrix is numerically zero")
    keep = w > rank_tol * lam_max
    return DenseGns(gram=gram, gram_eigenvalues=w, ideal_basis=V[:, ~keep],
                    quotient_basis=V[:, keep] / np.sqrt(w[keep]),
                    dim=int(np.count_nonzero(keep)))


def fisher_metric(M, S: DenseGns, h: float = DEFAULT_H) -> float:
    """``<l|l>`` for the dense Riesz representer ``l = Q Q† conj(v)``, v the
    central difference of ``phi_s nu``; FoliumViolation past the folium
    residual bound or for a non-negligible imaginary part."""
    nu = M.groupoid.nu_vec
    v = (M.at(M.s0 + h).phi * nu - M.at(M.s0 - h).phi * nu) / (2.0 * h)
    Q, b = S.quotient_basis, np.conj(v)
    ell = Q @ (Q.conj().T @ b)
    residual = float(np.linalg.norm(S.gram @ ell - b))
    if residual > FOLIUM_TOL * (1.0 + float(np.abs(v).max(initial=0.0))):
        raise FoliumViolation(f"derivative leaves the folium (residual {residual:.3e})")
    val = complex(ell.conj() @ S.gram @ ell)
    if abs(val.imag) > 1e-9 * (1.0 + abs(val.real)):
        raise FoliumViolation(f"Fisher metric has imaginary part {val.imag:.3e}")
    return float(val.real)


def cramer_rao_bound(M, S: DenseGns, h: float = DEFAULT_H) -> float:
    gf = fisher_metric(M, S, h)
    if gf <= BOUND_TOL:
        raise ZeroInformation(f"Fisher metric {gf:.3e} is numerically zero")
    return 1.0 / gf


def _pair_dictionary(G: FiniteGroupoid):
    table = pair_structure(G)
    if table is None:
        raise NotPairGroupoid("density dictionary needs a pair groupoid")
    if not has_uniform_nu(G):
        raise NonUniformP("density dictionary needs nu = 1/n")
    oidx = {x: i for i, x in enumerate(G.outcomes)}
    return table, oidx


def density_from_state(rho: State) -> DensityMatrix:
    """``D[s, t] = phi(element (t,s)) / n`` on a pair groupoid with nu = 1/n.

    Indexing: the pair element ``(t, s)`` is the transition s -> t and carries
    the matrix entry ``D[s, t]`` (this is the unique orientation for which the
    algebra expectation becomes ``Tr(D A)``).
    """
    G = rho.groupoid
    table, oidx = _pair_dictionary(G)
    n = len(G.outcomes)
    D = np.zeros((n, n), dtype=complex)
    for (t, s), elem in table.items():
        D[oidx[s], oidx[t]] = rho.phi[G.index[elem]] / n
    return make_density(D)


def state_from_density(D: DensityMatrix | np.ndarray, G: FiniteGroupoid) -> State:
    """Inverse dictionary: ``phi(element t<-s) = n * D[s, t]``."""
    M = D.matrix if isinstance(D, DensityMatrix) else np.asarray(D, dtype=complex)
    M = make_density(M).matrix
    table, oidx = _pair_dictionary(G)
    n = len(G.outcomes)
    if M.shape[0] != n:
        raise GroupoidMismatch("density matrix size does not match outcome count")
    phi = np.zeros(len(G.elements), dtype=complex)
    for (t, s), elem in table.items():
        phi[G.index[elem]] = n * M[oidx[s], oidx[t]]
    return make_state(G, phi)


def phi_from_density_unchecked(M: np.ndarray, G: FiniteGroupoid) -> np.ndarray:
    """Linear (unvalidated) half of the dictionary, for linear extensions."""
    table, oidx = _pair_dictionary(G)
    n = len(G.outcomes)
    phi = np.zeros(len(G.elements), dtype=complex)
    for (t, s), elem in table.items():
        phi[G.index[elem]] = n * M[oidx[s], oidx[t]]
    return phi


def density_from_phi_unchecked(phi: np.ndarray, G: FiniteGroupoid) -> np.ndarray:
    table, oidx = _pair_dictionary(G)
    n = len(G.outcomes)
    D = np.zeros((n, n), dtype=complex)
    for (t, s), elem in table.items():
        D[oidx[s], oidx[t]] = phi[G.index[elem]] / n
    return D



# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def validate_kernel(Pi: QuantumKernel, tol: float = KERNEL_TOL) -> KernelReport:
    """Check the three kernel axioms and report the deficits."""
    G1, G2 = Pi.g1, Pi.g2
    T1, T2 = label_tables(G1), label_tables(G2)

    def value(a1: str, a2: str) -> complex:
        return complex(Pi.pi[G1.index[a1], G2.index[a2]])

    # (i) sum_x Pi(a1, 1_x) nu2(1_x) = [a1 is a unit]
    norm_dev = 0.0
    for a1 in G1.elements:
        total = sum(value(a1, u) * T2.nu[u] for u in T2.units.values())
        want = 1.0 if T1.units[T1.source[a1]] == a1 else 0.0
        norm_dev = max(norm_dev, abs(total - want))

    # (ii) Pi(1_x, .) positive definite on Gamma_2, for every unit of Gamma_1
    pos_min: dict[str, float] = {}
    pos_ok = True
    for x1 in G1.outcomes:
        u = T1.units[x1]
        phi = Pi.pi[G1.index[u], :]
        worst = np.inf
        for x2 in G2.outcomes:
            M = fiber_gram(G2, phi, x2)
            if M.size and np.abs(M - M.conj().T).max() > tol * (1 + np.abs(M).max()):
                worst = -np.inf
                continue
            _, lo = psd_verdict(M, psd_tol=tol, eig_tol=tol)
            worst = min(worst, lo)
        pos_min[x1] = float(worst)
        scale = 1.0 + float(np.abs(Pi.pi[G1.index[u], :]).max(initial=0.0))
        pos_ok = pos_ok and worst >= -tol * scale

    # (iii) conj(Pi(a1,a2)) = delta2(a2) Pi(inv(a1), inv(a2))
    herm_dev = 0.0
    for a1 in G1.elements:
        for a2 in G2.elements:
            lhs = np.conj(value(a1, a2))
            rhs = T2.delta[a2] * value(T1.inverse[a1], T2.inverse[a2])
            herm_dev = max(herm_dev, abs(lhs - rhs))

    scale = 1.0 + float(np.abs(Pi.pi).max(initial=0.0))
    return KernelReport(
        normalization_deficit=float(norm_dev),
        positivity_min_eigenvalue=pos_min,
        hermiticity_deficit=float(herm_dev),
        normalization_ok=norm_dev <= tol * scale,
        positivity_ok=pos_ok,
        hermiticity_ok=herm_dev <= tol * scale,
    )




def push_phi(phi1: np.ndarray, Pi: QuantumKernel) -> np.ndarray:
    """Unvalidated pushforward ``(phi1 Pi)(a2) = sum phi1 Pi nu1``."""
    G1 = Pi.g1
    nu1 = np.array([label_tables(G1).nu[a] for a in G1.elements])
    return (phi1 * nu1) @ Pi.pi




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


def choi_to_kernel(kraus: Sequence[np.ndarray], G1: FiniteGroupoid,
                   G2: FiniteGroupoid, tol: float = 1e-9) -> QuantumKernel:
    """Kernel of the channel ``D -> sum_k A_k D A_k†`` between pair groupoids
    with nu = 1/n, via ``Pi((t1,s1),(t2,s2)) = m * sum_k A_k[s2,s1] conj(A_k[t2,t1])``.
    """

    t1map = pair_structure(G1)
    t2map = pair_structure(G2)
    if t1map is None or t2map is None:
        raise NotPairGroupoid("Kraus kernels need pair groupoids")
    if not (has_uniform_nu(G1) and has_uniform_nu(G2)):
        raise NonUniformP("Kraus kernels need nu = 1/n")
    n, m = len(G1.outcomes), len(G2.outcomes)
    A = [np.asarray(a, dtype=complex) for a in kraus]
    for a in A:
        if a.shape != (m, n):
            raise GroupoidMismatch(f"Kraus operator shape {a.shape}, expected {(m, n)}")
    completeness = sum(a.conj().T @ a for a in A)
    dev = float(np.abs(completeness - np.eye(n)).max())
    if dev > tol:
        raise NonTracePreserving(f"sum A†A deviates from identity by {dev:.3e}")

    o1 = {x: i for i, x in enumerate(G1.outcomes)}
    o2 = {x: i for i, x in enumerate(G2.outcomes)}
    pi = np.zeros((n * n, m * m), dtype=complex)
    for (t1, s1), e1 in t1map.items():
        for (t2, s2), e2 in t2map.items():
            val = sum(a[o2[s2], o1[s1]] * np.conj(a[o2[t2], o1[t1]]) for a in A)
            pi[G1.index[e1], G2.index[e2]] = m * val
    return QuantumKernel(G1, G2, pi)


def kernel_from_matrix_map(phi_star: Callable[[np.ndarray], np.ndarray],
                           G1: FiniteGroupoid, G2: FiniteGroupoid) -> QuantumKernel:
    """Kernel of an arbitrary linear matrix map (no CP requirement).

    ``Pi((t1,s1),(t2,s2)) = m * phi_star(E_{s1 t1})[s2, t2]``; useful for
    building counterexample kernels such as the transpose map.
    """

    t1map = pair_structure(G1)
    t2map = pair_structure(G2)
    if t1map is None or t2map is None:
        raise NotPairGroupoid("matrix-map kernels need pair groupoids")
    if not (has_uniform_nu(G1) and has_uniform_nu(G2)):
        raise NonUniformP("matrix-map kernels need nu = 1/n")
    n, m = len(G1.outcomes), len(G2.outcomes)
    o1 = {x: i for i, x in enumerate(G1.outcomes)}
    o2 = {x: i for i, x in enumerate(G2.outcomes)}
    pi = np.zeros((n * n, m * m), dtype=complex)
    for (t1, s1), e1 in t1map.items():
        E = np.zeros((n, n), dtype=complex)
        E[o1[s1], o1[t1]] = 1.0
        out = np.asarray(phi_star(E), dtype=complex)
        for (t2, s2), e2 in t2map.items():
            pi[G1.index[e1], G2.index[e2]] = m * out[o2[s2], o2[t2]]
    return QuantumKernel(G1, G2, pi)


def choi_matrix(Pi: QuantumKernel) -> np.ndarray:
    """``C = sum_ij E_ij (x) Phi_*(E_ij)`` for the state-side map of Pi."""

    if pair_structure(Pi.g1) is None or pair_structure(Pi.g2) is None:
        raise NotPairGroupoid("Choi matrix needs pair groupoids")
    n = len(Pi.g1.outcomes)
    m = len(Pi.g2.outcomes)
    phi_star = kernel_to_cp_map(Pi)
    C = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            block = phi_star(E)
            C[i * m:(i + 1) * m, j * m:(j + 1) * m] = block
    return C


# ---------------------------------------------------------------------------
# Hermitian eigensolver, PSD verdict and numerical rank, one matrix at a time
# ---------------------------------------------------------------------------

EIG_TOL = 1e-10


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


def psd_verdict(H, psd_tol: float = numkit.TOL, eig_tol: float = EIG_TOL):
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


def matrix_rank_hermitian(rows: np.ndarray, rank_tol: float = numkit.TOL) -> int:
    """Rank of a (possibly rectangular) stack of row vectors.

    Computed from the spectrum of the Hermitian Gram matrix ``rows rows†``,
    so it only relies on :func:`hermitian_eigen`.
    """
    A = np.asarray(rows, dtype=complex)
    w = hermitian_eigen(A @ A.conj().T).eigenvalues
    return int(np.count_nonzero(w > rank_tol * np.abs(w).max(initial=0.0)))


# ---------------------------------------------------------------------------
# minimum-norm solve (oracle for the Riesz representer)
# ---------------------------------------------------------------------------

def min_norm_solve(G, v, rank_tol: float = numkit.TOL):
    """Minimum-norm solution of ``G x = v`` restricted to the range of G.

    G must be square Hermitian PSD.  Eigenvalues below ``rank_tol * lambda_max``
    are treated as exactly zero.  Returns ``(x, residual, rank)`` with
    ``residual = ||G x - v||``.
    """
    M = np.asarray(G, dtype=complex)
    b = np.asarray(v, dtype=complex).reshape(-1)
    if b.shape[0] != M.shape[0]:
        raise DimensionMismatch(
            f"vector length {b.shape[0]} does not match matrix size {M.shape[0]}"
        )
    res = hermitian_eigen(M)
    w, V = res.eigenvalues, res.eigenvectors
    lam_max = float(np.abs(w).max()) if w.size else 0.0
    keep = w > rank_tol * lam_max if lam_max > 0 else np.zeros_like(w, dtype=bool)
    rank = int(np.count_nonzero(keep))
    coeffs = V.conj().T @ b
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    x = V @ (inv * coeffs)
    residual = float(np.linalg.norm(M @ x - b))
    return x, residual, rank


# ---------------------------------------------------------------------------
# model interpolation (oracle for fileio's cubic interpolant)
# ---------------------------------------------------------------------------

def cubic_interpolant(x: np.ndarray, y: np.ndarray) -> Callable[[float], np.ndarray]:
    """Interpolant of the complex rows ``y`` (K, n) at the knots ``x``: one
    scipy spline for the real parts and one for the imaginary parts, natural
    below four knots and not-a-knot from four up."""
    bc = "natural" if len(x) < 4 else "not-a-knot"
    re = CubicSpline(x, y.real, axis=0, bc_type=bc)
    im = CubicSpline(x, y.imag, axis=0, bc_type=bc)
    return lambda s: re(s) + 1j * im(s)


# ---------------------------------------------------------------------------
# file tables (oracles for fileio's writer and table decoder)
# ---------------------------------------------------------------------------

def write_json(path: Path, data: dict) -> None:
    """The indented writer: one ``json.dump(..., indent=2)``, which runs the
    pure-Python encoder, with the keys in the order given."""
    data = {"fmt": FMT, **data}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def save_groupoid(G: FiniteGroupoid, path: str | Path) -> None:
    """The groupoid writer by loops over :func:`label_tables`: a compose row
    ``[beta, alpha, beta o alpha]`` for each beta, then each alpha with
    ``t(alpha) = s(beta)``, in element order, and the file is the one line
    that ``json.dumps`` makes of it."""
    T = label_tables(G)
    data = {
        "fmt": FMT,
        "outcomes": list(G.outcomes),
        "elements": list(G.elements),
        "source": T.source,
        "target": T.target,
        "inverse": T.inverse,
        "compose": [[b, a, T.compose[(b, a)]] for b in G.elements for a in G.elements
                    if T.target[a] == T.source[b]],
        "units": T.units,
        "P": T.P,
        "fiber_weight": T.fiber_weight,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, allow_nan=False) + "\n")


def split_tables(labels, values: np.ndarray) -> tuple[dict, dict]:
    """Nonzero real and imaginary parts of ``values``, keyed by label."""
    values = values.tolist()
    re = {k: z.real for k, z in zip(labels, values) if z.real != 0.0}
    im = {k: z.imag for k, z in zip(labels, values) if z.imag != 0.0}
    return re, im


def save_state(rho: State, path: str | Path, groupoid_ref: str) -> None:
    re, im = split_tables(rho.groupoid.elements, rho.phi)
    write_json(Path(path), {"groupoid": groupoid_ref, "phi_re": re, "phi_im": im})


def save_algebra_element(a: AlgebraElement, path: str | Path, groupoid_ref: str) -> None:
    re, im = split_tables(a.groupoid.elements, a.coeff)
    write_json(Path(path), {"groupoid": groupoid_ref, "coeff_re": re, "coeff_im": im})


def save_kernel(Pi: QuantumKernel, path: str | Path,
                source_ref: str, target_ref: str) -> None:
    rows, cols = np.nonzero(Pi.pi)
    e1, e2 = Pi.g1.elements, Pi.g2.elements
    labels = [f"{e1[i]}|{e2[j]}" for i, j in zip(rows.tolist(), cols.tolist())]
    re, im = split_tables(labels, Pi.pi[rows, cols])
    write_json(Path(path), {
        "source_groupoid": source_ref,
        "target_groupoid": target_ref,
        "pi_re": re,
        "pi_im": im,
    })


def add_coefficients(out: np.ndarray, data: dict, keys: tuple[str, str], indices,
                     path: Path) -> np.ndarray:
    """Add the real and imaginary tables ``data[keys[0]]``, ``data[keys[1]]``
    into ``out`` through Python lists; ``indices(labels)`` maps a collection
    of labels to an index of ``out`` and raises KeyError if one of them names
    no entry."""
    for key, factor in zip(keys, (1.0, 1j)):
        table = data.get(key, {})
        if not isinstance(table, dict):
            raise SchemaError(f"{path}: {key} must be an object")
        if not table:
            continue
        try:
            if not all(type(v) in (int, float) for v in table.values()):
                raise TypeError("not a JSON number")
            out[indices(table)] += factor * np.array(list(map(float, table.values())))
        except (KeyError, TypeError, ValueError, OverflowError):
            raise_first_bad_entry(table, key, indices, path)
            raise
    return out


def raise_first_bad_entry(table: dict, key: str, indices, path: Path) -> None:
    for label, val in table.items():
        try:
            indices((label,))
        except KeyError:
            raise SchemaError(f"{path}: unknown {key} key {label!r}") from None
        try:
            if type(val) not in (int, float):  # a string or a boolean is not a number
                raise TypeError(val)
            float(val)
        except (TypeError, OverflowError) as exc:
            raise SchemaError(f"{path}: {key}[{label!r}] is not a number") from exc


def kernel_tables(g1: FiniteGroupoid, g2: FiniteGroupoid, data: dict, path: Path) -> np.ndarray:
    """The kernel array of the ``pi_re``/``pi_im`` tables of ``data``."""
    def rows(labels):
        return list(map(g1.index.__getitem__, labels))

    def cols(labels):
        return list(map(g2.index.__getitem__, labels))

    def indices(labels):
        parts = "|".join(labels).split("|")
        if len(parts) != 2 * len(labels) or not all(map(str.__contains__, labels, repeat("|"))):
            raise KeyError("|")
        return rows(parts[0::2]), cols(parts[1::2])

    pi = np.zeros((len(g1.elements), len(g2.elements)), dtype=complex)
    return add_coefficients(pi, data, ("pi_re", "pi_im"), indices, path)
