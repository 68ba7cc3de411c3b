"""Finite groupoids with outcome measure, Haar fiber weights, and modular data.

A finite groupoid is a set of transitions with a partial associative
composition, a unit per outcome, and inverses.  The outcome space carries a
strictly positive probability vector P, each target fiber carries a positive
weight function (counting measure by default), and the total measure
disintegrates as ``nu(alpha) = w(alpha) * P(t(alpha))``.

String labels stay at the edge: the dataclass fields hold the tables as read
from a file or built by a construction, and the string accessors (``compose``,
``inv``, ``nu``, ...) read them one element at a time.  Every computation
works on integer index arrays instead, derived from those tables once per
groupoid as cached properties (so a copy made with ``dataclasses.replace``
derives its own).  Elements are numbered in ``elements`` order and outcomes
in ``outcomes`` order.  ``compose_ix[b, a]`` is the index of ``b o a``, or
``-1`` where the pair does not compose; ``C[-1]`` silently reads the last row,
so mask the sentinel before gathering through it, or use ``triples``, which
lists only the composable pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    AssociativityViolation,
    BadMeasure,
    BadWeight,
    CoherenceViolation,
    HomomorphismViolation,
    InverseViolation,
    NonUniformP,
    NotAGroup,
    NotPairGroupoid,
    SchemaError,
    UnitViolation,
    UnknownOutcome,
)

MEASURE_TOL = 1e-9


@dataclass(frozen=True)
class GroupoidSpec:
    """Raw groupoid tables prior to validation."""

    outcomes: Sequence[str]
    elements: Sequence[str]
    source: Mapping[str, str]
    target: Mapping[str, str]
    inverse: Mapping[str, str]
    compose: Mapping[tuple[str, str], str]
    units: Mapping[str, str]
    P: Mapping[str, float]
    fiber_weight: Optional[Mapping[str, float]] = None


@dataclass(frozen=True)
class FiniteGroupoid:
    """A validated finite groupoid; immutable after construction."""

    elements: tuple[str, ...]
    outcomes: tuple[str, ...]
    source: Mapping[str, str]
    target: Mapping[str, str]
    inverse_map: Mapping[str, str]
    compose_table: Mapping[tuple[str, str], str]
    unit_of: Mapping[str, str]
    P: Mapping[str, float]
    fiber_weight: Mapping[str, float]

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def outcome_index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.outcomes)}

    def s(self, alpha: str) -> str:
        return self.source[alpha]

    def t(self, alpha: str) -> str:
        return self.target[alpha]

    def inv(self, alpha: str) -> str:
        return self.inverse_map[alpha]

    def compose(self, beta: str, alpha: str) -> Optional[str]:
        """``beta o alpha``, or None when not composable."""
        return self.compose_table.get((beta, alpha))

    def is_unit(self, alpha: str) -> bool:
        return self.unit_of[self.source[alpha]] == alpha

    def nu(self, alpha: str) -> float:
        """Total measure nu(alpha) = w(alpha) * P(t(alpha))."""
        return self.fiber_weight[alpha] * self.P[self.target[alpha]]

    def delta(self, alpha: str) -> float:
        """Modular function delta(alpha) = nu(inv(alpha)) / nu(alpha)."""
        return self.nu(self.inverse_map[alpha]) / self.nu(alpha)

    @cached_property
    def composable_pairs(self) -> tuple[tuple[str, str, str], ...]:
        """All triples ``(beta, alpha, beta o alpha)`` in canonical order."""
        e = self.elements
        b, a, g = (ix.tolist() for ix in self.triples)
        return tuple((e[i], e[j], e[k]) for i, j, k in zip(b, a, g))

    def target_fiber(self, x: str) -> tuple[str, ...]:
        """Elements with target x, in canonical element order."""
        return tuple(self.elements[i] for i in self.fiber_ix(x))

    def source_fiber(self, x: str) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in np.flatnonzero(self.src == self._outcome(x)))

    def fiber_ix(self, x: str) -> np.ndarray:
        """Element indices of the target fiber of x, in canonical order."""
        return np.flatnonzero(self.tgt == self._outcome(x))

    def _outcome(self, x: str) -> int:
        if x not in self.outcome_index:
            raise UnknownOutcome(f"unknown outcome {x!r}")
        return self.outcome_index[x]

    # -- index arrays --------------------------------------------------------

    @cached_property
    def src(self) -> np.ndarray:
        """Outcome index of the source of each element."""
        return _lookup(self.elements, self.source, self.outcome_index)

    @cached_property
    def tgt(self) -> np.ndarray:
        """Outcome index of the target of each element."""
        return _lookup(self.elements, self.target, self.outcome_index)

    @cached_property
    def inv_ix(self) -> np.ndarray:
        """Element index of the inverse of each element."""
        return _lookup(self.elements, self.inverse_map, self.index)

    @cached_property
    def unit_ix(self) -> np.ndarray:
        """Element index of the unit of each outcome."""
        return _lookup(self.outcomes, self.unit_of, self.index)

    @cached_property
    def P_vec(self) -> np.ndarray:
        return np.array([self.P[x] for x in self.outcomes], dtype=float)

    @cached_property
    def nu_vec(self) -> np.ndarray:
        w = np.array([self.fiber_weight[a] for a in self.elements], dtype=float)
        return w * self.P_vec[self.tgt]

    @cached_property
    def delta_vec(self) -> np.ndarray:
        return self.nu_vec[self.inv_ix] / self.nu_vec

    @cached_property
    def compose_ix(self) -> np.ndarray:
        """``C[b, a]`` = index of ``b o a``, -1 where undefined (int32)."""
        n, idx = len(self.elements), self.index
        C = np.full((n, n), -1, dtype=np.int32)
        bag = np.array([(idx[b], idx[a], idx[g]) for (b, a), g in self.compose_table.items()],
                       dtype=np.intp).reshape(-1, 3)
        C[bag[:, 0], bag[:, 1]] = bag[:, 2]
        return C

    @cached_property
    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays ``(beta, alpha, beta o alpha)`` of all composable pairs,
        in canonical order."""
        C = self.compose_ix
        b, a = np.nonzero(C >= 0)
        return b, a, C[b, a].astype(np.intp)

    @cached_property
    def fiber_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Target fibers by size s: the outcomes ``xs`` (k,) with fibers of s
        elements, and ``T[i, k, l]`` = ``inv(a_k) o a_l`` over the fiber of
        ``xs[i]`` in canonical order, so ``phi[T]`` stacks its fiber Grams."""
        sizes = np.bincount(self.tgt)
        blocks = []
        # the distinct sizes, ascending; np.unique would import numpy.ma
        for s in np.flatnonzero(np.bincount(sizes)):
            fibers = np.flatnonzero(sizes[self.tgt] == s)
            F = fibers[np.argsort(self.tgt[fibers], kind="stable")].reshape(-1, s)
            T = self.compose_ix[self.inv_ix[F][:, :, None], F[:, None, :]]
            blocks.append((np.flatnonzero(sizes == s), T))
        return tuple(blocks)

    @cached_property
    def pair_grid(self) -> Optional[np.ndarray]:
        """``E[y, x]`` = index of the transition x -> y for a pair groupoid, else None."""
        n = len(self.outcomes)
        if len(self.elements) != n * n:
            return None
        E = np.full((n, n), -1, dtype=np.intp)
        E[self.tgt, self.src] = np.arange(n * n)
        return E if (E >= 0).all() else None

    @property
    def pair_index(self) -> np.ndarray:
        """``pair_grid`` of a pair groupoid with uniform P, the setting of the
        density-matrix dictionary; raises NotPairGroupoid or NonUniformP."""
        if self.pair_grid is None:
            raise NotPairGroupoid("the matrix picture needs a pair groupoid")
        if not has_uniform_P(self):
            raise NonUniformP("the matrix picture needs uniform P")
        return self.pair_grid


def _lookup(keys: Sequence[str], table: Mapping[str, str], index: Mapping[str, int]):
    """``index[table[k]]`` for every key, as an index array."""
    return np.array([index[table[k]] for k in keys], dtype=np.intp)


# ---------------------------------------------------------------------------
# validation
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


def _first(mask: np.ndarray) -> Optional[int]:
    """Position of the first True entry of a flat mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


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
    for (b, a), g in spec.compose.items():
        if b not in eset or a not in eset or g not in eset:
            raise SchemaError(f"compose entry ({b!r},{a!r}) references undeclared id")
    for x in outcomes:
        if x not in spec.units or spec.units[x] not in eset:
            raise SchemaError(f"units table missing outcome {x!r}")

    G = FiniteGroupoid(
        elements=elements,
        outcomes=outcomes,
        source=dict(spec.source),
        target=dict(spec.target),
        inverse_map=dict(spec.inverse),
        compose_table=dict(spec.compose),
        unit_of=dict(spec.units),
        P=dict(spec.P),
        fiber_weight=dict(spec.fiber_weight) if spec.fiber_weight
        else {a: 1.0 for a in elements},
    )
    s, t, inv, u, C = G.src, G.tgt, G.inv_ix, G.unit_ix, G.compose_ix
    beta, alpha, gamma = G.triples
    e, ar, ox = elements, np.arange(len(elements)), np.arange(len(outcomes))

    # units act as identities on both sides
    x = _first((s[u] != ox) | (t[u] != ox))
    if x is not None:
        raise UnitViolation(
            f"unit {e[u[x]]!r} of {outcomes[x]!r} is not an endo-transition")
    k = _first((C[ar, u[s]] != ar) | (C[u[t], ar] != ar))
    if k is not None:
        raise UnitViolation(f"a unit does not act as an identity on {e[k]!r}")

    # definedness and source/target coherence
    bad = (C >= 0) != (s[:, None] == t[None, :])
    bad[beta, alpha] |= (s[gamma] != s[alpha]) | (t[gamma] != t[beta])
    k = _first(bad)
    if k is not None:
        b, a = divmod(k, len(e))
        raise CoherenceViolation(f"compose({e[b]!r},{e[a]!r}) breaks s/t coherence")

    # inverses
    k = _first((C[inv, ar] != u[s]) | (C[ar, inv] != u[t]))
    if k is not None:
        raise InverseViolation(f"inverse law fails for {e[k]!r}")

    # associativity on all doubly-composable triples, one middle element at a
    # time; after the coherence check every gather reads a composable pair
    by_src = [np.flatnonzero(s == x) for x in ox]
    by_tgt = [np.flatnonzero(t == x) for x in ox]
    for b in ar:
        cs, as_ = by_src[t[b]], by_tgt[s[b]]
        left = C[C[cs, b][:, None], as_]
        right = C[cs[:, None], C[b, as_]]
        if not np.array_equal(left, right):
            i, j = np.argwhere(left != right)[0]
            c, a = e[cs[i]], e[as_[j]]
            raise AssociativityViolation(
                f"(({c!r} o {e[b]!r}) o {a!r}) != ({c!r} o ({e[b]!r} o {a!r}))")

    w = np.array([G.fiber_weight.get(a, np.nan) for a in elements], dtype=float)
    k = _first(~(w > 0.0) | ~np.isfinite(w))
    if k is not None:
        raise BadWeight(f"fiber weight of {e[k]!r} must be a positive number")
    # left invariance of the Haar system: w(alpha o beta) = w(beta)
    k = _first(np.abs(w[gamma] - w[alpha]) > MEASURE_TOL * (1.0 + np.abs(w[alpha])))
    if k is not None:
        raise BadWeight(f"fiber weights are not left-invariant at "
                        f"compose({e[beta[k]]!r},{e[alpha[k]]!r})")
    return G


def modular_function(G: FiniteGroupoid) -> dict[str, float]:
    """The modular map delta, verified to be a groupoid homomorphism."""
    delta = G.delta_vec
    x = _first(np.abs(delta[G.unit_ix] - 1.0) > MEASURE_TOL)
    if x is not None:
        raise HomomorphismViolation(f"delta(unit of {G.outcomes[x]!r}) != 1")
    b, a, g = G.triples
    deviation = np.abs(delta[g] - delta[b] * delta[a])
    k = _first(deviation > MEASURE_TOL * (1.0 + np.abs(delta[g])))
    if k is not None:
        e = G.elements
        raise HomomorphismViolation(
            f"delta is not multiplicative on compose({e[b[k]]!r},{e[a[k]]!r})")
    return dict(zip(G.elements, delta.tolist()))


# ---------------------------------------------------------------------------
# standard constructions
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
    compose = {}
    for z in outcomes:
        for y in outcomes:
            for x in outcomes:
                compose[(f"({z},{y})", f"({y},{x})")] = f"({z},{x})"
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
        compose={(f"1_{x}", f"1_{x}"): f"1_{x}" for x in outcomes},
        units={x: f"1_{x}" for x in outcomes},
        P=dict(P) if P else _uniform(outcomes),
    ))


def group_groupoid(table: Mapping[tuple[str, str], str],
                   labels: Sequence[str]) -> FiniteGroupoid:
    """A finite group viewed as a one-outcome groupoid.

    ``table[(g, h)]`` is the product g*h.  Raises NotAGroup when the table
    is not a group multiplication table.
    """
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
        inverse=inverse, compose=dict(table), units={o: identity},
        P={o: 1.0},
    ))


def cyclic_group_groupoid(n: int) -> FiniteGroupoid:
    """Z_n as a one-outcome groupoid with elements ``g0 .. g{n-1}``."""
    labels = [f"g{i}" for i in range(n)]
    table = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}
    return group_groupoid(table, labels)


def disjoint_union(G1: FiniteGroupoid, G2: FiniteGroupoid, w: float) -> FiniteGroupoid:
    """Disjoint union, with P re-normalized by the mixing weight w in (0,1)."""
    if not (0.0 < w < 1.0):
        raise BadWeight(f"mixing weight {w} not in (0,1)")

    def l(x: str) -> str:
        return f"1:{x}"

    def r(x: str) -> str:
        return f"2:{x}"

    outcomes = [l(x) for x in G1.outcomes] + [r(x) for x in G2.outcomes]
    elements = [l(a) for a in G1.elements] + [r(a) for a in G2.elements]
    source = {l(a): l(G1.source[a]) for a in G1.elements}
    source.update({r(a): r(G2.source[a]) for a in G2.elements})
    target = {l(a): l(G1.target[a]) for a in G1.elements}
    target.update({r(a): r(G2.target[a]) for a in G2.elements})
    inverse = {l(a): l(G1.inverse_map[a]) for a in G1.elements}
    inverse.update({r(a): r(G2.inverse_map[a]) for a in G2.elements})
    compose = {(l(b), l(a)): l(g) for (b, a), g in G1.compose_table.items()}
    compose.update({(r(b), r(a)): r(g) for (b, a), g in G2.compose_table.items()})
    units = {l(x): l(G1.unit_of[x]) for x in G1.outcomes}
    units.update({r(x): r(G2.unit_of[x]) for x in G2.outcomes})
    P = {l(x): w * G1.P[x] for x in G1.outcomes}
    P.update({r(x): (1.0 - w) * G2.P[x] for x in G2.outcomes})
    weights = {l(a): G1.fiber_weight[a] for a in G1.elements}
    weights.update({r(a): G2.fiber_weight[a] for a in G2.elements})
    return validate(GroupoidSpec(
        outcomes=outcomes, elements=elements, source=source, target=target,
        inverse=inverse, compose=compose, units=units, P=P, fiber_weight=weights,
    ))


def product(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    """Componentwise product groupoid with P = P1 (x) P2."""

    def po(x: str, y: str) -> str:
        return f"{x}*{y}"

    outcomes = [po(x, y) for x in G1.outcomes for y in G2.outcomes]
    elements = [po(a, b) for a in G1.elements for b in G2.elements]
    source = {po(a, b): po(G1.source[a], G2.source[b])
              for a in G1.elements for b in G2.elements}
    target = {po(a, b): po(G1.target[a], G2.target[b])
              for a in G1.elements for b in G2.elements}
    inverse = {po(a, b): po(G1.inverse_map[a], G2.inverse_map[b])
               for a in G1.elements for b in G2.elements}
    compose = {}
    for (b1, a1), g1 in G1.compose_table.items():
        for (b2, a2), g2 in G2.compose_table.items():
            compose[(po(b1, b2), po(a1, a2))] = po(g1, g2)
    units = {po(x, y): po(G1.unit_of[x], G2.unit_of[y])
             for x in G1.outcomes for y in G2.outcomes}
    P = {po(x, y): G1.P[x] * G2.P[y] for x in G1.outcomes for y in G2.outcomes}
    weights = {po(a, b): G1.fiber_weight[a] * G2.fiber_weight[b]
               for a in G1.elements for b in G2.elements}
    return validate(GroupoidSpec(
        outcomes=outcomes, elements=elements, source=source, target=target,
        inverse=inverse, compose=compose, units=units, P=P, fiber_weight=weights,
    ))


# ---------------------------------------------------------------------------
# uniform outcome measure (the matrix picture's condition)
# ---------------------------------------------------------------------------

def has_uniform_P(G: FiniteGroupoid, tol: float = MEASURE_TOL) -> bool:
    return bool(np.all(np.abs(G.P_vec - 1.0 / len(G.outcomes)) <= tol))
