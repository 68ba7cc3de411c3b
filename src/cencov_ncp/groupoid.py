"""Finite groupoids with outcome measure, Haar fiber weights, and modular data.

A finite groupoid is a set of transitions with a partial associative
composition, a unit per outcome, and inverses.  The outcome space carries a
strictly positive probability vector P, each target fiber carries a positive
weight function (counting measure by default), and the total measure
disintegrates as ``nu(alpha) = w(alpha) * P(t(alpha))``.

A groupoid is stored as integer index arrays, elements numbered in
``elements`` order and outcomes in ``outcomes`` order, and every computation
reads them.  ``compose_ix[b, a]`` is the index of ``b o a``, or ``-1`` where
the pair does not compose; ``C[-1]`` silently reads the last row, so mask the
sentinel before gathering through it, or use ``triples``, which lists only
the composable pairs.  String labels stay at the edge: :func:`validate` maps
the tables of a :class:`GroupoidSpec` to arrays once, the constructions build
arrays directly, and the string tables (``source``, ``compose_table``, ``P``,
...) are read-only views of the arrays, built on first use.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
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


def _names(labels: Sequence[str], ix: np.ndarray) -> list[str]:
    """``labels[i]`` for every index in ``ix``."""
    return list(map(labels.__getitem__, ix.tolist()))


def _view(keys, values) -> Mapping:
    return MappingProxyType(dict(zip(keys, values)))


def _table(keys: str, labels: str, ix: str) -> cached_property:
    """The string table ``keys[i] -> labels[ix[i]]`` of a groupoid, as a
    read-only view built on first use."""
    return cached_property(
        lambda G: _view(getattr(G, keys), _names(getattr(G, labels), getattr(G, ix))))


# the stored arrays of a groupoid and their dtypes
_ARRAYS = {"src": np.intp, "tgt": np.intp, "inv_ix": np.intp, "unit_ix": np.intp,
           "compose_ix": np.int32, "P_vec": float, "weight_vec": float}


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """A finite groupoid, immutable, its arrays read-only; :func:`validate` and
    the constructions build one and check the axioms."""

    elements: tuple[str, ...]
    outcomes: tuple[str, ...]
    src: np.ndarray         # outcome index of the source of each element
    tgt: np.ndarray         # outcome index of the target of each element
    inv_ix: np.ndarray      # element index of the inverse of each element
    unit_ix: np.ndarray     # element index of the unit of each outcome
    compose_ix: np.ndarray  # C[b, a] = index of b o a, -1 where undefined
    P_vec: np.ndarray       # P of each outcome
    weight_vec: np.ndarray  # fiber weight w of each element

    def __post_init__(self):
        for name, dtype in _ARRAYS.items():
            a = np.asarray(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return self is other or (
            self.elements == other.elements and self.outcomes == other.outcomes
            and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _ARRAYS))

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
        return tuple(zip(*(_names(self.elements, ix) for ix in self.triples)))

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

    # -- string tables: read-only views of the arrays, built on first use -----

    source = _table("elements", "outcomes", "src")
    target = _table("elements", "outcomes", "tgt")
    inverse_map = _table("elements", "elements", "inv_ix")
    unit_of = _table("outcomes", "elements", "unit_ix")

    @cached_property
    def compose_table(self) -> Mapping[tuple[str, str], str]:
        return MappingProxyType({(b, a): g for b, a, g in self.composable_pairs})

    @cached_property
    def P(self) -> Mapping[str, float]:
        return _view(self.outcomes, self.P_vec.tolist())

    @cached_property
    def fiber_weight(self) -> Mapping[str, float]:
        return _view(self.elements, self.weight_vec.tolist())

    # -- derived arrays --------------------------------------------------------

    @cached_property
    def nu_vec(self) -> np.ndarray:
        return self.weight_vec * self.P_vec[self.tgt]

    @cached_property
    def delta_vec(self) -> np.ndarray:
        return self.nu_vec[self.inv_ix] / self.nu_vec

    @cached_property
    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays ``(beta, alpha, beta o alpha)`` of all composable pairs,
        in canonical order."""
        C = self.compose_ix
        b, a = np.nonzero(C >= 0)
        return b, a, C[b, a].astype(np.intp)

    @cached_property
    def fiber_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Target fibers by size s: the outcomes ``xs`` (k,) with fibers of s
        elements, their elements ``F[i, k]`` = ``a_k`` (k, s) over the fiber of
        ``xs[i]`` in canonical order, and ``T[i, k, l]`` = ``inv(a_k) o a_l``,
        so ``phi[T]`` stacks their fiber Grams."""
        sizes = np.bincount(self.tgt)
        blocks = []
        # the distinct sizes, ascending; np.unique would import numpy.ma
        for s in np.flatnonzero(np.bincount(sizes)):
            fibers = np.flatnonzero(sizes[self.tgt] == s)
            F = fibers[np.argsort(self.tgt[fibers], kind="stable")].reshape(-1, s)
            T = self.compose_ix[self.inv_ix[F][:, :, None], F[:, None, :]]
            blocks.append((np.flatnonzero(sizes == s), F, T))
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


def has_uniform_P(G: FiniteGroupoid, tol: float = MEASURE_TOL) -> bool:
    """Uniform outcome measure, the matrix picture's condition."""
    return bool(np.all(np.abs(G.P_vec - 1.0 / len(G.outcomes)) <= tol))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _measure(outcomes: Sequence[str], P: Mapping[str, float]) -> np.ndarray:
    """P in outcome order, once it is strictly positive and sums to 1."""
    for x in outcomes:
        if x not in P:
            raise BadMeasure(f"P missing outcome {x!r}")
        if not (P[x] > 0.0) or not math.isfinite(P[x]):
            raise BadMeasure(f"P({x!r}) = {P[x]} is not strictly positive")
    total = sum(P[x] for x in outcomes)
    if abs(total - 1.0) > MEASURE_TOL:
        raise BadMeasure(f"P sums to {total}, expected 1")
    return np.array([P[x] for x in outcomes], dtype=float)


def _first(mask: np.ndarray) -> Optional[int]:
    """Position of the first True entry of a flat mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _ix(labels, index: Mapping[str, int]) -> np.ndarray:
    """``index[label]`` for every label; KeyError on an unknown label."""
    return np.fromiter(map(index.__getitem__, labels), dtype=np.intp)


def _schema_defect(spec: GroupoidSpec, oix: dict, eix: dict) -> None:
    """Raise SchemaError for the first ill-formed entry: the source, target
    and inverse of each element in turn, then compose, then units."""
    for a in spec.elements:
        for table, name, domain in ((spec.source, "source", oix),
                                    (spec.target, "target", oix),
                                    (spec.inverse, "inverse", eix)):
            if a not in table:
                raise SchemaError(f"{name} table missing element {a!r}")
            if table[a] not in domain:
                raise SchemaError(f"{name}[{a!r}] references undeclared id")
    for (b, a), g in spec.compose.items():
        if b not in eix or a not in eix or g not in eix:
            raise SchemaError(f"compose entry ({b!r},{a!r}) references undeclared id")
    for x in spec.outcomes:
        if x not in spec.units or spec.units[x] not in eix:
            raise SchemaError(f"units table missing outcome {x!r}")


def validate(spec: GroupoidSpec) -> FiniteGroupoid:
    """Check every groupoid axiom on the raw tables and return the groupoid.

    The tables are mapped to index arrays in bulk, and the axioms are checked
    on the arrays.  Raises the violation class matching the first defect
    found; the check order is measure, table well-formedness, units,
    coherence, inverses, associativity, fiber weights.
    """
    outcomes, elements = tuple(spec.outcomes), tuple(spec.elements)
    P = _measure(outcomes, spec.P)
    oix = {x: i for i, x in enumerate(outcomes)}
    eix = {a: i for i, a in enumerate(elements)}
    if len(oix) != len(outcomes) or len(eix) != len(elements):
        raise SchemaError("duplicate outcome or element ids")
    try:
        src, tgt = (_ix(map(table.__getitem__, elements), oix)
                    for table in (spec.source, spec.target))
        inv = _ix(map(spec.inverse.__getitem__, elements), eix)
        b, a = (_ix(map(itemgetter(k), spec.compose), eix) for k in (0, 1))
        g = _ix(spec.compose.values(), eix)
        unit = _ix(map(spec.units.__getitem__, outcomes), eix)
    except (KeyError, TypeError):
        _schema_defect(spec, oix, eix)
        raise
    C = np.full((len(elements),) * 2, -1, dtype=np.int32)
    C[b, a] = g
    fw = spec.fiber_weight or dict.fromkeys(elements, 1.0)
    w = np.array([fw.get(e, np.nan) for e in elements], dtype=float)
    return _checked(FiniteGroupoid(elements, outcomes, src, tgt, inv, unit, C, P, w))


def _checked(G: FiniteGroupoid) -> FiniteGroupoid:
    """G, once its arrays pass the unit, coherence, inverse, associativity and
    fiber-weight checks, in that order."""
    s, t, inv, u, C = G.src, G.tgt, G.inv_ix, G.unit_ix, G.compose_ix
    beta, alpha, gamma = G.triples
    e, ar, ox = G.elements, np.arange(len(G.elements)), np.arange(len(G.outcomes))

    # units act as identities on both sides
    x = _first((s[u] != ox) | (t[u] != ox))
    if x is not None:
        raise UnitViolation(
            f"unit {e[u[x]]!r} of {G.outcomes[x]!r} is not an endo-transition")
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

    w = G.weight_vec
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
# standard constructions: index arrays built directly, labels as strings
# ---------------------------------------------------------------------------

def _numbered(n: int, P: Optional[Mapping[str, float]]):
    """Outcomes ``1 .. n``, and P in their order, uniform unless given."""
    if n < 1:
        raise BadMeasure("need at least one outcome")
    outcomes = tuple(str(i + 1) for i in range(n))
    return outcomes, _measure(outcomes, P) if P else np.full(n, 1.0 / n)


def pair_groupoid(n: int, P: Optional[Mapping[str, float]] = None) -> FiniteGroupoid:
    """The pair groupoid on n outcomes: element ``(y,x)`` is the transition x -> y."""
    outcomes, P_vec = _numbered(n, P)
    y, x = np.divmod(np.arange(n * n), n)
    k = np.arange(n)
    C = np.full((n,) * 4, -1, dtype=np.int32)
    C[:, k, k, :] = (k[:, None] * n + k)[:, None, :]  # (z,y) o (y,x) = (z,x)
    return _checked(FiniteGroupoid(
        elements=tuple(f"({b},{a})" for b in outcomes for a in outcomes),
        outcomes=outcomes, src=x, tgt=y, inv_ix=x * n + y, unit_ix=k * (n + 1),
        compose_ix=C.reshape(n * n, n * n), P_vec=P_vec, weight_vec=np.ones(n * n)))


def trivial_groupoid(n: int, P: Optional[Mapping[str, float]] = None) -> FiniteGroupoid:
    """The trivial groupoid on n outcomes: units only (classical probability)."""
    outcomes, P_vec = _numbered(n, P)
    k = np.arange(n)
    return _checked(FiniteGroupoid(
        elements=tuple(f"1_{x}" for x in outcomes), outcomes=outcomes,
        src=k, tgt=k, inv_ix=k, unit_ix=k, compose_ix=np.where(np.eye(n, dtype=bool), k, -1),
        P_vec=P_vec, weight_vec=np.ones(n)))


def group_groupoid(table: Mapping[tuple[str, str], str],
                   labels: Sequence[str]) -> FiniteGroupoid:
    """A finite group viewed as a one-outcome groupoid.

    ``table[(g, h)]`` is the product g*h.  Raises NotAGroup when the table
    is not a group multiplication table.
    """
    labels = tuple(labels)
    ix = {g: i for i, g in enumerate(labels)}
    if len(ix) != len(labels):
        raise SchemaError("duplicate outcome or element ids")
    products = map(table.get, itertools.product(labels, repeat=2))
    M = np.fromiter(map(ix.get, products, itertools.repeat(-1)), dtype=np.intp)
    return _group(labels, M.reshape(len(labels), len(labels)))


def _group(labels: tuple[str, ...], M: np.ndarray) -> FiniteGroupoid:
    """The group of the table ``M[g, h]`` = index of g*h, or -1 where the
    product is missing; raises NotAGroup unless M is a group table."""
    k = _first(M.ravel() < 0)
    if k is not None:
        g, h = divmod(k, len(labels))
        raise NotAGroup(f"product of {labels[g]!r} and {labels[h]!r} missing or out of range")
    ar = np.arange(len(labels))
    e = _first((M == ar).all(axis=1) & (M == ar[:, None]).all(axis=0))
    if e is None:
        raise NotAGroup("no identity element")
    inverse = (M == e) & (M.T == e)  # inverse[g, h]: g*h = h*g = e
    g = _first(~inverse.any(axis=1))
    if g is not None:
        raise NotAGroup(f"{labels[g]!r} has no inverse")
    if not np.array_equal(M[M], M[ar[:, None, None], M]):  # (ab)c = a(bc)
        raise NotAGroup("multiplication table is not associative")
    star = np.zeros(len(labels), dtype=np.intp)
    return _checked(FiniteGroupoid(
        elements=labels, outcomes=("*",), src=star, tgt=star,
        inv_ix=inverse.argmax(axis=1), unit_ix=[e], compose_ix=M, P_vec=[1.0],
        weight_vec=np.ones(len(labels))))


def cyclic_group_groupoid(n: int) -> FiniteGroupoid:
    """Z_n as a one-outcome groupoid with elements ``g0 .. g{n-1}``."""
    k = np.arange(n)
    return _group(tuple(f"g{i}" for i in range(n)), (k[:, None] + k) % n)


def disjoint_union(G1: FiniteGroupoid, G2: FiniteGroupoid, w: float) -> FiniteGroupoid:
    """Disjoint union, with P re-normalized by the mixing weight w in (0,1)."""
    if not (0.0 < w < 1.0):
        raise BadWeight(f"mixing weight {w} not in (0,1)")
    n1, o1 = len(G1.elements), len(G1.outcomes)
    n = n1 + len(G2.elements)
    C = np.full((n, n), -1, dtype=np.int32)
    C[:n1, :n1] = G1.compose_ix
    C[n1:, n1:] = np.where(G2.compose_ix >= 0, G2.compose_ix + n1, -1)
    return _checked(FiniteGroupoid(
        elements=tuple(f"1:{a}" for a in G1.elements) + tuple(f"2:{a}" for a in G2.elements),
        outcomes=tuple(f"1:{x}" for x in G1.outcomes) + tuple(f"2:{x}" for x in G2.outcomes),
        src=np.concatenate([G1.src, G2.src + o1]),
        tgt=np.concatenate([G1.tgt, G2.tgt + o1]),
        inv_ix=np.concatenate([G1.inv_ix, G2.inv_ix + n1]),
        unit_ix=np.concatenate([G1.unit_ix, G2.unit_ix + n1]),
        compose_ix=C,
        P_vec=np.concatenate([w * G1.P_vec, (1.0 - w) * G2.P_vec]),
        weight_vec=np.concatenate([G1.weight_vec, G2.weight_vec])))


def product(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    """Componentwise product groupoid with P = P1 (x) P2; the pair (i, j) has
    index ``i * |factor 2| + j``."""
    n1, n2, o2 = len(G1.elements), len(G2.elements), len(G2.outcomes)
    elements = tuple(f"{a}*{b}" for a in G1.elements for b in G2.elements)
    outcomes = tuple(f"{x}*{y}" for x in G1.outcomes for y in G2.outcomes)
    if len(set(elements)) < len(elements) or len(set(outcomes)) < len(outcomes):
        raise SchemaError("duplicate outcome or element ids")
    C1, C2 = G1.compose_ix[:, None, :, None], G2.compose_ix[None, :, None, :]
    C = np.where((C1 >= 0) & (C2 >= 0), C1 * n2 + C2, -1)  # C[b1, b2, a1, a2]
    return _checked(FiniteGroupoid(
        elements=elements, outcomes=outcomes,
        src=(G1.src[:, None] * o2 + G2.src).ravel(),
        tgt=(G1.tgt[:, None] * o2 + G2.tgt).ravel(),
        inv_ix=(G1.inv_ix[:, None] * n2 + G2.inv_ix).ravel(),
        unit_ix=(G1.unit_ix[:, None] * n2 + G2.unit_ix).ravel(),
        compose_ix=C.reshape(n1 * n2, n1 * n2),
        P_vec=np.outer(G1.P_vec, G2.P_vec).ravel(),
        weight_vec=np.outer(G1.weight_vec, G2.weight_vec).ravel()))
