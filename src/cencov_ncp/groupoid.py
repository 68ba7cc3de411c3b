"""Finite groupoids with outcome measure, Haar fiber weights, and modular data.

A finite groupoid is a set of transitions with a partial associative
composition, a unit per outcome, and inverses.  The outcome space carries a
strictly positive probability vector P, each target fiber carries a positive
weight function (counting measure by default), and the total measure
disintegrates as ``nu(alpha) = w(alpha) * P(t(alpha))``.

A groupoid is stored as integer index arrays, elements numbered in
``elements`` order and outcomes in ``outcomes`` order, and every computation
reads them.  Composition is partial: ``compose_ix`` lists ``b o a`` once per
composable pair, row b over the target fiber of s(b), rows and fibers in
element order (the order of ``triples``), and :meth:`FiniteGroupoid.composed`
looks pairs up.  String labels stay at the edge: :func:`validate` maps the
tables of a :class:`GroupoidSpec` to arrays once, the constructions build
arrays directly, and a groupoid holds its labels only as ``elements`` and
``outcomes``: a table by label is read from the arrays where it is needed.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import numkit
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
)


@dataclass(frozen=True)
class GroupoidSpec:
    """Raw groupoid tables prior to validation."""

    outcomes: Sequence[str]
    elements: Sequence[str]
    source: Mapping[str, str]
    target: Mapping[str, str]
    inverse: Mapping[str, str]
    compose: Iterable[tuple[str, str, str]]  # the rows (beta, alpha, beta o alpha), read once
    units: Mapping[str, str]
    P: Mapping[str, float]
    fiber_weight: Optional[Mapping[str, float]] = None


def _names(labels: Sequence[str], ix: np.ndarray) -> list[str]:
    """``labels[i]`` for every index in ``ix``."""
    return list(map(labels.__getitem__, ix.tolist()))


# the stored arrays of a groupoid: their dtypes, what they hold one entry per,
# and for an index array its least entry and what it indexes (-1 in compose_ix
# marks a composable pair that no row lists, for _checked to name)
_ARRAYS = {"src": (np.intp, "element", (0, "outcome")),
           "tgt": (np.intp, "element", (0, "outcome")),
           "inv_ix": (np.intp, "element", (0, "element")),
           "unit_ix": (np.intp, "outcome", (0, "element")),
           "compose_ix": (np.int32, "composable pair", (-1, "element")),
           "P_vec": (float, "outcome", None), "weight_vec": (float, "element", None)}


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
    compose_ix: np.ndarray  # index of b o a for each composable pair, row by row
    P_vec: np.ndarray       # P of each outcome
    weight_vec: np.ndarray  # fiber weight w of each element

    def __post_init__(self):
        sizes = {"element": len(self.elements), "outcome": len(self.outcomes)}
        for name, (dtype, per, indexes) in _ARRAYS.items():
            # src and tgt come first: the composable pairs are counted from them
            size = sizes[per] if per in sizes else int(self._rows[0][-1])
            a = numkit._as_array(given := getattr(self, name), (size,), SchemaError,
                                 f"{name} (one entry per {per})", dtype)
            if indexes:
                lo, hi = indexes[0], sizes[indexes[1]]
                k = _first((a < lo) | (a >= hi))
                if k is not None:
                    raise SchemaError(f"{name} entry {a[k]} at position {k} "
                                      f"is outside [{lo}, {hi})")
            if a is given or a.base is not None:  # the caller's array or a view of it
                a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return self is other or (
            self.elements == other.elements and self.outcomes == other.outcomes
            and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _ARRAYS))

    # -- labels ------------------------------------------------------------

    @cached_property
    def index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    @property
    def composable_pairs(self) -> tuple[tuple[str, str, str], ...]:
        """All triples ``(beta, alpha, beta o alpha)`` in canonical order, built
        at each access."""
        return tuple(zip(*(_names(self.elements, ix) for ix in self.triples)))

    # -- derived arrays --------------------------------------------------------

    @cached_property
    def nu_vec(self) -> np.ndarray:
        return self.weight_vec * self.P_vec[self.tgt]

    @cached_property
    def delta_vec(self) -> np.ndarray:
        return self.nu_vec[self.inv_ix] / self.nu_vec

    _rows = cached_property(lambda G: _layout(G.src, G.tgt, len(G.outcomes)))

    def composed(self, b, a) -> np.ndarray:
        """Indices of ``b o a`` for element indices b and a, broadcast together;
        each pair must compose, s(b) = t(a): another reads an unrelated entry."""
        row_start, fiber_rank, _, _ = self._rows
        return self.compose_ix[row_start[b] + fiber_rank[a]]

    @cached_property
    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays ``(beta, alpha, beta o alpha)`` of all composable pairs,
        in canonical order."""
        row_start, _, by_tgt, at = self._rows
        b = np.repeat(np.arange(len(self.elements)), np.diff(row_start))
        a = by_tgt[np.arange(row_start[-1]) - row_start[b] + at[self.src][b]]
        return b, a, self.compose_ix.astype(np.intp)

    @cached_property
    def fiber_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Target fibers by size s: the outcomes ``xs`` (k,) with fibers of s
        elements, their elements ``F[i, k]`` = ``a_k`` (k, s) over the fiber of
        ``xs[i]`` in canonical order, and ``T[i, k, l]`` = ``inv(a_k) o a_l``,
        so ``phi[T]`` stacks their fiber Grams."""
        row_start, _, by_tgt, at = self._rows
        sizes = np.diff(at)
        blocks = []
        # the distinct sizes, ascending; np.unique would import numpy.ma
        for s in np.flatnonzero(np.bincount(sizes)):
            xs = np.flatnonzero(sizes == s)
            F = by_tgt[at[xs][:, None] + np.arange(s)]
            # the row of inv(a_k) lists inv(a_k) o a over the fiber of t(a_k)
            T = self.compose_ix[row_start[self.inv_ix[F]][:, :, None] + np.arange(s)]
            blocks.append((xs, F, T))
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
        """``pair_grid`` of a pair groupoid with ``nu = 1/n`` on every element,
        the setting of the density-matrix dictionary: uniform P and unit fiber
        weights, so that delta = 1; raises NotPairGroupoid or NonUniformP."""
        if self.pair_grid is None:
            raise NotPairGroupoid("the matrix picture needs a pair groupoid")
        if not numkit.within(np.abs(self.nu_vec - 1.0 / len(self.outcomes)), numkit.TOL).all():
            raise NonUniformP("the matrix picture needs uniform P and unit fiber weights")
        return self.pair_grid


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _measure(outcomes: Sequence[str], P: Mapping[str, float]) -> np.ndarray:
    """P in outcome order, converted by ``numkit._as_array``, once it is
    strictly positive and sums to 1; the first outcome that is missing or not
    strictly positive is named."""
    p = numkit._as_array([P[x] if x in P else np.nan for x in outcomes], (len(outcomes),),
                         BadMeasure, "P", float)
    k = _first(~(p > 0.0) | ~np.isfinite(p))
    if k is not None:
        x = outcomes[k]
        if x not in P:
            raise BadMeasure(f"P missing outcome {x!r}")
        raise BadMeasure(f"P({x!r}) = {P[x]} is not strictly positive")
    total = sum(p.tolist())
    if not numkit.within(abs(total - 1.0), numkit.TOL):
        raise BadMeasure(f"P sums to {total}, expected 1")
    return p


def _first(mask: np.ndarray) -> Optional[int]:
    """Position of the first True entry of a flat mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _layout(src: np.ndarray, tgt: np.ndarray, n_outcomes: int):
    """``(row_start, fiber_rank, by_tgt, at)``: the row of b in ``compose_ix``
    starts at ``row_start[b]`` (``row_start[-1]`` counts the pairs), a has
    place ``fiber_rank[a]`` in its target fiber, and the target fiber of x is
    ``by_tgt[at[x]:at[x + 1]]``."""
    at = np.concatenate([[0], np.cumsum(np.bincount(tgt, minlength=n_outcomes))])
    by_tgt = np.argsort(tgt, kind="stable")
    fiber_rank = np.empty(len(tgt), dtype=np.intp)
    fiber_rank[by_tgt] = np.arange(len(tgt)) - at[tgt[by_tgt]]
    row_start = np.concatenate([[0], np.cumsum(np.diff(at)[src])])
    return row_start, fiber_rank, by_tgt, at


def _packed(src: np.ndarray, tgt: np.ndarray, n_outcomes: int, b, a, g):
    """``compose_ix`` of the rows ``b o a = g``, -1 where no row lists a
    composable pair, and the keys ``b * |elements| + a`` of the stray rows."""
    row_start, fiber_rank, _, _ = _layout(src, tgt, n_outcomes)
    fits = src[b] == tgt[a]
    C = np.full(row_start[-1], -1, dtype=np.int32)
    C[row_start[b[fits]] + fiber_rank[a[fits]]] = g[fits]
    return C, (b * len(src) + a)[~fits]


def _ix(labels, index: Mapping[str, int]) -> np.ndarray:
    """``index[label]`` for every label; KeyError on an unknown label."""
    return np.fromiter(map(index.__getitem__, labels), dtype=np.intp)


def _declared(label, index: Mapping) -> bool:
    """``label in index``, False for an unhashable label."""
    try:
        return label in index
    except TypeError:
        return False


def _id_index(ids: tuple, kind: str) -> dict:
    """id -> its place in ``ids``; SchemaError naming the first id that is
    not hashable."""
    index = {}
    for i, x in enumerate(ids):
        try:
            index[x] = i
        except TypeError:
            raise SchemaError(f"{kind} id {x!r} is not hashable") from None
    return index


def _schema_defect(spec: GroupoidSpec, rows, oix: dict, eix: dict) -> None:
    """Raise SchemaError for the first ill-formed entry: the source, target
    and inverse of each element in turn, then the compose rows, then units."""
    for a in spec.elements:
        for table, name, domain in ((spec.source, "source", oix),
                                    (spec.target, "target", oix),
                                    (spec.inverse, "inverse", eix)):
            if a not in table:
                raise SchemaError(f"{name} table missing element {a!r}")
            if not _declared(table[a], domain):
                raise SchemaError(f"{name}[{a!r}] references undeclared id")
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise SchemaError(f"compose entry {row!r} is not a (beta, alpha, beta o alpha) row")
        if not all(_declared(x, eix) for x in row):
            raise SchemaError(f"compose entry ({row[0]!r},{row[1]!r}) references undeclared id")
    for x in spec.outcomes:
        if x not in spec.units or not _declared(spec.units[x], eix):
            raise SchemaError(f"units table missing outcome {x!r}")


def validate(spec: GroupoidSpec) -> FiniteGroupoid:
    """Check every groupoid axiom on the raw tables and return the groupoid.

    The tables are mapped to index arrays in bulk, the compose rows in one
    pass over their labels, and the axioms are checked on the arrays.  Raises
    the violation class matching the first defect found; the check order is
    hashable ids, measure, table well-formedness (a pair listed twice last),
    units, coherence, inverses, associativity, fiber weights.
    """
    outcomes, elements = tuple(spec.outcomes), tuple(spec.elements)
    oix, eix = _id_index(outcomes, "outcome"), _id_index(elements, "element")
    P = _measure(outcomes, spec.P)
    if len(oix) != len(outcomes) or len(eix) != len(elements):
        raise SchemaError("duplicate outcome or element ids")
    try:
        rows = tuple(spec.compose)  # one pass, so that any iterable of rows will do
    except TypeError:
        raise SchemaError(f"compose {spec.compose!r} is not an iterable of "
                          "(beta, alpha, beta o alpha) rows") from None
    try:
        src, tgt = (_ix(map(table.__getitem__, elements), oix)
                    for table in (spec.source, spec.target))
        inv = _ix(map(spec.inverse.__getitem__, elements), eix)
        if not all(issubclass(r, (list, tuple)) for r in set(map(type, rows))) \
                or set(map(len, rows)) - {3}:
            raise TypeError("a compose row is not (beta, alpha, beta o alpha)")
        b, a, g = _ix(itertools.chain.from_iterable(rows), eix).reshape(-1, 3).T
        unit = _ix(map(spec.units.__getitem__, outcomes), eix)
    except (KeyError, TypeError):
        _schema_defect(spec, rows, oix, eix)
        raise
    keys = np.sort(b * len(elements) + a)  # np.unique would import numpy.ma
    twice = keys[1:][keys[1:] == keys[:-1]]  # the first in (b, a) order is named
    if twice.size:
        b_, a_ = divmod(int(twice[0]), len(elements))
        raise SchemaError(f"compose pair ({elements[b_]!r},{elements[a_]!r}) is listed twice")
    C, stray = _packed(src, tgt, len(outcomes), b, a, g)
    fw = spec.fiber_weight or dict.fromkeys(elements, 1.0)
    w = numkit._as_array([fw.get(e, np.nan) for e in elements], (len(elements),), BadWeight,
                         "fiber_weight", float)
    return _checked(FiniteGroupoid(elements, outcomes, src, tgt, inv, unit, C, P, w), stray)


def _checked(G: FiniteGroupoid, stray=np.empty(0, dtype=np.intp)) -> FiniteGroupoid:
    """G, once it passes the unit, coherence, inverse, associativity and
    fiber-weight checks, in that order; ``stray`` holds the keys
    ``b * |elements| + a`` of the listed pairs that do not compose."""
    s, t, inv, u = G.src, G.tgt, G.inv_ix, G.unit_ix
    beta, alpha, gamma = G.triples
    e, ar, ox = G.elements, np.arange(len(G.elements)), np.arange(len(G.outcomes))

    # units act as identities on both sides
    x = _first((s[u] != ox) | (t[u] != ox))
    if x is not None:
        raise UnitViolation(
            f"unit {e[u[x]]!r} of {G.outcomes[x]!r} is not an endo-transition")
    k = _first((G.composed(ar, u[s]) != ar) | (G.composed(u[t], ar) != ar))
    if k is not None:
        raise UnitViolation(f"a unit does not act as an identity on {e[k]!r}")

    # definedness and coherence: the first pair (b, a) unlisted (-1), stray, or
    # not from s(a) to t(b); s[-1] is read only where gamma < 0 flags it already
    bad = (gamma < 0) | (s[gamma] != s[alpha]) | (t[gamma] != t[beta])
    keys = np.concatenate([stray, beta[bad] * len(e) + alpha[bad]])
    if keys.size:
        b, a = divmod(int(keys.min()), len(e))
        raise CoherenceViolation(f"compose({e[b]!r},{e[a]!r}) breaks s/t coherence")

    # inverses: inv(a) o a and a o inv(a) compose (looked up only then) to units
    bad = (s[inv] != t) | (t[inv] != s)
    ok = np.flatnonzero(~bad)
    bad[ok] = (G.composed(inv[ok], ok) != u[s[ok]]) | (G.composed(ok, inv[ok]) != u[t[ok]])
    k = _first(bad)
    if k is not None:
        raise InverseViolation(f"inverse law fails for {e[k]!r}")

    # associativity on all doubly-composable triples
    triple = _first_nonassociative(G)
    if triple is not None:
        c, b, a = (e[i] for i in triple)
        raise AssociativityViolation(f"(({c!r} o {b!r}) o {a!r}) != ({c!r} o ({b!r} o {a!r}))")

    w = G.weight_vec
    k = _first(~(w > 0.0) | ~np.isfinite(w))
    if k is not None:
        raise BadWeight(f"fiber weight of {e[k]!r} must be a positive number")
    # left invariance of the Haar system: w(alpha o beta) = w(beta)
    k = _first(~numkit.within(np.abs(w[gamma] - w[alpha]), numkit.TOL, np.abs(w[alpha])))
    if k is not None:
        raise BadWeight(f"fiber weights are not left-invariant at "
                        f"compose({e[beta[k]]!r},{e[alpha[k]]!r})")
    return G


# quadruples (c, b, a, result) gathered at a time by the associativity check:
# each index array of a chunk stays within 128 KB, so the check adds little to
# a process's peak memory, and larger chunks are no faster
_CHUNK = 1 << 14


def _first_nonassociative(G: FiniteGroupoid) -> Optional[tuple[int, int, int]]:
    """The first ``(c, b, a)`` with ``(c o b) o a != c o (b o a)``, in the
    order of b, then c, then a, or None; G must pass the coherence check, so
    that every lookup reads a composable pair.

    The middle elements are batched by the sizes ``(m, k)`` of the fibers
    ``s^-1(t(b))`` and ``t^-1(s(b))`` that c and a range over, and each batch
    is checked in chunks of about ``_CHUNK`` quadruples.  The a have fiber
    ranks ``0 .. k-1``, so ``b o a`` and ``(c o b) o a`` are rows of C.
    """
    s, t, C = G.src, G.tgt, G.compose_ix
    row_start, fiber_rank, by_tgt, at_tgt = G._rows
    _, _, by_src, at_src = _layout(t, s, len(G.outcomes))  # the source fibers
    m, k = np.diff(at_src)[t], np.diff(at_tgt)[s]
    size = m * (k.max() + 1) + k
    order = np.argsort(size, kind="stable")
    first = []
    for bs in np.split(order, np.flatnonzero(np.diff(size[order])) + 1):
        mb, kb = m[bs[0]], k[bs[0]]
        step = max(1, _CHUNK // (mb * kb))
        ranks = np.arange(kb)
        for lo in range(0, len(bs), step):
            b = bs[lo:lo + step]
            cs = by_src[at_src[t[b]][:, None] + np.arange(mb)]          # (batch, m)
            cb = C[row_start[cs] + fiber_rank[b][:, None]]              # (batch, m)
            ba = C[row_start[b][:, None] + ranks]                       # (batch, k)
            left = C[row_start[cb][:, :, None] + ranks]
            right = C[row_start[cs][:, :, None] + fiber_rank[ba][:, None, :]]
            hit = np.flatnonzero((left != right).any(axis=(1, 2)))
            if hit.size:  # b ascends within a batch, and c and a within each b
                h = hit[0]
                i, j = np.argwhere(left[h] != right[h])[0]
                first.append((int(cs[h, i]), int(b[h]), int(by_tgt[at_tgt[s[b[h]]] + j])))
                break
    return min(first, key=itemgetter(1), default=None)


def modular_function(G: FiniteGroupoid) -> dict[str, float]:
    """The modular map delta, verified to be a groupoid homomorphism."""
    delta = G.delta_vec
    x = _first(~numkit.within(np.abs(delta[G.unit_ix] - 1.0), numkit.TOL))
    if x is not None:
        raise HomomorphismViolation(f"delta(unit of {G.outcomes[x]!r}) != 1")
    b, a, g = G.triples
    deviation = np.abs(delta[g] - delta[b] * delta[a])
    k = _first(~numkit.within(deviation, numkit.TOL, np.abs(delta[g])))
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
    zx = np.repeat(k[:, None] * n + k, n, axis=0)  # (z,y) o (y,x) = (z,x), over (z, y, x)
    return _checked(FiniteGroupoid(
        elements=tuple(f"({b},{a})" for b in outcomes for a in outcomes),
        outcomes=outcomes, src=x, tgt=y, inv_ix=x * n + y, unit_ix=k * (n + 1),
        compose_ix=zx.ravel(), P_vec=P_vec, weight_vec=np.ones(n * n)))


def trivial_groupoid(n: int, P: Optional[Mapping[str, float]] = None) -> FiniteGroupoid:
    """The trivial groupoid on n outcomes: units only (classical probability)."""
    outcomes, P_vec = _numbered(n, P)
    k = np.arange(n)
    return _checked(FiniteGroupoid(
        elements=tuple(f"1_{x}" for x in outcomes), outcomes=outcomes,
        src=k, tgt=k, inv_ix=k, unit_ix=k, compose_ix=k,
        P_vec=P_vec, weight_vec=np.ones(n)))


def group_groupoid(table: Mapping[tuple[str, str], str],
                   labels: Sequence[str]) -> FiniteGroupoid:
    """A finite group viewed as a one-outcome groupoid.

    ``table[(g, h)]`` is the product g*h.  Raises NotAGroup when the table
    is not a group multiplication table.
    """
    labels = tuple(labels)
    ix = _id_index(labels, "element")
    if len(ix) != len(labels):
        raise SchemaError("duplicate outcome or element ids")
    products = map(table.get, itertools.product(labels, repeat=2))
    # -1 for a product that is no label, unhashable ones too
    M = np.fromiter((ix[g] if _declared(g, ix) else -1 for g in products), dtype=np.intp)
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
    star = np.zeros(len(labels), dtype=np.intp)
    try:  # with an identity and inverses, associativity is the first check to fail
        return _checked(FiniteGroupoid(
            elements=labels, outcomes=("*",), src=star, tgt=star,
            inv_ix=inverse.argmax(axis=1), unit_ix=[e], compose_ix=M.ravel(), P_vec=[1.0],
            weight_vec=np.ones(len(labels))))
    except AssociativityViolation:
        raise NotAGroup("multiplication table is not associative") from None


def cyclic_group_groupoid(n: int) -> FiniteGroupoid:
    """Z_n as a one-outcome groupoid with elements ``g0 .. g{n-1}``."""
    k = np.arange(n)
    return _group(tuple(f"g{i}" for i in range(n)), (k[:, None] + k) % n)


def disjoint_union(G1: FiniteGroupoid, G2: FiniteGroupoid, w: float) -> FiniteGroupoid:
    """Disjoint union, with P re-normalized by the mixing weight w in (0,1)."""
    if not (0.0 < w < 1.0):
        raise BadWeight(f"mixing weight {w} not in (0,1)")
    n1, o1 = len(G1.elements), len(G1.outcomes)
    return _checked(FiniteGroupoid(
        elements=tuple(f"1:{a}" for a in G1.elements) + tuple(f"2:{a}" for a in G2.elements),
        outcomes=tuple(f"1:{x}" for x in G1.outcomes) + tuple(f"2:{x}" for x in G2.outcomes),
        src=np.concatenate([G1.src, G2.src + o1]),
        tgt=np.concatenate([G1.tgt, G2.tgt + o1]),
        inv_ix=np.concatenate([G1.inv_ix, G2.inv_ix + n1]),
        unit_ix=np.concatenate([G1.unit_ix, G2.unit_ix + n1]),
        compose_ix=np.concatenate([G1.compose_ix, G2.compose_ix + n1]),
        P_vec=np.concatenate([w * G1.P_vec, (1.0 - w) * G2.P_vec]),
        weight_vec=np.concatenate([G1.weight_vec, G2.weight_vec])))


def product(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    """Componentwise product groupoid with P = P1 (x) P2; the pair (i, j) has
    index ``i * |factor 2| + j``."""
    n2, o2 = len(G2.elements), len(G2.outcomes)
    elements = tuple(f"{a}*{b}" for a in G1.elements for b in G2.elements)
    outcomes = tuple(f"{x}*{y}" for x in G1.outcomes for y in G2.outcomes)
    if len(set(elements)) < len(elements) or len(set(outcomes)) < len(outcomes):
        raise SchemaError("duplicate outcome or element ids")
    src, tgt = (G1.src[:, None] * o2 + G2.src).ravel(), (G1.tgt[:, None] * o2 + G2.tgt).ravel()
    # (b1, b2) o (a1, a2) = (b1 o a1, b2 o a2), for every pair of composable pairs
    b, a, g = ((x1[:, None] * n2 + x2).ravel() for x1, x2 in zip(G1.triples, G2.triples))
    return _checked(FiniteGroupoid(
        elements=elements, outcomes=outcomes, src=src, tgt=tgt,
        inv_ix=(G1.inv_ix[:, None] * n2 + G2.inv_ix).ravel(),
        unit_ix=(G1.unit_ix[:, None] * n2 + G2.unit_ix).ravel(),
        compose_ix=_packed(src, tgt, len(outcomes), b, a, g)[0],
        P_vec=np.outer(G1.P_vec, G2.P_vec).ravel(),
        weight_vec=np.outer(G1.weight_vec, G2.weight_vec).ravel()))
