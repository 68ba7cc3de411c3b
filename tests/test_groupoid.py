import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cencov_ncp as c
from cencov_ncp import fileio
from cencov_ncp.errors import (
    AssociativityViolation,
    BadMeasure,
    BadWeight,
    CoherenceViolation,
    HomomorphismViolation,
    InverseViolation,
    NotAGroup,
    SchemaError,
    UnitViolation,
)
from cencov_ncp.groupoid import validate
from conftest import rows, spec_of
from reference import label_tables


def test_standard_constructions_validate():
    for G in (
        c.pair_groupoid(2), c.pair_groupoid(4), c.trivial_groupoid(3),
        c.cyclic_group_groupoid(2), c.cyclic_group_groupoid(3),
        c.product(c.pair_groupoid(2), c.trivial_groupoid(2)),
        c.disjoint_union(c.pair_groupoid(2), c.trivial_groupoid(3), 0.5),
    ):
        validate(spec_of(G))
        c.modular_function(G)


def test_pair_groupoid_counts():
    G = c.pair_groupoid(3)
    T = label_tables(G)
    assert len(G.outcomes) == 3 and len(G.elements) == 9
    assert T.compose.get(("(3,2)", "(2,1)")) == "(3,1)"
    assert T.compose.get(("(3,2)", "(1,2)")) is None
    assert T.inverse["(3,1)"] == "(1,3)"
    assert T.units[T.source["(2,2)"]] == "(2,2)" and T.units[T.source["(2,1)"]] != "(2,1)"


def test_measure_and_modular():
    G = c.pair_groupoid(2, P={"1": 0.25, "2": 0.75})
    T = label_tables(G)
    assert T.nu["(2,1)"] == pytest.approx(0.75)
    # delta(alpha) = P(s)/P(t) for counting weights
    assert T.delta["(2,1)"] == pytest.approx(0.25 / 0.75)
    delta = c.modular_function(G)
    assert delta["(1,1)"] == pytest.approx(1.0)


def test_fibers():
    G = c.pair_groupoid(2)
    source = label_tables(G).source
    (xs, F, _), = G.fiber_blocks
    assert xs.tolist() == [0, 1] and tuple(G.elements[i] for i in F[0]) == ("(1,1)", "(1,2)")
    assert tuple(a for a in G.elements if source[a] == "2") == ("(1,2)", "(2,2)")


def test_group_groupoid_rejects_non_group():
    labels = ["e", "a"]
    table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}
    with pytest.raises(NotAGroup):
        c.group_groupoid(table, labels)


def test_group_groupoid_rejects_duplicate_labels():
    table = {(g, h): "e" for g in "ee" for h in "ee"}
    with pytest.raises(SchemaError):
        c.group_groupoid(table, ["e", "e"])


def test_product_rejects_colliding_labels():
    def z2(e, g):
        return c.group_groupoid({(e, e): e, (e, g): g, (g, e): g, (g, g): e}, [e, g])

    # ("x", "*y") and ("x*", "y") are both labelled "x**y"
    with pytest.raises(SchemaError):
        c.product(z2("x", "x*"), z2("*y", "y"))


def test_saved_groupoid_loads_equal_with_read_only_arrays(tmp_path):
    G = c.pair_groupoid(8)
    fileio.save_groupoid(G, tmp_path / "g.json")
    H = fileio.load_groupoid(tmp_path / "g.json")
    assert H == G and H is not G
    with pytest.raises(ValueError):
        G.compose_ix[0] = 1


def test_compose_ix_holds_one_entry_per_composable_pair():
    """pair(3) has 27 composable pairs: ``compose_ix`` lists their products
    row by row, and the constructor takes no other shape, such as the dense
    9 x 9 matrix with -1 where a pair does not compose."""
    G = c.pair_groupoid(3)
    b, a, g = G.triples
    assert G.compose_ix.shape == (27,)
    assert np.array_equal(G.composed(b, a), g)
    assert dataclasses.replace(G, compose_ix=G.compose_ix.copy()) == G
    dense = np.full((9, 9), -1)
    dense[b, a] = g
    for C in (dense, G.compose_ix.reshape(3, 9), G.compose_ix[:-1]):
        with pytest.raises(SchemaError, match="one entry per composable pair"):
            dataclasses.replace(G, compose_ix=C)


def test_pair_groupoid_memory_follows_the_composable_pairs():
    """pair(64) has 262 144 composable pairs but 16.8 M pairs of elements:
    building it, its triples and its fiber blocks stays under 40 MB traced,
    below one int32 array over all pairs of elements (67 MB)."""
    tracemalloc.start()
    try:
        G = c.pair_groupoid(64)
        G.triples, G.fiber_blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_group_memory_follows_the_table():
    """Z_200: building it stays under 16 MB traced, far below one |G|^3
    array of indices (64 MB), since associativity is checked in chunks."""
    tracemalloc.start()
    try:
        c.cyclic_group_groupoid(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_repeated_compose_pair_is_named():
    """Of two pairs listed twice, with any results and in either order, the
    first in (beta, alpha) element order is named, as coherence names its
    first defect."""
    G = c.pair_groupoid(3)
    spec = spec_of(G)
    compose = list(spec.compose)  # in (beta, alpha) element order
    assert compose[1][:2] == ("(1,1)", "(1,2)")
    copies = [(*compose[5][:2], compose[0][2]), compose[1]]
    for extra in (copies, copies[::-1]):
        with pytest.raises(SchemaError) as exc:
            validate(dataclasses.replace(spec, compose=compose + extra))
        assert str(exc.value) == "compose pair ('(1,1)','(1,2)') is listed twice"


@pytest.mark.parametrize("bad, named", [
    # lengths 2 and 4: six labels in all, a multiple of three
    ([("(1,1)", "(1,1)"), ("(1,2)", "(2,2)", "(1,2)", "(1,1)")], "('(1,1)', '(1,1)')"),
    ([("(1,2)", "(2,2)", "(1,2)", "(1,1)"), ("(1,1)", "(1,1)")],
     "('(1,2)', '(2,2)', '(1,2)', '(1,1)')"),
    (["abc"], "'abc'"),
    ([{"(1,1)": 0, "(1,2)": 1, "(2,2)": 2}], "{'(1,1)': 0, '(1,2)': 1, '(2,2)': 2}"),
], ids=["2-then-4", "4-then-2", "string", "dict"])
def test_misshapen_compose_row_is_named(bad, named):
    """A row that is not a list or tuple of three labels is a schema error
    naming the first such row."""
    spec = spec_of(c.pair_groupoid(2))
    with pytest.raises(SchemaError) as exc:
        validate(dataclasses.replace(spec, compose=[*spec.compose[:2], *bad]))
    assert str(exc.value) == f"compose entry {named} is not a (beta, alpha, beta o alpha) row"


@pytest.mark.parametrize("G", [
    c.pair_groupoid(2), c.product(c.pair_groupoid(2), c.cyclic_group_groupoid(2)),
], ids=["pair2", "product"])
def test_compose_rows_may_be_any_iterable(G):
    """The rows are read once: an iterator of them validates as their list
    does, and a defect among them is named as in the list."""
    spec = spec_of(G)
    assert validate(dataclasses.replace(spec, compose=iter(spec.compose))) == G
    b, a, _ = spec.compose[-1]
    bad = [*spec.compose[:-1], (b, a, "x")]
    for compose in (bad, (row for row in bad)):
        with pytest.raises(SchemaError) as exc:
            validate(dataclasses.replace(spec, compose=compose))
        assert str(exc.value) == f"compose entry ({b!r},{a!r}) references undeclared id"


UNHASHABLE = {
    "source": (lambda s: {"source": {**s.source, "(1,2)": ["1"]}},
               "source['(1,2)'] references undeclared id"),
    "target": (lambda s: {"target": {**s.target, "(1,2)": ["2"]}},
               "target['(1,2)'] references undeclared id"),
    "inverse": (lambda s: {"inverse": {**s.inverse, "(1,2)": ["(2,1)"]}},
                "inverse['(1,2)'] references undeclared id"),
    "compose": (lambda s: {"compose": [*s.compose[:1], ("(1,1)", "(1,2)", ["(1,2)"]),
                                       *s.compose[2:]]},
                "compose entry ('(1,1)','(1,2)') references undeclared id"),
    "units": (lambda s: {"units": {**s.units, "2": ["(2,2)"]}},
              "units table missing outcome '2'"),
    "elements": (lambda s: {"elements": [*s.elements[:1], ["(1,2)"], *s.elements[2:]]},
                 "element id ['(1,2)'] is not hashable"),
    "outcomes": (lambda s: {"outcomes": ["1", ["2"]]}, "outcome id ['2'] is not hashable"),
}


@pytest.mark.parametrize("table", sorted(UNHASHABLE))
def test_unhashable_label_is_a_schema_error(table):
    """A label that cannot be looked up (a list) is a SchemaError naming it,
    not a TypeError: in a table an undeclared id, named like any other, and in
    ``elements`` or ``outcomes`` an id that is not hashable."""
    mutate, message = UNHASHABLE[table]
    spec = spec_of(c.pair_groupoid(2))
    with pytest.raises(SchemaError) as exc:
        validate(dataclasses.replace(spec, **mutate(spec)))
    assert str(exc.value) == message


@pytest.mark.parametrize("table, labels, error, message", [
    ({}, [["a"]], SchemaError, "element id ['a'] is not hashable"),
    ({("a", "a"): ["a"]}, ["a"], NotAGroup, "product of 'a' and 'a' missing or out of range"),
], ids=["label", "product"])
def test_unhashable_group_label_or_product(table, labels, error, message):
    """``group_groupoid`` indexes its labels as ``validate`` does its ids, and
    a product that cannot be looked up (a list) is no label, like any other."""
    with pytest.raises(error) as exc:
        c.group_groupoid(table, labels)
    assert str(exc.value) == message


@pytest.mark.parametrize("compose", [None, 5])
def test_compose_that_is_not_iterable_is_a_schema_error(compose):
    spec = spec_of(c.pair_groupoid(2))
    with pytest.raises(SchemaError) as exc:
        validate(dataclasses.replace(spec, compose=compose))
    assert str(exc.value) == (f"compose {compose!r} is not an iterable of "
                              "(beta, alpha, beta o alpha) rows")


def test_disjoint_union_measure():
    G = c.disjoint_union(c.trivial_groupoid(2), c.trivial_groupoid(2), 0.25)
    P = label_tables(G).P
    assert sum(P.values()) == pytest.approx(1.0)
    assert P["1:1"] == pytest.approx(0.125)
    with pytest.raises(BadWeight):
        c.disjoint_union(c.trivial_groupoid(2), c.trivial_groupoid(2), 1.5)


def test_product_structure():
    G = c.product(c.trivial_groupoid(2), c.trivial_groupoid(3))
    assert len(G.outcomes) == 6 and len(G.elements) == 6
    assert np.allclose(G.P_vec, 1 / 6)


# --- planted violations --------------------------------------------------

def test_bad_measure():
    G = c.pair_groupoid(2)
    spec = dataclasses.replace(spec_of(G), P={"1": 0.5, "2": 0.6})
    with pytest.raises(BadMeasure):
        validate(spec)
    spec = dataclasses.replace(spec_of(G), P={"1": 1.2, "2": -0.2})
    with pytest.raises(BadMeasure):
        validate(spec)


def test_unit_violation():
    G = c.pair_groupoid(2)
    units = label_tables(G).units
    units["1"] = "(1,2)"
    with pytest.raises(UnitViolation):
        validate(dataclasses.replace(spec_of(G), units=units))


def test_coherence_violation_missing_entry():
    G = c.pair_groupoid(2)
    comp = label_tables(G).compose
    del comp[("(1,2)", "(2,1)")]
    with pytest.raises(CoherenceViolation):
        validate(dataclasses.replace(spec_of(G), compose=rows(comp)))


def test_coherence_violation_wrong_result():
    G = c.pair_groupoid(2)
    comp = label_tables(G).compose
    comp[("(1,2)", "(2,1)")] = "(2,1)"
    with pytest.raises(CoherenceViolation):
        validate(dataclasses.replace(spec_of(G), compose=rows(comp)))


def test_inverse_violation():
    G = c.cyclic_group_groupoid(3)
    inv = label_tables(G).inverse
    inv["g1"] = "g1"
    with pytest.raises(InverseViolation):
        validate(dataclasses.replace(spec_of(G), inverse=inv))


def test_inverse_outside_its_fibers():
    """The inverse of the last element, a unit with one-entry row, set to an
    element of fiber rank 2 elsewhere: neither product composes, and looking
    either up would read past the compose array or an unrelated entry."""
    G = c.disjoint_union(c.pair_groupoid(3), c.pair_groupoid(1), 0.5)
    inv = {**label_tables(G).inverse, "2:(1,1)": "1:(1,3)"}
    with pytest.raises(InverseViolation, match="'2:\\(1,1\\)'"):
        validate(dataclasses.replace(spec_of(G), inverse=inv))


def test_associativity_violation():
    G = c.cyclic_group_groupoid(3)
    comp = label_tables(G).compose
    comp[("g1", "g1")] = "g1"
    with pytest.raises(AssociativityViolation):
        validate(dataclasses.replace(spec_of(G), compose=rows(comp)))


def test_bad_weight():
    G = c.pair_groupoid(2)
    w = label_tables(G).fiber_weight
    w["(1,2)"] = -1.0
    with pytest.raises(BadWeight):
        validate(dataclasses.replace(spec_of(G), fiber_weight=w))
    w = label_tables(G).fiber_weight
    w["(1,2)"] = 2.0  # breaks left invariance
    with pytest.raises(BadWeight):
        validate(dataclasses.replace(spec_of(G), fiber_weight=w))


def test_modular_homomorphism_guard():
    # hand-build a groupoid object with inconsistent weights to trip the check;
    # needs isotropy: on Z_3, w(g1) != w(g2) makes delta non-multiplicative
    G = c.cyclic_group_groupoid(3)
    w = G.weight_vec.copy()
    w[G.index["g1"]] = 2.0
    broken = dataclasses.replace(G, weight_vec=w)
    with pytest.raises(HomomorphismViolation):
        c.modular_function(broken)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
def test_random_measures_validate(ps):
    total = sum(ps)
    P = {str(i + 1): p / total for i, p in enumerate(ps)}
    G = c.pair_groupoid(len(ps), P=P)
    delta = c.modular_function(G)
    # delta is multiplicative along every composable pair
    for b, a, g in G.composable_pairs:
        assert delta[g] == pytest.approx(delta[b] * delta[a], rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6))
def test_cyclic_groups_validate(n):
    G = c.cyclic_group_groupoid(n)
    assert len(G.elements) == n
    assert all(d == pytest.approx(1.0) for d in label_tables(G).delta.values())
