import dataclasses

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
    UnknownOutcome,
)
from cencov_ncp.groupoid import has_uniform_P, validate
from conftest import spec_of


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
    assert len(G.outcomes) == 3 and len(G.elements) == 9
    assert G.compose("(3,2)", "(2,1)") == "(3,1)"
    assert G.compose("(3,2)", "(1,2)") is None
    assert G.inv("(3,1)") == "(1,3)"
    assert G.is_unit("(2,2)") and not G.is_unit("(2,1)")


def test_measure_and_modular():
    G = c.pair_groupoid(2, P={"1": 0.25, "2": 0.75})
    assert G.nu("(2,1)") == pytest.approx(0.75)
    # delta(alpha) = P(s)/P(t) for counting weights
    assert G.delta("(2,1)") == pytest.approx(0.25 / 0.75)
    delta = c.modular_function(G)
    assert delta["(1,1)"] == pytest.approx(1.0)


def test_fibers():
    G = c.pair_groupoid(2)
    assert G.target_fiber("1") == ("(1,1)", "(1,2)")
    assert G.source_fiber("2") == ("(1,2)", "(2,2)")
    with pytest.raises(UnknownOutcome):
        G.target_fiber("99")


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


VIEWS = ("source", "target", "inverse_map", "compose_table", "unit_of", "P", "fiber_weight")


def test_string_tables_are_read_only_views_built_on_first_use(tmp_path):
    G = c.pair_groupoid(8)
    fileio.save_groupoid(G, tmp_path / "g.json")
    assert set(VIEWS) <= set(G.__dict__)
    built = [c.pair_groupoid(8),
             c.product(c.pair_groupoid(2), c.cyclic_group_groupoid(3)),
             c.disjoint_union(c.pair_groupoid(2), c.trivial_groupoid(2), 0.3),
             fileio.load_groupoid(tmp_path / "g.json")]
    for H in built:
        assert not set(VIEWS) & set(H.__dict__)
    assert built[-1] == G and built[-1] is not G
    with pytest.raises(TypeError):
        G.source["(1,1)"] = "2"
    with pytest.raises(ValueError):
        G.compose_ix[0, 0] = 1


def test_disjoint_union_measure():
    G = c.disjoint_union(c.trivial_groupoid(2), c.trivial_groupoid(2), 0.25)
    assert sum(G.P.values()) == pytest.approx(1.0)
    assert G.P["1:1"] == pytest.approx(0.125)
    with pytest.raises(BadWeight):
        c.disjoint_union(c.trivial_groupoid(2), c.trivial_groupoid(2), 1.5)


def test_product_structure():
    G = c.product(c.trivial_groupoid(2), c.trivial_groupoid(3))
    assert len(G.outcomes) == 6 and len(G.elements) == 6
    assert has_uniform_P(G)


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
    units = dict(G.unit_of)
    units["1"] = "(1,2)"
    with pytest.raises(UnitViolation):
        validate(dataclasses.replace(spec_of(G), units=units))


def test_coherence_violation_missing_entry():
    G = c.pair_groupoid(2)
    comp = dict(G.compose_table)
    del comp[("(1,2)", "(2,1)")]
    with pytest.raises(CoherenceViolation):
        validate(dataclasses.replace(spec_of(G), compose=comp))


def test_coherence_violation_wrong_result():
    G = c.pair_groupoid(2)
    comp = dict(G.compose_table)
    comp[("(1,2)", "(2,1)")] = "(2,1)"
    with pytest.raises(CoherenceViolation):
        validate(dataclasses.replace(spec_of(G), compose=comp))


def test_inverse_violation():
    G = c.cyclic_group_groupoid(3)
    inv = dict(G.inverse_map)
    inv["g1"] = "g1"
    with pytest.raises(InverseViolation):
        validate(dataclasses.replace(spec_of(G), inverse=inv))


def test_associativity_violation():
    G = c.cyclic_group_groupoid(3)
    comp = dict(G.compose_table)
    comp[("g1", "g1")] = "g1"
    with pytest.raises(AssociativityViolation):
        validate(dataclasses.replace(spec_of(G), compose=comp))


def test_bad_weight():
    G = c.pair_groupoid(2)
    w = dict(G.fiber_weight)
    w["(1,2)"] = -1.0
    with pytest.raises(BadWeight):
        validate(dataclasses.replace(spec_of(G), fiber_weight=w))
    w = dict(G.fiber_weight)
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
    assert all(G.delta(a) == pytest.approx(1.0) for a in G.elements)
