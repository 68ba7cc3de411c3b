"""The array implementations agree with the loop oracles in ``reference.py``.

Every formula is compared on random inputs over pair groupoids with uniform
and with non-uniform P (delta != 1), trivial groupoids, cyclic groups,
products and disjoint unions; values must agree to 1e-12 relative, and
every raised exception must be of the same class.  The constructions must
build equal groupoids, and ill-formed tables and group tables must get the
same error message.  The model interpolant is compared with scipy's splines
on random knots.  The per-fiber GNS blocks are compared with the dense
one-eigensolve construction: spectrum, rank, dense views, Fisher metric and
Cramer-Rao bound, on full-rank and rank-deficient states.
"""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cencov_ncp as c
import reference as ref
from cencov_ncp import fileio, numkit
from cencov_ncp.channels import (
    choi_matrix,
    choi_to_kernel,
    density_from_phi_unchecked,
    phi_from_density_unchecked,
)
from cencov_ncp.errors import CencovNcpError
from cencov_ncp.estimation import StatisticalModel, cramer_rao_bound, fisher_metric
from cencov_ncp.groupoid import validate
from cencov_ncp.states import State, make_state
from conftest import spec_of

SETTINGS = settings(max_examples=40, deadline=None)


def close(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape
    return np.abs(x - y).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(y).max(initial=0.0))


def outcome(fn, *args):
    """``(exception class, None)`` or ``(None, result)`` of a call."""
    try:
        return None, fn(*args)
    except CencovNcpError as exc:
        return type(exc), None


def random_P(draw, n):
    ps = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    return {str(i + 1): p / sum(ps) for i, p in enumerate(ps)}


@st.composite
def groupoids(draw):
    kind = draw(st.sampled_from(
        ["pair", "pair_nonuniform", "trivial", "cyclic", "product", "union"]))
    if kind == "pair":
        return c.pair_groupoid(draw(st.integers(1, 4)))
    if kind == "pair_nonuniform":
        n = draw(st.integers(2, 4))
        return c.pair_groupoid(n, P=random_P(draw, n))
    if kind == "trivial":
        n = draw(st.integers(1, 4))
        return c.trivial_groupoid(n, P=random_P(draw, n))
    if kind == "cyclic":
        return c.cyclic_group_groupoid(draw(st.integers(1, 6)))
    if kind == "product":
        return c.product(c.pair_groupoid(2, P=random_P(draw, 2)),
                         draw(st.sampled_from([c.trivial_groupoid(2),
                                               c.cyclic_group_groupoid(2)])))
    return c.disjoint_union(c.pair_groupoid(2, P=random_P(draw, 2)),
                            c.cyclic_group_groupoid(3),
                            draw(st.floats(0.1, 0.9)))


@st.composite
def weighted_groupoids(draw):
    """``groupoids()`` with a random P and random fiber weights; left
    invariance makes a weight a function of the source."""
    G = draw(groupoids())
    n = len(G.outcomes)
    ps = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    ws = dict(zip(G.outcomes, draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))))
    return validate(dataclasses.replace(
        spec_of(G), P={x: p / sum(ps) for x, p in zip(G.outcomes, ps)},
        fiber_weight={a: ws[G.s(a)] for a in G.elements}))


uniform_pairs = st.integers(1, 5).map(c.pair_groupoid)
pairs_or_any = st.one_of(uniform_pairs, groupoids())


def vectors(draw, n, count=1):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(count)]
    return out if count > 1 else out[0]


@SETTINGS
@given(groupoids())
def test_validate_and_modular_function(G):
    spec = spec_of(G)
    assert validate(spec) == ref.validate(spec)
    new, old = c.modular_function(G), ref.modular_function(G)
    assert list(new) == list(old)
    assert close(list(new.values()), list(old.values()))


@SETTINGS
@given(groupoids(), st.data())
def test_algebra(G, data):
    a, b = (c.AlgebraElement(G, v) for v in vectors(data.draw, len(G.elements), 2))
    assert close(c.convolve(a, b).coeff, ref.convolve(a, b).coeff)
    assert close(c.star(a).coeff, ref.star(a).coeff)
    assert close(c.left_regular_rep(a), ref.left_regular_rep(a))


@SETTINGS
@given(groupoids(), st.data())
def test_fiber_gram_and_gram_matrix(G, data):
    phi = vectors(data.draw, len(G.elements))
    for x in G.outcomes:
        assert close(c.fiber_gram(G, phi, x), ref.fiber_gram(G, phi, x))
    for xs, F, T in G.fiber_blocks:
        for i, f, M in zip(xs, F, phi[T]):
            assert close(M, ref.fiber_gram(G, phi, G.outcomes[i]))
            assert f.tolist() == G.fiber_ix(G.outcomes[i]).tolist()
    assert sorted(np.concatenate([xs for xs, _, _ in G.fiber_blocks])) == list(range(len(G.outcomes)))
    rho = State(G, phi)
    assert close(c.gram_matrix(rho), ref.gram_matrix(rho))


def same_minima(new: dict, old: dict):
    """Same outcome keys in the same order, -inf at the same outcomes, and the
    finite minima within ``close``."""
    assert list(new) == list(old)
    a, b = np.array(list(new.values())), np.array(list(old.values()))
    assert (np.isneginf(a) == np.isneginf(b)).all()
    assert close(a[~np.isneginf(b)], b[~np.isneginf(b)])


def same_report(new, old):
    assert close(new.normalization_deficit, old.normalization_deficit)
    assert close(new.hermiticity_deficit, old.hermiticity_deficit)
    same_minima(new.positivity_min_eigenvalue, old.positivity_min_eigenvalue)
    assert (new.normalization_ok, new.positivity_ok, new.hermiticity_ok) == (
        old.normalization_ok, old.positivity_ok, old.hermiticity_ok)


def same_state_report(new, old):
    same_minima(new.fiber_min_eigenvalue, old.fiber_min_eigenvalue)
    assert close(new.normalization_deficit, old.normalization_deficit)
    assert close(new.symmetry_deficit, old.symmetry_deficit)
    assert (new.psd_ok, new.normalization_ok, new.symmetry_ok) == (
        old.psd_ok, old.normalization_ok, old.symmetry_ok)


def hermitian_rows(G, rows):
    """Project each row onto the phi with ``phi(inv(a)) = conj(phi(a))``, whose
    fiber Grams are Hermitian."""
    return (rows + np.conj(rows[..., G.inv_ix])) / 2.0


tols = st.sampled_from([1e-12, 1e-9, 1e-6])


@SETTINGS
@given(groupoids(), st.sampled_from(["complex", "hermitian", "near", "shifted"]), tols,
       st.data())
def test_check_state(G, kind, tol, data):
    """Arbitrary complex phi (non-Hermitian fibers report -inf), Hermitian phi
    (rarely PSD), Hermitian phi with asymmetry noise below the tolerance (the
    fibers are symmetrized before the eigensolve), and Hermitian phi plus c on
    the units, which adds c I to every fiber Gram (PSD once c passes the most
    negative eigenvalue)."""
    phi = vectors(data.draw, len(G.elements))
    if kind != "complex":
        phi = hermitian_rows(G, phi)
    if kind == "near":
        phi += 1e-3 * tol * vectors(data.draw, len(G.elements))
    if kind == "shifted":
        phi[G.unit_ix] += data.draw(st.floats(0.0, 8.0))
    same_state_report(c.check_state(phi, G, tol), ref.check_state(phi, G, tol))


@pytest.mark.parametrize("kind, phi, tol, verdict", [
    # a fiber Gram [-5e-9] next to a fiber [100]: below -PSD_TOL * (1 + its
    # spectral radius), so not PSD in a state, but above -PSD_TOL * (1 +
    # max|phi|), so a positive kernel row
    ("state", [100.0, -5e-9], 1e-9, False),
    ("kernel", [100.0, -5e-9], 1e-9, True),
    # below -tol but above -PSD_TOL: the PSD bound never drops under PSD_TOL
    ("state", [1.0, -5e-10], 1e-12, True),
    ("kernel", [1.0, -5e-10], 1e-12, True),
])
def test_psd_bound_scale_and_floor(kind, phi, tol, verdict):
    G = c.trivial_groupoid(2)
    phi = np.array(phi, dtype=complex)
    if kind == "state":
        new, old = c.check_state(phi, G, tol), ref.check_state(phi, G, tol)
        same_state_report(new, old)
        assert new.psd_ok is verdict
        assert min(new.fiber_min_eigenvalue.values()) == phi[1].real
    else:
        Pi = c.QuantumKernel(c.trivial_groupoid(1), G, phi[None, :])
        new, old = c.validate_kernel(Pi, tol), ref.validate_kernel(Pi, tol)
        same_report(new, old)
        assert new.positivity_ok is verdict
        assert new.positivity_min_eigenvalue["1"] == phi[1].real


def test_non_finite_phi_raises_like_the_reference():
    G = c.disjoint_union(c.pair_groupoid(2), c.cyclic_group_groupoid(3), 0.5)
    phi = np.ones(len(G.elements), dtype=complex)
    for bad in (np.nan, np.inf):
        phi[-1] = bad
        assert outcome(c.check_state, phi, G)[0] is outcome(ref.check_state, phi, G)[0] \
            is c.NotHermitian


def density_outcome(fn, M):
    """``(message without its trailing number, None)`` or ``(None, result)``."""
    try:
        return None, fn(M)
    except c.InvalidDensity as exc:
        return str(exc).rsplit(" ", 1)[0], None


@SETTINGS
@given(st.integers(1, 4), st.sampled_from(["density", "hermitian", "complex", "shifted"]),
       st.data())
def test_make_density(n, kind, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "density":
        M = M @ M.conj().T / np.trace(M @ M.conj().T).real
    elif kind != "complex":
        M = (M + M.conj().T) / 2.0
        if kind == "shifted":  # unit trace, PSD only for a large enough shift
            M += np.eye(n) * data.draw(st.floats(0.0, 4.0))
            M += np.eye(n) * (1.0 - np.trace(M).real) / n
    (new_msg, new), (old_msg, old) = density_outcome(c.make_density, M), \
        density_outcome(ref.make_density, M)
    assert new_msg == old_msg
    if old_msg is None:
        assert close(new.matrix, old.matrix)


@SETTINGS
@given(groupoids(), groupoids(), tols, st.data())
def test_kernel_axioms(G1, G2, tol, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (len(G1.elements), len(G2.elements))
    Pi = c.QuantumKernel(G1, G2, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    same_report(c.validate_kernel(Pi, tol), ref.validate_kernel(Pi, tol))
    Id = c.identity_kernel(G1)
    same_report(c.validate_kernel(Id, tol), ref.validate_kernel(Id, tol))
    # unit rows Hermitian but not always PSD: the identity plus a Hermitian
    # perturbation, small enough for the row tolerance or not
    n = len(G1.elements)
    H = hermitian_rows(G1, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eps = data.draw(st.sampled_from([1e-13, 1e-11, 1e-6, 1e-2, 1.0]))
    Pert = c.QuantumKernel(G1, G1, Id.pi + eps * H)
    same_report(c.validate_kernel(Pert, tol), ref.validate_kernel(Pert, tol))


@SETTINGS
@given(pairs_or_any, st.data())
def test_density_dictionary(G, data):
    n = len(G.outcomes)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    D = M @ M.conj().T / np.trace(M @ M.conj().T).real
    phi = vectors(data.draw, len(G.elements))
    for new_fn, old_fn, arg in (
        (phi_from_density_unchecked, ref.phi_from_density_unchecked, M),
        (density_from_phi_unchecked, ref.density_from_phi_unchecked, phi),
    ):
        (new_exc, new), (old_exc, old) = outcome(new_fn, arg, G), outcome(old_fn, arg, G)
        assert new_exc is old_exc
        if old_exc is None:
            assert close(new, old)
    (new_exc, new), (old_exc, old) = (outcome(c.state_from_density, D, G),
                                      outcome(ref.state_from_density, D, G))
    assert new_exc is old_exc
    if old_exc is None:
        assert close(new.phi, old.phi)
        assert close(c.density_from_state(new).matrix, ref.density_from_state(old).matrix)


@st.composite
def kraus_cases(draw):
    """Random Kraus families between a drawn pair of groupoids."""
    G1, G2 = draw(pairs_or_any), draw(pairs_or_any)
    n, m = len(G1.outcomes), len(G2.outcomes)
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, _ = np.linalg.qr(rng.normal(size=(k * m, n)) + 1j * rng.normal(size=(k * m, n)))
    if k * m < n:  # too few rows for an isometry: keep the shape, lose completeness
        Q = rng.normal(size=(k * m, n)) + 0j
    return G1, G2, [Q[i * m:(i + 1) * m] for i in range(k)]


@SETTINGS
@given(kraus_cases())
def test_kraus_kernel_and_choi_matrix(case):
    G1, G2, A = case
    (new_exc, new), (old_exc, old) = (outcome(choi_to_kernel, A, G1, G2),
                                      outcome(ref.choi_to_kernel, A, G1, G2))
    assert new_exc is old_exc
    if old_exc is not None:
        return
    assert close(new.pi, old.pi)
    assert close(choi_matrix(new), ref.choi_matrix(old))


@SETTINGS
@given(pairs_or_any, pairs_or_any, st.data())
def test_choi_matrix_guards(G1, G2, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (len(G1.elements), len(G2.elements))
    Pi = c.QuantumKernel(G1, G2, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    (new_exc, new), (old_exc, old) = outcome(choi_matrix, Pi), outcome(ref.choi_matrix, Pi)
    assert new_exc is old_exc
    if old_exc is None:
        assert close(new, old)


# --- planted defects -------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(groupoids(), st.sampled_from(["compose", "inverse", "unit"]), st.data())
def test_planted_defect_same_exception(G, table, data):
    """One mutated table entry gets the same verdict from both validators."""
    spec = spec_of(G)
    new_value = data.draw(st.sampled_from(G.elements))
    if table == "compose":
        key = data.draw(st.sampled_from([(b, a) for b in G.elements for a in G.elements]))
        compose = dict(spec.compose)
        if key in compose and data.draw(st.booleans()):
            del compose[key]
        else:
            compose[key] = new_value
        spec = dataclasses.replace(spec, compose=compose)
    elif table == "inverse":
        key = data.draw(st.sampled_from(G.elements))
        spec = dataclasses.replace(spec, inverse={**spec.inverse, key: new_value})
    else:
        key = data.draw(st.sampled_from(G.outcomes))
        spec = dataclasses.replace(spec, units={**spec.units, key: new_value})
    (new_exc, new), (old_exc, old) = outcome(validate, spec), outcome(ref.validate, spec)
    assert new_exc is old_exc
    assert new == old


def verdict(fn, *args):
    """The result of a call, or the class and message of its library error."""
    try:
        return fn(*args)
    except CencovNcpError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(groupoids(), st.lists(st.tuples(
    st.sampled_from(["source", "target", "inverse", "compose", "units", "P", "fiber_weight"]),
    st.booleans()), min_size=1, max_size=3), st.data())
def test_ill_formed_tables_same_first_defect(G, defects, data):
    """Entries dropped or pointed at an undeclared id, in one or more tables:
    both validators raise the same class with the same message.  P and the
    fiber weights only lose entries; compose entries only change value."""
    spec = spec_of(G)
    for table, drop in defects:
        entries = dict(getattr(spec, table))
        if not entries:
            continue
        key = data.draw(st.sampled_from(sorted(entries)))
        if table in ("P", "fiber_weight") or (drop and table != "compose"):
            del entries[key]
        else:
            entries[key] = "undeclared"
        spec = dataclasses.replace(spec, **{table: entries})
    new = verdict(validate, spec)
    assert new == verdict(ref.validate, spec)
    if not isinstance(new, c.FiniteGroupoid):  # an emptied weight table is counting measure
        assert new[0] in (c.SchemaError, c.BadMeasure, c.BadWeight)


@SETTINGS
@given(weighted_groupoids(), weighted_groupoids(), st.floats(0.05, 0.95))
def test_union_and_product_match_oracles(G1, G2, w):
    assert c.disjoint_union(G1, G2, w) == ref.disjoint_union(G1, G2, w)
    if len(G1.elements) * len(G2.elements) <= 64:  # the oracle is O(|G|^2 |G|^2)
        assert c.product(G1, G2) == ref.product(G1, G2)


@SETTINGS
@given(st.integers(1, 5), st.booleans(), st.data())
def test_pair_and_trivial_match_oracles(n, uniform, data):
    P = None if uniform else random_P(data.draw, n)
    assert c.pair_groupoid(n, P) == ref.pair_groupoid(n, P)
    assert c.trivial_groupoid(n, P) == ref.trivial_groupoid(n, P)


@SETTINGS
@given(st.integers(0, 5), st.lists(st.tuples(st.integers(0, 24), st.integers(0, 5)),
                                   max_size=2))
def test_group_groupoid_matches_oracle(n, changes):
    """Cyclic tables with up to two products changed (to another element, or
    to a missing one): the same groupoid, or the same NotAGroup message."""
    labels = [f"g{i}" for i in range(n)]
    table = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}
    keys = sorted(table)
    for k, v in changes:
        if keys:
            table[keys[k % len(keys)]] = f"g{v}"  # g{v} is undeclared when v >= n
    new = verdict(c.group_groupoid, table, labels)
    assert new == verdict(ref.group_groupoid, table, labels)
    if not changes:
        assert new == verdict(c.cyclic_group_groupoid, n)


def test_planted_defect_classes_are_reached():
    """Fixed mutations reach every structural violation class, each with the
    reference's verdict."""
    G = c.cyclic_group_groupoid(3)
    spec = spec_of(G)
    seen = set()
    for table, key in [("compose", ("g1", "g1")), ("compose", ("g0", "g1")),
                       ("compose", ("g1", "g2")), ("inverse", "g1"), ("unit", "*")]:
        for value in G.elements:
            if table == "compose":
                mutated = dataclasses.replace(spec, compose={**spec.compose, key: value})
            elif table == "inverse":
                mutated = dataclasses.replace(spec, inverse={**spec.inverse, key: value})
            else:
                mutated = dataclasses.replace(spec, units={**spec.units, key: value})
            exc, _ = outcome(validate, mutated)
            assert exc is outcome(ref.validate, mutated)[0]
            seen.add(exc)
    pair = spec_of(c.pair_groupoid(2))
    del pair.compose[("(1,2)", "(2,1)")]
    exc, _ = outcome(validate, pair)
    seen.add(exc)
    # g2 is a left inverse of g1 but not a right one; the inverse table is no
    # longer an involution, so only the right-inverse law catches it
    lopsided = dataclasses.replace(
        spec, compose={**spec.compose, ("g1", "g2"): "g1", ("g2", "g2"): "g0"},
        inverse={**spec.inverse, "g2": "g2"})
    exc, _ = outcome(validate, lopsided)
    assert exc is outcome(ref.validate, lopsided)[0] is c.InverseViolation
    assert {c.AssociativityViolation, c.InverseViolation, c.UnitViolation,
            c.CoherenceViolation} <= seen


@pytest.mark.parametrize("G", [
    c.pair_groupoid(6),
    c.pair_groupoid(5, P={"1": 0.1, "2": 0.15, "3": 0.2, "4": 0.25, "5": 0.3}),
    c.product(c.pair_groupoid(3), c.cyclic_group_groupoid(3)),
], ids=["pair6", "pair5-nonuniform", "pair3xZ3"])
def test_larger_groupoids(G):
    spec = spec_of(G)
    assert validate(spec) == ref.validate(spec)
    rng = np.random.default_rng(7)
    n = len(G.elements)
    a, b = (c.AlgebraElement(G, rng.normal(size=n) + 1j * rng.normal(size=n)) for _ in range(2))
    assert close(c.convolve(a, b).coeff, ref.convolve(a, b).coeff)
    assert close(c.left_regular_rep(a), ref.left_regular_rep(a))
    rho = State(G, a.coeff)
    assert close(c.gram_matrix(rho), ref.gram_matrix(rho))


@SETTINGS
@given(st.integers(2, 8), st.data())
def test_cubic_interpolant(K, data):
    """At the knots, between them and past both ends; spacings within a
    factor 5 of each other, on a random scale."""
    h = np.array(data.draw(st.lists(st.floats(1.0, 5.0), min_size=K - 1, max_size=K - 1)))
    h *= data.draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
    x = data.draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(h)])
    y = np.array(vectors(data.draw, 3, K))
    new, old = fileio._cubic(x, y), ref.cubic_interpolant(x, y)
    span = x[-1] - x[0]
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    points = np.concatenate([x, x[:-1] + u[0] * h, x[0] - span * u[1:3], x[-1] + span * u[2:]])
    for s in points:
        assert close(new(s), old(s))


def test_load_model_matches_oracle_curve(tmp_path):
    """A pair(3) model file on uneven knots gives the Fisher metric and the
    Cramer-Rao bound of the same states interpolated by the oracle."""
    G = c.pair_groupoid(3)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    D0 = 0.5 * A @ A.conj().T / np.trace(A @ A.conj().T).real + np.eye(3) / 6.0
    H1, H2 = ((B + B.conj().T) / 20.0 for B in (rng.normal(size=(3, 3)) + 0j for _ in range(2)))
    H1, H2 = (H - np.trace(H) * np.eye(3) / 3.0 for H in (H1, H2))
    fileio.save_groupoid(G, tmp_path / "g.json")
    knots = [-0.3, -0.2, 0.0, 0.05, 0.3]
    states = {}
    for k, s in enumerate(knots):
        states[repr(s)] = f"s{k}.json"
        D = D0 + np.sin(3.0 * s) * H1 + s * s * H2
        fileio.save_state(c.state_from_density(D, G), tmp_path / states[repr(s)], "g.json")
    (tmp_path / "model.json").write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "g.json", "s0": 0.1, "interval": [-0.4, 0.4],
        "states": states}))
    M, _ = fileio.load_model(tmp_path / "model.json")
    phis = np.array([fileio.load_state_file(tmp_path / f)[1] for f in states.values()])
    at = ref.cubic_interpolant(np.array(knots), phis)
    O = StatisticalModel(groupoid=M.groupoid, curve=lambda s: make_state(M.groupoid, at(s)),
                         s0=M.s0, interval=M.interval)
    for s in (-0.35, -0.2, 0.1, 0.37):
        assert close(M.at(s).phi, O.at(s).phi)
    S = c.build_gns(M.at(M.s0))
    assert fisher_metric(M, S) == pytest.approx(fisher_metric(O, S), rel=1e-8)
    assert cramer_rao_bound(M, S) == pytest.approx(cramer_rao_bound(O, S), rel=1e-8)


# --- block-diagonal GNS against the dense oracle -------------------------------

def vector_phi(G, xi):
    """``phi(g) = sum_{t(h) = s(g)} conj(xi(g o h)) xi(h)``, normalized: the
    fiber Gram of x is ``sum_c eta_c eta_c†`` over c in the fiber, with
    ``eta_c[k] = xi(inv(a_k) o c)``, so phi is a state whose fiber ranks are at
    most the number of c with ``xi`` nonzero on their source."""
    b, a, g = G.triples
    terms = np.conj(xi[g]) * xi[a]
    n = len(G.elements)
    phi = np.bincount(b, terms.real, n) + 1j * np.bincount(b, terms.imag, n)
    return phi / (phi[G.unit_ix] @ G.P_vec).real


@st.composite
def gns_models(draw):
    """A model ``s -> vector_phi(xi + s zeta)`` at s0 = 0 on a groupoid from
    ``groupoids()``.  xi lives on the elements whose source is in a drawn set
    Y of outcomes, so the base state is rank-deficient when Y misses
    outcomes.  ``zeta = xi . c`` with c on transitions inside Y keeps the
    curve in the folium of the base state; a zeta drawn freely may leave it."""
    G = draw(groupoids())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = len(G.outcomes), len(G.elements)
    Y = draw(st.sets(st.integers(0, m - 1), min_size=1))
    on_y = np.isin(G.src, list(Y))
    xi = on_y * (rng.normal(size=n) + 1j * rng.normal(size=n))
    zeta = rng.normal(size=n) + 1j * rng.normal(size=n)
    if draw(st.booleans()):
        inside = zeta * (on_y & np.isin(G.tgt, list(Y)))
        zeta = c.convolve(c.AlgebraElement(G, xi), c.AlgebraElement(G, inside)).coeff
    return StatisticalModel(G, lambda s: make_state(G, vector_phi(G, xi + s * zeta)),
                            s0=0.0, interval=(-1e-3, 1e-3))


def same_spectrum_and_views(S, D):
    lam = np.abs(D.gram_eigenvalues).max()
    assert np.abs(S.gram_eigenvalues - D.gram_eigenvalues).max() <= 1e-12 * lam
    assert S.dim == D.dim == S.quotient_basis.shape[1]
    assert S.ideal_basis.shape == D.ideal_basis.shape
    assert close(S.gram, D.gram)
    Q = S.quotient_basis
    assert np.abs(Q.conj().T @ S.gram @ Q - np.eye(S.dim)).max() <= 1e-9


@SETTINGS
@given(gns_models())
def test_block_gns_matches_dense_oracle(M):
    """Spectrum, rank, views, Fisher metric and Cramer-Rao bound of the
    per-fiber blocks equal those of one dense eigensolve, or both raise the
    same error."""
    rho = M.at(M.s0)
    S, D = c.build_gns(rho), ref.build_gns(rho)
    (new_exc, new), (old_exc, old) = (outcome(fisher_metric, M, S),
                                      outcome(ref.fisher_metric, M, D))
    assert new_exc is old_exc
    if old_exc is None:
        assert close(new, old)
        (new_exc, new), (old_exc, old) = (outcome(cramer_rao_bound, M, S),
                                          outcome(ref.cramer_rao_bound, M, D))
        assert new_exc is old_exc
        assert old_exc is not None or close(new, old)
    same_spectrum_and_views(S, D)


def test_rank_threshold_is_global_over_blocks():
    """The Z3 fibers of ``pair(2) + Z3`` carry a Gram block whose largest
    eigenvalue is positive but below RANK_TOL times the pair block's: a
    per-block threshold would keep it, the global one drops it."""
    G = c.disjoint_union(c.pair_groupoid(2, P={"1": 0.3, "2": 0.7}),
                         c.cyclic_group_groupoid(3), 0.4)
    rng = np.random.default_rng(11)
    xi = rng.normal(size=7) + 1j * rng.normal(size=7)
    xi[4:] *= 1e-6  # the Z3 elements: their Gram block scales by 1e-12
    rho = make_state(G, vector_phi(G, xi))
    S, D = c.build_gns(rho), ref.build_gns(rho)
    top = {F.shape[1]: w.max() for F, _, w, _, _ in S.blocks}  # by fiber size
    assert 0.0 < top[3] < numkit.RANK_TOL * top[2]
    assert S.dim == D.dim == 4
    same_spectrum_and_views(S, D)
