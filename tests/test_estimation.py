import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cencov_ncp as c
from cencov_ncp.errors import (
    FoliumViolation,
    IntervalExceeded,
    NoConvergence,
    NotCongruent,
    NotSelfAdjoint,
    SupportBoundary,
    ZeroInformation,
)
from cencov_ncp.estimation import (
    Estimator,
    StatisticalModel,
    check_unbiased,
    classical_fisher_rao,
    coin_model,
    congruent_invariance,
    cramer_rao_audit,
    cramer_rao_bound,
    fisher_metric,
    qubit_z_model,
    riesz_representer,
)
from cencov_ncp.gns import build_gns

from conftest import random_density


def gns_at_base(M):
    return build_gns(M.at(M.s0))


# --- coin ------------------------------------------------------------------

def test_coin_fisher_is_4():
    M = coin_model(0.0)
    assert classical_fisher_rao(M) == pytest.approx(4.0, abs=1e-4)
    assert fisher_metric(M, gns_at_base(M)) == pytest.approx(4.0, abs=1e-4)


def test_coin_fisher_at_quarter():
    M = coin_model(0.25, half_width=0.2)
    assert classical_fisher_rao(M) == pytest.approx(16.0 / 3.0, abs=1e-5)


def test_coin_bound_and_saturation(triv2):
    M = coin_model(0.0)
    S = gns_at_base(M)
    assert cramer_rao_bound(M, S) == pytest.approx(0.25, abs=1e-4)
    A = Estimator(c.element_from_dict(triv2, {"1_1": 0.5, "1_2": -0.5}))
    rep = check_unbiased(M, A, [-0.1, 0.0, 0.1])
    assert rep.passed
    audit = cramer_rao_audit(M, A, cramer_rao_bound(M, S))
    assert audit.second_moment == pytest.approx(0.25, abs=1e-12)
    assert audit.saturated


def test_constant_model_zero_information(triv2):
    M = StatisticalModel(
        groupoid=triv2,
        curve=lambda s: c.classical_state(triv2, [0.5, 0.5]),
        s0=0.0, interval=(-0.5, 0.5),
    )
    assert classical_fisher_rao(M) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ZeroInformation):
        cramer_rao_bound(M, gns_at_base(M))


def test_support_boundary():
    G = c.trivial_groupoid(2)
    M = StatisticalModel(
        groupoid=G,
        curve=lambda s: c.classical_state(G, [1.0 - abs(s), abs(s)]),
        s0=0.0, interval=(-0.5, 0.5),
    )
    with pytest.raises(SupportBoundary):
        classical_fisher_rao(M)


# --- qubit -----------------------------------------------------------------

def test_qubit_fisher_at_zero():
    M = qubit_z_model(0.0)
    S = gns_at_base(M)
    assert fisher_metric(M, S) == pytest.approx(1.0, abs=1e-4)
    assert cramer_rao_bound(M, S) == pytest.approx(1.0, abs=1e-4)


def test_qubit_fisher_closed_form():
    # G_F = 1 / (1 - s^2) for the sigma_z family
    for s0 in (0.25, 0.5):
        M = qubit_z_model(s0, half_width=0.3)
        assert fisher_metric(M, gns_at_base(M)) == pytest.approx(
            1.0 / (1.0 - s0 * s0), abs=1e-3)


def test_qubit_sigma_z_saturates():
    M = qubit_z_model(0.0)
    S = gns_at_base(M)
    A = Estimator(c.element_from_matrix(M.groupoid, np.diag([1.0, -1.0])))
    assert check_unbiased(M, A, [-0.2, 0.0, 0.2]).passed
    audit = cramer_rao_audit(M, A, cramer_rao_bound(M, S))
    assert audit.slack <= 1e-4
    assert audit.saturated


def test_qubit_sigma_z_plus_x_slack_one():
    M = qubit_z_model(0.0)
    S = gns_at_base(M)
    sz_sx = np.array([[1.0, 1.0], [1.0, -1.0]])
    A = Estimator(c.element_from_matrix(M.groupoid, sz_sx))
    assert check_unbiased(M, A, [-0.2, 0.0, 0.2]).passed
    audit = cramer_rao_audit(M, A, cramer_rao_bound(M, S))
    assert audit.slack == pytest.approx(1.0, abs=1e-3)
    assert not audit.saturated


def test_estimator_rejects_non_self_adjoint(pair2):
    a = c.element_from_matrix(pair2, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSelfAdjoint):
        Estimator(a)


def test_interval_guard():
    M = coin_model(0.0)
    with pytest.raises(IntervalExceeded):
        M.at(0.7)


# --- oracle identity -------------------------------------------------------

def oracle_fisher(D0, Dprime):
    return float(np.real(np.trace(Dprime @ np.linalg.inv(D0) @ Dprime)))


def density_curve_model(G, D0, H, width=0.05):
    def curve(s):
        return c.state_from_density(D0 + s * H, G)

    return StatisticalModel(groupoid=G, curve=curve, s0=0.0,
                            interval=(-width, width))


def test_oracle_identity_pair2_and_pair3():
    rng = np.random.default_rng(30)
    for n in (2, 3):
        G = c.pair_groupoid(n)
        for _ in range(5):
            D0 = 0.6 * np.eye(n) / n + 0.4 * random_density(rng, n)
            H = random_density(rng, n) - random_density(rng, n)
            H = 0.05 * (H + H.conj().T) / 2.0
            M = density_curve_model(G, D0, H)
            gf = fisher_metric(M, gns_at_base(M))
            assert gf == pytest.approx(oracle_fisher(D0, H), abs=1e-6 + 1e-4 * abs(gf))


def test_reparametrization_quadruples_fisher():
    M = qubit_z_model(0.0)
    G = M.groupoid

    def curve2(s):
        return M.curve(2.0 * s)

    M2 = StatisticalModel(groupoid=G, curve=curve2, s0=0.0, interval=(-0.2, 0.2))
    g1 = fisher_metric(M, gns_at_base(M))
    g2 = fisher_metric(M2, gns_at_base(M2))
    assert g2 == pytest.approx(4.0 * g1, rel=1e-6)
    assert cramer_rao_bound(M2, gns_at_base(M2)) == pytest.approx(
        0.25 * cramer_rao_bound(M, gns_at_base(M)), rel=1e-6)


def test_finite_difference_consistency():
    # error against the closed form shrinks ~4x when h halves (O(h^2) scheme);
    # the sine reparametrization of the sigma_z family has G_F identically 1
    G = c.pair_groupoid(2)
    sz = np.diag([1.0, -1.0])

    def curve(s):
        return c.state_from_density((np.eye(2) + np.sin(s) * sz) / 2.0, G)

    M = StatisticalModel(groupoid=G, curve=curve, s0=0.3, interval=(-0.7, 0.7))
    S = gns_at_base(M)
    e1 = abs(fisher_metric(M, S, h=1e-3) - 1.0)
    e2 = abs(fisher_metric(M, S, h=5e-4) - 1.0)
    assert e1 / max(e2, 1e-15) == pytest.approx(4.0, rel=1.0)


# --- classical agreement and congruence ------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_classical_agreement_random_models(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    p0 = rng.uniform(0.2, 1.0, size=n)
    p0 /= p0.sum()
    v = rng.uniform(-1.0, 1.0, size=n)
    v = v - v.sum() / n  # probability-preserving direction
    width = 0.4 * float(p0.min() / (np.abs(v).max() + 1e-12))
    G = c.trivial_groupoid(n)
    M = StatisticalModel(
        groupoid=G,
        curve=lambda s: c.classical_state(G, p0 + s * v),
        s0=0.0, interval=(-width, width),
    )
    direct = classical_fisher_rao(M)
    via_gns = fisher_metric(M, gns_at_base(M))
    assert abs(direct - via_gns) < 1e-6 * (1 + abs(direct))


def unbiased_projection(M, a, base):
    """Correct a self-adjoint element to satisfy the first-order unbiasedness
    conditions at s0, using the algebra unit and a reference estimator."""
    h = 1e-5
    u = c.unit_element(M.groupoid)

    def val(x, s):
        return c.expectation(M.at(s), x).real

    def dval(x):
        return (val(x, M.s0 + h) - val(x, M.s0 - h)) / (2 * h)

    # solve val(a + x u + y base) = s0 and dval(...) = 1
    A = np.array([[val(u, M.s0), val(base, M.s0)], [dval(u), dval(base)]])
    b = np.array([M.s0 - val(a, M.s0), 1.0 - dval(a)])
    x, y = np.linalg.solve(A, b)
    return Estimator(c.add(a, c.add(c.scale(x, u), c.scale(y, base))))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_unbiased_estimators_respect_bound(seed):
    rng = np.random.default_rng(seed)
    # coin model with the +-1/2 reference estimator
    M = coin_model(0.0)
    S = gns_at_base(M)
    base = c.element_from_dict(M.groupoid, {"1_1": 0.5, "1_2": -0.5})
    raw = c.AlgebraElement(M.groupoid, rng.normal(size=2).astype(complex))
    A = unbiased_projection(M, raw, base)
    assert cramer_rao_audit(M, A, cramer_rao_bound(M, S)).slack >= -1e-8

    # qubit model with the sigma_z reference estimator
    Q = qubit_z_model(0.0)
    SQ = gns_at_base(Q)
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    raw = c.element_from_matrix(Q.groupoid, (H + H.conj().T) / 2.0)
    base = c.element_from_matrix(Q.groupoid, np.diag([1.0, -1.0]))
    A = unbiased_projection(Q, raw, base)
    assert cramer_rao_audit(Q, A, cramer_rao_bound(Q, SQ)).slack >= -1e-8


def test_congruence_permutation():
    M = coin_model(0.1)
    P = c.ClassicalKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rep = congruent_invariance(M, P, P)
    assert rep.deviation <= 1e-9


def test_congruence_outcome_splitting():
    M = coin_model(0.1)
    K = c.ClassicalKernel(np.array([[1.0, 0.0, 0.0], [0.0, 1 / 3, 2 / 3]]))
    L = c.ClassicalKernel(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    rep = congruent_invariance(M, K, L)
    assert rep.deviation <= 1e-6


def test_congruence_rejects_non_invertible():
    M = coin_model(0.1)
    K = c.ClassicalKernel(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(NotCongruent):
        congruent_invariance(M, K, c.ClassicalKernel(np.eye(2)))


def test_folium_violation():
    # curve whose derivative leaves the folium: pure base state, coherence direction
    G = c.pair_groupoid(2)

    def curve(s):
        D = np.array([[1.0 - s * s, s], [s, s * s]])
        return c.state_from_density(D / np.trace(D).real, G)

    M = StatisticalModel(groupoid=G, curve=curve, s0=0.0, interval=(-0.3, 0.3))
    S = gns_at_base(M)
    assert S.dim == 2
    with pytest.raises(FoliumViolation):
        fisher_metric(M, S)


def test_non_finite_derivative_raises_no_convergence():
    """A zero step makes the central difference 0/0: a numerical failure, not
    a NaN Fisher metric or bound."""
    M = qubit_z_model(0.0)
    S = gns_at_base(M)
    for fn in (riesz_representer, fisher_metric, cramer_rao_bound):
        with np.errstate(invalid="ignore"), pytest.raises(NoConvergence):
            fn(M, S, h=0.0)
