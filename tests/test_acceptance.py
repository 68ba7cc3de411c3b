"""Acceptance suite: eleven gate criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""
import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import cencov_ncp as c
from cencov_ncp import fileio
from cencov_ncp.algebra import (
    convolve,
    delta_element,
    element_from_matrix,
    fundamental_rep_pair,
    left_regular_rep,
    star,
)
from cencov_ncp.channels import (
    choi_to_kernel,
    compose,
    cp_verdict,
    embed_classical,
    identity_kernel,
    kernel_from_matrix_map,
    pull_observable,
    push_state,
    validate_kernel,
)
from cencov_ncp.cli import main as cli_main
from cencov_ncp.errors import (
    AssociativityViolation,
    BadMeasure,
    BadWeight,
    CoherenceViolation,
    InverseViolation,
    NotCongruent,
    UnitViolation,
)
from cencov_ncp.estimation import (
    Estimator,
    StatisticalModel,
    classical_fisher_rao,
    congruent_invariance,
    cramer_rao_audit,
    cramer_rao_bound,
    fisher_metric,
)
from cencov_ncp.gns import build_gns, cyclic_vector, gns_represent
from cencov_ncp.groupoid import validate
from reference import matrix_rank_hermitian

from conftest import random_density, random_hermitian, random_kraus, random_stochastic, spec_of


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} {name}: FAIL")
                raise
            print(f"criterion {num:02d} {name}: PASS")
        return wrapper
    return deco


def random_element(G, rng):
    n = len(G.elements)
    return c.AlgebraElement(G, rng.normal(size=n) + 1j * rng.normal(size=n))


# --- 1: groupoid axioms ----------------------------------------------------

@criterion(1, "groupoid axioms and planted violations")
def test_criterion_1():
    standard = (
        [c.pair_groupoid(n) for n in range(1, 9)]
        + [c.trivial_groupoid(n) for n in range(1, 9)]
        + [c.cyclic_group_groupoid(2), c.cyclic_group_groupoid(3)]
        + [c.product(c.pair_groupoid(2), c.trivial_groupoid(2)),
           c.disjoint_union(c.pair_groupoid(2), c.trivial_groupoid(3), 0.5)]
    )
    for G in standard:
        validate(spec_of(G))
        c.modular_function(G)

    rng = np.random.default_rng(2024)
    mutations = ["measure", "unit", "coherence", "inverse", "associativity", "weight"]
    for i in range(50):
        kind = mutations[i % len(mutations)]
        if kind == "measure":
            G = c.pair_groupoid(int(rng.integers(2, 5)))
            P = dict(G.P)
            x = str(rng.choice(G.outcomes))
            P[x] = P[x] + float(rng.uniform(0.1, 1.0))
            with pytest.raises(BadMeasure):
                validate(dataclasses.replace(spec_of(G), P=P))
        elif kind == "unit":
            G = c.pair_groupoid(int(rng.integers(2, 5)))
            units = dict(G.unit_of)
            x = str(rng.choice(G.outcomes))
            others = [a for a in G.elements if G.s(a) != G.t(a)]
            units[x] = str(rng.choice(others))
            with pytest.raises(UnitViolation):
                validate(dataclasses.replace(spec_of(G), units=units))
        elif kind == "coherence":
            G = c.pair_groupoid(int(rng.integers(2, 5)))
            comp = dict(G.compose_table)
            pairs = [(b, a) for (b, a) in comp
                     if not G.is_unit(a) and not G.is_unit(b)]
            key = pairs[int(rng.integers(len(pairs)))]
            del comp[key]
            with pytest.raises(CoherenceViolation):
                validate(dataclasses.replace(spec_of(G), compose=comp))
        elif kind == "inverse":
            G = c.cyclic_group_groupoid(int(rng.integers(3, 6)))
            inv = dict(G.inverse_map)
            inv["g1"] = "g1"  # wrong in Z_n for n >= 3
            with pytest.raises(InverseViolation):
                validate(dataclasses.replace(spec_of(G), inverse=inv))
        elif kind == "associativity":
            G = c.cyclic_group_groupoid(3)
            comp = dict(G.compose_table)
            comp[("g1", "g1")] = "g1"  # true product is g2
            with pytest.raises(AssociativityViolation):
                validate(dataclasses.replace(spec_of(G), compose=comp))
        else:
            G = c.pair_groupoid(int(rng.integers(2, 5)))
            w = dict(G.fiber_weight)
            a = str(rng.choice([e for e in G.elements if not G.is_unit(e)]))
            w[a] = float(rng.choice([-1.0, 0.0, 2.0]))
            with pytest.raises(BadWeight):
                validate(dataclasses.replace(spec_of(G), fiber_weight=w))


# --- 2: regular representation ---------------------------------------------

@criterion(2, "regular representation *-homomorphism and faithfulness")
def test_criterion_2():
    rng = np.random.default_rng(2)
    standard = [
        c.pair_groupoid(2), c.pair_groupoid(3), c.pair_groupoid(4),
        c.pair_groupoid(8),  # |Gamma| = 64
        c.pair_groupoid(3, P={"1": 0.2, "2": 0.3, "3": 0.5}),
        c.trivial_groupoid(8), c.cyclic_group_groupoid(2),
        c.cyclic_group_groupoid(3),
        c.product(c.pair_groupoid(2), c.pair_groupoid(2)),
        c.disjoint_union(c.pair_groupoid(3), c.cyclic_group_groupoid(4), 0.3),
    ]
    for G in standard:
        n = len(G.elements)
        assert n <= 64
        a, b = random_element(G, rng), random_element(G, rng)
        La, Lb = left_regular_rep(a), left_regular_rep(b)
        scale = 1.0 + np.abs(La).max() * np.abs(Lb).max()
        assert np.abs(left_regular_rep(convolve(a, b)) - La @ Lb).max() <= 1e-12 * scale
        assert np.abs(left_regular_rep(star(a)) - La.conj().T).max() <= 1e-12 * scale
        rows = np.array([
            left_regular_rep(delta_element(G, e)).reshape(-1) for e in G.elements
        ])
        assert matrix_rank_hermitian(rows) == n


# --- 3: pair-groupoid identification ---------------------------------------

@criterion(3, "pair-groupoid matrix identification and density dictionary")
def test_criterion_3():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        G = c.pair_groupoid(n)
        a, b = random_element(G, rng), random_element(G, rng)
        Fa, Fb = fundamental_rep_pair(a), fundamental_rep_pair(b)
        assert np.abs(fundamental_rep_pair(convolve(a, b)) - Fa @ Fb).max() <= 1e-12
        assert np.abs(fundamental_rep_pair(star(a)) - Fa.conj().T).max() <= 1e-12
        assert np.abs(element_from_matrix(G, Fa).coeff - a.coeff).max() <= 1e-12
        for _ in range(20):
            D = random_density(rng, n)
            rho = c.state_from_density(D, G)
            assert np.abs(c.density_from_state(rho).matrix - D).max() <= 1e-12
            A = random_hermitian(rng, n)
            ae = element_from_matrix(G, A)
            assert abs(c.expectation(rho, ae) - np.trace(D @ A)) <= 1e-12 * (
                1 + abs(np.trace(D @ A)))


# --- 4: classical reduction ------------------------------------------------

@criterion(4, "classical Markov reduction")
def test_criterion_4():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        G1, G2 = c.trivial_groupoid(n), c.trivial_groupoid(m)
        K = c.ClassicalKernel(random_stochastic(rng, n, m))
        Pi = embed_classical(K, G1, G2)
        assert validate_kernel(Pi).passed
        p = rng.uniform(0.05, 1.0, size=n)
        p /= p.sum()
        rho = c.classical_state(G1, p)
        dist = c.outcome_distribution(push_state(rho, Pi))
        out = np.array([dist[x] for x in G2.outcomes])
        assert np.abs(out - p @ K.K).max() <= 1e-12
        f = rng.normal(size=m)
        fe = c.AlgebraElement(G2, f.astype(complex))
        pulled = pull_observable(Pi, fe)
        # observable coefficients are function values; pullback is K f
        got = np.array([pulled.coeff[G1.index[G1.unit_of[x]]].real
                        for x in G1.outcomes])
        assert np.abs(got - K.K @ f).max() <= 1e-12
    # composition associativity
    for _ in range(10):
        dims = [int(rng.integers(2, 7)) for _ in range(4)]
        Gs = [c.trivial_groupoid(d) for d in dims]
        Ks = [c.ClassicalKernel(random_stochastic(rng, dims[i], dims[i + 1]))
              for i in range(3)]
        Pis = [embed_classical(Ks[i], Gs[i], Gs[i + 1]) for i in range(3)]
        lhs = compose(compose(Pis[0], Pis[1]), Pis[2]).pi
        rhs = compose(Pis[0], compose(Pis[1], Pis[2])).pi
        assert np.abs(lhs - rhs).max() <= 1e-12


# --- 5: quantum kernels ----------------------------------------------------

@criterion(5, "quantum kernel axioms, CP verdicts, push/pull duality")
def test_criterion_5():
    G2 = c.pair_groupoid(2)
    assert validate_kernel(identity_kernel(G2)).passed

    p = 0.3
    SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    SY = np.array([[0.0, -1j], [1j, 0.0]])
    SZ = np.diag([1.0, -1.0]).astype(complex)
    kraus = [math.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
             math.sqrt(p / 4) * SX, math.sqrt(p / 4) * SY, math.sqrt(p / 4) * SZ]
    dep = choi_to_kernel(kraus, G2, G2)
    assert validate_kernel(dep).passed
    is_cp, _ = cp_verdict(dep)
    assert is_cp

    tr = kernel_from_matrix_map(lambda M: M.T, G2, G2)
    is_cp, lo = cp_verdict(tr)
    assert not is_cp and lo < 0.0

    rng = np.random.default_rng(5)
    for _ in range(50):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        Ga, Gb = c.pair_groupoid(n), c.pair_groupoid(m)
        Pi = choi_to_kernel(random_kraus(rng, n, m), Ga, Gb)
        assert validate_kernel(Pi).passed
        rho = c.state_from_density(random_density(rng, n), Ga)
        f = element_from_matrix(Gb, random_hermitian(rng, m))
        lhs = c.expectation(push_state(rho, Pi), f)
        rhs = c.expectation(rho, pull_observable(Pi, f))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


# --- 6: GNS ----------------------------------------------------------------

@criterion(6, "GNS cyclic identity and dimensions")
def test_criterion_6():
    rng = np.random.default_rng(6)
    G = c.pair_groupoid(2)
    faithful = c.state_from_density(np.diag([0.6, 0.4]), G)
    S = build_gns(faithful)
    assert S.dim == 4
    om = cyclic_vector(S)
    for _ in range(20):
        a = random_element(G, rng)
        lhs = om.conj() @ gns_represent(S, a) @ om
        assert abs(lhs - c.expectation(faithful, a)) <= 1e-10

    pure = c.state_from_density(np.diag([1.0, 0.0]), G)
    assert build_gns(pure).dim == 2


# --- 7: qubit Cramer-Rao ---------------------------------------------------

@criterion(7, "qubit Cramer-Rao bound and estimator audits")
def test_criterion_7():
    M = c.qubit_z_model(0.0)
    S = build_gns(M.at(0.0))
    gf = fisher_metric(M, S, h=1e-5)
    assert gf == pytest.approx(1.0, abs=1e-4)
    assert cramer_rao_bound(M, S, h=1e-5) == pytest.approx(1.0, abs=1e-4)

    A = Estimator(element_from_matrix(M.groupoid, np.diag([1.0, -1.0])))
    audit = cramer_rao_audit(M, A, cramer_rao_bound(M, S))
    assert audit.slack <= 1e-4

    B = Estimator(element_from_matrix(M.groupoid,
                                      np.array([[1.0, 1.0], [1.0, -1.0]])))
    audit = cramer_rao_audit(M, B, cramer_rao_bound(M, S))
    assert audit.slack == pytest.approx(1.0, abs=1e-3)

    M5 = c.qubit_z_model(0.5, half_width=0.3)
    gf5 = fisher_metric(M5, build_gns(M5.at(0.5)), h=1e-5)
    assert gf5 == pytest.approx(4.0 / 3.0, abs=1e-3)


# --- 8: classical coin Cramer-Rao ------------------------------------------

@criterion(8, "classical coin Cramer-Rao and GNS/direct agreement")
def test_criterion_8():
    M = c.coin_model(0.0)
    S = build_gns(M.at(0.0))
    assert fisher_metric(M, S) == pytest.approx(4.0, abs=1e-4)
    assert cramer_rao_bound(M, S) == pytest.approx(0.25, abs=1e-5)
    A = Estimator(c.element_from_dict(M.groupoid, {"1_1": 0.5, "1_2": -0.5}))
    audit = cramer_rao_audit(M, A, cramer_rao_bound(M, S))
    assert audit.saturated

    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        p0 = rng.uniform(0.2, 1.0, size=n)
        p0 /= p0.sum()
        v = rng.uniform(-1.0, 1.0, size=n)
        v -= v.sum() / n
        width = 0.4 * float(p0.min() / (np.abs(v).max() + 1e-12))
        G = c.trivial_groupoid(n)
        model = StatisticalModel(
            groupoid=G,
            curve=lambda s, p0=p0, v=v, G=G: c.classical_state(G, p0 + s * v),
            s0=0.0, interval=(-width, width),
        )
        direct = classical_fisher_rao(model)
        via_gns = fisher_metric(model, build_gns(model.at(0.0)))
        assert abs(direct - via_gns) <= 1e-6 * (1 + abs(direct))


# --- 9: oracle identity ----------------------------------------------------

@criterion(9, "Fisher metric matches the density-matrix oracle")
def test_criterion_9():
    rng = np.random.default_rng(9)
    for n in (2, 3):
        G = c.pair_groupoid(n)
        for _ in range(10):
            D0 = 0.6 * np.eye(n) / n + 0.4 * random_density(rng, n)
            H = random_hermitian(rng, n)
            H = H - np.trace(H) * np.eye(n) / n
            H = 0.03 * H / max(1.0, np.abs(np.linalg.eigvalsh(H)).max())
            model = StatisticalModel(
                groupoid=G,
                curve=lambda s, D0=D0, H=H, G=G: c.state_from_density(D0 + s * H, G),
                s0=0.0, interval=(-0.05, 0.05),
            )
            gf = fisher_metric(model, build_gns(model.at(0.0)))
            oracle = float(np.real(np.trace(H @ np.linalg.inv(D0) @ H)))
            assert abs(gf - oracle) <= 1e-6 * (1 + abs(oracle))


# --- 10: Cencov invariance -------------------------------------------------

@criterion(10, "Fisher-Rao invariance under congruent embeddings")
def test_criterion_10():
    M = c.coin_model(0.1)
    P = c.ClassicalKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert congruent_invariance(M, P, P).deviation <= 1e-6

    K = c.ClassicalKernel(np.array([[1.0, 0.0, 0.0], [0.0, 1 / 3, 2 / 3]]))
    L = c.ClassicalKernel(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    assert congruent_invariance(M, K, L).deviation <= 1e-6

    bad = c.ClassicalKernel(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(NotCongruent):
        congruent_invariance(M, bad, c.ClassicalKernel(np.eye(2)))


# --- 11: CLI ---------------------------------------------------------------

@criterion(11, "CLI subcommands, exit codes, JSON output")
def test_criterion_11(fixture_dir):
    runner = CliRunner()

    def run(*args):
        return runner.invoke(main_cli, [str(a) for a in args])

    main_cli = cli_main
    d = fixture_dir

    r = run("--json", "validate", d / "pair2.json")
    assert r.exit_code == 0 and json.loads(r.output)["passed"] is True
    r = run("--json", "validate", d / "rho.json")
    assert r.exit_code == 0
    r = run("--json", "compose", d / "idk.json", d / "idk.json",
            "-o", d / "k2.json")
    assert r.exit_code == 0
    r = run("--json", "push", d / "rho.json", d / "idk.json", "-o", d / "r2.json")
    assert r.exit_code == 0 and json.loads(r.output)["passed"] is True
    r = run("--json", "pull", d / "idk.json", d / "sz.json", "-o", d / "a2.json")
    assert r.exit_code == 0
    r = run("--json", "pipeline", d / "pipe.json")
    assert r.exit_code == 0 and len(json.loads(r.output)["stages"]) == 2
    r = run("--json", "gns", d / "rho.json")
    assert r.exit_code == 0 and json.loads(r.output)["dim"] == 4
    r = run("--json", "fisher", d / "coin_model.json")
    assert r.exit_code == 0
    assert json.loads(r.output)["fisher"] == pytest.approx(4.0, abs=1e-3)
    r = run("--json", "crb", d / "coin_model.json",
            "--estimator", d / "pm_half.json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["bound"] == pytest.approx(0.25, abs=1e-4)
    assert data["saturated"] is True
    r = run("--json", "cp", d / "transpose.json")
    assert r.exit_code == 0 and json.loads(r.output)["is_cp"] is False

    # planted failures: exit 1 (validation), 2 (schema), 3 (numerical)
    bad_state = d / "bad_state.json"
    bad_state.write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "pair2.json",
        "phi_re": {"(1,1)": 1.0, "(2,2)": 1.0, "(1,2)": 9.0, "(2,1)": 9.0},
    }))
    assert run("validate", bad_state).exit_code == 1
    assert run("validate", d / "missing.json").exit_code == 2
    bad_fmt = d / "bad_fmt.json"
    bad_fmt.write_text(json.dumps({"fmt": "other/9", "K": [[1.0]]}))
    assert run("validate", bad_fmt).exit_code == 2
    flat = d / "flat_model.json"
    flat.write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "triv2.json", "s0": 0.0,
        "interval": [-0.2, 0.2], "grid": [0.0],
        "states": {s: "coin_0.0.json"
                   for s in ("-0.2", "-0.1", "0.0", "0.1", "0.2")},
    }))
    assert run("crb", flat).exit_code == 3
