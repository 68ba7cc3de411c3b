"""``--tol`` decides the Hermiticity check of state fibers and kernel rows in
every command that reads them, loaded states and model curves included; the
eigensolvers do not apply a tighter tolerance of their own.  A ``--tol``
below the default tightens the symmetry and PSD verdicts (no floor at 1e-9),
``cp`` decides the Choi spectrum at ``--tol``, and ``gns`` splits the Gram
spectrum at ``--tol`` times its largest eigenvalue.

The table at the end pins every verdict site of the package, each one
``numkit.within`` call: within its bound, past it, and at a nan deviation."""
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

import cencov_ncp as c
from cencov_ncp import estimation, fileio, numkit
from cencov_ncp.channels import ClassicalKernel, QuantumKernel, push_state_report
from cencov_ncp.errors import (
    BadMeasure,
    BadWeight,
    FoliumViolation,
    HomomorphismViolation,
    InvalidDensity,
    InvalidState,
    NoConvergence,
    NonTracePreserving,
    NonUniformP,
    NotCongruent,
    NotHermitian,
    NotSelfAdjoint,
    PositivityLost,
    RowSumViolation,
    SupportBoundary,
    ZeroInformation,
)
from cencov_ncp.estimation import StatisticalModel, UnbiasednessReport
from cencov_ncp.cli import main
from cencov_ncp.states import State
from conftest import CliRunner, spec_of

# file, table, key of an off-diagonal entry (of a unit row, for the kernel)
TARGETS = {
    "state": ("rho.json", "phi_re", "(1,2)"),
    "kernel": ("idk.json", "pi_re", "(1,1)|(1,2)"),
}

# the skewed file kind, the command arguments given its name, and the kind
# that ``validate`` reports, if the command is ``validate``
COMMANDS = {
    "state": ("state", lambda f: ["validate", f], "state"),
    "kernel": ("kernel", lambda f: ["validate", f], "kernel"),
    "model": ("state", lambda f: ["validate", "asym-model.json"], "model"),
    "gns": ("state", lambda f: ["gns", f], None),
    "push": ("state", lambda f: ["push", f, "idk.json"], None),
    "fisher": ("state", lambda f: ["fisher", "asym-model.json"], None),
}


def write_skewed(d, kind, asymmetry):
    name, table, key = TARGETS[kind]
    data = json.loads((d / name).read_text())
    data[table][key] = data[table].get(key, 0.0) + asymmetry
    path = d / f"asym-{name}"
    path.write_text(json.dumps(data))
    # a model whose grid states are all the skewed state
    (d / "asym-model.json").write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "pair2.json", "s0": 0.0, "interval": [-1.0, 1.0],
        "states": {"-0.5": path.name, "0.5": path.name}}))
    return path.name


@pytest.mark.parametrize("tol_args, asymmetry", [
    (["--tol", "1e-6"], 1e-8),
    ([], 5e-10),  # inside the default --tol 1e-9, outside the old eigensolver bound
], ids=["tol-1e-6", "default-tol"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_fiber_asymmetry_within_tol_passes(fixture_dir, monkeypatch, command, tol_args,
                                           asymmetry):
    kind, args, validated = COMMANDS[command]
    name = write_skewed(fixture_dir, kind, asymmetry)
    monkeypatch.chdir(fixture_dir)
    result = CliRunner().invoke(main, ["--json", *tol_args, *args(name)],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    if validated:
        assert report["kind"] == validated and report["passed"] is True


@pytest.mark.parametrize("tol_args, passed", [([], True), (["--tol", "1e-10"], False)],
                         ids=["default-tol", "tol-1e-10"])
@pytest.mark.parametrize("command", ["state", "model", "push"])
def test_state_asymmetry_beyond_a_tol_below_1e9_fails(fixture_dir, monkeypatch, command,
                                                      tol_args, passed):
    """An asymmetry of 1.5e-10 passes the fiber Hermiticity bound 1e-10 * (1 +
    0.7) but not the symmetry bound 1e-10."""
    kind, args, _ = COMMANDS[command]
    name = write_skewed(fixture_dir, kind, 1.5e-10)
    monkeypatch.chdir(fixture_dir)
    result = CliRunner().invoke(main, ["--json", *tol_args, *args(name)],
                                catch_exceptions=False)
    assert result.exit_code == (0 if passed else 1), result.output
    if command == "state":  # the others stop at the invalid state, with no report
        assert json.loads(result.output)["passed"] is passed


@pytest.mark.parametrize("tol_args, passed", [([], True), (["--tol", "1e-10"], False)],
                         ids=["default-tol", "tol-1e-10"])
def test_fiber_eigenvalue_beyond_a_tol_below_1e9_fails(fixture_dir, monkeypatch, tol_args,
                                                       passed):
    """The 1x1 fibers of a trivial(2) state hold 2 + 5e-10 and -5e-10: PSD
    within 1e-9 * (1 + 2), not within 1e-10 * (1 + 2)."""
    (fixture_dir / "neg.json").write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "triv2.json",
        "phi_re": {"1_1": 2.0 + 5e-10, "1_2": -5e-10}}))
    monkeypatch.chdir(fixture_dir)
    result = CliRunner().invoke(main, ["--json", *tol_args, "validate", "neg.json"],
                                catch_exceptions=False)
    assert result.exit_code == (0 if passed else 1), result.output
    assert json.loads(result.output)["passed"] is passed


@pytest.mark.parametrize("weight, tol_args, is_cp", [
    (1e-8, [], False),
    (1e-8, ["--tol", "1e-6"], True),
    (1e-11, [], True),
    (1e-11, ["--tol", "1e-12"], False),
])
def test_cp_decides_at_tol(fixture_dir, monkeypatch, weight, tol_args, is_cp):
    """``(1 - w) id + w T`` on pair(2): the transpose T puts -w into the Choi
    spectrum, whose radius is about 2."""
    idk, tr = (fileio.load_kernel(fixture_dir / f) for f in ("idk.json", "transpose.json"))
    mix = QuantumKernel(idk.g1, idk.g2, (1.0 - weight) * idk.pi + weight * tr.pi)
    fileio.save_kernel(mix, fixture_dir / "mix.json", "pair2.json", "pair2.json")
    monkeypatch.chdir(fixture_dir)
    result = CliRunner().invoke(main, ["--json", *tol_args, "cp", "mix.json"],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["is_cp"] is is_cp
    assert report["min_choi_eigenvalue"] == pytest.approx(-weight, rel=1e-3)


def low_rank_state(G):
    """D = diag(1 - 1e-5, 1e-5) on pair(2): its Gram spectrum holds two
    eigenvalues about 1e-5 times the largest."""
    return c.state_from_density(np.diag([1.0 - 1e-5, 1e-5]), G)


@pytest.mark.parametrize("tol_args, dim", [([], 4), (["--tol", "1e-3"], 2)],
                         ids=["default-tol", "tol-1e-3"])
def test_gns_splits_the_gram_spectrum_at_tol(fixture_dir, monkeypatch, tol_args, dim):
    fileio.save_state(low_rank_state(fileio.load_groupoid(fixture_dir / "pair2.json")),
                      fixture_dir / "low.json", "pair2.json")
    monkeypatch.chdir(fixture_dir)
    result = CliRunner().invoke(main, ["--json", *tol_args, "gns", "low.json"],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert (report["dim"], report["ideal_dim"]) == (dim, 4 - dim)


def test_build_gns_splits_at_tol():
    rho = low_rank_state(c.pair_groupoid(2))
    assert c.build_gns(rho).dim == 4
    assert c.build_gns(rho, tol=1e-3).dim == 2


def test_check_ncp_morphism_checks_the_pushed_state_at_tol():
    """rho = diag(1 - 1e-12, 1e-12) on pair(2) through D -> D + 1e-6 Tr(D)
    diag(1, -1): the pushed state has the eigenvalue 1e-12 - 1e-6, PSD at
    tol 1e-3 but not at the default 1e-9, in both checks alike."""
    G = c.pair_groupoid(2)
    rho = c.state_from_density(np.diag([1.0 - 1e-12, 1e-12]), G)
    Pi = c.kernel_from_matrix_map(
        lambda D: D + 1e-6 * np.trace(D) * np.diag([1.0, -1.0]), G, G)
    pushed, report = push_state_report(rho, Pi, tol=1e-3)
    assert report.psd_ok
    assert c.check_ncp_morphism(Pi, rho, pushed, tol=1e-3) is True
    with pytest.raises(PositivityLost):
        c.check_ncp_morphism(Pi, rho, pushed)


# ---------------------------------------------------------------------------
# one row per verdict site: every numkit.within call of the package
# ---------------------------------------------------------------------------

TOL = numkit.TOL


def _raises(call, error, match) -> bool:
    """True if ``call()`` raises ``error`` with ``match`` in its message, False
    if it returns; any other error propagates."""
    try:
        call()
    except error as exc:
        if match not in str(exc):
            raise
        return True
    return False


def _psd_gate(f):
    """[[1, d], [0, 1]]: asymmetry d against tol * (1 + max|H|) = 2 tol."""
    H = np.array([[1.0, f * 2 * TOL], [0.0, 1.0]])
    return bool(numkit.psd_verdicts(H[None], TOL)[1][0] != -np.inf)


def _psd_eigenvalue(f):
    """diag(1, -e): -e against tol * (1 + spectral radius) = 2 tol."""
    return bool(numkit.psd_verdicts(np.diag([1.0, -f * 2 * TOL])[None], TOL)[0][0])


def _classical_negative(f):
    e = f * numkit.STOCHASTIC_TOL
    return not _raises(lambda: ClassicalKernel([[1.0 + e, -e], [0.0, 1.0]]),
                       RowSumViolation, "negative entries")


def _classical_row_sum(f):
    e = f * numkit.STOCHASTIC_TOL
    return not _raises(lambda: ClassicalKernel([[1.0 + e, 0.0], [0.0, 1.0]]),
                       RowSumViolation, "row sums deviate")


def _kernel_normalization(f):
    """pi = [[1 + e]] on trivial(1): deficit e against tol * (1 + max|pi|)."""
    G = c.trivial_groupoid(1)
    return c.validate_kernel(QuantumKernel(G, G, [[1.0 + f * 2 * TOL]])).normalization_ok


def _kernel_positivity(f):
    """The row [2 (1 + e), -2 e] from trivial(1) to trivial(2): the fiber [-2 e]
    against tol * (1 + max|row|) = 3 tol, not its own spectral radius."""
    e = f * 1.5 * TOL
    Pi = QuantumKernel(c.trivial_groupoid(1), c.trivial_groupoid(2), [[2.0 * (1.0 + e), -2.0 * e]])
    return c.validate_kernel(Pi).positivity_ok


def _kernel_hermiticity(f):
    """The identity kernel of pair(2), 2 on its diagonal, with d added at the
    element (1,2) of both sides: d against tol * (1 + max|pi|) = 3 tol."""
    G = c.pair_groupoid(2)
    pi = c.identity_kernel(G).pi.copy()
    pi[1, 1] += f * 3 * TOL
    return c.validate_kernel(QuantumKernel(G, G, pi)).hermiticity_ok


def _ncp_morphism(f):
    """The identity kernel maps phi = (1, 1) on trivial(2) to itself; rho2 is
    off by d at one entry, against tol * (1 + max|rho2|) = 2 tol."""
    G = c.trivial_groupoid(2)
    rho1 = c.classical_state(G, [0.5, 0.5])
    rho2 = State(G, np.array([1.0 + f * 2 * TOL, 1.0], dtype=complex))
    return c.check_ncp_morphism(c.identity_kernel(G), rho1, rho2)


def _choi_to_kernel(f):
    G = c.pair_groupoid(2)
    A = np.diag([np.sqrt(1.0 + f * TOL), 1.0])
    return not _raises(lambda: c.choi_to_kernel([A], G, G), NonTracePreserving, "sum A")


def _cli_kraus(f):
    """``validate`` of a Kraus file; for nan, two operators whose sum A†A adds
    inf and -inf, since a file holds no nan."""
    if math.isnan(f):
        kraus = [{"re": [[1e200, 1e200], [0.0, 0.0]]}, {"re": [[1e200, -1e200], [0.0, 0.0]]}]
    else:
        kraus = [{"re": [[math.sqrt(1.0 + f * TOL), 0.0], [0.0, 1.0]]}]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "kraus.json"
        path.write_text(json.dumps({"fmt": fileio.FMT, "kraus": kraus}))
        result = CliRunner().invoke(main, ["--json", "validate", str(path)],
                                    catch_exceptions=False)
    assert result.exit_code == (0 if json.loads(result.stdout)["passed"] else 1)
    return json.loads(result.stdout)["passed"]


def _estimator(f):
    """a = 1 + i y on trivial(1): |a* - a| = 2 y against SELFADJOINT_TOL * (1 + |a|)."""
    a = c.AlgebraElement(c.trivial_groupoid(1), [1.0 + 1j * f * numkit.SELFADJOINT_TOL])
    return not _raises(lambda: estimation.Estimator(a), NotSelfAdjoint, "not self-adjoint")


def _folium(f):
    """A derivative r u, with u a unit vector of the Gelfand ideal of the pure
    state diag(1, 0) on pair(2): the residual r against FOLIUM_TOL * (1 + r max|u|)."""
    G = c.pair_groupoid(2)
    S = c.build_gns(c.state_from_density(np.diag([1.0, 0.0]), G))
    F, _, _, V, keep = S.blocks[0]
    i, j = np.argwhere(~keep)[0]
    u = np.zeros(len(G.elements), dtype=complex)
    u[F[i]] = V[i, :, j]
    m = np.abs(u).max()
    r = f * numkit.FOLIUM_TOL / (1.0 - f * numkit.FOLIUM_TOL * m)
    w = np.conj(r * u) / G.nu_vec  # phi(s) = s w has the derivative w nu = conj(r u)
    M = StatisticalModel(G, lambda s: State(G, s * w), 0.0, (-1.0, 1.0))
    return not _raises(lambda: c.riesz_representer(M, S), FoliumViolation, "leaves the folium")


def _with_gns_inner(value, call):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "gns_inner", lambda S, u, v: value)
        return call()


def _fisher_imaginary(f):
    """A GNS inner product 1 + i y: y against TOL * (1 + 1)."""
    M = c.qubit_z_model()
    S = c.build_gns(M.at(M.s0))
    return not _with_gns_inner(complex(1.0, f * 2 * TOL), lambda: _raises(
        lambda: c.fisher_metric(M, S), FoliumViolation, "imaginary part"))


def _bound_zero(f):
    """A Fisher metric g: within BOUND_TOL, no Cramer-Rao bound."""
    M = c.qubit_z_model()
    S = c.build_gns(M.at(M.s0))
    return _with_gns_inner(complex(f * numkit.BOUND_TOL), lambda: _raises(
        lambda: c.cramer_rao_bound(M, S), ZeroInformation, "numerically zero"))


def _unbiased(f):
    return UnbiasednessReport({0.0: f * numkit.UNBIASED_TOL}, numkit.UNBIASED_TOL).passed


def _saturated(f):
    """sigma_z on the qubit model: second moment 1, the bound below it by slack."""
    M = c.qubit_z_model()
    A = estimation.Estimator(c.element_from_matrix(M.groupoid, np.diag([1.0, -1.0])))
    return c.cramer_rao_audit(M, A, 1.0 - f * numkit.SATURATION_TOL).saturated


def _support_floor(f, checked=True):
    """A constant coin with p(1) = p: within P_FLOOR, no Fisher-Rao metric.
    Unchecked, the curve returns a bare State, so a nan p reaches the floor."""
    G = c.trivial_groupoid(2)
    p = np.array([f * numkit.P_FLOOR, 1.0 - f * numkit.P_FLOOR])
    rho = c.classical_state(G, p) if checked else State(G, (p / G.nu_vec).astype(complex))
    M = StatisticalModel(G, lambda s: rho, 0.0, (-1.0, 1.0))
    return _raises(lambda: c.classical_fisher_rao(M), SupportBoundary, "support floor")


def _congruence(f):
    """K = [[1 - d, d], [0, 1]] with L = I: |K L - I| = d against CONGRUENCE_TOL."""
    d = f * numkit.CONGRUENCE_TOL
    K, L = ClassicalKernel([[1.0 - d, d], [0.0, 1.0]]), ClassicalKernel(np.eye(2))
    return not _raises(lambda: c.congruent_invariance(c.coin_model(), K, L),
                       NotCongruent, "no left inverse")


def _uniform_nu(f):
    """P = (1/2 + d, 1/2 - d) on pair(2): |nu - 1/2| = d against TOL."""
    d = f * TOL
    G = c.pair_groupoid(2, P={"1": 0.5 + d, "2": 0.5 - d})
    return not _raises(lambda: G.pair_index, NonUniformP, "uniform P")


def _measure_sum(f):
    return not _raises(lambda: c.pair_groupoid(2, P={"1": 0.5 + f * TOL, "2": 0.5}),
                       BadMeasure, "P sums to")


def _left_invariance(f):
    """The fiber weight of (2,1) off that of (1,1) by d, against TOL * (1 + 1)."""
    spec = spec_of(c.pair_groupoid(2))
    weights = {**spec.fiber_weight, "(2,1)": 1.0 + f * 2 * TOL}
    return not _raises(lambda: c.validate(dataclasses.replace(spec, fiber_weight=weights)),
                       BadWeight, "left-invariant")


def _modular(element, f):
    """delta of pair(2) set to 1 + d at one element, which no validated
    groupoid reaches: d against TOL at a unit, and against TOL * (1 + 1) in
    delta((1,2)) delta((2,1)) = delta((1,1))."""
    G = c.pair_groupoid(2)
    delta = np.ones(len(G.elements))
    delta[element] += f * (TOL if element in G.unit_ix else 2 * TOL)
    object.__setattr__(G, "delta_vec", delta)
    return not _raises(lambda: c.modular_function(G), HomomorphismViolation, "delta")


def _state_normalization(f):
    return c.check_state([1.0 + f * TOL], c.trivial_groupoid(1)).normalization_ok


def _state_symmetry(f):
    """phi((1,2)) = d, phi((2,1)) = 0 on pair(2)."""
    return c.check_state([1.0, f * TOL, 0.0, 1.0], c.pair_groupoid(2)).symmetry_ok


def _state_psd(f):
    """The fiber [-e] of a trivial(2) state, against TOL * (1 + its radius e)."""
    e = f * TOL / (1.0 - f * TOL)
    return c.check_state([2.0, -e], c.trivial_groupoid(2)).psd_ok


def _density_trace(f):
    return not _raises(lambda: c.make_density(np.diag([0.5 + f * TOL, 0.5])),
                       InvalidDensity, "trace")


def _cp(f):
    """(1 - w) id + w T on pair(2), w = 1e-3 (nan for a nan f), at the tol that
    puts its least Choi eigenvalue at f times tol * (1 + Choi spectral radius)."""
    G = c.pair_groupoid(2)
    w = np.nan if math.isnan(f) else 1e-3
    T = c.kernel_from_matrix_map(lambda D: D.T, G, G)
    Pi = QuantumKernel(G, G, (1 - w) * c.identity_kernel(G).pi + w * T.pi)
    if math.isnan(f):
        return c.cp_verdict(Pi)[0]
    spectrum = np.linalg.eigvalsh(c.choi_matrix(Pi))
    return c.cp_verdict(Pi, -spectrum[0] / (f * (1.0 + np.abs(spectrum).max())))[0]


# site: (probe, upstream).  probe(f) is the site's numkit.within verdict with
# the deviation at f times its bound: True within it, False past it; a row
# whose verdict raises when within (the Fisher and probability floors) returns
# True for that raise.  upstream is None where a nan deviation reaches the site,
# which then fails; else the error and message of the earlier check that
# refuses the nan first.
VERDICTS = {
    "numkit.within": (lambda f: numkit.within(f * 3 * TOL, TOL, 2.0), None),
    "numkit.psd_verdicts gate": (_psd_gate, (NotHermitian, "non-finite")),
    "numkit.psd_verdicts eigenvalue": (_psd_eigenvalue, (NotHermitian, "non-finite")),
    "channels.ClassicalKernel negative entry": (
        _classical_negative, (RowSumViolation, "non-finite")),
    "channels.ClassicalKernel row sum": (_classical_row_sum, (RowSumViolation, "non-finite")),
    "channels.validate_kernel normalization": (
        _kernel_normalization, (NotHermitian, "non-finite")),
    "channels.validate_kernel positivity": (_kernel_positivity, (NotHermitian, "non-finite")),
    "channels.validate_kernel hermiticity": (_kernel_hermiticity, (NotHermitian, "non-finite")),
    "channels.check_ncp_morphism": (_ncp_morphism, None),
    "channels.choi_to_kernel": (_choi_to_kernel, None),
    "channels.cp_verdict": (_cp, (NotHermitian, "non-finite")),
    "cli.validate kraus": (_cli_kraus, None),
    "estimation.Estimator": (_estimator, None),
    "estimation.riesz_representer": (_folium, (NoConvergence, "not finite")),
    "estimation.fisher_metric": (_fisher_imaginary, None),
    "estimation.cramer_rao_bound": (_bound_zero, (FoliumViolation, "imaginary part")),
    "estimation.UnbiasednessReport": (_unbiased, None),
    "estimation.cramer_rao_audit": (_saturated, None),
    "estimation.classical_fisher_rao": (_support_floor, (InvalidState, "non-finite")),
    "estimation.classical_fisher_rao unchecked state": (
        lambda f: _support_floor(f, checked=False), (SupportBoundary, "not finite")),
    "estimation.congruent_invariance": (_congruence, (RowSumViolation, "non-finite")),
    "groupoid.pair_index": (_uniform_nu, (BadMeasure, "not strictly positive")),
    "groupoid._measure": (_measure_sum, (BadMeasure, "not strictly positive")),
    "groupoid._checked left invariance": (_left_invariance, (BadWeight, "positive number")),
    "groupoid.modular_function unit": (lambda f: _modular(0, f), None),
    "groupoid.modular_function multiplicative": (lambda f: _modular(1, f), None),
    "states.check_state normalization": (_state_normalization, (NotHermitian, "non-finite")),
    "states.check_state symmetry": (_state_symmetry, (NotHermitian, "non-finite")),
    "states.check_state psd": (_state_psd, (NotHermitian, "non-finite")),
    "states.make_density": (_density_trace, (InvalidDensity, "non-finite")),
}
# rows whose deviation at 1.0 times the bound is the bound to the last bit
EXACT = {"numkit.within", "estimation.UnbiasednessReport"}


@pytest.mark.parametrize("site", sorted(VERDICTS))
def test_verdict_site_passes_within_its_bound_and_fails_past_it_and_at_nan(site):
    probe, upstream = VERDICTS[site]
    assert probe(0.9) is True
    assert probe(1.1) is False
    if site in EXACT:
        assert probe(1.0) is True
    if upstream is None:
        assert probe(np.nan) is False
    else:
        with pytest.raises(upstream[0], match=upstream[1]):
            probe(np.nan)


def test_nan_folium_residual_leaves_the_folium(monkeypatch):
    """A Gram product that is nan gives a nan residual, which fails the check."""
    M = c.qubit_z_model()
    S = c.build_gns(M.at(M.s0))
    monkeypatch.setattr(type(S), "apply", lambda self, u: np.full(len(u), np.nan))
    with pytest.raises(FoliumViolation, match="leaves the folium"):
        c.riesz_representer(M, S)


def test_nan_in_the_congruence_check_is_not_congruent():
    """A left inverse given a nan after its construction: K L is nan there."""
    K, L = ClassicalKernel(np.eye(2)), ClassicalKernel(np.eye(2))
    nan = L.K.copy()
    nan[0, 0] = np.nan
    object.__setattr__(L, "K", nan)
    with pytest.raises(NotCongruent, match="no left inverse"):
        c.congruent_invariance(c.coin_model(), K, L)
