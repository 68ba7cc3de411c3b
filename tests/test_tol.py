"""``--tol`` decides the Hermiticity check of state fibers and kernel rows in
every command that reads them, loaded states and model curves included; the
eigensolvers do not apply a tighter tolerance of their own.  A ``--tol``
below the default tightens the symmetry and PSD verdicts (no floor at 1e-9),
``cp`` decides the Choi spectrum at ``--tol``, and ``gns`` splits the Gram
spectrum at ``--tol`` times its largest eigenvalue."""
import json

import numpy as np
import pytest

import cencov_ncp as c
from cencov_ncp import fileio
from cencov_ncp.channels import QuantumKernel, push_state_report
from cencov_ncp.errors import PositivityLost
from cencov_ncp.cli import main
from conftest import CliRunner

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
