import json
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import cencov_ncp as c
from cencov_ncp import channels, cli, estimation, fileio, states
from cencov_ncp.cli import main
from cencov_ncp.gns import build_gns

# machine-readable output contracts for the --json flag, by subcommand
SCHEMAS = {
    "validate": {
        "type": "object",
        "required": ["file", "kind", "passed"],
        "properties": {"file": {"type": "string"}, "kind": {"type": "string"},
                       "passed": {"type": "boolean"}},
    },
    "gns": {
        "type": "object",
        "required": ["dim", "ideal_dim", "gram_spectrum"],
        "properties": {"dim": {"type": "integer"},
                       "ideal_dim": {"type": "integer"},
                       "gram_spectrum": {"type": "array",
                                         "items": {"type": "number"}}},
    },
    "fisher": {
        "type": "object",
        "required": ["fisher"],
        "properties": {"fisher": {"type": "number"},
                       "classical_fisher": {"type": "number"},
                       "agreement_deficit": {"type": "number"}},
    },
    "crb": {
        "type": "object",
        "required": ["bound"],
        "properties": {"bound": {"type": "number"},
                       "second_moment": {"type": "number"},
                       "slack": {"type": "number"},
                       "saturated": {"type": "boolean"}},
    },
    "cp": {
        "type": "object",
        "required": ["is_cp", "min_choi_eigenvalue"],
        "properties": {"is_cp": {"type": "boolean"},
                       "min_choi_eigenvalue": {"type": "number"}},
    },
    "pipeline": {
        "type": "object",
        "required": ["stages", "passed"],
        "properties": {"stages": {"type": "array"},
                       "passed": {"type": "boolean"}},
    },
}


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


def jout(result, schema=None):
    data = json.loads(result.output)
    if schema is not None:
        jsonschema.validate(data, SCHEMAS[schema])
    return data


def test_validate_groupoid(runner, fixture_dir):
    r = invoke(runner, "--json", "validate", fixture_dir / "pair2.json")
    assert r.exit_code == 0
    data = jout(r, "validate")
    assert data["kind"] == "groupoid" and data["passed"] is True


def test_validate_state_and_kernel(runner, fixture_dir):
    r = invoke(runner, "--json", "validate", fixture_dir / "rho.json")
    assert r.exit_code == 0 and jout(r)["passed"] is True
    r = invoke(runner, "--json", "validate", fixture_dir / "idk.json")
    assert r.exit_code == 0 and jout(r)["kind"] == "kernel"


def test_validate_model_and_algebra(runner, fixture_dir):
    r = invoke(runner, "--json", "validate", fixture_dir / "coin_model.json")
    assert r.exit_code == 0 and jout(r)["kind"] == "model"
    r = invoke(runner, "--json", "validate", fixture_dir / "pm_half.json")
    assert r.exit_code == 0 and jout(r)["kind"] == "algebra"


def test_validate_missing_file_exit_2(runner, fixture_dir):
    r = invoke(runner, "validate", fixture_dir / "nope.json")
    assert r.exit_code == 2


def test_validate_bad_groupoid_exit_1(runner, fixture_dir):
    data = json.loads((fixture_dir / "pair2.json").read_text())
    data["units"]["1"] = "(1,2)"
    bad = fixture_dir / "bad_groupoid.json"
    bad.write_text(json.dumps(data))
    r = invoke(runner, "validate", bad)
    assert r.exit_code == 1


def test_validate_bad_state_exit_1(runner, fixture_dir):
    bad = fixture_dir / "bad_state.json"
    bad.write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "pair2.json",
        "phi_re": {"(1,1)": 1.0, "(2,2)": 1.0, "(1,2)": 9.0, "(2,1)": 9.0},
    }))
    r = invoke(runner, "validate", bad)
    assert r.exit_code == 1


def test_validate_bad_fmt_exit_2(runner, fixture_dir):
    bad = fixture_dir / "bad_fmt.json"
    bad.write_text(json.dumps({"fmt": "other/1", "K": [[1.0]]}))
    r = invoke(runner, "validate", bad)
    assert r.exit_code == 2


def test_compose_and_output(runner, fixture_dir):
    out = fixture_dir / "composed.json"
    r = invoke(runner, "--json", "compose", fixture_dir / "idk.json",
               fixture_dir / "idk.json", "-o", out)
    assert r.exit_code == 0 and jout(r)["passed"] is True
    Pi = fileio.load_kernel(out)
    assert np.abs(Pi.pi - c.identity_kernel(c.pair_groupoid(2)).pi).max() < 1e-12


def test_push_and_output(runner, fixture_dir):
    out = fixture_dir / "pushed.json"
    r = invoke(runner, "--json", "push", fixture_dir / "rho.json",
               fixture_dir / "idk.json", "-o", out)
    assert r.exit_code == 0 and jout(r)["passed"] is True
    rho = fileio.load_state(out)
    orig = fileio.load_state(fixture_dir / "rho.json")
    assert np.abs(rho.phi - orig.phi).max() < 1e-12


def test_pull_and_output(runner, fixture_dir):
    out = fixture_dir / "pulled.json"
    r = invoke(runner, "--json", "pull", fixture_dir / "idk.json",
               fixture_dir / "sz.json", "-o", out)
    assert r.exit_code == 0
    a = fileio.load_algebra_element(out)
    orig = fileio.load_algebra_element(fixture_dir / "sz.json")
    assert np.abs(a.coeff - orig.coeff).max() < 1e-12


def test_pipeline(runner, fixture_dir):
    out = fixture_dir / "final.json"
    r = invoke(runner, "--json", "pipeline", fixture_dir / "pipe.json", "-o", out)
    assert r.exit_code == 0
    data = jout(r, "pipeline")
    assert len(data["stages"]) == 2
    assert all(s["normalization_deficit"] < 1e-9 for s in data["stages"])
    fileio.load_state(out)  # output is a valid state file


def test_pipeline_stage_kernels_are_config_relative_paths(runner, fixture_dir):
    cfg = fixture_dir / "pipe.json"
    r = invoke(runner, "--json", "pipeline", cfg)
    kernels = json.loads(cfg.read_text())["kernels"]
    assert [s["kernel"] for s in jout(r, "pipeline")["stages"]] == [
        str(fixture_dir / k) for k in kernels]


def test_commands_run_without_scipy_or_numpy_ma(fixture_dir):
    """No command needs scipy, and none pays for the lazy numpy.ma import."""
    src = str(Path(c.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import json, sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        from cencov_ncp.cli import main
        codes = []
        for args in json.loads(sys.argv[1]):
            try:
                main(args)
            except SystemExit as exc:
                codes.append(exc.code)
        print(json.dumps([codes, [m for m in ("scipy", "numpy.ma") if sys.modules.get(m)]]))
    """)
    d = fixture_dir
    commands = [["--json", "validate", str(d / "rho.json")],
                ["--json", "validate", str(d / "coin_model.json")],
                ["--json", "fisher", str(d / "coin_model.json")],
                ["--json", "crb", str(d / "coin_model.json"),
                 "--estimator", str(d / "pm_half.json")]]
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, cwd=src)
    assert out.returncode == 0, out.stderr
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * len(commands), out.stderr
    assert loaded == []


def test_gns_command(runner, fixture_dir):
    r = invoke(runner, "--json", "gns", fixture_dir / "rho.json")
    assert r.exit_code == 0
    data = jout(r, "gns")
    assert data["dim"] == 4 and data["ideal_dim"] == 0
    assert len(data["gram_spectrum"]) == 4


def test_fisher_command(runner, fixture_dir):
    r = invoke(runner, "--json", "fisher", fixture_dir / "coin_model.json")
    assert r.exit_code == 0
    data = jout(r, "fisher")
    assert data["fisher"] == pytest.approx(4.0, abs=1e-3)
    assert data["agreement_deficit"] < 1e-6


def test_crb_command_with_estimator(runner, fixture_dir):
    r = invoke(runner, "--json", "crb", fixture_dir / "coin_model.json",
               "--estimator", fixture_dir / "pm_half.json")
    assert r.exit_code == 0
    data = jout(r, "crb")
    assert data["bound"] == pytest.approx(0.25, abs=1e-4)
    assert data["second_moment"] == pytest.approx(0.25, abs=1e-9)
    assert data["saturated"] is True


def test_cp_command(runner, fixture_dir):
    r = invoke(runner, "--json", "cp", fixture_dir / "transpose.json")
    assert r.exit_code == 0
    data = jout(r, "cp")
    assert data["is_cp"] is False and data["min_choi_eigenvalue"] < -0.5
    r = invoke(runner, "--json", "cp", fixture_dir / "idk.json")
    assert r.exit_code == 0 and jout(r)["is_cp"] is True


def write_flat_model(d):
    """A constant model: the same state at every grid point."""
    grid = {s: "coin_0.0.json" for s in ("-0.2", "-0.1", "0.0", "0.1", "0.2")}
    flat = d / "flat_model.json"
    flat.write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "triv2.json", "s0": 0.0,
        "interval": [-0.2, 0.2], "grid": [0.0], "states": grid,
    }))
    return flat


def test_crb_zero_information_exit_3(runner, fixture_dir):
    r = invoke(runner, "crb", write_flat_model(fixture_dir))
    assert r.exit_code == 3


def test_crb_zero_information_precedes_missing_estimator(runner, fixture_dir):
    r = invoke(runner, "crb", write_flat_model(fixture_dir),
               "--estimator", fixture_dir / "missing.json")
    assert r.exit_code == 3


def test_crb_with_estimator_computes_fisher_metric_once(runner, fixture_dir, monkeypatch):
    calls = []
    fisher_metric = estimation.fisher_metric

    def counting(*args, **kwargs):
        calls.append(args)
        return fisher_metric(*args, **kwargs)

    monkeypatch.setattr(estimation, "fisher_metric", counting)
    r = invoke(runner, "--json", "crb", fixture_dir / "coin_model.json",
               "--estimator", fixture_dir / "pm_half.json")
    assert r.exit_code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("args, stages", [
    (["push", "rho.json", "idk.json"], 1),
    (["pipeline", "pipe.json"], 2),
], ids=["push", "pipeline"])
def test_each_state_checked_once_at_tol(runner, fixture_dir, monkeypatch, args, stages):
    """One check of the loaded state and one per pushed stage, all at --tol."""
    tols = []
    check_state = states.check_state

    def counting(phi, G, tol=states.NORM_TOL):
        tols.append(tol)
        return check_state(phi, G, tol=tol)

    for module in (states, channels, cli):
        monkeypatch.setattr(module, "check_state", counting)
    monkeypatch.chdir(fixture_dir)
    r = invoke(runner, "--json", "--tol", "1e-8", *args)
    assert r.exit_code == 0, r.output
    assert tols == [1e-8] * (1 + stages)


def test_json_output_deterministic(runner, fixture_dir):
    r1 = invoke(runner, "--json", "gns", fixture_dir / "rho.json")
    r2 = invoke(runner, "--json", "gns", fixture_dir / "rho.json")
    assert r1.output == r2.output


@pytest.mark.parametrize("option, value, args", [
    ("--h", "0", ["fisher", "coin_model.json"]),
    ("--h", "0", ["crb", "coin_model.json", "--estimator", "pm_half.json"]),
    ("--h", "-1e-5", ["fisher", "coin_model.json"]),
    ("--h", "nan", ["fisher", "coin_model.json"]),
    ("--h", "inf", ["crb", "coin_model.json"]),
    ("--tol", "nan", ["gns", "rho.json"]),
    ("--tol", "-1", ["gns", "rho.json"]),
    ("--tol", "inf", ["validate", "rho.json"]),
])
def test_non_finite_or_out_of_range_step_and_tol_exit_2(runner, fixture_dir, monkeypatch,
                                                       option, value, args):
    """A --h that is not finite and > 0, or a --tol that is not finite and >= 0,
    is a usage error: exit 2 and nothing on stdout (``--h 0`` once printed
    ``{"fisher": NaN}``, which is not JSON, and exited 0)."""
    monkeypatch.chdir(fixture_dir)
    r = runner.invoke(main, ["--json", option, value, *args])
    assert r.exit_code == 2, r.output
    assert r.stdout == "" and f"Invalid value for '{option}'" in r.stderr


def test_zero_tol_is_accepted(runner, fixture_dir):
    r = invoke(runner, "--json", "--tol", "0", "fisher", fixture_dir / "coin_model.json")
    assert r.exit_code == 0, r.output
    assert jout(r, "fisher")["fisher"] == pytest.approx(4.0, abs=1e-3)


@pytest.mark.parametrize("args", [
    ["gns", "rho.json"],
    ["fisher", "coin_model.json"],
    ["crb", "coin_model.json", "--estimator", "pm_half.json"],
])
def test_gns_commands_build_no_dense_gram(runner, fixture_dir, monkeypatch, args):
    """``gns``, ``fisher`` and ``crb`` work on the Gram blocks alone: the dense
    views ``gram``, ``quotient_basis`` and ``ideal_basis`` are never built."""
    spaces = []

    def recording(rho0):
        spaces.append(build_gns(rho0))
        return spaces[-1]

    monkeypatch.setattr(cli, "build_gns", recording)
    monkeypatch.chdir(fixture_dir)
    r = invoke(runner, "--json", *args)
    assert r.exit_code == 0, r.output
    (S,) = spaces
    assert not {"gram", "quotient_basis", "ideal_basis"} & set(vars(S))
