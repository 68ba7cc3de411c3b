import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import cencov_ncp as c
from cencov_ncp import channels, cli, errors, estimation, fileio, gns, numkit, states
from cencov_ncp.cli import main
from cencov_ncp.gns import build_gns
from conftest import spec_of

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


def test_validate_bad_kraus_exit_1_with_its_report_only(runner, fixture_dir):
    """A Kraus family that is not trace preserving fails like any other
    validation: its report on stdout, exit 1, nothing on stderr."""
    fileio.save_kraus([2.0 * np.eye(2)], fixture_dir / "bad_kraus.json")
    r = invoke(runner, "--json", "validate", fixture_dir / "bad_kraus.json")
    assert (r.exit_code, r.stderr) == (1, "")
    data = jout(r, "validate")
    assert (data["kind"], data["passed"], data["operators"]) == ("kraus", False, 1)
    assert data["completeness_deficit"] == pytest.approx(3.0)


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


def test_fisher_command_on_fiber_weights_is_classical(runner, fixture_dir):
    """The coin model on trivial(2) with fiber weights 2 and 0.5: the GNS
    metric and the classical Fisher-Rao value are both 4."""
    G = fileio.load_groupoid(fixture_dir / "triv2.json")
    G = c.validate(dataclasses.replace(spec_of(G), fiber_weight={"1_1": 2.0, "1_2": 0.5}))
    fileio.save_groupoid(G, fixture_dir / "wtriv2.json")
    states = {}
    for s in (-0.2, -0.1, 0.0, 0.1, 0.2):
        states[str(s)] = f"wcoin_{s}.json"
        fileio.save_state(c.classical_state(G, [0.5 + s, 0.5 - s]),
                          fixture_dir / states[str(s)], "wtriv2.json")
    (fixture_dir / "wcoin.json").write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "wtriv2.json", "s0": 0.0,
        "interval": [-0.2, 0.2], "states": states}))
    r = invoke(runner, "--json", "fisher", fixture_dir / "wcoin.json")
    assert r.exit_code == 0
    data = jout(r, "fisher")
    assert data["fisher"] == pytest.approx(4.0, abs=1e-3)
    assert data["classical_fisher"] == pytest.approx(4.0, abs=1e-3)
    assert data["agreement_deficit"] < 1e-9


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


# a file of another kind is refused with exit 2, naming the kind found: a
# state is not an observable, and a kernel is neither
@pytest.mark.parametrize("args, message", [
    (["crb", "coin_model.json", "--estimator", "coin_0.0.json"],
     "coin_0.0.json: a state file, not an algebra file"),
    (["pull", "idk.json", "rho.json"], "rho.json: a state file, not an algebra file"),
    (["pull", "idk.json", "idk.json"], "idk.json: a kernel file, not an algebra file"),
    (["cp", "rho.json"], "rho.json: a state file, not a kernel file"),
    (["fisher", "pair2.json"], "pair2.json: a groupoid file, not a model file"),
], ids=["crb-estimator-state", "pull-state", "pull-kernel", "cp-state", "fisher-groupoid"])
def test_file_of_another_kind_exits_2(runner, fixture_dir, args, message):
    r = invoke(runner, *(fixture_dir / a if a.endswith(".json") else a for a in args))
    assert r.exit_code == 2
    assert f"error: {fixture_dir}/{message}" in r.output


def test_algebra_file_with_only_imaginary_coefficients(runner, fixture_dir, pair2):
    """A sigma_y estimator file that holds only ``coeff_im`` is an algebra
    file, and audits as the file with both tables does."""
    d = fixture_dir
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    states = {}
    for s in (-0.3, -0.15, 0.0, 0.15, 0.3):
        states[str(s)] = f"y_{s}.json"
        fileio.save_state(c.state_from_density((np.eye(2) + s * sy) / 2, pair2),
                          d / states[str(s)], "pair2.json")
    (d / "y_model.json").write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "pair2.json", "s0": 0.0, "interval": [-0.3, 0.3],
        "states": states}))
    fileio.save_algebra_element(c.element_from_matrix(pair2, sy), d / "sy.json", "pair2.json")
    data = json.loads((d / "sy.json").read_text())
    assert data.pop("coeff_re") == {}
    (d / "sy_im.json").write_text(json.dumps(data))
    r = invoke(runner, "--json", "validate", d / "sy_im.json")
    assert r.exit_code == 0 and jout(r, "validate")["kind"] == "algebra"
    both, im = (invoke(runner, "--json", "crb", d / "y_model.json", "--estimator", d / name)
                for name in ("sy.json", "sy_im.json"))
    assert both.exit_code == im.exit_code == 0
    assert im.output == both.output
    assert jout(im, "crb")["second_moment"] == pytest.approx(1.0, abs=1e-9)


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

    def counting(phi, G, tol=numkit.TOL):
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

    def recording(rho0, tol):
        spaces.append(build_gns(rho0, tol))
        return spaces[-1]

    monkeypatch.setattr(gns, "build_gns", recording)
    monkeypatch.chdir(fixture_dir)
    r = invoke(runner, "--json", *args)
    assert r.exit_code == 0, r.output
    (S,) = spaces
    assert not {"gram", "quotient_basis", "ideal_basis"} & set(vars(S))


# each command with the library call it makes first
FIRST_CALLS = {
    "validate": ("load_file", ["validate", "a.json"]),
    "compose": ("load_kernel", ["compose", "a.json", "b.json"]),
    "push": ("load_state", ["push", "a.json", "b.json"]),
    "pull": ("load_kernel", ["pull", "a.json", "b.json"]),
    "pipeline": ("load_pipeline", ["pipeline", "a.json"]),
    "gns": ("load_state", ["gns", "a.json"]),
    "fisher": ("load_model", ["fisher", "a.json"]),
    "crb": ("load_model", ["crb", "a.json"]),
    "cp": ("load_kernel", ["cp", "a.json"]),
}
ERRORS = [
    (errors.SchemaError, 2), (errors.NoConvergence, 3), (errors.FoliumViolation, 3),
    (errors.ZeroInformation, 3), (errors.RowSumViolation, 1), (OSError, 2),
]


@pytest.mark.parametrize("error, code", ERRORS, ids=[e.__name__ for e, _ in ERRORS])
@pytest.mark.parametrize("command", sorted(FIRST_CALLS))
def test_library_errors_map_to_exit_codes(runner, monkeypatch, command, error, code):
    """Whatever command a library error comes from, it exits with the code of
    its class and ``error: <message>`` on stderr, and nothing escapes."""
    name, args = FIRST_CALLS[command]

    def failing(*args, **kwargs):
        raise error("planted failure")

    monkeypatch.setattr(fileio, name, failing)
    r = runner.invoke(main, ["--json", *args], catch_exceptions=False)
    assert (r.exit_code, r.stdout, r.stderr) == (code, "", "error: planted failure\n")


def test_closed_stdout_exits_1_quietly(fixture_dir):
    src = str(Path(c.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)  # every write to stdout now fails with EPIPE
    try:
        out = subprocess.run([sys.executable, "-m", "cencov_ncp.cli", "--json", "validate",
                              str(fixture_dir / "rho.json")],
                             stdout=write, stderr=subprocess.PIPE, text=True, cwd=src)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (1, "")


@pytest.mark.parametrize("args", [
    ("validate", "rho.json"),
    ("compose", "idk.json", "transpose.json", "-o", "composed.json"),
], ids=["validate", "compose-o"])
def test_stdout_closed_as_a_descriptor_exits_1_quietly(fixture_dir, args):
    """With fd 1 closed, ``sys.stdout`` is None and the result cannot be
    written: the command exits 1 with nothing on stderr (``-o`` files are
    still written, as with a closed pipe)."""
    src = str(Path(c.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "cencov_ncp.cli", "--json", *args],
                         stderr=subprocess.PIPE, text=True, cwd=fixture_dir,
                         env={**os.environ, "PYTHONPATH": src},
                         preexec_fn=lambda: os.close(1))
    assert (out.returncode, out.stderr) == (1, "")
    if "-o" in args:
        composed = fileio.load_kernel(fixture_dir / "composed.json")
        assert np.allclose(composed.pi, fileio.load_kernel(fixture_dir / "transpose.json").pi)


def test_unwritable_out_names_the_given_path(runner, fixture_dir):
    """``-o`` into a missing directory names that path, not the writer's
    temporary file."""
    out = fixture_dir / "missing" / "composed.json"
    r = runner.invoke(main, ["compose", str(fixture_dir / "idk.json"),
                             str(fixture_dir / "idk.json"), "-o", str(out)])
    assert r.exit_code == 2 and r.stdout == ""
    assert r.stderr == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert not (fixture_dir / "missing").exists()
