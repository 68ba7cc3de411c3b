"""Malformed tables in otherwise readable files are schema errors (exit 2),
and numbers that are not finite never pass."""
import json

import numpy as np
import pytest
from click.testing import CliRunner

from cencov_ncp import fileio
from cencov_ncp.channels import ClassicalKernel
from cencov_ncp.cli import main


CASES = {
    "groupoid-P-list": ("pair2.json", lambda d: {**d, "P": [0.5, 0.5]}),
    "groupoid-fiber-weight-list": ("pair2.json", lambda d: {**d, "fiber_weight": [1.0] * 4}),
    "groupoid-list-element-id": (
        "pair2.json", lambda d: {**d, "elements": [["x"]] + d["elements"][1:]}),
    "groupoid-list-compose-result": (
        "pair2.json", lambda d: {**d, "compose": [[b, a, [g]] for b, a, g in d["compose"]]}),
    "state-phi-list": ("rho.json", lambda d: {**d, "phi_re": [1.0, 0.0]}),
    "state-phi-not-a-number": ("rho.json", lambda d: {**d, "phi_re": {"(1,1)": "abc"}}),
    "state-phi-null": ("rho.json", lambda d: {**d, "phi_re": {**d["phi_re"], "(1,1)": None}}),
    "kernel-pi-list": ("idk.json", lambda d: {**d, "pi_re": [1.0]}),
    "kernel-pi-null": (
        "idk.json", lambda d: {**d, "pi_re": {**d["pi_re"], "(1,1)|(1,1)": None}}),
    "model-duplicate-parameter": (
        "coin_model.json",
        lambda d: {**d, "states": {**d["states"], "0.00": d["states"]["0.0"]}}),
    "model-nan-parameter": (
        "coin_model.json", lambda d: {**d, "states": {**d["states"], "nan": d["states"]["0.0"]}}),
    "model-inf-parameter": (
        "coin_model.json", lambda d: {**d, "states": {**d["states"], "inf": d["states"]["0.0"]}}),
    "kraus-null-entry": ("pair2.json", lambda d: {"fmt": d["fmt"], "kraus": [
        {"re": [[1.0, 0.0], [0.0, None]]}]}),
    "kraus-mixed-shapes": ("pair2.json", lambda d: {"fmt": d["fmt"], "kraus": [
        {"re": [[1.0, 0.0], [0.0, 1.0]]}, {"re": [[0.0]]}]}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_file_exits_2(fixture_dir, case):
    name, mutate = CASES[case]
    with open(fixture_dir / name) as fh:
        data = mutate(json.load(fh))
    bad = fixture_dir / f"bad-{name}"
    with open(bad, "w") as fh:
        json.dump(data, fh)
    # an exception other than the exit propagates out of invoke and fails the test
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == 2


# the first bad entry of a table is named, in table order
TABLES = {
    "state-unknown-key": ("rho.json", "phi_re", {"(1,1)": 0.5, "(3,3)": 1.0, "(2,2)": None},
                          "unknown phi_re key '(3,3)'"),
    "state-null-value": ("rho.json", "phi_re", {"(1,1)": 0.5, "(2,2)": None, "(3,3)": 1.0},
                         "phi_re['(2,2)'] is not a number"),
    "kernel-huge-value": ("idk.json", "pi_re", {"(1,1)|(1,1)": 10 ** 400},
                          "pi_re['(1,1)|(1,1)'] is not a number"),
    # as many bars as keys, but not one in each key
    "kernel-misaligned-bars": ("idk.json", "pi_re", {"(1,1)|(1,1)|(1,2)": 1.0, "(2,2)": 1.0},
                               "unknown pi_re key '(1,1)|(1,1)|(1,2)'"),
}


@pytest.mark.parametrize("case", sorted(TABLES))
def test_first_bad_table_entry_is_named(fixture_dir, case):
    name, key, table, message = TABLES[case]
    with open(fixture_dir / name) as fh:
        data = json.load(fh)
    bad = fixture_dir / f"bad-{name}"
    bad.write_text(json.dumps({**data, key: table}))
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == 2
    assert f"{bad}: {message}" in result.output


PIPELINES = {
    "missing-kernels": {"initial_state": "rho.json"},
    "string-kernels": {"initial_state": "rho.json", "kernels": "idk.json"},
    "non-string-kernel": {"initial_state": "rho.json", "kernels": ["idk.json", 3]},
    "non-string-state": {"initial_state": ["rho.json"], "kernels": ["idk.json"]},
}


@pytest.mark.parametrize("case", sorted(PIPELINES))
def test_malformed_pipeline_config_exits_2(fixture_dir, case):
    cfg = fixture_dir / "bad-pipeline.json"
    cfg.write_text(json.dumps({"fmt": fileio.FMT, **PIPELINES[case]}))
    result = CliRunner().invoke(main, ["pipeline", str(cfg)], catch_exceptions=False)
    assert result.exit_code == 2
    key = "initial_state" if case == "non-string-state" else "kernels"
    assert f"{cfg}: '{key}' must be" in result.output


# numbers must be finite: NaN and Infinity are not JSON (exit 2), and 1e400
# overflows, which is a bad table entry (exit 2) or a failed check (exit 1)
NON_FINITE = {
    "state": ("rho.json", lambda d, x: {**d, "phi_re": {**d["phi_re"], "(1,1)": x}},
              (2, "phi_re['(1,1)'] is not a number")),
    "kernel": ("idk.json", lambda d, x: {**d, "pi_im": {"(1,2)|(2,1)": x}},
               (2, "pi_im['(1,2)|(2,1)'] is not a number")),
    "classical-kernel": ("ck.json", lambda d, x: {**d, "K": [[x, 1.0], [0.5, 0.5]]},
                         (1, "classical kernel has non-finite entries")),
    "groupoid-P": ("pair2.json", lambda d, x: {**d, "P": {"1": x, "2": 0.5}},
                   (1, "P('1') = inf is not strictly positive")),
    "kraus": ("kr.json", lambda d, x: {**d, "kraus": [{"re": [[1.0, 0.0], [0.0, 1.0]],
                                                       "im": [[x, 0.0], [0.0, 0.0]]}]},
              (2, "malformed Kraus file: entries must be finite numbers")),
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_is_rejected(fixture_dir, case, token):
    name, mutate, (code, message) = NON_FINITE[case]
    if name == "ck.json":
        fileio.save_classical_kernel(ClassicalKernel(np.eye(2)), fixture_dir / name)
    if name == "kr.json":
        fileio.save_kraus([np.eye(2)], fixture_dir / name)
    with open(fixture_dir / name) as fh:
        data = mutate(json.load(fh), "__number__")
    bad = fixture_dir / f"bad-{name}"
    bad.write_text(json.dumps(data).replace('"__number__"', token))
    if token != "1e400":
        code, message = 2, f"cannot read {bad}: {token} is not a number"
    # a numpy RuntimeWarning is an error under the pytest settings
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == code
    assert message in result.output
