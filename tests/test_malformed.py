"""Malformed tables in otherwise readable files are schema errors (exit 2)."""
import json

import pytest
from click.testing import CliRunner

from cencov_ncp import fileio
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
    "kernel-pi-list": ("idk.json", lambda d: {**d, "pi_re": [1.0]}),
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
