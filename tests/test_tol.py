"""``--tol`` decides the Hermiticity check of state fibers and kernel rows in
every command that reads them, loaded states and model curves included; the
eigensolvers do not apply a tighter tolerance of their own."""
import json

import pytest
from click.testing import CliRunner

from cencov_ncp import fileio
from cencov_ncp.cli import main

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
