"""``--tol`` decides the Hermiticity check of state fibers and kernel rows;
the eigensolver does not apply a tighter tolerance of its own."""
import json

import pytest
from click.testing import CliRunner

from cencov_ncp.cli import main

# file, table, key of an off-diagonal entry (of a unit row, for the kernel)
TARGETS = {
    "state": ("rho.json", "phi_re", "(1,2)"),
    "kernel": ("idk.json", "pi_re", "(1,1)|(1,2)"),
}


@pytest.mark.parametrize("tol_args, asymmetry", [
    (["--tol", "1e-6"], 1e-8),
    ([], 5e-10),  # inside the default --tol 1e-9, outside the old eigensolver bound
], ids=["tol-1e-6", "default-tol"])
@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_fiber_asymmetry_within_tol_passes(fixture_dir, kind, tol_args, asymmetry):
    name, table, key = TARGETS[kind]
    data = json.loads((fixture_dir / name).read_text())
    data[table][key] = data[table].get(key, 0.0) + asymmetry
    path = fixture_dir / f"asym-{name}"
    path.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["--json", *tol_args, "validate", str(path)],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["kind"] == kind and report["passed"] is True
