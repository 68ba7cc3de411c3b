"""Import structure: ``import cencov_ncp`` loads no module of the package,
each CLI command loads only the layers it runs, and the package exposes the
same public names as when its ``__init__`` imported every layer.

Every check of what gets loaded runs in a fresh interpreter, so that
``sys.modules`` starts clean."""
import importlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cencov_ncp as c
from cencov_ncp import fileio

SRC = str(Path(c.__file__).resolve().parents[1])

# the public names of the package, by the module that defines them; each
# module is itself a public name of the package
PUBLIC = {
    "errors": """
        AssociativityViolation BadMeasure BadWeight CencovNcpError CoherenceViolation
        DegenerateState DimensionMismatch FoliumViolation GroupoidMismatch
        GroupoidViolation HomomorphismViolation IntervalExceeded InvalidDensity
        InvalidState InverseViolation NoConvergence NonTracePreserving NonUniformP
        NormalizationLost NotAGroup NotCongruent NotHermitian NotPairGroupoid
        NotSelfAdjoint NotSquare PositivityLost RowSumViolation SchemaError
        SupportBoundary UnitViolation ZeroInformation""",
    "groupoid": """
        FiniteGroupoid GroupoidSpec cyclic_group_groupoid disjoint_union group_groupoid
        modular_function pair_groupoid product trivial_groupoid validate""",
    "algebra": """
        AlgebraElement add convolve delta_element element_from_dict element_from_matrix
        fundamental_rep_pair left_regular_rep scale star unit_element""",
    "states": """
        DensityMatrix State StateReport check_state classical_state density_from_state
        expectation make_density make_state outcome_distribution
        state_from_density""",
    "numkit": "",
    "channels": """
        ClassicalKernel KernelReport QuantumKernel check_ncp_morphism choi_matrix
        choi_to_kernel compose cp_verdict embed_classical identity_kernel
        kernel_from_matrix_map kernel_to_cp_map pull_observable push_state
        validate_kernel""",
    "gns": "GnsSpace build_gns cyclic_vector gns_inner gns_represent gram_matrix",
    "estimation": """
        CongruenceReport CramerRaoAudit Estimator StatisticalModel UnbiasednessReport
        check_unbiased classical_fisher_rao coin_model congruent_invariance
        cramer_rao_audit cramer_rao_bound derivative_vector fisher_metric
        qubit_z_model riesz_representer""",
}
NAMES = {name: module for module, names in PUBLIC.items()
         for name in (module, *names.split())}


def _fresh(code: str, *args: str):
    """The JSON that ``code`` prints last, run in a new interpreter."""
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                         capture_output=True, text=True, cwd=SRC)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_module_of_the_package_and_no_numpy():
    loaded = _fresh("""
        import json, sys
        import cencov_ncp
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith(("cencov_ncp.", "numpy")))))
    """)
    assert loaded == []


def test_dir_and_star_import_give_the_public_names():
    public_dir, star = _fresh("""
        import json
        import cencov_ncp
        names = {}
        exec("from cencov_ncp import *", names)
        print(json.dumps([[n for n in dir(cencov_ncp) if not n.startswith("_")],
                          sorted(n for n in names if n != "__builtins__")]))
    """)
    assert public_dir == sorted(NAMES)
    assert star == sorted(NAMES)


def test_every_public_name_is_its_module_object():
    for name, module in NAMES.items():
        mod = importlib.import_module(f"cencov_ncp.{module}")
        assert getattr(c, name) is (mod if name == module else getattr(mod, name)), name
    assert c.__version__ == "0.1.0"


def test_names_are_read_from_their_module_on_every_access(monkeypatch):
    """Nothing is cached in the package, so a name rebound in its module is
    what the package gives."""
    from cencov_ncp import groupoid

    c.pair_groupoid  # noqa: B018  (the first access)
    assert "pair_groupoid" not in vars(c)
    monkeypatch.setattr(groupoid, "pair_groupoid", "rebound")
    assert c.pair_groupoid == "rebound"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        c.no_such_name  # noqa: B018


@pytest.fixture
def command_files(fixture_dir):
    fileio.save_classical_kernel(c.ClassicalKernel(np.eye(2)), fixture_dir / "ck.json")
    fileio.save_kraus([np.eye(2)], fixture_dir / "kr.json")
    return fixture_dir


GNS_LAYERS = {"cencov_ncp.gns", "cencov_ncp.estimation"}


@pytest.mark.parametrize("args, unloaded", [
    (["validate", "pair2.json"], GNS_LAYERS),
    (["validate", "rho.json"], GNS_LAYERS),
    (["validate", "idk.json"], GNS_LAYERS),
    (["validate", "kr.json"], GNS_LAYERS),
    (["validate", "ck.json"], GNS_LAYERS),
    (["cp", "idk.json"], GNS_LAYERS),
    (["push", "rho.json", "idk.json"], GNS_LAYERS),
    (["pull", "idk.json", "sz.json"], GNS_LAYERS),
    (["pipeline", "pipe.json"], GNS_LAYERS),
    (["compose", "idk.json", "transpose.json"], GNS_LAYERS),
    (["gns", "rho.json"], {"cencov_ncp.estimation"}),
])
def test_commands_load_only_the_layers_they_run(command_files, args, unloaded):
    code, loaded = _fresh("""
        import json, os, sys
        from cencov_ncp.cli import main
        os.chdir(sys.argv[1])
        try:
            main(["--json", *json.loads(sys.argv[2])])
        except SystemExit as exc:
            code = exc.code
        print(json.dumps([code, [m for m in sys.modules if m.startswith("cencov_ncp.")]]))
    """, str(command_files), json.dumps(args))
    assert code == 0
    assert {"cencov_ncp.cli", "cencov_ncp.fileio", "cencov_ncp.channels"} <= set(loaded)
    assert not unloaded & set(loaded)
