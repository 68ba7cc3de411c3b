"""One CLI invocation parses each file it names once and validates each
groupoid file once, and the references it writes with ``-o`` point at the
groupoid files it read, from any output directory."""
import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cencov_ncp as c
from cencov_ncp import fileio
from cencov_ncp.cli import main

COIN_STATES = [f"coin_{s}.json" for s in (-0.3, -0.15, 0.0, 0.15, 0.3)]

# command, the files it must parse (each once), and its groupoid files
CASES = {
    "validate-kernel": (["validate", "idk.json"], ["idk.json"], ["pair2.json"]),
    "push": (["push", "rho.json", "idk.json", "-o", "out.json"],
             ["rho.json", "idk.json"], ["pair2.json"]),
    "push-two-groupoids": (["push", "coin_0.0.json", "ck_emb.json", "-o", "out.json"],
                           ["coin_0.0.json", "ck_emb.json"], ["triv2.json", "triv2b.json"]),
    "pull": (["pull", "idk.json", "sz.json", "-o", "out.json"],
             ["idk.json", "sz.json"], ["pair2.json"]),
    "pipeline": (["pipeline", "pipe2.json", "-o", "out.json"],
                 ["pipe2.json", "rho.json", "idk.json", "idk2.json"], ["pair2.json"]),
    "compose": (["compose", "idk.json", "idk2.json", "-o", "out.json"],
                ["idk.json", "idk2.json"], ["pair2.json"]),
    "fisher": (["fisher", "coin_model.json"],
               ["coin_model.json", *COIN_STATES], ["triv2.json"]),
    "crb-estimator": (["crb", "coin_model.json", "--estimator", "pm_half.json"],
                      ["coin_model.json", *COIN_STATES, "pm_half.json"], ["triv2.json"]),
}


@pytest.fixture
def distinct_files(fixture_dir):
    """The shared fixtures plus copies, so that no command names a file twice."""
    d = fixture_dir
    shutil.copy(d / "idk.json", d / "idk2.json")
    shutil.copy(d / "triv2.json", d / "triv2b.json")
    K = c.ClassicalKernel(np.array([[0.9, 0.1], [0.2, 0.8]]))
    triv2 = c.trivial_groupoid(2)
    fileio.save_kernel(c.embed_classical(K, triv2, triv2), d / "ck_emb.json",
                       "triv2.json", "triv2b.json")
    (d / "pipe2.json").write_text(json.dumps({
        "fmt": fileio.FMT, "initial_state": "rho.json",
        "kernels": ["idk.json", "idk2.json"]}))
    return d


@pytest.fixture
def counted(monkeypatch):
    """Count JSON parses per resolved file and groupoid validations."""
    parsed = Counter()
    validations = []
    real_load, real_validate = json.load, fileio.validate

    def load(fh, *args, **kwargs):
        parsed[Path(fh.name).resolve()] += 1
        return real_load(fh, *args, **kwargs)

    def validate(spec):
        validations.append(spec)
        return real_validate(spec)

    monkeypatch.setattr(json, "load", load)
    monkeypatch.setattr(fileio, "validate", validate)
    return parsed, validations


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_file_parsed_once_and_each_groupoid_validated_once(
        distinct_files, counted, case):
    args, named, groupoids = CASES[case]
    d = distinct_files
    argv = ["--json"] + [str(d / a) if a.endswith(".json") else a for a in args]
    parsed, validations = counted
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert parsed == Counter({(d / f).resolve(): 1 for f in named + groupoids})
    assert len(validations) == len(groupoids)


@pytest.fixture
def split_dirs(tmp_path, monkeypatch):
    """Inputs in ``in/``, outputs into ``out/deep/``, paths relative to the cwd."""
    src = tmp_path / "in"
    src.mkdir()
    (tmp_path / "out" / "deep").mkdir(parents=True)
    G = c.pair_groupoid(2)
    fileio.save_groupoid(G, src / "pair2.json")
    D = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    fileio.save_state(c.state_from_density(D, G), src / "rho.json", "pair2.json")
    for name in ("idk.json", "idk2.json"):
        fileio.save_kernel(c.identity_kernel(G), src / name, "pair2.json", "pair2.json")
    fileio.save_algebra_element(c.element_from_matrix(G, np.diag([1.0, -1.0])),
                                src / "sz.json", "pair2.json")
    for name, kernels in (("pipe0.json", []), ("pipe2.json", ["idk.json", "idk2.json"])):
        (src / name).write_text(json.dumps({
            "fmt": fileio.FMT, "initial_state": "rho.json", "kernels": kernels}))
    monkeypatch.chdir(tmp_path)
    return tmp_path


REF_KEYS = ("groupoid", "source_groupoid", "target_groupoid")


@pytest.mark.parametrize("args", [
    ["push", "in/rho.json", "in/idk.json"],
    ["pull", "in/idk.json", "in/sz.json"],
    ["compose", "in/idk.json", "in/idk2.json"],
    ["pipeline", "in/pipe0.json"],
    ["pipeline", "in/pipe2.json"],
], ids=["push", "pull", "compose", "pipeline-0-kernels", "pipeline-2-kernels"])
def test_written_references_resolve_to_input_groupoid(split_dirs, args):
    out = Path("out/deep/written.json")
    result = CliRunner().invoke(main, ["--json", *args, "-o", str(out)],
                                catch_exceptions=False)
    assert result.exit_code == 0, result.output
    data = json.loads(out.read_text())
    refs = [data[k] for k in REF_KEYS if k in data]
    assert refs
    for ref in refs:
        assert (out.parent / ref).resolve() == (split_dirs / "in" / "pair2.json").resolve()
    check = CliRunner().invoke(main, ["validate", str(out)], catch_exceptions=False)
    assert check.exit_code == 0, check.output


def test_loaders_share_one_groupoid_per_file(distinct_files):
    d = distinct_files
    loaded = {}
    rho = fileio.load_state(d / "rho.json", loaded)
    Pi = fileio.load_kernel(d / "idk.json", loaded)
    assert rho.groupoid is Pi.g1 is Pi.g2
    assert list(loaded) == [(d / "pair2.json").resolve()]
    # without a map every call builds its own copy
    assert fileio.load_kernel(d / "idk.json").g1 is not Pi.g1


def test_load_file_agrees_with_detect_kind(fixture_dir):
    for path in sorted(fixture_dir.glob("*.json")):
        if path.name == "pipe.json":
            continue
        kind, _ = fileio.load_file(path)
        assert kind == fileio.detect_kind(path)
