"""Mutated demo files and fuzzed command lines never end a command in a
traceback: every command exits 0, 1, 2 or 3, raises nothing but
``SystemExit``, and writes strict JSON."""
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cencov_ncp.cli import main
from conftest import CliRunner, strict_json

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_files.py"

# written as the JSON number text 1e400, which parses to an infinite float
HUGE = "<1e400>"

NAMES = ["pair2.json", "rho.json", "identity.json", "/dev/null", ".", "..", "",
         "missing.json", "pipeline.json", "coin_model.json", "dir.json", "a|b", "(99,99)|(1,1)",
         "(1,1)|(1,1)|(1,1)", "(99,99)", "1_1", "x\x00.json"]
VALUES = st.one_of(
    st.sampled_from(NAMES),
    st.sampled_from([HUGE, None, True, False, 0, -1, 0.5, 10 ** 400, [], {}, [[]], [0.5],
                     {"x": 1.0}, {"(1,1)": 1.0}, ["rho.json"], [["(1,1)"] * 3]]),
)

# every spelling of every option, values that parse or fail, the commands, a
# near miss of one, and demo files
TOKENS = ["--tol", "--h", "--json", "--help", "-o", "--out", "--estimator", "--", "-",
          "-ox.json", "-o=x.json", "--out=", "--tol=", "--json=1", "--js", "-x", "nan", "-1e-5",
          "1e-3", "validate", "compose", "push", "pull", "pipeline", "gns", "fisher", "crb",
          "cp", "valid", "rho.json", "identity.json", "coin_model.json", "pm_half.json",
          "pipeline.json"]


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The files of ``scripts/make_demo_files.py``, as name -> parsed JSON."""
    d = tmp_path_factory.mktemp("demo")
    with mock.patch.object(sys, "argv", [str(SCRIPT), str(d)]):
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return {p.name: json.loads(p.read_text()) for p in sorted(d.glob("*.json"))}


def nodes(value, at=()):
    """The path of every node in the JSON value, the root first."""
    yield at
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from nodes(child, (*at, key))


def mutate(root, at, how, new, name):
    """``root`` with the node at ``at`` replaced by ``new``, deleted, or (in an
    object) moved to the key ``name``; the root can only be replaced."""
    if not at:
        return new
    parent = root
    for key in at[:-1]:
        parent = parent[key]
    key = at[-1]
    if how == "delete":
        del parent[key]
    elif how == "rename" and isinstance(parent, dict):
        parent[name] = parent.pop(key)
    else:
        parent[key] = new
    return root


def invocations(f):
    """Every fuzzed command, on the mutant ``f`` and on the demo files that
    may reference it."""
    return [["validate", f], ["cp", f], ["push", "rho.json", f], ["push", f, "identity.json"],
            ["gns", f], ["fisher", f], ["crb", f], ["crb", "coin_model.json", "--estimator", f],
            ["pipeline", f], ["cp", "depolarizing.json"], ["push", "rho.json", "identity.json"],
            ["gns", "rho.json"], ["crb", "coin_model.json", "--estimator", "pm_half.json"],
            ["pipeline", "pipeline.json"]]


def check_mutant(demo, name, text):
    """Run every fuzzed command on the demo files with ``name`` holding
    ``text``: each exits with a code, and what it writes is strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "demo"
        d.mkdir()
        for other in demo:
            (d / other).write_text(json.dumps(demo[other]))
        (d / name).write_text(text)
        (d / "dir.json").mkdir()  # a directory where a file is named
        for args in invocations(name):
            result = CliRunner().invoke(
                main, ["--json", *(str(d / a) if a.endswith(".json") else a for a in args)])
            assert result.exit_code in (0, 1, 2, 3), (args, result.output)
            assert isinstance(result.exception, (SystemExit, type(None))), (args, result.exception)
            if result.exit_code in (0, 1) and result.stdout:  # a failed check reports on stdout
                strict_json(result.stdout)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_demo_files_exit_with_a_code(demo, data):
    name = data.draw(st.sampled_from(sorted(demo)), label="file")
    root = json.loads(json.dumps(demo[name]))
    at = data.draw(st.sampled_from(list(nodes(root))), label="node")
    how = data.draw(st.sampled_from(["replace", "delete", "rename"]), label="how")
    new = data.draw(VALUES, label="value")
    key = data.draw(st.sampled_from(NAMES), label="key")
    check_mutant(demo, name, json.dumps(mutate(root, at, how, new, key))
                 .replace(json.dumps(HUGE), "1e400"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(args=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6))
@example(args=["--tol", "--", "gns", "rho.json"])
def test_command_lines_exit_with_a_code(demo, args):
    """A command line of options, commands and demo files, run in a copy of
    the demo files, exits with a code and raises nothing but ``SystemExit``;
    a usage error writes nothing on stdout, and a command strict JSON."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in demo.items():
            (Path(tmp) / name).write_text(json.dumps(data))
        os.chdir(tmp)
        try:
            result = CliRunner().invoke(main, ["--json", *args])
        finally:
            os.chdir(home)
    assert result.exit_code in (0, 1, 2, 3), (args, result.output)
    assert isinstance(result.exception, (SystemExit, type(None))), (args, result.exception)
    if result.exit_code == 2:
        assert result.stdout == "", args
    elif result.stdout and not result.stdout.startswith("Usage: "):  # the help of --help
        strict_json(result.stdout)


@pytest.mark.parametrize("name, at, how, new", [
    ("rho.json", ("phi_im", "(1,2)"), "delete", None),
    ("depolarizing_kraus.json", ("kraus", 0, "re", 0, 0), "replace", 1e200),
], ids=["asymmetric-state", "overflowing-kraus"])
def test_mutant_reported_with_a_non_finite_number(demo, name, at, how, new):
    """Mutants whose report holds -inf (a fiber Gram that is not Hermitian)
    or inf (sum A†A overflows): each number is written as null."""
    root = mutate(json.loads(json.dumps(demo[name])), at, how, new, None)
    check_mutant(demo, name, json.dumps(root))


@pytest.mark.parametrize("name, edit", [
    ("rho.json", lambda d: {**d, "groupoid": "x\x00.json"}),
    ("coin_model.json", lambda d: {**d, "states": {**d["states"], "0.0": "x\x00.json"}}),
    ("pipeline.json", lambda d: {**d, "initial_state": "x\x00.json"}),
    ("pipeline.json", lambda d: {**d, "kernels": ["x\x00.json"]}),
], ids=["state-groupoid", "model-state", "pipeline-state", "pipeline-kernel"])
def test_reference_with_a_null_byte_exits_2(demo, tmp_path, name, edit):
    """A referenced file name that holds a null byte, a defect an unseeded run
    of the test above found, is a schema error naming the referencing file."""
    for other, data in demo.items():
        (tmp_path / other).write_text(json.dumps(edit(data) if other == name else data))
    command = {"rho.json": "gns", "coin_model.json": "fisher", "pipeline.json": "pipeline"}
    result = CliRunner().invoke(main, ["--json", command[name], str(tmp_path / name)])
    assert result.exit_code == 2
    assert f"{tmp_path / name}: reference 'x\\x00.json' holds a null byte" in result.output
