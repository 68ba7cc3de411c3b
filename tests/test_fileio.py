import json
import os
import stat
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cencov_ncp as c
from cencov_ncp import fileio
from cencov_ncp.cli import main
from cencov_ncp.errors import SchemaError
from cencov_ncp.groupoid import GroupoidSpec, validate
from cencov_ncp.states import State


def test_groupoid_round_trip(tmp_path, pair2):
    path = tmp_path / "g.json"
    fileio.save_groupoid(pair2, path)
    G = fileio.load_groupoid(path)
    assert G == pair2
    assert fileio.detect_kind(path) == "groupoid"


def test_state_round_trip(tmp_path, pair2):
    fileio.save_groupoid(pair2, tmp_path / "g.json")
    D = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
    rho = c.state_from_density(D, pair2)
    fileio.save_state(rho, tmp_path / "s.json", "g.json")
    back = fileio.load_state(tmp_path / "s.json")
    assert np.abs(back.phi - rho.phi).max() < 1e-15
    assert fileio.detect_kind(tmp_path / "s.json") == "state"


def test_algebra_round_trip(tmp_path, pair2):
    fileio.save_groupoid(pair2, tmp_path / "g.json")
    a = c.element_from_matrix(pair2, np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -1.0]]))
    fileio.save_algebra_element(a, tmp_path / "a.json", "g.json")
    back = fileio.load_algebra_element(tmp_path / "a.json")
    assert np.abs(back.coeff - a.coeff).max() < 1e-15


def test_kernel_round_trip(tmp_path, pair2):
    fileio.save_groupoid(pair2, tmp_path / "g.json")
    Pi = c.identity_kernel(pair2)
    fileio.save_kernel(Pi, tmp_path / "k.json", "g.json", "g.json")
    back = fileio.load_kernel(tmp_path / "k.json")
    assert np.abs(back.pi - Pi.pi).max() < 1e-15
    assert fileio.detect_kind(tmp_path / "k.json") == "kernel"


def test_classical_and_kraus_round_trip(tmp_path):
    K = c.ClassicalKernel(np.array([[0.3, 0.7], [0.6, 0.4]]))
    fileio.save_classical_kernel(K, tmp_path / "ck.json")
    assert np.abs(fileio.load_classical_kernel(tmp_path / "ck.json").K - K.K).max() == 0
    assert fileio.detect_kind(tmp_path / "ck.json") == "classical_kernel"

    ops = [np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)]
    fileio.save_kraus(ops, tmp_path / "kr.json")
    back = fileio.load_kraus(tmp_path / "kr.json")
    assert np.abs(back[0] - ops[0]).max() == 0
    assert fileio.detect_kind(tmp_path / "kr.json") == "kraus"


def test_model_loading_interpolates(fixture_dir):
    model, grid = fileio.load_model(fixture_dir / "coin_model.json")
    assert grid == [-0.1, 0.0, 0.1]
    rho = model.at(0.075)  # off-grid value, cubic interpolation, re-validated
    dist = c.outcome_distribution(rho)
    assert dist["1"] == pytest.approx(0.575, abs=1e-9)


def test_unknown_fmt_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"fmt": "cencov-ncp/99", "K": [[1.0]]}))
    with pytest.raises(SchemaError):
        fileio.load_classical_kernel(path)
    path.write_text(json.dumps({"K": [[1.0]]}))
    with pytest.raises(SchemaError):
        fileio.detect_kind(path)


def test_malformed_files_rejected(tmp_path, pair2):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(SchemaError):
        fileio.detect_kind(path)

    fileio.save_groupoid(pair2, tmp_path / "g.json")
    path.write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "g.json",
        "phi_re": {"no-such-element": 1.0},
    }))
    with pytest.raises(SchemaError):
        fileio.load_state_file(path)

    path.write_text(json.dumps({"fmt": fileio.FMT, "phi_re": {}}))
    with pytest.raises(SchemaError):
        fileio.load_state_file(path)  # missing groupoid reference


def test_relative_paths_resolved_from_subdir(tmp_path, pair2):
    sub = tmp_path / "sub"
    sub.mkdir()
    fileio.save_groupoid(pair2, tmp_path / "g.json")
    rho = c.state_from_density(np.diag([0.5, 0.5]), pair2)
    fileio.save_state(rho, sub / "s.json", "../g.json")
    back = fileio.load_state(sub / "s.json")
    assert back.groupoid == pair2


def test_model_requires_two_states(tmp_path, fixture_dir):
    path = fixture_dir / "short_model.json"
    path.write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "triv2.json", "s0": 0.0,
        "interval": [-0.1, 0.1], "grid": [],
        "states": {"0.0": "coin_0.0.json"},
    }))
    with pytest.raises(SchemaError):
        fileio.load_model(path)


def bar_groupoid():
    """A valid groupoid whose element labels hold the kernel key separator."""
    return validate(GroupoidSpec(
        outcomes=["1", "2"], elements=["u|1", "u|2"],
        source={"u|1": "1", "u|2": "2"}, target={"u|1": "1", "u|2": "2"},
        inverse={"u|1": "u|1", "u|2": "u|2"},
        compose={("u|1", "u|1"): "u|1", ("u|2", "u|2"): "u|2"},
        units={"1": "u|1", "2": "u|2"}, P={"1": 0.5, "2": 0.5}))


def test_save_kernel_rejects_bar_in_element_label(tmp_path, pair2):
    G = bar_groupoid()
    for g1, g2 in ((G, pair2), (pair2, G)):
        Pi = c.QuantumKernel(g1, g2, np.zeros((len(g1.elements), len(g2.elements))))
        with pytest.raises(SchemaError, match=r"element label 'u\|1'"):
            fileio.save_kernel(Pi, tmp_path / "k.json", "g1.json", "g2.json")
        assert list(tmp_path.iterdir()) == []


def test_compose_with_bar_labels_exits_2_and_writes_nothing(tmp_path):
    fileio.save_groupoid(bar_groupoid(), tmp_path / "g.json")
    zero = {"fmt": fileio.FMT, "source_groupoid": "g.json", "target_groupoid": "g.json",
            "pi_re": {}, "pi_im": {}}  # the only tables such a kernel file can hold
    (tmp_path / "z.json").write_text(json.dumps(zero))
    out = tmp_path / "zz.json"
    result = CliRunner().invoke(main, ["compose", str(tmp_path / "z.json"),
                                       str(tmp_path / "z.json"), "-o", str(out)],
                                catch_exceptions=False)
    assert result.exit_code == 2
    assert "element label 'u|1'" in result.output
    assert not out.exists()


def test_failed_write_keeps_the_previous_file(tmp_path, pair2, monkeypatch):
    path = tmp_path / "k.json"
    fileio.save_kernel(c.identity_kernel(pair2), path, "g.json", "g.json")
    before = path.read_bytes()
    real_dumps, values = json.dumps, []

    def dumps(obj, **kwargs):
        if kwargs:  # a top-level value, not a key
            values.append(obj)
            if len(values) == 2:
                raise RuntimeError("encoder failed")
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    with pytest.raises(RuntimeError, match="encoder failed"):
        fileio.save_kernel(c.QuantumKernel(pair2, pair2, 2 * c.identity_kernel(pair2).pi),
                           path, "g.json", "g.json")
    assert len(values) == 2
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_non_finite_value_is_not_written(tmp_path, pair2):
    rho = State(pair2, np.array([0.5, np.nan, 0.0, 0.5], dtype=complex))
    with pytest.raises(SchemaError, match="cannot write phi_re"):
        fileio.save_state(rho, tmp_path / "s.json", "g.json")
    assert list(tmp_path.iterdir()) == []


def test_save_streams_into_a_fifo(tmp_path, pair2):
    fifo = tmp_path / "k.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    fileio.save_kernel(c.identity_kernel(pair2), fifo, "g.json", "g.json")
    reader.join(timeout=30)
    fileio.save_kernel(c.identity_kernel(pair2), tmp_path / "k.json", "g.json", "g.json")
    assert got == [(tmp_path / "k.json").read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.fifo", "k.json"]


def test_save_over_a_stale_temporary_file(tmp_path, pair2):
    path = tmp_path / "k.json"
    (tmp_path / f".k.json.{os.getpid()}.tmp").write_text("left by a killed writer")
    fileio.save_groupoid(pair2, tmp_path / "g.json")
    fileio.save_kernel(c.identity_kernel(pair2), path, "g.json", "g.json")
    assert np.array_equal(fileio.load_kernel(path).pi, c.identity_kernel(pair2).pi)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "k.json"]


def test_save_keeps_mode_and_follows_links(tmp_path, pair2):
    path, link = tmp_path / "k.json", tmp_path / "link.json"
    path.write_text("old")
    path.chmod(0o640)
    link.symlink_to(path.name)
    fileio.save_kernel(c.identity_kernel(pair2), link, "g.json", "g.json")
    assert link.is_symlink() and stat.S_IMODE(path.stat().st_mode) == 0o640
    assert json.loads(path.read_text())["fmt"] == fileio.FMT
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json", "link.json"]


def test_save_refuses_a_read_only_file(tmp_path, pair2, monkeypatch):
    path = tmp_path / "k.json"
    path.write_text("old")
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: Path(p) != path and access(p, mode))
    with pytest.raises(PermissionError, match="Permission denied"):
        fileio.save_kernel(c.identity_kernel(pair2), path, "g.json", "g.json")
    assert path.read_text() == "old"
    assert list(tmp_path.iterdir()) == [path]


def test_save_writes_in_place_in_a_read_only_directory(tmp_path, pair2, monkeypatch):
    path = tmp_path / "k.json"
    path.write_text("old")
    inode = path.stat().st_ino
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: Path(p) != tmp_path and access(p, mode))
    fileio.save_kernel(c.identity_kernel(pair2), path, "g.json", "g.json")
    assert path.stat().st_ino == inode
    assert json.loads(path.read_text())["fmt"] == fileio.FMT
    assert list(tmp_path.iterdir()) == [path]
