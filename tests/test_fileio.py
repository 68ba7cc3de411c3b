import json
import os
import re
import stat
import threading
import tracemalloc
from itertools import product
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


def test_groupoid_load_memory_follows_the_parsed_file(tmp_path):
    """pair(64), 262 144 compose rows: a whole load peaks less than 20 MB
    above ``json.load`` of the same file (traced), since the rows go to
    ``validate`` as they are read; the loaded groupoid caches what a
    constructed one does, and no label table."""
    path = tmp_path / "g.json"
    fileio.save_groupoid(c.pair_groupoid(64), path)

    def parse():
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    peaks = []
    for load in (parse, lambda: fileio.load_groupoid(path)):
        tracemalloc.start()
        try:
            G = load()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 20 * 2 ** 20
    assert set(G.__dict__) == set(c.pair_groupoid(64).__dict__)


def test_save_groupoid_leaves_nothing_on_the_groupoid(tmp_path):
    """pair(64): the compose list and the string tables are built for the
    write and dropped; less than 1 MB stays allocated after the save."""
    G = c.pair_groupoid(64)
    cached = set(G.__dict__)
    tracemalloc.start()
    try:
        fileio.save_groupoid(G, tmp_path / "g.json")
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20
    assert set(G.__dict__) == cached


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


@pytest.fixture
def decoder_calls(monkeypatch):
    """The sizes of the tables given to ``fileio._decode_keys``, in call order."""
    decode, calls = fileio._decode_keys, []
    monkeypatch.setattr(fileio, "_decode_keys",
                        lambda labels, g1, g2: calls.append(len(labels)) or decode(labels, g1, g2))
    return calls


@pytest.fixture
def walks(monkeypatch):
    """One entry per walk of the writer's keys started, that is per call of
    ``fileio.product``."""
    calls = []
    monkeypatch.setattr(fileio, "product", lambda *a: calls.append(1) or product(*a))
    return calls


def test_kernel_in_the_writers_order_is_read_by_position(tmp_path, decoder_calls):
    """Kernels written by ``save_kernel`` load without the key decoder: a
    dense one (every ``pi_re`` key, and ``pi_im`` missing some) and one whose
    real part has exact zeros.  Each table is decided from its own keys: with
    both tables reversed, both are decoded; with ``pi_im`` alone reversed,
    only ``pi_im`` is.  Every file gives the array written."""
    G = c.pair_groupoid(3)
    rng = np.random.default_rng(3)
    pi = rng.normal(size=(9, 9)) + 1j * np.where(rng.random((9, 9)) < 0.3, 0.0,
                                                 rng.normal(size=(9, 9)))
    holed = np.where(rng.random((9, 9)) < 0.3, 0.0, pi.real) + 1j * pi.imag
    fileio.save_groupoid(G, tmp_path / "g.json")
    fileio.save_kernel(c.QuantumKernel(G, G, pi), tmp_path / "k.json", "g.json", "g.json")
    fileio.save_kernel(c.QuantumKernel(G, G, holed), tmp_path / "holed.json", "g.json", "g.json")
    data = json.loads((tmp_path / "k.json").read_text())
    n_im = len(data["pi_im"])
    for name, reversed_keys in (("both.json", ("pi_re", "pi_im")), ("im.json", ("pi_im",))):
        (tmp_path / name).write_text(json.dumps(
            {k: dict(reversed(v.items())) if k in reversed_keys else v for k, v in data.items()}))
    for name, decoded, want in (("k.json", [], pi), ("holed.json", [], holed),
                                ("both.json", [81, n_im], pi), ("im.json", [n_im], pi)):
        decoder_calls.clear()
        assert np.array_equal(fileio.load_kernel(tmp_path / name).pi, want)
        assert decoder_calls == decoded, name
    assert 0 < n_im < 81
    assert 0 < len(json.loads((tmp_path / "holed.json").read_text())["pi_re"]) < 81


def test_sparse_kernel_in_the_writers_order_goes_to_the_decoder(tmp_path, decoder_calls,
                                                                walks):
    """``identity_kernel(pair(8))`` lists 64 of 4096 keys, fewer than half:
    no walk of the writer's keys is started, and the table is decoded."""
    G = c.pair_groupoid(8)
    Pi = c.identity_kernel(G)
    fileio.save_groupoid(G, tmp_path / "g.json")
    fileio.save_kernel(Pi, tmp_path / "k.json", "g.json", "g.json")
    assert np.array_equal(fileio.load_kernel(tmp_path / "k.json").pi, Pi.pi)
    assert decoder_calls == [64]
    assert walks == []


def test_unknown_last_key_is_named_by_one_call_per_table(tmp_path, walks, decoder_calls,
                                                         monkeypatch):
    """A dense pair(6) ``pi_re`` and a pair(4) ``phi_re`` whose last key names
    no element: each table's labels go to one call, which names the key, and
    no key is looked at alone.  The kernel table's walk fails once and the
    whole table goes to the decoder once; the state table goes to
    ``fileio._ix`` once."""
    rng = np.random.default_rng(6)
    G, H = c.pair_groupoid(6), c.pair_groupoid(4)
    fileio.save_groupoid(G, tmp_path / "g.json")
    fileio.save_groupoid(H, tmp_path / "h.json")
    fileio.save_kernel(c.QuantumKernel(G, G, rng.normal(size=(36, 36)) + 0j),
                       tmp_path / "k.json", "g.json", "g.json")
    fileio.save_state(State(H, np.arange(1.0, 17.0) + 0j), tmp_path / "s.json", "h.json")
    for name, key, size, bad in (("k.json", "pi_re", 36 * 36, "(99,99)|(1,1)"),
                                 ("s.json", "phi_re", 16, "(99,99)")):
        data = json.loads((tmp_path / name).read_text())
        table = data[key]
        assert len(table) == size
        table[bad] = table.pop(list(table)[-1])
        (tmp_path / f"bad_{name}").write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=re.escape("unknown pi_re key '(99,99)|(1,1)'")):
        fileio.load_kernel(tmp_path / "bad_k.json")
    assert walks == [1]
    assert decoder_calls == [36 * 36]
    ix, calls = fileio._ix, []
    monkeypatch.setattr(fileio, "_ix", lambda labels, index: calls.append(1) or ix(labels, index))
    with pytest.raises(SchemaError, match=re.escape("unknown phi_re key '(99,99)'")):
        fileio.load_state_file(tmp_path / "bad_s.json")
    assert calls == [1]


def test_files_keep_fmt_first_and_element_order(tmp_path):
    """``fmt`` comes first, then the keys in the order the ``save_*`` function
    lists them; the compose rows are the composable pairs, and a table's keys
    run in element order (row-major for a kernel), not in string order, where
    ``(1,10)`` comes before ``(1,2)``."""
    G = c.pair_groupoid(11)
    rng = np.random.default_rng(11)
    pi = np.where(rng.random((121, 121)) < 0.05, rng.normal(size=(121, 121)), 0.0)
    Pi = c.QuantumKernel(G, G, pi + 1j * pi[::-1])
    fileio.save_groupoid(G, tmp_path / "g.json")
    rho = State(G, np.where(rng.random(121) < 0.5, 1.0 + 0j, 0.0))
    fileio.save_state(rho, tmp_path / "s.json", "g.json")
    fileio.save_kernel(Pi, tmp_path / "k.json", "g.json", "g.json")
    g, s, k = (json.loads((tmp_path / f).read_text()) for f in ("g.json", "s.json", "k.json"))
    assert list(g) == ["fmt", "outcomes", "elements", "source", "target", "inverse",
                       "compose", "units", "P", "fiber_weight"]
    assert g["compose"] == [list(row) for row in G.composable_pairs]
    assert list(g["source"]) == list(g["elements"]) == list(G.elements)
    assert list(s) == ["fmt", "groupoid", "phi_re", "phi_im"]
    assert list(s["phi_re"]) == sorted(s["phi_re"], key=G.index.__getitem__)
    assert list(k) == ["fmt", "source_groupoid", "target_groupoid", "pi_re", "pi_im"]
    for key, part in (("pi_re", Pi.pi.real), ("pi_im", Pi.pi.imag)):
        assert list(k[key]) == [f"{G.elements[i]}|{G.elements[j]}"
                                for i, j in zip(*np.nonzero(part))]


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


def test_unmarked_file_reads_as_the_kind_asked_for(tmp_path, pair2):
    """A file that no field marks (an algebra element with no tables: zero)
    loads as the kind its loader asks for; ``load_file`` cannot tell its kind."""
    fileio.save_groupoid(pair2, tmp_path / "g.json")
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"fmt": fileio.FMT, "groupoid": "g.json"}))
    assert not fileio.load_algebra_element(path).coeff.any()
    with pytest.raises(SchemaError, match="unrecognized file contents"):
        fileio.load_file(path)


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
        compose=[("u|1", "u|1", "u|1"), ("u|2", "u|2", "u|2")],
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
