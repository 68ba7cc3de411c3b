"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _snapshot() -> dict:
    from cencov_ncp.estimation import StatisticalModel

    snap = {(name, attr): value for name, mod in sys.modules.items()
            if name == "cencov_ncp" or name.startswith("cencov_ncp.")
            for attr, value in vars(mod).items()}
    snap[("StatisticalModel", "at")] = StatisticalModel.at
    return snap


@pytest.fixture(scope="module")
def shapes(tmp_path_factory):
    d = tmp_path_factory.mktemp("shapes")
    return d, workloads.generate("small-shapes", d, 7)


def _cli(d: Path, args, traced: bool, spans: Path | None = None):
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), "t", "--json", *args]
    else:
        argv = [sys.executable, "-c", run.CLI, "--json", *args]
    return subprocess.run(argv, cwd=d, env=run.child_env(), capture_output=True,
                          text=True, timeout=120)


# ---------------------------------------------------------------------------

def test_generator_is_deterministic_per_seed(tmp_path):
    for name, make in (("shapes", lambda d, s: workloads.generate("small-shapes", d, s)),
                       ("pair3", lambda d, s: workloads.channels_workload(d, s, n=3))):
        a, b, c = (tmp_path / f"{name}{i}" for i in range(3))
        for d, seed in ((a, 1), (b, 1), (c, 2)):
            d.mkdir()
            make(d, seed)
        assert _files(a) == _files(b)
        assert _files(a) != _files(c)


def test_every_wrapped_function_is_restored(tmp_path):
    import cencov_ncp.cli  # noqa: F401  (its imported names get rebound too)
    from cencov_ncp import channels, cli, fileio

    before = _snapshot()
    t = tracer.Tracer("test")
    t.install()
    try:
        assert fileio.load_kernel is not before[("cencov_ncp.fileio", "load_kernel")]
        assert cli.validate_kernel is channels.validate_kernel
        assert fileio.validate is not before[("cencov_ncp.fileio", "validate")]
        workloads.generate("small-shapes", tmp_path, 3)
    finally:
        t.restore()
    assert _snapshot() == before
    names = {s["name"] for s in t.spans}
    assert {"groupoid.pair_groupoid", "channels.choi_to_kernel", "fileio.save_kernel"} <= names


def test_wrappers_pass_values_and_exceptions_through():
    t = tracer.Tracer()
    sentinel = ValueError("boom")

    def fails():
        raise sentinel

    wrapped_id = t.wrap("x.identity", lambda *a, **k: (a, k))
    assert wrapped_id(1, b=2) == ((1,), {"b": 2})
    with pytest.raises(ValueError) as info:
        t.wrap("x.fails", fails)()
    assert info.value is sentinel
    assert [s["error"] for s in t.spans] == [False, True]


def test_fold_partitions_command_time():
    spans = [
        {"inv": "a", "id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0, "error": False},
        {"inv": "a", "id": 1, "parent": 0, "name": "fileio.load_kernel", "start": 1.0, "end": 5.0, "error": False},
        {"inv": "a", "id": 2, "parent": 1, "name": "groupoid.validate", "start": 2.0, "end": 3.0, "error": False},
        {"inv": "a", "id": 3, "parent": 0, "name": "numkit.hermitian_eigen", "start": 6.0, "end": 8.0,
         "error": True, "dim": 4},
    ]
    m = tracer.fold(spans)
    assert (m["cli.self_s"], m["fileio.self_s"], m["groupoid.self_s"], m["numkit.self_s"]) == (4, 3, 1, 2)
    assert m["fileio.load_s"] == 4 and m["groupoid.validate_calls"] == 1
    assert m["numkit.errors"] == 1 and m["numkit.eigh_flops"] == 64
    assert tracer.partition_gap(spans, m) == 0


COMPARED = [
    ("cp", "transpose3.json"),
    ("pull", "ka.json", "obs3.json", "-o", "pulled3.json"),
    ("gns", "z12_state.json"),
    ("crb", "model_q3.json", "--estimator", "est3.json"),
    ("crb", "model_flat.json"),
    ("validate", "bad_fmt.json"),
]


def test_traced_and_untraced_outputs_are_byte_identical(shapes, tmp_path):
    d, _ = shapes
    spans = tmp_path / "spans.jsonl"
    for args in COMPARED:
        out = d / args[-1] if "-o" in args else None
        results = []
        for traced in (False, True):
            res = _cli(d, args, traced, spans)
            results.append((res.returncode, res.stdout, res.stderr,
                            out.read_bytes() if out else None))
        assert results[0] == results[1], args
    roots = [json.loads(line) for line in spans.read_text().splitlines()]
    assert sum(s["name"] == tracer.ROOT for s in roots) == len(COMPARED)


def test_oracle_accepts_real_output_and_rejects_perturbed_output(shapes):
    d, wl = shapes
    by_args = {c.args: c for c in wl.commands}

    push = by_args[("push", "rho3.json", "ka.json")]
    out = json.loads(_cli(d, push.args, False).stdout)
    assert push.check(out, d) == []
    bad = dict(out, min_fiber_eigenvalue=out["min_fiber_eigenvalue"] * (1 + 1e-6))
    assert push.check(bad, d)

    compose = by_args[("compose", "ka.json", "kb.json", "-o", "kab.json")]
    out = json.loads(_cli(d, compose.args, False).stdout)
    assert compose.check(out, d) == []
    kernel = json.loads((d / "kab.json").read_text())
    key = next(iter(kernel["pi_re"]))
    kernel["pi_re"][key] += 1e-6
    (d / "kab.json").write_text(json.dumps(kernel))
    assert any("composed kernel" in p for p in compose.check(out, d))

    gns = by_args[("gns", "rho5.json")]
    out = json.loads(_cli(d, gns.args, False).stdout)
    assert gns.check(out, d) == []
    assert gns.check(dict(out, dim=out["dim"] + 1), d)

    assert oracle.check_cp({"is_cp": True, "min_choi_eigenvalue": -1.0}, False, -1.0)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "small-shapes",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in declared[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for p in BENCH.glob("*.py"):
        (bench / p.name).write_bytes(p.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-shapes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
