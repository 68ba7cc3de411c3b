"""End-to-end benchmark of the cencov-ncp CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is run from ``src/``.  The
benchmark generates the workload's input files from the seed with the
library, then runs the command list as fresh ``cencov-ncp --json``
processes, one after another (a closed loop with one client), in whole
passes until ``--seconds`` have gone by.  Every output is checked against a
numpy oracle (``oracle.py``).  BLAS runs on one thread.

Timings are wall-clock times scaled to a reference CPU speed (see
:class:`Clock`): on a shared host the speed of a core drifts by a quarter
or more over tens of seconds, and the scaling cancels that drift.  The raw
wall-clock samples are printed and kept in the result record as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, whose processes wrap each layer's public
functions (``tracer.py``), and reports the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Inputs, spans and a full result record are
written under ``perfbench/work/<workload>/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

WORKLOADS = ("channels-pair16", "estimation-pair20", "small-shapes")
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-ups per run: at least SETUPS, then more until they have taken
# SETUP_MIN_S, but no more than SETUPS_MAX; setup_s is their median
SETUPS, SETUP_MIN_S, SETUPS_MAX = 3, 1.0, 10
IMPORT_PROBES = 2    # ``cencov-ncp --help`` probes after each untraced pass
TIMEOUT_S = 150
CALIBRATION_LOOPS = 800_000
REFERENCE_S = 0.06   # the calibration loop's time at the reference speed (a
                     # 2-vCPU Intel Xeon VM, Python 3.11, when its host is quiet)
CLI = "from cencov_ncp.cli import main; main(prog_name='cencov-ncp')"

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cmd_geomean_s": "s",
                    "import_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    out_digest: str | None = None  # sha256 of the file written by ``-o``


def calibrate() -> float:
    """Time a fixed pure-Python loop: the current speed of this core."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return time.perf_counter() - start


class Clock:
    """Times work and scales it to the reference speed.

    The calibration loop runs before and after each timed call; the wall
    time is multiplied by ``REFERENCE_S`` over the mean of the two loop
    times.  A core running at three quarters of its speed thus leaves the
    scaled time unchanged.  The calibration lies outside the timed call.
    """

    def __init__(self):
        self.calibration = calibrate()
        self.speeds: list[float] = []

    def time(self, fn):
        """Returns ``(fn(), wall seconds, scaled seconds)``."""
        before = self.calibration
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.calibration = calibrate()
        speed = REFERENCE_S / ((before + self.calibration) / 2.0)
        self.speeds.append(speed)
        return result, wall, wall * speed


def child_env() -> dict[str, str]:
    # a fixed hash seed makes set iteration, and so every run, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0", **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def invoke(argv: list[str], cwd: Path, env: dict) -> Result:
    """Run one process to completion."""
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Result(-1, "", f"timed out after {TIMEOUT_S} s")
    return Result(proc.returncode, proc.stdout, proc.stderr)


def verify(cmd, res: Result, workdir: Path) -> list[str]:
    """Oracle problems with one invocation; empty when it is correct."""
    if res.code != cmd.exit_code:
        return [f"exit {res.code}, expected {cmd.exit_code}: {res.stderr.strip()[-300:]}"]
    if cmd.exit_code != 0:
        return []
    try:
        out = json.loads(res.stdout.strip().splitlines()[-1])
        return cmd.check(out, workdir)
    except (ValueError, IndexError, KeyError, TypeError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]


def nearest_rank(xs: list[float], p: float) -> float:
    ordered = sorted(xs)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(xs: list[float]):
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(xs) * (1 - p / 100) >= 10:
            return p, nearest_rank(xs, p)
    return None, None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment(args, facts: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": THREADS,
            "nproc": os.cpu_count(), "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **facts}


class Runner:
    """Runs passes of a workload's command list and tallies failures."""

    def __init__(self, wl, workdir: Path, clock: Clock):
        self.wl = wl
        self.workdir = workdir
        self.env = child_env()
        self.clock = clock
        self.walls: dict[str, list[float]] = {c.name: [] for c in wl.commands}
        self.raw_walls: dict[str, list[float]] = {c.name: [] for c in wl.commands}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{label}: {p}" for p in problems]

    def run_pass(self, argv_for, same_as: list[Result] | None = None):
        """One pass of the command list; returns its scaled time (the sum of
        its invocations') and the results.  With ``same_as`` (a traced pass),
        each output must also be byte-identical to that untraced pass's, and
        the per-command timings are not kept."""
        results = []
        total = 0.0
        for i, cmd in enumerate(self.wl.commands):
            out = self.workdir / cmd.out if cmd.out else None
            if out:
                out.unlink(missing_ok=True)
            res, wall, scaled = self.clock.time(
                lambda: invoke(argv_for(i, cmd), self.workdir, self.env))
            if out and out.is_file():
                res.out_digest = hashlib.sha256(out.read_bytes()).hexdigest()
            problems = verify(cmd, res, self.workdir)
            if same_as is not None and (res.code, res.stdout, res.out_digest) != (
                    same_as[i].code, same_as[i].stdout, same_as[i].out_digest):
                problems.append("traced output differs from untraced output")
            self.record(" ".join(cmd.args), problems)
            if same_as is None:
                self.walls[cmd.name].append(scaled)
                self.raw_walls[cmd.name].append(wall)
            total += scaled
            results.append(res)
        return total, results

    def import_probe(self) -> float:
        res, _, scaled = self.clock.time(
            lambda: invoke([sys.executable, "-c", CLI, "--help"], self.workdir, self.env))
        ok = res.code == 0 and "Usage: cencov-ncp" in res.stdout
        self.record("--help", [] if ok else [f"exit {res.code}: {res.stderr[-300:]}"])
        return scaled


def untraced(i, cmd) -> list[str]:
    return [sys.executable, "-c", CLI, "--json", *cmd.args]


def measure(args, runner: Runner, setup_times: list[float]):
    passes, imports = [], []
    start = time.perf_counter()
    while True:
        wall, _ = runner.run_pass(untraced)
        passes.append(wall)
        imports += [runner.import_probe() for _ in range(IMPORT_PROBES)]
        if time.perf_counter() - start >= args.seconds:
            break
    medians = [statistics.median(w) for w in runner.walls.values()]
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(passes),
        "cmd_geomean_s": math.exp(statistics.fmean(math.log(x) for x in medians)),
        "import_s": statistics.median(imports),
        "peak_rss_mb": rss,
    }, {"passes": passes, "imports": imports, "setups": setup_times,
        "speeds": runner.clock.speeds}


def measure_traced(args, runner: Runner, setup_metrics: dict):
    import tracer

    spans_dir = runner.workdir / "spans"
    spans_dir.mkdir()
    plain, traced, folds = [], [], []
    last_plain: list[Result] = []
    start = time.perf_counter()
    k = 0
    while True:
        if k % 2 == 0:
            wall, last_plain = runner.run_pass(untraced)
            plain.append(wall)
        else:
            spans_file = spans_dir / f"pass{k}.jsonl"

            def traced_argv(i, cmd, spans_file=spans_file):
                return [sys.executable, str(HERE / "tracer.py"), str(spans_file),
                        f"{k}:{i}", "--json", *cmd.args]

            wall, _ = runner.run_pass(traced_argv, same_as=last_plain)
            traced.append(wall)
            lines = spans_file.read_text().splitlines() if spans_file.exists() else []
            spans = [json.loads(line) for line in lines]
            m = tracer.fold(spans)
            gap = tracer.partition_gap(spans, m)
            if m["cli.calls"] != len(runner.wl.commands):
                runner.problems.append(f"pass {k}: {m['cli.calls']} traced invocations "
                                       f"of {len(runner.wl.commands)} left spans")
            if gap > 1e-6 * max(1, len(spans)):
                runner.problems.append(
                    f"pass {k}: layer self times miss the commands by {gap:.3e} s")
            folds.append(m)
        k += 1
        if k >= 2 and time.perf_counter() - start >= args.seconds:
            break
    metrics = {name: statistics.median(f[name] for f in folds) for name in tracer.METRICS}
    metrics.update(setup_metrics)
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.traced_pass_s"] = statistics.median(traced)
    metrics["trace.overhead_ratio"] = (metrics["trace.traced_pass_s"]
                                       / metrics["trace.untraced_pass_s"])
    return metrics, {"passes": plain, "traced_passes": traced, "speeds": runner.clock.speeds}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_flops"):
        return "flop"
    return "count"


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def report(args, runner: Runner, metrics: dict, env: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'command':<10} {'n':>3} {'median_s':>10} {'raw_median_s':>13}  tail")
    for name, walls in runner.walls.items():
        p, value = tail_percentile(walls)
        tail = f"p{p:g}={value:.4f} s" if p else "(fewer than 20 samples)"
        raw = statistics.median(runner.raw_walls[name])
        print(f"{name:<10} {len(walls):>3} {statistics.median(walls):>10.4f} {raw:>13.4f}  {tail}")
    print(f"speed = {statistics.median(runner.clock.speeds):.4f} of the reference (median)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"failed_frac = {runner.failed}/{runner.attempted}")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cencov_ncp" / "__init__.py").is_file():
        print(f"perfbench: no cencov_ncp sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.update(THREADS)  # before numpy loads BLAS in this process
    # one core for this process and every CLI process it starts, so that the
    # calibration loop measures the core the commands run on
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = WORK / args.workload
    clock = Clock()
    if args.trace:
        import tracer

        fresh_dir(workdir)
        setup_tracer = tracer.Tracer("setup")
        setup_tracer.install()
        try:
            wl = workloads.generate(args.workload, workdir, args.seed)
        finally:
            setup_tracer.restore()
        setup_tracer.dump(workdir / "setup_spans.jsonl")
        runner = Runner(wl, workdir, clock)
        metrics, samples = measure_traced(args, runner, tracer.fold_setup(setup_tracer.spans))
    else:
        setup_times, setup_walls = [], []
        while len(setup_times) < SETUPS or (
                sum(setup_walls) < SETUP_MIN_S and len(setup_times) < SETUPS_MAX):
            fresh_dir(workdir)
            wl, wall, scaled = clock.time(
                lambda: workloads.generate(args.workload, workdir, args.seed))
            setup_times.append(scaled)
            setup_walls.append(wall)
        runner = Runner(wl, workdir, clock)
        metrics, samples = measure(args, runner, setup_times)

    env = environment(args, wl.facts)
    record = {"env": env, "metrics": metrics, "samples": samples,
              "command_scaled_s": runner.walls, "command_wall_s": runner.raw_walls,
              "problems": runner.problems}
    (workdir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report(args, runner, metrics, env)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
