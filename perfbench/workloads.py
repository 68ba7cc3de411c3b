"""Seeded input generation for the benchmark workloads.

Each generator draws its ground truth (density matrices, Kraus operators,
model directions, estimators) from the seed with numpy, writes the input
files with the library, and returns the command list with one oracle check
per command.  The CLI only ever sees the written files.  Library functions
are reached through module attributes (``c.pair_groupoid``,
``channels.choi_to_kernel``) so that a traced set-up records them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import cencov_ncp as c
from cencov_ncp import channels, fileio

import oracle

Check = Callable[[dict, Path], list]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``cencov-ncp --json <args>`` run in the work dir."""

    name: str
    args: tuple[str, ...]
    check: Check
    exit_code: int = 0
    out: str | None = None  # file written by ``-o``, relative to the work dir


@dataclass
class Workload:
    commands: list[Command]
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

def _gaussian(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_density(rng, n: int, rank: int | None = None) -> np.ndarray:
    A = _gaussian(rng, n, rank or n)
    D = A @ A.conj().T
    return D / np.trace(D).real


def random_kraus(rng, n: int, k: int) -> list[np.ndarray]:
    """k operators with ``sum A^dagger A = I``: blocks of an isometry."""
    Q, _ = np.linalg.qr(_gaussian(rng, k * n, n))
    return [Q[i * n:(i + 1) * n] for i in range(k)]


def random_hermitian(rng, n: int) -> np.ndarray:
    A = _gaussian(rng, n, n)
    return (A + A.conj().T) / 2.0


def _rng(seed: int, salt: int):
    return np.random.default_rng([seed, salt])


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps({"fmt": fileio.FMT, **data}, indent=2) + "\n")


def _save_pair_state(D, G, d: Path, name: str, gref: str) -> None:
    fileio.save_state(c.state_from_density(D, G), d / name, gref)


def _save_model(d: Path, name: str, gref: str, states: dict[float, str],
                interval, grid=()) -> None:
    _write_json(d / name, {
        "groupoid": gref, "s0": 0.0, "interval": list(interval), "grid": list(grid),
        "states": {repr(s): ref for s, ref in states.items()},
    })


def _check(fn, *args, **kwargs) -> Check:
    return lambda out, d: fn(out, *args, **kwargs)


def _expect_exit(out, d) -> list:
    return []


def _input_bytes(d: Path) -> int:
    return sum(p.stat().st_size for p in d.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def channels_workload(d: Path, seed: int, n: int = 16) -> Workload:
    """pair(n), one full-rank state and three random Kraus kernels."""
    rng = _rng(seed, 1)
    G = c.pair_groupoid(n)
    fileio.save_groupoid(G, d / "g.json")
    D = random_density(rng, n)
    _save_pair_state(D, G, d, "rho.json", "g.json")
    kraus = [random_kraus(rng, n, int(rng.integers(2, 5))) for _ in range(3)]
    names = [f"k{i + 1}.json" for i in range(3)]
    for ops, name in zip(kraus, names):
        fileio.save_kernel(channels.choi_to_kernel(ops, G, G), d / name, "g.json", "g.json")
    _write_json(d / "pipe.json", {"initial_state": "rho.json", "kernels": names})

    cmds = [
        Command("validate", ("validate", "k1.json"),
                _check(oracle.check_validate_kernel, kraus[0])),
        Command("cp", ("cp", "k1.json"),
                _check(oracle.check_cp, True, oracle.choi_min_eigenvalue(kraus[0]))),
        Command("push", ("push", "rho.json", "k1.json"),
                _check(oracle.check_push, oracle.apply_kraus(kraus[0], D))),
        Command("pipeline", ("pipeline", "pipe.json", "-o", "piped.json"),
                lambda out, w: oracle.check_pipeline(out, D, kraus, w / "piped.json"),
                out="piped.json"),
        Command("compose", ("compose", "k1.json", "k2.json", "-o", "k12.json"),
                lambda out, w: oracle.check_compose(out, kraus[0], kraus[1], w / "k12.json"),
                out="k12.json"),
    ]
    return Workload(cmds, {"groupoids": {"pair": [n * n, n ** 3]},
                           "kraus_operators": [len(k) for k in kraus]})


def estimation_workload(d: Path, seed: int, n: int = 20) -> Workload:
    """pair(n): a 5-point model ``D0 + s H``, a rank-n/2 state, an estimator."""
    rng = _rng(seed, 2)
    G = c.pair_groupoid(n)
    fileio.save_groupoid(G, d / "g.json")
    D0 = 0.6 * np.eye(n) / n + 0.4 * random_density(rng, n)
    H = random_hermitian(rng, n)
    H -= np.trace(H).real / n * np.eye(n)
    s_max = 0.04
    # keep every grid state at least half as positive as D0
    H *= 0.5 * np.linalg.eigvalsh(D0)[0] / (s_max * np.abs(np.linalg.eigvalsh(H)).max())
    states = {}
    for k, s in enumerate((-s_max, -s_max / 2, 0.0, s_max / 2, s_max)):
        states[s] = f"m{k}.json"
        _save_pair_state(D0 + s * H, G, d, states[s], "g.json")
    _save_model(d, "model.json", "g.json", states, (-s_max, s_max))
    D_low = random_density(rng, n, rank=n // 2)
    _save_pair_state(D_low, G, d, "lowrank.json", "g.json")
    X = random_hermitian(rng, n)
    X /= np.abs(np.linalg.eigvalsh(X)).max()
    fileio.save_algebra_element(c.element_from_matrix(G, X), d / "est.json", "g.json")

    fisher = oracle.quantum_fisher(D0, H)
    cmds = [
        Command("gns", ("gns", "lowrank.json"),
                _check(oracle.check_gns, oracle.pair_gns_spectrum(D_low))),
        Command("fisher", ("fisher", "model.json"), _check(oracle.check_fisher, fisher)),
        Command("crb", ("crb", "model.json", "--estimator", "est.json"),
                _check(oracle.check_crb, fisher, D0, X)),
    ]
    return Workload(cmds, {"groupoids": {"pair": [n * n, n ** 3]}})


def small_shapes_workload(d: Path, seed: int) -> Workload:
    """Small, varied groupoids; every command and file kind; expected failures."""
    rng = _rng(seed, 3)
    p3, p5 = c.pair_groupoid(3), c.pair_groupoid(5)
    t2, t4 = c.trivial_groupoid(2), c.trivial_groupoid(4)
    z12 = c.cyclic_group_groupoid(12)
    prod = c.product(c.pair_groupoid(2), c.pair_groupoid(3))
    du = c.disjoint_union(c.pair_groupoid(2), t2, 0.3)
    for G, name in ((p3, "p3"), (p5, "p5"), (t2, "t2"), (t4, "t4"),
                    (z12, "z12"), (prod, "prod"), (du, "du")):
        fileio.save_groupoid(G, d / f"{name}.json")

    # pair(3) channels
    D3 = random_density(rng, 3)
    _save_pair_state(D3, p3, d, "rho3.json", "p3.json")
    ka = random_kraus(rng, 3, int(rng.integers(2, 5)))
    kb = random_kraus(rng, 3, int(rng.integers(2, 5)))
    fileio.save_kraus(ka, d / "kraus3.json")
    fileio.save_kernel(channels.choi_to_kernel(ka, p3, p3), d / "ka.json", "p3.json", "p3.json")
    fileio.save_kernel(channels.choi_to_kernel(kb, p3, p3), d / "kb.json", "p3.json", "p3.json")
    fileio.save_kernel(channels.kernel_from_matrix_map(lambda M: M.T, p3, p3),
                       d / "transpose3.json", "p3.json", "p3.json")
    F3 = random_hermitian(rng, 3)
    fileio.save_algebra_element(c.element_from_matrix(p3, F3), d / "obs3.json", "p3.json")
    _write_json(d / "pipe3.json", {"initial_state": "rho3.json",
                                   "kernels": ["ka.json", "kb.json"]})

    # classical kernels, and a kernel between trivial groupoids (not a pair groupoid)
    K = rng.random((2, 2)) + 0.1
    K /= K.sum(axis=1, keepdims=True)
    fileio.save_classical_kernel(c.ClassicalKernel(K), d / "ck.json")
    fileio.save_kernel(c.embed_classical(c.ClassicalKernel(K), t2, t2),
                       d / "qk_t2.json", "t2.json", "t2.json")

    # classical model on trivial(4), and a stationary one
    p0 = rng.random(4) + 0.5
    p0 /= p0.sum()
    dp = rng.normal(size=4)
    dp -= dp.mean()
    dp *= 0.5 * p0.min() / (0.1 * np.abs(dp).max())
    grid_s = (-0.1, -0.05, 0.0, 0.05, 0.1)
    moving, still = {}, {}
    for k, s in enumerate(grid_s):
        moving[s], still[s] = f"c{k}.json", f"flat{k}.json"
        fileio.save_state(c.classical_state(t4, p0 + s * dp), d / moving[s], "t4.json")
        fileio.save_state(c.classical_state(t4, p0), d / still[s], "t4.json")
    _save_model(d, "model_c.json", "t4.json", moving, (-0.1, 0.1), grid=(-0.05, 0.0, 0.05))
    _save_model(d, "model_flat.json", "t4.json", still, (-0.1, 0.1))

    # pair(3) quantum model with an estimator
    Q0 = 0.5 * np.eye(3) / 3 + 0.5 * random_density(rng, 3)
    Hq = random_hermitian(rng, 3)
    Hq -= np.trace(Hq).real / 3 * np.eye(3)
    Hq *= 0.5 * np.linalg.eigvalsh(Q0)[0] / (0.1 * np.abs(np.linalg.eigvalsh(Hq)).max())
    qstates = {}
    for k, s in enumerate(grid_s):
        qstates[s] = f"q{k}.json"
        _save_pair_state(Q0 + s * Hq, p3, d, qstates[s], "p3.json")
    _save_model(d, "model_q3.json", "p3.json", qstates, (-0.1, 0.1))
    X3 = random_hermitian(rng, 3)
    fileio.save_algebra_element(c.element_from_matrix(p3, X3), d / "est3.json", "p3.json")

    # GNS inputs: one fiber (Z_12), a product groupoid, a low-rank pair(5) state
    weights = rng.random(12) * (rng.random(12) < 0.6)
    weights[0] += 0.1
    weights /= weights.sum()
    omega = np.exp(2j * np.pi * np.outer(np.arange(12), np.arange(12)) / 12)
    phi_z = omega @ weights  # phi(g_j) = sum_k w_k exp(2 pi i jk/12)
    phi = np.zeros(12, dtype=complex)
    for j in range(12):
        phi[z12.index[f"g{j}"]] = phi_z[j]
    fileio.save_state(c.make_state(z12, phi), d / "z12_state.json", "z12.json")
    D6 = random_density(rng, 6, rank=4)
    _save_pair_state(D6, prod, d, "prod_state.json", "prod.json")
    D5 = random_density(rng, 5, rank=2)
    _save_pair_state(D5, p5, d, "rho5.json", "p5.json")

    (d / "bad_fmt.json").write_text(json.dumps({"fmt": "cencov-ncp/999", "compose": []}))

    fisher_c = float(np.sum(dp * dp / p0))
    fisher_q = oracle.quantum_fisher(Q0, Hq)
    cmds = [
        Command("validate", ("validate", "kraus3.json"),
                _check(oracle.check_validate_kraus, ka)),
        Command("validate", ("validate", "ck.json"),
                _check(oracle.check_validate_counts, shape=[2, 2])),
        Command("validate", ("validate", "model_c.json"),
                _check(oracle.check_validate_counts, grid_points=3, s0=0.0)),
        Command("validate", ("validate", "du.json"),
                _check(oracle.check_validate_counts, outcomes=4, elements=6)),
        Command("validate", ("validate", "bad_fmt.json"), _expect_exit, exit_code=2),
        Command("cp", ("cp", "transpose3.json"), _check(oracle.check_cp, False, -1.0)),
        Command("cp", ("cp", "qk_t2.json"), _expect_exit, exit_code=1),
        Command("push", ("push", "rho3.json", "ka.json"),
                _check(oracle.check_push, oracle.apply_kraus(ka, D3))),
        Command("pull", ("pull", "ka.json", "obs3.json", "-o", "pulled3.json"),
                lambda out, w: oracle.check_pull(out, ka, F3, w / "pulled3.json"),
                out="pulled3.json"),
        Command("pipeline", ("pipeline", "pipe3.json", "-o", "piped3.json"),
                lambda out, w: oracle.check_pipeline(out, D3, [ka, kb], w / "piped3.json"),
                out="piped3.json"),
        Command("compose", ("compose", "ka.json", "kb.json", "-o", "kab.json"),
                lambda out, w: oracle.check_compose(out, ka, kb, w / "kab.json"),
                out="kab.json"),
        Command("gns", ("gns", "z12_state.json"),
                _check(oracle.check_gns, np.sort(12 * weights))),
        Command("gns", ("gns", "prod_state.json"),
                _check(oracle.check_gns, oracle.pair_gns_spectrum(D6))),
        Command("gns", ("gns", "rho5.json"),
                _check(oracle.check_gns, oracle.pair_gns_spectrum(D5))),
        Command("fisher", ("fisher", "model_c.json"),
                _check(oracle.check_fisher, fisher_c, classical=True)),
        Command("crb", ("crb", "model_q3.json", "--estimator", "est3.json"),
                _check(oracle.check_crb, fisher_q, Q0, X3)),
        Command("crb", ("crb", "model_flat.json"), _expect_exit, exit_code=3),
    ]
    groupoids = {name: [len(G.elements), len(G.composable_pairs)] for G, name in (
        (p3, "pair3"), (p5, "pair5"), (t4, "trivial4"), (z12, "cyclic12"),
        (prod, "pair2xpair3"), (du, "pair2+trivial2"))}
    return Workload(cmds, {"groupoids": groupoids})


GENERATORS: dict[str, Callable[[Path, int], Workload]] = {
    "channels-pair16": channels_workload,
    "estimation-pair20": estimation_workload,
    "small-shapes": small_shapes_workload,
}


def generate(name: str, d: Path, seed: int) -> Workload:
    """Write the inputs of workload ``name`` into the empty directory ``d``."""
    wl = GENERATORS[name](d, seed)
    wl.facts["input_bytes"] = _input_bytes(d)
    return wl
