import json

import numpy as np
import pytest

import cencov_ncp as c
from cencov_ncp import fileio
from cencov_ncp.groupoid import GroupoidSpec


def random_density(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    D = A @ A.conj().T
    return D / np.trace(D).real


def random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2.0


def random_kraus(rng, n, m, k=3):
    """A random trace-preserving Kraus family of m x n operators."""
    B = [rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)) for _ in range(k)]
    S = sum(b.conj().T @ b for b in B)
    w, V = np.linalg.eigh(S)
    S_inv_half = V @ np.diag(1.0 / np.sqrt(w)) @ V.conj().T
    return [b @ S_inv_half for b in B]


def spec_of(G):
    """The string tables of a groupoid, as raw input to ``validate``."""
    return GroupoidSpec(
        outcomes=list(G.outcomes), elements=list(G.elements),
        source=dict(G.source), target=dict(G.target),
        inverse=dict(G.inverse_map), compose=list(G.composable_pairs),
        units=dict(G.unit_of), P=dict(G.P),
        fiber_weight=dict(G.fiber_weight),
    )


def rows(table):
    """The compose rows ``(beta, alpha, beta o alpha)`` of a table
    ``{(beta, alpha): beta o alpha}``, in its order."""
    return [(b, a, g) for (b, a), g in table.items()]


def random_stochastic(rng, n, m):
    M = rng.uniform(0.1, 1.0, size=(n, m))
    return M / M.sum(axis=1, keepdims=True)


@pytest.fixture
def pair2():
    return c.pair_groupoid(2)


@pytest.fixture
def pair3():
    return c.pair_groupoid(3)


@pytest.fixture
def triv2():
    return c.trivial_groupoid(2)


@pytest.fixture
def fixture_dir(tmp_path, pair2, triv2):
    """A directory of JSON fixture files exercising every file kind."""
    d = tmp_path
    fileio.save_groupoid(pair2, d / "pair2.json")
    fileio.save_groupoid(triv2, d / "triv2.json")

    D = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    rho = c.state_from_density(D, pair2)
    fileio.save_state(rho, d / "rho.json", "pair2.json")

    fileio.save_kernel(c.identity_kernel(pair2), d / "idk.json",
                       "pair2.json", "pair2.json")
    from cencov_ncp.channels import kernel_from_matrix_map
    tr = kernel_from_matrix_map(lambda M: M.T, pair2, pair2)
    fileio.save_kernel(tr, d / "transpose.json", "pair2.json", "pair2.json")

    M = c.coin_model(0.0)
    states = {}
    for s in (-0.3, -0.15, 0.0, 0.15, 0.3):
        name = f"coin_{s}.json"
        fileio.save_state(M.at(s), d / name, "triv2.json")
        states[str(s)] = name
    with open(d / "coin_model.json", "w") as f:
        json.dump({"fmt": fileio.FMT, "groupoid": "triv2.json", "s0": 0.0,
                   "interval": [-0.3, 0.3], "grid": [-0.1, 0.0, 0.1],
                   "states": states}, f)

    pm = c.element_from_dict(triv2, {"1_1": 0.5, "1_2": -0.5})
    fileio.save_algebra_element(pm, d / "pm_half.json", "triv2.json")
    sz = c.element_from_matrix(pair2, np.diag([1.0, -1.0]))
    fileio.save_algebra_element(sz, d / "sz.json", "pair2.json")

    with open(d / "pipe.json", "w") as f:
        json.dump({"fmt": fileio.FMT, "initial_state": "rho.json",
                   "kernels": ["idk.json", "idk.json"]}, f)
    return d
