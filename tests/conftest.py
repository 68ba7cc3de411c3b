import json

import numpy as np
import pytest

import cencov_ncp as c
from cencov_ncp import channels, fileio
from cencov_ncp.groupoid import GroupoidSpec
from reference import label_tables


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


def strict_json(text):
    """``json.loads`` of JSON as RFC 8259 has it: NaN, Infinity and -Infinity
    are no JSON values."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


# asymmetry max|H - H^dagger| as a multiple of the bound tol * (1 + max|H|) of
# numkit.psd_verdicts, and whether the matrix passes: between the bound and ten
# times it a matrix is refused, so a gate at 10 tol would let it through
GATE_RATIOS = [(0.5, True), (0.9, True), (1.5, False), (3.0, False), (9.0, False)]


def non_hermitian_choi(G, eps=0.1):
    """The identity kernel of the pair groupoid G with eps i (E_01 + E_10)
    added to its Choi matrix, whose Hermitian part it keeps: a Choi asymmetry
    of 2 eps; at eps = 0.1 a hermiticity deficit of 0.4, so neither a kernel
    nor CP."""
    K, _, _ = channels._choi_index(G, G, "Choi matrices")
    C = channels.choi_matrix(channels.identity_kernel(G))
    C[[0, 1], [1, 0]] += eps * 1j
    return channels._from_choi(C, K, G, G)


def spec_of(G):
    """The string tables of a groupoid, as raw input to ``validate``."""
    T = label_tables(G)
    return GroupoidSpec(
        outcomes=list(G.outcomes), elements=list(G.elements),
        source=T.source, target=T.target,
        inverse=T.inverse, compose=list(G.composable_pairs),
        units=T.units, P=T.P,
        fiber_weight=T.fiber_weight,
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
