"""The Riesz representer, projected onto the GNS quotient basis, agrees with
the spectral minimum-norm solve of ``gram l = conj(v)`` in ``reference.py``:
on full-rank and rank-deficient pair states, for derivatives inside the
folium and for derivatives that leave it."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cencov_ncp as c
import reference as ref
from conftest import random_hermitian
from cencov_ncp.errors import FoliumViolation
from cencov_ncp.estimation import (
    FOLIUM_TOL,
    StatisticalModel,
    derivative_vector,
    fisher_metric,
    riesz_representer,
)
from cencov_ncp.gns import build_gns


def pair_model(n: int, rank: int, kind: str, seed: int) -> StatisticalModel:
    """``D(s) = D0 + s H`` with H inside the support of D0 ("inside"), or
    ``D(s) = exp(isK) D0 exp(-isK)`` ("rotation"), which leaves the folium
    of a rank-deficient D0."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    V = np.linalg.qr(A)[0][:, :rank]
    p = rng.uniform(0.2, 1.0, size=rank)
    D0 = V @ np.diag(p / p.sum()) @ V.conj().T
    X = random_hermitian(rng, rank)
    H = V @ (X - np.trace(X) / rank * np.eye(rank)) @ V.conj().T
    w, U = np.linalg.eigh(random_hermitian(rng, n))
    G = c.pair_groupoid(n)

    def density(s: float) -> np.ndarray:
        if kind == "inside":
            return D0 + s * H
        R = U @ np.diag(np.exp(1j * s * w)) @ U.conj().T
        return R @ D0 @ R.conj().T

    def curve(s: float):
        return c.state_from_density(density(s), G)

    # short enough that D0 + s H stays PSD
    return StatisticalModel(groupoid=G, curve=curve, s0=0.0, interval=(-1e-3, 1e-3))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), rank=st.integers(1, 4),
       kind=st.sampled_from(["inside", "rotation"]), seed=st.integers(0, 2**32 - 1))
@example(n=3, rank=3, kind="rotation", seed=1)
@example(n=3, rank=2, kind="inside", seed=2)
@example(n=3, rank=1, kind="rotation", seed=3)
def test_riesz_matches_min_norm_solve(n, rank, kind, seed):
    rank = min(rank, n)
    M = pair_model(n, rank, kind, seed)
    S = build_gns(M.at(M.s0))
    v = derivative_vector(M)
    x, residual, _ = ref.min_norm_solve(S.gram, np.conj(v))
    scale = 1.0 + float(np.abs(v).max())
    if kind == "rotation" and rank < n:
        assert residual > FOLIUM_TOL * scale  # the derivative leaves the folium
    if residual > FOLIUM_TOL * scale:
        with pytest.raises(FoliumViolation):
            riesz_representer(M, S)
        return
    ell, res = riesz_representer(M, S)
    assert np.linalg.norm(ell - x) <= 1e-9 * np.linalg.norm(x) + 1e-12
    assert abs(res - residual) <= 1e-9 * scale
    want = float((x.conj() @ S.gram @ x).real)
    assert fisher_metric(M, S) == pytest.approx(want, rel=1e-9, abs=1e-12)
