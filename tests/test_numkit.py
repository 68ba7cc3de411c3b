import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cencov_ncp import numkit
from cencov_ncp.errors import DimensionMismatch, NotHermitian, NotSquare
from reference import hermitian_eigen, matrix_rank_hermitian, min_norm_solve, psd_verdict


def test_eigen_diagonal():
    res = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(res.eigenvalues, [1.0, 2.0, 3.0])


def test_eigen_known_2x2():
    # eigenvalues of [[2,1],[1,2]] are 1 and 3
    res = hermitian_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(res.eigenvalues, [1.0, 3.0])
    V = res.eigenvectors
    assert np.allclose(V.conj().T @ V, np.eye(2))


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_rejects_non_square():
    with pytest.raises(NotSquare):
        hermitian_eigen(np.zeros((2, 3)))


def test_psd_verdict():
    ok, lo = psd_verdict(np.diag([1.0, 0.0, 2.0]))
    assert ok and lo == pytest.approx(0.0, abs=1e-12)
    ok, lo = psd_verdict(np.diag([1.0, -0.5]))
    assert not ok and lo == pytest.approx(-0.5)


def test_min_norm_solve_invertible():
    G = np.array([[2.0, 0.0], [0.0, 4.0]])
    x, res, rank = min_norm_solve(G, [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0])
    assert res < 1e-12 and rank == 2


def test_min_norm_solve_singular_in_range():
    G = np.diag([1.0, 0.0])
    x, res, rank = min_norm_solve(G, [3.0, 0.0])
    assert np.allclose(x, [3.0, 0.0])
    assert res < 1e-12 and rank == 1


def test_min_norm_solve_singular_off_range():
    G = np.diag([1.0, 0.0])
    _, res, _ = min_norm_solve(G, [0.0, 1.0])
    assert res == pytest.approx(1.0)


def test_min_norm_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        min_norm_solve(np.eye(2), [1.0, 2.0, 3.0])


def test_matrix_rank_hermitian():
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    assert matrix_rank_hermitian(rows) == 2
    assert matrix_rank_hermitian(np.zeros((0, 3))) == 0


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (4, 4), elements=st.floats(-5, 5)))
def test_psd_of_gram_is_always_psd(A):
    ok, _ = psd_verdict(A @ A.T)
    assert ok


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (4, 4), elements=st.floats(-5, 5)))
def test_eigen_reconstructs_matrix(A):
    H = (A + A.T) / 2.0
    res = hermitian_eigen(H)
    R = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.conj().T
    assert np.abs(R - H).max() < 1e-9 * (1 + np.abs(H).max())


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (3, 4, 4), elements=st.floats(-5, 5)),
       arrays(np.float64, (3, 4, 4), elements=st.floats(-5, 5)))
def test_hermitian_spectra_of_a_stack(A, B):
    """One batched solve gives each matrix's Hermitian-part spectrum and an
    eigenbasis, with or without eigenvectors; non-finite entries raise."""
    H = A + 1j * B
    w, V = numkit.hermitian_spectra(H, vectors=True)
    scale = 1.0 + np.abs(H).max()
    assert np.abs(numkit.hermitian_spectra(H) - w).max() < 1e-12 * scale
    for k in range(3):
        herm = (H[k] + H[k].conj().T) / 2.0
        assert np.abs(w[k] - hermitian_eigen(herm).eigenvalues).max() < 1e-12 * scale
        assert np.abs(V[k] @ np.diag(w[k]) @ V[k].conj().T - herm).max() < 1e-9 * scale
    H[1, 2, 3] = np.nan
    with pytest.raises(NotHermitian):
        numkit.hermitian_spectra(H)
