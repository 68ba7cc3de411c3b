"""Independent output checks for the cencov-ncp CLI, written with numpy only.

Nothing here imports ``cencov_ncp``.  Expected values come from the ground
truth the workload generator drew from its seed (density matrices, Kraus
operators, model directions), and output files are parsed straight from
their JSON.  Every check returns a list of problems; an empty list means the
output agrees with the oracle.

Conventions, derived from the definitions rather than from the library: on a
uniform pair groupoid the element ``(t,s)`` is the transition s -> t, a state
has ``phi((t,s)) = n D[s,t]``, an algebra element has matrix
``F[t,s] = a((t,s))``, and a Kraus kernel maps ``D -> sum_k A_k D A_k^dagger``.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REL_TOL = 1e-8


def _read(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _near(name: str, got, want, tol: float = REL_TOL) -> list[str]:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    scale = 1.0 + (float(np.abs(want).max()) if want.size else 0.0)
    dev = float(np.abs(got - want).max()) if want.size else 0.0
    return [] if dev <= tol * scale else [f"{name}: off by {dev:.3e}"]


def _equal(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: {got!r}, expected {want!r}"]


def _small(name: str, got, tol: float = 1e-9) -> list[str]:
    return [] if abs(got) <= tol else [f"{name}: {got!r} exceeds {tol}"]


# ---------------------------------------------------------------------------
# file parsing
# ---------------------------------------------------------------------------

def pair_layout(groupoid_path: Path) -> tuple[int, dict[str, tuple[int, int]]]:
    """``(n, element -> (target index, source index))`` of a pair groupoid file."""
    g = _read(groupoid_path)
    oidx = {x: i for i, x in enumerate(g["outcomes"])}
    return len(oidx), {e: (oidx[g["target"][e]], oidx[g["source"][e]])
                       for e in g["elements"]}


def _values(data: dict, re_key: str, im_key: str) -> dict[str, complex]:
    out: dict[str, complex] = {}
    for key, factor in ((re_key, 1.0), (im_key, 1j)):
        for name, val in data.get(key, {}).items():
            out[name] = out.get(name, 0.0) + factor * float(val)
    return out


def density_from_file(state_path: Path) -> np.ndarray:
    data = _read(state_path)
    n, layout = pair_layout(state_path.parent / data["groupoid"])
    D = np.zeros((n, n), dtype=complex)
    for elem, val in _values(data, "phi_re", "phi_im").items():
        t, s = layout[elem]
        D[s, t] = val / n
    return D


def matrix_from_file(algebra_path: Path) -> np.ndarray:
    data = _read(algebra_path)
    n, layout = pair_layout(algebra_path.parent / data["groupoid"])
    F = np.zeros((n, n), dtype=complex)
    for elem, val in _values(data, "coeff_re", "coeff_im").items():
        F[layout[elem]] = val
    return F


def kernel_from_file(kernel_path: Path) -> np.ndarray:
    """Kernel array ``Pi[t1, s1, t2, s2]`` of a kernel between pair groupoids."""
    data = _read(kernel_path)
    n, lay1 = pair_layout(kernel_path.parent / data["source_groupoid"])
    m, lay2 = pair_layout(kernel_path.parent / data["target_groupoid"])
    pi = np.zeros((n, n, m, m), dtype=complex)
    for key, val in _values(data, "pi_re", "pi_im").items():
        a1, a2 = key.split("|")
        pi[lay1[a1] + lay2[a2]] = val
    return pi


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def apply_kraus(ops, D: np.ndarray) -> np.ndarray:
    return sum(A @ D @ A.conj().T for A in ops)


def kraus_kernel(ops) -> np.ndarray:
    """``Pi[t1,s1,t2,s2] = m sum_k A_k[s2,s1] conj(A_k[t2,t1])``: the kernel
    whose pushforward realises ``D -> sum_k A_k D A_k^dagger`` under the
    density dictionary."""
    A = np.asarray(ops)
    m = A.shape[1]
    return m * np.einsum("kbs,kat->tsab", A, A.conj())


def choi_min_eigenvalue(ops) -> float:
    """Minimum eigenvalue of ``sum_k vec(A_k) vec(A_k)^dagger`` (the Choi matrix)."""
    V = np.array([A.reshape(-1) for A in ops])
    return float(np.linalg.eigvalsh(V.T @ V.conj())[0])


def fiber_min_eigenvalue(D: np.ndarray) -> float:
    """Every target fiber of a pair-groupoid state has Gram matrix ``n D^T``."""
    return float(D.shape[0] * np.linalg.eigvalsh(D)[0])


def quantum_fisher(D0: np.ndarray, H: np.ndarray) -> float:
    """GNS Fisher metric of ``D0 + s H`` at s = 0 for invertible D0:
    ``Tr(H D0^-1 H)``."""
    return float(np.trace(H @ np.linalg.solve(D0, H)).real)


def pair_gns_spectrum(D: np.ndarray) -> np.ndarray:
    """Gram spectrum of a pair-groupoid state: eig(D), each n times."""
    return np.sort(np.tile(np.linalg.eigvalsh(D), D.shape[0]))


def numerical_rank(w: np.ndarray, rank_tol: float = 1e-9) -> int:
    return int(np.count_nonzero(w > rank_tol * np.abs(w).max()))


# ---------------------------------------------------------------------------
# checks on CLI output (``out`` is the parsed ``--json`` object)
# ---------------------------------------------------------------------------

def check_validate_kernel(out: dict, ops) -> list[str]:
    m = ops[0].shape[0]
    n = ops[0].shape[1]
    # Pi(1_x, .) is the state of sum_k A_k |x><x| A_k^dagger scaled by m
    worst = min(
        m * float(np.linalg.eigvalsh(sum(np.outer(A[:, x], A[:, x].conj())
                                         for A in ops))[0])
        for x in range(n)
    )
    return (_equal("passed", out.get("passed"), True)
            + _small("normalization_deficit", out["normalization_deficit"])
            + _small("hermiticity_deficit", out["hermiticity_deficit"])
            + _near("min_fiber_eigenvalue", out["min_fiber_eigenvalue"], worst))


def check_validate_kraus(out: dict, ops) -> list[str]:
    dev = float(np.abs(sum(A.conj().T @ A for A in ops) - np.eye(ops[0].shape[1])).max())
    return (_equal("passed", out.get("passed"), True)
            + _equal("operators", out.get("operators"), len(ops))
            + _near("completeness_deficit", out["completeness_deficit"], dev, tol=1e-12))


def check_cp(out: dict, want_cp: bool, want_min: float) -> list[str]:
    return (_equal("is_cp", out.get("is_cp"), want_cp)
            + _near("min_choi_eigenvalue", out["min_choi_eigenvalue"], want_min))


def check_push(out: dict, D_out: np.ndarray) -> list[str]:
    return (_equal("passed", out.get("passed"), True)
            + _small("normalization_deficit", out["normalization_deficit"])
            + _near("min_fiber_eigenvalue", out["min_fiber_eigenvalue"],
                    fiber_min_eigenvalue(D_out)))


def check_pipeline(out: dict, D0: np.ndarray, stages, out_file: Path | None) -> list[str]:
    problems = _equal("passed", out.get("passed"), True)
    problems += _equal("stages", len(out.get("stages", [])), len(stages))
    D = D0
    for k, (ops, got) in enumerate(zip(stages, out.get("stages", []))):
        D = apply_kraus(ops, D)
        problems += _near(f"stage {k} min_fiber_eigenvalue",
                          got["min_fiber_eigenvalue"], fiber_min_eigenvalue(D))
        problems += _small(f"stage {k} normalization_deficit", got["normalization_deficit"])
    if out_file is not None:
        problems += _near("pipeline output density", density_from_file(out_file), D)
    return problems


def check_compose(out: dict, first, second, out_file: Path) -> list[str]:
    product_ops = [B @ A for A in first for B in second]
    return (_equal("passed", out.get("passed"), True)
            + _small("normalization_deficit", out["normalization_deficit"])
            + _small("hermiticity_deficit", out["hermiticity_deficit"])
            + _near("composed kernel", kernel_from_file(out_file), kraus_kernel(product_ops)))


def check_pull(out: dict, ops, F: np.ndarray, out_file: Path) -> list[str]:
    want = sum(A.conj().T @ F @ A for A in ops)
    return (_equal("support", out.get("support"), int(np.count_nonzero(want)))
            + _near("pulled observable", matrix_from_file(out_file), want))


def check_gns(out: dict, spectrum: np.ndarray) -> list[str]:
    dim = numerical_rank(spectrum)
    return (_equal("dim", out.get("dim"), dim)
            + _equal("ideal_dim", out.get("ideal_dim"), spectrum.size - dim)
            + _near("gram_spectrum", out["gram_spectrum"], spectrum))


def check_fisher(out: dict, fisher: float, classical: bool = False) -> list[str]:
    problems = _near("fisher", out["fisher"], fisher)
    if classical:
        problems += _near("classical_fisher", out["classical_fisher"], fisher)
        problems += _small("agreement_deficit", out["agreement_deficit"], 1e-6 * (1 + fisher))
    return problems


def check_crb(out: dict, fisher: float, D0: np.ndarray, X: np.ndarray) -> list[str]:
    bound = 1.0 / fisher
    second = float(np.trace(D0 @ X @ X).real)
    slack = second - bound
    return (_near("bound", out["bound"], bound)
            + _near("second_moment", out["second_moment"], second)
            + _near("slack", out["slack"], slack)
            + _equal("saturated", out.get("saturated"), slack <= 1e-6))


def check_validate_counts(out: dict, **want) -> list[str]:
    problems = _equal("passed", out.get("passed"), True)
    for key, value in want.items():
        problems += _equal(key, out.get(key), value)
    return problems
