"""Nearest low-rank matrices and their Voronoi cells.

The nearest rank-r matrix to U is its truncated singular value
decomposition, so the Voronoi cell of a rank-r matrix V consists of the
matrices that agree with V on V's singular frame and whose free block is
bounded by sigma_r(V) in the spectral norm.  This module wraps the
decomposition (LAPACK's SVD, through NumPy) with a deterministic sign
convention, and implements Eckart-Young truncation, the exact
cell-membership test, and the symmetric variant where the Frobenius
geometry restricts to eigenvalue conditions.  Both membership tests share
one rank check and one block verdict; they differ only in the frame (the
singular or the eigen frame of V) and in the norm of the free block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


@dataclass(eq=False)
class SVDFactors:
    """Full factors A = sigma1 @ diag(values) @ sigma2.

    sigma1 is m x m orthogonal, sigma2 is n x n orthogonal, and values
    holds the min(m, n) singular values in nonincreasing order.
    """

    sigma1: np.ndarray
    values: np.ndarray
    sigma2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        k = len(self.values)
        return (self.sigma1[:, :k] * self.values) @ self.sigma2[:k, :]


@dataclass(eq=False)
class CellDescription:
    """The Voronoi cell of a rank-r matrix in its own singular frame.

    Members agree with the diagonal block, vanish on the two mixed blocks,
    and fill the free (m-r) x (n-r) block with anything of spectral norm
    at most the radius (the r-th singular value).
    """

    aligned_diagonal: np.ndarray
    free_shape: tuple
    radius: float


def _as_matrix(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _leading_signs(vectors: np.ndarray) -> np.ndarray:
    """Per column, the sign of its first entry above 1e-12 in size, or +1
    when it has none: its first entry is then not below -1e-12 either."""
    if not len(vectors):
        return np.ones(vectors.shape[1])
    first = vectors[(np.abs(vectors) > 1e-12).argmax(axis=0),
                    np.arange(vectors.shape[1])]
    return np.where(first < -1e-12, -1.0, 1.0)


def svd(matrix) -> SVDFactors:
    """Full singular value decomposition (LAPACK, through NumPy).

    Deterministic conventions: singular values nonincreasing, first
    nonzero entry of every left singular vector positive, the matching
    right row carrying the sign.
    """
    a = _as_matrix(matrix)
    sigma1, values, sigma2 = np.linalg.svd(a, full_matrices=True)
    k = min(a.shape)
    signs = _leading_signs(sigma1)
    sigma1 *= signs
    sigma2[:k] *= signs[:k, None]
    sigma2[k:] *= _leading_signs(sigma2[k:].T)[:, None]
    return SVDFactors(sigma1, values, sigma2)


def spectral_norm(matrix) -> float:
    return float(np.linalg.norm(_as_matrix(matrix), 2))


def eckart_young_truncate(matrix, r: int) -> np.ndarray:
    """The nearest matrix of rank at most r, via truncated singular values."""
    a = _as_matrix(matrix)
    k = min(a.shape)
    if not 1 <= r <= k:
        raise ValueError(f"rank must be between 1 and {k}")
    factors = svd(a)
    factors.values[r:] = 0.0
    return factors.reconstruct()


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _check_rank(magnitudes: np.ndarray, r: int, tol: float) -> None:
    """Require exactly r of the nonincreasing magnitudes above tol."""
    _check_tol(tol)
    k = len(magnitudes)
    if not (1 <= r <= k and magnitudes[r - 1] > tol) or (
            r < k and magnitudes[r] > tol):
        raise ValueError(f"matrix is not of rank {r} within tolerance")


def _block_verdict(aligned: np.ndarray, diagonal: np.ndarray, tol: float,
                   free_norm) -> str:
    """Classify U, written in V's frame where V is diag(diagonal) padded
    with zeros: the top block must match, both mixed blocks vanish, and
    free_norm of the free block is compared with |diagonal[-1]|."""
    r = len(diagonal)
    if np.abs(aligned[:r, :r] - np.diag(diagonal)).max() > tol:
        return "outside"
    if max(np.abs(aligned[:r, r:]).max(initial=0.0),
           np.abs(aligned[r:, :r]).max(initial=0.0)) > tol:
        return "outside"
    free = aligned[r:, r:]
    if free.size == 0:
        return "inside"
    value, radius = free_norm(free), abs(diagonal[-1])
    if value < radius - tol:
        return "inside"
    if value <= radius + tol:
        return "boundary"
    return "outside"


def describe_cell(v_matrix, r: int, tol: float = DEFAULT_TOL):
    """Validate rank(V) = r and return (factors of V, CellDescription)."""
    v = _as_matrix(v_matrix)
    factors = svd(v)
    vals = factors.values
    _check_rank(vals, r, tol)
    m, n = v.shape
    return factors, CellDescription(vals[:r].copy(), (m - r, n - r),
                                    float(vals[r - 1]))


def cell_membership(u_matrix, v_matrix, r: int,
                    tol: float = DEFAULT_TOL) -> str:
    """Is V the unique nearest rank-r matrix to U?

    Aligns U to V's singular frame; membership requires the top block to
    reproduce V's singular values, the mixed blocks to vanish, and the
    free block to stay inside the spectral ball of radius sigma_r(V).
    Returns "inside", "boundary" (within tol of the ball's sphere), or
    "outside".  A tol that is not finite and nonnegative raises
    ValueError.
    """
    return _spectral_membership(u_matrix, v_matrix, r, tol)[0]


def _spectral_membership(u_matrix, v_matrix, r: int, tol: float):
    """``cell_membership``'s verdict and V's CellDescription, from one
    decomposition of V."""
    u = _as_matrix(u_matrix)
    v = _as_matrix(v_matrix)
    if u.shape != v.shape:
        raise ValueError("shape mismatch")
    factors, cell = describe_cell(v, r, tol)
    aligned = factors.sigma1.T @ u @ factors.sigma2.T
    verdict = _block_verdict(aligned, cell.aligned_diagonal, tol,
                             spectral_norm)
    return verdict, cell


def symmetric_frobenius_membership(v_matrix, u_matrix, r: int,
                                   tol: float = DEFAULT_TOL) -> str:
    """Membership test for symmetric matrices under the Frobenius norm.

    V must be symmetric of rank r; the test works in V's eigenframe and
    compares the complementary block's extreme eigenvalue magnitude with
    V's smallest nonzero eigenvalue magnitude.  A tol that is not finite
    and nonnegative raises ValueError before the symmetry checks use it.
    """
    _check_tol(tol)
    v = _as_matrix(v_matrix)
    u = _as_matrix(u_matrix)
    for name, mat in (("V", v), ("U", u)):
        if mat.shape[0] != mat.shape[1] or np.abs(mat - mat.T).max() > tol:
            raise ValueError(f"{name} must be symmetric")
    if u.shape != v.shape:
        raise ValueError("shape mismatch")

    eigvals, eigvecs = np.linalg.eigh(v)
    order = np.argsort(-np.abs(eigvals), kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    _check_rank(np.abs(eigvals), r, tol)
    return _block_verdict(
        eigvecs.T @ u @ eigvecs, eigvals[:r], tol,
        lambda free: float(np.abs(np.linalg.eigvalsh(free)).max()))
