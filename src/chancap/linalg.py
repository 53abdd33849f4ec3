"""Dense complex linear algebra for finite-dimensional quantum states."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

VALIDATION_TOL = 1e-10  # allowed deviation of library-built data: Hermiticity, trace, norm, PSD
INPUT_TOL = 1e-8  # allowed deviation of data from outside: channel files, pure inputs, references
LOG_FLOOR = 1e-30


class Eigensystem(NamedTuple):
    """Eigenvalues in ascending order with orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


class PsdCheck(NamedTuple):
    is_psd: bool
    min_eigenvalue: float


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Canonical bipartite form |v> = sum_k c_k |e_k> (x) |f_k>.

    ``coefficients`` are nonnegative and descending with unit square sum.
    ``basis_left`` and ``basis_right`` hold complete orthonormal bases as
    columns; columns beyond the number of coefficients pair with weight zero.
    """

    coefficients: np.ndarray
    basis_left: np.ndarray
    basis_right: np.ndarray


def seeded_rng(seed, *stream: int) -> np.random.Generator:
    """Counter-based generator; extra stream indices derive independent substreams.

    ``seed`` may be an int or a tuple of ints, so per-trial streams can be
    addressed as (master_seed, trial_index).
    """
    if isinstance(seed, (tuple, list)):
        entropy = tuple(int(s) for s in seed)
    else:
        entropy = (int(seed),)
    entropy = entropy + tuple(int(s) for s in stream)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with index convention (i_a, i_b) -> i_a * dim_b + i_b."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(m: np.ndarray, keep: int, dims: tuple[int, int]) -> np.ndarray:
    """Trace out one tensor factor of a square matrix on a bipartite space.

    ``keep=0`` keeps the first factor, ``keep=1`` the second.
    """
    d1, d2 = int(dims[0]), int(dims[1])
    m = np.asarray(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {m.shape} does not match dims {d1}x{d2}")
    r = m.reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.einsum("ikjk->ij", r)
    if keep == 1:
        return np.einsum("kikj->ij", r)
    raise ValueError("keep must be 0 or 1")


def hermitian_eig(m: np.ndarray) -> Eigensystem:
    """Eigendecomposition of a Hermitian matrix from outside, eigenvalues ascending.

    The input is symmetrized as (m + m^dagger)/2 before decomposition; a
    non-square shape, deviations from Hermiticity beyond ``INPUT_TOL``, and
    non-finite entries raise ValueError.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    adjoint = m.conj().T
    dev = np.abs(m - adjoint).max() if m.size else 0.0
    if not dev <= INPUT_TOL:  # a nan deviation fails too
        if not np.isfinite(dev):
            raise ValueError("matrix contains non-finite entries")
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    w, v = np.linalg.eigh((m + adjoint) / 2.0)
    return Eigensystem(w, v)


def is_psd(m: np.ndarray, tol: float = VALIDATION_TOL) -> PsdCheck:
    """Positive semidefiniteness check with the minimum eigenvalue reported."""
    m = np.asarray(m, dtype=complex)
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    lam_min = float(w[0])
    return PsdCheck(lam_min >= -tol, lam_min)


def schmidt_decompose(v: np.ndarray, dims: tuple[int, int]) -> SchmidtDecomposition:
    """Schmidt decomposition of a unit vector on a bipartite space."""
    d1, d2 = int(dims[0]), int(dims[1])
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape[0] != d1 * d2:
        raise ValueError(f"vector length {v.shape[0]} does not match dims {d1}x{d2}")
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= VALIDATION_TOL:  # a nan norm fails too
        if not np.isfinite(nrm):
            raise ValueError("vector contains non-finite entries")
        raise ValueError(f"vector is not normalized (norm {float(nrm)!r})")
    u, s, vh = np.linalg.svd(v.reshape(d1, d2), full_matrices=True)
    right = vh.T.copy()  # columns f_k with entries f_k[j] = vh[k, j]
    # fix global phases: largest-magnitude component of each e_k real positive
    for k in range(d1):
        j = int(np.argmax(np.abs(u[:, k])))
        phase = u[j, k] / abs(u[j, k])
        u[:, k] /= phase
        if k < d2:
            right[:, k] *= phase
    for k in range(d1, d2):
        j = int(np.argmax(np.abs(right[:, k])))
        right[:, k] /= right[j, k] / abs(right[j, k])
    return SchmidtDecomposition(s, u, right)  # the SVD gives min(d1, d2) values


def random_pure_state(dim: int, seed) -> np.ndarray:
    """Haar-random unit vector (normalized complex Gaussian), deterministic per seed."""
    g = seeded_rng(seed)
    v = g.standard_normal(dim) + 1j * g.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rank: int, seed) -> np.ndarray:
    """Random state G G^dagger / tr(G G^dagger) with G of shape dim x rank."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = seeded_rng(seed)
    a = g.standard_normal((dim, rank)) + 1j * g.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def check_density_matrix(rho: np.ndarray, tol: float = VALIDATION_TOL) -> None:
    """Raise ValueError unless ``rho`` is Hermitian, PSD, and unit trace, each within ``tol``."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"state must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("state contains non-finite entries")
    dev = np.max(np.abs(rho - rho.conj().T))
    if dev > tol:
        raise ValueError(f"state is not Hermitian (max deviation {dev:.3e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > tol:
        raise ValueError(f"state trace is {float(tr)!r}, expected 1")
    psd = is_psd(rho, tol)
    if not psd.is_psd:
        raise ValueError(f"state has negative eigenvalue {psd.min_eigenvalue:.3e}")


def maximally_entangled_state(d: int) -> np.ndarray:
    """Unit vector sum_i |i> (x) |i> / sqrt(d) on the doubled space."""
    return np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)


# Spectral kernel, the one convention of every entropic quantity: eigenvalues
# are clamped at 0 and enter logarithms as max(w, LOG_FLOOR), so 0 ln 0 = 0.
# The matrix functions take one matrix or a stack of them.


def clamped_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues ascending with small negative drift clamped to zero."""
    return np.maximum(np.linalg.eigvalsh(np.asarray(m, dtype=complex)), 0.0)


def clamped_eigh(m: np.ndarray) -> Eigensystem:
    """Clamped eigenvalues as in ``clamped_eigenvalues``, with their eigenvector columns."""
    w, v = np.linalg.eigh(m)
    return Eigensystem(np.maximum(w, 0.0), v)


def floored_log(w: np.ndarray) -> np.ndarray:
    """ln max(w, LOG_FLOOR) elementwise."""
    return np.log(np.maximum(w, LOG_FLOOR))


def xlogx_sum(w: np.ndarray) -> np.ndarray:
    """Sum of w ln w over the last axis of clamped eigenvalues, with 0 ln 0 = 0."""
    return (w * floored_log(w)).sum(axis=-1)


def trace_xlogx(m: np.ndarray) -> np.ndarray:
    """tr(m ln m) from the clamped eigenvalues."""
    return xlogx_sum(clamped_eigenvalues(m))


def spectral_matrix(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """v diag(f) v^dagger: the matrix with eigenvector columns ``v`` and eigenvalues ``f``."""
    return (v * f[..., None, :]) @ v.conj().swapaxes(-1, -2)


def eigensystem_log(eig: Eigensystem) -> np.ndarray:
    """Matrix logarithm, with floored eigenvalue logs, of the matrix with eigensystem ``eig``."""
    return spectral_matrix(eig.vectors, floored_log(eig.values))


def log_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a positive semidefinite matrix with floored eigenvalue logs."""
    return eigensystem_log(clamped_eigh(m))


def log_divided_differences(w: np.ndarray) -> np.ndarray:
    """Matrix of (ln w_k - ln w_l)/(w_k - w_l) over a spectrum, 1/w_k on ties.

    Eigenvalues are floored at LOG_FLOOR, as in the logs. Every pair is
    log1p(g/m)/g with gap g = |w_k - w_l| and m = min(w_k, w_l), and 1/m on
    a tie. The log1p argument is never negative, so no pair cancels at any
    ratio; g and m are symmetric in k and l, so the matrix is symmetric bit
    for bit.
    """
    w = np.maximum(w, LOG_FLOOR)
    low = np.minimum(w[:, None], w[None, :])
    gap = np.abs(w[:, None] - w[None, :])
    return np.divide(np.log1p(gap / low), gap, out=1.0 / low, where=gap > 0.0)
