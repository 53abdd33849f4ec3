"""Entropic functionals: von Neumann and relative entropy, the log-derivative
quadratic form, its sandwich factor and dominance constant, and channel mutual
information. Spectra go through the spectral kernel in ``linalg``.

All values are in nats; conversion to bits happens only at capacity-reporting
boundaries.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channels import QuantumChannel
from .linalg import (
    INPUT_TOL,
    Eigensystem,
    clamped_eigenvalues,
    floored_log,
    hermitian_eig,
    log_divided_differences,
    trace_xlogx,
    xlogx_sum,
)

KERNEL_THRESHOLD = 1e-12  # eigenvalues of the reference at or below this count as kernel
KERNEL_MASS_TOL = 1e-10  # mass or matrix element of the argument on that kernel that stays finite


class RelEntropyResult(NamedTuple):
    """Relative entropy value in nats; infinite iff the kernel condition fails."""

    value: float
    kernel_violation: bool


def _operands(x, tau) -> tuple[np.ndarray, np.ndarray]:
    """A state or direction ``x`` and its reference ``tau`` as complex arrays of one shape.

    A ValueError names both shapes if they differ, and rejects an ``x`` whose
    squared norm is not finite (a nan or inf entry, or one beyond about 1e154);
    ``tau`` is checked where it is diagonalized.
    """
    x, tau = np.asarray(x, dtype=complex), np.asarray(tau, dtype=complex)
    if x.shape != tau.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {tau.shape}")
    if not math.isfinite(np.vdot(x, x).real):  # one pass; eigh may not converge on a nan
        raise ValueError("matrix contains non-finite entries")
    return x, tau


def _reference_eig(tau: np.ndarray) -> Eigensystem:
    """``hermitian_eig`` of a reference, whose eigenvalues must be at least -INPUT_TOL."""
    ref = hermitian_eig(tau)
    if ref.values.size and ref.values[0] < -INPUT_TOL:
        raise ValueError(f"reference has negative eigenvalue {ref.values[0]:.3e}")
    return ref


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-tr(rho ln rho) in nats, with 0 ln 0 = 0."""
    return float(-trace_xlogx(rho))


def relative_entropy(rho: np.ndarray, tau: np.ndarray) -> RelEntropyResult:
    """tr(rho ln rho - rho ln tau), or infinity when rho has mass on the kernel of tau.

    Evaluated in the eigenbasis of tau restricted to eigenvalues above the
    kernel threshold; rho mass on the complement beyond ``KERNEL_MASS_TOL``
    yields an infinite result rather than an error. Non-finite entries and a
    ``tau`` with an eigenvalue below -INPUT_TOL raise ValueError.
    """
    rho, tau = _operands(rho, tau)
    value = float(_relative_entropies(rho[None], _reference_eig(tau))[0])
    return RelEntropyResult(value, value == float("inf"))


def _relative_entropies(rhos: np.ndarray, ref: Eigensystem) -> np.ndarray:
    """``relative_entropy`` values of a stack of states against one reference.

    ``ref`` is the reference's eigensystem; a member with kernel mass beyond
    ``KERNEL_MASS_TOL`` gets an infinite value, the others are unaffected.
    """
    xlogx = trace_xlogx(rhos)  # tr(rho ln rho) of each member
    mu, h = ref
    diag = np.einsum("ki,nij,jk->nk", h.conj().T, rhos, h).real
    support = mu > KERNEL_THRESHOLD
    if support.all():
        return xlogx - (diag * floored_log(mu)).sum(axis=-1)
    values = xlogx - (diag[:, support] * floored_log(mu[support])).sum(axis=-1)
    values[diag[:, ~support].sum(axis=-1) > KERNEL_MASS_TOL] = np.inf
    return values


def log_derivative_form(tau: np.ndarray, eta: np.ndarray) -> float:
    """Quadratic form of the matrix-logarithm derivative at ``tau`` applied to ``eta``.

    Equals sum_{k,l} |<h_k|eta|h_l>|^2 (ln mu_k - ln mu_l)/(mu_k - mu_l) over
    the eigenpairs of ``tau``, with the tie convention 1/mu_k. Pairs touching
    the kernel of ``tau`` contribute zero when the matrix element is at most
    ``KERNEL_MASS_TOL`` and make the form infinite otherwise. ``tau`` may be
    any positive semidefinite operator, within INPUT_TOL; it is not assumed to
    have unit trace. Non-finite entries raise ValueError.
    """
    eta, tau = _operands(eta, tau)
    return float(_log_derivative_forms(eta[None], _reference_eig(tau))[0])


def _log_derivative_forms(etas: np.ndarray, ref: Eigensystem) -> np.ndarray:
    """``log_derivative_form`` values of a stack of directions at one reference.

    ``ref`` is the eigensystem of the reference; a member with a matrix
    element beyond ``KERNEL_MASS_TOL`` on a pair touching its kernel gets an
    infinite value, the others are unaffected.
    """
    mu, h = ref
    m = h.conj().T @ etas @ h
    support = mu > KERNEL_THRESHOLD
    if support.all():
        return (np.abs(m) ** 2 * log_divided_differences(mu)).sum(axis=(-2, -1))
    touching = ~(support[:, None] & support[None, :])
    leaks = (np.abs(m[:, touching]) > KERNEL_MASS_TOL).any(axis=-1)
    m, mu = m[:, support][:, :, support], mu[support]
    values = (np.abs(m) ** 2 * log_divided_differences(mu)).sum(axis=(-2, -1))
    values[leaks] = np.inf
    return values


def lower_bound_factor(k: float) -> float:
    """Tightness factor (k ln k - k + 1)/(k - 1)^2 of the lower sandwich bound.

    Defined for k >= 1 with the continuous limit 1/2 at k = 1; strictly
    decreasing with range (0, 1/2].
    """
    k = float(k)
    if not 1.0 <= k < math.inf:  # a nan fails too
        raise ValueError(f"dominance constant must be >= 1 and finite, got {k}")
    e = k - 1.0
    if e < 1e-2:
        # series sum (-e)^n / ((n+1)(n+2)) avoids cancellation near k = 1
        return float(
            1 / 2 - e / 6 + e**2 / 12 - e**3 / 20 + e**4 / 30 - e**5 / 42 + e**6 / 56
        )
    return (k * np.log(k) - k + 1.0) / (e * e)


def dominance_constant(rho: np.ndarray, tau: np.ndarray) -> float:
    """Smallest k >= 1 with k tau >= rho, from the tau-whitened spectral radius."""
    rho, tau = _operands(rho, tau)
    mu, h = hermitian_eig(tau)
    if mu[0] <= INPUT_TOL:  # singular within the accuracy of outside data
        raise ValueError(f"reference state must be full rank (min eigenvalue {mu[0]:.3e})")
    whitener = h / np.sqrt(mu)
    white = whitener.conj().T @ rho @ whitener
    radius = float(np.linalg.eigvalsh((white + white.conj().T) / 2.0)[-1])
    return max(1.0, radius)


def mutual_information(channel: QuantumChannel, rho: np.ndarray) -> float:
    """Channel mutual information S(rho) + S(T(rho)) - S(T_c(rho)) in nats, T_c complementary."""
    return mutual_information_from_spectra(
        clamped_eigenvalues(rho),
        clamped_eigenvalues(channel.apply(rho)),
        clamped_eigenvalues(channel.apply_complementary(rho)),
    )


def mutual_information_from_spectra(
    w_in: np.ndarray, w_out: np.ndarray, w_env: np.ndarray
) -> float:
    """S(rho) + S(T(rho)) - S(T_c(rho)) from the clamped spectra of the three states."""
    return float(-xlogx_sum(w_in) - xlogx_sum(w_out) + xlogx_sum(w_env))
