"""Instance-by-instance certification of the capacity-ratio bound.

For a channel and a pure bipartite input this module builds the reference
output state (a barycenter of channel outputs over the Schmidt basis family),
checks the operator dominance certificates, evaluates every intermediate
upper bound of the chain

    mutual information <= reference divergence <= quadratic bound
        <= decomposed bound <= entropy bound <= capacity bound,

and compares both capacities against the dimension-dependent prefactor.
Each link over the state family is a weighted sum over one stack of outputs,
evaluated against a single eigendecomposition of its reference state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import (
    DEFAULT_MAX_ITER,
    DEFAULT_RESTARTS,
    DEFAULT_TOL,
    LN2,
    SUP_RESTARTS,
    _check_tol,
    entanglement_assisted_capacity,
    holevo_quantity,
    max_output_divergence,
)
from .channels import QuantumChannel, pure_outputs
from .entropy import (
    _log_derivative_forms, _relative_entropies, lower_bound_factor, mutual_information
)
from .linalg import (
    INPUT_TOL,
    SchmidtDecomposition,
    check_density_matrix,
    hermitian_eig,
    partial_trace,
    schmidt_decompose,
    tensor_product,
)


# the chain's links in order; each names a ``<link>_nats`` field of ChainReport
CHAIN_LINKS = ("mutual_info", "reference_divergence", "quadratic_bound",
               "decomposed_bound", "entropy_bound", "capacity_bound")


@dataclass
class ChainReport:
    """All intermediate bound values for one (channel, pure input) instance, in nats."""

    mutual_info_nats: float
    reference_divergence_nats: float
    quadratic_bound_nats: float
    decomposed_bound_nats: float
    entropy_bound_nats: float
    capacity_bound_nats: float
    support_margins: list[float]
    total_weight: float
    dominance: float
    prefactor: float
    monotone_ok: bool

    def chain(self) -> tuple[float, ...]:
        """The link values in ``CHAIN_LINKS`` order."""
        return tuple(getattr(self, f"{link}_nats") for link in CHAIN_LINKS)


@dataclass
class RatioBoundCheck:
    """``ce_bits`` (C_E's lower end), ``ch_bits`` (C_H's upper end) and the prefactor slack."""

    ce_bits: float
    ch_bits: float
    prefactor: float
    slack_bits: float
    ce_converged: bool
    ch_converged: bool


def family_total_weight(d_in: int) -> float:
    """Total weight 4 d - 3 of the projector and superposition output family."""
    return 4.0 * d_in - 3.0


def barycenter_dominance(d_in: int) -> float:
    """Dominance constant 2 d - 3/2 achieved by the output barycenter."""
    return 2.0 * d_in - 1.5


def capacity_ratio_prefactor(d_in: int) -> float:
    """Dimension-dependent factor f(d) bounding the capacity ratio.

    f(d) is the family's total weight over the lower sandwich factor g at the
    barycenter's dominance constant, (4d - 3) / g(2d - 3/2); requires d >= 2
    (for d = 1 both capacities vanish and no factor is needed).
    """
    if d_in < 2:
        raise ValueError("the prefactor is defined for input dimension >= 2")
    return family_total_weight(d_in) / lower_bound_factor(barycenter_dominance(d_in))


def _family_outputs(channel: QuantumChannel, basis: np.ndarray):
    """Outputs of the basis columns f_k, then of the superpositions (f_k + i^a f_l)/sqrt(2)
    over pairs k != l in row-major order with a = 0..3 fastest, as one stack, with
    the pair indices k and l of each superposition."""
    d = basis.shape[1]
    ks, ls = np.nonzero(~np.eye(d, dtype=bool))
    phases = np.array([1j**a for a in range(4)])[:, None]
    f = basis.T
    family = (f[ks, None] + phases * f[ls, None]) / np.sqrt(2.0)
    vectors = np.concatenate([f, family.reshape(-1, d)])
    return np.repeat(ks, 4), np.repeat(ls, 4), pure_outputs(channel, vectors)


def _margins(outs: np.ndarray, sigma: np.ndarray, d: int) -> list[float]:
    anchor = barycenter_dominance(d) * np.asarray(sigma, dtype=complex)
    return [float(m) for m in np.linalg.eigvalsh(anchor - outs)[:, 0]]


def output_barycenter(channel: QuantumChannel, sd: SchmidtDecomposition) -> np.ndarray:
    """Weighted average of channel outputs over the Schmidt-basis state family.

    The weights are the squared Schmidt coefficients for the basis projectors
    and pair sums for the superpositions, normalized by the total weight; the
    result is the divergence-minimizing reference for the decomposed chain.
    """
    basis = sd.basis_right
    d = basis.shape[1]
    if d != channel.d_in:
        raise ValueError(
            f"basis dimension {d} does not match channel input dimension {channel.d_in}"
        )
    alpha2 = np.concatenate([sd.coefficients**2, np.zeros(d - sd.coefficients.size)])
    # basis output k carries alpha_k^2 plus its share 2 (alpha_k^2 + alpha_l^2)
    # of the four superpositions of each pair (k, l), l != k
    weights = (2 * d - 3) * alpha2 + 2.0 * alpha2.sum()
    return np.einsum("k,kij->ij", weights, pure_outputs(channel, basis.T)) / family_total_weight(d)


def support_margins(
    channel: QuantumChannel, sd: SchmidtDecomposition, sigma: np.ndarray
) -> list[float]:
    """Minimum eigenvalues of k sigma - T(state) over the whole state family.

    Lists the basis projectors first, then the phase superpositions over
    ordered pairs; the dominance certificate needs each >= -VALIDATION_TOL.
    """
    basis = sd.basis_right
    outs = _family_outputs(channel, basis)[2]
    return _margins(outs, sigma, basis.shape[1])


def _pure_vector(state, d: int) -> np.ndarray:
    """Unit vector of a pure input: a unit vector of length d^2 (renormalized), or a
    d^2 x d^2 rank-one density matrix, both within INPUT_TOL."""
    n = d * d
    state = np.asarray(state, dtype=complex)
    if state.shape == (n, n):
        try:
            check_density_matrix(state, INPUT_TOL)
        except ValueError as exc:
            raise ValueError(f"pure state required: {exc}") from exc
        # rank one iff tr(rho^2) = tr(rho)^2, which leaves the scale to the trace check
        if abs(np.trace(state @ state).real - np.trace(state).real ** 2) > INPUT_TOL:
            raise ValueError("pure state required")
        return np.linalg.eigh(state)[1][:, -1]
    if state.shape != (n,):
        raise ValueError(f"state of shape {state.shape} is neither a length-{n} vector nor {n}x{n}")
    nrm = np.linalg.norm(state)
    if not abs(nrm - 1.0) <= INPUT_TOL:  # also rejects non-finite entries
        raise ValueError(f"state vector is not normalized (norm {float(nrm)!r})")
    return state / nrm


def chain_report(
    channel: QuantumChannel,
    state,
    tau=None,
    tol: float = DEFAULT_TOL,
    sup_restarts: int = SUP_RESTARTS,
    sup_seed=0,
) -> ChainReport:
    """Evaluate every link of the upper-bound chain on one pure bipartite input.

    ``state`` is a vector on the doubled input space (or a rank-one density
    matrix). ``tau`` is the reference for the final capacity bound and
    defaults to the constructed barycenter. The supremum in the last link is
    estimated by multi-start ascent (``max_output_divergence``, which also
    checks ``tau``) and maximized with the directly evaluated family terms,
    which keeps the final inequality sound even if the ascent under-finds.
    Each reference (the joint reference, the barycenter and ``tau``) is
    diagonalized once here, and once more for the ascent; the output
    entropies come from one batched spectrum. ``tol``, the slack of each
    link's order, must be finite and positive.
    """
    _check_tol(tol)
    d = channel.d_in
    if d < 2:
        raise ValueError("the bound chain is defined for input dimension >= 2")
    v = _pure_vector(state, d)
    sd = schmidt_decompose(v, (d, d))
    alpha2 = sd.coefficients**2
    ks, ls, outs = _family_outputs(channel, sd.basis_right)

    sigma = output_barycenter(channel, sd)
    k_dom = barycenter_dominance(d)
    total = family_total_weight(d)
    g = lower_bound_factor(k_dom)
    prefactor = capacity_ratio_prefactor(d)
    margins = _margins(outs, sigma, d)

    # the auxiliary factor is the first one; the channel acts on the second
    rho = np.outer(v, v.conj())
    joint = channel.apply_extended(rho)
    mutual = mutual_information(channel, partial_trace(rho, 1, (d, d)))
    reference = tensor_product(partial_trace(rho, 0, (d, d)), sigma)
    reference_eig = hermitian_eig(reference)
    anchored = float(_relative_entropies(joint[None], reference_eig)[0])
    quadratic = float(_log_derivative_forms((joint - reference)[None], reference_eig)[0])

    # family weights: alpha_k^2 per basis output, and per superposition of the
    # pair (k, l) half the larger alpha^2 for the decomposed link, half the sum
    # for the entropy link
    decomposed_w = np.concatenate([alpha2, 0.5 * np.maximum(alpha2[ks], alpha2[ls])])
    entropy_w = np.concatenate([alpha2, 0.5 * (alpha2[ks] + alpha2[ls])])
    sigma_eig = hermitian_eig(sigma)
    decomposed = float(decomposed_w @ _log_derivative_forms(outs - sigma, sigma_eig))

    at_sigma = _relative_entropies(outs, sigma_eig)
    entropy_bound = float(entropy_w @ at_sigma) / g

    tau = sigma if tau is None else tau
    sup_value, _ = max_output_divergence(channel, tau, restarts=sup_restarts, seed=sup_seed)
    at_tau = at_sigma if tau is sigma else _relative_entropies(outs, hermitian_eig(tau))
    capacity_bound = prefactor * max(sup_value, float(np.max(at_tau)))

    chain = (mutual, anchored, quadratic, decomposed, entropy_bound, capacity_bound)
    monotone = all(chain[i] <= chain[i + 1] + tol for i in range(len(chain) - 1))
    return ChainReport(
        mutual_info_nats=mutual,
        reference_divergence_nats=anchored,
        quadratic_bound_nats=quadratic,
        decomposed_bound_nats=decomposed,
        entropy_bound_nats=entropy_bound,
        capacity_bound_nats=capacity_bound,
        support_margins=margins,
        total_weight=total,
        dominance=k_dom,
        prefactor=prefactor,
        monotone_ok=monotone,
    )


def verify_ratio_bound(
    channel: QuantumChannel,
    tol: float = DEFAULT_TOL,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    seed=0,
) -> RatioBoundCheck:
    """Solve both capacities and report the prefactor slack for one channel.

    slack = prefactor(d_in) * C_H,lower - C_E,upper in bits, from the
    certified lower end of C_H (the witness ensemble's mixture divergence)
    and the certified upper end of C_E (its value plus its gap); the bound
    holds when slack is at least -2 times the solver tolerance converted to
    bits. ``ce_bits`` is C_E's lower end and ``ch_bits`` C_H's upper end.
    """
    ce = entanglement_assisted_capacity(channel, tol=tol, max_iter=max_iter)
    ch = holevo_quantity(channel, tol=tol, restarts=restarts, max_iter=max_iter, seed=seed)
    pre = capacity_ratio_prefactor(channel.d_in)
    slack = (pre * ch.lower_nats - ce.upper_nats) / LN2
    return RatioBoundCheck(
        ce_bits=ce.lower_nats / LN2,
        ch_bits=ch.upper_nats / LN2,
        prefactor=pre,
        slack_bits=slack,
        ce_converged=ce.converged,
        ch_converged=ch.converged,
    )
