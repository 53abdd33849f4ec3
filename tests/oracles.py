"""Independent evaluations of library quantities, used only as test references.

Each oracle computes a quantity by a route other than the library's: the
relative entropy and the log-derivative form by quadrature, the channel
mutual information through a purification of the input, and the barycenter
(Donald) identity as a residual of relative entropies. The divided
differences of ln over a spectrum are evaluated in 50-digit decimal
arithmetic. The per-member loops are the references for the library's
stacked evaluations: one single-pair call per member, and the bound chain
summed member by member. The sphere ascent's divergence kernel is checked
against its Kraus-index einsum form.
The exact families are channels whose capacities have closed forms: the
depolarizing channel at any dimension and mixing weight, the erasure channel
and the Werner-Holevo channel. The superposition family is built vector by
vector as the reference for the certifier's stacked family, and the
replacement channel is a constant map built from its output's eigenvectors.
The Choi state is the channel's extended action on a maximally entangled
input. The capacity-ratio prefactor f(d) in closed form is the reference for
the library's total weight over sandwich factor.
"""

import math
from decimal import Decimal, localcontext
from itertools import permutations

import numpy as np
from scipy import integrate

from chancap.capacity import SUP_RESTARTS, max_output_divergence
from chancap.certify import barycenter_dominance, family_total_weight, output_barycenter
from chancap.channels import KRAUS_CUTOFF, QuantumChannel
from chancap.entropy import (
    log_derivative_form,
    lower_bound_factor,
    mutual_information,
    relative_entropy,
)
from chancap.linalg import (
    INPUT_TOL,
    LOG_FLOOR,
    clamped_eigh,
    eigensystem_log,
    hermitian_eig,
    maximally_entangled_state,
    partial_trace,
    schmidt_decompose,
    xlogx_sum,
)

QUAD_REL_TOL = 1e-8
QUAD_ABS_TOL = 1e-10
QUAD_LIMIT = 2 ** 14
DECIMAL_DIGITS = 50


def _xlogx_total(eigs) -> float:
    return sum(x * math.log(x) for x in eigs if x > 0)


def depolarizing_ce_nats(d: int, p: float) -> float:
    """C_E of the d-dimensional depolarizing channel at mixing weight p, in nats.

    The maximally mixed input is optimal: the covariant average of any
    maximizer is again a maximizer, and averaging cannot lower a concave
    objective. There the mutual information is 2 ln d minus the entropy of
    the Choi state, whose spectrum is 1 - p + p/d^2 once and p/d^2 d^2 - 1 times.
    """
    return 2 * math.log(d) + _xlogx_total([1 - p + p / d**2] + [p / d**2] * (d * d - 1))


def depolarizing_ch_nats(d: int, p: float) -> float:
    """C_H of the d-dimensional depolarizing channel at mixing weight p, in nats.

    Every pure input leaves the spectrum 1 - p + p/d once and p/d d - 1 times,
    and the uniform ensemble over any basis meets the minimax value at the
    reference I/d: ln d minus that spectrum's entropy (King, 2003).
    """
    return math.log(d) + _xlogx_total([1 - p + p / d] + [p / d] * (d - 1))


def prefactor_closed_form(d_in: int) -> float:
    """f(d) = (4d - 3)(2d - 5/2)^2 / ((2d - 3/2) ln(2d - 3/2) - 2d + 5/2), the family's total
    weight 4d - 3 over the lower sandwich factor g(k) = (k ln k - k + 1)/(k - 1)^2 at
    k = 2d - 3/2, multiplied out."""
    d = float(d_in)
    num = (4.0 * d - 3.0) * (2.0 * d - 2.5) ** 2
    den = (2.0 * d - 1.5) * math.log(2.0 * d - 1.5) - 2.0 * d + 2.5
    return num / den


def superposition_state(basis: np.ndarray, k: int, l: int, a: int) -> np.ndarray:
    """Unit vector (f_k + i^a f_l)/sqrt(2) from columns of an orthonormal basis."""
    return (basis[:, k] + (1j**a) * basis[:, l]) / np.sqrt(2.0)


def superposition_family(basis: np.ndarray):
    """All phase superpositions over ordered basis pairs: ((k, l, a), vector)."""
    d = basis.shape[1]
    for k, l in permutations(range(d), 2):
        for a in range(4):
            yield (k, l, a), superposition_state(basis, k, l, a)


def choi_state(channel: QuantumChannel) -> np.ndarray:
    """Normalized Choi state: id (x) T applied to the maximally entangled state."""
    omega = maximally_entangled_state(channel.d_in)
    return channel.apply_extended(np.outer(omega, omega.conj()))


def replacement_channel(sigma: np.ndarray, d_in: int) -> QuantumChannel:
    """Constant channel mapping every input to ``sigma`` (scaled by the input trace)."""
    w, v = hermitian_eig(np.asarray(sigma, dtype=complex))
    ops = []
    for lam, col in zip(w, v.T):
        if lam > KRAUS_CUTOFF:
            for i in range(d_in):
                k = np.zeros((sigma.shape[0], d_in), dtype=complex)
                k[:, i] = np.sqrt(lam) * col
                ops.append(k)
    return QuantumChannel(np.stack(ops))


def erasure_channel(d: int, eps: float) -> QuantumChannel:
    """rho -> (1 - eps) rho + eps tr(rho) |d><d| from d to d + 1 levels, |d> the erasure flag."""
    keep = np.zeros((1, d + 1, d), dtype=complex)
    keep[0, :d, :] = math.sqrt(1.0 - eps) * np.eye(d)
    flag = np.zeros((d, d + 1, d), dtype=complex)
    flag[np.arange(d), d, np.arange(d)] = math.sqrt(eps)
    return QuantumChannel(np.concatenate([keep, flag]))


def erasure_ch_nats(d: int, eps: float) -> float:
    """C_H of the erasure channel: a pure input's output has entropy h(eps)
    against the reference (1 - eps) I/d + eps |d><d|, which leaves (1 - eps) ln d."""
    return (1.0 - eps) * math.log(d)


def werner_holevo_channel(d: int) -> QuantumChannel:
    """rho -> (tr(rho) I - rho^T) / (d - 1), with Kraus operators
    (|i><j| - |j><i|) / sqrt(d - 1) for i < j; at d = 2 a unitary."""
    ops = []
    for i in range(d):
        for j in range(i + 1, d):
            k = np.zeros((d, d), dtype=complex)
            k[i, j], k[j, i] = 1.0, -1.0
            ops.append(k / math.sqrt(d - 1))
    return QuantumChannel(np.array(ops))


def werner_holevo_ch_nats(d: int) -> float:
    """C_H of the Werner-Holevo channel: a pure input's output is uniform on
    d - 1 levels, against the reference I/d, so ln(d / (d - 1))."""
    return math.log(d / (d - 1))


def log_derivative_form_via_quadrature(tau: np.ndarray, eta: np.ndarray) -> float:
    """Independent evaluation of the same form as an x-integral of resolvent traces.

    Integrates tr[(eta (tau + x I)^-1)^2] over x in [0, inf) using the
    substitution x = u/(1-u).
    """
    tau = np.asarray(tau, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    dim = tau.shape[0]
    eye = np.eye(dim)

    def integrand(u: float) -> float:
        x = u / (1.0 - u)
        res = np.linalg.solve((tau + x * eye).T, eta.T).T  # eta @ inv(tau + x I)
        return float(np.trace(res @ res).real) / (1.0 - u) ** 2

    value, _ = integrate.quad(
        integrand, 0.0, 1.0, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT
    )
    return value


def log_divided_differences_in_decimal(w) -> np.ndarray:
    """(ln w_k - ln w_l)/(w_k - w_l), and 1/w_k on ties, in 50-digit decimal
    arithmetic from the exact values of the floats max(w, LOG_FLOOR)."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        w = [Decimal(max(float(x), LOG_FLOOR)) for x in w]
        logs = [x.ln() for x in w]
        return np.array([
            [float(1 / a if a == b else (la - lb) / (a - b)) for b, lb in zip(w, logs)]
            for a, la in zip(w, logs)
        ])


def relative_entropy_via_integral(rho: np.ndarray, tau: np.ndarray) -> float:
    """Relative entropy as a t-integral of the log-derivative form along the segment.

    Evaluates int_0^1 (1-t) Q_{rho_t}(rho - tau) dt with rho_t = t rho + (1-t) tau,
    where Q is ``log_derivative_form``. Both states must be full rank.
    """
    rho = np.asarray(rho, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    for name, state in (("rho", rho), ("tau", tau)):
        lam_min = float(np.linalg.eigvalsh(state)[0])
        if lam_min <= INPUT_TOL:
            raise ValueError(f"{name} must be full rank (min eigenvalue {lam_min:.3e})")
    eta = rho - tau

    def integrand(t: float) -> float:
        return (1.0 - t) * log_derivative_form(t * rho + (1.0 - t) * tau, eta)

    value, _ = integrate.quad(
        integrand, 0.0, 1.0, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT
    )
    return value


def divergences_and_grads_by_einsum(channel: QuantumChannel, ln_sigma: np.ndarray, states):
    """D(T(psi psi*)||sigma) and its Wirtinger gradient T*(ln T(psi) - ln sigma) psi
    for a stack of unit vectors, contracted over the Kraus index with einsum."""
    amps = np.einsum("mbi,ri->rmb", channel.kraus, states)
    outs = np.einsum("rmb,rmc->rbc", amps, amps.conj())
    eig = clamped_eigh(outs)
    vals = xlogx_sum(eig.values) - np.einsum("rbc,cb->r", outs, ln_sigma).real
    z = np.einsum("rbc,rmc->rmb", eigensystem_log(eig) - ln_sigma, amps)
    return vals, np.einsum("rmb,mbi->ri", z, channel.kraus.conj())


def purify(rho: np.ndarray) -> np.ndarray:
    """Unit vector on a doubled space whose marginals both equal ``rho``."""
    w, v = hermitian_eig(np.asarray(rho, dtype=complex))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T  # matrix Psi with Psi[i, j] = <i (x) j | psi>


def mutual_information_via_purification(channel: QuantumChannel, rho: np.ndarray) -> float:
    """Channel mutual information at input ``rho`` in nats.

    Purifies the input, pushes the purification through id (x) T, and
    evaluates the relative entropy against the product of the marginals.
    """
    rho = np.asarray(rho, dtype=complex)
    psi = purify(rho).reshape(-1)
    joint = channel.apply_extended(np.outer(psi, psi.conj()))
    reference = np.kron(rho, channel.apply(rho))
    return relative_entropy(joint, reference).value


def donald_residual(weights, states, sigma: np.ndarray) -> float:
    """Deviation from the barycenter decomposition of an averaged divergence.

    Returns |sum_i p_i D(rho_i||sigma) - sum_i p_i D(rho_i||rho_bar) - D(rho_bar||sigma)|
    with rho_bar the ensemble average. Expects all relative entropies finite.
    """
    p = np.asarray(weights, dtype=float)
    avg = sum(pi * np.asarray(s, dtype=complex) for pi, s in zip(p, states))
    lhs = sum(pi * relative_entropy(s, sigma).value for pi, s in zip(p, states))
    rhs = sum(pi * relative_entropy(s, avg).value for pi, s in zip(p, states))
    rhs += relative_entropy(avg, sigma).value
    return float(abs(lhs - rhs))


def relative_entropies_by_loop(rhos, tau: np.ndarray) -> np.ndarray:
    """``relative_entropy(rho, tau)`` for each member of a stack, one call each."""
    return np.array([relative_entropy(rho, tau).value for rho in rhos])


def log_derivative_forms_by_loop(tau: np.ndarray, etas) -> np.ndarray:
    """``log_derivative_form(tau, eta)`` for each member of a stack, one call each."""
    return np.array([log_derivative_form(tau, eta) for eta in etas])


def chain_by_loop(channel: QuantumChannel, v: np.ndarray, tau=None, sup_seed=0) -> tuple:
    """The six values of the bound chain on a pure input vector, each family
    link summed member by member with single-pair calls on ``channel.apply``
    outputs; the supremum comes from the same seeded ascent."""
    d = channel.d_in
    sd = schmidt_decompose(v, (d, d))
    alpha2 = np.pad(sd.coefficients**2, (0, d - sd.coefficients.size))
    basis = sd.basis_right
    sigma = output_barycenter(channel, sd)

    def out(vec):
        return channel.apply(np.outer(vec, vec.conj()))

    rho = np.outer(v, v.conj())
    joint = channel.apply_extended(rho)
    reference = np.kron(partial_trace(rho, 0, (d, d)), sigma)
    mutual = mutual_information(channel, partial_trace(rho, 1, (d, d)))
    anchored = relative_entropy(joint, reference).value
    quadratic = log_derivative_form(reference, joint - reference)

    decomposed = entropy_sum = 0.0
    members = [out(basis[:, k]) for k in range(d)]
    for k in range(d):
        decomposed += alpha2[k] * log_derivative_form(sigma, members[k] - sigma)
        entropy_sum += alpha2[k] * relative_entropy(members[k], sigma).value
    for (k, l, _), vec in superposition_family(basis):
        members.append(out(vec))
        decomposed += 0.5 * max(alpha2[k], alpha2[l]) * log_derivative_form(
            sigma, members[-1] - sigma
        )
        entropy_sum += 0.5 * (alpha2[k] + alpha2[l]) * relative_entropy(members[-1], sigma).value
    g = lower_bound_factor(barycenter_dominance(d))

    tau = sigma if tau is None else tau
    sup_value, _ = max_output_divergence(channel, tau, restarts=SUP_RESTARTS, seed=sup_seed)
    at_tau = [relative_entropy(m, tau).value for m in members]
    capacity_bound = family_total_weight(d) / g * max([sup_value] + at_tau)
    return (mutual, anchored, quadratic, decomposed, entropy_sum / g, capacity_bound)
