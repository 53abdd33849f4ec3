"""Capacity solvers with convergence certificates.

The entanglement-assisted capacity is a concave maximization over input
states, solved over their logits with a first-order optimality gap; each
iteration first searches along a damped Newton step, whose Hessian comes
from divided differences of the logarithm (Daleckii-Krein), and falls back
to a halving mirror step along the gradient.
The Holevo quantity is a minimax problem solved by alternating a multi-start
sphere ascent (inner supremum; Armijo steps started from Barzilai-Borwein
step lengths) with barycenter updates of the reference state over an
accumulated witness ensemble whose positions and weights are improved
monotonically in the certified lower bound; the position sweeps also start
their line searches from Barzilai-Borwein steps. The weights come from Newton
steps on the optimality conditions, damped by the gap (Levenberg-Marquardt)
and backtracked on the simplex.

Both ascents take a trial point's value and gradient from one
eigendecomposition of each of its matrices (the outputs of the sphere
ascent's rows; H, T(rho) and T_c(rho) in the C_E solver), and an
accepted point carries them into its next step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import QuantumChannel, depolarizing_channel, depolarizing_cp_limit, pure_outputs
from .entropy import mutual_information_from_spectra
from .linalg import (
    Eigensystem,
    clamped_eigh,
    eigensystem_log,
    hermitian_eig,
    log_divided_differences,
    log_matrix,
    seeded_rng,
    spectral_matrix,
    trace_xlogx,
)

LN2 = float(np.log(2.0))
DEFAULT_TOL = 1e-7  # nats; the gap at which both solvers stop, and the chain's slack
DEFAULT_MAX_ITER = 5000
DEFAULT_RESTARTS = 32
SUP_RESTARTS = 8  # random sphere-ascent starts of the standalone supremum and of the sweep
SWEEP_TOL = 1e-10  # nats; the depolarizing sweep solves at this tolerance
RATIO_CUTOFF_BITS = 1e-9  # C_E / C_H is undefined where C_H is at or below this (0/0 region)
WEIGHT_FLOOR = 1e-14  # ensemble weights at or below this are out of the support
ARMIJO = 1e-4  # sufficient-increase constant of every line search
STEP_FLOOR = 1e-8  # smallest step of every line search; below it the search gives up
MAX_SEARCHES = 300  # line searches per sphere-ascent row
GRAD_TOL_RANGE = (1e-8, 1e-6)  # clip of the sphere ascent's gradient tolerance sqrt(tol)/30
NEWTON_STEPS = 20  # damped Newton steps per weight solve
POSITION_SWEEPS = 6  # witness-position ascent sweeps per outer iteration of the Holevo solver
MIN_SLOPE = 1e-16  # witnesses stop moving at or below this ascent slope
DUPLICATE_OVERLAP = 1.0 - 1e-10  # a state with this squared overlap with a witness is not added
MERGE_OVERLAP = 1.0 - 1e-3  # a sphere-ascent row this close to a higher row merges into it


@dataclass
class CapacityEstimate:
    """Solver output in nats (bits are nats / LN2): the two ends, their gap, witnesses.

    ``stop_reason`` says why the solver stopped: ``"gap"`` (the final gap is
    within the tolerance, which is what ``converged`` means), ``"step_floor"``
    (a line search gave up below STEP_FLOOR; C_E only) or ``"max_iter"`` (out
    of iterations with the gap still open).

    ``lower_nats`` and ``upper_nats`` bound the capacity from each side; C_E
    is reported by its lower end, attained at ``argmax_state``, and C_H by
    its upper end. C_E's upper end adds the concave gap certificate: both
    sound. C_H's lower end is the mixture divergence of the ensemble
    (``witnesses``, ``weights``), sound, and its upper end the best inner
    supremum found, heuristic, since that inner problem is not concave.
    Where the uniform ensemble over the computational basis closes the gap
    at the first reference, that ensemble is the certificate.
    """

    gap_bound: float
    iterations: int
    stop_reason: str
    lower_nats: float
    upper_nats: float
    argmax_state: np.ndarray | None = None
    witnesses: np.ndarray | None = None
    weights: np.ndarray | None = None
    barycenter: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gap"


class SweepPoint(NamedTuple):
    p: float
    ce_bits: float
    ch_bits: float
    ratio: float | None


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < float("inf"):  # both solvers' tol: finite and positive; a nan fails
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _gradient(channel: QuantumChannel, eigensystems) -> np.ndarray:
    """Euclidean gradient of the mutual information from the eigensystems of rho,
    T(rho) and T_c(rho), with floored eigenvalue logs."""
    ln_rho, ln_out, ln_env = map(eigensystem_log, eigensystems)
    z = np.einsum("kj,kbi->jbi", ln_env, channel.kraus.conj())
    env_term = np.einsum("jbi,jbl->il", z, channel.kraus)
    z = np.einsum("mbi,bc->mic", channel.kraus.conj(), ln_out)  # adjoint: sum_m K_m* X K_m
    grad = -ln_rho - np.einsum("mic,mcj->ij", z, channel.kraus) + env_term - np.eye(channel.d_in)
    return (grad + grad.conj().T) / 2.0


def mutual_information_gradient(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the mutual information, with the C_E certificate's floored logs."""
    rho = np.asarray(rho, dtype=complex)
    return _gradient(
        channel, map(clamped_eigh, (rho, channel.apply(rho), channel.apply_complementary(rho)))
    )


class _AssistedPoint(NamedTuple):
    """An input state exp(H)/tr exp(H) with its mutual information, the
    eigensystems of rho, T(rho) and T_c(rho) behind it, and lambda_max(H)."""

    rho: np.ndarray
    value: float
    eigensystems: tuple[Eigensystem, Eigensystem, Eigensystem]
    logit_max: float


def _assisted_point(channel: QuantumChannel, h: np.ndarray) -> _AssistedPoint:
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    e = np.exp(w - w[-1])
    e /= e.sum()
    rho = spectral_matrix(v, e)
    out = clamped_eigh(channel.apply(rho))
    env = clamped_eigh(channel.apply_complementary(rho))
    value = mutual_information_from_spectra(e, out.values, env.values)
    return _AssistedPoint(rho, value, (Eigensystem(e, v), out, env), float(w[-1]))


def _gradient_and_gap(channel: QuantumChannel, point: _AssistedPoint):
    """The mutual information gradient at the point, from its eigensystems, and
    the optimality gap lambda_max(grad) - tr(rho grad) it certifies."""
    grad = _gradient(channel, point.eigensystems)
    return grad, float(np.linalg.eigvalsh(grad)[-1] - np.trace(point.rho @ grad).real)


def _traceless_images(channel: QuantumChannel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An orthonormal basis E_a of the traceless Hermitian input matrices
    (generalized Gell-Mann matrices; none for d_in = 1) with T(E_a) and
    T_c(E_a), which do not depend on the state."""
    d = channel.d_in
    basis = np.zeros((d * d - 1, d, d), dtype=complex)
    a = 0
    for i in range(d):
        for j in range(i + 1, d):
            basis[a, i, j] = basis[a, j, i] = 1.0 / np.sqrt(2.0)
            basis[a + 1, i, j], basis[a + 1, j, i] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
            a += 2
    for j in range(1, d):
        basis[a, range(j), range(j)] = 1.0 / np.sqrt(j * (j + 1))
        basis[a, j, j] = -j / np.sqrt(j * (j + 1))
        a += 1
    return basis, channel.apply(basis), channel.apply_complementary(basis)


def _entropy_curvature(eig: Eigensystem, mats: np.ndarray) -> np.ndarray:
    """Gram matrix Q(A_a, A_b) = Re sum_kl L_kl (V*A_aV)_kl conj((V*A_bV)_kl)
    of a stack of Hermitian A_a, with L the divided differences of ln over
    the spectrum of ``eig`` and V its eigenvectors: minus the Hessian of the
    von Neumann entropy there (Daleckii-Krein)."""
    w, v = eig
    rot = (v.conj().T @ mats @ v) * np.sqrt(log_divided_differences(w))
    flat = rot.reshape(len(mats), -1)
    return (flat @ flat.conj().T).real


def _mutual_information_hessian(images, eigensystems) -> np.ndarray:
    """Hessian -Q_rho - Q_T + Q_c of the mutual information on the traceless
    basis, from ``_traceless_images`` and the eigensystems of rho, T(rho) and
    T_c(rho)."""
    q_rho, q_out, q_env = map(_entropy_curvature, eigensystems, images)
    return q_env - q_rho - q_out


def _newton_logits(images, point: _AssistedPoint, grad: np.ndarray):
    """The Newton step of the mutual information at the point, mapped into the
    logits, with its first-order gain tr(grad Delta).

    The step Delta = sum_a c_a E_a on the traceless basis solves H c = -g,
    g_a = tr(grad E_a), by least squares, since the Hessian H is singular
    near rank-deficient optima. The logit step V (L_rho o V*Delta V) V* is
    the first-order inverse of h -> exp(h)/tr exp(h) at rho.
    """
    basis = images[0]
    hess = _mutual_information_hessian(images, point.eigensystems)
    g = np.einsum("aij,ji->a", basis, grad).real
    c = np.linalg.lstsq(hess, -g, rcond=None)[0]
    w, v = point.eigensystems[0]
    rot = v.conj().T @ np.einsum("a,aij->ij", c, basis) @ v
    return v @ (log_divided_differences(w) * rot) @ v.conj().T, float(g @ c)


def _line_search(channel: QuantumChannel, h, direction, point: _AssistedPoint, grad, gap):
    """The first trial on h + step * direction, step halved from 1 to
    STEP_FLOOR, that raises the value and passes Armijo on its first-order
    gain tr(grad (rho' - rho)), or that keeps the value and lowers the gap: as
    (logits, point, its gradient, its gap), or None if no step is taken.
    """
    step = 1.0
    while step >= STEP_FLOOR:
        h_step = h + step * direction
        trial = _assisted_point(channel, h_step)
        if trial.value > point.value:
            gain = float(np.trace(grad @ (trial.rho - point.rho)).real)
            if trial.value >= point.value + ARMIJO * gain:
                return h_step, trial, *_gradient_and_gap(channel, trial)
        if trial.value >= point.value:
            certificate = _gradient_and_gap(channel, trial)
            if certificate[1] < gap:
                return h_step, trial, *certificate
        step /= 2.0
    return None


def entanglement_assisted_capacity(
    channel: QuantumChannel,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CapacityEstimate:
    """Maximize the channel mutual information over input states.

    The state is kept as exp(H)/tr exp(H). Each iteration first searches
    along the damped Newton step mapped into the logits (``_newton_logits``);
    if its first-order gain is not positive or that search takes no trial,
    it searches along the Euclidean gradient, a mirror step. Both searches
    follow ``_line_search``: a trial is taken on Armijo or on a lower gap,
    and where neither takes one the solver stops at the step floor. The
    reported gap is lambda_max(grad) - tr(rho grad), a global optimality
    certificate for this concave objective at every accepted point;
    convergence means gap <= tol (in nats). Each trial state costs one
    eigendecomposition of H, T(rho) and T_c(rho) each, which give its value
    and, once accepted, its gradient and the Hessian of the Newton step.
    """
    _check_tol(tol)
    d = channel.d_in
    images = None  # formed at the first step: solves that close at once never need them
    h = np.zeros((d, d), dtype=complex)
    point = _assisted_point(channel, h)
    grad, gap = _gradient_and_gap(channel, point)
    iterations = 0
    stop_reason = "max_iter"
    for iterations in range(1, max_iter + 1):
        if gap <= tol:
            break
        images = images or _traceless_images(channel)
        newton, gain = _newton_logits(images, point, grad)
        found = _line_search(channel, h, newton, point, grad, gap) if gain > 0.0 else None
        if found is None:
            found = _line_search(channel, h, grad, point, grad, gap)
        if found is None:
            stop_reason = "step_floor"  # with the gap open, reported as it stands
            break
        h, point, grad, gap = found
        h = h - point.logit_max * np.eye(d)  # keep logits bounded
    if gap <= tol:  # the gap at the last accepted point
        stop_reason = "gap"
    value = max(0.0, point.value)
    return CapacityEstimate(
        gap_bound=gap,
        iterations=iterations,
        stop_reason=stop_reason,
        lower_nats=value,
        upper_nats=value + gap,
        argmax_state=point.rho,
    )


def _divergences_and_grads(channel: QuantumChannel, ln_sigma: np.ndarray, states: np.ndarray):
    """D(T(psi psi*)||sigma) and its tangent gradient for a stack of unit vectors.

    Row i of the Wirtinger gradient is g_i = V* (1 (x) X_i) V psi_i, with V the
    Stinespring isometry kraus.reshape(m * d_out, d_in) and X_i = ln T(psi_i) -
    ln sigma; the divergence is D_i = Re<psi_i, g_i>, and the tangent gradient
    t_i = g_i - D_i psi_i. Along a tangent t (Re<psi_i, t> = 0) the divergence
    changes at the rate 2 Re<t_i, t>. Both come from one eigendecomposition of
    the outputs and one floored log of its eigenvalues (``log_matrix``); every
    product is per row, so no row depends on the others. Returns (D, t).
    """
    m, d_out, d_in = channel.kraus.shape
    v = channel.kraus.reshape(m * d_out, d_in)
    amps = (v @ states[:, :, None]).reshape(-1, m, d_out)  # row i: V psi_i as m x d_out
    x = log_matrix(amps.swapaxes(1, 2) @ amps.conj()) - ln_sigma
    grads = ((amps @ x.swapaxes(1, 2)).reshape(-1, 1, m * d_out) @ v.conj()).reshape(-1, d_in)
    vals = np.einsum("ri,ri->r", states.conj(), grads).real
    return vals, grads - vals[:, None] * states


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re<a_i, b_i> for each row of two contiguous complex stacks, from their real views."""
    return np.einsum("ri,ri->r", a.view(float), b.view(float))


def _sphere_ascent(
    channel: QuantumChannel,
    ln_sigma: np.ndarray,
    starts: np.ndarray,
    grad_tol: float = GRAD_TOL_RANGE[1],
):
    """Batched projected gradient ascent of D(T(psi)||sigma) on the unit sphere.

    Each row starts its Armijo backtracking from the short Barzilai-Borwein
    step Re<s,y>/<y,y> (s the last move, y the drop in tangent gradient);
    where Re<s,y> <= 0 it starts from its doubled last accepted step (1 for
    the first search). Neither start is cut: the projection back to the sphere
    bounds every move, and Armijo halving rejects a step that overshoots. A
    round evaluates the trial points of all working rows in one kernel call.
    If every row passes Armijo, the trial arrays become the rows' state whole;
    otherwise, under one mask, each accepted row moves and each rejected row
    halves its step. A row retires once its tangent is at most ``grad_tol``,
    its step is halved below STEP_FLOOR, or it has run MAX_SEARCHES searches.
    A row whose accepted point has squared overlap at least MERGE_OVERLAP with
    a row of higher value (on a tie, of lower index) merges into it: it stops,
    and ends with that row's final value and state. No row ends below its
    start. Returns the final (values, states) of every row and the number of
    rows that ended in each row (a row ends in itself unless it merged).
    """
    psi = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    vals, tangent = _divergences_and_grads(channel, ln_sigma, psi)
    n = len(psi)
    best_vals, best_psi = vals.copy(), psi.copy()  # each row's last accepted point
    partner, rows = np.arange(n), np.arange(n)  # the row each merged into; the working rows
    norms = np.linalg.norm(tangent, axis=1)
    alpha = np.ones(n)
    searches = np.ones(n, dtype=int)
    keep = norms > grad_tol
    while working := np.count_nonzero(keep):
        if working < keep.size:
            rows, psi, vals, tangent, norms, alpha, searches = (
                a[keep] for a in (rows, psi, vals, tangent, norms, alpha, searches)
            )
        cand = psi + alpha[:, None] * tangent
        cand /= np.sqrt(_re_inner(cand, cand))[:, None]
        cand_vals, cand_tangent = _divergences_and_grads(channel, ln_sigma, cand)
        ok = cand_vals >= vals + ARMIJO * alpha * norms**2
        cand_norms = np.sqrt(_re_inner(cand_tangent, cand_tangent))
        y = tangent - cand_tangent
        sy = _re_inner(cand - psi, y)
        use_bb = sy > 0.0
        next_alpha = np.where(use_bb, sy / np.where(use_bb, _re_inner(y, y), 1.0), 2.0 * alpha)
        accepted = np.count_nonzero(ok)
        if accepted == ok.size:  # every row moves: no masking
            alpha, psi, vals = next_alpha, cand, cand_vals
            tangent, norms = cand_tangent, cand_norms
            searches += 1
            keep = (norms > grad_tol) & (searches <= MAX_SEARCHES)
            moved, moved_psi, moved_vals = rows, cand, cand_vals
        else:
            alpha = np.where(ok, next_alpha, alpha / 2.0)
            searches += ok
            psi = np.where(ok[:, None], cand, psi)
            vals = np.where(ok, cand_vals, vals)
            tangent = np.where(ok[:, None], cand_tangent, tangent)
            norms = np.where(ok, cand_norms, norms)
            searching = (norms > grad_tol) & (searches <= MAX_SEARCHES)
            keep = np.where(ok, searching, alpha >= STEP_FLOOR)
            moved, moved_psi, moved_vals = rows[ok], cand[ok], cand_vals[ok]
        if accepted:
            best_psi[rows], best_vals[rows] = psi, vals
            near = np.abs(moved_psi.conj() @ best_psi.T) ** 2 >= MERGE_OVERLAP
            if np.count_nonzero(near) > moved.size:  # a moved row is near a row other than itself
                v = moved_vals[:, None]
                near &= np.where(np.arange(n) < moved[:, None], best_vals >= v, best_vals > v)
                hit = near.any(axis=1)
                partner[moved[hit]] = near[hit].argmax(axis=1)
                best_psi[moved[hit]] = 0.0  # so no row merges into a merged one
                keep &= partner[rows] == rows
    while (partner[partner] != partner).any():  # follow merge chains to their survivors
        partner = partner[partner]
    return best_vals[partner], best_psi[partner], np.bincount(partner, minlength=n)


def _random_starts(g: np.random.Generator, restarts: int, d: int) -> np.ndarray:
    """``restarts`` complex Gaussian rows of length d: the random sphere-ascent starts."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    return g.standard_normal((restarts, d)) + 1j * g.standard_normal((restarts, d))


def max_output_divergence(
    channel: QuantumChannel, sigma: np.ndarray, restarts: int = SUP_RESTARTS, seed=0
):
    """Heuristic supremum of D(T(psi)||sigma) over pure inputs.

    Multi-start projected gradient ascent on the unit sphere, vectorized over
    the restarts. Returns (best value in nats, best input vector); ties are
    broken by the lowest start index. A restart that merged into a higher one
    ties with it and returns its state, so a tie does not change the vector.
    ``restarts`` must be at least 1, and ``sigma`` a finite Hermitian
    d_out x d_out matrix (within INPUT_TOL).
    """
    sigma = np.asarray(sigma, dtype=complex)
    shape = (channel.d_out, channel.d_out)
    if sigma.shape != shape:
        raise ValueError(f"reference shape {sigma.shape} does not match outputs {shape}")
    starts = _random_starts(seeded_rng(seed), restarts, channel.d_in)
    ln_sigma = eigensystem_log(hermitian_eig(sigma))
    vals, psi, _ = _sphere_ascent(channel, ln_sigma, starts)
    best = int(np.argmax(vals))
    return float(vals[best]), psi[best]


class _Alphabet(NamedTuple):
    """The outputs T(psi_i psi_i*) of a witness stack and their self terms
    tr(out_i ln out_i)."""

    outs: np.ndarray
    self_terms: np.ndarray


def _alphabet(channel: QuantumChannel, witnesses: np.ndarray) -> _Alphabet:
    outs = pure_outputs(channel, witnesses)
    return _Alphabet(outs, trace_xlogx(outs))


class _EnsemblePoint(NamedTuple):
    """Weights over an alphabet with their mixture divergence chi = weights @ dvals,
    a valid lower bound on the Holevo quantity; the divergences
    D_i = D(out_i || barycenter) with floored logs; the eigensystem of the
    barycenter sum_i w_i out_i they come from; and the optimality gap
    max_i D_i - chi. Built only by ``_ensemble_point``, from one
    eigendecomposition, so chi is exactly reproduced from the weights."""

    weights: np.ndarray
    chi: float
    dvals: np.ndarray
    eig: Eigensystem
    gap: float


def _ensemble_point(alphabet: _Alphabet, weights: np.ndarray) -> _EnsemblePoint:
    eig = clamped_eigh(np.einsum("r,rij->ij", weights, alphabet.outs))
    ln_avg = eigensystem_log(eig)
    dvals = alphabet.self_terms - np.einsum("rbc,cb->r", alphabet.outs, ln_avg).real
    chi = float(weights @ dvals)
    return _EnsemblePoint(weights, chi, dvals, eig, float(dvals.max()) - chi)


def _move_to_boundary(weights, support, delta, step_max) -> np.ndarray:
    """Normalized weights + step * delta on ``support``: the step is cut from
    ``step_max`` to where the first positive weight reaches zero, which drops
    that output from the support."""
    leaving = np.flatnonzero((delta < 0.0) & (weights[support] > WEIGHT_FLOOR))
    reach = weights[support[leaving]] / -delta[leaving]
    step = min(step_max, reach.min(initial=step_max))
    q = np.zeros_like(weights)
    q[support] = np.maximum(weights[support] + step * delta, 0.0)
    if step < step_max:
        q[support[leaving[np.argmin(reach)]]] = 0.0
    return q / q.sum()


def _newton_trials(alphabet: _Alphabet, point: _EnsemblePoint):
    """Trial weights of one damped Newton step towards D_i = chi, longest first.

    The step is solved on the support of the point's weights plus the output
    with the largest D_i, from the bordered system of the Hessian of
    -tr(avg ln avg) (minus ``_entropy_curvature`` of the outputs at the
    barycenter) shifted by -gap I: Levenberg-Marquardt damping by the residual,
    which bounds the step where affinely dependent outputs make the Hessian
    singular. It is halved from 1 to STEP_FLOOR through ``_move_to_boundary``.
    """
    weights, dvals = point.weights, point.dvals
    support = np.flatnonzero(weights > WEIGHT_FLOOR)
    worst = int(np.argmax(dvals))
    if weights[worst] <= WEIGHT_FLOOR:
        support = np.append(support, worst)
    hess = -_entropy_curvature(point.eig, alphabet.outs[support])
    n = support.size
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = hess - point.gap * np.eye(n)
    kkt[n, n] = 0.0
    delta = np.linalg.lstsq(kkt, np.append(-dvals[support], 0.0), rcond=None)[0][:n]
    step = 1.0
    while step >= STEP_FLOOR:
        yield _move_to_boundary(weights, support, delta, step)
        step /= 2.0


def _ensemble_weights(alphabet: _Alphabet, tol: float, init: np.ndarray) -> _EnsemblePoint:
    """Optimal weights over a fixed output alphabet, as their point.

    Maximizes the mixture divergence chi from the normalized ``init`` by up
    to NEWTON_STEPS damped Newton steps (``_newton_trials``) until the gap
    max_i D_i - chi is at most ``tol``. A trial, one ``_ensemble_point``, is
    taken if its chi is at least the start's and it either raises chi by
    ARMIJO times the first-order gain D @ (w' - w) or lowers the gap, since
    near the optimum chi moves by O(gap^2), below rounding. The solve stops
    where no trial is taken.
    """
    point = start = _ensemble_point(alphabet, init / init.sum())
    for _ in range(NEWTON_STEPS):
        if point.gap <= tol:
            break
        for weights in _newton_trials(alphabet, point):
            trial = _ensemble_point(alphabet, weights)
            rises = trial.chi >= point.chi + ARMIJO * (point.dvals @ (weights - point.weights))
            if trial.chi >= start.chi and (rises or trial.gap < point.gap):
                point = trial
                break
        else:
            break
    return point


def _fit_ensemble(
    channel: QuantumChannel, witnesses: np.ndarray, init: np.ndarray, ba_tol: float
) -> tuple[np.ndarray, _Alphabet, _EnsemblePoint]:
    """Weights and positions of the witness ensemble for the certified lower bound.

    The weights over the two or more witnesses' outputs are solved from
    ``init``. Each of up to POSITION_SWEEPS sweeps then moves the witnesses at
    these weights along divergence-ascent tangents against the barycenter,
    line-searched on the mixture divergence so the bound never decreases; an
    accepted point's barycenter is the next sweep's reference. The first
    sweep's search starts from step 1, each later one from the
    Barzilai-Borwein step Re<s,y>/<y,y> over the whole witness stack (s the
    last accepted move, y the drop in tangent), or from 1 where Re<s,y> <= 0.
    If any sweep moved the witnesses, the weights are solved once more, and
    that solve's point is kept unless its chi is below the sweeps'. Returns
    (witnesses, their alphabet, the ensemble point), and the point's chi is
    the one reported: it equals ``_ensemble_point(alphabet, point.weights).chi``
    exactly.
    """
    alphabet = start = _alphabet(channel, witnesses)
    point = _ensemble_weights(alphabet, ba_tol, init)
    last = None  # (witnesses, tangent) before the last accepted move
    for _ in range(POSITION_SWEEPS):
        tangent = _divergences_and_grads(channel, eigensystem_log(point.eig), witnesses)[1]
        slope = float(point.weights @ np.linalg.norm(tangent, axis=1) ** 2)
        if slope <= MIN_SLOPE:
            break
        step = 1.0
        if last is not None:
            s, y = witnesses - last[0], last[1] - tangent
            sy = np.vdot(s, y).real
            if sy > 0.0:
                step = sy / np.vdot(y, y).real
        last = witnesses, tangent
        while step >= STEP_FLOOR:
            cand = witnesses + step * tangent
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            cand_alphabet = _alphabet(channel, cand)
            trial = _ensemble_point(cand_alphabet, point.weights)
            if trial.chi >= point.chi + ARMIJO * step * slope:
                witnesses, alphabet, point = cand, cand_alphabet, trial
                break
            step /= 2.0
        else:
            break
    if alphabet is not start:  # a sweep moved the witnesses
        second = _ensemble_weights(alphabet, ba_tol, point.weights)
        if second.chi >= point.chi:
            point = second
    return witnesses, alphabet, point


def holevo_quantity(
    channel: QuantumChannel,
    tol: float = DEFAULT_TOL,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    seed=0,
) -> CapacityEstimate:
    """Minimax divergence solver for the Holevo quantity.

    Alternates the multi-start inner supremum at the current reference state
    with barycenter updates over a witness ensemble whose weights and
    positions are optimized for the certified mixture-divergence lower bound.
    After each fit the next reference is the fitted ensemble's barycenter. The
    value is the lowest inner supremum over the references, raised to the best
    lower bound if it is below it; the gap is that value minus the best lower
    bound. The inner problem is non-concave, so the supremum is heuristic and
    the gap is reported honestly. Ascent rows that close in on a higher row
    merge into it. An outer iteration runs the inner ascent and tests the gap;
    if it is still open, it adds witnesses, fits the ensemble and tests the
    gap again. The first reference T(I/d) is the barycenter of the uniform
    ensemble over the computational basis, which attains the minimax value on
    unitarily covariant channels: after the first ascent that ensemble is
    evaluated once, and it becomes the certificate if it closes the gap;
    otherwise it is dropped. A fit adds the best row's state as a witness, and
    every other final state that two or more rows ended in with a divergence
    above the best lower bound, highest first, each unless it is within
    DUPLICATE_OVERLAP of a witness. The new witnesses start at weight 1/n each
    (n witnesses in all) and the others keep their weights, scaled to fill the
    rest; the weights are solved to a gap of 0.02 tol. The returned
    ``witnesses`` (one state per row) and ``weights`` are those of the fit
    that set the best lower bound, not of the last fit (the basis ensemble if
    it closed the gap, no rows if the ascent closed it alone), and their
    ``_ensemble_point`` reproduces that bound exactly (a single witness
    certifies 0 without a fit). ``restarts`` must be at least 1.
    """
    _check_tol(tol)
    d = channel.d_in
    sigma = channel.apply(np.eye(d, dtype=complex) / d)
    witnesses = np.zeros((0, d), dtype=complex)
    weights = np.zeros(0)
    certificate = witnesses, weights  # the ensemble that set chi_best
    chi_best = 0.0
    value_best = float("inf")
    sigma_best = sigma
    iterations = 0
    ba_tol = 0.02 * tol
    grad_tol = min(GRAD_TOL_RANGE[1], max(GRAD_TOL_RANGE[0], np.sqrt(tol) / 30.0))
    for iterations in range(1, max_iter + 1):
        fresh = _random_starts(seeded_rng(seed, iterations), restarts, d)
        starts = np.concatenate([witnesses, fresh])
        ln_sigma = log_matrix(sigma)
        vals, states, ended_in = _sphere_ascent(channel, ln_sigma, starts, grad_tol=grad_tol)
        best = int(np.argmax(vals))
        value = float(vals[best])
        if value < value_best:  # keep the best reference seen, not the last
            value_best = value
            sigma_best = sigma
        if iterations == 1:  # T(I/d), the first reference, is the basis ensemble's barycenter
            basis = np.eye(d, dtype=complex)
            start = _ensemble_point(_alphabet(channel, basis), np.full(d, 1.0 / d))
            if value_best - start.chi <= tol and start.chi >= chi_best:
                chi_best, certificate = start.chi, (basis, start.weights)
        if value_best - chi_best <= tol:  # closed by the ascent: no fit needed
            break
        shared = np.flatnonzero((ended_in >= 2) & (vals > chi_best))
        for row in [best, *shared[np.argsort(-vals[shared], kind="stable")]]:
            if not (np.abs(witnesses.conj() @ states[row]) ** 2 >= DUPLICATE_OVERLAP).any():
                witnesses = np.concatenate([witnesses, states[row][None, :]])
        n, k = len(witnesses), len(witnesses) - len(weights)
        init = np.concatenate([weights * (1.0 - k / n), np.full(k, 1.0 / n)])
        if n > 1:
            witnesses, alphabet, point = _fit_ensemble(channel, witnesses, init, ba_tol)
            outs, weights, chi = alphabet.outs, point.weights, point.chi
        else:  # one state: chi = D(out || out) = 0, nothing to fit
            outs, weights, chi = pure_outputs(channel, witnesses), init, 0.0
        if chi >= chi_best:
            chi_best, certificate = chi, (witnesses, weights)
        if value_best - chi_best <= tol:  # closed by the fit
            break
        keep = weights > WEIGHT_FLOOR
        if not keep.all():
            witnesses, outs = witnesses[keep], outs[keep]
            weights = weights[keep] / weights[keep].sum()
        sigma = np.einsum("r,rij->ij", weights, outs)
    gap = max(value_best - chi_best, 0.0)  # the upper end is at least chi_best
    return CapacityEstimate(
        gap_bound=gap,
        iterations=iterations,
        stop_reason="gap" if gap <= tol else "max_iter",
        lower_nats=chi_best,
        upper_nats=max(0.0, value_best, chi_best),
        witnesses=certificate[0],
        weights=certificate[1],
        barycenter=sigma_best,
    )


def capacity_ratio(ce_bits: float, ch_bits: float) -> float | None:
    """C_E,lower / C_H,upper in bits, or None where C_H is at most RATIO_CUTOFF_BITS (0/0)."""
    return ce_bits / ch_bits if ch_bits > RATIO_CUTOFF_BITS else None


def depolarizing_grid(points: int = 81) -> list[float]:
    """Uniform grid over the qubit's completely positive range [0, 4/3], plus 0.999."""
    p_max = depolarizing_cp_limit(2)
    return sorted(set(float(p) for p in np.linspace(0.0, p_max, points)) | {0.999})


def depolarizing_capacity_sweep(p_grid=None) -> list[SweepPoint]:
    """Both capacities of the qubit depolarizing family over a grid of mixing weights.

    The default grid is 81 uniform points on the completely positive range
    plus the near-total-noise probe 0.999. Both solvers run at SWEEP_TOL and
    DEFAULT_MAX_ITER, and C_H from SUP_RESTARTS starts at seed 0. The ratio
    is ``capacity_ratio`` of C_E's lower end and C_H's upper end, the row's
    ``ce_bits`` and ``ch_bits``.
    """
    if p_grid is None:
        p_grid = depolarizing_grid()
    rows = []
    for p in p_grid:
        chan = depolarizing_channel(2, float(p))
        ce = entanglement_assisted_capacity(chan, tol=SWEEP_TOL)
        ch = holevo_quantity(chan, tol=SWEEP_TOL, restarts=SUP_RESTARTS)
        ce_bits, ch_bits = ce.lower_nats / LN2, ch.upper_nats / LN2
        rows.append(SweepPoint(float(p), ce_bits, ch_bits, capacity_ratio(ce_bits, ch_bits)))
    return rows
