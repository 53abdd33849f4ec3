"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its measured margins (visible with
``pytest -s``); the test name itself identifies the criterion under ``-v``.
"""

import math
import time

import numpy as np

import chancap.capacity as capacity_module
from chancap import (
    capacity_ratio_prefactor,
    chain_report,
    depolarizing_capacity_sweep,
    dominance_constant,
    entanglement_assisted_capacity,
    holevo_quantity,
    log_derivative_form,
    lower_bound_factor,
    mutual_information_gradient,
    random_channel,
    random_density_matrix,
    random_pure_state,
    relative_entropy,
    verify_ratio_bound,
)
from chancap.capacity import LN2
from chancap.entropy import mutual_information as _mutual_information_nats
from oracles import (
    depolarizing_ce_nats,
    depolarizing_ch_nats,
    donald_residual,
    log_derivative_form_via_quadrature,
    prefactor_closed_form,
    relative_entropy_via_integral,
)

import pytest


@pytest.fixture(scope="module")
def sweep_result():
    start = time.monotonic()
    rows = depolarizing_capacity_sweep()
    return rows, time.monotonic() - start


def test_criterion_1_depolarizing_anchors(sweep_result):
    rows, elapsed = sweep_result
    by_p = {round(r.p, 9): r for r in rows}
    noiseless = by_p[0.0]
    assert abs(noiseless.ce_bits - 2.0) <= 1e-4
    assert abs(noiseless.ch_bits - 1.0) <= 1e-4
    total_noise = by_p[1.0]
    assert abs(total_noise.ce_bits) <= 1e-6
    assert abs(total_noise.ch_bits) <= 1e-6
    assert total_noise.ratio is None
    probe = by_p[0.999]
    ratio_error = abs(probe.ratio - 3.0) / 3.0
    assert ratio_error <= 0.05
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS: anchors (2.0000, 1.0000) and (0, 0) hit; "
        f"ratio at p=0.999 is {probe.ratio:.4f} ({100 * ratio_error:.2f}% from 3); "
        f"sweep took {elapsed:.1f} s"
    )


def test_criterion_2_depolarizing_closed_forms(sweep_result):
    rows, _ = sweep_result
    worst_ce = max(abs(r.ce_bits - depolarizing_ce_nats(2, r.p) / LN2) for r in rows)
    worst_ch = max(abs(r.ch_bits - depolarizing_ch_nats(2, r.p) / LN2) for r in rows)
    assert worst_ce <= 1e-3
    assert worst_ch <= 1e-3
    print(
        f"\nACCEPTANCE 2 PASS: closed-form deviations over {len(rows)} grid points: "
        f"assisted {worst_ce:.2e} bits, unassisted {worst_ch:.2e} bits (<= 1e-3)"
    )


def test_criterion_3_sandwich_fuzzing():
    violations = 0
    worst_upper = worst_lower = -np.inf
    for dim in (2, 3, 4, 5):
        for trial in range(1000):
            rho = random_density_matrix(dim, 1 + trial % dim, (1000 + dim, trial))
            tau = random_density_matrix(dim, dim, (2000 + dim, trial))
            div = relative_entropy(rho, tau).value
            form = log_derivative_form(tau, rho - tau)
            k = dominance_constant(rho, tau)
            upper = div - form
            lower = lower_bound_factor(k) * form - div
            worst_upper = max(worst_upper, upper)
            worst_lower = max(worst_lower, lower)
            violations += (upper > 1e-9) + (lower > 1e-9)
    assert violations == 0
    print(
        f"\nACCEPTANCE 3 PASS: 4000 sandwich checks, zero violations "
        f"(worst upper residual {worst_upper:.2e}, worst lower residual {worst_lower:.2e})"
    )


def test_criterion_4_chain_fuzzing():
    start = time.monotonic()
    worst_margin = np.inf
    worst_slack = np.inf
    largest_amplification = 0.0
    count = 0
    for dim in (2, 3):
        for trial in range(250):
            chan = random_channel(dim, dim, seed=(3000 + dim, trial))
            v = random_pure_state(dim * dim, (4000 + dim, trial))
            report = chain_report(chan, v, tol=1e-7, sup_seed=(5000 + dim, trial))
            worst_margin = min(worst_margin, min(report.support_margins))
            chain = report.chain()
            worst_slack = min(
                worst_slack, min(b - a for a, b in zip(chain, chain[1:]))
            )
            assert report.monotone_ok, (dim, trial, chain)
            if report.reference_divergence_nats > 1e-6:
                largest_amplification = max(
                    largest_amplification,
                    report.capacity_bound_nats / report.reference_divergence_nats,
                )
            count += 1
    elapsed = time.monotonic() - start
    assert count == 500
    assert worst_margin >= -1e-9
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 4 PASS: 500 chains monotone at 1e-7 "
        f"(tightest link slack {worst_slack:.2e} nats, worst support margin "
        f"{worst_margin:.2e}); largest end-to-end amplification observed "
        f"{largest_amplification:.1f}x; took {elapsed:.1f} s"
    )


def criterion_5_channels():
    """The 200 fuzz channels of criterion 5, as (dims index, trial, channel)."""
    for index, (d_in, d_out) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3)]):
        for trial in range(50):
            yield index, trial, random_channel(d_in, d_out, seed=(6000 + index, trial))


def test_criterion_5_ratio_bound_fuzzing():
    tol = 1e-7
    threshold = -2.0 * tol / LN2
    min_slack = np.inf
    for index, trial, chan in criterion_5_channels():
        check = verify_ratio_bound(chan, tol=tol, seed=(7000 + index, trial))
        assert check.slack_bits >= threshold, (chan.d_in, chan.d_out, trial, check)
        assert check.ce_converged and check.ch_converged, (chan.d_in, chan.d_out, trial, check)
        min_slack = min(min_slack, check.slack_bits)
    print(
        f"\nACCEPTANCE 5 PASS: 200 random channels converge and satisfy the "
        f"strengthened ratio bound (min slack {min_slack:.4f} bits >= {threshold:.2e})"
    )


def test_criterion_5_assisted_capacity_iterations():
    # the damped Newton steps close the C_E gap on these channels in about 3.7
    # iterations on average and at most 6 (11.6 and 27 with Anderson-mixed
    # mirror steps, 38 and 156 with halving mirror steps alone); a mean above
    # 5 or a solve above 8 means the Newton steps have stopped being taken
    iterations = []
    for _, trial, chan in criterion_5_channels():
        est = entanglement_assisted_capacity(chan, tol=1e-7)
        assert est.converged and est.stop_reason == "gap", (chan.d_in, chan.d_out, trial, est)
        iterations.append(est.iterations)
    mean = float(np.mean(iterations))
    assert mean <= 5.0 and max(iterations) <= 8
    print(
        f"\nACCEPTANCE 5 C_E: 200 solves converge in {mean:.2f} iterations on average "
        f"(at most {max(iterations)})"
    )


def test_criterion_5_holevo_iterations(monkeypatch):
    # C_H adds every ascent maximum that two or more rows ended in above the
    # lower bound, and its position sweeps start from Barzilai-Borwein steps:
    # the gap closes in about 2.8 outer iterations on average (3.9 with plain
    # sweeps from step 1, 5.7 with the best row alone as well); a mean above
    # 3.3 means the sweeps have stopped taking their long steps. Every weight
    # solve closes its own gap
    open_solves = []
    solve = capacity_module._ensemble_weights

    def checked(alphabet, tol, init):
        point = solve(alphabet, tol, init)
        if point.gap > tol:
            open_solves.append((len(init), tol, point.gap))
        return point

    monkeypatch.setattr(capacity_module, "_ensemble_weights", checked)
    iterations = []
    for index, trial, chan in criterion_5_channels():
        est = holevo_quantity(chan, tol=1e-7, seed=(7000 + index, trial))
        assert est.converged, (chan.d_in, chan.d_out, trial, est)
        assert est.gap_bound >= 0.0, (chan.d_in, chan.d_out, trial, est.gap_bound)
        iterations.append(est.iterations)
    mean = float(np.mean(iterations))
    assert mean <= 3.3
    assert not open_solves, open_solves
    print(
        f"\nACCEPTANCE 5 C_H: 200 solves converge in {mean:.2f} outer iterations on average "
        f"(at most {max(iterations)})"
    )


def test_criterion_6_prefactor_identities():
    worst_rel = 0.0
    for d in range(2, 65):
        closed = prefactor_closed_form(d)
        worst_rel = max(worst_rel, abs(capacity_ratio_prefactor(d) - closed) / closed)
    assert worst_rel <= 1e-15
    assert abs(capacity_ratio_prefactor(2) - 14.2274) <= 1e-3
    d = 10**4
    asymptotic = capacity_ratio_prefactor(d) * math.log(d) / (8.0 * d * d)
    assert abs(asymptotic - 1.0) <= 0.10
    print(
        f"\nACCEPTANCE 6 PASS: prefactor identities hold (worst relative "
        f"deviation {worst_rel:.2e}); prefactor(2) = {capacity_ratio_prefactor(2):.4f}; "
        f"asymptotic ratio at d=1e4 is {asymptotic:.4f}"
    )


def test_criterion_7_entropy_cross_validation():
    worst_integral = 0.0
    for trial in range(200):
        dim = 2 + trial % 2
        rho = 0.9 * random_density_matrix(dim, dim, (8000, trial)) + 0.1 * np.eye(dim) / dim
        tau = 0.9 * random_density_matrix(dim, dim, (8100, trial)) + 0.1 * np.eye(dim) / dim
        a = relative_entropy_via_integral(rho, tau)
        b = relative_entropy(rho, tau).value
        worst_integral = max(worst_integral, abs(a - b))
    assert worst_integral <= 1e-6
    worst_form = 0.0
    for trial in range(200):
        dim = 2 + trial % 3
        tau = 0.9 * random_density_matrix(dim, dim, (8200, trial)) + 0.1 * np.eye(dim) / dim
        eta = random_density_matrix(dim, dim, (8300, trial)) - random_density_matrix(
            dim, dim, (8400, trial)
        )
        a = log_derivative_form(tau, eta)
        b = log_derivative_form_via_quadrature(tau, eta)
        worst_form = max(worst_form, abs(a - b))
    assert worst_form <= 1e-6
    print(
        f"\nACCEPTANCE 7 PASS: integral representation within {worst_integral:.2e} "
        f"and quadrature form within {worst_form:.2e} on 200 pairs each (<= 1e-6)"
    )


def test_criterion_8_donald_and_gradient():
    worst_residual = 0.0
    for trial in range(500):
        dim = 2 + trial % 3
        states = [random_density_matrix(dim, dim, (9000, trial, i)) for i in range(4)]
        raw = np.abs(np.sin(np.arange(1, 5) * (trial + 1.0)))
        weights = raw / raw.sum()
        sigma = 0.9 * random_density_matrix(dim, dim, (9100, trial)) + 0.1 * np.eye(dim) / dim
        worst_residual = max(worst_residual, donald_residual(weights, states, sigma))
    assert worst_residual <= 1e-9
    worst_grad = 0.0
    for trial in range(100):
        d_in, d_out = [(2, 2), (2, 3), (3, 2), (3, 3)][trial % 4]
        chan = random_channel(d_in, d_out, seed=(9200, trial))
        rho = 0.5 * random_density_matrix(d_in, d_in, (9300, trial)) + 0.5 * np.eye(d_in) / d_in
        eta = random_density_matrix(d_in, d_in, (9400, trial)) - np.eye(d_in) / d_in
        eta /= np.linalg.norm(eta)
        grad = mutual_information_gradient(chan, rho)
        eps = 1e-5
        finite_diff = (
            _mutual_information_nats(chan, rho + eps * eta)
            - _mutual_information_nats(chan, rho - eps * eta)
        ) / (2 * eps)
        worst_grad = max(worst_grad, abs(float(np.trace(grad @ eta).real) - finite_diff))
    assert worst_grad <= 1e-5
    print(
        f"\nACCEPTANCE 8 PASS: barycenter identity residual <= {worst_residual:.2e} "
        f"on 500 ensembles; gradient matches finite differences within "
        f"{worst_grad:.2e} on 100 directions"
    )
