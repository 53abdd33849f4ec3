import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chancap.capacity as capacity_module
from chancap import (
    QuantumChannel,
    depolarizing_capacity_sweep,
    depolarizing_channel,
    entanglement_assisted_capacity,
    holevo_quantity,
    identity_channel,
    max_output_divergence,
    mutual_information_gradient,
    random_channel,
    random_density_matrix,
    random_pure_state,
    relative_entropy,
    seeded_rng,
)
from chancap.capacity import (
    GRAD_TOL_RANGE,
    LN2,
    STEP_FLOOR,
    SUP_RESTARTS,
    SWEEP_TOL,
    _alphabet,
    _divergences_and_grads,
    _ensemble_point,
    _ensemble_weights,
    _fit_ensemble,
    _mutual_information_hessian,
    _re_inner,
    _sphere_ascent,
    _traceless_images,
)
from chancap.channels import depolarizing_cp_limit
from chancap.channels import pure_outputs as _batch_outputs
from chancap.entropy import mutual_information as _mutual_information_nats
from chancap.linalg import clamped_eigh
from chancap.linalg import log_matrix as _log_matrix
from oracles import (
    depolarizing_ce_nats,
    depolarizing_ch_nats,
    divergences_and_grads_by_einsum,
    erasure_channel,
    erasure_ch_nats,
    replacement_channel,
    werner_holevo_ch_nats,
    werner_holevo_channel,
)


def amplitude_damping_channel(gamma: float) -> QuantumChannel:
    """Qubit amplitude damping: |1> decays to |0> with probability gamma."""
    decay = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    jump = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return QuantumChannel(np.stack([decay, jump]))


def random_traceless_direction(dim, seed):
    eta = random_density_matrix(dim, dim, seed) - np.eye(dim) / dim
    return eta / np.linalg.norm(eta)


class TestAssistedCapacity:
    def test_noiseless_qubit(self):
        est = entanglement_assisted_capacity(identity_channel(2))
        assert est.converged
        assert abs(est.lower_nats / LN2 - 2.0) < 1e-4

    def test_fully_depolarizing(self):
        est = entanglement_assisted_capacity(depolarizing_channel(2, 1.0))
        assert abs(est.lower_nats / LN2) < 1e-6

    def test_depolarizing_grid_matches_closed_form(self):
        for p in np.linspace(0.0, 4.0 / 3.0, 9):
            est = entanglement_assisted_capacity(depolarizing_channel(2, float(p)))
            assert abs(est.lower_nats / LN2 - depolarizing_ce_nats(2, float(p)) / LN2) < 1e-4

    def test_estimate_invariants(self):
        est = entanglement_assisted_capacity(random_channel(2, 3, seed=1))
        assert est.converged and est.gap_bound <= 1e-7
        assert est.upper_nats == est.lower_nats + est.gap_bound
        assert -1e-6 <= est.lower_nats / LN2 <= 2 * math.log2(2) + 1e-6
        np.testing.assert_allclose(np.trace(est.argmax_state), 1.0, atol=1e-10)

    def test_stalls_at_the_step_floor(self):
        # a first-order gap g buys a value gain of about g^2 / (2 curvature),
        # which sinks below the rounding of the value (about 2e-16 nats) once g
        # is a few 1e-9: then no Newton or gradient step of at least STEP_FLOOR
        # passes Armijo, or keeps the value and lowers the gap, but by chance.
        # An unreachable tolerance ends in a stall long before max_iter, with
        # the gap reported as it stands
        chan = random_channel(2, 3, seed=0)
        est = entanglement_assisted_capacity(chan, tol=1e-300, max_iter=3000)
        assert not est.converged and est.iterations < 3000
        assert est.gap_bound <= 1e-8
        reference = entanglement_assisted_capacity(chan)
        assert abs(est.lower_nats - reference.lower_nats) <= capacity_module.DEFAULT_TOL

    def test_stop_reasons(self):
        chan = random_channel(2, 3, seed=0)
        full = entanglement_assisted_capacity(chan)
        assert full.converged and full.stop_reason == "gap"
        stalled = entanglement_assisted_capacity(chan, tol=1e-300)
        assert not stalled.converged and stalled.stop_reason == "step_floor"
        short = entanglement_assisted_capacity(chan, max_iter=1)
        assert not short.converged and short.stop_reason == "max_iter"
        assert short.iterations == 1 and short.gap_bound > 1e-7
        # the point accepted in the last allowed iteration closes the gap: the
        # solve reports it as the full solve does, one gap check earlier
        last = entanglement_assisted_capacity(chan, max_iter=full.iterations - 1)
        assert last.converged and last.stop_reason == "gap"
        assert (last.lower_nats, last.gap_bound) == (full.lower_nats, full.gap_bound)
        # the Holevo solver stops only on its gap or out of iterations
        assert holevo_quantity(identity_channel(2)).stop_reason == "gap"
        short = holevo_quantity(random_channel(3, 3, seed=1), max_iter=1)
        assert not short.converged and short.stop_reason == "max_iter"

    def test_tight_tolerance_solves_rarely_stall(self):
        # at tol 1e-9 rounding hides most of the value's gain; the Newton
        # step gets there in few iterations and a trial that keeps the value
        # may still be taken on a lower gap, so few solves stall, at small gaps
        ests = [
            entanglement_assisted_capacity(random_channel(din, dout, seed=seed), tol=1e-9)
            for din in (2, 3)
            for dout in (2, 3)
            for seed in range(30)
        ]
        stalls = [est for est in ests if not est.converged]
        assert len(stalls) <= 10
        assert all(est.stop_reason == "step_floor" for est in stalls)
        assert max(est.gap_bound for est in ests) <= 1e-8


def qutrit_with_discarded_level():
    """Identity on span{|0>, |1>}, with |2> sent to |0> by a Kraus operator of
    its own. Every optimal input avoids |2>, so the optimum is rank-deficient."""
    keep = np.zeros((2, 3), dtype=complex)
    keep[0, 0] = keep[1, 1] = 1.0
    drop = np.zeros((2, 3), dtype=complex)
    drop[0, 2] = 1.0
    return QuantumChannel(np.stack([keep, drop]))


class TestAssistedCertificate:
    def test_value_and_gap_match_the_public_functions(self):
        # the solver's value and gap come from eigensystems it carries along;
        # at the returned state they must equal the library's own evaluations
        chans = [
            random_channel(din, dout, seed=(80, din, dout)) for din in (2, 3) for dout in (2, 3)
        ]
        chans += [
            identity_channel(2),
            identity_channel(3),
            replacement_channel(np.diag([1.0, 0.0, 0.0]).astype(complex), 2),
            qutrit_with_discarded_level(),
        ]
        for chan in chans:
            est = entanglement_assisted_capacity(chan)
            rho = est.argmax_state
            assert est.converged
            assert abs(est.lower_nats - _mutual_information_nats(chan, rho)) <= 1e-12
            grad = mutual_information_gradient(chan, rho)
            gap = float(np.linalg.eigvalsh(grad)[-1] - np.trace(rho @ grad).real)
            assert abs(est.gap_bound - gap) <= 1e-14
        assert np.linalg.eigvalsh(rho)[0] < 1e-12  # the last channel ends rank-deficient
        assert abs(est.lower_nats / LN2 - 2.0) < 1e-6

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(
        din=st.integers(1, 4),
        dout=st.integers(1, 4),
        rank=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_gap_bounds_every_state(self, din, dout, rank, seed):
        # concavity: I(rho') <= value + gap for every input state rho', pure,
        # rank-deficient or full; and C_E does not change when the input and
        # the output are rotated by unitaries
        tol = 1e-7
        chan = random_channel(din, dout, seed=seed)
        est = entanglement_assisted_capacity(chan, tol=tol)
        for k in range(4):
            rho = random_density_matrix(din, min(rank, din), (seed, k))
            assert _mutual_information_nats(chan, rho) <= est.lower_nats + est.gap_bound + 1e-12
        g = seeded_rng(seed, 1)
        u_in, u_out = (
            np.linalg.qr(g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))[0]
            for n in (din, dout)
        )
        rotated = QuantumChannel(np.einsum("ab,mbc,dc->mad", u_out, chan.kraus, u_in.conj()))
        rotated_est = entanglement_assisted_capacity(rotated, tol=tol)
        assert abs(rotated_est.lower_nats - est.lower_nats) <= 2 * tol


class TestNewtonDirection:
    def test_hessian_matches_central_differences_of_the_gradient(self):
        # H c, for the coordinates c of a traceless direction eta on the
        # orthonormal basis, is the derivative of the gradient along eta read
        # on that basis; the last state is nearly singular, where the divided
        # differences of ln reach 1/w_min
        cases = [(2, 2, 0.2), (2, 3, 0.2), (3, 2, 0.2), (3, 3, 0.2), (4, 3, 0.1), (3, 3, 1e-4)]
        for trial, (din, dout, w_min) in enumerate(cases):
            chan = random_channel(din, dout, seed=(90, trial))
            images = _traceless_images(chan)
            basis = images[0]
            flat = basis.reshape(len(basis), -1)
            np.testing.assert_allclose(flat.conj() @ flat.T, np.eye(din * din - 1), atol=1e-15)
            np.testing.assert_array_equal(basis, basis.conj().swapaxes(1, 2))
            np.testing.assert_allclose(np.trace(basis, axis1=1, axis2=2), 0.0, atol=1e-15)
            u = np.linalg.qr(random_density_matrix(din, din, (91, trial)))[0]
            spectrum = np.linspace(w_min, 1.0, din)
            rho = (u * (spectrum / spectrum.sum())) @ u.conj().T
            eigs = map(clamped_eigh, (rho, chan.apply(rho), chan.apply_complementary(rho)))
            hess = _mutual_information_hessian(images, eigs)
            np.testing.assert_allclose(hess, hess.T, atol=1e-12 * np.abs(hess).max())
            eps = 1e-4 * w_min
            for k in range(3):
                eta = random_traceless_direction(din, (92, trial, k))
                coords = np.einsum("aij,ji->a", basis, eta).real
                dgrad = (
                    mutual_information_gradient(chan, rho + eps * eta)
                    - mutual_information_gradient(chan, rho - eps * eta)
                ) / (2 * eps)
                fd = np.einsum("aij,ji->a", basis, dgrad).real
                np.testing.assert_allclose(hess @ coords, fd, atol=1e-6 * np.abs(fd).max())

    def test_single_input_dimension_builds_no_system(self, monkeypatch):
        # the traceless 1 x 1 matrices are {0}: the basis is empty, and the only
        # state closes the gap at the first check, before any Newton system
        def no_system(*args):
            raise AssertionError("a Newton system was built for d_in = 1")

        monkeypatch.setattr(capacity_module, "_newton_logits", no_system)
        for dout in (1, 2, 3):
            chan = random_channel(1, dout, seed=(93, dout))
            basis, out_images, env_images = _traceless_images(chan)
            assert basis.shape == (0, 1, 1) and out_images.shape == (0, dout, dout)
            assert env_images.shape[0] == 0
            est = entanglement_assisted_capacity(chan)
            assert est.converged and est.stop_reason == "gap" and est.iterations == 1
            assert est.gap_bound == 0.0
            assert abs(est.lower_nats - _mutual_information_nats(chan, np.eye(1))) <= 1e-15


class TestGradient:
    def test_identity_channel_symmetric_point(self):
        g = mutual_information_gradient(identity_channel(3), np.eye(3) / 3)
        off = g - np.trace(g) / 3 * np.eye(3)
        assert np.max(np.abs(off)) < 1e-10

    def test_matches_central_differences(self):
        for trial in range(10):
            din, dout = [(2, 2), (2, 3), (3, 2), (3, 3)][trial % 4]
            chan = random_channel(din, dout, seed=(2, trial))
            rho = 0.5 * random_density_matrix(din, din, (3, trial)) + 0.5 * np.eye(din) / din
            eta = random_traceless_direction(din, (4, trial))
            g = mutual_information_gradient(chan, rho)
            eps = 1e-5
            fd = (
                _mutual_information_nats(chan, rho + eps * eta)
                - _mutual_information_nats(chan, rho - eps * eta)
            ) / (2 * eps)
            assert abs(float(np.trace(g @ eta).real) - fd) < 1e-5

    def test_constant_channel_gradient_vanishes_on_traceless(self):
        sigma = random_density_matrix(2, 2, 5)
        chan = replacement_channel(sigma, 2)
        rho = random_density_matrix(2, 2, 6)
        g = mutual_information_gradient(chan, rho)
        eta = random_traceless_direction(2, 7)
        assert abs(float(np.trace(g @ eta).real)) < 1e-9
        assert abs(_mutual_information_nats(chan, rho)) < 1e-10


class TestHolevoQuantity:
    def test_noiseless_qubit(self):
        est = holevo_quantity(identity_channel(2))
        assert est.converged
        assert abs(est.upper_nats / LN2 - 1.0) < 1e-4

    def test_fully_depolarizing(self):
        est = holevo_quantity(depolarizing_channel(2, 1.0))
        assert abs(est.upper_nats / LN2) < 1e-6

    def test_depolarizing_grid_matches_closed_form(self):
        for p in np.linspace(0.0, 4.0 / 3.0, 9):
            est = holevo_quantity(depolarizing_channel(2, float(p)))
            assert abs(est.upper_nats / LN2 - depolarizing_ch_nats(2, float(p)) / LN2) < 1e-3

    def test_witnesses_reported(self):
        est = holevo_quantity(random_channel(2, 2, seed=8), seed=9)
        assert len(est.witnesses) and est.barycenter is not None
        for w in est.witnesses:
            assert abs(np.linalg.norm(w) - 1.0) < 1e-9

    def test_value_range(self):
        for trial in range(6):
            din, dout = [(2, 3), (3, 2), (3, 3)][trial % 3]
            chan = random_channel(din, dout, seed=(40, trial))
            ch = holevo_quantity(chan, seed=(41, trial))
            assert -1e-6 <= ch.upper_nats / LN2 <= math.log2(min(din, dout)) + 1e-6
            ce = entanglement_assisted_capacity(chan)
            assert -1e-6 <= ce.lower_nats / LN2 <= 2 * math.log2(min(din, dout)) + 1e-6

    def test_covariant_channels_stop_at_the_basis_ensemble(self):
        # the first reference T(I/d) of a depolarizing channel is optimal and
        # the uniform ensemble over the computational basis, whose barycenter
        # it is, attains the minimax value: that ensemble closes the gap after
        # the first inner ascent and is returned as the certificate
        for d, value in ((2, 0.13081203594113705), (3, 0.23104906018664914)):
            est = holevo_quantity(
                depolarizing_channel(d, 0.5),
                tol=SWEEP_TOL,
                restarts=SUP_RESTARTS,
                seed=0,
            )
            assert est.converged and est.stop_reason == "gap" and est.iterations == 1
            assert np.array_equal(est.witnesses, np.eye(d))
            assert np.array_equal(est.weights, np.full(d, 1.0 / d))
            assert est.upper_nats == value
            assert abs(est.upper_nats - depolarizing_ch_nats(d, 0.5)) <= 1e-15

    def test_exact_families_close_at_the_first_reference(self):
        # on these unitarily covariant channels the basis ensemble certifies
        # the closed form to rounding, from below, in one outer iteration
        cases = [
            (depolarizing_channel(d, p), depolarizing_ch_nats(d, p))
            for d in (2, 3, 4)
            for p in (0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0, depolarizing_cp_limit(d))
        ]
        cases += [(werner_holevo_channel(d), werner_holevo_ch_nats(d)) for d in (2, 3, 4)]
        cases += [
            (erasure_channel(d, eps), erasure_ch_nats(d, eps))
            for d in (2, 3)
            for eps in (0.0, 0.3, 0.7, 1.0)
        ]
        for chan, exact in cases:
            for tol in (1e-7, 1e-10):
                for seed in (0, 3):
                    est = holevo_quantity(chan, tol=tol, seed=seed)
                    case = (chan.d_in, chan.d_out, exact, tol, seed, est)
                    assert est.converged and est.iterations == 1, case
                    assert est.lower_nats - 4e-15 <= exact <= est.upper_nats + 4e-15, case

    def test_solves_the_basis_does_not_close_are_unchanged(self):
        # where the basis ensemble leaves the gap open it is dropped, and the
        # solve runs as it would without it, to the last bit: one criterion-5
        # channel per shape and amplitude damping. Kept as the lower bound
        # instead, the open-gap basis ensemble changes the witnesses and
        # iterations of the (2, 2), (2, 3) and (3, 3) solves
        expected = {
            (0, 45): (2, 0.14151822234372075, 0.14151822245877058, 2),
            (1, 19): (2, 0.1656744843976657, 0.165674485894002, 2),
            (2, 5): (4, 0.30887444172175144, 0.3088744675693341, 6),
            (3, 23): (3, 0.2521320831601837, 0.25213217164979795, 6),
        }
        for (index, trial), fields in expected.items():
            dims = [(2, 2), (2, 3), (3, 2), (3, 3)][index]
            chan = random_channel(*dims, seed=(6000 + index, trial))
            est = holevo_quantity(chan, tol=1e-7, seed=(7000 + index, trial))
            got = (est.iterations, est.lower_nats, est.upper_nats, len(est.witnesses))
            assert got == fields, (index, trial, got)
        est = holevo_quantity(amplitude_damping_channel(0.3))
        got = (est.iterations, est.lower_nats, est.upper_nats, len(est.witnesses))
        assert got == (2, 0.44245598840378164, 0.4424559895797147, 6)

    def test_gap_is_tested_before_and_after_each_fit(self, monkeypatch):
        fits = []
        fit = capacity_module._fit_ensemble

        def counted(*args):
            fits.append(None)
            return fit(*args)

        monkeypatch.setattr(capacity_module, "_fit_ensemble", counted)
        # this criterion-5 solve closes its gap right after its last inner
        # ascent, so its last outer iteration runs no fit
        est = holevo_quantity(random_channel(2, 2, seed=(6000, 0)), tol=1e-7, seed=(7000, 0))
        assert est.converged and est.iterations >= 2 and len(fits) == est.iterations - 1
        # at the maximally mixed reference of a depolarizing channel every
        # input is optimal, and the uniform basis ensemble closes the gap
        # after the first inner ascent, before any fit
        fits.clear()
        est = holevo_quantity(depolarizing_channel(2, 0.5), tol=SWEEP_TOL, seed=0)
        assert est.converged and est.iterations == 1 and len(fits) == 0

    def test_returned_ensemble_certifies_the_lower_bound(self):
        # chi rebuilt from the returned witnesses and weights is the reported
        # lower end value - gap, and exactly so through the solver's own
        # ensemble point. With the gap tested only after each fit, the
        # last fit of the first two solves ends 7.7e-5 and 3.8e-5 nats below
        # it; the third is cut after a fit that ends 4.8e-5 below an earlier one
        for index, trial, max_iter in ((2, 48, 100), (3, 39, 100), (1, 5, 3), (1, 5, 100),
                                       (2, 16, 100), (0, 7, 100)):
            dims = [(2, 2), (2, 3), (3, 2), (3, 3)][index]
            chan = random_channel(*dims, seed=(6000 + index, trial))
            est = holevo_quantity(chan, tol=1e-7, seed=(7000 + index, trial), max_iter=max_iter)
            assert est.converged == (max_iter == 100)
            outs = [chan.apply(np.outer(w, w.conj())) for w in est.witnesses]
            avg = sum(p * out for p, out in zip(est.weights, outs))
            chi = sum(p * relative_entropy(out, avg).value for p, out in zip(est.weights, outs) if p)
            assert abs(est.weights.sum() - 1.0) <= 1e-12 and est.weights.min() >= 0.0
            assert abs(chi - (est.upper_nats - est.gap_bound)) <= 1e-12, (dims, trial, max_iter)
            assert abs(est.lower_nats - chi) <= 1e-12
            alphabet = _alphabet(chan, np.array(est.witnesses))
            assert est.lower_nats == _ensemble_point(alphabet, est.weights).chi
            assert est.lower_nats <= est.upper_nats

    def test_sweeps_at_a_wrong_weight_solve_do_not_cycle(self):
        # with 3 or 4 Barzilai-Borwein-started position sweeps, the first
        # six-witness weight solve of this criterion-5 channel ends with a gap
        # of 7.1e-3 or 1.2e-2, and sweeps at those weights send the solve into
        # a period-2 cycle: 129 outer iterations, or none converged in 200
        chan = random_channel(3, 2, seed=(6002, 29))
        est = holevo_quantity(chan, tol=1e-7, seed=(7002, 29), max_iter=200)
        assert est.converged and est.iterations <= 12

    def test_tight_tolerance_solves_do_not_stall_in_the_weight_solve(self):
        # at tol 1e-10 a two-witness weight solve stopped with its gap open at
        # rounding level (3.3e-10 and 5.7e-9 against a weight tolerance of
        # 2e-12), and each outer iteration then repeated itself unchanged
        for dims, channel_seed, solver_seed in (
            ((2, 2), (6000, 2), (11000, 2)),
            ((2, 3), (6001, 16), (7001, 16)),
        ):
            chan = random_channel(*dims, seed=channel_seed)
            est = holevo_quantity(chan, tol=1e-10, seed=solver_seed, max_iter=200)
            assert est.converged, (dims, channel_seed, est.iterations, est.gap_bound)

    def test_tight_tolerance_tail_channel_converges_at_every_seed(self):
        # this criterion-5 channel took 34, 125 and 57 outer iterations at tol
        # 1e-10 while its six-witness weight solves ended with the gap open
        # at 2e-3 and more, and the next fit re-earned the chi that was lost
        chan = random_channel(2, 3, seed=(6001, 5))
        for base in (7000, 9000, 11000):
            est = holevo_quantity(chan, tol=1e-10, seed=(base + 1, 5), max_iter=200)
            assert est.converged and est.iterations <= 15, (base, est.iterations)

    def test_tight_tolerance_two_kraus_qubit_channel_converges_at_every_seed(self):
        # the reference after each fit is the fitted barycenter alone; this
        # solve once ran out 300 outer iterations at solver seed 3 without a
        # trace of T(I/d) mixed into it, and takes 2 at seeds 0-4
        chan = random_channel(2, 2, 2, seed=0)
        for seed in range(5):
            est = holevo_quantity(chan, tol=1e-10, seed=seed)
            assert est.converged and est.iterations <= 3, (seed, est.iterations)

    def test_no_fit_ends_below_an_earlier_fit(self, monkeypatch):
        # every fit starts from the weights of the previous one, scaled to make
        # room for the new witnesses, so the earlier ensemble stays reachable;
        # 26 of the 33 fits of this solve ended below the best earlier chi
        # while the weight solves were left open
        chis = []
        fit = capacity_module._fit_ensemble

        def recorded(*args):
            witnesses, alphabet, point = fit(*args)
            assert not chis or point.chi >= max(chis), (len(chis), point.chi, max(chis))
            chis.append(point.chi)
            return witnesses, alphabet, point

        monkeypatch.setattr(capacity_module, "_fit_ensemble", recorded)
        est = holevo_quantity(random_channel(2, 3, seed=(6001, 5)), tol=1e-10, seed=(7001, 5))
        assert est.converged and len(chis) >= 2


class TestInnerSolvers:
    def test_max_output_divergence_depolarizing(self):
        # every pure input leaves the spectrum (1 - p/2, p/2), so the supremum
        # against I/2 is ln 2 minus the binary entropy of p/2 in nats
        for p in (0.1, 0.5, 0.9, 1.2):
            value, _ = max_output_divergence(depolarizing_channel(2, p), np.eye(2) / 2)
            q = p / 2.0
            expected = math.log(2.0) + q * math.log(q) + (1.0 - q) * math.log(1.0 - q)
            assert abs(value - expected) <= 1e-9
        # against sigma = T(|0><0|) the output spectrum is again fixed, so the
        # supremum is at the inputs orthogonal to |0>: (1-p) ln((d-(d-1)p)/p).
        # Near p = 1 the objective's curvature is ~(1-p)^2, so the ascent must
        # take long steps to get there
        for d, p in ((3, 0.999), (2, 0.99)):
            chan = depolarizing_channel(d, p)
            ground = np.diag([1.0] + [0.0] * (d - 1)).astype(complex)
            value, _ = max_output_divergence(chan, chan.apply(ground))
            expected = (1.0 - p) * math.log((d - (d - 1) * p) / p)
            assert abs(value - expected) <= 1e-3 * expected
        # on such a flat objective every row ends stationary, none out of searches
        chan = depolarizing_channel(2, 0.999)
        ln_sigma = _log_matrix(chan.apply(np.diag([1.0, 0.0]).astype(complex)))
        g = seeded_rng(0)
        starts = g.standard_normal((8, 2)) + 1j * g.standard_normal((8, 2))
        grad_tol = math.sqrt(1e-10) / 30.0
        _, psi, _ = _sphere_ascent(chan, ln_sigma, starts, grad_tol=grad_tol)
        tangent = _divergences_and_grads(chan, ln_sigma, psi)[1]
        assert np.linalg.norm(tangent, axis=1).max() <= grad_tol

    def test_sphere_ascent_never_lowers_a_row(self):
        for trial in range(6):
            din, dout = [(2, 2), (2, 3), (3, 2)][trial % 3]
            chan = random_channel(din, dout, seed=(50, trial))
            ln_sigma = _log_matrix(random_density_matrix(dout, dout, (51, trial)))
            g = seeded_rng(52, trial)
            starts = g.standard_normal((16, din)) + 1j * g.standard_normal((16, din))
            psi = starts / np.linalg.norm(starts, axis=1, keepdims=True)
            vals, _, _ = _sphere_ascent(chan, ln_sigma, starts)
            assert np.all(vals >= _divergences_and_grads(chan, ln_sigma, psi)[0])
        # rows started at a maximizer with grad_tol = 0 never converge: each
        # retires once its line search halves the step below STEP_FLOOR
        chan = random_channel(2, 2, seed=5)
        sigma = chan.apply(np.eye(2) / 2)
        _, best = max_output_divergence(chan, sigma)
        ln_sigma = _log_matrix(sigma)
        starts = np.repeat(best[None, :], 4, axis=0)
        psi = starts / np.linalg.norm(starts, axis=1, keepdims=True)
        start_vals = _divergences_and_grads(chan, ln_sigma, psi)[0]
        vals, _, _ = _sphere_ascent(chan, ln_sigma, starts, grad_tol=0.0)
        assert np.all(vals >= start_vals) and np.all(vals - start_vals <= 1e-12)

    def test_divergence_gradient_matches_central_differences(self):
        # along a tangent t of the unit sphere, D(T(psi)||sigma) changes at the
        # rate 2 Re<t_i, t>, with t_i the tangent gradient of the docstring
        for trial in range(8):
            din, dout = [(2, 2), (2, 3), (3, 2), (3, 3)][trial % 4]
            chan = random_channel(din, dout, seed=(70, trial))
            ln_sigma = _log_matrix(random_density_matrix(dout, dout, (71, trial)))
            g = seeded_rng(72, trial)
            psi = g.standard_normal((4, din)) + 1j * g.standard_normal((4, din))
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            t = g.standard_normal((4, din)) + 1j * g.standard_normal((4, din))
            t -= np.einsum("ri,ri->r", psi.conj(), t)[:, None] * psi

            def value(x):
                x = x / np.linalg.norm(x, axis=1, keepdims=True)
                return _divergences_and_grads(chan, ln_sigma, x)[0]

            _, grads = _divergences_and_grads(chan, ln_sigma, psi)
            eps = 1e-6
            fd = (value(psi + eps * t) - value(psi - eps * t)) / (2 * eps)
            rate = 2.0 * np.einsum("ri,ri->r", grads.conj(), t).real
            np.testing.assert_allclose(rate, fd, rtol=0.0, atol=1e-7)

    def test_single_input_dimension(self, monkeypatch):
        # with d_in = 1 the sphere is one point up to phase: both capacities
        # vanish and every ascent row has a zero tangent from the start
        chan = random_channel(1, 3, seed=90)
        for est in (holevo_quantity(chan), entanglement_assisted_capacity(chan)):
            assert est.converged and abs(est.lower_nats) < 1e-12 and abs(est.upper_nats) < 1e-12
        batches = []
        fused = capacity_module._divergences_and_grads

        def counted(channel, ln_sigma, states):
            batches.append(len(states))
            return fused(channel, ln_sigma, states)

        monkeypatch.setattr(capacity_module, "_divergences_and_grads", counted)
        sigma = random_density_matrix(3, 3, 91)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _ = max_output_divergence(chan, sigma, restarts=8)
        assert batches == [8]  # the starts' evaluation; every row retires at once
        assert abs(value - relative_entropy(chan.apply(np.eye(1)), sigma).value) < 1e-12

    def test_divergence_kernel_matches_einsum_reference(self):
        # the Stinespring-matmul kernel against the Kraus-index einsum form on
        # every (d_in, d_out) in {1..4}^2, for a generic channel and an isometry
        # (pure, rank-1 outputs), against a full-rank and a rank-deficient
        # sigma; a row computed alone gives the same bits as in the stack
        for din in range(1, 5):
            for dout in range(1, 5):
                chans = [random_channel(din, dout, seed=(100, din, dout))]
                if din <= dout:
                    chans.append(random_channel(din, dout, 1, seed=(101, din, dout)))
                g = seeded_rng(102, din, dout)
                psi = g.standard_normal((5, din)) + 1j * g.standard_normal((5, din))
                psi /= np.linalg.norm(psi, axis=1, keepdims=True)
                for rank in {dout, max(1, dout - 1)}:
                    ln_sigma = _log_matrix(random_density_matrix(dout, rank, (103, din, rank)))
                    for chan in chans:
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            vals, grads = _divergences_and_grads(chan, ln_sigma, psi)
                        ref_vals, ref_grads = divergences_and_grads_by_einsum(chan, ln_sigma, psi)
                        np.testing.assert_allclose(vals, ref_vals, rtol=0.0, atol=1e-12)
                        ref_tangent = ref_grads - ref_vals[:, None] * psi
                        np.testing.assert_allclose(grads, ref_tangent, rtol=0.0, atol=1e-12)
                        for i in range(len(psi)):
                            alone = _divergences_and_grads(chan, ln_sigma, psi[i : i + 1])
                            assert alone[0][0] == vals[i]
                            assert np.array_equal(alone[1][0], grads[i])

    def test_rows_near_one_point_merge_into_one(self, monkeypatch):
        # six starts within 1e-6 of one point all pass their first trial step
        # and stay within MERGE_OVERLAP of each other, so all but the highest
        # merge into it: every later batch holds one row, and every row
        # returns that row's value and state
        batches = []
        fused = capacity_module._divergences_and_grads

        def counted(channel, ln_sigma, states):
            batches.append(len(states))
            return fused(channel, ln_sigma, states)

        monkeypatch.setattr(capacity_module, "_divergences_and_grads", counted)
        for trial, (din, dout) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3)]):
            chan = random_channel(din, dout, seed=(80, trial))
            ln_sigma = _log_matrix(random_density_matrix(dout, dout, (81, trial)))
            g = seeded_rng(82, trial)
            noise = g.standard_normal((6, din)) + 1j * g.standard_normal((6, din))
            starts = random_pure_state(din, (83, trial)) + 1e-6 * noise
            batches.clear()
            vals, psi, _ = _sphere_ascent(chan, ln_sigma, starts)
            assert batches[:2] == [6, 6] and set(batches[2:]) == {1}
            assert np.all(vals == vals[0]) and np.all(psi == psi[0])

    def test_round_inner_products_are_per_row(self):
        # Re<a_i, b_i> of a row alone has the same bits as in a stack, and it
        # agrees with the complex inner product of the row within rounding of
        # the operands' scale |a_i| |b_i|, over rows of scales 1e-8 to 1e8
        for din in range(1, 5):
            g = seeded_rng(120, din)
            scale = 10.0 ** g.integers(-8, 9, size=(12, 1))
            a, b = (scale * (g.standard_normal((12, din)) + 1j * g.standard_normal((12, din)))
                    for _ in range(2))
            for x, y in ((a, b), (a, a), (a - b, b)):
                got = _re_inner(x, y)
                for i in range(len(x)):
                    assert _re_inner(x[i : i + 1], y[i : i + 1])[0] == got[i]
                    bound = 1e-15 * np.linalg.norm(x[i]) * np.linalg.norm(y[i])
                    assert abs(got[i] - np.vdot(x[i], y[i]).real) <= bound

    def test_ascent_kernel_batches_are_pinned(self, monkeypatch):
        # the kernel batch sizes of one fixed ascent per shape, recorded with
        # a round that merges every update under a mask: a round where every
        # row passes Armijo takes the trial arrays whole, with the same steps
        # and merges. Some rounds of the (2, 3) and (3, 2) ascents reject part
        # of their rows, one round of the (3, 3) ascent rejects its one row,
        # and every trial of the (2, 2) ascent passes
        expected = {
            (2, 2): [6, 6, 4, 2, 2, 1, 1, 1, 1],
            (2, 3): [6, 6, 6, 4, 4, 1, 1, 1],
            (3, 2): [6] * 6 + [5] * 4 + [4] * 2 + [3] * 7 + [2] + [1] * 16,
            (3, 3): [6] * 6 + [5] * 2 + [3] * 4 + [1] * 9,
        }
        batches = []
        fused = capacity_module._divergences_and_grads

        def counted(channel, ln_sigma, states):
            batches.append(len(states))
            return fused(channel, ln_sigma, states)

        monkeypatch.setattr(capacity_module, "_divergences_and_grads", counted)
        for (din, dout), sizes in expected.items():
            chan = random_channel(din, dout, seed=(110, din, dout))
            ln_sigma = _log_matrix(random_density_matrix(dout, dout, (111, din, dout)))
            g = seeded_rng(112, din, dout)
            starts = g.standard_normal((6, din)) + 1j * g.standard_normal((6, din))
            batches.clear()
            _sphere_ascent(chan, ln_sigma, starts)
            assert batches == sizes, (din, dout)

    def test_tightest_gradient_tolerance_is_reachable(self, monkeypatch):
        # at the floor of GRAD_TOL_RANGE the ascent's best row retires on its
        # tangent, not at the step floor after searches that gain only
        # rounding: 40 ascents of 8 starts took 1363 kernel calls, 10 best
        # rows ending above the tolerance, with the floor at 1e-9; 612 and 1
        # at 1e-8
        calls = []
        fused = capacity_module._divergences_and_grads

        def counted(channel, ln_sigma, states):
            calls.append(len(states))
            return fused(channel, ln_sigma, states)

        monkeypatch.setattr(capacity_module, "_divergences_and_grads", counted)
        dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
        for t in range(40):
            din, dout = dims[t % 4]
            chan = random_channel(din, dout, seed=(900, t))
            ln_sigma = _log_matrix(random_density_matrix(dout, dout, (901, t)))
            g = seeded_rng(902, t)
            starts = g.standard_normal((8, din)) + 1j * g.standard_normal((8, din))
            _sphere_ascent(chan, ln_sigma, starts, grad_tol=GRAD_TOL_RANGE[0])
        assert len(calls) <= 800

    def test_max_output_divergence_checks_its_reference(self):
        # a reference of the wrong shape, a non-Hermitian one and one with a
        # nan entry are rejected before their logarithm is taken
        chan = random_channel(2, 2, seed=7)
        nan_entry = np.eye(2) / 2
        nan_entry[0, 0] = math.nan
        for sigma, message in (
            (np.eye(3) / 3, r"reference shape \(3, 3\) does not match outputs \(2, 2\)"),
            (np.array([[1.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
            (nan_entry, "non-finite"),
        ):
            with pytest.raises(ValueError, match=message):
                max_output_divergence(chan, sigma)

    def test_restarts_below_one_raise(self):
        chan = random_channel(2, 2, seed=1)
        for restarts in (0, -1):
            with pytest.raises(ValueError, match="restarts"):
                max_output_divergence(chan, np.eye(2) / 2, restarts=restarts)
            with pytest.raises(ValueError, match="restarts"):
                holevo_quantity(chan, restarts=restarts)

    def test_tol_must_be_finite_and_positive(self):
        # max_iter=2 keeps a solve that ignores the check short
        chan = random_channel(2, 2, seed=1)
        for solve in (entanglement_assisted_capacity, holevo_quantity):
            for tol in (0.0, -1e-7, math.inf, math.nan):
                with pytest.raises(ValueError, match="tol must be finite and positive"):
                    solve(chan, tol=tol, max_iter=2)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        grad_tol=st.sampled_from(GRAD_TOL_RANGE),
    )
    def test_property_rows_rise_and_the_best_retires_stationary(self, dims, rows, seed, grad_tol):
        # every row ends at least at its start value. The argmax row's tangent
        # is at most grad_tol, unless it retired at the step floor or out of
        # searches; then a fresh ascent from it gains at most rounding
        din, dout = dims
        chan = random_channel(din, dout, seed=seed)
        ln_sigma = _log_matrix(random_density_matrix(dout, dout, (seed, 1)))
        g = seeded_rng(seed, 2)
        starts = g.standard_normal((rows, din)) + 1j * g.standard_normal((rows, din))
        psi0 = starts / np.linalg.norm(starts, axis=1, keepdims=True)
        vals, psi, _ = _sphere_ascent(chan, ln_sigma, starts, grad_tol=grad_tol)
        assert np.all(vals >= _divergences_and_grads(chan, ln_sigma, psi0)[0])
        best = psi[np.argmax(vals)][None, :]
        tangent = _divergences_and_grads(chan, ln_sigma, best)[1]
        if np.linalg.norm(tangent) > grad_tol:
            again, _, _ = _sphere_ascent(chan, ln_sigma, best, grad_tol=grad_tol)
            assert again[0] - vals.max() <= 1e-12

    def test_ensemble_weights_close_the_gap_on_degenerate_alphabets(self):
        # five and nine outputs of qubit inputs, and twelve qutrit outputs
        # (more than min(d_in, d_out)^2 = 4 and 9), leave chi linear along
        # barycenter-preserving directions, also where the qubit inputs go to
        # qutrit outputs; two witnesses with overlap 1 - 1e-9 make the
        # optimality system nearly singular. Pure outputs of an isometry, of
        # the identity and of a Kraus-rank-2 channel leave a kernel in the
        # barycenter, where its logarithm is floored
        def solve(chan, states):
            alphabet = _alphabet(chan, states)
            uniform = np.full(len(states), 1.0 / len(states))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                weights, chi = _ensemble_weights(alphabet, 1e-11, uniform)[:2]
                dvals = _ensemble_point(alphabet, weights).dvals
                chi_uniform = _ensemble_point(alphabet, uniform).chi
            assert abs(weights.sum() - 1.0) < 1e-12 and weights.min() >= 0.0
            assert chi == float(weights @ dvals)
            assert dvals.max() - chi <= 1e-9
            return chi, chi_uniform

        for trial in range(6):
            qubit = random_channel(2, 2, seed=(60, trial))
            qubit_to_qutrit = random_channel(2, 3, seed=(67, trial))
            qutrit = random_channel(3, 3, seed=(62, trial))
            wide = np.array([random_pure_state(2, (61, trial, i)) for i in range(9)])
            crowded = wide[:5]
            a = crowded[0]
            perp = np.array([-a[1].conj(), a[0].conj()])
            b = math.sqrt(1.0 - 1e-9) * a + math.sqrt(1e-9) * perp
            assert abs(abs(np.vdot(a, b)) ** 2 - (1.0 - 1e-9)) < 1e-15
            twins = np.array([a, b, crowded[1], crowded[2]])
            qutrit_wide = np.array([random_pure_state(3, (63, trial, i)) for i in range(12)])
            for chan, states in (
                (qubit, crowded),
                (qubit, twins),
                (qubit, wide),
                (qubit_to_qutrit, crowded),
                (qubit_to_qutrit, wide),
                (qutrit, qutrit_wide),
            ):
                chi, chi_uniform = solve(chan, states)
                assert chi > chi_uniform
            for k, chan in enumerate(
                (
                    random_channel(2, 4, 1, seed=(64, trial)),
                    identity_channel(3),
                    random_channel(3, 3, 2, seed=(65, trial)),
                )
            ):
                for m in (2, 3, 5):
                    states = np.array(
                        [random_pure_state(chan.d_in, (66, trial, k, i)) for i in range(m)]
                    )
                    chi, chi_uniform = solve(chan, states)
                    assert chi >= chi_uniform  # two pure outputs are optimal at equal weights

    def test_ensemble_weights_close_the_gap_of_near_twin_witnesses(self):
        # a warm start met in a C_H solve of a criterion-5 qubit channel (dims
        # index 0, trial 11) with two near-twin witnesses: undamped Newton
        # steps, halved up to four times, were all rejected at a gap of 2.5e-3,
        # where a solve that stopped there returned the chi and gap below; the
        # damped steps pass whole and close the gap
        chan = random_channel(2, 2, seed=(6000, 11))
        states = np.array(
            [
                -0.05992046984875978 - 0.7536865289721367j,
                -0.04658756669189599 + 0.6528366962485829j,
                0.4363088155118521 - 0.47472358374103113j,
                0.5968817261206968 - 0.47749800163968675j,
                0.43626990424398265 - 0.4746620011742408j,
                0.5969220684515035 - 0.47754434295444215j,
            ]
        ).reshape(3, 2)
        init = np.array([0.35230650403887737, 0.3143601626277894, 0.3333333333333333])
        stalled_chi, stalled_gap = 0.23680758643660366, 0.0024543654848424024
        alphabet = _alphabet(chan, states)
        weights, chi = _ensemble_weights(alphabet, 1e-11, init)[:2]
        gap = float(_ensemble_point(alphabet, weights).dvals.max()) - chi
        assert chi > stalled_chi and gap < stalled_gap
        assert gap <= 1e-9

    def test_weight_newton_hessian_matches_central_differences(self, monkeypatch):
        # dD_i/dw_j = -Q_ij, Q the Daleckii-Krein Gram of the outputs at the
        # barycenter: the Hessian block of the Newton step's system, read back
        # as the system plus its -gap I shift, is the derivative of the D_i
        systems = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(
            np.linalg, "lstsq", lambda a, *args, **kw: systems.append(a) or lstsq(a, *args, **kw)
        )
        for din, dout in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            chan = random_channel(din, dout, seed=(98, din, dout))
            witnesses = np.array([random_pure_state(din, (99, din, dout, r)) for r in range(4)])
            alphabet = _alphabet(chan, witnesses)
            weights = np.full(4, 0.25)
            point = _ensemble_point(alphabet, weights)
            next(capacity_module._newton_trials(alphabet, point))
            hess = systems.pop()[:4, :4] + point.gap * np.eye(4)
            h = 1e-5
            fd = np.empty((4, 4))
            for j, e in enumerate(np.eye(4)):
                up = _ensemble_point(alphabet, weights + h * e).dvals
                down = _ensemble_point(alphabet, weights - h * e).dvals
                fd[:, j] = (up - down) / (2 * h)
            err = np.abs(hess - fd).max() / np.abs(fd).max()
            assert err <= 1e-8, (din, dout, err)  # about 1e-10: the differences' own error

    def test_ensemble_weights_close_a_gap_below_chi_rounding(self):
        # the warm start of a stalled two-witness solve (criterion-5 channel
        # (2, 3), trial 16, at tol 1e-10): chi moves by O(gap^2) there, below
        # rounding, so Armijo on chi alone is a coin toss. A solve that stopped
        # there kept a gap of 5.7e-9; the damped steps also take a trial that
        # lowers the gap while chi stays at least the start's, and close it
        chan = random_channel(2, 3, seed=(6001, 16))
        states = np.array(
            [
                -0.41508159046900095 + 0.18826222544045113j,
                0.328856178019843 - 0.8271143946904291j,
                0.2639609849507815 + 0.8444823498140248j,
                0.44957728743076447 + 0.12269646247057127j,
            ]
        ).reshape(2, 2)
        init = np.array([0.467327184580026, 0.532672815419974])
        alphabet = _alphabet(chan, states)
        weights, chi = _ensemble_weights(alphabet, 2e-12, init)[:2]
        dvals = _ensemble_point(alphabet, weights).dvals
        assert chi == float(weights @ dvals)
        assert dvals.max() - chi <= 2e-12

    def test_ensemble_weights_close_five_affinely_dependent_outputs(self):
        # outputs of qubit inputs span an affine space of dimension at most 3,
        # so 5 of them are affinely dependent whatever d_out is, and the
        # Hessian of the weight solve is singular. The third fit of
        # criterion-5 channel (2, 3), trial 31, at tol 1e-7 (solver seed
        # (7001, 31)) starts from these five witnesses; an undamped Newton
        # solve that cut the support only above d_out^2 = 9 outputs left a
        # gap of 4.0e-5
        chan = random_channel(2, 3, seed=(6001, 31))
        states = np.array(
            [
                -0.8948835655844637 - 0.2247715107017502j,
                0.11693324947021802 + 0.36740684151499653j,
                -0.256377125881339 + 0.15062619077203016j,
                -0.7779410782485099 - 0.5535252467158819j,
                -0.476736820130337 + 0.8061072557246868j,
                -0.17268370991001442 + 0.30511216450961604j,
                -0.06290852335857434 + 0.15151936244661238j,
                -0.9823268731103415 - 0.09010169175922839j,
                -0.9135682947528331 - 0.21980211022852528j,
                0.08181232443575168 + 0.33224501009331525j,
            ]
        ).reshape(5, 2)
        init = np.array([0.2141630192744648, 0.18583698072553523, 0.2, 0.2, 0.2])
        point = _ensemble_weights(_alphabet(chan, states), 1e-11, init)
        assert point.gap <= 1e-11

    def test_ensemble_weights_stop_where_no_newton_trial_is_taken(self, monkeypatch):
        # every trial puts all weight on one output, where chi = 0 is below
        # the start's: one round of trials is rejected and the solve returns
        # its start, with the gap still open
        chan = random_channel(2, 3, seed=(130, 0))
        alphabet = _alphabet(chan, np.array([random_pure_state(2, (131, r)) for r in range(3)]))
        rounds = []

        def lowering(alphabet, point):
            rounds.append(point)
            yield np.eye(len(point.weights))[0]

        monkeypatch.setattr(capacity_module, "_newton_trials", lowering)
        init = np.array([1.0, 2.0, 1.0])
        point = _ensemble_weights(alphabet, 1e-12, init)
        assert len(rounds) == 1
        assert np.array_equal(point.weights, init / init.sum()) and point.gap > 1e-12

    def test_fit_stops_after_a_sweep_without_an_armijo_step(self, monkeypatch):
        # every candidate of the first position sweep has its chi lowered, so
        # the sweep's search halves the step from 1 to 2^-26, the last at or
        # above STEP_FLOOR: 27 candidate alphabets, after which the fit stops
        # with the witnesses where they started
        assert 2.0**-27 < STEP_FLOOR <= 2.0**-26
        chan = random_channel(2, 3, seed=(132, 0))
        states = np.array([random_pure_state(2, (133, r)) for r in range(3)])
        alphabets = []
        make, evaluate = capacity_module._alphabet, capacity_module._ensemble_point

        def recorded(channel, witnesses):
            alphabets.append(make(channel, witnesses))
            return alphabets[-1]

        def lowered(alphabet, weights):
            point = evaluate(alphabet, weights)
            return point if alphabet is alphabets[0] else point._replace(chi=point.chi - 1.0)

        monkeypatch.setattr(capacity_module, "_alphabet", recorded)
        monkeypatch.setattr(capacity_module, "_ensemble_point", lowered)
        witnesses, alphabet, _ = _fit_ensemble(chan, states, np.full(3, 1.0 / 3), 1e-11)
        assert len(alphabets) == 1 + 27
        assert witnesses is states and alphabet is alphabets[0]

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
        m=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from([1e-11, 1e-8, 1e-4]),
    )
    def test_property_ensemble_weights_never_lower_chi(self, dims, m, seed, tol):
        # from any warm start, the returned chi is the exact mixture
        # divergence at the returned weights and at least the start's
        din, dout = dims
        chan = random_channel(din, dout, seed=seed)
        g = seeded_rng(seed, 1)
        states = g.standard_normal((m, din)) + 1j * g.standard_normal((m, din))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        alphabet = _alphabet(chan, states)
        init = g.exponential(size=m) * (g.random(m) < 0.7)
        if not init.any():
            init[0] = 1.0
        start = init / init.sum()
        weights, chi = _ensemble_weights(alphabet, tol, init)[:2]
        assert chi == float(weights @ _ensemble_point(alphabet, weights).dvals)
        assert chi >= _ensemble_point(alphabet, start).chi

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
        m=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        ba_tol=st.sampled_from([1e-11, 2e-9, 1e-4]),
    )
    def test_property_fit_never_lowers_the_first_weight_solve(self, dims, m, seed, ba_tol):
        # the position sweeps, started from Barzilai-Borwein steps, and the
        # second weight solve never end below the chi of the first solve, and
        # the returned point's chi is the mixture divergence at its weights
        din, dout = dims
        chan = random_channel(din, dout, seed=seed)
        g = seeded_rng(seed, 1)
        states = g.standard_normal((m, din)) + 1j * g.standard_normal((m, din))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        init = g.exponential(size=m)
        init /= init.sum()
        witnesses, alphabet, point = _fit_ensemble(chan, states, init, ba_tol)
        assert np.allclose(np.linalg.norm(witnesses, axis=1), 1.0)
        assert np.array_equal(alphabet.outs, _batch_outputs(chan, witnesses))
        assert point.chi == _ensemble_point(alphabet, point.weights).chi
        assert point.chi >= _ensemble_weights(_alphabet(chan, states), ba_tol, init).chi


class TestSolverProperties:
    def test_assistance_never_hurts(self):
        for trial in range(15):
            din, dout = [(2, 2), (3, 2), (2, 3)][trial % 3]
            chan = random_channel(din, dout, seed=(10, trial))
            ce = entanglement_assisted_capacity(chan)
            ch = holevo_quantity(chan, seed=(11, trial))
            assert ce.lower_nats >= ch.upper_nats - 1e-6

    def test_basis_change_invariance(self):
        chan = random_channel(2, 2, seed=12)
        g = seeded_rng(13)
        u_in, _ = np.linalg.qr(g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2)))
        u_out, _ = np.linalg.qr(g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2)))
        rotated = type(chan)(np.einsum("ab,mbc,cd->mad", u_out, chan.kraus, u_in))
        tol = 1e-7
        ce1 = entanglement_assisted_capacity(chan, tol=tol)
        ce2 = entanglement_assisted_capacity(rotated, tol=tol)
        assert abs(ce1.lower_nats - ce2.lower_nats) <= 2 * tol
        ch1 = holevo_quantity(chan, tol=tol, seed=14)
        ch2 = holevo_quantity(rotated, tol=tol, seed=14)
        assert abs(ch1.upper_nats - ch2.upper_nats) <= 2 * tol

    def test_deterministic(self):
        chan = random_channel(3, 2, seed=15)
        a = holevo_quantity(chan, seed=16)
        b = holevo_quantity(chan, seed=16)
        assert a.upper_nats == b.upper_nats and a.gap_bound == b.gap_bound
        c = entanglement_assisted_capacity(chan)
        d = entanglement_assisted_capacity(chan)
        assert c.lower_nats == d.lower_nats


class TestSweep:
    def test_anchor_rows(self):
        rows = depolarizing_capacity_sweep(p_grid=[0.0, 0.999, 1.0])
        by_p = {r.p: r for r in rows}
        r0 = by_p[0.0]
        assert abs(r0.ce_bits - 2.0) < 1e-4 and abs(r0.ch_bits - 1.0) < 1e-4
        assert abs(r0.ratio - 2.0) < 1e-4
        r1 = by_p[1.0]
        assert r1.ce_bits < 1e-6 and r1.ch_bits < 1e-6 and r1.ratio is None
        ra = by_p[0.999]
        assert abs(ra.ratio - 3.0) / 3.0 < 0.05

    def test_monotone_decrease_up_to_total_noise(self):
        grid = list(np.linspace(0.0, 1.0, 21))
        rows = depolarizing_capacity_sweep(p_grid=grid)
        for a, b in zip(rows, rows[1:]):
            assert b.ce_bits <= a.ce_bits + 1e-9
            assert b.ch_bits <= a.ch_bits + 1e-9

    def test_solves_at_most_at_sweep_tol(self, monkeypatch):
        calls = {}
        for name in ("entanglement_assisted_capacity", "holevo_quantity"):

            def recorded(*args, solver=getattr(capacity_module, name), **kwargs):
                calls[solver.__name__] = kwargs
                return solver(*args, **kwargs)

            monkeypatch.setattr(capacity_module, name, recorded)
        depolarizing_capacity_sweep(p_grid=[0.5])
        assert calls["entanglement_assisted_capacity"]["tol"] == SWEEP_TOL
        assert calls["holevo_quantity"]["tol"] == SWEEP_TOL
        assert calls["holevo_quantity"]["restarts"] == SUP_RESTARTS

    def test_default_grid_has_probe_point(self):
        rows = depolarizing_capacity_sweep(p_grid=None)
        ps = [r.p for r in rows]
        assert len(ps) == 82 and any(abs(p - 0.999) < 1e-12 for p in ps)
        assert ps == sorted(ps)
