import math

import numpy as np
import pytest

from chancap import (
    barycenter_dominance,
    capacity_ratio_prefactor,
    chain_report,
    depolarizing_channel,
    entanglement_assisted_capacity,
    family_total_weight,
    holevo_quantity,
    identity_channel,
    mutual_information,
    output_barycenter,
    random_channel,
    random_density_matrix,
    random_pure_state,
    relative_entropy,
    schmidt_decompose,
    support_margins,
    verify_ratio_bound,
)
from chancap.capacity import LN2
from chancap.certify import _family_outputs
from chancap.channels import pure_outputs
from chancap.linalg import check_density_matrix, partial_trace
from oracles import (
    chain_by_loop,
    prefactor_closed_form,
    replacement_channel,
    superposition_family,
    superposition_state,
)


def bell_vector(d=2):
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1 / np.sqrt(d)
    return v


def barycenter_second_form(channel, sd):
    """2 T(I) + (2d-3) sum_k a_k^2 T(P_k), normalized by the total weight."""
    d = channel.d_in
    basis = sd.basis_right
    acc = 2.0 * channel.apply(np.eye(d, dtype=complex))
    for k in range(d):
        proj = np.outer(basis[:, k], basis[:, k].conj())
        acc += (2.0 * d - 3.0) * sd.coefficients[k] ** 2 * channel.apply(proj)
    return acc / family_total_weight(d)


class TestConstants:
    def test_total_weight_and_dominance(self):
        assert family_total_weight(2) == 5.0
        assert barycenter_dominance(2) == 2.5
        for d in range(2, 10):
            assert barycenter_dominance(d) == family_total_weight(d) / 2.0


class TestSuperpositionFamily:
    def test_phase_sum_identity(self):
        basis = np.linalg.qr(
            np.arange(9).reshape(3, 3) + 1j * np.eye(3)
        )[0]
        for k in range(3):
            for l in range(3):
                if k == l:
                    continue
                chis = [
                    np.outer(superposition_state(basis, k, l, a),
                             superposition_state(basis, k, l, a).conj())
                    for a in range(4)
                ]
                projs = (
                    np.outer(basis[:, k], basis[:, k].conj())
                    + np.outer(basis[:, l], basis[:, l].conj())
                )
                np.testing.assert_allclose(chis[0] + chis[2], projs, atol=1e-12)
                np.testing.assert_allclose(chis[1] + chis[3], projs, atol=1e-12)

    def test_members_are_pure_states(self):
        basis = np.eye(3, dtype=complex)
        count = 0
        for (k, l, a), vec in superposition_family(basis):
            check_density_matrix(np.outer(vec, vec.conj()))
            assert k != l and 0 <= a < 4
            count += 1
        assert count == 3 * 2 * 4

    def test_output_stack_matches_the_family_loop(self):
        # the one-expression stack of basis vectors and superpositions gives
        # the outputs of the public generator, in its order, bit for bit
        for d in range(2, 6):
            chan = random_channel(d, 3, seed=(17, d))
            basis = schmidt_decompose(random_pure_state(d * d, (18, d)), (d, d)).basis_right
            family = list(superposition_family(basis))
            ks, ls, outs = _family_outputs(chan, basis)
            expected = pure_outputs(chan, np.array([*basis.T, *(vec for _, vec in family)]))
            assert np.array_equal(outs, expected)
            assert [(k, l) for (k, l, _), _ in family] == list(zip(ks.tolist(), ls.tolist()))


class TestOutputBarycenter:
    def test_identity_channel_maximally_entangled(self):
        sd = schmidt_decompose(bell_vector(), (2, 2))
        sigma = output_barycenter(identity_channel(2), sd)
        np.testing.assert_allclose(sigma, np.eye(2) / 2, atol=1e-12)

    def test_unit_trace(self):
        for trial in range(20):
            d = 2 + trial % 2
            chan = random_channel(d, 2 + trial % 3, seed=(1, trial))
            sd = schmidt_decompose(random_pure_state(d * d, (2, trial)), (d, d))
            sigma = output_barycenter(chan, sd)
            assert abs(np.trace(sigma).real - 1.0) < 1e-10

    def test_two_forms_agree(self):
        for trial in range(20):
            d = 2 + trial % 3
            chan = random_channel(d, 2, seed=(3, trial))
            sd = schmidt_decompose(random_pure_state(d * d, (4, trial)), (d, d))
            a = output_barycenter(chan, sd)
            b = barycenter_second_form(chan, sd)
            assert np.max(np.abs(a - b)) < 1e-12


class TestSupportMargins:
    def test_identity_channel_margins(self):
        sd = schmidt_decompose(bell_vector(), (2, 2))
        chan = identity_channel(2)
        margins = support_margins(chan, sd, output_barycenter(chan, sd))
        assert len(margins) == 10  # 2 projectors + 4 phases x 2 ordered pairs
        np.testing.assert_allclose(margins, 0.25, atol=1e-12)

    def test_counting_for_qutrits(self):
        d = 3
        chan = random_channel(d, 2, seed=5)
        sd = schmidt_decompose(random_pure_state(d * d, 6), (d, d))
        margins = support_margins(chan, sd, output_barycenter(chan, sd))
        assert len(margins) == d + 4 * d * (d - 1)

    def test_certificates_hold_on_random_instances(self):
        worst = 0.0
        for trial in range(1000):
            d = 2 + trial % 2
            chan = random_channel(d, 2 + trial % 2, seed=(7, trial))
            sd = schmidt_decompose(random_pure_state(d * d, (8, trial)), (d, d))
            margins = support_margins(chan, sd, output_barycenter(chan, sd))
            worst = min(worst, min(margins))
        assert worst >= -1e-9


class TestChainReport:
    def test_constant_channel_has_zero_head(self):
        sigma = random_density_matrix(2, 2, 9)
        report = chain_report(replacement_channel(sigma, 2), bell_vector())
        assert abs(report.mutual_info_nats) < 1e-10
        assert abs(report.reference_divergence_nats) < 1e-10
        assert abs(report.quadratic_bound_nats) < 1e-9
        assert abs(report.decomposed_bound_nats) < 1e-9
        assert report.monotone_ok

    def test_identity_channel_maximally_entangled(self):
        report = chain_report(identity_channel(2), bell_vector(), tau=np.eye(2) / 2)
        chain = report.chain()
        assert all(np.isfinite(chain))
        assert report.monotone_ok
        assert abs(report.mutual_info_nats - 2 * math.log(2)) < 1e-10
        assert min(report.support_margins) >= -1e-12
        assert report.total_weight == 5.0 and report.dominance == 2.5

    def test_random_instances_monotone(self):
        for trial in range(60):
            d = 2 + trial % 2
            chan = random_channel(d, d, seed=(10, trial))
            v = random_pure_state(d * d, (11, trial))
            report = chain_report(chan, v, sup_seed=(12, trial))
            assert report.monotone_ok, (trial, report.chain())
            assert min(report.support_margins) >= -1e-9

    def test_product_input_degenerate_schmidt(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0
        report = chain_report(random_channel(2, 2, seed=13), v)
        assert report.monotone_ok
        assert abs(report.mutual_info_nats) < 1e-9

    def test_accepts_rank_one_matrix(self):
        v = bell_vector()
        report = chain_report(identity_channel(2), np.outer(v, v.conj()))
        assert report.monotone_ok
        # asymmetric by 1e-11, or with trace 1 + 5e-9 or 1 + 8e-9: within the
        # input tolerance, as the vector scaled by 1 + 8e-9 is
        skewed = np.zeros((4, 4))
        skewed[0, 0] = skewed[0, 3] = skewed[3, 3] = 0.5
        skewed[3, 0] = 0.50000000001
        for state in (skewed, *((1.0 + e) * np.outer(v, v.conj()) for e in (5e-9, 8e-9))):
            assert chain_report(identity_channel(2), state).monotone_ok
        assert chain_report(identity_channel(2), (1.0 + 8e-9) * v).monotone_ok

    def test_matches_loop_form_chain(self):
        # the stacked links equal the chain summed member by member, with the
        # default reference and a given one, on random and product inputs
        product = np.zeros(4, dtype=complex)
        product[1] = 1.0  # Schmidt coefficients (1, 0): the basis completion is arbitrary
        cases = [(random_channel(2, 2, seed=13), product, None)]
        for trial in range(8):
            d = 2 + trial % 2
            tau = None if trial < 4 else random_density_matrix(d, d, (18, trial))
            chan = random_channel(d, d, seed=(18, trial))
            cases.append((chan, random_pure_state(d * d, (19, trial)), tau))
        for chan, v, tau in cases:
            report = chain_report(chan, v, tau=tau, sup_seed=7)
            np.testing.assert_allclose(
                report.chain(), chain_by_loop(chan, v, tau=tau, sup_seed=7), rtol=1e-12, atol=0
            )

    def test_rejects_mixed_state(self):
        # trace 1 but mixed; trace 2; and a negative operator of purity one
        for state in (np.eye(4) / 4, np.eye(4) / 2, -np.diag([1.0, 0.0, 0.0, 0.0])):
            with pytest.raises(ValueError, match="pure state"):
                chain_report(identity_channel(2), state)
        # an asymmetry of 1e-7 is beyond the input tolerance
        skewed = np.outer(bell_vector(), bell_vector().conj())
        skewed[3, 0] += 1e-7
        with pytest.raises(ValueError, match="not Hermitian"):
            chain_report(identity_channel(2), skewed)

    def test_rejects_bad_tol(self):
        # the links' slack is held to the solvers' rule for tol
        chan = random_channel(2, 2, seed=7)
        for tol in (math.nan, -1.0, 0.0, math.inf):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                chain_report(chan, bell_vector(), tol=tol)

    def test_head_is_mutual_information_of_right_marginal(self):
        for trial in range(6):
            d = 2 + trial % 2
            chan = random_channel(d, 2 + trial // 3, seed=(16, trial))
            v = random_pure_state(d * d, (17, trial))
            right = partial_trace(np.outer(v, v.conj()), 1, (d, d))
            head = chain_report(chan, v).mutual_info_nats
            assert abs(head - mutual_information(chan, right)) <= 1e-12

    def test_donald_minimality_of_barycenter(self):
        # replacing the constructed reference by any other state in the
        # weighted divergence sum can only increase it
        for trial in range(25):
            d = 2 + trial % 2
            chan = random_channel(d, d, seed=(14, trial))
            sd = schmidt_decompose(random_pure_state(d * d, (15, trial)), (d, d))
            sigma = output_barycenter(chan, sd)
            basis = sd.basis_right
            alpha2 = sd.coefficients**2

            def bracket(ref):
                total = 0.0
                for k in range(d):
                    proj = np.outer(basis[:, k], basis[:, k].conj())
                    total += alpha2[k] * relative_entropy(chan.apply(proj), ref).value
                for (k, l, _), vec in superposition_family(basis):
                    out = chan.apply(np.outer(vec, vec.conj()))
                    total += 0.5 * (alpha2[k] + alpha2[l]) * relative_entropy(out, ref).value
                return total

            at_barycenter = bracket(sigma)
            at_random = bracket(random_density_matrix(d, d, (16, trial)))
            assert at_random >= at_barycenter - 1e-9


class TestPrefactor:
    def test_qubit_value(self):
        assert abs(capacity_ratio_prefactor(2) - 14.227416571252704) < 1e-3

    def test_matches_weight_over_factor_form(self):
        for d in range(2, 65):
            closed = prefactor_closed_form(d)
            assert abs(capacity_ratio_prefactor(d) - closed) <= 1e-15 * closed

    def test_asymptotic_scale(self):
        d = 10**4
        ratio = capacity_ratio_prefactor(d) * math.log(d) / (8.0 * d * d)
        assert abs(ratio - 1.0) < 0.10

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            capacity_ratio_prefactor(1)


class TestVerifyRatioBound:
    def test_noiseless_qubit(self):
        check = verify_ratio_bound(identity_channel(2))
        assert abs(check.ce_bits - 2.0) < 1e-3 and abs(check.ch_bits - 1.0) < 1e-3
        assert check.slack_bits > 0

    def test_depolarizing_near_total_noise(self):
        check = verify_ratio_bound(depolarizing_channel(2, 0.9))
        assert check.ce_bits / check.ch_bits < 3.1 < check.prefactor

    def test_slack_uses_the_certified_ends(self):
        # the slack takes C_H from below (the witness ensemble) and C_E from
        # above (value plus gap), so it is never above the slack of the values
        chan = random_channel(3, 2, seed=(6002, 48))
        check = verify_ratio_bound(chan, seed=(7002, 48))
        ce = entanglement_assisted_capacity(chan)
        ch = holevo_quantity(chan, seed=(7002, 48))
        sound = (check.prefactor * ch.lower_nats - ce.upper_nats) / math.log(2.0)
        assert check.slack_bits == sound
        ce_bits, ch_bits = ce.lower_nats / LN2, ch.upper_nats / LN2
        assert (check.ce_bits, check.ch_bits) == (ce_bits, ch_bits)
        assert 0.0 < check.slack_bits <= check.prefactor * ch_bits - ce_bits

    def test_random_channels(self):
        for trial in range(10):
            din, dout = [(2, 2), (2, 3), (3, 2), (3, 3)][trial % 4]
            chan = random_channel(din, dout, seed=(17, trial))
            check = verify_ratio_bound(chan, seed=(18, trial))
            assert check.slack_bits >= -1e-4
            assert check.ce_converged and check.ch_converged


def test_input_checks_name_each_fault():
    qutrit_schmidt = schmidt_decompose(bell_vector(3), (3, 3))
    message = "basis dimension 3 does not match channel input dimension 2"
    with pytest.raises(ValueError, match=message):
        output_barycenter(identity_channel(2), qutrit_schmidt)
    with pytest.raises(ValueError, match=r"state of shape \(3,\) is neither a length-4 vector nor"):
        chain_report(identity_channel(2), np.ones(3))
    with pytest.raises(ValueError, match=r"state vector is not normalized \(norm 2\.0\)$"):
        chain_report(identity_channel(2), np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="the bound chain is defined for input dimension >= 2"):
        chain_report(identity_channel(1), np.ones(1))
