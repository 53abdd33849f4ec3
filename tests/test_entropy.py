import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancap import (
    depolarizing_channel,
    dominance_constant,
    identity_channel,
    log_derivative_form,
    lower_bound_factor,
    mutual_information,
    random_channel,
    random_density_matrix,
    random_pure_state,
    relative_entropy,
    von_neumann_entropy,
)
from chancap.entropy import KERNEL_THRESHOLD, _log_derivative_forms, _relative_entropies
from chancap.linalg import hermitian_eig, partial_trace, seeded_rng
from oracles import (
    donald_residual,
    log_derivative_form_via_quadrature,
    log_derivative_forms_by_loop,
    mutual_information_via_purification,
    purify,
    relative_entropies_by_loop,
    relative_entropy_via_integral,
)


def full_rank_state(dim, seed, floor=0.05):
    """Random state mixed with the maximally mixed state to bound the spectrum away from 0."""
    rho = random_density_matrix(dim, dim, seed)
    return (1 - floor) * rho + floor * np.eye(dim) / dim


class TestVonNeumann:
    def test_pure_state(self):
        v = random_pure_state(4, 0)
        assert abs(von_neumann_entropy(np.outer(v, v.conj()))) < 1e-12

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(5) / 5) - math.log(5)) < 1e-12

    def test_matches_eigenvalue_oracle(self):
        rho = random_density_matrix(4, 3, 1)
        w = np.linalg.eigvalsh(rho)
        oracle = -sum(x * math.log(x) for x in w if x > 1e-15)
        assert abs(von_neumann_entropy(rho) - oracle) < 1e-10


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = random_density_matrix(3, 3, 2)
        res = relative_entropy(rho, rho)
        assert not res.kernel_violation
        assert abs(res.value) < 1e-10

    def test_pure_versus_maximally_mixed(self):
        res = relative_entropy(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert abs(res.value - math.log(2)) < 1e-12

    def test_disjoint_support_is_infinite(self):
        res = relative_entropy(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
        assert res.kernel_violation and res.value == float("inf")
        # kernel mass 5e-11 is within KERNEL_MASS_TOL, 5e-10 is not
        finite = relative_entropy(np.diag([1.0 - 5e-11, 5e-11]), np.diag([1.0, 0.0]))
        assert not finite.kernel_violation and np.isfinite(finite.value)
        infinite = relative_entropy(np.diag([1.0 - 5e-10, 5e-10]), np.diag([1.0, 0.0]))
        assert infinite.kernel_violation and infinite.value == float("inf")

    def test_nonnegative_many_pairs(self):
        for trial in range(1000):
            d = 2 + trial % 3
            rho = random_density_matrix(d, 1 + trial % d, (3, trial))
            tau = random_density_matrix(d, d, (4, trial))
            assert relative_entropy(rho, tau).value >= -1e-9

    def test_zero_iff_equal(self):
        # close states give (almost) zero divergence ...
        rho = full_rank_state(3, 5)
        delta = random_density_matrix(3, 3, 6) - random_density_matrix(3, 3, 7)
        tau = rho + 1e-8 * delta / np.linalg.norm(delta)
        tau = (tau + tau.conj().T) / 2
        tau /= np.trace(tau).real
        assert relative_entropy(rho, tau).value <= 1e-9
        # ... and a divergence this small pins the states together in norm
        for trial in range(200):
            rho = random_density_matrix(3, 3, (8, trial))
            tau = random_density_matrix(3, 3, (9, trial))
            if np.linalg.norm(rho - tau) > 1e-6:
                # Pinsker-type direction: far states cannot have ~zero divergence
                assert relative_entropy(rho, tau).value > 5e-13


class TestLogDerivativeForm:
    def test_zero_direction(self):
        tau = random_density_matrix(3, 3, 10)
        assert log_derivative_form(tau, np.zeros((3, 3))) == 0.0

    def test_maximally_mixed_base(self):
        # all eigenvalues equal 1/d, so the kernel weight is d everywhere
        d = 4
        eta = random_density_matrix(d, d, 11) - np.eye(d) / d
        expected = d * np.linalg.norm(eta) ** 2
        assert abs(log_derivative_form(np.eye(d) / d, eta) - expected) < 1e-10

    def test_matches_quadrature(self):
        for trial in range(10):
            d = 2 + trial % 3
            tau = full_rank_state(d, (12, trial))
            eta = random_density_matrix(d, d, (13, trial)) - tau
            a = log_derivative_form(tau, eta)
            b = log_derivative_form_via_quadrature(tau, eta)
            assert abs(a - b) < 1e-6

    def test_kernel_conventions(self):
        tau = np.diag([0.5, 0.5, 0.0])
        inside = np.zeros((3, 3))
        inside[0, 1] = inside[1, 0] = 0.3  # supported inside
        assert np.isfinite(log_derivative_form(tau, inside))
        touching = np.zeros((3, 3))
        touching[0, 2] = touching[2, 0] = 0.3  # couples to the kernel
        assert log_derivative_form(tau, touching) == float("inf")
        # an off-kernel element of 5e-11 is within KERNEL_MASS_TOL, 5e-10 is not
        touching[0, 2] = touching[2, 0] = 5e-11
        assert np.isfinite(log_derivative_form(tau, touching))
        touching[0, 2] = touching[2, 0] = 5e-10
        assert log_derivative_form(tau, touching) == float("inf")

    def test_monotone_in_base(self):
        # growing the base operator can only shrink the form
        for trial in range(50):
            d = 2 + trial % 3
            phi = 2.0 * full_rank_state(d, (14, trial))
            bump = random_density_matrix(d, 1 + trial % d, (15, trial))
            psi = phi + 0.7 * bump
            eta = random_density_matrix(d, d, (16, trial)) - np.eye(d) / d
            assert log_derivative_form(phi, eta) >= log_derivative_form(psi, eta) - 1e-9


def reference_and_members(d, rank, seed, scale=1.0):
    """A positive operator of the given rank and trace ``scale``, and a stack of
    states: two inside its support (when it has one), one generic state of
    each rank, and the zero matrix."""
    g = seeded_rng(seed)
    u = np.linalg.qr(g.standard_normal((d, d)) + 1j * g.standard_normal((d, d)))[0]
    w = np.zeros(d)
    w[:rank] = g.uniform(0.1, 1.0, rank)
    if rank:
        w *= scale / w.sum()
    tau = (u * w) @ u.conj().T
    inside = [
        u[:, :rank] @ random_density_matrix(rank, rank, (seed, i)) @ u[:, :rank].conj().T
        for i in range(2 if rank else 0)
    ]
    generic = [random_density_matrix(d, r, (seed, d + r)) for r in range(1, d + 1)]
    return tau, np.array(inside + generic + [np.zeros((d, d))])


def assert_stacked_forms_match_loop(tau, rhos):
    ref = hermitian_eig(tau)
    np.testing.assert_allclose(
        _relative_entropies(rhos, ref),
        relative_entropies_by_loop(rhos, tau),
        rtol=1e-12, atol=0,
    )
    etas = rhos - tau
    np.testing.assert_allclose(
        _log_derivative_forms(etas, ref), log_derivative_forms_by_loop(tau, etas),
        rtol=1e-12, atol=0,
    )


class TestStackedForms:
    """Stacked evaluations against one reference equal the loop of single-pair calls."""

    def test_full_rank_deficient_and_empty_references(self):
        for d in range(2, 6):
            for rank in (d, d - 1, 0):
                tau, rhos = reference_and_members(d, rank, 100 * d + rank)
                assert_stacked_forms_match_loop(tau, rhos)
                divs = _relative_entropies(rhos, hermitian_eig(tau))
                forms = _log_derivative_forms(rhos - tau, hermitian_eig(tau))
                # the zero member is finite, and so is every member on a full support
                assert np.isfinite(divs[-1]) and np.isfinite(forms[-1])
                if rank == d:
                    assert np.all(np.isfinite(divs)) and np.all(np.isfinite(forms))
                else:  # the generic full-rank member leaks onto the kernel
                    assert np.isinf(divs[-2]) and np.isinf(forms[-2])
                if 0 < rank < d:
                    assert np.all(np.isfinite(divs[:2])) and np.all(np.isfinite(forms[:2]))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 5),
        rank=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 10.0),
    )
    def test_property_matches_loop(self, d, rank, seed, scale):
        tau, rhos = reference_and_members(d, min(rank, d), seed, scale)
        assert_stacked_forms_match_loop(tau, rhos)


class TestLowerBoundFactor:
    def test_limit_at_one(self):
        assert lower_bound_factor(1.0) == 0.5

    def test_value_at_two(self):
        assert abs(lower_bound_factor(2.0) - (2 * math.log(2) - 1)) < 1e-14

    def test_series_matches_high_precision_near_one(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        for k in (1.0 + 1e-8, 1.0 + 1e-4, 1.0 + 9e-4, 1.0 + 2e-3):
            kk = mpmath.mpf(k)
            exact = float((kk * mpmath.log(kk) - kk + 1) / (kk - 1) ** 2)
            assert abs(lower_bound_factor(k) - exact) < 1e-12

    def test_strictly_decreasing_with_range(self):
        ks = [1.0, 1.5, 2.0, 5.0, 50.0, 1e4]
        vals = [lower_bound_factor(k) for k in ks]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 0.5 for v in vals)

    def test_asymptotic_tail(self):
        # k g(k)/ln k -> 1 like 1 - 1/ln k: about 7.24% low at k = 1e6,
        # inside 5% only from k ~ e^20 on
        ratio_1e6 = lower_bound_factor(1e6) * 1e6 / math.log(1e6)
        assert abs(ratio_1e6 - 0.927619513969972) < 1e-9
        ratio_1e9 = lower_bound_factor(1e9) * 1e9 / math.log(1e9)
        assert abs(ratio_1e9 - 1.0) < 0.05

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            lower_bound_factor(0.99)

    def test_rejects_non_finite(self):
        # nan < 1 is False, and inf reached (inf - inf) / inf: both came out nan
        for k in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="dominance constant must be >= 1"):
                lower_bound_factor(k)


class TestSandwich:
    def test_operand_shapes_must_match(self):
        small, large = np.eye(2) / 2, np.eye(3) / 3
        for fn in (relative_entropy, log_derivative_form, dominance_constant):
            for a, b in ((small, large), (large, small)):
                with pytest.raises(ValueError, match="shape mismatch"):
                    fn(a, b)

    def test_reference_with_a_negative_eigenvalue_is_rejected(self):
        # as in max_output_divergence: this reference gave a relative entropy
        # of -0.405 nats with no kernel violation, and an infinite form. A
        # drift within INPUT_TOL is kernel, and the kernel conventions apply
        pure, tau = np.diag([1.0, 0.0]), np.diag([1.5, -0.5])
        for call in (lambda: relative_entropy(pure, tau), lambda: log_derivative_form(tau, pure)):
            with pytest.raises(ValueError, match="reference has negative eigenvalue -5.000e-01"):
                call()
        drifted = np.diag([1.0 + 5e-9, -5e-9])
        value, violation = relative_entropy(pure, drifted)
        assert not violation and abs(value + 5e-9) <= 1e-15
        assert abs(log_derivative_form(drifted, pure) - 1.0) <= 1e-8

    def test_dominance_needs_full_rank_reference(self):
        # a minimum eigenvalue within INPUT_TOL of zero is singular
        with pytest.raises(ValueError, match="full rank"):
            dominance_constant(np.eye(2) / 2, np.diag([1.0 - 5e-9, 5e-9]))
        assert dominance_constant(np.eye(2) / 2, np.diag([1.0 - 5e-8, 5e-8])) >= 1.0

    def test_upper_bound(self):
        for trial in range(200):
            d = 2 + trial % 3
            rho = random_density_matrix(d, 1 + trial % d, (17, trial))
            tau = random_density_matrix(d, d, (18, trial))
            div = relative_entropy(rho, tau).value
            assert div <= log_derivative_form(tau, rho - tau) + 1e-9

    def test_lower_bound_with_dominance(self):
        for trial in range(200):
            d = 2 + trial % 3
            rho = random_density_matrix(d, 1 + trial % d, (19, trial))
            tau = random_density_matrix(d, d, (20, trial))
            k = dominance_constant(rho, tau)
            assert k >= 1.0
            lower = lower_bound_factor(k) * log_derivative_form(tau, rho - tau)
            assert lower <= relative_entropy(rho, tau).value + 1e-9

    def test_pure_state_against_maximally_mixed(self):
        # closed form: D = ln d while the form evaluates to d ||rho - I/d||_F^2 = d - 1
        for d in (2, 3, 4, 5):
            v = random_pure_state(d, (50, d))
            rho = np.outer(v, v.conj())
            form = log_derivative_form(np.eye(d) / d, rho - np.eye(d) / d)
            assert abs(form - (d - 1.0)) < 1e-10
            div = relative_entropy(rho, np.eye(d) / d).value
            assert abs(div - math.log(d)) < 1e-10
            assert div <= form + 1e-12

    def test_data_processing(self):
        for trial in range(50):
            chan = random_channel(2 + trial % 2, 2 + trial % 3, seed=(21, trial))
            d = chan.d_in
            rho = random_density_matrix(d, d, (22, trial))
            tau = random_density_matrix(d, d, (23, trial))
            before = relative_entropy(rho, tau).value
            after = relative_entropy(chan.apply(rho), chan.apply(tau)).value
            assert after <= before + 1e-9


# float.hex of relative_entropy(rho, tau).value, log_derivative_form(tau,
# rho - tau) and dominance_constant(rho, tau) on the verify-sandwich inputs at
# seed 0, trial index rank - 1, keyed by (d, rank of rho); recorded with numpy
# 2.4.6 and OpenBLAS
SANDWICH_PINS = {
    (2, 1): ("0x1.d76cdb63fd476p-2", "0x1.6e0cda8291455p-1", "0x1.1363117f0eff0p+1"),
    (2, 2): ("0x1.315e10b4faa92p+0", "0x1.12f6c97da20d4p+2", "0x1.bc2555fc457d2p+2"),
    (3, 1): ("0x1.cc14469e638b2p+1", "0x1.ab3118e5bb1c0p+7", "0x1.c6de9521f8b8ap+8"),
    (3, 2): ("0x1.9ed1343d20ab2p-1", "0x1.c7eda3d985adcp+0", "0x1.2ea889bf1be4cp+2"),
    (3, 3): ("0x1.2c7bb261356bep+0", "0x1.f045cd4f30ef8p+1", "0x1.b5d7efd81b5d8p+2"),
    (4, 1): ("0x1.41f2663664e1bp+0", "0x1.4d7d7359b789dp+1", "0x1.f70ef98b21f14p+1"),
    (4, 2): ("0x1.82bb77af8677fp+1", "0x1.aa2d1d2ff491dp+5", "0x1.4ac9781e17a23p+6"),
    (4, 3): ("0x1.49e8349f13b04p-1", "0x1.1af7d189b35efp+1", "0x1.f9e8429cae09dp+2"),
    (4, 4): ("0x1.a73f421095540p+0", "0x1.a7d4cef175456p+4", "0x1.35271f51b1a96p+6"),
    (5, 1): ("0x1.efc060370b624p+1", "0x1.5cb5ccd713b20p+6", "0x1.1041883e0380ap+7"),
    (5, 2): ("0x1.79a7ecb95e8eap+0", "0x1.a3485da1fd0b2p+2", "0x1.11f9a60fd2dafp+5"),
    (5, 3): ("0x1.9211c51025f8fp+0", "0x1.1f578148871bcp+3", "0x1.a3d5618c59917p+4"),
    (5, 4): ("0x1.614489194291ep+0", "0x1.ce96b36a9ad88p+3", "0x1.d3d3192ba1e80p+5"),
    (5, 5): ("0x1.5e90e35009b10p+0", "0x1.6536a692dddf8p+4", "0x1.aebc693852cedp+6"),
}
# relative_entropy and log_derivative_form at a rank-3 reference in d = 4,
# whose kernel the state does not reach
KERNEL_PINS = ("0x1.0c5b71898f606p-3", "0x1.88ffe4dcf8a94p-3")


def test_sandwich_values_are_pinned_bit_for_bit():
    # a full-rank reference skips the kernel split; a trim on either path must
    # keep every rounding
    for (d, rank), pins in SANDWICH_PINS.items():
        rho = random_density_matrix(d, rank, (0, rank - 1, 0))
        tau = random_density_matrix(d, d, (0, rank - 1, 1))
        values = (
            relative_entropy(rho, tau).value,
            log_derivative_form(tau, rho - tau),
            dominance_constant(rho, tau),
        )
        assert tuple(v.hex() for v in values) == pins, (d, rank)
    tau = random_density_matrix(4, 3, (0, 4, 1))
    assert hermitian_eig(tau).values[0] <= KERNEL_THRESHOLD
    rho = tau @ random_density_matrix(4, 4, (0, 4, 0)) @ tau
    rho /= np.trace(rho).real
    values = (relative_entropy(rho, tau).value, log_derivative_form(tau, rho - tau))
    assert tuple(v.hex() for v in values) == KERNEL_PINS


class TestIntegralRepresentation:
    def test_equal_states(self):
        tau = full_rank_state(2, 24)
        assert abs(relative_entropy_via_integral(tau, tau)) < 1e-10

    def test_matches_eigenbasis_value(self):
        for trial in range(10):
            rho = full_rank_state(2, (25, trial))
            tau = full_rank_state(2, (26, trial))
            a = relative_entropy_via_integral(rho, tau)
            b = relative_entropy(rho, tau).value
            assert abs(a - b) < 1e-6

    def test_commuting_matches_classical_kl(self):
        p = np.array([0.6, 0.3, 0.1])
        q = np.array([0.2, 0.5, 0.3])
        kl = float(np.sum(p * np.log(p / q)))
        val = relative_entropy_via_integral(np.diag(p), np.diag(q))
        assert abs(val - kl) < 1e-8

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            relative_entropy_via_integral(np.diag([1.0, 0.0]), np.eye(2) / 2)


class TestMutualInformation:
    def test_noiseless_maximally_mixed(self):
        for d in (2, 3):
            val = mutual_information(identity_channel(d), np.eye(d) / d)
            assert abs(val - 2 * math.log(d)) < 1e-10

    def test_pure_input_gives_zero(self):
        chan = random_channel(2, 3, seed=27)
        v = random_pure_state(2, 28)
        assert abs(mutual_information(chan, np.outer(v, v.conj()))) < 1e-8

    def test_depolarizing_matches_eigenvalue_oracle(self):
        p = 0.3
        eigs = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
        oracle = 2 * math.log(2) + sum(x * math.log(x) for x in eigs)
        val = mutual_information(depolarizing_channel(2, p), np.eye(2) / 2)
        assert abs(val - oracle) < 1e-10

    def test_entropy_identity(self):
        chan = random_channel(3, 2, seed=29)
        rho = random_density_matrix(3, 3, 30)
        psi = purify(rho).reshape(-1)
        joint = chan.apply_extended(np.outer(psi, psi.conj()))
        marg_left = partial_trace(np.outer(psi, psi.conj()), 0, (3, 3))
        identity_form = (
            von_neumann_entropy(marg_left)
            + von_neumann_entropy(chan.apply(rho))
            - von_neumann_entropy(joint)
        )
        assert abs(mutual_information(chan, rho) - identity_form) < 1e-8

    def test_matches_purification_form(self):
        # full rank, rank one, and (for qutrits) rank two inputs
        worst = 0.0
        for trial in range(12):
            d_in, d_out = [(2, 2), (2, 3), (3, 2), (3, 3)][trial % 4]
            chan = random_channel(d_in, d_out, seed=(39, trial))
            for rank in range(1, d_in + 1):
                rho = random_density_matrix(d_in, rank, (40, trial, rank))
                oracle = mutual_information_via_purification(chan, rho)
                worst = max(worst, abs(mutual_information(chan, rho) - oracle))
        assert worst <= 1e-10

    def test_concave_in_input(self):
        chan = random_channel(2, 2, seed=31)
        r1 = random_density_matrix(2, 2, 32)
        r2 = random_density_matrix(2, 2, 33)
        for a in (0.25, 0.5, 0.75):
            mixed = mutual_information(chan, a * r1 + (1 - a) * r2)
            parts = a * mutual_information(chan, r1) + (1 - a) * mutual_information(chan, r2)
            assert mixed >= parts - 1e-8


class TestDonald:
    def test_single_state(self):
        rho = random_density_matrix(2, 2, 34)
        sigma = full_rank_state(2, 35)
        assert donald_residual([1.0], [rho], sigma) < 1e-12

    def test_random_ensembles(self):
        for trial in range(50):
            states = [random_density_matrix(2, 2, (36, trial, i)) for i in range(4)]
            w = np.abs(np.sin(np.arange(1, 5) * (trial + 1)))
            w = w / w.sum()
            sigma = full_rank_state(2, (37, trial))
            assert donald_residual(w, states, sigma) <= 1e-9

    def test_sigma_equal_to_average(self):
        states = [random_density_matrix(3, 3, (38, i)) for i in range(3)]
        w = np.array([0.5, 0.3, 0.2])
        avg = sum(wi * s for wi, s in zip(w, states))
        assert donald_residual(w, states, avg) <= 1e-10
