import json

import numpy as np
import pytest

from chancap import (
    QuantumChannel,
    channel_from_json,
    channel_to_json,
    depolarizing_channel,
    identity_channel,
    kraus_from_choi,
    random_channel,
    random_density_matrix,
    random_pure_state,
)
from chancap.channels import depolarizing_cp_limit
from chancap.linalg import check_density_matrix, partial_trace, tensor_product
from oracles import choi_state, replacement_channel


def bell_state(d=2):
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1 / np.sqrt(d)
    return v


def extended_kraus_oracle(channel, rho):
    """Direct computation of (id (x) T) rho with explicitly built I (x) K_j."""
    d = channel.d_in
    out = np.zeros((d * channel.d_out,) * 2, dtype=complex)
    for k in channel.kraus:
        ext = np.kron(np.eye(d), k)
        out += ext @ rho @ ext.conj().T
    return out


class TestApply:
    def test_identity(self):
        rho = random_density_matrix(3, 3, 0)
        np.testing.assert_allclose(identity_channel(3).apply(rho), rho, atol=1e-12)

    def test_fully_depolarizing(self):
        chan = depolarizing_channel(2, 1.0)
        for seed in range(3):
            rho = random_density_matrix(2, 2, (1, seed))
            np.testing.assert_allclose(chan.apply(rho), np.eye(2) / 2, atol=1e-12)

    def test_output_is_state(self):
        chan = random_channel(3, 2, seed=5)
        rho = random_density_matrix(3, 3, 6)
        check_density_matrix(chan.apply(rho))

    def test_linearity(self):
        chan = random_channel(2, 3, seed=7)
        for a in (0.25, 0.5, 0.75):
            r1 = random_density_matrix(2, 2, 8)
            r2 = random_density_matrix(2, 1, 9)
            lhs = chan.apply(a * r1 + (1 - a) * r2)
            rhs = a * chan.apply(r1) + (1 - a) * chan.apply(r2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            identity_channel(2).apply(np.eye(3) / 3)

    def test_zero_dimension_is_rejected(self):
        for shape in ((1, 2, 0), (1, 0, 2), (0, 2, 2)):
            with pytest.raises(ValueError, match="nonempty stack"):
                QuantumChannel(np.zeros(shape))

    def test_stacks_match_per_matrix_calls(self):
        # both actions take a stack (..., d_in, d_in) and act on each matrix as
        # a single call would, to the last bit; both name a wrong trailing
        # shape (apply_complementary once met it with a bare matmul error)
        for din in range(1, 5):
            for dout in range(1, 4):
                chan = random_channel(din, dout, seed=(95, din, dout))
                g = np.random.default_rng((96, din, dout))
                shape = (2, 3, din, din)
                stack = g.standard_normal(shape) + 1j * g.standard_normal(shape)
                for act in (chan.apply, chan.apply_complementary):
                    got = act(stack)
                    for idx in np.ndindex(2, 3):
                        np.testing.assert_array_equal(got[idx], act(stack[idx]))
                    for wrong in [(din,), (din, din + 1), (din + 1, din + 1), (3, din + 1, din)]:
                        with pytest.raises(ValueError, match="does not match input dimension"):
                            act(np.zeros(wrong))


class TestApplyExtended:
    def test_product_input_factorizes(self):
        chan = random_channel(2, 2, seed=11)
        ra = random_density_matrix(2, 2, 12)
        rb = random_density_matrix(2, 1, 13)
        joint = chan.apply_extended(tensor_product(ra, rb))
        np.testing.assert_allclose(joint, tensor_product(ra, chan.apply(rb)), atol=1e-12)

    def test_identity_preserves_entangled_input(self):
        rho = np.outer(bell_state(), bell_state().conj())
        np.testing.assert_allclose(identity_channel(2).apply_extended(rho), rho, atol=1e-12)

    def test_depolarizing_spectrum(self):
        # direct Kraus computation oracle for the maximally entangled input
        p = 0.6
        chan = depolarizing_channel(2, p)
        rho = np.outer(bell_state(), bell_state().conj())
        out = chan.apply_extended(rho)
        np.testing.assert_allclose(out, extended_kraus_oracle(chan, rho), atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(out))
        np.testing.assert_allclose(eigs, [p / 4, p / 4, p / 4, 1 - 3 * p / 4], atol=1e-10)

    def test_marginal_consistency(self):
        chan = random_channel(3, 2, seed=14)
        v = random_pure_state(9, 15)
        rho = np.outer(v, v.conj())
        joint = chan.apply_extended(rho)
        marg = partial_trace(joint, 1, (3, 2))
        np.testing.assert_allclose(marg, chan.apply(partial_trace(rho, 1, (3, 3))), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            identity_channel(2).apply_extended(np.eye(6) / 6)


class TestReplacementChannel:
    def test_constant_output(self):
        chan = replacement_channel(np.eye(2) / 2, 2)
        for seed in range(3):
            rho = random_density_matrix(2, 2, (16, seed))
            np.testing.assert_allclose(chan.apply(rho), np.eye(2) / 2, atol=1e-12)

    def test_trace_preserving(self):
        sigma = random_density_matrix(3, 2, 17)
        chan = replacement_channel(sigma, 2)
        gram = sum(k.conj().T @ k for k in chan.kraus)
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_extended_action_gives_left_marginal_product(self):
        sigma = random_density_matrix(2, 2, 18)
        chan = replacement_channel(sigma, 2)
        rho = np.outer(bell_state(), bell_state().conj())
        joint = chan.apply_extended(rho)
        np.testing.assert_allclose(joint, extended_kraus_oracle(chan, rho), atol=1e-12)
        np.testing.assert_allclose(joint, tensor_product(np.eye(2) / 2, sigma), atol=1e-10)

    def test_extended_action_random_input(self):
        sigma = random_density_matrix(2, 2, 19)
        chan = replacement_channel(sigma, 2)
        v = random_pure_state(4, 20)
        rho = np.outer(v, v.conj())
        left = partial_trace(rho, 0, (2, 2))
        np.testing.assert_allclose(
            chan.apply_extended(rho), tensor_product(left, sigma), atol=1e-10
        )


def depolarizing_choi(d, p):
    """Closed-form normalized Choi state (1 - p) Omega Omega^dagger + (p/d^2) I."""
    omega = bell_state(d)
    return (1.0 - p) * np.outer(omega, omega.conj()) + (p / d**2) * np.eye(d * d)


DEPOLARIZING_CASES = [
    (d, p) for d in (2, 3, 4, 5) for p in (0.0, 0.3, 0.999, 1.0, depolarizing_cp_limit(d))
]


class TestDepolarizing:
    def test_kraus_operators_are_weighted_unitaries(self):
        # the map is a mixture of the Weyl unitaries, so K^dagger K is c I
        for d, p in DEPOLARIZING_CASES:
            k = depolarizing_channel(d, p).kraus
            gram = k.conj().swapaxes(1, 2) @ k
            scale = np.trace(gram, axis1=1, axis2=2).real / d
            assert np.max(np.abs(gram - scale[:, None, None] * np.eye(d))) <= 1e-15, (d, p)

    def test_choi_state_is_the_closed_form(self):
        for d, p in DEPOLARIZING_CASES:
            dev = np.max(np.abs(choi_state(depolarizing_channel(d, p)) - depolarizing_choi(d, p)))
            assert dev <= 1e-15, (d, p)

    def test_kraus_counts(self):
        # the identity weight 1 - p + p/d^2 vanishes at the edge of complete
        # positivity and goes slightly negative within the slack above it
        for d in (2, 3, 4, 5):
            edge = depolarizing_cp_limit(d)
            for p, count in (
                (0.0, 1), (0.3, d * d), (0.999, d * d), (1.0, d * d),
                (edge, d * d - 1), (edge + 5e-13, d * d - 1),
            ):
                assert len(depolarizing_channel(d, p).kraus) == count, (d, p)

    def test_unitary_covariance(self):
        for d, p in DEPOLARIZING_CASES:
            chan = depolarizing_channel(d, p)
            u = random_channel(d, d, kraus_count=1, seed=(27, d)).kraus[0]  # Haar-random
            rho = random_density_matrix(d, d, (28, d))
            dev = chan.apply(u @ rho @ u.conj().T) - u @ chan.apply(rho) @ u.conj().T
            assert np.max(np.abs(dev)) <= 1e-14, (d, p)

    def test_acts_as_the_choi_eigendecomposition(self):
        # oracle: the Kraus family read off the eigenvectors of the Choi state
        for d, p in DEPOLARIZING_CASES:
            oracle = kraus_from_choi(depolarizing_choi(d, p), d, d)
            rho = random_density_matrix(d, d, (29, d))
            dev = depolarizing_channel(d, p).apply(rho) - oracle.apply(rho)
            assert np.max(np.abs(dev)) <= 1e-14, (d, p)

    def test_builds_without_an_eigensolver(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def counted(*args, _name=name, _solver=solver, **kwargs):
                calls.append(_name)
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        for d, p in DEPOLARIZING_CASES:
            depolarizing_channel(d, p)
        assert calls == []

    def test_p_zero_is_identity_on_basis(self):
        chan = depolarizing_channel(3, 0.0)
        for i in range(3):
            rho = np.zeros((3, 3), dtype=complex)
            rho[i, i] = 1.0
            np.testing.assert_allclose(chan.apply(rho), rho, atol=1e-12)

    def test_boundary_choi_eigenvalue(self):
        chan = depolarizing_channel(2, 4.0 / 3.0)
        lam_min = float(np.linalg.eigvalsh(choi_state(chan))[0])
        assert abs(lam_min) <= 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            depolarizing_channel(2, 1.5)
        with pytest.raises(ValueError):
            depolarizing_channel(2, -0.1)
        # general-d boundary: d^2/(d^2-1)
        depolarizing_channel(3, 9.0 / 8.0)
        with pytest.raises(ValueError):
            depolarizing_channel(3, 9.0 / 8.0 + 1e-6)


class TestRandomChannel:
    def test_single_kraus_is_unitary(self):
        chan = random_channel(3, 3, kraus_count=1, seed=21)
        k = chan.kraus[0]
        np.testing.assert_allclose(k.conj().T @ k, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(k @ k.conj().T, np.eye(3), atol=1e-10)
        # with dout < din one Kraus operator cannot be an isometry; the error
        # names the three numbers
        with pytest.raises(ValueError, match=r"kraus=1, din=3, dout=2"):
            random_channel(3, 2, kraus_count=1)

    def test_trace_preserving_many_samples(self):
        worst = 0.0
        for seed in range(1000):
            d_in = 2 + seed % 2
            chan = random_channel(d_in, 2, seed=(22, seed))
            gram = np.einsum("mij,mik->jk", chan.kraus.conj(), chan.kraus)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(d_in)))))
        assert worst <= 1e-10

    def test_deterministic(self):
        a = random_channel(2, 3, seed=23)
        b = random_channel(2, 3, seed=23)
        np.testing.assert_array_equal(a.kraus, b.kraus)


class TestChoi:
    def test_identity_gives_maximally_entangled(self):
        choi = choi_state(identity_channel(2))
        v = bell_state()
        np.testing.assert_allclose(choi, np.outer(v, v.conj()), atol=1e-12)

    def test_constant_channel_gives_maximally_mixed(self):
        choi = choi_state(depolarizing_channel(2, 1.0))
        np.testing.assert_allclose(choi, np.eye(4) / 4, atol=1e-12)

    def test_choi_reconstructs_action(self):
        chan = random_channel(2, 3, seed=24)
        choi = choi_state(chan)
        d = chan.d_in
        for i in range(d):
            for j in range(d):
                basis_op = np.zeros((d, d), dtype=complex)
                basis_op[i, j] = 1.0
                # T(|i><j|) from the Choi blocks
                block = d * choi[i * 3:(i + 1) * 3, j * 3:(j + 1) * 3]
                direct = np.einsum("mbi,ij,mcj->bc", chan.kraus, basis_op, chan.kraus.conj())
                np.testing.assert_allclose(block, direct, atol=1e-10)

    def test_kraus_from_choi_holds_the_choi_state_to_input_tol(self):
        # a Choi state is outside data: deviations of 5e-9 pass, 5e-8 do not
        choi = choi_state(identity_channel(2))
        skew = np.zeros_like(choi)
        skew[0, 1] = 1.0
        for step, message in ((skew, "not Hermitian"), (choi, "trace preserving")):
            kraus_from_choi(choi + 5e-9 * step, 2, 2)
            with pytest.raises(ValueError, match=message):
                kraus_from_choi(choi + 5e-8 * step, 2, 2)

    def test_kraus_from_choi_names_a_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"Choi matrix of shape \(4, 4\) does not match"):
            kraus_from_choi(np.eye(4) / 4, 3, 3)
        with pytest.raises(ValueError, match=r"Choi matrix of shape \(6,\)"):
            kraus_from_choi(np.ones(6) / 6, 2, 3)

    def test_choi_invariants(self):
        chan = random_channel(3, 2, seed=25)
        choi = choi_state(chan)
        assert np.linalg.eigvalsh(choi)[0] >= -1e-10
        # the output marginal of the Choi state is I/d_in: trace preservation
        marg = partial_trace(choi, 0, (chan.d_in, chan.d_out))
        assert np.max(np.abs(marg - np.eye(chan.d_in) / chan.d_in)) <= 1e-9


class TestDominance:
    def test_full_input_dominates_pure_outputs(self):
        for seed in range(50):
            chan = random_channel(2 + seed % 2, 2 + seed % 3, seed=(26, seed))
            full = chan.apply(np.eye(chan.d_in, dtype=complex))
            psi = random_pure_state(chan.d_in, (27, seed))
            out = chan.apply(np.outer(psi, psi.conj()))
            assert np.linalg.eigvalsh(full - out)[0] >= -1e-9


NOT_A_PAIR = r"kraus operator 0 entry \(0,0\) is not a \[re, im\] pair of numbers"


class TestJsonFormat:
    def test_bit_exact_round_trip(self):
        chan = random_channel(2, 3, seed=28)
        text = channel_to_json(chan)
        back = channel_from_json(text)
        assert back.d_in == chan.d_in and back.d_out == chan.d_out
        np.testing.assert_array_equal(back.kraus, chan.kraus)
        # serialize again: identical text
        assert channel_to_json(back) == text

    def test_shape_error_names_expected_dims(self):
        payload = json.loads(channel_to_json(identity_channel(2)))
        payload["kraus"][0] = payload["kraus"][0][:1]
        with pytest.raises(ValueError, match="2x2"):
            channel_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "d_in, d_out, kraus, message",
        [
            ("1", "1", "[[[[1, null]]]]", NOT_A_PAIR),
            ("1", "1", '[[[[1, "a"]]]]', NOT_A_PAIR),
            ("1", "1", "[[[[true, 0]]]]", NOT_A_PAIR),
            ("1", "1", "[[[[1e400, 0]]]]", "non-finite"),
            ("1", "1", "[[[[1" + "0" * 400 + ", 0]]]]", "non-finite"),  # beyond the double range
            ("1", "1", "[1]", "operator 0 has wrong shape"),
            ("1e400", "1", "[[[[1, 0]]]]", "'d_in' must be an integer >= 1"),
            ("0", "1", "[[[[1, 0]]]]", "'d_in' must be an integer >= 1"),
            ("-1", "1", "[[[[1, 0]]]]", "'d_in' must be an integer >= 1"),
            ("1", "0", "[[[[1, 0]]]]", "'d_out' must be an integer >= 1"),
            ("1.9", "1", "[[[[1, 0]]]]", "'d_in' must be an integer >= 1"),
            ("true", "1", "[[[[1, 0]]]]", "'d_in' must be an integer >= 1"),
        ],
    )
    def test_malformed_fields_name_the_fault(self, d_in, d_out, kraus, message):
        text = f'{{"d_in": {d_in}, "d_out": {d_out}, "kraus": {kraus}}}'
        with pytest.raises(ValueError, match=message):
            channel_from_json(text)

    def test_trace_preservation_is_held_to_input_tol(self):
        # a file is outside data: a trace deviation of 5e-9 passes, 5e-8 does not
        payload = json.loads(channel_to_json(identity_channel(2)))
        payload["kraus"][0][0][0] = [float(np.sqrt(1.0 + 5e-9)), 0.0]
        channel_from_json(json.dumps(payload))
        payload["kraus"][0][0][0] = [float(np.sqrt(1.0 + 5e-8)), 0.0]
        with pytest.raises(ValueError, match="trace preserving"):
            channel_from_json(json.dumps(payload))

    def test_missing_field(self):
        with pytest.raises(ValueError):
            channel_from_json('{"d_in": 2}')
        for text in ("[1]", '"abc"', "null", "3"):  # a top level that is not an object
            with pytest.raises(ValueError, match="must be an object with fields d_in, d_out"):
                channel_from_json(text)

    def test_non_trace_preserving_rejected(self):
        kraus = np.eye(2, dtype=complex)[None, :, :] * 0.5
        with pytest.raises(ValueError, match="trace preserving"):
            QuantumChannel(kraus)
        # trace deviation 5e-11 is within VALIDATION_TOL, 2e-10 is not
        QuantumChannel(np.eye(2, dtype=complex)[None, :, :] * np.sqrt(1.0 + 5e-11))
        with pytest.raises(ValueError, match="trace preserving"):
            QuantumChannel(np.eye(2, dtype=complex)[None, :, :] * np.sqrt(1.0 + 2e-10))


def test_input_checks_name_each_fault():
    with pytest.raises(ValueError, match="depolarizing channel needs dimension >= 2"):
        depolarizing_channel(1, 0.5)
    with pytest.raises(ValueError, match="Choi matrix has no positive eigenvalues"):
        kraus_from_choi(np.zeros((4, 4)), 2, 2)
    with pytest.raises(ValueError, match="kraus_count must be >= 1"):
        random_channel(2, 2, kraus_count=0)
    with pytest.raises(ValueError, match="channel JSON field 'kraus' must be a nonempty array"):
        channel_from_json('{"d_in": 1, "d_out": 1, "kraus": []}')
