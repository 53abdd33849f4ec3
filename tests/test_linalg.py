import numpy as np
import pytest

from chancap import (
    dominance_constant,
    hermitian_eig,
    is_psd,
    log_derivative_form,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    relative_entropy,
    schmidt_decompose,
    tensor_product,
)
from chancap.linalg import check_density_matrix, log_divided_differences
from oracles import log_divided_differences_in_decimal


def kron_oracle(a, b):
    """Direct four-index definition of the Kronecker product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m, keep, dims):
    """Explicit double-loop index summation."""
    d1, d2 = dims
    if keep == 0:
        out = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for j in range(d1):
                for k in range(d2):
                    out[i, j] += m[i * d2 + k, j * d2 + k]
    else:
        out = np.zeros((d2, d2), dtype=complex)
        for i in range(d2):
            for j in range(d2):
                for k in range(d1):
                    out[i, j] += m[k * d2 + i, k * d2 + j]
    return out


class TestTensorProduct:
    def test_identity(self):
        np.testing.assert_array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_projectors(self):
        p = np.diag([1.0, 0.0])
        np.testing.assert_array_equal(tensor_product(p, p), np.diag([1.0, 0, 0, 0]))

    def test_matches_four_index_oracle(self):
        for seed in range(5):
            a = random_density_matrix(2, 2, (10, seed))
            b = random_density_matrix(2, 2, (11, seed))
            np.testing.assert_allclose(tensor_product(a, b), kron_oracle(a, b), atol=1e-14)


class TestPartialTrace:
    def test_product_state(self):
        rho = random_density_matrix(2, 2, 0)
        sigma = random_density_matrix(3, 3, 1)
        joint = tensor_product(rho, sigma)
        np.testing.assert_allclose(partial_trace(joint, 0, (2, 3)), rho, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, 1, (2, 3)), sigma, atol=1e-12)

    def test_maximally_entangled_marginals(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        for keep in (0, 1):
            np.testing.assert_allclose(partial_trace(rho, keep, (2, 2)), np.eye(2) / 2, atol=1e-12)

    def test_matches_index_sum_oracle(self):
        m = random_density_matrix(4, 4, 5)
        for keep in (0, 1):
            np.testing.assert_allclose(
                partial_trace(m, keep, (2, 2)), partial_trace_oracle(m, keep, (2, 2)), atol=1e-13
            )

    def test_preserves_trace(self):
        m = random_density_matrix(6, 6, 2)
        for keep in (0, 1):
            assert abs(np.trace(partial_trace(m, keep, (2, 3))) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 0, (2, 2))

    def test_tensor_consistency_many_pairs(self):
        # Tr_B(rho (x) sigma) = rho exactly for many random pairs
        worst = 0.0
        for trial in range(1000):
            da, db = 2 + trial % 2, 2 + (trial // 2) % 2
            rho = random_density_matrix(da, 1 + trial % da, (20, trial))
            sig = random_density_matrix(db, 1 + trial % db, (21, trial))
            back = partial_trace(tensor_product(rho, sig), 0, (da, db))
            worst = max(worst, float(np.max(np.abs(back - rho))))
        assert worst <= 1e-12


class TestHermitianEig:
    def test_diagonal(self):
        w, v = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
        assert v.shape == (3, 3)

    def test_identity(self):
        w, _ = hermitian_eig(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4))

    def test_residual_and_reconstruction(self):
        m = 3 * random_density_matrix(5, 5, 7)
        w, v = hermitian_eig(m)
        for k in range(5):
            assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-10
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-10)

    def test_is_eigh_of_the_symmetrized_input_bit_for_bit(self):
        # full-rank references as the sandwich checks draw them, d = 2..5
        for trial in range(200):
            dim = 2 + trial % 4
            tau = random_density_matrix(dim, dim, (24, trial))
            w, v = hermitian_eig(tau)
            w_ref, v_ref = np.linalg.eigh((tau + tau.conj().T) / 2.0)
            assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref), trial

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermiticity_is_held_to_input_tol(self):
        # a deviation of 5e-9 is within INPUT_TOL, 5e-8 is not
        hermitian_eig(np.array([[1.0, 5e-9], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(np.array([[1.0, 5e-8], [0.0, 1.0]]))

    def test_non_square_shape_is_named(self):
        # numpy's broadcasting and LinAlgError messages used to surface here
        for m in (np.ones(3), np.ones((2, 3)) / 6, np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match=r"matrix must be square, got shape"):
                hermitian_eig(m)
        with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 3\)"):
            relative_entropy(np.ones((2, 3)) / 6, np.ones((2, 3)) / 6)


def divided_difference_spectra(count: int, seed: int):
    """Sorted spectra of d = 2..6 in four kinds, in turn: uniform on [0, 1);
    near ties at ratios 1 + 1e-15 to 1 + 1e-2; magnitudes from 1e-35 to 1;
    and uniform with a zero and an exact tie."""
    g = np.random.default_rng(seed)
    for n in range(count):
        dim, kind = 2 + n % 5, n % 4
        w = g.uniform(0.0, 1.0, dim)
        if kind == 1:
            w[1:] = w[0] * (1.0 + 10.0 ** g.uniform(-15.0, -2.0, dim - 1))
        elif kind == 2:
            w = 10.0 ** g.uniform(-35.0, 0.0, dim)
        elif kind == 3:
            w[0] = 0.0
            w[-1] = w[-2]
        yield np.sort(w)


class TestLogDividedDifferences:
    def test_matches_decimal_oracle_and_is_symmetric(self):
        # one formula for every pair, log1p(gap/min)/gap, has no cancellation
        # at any ratio and is symmetric in the pair; a near/far split at
        # ratio 2 was off by up to 5.4e-15 here and asymmetric on 163 of 400
        worst = 0.0
        for w in divided_difference_spectra(400, 25):
            got = log_divided_differences(w)
            want = log_divided_differences_in_decimal(w)
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
            assert np.array_equal(got, got.T), w
        assert worst <= 1e-15


class TestSchmidt:
    def test_product_vector(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0  # |0> (x) |1>
        sd = schmidt_decompose(v, (2, 2))
        np.testing.assert_allclose(sd.coefficients, [1.0, 0.0], atol=1e-12)

    def test_maximally_entangled(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        sd = schmidt_decompose(v, (2, 2))
        np.testing.assert_allclose(sd.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_reconstruction_random(self):
        for seed in range(20):
            v = random_pure_state(9, (30, seed))
            sd = schmidt_decompose(v, (3, 3))
            assert sd.coefficients[0] >= sd.coefficients[-1] >= 0
            assert abs(np.sum(sd.coefficients**2) - 1.0) < 1e-10
            n = sd.coefficients.size  # sum_k c_k e_k (x) f_k
            recon = np.einsum(
                "k,ak,bk->ab", sd.coefficients, sd.basis_left[:, :n], sd.basis_right[:, :n]
            ).reshape(-1)
            fidelity = abs(np.vdot(recon, v))
            assert fidelity >= 1.0 - 1e-9

    def test_marginal_matches_partial_trace(self):
        v = random_pure_state(6, 3)
        sd = schmidt_decompose(v, (2, 3))
        rho = np.outer(v, v.conj())
        left = sum(
            c**2 * np.outer(sd.basis_left[:, k], sd.basis_left[:, k].conj())
            for k, c in enumerate(sd.coefficients)
        )
        np.testing.assert_allclose(left, partial_trace(rho, 0, (2, 3)), atol=1e-9)

    def test_bases_orthonormal_and_complete(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        sd = schmidt_decompose(v, (2, 2))
        np.testing.assert_allclose(sd.basis_left.conj().T @ sd.basis_left, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(sd.basis_right.conj().T @ sd.basis_right, np.eye(2), atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.ones(4), (2, 2))
        # norm deviation 5e-11 is within VALIDATION_TOL, 5e-10 is not
        v = np.array([1.0, 0.0, 0.0, 0.0])
        schmidt_decompose(v * (1.0 + 5e-11), (2, 2))
        with pytest.raises(ValueError):
            schmidt_decompose(v * (1.0 + 5e-10), (2, 2))


NON_FINITE_ENTRY_POINTS = {
    "hermitian_eig": lambda tau, rho, v: hermitian_eig(tau),
    "relative_entropy": lambda tau, rho, v: relative_entropy(rho, tau),
    "log_derivative_form": lambda tau, rho, v: log_derivative_form(tau, rho - tau),
    "dominance_constant": lambda tau, rho, v: dominance_constant(rho, tau),
    "schmidt_decompose": lambda tau, rho, v: schmidt_decompose(v, (2, 2)),
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_non_finite_inputs_raise_value_error(entry, bad, where):
    # a nan deviation from Hermiticity or from unit norm compares False
    # against any tolerance; the check must still reject it, by name
    tau = random_density_matrix(2, 2, 41)
    rho = random_density_matrix(2, 2, 42)
    v = random_pure_state(4, 43)
    if where == "diagonal":  # the vector takes it in its first entry, else its second
        tau[1, 1] = bad
        v[0] = bad
    else:
        tau[0, 1] = tau[1, 0] = bad
        v[1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite entries"):
        NON_FINITE_ENTRY_POINTS[entry](tau, rho, v)


class TestIsPsd:
    def test_identity(self):
        ok, lam = is_psd(np.eye(2), 1e-10)
        assert ok and abs(lam - 1.0) < 1e-14

    def test_indefinite(self):
        ok, lam = is_psd(np.diag([1.0, -1.0]), 1e-10)
        assert not ok and abs(lam + 1.0) < 1e-14


class TestRandomStates:
    def test_pure_deterministic(self):
        np.testing.assert_array_equal(random_pure_state(4, 42), random_pure_state(4, 42))

    def test_density_deterministic(self):
        np.testing.assert_array_equal(
            random_density_matrix(3, 2, 42), random_density_matrix(3, 2, 42)
        )

    def test_rank_one_is_pure(self):
        rho = random_density_matrix(4, 1, 9)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_full_rank(self):
        for seed in range(10):
            rho = random_density_matrix(4, 4, (40, seed))
            assert np.linalg.eigvalsh(rho)[0] > 1e-14

    def test_generated_states_are_valid(self):
        for seed in range(50):
            dim = 2 + seed % 4
            check_density_matrix(random_density_matrix(dim, 1 + seed % dim, (50, seed)))

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            random_density_matrix(2, 3, 0)


def test_input_checks_name_each_fault():
    with pytest.raises(ValueError, match="keep must be 0 or 1"):
        partial_trace(np.eye(4), keep=2, dims=(2, 2))
    with pytest.raises(ValueError, match="vector length 3 does not match dims 2x2"):
        schmidt_decompose(np.ones(3) / np.sqrt(3.0), (2, 2))
    with pytest.raises(ValueError, match=r"vector is not normalized \(norm 2\.0\)$"):
        schmidt_decompose(np.array([2.0, 0.0, 0.0, 0.0]), (2, 2))
    with pytest.raises(ValueError, match=r"state must be square, got shape \(2, 3\)"):
        check_density_matrix(np.ones((2, 3)) / 2.0)
    with pytest.raises(ValueError, match="state contains non-finite entries"):
        check_density_matrix(np.diag([np.nan, 1.0]))
    with pytest.raises(ValueError, match=r"state trace is 2\.0, expected 1$"):
        check_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="state has negative eigenvalue -5.000e-01"):
        check_density_matrix(np.diag([1.5, -0.5]))
