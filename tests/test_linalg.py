import math

import numpy as np
import pytest

from cohpure import linalg
from cohpure.linalg import (
    DomainError,
    ValidationError,
    fidelity,
    haar_unitary,
    hermitian_eig,
    kron,
    mat_func,
    mat_sqrt,
    partial_trace,
    partial_transpose,
    rel_entropy,
    renyi_divergence,
    sandwiched_renyi,
    schatten_norm,
    split,
    stream,
    trace_norm,
)
from cohpure.states import pure

X = np.array([[0, 1], [1, 0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5
I2 = np.eye(2, dtype=complex) / 2
I4 = np.eye(4, dtype=complex) / 4


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestHermitianEig:
    def test_pauli_x(self):
        es = hermitian_eig(X)
        assert np.allclose(es.values, [-1.0, 1.0], atol=1e-12)

    def test_identity_phase_convention(self):
        es = hermitian_eig(np.eye(3, dtype=complex))
        assert np.allclose(es.values, [1, 1, 1])
        assert np.allclose(es.vectors, np.eye(3), atol=1e-12)

    def test_seeded_reconstruction(self):
        h = random_hermitian(5, stream(42))
        es = hermitian_eig(h)
        recon = (es.vectors * es.values) @ es.vectors.conj().T
        assert np.max(np.abs(recon - h)) <= 1e-9

    def test_invariants_on_seeded_matrices(self):
        rng = stream(7)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            h = random_hermitian(d, rng)
            es = hermitian_eig(h)
            gram = es.vectors.conj().T @ es.vectors
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-10
            recon = (es.vectors * es.values) @ es.vectors.conj().T
            assert np.max(np.abs(recon - h)) <= 1e-9
            assert np.all(np.diff(es.values) >= -1e-12)
            # trace identity
            assert abs(es.values.sum() - np.trace(h).real) <= 1e-9

    def test_deterministic_phases(self):
        h = random_hermitian(4, stream(3))
        a = hermitian_eig(h)
        b = hermitian_eig(h.copy())
        assert np.array_equal(a.vectors, b.vectors)
        for k in range(4):
            col = a.vectors[:, k]
            lead = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
            assert lead.imag == 0.0 and lead.real >= 0.0

    def test_phase_fix_matches_column_loop(self):
        # the column-by-column phase fix that the vectorized one replaced
        def loop(vectors):
            v = vectors.copy()
            for k in range(v.shape[1]):
                col = v[:, k]
                idx = np.flatnonzero(np.abs(col) > linalg.PHASE_TOL)
                if idx.size:
                    pivot = col[idx[0]]
                    col *= np.conj(pivot) / abs(pivot)
                    col[idx[0]] = col[idx[0]].real
            return v

        rng = stream(12)
        for d in range(1, 65):
            h = random_hermitian(d, rng)
            # a zero-padded block puts the pivots of some columns below row 0
            h[: d // 2, d // 2 :] = 0.0
            h[d // 2 :, : d // 2] = 0.0
            for m in (random_hermitian(d, rng), h, np.diag(rng.standard_normal(d)).astype(complex)):
                vectors = np.linalg.eigh(m)[1]
                assert np.array_equal(linalg._fix_phases(vectors), loop(vectors))

    def test_rejects_non_square_and_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestMatFunc:
    def test_sqrt_diagonal(self):
        out = mat_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_square_of_pauli_x(self):
        out = mat_func(X, lambda x: x * x)
        assert np.allclose(out, np.eye(2), atol=1e-12)

    def test_trace_of_sqrt(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        expected = math.sqrt(0.9) + math.sqrt(0.1)  # independent scalar oracle
        assert abs(np.trace(mat_sqrt(rho)).real - expected) <= 1e-12

    def test_sqrt_rejects_negative(self):
        with pytest.raises(DomainError):
            mat_sqrt(np.diag([0.5, -0.5]).astype(complex))

    def test_clips_round_off_negatives(self):
        out = mat_sqrt(np.diag([1.0, -5e-11]).astype(complex))
        assert out[1, 1] == 0.0

    def test_fractional_power_of_pure_projector(self):
        # P^a = P: the eigensolver's dust eigenvalue must not leak in
        proj = pure([1, 0.3 + 0.2j]).mat
        assert np.max(np.abs(linalg.mat_power(proj, 0.2) - proj)) <= 1e-12


class TestSchattenNorm:
    def test_trace_norm_of_sign_matrix(self):
        assert abs(schatten_norm(np.diag([1.0, -1.0]), 1) - 2.0) <= 1e-12

    def test_euclidean(self):
        assert abs(schatten_norm(np.diag([3.0, 4.0]), 2) - 5.0) <= 1e-12

    def test_bell_minus_mixed(self):
        # eigenvalues of the difference are {3/4, -1/4, -1/4, -1/4}
        assert abs(schatten_norm(BELL - I4, 1) - 1.5) <= 1e-12

    def test_infinity_norm(self):
        assert abs(schatten_norm(np.diag([3.0, -7.0]), math.inf) - 7.0) <= 1e-12

    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            schatten_norm(X, 0.5)

    def test_huge_order_is_the_operator_norm(self):
        # every singular value below 1 underflows at p = 1e308
        a = random_hermitian(3, stream(13)) / 10.0
        top = float(np.abs(np.linalg.eigvalsh(a)).max())
        assert top < 1.0
        assert abs(schatten_norm(a, 1e308) - top) <= 1e-12
        assert abs(schatten_norm(a * 20.0, 1e308) - 20.0 * top) <= 1e-12

    def test_norm_axioms_on_seeded_pairs(self):
        rng = stream(11)
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, math.inf]))
            na, nb, nab = schatten_norm(a, p), schatten_norm(b, p), schatten_norm(a + b, p)
            assert nab <= na + nb + 1e-9
            c = complex(rng.standard_normal(), rng.standard_normal())
            assert abs(schatten_norm(c * a, p) - abs(c) * na) <= 1e-9


class TestFidelity:
    def test_self_fidelity(self):
        rng = stream(5)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-10

    def test_orthogonal_pure_states(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert fidelity(zero, one) <= 1e-12

    def test_against_scalar_oracle(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        # F(rho, 1/2) = (Tr sqrt(rho))^2 / 2 = 1.6 / 2
        assert abs(fidelity(rho, I2) - 0.8) <= 1e-12

    def test_symmetry_and_unitary_invariance(self):
        rng = stream(13)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            a = _random_state(d, rng)
            b = _random_state(d, rng)
            assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-9
            u = haar_unitary(d, rng)
            assert abs(fidelity(u @ a @ u.conj().T, u @ b @ u.conj().T) - fidelity(a, b)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity(I2, I4)


def _random_state(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestRelEntropy:
    def test_self_divergence(self):
        rho = _random_state(3, stream(2))
        assert rel_entropy(rho, rho) <= 1e-10

    def test_plus_state_against_mixed(self):
        assert abs(rel_entropy(PLUS, I2) - 1.0) <= 1e-10

    def test_disjoint_supports(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert rel_entropy(zero, one) == math.inf

    def test_contractive_under_random_dephasing(self):
        rng = stream(17)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            rho, sigma = _random_state(d, rng), _random_state(d, rng)
            u = haar_unitary(d, rng)

            def deph(m):
                rot = u.conj().T @ m @ u
                return u @ np.diag(np.diagonal(rot)) @ u.conj().T

            assert rel_entropy(deph(rho), deph(sigma)) <= rel_entropy(rho, sigma) + 1e-9


class TestRenyiDivergences:
    def test_self_divergence(self):
        rho = _random_state(2, stream(4))
        assert abs(renyi_divergence(rho, rho, 0.5)) <= 1e-10

    def test_collision_divergence_to_mixed(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        assert abs(renyi_divergence(rho, I2, 2.0) - math.log2(2 * 0.82)) <= 1e-12

    def test_sandwiched_identity_to_mixed(self):
        # D_alpha^q(rho || 1/d) = log2(d) - S_alpha(rho)
        rho = _random_state(2, stream(12))
        lam = np.linalg.eigvalsh(rho)
        s3 = math.log2(float(np.sum(lam**3))) / (1 - 3)
        assert abs(sandwiched_renyi(rho, I2, 3.0) - (1.0 - s3)) <= 1e-9

    def test_alpha_one_routes_to_rel_entropy(self):
        rho, sigma = _random_state(2, stream(6)), _random_state(2, stream(7))
        assert renyi_divergence(rho, sigma, 1.0) == rel_entropy(rho, sigma)
        assert sandwiched_renyi(rho, sigma, 1.0) == rel_entropy(rho, sigma)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            renyi_divergence(I2, I2, 2.5)
        with pytest.raises(DomainError):
            renyi_divergence(I2, I2, 0.0)
        with pytest.raises(DomainError):
            sandwiched_renyi(I2, I2, 0.3)

    def test_support_sentinels(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert renyi_divergence(zero, one, 0.5) == math.inf
        assert renyi_divergence(zero, one, 2.0) == math.inf
        assert sandwiched_renyi(zero, one, 2.0) == math.inf


class TestTensorOps:
    def test_kron_index_convention(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([3.0, 4.0]).astype(complex)
        assert np.allclose(np.diagonal(kron(a, b)), [3, 4, 6, 8])

    def test_bell_marginals(self):
        assert np.allclose(partial_trace(BELL, 0, (2, 2)), I2, atol=1e-12)
        assert np.allclose(partial_trace(BELL, 1, (2, 2)), I2, atol=1e-12)

    def test_partial_transpose_involution(self):
        rho = _random_state(6, stream(8))
        twice = partial_transpose(partial_transpose(rho, 0, (2, 3)), 0, (2, 3))
        assert np.max(np.abs(twice - rho)) <= 1e-14

    def test_bell_partial_transpose_spectrum(self):
        vals = np.sort(np.linalg.eigvalsh(partial_transpose(BELL, 0, (2, 2))))
        assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            partial_trace(BELL, 0, (3, 2))


class TestEntropyBits:
    def test_rows_match_one_distribution(self):
        # from 8 terms up numpy sums pairwise, so a row with zero terms
        # must still sum its nonzero terms as a lone distribution does
        rng = stream(24)
        for d in range(1, 20):
            P = rng.dirichlet(np.ones(d), size=7)
            P[rng.random(P.shape) < 0.3] = 0.0
            P[0] = np.eye(d)[0]
            rows = linalg.entropy_bits(P)
            assert rows.shape == (7,)
            for p, h in zip(P, rows):
                assert h == linalg.entropy_bits(p)


class TestHaarUnitary:
    def test_unitarity(self):
        rng = stream(1)
        for d in (1, 2, 3, 5, 8):
            u = haar_unitary(d, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10

    def test_scalar_case(self):
        u = haar_unitary(1, stream(2))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_seed_determinism(self):
        a = haar_unitary(3, stream(7))
        b = haar_unitary(3, stream(7))
        assert np.array_equal(a, b)

    def test_left_invariance_statistics(self):
        # |tr U|^2 averages to 1 under the Haar measure, with or without a
        # fixed left factor; coarse statistical check only
        rng = stream(23)
        v = haar_unitary(3, rng)
        plain, shifted = [], []
        for _ in range(2000):
            u = haar_unitary(3, rng)
            plain.append(abs(np.trace(u)) ** 2)
            shifted.append(abs(np.trace(v @ u)) ** 2)
        assert abs(np.mean(plain) - 1.0) <= 0.15
        assert abs(np.mean(shifted) - 1.0) <= 0.15


class TestRandomStream:
    def test_identical_seeds(self):
        a, b = stream(99), stream(99)
        assert np.array_equal(a.random(10), b.random(10))

    def test_split_determinism_and_independence(self):
        kids_a = split(stream(5), 3)
        kids_b = split(stream(5), 3)
        draws_a = [k.random(4).tolist() for k in kids_a]
        draws_b = [k.random(4).tolist() for k in kids_b]
        assert draws_a == draws_b
        assert draws_a[0] != draws_a[1]
