import math

import numpy as np
import pytest

from cohpure import linalg, majorization
from cohpure.linalg import DomainError, ValidationError, haar_unitary, stream
from cohpure.states import (
    _marginal_entropies,
    Spectrum,
    diagonal,
    from_bloch,
    maximally_mixed,
    mutual_information,
    pure,
    random_density,
    renyi_entropy,
    validate,
    von_neumann,
)


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestValidate:
    def test_accepts_maximally_mixed(self):
        rho = validate(np.eye(2) / 2)
        assert rho.dim == 2

    def test_trace_error_reports_deficit(self):
        with pytest.raises(ValidationError) as err:
            validate(np.diag([0.6, 0.6]))
        assert err.value.invariant == "trace"
        assert abs(err.value.magnitude - 0.2) <= 1e-12

    def test_positivity_error_reports_eigenvalue(self):
        with pytest.raises(ValidationError) as err:
            validate(np.array([[0.5, 0.6], [0.6, 0.5]]))
        assert err.value.invariant == "positivity"
        assert abs(err.value.magnitude - 0.1) <= 1e-12

    def test_hermiticity_error(self):
        with pytest.raises(ValidationError) as err:
            validate(np.array([[0.5, 0.5], [0.0, 0.5]]))
        assert err.value.invariant == "hermiticity"

    def test_keeps_the_eigensystem_it_checked(self):
        # validation decomposes the state once, and the state keeps those
        # bits: a fresh decomposition of its matrix gives the same ones
        rng = stream(31)
        for d, rank in ((1, 1), (3, 2), (5, 5), (8, 3)):
            m = random_density(d, rank, rng).mat
            rho = validate(m + 1e-12 * (m - m.conj().T + 0.5j * np.eye(d)))
            assert rho._eig is not None
            fresh = linalg.hermitian_eig(rho.mat)
            assert np.array_equal(rho.eigensystem.values, fresh.values)
            assert np.array_equal(rho.eigensystem.vectors, fresh.vectors)


class TestConstructors:
    def test_pure_plus(self):
        rho = pure(np.array([1.0, 1.0]) / math.sqrt(2))
        assert np.allclose(rho.mat, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_pure_normalizes(self):
        rho = pure([2.0, 0.0])
        assert np.allclose(rho.mat, np.diag([1.0, 0.0]), atol=1e-12)

    def test_pure_rejects_zero(self):
        with pytest.raises(ValidationError):
            pure([0.0, 0.0])

    def test_maximally_mixed(self):
        rho = maximally_mixed(4)
        assert np.allclose(rho.mat, np.eye(4) / 4)

    def test_diagonal(self):
        rho = diagonal([0.9, 0.1])
        assert np.allclose(rho.mat, np.diag([0.9, 0.1]))
        with pytest.raises(ValidationError):
            diagonal([0.9, 0.2])


class TestBloch:
    def test_poles_and_center(self):
        assert np.allclose(from_bloch((0, 0, 1)).mat, np.diag([1.0, 0.0]))
        assert np.allclose(from_bloch((0, 0, 0)).mat, np.eye(2) / 2)

    def test_equatorial_point(self):
        rho = from_bloch((0.8, 0, 0))
        assert abs(rho.mat[0, 1] - 0.4) <= 1e-12
        vals = np.sort(np.linalg.eigvalsh(rho.mat))
        assert np.allclose(vals, [0.1, 0.9], atol=1e-12)

    def test_rejects_outside_ball(self):
        with pytest.raises(ValidationError):
            from_bloch((0.9, 0.9, 0.9))


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rho = random_density(4, 1, stream(0))
        assert von_neumann(rho) <= 1e-9

    def test_determinism(self):
        a = random_density(3, 3, stream(1))
        b = random_density(3, 3, stream(1))
        assert np.array_equal(a.mat, b.mat)

    def test_exact_requested_rank(self):
        rho = random_density(4, 2, stream(5))
        assert rho.spectrum.rank == 2

    def test_rank_bounds(self):
        with pytest.raises(DomainError):
            random_density(3, 4, stream(0))


class TestEntropies:
    def test_von_neumann_pure(self):
        assert von_neumann(pure([1, 1j])) <= 1e-12

    def test_von_neumann_mixed(self):
        assert abs(von_neumann(maximally_mixed(8)) - 3.0) <= 1e-12

    def test_von_neumann_binary(self):
        assert abs(von_neumann(diagonal([0.9, 0.1])) - binary_entropy(0.9)) <= 1e-12

    def test_renyi_limits(self):
        rho = diagonal([0.9, 0.1])
        assert abs(renyi_entropy(rho, 2.0) + math.log2(0.82)) <= 1e-12
        assert abs(renyi_entropy(rho, 0.0) - 1.0) <= 1e-12
        assert abs(renyi_entropy(rho, math.inf) + math.log2(0.9)) <= 1e-12

    def test_renyi_alpha_one_matches_von_neumann(self):
        rho = random_density(3, 3, stream(2))
        assert abs(renyi_entropy(rho, 1.0) - von_neumann(rho)) <= 1e-12

    def test_renyi_continuity_at_one(self):
        rng = stream(3)
        for _ in range(10):
            rho = random_density(int(rng.integers(2, 5)), 2, rng)
            s = von_neumann(rho)
            assert abs(renyi_entropy(rho, 1.0 + 1e-3) - s) <= 5e-3
            assert abs(renyi_entropy(rho, 1.0 - 1e-3) - s) <= 5e-3

    def test_renyi_nonincreasing_in_alpha(self):
        rng = stream(4)
        grid = [0.0, 0.3, 0.7, 1.0, 1.5, 2.0, 4.0, math.inf]
        for _ in range(20):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            vals = [renyi_entropy(rho, a) for a in grid]
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_renyi_additive_on_products(self):
        rng = stream(5)
        for _ in range(10):
            a = random_density(2, 2, rng)
            b = random_density(3, int(rng.integers(1, 4)), rng)
            prod = validate(linalg.kron(a.mat, b.mat))
            for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
                total = renyi_entropy(prod, alpha)
                assert abs(total - renyi_entropy(a, alpha) - renyi_entropy(b, alpha)) <= 1e-9

    def test_rejects_negative_alpha(self):
        with pytest.raises(DomainError):
            renyi_entropy(maximally_mixed(2), -0.5)


class TestMutualInformation:
    def test_product_state(self):
        rho = validate(linalg.kron(diagonal([0.7, 0.3]).mat, pure([1, 1]).mat))
        assert mutual_information(rho, (2, 2)) <= 1e-9

    def test_bell_state(self):
        bell = pure([1, 0, 0, 1])
        assert abs(mutual_information(bell, (2, 2)) - 2.0) <= 1e-12

    def test_maximally_mixed(self):
        assert mutual_information(maximally_mixed(4), (2, 2)) <= 1e-12

    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (1, 4), (4, 1), (2, 3), (3, 3), (8, 2), (2, 9)])
    def test_stacked_marginal_entropies_match_one_state(self, dims):
        # pure, rank-deficient and product states give marginals with zero
        # eigenvalues, which the stacked entropies must sum as one state does
        rng = stream(32)
        da, db = dims
        d = da * db
        mats = [random_density(d, rank, rng).mat for rank in sorted({1, 2, max(d // 2, 1), d} & set(range(1, d + 1)))]
        mats.append(linalg.kron(random_density(da, 1, rng).mat, random_density(db, db, rng).mat))
        rhos = [validate(m) for m in mats]
        sa, sb = _marginal_entropies(np.stack([rho.mat for rho in rhos]), dims)
        for rho, a, b in zip(rhos, sa, sb, strict=True):
            for h, keep in ((a, 0), (b, 1)):
                marginal = linalg.partial_trace(rho.mat, keep, dims)
                assert h == linalg.entropy_bits(np.clip(np.linalg.eigvalsh(marginal), 0.0, None))
            assert mutual_information(rho, dims) == max(a + b - von_neumann(rho), 0.0)


class TestSpectrum:
    def test_unitary_invariance(self):
        rng = stream(6)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            u = haar_unitary(d, rng)
            rotated = validate(u @ rho.mat @ u.conj().T)
            assert np.max(np.abs(rotated.spectrum.values - rho.spectrum.values)) <= 1e-9

    def test_descending_and_normalized(self):
        spec = random_density(5, 3, stream(8)).spectrum
        assert np.all(np.diff(spec.values) <= 0)
        assert abs(spec.values.sum() - 1.0) <= 1e-12
        assert spec.rank == 3

    def test_schur_concavity_spot_check(self):
        rng = stream(9)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            # averaging over permutations only moves down the majorization order
            w = rng.dirichlet(np.ones(3))
            q = sum(wi * rng.permutation(p) for wi in w)
            assert majorization.majorizes(p, q)
            for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
                sp = renyi_entropy(diagonal(p), alpha)
                sq = renyi_entropy(diagonal(np.sort(q)[::-1]), alpha)
                assert sp <= sq + 1e-9
