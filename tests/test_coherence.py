import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohpure
from cohpure.coherence import (
    Channel,
    apply_channel,
    c_alpha,
    c_distance,
    c_geometric,
    c_l1,
    c_max_closed,
    c_rel_entropy,
    dephase,
    fourier_basis,
    mcms,
    mio_channel_from_mixture,
    mio_channel_from_unitary,
    optimal_unitary,
    random_free_channel,
)
from cohpure.linalg import DomainError, ValidationError, haar_unitary, stream
from cohpure.simplex import MENU, grid_minimize
from cohpure.states import diagonal, from_bloch, maximally_mixed, pure, random_density, validate
from cohpure.verify import FAST_OPT


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestDephase:
    def test_plus_state(self):
        assert np.allclose(dephase(pure([1, 1])).mat, np.eye(2) / 2, atol=1e-12)

    def test_diagonal_fixed_point(self):
        rho = diagonal([0.3, 0.7])
        assert np.array_equal(dephase(rho).mat, rho.mat)

    def test_idempotent(self):
        rng = stream(1)
        for _ in range(5):
            rho = random_density(4, 4, rng)
            once = dephase(rho)
            assert np.max(np.abs(dephase(once).mat - once.mat)) <= 1e-14


class TestClosedFormMonotones:
    def test_c_rel_entropy_plus(self):
        assert abs(c_rel_entropy(pure([1, 1])) - 1.0) <= 1e-12

    def test_c_rel_entropy_diagonal(self):
        assert c_rel_entropy(diagonal([0.2, 0.8])) <= 1e-12

    def test_c_rel_entropy_mcms(self):
        rho_max = mcms([0.9, 0.1])
        assert abs(c_rel_entropy(rho_max) - (1.0 - binary_entropy(0.9))) <= 1e-9

    def test_c_l1_maximally_coherent(self):
        for d in (2, 3, 5):
            psi = pure(np.ones(d))
            assert abs(c_l1(psi) - (d - 1)) <= 1e-12

    def test_c_l1_diagonal_and_bloch(self):
        assert c_l1(diagonal([0.4, 0.6])) == 0.0
        assert abs(c_l1(from_bloch((0.8, 0, 0))) - 0.8) <= 1e-12


class TestCDistance:
    @pytest.mark.parametrize("name", MENU)
    def test_diagonal_states_are_free(self, name):
        assert c_distance(diagonal([0.5, 0.3, 0.2]), name, FAST_OPT) <= 1e-9

    def test_trace_norm_bloch(self):
        rho = from_bloch((0.8, 0, 0))
        val = c_distance(rho, "trace_norm", FAST_OPT)
        grid, _ = grid_minimize(rho.mat, "trace_norm", resolution=1e-4)
        assert abs(val - 0.8) <= 1e-6
        assert abs(val - grid) <= 1e-4
        # for qubits the trace-norm coherence matches c_l1
        assert abs(val - c_l1(rho)) <= 1e-6

    def test_fidelity_coherence_of_plus(self):
        val = c_distance(pure([1, 1]), "one_minus_fidelity", FAST_OPT)
        grid, _ = grid_minimize(pure([1, 1]).mat, "one_minus_fidelity", resolution=1e-4)
        assert abs(val - 0.5) <= 1e-9
        assert abs(val - grid) <= 1e-6

    @pytest.mark.parametrize("name", MENU)
    def test_bounded_by_distance_to_mixed(self, name):
        rng = stream(2)
        for _ in range(8):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            assert c_distance(rho, name, FAST_OPT) <= c_max_closed(rho, name) + 1e-9

    def test_full_menu_imports_no_scipy(self):
        # scipy is a test dependency only: its cold import costs more than
        # the rest of a short CLI call. The fidelity's Newton finish runs on
        # both of its states, the dense rank-2 one included
        code = """
import sys
import cohpure
from cohpure.coherence import c_alpha_result, c_distance_result
from cohpure.linalg import stream
from cohpure.simplex import MENU
from cohpure.states import random_density
rho = random_density(4, 4, stream(5))
results = [*(c_distance_result(rho, name) for name in MENU),
           c_distance_result(random_density(4, 2, stream(6)), "one_minus_fidelity"),
           c_alpha_result(rho, 2.0), c_alpha_result(rho, 0.5)]
print([r.method for r in results], [m for m in sys.modules if m.startswith("scipy")])
"""
        paths = [str(Path(cohpure.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        methods = ["closed_form", "newton", "closed_form", "mirror_descent", "mirror_descent", "newton", "closed_form"]
        assert proc.stdout.strip() == f"{methods} []"


class TestCAlpha:
    def test_diagonal_states_are_free(self):
        rho = diagonal([0.6, 0.4])
        assert c_alpha(rho, 0.5, FAST_OPT) <= 1e-9
        assert c_alpha(rho, 2.0, FAST_OPT) <= 1e-9

    def test_plus_state_order_half(self):
        assert abs(c_alpha(pure([1, 1]), 0.5, FAST_OPT) - 1.0) <= 1e-9

    def test_mcms_collision_order_matches_purity(self):
        rho_max = mcms([0.9, 0.1])
        val = c_alpha(rho_max, 2.0, FAST_OPT)
        assert abs(val - math.log2(2 * 0.82)) <= 1e-4

    def test_pure_state_exact_despite_eigenvalue_dust(self):
        # rho^a = rho on a pure state, so C_a = a/(a-1) log2 sum_i p_i^(1/a)
        # with p = diag(rho); clipping eigenvalues only at 0 read 1.3e-4 low at a = 0.2
        rho = pure([1, 0.3 + 0.2j])
        p = np.real(np.diag(rho.mat))
        for a in (0.2, 0.5):
            exact = a / (a - 1) * math.log2(float(np.sum(p ** (1 / a))))
            assert abs(c_alpha(rho, a) - exact) <= 1e-12

    def test_alpha_one_routes_to_rel_entropy(self):
        rho = from_bloch((0.3, 0.4, 0.2))
        assert c_alpha(rho, 1.0) == c_rel_entropy(rho)

    def test_continuity_at_one(self):
        rng = stream(3)
        for _ in range(5):
            rho = random_density(int(rng.integers(2, 4)), 2, rng)
            c1 = c_rel_entropy(rho)
            assert abs(c_alpha(rho, 1.0 + 1e-3, FAST_OPT) - c1) <= 5e-3
            assert abs(c_alpha(rho, 1.0 - 1e-3, FAST_OPT) - c1) <= 5e-3

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            c_alpha(maximally_mixed(2), 0.0)


class TestCGeometric:
    def test_plus_state(self):
        assert abs(c_geometric(pure([1, 1]), FAST_OPT) - 0.5) <= 1e-9

    def test_diagonal(self):
        assert c_geometric(diagonal([0.1, 0.9]), FAST_OPT) <= 1e-9

    def test_qubit_relation_to_l1(self):
        rho = from_bloch((0.8, 0, 0))
        cg = c_geometric(rho, FAST_OPT)
        assert abs(cg - 0.2) <= 1e-4  # (1 - sqrt(1 - 0.64)) / 2
        rng = stream(4)
        for _ in range(10):
            rho = random_density(2, int(rng.integers(1, 3)), rng)
            cg = c_geometric(rho, FAST_OPT)
            assert abs(c_l1(rho) - math.sqrt(max(1 - (1 - 2 * cg) ** 2, 0.0))) <= 1e-4


class TestFourierBasis:
    def test_qubit_columns(self):
        cols = fourier_basis(2).columns
        assert np.allclose(cols[:, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert np.allclose(cols[:, 1], [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_qutrit_moduli(self):
        cols = fourier_basis(3).columns
        assert np.max(np.abs(np.abs(cols) - 1 / math.sqrt(3))) <= 1e-12

    def test_orthonormality(self):
        cols = fourier_basis(4).columns
        assert np.max(np.abs(cols.conj().T @ cols - np.eye(4))) <= 1e-12


class TestMcms:
    def test_uniform_spectrum_is_mixed(self):
        rho = mcms([0.25] * 4)
        assert np.max(np.abs(rho.mat - np.eye(4) / 4)) <= 1e-12
        assert c_rel_entropy(rho) <= 1e-12

    def test_pure_spectrum_gives_plus(self):
        rho = mcms([1.0], 2)
        assert np.allclose(rho.mat, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_binary_spectrum_entries(self):
        rho = mcms([0.9, 0.1])
        assert np.allclose(np.diagonal(rho.mat).real, [0.5, 0.5], atol=1e-12)
        assert abs(abs(rho.mat[0, 1]) - 0.4) <= 1e-12

    def test_spectrum_preserved(self):
        spec = np.array([0.5, 0.3, 0.2])
        rho = mcms(spec)
        assert np.max(np.abs(rho.spectrum.values - spec)) <= 1e-12

    def test_rejects_bad_spectrum(self):
        with pytest.raises(ValidationError):
            mcms([0.7, 0.7], 2)
        with pytest.raises(ValidationError):
            mcms([0.5, 0.3, 0.2], 2)


class TestOptimalUnitary:
    def test_descending_diagonal_gives_fourier(self):
        v = optimal_unitary(diagonal([0.6, 0.4]))
        assert np.max(np.abs(v - fourier_basis(2).columns)) <= 1e-12

    def test_maximally_mixed_invariant(self):
        rho = maximally_mixed(3)
        v = optimal_unitary(rho)
        assert np.max(np.abs(v @ rho.mat @ v.conj().T - rho.mat)) <= 1e-12

    def test_rotates_onto_mcms(self):
        rng = stream(5)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            v = optimal_unitary(rho)
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-9
            rotated = v @ rho.mat @ v.conj().T
            target = mcms(rho.spectrum, d)
            assert np.max(np.abs(rotated - target.mat)) <= 1e-9

    def test_binary_example_value(self):
        rho = diagonal([0.9, 0.1])
        v = optimal_unitary(rho)
        rotated = validate(v @ rho.mat @ v.conj().T)
        assert abs(c_rel_entropy(rotated) - (1.0 - binary_entropy(0.9))) <= 1e-9


class TestMioChannels:
    def test_identity_channel_dephases_to_mixed(self):
        ch = mio_channel_from_unitary(np.eye(3, dtype=complex))
        out = apply_channel(ch, diagonal([1.0, 0.0, 0.0]))
        assert np.max(np.abs(out.mat - np.eye(3) / 3)) <= 1e-9

    def test_reproduces_unitary_on_mcms(self):
        u = haar_unitary(2, stream(3))
        rho_max = mcms([0.9, 0.1])
        out = apply_channel(mio_channel_from_unitary(u), rho_max)
        assert np.max(np.abs(out.mat - u @ rho_max.mat @ u.conj().T)) <= 1e-9

    def test_trace_preservation_residual(self):
        u = haar_unitary(4, stream(4))
        ch = mio_channel_from_unitary(u)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            mio_channel_from_unitary(np.ones((2, 2)))

    def test_mixture_single_unitary_matches(self):
        u = haar_unitary(3, stream(5))
        rho_max = mcms([0.5, 0.3, 0.2])
        a = apply_channel(mio_channel_from_unitary(u), rho_max)
        b = apply_channel(mio_channel_from_mixture([1.0], [u]), rho_max)
        assert np.max(np.abs(a.mat - b.mat)) <= 1e-12

    def test_mixture_action_on_mcms(self):
        rng = stream(5)
        us = [haar_unitary(2, rng), haar_unitary(2, rng)]
        rho_max = mcms([0.9, 0.1])
        ch = mio_channel_from_mixture([0.5, 0.5], us)
        expect = sum(0.5 * (u @ rho_max.mat @ u.conj().T) for u in us)
        assert np.max(np.abs(apply_channel(ch, rho_max).mat - expect)) <= 1e-9

    def test_mixture_on_incoherent(self):
        rng = stream(6)
        us = [haar_unitary(2, rng), haar_unitary(2, rng), haar_unitary(2, rng)]
        ch = mio_channel_from_mixture([0.2, 0.5, 0.3], us)
        out = apply_channel(ch, diagonal([0.3, 0.7]))
        assert np.max(np.abs(out.mat - np.eye(2) / 2)) <= 1e-9

    def test_mixture_rejects_bad_weights(self):
        u = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError):
            mio_channel_from_mixture([0.7, 0.7], [u, u])


class TestApplyChannel:
    def test_identity(self):
        rho = from_bloch((0.1, 0.2, 0.3))
        ch = Channel((np.eye(2, dtype=complex),))
        assert np.max(np.abs(apply_channel(ch, rho).mat - rho.mat)) <= 1e-12

    def test_full_dephasing_kraus(self):
        rho = from_bloch((0.5, 0.2, 0.1))
        ks = tuple(np.diag(row).astype(complex) for row in np.eye(2))
        assert np.max(np.abs(apply_channel(Channel(ks), rho).mat - dephase(rho).mat)) <= 1e-12

    def test_unitary_channel(self):
        u = haar_unitary(2, stream(7))
        rho = from_bloch((0.3, 0.1, 0.4))
        out = apply_channel(Channel((u,)), rho)
        assert np.max(np.abs(out.mat - u @ rho.mat @ u.conj().T)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            apply_channel(Channel((np.eye(2, dtype=complex),)), maximally_mixed(3))


class TestCMaxClosed:
    def test_maximally_mixed_is_zero(self):
        for name in MENU:
            assert c_max_closed(maximally_mixed(3), name) <= 1e-12

    def test_rel_entropy_binary(self):
        assert abs(c_max_closed(diagonal([0.9, 0.1]), "rel_entropy") - (1.0 - binary_entropy(0.9))) <= 1e-12

    def test_trace_norm_bloch_z(self):
        assert abs(c_max_closed(from_bloch((0, 0, 0.8)), "trace_norm") - 0.8) <= 1e-12

    def test_matches_coherence_of_mcms(self):
        rng = stream(8)
        for name in MENU:
            rho = random_density(3, 3, rng)
            direct = c_max_closed(rho, name)
            via_mcms = c_distance(mcms(rho.spectrum, 3), name, FAST_OPT)
            assert abs(direct - via_mcms) <= 1e-4


class TestRandomFreeChannels:
    def test_incoherent_unitary_preserves_diagonality(self):
        rng = stream(9)
        for _ in range(10):
            ch = random_free_channel("incoherent_unitary", 4, rng)
            rho = diagonal(rng.dirichlet(np.ones(4)))
            out = apply_channel(ch, rho)
            assert c_l1(out) <= 1e-12

    def test_dephasing_mixture_weight_one(self):
        # force weight 1 by checking the Kraus structure instead: mixture of
        # identity and full dephasing always maps diagonals to themselves
        rng = stream(10)
        ch = random_free_channel("dephasing_mixture", 3, rng)
        rho = diagonal([0.5, 0.25, 0.25])
        assert np.max(np.abs(apply_channel(ch, rho).mat - rho.mat)) <= 1e-12

    def test_mio_construction_on_basis_state(self):
        ch = random_free_channel("mio_construction", 3, stream(11))
        out = apply_channel(ch, diagonal([1.0, 0.0, 0.0]))
        assert np.max(np.abs(out.mat - np.eye(3) / 3)) <= 1e-9

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            random_free_channel("unital", 2, stream(0))


class TestMonotonicity:
    def test_mio_monotones_do_not_increase(self):
        rng = stream(12)
        for kind in ("incoherent_unitary", "dephasing_mixture", "mio_construction"):
            for _ in range(15):
                d = int(rng.integers(2, 5))
                rho = random_density(d, int(rng.integers(1, d + 1)), rng)
                out = apply_channel(random_free_channel(kind, d, rng), rho)
                assert c_rel_entropy(out) <= c_rel_entropy(rho) + 1e-6
                assert c_distance(out, "trace_norm", FAST_OPT) <= c_distance(rho, "trace_norm", FAST_OPT) + 1e-6
                assert c_alpha(out, 2.0, FAST_OPT) <= c_alpha(rho, 2.0, FAST_OPT) + 1e-6

    def test_l1_monotone_under_io_kinds(self):
        rng = stream(13)
        for kind in ("incoherent_unitary", "dephasing_mixture"):
            for _ in range(25):
                d = int(rng.integers(2, 5))
                rho = random_density(d, int(rng.integers(1, d + 1)), rng)
                out = apply_channel(random_free_channel(kind, d, rng), rho)
                assert c_l1(out) <= c_l1(rho) + 1e-9

    def test_l1_increases_under_recorded_mio_instance(self):
        rho_max = mcms([0.5, 0.5, 0.0, 0.0], 4)
        ch = random_free_channel("mio_construction", 4, stream(0))
        assert c_l1(apply_channel(ch, rho_max)) >= c_l1(rho_max) + 1e-3


class TestUniversality:
    def test_no_unitary_beats_mcms(self):
        rng = stream(14)
        for d in (2, 3, 4, 5):
            spectrum = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            rho_max = mcms(spectrum, d)
            ceiling_r = c_rel_entropy(rho_max)
            ceiling_half = c_alpha(rho_max, 0.5, FAST_OPT)
            for _ in range(20):
                u = haar_unitary(d, rng)
                rotated = validate(u @ rho_max.mat @ u.conj().T)
                assert c_rel_entropy(rotated) <= ceiling_r + 1e-9
                assert c_alpha(rotated, 0.5, FAST_OPT) <= ceiling_half + 1e-4

    def test_theorem2_equality_at_optimal_unitary(self):
        rng = stream(15)
        for name in MENU:
            rho = random_density(4, 3, rng)
            v = optimal_unitary(rho)
            rotated = validate(v @ rho.mat @ v.conj().T)
            assert abs(c_distance(rotated, name, FAST_OPT) - c_max_closed(rho, name)) <= 1e-6
