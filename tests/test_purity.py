import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohpure import linalg
from cohpure.coherence import apply_channel, c_alpha, c_l1, c_rel_entropy
from cohpure.linalg import DomainError, haar_unitary, stream
from cohpure.purity import (
    ALPHA_GRID,
    axiom_suite,
    p_2,
    p_alpha,
    p_coherence_based,
    p_distance,
    p_geometric,
    p_linear,
    p_rel_entropy,
    purity_report,
    random_unital,
)
from cohpure.simplex import MENU, Distance, PetzAlphaDivergence, SandwichedAlphaDivergence, get_distance
from cohpure.states import diagonal, from_bloch, maximally_mixed, pure, random_density, validate
from cohpure.verify import FAST_OPT


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestPAlpha:
    def test_vanishes_on_maximally_mixed(self):
        for a in ALPHA_GRID:
            assert p_alpha(maximally_mixed(4), a) <= 1e-12

    def test_pure_states_reach_log_d(self):
        rng = stream(1)
        for d in (2, 3, 5):
            psi = pure(rng.standard_normal(d) + 1j * rng.standard_normal(d))
            for a in ALPHA_GRID:
                assert abs(p_alpha(psi, a) - math.log2(d)) <= 1e-9

    def test_binary_table(self):
        rho = diagonal([0.9, 0.1])
        assert p_alpha(rho, 0.0) <= 1e-12
        assert abs(p_alpha(rho, 1.0) - (1.0 - binary_entropy(0.9))) <= 1e-9
        assert abs(p_alpha(rho, 2.0) - math.log2(2 * 0.82)) <= 1e-9
        assert abs(p_alpha(rho, math.inf) - (1.0 + math.log2(0.9))) <= 1e-9

    def test_rejects_negative_alpha(self):
        with pytest.raises(DomainError):
            p_alpha(maximally_mixed(2), -1.0)

    def test_nondecreasing_in_alpha(self):
        rng = stream(2)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, math.inf]
        for _ in range(20):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            vals = [p_alpha(rho, a) for a in grid]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestSimplePurities:
    def test_p_rel_entropy_examples(self):
        assert abs(p_rel_entropy(pure([1, 0, 0, 1])) - 2.0) <= 1e-12
        assert p_rel_entropy(maximally_mixed(4)) <= 1e-12
        assert abs(p_rel_entropy(diagonal([0.9, 0.1])) - (1.0 - binary_entropy(0.9))) <= 1e-9

    def test_p_linear_and_p2(self):
        assert abs(p_linear(pure([1, 1j])) - 1.0) <= 1e-12
        assert abs(p_linear(maximally_mixed(4)) - 0.25) <= 1e-12
        assert p_2(maximally_mixed(4)) <= 1e-12
        rho = diagonal([0.9, 0.1])
        assert abs(p_linear(rho) - 0.82) <= 1e-12
        assert abs(p_2(rho) - math.log2(1.64)) <= 1e-12

    def test_p_geometric_examples(self):
        assert p_geometric(maximally_mixed(3)) <= 1e-12
        assert abs(p_geometric(pure([1, 1])) - 0.5) <= 1e-12
        assert abs(p_geometric(diagonal([0.9, 0.1])) - 0.2) <= 1e-9

    def test_p_geometric_range(self):
        rng = stream(3)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            assert 0.0 <= p_geometric(rho) <= 1.0 - 1.0 / d + 1e-12


class TestPDistance:
    def test_maximally_mixed_zero(self):
        for name in ("rel_entropy", "trace_norm", "schatten_2", "one_minus_fidelity"):
            assert p_distance(maximally_mixed(3), name) <= 1e-12

    def test_rel_entropy_identity(self):
        rng = stream(4)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            assert abs(p_distance(rho, "rel_entropy") - p_rel_entropy(rho)) <= 1e-12

    def test_fidelity_identity(self):
        rng = stream(5)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            assert abs(p_distance(rho, "one_minus_fidelity") - p_geometric(rho)) <= 1e-9

    def test_trace_norm_bloch(self):
        assert abs(p_distance(from_bloch((0, 0, 0.8)), "trace_norm") - 0.8) <= 1e-12

    def test_huge_schatten_order_is_the_operator_norm(self):
        rho = random_density(3, 3, stream(14))
        top = float(np.abs(np.linalg.eigvalsh(rho.mat - np.eye(3) / 3)).max())
        assert abs(p_distance(rho, "schatten_1e308") - top) <= 1e-12


@st.composite
def spectral_states(draw):
    """States at d = 1..6 of every rank, with a Haar or an incoherent
    eigenbasis: pure states, maximally mixed states, and spectra whose
    weights tie often (degenerate) or are all equal."""
    d = draw(st.integers(1, 6))
    rank = draw(st.integers(1, d))
    weight = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.05, 1.0))
    weights = np.array(draw(st.lists(weight, min_size=rank, max_size=rank)))
    if draw(st.booleans()):
        weights = np.full(rank, weights[0])  # at rank d, the maximally mixed state
    spec = np.zeros(d)
    spec[:rank] = weights / weights.sum()
    u = haar_unitary(d, stream(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        u = np.eye(d)
    return validate((u * spec) @ u.conj().T)


class _SchattenThreeByMatrix(Distance):
    """A distance that only knows its matrix form, as a user-supplied one
    may: ``to_mixed`` falls back to the base class."""

    name = "schatten_3_by_matrix"

    def between(self, rho, sigma):
        return linalg.schatten_norm(linalg.as_matrix(rho) - linalg.as_matrix(sigma), 3.0)


# every menu distance, Schatten-3 and the huge order, Petz 0.5 and
# sandwiched 2 and 3, and a distance without a closed form
TO_MIXED = [
    *(get_distance(name) for name in (*MENU, "schatten_3", "schatten_1e308")),
    PetzAlphaDivergence(0.5),
    SandwichedAlphaDivergence(2.0),
    SandwichedAlphaDivergence(3.0),
    _SchattenThreeByMatrix(),
]


@pytest.mark.parametrize("dist", TO_MIXED, ids=lambda dist: dist.name)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rho=spectral_states())
def test_to_mixed_is_the_distance_to_the_maximally_mixed_state(dist, rho):
    mixed = np.eye(rho.dim, dtype=complex) / rho.dim
    assert abs(dist.to_mixed(rho.spectrum.values) - dist.between(rho.mat, mixed)) <= 1e-9
    assert p_distance(rho, dist) == dist.to_mixed(rho.spectrum.values)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rho=spectral_states())
def test_purities_share_one_formula(rho):
    # bit for bit: one implementation per quantity
    assert p_geometric(rho) == p_distance(rho, "one_minus_fidelity")
    assert p_alpha(rho, 1.0) == p_rel_entropy(rho) == p_distance(rho, "rel_entropy")
    assert p_alpha(rho, 0.5) == p_distance(rho, PetzAlphaDivergence(0.5))
    for a in (2.0, 3.0):
        assert p_alpha(rho, a) == p_distance(rho, SandwichedAlphaDivergence(a))


class TestPCoherenceBased:
    def test_rel_entropy_chain(self):
        rng = stream(6)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            assert abs(p_coherence_based(rho, c_rel_entropy) - p_rel_entropy(rho)) <= 1e-9

    def test_alpha_half_on_mixed(self):
        val = p_coherence_based(maximally_mixed(3), lambda s: c_alpha(s, 0.5, FAST_OPT))
        assert val <= 1e-9

    def test_l1_on_binary_spectrum(self):
        # the MCMS of spectrum (0.9, 0.1) has off-diagonal modulus 0.4
        assert abs(p_coherence_based(diagonal([0.9, 0.1]), c_l1) - 0.8) <= 1e-9

    def test_dominates_unital_orbit(self):
        rng = stream(7)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            ceiling = p_coherence_based(rho, c_rel_entropy)
            out = apply_channel(random_unital(d, int(rng.integers(1, 5)), rng), rho)
            assert c_rel_entropy(out) <= ceiling + 1e-9


class TestRandomUnital:
    def test_single_unitary_preserves_all_purities(self):
        rng = stream(8)
        rho = random_density(3, 2, rng)
        ch = random_unital(3, 1, rng)
        out = apply_channel(ch, rho)
        for a in ALPHA_GRID:
            assert abs(p_alpha(out, a) - p_alpha(rho, a)) <= 1e-9

    def test_trace_preservation_residual(self):
        ch = random_unital(4, 5, stream(9))
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12

    def test_fixes_maximally_mixed(self):
        ch = random_unital(4, 3, stream(10))
        out = apply_channel(ch, maximally_mixed(4))
        assert np.max(np.abs(out.mat - np.eye(4) / 4)) <= 1e-12

    def test_monotonicity_all_alphas(self):
        rng = stream(11)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            out = apply_channel(random_unital(d, int(rng.integers(1, 6)), rng), rho)
            for a in ALPHA_GRID:
                assert p_alpha(out, a) <= p_alpha(rho, a) + 1e-9

    def test_requires_at_least_one_unitary(self):
        with pytest.raises(DomainError):
            random_unital(2, 0, stream(0))


class TestAdditivity:
    def test_p_alpha_additive_on_products(self):
        rng = stream(12)
        for _ in range(10):
            da = int(rng.integers(2, 5))
            db = int(rng.integers(2, 17 // da))
            a = random_density(da, int(rng.integers(1, da + 1)), rng)
            b = random_density(db, int(rng.integers(1, db + 1)), rng)
            prod = validate(linalg.kron(a.mat, b.mat))
            for alpha in ALPHA_GRID:
                gap = abs(p_alpha(prod, alpha) - p_alpha(a, alpha) - p_alpha(b, alpha))
                assert gap <= 1e-9

    def test_p_geometric_not_additive(self):
        a = pure([1, 0])
        prod = validate(linalg.kron(a.mat, a.mat))
        assert abs(p_geometric(prod) - 0.75) <= 1e-12
        assert abs(p_geometric(a) - 0.5) <= 1e-12  # 0.75 != 0.5 + 0.5


class TestPurityReport:
    def test_alpha_block_ordered_and_bounded(self):
        rng = stream(13)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            rep = purity_report(rho)
            vals = [rep.p_alpha[a] for a in ALPHA_GRID]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
            assert rep.distillable_1shot <= rep.cost_1shot

    def test_extremes(self):
        rep = purity_report(maximally_mixed(8))
        assert rep.distillable_1shot == 0 and rep.cost_1shot == 0
        rep = purity_report(pure(np.ones(8)))
        assert rep.distillable_1shot == 3 and rep.cost_1shot == 3


class TestAxiomSuite:
    def test_p_alpha_two_passes_everything(self):
        rep = axiom_suite(lambda s: p_alpha(s, 2.0), 3, 60, stream(14), name="p_alpha[2]", convexity=False)
        assert rep.passed_all, [c for c in rep.checks if not c.passed]

    def test_p_alpha_half_convex(self):
        rep = axiom_suite(lambda s: p_alpha(s, 0.5), 3, 60, stream(15), name="p_alpha[0.5]", convexity=True)
        assert rep.passed_all, [c for c in rep.checks if not c.passed]

    def test_p_geometric_is_monotone_but_not_measure(self):
        rep = axiom_suite(p_geometric, 2, 60, stream(16), name="p_geometric")
        assert rep.check("P1_nonnegativity").passed
        assert rep.check("P2_unital_monotone").passed
        assert not rep.check("P3_additivity").passed
        assert not rep.check("P4_normalization").passed
        assert rep.check("P3_additivity").counterexample is not None

    def test_p_linear_fails_normalization(self):
        rep = axiom_suite(p_linear, 3, 40, stream(17), name="p_linear")
        assert not rep.check("P4_normalization").passed
