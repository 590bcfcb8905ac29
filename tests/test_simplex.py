import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohpure.linalg import DomainError, haar_unitary, stream
from cohpure.simplex import (
    LN2,
    MENU,
    OneMinusFidelityDistance,
    PetzAlphaDivergence,
    SandwichedAlphaDivergence,
    SchattenDistance,
    SimplexOptConfig,
    _eg_stage,
    _grid_eval,
    _mirror_descent,
    _starts,
    get_distance,
    grid_minimize,
    minimize_diag,
)
from cohpure.states import from_bloch, maximally_mixed, pure, random_density

ALL_FAMILIES = [
    get_distance("rel_entropy"),
    SchattenDistance(1.0),
    SchattenDistance(2.0),
    SchattenDistance(3.0),
    OneMinusFidelityDistance(),
    PetzAlphaDivergence(0.5),
    SandwichedAlphaDivergence(0.5),
    SandwichedAlphaDivergence(2.0),
]


def _fd_grad(value, q, h=1e-6):
    g = np.zeros_like(q)
    for i in range(q.size):
        up, dn = q.copy(), q.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (value(up[None, :])[0] - value(dn[None, :])[0]) / (2 * h)
    return g


def _assert_gradient_matches_finite_differences(dist, mu=0.0):
    rng = stream(3)
    for _ in range(4):
        d = int(rng.integers(2, 5))
        rho = random_density(d, d, rng)
        value, grad = dist.diag_objective(rho.mat, mu=mu)
        q = rng.dirichlet(np.ones(d)) * 0.9 + 0.1 / d  # interior point
        q = q / q.sum()
        g = grad(q[None, :])
        fd = _fd_grad(value, q)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(g[0] - fd)) / scale <= 1e-4


class TestDiagObjectives:
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: d.name)
    def test_gradients_match_finite_differences(self, dist):
        _assert_gradient_matches_finite_differences(dist)

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_smoothed_schatten_gradient_matches_finite_differences(self, p):
        _assert_gradient_matches_finite_differences(SchattenDistance(p), mu=1e-2)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: d.name)
    def test_diag_objective_matches_two_state_evaluator(self, dist):
        rng = stream(4)
        for _ in range(4):
            d = int(rng.integers(2, 5))
            rho = random_density(d, d, rng)
            q = rng.dirichlet(np.ones(d)) * 0.9 + 0.1 / d
            q = q / q.sum()
            value, _ = dist.diag_objective(rho.mat)
            direct = dist.between(rho.mat, np.diag(q).astype(complex))
            assert abs(value(q[None, :])[0] - direct) <= 1e-9


class TestMinimizeDiag:
    def test_rel_entropy_uses_dephased_minimizer(self):
        rho = from_bloch((0.6, 0.2, 0.3))
        res = minimize_diag(rho.mat, "rel_entropy")
        assert res.iterations == 0
        assert np.allclose(res.q, np.real(np.diagonal(rho.mat)), atol=1e-12)

    def test_frobenius_optimum_is_dephased_state(self):
        rng = stream(5)
        rho = random_density(4, 4, rng)
        res = minimize_diag(rho.mat, "schatten_2")
        off = rho.mat - np.diag(np.diagonal(rho.mat))
        assert abs(res.value - math.sqrt(float(np.sum(np.abs(off) ** 2)))) <= 1e-9

    @pytest.mark.parametrize("name", [n for n in MENU if n != "rel_entropy"])
    def test_agrees_with_grid_oracle_qubit(self, name):
        rng = stream(6)
        for _ in range(6):
            rho = random_density(2, int(rng.integers(1, 3)), rng)
            opt = minimize_diag(rho.mat, name).value
            grid, _ = grid_minimize(rho.mat, name, resolution=1e-4)
            assert opt <= grid + 1e-7
            assert opt >= grid - 1e-3

    @pytest.mark.parametrize(
        "dist", [SchattenDistance(1.0), OneMinusFidelityDistance(), PetzAlphaDivergence(0.5),
                 SandwichedAlphaDivergence(2.0)],
        ids=lambda d: d.name,
    )
    def test_agrees_with_grid_oracle_qutrit(self, dist):
        rng = stream(7)
        rho = random_density(3, 3, rng)
        opt = minimize_diag(rho.mat, dist).value
        grid, _ = grid_minimize(rho.mat, dist, resolution=1e-3)
        assert opt <= grid + 1e-7
        assert opt >= grid - 1e-2

    @pytest.mark.parametrize("name", MENU)
    def test_never_exceeds_uniform_start(self, name):
        rng = stream(8)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            dist = get_distance(name)
            ceiling = dist.between(rho.mat, np.eye(d, dtype=complex) / d)
            assert minimize_diag(rho.mat, dist).value <= ceiling + 1e-12

    def test_deterministic(self):
        rho = random_density(3, 3, stream(9))
        a = minimize_diag(rho.mat, "trace_norm")
        b = minimize_diag(rho.mat, "trace_norm")
        assert a.value == b.value and np.array_equal(a.q, b.q)

    def test_flat_objective_pure_plus(self):
        # fidelity of |+><+| with any diagonal state is 1/2
        res = minimize_diag(pure([1, 1]).mat, OneMinusFidelityDistance())
        assert abs(res.value - 0.5) <= 1e-12

    def test_maximally_mixed_is_fixed_point(self):
        # a diagonal state hits a closed form for every menu distance
        for d in (3, 4):
            for name in MENU:
                res = minimize_diag(maximally_mixed(d).mat, name)
                assert (res.value, res.iterations) == (0.0, 0)

    def test_petz_order_above_one_rejected(self):
        # c_alpha sends orders above 1 to the sandwiched divergence
        with pytest.raises(DomainError):
            PetzAlphaDivergence(2.0)


# every closed form, with the largest diagonal block of rho it accepts
# (2: rho must be block-sparse, see _block_sparse; None: any rho)
CLOSED_FORMS = [
    (get_distance("rel_entropy"), None),
    (SchattenDistance(2.0), None),
    (PetzAlphaDivergence(0.5), None),
    (PetzAlphaDivergence(0.2), None),
    (SchattenDistance(1.0), 2),
    (OneMinusFidelityDistance(), 2),
]
BLOCK_RULES = [dist for dist, max_block in CLOSED_FORMS if max_block == 2]


def _block_sparse(rho) -> bool:
    """Every row of the symmetric off-diagonal pattern has at most one
    nonzero entry: rho is a direct sum of 2x2 and 1x1 blocks."""
    off = (rho != 0) | (rho.T != 0)
    np.fill_diagonal(off, False)
    return bool(np.all(off.sum(axis=1) <= 1))


def _block_state(d, kind, rng):
    """Seeded block-sparse state: "x" pairs k with d - 1 - k (the X
    pattern), "block" pairs a random subset of indices; the 2x2 blocks have
    rank 1 or 2, and the unpaired diagonal entries may be zero."""
    if kind == "x":
        pairs = [(k, d - 1 - k) for k in range(d // 2)]
    else:
        perm = rng.permutation(d)
        pairs = [perm[2 * k : 2 * k + 2] for k in range(int(rng.integers(1, d // 2 + 1)))]
    m = np.diag([rng.choice([0.0, rng.uniform(0.1, 1.0)]) for _ in range(d)]).astype(complex)
    for i, j in pairs:
        rank = int(rng.integers(1, 3))
        u = haar_unitary(2, rng)[:, :rank]
        m[np.ix_([i, j], [i, j])] = (u * rng.dirichlet(np.ones(rank))) @ u.conj().T
    m /= np.trace(m).real
    return (m + m.conj().T) / 2.0


class TestClosedForms:
    @pytest.mark.parametrize("dist,max_block", CLOSED_FORMS, ids=lambda x: getattr(x, "name", str(x)))
    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_mirror_descent_and_grid(self, dist, max_block, d):
        rng = stream(40 + d)
        for rank in range(1, d + 1):
            # on pure states the optimizers' fidelity objective, through the
            # matrix square root, reads up to ~2e-8 below the exact value
            slack = 1e-7 if isinstance(dist, OneMinusFidelityDistance) and rank < d else 1e-9
            for _ in range(3):
                rho = random_density(d, rank, rng).mat
                if max_block == 2 and not _block_sparse(rho):
                    assert dist.closed_form_minimizer(rho) is None
                    continue
                value, q = dist.closed_form_minimizer(rho)
                oracle = _mirror_descent(rho, dist, SimplexOptConfig())
                assert value <= oracle.value + slack
                assert value >= oracle.value - 1e-7
                grid, _ = grid_minimize(rho, dist, resolution=1e-4 if d == 2 else 2e-3)
                assert value <= grid + slack
                assert value >= grid - (1e-3 if d == 2 else 1e-2)
                res = minimize_diag(rho, dist)
                assert (res.value, res.iterations, res.converged) == (value, 0, True)
                assert np.array_equal(res.q, q)

    @pytest.mark.parametrize("dist", BLOCK_RULES, ids=lambda d: d.name)
    @pytest.mark.parametrize("kind", ["x", "block"])
    def test_block_rule_on_block_sparse_states(self, dist, kind):
        rng = stream(45)
        # the oracle's fidelity objective reads up to ~4e-8 below the
        # exact value on rank-deficient blocks; it never reads above
        slack = 1e-7 if isinstance(dist, OneMinusFidelityDistance) else 1e-9
        for d in range(3, 7):
            rho = _block_state(d, kind, rng)
            assert _block_sparse(rho)
            value, q = dist.closed_form_minimizer(rho)
            oracle = _mirror_descent(rho, dist, SimplexOptConfig())
            assert -1e-9 <= value - oracle.value <= slack
            objective, _ = dist.diag_objective(rho)
            assert abs(objective(q[None, :])[0] - value) <= slack
            if d == 3:
                grid, _ = grid_minimize(rho, dist, resolution=2e-3)
                assert grid - 1e-2 <= value <= grid + 1e-9
            res = minimize_diag(rho, dist)
            assert (res.value, res.iterations, res.converged) == (value, 0, True)
            assert np.array_equal(res.q, q)
            # a weak dense admixture couples every row to every other
            near = 0.999 * rho + 0.001 * random_density(d, d, rng).mat
            assert dist.closed_form_minimizer(near) is None

    def test_fidelity_formula_on_pure_qubits(self):
        # F(psi, diag q) = sum_i q_i |psi_i|^2 peaks at the heavier vertex
        rng = stream(44)
        for _ in range(20):
            rho = random_density(2, 1, rng).mat
            value, q = OneMinusFidelityDistance().closed_form_minimizer(rho)
            p = np.real(np.diagonal(rho))
            assert abs(value - p.min()) <= 1e-12
            assert np.allclose(q, p == p.max(), atol=1e-6)


@st.composite
def edge_states(draw):
    """Density matrices at the edges of the state space: d = 1,
    rank-deficient, degenerate spectra, and near-PSD matrices whose
    smallest eigenvalues are round-off negatives."""
    d = draw(st.integers(1, 4))
    rank = draw(st.integers(1, d))
    kind = draw(st.sampled_from(["generic", "degenerate", "near_psd"]))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=rank, max_size=rank)))
    if kind == "degenerate":
        weights = np.full(rank, weights[0])
    spec = np.zeros(d)
    spec[:rank] = weights / weights.sum()
    if kind == "near_psd" and rank < d:
        spec[rank:] = -draw(st.floats(1e-16, 1e-12))
    u = haar_unitary(d, stream(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        u = np.eye(d)  # incoherent eigenbasis
    m = (u * spec) @ u.conj().T
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("dist,max_block", CLOSED_FORMS, ids=lambda x: getattr(x, "name", str(x)))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rho=edge_states())
def test_closed_form_properties(dist, max_block, rho):
    d = rho.shape[0]
    closed = dist.closed_form_minimizer(rho)
    if max_block == 2 and not _block_sparse(rho):
        assert closed is None
        return
    value, q = closed
    assert np.all(q >= 0) and abs(q.sum() - 1.0) <= 1e-12
    assert math.isfinite(value) and value >= -1e-12
    if d == 1:
        assert abs(value) <= 1e-12 and q.tolist() == [1.0]
        return
    # measured by the optimizers' own objective, so that both sides carry
    # the same eigenvalue dust (fractional powers amplify it, and the
    # fidelity formula bypasses the matrix square root)
    objective, _ = dist.diag_objective(rho)
    tol = 1e-7 if isinstance(dist, OneMinusFidelityDistance) else 1e-9
    assert value <= objective(np.full((1, d), 1.0 / d))[0] + tol
    assert abs(value - objective(q[None, :])[0]) <= tol


class TestEgStage:
    @pytest.mark.parametrize(
        "dist,mu",
        [(SchattenDistance(1.0), 0.0), (SchattenDistance(1.0), 1e-4), (SchattenDistance(3.0), 0.0),
         (OneMinusFidelityDistance(), 0.0), (SandwichedAlphaDivergence(2.0), 0.0),
         (SandwichedAlphaDivergence(3.0), 0.0)],
        ids=lambda x: getattr(x, "name", str(x)),
    )
    def test_batch_rows_match_solo_runs(self, dist, mu):
        cfg = SimplexOptConfig(restarts=6)
        rng = stream(50)
        for d, rank in ((3, 2), (4, 4)):
            rho = random_density(d, rank, rng).mat
            value, grad = dist.diag_objective(rho, mu=mu)
            starts = _starts(rho, cfg)
            Q, V, _, _, _ = _eg_stage(value, grad, starts.copy(), 400, 1e-10)
            for i in range(starts.shape[0]):
                Qi, Vi, _, _, _ = _eg_stage(value, grad, starts[i : i + 1].copy(), 400, 1e-10)
                assert np.array_equal(Qi[0], Q[i]) and Vi[0] == V[i]


def test_renyi2_quadratic_form_matches_eigendecomposition():
    a, beta = 2.0, -0.25
    rng = stream(60)
    for d in (1, 2, 3, 5, 6):
        rho = random_density(d, int(rng.integers(1, d + 1)), rng).mat
        Q = rng.dirichlet(np.ones(d), size=8)
        value, grad = SandwichedAlphaDivergence(a).diag_objective(rho)
        w = Q**beta
        lam, vec = np.linalg.eigh(rho[None, :, :] * (w[:, :, None] * w[:, None, :]))
        la = np.clip(lam, 0.0, None) ** a
        t = la.sum(axis=1)
        ref_v = np.log2(t) / (a - 1.0)
        ref_g = 2 * a * beta * np.einsum("rik,rk->ri", np.abs(vec) ** 2, la) / Q / ((a - 1.0) * LN2 * t)[:, None]
        g = grad(Q)
        assert np.max(np.abs(value(Q) - ref_v)) <= 1e-13
        assert np.max(np.abs(g - ref_g)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref_g))))
        assert np.max(np.abs(value(Q) - _grid_eval(rho, SandwichedAlphaDivergence(a), Q))) <= 1e-13


class TestGridOracle:
    def test_rejects_large_dimension(self):
        with pytest.raises(DomainError):
            grid_minimize(maximally_mixed(4).mat, "trace_norm")

    def test_trace_norm_qubit_closed_form(self):
        # min over diagonal states of ||rho - diag(q)||_1 for a Bloch-x
        # state equals the off-diagonal mass
        val, q = grid_minimize(from_bloch((0.8, 0, 0)).mat, "trace_norm", resolution=1e-4)
        assert abs(val - 0.8) <= 1e-6
        assert abs(q[0] - 0.5) <= 1e-3

    def test_unknown_distance_name(self):
        with pytest.raises(DomainError):
            get_distance("hellinger")
