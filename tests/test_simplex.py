import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohpure.coherence import c_alpha_result, mcms
from cohpure.linalg import DomainError, haar_unitary, sandwiched_renyi, stream
from cohpure.simplex import (
    _EXP_CLIP,
    _MIN_STEP,
    _STEP0,
    MENU,
    OneMinusFidelityDistance,
    PetzAlphaDivergence,
    RelEntropyDistance,
    SandwichedAlphaDivergence,
    SchattenDistance,
    SimplexOptConfig,
    _barrier_derivatives,
    _barrier_value,
    _dephased,
    _eg_stage,
    _grid_eval,
    _grid_points,
    _mirror_descent,
    _starts,
    _simplex_newton,
    get_distance,
    grid_minimize,
    minimize_diag,
    minimize_diags,
)
from cohpure.states import from_bloch, maximally_mixed, pure, random_density

ALL_FAMILIES = [
    get_distance("rel_entropy"),
    SchattenDistance(1.0),
    SchattenDistance(2.0),
    SchattenDistance(3.0),
    OneMinusFidelityDistance(),
    PetzAlphaDivergence(0.5),
    SandwichedAlphaDivergence(2.0),
]


def _fd_grad(evaluate, q, h=1e-6):
    g = np.zeros_like(q)
    for i in range(q.size):
        up, dn = q.copy(), q.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (evaluate(up[None, :])[0][0] - evaluate(dn[None, :])[0][0]) / (2 * h)
    return g


def _assert_gradient_matches_finite_differences(dist, mu=0.0):
    rng = stream(3)
    for _ in range(4):
        d = int(rng.integers(2, 5))
        rho = random_density(d, d, rng)
        evaluate = dist.diag_objective(rho.mat, mu=mu)
        q = rng.dirichlet(np.ones(d)) * 0.9 + 0.1 / d  # interior point
        q = q / q.sum()
        g = evaluate(q[None, :])[1]
        fd = _fd_grad(evaluate, q)
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
            value = dist.diag_objective(rho.mat)(q[None, :])[0][0]
            assert abs(value - dist.between(rho.mat, np.diag(q).astype(complex))) <= 1e-9


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

    @pytest.mark.parametrize("alpha", [1e-2, 1e-3, 1e-8, 1e-300])
    def test_petz_small_orders_on_uniform_superposition(self, alpha):
        # c_i^(1/alpha) underflows to 0 at these orders: the closed form
        # must sum in the log domain
        for d in (2, 3, 5):
            dist = PetzAlphaDivergence(alpha)
            res = minimize_diag(pure(np.ones(d)).mat, dist)
            assert abs(res.value - math.log2(d)) <= 1e-9
            # as alpha -> 0 every q attains the minimum, so q is checked
            # through the objective
            assert np.all(res.q >= 0) and abs(res.q.sum() - 1.0) <= 1e-12
            assert abs(dist.diag_objective(pure(np.ones(d)).mat)(res.q[None, :])[0][0] - res.value) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 1e-3, 1e-20])
    def test_petz_zero_is_positive_zero(self, alpha):
        # one coefficient 1 and the rest 0 sum to exactly 1: log2 1 = 0,
        # which a negative prefactor a/(a-1) would turn into -0.0
        res = minimize_diag(np.diag([1.0, 0.0, 0.0]).astype(complex), PetzAlphaDivergence(alpha))
        assert res.value == 0.0 and math.copysign(1.0, res.value) == 1.0

    def test_petz_tiny_order_on_full_rank_qutrits(self):
        # rho^a is the identity to round-off, so the minimum is 0 to
        # round-off, while c_i^(1/a) overflows to inf a coefficient a
        # round-off above 1 and underflows the others to 0
        rng = stream(47)
        for _ in range(20):
            res = minimize_diag(random_density(3, 3, rng).mat, PetzAlphaDivergence(1e-20))
            assert math.isfinite(res.value) and 0.0 <= res.value <= 1e-12
            assert math.copysign(1.0, res.value) == 1.0

    @pytest.mark.parametrize("alpha", [3.0, 50.0, 1e3, 1e6, 1e300])
    def test_sandwiched_huge_orders_on_uniform_superposition(self, alpha):
        # Tr M^alpha overflows at these orders unless the eigenvalues of M,
        # which reach d at the uniform point, are scaled by the largest
        for d in (2, 3, 5):
            res = minimize_diag(pure(np.ones(d)).mat, SandwichedAlphaDivergence(alpha))
            assert res.converged and abs(res.value - math.log2(d)) <= 1e-12

    def test_sandwiched_order_below_one_rejected(self):
        # c_alpha sends orders below 1 to the Petz divergence
        with pytest.raises(DomainError):
            SandwichedAlphaDivergence(0.5)

    @pytest.mark.parametrize("name", ["schatten_inf", "schatten_abc"])
    def test_malformed_schatten_order_rejected(self, name):
        # at p = inf the objective (sum_k a_k^p)^(1/p) reads 1 on any state
        with pytest.raises(DomainError):
            minimize_diag(random_density(3, 3, stream(10)).mat, name)

    def test_huge_schatten_order_between_is_the_operator_norm(self):
        rho = random_density(3, 3, stream(14)).mat
        top = float(np.abs(np.linalg.eigvalsh(rho - np.eye(3) / 3)).max())
        assert abs(get_distance("schatten_1e308").between(rho, np.eye(3) / 3) - top) <= 1e-12

    def test_huge_schatten_order_is_the_operator_norm(self):
        rho = random_density(3, 2, stream(11))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize_diag(rho.mat, "schatten_1e308")
        Q = _grid_points(3, 1e-3)
        lam = np.linalg.eigvalsh(rho.mat[None, :, :] - Q[:, :, None] * np.eye(3)[None, :, :])
        grid = float(np.abs(lam).max(axis=1).min())
        # the operator norm moves by at most the grid spacing between points
        assert res.converged and grid - 1e-3 <= res.value <= grid + 1e-9


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
                    assert dist.closed_forms(rho)[0] is None
                    continue
                value, q = dist.closed_forms(rho)[0]
                oracle = _mirror_descent(rho, dist, SimplexOptConfig())[0]
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
            value, q = dist.closed_forms(rho)[0]
            oracle = _mirror_descent(rho, dist, SimplexOptConfig())[0]
            assert -1e-9 <= value - oracle.value <= slack
            assert abs(dist.diag_objective(rho)(q[None, :])[0][0] - value) <= slack
            if d == 3:
                grid, _ = grid_minimize(rho, dist, resolution=2e-3)
                assert grid - 1e-2 <= value <= grid + 1e-9
            res = minimize_diag(rho, dist)
            assert (res.value, res.iterations, res.converged) == (value, 0, True)
            assert np.array_equal(res.q, q)
            # a weak dense admixture couples every row to every other
            near = 0.999 * rho + 0.001 * random_density(d, d, rng).mat
            assert dist.closed_forms(near)[0] is None

    def test_fidelity_formula_on_pure_qubits(self):
        # F(psi, diag q) = sum_i q_i |psi_i|^2 peaks at the heavier vertex
        rng = stream(44)
        for _ in range(20):
            rho = random_density(2, 1, rng).mat
            value, q = OneMinusFidelityDistance().closed_forms(rho)[0]
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
    closed = dist.closed_forms(rho)[0]
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
    evaluate = dist.diag_objective(rho)
    tol = 1e-7 if isinstance(dist, OneMinusFidelityDistance) else 1e-9
    assert value <= evaluate(np.full((1, d), 1.0 / d))[0][0] + tol
    assert abs(value - evaluate(q[None, :])[0][0]) <= tol


# every menu distance (the trace norm at each smoothing width), Schatten-3,
# Petz 0.5 and sandwiched 2 and 3
ORACLE_OBJECTIVES = [
    *((get_distance(name), 0.0) for name in MENU if name != "trace_norm"),
    *((SchattenDistance(1.0), mu) for mu in SchattenDistance(1.0).smoothing),
    (SchattenDistance(3.0), 0.0),
    (PetzAlphaDivergence(0.5), 0.0),
    (SandwichedAlphaDivergence(2.0), 0.0),
    (SandwichedAlphaDivergence(3.0), 0.0),
]


def _fresh_gradient_stage(evaluate, Q, s, max_iter, rel_tol):
    """Reference loop of :func:`_eg_stage` that carries no gradient: each
    iteration takes a fresh gradient at the accepted rows, then the value
    at the trial rows."""
    R = Q.shape[0]
    V = evaluate(Q, s)[0]
    eta = np.full(R, _STEP0)
    stall = np.zeros(R, dtype=int)
    fails = np.zeros(R, dtype=int)
    done = np.zeros(R, dtype=bool)
    iters = np.zeros(R, dtype=int)
    it = 0
    while it < max_iter and not done.all():
        it += 1
        live = np.flatnonzero(~done)
        Ql, Vl, el, sl = Q[live], V[live], eta[live], s[live]
        G = evaluate(Ql, sl)[1]
        G = np.where(np.isfinite(G), G, 0.0)
        expo = -el[:, None] * (G - G.mean(axis=1, keepdims=True))
        Qn = Ql * np.exp(np.clip(expo, -_EXP_CLIP, _EXP_CLIP))
        Qn = np.clip(Qn, 1e-300, None)
        Qn /= Qn.sum(axis=1, keepdims=True)
        Vn = evaluate(Qn, sl)[0]
        iters[live] = it
        better = Vn < Vl
        with np.errstate(invalid="ignore"):
            meaningful = (Vl - Vn) > rel_tol * np.maximum(1.0, np.abs(Vl))
        Q[live[better]] = Qn[better]
        V[live[better]] = Vn[better]
        st = stall[live]
        stall[live] = np.where(better, np.where(meaningful, 0, st + 1), st)
        fails[live] = np.where(better, 0, fails[live] + 1)
        eta[live] = np.where(better, np.minimum(el * 1.25, 8.0 * _STEP0), el / 2.0)
        done[live] = (eta[live] < _MIN_STEP) | (stall[live] >= 3) | (fails[live] >= 14)
    return Q, V, iters, done


class TestEgStage:
    @pytest.mark.parametrize(
        "dist,mu",
        [(SchattenDistance(1.0), 0.0), (SchattenDistance(1.0), 1e-4), (SchattenDistance(3.0), 0.0),
         (OneMinusFidelityDistance(), 0.0), (SandwichedAlphaDivergence(2.0), 0.0),
         (SandwichedAlphaDivergence(3.0), 0.0)],
        ids=lambda x: getattr(x, "name", str(x)),
    )
    def test_batch_rows_match_solo_runs(self, dist, mu):
        # the starts of three states share one batch in shuffled order;
        # every row ends as it does in a batch of its own
        cfg = SimplexOptConfig(restarts=6)
        rng = stream(50)
        for d, ranks in ((3, (2, 3, 1)), (4, (4, 2, 1))):
            mats = np.stack([random_density(d, rank, rng).mat for rank in ranks])
            evaluate = dist.diag_objective(mats, mu=mu)
            starts = _starts(mats, cfg).reshape(-1, d)
            s = np.repeat(np.arange(len(ranks)), cfg.restarts + 2)
            order = rng.permutation(starts.shape[0])
            starts, s = starts[order], s[order]
            Q, V, iters, done = _eg_stage(evaluate, starts.copy(), s, 400, 1e-10)
            assert len(set(iters.tolist())) > 1
            for i in range(starts.shape[0]):
                Qi, Vi, it_i, done_i = _eg_stage(
                    dist.diag_objective(mats[s[i]], mu=mu), starts[i : i + 1].copy(), np.zeros(1, dtype=int),
                    400, 1e-10,
                )
                assert np.array_equal(Qi[0], Q[i]) and Vi[0] == V[i]
                assert (it_i[0], done_i[0]) == (iters[i], done[i])

    @pytest.mark.parametrize("dist,mu", ORACLE_OBJECTIVES, ids=lambda x: getattr(x, "name", str(x)))
    def test_carried_gradient_matches_fresh_gradient(self, dist, mu):
        # the gradient an accepted row carries is the bits a fresh
        # decomposition of that row gives
        cfg = SimplexOptConfig(restarts=4)
        rng = stream(51)
        for d in (3, 4, 5):
            mats = np.stack([random_density(d, rank, rng).mat for rank in (d, 1, 2, d - 1)])
            starts = _starts(mats, cfg).reshape(-1, d)
            s = np.repeat(np.arange(len(mats)), cfg.restarts + 2)
            evaluate = dist.diag_objective(mats, mu=mu)
            got = _eg_stage(evaluate, starts.copy(), s, 300, 1e-10)
            want = _fresh_gradient_stage(evaluate, starts.copy(), s, 300, 1e-10)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def _mixed_stack(d, rng):
    """States of dimension d that take a closed form for every block rule
    (a qubit block, a diagonal and an X state) beside states that need
    mirror descent (dense full rank, pure and rank 2)."""
    qubit = np.zeros((d, d), dtype=complex)
    qubit[:2, :2] = random_density(2, 2, rng).mat
    diag = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
    dense = [random_density(d, rank, rng).mat for rank in (d, 1, 2)]
    return np.stack([qubit, diag, _block_state(d, "x", rng), *dense])


STACK_DISTANCES = [get_distance(name) for name in MENU] + [
    PetzAlphaDivergence(0.5),
    SandwichedAlphaDivergence(2.0),
    SandwichedAlphaDivergence(3.0),
]


@pytest.mark.parametrize(
    "cfg",
    # the short run stops some fidelity states at max_iter and not others;
    # the Newton solver of the trace norm and of order 2 reads no config
    [
        SimplexOptConfig(restarts=2, max_iter=600, polish=False),
        SimplexOptConfig(),
        SimplexOptConfig(restarts=2, max_iter=60, polish=False),
    ],
    ids=["hierarchy_cli", "default", "short"],
)
@pytest.mark.parametrize("dist", STACK_DISTANCES, ids=lambda d: d.name)
def test_stack_matches_solo_runs(dist, cfg):
    rng = stream(55)
    for d in (3, 4, 5):
        mats = _mixed_stack(d, rng)
        stacked = minimize_diags(mats, dist, cfg)
        assert len(stacked) == len(mats)
        for m, res in zip(mats, stacked):
            solo = minimize_diag(m, dist, cfg)
            assert res.value == solo.value and np.array_equal(res.q, solo.q)
            assert (res.iterations, res.evals, res.converged) == (solo.iterations, solo.evals, solo.converged)


@st.composite
def closed_form_stacks(draw):
    """One to five states of one dimension d = 1..10: full rank,
    rank-deficient, block-sparse, and diagonal with zero entries."""
    d = draw(st.integers(1, 10))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for kind in draw(st.lists(st.sampled_from(["full", "deficient", "block", "diagonal"]), min_size=1, max_size=5)):
        if kind == "block" and d >= 2:
            mats.append(_block_state(d, rng.choice(["x", "block"]), rng))
        elif kind == "diagonal":
            p = rng.dirichlet(np.ones(d))
            p[rng.permutation(d)[: int(rng.integers(0, d))]] = 0.0
            mats.append(np.diag(p / p.sum()).astype(complex))
        else:
            mats.append(random_density(d, d if kind == "full" else int(rng.integers(1, d + 1)), rng).mat)
    return np.stack(mats)


def _one_state_formula(dist, m):
    """The relative entropy's and Schatten-2's closed forms for one state,
    written as they were before they ran over a stack; None for the other
    distances."""
    q = _dephased(m)
    if isinstance(dist, RelEntropyDistance):
        p = np.clip(np.linalg.eigvalsh(m), 0.0, None)
        r = np.clip(np.real(np.diagonal(m)), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(r > 0, r * np.log2(q), 0.0).sum()
        return max(float(np.sum(p[p > 0] * np.log2(p[p > 0])) - cross), 0.0), q
    if isinstance(dist, SchattenDistance) and dist.p == 2.0:
        return math.sqrt(float(np.sum(np.abs(m - np.diag(np.diagonal(m))) ** 2))), q
    return None


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: d.name)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mats=closed_form_stacks())
def test_closed_forms_match_one_state_closed_forms(dist, mats):
    # every state of a stack gets the bits of its closed form in a stack of
    # one, and the stacked relative entropy and Schatten-2 those of their
    # one-state formulas, whose masked sums regroup from 8 terms up
    for m, closed in zip(mats, dist.closed_forms(mats), strict=True):
        solo = dist.closed_forms(m[None])[0]
        if solo is None:
            assert closed is None
            continue
        assert closed[0] == solo[0] and np.array_equal(closed[1], solo[1])
        if (formula := _one_state_formula(dist, m)) is not None:
            assert closed[0] == formula[0] and np.array_equal(closed[1], formula[1])


def test_rel_entropy_stack_takes_one_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = stream(72)
    mats = np.stack([random_density(5, rank, rng).mat for rank in (1, 2, 3, 5, 5, 4)])
    results = minimize_diags(mats, "rel_entropy")
    assert calls == [mats.shape]
    assert all(res.converged and res.iterations == 0 for res in results)


def test_fidelity_gradient_only_below():
    # the gradient rows the evaluator takes below a threshold are the bits
    # of the full evaluation, and of a one-row evaluation
    rng = stream(73)
    evaluate = OneMinusFidelityDistance().diag_objective(np.stack([random_density(4, r, rng).mat for r in (4, 2, 1)]))
    Q = rng.dirichlet(np.ones(4), size=12)
    s = np.arange(12) % 3
    V, G = evaluate(Q, s)
    below = V + np.where(rng.random(12) < 0.5, 1e-3, -1e-3)
    V2, G2 = evaluate(Q, s, below=below)
    live = V < below
    assert 0 < live.sum() < 12
    assert np.array_equal(V2, V) and np.array_equal(G2[live], G[live]) and not G2[~live].any()
    for i in range(12):
        Vi, Gi = evaluate(Q[i : i + 1], s[i : i + 1])
        assert Vi[0] == V[i] and np.array_equal(Gi[0], G[i])


def test_renyi2_quadratic_form_matches_eigendecomposition():
    # the Newton objective's log2 T and dT/dq against the eigenvalues of
    # M = sigma^beta rho sigma^beta: T = Tr M^2, dT/dq_i = 2 a beta (M^2)_ii / q_i
    a, beta = 2.0, -0.25
    rng = stream(60)
    for d in (1, 2, 3, 5, 6):
        rho = random_density(d, int(rng.integers(1, d + 1)), rng).mat
        Q = rng.dirichlet(np.ones(d), size=8)
        form, s = SandwichedAlphaDivergence(a).newton_objective(rho[None]), np.zeros(8, dtype=int)
        V, g = form.exact(s, Q), form.derivatives(s, Q, np.zeros(8))[1]
        w = Q**beta
        lam, vec = np.linalg.eigh(rho[None, :, :] * (w[:, :, None] * w[:, None, :]))
        la = np.clip(lam, 0.0, None) ** a
        ref_v = np.log2(la.sum(axis=1)) / (a - 1.0)
        ref_g = 2 * a * beta * np.einsum("rik,rk->ri", np.abs(vec) ** 2, la) / Q
        assert np.max(np.abs(V - ref_v)) <= 1e-13
        assert np.max(np.abs(g - ref_g)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref_g))))
        assert np.max(np.abs(V - _grid_eval(rho, SandwichedAlphaDivergence(a), Q))) <= 1e-13


class TestGridOracle:
    def test_huge_schatten_order_is_the_operator_norm(self):
        rho = random_density(3, 3, stream(15)).mat
        Q = _grid_points(3, 0.05)
        top = np.abs(np.linalg.eigvalsh(rho[None, :, :] - Q[:, :, None] * np.eye(3)[None, :, :])).max(axis=1)
        assert np.max(np.abs(_grid_eval(rho, SchattenDistance(1e308), Q) - top)) <= 1e-12

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


@st.composite
def trace_norm_stacks(draw):
    """One to three states of one dimension d = 3..8 for the trace norm's
    Newton solver: every rank, generic and degenerate spectra, states near
    the maximally mixed state, and near-PSD matrices whose smallest
    eigenvalues are round-off negatives."""
    d = draw(st.integers(3, 8))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        rank = draw(st.integers(1, d))
        kind = draw(st.sampled_from(["generic", "degenerate", "near_mixed", "near_psd"]))
        weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=rank, max_size=rank)))
        if kind == "degenerate":
            weights = np.ones(rank)
        spec = np.zeros(d)
        spec[:rank] = weights / weights.sum()
        if kind == "near_psd" and rank < d:
            spec[rank:] = -draw(st.floats(1e-16, 1e-12))
        u = haar_unitary(d, stream(draw(st.integers(0, 2**32 - 1))))
        m = (u * spec) @ u.conj().T
        if kind == "near_mixed":
            eps = draw(st.floats(1e-4, 1e-2))
            m = (1.0 - eps) * np.eye(d) / d + eps * m
        mats.append((m + m.conj().T) / 2.0)
    return np.stack(mats)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mats=trace_norm_stacks())
def test_trace_norm_newton_properties(mats):
    dist = SchattenDistance(1.0)
    d = mats.shape[-1]
    for m, res in zip(mats, _simplex_newton(dist.newton_objective(mats)), strict=True):
        solo = _simplex_newton(dist.newton_objective(m[None]))[0]
        assert res.value == solo.value and np.array_equal(res.q, solo.q)
        assert (res.iterations, res.evals, res.converged) == (solo.iterations, solo.evals, solo.converged)
        assert res.converged and math.isfinite(res.value)
        assert np.all(res.q >= 0) and abs(res.q.sum() - 1.0) <= 1e-12
        assert res.value <= dist.between(m, np.eye(d) / d) + 1e-12
        assert res.value <= dist.between(m, np.diag(_dephased(m))) + 1e-12
        assert res.value <= _mirror_descent(m, dist, SimplexOptConfig())[0].value + 1e-10


@pytest.mark.parametrize("dist", [SchattenDistance(1.0), SandwichedAlphaDivergence(2.0)], ids=lambda d: d.name)
def test_newton_step_cap(dist, monkeypatch):
    # at a cap of one step no state converges, and each still returns the
    # best of its pool, as a run on its own does
    monkeypatch.setattr("cohpure.simplex._NEWTON_STEPS", 1)
    rng = stream(66)
    mats = np.stack([random_density(4, rank, rng).mat for rank in (4, 3, 2, 1, 4)])
    for m, res in zip(mats, minimize_diags(mats, dist), strict=True):
        solo = minimize_diag(m, dist)
        assert res.value == solo.value and np.array_equal(res.q, solo.q)
        assert (res.iterations, res.evals, res.converged) == (solo.iterations, solo.evals, solo.converged)
        assert res.method == "newton" and not res.converged and math.isfinite(res.value)
        corners = np.stack([np.full(4, 0.25), _dephased(m)])
        assert res.value <= dist.newton_objective(m[None]).exact(np.zeros(2, dtype=int), corners).min()


@pytest.mark.parametrize("mu", [1e-2, 1e-6])
@pytest.mark.parametrize(
    "spec,haar",
    [([-0.3, -0.05, 0.2, 0.4], True), ([-0.3, 0.1, 0.1, 0.4], True), ([-0.2, 0.0, 0.0, 0.3, 0.35], True),
     ([-0.2, 0.0, 0.0, 0.3, 0.35], False)],
    ids=["generic", "repeated", "repeated_zero", "exact_zero"],
)
def test_barrier_derivatives_match_finite_differences(spec, haar, mu):
    # rho - diag q has the spectrum ``spec`` at the test point q, in a Haar
    # or the incoherent eigenbasis; there the zeros are exact and take the
    # coincident branch of the Hessian
    d = len(spec)
    rng = stream(62)
    q = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
    u = haar_unitary(d, rng) if haar else np.eye(d)
    rho = np.diag(q) + (u * np.array(spec)) @ u.conj().T

    def derivatives(x, w=mu):
        lam, vec = np.linalg.eigh(rho - np.diag(x))
        return [a[0] for a in _barrier_derivatives(lam[None], vec[None], x[None], np.array([w]))]

    def value(x):
        return _barrier_value(np.linalg.eigvalsh(rho - np.diag(x))[None], x[None], np.array([mu]))[0]

    g, H, g_mu = derivatives(q)
    h = 1e-3 * mu
    fd_g, fd_H = np.empty(d), np.empty((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        fd_g[i] = (value(q + e) - value(q - e)) / (2 * h)
        fd_H[:, i] = (derivatives(q + e)[0] - derivatives(q - e)[0]) / (2 * h)
    fd_g_mu = (derivatives(q, mu + h)[0] - derivatives(q, mu - h)[0]) / (2 * h)
    for got, want in ((g, fd_g), (H, fd_H), (g_mu, fd_g_mu)):
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, float(np.max(np.abs(want))))
    assert np.allclose(H, H.T, rtol=0.0, atol=1e-9 * float(np.max(np.abs(H))))


def test_result_names_its_method():
    rng = stream(64)
    rho = random_density(3, 3, rng).mat
    assert minimize_diag(rho, SandwichedAlphaDivergence(2.0)).method == "newton"
    assert minimize_diag(rho, SandwichedAlphaDivergence(3.0), SimplexOptConfig(restarts=2)).method == "mirror_descent"
    assert minimize_diag(rho, "trace_norm").method == "newton"
    assert minimize_diag(random_density(2, 2, rng).mat, "trace_norm").method == "closed_form"
    assert [c_alpha_result(rho, a).method for a in (0.5, 1.0, 2.0)] == ["closed_form", "closed_form", "newton"]


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_sandwiched_objective_on_a_face_of_the_simplex(alpha):
    # q_i = 0 where rho's row i vanishes is inside the support condition:
    # the value is taken on the support, as the two-state evaluator takes it
    rho = np.outer([1.0, 1.0, 0.0], [1.0, 1.0, 0.0]).astype(complex) / 2.0
    evaluate = SandwichedAlphaDivergence(alpha).diag_objective(rho)
    Q = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        V, G = evaluate(Q)
    assert abs(V[0] - 1.0) <= 1e-12
    assert abs(V[0] - sandwiched_renyi(rho, np.diag([0.5, 0.5, 0.0]), alpha)) <= 1e-12
    # q_i = 0 on a row of rho that does not vanish violates it
    assert V[1] == V[2] == math.inf
    assert np.all(np.isfinite(G))
    if alpha == 2.0:
        # order 2's Newton objective takes its own values by the same rule
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            exact = SandwichedAlphaDivergence(alpha).newton_objective(rho[None]).exact(np.zeros(3, dtype=int), Q)
        assert abs(exact[0] - 1.0) <= 1e-12 and exact[1] == exact[2] == math.inf
    # the grid oracle reads the face the same way, and finds the optimum on it
    assert np.allclose(_grid_eval(rho, SandwichedAlphaDivergence(alpha), Q), V, rtol=0.0, atol=1e-12)
    value, q = grid_minimize(rho, SandwichedAlphaDivergence(alpha), resolution=1e-2)
    assert abs(value - 1.0) <= 1e-12 and q[2] == 0.0


def test_renyi_two_row_whose_squares_underflow_is_empty():
    # |rho_02|^2 underflows to 0, so order 2's row 2 of A = |rho_ij|^2 is
    # empty: the solver fixes q_2 = 0, and its exact value must read that
    # point by the same rule rather than as outside the support
    m = np.diag([0.5, 0.5, 0.0]).astype(complex)
    m[0, 2] = m[2, 0] = 1e-170
    res = c_alpha_result(m, 2.0)
    assert res.value == 0.0 and res.converged and res.method == "newton"
    assert np.array_equal(res.q, [0.5, 0.5, 0.0])
    assert c_alpha_result(m, 3.0).value == 0.0
    assert c_alpha_result(np.diag([0.5, 0.5, 0.0]), 2.0).value == 0.0


@pytest.mark.parametrize("zero_row", [False, True], ids=["full_support", "zero_row"])
def test_renyi_two_derivatives_match_finite_differences(zero_row):
    # T(q) = sum_ij |rho_ij|^2 (q_i q_j)^(-1/2); an index whose row of rho
    # vanishes is fixed at q_i = 0, with a zero gradient, row and column
    d = 5
    rng = stream(63)
    rho = random_density(d, 3, rng).mat
    q = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
    if zero_row:
        rho[1, :] = rho[:, 1] = 0.0
        rho /= np.trace(rho).real
        q[1] = 0.0
    q /= q.sum()
    form = SandwichedAlphaDivergence(2.0).newton_objective(rho[None])
    free = np.flatnonzero(~form.fixed[0])
    assert free.size == d - zero_row

    def derivatives(x):
        return form.derivatives(np.zeros(1, dtype=int), x[None], np.zeros(1))

    T, g, H, _ = (a if a is None else a[0] for a in derivatives(q))
    assert abs(math.log2(T) - SandwichedAlphaDivergence(2.0).diag_objective(rho)(q[None])[0][0]) <= 1e-13
    assert T == form.values(np.zeros(1, dtype=int), q[None], np.zeros(1))[0]
    h = 1e-6
    for i in free:
        e = np.zeros(d)
        e[i] = h
        fd_g = (form.values(np.zeros(1, dtype=int), (q + e)[None], np.zeros(1))[0]
                - form.values(np.zeros(1, dtype=int), (q - e)[None], np.zeros(1))[0]) / (2 * h)
        fd_H = (derivatives(q + e)[1][0] - derivatives(q - e)[1][0]) / (2 * h)
        assert abs(g[i] - fd_g) <= 1e-6 * max(1.0, abs(fd_g))
        assert np.max(np.abs(H[:, i] - fd_H)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd_H))))
    fixed = np.flatnonzero(form.fixed[0])
    assert not g[fixed].any() and not H[fixed].any() and not H[:, fixed].any()
    assert np.allclose(H, H.T, rtol=1e-14, atol=0.0)


@st.composite
def renyi_two_stacks(draw):
    """One to four states of one dimension d = 1..8 for sandwiched order 2's
    Newton solver: full rank, rank-deficient, zero-diagonal (a state on a
    subset of the indices), diagonal with zero entries, and MCMS."""
    d = draw(st.integers(1, 8))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    kinds = ["full", "deficient", "zero_diagonal", "diagonal", "mcms"]
    mats = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        rank = d if kind == "full" else int(rng.integers(1, d + 1))
        if kind == "zero_diagonal" and d >= 2:
            k = int(rng.integers(1, d))
            support = np.sort(rng.permutation(d)[:k])
            m = np.zeros((d, d), dtype=complex)
            m[np.ix_(support, support)] = random_density(k, int(rng.integers(1, k + 1)), rng).mat
        elif kind == "diagonal":
            p = rng.dirichlet(np.ones(d))
            p[rng.permutation(d)[: int(rng.integers(0, d))]] = 0.0
            m = np.diag(p / p.sum()).astype(complex)
        elif kind == "mcms":
            m = mcms(rng.dirichlet(np.ones(rank)), d).mat
        else:
            m = random_density(d, rank, rng).mat
        mats.append(m)
    return np.stack(mats)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mats=renyi_two_stacks())
def test_renyi_two_newton_properties(mats):
    dist = SandwichedAlphaDivergence(2.0)
    d = mats.shape[-1]
    for m, res in zip(mats, minimize_diags(mats, dist), strict=True):
        solo = minimize_diag(m, dist)
        assert res.value == solo.value and np.array_equal(res.q, solo.q)
        assert (res.iterations, res.evals, res.converged) == (solo.iterations, solo.evals, solo.converged)
        assert res.method == "newton" and res.converged and math.isfinite(res.value)
        assert np.all(res.q >= 0) and abs(res.q.sum() - 1.0) <= 1e-12
        assert abs(res.value - _mirror_descent(m, dist, SimplexOptConfig())[0].value) <= 1e-12
        # C_rel <= C_2 <= min(D~_2(rho, Delta rho), D_2(rho, 1/d))
        lam = np.clip(np.linalg.eigvalsh(m), 0.0, None)
        c_rel = RelEntropyDistance().closed_forms(m)[0][0]
        ceiling = min(sandwiched_renyi(m, np.diag(_dephased(m)), 2.0), math.log2(d) + math.log2(float(np.sum(lam**2))))
        assert c_rel - 1e-12 <= res.value <= ceiling + 1e-12
        if abs(float(np.sum(lam**2)) - 1.0) <= 1e-12:
            # pure: min_q (sum_i |psi_i|^2 q_i^(-1/2))^2 sits at q_i ~ |psi_i|^(4/3)
            p = np.real(np.diagonal(m))
            assert abs(res.value - 3.0 * math.log2(float(np.sum(np.clip(p, 0.0, None) ** (2.0 / 3.0))))) <= 1e-12
