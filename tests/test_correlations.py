import json
import math
from pathlib import Path

import numpy as np
import pytest

from cohpure import correlations
from cohpure.coherence import c_distance_result, c_distances, c_l1, c_rel_entropy, optimal_unitary
from cohpure.correlations import (
    Budget,
    c_N,
    cnot_activation,
    discord_upper,
    hierarchy_report,
    i_max_check,
    max_hierarchy_check,
    negativity,
    negativity_purity_bound,
    unitary_maximize,
)
from cohpure.linalg import DomainError, ValidationError, haar_unitary, kron, stream
from cohpure.purity import p_distance
from cohpure.simplex import MENU, SimplexOptConfig, get_distance
from cohpure.states import (
    _trusted,
    diagonal,
    from_bloch,
    maximally_mixed,
    mutual_information,
    pure,
    random_density,
    validate,
)
from cohpure.verify import ULTRA_OPT

BELL = pure([1, 0, 0, 1])


def each(f):
    """A list objective for unitary_maximize from a one-state function."""
    return lambda states_: [f(s) for s in states_]


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestUnitaryMaximize:
    def test_attains_known_coherence_ceiling(self):
        rho = diagonal([0.9, 0.1])
        ceiling = 1.0 - binary_entropy(0.9)
        res = unitary_maximize(each(c_rel_entropy), rho, budget=Budget(64, 200), rng=stream(1))
        assert res.best_value >= ceiling - 1e-3
        assert res.best_value <= ceiling + 1e-9

    def test_maximally_mixed_is_flat(self):
        res = unitary_maximize(each(c_rel_entropy), maximally_mixed(3), budget=Budget(8, 4), rng=stream(2))
        assert abs(res.best_value) <= 1e-9

    def test_bell_mutual_information_at_identity(self):
        res = unitary_maximize(
            each(lambda s: mutual_information(s, (2, 2))), BELL, budget=Budget(4, 2), rng=stream(3)
        )
        assert res.best_value >= 2.0 - 1e-12

    def test_result_invariants(self):
        rho = random_density(3, 2, stream(4))
        res = unitary_maximize(each(c_rel_entropy), rho, budget=Budget(6, 3), rng=stream(5))
        u = res.best_unitary
        conj = validate(u @ rho.mat @ u.conj().T)
        assert abs(c_rel_entropy(conj) - res.best_value) <= 1e-10
        assert res.best_value >= c_rel_entropy(rho) - 1e-12  # identity included
        assert res.evals >= 7

    def test_injected_candidate_attains_ceiling(self):
        rho = random_density(4, 3, stream(6))
        ceiling = p_distance(rho, "rel_entropy")
        res = unitary_maximize(
            each(c_rel_entropy),
            rho,
            budget=Budget(2, 0),
            rng=stream(7),
            extra_candidates=[optimal_unitary(rho)],
        )
        assert abs(res.best_value - ceiling) <= 1e-9

    def test_never_exceeds_closed_ceiling(self):
        rng = stream(8)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            ceiling = p_distance(rho, "rel_entropy")
            res = unitary_maximize(each(c_rel_entropy), rho, budget=Budget(4, 2), rng=rng)
            assert res.best_value <= ceiling + 1e-9

    def test_product_structure_stays_product(self):
        rho = random_density(4, 2, stream(9))
        res = unitary_maximize(
            each(lambda s: mutual_information(s, (2, 2))),
            rho,
            budget=Budget(4, 2),
            rng=stream(10),
            dims=(2, 2),
        )
        # mutual information is invariant under product unitaries
        assert abs(res.best_value - mutual_information(rho, (2, 2))) <= 1e-9

    def test_zero_budget_rejected(self):
        with pytest.raises(DomainError):
            unitary_maximize(each(c_rel_entropy), maximally_mixed(2), budget=Budget(0, 0), rng=stream(0))

    @pytest.mark.parametrize("dims,trials", [(None, 2 * 16), ((2, 2), 2 * (4 + 4))], ids=["global", "product"])
    def test_one_objective_call_per_batch(self, dims, trials):
        # one call on all candidates, then one per climb pass on its
        # 2 * sum_f d_f^2 trial states
        sizes = []

        def objective(states_):
            sizes.append(len(states_))
            return [c_rel_entropy(s) for s in states_]

        extra = [haar_unitary(4, stream(13))] if dims is None else [(haar_unitary(2, stream(13)),) * 2]
        res = unitary_maximize(
            objective, random_density(4, 3, stream(12)), Budget(5, 3), stream(14), dims, extra_candidates=extra
        )
        assert sizes == [1 + len(extra) + 5] + [trials] * 3
        assert res.evals == sum(sizes)


def _recorded_searches(monkeypatch):
    """The OptResults of every unitary_maximize call made through the
    correlations module."""
    results = []
    original = correlations.unitary_maximize

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(correlations, "unitary_maximize", recording)
    return results


def _search_cases():
    """Seeded searches pinned by tests/golden/unitary_search.json: discord
    searches at the hierarchy command's simplex config and the default
    one, a global coherence search at d = 3 and an I_max check."""
    cases = {}
    for distance in ("trace_norm", "one_minus_fidelity"):
        for rank in (2, 4):
            seed = 70 + rank
            for cfg_name, opt in (
                ("hierarchy", SimplexOptConfig(polish=False)),
                ("default", None),
            ):
                cases[f"discord_{distance}_rank{rank}_{cfg_name}"] = (
                    lambda distance=distance, seed=seed, opt=opt, rank=rank: discord_upper(
                        random_density(4, rank, stream(seed)), (2, 2), distance, Budget(2, 1), stream(seed + 1), opt
                    )
                )
    cases["c_distance_trace_norm_d3"] = lambda: correlations.unitary_maximize(
        lambda ss: c_distances(ss, "trace_norm", ULTRA_OPT),
        random_density(3, 3, stream(80)),
        budget=Budget(3, 2),
        rng=stream(81),
    )
    cases["i_max_check_rank2"] = lambda: i_max_check(
        random_density(4, 2, stream(90)), (2, 2), Budget(128, 300), stream(91)
    )
    return cases


SEARCH_GOLDEN = json.loads((Path(__file__).parent / "golden" / "unitary_search.json").read_text())


@pytest.mark.parametrize("name", sorted(_search_cases()))
def test_search_golden(name, monkeypatch):
    # generated before the searches scored their trial states as stacks:
    # the batched objectives must reproduce the one-state-at-a-time bits
    results = _recorded_searches(monkeypatch)
    _search_cases()[name]()
    # a one-state search runs through unitary_maximize, so each case
    # records exactly one OptResult
    (res,) = results
    expected = SEARCH_GOLDEN[name]
    unitary = np.array([[complex(re, im) for re, im in row] for row in expected["best_unitary"]])
    assert res.best_value == expected["best_value"] and res.evals == expected["evals"]
    assert np.array_equal(res.best_unitary, unitary)


class TestLockstepSearch:
    @pytest.mark.parametrize("distance", ["rel_entropy", "trace_norm"])
    def test_matches_one_discord_upper_per_state(self, distance, monkeypatch):
        # every state gets the OptResult of its own discord_upper search;
        # no trial raises the maximally mixed state, so its climb halves
        # every pass and ends passes before the others
        rng = stream(40)
        states_ = [random_density(4, rank, rng) for rank in (1, 2, 4)] + [maximally_mixed(4)]
        budget = Budget(2, 22)
        want = _recorded_searches(monkeypatch)
        for rho in states_:
            discord_upper(rho, (2, 2), distance, budget, stream(41), ULTRA_OPT)
        assert len({res.evals for res in want}) > 1
        assert any(res.improved_by_refinement > 0 for res in want)
        got = correlations._maximize_all(
            correlations._neg_coherence(distance, ULTRA_OPT), states_, budget, [stream(41) for _ in states_], (2, 2)
        )
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a.best_value, b.best_value) and np.array_equal(a.evals, b.evals)
            assert np.array_equal(a.best_unitary, b.best_unitary)

    def test_max_hierarchy_matches_one_search_per_candidate(self):
        # the outer search over a discord_upper call per global candidate,
        # each on a fresh stream of the drawn inner seed; inner climbs
        # that refine stop improving at different passes
        rho = random_density(4, 3, stream(42))
        rep = max_hierarchy_check(rho, (2, 2), "trace_norm", Budget(1, 1), stream(43), Budget(2, 2), ULTRA_OPT)
        rng = stream(43)
        inner_seed = int(rng.integers(0, 2**63 - 1))
        want = unitary_maximize(
            each(lambda s: discord_upper(s, (2, 2), "trace_norm", Budget(2, 2), stream(inner_seed), ULTRA_OPT)),
            rho,
            Budget(1, 1),
            rng,
        )
        assert rep.d_max_lower == want.best_value

    @pytest.mark.parametrize("distance", ["trace_norm", "one_minus_fidelity"])
    def test_task_matches_plain_objective(self, distance, monkeypatch):
        # the discord searches as a task driven by _lockstep: the same
        # OptResults as _maximize_all, and its first round's minima are
        # those of the candidates
        rng = stream(48)
        states_ = [random_density(4, rank, rng) for rank in (1, 2, 4)]
        mats = np.stack([rho.mat for rho in states_])
        budget = Budget(2, 3)
        stacks = []
        original = correlations.minimize_diags

        def minimize(stack, *args):
            stacks.append(stack)
            return original(stack, *args)

        monkeypatch.setattr(correlations, "minimize_diags", minimize)
        streams = [stream(49) for _ in states_]
        task = correlations._minima_search(mats, budget, streams, (2, 2), get_distance(distance), -1)
        ((got, first),) = correlations._lockstep([task], ULTRA_OPT)
        monkeypatch.undo()
        want = correlations._maximize_all(
            correlations._neg_coherence(distance, ULTRA_OPT), states_, budget, [stream(49) for _ in states_], (2, 2)
        )
        assert len(stacks) == 1 + budget.refine_iters and len(first) == len(stacks[0]) == 3 * (1 + budget.restarts)
        for a, b in zip(got, want, strict=True):
            assert a.best_value == b.best_value and a.evals == b.evals
            assert a.improved_by_refinement == b.improved_by_refinement
            assert np.array_equal(a.best_unitary, b.best_unitary)
        for a, b in zip(first, correlations.minimize_diags(stacks[0], distance, ULTRA_OPT), strict=True):
            assert a.value == b.value and np.array_equal(a.q, b.q) and a.evals == b.evals

    def test_task_list_matches_one_search_per_pair(self):
        # the theorem2 suite's searches: every (state, distance) pair of
        # d = 2..6 as one task on one shared stream, each round minimized
        # per (distance, d), against one unitary_maximize per pair in turn
        states_ = [random_density(d, rank, stream(46)) for d in range(2, 7) for rank in (1, d)]
        cases = [
            (rho, get_distance(name), Budget(2, 2) if rho.dim <= 4 else Budget(3, 0)) for rho in states_ for name in MENU
        ]
        rng = stream(47)
        got = correlations._lockstep(
            [correlations._minima_search(rho.mat[None], budget, [rng], None, dist, 1) for rho, dist, budget in cases],
            ULTRA_OPT,
        )
        rng = stream(47)
        for ((a,), _), (rho, dist, budget) in zip(got, cases, strict=True):
            b = unitary_maximize(lambda ss, _d=dist: c_distances(ss, _d, ULTRA_OPT), rho, budget, rng)
            assert a.best_value == b.best_value and a.evals == b.evals
            assert a.improved_by_refinement == b.improved_by_refinement
            assert np.array_equal(a.best_unitary, b.best_unitary)
        assert any(a.improved_by_refinement > 0 for ((a,), _) in got)


def _assert_same_reports(got, want):
    """Two (HierarchyReport, MaxHierarchyReport) pairs agree bit for bit."""
    (rep, mrep), (rep_w, mrep_w) = got, want
    for field in ("distance", "purity", "coherence_n", "discord_upper"):
        assert getattr(rep, field) == getattr(rep_w, field), field
    assert np.array_equal(rep.witness_q, rep_w.witness_q)
    assert np.array_equal(rep.witness_product_unitary, rep_w.witness_product_unitary)
    assert mrep == mrep_w


def _one_then_other(rho, dims, distance, budget, rng, max_budget, max_rng, inner_budget, opt):
    return (
        hierarchy_report(rho, dims, distance, budget, rng, opt),
        max_hierarchy_check(rho, dims, distance, max_budget, max_rng, inner_budget, opt),
    )


class TestHierarchyChecks:
    """hierarchy_checks runs the report's search, the MCMS and the maximal
    discord search in lockstep; it must return what hierarchy_report and
    then max_hierarchy_check return."""

    STATES = {
        "bell": lambda: BELL,
        "rank1": lambda: random_density(4, 1, stream(50)),
        "rank2": lambda: random_density(4, 2, stream(51)),
        "rank4": lambda: random_density(4, 4, stream(52)),
    }

    @pytest.mark.parametrize("shared", [False, True], ids=["two_streams", "one_stream"])
    @pytest.mark.parametrize("state", sorted(STATES))
    @pytest.mark.parametrize("distance", MENU)
    def test_equals_the_two_calls(self, distance, state, shared):
        # two streams as the CLI passes them, or one read by both searches
        # in turn as the theorem2 suite passes it
        rho = self.STATES[state]()

        def call(run):
            rng = stream(53)
            max_rng = rng if shared else stream(54)
            return run(rho, (2, 2), distance, Budget(2, 2), rng, Budget(1, 1), max_rng, Budget(1, 0), ULTRA_OPT)

        _assert_same_reports(call(correlations.hierarchy_checks), call(_one_then_other))

    @pytest.mark.parametrize("dims", [(1, 4), (4, 1), (2, 2)])
    @pytest.mark.parametrize("distance", MENU)
    def test_no_restarts_and_one_dimensional_factors(self, distance, dims):
        # Budget(0, 3): only the identity is scored before the climbs
        rho = random_density(4, 3, stream(55))

        def call(run):
            return run(rho, dims, distance, Budget(0, 3), stream(56), Budget(0, 3), stream(57), Budget(1, 0), ULTRA_OPT)

        _assert_same_reports(call(correlations.hierarchy_checks), call(_one_then_other))

    def test_list_form_equals_one_call_per_pair(self):
        # every (state, distance) pair in lockstep on one shared stream, as
        # the theorem2 suite runs them, against one call per pair in turn
        rng = stream(58)
        cases = [(random_density(4, rank, rng), name) for rank in (1, 2, 4) for name in MENU]

        def budgets(rng):
            return Budget(2, 1), rng, Budget(1, 1), rng, Budget(1, 0), ULTRA_OPT

        got = correlations._hierarchy_checks(cases, (2, 2), *budgets(stream(59)))
        rng = stream(59)
        want = [correlations.hierarchy_checks(rho, (2, 2), name, *budgets(rng)) for rho, name in cases]
        for a, b in zip(got, want, strict=True):
            _assert_same_reports(a, b)


def _oracle_step(d, i, j, kind, eps):
    """exp(i eps H) for one orthonormal Hermitian generator H."""
    g = np.eye(d, dtype=complex)
    if kind == "diag":
        g[i, i] = np.exp(1j * eps)
        return g
    t = eps / math.sqrt(2.0)
    c, s = math.cos(t), math.sin(t)
    g[i, i] = g[j, j] = c
    g[i, j], g[j, i] = (1j * s, 1j * s) if kind == "real" else (s, -s)
    return g


def _per_move_search(objective, rho, budget, rng, dims=None, extra=()):
    """unitary_maximize one trial at a time: np.kron products, and one
    step, one product and one conjugation per move, each trial state scored
    on its own. Returns (best value, best unitary, evals, improvement)."""
    factor_dims = (rho.dim,) if dims is None else tuple(dims)

    def compose(factors):
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        return full

    def value(factors):
        u = compose(factors)
        return float(objective([_trusted(u @ rho.mat @ u.conj().T)])[0])

    cands = [tuple(np.eye(fd, dtype=complex) for fd in factor_dims), *extra]
    cands += [tuple(haar_unitary(fd, rng) for fd in factor_dims) for _ in range(budget.restarts)]
    vals = [value(c) for c in cands]
    best = int(np.argmax(vals))
    factors, val, evals = list(cands[best]), vals[best], len(vals)
    eps, start = correlations.EPS_START, val
    for _ in range(budget.refine_iters):
        if eps <= correlations.EPS_STOP:
            break
        best_move, best_val = None, val
        for f, fd in enumerate(factor_dims):
            pairs = [(i, j, kind) for i in range(fd) for j in range(i + 1, fd) for kind in ("real", "imag")]
            for i, j, kind in [(i, i, "diag") for i in range(fd)] + pairs:
                for e in (eps, -eps):
                    step = _oracle_step(fd, i, j, kind, e)
                    trial = list(factors)
                    trial[f] = factors[f] @ step
                    v = value(trial)
                    evals += 1
                    if v > best_val + 1e-15:
                        best_move, best_val = (f, step), v
        if best_move is None:
            eps /= 2.0
        else:
            f, step = best_move
            factors[f] = factors[f] @ step
            val = best_val
    return val, compose(factors), evals, val - start


class TestStackedPass:
    @pytest.mark.parametrize(
        "dims,d,distance",
        [(None, 3, "rel_entropy"), (None, 4, "schatten_2"), ((2, 2), 4, "rel_entropy"), ((1, 4), 4, "schatten_2"),
         ((4, 1), 4, "rel_entropy"), ((2, 3), 6, "schatten_2"), ((1, 1), 1, "rel_entropy")],
    )
    # no restarts: only the identity and the injected candidate are scored
    @pytest.mark.parametrize("budget", [Budget(3, 6), Budget(0, 3)], ids=["restarts", "no_restarts"])
    def test_matches_per_move_oracle(self, dims, d, distance, budget):
        # lockstep climbs whose passes are stacked end where one search per
        # state, one move at a time, ends
        rng = stream(44)
        rhos = [random_density(d, rank, rng) for rank in sorted({1, max(d - 1, 1), d})]
        extra = [haar_unitary(d, rng)] if dims is None else [tuple(haar_unitary(fd, rng) for fd in dims)]
        def objective(ss):
            return c_distances(ss, distance)

        got = correlations._maximize_all(objective, rhos, budget, [stream(45 + n) for n in range(len(rhos))], dims, extra)
        refined = 0
        for n, (rho, res) in enumerate(zip(rhos, got, strict=True)):
            value, unitary, evals, improved = _per_move_search(
                objective, rho, budget, stream(45 + n), dims, [extra[0] if dims else (extra[0],)]
            )
            assert res.best_value == value and res.evals == evals and res.improved_by_refinement == improved
            assert np.array_equal(res.best_unitary, unitary)
            refined += improved > 0
        assert d == 1 or refined > 0

    @pytest.mark.parametrize("restarts", [5, 0])
    @pytest.mark.parametrize("factor_dims", [(1, 4), (4, 1), (2, 3), (3,)])
    def test_batched_haar_draws_match_sequential(self, factor_dims, restarts):
        draws = correlations._haar_draws([stream(46), stream(47)], factor_dims, restarts)
        for seed, tuples in zip((46, 47), draws, strict=True):
            rng = stream(seed)
            assert len(tuples) == restarts
            for got in tuples:
                for u, fd in zip(got, factor_dims, strict=True):
                    assert np.array_equal(u, haar_unitary(fd, rng))

    def test_generator_steps_are_cached_read_only(self):
        steps = correlations._generator_steps(3, 0.15)
        assert steps.shape == (18, 3, 3) and not steps.flags.writeable
        assert correlations._generator_steps(3, 0.15) is steps
        with pytest.raises(ValueError):
            steps[0, 0, 0] = 0.0
        assert np.max(np.abs(np.conj(steps).swapaxes(1, 2) @ steps - np.eye(3))) <= 1e-15


class TestNegativity:
    def test_bell(self):
        assert abs(negativity(BELL, (2, 2)) - 0.5) <= 1e-12

    def test_product_state(self):
        rho = validate(kron(diagonal([0.7, 0.3]).mat, from_bloch((0.5, 0, 0)).mat))
        assert negativity(rho, (2, 2)) <= 1e-12

    def test_maximally_mixed(self):
        assert negativity(maximally_mixed(4), (2, 2)) <= 1e-12

    def test_local_unitary_invariance(self):
        rng = stream(11)
        for _ in range(20):
            rho = random_density(4, int(rng.integers(1, 5)), rng)
            local = kron(haar_unitary(2, rng), haar_unitary(2, rng))
            rotated = validate(local @ rho.mat @ local.conj().T)
            assert abs(negativity(rho, (2, 2)) - negativity(rotated, (2, 2))) <= 1e-9


class TestCnotActivation:
    def test_plus_control_gives_bell(self):
        act = cnot_activation(pure([1, 1]))
        assert np.max(np.abs(act.rho_out.mat - BELL.mat)) <= 1e-12
        assert abs(act.negativity - 0.5) <= 1e-12

    def test_diagonal_control_stays_separable(self):
        act = cnot_activation(diagonal([0.3, 0.7]))
        assert act.negativity <= 1e-12

    def test_bloch_control(self):
        act = cnot_activation(from_bloch((0.6, 0, 0)))
        assert abs(act.negativity - 0.3) <= 1e-10

    def test_identity_negativity_equals_half_l1(self):
        rng = stream(12)
        for _ in range(25):
            rho = random_density(2, int(rng.integers(1, 3)), rng)
            act = cnot_activation(rho)
            assert abs(act.negativity - act.half_c_l1) <= 1e-10

    def test_rejects_non_qubit(self):
        with pytest.raises(ValidationError):
            cnot_activation(maximally_mixed(3))


class TestNegativityPurityBound:
    def test_plus_minus_mixture(self):
        rho = validate(0.9 * pure([1, 1]).mat + 0.1 * pure([1, -1]).mat)
        nb = negativity_purity_bound(rho)
        assert abs(nb.negativity - 0.4) <= 1e-10
        assert abs(nb.bound - 0.8) <= 1e-10
        assert abs(nb.c_l1 - 0.8) <= 1e-10
        assert nb.holds

    def test_maximally_mixed(self):
        nb = negativity_purity_bound(maximally_mixed(2))
        assert nb.negativity <= 1e-12 and nb.bound <= 1e-6 and nb.holds

    def test_pure_plus(self):
        nb = negativity_purity_bound(pure([1, 1]))
        assert abs(nb.negativity - 0.5) <= 1e-10
        assert abs(nb.bound - 1.0) <= 1e-9
        assert abs(nb.c_l1 - 1.0) <= 1e-12

    def test_holds_on_seeded_qubits(self):
        rng = stream(13)
        for _ in range(50):
            rho = random_density(2, int(rng.integers(1, 3)), rng)
            assert negativity_purity_bound(rho).holds


class TestCompositeCoherence:
    def test_bell_rel_entropy(self):
        assert abs(c_N(BELL, (2, 2), "rel_entropy") - 1.0) <= 1e-9

    def test_product_of_diagonals(self):
        rho = validate(kron(diagonal([0.6, 0.4]).mat, diagonal([0.2, 0.8]).mat))
        for name in MENU:
            assert c_N(rho, (2, 2), name) <= 1e-9

    def test_maximally_mixed(self):
        assert c_N(maximally_mixed(4), (2, 2), "rel_entropy") <= 1e-12

    def test_dims_must_match(self):
        # (-2) * (-2) = 4: negative factors fail on their own
        for dims in ((2, 3), (-2, -2)):
            with pytest.raises(ValidationError):
                c_N(BELL, dims, "rel_entropy")


class TestBipartiteDims:
    """Every bipartite function takes its dims through one check: two
    factors, each at least 1, whose product is the state's dimension."""

    CALLS = {
        "c_N": lambda rho, dims: c_N(rho, dims, "rel_entropy"),
        "discord_upper": lambda rho, dims: discord_upper(rho, dims, "rel_entropy", Budget(1, 0), stream(70)),
        "hierarchy_checks": lambda rho, dims: correlations.hierarchy_checks(
            rho, dims, "rel_entropy", Budget(1, 0), stream(70), Budget(1, 0), stream(71), Budget(1, 0)
        ),
        "i_max_check": lambda rho, dims: i_max_check(rho, dims, Budget(1, 0), stream(70)),
        "mutual_information": mutual_information,
        "negativity": negativity,
    }

    @pytest.mark.parametrize(
        "dim,dims",
        [(4, (2, 2, 1)), (4, (4,)), (4, (-2, -2)), (4, (0, 4)), (9, (2, 2)), (4, (3, 3))],
        ids=["three_factors", "one_factor", "negative_factors", "zero_factor", "product_below", "product_above"],
    )
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejects_malformed_dims(self, call, dim, dims):
        rho = random_density(dim, 2, stream(72))
        with pytest.raises(ValidationError) as err:
            self.CALLS[call](rho, dims)
        assert err.value.invariant == "dimension"

    @pytest.mark.parametrize("dims", [(2.7, 2.2), ("2", "2")], ids=["fractional", "strings"])
    @pytest.mark.parametrize("call", ["c_N", "mutual_information", "negativity"])
    def test_rejects_factors_that_are_not_integers(self, call, dims):
        # int() would read both as (2, 2), which fits a 4-dim state
        rho = random_density(4, 2, stream(72))
        with pytest.raises(ValidationError) as err:
            self.CALLS[call](rho, dims)
        assert err.value.invariant == "dimension"

    @pytest.mark.parametrize(
        "dims", [(2, 2), (np.int64(2), np.int32(2)), np.array([2, 2])], ids=["int", "numpy", "array"]
    )
    def test_accepts_python_and_numpy_integers(self, dims):
        rho = random_density(4, 2, stream(72))
        assert c_N(rho, dims, "rel_entropy") == c_N(rho, (2, 2), "rel_entropy")
        assert negativity(rho, dims) == negativity(rho, (2, 2))
        assert mutual_information(rho, dims) == mutual_information(rho, (2, 2))


class TestDiscordUpper:
    def test_product_of_diagonals_is_free(self):
        rho = validate(kron(diagonal([0.6, 0.4]).mat, diagonal([0.2, 0.8]).mat))
        assert discord_upper(rho, (2, 2), "rel_entropy", Budget(2, 1), stream(14)) <= 1e-12

    def test_classically_correlated_state(self):
        rho = validate(0.5 * pure([1, 0, 0, 0]).mat + 0.5 * pure([0, 0, 0, 1]).mat)
        assert discord_upper(rho, (2, 2), "rel_entropy", Budget(2, 1), stream(15)) <= 1e-12

    def test_bell_discord_is_one(self):
        val = discord_upper(BELL, (2, 2), "rel_entropy", Budget(8, 6), stream(16))
        assert val >= 1.0 - 1e-6
        assert val <= 1.0 + 1e-12

    def test_never_exceeds_composite_coherence(self):
        rng = stream(17)
        for _ in range(5):
            rho = random_density(4, int(rng.integers(1, 5)), rng)
            cn = c_N(rho, (2, 2), "rel_entropy")
            assert discord_upper(rho, (2, 2), "rel_entropy", Budget(2, 1), rng) <= cn + 1e-12


class TestIMaxCheck:
    def test_bell(self):
        chk = i_max_check(BELL, (2, 2), Budget(2, 1), stream(18))
        assert abs(chk.i_max_lower - 2.0) <= 1e-9
        assert abs(chk.p_r - 2.0) <= 1e-12
        assert abs(chk.gap) <= 1e-9

    def test_maximally_mixed(self):
        chk = i_max_check(maximally_mixed(4), (2, 2), Budget(2, 1), stream(19))
        assert chk.i_max_lower <= 1e-9 and chk.p_r <= 1e-12

    def test_rank_two_gap_closes(self):
        rng = stream(20)
        for _ in range(3):
            rho = random_density(4, 2, rng)
            chk = i_max_check(rho, (2, 2), Budget(128, 300), rng)
            assert chk.i_max_lower <= chk.p_r + 1e-9
            assert chk.gap <= 5e-3

    @pytest.mark.parametrize("n", [2, 3])
    def test_bell_rotation_attains_purity(self, n):
        # a Bell-diagonal state has maximally mixed marginals, so the
        # witness reaches P_r without any search
        rng = stream(30)
        for rank in (1, 2, n + 1, n * n):
            chk = i_max_check(random_density(n * n, rank, rng), (n, n), Budget(1, 0), rng)
            assert abs(chk.gap) <= 1e-12

    def test_requires_equal_subsystems(self):
        rho = random_density(6, 2, stream(21))
        with pytest.raises(ValidationError):
            i_max_check(rho, (2, 3), Budget(2, 1), stream(22))


class TestHierarchy:
    def test_bell_rel_entropy_values(self):
        rep = hierarchy_report(BELL, (2, 2), "rel_entropy", Budget(4, 2), stream(23))
        assert abs(rep.purity - 2.0) <= 1e-9
        assert abs(rep.coherence_n - 1.0) <= 1e-9
        assert abs(rep.discord_upper - 1.0) <= 1e-6
        assert rep.chain_ok

    def test_maximally_mixed_all_zero(self):
        rep = hierarchy_report(maximally_mixed(4), (2, 2), "rel_entropy", Budget(2, 1), stream(24))
        assert rep.purity <= 1e-12 and rep.coherence_n <= 1e-12 and rep.discord_upper <= 1e-12
        assert rep.chain_ok

    @pytest.mark.parametrize("name", MENU)
    def test_chain_on_seeded_states(self, name):
        rng = stream(25)
        for _ in range(5):
            rho = random_density(4, int(rng.integers(1, 5)), rng)
            rep = hierarchy_report(rho, (2, 2), name, Budget(2, 1), rng, opt=ULTRA_OPT)
            assert rep.chain_ok

    @pytest.mark.parametrize("name", MENU)
    def test_coherence_is_that_of_rho(self, name):
        # C_N and its witness come from the discord search's identity
        # candidate, I rho I = rho: bit for bit rho's own minimization
        rng = stream(44)
        for rank in (1, 2, 4):
            rho = random_density(4, rank, rng)
            for opt in (None, SimplexOptConfig(polish=False)):
                rep = hierarchy_report(rho, (2, 2), name, Budget(1, 0), stream(45), opt)
                res = c_distance_result(rho, name, opt)
                assert rep.coherence_n == res.value and np.array_equal(rep.witness_q, res.q)

    def test_witnesses_recorded(self):
        rep = hierarchy_report(BELL, (2, 2), "rel_entropy", Budget(2, 1), stream(26))
        assert rep.witness_q.shape == (4,)
        assert rep.witness_product_unitary.shape == (4, 4)


class TestMaxHierarchy:
    def test_maximally_mixed_all_zero(self):
        rep = max_hierarchy_check(maximally_mixed(4), (2, 2), "rel_entropy", Budget(2, 1), stream(27))
        assert rep.purity <= 1e-12
        assert rep.c_max_lower <= 1e-9
        assert rep.d_max_lower <= 1e-9
        assert rep.ok

    def test_bell_coherence_reaches_purity(self):
        rep = max_hierarchy_check(
            BELL, (2, 2), "rel_entropy", Budget(24, 80), stream(28), inner_budget=Budget(2, 1)
        )
        assert abs(rep.purity - 2.0) <= 1e-9
        assert rep.c_max_lower >= 2.0 - 1e-3
        assert rep.ok

    @pytest.mark.parametrize("name", MENU)
    def test_bell_c_max_read_off_mcms(self, name):
        rep = max_hierarchy_check(BELL, (2, 2), name, Budget(1, 0), stream(31), inner_budget=Budget(1, 0))
        # the fidelity objective reads up to ~1e-8 below on the pure MCMS
        below = 1e-7 if name == "one_minus_fidelity" else 1e-12
        assert rep.purity - below <= rep.c_max_lower <= rep.purity + 1e-12

    @pytest.mark.parametrize("name", MENU)
    def test_bounded_by_purity_on_seeded_states(self, name):
        rng = stream(29)
        for _ in range(3):
            rho = random_density(4, 3, rng)
            rep = max_hierarchy_check(
                rho, (2, 2), name, Budget(2, 0), rng, inner_budget=Budget(1, 0), opt=ULTRA_OPT
            )
            assert rep.ok
            assert rep.optimizer_gap >= -1e-9
