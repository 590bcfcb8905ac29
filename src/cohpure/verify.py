"""Named verification suites driving the library's property checks:
maximal-coherence universality and the MIO channel constructions
(``theorem1``), the exact maximal-coherence/purity identity with the
hierarchy checks (``theorem2``), the purity axioms (``axioms``), the
single-shot majorization formulas (``majorization``), and the
CNOT-activation identities (``appendixG``).

Each suite returns a machine-readable report; expected failures (e.g.
normalization of the linear purity) are asserted as such and marked
``known_negative``.

Every property has one private check function that takes its sample
(states, unitaries, channel cases or child streams) and returns its
``CheckResult``s. A suite draws its samples from one seeded stream and
calls the check functions in order; the acceptance tests call the same
functions on their own recorded samples.

The theorem2 checks run the minimizations and searches of all their
(state, distance) pairs together as tasks of ``correlations._lockstep``,
which makes one ``minimize_diags`` call per (distance, d) per round; the
searches draw from the suite's stream as one search at a time would.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import coherence, correlations, linalg, majorization, purity, states
from .coherence import apply_channel, c_l1, c_rel_entropy, mcms, optimal_unitary
from .correlations import Budget
from .linalg import DomainError
from .simplex import MENU, PetzAlphaDivergence, SandwichedAlphaDivergence, SimplexOptConfig, get_distance
from .states import random_density

__all__ = ["CheckResult", "SuiteReport", "run_suite", "SUITES"]

# every monotone of the suites by closed form or Newton alone: the
# fidelity's Newton solve replaces its mirror descent, so no suite runs it
ULTRA_OPT = SimplexOptConfig(polish=False)
# the menu distances, then the divergences of c_alpha at orders 0.5 and 2
MONOTONES = (*MENU, PetzAlphaDivergence(0.5), SandwichedAlphaDivergence(2.0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    known_negative: bool = False


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    trials: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _seeded_states(rng, count, dims):
    out = []
    for child in rng.spawn(count):
        d = int(child.integers(dims[0], dims[1] + 1))
        out.append(random_density(d, int(child.integers(1, d + 1)), child))
    return out


def _random_io_case(rng):
    """(rho, channel): a random state of d = 2..4 and a random incoherent
    unitary or dephasing mixture, drawn from ``rng`` in that order."""
    d = int(rng.integers(2, 5))
    rho = random_density(d, int(rng.integers(1, d + 1)), rng)
    kind = ("incoherent_unitary", "dephasing_mixture")[int(rng.integers(0, 2))]
    return rho, coherence.random_free_channel(kind, d, rng)


# ---------------------------------------------------------------------------
# theorem1: universality of the MCMS and the MIO channel constructions


def _mcms_universality(cases) -> list:
    """No rotation of an MCMS raises a monotone above its MCMS value.
    ``cases``: (rho_max, unitaries) pairs."""
    worst_closed, worst_opt = 0.0, 0.0
    for rho_max, unitaries in cases:
        rotated = [states.validate(u @ rho_max.mat @ np.conj(u).T) for u in unitaries]
        ceiling_r = c_rel_entropy(rho_max)
        worst_closed = max([worst_closed] + [c_rel_entropy(r) - ceiling_r for r in rotated])
        for monotone in MONOTONES:
            # rho_max and its rotations, minimized as one stack
            ceiling, *values = coherence.c_distances([rho_max, *rotated], monotone, ULTRA_OPT)
            worst_opt = max([worst_opt] + [v - ceiling for v in values])
    return [
        CheckResult(
            "mcms_universal_closed_form",
            worst_closed <= 1e-9,
            f"max excess of C_r over C_r(rho_max): {worst_closed:.3g}",
        ),
        CheckResult(
            "mcms_universal_optimized",
            worst_opt <= 1e-4,
            f"max excess over rho_max across menu distances and alpha: {worst_opt:.3g}",
        ),
    ]


def _mio_constructions(cases) -> list:
    """Both MIO constructions send incoherent states to 1/d and act on an
    MCMS as their unitary (mixture). ``cases``: (sigma, rho_max, u,
    weights, unitaries) with sigma incoherent."""
    worst_mixed, worst_conj = 0.0, 0.0
    for sigma, rho_max, u, ws, us in cases:
        d = u.shape[0]
        for ch, expect in (
            (coherence.mio_channel_from_unitary(u), u @ rho_max.mat @ np.conj(u).T),
            (
                coherence.mio_channel_from_mixture(ws, us),
                sum(w * (uu @ rho_max.mat @ np.conj(uu).T) for w, uu in zip(ws, us)),
            ),
        ):
            worst_mixed = max(worst_mixed, float(np.max(np.abs(apply_channel(ch, sigma).mat - np.eye(d) / d))))
            worst_conj = max(worst_conj, float(np.max(np.abs(apply_channel(ch, rho_max).mat - expect))))
    return [
        CheckResult(
            "mio_maps_incoherent_to_mixed", worst_mixed <= 1e-9, f"max residual against 1/d: {worst_mixed:.3g}"
        ),
        CheckResult(
            "mio_reproduces_unitaries_on_mcms",
            worst_conj <= 1e-9,
            f"max residual against the unitary (mixture) action: {worst_conj:.3g}",
        ),
    ]


def _mio_monotones(cases, per_combo) -> list:
    """Every MIO monotone is non-increasing under free channels.
    ``cases``: (rho, channel) pairs, ``per_combo`` of them per (kind, d).
    The inputs and outputs of each dimension are minimized as one stack
    per monotone."""
    worst_mono = 0.0
    by_dim = {}
    for rho, ch in cases:
        out = apply_channel(ch, rho)
        worst_mono = max(worst_mono, c_rel_entropy(out) - c_rel_entropy(rho))
        by_dim.setdefault(rho.dim, []).extend((rho, out))
    for stack in by_dim.values():
        for monotone in MONOTONES:
            values = coherence.c_distances(stack, monotone, ULTRA_OPT)
            worst_mono = max([worst_mono] + [b - a for a, b in zip(values[::2], values[1::2])])
    return [
        CheckResult(
            "mio_monotones_never_increase",
            worst_mono <= 1e-6,
            f"max increase over {per_combo} trials per (kind, d): {worst_mono:.3g}",
        )
    ]


def _l1_io_monotone(cases) -> list:
    """l1 coherence never increases under IO. ``cases``: (rho, channel)."""
    worst_io = 0.0
    for rho, ch in cases:
        worst_io = max(worst_io, c_l1(apply_channel(ch, rho)) - c_l1(rho))
    return [
        CheckResult("l1_monotone_under_io", worst_io <= 1e-9, f"max l1 increase under IO channels: {worst_io:.3g}")
    ]


def _l1_mio_instance() -> list:
    """The recorded MIO instance that raises l1 coherence."""
    rho_max = mcms([0.5, 0.5, 0.0, 0.0], 4)
    ch = coherence.random_free_channel("mio_construction", 4, linalg.stream(0))
    inc = c_l1(apply_channel(ch, rho_max)) - c_l1(rho_max)
    return [
        CheckResult(
            "l1_increases_under_mio_instance",
            inc >= 1e-3,
            f"recorded seed 0, d=4, spectrum (1/2,1/2,0,0): increase {inc:.4g}",
        )
    ]


def run_theorem1(seed: int = 1, trials: int = 50) -> SuiteReport:
    rng = linalg.stream(seed)
    universality = []
    for d in (2, 3, 4, 5):
        child = rng.spawn(1)[0]
        rho_max = mcms(np.sort(child.dirichlet(np.ones(d)))[::-1], d)
        universality.append((rho_max, [linalg.haar_unitary(d, c) for c in child.spawn(trials)]))
    checks = _mcms_universality(universality)

    constructions = []
    for child in rng.spawn(max(trials, 10)):
        d = int(child.integers(2, 5))
        u = linalg.haar_unitary(d, child)
        sigma = states.diagonal(child.dirichlet(np.ones(d)))
        rho_max = mcms(np.sort(child.dirichlet(np.ones(d)))[::-1], d)
        ws = child.dirichlet(np.ones(int(child.integers(2, 4))))
        constructions.append((sigma, rho_max, u, ws, [linalg.haar_unitary(d, child) for _ in ws]))
    checks += _mio_constructions(constructions)

    per_combo = max(trials // 2, 5)
    free = []
    for kind in ("incoherent_unitary", "dephasing_mixture", "mio_construction"):
        for d in (2, 3, 4):
            for child in rng.spawn(per_combo):
                rho = random_density(d, int(child.integers(1, d + 1)), child)
                free.append((rho, coherence.random_free_channel(kind, d, child)))
    checks += _mio_monotones(free, per_combo)

    checks += _l1_io_monotone([_random_io_case(child) for child in rng.spawn(trials * 4)])
    checks += _l1_mio_instance()
    return SuiteReport("theorem1", seed, trials, tuple(checks))


# ---------------------------------------------------------------------------
# theorem2: maximal coherence equals the distance to 1/d; hierarchies


def _cmax_identity(states_, rng) -> list:
    """The MCMS attains D(rho, 1/d) for every menu distance, and no
    unitary search on ``rng`` exceeds it."""
    ceilings, minima, searches = [], [], []
    for rho in states_:
        v = optimal_unitary(rho)
        rotated = states.validate(v @ rho.mat @ np.conj(v).T)
        search_budget = Budget(2, 1) if rho.dim <= 4 else Budget(3, 0)
        for name in MENU:
            dist = get_distance(name)
            ceilings.append((name, purity.p_distance(rho, dist)))
            minima.append(correlations._minimum(dist, rotated.mat))
            searches.append(correlations._minima_search(rho.mat[None], search_budget, [rng], None, dist, 1))
    worst_closed, worst_opt, worst_exceed = 0.0, 0.0, 0.0
    # the minima draw nothing, so their round joins the searches' first
    done = correlations._lockstep(minima + searches, ULTRA_OPT)
    minima, searches = done[: len(minima)], done[len(minima) :]
    for (name, ceiling), minimum, ((res,), _) in zip(ceilings, minima, searches):
        if name == "rel_entropy":
            worst_closed = max(worst_closed, abs(minimum - ceiling))
        else:
            worst_opt = max(worst_opt, abs(minimum - ceiling))
        worst_exceed = max(worst_exceed, res.best_value - ceiling)
    return [
        CheckResult(
            "cmax_equals_distance_to_mixed_closed",
            worst_closed <= 1e-6,
            f"max |C(rho_max) - D(rho, 1/d)| closed form: {worst_closed:.3g}",
        ),
        CheckResult(
            "cmax_equals_distance_to_mixed_optimized",
            worst_opt <= 1e-4,
            f"max gap with simplex optimizer in the loop: {worst_opt:.3g}",
        ),
        CheckResult(
            "unitary_search_never_exceeds_ceiling",
            worst_exceed <= 1e-9,
            f"max excess of search value over D(rho, 1/d): {worst_exceed:.3g}",
        ),
    ]


def _hierarchy_chains(states_, rng) -> list:
    """Both resource hierarchies hold on two-qubit states for every menu
    distance, with the searches drawing from ``rng``."""
    pairs = correlations._hierarchy_checks(
        [(rho, name) for rho in states_ for name in MENU], (2, 2), budget=Budget(2, 1), rng=rng,
        max_budget=Budget(2, 0), max_rng=rng, inner_budget=Budget(1, 0), opt=ULTRA_OPT,
    )
    return [
        CheckResult("hierarchy_chain", all(rep.chain_ok for rep, _ in pairs), "purity >= c_N >= discord bound"),
        CheckResult("max_hierarchy_chain", all(mrep.ok for _, mrep in pairs), "purity >= sup c_N >= sup discord bound"),
    ]


def _i_max_attains_purity(cases) -> list:
    """Maximal mutual information reaches the relative entropy of purity.
    ``cases``: (two-qubit rho, search stream) pairs."""
    worst_gap, bound_ok = 0.0, True
    for rho, child in cases:
        chk = correlations.i_max_check(rho, (2, 2), budget=Budget(128, 300), rng=child)
        worst_gap = max(worst_gap, chk.gap)
        bound_ok = bound_ok and chk.i_max_lower <= chk.p_r + 1e-9
    ranks = "/".join(str(r) for r in sorted({rho.spectrum.rank for rho, _ in cases}))
    return [
        CheckResult(
            "i_max_attains_purity",
            worst_gap <= 5e-3 and bound_ok,
            f"max gap P_r - I_max over rank-{ranks} two-qubit states: {worst_gap:.3g}",
        )
    ]


def run_theorem2(seed: int = 1, trials: int = 50) -> SuiteReport:
    rng = linalg.stream(seed)
    checks = _cmax_identity(_seeded_states(rng, trials, (2, 6)), rng)
    checks += _hierarchy_chains(_seeded_states(rng, max(trials // 2, 10), (4, 4)), rng)
    checks += _i_max_attains_purity([(random_density(4, 2, c), c) for c in rng.spawn(3)])
    return SuiteReport("theorem2", seed, trials, tuple(checks))


# ---------------------------------------------------------------------------
# axioms: purity monotone/measure requirements


def _p_alpha_axioms(rng, trials) -> list:
    """P1-P4 (and convexity for alpha <= 1) for every p_alpha on the grid
    at d = 2, 3, 4, each (d, alpha) on its own child of ``rng``."""
    checks = []
    for d in (2, 3, 4):
        for a in purity.ALPHA_GRID:
            rep = purity.axiom_suite(
                lambda s, _a=a: purity.p_alpha(s, _a),
                d,
                trials,
                rng.spawn(1)[0],
                name=f"p_alpha[{a}]",
                convexity=a <= 1.0,
            )
            checks.append(
                CheckResult(
                    f"p_alpha[{a}]_axioms_d{d}",
                    rep.passed_all,
                    "; ".join(f"{c.name}: {c.detail}" for c in rep.checks if not c.passed) or "P1-P4 hold",
                )
            )
    return checks


def _p_geometric_not_measure(rng, trials) -> list:
    rep = purity.axiom_suite(purity.p_geometric, 2, trials, rng, name="p_geometric")
    pg_expected = (
        rep.check("P1_nonnegativity").passed
        and rep.check("P2_unital_monotone").passed
        and not rep.check("P3_additivity").passed
        and not rep.check("P4_normalization").passed
    )
    return [
        CheckResult(
            "p_geometric_monotone_not_measure",
            pg_expected,
            "P1, P2 hold; P3 and P4 fail as expected",
            known_negative=True,
        )
    ]


def _p_linear_not_normalized(rng, trials) -> list:
    # d=3: at d=2 the value 1 coincides with log2(d) and the check is vacuous
    rep = purity.axiom_suite(purity.p_linear, 3, trials, rng, name="p_linear")
    return [
        CheckResult(
            "p_linear_fails_normalization",
            not rep.check("P4_normalization").passed,
            "linear purity is 1 on pure states, not log2(d)",
            known_negative=True,
        )
    ]


def _alpha_ordering(states_) -> list:
    """p_alpha is nondecreasing in alpha, and each menu distance's purity,
    read off the spectrum, equals the distance D(rho, 1/d) evaluated on
    the matrix."""
    grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, math.inf]
    ordered, gaps = True, [0.0]
    for rho in states_:
        vals = [purity.p_alpha(rho, a) for a in grid]
        ordered = ordered and all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        rep = purity.purity_report(rho)
        ordered = ordered and rep.distillable_1shot <= rep.cost_1shot
        mixed = np.eye(rho.dim, dtype=complex) / rho.dim
        gaps += [abs(purity.p_distance(rho, name) - get_distance(name).between(rho.mat, mixed)) for name in MENU]
    return [
        CheckResult("p_alpha_nondecreasing", ordered, "alpha grid ordering and report bounds"),
        CheckResult(
            "p_distance_consistency",
            all(g <= 1e-9 for g in gaps),
            f"max |D(rho, 1/d) spectral - matrix| over the menu: {max(gaps):.3g}",
        ),
    ]


def run_axioms(seed: int = 1, trials: int = 100) -> SuiteReport:
    rng = linalg.stream(seed)
    checks = _p_alpha_axioms(rng, trials)
    checks += _p_geometric_not_measure(rng.spawn(1)[0], trials)
    checks += _p_linear_not_normalized(rng.spawn(1)[0], trials)
    checks += _alpha_ordering(_seeded_states(rng, max(trials // 4, 10), (2, 5)))
    return SuiteReport("axioms", seed, trials, tuple(checks))


# ---------------------------------------------------------------------------
# majorization: single-shot formulas against brute-force oracles


def _formula_oracle_agreement(states_) -> list:
    """The single-shot distillation and cost formulas agree exactly with
    the brute-force oracles and with the (d1, d2) scans."""
    agree = True
    detail = ""
    for rho in states_:
        d = rho.dim
        m_formula = majorization.distillable_purity_1shot(rho)
        feasible = [m for m in range(0, m_formula + 3) if majorization.brute_force_distill(rho, m).feasible]
        if max(feasible) != m_formula:
            agree = False
            detail = f"distill mismatch at d={d}: formula {m_formula}, oracle {max(feasible)}"
            break
        c_formula = majorization.purity_cost_1shot(rho)
        feasible_c = [m for m in range(0, c_formula + 3) if majorization.brute_force_cost(rho, m).feasible]
        if min(feasible_c, default=-1) != c_formula:
            agree = False
            detail = f"cost mismatch at d={d}: formula {c_formula}, oracle {min(feasible_c, default=-1)}"
            break
        for m in range(0, m_formula + 2):
            if majorization.distill_feasible_scan(rho, m) != majorization.brute_force_distill(rho, m).feasible:
                agree = False
                detail = f"distill scan disagrees with fixed dims at d={d}, m={m}"
                break
        for m in range(max(c_formula - 1, 0), c_formula + 2):
            if majorization.cost_feasible_scan(rho, m) != majorization.brute_force_cost(rho, m).feasible:
                agree = False
                detail = f"cost scan disagrees with fixed dims at d={d}, m={m}"
                break
    return [CheckResult("formula_oracle_agreement", agree, detail or "exact integer agreement")]


def _transitivity(triples) -> list:
    transitive = True
    for p, q, r in triples:
        if majorization.majorizes(p, q) and majorization.majorizes(q, r):
            transitive = transitive and majorization.majorizes(p, r)
    return [CheckResult("transitivity", transitive, "p>q and q>r imply p>r on seeded triples")]


def _unital_output_majorized(cases) -> list:
    """``cases``: (rho, unital channel) pairs."""
    lemma_ok = True
    for rho, ch in cases:
        out = apply_channel(ch, rho)
        lemma_ok = lemma_ok and majorization.majorizes(rho.spectrum.values, out.spectrum.values)
    return [CheckResult("unital_output_majorized", lemma_ok, "mixtures of unitaries only lose purity")]


def run_majorization(seed: int = 1, trials: int = 30) -> SuiteReport:
    rng = linalg.stream(seed)
    sample = []
    for child in rng.spawn(trials):
        d = int(child.integers(2, 17))
        sample.append(random_density(d, int(child.integers(1, d + 1)), child))
    checks = _formula_oracle_agreement(sample)

    triples = []
    for child in rng.spawn(trials * 5):
        p = np.sort(child.dirichlet(np.ones(int(child.integers(2, 8)))))[::-1]
        q = _mix_permutations(p, child)
        triples.append((p, q, _mix_permutations(q, child)))
    checks += _transitivity(triples)

    unital = []
    for child in rng.spawn(trials):
        d = int(child.integers(2, 6))
        rho = random_density(d, int(child.integers(1, d + 1)), child)
        unital.append((rho, purity.random_unital(d, int(child.integers(1, 6)), child)))
    checks += _unital_output_majorized(unital)
    return SuiteReport("majorization", seed, trials, tuple(checks))


def _mix_permutations(p: np.ndarray, rng) -> np.ndarray:
    k = int(rng.integers(2, 5))
    w = rng.dirichlet(np.ones(k))
    out = np.zeros_like(p)
    for wi in w:
        out += wi * rng.permutation(p)
    return np.sort(out)[::-1]


# ---------------------------------------------------------------------------
# appendixG: CNOT activation and the geometric-purity bound


def _cnot_identities(qubits) -> list:
    """On qubit controls: N(CNOT output) = C_l1/2, the negativity-purity
    bound, and C_l1 = sqrt(1 - (1 - 2 C_g)^2)."""
    worst_id, bound_ok, worst_rel = 0.0, True, 0.0
    for rho in qubits:
        act = correlations.cnot_activation(rho)
        worst_id = max(worst_id, abs(act.negativity - act.half_c_l1))
        nb = correlations.negativity_purity_bound(rho)
        bound_ok = bound_ok and nb.holds
        cg = coherence.c_geometric(rho, ULTRA_OPT)
        rel = math.sqrt(max(1.0 - (1.0 - 2.0 * cg) ** 2, 0.0))
        worst_rel = max(worst_rel, abs(c_l1(rho) - rel))
    return [
        CheckResult("cnot_negativity_equals_half_l1", worst_id <= 1e-10, f"max |N - C_l1/2|: {worst_id:.3g}"),
        CheckResult("negativity_purity_bound", bound_ok, "N <= sqrt(1-(1-2P_g)^2) on all trials"),
        CheckResult(
            "qubit_l1_geometric_relation",
            worst_rel <= 1e-4,
            f"max |C_l1 - sqrt(1-(1-2C_g)^2)|: {worst_rel:.3g}",
        ),
    ]


def _eigenbasis_saturation(lams) -> list:
    """The bound is saturated on lam |+><+| + (1 - lam) |-><-|."""
    worst_eq = 0.0
    plus = states.pure([1, 1]).mat
    minus = states.pure([1, -1]).mat
    for lam in lams:
        rho = states.validate(lam * plus + (1.0 - lam) * minus)
        nb = correlations.negativity_purity_bound(rho)
        worst_eq = max(worst_eq, abs(nb.c_l1 - nb.bound))
    return [
        CheckResult(
            "bound_saturated_in_coherent_eigenbasis",
            worst_eq <= 1e-9,
            f"max |C_l1 - bound| for +/- eigenbases: {worst_eq:.3g}",
        )
    ]


def _local_unitary_invariance(cases) -> list:
    """``cases``: (two-qubit rho, product unitary) pairs."""
    invariant_ok = True
    for rho, local in cases:
        rotated = states.validate(local @ rho.mat @ np.conj(local).T)
        invariant_ok = invariant_ok and abs(
            correlations.negativity(rho, (2, 2)) - correlations.negativity(rotated, (2, 2))
        ) <= 1e-9
    return [CheckResult("negativity_local_unitary_invariant", invariant_ok, f"{len(cases)} seeded product rotations")]


def run_appendix_g(seed: int = 1, trials: int = 100) -> SuiteReport:
    rng = linalg.stream(seed)
    checks = _cnot_identities([random_density(2, int(c.integers(1, 3)), c) for c in rng.spawn(trials)])
    checks += _eigenbasis_saturation([0.5 + 0.5 * float(c.random()) for c in rng.spawn(trials)])
    local = []
    for child in rng.spawn(20):
        rho = random_density(4, int(child.integers(1, 5)), child)
        local.append((rho, np.kron(linalg.haar_unitary(2, child), linalg.haar_unitary(2, child))))
    checks += _local_unitary_invariance(local)
    return SuiteReport("appendixG", seed, trials, tuple(checks))


SUITES = {
    "theorem1": run_theorem1,
    "theorem2": run_theorem2,
    "axioms": run_axioms,
    "majorization": run_majorization,
    "appendixG": run_appendix_g,
}


def run_suite(name: str, seed: int = 1, trials: int | None = None) -> SuiteReport:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    if trials is None:
        return fn(seed=seed)
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials}")
    return fn(seed=seed, trials=trials)
