"""Purity monotones and measures, their axiom checks (nonnegativity,
unital monotonicity, additivity, normalization), and random unital test
channels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coherence, linalg, majorization, states
from .coherence import Channel, mcms
from .linalg import DomainError
from .states import DensityMatrix, _as_state, random_density, renyi_entropy, validate

__all__ = [
    "PurityReport",
    "AxiomReport",
    "p_alpha",
    "p_rel_entropy",
    "p_linear",
    "p_2",
    "p_geometric",
    "p_distance",
    "p_coherence_based",
    "purity_report",
    "random_unital",
    "axiom_suite",
    "ALPHA_GRID",
]

ALPHA_GRID = (0.0, 0.5, 1.0, 2.0, math.inf)
_AXIOM_SLACK = 1e-9  # round-off allowance of every axiom_suite check


def p_alpha(rho: DensityMatrix, alpha: float) -> float:
    """Renyi alpha-purity log2(d) - S_alpha(rho); nondecreasing in alpha,
    0 at the maximally mixed state, log2(d) on pure states."""
    rho = _as_state(rho)
    return max(math.log2(rho.dim) - renyi_entropy(rho, alpha), 0.0)


def p_rel_entropy(rho: DensityMatrix) -> float:
    """log2(d) - S(rho): the asymptotically reversible rate of purity
    distillation and cost."""
    return p_alpha(rho, 1.0)


def p_linear(rho: DensityMatrix) -> float:
    """Tr[rho^2], in [1/d, 1]."""
    rho = _as_state(rho)
    return float(np.sum(rho.spectrum.values ** 2))


def p_2(rho: DensityMatrix) -> float:
    """log2(d * Tr[rho^2]), the collision-entropy purity."""
    rho = _as_state(rho)
    return max(math.log2(rho.dim * p_linear(rho)), 0.0)


def p_geometric(rho: DensityMatrix) -> float:
    """1 - F(rho, 1/d) = 1 - (Tr sqrt(rho))^2 / d, in [0, 1 - 1/d]: the
    fidelity's distance-based purity."""
    return p_distance(rho, "one_minus_fidelity")


def p_distance(rho: DensityMatrix, distance) -> float:
    """Distance-based purity D(rho, 1/d); no minimization is needed since
    the maximally mixed state is the unique free state. It equals the
    maximal coherence over the unitary orbit (the paper's identity), and
    is read off rho's cached spectrum by the distance's closed form
    rather than evaluated on the matrix."""
    return coherence.c_max_closed(rho, distance)


def p_coherence_based(rho: DensityMatrix, quantifier) -> float:
    """Coherence-based purity: the chosen coherence quantifier evaluated
    on the MCMS of rho's spectrum (its maximum over unital channels when
    the quantifier is a MIO monotone)."""
    rho = _as_state(rho)
    return float(quantifier(mcms(rho.spectrum, rho.dim)))


@dataclass(frozen=True)
class PurityReport:
    """The operationally distinguished purity values of one state."""

    p_alpha: dict
    p_geometric: float
    p_linear: float
    distillable_1shot: int
    cost_1shot: int


def purity_report(rho: DensityMatrix) -> PurityReport:
    rho = _as_state(rho)
    return PurityReport(
        p_alpha={a: p_alpha(rho, a) for a in ALPHA_GRID},
        p_geometric=p_geometric(rho),
        p_linear=p_linear(rho),
        distillable_1shot=majorization.distillable_purity_1shot(rho),
        cost_1shot=majorization.purity_cost_1shot(rho),
    )


def random_unital(d: int, k: int, rng: np.random.Generator) -> Channel:
    """Random mixture of k Haar unitaries: a unital channel (and the
    state-conversion-complete subset of unital operations)."""
    if k < 1:
        raise DomainError(f"need at least one unitary, got k={k}")
    weights = rng.dirichlet(np.ones(k)) if k > 1 else np.ones(1)
    ks = [math.sqrt(w) * linalg.haar_unitary(d, rng) for w in weights]
    return Channel(tuple(ks))


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""
    counterexample: object = None


@dataclass(frozen=True)
class AxiomReport:
    quantifier: str
    dim: int
    trials: int
    checks: tuple

    @property
    def passed_all(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def axiom_suite(
    quantifier,
    d: int,
    trials: int,
    rng: np.random.Generator,
    name: str = "quantifier",
    convexity: bool = False,
) -> AxiomReport:
    """Empirical check of the purity axioms for an arbitrary state
    functional: nonnegativity and vanishing on 1/d (P1), monotonicity
    under random mixed-unitary channels (P2), additivity on product
    states (P3), normalization log2(d) on pure states (P4), and
    optionally convexity under binary mixtures."""
    checks = []
    mixed = states.maximally_mixed(d)
    v_mixed = quantifier(mixed)
    p1_states = [random_density(d, int(r.integers(1, d + 1)), r) for r in rng.spawn(trials)]
    neg = [(quantifier(s), s) for s in p1_states]
    worst = min(neg, key=lambda t: t[0])
    p1_ok = abs(v_mixed) <= _AXIOM_SLACK and worst[0] >= -_AXIOM_SLACK
    checks.append(
        AxiomCheck(
            "P1_nonnegativity",
            p1_ok,
            f"value at 1/d = {v_mixed:.3g}, min over trials = {worst[0]:.3g}",
            None if p1_ok else worst[1],
        )
    )

    p2_ok, p2_bad, p2_worst = True, None, 0.0
    for child in rng.spawn(trials):
        s = random_density(d, int(child.integers(1, d + 1)), child)
        ch = random_unital(d, int(child.integers(1, 6)), child)
        delta = quantifier(coherence.apply_channel(ch, s)) - quantifier(s)
        if delta > p2_worst:
            p2_worst, p2_bad = delta, s
        if delta > _AXIOM_SLACK:
            p2_ok = False
    checks.append(
        AxiomCheck("P2_unital_monotone", p2_ok, f"max increase = {p2_worst:.3g}", p2_bad)
    )

    p3_ok, p3_bad, p3_worst = True, None, 0.0
    for child in rng.spawn(max(trials // 4, 8)):
        db = int(child.integers(2, max(3, 16 // d + 1)))
        a = random_density(d, int(child.integers(1, d + 1)), child)
        b = random_density(db, int(child.integers(1, db + 1)), child)
        prod = validate(linalg.kron(a.mat, b.mat))
        gap = abs(quantifier(prod) - quantifier(a) - quantifier(b))
        if gap > p3_worst:
            p3_worst, p3_bad = gap, (a, b)
        if gap > _AXIOM_SLACK:
            p3_ok = False
    checks.append(AxiomCheck("P3_additivity", p3_ok, f"max gap = {p3_worst:.3g}", p3_bad))

    p4_ok, p4_worst = True, 0.0
    for child in rng.spawn(max(trials // 4, 8)):
        v = child.standard_normal(d) + 1j * child.standard_normal(d)
        gap = abs(quantifier(states.pure(v)) - math.log2(d))
        p4_worst = max(p4_worst, gap)
        if gap > _AXIOM_SLACK:
            p4_ok = False
    checks.append(AxiomCheck("P4_normalization", p4_ok, f"max gap = {p4_worst:.3g}"))

    if convexity:
        cv_ok, cv_bad, cv_worst = True, None, 0.0
        for child in rng.spawn(trials):
            a = random_density(d, int(child.integers(1, d + 1)), child)
            b = random_density(d, int(child.integers(1, d + 1)), child)
            t = float(child.random())
            mix = validate(t * a.mat + (1.0 - t) * b.mat)
            gap = quantifier(mix) - (t * quantifier(a) + (1.0 - t) * quantifier(b))
            if gap > cv_worst:
                cv_worst, cv_bad = gap, (a, b, t)
            if gap > _AXIOM_SLACK:
                cv_ok = False
        checks.append(AxiomCheck("convexity", cv_ok, f"max violation = {cv_worst:.3g}", cv_bad))

    return AxiomReport(quantifier=name, dim=d, trials=trials, checks=tuple(checks))
