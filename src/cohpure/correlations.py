"""Bipartite quantities: the unitary-group search, negativity, CNOT
coherence-to-entanglement activation, composite-basis coherence, discord
upper bounds over product unitaries, and the purity/coherence/discord
hierarchy checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coherence, linalg, purity, states
from .linalg import DomainError, ValidationError, dagger
from .simplex import SimplexOptConfig, get_distance
from .states import DensityMatrix, _as_state, _trusted

__all__ = [
    "OptResult",
    "Budget",
    "unitary_maximize",
    "negativity",
    "cnot_activation",
    "negativity_purity_bound",
    "c_N",
    "discord_upper",
    "i_max_check",
    "HierarchyReport",
    "hierarchy_report",
    "MaxHierarchyReport",
    "max_hierarchy_check",
    "CNOT",
]

EPS_START = 0.3
EPS_STOP = 1e-6


class Budget(NamedTuple):
    restarts: int
    refine_iters: int


@dataclass(frozen=True)
class OptResult:
    """Certified lower bound on a supremum over the unitary group."""

    best_value: float
    best_unitary: np.ndarray
    evals: int
    improved_by_refinement: float


def _generator_specs(d: int):
    specs = [("diag", i, i) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            specs.append(("real", i, j))
            specs.append(("imag", i, j))
    return specs


def _generator_step(d: int, spec, eps: float) -> np.ndarray:
    """exp(i*eps*H) for one orthonormal Hermitian generator H; every
    generator is supported on at most two indices, so the exponential is
    a closed-form 2x2 block."""
    kind, i, j = spec
    g = np.eye(d, dtype=complex)
    if kind == "diag":
        g[i, i] = np.exp(1j * eps)
        return g
    t = eps / math.sqrt(2.0)
    c, s = math.cos(t), math.sin(t)
    if kind == "real":
        g[i, i] = c
        g[j, j] = c
        g[i, j] = 1j * s
        g[j, i] = 1j * s
    else:
        g[i, i] = c
        g[j, j] = c
        g[i, j] = s
        g[j, i] = -s
    return g


def _compose(factors) -> np.ndarray:
    full = factors[0]
    for f in factors[1:]:
        full = np.kron(full, f)
    return full


def unitary_maximize(
    objective,
    rho: DensityMatrix,
    budget=Budget(64, 200),
    rng: np.random.Generator | None = None,
    dims=None,
    extra_candidates=(),
) -> OptResult:
    """Maximize objective(U rho U^dag) over unitaries: over all of them
    when ``dims`` is None, else over products U_A (x) U_B with the
    subsystem dimensions ``dims``.

    Candidates are the identity, any injected unitaries, and Haar draws
    (of each factor for a product search); the best
    candidate is refined by steepest-ascent hill climbing along the
    Hermitian generator basis, with the step halved from 0.3 down to 1e-6
    whenever no move improves. The result is a certified lower bound on
    the supremum and never falls below the objective at the identity.

    ``extra_candidates`` entries are single matrices for a global
    search and (U_A, U_B) factor tuples for a product search.
    """
    rho = _as_state(rho)
    budget = Budget(*budget)
    if budget.restarts < 0 or budget.refine_iters < 0 or sum(budget) == 0:
        raise DomainError(f"budget must allow some work, got {budget}")
    if dims is None:
        factor_dims = (rho.dim,)
    else:
        factor_dims = (int(dims[0]), int(dims[1]))
        if factor_dims[0] * factor_dims[1] != rho.dim:
            raise ValidationError("dimension", message=f"dims {dims} incompatible with dim {rho.dim}")
    rng = rng if rng is not None else linalg.stream(0)

    def conj_value(full):
        return float(objective(_trusted(full @ rho.mat @ dagger(full))))

    candidates = [tuple(np.eye(fd, dtype=complex) for fd in factor_dims)]
    for u in extra_candidates:
        candidates.append((np.asarray(u, dtype=complex),) if dims is None else tuple(u))
    for _ in range(budget.restarts):
        candidates.append(tuple(linalg.haar_unitary(fd, rng) for fd in factor_dims))

    values = [conj_value(_compose(f)) for f in candidates]
    evals = len(values)
    best_idx = int(np.argmax(values))
    best_val = values[best_idx]
    factors = [f.copy() for f in candidates[best_idx]]
    candidate_val = best_val

    eps = EPS_START
    passes = 0
    specs = [_generator_specs(fd) for fd in factor_dims]
    while passes < budget.refine_iters and eps > EPS_STOP:
        passes += 1
        best_move = None
        best_move_val = best_val
        for f_idx, fd in enumerate(factor_dims):
            for spec in specs[f_idx]:
                for sign in (1.0, -1.0):
                    step = _generator_step(fd, spec, sign * eps)
                    trial = list(factors)
                    trial[f_idx] = factors[f_idx] @ step
                    v = conj_value(_compose(trial))
                    evals += 1
                    if v > best_move_val + 1e-15:
                        best_move_val = v
                        best_move = (f_idx, step)
        if best_move is None:
            eps /= 2.0
        else:
            f_idx, step = best_move
            factors[f_idx] = factors[f_idx] @ step
            best_val = best_move_val

    best_full = _compose(factors)
    return OptResult(
        best_value=best_val,
        best_unitary=best_full,
        evals=evals,
        improved_by_refinement=best_val - candidate_val,
    )


def negativity(rho: DensityMatrix, dims) -> float:
    """Sum of the moduli of the negative partial-transpose eigenvalues."""
    pt = linalg.partial_transpose(_as_state(rho).mat, 0, dims)
    vals = np.linalg.eigvalsh(pt)
    return float(-vals[vals < 0].sum())


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class CnotActivation(NamedTuple):
    rho_out: DensityMatrix
    negativity: float
    half_c_l1: float


def cnot_activation(rho_a: DensityMatrix) -> CnotActivation:
    """Entangle a control qubit with a |0> target through CNOT; the output
    negativity equals half the l1-coherence of the control state."""
    rho_a = _as_state(rho_a)
    if rho_a.dim != 2:
        raise ValidationError("dimension", message=f"control must be a qubit, got dim {rho_a.dim}")
    target = np.zeros((2, 2), dtype=complex)
    target[0, 0] = 1.0
    rho_in = linalg.kron(rho_a.mat, target)
    out = _trusted(CNOT @ rho_in @ dagger(CNOT))
    return CnotActivation(out, negativity(out, (2, 2)), coherence.c_l1(rho_a) / 2.0)


class NegativityBound(NamedTuple):
    negativity: float
    bound: float
    holds: bool
    c_l1: float


def negativity_purity_bound(rho_a: DensityMatrix) -> NegativityBound:
    """CNOT-generated negativity versus the geometric-purity bound
    sqrt(1 - (1 - 2 P_g)^2); also reports the control's l1-coherence,
    which saturates the bound when the eigenbasis is maximally
    coherent."""
    rho_a = _as_state(rho_a)
    act = cnot_activation(rho_a)
    pg = purity.p_geometric(rho_a)
    bound = math.sqrt(max(1.0 - (1.0 - 2.0 * pg) ** 2, 0.0))
    return NegativityBound(act.negativity, bound, act.negativity <= bound + 1e-10, coherence.c_l1(rho_a))


def c_N(rho: DensityMatrix, dims, distance, opt: SimplexOptConfig | None = None) -> float:
    """Coherence with respect to the N-partite incoherent product basis;
    the product basis is the composite computational basis, so this is
    the composite-space distance-based coherence."""
    rho = _as_state(rho)
    da, db = int(dims[0]), int(dims[1])
    if da * db != rho.dim:
        raise ValidationError("dimension", message=f"dims {dims} incompatible with dim {rho.dim}")
    return coherence.c_distance(rho, distance, opt)


def discord_upper(
    rho: DensityMatrix,
    dims,
    distance,
    budget=Budget(64, 200),
    rng: np.random.Generator | None = None,
    opt: SimplexOptConfig | None = None,
) -> float:
    """Certified upper bound on distance-based discord: the composite
    coherence minimized over sampled and refined product unitaries
    (the identity included, so the bound never exceeds c_N)."""
    value, _ = _discord_search(rho, dims, distance, budget, rng, opt)
    return value


def _discord_search(rho, dims, distance, budget, rng, opt):
    distance = get_distance(distance)

    def neg_c(state):
        return -coherence.c_distance(state, distance, opt)

    res = unitary_maximize(neg_c, rho, budget=budget, rng=rng, dims=dims)
    return -res.best_value, res.best_unitary


class IMaxCheck(NamedTuple):
    i_max_lower: float
    p_r: float
    gap: float


def i_max_check(
    rho: DensityMatrix,
    dims,
    budget=Budget(128, 300),
    rng: np.random.Generator | None = None,
) -> IMaxCheck:
    """Maximal mutual information over global unitaries versus the
    relative entropy of purity; the search value is a lower bound, so
    gap >= 0 up to optimizer convergence."""
    rho = _as_state(rho)
    da, db = int(dims[0]), int(dims[1])
    if da != db:
        raise ValidationError("dimension", message=f"equal subsystems required, got {dims}")
    # the spectrum, and so S(U rho U^dag) = S(rho), is invariant: only the
    # marginal entropies change along the search
    s_rho = states.von_neumann(rho)

    def mutual_info(state):
        sa, sb = states._marginal_entropies(state, dims)
        return max(sa + sb - s_rho, 0.0)

    res = unitary_maximize(mutual_info, rho, budget=budget, rng=rng)
    pr = purity.p_rel_entropy(rho)
    return IMaxCheck(res.best_value, pr, pr - res.best_value)


@dataclass(frozen=True)
class HierarchyReport:
    """One-state snapshot of the distance-based resource ordering
    purity >= composite coherence >= discord."""

    distance: str
    purity: float
    coherence_n: float
    discord_upper: float
    witness_q: np.ndarray
    witness_product_unitary: np.ndarray

    @property
    def chain_ok(self) -> bool:
        return (
            self.purity >= self.coherence_n - 1e-9
            and self.coherence_n >= self.discord_upper - 1e-9
        )


def hierarchy_report(
    rho: DensityMatrix,
    dims,
    distance,
    budget=Budget(64, 200),
    rng: np.random.Generator | None = None,
    opt: SimplexOptConfig | None = None,
) -> HierarchyReport:
    rho = _as_state(rho)
    distance = get_distance(distance)
    p = purity.p_distance(rho, distance)
    cres = coherence.c_distance_result(rho, distance, opt)
    dval, dunit = _discord_search(rho, dims, distance, budget, rng, opt)
    return HierarchyReport(
        distance=distance.name,
        purity=p,
        coherence_n=cres.value,
        discord_upper=dval,
        witness_q=cres.q,
        witness_product_unitary=dunit,
    )


@dataclass(frozen=True)
class MaxHierarchyReport:
    """Unitary-orbit suprema against the exact purity ceiling: purity
    equals the maximal composite coherence and dominates the maximal
    discord."""

    distance: str
    purity: float
    c_max_lower: float
    d_max_lower: float
    optimizer_gap: float

    @property
    def ok(self) -> bool:
        return self.c_max_lower <= self.purity + 1e-9 and self.d_max_lower <= self.purity + 1e-9


def max_hierarchy_check(
    rho: DensityMatrix,
    dims,
    distance,
    budget=Budget(16, 8),
    rng: np.random.Generator | None = None,
    inner_budget=Budget(4, 2),
    opt: SimplexOptConfig | None = None,
) -> MaxHierarchyReport:
    rho = _as_state(rho)
    distance = get_distance(distance)
    rng = rng if rng is not None else linalg.stream(0)
    p = purity.p_distance(rho, distance)

    res_c = unitary_maximize(
        lambda s: coherence.c_distance(s, distance, opt), rho, budget=budget, rng=rng
    )

    inner_seed = int(rng.integers(0, 2**63 - 1))

    def discord_at(state):
        # fresh deterministic stream per evaluation keeps the objective pure
        return discord_upper(state, dims, distance, inner_budget, linalg.stream(inner_seed), opt)

    res_d = unitary_maximize(discord_at, rho, budget=budget, rng=rng)
    return MaxHierarchyReport(
        distance=distance.name,
        purity=p,
        c_max_lower=res_c.best_value,
        d_max_lower=res_d.best_value,
        optimizer_gap=p - res_c.best_value,
    )
