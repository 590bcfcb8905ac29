"""Bipartite quantities: the unitary-group search, negativity, CNOT
coherence-to-entanglement activation, composite-basis coherence, discord
upper bounds over product unitaries, and the purity/coherence/discord
hierarchy checks. Each pass of the search scores its trial states as one
stack, formed by one stacked conjugation.

The search is a task: a generator that yields each round's trial states
and receives their values (:func:`_search`). A plain objective drives it
in :func:`_maximize_all`. The hierarchy checks and the theorem2 suite
instead score it by minimizations (:func:`_minima_search`), and
:func:`_lockstep` drives any list of such tasks with one
``minimize_diags`` call per distance and dimension per round."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coherence, linalg, purity, states
from .linalg import DomainError, ValidationError, dagger
from .simplex import SimplexOptConfig, get_distance, minimize_diags
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
    "hierarchy_checks",
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


@functools.lru_cache(maxsize=64)
def _generator_steps(d: int, eps: float) -> np.ndarray:
    """The read-only (2 d^2, d, d) stack of a pass's moves: exp(i e H) for
    e = eps, then e = -eps, for every orthonormal Hermitian generator H in
    turn (the d diagonal ones, then the real and the imaginary one of each
    pair i < j). Every H is supported on at most two indices, so each
    exponential is a closed-form 2x2 block."""
    specs = [(i, i, None) for i in range(d)]
    specs += [(i, j, real) for i in range(d) for j in range(i + 1, d) for real in (True, False)]
    steps = []
    for i, j, real in specs:
        for e in (eps, -eps):
            g = np.eye(d, dtype=complex)
            if real is None:
                g[i, i] = np.exp(1j * e)
            else:
                t = e / math.sqrt(2.0)
                s = math.sin(t)
                g[i, i] = g[j, j] = math.cos(t)
                g[i, j], g[j, i] = (1j * s, 1j * s) if real else (s, -s)
            steps.append(g)
    steps = np.stack(steps)
    steps.flags.writeable = False
    return steps


def _compose(factors) -> np.ndarray:
    """The tensor product of ``factors``, each a matrix or a stack of them,
    by one broadcast multiply: each entry is the product np.kron forms."""
    full = factors[0]
    for f in factors[1:]:
        da, db = full.shape[-1], f.shape[-1]
        prod = full[..., :, None, :, None] * f[..., None, :, None, :]
        full = prod.reshape(*prod.shape[:-4], da * db, da * db)
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
    subsystem dimensions ``dims``. This is the one-state case of
    :func:`_maximize_all`, which climbs a list of states in lockstep.

    ``objective`` takes a list of states and returns their values, so
    that a batch of trial states can be scored as one stack. It is called
    once on all candidates: the identity, any injected unitaries, and Haar
    draws (of each factor for a product search). The best candidate is
    refined by steepest-ascent hill climbing along the Hermitian
    generator basis, one objective call per pass on all its
    2 * sum_f d_f^2 trial states, with the step halved from 0.3 down to
    1e-6 whenever no move improves; a pass takes one batched product per
    factor with a cached stack of steps and one stacked conjugation. The
    result is a certified lower bound on the supremum and never falls
    below the objective at the identity.

    The climb is the task :func:`_search`, here answered by ``objective``
    round by round; the hierarchy checks and the theorem2 suite answer
    the same task by minimizations shared with their other searches.

    ``extra_candidates`` entries are single matrices for a global
    search and (U_A, U_B) factor tuples for a product search.
    """
    rng = rng if rng is not None else linalg.stream(0)
    return _maximize_all(objective, [rho], budget, [rng], dims, extra_candidates)[0]


class _Climb:
    """One state's search: its index, current factors, values and step."""

    def __init__(self, n, factors, value, evals):
        self.n = n
        self.factors = [f.copy() for f in factors]
        self.value = self.candidate_value = value
        self.evals = evals
        self.eps = EPS_START
        self.passes = 0

    def result(self) -> OptResult:
        return OptResult(
            best_value=self.value,
            best_unitary=_compose(self.factors),
            evals=self.evals,
            improved_by_refinement=self.value - self.candidate_value,
        )


def _haar_draws(rngs, factor_dims, restarts: int) -> list:
    """``restarts`` Haar factor tuples from each stream, bit for bit those of
    haar_unitary calls in turn: the Ginibre draws keep that order, and each
    factor dimension takes one batched QR."""
    z = [[linalg._ginibre(fd, rng) for _ in range(restarts) for fd in factor_dims] for rng in rngs]
    haar = [
        linalg._haar_qr(np.array([zs[f :: len(factor_dims)] for zs in z], dtype=complex).reshape(len(rngs), restarts, fd, fd))
        for f, fd in enumerate(factor_dims)
    ]
    return [list(zip(*(h[n] for h in haar))) for n in range(len(rngs))]


def _maximize_all(objective, rhos, budget, rngs, dims=None, extra_candidates=()) -> list:
    """:func:`unitary_maximize` of every state in ``rhos``, the n-th
    drawing its Haar candidates from ``rngs[n]``: :func:`_search` with
    each round's trial states scored by one objective call. The objective
    scores rows independently, so each state's OptResult, evals included,
    is that of a search on its own."""
    search = _search(np.stack([_as_state(rho).mat for rho in rhos]), budget, rngs, dims, extra_candidates)
    trials = next(search)
    while True:
        try:
            trials = search.send(objective([_trusted(m) for m in trials]))
        except StopIteration as stop:
            return stop.value


def _search(mats, budget, rngs, dims=None, extra_candidates=()):
    """The searches of a (N, d, d) stack of states in lockstep, as a task:
    it yields each round's (K, d, d) stack of trial states U rho_n U^dag,
    receives their K values and returns one OptResult per state. The first
    round holds the candidates of every state, drawn from ``rngs`` before
    it is yielded, and each later round the trial states of every climb
    still running."""
    budget = Budget(*budget)
    if budget.restarts < 0 or budget.refine_iters < 0 or sum(budget) == 0:
        raise DomainError(f"budget must allow some work, got {budget}")
    dim = mats.shape[-1]
    factor_dims = (dim,) if dims is None else linalg._check_bipartite(dims, dim)

    def conj(ns, us):
        # the trial states U_k rho_{n_k} U_k^dag, one batched conjugation
        return us @ mats[ns] @ np.conj(us).swapaxes(-1, -2)

    fixed = [tuple(np.eye(fd, dtype=complex) for fd in factor_dims)]
    for u in extra_candidates:
        fixed.append((np.asarray(u, dtype=complex),) if dims is None else tuple(map(np.asarray, u)))
    candidates = [fixed + draws for draws in _haar_draws(rngs, factor_dims, budget.restarts)]
    ns = np.repeat(np.arange(len(mats)), [len(c) for c in candidates])
    values = map(float, (yield conj(ns, np.stack([_compose(f) for cands in candidates for f in cands]))))
    climbs = []
    for n, cands in enumerate(candidates):
        vals = [next(values) for _ in cands]
        best = int(np.argmax(vals))
        climbs.append(_Climb(n, cands[best], vals[best], len(vals)))

    while running := [c for c in climbs if c.passes < budget.refine_iters and c.eps > EPS_STOP]:
        moves, trials = [], []
        for c in running:
            c.passes += 1
            steps = [_generator_steps(fd, c.eps) for fd in factor_dims]
            moves.append([(f_idx, step) for f_idx, s in enumerate(steps) for step in s])
            # one batched product per factor, the other factors fixed
            for f_idx, s in enumerate(steps):
                trials.append(_compose(c.factors[:f_idx] + [c.factors[f_idx] @ s] + c.factors[f_idx + 1 :]))
        ns = np.repeat([c.n for c in running], [len(m) for m in moves])
        values = map(float, (yield conj(ns, np.concatenate(trials))))
        for c, climb_moves in zip(running, moves):
            c.evals += len(climb_moves)
            # the scan keeps the first strict improvement, as a sequential
            # climb would
            best_move = None
            best_move_val = c.value
            for move in climb_moves:
                v = next(values)
                if v > best_move_val + 1e-15:
                    best_move_val = v
                    best_move = move
            if best_move is None:
                c.eps /= 2.0
            else:
                f_idx, step = best_move
                c.factors[f_idx] = c.factors[f_idx] @ step
                c.value = best_move_val
    return [c.result() for c in climbs]


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
    linalg._check_bipartite(dims, rho.dim)
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
    return -unitary_maximize(_neg_coherence(distance, opt), rho, budget=budget, rng=rng, dims=dims).best_value


def _neg_coherence(distance, opt):
    """The discord searches' objective: minus the composite coherence of
    each state, every batch minimized as one stack."""
    distance = get_distance(distance)

    def neg_c(states_):
        return [-r.value for r in minimize_diags(np.stack([s.mat for s in states_]), distance, opt)]

    return neg_c


class IMaxCheck(NamedTuple):
    i_max_lower: float
    p_r: float
    gap: float


def _bell_rotation(rho: DensityMatrix, n: int) -> np.ndarray:
    """Unitary sending rho's eigenbasis onto the generalized Bell basis
    |Phi_jk> = sum_m w^(jm) |m, m+k mod n> / sqrt(n) of two n-level
    systems. The rotated state is Bell-diagonal, so both marginals are
    maximally mixed and its mutual information is 2 log2 n - S(rho) = P_r
    (Jevtic, Jennings, Rudolph, PRL 108, 110403)."""
    f = coherence.fourier_basis(n).columns
    m = np.arange(n)
    bell = np.zeros((n * n, n, n), dtype=complex)
    for k in range(n):
        bell[m * n + (m + k) % n, :, k] = f
    return bell.reshape(n * n, n * n) @ dagger(rho.eigensystem.vectors)


def i_max_check(
    rho: DensityMatrix,
    dims,
    budget=Budget(128, 300),
    rng: np.random.Generator | None = None,
) -> IMaxCheck:
    """Maximal mutual information over global unitaries versus the
    relative entropy of purity. The search starts from the Bell-diagonal
    rotation of rho, which attains P_r, and stays a blind check that no
    unitary exceeds it; the search value is a lower bound, so gap >= 0 up
    to round-off."""
    rho = _as_state(rho)
    da, db = linalg._check_bipartite(dims, rho.dim)
    if da != db:
        raise ValidationError("dimension", message=f"equal subsystems required, got {dims}")
    # the spectrum, and so S(U rho U^dag) = S(rho), is invariant: only the
    # marginal entropies change along the search
    s_rho = states.von_neumann(rho)

    def mutual_info(states_):
        sa, sb = states._marginal_entropies(np.stack([s.mat for s in states_]), dims)
        i = sa + sb - s_rho
        # max(i, 0) rowwise
        return np.where(i < 0.0, 0.0, i)

    res = unitary_maximize(
        mutual_info,
        rho,
        budget=budget,
        rng=rng,
        extra_candidates=[_bell_rotation(rho, da)],
    )
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


def _lockstep(tasks, opt) -> list:
    """Run tasks that yield (distance, (K, d, d) stack) requests and receive
    the stack's SimplexResults; returns their return values in order. Each
    round minimizes the pending stacks of each (distance, d) as one stack
    under ``opt``: rows of ``minimize_diags`` never interact, so every task
    gets what calls on its own stacks would give. The tasks start in order,
    so the draws each makes before its first request come in that order."""
    results = [None] * len(tasks)
    asked = {}

    def advance(k, reply):
        try:
            asked[k] = tasks[k].send(reply)
        except StopIteration as stop:
            results[k] = stop.value

    for k in range(len(tasks)):
        advance(k, None)
    while asked:
        groups = {}
        for k, (distance, stack) in asked.items():
            groups.setdefault((distance.name, stack.shape[-1]), []).append((k, distance, stack))
        asked.clear()
        for members in groups.values():
            minima = iter(minimize_diags(np.concatenate([stack for _, _, stack in members]), members[0][1], opt))
            for k, _, stack in members:
                advance(k, [next(minima) for _ in stack])
    return results


def _minimum(distance, mat):
    """The minimum of one matrix under ``distance``, as a task."""
    (res,) = yield distance, mat[None]
    return res.value


def _minima_search(mats, budget, rngs, dims, distance, sign):
    """The searches of :func:`_search` as a task that scores each trial
    state by ``sign`` times its minimum under ``distance``. Returns the
    OptResults and the first round's minimizations."""
    search = _search(mats, budget, rngs, dims)
    first = minima = yield distance, next(search)
    while True:
        try:
            trials = search.send([sign * r.value for r in minima])
        except StopIteration as stop:
            return stop.value, first
        minima = yield distance, trials


def _report_task(rho, dims, distance, budget, rng):
    """:func:`hierarchy_report` as a task."""
    p = purity.p_distance(rho, distance)
    rng = rng if rng is not None else linalg.stream(0)
    (search,), first = yield from _minima_search(rho.mat[None], budget, [rng], dims, distance, -1)
    # the search's first round starts with its identity candidate, and
    # I rho I = rho bit for bit: its minimization is rho's own
    return HierarchyReport(
        distance=distance.name,
        purity=p,
        coherence_n=first[0].value,
        discord_upper=-search.best_value,
        witness_q=first[0].q,
        witness_product_unitary=search.best_unitary,
    )


def hierarchy_report(
    rho: DensityMatrix,
    dims,
    distance,
    budget=Budget(64, 200),
    rng: np.random.Generator | None = None,
    opt: SimplexOptConfig | None = None,
) -> HierarchyReport:
    """Purity, the composite coherence C_N and the discord_upper bound of
    one state, from one product search of minus the composite coherence."""
    return _lockstep([_report_task(_as_state(rho), dims, get_distance(distance), budget, rng)], opt)[0]


@dataclass(frozen=True)
class MaxHierarchyReport:
    """Unitary-orbit suprema against the exact purity ceiling: purity
    equals the maximal composite coherence and dominates the maximal
    discord. ``c_max_lower`` is the coherence of the MCMS, so
    ``optimizer_gap`` is the simplex optimizer's error there."""

    distance: str
    purity: float
    c_max_lower: float
    d_max_lower: float
    optimizer_gap: float

    @property
    def ok(self) -> bool:
        return self.c_max_lower <= self.purity + 1e-9 and self.d_max_lower <= self.purity + 1e-9


def _max_discord(rho, dims, distance, budget, rng, inner_budget):
    """The search for the maximal discord as a task: a global search whose
    trial states each take an ``inner_budget`` product search. Each round's
    inner searches climb in lockstep, each on a fresh deterministic stream,
    which keeps the outer objective pure."""
    rng = rng if rng is not None else linalg.stream(0)
    inner_seed = int(rng.integers(0, 2**63 - 1))
    search = _search(rho.mat[None], budget, [rng])
    trials = next(search)
    while True:
        streams = [linalg.stream(inner_seed) for _ in trials]
        inner, _ = yield from _minima_search(trials, inner_budget, streams, dims, distance, -1)
        try:
            trials = search.send([-r.best_value for r in inner])
        except StopIteration as stop:
            return stop.value[0].best_value


def _max_tasks(rho, dims, distance, budget, rng, inner_budget) -> list:
    """The tasks of :func:`max_hierarchy_check`: the MCMS's minimum, then
    the maximal discord search."""
    mcms = coherence.mcms(rho.spectrum, rho.dim).mat
    return [_minimum(distance, mcms), _max_discord(rho, dims, distance, budget, rng, inner_budget)]


def _max_report(rho, distance, c_max, d_max) -> MaxHierarchyReport:
    """:func:`max_hierarchy_check`'s report from its tasks' return values."""
    p = purity.p_distance(rho, distance)
    return MaxHierarchyReport(
        distance=distance.name,
        purity=p,
        c_max_lower=c_max,
        d_max_lower=d_max,
        optimizer_gap=p - c_max,
    )


def max_hierarchy_check(
    rho: DensityMatrix,
    dims,
    distance,
    budget=Budget(16, 8),
    rng: np.random.Generator | None = None,
    inner_budget=Budget(4, 2),
    opt: SimplexOptConfig | None = None,
) -> MaxHierarchyReport:
    """C_max is read off the MCMS of rho's spectrum, which attains it for
    every distance; only the maximal discord is searched, over ``budget``
    global unitaries each scored by an ``inner_budget`` product search.
    The MCMS and each round of the search are minimized as one stack."""
    rho = _as_state(rho)
    distance = get_distance(distance)
    return _max_report(rho, distance, *_lockstep(_max_tasks(rho, dims, distance, budget, rng, inner_budget), opt))


def hierarchy_checks(
    rho: DensityMatrix,
    dims,
    distance,
    budget=Budget(64, 200),
    rng: np.random.Generator | None = None,
    max_budget=Budget(16, 8),
    max_rng: np.random.Generator | None = None,
    inner_budget=Budget(4, 2),
    opt: SimplexOptConfig | None = None,
) -> tuple:
    """(hierarchy_report(rho, dims, distance, budget, rng, opt),
    max_hierarchy_check(rho, dims, distance, max_budget, max_rng,
    inner_budget, opt)), bit for bit, with the searches of both run in
    lockstep. ``rng`` and ``max_rng`` may be one stream, read as the two
    calls in turn would read it."""
    return _hierarchy_checks([(rho, distance)], dims, budget, rng, max_budget, max_rng, inner_budget, opt)[0]


def _hierarchy_checks(cases, dims, budget, rng, max_budget, max_rng, inner_budget, opt) -> list:
    """:func:`hierarchy_checks` of every (rho, distance) pair of ``cases``,
    bit for bit, all run in lockstep; the pairs start in order, so shared
    streams are read as calls in turn would read them."""
    cases = [(_as_state(rho), get_distance(distance)) for rho, distance in cases]
    tasks = []
    for rho, distance in cases:
        tasks.append(_report_task(rho, dims, distance, budget, rng))
        tasks += _max_tasks(rho, dims, distance, max_budget, max_rng, inner_budget)
    out = _lockstep(tasks, opt)
    return [
        (rep, _max_report(rho, distance, c_max, d_max))
        for (rho, distance), rep, c_max, d_max in zip(cases, out[::3], out[1::3], out[2::3])
    ]
