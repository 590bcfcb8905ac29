"""Minimization of contractive distances over the probability simplex of
diagonal (incoherent) states.

Where the minimum has a closed form (the relative entropy, Schatten-2,
Petz--Renyi orders in (0,1), and the trace norm and fidelity on
block-sparse states: every qubit, X and diagonal states), the distance's
``closed_form_minimizer`` gives it exactly. Otherwise the optimizer is
exponentiated-gradient mirror descent with multiple starts (Dirichlet
draws plus the dephased state and the uniform point), step halving on
non-improvement, and monotone acceptance: the returned value never exceeds
the objective at any start, which downstream code relies on for certified
upper bounds. Mirror descent also serves the tests as the oracle for the
closed forms, and a dense grid search over the simplex as the independent
verification oracle at small dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .linalg import LN2, DomainError, as_matrix

__all__ = [
    "Distance",
    "RelEntropyDistance",
    "SchattenDistance",
    "OneMinusFidelityDistance",
    "PetzAlphaDivergence",
    "SandwichedAlphaDivergence",
    "get_distance",
    "MENU",
    "SimplexOptConfig",
    "SimplexResult",
    "minimize_diag",
    "grid_minimize",
]

_EXP_CLIP = 60.0
_FLOOR = 1e-12
# mirror descent: a step gains only above _REL_TOL relative to the value;
# steps start at _STEP0 and a row stops once halved below _MIN_STEP
_REL_TOL = 1e-10
_STEP0 = 1.0
_MIN_STEP = 1e-12


class Distance:
    """A contractive distance D(rho, sigma) together with a batched
    value/gradient evaluator for sigma = diag(q) on the simplex."""

    name = "distance"
    # annealing schedule of smoothing widths for non-smooth objectives;
    # empty for objectives whose gradients are already well behaved
    smoothing = ()
    # constrained quasi-Newton finish: needed where mirror descent is slow
    # (kink valleys, and vertex optima that multiplicative updates only
    # reach asymptotically)
    needs_polish = False

    def between(self, rho, sigma) -> float:
        raise NotImplementedError

    def closed_form_minimizer(self, rho):
        """Return (value, q): the exact minimum over diagonal states and a
        minimizer, where a formula is known for rho; else None, and
        :func:`minimize_diag` runs mirror descent."""
        return None

    def diag_objective(self, rho, mu: float = 0.0):
        """Return (value, grad) closures over batches Q of shape (R, d),
        rows on the simplex: the objective of each row and its gradient in
        q. ``mu`` is the smoothing width for distances that declare a
        schedule."""
        raise NotImplementedError


class RelEntropyDistance(Distance):
    name = "rel_entropy"

    def between(self, rho, sigma):
        return linalg.rel_entropy(rho, sigma)

    def closed_form_minimizer(self, rho):
        q = _dephased(rho)
        value, _ = self.diag_objective(rho)
        return max(float(value(q[None, :])[0]), 0.0), q

    def diag_objective(self, rho, mu: float = 0.0):
        m = as_matrix(rho)
        r = np.clip(np.real(np.diagonal(m)), 0.0, None)
        p = np.clip(np.linalg.eigvalsh(m), 0.0, None)
        c1 = float(np.sum(p[p > 0] * np.log2(p[p > 0])))

        def value(Q):
            with np.errstate(divide="ignore", invalid="ignore"):
                lg = np.log2(Q)
                terms = np.where(r[None, :] > 0, r[None, :] * lg, 0.0)
            return c1 - terms.sum(axis=1)

        def grad(Q):
            return np.where(r[None, :] > 0, -r[None, :] / (Q * LN2), 0.0)

        return value, grad


class SchattenDistance(Distance):
    """Schatten p-norm distance ||rho - sigma||_p for p >= 1; p = 1 is the
    trace norm."""

    def __init__(self, p: float):
        if not (p >= 1.0):
            raise DomainError(f"Schatten distance requires p >= 1, got {p}")
        self.p = float(p)
        self.name = "trace_norm" if p == 1.0 else f"schatten_{p:g}"
        if p == 1.0:
            # |lam| is non-smooth at eigenvalue sign changes; anneal
            # sqrt(lam^2 + mu^2) down to the true objective
            self.smoothing = (1e-2, 1e-4, 1e-6, 1e-8, 0.0)
            self.needs_polish = True

    def between(self, rho, sigma):
        return linalg.schatten_norm(as_matrix(rho) - as_matrix(sigma), self.p)

    def closed_form_minimizer(self, rho):
        """Schatten-2 on every state; the trace norm on block-sparse states
        (every qubit, X and diagonal states), where each 2x2 block of rho -
        diag q has an eigenvalue gap of at least 2|c|, c its off-diagonal:
        C_l1 at q = diag rho (Rana, Parashar, Lewenstein, PRA 93, 012110)."""
        m = as_matrix(rho)
        if self.p == 2.0:
            # ||rho - diag q||_2^2 = (off-diagonal mass) + |q - diag rho|^2
            off = float(np.sum(np.abs(m - np.diag(np.diagonal(m))) ** 2))
            return math.sqrt(off), _dephased(m)
        if self.p != 1.0 or (blocks := _blocks(m)) is None:
            return None
        _, _, cij, cji = blocks
        return float(np.sum(cij + cji)), _dephased(m)

    def diag_objective(self, rho, mu: float = 0.0):
        m = as_matrix(rho)
        d = m.shape[0]
        p = self.p
        idx = np.arange(d)

        def _moduli(Q):
            A = np.broadcast_to(m, (Q.shape[0], d, d)).copy()
            A[:, idx, idx] -= Q
            lam, vec = np.linalg.eigh(A)
            # the smoothing width folds into the moduli: sqrt(lam^2 + mu^2)
            return lam, vec, np.sqrt(lam**2 + mu**2) if mu else np.abs(lam)

        def _norm(a):
            return np.sum(a, axis=1) if p == 1.0 else np.sum(a**p, axis=1) ** (1.0 / p)

        def value(Q):
            return _norm(_moduli(Q)[2])

        def grad(Q):
            lam, vec, a = _moduli(Q)
            g_eig = lam / a if mu else np.sign(lam)
            if p != 1.0:
                # d||A||_p/da_k = (a_k / ||A||_p)^(p-1)
                scale = np.maximum(_norm(a), 1e-300) ** (p - 1.0)
                g_eig = g_eig * a ** (p - 1.0) / scale[:, None]
            # d||A||_p / dq_i = -[V g(Lam) V^dag]_ii
            return -np.einsum("rik,rk->ri", np.abs(vec) ** 2, g_eig)

        return value, grad


class OneMinusFidelityDistance(Distance):
    name = "one_minus_fidelity"
    # pure states put the optimum on a simplex vertex
    needs_polish = True

    def between(self, rho, sigma):
        return 1.0 - linalg.fidelity(rho, sigma)

    def closed_form_minimizer(self, rho):
        """Block-sparse states (every qubit, X and diagonal states): the root
        fidelity splits over the blocks, so by Cauchy-Schwarz max F sums the
        blocks' maxima, (t + root) / 2 for a 2x2 block of diagonal sum t and
        difference z, root = sqrt(z^2 + 4 det) (Streltsov et al., PRL 115,
        020403), its mass split as (1 +- z / root) / 2. The formula is exact
        on pure blocks, where the objective carries ~1e-8 of dust."""
        m = as_matrix(rho)
        if (blocks := _blocks(m)) is None:
            return None
        i, j, cij, cji = blocks
        a, b = np.real(m[i, i]), np.real(m[j, j])
        t, z = a + b, a - b
        det = a * b - cij * cji
        root = np.minimum(np.sqrt(np.maximum(z * z + 4.0 * det, 0.0)), t)
        s = np.clip(np.divide(z, root, out=np.zeros_like(z), where=root > 0), -1.0, 1.0)
        q = np.clip(np.real(np.diagonal(m)), 0.0, None)
        q[i], q[j] = (t + root) * (1.0 + s) / 4.0, (t + root) * (1.0 - s) / 4.0
        return float(np.sum(t - root) / 2.0), q / q.sum()

    def diag_objective(self, rho, mu: float = 0.0):
        sq = linalg.mat_sqrt(as_matrix(rho))

        def _decompose(Q):
            B = np.einsum("ik,rk,kj->rij", sq, Q, sq)
            B = (B + np.conj(np.swapaxes(B, 1, 2))) / 2.0
            lam, vec = np.linalg.eigh(B)
            return np.clip(lam, 0.0, None), vec

        def value(Q):
            B = np.einsum("ik,rk,kj->rij", sq, Q, sq)
            B = (B + np.conj(np.swapaxes(B, 1, 2))) / 2.0
            lam = np.clip(np.linalg.eigvalsh(B), 0.0, None)
            return 1.0 - np.sum(np.sqrt(lam), axis=1) ** 2

        def grad(Q):
            lam, vec = _decompose(Q)
            t = np.sum(np.sqrt(lam), axis=1)
            # support-restricted lam^(-1/2)
            cut = np.maximum(lam[:, -1:], 1e-300) * 1e-12
            inv = np.where(lam > cut, 1.0 / np.sqrt(np.maximum(lam, 1e-300)), 0.0)
            w = np.einsum("rik,ij->rkj", np.conj(vec), sq)
            dt = 0.5 * np.einsum("rk,rki->ri", inv, np.abs(w) ** 2)
            return -2.0 * t[:, None] * dt

        return value, grad


class PetzAlphaDivergence(Distance):
    """Petz--Renyi divergence D_alpha for alpha in (0,1)."""

    def __init__(self, alpha: float):
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"Petz divergence order must lie in (0,1), got {alpha}")
        self.alpha = float(alpha)
        self.name = f"petz_{alpha:g}"

    def between(self, rho, sigma):
        return linalg.renyi_divergence(rho, sigma, self.alpha)

    def closed_form_minimizer(self, rho):
        a = self.alpha
        # Hoelder: sum_i c_i q_i^(1-a) <= (sum_i c_i^(1/a))^a with c the
        # diagonal of rho^a, attained at q_i proportional to c_i^(1/a)
        w = _diag_power(rho, a) ** (1.0 / a)
        total = float(w.sum())
        return a / (a - 1.0) * math.log2(total), w / total

    def diag_objective(self, rho, mu: float = 0.0):
        a = self.alpha
        coeff = _diag_power(rho, a)

        def value(Q):
            t = np.einsum("i,ri->r", coeff, Q ** (1.0 - a))
            return np.where(t > 0, np.log2(np.maximum(t, 1e-300)), np.inf) / (a - 1.0)

        def grad(Q):
            with np.errstate(divide="ignore", over="ignore"):
                t = np.einsum("i,ri->r", coeff, Q ** (1.0 - a))
                g = -coeff[None, :] * Q ** (-a) / (LN2 * np.maximum(t, 1e-300))[:, None]
            return np.nan_to_num(g, nan=0.0, posinf=0.0, neginf=0.0)

        return value, grad


def _diag_power(rho, a: float) -> np.ndarray:
    """Diagonal of rho^a, with rho's eigenvalue dust set to zero."""
    es = linalg.hermitian_eig(rho)
    pv = linalg.drop_dust(es.values)
    pa = np.where(pv > 0, pv**a, 0.0)
    return np.einsum("k,ik->i", pa, np.abs(es.vectors) ** 2)


class SandwichedAlphaDivergence(Distance):
    """Sandwiched Renyi divergence for alpha in [1/2, 1) u (1, inf)."""

    def __init__(self, alpha: float):
        if not (alpha >= 0.5) or alpha == 1.0:
            raise DomainError(f"sandwiched order must lie in [1/2,1) u (1,inf), got {alpha}")
        self.alpha = float(alpha)
        self.name = f"sandwiched_{alpha:g}"

    def between(self, rho, sigma):
        return linalg.sandwiched_renyi(rho, sigma, self.alpha)

    def diag_objective(self, rho, mu: float = 0.0):
        a = self.alpha
        beta = (1.0 - a) / (2.0 * a)
        m = as_matrix(rho)

        def _finish(t):
            with np.errstate(divide="ignore"):
                return np.where(t > 0, np.log2(np.maximum(t, 1e-300)), np.inf) / (a - 1.0)

        if a == 2.0:
            # Tr M^2 = sum_ij |rho_ij|^2 w_i w_j with w = q^(-1/2): a
            # quadratic form, no eigendecomposition
            A = np.abs(m) ** 2

            def _trace_sq(Q):
                w = 1.0 / np.sqrt(Q)
                Aw = np.einsum("ij,rj->ri", A, w)
                return w, Aw, np.einsum("ri,ri->r", w, Aw)

            def value2(Q):
                return _finish(_trace_sq(Q)[2])

            def grad2(Q):
                w, Aw, t = _trace_sq(Q)
                # dT/dq_i = 2 a beta (M^2)_ii / q_i with 2 a beta = -1
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    g = -w * Aw / Q / (LN2 * np.maximum(t, 1e-300))[:, None]
                return np.nan_to_num(g, nan=0.0, posinf=0.0, neginf=0.0)

            return value2, grad2

        def _decompose(Q):
            w = Q**beta
            M = m[None, :, :] * (w[:, :, None] * w[:, None, :])
            M = (M + np.conj(np.swapaxes(M, 1, 2))) / 2.0
            lam, vec = np.linalg.eigh(M)
            return np.clip(lam, 0.0, None), vec

        def value(Q):
            lam, _ = _decompose(Q)
            # extreme orders overflow lam^a to inf, which the value reports
            with np.errstate(over="ignore"):
                return _finish(np.sum(lam**a, axis=1))

        def grad(Q):
            lam, vec = _decompose(Q)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                la = lam**a
                t = np.sum(la, axis=1)
                # diag of M^alpha, then dT/dq_i = 2 a beta (M^alpha)_ii / q_i
                diag_ma = np.einsum("rik,rk->ri", np.abs(vec) ** 2, la)
                dt = 2.0 * a * beta * diag_ma / Q
                g = dt / ((a - 1.0) * LN2 * np.maximum(t, 1e-300))[:, None]
            return np.nan_to_num(g, nan=0.0, posinf=0.0, neginf=0.0)

        return value, grad


MENU = ("rel_entropy", "trace_norm", "schatten_2", "one_minus_fidelity")


def get_distance(spec) -> Distance:
    """Resolve a distance from an instance or a menu name; Schatten
    distances parse their order from the name (e.g. ``schatten_2``)."""
    if isinstance(spec, Distance):
        return spec
    name = str(spec)
    if name == "rel_entropy":
        return RelEntropyDistance()
    if name == "trace_norm":
        return SchattenDistance(1.0)
    if name == "one_minus_fidelity":
        return OneMinusFidelityDistance()
    if name.startswith("schatten_"):
        return SchattenDistance(float(name.removeprefix("schatten_")))
    raise DomainError(f"unknown distance {spec!r}; menu: {MENU}")


@dataclass(frozen=True)
class SimplexOptConfig:
    """Mirror-descent settings. ``restarts`` counts the Dirichlet starts
    added on top of the always-included dephased and uniform points;
    ``polish`` enables the exact line-search finish for non-smooth
    distances (the trace norm), whose kink minima stall gradient steps."""

    restarts: int = 20
    max_iter: int = 5000
    seed: int = 0
    polish: bool = True


@dataclass(frozen=True)
class SimplexResult:
    value: float
    q: np.ndarray
    converged: bool
    iterations: int
    evals: int


def _blocks(m: np.ndarray):
    """(i, j, |m_ij|, |m_ji|) over m's 2x2 blocks, i < j, when every row of
    its symmetric off-diagonal pattern is exactly zero beyond one entry;
    else None, so a near-sparse state keeps the optimizer. The moduli round
    as abs() of a complex scalar: numpy's vectorized complex abs can differ
    in the last bit, which a pure block's near-zero determinant amplifies."""
    nz = (m != 0) | (m.T != 0)
    np.fill_diagonal(nz, False)
    if np.any(nz.sum(axis=1) > 1):
        return None
    i, j = np.nonzero(np.triu(nz))
    mod = np.hypot(m.real, m.imag)
    return i, j, mod[i, j], mod[j, i]


def _dephased(rho) -> np.ndarray:
    q = np.clip(np.real(np.diagonal(as_matrix(rho))), 0.0, None)
    return q / q.sum()


def _starts(rho, cfg: SimplexOptConfig) -> np.ndarray:
    d = as_matrix(rho).shape[0]
    rows = [np.full(d, 1.0 / d), _dephased(rho)]
    if cfg.restarts > 0:
        rng = linalg.stream(cfg.seed)
        rows.extend(rng.dirichlet(np.ones(d)) for _ in range(cfg.restarts))
    q = np.clip(np.asarray(rows), _FLOOR, None)
    return q / q.sum(axis=1, keepdims=True)


def _eg_stage(value, grad, Q, max_iter, rel_tol):
    """One exponentiated-gradient descent run over a batch of starts with
    per-row step halving; mutates and returns (Q, V, iterations, evals,
    all_done). Rows never interact, so each iteration evaluates only the
    rows that are still running; ``evals`` counts those evaluations."""
    R = Q.shape[0]
    V = value(Q)
    eta = np.full(R, _STEP0)
    stall = np.zeros(R, dtype=int)
    fails = np.zeros(R, dtype=int)
    done = np.zeros(R, dtype=bool)
    evals = R
    it = 0
    while it < max_iter and not done.all():
        it += 1
        live = np.flatnonzero(~done)
        Ql, Vl, el = Q[live], V[live], eta[live]
        G = grad(Ql)
        G = np.where(np.isfinite(G), G, 0.0)
        expo = -el[:, None] * (G - G.mean(axis=1, keepdims=True))
        Qn = Ql * np.exp(np.clip(expo, -_EXP_CLIP, _EXP_CLIP))
        Qn = np.clip(Qn, 1e-300, None)
        Qn /= Qn.sum(axis=1, keepdims=True)
        Vn = value(Qn)
        evals += 2 * live.size
        better = Vn < Vl
        # rows whose objective is infinite throughout (inf - inf) are never better
        with np.errstate(invalid="ignore"):
            meaningful = (Vl - Vn) > rel_tol * np.maximum(1.0, np.abs(Vl))
        Q[live[better]] = Qn[better]
        V[live[better]] = Vn[better]
        sl = stall[live]
        stall[live] = np.where(better, np.where(meaningful, 0, sl + 1), sl)
        fails[live] = np.where(better, 0, fails[live] + 1)
        eta[live] = np.where(better, np.minimum(el * 1.25, 8.0 * _STEP0), el / 2.0)
        done[live] = (eta[live] < _MIN_STEP) | (stall[live] >= 3) | (fails[live] >= 14)
    return Q, V, it, evals, bool(done.all())


def minimize_diag(rho, distance, cfg: SimplexOptConfig | None = None) -> SimplexResult:
    """Minimize distance(rho, diag(q)) over the probability simplex.

    The distance's closed form gives the exact minimum where one applies;
    otherwise :func:`_mirror_descent` runs. A non-finite value is never
    reported as converged, and a value in [-1e-12, 0) is reported as 0.
    """
    distance = get_distance(distance)
    closed = distance.closed_form_minimizer(rho)
    if closed is None:
        res = _mirror_descent(rho, distance, cfg or SimplexOptConfig())
    else:
        value, q = closed
        res = SimplexResult(value, q, True, 0, 1)
    if not math.isfinite(res.value):
        return replace(res, converged=False)
    if -1e-12 <= res.value < 0.0:
        # contractive divergences between states are nonnegative; tiny
        # negative values are round-off
        return replace(res, value=0.0)
    return res


def _mirror_descent(rho, distance: Distance, cfg: SimplexOptConfig) -> SimplexResult:
    """Multi-start mirror descent, the path for distances without a closed
    form and the tests' oracle for those with one.

    Non-smooth distances run through their annealed smoothing schedule
    with warm starts. The final selection always re-includes the raw
    starting points under the true objective, so the result never exceeds
    the objective at the uniform or dephased starts regardless of where
    the smoothed stages wandered.
    """
    starts = _starts(rho, cfg)
    schedule = distance.smoothing or (0.0,)
    stage_iters = max(cfg.max_iter // len(schedule), 50)
    Q = starts.copy()
    total_it = 0
    total_ev = 0
    all_done = False
    for mu in schedule:
        value, grad = distance.diag_objective(rho, mu=mu)
        # intermediate smoothed landscapes only need to be solved to the
        # scale of their own smoothing width
        stage_tol = max(mu * 1e-2, _REL_TOL)
        Q, _, it, ev, all_done = _eg_stage(value, grad, Q, stage_iters, stage_tol)
        total_it += it
        total_ev += ev
    converged = all_done
    true_value, _ = distance.diag_objective(rho, mu=0.0)
    pool = np.vstack([Q, starts])
    vals = true_value(pool)
    total_ev += pool.shape[0]
    best = int(np.argmin(vals))
    q_best, v_best = pool[best].copy(), float(vals[best])
    if cfg.polish and distance.needs_polish:
        q_best, v_best, ev = _slsqp_polish(distance, rho, q_best, v_best)
        total_ev += ev
    return SimplexResult(v_best, q_best, converged, total_it, total_ev)


def _slsqp_polish(distance, rho, q, v):
    """Constrained quasi-Newton finish for non-smooth distances: mirror
    descent lands near the kink valley of the trace norm but zigzags
    inside it; SLSQP closes the last ~1e-5. Acceptance stays monotone."""
    from scipy.optimize import minimize as _scipy_minimize

    value, grad = distance.diag_objective(rho)
    d = q.size

    def fun(x):
        return float(value(np.clip(x, 0.0, None)[None, :])[0])

    def jac(x):
        return grad(np.clip(x, 1e-14, None)[None, :])[0]

    res = _scipy_minimize(
        fun,
        q,
        jac=jac,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * d,
        constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0, "jac": lambda x: np.ones(d)}],
        options={"maxiter": 200, "ftol": 1e-14},
    )
    x = np.clip(res.x, 0.0, None)
    total = x.sum()
    if not np.isfinite(total) or total <= 0:
        return q, v, int(res.nfev)
    x /= total
    vx = fun(x)
    if vx < v:
        return x, vx, int(res.nfev)
    return q, v, int(res.nfev)


# ---------------------------------------------------------------------------
# independent grid oracle


def _grid_points(d: int, resolution: float) -> np.ndarray:
    n = int(round(1.0 / resolution))
    if d == 2:
        t = np.arange(n + 1) / n
        return np.column_stack([t, 1.0 - t])
    if d == 3:
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        mask = i + j <= n
        i, j = i[mask], j[mask]
        return np.column_stack([i, j, n - i - j]) / n
    raise DomainError(f"grid oracle supports d <= 3, got d = {d}")


def grid_minimize(rho, distance, resolution: float = 1e-3):
    """Dense grid search over the simplex; independent check of
    :func:`minimize_diag` for d <= 3. Returns (value, q)."""
    distance = get_distance(distance)
    m = as_matrix(rho)
    Q = _grid_points(m.shape[0], resolution)
    vals = _grid_eval(m, distance, Q)
    k = int(np.argmin(vals))
    return float(vals[k]), Q[k].copy()


def _grid_eval(m: np.ndarray, distance: Distance, Q: np.ndarray) -> np.ndarray:
    """Direct vectorized evaluation used only by the oracle; deliberately
    bypasses the optimizer's objective closures."""
    d = m.shape[0]
    eye = np.eye(d)
    if isinstance(distance, RelEntropyDistance):
        p = np.clip(np.linalg.eigvalsh(m), 0.0, None)
        c1 = float(np.sum(p[p > 0] * np.log2(p[p > 0])))
        r = np.clip(np.real(np.diagonal(m)), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.where(Q > 0, np.log2(np.maximum(Q, 1e-300)), -np.inf)
        cross = np.where(r[None, :] > 0, -r[None, :] * lg, 0.0).sum(axis=1)
        return c1 + cross
    if isinstance(distance, SchattenDistance):
        lam = np.linalg.eigvalsh(m[None, :, :] - Q[:, :, None] * eye[None, :, :])
        return np.sum(np.abs(lam) ** distance.p, axis=1) ** (1.0 / distance.p)
    if isinstance(distance, OneMinusFidelityDistance):
        sq = linalg.mat_sqrt(m)
        B = np.einsum("ik,rk,kj->rij", sq, Q, sq)
        lam = np.clip(np.linalg.eigvalsh((B + np.conj(np.swapaxes(B, 1, 2))) / 2.0), 0.0, None)
        return 1.0 - np.sum(np.sqrt(lam), axis=1) ** 2
    if isinstance(distance, PetzAlphaDivergence):
        a = distance.alpha
        es = linalg.hermitian_eig(m)
        pv = linalg.drop_dust(es.values)
        coeff = np.einsum("k,ik->i", np.where(pv > 0, pv**a, 0.0), np.abs(es.vectors) ** 2)
        t = np.einsum("i,ri->r", coeff, Q ** (1.0 - a))
        return np.where(t > 0, np.log2(np.maximum(t, 1e-300)), np.inf) / (a - 1.0)
    if isinstance(distance, SandwichedAlphaDivergence):
        a = distance.alpha
        out = np.full(Q.shape[0], np.inf)
        # boundary points with a > 1 violate the support condition outright
        interior = (Q > 0).all(axis=1) if a > 1.0 else np.ones(Q.shape[0], dtype=bool)
        with np.errstate(divide="ignore", over="ignore"):
            w = Q[interior] ** ((1.0 - a) / (2.0 * a))
            M = m[None, :, :] * (w[:, :, None] * w[:, None, :])
            lam = np.clip(np.linalg.eigvalsh((M + np.conj(np.swapaxes(M, 1, 2))) / 2.0), 0.0, None)
            t = np.sum(lam**a, axis=1)
            out[interior] = np.where(t > 0, np.log2(np.maximum(t, 1e-300)), np.inf) / (a - 1.0)
        return out
    # fall back to the generic two-state evaluator
    return np.array([distance.between(m, np.diag(q).astype(complex)) for q in Q])
