"""Minimization of contractive distances over the probability simplex of
diagonal (incoherent) states.

The engine, :func:`minimize_diags`, works on a stack of states. Where
the minimum has a closed form (the relative entropy, Schatten-2,
Petz--Renyi orders in (0,1), and the trace norm and fidelity on
block-sparse states: every qubit, X and diagonal states), the distance's
``closed_forms`` gives it exactly, the relative entropy and Schatten-2 by
one evaluation of the whole stack. The other states of the trace norm and
of sandwiched order 2 run one damped Newton method on the simplex together
(:func:`_simplex_newton`): order 2 on its quadratic form in q^(-1/2) in one
stage, the trace norm through a log-barrier homotopy on one spectral
objective (:class:`_SpectralBarrier`), a function phi summed over the
eigenvalues of a pencil affine in q, here phi = sqrt(lam^2 + mu^2) on
rho - diag q. Both objectives are convex, so a single start suffices;
each computes its own values, and the Newton path reads no config. The
states of every other distance run one exponentiated-gradient mirror
descent together, with ``_RESTARTS`` Dirichlet starts each beside the
dephased state and the uniform point, per-row step halving on
non-improvement, and monotone acceptance. The fidelity runs the same
Newton loop on the same spectral objective with phi = -sqrt(b) on its
pencil B(q), whose Tr sqrt is concave, grouped by support rank, on one of
two paths that ``SimplexOptConfig.polish``, the one setting, selects: set,
it finishes mirror descent, and each state keeps the lower of the two
points under mirror descent's evaluator; unset, it runs alone from the
trace norm's start, near the dephased state, and values its points on the
pencil itself, free of the eigenvalue dust of sqrt(rho). Either way the
returned value never exceeds the objective at the uniform or the dephased
point, which downstream code relies on for certified upper bounds. Rows
never interact, so each state's result is bit for bit that of a run on its
own, and names its method. The distances' ``diag_objective`` evaluators
serve mirror descent and the tests, where mirror descent, with the trace
norm's smoothing schedule, is the oracle for the closed forms and the
Newton solver, and a dense grid search over the simplex the independent
verification oracle at small dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .linalg import LN2, DomainError, as_matrix
from .states import _renyi_bits

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
    "minimize_diags",
    "grid_minimize",
]

_EXP_CLIP = 60.0
_FLOOR = 1e-12
# mirror descent: a step gains only above _REL_TOL relative to the value;
# steps start at _STEP0 and a row stops once halved below _MIN_STEP
_REL_TOL = 1e-10
_STEP0 = 1.0
_MIN_STEP = 1e-12
# mirror descent's Dirichlet starts beside the dephased and uniform points,
# drawn from the stream of _SEED, and its iteration budget over all stages
_RESTARTS = 20
_SEED = 0
_MAX_ITER = 5000
# barrier weights of the trace norm's and the fidelity's Newton homotopies,
# largest first; the smoothing and the barrier each bias the value by at
# most d * mu
_BARRIER = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
# both barriers start from a point mixed with _UNIFORM_MIX of the uniform
# point, which keeps every q_i >= _UNIFORM_MIX / d: cold from the dephased
# state through all weights, and the fidelity's finish of mirror descent
# from its best point through the weights from 1e-6 down
_UNIFORM_MIX = 0.1
_WARM_BARRIER = _BARRIER[2:]
# a stage ends once the squared Newton decrement falls below _DECREMENT * mu,
# or below _ROUNDOFF * |f_mu|, where no line search can resolve a decrease
_DECREMENT = 1e-3
_ROUNDOFF = 16 * np.finfo(float).eps
_BOUNDARY = 0.99
_ARMIJO = 0.25
# cap on Newton steps per state, far above need: no state of the tests or
# of the benchmark's workloads takes more than 46
_NEWTON_STEPS = 200
# sandwiched order 2: an index i with A_ii = 0 whose row adds at most half
# an ulp to T at the optimum is held at q_i = 0, and so is a set of them
# linked only among themselves (see _RenyiTwoForm)
_NEGLIGIBLE_ROW = (np.finfo(float).eps / 6.0) ** 1.5
_NEGLIGIBLE_SET = (np.finfo(float).eps / 6.0) ** 2


class Distance:
    """A contractive distance D(rho, sigma) together with a batched
    value/gradient evaluator for sigma = diag(q) on the simplex, over a
    stack of states rho."""

    name = "distance"
    # annealing schedule of smoothing widths for non-smooth objectives;
    # empty for objectives whose gradients are already well behaved
    smoothing = ()

    def between(self, rho, sigma) -> float:
        raise NotImplementedError

    def to_mixed(self, values) -> float:
        """D(rho, 1/d) from rho's spectrum ``values`` (descending and
        dust-dropped, as :class:`~cohpure.states.Spectrum` holds it). A
        contractive distance is unitarily invariant, so this is the
        distance from diag(values) to 1/d; the menu distances and the
        Renyi divergences override it with closed forms."""
        p = np.asarray(values, dtype=float)
        return self.between(np.diag(p).astype(complex), np.eye(p.size, dtype=complex) / p.size)

    def closed_forms(self, mats) -> list:
        """For every state of a (N, d, d) stack, (value, q): the exact
        minimum over diagonal states and a minimizer, where a formula is
        known for the state; else None, and :func:`minimize_diags` runs its
        optimizer. The base loops over the one-state :meth:`_closed_form`;
        a distance that evaluates a whole stack at once overrides this."""
        return [self._closed_form(m) for m in _stack(mats)]

    def _closed_form(self, rho):
        return None

    def newton_objective(self, mats):
        """The convex objective that :func:`_simplex_newton` minimizes for
        the (N, d, d) stack ``mats``, or None, and :func:`minimize_diags`
        runs mirror descent."""
        return None

    def newton_solve(self, mats, best=None, evaluate=None):
        """One SimplexResult per state of the (N, d, d) stack ``mats`` from a
        Newton run that finishes mirror descent's search from its best
        points ``best`` (N, d), valued by its evaluator ``evaluate``, where
        ``SimplexOptConfig.polish`` is set, and that replaces the search,
        valued by its own objective, where it is unset (``best`` and
        ``evaluate`` None); None for a distance without one."""
        return None

    def diag_objective(self, mats, mu: float = 0.0):
        """Mirror descent's evaluator, also read by the relative entropy's
        closed form and by the tests as the oracle for the Newton objectives:
        the closure ``evaluate(Q, s=None, below=None) -> (V, G)`` over
        batches Q of shape (R, d), rows on the simplex, and their state
        indices s of shape (R,) into the (N, d, d) stack ``mats`` (one
        matrix counts as a stack of one; s defaults to state 0 for every
        row): the objective V of each row and its gradient G in q, both
        from one decomposition of the row's matrix (the fidelity takes V
        from eigvalsh and G from eigh, only where V < ``below`` if given).
        ``mu`` is the smoothing width for distances that declare a schedule."""
        raise NotImplementedError


def _stack(mats) -> np.ndarray:
    """A (N, d, d) complex stack from one matrix or a stack of them."""
    m = as_matrix(mats)
    return m.reshape(-1, *m.shape[-2:])


def _rows(Q, s):
    """State index of every row of Q: ``s``, or state 0 when it is None."""
    return np.zeros(Q.shape[0], dtype=np.intp) if s is None else s


class RelEntropyDistance(Distance):
    name = "rel_entropy"

    def between(self, rho, sigma):
        return linalg.rel_entropy(rho, sigma)

    def to_mixed(self, values):
        return _renyi_to_mixed(values, 1.0)

    def closed_forms(self, mats):
        # C_r = S(Delta rho) - S(rho) at q = Delta rho, clipped at 0
        q = _dephased(_stack(mats))
        v = self.diag_objective(mats)(q, np.arange(q.shape[0]))[0]
        return list(zip(np.where(v < 0.0, 0.0, v).tolist(), q))

    def diag_objective(self, mats, mu: float = 0.0):
        m = _stack(mats)
        r = np.clip(np.real(np.diagonal(m, axis1=1, axis2=2)), 0.0, None)
        c1 = -linalg.entropy_bits(np.clip(np.linalg.eigvalsh(m), 0.0, None))

        def evaluate(Q, s=None, below=None):
            s = _rows(Q, s)
            rs = r[s]
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(rs > 0, rs * np.log2(Q), 0.0)
                G = np.where(rs > 0, -rs / (Q * LN2), 0.0)
            return c1[s] - terms.sum(axis=1), G

        return evaluate


class SchattenDistance(Distance):
    """Schatten p-norm distance ||rho - sigma||_p for p >= 1; p = 1 is the
    trace norm."""

    def __init__(self, p: float):
        if not (1.0 <= p < math.inf):
            raise DomainError(f"Schatten distance requires a finite p >= 1, got {p}")
        self.p = float(p)
        self.name = "trace_norm" if p == 1.0 else f"schatten_{p:g}"
        if p == 1.0:
            # |lam| is non-smooth at eigenvalue sign changes; mirror
            # descent anneals sqrt(lam^2 + mu^2) down to the true objective.
            # It runs the trace norm only as the tests' oracle:
            # minimize_diags sends it to _simplex_newton
            self.smoothing = (1e-2, 1e-4, 1e-6, 1e-8, 0.0)

    def between(self, rho, sigma):
        return linalg.schatten_norm(as_matrix(rho) - as_matrix(sigma), self.p)

    def to_mixed(self, values):
        p = np.asarray(values, dtype=float)
        return float(_p_norm(np.abs(p - 1.0 / p.size), self.p))

    def closed_forms(self, mats):
        """Schatten-2 on every state, the whole stack at once; the trace
        norm state by state on block-sparse states (every qubit, X and
        diagonal states), where each 2x2 block of rho - diag q has an
        eigenvalue gap of at least 2|c|, c its off-diagonal: C_l1 at
        q = diag rho (Rana, Parashar, Lewenstein, PRA 93, 012110)."""
        if self.p != 2.0:
            return super().closed_forms(mats)
        # ||rho - diag q||_2^2 = (off-diagonal mass) + |q - diag rho|^2
        m = _stack(mats)
        off = np.sum(np.abs(m * (1.0 - np.eye(m.shape[-1]))) ** 2, axis=(1, 2))
        return list(zip(np.sqrt(off).tolist(), _dephased(m)))

    def _closed_form(self, rho):
        m = as_matrix(rho)
        if self.p != 1.0 or (blocks := _blocks(m)) is None:
            return None
        _, _, cij, cji = blocks
        return float(np.sum(cij + cji)), _dephased(m)

    def newton_objective(self, mats):
        if self.p != 1.0:
            return None
        return _SpectralBarrier(mats, _SmoothedModulus, _off_faces(_dephased(mats)), _BARRIER)

    def diag_objective(self, mats, mu: float = 0.0):
        m = _stack(mats)
        p = self.p
        idx = np.arange(m.shape[-1])

        def evaluate(Q, s=None, below=None):
            A = m[_rows(Q, s)]
            A[:, idx, idx] -= Q
            lam, vec = np.linalg.eigh(A)
            # the smoothing width folds into the moduli: sqrt(lam^2 + mu^2)
            a = np.sqrt(lam**2 + mu**2) if mu else np.abs(lam)
            g_eig = lam / a if mu else np.sign(lam)
            if p == 1.0:
                V = np.sum(a, axis=1)
            else:
                V = _p_norm(a, p)
                # d||A||_p/da_k = (a_k / ||A||_p)^(p-1)
                g_eig = g_eig * (a / np.maximum(V, 1e-300)[:, None]) ** (p - 1.0)
            # d||A||_p / dq_i = -[V g(Lam) V^dag]_ii
            return V, -np.einsum("rik,rk->ri", np.abs(vec) ** 2, g_eig)

        return evaluate


def _p_norm(a, p: float):
    """(sum_k a_k^p)^(1/p) over the last axis of the moduli a, scaled by
    the largest modulus so that a^p cannot underflow: at a huge order it
    is the largest modulus."""
    top = np.maximum(a.max(axis=-1), 1e-300)
    return top * np.sum((a / top[..., None]) ** p, axis=-1) ** (1.0 / p)


class OneMinusFidelityDistance(Distance):
    name = "one_minus_fidelity"

    def between(self, rho, sigma):
        return 1.0 - linalg.fidelity(rho, sigma)

    def to_mixed(self, values):
        """1 - F(rho, 1/d) = 1 - (sum_i sqrt(p_i))^2 / d, in [0, 1 - 1/d]."""
        p = np.asarray(values, dtype=float)
        tr_sqrt = float(np.sum(np.sqrt(p)))
        return min(max(1.0 - tr_sqrt**2 / p.size, 0.0), 1.0 - 1.0 / p.size)

    def _closed_form(self, rho):
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

    def newton_solve(self, mats, best=None, evaluate=None):
        # pure states put the optimum on a simplex vertex, which mirror
        # descent's multiplicative steps reach only asymptotically
        return _fidelity_newton(mats, evaluate, best)

    def diag_objective(self, mats, mu: float = 0.0):
        sq = np.stack([linalg.mat_sqrt(m) for m in _stack(mats)])

        def value(B):
            # from eigvalsh, which differs from eigh's eigenvalues in the
            # last bits
            return 1.0 - np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(B), 0.0, None)), axis=1) ** 2

        def gradient(B, sqs):
            lam, vec = np.linalg.eigh(B)
            lam = np.clip(lam, 0.0, None)
            t = np.sum(np.sqrt(lam), axis=1)
            # support-restricted lam^(-1/2)
            cut = np.maximum(lam[:, -1:], 1e-300) * 1e-12
            inv = np.where(lam > cut, 1.0 / np.sqrt(np.maximum(lam, 1e-300)), 0.0)
            w = np.einsum("rik,rij->rkj", np.conj(vec), sqs)
            dt = 0.5 * np.einsum("rk,rki->ri", inv, np.abs(w) ** 2)
            return -2.0 * t[:, None] * dt

        def evaluate(Q, s=None, below=None):
            sqs = sq[_rows(Q, s)]
            B = np.einsum("rik,rk,rkj->rij", sqs, Q, sqs)
            B = (B + np.conj(np.swapaxes(B, 1, 2))) / 2.0
            V = value(B)
            live = np.full(V.shape, True) if below is None else V < below
            G = np.zeros_like(Q)
            G[live] = gradient(B[live], sqs[live])
            return V, G

        return evaluate


class PetzAlphaDivergence(Distance):
    """Petz--Renyi divergence D_alpha for alpha in (0,1)."""

    def __init__(self, alpha: float):
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"Petz divergence order must lie in (0,1), got {alpha}")
        self.alpha = float(alpha)
        self.name = f"petz_{alpha:g}"

    def between(self, rho, sigma):
        return linalg.renyi_divergence(rho, sigma, self.alpha)

    def to_mixed(self, values):
        return _renyi_to_mixed(values, self.alpha)

    def _closed_form(self, rho):
        a = self.alpha
        # Hoelder: sum_i c_i q_i^(1-a) <= (sum_i c_i^(1/a))^a with c the
        # diagonal of rho^a, attained at q_i proportional to c_i^(1/a).
        # c_i^(1/a) underflows at small orders, so the sum is taken in the
        # log domain, scaled by the largest coefficient: with l = log2 c,
        # the value a/(a-1) log2 sum_i 2^(l_i/a) is
        # (max l + a log2 sum_i 2^((l_i - max l)/a)) / (a - 1)
        c = _diag_power(rho, a)
        with np.errstate(divide="ignore"):
            lc = np.log2(c)
        top = float(lc.max())
        w = np.exp2((lc - top) / a)
        total = float(w.sum())
        num = top + a * math.log2(total)
        # num is 0 when one coefficient is 1 and the rest vanish: report 0, not -0
        return (num / (a - 1.0) if num else 0.0), w / total

    def diag_objective(self, mats, mu: float = 0.0):
        a = self.alpha
        coeff = np.stack([_diag_power(m, a) for m in _stack(mats)])

        def evaluate(Q, s=None, below=None):
            c = coeff[_rows(Q, s)]
            t = np.einsum("ri,ri->r", c, Q ** (1.0 - a))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                G = -c * Q ** (-a) / (LN2 * np.maximum(t, 1e-300))[:, None]
            return _renyi_value(t, a), np.nan_to_num(G, nan=0.0, posinf=0.0, neginf=0.0)

        return evaluate


def _renyi_to_mixed(values, a: float) -> float:
    """D_a(rho, 1/d) = log2(d) - S_a(p) from rho's spectrum p, for the
    relative entropy (a = 1) and every Petz and sandwiched order: 1/d
    commutes with rho. Clipped at 0 against round-off, as p_alpha is."""
    p = np.asarray(values, dtype=float)
    return max(math.log2(p.size) - _renyi_bits(p, a), 0.0)


def _renyi_value(t, a: float) -> np.ndarray:
    """log2(t) / (a - 1) rowwise, infinite where the trace t is 0."""
    with np.errstate(divide="ignore"):
        return np.where(t > 0, np.log2(np.maximum(t, 1e-300)), np.inf) / (a - 1.0)


def _diag_power(rho, a: float) -> np.ndarray:
    """Diagonal of rho^a, with rho's eigenvalue dust set to zero."""
    es = linalg.hermitian_eig(rho)
    pv = linalg.drop_dust(es.values)
    pa = np.where(pv > 0, pv**a, 0.0)
    return np.einsum("k,ik->i", pa, np.abs(es.vectors) ** 2)


class SandwichedAlphaDivergence(Distance):
    """Sandwiched Renyi divergence for alpha > 1; c_alpha sends every
    order below 1 to the Petz divergence."""

    def __init__(self, alpha: float):
        if not (alpha > 1.0):
            raise DomainError(f"sandwiched order must exceed 1, got {alpha}")
        self.alpha = float(alpha)
        self.name = f"sandwiched_{alpha:g}"

    def between(self, rho, sigma):
        return linalg.sandwiched_renyi(rho, sigma, self.alpha)

    def to_mixed(self, values):
        return _renyi_to_mixed(values, self.alpha)

    def newton_objective(self, mats):
        return _RenyiTwoForm(mats) if self.alpha == 2.0 else None

    def diag_objective(self, mats, mu: float = 0.0):
        a = self.alpha
        # (1 - a) / (2a) without forming 2a, which overflows at a = 1e308
        beta = (1.0 - a) / a / 2.0
        m = _stack(mats)
        # rows of rho that are not zero: a point with q_i = 0 on one of them
        # violates the support condition, and elsewhere sigma^beta is taken
        # on sigma's support, where it is rho's
        live = np.any(m != 0, axis=2)

        def evaluate(Q, s=None, below=None):
            s = _rows(Q, s)
            outside = np.any((Q == 0) & live[s], axis=1)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                w = np.where(Q > 0, Q**beta, 0.0)
                M = m[s] * (w[:, :, None] * w[:, None, :])
                lam, vec = np.linalg.eigh((M + np.conj(np.swapaxes(M, 1, 2))) / 2.0)
                # scaled by the largest eigenvalue, lam^a cannot overflow at
                # a huge order: Tr M^a = top^a sum_k (lam_k / top)^a
                top = np.maximum(lam[:, -1], 0.0)
                la = (np.clip(lam, 0.0, None) / top[:, None]) ** a
                t = np.sum(la, axis=1)
                V = np.where(top > 0, a / (a - 1.0) * np.log2(top) + np.log2(t) / (a - 1.0), np.inf)
                V = np.where(outside, np.inf, V)
                # dT/dq_i / T = 2 a beta (M^a)_ii / (q_i T), a ratio free of the scale
                diag_ma = np.einsum("rik,rk->ri", np.abs(vec) ** 2, la)
                G = 2.0 * a * beta * diag_ma / Q / ((a - 1.0) * LN2 * t)[:, None]
            return V, np.nan_to_num(G, nan=0.0, posinf=0.0, neginf=0.0)

        return evaluate


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
        try:
            p = float(name.removeprefix("schatten_"))
        except ValueError as exc:
            raise DomainError(f"cannot parse the Schatten order of {spec!r}") from exc
        return SchattenDistance(p)
    raise DomainError(f"unknown distance {spec!r}; menu: {MENU}")


@dataclass(frozen=True)
class SimplexOptConfig:
    """``polish`` selects the path of a distance with a Newton run
    (:meth:`Distance.newton_solve`: the fidelity, whose pure-state optima
    sit on simplex vertices): set, mirror descent finished by the Newton
    run; unset, the Newton run alone. No other path reads it."""

    polish: bool = True


@dataclass(frozen=True)
class SimplexResult:
    """One state's minimum: its value, a minimizer q, and how it was found.
    ``method`` names the path: ``"closed_form"``, ``"newton"``
    (:func:`_simplex_newton`) or ``"mirror_descent"``."""

    value: float
    q: np.ndarray
    converged: bool
    iterations: int
    evals: int
    method: str = "mirror_descent"


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
    """Diagonal of rho as a distribution; rowwise over a stack."""
    q = np.clip(np.real(np.diagonal(as_matrix(rho), axis1=-2, axis2=-1)), 0.0, None)
    return q / q.sum(axis=-1, keepdims=True)


def _off_faces(q) -> np.ndarray:
    """The barriers' start: the (N, d) rows q mixed with ``_UNIFORM_MIX`` of
    the uniform point, so every entry is at least ``_UNIFORM_MIX`` / d."""
    return (1.0 - _UNIFORM_MIX) * q + _UNIFORM_MIX / q.shape[-1]


def _starts(mats: np.ndarray) -> np.ndarray:
    """(N, R, d) starting rows: for each state the uniform point, its
    dephased state and ``_RESTARTS`` Dirichlet draws, the same draws for
    every state."""
    N, d = mats.shape[0], mats.shape[-1]
    q = np.empty((N, 2 + _RESTARTS, d))
    q[:, 0] = 1.0 / d
    q[:, 1] = _dephased(mats)
    rng = linalg.stream(_SEED)
    q[:, 2:] = [rng.dirichlet(np.ones(d)) for _ in range(_RESTARTS)]
    q = np.clip(q, _FLOOR, None)
    return q / q.sum(axis=-1, keepdims=True)


def _eg_stage(evaluate, Q, s, max_iter, rel_tol):
    """One exponentiated-gradient descent run over a batch of rows Q with
    state indices s and per-row step halving; mutates Q and returns
    (Q, V, iterations, done), the last two per row: the iterations the
    row ran and whether it stopped before ``max_iter``. Each row keeps the
    value and gradient of its accepted point, so an iteration makes one
    ``evaluate`` call, at the trial points of the rows still running, and
    needs the gradient only where a trial point improves on its row.
    Those rows' points, values, gradients, steps and counters are kept
    compact, and a row is written back once, when it stops. Rows never
    interact, and a row ends as it would in a batch of its own."""
    R, d = Q.shape
    V = np.empty(R)
    iters = np.zeros(R, dtype=int)
    done = np.zeros(R, dtype=bool)
    # the running rows: their indices into the batch, then their state
    rows, q, sl = np.arange(R), Q, s
    v, g = evaluate(Q, s)
    eta = np.full(R, _STEP0)
    stall = np.zeros(R, dtype=int)
    fails = np.zeros(R, dtype=int)
    it = 0
    while it < max_iter and rows.size:
        it += 1
        gf = np.where(np.isfinite(g), g, 0.0)
        # sum / d and maximum/minimum: cheaper than mean and clip, same bits
        expo = -eta[:, None] * (gf - gf.sum(axis=1, keepdims=True) / d)
        qn = np.maximum(q * np.exp(np.minimum(np.maximum(expo, -_EXP_CLIP), _EXP_CLIP)), 1e-300)
        qn /= qn.sum(axis=1, keepdims=True)
        vn, gn = evaluate(qn, sl, below=v)
        better = vn < v
        # rows whose objective is infinite throughout (inf - inf) are never better
        with np.errstate(invalid="ignore"):
            meaningful = (v - vn) > rel_tol * np.maximum(1.0, np.abs(v))
        q = np.where(better[:, None], qn, q)
        v = np.where(better, vn, v)
        g = np.where(better[:, None], gn, g)
        stall = np.where(better, np.where(meaningful, 0, stall + 1), stall)
        fails = np.where(better, 0, fails + 1)
        eta = np.where(better, np.minimum(eta * 1.25, 8.0 * _STEP0), eta / 2.0)
        stop = (eta < _MIN_STEP) | (stall >= 3) | (fails >= 14)
        if stop.any():
            out = rows[stop]
            Q[out], V[out], iters[out], done[out] = q[stop], v[stop], it, True
            keep = ~stop
            rows, q, v, g, sl, eta, stall, fails = (a[keep] for a in (rows, q, v, g, sl, eta, stall, fails))
    Q[rows], V[rows], iters[rows] = q, v, it
    return Q, V, iters, done


def minimize_diag(rho, distance, cfg: SimplexOptConfig | None = None) -> SimplexResult:
    """Minimize distance(rho, diag(q)) over the probability simplex: the
    one-state stack of :func:`minimize_diags`."""
    return minimize_diags(as_matrix(rho)[None], distance, cfg)[0]


def minimize_diags(mats, distance, cfg: SimplexOptConfig | None = None) -> list:
    """Minimize distance(rho_n, diag(q)) over the probability simplex for
    every state of a (N, d, d) stack; one SimplexResult per state.

    Each state takes the distance's closed form where one applies; the
    others run as one batch, through :func:`_simplex_newton` where the
    distance gives a ``newton_objective`` (the trace norm and sandwiched
    order 2) or, with ``cfg.polish`` unset, a ``newton_solve`` (the
    fidelity), and :func:`_mirror_descent` otherwise, in which every state
    gets the value, q, iterations, evaluations and convergence flag of a
    run on its own. A non-finite value is never reported as converged, and
    a value in [-1e-12, 0) is reported as 0.
    """
    distance = get_distance(distance)
    mats = _stack(mats)
    results = [
        None if c is None else SimplexResult(c[0], c[1], True, 0, 1, "closed_form")
        for c in distance.closed_forms(mats)
    ]
    rest = [n for n, res in enumerate(results) if res is None]
    if rest:
        cfg = cfg or SimplexOptConfig()
        if (objective := distance.newton_objective(mats[rest])) is not None:
            solved = _simplex_newton(objective)
        elif cfg.polish or (solved := distance.newton_solve(mats[rest])) is None:
            solved = _mirror_descent(mats[rest], distance, cfg.polish)
        for n, res in zip(rest, solved):
            results[n] = res
    return [_reported(res) for res in results]


def _reported(res: SimplexResult) -> SimplexResult:
    if not math.isfinite(res.value):
        return replace(res, converged=False)
    if -1e-12 <= res.value < 0.0:
        # contractive divergences between states are nonnegative; tiny
        # negative values are round-off
        return replace(res, value=0.0)
    return res


def _daleckii_krein(vec, gam):
    """H_ij = Re sum_kl G_kl conj(V_ik) V_il V_jk conj(V_jl) rowwise: the
    Hessian in q of sum_k phi(b_k) over the eigenvalues b of a pencil that
    is affine in q, given the pencil's eigenvectors as seen from q (the
    (R, d, r) stack V) and the divided differences G of phi' (Daleckii--
    Krein; Bhatia, Matrix Analysis, ch. V)."""
    P = np.conj(vec)[:, :, :, None] * vec[:, :, None, :]
    return np.einsum("rikl,rjkl->rij", P * gam[:, None], np.conj(P)).real


def _kkt(H, fixed):
    """The KKT matrices [[H, 1], [1^T, 0]] of Newton steps on the simplex,
    rowwise. Where ``fixed`` (R, d) is set, the matrix's row and column of
    that index are the identity's, so a step leaves the index where it is."""
    R, d = fixed.shape
    K = np.ones((R, d + 1, d + 1))
    K[:, :d, :d] = H
    K[:, d, d] = 0.0
    if fixed.any():
        r, i = np.nonzero(fixed)
        K[r, i, :] = 0.0
        K[r, :, i] = 0.0
        K[r, i, i] = 1.0
    return K


def _newton_step(K, g):
    """The step of the KKT matrices K (:func:`_kkt`) against the gradients g
    and its squared decrement -g . step, rowwise."""
    R, d = g.shape
    rhs = np.zeros((R, d + 1, 1))
    rhs[:, :d, 0] = -g
    step = np.linalg.solve(K, rhs)[:, :d, 0]
    return step, -np.einsum("ri,ri->r", g, step)


class _RenyiTwoForm:
    """Sandwiched order 2's part of :func:`_simplex_newton`: the quadratic
    form T(q) = sum_ij A_ij w_i w_j with A = |rho_ij|^2 and w = q^(-1/2),
    convex in q (Frank & Lieb, J. Math. Phys. 54, 122201), with gradient
    -w^3 (A w) and Hessian A o (w^3 w^3^T) / 2 + diag(3/2 (A w) w^5). T
    grows without bound towards every face q_i = 0 with rho_ii > 0, so one
    stage with no barrier suffices, from (dephased + uniform on the
    support) / 2. An index with A_ii = 0 stays at q_i = 0 when its row
    cannot change T in double precision: its term at the optimum is
    3 T^(1/3) b^(2/3), b = sum_j A_ij w_j, and T >= 1 and w_j <= sqrt(T) /
    |rho_jj| bound it by 3 T r^(2/3), r = sum_j A_ij / |rho_jj|, which
    ``_NEGLIGIBLE_ROW`` keeps under half an ulp of T; an empty row, or
    one whose squares underflow to 0, has r = 0. That bound fails where
    rho_jj = 0, so the zero-diagonal indices S linked only among
    themselves are held at 0 together: with mass m on S the minimum is at
    most T / (1 - m) + c / m, c = |S| sum_S A (S's form at its uniform
    point), so S raises T by at most 2 sqrt(c T) + c <= 3 T sqrt(c), which
    ``_NEGLIGIBLE_SET`` keeps under half an ulp of T. The exact value is
    log2 T, and +inf where q_i = 0 off those ``fixed`` indices: the
    support rule of the sandwiched divergences, read off the indices the
    solver holds at 0."""

    schedule = (0.0,)

    def __init__(self, mats):
        self.mats = mats
        self.A = np.abs(mats) ** 2
        diag = np.sqrt(np.diagonal(self.A, axis1=1, axis2=2))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(self.A > 0, self.A / diag[:, None, :], 0.0).sum(axis=2)
        # S shrinks to the zero-diagonal indices with no link outside it
        S = diag == 0
        for _ in range(mats.shape[-1]):
            S = S & ~np.any((self.A > 0) & ~S[:, None, :], axis=2)
        c = np.einsum("ni,nij,nj->n", S, self.A, S) * S.sum(axis=1)
        self.fixed = (diag == 0) & (r <= _NEGLIGIBLE_ROW) | S & (c <= _NEGLIGIBLE_SET)[:, None]
        free = ~self.fixed
        self.start = (_dephased(mats) + free / free.sum(axis=1, keepdims=True)) / 2.0

    def _form(self, s, Q):
        with np.errstate(divide="ignore"):
            w = np.where(self.fixed[s], 0.0, 1.0 / np.sqrt(Q))
        A = self.A[s]
        Aw = np.einsum("rij,rj->ri", A, w)
        return A, w, Aw, np.einsum("ri,ri->r", w, Aw)

    def derivatives(self, s, Q, mu):
        A, w, Aw, T = self._form(s, Q)
        w3 = w**3
        H = 0.5 * A * (w3[:, :, None] * w3[:, None, :])
        idx = np.arange(Q.shape[1])
        H[:, idx, idx] += 1.5 * Aw * w3 * w * w
        return T, -w3 * Aw, H, None

    def values(self, s, Q, mu):
        return self._form(s, Q)[3]

    def exact(self, s, Q):
        outside = np.any((Q == 0) & ~self.fixed[s], axis=1)
        return np.where(outside, np.inf, _renyi_value(self._form(s, Q)[3], 2.0))


class _SmoothedModulus:
    """The trace norm's phi(lam) = s = sqrt(lam^2 + mu^2), with phi' = h =
    lam / s, d phi'/d mu = -h mu / s^2, and the divided differences of h,
    whose limit on coincident eigenvalues is h' = mu^2 / s^3."""

    @staticmethod
    def values(lam, m):
        return np.sqrt(lam**2 + m**2)

    @staticmethod
    def derivatives(lam, m):
        s = np.sqrt(lam**2 + m**2)
        h = lam / s
        a, b, sa, sb = lam[:, :, None], lam[:, None, :], s[:, :, None], s[:, None, :]
        m2 = m[:, :, None] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            # h(a) - h(b) = mu^2 (a^2 - b^2) / (s_a s_b (a s_b + b s_a)) does
            # not cancel on same-sign pairs, nor a - b on opposite-sign pairs
            same = m2 * (a + b) / (sa * sb * (a * sb + b * sa))
            split = (h[:, :, None] - h[:, None, :]) / (a - b)
        gam = np.where(a * b > 0, same, np.where(a != b, split, m2 / sa**3))
        return s, h, gam, -h * m / s**2


class _NegativeRoot:
    """The fidelity's phi(b) = -sqrt(b), with phi' = -1 / (2 sqrt b), the
    divided differences 1 / (2 sqrt(b_k) sqrt(b_l) (sqrt(b_k) + sqrt(b_l)))
    and no dependence on mu. Eigenvalues below the eigensolver's resolution,
    ``_ROUNDOFF`` times the largest, read as that floor, so no root, divided
    difference or inverse is 0 or inf."""

    @staticmethod
    def values(b, m):
        return -np.sqrt(np.maximum(b, _ROUNDOFF * b[:, -1:]))

    @staticmethod
    def derivatives(b, m):
        root = -_NegativeRoot.values(b, m)
        ra, rb = root[:, :, None], root[:, None, :]
        return -root, -0.5 / root, 1.0 / (2.0 * ra * rb * (ra + rb)), None


class _SpectralBarrier:
    """The trace norm's and the fidelity's part of :func:`_simplex_newton`:
    the barrier f_mu(q) = sum_k phi(lam_k) - mu sum_i log q_i over the
    eigenvalues lam of a pencil L(q) = C + sign sum_i q_i z_i z_i^dag that
    is affine in q, for each weight mu of ``schedule`` in turn, from the
    rows ``start``. Without ``Z``, L is the trace norm's rho - diag q (C =
    rho, sign = -1, z_i = e_i); with it, the fidelity's B(q) (C = 0, sign =
    +1, z_i the conjugated rows of the (N, d, r) stack Z). The spectral
    function ``phi`` (:class:`_SmoothedModulus`, :class:`_NegativeRoot`)
    gives phi(lam) (``values``) and, from ``derivatives``, also phi', the
    divided differences of phi' and d phi'/d mu (None where phi does not
    depend on mu). With lam, V = eigh(L) and X = Z V (V without Z), the
    gradient is g_i = sign sum_k |X_ik|^2 phi'(lam_k) - mu / q_i, its
    derivative in mu sign sum_k |X_ik|^2 d phi'/d mu - 1 / q_i, and the
    Hessian the Daleckii--Krein form of the divided differences plus
    mu / q_i^2 on the diagonal. ``exact`` scores a point; without it, the
    trace norm sum_k |lam_k|."""

    def __init__(self, mats, phi, start, schedule, exact=None, Z=None):
        self.mats = mats
        self.phi = phi
        self.start = start
        self.schedule = schedule
        self.Z = Z
        self.sign = -1.0 if Z is None else 1.0
        self.fixed = np.zeros(mats.shape[:2], dtype=bool)
        self.exact = exact or (lambda s, Q: np.sum(np.abs(np.linalg.eigvalsh(self._pencil(s, Q))), axis=1))

    def _pencil(self, s, Q):
        if self.Z is None:
            A = self.mats[s]
            idx = np.arange(Q.shape[1])
            A[:, idx, idx] -= Q
            return A
        Z = self.Z[s]
        return np.einsum("rik,ri,ril->rkl", np.conj(Z), Q, Z)

    def derivatives(self, s, Q, mu):
        lam, V = np.linalg.eigh(self._pencil(s, Q))
        X = V if self.Z is None else self.Z[s] @ V
        m = mu[:, None]
        phi, dphi, gam, dphi_dmu = self.phi.derivatives(lam, m)
        w = np.abs(X) ** 2
        f = np.sum(phi, axis=1) - mu * np.sum(np.log(Q), axis=1)
        g = self.sign * np.einsum("rik,rk->ri", w, dphi) - m / Q
        g_mu = -1.0 / Q if dphi_dmu is None else self.sign * np.einsum("rik,rk->ri", w, dphi_dmu) - 1.0 / Q
        H = _daleckii_krein(X, gam)
        idx = np.arange(Q.shape[1])
        H[:, idx, idx] += m / Q**2
        return f, g, H, g_mu

    def values(self, s, Q, mu):
        lam = np.linalg.eigvalsh(self._pencil(s, Q))
        return np.sum(self.phi.values(lam, mu[:, None]), axis=1) - mu * np.sum(np.log(Q), axis=1)


def _fidelity_newton(mats, evaluate=None, best=None) -> list:
    """The fidelity's Newton run: :func:`_simplex_newton` on
    :class:`_SpectralBarrier` with phi = :class:`_NegativeRoot` for the
    states of each support rank r of the (N, d, d) stack ``mats`` in turn;
    one SimplexResult per state. With rho = U diag(p) U^dag on its support
    (eigenvalues above ``linalg.DUST_REL`` times the largest) and
    w_i = diag(sqrt p) U^dag e_i, the conjugated rows of the (d, r) matrix
    Z, the pencil B(q) = sum_i q_i w_i w_i^dag = Z^dag diag(q) Z is an r x r
    matrix, positive definite for q > 0 and unitarily similar to
    sqrt(rho) diag(q) sqrt(rho) on the support, so sqrt F(rho, diag q) =
    Tr sqrt B(q), concave in q. Where ``SimplexOptConfig.polish`` is set it
    finishes mirror descent from its best points ``best`` (N, d) through
    ``_WARM_BARRIER``, and each point is valued by mirror descent's
    evaluator ``evaluate`` (``diag_objective`` over the stack). Where it is
    unset (``best`` and ``evaluate`` None) it is the solver, from the
    dephased state through all of ``_BARRIER``, and a point is valued on
    the pencil itself: 1 - (sum sigma)^2 over the singular values sigma of
    diag(sqrt q) Z, each accurate to eps times the largest, while the
    eigenvalues of sqrt(rho) diag(q) sqrt(rho) resolve a small eigenvalue b
    only to eps ||B||, eps ||B|| / (2 sqrt b) on its root. Both paths start
    from their point mixed by :func:`_off_faces`. A group's rows never meet
    another's, so each state gets the result of a run on its own."""
    if best is None:
        start, schedule = _off_faces(_dephased(mats)), _BARRIER
    else:
        start, schedule = _off_faces(best), _WARM_BARRIER
    p, U = np.linalg.eigh(mats)
    ranks = np.sum(p > linalg.DUST_REL * p[:, -1:], axis=1)
    results = [None] * len(mats)
    for r in np.unique(ranks):
        idx = np.flatnonzero(ranks == r)
        # eigh sorts ascending: the support is the last r eigenpairs
        Z = U[idx, :, -r:] * np.sqrt(p[idx, None, -r:])

        def exact(s, Q, idx=idx, Z=Z):
            if evaluate is not None:
                return evaluate(Q, idx[s], below=np.full(Q.shape[0], -np.inf))[0]
            roots = np.linalg.svd(np.sqrt(Q)[:, :, None] * Z[s], compute_uv=False)
            return 1.0 - np.sum(roots, axis=1) ** 2

        barrier = _SpectralBarrier(mats[idx], _NegativeRoot, start[idx], schedule, exact, Z)
        for n, res in zip(idx, _simplex_newton(barrier)):
            results[n] = res
    return results


def _simplex_newton(objective) -> list:
    """min_q f(q) over the simplex for a stack of states by damped Newton
    steps on a convex objective (:class:`_SpectralBarrier`,
    :class:`_RenyiTwoForm`). The objective supplies the stack ``mats``, the
    ``start``, the stage ``schedule`` of barrier weights mu, the indices
    ``fixed`` at q_i = 0, f_mu with its gradient, Hessian and the
    gradient's derivative in mu (``derivatives``), f_mu alone (``values``)
    and the exact value (``exact``), all computed by the objective itself.
    For each weight in turn, a stage ends when the squared Newton decrement falls
    below ``_DECREMENT * mu``, or below what the round-off of f_mu can
    resolve; the next stage starts from the point a tangent step along the
    central path predicts for its weight. Each state takes at most
    ``_NEWTON_STEPS`` steps, and stops unconverged there or when a line
    search finds no decrease; no config field reaches this loop. The
    objective is convex, so one start suffices. The value is the objective's
    exact value at the best of the Newton point, the uniform point and the
    dephased point, so it never exceeds D(rho, 1/d) or D(rho, Delta rho).
    Rows never interact: each state gets the result of a run on its own."""
    mats = objective.mats
    N, d = mats.shape[0], mats.shape[-1]
    mus = np.array(objective.schedule)
    Q = objective.start.copy()
    stage = np.zeros(N, dtype=int)
    iters = np.zeros(N, dtype=int)
    evals = np.zeros(N, dtype=int)
    stuck = np.zeros(N, dtype=bool)
    rows = np.arange(N)
    while rows.size:
        q = Q[rows]
        mu = mus[stage[rows]]
        f, g, H, g_mu = objective.derivatives(rows, q, mu)
        evals[rows] += 1
        K = _kkt(H, objective.fixed[rows])
        step, dec2 = _newton_step(K, g)
        passed = dec2 <= np.maximum(_DECREMENT * mu, _ROUNDOFF * np.abs(f))
        stage[rows[passed]] += 1
        go = (stage[rows] < mus.size) & (iters[rows] < _NEWTON_STEPS)
        # the centre q(mu) has H dq/dmu = -dg/dmu on the simplex: a row that
        # passed steps by (mu' - mu) dq/dmu towards the next weight mu'
        jump = go & passed
        if jump.any():
            tangent = _newton_step(K[jump], g_mu[jump])[0]
            step[jump] = (mus[stage[rows[jump]]] - mu[jump])[:, None] * tangent
        ratio = np.divide(-q, step, out=np.full_like(step, np.inf), where=step < 0)
        t = np.minimum(1.0, _BOUNDARY * ratio.min(axis=1))
        Q[rows[jump]] = q[jump] + t[jump, None] * step[jump]
        # Armijo backtracking on the others; each round evaluates the trial
        # points of the rows still searching
        slope = _ARMIJO * np.einsum("ri,ri->r", g, step)
        searching = np.flatnonzero(go & ~passed)
        while searching.size:
            trial = q[searching] + t[searching, None] * step[searching]
            ft = objective.values(rows[searching], trial, mu[searching])
            evals[rows[searching]] += 1
            ok = ft <= f[searching] + t[searching] * slope[searching]
            Q[rows[searching[ok]]] = trial[ok]
            searching = searching[~ok]
            t[searching] /= 2.0
            stuck[rows[searching[t[searching] < _MIN_STEP]]] = True
            searching = searching[t[searching] >= _MIN_STEP]
        iters[rows[go]] += 1
        rows = rows[go & ~stuck[rows]]
    Q /= Q.sum(axis=1, keepdims=True)
    pool = np.stack([Q, np.full((N, d), 1.0 / d), _dephased(mats)], axis=1)
    vals = objective.exact(np.repeat(np.arange(N), 3), pool.reshape(-1, d)).reshape(N, 3)
    best = np.argmin(vals, axis=1)
    converged = stage == mus.size
    return [
        SimplexResult(float(v[b]), qs[b].copy(), bool(c), int(it), int(ev) + 3, "newton")
        for v, b, qs, c, it, ev in zip(vals, best, pool, converged, iters, evals)
    ]


def _mirror_descent(mats, distance: Distance, polish: bool) -> list:
    """Multi-start mirror descent over a stack of states, the path for
    distances without a closed form or a Newton objective, and the tests'
    oracle for the closed forms and the Newton solver; one SimplexResult per
    state (one matrix counts as a stack of one).

    Non-smooth distances run through their annealed smoothing schedule
    with warm starts. The final selection always re-includes each state's
    raw starting points under the true objective, so the result never
    exceeds the objective at the uniform or dephased starts regardless of
    where the smoothed stages wandered. With ``polish`` set, a distance's
    :meth:`Distance.newton_solve` runs on the stack, and each state keeps
    the finisher's point (method ``"newton"``) where its value is lower,
    adding the finisher's evaluations either way; ``converged`` and the
    iterations stay mirror descent's.
    """
    mats = _stack(mats)
    starts = _starts(mats)
    N, R, d = starts.shape
    s = np.repeat(np.arange(N), R)
    schedule = distance.smoothing or (0.0,)
    # one objective per width, the unsmoothed one shared with the final pool
    objectives = {mu: distance.diag_objective(mats, mu=mu) for mu in dict.fromkeys((*schedule, 0.0))}
    stage_iters = max(_MAX_ITER // len(schedule), 50)
    Q = starts.reshape(N * R, d).copy()
    total_it = np.zeros(N, dtype=int)
    # R starting values per stage, then a value and a gradient per row iteration
    total_ev = np.full(N, R * len(schedule), dtype=int)
    for mu in schedule:
        # intermediate smoothed landscapes only need to be solved to the
        # scale of their own smoothing width
        stage_tol = max(mu * 1e-2, _REL_TOL)
        Q, _, iters, done = _eg_stage(objectives[mu], Q, s, stage_iters, stage_tol)
        total_it += iters.reshape(N, R).max(axis=1)
        total_ev += 2 * iters.reshape(N, R).sum(axis=1)
    converged = done.reshape(N, R).all(axis=1)
    pool = np.concatenate([Q.reshape(N, R, d), starts], axis=1)
    # values only: no row lies below -inf, so no gradient is taken
    vals = objectives[0.0](pool.reshape(-1, d), np.repeat(np.arange(N), 2 * R), below=np.full(N * 2 * R, -np.inf))
    vals = vals[0].reshape(N, 2 * R)
    total_ev += 2 * R
    best = np.argmin(vals, axis=1)
    finished = distance.newton_solve(mats, pool[np.arange(N), best], objectives[0.0]) if polish else None
    results = []
    for n in range(N):
        res = SimplexResult(
            float(vals[n, best[n]]), pool[n, best[n]].copy(), bool(converged[n]), int(total_it[n]), int(total_ev[n])
        )
        if finished is not None:
            fin = finished[n]
            res = replace(res, evals=res.evals + fin.evals)
            if fin.value < res.value:
                res = replace(res, value=fin.value, q=fin.q, method="newton")
        results.append(res)
    return results


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
        a = np.abs(np.linalg.eigvalsh(m[None, :, :] - Q[:, :, None] * eye[None, :, :]))
        p = distance.p
        with np.errstate(over="ignore"):
            out = np.sum(a**p, axis=1) ** (1.0 / p)
            # rows that a huge order under- or overflows are scaled by
            # their largest modulus
            top = a.max(axis=1)
            bad = ((out == 0.0) | ~np.isfinite(out)) & (top > 0)
            out[bad] = top[bad] * np.sum((a[bad] / top[bad, None]) ** p, axis=1) ** (1.0 / p)
        return out
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
        # a zero of q on a row of rho that does not vanish violates the
        # support condition; elsewhere sigma's power is taken on its support
        inside = ~np.any((Q == 0) & np.any(m != 0, axis=1), axis=1)
        with np.errstate(divide="ignore", over="ignore"):
            w = np.where(Q[inside] > 0, Q[inside] ** ((1.0 - a) / (2.0 * a)), 0.0)
            M = m[None, :, :] * (w[:, :, None] * w[:, None, :])
            lam = np.clip(np.linalg.eigvalsh((M + np.conj(np.swapaxes(M, 1, 2))) / 2.0), 0.0, None)
            t = np.sum(lam**a, axis=1)
            out[inside] = np.where(t > 0, np.log2(np.maximum(t, 1e-300)), np.inf) / (a - 1.0)
        return out
    # fall back to the generic two-state evaluator
    return np.array([distance.between(m, np.diag(q).astype(complex)) for q in Q])
