"""Dense complex-matrix kernel: Hermitian eigendecompositions, matrix
functions, Schatten norms, fidelity, entropic divergences, tensor
operations, and Haar-random unitaries.

All logarithms are base 2. Divergences that legitimately diverge return
``math.inf`` as a sentinel value instead of raising.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationError",
    "DomainError",
    "ConvergenceError",
    "EigenSystem",
    "as_matrix",
    "dagger",
    "hermitian_eig",
    "mat_func",
    "mat_sqrt",
    "drop_dust",
    "mat_power",
    "schatten_norm",
    "trace_norm",
    "fidelity",
    "rel_entropy",
    "renyi_divergence",
    "sandwiched_renyi",
    "kron",
    "partial_trace",
    "partial_transpose",
    "haar_unitary",
    "stream",
    "split",
    "entropy_bits",
]

HERM_TOL = 1e-9        # max-abs Hermiticity tolerance
PSD_CLIP = 1e-10       # eigenvalues in [-PSD_CLIP, 0) are round-off, clipped
SUPPORT_TOL = 1e-10    # eigenvalue threshold for support membership
PHASE_TOL = 1e-8       # first eigenvector component above this sets the phase
DUST_REL = 1e-13       # eigensolver round-off floor, relative to the largest
LN2 = math.log(2.0)


class ValidationError(ValueError):
    """Structural invariant violated by an input matrix or distribution."""

    def __init__(self, invariant, magnitude=None, message=None):
        self.invariant = invariant
        self.magnitude = magnitude
        if message is None:
            message = f"{invariant} violated"
            if magnitude is not None:
                message += f" (magnitude {magnitude:.3g})"
        super().__init__(message)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its residual target."""


def as_matrix(m) -> np.ndarray:
    """Coerce a density-matrix object or array-like to a complex ndarray."""
    m = getattr(m, "mat", m)
    return np.asarray(m, dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m)).T


def _require_square(m: np.ndarray):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("square", message=f"expected square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("finite", message="matrix contains NaN/Inf entries")


def _require_hermitian(m: np.ndarray):
    dev = float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0
    if dev > HERM_TOL:
        raise ValidationError("hermiticity", dev)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    The phase convention makes the first component of each eigenvector
    with modulus above 1e-8 real and nonnegative, so repeated
    decompositions of equal inputs are bit-identical.
    """

    values: np.ndarray
    vectors: np.ndarray

    def descending(self) -> "EigenSystem":
        order = slice(None, None, -1)
        return EigenSystem(self.values[order].copy(), self.vectors[:, order].copy())


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate every column so that its first component above PHASE_TOL,
    its pivot, is real and nonnegative; all columns at once."""
    v = vectors.copy()
    big = np.abs(v) > PHASE_TOL
    cols = np.flatnonzero(big.any(axis=0))
    rows = np.argmax(big[:, cols], axis=0)
    pivot = v[rows, cols]
    # hypot rounds as abs() of a complex scalar, which numpy's vectorized
    # complex abs does not always do
    v[:, cols] *= np.conj(pivot) / np.hypot(pivot.real, pivot.imag)
    # kill residual imaginary dust on the pivots
    v[rows, cols] = v[rows, cols].real
    return v


def hermitian_eig(m) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with a deterministic
    phase convention.

    The reconstruction must match the input to 1e-9 of its largest
    entry (at least 1); the LAPACK driver comfortably beats that at the
    dimensions this library targets. A failure to converge or a larger
    residual surfaces as :class:`ConvergenceError`.
    """
    m = as_matrix(m)
    _require_square(m)
    _require_hermitian(m)
    h = (m + dagger(m)) / 2.0
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails at d<=64
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    vectors = _fix_phases(vectors)
    recon = (vectors * values) @ dagger(vectors)
    resid = float(np.max(np.abs(recon - h)))
    scale = max(1.0, float(np.max(np.abs(h))))
    if resid > 1e-9 * scale:
        raise ConvergenceError(f"reconstruction residual {resid:.3g} above target")
    return EigenSystem(values, vectors)


def mat_func(m, f) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Eigenvalues in [-1e-10, 0) are treated as round-off and clipped to 0
    before ``f`` is applied; eigenvalues below -1e-10 raise
    :class:`DomainError` when ``f`` cannot digest them. ``f`` values
    must be finite: logarithms of singular matrices belong in the
    spectral trace evaluations (``rel_entropy`` and friends), not in a
    dense reconstruction.
    """
    es = hermitian_eig(m)
    vals = es.values.copy()
    vals[(vals < 0) & (vals >= -PSD_CLIP)] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        fvals = np.asarray([f(v) for v in vals], dtype=complex)
    if not np.all(np.isfinite(fvals)):
        bad = vals[~np.isfinite(fvals)]
        raise DomainError(f"scalar map not finite on eigenvalues {bad}")
    return (es.vectors * fvals) @ dagger(es.vectors)


def mat_sqrt(m) -> np.ndarray:
    return mat_func(m, lambda x: math.sqrt(max(x, 0.0)) if x >= -PSD_CLIP else _reject_sqrt(x))


def _reject_sqrt(x):
    raise DomainError(f"sqrt of eigenvalue {x} below -{PSD_CLIP}")


def drop_dust(values) -> np.ndarray:
    """Eigenvalues clipped at 0, with those at or below DUST_REL times the
    largest set to 0: fractional powers would otherwise amplify round-off
    (a pure state's 1e-17 dust eigenvalue becomes 4e-4 at power 0.2)."""
    v = np.clip(values, 0.0, None)
    if v.size:
        v[v <= DUST_REL * float(v.max())] = 0.0
    return v


def mat_power(m, a: float) -> np.ndarray:
    """Hermitian matrix power with 0**a = 0 for a > 0 (pseudo-power on the
    support for a < 0)."""
    es = hermitian_eig(m)
    vals = drop_dust(es.values)
    if np.any(es.values < -PSD_CLIP):
        raise DomainError(f"negative eigenvalue {es.values.min()} under power {a}")
    out = np.zeros_like(vals)
    if a >= 0:
        nz = vals > 0
        out[nz] = vals[nz] ** a
        if a == 0:
            out[nz] = 1.0
    else:
        nz = vals > SUPPORT_TOL
        out[nz] = vals[nz] ** a
    return (es.vectors * out) @ dagger(es.vectors)


def schatten_norm(m, p: float) -> float:
    """Schatten p-norm: p-norm of the singular value vector; p = math.inf
    gives the largest singular value, p = 1 the trace norm."""
    m = as_matrix(m)
    if m.ndim != 2:
        raise ValidationError("matrix", message="expected a 2-d array")
    sv = np.linalg.svd(m, compute_uv=False)
    if p == math.inf:
        return float(sv[0])
    if not (p >= 1.0):
        raise DomainError(f"Schatten norm requires p >= 1, got {p}")
    with np.errstate(over="ignore"):
        total = float(np.sum(sv**p) ** (1.0 / p))
        if (total == 0.0 or not math.isfinite(total)) and sv[0] > 0:
            # at a huge order every term under- or overflows; scaled by
            # the largest singular value, the sum cannot
            total = float(sv[0] * np.sum((sv / sv[0]) ** p) ** (1.0 / p))
    return total


def trace_norm(m) -> float:
    return schatten_norm(m, 1.0)


def _check_same_dim(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValidationError("dimension", message=f"dimension mismatch {a.shape} vs {b.shape}")


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2."""
    r = as_matrix(rho)
    s = as_matrix(sigma)
    _check_same_dim(r, s)
    sq = mat_sqrt(r)
    inner = sq @ s @ sq
    # the square root would amplify eigenvalue dust
    vals = drop_dust(np.linalg.eigvalsh((inner + dagger(inner)) / 2.0))
    f = float(np.sum(np.sqrt(vals)) ** 2)
    # F <= 1 exactly; anything above is round-off
    return min(max(f, 0.0), 1.0)


def entropy_bits(p):
    """Shannon entropy in bits with the 0 log 0 = 0 convention: a float for
    one distribution, an array rowwise over a (N, d) stack of them."""
    p = np.asarray(p, dtype=float)
    nz = p > 0
    if p.ndim < 2:
        return float(-np.sum(p[nz] * np.log2(p[nz])))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(nz, p * np.log2(p), 0.0).sum(axis=1)
    # numpy sums 8 or more terms pairwise, so zero terms would regroup a
    # row's sum: such rows sum their nonzero terms alone
    for n in np.flatnonzero(~nz.all(axis=1)) if p.shape[1] >= 8 else ():
        h[n] = entropy_bits(p[n])
    return h


def rel_entropy(rho, sigma) -> float:
    """Quantum relative entropy S(rho||sigma) in bits; math.inf when the
    support of rho is not contained in the support of sigma."""
    r = as_matrix(rho)
    s = as_matrix(sigma)
    _check_same_dim(r, s)
    es = hermitian_eig(s)
    w = np.clip(es.values, 0.0, None)
    # weight of rho on each eigenvector of sigma
    overlap = np.real(np.einsum("ik,ij,jk->k", np.conj(es.vectors), r, es.vectors))
    overlap = np.clip(overlap, 0.0, None)
    null = w <= SUPPORT_TOL
    if float(overlap[null].sum()) > SUPPORT_TOL:
        return math.inf
    p = np.clip(np.linalg.eigvalsh(r), 0.0, None)
    h_rho = entropy_bits(p)
    cross = -float(np.sum(overlap[~null] * np.log2(w[~null])))
    # Klein: nonnegative for density-matrix arguments; clip round-off dust
    return max(cross - h_rho, 0.0)


def renyi_divergence(rho, sigma, alpha: float) -> float:
    """Petz--Renyi divergence (1/(alpha-1)) log2 Tr[rho^a sigma^(1-a)],
    contractive for alpha in (0, 1) u (1, 2]; alpha = 1 falls back to the
    relative entropy."""
    if alpha == 1.0:
        return rel_entropy(rho, sigma)
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"Petz divergence is contractive only on (0, 2], got alpha={alpha}")
    r = as_matrix(rho)
    s = as_matrix(sigma)
    _check_same_dim(r, s)
    if alpha > 1.0 and _support_violated(r, s):
        return math.inf
    ra = mat_power(r, alpha)
    sb = mat_power(s, 1.0 - alpha)
    tr = float(np.real(np.trace(ra @ sb)))
    if tr <= 0.0:
        return math.inf
    return math.log2(tr) / (alpha - 1.0)


def sandwiched_renyi(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence, contractive for alpha in [1/2, inf);
    alpha = 1 falls back to the relative entropy."""
    if alpha == 1.0:
        return rel_entropy(rho, sigma)
    if not (alpha >= 0.5):
        raise DomainError(f"sandwiched divergence is contractive only on [1/2, inf), got alpha={alpha}")
    r = as_matrix(rho)
    s = as_matrix(sigma)
    _check_same_dim(r, s)
    if alpha > 1.0 and _support_violated(r, s):
        return math.inf
    half = mat_power(s, (1.0 - alpha) / (2.0 * alpha))
    inner = half @ r @ half
    vals = np.clip(np.linalg.eigvalsh((inner + dagger(inner)) / 2.0), 0.0, None)
    tr = float(np.sum(vals**alpha))
    if tr <= 0.0:
        return math.inf
    return math.log2(tr) / (alpha - 1.0)


def _support_violated(r: np.ndarray, s: np.ndarray) -> bool:
    es = hermitian_eig(s)
    null = np.clip(es.values, 0.0, None) <= SUPPORT_TOL
    if not np.any(null):
        return False
    weight = np.real(np.einsum("ik,ij,jk->k", np.conj(es.vectors), r, es.vectors))
    return float(np.clip(weight[null], 0.0, None).sum()) > SUPPORT_TOL


def kron(a, b) -> np.ndarray:
    """Tensor product; the first factor is the most significant index
    (index convention i_A * d_B + i_B)."""
    return np.kron(as_matrix(a), as_matrix(b))


def _check_bipartite(dims, dim: int) -> tuple:
    """The factor dimensions (d_A, d_B) of a ``dim``-dimensional bipartite
    operator: two integers of at least 1 whose product is ``dim``. Python
    and numpy integers pass; any other factor (2.7, "2") is rejected, not
    truncated."""
    try:
        factors = tuple(operator.index(f) for f in dims)
    except TypeError:
        factors = ()
    if len(factors) != 2 or min(factors) < 1 or factors[0] * factors[1] != dim:
        raise ValidationError("dimension", message=f"dims {dims} incompatible with dim {dim}")
    return factors


def partial_trace(rho, keep: int, dims) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator; ``keep`` is 0
    for the first (most significant) subsystem, 1 for the second."""
    m = as_matrix(rho)
    _require_square(m)
    da, db = _check_bipartite(dims, m.shape[0])
    t = m.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ijkj->ik", t)
    if keep == 1:
        return np.einsum("ijik->jk", t)
    raise ValidationError("subsystem", message=f"keep must be 0 or 1, got {keep}")


def partial_transpose(rho, sub: int, dims) -> np.ndarray:
    """Transpose one tensor factor; an involution."""
    m = as_matrix(rho)
    _require_square(m)
    da, db = _check_bipartite(dims, m.shape[0])
    t = m.reshape(da, db, da, db)
    if sub == 0:
        t = t.transpose(2, 1, 0, 3)
    elif sub == 1:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValidationError("subsystem", message=f"sub must be 0 or 1, got {sub}")
    return t.reshape(da * db, da * db)


def stream(seed: int) -> np.random.Generator:
    """Deterministic random stream for a nonnegative 64-bit seed."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def split(rng: np.random.Generator, n: int) -> list:
    """Split off ``n`` statistically independent child streams."""
    return list(rng.spawn(n))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix
    with the R-diagonal phase fix."""
    return _haar_qr(_ginibre(d, rng))


def _ginibre(d: int, rng: np.random.Generator) -> np.ndarray:
    """A d x d complex Ginibre matrix drawn from ``rng``."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _haar_qr(z: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a stack of Ginibre matrices (or of one)."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]
