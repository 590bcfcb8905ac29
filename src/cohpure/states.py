"""Validated density matrices, standard constructors, spectra, and
entropies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DomainError, ValidationError, as_matrix, dagger, entropy_bits

__all__ = [
    "Spectrum",
    "DensityMatrix",
    "validate",
    "pure",
    "maximally_mixed",
    "diagonal",
    "from_bloch",
    "random_density",
    "von_neumann",
    "renyi_entropy",
    "mutual_information",
]

TRACE_TOL = 1e-9
MIN_EIG_TOL = 1e-10
RANK_TOL_REL = 1e-9   # rank threshold, relative to the largest eigenvalue


@dataclass(frozen=True)
class Spectrum:
    """Descending, clipped, renormalized eigenvalue list with numeric rank.

    Values below the round-off floor are zeroed before renormalization;
    fractional-power entropies would otherwise amplify eigenvalue dust
    (sqrt(1e-16) = 1e-8) far above its true significance.
    """

    values: np.ndarray
    rank: int

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        v = np.sort(np.asarray(values, dtype=float))[::-1]
        v = np.clip(v, 0.0, 1.0)
        total = float(v.sum())
        if abs(total - 1.0) > TRACE_TOL:
            raise ValidationError("trace", abs(total - 1.0))
        v = linalg.drop_dust(v)
        if v.sum() > 0:
            v = v / v.sum()
        tol = RANK_TOL_REL * float(v[0]) if v.size else 0.0
        return cls(values=v, rank=int(np.count_nonzero(v > tol)))

    @property
    def max(self) -> float:
        return float(self.values[0])


class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix with a lazily
    cached spectrum. Treat instances as immutable."""

    __slots__ = ("mat", "dim", "_eig", "_spectrum")

    def __init__(self, mat, *, _validated=False):
        m = as_matrix(mat)
        self._eig = None
        if not _validated:
            m, self._eig = _check_state(m)
        self.mat = m
        self.dim = m.shape[0]
        self._spectrum = None

    @property
    def eigensystem(self) -> linalg.EigenSystem:
        if self._eig is None:
            self._eig = linalg.hermitian_eig(self.mat)
        return self._eig

    @property
    def spectrum(self) -> Spectrum:
        if self._spectrum is None:
            self._spectrum = Spectrum.from_values(self.eigensystem.values)
        return self._spectrum

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _check_state(m: np.ndarray) -> tuple:
    """The symmetrized matrix and its eigensystem, which the state keeps
    as its own: positivity reads the smallest eigenvalue."""
    linalg._require_square(m)
    linalg._require_hermitian(m)
    m = (m + dagger(m)) / 2.0
    trace_dev = abs(float(np.real(np.trace(m))) - 1.0)
    if trace_dev > TRACE_TOL:
        raise ValidationError("trace", trace_dev)
    eig = linalg.hermitian_eig(m)
    min_eig = float(eig.values[0])
    if min_eig < -MIN_EIG_TOL:
        raise ValidationError("positivity", abs(min_eig))
    return m, eig


def validate(m) -> DensityMatrix:
    """Check Hermiticity, unit trace, and positivity; the raised
    :class:`ValidationError` names the violated invariant and its
    magnitude."""
    return DensityMatrix(m)


def _trusted(m: np.ndarray) -> DensityMatrix:
    """Wrap a matrix known-valid by construction (e.g. a unitary conjugate
    of a validated state) without re-running validation."""
    return DensityMatrix(m, _validated=True)


def pure(v) -> DensityMatrix:
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if norm <= 0:
        raise ValidationError("vector", message="zero state vector")
    v = v / norm
    return _trusted(np.outer(v, np.conj(v)))


def maximally_mixed(d: int) -> DensityMatrix:
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    return _trusted(np.eye(d, dtype=complex) / d)


def diagonal(p) -> DensityMatrix:
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12):
        raise ValidationError("positivity", float(-p.min()))
    if abs(float(p.sum()) - 1.0) > TRACE_TOL:
        raise ValidationError("trace", abs(float(p.sum()) - 1.0))
    return _trusted(np.diag(np.clip(p, 0.0, None)).astype(complex))


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def from_bloch(r) -> DensityMatrix:
    """Single-qubit state (I + r . sigma) / 2 from a Bloch vector."""
    r = np.asarray(r, dtype=float).reshape(3)
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + 1e-9:
        raise ValidationError("bloch", norm - 1.0, message=f"Bloch vector length {norm:.6g} > 1")
    m = np.eye(2, dtype=complex)
    for ri, s in zip(r, _PAULI):
        m = m + ri * s
    return _trusted(m / 2.0)


def random_density(d: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Seeded random state: Haar eigenvectors, Dirichlet(1) eigenvalues of
    the requested exact numeric rank."""
    if not (1 <= rank <= d):
        raise DomainError(f"rank must satisfy 1 <= rank <= {d}, got {rank}")
    u = linalg.haar_unitary(d, rng)
    while True:
        p = rng.dirichlet(np.ones(rank))
        if p.min() > 1e-6:
            break
    vals = np.zeros(d)
    vals[:rank] = np.sort(p)[::-1]
    cols = u[:, :rank]
    return _trusted((cols * vals[:rank]) @ dagger(cols))


def von_neumann(rho: DensityMatrix) -> float:
    """von Neumann entropy in bits."""
    rho = _as_state(rho)
    return entropy_bits(rho.spectrum.values)


def renyi_entropy(rho: DensityMatrix, alpha: float) -> float:
    """Renyi entropy S_alpha in bits, with the explicit limits
    alpha=0 -> log2(rank), alpha=1 -> von Neumann, alpha=inf -> -log2(max
    eigenvalue)."""
    rho = _as_state(rho)
    if not (alpha >= 0.0):
        raise DomainError(f"Renyi order must be >= 0, got {alpha}")
    return _renyi_bits(rho.spectrum.values, alpha)


def _renyi_bits(values: np.ndarray, alpha: float) -> float:
    """Renyi entropy in bits of a dust-dropped spectrum (as
    :class:`Spectrum` holds it), for an order alpha >= 0; order 0 counts
    the numeric rank."""
    if alpha == 0.0:
        return math.log2(int(np.count_nonzero(values > RANK_TOL_REL * float(values.max()))))
    if alpha == 1.0:
        return entropy_bits(values)
    if alpha == math.inf:
        return -math.log2(float(values.max()))
    nz = values[values > 0]
    return math.log2(float(np.sum(nz**alpha))) / (1.0 - alpha)


def _marginal_entropies(mats, dims) -> tuple:
    """(S(rho_A), S(rho_B)) in bits, two arrays, over a (N, d, d) stack of
    bipartite states: one eigvalsh per stack of marginals."""
    m = as_matrix(mats)
    da, db = linalg._check_bipartite(dims, m.shape[-1])
    t = m.reshape(-1, da, db, da, db)
    ra = np.einsum("nijkj->nik", t)
    rb = np.einsum("nijik->njk", t)
    sa = entropy_bits(np.clip(np.linalg.eigvalsh(ra), 0.0, None))
    sb = entropy_bits(np.clip(np.linalg.eigvalsh(rb), 0.0, None))
    return sa, sb


def mutual_information(rho: DensityMatrix, dims) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho) for a bipartite state."""
    rho = _as_state(rho)
    sa, sb = _marginal_entropies(rho.mat[None], dims)
    return max(float(sa[0] + sb[0]) - von_neumann(rho), 0.0)


def _as_state(rho) -> DensityMatrix:
    if isinstance(rho, DensityMatrix):
        return rho
    return validate(rho)
