"""Coherence monotones in the fixed computational basis, the universal
maximally coherent mixed state (MCMS) construction, the coherence-optimal
unitary, and the explicit maximally-incoherent (MIO) channel
constructions that certify it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, simplex
from .linalg import DomainError, ValidationError, as_matrix, dagger
from .simplex import SimplexOptConfig, SimplexResult, get_distance
from .states import DensityMatrix, Spectrum, _as_state, _trusted, validate

__all__ = [
    "Channel",
    "MubBasis",
    "dephase",
    "c_rel_entropy",
    "c_l1",
    "c_distance",
    "c_distance_result",
    "c_distances",
    "c_alpha",
    "c_alpha_result",
    "c_geometric",
    "fourier_basis",
    "mcms",
    "optimal_unitary",
    "mio_channel_from_unitary",
    "mio_channel_from_mixture",
    "apply_channel",
    "c_max_closed",
    "random_free_channel",
]

KRAUS_TOL = 1e-9
UNITARY_TOL = 1e-9
MUB_TOL = 1e-10


@dataclass(frozen=True)
class Channel:
    """Completely positive trace-preserving map as a Kraus-operator list."""

    kraus: tuple

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise ValidationError("kraus", message="empty Kraus list")
        shape = ks[0].shape
        if any(k.shape != shape for k in ks):
            raise ValidationError("kraus", message="Kraus operators differ in shape")
        total = sum(dagger(k) @ k for k in ks)
        dev = float(np.max(np.abs(total - np.eye(shape[1]))))
        if dev > KRAUS_TOL:
            raise ValidationError("trace_preservation", dev)
        object.__setattr__(self, "kraus", ks)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[1]


@dataclass(frozen=True)
class MubBasis:
    """Orthonormal basis mutually unbiased with the computational one:
    every column has squared overlap 1/d with every computational
    basis vector."""

    dim: int
    columns: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.columns, dtype=complex)
        gram_dev = float(np.max(np.abs(dagger(c) @ c - np.eye(self.dim))))
        if gram_dev > MUB_TOL:
            raise ValidationError("orthonormality", gram_dev)
        unbias_dev = float(np.max(np.abs(np.abs(c) ** 2 - 1.0 / self.dim)))
        if unbias_dev > MUB_TOL:
            raise ValidationError("unbiasedness", unbias_dev)
        object.__setattr__(self, "columns", c)


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Delete all off-diagonal entries in the incoherent basis."""
    m = as_matrix(rho)
    return _trusted(np.diag(np.diagonal(m)).astype(complex))


def c_rel_entropy(rho: DensityMatrix) -> float:
    """Relative entropy of coherence, via its closed form
    S(dephased) - S(rho)."""
    rho = _as_state(rho)
    p = np.clip(np.real(np.diagonal(rho.mat)), 0.0, None)
    s_deph = linalg.entropy_bits(p / p.sum())
    s_rho = linalg.entropy_bits(rho.spectrum.values)
    return max(s_deph - s_rho, 0.0)


def c_l1(rho: DensityMatrix) -> float:
    """Sum of moduli of the off-diagonal entries."""
    m = as_matrix(rho)
    return float(np.sum(np.abs(m)) - np.sum(np.abs(np.diagonal(m))))


def c_distance_result(rho, distance, opt: SimplexOptConfig | None = None) -> SimplexResult:
    return simplex.minimize_diag(_as_state(rho).mat, get_distance(distance), opt)


def c_distance(rho, distance, opt: SimplexOptConfig | None = None) -> float:
    """Distance-based coherence: minimum of a contractive menu distance
    over diagonal states. The result is a certified upper bound on the
    infimum and never exceeds the distance to the maximally mixed state."""
    return c_distance_result(rho, distance, opt).value


def c_distances(rhos, distance, opt: SimplexOptConfig | None = None) -> list:
    """:func:`c_distance` of every state in a list of equal dimension,
    minimized as one stack; each value equals that of a call on its own."""
    mats = np.stack([_as_state(rho).mat for rho in rhos])
    return [res.value for res in simplex.minimize_diags(mats, get_distance(distance), opt)]


def c_alpha_result(rho, alpha: float, opt: SimplexOptConfig | None = None) -> SimplexResult:
    rho = _as_state(rho)
    if alpha == 1.0:
        v = c_rel_entropy(rho)
        q = np.clip(np.real(np.diagonal(rho.mat)), 0.0, None)
        return SimplexResult(v, q / q.sum(), True, 0, 1, "closed_form")
    if 0.0 < alpha < 1.0:
        div = simplex.PetzAlphaDivergence(alpha)
    elif alpha > 1.0:
        div = simplex.SandwichedAlphaDivergence(alpha)
    else:
        raise DomainError(f"coherence order must be positive, got {alpha}")
    return simplex.minimize_diag(rho.mat, div, opt)


def c_alpha(rho, alpha: float, opt: SimplexOptConfig | None = None) -> float:
    """Renyi coherence monotone: Petz divergence minimized over incoherent
    states for 0 < alpha < 1, sandwiched divergence for alpha > 1, the
    relative entropy of coherence at alpha = 1."""
    return c_alpha_result(rho, alpha, opt).value


def c_geometric(rho, opt: SimplexOptConfig | None = None) -> float:
    """Geometric coherence 1 - max fidelity with an incoherent state."""
    return c_distance(rho, simplex.OneMinusFidelityDistance(), opt)


def fourier_basis(d: int) -> MubBasis:
    """Discrete Fourier basis <i|n+> = omega^(i n) / sqrt(d); mutually
    unbiased with the computational basis in every dimension."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    idx = np.arange(d)
    cols = np.exp(2j * math.pi * np.outer(idx, idx) / d) / math.sqrt(d)
    return MubBasis(d, cols)


def mcms(spectrum, d: int | None = None) -> DensityMatrix:
    """Maximally coherent mixed state with the given spectrum: the mixture
    of Fourier-basis projectors weighted by the (zero-padded) spectrum."""
    vals = spectrum.values if isinstance(spectrum, Spectrum) else np.asarray(spectrum, dtype=float)
    if d is None:
        d = vals.size
    if vals.size > d:
        raise ValidationError("spectrum", message=f"spectrum longer than dimension {d}")
    if np.any(vals < -1e-12) or abs(float(vals.sum()) - 1.0) > 1e-9:
        raise ValidationError("spectrum", message="spectrum must be a probability list")
    p = np.zeros(d)
    p[: vals.size] = np.sort(np.clip(vals, 0.0, None))[::-1]
    f = fourier_basis(d).columns
    return _trusted((f * p) @ dagger(f))


def optimal_unitary(rho: DensityMatrix) -> np.ndarray:
    """Unitary sending the eigenbasis of rho (by descending eigenvalue)
    onto the Fourier basis; conjugation by it yields the MCMS of rho's
    spectrum, attaining the maximal coherence."""
    rho = _as_state(rho)
    es = rho.eigensystem.descending()
    f = fourier_basis(rho.dim).columns
    return f @ dagger(es.vectors)


def mio_channel_from_unitary(u) -> Channel:
    """Maximally incoherent channel with Kraus operators U |n+><n+|; it
    sends every incoherent state to the maximally mixed state and acts on
    an MCMS exactly as conjugation by U."""
    u = np.asarray(u, dtype=complex)
    _require_unitary(u)
    f = fourier_basis(u.shape[0]).columns
    ks = [u @ np.outer(f[:, n], np.conj(f[:, n])) for n in range(u.shape[0])]
    return Channel(tuple(ks))


def mio_channel_from_mixture(weights, unitaries) -> Channel:
    """Maximally incoherent channel with Kraus operators
    sqrt(q_i) U_i |n+><n+| reproducing the unitary mixture on an MCMS."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < -1e-12) or abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValidationError("weights", message="weights must form a probability list")
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    if len(us) != w.size:
        raise ValidationError("weights", message="one unitary per weight required")
    for u in us:
        _require_unitary(u)
    d = us[0].shape[0]
    f = fourier_basis(d).columns
    ks = []
    for qi, u in zip(np.clip(w, 0.0, None), us):
        root = math.sqrt(qi)
        ks.extend(root * (u @ np.outer(f[:, n], np.conj(f[:, n]))) for n in range(d))
    return Channel(tuple(ks))


def apply_channel(channel: Channel, rho: DensityMatrix) -> DensityMatrix:
    m = as_matrix(rho)
    if m.shape[0] != channel.dim:
        raise ValidationError("dimension", message=f"state dim {m.shape[0]} vs channel dim {channel.dim}")
    out = sum(k @ m @ dagger(k) for k in channel.kraus)
    return validate(out)


def c_max_closed(rho, distance) -> float:
    """Maximal coherence over the unitary orbit. By the paper's identity
    it equals the distance D(rho, 1/d) to the maximally mixed state,
    which a contractive distance's unitary invariance makes a function
    of rho's spectrum: it is read off the cached spectrum by the
    distance's ``to_mixed``, with no further decomposition of rho."""
    return get_distance(distance).to_mixed(_as_state(rho).spectrum.values)


def random_free_channel(kind: str, d: int, rng: np.random.Generator) -> Channel:
    """Channels drawn from inside the free sets used by monotonicity
    tests: incoherent unitaries (permutation times diagonal phases),
    mixtures of dephasing with the identity, or the explicit MIO
    construction from random unitary mixtures."""
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    if kind == "incoherent_unitary":
        perm = rng.permutation(d)
        phases = np.exp(2j * math.pi * rng.random(d))
        u = np.zeros((d, d), dtype=complex)
        u[perm, np.arange(d)] = phases
        return Channel((u,))
    if kind == "dephasing_mixture":
        w = float(rng.random())
        ks = [math.sqrt(1.0 - w) * np.eye(d, dtype=complex)]
        ks.extend(math.sqrt(w) * _basis_proj(d, i) for i in range(d))
        return Channel(tuple(ks))
    if kind == "mio_construction":
        k = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(k))
        us = [linalg.haar_unitary(d, rng) for _ in range(k)]
        return mio_channel_from_mixture(weights, us)
    raise DomainError(f"unknown free-channel kind {kind!r}")


def _basis_proj(d: int, i: int) -> np.ndarray:
    p = np.zeros((d, d), dtype=complex)
    p[i, i] = 1.0
    return p


def _require_unitary(u: np.ndarray, tol: float = UNITARY_TOL):
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("unitary", message=f"expected square matrix, got {u.shape}")
    dev = float(np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))))
    if dev > tol:
        raise ValidationError("unitary", dev)
