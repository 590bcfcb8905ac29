"""Independent reference formulas for the output checks.

Everything here is plain numpy written from the mathematics, and none of
it calls into cohpure: a check that reused the function under test
would pass whatever that function returned. Spectra come from the input
generator, which knows the eigenvalues it drew, so no check depends on
the library's eigensolver either. The numpy decompositions are bound at
import, before a traced run counts calls to ``numpy.linalg``, so the
checks never add to the program's counts.

All logarithms are base 2.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import eigh, eigvalsh, svd

MENU = ("rel_entropy", "trace_norm", "schatten_2", "one_minus_fidelity")


def entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def renyi_entropy(spec, alpha: float) -> float:
    p = np.asarray(spec, dtype=float)
    p = p[p > 0]
    if alpha == 0.0:
        return math.log2(p.size)
    if alpha == 1.0:
        return entropy(p)
    if alpha == math.inf:
        return -math.log2(float(p.max()))
    return math.log2(float(np.sum(p**alpha))) / (1.0 - alpha)


def dephased_diag(m: np.ndarray) -> np.ndarray:
    return np.clip(np.real(np.diagonal(m)), 0.0, None)


def c_rel_entropy(m: np.ndarray, spec) -> float:
    return entropy(dephased_diag(m)) - entropy(spec)


def c_l1(m: np.ndarray) -> float:
    off = np.abs(m)
    return float(off.sum() - np.trace(off))


def offdiag_frobenius(m: np.ndarray) -> float:
    a2 = np.abs(m) ** 2
    return math.sqrt(max(float(a2.sum() - np.trace(a2)), 0.0))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = eigh((m + m.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity (Tr |sqrt(a) sqrt(b)|)^2 from singular values."""
    sv = svd(_psd_sqrt(a) @ _psd_sqrt(b), compute_uv=False)
    return min(float(np.sum(sv)) ** 2, 1.0)


def c_alpha_half(m: np.ndarray) -> float:
    """Petz-Renyi coherence at alpha = 1/2: -log2 sum_i ((sqrt rho)_ii)^2."""
    diag = np.real(np.diagonal(_psd_sqrt(m)))
    return -math.log2(float(np.sum(diag**2)))


def sandwiched2_to_dephased(m: np.ndarray) -> float:
    """Sandwiched Renyi-2 divergence D(rho || Delta rho) for a diagonal
    second argument: log2 sum_ij |rho_ij|^2 / sqrt(p_i p_j)."""
    p = dephased_diag(m)
    keep = p > 0
    sub = np.abs(m[np.ix_(keep, keep)]) ** 2
    w = 1.0 / np.sqrt(p[keep])
    return math.log2(float(np.sum(sub * np.outer(w, w))))


def to_mixed(spec, name: str) -> float:
    """D(rho, 1/d) from the spectrum alone."""
    p = np.asarray(spec, dtype=float)
    d = p.size
    if name == "rel_entropy":
        return math.log2(d) - entropy(p)
    if name == "trace_norm":
        return float(np.sum(np.abs(p - 1.0 / d)))
    if name == "schatten_2":
        return math.sqrt(float(np.sum((p - 1.0 / d) ** 2)))
    if name == "one_minus_fidelity":
        return 1.0 - float(np.sum(np.sqrt(np.clip(p, 0.0, None)))) ** 2 / d
    raise KeyError(name)


def to_dephased(m: np.ndarray, spec, name: str) -> float:
    """D(rho, Delta rho), where Delta deletes the off-diagonal entries."""
    if name == "rel_entropy":
        return c_rel_entropy(m, spec)
    if name == "trace_norm":
        off = m - np.diag(np.diagonal(m))
        return float(np.sum(np.abs(eigvalsh(off))))
    if name == "schatten_2":
        return offdiag_frobenius(m)
    if name == "one_minus_fidelity":
        return 1.0 - fidelity(m, np.diag(dephased_diag(m)).astype(complex))
    raise KeyError(name)


def fourier(d: int) -> np.ndarray:
    idx = np.arange(d)
    return np.exp(2j * math.pi * np.outer(idx, idx) / d) / math.sqrt(d)


def distillable_1shot(d: int, rank: int) -> int:
    """floor(log2(d / r)), which is 0 when d < 2 r; exact in integers,
    since floor(log2 x) = floor(log2 floor(x)) for x >= 1."""
    return (d // rank).bit_length() - 1


def cost_1shot(d: int, lam_max: float) -> int:
    """ceil(log2(d lambda_max)); the margin absorbs round-off at exact
    powers of two (pure states, lambda_max = 1)."""
    return max(0, math.ceil(math.log2(d * lam_max) - 1e-9))


def partial_trace(m: np.ndarray, keep: int, da: int, db: int) -> np.ndarray:
    t = m.reshape(da, db, da, db)
    return np.trace(t, axis1=1, axis2=3) if keep == 0 else np.trace(t, axis1=0, axis2=2)


def mutual_information(m: np.ndarray, spec, da: int, db: int) -> float:
    sa = entropy(eigvalsh(partial_trace(m, 0, da, db)))
    sb = entropy(eigvalsh(partial_trace(m, 1, da, db)))
    return sa + sb - entropy(spec)
