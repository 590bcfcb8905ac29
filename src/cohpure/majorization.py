"""Majorization order, unital convertibility, and single-shot purity
distillation / cost with explicit brute-force feasibility oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ValidationError
from .states import DensityMatrix

__all__ = [
    "ConversionCertificate",
    "majorizes",
    "convertible_unital",
    "distillable_purity_1shot",
    "purity_cost_1shot",
    "brute_force_distill",
    "brute_force_cost",
    "distill_feasible_scan",
    "cost_feasible_scan",
]

PREFIX_SLACK = 1e-12
SUM_TOL = 1e-9
RECORD_LIMIT = 256  # certificates record every prefix pair up to this length


@dataclass(frozen=True)
class ConversionCertificate:
    """Feasibility witness for a single-shot purity conversion.

    ``checked_prefix_sums`` holds (k, lhs, rhs) samples of the descending
    prefix-sum comparison; every pair of a feasible certificate satisfies
    lhs >= rhs - 1e-12, and d1, d2 satisfy the exact dimension constraint
    d * d2 = 2**m * d1.
    """

    feasible: bool
    m: int
    d1: int
    d2: int
    checked_prefix_sums: list = field(default_factory=list)


def _as_distribution(p) -> np.ndarray:
    v = np.asarray(p, dtype=float).reshape(-1)
    if v.size == 0:
        raise ValidationError("distribution", message="empty distribution")
    if float(v.min()) < -PREFIX_SLACK:
        raise ValidationError("positivity", float(-v.min()))
    total = float(v.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError("trace", abs(total - 1.0))
    return np.clip(v, 0.0, None)


def _prefix_pairs(p: np.ndarray, q: np.ndarray):
    n = max(p.size, q.size)
    pp = np.zeros(n)
    qq = np.zeros(n)
    pp[: p.size] = np.sort(p)[::-1]
    qq[: q.size] = np.sort(q)[::-1]
    return np.cumsum(pp), np.cumsum(qq)


def majorizes(p, q) -> bool:
    """True iff every descending prefix sum of p dominates that of q
    (within ``PREFIX_SLACK``); unequal lengths are zero-padded."""
    cp, cq = _prefix_pairs(_as_distribution(p), _as_distribution(q))
    return bool(np.all(cp >= cq - PREFIX_SLACK))


def convertible_unital(rho: DensityMatrix, sigma: DensityMatrix) -> bool:
    """Whether a unital channel maps rho to sigma: holds iff the spectrum
    of rho majorizes the spectrum of sigma."""
    if rho.dim != sigma.dim:
        raise ValidationError("dimension", message=f"dimension mismatch {rho.dim} vs {sigma.dim}")
    return majorizes(rho.spectrum.values, sigma.spectrum.values)


def distillable_purity_1shot(rho: DensityMatrix) -> int:
    """Largest number m of pure qubits extractable from rho by a unital
    channel: floor(log2(d / r)) when that is >= 1, else 0."""
    d = rho.dim
    r = rho.spectrum.rank
    if d < 2 * r:  # log2(d / r) < 1: single-shot distillation impossible
        return 0
    m = 0
    while (1 << (m + 1)) * r <= d:
        m += 1
    return m


def purity_cost_1shot(rho: DensityMatrix) -> int:
    """Smallest number m of pure qubits needed to form rho by a unital
    channel: ceil(log2(d * lambda_max))."""
    t = rho.dim * rho.spectrum.max
    # t is in [1, d]; guard the exact-power-of-two boundary against round-off
    return max(0, math.ceil(math.log2(t) - 1e-12))


def _record(cp: np.ndarray, cq: np.ndarray) -> list:
    margins = cp - cq
    if cp.size <= RECORD_LIMIT:
        ks = range(cp.size)
    else:
        worst = int(np.argmin(margins))
        ks = sorted({0, worst, cp.size - 1})
    return [(int(k) + 1, float(cp[k]), float(cq[k])) for k in ks]


def _distill_spectra(rho: DensityMatrix, m: int, d1: int, d2: int):
    lhs = np.repeat(rho.spectrum.values, d2) / d2
    rhs = np.zeros((1 << m) * d1)
    rhs[:d1] = 1.0 / d1
    return lhs, rhs


def _check_dims(d: int, m: int, d1: int, d2: int):
    if m < 0:
        raise ValidationError("qubits", message=f"m must be >= 0, got {m}")
    if d1 < 1 or d2 < 1 or d * d2 != (1 << m) * d1:
        raise ValidationError(
            "dimension", message=f"(d1, d2)=({d1}, {d2}) violates d*d2 = 2^m*d1 for d={d}, m={m}"
        )


def brute_force_distill(rho: DensityMatrix, m: int, d1: int | None = None, d2: int | None = None) -> ConversionCertificate:
    """Explicit majorization check for distilling m pure qubits from rho:
    builds the spectra of rho (x) 1/d2 and psi^(x)m (x) 1/d1 and compares
    prefix sums. Defaults to the optimal dimensions d1 = d, d2 = 2**m."""
    if d1 is None and d2 is None:
        d1, d2 = rho.dim, 1 << max(m, 0)
    _check_dims(rho.dim, m, d1, d2)
    lhs, rhs = _distill_spectra(rho, m, d1, d2)
    cp, cq = _prefix_pairs(lhs, rhs)
    feasible = bool(np.all(cp >= cq - PREFIX_SLACK))
    return ConversionCertificate(feasible, m, d1, d2, _record(cp, cq))


def brute_force_cost(rho: DensityMatrix, m: int, d1: int | None = None, d2: int | None = None) -> ConversionCertificate:
    """Feasibility of forming rho from m pure qubits: the top-eigenvalue
    inequality lambda_max / d2 <= 1 / d1, with the full majorization
    prefix record kept for redundancy. Defaults d1 = d, d2 = 2**m."""
    if d1 is None and d2 is None:
        d1, d2 = rho.dim, 1 << max(m, 0)
    _check_dims(rho.dim, m, d1, d2)
    feasible = rho.spectrum.max / d2 <= 1.0 / d1 + PREFIX_SLACK
    lhs, rhs = _distill_spectra(rho, m, d1, d2)  # same two spectra, opposite order
    cp, cq = _prefix_pairs(rhs, lhs)
    return ConversionCertificate(feasible, m, d1, d2, _record(cp, cq))


def _dim_pairs(d: int, m: int, cap: int):
    # d2 = d1 * 2^m / d is integral exactly for d1 multiples of d / gcd(d, 2^m)
    step = d // math.gcd(d, 1 << m)
    d1 = step
    while True:
        d2 = d1 * (1 << m) // d
        if d1 * d2 > cap:
            return
        yield d1, d2
        d1 += step


def distill_feasible_scan(rho: DensityMatrix, m: int, cap: int = 1 << 20) -> bool:
    """Exhaustive scan over all ancilla dimension pairs (d1, d2) with
    d1 * d2 <= cap; used to verify that the fixed choice d1 = d,
    d2 = 2**m is optimal."""
    return any(
        brute_force_distill(rho, m, d1, d2).feasible for d1, d2 in _dim_pairs(rho.dim, m, cap)
    )


def cost_feasible_scan(rho: DensityMatrix, m: int, cap: int = 1 << 20) -> bool:
    return any(
        brute_force_cost(rho, m, d1, d2).feasible for d1, d2 in _dim_pairs(rho.dim, m, cap)
    )
