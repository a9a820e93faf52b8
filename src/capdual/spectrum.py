"""Spectrum estimation and tensor-multiplicity large deviations.

Two worked families. First, spectrum estimation: the Schur-Weyl measure
P(lambda) = f^lambda s_lambda(q) on partitions of k, its rate function
(sorted relative entropy), and the full-state rate through principal minors.
Second, rank-1 tensor powers: exact multiplicities n_{k,lambda} and the
Legendre-transform rate of the associated dimension-weighted measure.
The measure and the Schur-Weyl report take P(lambda) from one helper. Every
rank-1 table (SU(2)'s are those of the weights (-1, 1)) reads weight counts
from core.power_rows of {w: multiplicity of w}, the row stream of the Laurent
constant terms, which steps by one shifted add per weight on the lattice the
weight differences span, takes n_lambda as one slice difference and checks
sum (lambda + 1) n_lambda = d^k exactly. The Duffield report reads each row
at the nonzero n_lambda nearest to k theta, found by a scan outward from
k theta. The Duffield rate is a theta-capacity, -log cap_theta(v)^2 of a
1-D unit vector, so `capacity.theta_capacity` is its one solver.

Schur polynomials are evaluated in exact integer arithmetic: q is cleared to
integers by its common denominator and the Jacobi-Trudi determinant is taken
over big-integer complete homogeneous values. Floating-point determinants
cancel catastrophically here (for separated q the two Jacobi-Trudi products
agree to a relative 2^{-50} already around k = 400), so exactness is load
bearing, not a luxury.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .capacity import theta_capacity
from .core import (ConvergenceReport, LogValue, Partition, WeightedVector,
                   as_fraction, fraction_log, power_rows)
from .haarmc import sample_haar_unitary

__all__ = [
    "HermitianState",
    "SchurWeylRow",
    "SchurWeylFamily",
    "DuffieldFamily",
    "partitions_bounded",
    "hook_length_count",
    "schur_weyl_measure",
    "keyl_rate",
    "kw_rate",
    "kw_minimization_check",
    "rank1_mult_tables",
    "rank1_multiplicities",
    "duffield_rate",
    "ldp_report",
]

SCHUR_K_MAX = 400
SCHUR_N_MAX = 4
RANK1_K_MAX = 10**3


# ---------------------------------------------------------------------------
# Partitions and exact Schur-Weyl weights.

def partitions_bounded(k: int, max_parts: int,
                       bound: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of k into at most max_parts parts, each at most bound,
    in descending lexicographic order (a linear extension of dominance)."""
    if bound is None:
        bound = k
    if k == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(k, bound), 0, -1):
        if first * max_parts < k:
            break
        for rest in partitions_bounded(k - first, max_parts - 1, first):
            yield (first, *rest)


def hook_length_count(lam: Partition | Sequence[int]) -> int:
    """Number of standard Young tableaux of shape lam, by hook lengths."""
    parts = lam.parts if isinstance(lam, Partition) else Partition(tuple(lam)).parts
    k = sum(parts)
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= p - j + conj[j] - i - 1
    return math.factorial(k) // hooks


def _homogeneous_table(a: Sequence[int], m_max: int) -> list[int]:
    """h_m(a_1..a_n) for m = 0..m_max, exact, by the one-variable-at-a-time
    recurrence h^{(l)}_m = h^{(l-1)}_m + a_l h^{(l)}_{m-1}."""
    h = [1] + [0] * m_max
    for av in a:
        for m in range(1, m_max + 1):
            h[m] += av * h[m - 1]
    return h


def _schur_int(lam: Sequence[int], a: Sequence[int],
               h: list[int] | None = None) -> int:
    """s_lam(a_1..a_n) for integer a, exact Jacobi-Trudi determinant."""
    n = len(a)
    parts = list(lam) + [0] * (n - len(lam))
    if len(lam) > n:
        return 0 if any(p > 0 for p in lam[n:]) else _schur_int(lam[:n], a, h)
    if h is None:
        h = _homogeneous_table(a, (parts[0] if parts else 0) + n)

    def entry(i: int, j: int) -> int:
        m = parts[i] - i + j
        return h[m] if 0 <= m < len(h) else 0

    det = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= entry(i, perm[i])
        det += prod
    return det


def _cleared_spectrum(q: Sequence) -> tuple[list[int], int]:
    """(integer weights a, denominator D) with q_i = a_i/D exactly and
    sum(a) = D; float inputs are rationalized at tolerance 1e-9."""
    qs = [as_fraction(t) for t in q]
    if any(t < 0 for t in qs):
        raise ValueError("spectrum entries must be nonnegative")
    total = sum(qs)
    if total == 0:
        raise ValueError("spectrum must have positive mass")
    qs = [t / total for t in qs]
    D = math.lcm(*(t.denominator for t in qs))
    return [int(t * D) for t in qs], D


def _schur_weyl_prob(lam: Sequence[int], a: Sequence[int], denom: int,
                     h: list[int] | None = None) -> tuple[int, int, LogValue]:
    """(f^lam, s_lam(a), P(lam) = f^lam s_lam(a) / denom) for the cleared
    spectrum a and denom = D^k."""
    f = hook_length_count(lam)
    s_int = _schur_int(lam, a, h)
    return f, s_int, fraction_log(Fraction(f * s_int, denom))


@dataclass(frozen=True)
class SchurWeylRow:
    lam: Partition
    f_lambda: int
    s_lambda: LogValue
    prob: LogValue


def schur_weyl_measure(q, k: int) -> list[SchurWeylRow]:
    """The measure P(lambda) = f^lambda s_lambda(q) over partitions of k with
    at most len(q) parts, rows in descending lexicographic order.

    q must be sorted nonincreasing. The normalization sum_lambda P = 1 is
    checked exactly in integer arithmetic; RuntimeError if it fails.
    """
    q = list(q)
    if len(q) > SCHUR_N_MAX:
        raise ValueError(f"spectrum length {len(q)} exceeds {SCHUR_N_MAX}")
    if any(q[i] < q[i + 1] for i in range(len(q) - 1)):
        raise ValueError("spectrum must be sorted nonincreasing")
    if abs(sum(float(t) for t in q) - 1.0) > 1e-9:
        raise ValueError(f"spectrum sums to {sum(float(t) for t in q)}, not 1")
    if not 1 <= k <= SCHUR_K_MAX:
        raise ValueError(f"k must be in 1..{SCHUR_K_MAX}")
    a, D = _cleared_spectrum(q)
    nz = [v for v in a if v > 0]
    h = _homogeneous_table(nz, k + len(nz))
    denom = D**k
    rows = []
    check = 0
    for lam in partitions_bounded(k, len(q)):
        f, s_int, p_lv = _schur_weyl_prob(lam, nz, denom, h)
        check += f * s_int
        s_lv = fraction_log(Fraction(s_int, denom))
        rows.append(SchurWeylRow(Partition(lam), f, s_lv, p_lv))
    if check != denom:
        raise RuntimeError("Schur-Weyl weights failed the exact normalization")
    return rows


# ---------------------------------------------------------------------------
# States and rate functions.

class HermitianState:
    """A positive semidefinite Hermitian matrix of unit trace."""

    def __init__(self, mat) -> None:
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("state must be a square matrix")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("state must be Hermitian")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-12:
            raise ValueError(f"state must be positive semidefinite, min eig {eigs.min()}")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError("state must have unit trace")
        self.mat = m
        self.mat.setflags(write=False)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues sorted nonincreasing."""
        return np.linalg.eigvalsh(self.mat)[::-1]


def _as_state(s) -> HermitianState:
    return s if isinstance(s, HermitianState) else HermitianState(s)


def keyl_rate(rho, sigma) -> float:
    """Full state-estimation rate I(rho || sigma).

    With rho = u diag(p) u*, p sorted nonincreasing and p_{n+1} = 0:
    I = sum_k p_k log p_k - sum_k (p_k - p_{k+1}) log prim_k(u* sigma u),
    prim_k the k-th leading principal minor. Infinite when a minor carrying
    positive coefficient vanishes (support incompatibility).
    """
    rho = _as_state(rho)
    sigma = _as_state(sigma)
    if rho.n != sigma.n:
        raise ValueError("states must have matching dimension")
    eigs, vecs = np.linalg.eigh(rho.mat)
    p = eigs[::-1]
    u = vecs[:, ::-1]
    B = u.conj().T @ sigma.mat @ u
    n = rho.n
    total = float(sum(pk * math.log(pk) for pk in p if pk > 1e-300))
    for k in range(1, n + 1):
        coeff = float(p[k - 1] - (p[k] if k < n else 0.0))
        if coeff <= 1e-15:
            continue
        sign, logdet = np.linalg.slogdet(B[:k, :k])
        if sign.real <= 0 or not math.isfinite(logdet):
            return math.inf
        total -= coeff * logdet
    return max(total, 0.0)


def _sorted_prob(p) -> np.ndarray:
    arr = np.array(p, dtype=float)
    if np.any(arr[:-1] < arr[1:] - 1e-15):
        raise ValueError("probability vector must be sorted nonincreasing")
    return arr


def kw_rate(p, q) -> float:
    """Spectrum-estimation rate: relative entropy D(p||q) of the sorted
    spectra, infinite when supp p is not inside supp q."""
    p = _sorted_prob(p)
    q = _sorted_prob(q)
    if p.shape != q.shape:
        raise ValueError("vectors must have matching length")
    total = 0.0
    for pk, qk in zip(p, q):
        if pk <= 1e-300:
            continue
        if qk <= 1e-300:
            return math.inf
        total += pk * math.log(pk / qk)
    return max(total, 0.0)


def kw_minimization_check(p, sigma, samples: int = 1000,
                          seed: int = 7) -> tuple[float, float]:
    """(min over sampled bases of I(u diag(p) u* || sigma), D(p || spec sigma)).

    The analytic minimizer (sigma's own eigenbasis, by Cauchy interlacing) is
    always included in the minimization, so the first component is at most
    the second up to round-off; sampling can only confirm, not beat it.
    """
    sigma = _as_state(sigma)
    if sigma.n > 3:
        raise ValueError("sampling check supports n <= 3")
    p = _sorted_prob(p)
    if len(p) != sigma.n:
        raise ValueError("p must match the state dimension")
    analytic = kw_rate(p, sigma.spectrum())
    _, vecs = np.linalg.eigh(sigma.mat)
    w = vecs[:, ::-1]
    best = keyl_rate(HermitianState(w @ np.diag(p) @ w.conj().T), sigma)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        u = sample_haar_unitary(sigma.n, rng)
        rho = HermitianState(u @ np.diag(p) @ u.conj().T)
        best = min(best, keyl_rate(rho, sigma))
    return best, analytic


# ---------------------------------------------------------------------------
# Rank-1 tensor-power multiplicities.

def _multiplicity_row(lo: int, row: np.ndarray) -> np.ndarray:
    """n_lambda = w_lambda - w_{lambda+2} at index lambda >= 0, one slice
    difference over the weight-count row of a symmetric weight system whose
    lowest weight is lo."""
    w = row[-lo:]
    n = w.copy()
    n[:-2] -= w[2:]
    return n


def _nonzero(n: np.ndarray) -> dict[int, int]:
    return {lam: x for lam, x in enumerate(n) if x}


def _character_rows(weights: Sequence[int],
                    k_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Weight-count rows (lowest weight, row) of the tensor powers k = 1 ..
    k_max of the rank-1 representation with the given weight multiset.

    The weights are checked once, before any power: a character is symmetric
    under w -> -w and has every n_lambda >= 0, and its tensor powers are
    characters again. ValueError names the first failed condition.
    """
    counts = Counter(int(w) for w in weights)
    if not counts:
        raise ValueError("weight multiset must be nonempty")
    bad = f"weight multiset {tuple(weights)} is not a character of the group: "
    if any(counts[-w] != c for w, c in counts.items()):
        raise ValueError(bad + "it is not symmetric under w -> -w")
    for lam, n in enumerate(_multiplicity_row(*next(power_rows(counts, 1)))):
        if n < 0:
            raise ValueError(bad + f"n_{lam} = w_{lam} - w_{lam + 2} = {n} is negative")
    return power_rows(counts, k_max)


def _dimension_checked(n: np.ndarray, d: int, k: int) -> np.ndarray:
    """n, or RuntimeError unless sum (lambda + 1) n_lambda = d^k exactly."""
    if sum((lam + 1) * x for lam, x in enumerate(n)) != d**k:
        raise RuntimeError(f"multiplicities failed the exact dimension count at k={k}")
    return n


def _multiplicity_rows(weights: Sequence[int], k_max: int) -> Iterator[np.ndarray]:
    """n_{k,lambda} at index lambda for k = 1..k_max, from one stream of
    weight-count rows. Every row feeds the next, so the exact dimension
    count is taken once, on the last row (k = 0's when k_max = 0)."""
    n = np.ones(1, dtype=object)  # k = 0: the trivial representation
    for row in _character_rows(weights, k_max):
        n = _multiplicity_row(*row)
        yield n
    _dimension_checked(n, len(weights), k_max)


def rank1_mult_tables(weights: Sequence[int], k_max: int) -> Iterator[dict[int, int]]:
    """n_{k,lambda} for k = 1..k_max, one dict per tensor power, from one
    stream of weight-count rows; the weights (-1, 1) give the SU(2) tables.

    The exact dimension count is taken on the last table. Raises ValueError
    as `rank1_multiplicities` does.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    for n in _multiplicity_rows(weights, k_max):
        yield _nonzero(n)


def rank1_multiplicities(weights: Sequence[int], k: int) -> dict[int, int]:
    """n_{k,lambda} for the k-th tensor power of the rank-1 representation
    with the given weight multiset, via weight counts w and
    n_lambda = w_lambda - w_{lambda+2}, checked by the exact dimension count.

    Raises ValueError when k is negative, or when the multiset is not the
    weight system of a genuine representation of the rank-1 group.
    """
    if k < 0:
        raise ValueError(f"tensor power k must be nonnegative, got {k}")
    n = np.ones(1, dtype=object)  # k = 0: the trivial representation
    for n in _multiplicity_rows(weights, k):
        pass
    return _nonzero(n)


def duffield_rate(weights: Sequence[int], theta: float) -> float:
    """Legendre-transform rate I(theta) = sup_{h>=0} (theta h - log(chi(e^h)/d))
    for the rank-1 representation with character chi(e^h) = sum_w e^{w h}.

    With h = 2x it is -log cap_theta(v)^2, v the 1-D unit vector with
    amplitudes sqrt(multiplicity of w / d): 0 up to the mean weight,
    log(d / multiplicity) at the largest weight (a vertex), +inf past it.
    theta is taken exactly, a float as its binary value.
    """
    counts = Counter(int(w) for w in weights)
    if not counts:
        raise ValueError("weight multiset must be nonempty")
    th = Fraction(theta)
    if th < 0:
        raise ValueError("theta must be nonnegative")
    d = sum(counts.values())
    if th <= Fraction(sum(w * c for w, c in counts.items()), d):
        return 0.0
    v = WeightedVector.from_terms(1, {(w,): math.sqrt(c / d) for w, c in counts.items()})
    cap = theta_capacity(v, (th,))
    if cap.status == "outside":
        return math.inf
    if cap.status == "max_iter":
        raise RuntimeError(f"capacity solve for the rate at theta={theta} hit max_iter")
    if len(cap.face) == 1:
        return -2.0 * float(cap.log_cap.log_mag)
    # the rate at the minimizer h = 2x, as a difference from log(chi(1)/d) = 0,
    # so it keeps its relative accuracy near the mean weight
    h = 2.0 * float(cap.minimizer_x[0])
    log_chi = math.log1p(math.fsum(c / d * math.expm1(w * h) for w, c in counts.items()))
    return max(float(th) * h - log_chi, 0.0)


# ---------------------------------------------------------------------------
# Large-deviation reports.

@dataclass(frozen=True)
class SchurWeylFamily:
    """Spectrum estimation for a state with spectrum q (sorted nonincreasing)."""
    q: tuple[float, ...]


@dataclass(frozen=True)
class DuffieldFamily:
    """Rank-1 tensor powers of the representation with the given weights."""
    weights: tuple[int, ...]


def _round_partition(theta: Sequence[Fraction], k: int) -> tuple[int, ...]:
    """Largest-remainder rounding of k*theta (exact, summing to 1): floors,
    then one unit each to the largest fractional parts, ties to the earlier
    index. Sorted theta gives a partition of k within 1 of k*theta."""
    scaled = [k * t for t in theta]
    parts = [math.floor(x) for x in scaled]
    by_remainder = sorted(range(len(parts)), key=lambda i: (parts[i] - scaled[i], i))
    for i in by_remainder[:k - sum(parts)]:
        parts[i] += 1
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)) or parts[-1] < 0:
        raise ValueError(f"k*theta does not round to a partition at k={k}")
    return tuple(parts)


def _nearest_nonzero(n: np.ndarray, target: float) -> int:
    """The lambda with n_lambda != 0 nearest to target, the larger on a tie,
    by a scan outward from target over the cells in order of distance; n
    needs a nonzero entry."""
    up = max(math.ceil(target), 0)
    down = min(up, len(n)) - 1
    while True:
        if up < len(n) and (down < 0 or up - target <= target - down):
            if n[up]:
                return up
            up += 1
        elif down >= 0:
            if n[down]:
                return down
            down -= 1
        else:
            raise ValueError("no nonzero multiplicity in the row")


def ldp_report(family, theta, k_max: int) -> ConvergenceReport:
    """Empirical decay rates -(1/k) log P(lambda_k = round(k theta)) against
    the analytic rate, one row per k.

    Columns: k, log_prob, empirical_rate, analytic_rate, difference.
    """
    rows = []
    if isinstance(family, SchurWeylFamily):
        if k_max > SCHUR_K_MAX:
            raise ValueError(f"k_max must be at most {SCHUR_K_MAX}")
        th = [as_fraction(t) for t in (theta if isinstance(theta, Iterable) else [theta])]
        if len(th) != len(family.q):
            raise ValueError("theta must match the spectrum length")
        if sum(th) != 1:
            raise ValueError("theta must sum to 1")
        analytic = kw_rate(sorted(map(float, th), reverse=True), family.q)
        a, D = _cleared_spectrum(family.q)
        nz = [v for v in a if v > 0]
        for k in range(1, k_max + 1):
            log_p = _schur_weyl_prob(_round_partition(th, k), nz, D**k)[2].log_mag
            emp = -log_p / k
            rows.append((k, log_p, emp, analytic, abs(emp - analytic)))
        meta = {"family": family, "theta": tuple(map(float, th)), "analytic_rate": analytic}
    elif isinstance(family, DuffieldFamily):
        if k_max > RANK1_K_MAX:
            raise ValueError(f"k_max must be at most {RANK1_K_MAX}")
        th = float(as_fraction(theta))
        analytic = duffield_rate(family.weights, th)
        d = len(family.weights)
        for k, n in enumerate(_multiplicity_rows(family.weights, k_max), start=1):
            lam_k = _nearest_nonzero(n, k * th)
            log_p = math.log((lam_k + 1) * n[lam_k]) - k * math.log(d)
            emp = -log_p / k
            rows.append((k, log_p, emp, analytic, abs(emp - analytic)))
        meta = {"family": family, "theta": th, "analytic_rate": analytic}
    else:
        raise TypeError(f"unsupported family {type(family).__name__}")
    return ConvergenceReport(
        columns=("k", "log_prob", "empirical_rate", "analytic_rate", "difference"),
        rows=rows,
        metadata=meta,
    )
