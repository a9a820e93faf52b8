"""Tensor-power projection norms, duality and prefactor reports, Laurent tools.

For a torus vector v with squared amplitudes q_w, the squared norm of the
weight-lambda component of v^{tensor k} is the coefficient of t^lambda in
(sum_w q_w t^w)^k. Two engines compute these coefficients.

The table builder runs the convolution exactly in log domain over the whole
k-fold bounding box, one row per k; it is the oracle the other engine is
judged against. Everything else uses scaled linear rows, nonnegative arrays
normalized to maximum 1 with a relative truncation floor, which keeps array
extents O(sqrt(k log(1/floor))) per axis:

- The duality report reads one coefficient per k, at k theta. It tilts q by
  the capacity minimizer x*, p_w proportional to q_w e^{2<w, x*>} on the
  minimal face of theta, and uses the identity, exact for every x and k,

      |Pi_{k theta} v^{tensor k}|^2 = e^{k F(x)} P_p(S_k = k theta),

  where S_k is a sum of k draws from p and F(x*) = log cap_theta(v)^2. Under
  p the mean of S_k is k theta, so the floor only removes far tails. The
  rows of the law of S_k are streamed with one shift-and-add step per k.
- The prefactor sequence k^{d/2} |Pi_k v^{tensor k}|^2 powers rows by binary
  squaring, each product a real FFT convolution on numpy.fft with every axis
  padded to a 5-smooth length, so k = 10^4 is cheap.

Laurent constant terms cst f^k, for every k <= k_max, come from one pass
over core.power_rows, the row stream rank-1 multiplicities also read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .capacity import moment_map, theta_capacity
from .core import (ConvergenceReport, LogValue, WeightedVector, power_rows,
                   rational_vector)

__all__ = [
    "ProjectionTable",
    "projection_norm_table",
    "duality_report",
    "prefactor_sequence",
    "difference_lattice",
    "LaurentPoly",
    "laurent_cst_powers",
    "CriticalValues",
    "critical_values",
]

MAX_DP_BYTES = 2 << 30  # 2 GiB guard for dense convolution tables

# Entries below max * _TRUNC_FLOOR are set to zero each time a scaled row is
# normalized: after every FFT product of the prefactor sequence and after
# every shift-and-add step of the duality report's tilted stream. The row
# records the mass it removed (_ScaledRow.dropped).
# - Tilted stream: every row is the law of S_k and every step a convolution
#   with p, which sums to 1, so mass removed at one step removes exactly
#   that much from all later rows. The sum of the removed masses, the
#   report's metadata["dropped_mass"], is therefore an absolute bound on the
#   error of P_p(S_k = k theta) at every row; the value read there, at the
#   mean, is of order k^{-d/2}.
# - Prefactor rows: mass lost per convolution is below (array size) * floor
#   relative to the total, around 1e-7 at the largest supported extents, and
#   the central values read sit at or near the array maximum, so their
#   relative bias stays under 1e-6.
_TRUNC_FLOOR = 1e-12


def _weight_arrays(v: WeightedVector) -> tuple[np.ndarray, np.ndarray]:
    qs = v.amplitudes_sq()
    W = np.array([w.coords for w in v.support], dtype=np.int64)
    q = np.array([qs[w] for w in v.support])
    return W, q


def _step_log(arr: np.ndarray, offset: np.ndarray, W: np.ndarray,
              logq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One exact convolution step in log domain."""
    wmin = W.min(axis=0)
    wmax = W.max(axis=0)
    new_offset = offset + wmin
    new_shape = tuple(np.array(arr.shape) + (wmax - wmin))
    out = np.full(new_shape, -np.inf)
    for w, lq in zip(W, logq):
        sl = tuple(slice(int(w[d] - wmin[d]), int(w[d] - wmin[d]) + arr.shape[d])
                   for d in range(arr.ndim))
        np.logaddexp(out[sl], arr + lq, out=out[sl])
    return out, new_offset


def _log_rows(v: WeightedVector, k_max: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(offset, arr) for k = 1 .. k_max: arr holds the log coefficients of
    (sum_w q_w t^w)^k on the bounding box whose lower corner is offset. The
    steps start from k = 0, the single coefficient log 1 at the origin."""
    W, q = _weight_arrays(v)
    logq = np.log(q)
    arr, offset = np.zeros((1,) * v.n), np.zeros(v.n, dtype=np.int64)
    for _ in range(k_max):
        arr, offset = _step_log(arr, offset, W, logq)
        yield offset, arr


class ProjectionTable:
    """Exact log-domain squared projection norms for k = 1 .. k_max."""

    def __init__(self, n: int, norm_sq: float, rows: list[tuple[np.ndarray, np.ndarray]]):
        self.n = n
        self.norm_sq = norm_sq
        self._rows = rows

    @property
    def k_max(self) -> int:
        return len(self._rows)

    def _row(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k = {k} outside the tabulated range 1..{self.k_max}")
        return self._rows[k - 1]

    def get(self, k: int, lam) -> LogValue:
        """Squared norm of the weight-lam component of v^{tensor k}."""
        offset, arr = self._row(k)
        idx = tuple(int(c) - int(o) for c, o in zip(lam, offset, strict=True))
        if any(i < 0 or i >= s for i, s in zip(idx, arr.shape)):
            return LogValue.zero()
        val = float(arr[idx])
        return LogValue.zero() if val == -math.inf else LogValue(1, val)

    def total(self, k: int) -> LogValue:
        """log of the sum over all weights; equals 2k log |v| exactly in math."""
        flat = self._row(k)[1].ravel()
        m = float(flat.max())
        if m == -math.inf:
            return LogValue.zero()
        return LogValue(1, m + math.log(float(np.exp(flat - m).sum())))


def _check_k_max(k_max) -> None:
    if not isinstance(k_max, numbers.Integral) or k_max < 1:
        raise ValueError(f"k_max must be an integer at least 1, got {k_max!r}")


def projection_norm_table(v: WeightedVector, k_max: int,
                          max_bytes: int = MAX_DP_BYTES) -> ProjectionTable:
    """Tabulate |Pi_{k,lam} v^{tensor k}|^2 for all k <= k_max, all lam, exactly.

    Raises MemoryError naming the offending extent if the dense bounding-box
    arrays would exceed max_bytes in total.
    """
    _check_k_max(k_max)
    v = v.pruned()
    if v.is_zero:
        return ProjectionTable(v.n, 0.0, [])
    W, _ = _weight_arrays(v)
    extent = W.max(axis=0) - W.min(axis=0)
    total = 0
    for k in range(1, k_max + 1):
        total += 8 * int(np.prod(k * extent + 1))
        if total > max_bytes:
            raise MemoryError(
                f"projection table would need more than {max_bytes} bytes at "
                f"k = {k}, extent {tuple(int(e) for e in (k * extent + 1))}")
    return ProjectionTable(v.n, v.norm_sq, list(_log_rows(v, k_max)))


def duality_report(v: WeightedVector, theta, k_max: int) -> ConvergenceReport:
    """Per-k comparison of projection growth against the theta-capacity.

    Rows cover every k <= k_max with k theta integral. Columns:
    k, log_norm_sq (LogValue), rate (log_norm_sq / k), log_cap_sq, gap
    where gap = -(1/k) log P_p(S_k = k theta) >= 0 is log_cap_sq - rate,
    read from the tilted row stream (module docstring). metadata["dropped_mass"]
    is the probability mass the truncation floor removed over the stream, an
    absolute bound on the error of every P_p(S_k = k theta). Outside the
    moment polytope every row is an exact zero with a NaN gap.
    """
    _check_k_max(k_max)
    v = v.pruned()
    if v.is_zero:
        raise ValueError("duality report of the zero vector is undefined")
    th = rational_vector(theta, v.n)
    ell = math.lcm(*(t.denominator for t in th))
    cap = theta_capacity(v, th)
    metadata = {"theta": th, "period": ell, "capacity": cap, "dropped_mass": 0.0}
    columns = ("k", "log_norm_sq", "rate", "log_cap_sq", "gap")
    if not cap.log_cap.sign:
        rows = [(k, LogValue.zero(), -math.inf, -math.inf, math.nan)
                for k in range(ell, k_max + 1, ell)]
        return ConvergenceReport(columns=columns, rows=rows, metadata=metadata)

    log_cap_sq = 2.0 * cap.log_cap.log_mag
    qs = v.amplitudes_sq()
    face = [v.support[j] for j in cap.face]
    W = np.array([w.coords for w in face], dtype=np.int64)
    a = np.log([qs[w] for w in face]) + 2.0 * (W @ cap.minimizer_x)
    p = np.exp(a - a.max())
    p /= p.sum()
    step = [int(t * ell) for t in th]  # k theta = (k / ell) * step
    rows = []
    for k, (row, dropped) in enumerate(_tilted_rows(W, p, k_max), start=1):
        if k % ell:
            continue
        prob = row.value_at([k // ell * c for c in step])
        norm_sq = LogValue(1, k * log_cap_sq + prob.log_mag) if prob.sign else prob
        rows.append((k, norm_sq, norm_sq.log_mag / k, log_cap_sq, 0.0 - prob.log_mag / k))
    metadata["dropped_mass"] = dropped
    return ConvergenceReport(columns=columns, rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# Difference lattice: dimension d and the period m of the zero-weight
# subsemigroup, via an exact integer Hermite normal form.

def _column_hnf(cols: list[list[int]]) -> list[list[int]]:
    """Column-style Hermite form of the lattice spanned by the given columns.

    Returns pivot columns (each column's first nonzero entry is positive and
    sits strictly below the previous column's).
    """
    cols = [list(c) for c in cols if any(c)]
    if not cols:
        return []
    n = len(cols[0])
    out: list[list[int]] = []
    row = 0
    while row < n and cols:
        active = [c for c in cols if c[row] != 0]
        rest = [c for c in cols if c[row] == 0]
        while len(active) > 1:
            active.sort(key=lambda c: abs(c[row]))
            a, b = active[0], active[1]
            f = b[row] // a[row]
            for i in range(n):
                b[i] -= f * a[i]
            if b[row] == 0:
                rest.append(b)
                active = [a] + active[2:]
        if active:
            piv = active[0]
            if piv[row] < 0:
                piv = [-x for x in piv]
            out.append(piv)
        cols = rest
        row += 1
    return out


def _lattice_solve(hnf: list[list[int]], x: Sequence[int]) -> list[Fraction] | None:
    """Rational y with (hnf columns) y = x, or None when x is outside the span."""
    res = [Fraction(c) for c in x]
    y: list[Fraction] = []
    for col in hnf:
        pr = next(i for i, c in enumerate(col) if c != 0)
        coef = res[pr] / col[pr]
        y.append(coef)
        for i in range(len(res)):
            res[i] -= coef * col[i]
    if any(r != 0 for r in res):
        return None
    return y


def difference_lattice(v: WeightedVector) -> tuple[int, int]:
    """(d, m): rank of the lattice spanned by weight differences, and the
    smallest m >= 1 with m * w0 inside it for a fixed support weight w0."""
    v = v.pruned()
    support = v.support
    if not support:
        raise ValueError("zero vector has no difference lattice")
    w0 = support[0]
    diffs = [[a - b for a, b in zip(w.coords, w0.coords)] for w in support[1:]]
    hnf = _column_hnf(diffs)
    d = len(hnf)
    y = _lattice_solve(hnf, list(w0.coords))
    if y is None:
        raise ValueError("no tensor power of v meets the zero weight space")
    m = math.lcm(*(c.denominator for c in y)) if y else 1
    return d, m


# ---------------------------------------------------------------------------
# Scaled linear rows: the tilted stream of the duality report and the FFT
# powers of the prefactor sequence.

@dataclass
class _ScaledRow:
    log_scale: float
    arr: np.ndarray          # nonnegative, max normalized to 1
    offset: np.ndarray       # integer lower corner of the bounding box
    dropped: float = 0.0     # mass the floor removed, in units of e^log_scale

    def value_at(self, lam: Sequence[int]) -> LogValue:
        idx = tuple(int(c - o) for c, o in zip(lam, self.offset, strict=True))
        if any(i < 0 or i >= s for i, s in zip(idx, self.arr.shape)):
            return LogValue.zero()
        val = float(self.arr[idx])
        if val <= 0:
            return LogValue.zero()
        return LogValue(1, self.log_scale + math.log(val))


def _row_normalize(arr: np.ndarray, offset: np.ndarray, log_scale: float) -> _ScaledRow:
    """Scale arr, in place, to maximum 1, zero the entries below the floor and
    crop the zero margins."""
    m = float(arr.max())
    if m <= 0:
        raise ValueError("projection row collapsed to zero")
    arr /= m
    low = arr < _TRUNC_FLOOR
    cut = arr * low
    arr -= cut  # exact: x - x = 0 below the floor, x - 0 = x above it
    dropped = float(cut.sum())
    del cut  # as large as the uncropped row: free it before the cropped copy
    lo, hi = [], []
    for ax in range(arr.ndim):
        others = tuple(i for i in range(arr.ndim) if i != ax)
        kept = np.flatnonzero(~low.all(axis=others))
        lo.append(int(kept[0]))
        hi.append(int(kept[-1]) + 1)
    return _ScaledRow(log_scale + math.log(m), np.ascontiguousarray(arr[tuple(map(slice, lo, hi))]),
                      offset + lo, dropped)


def _tilted_rows(W: np.ndarray, p: np.ndarray, k_max: int
                 ) -> Iterator[tuple[_ScaledRow, float]]:
    """The law of S_k, a sum of k independent draws from p on the integer
    weights W, as a scaled row for k = 1 .. k_max, with the probability mass
    the floor has removed up to that row. Each step shifts the previous row
    by every weight and adds it weighted by p; the steps start from k = 0,
    the point mass at the origin."""
    lo = W.min(axis=0)
    extent = W.max(axis=0) - lo
    shifts = [tuple(int(c) for c in w - lo) for w in W]
    row = _ScaledRow(0.0, np.ones((1,) * W.shape[1]), np.zeros(W.shape[1], dtype=np.int64))
    dropped = 0.0
    for _ in range(k_max):
        shape = row.arr.shape
        out = np.zeros(tuple(int(m + e) for m, e in zip(shape, extent)))
        for w, pw in zip(shifts, p):
            out[tuple(slice(c, c + m) for c, m in zip(w, shape))] += pw * row.arr
        row = _row_normalize(out, row.offset + lo, row.log_scale)
        dropped += row.dropped * math.exp(row.log_scale)
        yield row, dropped


def _row_base(v: WeightedVector) -> _ScaledRow:
    W, q = _weight_arrays(v)
    lo = W.min(axis=0)
    arr = np.zeros(tuple(W.max(axis=0) - lo + 1))
    for w, qq in zip(W, q):
        arr[tuple(int(c) for c in (w - lo))] = qq
    return _row_normalize(arr, lo.copy(), 0.0)


def _fft_len(n: int) -> int:
    """The smallest 5-smooth length 2^a 3^b 5^c that is at least n >= 1."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _row_conv(a: _ScaledRow, b: _ScaledRow) -> _ScaledRow:
    # Full linear convolution as a product of real FFTs. Each axis is padded
    # to a 5-smooth length: numpy's real FFT has radix 2, 3, 4 and 5 passes,
    # and any other prime factor goes through a slower generic pass or
    # Bluestein's algorithm. Powers of two alone would pad some axes to
    # twice the extent.
    shape = tuple(x + y - 1 for x, y in zip(a.arr.shape, b.arr.shape))
    fshape = tuple(_fft_len(m) for m in shape)
    axes = tuple(range(len(shape)))
    spec = np.fft.rfftn(a.arr, fshape, axes) * np.fft.rfftn(b.arr, fshape, axes)
    arr = np.fft.irfftn(spec, fshape, axes)[tuple(slice(m) for m in shape)]
    np.clip(arr, 0.0, None, out=arr)
    return _row_normalize(arr, a.offset + b.offset, a.log_scale + b.log_scale)


def _row_power(base: _ScaledRow, k: int, cache: dict[int, _ScaledRow]) -> _ScaledRow:
    """k-fold self-convolution by binary powering with a shared cache."""
    if k in cache:
        return cache[k]
    if k == 1:
        row = base
    elif k % 2 == 0:
        half = _row_power(base, k // 2, cache)
        row = _row_conv(half, half)
    else:
        row = _row_conv(_row_power(base, k - 1, cache), base)
    cache[k] = row
    return row


def prefactor_sequence(v: WeightedVector, k_max: int | None = None,
                       ks: Sequence[int] | None = None) -> list[tuple[int, float]]:
    """The sequence (k, k^{d/2} |Pi_k v^{tensor k}|^2) over the period-m
    subsemigroup, for a unit vector with vanishing moment map.

    d and m come from the difference lattice of the support. Pass either
    k_max (report every multiple of m up to it) or an explicit list ks,
    which is filtered to the subsemigroup.
    """
    v = v.pruned()
    if v.is_zero:
        raise ValueError("prefactor sequence of the zero vector is undefined")
    if abs(v.norm_sq - 1.0) > 1e-10:
        raise ValueError("prefactor sequence expects a unit vector")
    mu_inf = float(np.max(np.abs(moment_map(v))))
    if mu_inf > 1e-10:
        raise ValueError(f"moment map must vanish, |mu|_inf = {mu_inf}")
    d, m = difference_lattice(v)
    if ks is None:
        if k_max is None:
            raise ValueError("pass k_max or an explicit list of powers ks")
        targets = list(range(m, k_max + 1, m))
    else:
        targets = sorted({int(k) for k in ks if k >= 1 and k % m == 0})
    if not targets:
        return []

    base = _row_base(v)
    cache: dict[int, _ScaledRow] = {}
    zero = (0,) * v.n
    out: list[tuple[int, float]] = []
    cur_k = targets[0]
    cur = _row_power(base, cur_k, cache)
    for k in targets:
        if k != cur_k:
            cur = _row_conv(cur, _row_power(base, k - cur_k, cache))
            cur_k = k
        lv = cur.value_at(zero)
        val = 0.0 if lv.sign == 0 else math.exp(lv.log_mag + 0.5 * d * math.log(k))
        out.append((k, val))
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials in one variable: constant terms of powers and critical
# values of the map itself.

Coeff = complex | Fraction | int


@dataclass
class LaurentPoly:
    """A Laurent polynomial sum_e a_e z^e with integer exponents."""

    terms: dict[int, Coeff]

    def __post_init__(self) -> None:
        cleaned = {}
        for e, c in self.terms.items():
            if not isinstance(e, int):
                raise TypeError(f"exponent {e!r} is not an integer")
            if c != 0:
                cleaned[e] = c
        self.terms = dict(sorted(cleaned.items()))

    @property
    def is_rational(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.terms.values())

    def __call__(self, z: complex) -> complex:
        return sum(complex(c) * z ** e for e, c in self.terms.items())


def laurent_cst_powers(f: LaurentPoly, k_max: int) -> list:
    """The constant terms of f^k for k = 0 .. k_max, in one pass over the
    power rows of f.

    Rational coefficients are cleared once to integers over their common
    denominator D, so cst f^k is the z^0 entry of the exact integer row over
    D^k, an exact Fraction; any other coefficient gives complex values read
    from complex128 rows. k = 0 gives 1.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    rational = f.is_rational
    if rational:
        denom = math.lcm(*(Fraction(c).denominator for c in f.terms.values()))
        coeffs = {e: int(c * denom) for e, c in f.terms.items()}
    else:
        coeffs = {e: complex(c) for e, c in f.terms.items()}
    csts = [Fraction(1) if rational else complex(1)]
    # the zero polynomial (rational, D = 1) runs as the single term 0 z^0
    for k, (lo, row) in enumerate(power_rows(coeffs or {0: 0}, k_max), start=1):
        cst = row[-lo] if 0 <= -lo < len(row) else 0
        csts.append(Fraction(cst, denom**k) if rational else complex(cst))
    return csts


@dataclass(frozen=True)
class CriticalValues:
    """Critical points of a Laurent map on the punctured plane and f there.

    positive_real_value is the infimum of f over the positive reals when all
    coefficients are nonnegative (None otherwise); positive_real_point is the
    minimizer when the infimum is attained, else None.
    """

    points: tuple[complex, ...]
    values: tuple[complex, ...]
    positive_real_point: float | None
    positive_real_value: float | None

    @property
    def max_modulus(self) -> float:
        return max(abs(v) for v in self.values)


def _positive_real_inf(f: LaurentPoly) -> tuple[float | None, float | None]:
    coeffs = {e: complex(c) for e, c in f.terms.items()}
    if any(abs(c.imag) > 0 or c.real < 0 for c in coeffs.values()):
        return None, None
    a = {e: c.real for e, c in coeffs.items()}
    has_pos = any(e > 0 for e in a)
    has_neg = any(e < 0 for e in a)
    if not (has_pos and has_neg):
        # Infimum at a boundary of the positive axis, not attained unless f
        # is the constant coefficient alone.
        return None, a.get(0, 0.0)

    def dphi(x: float) -> float:
        return sum(c * e * math.exp(e * x) for e, c in a.items())

    lo, hi = -1.0, 1.0
    emax = max(abs(e) for e in a)
    bound = 700.0 / emax
    while dphi(lo) > 0 and lo > -bound:
        lo *= 2
    while dphi(hi) < 0 and hi < bound:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dphi(mid) < 0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    t = math.exp(x)
    return t, sum(c * t ** e for e, c in a.items())


def critical_values(f: LaurentPoly, residual_tol: float = 1e-9) -> CriticalValues:
    """All critical values of f on C minus the origin.

    Critical points solve z f'(z) = 0; they are found as companion-matrix
    eigenvalues of the cleared polynomial, polished by one Newton step, and
    rejected with an error if the polished residual exceeds residual_tol
    relative to the coefficient scale.
    """
    zfp = {e: e * complex(c) for e, c in f.terms.items() if e != 0}
    if not zfp:
        raise ValueError("critical values of a constant map are undefined")
    emin = min(zfp)
    emax = max(zfp)
    deg = emax - emin
    coeffs = np.zeros(deg + 1, dtype=complex)
    for e, c in zfp.items():
        coeffs[emax - e] = c  # descending order for np.roots
    if deg == 0:
        pts: list[complex] = []
    else:
        pts = list(np.roots(coeffs))
    scale = float(np.max(np.abs(coeffs)))
    dcoeffs = coeffs[:-1] * np.arange(deg, 0, -1)
    polished = []
    for z in pts:
        pz = np.polyval(coeffs, z)
        dpz = np.polyval(dcoeffs, z) if deg > 0 else 0
        if dpz != 0:
            z = z - pz / dpz
        res = abs(np.polyval(coeffs, z)) / (scale * max(1.0, abs(z)) ** deg)
        if res > residual_tol:
            raise RuntimeError(f"critical point refinement stalled, residual {res:.3e}")
        if abs(z) > 1e-12:
            polished.append(complex(z))
    values = tuple(f(z) for z in polished)
    pr_point, pr_value = _positive_real_inf(f)
    return CriticalValues(tuple(polished), values, pr_point, pr_value)
