"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library internals:
projection norms by direct tensor-power expansion and by exact integer
polynomial powers, one convolution step by per-term slices, Schur polynomials by tableau enumeration, feasible
directions by explicit rational convex combinations, exact LPs on a
`Fraction` tableau, minimal faces by one such LP per weight, Hall
deficiencies and off-face entries by enumerating row subsets, Laurent
powers and constant terms in exact Gaussian-integer arithmetic, torus
Monte Carlo integrands by one cos and one sin per weight.
Slow is fine; these run at small sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from capdual.core import WeightVector, WeightedVector


def brute_projection_norm(v: WeightedVector, k: int, lam) -> float:
    """|Pi_{k,lam} v^{tensor k}|^2 by expanding all len(terms)^k products."""
    lam = tuple(lam)
    terms = [(w.coords, c) for w, c in v.terms]
    total = 0.0
    for combo in itertools.product(terms, repeat=k):
        weight = tuple(sum(cs) for cs in zip(*(w for w, _ in combo)))
        if weight == lam:
            amp = 1.0 + 0.0j
            for _, c in combo:
                amp *= c
            total += abs(amp) ** 2
    return total


def brute_invariant_norms(v: WeightedVector, k: int) -> dict[tuple, float]:
    """All weight-component norms of v^{tensor k} at once."""
    terms = [(w.coords, c) for w, c in v.terms]
    out: dict[tuple, complex] = {}
    for combo in itertools.product(terms, repeat=k):
        weight = tuple(sum(cs) for cs in zip(*(w for w, _ in combo)))
        amp = 1.0 + 0.0j
        for _, c in combo:
            amp *= c
        out[weight] = out.get(weight, 0.0) + abs(amp) ** 2
    return {w: float(x.real if isinstance(x, complex) else x)
            for w, x in out.items()}


def exact_log_norm_rows(v: WeightedVector, k_max: int):
    """Yield (k, {lam: log |Pi_{k,lam} v^{tensor k}|^2}) for k = 1 .. k_max,
    every reachable lam, in exact integer arithmetic.

    Each squared amplitude q_w is a binary float, so q_w = Q_w / 2^s exactly
    for Python ints Q_w and one s; the coefficients C of (sum_w Q_w t^w)^k are
    ints. log(C / 2^{ks}) is read as log m + (e - ks) log 2 from C = m 2^e
    with 53 bits in m, so its error is about eps times its magnitude."""
    ratios = {w.coords: q.as_integer_ratio() for w, q in v.amplitudes_sq().items()}
    s = max(den.bit_length() - 1 for _, den in ratios.values())  # each den is 2^j
    Q = {w: num << (s - den.bit_length() + 1) for w, (num, den) in ratios.items()}

    def log_scaled(c: int, k: int) -> float:
        e = max(c.bit_length() - 53, 0)
        return math.log(c >> e) + (e - k * s) * math.log(2)

    row = {(0,) * v.n: 1}
    for k in range(1, k_max + 1):
        nxt: dict[tuple, int] = {}
        for lam, c in row.items():
            for w, qw in Q.items():
                key = tuple(a + b for a, b in zip(lam, w))
                nxt[key] = nxt.get(key, 0) + c * qw
        row = nxt
        yield k, {lam: log_scaled(c, k) for lam, c in row.items()}


def shift_add_step(arr: np.ndarray, terms, log: bool = False) -> np.ndarray:
    """One convolution step by direct shift and add: sum_w c_w (arr shifted
    by w) on the box arr.shape + (kernel box) - 1, terms the (w, c_w) pairs,
    w a cell of the kernel's box, added in their order, each into its own
    strided slice of an output that starts at 0. With log=True the c_w are
    logs, the output starts at -inf and a term adds by logaddexp."""
    box = np.max([w for w, _ in terms], axis=0) + 1
    out = np.full(np.add(arr.shape, box) - 1, -np.inf if log else 0.0)
    for w, c in terms:
        dst = out[tuple(slice(a, a + m) for a, m in zip(w, arr.shape))]
        if log:
            np.logaddexp(dst, arr + c, out=dst)
        else:
            dst += arr * c
    return out


def _ssyt_rows(shape, max_entry, prev_row=None):
    """Yield semistandard fillings row by row: weakly increasing rows,
    strictly increasing down columns."""
    if not shape:
        yield []
        return
    width = shape[0]

    def fill(row, col):
        if col == width:
            for rest in _ssyt_rows(shape[1:], max_entry, row):
                yield [tuple(row)] + rest
            return
        lo = row[col - 1] if col else 1
        if prev_row is not None and col < len(prev_row):
            lo = max(lo, prev_row[col] + 1)
        for val in range(lo, max_entry + 1):
            row.append(val)
            yield from fill(row, col + 1)
            row.pop()

    yield from fill([], 0)


def ssyt_schur(lam, xs) -> Fraction:
    """Schur polynomial s_lam(xs) as a sum over semistandard tableaux.

    Exact when xs are Fractions. Only viable for |lam| <= 10 or so.
    """
    lam = tuple(p for p in lam if p)
    if not lam:
        return Fraction(1)
    n = len(xs)
    if len(lam) > n:
        return Fraction(0)
    total = Fraction(0)
    for tableau in _ssyt_rows(lam, n):
        term = Fraction(1)
        for row in tableau:
            for entry in row:
                term *= xs[entry - 1]
        total += term
    return total


def ssyt_count(lam, n: int) -> int:
    """Number of semistandard tableaux of the given shape with entries <= n,
    i.e. s_lam(1, ..., 1)."""
    return sum(1 for _ in _ssyt_rows(tuple(p for p in lam if p), n))


def random_weighted_vector(rng: np.random.Generator, n: int = 2,
                           n_terms: int = 3, box: int = 3,
                           complex_amps: bool = True) -> WeightedVector:
    """Random vector with distinct integer weights in [-box, box]^n."""
    weights: set[tuple] = set()
    while len(weights) < n_terms:
        weights.add(tuple(int(x) for x in rng.integers(-box, box + 1, size=n)))
    terms = {}
    for w in weights:
        if complex_amps:
            amp = complex(rng.normal(), rng.normal())
        else:
            amp = float(rng.normal())
        while abs(amp) < 1e-3:
            amp = complex(rng.normal(), rng.normal()) if complex_amps else float(rng.normal())
        terms[WeightVector(w)] = amp
    return WeightedVector.from_terms(n, terms)


def random_feasible_theta(rng: np.random.Generator, v: WeightedVector,
                          denominator_bound: int = 8):
    """A rational point of the weight polytope: an explicit convex combination
    with small positive integer coefficients over a random support subset."""
    weights = [w.coords for w, _ in v.terms]
    m = len(weights)
    size = int(rng.integers(1, m + 1))
    idx = rng.choice(m, size=size, replace=False)
    coeffs = [int(rng.integers(1, denominator_bound)) for _ in idx]
    denom = sum(coeffs)
    theta = [Fraction(0)] * v.n
    for i, c in zip(idx, coeffs):
        for j, wj in enumerate(weights[int(i)]):
            theta[j] += Fraction(c * wj, denom)
    return tuple(theta)


# -- Fraction-tableau simplex: the exact-LP oracle -----------------------------
#
# A dense two-phase tableau over `Fraction` with Bland's rule, written
# independently of `capdual.exactlp` (which pivots on a fraction-free integer
# tableau). It takes the same pivots, so `status`, `x`, `objective`, `farkas`
# and `pivots` must agree exactly.


def _frac_pivot(T: list[list[Fraction]], zrow: list[Fraction], basis: list[int],
                r: int, s: int) -> None:
    piv = T[r][s]
    T[r] = [v / piv for v in T[r]]
    for i in range(len(T)):
        if i != r and T[i][s] != 0:
            f = T[i][s]
            T[i] = [a - f * b for a, b in zip(T[i], T[r])]
    if zrow[s] != 0:
        f = zrow[s]
        zrow[:] = [a - f * b for a, b in zip(zrow, T[r])]
    basis[r] = s


def _frac_run_simplex(T: list[list[Fraction]], zrow: list[Fraction],
                      basis: list[int], ncols: int) -> tuple[str, int]:
    """Maximize with reduced costs in zrow (enter where zrow < 0). Bland's
    rule. Returns the status and the number of pivots taken."""
    pivots = 0
    while True:
        enter = -1
        for j in range(ncols):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", pivots
        leave = -1
        best = None
        for i in range(len(T)):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", pivots
        _frac_pivot(T, zrow, basis, leave, enter)
        pivots += 1


def _frac_make_zrow(T: list[list[Fraction]], basis: list[int],
                    cost: list[Fraction], ncols: int) -> tuple[list[Fraction], Fraction]:
    zrow = []
    for j in range(ncols + 1):
        v = sum((cost[basis[i]] * T[i][j] for i in range(len(T))), Fraction(0))
        if j < ncols:
            v -= cost[j]
        zrow.append(v)
    zval = zrow.pop()
    zrow.append(Fraction(0))  # placeholder for rhs column alignment in _frac_pivot
    return zrow, zval


@dataclass
class FractionLP:
    """The oracle's own result record, with `Fraction` fields, so that it
    shares no code with `capdual.exactlp.LPResult`."""

    status: str
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    farkas: list[Fraction] | None = None
    pivots: int = 0


def fraction_simplex_max(c, A, b) -> FractionLP:
    """Maximize c.x subject to A x = b, x >= 0 on a `Fraction` tableau.

    Same contract as `capdual.exactlp.simplex_max`, certificate checks
    included; `pivots` counts phase 1, driving artificials out and phase 2.
    """
    zero, one = Fraction(0), Fraction(1)
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    # Sign-adjust rows so the right hand side is nonnegative.
    signs = [(-one if b[i] < 0 else one) for i in range(m)]
    T = [[signs[i] * Fraction(A[i][j]) for j in range(n)] for i in range(m)]
    bb = [signs[i] * Fraction(b[i]) for i in range(m)]

    # Phase 1: append artificial identity columns and drive their sum to zero.
    ncols = n + m
    for i in range(m):
        T[i].extend(one if j == i else zero for j in range(m))
        T[i].append(bb[i])
    basis = [n + i for i in range(m)]
    cost1 = [zero] * n + [-one] * m
    zrow, _ = _frac_make_zrow(T, basis, cost1, ncols)
    status, pivots = _frac_run_simplex(T, zrow, basis, ncols)
    if status != "optimal":
        raise RuntimeError(f"phase 1 ended {status}, but it is always bounded")
    art_value = sum((T[i][-1] for i in range(m) if basis[i] >= n), zero)

    if art_value > 0:
        # Infeasible; extract the Farkas vector from the multipliers.
        # zrow over artificial column i equals y_i + 1 where y = c_B B^{-1}.
        y = [-(signs[i] * (zrow[n + i] - 1)) for i in range(m)]
        for j in range(n):
            if sum((y[i] * Fraction(A[i][j]) for i in range(m)), zero) > 0:
                raise RuntimeError("Farkas certificate failed column check")
        if sum((y[i] * Fraction(b[i]) for i in range(m)), zero) <= 0:
            raise RuntimeError("Farkas certificate failed objective check")
        return FractionLP(status="infeasible", farkas=y, pivots=pivots)

    # Drive any residual artificial variables out of the basis.
    rows_to_drop = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if T[i][j] != 0), -1)
            if piv < 0:
                rows_to_drop.append(i)
            else:
                _frac_pivot(T, zrow, basis, i, piv)
                pivots += 1
    for i in sorted(rows_to_drop, reverse=True):
        del T[i]
        del basis[i]

    # Phase 2 on the real columns only.
    for row in T:
        del row[n:n + m]
    zrow, _ = _frac_make_zrow(T, basis, [Fraction(cj) for cj in c], n)
    status, phase2 = _frac_run_simplex(T, zrow, basis, n)
    pivots += phase2
    if status == "unbounded":
        return FractionLP(status="unbounded", pivots=pivots)

    x = [zero] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    for i in range(m):
        if sum((Fraction(A[i][j]) * x[j] for j in range(n)), zero) != Fraction(b[i]):
            raise RuntimeError("primal solution failed exact feasibility check")
    if any(v < 0 for v in x):
        raise RuntimeError("primal solution failed nonnegativity")
    obj = sum((Fraction(c[j]) * x[j] for j in range(n)), zero)
    return FractionLP(status="optimal", x=x, objective=obj, pivots=pivots)


def per_weight_minimal_face(support, theta) -> list[int] | None:
    """Indices of the weights on the minimal face of conv(support) that
    contains theta, or None when theta lies outside the hull.

    One exact LP per weight: j is on the face exactly when some convex
    combination equal to theta puts positive mass on it. The LPs run on
    `fraction_simplex_max`, so nothing is shared with the library's face
    search, whose LPs pivot on integers.
    """
    n, s = len(theta), len(support)
    A = [[Fraction(w[i]) for w in support] for i in range(n)] + [[Fraction(1)] * s]
    b = [*map(Fraction, theta), Fraction(1)]
    face = []
    for j in range(s):
        res = fraction_simplex_max([Fraction(int(i == j)) for i in range(s)], A, b)
        if res.status != "optimal":
            return None
        if res.objective > 0:
            face.append(j)
    return face


def hall_blocking_set(pattern, r, c) -> tuple[Fraction, list[int], list[int]]:
    """Brute-force Hall deficiency of margins (r, c) on a 0/1 support pattern.

    Enumerates every row subset R and returns (d, rows, cols) with
    d = max_R r(R) - c(N(R)), where N(R) is the set of columns R meets, rows
    the smallest maximizing R and cols = N(rows). R -> r(R) - c(N(R)) is
    supermodular, so the maximizers are closed under intersection and the
    smallest one is their intersection. d > 0 exactly when no nonnegative
    matrix on the pattern has margins (r, c).
    """
    n, m = len(pattern), len(pattern[0])

    def neighbours(R):
        return {j for i in R for j in range(m) if pattern[i][j]}

    best, smallest = Fraction(0), set()
    for size in range(1, n + 1):
        for R in itertools.combinations(range(n), size):
            d = sum(r[i] for i in R) - sum(c[j] for j in neighbours(R))
            if d > best:
                best, smallest = d, set(R)
            elif d == best:
                smallest &= set(R)
    return best, sorted(smallest), sorted(neighbours(smallest))


def hall_off_face(pattern, r, c) -> list[tuple[int, int]]:
    """Brute-force off-face entries of achievable margins (r, c) on a 0/1
    support pattern: the entries (i, j) that every nonnegative matrix on the
    pattern with these margins leaves at 0.

    (i, j) carries mass in some such matrix exactly when the margins
    r - eps e_i, c - eps e_j stay nonnegative and achievable for small
    eps > 0. That fails when r_i or c_j is 0, and by Hall's condition exactly
    when a tight row subset R, r(R) = c(N(R)), has j in N(R) but not i in R:
    the columns N(R) then take all their mass from R.
    """
    n, m = len(pattern), len(pattern[0])
    off = {(i, j) for i in range(n) for j in range(m)
           if pattern[i][j] and (r[i] == 0 or c[j] == 0)}
    for size in range(1, n + 1):
        for R in itertools.combinations(range(n), size):
            cols = {j for i in R for j in range(m) if pattern[i][j]}
            if sum(r[i] for i in R) == sum(c[j] for j in cols):
                off |= {(i, j) for i in range(n) if i not in R for j in cols
                        if pattern[i][j]}
    return sorted(off)


def gaussian_power_rows(terms: dict[int, complex],
                        k_max: int) -> Iterator[tuple[int, dict[int, tuple[int, int]]]]:
    """(D^k, g^k) for k = 1 .. k_max, exactly.

    Every float coefficient is a dyadic rational, so f = g / D with g a
    Gaussian-integer Laurent polynomial and D a power of two. g^k is
    expanded one factor at a time as a dict {exponent: (re, im)} of Python
    integers.
    """
    parts = {e: (Fraction(complex(c).real), Fraction(complex(c).imag))
             for e, c in terms.items()}
    denom = math.lcm(*(x.denominator for pair in parts.values() for x in pair))
    base = {e: (int(a * denom), int(b * denom)) for e, (a, b) in parts.items()}
    acc = {0: (1, 0)}
    for k in range(1, k_max + 1):
        nxt: dict[int, tuple[int, int]] = {}
        for e1, (a, b) in acc.items():
            for e2, (c, d) in base.items():
                re, im = nxt.get(e1 + e2, (0, 0))
                nxt[e1 + e2] = (re + a * c - b * d, im + a * d + b * c)
        acc = nxt
        yield denom**k, acc


def gaussian_cst_powers(terms: dict[int, complex],
                        k_max: int) -> list[tuple[Fraction, Fraction]]:
    """(Re, Im) of the constant term of f^k, exactly, for k = 0 .. k_max,
    read from `gaussian_power_rows`."""
    out = [(Fraction(1), Fraction(0))]
    for dk, row in gaussian_power_rows(terms, k_max):
        re, im = row.get(0, (0, 0))
        out.append((Fraction(re, dk), Fraction(im, dk)))
    return out


def normalized(v: WeightedVector) -> WeightedVector:
    return v.normalized()


def kl_divergence(p, q) -> float:
    """D(p||q) in nats with the usual 0 log 0 = 0 convention."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            if qi <= 0:
                return math.inf
            total += pi * math.log(pi / qi)
    return total


def quantum_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """tr rho (log rho - log sigma), +inf when rho leaves sigma's support."""
    pe, pv = np.linalg.eigh(rho)
    qe, qv = np.linalg.eigh(sigma)
    support = sum(np.outer(v, v.conj()) for x, v in zip(pe, pv.T) if x > 1e-12)
    sig_supp = sum(np.outer(v, v.conj()) for x, v in zip(qe, qv.T) if x > 1e-12)
    leak = support @ (np.eye(len(pe)) - sig_supp)
    if np.linalg.norm(leak) > 1e-9:
        return math.inf
    log_r = sum(math.log(x) * np.outer(v, v.conj())
                for x, v in zip(pe, pv.T) if x > 1e-12)
    log_s = sum(math.log(x) * np.outer(v, v.conj())
                for x, v in zip(qe, qv.T) if x > 1e-12)
    return float(np.trace(rho @ (log_r - log_s)).real)


def random_density_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def torus_integrand(W, q, k: int, lam, x: np.ndarray) -> np.ndarray:
    """The torus Monte Carlo integrand (sum_w q_w e^{i<w, x>})^k e^{-i<lam, x>}
    at the draws x (one row each), with one cos and one sin of <w, x> per
    weight; lam None reads as 0."""
    re = np.zeros(len(x))
    im = np.zeros(len(x))
    for w, qw in zip(W, q):
        t = x @ np.array(w, dtype=float)
        re += qw * np.cos(t)
        im += qw * np.sin(t)
    z = (re + 1j * im) ** k
    if lam is not None:
        t = x @ np.array(lam, dtype=float)
        z *= np.cos(t) - 1j * np.sin(t)
    return z
