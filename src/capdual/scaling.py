"""Matrix scaling and generalized permanents.

The (r,c)-scaling instance of the capacity duality: Sinkhorn iteration toward
prescribed margins, the (r,c)-capacity via the torus solver on the weight
system {e_i + e_j}, exact contingency-table permanents, and the report that
compares (k! perm_{kr,kc})^{1/k} against cap^2 together with the classic
permanent sandwich for uniform margins. Whether (r,c) is reachable on supp(M)
at all is decided once, by the face search below: the product plan r c^T
proves it when it is positive exactly on supp(M), and otherwise the
capacity's exact membership LP on `exactlp` decides it. Only when (r,c) is
unreachable does one exact max-flow LP run, whose optimum yields the Hall
blocking set that certifies it.

When (r,c) is reachable only in the limit, that is when its minimal face
(found exactly by the capacity's face search) is smaller than supp(M), plain
Sinkhorn's marginal error decays like 1/(2t) in t sweeps. Sinkhorn then
scales M restricted to the face, where it converges linearly, and drives the
off-face entries below tol along an exact face normal, the move
`theta_capacity` makes on the torus side, before a polish of plain sweeps.
Instances whose face is all of supp(M) run the plain sweeps alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .capacity import CapacityResult, _face_search, theta_capacity
from .core import (ConvergenceReport, LogValue, WeightVector, WeightedVector,
                   as_fraction, fraction_log, rational_vector)
from .exactlp import simplex_max

__all__ = [
    "ScalingState",
    "SinkhornResult",
    "sinkhorn_scale",
    "rc_capacity",
    "rc_capacity_result",
    "rc_weighted_vector",
    "PermExact",
    "perm_rc_exact",
    "perm_dual_report",
]

TABLE_BUDGET = 10**7
DEFAULT_MAX_ITER = 200_000_000


@dataclass(frozen=True)
class ScalingState:
    """A nonnegative matrix with target margins and the current scaling.

    The scaled matrix is diag(x) M diag(y); r and c are exact rationals
    summing to one on each side.
    """

    M: np.ndarray
    r: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    x: np.ndarray = field(default=None)  # type: ignore[assignment]
    y: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        M = np.array(self.M, dtype=float)
        if M.ndim != 2 or M.size == 0:
            raise ValueError("M must be a nonempty 2-d matrix")
        if np.any(M < 0) or not np.all(np.isfinite(M)):
            raise ValueError("M entries must be finite and nonnegative")
        n, m = M.shape
        r = tuple(as_fraction(t) for t in self.r)
        c = tuple(as_fraction(t) for t in self.c)
        if len(r) != n or len(c) != m:
            raise ValueError("margin lengths must match the matrix shape")
        if any(t < 0 for t in r + c):
            raise ValueError("margins must be nonnegative")
        if sum(r) != 1 or sum(c) != 1:
            raise ValueError("row and column margins must each sum to 1")
        x = np.ones(n) if self.x is None else np.array(self.x, dtype=float)
        y = np.ones(m) if self.y is None else np.array(self.y, dtype=float)
        if x.shape != (n,) or y.shape != (m,) or np.any(x < 0) or np.any(y < 0):
            raise ValueError("x, y must be nonnegative vectors of matching shape")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def scaled(self) -> np.ndarray:
        return self.x[:, None] * self.M * self.y[None, :]

    def marginal_error(self) -> float:
        S = self.scaled
        r = np.array([float(t) for t in self.r])
        c = np.array([float(t) for t in self.c])
        return float(np.abs(S.sum(axis=1) - r).sum() + np.abs(S.sum(axis=0) - c).sum())


@dataclass(frozen=True)
class SinkhornResult:
    """How Sinkhorn ended. marginal_error is recomputed from the returned x
    and y, and status is "converged" exactly when it is at most tol.
    iterations counts every sweep, those on the face included. off_face
    lists the support entries (i, j) that every plan with margins (r, c) on
    supp(M) leaves at 0, so the scaling drives them to 0; it is empty when
    the minimal face of (r, c) is all of supp(M), and on unscalable input.
    """

    state: ScalingState
    status: str  # converged | max_iter | certified-unscalable
    iterations: int
    marginal_error: float
    certificate: dict | None = None
    off_face: tuple[tuple[int, int], ...] = ()


# ---------------------------------------------------------------------------
# Exact feasibility of the support pattern: the margins (r,c) are achievable
# by a nonnegative matrix supported on supp(M) iff the exact LP
#   max sum B_ij  s.t.  sum_j B_ij + s_i = r_i,  sum_i B_ij + t_j = c_j,
# with one column per support entry and a slack per row and per column, has
# optimum 1. The optimum is the bipartite max flow. Short of 1, the rows and
# columns reachable from the rows with slack (a row reaches its support
# columns, a column reaches the rows that send it mass) are the source side
# of the minimal min cut, the same for every maximum flow.

def _unscalable_certificate(state: ScalingState) -> dict | None:
    """None when the margins are achievable on supp(M); otherwise a Hall-type
    blocking set of rows whose mass exceeds that of every column they meet."""
    n, m = state.M.shape
    support = [(int(i), int(j)) for i, j in zip(*np.nonzero(state.M > 0))]
    A = [[int(i == a) for a, _ in support] + [int(i == a) for a in range(n)] + [0] * m
         for i in range(n)]
    A += [[int(j == b) for _, b in support] + [0] * n + [int(j == b) for b in range(m)]
          for j in range(m)]
    lp = simplex_max([1] * len(support) + [0] * (n + m), A, [*state.r, *state.c])
    if lp.objective == 1:
        return None
    rows = {i for i in range(n) if lp.x[len(support) + i] > 0}
    cols: set[int] = set()
    while True:
        new_cols = {j for i, j in support if i in rows} - cols
        if not new_cols:
            break
        cols |= new_cols
        rows |= {i for (i, j), b in zip(support, lp.x) if j in new_cols and b > 0}
    rows, cols = sorted(rows), sorted(cols)
    row_mass = sum((state.r[i] for i in rows), Fraction(0))
    col_mass = sum((state.c[j] for j in cols), Fraction(0))
    if row_mass <= col_mass:  # min cut of a flow strictly below 1
        raise RuntimeError("Hall blocking set failed its mass check")
    return {
        "rows": rows,
        "cols": cols,
        "row_mass": row_mass,
        "col_mass": col_mass,
        "deficiency": 1 - lp.objective,
    }


# ---------------------------------------------------------------------------
# Sinkhorn kernel. Plain sweeps on a boundary instance have a marginal error
# that decays like 1/(2t): the 2 x 2 triangular instance needs ~5e7 sweeps
# for tol 1e-8, so `sinkhorn_scale` runs the kernel there only on the face
# and for a polish. The loop runs on Python lists: indexing numpy arrays one
# scalar at a time costs several times more. Each row and column is summed
# once a sweep: the row sums of the stop test are the divisors of the next
# row step, and each column residual reuses the sum its column step just
# took.

def _sinkhorn_kernel(M, r, c, x, y, tol, max_iter):
    rows = [(i, float(ri), list(enumerate(row)))
            for i, (ri, row) in enumerate(zip(r, M.tolist()))]
    cols = [(j, float(cj), list(enumerate(col)))
            for j, (cj, col) in enumerate(zip(c, M.T.tolist()))]
    s = [0.0] * len(rows)
    for i, _, row in rows:
        for j, a in row:
            s[i] += a * y[j]
    res = [0.0] * len(cols)
    err = math.inf
    it = 0
    while it < max_iter:
        it += 1
        for i, ri, _ in rows:
            x[i] = ri / s[i] if s[i] > 0 else 0.0
        for j, cj, col in cols:
            t = 0.0
            for i, a in col:
                t += a * x[i]
            y[j] = cj / t if t > 0 else 0.0
            res[j] = abs(y[j] * t - cj)
        err = 0.0
        for i, ri, row in rows:
            si = 0.0
            for j, a in row:
                si += a * y[j]
            s[i] = si
            err += abs(x[i] * si - ri)
        for e in res:
            err += e
        if err <= tol:
            break
    return x, y, it, err


# ---------------------------------------------------------------------------
# Face-aware start. A scalable (r,c) whose minimal face is smaller than
# supp(M) is scalable only in the limit: every plan with margins (r,c) on
# supp(M) vanishes off the face. M restricted to the face is exactly
# scalable, so plain sweeps there converge linearly. An exact normal (ell,
# gamma) of the face, ell = (a, b), has a_i + b_j = gamma on the face and
# a_i + b_j <= gamma - 1 off it, so x_i e^{t(a_i - gamma)}, y_j e^{t b_j}
# keeps the face entries and shrinks the others by at least e^-t: the limit
# is reached along t instead of along 1/(2t) sweeps.

def _rc_weight(n: int, m: int, i: int, j: int) -> WeightVector:
    """e_i + e_{n+j} in Z^{n+m}, the weight of entry (i, j)."""
    coords = [0] * (n + m)
    coords[i] = 1
    coords[n + j] = 1
    return WeightVector(tuple(coords))


def _rc_face(state: ScalingState
             ) -> tuple[list[tuple[int, int]], tuple[int, ...], tuple | None]:
    """The support entries of M, the indices of those on the minimal face of
    (r, c), empty exactly when (r, c) is unreachable on supp(M), and the
    face normal of the face record. When the product plan r c^T is positive
    exactly on supp(M) the face is the whole support, no LP runs and the
    normal is None."""
    pos = state.M > 0
    n, m = pos.shape
    entries = [(int(i), int(j)) for i, j in zip(*np.nonzero(pos))]
    if np.array_equal(pos, np.outer([t > 0 for t in state.r], [t > 0 for t in state.c])):
        return entries, tuple(range(len(entries))), None
    face = _face_search(tuple(_rc_weight(n, m, i, j) for i, j in entries),
                        (*state.r, *state.c))
    return entries, face.face, face.normal


def _face_start(state: ScalingState, entries, face, normal, tol: float, max_iter: int
                ) -> tuple[list[float], list[float], int]:
    """Scale M restricted to the face to tol/4, then push the off-face
    entries down along the face normal by the smallest t in 0, 1, 2, 4, ...
    that leaves them less than tol/4 of scaled mass. Returns x, y and the
    sweeps taken. When no t meets that before x or y leaves the float range
    (always so at tol 0), the face scaling is returned unpushed and the
    polish sweeps start from it."""
    M = state.M
    n = M.shape[0]
    on = np.zeros(M.shape, dtype=bool)
    on[tuple(zip(*(entries[k] for k in face)))] = True
    x, y, it, _ = _sinkhorn_kernel(np.where(on, M, 0.0), state.r, state.c, state.x.tolist(),
                                   state.y.tolist(), tol / 4, max_iter)
    ell, gamma = normal
    u = np.array([float(a - gamma) for a in ell[:n]])
    v = np.array([float(b) for b in ell[n:]])
    rows, cols = np.nonzero((M > 0) & ~on)
    x, y = np.array(x), np.array(y)
    with np.errstate(all="ignore"):
        for t in (0, *(2 ** k for k in range(11))):
            xt, yt = x * np.exp(t * u), y * np.exp(t * v)
            if not (np.all(np.isfinite(xt) & ((xt > 0) == (x > 0)))
                    and np.all(np.isfinite(yt) & ((yt > 0) == (y > 0)))):
                break
            if float(np.sum(xt[rows] * M[rows, cols] * yt[cols])) < tol / 4:
                return xt.tolist(), yt.tolist(), it
    return x.tolist(), y.tolist(), it


def sinkhorn_scale(state: ScalingState, tol: float = 1e-8,
                   max_iter: int = DEFAULT_MAX_ITER) -> SinkhornResult:
    """Alternate row/column normalization of diag(x) M diag(y) toward (r,c).

    Stops when the combined l1 marginal error, recomputed from the returned
    x and y, is at most tol; status is "converged" then and "max_iter"
    otherwise. Margins that are unachievable on the support are detected
    exactly up front and returned as certified-unscalable with the blocking
    row set. Margins reachable only in the limit are scaled on their minimal
    face and pushed off it along an exact face normal before the plain
    sweeps; off_face lists the entries driven to 0. max_iter bounds all
    sweeps; with max_iter = 0 the untouched state is returned.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    if not tol >= 0:  # a NaN or negative tol is never met
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if not np.any(state.M > 0):
        raise ValueError("cannot scale the zero matrix")
    entries, face, normal = _rc_face(state)
    if not face:
        cert = _unscalable_certificate(state)
        if cert is None:
            raise RuntimeError("face search and max-flow LP disagree on scalability")
        return SinkhornResult(state, "certified-unscalable", 0,
                              state.marginal_error(), cert)
    tol, max_iter = float(tol), int(max_iter)
    on = set(face)
    off = tuple(e for k, e in enumerate(entries) if k not in on)
    x, y, it = state.x.tolist(), state.y.tolist(), 0
    if off and max_iter:
        x, y, it = _face_start(state, entries, face, normal, tol, max_iter)
    x, y, polish, _ = _sinkhorn_kernel(state.M, state.r, state.c, x, y, tol, max_iter - it)
    out = ScalingState(state.M, state.r, state.c, x, y)
    err = out.marginal_error()
    return SinkhornResult(out, "converged" if err <= tol else "max_iter", it + polish, err,
                          off_face=off)


# ---------------------------------------------------------------------------
# (r,c)-capacity through the torus solver: the matrix becomes the weighted
# vector sum_ij sqrt(M_ij) e_{i,j} with weight e_i + e_j in Z^{n+m} and the
# target theta = (r, c).

def rc_weighted_vector(M: np.ndarray) -> WeightedVector:
    M = np.asarray(M, dtype=float)
    n, m = M.shape
    return WeightedVector.from_terms(n + m, {
        _rc_weight(n, m, i, j): math.sqrt(M[i, j])
        for i in range(n) for j in range(m) if M[i, j] > 0})


def rc_capacity_result(M, r, c) -> CapacityResult:
    M = np.asarray(M, dtype=float)
    n, m = M.shape
    r = rational_vector(r, n)
    c = rational_vector(c, m)
    if sum(r) != 1 or sum(c) != 1:
        raise ValueError("row and column margins must each sum to 1")
    return theta_capacity(rc_weighted_vector(M), r + c)


def rc_capacity(M, r, c) -> LogValue:
    """cap^2 = inf_{x,y>0} sum_ij M_ij x_i y_j / (prod x_i^{r_i} prod y_j^{c_j}).

    Zero (sign 0) exactly when (r,c) lies outside the support polytope.
    """
    return rc_capacity_result(M, r, c).log_cap ** 2


# ---------------------------------------------------------------------------
# Exact generalized permanents: perm_{r,c}(M) = sum over contingency tables
# with the given integer margins of prod M_ij^{B_ij} / B_ij!.

@dataclass(frozen=True)
class PermExact:
    value: Fraction
    log_value: LogValue
    table_count: int


def _compositions(total: int, bounds: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _compositions(total - first, bounds[1:]):
            yield (first, *rest)


def perm_rc_exact(M, r: Sequence[int], c: Sequence[int],
                  budget: int = TABLE_BUDGET) -> PermExact:
    """Exact rational perm_{r,c}(M) with margins r (rows) and c (columns).

    One forward DP over remaining column sums carries, per state, the count
    and exact summed weight of the partial tables reaching it. Every partial
    fill extends to a full table, so the DP raises RuntimeError as soon as
    the partial tables it has met exceed the budget.
    """
    rows = [list(map(as_fraction, row)) for row in M]
    n = len(rows)
    m = len(rows[0]) if n else 0
    if any(len(row) != m for row in rows):
        raise ValueError("M must be rectangular")
    if any(v < 0 for row in rows for v in row):
        raise ValueError("M entries must be nonnegative")
    r = tuple(int(t) for t in r)
    c = tuple(int(t) for t in c)
    if len(r) != n or len(c) != m or any(t < 0 for t in r + c):
        raise ValueError("margins must be nonnegative integers matching M")
    if sum(r) != sum(c):
        raise ValueError(f"margin sums differ: {sum(r)} != {sum(c)}")

    @functools.cache
    def row_weight(i: int, comp: tuple[int, ...]) -> Fraction:
        w = Fraction(1)
        for j, b in enumerate(comp):
            if b:
                if rows[i][j] == 0:
                    return Fraction(0)
                w *= rows[i][j] ** b / math.factorial(b)
        return w

    # remaining column sums -> (partial tables, their summed weight)
    layer: dict[tuple[int, ...], tuple[int, Fraction]] = {c: (1, Fraction(1))}
    for i in range(n):
        nxt: dict[tuple[int, ...], tuple[int, Fraction]] = {}
        partials = 0
        for rem, (ways, weight) in layer.items():
            for comp in _compositions(r[i], rem):
                partials += ways
                if partials > budget:
                    raise RuntimeError(
                        "contingency-table enumeration needs more than "
                        f"{budget} tables, budget is {budget}")
                key = tuple(a - b for a, b in zip(rem, comp))
                count, acc = nxt.get(key, (0, Fraction(0)))
                nxt[key] = (count + ways, acc + weight * row_weight(i, comp))
        layer = nxt
    total_tables, value = layer.get((0,) * m, (0, Fraction(0)))
    lv = fraction_log(value) if value else LogValue.zero()
    return PermExact(value, lv, total_tables)


def perm_dual_report(M, r, c, k_max: int,
                     budget: int = TABLE_BUDGET) -> ConvergenceReport:
    """Rows of (k! perm_{kr,kc}(M))^{1/k} against cap^2 for k with integral
    scaled margins; the gap column is log cap^2 minus the k-th root in log
    scale and is nonnegative up to round-off.

    For square M with uniform r = c the metadata carries the permanent
    sandwich cap^{2n} n!/n^{2n} <= perm(M) <= cap^{2n}/n! evaluated exactly.
    """
    Mq = [[as_fraction(v) for v in row] for row in M]
    Mf = np.array([[float(v) for v in row] for row in Mq])
    n, m = Mf.shape
    r = rational_vector(r, n)
    c = rational_vector(c, m)
    cap = rc_capacity_result(Mf, r, c)
    log_cap_sq = 2.0 * cap.log_cap.log_mag if cap.log_cap.sign else -math.inf
    ell = math.lcm(*(t.denominator for t in r + c))

    rows = []
    for k in range(ell, k_max + 1, ell):
        rint = [int(t * k) for t in r]
        cint = [int(t * k) for t in c]
        pk = perm_rc_exact(Mq, rint, cint, budget=budget)
        scaled = math.factorial(k) * pk.value
        if scaled:
            log_val = fraction_log(scaled).log_mag
            root = math.exp(log_val / k)
            gap = log_cap_sq - log_val / k
        else:
            log_val, root, gap = -math.inf, 0.0, math.nan
        rows.append((k, log_val, root, log_cap_sq, gap))

    metadata: dict = {"r": r, "c": c, "period": ell, "capacity": cap}
    uniform = (n == m and set(r) == {Fraction(1, n)} and set(c) == {Fraction(1, n)})
    if uniform and cap.log_cap.sign:
        perm = perm_rc_exact(Mq, [1] * n, [1] * n, budget=budget).value
        cap_2n = math.exp(n * log_cap_sq)
        lower = cap_2n * math.factorial(n) / n ** (2 * n)
        upper = cap_2n / math.factorial(n)
        slack = 1e-9
        metadata["sandwich"] = {
            "lower": lower,
            "perm": perm,
            "upper": upper,
            "lower_holds": lower <= float(perm) * (1 + slack) + slack,
            "upper_holds": float(perm) <= upper * (1 + slack) + slack,
        }
    return ConvergenceReport(
        columns=("k", "log_kfact_perm", "root_value", "log_cap_sq", "gap"),
        rows=rows,
        metadata=metadata,
    )

