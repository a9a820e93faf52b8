"""Exact linear programming over the rationals, pivoting on integers.

A dense two-phase tableau simplex with Bland's anti-cycling rule, used for
moment-polytope membership and minimal-face detection. The tableau is
fraction-free, in the spirit of Edmonds (1967) and Bareiss (1968), but with
a gcd per row instead of a common divisor: each row is a list of Python
integers, a positive multiple of the row a `Fraction` tableau would hold,
divided by its gcd whenever a pivot changes it. A row of the rational
tableau has a 1 in its basic column, so the integer row's entry there is
its multiple. The reduced costs are integers over one positive denominator.
Bland's entering rule reads signs, and the ratio test cross-multiplies with
the same tie-break, so the pivots are exactly those of the `Fraction`
tableau.

The denominators of [A | b] are cleared once per [A | b]: the integer rows
L [A | b] are kept for the last [A | b] (`_cleared`), keyed on its values,
so the LPs of one face search, which share it, clear it once. Those of c
are cleared on every call. Ints and `Fraction`s are read through their
numerator and denominator, so an input of ints builds no `Fraction`. The
results are integers too: `LPResult` holds x, the objective, the duals and
the Farkas vector as integer numerators over one denominator each, and
builds its `Fraction` fields only when they are read.
The artificial columns of phase 1 stay in the tableau through phase 2,
where they never enter: the reduced costs over them are the dual solution,
as the phase-1 ones are the Farkas vector.

Phase 1 depends only on [A | b], so the tableau it leaves (artificials
driven out, or its checked Farkas vector) is kept for the last integer
[A | b] (`_phase1`), and an LP that shares [A | b] with the one before runs
only phase 2, on a copy of its rows. `LPResult.pivots` still counts phase 1
on every call, so a result depends on (c, A, b) alone.
Certificates are verified exactly, in integers, before being returned, and
a failed check raises `RuntimeError` (not `assert`, so it also runs under
`python -O`). Problem sizes here are tiny (a handful of constraints and
variables), so clarity and exactness win over sparsity.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["LPResult", "simplex_max"]


def _over(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den, den > 0, divided by gcd(den, *nums)."""
    g = math.gcd(den, *nums)
    return tuple(v // g for v in nums) if g > 1 else tuple(nums), den // g


@dataclass(frozen=True)
class LPResult:
    """The outcome of `simplex_max`: status "optimal", "infeasible" or
    "unbounded".

    Each vector is held as integer numerators over one positive
    denominator, reduced to lowest terms, so equal results compare equal:
    x = x_num / x_den, objective = obj_num / obj_den, duals = duals_num /
    duals_den and farkas = farkas_num / farkas_den. The `Fraction` fields
    x, objective, duals and farkas are built from them when first read;
    each is None when its numerators are. Every field after status is
    keyword-only. pivots counts phase 1, driving
    artificials out and phase 2, on every call, also when phase 1 came
    from the kept tableau.
    """

    status: str
    _: KW_ONLY
    pivots: int = 0
    # The optimal point and its value.
    x_num: tuple[int, ...] | None = None
    x_den: int = 1
    obj_num: int | None = None
    obj_den: int = 1
    # Optimal dual solution: y with y^T A >= c componentwise and
    # y^T b = objective, so y^T A_j = c_j wherever x_j > 0.
    duals_num: tuple[int, ...] | None = None
    duals_den: int = 1
    # Farkas certificate for infeasibility of {Ax = b, x >= 0}:
    # y with y^T A <= 0 componentwise and y^T b > 0.
    farkas_num: tuple[int, ...] | None = None
    farkas_den: int = 1

    @functools.cached_property
    def x(self) -> list[Fraction] | None:
        return None if self.x_num is None else [Fraction(v, self.x_den) for v in self.x_num]

    @functools.cached_property
    def objective(self) -> Fraction | None:
        return None if self.obj_num is None else Fraction(self.obj_num, self.obj_den)

    @functools.cached_property
    def duals(self) -> list[Fraction] | None:
        if self.duals_num is None:
            return None
        return [Fraction(v, self.duals_den) for v in self.duals_num]

    @functools.cached_property
    def farkas(self) -> list[Fraction] | None:
        if self.farkas_num is None:
            return None
        return [Fraction(v, self.farkas_den) for v in self.farkas_num]


def _combination(Y: Sequence[int], M: Sequence[Sequence[int]], width: int) -> list[int]:
    """Y^T M, the combination sum_i Y_i M_i of the rows, each width long."""
    out = [0] * width
    for y, row in zip(Y, M):
        if y:
            out = [a + y * v for a, v in zip(out, row)]
    return out


def _rational(v) -> int | Fraction:
    """v when it is an int or a Fraction (both carry numerator and
    denominator), else Fraction(v)."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _reduced(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _pivot(T: list[list[int]], basis: list[int], r: int, s: int) -> int:
    """Pivot on T[r][s] != 0 and return the pivot row's entry in column s,
    made positive (the row is negated when it was negative)."""
    row = T[r]
    p = row[s]
    if p < 0:
        row = T[r] = [-v for v in row]
        p = -p
    for i, other in enumerate(T):
        f = other[s]
        if f and i != r:
            T[i] = _reduced([p * a - f * v for a, v in zip(other, row)])
    basis[r] = s
    return p


def _run_simplex(T: list[list[int]], z: list[int], zden: int, basis: list[int],
                 ncols: int) -> tuple[str, list[int], int, int]:
    """Maximize with reduced costs z / zden (enter where z < 0, among the
    first ncols columns). Bland's rule.

    Returns (status, z, zden, pivots taken)."""
    pivots = 0
    while True:
        enter = next((j for j in range(ncols) if z[j] < 0), -1)
        if enter < 0:
            return "optimal", z, zden, pivots
        leave = -1
        for i, row in enumerate(T):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # row[-1] / a against the best ratio, both denominators positive.
                lhs = row[-1] * T[leave][enter]
                rhs = T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return "unbounded", z, zden, pivots
        p = _pivot(T, basis, leave, enter)
        f = z[enter]
        row = T[leave]
        z = [p * a - f * v for a, v in zip(z, row)]
        zden *= p
        g = math.gcd(zden, *z)
        if g > 1:
            z = [v // g for v in z]
            zden //= g
        pivots += 1


def _zrow(T: list[list[int]], basis: list[int], cost: list[int]) -> tuple[list[int], int]:
    """Reduced costs c_B B^{-1} A - c of integer costs, as (z, zden)."""
    rows = [(cost[bi], row[bi], row) for bi, row in zip(basis, T) if cost[bi]]
    zden = math.lcm(*[d for _, d, _ in rows])
    z = [-cj * zden for cj in cost]
    for cb, d, row in rows:
        f = cb * (zden // d)
        z = [a + f * v for a, v in zip(z, row)]
    g = math.gcd(zden, *z)
    return [v // g for v in z], zden // g


@functools.lru_cache(maxsize=1)
def _cleared(A: tuple[tuple, ...], b: tuple) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, L): the integer rows M = L [A | b], L the least common
    denominator of the entries. Keyed on the entries' values, a copy of the
    caller's rows, so an A edited in place between two calls is cleared
    again; the LPs of one face search share [A | b] and clear it once."""
    fr = [[_rational(v) for v in (*row, bi)] for row, bi in zip(A, b)]
    L = math.lcm(*[v.denominator for row in fr for v in row])
    return tuple(tuple(v.numerator * (L // v.denominator) for v in row) for row in fr), L


@functools.lru_cache(maxsize=1)
def _phase1(M: tuple[tuple[int, ...], ...], n: int, L: int
            ) -> tuple[tuple[int, ...], int, tuple[tuple[int, ...], int] | None,
                       tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Phase 1 on the integer rows M = L [A | b], n columns in A.

    Returns (signs, pivots, farkas, T, basis): the row signs that make the
    right hand side nonnegative, the pivots taken, and either the checked
    Farkas vector (Y, den), y = Y / den, or the tableau with the artificials
    driven out and its basis. The rows are tuples, so no phase 2 can write
    into the tableau kept for the next call with the same M.
    """
    m = len(M)
    # Sign-adjust rows so the right hand side is nonnegative, append
    # artificial identity columns and drive their sum to zero. Row i is L
    # times the rational row, so its artificial entry is L, not 1.
    signs = tuple(-1 if row[-1] < 0 else 1 for row in M)
    T = [_reduced([*(s * v for v in row[:n]), *(L if j == i else 0 for j in range(m)),
                   s * row[-1]])
         for i, (s, row) in enumerate(zip(signs, M))]
    basis = [n + i for i in range(m)]
    z, zden = _zrow(T, basis, [0] * n + [-1] * m)
    status, z, zden, pivots = _run_simplex(T, z, zden, basis, n + m)
    if status != "optimal":
        raise RuntimeError(f"phase 1 ended {status}, but it is always bounded")

    if any(row[-1] > 0 for row, bi in zip(T, basis) if bi >= n):
        # Infeasible; extract the Farkas vector from the multipliers.
        # z / zden over artificial column i equals y_i + 1 where y = c_B B^{-1},
        # so y = Y / zden, and y.A, y.b have the signs of Y.M.
        Y = [-s * (z[n + i] - zden) for i, s in enumerate(signs)]
        YM = _combination(Y, M, n + 1)
        if any(v > 0 for v in YM[:n]):
            raise RuntimeError("Farkas certificate failed column check")
        if YM[n] <= 0:
            raise RuntimeError("Farkas certificate failed objective check")
        return signs, pivots, _over(Y, zden), (), ()

    # Drive any residual artificial variables out of the basis.
    rows_to_drop = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if T[i][j] != 0), -1)
            if piv < 0:
                rows_to_drop.append(i)
            else:
                _pivot(T, basis, i, piv)
                pivots += 1
    for i in sorted(rows_to_drop, reverse=True):
        del T[i]
        del basis[i]
    return signs, pivots, None, tuple(map(tuple, T)), tuple(basis)


def simplex_max(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]],
                b: Sequence[Fraction]) -> LPResult:
    """Maximize c.x subject to A x = b, x >= 0, everything exact rationals
    (ints and Fractions as they are, anything else through Fraction())."""
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    # M = L [A | b] (kept for the last [A | b]) and C = cden c, with L and
    # cden common denominators.
    M, L = _cleared(tuple(map(tuple, A)), tuple(b))
    cf = [_rational(cj) for cj in c]
    cden = math.lcm(*[v.denominator for v in cf])
    C = [v.numerator * (cden // v.denominator) for v in cf]

    signs, pivots, farkas, T0, basis0 = _phase1(M, n, L)
    if farkas is not None:
        return LPResult(status="infeasible", pivots=pivots, farkas_num=farkas[0],
                        farkas_den=farkas[1])

    # Phase 2 with costs C = cden c, entering real columns only, on copies of
    # the kept rows. Over artificial column i, z / zden is s_i y_i with y the
    # dual solution of costs C, as in phase 1, so y = Y / (zden cden) for c.
    T = [list(row) for row in T0]
    basis = list(basis0)
    z, zden = _zrow(T, basis, [*C, *[0] * m])
    status, z, zden, phase2 = _run_simplex(T, z, zden, basis, n)
    pivots += phase2
    if status == "unbounded":
        return LPResult(status="unbounded", pivots=pivots)

    # x = X / xden; row i gives x at its basic column as rhs / T[i][basis[i]].
    xden = math.lcm(*[row[bi] for row, bi in zip(T, basis)])
    X = [0] * n
    for row, bi in zip(T, basis):
        X[bi] = row[-1] * (xden // row[bi])
    for row in M:
        if sum(map(operator.mul, row, X)) != row[-1] * xden:
            raise RuntimeError("primal solution failed exact feasibility check")
    if any(v < 0 for v in X):
        raise RuntimeError("primal solution failed nonnegativity")
    # y^T A >= c and y^T b = c^T x, times L zden cden (and xden), as M = L A.
    Y = [s * z[n + i] for i, s in enumerate(signs)]
    YM = _combination(Y, M, n + 1)
    CX = sum(map(operator.mul, C, X))
    if any(a < cj * zden * L for a, cj in zip(YM, C)):
        raise RuntimeError("dual solution failed its feasibility check")
    if YM[n] * xden != CX * zden * L:
        raise RuntimeError("dual solution failed its objective check")
    x_num, x_den = _over(X, xden)
    duals_num, duals_den = _over(Y, zden * cden)
    g = math.gcd(CX, cden * xden)
    return LPResult(status="optimal", pivots=pivots, x_num=x_num, x_den=x_den,
                    obj_num=CX // g, obj_den=cden * xden // g, duals_num=duals_num,
                    duals_den=duals_den)
