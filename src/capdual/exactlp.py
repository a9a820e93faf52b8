"""Exact linear programming over the rationals.

A dense two-phase tableau simplex with Bland's anti-cycling rule, used for
moment-polytope membership and minimal-face detection. Problem sizes here are
tiny (a handful of constraints and variables), so clarity and exactness win
over sparsity. Certificates are verified exactly before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["LPResult", "simplex_max"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    # Farkas certificate for infeasibility of {Ax = b, x >= 0}:
    # y with y^T A <= 0 componentwise and y^T b > 0.
    farkas: list[Fraction] | None = None


def _pivot(T: list[list[Fraction]], zrow: list[Fraction], basis: list[int],
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


def _run_simplex(T: list[list[Fraction]], zrow: list[Fraction],
                 basis: list[int], ncols: int) -> str:
    """Maximize with reduced costs in zrow (enter where zrow < 0). Bland's rule."""
    while True:
        enter = -1
        for j in range(ncols):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(len(T)):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, zrow, basis, leave, enter)


def _make_zrow(T: list[list[Fraction]], basis: list[int],
               cost: list[Fraction], ncols: int) -> tuple[list[Fraction], Fraction]:
    zrow = []
    for j in range(ncols + 1):
        v = sum((cost[basis[i]] * T[i][j] for i in range(len(T))), _ZERO)
        if j < ncols:
            v -= cost[j]
        zrow.append(v)
    zval = zrow.pop()
    zrow.append(_ZERO)  # placeholder for rhs column alignment in _pivot
    return zrow, zval


def simplex_max(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]],
                b: Sequence[Fraction]) -> LPResult:
    """Maximize c.x subject to A x = b, x >= 0, everything exact Fractions."""
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    # Sign-adjust rows so the right hand side is nonnegative.
    signs = [(-_ONE if b[i] < 0 else _ONE) for i in range(m)]
    T = [[signs[i] * Fraction(A[i][j]) for j in range(n)] for i in range(m)]
    bb = [signs[i] * Fraction(b[i]) for i in range(m)]

    # Phase 1: append artificial identity columns and drive their sum to zero.
    ncols = n + m
    for i in range(m):
        T[i].extend(_ONE if j == i else _ZERO for j in range(m))
        T[i].append(bb[i])
    basis = [n + i for i in range(m)]
    cost1 = [_ZERO] * n + [-_ONE] * m
    zrow, _ = _make_zrow(T, basis, cost1, ncols)
    status = _run_simplex(T, zrow, basis, ncols)
    if status != "optimal":
        raise RuntimeError(f"phase 1 ended {status}, but it is always bounded")
    art_value = sum((T[i][-1] for i in range(m) if basis[i] >= n), _ZERO)

    if art_value > 0:
        # Infeasible; extract the Farkas vector from the multipliers.
        # zrow over artificial column i equals y_i + 1 where y = c_B B^{-1}.
        y_adj = [zrow[n + i] - 1 for i in range(m)]
        y = [-(signs[i] * y_adj[i]) for i in range(m)]
        for j in range(n):
            col = sum((y[i] * Fraction(A[i][j]) for i in range(m)), _ZERO)
            if col > 0:
                raise RuntimeError("Farkas certificate failed column check")
        if sum((y[i] * Fraction(b[i]) for i in range(m)), _ZERO) <= 0:
            raise RuntimeError("Farkas certificate failed objective check")
        return LPResult(status="infeasible", farkas=y)

    # Drive any residual artificial variables out of the basis.
    rows_to_drop = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if T[i][j] != 0), -1)
            if piv < 0:
                rows_to_drop.append(i)
            else:
                _pivot(T, zrow, basis, i, piv)
    for i in sorted(rows_to_drop, reverse=True):
        del T[i]
        del basis[i]

    # Phase 2 on the real columns only.
    for row in T:
        del row[n:n + m]
    ncols = n
    cost2 = [Fraction(cj) for cj in c]
    zrow, _ = _make_zrow(T, basis, cost2, ncols)
    status = _run_simplex(T, zrow, basis, ncols)
    if status == "unbounded":
        return LPResult(status="unbounded")

    x = [_ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    for i in range(m):
        lhs = sum((Fraction(A[i][j]) * x[j] for j in range(n)), _ZERO)
        if lhs != Fraction(b[i]):
            raise RuntimeError("primal solution failed exact feasibility check")
    if any(v < 0 for v in x):
        raise RuntimeError("primal solution failed nonnegativity")
    obj = sum((Fraction(c[j]) * x[j] for j in range(n)), _ZERO)
    return LPResult(status="optimal", x=x, objective=obj)
