import math
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from capdual import exactlp
from capdual.exactlp import simplex_max
from util import fraction_simplex_max

F = Fraction


def test_simple_optimal():
    # max x1 + x2 s.t. x1 + x2 = 1, x >= 0: any vertex gives 1
    res = simplex_max([F(1), F(1)], [[F(1), F(1)]], [F(1)])
    assert res.status == "optimal"
    assert res.objective == 1
    assert sum(res.x) == 1


def test_vertex_selection():
    # max 2 x1 + x2 on the same simplex: optimum at e1
    res = simplex_max([F(2), F(1)], [[F(1), F(1)]], [F(1)])
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.x == [F(1), F(0)]


def test_infeasible_with_farkas():
    # x1 = 1 and x1 = 2 cannot both hold
    res = simplex_max([F(0)], [[F(1)], [F(1)]], [F(1), F(2)])
    assert res.status == "infeasible"
    y = res.farkas
    assert y is not None
    # y^T A <= 0, y^T b > 0 certifies infeasibility
    assert y[0] + y[1] <= 0
    assert y[0] + 2 * y[1] > 0


def test_infeasible_negative_rhs_under_nonnegativity():
    res = simplex_max([F(0), F(0)], [[F(1), F(1)]], [F(-1)])
    assert res.status == "infeasible"


def test_unbounded():
    # max x1 with only x1 - x2 = 0: ray (t, t) is feasible
    res = simplex_max([F(1), F(0)], [[F(1), F(-1)]], [F(0)])
    assert res.status == "unbounded"


def test_degenerate_equalities():
    # duplicated constraint rows must not confuse the phase-1 basis
    res = simplex_max([F(1), F(3)],
                      [[F(1), F(1)], [F(1), F(1)], [F(0), F(1)]],
                      [F(1), F(1), F(1, 2)])
    assert res.status == "optimal"
    assert res.x == [F(1, 2), F(1, 2)]
    assert res.objective == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_membership_lp_agrees_with_float_solver(seed):
    """Feasibility of {Ax = b, x >= 0} checked against numpy least squares
    on random small instances built to be feasible by construction."""
    rng = np.random.default_rng(seed)
    m, n = 2, 4
    A = [[F(int(rng.integers(-3, 4))) for _ in range(n)] for _ in range(m)]
    x_true = [F(int(rng.integers(0, 5))) for _ in range(n)]
    b = [sum(A[i][j] * x_true[j] for j in range(n)) for i in range(m)]
    res = simplex_max([F(0)] * n, A, b)
    assert res.status == "optimal"
    # verify the returned point exactly
    for i in range(m):
        assert sum(A[i][j] * res.x[j] for j in range(n)) == b[i]
    assert all(xj >= 0 for xj in res.x)


def _rational(rng, lo: int, hi: int, max_den: int) -> Fraction:
    return F(int(rng.integers(lo, hi + 1)), int(rng.integers(1, max_den + 1)))


def _general_lp(rng):
    """Random small LP: any status, negative and rational right hand sides
    with denominators up to 10^4, sometimes no constraints at all."""
    m, n = int(rng.integers(0, 5)), int(rng.integers(1, 7))
    A = [[_rational(rng, -3, 3, 3) for _ in range(n)] for _ in range(m)]
    b = [_rational(rng, -9, 9, 10**4) for _ in range(m)]
    c = [F(int(rng.integers(-2, 3))) for _ in range(n)]
    return c, A, b


def _feasible_lp(rng, redundant: bool):
    """b = A x0 with x0 >= 0; redundant adds a duplicated row, a sign-flipped
    copy or a sum of two rows. With rank(A) < m some artificial stays basic
    at zero after phase 1 with an all-zero real row, so its row is dropped."""
    m, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
    A = [[F(int(rng.integers(-3, 4))) for _ in range(n)] for _ in range(m)]
    x0 = [_rational(rng, 0, 5, 10**4) if rng.random() < 0.7 else F(0) for _ in range(n)]
    b = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in A]
    if redundant:
        for _ in range(int(rng.integers(1, 3))):
            i, k = (int(v) for v in rng.integers(0, len(A), size=2))
            kind = int(rng.integers(0, 3))
            if kind == 0:
                row, rhs = list(A[i]), b[i]
            elif kind == 1:
                row, rhs = [-a for a in A[i]], -b[i]
            else:
                row, rhs = [a + a2 for a, a2 in zip(A[i], A[k])], b[i] + b[k]
            pos = int(rng.integers(0, len(A) + 1))
            A.insert(pos, row)
            b.insert(pos, rhs)
    c = [F(int(rng.integers(-3, 4))) for _ in range(n)]
    return c, A, b


def _face_lp(rng):
    """Shaped like capacity._face_search: weight coordinates over a
    sum-to-one row, theta inside or outside the hull, 0/1 costs."""
    n, s = int(rng.integers(1, 4)), int(rng.integers(2, 8))
    ws = [tuple(int(v) for v in rng.integers(-2, 3, size=n)) for _ in range(s)]
    coeffs = [int(rng.integers(0, 6)) for _ in range(s)]
    if not any(coeffs):
        coeffs[0] = 1
    theta = [F(sum(cf * w[i] for cf, w in zip(coeffs, ws)), sum(coeffs)) for i in range(n)]
    if rng.random() < 0.25:
        theta[0] += F(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    A = [[w[i] for w in ws] for i in range(n)] + [[1] * s]
    b = [*theta, F(1)]
    c = [int(rng.integers(0, 2)) for _ in range(s)]
    return c, A, b


def test_integer_tableau_matches_fraction_tableau():
    """simplex_max returns what the Fraction-tableau oracle returns, to the
    last pivot, on 600 seeded LPs of every shape the library meets."""
    rng = np.random.default_rng(20260)
    lps = ([_general_lp(rng) for _ in range(250)]
           + [_feasible_lp(rng, redundant=False) for _ in range(80)]
           + [_feasible_lp(rng, redundant=True) for _ in range(120)]
           + [_face_lp(rng) for _ in range(150)])
    seen = Counter()
    for c, A, b in lps:
        got = _matches_oracle(c, A, b)
        seen[got.status] += 1
        seen["m = 0"] += not A
        seen["negative b"] += any(bi < 0 for bi in b)
    assert min(seen[k] for k in ("optimal", "infeasible", "unbounded",
                                 "m = 0", "negative b")) >= 20, seen


def _matches_oracle(c, A, b):
    """simplex_max(c, A, b), checked against the Fraction-tableau oracle to
    the last pivot, its dual solution checked exactly."""
    got, want = simplex_max(c, A, b), fraction_simplex_max(c, A, b)
    assert (got.status, got.x, got.objective, got.farkas, got.pivots) == (
        want.status, want.x, want.objective, want.farkas, want.pivots), (c, A, b)
    if got.status == "optimal":
        y = got.duals
        assert all(sum((yi * row[j] for yi, row in zip(y, A)), F(0)) >= c[j]
                   for j in range(len(c))), (c, A, b)
        assert sum((yi * bi for yi, bi in zip(y, b)), F(0)) == got.objective, (c, A, b)
    else:
        assert got.duals is None
    return got


def test_phase1_memo_alternating_lps():
    """The kept phase 1 serves only the [A | b] it was built for: LPs that
    share A but not b alternate with LPs that share [A | b] but not c, on
    integer and on rational input, and each answers as the oracle does."""
    rng = np.random.default_rng(31)
    hits = exactlp._phase1.cache_info().hits
    seen = Counter()
    for trial in range(60):
        c1, A, b1 = _face_lp(rng) if trial % 2 else _feasible_lp(rng, redundant=trial % 3 == 0)
        b2 = [bi + int(d) for bi, d in zip(b1, rng.choice([-1, 1], size=len(b1)))]
        if trial % 4 == 1:  # the integer path: clear b's denominators
            den = math.lcm(*[F(bi).denominator for bi in (*b1, *b2)])
            b1, b2 = [int(bi * den) for bi in b1], [int(bi * den) for bi in b2]
        c2 = [int(rng.integers(-2, 3)) for _ in c1]
        for c, b in ((c1, b1), (c2, b1), (c1, b2), (c2, b1), (c2, b2), (c1, b2)):
            seen[_matches_oracle(c, A, b).status] += 1
    # each trial runs phase 1 for (A, b1), (A, b2), (A, b1) and (A, b2)
    assert exactlp._phase1.cache_info().hits - hits == 2 * 60
    assert min(seen[k] for k in ("optimal", "infeasible", "unbounded")) >= 10, seen


def test_cleared_rows_follow_the_values_of_a_b():
    """[A | b] is cleared once for the LPs that share it (`_cleared`, keyed
    on its values): face LPs with a rational theta alternate with face LPs
    with an integral one, an equal copy of the lists reuses the cleared
    rows, and a list A edited in place between two calls is cleared again,
    with no stale rows. Each LP answers as the oracle does."""
    rng = np.random.default_rng(67)
    seen = Counter()
    for trial in range(60):
        c, A, b = _face_lp(rng)
        c2 = [1 - cj for cj in c]
        b_int = [math.floor(t) + 1 for t in b[:-1]] + [1]  # an integral theta, not b's
        hits, misses = exactlp._cleared.cache_info()[:2]
        _matches_oracle(c, A, b)
        _matches_oracle(c2, A, b)  # the same [A | b]: a hit
        _matches_oracle(c, A, b_int)
        seen[_matches_oracle(c2, [row[:] for row in A], list(b_int)).status] += 1  # equal copies: a hit
        A[0][0] += 1  # in place: the next call must clear the edited rows
        seen[_matches_oracle(c, A, b_int).status] += 1
        assert exactlp._cleared.cache_info()[:2] == (hits + 2, misses + 3)
    assert min(seen[k] for k in ("optimal", "infeasible")) >= 10, seen


def test_pivots_counts_both_phases():
    # phase 1 pivots x1 in for the artificial; phase 2 is already optimal
    assert simplex_max([F(2), F(1)], [[F(1), F(1)]], [F(1)]).pivots == 1
    # phase 1 pivots x1 in; phase 2 then swaps x1 for x2
    assert simplex_max([F(1), F(3)], [[F(3), F(1)]], [F(1)]).pivots == 2
    # the duplicated row keeps its artificial, which cannot be driven out
    assert simplex_max([F(1), F(3)], [[F(1), F(1)], [F(1), F(1)]],
                       [F(1), F(1)]).pivots == 2
    assert simplex_max([F(1)], [], []).pivots == 0


def _run_O(code: str) -> str:
    """The standard output of code run by `python -O`, checked to be -O."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert "debug False" in out
    return out


def test_certificate_checks_survive_python_O():
    """Corrupt the kernel's solution, its Farkas multipliers and its dual
    solution, and the solutions the face search averages, under -O: the
    exact checks must still raise."""
    code = textwrap.dedent("""
        from fractions import Fraction as F
        from capdual import exactlp
        real = exactlp._run_simplex
        print("debug", __debug__)

        def shift_solution(T, z, zden, basis, ncols):
            out = real(T, z, zden, basis, ncols)
            if ncols < len(z):  # phase 2: move x at row 0's basic column by 1
                T[0][-1] += T[0][basis[0]]
            return out

        def flip_farkas(T, z, zden, basis, ncols):
            status, z, zden, pivots = real(T, z, zden, basis, ncols)
            return status, [2 * zden - v for v in z], zden, pivots

        def lower_duals(T, z, zden, basis, ncols):
            status, z, zden, pivots = real(T, z, zden, basis, ncols)
            if ncols < len(z):  # phase 2: lower each dual y_i by 1
                z = [*z[:ncols], *(v - zden for v in z[ncols:])]
            return status, z, zden, pivots

        for name, patch, lp in (
                ("solution", shift_solution, ([F(1), F(1)], [[F(1), F(1)]], [F(1)])),
                ("farkas", flip_farkas, ([F(0)], [[F(1)], [F(1)]], [F(1), F(2)])),
                ("duals", lower_duals, ([F(1), F(1)], [[F(1), F(1)]], [F(1)]))):
            exactlp._run_simplex = patch
            try:
                print(name, "returned", exactlp.simplex_max(*lp).status)
            except RuntimeError as exc:
                print(name, "raised", exc)
        exactlp._run_simplex = real

        import dataclasses
        from capdual import capacity
        from capdual.core import WeightVector
        solve = capacity.simplex_max
        def doubled(c, A, b):  # the face search reads the numerators of x
            res = solve(c, A, b)
            return dataclasses.replace(res, x_num=tuple(2 * p for p in res.x_num))
        capacity._face_search.cache_clear()
        capacity.simplex_max = doubled
        try:
            capacity._face_search(tuple(WeightVector((j,)) for j in range(3)), (F(1),))
            print("face returned")
        except RuntimeError as exc:
            print("face raised", exc)
    """)
    out = _run_O(code)
    assert "solution raised primal solution failed exact feasibility check" in out
    assert "farkas raised Farkas certificate failed" in out
    assert "duals raised dual solution failed its feasibility check" in out
    assert "face raised face interior point failed its feasibility check" in out


def test_chart_check_survives_python_O():
    """Under -O, a Hermite basis that does not span the face weights (a
    pivot doubled, a column dropped) makes the chart's exact check raise."""
    code = textwrap.dedent("""
        from fractions import Fraction as F
        from capdual import capacity
        from capdual.core import WeightVector
        real = capacity._column_hnf
        print("debug", __debug__)

        def doubled(cols):
            out = real(cols)
            out[0] = [2 * x for x in out[0]]
            return out

        def dropped(cols):
            return real(cols)[:-1]

        for name, patch, weights, theta in (
                ("doubled", doubled, [(0,), (1,), (2,)], (F(1),)),
                ("dropped", dropped, [(0, 0), (1, 0), (0, 1), (1, 1)], (F(1, 2), F(1, 2)))):
            capacity._column_hnf = patch
            capacity._face_search.cache_clear()
            try:
                capacity._face_search(tuple(map(WeightVector, weights)), theta)
                print(name, "returned")
            except RuntimeError as exc:
                print(name, "raised", exc)
    """)
    out = _run_O(code)
    assert "doubled raised lattice chart failed its check" in out
    assert "dropped raised lattice chart failed its check" in out


def test_phase1_memo_survives_a_phase2_that_writes_its_tableau():
    """Under -O, a phase 2 that moves x in its own tableau runs twice on one
    [A | b], once with no phase-2 pivot (its rows are the copies of the kept
    ones) and once with one; both raise. An unpatched call on that [A | b]
    then answers as the oracle does: no write reached the kept phase 1."""
    lps = [([2, 1], [[1, 1]], [1]), ([1, 3], [[3, 1]], [1]),
           ([F(1), F(3)], [[F(3), F(1)]], [F(1)])]
    code = textwrap.dedent("""
        from fractions import Fraction
        from capdual import exactlp
        real = exactlp._run_simplex
        print("debug", __debug__)

        def shift_solution(T, z, zden, basis, ncols):
            out = real(T, z, zden, basis, ncols)
            if ncols < len(z):  # phase 2: move x at row 0's basic column by 1
                T[0][-1] += T[0][basis[0]]
            return out

        for lp in LPS:
            exactlp._run_simplex = shift_solution
            for _ in range(2):
                try:
                    print("patched returned", exactlp.simplex_max(*lp).status)
                except RuntimeError as exc:
                    print("patched raised", exc)
            exactlp._run_simplex = real
            res = exactlp.simplex_max(*lp)
            print(repr((res.status, res.x, res.objective, res.farkas, res.pivots)))
    """).replace("LPS", repr(lps))
    out = _run_O(code).splitlines()[1:]
    assert len(out) == 3 * len(lps)
    for lp, (first, second, answer) in zip(lps, zip(*[iter(out)] * 3)):
        assert first == second == "patched raised primal solution failed exact feasibility check"
        want = fraction_simplex_max(*lp)
        assert eval(answer, {"Fraction": F}) == (
            want.status, want.x, want.objective, want.farkas, want.pivots), lp
