import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from capdual.capacity import capacity_kl_form, moment_polytope_contains
from capdual.core import LogValue, fraction_log
from capdual.scaling import (ScalingState, _sinkhorn_kernel, perm_dual_report,
                             perm_rc_exact, rc_capacity, rc_weighted_vector,
                             sinkhorn_scale)
from util import hall_blocking_set, hall_off_face

F = Fraction
UNIFORM2 = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))


def test_all_ones_scales_immediately():
    r, c = UNIFORM2
    res = sinkhorn_scale(ScalingState([[F(1)] * 2] * 2, r, c))
    assert res.status == "converged"
    assert res.iterations <= 1
    assert res.marginal_error <= 1e-8
    scaled = res.state.scaled
    assert np.allclose(scaled.sum(axis=1), [0.5, 0.5])
    assert np.allclose(scaled.sum(axis=0), [0.5, 0.5])


def test_rank_one_corner_certified_unscalable():
    r, c = UNIFORM2
    res = sinkhorn_scale(ScalingState([[F(1), F(0)], [F(0), F(0)]], r, c))
    assert res.status == "certified-unscalable"
    cert = res.certificate
    # Hall-type violation: the flagged rows need more mass than the columns
    # they can reach provide
    assert cert["row_mass"] > cert["col_mass"]
    assert cert["deficiency"] == cert["row_mass"] - cert["col_mass"]


def _random_margins(rng, k: int) -> tuple[Fraction, ...]:
    """Nonnegative rationals summing to 1, about a third of them zero."""
    while True:
        v = [int(x) if rng.random() > 0.3 else 0 for x in rng.integers(0, 6, size=k)]
        if sum(v):
            return tuple(F(x, sum(v)) for x in v)


def test_hall_certificate_matches_brute_force_oracle():
    # the certificate is the smallest Hall blocking set; the status and the
    # (r,c) membership in the support polytope must agree with its deficiency
    rng = np.random.default_rng(29)
    seen = {"unscalable": 0, "scalable": 0, "zero_margin": 0, "zero_row": 0}
    while sum(seen[s] for s in ("unscalable", "scalable")) < 600:
        n, m = (int(t) for t in rng.integers(1, 6, size=2))
        M = (rng.random((n, m)) < rng.random()) * rng.integers(1, 10, size=(n, m))
        if rng.random() < 0.2:
            M[int(rng.integers(n))] = 0
        if not M.any():
            continue
        r, c = _random_margins(rng, n), _random_margins(rng, m)
        res = sinkhorn_scale(ScalingState(M.tolist(), r, c), max_iter=0)
        deficiency, rows, cols = hall_blocking_set(M > 0, r, c)
        unscalable = res.status == "certified-unscalable"
        assert unscalable == (deficiency > 0)
        if unscalable:
            cert = res.certificate
            assert cert["deficiency"] == deficiency
            assert cert["rows"] == rows and cert["cols"] == cols
            assert cert["row_mass"] - cert["col_mass"] == deficiency
        else:
            assert res.certificate is None
            assert list(res.off_face) == hall_off_face(M > 0, r, c)
        assert moment_polytope_contains(rc_weighted_vector(M), r + c).inside != unscalable
        seen["unscalable" if unscalable else "scalable"] += 1
        seen["zero_margin"] += 0 in r + c
        seen["zero_row"] += not M.any(axis=1).all()
    assert min(seen.values()) >= 50, seen


TRIANGULAR = [[F(1), F(1)], [F(0), F(1)]]


def _recomputed_error(res) -> float:
    """The l1 marginal error of diag(x) M diag(y), summed entry by entry."""
    M, x, y = res.state.M, res.state.x, res.state.y
    n, m = M.shape
    S = [[x[i] * M[i, j] * y[j] for j in range(m)] for i in range(n)]
    err = sum(abs(sum(S[i]) - float(res.state.r[i])) for i in range(n))
    return err + sum(abs(sum(S[i][j] for i in range(n)) - float(res.state.c[j]))
                     for j in range(m))


@pytest.mark.parametrize("sweeps", [10**3, 10**4])
def test_plain_kernel_error_law_and_max_iter_stop(sweeps):
    # on the triangular instance, scalable only in the limit, plain sweeps
    # leave a marginal error of about 1/(2t) after t sweeps
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    r, c = UNIFORM2
    x, y, it, err = _sinkhorn_kernel(M, r, c, [1.0, 1.0], [1.0, 1.0], 1e-8, sweeps)
    assert it == sweeps
    assert err == pytest.approx(1 / (2 * sweeps), rel=1e-3)
    assert err == pytest.approx(ScalingState(M, r, c, x, y).marginal_error(), rel=1e-9)


def test_triangular_boundary_case_converges():
    # the face is the diagonal; the off-diagonal entry is pushed below tol
    # along the face normal instead of decaying like 1/(2t) over ~5e7 sweeps
    r, c = UNIFORM2
    res = sinkhorn_scale(ScalingState(TRIANGULAR, r, c))
    assert res.status == "converged"
    assert res.marginal_error <= 1e-8
    assert _recomputed_error(res) <= 1e-8
    assert res.off_face == ((0, 1),)
    assert res.iterations <= 10
    assert np.allclose(res.state.scaled, [[0.5, 0], [0, 0.5]], rtol=0, atol=1e-8)


def test_boundary_case_stops_at_max_iter():
    # 1000 sweeps are far more than the face-aware path needs; at a tol no
    # push can reach within the float range it runs every one of them
    r, c = UNIFORM2
    state = ScalingState(TRIANGULAR, r, c)
    res = sinkhorn_scale(state, tol=1e-8, max_iter=1000)
    assert res.status == "converged"
    assert res.iterations <= 10
    res = sinkhorn_scale(state, tol=1e-300, max_iter=1000)
    assert res.status == "max_iter"
    assert res.iterations == 1000
    assert res.marginal_error > 1e-300
    assert res.marginal_error == pytest.approx(_recomputed_error(res), rel=1e-9)


def test_boundary_instances_match_plain_kernel_limit():
    # margins from a positive plan on a sub-pattern Q of a random pattern P,
    # every row and column of Q occupied: the minimal face holds Q and is
    # often smaller than P. The face-aware result must converge, find the
    # off-face entries of the Hall oracle, leave them below tol and agree on
    # the face with a long plain-kernel run, which is still far from tol.
    rng = np.random.default_rng(41)
    tol = 1e-9
    seen = 0
    while seen < 15:
        n, m = (int(t) for t in rng.integers(2, 5, size=2))
        P = rng.random((n, m)) < 0.75
        Q = P & (rng.random((n, m)) < 0.5)
        if not (Q.any(axis=1).all() and Q.any(axis=0).all()) or (Q == P).all():
            continue
        B = Q * rng.integers(1, 6, size=(n, m))
        total = int(B.sum())
        r = tuple(F(int(v), total) for v in B.sum(axis=1))
        c = tuple(F(int(v), total) for v in B.sum(axis=0))
        M = (P * rng.integers(1, 10, size=(n, m))).astype(float)
        res = sinkhorn_scale(ScalingState(M.tolist(), r, c), tol=tol)
        assert list(res.off_face) == hall_off_face(P, r, c)
        if not res.off_face:
            continue
        seen += 1
        assert res.status == "converged"
        assert _recomputed_error(res) <= tol
        S = res.state.scaled
        off = tuple(zip(*res.off_face))
        assert np.all(S[off] <= tol)
        x, y, _, plain_err = _sinkhorn_kernel(M, r, c, [1.0] * n, [1.0] * m, 0.0, 10**4)
        assert plain_err > 1000 * tol
        on = P.copy()
        on[off] = False
        plain = np.array(x)[:, None] * M * np.array(y)[None, :]
        assert np.all(np.abs(S - plain)[on] <= plain_err + tol)


def test_full_support_takes_the_plain_kernel_bit_for_bit():
    # when the minimal face is all of supp(M) nothing but plain sweeps run;
    # positive margins, and a zero entry in about one matrix in three
    rng = np.random.default_rng(13)
    seen = 0
    for _ in range(40):
        n, m = (int(t) for t in rng.integers(1, 5, size=2))
        M = rng.integers(0 if rng.random() < 0.3 else 1, 10, size=(n, m)).astype(float)
        r, c = (tuple(F(int(v), int(w.sum())) for v in w)
                for w in (rng.integers(1, 9, size=n), rng.integers(1, 9, size=m)))
        if not M.any():
            continue
        res = sinkhorn_scale(ScalingState(M.tolist(), r, c), tol=1e-10)
        if res.status == "certified-unscalable" or res.off_face:
            continue
        seen += 1
        x, y, it, _ = _sinkhorn_kernel(M, r, c, [1.0] * n, [1.0] * m, 1e-10, 10**6)
        assert res.state.x.tobytes() == np.array(x).tobytes()
        assert res.state.y.tobytes() == np.array(y).tobytes()
        assert res.iterations == it
    assert seen >= 20, seen


def test_face_normal_checks_survive_python_O():
    """The face normal is read from the duals of the last face LP. Flip the
    sign of those duals, move them by one on a face weight alone, and halve
    them so the off-face gap is 1/2: under -O the exact check must still
    raise."""
    code = textwrap.dedent("""
        import dataclasses
        from fractions import Fraction as F
        from capdual import capacity
        from capdual.core import WeightVector
        print("debug", __debug__)
        # the triangular instance: entries (0,0), (0,1), (1,1); face {0, 2}
        weights = tuple(WeightVector(w) for w in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)))
        theta = (F(1, 2),) * 4
        print("normal", capacity._face_search(weights, theta).normal)
        solve = capacity.simplex_max

        def patched(change):  # the face search reads the duals as Y / den
            def run(c, A, b):
                res = solve(c, A, b)
                if res.duals_num is not None:
                    Y, den = change(list(res.duals_num), res.duals_den)
                    res = dataclasses.replace(res, duals_num=tuple(Y), duals_den=den)
                return res
            return run

        for name, change in (
                ("flipped", lambda Y, den: ([-t for t in Y], den)),
                # row 1 meets only (1, 1)
                ("shifted", lambda Y, den: ([Y[0], Y[1] + den, *Y[2:]], den)),
                ("halved", lambda Y, den: (Y, 2 * den))):
            capacity._face_search.cache_clear()
            capacity.simplex_max = patched(change)
            try:
                capacity._face_search(weights, theta)
                print(name, "returned")
            except RuntimeError as exc:
                print(name, "raised", exc)
        capacity.simplex_max = solve
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert "debug False" in out
    assert "normal" in out
    assert "flipped raised face normal failed its check" in out
    assert "shifted raised face normal failed its check" in out
    assert "halved raised face normal failed its check" in out


def test_zero_sweeps_report_the_untouched_state():
    r, c = UNIFORM2
    state = ScalingState([[F(1), F(1)], [F(0), F(1)]], r, c)
    res = sinkhorn_scale(state, max_iter=0)
    assert res.status == "max_iter"
    assert res.iterations == 0
    assert res.marginal_error == state.marginal_error() == 4.0
    with pytest.raises(ValueError):
        sinkhorn_scale(state, max_iter=-1)


def test_unreachable_tol_rejected():
    # no marginal error is <= a NaN or negative tol, so the kernel would run
    # all max_iter sweeps; max_iter=1000 keeps a missing check quick to see
    r, c = UNIFORM2
    state = ScalingState([[F(1), F(1)], [F(0), F(1)]], r, c)
    for tol in (math.nan, -1e-8, -math.inf):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            sinkhorn_scale(state, tol=tol, max_iter=1000)
    assert sinkhorn_scale(state, tol=0.0, max_iter=10).status == "max_iter"


def test_rectangular_zero_entry_rational_margins():
    # [[1/10, 3/10, 0], [1/10, 1/5, 3/10]] has these margins on the support,
    # so the instance is strictly scalable
    r = (F(2, 5), F(3, 5))
    c = (F(1, 5), F(1, 2), F(3, 10))
    res = sinkhorn_scale(ScalingState([[F(1), F(2), F(0)], [F(3), F(1), F(1)]], r, c),
                         tol=1e-12)
    assert res.status == "converged"
    scaled = res.state.scaled
    assert scaled[0, 2] == 0
    assert np.allclose(scaled.sum(axis=1), [0.4, 0.6], rtol=0, atol=1e-12)
    assert np.allclose(scaled.sum(axis=0), [0.2, 0.5, 0.3], rtol=0, atol=1e-12)


def test_sinkhorn_stationarity_bound():
    # after an exact column step the potential gradient is twice the row
    # defect, so convergence in marginals certifies near-stationarity
    r, c = UNIFORM2
    res = sinkhorn_scale(ScalingState([[F(2), F(1)], [F(1), F(3)]], r, c),
                         tol=1e-10)
    assert res.status == "converged"
    scaled = res.state.scaled
    grad = 2.0 * np.abs(scaled.sum(axis=1) - [0.5, 0.5]).sum()
    assert grad <= 10 * 1e-10


def test_rc_capacity_worked_values():
    r, c = UNIFORM2
    assert math.isclose(rc_capacity([[F(1)] * 2] * 2, r, c).to_float(), 4.0,
                        rel_tol=1e-10)
    assert math.isclose(
        rc_capacity([[F(1), F(1)], [F(0), F(1)]], r, c).to_float(), 2.0,
        rel_tol=1e-9)
    assert math.isclose(
        rc_capacity([[F(1), F(0)], [F(0), F(1)]], r, c).to_float(), 2.0,
        rel_tol=1e-9)
    # unscalable support: capacity is exactly zero
    assert rc_capacity([[F(1), F(0)], [F(0), F(0)]], r, c).sign == 0


def test_rc_capacity_agrees_with_kl_program():
    rng = np.random.default_rng(17)
    for _ in range(10):
        M = [[F(int(x), 8) for x in rng.integers(1, 9, size=3)]
             for _ in range(3)]
        r = (F(1, 3),) * 3
        c = (F(1, 4), F(1, 4), F(1, 2))
        cap = rc_capacity(M, r, c)
        v = rc_weighted_vector(np.array([[float(e) for e in row] for row in M]))
        theta = tuple(r) + tuple(c)
        kl = capacity_kl_form(v.normalized(), theta)
        norm_sq = v.norm_sq
        assert math.isclose(cap.log_mag, kl.log_mag + math.log(norm_sq),
                            rel_tol=0, abs_tol=1e-8)


def test_rc_capacity_diagonal_scaling_covariance():
    # replacing M by D1 M D2 multiplies cap^2 by prod d1^r prod d2^c
    M = [[F(2), F(1)], [F(1), F(3)]]
    r, c = UNIFORM2
    base = rc_capacity(M, r, c)
    d1 = [F(3), F(1, 2)]
    d2 = [F(5), F(4)]
    scaled = [[d1[i] * M[i][j] * d2[j] for j in range(2)] for i in range(2)]
    got = rc_capacity(scaled, r, c)
    shift = sum(float(ri) * math.log(float(di)) for ri, di in zip(r, d1))
    shift += sum(float(cj) * math.log(float(dj)) for cj, dj in zip(c, d2))
    assert math.isclose(got.log_mag, base.log_mag + shift, abs_tol=1e-8)


def test_perm_exact_worked_values():
    ones = [[F(1)] * 2] * 2
    assert perm_rc_exact(ones, (1, 1), (1, 1)).value == 2
    tri = [[F(1), F(1)], [F(0), F(1)]]
    assert perm_rc_exact(tri, (1, 1), (1, 1)).value == 1
    # doubled margins on all-ones: sum over 2x2 tables with margins (2,2)
    assert perm_rc_exact(ones, (2, 2), (2, 2)).value == F(3, 2)
    # empty margins give the empty product
    assert perm_rc_exact(ones, (0, 0), (0, 0)).value == 1


def _partial_tables(r, c):
    """Per row i, every fill of rows 0..i with row sums r and column sums
    at most c, by direct enumeration."""
    layers, layer = [], [()]
    for ri in r:
        nxt = []
        for t in layer:
            used = [sum(col) for col in zip(*t)] if t else [0] * len(c)
            for row in product(*(range(cj - u + 1) for cj, u in zip(c, used))):
                if sum(row) == ri:
                    nxt.append(t + (row,))
        layers.append(layer := nxt)
    return layers


def test_perm_exact_brute_force_cross_check():
    # direct enumeration of all tables: a random integer 3x3 with mixed
    # margins; rational rows over different denominators with zero entries;
    # a zero row, whose tables all weigh 0 but still count
    rng = np.random.default_rng(5)
    cases = [
        ([[F(int(x)) for x in rng.integers(1, 5, size=3)] for _ in range(3)],
         (2, 1, 1), (1, 2, 1)),
        ([[F(1, 3), F(2, 5), F(0)], [F(1, 2), F(1, 7), F(3)], [F(0), F(5, 6), F(2, 9)]],
         (3, 2, 1), (2, 2, 2)),
        ([[F(3, 4), F(0), F(1, 6)], [F(0), F(7, 10), F(0)], [F(2), F(1, 9), F(5, 8)]],
         (2, 3, 3), (4, 2, 2)),
        ([[F(0), F(0)], [F(1, 2), F(3, 4)]], (1, 1), (1, 1)),
    ]
    for M, r, c in cases:
        tables = _partial_tables(r, c)[-1]
        total = F(0)
        for B in tables:
            term = F(1)
            for i, row in enumerate(B):
                for j, b in enumerate(row):
                    term *= M[i][j] ** b / math.factorial(b)
            total += term
        got = perm_rc_exact(M, r, c)
        assert (got.value, got.table_count) == (total, len(tables)), (M, r, c)
        assert got.log_value == (fraction_log(total) if total else LogValue.zero())


def test_perm_exact_margin_mismatch():
    with pytest.raises(ValueError, match="margin sums differ"):
        perm_rc_exact([[F(1)] * 2] * 2, (1, 1), (2, 1))


def test_perm_exact_budget():
    M = [[F(1)] * 6] * 6
    with pytest.raises(RuntimeError, match="budget"):
        perm_rc_exact(M, (10,) * 6, (10,) * 6, budget=10)
    # the budget bounds the partial tables met in one row: the largest such
    # count passes and one less raises
    M = [[F(1, 2), F(0), F(2)], [F(1, 3), F(1), F(1, 5)], [F(3), F(1, 7), F(1)]]
    r, c = (3, 2, 2), (2, 3, 2)
    need = max(len(layer) for layer in _partial_tables(r, c))
    assert perm_rc_exact(M, r, c, budget=need).table_count == len(_partial_tables(r, c)[-1])
    with pytest.raises(RuntimeError, match=f"more than {need - 1} tables"):
        perm_rc_exact(M, r, c, budget=need - 1)


def test_perm_dual_report_all_ones():
    r, c = UNIFORM2
    rep = perm_dual_report([[F(1)] * 2] * 2, r, c, 24)
    assert rep.check_weak_duality(gap_column="gap", tol=1e-9)
    ks = rep.column("k")
    assert ks == list(range(2, 25, 2))
    roots = rep.column("root_value")
    # root at k: (k! perm)^{1/k} = C(k, k/2)^{1/k} * ... increasing to 4
    assert all(a < b for a, b in zip(roots, roots[1:]))
    assert roots[-1] < 4.0
    meta = rep.metadata
    s = meta["sandwich"]
    assert s["lower_holds"] and s["upper_holds"]
    assert math.isclose(s["lower"], 2.0, rel_tol=1e-9)
    assert float(s["perm"]) == 2.0
    assert math.isclose(s["upper"], 8.0, rel_tol=1e-9)


def test_perm_dual_report_triangular_sandwich():
    r, c = UNIFORM2
    rep = perm_dual_report([[F(1), F(1)], [F(0), F(1)]], r, c, 12)
    s = rep.metadata["sandwich"]
    # cap^2 = 2: bounds 2^2 * 2/16 = 0.5 <= perm = 1 <= 2^2/2 = 2
    assert math.isclose(s["lower"], 0.5, rel_tol=1e-9)
    assert float(s["perm"]) == 1.0
    assert math.isclose(s["upper"], 2.0, rel_tol=1e-9)
    assert s["lower_holds"] and s["upper_holds"]
    assert rep.check_weak_duality(gap_column="gap", tol=1e-9)


def test_perm_dual_report_rational_margins():
    M = [[F(1), F(1), F(1)], [F(1), F(1), F(0)]]
    r = (F(2, 3), F(1, 3))
    c = (F(1, 3), F(1, 3), F(1, 3))
    rep = perm_dual_report(M, r, c, 12)
    assert rep.column("k") == [3, 6, 9, 12]
    assert rep.check_weak_duality(gap_column="gap", tol=1e-9)
    assert "sandwich" not in rep.metadata  # not square uniform


def test_scaling_state_validation():
    r, c = UNIFORM2
    with pytest.raises(ValueError):
        ScalingState([[F(-1), F(1)], [F(1), F(1)]], r, c)
    with pytest.raises(ValueError):
        ScalingState([[F(1)] * 2] * 2, (F(1, 2), F(1, 4)), c)
    with pytest.raises(ValueError):
        sinkhorn_scale(ScalingState([[F(0)] * 2] * 2, r, c))
