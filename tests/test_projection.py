import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capdual import projection
from capdual.capacity import theta_capacity
from capdual.core import LogValue, WeightedVector, WeightVector, rational_vector
from capdual.projection import (LaurentPoly, _cst_of_product, _fft_len, _lll_axes,
                                _Row, _row_conv, _RowStream, critical_values,
                                difference_lattice, duality_report,
                                laurent_cst_powers, prefactor_sequence,
                                projection_norm_table)

from util import (brute_invariant_norms, exact_log_norm_rows, gaussian_cst_powers,
                  random_weighted_vector, shift_add_step)

F = Fraction


def binomial_vector() -> WeightedVector:
    r = math.sqrt(0.5)
    return WeightedVector.from_terms(1, {(0,): r, (1,): r})


def balanced_vector() -> WeightedVector:
    r = math.sqrt(0.5)
    return WeightedVector.from_terms(1, {(-1,): r, (1,): r})


def test_binomial_norms_closed_form():
    table = projection_norm_table(binomial_vector(), 12)
    for k in (1, 2, 5, 12):
        for j in range(k + 1):
            got = table.get(k, (j,)).to_float()
            assert math.isclose(got, math.comb(k, j) / 2**k, rel_tol=1e-12)
    # weights outside the support are exactly zero
    assert table.get(3, (5,)).sign == 0
    assert table.get(3, (-1,)).sign == 0
    with pytest.raises(ValueError):  # a weight of the wrong length
        table.get(3, (1, 0))


def test_balanced_odd_weights_absent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # log(0) of the unreachable cells is silent
        gaps = projection_norm_table(WeightedVector.from_terms(1, {(0,): 1.0, (3,): 1.0,
                                                                   (5,): 1.0}), 2)
        table = projection_norm_table(balanced_vector(), 7)
    # weights 1, 2 and 4 lie on the lattice Z, inside the box, and unreachable
    assert [gaps.get(1, (j,)).sign for j in range(6)] == [1, 0, 0, 1, 0, 1]
    assert gaps.get(2, (7,)).sign == 0 and gaps.get(2, (8,)).to_float() == 2.0
    assert table.get(7, (0,)).sign == 0  # odd power cannot reach weight 0
    assert math.isclose(table.get(6, (0,)).to_float(),
                        math.comb(6, 3) / 2**6, rel_tol=1e-12)
    # The walk (-s, s) holds one cell per point of its lattice, whatever s:
    # to k = 400 every s reads the same value at 0 from the same cells, well
    # inside the default memory guard.
    reads = set()
    for s in (1, 100, 1000):
        table = projection_norm_table(WeightedVector.from_terms(1, {(-s,): 1.0, (s,): 1.0}), 400)
        assert table.get(400, (1,)).sign == table.get(400, (s,)).sign == 0
        reads.add((table.get(400, (0,)).log_mag, sum(row.arr.size for row in table._rows)))
    assert len(reads) == 1
    log_mag, cells = reads.pop()
    assert cells == sum(k + 1 for k in range(1, 401))
    assert math.isclose(log_mag, math.log(math.comb(400, 200)), rel_tol=1e-13)


def test_vertex_weight_mass():
    table = projection_norm_table(binomial_vector(), 20)
    assert math.isclose(table.get(20, (20,)).to_float(), 0.5**20, rel_tol=1e-12)


def test_completeness():
    # sum over weights of component norms = |v|^{2k}
    v = random_weighted_vector(np.random.default_rng(3), n=2, n_terms=4)
    table = projection_norm_table(v, 6)
    for k in (1, 3, 6):
        total = table.total(k).to_float()
        assert math.isclose(total, v.norm_sq**k, rel_tol=1e-8)
    for k in (0, 7):
        with pytest.raises(ValueError):
            table.total(k)


def _table_and_first_log_row(monkeypatch, v, k_max):
    """The table of v to k_max and the first of its rows built by a log step
    (_step_log); k_max + 1 when every row was linear."""
    calls = 0
    step_log = projection._step_log

    def counted(*args):
        nonlocal calls
        calls += 1
        return step_log(*args)

    monkeypatch.setattr(projection, "_step_log", counted)
    table = projection_norm_table(v, k_max)
    return table, k_max + 1 - calls


@pytest.mark.parametrize("n, terms, k_max, first_log_row", [
    (1, {(-1,): 0.8 + 0.3j, (1,): 1.1, (3,): 0.5j}, 300, 301),
    # q = 1e-8 on the middle weight: p_min^k falls below 2^-1000 past k = 37.
    (1, {(-1,): 0.8 + 0.3j, (1,): 1e-4, (3,): 0.5j}, 300, 38),
    (2, {(0, 0): 0.6, (2, 0): 0.9j, (1, 1): -0.4, (0, 2): 1.2}, 60, 61),
], ids=["n1", "n1-handoff", "n2"])
def test_table_matches_exact_integer_powers(monkeypatch, n, terms, k_max, first_log_row):
    # Every row against (sum_w Q_w t^w)^k in Python ints, read in bulk
    # through row_weights: one cell per weight, and the weights of nonzero
    # norm are exactly the reachable ones, so every other weight of the
    # k-fold bounding box is an exact zero on both sides (odd weights, or
    # even coordinate sums, leave every other weight off the lattice); log
    # norms within 1e-11. test_get_matches_the_bulk_read ties get to it.
    v = WeightedVector.from_terms(n, terms)
    table, first = _table_and_first_log_row(monkeypatch, v, k_max)
    assert first == first_log_row
    for k, want in exact_log_norm_rows(v, k_max):
        lam, logs = table.row_weights(k)
        assert len(set(map(tuple, lam.tolist()))) == len(lam), k
        nonzero = logs > -math.inf
        got = dict(zip(map(tuple, lam[nonzero].tolist()), logs[nonzero].tolist()))
        assert got.keys() == want.keys(), k
        assert max(abs(got[w] - want[w]) for w in want) <= 1e-11, k


@pytest.mark.parametrize("n, terms, k_max, ks", [
    (1, {(-1,): 0.8 + 0.3j, (1,): 1.1, (3,): 0.5j}, 300, (*range(1, 41), 100, 200, 300)),
    (2, {(0, 0): 0.6, (2, 0): 0.9j, (1, 1): -0.4, (0, 2): 1.2}, 60, (*range(1, 13), 60)),
], ids=["n1", "n2"])
def test_get_matches_the_bulk_read(n, terms, k_max, ks):
    # get and row_weights read the same cells: every weight of the k-fold
    # bounding box and one past each edge reads the same float or the same
    # exact zero (off the lattice, where n2's LLL axes map U c back to a
    # weight, included), and every nonzero cell of the bulk read is met.
    v = WeightedVector.from_terms(n, terms)
    table = projection_norm_table(v, k_max)
    lo = [min(w.coords[i] for w, _ in v.terms) for i in range(n)]
    hi = [max(w.coords[i] for w, _ in v.terms) for i in range(n)]
    for k in ks:
        lam, logs = table.row_weights(k)
        bulk = {tuple(w): x for w, x in zip(lam.tolist(), logs.tolist()) if x > -math.inf}
        met = 0
        for w in itertools.product(*[range(k * a - 1, k * b + 2) for a, b in zip(lo, hi)]):
            got = table.get(k, w)
            assert (got.sign, got.log_mag if got.sign else None) == (
                (1, bulk[w]) if w in bulk else (0, None)), (k, w)
            met += w in bulk
        assert met == len(bulk) > 0, k


def test_table_total_across_the_hand_off(monkeypatch):
    # |v|^2 = 7 with q = 1e-8 on one weight: rows after k = 34 are log steps,
    # and total(k) = k log 7 on both sides, with no warning. The weights are
    # odd, so every other weight is off the lattice: an exact zero.
    v = WeightedVector.from_terms(1, {(-1,): 2.0, (1,): 1e-4, (3,): math.sqrt(3 - 1e-8)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table, first = _table_and_first_log_row(monkeypatch, v, 80)
    assert first == 35
    assert table.get(7, (0,)).sign == 0
    for k in range(1, 81):
        assert abs(table.total(k).log_mag - k * math.log(7)) <= 1e-12 * k, k


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_matches_brute_force(seed, k):
    v = random_weighted_vector(np.random.default_rng(seed), n=2, n_terms=3,
                               box=2)
    table = projection_norm_table(v, k)
    expected = brute_invariant_norms(v, k)
    for lam, val in expected.items():
        got = table.get(k, lam).to_float()
        assert math.isclose(got, val, rel_tol=1e-9, abs_tol=1e-12)


def test_supermultiplicativity():
    v = random_weighted_vector(np.random.default_rng(9), n=2, n_terms=3,
                               box=2).normalized()
    table = projection_norm_table(v, 8)
    support = [w for w, _ in v.terms]
    for a in support:
        for b in support:
            lhs = table.get(8, tuple(x + y for x, y in zip(4 * np.array(a.coords), 4 * np.array(b.coords))))
            p = table.get(4, tuple(4 * np.array(a.coords)))
            q = table.get(4, tuple(4 * np.array(b.coords)))
            if p.sign and q.sign:
                assert lhs.sign == 1
                assert lhs.log_mag >= p.log_mag + q.log_mag - 1e-9


def test_duality_report_weak_duality_and_monotone_gap():
    rep = duality_report(binomial_vector(), (F(1, 2),), 200)
    assert rep.check_weak_duality(gap_column="gap", tol=1e-10)
    gaps = rep.column("gap")
    ks = rep.column("k")
    assert ks == list(range(2, 201, 2))
    # 1/k log-norms increase toward the capacity, so the gap shrinks
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    # the final ratio approaches cap^2 = 1 from below
    rate = rep.column("rate")[-1]
    cap_sq = rep.metadata["capacity"]
    assert math.isclose(math.exp(rate / 1), math.exp(2 * cap_sq.log_cap.log_mag) * math.exp(-gaps[-1]), rel_tol=1e-9)


def test_duality_report_theta_outside():
    v = binomial_vector()
    rep = duality_report(v, (F(2),), 10)
    # capacity zero: the gap column is NaN and log_cap_sq is -inf
    assert all(math.isnan(r[4]) for r in rep.rows)
    assert all(r[3] == -math.inf for r in rep.rows)


def _oracle_vector(seed: int, n: int) -> WeightedVector:
    """A random vector with 4 weights in [-2, 2]^n; for n >= 2 two more
    weights with first coordinate 3 span an edge of its polytope."""
    rng = np.random.default_rng(40 + seed)
    v = random_weighted_vector(rng, n=n, n_terms=4, box=2)
    if n == 1:
        return v
    edge = [(3,) + (0,) * (n - 1), (3, 1) + (0,) * (n - 2)]
    return WeightedVector.from_terms(n, [*v.terms, *((WeightVector(w), complex(
        1.0 + abs(rng.normal()), rng.normal())) for w in edge)])


@pytest.mark.parametrize("n, k_max", [(1, 300), (2, 60), (3, 12)])
def test_duality_report_matches_log_dp_oracle(n, k_max):
    # The tilted stream against the exact projection table: the same exact
    # zeros and log norms within 1e-10 on every row, with the minimal face
    # of each target pinned. A segment has no face beyond its end points,
    # so n = 1 has no edge target.
    for seed in range(4):
        v = _oracle_vector(seed, n)
        W = [w.coords for w in v.support]
        top = max(W)  # the lexicographic maximum is a vertex
        targets = [(tuple(F(c) for c in top), 1),
                   (tuple(F(sum(w[i] for w in W), len(W)) for i in range(n)), len(W)),
                   (tuple(F(c + 3) for c in top), 0)]
        if n >= 2:
            targets.append(((F(3), F(1, 2), *[F(0)] * (n - 2)), 2))
        if n == 2:
            targets.append(((F(1, 3), F(-1, 4)), None))
        table = projection_norm_table(v, k_max)
        for theta, face_size in targets:
            rep = duality_report(v, theta, k_max)
            face = rep.metadata["capacity"].face
            assert face_size is None or len(face) == face_size, (seed, theta)
            ell = rep.metadata["period"]
            assert [r[0] for r in rep.rows] == list(range(ell, k_max + 1, ell))
            for k, norm_sq, rate, log_cap_sq, gap in rep.rows:
                want = table.get(k, tuple(int(t * k) for t in theta))
                assert norm_sq.sign == want.sign, (seed, theta, k)
                if want.sign:
                    assert abs(norm_sq.log_mag - want.log_mag) <= 1e-10, (seed, theta, k)
                    assert rate == norm_sq.log_mag / k
                    assert gap >= 0
                elif face:
                    assert gap == math.inf
                else:
                    assert math.isnan(gap)
            assert 0.0 <= rep.metadata["dropped_mass"] < 1e-9


@pytest.mark.parametrize("terms, theta, ks", [
    ({(0,): 0.3, (1,): 1.1, (3,): 0.6}, (F(1),), (300, 1200)),
    ({(0, 0): 0.5, (1, 0): 0.9, (0, 1): 0.7, (1, 1): 0.4, (-1, -1): 0.8},
     (F(1, 4), F(1, 5)), (100, 400)),
    ({(0, 0): 0.6, (2, 1): 1.0, (4, 2): 0.5, (0, 2): 0.7, (3, 3): 0.9},
     (F(1), F(1, 2)), (100, 400)),
], ids=["n1", "n2", "edge"])
def test_duality_gap_second_order_local_clt(terms, theta, ks):
    # log P_p(S_k = k theta) = log covol(L) - (d/2) log(2 pi k)
    #                          - (1/2) log pdet Sigma + O(1/k),
    # with Sigma the covariance of the tilted law p on the minimal face,
    # pdet the product of its d nonzero eigenvalues, and covol(L) the
    # covolume of the lattice L of face-weight differences in its own span,
    # sqrt det(B^T B) for the chart basis B of the face record.
    # n1, n2: theta interior and L = Z^n, so B = I. edge: theta inside the
    # edge {(0,0), (2,1), (4,2)} of a 2-D polygon, so d = 1 < n = 2 and
    # L = Z (2, 1), of covolume |(2, 1)| = sqrt 5.
    n = len(theta)
    v = WeightedVector.from_terms(n, terms)
    rep = duality_report(v, theta, ks[-1])
    cap = rep.metadata["capacity"]
    d = cap.certificate.dim
    B = np.array(cap.certificate.basis, dtype=float).reshape(n, d)
    covol = math.sqrt(np.linalg.det(B.T @ B))
    assert math.isclose(covol, 1.0 if d == n else math.sqrt(5), rel_tol=1e-15)
    face = [v.support[j].coords for j in cap.face]
    face_vector = WeightedVector.from_terms(n, {w: 1.0 for w in face})
    assert difference_lattice(face_vector) == (d, 1)
    W = np.array(face, dtype=float)
    a = np.log([abs(terms[w]) ** 2 for w in face]) + 2.0 * (W @ cap.minimizer_x)
    p = np.exp(a - a.max())
    p /= p.sum()
    mean = W.T @ p
    sigma = (W.T * p) @ W - np.outer(mean, mean)
    eig = np.linalg.eigvalsh(sigma)  # ascending
    assert np.all(np.abs(eig[:-d]) <= 1e-12 * eig[-1])  # Sigma has rank d
    log_pdet = float(np.sum(np.log(eig[-d:])))
    gaps = {r[0]: r[4] for r in rep.rows}
    errs = [abs(-k * gaps[k] - math.log(covol) + 0.5 * d * math.log(2 * math.pi * k)
                + 0.5 * log_pdet) for k in ks]
    assert errs[1] <= errs[0] / 3, errs


def test_spaced_walk_streams_in_its_chart():
    # The walk (-s, s) has the chart w = -s + 2s c with c in {0, 1} for
    # every s, so s = 10^6 (inside MAX_WEIGHT_COORD; an ambient stream would
    # hold about 4.6e8 cells there) gives the rows of s = 1 on as many cells.
    r = math.sqrt(0.5)

    def run(s):
        v = WeightedVector.from_terms(1, {(-s,): r, (s,): r})
        return duality_report(v, (F(0),), 400), prefactor_sequence(v, ks=[1000, 1002])

    rep, pre = run(10**6)
    want, want_pre = run(1)
    assert rep.rows == want.rows and pre == want_pre
    assert rep.metadata["max_row_cells"] == want.metadata["max_row_cells"]


def test_edge_report_streams_like_its_image():
    # A 2-D edge streams on its 1-D chart c in {0, 1, 2}: the cells, the
    # exact zeros and the final gap of its image {0, 1, 2}. Newton runs on
    # the same chart arrays, so the two capacity solves are one solve, and
    # the edge's minimizer is the least-norm x with (2, 1).x = y*.
    amps = (0.5, 0.6, math.sqrt(0.39))
    edge = WeightedVector.from_terms(2, dict(zip([(0, 0), (2, 1), (4, 2)], amps)))
    image = WeightedVector.from_terms(1, dict(zip([(0,), (1,), (2,)], amps)))
    rep = duality_report(edge, (F(1), F(1, 2)), 1000)
    want = duality_report(image, (F(1, 2),), 1000)
    cap, cap1 = rep.metadata["capacity"], want.metadata["capacity"]
    assert cap.log_cap.log_mag == cap1.log_cap.log_mag
    assert (cap.iterations, cap.gradient_norm) == (cap1.iterations, cap1.gradient_norm)
    y = cap1.minimizer_x[0]
    assert np.max(np.abs(cap.minimizer_x - np.array([2.0, 1.0]) * y / 5)) <= 1e-15
    assert [(r[0], r[1].sign) for r in rep.rows] == [(r[0], r[1].sign) for r in want.rows]
    assert abs(rep.rows[-1][4] - want.rows[-1][4]) <= 1e-14
    assert rep.metadata["max_row_cells"] == want.metadata["max_row_cells"]


def test_sheared_chart_holds_no_more_cells_than_the_weight_box():
    # The Hermite basis of this support's lattice (index 2 in Z^3) has the
    # rows (1,0,0), (0,1,0), (0,-1,2); streamed on it, the report held
    # 104,005 cells where the ambient box of the weights held 53,680. The
    # axes reduced against the tilted covariance hold fewer than the box.
    # The rows still match the exact table.
    terms = {(-2, 2, 1): 1.88, (-1, -1, 0): 1.0, (-1, 0, 1): 3.1, (1, 2, 1): 1.63,
             (2, -2, 1): 1.46, (2, -1, 0): 1.86}
    v = WeightedVector.from_terms(3, terms)
    theta = (F(-1, 10), F(4, 5), F(4, 5))
    rep = duality_report(v, theta, 15)
    assert rep.metadata["capacity"].certificate.basis == ((1, 0, 0), (0, 1, 0), (0, -1, 2))
    assert 0 < rep.metadata["max_row_cells"] <= 53_680
    table = projection_norm_table(v, 15)
    for k, norm_sq, *_ in rep.rows:
        want = table.get(k, tuple(int(t * k) for t in theta))
        assert norm_sq.sign == want.sign == 1
        assert abs(norm_sq.log_mag - want.log_mag) <= 1e-10, k


def test_row_axes_reduce_against_the_law_unless_wider():
    # Mass along the diagonal: the axes c2 - c1 and c2 hold it on fewer
    # cells than c1 and c2, in width and in variance.
    U = _lll_axes(np.array([[0, 0], [1, 1], [2, 2], [0, 1]]), np.array([0.3, 0.3, 0.3, 0.1]))
    assert U.tolist() == [[-1, 1], [0, 1]]
    # Here the reduced basis (0, 1), (1, 1) has the smaller variances but
    # widths 3 and 6 against 4 and 3: the identity is kept.
    C = np.array([[0, 0], [0, 3], [1, 3], [3, 2], [4, 2]])
    assert _lll_axes(C, np.array([0.05, 0.45, 0.05, 0.05, 0.4])).tolist() == [[1, 0], [0, 1]]
    assert _lll_axes(np.zeros((1, 0), dtype=np.int64), np.ones(1)).shape == (1, 0)


@pytest.mark.parametrize("W, p, k_max", [
    ([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [0.3, 0.1, 0.2, 0.15, 0.25], 200),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], [0.4, 0.3, 0.2, 0.1], 60),
], ids=["n2", "n3"])
def test_tilted_rows_account_for_the_dropped_mass(W, p, k_max):
    # Each step convolves with p, which sums to 1, so the mass of the last
    # row is 1 minus everything the crops removed, up to k rounding errors.
    # The walks are chosen so that the crops remove more than ten times
    # that tolerance.
    stream = _RowStream(np.array(W), np.array(p))
    for _ in range(k_max):
        stream.step()
    tol = 4 * k_max * np.finfo(float).eps
    assert stream.dropped > 10 * tol
    assert abs(1.0 - float(stream.row.arr.sum()) - stream.dropped) <= tol
    # rows are cropped only after doubling: far fewer crops than steps
    assert 0 < stream.crops < k_max // 2
    assert stream.max_row_cells >= stream.row.arr.size


def _per_k_report(v, theta, k_max):
    """The report's rows from a stream of the tilted law stepped once per k
    and read at one cell, k c_theta; with the stream after k_max steps."""
    th = rational_vector(theta, v.n)
    ell = math.lcm(*(t.denominator for t in th))
    cap = theta_capacity(v, th)
    chart = cap.certificate
    log_cap_sq = 2.0 * cap.log_cap.log_mag
    stream = _RowStream(*projection._tilted_law(v, cap))
    rows = []
    for k in range(1, k_max + 1):
        stream.step()
        if k % ell:
            continue
        c = [k * t for t in chart.theta_coords]
        prob = 0.0
        if all(t.denominator == 1 for t in c):
            prob = stream.row.cell(stream.axes @ np.array([int(t) for t in c], dtype=np.int64))
        log_p = math.log(prob) if prob > 0 else -math.inf
        norm_sq = LogValue(1, k * log_cap_sq + log_p) if prob > 0 else LogValue.zero()
        rows.append((k, norm_sq, norm_sq.log_mag / k, log_cap_sq, 0.0 - log_p / k))
    return rows, stream


def _read_period(ell, cap):
    """P = lcm(ell, m), ell the period of theta and m that of its chart point."""
    return math.lcm(ell, *(c.denominator for c in cap.certificate.theta_coords))


_SQ = math.sqrt(0.5)
_POLYGON = {(0, 0): 0.6, (2, 1): 1.0, (4, 2): 0.5, (0, 2): 0.7, (3, 3): 0.9}
_PENTAGON = {(0, 0): 1.0, (3, 0): 1.0, (0, 2): 1.0, (2, 3): 1.0, (1, 1): 1.0}


_CROSS = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}
# P = 8, and K_8, K_16 would take 33^3 + 65^3 cells, past the laws' 1 MiB:
# J = P, and a jump's product of 65^3 cells costs more than 8 steps.
_SIMPLEX_PLUS = {(0, 0, 0): 0.5, (1, 0, 0): 0.9, (0, 1, 0): 0.7, (0, 0, 1): 0.6, (4, 4, 4): 0.4}


@pytest.mark.parametrize("terms, theta, k_max, route", [
    ({(0,): 0.5, (1,): 0.7, (3,): 0.5}, (F(1),), 1, "steps"),
    ({(0,): 0.5, (1,): 0.7, (3,): 0.5}, (F(1),), 31, "laws"),
    ({(0,): 0.5, (1,): 0.7, (3,): 0.5}, (F(1),), 32, "laws"),
    ({(0,): 0.5, (1,): 0.7, (3,): 0.5}, (F(1),), 33, "jumps"),
    ({(0,): 0.5, (1,): 0.7, (3,): 0.5}, (F(1),), 1000, "jumps"),
    ({(-1,): _SQ, (1,): _SQ}, (F(0),), 1000, "jumps"),
    ({(-2,): 0.5, (1,): 0.6, (2,): 0.62}, (F(1, 5),), 1000, "jumps"),
    ({(0,): 0.3, (2,): 0.5, (5,): 0.6}, (F(5, 3),), 300, "jumps"),
    ({(0,): _SQ, (1,): _SQ}, (F(1, 40),), 400, "jumps"),
    ({(0,): _SQ, (1,): _SQ}, (F(1),), 100, "jumps"),
    (_POLYGON, (F(1), F(1, 2)), 400, "jumps"),
    ({(-10**6,): _SQ, (10**6,): _SQ}, (F(0),), 400, "jumps"),
    ({(0,): 0.3, (1,): 0.2, (200,): 0.6}, (F(50),), 100, "table"),
    ({(0, 0): 0.5, (1, 0): 0.9, (0, 1): 0.7, (1, 1): 0.4, (-1, -1): 0.8},
     (F(1, 4), F(1, 5)), 100, "jumps"),
    (_CROSS, (F(0), F(0)), 120, "jumps"),
    ({**_CROSS, (1, 1): 0.8}, (F(1, 4), F(1, 3)), 240, "jumps"),
    ({(1, 0, 0): 0.9, (0, 1, 0): 0.7, (0, 0, 1): 0.6, (-1, -1, -1): 0.5},
     (F(1, 2), F(1, 4), F(0)), 64, "jumps"),
    (_SIMPLEX_PLUS, (F(1, 8), F(1, 8), F(1, 4)), 64, "steps"),
    (_PENTAGON, (F(1), F(1)), 200, "jumps"),
], ids=["k1", "k31", "k32", "k33", "k1000", "qubit", "n1", "period3", "period40", "vertex",
        "edge", "spaced", "wide", "n2", "cross", "cross12", "n3", "n3-steps", "pentagon"])
def test_report_reads_as_one_step_per_k(terms, theta, k_max, route, monkeypatch):
    # Every report reads the rows of a stream stepped once per k: the same
    # ks and exact zeros (the qubit's odd k and the period-3 walk's k off
    # 3 Z are off the lattice; with period 40 some held rows are read at no
    # k). Every report holds every J-th row, J a multiple of the read period
    # P: on one axis the least at or above min(32, k_max) (J = 35 for n1 at
    # P = 5, 33 for period3, 40 for period40, 32 for the others), on more
    # the largest at most that (J = 20 for n2, 32 for the cross at P = 2,
    # 24 for cross12 at P = 12, 32 for n3 at P = 16, 32 for the pentagon at
    # P = 1). A report that jumps reaches each held row by one product with
    # the law of S_J and reads the rows between through K_P .. K_J: its log
    # norms stay within 1e-12 of the reference. k31 and k32 read every row
    # from the point mass through the laws and never jump ("laws"). k1 (J =
    # P = 1) and n3-steps (J = P = 8) step every k, so their rows and
    # counters are the reference's, bit for bit.
    # wide (p on 201 cells of a line, P = 1, J = 32) jumps too, but its
    # rows fall to about 4e-20 at k = 77, where the reference's sit 1.46
    # in log from the exact table and the held rows' 3.0: below
    # dropped_mass a row has only that absolute bound. So wide is held to
    # |P - P_table| <= dropped_mass at every k, against the exact table.
    jumps = []
    jump = _RowStream.jump
    monkeypatch.setattr(_RowStream, "jump", lambda self, *a: jumps.append(self.k) or jump(self, *a))
    v = WeightedVector.from_terms(len(theta), terms)
    rep = duality_report(v, theta, k_max)
    want, stream = _per_k_report(v, theta, k_max)
    assert [(r[0], r[1].sign) for r in rep.rows] == [(r[0], r[1].sign) for r in want]
    assert any(r[1].sign for r in want)
    assert bool(jumps) == (route in ("jumps", "table"))
    if jumps:  # from every held row, and from none after the last read
        P = _read_period(rep.metadata["period"], rep.metadata["capacity"])
        J = projection._held_period(np.array(stream.kernel.arr.shape) - 1, P, k_max)
        assert jumps == list(range(0, k_max // P * P - J, J))
    counters =[rep.metadata[key] for key in ("dropped_mass", "crops", "max_row_cells")]
    if route == "steps":
        assert rep.rows == want
        assert counters == [stream.dropped, stream.crops, stream.max_row_cells]
    elif route == "table":
        table = projection_norm_table(v, k_max)
        for k, norm_sq, _, log_cap_sq, _ in rep.rows:
            ref = table.get(k, tuple(int(t * k) for t in theta))
            got, ref = (math.exp(x.log_mag - k * log_cap_sq) for x in (norm_sq, ref))
            assert abs(got - ref) <= counters[0], k
        assert counters[0] <= 1e-9
    else:
        for got, ref in zip(rep.rows, want):
            if ref[1].sign:
                assert abs(got[1].log_mag - ref[1].log_mag) <= 1e-12, got[0]
        assert counters[0] <= 1e-9


@pytest.mark.parametrize("widths, period, k_max", [
    ([1, 1], 1, 1000), ([1, 1], 2, 120), ([2, 2], 12, 240), ([3, 3], 1, 200), ([200], 1, 100),
    ([1, 1, 1], 16, 64), ([4, 4, 4], 8, 64), ([2, 2], 5, 3), ([2, 2], 1, 7), ([40, 40], 3, 100),
    ([400, 400], 1, 100), ([1, 1], 40, 400),
    ([4], 1, 1500), ([4], 3, 1500), ([4], 12, 1500), ([1], 40, 400), ([4], 12, 20),
    ([4], 3, 31), ([2000], 3, 100), ([200000], 1, 100),
])
def test_held_period_is_the_largest_multiple_whose_laws_fit(widths, period, k_max):
    # J is a multiple of P, up to a top, and the largest such whose read
    # laws K_P, K_2P, .., K_J hold at most 1 MiB of float64 cells (K_j spans
    # j width_u + 1 cells on each axis u); P when even K_P does not fit
    # ([400, 400]; [40, 40] at P = 3 stops at J = 6). The top is max(P,
    # min(32, k_max)) on two axes or more, so that J does not pass it. On
    # one axis it is min(32, k_max) rounded up to a multiple of P, so that J
    # reaches it when its laws fit: 33 at P = 3, 36 at P = 12 (24 at
    # k_max = 20), 40 at P = 40; [2000] at P = 3 stops at J = 18, and
    # [200000] takes J = P.
    widths = np.array(widths)
    J = projection._held_period(widths, period, k_max)

    def fits(J):
        return sum(math.prod((j * widths + 1).tolist()) for j in range(period, J + 1, period)) <= 2**20 // 8

    if len(widths) == 1:
        top = -(-min(32, k_max) // period) * period
        assert J >= min(32, k_max) or not fits(top)
    else:
        top = max(period, min(32, k_max))
    assert J % period == 0 and period <= J <= top
    assert J == period or fits(J)
    assert J + period > top or not fits(J + period)


@pytest.mark.parametrize("terms, theta, k_max", [
    (_PENTAGON, (F(1), F(1)), 100),
    ({**_CROSS, (1, 1): 0.8}, (F(1, 4), F(1, 3)), 240),
    ({(1, 0, 0): 0.9, (0, 1, 0): 0.7, (0, 0, 1): 0.6, (-1, -1, -1): 0.5},
     (F(1, 2), F(1, 4), F(0)), 64),
], ids=["pentagon", "cross12", "n3"])
def test_held_laws_are_the_closed_form_boxes(terms, theta, k_max, monkeypatch):
    # The laws a report builds are the rows of a floor-0 stream, so K_j
    # holds j width_u + 1 cells on each axis u, the boxes the rule for J
    # counts; the ones it keeps, K_P .. K_J, fit in 1 MiB.
    built = []
    laws = projection._exact_laws
    monkeypatch.setattr(projection, "_exact_laws",
                        lambda stream, steps: (built.append((stream, K)) or K for K in laws(stream, steps)))
    v = WeightedVector.from_terms(len(theta), terms)
    rep = duality_report(v, theta, k_max)
    widths = np.array(built[0][0].kernel.arr.shape) - 1
    assert [K.arr.shape for _, K in built] == [tuple(j * widths + 1) for j in range(len(built))]
    P = _read_period(rep.metadata["period"], rep.metadata["capacity"])
    J = len(built) - 1
    assert J == projection._held_period(widths, P, k_max) > P
    assert sum(K.arr.nbytes for j, (_, K) in enumerate(built) if j and j % P == 0) <= 2**20


@pytest.mark.parametrize("terms, theta, k_max", [
    (_PENTAGON, (F(1), F(1)), 200),
    ({**_CROSS, (1, 1): 0.8}, (F(1, 4), F(1, 3)), 240),
    ({(1, 0, 0): 0.9, (0, 1, 0): 0.7, (0, 0, 1): 0.6, (-1, -1, -1): 0.5},
     (F(1, 2), F(1, 4), F(0)), 128),
], ids=["pentagon", "cross12", "n3"])
@pytest.mark.parametrize("first", [True, False], ids=["jump-first", "step-first"])
def test_held_rows_switch_between_jumps_and_steps(terms, theta, k_max, first, monkeypatch):
    # With the cost test forced to alternate, the held rows come by jumps
    # and by steps in turn, each branch starting from the other's rows; the
    # reads still match the stream stepped once per k within 1e-12 in log.
    calls = itertools.count(0 if first else 1)
    monkeypatch.setattr(projection, "_fft_pays", lambda *a: next(calls) % 2 == 0)
    v = WeightedVector.from_terms(len(theta), terms)
    rep = duality_report(v, theta, k_max)
    want, _ = _per_k_report(v, theta, k_max)
    assert next(calls) > 3  # both branches ran, more than once
    assert [(r[0], r[1].sign) for r in rep.rows] == [(r[0], r[1].sign) for r in want]
    for got, ref in zip(rep.rows, want):
        if ref[1].sign:
            assert abs(got[1].log_mag - ref[1].log_mag) <= 1e-12, got[0]
    assert rep.metadata["dropped_mass"] <= 1e-9


@pytest.mark.parametrize("terms, theta, k_max, alternate", [
    (_PENTAGON, (F(1), F(1)), 200, False),
    (_PENTAGON, (F(1), F(1)), 200, True),
    ({**_CROSS, (1, 1): 0.8}, (F(1, 4), F(1, 3)), 600, False),
], ids=["pentagon", "pentagon-alternate", "cross12"])
def test_held_rows_account_for_the_dropped_mass(terms, theta, k_max, alternate, monkeypatch):
    # The held rows are laws of S_k, each from the last by J steps or by one
    # FFT product with K_J, the law of S_J cropped once at the floor. A step
    # rounds the row's mass by at most 4 eps; K_J's mass is within 4 J eps
    # of 1 less its cut, and a product rounds its total by about 4 eps
    # log2(cells). So the mass of
    # the last held row is 1 minus everything its crops removed, within
    # tol, and the crops remove more than ten times tol.
    if alternate:
        calls = itertools.count()
        monkeypatch.setattr(projection, "_fft_pays", lambda *a: next(calls) % 2 == 0)
    eps = np.finfo(float).eps
    tol, J = [0.0], []
    jump = _RowStream.jump

    def counted(self, law, steps, cut, exact):
        cells = math.prod((np.array(self.row.arr.shape) + law.arr.shape - 1).tolist())
        tol[0] += 4 * eps * (steps + math.log2(cells))
        J.append(steps)
        jump(self, law, steps, cut, exact)

    monkeypatch.setattr(_RowStream, "jump", counted)
    v = WeightedVector.from_terms(len(theta), terms)
    cap = theta_capacity(v, rational_vector(theta, v.n))
    stream = _RowStream(*projection._tilted_law(v, cap))
    P = _read_period(math.lcm(*(t.denominator for t in rational_vector(theta, v.n))), cap)
    target = np.zeros(stream.kernel.arr.ndim, dtype=np.int64)  # where it reads does not matter here
    reads = list(projection._held_reads(stream, P, k_max, target))
    assert len(reads) == k_max // P and J
    tol = tol[0] + 4 * eps * (stream.k - sum(J))
    assert stream.dropped > 10 * tol
    assert abs(1.0 - float(stream.row.arr.sum()) - stream.dropped) <= tol
    assert stream.max_row_cells >= stream.row.arr.size


@pytest.mark.parametrize("terms, theta, k_max", [
    ({(-1,): _SQ, (1,): _SQ}, (F(0),), 3000),
    ({(-2,): 0.5, (1,): 0.6, (2,): 0.62}, (F(1, 5),), 1500),
    (_POLYGON, (F(1), F(1, 2)), 1000),
], ids=["qubit", "n1", "edge"])
def test_jump_stream_accounts_for_the_dropped_mass(terms, theta, k_max):
    # The held rows of a one-axis report are laws of S_k, k = J, 2J, ...,
    # each a direct product of the last with the uncropped law of S_J,
    # which sums to 1: the mass of the last held row is 1 minus everything
    # its crops removed, up to k rounding errors.
    v = WeightedVector.from_terms(len(theta), terms)
    th = rational_vector(theta, v.n)
    cap = theta_capacity(v, th)
    stream = _RowStream(*projection._tilted_law(v, cap))
    P = _read_period(math.lcm(*(t.denominator for t in th)), cap)
    reads = projection._held_reads(stream, P, k_max, np.zeros(1, dtype=np.int64))
    assert len(reads) == k_max // P and stream.k > 0 and stream.crops > 0
    assert abs(1.0 - float(stream.row.arr.sum()) - stream.dropped) <= 4 * stream.k * np.finfo(float).eps


# Born probabilities 1/6, 1/4, 1/3, 1/4 on four weights: mu = 1/4, P = 4.
_MU_N1 = {(-2,): math.sqrt(1 / 6), (-1,): 0.5, (1,): math.sqrt(1 / 3), (2,): 0.5}


@pytest.mark.parametrize("terms, theta, k_max, direct", [
    ({(-1,): _SQ, (1,): _SQ}, (F(0),), 1000, True),
    (_MU_N1, (F(1, 4),), 1200, True),
    ({(0,): 0.3, (1,): 0.2, (200,): 0.6}, (F(50),), 66, False),
], ids=["qubit", "mu-n1", "wide"])
def test_one_axis_jumps_are_direct_where_an_fft_costs_more(terms, theta, k_max, direct, monkeypatch):
    # Past the point mass a one-axis jump is one numpy.convolve product with
    # the uncropped law of S_J where its a b multiply-adds cost less than an
    # FFT product (_direct_pays): the qubit's K_32 spans 33 cells and the
    # four-weight kernel's 129, against rows of a few hundred. wide's K_32
    # spans 6401 cells, so it jumps by FFT products with the cropped K_32
    # (_row_conv). Either way the rows stay within 1e-12 in log of the
    # stream stepped once per k. (From k = 68 on, wide's rows fall below
    # 1e-9, where they have only the dropped-mass bound; the report test
    # holds them to the exact table.)
    choices, convs = [], []
    pays, conv = projection._direct_pays, projection._row_conv
    monkeypatch.setattr(projection, "_direct_pays", lambda a, b: choices.append(pays(a, b)) or choices[-1])
    monkeypatch.setattr(projection, "_row_conv", lambda a, b: convs.append(a.arr.size) or conv(a, b))
    v = WeightedVector.from_terms(1, terms)
    rep = duality_report(v, theta, k_max)
    want, _ = _per_k_report(v, theta, k_max)
    assert choices and set(choices) == {direct}
    assert len(convs) == (0 if direct else len(choices))
    assert [(r[0], r[1].sign) for r in rep.rows] == [(r[0], r[1].sign) for r in want]
    for got, ref in zip(rep.rows, want):
        if ref[1].sign:
            assert abs(got[1].log_mag - ref[1].log_mag) <= 1e-12, got[0]
    assert rep.metadata["dropped_mass"] <= 1e-9


@pytest.mark.parametrize("terms, theta, k_max, stacked", [
    ({(-1,): _SQ, (1,): _SQ}, (F(0),), 1000, True),
    (_MU_N1, (F(1, 4),), 1200, True),
    ({(0,): 0.3, (1,): 0.2, (200,): 0.6}, (F(50),), 100, False),
], ids=["qubit", "mu-n1", "wide"])
def test_one_axis_read_stack_fits_beside_the_laws(terms, theta, k_max, stacked, monkeypatch):
    # On one axis the laws K_P .. K_J are read flipped and stacked, each
    # padded to K_J's width, where that stack fits beside them in
    # _LAW_CELLS, and otherwise one dot product a read, as on more axes.
    # wide (P = 1, J = 32) would stack 32 x 6401 cells beside its 105,632
    # law cells; the others stack 32 x 33 and 32 x 129 cells.
    built, stacks, dots = [], [], []
    laws, reads, dot = projection._exact_laws, projection._reads, projection._cst_of_product
    monkeypatch.setattr(projection, "_exact_laws",
                        lambda stream, steps: (built.append(K) or K for K in laws(stream, steps)))
    monkeypatch.setattr(projection, "_reads", lambda row, flipped, *a: (
        stacks.append(flipped.base.shape) or reads(row, flipped, *a)))
    monkeypatch.setattr(projection, "_cst_of_product", lambda a, b: dots.append(1) or dot(a, b))
    v = WeightedVector.from_terms(1, terms)
    rep = duality_report(v, theta, k_max)
    P = _read_period(rep.metadata["period"], rep.metadata["capacity"])
    J = len(built) - 1
    law_cells = sum(K.arr.size for j, K in enumerate(built) if j and j % P == 0)
    stack_cells = J // P * built[-1].arr.size
    assert J == 32
    if stacked:
        assert set(stacks) == {(J // P, built[-1].arr.size)} and not dots
        assert stack_cells + law_cells <= projection._LAW_CELLS
    else:
        assert not stacks and len(dots) == k_max // P
        assert stack_cells + law_cells > projection._LAW_CELLS


@pytest.mark.parametrize("W, p, period, jumps", [
    ([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [0.3, 0.1, 0.2, 0.15, 0.25], 12, 15),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], [0.4, 0.3, 0.2, 0.1], 10, 8),
], ids=["n2", "n3"])
def test_fft_jump_rows_account_for_the_dropped_mass(W, p, period, jumps):
    # A jump convolves the row with K, the law of S_period cropped once at
    # the floor, by FFT, and crops the product. The first jump holds K
    # itself, smaller than the uncropped law; K's mass is within 4 period
    # eps of 1 less its cut (period exact steps), each product loses at
    # most that cut again, and rounds its total by a few eps per level of
    # the FFT's butterflies, 4 eps log2(cells). So the mass of the last row
    # is 1 minus everything the crops removed, within tol, and the crops
    # remove more than ten times tol.
    stream = _RowStream(np.array(W), np.array(p))
    *_, law = projection._exact_laws(stream, period)
    arr, offset, cut = projection._crop(law.arr.copy(), law.offset,
                                        float(law.arr.max()) * stream.floor)
    eps = np.finfo(float).eps
    tol = 0.0
    for _ in range(jumps):
        cells = math.prod((np.array(stream.row.arr.shape) + arr.shape - 1).tolist())
        tol += 4 * eps * (period + math.log2(cells))
        stream.jump(projection._Row(arr, offset), period, cut, law)
        if stream.k == period:
            assert stream.dropped == cut and stream.row.arr.size <= law.arr.size
    assert stream.k == jumps * period and stream.crops == jumps
    assert stream.dropped > 10 * tol
    assert abs(1.0 - float(stream.row.arr.sum()) - stream.dropped) <= tol
    assert stream.max_row_cells >= stream.row.arr.size


def test_first_held_row_is_the_cropped_law(monkeypatch):
    # From the point mass a jump holds K_J cropped at the floor, not K_J:
    # the pentagon's K_32 spans 97 x 97 cells, and (1/5)^32 of its corners
    # sit far below 1e-12 of its largest. The crop's cut is the first
    # dropped mass and the first crop, and the reads, through the uncropped
    # laws, still match the stream stepped once per k.
    held = []
    jump = _RowStream.jump

    def recorded(self, law, steps, cut, exact):
        first = self.k == 0
        jump(self, law, steps, cut, exact)
        if first:
            held.append((self.row.arr.shape, self.dropped, self.crops, cut))

    monkeypatch.setattr(_RowStream, "jump", recorded)
    v = WeightedVector.from_terms(2, _PENTAGON)
    rep = duality_report(v, (F(1), F(1)), 200)
    (shape, dropped, crops, cut), = held
    assert 0 < cut == dropped and crops == 1
    assert shape[0] < 97 and shape[1] < 97
    want, _ = _per_k_report(v, (F(1), F(1)), 200)
    for got, ref in zip(rep.rows, want):
        if ref[1].sign:
            assert abs(got[1].log_mag - ref[1].log_mag) <= 1e-12, got[0]


def test_held_reads_cost_a_jump_by_the_product_it_forms(monkeypatch):
    # Once the laws are built, the cost test counts the cells of the product
    # a jump forms: the held row's box plus the cropped K_J's box, minus one
    # per axis. On this kernel (J = 17, a K_17 box of 103 x 188 cells) the
    # uncropped box would count more than the jump's product at k0 = 119 and
    # 136, enough to pick 17 steps there; the product's count picks the jump.
    stream = _RowStream(np.array([[-6, 0], [-2, -1], [5, 5]]), np.array([0.27, 0.02, 0.71]))
    J = projection._held_period(np.array(stream.kernel.arr.shape) - 1, 1, 140)
    uncropped = J * (np.array(stream.kernel.arr.shape) - 1)
    pays, jump = projection._fft_pays, _RowStream.jump
    costs, products = [], []

    def counted(steps, terms, cells):
        shape = np.array(stream.row.arr.shape) if stream.k else uncropped + 1
        old = math.prod((shape + uncropped).tolist())
        costs.append((stream.k, cells, pays(steps, terms, cells), pays(steps, terms, old)))
        return costs[-1][2]

    def recorded(self, law, steps, cut, exact):
        if self.k:
            products.append((self.k, math.prod((np.array(self.row.arr.shape) + law.arr.shape - 1).tolist())))
        jump(self, law, steps, cut, exact)

    monkeypatch.setattr(projection, "_fft_pays", counted)
    monkeypatch.setattr(_RowStream, "jump", recorded)
    reads = list(projection._held_reads(stream, 1, 140, np.zeros(2, dtype=np.int64)))
    assert J == 17 and len(reads) == 140
    assert all(jumped for _, _, jumped, _ in costs)
    assert products == [(k0, cells) for k0, cells, _, _ in costs if k0 and k0 + J < 140]
    assert [k0 for k0, _, new, old in costs if new != old] == [119, 136]


_CORNER2 = [[0, 0], [3, 0], [0, 2], [3, 2], [1, 1]]
_CORNER3 = [[0, 0, 0], [2, 0, 0], [0, 3, 0], [0, 0, 2], [2, 3, 2], [1, 1, 1]]


def _corner_stream(W, floor):
    """A stream whose kernel holds the far corner of its box: the shift with
    the largest flat offset in a step's layout (_RowStream._shift_add)."""
    p = np.arange(1.0, len(W) + 1)
    stream = _RowStream(np.array(W), p / p.sum(), floor)
    assert tuple(np.array(stream.kernel.arr.shape) - 1) in [w for w, _ in stream.terms]
    return stream


@pytest.mark.parametrize("W, n_steps", [(_CORNER2, 60), (_CORNER3, 24)], ids=["n2", "n3"])
def test_step_matches_the_shift_and_add_oracle(W, n_steps):
    # Every step equals the direct shift and add (util.shift_add_step) bit
    # for bit, cropped where the stream cropped: from a row in a working
    # buffer, from a crop's copy, and from a jump's row (the cropped law
    # from the point mass, then an FFT product).
    stream = _corner_stream(W, 1e-6)
    *_, law = projection._exact_laws(stream, 4)
    arr, offset, cut = projection._crop(law.arr.copy(), law.offset,
                                        float(law.arr.max()) * stream.floor)
    kinds, kind = set(), None
    for i in range(n_steps):
        if i in (0, n_steps // 2):
            stream.jump(_Row(arr, offset), 4, cut, law)
            kind = "jump"
        prev, crops = _Row(stream.row.arr.copy(), stream.row.offset), stream.crops
        stream.step()
        want = shift_add_step(prev.arr, stream.terms)
        want_offset = prev.offset + stream.kernel.offset
        if stream.crops > crops:
            want, want_offset, _ = projection._crop(want, want_offset, float(want.max()) * stream.floor)
        assert np.array_equal(stream.row.arr, want), (i, kind)
        assert stream.row.offset.tolist() == want_offset.tolist()
        kinds.add(kind)
        kind = "crop" if stream.crops > crops else "buffer"
    assert kinds == {"jump", "crop", "buffer"}


@pytest.mark.parametrize("W", [_CORNER2, _CORNER3], ids=["n2", "n3"])
def test_log_step_matches_the_shift_and_add_oracle(W):
    # Log steps from rows that hold -inf cells (the kernel box's empty
    # cells, and every fifth cell of the first row set to -inf) equal the
    # direct shift and add in log domain bit for bit.
    stream = _corner_stream(W, 0.0)
    logq = [math.log(pw) for _, pw in stream.terms]
    with np.errstate(divide="ignore"):
        row = _Row(np.log(stream.kernel.arr), stream.kernel.offset)
    row.arr.flat[::5] = -np.inf
    for _ in range(6):
        assert np.isneginf(row.arr).any()
        got = projection._step_log(row, stream, logq)
        want = shift_add_step(row.arr, [(w, lq) for (w, _), lq in zip(stream.terms, logq)], log=True)
        assert np.array_equal(got.arr, want)
        assert got.offset.tolist() == (row.offset + stream.kernel.offset).tolist()
        row = got


@pytest.mark.parametrize("terms, k_max, log_steps", [
    # p_min about 4.1e-5: rows 1 .. 68 linear, then 32 log steps
    ({(0, 0): 1.0, (1, 0): 0.9, (0, 1): 0.8, (1, 1): 0.011, (2, 1): 0.7}, 100, 32),
    ({(0, 0, 0): 1.0, (2, 0, 0): 0.8, (0, 3, 0): 0.6, (0, 0, 2): 0.7, (1, 1, 1): 0.9}, 30, 0),
], ids=["n2-handoff", "n3"])
def test_table_buffers_are_sized_once_and_exactly(terms, k_max, log_steps, monkeypatch):
    # projection_norm_table sizes the stream's four working buffers before
    # the first step: no step grows one, each is as large as the largest
    # view any step takes of it, and the budget it checks is exact (the
    # rows with their tails and the buffers), its MemoryError raised before
    # any step.
    held, need = {}, {}
    buffer = _RowStream._buffer

    def recorded(self, i, size):
        assert self._bufs[i].size >= size, f"buffer {i} grew to {size}"
        held[i], need[i] = self._bufs[i].size, max(need.get(i, 0), size)
        return buffer(self, i, size)

    monkeypatch.setattr(_RowStream, "_buffer", recorded)
    v = WeightedVector.from_terms(len(next(iter(terms))), terms)
    table, first_log = _table_and_first_log_row(monkeypatch, v, k_max)
    assert k_max + 1 - first_log == log_steps
    assert sorted(held) == [0, 1, 2, 3] and held == need
    total = 8 * sum(held.values()) + sum((r.arr if r.arr.base is None else r.arr.base).nbytes
                                         for r in table._rows)
    assert projection_norm_table(v, k_max, max_bytes=total).k_max == k_max

    def no_step(self):
        raise AssertionError("a row was built")

    monkeypatch.setattr(_RowStream, "step", no_step)
    monkeypatch.setattr(projection, "_step_log", no_step)
    with pytest.raises(MemoryError, match=f"at k = {k_max},"):
        projection_norm_table(v, k_max, max_bytes=total - 1)


def test_k_max_below_one_or_fractional_rejected():
    v = binomial_vector()
    for k_max in (0, -3, 2.5):
        with pytest.raises(ValueError, match="k_max must be an integer at least 1"):
            duality_report(v, (F(1, 2),), k_max)
        with pytest.raises(ValueError, match="k_max must be an integer at least 1"):
            projection_norm_table(v, k_max)
        with pytest.raises(ValueError, match="k_max must be an integer at least 1"):
            prefactor_sequence(balanced_vector(), k_max=k_max)


def test_difference_lattice_examples():
    assert difference_lattice(binomial_vector()) == (1, 1)
    assert difference_lattice(balanced_vector()) == (1, 2)
    single = WeightedVector.from_terms(2, {(0, 0): 1.0})
    assert difference_lattice(single) == (0, 1)
    # arithmetic period only: {1, 3} meets 0 mod the lattice at even k
    v = WeightedVector.from_terms(1, {(1,): 1.0, (3,): 1.0})
    assert difference_lattice(v) == (1, 2)
    # base weight outside the rational span of the differences: unreachable
    w = WeightedVector.from_terms(2, {(1, 0): 1.0, (1, 2): 1.0})
    with pytest.raises(ValueError):
        difference_lattice(w)


def test_prefactor_balanced_binomial():
    # k^{1/2} * C(k, k/2) / 2^k -> sqrt(2/pi)
    seq = prefactor_sequence(balanced_vector(), ks=[10, 100, 1000])
    vals = dict(seq)
    assert set(vals) == {10, 100, 1000}
    for k, val in vals.items():
        exact = math.sqrt(k) * math.comb(k, k // 2) / 2**k
        assert math.isclose(val, exact, rel_tol=1e-9)
    assert abs(vals[1000] - math.sqrt(2 / math.pi)) < 2e-4


def _direct_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution by shift-and-add."""
    out = np.zeros(tuple(x + y - 1 for x, y in zip(a.shape, b.shape)))
    for idx in np.ndindex(*b.shape):
        out[tuple(slice(i, i + m) for i, m in zip(idx, a.shape))] += b[idx] * a
    return out


@pytest.mark.parametrize("shapes", [
    ((1,), (1,)), ((7,), (13,)), ((101,), (97,)), ((1,), (31,)),
    ((5, 3), (7, 11)), ((13, 1), (3, 17)), ((3, 5, 7), (5, 3, 3))])
def test_row_conv_matches_direct_convolution(shapes):
    rng = np.random.default_rng(sum(map(sum, shapes)))
    a, b = (rng.random(s) for s in shapes)
    a.flat[0] = b.flat[-1] = 1.0
    n = a.ndim
    out, _ = _row_conv(_Row(a, np.arange(n, dtype=np.int64)), _Row(b, -np.ones(n, dtype=np.int64)))
    want = _direct_conv(a, b)
    m = want.max()
    # _row_conv crops zero margins, which random positive rows do not have
    assert out.arr.shape == want.shape
    assert np.array_equal(out.offset, np.arange(n) - 1)
    assert np.max(np.abs(out.arr - want)) / m <= 1e-13
    if n == 1:
        assert np.max(np.abs(out.arr - np.convolve(a, b))) / m <= 1e-13


@pytest.mark.parametrize("n, seed", [(1, 0), (1, 1), (2, 2), (2, 3)])
def test_cst_of_product_matches_direct_convolution(n, seed):
    # sum_x a[x] b[-x] is the t^0 entry of the full product a * b; boxes
    # that do not overlap at 0 give an exact zero
    rng = np.random.default_rng(70 + seed)
    for trial in range(20):
        a, b = (rng.random(tuple(rng.integers(1, 9, n))) for _ in range(2))
        oa, ob = (rng.integers(-12, 6, n) for _ in range(2))
        rng.normal(size=2)  # part of the seeded sequence that fixes the trial boxes
        got = _cst_of_product(_Row(a, oa), _Row(b, ob))
        full = _direct_conv(a, b)
        idx = tuple(-(oa + ob))  # 0 - (lower corner of the product)
        if any(i < 0 or i >= m for i, m in zip(idx, full.shape)):
            assert got == 0, trial
            continue
        assert got > 0
        assert math.isclose(got, full[idx], rel_tol=1e-13), trial
    far = _Row(np.ones((3,) * n), np.full(n, 5))
    assert _cst_of_product(far, far) == 0


def _cross() -> WeightedVector:
    return WeightedVector.from_terms(
        2, {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5})


@pytest.mark.parametrize("kwargs", [
    {"ks": list(range(200, 301, 2))},   # anchor at 200, walk to 300
    {"ks": [100, 4000]},                # one FFT jump
    {"k_max": 200},                     # every even k from m = 2
], ids=["walk", "jump", "dense"])
def test_prefactor_cross_matches_closed_form(kwargs):
    # the 4-weight cross +-e1, +-e2 projects to the product of two
    # independent balanced walks: k |Pi_k v^{tensor k}|^2 = k C(k, k/2)^2 / 4^k
    seq = prefactor_sequence(_cross(), **kwargs)
    ks = kwargs.get("ks") or list(range(2, kwargs.get("k_max", 0) + 1, 2))
    assert [k for k, _ in seq] == ks
    for k, val in seq:
        want = math.exp(math.log(k) + 2 * (math.lgamma(k + 1) - 2 * math.lgamma(k // 2 + 1))
                        - k * math.log(4))
        assert math.isclose(val, want, rel_tol=1e-9), k


def test_prefactor_rejects_k_max_with_ks():
    with pytest.raises(ValueError, match="not both"):
        prefactor_sequence(balanced_vector(), k_max=10, ks=[4, 6])
    with pytest.raises(ValueError, match="pass k_max or"):
        prefactor_sequence(balanced_vector())


def test_fft_len_is_the_smallest_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    want = 10**4 + 1
    while not smooth(want):
        want += 1
    for n in range(10**4, 0, -1):
        if smooth(n):
            want = n
        assert _fft_len(n) == want, n


def test_prefactor_zero_dimensional_lattice():
    # single zero weight: d = 0 and the sequence is constantly 1
    v = WeightedVector.from_terms(1, {(0,): 1.0})
    seq = prefactor_sequence(v, k_max=5)
    assert [val for _, val in seq] == pytest.approx([1.0] * 5)


def test_prefactor_requires_centered_unit_vector():
    with pytest.raises(ValueError):
        prefactor_sequence(binomial_vector(), k_max=4)  # mu = 1/2 != 0
    v = WeightedVector.from_terms(1, {(-1,): 1.0, (1,): 1.0})
    with pytest.raises(ValueError):
        prefactor_sequence(v, k_max=4)  # norm^2 = 2


def test_prefactor_filters_to_period():
    seq = prefactor_sequence(balanced_vector(), k_max=9)
    assert [k for k, _ in seq] == [2, 4, 6, 8]


def test_projection_agrees_with_constant_term():
    # |Pi_{k,0} v^{tensor k}|^2 equals cst(f^k) for f = sum |c_w|^2 z^w
    v = balanced_vector()
    f = LaurentPoly({-1: F(1, 2), 1: F(1, 2)})
    table = projection_norm_table(v, 12)
    csts = laurent_cst_powers(f, 12)
    for k in (2, 4, 8, 12):
        exact = csts[k]
        got = table.get(k, (0,)).to_float()
        assert math.isclose(got, float(exact), rel_tol=1e-10)


def test_laurent_cst_exact_values():
    f = LaurentPoly({1: F(1), -1: F(1)})
    csts = laurent_cst_powers(f, 60)
    assert all(type(c) is F for c in csts)
    assert csts == [F(math.comb(k, k // 2)) if k % 2 == 0 else F(0)
                    for k in range(61)]
    assert laurent_cst_powers(f, 0) == [F(1)]
    with pytest.raises(ValueError):
        laurent_cst_powers(f, -1)


# four terms with denominators 3, 5, 7 and 11 and one negative coefficient
RATIONAL_4 = {-2: F(1, 3), -1: F(-2, 5), 1: F(3, 7), 3: F(4, 11)}


def test_laurent_cst_rational_matches_brute_force():
    csts = laurent_cst_powers(LaurentPoly(RATIONAL_4), 8)
    terms = list(RATIONAL_4.items())
    for k in range(9):
        want = F(0)
        for combo in itertools.product(terms, repeat=k):
            if sum(e for e, _ in combo) == 0:
                want += math.prod((c for _, c in combo), start=F(1))
        assert csts[k] == want and type(csts[k]) is F


def test_laurent_cst_zero_and_constant_polynomials():
    assert laurent_cst_powers(LaurentPoly({}), 3) == [F(1), F(0), F(0), F(0)]
    assert laurent_cst_powers(LaurentPoly({0: F(2, 3)}), 3) == [
        F(1), F(2, 3), F(4, 9), F(8, 27)]
    # one-sided f: no power has a constant term
    assert laurent_cst_powers(LaurentPoly({1: F(1), 2: F(1)}), 2) == [F(1), F(0), F(0)]
    got = laurent_cst_powers(LaurentPoly({0: 1 + 1j}), 3)
    assert got == [1, 1 + 1j, 2j, -2 + 2j]
    assert all(type(c) is complex for c in got)


def test_laurent_cst_complex_coefficients():
    f = LaurentPoly({1: 1.0 + 1.0j, -1: 0.5})
    # cst(f^2) = 2 * (1+i) * 0.5
    got = laurent_cst_powers(f, 2)[2]
    assert abs(got - (1.0 + 1.0j)) < 1e-12


@pytest.mark.parametrize("terms", [
    {1: 1.0, -1: 1.0, 0: 2j},
    {1: 1 + 1j, -1: 0.5},
    {2: 1.5 - 0.25j, 0: -1.0, -1: 0.75j},
], ids=["walk-plus-2i", "tilted", "mixed-sign"])
def test_laurent_cst_complex_matches_gaussian_oracle(terms):
    k_max = 200
    got = laurent_cst_powers(LaurentPoly(terms), k_max)
    exact = gaussian_cst_powers(terms, k_max)
    for k in range(k_max + 1):
        re, im = exact[k]
        err_sq = (F(got[k].real) - re) ** 2 + (F(got[k].imag) - im) ** 2
        assert err_sq <= F(1, 10**28) * (re * re + im * im), k


def test_critical_values_symmetric_walk():
    cv = critical_values(LaurentPoly({1: F(1), -1: F(1)}))
    vals = sorted(v.real for v in cv.values)
    assert len(vals) == 2
    assert math.isclose(vals[0], -2.0, abs_tol=1e-9)
    assert math.isclose(vals[1], 2.0, abs_tol=1e-9)
    assert math.isclose(cv.max_modulus, 2.0, abs_tol=1e-9)
    assert math.isclose(cv.positive_real_value, 2.0, abs_tol=1e-9)


def test_critical_values_match_growth_rate():
    f = LaurentPoly({1: F(1), -1: F(1)})
    root = abs(laurent_cst_powers(f, 60)[60]) ** (1 / 60)
    assert abs(root - 2.0) < 0.08  # C(60,30)^{1/60}, slow sqrt(k) correction


def test_critical_values_asymmetric():
    # z^2 + 1/z: critical points at the cube roots of 1/2
    cv = critical_values(LaurentPoly({2: 1.0, -1: 1.0}))
    assert len(cv.values) == 3
    expected = 3.0 * 2.0 ** (-2 / 3)
    assert math.isclose(cv.max_modulus, expected, rel_tol=1e-9)
    assert math.isclose(cv.positive_real_value, expected, rel_tol=1e-9)


def test_positive_real_matches_capacity():
    # for nonnegative coefficients with exponents of both signs,
    # inf_{x>0} f(x) = cap_0(v)^2 with |c_w|^2 = a_w, attained at the one
    # root of z f'(z) on the positive axis
    rng = np.random.default_rng(20)
    cases = [{1: 0.5, -1: 0.5}]
    while len(cases) < 120:
        es = rng.choice(np.arange(-8, 9), size=rng.integers(2, 7), replace=False)
        if es.min() < 0 < es.max():
            cases.append({int(e): float(rng.uniform(0.01, 3.0)) for e in es})
    for a in cases:
        cv = critical_values(LaurentPoly(a))
        v = WeightedVector.from_terms(1, {(e,): math.sqrt(c) for e, c in a.items()})
        cap = theta_capacity(v, (F(0),))
        assert math.isclose(cv.positive_real_value, math.exp(2 * cap.log_cap.log_mag),
                            rel_tol=1e-12), a
        t = cv.positive_real_point
        assert isinstance(t, float) and t > 0, a
        scale = max(abs(e) * c for e, c in a.items())
        assert abs(sum(e * c * t ** e for e, c in a.items())) <= 1e-9 * scale, a


def test_critical_values_keep_tiny_and_huge_roots():
    # z f'(z) = z - 1e-30/z: roots +-1e-15, and +-1e15 for the mirror
    for terms, root in (({1: 1.0, -1: 1e-30}, 1e-15), ({1: 1e-30, -1: 1.0}, 1e15)):
        cv = critical_values(LaurentPoly(terms))
        assert sorted(z.real for z in cv.points) == pytest.approx([-root, root], rel=1e-12)
        assert math.isclose(cv.max_modulus, 2e-15, rel_tol=1e-12)
        assert math.isclose(cv.positive_real_point, root, rel_tol=1e-12)
        assert math.isclose(cv.positive_real_value, 2e-15, rel_tol=1e-12)


def test_critical_values_fail_only_with_runtime_error():
    # Badly scaled f give spurious companion-matrix roots whose residual
    # overflows to nan and whose f(z) overflows: each is the documented
    # RuntimeError, never a bare OverflowError or ZeroDivisionError.
    for terms in ({400: 1e-200, -1: 1.0}, {200: 2.0, -200: 1e-100}):
        with pytest.raises(RuntimeError, match="refinement stalled at .*, residual nan"):
            critical_values(LaurentPoly(terms))
    rng = np.random.default_rng(3)
    failed = 0
    for _ in range(300):
        es = [-int(rng.integers(1, 31)), int(rng.integers(1, 31)),
              *(int(e) for e in rng.integers(-30, 31, size=int(rng.integers(0, 3))))]
        try:
            critical_values(LaurentPoly({e: 10.0 ** rng.uniform(-40, 40) for e in es}))
        except RuntimeError:
            failed += 1
    assert 0 < failed < 100


def test_critical_values_of_a_monomial():
    # c z^e, e != 0, has no critical point on C minus the origin
    for terms in ({1: 1}, {-3: 2.5}, {2: 1 + 1j}):
        cv = critical_values(LaurentPoly(terms))
        assert cv.points == cv.values == ()
        assert cv.max_modulus == 0.0
        assert cv.positive_real_point is None


def test_positive_real_one_sided():
    # no negative exponents: the infimum over x > 0 is the constant term
    cv = critical_values(LaurentPoly({0: 3.0, 2: 1.0}))
    assert cv.positive_real_point is None
    assert math.isclose(cv.positive_real_value, 3.0, rel_tol=1e-12)


def test_table_memory_guard():
    v = WeightedVector.from_terms(3, {(0, 0, 0): 1.0, (100, 100, 100): 1.0,
                                      (0, 100, 0): 1.0})
    with pytest.raises(MemoryError, match=r"at k = \d+, chart extent \(\d+, \d+\)"):
        projection_norm_table(v.normalized(), 100, max_bytes=10**6)
