import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from capdual import capacity, exactlp
from capdual.capacity import (_face_search, capacity_kl_form, moment_map,
                              moment_polytope_contains, theta_capacity)
from capdual.core import WeightedVector, WeightVector
from capdual.projection import duality_report

from util import (per_weight_minimal_face, random_feasible_theta,
                  random_weighted_vector)

F = Fraction


def binomial_vector(p0: float, p1: float) -> WeightedVector:
    return WeightedVector.from_terms(
        1, {(0,): math.sqrt(p0), (1,): math.sqrt(p1)})


def test_boundary_theta_picks_up_single_weight_mass():
    # at a vertex of the weight polytope the capacity is the vertex mass
    v = binomial_vector(0.8, 0.2)
    res = theta_capacity(v, (F(0),))
    assert math.isclose(math.exp(2 * res.log_cap.log_mag), 0.8, rel_tol=1e-12)
    assert res.diverging  # minimizer escapes to infinity along the face normal
    res1 = theta_capacity(v, (F(1),))
    assert math.isclose(math.exp(2 * res1.log_cap.log_mag), 0.2, rel_tol=1e-12)


def test_kl_form_matches_closed_form():
    # -log cap^2 = D(p||q) minimized at p = delta_0 here: log(1/0.8)
    v = binomial_vector(0.8, 0.2)
    out = capacity_kl_form(v, (F(0),))
    assert math.isclose(out.log_mag, -math.log(1.25), rel_tol=1e-12)


def test_capacity_one_at_moment_map():
    # cap_theta(v) = |v| = 1 exactly when theta = mu(v)
    v = binomial_vector(0.4, 0.6)
    res = theta_capacity(v, (F(3, 5),))
    assert abs(res.log_cap.log_mag) <= 1e-12
    assert not res.diverging
    mu = moment_map(v)
    assert np.allclose(mu, [0.6])


def test_uniform_vertex_capacity():
    v = binomial_vector(0.5, 0.5)
    res = theta_capacity(v, (F(1),))
    assert math.isclose(math.exp(2 * res.log_cap.log_mag), 0.5, rel_tol=1e-12)
    assert res.diverging


def test_single_weight_vector():
    v = WeightedVector.from_terms(2, {(1, 2): 0.7})
    hit = theta_capacity(v, (F(1), F(2)))
    assert math.isclose(hit.log_cap.to_float(), 0.7, rel_tol=1e-12)
    assert hit.status == "converged"
    missed = theta_capacity(v, (F(0), F(2)))
    assert missed.log_cap.sign == 0
    assert missed.status == "outside"
    cert = missed.certificate
    assert not cert.inside
    a, offset = cert.separator
    # the separating functional must be violated by theta and not the support
    assert sum(ai * wi for ai, wi in zip(a, (1, 2))) <= offset
    assert sum(ai * ti for ai, ti in zip(a, (F(0), F(2)))) > offset


def test_membership_certificate_convex_combination():
    v = random_weighted_vector(np.random.default_rng(11), n=2, n_terms=4)
    theta = random_feasible_theta(np.random.default_rng(12), v)
    cert = moment_polytope_contains(v, theta)
    assert cert.inside
    combo = cert.coefficients
    total = [Fraction(0)] * v.n
    mass = Fraction(0)
    for w, lam in combo:
        assert lam >= 0
        mass += lam
        for j, wj in enumerate(w.coords):
            total[j] += lam * wj
    assert mass == 1
    assert tuple(total) == tuple(theta)


def test_capacity_positive_iff_member():
    rng = np.random.default_rng(23)
    inside_count = outside_count = 0
    for seed in range(40):
        v = random_weighted_vector(np.random.default_rng(seed), n=2, n_terms=3)
        theta = random_feasible_theta(np.random.default_rng(seed + 1000), v)
        res = theta_capacity(v, theta)
        assert res.certificate.inside
        assert res.log_cap.sign == 1
        inside_count += 1
        # move theta outside by a large translation
        shifted = tuple(t + 50 for t in theta)
        out = theta_capacity(v, shifted)
        if not out.certificate.inside:
            assert out.log_cap.sign == 0
            outside_count += 1
    assert inside_count == 40 and outside_count == 40


def test_solver_cross_check_many_seeds():
    # independent optimizers must agree: log-sum-exp Newton vs KL program
    failures = []
    for seed in range(100):
        v = random_weighted_vector(np.random.default_rng(seed), n=2,
                                   n_terms=3 + seed % 3).normalized()
        theta = random_feasible_theta(np.random.default_rng(10_000 + seed), v)
        primal = theta_capacity(v, theta)
        kl = capacity_kl_form(v, theta)
        if primal.log_cap.sign == 0 or kl.sign == 0:
            failures.append((seed, "unexpected zero"))
            continue
        if primal.status != "converged":
            failures.append((seed, primal.status, primal.gradient_norm))
        diff = abs(2 * primal.log_cap.log_mag - kl.log_mag)
        if diff > 1e-8:
            failures.append((seed, diff))
    assert not failures, failures


def test_kempf_ness_stationarity():
    # at the optimum of an interior theta the rescaled vector has mu = theta
    rng = np.random.default_rng(5)
    for seed in range(20):
        v = random_weighted_vector(np.random.default_rng(seed), n=2,
                                   n_terms=4).normalized()
        support = [w.coords for w, _ in v.terms]
        coeffs = [1] * len(support)  # barycenter is interior when affinely full
        denom = len(support)
        theta = tuple(sum(F(w[j], denom) for w in support) for j in range(2))
        res = theta_capacity(v, theta)
        if res.diverging or res.minimizer_x is None:
            continue
        shifted = v.scaled_by_character(res.minimizer_x).normalized()
        mu = moment_map(shifted)
        assert np.allclose(mu, [float(t) for t in theta], atol=1e-7)


def test_log_concavity_along_segments():
    v = random_weighted_vector(np.random.default_rng(77), n=2,
                               n_terms=4).normalized()
    t0 = random_feasible_theta(np.random.default_rng(78), v)
    t1 = random_feasible_theta(np.random.default_rng(79), v)
    mid = tuple((a + b) / 2 for a, b in zip(t0, t1))
    c0 = theta_capacity(v, t0).log_cap
    c1 = theta_capacity(v, t1).log_cap
    cm = theta_capacity(v, mid).log_cap
    if c0.sign and c1.sign:
        assert cm.sign == 1
        assert cm.log_mag >= 0.5 * (c0.log_mag + c1.log_mag) - 1e-8


def test_borel_character_shift():
    # rescaling amplitudes by e^{<w,x0>} shifts log cap^2 by 2<theta,x0>
    v = random_weighted_vector(np.random.default_rng(31), n=2,
                               n_terms=4, complex_amps=False)
    theta = random_feasible_theta(np.random.default_rng(32), v)
    x0 = [0.3, -0.7]
    base = theta_capacity(v, theta)
    shifted = theta_capacity(v.scaled_by_character(x0), theta)
    expected = 2 * base.log_cap.log_mag + 2 * sum(
        float(t) * x for t, x in zip(theta, x0))
    assert math.isclose(2 * shifted.log_cap.log_mag, expected,
                        rel_tol=1e-9, abs_tol=1e-9)


def test_gradient_norm_reported_small():
    v = binomial_vector(0.3, 0.7)
    res = theta_capacity(v, (F(1, 2),))
    assert res.gradient_norm <= 1e-10
    assert res.iterations > 0
    assert res.status == "converged"


def test_newton_finishes_on_the_gradient():
    # q = (0.25, 0.36, 0.39) on {0, 1, 2} at theta = 1: the stationarity
    # condition q0 = q2 e^{4x} gives x* = log(q0 / q2) / 4. The Armijo test
    # stops near |g| = 1e-8, where the drop in F is below its rounding; the
    # full Newton steps after it finish on the gradient.
    v = WeightedVector.from_terms(1, {(0,): 0.5, (1,): 0.6, (2,): math.sqrt(0.39)})
    res = theta_capacity(v, (F(1),))
    q = v.amplitudes_sq()
    x_star = math.log(q[WeightVector((0,))] / q[WeightVector((2,))]) / 4
    assert res.status == "converged"
    assert abs(res.minimizer_x[0] - x_star) <= 1e-15
    assert res.gradient_norm <= 1e-14


def test_max_iter_stop_is_reported():
    res = theta_capacity(binomial_vector(0.3, 0.7), (F(1, 2),), max_iter=1)
    assert res.status == "max_iter"
    assert res.iterations == 1
    assert res.gradient_norm > 1e-10


def test_stalling_instance_stops_at_float_resolution():
    # criterion-8 seed 53: the Armijo test fails below the resolution of F
    # after a few steps, where the solver used to run to max_iter
    v = random_weighted_vector(np.random.default_rng(53), n=2, n_terms=5,
                               box=2).normalized()
    theta = random_feasible_theta(np.random.default_rng(553), v,
                                  denominator_bound=4)
    res = theta_capacity(v, theta)
    assert res.status != "max_iter"
    assert res.iterations < 20
    assert not res.diverging
    mu = moment_map(v.scaled_by_character(res.minimizer_x).normalized())
    assert np.allclose(mu, [float(t) for t in theta], rtol=0, atol=1e-7)
    assert abs(2 * res.log_cap.log_mag - capacity_kl_form(v, theta).log_mag) <= 1e-8


def _two_weight_log_cap_sq(v: WeightedVector) -> float:
    """log cap_0(v)^2 for weights a < 0 < b: -sum_i p_i log(p_i / q_i) with
    p = (b, -a) / (b - a), the only law on {a, b} with mean 0."""
    (a, qa), (b, qb) = sorted((w.coords[0], q) for w, q in v.amplitudes_sq().items())
    pa, pb = b / (b - a), -a / (b - a)
    return -(pa * math.log(pa / qa) + pb * math.log(pb / qb))


def test_newton_on_badly_scaled_targets():
    # p at y = 0 sits almost all on one weight, so the Hessian is about
    # 1e-20 and the Newton step about 1e21 long: no halving of it descends,
    # and full steps that cut |g| raised F by orders of magnitude.
    v = WeightedVector.from_terms(1, {(-24,): 1.0, (14,): math.sqrt(3.86e-24)})
    res = theta_capacity(v, (F(0),))
    assert res.status == "converged"
    assert abs(2 * res.log_cap.log_mag - -33.39117951669711) <= 1e-12
    assert abs(2 * res.log_cap.log_mag - _two_weight_log_cap_sq(v)) <= 1e-12
    rep = duality_report(v, (F(0),), 40)
    gaps = [gap for k, *_, gap in rep.rows if k % 19 == 0]  # k c_0 = 12 k / 19
    assert len(gaps) == 2 and all(0 < g < 0.1 for g in gaps)
    # 200 two-weight targets with squared amplitudes spread over 10^+-20
    rng = np.random.default_rng(21)
    for _ in range(200):
        a, b = -int(rng.integers(1, 31)), int(rng.integers(1, 31))
        v = WeightedVector.from_terms(1, {(a,): 10.0 ** rng.uniform(-10, 10),
                                          (b,): 10.0 ** rng.uniform(-10, 10)})
        res = theta_capacity(v, (F(0),))
        want = _two_weight_log_cap_sq(v)
        assert res.status != "max_iter", (a, b)
        assert abs(2 * res.log_cap.log_mag - want) <= 1e-12 * max(1.0, abs(want)), (a, b)
    # a step the halvings shrink until y + step d rounds back to y stops
    # there; accepting it used to run the solver on the spot to max_iter
    v = WeightedVector.from_terms(1, {(-28,): math.sqrt(9.639949624839339e-19),
                                      (-8,): math.sqrt(3.137496592819482e+16),
                                      (5,): math.sqrt(7.43561549140427e-13),
                                      (16,): math.sqrt(3.4471583288499456e-25)})
    res = theta_capacity(v, (F(0),))
    assert res.status == "converged" and res.iterations < 20
    assert abs(2 * res.log_cap.log_mag - 7.1840131038688459) <= 1e-13  # 50-digit bisection
    # p at y = 0 sits on (0, 13): the Hessian is rounding noise, and its
    # bounded Newton direction, nearly orthogonal to g, stopped the solver at
    # y = 0 with |g| = 26 as if at the resolution of F; it goes along -g now
    v = WeightedVector.from_terms(2, {(0, 13): 1086889.6676550007,
                                      (-29, -9): 0.00832952752252457,
                                      (18, -19): 5.084980138710222e-07,
                                      (0, -14): 5.051403231529448e-10,
                                      (1, 13): 0.11850454911019097})
    res = theta_capacity(v, (F(0), F(0)))
    assert res.status == "converged"
    assert abs(2 * res.log_cap.log_mag - 6.0215775086451408) <= 1e-12  # 80-digit Newton


def test_kl_stalling_instance_stops_at_float_resolution(monkeypatch):
    # a pool instance of the capacity benchmark on which the relative-entropy
    # solver ran to max_iter = 200 with its gradient stuck near 1e-11
    v = WeightedVector.from_terms(2, {
        (-2, -1): complex(-0.06740718300484444, -0.3737008411909257),
        (0, -2): complex(0.46586000186031823, -0.03196047396440114),
        (0, 1): complex(-0.5018903658011546, -0.11429730824030138),
        (1, 0): complex(-0.13904338815618528, -0.4242082298204889),
        (1, 2): complex(-0.23396992724681948, -0.34463243157741197)})
    theta = (F(-51, 154), F(-9, 154))
    solves = []
    min_kl = capacity._min_kl

    def recording(*args, **kwargs):
        out = min_kl(*args, **kwargs)
        solves.append(out)
        return out

    monkeypatch.setattr(capacity, "_min_kl", recording)
    kl = capacity_kl_form(v, theta)
    assert len(solves) == 1
    assert 0 < solves[0][1] < 200
    # the value the solver reached after 200 steps
    assert abs(kl.log_mag - -0.09088753487859574) <= 1e-12
    assert abs(2 * theta_capacity(v, theta).log_cap.log_mag - kl.log_mag) <= 1e-8


def _face_targets(rng, v):
    """An interior point, a random sub-combination, a vertex (the
    lexicographic maximum) and a point outside the hull of v's weights."""
    ws = [w.coords for w in v.support]
    coeffs = [int(c) for c in rng.integers(1, 6, size=len(ws))]
    interior = tuple(sum(F(c * w[i], sum(coeffs)) for c, w in zip(coeffs, ws))
                     for i in range(v.n))
    top = max(ws)
    outside = (top[0] + F(1, int(rng.integers(1, 4))), *map(F, top[1:]))
    return [interior, random_feasible_theta(rng, v), tuple(map(F, top)), outside]


def test_face_search_matches_per_weight_oracle():
    rng = np.random.default_rng(2024)
    checked = full_lattice = 0
    for i in range(80):
        n = 1 + i % 4
        v = random_weighted_vector(rng, n=n, n_terms=2 + (i // 4) % 7,
                                   box={1: 4, 2: 2, 3: 1, 4: 1}[n]).pruned()
        support = [w.coords for w in v.support]
        for theta in _face_targets(rng, v):
            cert = _face_search(v.support, theta)
            oracle = per_weight_minimal_face(support, theta)
            assert cert.inside == (oracle is not None)
            assert cert.inside == moment_polytope_contains(v, theta).inside
            assert cert.lps >= 1 and cert.pivots >= 0
            if not cert.inside:
                a, offset = cert.separator
                assert all(sum(x * y for x, y in zip(a, w)) <= offset for w in support)
                assert sum(x * y for x, y in zip(a, theta)) > offset
                assert cert.face == () and cert.coefficients is None and cert.dim == 0
                continue
            face = list(cert.face)
            interior = [0] * len(support)
            for w, p in cert.coefficients:
                interior[support.index(w.coords)] = p
            assert face == oracle
            assert [j for j, p in enumerate(interior) if p > 0] == face
            assert all(p >= 0 for p in interior) and sum(interior) == 1
            assert all(sum(p * w[k] for p, w in zip(interior, support)) == theta[k]
                       for k in range(n))
            # the normal's exact gaps: 0 on the face, at most -1 off it
            ell, gamma = cert.normal
            for j, w in enumerate(support):
                gap = sum(a * x for a, x in zip(ell, w)) - gamma
                assert gap == 0 if j in face else gap <= -1, (i, theta, j)
            # the chart: w0 + B c_w is every face weight, theta = w0 + B c_theta
            B = np.array(cert.basis, dtype=object).reshape(n, cert.dim)
            w0 = np.array(cert.base, dtype=object)
            for j, c in zip(face, cert.face_coords):
                assert tuple(w0 + B.dot(np.array(c, dtype=object))) == support[j]
            assert tuple(w0 + B.dot(np.array(cert.theta_coords, dtype=object))) == theta
            affine = np.array([support[j] for j in face]) - support[face[0]]
            assert np.linalg.matrix_rank(B.astype(float)) == cert.dim == (
                np.linalg.matrix_rank(affine) if len(face) > 1 else 0)
            # a face whose differences span Z^n (the gcd of their n x n
            # minors is 1) gets the identity
            minors = [round(np.linalg.det(affine[list(rows)].astype(float)))
                      for rows in itertools.combinations(range(len(affine)), n)]
            if math.gcd(*minors) == 1:
                assert np.array_equal(B.astype(int), np.eye(n, dtype=int)), (i, theta)
                full_lattice += 1
            checked += 1
    assert checked == 240  # the interior, sub-combination and vertex targets
    assert full_lattice >= 20, full_lattice


def _fraction_lattice_solve(hnf, x):
    """y with (hnf columns) y = x by Fraction elimination, or None."""
    res, y = [F(v) for v in x], []
    for col in hnf:
        pr = next(i for i, c in enumerate(col) if c != 0)
        y.append(res[pr] / col[pr])
        res = [r - y[-1] * c for r, c in zip(res, col)]
    return None if any(res) else y


def test_chart_matches_per_weight_lattice_solve():
    # _chart solves every face weight in one elimination down the Hermite
    # columns. On the draw of the oracle test above its coordinates are
    # those _lattice_solve gives one weight at a time, all ints, and the
    # face record carries the same chart. _lattice_solve, in integers over
    # one denominator, agrees with Fraction elimination on theta and on a
    # point moved off the face, an int exactly where a coordinate is
    # integral, and None off the span.
    rng = np.random.default_rng(2024)
    checked = off_span = 0
    for i in range(80):
        n = 1 + i % 4
        v = random_weighted_vector(rng, n=n, n_terms=2 + (i // 4) % 7,
                                   box={1: 4, 2: 2, 3: 1, 4: 1}[n]).pruned()
        for theta in _face_targets(rng, v):
            cert = _face_search(v.support, theta)
            if not cert.inside:
                continue
            weights = [v.support[j].coords for j in cert.face]
            w0, basis, coords, c_theta = capacity._chart(weights, theta)
            hnf = capacity._column_hnf([[a - b for a, b in zip(w, w0)] for w in weights[1:]])
            want = tuple(tuple(capacity._lattice_solve(hnf, [a - b for a, b in zip(w, w0)]))
                         for w in weights)
            assert coords == want and all(type(t) is int for c in coords for t in c)
            assert (w0, basis, coords, c_theta) == (cert.base, cert.basis, cert.face_coords,
                                                    cert.theta_coords)
            for x in (theta, (theta[0] + F(1, 7), *theta[1:])):
                got = capacity._lattice_solve(hnf, [a - b for a, b in zip(x, w0)])
                want = _fraction_lattice_solve(hnf, [a - b for a, b in zip(x, w0)])
                assert got == want
                if got is not None:
                    assert all((type(t) is int) == (t.denominator == 1) for t in got)
                else:
                    off_span += 1
            checked += 1
    assert checked == 240 and off_span >= 20, off_span


def test_min_kl_on_a_simplex_face_is_the_closed_form(monkeypatch):
    # With d + 1 weights on the face the feasible set is the one point p0,
    # so _min_kl returns D(p0 || q) with 0 steps and no SVD: on two weights
    # the two-point form, on a triangle the three-term sum.
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD on a face with d + 1 weights")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for q, C, p0 in (([0.3, 0.7], [[0.0], [1.0]], [0.75, 0.25]),
                     ([0.2, 0.5, 0.3], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.5, 0.3, 0.2])):
        val, steps = capacity._min_kl(np.array(q), np.array(C), np.array(p0))
        assert steps == 0
        assert math.isclose(val, sum(p * math.log(p / x) for p, x in zip(p0, q)),
                            rel_tol=1e-14)
    # through the public cross-check: n = 1, two weights, theta inside
    v = WeightedVector.from_terms(1, {(-1,): math.sqrt(0.3), (2,): math.sqrt(0.7)})
    kl = capacity_kl_form(v, (F(1, 4),))
    t = F(5, 12)  # the weight of (2,): -1 + 3 t = 1/4
    want = -(float(1 - t) * math.log(float(1 - t) / 0.3) + float(t) * math.log(float(t) / 0.7))
    assert math.isclose(kl.log_mag, want, rel_tol=1e-14)


def test_every_face_lp_passes_the_name_the_tracer_wraps(monkeypatch):
    # bench/tracing.py counts and times the LPs by replacing, by identity,
    # every name a capdual module holds exactlp.simplex_max under; the face
    # search must call it through such a name once per LP it counts.
    solve, calls = exactlp.simplex_max, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    for name, mod in list(sys.modules.items()):
        if name == "capdual" or name.startswith("capdual."):
            for attr, val in list(vars(mod).items()):
                if val is solve:
                    monkeypatch.setattr(mod, attr, counted)
    weights = tuple(WeightVector(w) for w in ((0, 0), (2, 1), (4, 2), (0, 2), (3, 3)))
    _face_search.cache_clear()
    cert = capacity._face_search(weights, (Fraction(1), Fraction(1, 2)))
    assert cert.face == (0, 1, 2)  # the edge {(0,0), (2,1), (4,2)}
    assert calls == cert.lps == 3


def test_vertex_and_identity_chart_shortcuts_are_bit_identical():
    # A vertex returns F = log q_w and x = 0 without Newton, and a chart
    # with B = I takes x = y without the least-norm solve. Both give, bit
    # for bit, what the general path gives: Newton from y = 0 (at a vertex
    # it stops at once, g empty) and x = B (B^T B)^{-1} y.
    def general(v, theta):
        cert, C, q, c_theta = capacity._on_face(v.pruned(), theta)
        logq = np.array([math.log(x) for x in q])
        y, fstar, gnorm, iters, status = capacity._newton_logsumexp(
            C, logq, c_theta, capacity.GRAD_TOL, capacity.MAX_ITER)
        B = np.array(cert.basis, dtype=float).reshape(v.n, cert.dim)
        return 0.5 * fstar, B @ np.linalg.solve(B.T @ B, y), status, iters, gnorm, cert

    rng = np.random.default_rng(2024)
    seen = {"vertex": 0, "identity": 0}
    for trial in range(60):
        n = 1 + trial % 3
        v = random_weighted_vector(rng, n=n, n_terms=n + 2 + trial % 3, box=3)
        W = [w.coords for w in v.support]
        centroid = tuple(F(sum(w[i] for w in W), len(W)) for i in range(n))
        for theta in (max(W), centroid, random_feasible_theta(rng, v)):
            got = theta_capacity(v, theta)
            if got.status == "outside":
                continue
            log_cap, x, status, iters, gnorm, cert = general(v, theta)
            assert got.log_cap.log_mag == log_cap, (trial, theta)
            assert got.minimizer_x.tobytes() == x.tobytes(), (trial, theta)
            assert (got.status, got.iterations, got.gradient_norm) == (status, iters, gnorm)
            if cert.dim == 0:
                seen["vertex"] += 1
            elif np.array_equal(np.array(cert.basis), np.eye(n)):
                seen["identity"] += 1
    assert seen["vertex"] >= 20 and seen["identity"] >= 20, seen


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        theta_capacity(WeightedVector.from_terms(1, {(0,): 0.0}), (F(0),))


def test_kl_form_requires_unit_norm():
    v = WeightedVector.from_terms(1, {(0,): 2.0})
    with pytest.raises(ValueError):
        capacity_kl_form(v, (F(0),))
