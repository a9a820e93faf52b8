"""Acceptance suite: nine worked-family criteria at pinned tolerances.

Each test prints one PASS/FAIL line through the capture escape so the
verdicts are visible in a plain pytest run, and then asserts. The criteria
pin finite-k values computed exactly in integer or log arithmetic against
analytic limits of the duality.
"""

import math
import time
from fractions import Fraction

import numpy as np

from capdual.capacity import capacity_kl_form, theta_capacity
from capdual.core import WeightedVector, fraction_log
from capdual.haarmc import UnitaryOrbitVector, mc_isotypic_norm
from capdual.projection import (LaurentPoly, critical_values, duality_report,
                                laurent_cst_powers, prefactor_sequence,
                                projection_norm_table)
from capdual.scaling import (ScalingState, perm_dual_report, rc_capacity,
                             sinkhorn_scale)
from capdual.spectrum import (DuffieldFamily, HermitianState, SchurWeylFamily,
                              keyl_rate, ldp_report, rank1_mult_tables,
                              schur_weyl_measure)

from util import (kl_divergence, quantum_relative_entropy,
                  random_density_matrix, random_feasible_theta,
                  random_weighted_vector)

F = Fraction


def report(capsys, number: int, label: str, ok: bool, started: float,
           detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    elapsed = time.monotonic() - started
    with capsys.disabled():
        print(f"[criterion {number}] {label}: {verdict} "
              f"({detail}; {elapsed:.1f} s)")
    assert ok, f"criterion {number} failed: {detail}"


def balanced_qubit() -> WeightedVector:
    r = math.sqrt(0.5)
    return WeightedVector.from_terms(1, {(-1,): r, (1,): r})


def test_criterion_1_binomial_duality(capsys):
    t0 = time.monotonic()
    v = balanced_qubit()
    cap = theta_capacity(v, (F(0),))
    cap_ok = abs(cap.log_cap.log_mag) <= 1e-12  # cap = 1 exactly
    table = projection_norm_table(v, 200)
    roots = []
    for k in range(2, 201, 2):
        log_norm_sq = table.get(k, (0,)).log_mag
        roots.append(math.exp(log_norm_sq / k))
    nondecreasing = all(a <= b + 1e-15 for a, b in zip(roots, roots[1:]))
    # the k = 200 mass is C(200,100)/2^200; pin both root normalizations
    final_sq = table.get(200, (0,)).log_mag
    ratio_per_k = math.exp(final_sq / 200)
    ratio_per_2k = math.exp(final_sq / 400)
    in_window = 0.985 <= ratio_per_k <= 1.0 and 0.985 <= ratio_per_2k <= 1.0
    exact = math.exp((math.lgamma(201) - 2 * math.lgamma(101)) / 200 - math.log(2))
    agrees = math.isclose(ratio_per_k, exact, rel_tol=1e-10)
    ok = cap_ok and nondecreasing and in_window and agrees
    report(capsys, 1, "binomial norm root vs cap at k=200", ok, t0,
           f"ratio^(1/k)={ratio_per_k:.5f}, ratio^(1/2k)={ratio_per_2k:.5f}")


def test_criterion_2_laplace_prefactor(capsys):
    t0 = time.monotonic()
    seq = prefactor_sequence(balanced_qubit(), ks=[10_000])
    val = dict(seq)[10_000]
    window_ok = 0.7969 <= val <= 0.7989  # target sqrt(2/pi) = 0.79788
    four = WeightedVector.from_terms(
        2, {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5})
    ks = list(range(500, 2001, 50))
    vals = [x for _, x in prefactor_sequence(four, ks=ks)]
    spread = (max(vals) - min(vals)) / (sum(vals) / len(vals))
    cauchy_ok = len(vals) == len(ks) and spread <= 0.01 and min(vals) > 0
    ok = window_ok and cauchy_ok
    report(capsys, 2, "rescaled norms at k=10^4 and Cauchy window", ok, t0,
           f"sqrt(k) value={val:.5f}, 4-weight spread={spread:.5f}")


def test_criterion_3_solver_equivalence(capsys):
    t0 = time.monotonic()
    worst = 0.0
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        n_terms = 3 + seed % 6  # up to 8 weights
        v = random_weighted_vector(rng, n=n, n_terms=n_terms).normalized()
        theta = random_feasible_theta(np.random.default_rng(10_000 + seed), v)
        primal = theta_capacity(v, theta)
        kl = capacity_kl_form(v, theta)
        if primal.log_cap.sign == 0 or kl.sign == 0:
            failures += 1
            continue
        diff = abs(2 * primal.log_cap.log_mag - kl.log_mag)
        worst = max(worst, diff)
        if diff > 1e-8:
            failures += 1
    ok = failures == 0
    report(capsys, 3, "newton vs relative-entropy capacity on 100 seeds",
           ok, t0, f"max log-scale diff={worst:.2e}")


def test_criterion_4_generalized_permanents(capsys):
    t0 = time.monotonic()
    r2 = (F(1, 2), F(1, 2))
    ones = [[F(1)] * 2] * 2
    cap_sq = rc_capacity(ones, r2, r2).to_float()
    cap_ok = abs(cap_sq - 4.0) <= 1e-9
    rep = perm_dual_report(ones, r2, r2, 60)
    by_k = {row[0]: row for row in rep.rows}
    root60 = by_k[60][2]
    root_ok = 3.55 <= root60 <= 4.0
    gaps_ok = rep.check_weak_duality(gap_column="gap", tol=1e-9)
    s = rep.metadata["sandwich"]
    sandwich_ok = (abs(s["lower"] - 2.0) <= 1e-9 and float(s["perm"]) == 2.0
                   and abs(s["upper"] - 8.0) <= 1e-9
                   and s["lower_holds"] and s["upper_holds"])
    rng = np.random.default_rng(99)
    M = [[F(int(x), 7) for x in rng.integers(1, 8, size=3)] for _ in range(3)]
    r3 = (F(1, 3),) * 3
    rep3 = perm_dual_report(M, r3, r3, 9)
    s3 = rep3.metadata["sandwich"]
    random_ok = s3["lower_holds"] and s3["upper_holds"]
    res = sinkhorn_scale(ScalingState(M, r3, r3), tol=1e-8)
    # the potential gradient in log-scaling coordinates is the margin residual
    grad = res.state.marginal_error()
    grad_ok = res.status == "converged" and grad <= 1e-7
    ok = cap_ok and root_ok and gaps_ok and sandwich_ok and random_ok and grad_ok
    report(capsys, 4, "permanent duality, sandwich, and scaling", ok, t0,
           f"cap^2={cap_sq:.10f}, root@60={root60:.3f}, grad={grad:.1e}")


def test_criterion_5_keyl_werner(capsys):
    t0 = time.monotonic()
    rep = ldp_report(SchurWeylFamily((0.7, 0.3)), [F(9, 10), F(1, 10)], 400)
    by_k = {row[0]: row for row in rep.rows}
    target = kl_divergence((0.9, 0.1), (0.7, 0.3))
    d100 = abs(by_k[100][2] - target)
    d400 = abs(by_k[400][2] - target)
    rate_ok = math.isclose(rep.metadata["analytic_rate"], target,
                           rel_tol=1e-10)
    ldp_ok = d100 <= 0.15 and d400 <= 0.05 and d400 < d100
    worst = -math.inf
    bound_ok = True
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        rho = random_density_matrix(rng, n)
        sigma = random_density_matrix(rng, n)
        rate = keyl_rate(HermitianState(rho), HermitianState(sigma))
        qre = quantum_relative_entropy(rho, sigma)
        worst = max(worst, rate - qre)
        if rate > qre + 1e-9:
            bound_ok = False
    ok = rate_ok and ldp_ok and bound_ok
    report(capsys, 5, "spectrum-estimation rates and minor bound", ok, t0,
           f"diff@100={d100:.4f}, diff@400={d400:.4f}, "
           f"max keyl-qre={worst:.1e}")


def test_criterion_6_su2_multiplicities(capsys):
    t0 = time.monotonic()
    closed_ok = True
    for k, table in enumerate(rank1_mult_tables((-1, 1), 1000), start=1):
        # closed form C(k,j) - C(k,j-1) at j = (k-lam)/2, with the binomial
        # computed by the exact Pascal recurrence along ascending j
        c_prev, c, j = 0, 1, 0
        for lam in sorted(table, reverse=True):
            while j < (k - lam) // 2:
                j += 1
                c_prev, c = c, c * (k - j + 1) // j
            if table[lam] != c - c_prev:
                closed_ok = False
                break
        if not closed_ok:
            break
    rep = ldp_report(DuffieldFamily((-1, 1)), F(1, 2), 200)
    emp = {row[0]: row[2] for row in rep.rows}[200]
    rate_ok = abs(emp - 0.13081) <= 0.05
    ok = closed_ok and rate_ok
    report(capsys, 6, "contiguous-binomial multiplicities and rate", ok, t0,
           f"closed form k<=1000 exact, empirical@200={emp:.5f}")


def test_criterion_7_haar_oracle(capsys):
    t0 = time.monotonic()
    checks = []  # (estimate, exact)
    r = math.sqrt(0.5)
    torus1 = WeightedVector.from_terms(1, {(-1,): r, (1,): r})
    t1 = projection_norm_table(torus1, 6)
    for seed, (k, lam) in enumerate([(2, (0,)), (4, (0,)), (4, (2,)),
                                     (6, (0,)), (5, (3,))]):
        est = mc_isotypic_norm(torus1, k, lam, samples=10**6, seed=seed)
        checks.append((est, t1.get(k, lam).to_float()))
    rng = np.random.default_rng(77)
    torus2 = random_weighted_vector(rng, n=2, n_terms=4, box=1).normalized()
    t2 = projection_norm_table(torus2, 4)
    sup = [w.coords for w, _ in torus2.terms]

    def wsum(*ws):
        return tuple(int(sum(col)) for col in zip(*ws))

    for seed, (k, lam) in enumerate([(2, wsum(sup[0], sup[1])),
                                     (3, wsum(sup[0], sup[0], sup[0])),
                                     (4, wsum(sup[0], sup[1], sup[2], sup[3]))]):
        est = mc_isotypic_norm(torus2, k, lam, samples=10**6, seed=100 + seed)
        checks.append((est, t2.get(k, lam).to_float()))
    su2 = UnitaryOrbitVector("su2", (0.6 + 0j, 0.8j))
    for seed, (k, m) in enumerate([(2, 2), (2, 0), (3, 3), (3, 1), (4, 2),
                                   (5, 5), (6, 0)]):
        est = mc_isotypic_norm(su2, k, m, samples=10**6, seed=200 + seed)
        checks.append((est, 1.0 if m == k else 0.0))
    A = np.array([[0.8 + 0.1j, 0.2 - 0.3j], [0.1, 0.5 + 0.2j]])
    A /= np.linalg.norm(A)
    u2 = UnitaryOrbitVector("u2", tuple(map(tuple, A.tolist())))
    sigma = A @ A.conj().T
    q = sorted(np.linalg.eigvalsh(sigma).real.tolist(), reverse=True)
    for seed, (k, lam) in enumerate([(2, (2, 0)), (2, (1, 1)), (3, (2, 1)),
                                     (4, (2, 2)), (4, (3, 1))]):
        est = mc_isotypic_norm(u2, k, lam, samples=10**6, seed=300 + seed)
        mass = {tuple(row.lam.padded(2)): row.prob.to_float()
                for row in schur_weyl_measure(q, k)}
        checks.append((est, mass[lam]))
    assert len(checks) == 20
    within = sum(1 for est, exact in checks
                 if abs(est.mean.real - exact) <= 4 * est.stderr + 1e-12)
    ok = within >= 19  # >= 95% of 20
    report(capsys, 7, "Monte Carlo Haar estimates within 4 sigma", ok, t0,
           f"{within}/20 within tolerance")


def test_criterion_8_property_suites(capsys):
    t0 = time.monotonic()
    weak_bad = supmul_bad = complete_bad = concave_bad = member_bad = stalled = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        v = random_weighted_vector(rng, n=2, n_terms=3 + seed % 3,
                                   box=2).normalized()
        theta = random_feasible_theta(np.random.default_rng(seed + 500), v,
                                      denominator_bound=4)
        # weak duality along the reported subsequence; the small denominator
        # bound keeps the integrality period low enough for two rows
        ell = math.lcm(*(t.denominator for t in theta))
        rep = duality_report(v, theta, 2 * ell)
        if not rep.rows or not rep.check_weak_duality(gap_column="gap", tol=1e-9):
            weak_bad += 1
        # completeness and supermultiplicativity on the exact table
        table = projection_norm_table(v, 8)
        if not math.isclose(table.total(6).to_float(), 1.0, rel_tol=1e-8):
            complete_bad += 1
        support = [w for w, _ in v.terms]
        for a in support[:2]:
            for b in support[:2]:
                lam_a = tuple(3 * x for x in a.coords)
                lam_b = tuple(5 * x for x in b.coords)
                lhs = table.get(8, tuple(x + y for x, y in zip(lam_a, lam_b)))
                pa, pb = table.get(3, lam_a), table.get(5, lam_b)
                if pa.sign and pb.sign:
                    if not lhs.sign or lhs.log_mag < pa.log_mag + pb.log_mag - 1e-9:
                        supmul_bad += 1
        # log-concavity along a random segment of feasible directions
        res = theta_capacity(v, theta)
        t2 = random_feasible_theta(np.random.default_rng(seed + 900), v)
        mid = tuple((a + b) / 2 for a, b in zip(theta, t2))
        r1, rm = theta_capacity(v, t2), theta_capacity(v, mid)
        c0, c1, cm = res.log_cap, r1.log_cap, rm.log_cap
        if c0.sign and c1.sign:
            if not cm.sign or cm.log_mag < 0.5 * (c0.log_mag + c1.log_mag) - 1e-8:
                concave_bad += 1
        # membership <=> positivity, checked on both sides
        if bool(res.certificate.inside) != (res.log_cap.sign == 1):
            member_bad += 1
        outside = tuple(t + 25 for t in theta)
        out = theta_capacity(v, outside)
        if bool(out.certificate.inside) != (out.log_cap.sign == 1):
            member_bad += 1
        # no Newton solve may run out of iterations
        stalled += sum(r.status == "max_iter" for r in (res, r1, rm, out))
    bad = weak_bad + supmul_bad + complete_bad + concave_bad + member_bad + stalled
    ok = bad == 0
    report(capsys, 8, "duality property suites on 200 seeds", ok, t0,
           f"violations: weak={weak_bad} supmul={supmul_bad} "
           f"complete={complete_bad} concave={concave_bad} member={member_bad} "
           f"max_iter={stalled}")


def test_criterion_9_rank1_critical_values(capsys):
    t0 = time.monotonic()
    walk = LaurentPoly({1: F(1), -1: F(1)})
    cv = critical_values(walk)
    max_ok = math.isclose(cv.max_modulus, 2.0, abs_tol=1e-9)
    csts = laurent_cst_powers(walk, 2000)
    cst = csts[60]
    root = abs(cst) ** (1 / 60)
    # the exact root is 1.925518..., i.e. 1.93 at two-decimal precision,
    # approaching the critical-value bound 2 from below
    root_ok = cst == math.comb(60, 30) and round(root, 2) == 1.93 and root <= 2.0
    # |cst|^{1/k} = C(k, k/2)^{1/k} rises over even k toward 2 and stays
    # below it; read in log scale, since C(2000, 1000) overflows a float
    roots = [math.exp(fraction_log(csts[k]).log_mag / k) for k in range(2, 2001, 2)]
    rise_ok = (all(a < b for a, b in zip(roots, roots[1:])) and roots[-1] < 2.0
               and round(roots[-1], 4) == 1.9960)
    half = LaurentPoly({1: F(1, 2), -1: F(1, 2)})
    cvh = critical_values(half)
    v = balanced_qubit()
    cap = theta_capacity(v, (F(0),))
    cap_sq = math.exp(2 * cap.log_cap.log_mag)
    cap_ok = abs(cvh.positive_real_value - cap_sq) <= 1e-9
    ok = max_ok and root_ok and rise_ok and cap_ok
    report(capsys, 9, "walk critical values vs constant-term growth", ok, t0,
           f"max|crit|={cv.max_modulus:.6f}, root@60={root:.4f}, "
           f"root@2000={roots[-1]:.4f}, "
           f"pos-real vs cap^2 diff={abs(cvh.positive_real_value - cap_sq):.1e}")
