import itertools
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capdual import spectrum
from capdual.core import Partition, fraction_log, power_rows
from capdual.spectrum import (DuffieldFamily, HermitianState, SchurWeylFamily,
                              _nearest_nonzero, _round_partition, duffield_rate,
                              hook_length_count, keyl_rate,
                              kw_minimization_check, kw_rate, ldp_report,
                              partitions_bounded, rank1_mult_tables,
                              rank1_multiplicities, schur_weyl_measure)

from util import (kl_divergence, quantum_relative_entropy,
                  random_density_matrix, ssyt_schur)

F = Fraction


# -- partitions and hook lengths --------------------------------------------

def test_partitions_bounded_small():
    assert list(partitions_bounded(4, 2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions_bounded(3, 3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions_bounded(0, 2)) == [()]
    assert list(partitions_bounded(5, 1)) == [(5,)]


def test_partitions_bounded_counts():
    # p(k, <= m parts) satisfies the standard recurrence; spot check sizes
    assert sum(1 for _ in partitions_bounded(10, 10)) == 42
    assert sum(1 for _ in partitions_bounded(12, 2)) == 7


@lru_cache(maxsize=None)
def _syt_count(lam: tuple) -> int:
    """Standard tableaux by corner-removal recursion, the oracle for hooks."""
    lam = tuple(p for p in lam if p)
    if not lam:
        return 1
    total = 0
    for i in range(len(lam)):
        if lam[i] and (i == len(lam) - 1 or lam[i] > lam[i + 1]):
            total += _syt_count(lam[:i] + (lam[i] - 1,) + lam[i + 1:])
    return total


def test_hook_length_formula_matches_recursion():
    for k in range(1, 13):
        for lam in partitions_bounded(k, k):
            assert hook_length_count(lam) == _syt_count(lam)


def test_hook_length_known_values():
    assert hook_length_count((1,)) == 1
    assert hook_length_count((2, 1)) == 2
    assert hook_length_count((3, 2)) == 5
    assert hook_length_count(Partition((2, 2))) == 2


def _hook_product(lam) -> int:
    """The product of the hook lengths of lam, box by box."""
    lam = [p for p in lam if p]
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    prod = 1
    for i, p in enumerate(lam):
        for j in range(p):
            prod *= p - j + conj[j] - i - 1
    return prod


def test_hook_length_two_row_closed_form():
    # f^(a,b) = C(a+b, b) (a-b+1) / (a+1), the ballot numbers
    for n in range(0, 401):
        for b in range(0, n // 2 + 1):
            a = n - b
            num = math.comb(n, b) * (a - b + 1)
            assert num % (a + 1) == 0
            assert hook_length_count((a, b)) == num // (a + 1), (a, b)


def test_hook_length_matches_the_hook_product():
    for k in range(0, 61):
        for lam in partitions_bounded(k, 4):
            assert hook_length_count(lam) == math.factorial(k) // _hook_product(lam), lam
    # trailing zeros and a validated Partition give the same count
    assert hook_length_count((3, 2, 0, 0)) == hook_length_count(Partition((3, 2))) == 5


# -- Schur-Weyl measure ------------------------------------------------------

def test_measure_uniform_qubit_k2():
    rows = {tuple(r.lam.parts): r.prob.to_float()
            for r in schur_weyl_measure((0.5, 0.5), 2)}
    assert math.isclose(rows[(2,)], 0.75, rel_tol=1e-12)
    assert math.isclose(rows[(1, 1)], 0.25, rel_tol=1e-12)


def test_measure_pure_state():
    rows = schur_weyl_measure((1.0, 0.0), 5)
    masses = {tuple(r.lam.parts): r.prob.to_float() for r in rows}
    assert math.isclose(masses[(5,)], 1.0, rel_tol=1e-12)
    assert all(v == 0.0 for lam, v in masses.items() if lam != (5,))


def test_measure_k1():
    rows = schur_weyl_measure((0.6, 0.4), 1)
    assert len(rows) == 1
    assert rows[0].lam.parts == (1,)
    assert math.isclose(rows[0].prob.to_float(), 1.0, rel_tol=1e-12)


def test_measure_normalization_and_order():
    rows = schur_weyl_measure((0.5, 0.3, 0.2), 6)
    total = sum(r.prob.to_float() for r in rows)
    assert math.isclose(total, 1.0, rel_tol=1e-10)
    lams = [r.lam.padded(3) for r in rows]
    assert lams == sorted(lams, reverse=True)  # descending lexicographic


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6))
def test_measure_matches_tableau_oracle(k, seed):
    rng = np.random.default_rng(seed)
    weights = [int(x) for x in rng.integers(1, 6, size=3)]
    denom = sum(weights)
    q_frac = [F(w, denom) for w in weights]
    q_float = sorted((float(x) for x in q_frac), reverse=True)
    q_frac.sort(reverse=True)
    rows = schur_weyl_measure(q_float, k)
    for row in rows:
        exact = hook_length_count(row.lam) * ssyt_schur(row.lam.parts, q_frac)
        got = row.prob.to_float()
        assert math.isclose(got, float(exact), rel_tol=1e-9, abs_tol=1e-15)


def test_measure_requires_sorted_probability():
    with pytest.raises(ValueError):
        schur_weyl_measure((0.3, 0.7), 2)
    with pytest.raises(ValueError):
        schur_weyl_measure((0.8, 0.3), 2)


# -- states and rates --------------------------------------------------------

def test_hermitian_state_validation():
    with pytest.raises(ValueError):
        HermitianState([[0.5, 1.0], [0.0, 0.5]])  # not Hermitian
    with pytest.raises(ValueError):
        HermitianState([[1.5, 0.0], [0.0, -0.5]])  # negative eigenvalue
    with pytest.raises(ValueError):
        HermitianState([[0.5, 0.0], [0.0, 0.4]])  # trace != 1
    s = HermitianState([[0.7, 0.0], [0.0, 0.3]])
    assert np.allclose(s.spectrum(), [0.7, 0.3])


def test_keyl_pure_state_log_overlap():
    rho = HermitianState([[1.0, 0.0], [0.0, 0.0]])
    sigma = HermitianState([[0.7, 0.0], [0.0, 0.3]])
    assert math.isclose(keyl_rate(rho, sigma), -math.log(0.7), rel_tol=1e-12)


def test_keyl_commuting_case_is_kl():
    p = (0.6, 0.3, 0.1)
    q = (0.5, 0.25, 0.25)
    rho = HermitianState(np.diag(p))
    sigma = HermitianState(np.diag(q))
    assert abs(keyl_rate(rho, sigma) - kl_divergence(p, q)) <= 1e-10


def test_keyl_infinite_on_vanishing_minor():
    # orthogonal pure states: the needed leading minor is zero
    rho = HermitianState([[1.0, 0.0], [0.0, 0.0]])
    sigma = HermitianState([[0.0, 0.0], [0.0, 1.0]])
    assert keyl_rate(rho, sigma) == math.inf


def test_keyl_finite_across_support_mismatch():
    # unlike the quantum relative entropy, a support violation alone does
    # not force the rate to diverge: |+><+| against |0><0| costs log 2
    rho = HermitianState([[0.5, 0.5], [0.5, 0.5]])
    sigma = HermitianState([[1.0, 0.0], [0.0, 0.0]])
    assert math.isclose(keyl_rate(rho, sigma), math.log(2), rel_tol=1e-9)


def test_keyl_below_quantum_relative_entropy():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        rho = random_density_matrix(rng, n)
        sigma = random_density_matrix(rng, n)
        rate = keyl_rate(HermitianState(rho), HermitianState(sigma))
        qre = quantum_relative_entropy(rho, sigma)
        assert rate <= qre + 1e-9
        assert rate >= -1e-12


def test_kw_rate_values():
    assert math.isclose(kw_rate((0.7, 0.3), (0.5, 0.5)),
                        kl_divergence((0.7, 0.3), (0.5, 0.5)), rel_tol=1e-12)
    assert kw_rate((0.5, 0.5), (0.5, 0.5)) == 0.0
    assert kw_rate((1.0, 0.0), (0.5, 0.5)) == math.log(2)
    assert kw_rate((0.5, 0.5), (1.0, 0.0)) == math.inf


def test_kw_rate_requires_sorted_inputs():
    with pytest.raises(ValueError):
        kw_rate((0.3, 0.7), (0.5, 0.5))


def test_kw_minimization_attained_at_sigma_basis():
    sigma = HermitianState(np.array([[0.55, 0.15 + 0.1j], [0.15 - 0.1j, 0.45]]))
    best, analytic = kw_minimization_check((0.8, 0.2), sigma, samples=300)
    assert best <= analytic + 1e-12
    assert best >= analytic - 1e-9


def test_kw_minimization_diagonal():
    sigma = HermitianState(np.diag([0.6, 0.4]))
    best, analytic = kw_minimization_check((0.7, 0.3), sigma, samples=200)
    assert math.isclose(analytic, kl_divergence((0.7, 0.3), (0.6, 0.4)),
                        rel_tol=1e-12)
    assert abs(best - analytic) <= 1e-9


# -- rank-1 multiplicities ---------------------------------------------------

def test_su2_closed_form_small():
    # C(k, j) - C(k, j-1) at lambda = k - 2j, from the stream and at one k
    for k, table in enumerate(rank1_mult_tables((-1, 1), 60), start=1):
        want = {k - 2 * j: math.comb(k, j) - (math.comb(k, j - 1) if j else 0)
                for j in range(k // 2 + 1)}
        assert table == want
        assert rank1_multiplicities((-1, 1), k) == want


def test_su2_recursion_consistency():
    tables = list(rank1_mult_tables((-1, 1), 40))
    for prev, cur in zip(tables, tables[1:]):
        for lam, n in cur.items():
            if lam == 0:
                assert n == prev[1]
            else:
                assert n == prev.get(lam - 1, 0) + prev.get(lam + 1, 0)


def test_su2_dimension_count_exact():
    for k, table in enumerate(rank1_mult_tables((-1, 1), 60), start=1):
        total = sum((lam + 1) * n for lam, n in table.items())
        assert total == 2 ** k


def test_dimension_check_survives_python_O():
    code = textwrap.dedent("""
        from capdual import spectrum
        real = spectrum.power_rows

        def corrupted(coeffs, k_max):  # one extra top-weight count at k_max
            for k, (lo, row) in enumerate(real(coeffs, k_max), start=1):
                if k == k_max > 1:
                    row = row.copy()
                    row[-1] += 1
                yield lo, row

        spectrum.power_rows = corrupted
        print("debug", __debug__)
        for name, call in (("single", lambda: spectrum.rank1_multiplicities((-1, 1), 5)),
                           ("stream", lambda: list(spectrum.rank1_mult_tables((-1, 1), 5)))):
            try:
                call()
                print(name, "returned")
            except RuntimeError as exc:
                print(name, "raised", exc)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert "debug False" in out
    for name in ("single", "stream"):
        assert f"{name} raised multiplicities failed the exact dimension count at k=5" in out


NON_CHARACTERS = [
    ((0, 1), "not symmetric"), ((1, 2), "not symmetric"),
    ((-1, -1), "not symmetric"), ((-4, -2, 0), "not symmetric"),
    ((-2, 2), "n_0 = w_0 - w_2 = -1 is negative"),
]


def test_rank1_rejects_non_characters():
    # the base row is checked before any power, so k = 0 and k = 3 both fail
    for weights, problem in NON_CHARACTERS:
        for k in (0, 3):
            with pytest.raises(ValueError, match="not a character") as err:
                rank1_multiplicities(weights, k)
            assert problem in str(err.value)
        with pytest.raises(ValueError, match=problem):
            ldp_report(DuffieldFamily(weights), 0, 3)


def test_rank1_spin1_weights():
    # weights (-2, 0, 2): tensor square contains spins 0, 1, 2
    mult = rank1_multiplicities((-2, 0, 2), 2)
    assert mult == {0: 1, 2: 1, 4: 1}
    # (-1, 0, 1) = V_1 + V_0; its square holds V_2 once, V_1 twice, V_0 twice
    assert rank1_multiplicities((-1, 0, 1), 2) == {0: 2, 1: 2, 2: 1}
    assert rank1_multiplicities((0,), 5) == {0: 1}
    assert rank1_multiplicities((-1, 1), 0) == {0: 1}


def test_rank1_rejects_negative_powers():
    # a negative k is not a tensor power; it must not read as the trivial rep
    for weights in ((-1, 1), (0,), (-2, 0, 2)):
        for k in (-1, -3):
            with pytest.raises(ValueError, match=f"got {k}"):
                rank1_multiplicities(weights, k)


# -- Legendre rates ----------------------------------------------------------

def test_duffield_closed_form_binary():
    expected = 0.75 * math.log(3) - math.log(2)
    assert math.isclose(duffield_rate((-1, 1), F(1, 2)), expected,
                        rel_tol=1e-10)


def test_duffield_edge_cases():
    assert duffield_rate((-1, 1), F(0)) == 0.0
    assert duffield_rate((-1, 1), F(1, 10_000)) == 0.0 or \
        duffield_rate((-1, 1), F(1, 10_000)) < 1e-7
    assert math.isclose(duffield_rate((-1, 1), 1), math.log(2), rel_tol=1e-12)
    assert duffield_rate((-1, 1), 2) == math.inf
    with pytest.raises(ValueError):
        duffield_rate((-1, 1), -0.5)


def test_duffield_matches_kw_binary():
    # lambda/k -> theta corresponds to spectrum ((1+theta)/2, (1-theta)/2)
    for theta in (F(1, 4), F(1, 2), F(2, 3), F(9, 10)):
        t = float(theta)
        p = ((1 + t) / 2, (1 - t) / 2)
        assert math.isclose(duffield_rate((-1, 1), theta),
                            kw_rate(p, (0.5, 0.5)), rel_tol=0, abs_tol=1e-9)


def test_duffield_spin1_rate_positive():
    # (-2, 0, 2): the stationary point of theta h - log((e^{2h} + 1 + e^{-2h})/3)
    # is u = e^{2h} = (theta + sqrt(16 - 3 theta^2)) / (2 (2 - theta))
    for theta in (F(1, 2), F(3, 2), F(19, 10)):
        t = float(theta)
        u = (t + math.sqrt(16 - 3 * t * t)) / (2 * (2 - t))
        expected = t * math.log(u) / 2 - math.log((u + 1 + 1 / u) / 3)
        rate = duffield_rate((-2, 0, 2), theta)
        assert 0 < rate < math.log(3)
        assert math.isclose(rate, expected, rel_tol=0, abs_tol=1e-12)


def test_duffield_vertex_and_outside():
    # at the largest weight the rate is log(d / its multiplicity), past it +inf
    assert math.isclose(duffield_rate((-3, -1, 1, 3), 3), math.log(4), rel_tol=0,
                        abs_tol=1e-15)
    assert duffield_rate((-3, -1, 1, 3), F(7, 2)) == math.inf
    assert math.isclose(duffield_rate((-1, -1, 0, 1, 1), 1), math.log(F(5, 2)),
                        rel_tol=0, abs_tol=1e-15)


@pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2])
def test_duffield_rate_near_the_mean_weight(t):
    # on (-1, 1) the rate is t atanh t + log(1 - t^2) / 2, whose series is
    # t^2/2 + t^4/12 + t^6/30 + O(t^8); near t = 0 it is a small difference
    # and must keep its relative accuracy
    series = t**2 / 2 + t**4 / 12 + t**6 / 30
    assert math.isclose(duffield_rate((-1, 1), t), series, rel_tol=1e-11)


def test_duffield_rate_refuses_an_unconverged_solve(monkeypatch):
    real = spectrum.theta_capacity
    monkeypatch.setattr(spectrum, "theta_capacity", lambda v, th: real(v, th, max_iter=0))
    with pytest.raises(RuntimeError, match="hit max_iter"):
        duffield_rate((-1, 1), F(1, 2))


# -- LDP reports -------------------------------------------------------------

def test_schur_weyl_ldp_report():
    rep = ldp_report(SchurWeylFamily((0.5, 0.5)), [F(3, 4), F(1, 4)], 100)
    assert rep.columns == ("k", "log_prob", "empirical_rate", "analytic_rate",
                           "difference")
    by_k = {r[0]: r for r in rep.rows}
    assert len(rep.rows) == 100
    expected = kl_divergence((0.75, 0.25), (0.5, 0.5))
    assert math.isclose(rep.metadata["analytic_rate"], expected, rel_tol=1e-12)
    assert by_k[100][4] < 0.02
    assert by_k[4][4] > by_k[100][4]


def _largest_remainder(theta, k):
    scaled = [k * t for t in theta]
    parts = [math.floor(x) for x in scaled]
    for i in sorted(range(len(parts)), key=lambda i: (parts[i] - scaled[i], i))[:k - sum(parts)]:
        parts[i] += 1
    return parts


def _jacobi_trudi(lam, a) -> int:
    """s_lam(a) from a fresh table of h_m(a), m <= lam_1 + n, and the
    permutation expansion of det h_{lam_i - i + j}."""
    n = len(a)
    if any(lam[n:]):
        return 0
    lam = (list(lam) + [0] * n)[:n]
    h = [1] + [0] * (lam[0] + n)
    for av in a:
        for m in range(1, len(h)):
            h[m] += av * h[m - 1]
    det = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i, j in enumerate(perm):
            m = lam[i] - i + j
            term *= h[m] if m >= 0 else 0
        det += term
    return det


@pytest.mark.parametrize("q, theta", [
    ((F(13, 20), F(7, 20)), (F(3, 4), F(1, 4))),
    ((F(9, 20), F(7, 20), F(1, 5)), (F(1, 2), F(1, 3), F(1, 6))),
    ((F(2, 3), F(1, 3), F(0)), (F(1, 2), F(1, 3), F(1, 6))),  # P = 0 at most k
    ((F(1, 2), F(1, 4), F(1, 8), F(1, 8)), (F(2, 5), F(3, 10), F(1, 5), F(1, 10))),
])
def test_schur_weyl_rows_match_a_fresh_table_per_k(q, theta):
    # one h-table for the whole report and Frobenius hook counts give the
    # same floats as a fresh table and a hook product at every k
    rep = ldp_report(SchurWeylFamily(q), theta, 400)
    D = math.lcm(*(t.denominator for t in q))
    a = [int(t * D) for t in q if t]
    rate = kw_rate(sorted(map(float, theta), reverse=True), [float(t) for t in q])
    want = []
    for k in range(1, 401):
        lam = _largest_remainder(theta, k)
        p = F(math.factorial(k) // _hook_product(lam) * _jacobi_trudi(lam, a), D**k)
        log_p = fraction_log(p).log_mag
        want.append((k, log_p, -log_p / k, rate, abs(-log_p / k - rate)))
    hexed = [[k, *map(float.hex, row)] for k, *row in want]
    assert [[k, *map(float.hex, row)] for k, *row in rep.rows] == hexed


def test_spectrum_is_checked_alike_by_the_measure_and_the_report():
    theta = [F(3, 4), F(1, 4)]
    bad = [((F(3, 5), F(3, 5)), "sums to 1.2"),
           ((0.6, 0.6), "sums to 1.2"),
           ((F(1, 2) + F(1, 10**12), F(1, 2)), "not 1"),
           ((0.5 + 1e-6, 0.5), "not 1"),
           ((F(1, 4), F(3, 4)), "sorted nonincreasing"),
           ((F(5, 4), F(-1, 4)), "nonnegative"),
           ((F(1, 5),) * 5, "length 5"),
           ((), "length 0")]
    for q, msg in bad:
        with pytest.raises(ValueError, match=msg):
            schur_weyl_measure(q, 3)
        with pytest.raises(ValueError, match=msg):
            ldp_report(SchurWeylFamily(q), theta, 3)
    # floats are taken within 1e-9 and renormalized, as before
    near = (0.7 + 1e-12, 0.3)
    assert schur_weyl_measure(near, 3) == schur_weyl_measure((F(7, 10), F(3, 10)), 3)
    assert (ldp_report(SchurWeylFamily(near), theta, 5).rows[-1][1]
            == ldp_report(SchurWeylFamily((F(7, 10), F(3, 10))), theta, 5).rows[-1][1])


def test_duffield_ldp_report():
    rep = ldp_report(DuffieldFamily((-1, 1)), F(1, 2), 200)
    by_k = {r[0]: r for r in rep.rows}
    assert by_k[200][4] < 0.05
    expected = 0.75 * math.log(3) - math.log(2)
    assert math.isclose(rep.metadata["analytic_rate"], expected, rel_tol=1e-10)


def test_duffield_rows_match_rank1_multiplicities():
    for weights, theta in (((-1, 1), F(1, 2)), ((-2, 0, 2), F(3, 2)),
                           ((-3, -1, 1, 3), F(7, 10))):
        rows = {r[0]: r for r in ldp_report(DuffieldFamily(weights), theta, 40).rows}
        for k in (1, 2, 7, 20, 40):
            mult = rank1_multiplicities(weights, k)
            lam = min(mult, key=lambda l: (abs(l - k * theta), -l))
            p = F((lam + 1) * mult[lam], len(weights) ** k)
            # log P is read as log((lam + 1) n_lam) - k log d, each log
            # rounded once: within a few ulps of k log d of the exact value
            tol = 4 * k * math.log(len(weights)) * sys.float_info.epsilon
            assert abs(rows[k][1] - fraction_log(p).log_mag) <= tol, (weights, k)


@pytest.mark.parametrize("weights", [(-1, 1), (-2, 0, 2), (-3, -1, 1, 3)])
def test_rank1_rows_match_the_per_row_path(monkeypatch, weights):
    # The per-row path differences every weight-count row of power_rows in
    # full. rank1_multiplicities differences only its last row, and the
    # Duffield rows only the cells the scan reads, plus the last row for
    # the dimension count; each result is the same ints and the same floats.
    d, counts = len(weights), {w: weights.count(w) for w in weights}
    per_row = [spectrum._multiplicity_row(lo, row) for lo, row in power_rows(counts, 40)]
    for (lo, row), n in zip(power_rows(counts, 40), per_row):
        lazy = spectrum._Multiplicities(lo, row)
        assert [lazy[lam] for lam in range(len(lazy))] == n.tolist()
    assert list(rank1_mult_tables(weights, 40)) == [spectrum._nonzero(n) for n in per_row]
    differenced = []
    real = spectrum._multiplicity_row
    monkeypatch.setattr(spectrum, "_multiplicity_row",
                        lambda lo, row: differenced.append(len(row)) or real(lo, row))
    for k in (0, 1, 2, 7, 40):
        differenced.clear()
        assert rank1_multiplicities(weights, k) == (
            spectrum._nonzero(per_row[k - 1]) if k else {0: 1})
        assert len(differenced) == 1 + (k > 0)  # the character check, the last row
    for theta in (F(0), F(1, 3), F(1, 2), F(9, 10), F(max(weights))):
        differenced.clear()
        rep = ldp_report(DuffieldFamily(weights), theta, 40)
        assert len(differenced) == 2
        rate = rep.metadata["analytic_rate"]
        want = []
        for k, n in enumerate(per_row, start=1):
            lam = _nearest_nonzero(n, k * float(theta))
            log_p = math.log((lam + 1) * n[lam]) - k * math.log(d)
            want.append((k, log_p, -log_p / k, rate, abs(-log_p / k - rate)))
        assert rep.rows == want


def test_nearest_nonzero_matches_the_rule():
    # the rule over every nonzero lambda: nearest to the target, the larger on
    # a tie; rows of Python ints with runs of zeros, exact ties and targets
    # below 0 and past the end
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = np.zeros(int(rng.integers(1, 40)), dtype=object)
        for start in rng.integers(0, len(n), size=int(rng.integers(1, 4))):
            n[start:start + int(rng.integers(1, 4))] = int(rng.integers(1, 10**18)) * 7**30
        nz = [lam for lam, x in enumerate(n) if x]
        pairs = rng.choice(nz, size=2)
        targets = [-3.5, -0.25, len(n) - 0.5, len(n) + 2.75, 10.0 * len(n),
                   (pairs[0] + pairs[1]) / 2, *rng.uniform(-2, len(n) + 2, size=6)]
        for t in map(float, targets):
            want = min(nz, key=lambda lam: (abs(lam - t), -lam))
            assert _nearest_nonzero(n, t) == want, (n.tolist(), t)
    assert _nearest_nonzero(np.array([0, 5, 0, 5, 0], dtype=object), 2.0) == 3
    with pytest.raises(ValueError):
        _nearest_nonzero(np.zeros(4, dtype=object), 1.5)


def test_round_partition_regressions():
    assert _round_partition((F(2, 5), F(3, 10), F(1, 5), F(1, 10)), 5) == (2, 2, 1, 0)
    for k in (1, 3, 5, 99):
        assert _round_partition((F(1, 2), F(1, 2)), k) == ((k + 1) // 2, k // 2)
    q4 = (F(2, 5), F(3, 10), F(1, 5), F(1, 10))
    assert len(ldp_report(SchurWeylFamily(tuple(map(float, q4))), q4, 10).rows) == 10


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=5).filter(any))
def test_round_partition_is_a_nearby_partition(raw):
    theta = sorted((F(x, sum(raw)) for x in raw), reverse=True)
    for k in range(1, 401):
        parts = _round_partition(theta, k)
        assert sum(parts) == k
        assert all(a >= b for a, b in zip(parts, parts[1:]))
        assert all(abs(p - k * t) <= 1 for p, t in zip(parts, theta))


def test_normalization_check_survives_python_O():
    code = textwrap.dedent("""
        from capdual import spectrum
        real = spectrum.hook_length_count
        spectrum.hook_length_count = lambda lam: real(lam) + 1
        print("debug", __debug__)
        try:
            spectrum.schur_weyl_measure((0.5, 0.5), 3)
        except RuntimeError as exc:
            print("raised", exc)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert "debug False" in out
    assert "raised Schur-Weyl weights failed the exact normalization" in out


def test_ldp_report_caps():
    with pytest.raises(ValueError):
        ldp_report(SchurWeylFamily((0.5, 0.5)), [F(1, 2), F(1, 2)], 401)
    with pytest.raises(ValueError):
        ldp_report(DuffieldFamily((-1, 1)), F(1, 2), 1001)


@pytest.mark.parametrize("weights, thetas", [
    ((-1, 1), (F(3, 10), F(1, 2), F(7, 10))),
    ((-2, 0, 2), (F(1, 2), F(1), F(3, 2))),
    ((-1, -1, 0, 1, 1), (F(1, 4), F(1, 2), F(9, 10))),
])
def test_duffield_rows_match_the_dict_path(weights, thetas):
    # one multiplicity dict per k and the nearest nonzero lambda by min(),
    # nearer first and then the larger lambda, exactly as floats
    d = len(weights)
    for theta in thetas:
        rep = ldp_report(DuffieldFamily(weights), theta, 80)
        th = float(theta)
        rate = rep.metadata["analytic_rate"]
        want = []
        for k, mult in enumerate(rank1_mult_tables(weights, 80), start=1):
            lam = min(mult, key=lambda l: (abs(l - k * th), -l))
            log_p = math.log((lam + 1) * mult[lam]) - k * math.log(d)
            want.append((k, log_p, -log_p / k, rate, abs(-log_p / k - rate)))
        assert rep.rows == want
