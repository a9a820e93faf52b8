import math
import re
from fractions import Fraction

import numpy as np
import pytest

from capdual.core import (ConvergenceReport, LogValue, Partition,
                          WeightedVector, WeightVector, as_fraction, as_int,
                          fraction_log, power_rows, rational_vector)

from util import gaussian_power_rows


def test_logvalue_roundtrip_basics():
    assert LogValue.zero().to_float() == 0.0
    assert LogValue.one().to_float() == 1.0
    assert math.isclose(LogValue(-1, math.log(3.5)).to_float(), -3.5)
    assert LogValue(0, 5.0).log_mag == -math.inf  # one zero
    assert math.isclose(LogValue(1, math.log(2.0)).to_float(), 2.0)


def test_logvalue_pow_and_div():
    x = LogValue(1, math.log(2.0))
    assert math.isclose((x ** 10).to_float(), 1024.0)
    assert (x ** 0).to_float() == 1.0
    assert math.isclose((x ** -1).to_float(), 0.5)
    assert (LogValue(-1, 0.0) ** 3).sign == -1
    with pytest.raises(ZeroDivisionError):
        LogValue.zero() ** 0


def test_fraction_log_large_integer():
    big = Fraction(math.comb(10**3, 500))
    lv = fraction_log(big)
    assert lv.sign == 1
    assert math.isclose(lv.log_mag, math.log(math.comb(1000, 500)), rel_tol=1e-12)
    assert fraction_log(Fraction(0)).sign == 0
    assert fraction_log(Fraction(-3, 4)).sign == -1


def test_as_fraction_forms():
    assert as_fraction("3/7") == Fraction(3, 7)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction(0.25) == Fraction(1, 4)
    assert as_fraction(1 / 3) == Fraction(1, 3)


def test_rational_vector_length_check():
    assert rational_vector(["1/2", 0.5], 2) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        rational_vector([1, 2], 3)


def test_weight_vector_arithmetic():
    a = WeightVector((1, -2))
    assert a.dot([2.0, 1.0]) == 0.0


def test_weighted_vector_rejects_duplicates():
    with pytest.raises(ValueError):
        WeightedVector.from_terms(1, [((0,), 1.0), ((0,), 2.0)])


def test_weighted_vector_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        WeightedVector.from_terms(2, {(0,): 1.0})


def test_weighted_vector_norm_and_born():
    v = WeightedVector.from_terms(1, {(0,): 3.0, (1,): 4.0})
    assert math.isclose(v.norm_sq, 25.0)
    born = v.born()
    assert math.isclose(born[WeightVector((0,))], 9 / 25)
    assert math.isclose(sum(born.values()), 1.0)
    u = v.normalized()
    assert math.isclose(u.norm_sq, 1.0)


def test_weighted_vector_character_shift():
    v = WeightedVector.from_terms(1, {(0,): 1.0, (2,): 1.0})
    w = v.scaled_by_character([0.5])
    amps = {wt.coords: c for wt, c in w.terms}
    assert math.isclose(abs(amps[(0,)]), 1.0)
    assert math.isclose(abs(amps[(2,)]), math.e)


def test_pruned_is_self_unless_a_term_falls_below_the_floor():
    v = WeightedVector.from_terms(2, {(0, 0): 1.0, (1, 0): 1e-14, (0, 1): 0.5j})
    assert v.pruned() is v
    w = WeightedVector.from_terms(2, {(0, 0): 1.0, (1, 0): 1e-16, (0, 1): 0.5j})
    p = w.pruned()
    assert p is not w and len(w.terms) == 3
    assert p == WeightedVector.from_terms(2, {(0, 0): 1.0, (0, 1): 0.5j})
    assert w.pruned(floor=0.0) is w and p.pruned() is p
    zero = WeightedVector(1, ())
    assert zero.pruned() is zero


def test_as_fraction_returns_an_exact_fraction_as_it_is():
    x = Fraction(3, 7)
    assert as_fraction(x) is x
    assert rational_vector((x, 1))[0] is x
    y = as_fraction(2)
    assert type(y) is Fraction and y == 2


def test_partition_validation():
    p = Partition((3, 1, 0, 0))
    assert p.parts == (3, 1)
    assert p.size == 4
    assert p.padded(4) == (3, 1, 0, 0)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_as_int_takes_integer_values_and_names_the_rest():
    for x in (3, np.int64(3), np.uint8(3), 3.0, np.float64(3.0), Fraction(6, 2)):
        n = as_int(x)
        assert type(n) is int and n == 3
    assert as_int(True) == 1 and as_int(-0.0) == 0
    for x in (0.5, -2.5, Fraction(1, 2), "3", 3 + 0j, math.nan, math.inf, None):
        with pytest.raises(ValueError, match=re.escape(f"part {x!r} is not an integer")):
            as_int(x, "part")


def test_nonintegral_coordinates_are_rejected_not_truncated():
    # a coordinate or part that is not an integer is an error, not the
    # integer int() truncates it to
    with pytest.raises(ValueError, match="weight coordinate 0.5 is not an integer"):
        WeightVector((0.5,))
    with pytest.raises(ValueError, match="partition part 2.5 is not an integer"):
        Partition((2.5, 1))
    # not a "duplicate weight (0,)": (0.5,) is no weight at all
    with pytest.raises(ValueError, match="weight coordinate 0.5 is not an integer"):
        WeightedVector.from_terms(1, {(0.5,): 1, (0,): 1})
    assert WeightVector((2.0, np.int64(-1))).coords == (2, -1)
    assert Partition((np.int32(3), 1.0)).parts == (3, 1)


def test_convergence_report_columns_and_duality():
    rep = ConvergenceReport(columns=("k", "gap"),
                            rows=[(1, 0.5), (2, 0.1), (3, float("nan"))],
                            metadata={})
    assert rep.column("k") == [1, 2, 3]
    assert rep.check_weak_duality()
    bad = ConvergenceReport(columns=("k", "gap"), rows=[(1, -1.0)], metadata={})
    assert not bad.check_weak_duality()


def _convolved_rows(coeffs, k_max):
    """The plain reference: the dense row of every coefficient key, one
    np.convolve a power."""
    lo = min(coeffs)
    exact = all(isinstance(c, int) for c in coeffs.values())
    base = np.zeros(max(coeffs) - lo + 1, dtype=object if exact else complex)
    for e, c in coeffs.items():
        base[e - lo] = c
    row = np.ones(1, dtype=base.dtype)
    for k in range(1, k_max + 1):
        row = np.convolve(row, base)
        yield k * lo, row


INTEGER_MAPS = {
    "walk": {-1: 1, 1: 1},
    "gcd3-odd-offset": {-3: 2, 0: 1, 3: 5},
    # tests/test_projection.py's RATIONAL_4 cleared over its denominator 1155
    "rational4-cleared": {-2: 385, -1: -462, 1: 495, 3: 420},
    "one-term": {4: 7},
    "zero": {0: 0},
    # the zero coefficient at -2 still sets lo, so every row starts at -2k
    "zero-at-an-end": {-2: 0, 0: 1, 4: 3},
}


@pytest.mark.parametrize("coeffs", INTEGER_MAPS.values(), ids=INTEGER_MAPS.keys())
def test_power_rows_match_convolution(coeffs):
    got = list(power_rows(coeffs, 40))
    want = list(_convolved_rows(coeffs, 40))
    assert len(got) == len(want) == 40
    for (lo, row), (want_lo, want_row) in zip(got, want):
        assert lo == want_lo and row.dtype == object
        assert row.tolist() == want_row.tolist()
        assert all(type(x) is int for x in row)


@pytest.mark.parametrize("exponents", [(-1, 1), (-3, 0, 3), (-2, 1, 4), (0, 1, 2, 5)])
def test_complex_power_rows_near_exact(exponents):
    rng = np.random.default_rng(len(exponents) + exponents[0])
    terms = {e: complex(*rng.normal(size=2)) for e in exponents}
    eps = np.finfo(float).eps
    rows = list(zip(power_rows(terms, 40), gaussian_power_rows(terms, 40)))
    assert len(rows) == 40
    for (lo, row), (dk, exact) in rows:
        assert row.dtype == complex and all(0 <= e - lo < len(row) for e in exact)
        want = np.array([complex(Fraction(re, dk), Fraction(im, dk)) for re, im in
                         (exact.get(lo + i, (0, 0)) for i in range(len(row)))])
        assert np.max(np.abs(row - want)) <= 8 * eps * np.max(np.abs(want))


def _added_rows(coeffs, k_max):
    """power_rows with every term added into a row of zeros: the
    per-term path, each cell the same sum in the same order."""
    lo = min(coeffs)
    dtype = object if all(isinstance(c, int) for c in coeffs.values()) else complex
    terms = [(e - lo, c) for e, c in coeffs.items() if c]
    g = math.gcd(*(s for s, _ in terms)) or 1
    row = np.ones(1, dtype=dtype)
    for k in range(1, k_max + 1):
        new = np.zeros(len(row) + max(coeffs) - lo, dtype=dtype)
        for s, c in terms:
            new[s::g][:len(row[::g])] += row[::g] if c == 1 else c * row[::g]
        row = new
        yield k * lo, row


COMPLEX_MAPS = {
    "negative-zero-imag": {-1: complex(-1, -0.0), 1: 1.0},
    "negative-zero-first": {-2: complex(-1, -0.0), 0: complex(0.5, -0.0), 2: 2j},
    "gaussian": {-1: 0.8 + 0.3j, 1: 1.1, 3: 0.5j},
    "unit-first": {0: 1.0, 1: -0.0 - 1j},
}


@pytest.mark.parametrize("coeffs", [*INTEGER_MAPS.values(), *COMPLEX_MAPS.values()],
                         ids=[*INTEGER_MAPS, *COMPLEX_MAPS])
def test_power_rows_match_the_per_term_adds(coeffs):
    # Exact rows write their first term instead of adding it to zeros: the
    # same ints. Complex rows add every term, bit for bit as the per-term
    # path: writing the first term would keep the -0.0 that 0 + (-0.0)
    # turns into 0.0.
    got = list(power_rows(coeffs, 30))
    want = list(_added_rows(coeffs, 30))
    assert len(got) == len(want) == 30
    for (lo, row), (want_lo, want_row) in zip(got, want):
        assert lo == want_lo and row.dtype == want_row.dtype
        if row.dtype == object:
            assert row.tolist() == want_row.tolist()
        else:
            assert row.tobytes() == want_row.tobytes()
