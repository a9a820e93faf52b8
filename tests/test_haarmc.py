import math

import numpy as np
import pytest

from capdual.core import WeightedVector
from capdual.haarmc import (UnitaryOrbitVector, mc_invariant_norm,
                            mc_isotypic_norm, sample_haar_unitary)
from capdual.projection import projection_norm_table
from capdual.spectrum import schur_weyl_measure

SAMPLES = 120_000


def binomial_vector() -> WeightedVector:
    r = math.sqrt(0.5)
    return WeightedVector.from_terms(1, {(0,): r, (1,): r})


def test_haar_unitarity():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4, 8):
        u = sample_haar_unitary(n, rng)
        assert np.linalg.norm(u @ u.conj().T - np.eye(n)) <= 1e-12


def test_haar_first_entry_moment():
    # E |u_11|^2 = 1/n under the Haar measure
    rng = np.random.default_rng(7)
    n = 3
    vals = [abs(sample_haar_unitary(n, rng)[0, 0]) ** 2 for _ in range(4000)]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals) / math.sqrt(len(vals)))
    assert abs(mean - 1 / n) <= 4 * stderr


def test_haar_dimension_guard():
    with pytest.raises(ValueError):
        sample_haar_unitary(9, np.random.default_rng(0))


def test_torus_estimate_matches_exact():
    est = mc_isotypic_norm(binomial_vector(), 2, (1,), samples=SAMPLES, seed=3)
    assert est.samples == SAMPLES
    assert abs(est.mean.real - 0.5) <= 4 * est.stderr
    assert abs(est.mean.imag) <= 1e-12  # exact-weight phase averages out


def test_torus_invariant_component():
    r = math.sqrt(0.5)
    v = WeightedVector.from_terms(1, {(-1,): r, (1,): r})
    est = mc_invariant_norm(v, 4, samples=SAMPLES, seed=5)
    assert abs(est.mean.real - 6 / 16) <= 4 * est.stderr


def test_torus_agrees_with_table_on_random_instance():
    rng = np.random.default_rng(41)
    terms = {(0, 1): complex(rng.normal(), rng.normal()),
             (1, 0): complex(rng.normal(), rng.normal()),
             (1, 1): complex(rng.normal(), rng.normal())}
    v = WeightedVector.from_terms(2, terms).normalized()
    table = projection_norm_table(v, 3)
    for lam in ((1, 2), (2, 1), (3, 3), (2, 2)):
        exact = table.get(3, lam).to_float()
        est = mc_isotypic_norm(v, 3, lam, samples=SAMPLES, seed=11)
        assert abs(est.mean.real - exact) <= 4 * est.stderr + 1e-12


def test_su2_unit_vector_components():
    u = UnitaryOrbitVector("su2", (1.0 + 0j, 0.0 + 0j))
    top = mc_isotypic_norm(u, 3, 3, samples=SAMPLES, seed=2)
    assert abs(top.mean.real - 1.0) <= 4 * top.stderr
    lower = mc_isotypic_norm(u, 3, 1, samples=SAMPLES, seed=2)
    assert abs(lower.mean.real) <= 4 * lower.stderr + 1e-12
    invariant = mc_invariant_norm(u, 2, samples=SAMPLES, seed=9)
    assert abs(invariant.mean.real) <= 4 * invariant.stderr + 1e-12


def test_su2_partition_label_equivalence():
    # (3, 1) has m = 2, same component as the plain label 2
    u = UnitaryOrbitVector("su2", (0.6 + 0j, 0.8j))
    a = mc_isotypic_norm(u, 4, (3, 1), samples=50_000, seed=13)
    b = mc_isotypic_norm(u, 4, 2, samples=50_000, seed=13)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_u2_matches_schur_weyl_mass():
    A = np.array([[0.8 + 0.1j, 0.2 - 0.3j], [0.1, 0.5 + 0.2j]])
    A /= np.linalg.norm(A)
    w = UnitaryOrbitVector("u2", tuple(map(tuple, A.tolist())))
    sigma = A @ A.conj().T
    q = sorted(np.linalg.eigvalsh(sigma).real.tolist(), reverse=True)
    masses = {tuple(r.lam.padded(2)): r.prob.to_float()
              for r in schur_weyl_measure(q, 3)}
    for lam in ((3, 0), (2, 1)):
        est = mc_isotypic_norm(w, 3, lam, samples=SAMPLES, seed=17)
        assert abs(est.mean.real - masses[lam]) <= 4 * est.stderr


def test_reproducibility_bitwise():
    v = binomial_vector()
    a = mc_isotypic_norm(v, 2, (1,), samples=30_000, seed=123)
    b = mc_isotypic_norm(v, 2, (1,), samples=30_000, seed=123)
    assert a.mean == b.mean
    assert a.stderr == b.stderr
    c = mc_isotypic_norm(v, 2, (1,), samples=30_000, seed=124)
    assert c.mean != a.mean


def test_estimate_validation():
    v = binomial_vector()
    with pytest.raises(ValueError):
        mc_invariant_norm(v, 9, samples=100)  # k above the cap
    with pytest.raises(ValueError):
        mc_invariant_norm(v, 2, samples=0)
    with pytest.raises(ValueError):
        mc_invariant_norm(v, 2, samples=100, seed=-1)
    with pytest.raises(ValueError):
        mc_isotypic_norm(v, 2, (1, 2), samples=100)  # label rank mismatch
    with pytest.raises(ValueError):
        UnitaryOrbitVector("su2", (1.0, 1.0))  # not unit norm
    with pytest.raises(ValueError):
        UnitaryOrbitVector("so3", (1.0, 0.0))
