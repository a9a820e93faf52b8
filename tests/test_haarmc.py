import math
import time
import tracemalloc

import numpy as np
import pytest

from capdual.core import WeightedVector
from capdual.haarmc import (BLOCK, MAX_K, UnitaryOrbitVector, _block_rng, _chebyshev_u,
                            _dispatch, mc_invariant_norm, mc_isotypic_norm,
                            sample_haar_unitary)
from capdual.projection import projection_norm_table
from capdual.spectrum import schur_weyl_measure

from util import torus_integrand

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


class FixedDraws:
    """Stands in for a block generator: its one draw fills out= with a fixed
    batch."""

    def __init__(self, batch):
        self.batch = np.asarray(batch, dtype=float)

    def standard_normal(self, *, out):
        assert out.shape == self.batch.shape
        out[...] = self.batch
        return out


def kernel_values(instance, k, lam, batch) -> np.ndarray:
    """The block integrand at the normals of batch, fed as the kernel's one
    draw, a (rows, size) array."""
    kernel = _dispatch(instance, k, lam)
    return kernel.block(FixedDraws(batch), np.empty((kernel.rows, batch.shape[1]))).copy()


def circle_batch(rng, size: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal pairs for the torus kernel, laid out as it draws them (rows 2j
    and 2j + 1, read flat, alternate the real and imaginary parts of
    coordinate j's pairs), and their angles x, one row a sample, from which
    the references take their phases."""
    pairs = rng.standard_normal((n, size, 2))
    return pairs.reshape(2 * n, size), np.angle(pairs[..., 0] + 1j * pairs[..., 1]).T


def quaternion_batch() -> np.ndarray:
    """4-normal draws: random rows, rows at Re a = +-1 exactly, and rows
    with |Re a| within 1e-9 of 1, where sin(phi) all but vanishes."""
    edge = [[1, 0, 0, 0], [-1, 0, 0, 0], [2.5, 0, 0, 0], [1, 1e-5, 0, 0],
            [-1, 0, 3e-5, -2e-5], [0.3, 0, 0, 1e-6], [0, 1, 0, 0], [0, 0, 1, 0]]
    return np.vstack([edge, np.random.default_rng(31).standard_normal((24, 4))])


def explicit_su2(g: np.ndarray) -> np.ndarray:
    a = (g[:, 0] + 1j * g[:, 1]) / np.linalg.norm(g, axis=1)
    b = (g[:, 2] + 1j * g[:, 3]) / np.linalg.norm(g, axis=1)
    return np.array([[[x, y], [-np.conj(y), np.conj(x)]] for x, y in zip(a, b)])


def schur_from_eigenvalues(u: np.ndarray, l1: int, l2: int) -> complex:
    """chi_(l1, l2)(u) = (z1 z2)^l2 h_{l1 - l2}(z1, z2) on the eigenvalues of
    u, with no division, so coincident eigenvalues need no special case."""
    z1, z2 = np.linalg.eigvals(u)
    m = l1 - l2
    return (z1 * z2) ** l2 * sum(z1**j * z2 ** (m - j) for j in range(m + 1))


def su2_labels(k):
    return [None] + [m for m in range(k + 1) if (k - m) % 2 == 0]


def u2_labels(k):
    return [(l1, k - l1) for l1 in range((k + 1) // 2, k + 1)]


@pytest.mark.parametrize("group", ["su2", "u2"])
@pytest.mark.parametrize("k", [1, 2, 3, 5, MAX_K])
def test_su2_kernel_matches_explicit_matrices(group, k):
    g = quaternion_batch()
    s = explicit_su2(g)
    rng = np.random.default_rng(5)
    if group == "su2":
        v = np.array([0.6, 0.8j])
        inst = UnitaryOrbitVector("su2", tuple(v))
        u = s
        f = np.einsum("i,bij,j->b", v.conj(), u, v)  # <v, u v>
        labels = [(lam, (lam, 0)) for lam in su2_labels(k)]
    else:
        A = np.array([[0.8 + 0.1j, 0.2 - 0.3j], [0.1, 0.5 + 0.2j]])
        A /= np.linalg.norm(A)
        inst = UnitaryOrbitVector("u2", tuple(map(tuple, A.tolist())))
        u = np.exp(2j * math.pi * rng.random(len(g)))[:, None, None] * s
        f = np.einsum("bij,jl,li->b", u, A, A.conj().T)  # tr(u A A^*)
        labels = [(lam, lam) for lam in u2_labels(k)]
    for lam, (l1, l2) in labels:
        if lam is None:
            want = f**k
        else:
            chi = np.array([schur_from_eigenvalues(x, l1, l2) for x in u])
            want = (l1 - l2 + 1) * np.conj(chi) * f**k
        got = kernel_values(inst, k, lam, g.T)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_torus_kernel_matches_explicit_phases():
    v = WeightedVector.from_terms(2, {(1, 0): 0.5, (-1, 2): 0.5j,
                                      (0, -3): 0.5, (2, 1): -0.5}).normalized()
    batch, x = circle_batch(np.random.default_rng(8), 32, 2)
    q = v.amplitudes_sq()
    f = sum(q[w] * np.exp(1j * (x @ np.array(w.coords))) for w in v.support)
    for lam in (None, (0, 0), (1, -2), (3, 4)):
        want = f**3 if lam is None else f**3 * np.exp(-1j * (x @ np.array(lam)))
        got = kernel_values(v, 3, lam, batch)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("W, labels, tol", [
    ([(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1)], [(1, -1), (0, 1)], 1e-14),
    ([(3, 0), (-2, 5), (0, -4), (7, 1), (1, 1)], [(2, -3), (-1, 4)], 1e-12),
], ids=["unit", "general"])
def test_torus_kernel_matches_one_cos_sin_pass_per_weight(W, labels, tol):
    # The kernel raises e^{i x_j} to the weights' coordinates; the reference
    # takes cos and sin of <w, x> per weight, x the angles of the pairs.
    # They agree within tol of the block's largest value (elementwise
    # relative error is unbounded near the zeros of the integrand).
    rng = np.random.default_rng(12)
    v = WeightedVector.from_terms(2, {w: complex(*rng.normal(size=2)) for w in W}).normalized()
    q = v.amplitudes_sq()
    batch, x = circle_batch(rng, 4096, 2)
    for k in (1, 3, MAX_K):
        for lam in (None, *labels):
            got = kernel_values(v, k, lam, batch)
            want = torus_integrand([w.coords for w in v.support], [q[w] for w in v.support],
                                   k, lam, x)
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), (k, lam)


def test_torus_coordinate_of_a_million_is_one_power_pass():
    # e^{i x}^(10^6) is one cos and one sin pass, not 10^6 products. At
    # arguments near 2 pi 10^6 both forms round <w, x> to about 1e-9.
    r = math.sqrt(0.5)
    for v, lam in ((WeightedVector.from_terms(1, {(0,): r, (10**6,): r}), (10**6,)),
                   (WeightedVector.from_terms(1, {(-10**6,): r, (10**6,): r}), (2 * 10**6,))):
        start = time.perf_counter()
        est = mc_isotypic_norm(v, 2, lam, samples=BLOCK, seed=4)
        assert time.perf_counter() - start < 1.0
        assert est.blocks == 1
        batch, x = circle_batch(np.random.default_rng(6), 4096, 1)
        got = kernel_values(v, 2, lam, batch)
        want = torus_integrand([w.coords for w in v.support], [0.5, 0.5], 2, lam, x)
        assert np.max(np.abs(got - want)) <= 1e-8


@pytest.mark.parametrize("s", [99, 100, 12_345, 10**6])
def test_torus_kernel_at_large_exponents_matches_one_cos_sin_pass_per_weight(s):
    # Above 99 the kernel takes cos and sin of s x, x the angle of the pair,
    # the reference's own arguments on one axis, so the two agree within the
    # general kernel test's 1e-12 of the block's largest value. 99 keeps
    # the products.
    rng = np.random.default_rng(s)
    r = math.sqrt(0.5)
    batch, x = circle_batch(rng, 4096, 1)
    for W, labels in (([(0,), (s,)], [(s,), (2 * s,)]), ([(-s,), (1,)], [(1 - s,), (-2 * s,)])):
        v = WeightedVector.from_terms(1, {w: r for w in W})
        for k in (2, 3, MAX_K):  # every label lies in the box of k-fold weight sums
            for lam in (None, *labels):
                got = kernel_values(v, k, lam, batch)
                want = torus_integrand([w.coords for w in v.support], [0.5, 0.5], k, lam, x)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (W, k, lam)


def test_torus_labels_outside_the_weight_box_give_exact_zero():
    # k = 2 draws from the weights 0 and 1 sum to 0, 1 or 2: any other label
    # has norm exactly 0, and a phase e^{-i 10^30 x} would overflow.
    for lam in ((3,), (-1,), (10**30,), -(10**30)):
        est = mc_isotypic_norm(binomial_vector(), 2, lam, samples=1000, seed=3)
        assert (est.mean, est.stderr) == (0, 0)


def test_chebyshev_u_is_the_su2_character():
    phi = np.linspace(0.01, math.pi - 0.01, 201)
    for m in range(MAX_K + 1):
        np.testing.assert_allclose(_chebyshev_u(m, np.cos(phi), np.empty((4, phi.size))),
                                   np.sin((m + 1) * phi) / np.sin(phi),
                                   rtol=1e-12, atol=1e-12)
        ends = _chebyshev_u(m, np.array([1.0, -1.0]), np.empty((4, 2)))
        assert ends.tolist() == [m + 1, (m + 1) * (-1) ** m]


_U2 = UnitaryOrbitVector("u2", ((0.8660254037844386, 0), (0, 0.5)))
_TORUS2 = WeightedVector.from_terms(2, {(3, 0): 0.6, (-1, 2): 0.6j, (0, -1): 0.4, (1, 1): 0.36})


@pytest.mark.parametrize("instance, k, lam, rows", [
    (UnitaryOrbitVector("su2", (0.6, 0.8j)), 3, 1, 8),
    (_U2, 2, (1, 1), 8),
    (_TORUS2, 2, (2, 1), 4 * 2 + 7),
], ids=["su2", "u2", "torus"])
def test_a_run_allocates_one_workspace(instance, k, lam, rows):
    # A run sizes one workspace for a block and every block draws and
    # computes into it: over 3 full blocks and a part, the traced peak
    # stays within 8 BLOCK bytes of the workspace, so no block allocates an
    # array of its size (a complex one is 16 BLOCK bytes). The torus case
    # raises a coordinate to the power 3, conjugates two, and has a label.
    # A short run first, so that the first call's lazy imports are not
    # traced.
    kernel = _dispatch(instance, k, lam)
    assert kernel.rows == rows
    mc_isotypic_norm(instance, k, lam, samples=10, seed=1)
    tracemalloc.start()
    try:
        est = mc_isotypic_norm(instance, k, lam, samples=3 * BLOCK + 100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.blocks == 4
    assert 8 * rows * BLOCK <= peak < 8 * rows * BLOCK + 8 * BLOCK
    assert est.stderr > 0


def test_draws_have_the_haar_moments():
    # At one seed over 2^17 samples: the SU(2) draw a (the integrand of
    # v = (1, 0) at k = 1, tr(s e0 e0^*)) has E[a] = 0, and Re a, one
    # coordinate of a uniform point on the 3-sphere, has E[(Re a)^2] = 1/4
    # and E[(Re a)^4] = 1/8; the circle draw e^{ix} (weight 1, k = 1) has
    # E[e^{ix}] = E[e^{2ix}] = 0. Each mean within 4 of its standard errors.
    def draws(instance):
        kernel = _dispatch(instance, 1, None)
        ws = np.empty((kernel.rows, BLOCK))
        return np.concatenate([kernel.block(_block_rng(1, b), ws).copy() for b in range(8)])

    a = draws(UnitaryOrbitVector("su2", (1.0, 0.0)))
    e = draws(WeightedVector.from_terms(1, {(1,): 1.0}))
    assert a.size == e.size == 1 << 17
    np.testing.assert_allclose(np.abs(e), 1.0, rtol=1e-15)
    for name, x, mean in (("Re a", a.real, 0.0), ("Im a", a.imag, 0.0),
                          ("(Re a)^2", a.real**2, 0.25), ("(Re a)^4", a.real**4, 0.125),
                          ("Re e", e.real, 0.0), ("Im e", e.imag, 0.0),
                          ("Re e^2", (e**2).real, 0.0), ("Im e^2", (e**2).imag, 0.0)):
        assert abs(x.mean() - mean) <= 4 * x.std() / math.sqrt(x.size), name
