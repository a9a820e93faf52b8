"""Monte Carlo oracle for the Haar-integral form of projection norms.

The invariant part of v^{tensor k} has squared norm equal to the Haar average
of <v, u v>^k; multiplying the integrand by d_lambda times the conjugate
character picks out one isotypic component instead. This module estimates
both by plain Monte Carlo for the torus U(1)^n, SU(2), and U(2), as an
independent check on the exact dynamic-programming and Schur-Weyl values.

SU(2) Haar measure is uniform on the unit quaternions, and U(2) Haar measure
is the image of U(1) x SU(2) under (z, s) -> z s, so one SU(2) sampler
serves both groups. The central phase z is integrated exactly: it multiplies
the integrand by z^{k - |lambda|}, whose average is 1 on the labels that
occur in (C^2)^{tensor k} and 0 on the rest. Characters come from the
Chebyshev recurrence, and the per-sample path is elementwise ufuncs with no
BLAS call.

Sampling is counter-based: block b of a run with seed s draws from a
generator keyed by (s, b), so estimates are bit-identical for a given seed
regardless of how blocks are scheduled, and the reduction is ordered by
block index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Partition, WeightedVector

__all__ = [
    "McEstimate",
    "UnitaryOrbitVector",
    "sample_haar_unitary",
    "mc_invariant_norm",
    "mc_isotypic_norm",
]

BLOCK = 1 << 16
MAX_K = 8
MAX_SAMPLES = 10**7
MAX_DIM = 8


@dataclass(frozen=True)
class McEstimate:
    mean: complex
    stderr: float
    samples: int
    seed: int
    blocks: int


@dataclass(frozen=True)
class UnitaryOrbitVector:
    """A unit vector in the defining representation of SU(2) ("su2", a pair
    of amplitudes) or in 2x2 matrices under left multiplication by U(2)
    ("u2", a matrix of unit Frobenius norm)."""

    group: str
    data: tuple

    def __post_init__(self) -> None:
        if self.group == "su2":
            v = np.array(self.data, dtype=complex)
            if v.shape != (2,):
                raise ValueError("su2 vector must have 2 components")
            if abs(np.vdot(v, v).real - 1.0) > 1e-10:
                raise ValueError("su2 vector must be unit norm")
            object.__setattr__(self, "data", tuple(complex(t) for t in v))
        elif self.group == "u2":
            a = np.array(self.data, dtype=complex)
            if a.shape != (2, 2):
                raise ValueError("u2 datum must be a 2x2 matrix")
            if abs(np.sum(np.abs(a) ** 2) - 1.0) > 1e-10:
                raise ValueError("u2 matrix must have unit Frobenius norm")
            object.__setattr__(self, "data",
                               tuple(tuple(complex(t) for t in row) for row in a))
        else:
            raise ValueError(f"unsupported group tag {self.group!r}")

    def matrix(self) -> np.ndarray:
        return np.array(self.data, dtype=complex)


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed n x n unitary: complex Ginibre, QR, and the
    R-diagonal phase folded into Q so the factorization is unique."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"n must be in 1..{MAX_DIM}")
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, block]))


# ---------------------------------------------------------------------------
# Per-block integrand evaluation. Each returns the complex array of
# d_lambda * conj(chi_lambda(u)) * <v, u v>^k over the block's samples, by
# elementwise ufuncs only.

# numpy's complex power multiplies for integer exponents up to this one and
# goes through the complex log and exp above it, several times the cost of a
# cos and a sin.
_POWER_BY_PRODUCTS = 99


def _phase(x: np.ndarray, e: np.ndarray, w, out: np.ndarray) -> np.ndarray:
    """e^{i <w, x>} into out: the product of e_j^{w_j} over the coordinates,
    e_j = e^{i x_j}, conj(e_j)^{-w_j} for w_j < 0. A power above 1 is one
    np.power pass, or one cos and one sin of |w_j| x_j above
    _POWER_BY_PRODUCTS."""
    out.fill(1.0)
    for xj, ej, wj in zip(x, e, w):
        if not wj:
            continue
        if wj < 0:  # out conj(f) = conj(conj(out) f)
            np.conjugate(out, out=out)
        if abs(wj) == 1:
            out *= ej
        elif abs(wj) <= _POWER_BY_PRODUCTS:
            out *= np.power(ej, abs(wj))
        else:
            t = xj * abs(wj)
            f = np.empty(t.shape, dtype=complex)
            np.cos(t, out=f.real)
            np.sin(t, out=f.imag)
            out *= f
        if wj < 0:
            np.conjugate(out, out=out)
    return out


def _torus_block(W: list[tuple[int, ...]], q: list[float], k: int, lam,
                 rng, size: int) -> np.ndarray:
    x = rng.uniform(0.0, 2.0 * math.pi, (size, len(W[0]))).T
    e = np.empty(x.shape, dtype=complex)  # e_j = e^{i x_j}: one cos/sin pair a coordinate
    np.cos(x, out=e.real)
    np.sin(x, out=e.imag)
    z = np.zeros(size, dtype=complex)
    work = np.empty(size, dtype=complex)
    for w, qw in zip(W, q):
        z += np.multiply(_phase(x, e, w, work), qw, out=work)
    z **= k
    if lam is not None and any(lam):
        z *= np.conjugate(_phase(x, e, lam, work), out=work)
    return z


def _su2_samples(rng, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of Haar SU(2) elements [[a, b], [-conj b, conj a]],
    uniform on the unit quaternions: views of one normalised draw."""
    g = rng.standard_normal((size, 4))
    g /= np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
    ab = g.view(complex)
    return ab[:, 0], ab[:, 1]


def _chebyshev_u(m: int, c: np.ndarray) -> np.ndarray:
    """U_m(c) = sin((m + 1) phi) / sin(phi) at c = cos(phi), the SU(2)
    character of highest weight m, by U_{j+1} = 2c U_j - U_{j-1} from
    U_{-1} = 0 and U_0 = 1."""
    prev, cur = np.zeros_like(c), np.ones_like(c)
    for _ in range(m):
        prev, cur = cur, 2.0 * c * cur - prev
    return cur


def _su2_block(sigma: np.ndarray, k: int, m: int | None, rng, size: int) -> np.ndarray:
    """tr(s sigma)^k, times (m + 1) U_m(Re a) when m is given, over Haar
    s in SU(2); sigma = v v^* gives <v, s v>^k."""
    a, b = _su2_samples(rng, size)
    f = a * sigma[0, 0]  # tr(s sigma), summed in the order a, b, conj b, conj a
    work = np.empty_like(f)
    f += np.multiply(b, sigma[1, 0], out=work)
    f -= np.multiply(np.conjugate(b, out=work), sigma[0, 1], out=work)
    f += np.multiply(np.conjugate(a, out=work), sigma[1, 1], out=work)
    z = f**k
    if m is not None:
        z *= (m + 1) * _chebyshev_u(m, a.real)
    return z


def _run_blocks(block_fn: Callable[[np.random.Generator, int], np.ndarray],
                samples: int, seed: int) -> McEstimate:
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in 1..{MAX_SAMPLES}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    sizes = [BLOCK] * (samples // BLOCK)
    if samples % BLOCK:
        sizes.append(samples % BLOCK)

    parts = []
    for block, size in enumerate(sizes):
        z = block_fn(_block_rng(seed, block), size)
        parts.append((float(z.real.sum()), float(z.imag.sum()),
                      float((np.abs(z) ** 2).sum())))
    mean = complex(math.fsum(p[0] for p in parts) / samples,
                   math.fsum(p[1] for p in parts) / samples)
    msq = math.fsum(p[2] for p in parts) / samples
    var = max(msq - abs(mean) ** 2, 0.0)
    return McEstimate(mean, math.sqrt(var / samples), samples, seed, len(sizes))


def _label_pair(lam) -> tuple[int, int]:
    """(l1, l2), l1 >= l2, named by an su2 or u2 label: a Partition, an
    integer l read as (l, 0), or one or two integer parts."""
    parts = (lam.padded(2) if isinstance(lam, Partition) else
             tuple(int(p) for p in lam) if isinstance(lam, (tuple, list)) else (int(lam),))
    if not 1 <= len(parts) <= 2:
        raise ValueError(f"label {list(parts)} must have one or two parts")
    pair = (parts[0], parts[1] if len(parts) > 1 else 0)
    if pair[0] < pair[1]:
        raise ValueError(f"label {list(parts)} reads as {pair}, which is not nonincreasing")
    return pair


def _torus_label(lam, n: int) -> tuple:
    """The weight named by a torus label: its n coordinates, or an integer l
    read as (l,), which names a weight of a rank-1 torus only."""
    coords = (lam,) if isinstance(lam, int) else tuple(getattr(lam, "coords", lam))
    if len(coords) != n:
        raise ValueError(f"label {list(coords)} does not match the torus rank {n}")
    return coords


def _dispatch(instance, k: int, lam) -> Callable[[np.random.Generator, int], np.ndarray]:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}")
    if isinstance(instance, WeightedVector):
        v = instance.pruned()
        if v.is_zero:
            raise ValueError("zero vector has no Haar estimate")
        coords = None if lam is None else _torus_label(lam, v.n)
        qs = v.amplitudes_sq()
        W = [w.coords for w in v.support]
        q = [qs[w] for w in v.support]
        # A label outside the box of k-fold sums of the weights has isotypic
        # norm exactly 0, and its phase, a power of e^{i x_j} beyond
        # k MAX_WEIGHT_COORD, could overflow.
        if coords is not None and any(not k * min(col) <= c <= k * max(col)
                                      for c, col in zip(coords, zip(*W))):
            return lambda rng, size: np.zeros(size, dtype=complex)
        return lambda rng, size: _torus_block(W, q, k, coords, rng, size)
    if isinstance(instance, UnitaryOrbitVector):
        # su2: sigma = v v^*. u2: u = z s with z in U(1), s in SU(2), and
        # d_lambda conj chi_lambda(z s) tr(z s sigma)^k equals
        # z^{k - |lambda|} (m + 1) U_m(Re a) tr(s sigma)^k with m = l1 - l2,
        # so on every label with |lambda| = k the central phase is 1 and
        # sigma = A A^*. A label that does not occur in (C^2)^{tensor k}
        # (u2 with no label is (0, 0)) has isotypic norm exactly 0, and
        # sampling would only add noise (or overflow).
        pair = None if lam is None else _label_pair(lam)
        if instance.group == "su2":
            m = None if pair is None else pair[0] - pair[1]
            absent = m is not None and (m > k or (k - m) % 2)
            v = np.array(instance.data, dtype=complex)
            sigma = np.outer(v, v.conj())
        else:
            l1, l2 = pair or (0, 0)
            m = l1 - l2
            absent = l2 < 0 or l1 + l2 != k
            A = instance.matrix()
            sigma = A @ A.conj().T
        if absent:
            return lambda rng, size: np.zeros(size, dtype=complex)
        return lambda rng, size: _su2_block(sigma, k, m, rng, size)
    raise TypeError(f"unsupported instance {type(instance).__name__}")


def mc_invariant_norm(instance, k: int, samples: int = 10**6,
                      seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of the squared norm of the invariant part of
    v^{tensor k}, the Haar average of <v, u v>^k."""
    return _run_blocks(_dispatch(instance, k, None), samples, seed)


def mc_isotypic_norm(instance, k: int, lam, samples: int = 10**6,
                     seed: int = 0) -> McEstimate:
    """Monte Carlo estimate of the squared norm of the lambda-isotypic part
    of v^{tensor k}: the Haar average of d_lambda conj(chi_lambda) <v,u v>^k."""
    return _run_blocks(_dispatch(instance, k, lam), samples, seed)
