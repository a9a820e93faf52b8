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
occur in (C^2)^{tensor k} and 0 on the rest. A unit quaternion is four
standard normals g over |g|, and tr(s sigma) is a real-linear form in them.
A torus coordinate e^{i x_j} is a normalised complex Gaussian pair, uniform
on the circle, so no angle is drawn and no cos or sin is taken unless a
power of it exceeds _POWER_BY_PRODUCTS. Characters come from the Chebyshev
recurrence.

Sampling is counter-based: block b of a run with seed s draws from an SFC64
generator seeded by SeedSequence([s, b]), so estimates are bit-identical for
a given seed regardless of how blocks are scheduled, and the reduction is
ordered by block index.

A run allocates one workspace, sized from the instance for one block: 8 rows
of BLOCK float64 for SU(2) and U(2), and for a torus of rank n at most
4n + 7, plus one a coordinate raised past _POWER_BY_PRODUCTS. Every block
writes its draws and temporaries into it (out=), so no block allocates an
array of its size, and the allocator has no block-sized memory to hand back
to the operating system between blocks and fault in again. BLOCK = 2^14
keeps the workspace at about 2 MiB, one core's L2 cache on common hosts.
The reductions are ufunc sums and einsum, not BLAS: at some lengths
between 10,000 and 20,000 doubles a BLAS dot product can take
milliseconds where its neighbours take microseconds (about 8 ms at 12,000
against 3 us at 10,000 on a 2-CPU x86 host), and a block's rows fall in
that range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import Partition, WeightedVector, as_int

__all__ = [
    "McEstimate",
    "UnitaryOrbitVector",
    "sample_haar_unitary",
    "mc_invariant_norm",
    "mc_isotypic_norm",
]

BLOCK = 1 << 14
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
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, block])))


# ---------------------------------------------------------------------------
# Block kernels. Each writes d_lambda * conj(chi_lambda(u)) * <v, u v>^k over
# one block's samples into its workspace, by elementwise ufuncs with out=.


class _Kernel(NamedTuple):
    """rows, the float64 rows of workspace a block needs, and block(rng, ws),
    which draws from rng into ws, a C-contiguous (rows, size) array, and
    returns the integrand at the size samples as a complex view into it."""

    rows: int
    block: Callable[[np.random.Generator, np.ndarray], np.ndarray]


def _complex_row(ws: np.ndarray, i: int) -> np.ndarray:
    """Rows i and i + 1 of ws as one complex row of the same length."""
    return ws[i:i + 2].reshape(-1).view(complex)


def _zero_block(rng, ws: np.ndarray) -> np.ndarray:
    z = _complex_row(ws, 0)
    z.fill(0.0)
    return z


_ZERO = _Kernel(2, _zero_block)

# Up to this exponent a power of e^{i x_j} is taken by products, one squaring
# a bit of the exponent; above it, as one cos and one sin of w_j x_j, x_j the
# angle of the pair, which costs the same at any exponent.
_POWER_BY_PRODUCTS = 99


def _raise(out: np.ndarray, p: int, base: np.ndarray) -> None:
    """out ** p in place (p >= 1), out holding base on entry: left-to-right
    binary powering, one squaring a bit of p after the leading one and one
    product by base a 1 bit."""
    for bit in bin(p)[3:]:
        np.multiply(out, out, out=out)
        if bit == "1":
            np.multiply(out, base, out=out)


def _torus_kernel(W: list[tuple[int, ...]], q: list[float], k: int, lam) -> _Kernel:
    """(sum_w q_w e^{i <w, x>})^k e^{-i <lam, x>} at uniform x on the torus.

    Workspace rows: the pairs e_j (2n), conj(e_j) for each coordinate some
    phase raises to a power of -1 .. -_POWER_BY_PRODUCTS (2 each), the angle
    x_j of each coordinate some phase raises past _POWER_BY_PRODUCTS (1
    each), the sum z, a phase and a factor (2 each), and a float row t."""
    n = len(W[0])
    label = tuple(-c for c in lam) if lam is not None and any(lam) else None
    phases = [*W, label] if label else W
    conj = sorted({j for w in phases for j, c in enumerate(w) if -_POWER_BY_PRODUCTS <= c < 0})
    angle = sorted({j for w in phases for j, c in enumerate(w) if abs(c) > _POWER_BY_PRODUCTS})
    c0 = 2 * n
    a0 = c0 + 2 * len(conj)
    z0 = a0 + len(angle)

    def block(rng, ws: np.ndarray) -> np.ndarray:
        e = ws[:c0].reshape(n, -1).view(complex)
        rng.standard_normal(out=ws[:c0])
        bar = {j: _complex_row(ws, c0 + 2 * i) for i, j in enumerate(conj)}
        x = {j: ws[a0 + i] for i, j in enumerate(angle)}
        z, work, tmp = (_complex_row(ws, z0 + 2 * i) for i in range(3))
        t = ws[z0 + 6]
        for j in angle:  # the angle of the raw pair
            np.arctan2(e[j].imag, e[j].real, out=x[j])
        for j, ej in enumerate(e):
            np.abs(ej, out=t)
            np.divide(ej.real, t, out=ej.real)
            np.divide(ej.imag, t, out=ej.imag)
        for j in conj:
            np.conjugate(e[j], out=bar[j])

        def factor(j: int, wj: int, out: np.ndarray) -> np.ndarray:
            """e_j^{w_j} (conj(e_j)^{-w_j} for w_j < 0) into out, or cos +
            i sin of w_j x_j above _POWER_BY_PRODUCTS; at |w_j| = 1 the
            row of e_j or conj(e_j) itself, read only."""
            if abs(wj) > _POWER_BY_PRODUCTS:
                np.multiply(x[j], wj, out=t)
                np.cos(t, out=out.real)
                np.sin(t, out=out.imag)
                return out
            base = e[j] if wj > 0 else bar[j]
            if abs(wj) == 1:
                return base
            np.copyto(out, base)
            _raise(out, abs(wj), base)
            return out

        def phase(w, out: np.ndarray) -> np.ndarray:
            """e^{i <w, x>}, the product of the factors of w's nonzero
            coordinates: out, or a lone factor's row as factor returns it."""
            nonzero = [(j, wj) for j, wj in enumerate(w) if wj]
            if not nonzero:
                out.fill(1.0)
                return out
            f = factor(*nonzero[0], out)
            for j, wj in nonzero[1:]:
                f = np.multiply(f, factor(j, wj, tmp), out=out)
            return f

        zf, wf = z.view(float), work.view(float)
        for i, (w, qw) in enumerate(zip(W, q)):
            f = phase(w, work).view(float)
            if i == 0:
                np.multiply(f, qw, out=zf)
            else:
                np.multiply(f, qw, out=wf)
                np.add(zf, wf, out=zf)
        if k > 1:
            np.copyto(work, z)
            _raise(z, k, work)
        if label:
            np.multiply(z, phase(label, work), out=z)
        return z

    return _Kernel(z0 + 7, block)


def _chebyshev_u(m: int, c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """U_m(c) = sin((m + 1) phi) / sin(phi) at c = cos(phi), the SU(2)
    character of highest weight m, by U_{j+1} = 2c U_j - U_{j-1} from
    U_0 = 1 and U_1 = 2c, in rows, a (4, len(c)) float array (c may be its
    first row). Returns the row that holds it."""
    two_c, prev, cur, nxt = rows
    if m == 0:
        cur.fill(1.0)
        return cur
    np.multiply(c, 2.0, out=two_c)
    prev.fill(1.0)
    np.copyto(cur, two_c)
    for _ in range(m - 1):
        np.multiply(two_c, cur, out=nxt)
        np.subtract(nxt, prev, out=nxt)
        prev, cur, nxt = cur, nxt, prev
    return cur


def _linear(g: np.ndarray, coeffs: list[tuple[int, float]], out: np.ndarray,
            tmp: np.ndarray) -> None:
    """sum_i c_i g_i over the (i, c_i) of coeffs into out."""
    if not coeffs:
        out.fill(0.0)
        return
    (i, c), *rest = coeffs
    np.multiply(g[i], c, out=out)
    for i, c in rest:
        np.multiply(g[i], c, out=tmp)
        np.add(out, tmp, out=out)


def _su2_kernel(sigma: np.ndarray, k: int, m: int | None) -> _Kernel:
    """tr(s sigma)^k, times (m + 1) U_m(Re a) when m is given, over Haar
    s = [[a, b], [-conj b, conj a]] in SU(2); sigma = v v^* gives <v, s v>^k.

    s is uniform on the unit quaternions: a = g0 + i g1 and b = g2 + i g3
    for four standard normals g over |g|. tr(s sigma) = a s00 + b s10 -
    conj(b) s01 + conj(a) s11 is a real-linear form in them, g0 (s00 + s11)
    + i g1 (s00 - s11) + g2 (s10 - s01) + i g3 (s10 + s01), whose real and
    imaginary parts keep only their nonzero coefficients. Workspace rows: g
    (4, then the Chebyshev rows), 1/|g| and a float row, and tr(s sigma)
    (2)."""
    c = np.array([sigma[0, 0] + sigma[1, 1], 1j * (sigma[0, 0] - sigma[1, 1]),
                  sigma[1, 0] - sigma[0, 1], 1j * (sigma[1, 0] + sigma[0, 1])])
    re = [(i, float(ci.real)) for i, ci in enumerate(c) if ci.real]
    im = [(i, float(ci.imag)) for i, ci in enumerate(c) if ci.imag]

    def block(rng, ws: np.ndarray) -> np.ndarray:
        g, r, t = ws[:4], ws[4], ws[5]
        f = _complex_row(ws, 6)
        rng.standard_normal(out=g)
        np.einsum("ij,ij->j", g, g, out=r)
        np.sqrt(r, out=r)
        np.divide(1.0, r, out=r)
        np.multiply(g, r, out=g)  # (Re a, Im a, Re b, Im b) on the unit sphere
        _linear(g, re, f.real, t)
        _linear(g, im, f.imag, t)
        if k > 1:
            work = _complex_row(ws, 4)
            np.copyto(work, f)
            _raise(f, k, work)
        if m:  # (m + 1) U_m is 1 at m = 0
            u = _chebyshev_u(m, g[0], g)
            np.multiply(u, m + 1, out=u)
            np.multiply(f.real, u, out=f.real)
            np.multiply(f.imag, u, out=f.imag)
        return f

    return _Kernel(8, block)


def _run_blocks(kernel: _Kernel, samples: int, seed: int) -> McEstimate:
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in 1..{MAX_SAMPLES}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    workspace = np.empty(kernel.rows * min(BLOCK, samples))
    parts = []
    for block, start in enumerate(range(0, samples, BLOCK)):
        size = min(BLOCK, samples - start)
        ws = workspace[:kernel.rows * size].reshape(kernel.rows, size)
        z = kernel.block(_block_rng(seed, block), ws)
        total, zf = complex(z.sum()), z.view(float)
        parts.append((total.real, total.imag, float(np.einsum("i,i->", zf, zf))))
    mean = complex(math.fsum(p[0] for p in parts) / samples,
                   math.fsum(p[1] for p in parts) / samples)
    msq = math.fsum(p[2] for p in parts) / samples
    var = max(msq - abs(mean) ** 2, 0.0)
    return McEstimate(mean, math.sqrt(var / samples), samples, seed, len(parts))


def _label_pair(lam) -> tuple[int, int]:
    """(l1, l2), l1 >= l2, named by an su2 or u2 label: a Partition, an
    integer l read as (l, 0), or one or two integer parts; a part that is
    not an integer raises ValueError (core.as_int)."""
    parts = (lam.padded(2) if isinstance(lam, Partition) else
             tuple(as_int(p, "label part") for p in lam) if isinstance(lam, (tuple, list))
             else (as_int(lam, "label"),))
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


def _dispatch(instance, k: int, lam) -> _Kernel:
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
            return _ZERO
        return _torus_kernel(W, q, k, coords)
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
            return _ZERO
        return _su2_kernel(sigma, k, m)
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
