"""Capacities of torus orbits via geodesically convex optimization.

For a vector v = sum_w c_w e_w and a rational target theta, the theta-capacity
is the infimum of exp(F(x)/2) over x in R^n, where

    F(x) = -2 <theta, x> + log sum_w |c_w|^2 exp(2 <w, x>).

The infimum is positive exactly when theta lies in the moment polytope, i.e.
the convex hull of the occupied weights. One exact rational routine,
`_face_search`, decides membership and finds the minimal face containing
theta. It solves the membership LP {p >= 0, sum p = 1, sum p_w w = theta}
once, which yields a certificate either way. Inside, it seeds the face set S
with the support of that solution and then repeats "maximize the mass of p
off S", adding each solution's support to S, until the optimum is 0. No
feasible p then puts mass off S, so S is the minimal face. The average of the
collected solutions is a feasible point positive exactly on S. When theta sits
on a proper face the minimization is restricted to the face weights (the
infimum is then attained there but not on the original orbit, which the
`diverging` flag records).

Damped Newton minimizes F on the face. It stops when the gradient is at most
grad_tol, or at the floating-point resolution of F: when the Newton decrement
-g.d is at most 8 eps max(1, |F|), or when 60 step halvings find no Armijo
step (the current point is then kept). Below that resolution the Armijo test
cannot tell a decrease from rounding. `CapacityResult.status` records which
stop was taken.

An independent cross-check solves the equivalent relative-entropy program

    -log cap_theta(v)^2 = min { D(p || q) : sum_w p_w w = theta }

with q the squared amplitudes, by a damped Newton method in the probability
simplex rather than in the torus variable x, with the same stop rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import LogValue, WeightVector, WeightedVector, rational_vector
from .exactlp import simplex_max

__all__ = [
    "MembershipCertificate",
    "CapacityResult",
    "moment_map",
    "moment_polytope_contains",
    "theta_capacity",
    "capacity_kl_form",
]

GRAD_TOL = 1e-10
MAX_ITER = 500


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of an exact moment-polytope membership test.

    For inside points, coefficients is a convex combination of support
    weights equal to theta. For outside points, separator = (a, offset) is a
    rational functional with <a, w> <= offset on the support but
    <a, theta> > offset.
    """

    inside: bool
    coefficients: tuple[tuple[WeightVector, Fraction], ...] | None = None
    separator: tuple[tuple[Fraction, ...], Fraction] | None = None

    def __bool__(self) -> bool:
        return self.inside


@dataclass(frozen=True)
class CapacityResult:
    """A theta-capacity and how Newton reached it.

    status is "converged" (gradient norm at most grad_tol, or theta a
    vertex), "precision" (stopped at the floating-point resolution of F with
    the gradient above grad_tol), "max_iter" (ran out of iterations) or
    "outside" (theta is not in the moment polytope). iterations counts the
    Newton steps taken. face lists the indices into v.pruned().support of the
    weights on the minimal face containing theta, to which the minimization
    is restricted; it is empty outside.
    """

    log_cap: LogValue
    minimizer_x: np.ndarray | None
    diverging: bool
    iterations: int
    gradient_norm: float
    certificate: MembershipCertificate
    status: str
    face: tuple[int, ...]


def moment_map(v: WeightedVector) -> np.ndarray:
    """The Born-weighted average of the occupied weights, mu(v)."""
    if v.is_zero:
        raise ValueError("moment map of the zero vector is undefined")
    born = v.born()
    mu = np.zeros(v.n)
    for w, p in born.items():
        mu += p * np.array(w.coords, dtype=float)
    return mu


def _face_search(support: Sequence[WeightVector], theta: tuple[Fraction, ...]
                 ) -> tuple[MembershipCertificate, list[int], list[Fraction]]:
    """Membership certificate for theta, and when theta is inside, the
    indices of the weights on the minimal face containing theta plus a
    feasible point of the membership LP that is positive exactly on them.
    Outside, the face and the point are empty."""
    n = len(theta)
    s = len(support)
    A = [[w.coords[i] for w in support] for i in range(n)]
    A.append([1] * s)
    b = [*theta, Fraction(1)]
    res = simplex_max([0] * s, A, b)
    if res.status != "optimal":
        y = res.farkas
        cert = MembershipCertificate(inside=False, separator=(tuple(y[:n]), -y[n]))
        return cert, [], []
    cert = MembershipCertificate(
        inside=True, coefficients=tuple((w, p) for w, p in zip(support, res.x) if p != 0))
    # The LPs are exact, so "x_j > 0" and "the optimum is 0" are decided
    # without a tolerance; a floating-point LP would need one for each.
    face = {j for j in range(s) if res.x[j] > 0}
    combos = [res.x]
    while len(face) < s:
        off_face = [0 if j in face else 1 for j in range(s)]
        res = simplex_max(off_face, A, b)
        if res.status != "optimal":
            raise RuntimeError(f"face LP on a feasible target ended {res.status}")
        if res.objective == 0:
            break
        face.update(j for j in range(s) if res.x[j] > 0)
        combos.append(res.x)
    # The average of the solutions is N / den, checked on the integers N.
    den = math.lcm(*[p.denominator for x in combos for p in x])
    N = [sum(x[j].numerator * (den // x[j].denominator) for x in combos) for j in range(s)]
    den *= len(combos)
    if not all(N[j] > 0 if j in face else N[j] == 0 for j in range(s)):
        raise RuntimeError("face interior point failed its support check")
    if any(sum(a * v for a, v in zip(row, N)) * bi.denominator != bi.numerator * den
           for row, bi in zip(A, b)):
        raise RuntimeError("face interior point failed its feasibility check")
    return cert, sorted(face), [Fraction(v, den) for v in N]


def _face_normal(support: Sequence[WeightVector], face: Sequence[int]
                 ) -> tuple[list[Fraction], Fraction]:
    """An exact normal (ell, gamma) of a face found by `_face_search`:
    <ell, w> = gamma on the face weights and <ell, w> <= gamma - 1 on the
    others, so exp(t (<ell, w> - gamma)) keeps the face and shrinks the rest
    by at least e^-t.

    One feasibility LP in ell and gamma, both split into nonnegative parts,
    with a slack on each off-face row. Faces of a polytope are exposed, so
    the LP is feasible for every face; the normal is checked in integers.
    """
    n = len(support[0].coords)
    on = set(face)
    off = [j for j in range(len(support)) if j not in on]
    A = [[*w.coords, *(-v for v in w.coords), -1, 1, *(int(j == k) for k in off)]
         for j, w in enumerate(support)]
    b = [0 if j in on else -1 for j in range(len(support))]
    res = simplex_max([0] * len(A[0]), A, b)
    if res.status != "optimal":
        raise RuntimeError(f"face normal LP ended {res.status}")
    x = res.x
    ell = [p - q for p, q in zip(x[:n], x[n:2 * n])]
    gamma = x[2 * n] - x[2 * n + 1]
    # (ell, gamma) = (L, G) / den, checked on the integers L and G.
    den = math.lcm(gamma.denominator, *[a.denominator for a in ell])
    L = [a.numerator * (den // a.denominator) for a in ell]
    G = gamma.numerator * (den // gamma.denominator)
    for j, w in enumerate(support):
        gap = sum(a * v for a, v in zip(L, w.coords)) - G
        if (gap != 0) if j in on else (gap > -den):
            raise RuntimeError("face normal failed its check")
    return ell, gamma


def moment_polytope_contains(v: WeightedVector, theta) -> MembershipCertificate:
    """Exact test of whether theta lies in conv{w : c_w != 0}, with certificate."""
    v = v.pruned()
    if v.is_zero:
        raise ValueError("the zero vector has an empty moment polytope")
    th = rational_vector(theta, v.n)
    return _face_search(v.support, th)[0]


def _newton_logsumexp(W: np.ndarray, logq: np.ndarray, theta: np.ndarray,
                      grad_tol: float, max_iter: int
                      ) -> tuple[np.ndarray, float, float, int, str]:
    """Damped Newton minimization of F(x) = -2 theta.x + LSE(logq + 2 W x).

    Returns (x, F(x), gradient norm, steps taken, status); the stop rule is
    the one in the module docstring.
    """

    def fgh(x):
        a = logq + 2.0 * (W @ x)
        amax = a.max()
        e = np.exp(a - amax)
        z = e.sum()
        logz = amax + math.log(z)
        p = e / z
        wp = W.T @ p
        f = -2.0 * float(theta @ x) + logz
        g = -2.0 * theta + 2.0 * wp
        h = 4.0 * ((W.T * p) @ W - np.outer(wp, wp))
        return f, g, h

    x = np.zeros(W.shape[1])
    f, g, h = fgh(x)
    iters = 0
    while np.max(np.abs(g)) > grad_tol:
        if iters >= max_iter:
            return x, f, float(np.max(np.abs(g))), iters, "max_iter"
        try:
            d = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(h, -g, rcond=None)[0]
        if not np.all(np.isfinite(d)) or float(g @ d) >= 0:
            d = -g
        slope = float(g @ d)
        step = 1.0
        for _ in range(60):
            xn = x + step * d
            fn, gn, hn = fgh(xn)
            if fn <= f + 0.25 * step * slope:
                break
            step *= 0.5
        else:
            return x, f, float(np.max(np.abs(g))), iters, "precision"
        iters += 1
        x, f, g, h = xn, fn, gn, hn
        if -slope <= 8.0 * np.finfo(float).eps * max(1.0, abs(f)):
            break
    gnorm = float(np.max(np.abs(g)))
    return x, f, gnorm, iters, "converged" if gnorm <= grad_tol else "precision"


def theta_capacity(v: WeightedVector, theta, *, grad_tol: float = GRAD_TOL,
                   max_iter: int = MAX_ITER) -> CapacityResult:
    """Capacity of v relative to a rational target theta.

    Returns a CapacityResult whose log_cap has sign 0 exactly when theta lies
    outside the moment polytope (the unstable case, status "outside"), in
    which case the certificate carries a separating functional. Otherwise
    log_cap encodes cap > 0 and the reported gradient norm and status refer
    to the minimization restricted to the minimal face of the polytope
    containing theta.
    """
    v = v.pruned()
    if v.is_zero:
        raise ValueError("capacity of the zero vector is undefined")
    th = rational_vector(theta, v.n)
    cert, face, _ = _face_search(v.support, th)
    if not cert.inside:
        return CapacityResult(LogValue.zero(), None, True, 0, math.inf, cert, "outside", ())

    qs = v.amplitudes_sq()
    support = v.support
    W = np.array([support[j].coords for j in face], dtype=float)
    logq = np.array([math.log(qs[support[j]]) for j in face])
    theta_f = np.array([float(t) for t in th])
    diverging = len(face) < len(support)
    if len(face) == 1:
        # theta is a vertex; F is constant on the face, log q is the value.
        return CapacityResult(LogValue(1, 0.5 * float(logq[0])), np.zeros(v.n),
                              diverging, 0, 0.0, cert, "converged", tuple(face))
    x, fstar, gnorm, iters, status = _newton_logsumexp(W, logq, theta_f, grad_tol, max_iter)
    return CapacityResult(LogValue(1, 0.5 * fstar), x, diverging, iters, gnorm, cert, status,
                          tuple(face))


def _min_kl(q: np.ndarray, W: np.ndarray, theta: np.ndarray, p0: np.ndarray,
            grad_tol: float = 1e-11, max_iter: int = 200) -> tuple[float, int]:
    """Minimize D(p || q) over {p >= 0, sum p = 1, W^T p = theta} by Newton
    steps inside the affine feasible set, starting from interior point p0.

    Returns (minimum, steps taken). It stops like Newton on F: at gradient
    grad_tol, at a decrement -g.d of at most 8 eps max(1, |f|), or when 60
    step halvings find no Armijo step, keeping the current point.
    """
    s = len(q)
    A = np.vstack([W.T, np.ones(s)])
    # Orthonormal basis of the null space of the constraint matrix.
    u, sv, vh = np.linalg.svd(A)
    rank = int(np.sum(sv > sv.max() * max(A.shape) * np.finfo(float).eps)) if len(sv) else 0
    N = vh[rank:].T
    p = p0.copy()

    def kl(p):
        return float(np.sum(p * (np.log(p) - np.log(q))))

    f = kl(p)
    iters = 0
    while N.shape[1] and iters < max_iter:
        g = N.T @ (np.log(p / q) + 1.0)
        if np.max(np.abs(g)) <= grad_tol:
            break
        h = N.T @ (N / p[:, None])
        try:
            d = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(h, -g, rcond=None)[0]
        slope = float(g @ d)
        if slope >= 0:
            d = -g
            slope = float(g @ d)
        dp = N @ d
        neg = dp < 0
        step = 1.0
        if np.any(neg):
            step = min(1.0, 0.99 * float(np.min(-p[neg] / dp[neg])))
        for _ in range(60):
            pn = p + step * dp
            if np.all(pn > 0):
                fn = kl(pn)
                if fn <= f + 0.25 * step * slope:
                    break
            step *= 0.5
        else:
            break
        iters += 1
        p, f = pn, fn
        if -slope <= 8.0 * np.finfo(float).eps * max(1.0, abs(f)):
            break
    return f, iters


def capacity_kl_form(v: WeightedVector, theta) -> LogValue:
    """log cap_theta(v)^2 computed through the relative-entropy program.

    Requires a unit vector; returns the zero LogValue when theta is outside
    the moment polytope. This path shares no optimization code with
    theta_capacity and serves as an independent cross-check of it.
    """
    v = v.pruned()
    if v.is_zero:
        raise ValueError("capacity of the zero vector is undefined")
    if abs(v.norm_sq - 1.0) > 1e-10:
        raise ValueError(f"capacity_kl_form expects a unit vector, norm^2 = {v.norm_sq}")
    th = rational_vector(theta, v.n)
    cert, face, interior = _face_search(v.support, th)
    if not cert.inside:
        return LogValue.zero()
    qs = v.amplitudes_sq()
    support = v.support
    q = np.array([qs[support[j]] for j in face])
    W = np.array([support[j].coords for j in face], dtype=float)
    theta_f = np.array([float(t) for t in th])
    p0 = np.array([float(interior[j]) for j in face])
    val, _ = _min_kl(q, W, theta_f, p0)
    return LogValue(1, -val)
