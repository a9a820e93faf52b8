"""Capacities of torus orbits via geodesically convex optimization.

For a vector v = sum_w c_w e_w and a rational target theta, the theta-capacity
is the infimum of exp(F(x)/2) over x in R^n, where

    F(x) = -2 <theta, x> + log sum_w |c_w|^2 exp(2 <w, x>).

The infimum is positive exactly when theta lies in the moment polytope, i.e.
the convex hull of the occupied weights. One exact rational routine,
`_face_search`, is the only code that knows the minimal face containing
theta; it is memoised on the last (support, theta), since the face depends
on neither the amplitudes nor the normalisation, so the capacity and its KL
cross-check share one search, and the duality report reads the record the
capacity carries. It works on integers: all its LPs share one [A | b],
so `exactlp` clears its denominators and runs phase 1 once a search, and
the search reads the LPs' integer numerators; only the certificate's own
fields are `Fraction`s. It solves the membership LP {p >= 0, sum p = 1,
sum p_w w = theta} once, which yields a certificate either way. Inside, it
seeds the face set S with the support of that solution and then repeats
"maximize the mass of p off S", adding each solution's support to S, until
the optimum is 0. No feasible p then puts mass off S, so S is the minimal
face. The average of the collected solutions is a feasible point positive
exactly on S; it is optimal for the last LP, so complementary slackness
turns that LP's duals into an exact face normal, with no LP of its own.
The face weights span an affine lattice w0 + B Z^d, B a Hermite basis
(`_chart`), whose coordinates carry the row streams of `projection`. The
chart solves every face weight in one integer elimination down the
Hermite columns, checked exactly (a residue left over raises), and
theta's rational coordinates in integers over one denominator
(`_lattice_solve`). The whole record, `MembershipCertificate`, is checked
exactly. When theta sits on a proper face the minimization is restricted
to the face weights (the infimum is then attained there but not on the
original orbit, which the `diverging` flag, read from the normal,
records).

On the face F depends on x only through y = B^T x in R^d: F(y) =
-2 <c_theta, y> + log sum_w q_w exp(2 <c_w, y>) is strictly convex, with
Hessian 4 Cov_p(c_w) for p the tilted law on the face. Damped Newton
minimizes it from y = 0; a vertex is d = 0 and takes no step. A step d is
first shortened to max |2 C d| <= log(q_max / q_min) + 2, so no log
weight log q_w + 2 <c_w, y> moves by more than the spread of log q plus 2:
on a nearly singular Hessian (p almost all on one weight) the Newton step
can be 1e21 long, beyond the reach of any halving. It stops at gradient
grad_tol, or at the floating-point resolution of F, where the Armijo test
cannot tell a decrease from rounding: at a Newton decrement -g.d of at
most 8 eps max(1, |F|), or when 60 step halvings find no Armijo step
that moves y. While the gradient is above grad_tol, up to 3 full Newton
steps then follow, each kept only while it cuts max |g| and raises F by
at most 8 eps max(1, |F|). `CapacityResult.status` records how it ended.

An independent cross-check solves -log cap_theta(v)^2 = min { D(p || q) :
sum_w p_w c_w = c_theta }, with q the squared amplitudes, by damped Newton
in the probability simplex, with the same stop rule but no full steps. On
a face of d + 1 weights (a simplex) the feasible set is one point, the
face record's interior point p0, so the minimum is D(p0 || q) with no
null space (SVD) and no step.
"""

from __future__ import annotations

import functools
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
    """Outcome of an exact moment-polytope membership test: the face record
    of theta (module docstring).

    Outside, separator = (a, offset) is a rational functional with
    <a, w> <= offset on the support but <a, theta> > offset. Inside,
    coefficients is a convex combination of support weights equal to theta,
    positive exactly on the weights of the minimal face, whose indices are
    face. normal = (ell, gamma) has <ell, w> = gamma on the face and
    <ell, w> <= gamma - 1 off it ((0, 0) when the face is the whole
    support). The chart: face weight w = base + basis c_w with c_w in
    face_coords (face order) and theta = base + basis theta_coords, basis the
    n x d Hermite basis of the lattice the face differences span. lps and
    pivots count the search's exact LPs and their pivots. The search checks
    the record on the LPs' integer numerators and builds the rational fields
    from them at the end.
    """

    inside: bool
    coefficients: tuple[tuple[WeightVector, Fraction], ...] | None = None
    separator: tuple[tuple[Fraction, ...], Fraction] | None = None
    face: tuple[int, ...] = ()
    normal: tuple[tuple[Fraction, ...], Fraction] | None = None
    base: tuple[int, ...] = ()
    basis: tuple[tuple[int, ...], ...] = ()
    face_coords: tuple[tuple[int, ...], ...] = ()
    theta_coords: tuple[Fraction, ...] = ()
    lps: int = 0
    pivots: int = 0

    def __bool__(self) -> bool:
        return self.inside

    @property
    def dim(self) -> int:
        """d, the dimension of the minimal face (0 outside)."""
        return len(self.theta_coords)


@dataclass(frozen=True)
class CapacityResult:
    """A theta-capacity and how Newton reached it.

    status is "converged" (gradient norm at most grad_tol; a vertex has no
    gradient), "precision" (stopped at the floating-point resolution of F,
    the gradient above grad_tol after the full steps), "max_iter" or
    "outside" (theta is not in the moment polytope). iterations counts the
    Newton steps taken. gradient_norm is max |dF/dy| in the face chart,
    y = B^T x, and minimizer_x the least-norm x with B^T x = y*: every such
    x tilts the face alike. face lists the indices into v.pruned().support
    of the weights on the minimal face containing theta, to which the
    minimization is restricted; it is empty outside. certificate is the face
    record, and diverging is read from its normal.
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


# ---------------------------------------------------------------------------
# Integer charts: the affine lattice spanned by a set of integer weights, in
# coordinates of a fully reduced column Hermite basis (Schrijver, Theory of
# Linear and Integer Programming, ch. 4).

def _column_hnf(cols: list[list[int]]) -> list[list[int]]:
    """Fully reduced column-style Hermite form of the lattice spanned by the
    given columns: each returned column's first nonzero entry is positive
    and sits strictly below the previous column's, and each earlier column
    lies in [-pivot/2, pivot/2) in a later column's pivot row. The form is
    unique, so Z^n gets the identity. Centred residues shear the chart less
    than [0, pivot) would, so chart rows span fewer cells.
    """
    cols = [list(c) for c in cols if any(c)]
    out: list[list[int]] = []
    for row in range(len(cols[0]) if cols else 0):
        # Euclid on the entries in this row, until one column is left there
        while len(active := [c for c in cols if c[row]]) > 1:
            a = min(active, key=lambda c: abs(c[row]))
            for b in active:
                if b is not a:
                    f = b[row] // a[row]
                    b[:] = [x - f * y for x, y in zip(b, a)]
        if active:
            cols.remove(active[0])
            piv = active[0] if active[0][row] > 0 else [-x for x in active[0]]
            for col in out:
                f = (2 * col[row] + piv[row]) // (2 * piv[row])
                col[:] = [x - f * y for x, y in zip(col, piv)]
            out.append(piv)
    return out


def _lattice_solve(hnf: list[list[int]], x: Sequence) -> list[int | Fraction] | None:
    """Rational y with (hnf columns) y = x, or None when x is outside the span:
    each y_j an int when it is integral, else a Fraction. The ints and
    Fractions of x are read through their numerators and denominators, and
    the residue x - sum_j y_j col_j stays integers over one denominator."""
    den = math.lcm(*[v.denominator for v in x])
    res = [v.numerator * (den // v.denominator) for v in x]  # the residue is res / den
    y: list[int | Fraction] = []
    for col in hnf:
        pr = next(i for i, c in enumerate(col) if c != 0)
        num, piv = res[pr], col[pr]
        q, r = divmod(num, den * piv)
        if r == 0:
            y.append(q)
            f = q * den
            res = [a - f * c for a, c in zip(res, col)]
        else:  # y_j = num / (den piv), and the residue goes over den piv
            y.append(Fraction(num, den * piv))
            res = [a * piv - num * c for a, c in zip(res, col)]
            den *= piv
    return None if any(res) else y


def _chart(weights: Sequence[Sequence[int]], point: Sequence
           ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                      tuple[tuple[int, ...], ...], tuple[Fraction, ...] | None]:
    """The integer chart of the affine lattice the weights span.

    Returns (w0, B, C, c): the base w0 = weights[0]; the Hermite basis B of
    the lattice of differences w - w0, as n rows of d entries; the integer
    coordinates C of the weights, w = w0 + B c_w, checked exactly; and the
    rational coordinates c of point, point = w0 + B c, or None when point is
    off the weights' affine span.
    """
    w0 = tuple(weights[0])
    hnf = _column_hnf([[a - b for a, b in zip(w, w0)] for w in weights[1:]])
    # Every weight at once, as _lattice_solve takes one: down the columns,
    # each coordinate is the residues' entry in the column's pivot row over
    # the pivot, and every residue must end at 0.
    res = [[a - b for a in row] for row, b in zip(zip(*weights), w0)]
    cols = []
    for col in hnf:
        pr = next(i for i, c in enumerate(col) if c != 0)
        piv = col[pr]
        q = [r // piv for r in res[pr]]
        for i, c in enumerate(col):
            if c:
                res[i] = [r - c * t for r, t in zip(res[i], q)]
        cols.append(q)
    if any(any(row) for row in res):
        raise RuntimeError("lattice chart failed its check")
    coords = list(zip(*cols)) if cols else [()] * len(weights)
    c = _lattice_solve(hnf, [a - b for a, b in zip(point, w0)])
    basis = tuple(tuple(col[i] for col in hnf) for i in range(len(w0)))
    return w0, basis, tuple(coords), None if c is None else tuple(c)


# ---------------------------------------------------------------------------
# The face search: membership, the minimal face, its normal and its chart.

@functools.lru_cache(maxsize=1)
def _face_search(support: tuple[WeightVector, ...], theta: tuple[Fraction, ...]
                 ) -> MembershipCertificate:
    """The membership certificate of theta, with the minimal face record
    when theta is inside (module docstring). Memoised on the last (support,
    theta): the face depends on neither the amplitudes nor the
    normalisation, and the calls that share a target are adjacent
    (theta_capacity, then capacity_kl_form)."""
    n = len(theta)
    s = len(support)
    A = [[w.coords[i] for w in support] for i in range(n)]
    A.append([1] * s)
    b = [*theta, 1]
    res = simplex_max([0] * s, A, b)
    lps, pivots = 1, res.pivots
    if res.status != "optimal":
        y = res.farkas
        return MembershipCertificate(inside=False, separator=(tuple(y[:n]), -y[n]),
                                     lps=lps, pivots=pivots)
    # The LPs are exact, so "x_j > 0" and "the optimum is 0" are decided
    # without a tolerance; a floating-point LP would need one for each.
    face = {j for j in range(s) if res.x_num[j] > 0}
    combos = [(res.x_num, res.x_den)]
    Y, yden = [0] * (n + 1), 1  # the duals stay 0 when the face is the whole support
    while len(face) < s:
        off_face = [0 if j in face else 1 for j in range(s)]
        res = simplex_max(off_face, A, b)
        lps, pivots = lps + 1, pivots + res.pivots
        if res.status != "optimal":
            raise RuntimeError(f"face LP on a feasible target ended {res.status}")
        if res.obj_num == 0:
            Y, yden = res.duals_num, res.duals_den
            break
        face.update(j for j in range(s) if res.x_num[j] > 0)
        combos.append((res.x_num, res.x_den))
    # The average of the solutions is N / den, checked on the integers N.
    den = math.lcm(*[d for _, d in combos])
    N = [sum(X[j] * (den // d) for X, d in combos) for j in range(s)]
    den *= len(combos)
    if not all(N[j] > 0 if j in face else N[j] == 0 for j in range(s)):
        raise RuntimeError("face interior point failed its support check")
    if any(sum(a * v for a, v in zip(row, N)) * bi.denominator != bi.numerator * den
           for row, bi in zip(A, b)):
        raise RuntimeError("face interior point failed its feasibility check")
    # It is optimal for the last LP (optimum 0), so by complementary
    # slackness that LP's duals (a, g) = Y / yden have <a, w> + g = 0 on the
    # face, and dual feasibility gives <a, w> + g >= 1 off it: the normal is
    # (ell, gamma) = (-a, g), checked on the integers Y.
    for j, w in enumerate(support):
        gap = -sum(y * v for y, v in zip(Y, w.coords)) - Y[n]
        if (gap != 0) if j in face else (gap > -yden):
            raise RuntimeError("face normal failed its check")
    face = sorted(face)
    w0, basis, coords, c_theta = _chart([support[j].coords for j in face], theta)
    if c_theta is None:
        raise RuntimeError("theta is off the affine span of its face")
    return MembershipCertificate(
        inside=True, coefficients=tuple((support[j], Fraction(N[j], den)) for j in face),
        face=tuple(face), normal=(tuple(Fraction(-y, yden) for y in Y[:n]), Fraction(Y[n], yden)),
        base=w0, basis=basis, face_coords=coords,
        theta_coords=c_theta, lps=lps, pivots=pivots)


def moment_polytope_contains(v: WeightedVector, theta) -> MembershipCertificate:
    """Exact test of whether theta lies in conv{w : c_w != 0}, with certificate."""
    v = v.pruned()
    if v.is_zero:
        raise ValueError("the zero vector has an empty moment polytope")
    return _face_search(v.support, rational_vector(theta, v.n))


def _newton_logsumexp(C: np.ndarray, logq: np.ndarray, c_theta: np.ndarray,
                      grad_tol: float, max_iter: int
                      ) -> tuple[np.ndarray, float, float, int, str]:
    """Damped Newton minimization of F(y) = -2 c_theta.y + LSE(logq + 2 C y).

    Returns (y, F(y), max |g|, steps taken, status) by the stop rule in the
    module docstring. A step whose Hessian is singular (p underflowed on the
    face), or whose Newton direction is not clearly downhill, -g.d <= 1e-8
    |g| |d| (p on one weight leaves a Hessian of rounding noise), goes
    along -g.
    """

    def fgh(y):
        a = logq + 2.0 * (C @ y)
        amax = a.max()
        e = np.exp(a - amax)
        z = e.sum()
        logz = amax + math.log(z)
        p = e / z
        cp = C.T @ p
        f = -2.0 * float(c_theta @ y) + logz
        g = -2.0 * c_theta + 2.0 * cp
        h = 4.0 * ((C.T * p) @ C - np.outer(cp, cp))
        return f, g, h

    def newton(g, h):
        """The Newton direction d, or -g (see above), and its slope g.d."""
        try:
            d = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            pass
        else:
            gd = float(g @ d)
            if np.all(np.isfinite(d)) and gd < -1e-8 * math.sqrt(float(g @ g) * float(d @ d)):
                return d, gd
        d = -g
        return d, float(g @ d)

    eps8 = 8.0 * np.finfo(float).eps
    y = np.zeros(C.shape[1])
    f, g, h = fgh(y)
    span = float(logq.max() - logq.min()) + 2.0  # the bound on max |2 C d| (module docstring)
    iters = 0
    while (gnorm := float(np.max(np.abs(g), initial=0.0))) > grad_tol:
        if iters >= max_iter:
            return y, f, gnorm, iters, "max_iter"
        d, slope = newton(g, h)
        reach = 2.0 * float(np.max(np.abs(C @ d)))
        if reach > span:
            d *= span / reach
            slope = float(g @ d)
        step = 1.0
        for _ in range(60):
            yn = y + step * d
            fn, gn, hn = fgh(yn)
            if fn <= f + 0.25 * step * slope:
                break
            step *= 0.5
        else:
            break
        if (yn == y).all():  # accepted only because step * d rounds away
            break
        iters += 1
        y, f, g, h = yn, fn, gn, hn
        if -slope <= eps8 * max(1.0, abs(f)):
            break
    # Above grad_tol at the resolution of F: full Newton steps while they cut
    # |g| and do not raise F beyond its resolution.
    full = min(3, max_iter - iters)
    while (gnorm := float(np.max(np.abs(g), initial=0.0))) > grad_tol and full > 0:
        yn = y + newton(g, h)[0]
        fn, gn, hn = fgh(yn)
        if not (np.max(np.abs(gn)) < gnorm and fn <= f + eps8 * max(1.0, abs(f))):
            break
        iters, full = iters + 1, full - 1
        y, f, g, h = yn, fn, gn, hn
    return y, f, gnorm, iters, "converged" if gnorm <= grad_tol else "precision"


def _on_face(v: WeightedVector, theta
             ) -> tuple[MembershipCertificate, np.ndarray, np.ndarray, np.ndarray]:
    """The face record of theta for a pruned nonzero v, and its chart arrays:
    C (s x d), the squared amplitudes q of the face weights, and c_theta."""
    cert = _face_search(v.support, rational_vector(theta, v.n))
    C = np.array(cert.face_coords, dtype=float).reshape(len(cert.face), cert.dim)
    return (cert, C, np.array([abs(v.terms[j][1]) ** 2 for j in cert.face]),
            np.array([float(t) for t in cert.theta_coords]))


def theta_capacity(v: WeightedVector, theta, *, grad_tol: float = GRAD_TOL,
                   max_iter: int = MAX_ITER) -> CapacityResult:
    """Capacity of v relative to a rational target theta.

    Returns a CapacityResult whose log_cap has sign 0 exactly when theta lies
    outside the moment polytope (the unstable case, status "outside"), in
    which case the certificate carries a separating functional. Otherwise
    log_cap encodes cap > 0 and the reported gradient norm and status refer
    to the minimization restricted to the minimal face of the polytope
    containing theta, in its chart coordinates.
    """
    v = v.pruned()
    if v.is_zero:
        raise ValueError("capacity of the zero vector is undefined")
    cert, C, q, c_theta = _on_face(v, theta)
    if not cert.inside:
        return CapacityResult(LogValue.zero(), None, True, 0, math.inf, cert, "outside", ())
    logq = np.array([math.log(x) for x in q])
    if not cert.dim:  # a vertex: F = log q_w at every x, and x = 0 has the least norm
        return CapacityResult(LogValue(1, 0.5 * logq[0]), np.zeros(v.n), any(cert.normal[0]), 0,
                              0.0, cert, "converged", cert.face)
    y, fstar, gnorm, iters, status = _newton_logsumexp(C, logq, c_theta, grad_tol, max_iter)
    B = np.array(cert.basis, dtype=float).reshape(v.n, cert.dim)
    # the least-norm x with B^T x = y, which is y itself when B = I
    x = y if np.array_equal(B, np.eye(v.n)) else B @ np.linalg.solve(B.T @ B, y)
    return CapacityResult(LogValue(1, 0.5 * fstar), x, any(cert.normal[0]), iters, gnorm,
                          cert, status, cert.face)


def _min_kl(q: np.ndarray, C: np.ndarray, p0: np.ndarray,
            grad_tol: float = 1e-11, max_iter: int = 200) -> tuple[float, int]:
    """Minimize D(p || q) over {p >= 0, sum p = 1, C^T p = C^T p0} by Newton
    steps inside the affine feasible set, starting from interior point p0.

    Returns (minimum, steps taken). It stops like Newton on F, without the
    full steps: at gradient grad_tol, at a decrement -g.d of at most
    8 eps max(1, |f|), or when 60 step halvings find no Armijo step, keeping
    the current point. With d + 1 points, d = C.shape[1], the feasible set
    is p0 alone: D(p0 || q) after 0 steps.
    """
    logq = np.log(q)

    def kl(p):
        return float(np.sum(p * (np.log(p) - logq)))

    f = kl(p0)
    if len(q) == C.shape[1] + 1:  # the feasible set is the point p0
        return f, 0
    # [C^T; 1] has rank d + 1, d = C.shape[1]: vh[d + 1:] spans its null space
    N = np.linalg.svd(np.vstack([C.T, np.ones(len(q))]))[2][C.shape[1] + 1:].T
    p = p0.copy()
    eps8 = 8.0 * np.finfo(float).eps
    iters = 0
    while iters < max_iter:
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
        if -slope <= eps8 * max(1.0, abs(f)):
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
    cert, C, q, _ = _on_face(v, theta)
    if not cert.inside:
        return LogValue.zero()
    val, _ = _min_kl(q, C, np.array([float(p) for _, p in cert.coefficients]))
    return LogValue(1, -val)
