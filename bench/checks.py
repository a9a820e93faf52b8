"""Output checks that share no code with capdual.

Every check returns a list of problems (empty when the output is right).
Reference values come from closed forms (`math.comb`, relative entropy of a
two-point law, the bialternant formula for Schur polynomials), from exact
`Fraction` re-verification of certificates, from brute-force tensor
expansion, or from properties the method must have (weak duality,
Kempf-Ness stationarity). Nothing is compared against stored output.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Capacities.

def neg_kl_two_point(a: int, b: int, theta: Fraction, qa: float, qb: float) -> float:
    """log cap_theta^2 = -D(p || q) for a unit vector on two weights a < b,
    where p is the law on {a, b} with mean theta."""
    pb = float((theta - a) / (b - a))
    pa = 1.0 - pb
    d = 0.0
    for p, q in ((pa, qa), (pb, qb)):
        if p > 0:
            d += p * math.log(p / q)
    return -d


def check_certificate(cert, support: list[tuple[int, ...]],
                      theta: tuple[Fraction, ...]) -> list[str]:
    """Re-verify a membership certificate exactly in Fractions."""
    n = len(theta)
    if cert.inside:
        coeffs = cert.coefficients or ()
        if any(tuple(w.coords) not in support for w, _ in coeffs):
            return ["certificate uses a weight outside the support"]
        if any(Fraction(p) < 0 for _, p in coeffs):
            return ["certificate has a negative coefficient"]
        if sum((Fraction(p) for _, p in coeffs), Fraction(0)) != 1:
            return ["certificate coefficients do not sum to 1"]
        mean = [sum((Fraction(p) * w.coords[i] for w, p in coeffs), Fraction(0))
                for i in range(n)]
        if tuple(mean) != tuple(theta):
            return [f"certificate combination {mean} != theta {theta}"]
        return []
    if cert.separator is None:
        return ["outside certificate has no separator"]
    a, offset = cert.separator
    a = [Fraction(t) for t in a]
    offset = Fraction(offset)
    if any(sum(ai * wi for ai, wi in zip(a, w)) > offset for w in support):
        return ["separator does not bound the support"]
    if sum(ai * ti for ai, ti in zip(a, theta)) <= offset:
        return ["separator does not cut off theta"]
    return []


def kempf_ness_mean(support: list[tuple[int, ...]], amps_sq: list[float],
                    x: list[float]) -> list[float]:
    """Born mean of v rescaled by e^{<w, x>}: weights |c_w|^2 e^{2<w,x>}."""
    logs = [math.log(q) + 2.0 * sum(wi * xi for wi, xi in zip(w, x))
            for w, q in zip(support, amps_sq)]
    m = max(logs)
    ps = [math.exp(t - m) for t in logs]
    z = sum(ps)
    return [sum(p * w[i] for p, w in zip(ps, support)) / z for i in range(len(x))]


def check_capacity(inst, cap, kl) -> list[str]:
    """One capacity instance: inst has support, amps_sq, theta, inside,
    interior and (for two-weight n=1 instances) a closed form."""
    probs = check_certificate(cap.certificate, inst.support, inst.theta)
    positive = cap.log_cap.sign == 1
    if positive != inst.inside or (kl.sign == 1) != inst.inside:
        probs.append(f"capacity positivity {positive}/{kl.sign == 1} but "
                     f"theta inside = {inst.inside}")
        return probs
    if bool(cap.certificate.inside) != inst.inside:
        probs.append("certificate side disagrees with the construction")
    if not inst.inside:
        return probs
    newton = 2.0 * cap.log_cap.log_mag
    if abs(newton - kl.log_mag) > 1e-8:
        probs.append(f"Newton {newton!r} vs KL {kl.log_mag!r}")
    if inst.closed_form is not None and abs(newton - inst.closed_form) > 1e-9:
        probs.append(f"log cap^2 {newton!r} vs -D(p||q) {inst.closed_form!r}")
    if inst.interior and cap.diverging:
        probs.append("relative-interior target reported as diverging")
    if not cap.diverging:
        mean = kempf_ness_mean(inst.support, inst.amps_sq, list(cap.minimizer_x))
        err = max(abs(m - float(t)) for m, t in zip(mean, inst.theta))
        if err > 1e-7:
            probs.append(f"Kempf-Ness mean misses theta by {err:.3e}")
    return probs


# ---------------------------------------------------------------------------
# Duality reports and prefactors.

def check_weak_duality(report) -> list[str]:
    gaps = [row[4] for row in report.rows]
    if not gaps:
        return ["duality report has no rows"]
    bad = [g for g in gaps if not g >= -1e-9]
    return [f"weak duality broken: min gap {min(bad)!r}"] if bad else []


def log_central_binomial_power(k: int, power: int) -> float:
    """log (C(k, k/2) / 2^k)^power, from math.comb."""
    c = math.comb(k, k // 2)
    return power * (math.log(c) - k * math.log(2.0))


def check_central_rows(report, power: int) -> list[str]:
    """Rows of the qubit (power 1) or the 4-weight +-e1, +-e2 vector
    (power 2) at theta = 0 against C(k,k/2)^power / 2^{k power}."""
    probs = check_weak_duality(report)
    for k, norm_sq, *_ in report.rows:
        if k % 2:
            if norm_sq.sign != 0:
                probs.append(f"odd k = {k} has a nonzero invariant part")
            continue
        want = log_central_binomial_power(k, power)
        if norm_sq.sign != 1 or abs(norm_sq.log_mag - want) > 1e-9 * max(1.0, abs(want)):
            probs.append(f"k = {k}: log norm^2 {norm_sq.log_mag!r} vs {want!r}")
            break
    return probs


def check_prefactor(seq, ks: list[int], power: int, rel_tol: float) -> list[str]:
    """k^{power/2} C(k,k/2)^power / 2^{k power} at each requested k."""
    if [k for k, _ in seq] != ks:
        return [f"prefactor rows {[k for k, _ in seq][:4]}... != requested"]
    for k, val in seq:
        want = math.exp(0.5 * power * math.log(k) + log_central_binomial_power(k, power))
        if not _rel_close(val, want, rel_tol):
            return [f"prefactor at k = {k}: {val!r} vs {want!r}"]
    return []


# ---------------------------------------------------------------------------
# Schur-Weyl measure by the bialternant formula, in exact rationals.

def _det(m: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def schur_bialternant(lam: tuple[int, ...], q: list[Fraction]) -> Fraction:
    """s_lam(q) = det(q_j^{lam_i + n - i}) / det(q_j^{n - i}); q distinct."""
    n = len(q)
    parts = list(lam) + [0] * (n - len(lam))
    num = [[qj ** (parts[i] + n - 1 - i) for qj in q] for i in range(n)]
    den = [[qj ** (n - 1 - i) for qj in q] for i in range(n)]
    return _det(num) / _det(den)


def standard_tableaux(lam: tuple[int, ...]) -> int:
    """f^lam = k! prod_{i<j} (l_i - l_j) / prod l_i! with l_i = lam_i + n - i."""
    n = len(lam)
    ls = [lam[i] + n - 1 - i for i in range(n)]
    num = math.factorial(sum(lam))
    for i in range(n):
        for j in range(i + 1, n):
            num *= ls[i] - ls[j]
    den = 1
    for li in ls:
        den *= math.factorial(li)
    return num // den


def partitions(k: int, parts: int, top: int | None = None):
    top = k if top is None else top
    if k == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(k, top), 0, -1):
        for rest in partitions(k - first, parts - 1, first):
            yield (first, *rest)


def schur_weyl_prob(lam: tuple[int, ...], q: list[Fraction]) -> Fraction:
    return standard_tableaux(lam) * schur_bialternant(lam, q)


def check_schur_weyl_measure(rows, q: list[Fraction], k: int) -> list[str]:
    """Every row against f^lam s_lam(q); the measure sums to 1."""
    want = {lam: schur_weyl_prob(lam, q) for lam in partitions(k, len(q))}
    got = {tuple(p for p in row.lam.parts if p): row for row in rows}
    if set(got) != set(want):
        return ["Schur-Weyl partitions differ from the partitions of k"]
    total = Fraction(0)
    for lam, p in want.items():
        total += p
        lv = got[lam].prob
        if p == 0:
            if lv.sign != 0:
                return [f"P{lam} should vanish"]
        elif lv.sign != 1 or abs(lv.log_mag - math.log(p)) > 1e-10 * max(1.0, abs(math.log(p))):
            return [f"P{lam} = {lv} vs {float(p)!r}"]
    if total != 1:
        return [f"reference measure sums to {total}"]
    if abs(math.fsum(row.prob.to_float() for row in rows) - 1.0) > 1e-12:
        return ["Schur-Weyl measure does not sum to 1"]
    return []


def check_sw_ldp_row(k: int, log_prob: float, q: list[Fraction],
                     theta: list[Fraction]) -> list[str]:
    """The row's probability is P(lam) for a partition of k within 1 of
    k*theta in every coordinate."""
    for lam in partitions(k, len(q)):
        padded = list(lam) + [0] * (len(q) - len(lam))
        if all(abs(p - k * t) <= 1 for p, t in zip(padded, theta)):
            p = schur_weyl_prob(lam, q)
            if p and abs(math.log(p) - log_prob) <= 1e-10 * max(1.0, abs(log_prob)):
                return []
    return [f"k = {k}: log P {log_prob!r} matches no partition near k*theta"]


# ---------------------------------------------------------------------------
# Rank-1 multiplicities, permanents, Laurent constant terms.

def su2_multiplicity(k: int, lam: int) -> int:
    """Multiplicity of spin lam/2 in (C^2)^{tensor k}: C(k,j) - C(k,j-1)."""
    if lam < 0 or lam > k or (k - lam) % 2:
        return 0
    j = (k - lam) // 2
    return math.comb(k, j) - (math.comb(k, j - 1) if j else 0)


def check_su2_multiplicities(mult: dict[int, int], k: int) -> list[str]:
    want = {lam: su2_multiplicity(k, lam) for lam in range(k + 1)}
    want = {lam: n for lam, n in want.items() if n}
    return [] if mult == want else [f"multiplicities at k = {k} differ"]


def su2_rate(theta: float) -> float:
    """Legendre rate of log cosh: ((1+t)/2) log(1+t) + ((1-t)/2) log(1-t)."""
    t = theta
    return 0.5 * ((1 + t) * math.log1p(t) + (1 - t) * math.log1p(-t))


def check_duffield_row(k: int, log_prob: float, theta: float) -> list[str]:
    for lam in range(k % 2, k + 1, 2):
        if abs(lam - k * theta) <= 1:
            p = (lam + 1) * su2_multiplicity(k, lam)
            want = math.log(p) - k * math.log(2.0)
            if abs(want - log_prob) <= 1e-10 * max(1.0, abs(want)):
                return []
    return [f"k = {k}: log P {log_prob!r} matches no spin near k*theta"]


def check_ones_permanent(value: Fraction, k: int) -> list[str]:
    want = math.comb(k, k // 2) ** 2
    got = math.factorial(k) * value
    return [] if got == want else [f"k! perm at k = {k} is {got}, not {want}"]


def laurent_walk_cst(k: int) -> int:
    """cst((z + 1/z)^k)."""
    return 0 if k % 2 else math.comb(k, k // 2)


# ---------------------------------------------------------------------------
# Scaling and tables.

def check_sinkhorn(res, tol: float) -> list[str]:
    if res.status != "converged":
        return [f"Sinkhorn status {res.status}"]
    M = res.state.M
    x, y = res.state.x, res.state.y
    n, m = M.shape
    S = [[x[i] * M[i, j] * y[j] for j in range(m)] for i in range(n)]
    err = sum(abs(sum(S[i]) - float(res.state.r[i])) for i in range(n))
    err += sum(abs(sum(S[i][j] for i in range(n)) - float(res.state.c[j]))
               for j in range(m))
    return [] if err <= tol else [f"recomputed marginal error {err:.3e} > {tol}"]


def brute_norms(terms: list[tuple[tuple[int, ...], complex]], k: int) -> dict:
    """All weight-component squared norms of v^{tensor k} by expansion."""
    out: dict[tuple[int, ...], float] = {}
    for combo in itertools.product(terms, repeat=k):
        lam = tuple(sum(c) for c in zip(*(w for w, _ in combo)))
        amp = complex(1.0)
        for _, c in combo:
            amp *= c
        out[lam] = out.get(lam, 0.0) + abs(amp) ** 2
    return out


def check_table(table, terms, k_max: int, brute_k: int) -> list[str]:
    for k in range(1, k_max + 1):
        tot = table.total(k)
        if tot.sign != 1 or abs(tot.log_mag) > 1e-9:
            return [f"table total at k = {k} is {tot}, not 1"]
    for k in range(1, brute_k + 1):
        for lam, want in brute_norms(terms, k).items():
            got = table.get(k, lam)
            if got.sign != 1 or not _rel_close(got.to_float(), want, 1e-9):
                return [f"table entry k = {k}, lam = {lam}: {got} vs {want!r}"]
    return []


# ---------------------------------------------------------------------------
# CLI runs.

def read_run(out_dir: Path) -> tuple[dict, list[dict]]:
    summary = json.loads((out_dir / "summary.json").read_text())
    with open(out_dir / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return summary, rows


def check_cli(code, summary: dict) -> list[str]:
    if code != 0:
        return [f"CLI exit code {code}"]
    if summary.get("pass") is not True:
        return ["CLI summary does not pass"]
    return []
