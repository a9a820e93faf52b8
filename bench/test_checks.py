"""The benchmark's output checks pass on capdual's outputs and fail on
perturbed ones.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from capdual import (LogValue, ScalingState, SchurWeylFamily,  # noqa: E402
                     capacity_kl_form, duality_report, ldp_report, perm_rc_exact,
                     prefactor_sequence, projection_norm_table, rank1_multiplicities,
                     schur_weyl_measure, sinkhorn_scale, theta_capacity)
from capdual.spectrum import DuffieldFamily  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def _shift(lv: LogValue, d: float) -> LogValue:
    return LogValue(lv.sign, lv.log_mag + d)


def _solve(inst):
    return theta_capacity(inst.v, inst.theta), capacity_kl_form(inst.v, inst.theta)


@pytest.fixture(scope="module")
def cap_instances():
    insts = wl.capacity_instances(seed=3)
    two = next(i for i in insts if i.closed_form is not None)
    interior = next(i for i in insts if i.interior and i.closed_form is None and i.v.n == 2)
    outside = next(i for i in insts if not i.inside)
    return two, interior, outside


def test_capacity_checks_pass(cap_instances):
    for inst in cap_instances:
        assert checks.check_capacity(inst, *_solve(inst)) == []


def test_newton_kl_disagreement_is_caught(cap_instances):
    _, inst, _ = cap_instances
    cap, kl = _solve(inst)
    assert checks.check_capacity(inst, cap, _shift(kl, 1e-6))
    bad = dataclasses.replace(cap, log_cap=_shift(cap.log_cap, 1e-6))
    assert checks.check_capacity(inst, bad, kl)


def test_closed_form_is_enforced(cap_instances):
    inst, _, _ = cap_instances
    cap, kl = _solve(inst)
    moved = dataclasses.replace(cap, log_cap=_shift(cap.log_cap, 5e-7))
    assert checks.check_capacity(inst, moved, _shift(kl, 1e-6)) != []


def test_certificates_are_reverified(cap_instances):
    _, inside, outside = cap_instances
    cap, kl = _solve(inside)
    (w0, p0), *rest = cap.certificate.coefficients
    forged = dataclasses.replace(cap.certificate,
                                 coefficients=((w0, p0 + F(1, 100)), *rest))
    assert checks.check_capacity(inside, dataclasses.replace(cap, certificate=forged), kl)
    cap, kl = _solve(outside)
    a, offset = cap.certificate.separator
    forged = dataclasses.replace(cap.certificate, separator=(a, offset + 1000))
    assert checks.check_capacity(outside, dataclasses.replace(cap, certificate=forged), kl)


def test_positivity_matches_membership(cap_instances):
    _, inside, outside = cap_instances
    cap, kl = _solve(inside)
    assert checks.check_capacity(inside, dataclasses.replace(cap, log_cap=LogValue.zero()), kl)
    cap, kl = _solve(outside)
    assert checks.check_capacity(outside, cap, LogValue.one())


def test_kempf_ness_mean_is_enforced(cap_instances):
    _, inst, _ = cap_instances
    cap, kl = _solve(inst)
    moved = dataclasses.replace(cap, minimizer_x=cap.minimizer_x + 1e-3)
    assert checks.check_capacity(inst, moved, kl)
    assert checks.check_capacity(inst, dataclasses.replace(cap, diverging=True), kl)


def _replace_row(report, i, row):
    rows = list(report.rows)
    rows[i] = row
    return dataclasses.replace(report, rows=rows)


def test_duality_rows_against_binomials():
    rep = duality_report(wl.QUBIT, (F(0),), 40)
    assert checks.check_central_rows(rep, 1) == []
    k, ns, rate, lcs, gap = rep.rows[9]
    assert checks.check_central_rows(_replace_row(rep, 9, (k, _shift(ns, 1e-7), rate, lcs, gap)), 1)
    assert checks.check_central_rows(_replace_row(rep, 9, (k, ns, rate, lcs, -1e-6)), 1)
    cross = duality_report(wl.CROSS, (F(0), F(0)), 12)
    assert checks.check_central_rows(cross, 2) == []
    assert checks.check_central_rows(cross, 1)


def test_prefactor_against_binomials():
    seq = prefactor_sequence(wl.QUBIT, ks=[1000])
    assert checks.check_prefactor(seq, [1000], 1, 1e-6) == []
    assert checks.check_prefactor([(1000, seq[0][1] * (1 + 1e-5))], [1000], 1, 1e-6)
    assert checks.check_prefactor(seq, [1002], 1, 1e-6)


def test_schur_weyl_measure_against_bialternant():
    q = [F(1, 2), F(3, 10), F(1, 5)]
    rows = schur_weyl_measure(q, 12)
    assert checks.check_schur_weyl_measure(rows, q, 12) == []
    bad = list(rows)
    bad[3] = dataclasses.replace(bad[3], prob=_shift(bad[3].prob, 1e-8))
    assert checks.check_schur_weyl_measure(bad, q, 12)
    assert checks.check_schur_weyl_measure(rows[1:], q, 12)


def test_ldp_rows_against_closed_forms():
    q, theta = [F(7, 10), F(3, 10)], [F(3, 5), F(2, 5)]
    rep = ldp_report(SchurWeylFamily((0.7, 0.3)), theta, 12)
    for k, log_p, *_ in rep.rows:
        assert checks.check_sw_ldp_row(k, log_p, q, theta) == []
        assert checks.check_sw_ldp_row(k, log_p + 1e-7, q, theta)
    rep = ldp_report(DuffieldFamily((-1, 1)), F(3, 10), 40)
    for k, log_p, *_ in rep.rows:
        assert checks.check_duffield_row(k, log_p, 0.3) == []
        assert checks.check_duffield_row(k, log_p + 1e-7, 0.3)
    mult = rank1_multiplicities((-1, 1), 30)
    assert checks.check_su2_multiplicities(mult, 30) == []
    assert checks.check_su2_multiplicities({**mult, 2: mult[2] + 1}, 30)


def test_cli_row_checks_bite():
    rows = [{"k": str(k), "cst_exact": str(checks.laurent_walk_cst(k))} for k in range(1, 9)]
    assert wl._laurent_rows({}, rows) == []
    rows[5]["cst_exact"] = str(int(rows[5]["cst_exact"]) + 1)
    assert wl._laurent_rows({}, rows)
    perm = [{"k": "4", "log_kfact_perm_ln": repr(2 * math.log(6))}]
    assert wl._perm_rows({}, perm) == []
    perm[0]["log_kfact_perm_ln"] = repr(2 * math.log(6) + 1e-9)
    assert wl._perm_rows({}, perm)
    mc = [{"case": str(i), "mean_re": repr(float(x)), "mean_im": "0.0", "stderr": "0.001"}
          for i, x in enumerate(wl.MC_EXACT)]
    assert wl._mc_rows({}, mc) == []
    mc[4]["mean_re"] = repr(float(wl.MC_EXACT[4]) + 0.005)
    assert wl._mc_rows({}, mc)
    assert checks.check_cli(0, {"pass": True}) == []
    assert checks.check_cli(2, {"pass": True})
    assert checks.check_cli(0, {"pass": False})


def test_schur_weyl_rate_closed_form():
    q, theta = [F(7, 10), F(3, 10)], [F(3, 5), F(2, 5)]
    check = wl._sw_rows(q, theta)
    rate = sum(float(t) * math.log(t / p) for t, p in zip(theta, q))
    assert check({"analytic_rate": rate}, []) == []
    assert check({"analytic_rate": rate + 1e-9}, [])


def test_duffield_rate_closed_form():
    check = wl._duffield_rows(F(3, 10))
    rate = checks.su2_rate(0.3)
    assert check({"analytic_rate": rate}, []) == []
    assert check({"analytic_rate": rate + 1e-8}, [])


def test_permanent_exact():
    val = perm_rc_exact([[1, 1], [1, 1]], [5, 5], [5, 5]).value
    assert checks.check_ones_permanent(val, 10) == []
    assert checks.check_ones_permanent(val + F(1, 10**12), 10)


def test_sinkhorn_checks():
    half = (F(1, 2), F(1, 2))
    res = sinkhorn_scale(ScalingState([[2, 1], [1, 3]], half, half), tol=1e-9)
    assert checks.check_sinkhorn(res, 1e-9) == []
    assert checks.check_sinkhorn(dataclasses.replace(res, status="max_iter"), 1e-9)
    moved = dataclasses.replace(res.state, x=res.state.x * (1 + 1e-6))
    assert checks.check_sinkhorn(dataclasses.replace(res, state=moved), 1e-9)


class _Perturbed:
    """A table whose entry at (k, lam) is off by a relative delta."""

    def __init__(self, table, k, lam, delta):
        self.table, self.k, self.lam, self.delta = table, k, lam, delta

    def total(self, k):
        return self.table.total(k)

    def get(self, k, lam):
        val = self.table.get(k, lam)
        return _shift(val, self.delta) if (k, tuple(lam)) == (self.k, self.lam) else val


def test_table_checks():
    rng = np.random.default_rng(5)
    ws = wl._cross_plus_one(rng)
    v = wl._unit_vector(2, {w: complex(rng.normal(), rng.normal()) for w in ws})
    terms = [(w.coords, c) for w, c in v.terms]
    table = projection_norm_table(v, 6)
    assert checks.check_table(table, terms, 6, 3) == []
    assert checks.check_table(_Perturbed(table, 2, (0, 0), 1e-6), terms, 6, 3)
    unnormalized = wl.WeightedVector.from_terms(2, {w: 2 * c for w, c in terms})
    assert checks.check_table(projection_norm_table(unnormalized, 6), terms, 6, 0)
