"""The benchmark's three workloads: inputs from a seed, tasks, checks.

A workload is a list of tasks that make up one round. A task is one or more
calls into capdual, timed together, plus a check of their outputs. The
benchmark repeats whole rounds, so every run attempts the same operations.

Instances that run Newton's method away from mu(v) are a fixed pool, drawn
from POOL_SEED and not from the run's seed. Whether Newton stalls at
max_iter on such an instance flips under any change of input, even a
translation of all weights, and a stall costs as much as dozens of ordinary
solves, so drawing them from the run's seed made the time of a round
depend on the seed (bench/README.md). The run's seed orders the pool and draws every input whose
cost does not hinge on that: LP-only capacity targets (vertices and outside
points), vectors whose target is mu(v) (Newton starts at the optimum),
spectra, rates, matrices and tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from capdual import capacity, cli, projection, scaling, spectrum
from capdual.core import WeightedVector

import checks

POOL_SEED = 2004
WORKLOADS = ("capacity-sweep", "duality-growth", "families")
F = Fraction


@dataclass
class Task:
    """Calls timed together; check(outputs) returns a list of problems.

    known_fault names the exception a call raises today because of a fault
    in capdual; such a call counts as failed without making the run wrong.
    """

    name: str
    calls: list[Callable[[], object]]
    check: Callable[[list], list[str]]
    known_fault: type[BaseException] | None = None


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    warmup: list[Callable[[], object]] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(len(t.calls) for t in self.tasks)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _unit_vector(n: int, amps: dict[tuple[int, ...], complex]) -> WeightedVector:
    return WeightedVector.from_terms(n, amps).normalized()


def _random_support(rng, n: int, s: int, box: int) -> list[tuple[int, ...]]:
    ws: set[tuple[int, ...]] = set()
    while len(ws) < s:
        ws.add(tuple(int(x) for x in rng.integers(-box, box + 1, size=n)))
    return sorted(ws)


def _random_vector(rng, n: int, s: int, box: int) -> WeightedVector:
    return _unit_vector(n, {w: complex(rng.normal(), rng.normal())
                            for w in _random_support(rng, n, s, box)})


def _combination(rng, ws, size: int, bound: int) -> tuple[Fraction, ...]:
    """A convex combination of `size` random support weights with positive
    integer coefficients below bound."""
    idx = rng.choice(len(ws), size=size, replace=False)
    cs = [int(rng.integers(1, bound)) for _ in idx]
    d = sum(cs)
    return tuple(sum((F(c * ws[i][j], d) for i, c in zip(idx, cs)), F(0))
                 for j in range(len(ws[0])))


def _rational_probs(rng, s: int, denom: int) -> list[Fraction]:
    """A random composition of denom into s positive parts, over denom."""
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, denom), size=s - 1, replace=False))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, denom])]
    return [F(p, denom) for p in parts]


# ---------------------------------------------------------------------------
# capacity-sweep

@dataclass(frozen=True)
class CapInstance:
    v: WeightedVector
    theta: tuple[Fraction, ...]
    inside: bool
    interior: bool  # theta has positive weight on every support weight
    closed_form: float | None = None

    @property
    def support(self) -> list[tuple[int, ...]]:
        return [w.coords for w in self.v.support]

    @property
    def amps_sq(self) -> list[float]:
        return [abs(c) ** 2 for _, c in self.v.terms]


def _dims(i: int) -> tuple[int, int, int]:
    """(n, support size, box) cycling n = 1..4 and 2..8 weights."""
    n = 1 + i % 4
    s = 2 + (i // 4) % 7
    box = {1: 4, 2: 2, 3: 1, 4: 1}[n]
    return n, s, box


def capacity_instances(seed: int) -> list[CapInstance]:
    pool = np.random.default_rng(POOL_SEED)
    out: list[CapInstance] = []
    # n = 1, two weights, interior theta: closed form -D(p || q).
    for _ in range(16):
        a, b = sorted(int(x) for x in pool.choice(np.arange(-4, 5), size=2, replace=False))
        v = _unit_vector(1, {(a,): complex(pool.normal(), pool.normal()),
                             (b,): complex(pool.normal(), pool.normal())})
        den = int(pool.integers(2, 8))
        theta = (a + F(int(pool.integers(1, den)), den) * (b - a),)
        qa, qb = (abs(c) ** 2 for _, c in v.terms)
        out.append(CapInstance(v, theta, True, True,
                               checks.neg_kl_two_point(a, b, theta[0], qa, qb)))
    # Criterion-8-style: n = 2, 3-5 weights in [-2, 2]^2, targets from
    # random sub-combinations and their midpoint.
    for i in range(30):
        v = _random_vector(pool, 2, 3 + i % 3, 2)
        ws = [w.coords for w in v.support]
        t1 = _combination(pool, ws, int(pool.integers(1, len(ws) + 1)), 4)
        t2 = _combination(pool, ws, int(pool.integers(1, len(ws) + 1)), 8)
        mid = tuple((x + y) / 2 for x, y in zip(t1, t2))
        out += [CapInstance(v, t, True, False) for t in (t1, t2, mid)]
    # General vectors with interior and sub-combination targets.
    for i in range(24):
        n, s, box = _dims(i)
        v = _random_vector(pool, n, s, box)
        ws = [w.coords for w in v.support]
        out.append(CapInstance(v, _combination(pool, ws, len(ws), 6), True, True))
        out.append(CapInstance(v, _combination(pool, ws, int(pool.integers(1, len(ws) + 1)), 6),
                               True, False))
    # Seed-drawn vectors with LP-only targets: a vertex (the lexicographic
    # maximum) and two points outside the polytope.
    rng = _rng(seed, "capacity-sweep")
    for i in range(48):
        n, s, box = _dims(i)
        v = _random_vector(rng, n, s, box)
        top = max(w.coords for w in v.support)
        shift = F(1, int(rng.integers(1, 4)))
        out.append(CapInstance(v, tuple(F(x) for x in top), True, False))
        out.append(CapInstance(v, (top[0] + shift, *map(F, top[1:])), False, False))
    order = rng.permutation(len(out))
    return [out[int(i)] for i in order]


def _cap_task(name: str, batch: list[CapInstance]) -> Task:
    calls: list[Callable[[], object]] = []
    for inst in batch:
        calls.append(lambda inst=inst: capacity.theta_capacity(inst.v, inst.theta))
        calls.append(lambda inst=inst: capacity.capacity_kl_form(inst.v, inst.theta))

    def check(outputs: list) -> list[str]:
        probs = []
        for j, inst in enumerate(batch):
            probs += [f"{name}[{j}]: {p}" for p in
                      checks.check_capacity(inst, outputs[2 * j], outputs[2 * j + 1])]
        return probs

    return Task(name, calls, check)


def capacity_sweep(seed: int, out_dir: Path) -> Workload:
    insts = capacity_instances(seed)
    tasks = [_cap_task(f"cap{i // 10:02d}", insts[i:i + 10]) for i in range(0, len(insts), 10)]
    tiny = _unit_vector(2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
    warm = [lambda: capacity.theta_capacity(tiny, (F(1, 3), F(1, 3))),
            lambda: capacity.capacity_kl_form(tiny, (F(1, 3), F(1, 3)))]
    return Workload("capacity-sweep", tasks, warm)


# ---------------------------------------------------------------------------
# duality-growth

QUBIT = _unit_vector(1, {(-1,): 1.0, (1,): 1.0})
CROSS = _unit_vector(2, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0})


def _mu(v: WeightedVector, probs: list[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum((p * w.coords[i] for w, p in zip(v.support, probs)), F(0))
                 for i in range(v.n))


def _cross_plus_one(rng) -> list[tuple[int, int]]:
    """The four weights +-e1, +-e2 and one corner of [-1, 1]^2: five weights,
    extent 2 on both axes, and the same reachable DP cells up to a
    reflection, whatever the seed."""
    corners = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    return sorted([(-1, 0), (1, 0), (0, -1), (0, 1), corners[int(rng.integers(4))]])


def _born_rational(n: int, ws: list[tuple[int, ...]], probs: list[Fraction], rng
                   ) -> WeightedVector:
    """Unit vector with Born probabilities probs and random phases."""
    return WeightedVector.from_terms(n, {
        w: math.sqrt(p) * complex(math.cos(ph), math.sin(ph))
        for w, p, ph in zip(ws, probs, rng.uniform(0, 2 * math.pi, len(ws)))})


def _report_task(name: str, v, theta, k_max: int, power: int | None = None) -> Task:
    def check(outputs: list) -> list[str]:
        rep = outputs[0]
        probs = (checks.check_central_rows(rep, power) if power
                 else checks.check_weak_duality(rep))
        ell = math.lcm(*(F(t).denominator for t in theta))
        if len(rep.rows) != k_max // ell:
            probs.append(f"{len(rep.rows)} rows, expected {k_max // ell}")
        return [f"{name}: {p}" for p in probs]

    return Task(name, [lambda: projection.duality_report(v, theta, k_max)], check)


def _prefactor_task(name: str, v, ks: list[int], power: int) -> Task:
    return Task(name, [lambda: projection.prefactor_sequence(v, ks=ks)],
                lambda outs: [f"{name}: {p}" for p in
                              checks.check_prefactor(outs[0], ks, power, 1e-6)])


def duality_growth(seed: int, out_dir: Path) -> Workload:
    rng = _rng(seed, "duality-growth")
    pool = np.random.default_rng(POOL_SEED + 1)
    tasks = [_report_task("qubit-k3000", QUBIT, (F(0),), 3000, power=1),
             _report_task("cross-k120", CROSS, (F(0), F(0)), 120, power=2)]
    # theta = mu(v): support with fixed extent, rational Born weights.
    for i in range(3):
        # An odd middle weight: every lattice point of the DP box is reached,
        # so no seed leaves -inf entries, which np.logaddexp treats faster.
        ws = [(-2,), (int(rng.choice([-1, 1])),), (2,)]
        probs = _rational_probs(rng, len(ws), 12)
        v = _born_rational(1, ws, probs, rng)
        tasks.append(_report_task(f"mu-n1-{i}", v, _mu(v, probs), 1500))
    for i in range(2):
        ws = _cross_plus_one(rng)
        probs = _rational_probs(rng, len(ws), 12)
        v = _born_rational(2, ws, probs, rng)
        tasks.append(_report_task(f"mu-n2-{i}", v, _mu(v, probs), 120))
    # Newton targets away from mu(v) and near a vertex: fixed pool.
    v1 = _random_vector(pool, 1, 4, 3)
    w1 = [w.coords[0] for w in v1.support]
    lo, hi = min(w1), max(w1)
    tasks.append(_report_task("away-n1", v1, (F(lo) + F(1, 4) * (hi - lo),), 1200))
    tasks.append(_report_task("vertex-n1", v1, (F(hi) - F(1, 8) * (hi - lo),), 1200))
    v2 = _random_vector(pool, 2, 5, 1)
    ws2 = [w.coords for w in v2.support]
    top = max(ws2)
    other = min(ws2)
    tasks.append(_report_task("away-n2", v2, _combination(pool, ws2, len(ws2), 4), 100))
    tasks.append(_report_task("vertex-n2", v2, tuple(F(9, 10) * a + F(1, 10) * b
                                                    for a, b in zip(top, other)), 100))
    tasks.append(_prefactor_task("prefactor-qubit-k1e4", QUBIT, [10_000], 1))
    tasks.append(_prefactor_task("prefactor-cross-window", CROSS, list(range(600, 801, 2)), 2))
    warm = [lambda: projection.duality_report(QUBIT, (F(0),), 20),
            lambda: projection.prefactor_sequence(CROSS, ks=[40, 42])]
    return Workload("duality-growth", tasks, warm)


# ---------------------------------------------------------------------------
# families

MC_CONFIG = {
    "experiment": "mc-check",
    "instance": {"cases": [
        {"group": "torus", "k": 4, "vector": {"n": 1, "terms": [
            {"weight": [1], "amplitude": 0.7071067811865476},
            {"weight": [-1], "amplitude": 0.7071067811865476}]}},
        {"group": "torus", "k": 4, "vector": {"n": 2, "terms": [
            {"weight": [1, 0], "amplitude": 0.5}, {"weight": [-1, 0], "amplitude": 0.5},
            {"weight": [0, 1], "amplitude": 0.5}, {"weight": [0, -1], "amplitude": 0.5}]}},
        {"group": "su2", "k": 3, "amplitudes": [0.6, [0.0, 0.8]], "lam": 3},
        {"group": "su2", "k": 2, "amplitudes": [0.6, [0.0, 0.8]]},
        {"group": "u2", "k": 2, "matrix": [[0.8660254037844386, 0], [0, 0.5]], "lam": [2, 0]},
        {"group": "u2", "k": 2, "matrix": [[0.8660254037844386, 0], [0, 0.5]], "lam": [1, 1]},
    ]},
    "samples": 100_000,
    "seed": 11,
    "tolerances": {"max_sigmas": 4.0, "min_fraction": 1.0},
}
# Closed forms of MC_CONFIG's cases: C(4,2)/2^4, C(4,2)^2/4^4, the whole of
# v^{tensor 3} in Sym^3, no invariant in (C^2)^{tensor 2}, and
# s_(2)(q), s_(1,1)(q) at q = (3/4, 1/4).
MC_EXACT = [F(6, 16), F(36, 256), F(1), F(0),
            F(9, 16) + F(3, 16) + F(1, 16), F(3, 16)]

SW3_THETA = [F(9, 20), F(7, 20), F(1, 5)]
TRIANGULAR = [[1, 1], [0, 1]]
HALF = (F(1, 2), F(1, 2))


def _write_config(out_dir: Path, name: str, config: dict) -> Path:
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(config, sort_keys=True, indent=1))
    return path


def _cli_task(name: str, out_dir: Path, config: dict,
              check_rows: Callable[[dict, list[dict]], list[str]]) -> Task:
    cfg = _write_config(out_dir, name, config)
    run_dir = out_dir / name

    def check(outputs: list) -> list[str]:
        summary, rows = checks.read_run(run_dir)
        probs = checks.check_cli(outputs[0], summary) + check_rows(summary, rows)
        return [f"{name}: {p}" for p in probs]

    return Task(name, [lambda: cli.main(["run", str(cfg), "--out", str(run_dir)])], check)


def _sorted_spectrum(rng, s: int, denom: int) -> list[Fraction]:
    """Distinct sorted positive rationals over denom summing to 1."""
    while True:
        q = sorted(_rational_probs(rng, s, denom), reverse=True)
        if len(set(q)) == s:
            return q


def _sw_rows(q, theta):
    def check_rows(summary, rows):
        probs = []
        for row in rows:
            probs += checks.check_sw_ldp_row(int(row["k"]), float(row["log_prob_ln"]), q, theta)
        want = math.fsum(float(t) * math.log(t / s) for t, s in zip(theta, q))
        if abs(summary["analytic_rate"] - want) > 1e-12:
            probs.append(f"rate {summary['analytic_rate']!r} vs D(theta||q) {want!r}")
        return probs[:3]
    return check_rows


def _duffield_rows(theta: Fraction):
    def check_rows(summary, rows):
        probs = []
        for row in rows:
            probs += checks.check_duffield_row(int(row["k"]), float(row["log_prob_ln"]),
                                               float(theta))
        want = checks.su2_rate(float(theta))
        if abs(summary["analytic_rate"] - want) > 1e-10:
            probs.append(f"rate {summary['analytic_rate']!r} vs closed form {want!r}")
        return probs[:3]
    return check_rows


def _perm_rows(summary, rows):
    for row in rows:
        k = int(row["k"])
        want = 2 * math.log(math.comb(k, k // 2))
        if abs(float(row["log_kfact_perm_ln"]) - want) > 1e-12 * want:
            return [f"k = {k}: log k! perm {row['log_kfact_perm_ln']} vs {want!r}"]
    return []


def _mc_rows(summary, rows):
    probs = []
    for row, exact in zip(rows, MC_EXACT):
        err = abs(complex(float(row["mean_re"]), float(row["mean_im"])) - float(exact))
        if err > 4.0 * float(row["stderr"]) + 1e-15:
            probs.append(f"case {row['case']}: error {err:.3e} beyond 4 sigma")
    if len(rows) != len(MC_EXACT):
        probs.append(f"{len(rows)} cases reported")
    return probs


def _laurent_rows(summary, rows):
    for row in rows:
        k = int(row["k"])
        if int(row["cst_exact"]) != checks.laurent_walk_cst(k):
            return [f"cst((z+1/z)^{k}) = {row['cst_exact']}"]
    return []


def families(seed: int, out_dir: Path) -> Workload:
    rng = _rng(seed, "families")
    tasks: list[Task] = []
    # With two parts, distinct sorted theta always rounds to a partition;
    # with three, spectrum._round_partition rejects some theta at some k
    # (see CHANGES.md), so the three-part target is pinned.
    for s, k_max in ((2, 150), (3, 60)):
        q = _sorted_spectrum(rng, s, 20)
        theta = _sorted_spectrum(rng, 2, 20) if s == 2 else SW3_THETA
        cfg = {"experiment": "schur-weyl-ldp", "k_max": k_max,
               "instance": {"q": [str(t) for t in q], "theta": [str(t) for t in theta]}}
        tasks.append(_cli_task(f"schur-weyl-{s}", out_dir, cfg, _sw_rows(q, theta)))
    theta_d = F(int(rng.integers(1, 10)), 10)
    tasks.append(_cli_task("duffield", out_dir, {
        "experiment": "duffield-ldp", "k_max": 600,
        "instance": {"weights": [-1, 1], "theta": str(theta_d)}}, _duffield_rows(theta_d)))
    tasks.append(_cli_task("perm-dual", out_dir, {
        "experiment": "perm-dual", "k_max": 30,
        "instance": {"matrix": [[1, 1], [1, 1]], "r": ["1/2", "1/2"], "c": ["1/2", "1/2"]}},
        _perm_rows))
    tasks.append(_cli_task("mc-check", out_dir, MC_CONFIG, _mc_rows))
    tasks.append(_cli_task("laurent", out_dir, {
        "experiment": "laurent", "k_max": 60,
        "instance": {"terms": [[1, 1], [-1, 1]]},
        "tolerances": {"cap_match_tol": 1e-9}}, _laurent_rows))

    for i in range(2):
        ws = _cross_plus_one(rng)
        v = _unit_vector(2, {w: complex(rng.normal(), rng.normal()) for w in ws})
        terms = [(w.coords, c) for w, c in v.terms]
        tasks.append(Task(f"table-{i}", [lambda v=v: projection.projection_norm_table(v, 100)],
                          lambda outs, t=terms, i=i: [f"table-{i}: {p}" for p in
                                                       checks.check_table(outs[0], t, 100, 3)]))
    tri = scaling.ScalingState(TRIANGULAR, HALF, HALF)
    tasks.append(Task("sinkhorn-boundary", [lambda: scaling.sinkhorn_scale(tri, tol=1e-5)],
                      lambda outs: checks.check_sinkhorn(outs[0], 1e-5)))
    pos = scaling.ScalingState([[int(x) for x in rng.integers(1, 10, size=3)] for _ in range(3)],
                               tuple(_rational_probs(rng, 3, 12)),
                               tuple(_rational_probs(rng, 3, 12)))
    tasks.append(Task("sinkhorn-positive", [lambda: scaling.sinkhorn_scale(pos, tol=1e-9)],
                      lambda outs: checks.check_sinkhorn(outs[0], 1e-9)))
    q3 = _sorted_spectrum(rng, 3, 20)
    tasks.append(Task("schur-weyl-measure", [lambda: spectrum.schur_weyl_measure(q3, 40)],
                      lambda outs: checks.check_schur_weyl_measure(outs[0], q3, 40)))
    tasks.append(Task("su2-multiplicities", [lambda: spectrum.rank1_multiplicities((-1, 1), 300)],
                      lambda outs: checks.check_su2_multiplicities(outs[0], 300)))
    tasks.append(Task("perm-ones-k20", [lambda: scaling.perm_rc_exact([[1, 1], [1, 1]],
                                                                      [10, 10], [10, 10])],
                      lambda outs: checks.check_ones_permanent(outs[0].value, 20)))
    # Fails today: _round_partition rejects k*theta at k = 5 (see CHANGES.md).
    q4 = (F(2, 5), F(3, 10), F(1, 5), F(1, 10))
    fam4 = spectrum.SchurWeylFamily(tuple(float(t) for t in q4))

    def check_ldp4(outs):
        rows = outs[0].rows
        probs = [] if len(rows) == 10 else [f"{len(rows)} rows"]
        for k, log_p, *_ in rows:
            probs += checks.check_sw_ldp_row(k, log_p, list(q4), list(q4))
        return [f"ldp-q4: {p}" for p in probs]

    tasks.append(Task("ldp-q4", [lambda: spectrum.ldp_report(fam4, q4, 10)], check_ldp4,
                      known_fault=ValueError))

    warm_cfg = _write_config(out_dir, "warmup", {
        "experiment": "laurent", "k_max": 4, "instance": {"terms": [[1, 1], [-1, 1]]}})
    warm = [lambda: cli.main(["run", str(warm_cfg), "--out", str(out_dir / "warmup")]),
            lambda: projection.projection_norm_table(CROSS, 4),
            lambda: scaling.sinkhorn_scale(tri, tol=1e-2)]
    return Workload("families", tasks, warm)


BUILDERS = {"capacity-sweep": capacity_sweep, "duality-growth": duality_growth,
            "families": families}
