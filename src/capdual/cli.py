"""Experiment runner.

`capdual run config.json [--out DIR] [--seed N]` validates the config, with
the seed override applied, against its experiment's strict schema, which
admits only the keys that experiment reads; it then dispatches to the
compute modules and writes two files: report.csv (one row per k or per case)
and summary.json (headline numbers plus a pass flag judged against the
configured tolerances, false whenever a capacity solve stopped at max_iter).
`capdual list` prints the experiment catalogue with schemas and the
classical statement each one exercises.

Exit codes: 0 pass, 2 tolerance failure, 1 error (malformed config, bad
instance). Reports are byte-identical across repeated runs of the same
config and seed: no timestamps, floats at 17 significant digits, exact
integers in decimal in columns suffixed "_exact".
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .capacity import capacity_kl_form, theta_capacity
from .core import (WeightVector, WeightedVector, as_fraction, fraction_log,
                   rational_vector)
from .haarmc import (UnitaryOrbitVector, _label_pair, _torus_label,
                     mc_invariant_norm, mc_isotypic_norm)
from .projection import (LaurentPoly, critical_values, duality_report,
                         laurent_cst_powers, prefactor_sequence,
                         projection_norm_table)
from .scaling import perm_dual_report
from .spectrum import (DuffieldFamily, SchurWeylFamily, ldp_report,
                       schur_weyl_measure)


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Schemas. Strict per experiment: a key the experiment does not read is
# rejected.

def _strict(properties: dict, required: tuple[str, ...] | None = None) -> dict:
    """An object schema that admits only the given properties, all of them
    required unless required names the ones that are."""
    return {"type": "object", "properties": properties,
            "required": list(properties if required is None else required),
            "additionalProperties": False}


_NUMBER = {"type": "number"}
_NUMBER_OR_RATIONAL = {"oneOf": [_NUMBER,
                                 {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}]}
_COMPLEX = {"oneOf": [*_NUMBER_OR_RATIONAL["oneOf"],
                      {"type": "array", "items": _NUMBER,
                       "minItems": 2, "maxItems": 2}]}

_VECTOR_SCHEMA = _strict({
    "n": {"type": "integer", "minimum": 1},
    "terms": {"type": "array", "minItems": 1, "items": _strict({
        "weight": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "amplitude": _COMPLEX})},
})

_THETA_SCHEMA = {"type": "array", "items": _NUMBER_OR_RATIONAL, "minItems": 1}
_MATRIX_SCHEMA = {"type": "array", "minItems": 1,
                  "items": {"type": "array", "items": _NUMBER_OR_RATIONAL,
                            "minItems": 1}}
_WINDOW = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
_PINS = {"type": "array", "items": _WINDOW}

_MC_CASE = _strict({
    "group": {"enum": ["torus", "su2", "u2"]},
    "k": {"type": "integer", "minimum": 1, "maximum": 8},
    "vector": _VECTOR_SCHEMA,
    "amplitudes": {"type": "array", "items": _COMPLEX,
                   "minItems": 2, "maxItems": 2},
    "matrix": {"type": "array", "minItems": 2, "maxItems": 2,
               "items": {"type": "array", "minItems": 2, "maxItems": 2,
                         "items": _COMPLEX}},
    "lam": {"oneOf": [{"type": "integer"},
                      {"type": "array", "items": {"type": "integer"}},
                      {"type": "null"}]},
}, required=("group", "k"))

_VECTOR_THETA = {"vector": _VECTOR_SCHEMA, "theta": _THETA_SCHEMA}

# The top-level parameters a handler may read. An experiment's schema admits
# only the ones its handler reads; the others get {"not": {}}, which admits
# nothing, so a config that sets one fails at its own path ($.seed, ...).
_PARAMS = {
    "k_max": {"type": "integer", "minimum": 1},
    "ks": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    "samples": {"type": "integer", "minimum": 1, "maximum": 10**7},
    "seed": {"type": "integer", "minimum": 0},
}


@dataclass(frozen=True)
class Experiment:
    """Everything `capdual` knows of one experiment.

    instance and tolerances hold the properties of those two objects; every
    instance field is required, and qualifiers maps a tolerance field that
    only qualifies others to them (dependentRequired). required and optional
    name the top-level parameters the handler reads, as keyword arguments.
    """

    name: str
    handler: Callable[..., tuple]
    description: str
    anchor: str
    instance: dict
    tolerances: dict
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    qualifiers: dict = field(default_factory=dict)

    @property
    def instance_schema(self) -> dict:
        return _strict(self.instance)

    @property
    def schema(self) -> dict:
        """The strict schema of a whole config of this experiment."""
        tolerances = {**_strict(self.tolerances, ()),
                      "dependentRequired": self.qualifiers}
        reads = self.required + self.optional
        return {"$schema": "https://json-schema.org/draft/2020-12/schema",
                **_strict({"experiment": {"const": self.name},
                           "instance": self.instance_schema,
                           "tolerances": tolerances,
                           "output": {"type": "string"},
                           **{key: schema if key in reads else {"not": {}}
                              for key, schema in _PARAMS.items()}},
                          ("experiment", "instance", *self.required))}


# ---------------------------------------------------------------------------
# Parsing helpers.

def _coeff(value):
    """number | 'p/q' | [re, im] -> exact Fraction or complex."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1])
    if isinstance(value, int):
        return Fraction(value)
    return float(value)


def _vector_from_config(obj) -> WeightedVector:
    terms: dict[WeightVector, complex] = {}
    for t in obj["terms"]:
        w = WeightVector(tuple(int(x) for x in t["weight"]))
        if w in terms:
            raise ConfigError(f"duplicate weight {w.coords} in vector terms")
        amp = _coeff(t["amplitude"])
        terms[w] = complex(amp) if isinstance(amp, complex) else float(amp)
    return WeightedVector.from_terms(int(obj["n"]), terms)


def _fmt_float(x: float) -> str:
    return "%.16e" % float(x)


def _solve_status(cap, headline: dict) -> bool:
    """Write how a capacity solve stopped into headline; False when it
    stopped at max_iter, which no experiment passes on."""
    headline.update(status=cap.status, iterations=cap.iterations)
    return cap.status != "max_iter"


# ---------------------------------------------------------------------------
# Experiment handlers. Each takes the instance, the tolerances and, as keyword
# arguments, the top-level parameters its experiment reads; it returns
# (columns, rows, headline, passed), rows holding python scalars/strings
# ready for the CSV writer.

def _run_duality(inst: dict, tol: dict, k_max: int):
    v = _vector_from_config(inst["vector"])
    report = duality_report(v, rational_vector(inst["theta"]), k_max)
    slack = tol.get("weak_duality_slack", 1e-10)
    min_ratio = tol.get("min_final_ratio", 0.985)
    rows = [(k, ns.log_mag, rate, lcs, gap)
            for k, ns, rate, lcs, gap in report.rows]
    if not rows:
        raise ConfigError("no k <= k_max makes k*theta integral")
    last = rows[-1]
    final_ratio = math.exp((last[2] - last[3]) / 2) if math.isfinite(last[3]) else math.nan
    min_gap = min((r[4] for r in rows if not math.isnan(r[4])), default=math.inf)
    headline = {
        "cap_sq": math.exp(last[3]) if math.isfinite(last[3]) else 0.0,
        "final_ratio": final_ratio,
        "min_gap": min_gap,
        "rows": len(rows),
        "period": report.metadata["period"],
        "dropped_mass": report.metadata["dropped_mass"],
        "crops": report.metadata["crops"],
        "max_row_cells": report.metadata["max_row_cells"],
    }
    passed = (_solve_status(report.metadata["capacity"], headline)
              and final_ratio >= min_ratio and min_gap >= -slack)
    return (("k", "log_norm_sq_ln", "rate_ln", "log_cap_sq_ln", "gap_ln"),
            rows, headline, bool(passed))


def _run_prefactor(inst: dict, tol: dict, k_max: int | None = None,
                   ks: list | None = None):
    v = _vector_from_config(inst["vector"])
    seq = prefactor_sequence(v, k_max=k_max, ks=ks)
    if not seq:
        raise ConfigError("no admissible powers requested")
    final = seq[-1][1]
    passed = True
    headline: dict = {"final_value": final, "rows": len(seq)}
    if "target" in tol:
        err = abs(final - tol["target"])
        passed = passed and err <= tol.get("abs_tol", 1e-3)
        headline["target"] = tol["target"]
        headline["abs_error"] = err
    if "cauchy_window" in tol:
        lo, hi = tol["cauchy_window"]
        window = [val for k, val in seq if lo <= k <= hi]
        if len(window) < 2:
            raise ConfigError("cauchy_window contains fewer than 2 reported k")
        spread = (max(window) - min(window)) / (sum(window) / len(window))
        passed = passed and spread <= tol.get("cauchy_rel_tol", 0.01)
        headline["cauchy_spread"] = spread
        headline["window_positive"] = bool(min(window) > 0)
        passed = passed and min(window) > 0
    return ("k", "prefactor_value"), list(seq), headline, passed


def _run_perm_dual(inst: dict, tol: dict, k_max: int):
    M = [[as_fraction(x) for x in row] for row in inst["matrix"]]
    report = perm_dual_report(M, rational_vector(inst["r"]),
                              rational_vector(inst["c"]), k_max)
    slack = tol.get("weak_duality_slack", 1e-9)
    rows = list(report.rows)
    if not rows:
        raise ConfigError("no k <= k_max makes k*(r,c) integral")
    min_gap = min((r[4] for r in rows if not math.isnan(r[4])), default=math.inf)
    headline = {
        "cap_sq": math.exp(rows[0][3]) if math.isfinite(rows[0][3]) else 0.0,
        "min_gap": min_gap,
        "final_root": rows[-1][2],
        "rows": len(rows),
    }
    passed = _solve_status(report.metadata["capacity"], headline) and min_gap >= -slack
    if "sandwich" in report.metadata:
        s = report.metadata["sandwich"]
        headline["sandwich_lower"] = s["lower"]
        headline["sandwich_perm"] = float(s["perm"])
        headline["sandwich_upper"] = s["upper"]
        holds = bool(s["lower_holds"] and s["upper_holds"])
        headline["sandwich_holds"] = holds
        passed = passed and holds
    if "root_window" in tol:
        lo, hi = tol["root_window"]
        passed = passed and lo <= rows[-1][2] <= hi
    return (("k", "log_kfact_perm_ln", "root_value", "log_cap_sq_ln", "gap_ln"),
            rows, headline, bool(passed))


def _ldp_common(report, tol):
    rows = list(report.rows)
    by_k = {r[0]: r for r in rows}
    passed = True
    pins = {}
    for k, bound in tol.get("difference_pins", []):
        k = int(k)
        if k not in by_k:
            raise ConfigError(f"difference pin at k={k} outside the report")
        pins[k] = by_k[k][4]
        passed = passed and pins[k] <= bound
    if tol.get("strict_decrease"):
        diffs = [pins[k] for k in sorted(pins)]
        passed = passed and all(a > b for a, b in zip(diffs, diffs[1:]))
    headline = {"analytic_rate": report.metadata["analytic_rate"],
                "rows": len(rows)}
    if pins:
        headline["pinned_differences"] = {str(k): d for k, d in pins.items()}
    return (("k", "log_prob_ln", "empirical_rate", "analytic_rate", "difference"),
            rows, headline, bool(passed))


def _run_schur_weyl_ldp(inst: dict, tol: dict, k_max: int):
    q = tuple(float(as_fraction(t)) for t in inst["q"])
    theta = [as_fraction(t) for t in inst["theta"]]
    return _ldp_common(ldp_report(SchurWeylFamily(q), theta, k_max), tol)


def _run_duffield_ldp(inst: dict, tol: dict, k_max: int):
    family = DuffieldFamily(tuple(int(w) for w in inst["weights"]))
    return _ldp_common(ldp_report(family, as_fraction(inst["theta"]), k_max), tol)


def _mc_case_exact(instance, k: int, lam) -> float:
    """Exact counterpart of one mc-check case."""
    if isinstance(instance, WeightedVector):
        coords = (0,) * instance.n if lam is None else _torus_label(lam, instance.n)
        return projection_norm_table(instance, k).get(k, coords).to_float()
    pair = (0, 0) if lam is None else _label_pair(lam)
    if instance.group == "su2":
        return 1.0 if pair[0] - pair[1] == k else 0.0
    # u2: the lambda-isotypic norm is the Schur-Weyl mass f^lambda s_lambda(q)
    if sum(pair) != k:
        return 0.0
    A = instance.matrix()
    q = sorted(np.linalg.eigvalsh(A @ A.conj().T).real.tolist(), reverse=True)
    for row in schur_weyl_measure(q, k):
        if tuple(row.lam.padded(2)) == pair:
            return row.prob.to_float()
    return 0.0


def _run_mc_check(inst: dict, tol: dict, samples: int = 10**6, seed: int = 0):
    max_sigmas = tol.get("max_sigmas", 4.0)
    min_fraction = tol.get("min_fraction", 0.95)
    rows = []
    within = 0
    for idx, case in enumerate(inst["cases"]):
        k = int(case["k"])
        group = case["group"]
        lam = case.get("lam")
        if group == "torus":
            instance = _vector_from_config(case["vector"])
        elif group == "su2":
            amps = tuple(complex(_coeff(a)) for a in case["amplitudes"])
            instance = UnitaryOrbitVector("su2", amps)
        else:
            mat = tuple(tuple(complex(_coeff(e)) for e in row) for row in case["matrix"])
            instance = UnitaryOrbitVector("u2", mat)
        if lam is None:
            est = mc_invariant_norm(instance, k, samples, seed + idx)
        else:
            est = mc_isotypic_norm(instance, k, lam, samples, seed + idx)
        exact = _mc_case_exact(instance, k, lam)
        err = abs(est.mean - exact)
        sigmas = err / est.stderr if est.stderr > 0 else (0.0 if err == 0 else math.inf)
        ok = sigmas <= max_sigmas
        within += ok
        rows.append((idx, group, k, est.mean.real, est.mean.imag, est.stderr,
                     exact, err, sigmas, "true" if ok else "false", est.seed, est.blocks))
    fraction = within / len(rows)
    passed = fraction >= min_fraction
    headline = {"cases": len(rows), "within": within, "fraction_within": fraction,
                "blocks": [row[-1] for row in rows]}
    return (("case", "group", "k", "mean_re", "mean_im", "stderr",
             "exact", "abs_error", "sigmas", "within_tolerance", "seed", "blocks"),
            rows, headline, bool(passed))


def _run_capacity(inst: dict, tol: dict):
    v = _vector_from_config(inst["vector"])
    theta = rational_vector(inst["theta"])
    cap = theta_capacity(v, theta)
    kl = capacity_kl_form(v.normalized(), theta)
    if cap.log_cap.sign:  # log cap of the unit vector against the KL form
        log_cap_unit = cap.log_cap.log_mag - math.log(math.sqrt(v.norm_sq))
        diff = abs(2 * log_cap_unit - kl.log_mag)
    else:
        diff = 0.0 if kl.sign == 0 else math.inf
    check_tol = tol.get("cross_check_tol", 1e-8)
    inside = cap.certificate.inside
    rows = [(cap.log_cap.log_mag, kl.log_mag, diff,
             "true" if cap.diverging else "false",
             "true" if inside else "false")]
    headline = {
        "cap": cap.log_cap.to_float(),
        "log_cap": cap.log_cap.log_mag,
        "kl_log_cap_sq": kl.log_mag,
        "cross_check_diff": diff,
        "inside": inside,
        "diverging": bool(cap.diverging),
        "gradient_norm": cap.gradient_norm,
        "face_dim": cap.certificate.dim,
        "face_lps": cap.certificate.lps,
        "face_pivots": cap.certificate.pivots,
    }
    passed = _solve_status(cap, headline) and diff <= check_tol
    return (("log_cap_ln", "kl_log_cap_sq_ln", "cross_check_diff",
             "diverging", "inside"), rows, headline, bool(passed))


def _run_laurent(inst: dict, tol: dict, k_max: int):
    terms = {}
    for e, cval in inst["terms"]:
        if int(e) in terms:
            raise ConfigError(f"duplicate exponent {e} in Laurent terms")
        terms[int(e)] = _coeff(cval)
    f = LaurentPoly(terms)
    crit = critical_values(f)
    rows = []
    for k, cst in enumerate(laurent_cst_powers(f, k_max)[1:], start=1):
        try:
            z = complex(cst)
        except OverflowError:  # an exact cst past the float range
            z = complex(math.inf if cst > 0 else -math.inf)
        mag = abs(z)
        if isinstance(cst, Fraction) and cst != 0 and mag in (0.0, math.inf):
            # the float columns over- or underflowed; the exact value keeps
            # the root, read in log scale
            root = math.exp(fraction_log(cst).log_mag / k)
        else:
            root = mag ** (1.0 / k) if mag > 0 else 0.0
        exact = str(cst) if isinstance(cst, Fraction) else ""
        rows.append((k, z.real, z.imag, root, exact))
    final_root = rows[-1][3]  # k_max >= 1
    passed = True
    headline = {
        "max_critical_modulus": crit.max_modulus,
        "critical_values": [[z.real, z.imag] for z in crit.values],
        "final_root": final_root,
    }
    if crit.positive_real_value is not None:
        headline["positive_real_value"] = crit.positive_real_value
        if "cap_match_tol" in tol:
            # positive_real_value is set only for real nonnegative coefficients
            v = WeightedVector.from_terms(
                1, {WeightVector((e,)): math.sqrt(complex(c).real)
                    for e, c in f.terms.items()})
            cap = theta_capacity(v, (Fraction(0),))
            cap_sq = math.exp(2 * cap.log_cap.log_mag) if cap.log_cap.sign else 0.0
            diff = abs(cap_sq - crit.positive_real_value)
            headline["cap_sq"] = cap_sq
            headline["cap_match_diff"] = diff
            passed = _solve_status(cap, headline) and diff <= tol["cap_match_tol"]
    if "root_window" in tol:
        lo, hi = tol["root_window"]
        passed = passed and lo <= final_root <= hi
    return (("k", "cst_re", "cst_im", "root_value", "cst_exact"),
            rows, headline, bool(passed))


EXPERIMENTS = {e.name: e for e in (
    Experiment("duality", _run_duality,
               "projection-norm growth vs theta-capacity for a torus vector",
               "Theorem (capacity duality): limsup_k |Pi_{k,k theta} "
               "v^{tensor k}|^{2/k} = cap_theta(v)^2.",
               _VECTOR_THETA,
               {"min_final_ratio": _NUMBER, "weak_duality_slack": _NUMBER},
               required=("k_max",)),
    Experiment("prefactor", _run_prefactor,
               "k^{d/2}-rescaled invariant norms over the period subsemigroup",
               "Proposition (Laplace prefactor): for unit v with mu(v)=0, "
               "k^{d/2} |Pi_k v^{tensor k}|^2 converges to a positive limit.",
               {"vector": _VECTOR_SCHEMA},
               {"target": _NUMBER, "abs_tol": _NUMBER,
                "cauchy_window": _WINDOW, "cauchy_rel_tol": _NUMBER},
               optional=("k_max", "ks"),  # one of the two: the handler checks
               qualifiers={"abs_tol": ["target"],
                           "cauchy_rel_tol": ["cauchy_window"]}),
    Experiment("perm-dual", _run_perm_dual,
               "exact k! perm_{kr,kc} roots vs the (r,c)-capacity",
               "Theorem (van der Waerden-type duality): limsup_k "
               "(k! perm_{kr,kc}(M))^{1/k} = cap_{r,c}(M)^2, with the "
               "n!/n^n permanent sandwich at uniform margins.",
               {"matrix": _MATRIX_SCHEMA, "r": _THETA_SCHEMA, "c": _THETA_SCHEMA},
               {"weak_duality_slack": _NUMBER, "root_window": _WINDOW},
               required=("k_max",)),
    Experiment("schur-weyl-ldp", _run_schur_weyl_ldp,
               "spectrum-estimation decay rates vs sorted relative entropy",
               "Theorem (Keyl-Werner): the Schur-Weyl spectrum "
               "estimator satisfies an LDP with rate D(theta || q).",
               {"q": _THETA_SCHEMA, "theta": _THETA_SCHEMA},
               {"difference_pins": _PINS, "strict_decrease": {"type": "boolean"}},
               required=("k_max",),
               qualifiers={"strict_decrease": ["difference_pins"]}),
    Experiment("duffield-ldp", _run_duffield_ldp,
               "tensor-multiplicity decay rates vs the Legendre rate",
               "Theorem (Duffield): dimension-weighted tensor-power "
               "multiplicities satisfy an LDP with the Legendre "
               "transform of log(chi(e^h)/d) as rate.",
               {"weights": {"type": "array", "items": {"type": "integer"},
                            "minItems": 1},
                "theta": _NUMBER_OR_RATIONAL},
               {"difference_pins": _PINS},
               required=("k_max",)),
    Experiment("mc-check", _run_mc_check,
               "Monte Carlo Haar estimates vs exact projection norms",
               "Identity (Haar projection formula): |Pi_{k,lambda} "
               "v^{tensor k}|^2 = d_lambda Int_K conj(chi_lambda(u)) "
               "<v, u v>^k du.",
               {"cases": {"type": "array", "items": _MC_CASE, "minItems": 1}},
               {"max_sigmas": _NUMBER, "min_fraction": _NUMBER},
               optional=("samples", "seed")),
    Experiment("capacity", _run_capacity,
               "theta-capacity with the independent KL-form cross-check",
               "Theorem (Kempf-Ness, KL dual): cap_theta(v) = |v| iff "
               "mu(v) = theta; -log cap_theta^2 = min D(p||q) over "
               "representations of theta.",
               _VECTOR_THETA,
               {"cross_check_tol": _NUMBER}),
    Experiment("laurent", _run_laurent,
               "constant-term growth of Laurent powers vs critical values",
               "Theorem (Duistermaat-van der Kallen, rank 1): the growth "
               "|cst(f^k)|^{1/k} is governed by a critical value of f; "
               "positive-definite f attains it on the positive reals.",
               {"terms": {"type": "array", "minItems": 1,
                          "items": {"type": "array", "minItems": 2,
                                    "maxItems": 2,
                                    "prefixItems": [{"type": "integer"},
                                                    _COMPLEX],
                                    "items": False}}},
               {"root_window": _WINDOW, "cap_match_tol": _NUMBER},
               required=("k_max",)),
)}

# Checked before the experiment's own schema, so an unknown or missing name
# is reported as such.
NAME_SCHEMA = {"type": "object",
               "properties": {"experiment": {"enum": list(EXPERIMENTS)}},
               "required": ["experiment"]}


# ---------------------------------------------------------------------------
# Orchestration.

@functools.cache
def _validator(name: str | None = None):
    """The validator of one experiment's schema (of NAME_SCHEMA for None),
    built once a process: building one checks its schema against the
    metaschema, which costs more than validating."""
    schema = NAME_SCHEMA if name is None else EXPERIMENTS[name].schema
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(config, name: str | None = None) -> None:
    """jsonschema.validate on a prebuilt validator: raises the same best
    match among the errors."""
    error = jsonschema.exceptions.best_match(_validator(name).iter_errors(config))
    if error is not None:
        raise error


def _load_config(path: Path, seed: int | None = None) -> dict:
    """Read a config, apply a seed override, and validate the result: the
    name first, then the whole config against its experiment's schema."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    try:
        _validate(config)
        if seed is not None:
            config["seed"] = seed
        _validate(config, config["experiment"])
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"{path}: {exc.json_path}: {exc.message}") from exc
    return config


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for name, value in zip(columns, row):
            if name.endswith("_exact") or isinstance(value, str):
                cells.append(str(value))
            elif isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            else:
                cells.append(_fmt_float(value))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _json_default(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def run(config: dict, out_dir: Path) -> int:
    name = config["experiment"]
    experiment = EXPERIMENTS[name]
    params = {key: config[key] for key in experiment.required + experiment.optional
              if key in config}
    columns, rows, headline, passed = experiment.handler(
        config["instance"], config.get("tolerances", {}), **params)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "report.csv", columns, rows)
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    summary = {
        "experiment": name,
        "version": __version__,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "pass": bool(passed),
        **headline,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2, default=_json_default) + "\n")
    return 0 if passed else 2


def list_experiments() -> str:
    blocks = []
    for e in EXPERIMENTS.values():
        schema = json.dumps(e.instance_schema, sort_keys=True, separators=(",", ":"))
        blocks.append(f"{e.name}\n  {e.description}\n  anchor: {e.anchor}"
                      f"\n  instance schema: {schema}")
    return "\n\n".join(blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capdual",
        description="capacity-duality experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config", type=Path)
    runp.add_argument("--out", type=Path, default=None,
                      help="output directory (default: config 'output' or ./capdual-out)")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    sub.add_parser("list", help="list experiments, schemas, and anchors")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_experiments())
        return 0
    try:
        config = _load_config(args.config, args.seed)
        out_dir = args.out or Path(config.get("output", "capdual-out"))
        return run(config, out_dir)
    except (ConfigError, ValueError, TypeError, RuntimeError, MemoryError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
