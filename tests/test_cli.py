import contextlib
import io
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from capdual import capacity, cli, projection, scaling
from capdual.core import fraction_log
from capdual.cli import main
from capdual.haarmc import (BLOCK, UnitaryOrbitVector, mc_invariant_norm,
                            mc_isotypic_norm)


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body, indent=1))
    return path


def duality_config(out_dir, k_max=200, min_ratio=0.98):
    return {
        "experiment": "duality",
        "instance": {
            "vector": {"n": 1, "terms": [
                {"weight": [0], "amplitude": 0.7071067811865476},
                {"weight": [1], "amplitude": 0.7071067811865476}]},
            "theta": ["1/2"],
        },
        "k_max": k_max,
        "tolerances": {"min_final_ratio": min_ratio},
        "output": str(out_dir),
    }


def test_run_duality_passes(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "d.json", duality_config(out))
    assert main(["run", str(cfg)]) == 0
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "k,log_norm_sq_ln,rate_ln,log_cap_sq_ln,gap_ln"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["experiment"] == "duality"
    assert 0.985 <= summary["final_ratio"] <= 1.0
    assert summary["min_gap"] >= 0
    # the truncation floor's total removed mass bounds the error of every row
    assert 0 <= summary["dropped_mass"] < 1e-9
    assert len(summary["config_sha256"]) == 64
    # theta = 1/2 is the moment map of v, so Newton starts at its minimiser
    assert summary["status"] == "converged" and summary["iterations"] == 0


def test_run_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, "d.json",
                       duality_config(out1, k_max=40, min_ratio=0.9))
    assert main(["run", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_duality_stream_counters_are_byte_identical(tmp_path):
    # the row stream's counters are deterministic, so they belong in
    # summary.json next to dropped_mass
    cfg = duality_config(tmp_path / "a", k_max=300, min_ratio=0.9)
    cfg["instance"] = {
        "vector": {"n": 2, "terms": [
            {"weight": w, "amplitude": 0.5}
            for w in ([1, 0], [-1, 0], [0, 1], [0, -1])]},
        "theta": ["1/2", "0"]}
    path = write_config(tmp_path, "d.json", cfg)
    assert main(["run", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "summary.json").read_bytes()
    assert first == (tmp_path / "b" / "summary.json").read_bytes()
    summary = json.loads(first)
    assert 0 < summary["crops"] < 300
    assert summary["max_row_cells"] > 1
    assert 0 <= summary["dropped_mass"] < 1e-9


def test_tolerance_failure_exits_2(tmp_path):
    out = tmp_path / "out"
    # at k_max = 20 the normalized root is still far below 0.999
    cfg = write_config(tmp_path, "d.json",
                       duality_config(out, k_max=20, min_ratio=0.999))
    assert main(["run", str(cfg)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False


def test_prefactor_with_k_max_and_ks_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "p.json", {
        "experiment": "prefactor",
        "instance": {"vector": {"n": 1, "terms": [
            {"weight": [-1], "amplitude": 0.7071067811865476},
            {"weight": [1], "amplitude": 0.7071067811865476}]}},
        "k_max": 20,
        "ks": [10, 20],
        "output": str(out),
    })
    assert main(["run", str(cfg)]) == 1
    assert "not both" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_experiment_exits_1_without_files(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "bad.json",
                       {"experiment": "frobnicate", "instance": {},
                        "output": str(out)})
    assert main(["run", str(cfg)]) == 1
    assert "frobnicate" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "duality",\n  "instance": oops}')
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    assert "column" in err


def test_schema_violation_names_json_path(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {
        "experiment": "duality",
        "instance": {"vector": {"n": 1, "terms": []}, "theta": ["1/2"]},
        "k_max": 10,
    })
    assert main(["run", str(cfg)]) == 1
    assert "$.instance.vector.terms: " in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    {"experiment": "frobnicate", "instance": {}},
    {"experiment": "duality", "instance": {}, "k_max": 0, "extra": 1},
    {"instance": {}},
    {"experiment": "duality",
     "instance": {"vector": {"n": 1, "terms": []}, "theta": ["1/2"]}},
    {"experiment": "perm-dual", "instance": {"matrix": [[1, "x"]], "r": [1], "c": []}},
    {"experiment": "laurent", "instance": {"terms": [[1, 1]]},
     "tolerances": {"cap_match_tol": "tight"}},
    {"experiment": "duality", "instance": {"vector": {"n": 1, "terms": [
        {"weight": [0], "amplitude": 1.0}]}, "theta": ["1/2"]},
     "tolerances": {"min_final_ratio": 1, "nope": 2}},
    {"experiment": "capacity", "instance": {"vector": {"n": 1, "terms": [
        {"weight": [0], "amplitude": 1.0}]}, "theta": ["0"]}, "samples": 10},
    {"experiment": "prefactor", "instance": {"vector": {"n": 1, "terms": []}},
     "ks": [0], "tolerances": {"abs_tol": 1e-3}},
    [],
])
def test_schema_errors_match_jsonschema_validate(tmp_path, body):
    # the prebuilt validators report the error jsonschema.validate reports:
    # first on the name, then on the experiment's whole schema
    path = write_config(tmp_path, "bad.json", body)
    try:
        jsonschema.validate(body, cli.NAME_SCHEMA)
        jsonschema.validate(body, cli.EXPERIMENTS[body["experiment"]].schema)
    except jsonschema.ValidationError as exc:
        want = f"{path}: {exc.json_path}: {exc.message}"
    with pytest.raises(cli.ConfigError) as got:
        cli._load_config(path)
    assert str(got.value) == want


BIT = {"n": 1, "terms": [{"weight": [0], "amplitude": 0.6},  # 0.6 e0 + 0.8 e1
                         {"weight": [1], "amplitude": 0.8}]}
PLUS_MINUS = {"n": 1, "terms": [{"weight": [-1], "amplitude": 0.7071067811865476},
                                {"weight": [1], "amplitude": 0.7071067811865476}]}

# One valid config per experiment, and the top-level parameters its handler
# reads; every other parameter is accepted by no experiment's schema.
MINIMAL = {
    "duality": {"instance": {"vector": BIT, "theta": ["1/2"]}, "k_max": 4},
    "prefactor": {"instance": {"vector": PLUS_MINUS}, "k_max": 4},
    "perm-dual": {"instance": {"matrix": [[1, 2], [3, 4]], "r": ["1/2", "1/2"],
                               "c": ["1/2", "1/2"]}, "k_max": 4},
    "schur-weyl-ldp": {"instance": {"q": ["3/4", "1/4"], "theta": ["3/5", "2/5"]},
                       "k_max": 5},
    "duffield-ldp": {"instance": {"weights": [-1, 1], "theta": "1/2"}, "k_max": 4},
    "mc-check": {"instance": {"cases": [{"group": "su2", "k": 2, "lam": 2,
                                         "amplitudes": [1.0, 0.0]}]},
                 "samples": 1000, "seed": 1},
    "capacity": {"instance": {"vector": BIT, "theta": ["1/4"]}},
    "laurent": {"instance": {"terms": [[1, 1], [-1, 4]]}, "k_max": 4},
}
READS = {"duality": {"k_max"}, "prefactor": {"k_max", "ks"}, "perm-dual": {"k_max"},
         "schur-weyl-ldp": {"k_max"}, "duffield-ldp": {"k_max"},
         "mc-check": {"samples", "seed"}, "capacity": set(), "laurent": {"k_max"}}
PARAM_VALUES = {"k_max": 4, "ks": [2], "samples": 100, "seed": 1}
UNREAD = [(name, key) for name in MINIMAL for key in PARAM_VALUES
          if key not in READS[name]]


def minimal_config(name, out_dir):
    return {"experiment": name, **MINIMAL[name], "output": str(out_dir)}


def test_minimal_configs_cover_every_experiment(tmp_path):
    assert list(MINIMAL) == list(cli.EXPERIMENTS)
    assert len(UNREAD) == 23
    for name in MINIMAL:
        out = tmp_path / name
        cfg = write_config(tmp_path, f"{name}.json", minimal_config(name, out))
        assert main(["run", str(cfg)]) in (0, 2), name
        assert json.loads((out / "summary.json").read_text())["experiment"] == name


@pytest.mark.parametrize("name, key", UNREAD, ids=[f"{n}-{k}" for n, k in UNREAD])
def test_unread_parameter_exits_1_at_its_path(tmp_path, capsys, name, key):
    out = tmp_path / "out"
    body = {**minimal_config(name, out), key: PARAM_VALUES[key]}
    cfg = write_config(tmp_path, "c.json", body)
    assert main(["run", str(cfg)]) == 1
    assert f": $.{key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, tolerances, needs", [
    ("prefactor", {"abs_tol": 1e-30}, "target"),
    ("prefactor", {"cauchy_rel_tol": 1e-30}, "cauchy_window"),
    ("schur-weyl-ldp", {"strict_decrease": True}, "difference_pins"),
], ids=["abs_tol", "cauchy_rel_tol", "strict_decrease"])
def test_qualifier_without_its_field_exits_1(tmp_path, capsys, name, tolerances, needs):
    out = tmp_path / "out"
    body = {**minimal_config(name, out), "tolerances": tolerances}
    cfg = write_config(tmp_path, "c.json", body)
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f": $.tolerances: {needs!r} is a dependency of " in err
    assert not out.exists()


def test_seed_override_is_validated(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cap.json", minimal_config("capacity", out))
    assert main(["run", str(cfg), "--seed", "3"]) == 1
    assert ": $.seed: " in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", str(cfg)]) == 0


@pytest.mark.parametrize("name, module", [
    ("duality", projection), ("perm-dual", scaling), ("capacity", cli),
    ("laurent", cli)])
def test_capacity_stopped_at_max_iter_fails(tmp_path, monkeypatch, name, module):
    # every experiment that reads a capacity solve reports how it stopped,
    # and none passes on a solve that stopped at max_iter; the tolerances are
    # loose enough that the one-step solve meets them, so only its status
    # fails the run
    out = tmp_path / "out"
    body = minimal_config(name, out)
    body["tolerances"] = {"duality": {"min_final_ratio": 0.5},
                          "capacity": {"cross_check_tol": 1e-3},
                          "laurent": {"cap_match_tol": 1.0}}.get(name, {})
    cfg = write_config(tmp_path, "c.json", body)
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged" and summary["iterations"] > 1
    solve = capacity.theta_capacity
    monkeypatch.setattr(module, "theta_capacity",
                        lambda v, theta: solve(v, theta, max_iter=1))
    assert main(["run", str(cfg)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "max_iter" and summary["iterations"] == 1
    assert summary["pass"] is False


def test_laurent_reports_a_status_only_when_it_solves(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "l.json", minimal_config("laurent", out))
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "status" not in summary and "iterations" not in summary


def test_readme_config_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"A minimal config:\s*```json\n(.*?)```", readme, re.S)
    cfg = tmp_path / "readme.json"
    cfg.write_text(block.group(1))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_duplicate_weight_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "dup.json", {
        "experiment": "duality",
        "instance": {
            "vector": {"n": 1, "terms": [
                {"weight": [1], "amplitude": 1.0},
                {"weight": [1], "amplitude": 0.5}]},
            "theta": ["1/2"],
        },
        "k_max": 10,
    })
    assert main(["run", str(cfg)]) == 1
    assert "duplicate weight" in capsys.readouterr().err


def test_list_is_stable_and_anchored(capsys):
    assert main(["list"]) == 0
    first = capsys.readouterr().out
    assert main(["list"]) == 0
    second = capsys.readouterr().out
    assert first == second
    names = [line for line in first.splitlines()
             if line and not line.startswith("  ")]
    assert names == list(cli.EXPERIMENTS)
    assert "duality" in names
    assert "Theorem" in first
    assert "Kempf-Ness" in first
    assert "Keyl-Werner" in first


def test_seed_override_changes_hash(tmp_path):
    out = tmp_path / "out"
    body = {
        "experiment": "mc-check",
        "instance": {"cases": [
            {"group": "su2", "k": 2, "lam": 2,
             "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}]},
        "samples": 20000,
        "seed": 5,
        "output": str(out),
    }
    cfg = write_config(tmp_path, "mc.json", body)
    assert main(["run", str(cfg)]) == 0
    base = json.loads((out / "summary.json").read_text())
    assert main(["run", str(cfg), "--seed", "6"]) == 0
    overridden = json.loads((out / "summary.json").read_text())
    assert base["config_sha256"] != overridden["config_sha256"]


def test_capacity_experiment_row(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cap.json", {
        "experiment": "capacity",
        "instance": {
            "vector": {"n": 1, "terms": [
                {"weight": [0], "amplitude": 0.7071067811865476},
                {"weight": [1], "amplitude": 0.7071067811865476}]},
            "theta": ["1/4"],
        },
        "output": str(out),
    })
    assert main(["run", str(cfg)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the single summary row
    first = (out / "summary.json").read_text()
    summary = json.loads(first)
    assert summary["cross_check_diff"] <= 1e-8
    assert summary["status"] == "converged" and summary["iterations"] > 0
    assert main(["run", str(cfg)]) == 0
    assert (out / "summary.json").read_text() == first


def test_capacity_experiment_outside_target(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cap.json", {
        "experiment": "capacity",
        "instance": {
            "vector": {"n": 1, "terms": [{"weight": [0], "amplitude": 0.6},
                                         {"weight": [1], "amplitude": 0.8}]},
            "theta": [2],
        },
        "output": str(out),
    })
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "outside" and summary["inside"] is False
    header, row = (out / "report.csv").read_text().splitlines()
    assert header.endswith(",inside") and row.endswith(",false")


def test_capacity_search_counters_are_byte_identical(tmp_path):
    # the face search's LP and pivot counts, the face dimension and how
    # Newton stopped are deterministic, so they belong in summary.json; the
    # second run searches again instead of reading the face cache. The LP
    # and pivot counts are pinned: a kept phase 1 still counts its pivots.
    cfg = {"experiment": "capacity",
           "instance": {"vector": {"n": 2, "terms": [
               {"weight": w, "amplitude": a} for w, a in (
                   ([0, 0], 0.6), ([2, 1], 1.0), ([4, 2], 0.5), ([0, 2], 0.7), ([3, 3], 0.9))]},
               "theta": ["1", "1/2"]},
           "output": str(tmp_path / "a")}
    path = write_config(tmp_path, "cap.json", cfg)
    assert main(["run", str(path)]) == 0
    capacity._face_search.cache_clear()
    assert main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "summary.json").read_bytes()
    assert first == (tmp_path / "b" / "summary.json").read_bytes()
    summary = json.loads(first)
    assert summary["face_dim"] == 1  # theta lies on the edge {(0,0), (2,1), (4,2)}
    assert summary["face_lps"] == 3 and summary["face_pivots"] == 16
    assert summary["diverging"] is True
    assert summary["status"] == "converged" and summary["iterations"] > 0
    assert 0 <= summary["gradient_norm"] <= 1e-10


def test_duffield_non_character_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "duf.json", {
        "experiment": "duffield-ldp",
        "instance": {"weights": [-1, -1], "theta": 0},
        "k_max": 3,
        "output": str(out),
    })
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "not a character" in err and "not symmetric" in err
    assert not out.exists()


def test_laurent_exact_column(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "l.json", {
        "experiment": "laurent",
        "instance": {"terms": [[1, "1/2"], [-1, "1/2"]]},
        "k_max": 6,
        "output": str(out),
    })
    assert main(["run", str(cfg)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0].endswith("cst_exact")
    # row k=4: cst((z/2+1/(2z))^4) = 6/16 = 3/8 held exactly
    k4 = [ln for ln in lines[1:] if ln.startswith("4,")][0]
    assert k4.endswith("3/8")


def test_laurent_past_the_float_range(tmp_path):
    # cst (z + 1/z)^k = C(k, k/2) passes the float range near k = 1030
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "walk.json", {
        "experiment": "laurent",
        "instance": {"terms": [[1, 1], [-1, 1]]},
        "k_max": 2000,
        "output": str(out),
    })
    assert main(["run", str(cfg)]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    k, re, im, root, exact = lines[-1].split(",")
    assert (k, re, im) == ("2000", "inf", "0.0000000000000000e+00")
    assert round(float(root), 4) == 1.9960
    assert json.loads((out / "summary.json").read_text())["final_root"] == float(root)
    assert int(exact) == math.comb(2000, 1000)
    k, re, im, root, exact = lines[1000].split(",")  # still within range
    assert k == "1000" and float(re) == float(math.comb(1000, 500))
    # (z/4 + 1/(4z))^k: cst = C(k, k/2) / 4^k underflows near k = 1075
    cfg = write_config(tmp_path, "quarter.json", {
        "experiment": "laurent",
        "instance": {"terms": [[1, "1/4"], [-1, "1/4"]]},
        "k_max": 1100,
        "output": str(out),
    })
    assert main(["run", str(cfg)]) == 0
    k, re, im, root, exact = (out / "report.csv").read_text().splitlines()[-1].split(",")
    assert float(re) == 0.0 and Fraction(exact) == Fraction(math.comb(1100, 550), 4**1100)
    assert float(root) == pytest.approx(
        math.exp((math.log(math.comb(1100, 550)) - 1100 * math.log(4)) / 1100), rel=1e-14)



def test_laurent_monomial_has_no_critical_point(tmp_path):
    # every cst (c z^e)^k, k >= 1, is 0, and c z^e has no critical point on C*
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "mono.json", {
        "experiment": "laurent",
        "instance": {"terms": [[1, 1]]},
        "k_max": 3,
        "output": str(out),
    })
    assert main(["run", str(cfg)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_critical_modulus"] == 0.0
    assert summary["critical_values"] == []
    assert summary["final_root"] == 0.0

MC_INSTANCES = {
    "torus": {"vector": {"n": 1, "terms": [{"weight": [-1], "amplitude": "3/5"},
                                           {"weight": [1], "amplitude": "4/5"}]}},
    "su2": {"amplitudes": ["3/5", [0.0, 0.8]]},
    "u2": {"matrix": [["3/5", 0], [0, "4/5"]]},
}


def mc_config(out_dir, group, k, lam, samples=20_000):
    case = {"group": group, "k": k, "lam": lam, **MC_INSTANCES[group]}
    return {"experiment": "mc-check", "instance": {"cases": [case]},
            "samples": samples, "seed": 3, "output": str(out_dir)}


def test_mc_check_counters_are_byte_identical(tmp_path):
    # each case's seed and block count are deterministic, so they go into
    # report.csv and summary.json; row[6] stays the exact value
    cfg = mc_config(tmp_path / "a", "su2", 2, 2, samples=BLOCK + 1)
    cfg["instance"]["cases"].append({"group": "u2", "k": 2, "lam": [1, 1],
                                     **MC_INSTANCES["u2"]})
    path = write_config(tmp_path, "mc.json", cfg)
    assert main(["run", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
    for name in ("summary.json", "report.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    assert json.loads((tmp_path / "a" / "summary.json").read_text())["blocks"] == [2, 2]
    lines = (tmp_path / "a" / "report.csv").read_text().splitlines()
    assert lines[0].endswith(",exact,abs_error,sigmas,within_tolerance,seed,blocks")
    assert [line.split(",")[-2:] for line in lines[1:]] == [["3", "2"], ["4", "2"]]
    assert float(lines[2].split(",")[6]) == pytest.approx(144 / 625, rel=1e-12)


@pytest.mark.parametrize("group", ["su2", "u2"])
def test_mc_empty_label_is_an_input_error(tmp_path, capsys, group):
    cfg = write_config(tmp_path, "mc.json", mc_config(tmp_path / "out", group, 2, []))
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_mc_u2_rational_string_matrix(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "mc.json", mc_config(out, "u2", 2, [1, 1]))
    assert main(["run", str(cfg)]) == 0
    row = (out / "report.csv").read_text().splitlines()[1].split(",")
    # f^(1,1) s_(1,1)(16/25, 9/25) = 144/625
    assert float(row[6]) == pytest.approx(144 / 625, rel=1e-12)


@pytest.mark.parametrize("group, label, parts, exact", [
    ("u2", 2, [2, 0], 481 / 625),  # h_2(16/25, 9/25)
    ("torus", 2, [2], 256 / 625),  # |(4/5)^2|^2, the weight-2 term of v^{tensor 2}
], ids=["u2", "torus"])
def test_mc_integer_label_means_one_row(tmp_path, group, label, parts, exact):
    reports = []
    for name, lam in (("int", label), ("list", parts)):
        out = tmp_path / name
        cfg = write_config(tmp_path, f"{name}.json", mc_config(out, group, 2, lam))
        assert main(["run", str(cfg)]) == 0
        reports.append((out / "report.csv").read_text())
    assert reports[0] == reports[1]
    assert float(reports[0].splitlines()[1].split(",")[6]) == pytest.approx(exact)


@pytest.mark.parametrize("group, lam", [
    ("u2", [10**30, 5]),  # |lambda| != k
    ("u2", [3, -1]),      # a negative part
    ("u2", None),         # the invariant part: the trivial label (0, 0)
    ("su2", 10**30),      # highest weight above k
    ("su2", 1),           # highest weight of the wrong parity
], ids=["u2-size", "u2-negative-part", "u2-invariant", "su2-above-k", "su2-parity"])
def test_mc_labels_absent_from_the_tensor_power_give_exact_zero(tmp_path, group, lam):
    data = ((0.6, 0.8j) if group == "su2" else ((0.6, 0), (0, 0.8)))
    inst = UnitaryOrbitVector(group, data)
    est = (mc_invariant_norm(inst, 2, samples=1000, seed=3) if lam is None else
           mc_isotypic_norm(inst, 2, lam, samples=1000, seed=3))
    assert (est.mean, est.stderr) == (0, 0)
    cfg = write_config(tmp_path, "mc.json", mc_config(tmp_path / "out", group, 2, lam))
    assert main(["run", str(cfg)]) == 0


_LABELS = st.none() | st.integers() | st.lists(st.integers(), max_size=3)


@pytest.mark.parametrize("group", sorted(MC_INSTANCES))
@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 3), lam=_LABELS)
def test_mc_schema_valid_labels_never_crash(group, k, lam):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), "mc.json", mc_config(Path(tmp) / "out", group, k,
                                                            lam, samples=64))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(cfg)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_schur_weyl_ldp_keeps_the_spectrum_exact(tmp_path):
    # q2 = 1/1000003 has a denominator past 10^6, where a float spectrum
    # would be rationalized to (999999, 1)/10^6
    q = [Fraction(1000002, 1000003), Fraction(1, 1000003)]
    cfg = write_config(tmp_path, "sw.json", {
        "experiment": "schur-weyl-ldp", "k_max": 3,
        "instance": {"q": [str(t) for t in q], "theta": ["2/3", "1/3"]}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
    log_p = float(rows[3].split(",")[1])
    # k = 3 rounds to lambda = (2, 1): P = f^(2,1) s_(2,1)(q) = 2 q1 q2 (q1 + q2)
    assert log_p == fraction_log(2 * q[0] * q[1] * (q[0] + q[1])).log_mag
    assert log_p == -13.122367377397328


def test_schur_weyl_ldp_rejects_a_spectrum_off_the_simplex(tmp_path, capsys):
    cfg = write_config(tmp_path, "sw.json", {
        "experiment": "schur-weyl-ldp", "k_max": 3,
        "instance": {"q": ["3/5", "3/5"], "theta": ["3/4", "1/4"]}})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "spectrum sums to 1.2, not 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
