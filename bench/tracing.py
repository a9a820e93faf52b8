"""Per-layer tracing from the benchmark's side of the module boundary.

`Tracer.install()` replaces every public function of each capdual module
(and every name another capdual module imported it under, such as
`capdual.capacity.simplex_max`) with a wrapper that records a span: name,
start, end and the enclosing span. It also counts `scipy.signal.fftconvolve`
calls, which `projection._row_conv` imports at every call. Spans stay in
memory and are written out once, at the end of the run. A layer's self time
is the time in its functions minus the time in wrapped functions they call.

Results of some calls carry work counts (Newton iterations, Sinkhorn sweeps,
contingency tables, Monte Carlo samples); the tracer reads those from the
returned objects. DP cells and table bytes are computed from the weight
extents and k, not measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.signal

from capdual import capacity, cli, exactlp, haarmc, projection, scaling, spectrum

LAYERS = {"exactlp": exactlp, "capacity": capacity, "projection": projection,
          "scaling": scaling, "spectrum": spectrum, "haarmc": haarmc, "cli": cli}


def _public_functions(mod) -> dict[str, object]:
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(mod, name)
        if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(obj)):
            out[name] = obj
    return out


def _extent_cells(v, k_max: int) -> tuple[int, int]:
    """(sum over k <= k_max of the DP box size, box size at k_max)."""
    W = np.array([w.coords for w in v.pruned().support], dtype=np.int64)
    ext = W.max(axis=0) - W.min(axis=0)
    sizes = [int(np.prod(k * ext + 1)) for k in range(1, k_max + 1)]
    return sum(sizes), sizes[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.solve_ms: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals = {f"{layer}.{name}": fn for layer, mod in LAYERS.items()
                           for name, fn in _public_functions(mod).items()}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "capdual" or n.startswith("capdual.")]
        for qual, fn in self._originals.items():
            wrapper = self._wrap(qual, fn)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        orig = scipy.signal.fftconvolve

        @functools.wraps(orig)
        def fftconvolve(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.counts["fft_convs"] += 1
            self.counts["fft_points"] += out.size
            return out

        self._patched.append((scipy.signal, "fftconvolve", orig))
        scipy.signal.fftconvolve = fftconvolve

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, qual: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [len(self.spans), 0.0]  # index, time in child spans
            self.spans.append((qual, 0.0, 0.0, parent[0] if parent else -1))
            self._stack.append(span)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                self.spans[span[0]] = (qual, t0, t1, self.spans[span[0]][3])
                if parent is not None:
                    parent[1] += dur
                self.calls[qual] += 1
                self.incl[qual] += dur
                self.self_time[qual] += dur - span[1]
            self._observe(qual, sig, args, kwargs, out, dur)
            return out

        return wrapper

    def _observe(self, qual, sig, args, kwargs, out, dur) -> None:
        c = self.counts
        if qual == "capacity.theta_capacity":
            c["newton_iters"] += out.iterations
            c["max_iter_hits"] += out.iterations >= capacity.MAX_ITER
            self.solve_ms.append(dur * 1e3)
        elif qual in ("projection.duality_report", "projection.projection_norm_table"):
            bound = sig.bind(*args, **kwargs).arguments
            cells, last = _extent_cells(bound["v"], bound["k_max"])
            c["dp_cells"] += cells
            held = cells if qual.endswith("table") else last
            c["table_bytes"] = max(c["table_bytes"], 8 * held)
        elif qual == "scaling.sinkhorn_scale":
            c["sinkhorn_sweeps"] += out.iterations
        elif qual == "scaling.perm_rc_exact":
            c["perm_tables"] += out.table_count
        elif qual == "spectrum.ldp_report":
            c["ldp_rows"] += len(out.rows)
        elif qual.startswith("haarmc.mc_"):
            c["mc_samples"] += out.samples

    # -- results -------------------------------------------------------------

    def _sum(self, table, *names) -> float:
        return sum(table.get(n, 0.0) for n in names)

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round per-layer metrics from `rounds` traced rounds."""
        c, s, inc = self.counts, self.self_time, self.incl
        per = 1.0 / rounds
        ms = 1e3 * per
        sweeps = c["sinkhorn_sweeps"]
        samples = c["mc_samples"]
        mc_time = self._sum(inc, "haarmc.mc_invariant_norm", "haarmc.mc_isotypic_norm")
        solves = sorted(self.solve_ms)
        p50 = statistics.median(solves) if solves else 0.0
        p90 = statistics.quantiles(solves, n=10)[-1] if len(solves) >= 2 else p50
        cli_self = sum(v for k, v in s.items() if k.startswith("cli."))
        return {
            "exactlp.solves": (self.calls["exactlp.simplex_max"] * per, "count"),
            "exactlp.ms": (inc["exactlp.simplex_max"] * ms, "ms"),
            "capacity.solves": (self.calls["capacity.theta_capacity"] * per, "count"),
            "capacity.newton_iters": (c["newton_iters"] * per, "count"),
            "capacity.max_iter_hits": (c["max_iter_hits"] * per, "count"),
            "capacity.newton_ms": (s["capacity.theta_capacity"] * ms, "ms"),
            "capacity.kl_ms": (s["capacity.capacity_kl_form"] * ms, "ms"),
            "capacity.solve_p50_ms": (p50, "ms"),
            "capacity.solve_p90_ms": (p90, "ms"),
            "projection.report_ms": (s["projection.duality_report"] * ms, "ms"),
            "projection.prefactor_ms": (s["projection.prefactor_sequence"] * ms, "ms"),
            "projection.table_ms": (s["projection.projection_norm_table"] * ms, "ms"),
            "projection.laurent_ms": (self._sum(s, "projection.laurent_cst_power",
                                                "projection.critical_values") * ms, "ms"),
            "projection.dp_cells": (c["dp_cells"] * per, "count"),
            "projection.table_bytes": (c["table_bytes"], "bytes"),
            "projection.fft_convs": (c["fft_convs"] * per, "count"),
            "projection.fft_points": (c["fft_points"] * per, "count"),
            "scaling.sinkhorn_sweeps": (sweeps * per, "count"),
            "scaling.sinkhorn_us_per_sweep": (
                inc["scaling.sinkhorn_scale"] / sweeps * 1e6 if sweeps else 0.0, "us"),
            "scaling.perm_ms": (self._sum(s, "scaling.perm_rc_exact",
                                          "scaling.perm_dual_report") * ms, "ms"),
            "scaling.perm_tables": (c["perm_tables"] * per, "count"),
            "spectrum.ldp_ms": (s["spectrum.ldp_report"] * ms, "ms"),
            "spectrum.ldp_rows": (c["ldp_rows"] * per, "count"),
            "spectrum.measure_ms": (s["spectrum.schur_weyl_measure"] * ms, "ms"),
            "haarmc.samples": (samples * per, "count"),
            "haarmc.ns_per_sample": (mc_time / samples * 1e9 if samples else 0.0, "ns"),
            "cli.runs": (self.calls["cli.main"] * per, "count"),
            "cli.self_ms": (cli_self * ms, "ms"),
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
