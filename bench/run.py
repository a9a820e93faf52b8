"""capdual benchmark: one workload per process, timed against a reference kernel.

    python3 bench/run.py --workload capacity-sweep --seed 1 --seconds 30 --trace 0

Set-up (imports, input generation from the seed, a warm-up pass) is timed
here and again in four child processes, each time divided by the reference
kernel's time right after it and multiplied by R0; setup_s is the median of
the five.
The run then repeats whole rounds of the workload's tasks until --seconds
have passed. The reference kernel runs before the first task and after
every task; each task's wall time is divided by the median kernel time of
the REF_WINDOW kernel runs nearest to it. cal_s is R0 times the sum over tasks of each task's median
ratio across rounds: the time of one round at a fixed machine speed. Every
output of every round is checked (checks.py).

With --trace 1, untraced and traced rounds alternate. The traced rounds give
the per-layer metrics (tracing.py) and the tracing overhead, traced minus
untraced cal_s; spans are written to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 when the run finished,
also when a check failed (correct is then false), and 2 when capdual cannot
be imported from the checkout's src/ directory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
REF_WINDOW = 6
PROBE_TIMEOUT_S = 60


def _import_capdual() -> None:
    """Import capdual from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import capdual
    except ImportError as exc:
        print(f"error: cannot import capdual from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(capdual.__file__).resolve().parent.parent != src:
        print(f"error: capdual came from {capdual.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _setup(workload: str, seed: int, run_dir: Path):
    """Imports, inputs and warm-up; returns the workload."""
    _import_capdual()
    import workloads  # imports capdual's modules, cli and jsonschema included
    run_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.BUILDERS[workload](seed, run_dir)
    for call in wl.warmup:
        call()
    return wl


def _run_task(task) -> tuple[float, list]:
    outputs = []
    t0 = time.perf_counter()
    for call in task.calls:
        try:
            outputs.append(call())
        except Exception as exc:  # a failed operation is counted, not fatal
            # Without its traceback the exception holds no frames, so the
            # round's outputs are freed when the round ends.
            outputs.append(exc.with_traceback(None))
    return time.perf_counter() - t0, outputs


def _judge(task, outputs: list) -> tuple[int, list[str]]:
    """(failed operations, problems) for one task's outputs."""
    errors = [o for o in outputs if isinstance(o, Exception)]
    if not errors:
        return 0, task.check(outputs)
    known = task.known_fault
    probs = [f"{task.name}: unexpected {type(e).__name__}: {e}"
             for e in errors if known is None or not isinstance(e, known)]
    return len(errors), probs


def _round(wl, time_reference) -> tuple[list[float], list[float], list[float], int, list[str]]:
    """One round: (ratios, raw task seconds, kernel seconds, failed, problems).

    Task i runs between kernel runs i and i+1; its ratio divides by the
    median of the REF_WINDOW kernel runs nearest to it, which follows drift
    in machine speed but not a single preempted kernel run.
    """
    raws, refs = [], [time_reference()]
    results = []
    for task in wl.tasks:
        wall, outputs = _run_task(task)
        refs.append(time_reference())
        raws.append(wall)
        results.append(outputs)
    half = REF_WINDOW // 2
    ratios = []
    for i, wall in enumerate(raws):
        lo = max(0, min(i + 1 - half, len(refs) - REF_WINDOW))
        ratios.append(wall / statistics.median(refs[lo:lo + REF_WINDOW]))
    failed, probs = 0, []
    for task, outputs in zip(wl.tasks, results):
        f, p = _judge(task, outputs)
        failed += f
        probs += p
    return ratios, raws, refs, failed, probs


def _sum_of_medians(per_round: list[list[float]]) -> float:
    return sum(statistics.median(col) for col in zip(*per_round))


def _calibrated_setup(setup_wall: float) -> float:
    """Set-up seconds at the kernel's nominal speed, from kernel runs made
    right after set-up in the same process."""
    from refkernel import R0, reference_kernel, time_reference
    reference_kernel()
    ref = statistics.median(time_reference() for _ in range(REF_WINDOW))
    return setup_wall / ref * R0


def _probe_setups(args) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("capacity-sweep", "duality-growth", "families"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print it (used by the benchmark itself)")
    args = ap.parse_args(argv)

    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        wl = _setup(args.workload, args.seed, run_dir)
        setup_s = _calibrated_setup(time.perf_counter() - T_START)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + _probe_setups(args)

        from refkernel import R0, time_reference
        tracer = None
        if args.trace:
            import tracing  # imports scipy.signal, so only in traced runs
            tracer = tracing.Tracer()
        plain, traced, raw_plain, refs_all = [], [], [], []
        failed = rounds = 0
        problems: list[str] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            trace_this = tracer is not None and rounds % 2 == 1
            if trace_this:
                tracer.install()
            try:
                ratios, raws, refs, f, probs = _round(wl, time_reference)
            finally:
                if trace_this:
                    tracer.uninstall()
            rounds += 1
            failed += f
            problems += probs
            refs_all += refs
            if trace_this:
                traced.append(ratios)
            else:
                plain.append(ratios)
                raw_plain.append(raws)
            if time.perf_counter() >= deadline and (tracer is None or traced):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    cal_s = R0 * _sum_of_medians(plain)
    wall_s = _sum_of_medians(raw_plain)
    ref_ms = 1e3 * statistics.median(refs_all)
    if tracer is None:
        metrics = {
            "cal_s": (cal_s, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = tracer.layer_metrics(len(traced))
        metrics["bench.wall_s"] = (wall_s, "s")
        metrics["bench.ref_ms"] = (ref_ms, "ms")
        metrics["bench.trace_overhead_s"] = (R0 * _sum_of_medians(traced) - cal_s, "s")
        tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    for p in problems[:20]:
        print(f"CHECK FAILED {p}")
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds "
          f"({len(plain)} untraced), {len(wl.tasks)} tasks and {wl.ops} operations a round; "
          f"raw wall {wall_s:.4f} s a round, reference kernel {ref_ms:.4f} ms, "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, (value, unit) in metrics.items():
        note = " (computed)" if name in ("projection.dp_cells", "projection.table_bytes") else ""
        print(f"  {name:32s} {value:16.6f} {unit}{note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * wl.ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
