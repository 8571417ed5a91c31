"""bellbound benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sourceop-ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json with
tracing off.  ``--trace 1`` runs every cycle twice, untraced and then traced,
and reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  ``--smoke`` runs one tiny cycle of the workload, for the
benchmark's own test.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for setup_s, whose median is reported: at least
#: SETUP_MIN, then more while they have taken under SETUP_BUDGET_S, up to
#: SETUP_MAX.  Light set-ups (~0.2 s) get many samples, heavy ones five.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 11, 3.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one tiny cycle per run")
    p.add_argument("--setup-probe", action="store_true",
                   help="import and warm up only; used to time setup_s")
    return p.parse_args(argv)


def closed_loop(wl, tracers: list, budget: float, n_cycles: int | None = None) -> dict:
    """One client, whole cycles: the next job starts when the previous one ends.

    A new cycle starts only if the last cycle's duration still fits in the
    budget (always at least one), unless ``n_cycles`` fixes the count.  With
    several tracers each cycle runs once under each, back to back, so a slow
    spell of the machine hits every pass alike.  Job times, outcomes and jobs
    are those of the last tracer's pass; ``walls`` holds one total per tracer.
    """
    from workloads import Outcome

    times, outcomes, jobs = [], [], []
    walls = [0.0] * len(tracers)
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        c0 = time.perf_counter()
        for i, tracer in enumerate(tracers):
            p0 = time.perf_counter()
            for job in wl.cycle(k):
                tracer.job_id += 1
                with tracer.span("harness.job"):
                    t0 = time.perf_counter()
                    try:
                        out = wl.execute(job, tracer)
                    except Exception as exc:  # a failed job is counted, not fatal
                        out, error = None, exc
                    else:
                        error = None
                    t1 = time.perf_counter()
                    if error is None:
                        outcome = wl.check(job, out)
                    else:
                        outcome = Outcome(False, note=f"{type(error).__name__}: {error}")
                attempted += 1
                if not outcome.ok:
                    failed += 1
                    print(f"job {attempted} failed: {outcome.note}", file=sys.stderr)
                if i == len(tracers) - 1:
                    times.append(t1 - t0)
                    outcomes.append(outcome)
                    jobs.append(job)
            walls[i] += time.perf_counter() - p0
        k += 1
        now = time.perf_counter()
        if n_cycles is not None:
            if k >= n_cycles:
                break
        elif now - start + (now - c0) > budget:
            break
    return {"times": times, "outcomes": outcomes, "jobs": jobs, "cycles": k,
            "walls": walls, "attempted": attempted, "failed": failed}


def time_setup(name: str, smoke: bool) -> list[float]:
    """Wall time of fresh interpreters that import bellbound and warm up.

    One untimed probe runs first so the page cache holds the interpreter,
    numpy and bellbound files, as it does for a user's repeated runs.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-probe"]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, cwd=ROOT)
    least = 1 if smoke else SETUP_MIN
    out = []
    while len(out) < least or (len(out) < SETUP_MAX and sum(out) < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        out.append(time.perf_counter() - t0)
    return out


def end_to_end(wl, run: dict, setup: list[float]) -> tuple[dict, dict]:
    times = np.array(run["times"]) * 1e3
    n = len(times)
    p_tail = wl.tail_percentile
    metrics = {
        "setup_s": statistics.median(setup),
        "job_p50_ms": float(np.percentile(times, 50)),
        "job_tail_ms": float(np.percentile(times, p_tail)),
        "jobs_per_s": n / run["walls"][0],
        "ok_ratio": 1.0 - run["failed"] / run["attempted"],
        "peak_rss_mb": wl.peak_rss_kb() / 1024.0,
    }
    detail = {
        "jobs": n, "cycles": run["cycles"], "wall_s": run["walls"][0],
        "job_tail_percentile": p_tail,
        "jobs_beyond_tail": int(np.sum(times > metrics["job_tail_ms"])),
        "setup_samples_s": setup,
    }
    return metrics, detail


SPAN_LAYERS = (
    "qstate.schmidt_decompose", "source_op.build", "source_op.trace_norm",
    "source_op.verify_dilation", "bell.Assemblage",
    "bell.bell_value", "bell.lhv_extrema", "bell.certify",
    "serialize.state_from_json", "serialize.render_json", "harness.job",
)


def per_layer(wl, tracer, job_selfs: dict, run: dict, extras: dict) -> tuple[dict, dict]:
    """Per-layer metrics; ``job_selfs`` are the self times of the traced jobs alone."""
    from workloads import CLI_COMMANDS

    selfs = tracer.self_times()
    metrics = {}
    for layer in SPAN_LAYERS:
        calls, self_s = selfs.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    for key in ("source_op.dim_max", "source_op.verify_dilation.checks",
                "bell.lhv_extrema.strategies"):
        metrics[key] = tracer.counts.get(key, 0)
    metrics["source_op.matrix_mb_computed"] = metrics["source_op.dim_max"] ** 2 * 16 / 2**20
    metrics["source_op.full_rank_share"] = wl.detail(run["jobs"]).get("full_rank_share", 0.0)
    for cmd in CLI_COMMANDS:
        for suffix, span in (("p50_ms", f"cli.{cmd}"), ("inproc_ms", f"cli.{cmd}.inproc")):
            d = tracer.durations(span)
            metrics[f"cli.{cmd}.{suffix}"] = statistics.median(d) * 1e3 if d else 0.0
    for key in ("python_startup_ms", "numpy_import_ms", "bellbound_import_ms"):
        metrics[f"cli.{key}"] = extras.get(f"cli.{key}", 0.0)
    untraced_wall, traced_wall = run["walls"]
    metrics["trace.jobs"] = len(run["times"])
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    job_total = sum(tracer.durations("harness.job"))
    cli_p50 = [metrics[f"cli.{c}.p50_ms"] for c in CLI_COMMANDS if metrics[f"cli.{c}.p50_ms"]]
    detail = {
        "traced_jobs": len(run["times"]), "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall, "cycles": run["cycles"],
        "self_time_share_of_jobs": {
            layer: round(job_selfs[layer][1] / job_total, 4)
            for layer in SPAN_LAYERS + tuple(f"cli.{c}" for c in CLI_COMMANDS)
            if layer in job_selfs and job_total > 0
        },
    }
    if cli_p50:
        detail["startup_import_share_of_cli_p50"] = round(
            metrics["cli.bellbound_import_ms"] / statistics.median(cli_p50), 4)
    return metrics, detail


def blas_info() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (AttributeError, KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    cfg = getattr(lib, f"{prefix}get_config{suffix}")
                    cfg.restype = ctypes.c_char_p
                    info["config"] = cfg().decode()
                    return info
    return info


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "seed": seed, "git_commit": commit,
    }


def declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bellbound" / "__init__.py").is_file():
        print(f"perfbench: no bellbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bellbound

    if Path(bellbound.__file__).resolve().parent != SRC / "bellbound":
        print(f"perfbench: imported bellbound from {bellbound.__file__}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cls.warm_up(args.smoke)
        return 0
    declared = declared_metrics(args.trace)

    setup = [] if args.trace else time_setup(cls.name, args.smoke)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = cls(args.seed, args.smoke, workdir)
        cls.warm_up(args.smoke)
        once = 1 if args.smoke else None
        if args.trace:
            tracer = Tracer(True)
            run = closed_loop(wl, [Tracer(False), tracer], args.seconds, once)
            job_selfs = tracer.self_times()
            extras = wl.trace_extras(tracer, run["cycles"])
            values, detail = per_layer(wl, tracer, job_selfs, run, extras)
        else:
            run = closed_loop(wl, [Tracer(False)], args.seconds, once)
            values, detail = end_to_end(wl, run, setup)
        detail.update(wl.detail(run["jobs"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = run["failed"]
    print(f"perfbench {cls.name}  seed={args.seed}  trace={args.trace}  "
          f"jobs={run['attempted']}  failed={failed}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"workload": cls.name, "detail": detail,
                      "environment": environment(args.seed)}))
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
