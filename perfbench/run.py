"""Run one otcp benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload run_banana --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from ``src/``
and nothing is installed. Inputs are made from ``--seed``. The workload is set
up ``SETUPS`` times (``setup_s`` is the median), then timed passes run until
``--seconds`` have passed (``wall_s`` is the median pass). Every pass's output
is checked; failed operations and failed checks count in ``failed``.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` reports the per-layer metrics instead: it runs passes untraced
for half of the time, then the same passes traced, and the difference of the
two mean pass times is the tracing overhead. Spans are kept in memory and written once, at the end, to
``.bench_work/traces/``. ``--smoke`` shrinks every input so that a run takes
seconds; ``perfbench/test_smoke.py`` uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 5
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}


def cap_blas_threads() -> int:
    """One process, BLAS threads capped at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_package():
    """Import otcp from this checkout's src/, and from nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import otcp

    if not Path(otcp.__file__).resolve().is_relative_to(src):
        raise ImportError(f"otcp imported from {otcp.__file__}, not from {src}")
    return otcp


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {"nproc": nproc, "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "git_commit": git_commit()}


def one_pass(workload, tally, i: int, tracer=None) -> float:
    """Run and check pass `i`; returns its seconds (the pass span's, when traced)."""
    workload.before_pass()
    if tracer is None:
        t0 = time.perf_counter()
        out = workload.run_pass(i)
        seconds = time.perf_counter() - t0
    else:
        with tracer.span("pass", "harness") as span:
            out = workload.run_pass(i)
        seconds = span.dur_s
    workload.check_pass(out, tally)
    return seconds


def timed_passes(workload, tally, seconds: float) -> list[float]:
    """Run passes 0, 1, ... until `seconds` have passed (at least one)."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(one_pass(workload, tally, len(times)))
    return times


def measure_end_to_end(workload, tally, seconds: float) -> dict:
    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    passes = timed_passes(workload, tally, seconds)
    serve = workload.serve_values()
    workload.finish(tally)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"# pass_s = {[round(t, 4) for t in passes]}", flush=True)
    print(f"# setup_s = {[round(t, 4) for t in setup_s]}", flush=True)
    for name, value in serve.items():
        print(f"# {name} = {value:.6g}", flush=True)
    return {"wall_s": statistics.median(passes), "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_kb / 1024.0,
            "ok_frac": 1.0 - tally.failed / max(tally.attempted, 1)}


def measure_per_layer(workload, tally, seconds: float, trace_path: Path,
                      env: dict) -> dict:
    from spans import Tracer, layer_values

    tracer = Tracer()
    with tracer.installed():
        for _ in range(SETUPS):
            with tracer.span("setup", "harness"):
                workload.setup()
    untraced = timed_passes(workload, tally, seconds / 2)
    serve = workload.serve_values()
    with tracer.installed():  # the same passes again, on the same inputs
        traced = [one_pass(workload, tally, i, tracer) for i in range(len(untraced))]
    workload.finish(tally)

    for s in tracer.spans:
        if s.name == "sinkhorn.sinkhorn_solve":
            a = s.attrs
            tally.record(a["converged"] and a["marginal_error"] <= a["tol"],
                         f"Sinkhorn eps={a['epsilon']} not converged: "
                         f"marginal error {a['marginal_error']:.3e} > tol {a['tol']:.1e}")

    values = layer_values(tracer.spans, SETUPS, len(traced))
    values.update(serve)
    for key, per_pass in workload.info.items():
        values[f"{'conformal' if key.startswith('coverage') else 'bench'}.{key}"] = (
            statistics.fmean(per_pass))
    untraced_s, traced_s = statistics.fmean(untraced), statistics.fmean(traced)
    values.update({"trace.untraced_wall_s": untraced_s, "trace.traced_wall_s": traced_s,
                   "trace.overhead_ms": (traced_s - untraced_s) * 1e3})
    print(f"# {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(tracer.spans)} spans", flush=True)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps(s.to_dict()) + "\n")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    nproc = cap_blas_threads()
    import_package()
    from spans import per_layer_units
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    run_id = f"{args.workload}-seed{args.seed}"
    work_dir = WORK / f"{run_id}-pid{os.getpid()}"
    workload = WORKLOADS[args.workload](work_dir, args.seed, args.smoke)
    env = {**environment(nproc), "workload": args.workload, "seed": args.seed,
           "size": workload.size}
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    tally = Tally()
    try:
        if args.trace:
            values = measure_per_layer(workload, tally, args.seconds,
                                       WORK / "traces" / f"{run_id}.jsonl", env)
            units = per_layer_units()
        else:
            values = measure_end_to_end(workload, tally, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for note in tally.notes:
        print(f"# FAILED: {note}", file=sys.stderr, flush=True)
    print(f"# failed_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations and checks)", flush=True)
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}", flush=True)
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
