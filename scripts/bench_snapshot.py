"""Write a benchmark snapshot, BENCH_<n>.json, from the perfbench workloads.

    python3 scripts/bench_snapshot.py --out BENCH_6.json
    python3 scripts/bench_snapshot.py --out .bench_work/BENCH_smoke.json --smoke --seconds 1 --seeds 0

Run it from anywhere; it runs the command that BENCHMARK.json names
(``perfbench/run.py``) from the root of this checkout, one run at a time. Every
workload runs once per seed with ``--trace 0`` and then once with ``--trace 1``
at the first seed. Then ``otcp bench run`` and ``otcp bench sweep`` (over the
README's ``--eps 0.01 0.1 1 --targets 1024 4096``) run once each, end to end,
on the README's config at that config's first seed. The file holds the runs'
environment line, each end-to-end metric's median, quartiles and per-seed
values, the traced run's per-layer values, the README run's wall time and
report summary, and the README sweep's wall time and each cell's status,
coverage, size and Sinkhorn iterations, convergence and marginal error.
``worktree_changes`` lists the tracked files that differ from the commit the
environment line names. ``--smoke`` is passed through to every run and shrinks
the README run and sweep (n=400, m=128, 200 samples at 5 points; the sweep
over ``--eps 0.1 1 --targets 128``). The script exits non-zero, after writing
what it has, when a run exits non-zero, prints no result line, or fails its
correctness checks, or when a README sweep cell fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (0, 1, 2, 3, 4)
ENV_PREFIX = "# env "
# the README's `bench sweep` axes, and a tiny pair of cells for --smoke
README_SWEEP_AXES = ["--eps", "0.01", "0.1", "1", "--targets", "1024", "4096"]
SMOKE_SWEEP_AXES = ["--eps", "0.1", "1", "--targets", "128"]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> tuple[dict | None, dict | None, str]:
    """One benchmark run: (environment line, result object, error text)."""
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600 + 20 * seconds)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[len(ENV_PREFIX):]) for line in lines
                if line.startswith(ENV_PREFIX)), None)
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return env, None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    error = "" if result["correct"] else f"failed checks: {proc.stderr.strip()[-2000:]}"
    return env, result, error


def readme_config(smoke: bool) -> dict:
    """The README's `bench run` config at its first seed; tiny under --smoke."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cfg = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    cfg["seeds"] = cfg["seeds"][:1]
    cfg.pop("output_dir", None)
    if smoke:
        cfg["dataset"] = {**cfg["dataset"], "n": 400}
        cfg["otcp"] = {**cfg["otcp"], "m": 128}
        cfg.update(mc_samples=200, region_size_points=5)
    return cfg


def _readme_command(smoke: bool, command: list[str], read) -> tuple[dict | None, str]:
    """One `otcp bench ...` command on the README config: (wall time, config and
    what `read` takes from the output dir, error text)."""
    cfg = readme_config(smoke)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "otcp", "bench", *command, "--config",
                               str(config), "--output-dir", str(out)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=1800)
        wall_s = time.perf_counter() - t0
        if proc.returncode != 0:  # exit 2 prints the failed cells on stdout
            output = proc.stderr.strip() or proc.stdout.strip()
            return None, f"exit {proc.returncode}: {output[-2000:]}"
        return {"config": cfg, "wall_s": wall_s, **read(out)}, ""


def readme_run(smoke: bool) -> tuple[dict | None, str]:
    """One `otcp bench run` on the README config: (wall time and summary, error text)."""
    return _readme_command(smoke, ["run"], lambda out: {"summary": json.loads(
        (out / "report_summary.json").read_text(encoding="utf-8"))})


def readme_sweep(smoke: bool) -> tuple[dict | None, str]:
    """One `otcp bench sweep` on the README config over the README's axes:
    (wall time and each cell's status, coverage, size and solver columns, error
    text). A failed cell makes the sweep exit 2, so it is an error too."""
    axes = SMOKE_SWEEP_AXES if smoke else README_SWEEP_AXES

    def read(out):
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            return {"axes": axes, "cells": [
                {"epsilon": float(r["epsilon"]), "m": int(r["m"]), "seed": int(r["seed"]),
                 "status": r["status"], "coverage": float(r["coverage"]),
                 "mean_region_size": float(r["mean_region_size"]),
                 "sinkhorn_iters": int(r["sinkhorn_iters"]) if r["sinkhorn_iters"] else None,
                 "converged": r["converged"] == "True" if r["converged"] else None,
                 "marginal_error": (float(r["marginal_error"]) if r["marginal_error"]
                                    else None)}
                for r in csv.DictReader(fh)]}

    return _readme_command(smoke, ["sweep", *axes], read)


def worktree_changes() -> list[str] | None:
    """Tracked files that differ from HEAD, since the runs' git_commit names HEAD only."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return sorted(line[3:] for line in proc.stdout.splitlines())


def summarize(values: list[float]) -> dict:
    """Median and quartiles of one metric over runs, with the runs' values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def snapshot(seeds: list[int], seconds: float, smoke: bool) -> tuple[dict, list[str]]:
    """Every workload's runs, summarized; also the errors of the runs that failed."""
    out = {"seconds": seconds, "seeds": seeds, "smoke": smoke, "env": None,
           "worktree_changes": worktree_changes(), "workloads": {}}
    errors = []
    for spec in SPEC["workloads"]:
        name = spec["name"]
        runs, entry = [], {"size": None, "runs": [], "end_to_end": {}, "per_layer": {}}
        for seed in seeds:
            env, result, error = run_workload(name, seed, seconds, 0, smoke)
            if env is not None:
                entry["size"] = env["size"]
                out["env"] = out["env"] or {key: value for key, value in env.items()
                                            if key not in ("workload", "seed", "size")}
            if error:
                errors.append(f"{name} seed {seed} --trace 0: {error}")
            if result is not None:
                runs.append(result)
                entry["runs"].append({"seed": seed, "correct": result["correct"],
                                      "attempted": result["attempted"],
                                      "failed": result["failed"]})
                print(f"{name} seed {seed}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr,
                      flush=True)
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            if values:
                entry["end_to_end"][metric["name"]] = {"unit": metric["unit"],
                                                       **summarize(values)}
        _, result, error = run_workload(name, seeds[0], seconds, 1, smoke)
        if error:
            errors.append(f"{name} seed {seeds[0]} --trace 1: {error}")
        if result is not None:
            entry["per_layer"] = {"seed": seeds[0], "correct": result["correct"],
                                  "metrics": result["metrics"]}
        out["workloads"][name] = entry
    out["readme_run"], error = readme_run(smoke)
    if error:
        errors.append(f"README config bench run: {error}")
    out["readme_sweep"], error = readme_sweep(smoke)
    if error:
        errors.append(f"README config bench sweep: {error}")
    return out, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, passed through to every run")
    args = parser.parse_args(argv)
    data, errors = snapshot(args.seeds, args.seconds, args.smoke)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
