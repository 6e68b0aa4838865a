"""Command-line interface: benchmark runs and sweeps, contour export, synth data.

    otcp bench run --config cfg.json [--output-dir DIR]
    otcp bench sweep --config cfg.json [--eps ...] [--targets ...]
    otcp contour --model model.json --x ... --alphas ... [--out DIR]
    otcp synth --kind gaussian --n 1000 --d 2 --seed 0 --out data.csv

Exit codes: 0 on success; 2 on a bad flag, a value refused with ParamError (a
bad config before any data loads, or a --config or --model file that cannot
be read as a JSON object) or a request the model cannot answer
(DimensionError or MethodError: a contour of a model with d != 2, an --x of
the wrong width, an alpha whose threshold is infinite), each printed as the
usage, then "otcp: error: ..."; 2 also when some benchmark methods failed with
an expected error (a failed row reads "failed: <ExceptionType>: <message>"; the
partial report is still written). A programming error is not caught: it ends
the run with a traceback and exit 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench, serialize
from .data import synth_dataset, write_dataset_csv
from .errors import DimensionError, MethodError, ParamError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="otcp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="benchmark harness")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_run = bench_sub.add_parser("run", help="run the configured benchmark")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--output-dir", default=None, help="override the config output dir")
    p_run.set_defaults(run=_cmd_bench_run)

    p_sweep = bench_sub.add_parser("sweep", help="epsilon x grid-size ablation")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--eps", nargs="+", type=float, default=None,
                         help=f"epsilon values (default {list(bench.DEFAULT_SWEEP_EPSILONS)})")
    p_sweep.add_argument("--targets", nargs="+", type=int, default=None,
                         help=f"grid sizes m (default {list(bench.DEFAULT_SWEEP_TARGETS)})")
    p_sweep.add_argument("--output-dir", default=None)
    p_sweep.set_defaults(run=_cmd_bench_sweep)

    p_contour = sub.add_parser("contour", help="export 2-D region polygons")
    p_contour.add_argument("--model", required=True, help="saved predictor JSON")
    p_contour.add_argument("--x", nargs="+", type=float, required=True,
                           help="query feature vector (one point)")
    p_contour.add_argument("--alphas", nargs="+", type=float, default=[0.1])
    p_contour.add_argument("--out", default="contours")
    p_contour.add_argument("--angles", type=int, default=128)
    p_contour.set_defaults(run=_cmd_contour)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset CSV")
    p_synth.add_argument("--kind", choices=["gaussian", "banana", "mixture"],
                         default="gaussian")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--d", type=int, default=2)
    p_synth.add_argument("--p", type=int, default=1)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(run=_cmd_synth)
    return parser


def _cmd_bench_run(args) -> int:
    cfg = bench.BenchConfig.from_json_file(args.config)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    report = bench.run_benchmark(cfg)
    nan = float("nan")
    for method, agg in sorted(report.aggregates().items()):
        cov = agg.get("coverage", {})
        size = agg.get("mean_region_size", {})
        solver = ""
        if method == "otcp":
            converged = [entry["converged"] for entry in agg.get("per_seed", [])]
            solver = f", sinkhorn converged {sum(converged)}/{len(converged)}"
        print(f"{method}: coverage {cov.get('mean', nan):.4f} "
              f"+/- {cov.get('stderr', nan):.4f}, "
              f"size {size.get('mean', nan):.4f} +/- {size.get('stderr', nan):.4f}, "
              f"region_size_stderr {agg.get('region_size_stderr', nan):.4f}{solver} "
              f"({agg['n_seeds']} seeds, {agg['n_failed']} failed)")
    if cfg.output_dir:
        print(f"report written to {cfg.output_dir}")
    return 2 if report.any_failed else 0


def _cmd_bench_sweep(args) -> int:
    cfg = bench.BenchConfig.from_json_file(args.config)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    records = bench.sweep(cfg, args.eps, args.targets)
    failed = any(r["status"] != "ok" for r in records)
    cells = sorted({(r["epsilon"], r["m"]) for r in records})
    for eps, m in cells:
        ok = [r for r in records
              if r["epsilon"] == eps and r["m"] == m and r["status"] == "ok"]
        sizes = [r["mean_region_size"] for r in ok]
        med = float(np.median(sizes)) if sizes else float("nan")
        converged = sum(r["converged"] for r in ok)
        print(f"eps={eps:g} m={m}: median size {med:.4f} over {len(sizes)} seeds, "
              f"sinkhorn converged {converged}/{len(ok)}")
    if cfg.output_dir:
        print(f"sweep written to {cfg.output_dir}/sweep.csv")
    return 2 if failed else 0


def _cmd_contour(args) -> int:
    pred = serialize.load_predictor(args.model)
    paths = bench.export_contours(pred, [args.x], args.alphas, args.out,
                                  n_angles=args.angles)
    for path in paths:
        print(path)
    return 0


def _cmd_synth(args) -> int:
    ds = synth_dataset(args.kind, args.n, args.d, {"p": args.p}, seed=args.seed)
    write_dataset_csv(ds, args.out)
    print(f"wrote {ds.n} rows (p={ds.p}, d={ds.d}) to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ParamError, DimensionError, MethodError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
