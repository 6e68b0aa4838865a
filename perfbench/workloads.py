"""The four otcp workloads: inputs made from a seed, one timed pass, output checks.

Every workload makes its inputs in ``setup`` (repeatable, the last one is kept),
runs pass ``i`` of its timed section in ``run_pass(i)`` and checks what the pass
returned in ``check_pass``. Pass ``i`` always gets the same inputs. Every
operation and every check counts in ``attempted``; the failed ones also count
in ``failed``.

Calls go through module attributes (``otcp.cli.main``, ``otcp.bench.fit_method``,
``otcp.serialize.save_predictor``, ...) so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import otcp.bench
import otcp.cli
import otcp.data
import otcp.errors
import otcp.serialize

ALPHA = 0.1
FRACTIONS = (0.4, 0.2, 0.2, 0.2)
BANANA = {"noise": 0.3}
BAND_SD = 5.0  # coverage checks fail only on gross violations, never on seed noise


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def coverage_band(n_cal: int, n_test: int, alpha: float = ALPHA) -> tuple[float, float]:
    """Band for the test coverage of a split-conformal set.

    Given the calibration set, coverage is Beta(k, n_cal + 1 - k) with
    k = ceil((1 - alpha)(n_cal + 1)); the test set adds binomial noise. The
    band is the mean plus or minus ``BAND_SD`` standard deviations of the sum.
    """
    k = math.ceil((n_cal + 1) * (1 - alpha))
    mean = k / (n_cal + 1)
    var = (k * (n_cal + 1 - k) / ((n_cal + 1) ** 2 * (n_cal + 2))
           + mean * (1 - mean) / n_test)
    half = BAND_SD * math.sqrt(var)
    return mean - half, min(1.0, mean + half)


def derived_seed(seed: int, stream: int) -> int:
    """An independent seed for input stream `stream` of workload seed `seed`."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def split_sizes(n: int) -> tuple[int, int]:
    """(n_calib, n_test) that ``otcp.split_dataset`` gives for ``FRACTIONS``."""
    return (int(math.floor(FRACTIONS[2] * n + 1e-9)),
            int(math.floor(FRACTIONS[3] * n + 1e-9)))


class Workload:
    name = ""

    def __init__(self, work_dir: Path, seed: int, smoke: bool):
        self.dir = work_dir
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.info = defaultdict(list)  # coverage and region size of each pass

    def before_pass(self) -> None:
        """Untimed preparation of one pass."""

    def finish(self, tally: Tally) -> None:
        """Untimed checks that need every pass."""

    def serve_values(self) -> dict[str, float]:
        """Serving throughput and latency, for workloads that serve."""
        return {}


# ---------------------------------------------------------------------------
# Workloads that drive the command line
# ---------------------------------------------------------------------------

class _CliWorkload(Workload):
    generator = "banana"
    params = BANANA
    d = 2
    methods: tuple = ()

    def setup(self) -> None:
        s = self.size
        self.dir.mkdir(parents=True, exist_ok=True)
        self.configs = []
        for j in range(s["variants"]):
            seed = derived_seed(self.seed, j)
            ds = otcp.data.synth_dataset(self.generator, s["n"], self.d,
                                         dict(self.params), seed=seed)
            otcp.data.write_dataset_csv(ds, self.dir / f"data{j}.csv")
            cfg = {
                "dataset": {"kind": "csv", "path": str(self.dir / f"data{j}.csv"),
                            "d_out": self.d},
                "methods": list(self.methods), "alpha": ALPHA,
                "fractions": list(FRACTIONS),
                "regressor": {"kind": "knn_mean", "k": 25},
                "otcp": {"epsilon": s.get("eps", 0.1), "m": s.get("m", 4096),
                         "grid_mode": "low_discrepancy"},
                "seeds": [seed], "mc_samples": s["mc_samples"],
                "region_size_points": s["region_size_points"],
            }
            self.configs.append(self.dir / f"config{j}.json")
            self.configs[-1].write_text(json.dumps(cfg), encoding="utf-8")
        self.band = coverage_band(*split_sizes(s["n"]))

    @property
    def out(self) -> Path:
        return self.dir / "out"

    def before_pass(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self, i: int):
        """Returns the exit code (or the exception) and the non-converged solves."""
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                rc = otcp.cli.main(self.argv(self.configs[i % len(self.configs)]))
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                rc = repr(exc)
        return rc, sum(issubclass(w.category, otcp.errors.SinkhornNotConverged)
                       for w in caught)

    def check_pass(self, out, tally: Tally) -> None:
        rc, not_converged = out
        tally.record(rc == 0, f"{self.name}: otcp exited with {rc}")
        tally.record(not not_converged,
                     f"{self.name}: {not_converged} Sinkhorn solves did not converge")


class _BenchRun(_CliWorkload):
    def argv(self, config: Path) -> list[str]:
        return ["bench", "run", "--config", str(config),
                "--output-dir", str(self.out)]

    def check_pass(self, out, tally: Tally) -> None:
        super().check_pass(out, tally)
        try:
            summary = json.loads((self.out / "report_summary.json").read_text())
        except (OSError, ValueError):
            summary = {}
        lo, hi = self.band
        for method in self.methods:
            entry = summary.get(method, {})
            tally.record(entry.get("n_seeds") == 1 and entry.get("n_failed") == 0,
                         f"{self.name}: {method} report row not ok")
            cov = entry.get("coverage", {}).get("mean", math.nan)
            tally.record(lo <= cov <= hi,
                         f"{self.name}: {method} coverage {cov} outside [{lo:.4f}, {hi:.4f}]")
            self.info[f"coverage.{method}"].append(cov)
            self.info[f"mean_region_size.{method}"].append(
                entry.get("mean_region_size", {}).get("mean", math.nan))
            model = self.out / "models" / f"{method}.json"
            tally.record(model.is_file(), f"{self.name}: {method} model not saved")


class RunBanana(_BenchRun):
    """`otcp bench run` on the README config, with region sizing cut to fit the run.

    Region sizing draws 500 Monte-Carlo samples at each of 20 points rather
    than 10000 at each of 200: a 10000-row rank call allocates a 10000 x m
    weight matrix, and on a 2-vCPU VM its time varied by about 20% per call.
    """

    name = "run_banana"
    methods = ("merge_l2", "merge_mahalanobis", "mcp_max", "otcp")
    FULL = {"n": 2000, "m": 4096, "eps": 0.1, "mc_samples": 500,
            "region_size_points": 20, "variants": 8}
    SMOKE = {"n": 400, "m": 128, "eps": 0.1, "mc_samples": 200,
             "region_size_points": 1, "variants": 2}


class KnnBaselines(_BenchRun):
    """`otcp bench run` with the three baselines only: k-NN and calibrate, no OT."""

    name = "knn_baselines"
    generator = "gaussian"
    params = {"p": 3}
    d = 3
    methods = ("merge_l2", "merge_mahalanobis", "mcp_max")
    FULL = {"n": 3000, "mc_samples": 10000, "region_size_points": 200, "variants": 8}
    SMOKE = {"n": 400, "mc_samples": 200, "region_size_points": 5, "variants": 2}


class SweepEps(_CliWorkload):
    """`otcp bench sweep` over epsilon at one grid size, otcp only."""

    name = "sweep_eps"
    methods = ("otcp",)
    EPSILONS = ("1.0", "0.1", "0.03", "0.01")
    FULL = {"n": 2000, "m": 256, "mc_samples": 2000, "region_size_points": 2,
            "variants": 8}
    SMOKE = {"n": 400, "m": 128, "mc_samples": 200, "region_size_points": 1,
             "variants": 2}

    def argv(self, config: Path) -> list[str]:
        return ["bench", "sweep", "--config", str(config),
                "--eps", *self.EPSILONS, "--targets", str(self.size["m"]),
                "--output-dir", str(self.out)]

    def check_pass(self, out, tally: Tally) -> None:
        super().check_pass(out, tally)
        try:
            with open(self.out / "sweep.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError:
            rows = []
        lo, hi = self.band
        covs, sizes = [], []
        for eps in self.EPSILONS:
            cell = [r for r in rows if r["epsilon"] and float(r["epsilon"]) == float(eps)]
            ok = len(cell) == 1 and cell[0]["status"] == "ok"
            tally.record(ok, f"{self.name}: cell eps={eps} missing or not ok")
            cov = float(cell[0]["coverage"]) if ok else math.nan
            tally.record(lo <= cov <= hi,
                         f"{self.name}: eps={eps} coverage {cov} outside [{lo:.4f}, {hi:.4f}]")
            covs.append(cov)
            sizes.append(float(cell[0]["mean_region_size"]) if ok else math.nan)
        self.info["coverage.otcp"] += covs
        self.info["mean_region_size.otcp"] += sizes


# ---------------------------------------------------------------------------
# Serving a saved predictor
# ---------------------------------------------------------------------------

class ServeOtcp(Workload):
    """One closed-loop client sends batches of held-out pairs to a loaded predictor."""

    name = "serve_otcp"
    FULL = {"n": 2000, "m": 2048, "eps": 0.1, "batch": 256, "pool": 32,
            "batches_per_pass": 16, "contour_points": 3}
    SMOKE = {"n": 400, "m": 128, "eps": 0.1, "batch": 32, "pool": 4,
             "batches_per_pass": 4, "contour_points": 1}
    ALPHAS = (0.05, 0.1, 0.2)

    def setup(self) -> None:
        s = self.size
        self.dir.mkdir(parents=True, exist_ok=True)
        seed = derived_seed(self.seed, 0)
        ds = otcp.data.synth_dataset("banana", s["n"], 2, dict(BANANA), seed=seed)
        train, ot_fit, calib, _ = otcp.data.split_dataset(
            ds, otcp.data.SplitSpec(FRACTIONS, seed))
        reg = otcp.data.fit_regressor(train, "knn_mean", k=25)
        cfg = otcp.bench.BenchConfig(methods=("otcp",), alpha=ALPHA,
                                     otcp={"epsilon": s["eps"], "m": s["m"]},
                                     seeds=(seed,))
        self.pred, _, _ = otcp.bench.fit_method("otcp", cfg, reg, train, ot_fit,
                                                calib, seed)
        path = self.dir / "otcp.json"
        otcp.serialize.save_predictor(self.pred, path)
        self.loaded = otcp.serialize.load_predictor(path)
        # held-out pairs: the same generator on an independent seed
        queries = otcp.data.synth_dataset("banana", s["pool"] * s["batch"], 2,
                                          dict(BANANA), seed=derived_seed(self.seed, 1))
        b = s["batch"]
        self.batches = [(queries.features[i:i + b], queries.targets[i:i + b])
                        for i in range(0, queries.n, b)]
        self.xs = queries.features[:s["contour_points"]]
        self.n_cal = calib.n
        self.masks: dict[int, np.ndarray] = {}
        self.batch_ms: list[float] = []

    def run_pass(self, i: int):
        per_pass = self.size["batches_per_pass"]
        results = []
        for k in range(i * per_pass, (i + 1) * per_pass):
            b = k % len(self.batches)
            X, Y = self.batches[b]
            t0 = time.perf_counter()
            try:
                mask = self.loaded.contains_rows(X, Y)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                mask = exc
            results.append((b, mask, (time.perf_counter() - t0) * 1e3))
        try:
            paths = otcp.bench.export_contours(self.loaded, self.xs, self.ALPHAS,
                                               self.dir / "contours")
        except Exception as exc:  # noqa: BLE001
            paths = exc
        return results, paths

    def check_pass(self, out, tally: Tally) -> None:
        results, paths = out
        for i, mask, ms in results:
            ok = isinstance(mask, np.ndarray) and mask.shape == (self.size["batch"],)
            tally.record(ok, f"{self.name}: batch {i} failed: {mask!r:.200}")
            if ok:
                self.batch_ms.append(ms)
                self.masks.setdefault(i, mask)
        expected = len(self.xs) * len(self.ALPHAS)
        ok = isinstance(paths, list) and len(paths) == expected
        if ok:
            manifest = json.loads((self.dir / "contours" / "contours.json").read_text())
            areas = [lvl["area"] for p in manifest["points"] for lvl in p["levels"]]
            ok = len(areas) == expected and all(math.isfinite(a) and a > 0 for a in areas)
        tally.record(ok, f"{self.name}: contour export failed: {paths!r:.200}")

    def finish(self, tally: Tally) -> None:
        covered = []
        for i, mask in sorted(self.masks.items()):
            X, Y = self.batches[i]
            same = np.array_equal(self.pred.contains_rows(X, Y), mask)
            tally.record(same, f"{self.name}: loaded and in-memory membership differ "
                               f"on batch {i}")
            covered.append(mask)
        if covered:
            hits = np.concatenate(covered)
            cov = float(hits.mean())
            lo, hi = coverage_band(self.n_cal, hits.size)
            tally.record(lo <= cov <= hi,
                         f"{self.name}: coverage {cov} outside [{lo:.4f}, {hi:.4f}]")
            self.info["coverage.otcp"].append(cov)

    def serve_values(self) -> dict[str, float]:
        ms = np.asarray(self.batch_ms)
        if not ms.size:
            return {}
        return {"serve.batches": float(ms.size),
                "serve.pairs_per_s": ms.size * self.size["batch"] / (ms.sum() / 1e3),
                "serve.batch_ms_p50": float(np.percentile(ms, 50)),
                "serve.batch_ms_p95": float(np.percentile(ms, 95))}


WORKLOADS = {w.name: w for w in (RunBanana, SweepEps, KnnBaselines, ServeOtcp)}
