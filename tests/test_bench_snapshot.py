"""scripts/bench_snapshot.py: the per-metric summary and a failed run."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_snapshot.py"
_SPEC = importlib.util.spec_from_file_location("bench_snapshot", _PATH)
snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(snapshot)


def test_summary_is_median_and_inclusive_quartiles():
    values = [3.0, 1.0, 2.0, 4.0, 5.0]
    assert snapshot.summarize(values) == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                          "values": values}
    assert snapshot.summarize([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                         "values": [2.0]}


def test_a_run_that_exits_nonzero_gives_an_error_and_no_result():
    env, result, error = snapshot.run_workload("no_such_workload", 0, 1.0, 0, True)
    assert result is None
    assert error.startswith("exit 2:") and "--workload must be one of" in error


def test_the_readme_run_reports_every_method():
    result, error = snapshot.readme_run(smoke=True)
    assert error == ""
    assert result["config"]["seeds"] == [0] and result["wall_s"] > 0
    assert sorted(result["summary"]) == sorted(result["config"]["methods"])
    assert all(entry["n_failed"] == 0 for entry in result["summary"].values())


def test_the_readme_sweep_reports_every_cell():
    result, error = snapshot.readme_sweep(smoke=True)
    assert error == ""
    assert result["axes"] == snapshot.SMOKE_SWEEP_AXES and result["wall_s"] > 0
    cells = [(c["epsilon"], c["m"], c["seed"], c["status"]) for c in result["cells"]]
    assert cells == [(0.1, 128, 0, "ok"), (1.0, 128, 0, "ok")]
    assert all(0.0 <= c["coverage"] <= 1.0 and c["mean_region_size"] > 0
               for c in result["cells"])
    assert all(c["sinkhorn_iters"] >= 1 and c["converged"] is True
               and 0.0 <= c["marginal_error"] <= 1e-6 for c in result["cells"])
