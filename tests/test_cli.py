import json

import numpy as np
import pytest

from otcp import load_dataset_csv
from otcp.cli import main


def _write_cfg(path, **over):
    cfg = {
        "dataset": {"kind": "synthetic", "generator": "gaussian", "n": 500, "d": 2},
        "methods": ["merge_l2"],
        "seeds": [0],
        "mc_samples": 200,
        "region_size_points": 2,
        "otcp": {"epsilon": 0.1, "m": 128},
    }
    cfg.update(over)
    path.write_text(json.dumps(cfg))
    return path


def test_synth_then_load(tmp_path, capsys):
    out = tmp_path / "data.csv"
    rc = main(["synth", "--kind", "banana", "--n", "80", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    ds = load_dataset_csv(out, d_out=2)
    assert (ds.n, ds.p, ds.d) == (80, 1, 2)
    assert "wrote 80 rows" in capsys.readouterr().out


def test_bench_run_success(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "cfg.json", methods=["merge_l2", "otcp"], seeds=[0, 1])
    rc = main(["bench", "run", "--config", str(cfg),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "report.csv").exists()
    lines = {line.split(":", 1)[0]: line for line in capsys.readouterr().out.splitlines()}
    summary = json.loads((tmp_path / "out" / "report_summary.json").read_text())
    for method in ("merge_l2", "otcp"):
        assert lines[method].startswith(f"{method}: coverage")
        stderr = summary[method]["region_size_stderr"]
        assert f", region_size_stderr {stderr:.4f}" in lines[method]
    assert "sinkhorn" not in lines["merge_l2"]
    converged = sum(entry["converged"] for entry in summary["otcp"]["per_seed"])
    assert f", sinkhorn converged {converged}/2 (2 seeds, 0 failed)" in lines["otcp"]


def test_bench_run_partial_failure_exit_code(tmp_path, capsys):
    # abs_univariate cannot run on d=2 data; merge_l2 still completes
    cfg = _write_cfg(tmp_path / "cfg.json", methods=["abs_univariate", "merge_l2"])
    rc = main(["bench", "run", "--config", str(cfg),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    report = (tmp_path / "out" / "report.csv").read_text()
    assert "failed" in report and "ok" in report


def test_bench_sweep_command(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "cfg.json", methods=["otcp"])
    rc = main(["bench", "sweep", "--config", str(cfg), "--eps", "0.1",
               "--targets", "128", "--output-dir", str(tmp_path / "sw")])
    assert rc == 0
    assert (tmp_path / "sw" / "sweep.csv").exists()
    out = capsys.readouterr().out
    assert "eps=0.1 m=128" in out and "sinkhorn converged 1/1" in out


def test_contour_command(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "cfg.json", methods=["otcp"])
    rc = main(["bench", "run", "--config", str(cfg),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    model = tmp_path / "out" / "models" / "otcp.json"
    rc = main(["contour", "--model", str(model), "--x", "0.5",
               "--alphas", "0.1", "0.5", "--out", str(tmp_path / "ct")])
    assert rc == 0
    files = sorted((tmp_path / "ct").glob("contour_*.csv"))
    assert len(files) == 2
    verts = np.loadtxt(files[0], delimiter=",", skiprows=1)
    assert verts.shape[1] == 2 and np.isfinite(verts).all()


@pytest.mark.parametrize("command, over, flags", [
    ("run", {"methods": ["merge_l3"]}, []),
    ("run", {"otcp": {"tol": 0}}, []),
    ("sweep", {"methods": ["otcp"]}, ["--eps", "-1"]),
])
def test_refused_config_is_a_usage_error(tmp_path, capsys, command, over, flags):
    cfg = _write_cfg(tmp_path / "cfg.json", **over)
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", command, "--config", str(cfg), *flags,
              "--output-dir", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("otcp: error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("d, flags, message", [
    (3, ["--x", "0.5"], "region contours are defined for d = 2 only"),
    (2, ["--x", "0.5", "0.5"], "expected 1 features, got 2"),
    (2, ["--x", "0.5", "--alphas", "0.001"], "threshold at alpha=0.001 is infinite"),
])
def test_contour_failure_is_a_usage_error(tmp_path, capsys, d, flags, message):
    cfg = _write_cfg(tmp_path / "cfg.json",
                     dataset={"kind": "synthetic", "generator": "gaussian", "n": 500, "d": d})
    assert main(["bench", "run", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["contour", "--model", str(tmp_path / "out" / "models" / "merge_l2.json"),
              *flags, "--out", str(tmp_path / "ct")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("otcp: error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "ct").exists()


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    (b'\xff{"seeds": [0]}', "cannot read"),
    (b'{"seeds": [0]', "cannot read"),
    (b"5", "is not a JSON object"),
], ids=["missing", "not-utf8", "not-json", "not-an-object"])
@pytest.mark.parametrize("command", [["contour", "--x", "0.5", "--model"],
                                     ["bench", "run", "--config"]], ids=["model", "config"])
def test_unreadable_input_file_is_a_usage_error(tmp_path, capsys, command, content, message):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as exit_info:
        main([*command, str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("otcp: error: ")
    assert message in err and str(path) in err
    assert "Traceback" not in err


def test_contour_programming_error_is_not_a_usage_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken")

    monkeypatch.setattr("otcp.serialize.load_predictor", broken)
    with pytest.raises(TypeError, match="broken"):
        main(["contour", "--model", str(tmp_path / "m.json"), "--x", "0.5"])


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
