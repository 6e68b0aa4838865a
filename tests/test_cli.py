import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    ("run", {"seeds": [0, 0]}, []),
    ("sweep", {"methods": ["otcp"]}, ["--eps", "0.1", "0.1"]),
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
    (2, ["--x", "0.5", "0.5"], "query features must have width 1, got 2"),
    (2, ["--x", "0.5", "--alphas", "0.001"], "threshold at alpha=0.001 is infinite"),
    (2, ["--x", "0.5", "--alphas", "0.1", "0.1"], "alphas repeats [0.1]"),
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


def _bad_input_files(root):
    """A regular file, a directory, two garbled CSVs and four output dirs, each
    holding a directory where the CLI writes a file, under `root`."""
    (root / "file").write_text("")
    (root / "dir").mkdir()
    for blocked in ("report/report.csv", "sweep/sweep.csv", "model/models/merge_l2.json",
                    "contours/contours.json"):
        (root / blocked).mkdir(parents=True)
    (root / "text.csv").write_bytes(b"x,y0,y1\n1,2,abc\n")
    (root / "latin.csv").write_bytes(b"x,y0,y1\n1,2,\xff\n")


_SWEEP = ["bench", "sweep", "--eps", "0.1", "--targets", "16"]


@pytest.mark.parametrize("argv, dataset, message", [
    (["bench", "run"], {"n": 4}, "calib/test splits empty for n=4"),
    (_SWEEP, {"n": 4}, "calib/test splits empty for n=4"),
    (["bench", "run"], {"kind": "csv", "path": "text.csv", "d_out": 2},
     "row 1, column 2: non-numeric cell 'abc'"),
    (["bench", "run"], {"kind": "csv", "path": "nope.csv", "d_out": 2},
     "cannot read dataset nope.csv"),
    (["bench", "run"], {"kind": "csv", "path": "dir", "d_out": 2}, "cannot read dataset dir"),
    (["bench", "run"], {"kind": "csv", "path": "latin.csv", "d_out": 2},
     "cannot read dataset latin.csv"),
    (["bench", "run", "--output-dir", "file/out"], {}, "cannot create output directory file/out"),
    ([*_SWEEP, "--output-dir", "file/out"], {}, "cannot create output directory file/out"),
    (["contour", "--model", "m/models/merge_l2.json", "--x", "0.5", "--out", "file/ct"], None,
     "cannot create output directory file/ct"),
    (["synth", "--n", "10", "--out", "nodir/x.csv"], None, "cannot write dataset nodir/x.csv"),
    (["synth", "--n", "10", "--out", "dir"], None, "cannot write dataset dir"),
    (["bench", "run", "--output-dir", "report"], {"n": 200},
     "cannot write report report/report.csv"),
    ([*_SWEEP, "--output-dir", "sweep"], {"n": 200}, "cannot write sweep sweep/sweep.csv"),
    (["bench", "run", "--output-dir", "model"], {"n": 200},
     "cannot write model model/models/merge_l2.json"),
    (["contour", "--model", "m/models/merge_l2.json", "--x", "0.5", "--out", "contours"], None,
     "cannot write contour manifest contours/contours.json"),
], ids=["split-empty-run", "split-empty-sweep", "csv-text-cell", "csv-missing", "csv-directory",
        "csv-not-utf8", "run-output-under-file", "sweep-output-under-file",
        "contour-out-under-file", "synth-out-missing-dir", "synth-out-directory",
        "report-csv-directory", "sweep-csv-directory", "model-json-directory",
        "contours-json-directory"])
def test_bad_input_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, dataset, message):
    monkeypatch.chdir(tmp_path)
    _bad_input_files(tmp_path)
    if argv[0] == "contour":
        assert main(["bench", "run", "--config", str(_write_cfg(tmp_path / "m.json")),
                     "--output-dir", "m"]) == 0
        capsys.readouterr()
    if dataset is not None:
        argv = [*argv, "--config", str(_write_cfg(tmp_path / "cfg.json", dataset=dataset))]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("otcp: error: ") and message in err
    assert "Traceback" not in err


def _tiny_readme_config() -> dict:
    """The README's example config at sizes that run in well under a second."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cfg = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    cfg["dataset"]["n"] = 60
    cfg["regressor"]["k"] = 5
    cfg["otcp"]["m"] = 16
    cfg.update(seeds=[0], mc_samples=8, region_size_points=2)
    return cfg


def _key_paths(doc, path=()):
    """The path of every dict key and list index in a JSON document."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, path + (key,))


_README_CFG = _tiny_readme_config()


@st.composite
def _mutated_config(draw):
    """The tiny README config with one key dropped, retyped or pushed out of range,
    or with its dataset or output dir pointed at a missing, garbled or unwritable path."""
    cfg = copy.deepcopy(_README_CFG)
    *head, key = draw(st.sampled_from(list(_key_paths(cfg))))
    parent = cfg
    for step in head:
        parent = parent[step]
    mutation = draw(st.sampled_from(["drop", "type", "range", "path"]))
    if mutation == "drop":
        del parent[key]
    elif mutation == "type":
        parent[key] = draw(st.sampled_from(["x", None, True, [], {}, [1, 2]]))
    elif mutation == "range":
        parent[key] = draw(st.sampled_from([-1, 0, 0.5, 1.5, -0.5, float("nan"), float("inf")]))
    elif draw(st.booleans()):
        cfg["dataset"] = {"kind": "csv", "d_out": 2,
                          "path": draw(st.sampled_from(["nope.csv", "dir", "text.csv",
                                                        "latin.csv", "file"]))}
    else:
        cfg["output_dir"] = draw(st.sampled_from(["file", "file/out", "report", "model"]))
    return cfg


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_mutated_config(), command=st.sampled_from([["bench", "run"], _SWEEP]))
def test_mutated_readme_config_exits_0_or_2(tmp_path, monkeypatch, cfg, command):
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "file").exists():
        _bad_input_files(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    try:
        code = main([*command, "--config", "cfg.json"])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2)


def test_contour_programming_error_is_not_a_usage_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken")

    monkeypatch.setattr("otcp.serialize.load_predictor", broken)
    with pytest.raises(TypeError, match="broken"):
        main(["contour", "--model", str(tmp_path / "m.json"), "--x", "0.5"])


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
