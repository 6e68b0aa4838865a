import json
import math

import numpy as np
import pytest

from otcp import (
    ParamError,
    SplitSpec,
    build_spherical_grid,
    calibrate,
    estimate_covariance,
    fit_entropic_map,
    fit_quantile_predictor,
    fit_regressor,
    load_map,
    load_predictor,
    make_score_function,
    residuals,
    save_map,
    save_predictor,
    split_dataset,
    synth_dataset,
)


@pytest.fixture(scope="module")
def fitted():
    ds = synth_dataset("gaussian", 900, 2, seed=2)
    train, ot_fit, calib, test = split_dataset(ds, SplitSpec(seed=2))
    reg = fit_regressor(train, "knn_mean", k=15)
    emap = fit_entropic_map(residuals(ot_fit, reg), build_spherical_grid(256, 2),
                            epsilon=0.2)
    return {"reg": reg, "emap": emap, "calib": calib, "test": test,
            "train": train}


def test_map_round_trip(fitted, tmp_path):
    emap = fitted["emap"]
    path = tmp_path / "map.json"
    save_map(emap, path)
    back = load_map(path)
    queries = np.random.default_rng(0).standard_normal((20, 2))
    assert np.array_equal(back.forward(queries), emap.forward(queries))
    assert np.array_equal(back.inverse(queries / 3), emap.inverse(queries / 3))
    assert back.potentials.iterations == emap.potentials.iterations


@pytest.mark.parametrize("kind", ["merge_l2", "merge_mahalanobis", "mcp_max", "otcp"])
def test_predictor_round_trip_scores(fitted, tmp_path, kind):
    from otcp import estimate_covariance
    if kind == "mcp_max":
        fn = make_score_function(kind, quantile_predictor=fit_quantile_predictor(
            fitted["train"], 10, 0.05, 0.95))
    elif kind == "merge_mahalanobis":
        W = estimate_covariance(residuals(fitted["calib"], fitted["reg"]))
        fn = make_score_function(kind, regressor=fitted["reg"], whitener=W)
    elif kind == "otcp":
        fn = make_score_function(kind, regressor=fitted["reg"],
                                 transport_map=fitted["emap"])
    else:
        fn = make_score_function(kind, regressor=fitted["reg"])
    pred = calibrate(fn, fitted["calib"], alpha=0.1)
    path = tmp_path / f"{kind}.json"
    save_predictor(pred, path)
    back = load_predictor(path)
    X, Y = fitted["test"].features[:30], fitted["test"].targets[:30]
    assert back.threshold == pred.threshold
    assert np.array_equal(back.score_fn.score_rows(X, Y), pred.score_fn.score_rows(X, Y))
    assert np.array_equal(back.contains_rows(X, Y), pred.contains_rows(X, Y))


def test_ridge_regressor_round_trip(tmp_path):
    ds = synth_dataset("gaussian", 100, 2, seed=3)
    reg = fit_regressor(ds, "ridge_linear", lam=0.5)
    fn = make_score_function("merge_l2", regressor=reg)
    pred = calibrate(fn, synth_dataset("gaussian", 50, 2, seed=4, tag="c"), alpha=0.2)
    save_predictor(pred, tmp_path / "p.json")
    back = load_predictor(tmp_path / "p.json")
    x = [[0.25]]
    assert np.array_equal(back.score_fn.regressor.predict_rows(x),
                          reg.predict_rows(x))
    doc = json.loads((tmp_path / "p.json").read_text())
    doc["score"]["regressor"]["coef"] = doc["score"]["regressor"]["coef"][:-1]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ParamError):
        load_predictor(tmp_path / "bad.json")


def test_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ParamError):
        load_predictor(path)
    with pytest.raises(ParamError):
        load_map(path)


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_infinite_threshold_is_standard_json(fitted, tmp_path):
    # alpha < 1/(n+1) gives an infinite threshold: stored as null
    fn = make_score_function("merge_l2", regressor=fitted["reg"])
    pred = calibrate(fn, fitted["calib"].take(np.arange(40)), alpha=0.001)
    assert pred.threshold == math.inf
    path = tmp_path / "inf.json"
    save_predictor(pred, path)
    doc = _strict_loads(path.read_text())
    assert doc["version"] == 2 and doc["threshold"] is None
    back = load_predictor(path)
    assert back.threshold == math.inf
    X, Y = fitted["test"].features, fitted["test"].targets
    assert back.contains_rows(X, Y).all()


def test_loads_version_1_documents(fitted, tmp_path):
    fn = make_score_function("otcp", regressor=fitted["reg"],
                             transport_map=fitted["emap"])
    pred = calibrate(fn, fitted["calib"].take(np.arange(40)), alpha=0.001)
    save_predictor(pred, tmp_path / "v2.json")
    doc = json.loads((tmp_path / "v2.json").read_text())
    # v1 wrote the same fields, the bare token Infinity for an infinite threshold
    doc["version"] = doc["score"]["map"]["version"] = 1
    doc["threshold"] = math.inf
    (tmp_path / "v1.json").write_text(json.dumps(doc))
    assert "Infinity" in (tmp_path / "v1.json").read_text()
    back = load_predictor(tmp_path / "v1.json")
    assert back.threshold == math.inf
    X, Y = fitted["test"].features[:30], fitted["test"].targets[:30]
    assert np.array_equal(back.score_fn.score_rows(X, Y), pred.score_fn.score_rows(X, Y))


def _edit(doc, path, fn):
    # replace the field at path by fn(field), or delete it when fn gives None
    *parents, leaf = path
    for key in parents:
        doc = doc[key]
    value = fn(doc[leaf])
    if value is None:
        del doc[leaf]
    else:
        doc[leaf] = value


@pytest.mark.parametrize("path, fn", [
    (("score", "map", "g"), lambda g: g[:-1]),
    (("score", "map", "f"), lambda f: f[:-1]),
    (("score", "map", "g"), lambda g: [math.nan] + g[1:]),
    (("score", "map", "f"), lambda f: [math.inf] + f[1:]),
    (("score", "map", "source_std"), lambda z: [row + [0.0] for row in z]),
    (("score", "map", "grid", "points"), lambda p: [row[:1] for row in p]),
    (("score", "map", "standardizer", "mean"), lambda v: v + [0.0]),
    (("score", "map", "standardizer", "scale"), lambda v: v[:1]),
    (("score", "map", "standardizer", "scale"), lambda v: [math.nan, 1.0]),
    (("score", "map", "standardizer", "scale"), lambda v: [0.0, 1.0]),
    (("score", "whitener"), lambda w: [row + [0.0] for row in w] + [[0.0, 0.0, 1.0]]),
    (("score", "whitener"), lambda w: [[math.nan, 0.0], [0.0, 1.0]]),
    (("score", "map"), lambda m: None),
    (("score", "kind"), lambda k: "no_such_kind"),
    (("cal_scores",), lambda c: c + [math.nan]),
    (("residual_low",), lambda v: v + [0.0]),
    (("residual_high",), lambda v: [math.inf, v[1]]),
    (("residual_high",), lambda v: None),
    (("residual_low",), lambda v: [x + 100.0 for x in v]),
])
def test_load_rejects_inconsistent_artifacts(fitted, tmp_path, path, fn):
    kind = "merge_mahalanobis" if "whitener" in path else "otcp"
    W = estimate_covariance(residuals(fitted["calib"], fitted["reg"]))
    score = make_score_function(kind, regressor=fitted["reg"],
                                transport_map=fitted["emap"], whitener=W)
    save_predictor(calibrate(score, fitted["calib"], alpha=0.1), tmp_path / "p.json")
    doc = json.loads((tmp_path / "p.json").read_text())
    _edit(doc, path, fn)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ParamError):
        load_predictor(tmp_path / "bad.json")
