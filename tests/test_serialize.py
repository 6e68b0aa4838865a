import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcp import (
    SCORE_KINDS,
    ParamError,
    SplitSpec,
    build_spherical_grid,
    calibrate,
    estimate_covariance,
    fit_entropic_map,
    fit_quantile_predictor,
    fit_regressor,
    load_predictor,
    make_score_function,
    residuals,
    save_predictor,
    split_dataset,
    synth_dataset,
)
from otcp.serialize import map_from_dict, map_to_dict, predictor_from_dict, predictor_to_dict


@pytest.fixture(scope="module")
def fitted():
    ds = synth_dataset("gaussian", 900, 2, seed=2)
    train, ot_fit, calib, test = split_dataset(ds, SplitSpec(seed=2))
    reg = fit_regressor(train, "knn_mean", k=15)
    emap = fit_entropic_map(residuals(ot_fit, reg), build_spherical_grid(256, 2),
                            epsilon=0.2)
    return {"reg": reg, "emap": emap, "calib": calib, "test": test,
            "train": train, "ot_fit": ot_fit}


def _json_round_trip(doc: dict) -> dict:
    return json.loads(json.dumps(doc, allow_nan=False))


def _as_version(doc: dict, version: int, pred) -> dict:
    """A v3 predictor document as v1 or v2 wrote it.

    Those versions also stored each map grid's points, dim, n_r and n_s, and a
    whitener as its bare matrix.
    """
    doc = copy.deepcopy(doc)
    doc["version"] = version
    score = doc["score"]
    if "whitener" in score:
        score["whitener"] = score["whitener"]["matrix"]
    if "map" in score:
        grid = pred.score_fn.transport_map.grid
        score["map"]["version"] = version
        score["map"]["grid"].update(dim=grid.dim, n_r=grid.n_r, n_s=grid.n_s,
                                    points=grid.points.tolist())
    return doc


def test_map_round_trip(fitted):
    emap = fitted["emap"]
    back = map_from_dict(_json_round_trip(map_to_dict(emap)))
    assert np.array_equal(back.grid.points, emap.grid.points)
    queries = np.random.default_rng(0).standard_normal((20, 2))
    assert np.array_equal(back.forward(queries), emap.forward(queries))
    assert np.array_equal(back.inverse(queries / 3), emap.inverse(queries / 3))
    assert back.potentials.iterations == emap.potentials.iterations
    # v1 and v2 also stored the points, dim, n_r and n_s; loading ignores them
    old = {**map_to_dict(emap), "version": 2}
    old["grid"].update(points=[[0.0]], dim=7, n_r=1, n_s=1)
    assert np.array_equal(map_from_dict(old).grid.points, emap.grid.points)


@pytest.mark.parametrize("kind", ["merge_l2", "merge_mahalanobis", "mcp_max", "otcp"])
def test_predictor_round_trip_scores(fitted, tmp_path, kind):
    from otcp import estimate_covariance
    if kind == "mcp_max":
        fn = make_score_function(kind, quantile_predictor=fit_quantile_predictor(
            fitted["train"], 10, 0.05, 0.95))
    elif kind == "merge_mahalanobis":
        W = estimate_covariance(residuals(fitted["ot_fit"], fitted["reg"]))
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
        map_from_dict(json.loads(path.read_text()))


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
    assert doc["version"] == 3 and doc["threshold"] is None
    back = load_predictor(path)
    assert back.threshold == math.inf
    X, Y = fitted["test"].features, fitted["test"].targets
    assert back.contains_rows(X, Y).all()


def test_loads_version_1_documents(fitted, tmp_path):
    fn = make_score_function("otcp", regressor=fitted["reg"],
                             transport_map=fitted["emap"])
    pred = calibrate(fn, fitted["calib"].take(np.arange(40)), alpha=0.001)
    save_predictor(pred, tmp_path / "v3.json")
    doc = _as_version(json.loads((tmp_path / "v3.json").read_text()), 1, pred)
    # v1 wrote the bare token Infinity for an infinite threshold
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
    (("score", "map", "grid", "directions"), lambda d: [row[:1] for row in d]),
    (("score", "map", "grid", "radii"), lambda r: r[:-1]),
    (("score", "map", "standardizer", "mean"), lambda v: v + [0.0]),
    (("score", "map", "standardizer", "scale"), lambda v: v[:1]),
    (("score", "map", "standardizer", "scale"), lambda v: [math.nan, 1.0]),
    (("score", "map", "standardizer", "scale"), lambda v: [0.0, 1.0]),
    (("score", "whitener", "matrix"),
     lambda w: [row + [0.0] for row in w] + [[0.0, 0.0, 1.0]]),
    (("score", "whitener", "matrix"), lambda w: [[math.nan, 0.0], [0.0, 1.0]]),
    (("score", "map"), lambda m: None),
    (("score", "kind"), lambda k: "no_such_kind"),
    (("cal_scores",), lambda c: c + [math.nan]),
    (("residual_low",), lambda v: v + [0.0]),
    (("residual_high",), lambda v: [math.inf, v[1]]),
    (("residual_high",), lambda v: None),
    (("residual_low",), lambda v: [x + 100.0 for x in v]),
    (("alpha",), lambda a: 7.0),
    (("threshold",), lambda t: math.nan),
    (("threshold",), lambda t: "x"),
    (("band",), lambda b: [0.9, 0.1]),
    (("band",), lambda b: ["a", 1]),
    (("band",), lambda b: [0.1, 0.5, 0.9]),
    (("score", "map", "epsilon"), lambda e: math.nan),
    (("score", "regressor", "k"), lambda k: 2.5),
    (("score", "regressor", "k"), lambda k: "15"),
    (("score", "regressor", "k"), lambda k: True),
    (("score", "regressor", "p"), lambda p: 1.0),
    (("score", "regressor", "d"), lambda d: 2.0),
    (("score", "regressor", "lam"), lambda lam: "0"),
    (("score", "quantile_predictor", "k"), lambda k: 10.5),
    (("score", "quantile_predictor", "alpha_lo"), lambda a: "0.05"),
    (("score", "map", "epsilon"), lambda e: "0.2"),
    (("score", "map", "iterations"), lambda i: "x"),
    (("score", "map", "iterations"), lambda i: i + 0.5),
    (("score", "map", "marginal_error"), lambda e: "small"),
    (("score", "map", "converged"), lambda c: "no"),
    (("score", "map", "converged"), lambda c: 1),
    (("score", "map", "grid", "n_o"), lambda n: True),
])
def test_load_rejects_inconsistent_artifacts(fitted, tmp_path, path, fn):
    kind = ("merge_mahalanobis" if "whitener" in path
            else "mcp_max" if "quantile_predictor" in path else "otcp")
    reg = (fit_regressor(fitted["train"], "ridge_linear", lam=0.5)
           if path[-1] in ("p", "d", "lam") else fitted["reg"])
    W = estimate_covariance(residuals(fitted["ot_fit"], reg))
    qp = fit_quantile_predictor(fitted["train"], 10, 0.05, 0.95)
    score = make_score_function(kind, regressor=reg, quantile_predictor=qp,
                                transport_map=fitted["emap"], whitener=W)
    save_predictor(calibrate(score, fitted["calib"], alpha=0.1), tmp_path / "p.json")
    doc = json.loads((tmp_path / "p.json").read_text())
    _edit(doc, path, fn)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ParamError):
        load_predictor(tmp_path / "bad.json")


def test_artifacts_keep_their_keys_and_the_map_tag(fitted, tmp_path):
    fn = make_score_function("otcp", regressor=fitted["reg"], transport_map=fitted["emap"])
    save_predictor(calibrate(fn, fitted["calib"], alpha=0.1), tmp_path / "otcp.json")
    score = json.loads((tmp_path / "otcp.json").read_text())["score"]
    assert list(score["regressor"]) == ["kind", "k", "X", "Y", "tag"]
    # the map is tagged with the residual rows' dataset tag, which calibration matches
    assert score["map"]["origin"] == fitted["emap"].fit_tag == fitted["ot_fit"].tag
    # the grid is stored once, as its ladder; the points are rebuilt on load
    assert list(score["map"]["grid"]) == ["n_o", "radii", "directions"]
    back = load_predictor(tmp_path / "otcp.json").score_fn
    assert back.fit_tags == {fitted["train"].tag, fitted["ot_fit"].tag}
    qp = fit_quantile_predictor(fitted["train"], 10, 0.05, 0.95)
    mcp = make_score_function("mcp_max", quantile_predictor=qp)
    save_predictor(calibrate(mcp, fitted["calib"], alpha=0.1), tmp_path / "mcp.json")
    doc = json.loads((tmp_path / "mcp.json").read_text())["score"]["quantile_predictor"]
    assert list(doc) == ["k", "alpha_lo", "alpha_hi", "X", "Y", "tag"]
    W = estimate_covariance(residuals(fitted["ot_fit"], fitted["reg"]))
    mh = make_score_function("merge_mahalanobis", regressor=fitted["reg"], whitener=W)
    save_predictor(calibrate(mh, fitted["calib"], alpha=0.1), tmp_path / "mh.json")
    doc = json.loads((tmp_path / "mh.json").read_text())["score"]["whitener"]
    assert list(doc) == ["matrix", "tag"] and doc["tag"] == fitted["ot_fit"].tag
    back = load_predictor(tmp_path / "mh.json").score_fn
    assert back.fit_tags == {fitted["train"].tag, fitted["ot_fit"].tag}


def _random_predictor(kind, d, n, m, seed):
    ds = synth_dataset("gaussian", n, d, seed=seed)
    train, ot_fit, calib, test = split_dataset(ds, SplitSpec(seed=seed))
    reg = fit_regressor(train, "knn_mean", k=3)
    fit_resid = residuals(ot_fit, reg)
    parts = {"regressor": reg}
    if kind == "merge_mahalanobis":
        parts["whitener"] = estimate_covariance(fit_resid, ridge=1e-3)
    elif kind == "mcp_max":
        parts = {"quantile_predictor": fit_quantile_predictor(train, 3, 0.1, 0.9)}
    elif kind == "otcp":
        parts["transport_map"] = fit_entropic_map(
            fit_resid, build_spherical_grid(m, d, mode="iid", seed=seed), epsilon=0.5)
    return calibrate(make_score_function(kind, **parts), calib, alpha=0.2), test


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SCORE_KINDS), st.integers(1, 3), st.integers(20, 80),
       st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_round_trip_is_bit_identical_for_random_shapes(kind, d, n, m, seed):
    if kind == "abs_univariate":
        d = 1
    pred, test = _random_predictor(kind, d, n, m, seed)
    doc = _json_round_trip(predictor_to_dict(pred))
    X, Y = test.features, test.targets
    scores, inside = pred.score_fn.score_rows(X, Y), pred.contains_rows(X, Y)
    for back in (predictor_from_dict(doc), predictor_from_dict(_as_version(doc, 2, pred))):
        assert np.array_equal(back.score_fn.score_rows(X, Y), scores)
        assert np.array_equal(back.contains_rows(X, Y), inside)
        assert back.threshold == pred.threshold
    if kind == "merge_mahalanobis":
        # a v2 whitener is a bare matrix, so it loads untagged
        assert predictor_from_dict(doc).score_fn.whitener.fit_tag
        assert not predictor_from_dict(_as_version(doc, 2, pred)).score_fn.whitener.fit_tag


def _key_paths(doc, prefix=()):
    """The path of every key in a JSON object, nested objects included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@pytest.mark.parametrize("kind", SCORE_KINDS)
def test_a_missing_key_is_a_param_error_naming_it(kind):
    pred, _ = _random_predictor(kind, 1 if kind == "abs_univariate" else 2, 60, 16, 0)
    doc = _json_round_trip(predictor_to_dict(pred))
    optional = {"tag", "origin", "band"}
    paths = [path for path in _key_paths(doc) if path[-1] not in optional]
    assert ("score", "kind") in paths and ("alpha",) in paths
    for path in paths:
        bad = copy.deepcopy(doc)
        _edit(bad, path, lambda value: None)
        with pytest.raises(ParamError) as exc:
            predictor_from_dict(bad)
        # the header check and a missing component report the file's own way
        if path[-1] not in ("format", "version") and path[:-1] != ("score",):
            assert ".".join(path) in str(exc.value), (path, str(exc.value))
