import copy
import functools
import gc
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcp import (
    SCORE_KINDS,
    Dataset,
    MethodError,
    ParamError,
    Regressor,
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
from otcp.serialize import map_from_dict, predictor_from_dict

from _reference import map_to_dict, predictor_to_dict


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


def test_map_round_trip(fitted):
    emap = fitted["emap"]
    back = map_from_dict(_json_round_trip(map_to_dict(emap)))
    assert np.array_equal(back.grid.points, emap.grid.points)
    queries = np.random.default_rng(0).standard_normal((20, 2))
    assert np.array_equal(back.forward(queries), emap.forward(queries))
    assert np.array_equal(back.inverse(queries / 3), emap.inverse(queries / 3))
    assert back.potentials.iterations == emap.potentials.iterations
    # v3 is the one format read
    with pytest.raises(ParamError, match="expected entropic-map v3, got entropic-map v2"):
        map_from_dict({**map_to_dict(emap), "version": 2})


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


def test_a_band_key_loads_only_when_null(fitted, tmp_path):
    # earlier writers stored "band": null; a PIT band is no longer a set rule
    fn = make_score_function("otcp", regressor=fitted["reg"], transport_map=fitted["emap"])
    pred = calibrate(fn, fitted["calib"], alpha=0.1)
    save_predictor(pred, tmp_path / "p.json")
    doc = json.loads((tmp_path / "p.json").read_text())
    assert "band" not in doc
    (tmp_path / "null.json").write_text(json.dumps({**doc, "band": None}))
    back = load_predictor(tmp_path / "null.json")
    X, Y = fitted["test"].features[:30], fitted["test"].targets[:30]
    assert np.array_equal(back.contains_rows(X, Y), pred.contains_rows(X, Y))
    (tmp_path / "banded.json").write_text(json.dumps({**doc, "band": [0.1, 0.9]}))
    with pytest.raises(ParamError, match="band"):
        load_predictor(tmp_path / "banded.json")


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


# v3 predictors as save_predictor writes them, kept as files so that a change
# to the reader or the writer cannot drop one: banana n=200 with noise 0.3,
# seed 0, SplitSpec(seed=0), knn_mean k=10, alpha 0.1; otcp on m=64 grid points
# at epsilon 0.1, merge_mahalanobis whitened with default_mahalanobis_ridge, and
# mcp_max on a k=10 quantile predictor at levels 0.05 and 0.95
_GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["otcp_v3", "merge_mahalanobis_v3", "mcp_max_v3"])
def test_golden_v3_files_load_and_save_byte_identically(tmp_path, name):
    path = _GOLDEN / f"{name}.json"
    pred = load_predictor(path)
    save_predictor(pred, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    score = json.loads(path.read_text())["score"]
    tags = {part.get("origin", part.get("tag")) for part in score.values()
            if isinstance(part, dict)}
    assert len(tags) == len(pred.score_fn.components)
    assert pred.score_fn.fit_tags == tags
    X = [[0.1], [0.3], [0.5], [0.7], [0.9]]
    Y = [[0.0, 0.0], [0.5, 1.0], [-1.0, 2.0], [2.0, -2.0], [10.0, 10.0]]
    flags = pred.contains_rows(X, Y)
    assert flags.shape == (5,) and flags.dtype == bool


def _reference_bytes(pred) -> bytes:
    return (json.dumps(predictor_to_dict(pred), allow_nan=False) + "\n").encode()


def _predictors(train, ot_fit, calib, regressor):
    """One calibrated predictor of each score kind, all on one fitted regressor (the
    first-target copy for abs_univariate, which shares the training features)."""
    reg = fit_regressor(train, regressor)
    resid = residuals(ot_fit, reg)
    parts = {"merge_l2": {}, "merge_mahalanobis": {"whitener": estimate_covariance(resid)},
             "mcp_max": {"quantile_predictor": fit_quantile_predictor(train, 5, 0.1, 0.9)},
             "otcp": {"transport_map": fit_entropic_map(resid, build_spherical_grid(32, 2),
                                                        epsilon=0.5)}}
    preds = [calibrate(make_score_function(kind, regressor=reg, **extra), calib, alpha=0.2)
             for kind, extra in parts.items()]
    first = [Dataset(ds.features, ds.targets[:, :1], tag=ds.tag) for ds in (train, calib)]
    abs_fn = make_score_function("abs_univariate", regressor=fit_regressor(first[0], regressor))
    return [calibrate(abs_fn, first[1], alpha=0.2), *preds]


@pytest.mark.parametrize("regressor", ["knn_mean", "ridge_linear"])
def test_save_writes_the_json_dumps_text_alone_or_through_a_shared_memo(tmp_path, regressor):
    train, ot_fit, calib, _ = split_dataset(synth_dataset("gaussian", 200, 2, seed=5),
                                            SplitSpec(seed=5))
    preds = _predictors(train, ot_fit, calib, regressor)
    assert sorted(pred.score_fn.kind for pred in preds) == sorted(SCORE_KINDS)
    path = tmp_path / "p.json"
    for pred in preds:
        save_predictor(pred, path)
        assert path.read_bytes() == _reference_bytes(pred), pred.score_fn.kind
    for order in (preds, preds[::-1]):
        encoded = {}
        for pred in order:
            save_predictor(pred, path, encoded)
            assert path.read_bytes() == _reference_bytes(pred), pred.score_fn.kind
    # the first seed's predictors are dropped before the second's are fitted, so the
    # second's training arrays, of the same shapes, may get the freed ids; the memo
    # keeps its arrays alive, so it never hands back the first seed's text
    encoded, written = {}, set()
    for seed in (6, 7):
        parts = split_dataset(synth_dataset("gaussian", 200, 2, seed=seed), SplitSpec(seed=seed))
        for pred in _predictors(*parts[:3], regressor):
            save_predictor(pred, path, encoded)
            assert path.read_bytes() == _reference_bytes(pred), (seed, pred.score_fn.kind)
            written.add(path.read_bytes())
        del parts, pred
        gc.collect()
    assert len(written) == 2 * len(SCORE_KINDS)


@pytest.mark.parametrize("version", [1, 2, 4])
@pytest.mark.parametrize("document", ["predictor", "map"])
def test_any_version_but_3_is_refused_naming_it(document, version):
    doc = json.loads((_GOLDEN / "otcp_v3.json").read_text())
    header = doc if document == "predictor" else doc["score"]["map"]
    header["version"] = version
    fmt = "conformal-predictor" if document == "predictor" else "entropic-map"
    with pytest.raises(ParamError, match=f"expected {fmt} v3, got {fmt} v{version}$"):
        predictor_from_dict(doc)


def _tagged_document(name):
    # a golden file, or a fresh predictor for the tag readers the golden files skip
    if name.endswith("_v3"):
        return json.loads((_GOLDEN / f"{name}.json").read_text())
    train = synth_dataset("gaussian", 60, 2, seed=0, tag="train")
    parts = ({"quantile_predictor": fit_quantile_predictor(train, 3, 0.1, 0.9)}
             if name == "mcp_max" else {"regressor": fit_regressor(train, "ridge_linear")})
    fn = make_score_function("mcp_max" if name == "mcp_max" else "merge_l2", **parts)
    calib = synth_dataset("gaussian", 20, 2, seed=1, tag="cal")
    return _json_round_trip(predictor_to_dict(calibrate(fn, calib, alpha=0.2)))


@pytest.mark.parametrize("value", [5, True, {}, [1]], ids=["number", "true", "object", "list"])
@pytest.mark.parametrize("name, path", [
    ("otcp_v3", ("score", "regressor", "tag")),
    ("otcp_v3", ("score", "map", "origin")),
    ("merge_mahalanobis_v3", ("score", "regressor", "tag")),
    ("merge_mahalanobis_v3", ("score", "whitener", "tag")),
    ("mcp_max", ("score", "quantile_predictor", "tag")),
    ("ridge", ("score", "regressor", "tag")),
], ids=lambda v: v if isinstance(v, str) else ".".join(v))
def test_a_tag_that_is_not_a_string_or_null_is_refused_naming_it(name, path, value):
    doc = _tagged_document(name)
    *parents, leaf = path
    parent = functools.reduce(dict.get, parents, doc)
    tags, tag = predictor_from_dict(doc).score_fn.fit_tags, parent[leaf]
    assert isinstance(tag, str) and tag in tags
    parent[leaf] = None  # null is an untagged fit: it loads, and its tag leaves fit_tags
    assert predictor_from_dict(doc).score_fn.fit_tags == tags - {tag}
    parent[leaf] = value
    message = f"artifact {'.'.join(path)} must be a string or null, got {value!r}"
    with pytest.raises(ParamError, match=re.escape(message)):
        predictor_from_dict(doc)


def _edit(doc, path, fn):
    # replace the field at path by fn(field), or delete it when fn gives None;
    # an absent field reads as None, so fn can add a key the writer leaves out
    *parents, leaf = path
    for key in parents:
        doc = doc[key]
    value = fn(doc.get(leaf))
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
    (("version",), lambda v: True),
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
    back = predictor_from_dict(doc)
    assert np.array_equal(back.score_fn.score_rows(X, Y), scores)
    assert np.array_equal(back.contains_rows(X, Y), inside)
    assert back.threshold == pred.threshold


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
    paths = list(_key_paths(doc))
    assert ("score", "kind") in paths and ("alpha",) in paths
    for path in paths:
        bad = copy.deepcopy(doc)
        _edit(bad, path, lambda value: None)
        with pytest.raises(ParamError) as exc:
            predictor_from_dict(bad)
        # the header check and a missing component report the file's own way
        if path[-1] not in ("format", "version") and path[:-1] != ("score",):
            assert ".".join(path) in str(exc.value), (path, str(exc.value))


@pytest.mark.parametrize("value", ["x", None, 1, []], ids=["string", "null", "number", "list"])
@pytest.mark.parametrize("kind, path", [
    ("otcp", ("score",)),
    ("otcp", ("score", "regressor")),
    ("otcp", ("score", "map", "grid")),
    ("otcp", ("score", "map", "standardizer")),
    ("mcp_max", ("score", "quantile_predictor")),
    ("merge_mahalanobis", ("score", "whitener")),
    ("otcp", ("score", "kind")),
], ids=lambda v: v if isinstance(v, str) else ".".join(v))
def test_a_wrong_type_where_an_object_or_kind_belongs_is_a_param_error(kind, path, value):
    pred, _ = _random_predictor(kind, 2, 60, 16, 0)
    doc = _json_round_trip(predictor_to_dict(pred))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    message = ("unknown score kind" if path[-1] == "kind"
               else f"artifact {'.'.join(path)} is not a JSON object")
    with pytest.raises(ParamError, match=re.escape(message)):
        predictor_from_dict(doc)


_DROP = object()
_REPLACEMENTS = {"string": "x", "null": None, "one": 1, "list": [], "object": {}, "true": True,
                "minus_one": -1, "fraction": 1.5, "nan": math.nan, "drop": _DROP}


def _contract_breach(doc, test):
    """None when loading refuses `doc` as bad input, or loads a predictor whose
    contains_rows runs on the test rows; otherwise what broke that contract."""
    try:
        pred = predictor_from_dict(doc)
    except (ParamError, MethodError):
        return None
    except Exception as exc:
        return f"load: {exc!r}"
    try:
        pred.contains_rows(test.features, test.targets)
    except Exception as exc:
        return f"contains_rows: {exc!r}"
    return None


@pytest.mark.parametrize("kind", SCORE_KINDS)
def test_every_key_mutation_is_refused_or_loads_a_working_predictor(kind):
    # one key at a time, objects included: another type or value, a NaN, the key
    # dropped, or a list grown or shrunk by one element
    d = 1 if kind == "abs_univariate" else 2
    pred, test = _random_predictor(kind, d, 40, 8, 0)
    doc = _json_round_trip(predictor_to_dict(pred))
    breaches, paths = [], list(_key_paths(doc))
    for path in paths:
        *parents, leaf = path
        value = functools.reduce(dict.get, parents, doc)[leaf]
        mutations = dict(_REPLACEMENTS)
        if isinstance(value, list) and value:
            mutations.update(grown=value + value[-1:], shrunk=value[:-1])
        for name, new in mutations.items():
            bad = copy.deepcopy(doc)
            parent = functools.reduce(dict.get, parents, bad)
            if new is _DROP:
                del parent[leaf]
            else:
                parent[leaf] = copy.deepcopy(new)
            breach = _contract_breach(bad, test)
            if breach:
                breaches.append((".".join(path), name, breach))
    assert ("score", "kind") in paths
    assert not breaches, breaches


class _ConstantRegressor(Regressor):
    """A fitted regressor of a kind no artifact stores: zero at every input."""

    kind, p, d, fit_tag = "constant", 1, 2, "none"

    def predict_rows(self, X):
        return np.zeros((np.atleast_2d(X).shape[0], 2))


def _l2_predictor(reg):
    fn = make_score_function("merge_l2", regressor=reg)
    return calibrate(fn, synth_dataset("gaussian", 20, 2, seed=1, tag="cal"), alpha=0.2)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: save_predictor(_l2_predictor(_ConstantRegressor()), tmp / "p.json"),
     ParamError, "cannot serialize regressor kind _ConstantRegressor"),
    (lambda tmp: save_predictor(
        _l2_predictor(fit_regressor(synth_dataset("gaussian", 20, 2), "ridge_linear")), tmp),
     ParamError, "cannot write model"),
], ids=["unknown-regressor", "into-a-directory"])
def test_refused_saves(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error and message in str(info.value)
