"""Versioned JSON artifacts for fitted maps and calibrated predictors.

Arrays are stored as nested lists with repr-precision floats, so a round trip
reproduces every value exactly. Predictor files embed everything needed to
score and contour without refitting: regressor state, whitener, quantile
predictor, or the full transport map (potentials, grid, standardized source,
standardizer).

Files are strict JSON in format v3, the one format read: a file or map of
any other version is refused with a ParamError naming it. An infinite
threshold, which calibration returns when alpha < 1/(n+1), is written as
null. A map stores its grid as the radius ladder, the unit directions and
the origin count, and the grid points are rebuilt from them on load. A
whitener is its matrix plus the tag of the residual rows it was estimated on.
Every array goes through errors._array, which refuses one that is not numeric,
has another shape or holds NaN or infinity. Loading checks every map array's
shape against the others and the residual bounding box against the score's
dimension, and requires every key the writer writes (tags included), each tag
and map origin a string or null, and each scalar of its kind (no integer is
truncated), raising ParamError; a missing key, a key such as score.map.grid
that holds no object, or a tag of another type, is named by its path. The
scalars are checked where their objects are built: alpha and threshold in
CalibratedPredictor, and k, lam, alpha_lo, alpha_hi, epsilon and n_o in
theirs. A predictor file that cannot be read, is not UTF-8 JSON or is not an
object is a ParamError naming it, and save_predictor raises ParamError naming
a path it cannot write.
Both k-NN models go through one codec, and a map's `origin` key holds its
fit_tag, the tag of the residual rows it was fitted on.

A predictor file is the strict JSON text of its document, each array written
as nested lists, plus a newline. save_predictor builds that text piece by piece
and joins it once, so the saves of one bench seed pass one memo and encode each
array their models share (the k-NN training rows) once; the file bytes do not
depend on the memo.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .conformal import CalibratedPredictor, Whitener, make_score_function
from .data import _REGRESSORS, Dataset, KnnMeanRegressor, KnnQuantilePredictor, RidgeRegressor
from .entropic import EntropicMap
from .errors import (ParamError, _array, _choice, _file_errors, _integer, _object, _real, _tag,
                     _write_text)
from .sinkhorn import DualPotentials, OtProblem, Standardizer
from .sphere import SphericalGrid

MAP_FORMAT = "entropic-map"
PREDICTOR_FORMAT = "conformal-predictor"
VERSION = 3


class _Section(dict):
    """A loaded artifact object whose missing keys raise ParamError naming their path.

    Objects nested in it are read as _Sections too, so a key missing anywhere
    in a predictor file is reported by its full path from the file's root.
    """

    def __init__(self, doc, path: str = ""):
        super().__init__(_object(doc, f"artifact {path[:-1] or 'document'}"))
        self.path = path

    def __getitem__(self, key):
        if key not in self:
            raise ParamError(f"artifact has no {self.path}{key}")
        value = super().__getitem__(key)
        return _Section(value, f"{self.path}{key}.") if isinstance(value, dict) else value

    def section(self, key) -> "_Section":
        """The object at `key`; anything else there raises ParamError naming its path."""
        return _Section(self[key], f"{self.path}{key}.")

    def tag(self, key) -> str | None:
        """The tag at `key`, a string or None; anything else raises ParamError naming it."""
        return _tag(self[key], f"artifact {self.path}{key}")


def _arr(a) -> np.ndarray:
    """An array leaf of a document, written as nested lists."""
    return np.asarray(a, dtype=float)


def _encode(value, encoded: dict, out: list) -> None:
    """Append the strict JSON text of `value`, each array leaf as nested lists, to `out`,
    piece by piece. The text of each array leaf is read from `encoded` under the array's
    id, or stored there with the array, which keeps the id from being reused while it is
    kept."""
    if isinstance(value, dict):
        sep = "{"
        for key, v in value.items():
            out.append(f"{sep}{json.dumps(key)}: ")
            _encode(v, encoded, out)
            sep = ", "
        out.append("}" if value else "{}")
    elif isinstance(value, np.ndarray):
        entry = encoded.get(id(value))
        if entry is None:
            entry = encoded[id(value)] = (value, json.dumps(value.tolist(), allow_nan=False))
        out.append(entry[1])
    else:
        out.append(json.dumps(value, allow_nan=False))


def _check_header(doc: dict, expected: str):
    if doc.get("format") != expected or doc.get("version") != VERSION:
        raise ParamError(
            f"expected {expected} v{VERSION}, got {doc.get('format')} v{doc.get('version')}")


# ---------------------------------------------------------------------------
# Regressor / quantile predictor state
# ---------------------------------------------------------------------------

def _knn_to_dict(model, params: dict) -> dict:
    """A k-NN model: its own parameters, then the training rows and their tag."""
    return {**params, "X": _arr(model.train.features), "Y": _arr(model.train.targets),
            "tag": model.fit_tag}


def _knn_from_dict(model, doc: dict):
    X, Y = (_array(doc[key], f"k-NN {key}", (None, None)) for key in ("X", "Y"))
    return model.fit(Dataset(X, Y, tag=doc.tag("tag")))


def _regressor_to_dict(reg) -> dict:
    if isinstance(reg, KnnMeanRegressor):
        return _knn_to_dict(reg, {"kind": reg.kind, "k": reg.k})
    if isinstance(reg, RidgeRegressor):
        return {"kind": reg.kind, "lam": reg.lam, "coef": _arr(reg.coef),
                "p": reg.p, "d": reg.d, "tag": reg.fit_tag}
    raise ParamError(f"cannot serialize regressor kind {type(reg).__name__}")


def _regressor_from_dict(doc: dict):
    if _choice(doc["kind"], "regressor kind", _REGRESSORS) == "knn_mean":
        return _knn_from_dict(KnnMeanRegressor(doc["k"]), doc)
    reg = RidgeRegressor(doc["lam"])
    reg.p, reg.d = _integer(doc["p"], "ridge p", 1), _integer(doc["d"], "ridge d", 1)
    reg.coef = _array(doc["coef"], "ridge coef", (reg.p + 1, reg.d))
    reg.fit_tag = doc.tag("tag")
    return reg


def _quantile_to_dict(qp: KnnQuantilePredictor) -> dict:
    return _knn_to_dict(qp, {"k": qp.k, "alpha_lo": qp.alpha_lo, "alpha_hi": qp.alpha_hi})


def _quantile_from_dict(doc: dict) -> KnnQuantilePredictor:
    return _knn_from_dict(KnnQuantilePredictor(doc["k"], doc["alpha_lo"], doc["alpha_hi"]),
                          doc)


# ---------------------------------------------------------------------------
# Entropic map
# ---------------------------------------------------------------------------

def _map_to_dict(emap: EntropicMap) -> dict:
    grid = emap.grid
    return {
        "format": MAP_FORMAT, "version": VERSION,
        "epsilon": emap.epsilon,
        "f": _arr(emap.potentials.f), "g": _arr(emap.potentials.g),
        "iterations": emap.potentials.iterations,
        "marginal_error": emap.potentials.marginal_error,
        "converged": emap.potentials.converged,
        "source_std": _arr(emap.source_std),
        "standardizer": {"mean": _arr(emap.standardizer.mean),
                         "scale": _arr(emap.standardizer.scale)},
        "grid": {"n_o": grid.n_o, "radii": _arr(grid.radii),
                 "directions": _arr(grid.directions)},
        "origin": emap.fit_tag,
    }


def map_from_dict(doc: dict) -> EntropicMap:
    if not isinstance(doc, _Section):
        doc = _Section(doc)
    _check_header(doc, MAP_FORMAT)
    g = doc.section("grid")
    grid = SphericalGrid(g["radii"], g["directions"], g["n_o"])
    dim = grid.dim
    prob = OtProblem(_array(doc["source_std"], "source_std", (None, dim)), grid.points,
                     doc["epsilon"])
    if not isinstance(doc["converged"], (bool, np.bool_)):
        raise ParamError(f"converged must be true or false, got {doc['converged']!r}")
    pot = DualPotentials(_array(doc["f"], "f", (prob.n,)), _array(doc["g"], "g", (grid.m,)),
                         prob, _integer(doc["iterations"], "iterations", 0),
                         _real(doc["marginal_error"], "marginal_error"), doc["converged"])
    sd = doc.section("standardizer")
    scale = _array(sd["scale"], "standardizer scale", (dim,))
    if (scale <= 0).any():
        raise ParamError("standardizer scale must be positive")
    std = Standardizer(_array(sd["mean"], "standardizer mean", (dim,)), scale)
    return EntropicMap(pot, grid, std, doc.tag("origin"))


def _whitener_to_dict(w: Whitener) -> dict:
    return {"matrix": _arr(w.matrix), "tag": w.fit_tag}


def _whitener_from_dict(doc: dict) -> Whitener:
    return Whitener(doc["matrix"], doc.tag("tag"))


# ---------------------------------------------------------------------------
# Calibrated predictors
# ---------------------------------------------------------------------------

# score component attribute -> (JSON key, encode, decode)
_COMPONENTS = {
    "regressor": ("regressor", _regressor_to_dict, _regressor_from_dict),
    "quantile_predictor": ("quantile_predictor", _quantile_to_dict, _quantile_from_dict),
    "whitener": ("whitener", _whitener_to_dict, _whitener_from_dict),
    "transport_map": ("map", _map_to_dict, map_from_dict),
}


def _score_fn_to_dict(fn) -> dict:
    doc = {"kind": fn.kind}
    for name in fn.components:
        key, encode, _ = _COMPONENTS[name]
        doc[key] = encode(getattr(fn, name))
    return doc


def _score_fn_from_dict(doc: _Section):
    parts = {name: decode(doc.section(key)) for name, (key, _, decode) in _COMPONENTS.items()
             if key in doc}
    return make_score_function(doc["kind"], **parts)


def _predictor_to_dict(pred: CalibratedPredictor) -> dict:
    return {
        "format": PREDICTOR_FORMAT, "version": VERSION,
        "alpha": pred.alpha,
        "threshold": None if pred.threshold == math.inf else pred.threshold,
        "cal_scores": _arr(pred.cal_scores),
        "residual_low": _arr(pred.residual_low),
        "residual_high": _arr(pred.residual_high),
        "score": _score_fn_to_dict(pred.score_fn),
    }


def predictor_from_dict(doc: dict) -> CalibratedPredictor:
    doc = _Section(doc)
    _check_header(doc, PREDICTOR_FORMAT)
    score_fn = _score_fn_from_dict(doc.section("score"))
    threshold = doc["threshold"]
    # earlier files carry "band": null; a set is {y: score <= threshold}, with no PIT band
    if doc.get("band") is not None:
        raise ParamError(f"band must be absent or null, got {doc['band']!r}")
    low = _array(doc["residual_low"], "residual_low", (score_fn.d,))
    high = _array(doc["residual_high"], "residual_high", (score_fn.d,))
    if (low > high).any():
        raise ParamError("residual_low exceeds residual_high")
    return CalibratedPredictor(
        score_fn, doc["alpha"], math.inf if threshold is None else threshold,
        _array(doc["cal_scores"], "cal_scores", (None,)), low, high)


def save_predictor(pred: CalibratedPredictor, path, encoded: dict | None = None) -> None:
    """Write `pred` to `path` as the strict JSON text of its document plus a newline.
    Saves that pass one `encoded` dict encode an array they share once; the dict keeps
    each array's text, so no array may change while it is in use."""
    pieces = []
    _encode(_predictor_to_dict(pred), {} if encoded is None else encoded, pieces)
    pieces.append("\n")
    _write_text(path, "".join(pieces), "model")


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at `path`; `what` names the file in errors.

    A file that cannot be opened, is not UTF-8 JSON or holds something other
    than an object raises ParamError naming it, never a default.
    """
    with _file_errors(f"read {what}", path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return _object(doc, f"{what} {path}")


def load_predictor(path) -> CalibratedPredictor:
    return predictor_from_dict(read_json_object(path, "model"))
