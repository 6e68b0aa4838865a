"""Generated inputs from outside the program are refused with ParamError or used.

The strategies read the package's own tables (the config sections' defaults,
each generator's params, each regressor's parameters) and the key paths of the
artifacts the writer wrote, so a key added to one of them is generated here
with no edit to this file.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from otcp import BenchConfig, ParamError, bench, data
from otcp.cli import main
from otcp.serialize import predictor_from_dict

_GOLDEN = {name: json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
           for name in ("otcp_v3", "merge_mahalanobis_v3")}

_NUMBERS = (st.floats(-3.0, 3.0) | st.integers(-2, 6)
            | st.sampled_from([math.nan, math.inf, -math.inf, 1e308]))
_SCALARS = _NUMBERS | st.none() | st.booleans() | st.text(max_size=2)
# nested lists of any depth and raggedness, some of them well-formed arrays
_ARRAYS = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=10)
_MATRICES = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d),
                       min_size=1, max_size=3))
_IDENTITIES = st.integers(1, 3).map(lambda d: np.eye(d).tolist())
_VALUES = _SCALARS | _ARRAYS | _MATRICES | _IDENTITIES | st.just({})


def _section(defaults: dict, values: dict | None = None):
    """A config section: each key of `defaults` left out, at its default or another
    value (from `values` for that key, else from _VALUES)."""
    values = values or {}
    return st.fixed_dictionaries({}, optional={
        key: st.just(default) | values.get(key, _VALUES) for key, default in defaults.items()})


@st.composite
def _configs(draw):
    """A config whose dataset kind, generator and regressor kind come from the tables,
    with one section, or the generator's params, generated key by key."""
    section = draw(st.sampled_from(["dataset", "params", "regressor", "otcp"]))
    kind = (draw(st.sampled_from(sorted(bench.DATASET_DEFAULTS))) if section == "dataset"
            else "synthetic")
    generator = draw(st.sampled_from(sorted(data._SYNTH_PARAMS)))
    regressor = draw(st.sampled_from(sorted(data._REGRESSORS)))
    # a small n keeps every run short; a csv dataset reads no n or generator
    cfg = {"dataset": ({"kind": kind, "generator": generator, "n": 40}
                       if kind == "synthetic" else {"kind": kind}),
           "regressor": {"kind": regressor}}
    if section == "dataset":
        cfg["dataset"].update(draw(_section(bench.DATASET_DEFAULTS[kind], {
            "kind": st.just(kind), "n": st.integers(-1, 60), "d": st.integers(0, 3)})))
    elif section == "params":
        keys = ("p", "slope", *data._SYNTH_PARAMS[generator])
        cfg["dataset"]["params"] = draw(
            st.fixed_dictionaries({}, optional={key: _VALUES for key in keys}))
    elif section == "regressor":
        cfg["regressor"].update(draw(_section(data._REGRESSORS[regressor][1])))
    elif section == "otcp":
        cfg["otcp"] = draw(_section(bench.OTCP_DEFAULTS))
    return cfg


def _synthetic(generator, params):
    return {"dataset": {"kind": "synthetic", "generator": generator, "n": 200,
                        "params": params}}


_TWO_MEANS = [[0, 0], [1, 1]]
# configs that ended a run with a numpy error and a traceback, not a ParamError
_PROBES = [
    _synthetic("gaussian", {"cov": "x"}),
    _synthetic("gaussian", {"cov": [[1, 0], [0]]}),
    _synthetic("mixture", {"means": "x"}),
    _synthetic("mixture", {"means": [[0, 0], None]}),
    _synthetic("mixture", {"means": {}}),
    _synthetic("mixture", {"covs": "x"}),
    _synthetic("mixture", {"means": _TWO_MEANS, "weights": [None, 0.5]}),
    _synthetic("mixture", {"means": _TWO_MEANS, "weights": "ab"}),
    _synthetic("mixture", {"means": _TWO_MEANS, "covs": [np.eye(2).tolist()]}),
]


def _probe_examples(test):
    for cfg in _PROBES:
        test = example(raw=cfg)(test)
    return test


@_probe_examples
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(raw=_configs())
def test_a_generated_config_loads_its_data_or_is_refused(raw):
    try:
        BenchConfig.from_dict(raw).load_dataset(0)
    except ParamError:
        pass


@_probe_examples
@settings(derandomize=True, database=None, max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_configs())
def test_a_generated_config_runs_or_exits_2(tmp_path, monkeypatch, raw):
    monkeypatch.chdir(tmp_path)
    cfg = {**raw, "methods": ["merge_l2"], "seeds": [0], "save_models": False}
    Path("cfg.json").write_text(json.dumps(cfg))
    try:
        code = main(["bench", "run", "--config", "cfg.json", "--output-dir", "out"])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2)


def _paths(value, prefix=()):
    """The path of every key, and of the first entry of every list, in a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value:
        items = [(0, value[0])]
    else:
        return
    for key, inner in items:
        yield prefix + (key,)
        yield from _paths(inner, prefix + (key,))


_MUTATIONS = [(name, path) for name, doc in sorted(_GOLDEN.items()) for path in _paths(doc)]
_X, _Y = [[0.1], [0.5], [0.9]], [[0.0, 0.0], [0.5, 1.0], [-1.0, 2.0]]


@example(mutation=("otcp_v3", ("score", "map", "g", 0)), value=1e308)
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(mutation=st.sampled_from(_MUTATIONS), value=_VALUES)
def test_a_mutated_artifact_is_refused_or_scores_finitely(mutation, value):
    name, (*parents, leaf) = mutation
    doc = copy.deepcopy(_GOLDEN[name])
    parent = doc
    for key in parents:
        parent = parent[key]
    parent[leaf] = value
    try:
        pred = predictor_from_dict(doc)
        with np.errstate(all="ignore"):  # an overflow is judged by the scores it leaves
            scores = pred.score_fn.score_rows(_X, _Y)
            inside = pred.contains_rows(_X, _Y)
    except ParamError:
        return
    assert np.isfinite(scores).all()
    assert inside.shape == (len(_Y),) and inside.dtype == bool
