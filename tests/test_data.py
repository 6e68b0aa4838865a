import csv
import io
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcp import data
from otcp import (
    Dataset,
    DimensionError,
    KnnQuantilePredictor,
    NotFittedError,
    ParamError,
    ParseError,
    Regressor,
    ScoreMatrix,
    SplitSpec,
    fit_quantile_predictor,
    fit_regressor,
    load_dataset_csv,
    residuals,
    split_dataset,
    synth_dataset,
    write_dataset_csv,
)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_load_csv_shapes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n13,14,15\n")
    ds = load_dataset_csv(path, d_out=2)
    assert (ds.n, ds.p, ds.d) == (5, 1, 2)
    assert ds.feature_names == ["a"] and ds.target_names == ["b", "c"]


def _csv_with_bad_row(row, text, n=600):
    # n good two-cell data rows, data row `row` replaced by `text`
    return "a,b\n" + "".join(f"{text}\n" if r == row else f"{r}.5,-{r}\n"
                              for r in range(1, n + 1))


_B = data._CSV_BLOCK_ROWS


@pytest.mark.parametrize("text, message, row, col", [
    ("a,b\n1,2\nx,4\n", "row 2, column 0: non-numeric cell 'x'", 2, 0),
    ("a,b\n1,2\n3,NaN\n5,6\n", "row 2, column 1: non-finite cell 'NaN'", 2, 1),
    ("a,b\n1,-inf\n", "row 1, column 1: non-finite cell '-inf'", 1, 1),
    ("a,b\n1,\n", "row 1, column 1: non-numeric cell ''", 1, 1),
    ("a,b,c\n1,2,3\n4,5\n", "row 2 has 2 cells, expected 3", 2, 2),
    ("a,b\n1,2\n3,4,5\n", "row 2 has 3 cells, expected 2", 2, 3),
    ("a,b\n1,2\n\n3,4\n", "row 2 has 0 cells, expected 2", 2, 0),
    ("a,b\n1,2\nx,4\n5\n", "row 2, column 0: non-numeric cell 'x'", 2, 0),
    ("", "empty CSV file", 0, 0),
    ("a,b\n", "CSV has a header but no data rows", 0, 0),
    (_csv_with_bad_row(1, "q,1"), "row 1, column 0: non-numeric cell 'q'", 1, 0),
    (_csv_with_bad_row(600, "1,q"), "row 600, column 1: non-numeric cell 'q'", 600, 1),
    (_csv_with_bad_row(_B, "1,nan"), f"row {_B}, column 1: non-finite cell 'nan'", _B, 1),
    (_csv_with_bad_row(_B + 1, "1,nan"), f"row {_B + 1}, column 1: non-finite cell 'nan'",
     _B + 1, 1),
    (_csv_with_bad_row(_B, "1"), f"row {_B} has 1 cells, expected 2", _B, 1),
    (_csv_with_bad_row(_B + 1, "1,2,3"), f"row {_B + 1} has 3 cells, expected 2", _B + 1, 3),
], ids=["text", "nan", "inf", "empty_cell", "short", "long", "blank", "bad_before_short",
        "empty_file", "header_only", "first_row", "last_row", "block_end", "block_start",
        "short_at_block_end", "long_at_block_start"])
def test_load_csv_reports_the_first_bad_cell(tmp_path, text, message, row, col):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_dataset_csv(path, d_out=1)
    assert (str(exc.value), exc.value.row, exc.value.col) == (message, row, col)


def test_load_csv_reads_what_float_reads(tmp_path):
    # every cell goes through float(): surrounding spaces and digit underscores parse
    path = tmp_path / "d.csv"
    path.write_text("a,b\n 1 ,2_0\n-0,1e3\n")
    ds = load_dataset_csv(path, d_out=1)
    assert ds.features.tolist() == [[1.0], [-0.0]] and ds.targets.tolist() == [[20.0], [1e3]]
    assert np.signbit(ds.features[1, 0])


@pytest.mark.parametrize("tail", [b"\xff", b"1" * (csv.field_size_limit() + 1)],
                         ids=["not_utf8", "field_over_csv_limit"])
def test_load_csv_unreadable_rows_are_param_errors(tmp_path, tail):
    # a block is read before it is parsed, so a bad cell in the same block may be
    # reported instead; either way the file is refused as bad input
    path = tmp_path / "d.csv"
    for bad_cell in (b"2", b"x"):
        path.write_bytes(b"a,b\n1," + bad_cell + b"\n2," + tail + b"\n")
        with pytest.raises(ParamError):
            load_dataset_csv(path, d_out=1)


def test_load_csv_dimension_and_missing_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DimensionError):
        load_dataset_csv(path, d_out=2)
    with pytest.raises(ParamError, match="cannot read dataset .*nope.csv"):
        load_dataset_csv(tmp_path / "nope.csv", d_out=1)


def _reference_csv_bytes(ds):
    # one csv.writer row per data row, each cell repr() of its float
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(ds.feature_names + ds.target_names)
    for x, y in zip(ds.features, ds.targets):
        writer.writerow([repr(float(v)) for v in x] + [repr(float(v)) for v in y])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("n", [1, data._CSV_BLOCK_ROWS, 2 * data._CSV_BLOCK_ROWS + 3])
def test_csv_writes_reference_bytes_and_round_trips_exactly(tmp_path, n):
    rng = np.random.default_rng(n)
    for p, d in ((1, 1), (3, 2), (2, 3)):
        M = rng.standard_normal((n, p + d)) * 10.0 ** rng.integers(-300, 300, (n, p + d))
        M.flat[rng.integers(M.size, size=4)] = [-0.0, 5e-324, 1e308, -1e308]
        names = ["x,1", 'q"t', "sp ace", "n\nl", "é", "plain"][:p + d]
        ds = Dataset(M[:, :p], M[:, p:], names[:p], names[p:])
        path = tmp_path / "rt.csv"
        write_dataset_csv(ds, path)
        assert path.read_bytes() == _reference_csv_bytes(ds)
        back = load_dataset_csv(path, d_out=d)
        assert back.features.tobytes() == ds.features.tobytes()  # signs of zero too
        assert back.targets.tobytes() == ds.targets.tobytes()
        assert (back.feature_names, back.target_names) == (names[:p], names[p:p + d])


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def test_split_exact_division():
    ds = synth_dataset("gaussian", 100, 2, seed=0)
    parts = split_dataset(ds, SplitSpec((0.4, 0.2, 0.2, 0.2), seed=7))
    assert [p.n for p in parts] == [40, 20, 20, 20]


def test_split_floor_remainder_to_train():
    # oracle: sizes are floor(f*n) with the leftover row going to train
    for n, expected in [(10, [5, 2, 2, 1]), (11, [6, 2, 2, 1])]:
        floors = [math.floor(f * n + 1e-9) for f in (0.5, 0.2, 0.2, 0.1)]
        floors[0] += n - sum(floors)
        assert floors == expected
        ds = synth_dataset("gaussian", n, 2, seed=0)
        parts = split_dataset(ds, SplitSpec((0.5, 0.2, 0.2, 0.1), seed=1))
        assert [p.n for p in parts] == expected


def test_split_deterministic():
    ds = synth_dataset("gaussian", 53, 2, seed=3)
    a = split_dataset(ds, SplitSpec(seed=11))
    b = split_dataset(ds, SplitSpec(seed=11))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.features, pb.features)
        assert np.array_equal(pa.targets, pb.targets)


def test_split_errors():
    ds = synth_dataset("gaussian", 6, 2, seed=0)
    with pytest.raises(ParamError, match="calib/test splits empty for n=6"):
        split_dataset(ds, SplitSpec((0.97, 0.01, 0.01, 0.01), seed=0))
    with pytest.raises(ParamError):
        SplitSpec((0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ParamError):
        SplitSpec((0.5, 0.2, 0.2, 0.2))


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 200),
       st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
       st.integers(0, 2**32 - 1))
def test_split_partitions_indices(n, raw, seed):
    fractions = tuple(r / sum(raw) for r in raw)
    ds = synth_dataset("gaussian", n, 2, seed=0)
    try:
        parts = split_dataset(ds, SplitSpec(fractions, seed))
    except ParamError:
        return
    assert sum(p.n for p in parts) == n
    # features are distinct rows with probability 1, so row multisets identify indices
    stacked = np.vstack([p.features for p in parts])
    assert np.array_equal(np.sort(stacked, axis=0), np.sort(ds.features, axis=0))


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def test_gaussian_residual_covariance_lln():
    ds = synth_dataset("gaussian", 10000, 2, {"slope": 0.0}, seed=9)
    cov = np.cov(ds.targets.T)
    assert np.abs(cov - np.eye(2)).max() < 0.05


def test_banana_deterministic():
    a = synth_dataset("banana", 4, 2, seed=123)
    b = synth_dataset("banana", 4, 2, seed=123)
    assert a.targets.tobytes() == b.targets.tobytes()
    assert a.features.tobytes() == b.features.tobytes()
    assert a.targets.shape == (4, 2)


def test_single_component_mixture_equals_gaussian():
    cov = [[2.0, 0.5], [0.5, 1.0]]
    g = synth_dataset("gaussian", 200, 2, {"cov": cov}, seed=77)
    m = synth_dataset("mixture", 200, 2,
                      {"means": [[0.0, 0.0]], "weights": [1.0], "cov": cov}, seed=77)
    assert g.targets.tobytes() == m.targets.tobytes()


def test_non_spd_covariance_rejected():
    with pytest.raises(ParamError):
        synth_dataset("gaussian", 10, 2, {"cov": [[1.0, 2.0], [2.0, 1.0]]}, seed=0)
    with pytest.raises(ParamError):
        synth_dataset("gaussian", 10, 2, {"cov": [[1.0, 0.5], [0.2, 1.0]]}, seed=0)


def test_banana_requires_d2():
    with pytest.raises(ParamError):
        synth_dataset("banana", 10, 3, seed=0)


def test_synth_rejects_scalar_params_it_cannot_use():
    # scalars were cast with int() or float(), so p 1.5 and True ran as p=1
    for kind, params in [("gaussian", {"p": 1.5}), ("gaussian", {"p": True}),
                         ("gaussian", {"p": 0}), ("mixture", {"p": "2"}),
                         ("gaussian", {"slope": "1"}), ("mixture", {"slope": True}),
                         ("gaussian", {"slope": math.nan}), ("banana", {"spread": "2"}),
                         ("banana", {"curvature": None}), ("banana", {"noise": True})]:
        with pytest.raises(ParamError):
            synth_dataset(kind, 10, 2, params, seed=0)
        with pytest.raises(ParamError):
            data.synth_params(kind, 2, params)
    with pytest.raises(ParamError, match="fixed at d=2"):
        data.synth_params("banana", 3, {})
    assert synth_dataset("gaussian", 10, 2, {"p": np.int64(3), "slope": 2}, seed=0).p == 3


def test_synth_rejects_params_its_kind_does_not_read():
    for kind, params in [("gaussian", {"nosie": 1.0}), ("gaussian", {"slop": 3}),
                         ("gaussian", {"noise": 0.3}), ("banana", {"cov": [[1.0]]}),
                         ("mixture", {"spread": 1.0})]:
        with pytest.raises(ParamError, match="reads no params"):
            synth_dataset(kind, 10, 2, params, seed=0)
    with pytest.raises(ParamError, match="unknown synthetic kind"):
        synth_dataset("no_such_kind", 10, 2, seed=0)
    # every key a kind reads is accepted
    synth_dataset("gaussian", 10, 2, {"p": 2, "slope": 0.5, "cov": np.eye(2)}, seed=0)
    synth_dataset("banana", 10, 2, {"p": 2, "slope": 0.5, "spread": 1.0,
                                    "curvature": 0.5, "noise": 0.1}, seed=0)
    synth_dataset("mixture", 10, 2, {"p": 2, "slope": 0.5, "means": [[0.0, 0.0]],
                                     "weights": [1.0], "covs": [np.eye(2)]}, seed=0)
    synth_dataset("mixture", 10, 2, {"cov": np.eye(2)}, seed=0)


# ---------------------------------------------------------------------------
# Regressors
# ---------------------------------------------------------------------------

def test_knn_all_neighbors_gives_global_mean():
    ds = synth_dataset("gaussian", 40, 2, seed=1)
    reg = fit_regressor(ds, "knn_mean", k=40)
    for x in ([0.1], [0.9], [55.0]):
        assert np.allclose(reg.predict_rows([x])[0], ds.targets.mean(axis=0))


def test_knn_single_point():
    ds = Dataset(np.array([[0.3]]), np.array([[2.0, -1.0]]))
    reg = fit_regressor(ds, "knn_mean", k=1)
    assert np.allclose(reg.predict_rows([[17.0]])[0], [2.0, -1.0])


def test_knn_k_too_large():
    ds = synth_dataset("gaussian", 5, 2, seed=1)
    with pytest.raises(ParamError):
        fit_regressor(ds, "knn_mean", k=6)


def test_ridge_recovers_exact_linear_model():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(50, 3))
    B = np.array([[1.5, -2.0], [0.0, 3.0], [2.5, 0.5]])
    c = np.array([0.7, -0.3])
    Y = X @ B + c
    reg = fit_regressor(Dataset(X, Y), "ridge_linear", lam=0.0)
    # closed-form least-squares oracle
    A = np.column_stack([X, np.ones(50)])
    oracle, *_ = np.linalg.lstsq(A, Y, rcond=None)
    assert np.abs(reg.coef - oracle).max() < 1e-8
    assert np.abs(reg.coef - np.vstack([B, c])).max() < 1e-8


def test_knn_prediction_in_neighbor_hull():
    ds = synth_dataset("gaussian", 60, 3, {"p": 2}, seed=6)
    reg = fit_regressor(ds, "knn_mean", k=7)
    rng = np.random.default_rng(0)
    for x in rng.uniform(size=(20, 2)):
        pred = reg.predict_rows(x[None])[0]
        d2 = ((ds.features - x) ** 2).sum(axis=1)
        neigh = ds.targets[np.argsort(d2, kind="stable")[:7]]
        assert (pred >= neigh.min(axis=0) - 1e-12).all()
        assert (pred <= neigh.max(axis=0) + 1e-12).all()


def test_fit_regressor_rejects_params_its_kind_does_not_take():
    ds = synth_dataset("gaussian", 30, 2, seed=1)
    with pytest.raises(ParamError):
        fit_regressor(ds, "knn_mean", k=5, lam=3.0)
    with pytest.raises(ParamError):
        fit_regressor(ds, "ridge_linear", k=5)
    with pytest.raises(ParamError):
        fit_regressor(ds, "no_such_kind")


def test_knn_mean_default_k_is_25():
    ds = synth_dataset("gaussian", 60, 2, seed=1)
    assert fit_regressor(ds, "knn_mean").k == 25


def test_knn_models_keep_the_training_dataset_once():
    ds = synth_dataset("gaussian", 30, 2, {"p": 3}, seed=1, tag="tr")
    for model in (fit_regressor(ds, "knn_mean", k=5),
                  fit_quantile_predictor(ds, 5, 0.1, 0.9)):
        assert model.train is ds
        assert (model.p, model.d, model.fit_tag) == (3, 2, "tr")
    unfitted = KnnQuantilePredictor(5, 0.1, 0.9)
    assert (unfitted.p, unfitted.d, unfitted.fit_tag) == (None, None, None)
    with pytest.raises(NotFittedError):
        unfitted.bounds_rows(np.zeros((1, 3)))
    with pytest.raises(DimensionError):
        model.bounds_rows(np.zeros((1, 2)))
    assert not isinstance(model, Regressor)


def test_shared_neighbors_reuses_a_search_until_rows_or_model_change(monkeypatch):
    searched = []
    inner = data._knn_indices
    monkeypatch.setattr(data, "_knn_indices",
                        lambda T, X, k: searched.append(len(X)) or inner(T, X, k))
    ds = synth_dataset("gaussian", 200, 2, {"p": 2}, seed=4)
    reg, qp = fit_regressor(ds, "knn_mean", k=5), fit_quantile_predictor(ds, 5, 0.1, 0.9)
    twin = fit_regressor(Dataset(ds.features, ds.targets), "knn_mean", k=5)
    X = synth_dataset("gaussian", 30, 2, {"p": 2}, seed=5).features
    memo = {}
    with data.shared_neighbors(memo):
        reg.predict_rows(X)
        qp.bounds_rows(X.copy())  # same Dataset, k and rows: reused
        assert len(searched) == 1
        twin.predict_rows(X)  # equal training rows, another Dataset: searched
        fit_regressor(ds, "knn_mean", k=6).predict_rows(X)  # another k: searched
        X[0] += 0.25  # rows changed in place: searched
        moved = reg.predict_rows(X)
        assert len(searched) == 4
        with data.shared_neighbors({}):  # an inner block sees only its own memo
            reg.predict_rows(X)
        assert len(searched) == 5 and data._NEIGHBOR_MEMO.get() is memo
    assert data._NEIGHBOR_MEMO.get() is None
    assert np.array_equal(moved, reg.predict_rows(X)) and len(searched) == 6
    assert len(memo) == 4 and not any(idx.flags.writeable for idx in memo.values())


def _knn_reference(train_X, train_Y, X, k):
    # direct differences per query, stable sort: ties go to the lower index
    return np.stack([train_Y[np.argsort(((train_X - x) ** 2).sum(axis=1),
                                        kind="stable")[:k]] for x in X])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(1, 10), st.integers(1, 3), st.integers(1, 40),
       st.sampled_from(["integer", "decimal", "continuous", "offset", "long"]), st.booleans(),
       st.integers(1, 1000), st.floats(0.0, 0.49), st.floats(0.51, 1.0),
       st.integers(0, 2**31 - 1))
def test_knn_models_match_direct_reference(n, p, d, q, features, all_rows, block,
                                           a_lo, a_hi, seed):
    rng = np.random.default_rng(seed)
    if features == "long":
        # one feature and a few hundred rows: the default slab share prunes
        n, p = int(rng.integers(100, 400)), 1
    k = n if all_rows else int(rng.integers(1, min(n, 30) + 1))
    if features == "integer" or p >= 8:
        # integer values on a small range force tied distances and sum exactly
        # in any order, so p >= 8 compares bit for bit as well
        def draw(rows):
            return rng.integers(-2, 3, size=(rows, p)).astype(float)
    elif features == "decimal":
        # one-decimal values give distances that tie in exact arithmetic but
        # round by the order of the sum, so the summation order must match
        def draw(rows):
            return rng.integers(-10, 11, size=(rows, p)) / 10
    elif features == "offset":
        # a spread of 1e-3 around 1e6: the slab ends xs -/+ radius round at 1e6's ulp
        def draw(rows):
            return 1e6 + 1e-3 * rng.standard_normal((rows, p))
    else:
        def draw(rows):
            return rng.standard_normal((rows, p))
    train = Dataset(draw(n), rng.standard_normal((n, d)))
    X = draw(q)
    neigh = _knn_reference(train.features, train.targets, X, k)
    # small block caps push q through several distance blocks; a slab share of 0
    # measures every training row, of 1 only the slabs, and the default picks per block
    for share in (0.0, 1.0, data._KNN_SLAB_SHARE):
        with (mock.patch.object(data, "_KNN_BLOCK_ENTRIES", block),
              mock.patch.object(data, "_KNN_SLAB_SHARE", share)):
            mean = fit_regressor(train, "knn_mean", k=k).predict_rows(X)
            lo, hi = fit_quantile_predictor(train, k, a_lo, a_hi).bounds_rows(X)
        assert np.array_equal(mean, neigh.mean(axis=1))
        assert np.array_equal(lo, np.quantile(neigh, a_lo, axis=1))
        assert np.array_equal(hi, np.quantile(neigh, a_hi, axis=1))


@pytest.mark.parametrize("features", ["integer", "decimal", "continuous"])
def test_nearest_first_matches_a_stable_sort(features):
    rng = np.random.default_rng(5)
    if features == "integer":
        train, X = rng.integers(-2, 3, (300, 2)) * 1.0, rng.integers(-2, 3, (200, 2)) * 1.0
    elif features == "decimal":
        train, X = rng.integers(-10, 11, (300, 2)) / 10, rng.integers(-10, 11, (200, 2)) / 10
    else:
        train, X = rng.standard_normal((300, 2)), rng.standard_normal((200, 2))
    d2 = ((X[:, None, :] - train[None]) ** 2).sum(axis=2)
    # one all-tied row makes a block that needs the tie trim in any case
    for block in (d2, np.vstack([d2, np.zeros(300)])):
        for k in (1, 7, 25, 300):
            with mock.patch.object(np, "cumsum", wraps=np.cumsum) as trim:
                near = data._nearest_first(block, k)
            assert np.array_equal(near, np.argsort(block, axis=1, kind="stable")[:, :k])
            # continuous rows tie only at their own k-th distance, so the trim is skipped
            if block is d2 and (features == "continuous" or k == 300):
                assert not trim.called
            if block is not d2 and k < 300:
                assert trim.called


def _measured_entries(train_X, X, k):
    # the (query, training row) distances the search computes, window bounds included
    with mock.patch.object(data, "_sq_distances", wraps=data._sq_distances) as measure:
        idx = data._knn_indices(data._knn_index(train_X), X, k)
    assert np.array_equal(idx, _knn_reference(train_X, np.arange(len(train_X)), X, k))
    return sum(call.args[3].size for call in measure.call_args_list)


def test_knn_measures_only_the_slab_when_it_is_narrow():
    rng = np.random.default_rng(4)
    # one uniform feature: each query's slab holds a few dozen of 800 rows
    assert _measured_entries(rng.uniform(size=(800, 1)), rng.uniform(size=(500, 1)),
                             25) < 0.15 * 500 * 800
    # three uniform features: the slabs hold most rows, so the block is screened and
    # only the rows within the screen's bound are measured, after the k window rows
    assert _measured_entries(rng.uniform(size=(800, 3)), rng.uniform(size=(500, 3)),
                             25) <= 500 * (25 + 2 * 25)


def test_knn_search_memory_stays_within_a_few_blocks():
    rng = np.random.default_rng(0)
    block_bytes = data._KNN_BLOCK_ENTRIES * 8
    # p=3 is screened, p=1 measures only each query's slab
    for p in (3, 1):
        train_X, X = rng.uniform(size=(1200, p)), rng.uniform(size=(4000, p))
        tracemalloc.start()
        try:
            idx = data._knn_indices(data._knn_index(train_X), X, 25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx.shape == (4000, 25)
        # two distance buffers, the screen's mask and the output come to about 2.7
        # blocks; a (q, n, p) difference tensor alone would be 115 MB
        assert peak < 3 * block_bytes


def _search_paths(train_X, X, k):
    """The search's indices, and each block's path: "slab", "screen" or "dense"."""
    log, measure, screen = [], data._sq_distances, data._screened

    def measured(rows, columns, idx, d2, sq):
        log.append(("measure", idx is None))
        return measure(rows, columns, idx, d2, sq)

    def screened(*args):
        cand = screen(*args)
        log.append(("screen", cand is not None))
        return cand

    with (mock.patch.object(data, "_sq_distances", measured),
          mock.patch.object(data, "_screened", screened)):
        idx = data._knn_indices(data._knn_index(train_X), X, k)
    paths = []
    while log:  # per block: the window, then maybe the screen, then the measured rows
        assert log.pop(0) == ("measure", False)
        if log[0][0] == "screen":
            paths.append("screen" if log.pop(0)[1] else "dense")
        else:
            paths.append("slab")
        assert log.pop(0) == ("measure", paths[-1] == "dense")
    return idx, paths


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.integers(1, 150), st.integers(1, 40), st.floats(0.0, 1.0),
       st.sampled_from(["normal", "decimal", "grid", "duplicated", "offset", "huge"]),
       st.integers(30, 3000), st.integers(0, 2**31 - 1))
def test_knn_screen_matches_a_stable_sort(p, n, q, k_share, kind, block, seed):
    rng = np.random.default_rng(seed)
    k = 1 + round(k_share * (n - 1))
    if kind == "grid":  # integer values: many exactly tied distances
        def draw(rows):
            return rng.integers(-2, 3, size=(rows, p)).astype(float)
    elif kind == "decimal":  # ties in exact arithmetic that rounding may split
        def draw(rows):
            return rng.integers(-10, 11, size=(rows, p)) / 10
    elif kind == "huge":  # every squared difference overflows
        def draw(rows):
            return rng.choice([-1e160, 1e160], (rows, p)) * 10 ** rng.uniform(0, 140, (rows, p))
    else:
        def draw(rows):
            return rng.standard_normal((rows, p))
    train_X, X = draw(n), draw(q)
    if kind == "duplicated":  # each training row repeated a few times
        train_X = train_X[rng.integers(0, max(1, n // 4), n)]
    if kind == "offset":  # a tenth of the rows 1e8 away widens every query's bound
        train_X[:max(1, n // 10)] += 1e8
    with (np.errstate(over="ignore"), mock.patch.object(data, "_KNN_BLOCK_ENTRIES", block),
          mock.patch.object(np, "matmul", wraps=np.matmul) as product):
        idx, paths = _search_paths(train_X, X, k)
        assert np.array_equal(idx, _knn_reference(train_X, np.arange(n), X, k))
    if kind == "huge":  # the bound is not finite: every block is dense, with no product
        assert set(paths) == {"dense"} and not product.called
    if kind == "offset" and n >= 3:  # the screen keeps most rows, so the block runs dense
        assert "screen" not in paths


def test_knn_screen_without_a_finite_bound_adds_no_warning():
    rng = np.random.default_rng(2)
    train_X, X = 1e200 * rng.standard_normal((300, 3)), 1e200 * rng.standard_normal((50, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = data._knn_index(train_X)  # the fit warns of nothing
    with pytest.warns(RuntimeWarning) as searched:
        data._knn_indices(index, X, 5)
    # measuring every row directly overflows the same way; the screen adds nothing
    d2, sq = np.empty((50, 300)), np.empty((50, 300))
    with pytest.warns(RuntimeWarning) as direct:
        data._sq_distances(X, index.columns[:, :300], None, d2, sq)
    assert {str(w.message) for w in searched} == {str(w.message) for w in direct}


def test_predictors_reject_nonfinite_queries():
    ds = synth_dataset("gaussian", 30, 2, {"p": 2}, seed=1)
    for query in (fit_regressor(ds, "knn_mean", k=5).predict_rows,
                  fit_regressor(ds, "ridge_linear").predict_rows,
                  fit_quantile_predictor(ds, 5, 0.1, 0.9).bounds_rows):
        for bad in (np.nan, np.inf):
            with pytest.raises(ParamError):
                query(np.array([[0.5, 0.5], [0.2, bad]]))


# ---------------------------------------------------------------------------
# Quantile predictor
# ---------------------------------------------------------------------------

def test_quantile_interpolation_hand_value():
    # four neighbors with dim-0 values {1,2,3,4}; type-7 quantile at 0.25 is 1.75
    X = np.array([[0.0], [0.01], [0.02], [0.03], [9.9]])
    Y = np.array([[1.0], [2.0], [3.0], [4.0], [100.0]])
    qp = fit_quantile_predictor(Dataset(X, Y), k=4, alpha_lo=0.25, alpha_hi=0.75)
    lo, hi = qp.predict_bounds([0.015])
    assert lo[0] == pytest.approx(1.75, abs=1e-12)
    assert hi[0] == pytest.approx(3.25, abs=1e-12)


def test_quantile_k1_returns_neighbor():
    ds = synth_dataset("gaussian", 30, 2, seed=2)
    qp = fit_quantile_predictor(ds, k=1, alpha_lo=0.1, alpha_hi=0.9)
    lo, hi = qp.predict_bounds(ds.features[4])
    assert np.allclose(lo, ds.targets[4]) and np.allclose(hi, ds.targets[4])


def test_quantile_extreme_levels_min_max():
    ds = synth_dataset("gaussian", 25, 2, seed=3)
    qp = fit_quantile_predictor(ds, k=25, alpha_lo=0.0, alpha_hi=1.0)
    lo, hi = qp.predict_bounds([0.5])
    assert np.allclose(lo, ds.targets.min(axis=0))
    assert np.allclose(hi, ds.targets.max(axis=0))


def test_quantile_level_ordering_rejected():
    ds = synth_dataset("gaussian", 10, 2, seed=0)
    with pytest.raises(ParamError):
        fit_quantile_predictor(ds, k=5, alpha_lo=0.9, alpha_hi=0.1)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.55, 0.85), st.floats(0.86, 0.99))
def test_quantile_monotone_in_level(level_a, level_b):
    ds = synth_dataset("gaussian", 50, 2, seed=8)
    qa = fit_quantile_predictor(ds, k=12, alpha_lo=0.2, alpha_hi=level_a)
    qb = fit_quantile_predictor(ds, k=12, alpha_lo=0.2, alpha_hi=level_b)
    for x in ([0.2], [0.5], [0.8]):
        _, ua = qa.predict_bounds(x)
        _, ub = qb.predict_bounds(x)
        assert (ub >= ua - 1e-12).all()


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def test_residuals_zero_for_perfect_regressor():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(30, 2))
    Y = X @ np.array([[1.0, 2.0], [3.0, -1.0]]) + 0.5
    ds = Dataset(X, Y)
    reg = fit_regressor(ds, "ridge_linear", lam=0.0)
    assert np.abs(residuals(ds, reg).scores).max() < 1e-9


def test_residuals_constant_regressor_affine():
    ds = synth_dataset("gaussian", 20, 2, seed=7)
    reg = fit_regressor(ds, "knn_mean", k=20)  # predicts the global mean everywhere
    c = ds.targets.mean(axis=0)
    assert np.allclose(residuals(ds, reg).scores, ds.targets - c)


def test_knn1_training_residuals_zero():
    # the tie-break must let a training point pick itself as nearest neighbor
    ds = synth_dataset("gaussian", 25, 2, seed=9)
    reg = fit_regressor(ds, "knn_mean", k=1)
    assert np.abs(residuals(ds, reg).scores).max() == 0.0


def test_residuals_carry_the_rows_dataset_tag():
    ds = synth_dataset("gaussian", 20, 2, seed=7, tag="fit_rows")
    reg = fit_regressor(synth_dataset("gaussian", 20, 2, seed=8), "knn_mean", k=5)
    assert residuals(ds, reg).origin == "fit_rows"


def test_dataset_rejects_nonfinite():
    with pytest.raises(ParamError):
        Dataset(np.array([[1.0], [np.nan]]), np.array([[1.0], [2.0]]))
    with pytest.raises(DimensionError):
        Dataset(np.ones((3, 1)), np.ones((2, 1)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Dataset(np.zeros(3), np.zeros((3, 1))), DimensionError,
     "features must be rows of a 2-D array, got 1-D"),
    (lambda: Dataset(np.zeros((0, 1)), np.zeros((0, 1))), DimensionError,
     "need n >= 1, p >= 1, d >= 1"),
    (lambda: ScoreMatrix(np.zeros(3)), DimensionError,
     "scores must be rows of a 2-D array, got 1-D"),
    (lambda: ScoreMatrix([[np.nan]]), ParamError, "scores must be finite, got NaN or Inf"),
    (lambda: load_dataset_csv("never-opened.csv", 0), ParamError, "d_out must be >= 1"),
    (lambda: split_dataset(synth_dataset("gaussian", 3, 2), SplitSpec()), ParamError,
     "need at least 4 rows to split"),
    (lambda: split_dataset(synth_dataset("gaussian", 10, 2), SplitSpec((0.45, 0.05, 0.25, 0.25))),
     ParamError, "ot_fit split empty for n=10"),
    (lambda: synth_dataset("gaussian", 10, 2, {"cov": [[1.0]]}), DimensionError,
     "covariance must have length 2, got 1"),
    (lambda: synth_dataset("gaussian", 0, 2), ParamError, "n must be >= 1"),
    (lambda: synth_dataset("mixture", 10, 2, {"means": [0.0, 1.0]}), DimensionError,
     "mixture means must be rows of a 2-D array, got 1-D"),
    (lambda: synth_dataset("mixture", 10, 2, {"means": [[0.0, 0.0], [1.0, 1.0]],
                                              "weights": [0.3, 0.3]}),
     ParamError, "mixture weights must be nonnegative and sum to 1"),
    (lambda: residuals(synth_dataset("gaussian", 10, 3),
                       fit_regressor(synth_dataset("gaussian", 10, 2), "knn_mean", k=3)),
     DimensionError, "regressor output dimension does not match targets"),
    (lambda: synth_dataset("gaussian", 10.5, 2), ParamError, "n must be an integer, got 10.5"),
    (lambda: synth_dataset("gaussian", True, 2), ParamError, "n must be an integer, got True"),
    (lambda: synth_dataset("gaussian", 10, 2, seed=1.5), ParamError,
     "seed must be an integer, got 1.5"),
    (lambda: SplitSpec(seed=1.5), ParamError, "seed must be an integer, got 1.5"),
    (lambda: SplitSpec(("a", 1, 1, 1)), ParamError,
     "split fraction must be a real number, got 'a'"),
    (lambda: Dataset([["a"], [1.0]], [[1.0], [2.0]]), ParamError,
     "features is not a numeric array"),
    (lambda: synth_dataset("gaussian", 10, 2.5), ParamError, "d must be an integer, got 2.5"),
    (lambda: synth_dataset("mixture", 10, 2, {"means": np.zeros((0, 2))}), ParamError,
     "mixture means must hold at least one row"),
], ids=["dataset-1d", "dataset-empty", "scores-1d", "scores-nan", "csv-d-out", "split-3-rows",
        "split-empty-ot-fit", "synth-cov-shape", "synth-n-zero", "mixture-means",
        "mixture-weights", "residual-width", "synth-n-float", "synth-n-bool", "synth-seed-float",
        "split-seed-float", "split-fraction-string", "dataset-string", "synth-d-float",
        "mixture-no-means"])
def test_refused_data_inputs(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and message in str(info.value)
