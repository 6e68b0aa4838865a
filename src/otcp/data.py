"""Datasets, deterministic splits, synthetic generators, and simple predictors.

Everything downstream consumes (features, targets) pairs: features feed a point
or quantile predictor, targets minus predictions become the vector-valued
conformity residuals.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import (DimensionError, NotFittedError, ParamError, ParseError, _array,
                     _choice, _file_errors, _integer, _list, _object, _real, _tag)

SPLIT_NAMES = ("train", "ot_fit", "calib", "test")


@dataclass(frozen=True, eq=False)
class Dataset:
    """A regression dataset: n rows of p features and d targets."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    target_names: list[str] = field(default_factory=list)
    tag: str | None = None

    def __post_init__(self):
        X, Y = (_array(self.features, "features", (None, None)),
                _array(self.targets, "targets", (None, None)))
        if X.shape[0] != Y.shape[0]:
            raise DimensionError(
                f"row mismatch: {X.shape[0]} feature rows vs {Y.shape[0]} target rows")
        if X.shape[0] < 1 or X.shape[1] < 1 or Y.shape[1] < 1:
            raise DimensionError("need n >= 1, p >= 1, d >= 1")
        _tag(self.tag, "dataset tag")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", Y)
        if not self.feature_names:
            object.__setattr__(self, "feature_names", [f"x{j}" for j in range(X.shape[1])])
        if not self.target_names:
            object.__setattr__(self, "target_names", [f"y{j}" for j in range(Y.shape[1])])

    def __repr__(self):
        return (f"Dataset(n={self.n}, p={self.p}, d={self.d}, "
                f"tag={self.tag!r})")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def d(self) -> int:
        return self.targets.shape[1]

    def take(self, idx: np.ndarray, tag: str | None = None) -> "Dataset":
        return Dataset(
            self.features[idx], self.targets[idx], list(self.feature_names),
            list(self.target_names), tag,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Fractions (train, ot_fit, calib, test) plus the shuffle seed."""

    fractions: tuple[float, float, float, float] = (0.4, 0.2, 0.2, 0.2)
    seed: int = 0

    def __post_init__(self):
        fractions = [_real(f, "split fraction") for f in _list(self.fractions, "split fractions")]
        if len(fractions) != 4:
            raise ParamError("need exactly four split fractions")
        if any(f < 0 or f > 1 for f in fractions):
            raise ParamError("split fractions must lie in [0, 1]")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ParamError(f"split fractions sum to {sum(fractions)}, expected 1")
        _integer(self.seed, "seed", 0)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """An n x d matrix of vector-valued conformity residuals with provenance."""

    scores: np.ndarray
    origin: str = ""

    def __post_init__(self):
        Z = _array(self.scores, "scores", (None, None))
        if Z.shape[0] < 1 or Z.shape[1] < 1:
            raise DimensionError("scores must be an n x d matrix with n >= 1 and d >= 1")
        _tag(self.origin, "scores origin")
        object.__setattr__(self, "scores", Z)


def _scores_and_origin(scores, need: int, what: str) -> tuple[np.ndarray, str]:
    """(rows, origin) of a ScoreMatrix, or of a plain 2-D array as untagged rows; fewer
    than `need` rows raise ParamError saying that `what` needs them."""
    Z, origin = ((scores.scores, scores.origin) if isinstance(scores, ScoreMatrix)
                 else (_array(scores, "residuals", (None, None)), ""))
    if len(Z) < need:
        raise ParamError(f"{what} needs at least {need} residual row{'s' * (need > 1)}, "
                         f"got {len(Z)}")
    return Z, origin


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

# data rows formatted or parsed at once: a block's cells are Python objects, so a
# small block keeps peak memory flat while numpy does the per-cell work
_CSV_BLOCK_ROWS = 256


def _refuse_block(records: list, ncols: int, first_row: int) -> NoReturn:
    """Raise ParseError for the first bad cell of a block the one-pass parse refused.

    Walking `records` cell by cell, data row `first_row` first, the first row
    without `ncols` cells or cell that is not a finite float raises ParseError
    carrying its (row, col), with row 1 = first data row.
    """
    for r, record in enumerate(records, start=first_row):
        if len(record) != ncols:
            raise ParseError(f"row {r} has {len(record)} cells, expected {ncols}",
                             row=r, col=len(record))
        for c, cell in enumerate(record):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"row {r}, column {c}: non-numeric cell {cell!r}",
                                 row=r, col=c) from None
            if not math.isfinite(v):
                raise ParseError(f"row {r}, column {c}: non-finite cell {cell!r}",
                                 row=r, col=c)


def _parse_block(records: list, ncols: int, first_row: int) -> np.ndarray:
    """The cells of `records` as a (len(records), ncols) float array.

    Every cell goes through float(), in one pass over the block when each
    record has ncols cells; when that pass fails or meets a non-finite value,
    _refuse_block walks the block again to report the first bad cell.
    """
    if all(len(record) == ncols for record in records):
        try:
            vals = np.array(list(map(float, itertools.chain.from_iterable(records))))
        except ValueError:
            pass
        else:
            if np.isfinite(vals).all():
                return vals.reshape(len(records), ncols)
    _refuse_block(records, ncols, first_row)


def load_dataset_csv(path, d_out: int, tag: str | None = None) -> Dataset:
    """Load a headered CSV whose trailing `d_out` columns are the targets.

    Every data cell must parse as a finite float; the first offending cell
    raises ParseError carrying its (row, col), with row 1 = first data row. A
    file that cannot be read as UTF-8 CSV text, such as one with a field past
    csv.field_size_limit(), raises ParamError naming the path. Rows are read and
    parsed in blocks of _CSV_BLOCK_ROWS. A block is read before it is parsed, so
    when a bad cell and unreadable text fall in one block, the read error may be
    the one reported.
    """
    d_out = _integer(d_out, "d_out", 1)
    with _file_errors("read dataset", path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty CSV file", row=0, col=0) from None
        ncols = len(header)
        if ncols <= d_out:
            raise DimensionError(f"CSV has {ncols} columns, need more than d_out={d_out}")
        blocks, first_row = [], 1
        while records := list(itertools.islice(reader, _CSV_BLOCK_ROWS)):
            blocks.append(_parse_block(records, ncols, first_row))
            first_row += len(records)
    if not blocks:
        raise ParseError("CSV has a header but no data rows", row=0, col=0)
    data = np.concatenate(blocks)
    p = ncols - d_out
    return Dataset(data[:, :p], data[:, p:], header[:p], header[p:], tag)


def write_dataset_csv(ds: Dataset, path) -> None:
    """Write a Dataset as RFC-4180 CSV (header row, targets last); round-trips exactly.

    The header goes through csv.writer, which quotes names as needed. Data rows
    are formatted in blocks of _CSV_BLOCK_ROWS, each cell as repr() of its float
    and each row ending in \\r\\n: the bytes csv.writer would write, since the
    repr of a finite float needs no quoting. A path that cannot be written raises
    ParamError naming it.
    """
    with _file_errors("write dataset", path), open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(ds.feature_names) + list(ds.target_names))
        for lo in range(0, ds.n, _CSV_BLOCK_ROWS):
            block = np.hstack([ds.features[lo:lo + _CSV_BLOCK_ROWS],
                               ds.targets[lo:lo + _CSV_BLOCK_ROWS]]).tolist()
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in block))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split_dataset(ds: Dataset, spec: SplitSpec):
    """Partition into (train, ot_fit, calib, test) by a seeded shuffle.

    Split i gets floor(fraction_i * n) rows (a 1e-9 nudge guards decimal
    fractions against float rounding); leftover rows go to train. The same
    spec always produces the same partition.
    """
    n = ds.n
    if n < 4:
        raise ParamError("need at least 4 rows to split")
    sizes = [int(math.floor(f * n + 1e-9)) for f in spec.fractions]
    remainder = n - sum(sizes)
    sizes[0] += remainder
    if sizes[2] < 1 or sizes[3] < 1:
        raise ParamError(f"calib/test splits empty for n={n}, fractions={spec.fractions}")
    for name, size in zip(SPLIT_NAMES, sizes):
        if size < 1:
            raise ParamError(f"{name} split empty for n={n}, fractions={spec.fractions}")
    perm = np.random.default_rng(spec.seed).permutation(n)
    out = []
    start = 0
    for name, size in zip(SPLIT_NAMES, sizes):
        idx = np.sort(perm[start:start + size])
        out.append(ds.take(idx, tag=f"{ds.tag or 'ds'}@seed{spec.seed}:{name}"))
        start += size
    return tuple(out)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def _mean_function(X: np.ndarray, d: int, slope: float) -> np.ndarray:
    # shared conditional mean: slope * (mean feature - 1/2), identical per output dim
    m = slope * (X.mean(axis=1) - 0.5)
    return np.repeat(m[:, None], d, axis=1)


def _mixture(params: dict, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means (k x d), weights (k) and covariance Cholesky factors (k x d x d) of gaussian or
    mixture `params` (a gaussian is the one-component, zero-mean mixture); no means, weights
    that are negative or do not sum to 1, a covariance not symmetric positive definite, or
    covs given with cov raise ParamError."""
    means = _array(params.get("means", np.zeros((1, d))), "mixture means", (None, d))
    k = len(means)
    if k < 1:
        raise ParamError("mixture means must hold at least one row")
    weights = _array(params.get("weights", np.full(k, 1.0 / k)), "mixture weights", (k,))
    if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
        raise ParamError("mixture weights must be nonnegative and sum to 1")
    if "covs" in params:
        if "cov" in params:
            raise ParamError("mixture reads covs or cov, not both")
        covs = _array(params["covs"], "mixture covs", (k, d, d))
    else:
        covs = np.broadcast_to(_array(params.get("cov", np.eye(d)), "covariance", (d, d)),
                               (k, d, d))
    if not np.allclose(covs, covs.swapaxes(1, 2), atol=1e-12):
        raise ParamError("covariance must be symmetric")
    try:
        return means, weights, np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        raise ParamError("covariance must be positive definite") from None


# synthetic kind -> the params it reads besides p and slope, which every kind reads
_SYNTH_PARAMS = {"gaussian": ("cov",),
                 "banana": ("spread", "curvature", "noise"),
                 "mixture": ("means", "weights", "covs", "cov")}


def synth_params(kind: str, d: int, params: dict | None) -> dict:
    """A copy of `params`, once synthetic `kind` exists, d is an integer >= 1, `kind` can
    make d targets and reads every key in `params`, p is an integer >= 1 and each scalar
    param is a real number."""
    _choice(kind, "synthetic kind", _SYNTH_PARAMS)
    d = _integer(d, "d", 1)
    if kind == "banana" and d != 2:
        raise ParamError("banana generator is fixed at d=2")
    params = dict(_object({} if params is None else params, "params"))
    unknown = sorted(set(params) - {"p", "slope", *_SYNTH_PARAMS[kind]})
    if unknown:
        raise ParamError(f"{kind} generator reads no params {unknown}")
    _integer(params.get("p", 1), "p", 1)
    for key in ("slope", "spread", "curvature", "noise"):
        if key in params:
            _real(params[key], key)
    if kind != "banana":
        _mixture(params, d)
    return params


def synth_dataset(kind: str, n: int, d: int = 2, params: dict | None = None,
                  seed: int = 0, tag: str | None = None) -> Dataset:
    """Seeded synthetic data: uniform features, mean function plus shaped noise.

    kinds (every kind also reads params p, default 1, and slope, default 1):
      gaussian -- noise ~ N(0, cov) (params: cov (default I))
      banana   -- d=2 curved residuals: (t, c*(t^2 - spread^2)) + vertical noise
                  (params: spread, curvature, noise)
      mixture  -- Gaussian mixture noise (params: means, weights, covs|cov)

    A params key the kind does not read, an n, d or p that is not an integer >= 1,
    a seed that is not an integer >= 0, a slope, spread, curvature or noise
    that is not a real number, or a means, weights, cov or covs array _mixture
    refuses raises ParamError. Feature, noise, and mixture-assignment streams
    are seeded independently.
    """
    n, seed = _integer(n, "n", 1), _integer(seed, "seed", 0)
    params = synth_params(kind, d, params)
    p = int(params.get("p", 1))
    slope = float(params.get("slope", 1.0))
    ss_x, ss_noise, ss_assign = np.random.SeedSequence(seed).spawn(3)
    rng_x = np.random.default_rng(ss_x)
    rng_noise = np.random.default_rng(ss_noise)
    X = rng_x.uniform(0.0, 1.0, size=(n, p))

    if kind == "banana":
        spread = float(params.get("spread", 1.0))
        curvature = float(params.get("curvature", 1.0))
        vnoise = float(params.get("noise", 0.3))
        Z = rng_noise.standard_normal((n, 2))
        t = spread * Z[:, 0]
        noise = np.column_stack([t, curvature * (t**2 - spread**2) + vnoise * Z[:, 1]])
    else:  # a gaussian is the one-component, zero-mean mixture
        means, weights, Ls = _mixture(params, d)
        k = len(weights)
        Z = rng_noise.standard_normal((n, d))
        assign = np.random.default_rng(ss_assign).choice(k, size=n, p=weights)
        noise = np.empty((n, d))
        for comp in range(k):
            rows = assign == comp
            noise[rows] = means[comp] + Z[rows] @ Ls[comp].T

    Y = _mean_function(X, d, slope) + noise
    return Dataset(X, Y, tag=tag or f"synth:{kind}:{seed}")


# ---------------------------------------------------------------------------
# Point and quantile predictors
# ---------------------------------------------------------------------------

class Regressor:
    """Base point predictor; subclasses define predict_rows(X), one prediction per row of X."""

    kind = "base"
    p = d = fit_tag = None  # feature and target widths and data tag, set by fit


def _fitted_rows(model, X) -> np.ndarray:
    """X as finite float rows, once `model` is fitted on as many features as X has."""
    if model.p is None:
        raise NotFittedError(f"{model.kind} model is not fitted")
    return _array(X, "query features", (None, model.p))


_KNN_BLOCK_ENTRIES = 1 << 18  # cap on query rows * training rows per distance block
# a block whose widest slab, and then whose screen, keeps more of the training rows runs dense
_KNN_SLAB_SHARE = 0.5


def _sq_distances(rows: np.ndarray, columns: np.ndarray, idx, d2: np.ndarray,
                  sq: np.ndarray) -> None:
    """Squared distances from each of `rows` to training points, written into d2.

    columns[j] holds feature j of the training points; column c of d2 is training
    point c, or idx[:, c] when idx is given. The sum runs one feature at a time,
    (x_0 - t_0)^2 + (x_1 - t_1)^2 + ..., so a pair gets the same bits whichever
    set of columns it is measured in. sq is scratch of d2's shape.
    """
    for j in range(rows.shape[1]):
        t = columns[j] if idx is None else np.take(columns[j], idx, out=sq, mode="clip")
        diff = sq if j else d2
        np.subtract(rows[:, j:j + 1], t, out=diff)
        diff *= diff
        if j:
            d2 += sq


def _nearest_first(d2: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k smallest entries of d2, nearest first, (rows, k).

    Equal distances favor the lower column, exactly as a stable sort of each row
    would order them. Each row is partitioned at its k-th smallest distance and
    only the k kept columns are sorted.
    """
    # the k-th smallest distance per row, copied so the partition is freed
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k].copy()
    keep = d2 < kth
    # fill each row up to k with its lowest columns at the k-th distance; when no
    # row has more ties than it needs (continuous data), every tie is kept as is
    ties = d2 == kth
    need = k - np.count_nonzero(keep, axis=1)
    if not np.array_equal(np.count_nonzero(ties, axis=1), need):
        ties &= np.cumsum(ties, axis=1, dtype=np.int32) <= need[:, None]
    keep |= ties
    cand = (np.flatnonzero(keep) % d2.shape[1]).reshape(-1, k)  # ascending per row
    order = np.argsort(np.take_along_axis(d2, cand, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cand, order, axis=1)


class _KnnIndex(NamedTuple):
    """Training rows prepared for _knn_indices, built once per fit."""

    columns: np.ndarray  # (p, n + 1): feature j in row j, then inf at index n (padding)
    s: int  # the widest feature
    order: np.ndarray  # (n + 1,): training indices sorted along feature s, then n
    sorted_s: np.ndarray  # (n,): feature s in that order
    center: np.ndarray  # (p,): the training mean c
    screen: np.ndarray  # (p + 1, n): -2 (t - c) feature by feature, then |t - c|^2


def _knn_index(train_X: np.ndarray) -> _KnnIndex:
    """The _KnnIndex of the training rows train_X, (n, p)."""
    n, p = train_X.shape
    columns = np.empty((p, n + 1))
    columns[:, :n] = train_X.T
    columns[:, n] = np.inf
    s = int(np.argmax(np.ptp(train_X, axis=0)))
    order = np.argsort(train_X[:, s])
    # an overflow here leaves some |t - c|^2 inf or nan, and that turns the screen off
    with np.errstate(over="ignore", invalid="ignore"):
        center = train_X.mean(axis=0)
        screen = np.empty((p + 1, n))
        np.subtract(columns[:, :n], center[:, None], out=screen[:p])
        screen[p] = np.square(screen[:p]).sum(axis=0)
        screen[:p] *= -2
    return _KnnIndex(columns, s, np.append(order, n), train_X[order, s], center, screen)


_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


def _screened(index: _KnnIndex, rows: np.ndarray, k: int, d2: np.ndarray):
    """Training rows that may be among each of `rows`' k nearest, or None.

    The product [x - c, 1] @ index.screen is |x - t|^2 - |x - c|^2 for every
    training row t, and the second term is the same along a row. In floats it is
    within delta = 16 (p + 2) (eps S + tiny) of the direct distance minus that
    term, where S = 2 |x - c|^2 + 2 max |t - c|^2 >= (|x - c| + max |t - c|)^2:
    this covers the rounding of the centered values, of the product in any
    summation order and of the direct per-feature sum, underflow included, with
    room to spare. So a row of the k nearest is within 2 delta of the row's k-th
    smallest screened value, which an in-place partition of the product finds.
    The product is formed a second time, which is cheaper than keeping a copy in
    a second (rows, n) buffer, to pick the rows within that value plus 2 delta.
    They come back as a (rows, w) array of training indices, ascending
    per row and padded with index n. None when some row's bound is not finite
    (nothing is multiplied then), or when some row keeps more than
    _KNN_SLAB_SHARE of the training rows: the caller measures every row.
    d2 is (rows, n) scratch.
    """
    center, screen = index.center, index.screen
    p, n = center.size, d2.shape[1]
    left = np.ones((len(rows), p + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(rows, center, out=left[:, :p])
        scale = 2 * (np.square(left[:, :p]).sum(axis=1) + screen[p].max())
    if not np.isfinite(scale).all():
        return None
    np.matmul(left, screen, out=d2)
    d2.partition(k - 1, axis=1)
    limit = d2[:, k - 1] + 32 * (p + 2) * (_EPS * scale + _TINY)
    np.matmul(left, screen, out=d2)
    near = d2 <= limit[:, None]
    count = np.count_nonzero(near, axis=1)
    w = int(count.max())
    if w > _KNN_SLAB_SHARE * n:
        return None
    cand = np.full((len(rows), w), n, dtype=np.intp)
    cand[np.arange(w) < count[:, None]] = np.flatnonzero(near) % n
    return cand


def _knn_indices(index: _KnnIndex, X: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest training rows to each row of X, nearest first, (q, k).

    Equal distances favor the lower training index, exactly as a stable sort of
    each row's distances would order them. A squared distance is summed one
    feature at a time, (x_0 - t_0)^2 + (x_1 - t_1)^2 + ..., which for p <= 7
    equals numpy's ((x - t) ** 2).sum() bit for bit; from p = 8 on numpy sums
    pairwise, so the two can differ in the last bit and a near-tie can go the
    other way.

    Only the training rows that can be among a query's k nearest are measured.
    The training rows are sorted along their widest feature s. The k sorted rows
    around a query's place in that order bound its k-th distance by their largest
    one, B, and every row with (x_s - t_s)^2 <= B lies in one slab of the sorted
    order (widened by a few ulps against rounding). When a block's widest slab
    holds more than _KNN_SLAB_SHARE of the training rows, as it does for a few
    features of similar range, the block is screened instead (_screened): one
    matrix product ranks every training row up to a rounding bound, and the
    candidates are the rows within twice that bound of each query's k-th
    screened value. Either way a block's candidates are measured directly as
    one padded array in training-index order, padding at distance inf, so the
    neighbours, their ties and their order are those of measuring every row.
    A block measures every training row when its screen bound is not finite
    (features near the square root of the largest float) or its screen keeps
    more than _KNN_SLAB_SHARE of the rows. Queries run in blocks of at most
    _KNN_BLOCK_ENTRIES distances, so memory does not grow with q. The sort, the
    padded columns and the screen's training factor come from `index`, built
    once per training set by _knn_index.
    """
    columns, s, order, sorted_s, *_ = index
    n = sorted_s.size
    q = X.shape[0]
    step = max(1, min(q, _KNN_BLOCK_ENTRIES // n))
    d2_buf, sq_buf = np.empty(step * n), np.empty(step * n)
    out = np.empty((q, k), dtype=np.intp)
    for lo in range(0, q, step):
        rows = X[lo:lo + step]
        r, xs = len(rows), rows[:, s]
        start = np.clip(np.searchsorted(sorted_s, xs) - k // 2, 0, n - k)
        window = order[start[:, None] + np.arange(k)]
        d2, sq = d2_buf[:r * k].reshape(r, k), sq_buf[:r * k].reshape(r, k)
        _sq_distances(rows, columns, window, d2, sq)
        # a float sum of squares is no smaller than its s term, so a row within B has
        # (x_s - t_s)^2 <= B; the slack covers the rounding of that square and of xs -/+ radius
        radius = np.sqrt(d2.max(axis=1)) * (1 + 1e-9) + 1e-9 * np.abs(xs) + 1e-150
        first = np.searchsorted(sorted_s, xs - radius, "left")
        last = np.searchsorted(sorted_s, xs + radius, "right")
        w = int((last - first).max())
        if w <= _KNN_SLAB_SHARE * n:
            pos = first[:, None] + np.arange(w)
            pos[pos >= last[:, None]] = n
            cand = order[pos]
            cand.sort(axis=1)
        else:
            cand = _screened(index, rows, k, d2_buf[:r * n].reshape(r, n))
        w = n if cand is None else cand.shape[1]  # None: measure every training row
        d2, sq = d2_buf[:r * w].reshape(r, w), sq_buf[:r * w].reshape(r, w)
        _sq_distances(rows, columns[:, :n] if cand is None else columns, cand, d2, sq)
        near = _nearest_first(d2, k)
        out[lo:lo + r] = near if cand is None else np.take_along_axis(cand, near, axis=1)
    return out


# the memo shared_neighbors has made visible, or None (no memo: every call searches)
_NEIGHBOR_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "otcp_neighbor_memo", default=None)


@contextlib.contextmanager
def shared_neighbors(memo: dict):
    """Within this block, k-NN models share the neighbor searches kept in the dict `memo`.

    The first search of some query rows by a model fitted on a training Dataset
    with some k stores its index array in `memo`, read-only; a later search of
    rows with the same shape and bytes by any model fitted on that same Dataset
    object with that k reuses it, so results are unchanged. The caller owns the
    memo and decides how long searches are shared, opening the block around
    each stretch of work that may reuse them. Blocks nest; leaving one, also by
    an exception, restores the memo that was visible before.
    """
    token = _NEIGHBOR_MEMO.set(memo)
    try:
        yield
    finally:
        _NEIGHBOR_MEMO.reset(token)


class _KnnModel:
    """A k-nearest-neighbor model: the training Dataset, kept once, and the search."""

    def __init__(self, k: int):
        self.k = _integer(k, "k", 1)
        self.train: Dataset | None = None
        self.index: _KnnIndex | None = None  # the search's sort of train, built by fit

    def fit(self, train: Dataset):
        if self.k > train.n:
            raise ParamError(f"k={self.k} outside [1, n_train={train.n}]")
        self.train, self.index = train, _knn_index(train.features)
        return self

    # feature and target widths and data tag, read from the fitted Dataset
    p = property(lambda self: None if self.train is None else self.train.p)
    d = property(lambda self: None if self.train is None else self.train.d)
    fit_tag = property(lambda self: None if self.train is None else self.train.tag)

    def _neighbor_targets(self, X) -> np.ndarray:
        """Targets of the k nearest training rows to each row of X, (q, k, d).

        Inside shared_neighbors, the search of rows already searched with this
        training Dataset and k is taken from the memo; elsewhere every call searches.
        """
        X = _fitted_rows(self, X)
        memo = _NEIGHBOR_MEMO.get()
        if memo is None:
            return self.train.targets[_knn_indices(self.index, X, self.k)]
        # the Dataset is keyed by identity (eq=False); the rows by value, so rows
        # changed in place or a reused id never match a stale entry
        key = (self.train, self.k, X.shape, X.tobytes())
        idx = memo.get(key)
        if idx is None:
            idx = memo[key] = _knn_indices(self.index, X, self.k)
            idx.flags.writeable = False
        return self.train.targets[idx]


class KnnMeanRegressor(_KnnModel, Regressor):
    kind = "knn_mean"

    def predict_rows(self, X) -> np.ndarray:
        return self._neighbor_targets(X).mean(axis=1)


class RidgeRegressor(Regressor):
    """Least squares with an L2 penalty on the non-intercept coefficients."""

    kind = "ridge_linear"

    def __init__(self, lam: float = 0.0):
        self.lam = _real(lam, "ridge penalty", 0)
        self.coef = None  # (p + 1, d), last row is the intercept

    def fit(self, train: Dataset) -> "RidgeRegressor":
        X = np.column_stack([train.features, np.ones(train.n)])
        penalty = self.lam * np.eye(train.p + 1)
        penalty[-1, -1] = 0.0
        self.coef = np.linalg.solve(X.T @ X + penalty, X.T @ train.targets)
        self.p, self.d, self.fit_tag = train.p, train.d, train.tag
        return self

    def predict_rows(self, X) -> np.ndarray:
        X = _fitted_rows(self, X)
        return np.column_stack([X, np.ones(X.shape[0])]) @ self.coef


# regressor kind -> (class, every parameter it takes with its default)
_REGRESSORS = {"knn_mean": (KnnMeanRegressor, {"k": 25}),
               "ridge_linear": (RidgeRegressor, {"lam": 0.0})}


def regressor_params(kind: str, params: dict) -> dict:
    """The defaults of regressor `kind` updated by `params`, which it must all take and accept."""
    cls, defaults = _REGRESSORS[_choice(kind, "regressor kind", _REGRESSORS)]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ParamError(f"{kind} regressor takes no parameters {unknown}")
    params = {**defaults, **params}
    cls(**params)
    return params


def fit_regressor(train: Dataset, kind: str = "knn_mean", **params) -> Regressor:
    """Fit a point predictor: knn_mean takes k (default 25), ridge_linear lam (default 0)."""
    params = regressor_params(kind, params)
    return _REGRESSORS[kind][0](**params).fit(train)


class KnnQuantilePredictor(_KnnModel):
    """Per-dimension empirical quantiles of the k nearest neighbors' targets."""

    kind = "knn_quantile"

    def __init__(self, k: int, alpha_lo: float, alpha_hi: float):
        self.alpha_lo, self.alpha_hi = _real(alpha_lo, "alpha_lo"), _real(alpha_hi, "alpha_hi")
        # closed endpoints allowed: (0, 1) degrades to per-dimension min/max
        if not (0.0 <= self.alpha_lo < self.alpha_hi <= 1.0):
            raise ParamError(f"need 0 <= alpha_lo < alpha_hi <= 1, got ({alpha_lo}, {alpha_hi})")
        super().__init__(k)

    def predict_bounds(self, x):
        lo, hi = self.bounds_rows(_array(x, "query point", (None,))[None])
        return lo[0], hi[0]

    def bounds_rows(self, X):
        neigh = self._neighbor_targets(X)  # (q, k, d)
        # linear interpolation of order statistics (type-7 quantile)
        lo, hi = np.quantile(neigh, [self.alpha_lo, self.alpha_hi], axis=1,
                             method="linear")
        return lo, hi


def fit_quantile_predictor(train: Dataset, k: int, alpha_lo: float,
                           alpha_hi: float) -> KnnQuantilePredictor:
    return KnnQuantilePredictor(k, alpha_lo, alpha_hi).fit(train)


def residuals(ds: Dataset, reg: Regressor) -> ScoreMatrix:
    """Signed residual vectors y_i - yhat(x_i), tagged with the rows' dataset tag."""
    pred = reg.predict_rows(ds.features)
    if pred.shape != ds.targets.shape:
        raise DimensionError("regressor output dimension does not match targets")
    return ScoreMatrix(ds.targets - pred, origin=ds.tag or "")
