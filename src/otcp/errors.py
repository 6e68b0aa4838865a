"""Exception and warning types, the input checks that raise ParamError, the file writer.

Input that breaks a documented precondition (an argument, config value, data or
artifact file, or output path) raises ParamError or a subclass, which the CLI,
like MethodError, reports as a usage error with exit 2; anything else is a bug.
Row blocks (features, responses, residuals, map queries, OT points) go through
`_rows`, which checks shape, width and finiteness; miscoverage levels go through `_level`.
"""

import contextlib
import csv
import json
import math
import numbers
from pathlib import Path

import numpy as np


class ParamError(ValueError):
    """An argument violates a documented precondition."""


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or math.isnan(value):
        raise ParamError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _positive(value, name: str) -> float:
    """A real number that is finite and > 0."""
    value = _real(value, name)
    if not (math.isfinite(value) and value > 0):
        raise ParamError(f"{name} must be > 0 and finite, got {value}")
    return value


def _level(value, name: str) -> float:
    """A real number strictly between 0 and 1, such as a miscoverage level."""
    value = _real(value, name)
    if not 0.0 < value < 1.0:
        raise ParamError(f"{name} must lie in (0, 1), got {value}")
    return value


def _integer(value, name: str, low: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParamError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ParamError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ParamError(f"{name} is not a JSON object")
    return value


def _list(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ParamError(f"{name} is not a list")
    return tuple(value)


def _distinct(values: tuple, name: str) -> None:
    """Refuse a list with a repeated entry, whose results would be counted twice."""
    repeated = list(dict.fromkeys(v for i, v in enumerate(values) if v in values[:i]))
    if repeated:
        raise ParamError(f"{name} repeats {repeated}")


@contextlib.contextmanager
def _file_errors(action: str, path):
    """In the block, a file that cannot be opened, created, decoded or parsed raises ParamError."""
    try:
        yield
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
        raise ParamError(f"cannot {action} {path}: {exc}") from None


def _write_text(path, text: str, what: str) -> None:
    """Write `text` to `path` as UTF-8, the one way a harness output file is written;
    a path that cannot be written raises ParamError naming it as `what`."""
    with _file_errors(f"write {what}", path):
        Path(path).write_text(text, encoding="utf-8")


class DimensionError(ParamError):
    """Array shapes are incompatible with the operation."""


def _rows(value, name: str, width: int | None = None) -> np.ndarray:
    """`value` as a float array of rows, `width` wide if given: DimensionError when it is
    not 2-D or has another width, ParamError when an entry is NaN or infinite."""
    rows = np.asarray(value, dtype=float)
    if rows.ndim != 2:
        raise DimensionError(f"{name} must be rows of a 2-D array, got {rows.ndim}-D")
    if width is not None and rows.shape[1] != width:
        raise DimensionError(f"{name} must have width {width}, got {rows.shape[1]}")
    if not np.isfinite(rows).all():
        raise ParamError(f"{name} must be finite, got NaN or Inf")
    return rows


class ParseError(ParamError):
    """A CSV cell could not be parsed as a finite number."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class ProvenanceError(RuntimeError):
    """Calibration data overlaps the data a score function was fitted on."""


class MethodError(TypeError):
    """The operation is not defined for this score-function kind."""


class NotFittedError(RuntimeError):
    """A model was used before fitting."""


class SinkhornNotConverged(UserWarning):
    """Sinkhorn hit its iteration budget with the marginal error above tolerance.

    The returned potentials are the best iterate; conformal calibration built on
    top of them remains valid regardless of map quality.
    """
