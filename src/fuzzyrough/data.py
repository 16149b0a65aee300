"""Decision systems (numeric features + categorical decision) and CSV ingestion."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .sets import DomainError, _reals, frozen_copy


class DataFormatError(ValueError):
    """A dataset file cannot be parsed into a decision system."""


@dataclass(frozen=True)
class DecisionSystem:
    """Instances with numeric conditional attributes and one decision column."""

    attributes: tuple
    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    ids: tuple = ()
    decision: str | None = None  # the decision column's name, when read from a file

    def __post_init__(self):
        X = frozen_copy(_reals(self.X))
        y = frozen_copy(self.y, dtype=object)
        if X.ndim != 2:
            raise DomainError("feature matrix must be two-dimensional")
        if X.shape[0] < 1:
            raise DomainError("decision system needs at least one instance")
        if X.shape[1] != len(self.attributes):
            raise DomainError("attribute names must match the feature columns")
        if not np.all(np.isfinite(X)):
            raise DomainError("all conditional values must be finite numerics")
        if y.shape != (X.shape[0],):
            raise DomainError("decision column length must match the instances")
        ids = self.ids or tuple(range(X.shape[0]))
        if len(ids) != X.shape[0]:
            raise DomainError("instance id count must match the instances")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "ids", tuple(ids))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def classes(self) -> tuple:
        return tuple(sorted(set(self.y.tolist())))

    def subset(self, indices) -> "DecisionSystem":
        idx = np.asarray(indices)
        return DecisionSystem(
            self.attributes,
            self.X[idx],
            self.y[idx],
            tuple(self.ids[i] for i in np.atleast_1d(idx)),
            self.decision,
        )


def _bad_cell(path, lineno: int, header: list, row: list, cols: list) -> DataFormatError:
    """The error naming the first cell of ``row`` among ``cols`` that is not a number."""
    for i in cols:
        try:
            float(row[i])
        except ValueError:
            return DataFormatError(
                f"{path}:{lineno}: column {header[i]!r}: cannot parse {row[i]!r} as a number")


def _read_table(path, select):
    """Parse a headered CSV into a float matrix and an optional label column.

    The file is UTF-8 with or without a byte-order mark. Header names are
    stripped and must be distinct; ``select(header)`` checks them and returns
    the names of the feature columns, in the order wanted, and of the
    decision column, or None when the file has none. Blank rows are skipped.
    Returns (features, decision, X, labels), labels being None without a
    decision column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: file is empty") from None
        repeated = [h for h, count in Counter(header).items() if count > 1]
        if repeated:
            raise DataFormatError(f"{path}: repeated column names {repeated}")
        features, decision = select(header)
        cols = [header.index(h) for h in features]
        d_idx = None if decision is None else header.index(decision)

        # each row's numbers go straight into X, whose room doubles when full,
        # so no float object outlives its row
        X, n, labels, linenos = np.empty((1, len(cols))), 0, [], []
        for row in reader:
            lineno = reader.line_num  # the row's last line: quoted cells may span lines
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataFormatError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            if n == len(X):
                X = np.concatenate((X, np.empty_like(X)))
            try:
                X[n] = [float(row[i]) for i in cols]
            except ValueError:
                raise _bad_cell(path, lineno, header, row, cols) from None
            n += 1
            linenos.append(lineno)
            if d_idx is not None:
                labels.append(row[d_idx].strip())

    if not n:
        raise DataFormatError(f"{path}: no data rows after the header")
    X = X[:n]
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        r, c = bad[0]
        raise DataFormatError(f"{path}:{linenos[r]}: column {features[c]!r}: non-finite value")
    return features, decision, X, (None if d_idx is None else np.array(labels, dtype=object))


def ingest_csv(path, decision_column: str | None = None) -> DecisionSystem:
    """Load a headered CSV; every non-decision column must parse as a float.

    The decision column defaults to the last one. Column order is preserved.
    """
    def select(header):
        decision = header[-1] if decision_column is None else decision_column
        if decision not in header:
            raise DataFormatError(f"{path}: decision column {decision!r} not in header {header}")
        attributes = tuple(h for h in header if h != decision)
        if not attributes:
            raise DataFormatError(f"{path}: no conditional attributes besides the decision column")
        return attributes, decision

    attributes, decision, X, y = _read_table(path, select)
    return DecisionSystem(attributes, X, y, decision=decision)


def load_features(path, attributes: tuple, decision_column: str | None):
    """Load a feature matrix whose columns must cover the training attributes.

    Returns (X, true_labels_or_None). Columns are matched by name, in any
    order. The decision column is optional in the file; extra columns are
    rejected so silent misalignment cannot happen.
    """
    def select(header):
        missing = [a for a in attributes if a not in header]
        if missing:
            raise DataFormatError(f"{path}: missing attribute columns {missing}")
        extra = [h for h in header if h not in attributes and h != decision_column]
        if extra:
            raise DataFormatError(f"{path}: unexpected columns {extra}")
        return attributes, (decision_column if decision_column in header else None)

    _, _, X, y = _read_table(path, select)
    return X, y
