"""The error contract of the entries that the classifier's row-group scoring
reaches, and of CSV ingestion, checked generatively.

Hypothesis draws degree vectors and stacks, values and data sets with 0 or
1 elements, NaN, +-inf, +-1e308, subnormals, values outside [0, 1], and
string, complex, bool, object and ragged input. Each call must either return
finite values in its documented range or raise ``DomainError`` or
``DataFormatError``. Any other exception, and any warning, fails.

For ingestion it draws CSV text, and ``ingest_csv`` and ``load_features``
must give what a plain reading gives, one that keeps every row's floats in
a list and builds one array at the end: the same bits, labels and error
message.
"""

from __future__ import annotations

import csv
import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyrough import data
from fuzzyrough.classifier import BASE_KINDS, AggregatorSpec, aggregate
from fuzzyrough.data import DataFormatError, DecisionSystem, ingest_csv, load_features
from fuzzyrough.measures import FuzzyRemovalMeasure, OrderedTwoSymmetricMeasure, WowaMeasure
from fuzzyrough.outliers import per_class_scores, scored_with_labels
from fuzzyrough.quantifiers import AdditiveQuantifier, QuadraticQuantifier
from fuzzyrough.sets import DomainError

SUBNORMAL = 5e-324
ODD = [0.0, -0.0, 1.0, 0.5, np.nan, np.inf, -np.inf, 1e308, -1e308, SUBNORMAL, -SUBNORMAL,
       2.2250738585072014e-308, 1.0000000000000002, -0.5, 1.5, 7.0]
REALS = st.one_of(st.sampled_from(ODD), st.floats(0.0, 1.0), st.floats(width=64))
DEGREES = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


def _grid(draw, rows, cols, elements):
    return np.array(draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


@st.composite
def arrays(draw, max_rows=3, max_cols=5):
    """A vector, a stack of rows or a scalar: mostly floats, some of them odd
    or mostly in [0, 1], and now and then a bool, string, complex, object or
    ragged input."""
    form = draw(st.sampled_from(("vector", "vector", "vector", "stack", "scalar", "bool",
                                 "strings", "complex", "object", "ragged")))
    cols = draw(st.integers(0, max_cols))
    elements = draw(st.sampled_from((REALS, DEGREES)))
    if form == "stack":
        return _grid(draw, draw(st.integers(0, max_rows)), cols, elements)
    if form == "scalar":
        return draw(elements)
    if form == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=cols, max_size=cols)), dtype=bool)
    if form == "strings":
        return ["a"] * max(cols, 1)
    if form == "complex":
        return np.array(draw(st.lists(DEGREES, min_size=cols, max_size=cols)), dtype=complex)
    if form == "object":
        return np.array([0.5, None][:max(cols, 1)], dtype=object)
    if form == "ragged":
        return [[0.5], [0.5, 0.25]]
    return _grid(draw, 1, cols, elements)[0]


def _contract(call, check):
    """``check(call())``, or nothing when the call raises DomainError or
    DataFormatError; every warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except (DomainError, DataFormatError):
            return
        check(result)


def _unit(values):
    values = np.asarray(values, dtype=float)
    assert np.isfinite(values).all() and (values >= 0.0).all() and (values <= 1.0).all()


def _measure_check(mu):
    """Every chain of a measure, or of each measure of a stack, is finite,
    starts at 1 and stays in [0, 1]."""
    rows = 1 if mu.rows is None else mu.rows
    order = np.argsort(np.random.default_rng(rows * 31 + mu.n).random((rows, mu.n)), axis=1)
    chain = mu.chain_values(order[0] if mu.rows is None else order)
    chain = np.atleast_2d(chain)
    assert chain.shape == (rows, mu.n)
    _unit(chain)
    assert (chain[:, 0] == 1.0).all()
    if mu.rows is None:
        _unit([mu.value(order[0][:i]) for i in range(mu.n + 1)])


QUANTIFIERS = st.sampled_from(("additive", "quadratic"))


def _quantifier(kind):
    return QuadraticQuantifier(0.3, 0.9) if kind == "quadratic" else AdditiveQuantifier(4)


@settings(max_examples=300, deadline=None)
@given(arrays())
def test_fuzzy_removal_measure(o):
    for tnorm in ("minimum", "product", "lukasiewicz"):
        _contract(lambda: FuzzyRemovalMeasure(o, tnorm), _measure_check)


@settings(max_examples=300, deadline=None)
@given(arrays(), QUANTIFIERS)
def test_wowa_measure(o, quantifier):
    _contract(lambda: WowaMeasure(_quantifier(quantifier), o), _measure_check)


@settings(max_examples=300, deadline=None)
@given(arrays(), QUANTIFIERS, st.sampled_from((0.0, 0.3, 1.0)),
       st.sampled_from((0.0, 0.1, 0.5, 0.9)))
def test_ordered_two_symmetric_measure(o, quantifier, t, contamination):
    _contract(lambda: OrderedTwoSymmetricMeasure(_quantifier(quantifier), o, t,
                                                 contamination), _measure_check)


@settings(max_examples=300, deadline=None)
@given(arrays(max_cols=6), arrays(max_cols=6), st.one_of(st.none(), arrays(max_cols=6)),
       st.sampled_from(BASE_KINDS), QUANTIFIERS)
def test_aggregate_under_every_base_kind(values, o_sub, outliers, kind, quantifier):
    def check(result):
        assert isinstance(result, float)
        _unit([result])

    spec = AggregatorSpec(kind=kind, quantifier=quantifier)
    _contract(lambda: aggregate(values, o_sub, spec, outliers), check)


@st.composite
def decision_systems(draw):
    """A DecisionSystem of odd attribute cells, 1-12 instances of one to three
    classes, or of an odd input in place of the table; built when called."""
    if draw(st.booleans()):
        X = _grid(draw, draw(st.integers(1, 12)), draw(st.integers(0, 3)),
                  draw(st.sampled_from((REALS, DEGREES))))
    else:
        X = draw(arrays(max_rows=12, max_cols=3))
    rows, m = np.shape(X) if isinstance(X, np.ndarray) and X.ndim == 2 else (3, 1)
    y = np.array(draw(st.lists(st.sampled_from("abc"), min_size=rows, max_size=rows)),
                 dtype=object)
    return lambda: DecisionSystem(tuple(f"a{j}" for j in range(m)), X, y)


def _scores_check(ds_of, labelled):
    def check(scores):
        n = ds_of().n
        assert scores.raw.shape == scores.normalized.shape == (n,)
        assert np.isfinite(scores.raw).all()
        _unit(scores.normalized)
        if labelled is not None:
            assert scores.labels.dtype == bool and scores.labels.shape == (n,)
            assert scores.labels.sum() == math.ceil(labelled * n)
    return check


@settings(max_examples=200, deadline=None)
@given(decision_systems(), st.sampled_from((1, 2, 5, 20)))
def test_per_class_scores(ds_of, k):
    _contract(lambda: per_class_scores(ds_of(), k), _scores_check(ds_of, None))


@settings(max_examples=200, deadline=None)
@given(decision_systems(), st.sampled_from((1, 3, 20)), st.sampled_from((0.0, 0.1, 0.5, 0.9)))
def test_scored_with_labels(ds_of, k, contamination):
    _contract(lambda: scored_with_labels(ds_of(), k, contamination),
              _scores_check(ds_of, contamination))


# cell forms besides a plain number; some parse with float(), the rest do not
CELL_FORMS = ("plus", "spaces", "tabs", "underscore", "arabic", "nan", "inf", "empty",
              "blank", "quoted", "quoted newline", "word", "unit separator", "no-break space")
LABELS = st.sampled_from(("a", "b") * 6 + (" a ", "b\t", '"a"', '"b,c"', ""))


@st.composite
def number_cells(draw):
    """A float printed by repr, %e or %g, plain most of the time."""
    x = draw(st.one_of(st.floats(width=64, allow_nan=False, allow_infinity=False),
                       st.sampled_from((0.0, -0.0, 1.0, 5e-324, 1e308)), st.integers(-99, 99)))
    text = draw(st.sampled_from(("{!r}", "{:e}", "{:g}"))).format(x)
    form = draw(st.sampled_from(("plain",) * 60 + CELL_FORMS))
    return {"plain": text, "plus": "+" + text.lstrip("+"), "spaces": f"  {text} ",
            "tabs": f"\t{text}\t", "underscore": "1_0", "arabic": "\u0661\u0662",
            "nan": "nan", "inf": "-inf", "empty": "", "blank": " \t", "quoted": f'"{text}"',
            "quoted newline": f'"{text}\n"', "word": "one",
            "unit separator": f"{text}\x1f", "no-break space": f"\xa0{text}"}[form]


@st.composite
def csv_texts(draw):
    """(text, m): a headered CSV of m = 1 to 3 attributes and, mostly, a last
    column ``class``, with 0 to 8 rows, mostly of the header's length, some
    one cell short or long, and empty, blank and all-blank rows; LF or CRLF,
    with or without a BOM."""
    m, labelled = draw(st.integers(1, 3)), draw(st.sampled_from((True, True, False)))
    header = [f"a{j}" for j in range(m)] + ["class"] * labelled
    if draw(st.booleans()):
        header = [f'"{h}"' for h in header]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        form = draw(st.sampled_from(("row",) * 25 + ("short", "long", "empty", "blank",
                                                      "commas")))
        if form in ("row", "short", "long"):
            width = m + {"row": 0, "short": -1, "long": 1}[form]
            lines.append(",".join([draw(number_cells()) for _ in range(width)]
                                  + [draw(LABELS)] * labelled))
        else:
            lines.append({"empty": "", "blank": " \t", "commas": " ," * m}[form])
    eol = draw(st.sampled_from(("\n", "\r\n")))
    bom, end = draw(st.sampled_from(("", "\ufeff"))), draw(st.sampled_from(("", eol)))
    return bom + eol.join(lines) + end, m


def _plain_read_table(path, select):
    """``data._read_table`` as a plain reading: every row's floats in a list,
    one array built at the end."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataFormatError(f"{path}: file is empty") from None
        features, decision = select(header)
        cols = [header.index(h) for h in features]
        d_idx = None if decision is None else header.index(decision)
        rows, labels, linenos = [], [], []
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(row)}")
            try:
                rows.append([float(row[i]) for i in cols])
            except ValueError:
                raise data._bad_cell(path, reader.line_num, header, row, cols) from None
            linenos.append(reader.line_num)
            if d_idx is not None:
                labels.append(row[d_idx].strip())
    if not rows:
        raise DataFormatError(f"{path}: no data rows after the header")
    X = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        r, c = bad[0]
        raise DataFormatError(f"{path}:{linenos[r]}: column {features[c]!r}: non-finite value")
    return features, decision, X, (None if d_idx is None else np.array(labels, dtype=object))


def _read(call):
    """What ``call()`` gives as comparable bits, or its error's type and text;
    every warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = call()
        except (DomainError, DataFormatError) as e:
            return type(e).__name__, str(e)
    if isinstance(got, DecisionSystem):
        got = got.X, got.y
    X, y = got
    assert X.dtype == float and X.ndim == 2 and np.isfinite(X).all()
    return X.shape, X.tobytes(), None if y is None else y.tolist()


def _both_readers(path, m):
    attributes = tuple(f"a{j}" for j in reversed(range(m)))  # the columns' order is kept
    return [_read(lambda: ingest_csv(path)),
            _read(lambda: load_features(path, attributes, "class"))]


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_ingestion_matches_a_plain_reading(tmp_path_factory, drawn):
    text, m = drawn
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = _both_readers(path, m)
    with mock.patch.object(data, "_read_table", _plain_read_table):
        assert got == _both_readers(path, m)

