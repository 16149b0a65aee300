"""The dataset preparers must produce benchmark-ready CSVs from raw payloads."""

import io
import zipfile

import pytest

from fuzzyrough.data import ingest_csv
from tests.scripts import load_script


@pytest.fixture(scope="module")
def fetch():
    return load_script("scripts/fetch_datasets.py", "fetch_datasets")


def test_haberman_passthrough(fetch, tmp_path):
    raw = b"30,64,1,1\n30,62,3,1\n83,58,2,2\n"
    out = tmp_path / "haberman.csv"
    fetch.prepare_haberman(raw, str(out))
    ds = ingest_csv(str(out))
    assert ds.n == 3
    assert ds.attributes == ("age", "year", "nodes")
    assert ds.classes == ("1", "2")


def test_wisconsin_drops_missing_and_id(fetch, tmp_path):
    raw = (b"1000025,5,1,1,1,2,1,3,1,1,2\n"
           b"1002945,5,4,4,5,7,10,3,2,1,2\n"
           b"1057013,8,4,5,1,2,?,7,3,1,4\n")
    out = tmp_path / "wisconsin.csv"
    fetch.prepare_wisconsin(raw, str(out))
    ds = ingest_csv(str(out))
    assert ds.n == 2  # the '?' row is gone
    assert len(ds.attributes) == 9
    assert float(ds.X[0, 0]) == 5.0  # id column removed


def test_somerville_utf16_and_decision_moved_last(fetch, tmp_path):
    text = "D,X1,X2,X3,X4,X5,X6\n0,3,3,3,4,2,4\n1,3,2,3,5,4,3\n"
    out = tmp_path / "somerville.csv"
    fetch.prepare_somerville(text.encode("utf-16"), str(out))
    ds = ingest_csv(str(out))
    assert ds.n == 2
    assert ds.attributes == ("X1", "X2", "X3", "X4", "X5", "X6")
    assert list(ds.y) == ["0", "1"]


def test_appendicitis_keel_format(fetch, tmp_path):
    dat = "\n".join([
        "@relation appendicitis",
        "@attribute At1 real [0.0, 1.0]",
        "@attribute Class {0, 1}",
        "@data",
        "0.2641, 0.5106, 0",
        "0.1411, 0.2766, 1",
        "",
    ])
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("appendicitis.dat", dat)
    out = tmp_path / "appendicitis.csv"
    fetch.prepare_appendicitis(buf.getvalue(), str(out))
    ds = ingest_csv(str(out))
    assert ds.n == 2
    assert len(ds.attributes) == 2
    assert ds.classes == ("0", "1")
