"""Committed decomposition payloads: their bytes and the reports they verify to.

tests/data/ holds one payload per golden cell in each wire format the writer
has produced: v1 (dense maps), v2 (central factors as Lie terms, class >= 2
only) and v3 (each factor as the images it stores).  The three payloads of a
cell are the same decomposition, so they verify to the same report.  Both
tables were pinned when the v3 payloads were written; the decomposition of a
cell may change since, these bytes and reports may not.
"""

import hashlib
from pathlib import Path

import pytest

from freenil import verify_payload
from freenil.cli import main
from freenil.jsonio import dumps, loads, report_payload

DATA = Path(__file__).parent / "data"

# (version, cell) -> SHA-256 of the committed file
FIXTURES = {
    ("v1", (10, 1, 2)): "3af40ab66e2ce3d49ae7c0f2824195d2932a99eb1fb4cb6408b0f715f69ca997",
    ("v1", (10, 2, 1)): "9adf2d6fc0ea0571bbaaa6f36746852d5ad559f312e4744858d573821ebcc11a",
    ("v1", (9, 3, 0)): "46854b9923087fbb158b5dcb5fa81cfdfa3c8a7f38bf8f1f2f1dab11854a41c7",
    ("v1", (12, 3, 2)): "4472b6103d97d2a9bb29a5c7cd969e86e5dc6f4ff71995d0c1ff557b60b192aa",
    ("v1", (12, 4, 2)): "0c926018e86850b3735aa9df213e29d752fa9c3039f1559d765881053e4da6a0",
    ("v2", (10, 2, 1)): "30affce57326d8861a7a0037f053d8f2dde520c0ad223951286ef9db2a3a303b",
    ("v2", (9, 3, 0)): "15194874a5f8b6258b047776f9f95c64d35e74b42c4df0e19098a68792bb5da7",
    ("v2", (12, 3, 2)): "a730bb225486d6ed489237837b6d13e7c60aa4ae4ff2d062560d10147eeffcd0",
    ("v2", (12, 4, 2)): "be1773f43c218f51007210cb675bef8950bf7759deea2e4b37393c497166ee86",
    ("v3", (10, 1, 2)): "60c5055ebc10abe25846c0594469673c254177ecaa57fbe68aa53cb06f27f438",
    ("v3", (10, 2, 1)): "4985bae2d25f3328e81ab2ac7ef9ccfb9aa527719bf4c943ee09d959e0e72c4a",
    ("v3", (9, 3, 0)): "54dac5a67c01afe795ef90eb5c599d49f8c3635041445503fc59fbef12a14ad7",
    ("v3", (12, 3, 2)): "1c57641f5a6546a4c3672384e5bfdbd272604113338b5d4e6b5c870d56117559",
    ("v3", (12, 4, 2)): "cbf8a6e1392153c099da48c851e34a701c60fb675da8430d206f73ffcf4199e7",
}

# cell -> SHA-256 of the compact report every payload of the cell verifies to
REPORTS = {
    (10, 1, 2): "d89169ca93740736dc539d9be61c1363ce574c1374897d1035953558423675e1",
    (10, 2, 1): "166d4cc4b3742959ee70ec644bc73131df751e0853ad833ff74aefb57c66b972",
    (9, 3, 0): "93b5c2add135e5adb4282285a0b38875f76adfd9e7268946bab676a73fdefd4f",
    (12, 3, 2): "94797118b9980323a56c891985dde2a717ade96c085ad848381529625dadf1d4",
    (12, 4, 2): "374439d563f73bda76b73116759caafe9be4cb59844e157da79fc66af0bc4f32",
}


def fixture_path(version: str, cell) -> Path:
    return DATA / version / "decomposition_{}_{}_{}.json".format(*cell)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_committed_payload_is_pinned():
    committed = {
        (path.parent.name, tuple(int(k) for k in path.stem.split("_")[1:]))
        for path in DATA.glob("v*/decomposition_*.json")
    }
    assert committed == set(FIXTURES)


@pytest.mark.parametrize("version, cell", sorted(FIXTURES))
def test_fixture_keeps_its_bytes_and_its_report(version, cell, tmp_path):
    path = fixture_path(version, cell)
    text = path.read_text(encoding="utf-8")
    assert _digest(text) == FIXTURES[version, cell]
    report = verify_payload(loads(text))
    assert report.ok
    assert _digest(dumps(report_payload(report))) == REPORTS[cell]
    out = tmp_path / "report.json"
    assert main(["verify", "--in", str(path), "--out", str(out)]) == 0
    assert _digest(out.read_text(encoding="utf-8")) == REPORTS[cell]
