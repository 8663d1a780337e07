"""Committed decomposition payloads: their bytes and the reports they verify to.

tests/data/ holds one payload per golden cell in each wire format the writer
has produced: v1 (dense maps), v2 (central factors as Lie terms, class >= 2
only), v3 (each factor as the images it stores), v4 (v3 without the
derivable certificate "preserved" and factor "level"), v5 (v4 with each
collected word as its collected coordinates) and v6 (v5 with each lifted
central piece as the terms of its lower-level beta, and every offsets term
as a pair [[b1, .., bk], e]).  The payloads of a cell are the same
decomposition, so they verify to the same report.  Both tables were pinned
when the v3 payloads were written, and the v4, v5 and v6 payloads joined
under the same reports; the decomposition of a cell may change since,
these bytes and reports may not.  `as_v5` rebuilds the version 5 payload
of a version 6 one, `as_v4` spells a version 5 or 6 payload back into
words, and `as_v3` rebuilds the version 3 payload of a version 4, 5 or 6
one, for tests that compare with the older bytes or tamper with the keys
later versions leave out.
"""

import copy
import hashlib
from functools import reduce
from pathlib import Path

import pytest

from freenil import (
    GroupContext,
    GroupElement,
    ia_central,
    identity,
    left_normed_element,
    mul,
    verify_payload,
)
from freenil.cli import main
from freenil.jsonio import dumps, loads, report_payload, word_payload
from freenil.reader import parse_decomposition
from freenil.lie import spell

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
    ("v4", (10, 1, 2)): "e2d445979a1812c3d869be5777e645064ac2856118a34a2930edf5eb2faea0cc",
    ("v4", (10, 2, 1)): "1ba9deee80d48fe42c93d12a9448acc45a1cf8bc0cba6d24c6e56f5c290ab49d",
    ("v4", (9, 3, 0)): "f0013c6dfb8ebc1bf385b6a1906db2a00fe1e893565a0684eb5889594a789ac6",
    ("v4", (12, 3, 2)): "c9b5d404c1532fee628ff962ef502bff5225b29c9b3f026fde224acfca096c97",
    ("v4", (12, 4, 2)): "344c833e2fa4db59f889e9cabf4bb45a05e3ab6deb3ac9c4205c47598a8a58dd",
    ("v5", (10, 1, 2)): "c55f2d72d11742a0aa80b171199fc463f551a2551471c899cd564b53c69616df",
    ("v5", (10, 2, 1)): "41a0486ce9b37adcfc82a6b476a112b18ca047346124c108924311dd5f9bcb5c",
    ("v5", (9, 3, 0)): "ae14c1fc6519c3bbe2b332f589a89275bfbf40a9d3c006e660e06b73c244c658",
    ("v5", (12, 3, 2)): "f9f571a4d982df93cc34da4fd45ce0aa84db12d08b8b9a649767f7db3488a563",
    ("v5", (12, 4, 2)): "c5a22522a1ca28b264396e39586311bc2cc77df84b9475be08b7a8217ca2187b",
    ("v6", (10, 1, 2)): "c7479a945f1798e2f1ecfa2a746dcf14b3f88f0787023a00bdebdb800a5e3376",
    ("v6", (10, 2, 1)): "15386ed1047588ee442da603d2886009e29707420071a5cec3dc9ecac7c3ac2e",
    ("v6", (9, 3, 0)): "bcf5c4652998c00cc4411f86332cd76b1a0e46361ff02af343ecd1cb0558e925",
    ("v6", (12, 3, 2)): "ab5091e5ba576b985fc163bcc0d49fc2b8921d640453d88abbb4e93a02216ab4",
    ("v6", (12, 4, 2)): "ac59b268906d919fd8d7649b63667199e57392ccec6cf8636ac8252e0e01a33c",
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


def spelled(image: list) -> list:
    """An image as version 4 wrote it: one in collected form (with a
    bracket entry) spelled out as its collected word, any other as is."""
    if not any(type(head) is list for head, _ in image):
        return image
    coords = tuple((tuple(w) if type(w) is list else w, e) for w, e in image)
    return [[g, e] for g, e in spell(coords).letters]


def spelled_map(payload: dict) -> dict:
    """A map payload with every image `spelled`, as a fresh tree."""
    return {**payload, "images": [spelled(w) for w in payload["images"]]}


def term_product(ctx: GroupContext, terms) -> GroupElement:
    """The product of the left-normed commutator powers `terms`, pairs
    (generators, exponent), taken piece by piece with `left_normed_element`
    and `mul`: a spelling that shares no code with `ring.offset_image`
    beyond the ring's product, for tests that check what it builds."""
    pieces = (left_normed_element(ctx, tuple(b), e) for b, e in terms)
    return reduce(mul, pieces, identity(ctx))


def as_v5(payload: dict) -> dict:
    """The version 5 form of a version 6 payload, as a fresh tree.  A lifted
    factor's offsets, the terms of its level-k beta, become the stored
    words version 5 wrote: those of the images of
    ia_central(GroupContext(rank, k), {g: term_product(ctx_k, terms)}).
    Every other offsets term, a pair [[b1, .., bk], e], becomes the object
    {"comm": [b1, .., bk], "exp": e}."""
    rank = payload["input"]["rank"]
    factors = []
    for factor in copy.deepcopy(payload["factors"]):
        offsets = factor.get("offsets")
        if offsets is not None and factor["tag"] == "lifted":
            k = len(offsets[0][1][0][0])  # a beta's terms share their weight
            ctx = GroupContext(rank, k)
            beta = ia_central(
                ctx, {g: term_product(ctx, terms) for g, terms in offsets}
            )
            stored = [[g, word_payload(beta(g).word)] for g in sorted(beta.stored)]
            factor = {
                ("stored" if key == "offsets" else key): value
                for key, value in {**factor, "offsets": stored}.items()
            }
        elif offsets is not None:
            factor["offsets"] = [
                [g, [{"comm": b, "exp": e} for b, e in terms]] for g, terms in offsets
            ]
        factors.append(factor)
    return {**copy.deepcopy(payload), "version": 5, "factors": factors}


def as_v4(payload: dict) -> dict:
    """The version 4 form of a version 5 or 6 payload (`as_v5` first), as a
    fresh tree: every image in collected form, in the input map and in the
    factors' stored lists, spelled out as its collected word."""
    payload = as_v5(payload) if payload["version"] == 6 else copy.deepcopy(payload)
    for factor in payload["factors"]:
        if "stored" in factor:
            factor["stored"] = [[g, spelled(w)] for g, w in factor["stored"]]
    return {
        "version": 4,
        "input": spelled_map(payload["input"]),
        "fixed": payload["fixed"],
        "factors": payload["factors"],
    }


def as_v3(payload: dict) -> dict:
    """The version 3 form of a version 4, 5 or 6 payload, as a fresh tree:
    each certificate gets back its preserved block (the rest of 1..rank) and
    each factor its level (the class), in version 3 key order."""
    payload = copy.deepcopy(as_v4(payload) if payload["version"] >= 5 else payload)
    rank, nilclass = payload["input"]["rank"], payload["input"]["class"]
    factors = []
    for factor in payload["factors"]:
        out = {}
        for key, value in factor.items():
            if key == "certificate":
                fixed = value["fixed"]
                value = {
                    "fixed": fixed,
                    "preserved": [g for g in range(1, rank + 1) if g not in fixed],
                }
            out[key] = value
            if key == "tag":
                out["level"] = nilclass
        factors.append(out)
    return {
        "version": 3,
        "input": payload["input"],
        "fixed": payload["fixed"],
        "factors": factors,
    }


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


@pytest.mark.parametrize("cell", sorted(REPORTS))
def test_v4_fixture_is_the_v3_fixture_without_derivable_keys(cell):
    v4 = loads(fixture_path("v4", cell).read_text(encoding="utf-8"))
    assert v4["version"] == 4
    for factor in v4["factors"]:
        assert "level" not in factor and list(factor["certificate"]) == ["fixed"]
    v3 = fixture_path("v3", cell).read_text(encoding="utf-8")
    assert dumps(as_v3(v4)) == v3


@pytest.mark.parametrize("cell", sorted(REPORTS))
def test_v5_fixture_spells_back_to_the_v4_fixture(cell):
    v5 = loads(fixture_path("v5", cell).read_text(encoding="utf-8"))
    assert v5["version"] == 5
    v4 = fixture_path("v4", cell).read_text(encoding="utf-8")
    assert dumps(as_v4(v5)) == v4
    collected = [w for w in v5["input"]["images"] if any(type(h) is list for h, _ in w)]
    assert bool(collected) == (cell[1] > 1)


@pytest.mark.parametrize("cell", sorted(REPORTS))
def test_v6_fixture_is_the_v5_fixture_with_lifted_pieces_as_terms(cell):
    # the v5 fixture spells some lifted images in collected form, which
    # as_v5 writes as words, so the v6 one is compared through as_v4
    v6 = loads(fixture_path("v6", cell).read_text(encoding="utf-8"))
    assert v6["version"] == 6
    v4 = fixture_path("v4", cell).read_text(encoding="utf-8")
    assert dumps(as_v4(v6)) == v4
    lifted = [
        f
        for f in v6["factors"]
        if f["tag"] == "lifted" and f.get("origin") == "central_beta"
    ]
    assert all("offsets" in f for f in lifted)
    assert bool(lifted) == (cell[1] > 2)
    v5 = loads(fixture_path("v5", cell).read_text(encoding="utf-8"))
    got = parse_decomposition(v6)
    assert [f.map for f in got.factors] == [
        f.map for f in parse_decomposition(v5).factors
    ]
