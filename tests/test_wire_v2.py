"""Version 2 decomposition payloads: central_beta factors as Lie terms.

A central_beta factor x_g -> x_g * prod [x_b1, .., x_bc]^e is written as its
left-normed terms ("offsets") and rebuilt by `ring.offset_image`, the
central terms in closed form.  These tests pin that the builder equals the
product of commutator words it replaces, that the format before it
(version 1, committed under tests/data/v1/) still verifies to the pinned
report bytes, that version 2 (committed under tests/data/v2/) differs from
it only in the central bodies, and that malformed offsets are refused with a
named error.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from freenil import (
    GroupContext,
    IndexOutOfRange,
    MalformedInput,
    NotCentral,
    generator,
    ia_central,
    mul,
    verify_payload,
)
from freenil.cli import main
from freenil.jsonio import dumps, loads, report_payload
from freenil.reader import parse_map, parse_offsets
from freenil.ring import LeftNormedTerm, offset_image

from test_wire_fixtures import REPORTS, term_product

DATA = Path(__file__).parent / "data"
CELLS = [cell for cell in sorted(REPORTS) if cell[1] >= 2]


def _fixture(cell, version="v1") -> Path:
    return DATA / version / "decomposition_{}_{}_{}.json".format(*cell)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the builder against the commutator words it replaces

@pytest.mark.parametrize("nilclass", [2, 3, 4, 5, 6])
def test_closed_form_equals_product_of_commutator_words(nilclass):
    # offset_image against x_g times the left_normed_element pieces: central
    # terms alone, with small exponents, then terms of mixed weight 2..class
    # in one image, with exponents +-1, +-2 and one above 2^64
    rng = random.Random(800 + nilclass)
    rank = 5 if nilclass >= 5 else 7
    ctx = GroupContext(rank, nilclass)
    seen_exponents, seen_weights = set(), set()
    for mixed in [False] * 6 + [True] * 6:
        exponents = (-2, -1, 1, 2, 2**64 + 1) if mixed else (-3, -2, -1, 1, 2, 3)
        terms = []
        for _ in range(rng.randrange(1, 5)):
            weight = rng.randrange(2, nilclass + 1) if mixed else nilclass
            terms.append(
                LeftNormedTerm(
                    tuple(rng.randrange(1, rank + 1) for _ in range(weight)),
                    rng.choice(exponents),
                )
            )
        g = rng.randrange(1, rank + 1)
        pairs = [(t.generators, t.exponent) for t in terms]
        built = mul(generator(ctx, g), term_product(ctx, pairs))
        image = offset_image(ctx, g, terms)
        assert image.poly == built.poly
        assert image.word is None
        if mixed:
            seen_exponents.update(t.exponent for t in terms)
            seen_weights.add(frozenset(len(t.generators) for t in terms))
    assert seen_exponents == set(exponents)
    assert nilclass == 2 or max(map(len, seen_weights)) >= 2  # mixed weights


def test_closed_form_refuses_terms_off_the_centre():
    ctx = GroupContext(4, 3)
    with pytest.raises(NotCentral):
        parse_offsets(ctx, [[1, [[[1, 2], 1]]]], version=6)
    with pytest.raises(IndexOutOfRange):
        parse_offsets(ctx, [[1, [[[1, 2, 5], 1]]]], version=6)


# ---------------------------------------------------------------------------
# version 1 still verifies, and version 2 differs from it only in offsets


@pytest.mark.parametrize("cell", CELLS)
def test_v1_fixture_verifies_to_the_pinned_report(cell, tmp_path):
    text = _fixture(cell).read_text(encoding="utf-8")
    assert "version" not in loads(text)
    report = verify_payload(loads(text))
    assert report.ok
    assert _digest(dumps(report_payload(report))) == REPORTS[cell]
    out = tmp_path / "report.json"
    assert main(["verify", "--in", str(_fixture(cell)), "--out", str(out)]) == 0
    assert _digest(out.read_text(encoding="utf-8")) == REPORTS[cell]


@pytest.mark.parametrize("cell", CELLS)
def test_v2_payload_matches_v1_outside_central_bodies(cell):
    old = loads(_fixture(cell).read_text(encoding="utf-8"))
    new = loads(_fixture(cell, "v2").read_text(encoding="utf-8"))
    assert list(new) == ["version", "input", "fixed", "factors"]
    assert new.pop("version") == 2
    assert dumps(new["input"]) == dumps(old["input"])
    assert new["fixed"] == old["fixed"]
    assert len(new["factors"]) == len(old["factors"])
    rank, nilclass, _ = cell
    ctx = GroupContext(rank, nilclass)
    central = 0
    for got, was in zip(new["factors"], old["factors"]):
        if got["tag"] != "central_beta":
            assert dumps(got) == dumps(was)
            continue
        central += 1
        assert list(got) == ["offsets"] + list(was)[1:]
        assert {k: v for k, v in got.items() if k != "offsets"} == {
            k: v for k, v in was.items() if k != "map"
        }
        # the offsets rebuild the very images the v1 words spell
        rebuilt = {
            g: ia_central(
                ctx, {g: term_product(ctx, [(t["comm"], t["exp"]) for t in terms])}
            )(g).poly
            for g, terms in got["offsets"]
        }
        v1_map = parse_map(was["map"])
        assert rebuilt == {g: v1_map(g).poly for g in sorted(v1_map.moved)}
    assert central >= 1


# ---------------------------------------------------------------------------
# refusals and tampering

@pytest.fixture(scope="module")
def v2_text():
    return _fixture((12, 3, 2), "v2").read_text(encoding="utf-8")


def _central(payload) -> dict:
    return next(f for f in payload["factors"] if f["tag"] == "central_beta")


def test_v2_payload_verifies(v2_text):
    payload = loads(v2_text)
    assert payload["version"] == 2
    assert verify_payload(payload).ok


def test_refuses_a_term_whose_length_is_not_the_class(v2_text):
    payload = loads(v2_text)
    term = _central(payload)["offsets"][0][1][0]
    term["comm"] = term["comm"][:-1]
    with pytest.raises(NotCentral, match="weight 2"):
        verify_payload(payload)


def test_refuses_a_zero_exponent(v2_text):
    payload = loads(v2_text)
    _central(payload)["offsets"][0][1][0]["exp"] = 0
    with pytest.raises(MalformedInput, match="exp must be nonzero"):
        verify_payload(payload)


def test_refuses_an_out_of_range_generator(v2_text):
    payload = loads(v2_text)
    _central(payload)["offsets"][0][0] = 13
    with pytest.raises(IndexOutOfRange, match="13"):
        verify_payload(payload)


def test_refuses_a_repeated_generator(v2_text):
    payload = loads(v2_text)
    offsets = _central(payload)["offsets"]
    offsets.append(list(offsets[0]))
    with pytest.raises(MalformedInput, match="twice"):
        verify_payload(payload)


def test_refuses_offsets_on_another_tag(v2_text):
    payload = loads(v2_text)
    lifted = next(f for f in payload["factors"] if f["tag"] == "lifted")
    lifted["offsets"] = _central(payload)["offsets"]
    del lifted["map"]
    with pytest.raises(MalformedInput, match="only central_beta"):
        verify_payload(payload)


def test_refuses_offsets_without_version_2(v2_text):
    for version in (None, 1):
        payload = loads(v2_text)
        if version is None:
            del payload["version"]
        else:
            payload["version"] = version
        with pytest.raises(MalformedInput, match="version 2"):
            verify_payload(payload)


@pytest.mark.parametrize("version", [0, 7, "2", True, None])
def test_refuses_an_unknown_version(v2_text, version):
    payload = loads(v2_text)
    payload["version"] = version
    with pytest.raises(MalformedInput, match="unknown decomposition version"):
        verify_payload(payload)


def test_refuses_a_factor_with_both_or_neither_of_map_and_offsets(v2_text):
    payload = loads(v2_text)
    factor = _central(payload)
    factor["map"] = payload["input"]
    with pytest.raises(MalformedInput, match="exactly one"):
        verify_payload(payload)
    del factor["map"], factor["offsets"]
    with pytest.raises(MalformedInput, match="exactly one"):
        verify_payload(payload)


def test_flipping_one_exponent_fails_verification(v2_text, tmp_path):
    payload = loads(v2_text)
    term = _central(payload)["offsets"][0][1][0]
    term["exp"] = -term["exp"]
    report = verify_payload(payload)
    assert not report.ok
    assert any("product" in msg for msg in report.failures)
    infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
    infile.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["verify", "--in", str(infile), "--out", str(outfile)]) == 0
    assert json.loads(outfile.read_text(encoding="utf-8"))["ok"] is False
