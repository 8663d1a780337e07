"""Version 2 decomposition payloads: central_beta factors as Lie terms.

A central_beta factor x_g -> x_g * prod [x_b1, .., x_bc]^e is written as its
left-normed terms ("offsets") and rebuilt in closed form by
`lie.central_offset`.  These tests pin that the closed form equals the
product of commutator words it replaces, that the parent format (version 1,
committed under tests/data/v1/) still verifies to the pinned report bytes,
and that malformed offsets are refused with a named error.
"""

import hashlib
import json
import random
from functools import reduce
from pathlib import Path

import pytest

from freenil import (
    GroupContext,
    IndexOutOfRange,
    MalformedInput,
    NotCentral,
    decompose,
    generator,
    ia_central,
    left_normed_element,
    mul,
    random_automorphism,
    verify_payload,
)
from freenil.cli import main
from freenil.jsonio import decomposition_payload, dumps, loads, parse_map, report_payload
from freenil.lie import LeftNormedTerm, central_offset

from test_wire_golden import GOLDEN, MOVES, SEED

V1 = Path(__file__).parent / "data" / "v1"
CELLS = [cell for cell in sorted(GOLDEN) if cell[1] >= 2]


def _fixture(cell) -> Path:
    return V1 / "decomposition_{}_{}_{}.json".format(*cell)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the closed form against the commutator words it replaces

@pytest.mark.parametrize("nilclass", [2, 3, 4, 5, 6])
def test_closed_form_equals_product_of_commutator_words(nilclass):
    rng = random.Random(800 + nilclass)
    rank = 5 if nilclass >= 5 else 7
    ctx = GroupContext(rank, nilclass)
    for _ in range(6):
        terms = [
            LeftNormedTerm(
                tuple(rng.randrange(1, rank + 1) for _ in range(nilclass)),
                rng.choice((-3, -2, -1, 1, 2, 3)),
            )
            for _ in range(rng.randrange(1, 5))
        ]
        pieces = [left_normed_element(ctx, t.generators, t.exponent) for t in terms]
        built = reduce(mul, pieces)
        closed = central_offset(ctx, terms)
        assert closed.poly == built.poly
        assert closed.word.letters == built.word.letters
        # and as the image ia_central makes of it
        g = rng.randrange(1, rank + 1)
        image = ia_central(ctx, {g: closed})(g)
        word_built = mul(generator(ctx, g), built)
        assert (image.poly, image.word) == (word_built.poly, word_built.word)


def test_closed_form_refuses_terms_off_the_centre():
    ctx = GroupContext(4, 3)
    with pytest.raises(NotCentral):
        central_offset(ctx, [LeftNormedTerm((1, 2), 1)])
    with pytest.raises(IndexOutOfRange):
        central_offset(ctx, [LeftNormedTerm((1, 2, 5), 1)])


# ---------------------------------------------------------------------------
# the parent format still verifies, and the new one differs only in offsets

def _decompose_cell(cell):
    rank, nilclass, pinned = cell
    fixed = range(1, pinned + 1)
    sigma = random_automorphism(GroupContext(rank, nilclass), SEED + rank, MOVES, fix=fixed)
    return decomposition_payload(decompose(sigma, fixed))


@pytest.mark.parametrize("cell", CELLS)
def test_v1_fixture_verifies_to_the_pinned_report(cell, tmp_path):
    text = _fixture(cell).read_text(encoding="utf-8")
    assert "version" not in loads(text)
    report = verify_payload(loads(text))
    assert report.ok
    assert _digest(dumps(report_payload(report))) == GOLDEN[cell]["report"]
    out = tmp_path / "report.json"
    assert main(["verify", "--in", str(_fixture(cell)), "--out", str(out)]) == 0
    assert _digest(out.read_text(encoding="utf-8")) == GOLDEN[cell]["report"]


@pytest.mark.parametrize("cell", CELLS)
def test_v2_payload_matches_v1_outside_central_bodies(cell):
    old = loads(_fixture(cell).read_text(encoding="utf-8"))
    new = _decompose_cell(cell)
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
            g: ia_central(ctx, {g: central_offset(ctx, [
                LeftNormedTerm(tuple(t["comm"]), t["exp"]) for t in terms
            ])})(g).poly
            for g, terms in got["offsets"]
        }
        v1_map = parse_map(was["map"])
        assert rebuilt == {g: v1_map(g).poly for g in sorted(v1_map.moved)}
    assert central >= 1


# ---------------------------------------------------------------------------
# refusals and tampering

@pytest.fixture(scope="module")
def v2_text():
    return dumps(_decompose_cell((12, 3, 2)))


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


@pytest.mark.parametrize("version", [0, 3, "2", True, None])
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
