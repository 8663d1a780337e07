"""Version 3 decomposition payloads: each factor as the images it stores.

A factor that is not written as offsets carries "stored": the images its map
stores, as [g, WORD] pairs in increasing g; every generator it leaves out
maps to itself.  These tests pin that the payloads the writer made before
version 3 (committed under tests/data/v1/ for class 1 and tests/data/v2/
otherwise) still hold the bytes the golden digests pinned then and verify to
the pinned reports, that the writer turns the decompositions they hold into
payloads whose version 3 form (`as_v3`, as the writer wrote before version
4) is the committed version 3 payload (tests/data/v3/), which differs from
them only in map -> stored, and that malformed stored lists are refused
with a named error.
"""

import hashlib
from pathlib import Path

import pytest

from freenil import (
    GroupContext,
    IndexOutOfRange,
    MalformedInput,
    verify_payload,
)
from freenil.cli import main
from freenil.jsonio import (
    decomposition_payload,
    dumps,
    loads,
    report_payload,
    stored_payload,
)
from freenil.reader import (
    parse_decomposition,
    parse_map,
    parse_offsets,
    parse_stored,
)

from test_wire_fixtures import REPORTS, as_v3, fixture_path
from test_wire_golden import GOLDEN

DATA = Path(__file__).parent / "data"

# GOLDEN[cell]["decomposition"] before version 3: the bytes of the fixtures
EARLIER = {
    (10, 1, 2): "3af40ab66e2ce3d49ae7c0f2824195d2932a99eb1fb4cb6408b0f715f69ca997",
    (10, 2, 1): "30affce57326d8861a7a0037f053d8f2dde520c0ad223951286ef9db2a3a303b",
    (9, 3, 0): "15194874a5f8b6258b047776f9f95c64d35e74b42c4df0e19098a68792bb5da7",
    (12, 3, 2): "a730bb225486d6ed489237837b6d13e7c60aa4ae4ff2d062560d10147eeffcd0",
    (12, 4, 2): "be1773f43c218f51007210cb675bef8950bf7759deea2e4b37393c497166ee86",
}


def _fixture(cell) -> Path:
    version = "v1" if cell[1] == 1 else "v2"
    return DATA / version / "decomposition_{}_{}_{}.json".format(*cell)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the earlier payloads keep their bytes and their reports

@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_earlier_fixture_keeps_its_bytes_and_report(cell, tmp_path):
    text = _fixture(cell).read_text(encoding="utf-8")
    assert _digest(text) == EARLIER[cell]
    report = verify_payload(loads(text))
    assert report.ok
    assert _digest(dumps(report_payload(report))) == REPORTS[cell]
    out = tmp_path / "report.json"
    assert main(["verify", "--in", str(_fixture(cell)), "--out", str(out)]) == 0
    assert _digest(out.read_text(encoding="utf-8")) == REPORTS[cell]


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_v3_payload_matches_the_earlier_one_but_for_stored(cell):
    old = loads(_fixture(cell).read_text(encoding="utf-8"))
    # the writer on the decomposition the earlier payload holds, in the
    # version 3 form
    new = as_v3(decomposition_payload(parse_decomposition(old)))
    assert dumps(new) == fixture_path("v3", cell).read_text(encoding="utf-8")
    assert list(new) == ["version", "input", "fixed", "factors"]
    assert new.pop("version") == 3
    assert old.pop("version", 1) == (1 if cell[1] == 1 else 2)
    assert dumps(new["input"]) == dumps(old["input"])
    assert new["fixed"] == old["fixed"]
    assert len(new["factors"]) == len(old["factors"])
    ctx = GroupContext(*cell[:2])
    sparse = 0
    for got, was in zip(new["factors"], old["factors"]):
        if "offsets" in was:
            assert dumps(got) == dumps(was)
            continue
        sparse += 1
        assert list(got) == ["stored"] + list(was)[1:]
        assert {k: v for k, v in got.items() if k != "stored"} == {
            k: v for k, v in was.items() if k != "map"
        }
        # stored lists exactly the images the dense form spells out
        images = was["map"]["images"]
        assert got["stored"] == [
            [g, w] for g, w in enumerate(images, 1) if w != [[g, 1]]
        ]
        # and parses to the same map: stored images, words and moved set
        dense, light = parse_map(was["map"]), parse_stored(ctx, got["stored"])
        assert light.moved == dense.moved
        assert {g: (a.poly, a.word) for g, a in light.stored.items()} == {
            g: (a.poly, a.word) for g, a in dense.stored.items()
        }
    assert sparse >= 1
    # the report does not move
    earlier = verify_payload(loads(_fixture(cell).read_text(encoding="utf-8")))
    assert dumps(report_payload(verify_payload(new | {"version": 3}))) == dumps(
        report_payload(earlier)
    )


# ---------------------------------------------------------------------------
# refusals

@pytest.fixture(scope="module")
def v3_text():
    return fixture_path("v3", (12, 3, 2)).read_text(encoding="utf-8")


def _lifted(payload) -> dict:
    return next(f for f in payload["factors"] if f["tag"] == "lifted")


def test_v3_payload_verifies(v3_text):
    payload = loads(v3_text)
    assert payload["version"] == 3
    assert verify_payload(payload).ok


def test_central_factor_may_carry_stored(v3_text):
    # a central_beta factor written without its terms lists its images
    payload = loads(v3_text)
    v2 = loads(_fixture((12, 3, 2)).read_text(encoding="utf-8"))
    index, central = next(
        (i, f) for i, f in enumerate(v2["factors"]) if f["tag"] == "central_beta"
    )
    phi, _ = parse_offsets(GroupContext(12, 3), central["offsets"])
    factor = payload["factors"][index]
    assert "offsets" in factor
    del factor["offsets"]
    factor["stored"] = stored_payload(phi)
    assert factor["stored"]
    assert verify_payload(payload).ok


def test_refuses_a_map_in_version_3(v3_text):
    payload = loads(v3_text)
    factor = _lifted(payload)
    del factor["stored"]
    factor["map"] = payload["input"]
    with pytest.raises(MalformedInput, match="version 3 factors carry stored, not map"):
        verify_payload(payload)


@pytest.mark.parametrize("version", [None, 1, 2])
def test_refuses_stored_before_version_3(v3_text, version):
    payload = loads(v3_text)
    if version is None:
        del payload["version"]
    else:
        payload["version"] = version
    with pytest.raises(MalformedInput, match="stored needs a version 3 decomposition"):
        verify_payload(payload)


def test_refuses_a_factor_with_both_map_and_stored(v3_text):
    payload = loads(v3_text)
    _lifted(payload)["map"] = payload["input"]
    with pytest.raises(MalformedInput, match="exactly one of the keys map, stored"):
        verify_payload(payload)


@pytest.mark.parametrize(
    "entry, message",
    [
        (3, "stored image must be a list"),
        ([3], r"stored images must be \[generator, word\] pairs"),
        ([3, [[3, 1], [1, 1]], 0], r"stored images must be \[generator, word\] pairs"),
        (["3", [[3, 1], [1, 1]]], "stored generator must be an integer"),
        ([3.0, [[3, 1], [1, 1]]], "stored generator must be an integer"),
        ([True, [[1, 1], [2, 1]]], "stored generator must be an integer"),
        ([None, [[3, 1], [1, 1]]], "stored generator must be an integer"),
    ],
)
def test_refuses_a_stored_entry_that_is_not_a_generator_word_pair(v3_text, entry, message):
    payload = loads(v3_text)
    _lifted(payload)["stored"] = [entry]
    with pytest.raises(MalformedInput, match=message):
        verify_payload(payload)


def test_refuses_stored_generators_out_of_order(v3_text):
    payload = loads(v3_text)
    factor = _lifted(payload)
    stored = factor["stored"]
    assert stored
    for bad in (stored + [stored[-1]], [[5, [[5, 1], [1, 1]]], [4, [[4, 1], [1, 1]]]]):
        factor["stored"] = bad
        with pytest.raises(MalformedInput, match="strictly increase"):
            verify_payload(payload)


@pytest.mark.parametrize("g", [0, -1, 13])
def test_refuses_a_stored_generator_out_of_range(v3_text, g):
    payload = loads(v3_text)
    _lifted(payload)["stored"] = [[g, [[1, 1], [2, 1]]]]
    with pytest.raises(IndexOutOfRange, match=f"generator {g} out of range 1..12"):
        verify_payload(payload)


@pytest.mark.parametrize(
    "word, error, message",
    [
        ([[3, 1], [13, 1]], IndexOutOfRange, "word uses generator 13"),
        ([[3, 1], [0, 1]], MalformedInput, "generator index 0 must be positive"),
        ([[3, 1], [1]], MalformedInput, r"word letters must be \[generator, exponent\]"),
        ([[3, 1], [1, True]], MalformedInput, "exponent must be an integer"),
        ([[3, 1], [1.5, 1]], MalformedInput, "generator index must be an integer"),
        ({"word": [[3, 1]]}, MalformedInput, "word must be a list"),
    ],
)
def test_refuses_a_stored_word_as_a_map_image_would(v3_text, word, error, message):
    payload = loads(v3_text)
    _lifted(payload)["stored"] = [[3, word]]
    with pytest.raises(error, match=message):
        verify_payload(payload)
    # the same word as a dense image meets the same refusal
    images = [[[g, 1]] for g in range(1, 13)]
    images[2] = word
    with pytest.raises(error, match=message):
        parse_map({"rank": 12, "class": 3, "images": images})


def test_tampered_stored_word_fails_verification(v3_text, tmp_path):
    payload = loads(v3_text)
    stored = _lifted(payload)["stored"]
    g, word = stored[0]
    stored[0] = [g, word + [[g, 1]]]
    report = verify_payload(payload)
    assert not report.ok
    infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
    infile.write_text(dumps(payload), encoding="utf-8")
    assert main(["verify", "--in", str(infile), "--out", str(outfile)]) == 0
    assert loads(outfile.read_text(encoding="utf-8"))["ok"] is False


@pytest.mark.parametrize("key", ["fixed", "preserved"])
@pytest.mark.parametrize(
    "index, message",
    [
        (True, "index must be an integer"),
        (2.0, "index must be an integer"),
        ("2", "index must be an integer"),
        (0, "indices must be positive"),
        (-3, "indices must be positive"),
    ],
)
def test_refuses_a_certificate_index_that_is_not_a_positive_int(v3_text, key, index, message):
    payload = loads(v3_text)
    _lifted(payload)["certificate"][key].append(index)
    with pytest.raises(MalformedInput, match=f"{key} {message}"):
        verify_payload(payload)
