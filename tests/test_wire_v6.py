"""Version 6 payloads: lifted central pieces as terms, every term as a pair.

Below the top class, `decompose` builds each level-k central_beta as one
class-c lifted factor; version 6 writes that factor as its beta's offsets,
terms of weight k, in place of the stored words, and the reader rebuilds
each image from them as the engine does (`ring.offset_image`).  Inside
offsets every term is the pair [[b1, .., bk], e].  These tests pin that
writing and reading are inverse at classes 1 to 6, that the rebuilt images
are the ones the engine built and the ones the beta's words give at the
class, and that every refusal is a documented envelope, from the reader and
from the CLI plain and under python -O; version 5 reads neither pairs nor
lifted offsets.
"""

import importlib
import itertools
import json
import subprocess
import sys

import pytest

from freenil import (
    GroupContext,
    IndexOutOfRange,
    MalformedInput,
    NotCentral,
    decompose,
    from_word,
    ia_central,
    identity_map,
    random_automorphism,
    verify_payload,
)
from freenil.jsonio import decomposition_payload, dumps, loads, map_payload
from freenil.reader import parse_decomposition

from test_wire_fixtures import as_v5, fixture_path, term_product
from test_wire_v5 import _DRIVER


def _decompositions(c, seeds=(1, 2)):
    ctx = GroupContext(2 * (c + 1) + 1, c)
    for seed in seeds:
        sigma = random_automorphism(ctx, seed, 8, (1,))
        yield decompose(sigma, (1,))


def _lifted_betas(dec):
    return [
        f for f in dec.factors if f.tag == "lifted" and f.origin == "central_beta"
    ]


# ---------------------------------------------------------------------------
# writing and reading are inverse

@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
def test_parse_of_write_is_the_identity(c):
    for dec in _decompositions(c):
        payload = decomposition_payload(dec)
        assert payload["version"] == 6
        parsed = parse_decomposition(loads(dumps(payload)))
        assert parsed == dec
        assert decomposition_payload(parsed) == payload
        for f, obj in zip(dec.factors, payload["factors"]):
            # offsets exactly on the central pieces, each term a pair
            assert ("offsets" in obj) == ("central_beta" in (f.tag, f.origin))
            for _, terms in obj.get("offsets", ()):
                assert all(type(b) is list and type(e) is int for b, e in terms)
        if any("offsets" in obj for obj in payload["factors"]):
            assert len(dumps(payload)) < len(dumps(as_v5(payload)))


@pytest.mark.parametrize("c", [3, 4, 5, 6])
def test_lifted_betas_rebuild_the_images_the_engine_built(c):
    seen = 0
    for dec in _decompositions(c, seeds=(1, 2, 3)):
        parsed = parse_decomposition(loads(dumps(decomposition_payload(dec))))
        for f, got in zip(dec.factors, parsed.factors):
            if f not in _lifted_betas(dec):
                continue
            seen += 1
            # another route: the level-k beta built piece by piece, its
            # image words read at class c
            k = len(f.offsets[0][1][0].generators)
            assert 2 <= k < c
            ctx_k = GroupContext(f.map.ctx.rank, k)
            beta = ia_central(
                ctx_k,
                {
                    g: term_product(ctx_k, [(t.generators, t.exponent) for t in terms])
                    for g, terms in f.offsets
                },
            )
            assert got.map.moved == f.map.moved == beta.moved
            for g in beta.moved:
                want = from_word(f.map.ctx, beta(g).word)
                for img in (got.map(g), f.map(g)):
                    assert img.poly == want.poly
                    assert img.word is None
            assert got.offsets == f.offsets
    assert seen


def test_a_lifted_term_may_have_the_weight_of_the_class():
    payload = loads(fixture_path("v6", (12, 4, 2)).read_text(encoding="utf-8"))
    payload["factors"][LIFTED]["offsets"] = [[10, [[[2, 3, 2, 3], 1]]]]
    phi = parse_decomposition(payload).factors[LIFTED].map
    ctx = phi.ctx
    assert phi(10) == ia_central(ctx, {10: term_product(ctx, [((2, 3, 2, 3), 1)])})(10)


# ---------------------------------------------------------------------------
# a hostile payload: heavy terms, each read as a polynomial

def _heavy_payload(c):
    # N(3, c), D = {1}: one central_beta factor moving x_3 by all 2^(c-1)
    # weight-c left-normed terms over {1, 2} with b1 != b2.  [x_1, x_2, ..]
    # and [x_2, x_1, ..] cancel, so the image is x_3 and the payload is
    # valid, yet each term spells to 3 * 2^(c-1) - 2 letters
    terms = [[list(b), 1] for b in itertools.product((1, 2), repeat=c) if b[0] != b[1]]
    return {
        "version": 6,
        "input": map_payload(identity_map(GroupContext(3, c))),
        "fixed": [1],
        "factors": [
            {"offsets": [[3, terms]], "certificate": {"fixed": [1, 2]}, "tag": "central_beta"}
        ],
    }


# verify one payload from stdin; the peak RSS it adds in KiB (ru_maxrss
# counts KiB on Linux, bytes on macOS) and its wall time
_RSS_DRIVER = """
import json, resource, sys, time
from freenil import verify_payload
from freenil.jsonio import loads
payload = loads(sys.stdin.read())
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
report = verify_payload(payload)
seconds = time.perf_counter() - start
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
if sys.platform == "darwin":
    grown //= 1024
print(json.dumps({"ok": report.ok, "grown_kib": grown, "seconds": seconds}))
"""


def test_heavy_offsets_verify_without_spelling_a_word():
    # the verifier reads the 512 weight-10 terms as polynomials: no word of
    # 512 * 1534 letters is spelled, so the peak RSS grows by a few MB, not
    # the hundred the spelled word took
    text = dumps(_heavy_payload(10))
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_DRIVER],
        input=text.encode(),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    got = json.loads(proc.stdout)
    print(f"{len(text)} B payload verified in {got['seconds']:.3f} s, "
          f"peak RSS +{got['grown_kib']} KiB")
    assert got["ok"]
    assert got["grown_kib"] < 10 * 1024


def test_the_reader_builds_offsets_images_with_no_word(monkeypatch):
    reader = importlib.import_module("freenil.reader")
    built = []

    def recording(ctx, g, terms):
        built.append(original(ctx, g, terms))
        return built[-1]

    original = reader.offset_image
    monkeypatch.setattr(reader, "offset_image", recording)
    fixture = loads(fixture_path("v6", (12, 4, 2)).read_text(encoding="utf-8"))
    for payload in (_heavy_payload(9), fixture):
        assert verify_payload(payload).ok
    assert len(built) > 1
    assert all(img.word is None for img in built)


# ---------------------------------------------------------------------------
# refusals, on the class-4 fixture: (edit, error, exit code, message)

# factor indices in tests/data/v6/decomposition_12_4_2.json
PERMUTATION, LIFTED, BETA = 0, 15, 19


def _with_term(index, term):
    def edit(payload):
        payload["factors"][index]["offsets"][0][1][0] = term
    return edit


def _move_offsets(index, **keys):
    def edit(payload):
        factor = payload["factors"][index]
        factor.pop("stored", None)
        factor["offsets"] = payload["factors"][LIFTED]["offsets"]
        for key, value in keys.items():
            if value is None:
                del factor[key]
            else:
                factor[key] = value
    return edit


def _twice(payload):
    offsets = payload["factors"][LIFTED]["offsets"]
    offsets.append(offsets[0])


def _generator(payload):
    payload["factors"][LIFTED]["offsets"][0][0] = 13


def _pair_in_v5(payload):
    payload.update(as_v5(payload))
    payload["factors"][BETA]["offsets"][0][1][0] = [[2, 3, 2, 2], -1]


def _lifted_offsets_in_v5(payload):
    offsets = as_v5(payload)["factors"][BETA]["offsets"]
    payload.update(as_v5(payload))
    factor = payload["factors"][LIFTED]
    del factor["stored"]
    factor["offsets"] = offsets


M, R = "MalformedInput", "IndexOutOfRange"
PAIRS = "terms must be [[b1, .., bk], exp] pairs"
ROWS = {
    "object-term": (_with_term(LIFTED, {"comm": [2, 3], "exp": -1}), M, 2, PAIRS),
    "object-term-in-a-central-beta": (
        _with_term(BETA, {"comm": [2, 3, 2, 2], "exp": -1}), M, 2, PAIRS
    ),
    "bare-list-term": (_with_term(LIFTED, [2, 3]), M, 2, PAIRS),
    "triple-term": (_with_term(LIFTED, [[2, 3], -1, 1]), M, 2, PAIRS),
    "letters-not-a-list": (_with_term(LIFTED, [2, -1]), M, 2, PAIRS),
    "weight-one": (
        _with_term(LIFTED, [[3], 1]), M, 2,
        "comm must list at least two positive generator indices",
    ),
    "above-the-class": (
        _with_term(LIFTED, [[2, 3, 2, 3, 2], 1]), M, 2,
        "term [2, 3, 2, 3, 2] has weight 5, above the class 4",
    ),
    "below-the-class-in-a-central-beta": (
        _with_term(BETA, [[2, 3], 1]), "NotCentral", 1,
        "term [2, 3] has weight 2; central terms need weight 4 >= 2",
    ),
    "letter-above-the-rank-in-a-central-beta": (
        _with_term(BETA, [[2, 3, 2, 13], -1]), R, 1,
        "generator 13 out of range 1..12",
    ),
    "zero-exponent": (_with_term(LIFTED, [[2, 3], 0]), M, 2, "exp must be nonzero"),
    "bool-exponent": (_with_term(LIFTED, [[2, 3], True]), M, 2, "exp must be an integer"),
    "bool-letter": (
        _with_term(LIFTED, [[True, 3], 1]), M, 2, "commutator entry must be an integer"
    ),
    "letter-zero": (
        _with_term(LIFTED, [[0, 3], 1]), M, 2,
        "comm must list at least two positive generator indices",
    ),
    "letter-above-the-rank": (
        _with_term(LIFTED, [[2, 13], 1]), R, 1, "generator 13 out of range 1..12"
    ),
    "generator-above-the-rank": (_generator, R, 1, "generator 13 out of range 1..12"),
    "generator-twice": (_twice, M, 2, "offsets name generator 10 twice"),
    "offsets-of-another-origin": (
        _move_offsets(PERMUTATION), M, 2,
        "a lifted factor carries offsets only of origin central_beta, "
        "not 'permutation'",
    ),
    "offsets-without-an-origin": (
        _move_offsets(LIFTED, origin=None, part=None, side=None), M, 2,
        "a lifted factor carries offsets only of origin central_beta, not None",
    ),
    "offsets-on-a-shear": (
        _move_offsets(LIFTED, tag="shear", origin=None, part=None, side=None), M, 2,
        "only central_beta factors and their lifts carry offsets, not 'shear'",
    ),
    "pair-terms-in-version-5": (_pair_in_v5, M, 2, "term must be an object"),
    "lifted-offsets-in-version-5": (
        _lifted_offsets_in_v5, M, 2,
        "only central_beta factors carry offsets, not 'lifted'",
    ),
}

ERRORS = {
    "MalformedInput": MalformedInput,
    "IndexOutOfRange": IndexOutOfRange,
    "NotCentral": NotCentral,
}


def _edited(row) -> dict:
    payload = loads(fixture_path("v6", (12, 4, 2)).read_text(encoding="utf-8"))
    ROWS[row][0](payload)
    return payload


def test_the_fixture_verifies_before_any_edit():
    payload = loads(fixture_path("v6", (12, 4, 2)).read_text(encoding="utf-8"))
    factors = payload["factors"]
    assert [factors[i]["tag"] for i in (PERMUTATION, LIFTED, BETA)] == [
        "lifted", "lifted", "central_beta"
    ]
    assert factors[PERMUTATION]["origin"] == "permutation"
    assert factors[LIFTED]["origin"] == "central_beta"
    assert factors[LIFTED]["offsets"][0][0] == 10
    assert verify_payload(payload).ok


@pytest.mark.parametrize("row", sorted(ROWS))
def test_reader_refuses_each_row(row):
    _, error, _, message = ROWS[row]
    with pytest.raises(ERRORS[error]) as info:
        parse_decomposition(_edited(row))
    assert message in str(info.value)


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "O"])
def test_cli_refuses_each_row_with_its_envelope(optimize):
    runs = {row: ["verify", _edited(row)] for row in ROWS}
    proc = subprocess.run(
        [sys.executable, *optimize, "-c", _DRIVER],
        input=json.dumps(runs).encode(),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    got = json.loads(proc.stdout)
    assert sorted(got) == sorted(runs)
    for row, (code, out) in got.items():
        _, error, want_code, message = ROWS[row]
        assert code == want_code, row
        assert sorted(out) == ["error", "message"], row
        assert out["error"] == error and message in out["message"], (row, out)

