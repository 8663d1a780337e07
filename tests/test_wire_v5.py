"""Version 5 payloads: images in collected form.

An image with no provenance word is written as its collected coordinates
(`lie.collect_word`): the letters [g, e] with g increasing, then the
bracket powers [[w1..wk], e] of Lyndon words w, 2 <= k <= class, in (k, w)
order.  These tests pin that writing and reading are inverse at classes 1
to 6, that the rebuilt polynomials are those of the spelled-out words, that
a list with a bracket entry is read only in canonical form and every
refusal is a documented envelope (from the reader, and from the CLI plain
and under python -O), that `decompose` echoes its input without collecting
it again, and that version 4 payloads still read words alone.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from freenil import (
    GeneratorMap,
    GroupContext,
    GroupElement,
    IndexOutOfRange,
    MalformedInput,
    Word,
    collect_word,
    decompose,
    from_word,
    generator,
    random_automorphism,
    spell,
    verify_payload,
)
from freenil import jsonio, lie
from freenil.jsonio import (
    decomposition_payload,
    dumps,
    loads,
    map_payload,
    report_payload,
)
from freenil.reader import parse_map, parse_stored, parse_word

from test_wire_fixtures import as_v4, as_v5, fixture_path, spelled

def _has_bracket(image) -> bool:
    return any(type(head) is list for head, _ in image)


def _report(payload) -> str:
    return dumps(report_payload(verify_payload(payload)))


# ---------------------------------------------------------------------------
# writing and reading are inverse

@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(1, 6),
    letters=st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from((-2, -1, 1, 2, 3))), max_size=8
    ),
)
def test_parse_of_write_is_the_identity(c, letters):
    ctx = GroupContext(3, c)
    # without its word the element is written in collected form
    a = GroupElement(ctx, from_word(ctx, Word(letters)).poly)
    payload = map_payload(GeneratorMap(ctx, [a, generator(ctx, 2), generator(ctx, 3)]))
    phi = parse_map(loads(dumps(payload)))
    assert phi(1) == a
    assert map_payload(phi) == payload
    coords = collect_word(a)
    if any(type(head) is tuple for head, _ in coords):
        assert phi(1).coords == coords and _has_bracket(payload["images"][0])
    else:
        # letters alone: the same bytes as the word, read as a word
        assert payload["images"][0] in ([[1, 1]], [[g, e] for g, e in coords])


def test_rebuilt_images_equal_their_spelled_words():
    ctx = GroupContext(9, 5)
    payload = map_payload(random_automorphism(ctx, 5, 10, (1,)))
    assert sum(_has_bracket(w) for w in payload["images"]) == 4
    phi = parse_map(payload)
    for i, image in enumerate(payload["images"], 1):
        assert phi(i).poly == from_word(ctx, parse_word(spelled(image))).poly


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_v5_verifies_as_its_v4_form(c):
    ctx = GroupContext(2 * (c + 1) + 2, c)
    for seed in range(3):
        sigma = random_automorphism(ctx, seed, 6, (1,))
        payload = as_v5(decomposition_payload(decompose(sigma, (1,))))
        assert payload["version"] == 5
        report = _report(payload)
        assert loads(report)["ok"] and _report(as_v4(payload)) == report


# ---------------------------------------------------------------------------
# decompose echoes its input

def test_decompose_echoes_its_input_without_collecting_it(monkeypatch):
    ctx = GroupContext(12, 4)
    obj = loads(dumps(map_payload(random_automorphism(ctx, 1, 10, (1, 2)))))
    assert any(_has_bracket(w) for w in obj["images"])
    sigma = parse_map(obj)
    collected = []
    real = lie.collect_word

    def spy(a):
        collected.append(a)
        return real(a)

    monkeypatch.setattr(lie, "collect_word", spy)
    monkeypatch.setattr(jsonio, "collect_word", spy)
    payload = decomposition_payload(decompose(sigma, (1, 2)))
    assert payload["input"] == obj
    inputs = list(sigma.stored.values())
    assert not any(a is img for a in collected for img in inputs)


# ---------------------------------------------------------------------------
# refusals: (image at rank 4, class 3, error, exit code, message)

M, R = "MalformedInput", "IndexOutOfRange"
ROWS = {
    "non-lyndon": ([[[1, 1], 1]], M, 2, "bracket [1, 1] is not a Lyndon word"),
    "descending": ([[[2, 1], 1]], M, 2, "bracket [2, 1] is not a Lyndon word"),
    "one-letter-bracket": ([[[3], 1]], M, 2, "bracket [3] needs 2 to 3 letters"),
    "above-the-class": ([[[1, 2, 2, 2], 1]], M, 2, "[1, 2, 2, 2] needs 2 to 3 letters"),
    "letter-zero": ([[[0, 1], 1]], M, 2, "generator index 0 must be positive"),
    "letter-above-the-rank": ([[[1, 5], 1]], R, 1, "generator 5 out of range 1..4"),
    "plain-letter-above-the-rank": (
        [[5, 1], [[1, 2], 1]], R, 1, "generator 5 out of range 1..4"
    ),
    "bool-letter": ([[[True, 2], 1]], M, 2, "bracket letter must be an integer"),
    "zero-exponent": ([[[1, 2], 0]], M, 2, "exponent must be nonzero"),
    "bool-exponent": ([[[1, 2], True]], M, 2, "exponent must be an integer"),
    "float-exponent": ([[[1, 2], 1.0]], M, 2, "exponent must be an integer"),
    "brackets-out-of-order": ([[[1, 3], 1], [[1, 2], 1]], M, 2, "must strictly increase"),
    "longer-bracket-first": ([[[1, 1, 2], 1], [[1, 2], 1]], M, 2, "must strictly increase"),
    "letter-after-a-bracket": ([[[1, 2], 1], [3, 1]], M, 2, "must strictly increase"),
    "letters-out-of-order": ([[2, 1], [1, 1], [[1, 2], 1]], M, 2, "must strictly increase"),
    "duplicate-bracket": ([[[1, 2], 1], [[1, 2], 2]], M, 2, "must strictly increase"),
    "duplicate-letter": ([[1, 1], [1, 2], [[1, 2], 1]], M, 2, "must strictly increase"),
    "not-a-pair": ([[[1, 2], 1, 1]], M, 2, "must be [letter or bracket, exponent] pairs"),
}

ERRORS = {"MalformedInput": MalformedInput, "IndexOutOfRange": IndexOutOfRange}


def _map_with(image) -> dict:
    return {"rank": 4, "class": 3, "images": [image, [[2, 1]], [[3, 1]], [[4, 1]]]}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_reader_refuses_a_collected_image_that_is_not_canonical(row):
    image, error, _, message = ROWS[row]
    for read in (
        lambda: parse_map(_map_with(image)),
        lambda: parse_stored(GroupContext(4, 3), [[1, image]], {}),
    ):
        with pytest.raises(ERRORS[error]) as info:
            read()
        assert message in str(info.value)


# run in a fresh interpreter: every row through freenil.cli.main, as the
# console script runs it, with --in and --out files; prints the exit codes
# and outputs, so a traceback would surface on stderr
_DRIVER = """
import json, sys, tempfile
from pathlib import Path
from freenil.cli import main
out = {}
with tempfile.TemporaryDirectory() as tmp:
    infile, outfile = Path(tmp) / "in.json", Path(tmp) / "out.json"
    for key, (command, obj) in json.loads(sys.stdin.read()).items():
        infile.write_text(json.dumps(obj), encoding="utf-8")
        code = main([command, "--in", str(infile), "--out", str(outfile)])
        out[key] = [code, json.loads(outfile.read_text(encoding="utf-8"))]
print(json.dumps(out))
"""


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "O"])
def test_cli_refuses_each_row_with_its_envelope(optimize):
    # each row as is-aut's input map and, where the rank of the class-3
    # golden allows it, as a stored image of its version 5 payload
    v5 = loads(fixture_path("v5", (12, 3, 2)).read_text(encoding="utf-8"))
    runs = {}
    for row, (image, error, _, _) in ROWS.items():
        runs[f"{row} is-aut"] = ["is-aut", _map_with(image)]
        if error == M:
            payload = json.loads(json.dumps(v5))
            payload["factors"][0]["stored"][0][1] = image
            runs[f"{row} verify"] = ["verify", payload]
    proc = subprocess.run(
        [sys.executable, *optimize, "-c", _DRIVER],
        input=json.dumps(runs).encode(),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    got = json.loads(proc.stdout)
    assert sorted(got) == sorted(runs)
    for key, (code, out) in got.items():
        _, error, want_code, message = ROWS[key.rsplit(" ", 1)[0]]
        assert code == want_code, key
        assert sorted(out) == ["error", "message"], key
        assert out["error"] == error and message in out["message"], (key, out)


def test_version_4_reads_words_alone():
    # a collected image in a version 4 payload is refused as a word, as
    # before version 5; the same image reads in the version 5 payload
    image = [[1, 1], [[1, 2], 1]]
    for version, stored in (("v4", spelled(image)), ("v5", image)):
        payload = loads(fixture_path(version, (12, 4, 2)).read_text(encoding="utf-8"))
        payload["factors"][0]["stored"][0][1] = stored
        assert verify_payload(payload).factors == len(payload["factors"])
        payload["factors"][0]["stored"][0][1] = image
        if version == "v4":
            with pytest.raises(MalformedInput, match="generator index must be an"):
                verify_payload(payload)


def test_coordinates_of_a_small_element():
    ctx = GroupContext(4, 3)
    a = from_word(ctx, Word(((1, 1), (2, 1), (1, -1), (3, 2))))
    coords = collect_word(a)
    assert coords == (
        (2, 1), (3, 2), ((1, 2), 1), ((1, 1, 2), 1), ((1, 2, 3), 2), ((1, 3, 2), 2)
    )
    assert from_word(ctx, spell(coords)) == a
    # a bracket power is spelled by its standard bracketing, [x1, x2] here
    assert spell((((1, 2), 1),)) == Word(((1, -1), (2, -1), (1, 1), (2, 1)))
