"""End-to-end checks of the command line front end.

Most cases drive ``freenil.cli.main`` in process with ``--in``/``--out``
file redirection; a few spawn real subprocesses to pin down byte-level
determinism of the full pipeline and argparse's own exit behaviour.
"""

import contextlib
import json
import os
import subprocess
import sys

import pytest

from freenil import (
    GroupContext,
    IndexOutOfRange,
    MalformedInput,
    Word,
    comm,
    compose,
    from_word,
    identity_map,
    mul,
    random_automorphism,
    transvection,
)
from freenil.cli import _build_parser, main
from freenil.jsonio import dumps, map_payload
from freenil.reader import parse_element, parse_map, parse_stored, parse_word
from freenil.verifier import verify_payload

from test_class_one_paths import NOT_A_PERMUTATION, NOT_AN_AUTOMORPHISM, SWAP
from test_wire_fixtures import as_v3

CLI = (sys.executable, "-m", "freenil.cli")

COMM_WORD = [[1, -1], [2, -1], [1, 1], [2, 1]]  # [x1, x2] as a word payload


# CPython 3.10.7 and later limit int <-> str conversion; 0 lifts the limit
HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")


@contextlib.contextmanager
def int_digits(limit):
    """Set the process's int <-> str digit limit for the block."""
    if not HAS_DIGIT_LIMIT:
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def run_cli(tmp_path, argv, payload=None, text=None):
    """Run the CLI in process; return (exit code, raw output, parsed output).

    The payload goes to --in, which every command but random-aut reads."""
    outfile = tmp_path / "out.json"
    read = []
    if argv[0] != "random-aut":
        infile = tmp_path / "in.json"
        text = json.dumps(payload) if text is None else text
        infile.write_text(text, encoding="utf-8")
        read = ["--in", str(infile)]
    code = main([*argv, *read, "--out", str(outfile)])
    raw = outfile.read_text(encoding="utf-8") if outfile.exists() else ""
    return code, raw, json.loads(raw) if raw else None


def run_proc(args, stdin=b"", env=None):
    """Run the CLI as a subprocess; `env` adds to the inherited environment."""
    return subprocess.run(
        [*CLI, *args],
        input=stdin,
        capture_output=True,
        env=None if env is None else {**os.environ, **env},
    )


def element_of(ctx, payload):
    return parse_element(ctx, payload)


# ---------------------------------------------------------------------------
# element commands

def test_mul_matches_library(tmp_path):
    ctx = GroupContext(3, 2)
    a = [[1, 1], [2, -1]]
    b = [[2, 1], [3, 2]]
    code, raw, out = run_cli(
        tmp_path,
        ["mul", "--rank", "3", "--class", "2"],
        {"a": {"word": a}, "b": {"word": b}},
    )
    assert code == 0 and raw.endswith("\n")
    got = element_of(ctx, out)
    want = mul(element_of(ctx, {"word": a}), element_of(ctx, {"word": b}))
    assert got == want


def test_inv_gives_group_inverse(tmp_path):
    ctx = GroupContext(3, 3)
    a = {"word": [[1, 1], [2, 1], [1, -1], [3, 2]]}
    code, _, out = run_cli(tmp_path, ["inv", "--rank", "3", "--class", "3"], a)
    assert code == 0
    assert mul(element_of(ctx, a), element_of(ctx, out)) == from_word(ctx, Word(()))


def test_comm_matches_library(tmp_path):
    ctx = GroupContext(2, 2)
    code, _, out = run_cli(
        tmp_path,
        ["comm", "--rank", "2", "--class", "2"],
        {"a": {"word": [[1, 1]]}, "b": {"word": [[2, 1]]}},
    )
    assert code == 0
    want = comm(from_word(ctx, Word(((1, 1),))), from_word(ctx, Word(((2, 1),))))
    assert element_of(ctx, out) == want


def test_weight_reports_lcs_depth(tmp_path):
    args = ["weight", "--rank", "3", "--class", "3"]
    assert run_cli(tmp_path, args, {"word": []})[2] == {"weight": None}
    assert run_cli(tmp_path, args, {"word": [[2, 5]]})[2] == {"weight": 1}
    assert run_cli(tmp_path, args, {"word": COMM_WORD})[2] == {"weight": 2}


def test_central_factorize_emits_term_list(tmp_path):
    code, _, out = run_cli(
        tmp_path,
        ["central-factorize", "--rank", "3", "--class", "2"],
        {"word": COMM_WORD * 3},
    )
    assert code == 0
    assert out == [{"comm": [1, 2], "exp": 3}]
    # in class 1 every element is central and its terms are single letters
    code, _, out = run_cli(
        tmp_path,
        ["central-factorize", "--rank", "3", "--class", "1"],
        {"word": [[1, 1], [3, -2]]},
    )
    assert code == 0
    assert out == [{"comm": [1], "exp": 1}, {"comm": [3], "exp": -2}]


# ---------------------------------------------------------------------------
# map commands

def test_apply_matches_library(tmp_path):
    ctx = GroupContext(3, 2)
    phi = transvection(ctx, 1, 2, 3)
    a = {"word": [[1, 1], [3, -1]]}
    code, _, out = run_cli(
        tmp_path, ["apply"], {"map": map_payload(phi), "a": a}
    )
    assert code == 0
    assert element_of(ctx, out) == phi.apply(element_of(ctx, a))


def test_compose_matches_library(tmp_path):
    ctx = GroupContext(4, 2)
    phi = transvection(ctx, 1, 2, 1)
    psi = transvection(ctx, 3, 4, -2)
    code, _, out = run_cli(
        tmp_path, ["compose"], {"phi": map_payload(phi), "psi": map_payload(psi)}
    )
    assert code == 0
    assert parse_map(out) == compose(phi, psi)


def test_is_aut_true_and_false(tmp_path):
    phi = transvection(GroupContext(2, 2), 1, 2, 1)
    assert run_cli(tmp_path, ["is-aut"], map_payload(phi))[2] == {"automorphism": True}
    doubling = {"rank": 2, "class": 1, "images": [[[1, 2]], [[2, 1]]]}
    assert run_cli(tmp_path, ["is-aut"], doubling)[2] == {"automorphism": False}


def test_invert_aut_composes_to_identity(tmp_path):
    ctx = GroupContext(4, 3)
    phi = compose(transvection(ctx, 1, 2, 2), transvection(ctx, 3, 1, -1))
    code, _, out = run_cli(tmp_path, ["invert-aut"], map_payload(phi))
    assert code == 0
    assert compose(phi, parse_map(out)) == identity_map(ctx)


def test_invert_aut_rejects_non_automorphism(tmp_path):
    doubling = {"rank": 2, "class": 1, "images": [[[1, 2]], [[2, 1]]]}
    code, _, out = run_cli(tmp_path, ["invert-aut"], doubling)
    assert code == 1
    assert out["error"] == "NotAutomorphism"


def test_random_aut_is_seed_deterministic(tmp_path):
    args = [
        "random-aut", "--rank", "6", "--class", "2",
        "--seed", "99", "--length", "12", "--fix", "1,2",
    ]
    _, raw1, out1 = run_cli(tmp_path, args)
    _, raw2, _ = run_cli(tmp_path, args)
    assert raw1 == raw2
    _, raw3, _ = run_cli(tmp_path, [*args[:-3], "100", "--length", "12"])
    assert raw1 != raw3
    # pinned generators come back as themselves
    assert out1["images"][0] == [[1, 1]] and out1["images"][1] == [[2, 1]]
    assert parse_map(out1).is_automorphism()


@pytest.mark.parametrize(
    "seed", ["-1", str(2**64), str(2**64 + 1)], ids=["negative", "2^64", "2^64+1"]
)
def test_random_aut_refuses_a_seed_outside_64_bits(tmp_path, seed):
    # reduced mod 2^64, 2^64 + 1 would draw the stream of seed 1
    args = ["random-aut", "--rank", "6", "--class", "2", "--length", "4"]
    for fix in ([], ["--fix", "1,2,3,4,5,6"]):  # the second draws nothing
        code, _, out = run_cli(tmp_path, [*args, *fix, "--seed", seed])
        assert code == 2
        assert out == {
            "error": "MalformedInput",
            "message": f"seed {seed} is outside 0..2^64-1",
        }
    code, _, out = run_cli(tmp_path, [*args, "--seed", str(2**64 - 1)])
    assert code == 0 and parse_map(out).is_automorphism()


def test_random_aut_help_states_the_seed_range():
    proc = run_proc(["random-aut", "--help"])
    assert proc.returncode == 0
    assert b"integer in 0..2^64-1" in proc.stdout


# ---------------------------------------------------------------------------
# the decompose/verify pipeline

def test_pipeline_decompose_then_verify(tmp_path):
    code, _, sigma = run_cli(
        tmp_path,
        ["random-aut", "--rank", "10", "--class", "2",
         "--seed", "4040", "--length", "12", "--fix", "1,2"],
    )
    assert code == 0
    code, _, dec = run_cli(tmp_path, ["decompose", "--fix", "1,2"], sigma)
    assert code == 0
    assert dec["input"] == sigma and dec["fixed"] == [1, 2]
    assert len(dec["factors"]) >= 1
    code, _, report = run_cli(tmp_path, ["verify"], dec)
    assert code == 0
    assert report["ok"] is True
    assert report["factors"] == len(dec["factors"])
    assert report["min_fixed_block"] >= 1
    assert report["failures"] == []


def test_pipeline_bytes_reproducible_across_processes():
    stages = (
        ["random-aut", "--rank", "8", "--class", "2",
         "--seed", "7", "--length", "10", "--fix", "1"],
        ["decompose", "--fix", "1"],
        ["verify"],
    )

    def once():
        blob = b""
        for stage in stages:
            proc = run_proc(stage, stdin=blob)
            assert proc.returncode == 0, proc.stderr.decode()
            blob = proc.stdout
        return blob

    first, second = once(), once()
    assert first == second
    assert json.loads(first.decode())["ok"] is True


# ---------------------------------------------------------------------------
# failure modes and plumbing

def test_malformed_json_exits_2(tmp_path):
    code, _, out = run_cli(
        tmp_path, ["weight", "--rank", "2", "--class", "2"], text="not json {"
    )
    assert code == 2 and out["error"] == "MalformedInput"


def test_missing_context_flags_exit_2(tmp_path):
    code, _, out = run_cli(tmp_path, ["weight"], {"word": []})
    assert code == 2 and out["error"] == "MalformedInput"


def test_nonpositive_rank_exits_2(tmp_path):
    message = "rank and class must be at least 1"
    with pytest.raises(MalformedInput, match=message):
        parse_map({"rank": 0, "class": 2, "images": []})
    code, raw, _ = run_cli(tmp_path, ["weight", "--rank", "0", "--class", "2"], {"word": []})
    assert code == 2
    assert raw == json.dumps(
        {"error": "MalformedInput", "message": message}, separators=(",", ":")
    ) + "\n"


def test_bad_envelope_key_exits_2(tmp_path):
    empty = {"word": []}
    for payload, message in (
        ({"a": [[1, 1]], "c": [[2, 1]]}, "input is missing keys ['b']"),
        ({"a": empty, "b": empty, "c": 1}, "input has unknown keys ['c']"),
        ([1, 2], "input must be an object"),
    ):
        args = ["mul", "--rank", "2", "--class", "1"]
        code, raw, _ = run_cli(tmp_path, args, payload)
        assert code == 2
        assert raw == json.dumps(
            {"error": "MalformedInput", "message": message}, separators=(",", ":")
        ) + "\n"


def test_deeply_nested_json_exits_2(tmp_path):
    deep = "[" * 100000 + "]" * 100000
    code, _, out = run_cli(tmp_path, ["verify"], text=deep)
    assert code == 2
    assert out["error"] == "MalformedInput"
    assert out["message"] == "invalid JSON: nesting too deep"


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int <-> str digit limit")
def test_overlong_integer_literal_exits_2(tmp_path):
    literal = "9" * 5000
    for argv, text in (
        (["weight", "--rank", "2", "--class", "2"], '{"word":[[1,%s]]}' % literal),
        (["verify"], '{"input":%s}' % literal),
    ):
        with int_digits(4300):  # the default
            code, _, out = run_cli(tmp_path, argv, text=text)
        assert code == 2
        assert out["error"] == "MalformedInput"
        assert out["message"].startswith("invalid JSON: ")


def test_output_integers_may_exceed_the_digit_limit(tmp_path):
    # the input's 3000-digit exponents are under the default limit; the
    # composite's class-2 coefficient, about e^2, is over it
    e = 10**2999 + 7
    images = [[[1, 1], [2, e]], [[2, 1]], [[3, 1], [1, e]]]
    m = {"rank": 3, "class": 2, "images": images}
    infile, outfile = tmp_path / "in.json", tmp_path / "out.json"
    infile.write_text(json.dumps({"phi": m, "psi": m}), encoding="utf-8")
    with int_digits(4300):  # the default
        assert main(["compose", "--in", str(infile), "--out", str(outfile)]) == 0
        # dumps lifts the limit for its own encode only
        assert not HAS_DIGIT_LIMIT or sys.get_int_max_str_digits() == 4300
    with int_digits(0):
        out = json.loads(outfile.read_text(encoding="utf-8"))
    phi = parse_map(m)
    assert parse_map(out) == compose(phi, phi)


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int <-> str digit limit")
def test_overlong_output_names_the_digit_limit_variable():
    # compose writes a 6000-digit coefficient that is-aut cannot read under
    # the default limit; the message names the variable that raises it
    e = 10**2999 + 7
    m = {"rank": 3, "class": 2, "images": [[[1, 1], [2, e]], [[2, 1]], [[3, 1], [1, e]]]}
    blob = json.dumps({"phi": m, "psi": m}).encode()
    default = {"PYTHONINTMAXSTRDIGITS": "4300"}
    square = run_proc(["compose"], stdin=blob, env=default)
    assert square.returncode == 0, square.stderr.decode()
    proc = run_proc(["is-aut"], stdin=square.stdout, env=default)
    assert proc.returncode == 2
    out = json.loads(proc.stdout)
    assert out["error"] == "MalformedInput"
    assert out["message"].startswith("invalid JSON: ")
    assert "PYTHONINTMAXSTRDIGITS" in out["message"]
    assert "set_int_max_str_digits" not in out["message"]
    lifted = run_proc(["is-aut"], stdin=square.stdout, env={"PYTHONINTMAXSTRDIGITS": "0"})
    assert lifted.returncode == 0, lifted.stderr.decode()
    assert lifted.stdout == b'{"automorphism":true}\n'


def test_unreadable_input_file_exits_2(tmp_path):
    outfile = tmp_path / "out.json"
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff\xfe")
    for infile in (tmp_path / "no-such-file.json", tmp_path, undecodable):
        code = main(["verify", "--in", str(infile), "--out", str(outfile)])
        out = json.loads(outfile.read_text(encoding="utf-8"))
        assert code == 2 and out["error"] == "MalformedInput"
        assert out["message"].startswith("cannot read --in file: ")


def test_unwritable_output_file_exits_2(tmp_path, capsys):
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps({"word": [[1, 1]]}), encoding="utf-8")
    for outfile in (tmp_path / "no-such-dir" / "out.json", tmp_path):
        # rank 1 writes a result, rank 0 a MalformedInput envelope: both to --out
        for rank in ("1", "0"):
            code = main(
                ["weight", "--rank", rank, "--class", "1"]
                + ["--in", str(infile), "--out", str(outfile)]
            )
            out = json.loads(capsys.readouterr().out)
            assert code == 2 and out["error"] == "MalformedInput"
            assert out["message"].startswith("cannot write --out file: ")


@pytest.mark.parametrize("fix", ["1,x", "1_0", "\u0661"], ids=["1,x", "1_0", "arabic-indic-1"])
def test_bad_fix_list_exits_2(tmp_path, fix):
    # int() alone would read 1_0 as 10 and an Arabic-Indic digit as 1
    phi = map_payload(identity_map(GroupContext(12, 1)))
    code, _, out = run_cli(tmp_path, ["decompose", "--fix", fix], phi)
    assert code == 2 and out == {
        "error": "MalformedInput",
        "message": "--fix must be comma separated integers",
    }


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "1_0"), ("--length", "1_0"), ("--rank", "\u0666"), ("--class", "\u0662")],
)
def test_integer_flags_take_a_sign_and_ascii_digits_only(capsys, flag, value):
    argv = {"--rank": "6", "--class": "2", "--seed": "1", "--length": "3", flag: value}
    with pytest.raises(SystemExit) as info:
        main(["random-aut", *(x for item in argv.items() for x in item)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"argument {flag}: invalid int value" in err
    # spaces around the digits and a sign still read
    argv[flag] = " +3 " if flag != "--class" else " 2 "
    assert main(["random-aut", *(x for item in argv.items() for x in item)]) == 0


def test_decompose_domain_errors_exit_1(tmp_path):
    ctx = GroupContext(8, 2)
    phi = transvection(ctx, 1, 2, 1)
    pinned = min(phi.moved)  # pin a generator the map visibly moves
    code, _, out = run_cli(
        tmp_path, ["decompose", "--fix", str(pinned)], map_payload(phi)
    )
    assert code == 1 and out["error"] == "DoesNotFixD"
    code, _, out = run_cli(
        tmp_path, ["decompose"], map_payload(identity_map(GroupContext(4, 2)))
    )
    assert code == 1 and out["error"] == "RankTooSmall"
    # x_2 -> x_2^2: the row reduction of the free block refuses it
    images = [[[g, 2 if g == 2 else 1]] for g in range(1, 9)]
    code, _, out = run_cli(
        tmp_path, ["decompose", "--fix", "1"], {"rank": 8, "class": 2, "images": images}
    )
    assert code == 1 and out == {
        "error": "NotAutomorphism",
        "message": "determinant of the abelianization is not +-1",
    }


@pytest.mark.parametrize(
    "edit, code, error",
    [
        ({"fixed": [1, 99]}, 1, "IndexOutOfRange"),
        ({"level": -5}, 2, "MalformedInput"),
        ({"part": 0}, 2, "MalformedInput"),
        ({"side": "F"}, 2, "MalformedInput"),
        ({"level": 3}, 2, "MalformedInput"),
        ({"origin": None}, 2, "MalformedInput"),
        ({"part": None}, 2, "MalformedInput"),
        ({"side": None}, 2, "MalformedInput"),
    ],
)
def test_verify_refuses_out_of_contract_decompositions(tmp_path, edit, code, error):
    # each of these used to verify as ok: true
    phi = map_payload(random_automorphism(GroupContext(8, 2), 4041, 10, (1,)))
    status, _, dec = run_cli(tmp_path, ["decompose", "--fix", "1"], phi)
    assert status == 0
    if "level" in edit:  # a key version 4 leaves out
        dec = as_v3(dec)
    if "fixed" in edit:
        dec.update(edit)
    else:
        dec["factors"][0].update(edit)
    status, _, out = run_cli(tmp_path, ["verify"], dec)
    assert status == code and out["error"] == error


def test_verify_refuses_origin_on_a_central_factor(tmp_path):
    # origin belongs to lifted factors only; this used to verify as ok: true
    phi = map_payload(random_automorphism(GroupContext(8, 2), 4041, 10, (1,)))
    status, _, dec = run_cli(tmp_path, ["decompose", "--fix", "1"], phi)
    assert status == 0 and dec["factors"][-1]["tag"] == "central_beta"
    dec["factors"][-1]["origin"] = "sign"
    status, _, out = run_cli(tmp_path, ["verify"], dec)
    assert status == 2 and out["error"] == "MalformedInput"
    assert out["message"] == "only lifted factors carry origin, not 'central_beta'"


@pytest.mark.parametrize("fixed", [[], [1]])
def test_verify_reports_a_factor_fixing_nothing_outside_d(tmp_path, fixed):
    # both used to verify as ok: true with min_fixed_block 0
    phi = map_payload(random_automorphism(GroupContext(8, 2), 4041, 10, (1,)))
    status, _, dec = run_cli(tmp_path, ["decompose", "--fix", "1"], phi)
    assert status == 0
    dec = as_v3(dec)
    cert = dec["factors"][0]["certificate"]
    cert["fixed"] = fixed
    cert["preserved"] = [g for g in range(1, 9) if g not in fixed]
    status, _, out = run_cli(tmp_path, ["verify"], dec)
    assert status == 0
    assert out["ok"] is False and out["min_fixed_block"] == 0
    assert any(
        msg.startswith("factor 0 (") and "fixes no generator outside D" in msg
        for msg in out["failures"]
    )


@pytest.mark.parametrize(
    "payload, ok, failures",
    [
        (
            NOT_A_PERMUTATION,
            False,
            [NOT_AN_AUTOMORPHISM, "ordered product of factors differs from the input map"],
        ),
        (SWAP, True, []),
    ],
    ids=["x2-x3-x3", "swap"],
)
def test_verify_reads_a_permutation_factor_off_its_images(tmp_path, payload, ok, failures):
    # the tag is not trusted: x_2 -> x_3, x_3 -> x_3 is no automorphism
    status, _, out = run_cli(tmp_path, ["verify"], payload)
    assert status == 0
    assert out["ok"] is ok and out["failures"] == failures


# one-letter words the reader must refuse as parse_word does, though a
# valid one-letter word skips parsing; [[True, 1]] == [[1, 1]] in Python
LOOKALIKES = [
    ([True, 1], "generator index must be an integer"),
    ([1.0, 1], "generator index must be an integer"),
    ([1, True], "exponent must be an integer"),
    ([1, 1.0], "exponent must be an integer"),
    ([0, 1], "generator index 0 must be positive"),
    ([1, 0], "exponent must be nonzero"),
]


@pytest.mark.parametrize("letter, message", LOOKALIKES)
def test_literal_image_lookalikes_are_refused(tmp_path, letter, message):
    # nor may the literal-image shortcut in parse_map accept them
    payload = {"rank": 2, "class": 2, "images": [[letter], [[2, 1]]]}
    with pytest.raises(MalformedInput, match=message):
        parse_map(payload)
    code, raw, _ = run_cli(tmp_path, ["is-aut"], payload)
    assert code == 2
    assert raw == json.dumps(
        {"error": "MalformedInput", "message": message}, separators=(",", ":")
    ) + "\n"


def test_one_letter_image_beyond_the_rank_is_refused(tmp_path):
    payload = {"rank": 2, "class": 2, "images": [[[3, 1]], [[2, 1]]]}
    message = "word uses generator 3 but rank is 2"
    with pytest.raises(IndexOutOfRange, match=message):
        parse_map(payload)
    code, raw, _ = run_cli(tmp_path, ["is-aut"], payload)
    assert code == 1
    assert raw == json.dumps(
        {"error": "IndexOutOfRange", "message": message}, separators=(",", ":")
    ) + "\n"


@pytest.mark.parametrize(
    "letter, error, message",
    [(letter, MalformedInput, message) for letter, message in LOOKALIKES]
    + [([3, 1], IndexOutOfRange, "word uses generator 3 but rank is 2")],
)
def test_one_letter_stored_lookalikes_are_refused(tmp_path, letter, error, message):
    ctx = GroupContext(2, 2)
    with pytest.raises(error, match=message):
        parse_stored(ctx, [[1, [letter]]])
    payload = {
        "version": 4,
        "input": {"rank": 2, "class": 2, "images": [[[1, 1]], [[2, 1]]]},
        "fixed": [],
        "factors": [
            {"stored": [[1, [letter]]], "certificate": {"fixed": [2]}, "tag": "sign"}
        ],
    }
    with pytest.raises(error, match=message):
        verify_payload(payload)
    code, raw, _ = run_cli(tmp_path, ["verify"], payload)
    assert code == (2 if error is MalformedInput else 1)
    assert raw == json.dumps(
        {"error": error.__name__, "message": message}, separators=(",", ":")
    ) + "\n"


@pytest.mark.parametrize("rank", [1, 5])
@pytest.mark.parametrize("nilclass", [1, 2, 4])
def test_one_letter_images_equal_their_parsed_words(rank, nilclass):
    # a one-letter image read from a map or a stored list is the element,
    # word and dict order included, that its parsed word evaluates to
    ctx = GroupContext(rank, nilclass)
    for g in sorted({1, rank}):
        for e in (1, -1, 2, -3, 10**20):
            w = [[g, e]]
            want = from_word(ctx, parse_word(w))
            images = [[[i, 1]] for i in ctx.generators()]
            images[0] = w
            for got in (
                parse_map({"rank": rank, "class": nilclass, "images": images})(1),
                parse_stored(ctx, [[1, w]])(1),
            ):
                assert list(got.poly.items()) == list(want.poly.items())
                assert got.word.letters == want.word.letters


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["weight", "--rank", "2", "--class", "2"], {"word": [[1, 0], [2, 1]]}),
        (["is-aut"], {"rank": 2, "class": 2, "images": [[[1, 0], [2, 1]], [[2, 1]]]}),
    ],
)
def test_zero_exponent_is_refused(tmp_path, argv, payload):
    # the word schema says exponent:int!=0; a zero letter is not dropped
    code, raw, _ = run_cli(tmp_path, argv, payload)
    assert code == 2
    assert raw == json.dumps(
        {"error": "MalformedInput", "message": "exponent must be nonzero"},
        separators=(",", ":"),
    ) + "\n"


# x1 [[x2, x3], x4]: equal to x1 at class 2, spelled with 11 letters
LONG_LITERAL = [
    [1, 1], [3, -1], [2, -1], [3, 1], [2, 1], [4, -1],
    [2, -1], [3, -1], [2, 1], [3, 1], [4, 1],
]


def test_long_word_literal_image_keeps_its_bytes(tmp_path):
    payload = {
        "rank": 6,
        "class": 2,
        "images": [LONG_LITERAL, [[2, 1]], [[3, 1], [4, 1]], [[4, 1]], [[5, 1]], [[6, 1]]],
    }
    assert dumps(map_payload(parse_map(payload))) == dumps(payload)
    code, _, dec = run_cli(tmp_path, ["decompose"], payload)
    assert code == 0
    assert dumps(dec["input"]) == dumps(payload)
    code, _, report = run_cli(tmp_path, ["verify"], dec)
    assert code == 0 and report["ok"] is True


def test_index_out_of_range_is_a_domain_error(tmp_path):
    # {"word": [[5, 1]]} is valid JSON of the right shape, so the complaint
    # is about content, not framing: generator 5 does not exist at rank 2
    code, _, out = run_cli(
        tmp_path, ["inv", "--rank", "2", "--class", "2"], {"word": [[5, 1]]}
    )
    assert code == 1 and out["error"] == "IndexOutOfRange"


def test_schema_flag_prints_wire_formats(capsys):
    assert main(["--schema"]) == 0
    schemas = json.loads(capsys.readouterr().out)
    assert set(schemas) >= {
        "word", "element", "map", "certificate",
        "term", "factor", "decomposition", "report", "error",
    }


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    assert "COMMAND" in capsys.readouterr().err


def test_missing_required_seed_is_argparse_error():
    proc = run_proc(["random-aut", "--rank", "4", "--class", "1"])
    assert proc.returncode == 2
    assert b"--seed" in proc.stderr


@pytest.mark.parametrize(
    "command", ["apply", "compose", "is-aut", "invert-aut", "decompose", "verify"]
)
def test_map_commands_refuse_group_flags(tmp_path, capsys, command):
    # these commands read the group from their payloads; a --rank or --class
    # would be ignored, so argparse refuses it before any input is read
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(map_payload(identity_map(GroupContext(8, 2)))))
    outfile = tmp_path / "out.json"
    argv = [command, "--rank", "0", "--class", "99", "--in", str(infile)]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(outfile)])
    assert info.value.code == 2
    assert "unrecognized arguments: --rank 0 --class 99" in capsys.readouterr().err
    assert not outfile.exists()


def test_random_aut_refuses_in(tmp_path, capsys):
    # random-aut builds its map from its flags and reads no input
    outfile = tmp_path / "out.json"
    argv = ["random-aut", "--rank", "4", "--class", "2", "--seed", "1"]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--in", str(tmp_path / "missing.json"), "--out", str(outfile)])
    assert info.value.code == 2
    assert "unrecognized arguments: --in" in capsys.readouterr().err
    assert not outfile.exists()


def test_element_commands_and_random_aut_take_group_flags():
    parser = _build_parser()
    for command in ["mul", "inv", "comm", "weight", "central-factorize", "random-aut"]:
        seed = ["--seed", "1"] if command == "random-aut" else []
        args = parser.parse_args([command, "--rank", "3", "--class", "2", *seed])
        assert (args.rank, args.nilclass) == (3, 2)


def test_pretty_output_is_indented(tmp_path):
    code, raw, out = run_cli(
        tmp_path,
        ["inv", "--rank", "2", "--class", "1", "--pretty"],
        {"word": [[1, 1]]},
    )
    assert code == 0
    assert raw == json.dumps(out, indent=2) + "\n"
    assert "\n  " in raw


def test_stdout_and_stdin_defaults(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"word":[[1,1],[1,1]]}'))
    assert main(["weight", "--rank", "1", "--class", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"weight": 1}
