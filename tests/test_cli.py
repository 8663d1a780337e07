"""End-to-end checks of the command line front end.

Most cases drive ``freenil.cli.main`` in process with ``--in``/``--out``
file redirection; a few spawn real subprocesses to pin down byte-level
determinism of the full pipeline and argparse's own exit behaviour.
"""

import json
import subprocess
import sys

import pytest

from freenil import (
    GroupContext,
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
from freenil.jsonio import dumps, map_payload, parse_element, parse_map

CLI = (sys.executable, "-m", "freenil.cli")

COMM_WORD = [[1, -1], [2, -1], [1, 1], [2, 1]]  # [x1, x2] as a word payload


def run_cli(tmp_path, argv, payload=None, text=None):
    """Run the CLI in process; return (exit code, raw output, parsed output)."""
    infile = tmp_path / "in.json"
    outfile = tmp_path / "out.json"
    infile.write_text(json.dumps(payload) if text is None else text, encoding="utf-8")
    code = main([*argv, "--in", str(infile), "--out", str(outfile)])
    raw = outfile.read_text(encoding="utf-8") if outfile.exists() else ""
    return code, raw, json.loads(raw) if raw else None


def run_proc(args, stdin=b""):
    return subprocess.run([*CLI, *args], input=stdin, capture_output=True)


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


def test_bad_fix_list_exits_2(tmp_path):
    phi = map_payload(identity_map(GroupContext(8, 1)))
    code, _, out = run_cli(tmp_path, ["decompose", "--fix", "1,x"], phi)
    assert code == 2 and out["error"] == "MalformedInput"


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


@pytest.mark.parametrize(
    "edit, code, error",
    [
        ({"fixed": [1, 99]}, 1, "IndexOutOfRange"),
        ({"level": -5}, 2, "MalformedInput"),
        ({"part": 0}, 2, "MalformedInput"),
    ],
)
def test_verify_refuses_out_of_contract_decompositions(tmp_path, edit, code, error):
    # each of these used to verify as ok: true
    phi = map_payload(random_automorphism(GroupContext(8, 2), 4041, 10, (1,)))
    status, _, dec = run_cli(tmp_path, ["decompose", "--fix", "1"], phi)
    assert status == 0
    if "fixed" in edit:
        dec.update(edit)
    else:
        dec["factors"][0].update(edit)
    status, _, out = run_cli(tmp_path, ["verify"], dec)
    assert status == code and out["error"] == error


@pytest.mark.parametrize("fixed", [[], [1]])
def test_verify_reports_a_factor_fixing_nothing_outside_d(tmp_path, fixed):
    # both used to verify as ok: true with min_fixed_block 0
    phi = map_payload(random_automorphism(GroupContext(8, 2), 4041, 10, (1,)))
    status, _, dec = run_cli(tmp_path, ["decompose", "--fix", "1"], phi)
    assert status == 0
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
    "letter, message",
    [
        ([True, 1], "generator index must be an integer"),
        ([1.0, 1], "generator index must be an integer"),
        ([1, True], "exponent must be an integer"),
        ([1, 1.0], "exponent must be an integer"),
    ],
)
def test_literal_image_lookalikes_are_refused(tmp_path, letter, message):
    # [[True, 1]] == [[1, 1]] in Python, so the literal-image shortcut in
    # parse_map must not accept them
    payload = {"rank": 2, "class": 2, "images": [[letter], [[2, 1]]]}
    with pytest.raises(MalformedInput, match=message):
        parse_map(payload)
    code, raw, _ = run_cli(tmp_path, ["is-aut"], payload)
    assert code == 2
    assert raw == json.dumps(
        {"error": "MalformedInput", "message": message}, separators=(",", ":")
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
