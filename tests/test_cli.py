"""End-to-end checks of the command line front end.

Most cases drive ``freenil.cli.main`` in process with ``--in``/``--out``
file redirection; a few spawn real subprocesses to pin down byte-level
determinism of the full pipeline and argparse's own exit behaviour.
"""

import json
import subprocess
import sys

from freenil import (
    GroupContext,
    Word,
    comm,
    compose,
    from_word,
    identity_map,
    mul,
    transvection,
)
from freenil.cli import main
from freenil.jsonio import map_payload, parse_element, parse_map

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
