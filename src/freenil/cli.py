"""Command line front end.

One JSON payload in (``--in FILE`` or stdin), one JSON payload out
(``--out FILE`` or stdout).  Exit codes: 0 on success, 1 for domain errors
(reported as ``{"error": NAME, "message": ...}``), 2 for malformed input.
``--schema`` prints all wire formats and exits.

Element commands (mul, inv, comm, weight, central-factorize) need the group
pinned down with ``--rank``/``--class``; map commands carry the context
inside their payloads.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

from . import jsonio
from .context import GroupContext
from .decompose import decompose
from .endo import compose, invert, random_automorphism
from .errors import DomainError, MalformedInput
from .lie import central_factorize
from .ring import comm, inv, lcs_weight, mul
from .verifier import verify_payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freenil",
        description="exact computation in finitely generated free nilpotent groups",
    )
    parser.add_argument(
        "--schema", action="store_true", help="print the JSON wire formats and exit"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank", type=int, help="number of generators")
    common.add_argument(
        "--class", dest="nilclass", type=int, help="nilpotency class"
    )
    common.add_argument("--in", dest="infile", default="-", metavar="FILE")
    common.add_argument("--out", dest="outfile", default="-", metavar="FILE")
    common.add_argument("--pretty", action="store_true", help="indent the output")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, text in (
        ("mul", "multiply two elements: {'a': ELEMENT, 'b': ELEMENT}"),
        ("inv", "invert an element"),
        ("comm", "commutator a^-1 b^-1 a b: {'a': ELEMENT, 'b': ELEMENT}"),
        ("weight", "lower central series weight (null for the identity)"),
        ("central-factorize", "write a central element as commutator terms"),
        ("apply", "apply a map to an element: {'map': MAP, 'a': ELEMENT}"),
        ("compose", "compose two maps: {'phi': MAP, 'psi': MAP}"),
        ("is-aut", "test whether a map is an automorphism"),
        ("invert-aut", "invert an automorphism"),
        ("random-aut", "seeded random automorphism fixing --fix"),
        ("decompose", "factor an automorphism fixing --fix into certified pieces"),
        ("verify", "recheck a serialized decomposition"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        if name == "random-aut":
            p.add_argument("--seed", type=int, required=True)
            p.add_argument(
                "--length", type=int, default=10, help="number of elementary moves"
            )
        if name in ("random-aut", "decompose"):
            p.add_argument(
                "--fix",
                default="",
                help="comma separated generator indices to pin, e.g. 1,2",
            )
    return parser


# ---------------------------------------------------------------------------
# shared plumbing

def _read(args) -> Any:
    if args.infile == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise MalformedInput(f"cannot read --in file: {err}") from None
    return jsonio.loads(text)


def _write(args, payload: Any, code: int) -> int:
    """Write payload to --out (or stdout) and return the exit code to use.

    An --out file that cannot be written is reported like an unreadable --in
    file, on stdout since --out is unusable: MalformedInput, exit 2.
    """
    text = jsonio.dumps(payload, pretty=args.pretty)
    if args.outfile == "-":
        sys.stdout.write(text)
        return code
    try:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        envelope = {
            "error": MalformedInput.__name__,
            "message": f"cannot write --out file: {err}",
        }
        sys.stdout.write(jsonio.dumps(envelope, pretty=args.pretty))
        return 2
    return code


def _ctx(args) -> GroupContext:
    if args.rank is None or args.nilclass is None:
        raise MalformedInput("--rank and --class are required for this command")
    return GroupContext(args.rank, args.nilclass)


def _fix(args) -> frozenset[int]:
    text = args.fix.strip()
    if not text:
        return frozenset()
    try:
        idx = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise MalformedInput("--fix must be comma separated integers") from None
    if any(i < 1 for i in idx):
        raise MalformedInput("--fix indices must be positive")
    return frozenset(idx)


# ---------------------------------------------------------------------------
# handlers, one per subcommand

def _cmd_mul(args) -> Any:
    ctx = _ctx(args)
    obj = jsonio._need_keys(_read(args), "input", ("a", "b"))
    a = jsonio.parse_element(ctx, obj["a"])
    b = jsonio.parse_element(ctx, obj["b"])
    return jsonio.element_payload(mul(a, b))


def _cmd_inv(args) -> Any:
    ctx = _ctx(args)
    return jsonio.element_payload(inv(jsonio.parse_element(ctx, _read(args))))


def _cmd_comm(args) -> Any:
    ctx = _ctx(args)
    obj = jsonio._need_keys(_read(args), "input", ("a", "b"))
    a = jsonio.parse_element(ctx, obj["a"])
    b = jsonio.parse_element(ctx, obj["b"])
    return jsonio.element_payload(comm(a, b))


def _cmd_weight(args) -> Any:
    ctx = _ctx(args)
    w = lcs_weight(jsonio.parse_element(ctx, _read(args)))
    return {"weight": None if w == float("inf") else w}


def _cmd_central_factorize(args) -> Any:
    ctx = _ctx(args)
    a = jsonio.parse_element(ctx, _read(args))
    return [jsonio.term_payload(t) for t in central_factorize(a)]


def _cmd_apply(args) -> Any:
    obj = jsonio._need_keys(_read(args), "input", ("map", "a"))
    phi = jsonio.parse_map(obj["map"])
    a = jsonio.parse_element(phi.ctx, obj["a"])
    return jsonio.element_payload(phi.apply(a))


def _cmd_compose(args) -> Any:
    obj = jsonio._need_keys(_read(args), "input", ("phi", "psi"))
    phi = jsonio.parse_map(obj["phi"])
    psi = jsonio.parse_map(obj["psi"])
    return jsonio.map_payload(compose(phi, psi))


def _cmd_is_aut(args) -> Any:
    return {"automorphism": jsonio.parse_map(_read(args)).is_automorphism()}


def _cmd_invert_aut(args) -> Any:
    return jsonio.map_payload(invert(jsonio.parse_map(_read(args))))


def _cmd_random_aut(args) -> Any:
    ctx = _ctx(args)
    if args.length < 0:
        raise MalformedInput("--length must be nonnegative")
    return jsonio.map_payload(
        random_automorphism(ctx, args.seed, args.length, _fix(args))
    )


def _cmd_decompose(args) -> Any:
    sigma = jsonio.parse_map(_read(args))
    return jsonio.decomposition_payload(decompose(sigma, _fix(args)))


def _cmd_verify(args) -> Any:
    return jsonio.report_payload(verify_payload(_read(args)))


_HANDLERS: dict[str, Callable] = {
    "mul": _cmd_mul,
    "inv": _cmd_inv,
    "comm": _cmd_comm,
    "weight": _cmd_weight,
    "central-factorize": _cmd_central_factorize,
    "apply": _cmd_apply,
    "compose": _cmd_compose,
    "is-aut": _cmd_is_aut,
    "invert-aut": _cmd_invert_aut,
    "random-aut": _cmd_random_aut,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.schema:
        sys.stdout.write(jsonio.dumps(jsonio.SCHEMAS, pretty=True))
        return 0
    if args.command is None:
        sys.stderr.write("freenil: a COMMAND is required (see --help)\n")
        return 2
    try:
        payload = _HANDLERS[args.command](args)
    except MalformedInput as err:
        return _write(args, {"error": err.name, "message": str(err)}, 2)
    except DomainError as err:
        return _write(args, {"error": err.name, "message": str(err)}, 1)
    return _write(args, payload, 0)


if __name__ == "__main__":
    sys.exit(main())
