"""Command line front end.

One JSON payload in (``--in FILE`` or stdin), one JSON payload out
(``--out FILE`` or stdout).  Exit codes: 0 on success, 1 for domain errors
(reported as ``{"error": NAME, "message": ...}``), 2 for malformed input.
``--schema`` prints all wire formats and exits.

The element commands (mul, inv, comm, weight, central-factorize) and
random-aut take the group as ``--rank``/``--class``; the other map commands
read it from their payloads.  random-aut reads no input.  A command refuses
the flags it does not read: argparse exits 2 with its usage on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

from . import jsonio, reader
from .context import GroupContext
from .decompose import decompose
from .endo import invert, random_automorphism
from .errors import DomainError, MalformedInput
from .kernel import compose
from .lie import central_factorize
from .ring import comm, inv, lcs_weight, mul
from .verifier import verify_payload


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
    if args.outfile != "-":
        try:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as err:
            message = f"cannot write --out file: {err}"
            envelope = {"error": MalformedInput.__name__, "message": message}
            text, code = jsonio.dumps(envelope, pretty=args.pretty), 2
    sys.stdout.write(text)
    return code


def _ctx(args) -> GroupContext:
    if args.rank is None or args.nilclass is None:
        raise MalformedInput("--rank and --class are required for this command")
    return GroupContext(args.rank, args.nilclass)


def _int(text: str) -> int:
    """An optional sign and ASCII digits, spaces around them allowed: int()
    alone also reads 1_0 as 10 and every Unicode decimal digit."""
    digits = text.strip().lstrip("+-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)  # and refuses more than one sign


_int.__name__ = "int"  # argparse's refusal says "invalid int value", as before


def _fix(args) -> frozenset[int]:
    try:
        idx = [_int(tok) for tok in args.fix.split(",")] if args.fix.strip() else []
    except ValueError:
        raise MalformedInput("--fix must be comma separated integers") from None
    if any(i < 1 for i in idx):
        raise MalformedInput("--fix indices must be positive")
    return frozenset(idx)


# handlers: each takes the parsed arguments and returns the output payload
def _elements(op: Callable, *keys: str, emit: Callable = jsonio.element_payload):
    """The handler of an element command: `emit(op(...))` of the input element,
    or of the input's elements under `keys`, in the group of --rank/--class."""

    def handler(args) -> Any:
        ctx = _ctx(args)
        obj = _read(args)
        if not keys:
            return emit(op(reader.parse_element(ctx, obj)))
        obj = reader._need_keys(obj, "input", keys)
        return emit(op(*(reader.parse_element(ctx, obj[k]) for k in keys)))

    return handler


def _weight_payload(w) -> dict:
    return {"weight": None if w == float("inf") else w}


def _terms_payload(terms) -> list:
    return [jsonio.term_payload(t) for t in terms]


def _cmd_apply(args) -> Any:
    obj = reader._need_keys(_read(args), "input", ("map", "a"))
    phi = reader.parse_map(obj["map"])
    return jsonio.element_payload(phi.apply(reader.parse_element(phi.ctx, obj["a"])))


def _cmd_compose(args) -> Any:
    obj = reader._need_keys(_read(args), "input", ("phi", "psi"))
    phi, psi = (reader.parse_map(obj[k]) for k in ("phi", "psi"))
    return jsonio.map_payload(compose(phi, psi))


def _cmd_is_aut(args) -> Any:
    return {"automorphism": reader.parse_map(_read(args)).is_automorphism()}


def _cmd_invert_aut(args) -> Any:
    return jsonio.map_payload(invert(reader.parse_map(_read(args))))


def _cmd_random_aut(args) -> Any:
    ctx = _ctx(args)
    if args.length < 0:
        raise MalformedInput("--length must be nonnegative")
    phi = random_automorphism(ctx, args.seed, args.length, _fix(args))
    return jsonio.map_payload(phi)


def _cmd_decompose(args) -> Any:
    sigma = reader.parse_map(_read(args))
    return jsonio.decomposition_payload(decompose(sigma, _fix(args)))


def _cmd_verify(args) -> Any:
    return jsonio.report_payload(verify_payload(_read(args)))


# flag sets, given to the commands that take them as argparse parents
_GROUP, _IN, _OUT, _SEED, _FIX = (
    argparse.ArgumentParser(add_help=False) for _ in range(5)
)
_GROUP.add_argument("--rank", type=_int, help="number of generators")
_GROUP.add_argument("--class", dest="nilclass", type=_int, help="nilpotency class")
_IN.add_argument("--in", dest="infile", default="-", metavar="FILE")
_OUT.add_argument("--out", dest="outfile", default="-", metavar="FILE")
_OUT.add_argument("--pretty", action="store_true", help="indent the output")
_SEED.add_argument(
    "--seed", type=_int, required=True, help="integer in 0..2^64-1 (splitmix64 state)"
)
_SEED.add_argument("--length", type=_int, default=10, help="number of elementary moves")
_FIX.add_argument(
    "--fix", default="", help="comma separated generator indices to pin, e.g. 1,2"
)

# the command table, read by _build_parser and main.  A row is
# name: (handler, help, parsers of the flags it takes besides --out/--pretty...)
COMMANDS = {
    "mul": (_elements(mul, "a", "b"),
            "multiply two elements: {'a': ELEMENT, 'b': ELEMENT}", _GROUP, _IN),
    "inv": (_elements(inv), "invert an element", _GROUP, _IN),
    "comm": (_elements(comm, "a", "b"),
             "commutator a^-1 b^-1 a b: {'a': ELEMENT, 'b': ELEMENT}", _GROUP, _IN),
    "weight": (_elements(lcs_weight, emit=_weight_payload),
               "lower central series weight (null for the identity)", _GROUP, _IN),
    "central-factorize": (_elements(central_factorize, emit=_terms_payload),
                          "write a central element as commutator terms", _GROUP, _IN),
    "apply": (_cmd_apply,
              "apply a map to an element: {'map': MAP, 'a': ELEMENT}", _IN),
    "compose": (_cmd_compose, "compose two maps: {'phi': MAP, 'psi': MAP}", _IN),
    "is-aut": (_cmd_is_aut, "test whether a map is an automorphism", _IN),
    "invert-aut": (_cmd_invert_aut, "invert an automorphism", _IN),
    "random-aut": (_cmd_random_aut,
                   "seeded random automorphism fixing --fix", _GROUP, _SEED, _FIX),
    "decompose": (_cmd_decompose,
                  "factor an automorphism fixing --fix into certified pieces",
                  _IN, _FIX),
    "verify": (_cmd_verify, "recheck a serialized decomposition", _IN),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freenil",
        description="exact computation in finitely generated free nilpotent groups",
    )
    parser.add_argument(
        "--schema", action="store_true", help="print the JSON wire formats and exit"
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, text, *flags) in COMMANDS.items():
        sub.add_parser(name, parents=[*flags, _OUT], help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.schema:
        sys.stdout.write(jsonio.dumps(jsonio.SCHEMAS, pretty=True))
        return 0
    if args.command is None:
        sys.stderr.write("freenil: a COMMAND is required (see --help)\n")
        return 2
    try:
        payload, code = COMMANDS[args.command][0](args), 0
    except DomainError as err:
        payload = {"error": err.name, "message": str(err)}
        code = 2 if isinstance(err, MalformedInput) else 1
    return _write(args, payload, code)


if __name__ == "__main__":
    sys.exit(main())
