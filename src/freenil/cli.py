"""Command line front end.

One JSON payload in (``--in FILE`` or stdin), one JSON payload out
(``--out FILE`` or stdout).  Exit codes: 0 on success, 1 for domain errors
(reported as ``{"error": NAME, "message": ...}``), 2 for malformed input.
``--schema`` prints all wire formats and exits.

The element commands (mul, inv, comm, weight, central-factorize) and
random-aut take the group as ``--rank``/``--class``.  The other map commands
read it from their payloads and refuse both flags: argparse exits 2 with its
usage on stderr.
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


def _fix(args) -> frozenset[int]:
    try:
        idx = [int(tok) for tok in args.fix.split(",")] if args.fix.strip() else []
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
            return emit(op(jsonio.parse_element(ctx, obj)))
        obj = jsonio._need_keys(obj, "input", keys)
        return emit(op(*(jsonio.parse_element(ctx, obj[k]) for k in keys)))

    return handler


def _weight_payload(w) -> dict:
    return {"weight": None if w == float("inf") else w}


def _terms_payload(terms) -> list:
    return [jsonio.term_payload(t) for t in terms]


def _cmd_apply(args) -> Any:
    obj = jsonio._need_keys(_read(args), "input", ("map", "a"))
    phi = jsonio.parse_map(obj["map"])
    return jsonio.element_payload(phi.apply(jsonio.parse_element(phi.ctx, obj["a"])))


def _cmd_compose(args) -> Any:
    obj = jsonio._need_keys(_read(args), "input", ("phi", "psi"))
    phi, psi = (jsonio.parse_map(obj[k]) for k in ("phi", "psi"))
    return jsonio.map_payload(compose(phi, psi))


def _cmd_is_aut(args) -> Any:
    return {"automorphism": jsonio.parse_map(_read(args)).is_automorphism()}


def _cmd_invert_aut(args) -> Any:
    return jsonio.map_payload(invert(jsonio.parse_map(_read(args))))


def _cmd_random_aut(args) -> Any:
    ctx = _ctx(args)
    if args.length < 0:
        raise MalformedInput("--length must be nonnegative")
    phi = random_automorphism(ctx, args.seed, args.length, _fix(args))
    return jsonio.map_payload(phi)


def _cmd_decompose(args) -> Any:
    sigma = jsonio.parse_map(_read(args))
    return jsonio.decomposition_payload(decompose(sigma, _fix(args)))


def _cmd_verify(args) -> Any:
    return jsonio.report_payload(verify_payload(_read(args)))


# flag sets, given to the commands that take them as argparse parents
_GROUP, _IO, _SEED, _FIX = (argparse.ArgumentParser(add_help=False) for _ in range(4))
_GROUP.add_argument("--rank", type=int, help="number of generators")
_GROUP.add_argument("--class", dest="nilclass", type=int, help="nilpotency class")
_IO.add_argument("--in", dest="infile", default="-", metavar="FILE")
_IO.add_argument("--out", dest="outfile", default="-", metavar="FILE")
_IO.add_argument("--pretty", action="store_true", help="indent the output")
_SEED.add_argument("--seed", type=int, required=True)
_SEED.add_argument("--length", type=int, default=10, help="number of elementary moves")
_FIX.add_argument(
    "--fix", default="", help="comma separated generator indices to pin, e.g. 1,2"
)

# the command table, read by _build_parser and main.  A row is
# name: (handler, takes --rank/--class, help, parsers of its own flags...)
COMMANDS = {
    "mul": (_elements(mul, "a", "b"), True,
            "multiply two elements: {'a': ELEMENT, 'b': ELEMENT}"),
    "inv": (_elements(inv), True, "invert an element"),
    "comm": (_elements(comm, "a", "b"), True,
             "commutator a^-1 b^-1 a b: {'a': ELEMENT, 'b': ELEMENT}"),
    "weight": (_elements(lcs_weight, emit=_weight_payload), True,
               "lower central series weight (null for the identity)"),
    "central-factorize": (_elements(central_factorize, emit=_terms_payload), True,
                          "write a central element as commutator terms"),
    "apply": (_cmd_apply, False,
              "apply a map to an element: {'map': MAP, 'a': ELEMENT}"),
    "compose": (_cmd_compose, False, "compose two maps: {'phi': MAP, 'psi': MAP}"),
    "is-aut": (_cmd_is_aut, False, "test whether a map is an automorphism"),
    "invert-aut": (_cmd_invert_aut, False, "invert an automorphism"),
    "random-aut": (_cmd_random_aut, True,
                   "seeded random automorphism fixing --fix", _SEED, _FIX),
    "decompose": (_cmd_decompose, False,
                  "factor an automorphism fixing --fix into certified pieces", _FIX),
    "verify": (_cmd_verify, False, "recheck a serialized decomposition"),
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
    for name, (_, group, text, *own) in COMMANDS.items():
        parents = [_GROUP, _IO] if group else [_IO]
        sub.add_parser(name, parents=parents + own, help=text)
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
