"""JSON wire formats: the writers, `SCHEMAS`, and `loads`/`dumps`.

Every format has a fixed key order and integer-only numerics:

  word            [[i, e], ...]                    letters, exponents nonzero
  image           WORD, or [[g, e], .., [[w1..wk], e], ..]   collected form
  element         {"word": WORD}
  map             {"rank", "class", "images"}      one IMAGE per generator
  certificate     {"fixed"}                        sorted generator indices
  term            {"comm", "exp"}                  left-normed commutator
  offsets         [[g, [[[b1..bk], e], ...]], ...] x_g -> x_g * prod of terms
  stored          [[g, IMAGE], ...]                x_g -> IMAGE, g increasing
  factor          {"stored" | "offsets", "certificate", "tag"}
                  (+ provenance keys)
  decomposition   {"version", "input", "fixed", "factors"}
  report          {"ok", "factors", "min_fixed_block", "max_coefficient",
                   "failures"}

Decompositions are written as version 6.  A factor lists only the images
its map stores ("stored"): every generator it leaves out maps to itself, so
a factor that moves two of n generators costs two images on the wire, not
n.  A factor that keeps its terms carries "offsets" instead: a central_beta
factor, a lifted factor that `decompose` builds at the top class from a
lower-level beta, which ships that beta's terms, and a `lift_factor` lift
of either; the reader rebuilds its images as the engine built them
(`ring.offset_image`).  Inside offsets each term is the pair
[[b1, .., bk], e] that stands for the <term> object {"comm": [b1, .., bk],
"exp": e}; `central-factorize` still prints the objects.  The input map
stays dense, one image per generator.

An image is written as its provenance word when it has one, else in
collected form (`ring`, "Collected coordinates"): the coordinates it was
read with, so `decompose` echoes its input as read, or those
`lie.collect_word` finds.  An image of letters alone has the bytes of the
word version 4 wrote.  Element payloads stay words (`lie.word_of`).

Nothing the reader can derive is written.  A certificate holds its fixed
block alone: check_certificate accepts only a partition of 1..rank, so the
preserved block is the rest.  A factor has no level: its class is its
map's class.  The writer refuses a certificate that is no such partition
(PartitionInvalid) or a factor map from another context (ContextMismatch)
rather than write one that reads back as another.  Version 3 wrote both
keys, version 4 spelled every image out as a word, and version 5 wrote
every lifted factor as stored words and every term as an object.

Reading lives in `reader`, which the verifier uses without this module.
`verify` is here because it writes a decomposition before it checks it.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .context import GroupContext
from .errors import MalformedInput
from .kernel import GeneratorMap, MoietyCertificate, check_partition
from .lie import collect_word, word_of
from .records import TAGS, Decomposition, Factor, VerifyReport
from .reader import _check_factor_context
from .ring import GroupElement, LeftNormedTerm, Word
from .verifier import verify_payload

# perfbench/ reads parse_map and parse_decomposition off this module
from .reader import parse_decomposition, parse_map  # noqa: F401


# CPython 3.10.7 and later limit int <-> str conversion to 4300 digits by
# default (earlier versions have no limit).  loads keeps it, as parsing a long
# literal takes quadratic time, and names PYTHONINTMAXSTRDIGITS, which sets it
# for a whole process; dumps lifts it for its encode, as output is exact.
_get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def dumps(payload: Any, pretty: bool = False) -> str:
    # payloads are trees built here or by json.loads, never cyclic, so the
    # encoder's cycle check would only cost time
    limit = _get_digits()
    _set_digits(0)
    try:
        if pretty:
            return json.dumps(payload, indent=2, check_circular=False) + "\n"
        return (
            json.dumps(payload, separators=(",", ":"), check_circular=False) + "\n"
        )
    finally:
        _set_digits(limit)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedInput(f"invalid JSON: {err}") from None
    except ValueError:  # an integer literal over the digit limit
        raise MalformedInput(
            f"invalid JSON: an integer literal has more than {_get_digits()} "
            "digits; the environment variable PYTHONINTMAXSTRDIGITS raises "
            "the limit (0 lifts it)"
        ) from None
    except RecursionError:
        raise MalformedInput("invalid JSON: nesting too deep") from None


# ---------------------------------------------------------------------------
# words and elements

def word_payload(w: Word) -> list:
    return [[g, e] for g, e in w.letters]


def element_payload(a: GroupElement) -> dict:
    return {"word": word_payload(word_of(a))}


# ---------------------------------------------------------------------------
# maps

def image_payload(a: GroupElement) -> list:
    """a's provenance word, else its collected form."""
    if a.word is not None:
        return word_payload(a.word)
    coords = a.coords if a.coords is not None else collect_word(a)
    return [[list(w) if type(w) is tuple else w, e] for w, e in coords]


def map_payload(phi: GeneratorMap) -> dict:
    stored = phi.stored
    return {
        "rank": phi.ctx.rank,
        "class": phi.ctx.nilclass,
        "images": [
            image_payload(stored[i]) if i in stored else [[i, 1]]
            for i in phi.ctx.generators()
        ],
    }


def stored_payload(phi: GeneratorMap) -> list:
    stored = phi.stored
    return [[g, image_payload(stored[g])] for g in sorted(stored)]


# ---------------------------------------------------------------------------
# certificates, terms

def certificate_payload(cert: MoietyCertificate) -> dict:
    # the preserved block is the rest of 1..rank (check_partition)
    return {"fixed": sorted(cert.fixed)}


def term_payload(t: LeftNormedTerm) -> dict:
    return {"comm": list(t.generators), "exp": t.exponent}


def offsets_payload(offsets) -> list:
    # each term as the pair [[b1, .., bk], e] that stands for its <term>
    return [
        [g, [[list(t.generators), t.exponent] for t in terms]] for g, terms in offsets
    ]


# ---------------------------------------------------------------------------
# factors and decompositions

def factor_payload(ctx: GroupContext, f: Factor) -> dict:
    """The factor without what the reader derives.  A certificate that
    cannot be derived back is refused, and a map outside ctx is refused as
    the reader refuses it."""
    check_partition(ctx, f.certificate)
    _check_factor_context(ctx, f.map)
    if f.offsets is not None:
        out = {"offsets": offsets_payload(f.offsets)}
    else:
        out = {"stored": stored_payload(f.map)}
    out["certificate"] = certificate_payload(f.certificate)
    out["tag"] = f.tag
    if f.origin is not None:
        out["origin"] = f.origin
    if f.part is not None:
        out["part"] = f.part
    if f.side is not None:
        out["side"] = f.side
    return out


def decomposition_payload(dec: Decomposition) -> dict:
    return {
        "version": 6,
        "input": map_payload(dec.input),
        "fixed": sorted(dec.fixed),
        "factors": [factor_payload(dec.input.ctx, f) for f in dec.factors],
    }


def verify(dec: Decomposition) -> VerifyReport:
    """Re-check a decomposition from its serialized form alone.

    Writing it raises, before any check, for what the wire cannot carry: a
    certificate whose blocks do not partition 1..rank with the preserved
    block nonempty (PartitionInvalid, with check_certificate's message), or
    a factor map from another context than the input's (ContextMismatch):
    a factor's class is its map's class.  `decompose` never makes either."""
    return verify_payload(decomposition_payload(dec))


def report_payload(rep: VerifyReport) -> dict:
    return {
        "ok": rep.ok,
        "factors": rep.factors,
        "min_fixed_block": rep.min_fixed_block,
        "max_coefficient": rep.max_coefficient,
        "failures": list(rep.failures),
    }


# ---------------------------------------------------------------------------

SCHEMAS: dict[str, Any] = {
    "word": "[[generator:int>=1, exponent:int!=0], ...]  (a group word, read left to right)",
    "image": "<word>, or in collected form [[g:int, e:int!=0], ..., "
    "[[w1, .., wk], e:int!=0], ...]: the letters x_g^e with g strictly "
    "increasing, then the bracket powers, w a Lyndon word over 1..rank with "
    "2<=k<=class, strictly increasing by (k, w); a bracket power is the "
    "standard bracketing of w, commutators [a,b] = a^-1 b^-1 a b, with its "
    "last letter raised to e.  A list with a bracket entry must be in this "
    "canonical form; one without is a word.  Before version 5, always a word",
    "element": {"word": "<word>"},
    "map": {
        "rank": "int>=1",
        "class": "int, 1..64",
        "images": "[<image>; one per generator, in index order]",
    },
    "certificate": {
        "fixed": "[int>=1, ...]  generators fixed pointwise, strictly increasing; "
        "every other generator of 1..rank is preserved (before version 4 "
        "also written, as preserved)",
    },
    "term": {
        "comm": "[int>=1 x>=2]  left-normed commutator letters [x_b1, .., x_bk]",
        "exp": "int!=0  power of the commutator",
    },
    "offsets": "[[g:int, [[[b1, .., bk], e:int!=0], ...]], ...]  x_g -> x_g * "
    "product of its terms, each pair the <term> {\"comm\": [b1, .., bk], "
    "\"exp\": e}, every b in 1..rank; of weight k exactly the class in "
    "central_beta factors, and 2<=k<=class in lifted factors of central_beta "
    "origin, whose images are rebuilt as x_g followed by the terms' letters; "
    "each g at most once, in 1..rank.  Before version 6 every term is a "
    "<term> object",
    "stored": "[[g:int, <image>], ...]  x_g -> image, g strictly increasing in "
    "1..rank; every generator not listed maps to itself",
    "factor": {
        "stored": "<stored>  (or offsets, in central_beta factors and their lifts)",
        "offsets?": "<offsets>  central_beta factors, and lifted factors of "
        "central_beta origin, in place of stored",
        "certificate": "<certificate>",
        "tag": "one of %s" % (list(TAGS),),
        "origin?": "pre-lift tag (lifted factors only)",
        "part?": "int>=1  avoided cell index (central_beta factors, "
        "and lifted factors of central_beta origin)",
        "side?": "'F' | 'G'  (central_beta factors, and lifted factors of "
        "central_beta origin)",
    },
    "decomposition": {
        "version": "6; read also: 5, where <offsets> terms are <term> objects "
        "and only central_beta factors carry offsets, 4, where every <image> is "
        "a <word>, "
        "3, where certificates also carry preserved "
        "and factors carry level (int>=1, at most the class), 2, where "
        "factors carry <map> in place of stored, and 1 (no version key), "
        "where every factor carries a <map>",
        "input": "<map>",
        "fixed": "[int>=1, ...]  the pinned generator set D, strictly increasing "
        "(before version 4 in any order)",
        "factors": "[<factor>, ...]  left-to-right composition order",
    },
    "report": {
        "ok": "bool",
        "factors": "int  number of factors checked",
        "min_fixed_block": "int|null  min over factors of |fixed block - D|",
        "max_coefficient": "int  largest |coefficient| seen while checking",
        "failures": "[str, ...]",
    },
    "error": {"error": "domain error name", "message": "str"},
}
