"""JSON wire formats.

Every format has a fixed key order and integer-only numerics:

  word            [[i, e], ...]                    letters, exponents nonzero
  element         {"word": WORD}
  map             {"rank", "class", "images"}      images are words
  certificate     {"fixed", "preserved"}           sorted generator indices
  term            {"comm", "exp"}                  left-normed commutator
  offsets         [[g, [TERM, ...]], ...]          x_g -> x_g * prod of terms
  stored          [[g, WORD], ...]                 x_g -> WORD, g increasing
  factor          {"stored" | "offsets", "certificate", "tag", "level"}
                  (+ provenance keys)
  decomposition   {"version", "input", "fixed", "factors"}
  report          {"ok", "factors", "min_fixed_block", "max_coefficient",
                   "failures"}

Decompositions are written as version 3.  A factor lists only the images
its map stores ("stored"): every generator it leaves out maps to itself, so
a factor that moves two of n generators costs two images on the wire, not
n.  A central_beta factor that keeps its terms (as `decompose` makes them)
carries "offsets" instead: images x_g times weight-c commutator terms,
rebuilt in closed form by `lie.central_offset`.  Any integer combination of
such terms is a central group element, so a parsed factor is a genuine map
whatever its terms say.  The input map stays dense, one image per
generator.

The older versions are still read.  Version 1 has no "version" key and a
dense "map" in every factor; version 2 allows "offsets" in central_beta
factors and a "map" in every other one.  A factor map in version 3, or a
"stored" list before it, is refused.

Structural violations raise MalformedInput; out-of-range generator indices
and mismatched contexts surface as their own domain errors so callers can
tell "not even the right shape" from "well-formed but invalid here".

The record types come from `records`, so parsing needs the group and map
layers only, never the code that produces decompositions.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .context import GroupContext
from .endo import GeneratorMap, MoietyCertificate, ia_central
from .errors import ContextMismatch, MalformedInput
from .lie import LeftNormedTerm, central_offset, word_of
from .records import TAGS, Decomposition, Factor, VerifyReport
from .ring import GroupElement, Word, from_word


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
# small validators

def _need_int(x: Any, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise MalformedInput(f"{what} must be an integer")
    return x


def _need_list(x: Any, what: str) -> list:
    if not isinstance(x, list):
        raise MalformedInput(f"{what} must be a list")
    return x


def _need_keys(obj: Any, what: str, required: tuple, optional: tuple = ()) -> dict:
    if not isinstance(obj, dict):
        raise MalformedInput(f"{what} must be an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise MalformedInput(f"{what} is missing keys {missing}")
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise MalformedInput(f"{what} has unknown keys {unknown}")
    return obj


# ---------------------------------------------------------------------------
# words and elements

def word_payload(w: Word) -> list:
    return [[g, e] for g, e in w.letters]


def parse_word(obj: Any) -> Word:
    pairs = []
    for item in _need_list(obj, "word"):
        item = _need_list(item, "word letter")
        if len(item) != 2:
            raise MalformedInput("word letters must be [generator, exponent] pairs")
        g = _need_int(item[0], "generator index")
        e = _need_int(item[1], "exponent")
        if g < 1:
            raise MalformedInput(f"generator index {g} must be positive")
        if e == 0:
            raise MalformedInput("exponent must be nonzero")
        pairs.append((g, e))
    return Word(tuple(pairs))


def element_payload(a: GroupElement) -> dict:
    return {"word": word_payload(word_of(a))}


def parse_element(ctx: GroupContext, obj: Any) -> GroupElement:
    obj = _need_keys(obj, "element", ("word",))
    return from_word(ctx, parse_word(obj["word"]))


# ---------------------------------------------------------------------------
# maps

def map_payload(phi: GeneratorMap) -> dict:
    stored = phi.stored
    return {
        "rank": phi.ctx.rank,
        "class": phi.ctx.nilclass,
        "images": [
            word_payload(word_of(stored[i])) if i in stored else [[i, 1]]
            for i in phi.ctx.generators()
        ],
    }


def parse_map(obj: Any) -> GeneratorMap:
    obj = _need_keys(obj, "map", ("rank", "class", "images"))
    rank = _need_int(obj["rank"], "rank")
    ctx = GroupContext(rank, _need_int(obj["class"], "class"))
    images = _need_list(obj["images"], "images")
    if len(images) != rank:
        raise MalformedInput(f"expected {rank} images, got {len(images)}")
    stored = {}
    for i, w in enumerate(images, 1):
        # the literal image [[i, 1]] needs no ring work; `==` alone would
        # also match [[True, 1]] or [[1.0, 1]], which parse_word refuses
        if w == [[i, 1]] and type(w[0][0]) is int and type(w[0][1]) is int:
            continue
        stored[i] = from_word(ctx, parse_word(w))
    return GeneratorMap._sparse(ctx, stored)


def stored_payload(phi: GeneratorMap) -> list:
    stored = phi.stored
    return [[g, word_payload(word_of(stored[g]))] for g in sorted(stored)]


def parse_stored(ctx: GroupContext, obj: Any) -> GeneratorMap:
    """The map x_g -> WORD for each listed g, fixing every other generator:
    the map parse_map builds from the dense images it stands for."""
    stored, last = {}, 0
    for item in _need_list(obj, "stored"):
        item = _need_list(item, "stored image")
        if len(item) != 2:
            raise MalformedInput("stored images must be [generator, word] pairs")
        g = _need_int(item[0], "stored generator")
        ctx.check_generators((g,))
        if g <= last:
            raise MalformedInput("stored generators must strictly increase")
        last = g
        stored[g] = from_word(ctx, parse_word(item[1]))
    return GeneratorMap._sparse(ctx, stored)


# ---------------------------------------------------------------------------
# certificates, terms

def certificate_payload(cert: MoietyCertificate) -> dict:
    return {"fixed": sorted(cert.fixed), "preserved": sorted(cert.preserved)}


def parse_certificate(obj: Any) -> MoietyCertificate:
    obj = _need_keys(obj, "certificate", ("fixed", "preserved"))
    sides = []
    for key in ("fixed", "preserved"):
        idx = [_need_int(i, f"{key} index") for i in _need_list(obj[key], key)]
        if any(i < 1 for i in idx):
            raise MalformedInput(f"{key} indices must be positive")
        sides.append(frozenset(idx))
    return MoietyCertificate(sides[0], sides[1])


def term_payload(t: LeftNormedTerm) -> dict:
    return {"comm": list(t.generators), "exp": t.exponent}


def parse_term(obj: Any) -> LeftNormedTerm:
    obj = _need_keys(obj, "term", ("comm", "exp"))
    gens = [_need_int(g, "commutator entry") for g in _need_list(obj["comm"], "comm")]
    if len(gens) < 2 or any(g < 1 for g in gens):
        raise MalformedInput("comm must list at least two positive generator indices")
    exp = _need_int(obj["exp"], "exp")
    if exp == 0:
        raise MalformedInput("exp must be nonzero")
    return LeftNormedTerm(tuple(gens), exp)


def offsets_payload(offsets) -> list:
    return [[g, [term_payload(t) for t in terms]] for g, terms in offsets]


def parse_offsets(ctx: GroupContext, obj: Any) -> tuple[GeneratorMap, tuple]:
    """The central IA map x_g -> x_g * prod of terms, and the offsets read."""
    assignment, offsets = {}, []
    for item in _need_list(obj, "offsets"):
        item = _need_list(item, "offset")
        if len(item) != 2:
            raise MalformedInput("offsets must be [generator, [term, ...]] pairs")
        g = _need_int(item[0], "offset generator")
        if g in assignment:
            raise MalformedInput(f"offsets name generator {g} twice")
        terms = tuple(parse_term(t) for t in _need_list(item[1], "offset terms"))
        assignment[g] = central_offset(ctx, terms)
        offsets.append((g, terms))
    return ia_central(ctx, assignment), tuple(offsets)


# ---------------------------------------------------------------------------
# factors and decompositions

def factor_payload(f: Factor) -> dict:
    if f.offsets is not None:
        out = {"offsets": offsets_payload(f.offsets)}
    else:
        out = {"stored": stored_payload(f.map)}
    out["certificate"] = certificate_payload(f.certificate)
    out["tag"] = f.tag
    out["level"] = f.level
    if f.origin is not None:
        out["origin"] = f.origin
    if f.part is not None:
        out["part"] = f.part
    if f.side is not None:
        out["side"] = f.side
    return out


def parse_factor(ctx: GroupContext, obj: Any, version: int) -> Factor:
    obj = _need_keys(
        obj,
        "factor",
        ("certificate", "tag", "level"),
        optional=("map", "stored", "offsets", "origin", "part", "side"),
    )
    tag = obj["tag"]
    if tag not in TAGS:
        raise MalformedInput(f"unknown factor tag {tag!r}")
    if sum(key in obj for key in ("map", "stored", "offsets")) != 1:
        raise MalformedInput(
            "factor needs exactly one of the keys map, stored and offsets"
        )
    offsets = None
    if "map" in obj:
        if version >= 3:
            raise MalformedInput("version 3 factors carry stored, not map")
        phi = parse_map(obj["map"])
        if phi.ctx != ctx:
            raise ContextMismatch(
                f"factor map lives in {phi.ctx.rank}/{phi.ctx.nilclass}, "
                f"decomposition in {ctx.rank}/{ctx.nilclass}"
            )
    elif "stored" in obj:
        if version < 3:
            raise MalformedInput("stored needs a version 3 decomposition")
        phi = parse_stored(ctx, obj["stored"])
    elif version < 2:
        raise MalformedInput("offsets need a version 2 decomposition")
    elif tag != "central_beta":
        raise MalformedInput(f"only central_beta factors carry offsets, not {tag!r}")
    else:
        phi, offsets = parse_offsets(ctx, obj["offsets"])
    origin = obj.get("origin")
    if origin is not None and origin not in TAGS:
        raise MalformedInput(f"unknown origin tag {origin!r}")
    part = obj.get("part")
    side = obj.get("side")
    if side is not None and side not in ("F", "G"):
        raise MalformedInput("side must be 'F' or 'G'")
    cert = parse_certificate(obj["certificate"])
    level = _need_int(obj["level"], "level")
    if part is not None:
        part = _need_int(part, "part")
    if level < 1 or (part is not None and part < 1):
        raise MalformedInput("level and part must be at least 1")
    return Factor(
        phi, cert, tag, level, origin=origin, part=part, side=side, offsets=offsets
    )


VERSIONS = (1, 2, 3)  # decomposition versions parse_decomposition reads


def decomposition_payload(dec: Decomposition) -> dict:
    return {
        "version": 3,
        "input": map_payload(dec.input),
        "fixed": sorted(dec.fixed),
        "factors": [factor_payload(f) for f in dec.factors],
    }


def parse_decomposition(obj: Any) -> Decomposition:
    obj = _need_keys(
        obj, "decomposition", ("input", "fixed", "factors"), optional=("version",)
    )
    # a payload without the key is version 1, which predates it
    version = obj.get("version", 1)
    if type(version) is not int or version not in VERSIONS:
        raise MalformedInput(f"unknown decomposition version {version!r}")
    sigma = parse_map(obj["input"])
    fixed = [_need_int(d, "fixed index") for d in _need_list(obj["fixed"], "fixed")]
    if any(d < 1 for d in fixed):
        raise MalformedInput("fixed indices must be positive")
    sigma.ctx.check_generators(fixed)
    factors = [
        parse_factor(sigma.ctx, f, version)
        for f in _need_list(obj["factors"], "factors")
    ]
    return Decomposition(sigma, frozenset(fixed), tuple(factors))


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
    "element": {"word": "<word>"},
    "map": {
        "rank": "int>=1",
        "class": "int>=1",
        "images": "[<word>; one per generator, in index order]",
    },
    "certificate": {
        "fixed": "[int, ...]  generators fixed pointwise",
        "preserved": "[int, ...]  generators whose span is preserved; disjoint union with fixed covers 1..rank",
    },
    "term": {
        "comm": "[int>=1 x>=2]  left-normed commutator letters [x_b1, .., x_bk]",
        "exp": "int!=0  power of the commutator",
    },
    "offsets": "[[g:int, [<term>, ...]], ...]  x_g -> x_g * product of its terms, "
    "every term of length exactly class; each g at most once, in 1..rank",
    "stored": "[[g:int, <word>], ...]  x_g -> word, g strictly increasing in 1..rank; "
    "every generator not listed maps to itself",
    "factor": {
        "stored": "<stored>  (or offsets, in central_beta factors)",
        "offsets?": "<offsets>  central_beta factors, in place of stored",
        "certificate": "<certificate>",
        "tag": "one of %s" % (list(TAGS),),
        "level": "int>=1  class at which the factor was emitted",
        "origin?": "pre-lift tag (lifted factors only)",
        "part?": "int>=1  avoided cell index (central_beta factors, "
        "and lifted factors of central_beta origin)",
        "side?": "'F' | 'G'  (central_beta factors, and lifted factors of "
        "central_beta origin)",
    },
    "decomposition": {
        "version": "3; read also: 2, where factors carry <map> in place of "
        "stored, and 1 (no version key), where every factor carries a <map>",
        "input": "<map>",
        "fixed": "[int, ...]  the pinned generator set D",
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
