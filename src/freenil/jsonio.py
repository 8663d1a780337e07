"""JSON wire formats.

Every format has a fixed key order and integer-only numerics:

  word            [[i, e], ...]                    letters, exponents nonzero
  element         {"word": WORD}
  map             {"rank", "class", "images"}      images are words
  certificate     {"fixed", "preserved"}           sorted generator indices
  term            {"comm", "exp"}                  left-normed commutator
  factor          {"map", "certificate", "tag", "level"} (+ provenance keys)
  decomposition   {"input", "fixed", "factors"}
  report          {"ok", "factors", "min_fixed_block", "max_coefficient",
                   "failures"}

Structural violations raise MalformedInput; out-of-range generator indices
and mismatched contexts surface as their own domain errors so callers can
tell "not even the right shape" from "well-formed but invalid here".

The record types come from `records`, so parsing needs the group and map
layers only, never the code that produces decompositions.
"""

from __future__ import annotations

import json
from typing import Any

from .context import GroupContext
from .endo import GeneratorMap, MoietyCertificate
from .errors import ContextMismatch, IndexOutOfRange, MalformedInput
from .lie import LeftNormedTerm, word_of
from .records import TAGS, Decomposition, Factor, VerifyReport
from .ring import GroupElement, Word, from_word


def dumps(payload: Any, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(payload, indent=2) + "\n"
    return json.dumps(payload, separators=(",", ":")) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedInput(f"invalid JSON: {err}") from None
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
    nilclass = _need_int(obj["class"], "class")
    if rank < 1 or nilclass < 1:
        raise MalformedInput("rank and class must be at least 1")
    images = _need_list(obj["images"], "images")
    if len(images) != rank:
        raise MalformedInput(f"expected {rank} images, got {len(images)}")
    ctx = GroupContext(rank, nilclass)
    stored = {}
    for i, w in enumerate(images, 1):
        # the literal image [[i, 1]] needs no ring work; `==` alone would
        # also match [[True, 1]] or [[1.0, 1]], which parse_word refuses
        if w == [[i, 1]] and type(w[0][0]) is int and type(w[0][1]) is int:
            continue
        stored[i] = from_word(ctx, parse_word(w))
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
    return LeftNormedTerm(tuple(gens), _need_int(obj["exp"], "exp"))


# ---------------------------------------------------------------------------
# factors and decompositions

def factor_payload(f: Factor) -> dict:
    out = {
        "map": map_payload(f.map),
        "certificate": certificate_payload(f.certificate),
        "tag": f.tag,
        "level": f.level,
    }
    if f.origin is not None:
        out["origin"] = f.origin
    if f.part is not None:
        out["part"] = f.part
    if f.side is not None:
        out["side"] = f.side
    return out


def parse_factor(ctx: GroupContext, obj: Any) -> Factor:
    obj = _need_keys(
        obj,
        "factor",
        ("map", "certificate", "tag", "level"),
        optional=("origin", "part", "side"),
    )
    phi = parse_map(obj["map"])
    if phi.ctx != ctx:
        raise ContextMismatch(
            f"factor map lives in {phi.ctx.rank}/{phi.ctx.nilclass}, "
            f"decomposition in {ctx.rank}/{ctx.nilclass}"
        )
    tag = obj["tag"]
    if tag not in TAGS:
        raise MalformedInput(f"unknown factor tag {tag!r}")
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
    return Factor(phi, cert, tag, level, origin=origin, part=part, side=side)


def decomposition_payload(dec: Decomposition) -> dict:
    return {
        "input": map_payload(dec.input),
        "fixed": sorted(dec.fixed),
        "factors": [factor_payload(f) for f in dec.factors],
    }


def parse_decomposition(obj: Any) -> Decomposition:
    obj = _need_keys(obj, "decomposition", ("input", "fixed", "factors"))
    sigma = parse_map(obj["input"])
    fixed = [_need_int(d, "fixed index") for d in _need_list(obj["fixed"], "fixed")]
    if any(d < 1 for d in fixed):
        raise MalformedInput("fixed indices must be positive")
    for d in fixed:
        if d > sigma.ctx.rank:
            raise IndexOutOfRange(f"generator {d} out of range 1..{sigma.ctx.rank}")
    factors = [
        parse_factor(sigma.ctx, f) for f in _need_list(obj["factors"], "factors")
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
    "term": {"comm": "[int>=1 x>=2]  left-normed commutator letters", "exp": "int"},
    "factor": {
        "map": "<map>",
        "certificate": "<certificate>",
        "tag": "one of %s" % (list(TAGS),),
        "level": "int>=1  class at which the factor was emitted",
        "origin?": "pre-lift tag (lifted factors only)",
        "part?": "int>=1  avoided cell index (central_beta only)",
        "side?": "'F' | 'G'  (central_beta only)",
    },
    "decomposition": {
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
