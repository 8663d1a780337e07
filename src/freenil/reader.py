"""Reading the JSON wire formats into checked records.

The formats are listed in `jsonio`, which writes them, and `freenil
--schema` prints them.  This module parses them: the verifier needs it and
the map kernel, never the writer or the engine.

Decompositions of versions 1 to 6 are read.  Version 1 has no "version"
key and a dense "map" in every factor; version 2 allows "offsets" in
central_beta factors and a "map" in every other one; version 3 has a
"stored" list of the images a factor's map stores, or "offsets".  A factor
map from version 3 on, or a "stored" list before it, is refused.  Version
4 drops what a reader can derive: a certificate holds its "fixed" block
alone, in strictly increasing order, and its preserved block is the rest of
1..rank; a factor has no "level": its class is its map's, the
decomposition's.  Either key in a version 4 payload is unknown.  The
decomposition's own "fixed" list, the pinned set D, strictly increases from
version 4 on too; earlier versions read both lists in any order.  Version 5
is version 4 with images in collected form (below).  Version 6 writes each
offsets term as a pair [[b1, .., bk], e] in place of the {"comm", "exp"}
object (each form is refused in the other's versions), and lets a lifted
factor of central_beta origin carry offsets, terms of weight 2..class.

Both offsets forms are rebuilt by `ring.offset_image`, the function the
engine builds them with: x_g times its terms, a weight-c term in closed
form.  Every term has weight at least 2, so the map has the identity
abelianization: a parsed factor is a genuine automorphism whatever its
terms say, built by ring code alone.

An image, in a map or a "stored" list, is a word or, from version 5 on
and in any map read alone, in collected form: a list with a bracket entry
[[w1..wk], e], which must be canonical (`parse_collected`), so every
element has one encoding.  `ring.from_collected` rebuilds it, and the
element keeps its coordinates.  Before version 5 such a list is refused
as a word, as it always was.

A valid one-letter image [[g, e]] is not parsed: it becomes
`ring.letter`'s shared element, equal in polynomial and word to the parsed
one.  Every other word is parsed, so each refusal is unchanged.

The provenance keys are read as the schema documents them: "origin" only on
lifted factors, "part" and "side" only on central_beta factors and on lifted
factors of central_beta origin, and "level" (before version 4) at most the
decomposition's class, then dropped.  A key that is present is checked,
even when its value is null.

Structural violations raise MalformedInput; out-of-range generator indices
and mismatched contexts surface as their own domain errors so callers can
tell "not even the right shape" from "well-formed but invalid here".
"""

from __future__ import annotations

from typing import Any

from .context import GroupContext
from .errors import ContextMismatch, IndexOutOfRange, MalformedInput, NotCentral
from .kernel import GeneratorMap, MoietyCertificate
from .records import TAGS, Decomposition, Factor
from .ring import (
    Collected,
    GroupElement,
    LeftNormedTerm,
    Word,
    from_collected,
    from_word,
    is_lyndon,
    letter,
    offset_image,
)


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

def parse_word(obj: Any) -> Word:
    pairs = []
    for item in _need_list(obj, "word"):
        item = _need_list(item, "word letter")
        if len(item) != 2:
            raise MalformedInput("word letters must be [generator, exponent] pairs")
        g, e = item
        # _need_int only raises (or passes an int subclass): a plain int is
        # the common case and needs no call
        if type(g) is not int:
            g = _need_int(g, "generator index")
        if type(e) is not int:
            e = _need_int(e, "exponent")
        if g < 1:
            raise MalformedInput(f"generator index {g} must be positive")
        if e == 0:
            raise MalformedInput("exponent must be nonzero")
        pairs.append((g, e))
    return Word(tuple(pairs))


def parse_collected(ctx: GroupContext, obj: Any) -> Collected:
    """Collected coordinates, refused unless canonical: letters [g, e] with
    g increasing, then brackets [[w1..wk], e], w a Lyndon word and
    2 <= k <= class, increasing by (k, w).  Exponents are nonzero."""
    coords, last = [], (0, ())
    for item in _need_list(obj, "image"):
        item = _need_list(item, "collected entry")
        if len(item) != 2:
            raise MalformedInput(
                "collected entries must be [letter or bracket, exponent] pairs"
            )
        head, e = item
        e = _need_int(e, "exponent")
        if e == 0:
            raise MalformedInput("exponent must be nonzero")
        if type(head) is list:
            w = tuple(_need_int(g, "bracket letter") for g in head)
            if not 2 <= len(w) <= ctx.nilclass:
                raise MalformedInput(
                    f"bracket {head} needs 2 to {ctx.nilclass} letters, the class"
                )
        else:
            w = (_need_int(head, "generator index"),)
        if min(w) < 1:
            raise MalformedInput(f"generator index {min(w)} must be positive")
        ctx.check_generators(w)
        if (len(w), w) <= last:
            raise MalformedInput(
                "collected entries must strictly increase: letters by generator, "
                "then brackets by length and word"
            )
        last = (len(w), w)
        if not is_lyndon(w):
            raise MalformedInput(f"bracket {head} is not a Lyndon word")
        coords.append((w if len(w) > 1 else w[0], e))
    return tuple(coords)


def _image(ctx: GroupContext, w: Any, collected: bool) -> GroupElement:
    """The element the JSON image w stands for in ctx.  A list with a
    bracket entry is in collected form when `collected` is true, and
    refused as a word when it is false (payloads before version 5).  A
    valid one-letter word [[g, e]] becomes the shared ring.letter, with no
    parsing; every other word, and so every refusal, takes
    from_word(ctx, parse_word(w))."""
    if type(w) is list:
        if len(w) == 1:
            item = w[0]
            if type(item) is list and len(item) == 2:
                g, e = item
                if type(g) is int and type(e) is int and e and 1 <= g <= ctx.rank:
                    return letter(ctx, g, e)
        if collected and any(
            type(item) is list and item and type(item[0]) is list for item in w
        ):
            return from_collected(ctx, parse_collected(ctx, w))
    return from_word(ctx, parse_word(w))


def parse_element(ctx: GroupContext, obj: Any) -> GroupElement:
    obj = _need_keys(obj, "element", ("word",))
    return from_word(ctx, parse_word(obj["word"]))


# ---------------------------------------------------------------------------
# maps

def parse_map(obj: Any) -> GeneratorMap:
    return _parse_map(obj, True)


def _parse_map(obj: Any, collected: bool) -> GeneratorMap:
    # `collected` as for _image
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
        stored[i] = _image(ctx, w, collected)
    return GeneratorMap._sparse(ctx, stored)


def parse_stored(ctx: GroupContext, obj: Any, collected: bool = False) -> GeneratorMap:
    """The map x_g -> IMAGE for each listed g, fixing every other generator:
    the map parse_map builds from the dense images it stands for.  Images
    are read in collected form only when `collected` is true (see _image)."""
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
        stored[g] = _image(ctx, item[1], collected)
    return GeneratorMap._sparse(ctx, stored)


# ---------------------------------------------------------------------------
# certificates, terms

def _indices(obj: Any, key: str) -> list[int]:
    # every entry an integer, then every one positive, in that order
    idx = _need_list(obj, key)
    for i in idx:
        if type(i) is not int:
            _need_int(i, f"{key} index")
    if any(i < 1 for i in idx):
        raise MalformedInput(f"{key} indices must be positive")
    return idx


def _fixed_indices(obj: Any, version: int) -> list[int]:
    # a certificate's or a decomposition's "fixed" list
    fixed = _indices(obj, "fixed")
    if version >= 4:
        last = 0
        for i in fixed:
            if i <= last:
                raise MalformedInput("fixed indices must strictly increase")
            last = i
    return fixed


def parse_certificate(ctx: GroupContext, obj: Any, version: int) -> MoietyCertificate:
    """Both blocks as written before version 4; from version 4 on, the fixed
    block alone, and the preserved block is the rest of 1..rank.  Whether
    the blocks partition 1..rank is check_certificate's question."""
    if version < 4:
        obj = _need_keys(obj, "certificate", ("fixed", "preserved"))
        return MoietyCertificate(
            _fixed_indices(obj["fixed"], version), _indices(obj["preserved"], "preserved")
        )
    obj = _need_keys(obj, "certificate", ("fixed",))
    fixed = frozenset(_fixed_indices(obj["fixed"], version))
    return MoietyCertificate(fixed, ctx.generator_set() - fixed)


def parse_term(obj: Any, version: int = 5) -> LeftNormedTerm:
    """A <term> object {"comm", "exp"}, or from version 6 on (inside
    offsets) the pair [[b1, .., bk], exp] that stands for it."""
    if version < 6:
        obj = _need_keys(obj, "term", ("comm", "exp"))
        comm, exp = obj["comm"], obj["exp"]
    elif type(obj) is list and len(obj) == 2 and type(obj[0]) is list:
        comm, exp = obj
    else:
        raise MalformedInput("terms must be [[b1, .., bk], exp] pairs")
    gens = [_need_int(g, "commutator entry") for g in _need_list(comm, "comm")]
    if len(gens) < 2 or any(g < 1 for g in gens):
        raise MalformedInput("comm must list at least two positive generator indices")
    exp = _need_int(exp, "exp")
    if exp == 0:
        raise MalformedInput("exp must be nonzero")
    return LeftNormedTerm(tuple(gens), exp)


def parse_offsets(
    ctx: GroupContext, obj: Any, version: int = 5, lifted: bool = False
) -> tuple[GeneratorMap, tuple]:
    """The IA map x_g -> x_g * prod of terms (`ring.offset_image`), and the
    offsets read.  A central_beta factor's terms have weight exactly the
    class; a lifted factor's (`lifted`, version 6 on) have weight 2..class.
    Every term has weight at least 2, so either map has the identity
    abelianization and is an automorphism."""
    c = ctx.nilclass
    parsed = {}
    for item in _need_list(obj, "offsets"):
        item = _need_list(item, "offset")
        if len(item) != 2:
            raise MalformedInput("offsets must be [generator, [term, ...]] pairs")
        g = _need_int(item[0], "offset generator")
        if g in parsed:
            raise MalformedInput(f"offsets name generator {g} twice")
        terms = tuple(
            parse_term(t, version) for t in _need_list(item[1], "offset terms")
        )
        if lifted:
            ctx.check_generators((g,))
        for seq in (t.generators for t in terms):
            if lifted:
                if len(seq) > c:
                    raise MalformedInput(
                        f"term {list(seq)} has weight {len(seq)}, above the class {c}"
                    )
                ctx.check_generators(seq)
            elif len(seq) != c:
                raise NotCentral(
                    f"term {list(seq)} has weight {len(seq)}; "
                    f"central terms need weight {c} >= 2"
                )
            elif not all(1 <= b <= ctx.rank for b in seq):
                raise IndexOutOfRange(f"term {list(seq)} leaves generators 1..{ctx.rank}")
        parsed[g] = terms
    # a central_beta factor's generators are checked after all its terms
    ctx.check_generators(parsed)
    images = {g: offset_image(ctx, g, terms) for g, terms in parsed.items()}
    return GeneratorMap._sparse(ctx, images, unimodular=True), tuple(parsed.items())


# ---------------------------------------------------------------------------
# factors and decompositions

def _check_factor_context(ctx: GroupContext, phi: GeneratorMap) -> None:
    # a factor's class is its map's; the writer refuses the same maps
    if phi.ctx != ctx:
        raise ContextMismatch(
            f"factor map lives in {phi.ctx.rank}/{phi.ctx.nilclass}, "
            f"decomposition in {ctx.rank}/{ctx.nilclass}"
        )


def parse_factor(ctx: GroupContext, obj: Any, version: int) -> Factor:
    obj = _need_keys(
        obj,
        "factor",
        ("certificate", "tag", "level") if version < 4 else ("certificate", "tag"),
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
            raise MalformedInput(f"version {version} factors carry stored, not map")
        phi = _parse_map(obj["map"], False)
        _check_factor_context(ctx, phi)
    elif "stored" in obj:
        if version < 3:
            raise MalformedInput("stored needs a version 3 decomposition")
        phi = parse_stored(ctx, obj["stored"], version >= 5)
    elif version < 2:
        raise MalformedInput("offsets need a version 2 decomposition")
    elif tag == "central_beta":
        phi, offsets = parse_offsets(ctx, obj["offsets"], version)
    elif version < 6:
        raise MalformedInput(f"only central_beta factors carry offsets, not {tag!r}")
    elif tag != "lifted":
        raise MalformedInput(
            f"only central_beta factors and their lifts carry offsets, not {tag!r}"
        )
    elif obj.get("origin") != "central_beta":
        raise MalformedInput(
            "a lifted factor carries offsets only of origin central_beta, not "
            f"{obj.get('origin')!r}"
        )
    else:
        phi, offsets = parse_offsets(ctx, obj["offsets"], version, lifted=True)
    # a rule applies when its key is present: null is not read as absent
    origin = obj.get("origin")
    if "origin" in obj and origin not in TAGS:
        raise MalformedInput(f"unknown origin tag {origin!r}")
    side = obj.get("side")
    if "side" in obj and side not in ("F", "G"):
        raise MalformedInput("side must be 'F' or 'G'")
    cert = parse_certificate(ctx, obj["certificate"], version)
    # a factor's class is its map's: a version 3 level is checked, then dropped
    level = _need_int(obj["level"], "level") if version < 4 else ctx.nilclass
    part = _need_int(obj["part"], "part") if "part" in obj else None
    if level < 1 or (part is not None and part < 1):
        raise MalformedInput("level and part must be at least 1")
    if level > ctx.nilclass:
        raise MalformedInput(
            f"level {level} exceeds the decomposition's class {ctx.nilclass}"
        )
    if origin is not None and tag != "lifted":
        raise MalformedInput(f"only lifted factors carry origin, not {tag!r}")
    if (part is not None or side is not None) and "central_beta" not in (tag, origin):
        raise MalformedInput(
            "only central_beta factors and their lifts carry part and side"
        )
    return Factor(phi, cert, tag, origin=origin, part=part, side=side, offsets=offsets)


VERSIONS = (1, 2, 3, 4, 5, 6)  # decomposition versions parse_decomposition reads


def parse_decomposition(obj: Any) -> Decomposition:
    obj = _need_keys(
        obj, "decomposition", ("input", "fixed", "factors"), optional=("version",)
    )
    # a payload without the key is version 1, which predates it
    version = obj.get("version", 1)
    if type(version) is not int or version not in VERSIONS:
        raise MalformedInput(f"unknown decomposition version {version!r}")
    sigma = _parse_map(obj["input"], version >= 5)
    fixed = _fixed_indices(obj["fixed"], version)
    sigma.ctx.check_generators(fixed)
    factors = [
        parse_factor(sigma.ctx, f, version)
        for f in _need_list(obj["factors"], "factors")
    ]
    return Decomposition(sigma, frozenset(fixed), tuple(factors))
