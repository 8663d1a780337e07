"""Plain records shared by the decomposition engine, the wire formats and the
verifier: the factor tags, one certified factor, a decomposition and a
verification report.  Nothing here computes anything.  Each record is a
slotted `context.Record`, immutable and compared by its fields, with no
`dataclasses` import, so loading it costs a process almost nothing.  The
names imported below come from the map kernel and the ring, so the records
stay inside the verifier's trusted core.
"""

from __future__ import annotations

from typing import Optional

from .context import Record
from .kernel import GeneratorMap, MoietyCertificate
from .ring import LeftNormedTerm

TAGS = ("elementary_abelian", "shear", "permutation", "sign", "lifted", "central_beta")

Offsets = tuple[tuple[int, tuple[LeftNormedTerm, ...]], ...]


class Factor(Record):
    """One certified piece of a decomposition."""

    __slots__ = ("map", "certificate", "tag", "origin", "part", "side", "offsets")
    map: GeneratorMap
    certificate: MoietyCertificate
    tag: str
    origin: Optional[str]  # pre-lift tag, for lifted factors
    part: Optional[int]  # which avoided cell, for central_beta
    side: Optional[str]  # which half of E the cells partition
    # (g, terms) per moved generator, x_g -> ring.offset_image(ctx, g, terms):
    # on a central_beta factor, terms of weight class; on a lifted factor that
    # decompose splits off at a level k below the class, terms of weight k;
    # on a lift_factor lift of either, the same terms, one class up
    offsets: Optional[Offsets]

    def __init__(
        self,
        map: GeneratorMap,
        certificate: MoietyCertificate,
        tag: str,
        origin: Optional[str] = None,
        part: Optional[int] = None,
        side: Optional[str] = None,
        offsets: Optional[Offsets] = None,
    ):
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "part", part)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "offsets", offsets)


class Decomposition(Record):
    __slots__ = ("input", "fixed", "factors")
    input: GeneratorMap
    fixed: frozenset[int]
    factors: tuple[Factor, ...]

    def __init__(self, input: GeneratorMap, fixed: frozenset[int], factors: tuple[Factor, ...]):
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "factors", factors)


class VerifyReport(Record):
    __slots__ = ("ok", "factors", "min_fixed_block", "max_coefficient", "failures")
    ok: bool
    factors: int
    min_fixed_block: Optional[int]
    max_coefficient: int
    failures: tuple[str, ...]

    def __init__(
        self,
        ok: bool,
        factors: int,
        min_fixed_block: Optional[int],
        max_coefficient: int,
        failures: tuple[str, ...],
    ):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "min_fixed_block", min_fixed_block)
        object.__setattr__(self, "max_coefficient", max_coefficient)
        object.__setattr__(self, "failures", failures)
