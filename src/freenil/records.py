"""Plain records shared by the decomposition engine, the wire formats and the
verifier: the factor tags, one certified factor, a decomposition and a
verification report.  Nothing here computes anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .endo import GeneratorMap, MoietyCertificate
from .lie import LeftNormedTerm

TAGS = ("elementary_abelian", "shear", "permutation", "sign", "lifted", "central_beta")


@dataclass(frozen=True)
class Factor:
    """One certified piece of a decomposition."""

    map: GeneratorMap
    certificate: MoietyCertificate
    tag: str
    level: int  # nilpotency class at which the factor was emitted
    origin: Optional[str] = None  # pre-lift tag, for lifted factors
    part: Optional[int] = None  # which avoided cell, for central_beta
    side: Optional[str] = None  # which half of E the cells partition
    # central_beta: (g, terms) per moved generator, x_g -> x_g * prod of terms
    offsets: Optional[tuple[tuple[int, tuple[LeftNormedTerm, ...]], ...]] = None


@dataclass(frozen=True)
class Decomposition:
    input: GeneratorMap
    fixed: frozenset[int]
    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    factors: int
    min_fixed_block: Optional[int]
    max_coefficient: int
    failures: tuple[str, ...]
