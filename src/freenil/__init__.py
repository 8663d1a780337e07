"""Exact computation in finitely generated free nilpotent groups.

Elements live in the quotient of the free group on x_1..x_n by the (c+1)-st
term of its lower central series, represented faithfully as truncated power
series with integer coefficients; everything downstream (weights, collection,
automorphisms, certified decompositions) is built on that representation and
is exact — no floats anywhere.
"""

from .context import GroupContext
from .decompose import abelian_decompose, central_decompose, decompose, lift_factor
from .endo import (
    GeneratorMap,
    MoietyCertificate,
    blockwise,
    check_certificate,
    compose,
    ia_central,
    identity_map,
    inversion,
    invert,
    invert_with_rounds,
    lift_words,
    ordered_product,
    permutational,
    project,
    random_automorphism,
    transvection,
)
from .errors import (
    BadClass,
    BlockConstraintViolated,
    CertificateInvalid,
    ContextMismatch,
    DoesNotFixD,
    DomainError,
    IndexOutOfRange,
    MalformedInput,
    NotAutomorphism,
    NotCentral,
    NotCentralIA,
    NotInGamma2,
    NotLieElement,
    NotUnimodular,
    PartitionInvalid,
    PermutationInvalid,
    RankTooSmall,
)
from .lie import (
    LeftNormedTerm,
    LieHomogeneous,
    central_factorize,
    central_log,
    collect_word,
    left_normed_element,
    lie_coordinates,
    lyndon_brackets,
    lyndon_words,
    word_of,
)
from .ring import (
    GroupElement,
    Word,
    comm,
    from_word,
    generator,
    identity,
    inv,
    lcs_weight,
    mul,
    occurs,
    power,
    retract,
    truncate_class,
)
from .records import Decomposition, Factor, VerifyReport
from .rng import SplitMix64
from .verifier import verify, verify_payload

__all__ = [name for name in dir() if not name.startswith("_")]
