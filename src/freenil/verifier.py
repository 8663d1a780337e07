"""The trusted checker for decompositions.

`verify` re-reads a decomposition from its serialized form only and rechecks
everything: the product, every certificate, and D-fixing per factor.  It
rests on the ring, the map layer (`endo`, which brings `intmat`) and the
wire parser, and never on the decomposition engine whose output it checks.
"""

from __future__ import annotations

from .endo import check_certificate, ordered_product
from .errors import DomainError
from .jsonio import decomposition_payload, parse_decomposition
from .records import Decomposition, VerifyReport


def verify(dec: Decomposition) -> VerifyReport:
    """Re-check a decomposition from its serialized form alone."""
    return verify_payload(decomposition_payload(dec))


def verify_payload(payload: dict) -> VerifyReport:
    """The checker behind `verify`: consumes the wire format, recomputes the
    ordered product, and rechecks every certificate and D-fixing claim.
    Check failures are reported, never raised."""
    dec = parse_decomposition(payload)
    ctx = dec.input.ctx
    failures: list[str] = []
    # unstored images are generators, whose coefficients are all 1
    coeffs = [1]
    for img in dec.input.stored.values():
        coeffs.extend(abs(v) for v in img.poly.values())
    for idx, f in enumerate(dec.factors):
        for img in f.map.stored.values():
            coeffs.extend(abs(v) for v in img.poly.values())
        where = f"factor {idx} ({f.tag})"
        try:
            if not check_certificate(f.map, f.certificate):
                failures.append(f"{where}: certificate does not hold")
        except DomainError as err:  # a refused certificate is a failed check
            failures.append(f"{where}: {err}")
        if not f.map.fixes_pointwise(dec.fixed):
            failures.append(f"{where}: moves the pinned set")
        if f.certificate.fixed <= dec.fixed:
            failures.append(f"{where}: certificate fixes no generator outside D")
    product = ordered_product(ctx, [f.map for f in dec.factors])
    for img in product.stored.values():
        coeffs.extend(abs(v) for v in img.poly.values())
    if product != dec.input:
        failures.append("ordered product of factors differs from the input map")
    sizes = [len(f.certificate.fixed - dec.fixed) for f in dec.factors]
    return VerifyReport(
        ok=not failures,
        factors=len(dec.factors),
        min_fixed_block=min(sizes) if sizes else None,
        max_coefficient=max(coeffs),
        failures=tuple(failures),
    )
