"""The trusted checker for decompositions.

`verify_payload` reads a decomposition from its wire form and rechecks
everything: the product, every certificate, and D-fixing per factor.  It
rests on the ring, `intmat`, the map kernel (`kernel`) and the wire reader
(`reader`), and never on the decomposition engine whose output it checks,
on the Lyndon code in `lie`, or on the writer in `jsonio`.
`tests/test_layering.py` pins that module set.  `verify`, which takes a
decomposition in memory, writes it first and so lives with the writer.
"""

from __future__ import annotations

from .errors import DomainError
from .kernel import GeneratorMap, check_certificate, failed_claim, ordered_product
from .reader import parse_decomposition
from .records import VerifyReport


def _max_coefficient(maps: list[GeneratorMap]) -> int:
    # unstored images are generators, whose coefficients are all 1
    top = 1
    for phi in maps:
        for img in phi.stored.values():
            top = max(top, max(map(abs, img.poly.values())))
    return top


def verify_payload(payload: dict) -> VerifyReport:
    """The checker: consumes the wire format, recomputes the
    ordered product, and rechecks every certificate and D-fixing claim.
    Check failures are reported, never raised."""
    dec = parse_decomposition(payload)
    ctx = dec.input.ctx
    failures: list[str] = []
    for idx, f in enumerate(dec.factors):
        where = f"factor {idx} ({f.tag})"
        try:
            if not check_certificate(f.map, f.certificate):
                failures.append(f"{where}: {failed_claim(f.map, f.certificate)}")
        except DomainError as err:  # a refused certificate is a failed check
            failures.append(f"{where}: {err}")
        if not f.map.fixes_pointwise(dec.fixed):
            failures.append(f"{where}: moves the pinned set")
        if f.certificate.fixed <= dec.fixed:
            failures.append(f"{where}: certificate fixes no generator outside D")
    maps = [f.map for f in dec.factors]
    product = ordered_product(ctx, maps)
    if product != dec.input:
        failures.append("ordered product of factors differs from the input map")
    sizes = [len(f.certificate.fixed - dec.fixed) for f in dec.factors]
    return VerifyReport(
        ok=not failures,
        factors=len(dec.factors),
        min_fixed_block=min(sizes) if sizes else None,
        max_coefficient=_max_coefficient([dec.input, *maps, product]),
        failures=tuple(failures),
    )
