#!/usr/bin/env python3
"""Profile the decomposition engine over a sweep of seeded automorphisms.

For each (rank, class, |D|) cell this decomposes a batch of seeded random
automorphisms and tabulates factor counts by tag, the smallest pointwise-fixed
block outside D over all certificates, the largest integer coefficient touched,
the serialized payload size, and wall-clock cost of decompose plus verify.
Run it from the repository root:

    PYTHONPATH=src python scripts/decomposition_stats.py --seeds 2

Handy for spotting performance or certificate-size
regressions before they trip the acceptance budgets.
"""

import argparse
import statistics
import time
from collections import Counter

from freenil import GroupContext, decompose, random_automorphism, verify_payload
from freenil.jsonio import decomposition_payload, dumps, loads

DEFAULT_CELLS = ((8, 1, 1), (8, 2, 2), (10, 2, 2), (10, 3, 1), (12, 3, 2), (12, 4, 2))


def probe_cell(n, c, d, seeds, length):
    ctx = GroupContext(n, c)
    fix = tuple(range(1, d + 1))
    counts, tags, blocks, coeffs, sizes, times = [], Counter(), [], [], [], []
    for s in range(seeds):
        sigma = random_automorphism(ctx, 9_000_000 + s, length, fix)
        t0 = time.perf_counter()
        dec = decompose(sigma, fix)
        text = dumps(decomposition_payload(dec))
        rep = verify_payload(loads(text))
        times.append(time.perf_counter() - t0)
        if not rep.ok:
            raise SystemExit(f"cell ({n},{c},{d}) seed {s}: {rep.failures}")
        counts.append(len(dec.factors))
        tags.update(f.tag for f in dec.factors)
        if rep.min_fixed_block is not None:
            blocks.append(rep.min_fixed_block)
        coeffs.append(rep.max_coefficient)
        sizes.append(len(text))
    return counts, tags, blocks, coeffs, sizes, times


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20, help="maps per cell")
    ap.add_argument("--length", type=int, default=12, help="moves per random map")
    args = ap.parse_args()

    block_head = "min |P-D|"
    print(f"{'cell':>12}  {'factors':>16}  {block_head:>9}  "
          f"{'max coeff':>9}  {'bytes/map':>9}  {'ms/map':>8}  tags")
    for n, c, d in DEFAULT_CELLS:
        counts, tags, blocks, coeffs, sizes, times = probe_cell(
            n, c, d, args.seeds, args.length
        )
        cell = f"({n},{c},{d})"
        spread = f"{min(counts)}..{max(counts)} ~{statistics.mean(counts):.1f}"
        tag_text = " ".join(f"{t}:{k}" for t, k in sorted(tags.items()))
        print(
            f"{cell:>12}  {spread:>16}  {min(blocks, default='-'):>9}  "
            f"{max(coeffs):>9}  {statistics.mean(sizes):>9.0f}  "
            f"{1000 * statistics.mean(times):>8.1f}  {tag_text}"
        )


if __name__ == "__main__":
    main()
