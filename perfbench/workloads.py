"""Workloads and the timed loop, shared by run.py and its child processes.

Each workload is one (rank, class, |D|) cell and a number of elementary moves
per seeded random automorphism.  Why each cell was chosen is written down in
perfbench/README.md.  This module imports nothing from freenil.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    rank: int
    nilclass: int
    pinned: int  # |D|: generators 1..pinned are fixed pointwise
    moves: int
    corpus: int  # maps generated per run; the timed phase cycles through them
    cli: bool  # True: every stage is a fresh `python -m freenil.cli` process

    @property
    def fixed(self) -> tuple[int, ...]:
        return tuple(range(1, self.pinned + 1))

    @property
    def fix_arg(self) -> str:
        return ",".join(str(d) for d in self.fixed)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("wide", 32, 2, 1, 8, corpus=240, cli=False),
        Workload("cli-cold", 12, 4, 2, 10, corpus=240, cli=True),
        # not in BENCHMARK.json: its per-map costs spread too widely across
        # seeds for any usable regression bound (see README.md)
        Workload("deep", 13, 5, 1, 6, corpus=72, cli=False),
    )
}

# a map still running after this many seconds counts as failed
MAP_LIMIT_S = 30.0

# decomposition payloads of this many leading corpus maps go into the digest
DIGEST_MAPS = 16


def timed_phase_s(seconds: float, trace: bool) -> float:
    """Length of the timed phase.  A traced run traces for half of --seconds,
    then replays the same maps untraced for trace.overhead_ratio, so it takes
    about as long as an untraced run."""
    return seconds / 2 if trace else seconds


def map_seed(workload: str, seed: int, index: int) -> int:
    """Seed of corpus map `index`; index -1 is the fixed warm-up map."""
    key = f"{workload}:warm-up" if index < 0 else f"{workload}:{seed}:{index}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def closed_loop(maps: int, phase_s: float, request: Callable[[int], tuple]) -> dict:
    """The timed phase: one request in flight, corpus indices 0, 1, .. cycled.

    `request(index)` returns (decompose seconds, verify seconds, payload
    bytes) or raises.  Requests start until `phase_s` has passed, and at
    least one does.  A failed request is counted with MAP_LIMIT_S as both of
    its latencies, so failures push the percentiles up instead of vanishing.
    """
    dec_s, ver_s, nbytes, failures, order, done = [], [], [], [], [], []
    digest = hashlib.sha256()
    t_start = time.perf_counter()
    deadline = t_start + phase_s
    while not order or time.perf_counter() < deadline:
        index = len(order) % maps
        order.append(index)
        try:
            d, v, payload = request(index)
        except Exception as err:  # every failure is counted, none is dropped
            failures.append(f"map {index}: {type(err).__name__}: {err}")
            dec_s.append(MAP_LIMIT_S)
            ver_s.append(MAP_LIMIT_S)
            continue
        dec_s.append(d)
        ver_s.append(v)
        nbytes.append(len(payload))
        done.append([index, d + v])
        if len(order) <= DIGEST_MAPS:
            digest.update(payload)
    return {
        "wall_s": time.perf_counter() - t_start,
        "decompose_s": dec_s,
        "verify_s": ver_s,
        "payload_bytes": nbytes,
        "attempted": len(order),
        "failures": failures,
        "distinct_maps": len(set(order)),
        "done": done,
        "payload_digest": digest.hexdigest(),
        "digest_maps": min(len(order), DIGEST_MAPS),
    }
