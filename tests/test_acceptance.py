"""Acceptance gate: nine go/no-go checks over the whole stack.

Each check prints exactly one ``[PASS]``/``[FAIL]`` line naming its sample
size, tolerance (always exact equality), elapsed time, and time budget.
Run ``pytest -s tests/test_acceptance.py`` (or ``scripts/run_acceptance.py``)
to see the lines; any failure also fails the suite.

Checks 7 and 8 share one corpus of seeded decompositions; it is built inside
check 7's timed region and reused read-only by check 8.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass

from freenil import (
    GeneratorMap,
    GroupContext,
    Word,
    central_decompose,
    central_factorize,
    check_certificate,
    comm,
    compose,
    decompose,
    from_word,
    generator,
    ia_central,
    identity,
    identity_map,
    inv,
    invert_with_rounds,
    lcs_weight,
    left_normed_element,
    lift_factor,
    lift_words,
    mul,
    ordered_product,
    project,
    random_automorphism,
    verify,
)

import nil2_oracle as oracle


def _report(num: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = (
        f"[{verdict}] criterion {num} ({label}): {detail}; "
        f"exact equality; {elapsed:.2f}s elapsed of {budget:.0f}s budget"
    )
    print("\n" + line)
    assert verdict == "PASS", line


def _random_pairs(rng, n, letters):
    return tuple(
        (rng.randrange(1, n + 1), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(letters)
    )


# ---------------------------------------------------------------------------
# 1. class-2 arithmetic against the independent collected-normal-form oracle

def test_criterion_1_class2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(101)
    pairs, bad = 1000, 0
    for _ in range(pairs):
        n = rng.choice((2, 3, 4))
        ctx = GroupContext(n, 2)
        wa = _random_pairs(rng, n, rng.randrange(0, 8))
        wb = _random_pairs(rng, n, rng.randrange(0, 8))
        ours = from_word(ctx, Word(wa + wb))
        theirs = oracle.mul(oracle.from_word(n, wa), oracle.from_word(n, wb))
        bad += ours.poly != oracle.to_poly(theirs)
    _report(
        1, "class-2 oracle equivalence", bad == 0,
        f"{pairs - bad}/{pairs} seeded word products match the oracle, n in {{2,3,4}}",
        time.perf_counter() - t0, 10.0,
    )


# ---------------------------------------------------------------------------
# 2. group axioms on seeded triples plus exhaustive nilpotency

def test_criterion_2_group_axioms_and_nilpotency():
    t0 = time.perf_counter()
    rng = random.Random(202)
    triples, bad = 500, 0
    for _ in range(triples):
        n, c = rng.randrange(2, 5), rng.randrange(1, 5)
        ctx = GroupContext(n, c)
        a, b, d = (
            from_word(ctx, Word(_random_pairs(rng, n, rng.randrange(0, 6))))
            for _ in range(3)
        )
        e = identity(ctx)
        ok = (
            mul(mul(a, b), d) == mul(a, mul(b, d))
            and mul(a, e) == a == mul(e, a)
            and mul(a, inv(a)) == e == mul(inv(a), a)
        )
        bad += not ok
    deep, deep_bad = 0, 0
    for n, c in itertools.product(range(1, 5), range(1, 5)):
        ctx = GroupContext(n, c)
        gens = [generator(ctx, i) for i in range(1, n + 1)]

        def sweep(acc, depth):
            nonlocal deep, deep_bad
            if depth == c + 1:
                deep += 1
                deep_bad += not acc.is_identity()
                return
            for g in gens:
                sweep(comm(acc, g), depth + 1)

        for g in gens:
            sweep(g, 1)
    _report(
        2, "group axioms and nilpotency", bad == 0 and deep_bad == 0,
        f"{triples - bad}/{triples} seeded axiom triples and "
        f"{deep - deep_bad}/{deep} exhaustive (c+1)-fold left-normed "
        f"commutators vanish, n <= 4, c <= 4",
        time.perf_counter() - t0, 30.0,
    )


# ---------------------------------------------------------------------------
# 3. the lower-central filtration law for commutators

def test_criterion_3_filtration_law():
    t0 = time.perf_counter()
    rng = random.Random(303)
    pairs, bad = 500, 0

    def deep_element(ctx):
        z = identity(ctx)
        for _ in range(rng.randrange(1, 4)):
            depth = rng.randrange(1, ctx.nilclass + 1)
            letters = tuple(
                rng.randrange(1, ctx.rank + 1) for _ in range(depth)
            )
            z = mul(z, left_normed_element(ctx, letters, rng.choice((-2, -1, 1, 2))))
        return z

    for _ in range(pairs):
        n, c = rng.randrange(2, 5), rng.randrange(2, 5)
        ctx = GroupContext(n, c)
        a, b = deep_element(ctx), deep_element(ctx)
        floor = lcs_weight(a) + lcs_weight(b)  # inf-absorbing
        bad += not lcs_weight(comm(a, b)) >= floor
    _report(
        3, "filtration law", bad == 0,
        f"{pairs - bad}/{pairs} seeded pairs satisfy "
        f"weight([a,b]) >= weight(a) + weight(b)",
        time.perf_counter() - t0, 10.0,
    )


# ---------------------------------------------------------------------------
# 4. central elements factor into left-normed commutator powers and back

def test_criterion_4_central_factorization_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(404)
    cases, bad = 300, 0
    cells = ((3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (4, 4), (5, 4))
    for k in range(cases):
        n, c = cells[k % len(cells)]
        ctx = GroupContext(n, c)
        z = identity(ctx)
        for _ in range(rng.randrange(1, 6)):
            letters = tuple(rng.randrange(1, n + 1) for _ in range(c))
            z = mul(z, left_normed_element(ctx, letters, rng.choice((-2, -1, 1, 2))))
        back = identity(ctx)
        for term in central_factorize(z):
            back = mul(back, left_normed_element(ctx, term.generators, term.exponent))
        bad += back != z
    _report(
        4, "central factorization round-trip", bad == 0,
        f"{cases - bad}/{cases} seeded central elements rebuild exactly "
        f"from their commutator terms, n <= 5, c <= 4",
        time.perf_counter() - t0, 60.0,
    )


# ---------------------------------------------------------------------------
# 5. inversion converges within `class` correction rounds

def test_criterion_5_inversion():
    t0 = time.perf_counter()
    rng = random.Random(505)
    cases, bad = 300, 0
    for _ in range(cases):
        n, c = rng.randrange(2, 7), rng.randrange(1, 4)
        ctx = GroupContext(n, c)
        phi = random_automorphism(ctx, rng.randrange(2**32), 10)
        psi, rounds = invert_with_rounds(phi)
        e = identity_map(ctx)
        ok = rounds <= c and compose(phi, psi) == e and compose(psi, phi) == e
        bad += not ok
    _report(
        5, "automorphism inversion", bad == 0,
        f"{cases - bad}/{cases} seeded automorphisms invert two-sidedly "
        f"within class-many correction rounds, n <= 6, c <= 3",
        time.perf_counter() - t0, 60.0,
    )


# ---------------------------------------------------------------------------
# 6. lifting words is a section of projection; lifted factors stay certified

def test_criterion_6_lift_projection_coherence():
    t0 = time.perf_counter()
    rng = random.Random(606)
    word_cases, bad = 0, 0
    for _ in range(140):
        n, c = rng.randrange(2, 7), rng.randrange(1, 4)
        ctx = GroupContext(n, c)
        phi = random_automorphism(ctx, rng.randrange(2**32), 8)
        lifted = lift_words(phi)
        ok = lifted.is_automorphism() and project(lifted, c) == phi
        word_cases += 1
        bad += not ok
    factor_cases = 0
    while factor_cases < 60:
        c = rng.choice((1, 2))
        ctx = GroupContext(8, c)
        fix = (1,) if rng.random() < 0.5 else ()
        sigma = random_automorphism(ctx, rng.randrange(2**32), 10, fix)
        for f in decompose(sigma, fix).factors:
            lifted = lift_factor(f, fix)
            ok = (
                lifted.map.fixes_pointwise(fix)
                and project(lifted.map, c) == f.map
                and check_certificate(lifted.map, lifted.certificate)
            )
            factor_cases += 1
            bad += not ok
    _report(
        6, "lift/projection coherence", bad == 0 and word_cases + factor_cases >= 200,
        f"{word_cases} word lifts project back exactly and {factor_cases} "
        f"lifted factors keep D fixed with valid certificates",
        time.perf_counter() - t0, 30.0,
    )


# ---------------------------------------------------------------------------
# 7 + 8. the master decomposition corpus

@dataclass
class CorpusRecord:
    ctx: GroupContext
    fix: tuple
    sigma: GeneratorMap
    dec: object


_CORPUS: list = []


def _corpus():
    """200 seeded decompositions: 25 (n, c, |D|) cells x 8 seeds, every cell
    satisfying the entry bound n - |D| >= max(4, 2(c+1))."""
    if _CORPUS:
        return _CORPUS
    for c in (1, 2, 3):
        need = max(4, 2 * (c + 1))
        for n in (8, 10, 12):
            for d in (0, 1, 2):
                if n - d < need:
                    continue
                ctx = GroupContext(n, c)
                fix = tuple(range(1, d + 1))
                for s in range(8):
                    seed = 1_000_000 * c + 10_000 * n + 1_000 * d + s
                    sigma = random_automorphism(ctx, seed, 12, fix)
                    _CORPUS.append(
                        CorpusRecord(ctx, fix, sigma, decompose(sigma, fix))
                    )
    return _CORPUS


def test_criterion_7_master_decomposition_round_trip():
    t0 = time.perf_counter()
    corpus = _corpus()
    bad = []
    for rec in corpus:
        rep = verify(rec.dec)
        ok = (
            rep.ok
            and rep.factors == len(rec.dec.factors)
            and (rep.min_fixed_block is None or rep.min_fixed_block >= 1)
            and (rep.min_fixed_block is not None or not rec.dec.factors)
        )
        if not ok:
            bad.append((rec.ctx.rank, rec.ctx.nilclass, rec.fix, rep.failures))
    _report(
        7, "master decomposition round-trip", not bad and len(corpus) >= 200,
        f"{len(corpus) - len(bad)}/{len(corpus)} seeded maps over 25 "
        f"(n, c, |D|) cells, n in {{8,10,12}}, c in {{1,2,3}}, |D| <= 2, "
        f"re-verify from the wire format with every factor fixing a "
        f"generator outside D",
        time.perf_counter() - t0, 300.0,
    )
    assert not bad, bad[:3]


def test_criterion_8_central_stage_factors_commute():
    corpus = _corpus()  # built (and timed) under criterion 7
    t0 = time.perf_counter()
    rng = random.Random(808)
    cases, bad = 0, 0

    def permuted_product_matches(maps, tail_idx):
        order = tail_idx[:]
        while order == tail_idx:
            rng.shuffle(order)
        shuffled = maps[:]
        for pos, src in zip(tail_idx, order):
            shuffled[pos] = maps[src]
        ctx = maps[0].ctx
        return ordered_product(ctx, shuffled) == ordered_product(ctx, maps)

    for rec in corpus:
        tail = [
            k
            for k, f in enumerate(rec.dec.factors)
            if f.tag == "central_beta"
        ]
        if len(tail) < 2:
            continue
        cases += 1
        bad += not permuted_product_matches([f.map for f in rec.dec.factors], tail)

    extra = 0
    while cases + extra < 100:  # top up with standalone central stages
        ctx = GroupContext(10, 2)
        offsets = {
            i: left_normed_element(
                ctx,
                tuple(rng.randrange(1, 11) for _ in range(2)),
                rng.choice((-2, -1, 1, 2)),
            )
            for i in range(3, 11)
            if rng.random() < 0.7
        }
        alpha = ia_central(ctx, offsets)
        factors = central_decompose(alpha, (1, 2))
        if len(factors) < 2:
            continue
        extra += 1
        bad += not permuted_product_matches(
            [f.map for f in factors], list(range(len(factors)))
        )

    _report(
        8, "central-stage factors commute", bad == 0 and cases + extra >= 100,
        f"{cases + extra - bad}/{cases + extra} shuffled central stages "
        f"({cases} from the decomposition corpus, {extra} standalone) "
        f"reproduce the unshuffled product",
        time.perf_counter() - t0, 60.0,
    )


# ---------------------------------------------------------------------------
# 9. the CLI pipeline is correct and byte-reproducible

def test_criterion_9_cli_golden_pipeline():
    t0 = time.perf_counter()
    cli = (sys.executable, "-m", "freenil.cli")
    stages = (
        ("random-aut", "--rank", "10", "--class", "2",
         "--seed", "424242", "--length", "12", "--fix", "1,2"),
        ("decompose", "--fix", "1,2"),
        ("verify",),
    )

    def run_pipeline():
        blob, outputs = b"", []
        for stage in stages:
            proc = subprocess.run(
                [*cli, *stage], input=blob, capture_output=True
            )
            assert proc.returncode == 0, proc.stderr.decode()
            blob = proc.stdout
            outputs.append(blob)
        return outputs

    first, second = run_pipeline(), run_pipeline()
    report = json.loads(first[-1].decode())
    ok = first == second and report["ok"] is True and report["failures"] == []
    _report(
        9, "CLI golden pipeline", ok,
        "random-aut | decompose | verify returns ok=true and all three "
        "stage outputs are byte-identical across two fresh process runs",
        time.perf_counter() - t0, 60.0,
    )
