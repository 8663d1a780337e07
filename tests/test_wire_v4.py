"""Version 4 decomposition payloads: nothing the reader can derive.

A version 4 certificate holds its "fixed" block alone, as strictly
increasing positive generator indices; its preserved block is the rest of
1..rank, the only partner check_certificate accepts.  A factor carries no
"level": every factor `decompose` emits is at the decomposition's class, and
the reader sets it so.  The decomposition's own "fixed" list, the pinned
set D, strictly increases as well.  These tests pin that a version 4 payload
verifies exactly as its version 3 form (`as_v3`) does, that the keys version
4 leaves out are refused in it, that a fixed block that is not a proper
subset of 1..rank is a failed factor as in version 3, and that the writer
refuses a decomposition in memory that version 4 cannot carry.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from freenil import (
    BadClass,
    Decomposition,
    Factor,
    GroupContext,
    MalformedInput,
    MoietyCertificate,
    PartitionInvalid,
    decompose,
    random_automorphism,
    transvection,
    verify,
    verify_payload,
)
from freenil.jsonio import decomposition_payload, dumps, loads, report_payload
from freenil.reader import parse_decomposition

from test_wire_fixtures import as_v3, as_v4, fixture_path

_PARTITION = (
    "certificate needs fixed and preserved to partition 1..rank "
    "with preserved nonempty"
)


@pytest.fixture(scope="module")
def v4_text():
    return fixture_path("v4", (12, 3, 2)).read_text(encoding="utf-8")


def _lifted(payload) -> dict:
    return next(f for f in payload["factors"] if f["tag"] == "lifted")


def _report(payload) -> str:
    return dumps(report_payload(verify_payload(payload)))


# ---------------------------------------------------------------------------
# a version 4 payload verifies as its version 3 form does

def test_v4_payload_reads_the_derived_keys(v4_text):
    dec = parse_decomposition(loads(v4_text))
    assert all(f.level == 3 for f in dec.factors)
    everything = frozenset(range(1, 13))
    for f in dec.factors:
        assert f.certificate.preserved == everything - f.certificate.fixed
    assert dec == parse_decomposition(as_v3(loads(v4_text)))


ROUND_TRIP_BUDGET_S = 3.0


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_v4_and_its_v3_form_verify_to_the_same_report(c):
    # seeded maps at the least rank the class allows (plus a spare), each
    # decomposition checked as is and with one factor's fixed block grown by
    # a generator it moves; capped in time, so once the budget is spent the
    # remaining examples do no work
    start = time.perf_counter()
    checked, refused = [], []

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dsize=st.integers(0, 2),
        spare=st.integers(0, 1),
        moves=st.integers(1, 4),
    )
    def same_report(seed, dsize, spare, moves):
        if time.perf_counter() - start > ROUND_TRIP_BUDGET_S:
            return
        ctx = GroupContext(2 * (c + 1) + dsize + spare, c)
        fix = tuple(range(1, dsize + 1))
        sigma = random_automorphism(ctx, seed, moves, fix)
        payload = as_v4(decomposition_payload(decompose(sigma, fix)))
        assert payload["version"] == 4
        report = _report(payload)
        assert loads(report)["ok"]
        assert _report(as_v3(payload)) == report
        sparse = [f for f in payload["factors"] if f.get("stored")]
        if sparse:
            factor = random.Random(seed).choice(sparse)
            cert = factor["certificate"]
            cert["fixed"] = sorted(set(cert["fixed"]) | {factor["stored"][0][0]})
            report = _report(payload)
            assert _report(as_v3(payload)) == report
            if not loads(report)["ok"]:  # unless the image stored is x_g
                refused.append(seed)
        checked.append(seed)

    same_report()
    assert checked and refused


# ---------------------------------------------------------------------------
# refusals

@pytest.mark.parametrize(
    "where, key, value",
    [
        ("certificate", "preserved", [1, 2]),
        ("factor", "level", 3),
    ],
)
def test_refuses_a_key_version_4_leaves_out(v4_text, where, key, value):
    payload = loads(v4_text)
    factor = _lifted(payload)
    target = factor["certificate"] if where == "certificate" else factor
    target[key] = value
    with pytest.raises(MalformedInput, match=f"{where} has unknown keys \\['{key}'\\]"):
        verify_payload(payload)


def test_refuses_a_fixed_block_out_of_order(v4_text):
    payload = loads(v4_text)
    cert = _lifted(payload)["certificate"]
    fixed = cert["fixed"]
    assert len(fixed) >= 2
    for bad in (fixed[::-1], fixed + [fixed[-1]], [fixed[0]] + fixed):
        cert["fixed"] = bad
        with pytest.raises(MalformedInput, match="fixed indices must strictly increase"):
            verify_payload(payload)


@pytest.mark.parametrize("pinned", [[2, 1], [1, 1], [2, 1, 1]])
def test_refuses_a_pinned_set_out_of_order(v4_text, pinned):
    # the decomposition's own "fixed" list, D, follows the certificates' rule
    # in version 4; its version 3 form reads the same list, in any order
    payload = loads(v4_text)
    assert payload["fixed"] == [1, 2]
    payload["fixed"] = pinned
    with pytest.raises(MalformedInput, match="fixed indices must strictly increase"):
        verify_payload(payload)
    assert verify_payload(as_v3(payload)).ok


@pytest.mark.parametrize(
    "index, message",
    [
        (0, "fixed indices must be positive"),
        (True, "fixed index must be an integer"),
        (2.0, "fixed index must be an integer"),
        ("2", "fixed index must be an integer"),
    ],
)
def test_refuses_a_fixed_index_that_is_not_a_positive_int(v4_text, index, message):
    payload = loads(v4_text)
    _lifted(payload)["certificate"]["fixed"].insert(0, index)
    with pytest.raises(MalformedInput, match=message):
        verify_payload(payload)


def test_refuses_a_map_in_version_4(v4_text):
    payload = loads(v4_text)
    factor = _lifted(payload)
    del factor["stored"]
    factor["map"] = payload["input"]
    with pytest.raises(MalformedInput, match="version 4 factors carry stored, not map"):
        verify_payload(payload)


@pytest.mark.parametrize(
    "edit", ["above-the-rank", "every-generator"], ids=["above", "everything"]
)
def test_a_fixed_block_that_is_no_proper_subset_is_a_failed_factor(v4_text, edit):
    # as in version 3, where such a certificate is no partition: the check,
    # not the reader, refuses it, and the report says which factor failed
    payload = loads(v4_text)
    index, factor = next(
        (i, f) for i, f in enumerate(payload["factors"]) if f["tag"] == "lifted"
    )
    cert = factor["certificate"]
    cert["fixed"] = cert["fixed"] + [13] if edit == "above-the-rank" else list(range(1, 13))
    report = verify_payload(payload)
    assert not report.ok
    assert f"factor {index} (lifted): {_PARTITION}" in report.failures
    assert _report(as_v3(payload)) == _report(payload)


# ---------------------------------------------------------------------------
# the writer writes only what reads back as the same decomposition

def _decomposition(cert, level):
    ctx = GroupContext(8, 2)
    phi = transvection(ctx, 2, 3, 1)
    return Decomposition(phi, frozenset(), (Factor(phi, cert, "shear", level),))


@pytest.mark.parametrize(
    "fixed, preserved",
    [
        ({5, 6, 7, 8}, {1, 2, 3}),  # misses 4
        ({5, 6, 7, 8}, {1, 2, 3, 4, 5}),  # overlaps
        (set(range(1, 9)), set()),  # preserves nothing
    ],
    ids=["short", "overlap", "empty"],
)
def test_writer_refuses_a_preserved_block_it_cannot_derive(fixed, preserved):
    dec = _decomposition(MoietyCertificate(fixed, preserved), 2)
    for write in (decomposition_payload, verify):
        with pytest.raises(PartitionInvalid, match=_PARTITION):
            write(dec)


@pytest.mark.parametrize("level", [1, 3])
def test_writer_refuses_a_level_other_than_the_class(level):
    dec = _decomposition(MoietyCertificate({4, 5, 6, 7, 8}, {1, 2, 3}), level)
    for write in (decomposition_payload, verify):
        with pytest.raises(BadClass, match=f"factor level {level} is not"):
            write(dec)
    assert verify(_decomposition(MoietyCertificate({4, 5, 6, 7, 8}, {1, 2, 3}), 2)).ok
