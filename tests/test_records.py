"""Value semantics of the package's nine immutable records.

`GroupContext`, `RowMove`, `MoietyCertificate`, `LieHomogeneous`, `Word`,
`LeftNormedTerm`, `Factor`, `Decomposition` and `VerifyReport` are values:
equal exactly when they are of the same class with equal fields, hashed by
their fields, immutable, built by position or by keyword with the documented
defaults and validation, printed as `Name(field=value, ...)`, and rebuilt
unchanged by `copy.deepcopy` and `pickle`.
"""

import copy
import pickle

import pytest

from freenil import (
    Decomposition,
    Factor,
    GroupContext,
    IndexOutOfRange,
    LeftNormedTerm,
    LieHomogeneous,
    MalformedInput,
    MoietyCertificate,
    VerifyReport,
    Word,
    decompose,
    random_automorphism,
)
from freenil.intmat import RowMove


def _decomposition() -> Decomposition:
    # class 2, so the last factor is central_beta and carries offsets
    ctx = GroupContext(8, 2)
    return decompose(random_automorphism(ctx, 3, 6, fix=(1,)), {1})


DEC = _decomposition()
BETA = DEC.factors[-1]
assert BETA.offsets, "the sample decomposition needs a factor with offsets"


# per record: one value, an equal one built apart, an unequal one
RECORDS = {
    "GroupContext": (GroupContext(3, 2), GroupContext(3, 2), GroupContext(3, 3)),
    "RowMove": (RowMove("add", 1, 2, 5), RowMove("add", 1, 2, 5), RowMove("add", 1, 2, -5)),
    "MoietyCertificate": (
        MoietyCertificate({1}, [2, 3]),
        MoietyCertificate((1,), {3, 2}),
        MoietyCertificate({1, 2}, {3}),
    ),
    "LieHomogeneous": (
        LieHomogeneous(2, {(1, 2): 1, (2, 1): -1}),
        LieHomogeneous(2, {(2, 1): -1, (1, 2): 1, (1, 1): 0}),
        LieHomogeneous(2, {(1, 2): 1}),
    ),
    "Word": (
        Word([(1, 2), (2, -1)]),
        Word([(1, 1), (1, 1), (3, 1), (3, -1), (2, -1)]),
        Word([(1, 2)]),
    ),
    "LeftNormedTerm": (
        LeftNormedTerm((1, 2), 3),
        LeftNormedTerm((1, 2), 3),
        LeftNormedTerm((2, 1), 3),
    ),
    "Factor": (BETA, _decomposition().factors[-1], DEC.factors[0]),
    "Decomposition": (
        DEC,
        _decomposition(),
        Decomposition(DEC.input, DEC.fixed, DEC.factors[1:]),
    ),
    "VerifyReport": (
        VerifyReport(True, 2, 5, 4, ()),
        VerifyReport(True, 2, 5, 4, ()),
        VerifyReport(False, 2, 5, 4, ("factor 0 (shear): x",)),
    ),
}
NAMES = sorted(RECORDS)
# the first field of each record
FIRST = {
    "GroupContext": "rank",
    "RowMove": "kind",
    "MoietyCertificate": "fixed",
    "LieHomogeneous": "degree",
    "Word": "letters",
    "LeftNormedTerm": "generators",
    "Factor": "map",
    "Decomposition": "input",
    "VerifyReport": "ok",
}


# ---------------------------------------------------------------------------
# equality and hashing

@pytest.mark.parametrize("name", NAMES)
def test_equal_only_to_equal_fields(name):
    a, same, other = RECORDS[name]
    assert a is not same
    assert a == same and not a != same
    assert a != other and not a == other


@pytest.mark.parametrize(
    "record, fields",
    [
        (GroupContext(3, 2), (3, 2)),
        (RowMove("swap", 0, 1), ("swap", 0, 1, 0)),
        (Word([(1, 1)]), ((1, 1),)),
        (LeftNormedTerm((1, 2), 3), ((1, 2), 3)),
        (MoietyCertificate({1}, {2}), (frozenset({1}), frozenset({2}))),
        (VerifyReport(True, 0, None, 0, ()), (True, 0, None, 0, ())),
    ],
    ids=lambda x: type(x).__name__,
)
def test_a_record_is_not_its_field_tuple(record, fields):
    assert record != fields and fields != record
    assert record != list(fields)


def test_records_of_different_classes_with_equal_fields_differ():
    assert GroupContext(3, 2) != LeftNormedTerm(3, 2)
    assert LeftNormedTerm(3, 2) != GroupContext(3, 2)


@pytest.mark.parametrize(
    "name",
    ["GroupContext", "RowMove", "MoietyCertificate", "Word", "LeftNormedTerm", "VerifyReport"],
)
def test_equal_records_hash_equal(name):
    a, same, _ = RECORDS[name]
    assert hash(a) == hash(same)
    assert len({a, same}) == 1


def test_a_record_holding_a_dict_or_a_map_is_unhashable():
    # field-tuple hashing: a LieHomogeneous holds a dict, a Factor a map
    for record in (RECORDS["LieHomogeneous"][0], BETA, DEC):
        with pytest.raises(TypeError):
            hash(record)


def test_group_context_compares_field_by_field():
    assert GroupContext(3, 2) == GroupContext(rank=3, nilclass=2)
    assert GroupContext(3, 2) != GroupContext(2, 3)
    assert GroupContext(3, 2) != GroupContext(3, 3)
    assert hash(GroupContext(12, 4)) == hash(GroupContext(12, 4))


# ---------------------------------------------------------------------------
# immutability

@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    record, field = RECORDS[name][0], FIRST[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert getattr(record, field) is before


# ---------------------------------------------------------------------------
# construction

def test_construction_by_keyword_and_defaults():
    assert GroupContext(rank=12, nilclass=4) == GroupContext(12, 4)
    move = RowMove(kind="negate", i=3)
    assert (move.j, move.k) == (0, 0)
    assert move == RowMove("negate", 3, 0, 0)
    assert RowMove("add", 1, 2, 5).inverse() == RowMove(kind="add", i=1, j=2, k=-5)
    assert MoietyCertificate(fixed=[1], preserved=[2]) == MoietyCertificate({1}, {2})
    assert LieHomogeneous(degree=1, coefficients={(1,): 2}) == LieHomogeneous(1, {(1,): 2})
    assert Word(letters=[(1, 1)]) == Word([(1, 1)])
    assert Word() == Word(()) and not Word()
    assert LeftNormedTerm(generators=(1, 2), exponent=-1) == LeftNormedTerm((1, 2), -1)
    assert VerifyReport(
        ok=True, factors=0, min_fixed_block=None, max_coefficient=0, failures=()
    ) == VerifyReport(True, 0, None, 0, ())
    assert Decomposition(input=DEC.input, fixed=DEC.fixed, factors=DEC.factors) == DEC


def test_factor_provenance_keys_default_to_none():
    bare = Factor(BETA.map, BETA.certificate, "shear", 2)
    assert (bare.origin, bare.part, bare.side, bare.offsets) == (None,) * 4
    built = Factor(
        map=BETA.map,
        certificate=BETA.certificate,
        tag=BETA.tag,
        level=BETA.level,
        origin=BETA.origin,
        part=BETA.part,
        side=BETA.side,
        offsets=BETA.offsets,
    )
    assert built == BETA
    assert built != bare


def test_certificate_blocks_become_frozensets():
    cert = MoietyCertificate([3, 1, 1], iter([2]))
    assert cert.fixed == frozenset({1, 3}) and type(cert.fixed) is frozenset
    assert cert.preserved == frozenset({2}) and type(cert.preserved) is frozenset


def test_word_reduces_freely():
    assert Word([(1, 2), (1, -2), (2, 0), (3, 1)]).letters == ((3, 1),)


# ---------------------------------------------------------------------------
# validation

@pytest.mark.parametrize("rank, nilclass", [(0, 1), (1, 0), (-3, 2)])
def test_group_context_refuses_rank_or_class_below_one(rank, nilclass):
    with pytest.raises(MalformedInput, match="rank and class must be at least 1"):
        GroupContext(rank, nilclass)


def test_lie_homogeneous_drops_zero_coefficients():
    p = LieHomogeneous(2, {(1, 2): 3, (2, 1): 0})
    assert p.coefficients == {(1, 2): 3}
    assert LieHomogeneous(3, {(1, 2, 3): 0}).is_zero()


def test_lie_homogeneous_refuses_keys_of_another_degree():
    with pytest.raises(ValueError, match="coefficient keys must all have the stated degree"):
        LieHomogeneous(2, {(1,): 1})
    # a zero coefficient is dropped before its key is checked
    assert LieHomogeneous(2, {(1,): 0}).is_zero()


def test_word_refuses_a_generator_below_one():
    with pytest.raises(IndexOutOfRange, match="generator index 0 is not >= 1"):
        Word([(0, 1)])


# ---------------------------------------------------------------------------
# copies and pickles

@pytest.mark.parametrize("name", NAMES)
def test_deepcopy_and_pickle_round_trip(name):
    record = RECORDS[name][0]
    for clone in (
        copy.deepcopy(record),
        copy.copy(record),
        *(pickle.loads(pickle.dumps(record, p)) for p in range(0, pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)


def test_a_deep_copy_shares_no_mutable_field():
    p = RECORDS["LieHomogeneous"][0]
    q = copy.deepcopy(p)
    assert q.coefficients is not p.coefficients
    q.coefficients[(1, 1)] = 5
    assert (1, 1) not in p.coefficients


# ---------------------------------------------------------------------------
# repr

@pytest.mark.parametrize(
    "record, text",
    [
        (GroupContext(12, 4), "GroupContext(rank=12, nilclass=4)"),
        (RowMove("add", 1, 2, -3), "RowMove(kind='add', i=1, j=2, k=-3)"),
        (RowMove("negate", 4), "RowMove(kind='negate', i=4, j=0, k=0)"),
        (
            MoietyCertificate([1], [2, 3]),
            "MoietyCertificate(fixed=frozenset({1}), preserved=frozenset({2, 3}))",
        ),
        (
            LieHomogeneous(2, {(1, 2): 3}),
            "LieHomogeneous(degree=2, coefficients={(1, 2): 3})",
        ),
        (LeftNormedTerm((1, 2), 3), "LeftNormedTerm(generators=(1, 2), exponent=3)"),
        (
            VerifyReport(True, 2, None, 4, ()),
            "VerifyReport(ok=True, factors=2, min_fixed_block=None, "
            "max_coefficient=4, failures=())",
        ),
        # Word keeps its own spelling
        (Word([(1, 1), (2, -2)]), "Word(x1*x2^-2)"),
        (Word(), "Word()"),
    ],
    ids=lambda x: None if isinstance(x, str) else type(x).__name__,
)
def test_repr(record, text):
    assert repr(record) == text


def test_factor_and_decomposition_repr_name_every_field():
    text = repr(BETA)
    assert text.startswith("Factor(map=<GeneratorMap n=8 c=2 ")
    assert text.endswith(
        f"tag='central_beta', level=2, origin=None, part={BETA.part!r}, "
        f"side={BETA.side!r}, offsets={BETA.offsets!r})"
    )
    assert repr(DEC).startswith("Decomposition(input=<GeneratorMap n=8 c=2 ")
    assert f", fixed=frozenset({{1}}), factors=({BETA.__class__.__name__}(" in repr(DEC)
