import copy
import pickle

import pytest

from coinv.combinat import (
    Composition,
    IndexSubset,
    Partition,
    comp_of_set,
    enumerate_partitions,
    enumerate_subsets,
    hook_partition,
    set_of_comp,
)


def test_partition_validation():
    Partition((3, 2, 2, 1))
    Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_hook_partition():
    assert hook_partition(5, 2) == Partition((3, 1, 1))
    assert hook_partition(4, 3) == Partition((4,))
    assert hook_partition(4, 0) == Partition((1, 1, 1, 1))
    with pytest.raises(ValueError):
        hook_partition(4, 4)


def test_index_subset_validation():
    s = IndexSubset((3, 1), 5)
    assert s.elements == (1, 3)
    assert str(s) == "{1,3}/n=5"
    with pytest.raises(ValueError):
        IndexSubset((5,), 5)
    with pytest.raises(ValueError):
        IndexSubset((0,), 5)


def test_comp_of_set():
    assert comp_of_set(IndexSubset((), 3)) == Composition((3,))
    assert comp_of_set(IndexSubset((1,), 2)) == Composition((1, 1))
    assert comp_of_set(IndexSubset((2, 3), 5)) == Composition((2, 1, 2))


def test_set_of_comp():
    assert set_of_comp(Composition((3,))) == IndexSubset((), 3)
    assert set_of_comp(Composition((2, 1, 2))) == IndexSubset((2, 3), 5)
    assert set_of_comp(Composition((1, 1, 1))) == IndexSubset((1, 2), 3)


def test_conversions_inverse():
    for n in range(1, 11):
        for s in enumerate_subsets(n):
            assert set_of_comp(comp_of_set(s)) == s


def test_enumerate_partitions():
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(enumerate_partitions(6)) == 11
    assert enumerate_partitions(0) == [Partition(())]


def test_enumerate_subsets():
    assert [s.elements for s in enumerate_subsets(2)] == [(), (1,)]
    for n in range(1, 9):
        subsets = enumerate_subsets(n)
        assert len(subsets) == 1 << (n - 1)
        assert [s.bitmask() for s in subsets] == list(range(1 << (n - 1)))


# -- record semantics: each value is what the dataclass gave -------------------

RECORDS = [
    (Partition((2, 1)), ("parts",), ((2, 1),), "Partition(parts=(2, 1))"),
    (Partition(()), ("parts",), ((),), "Partition(parts=())"),
    (Composition((1, 2)), ("parts",), ((1, 2),), "Composition(parts=(1, 2))"),
    (IndexSubset((3, 1), 5), ("elements", "n"), ((1, 3), 5), "IndexSubset(elements=(1, 3), n=5)"),
]


@pytest.mark.parametrize("record, names, values, text", RECORDS)
def test_record_equality_hash_and_repr(record, names, values, text):
    assert tuple(getattr(record, name) for name in names) == values
    assert hash(record) == hash(values)
    assert repr(record) == text
    assert record == type(record)(*values)
    assert record != values
    assert record.__eq__(values) is NotImplemented
    assert len({record, type(record)(*values)}) == 1


def test_records_of_different_types_differ():
    assert Partition((1,)) != Composition((1,))
    assert Composition((1,)) != Partition((1,))
    assert Partition((1,)).__eq__(Composition((1,))) is NotImplemented
    assert IndexSubset((1,), 3) != IndexSubset((1,), 4)
    assert Partition((2, 1)) != Partition((1, 1, 1))


@pytest.mark.parametrize("record, names, values, text", RECORDS)
def test_record_fields_cannot_change(record, names, values, text):
    for name in names:
        with pytest.raises(AttributeError, match="cannot assign to field %r" % name):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete field %r" % name):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("record, names, values, text", RECORDS)
def test_record_copy_and_pickle_round_trips(record, names, values, text):
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record)
        assert copied == record and hash(copied) == hash(record)
        assert repr(copied) == text


def test_record_keyword_construction():
    assert Partition(parts=[2, 1]) == Partition((2, 1))
    assert Composition(parts=[1, 2]).parts == (1, 2)
    assert IndexSubset(n=5, elements=[3, 1]) == IndexSubset((1, 3), 5)
    assert IndexSubset((3, 1), n=5) == IndexSubset((1, 3), 5)


@pytest.mark.parametrize("build", [
    lambda: Partition(),
    lambda: Partition((1,), (1,)),
    lambda: Partition(part=(1,)),
    lambda: IndexSubset((1,)),
    lambda: IndexSubset((1,), 3, elements=(1,)),
    lambda: IndexSubset((1,), 3, 4),
    lambda: IndexSubset(n=3),
])
def test_record_refuses_wrong_arguments(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: Partition((1, 2)), "partition parts must be weakly decreasing: (1, 2)"),
    (lambda: Partition((2, 0)), "partition parts must be positive: (2, 0)"),
    (lambda: Composition((1, 0)), "composition parts must be positive: (1, 0)"),
    (lambda: IndexSubset((1, 1), 3), "repeated elements: (1, 1)"),
    (lambda: IndexSubset((3,), 3), "elements of (3,) not inside {1,...,2}"),
    (lambda: IndexSubset(n=5, elements=(0,)), "elements of (0,) not inside {1,...,4}"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
