import copy
import pickle
from math import comb

import pytest

from coinv.motzkin import (
    DOWN,
    HTHETA,
    HXI,
    STEPS,
    UP,
    MotzkinPath,
    delete_first_up,
    enumerate_paths,
    format_path,
    parse_path,
)


def test_step_validity():
    MotzkinPath((UP, UP, DOWN), "a")
    with pytest.raises(ValueError):
        MotzkinPath((HTHETA, UP), "a")  # must start with an up-step
    with pytest.raises(ValueError):
        MotzkinPath((UP, DOWN), "a")  # dips to height 0
    MotzkinPath((UP, DOWN), "b")
    with pytest.raises(ValueError):
        MotzkinPath((DOWN,), "b")
    MotzkinPath((), "b")
    with pytest.raises(ValueError):
        MotzkinPath((), "a")


def test_enumeration_counts():
    assert len(enumerate_paths(3, "a")) == 10
    assert enumerate_paths(1, "a") == [MotzkinPath((UP,), "a")]
    assert enumerate_paths(1, "b") == [
        MotzkinPath((UP,), "b"),
        MotzkinPath((HTHETA,), "b"),
        MotzkinPath((HXI,), "b"),
    ]
    for n in range(1, 9):
        paths = enumerate_paths(n, "a")
        assert len(paths) == comb(2 * n - 1, n)
        assert len(set(paths)) == len(paths)
        # canonical order: lexicographic on step tuples
        assert [p.steps for p in paths] == sorted(p.steps for p in paths)
        assert len(enumerate_paths(n - 1, "b")) == len(paths)


def test_enumeration_rejects_bad_n():
    with pytest.raises(ValueError):
        enumerate_paths(0, "a")
    assert enumerate_paths(0, "b") == [MotzkinPath((), "b")]


def test_type_shift_bijection():
    for n in range(1, 7):
        images = {delete_first_up(p) for p in enumerate_paths(n, "a")}
        assert images == set(enumerate_paths(n - 1, "b"))


def test_weight_sets():
    T, S = MotzkinPath((UP, UP, DOWN), "a").weight_sets()
    assert (T, S) == ({3}, {3})
    T, S = MotzkinPath((UP, HTHETA, HXI), "a").weight_sets()
    assert (T, S) == ({2}, {3})
    T, S = MotzkinPath((UP, UP, UP), "a").weight_sets()
    assert (T, S) == (frozenset(), frozenset())


def test_step_table_matches_heights_and_weight_sets():
    """Each STEPS entry is the height change and the theta/xi membership
    that height_after and weight_sets give its step on every path of
    length 1 and 2."""
    seen = set()
    for kind in ("a", "b"):
        for n in (1, 2):
            for path in enumerate_paths(n, kind):
                T, S = path.weight_sets()
                for i, s in enumerate(path.steps, start=1):
                    seen.add(s)
                    dh, t, x = STEPS[s]
                    assert dh == path.height_after(i) - path.height_after(i - 1), (path, i)
                    assert (t, x) == (int(i in T), int(i in S)), (path, i)
    assert seen == {UP, HTHETA, HXI, DOWN}


def test_height_after():
    p = MotzkinPath((UP, UP, UP), "a")
    assert [p.height_after(i) for i in range(4)] == [0, 1, 2, 3]
    assert MotzkinPath((UP, UP, DOWN), "a").height_after(3) == 1
    assert MotzkinPath((UP, HTHETA, HTHETA), "a").height_after(3) == 1


def test_path_literals():
    p = parse_path("U T X D", "b")
    assert p.steps == (UP, HTHETA, HXI, DOWN)
    assert format_path(p) == "U T X D"
    assert parse_path("U U D", "a") == MotzkinPath((UP, UP, DOWN), "a")
    with pytest.raises(ValueError):
        parse_path("U Z", "a")


def test_path_record_semantics():
    path = MotzkinPath([UP, HXI, UP, DOWN], "b")
    values = ((UP, HXI, UP, DOWN), "b")
    assert (path.steps, path.variant) == values
    assert hash(path) == hash(values)
    assert repr(path) == "MotzkinPath(steps=(0, 2, 0, 3), variant='b')"
    assert path == MotzkinPath(variant="b", steps=(UP, HXI, UP, DOWN))
    assert path != MotzkinPath((UP, HXI, UP, DOWN), "a")
    assert path != values and path.__eq__(values) is NotImplemented
    for name in ("steps", "variant"):
        with pytest.raises(AttributeError, match="cannot assign to field %r" % name):
            setattr(path, name, None)
        with pytest.raises(AttributeError, match="cannot delete field %r" % name):
            delattr(path, name)
    for copied in (copy.copy(path), copy.deepcopy(path), pickle.loads(pickle.dumps(path))):
        assert copied == path and hash(copied) == hash(path) and type(copied) is MotzkinPath
    with pytest.raises(TypeError):
        MotzkinPath((UP,))
    with pytest.raises(TypeError):
        MotzkinPath((UP,), "a", steps=(UP,))


@pytest.mark.parametrize("steps, variant, message", [
    ((UP,), "c", "variant must be 'a' or 'b'"),
    ((5,), "b", "unknown step kind in (5,)"),
    ((), "a", "type A paths need length >= 1"),
    ((HTHETA,), "a", "type A paths must start with an up-step"),
    ((UP, DOWN), "a", "path dips below its floor at step 2"),
    ((HXI, DOWN), "b", "path dips below its floor at step 2"),
])
def test_path_validation_messages(steps, variant, message):
    with pytest.raises(ValueError) as info:
        MotzkinPath(steps=steps, variant=variant)
    assert str(info.value) == message
