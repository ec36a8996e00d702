import random
from itertools import chain, combinations, product
from math import comb, factorial

import pytest

from coinv import basis, motzkin, verify
from coinv.basis import (
    BasisElement,
    alpha_sequence,
    ascent_positions,
    ascent_set,
    beta_sequence,
    count_basis,
    count_by_height,
    count_by_height_recursion,
    count_type_b,
    count_type_b_refined,
    enumerate_basis,
    hilbert_11_formula,
    hilbert_series,
    iter_basis,
    path_bound,
    stair_q,
    super_artin_bound,
)
from coinv.motzkin import parse_path
from coinv.qpoly import ONE, QuvPolynomial, q_integer

from golden import HILBERT, build_poly


def test_alpha_sequence():
    assert alpha_sequence((), (), 3) == (0, 1, 2)
    assert alpha_sequence({3}, {3}, 3) == (0, 1, 0)
    assert alpha_sequence({2}, (), 3) == (0, 0, 1)
    with pytest.raises(ValueError):
        alpha_sequence({2, 3}, {2, 3}, 3)  # a down-step right after the first up
    with pytest.raises(ValueError):
        alpha_sequence({1}, (), 3)


def test_beta_sequence():
    assert beta_sequence({3, 4}, {3, 6}, 6) == (1, 3, 3, 2, 3, 4)
    assert beta_sequence((), (), 2) == (1, 3)
    with pytest.raises(ValueError):
        beta_sequence({1}, {1}, 1)  # the length-1 down-step path


def reference_alpha_sequence(T, S, n):
    """The step loop that the height walk of alpha_sequence replaced."""
    T = frozenset(T)
    S = frozenset(S)
    if 1 in T or 1 in S:
        raise ValueError("type A paths start with an up-step; position 1 cannot carry a decoration")
    if any(not 2 <= i <= n for i in T | S):
        raise ValueError("decoration positions must lie in {2,...,n}")
    seq = [0]
    for i in range(2, n + 1):
        nxt = seq[-1] - 1 + (i not in T) + (i not in S)
        if nxt < 0:
            raise ValueError("invalid (T, S): bound drops below 0 at position %d" % i)
        seq.append(nxt)
    return tuple(seq)


def reference_beta_sequence(T, S, n):
    """The step loop that the height walk of beta_sequence replaced."""
    T = frozenset(T)
    S = frozenset(S)
    if any(not 1 <= i <= n for i in T | S):
        raise ValueError("decoration positions must lie in {1,...,n}")
    first = -1 + (1 not in T) + (1 not in S)
    if first < 0:
        raise ValueError("invalid (T, S): bound drops below 0 at position 1")
    seq = [first]
    for i in range(2, n + 1):
        nxt = seq[-1] - 2 + (i not in T) + (i - 1 not in T) + (i not in S) + (i - 1 not in S)
        if nxt < 0:
            raise ValueError("invalid (T, S): bound drops below 0 at position %d" % i)
        seq.append(nxt)
    return tuple(seq)


def reference_super_artin_bound(T, n, kind):
    """The (1,1) loops that super_artin_bound replaced with the S = {} staircase."""
    T = frozenset(T)
    if kind == "a":
        if any(not 2 <= i <= n for i in T):
            raise ValueError("type A (1,1) needs T inside {2,...,n}")
        seq = [0]
        for i in range(2, n + 1):
            seq.append(seq[-1] + (i not in T))
    elif kind == "b":
        if any(not 1 <= i <= n for i in T):
            raise ValueError("type B (1,1) needs T inside {1,...,n}")
        seq = [1 if 1 not in T else 0]
        for i in range(2, n + 1):
            seq.append(seq[-1] + (i not in T) + (i - 1 not in T))
    else:
        raise ValueError("kind must be 'a' or 'b'")
    return tuple(seq)


def reference_path_bound(path):
    T, S = path.weight_sets()
    if path.variant == "a":
        return reference_alpha_sequence(T, S, path.n)
    return reference_beta_sequence(T, S, path.n)


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc if "drops below 0" in str(exc) else "ValueError"


def position_sets(n):
    """Every subset of {0, ..., n+1}: the valid positions and one beyond each end."""
    positions = range(n + 2)
    return list(chain.from_iterable(combinations(positions, r) for r in range(n + 3)))


def test_staircases_match_the_replaced_loops():
    """Same bounds and the same refusals, at the same position, on every
    (T, S) with entries in {0, ..., n+1}."""
    for n in range(1, 6):
        sets = position_sets(n)
        for T, S in product(sets, sets):
            assert outcome(alpha_sequence, T, S, n) == outcome(reference_alpha_sequence, T, S, n), (T, S)
            assert outcome(beta_sequence, T, S, n) == outcome(reference_beta_sequence, T, S, n), (T, S)
    for kind, top in (("a", 8), ("b", 6)):
        for n in range(1, top + 1):
            for path in motzkin.enumerate_paths(n, kind):
                assert path_bound(path) == reference_path_bound(path), path


def test_super_artin_bound_is_the_xi_free_staircase():
    for n in range(1, 9):
        for T in position_sets(n):
            for kind in ("a", "b", "c"):
                expected = outcome(reference_super_artin_bound, T, n, kind)
                assert outcome(super_artin_bound, T, n, kind) == expected, (T, n, kind)


def stair_q_from_sets(T, S, n, kind):
    """stair_q from the decoration sets: the product of [k+1]_q over the
    staircase that alpha_sequence or beta_sequence gives."""
    bound = alpha_sequence(T, S, n) if kind == "a" else beta_sequence(T, S, n)
    out = ONE
    for k in bound:
        out = out * q_integer(k + 1)
    return out


def test_stair_q():
    assert stair_q(parse_path("U U U", "a")) == q_integer(1) * q_integer(2) * q_integer(3)
    assert stair_q(parse_path("U T T", "a")) == ONE
    assert stair_q(parse_path("U", "b")) == q_integer(2)
    assert stair_q_from_sets({2, 3}, (), 3, "a") == ONE
    assert stair_q_from_sets((), (), 1, "b") == q_integer(2)
    for path in (parse_path("U U D", "a"), parse_path("T U D", "b")):
        T, S = path.weight_sets()
        assert stair_q_from_sets(T, S, path.n, path.variant) == stair_q(path)


def test_enumerate_basis_small():
    names = [b.monomial_str() for b in enumerate_basis(2, "a12")]
    assert sorted(names) == ["1", "th2", "x2", "xi2"]
    assert len(enumerate_basis(3, "a12")) == 24
    names_b1 = [b.monomial_str() for b in enumerate_basis(1, "b12")]
    assert sorted(names_b1) == ["1", "th1", "x1", "xi1"]


def test_enumerate_basis_canonical_order():
    elements = enumerate_basis(3, "a12")
    assert len(set(elements)) == len(elements)
    # within one path the alpha vectors appear in lexicographic order
    by_path = {}
    for b in elements:
        by_path.setdefault((b.theta, b.xi), []).append(b.alpha)
    for alphas in by_path.values():
        assert alphas == sorted(alphas)


def test_cardinalities():
    for n in range(1, 7):
        assert count_basis(n, "a12") == (1 << (n - 1)) * factorial(n)
    for n in range(1, 5):
        assert count_basis(n, "b12") == 4**n * factorial(n)
    # streaming count agrees with materialized enumeration
    assert count_basis(5, "a12") == len(enumerate_basis(5, "a12"))


def test_variant_specializations():
    assert verify.check_specializations(5) is None


def test_hilbert_golden():
    for n, expected in HILBERT.items():
        assert hilbert_series(n, "a12") == expected


def test_hilbert_dimension_specialization():
    for n in range(1, 7):
        assert hilbert_series(n, "a12").evaluate() == (1 << (n - 1)) * factorial(n)
    for n in range(1, 5):
        assert hilbert_series(n, "b12").evaluate() == 4**n * factorial(n)
    # q = 0 keeps one element per path: the a02 weight generating function
    for n in range(1, 6):
        assert hilbert_series(n, "a12").substitute(q=0) == hilbert_series(n, "a02")
    for n in range(1, 6):
        assert hilbert_series(n, "a02").evaluate() == comb(2 * n - 1, n)


def test_hilbert_11_formula():
    assert hilbert_11_formula(2, "a") == build_poly({(0, 0): [1, 1], (1, 0): [1]})
    assert hilbert_11_formula(1, "b") == build_poly({(0, 0): [1, 1], (1, 0): [1]})
    for n in range(1, 7):
        assert hilbert_series(n, "a12").substitute(v=0) == hilbert_11_formula(n, "a")
    for n in range(1, 5):
        assert hilbert_series(n, "b12").substitute(v=0) == hilbert_11_formula(n, "b")


def test_ascent_set():
    # x_2 theta_3 at n=3
    b = BasisElement((0, 1, 0), (0, 0, 1), (0, 0, 0), "a12")
    assert ascent_positions(b.alpha, b.theta, b.xi) == (1, 2)
    assert ascent_set(b).elements == (1, 2)
    # the unit at n=3
    assert ascent_positions((0, 0, 0), (0, 0, 0), (0, 0, 0)) == ()
    # x_3 xi_3
    assert ascent_positions((0, 0, 1), (0, 0, 0), (0, 0, 1)) == (2,)


def test_count_by_height():
    assert count_by_height(3, 1) == 12
    assert count_by_height(3, -1) == 0
    assert sum(count_by_height(4, r) for r in range(0, 5)) == 8 * factorial(4)
    for n in range(1, 8):
        for r in range(0, n + 1):
            assert count_by_height_recursion(n, r) == count_by_height(n, r)
    assert verify.check_count_by_height(6) is None


def test_count_type_b():
    assert count_type_b(0) == 1
    assert count_type_b(1) == 4
    assert count_type_b_refined(1, 0, "E") == 2
    assert all(count_type_b_refined(1, r, "D") == 0 for r in range(0, 4))
    for n in range(1, 6):
        assert count_type_b(n) == 4**n * factorial(n)
        # closed forms for the refined counts
        for r in range(0, n + 1):
            assert count_type_b_refined(n, 2 * r, "E") == factorial(n - 1) * 2**n * comb(n - 1, r) * (2 * r + 1)
            assert count_type_b_refined(n, 2 * r + 1, "U") == factorial(n - 1) * 2**n * comb(n - 1, r) * (r + 1)
            assert count_type_b_refined(n, 2 * r + 1, "D") == factorial(n - 1) * 2**n * comb(n - 1, r) * (n - r - 1)
            assert count_type_b_refined(n, 2 * r + 1, "E") == 0
            assert count_type_b_refined(n, 2 * r, "U") == 0
            assert count_type_b_refined(n, 2 * r, "D") == 0
    assert verify.check_count_type_b_refined(4) is None


def test_monomial_str_and_json():
    b = BasisElement((0, 1, 2), (0, 0, 1), (0, 0, 1), "a12")
    assert b.monomial_str() == "x2*x3^2*th3*xi3"
    assert b.to_json() == {"alpha": [0, 1, 2], "theta": [0, 0, 1], "xi": [0, 0, 1]}
    assert BasisElement((0, 0), (0, 0), (0, 0), "a12").monomial_str() == "1"


def test_path_reconstruction():
    """b.path() is the enumerated path whose decoration sets are b's, and
    b's exponents stay under that path's staircase."""
    for variant in ("a12", "b12"):
        for n in range(1, 5):
            carriers = {path.weight_sets(): path for path in motzkin.enumerate_paths(n, variant[0])}
            for b in enumerate_basis(n, variant):
                path = b.path()
                assert path == carriers[b.theta_set, b.xi_set], b
                assert all(a <= k for a, k in zip(b.alpha, path_bound(path))), b


def bits_of_path(path):
    """The theta and xi occupancy vectors of a path, from its weight sets."""
    T, S = path.weight_sets()
    positions = range(1, path.n + 1)
    return tuple(int(i in T) for i in positions), tuple(int(i in S) for i in positions)


def reference_enumerate_basis(n, variant):
    """The list-building enumerator that iter_basis replaced."""
    out = []
    if variant in ("a12", "b12"):
        for path in motzkin.enumerate_paths(n, variant[0]):
            theta, xi = bits_of_path(path)
            for alpha in product(*(range(b + 1) for b in reference_path_bound(path))):
                out.append(BasisElement(alpha, theta, xi, variant))
    elif variant == "a02":
        for path in motzkin.enumerate_paths(n, "a"):
            theta, xi = bits_of_path(path)
            out.append(BasisElement((0,) * n, theta, xi, variant))
    else:
        lowest = 2 if variant == "a11" else 1
        for mask in range(1 << (n - lowest + 1)):
            theta = (0,) * (lowest - 1) + tuple(mask >> i & 1 for i in range(n - lowest + 1))
            T = frozenset(i + 1 for i, b in enumerate(theta) if b)
            for alpha in product(*(range(b + 1) for b in reference_super_artin_bound(T, n, variant[0]))):
                out.append(BasisElement(alpha, theta, (0,) * n, variant))
    return out


@pytest.mark.parametrize("variant", basis.VARIANTS)
def test_iter_basis_matches_the_list_enumerator(variant):
    for n in range(1, 5 if variant == "b12" else 6):
        expected = reference_enumerate_basis(n, variant)
        for got in (list(iter_basis(n, variant)), enumerate_basis(n, variant)):
            assert got == expected, (n, variant)
            assert all(type(b) is BasisElement for b in got)
            assert [b.variant for b in got] == [variant] * len(got)


def test_iter_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        next(iter_basis(0, "a12"))
    with pytest.raises(ValueError):
        next(iter_basis(3, "c12"))
    with pytest.raises(ValueError):
        enumerate_basis(0, "a12")
    with pytest.raises(ValueError):
        next(basis.iter_rows(0, "a12"))
    with pytest.raises(ValueError):
        next(basis.iter_rows(3, "c12"))


def reference_unpack(pack, value):
    """The field-by-field decoder that _Packing.unpack replaced."""
    step = pack.width // 8
    data = value.to_bytes(-(-value.bit_length() // pack.width) * step, "little")
    terms = {}
    for slot in range(len(data) // step):
        coeff = int.from_bytes(data[slot * step:(slot + 1) * step], "little")
        if coeff:
            rest, a = divmod(slot, pack.qs)
            c, b = divmod(rest, pack.us)
            terms[(a, b, c)] = coeff
    return QuvPolynomial(terms)


def test_unpack_decodes_only_nonzero_fields_correctly():
    # coefficients with zero bytes inside and at either end of a field, and
    # terms at the first and last slot of a block, so that runs of nonzero
    # bytes start, stop and meet in every position a field allows
    rng = random.Random(7)
    for kind in ("a", "b"):
        for n in range(1, 7):
            pack = basis._Packing(n, kind)
            top = (1 << pack.width) - 1
            shapes = [1, top, 1 << (pack.width - 8), (1 << (pack.width - 8)) + 1, 0x0100 & top or 1]
            for _ in range(40):
                terms = {}
                for _ in range(rng.randint(0, 12)):
                    a = rng.choice([0, pack.qs - 1, rng.randrange(pack.qs)])
                    key = (a, rng.randrange(pack.us), rng.randrange(n + 2))
                    terms[key] = rng.choice(shapes + [rng.randint(1, top)])
                value = sum(coeff << pack.shift(*key) for key, coeff in terms.items())
                poly = pack.unpack(value)
                assert poly == QuvPolynomial(terms) == reference_unpack(pack, value)


@pytest.mark.parametrize("variant", ["a11", "b11"])
def test_path_of_a_super_artin_element_is_refused(variant):
    element = next(iter_basis(3, variant))
    with pytest.raises(ValueError, match="^variant %s has no path model$" % variant):
        element.path()
