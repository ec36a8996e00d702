import hashlib
import json
import random
from fractions import Fraction
from itertools import islice, product
from math import gcd

import pytest

from coinv import basis, oracle
from coinv.oracle import (
    SuperMonomial,
    ambient_size,
    default_max_x_degree,
    hilbert_via_oracle,
    invariant_subspace,
    monomial_basis,
    quotient_dimension,
)
from coinv.qpoly import QuvPolynomial
from oracle_reference import (
    group_action,
    multiply_monomials,
    rank_of_rows,
    reynolds,
    signed_action_table,
    signed_group,
    signed_table_images,
)


def all_degrees(n, kind):
    """Every multidegree in the oracle's default x-degree window."""
    return list(product(range(default_max_x_degree(n, kind) + 1), range(n + 1), range(n + 1)))


def bit_loop_product(m1, m2):
    """multiply_monomials by its definition: one sign flip per crossing pair."""
    if m1.tmask & m2.tmask or m1.xmask & m2.xmask:
        return None
    xexp = tuple(a + b for a, b in zip(m1.xexp, m2.xexp))
    sign = -1 if (bin(m2.tmask).count("1") * bin(m1.xmask).count("1")) % 2 else 1
    for mine, other in ((m1.tmask, m2.tmask), (m1.xmask, m2.xmask)):
        for b in range(other.bit_length()):
            if other >> b & 1 and bin(mine >> (b + 1)).count("1") % 2:
                sign = -sign
    return sign, SuperMonomial(xexp, m1.tmask | m2.tmask, m1.xmask | m2.xmask)


class RebuildingEchelon:
    """Fraction-free elimination that rebuilds the row at every step,
    choosing each leading column with `choose`: max, the oracle's rule, or
    min, the smallest-column rule it replaced."""

    def __init__(self, choose=max):
        self.choose = choose
        self.pivots = {}

    def insert(self, row):
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = self.choose(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                row = {c: v // g for c, v in row.items()}
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                self.pivots[lead] = row
                return True
            a, b = pivot[lead], row[lead]
            g = gcd(a, b)
            new = {c: v * (a // g) for c, v in row.items()}
            for c, v in pivot.items():
                w = new.get(c, 0) - v * (b // g)
                if w:
                    new[c] = w
                else:
                    new.pop(c, None)
            row = new
        return False


def fraction_rank(rows, ncols):
    """Rank by Gaussian elimination over the rationals on dense rows."""
    matrix = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pick = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pick is None:
            continue
        matrix[rank], matrix[pick] = matrix[pick], matrix[rank]
        for i in range(rank + 1, len(matrix)):
            factor = matrix[i][col] / matrix[rank][col]
            if factor:
                matrix[i] = [x - factor * y for x, y in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


def test_monomial_basis_counts():
    assert len(monomial_basis(2, (0, 0, 0))) == 1
    assert len(monomial_basis(2, (2, 0, 0))) == 3  # x1^2, x1x2, x2^2
    assert len(monomial_basis(2, (0, 1, 1))) == 4
    assert len(monomial_basis(3, (1, 2, 0))) == 9
    assert monomial_basis(2, (0, 3, 0)) == ()


def test_group_action_signs():
    # swapping theta_1 theta_2 flips the sign but fixes the monomial
    m = SuperMonomial((0, 0), 0b11, 0)
    sign, image = group_action(((1, 0), 0), m)
    assert sign == -1 and image == m
    sign, image = group_action(((0, 1), 0), m)
    assert sign == 1 and image == m
    # type B: the sign flag counts the total exponent of the slot
    m2 = SuperMonomial((1, 0), 0b01, 0)  # x1 theta1
    sign, image = group_action(((0, 1), 0b01), m2)
    assert sign == 1 and image == m2
    m3 = SuperMonomial((1, 0), 0, 0)  # x1
    sign, image = group_action(((0, 1), 0b01), m3)
    assert sign == -1 and image == m3


def test_multiply_monomials():
    a = SuperMonomial((1, 0), 0b01, 0)
    b = SuperMonomial((0, 1), 0b01, 0)
    assert multiply_monomials(a, b) is None  # theta_1 squared
    c = SuperMonomial((0, 0), 0b10, 0)
    sign, prod = multiply_monomials(a, c)
    assert sign == 1 and prod == SuperMonomial((1, 0), 0b11, 0)
    sign, prod = multiply_monomials(c, a)  # theta_2 * theta_1 = -theta_1 theta_2
    assert sign == -1 and prod == SuperMonomial((1, 0), 0b11, 0)
    # a theta moving past a xi flips the sign
    x = SuperMonomial((0, 0), 0, 0b01)
    t = SuperMonomial((0, 0), 0b10, 0)
    sign, prod = multiply_monomials(x, t)
    assert sign == -1 and prod == SuperMonomial((0, 0), 0b10, 0b01)


def test_multiply_monomials_matches_bit_loop_on_all_mask_pairs():
    for n in range(1, 5):
        x1 = tuple(range(n))
        x2 = tuple(range(n, 0, -1))
        for t1, f1, t2, f2 in product(range(1 << n), repeat=4):
            m1 = SuperMonomial(x1, t1, f1)
            m2 = SuperMonomial(x2, t2, f2)
            expected = bit_loop_product(m1, m2)
            # the second call reads the memoized sign
            assert multiply_monomials(m1, m2) == expected
            assert multiply_monomials(m1, m2) == expected


@pytest.mark.parametrize("kind", ["a", "b"])
def test_action_table_matches_group_action(kind):
    """Type A checks the oracle's S_n table; type B, which the oracle never
    tabulates, the reference's hyperoctahedral table."""
    for n in (1, 2, 3):
        group = signed_group(n, kind)
        if kind == "a":
            table, table_images = oracle._action_table(n), oracle._table_images
        else:
            table, table_images = signed_action_table(n, kind), signed_table_images
        assert len(table) == len(group)
        for r, s, t in product(range(4), range(n + 1), range(n + 1)):
            for mono in monomial_basis(n, (r, s, t)):
                expected = [group_action(g, mono) for g in group]
                assert list(table_images(mono, table)) == expected


def check_invariants_against(n, kind, symmetrize, monkeypatch):
    """invariant_subspace(n, kind, D) for every D of the default window
    inserts the rows of symmetrize(mono) over every monomial, in order, and
    keeps their echelon basis."""
    inserted = []
    real_insert = oracle._Echelon.insert

    def recording_insert(self, row):
        inserted.append(dict(row))
        return real_insert(self, row)

    monkeypatch.setattr(oracle._Echelon, "insert", recording_insert)
    for degree in all_degrees(n, kind):
        ambient = monomial_basis(n, degree)
        index = {m: i for i, m in enumerate(ambient)}
        rows = []
        for mono in ambient:
            vec = symmetrize(mono)
            if vec:
                rows.append({index[m]: c for m, c in vec.items()})
        reference = RebuildingEchelon()
        for row in rows:
            reference.insert(row)
        expected = tuple(row for _, row in sorted(reference.pivots.items(), reverse=True))
        del inserted[:]
        invariant_subspace.cache_clear()
        assert invariant_subspace(n, kind, degree) == expected, degree
        # it stops at full rank, after which every row is dependent
        assert inserted == rows[:len(inserted)], degree
        assert len(inserted) == len(rows) or len(expected) == len(ambient), degree


@pytest.mark.parametrize("kind,n", [("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2)])
def test_invariant_subspace_matches_reynolds_on_every_monomial(kind, n, monkeypatch):
    """Same rows, in the same order, and the same echelon basis as
    symmetrizing every monomial with reynolds."""
    check_invariants_against(n, kind, lambda mono: reynolds(mono, n, kind), monkeypatch)


def test_type_b_invariants_at_n3_match_the_hyperoctahedral_sum(monkeypatch):
    """The S_n orbit sums of even monomials, times 2^3, are the rows of the
    full sum over the 48 elements of the reference table."""
    table = signed_action_table(3, "b")

    def symmetrize(mono):
        out = {}
        for sign, image in signed_table_images(mono, table):
            out[image] = out.get(image, 0) + sign
        return {m: c for m, c in out.items() if c}

    check_invariants_against(3, "b", symmetrize, monkeypatch)


def packed_codes(n, degree, width):
    """The monomials of monomial_basis(n, degree), packed as the oracle's
    codes are defined."""
    out = []
    for xexp, tmask, xmask in monomial_basis(n, degree):
        packed = 0
        for e in reversed(xexp):
            packed = packed << width | e
        out.append((packed << n | tmask) << n | xmask)
    return tuple(out)


@pytest.mark.parametrize("kind", ["a", "b"])
def test_monomial_codes_pack_the_monomial_basis(kind):
    for n in (1, 2, 3):
        for degree in all_degrees(n, kind):
            for width in range(1, 6):
                assert oracle._monomial_codes(n, degree, width) == packed_codes(n, degree, width), (n, degree, width)


def super_monomial_ideal_rows(n, kind, degree):
    """Every nonzero row of the ideal piece, in `_ideal_rank`'s order, built
    from SuperMonomial products by multiply_monomials."""
    r, s, t = degree
    index = {m: i for i, m in enumerate(monomial_basis(n, degree))}
    for er, es, et in product(range(r + 1), range(s + 1), range(t + 1)):
        if (er, es, et) == (0, 0, 0):
            continue
        inv_basis = monomial_basis(n, (er, es, et))
        complement = monomial_basis(n, (r - er, s - es, t - et))
        for vec in invariant_subspace(n, kind, (er, es, et)):
            factors = [(inv_basis[col], coeff) for col, coeff in vec.items()]
            for mono in complement:
                row = {}
                for factor, coeff in factors:
                    result = multiply_monomials(factor, mono)
                    if result is None:
                        continue
                    sign, prod_mono = result
                    c = index[prod_mono]
                    new = row.get(c, 0) + sign * coeff
                    if new:
                        row[c] = new
                    else:
                        del row[c]
                if row:
                    yield row


@pytest.mark.parametrize("kind,n", [("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("b", 3)])
def test_ideal_rows_match_the_super_monomial_builder(kind, n, monkeypatch):
    """The packed-code kernel inserts the same rows, in the same order."""
    inserted = []
    real_insert = oracle._Echelon.insert

    def recording_insert(self, row):
        inserted.append(dict(row))
        return real_insert(self, row)

    for degree in all_degrees(n, kind):
        if degree == (0, 0, 0):
            continue
        # a first call fills the invariant caches, so the recorded call
        # inserts ideal rows only
        oracle._ideal_rank(n, kind, degree)
        del inserted[:]
        with monkeypatch.context() as patch:
            patch.setattr(oracle._Echelon, "insert", recording_insert)
            rank = oracle._ideal_rank(n, kind, degree)
        rows = super_monomial_ideal_rows(n, kind, degree)
        assert inserted == list(islice(rows, len(inserted))), degree
        # it stops only at full rank
        assert next(rows, None) is None or rank == len(monomial_basis(n, degree)), degree


# sha256 of json.dumps(report) from hilbert_via_oracle, recorded with the
# smallest-column pivot rule and the SuperMonomial row builder
ORACLE_REPORT_SHA256 = {
    ("a", 1): "a07d5d74519d6fc5cdb363153c9626943a5aa183f94e0f7ed949ed47db634a11",
    ("a", 2): "2faf98e5399d7b25a5df7d4ee9cec4238137b91dd7363ea6b2a305712c35ae57",
    ("a", 3): "1feb03c3237e085df050d21fd80e1e43f101cf9b719f6e6ab520f0ea3aa18543",
    ("b", 1): "eae6b5ad6ec3420843bfa2368376aed37e1940b2c258a8db86fcb58e3e415124",
    ("b", 2): "cb2e45b09c2aabf24061c2e1d69eca6d7324833f0a1b0932d7ed95901987acfa",
    ("b", 3): "2df49e0d56caa90261bae55121f0360d75afc9e51f87d632c90a599ae19c7a67",
}


@pytest.mark.parametrize("kind,n", sorted(ORACLE_REPORT_SHA256))
def test_oracle_report_is_unchanged(kind, n):
    _, complete, report = hilbert_via_oracle(n, kind)
    assert complete
    digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert digest == ORACLE_REPORT_SHA256[kind, n]


def test_type_a_n4_pieces_match_conjecture():
    """Three pieces that the ideal fills and one with a five-dimensional
    quotient."""
    series = basis.hilbert_series(4, "a12")
    for degree in ((5, 2, 1), (7, 1, 0), (3, 2, 1), (3, 1, 1)):
        assert quotient_dimension(4, "a", degree) == series.coefficient(*degree), degree


def test_rank_of_rows_matches_fraction_elimination():
    rng = random.Random(2024)
    for _ in range(300):
        nrows = rng.randint(0, 12)
        ncols = rng.randint(1, 12)
        rows = []
        for _ in range(nrows):
            cols = rng.sample(range(ncols), rng.randint(0, min(ncols, 4)))
            rows.append({c: rng.choice([-1, 1]) * rng.randint(1, 6) for c in cols})
        # repeat combinations of earlier rows, so that some reduce to zero
        for _ in range(rng.randint(0, 3)):
            if len(rows) >= 2:
                a, b = rng.sample(rows, 2)
                ka, kb = rng.randint(-3, 3), rng.randint(-3, 3)
                combo = {c: ka * a.get(c, 0) + kb * b.get(c, 0) for c in set(a) | set(b)}
                rows.insert(rng.randint(0, len(rows)), combo)
        copies = [dict(row) for row in rows]
        rank = rank_of_rows(rows)
        assert rank == fraction_rank(rows, ncols)
        assert rows == copies  # the caller's rows are not modified
        # the rank does not depend on the pivot rule
        smallest = RebuildingEchelon(min)
        for row in rows:
            smallest.insert(row)
        assert len(smallest.pivots) == rank


def test_echelon_stores_the_rebuilding_pivot_rows():
    rng = random.Random(7)
    for _ in range(100):
        rows = [{c: rng.randint(-5, 5) for c in rng.sample(range(10), rng.randint(1, 6))}
                for _ in range(rng.randint(1, 15))]
        fast, reference = oracle._Echelon(), RebuildingEchelon()
        for row in rows:
            assert fast.insert(row) == reference.insert(row)
        assert fast.pivots == reference.pivots
        assert list(fast.pivots) == list(reference.pivots)


def test_reynolds_and_invariants():
    # power sum x1 + x2 spans the (1,0,0) invariants of S_2
    vecs = invariant_subspace(2, "a", (1, 0, 0))
    assert len(vecs) == 1
    basis_100 = monomial_basis(2, (1, 0, 0))
    vec = vecs[0]
    assert {basis_100[c]: v for c, v in vec.items()} == {
        SuperMonomial((1, 0), 0, 0): 1,
        SuperMonomial((0, 1), 0, 0): 1,
    }
    assert len(invariant_subspace(2, "a", (0, 1, 0))) == 1
    assert len(invariant_subspace(2, "a", (0, 1, 1))) == 2
    # orbit sums cancel for the alternating piece
    sym = reynolds(SuperMonomial((0, 0), 0b01, 0b10), 2, "a")
    assert sym  # theta1 xi2 + theta2 xi1 survives


def test_rank_of_rows():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]
    assert rank_of_rows(rows) == 2
    assert rank_of_rows([]) == 0
    assert rank_of_rows([{0: 3}], ncols=1) == 1


def test_quotient_dimensions_n2():
    assert quotient_dimension(2, "a", (0, 0, 0)) == 1
    assert quotient_dimension(2, "a", (1, 0, 0)) == 1
    assert quotient_dimension(2, "a", (2, 0, 0)) == 0
    assert quotient_dimension(2, "a", (0, 1, 0)) == 1
    assert quotient_dimension(2, "a", (0, 0, 1)) == 1
    assert quotient_dimension(2, "a", (1, 1, 0)) == 0


def test_ambient_size_counts_the_monomial_basis():
    for n in range(1, 5):
        for degree in set(all_degrees(n, "a")) | set(all_degrees(n, "b")):
            # the uncached builder, so the test holds no n=4 piece after it ends
            assert ambient_size(n, degree) == len(monomial_basis.__wrapped__(n, degree)), (n, degree)


def test_monomial_cap(monkeypatch):
    def no_work(*args):
        raise AssertionError("the over-cap piece was built")

    monkeypatch.setattr(oracle, "monomial_basis", no_work)
    monkeypatch.setattr(oracle, "_ideal_rank", no_work)
    with pytest.raises(RuntimeError, match=r"\(9, 2, 2\) has 71500 monomials, over the cap 50000"):
        quotient_dimension(5, "a", (9, 2, 2))


def test_oracle_matches_conjecture_small():
    for n in (1, 2):
        poly, complete, report = hilbert_via_oracle(n, "a")
        assert complete
        assert poly == basis.hilbert_series(n, "a12")
        assert all(row["ambient"] >= row["quotient"] for row in report)
    poly, complete, _ = hilbert_via_oracle(1, "b")
    assert complete
    assert poly == basis.hilbert_series(1, "b12")
    assert poly == QuvPolynomial({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})


def test_type_b_n3_oracle_matches_conjecture():
    poly, complete, _ = hilbert_via_oracle(3, "b")
    assert complete
    assert poly == basis.hilbert_series(3, "b12")


def test_oracle_jobs_deterministic():
    serial = hilbert_via_oracle(2, "a", jobs=1)
    parallel = hilbert_via_oracle(2, "a", jobs=2)
    assert serial[0] == parallel[0]
    assert serial[2] == parallel[2]


def test_exactness_window():
    from coinv import verify

    assert verify.check_oracle_exactness(2) is None
