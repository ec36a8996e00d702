"""The path-state engine against full enumeration.

Every reference below is computed here, straight from enumerate_basis, so
the engine (basis.hilbert_series, basis.ascent_table and the symfun series
built on it) is compared with the elements it replaces counting.
"""

from functools import lru_cache
from math import factorial

import pytest

from coinv import basis, motzkin, symfun
from coinv.basis import ascent_positions, enumerate_basis, hilbert_series
from coinv.combinat import Composition, IndexSubset, elements_of_mask, enumerate_partitions, set_of_comp
from coinv.qpoly import QuvPolynomial


@lru_cache(maxsize=None)
def reference_counts(n, variant="a12"):
    """{(ascent set, deg_x, deg_theta, deg_xi): count} over the enumerated basis."""
    counts = {}
    for b in enumerate_basis(n, variant):
        key = (ascent_positions(b.alpha, b.theta, b.xi), b.deg_x, b.deg_theta, b.deg_xi)
        counts[key] = counts.get(key, 0) + 1
    return counts


def reference_hilbert(n, variant):
    terms = {}
    for (_, a, k, l), count in reference_counts(n, variant).items():
        terms[(a, k, l)] = terms.get((a, k, l), 0) + count
    return QuvPolynomial(terms)


def reference_qsym(n, k=None, l=None):
    by_subset = {}
    for (asc, a, dk, dl), count in reference_counts(n).items():
        if (k is None or dk == k) and (l is None or dl == l):
            terms = by_subset.setdefault(asc, {})
            terms[(a, dk, dl)] = terms.get((a, dk, dl), 0) + count
    out = symfun.QSymExpansion(n)
    for asc, terms in by_subset.items():
        out.add(IndexSubset(asc, n), QuvPolynomial(terms))
    return out


def reference_q_sum(n, k, l, keep):
    """Sum of q^deg_x over elements of theta/xi degree (k, l) whose ascent set passes keep."""
    terms = {}
    for (asc, a, dk, dl), count in reference_counts(n).items():
        if (dk, dl) == (k, l) and keep(asc):
            terms[(a, 0, 0)] = terms.get((a, 0, 0), 0) + count
    return QuvPolynomial(terms)


def test_a12_hilbert_matches_enumeration():
    for n in range(1, 8):
        assert hilbert_series(n, "a12") == reference_hilbert(n, "a12"), n


def test_b12_hilbert_matches_enumeration():
    for n in range(1, 6):
        assert hilbert_series(n, "b12") == reference_hilbert(n, "b12"), n


def test_substituted_variants_match_enumeration():
    for n in range(1, 7):
        assert hilbert_series(n, "a11") == reference_hilbert(n, "a11"), n
        assert hilbert_series(n, "a02") == reference_hilbert(n, "a02"), n
    for n in range(1, 5):
        assert hilbert_series(n, "b11") == reference_hilbert(n, "b11"), n


def test_frobenius_matches_enumeration_for_every_filter():
    for n in range(1, 7):
        assert symfun.frobenius_qsym(n) == reference_qsym(n), n
        for k in range(n):
            assert symfun.frobenius_qsym(n, k=k) == reference_qsym(n, k=k), (n, k)
            assert symfun.frobenius_qsym(n, l=k) == reference_qsym(n, l=k), (n, k)
            for l in range(n - k):
                assert symfun.frobenius_qsym(n, k=k, l=l) == reference_qsym(n, k=k, l=l), (n, k, l)


def test_unfiltered_frobenius_holds_the_ascent_tables_own_polynomials():
    # the series is the table keyed by subsets, not a second copy of it
    for n in range(1, 8):
        table = basis.ascent_table(n)
        coeffs = symfun.frobenius_qsym(n).coeffs
        assert len(coeffs) == len(table), n
        for mask, poly in table:
            assert coeffs[IndexSubset(elements_of_mask(mask, n), n)] is poly, (n, mask)


def test_h_mu_matches_enumeration():
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            allowed = set(set_of_comp(Composition(mu.parts)).elements)
            for k in range(n):
                for l in range(n - k):
                    expected = reference_q_sum(n, k, l, lambda asc: allowed.issuperset(asc))
                    assert symfun.h_mu_coefficient(n, k, l, mu) == expected, (n, mu, k, l)


def test_hook_schur_matches_enumeration():
    for n in range(1, 7):
        for d in range(n):
            interval = tuple(range(d + 1, n))
            for k in range(n):
                for l in range(n - k):
                    expected = reference_q_sum(n, k, l, lambda asc: asc == interval)
                    assert symfun.hook_schur_coefficient(n, k, l, d) == expected, (n, d, k, l)


def test_ascent_sum_and_schur_fold_match_the_ascent_table():
    """The layered sum against the table's masks between its two sets, for
    every mu, every hook and every (k, l) at n <= 8, and the Schur fold
    against the reference straightening of the table, for every k/l filter
    at n <= 7 and unfiltered at n = 8 (each fold walks again: every filter
    at n = 8 would add about 3 s).  A sum that keeps a rise outside Set(mu)
    and a fold that drops the shapes of sign -1 each fail here."""
    for n in range(1, 9):
        table = basis.ascent_table(n)
        for mu in enumerate_partitions(n):
            allowed = set_of_comp(Composition(mu.parts))
            inside = sum((poly for mask, poly in table if not mask & ~allowed.bitmask()), QuvPolynomial())
            assert symfun.ascent_sum(n, allowed.elements, ()) == inside, (n, mu)
            for k in range(n):
                for l in range(n - k):
                    expected = symfun._restrict(inside, k, l).substitute(u=1, v=1)
                    assert symfun.h_mu_coefficient(n, k, l, mu) == expected, (n, mu, k, l)
        for d in range(n):
            interval = (1 << (n - 1)) - (1 << d)
            exact = sum((poly for mask, poly in table if mask == interval), QuvPolynomial())
            for k in range(n):
                for l in range(n - k):
                    expected = symfun._restrict(exact, k, l).substitute(u=1, v=1)
                    assert symfun.hook_schur_coefficient(n, k, l, d) == expected, (n, d, k, l)
        degrees = [None, *range(n)] if n < 8 else [None]
        for k in degrees:
            for l in degrees:
                reference = symfun.schur_expansion(symfun.frobenius_qsym(n, k=k, l=l))
                assert symfun.schur_fold(n, k, l) == reference, (n, k, l)
        assert symfun.frobenius_schur(n) == symfun.schur_expansion(symfun.frobenius_qsym(n)), n


def test_the_schur_fold_skips_only_ascent_sets_that_straighten_to_nothing():
    """An ascent set is walked when each of its rises passes
    _rise_may_straighten; every set skipped straightens to zero, and at
    n = 12 the walk reads 549 of the 2,048 sets, 378 of them nonzero."""
    for n in range(1, 13):
        walked = nonzero = 0
        for mask in range(1 << (n - 1)):
            rises = [i for i in range(1, n) if mask >> (i - 1) & 1]
            kept = all(symfun._rise_may_straighten(mask & ((1 << (i - 1)) - 1), i) for i in rises)
            sign = symfun.straighten(Composition(tuple(b - a for a, b in zip([0, *rises], [*rises, n])))).sign
            assert kept or not sign, (n, rises)
            walked += kept
            nonzero += sign != 0
        if n == 12:
            assert (walked, nonzero) == (549, 378)


def test_engine_never_enumerates(monkeypatch):
    def refuse(*args):
        raise AssertionError("the engine must not enumerate")

    monkeypatch.setattr(basis, "enumerate_basis", refuse)
    monkeypatch.setattr(basis, "iter_basis", refuse)
    monkeypatch.setattr(motzkin, "enumerate_paths", refuse)
    basis.ascent_table.cache_clear()
    basis._height_series.cache_clear()
    try:
        for variant in basis.VARIANTS:
            hilbert_series(4, variant)
        symfun.frobenius_qsym(5, k=1)
        symfun.h_mu_coefficient(5, 1, 1, (3, 2))
        symfun.hook_schur_coefficient(5, 1, 1, 2)
        symfun.hook_h_coefficient(5, 1, 1, 2)
    finally:
        basis.ascent_table.cache_clear()
        basis._height_series.cache_clear()


def test_sizes_beyond_enumeration():
    assert hilbert_series(20, "a12").evaluate() == (1 << 19) * factorial(20)
    assert hilbert_series(12, "b12").evaluate() == 4**12 * factorial(12)
    table = basis.ascent_table(8)
    assert sum(poly.evaluate() for _, poly in table) == (1 << 7) * factorial(8)
    assert [mask for mask, _ in table] == sorted(mask for mask, _ in table)


def test_ascent_table_rejects_n_below_one():
    with pytest.raises(ValueError):
        basis.ascent_table(0)


def test_top_x_degree_is_the_largest_x_degree_of_the_series():
    for n in range(1, 9):
        for kind in ("a", "b"):
            series = hilbert_series(n, kind + "12")
            assert max(a for a, _, _ in series.terms) == basis.top_x_degree(n, kind), (n, kind)


class WalkStarted(Exception):
    pass


def test_walk_cap_sits_between_the_largest_walks_that_fit_in_1_gib_and_the_next(monkeypatch):
    """a12 n=36 and b12 n=30 finish under a 1 GiB address space, and a12
    n=37 and b12 n=31 do not (measured; see basis.WALK_BYTES_CAP).  The
    walk is stopped where it would start working, so nothing runs."""

    def started(self, k):
        raise WalkStarted

    monkeypatch.setattr(basis._Packing, "q_integer", started)
    for n, kind in ((36, "a"), (30, "b")):
        with pytest.raises(WalkStarted):
            basis._height_series.__wrapped__(n, kind)
    for n, kind in ((37, "a"), (31, "b")):
        with pytest.raises(ValueError, match=r"^the type %s series at n=%d would hold about \d+ MB of packed "
                           r"values, over the cap of \d+ MB$" % (kind.upper(), n)):
            basis._height_series.__wrapped__(n, kind)


def test_table_cap_sits_between_n12_and_n13(monkeypatch):
    """frobenius, hmu and hook at n=12 finish under a 1 GiB address space
    (measured; see basis.TABLE_SLOTS_CAP), and n=13 would need about three
    times as much.  The walk is stopped where it would start working."""

    def started(n, kind):
        raise WalkStarted

    monkeypatch.setattr(basis, "_Packing", started)
    with pytest.raises(WalkStarted):
        basis.ascent_table.__wrapped__(12)
    with pytest.raises(ValueError) as exc:
        basis.ascent_table.__wrapped__(13)
    assert str(exc.value) == "the ascent table at n=13 would have up to 29446144 terms, over the cap of 15000000"


@pytest.mark.parametrize("variant", basis.VARIANTS)
def test_every_variant_and_count_basis_are_refused_past_the_walk_cap(variant):
    n = 37 if variant[0] == "a" else 31
    with pytest.raises(ValueError, match="over the cap"):
        hilbert_series(n, variant)
    with pytest.raises(ValueError, match="over the cap"):
        basis.count_basis(n, variant)


def test_ascent_cap_sits_between_the_largest_walks_that_fit_in_1_gib_and_the_next(monkeypatch):
    """The ascent sum at n=24 finishes under a 1 GiB address space and n=25
    runs out of memory (measured; see symfun.ASCENT_BYTES_CAP); the Schur
    fold passes the gate at n=17 and is refused at 18.  Each walk is
    stopped where it would take its first step, so nothing runs."""

    def started(*args):
        raise WalkStarted

    monkeypatch.setattr(symfun, "_ascent_step", started)
    with pytest.raises(WalkStarted):
        symfun.ascent_sum.__wrapped__(24, range(1, 24), ())
    with pytest.raises(WalkStarted):
        symfun.schur_fold(17, None, None)
    with pytest.raises(ValueError) as exc:
        symfun.ascent_sum.__wrapped__(25, range(1, 25), ())
    assert str(exc.value) == "the ascent sum at n=25 would hold about 3703 MB of packed values, over the cap of 3000 MB"
    with pytest.raises(ValueError) as exc:
        symfun.schur_fold(18, None, None)
    assert str(exc.value) == "the Schur fold at n=18 would hold about 3080 MB of packed values, over the cap of 3000 MB"
