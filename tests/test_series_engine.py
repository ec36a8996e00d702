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
from coinv.combinat import Composition, IndexSubset, enumerate_partitions, set_of_comp
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
