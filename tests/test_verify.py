"""The verify checks: their rewritten references against the versions they
replaced, and each check against a broken engine, which it must catch."""

import pytest

from coinv import basis, smirnov, symfun, verify
from coinv.combinat import IndexSubset
from coinv.qpoly import ZERO, q_power
from coinv.smirnov import SegmentedWord


def reference_qsym_monomial_expansion(expansion):
    """The word-by-word expansion: one polynomial add per word."""
    n = expansion.n
    out = {}

    def words(prefix, pos, strict_at):
        if pos == n:
            yield tuple(prefix)
            return
        lo = prefix[-1] + (1 if pos in strict_at else 0) if prefix else 1
        for letter in range(lo, n + 1):
            prefix.append(letter)
            yield from words(prefix, pos + 1, strict_at)
            prefix.pop()

    for subset, coeff in expansion.coeffs.items():
        strict = set(subset.elements)
        for w in words([], 0, strict):
            exps = [0] * n
            for letter in w:
                exps[letter - 1] += 1
            key = tuple(exps)
            now = out.get(key, ZERO) + coeff
            if now:
                out[key] = now
            else:
                del out[key]
    return out


def test_qsym_monomial_expansion_matches_the_word_by_word_version():
    for n in range(1, 6):
        filters = [(None, None)] + [(k, l) for k in range(n) for l in range(n - k)]
        for k, l in filters:
            expansion = symfun.frobenius_qsym(n, k=k, l=l)
            assert verify.qsym_monomial_expansion(expansion) == reference_qsym_monomial_expansion(expansion), (n, k, l)


def test_qsym_monomial_expansion_drops_cancelled_vectors():
    # Q_{{},2} - Q_{{1},2}: the strictly rising words cancel
    expansion = symfun.QSymExpansion(2)
    expansion.add(IndexSubset((), 2), q_power(0))
    expansion.add(IndexSubset((1,), 2), -q_power(0))
    got = verify.qsym_monomial_expansion(expansion)
    assert got == reference_qsym_monomial_expansion(expansion) == {(2, 0): q_power(0), (0, 2): q_power(0)}


def test_hilbert_dimension_runs_b12_at_the_requested_n(monkeypatch):
    asked = []
    hilbert_series = basis.hilbert_series

    def record(n, variant):
        asked.append((n, variant))
        return hilbert_series(n, variant)

    monkeypatch.setattr(basis, "hilbert_series", record)
    assert verify.check_hilbert_dimension(7) is None
    assert max(n for n, variant in asked if variant == "b12") == 7


# -- mutation guards: break one side, and the check must name a witness ---------


def off_by_q(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) * q_power(1)


def test_h_mu_dual_catches_a_wrong_h_mu_coefficient(monkeypatch):
    monkeypatch.setattr(symfun, "h_mu_coefficient", off_by_q(symfun.h_mu_coefficient))
    assert verify.check_h_mu_dual(3) is not None


def test_sw_recursion_catches_a_wrong_sw_q(monkeypatch):
    sw_q = smirnov.sw_q
    monkeypatch.setattr(smirnov, "sw_q", off_by_q(sw_q))
    try:
        assert verify.check_sw_recursion(3) is not None
    finally:
        # the cached sw_q recursed through the broken one
        sw_q.cache_clear()


def test_hook_h_dual_catches_a_wrong_hook_h_coefficient(monkeypatch):
    monkeypatch.setattr(symfun, "hook_h_coefficient", off_by_q(symfun.hook_h_coefficient))
    assert verify.check_hook_h_dual(3) is not None


@pytest.mark.parametrize("name, variant", [
    ("specializations", "a11"),
    ("specializations", "a02"),
    ("specializations", "b11"),
    ("hilbert-dimension", "a02"),
    ("frobenius-specializations", "a02"),
    ("frobenius-specializations", "a11"),
])
def test_streamed_checks_catch_a_dropped_element(monkeypatch, name, variant):
    iter_basis = basis.iter_basis

    def drop_last(n, v):
        elements = list(iter_basis(n, v))
        return iter(elements[:-1] if v == variant else elements)

    monkeypatch.setattr(basis, "iter_basis", drop_last)
    check = dict(verify.ALL_CHECKS)[name]
    assert check(3) is not None


@pytest.mark.parametrize("variant", ["a11", "a02", "b11"])
def test_specializations_catch_a_repeated_element(monkeypatch, variant):
    # same count, different multiset: the last element replaced by the first
    iter_basis = basis.iter_basis

    def repeat_first(n, v):
        elements = list(iter_basis(n, v))
        if v == variant:
            elements[-1] = elements[0]
        return iter(elements)

    monkeypatch.setattr(basis, "iter_basis", repeat_first)
    assert verify.check_specializations(3) is not None


def test_a12_checks_stream_the_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the check must stream iter_basis, not build the list")

    monkeypatch.setattr(basis, "enumerate_basis", refuse)
    symfun._hook_h_table.cache_clear()
    assert verify.check_bijection_suite(4) is None
    assert verify.check_hook_characterization(4) is None
    assert verify.check_hook_h_dual(4) is None


def test_bijection_suite_catches_swapped_letters(monkeypatch):
    psi = smirnov.psi

    def swapped(element):
        word = psi(element)
        letters = list(word.letters)
        if len(letters) >= 2:
            letters[0], letters[-1] = letters[-1], letters[0]
        return SegmentedWord(tuple(letters), word.splits)

    monkeypatch.setattr(smirnov, "psi", swapped)
    assert verify.check_bijection_suite(3) is not None


def test_bijection_suite_catches_a_psi_that_is_not_injective(monkeypatch):
    psi = smirnov.psi

    def statistics(b):
        return b.deg_theta, b.deg_xi, b.deg_x, basis.ascent_positions(b.alpha, b.theta, b.xi)

    # two elements that every per-element statistic check accepts under
    # each other's word, so only the round trip can tell them apart
    by_statistics = {}
    for b in basis.enumerate_basis(4, "a12"):
        by_statistics.setdefault(statistics(b), []).append(b)
    first, second = next(group for group in by_statistics.values() if len(group) > 1)[:2]

    def merged(element):
        return psi(first if element == second else element)

    monkeypatch.setattr(smirnov, "psi", merged)
    assert verify.check_bijection_suite(4) == "psi round trip fails at %s" % (second,)


def test_frobenius_routes_catch_a_wrong_words_route(monkeypatch):
    via_words = verify.frobenius_qsym_via_words

    def broken(n, k=None, l=None):
        out = via_words(n, k=k, l=l)
        out.add(IndexSubset((), n), q_power(1))
        return out

    monkeypatch.setattr(verify, "frobenius_qsym_via_words", broken)
    assert verify.check_frobenius_routes(3) is not None
