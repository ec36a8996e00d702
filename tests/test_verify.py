"""The verify checks: their rewritten references against the versions they
replaced, and each check against a broken engine, which it must catch."""

import pytest

from coinv import basis, motzkin, smirnov, symfun, verify
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


def reference_check_specializations(n):
    """The element-level check that the row comparison replaced: every
    basis streamed from iter_basis, compared as sorted byte strings."""
    for m in range(1, n + 1):
        via_12, via_02 = [], []
        for b in basis.iter_basis(m, "a12"):
            if not any(b.xi):
                via_12.append(bytes(b.alpha + b.theta))
            if not any(b.alpha):
                via_02.append(bytes(b.theta + b.xi))
        a11 = sorted(bytes(b.alpha + b.theta) for b in basis.iter_basis(m, "a11"))
        if sorted(via_12) != a11:
            return "a12 restricted to xi=0 differs from a11 at n=%d" % m
        a02 = sorted(bytes(b.theta + b.xi) for b in basis.iter_basis(m, "a02"))
        if sorted(via_02) != a02:
            return "a12 restricted to alpha=0 differs from a02 at n=%d" % m
        via_b = sorted(bytes(b.alpha + b.theta) for b in basis.iter_basis(m, "b12") if not any(b.xi))
        b11 = sorted(bytes(b.alpha + b.theta) for b in basis.iter_basis(m, "b11"))
        if via_b != b11:
            return "b12 restricted to xi=0 differs from b11 at n=%d" % m
    return None


def test_specializations_rows_agree_with_the_element_reference():
    for n in range(1, 6):
        assert verify.check_specializations(n) is None
        assert reference_check_specializations(n) is None


def test_specializations_run_at_n7():
    # the element-level reference would expand 82M b12 elements here
    assert verify.check_specializations(7) is None


def mutate_rows(monkeypatch, variant, mutate):
    """Patch basis.iter_rows so that the rows of `variant` pass through
    mutate(list of rows); iter_basis expands the mutated rows too."""
    iter_rows = basis.iter_rows

    def mutated(n, v):
        rows = list(iter_rows(n, v))
        return iter(mutate(rows) if v == variant else rows)

    monkeypatch.setattr(basis, "iter_rows", mutated)


def assert_both_catch_it():
    assert verify.check_specializations(3) is not None
    assert reference_check_specializations(3) is not None


@pytest.mark.parametrize("name, variant", [
    ("specializations", "a11"),
    ("specializations", "a02"),
    ("specializations", "b11"),
    ("hilbert-dimension", "a02"),
    ("frobenius-specializations", "a02"),
    ("frobenius-specializations", "a11"),
])
def test_streamed_checks_catch_a_dropped_element(monkeypatch, name, variant):
    if name == "specializations":
        # the check reads rows, so the last row goes
        mutate_rows(monkeypatch, variant, lambda rows: rows[:-1])
        assert_both_catch_it()
        return
    iter_basis = basis.iter_basis

    def drop_last(n, v):
        elements = list(iter_basis(n, v))
        return iter(elements[:-1] if v == variant else elements)

    monkeypatch.setattr(basis, "iter_basis", drop_last)
    check = dict(verify.ALL_CHECKS)[name]
    assert check(3) is not None


@pytest.mark.parametrize("variant", ["a11", "a02", "b11"])
def test_specializations_catch_a_repeated_element(monkeypatch, variant):
    # same count of rows, different multiset: the last row replaced by the first
    mutate_rows(monkeypatch, variant, lambda rows: rows[:-1] + rows[:1])
    assert_both_catch_it()


@pytest.mark.parametrize("variant", ["a12", "a11", "b12", "b11"])
def test_specializations_catch_a_lowered_bound(monkeypatch, variant):
    def lower(rows):
        # the last xi-free row with a positive bound entry loses one from
        # its largest entry; a row with xi carries no specialization, and
        # at n = 1 no bound is positive
        i = max((i for i, (_, xi, bound) in enumerate(rows) if not any(xi) and max(bound) > 0), default=None)
        if i is None:
            return rows
        theta, xi, bound = rows[i]
        j = bound.index(max(bound))
        rows[i] = theta, xi, bound[:j] + (bound[j] - 1,) + bound[j + 1:]
        return rows

    mutate_rows(monkeypatch, variant, lower)
    assert_both_catch_it()


def test_specializations_catch_an_a02_row_with_an_x_part(monkeypatch):
    # the (theta, xi) still match a12, but the box now holds x_n too
    def raise_last(rows):
        theta, xi, bound = rows[-1]
        rows[-1] = theta, xi, bound[:-1] + (1,)
        return rows

    mutate_rows(monkeypatch, "a02", raise_last)
    assert_both_catch_it()


def test_specializations_catch_a_flipped_xi_bit(monkeypatch):
    def flip(rows):
        theta, xi, bound = rows[-1]
        rows[-1] = theta, xi[:-1] + (1 - xi[-1],), bound
        return rows

    mutate_rows(monkeypatch, "a12", flip)
    assert_both_catch_it()


def test_specializations_refuse_a_negative_bound(monkeypatch):
    # an empty box: the rows could no longer stand for the elements
    def empty_last(rows):
        theta, xi, bound = rows[-1]
        rows[-1] = theta, xi, (-1,) + bound[1:]
        return rows

    mutate_rows(monkeypatch, "a11", empty_last)
    witness = verify.check_specializations(3)
    assert witness == "a11 row ((0,), (0,), (-1,)) has a negative bound entry at n=1"


def test_path_counts_catch_a_path_below_the_floor(monkeypatch):
    enumerate_paths = motzkin.enumerate_paths
    # MotzkinPath refuses this path, so it is forged past __post_init__
    forged = object.__new__(motzkin.MotzkinPath)
    object.__setattr__(forged, "steps", (motzkin.UP, motzkin.DOWN, motzkin.UP))
    object.__setattr__(forged, "variant", "a")

    def with_forged(n, variant):
        paths = enumerate_paths(n, variant)
        if (n, variant) == (3, "a"):
            paths[-1] = forged
        return paths

    monkeypatch.setattr(motzkin, "enumerate_paths", with_forged)
    assert verify.check_path_counts(3) == "type A floor violated by U D U"


def test_a12_checks_stream_the_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the check must stream iter_basis, not build the list")

    monkeypatch.setattr(basis, "enumerate_basis", refuse)
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
