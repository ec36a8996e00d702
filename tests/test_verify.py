"""The verify checks: their rewritten references against the versions they
replaced, and each check against a broken engine, which it must catch."""

import os
import time

import pytest

from coinv import basis, cli, motzkin, smirnov, symfun, verify
from coinv.combinat import Composition, IndexSubset
from coinv.qpoly import ZERO, QuvPolynomial, q_power
from coinv.smirnov import SegmentedWord


# -- the check table -------------------------------------------------------------


def test_checks_run_in_order_at_their_limits():
    """Every check's name and limit, in run order, written out: verify --n 7
    builds its expected stderr from CHECKS, so it would not catch a moved
    limit."""
    assert [(name, limit) for name, _, limit in verify.CHECKS] == [
        ("q-pascal", 12),
        ("q-chu-vandermonde", 10),
        ("eval-at-one", 8),
        ("set-comp-inverse", 10),
        ("path-counts", 8),
        ("cardinality-a", 8),
        ("cardinality-b", 8),
        ("specializations", 8),
        ("hilbert-stirling-a", 12),
        ("hilbert-stirling-b", 10),
        ("hilbert-dimension", 8),
        ("count-by-height", 8),
        ("count-type-b-refined", 8),
        ("bijection-suite", 7),
        ("sw-recursion", 7),
        ("frobenius-routes", 6),
        ("symmetry-witness", 8),
        ("h-mu-dual", 8),
        ("hook-identities", 12),
        ("hook-h-dual", 12),
        ("hook-characterization", 7),
        ("frobenius-specializations", 8),
        ("slinky", 8),
        ("oracle-type-a", 3),
        ("oracle-type-b", 2),
        ("oracle-exactness", 2),
    ]
    assert verify.ALL_CHECKS == [(name, check) for name, check, _ in verify.CHECKS]
    assert verify.LIMITS == {name: limit for name, _, limit in verify.CHECKS}


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


def test_oracle_checks_name_their_witnesses(monkeypatch):
    from coinv import oracle

    assert verify.check_oracle_type_a(2) is None
    assert verify.check_oracle_type_b(2) is None
    monkeypatch.setattr(basis, "hilbert_series", lambda n, variant: q_power(0) + q_power(0))
    assert verify.check_oracle_type_a(2) == "oracle differs from the conjectural Hilbert series at n=1"
    assert verify.check_oracle_type_b(2) == "type B oracle differs from the conjectural series at n=1"
    monkeypatch.setattr(oracle, "default_max_x_degree", lambda n, kind: 0)
    assert verify.check_oracle_type_a(2) == "oracle truncation band is nonzero at n=1"
    assert verify.check_oracle_type_b(2) == "type B oracle truncation band is nonzero at n=1"


def off_by_q(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) * q_power(1)


def test_h_mu_dual_catches_a_wrong_h_mu_coefficient(monkeypatch):
    monkeypatch.setattr(symfun, "h_mu_coefficient", off_by_q(symfun.h_mu_coefficient))
    assert verify.check_h_mu_dual(3) is not None


def test_h_mu_dual_sums_the_monomial_side_from_the_words(monkeypatch):
    """One word too many at the exponent (2, 1, 0) in every Q_S of size 3
    moves the m_(2,1) side, which is summed from the words of each Q_S and
    not read off the ascent table that h_mu_coefficient reads."""
    tally = verify._word_tally

    def one_word_too_many(subset):
        counts = dict(tally(subset))
        if subset.n == 3:
            counts[2, 1, 0] = counts.get((2, 1, 0), 0) + 1
        return counts

    monkeypatch.setattr(verify, "_word_tally", one_word_too_many)
    assert verify.check_h_mu_dual(3) == "h_mu dual-path fails at n=3 mu=2,1 (k=0,l=0)"


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


def add_at(fn, point, extra):
    """fn, with `extra` added to its value at the arguments `point`."""
    return lambda *args: fn(*args) + (extra if args == point else 0)


def test_q_pascal_catches_a_wrong_q_binomial(monkeypatch):
    monkeypatch.setattr(verify, "q_binomial", add_at(verify.q_binomial, (3, 1), q_power(5)))
    assert verify.check_q_pascal(4) == "q-Pascal fails at (3, 1)"


def test_q_chu_vandermonde_catches_a_wrong_q_binomial(monkeypatch):
    monkeypatch.setattr(verify, "q_binomial", add_at(verify.q_binomial, (2, 1), q_power(5)))
    assert verify.check_q_chu_vandermonde(4) == "q-Chu-Vandermonde fails at n=3 d=0 k=1 l=1"


def test_eval_at_one_catches_an_evaluation_that_is_not_the_coefficient_sum(monkeypatch):
    monkeypatch.setattr(QuvPolynomial, "evaluate", lambda self: sum(self.terms.values()) + 1)
    assert verify.check_eval_at_one(3) == "evaluation at 1 is not multiplicative at n=1"


def test_set_comp_inverse_catches_a_reversed_composition(monkeypatch):
    set_of_comp = verify.set_of_comp
    monkeypatch.setattr(verify, "set_of_comp", lambda comp: set_of_comp(Composition(comp.parts[::-1])))
    assert verify.check_set_comp_inverse(4) == "Set(Comp(S)) != S at {1}/n=3"


def test_cardinality_a_catches_a_wrong_count(monkeypatch):
    monkeypatch.setattr(basis, "count_basis", add_at(basis.count_basis, (3, "a12"), 1))
    assert verify.check_cardinality_a(4) == "a12 cardinality wrong at n=3"


def test_cardinality_b_catches_a_wrong_count(monkeypatch):
    monkeypatch.setattr(basis, "count_basis", add_at(basis.count_basis, (2, "b12"), 1))
    assert verify.check_cardinality_b(3) == "b12 cardinality wrong at n=2"


def test_cardinality_b_catches_a_wrong_counting_recursion(monkeypatch):
    monkeypatch.setattr(basis, "count_type_b", add_at(basis.count_type_b, (2,), 1))
    assert verify.check_cardinality_b(3) == "type B counting recursion wrong at n=2"


@pytest.mark.parametrize("name, kind", [("hilbert-stirling-a", "a"), ("hilbert-stirling-b", "b")])
def test_hilbert_stirling_catches_a_wrong_closed_form(monkeypatch, name, kind):
    monkeypatch.setattr(basis, "hilbert_11_formula", add_at(basis.hilbert_11_formula, (2, kind), q_power(1)))
    check = dict(verify.ALL_CHECKS)[name]
    assert check(3) == "%s12 Hilbert at v=0 differs from the q-Stirling form at n=2" % kind


def test_count_by_height_catches_a_wrong_recursion(monkeypatch):
    recursion = basis.count_by_height_recursion
    monkeypatch.setattr(basis, "count_by_height_recursion", add_at(recursion, (3, 1), 1))
    try:
        assert verify.check_count_by_height(4) == "count_by_height recursion differs at (3, 1)"
    finally:
        # the cached recursion called the broken one
        recursion.cache_clear()


def test_count_by_height_catches_a_dropped_path(monkeypatch):
    enumerate_paths = motzkin.enumerate_paths
    monkeypatch.setattr(motzkin, "enumerate_paths", lambda n, kind: enumerate_paths(n, kind)[:-1])
    assert verify.check_count_by_height(3) == "count_by_height enumeration differs at (1, 0)"


def test_count_type_b_refined_catches_a_wrong_recursion(monkeypatch):
    refined = basis.count_type_b_refined
    monkeypatch.setattr(basis, "count_type_b_refined", add_at(refined, (2, 1, "E"), 1))
    try:
        assert verify.check_count_type_b_refined(3) == "type B refined count differs at n=2 r=1 class=E"
    finally:
        # the cached recursion called the broken one
        refined.cache_clear()


def test_symmetry_witness_catches_a_term_that_is_not_symmetric(monkeypatch):
    frobenius_qsym = symfun.frobenius_qsym

    def with_q_1_3(n, k=None, l=None):
        out = frobenius_qsym(n, k=k, l=l)
        if n == 3:
            out.add(IndexSubset((1,), 3), q_power(0))  # Q_{{1},3} alone is not symmetric
        return out

    monkeypatch.setattr(symfun, "frobenius_qsym", with_q_1_3)
    assert verify.check_symmetry_witness(3) == "monomial expansion not symmetric at n=3 (k=0,l=0)"


def test_symmetry_witness_keeps_no_expansion_past_its_piece():
    """With the ascent tables and the word tallies of size 6 built first,
    the check's body at m=6 leaves the traced memory where it found it:
    each piece's monomial expansion is dropped before the next.  The body
    runs alone, since the check at 6 runs it at m = 1..6, and the tallies
    of one size are all that is kept, so the check would count those of
    size 6 again."""
    import gc
    import tracemalloc

    from coinv.combinat import enumerate_subsets

    for m in range(1, 7):
        symfun.frobenius_qsym(m)
    for subset in enumerate_subsets(6):
        verify._word_tally(subset)
    tracemalloc.start()
    try:
        # a full collection also empties the free lists of tuples and
        # dicts, whose blocks tracemalloc still counts
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        assert verify.check_symmetry_witness.__wrapped__(6) is None
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the cache that kept every piece's expansion grew by about 7 MB here
    assert grown < 16 * 1024, grown


def test_word_tallies_keep_only_the_size_in_hand():
    """symmetry-witness and h-mu-dual each run their bodies at m = 1..6,
    and afterwards only the tallies of size 6 are held: a tally of every
    size seen took 12.9 MB after verify --n 8."""
    assert verify.check_symmetry_witness(6) is None
    assert verify.check_h_mu_dual(6) is None
    info = verify._tallies_of_size.cache_info()
    assert info.currsize == 1
    held = verify._tallies_of_size(6)  # a hit: size 6 is the one kept
    assert verify._tallies_of_size.cache_info().misses == info.misses
    assert len(held) == 32 and {subset.n for subset in held} == {6}


def test_hook_identities_catch_a_wrong_closed_form(monkeypatch):
    broken = add_at(symfun.hook_qbinomial_formula, (2, 0, 1, 0), q_power(1))
    monkeypatch.setattr(symfun, "hook_qbinomial_formula", broken)
    assert verify.check_hook_identities(3) == "hook identity fails at n=2 d=0 k=0 l=1"


def test_hook_identities_catch_a_wrong_sign_character(monkeypatch):
    broken = add_at(symfun.sign_character_formula, (3, 1, 1), q_power(1))
    monkeypatch.setattr(symfun, "sign_character_formula", broken)
    assert verify.check_hook_identities(3) == "sign character form fails at n=3 k=1 l=1"


def test_hook_characterization_catches_a_wrong_test(monkeypatch):
    monkeypatch.setattr(symfun, "hook_asc_characterization", lambda element, d: False)
    element = basis.BasisElement((0,), (0,), (0,), "a12")
    assert verify.check_hook_characterization(3) == "hook ascent characterization differs at %s d=0" % (element,)


def test_slinky_catches_a_wrong_sign(monkeypatch):
    slinky = symfun.slinky

    def flipped(comp):
        sign, shape = slinky(comp)
        return symfun.SlinkyResult(-sign, shape) if len(comp.parts) == 2 else symfun.SlinkyResult(sign, shape)

    monkeypatch.setattr(symfun, "slinky", flipped)
    assert verify.check_slinky(3) == "slinky and straightening disagree at %s" % (Composition((1, 1)),)


def test_oracle_exactness_catches_ranks_that_move_with_the_window(monkeypatch):
    from coinv import oracle

    hilbert_via_oracle = oracle.hilbert_via_oracle

    def widened_differs(n, kind, max_x_degree=None):
        poly, complete, report = hilbert_via_oracle(n, kind, max_x_degree=max_x_degree)
        if max_x_degree is not None:
            report[0] = dict(report[0], ideal_rank=report[0]["ideal_rank"] + 1)
        return poly, complete, report

    monkeypatch.setattr(oracle, "hilbert_via_oracle", widened_differs)
    assert verify.check_oracle_exactness(2) == "per-degree ranks changed with a larger window at [0, 0, 0]"


def test_set_comp_inverse_catches_a_missing_subset(monkeypatch):
    enumerate_subsets = verify.enumerate_subsets
    monkeypatch.setattr(verify, "enumerate_subsets", lambda m: enumerate_subsets(m)[:-1])
    assert verify.check_set_comp_inverse(3) == "subset count wrong at n=1"


def test_set_comp_inverse_catches_a_composition_equality_by_identity(monkeypatch):
    # every Comp(Set(a)) is a new object, so no composition equals its round trip
    monkeypatch.setattr(Composition, "__eq__", lambda self, other: self is other)
    assert verify.check_set_comp_inverse(3) == "Comp(Set(a)) != a at 1"


def test_set_comp_inverse_catches_a_repeated_subset(monkeypatch):
    # the last subset replaced by the first: the count holds, the images collide
    enumerate_subsets = verify.enumerate_subsets

    def repeated(m):
        subsets = enumerate_subsets(m)
        return subsets[:-1] + subsets[:1]

    monkeypatch.setattr(verify, "enumerate_subsets", repeated)
    assert verify.check_set_comp_inverse(3) == "Comp is not injective at n=2"


def patch_paths(monkeypatch, kind, mutate):
    """Patch motzkin.enumerate_paths so that the paths of `kind` pass
    through mutate(list of paths)."""
    enumerate_paths = motzkin.enumerate_paths

    def mutated(n, variant):
        paths = list(enumerate_paths(n, variant))
        return mutate(paths) if variant == kind else paths

    monkeypatch.setattr(motzkin, "enumerate_paths", mutated)


def test_path_counts_catch_a_dropped_type_a_path(monkeypatch):
    patch_paths(monkeypatch, "a", lambda paths: paths[:-1])
    assert verify.check_path_counts(3) == "type A path count wrong at n=1"


def test_path_counts_catch_a_repeated_type_a_path(monkeypatch):
    patch_paths(monkeypatch, "a", lambda paths: paths[:-1] + paths[:1])
    assert verify.check_path_counts(3) == "duplicate type A paths at n=2"


def test_path_counts_catch_a_dropped_type_b_path(monkeypatch):
    patch_paths(monkeypatch, "b", lambda paths: paths[:-1])
    assert verify.check_path_counts(3) == "type A/type B count shift fails at n=1"


ONE_ELEMENT = basis.BasisElement((0,), (0,), (0,), "a12")  # the a12 basis at n = 1


def test_bijection_suite_catches_a_missing_segmented_permutation(monkeypatch):
    iter_segmented_words = smirnov.iter_segmented_words

    def all_but_the_first(content):
        words = iter_segmented_words(content)
        next(words)
        yield from words

    monkeypatch.setattr(smirnov, "iter_segmented_words", all_but_the_first)
    assert verify.check_bijection_suite(3) == "segmented permutation count wrong at n=1"


def test_bijection_suite_catches_an_invalid_word(monkeypatch):
    psi = smirnov.psi

    def bar_at_zero(element):
        word = psi(element)
        return SegmentedWord(word.letters, (0,) + word.splits)

    monkeypatch.setattr(smirnov, "psi", bar_at_zero)
    assert verify.check_bijection_suite(3) == "psi produced an invalid word for %s" % (ONE_ELEMENT,)


@pytest.mark.parametrize("slot, shifted, witness", [
    (0, lambda k: k + 1, "theta/xi degree not preserved at %s"),
    (2, lambda inv: inv + 1, "x-degree vs sminv fails at %s"),
    (3, lambda split: split + (1,), "Asc != Split at %s"),
])
def test_bijection_suite_catches_a_wrong_statistic(monkeypatch, slot, shifted, witness):
    word_statistics = smirnov.word_statistics

    def broken(word):
        stats = list(word_statistics(word))
        stats[slot] = shifted(stats[slot])
        return tuple(stats)

    monkeypatch.setattr(smirnov, "word_statistics", broken)
    assert verify.check_bijection_suite(3) == witness % (ONE_ELEMENT,)


class MiscountedBars(tuple):
    """Bars that iterate as they are but count one too many."""

    def __len__(self):
        return tuple.__len__(self) + 1


def test_bijection_suite_catches_a_wrong_block_count(monkeypatch):
    psi = smirnov.psi

    def miscounted(element):
        word = psi(element)
        return SegmentedWord(word.letters, MiscountedBars(word.splits))

    monkeypatch.setattr(smirnov, "psi", miscounted)
    assert verify.check_bijection_suite(3) == "block count identity fails at 1"


def test_bijection_suite_catches_a_missing_element(monkeypatch):
    iter_basis = basis.iter_basis
    monkeypatch.setattr(basis, "iter_basis", lambda n, variant: iter(list(iter_basis(n, variant))[:-1]))
    assert verify.check_bijection_suite(3) == "psi is not surjective at n=1"


def test_series_totals_catch_a_wrong_hilbert_series(monkeypatch):
    hilbert_series = basis.hilbert_series
    monkeypatch.setattr(basis, "hilbert_series", lambda n, variant: hilbert_series(n, variant) + q_power(5))
    assert verify.check_sw_recursion(3) == "sum of sw_q pieces differs from the Hilbert series at n=1"
    assert verify.check_frobenius_routes(3) == "Frobenius paired with h_1^n misses the Hilbert series at n=1"


def test_slinky_catches_a_shape_of_the_wrong_size(monkeypatch):
    from coinv.combinat import Partition

    monkeypatch.setattr(Partition, "n", property(lambda self: sum(self.parts) + 1))
    assert verify.check_slinky(3) == "slinky shape has the wrong size at 1"


def test_slinky_catches_a_hook_read_backwards(monkeypatch):
    # (2, 1) read as the composition (1, 2), which straightens to zero
    monkeypatch.setattr(verify, "Composition", lambda parts: Composition(tuple(parts)[::-1]))
    assert verify.check_slinky(3) == "hook composition does not fix itself at n=3 d=1"


# -- the lanes -------------------------------------------------------------------


def run_lanes(capsys, monkeypatch, cpus, *argv):
    """`verify argv` through cli.main with `cpus` usable CPUs, as (exit code
    or the type of the exception it raised, stdout, stderr).  Every worker
    must be reaped by then."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        try:
            code = cli.main(["verify", *argv])
        except Exception as exc:
            code = type(exc)
    out, err = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, out, err


def as_one_lane(capsys, monkeypatch, *argv):
    """The run on three lanes, checked against the one-lane run."""
    many = run_lanes(capsys, monkeypatch, 3, *argv)
    assert many == run_lanes(capsys, monkeypatch, 1, *argv)
    return many


def patch_check(monkeypatch, index, body):
    """Check `index` runs body(check, m) in place of check(m)."""
    checks = list(verify.ALL_CHECKS)
    name, check = checks[index]
    checks[index] = (name, lambda m: body(check, m))
    monkeypatch.setattr(verify, "ALL_CHECKS", checks)


def ok_lines(stop=None):
    return "".join("ok   %s\n" % name for name, _ in verify.ALL_CHECKS[:stop])


def test_lanes_print_in_check_order(capsys, monkeypatch):
    # the first check ends last, so its line waits for it
    patch_check(monkeypatch, 0, lambda check, m: time.sleep(0.3) or check(m))
    assert as_one_lane(capsys, monkeypatch, "--n", "4") == (0, ok_lines(), "".join(
        "verify: %s ran at n=%d (asked 4)\n" % (name, limit) for name, _, limit in verify.CHECKS if limit < 4
    ))


@pytest.mark.parametrize("index", [0, 13, 25])
def test_lanes_stop_at_the_first_failure(capsys, monkeypatch, index):
    name = verify.ALL_CHECKS[index][0]
    # an empty witness is a failure too: a check passes only when it returns None
    for form in ("forced at %d", ""):
        with monkeypatch.context() as patch:
            patch_check(patch, index, lambda check, m: form and form % m)
            code, out, _ = as_one_lane(capsys, monkeypatch, "--n", "2")
        assert (code, out) == (1, ok_lines(index) + "FAIL %s: %s\n" % (name, form and form % 2))


def test_no_lane_starts_a_check_above_a_known_failure(capsys, monkeypatch, tmp_path):
    started = tmp_path / "started"

    def record(index, body):
        def run(check, m):
            with open(started, "a") as f:
                f.write("%d\n" % index)
            return body(check, m)

        patch_check(monkeypatch, index, run)

    # the other two workers are busy in checks 1 and 2 when check 0 fails
    record(0, lambda check, m: "forced")
    for index in range(1, len(verify.ALL_CHECKS)):
        record(index, lambda check, m: time.sleep(0.3) or check(m))
    code, out, _ = run_lanes(capsys, monkeypatch, 3, "--n", "2")
    assert (code, out) == (1, "FAIL q-pascal: forced\n")
    assert set(started.read_text().split()) <= {"0", "1", "2"}


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_a_refusal_in_a_check_exits_2_after_the_lines_before_it(capsys, monkeypatch, error):
    def refuse(check, m):
        raise error("forced refusal")

    patch_check(monkeypatch, 13, refuse)
    assert as_one_lane(capsys, monkeypatch, "--n", "2") == (2, ok_lines(13), "forced refusal\n")


def test_any_other_exception_in_a_check_propagates(capsys, monkeypatch):
    patch_check(monkeypatch, 13, lambda check, m: 1 // 0)
    assert as_one_lane(capsys, monkeypatch, "--n", "2") == (ZeroDivisionError, ok_lines(13), "")


def every_check_in_a_worker(monkeypatch, act):
    """Every check runs act() first when a worker runs it."""
    caller = os.getpid()
    for index in range(len(verify.ALL_CHECKS)):
        patch_check(monkeypatch, index, lambda check, m: (os.getpid() != caller and act()) or check(m))


def test_a_check_that_raised_in_a_worker_is_run_again_at_its_turn(capsys, monkeypatch):
    """A check that raised, or failed, in a worker is run again by the
    caller, whose run decides its line."""

    def flaky():
        raise RuntimeError("only in a worker")

    for act in (flaky, lambda: "failed only in a worker"):
        with monkeypatch.context() as patch:
            every_check_in_a_worker(patch, act)
            assert run_lanes(capsys, monkeypatch, 3, "--n", "2") == (0, ok_lines(), "")


def test_the_checks_of_a_worker_that_died_are_run_by_the_caller(capsys, monkeypatch):
    every_check_in_a_worker(monkeypatch, lambda: os._exit(0))
    assert run_lanes(capsys, monkeypatch, 3, "--n", "2") == (0, ok_lines(), "")


def test_a_closed_stdout_reaps_every_worker(capsys, monkeypatch):
    class Head:
        """A stdout whose reader goes away after three lines, as `| head -3`."""

        lines = 0

        def write(self, text):
            if self.lines == 3:
                raise BrokenPipeError
            self.lines += text.count("\n")

        def flush(self):
            pass

        def fileno(self):
            return closed

    closed = os.open(os.devnull, os.O_WRONLY)
    monkeypatch.setattr("sys.stdout", Head())
    try:
        code, _, _ = run_lanes(capsys, monkeypatch, 3, "--n", "3")
    finally:
        os.close(closed)
    assert code == cli.EXIT_CLOSED_PIPE


def test_one_lane_forks_nothing(capsys, monkeypatch):
    forks = []
    fork = os.fork

    def count():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", count)
    assert run_lanes(capsys, monkeypatch, 1, "--n", "2") == (0, ok_lines(), "")
    assert forks == []
    # one worker per usable CPU
    assert run_lanes(capsys, monkeypatch, 3, "--n", "2") == (0, ok_lines(), "")
    assert forks == [os.getpid()] * 3
    monkeypatch.delattr(os, "fork")
    assert run_lanes(capsys, monkeypatch, 3, "--n", "2") == (0, ok_lines(), "")
