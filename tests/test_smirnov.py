from itertools import accumulate, permutations, product
from math import factorial

import pytest

from coinv import verify
from coinv.basis import BasisElement, ascent_positions, enumerate_basis, hilbert_series
from coinv.qpoly import ONE, ZERO, QuvPolynomial, q_power
from coinv.smirnov import (
    SegmentedWord,
    ascent_descent_counts,
    enumerate_segmented_permutations,
    enumerate_segmented_words,
    format_word,
    iter_segmented_words,
    parse_word,
    psi,
    psi_inverse,
    psi_table,
    psi_walk,
    sminv,
    split_positions,
    sw_q,
    thick_thin,
    word_statistics,
)

from golden import BIJECTION_TABLES


def test_word_literals():
    w = parse_word("2|1 3")
    assert w.letters == (2, 1, 3)
    assert w.splits == (1,)
    assert format_word(w) == "2|1 3"
    assert parse_word("12 1|3").letters == (12, 1, 3)
    with pytest.raises(ValueError):
        parse_word("1 1|2")  # equal adjacent letters inside a block


@pytest.mark.parametrize("text", ["|1 2", "1||2", "1 2|"])
def test_word_literals_refuse_empty_blocks(text):
    with pytest.raises(ValueError, match="empty block"):
        parse_word(text)


@pytest.mark.parametrize("splits", [(0,), (1, 1), (2,), (2, 1)])
def test_bars_outside_the_word_or_out_of_order_are_invalid(splits):
    word = SegmentedWord((1, 2), splits)
    assert not word.is_valid()
    with pytest.raises(ValueError, match="needs a segmented permutation"):
        psi_inverse(word)


def test_blocks_and_validity():
    w = parse_word("1 3|2")
    assert w.blocks() == ((1, 3), (2,))
    assert w.is_valid()
    assert not SegmentedWord((1, 1, 2), ()).is_valid()
    assert SegmentedWord((1, 1, 2), (1,)).is_valid()


def test_ascent_descent_counts():
    assert ascent_descent_counts(parse_word("1 2 3")) == (2, 0)
    assert ascent_descent_counts(parse_word("3 2 1")) == (0, 2)
    assert ascent_descent_counts(parse_word("1|2|3")) == (0, 0)
    assert ascent_descent_counts(parse_word("2|1 3")) == (1, 0)


def test_enumeration():
    n2 = enumerate_segmented_permutations(2)
    assert [format_word(w) for w in n2] == ["1 2", "1|2", "2 1", "2|1"]
    assert len(enumerate_segmented_permutations(3)) == 24
    for n in range(1, 6):
        assert len(enumerate_segmented_permutations(n)) == (1 << (n - 1)) * factorial(n)
    # k, l filters and the block-count identity
    five = enumerate_segmented_permutations(3, k=1, l=1)
    assert len(five) == 4
    for w in five:
        assert len(w.blocks()) == 3 - 1 - 1


def test_enumerate_general_content():
    words = enumerate_segmented_words((2, 1))  # two 1's and one 2
    assert all(w.is_valid() for w in words)
    assert all(w.content() == (2, 1) for w in words)
    # 121 smirnov with any bars (4), plus the words forced to carry a bar
    assert len(set(words)) == len(words)
    texts = {format_word(w) for w in words}
    assert "1 2 1" in texts
    assert "1|1 2" in texts
    assert "1 1 2" not in texts
    for w in words:
        k, l = ascent_descent_counts(w)
        assert len(w.blocks()) == 3 - k - l


def test_sminv_tables():
    assert sminv(parse_word("2|1 3")) == 1
    assert sminv(parse_word("3|2|1")) == 3
    assert sminv(parse_word("1 2 3")) == 0
    assert sminv(parse_word("2 3|1")) == 2
    assert sminv(parse_word("3 2|1")) == 2


def test_sminv_general_content_conditions():
    # only the block-initial rule fires here: (2,1) in the first block is
    # excluded because i = j-1, so the single sminversion is (1,3)
    assert sminv(parse_word("2 1|1")) == 1
    # rule (3): the pair (1,4) has w_3 = w_1 = 2 with position 3 block-initial
    assert sminv(parse_word("2 1|2 1")) == 1
    # rule (4): the pair (1,4) has w_3 = w_1 = 2 and w_2 = 3 > w_3
    assert sminv(parse_word("2 3 2 1")) == 1


def test_thick_thin():
    w = parse_word("2|1 3")
    assert thick_thin(w) == ("thick", "thick", "thin")
    assert thick_thin(parse_word("3 2 1")) == ("thick", "thick", "thick")


def test_split_positions():
    assert split_positions(parse_word("1 3 2")) == (2,)
    assert split_positions(parse_word("2|3 1")) == (1,)
    assert split_positions(parse_word("3|1|2")) == (2,)
    assert split_positions(parse_word("1|2|3")) == ()


def test_sw_q_values():
    assert sw_q(1, 0, 0) == ONE
    assert sw_q(3, 1, 1) == QuvPolynomial({(1, 0, 0): 1, (0, 0, 0): 3})
    assert sw_q(2, 0, 0) == QuvPolynomial({(1, 0, 0): 1, (0, 0, 0): 1})
    assert sw_q(3, 2, 1) == ZERO


def test_sw_q_against_enumeration():
    for n in range(1, 6):
        for k in range(n):
            for l in range(n - k):
                direct = ZERO
                for w in enumerate_segmented_permutations(n, k=k, l=l):
                    direct = direct + q_power(sminv(w))
                assert direct == sw_q(n, k, l)


def test_psi_worked_example():
    b = BasisElement((0, 0, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1), "a12")
    assert format_word(psi(b)) == "5 1 3 4 2"


def test_psi_tables():
    for n, rows in BIJECTION_TABLES.items():
        by_monomial = {b.monomial_str(): b for b in enumerate_basis(n, "a12")}
        for sigma, monomial, k, l, inv, split in rows:
            b = by_monomial[monomial]
            word = psi(b)
            assert format_word(word) == sigma
            assert ascent_descent_counts(word) == (k, l)
            assert sminv(word) == inv
            got = "{%s}" % ",".join(str(s) for s in split_positions(word))
            assert got == split
            assert psi_inverse(word) == b
            assert ascent_positions(b.alpha, b.theta, b.xi) == split_positions(word)


def test_psi_inverse_examples():
    assert psi_inverse(parse_word("2|1 3")).monomial_str() == "x2*th3"
    assert psi_inverse(parse_word("3|2 1")).monomial_str() == "x3*xi2"
    assert psi_inverse(parse_word("1|2|3|4")).monomial_str() == "1"


def test_bijection_suite_small():
    assert verify.check_bijection_suite(5) is None


def test_hilbert_equivalence():
    for n in range(1, 6):
        total = ZERO
        for k in range(n):
            for l in range(n - k):
                piece = sw_q(n, k, l)
                shifted = QuvPolynomial({(a, b + k, c + l): co for (a, b, c), co in piece.terms.items()})
                total = total + shifted
        assert total == hilbert_series(n, "a12")


# -- the per-word statistics as they were written before the shared kernels ----


def reference_initial_flags(word):
    bars = set(word.splits)
    return [p == 0 or p in bars for p in range(len(word.letters))]


def reference_ascent_descent_counts(word):
    bars = set(word.splits)
    k = l = 0
    w = word.letters
    for i in range(len(w) - 1):
        if i + 1 in bars:
            continue
        if w[i] < w[i + 1]:
            k += 1
        elif w[i] > w[i + 1]:
            l += 1
    return k, l


def reference_sminv(word):
    w = word.letters
    n = len(w)
    initial = reference_initial_flags(word)
    count = 0
    for j in range(1, n):
        for i in range(j):
            if w[i] <= w[j]:
                continue
            if initial[j]:
                count += 1
            elif w[j - 1] > w[i]:
                count += 1
            elif i != j - 1 and w[j - 1] == w[i]:
                if initial[j - 1]:
                    count += 1
                elif j >= 2 and w[j - 2] > w[j - 1]:
                    count += 1
    return count


def reference_thick_thin(word):
    w = word.letters
    initial = reference_initial_flags(word)
    out = []
    for p in range(len(w)):
        if initial[p]:
            out.append("thick")
        elif w[p - 1] > w[p]:
            out.append("thick")
        else:
            out.append("thin")
    return tuple(out)


def reference_split_positions(word):
    w = word.letters
    n = len(w)
    kind = reference_thick_thin(word)
    pos = [0] * (n + 2)
    for p, letter in enumerate(w):
        pos[letter] = p
    out = []
    for m in range(1, n):
        i = pos[m]
        j = pos[m + 1]
        ti, tj = kind[i], kind[j]
        if ti == "thick" and tj == "thin":
            out.append(m)
        elif ti == tj == "thin" and i < j:
            out.append(m)
        elif ti == tj == "thick" and j < i:
            out.append(m)
    return tuple(out)


# Contents whose Smirnov words reach sminv rules (3) and (4).
SMIRNOV_CONTENTS = [(2, 1), (2, 2), (3, 1, 1), (2, 2, 1), (2, 1, 2, 1)]


def test_kernels_match_reference_on_segmented_permutations():
    for n in range(1, 7):
        for word in enumerate_segmented_permutations(n):
            assert sminv(word) == reference_sminv(word), word
            assert split_positions(word) == reference_split_positions(word), word
            assert thick_thin(word) == reference_thick_thin(word), word
            assert ascent_descent_counts(word) == reference_ascent_descent_counts(word), word


def rules_fired(word):
    """The sminv rules that count some pair of the word (first rule wins)."""
    w = word.letters
    initial = reference_initial_flags(word)
    out = set()
    for j in range(1, len(w)):
        for i in range(j):
            if w[i] <= w[j]:
                continue
            if initial[j]:
                out.add(1)
            elif w[j - 1] > w[i]:
                out.add(2)
            elif i != j - 1 and w[j - 1] == w[i]:
                if initial[j - 1]:
                    out.add(3)
                elif j >= 2 and w[j - 2] > w[j - 1]:
                    out.add(4)
    return out


def test_kernels_match_reference_on_smirnov_words():
    fired = set()
    for content in SMIRNOV_CONTENTS:
        for word in enumerate_segmented_words(content):
            assert sminv(word) == reference_sminv(word), word
            assert thick_thin(word) == reference_thick_thin(word), word
            assert ascent_descent_counts(word) == reference_ascent_descent_counts(word), word
            fired |= rules_fired(word)
    assert fired == {1, 2, 3, 4}


def reference_enumerate_segmented_permutations(n, k=None, l=None):
    """The permutation loop that enumerate_segmented_permutations replaced."""
    if n < 1:
        raise ValueError("needs n >= 1")
    out = []
    for perm in permutations(range(1, n + 1)):
        for mask in range(1 << (n - 1)):
            splits = tuple(i + 1 for i in range(n - 1) if mask >> i & 1)
            word = SegmentedWord(perm, splits)
            if k is not None or l is not None:
                ka, la = ascent_descent_counts(word)
                if k is not None and ka != k:
                    continue
                if l is not None and la != l:
                    continue
            out.append(word)
    return out


def reference_enumerate_segmented_words(content, k=None, l=None):
    """The list-building enumerator that iter_segmented_words replaced."""
    n = sum(content)
    if n < 1:
        raise ValueError("needs a nonempty content")
    words = []

    def rec(prefix, counts):
        if len(prefix) == n:
            words.append(tuple(prefix))
            return
        for letter in range(1, len(counts) + 1):
            if counts[letter - 1] == 0:
                continue
            counts[letter - 1] -= 1
            prefix.append(letter)
            rec(prefix, counts)
            prefix.pop()
            counts[letter - 1] += 1

    rec([], list(content))

    out = []
    for letters in words:
        equal_adjacent = [i + 1 for i in range(n - 1) if letters[i] == letters[i + 1]]
        forced = 0
        for p in equal_adjacent:
            forced |= 1 << (p - 1)
        free = [i for i in range(n - 1) if not forced >> i & 1]
        for mask in range(1 << len(free)):
            bits = forced
            for idx, i in enumerate(free):
                if mask >> idx & 1:
                    bits |= 1 << i
            splits = tuple(i + 1 for i in range(n - 1) if bits >> i & 1)
            word = SegmentedWord(letters, splits)
            if k is not None or l is not None:
                ka, la = ascent_descent_counts(word)
                if k is not None and ka != k:
                    continue
                if l is not None and la != l:
                    continue
            out.append(word)
    return out


def kl_filters(n):
    """Every (k, l) filter up to n = 5; beyond, one filter of each shape."""
    if n <= 5:
        return list(product([None, *range(n)], repeat=2))
    return [(None, None), (2, None), (None, 1), (1, 2)]


def test_enumerators_match_the_replaced_loops():
    for n in range(1, 7):
        for k, l in kl_filters(n):
            expected = reference_enumerate_segmented_permutations(n, k, l)
            assert enumerate_segmented_permutations(n, k, l) == expected, (n, k, l)
            assert reference_enumerate_segmented_words((1,) * n, k, l) == expected, (n, k, l)
    for content in SMIRNOV_CONTENTS + [(1, 2), (3, 2), (0, 2, 1)]:
        for k, l in kl_filters(sum(content)):
            expected = reference_enumerate_segmented_words(content, k, l)
            assert enumerate_segmented_words(content, k, l) == expected, (content, k, l)


def test_iter_segmented_words_yields_valid_words_and_refuses_bad_contents():
    for content in [(1,), (1, 1, 1, 1), *SMIRNOV_CONTENTS]:
        for word in iter_segmented_words(content):
            assert type(word) is SegmentedWord and word.is_valid()
            assert word.content() == content
    for bad in [(), (0, 0), (2, -1)]:
        with pytest.raises(ValueError):
            next(iter_segmented_words(bad))
    with pytest.raises(ValueError):
        enumerate_segmented_permutations(0)


def test_split_positions_still_refuses_non_permutations():
    with pytest.raises(ValueError):
        split_positions(parse_word("1 2|1"))
    with pytest.raises(ValueError):
        split_positions(parse_word("1 3"))


def test_thick_thin_still_returns_strings():
    assert thick_thin(parse_word("1 3|2 1")) == ("thick", "thin", "thick", "thick")


def word_of_blocks(blocks):
    letters = tuple(x for blk in blocks for x in blk)
    return SegmentedWord(letters, tuple(accumulate(len(blk) for blk in blocks[:-1])))


def test_psi_walk_is_psi_on_every_element():
    # monomial_str() is injective on the a12 basis of one size, so equal
    # (monomial, word) sets mean the walk pairs each element with psi of it
    for n in range(1, 7):
        leaves = list(psi_walk(n))
        assert len(leaves) == (1 << (n - 1)) * factorial(n)
        walked = set()
        for monomial, blocks, labels, *_ in leaves:
            word = word_of_blocks(blocks)
            assert "|".join(labels) == format_word(word)
            walked.add((monomial, word))
        expected = {(b.monomial_str(), psi(b)) for b in enumerate_basis(n, "a12")}
        assert len(expected) == len(leaves)
        assert walked == expected


def test_psi_walk_rejects_n_below_one():
    with pytest.raises(ValueError):
        list(psi_walk(0))


def test_psi_table_carries_the_statistics_of_every_leaf():
    # each entry's k, l, sminv, split and mask against the kernels run on
    # the entry's own word, built from its sigma literal
    for n in range(1, 7):
        entries = list(psi_table(n))
        assert len(entries) == (1 << (n - 1)) * factorial(n)
        for mask, letters, sigma, _, k, l, inv, split in entries:
            word = parse_word(sigma)
            assert word.letters == letters
            assert mask == sum(1 << (s - 1) for s in word.splits)
            assert (k, l, inv, split) == word_statistics(word), sigma
            assert split == split_positions(word)
