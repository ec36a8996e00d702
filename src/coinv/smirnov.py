"""Segmented Smirnov words, their statistics, and the bijection to the basis.

A segmented word is a word with bars splitting it into blocks; inside a
block adjacent letters must differ.  When the content is (1^n) the words
are segmented permutations, and an insertion bijection matches them with
the a12 basis elements, carrying ascents to the theta-degree, descents to
the xi-degree and the sminversion count to the x-degree.
"""

import re
from functools import lru_cache
from typing import NamedTuple

from .basis import BasisElement
from .combinat import elements_of_mask
from .qpoly import ZERO, q_integer


class SegmentedWord(NamedTuple):
    """Letters plus the set of positions followed by a bar (1-based, sorted)."""

    letters: tuple
    splits: tuple

    @property
    def n(self):
        return len(self.letters)

    def blocks(self):
        """The blocks as a tuple of tuples."""
        out = []
        start = 0
        for s in self.splits:
            out.append(self.letters[start:s])
            start = s
        out.append(self.letters[start:])
        return tuple(out)

    def content(self):
        """Multiplicity vector: entry i-1 counts the letter i."""
        top = max(self.letters) if self.letters else 0
        counts = [0] * top
        for w in self.letters:
            counts[w - 1] += 1
        return tuple(counts)

    def is_valid(self):
        """Bars must strictly increase inside 1..n-1, so that no block is
        empty, and adjacent letters inside a block must differ."""
        n = len(self.letters)
        last = 0
        for s in self.splits:
            if not last < s < n:
                return False
            last = s
        bars = set(self.splits)
        return all(
            self.letters[i] != self.letters[i + 1]
            for i in range(len(self.letters) - 1)
            if i + 1 not in bars
        )

    def __str__(self):
        return format_word(self)


def format_word(word):
    """Word literal with spaces inside blocks and bars between, e.g. "2|1 3"."""
    return "|".join(" ".join(str(w) for w in blk) for blk in word.blocks())


def parse_word(text):
    """Parse a word literal; letters may have several digits.

    Every block needs a letter, so a leading, trailing or doubled bar is
    refused, as are equal adjacent letters inside a block.
    """
    letters = []
    splits = []
    for i, blk in enumerate(text.split("|")):
        tokens = blk.split()
        if not tokens:
            raise ValueError("empty block: %r" % text)
        if i:
            splits.append(len(letters))
        letters.extend(int(tok) for tok in tokens)
    word = SegmentedWord(tuple(letters), tuple(splits))
    if not word.is_valid():
        raise ValueError("equal adjacent letters inside a block: %r" % text)
    return word


# -- statistics ---------------------------------------------------------------


def ascent_descent_counts(word):
    """(k, l): numbers of within-block rises and falls."""
    return _rise_fall_counts(word.letters, _initial_flags(word))


def _rise_fall_counts(w, initial):
    """(k, l) of the letters w, with initial[p] true where a block starts."""
    k = l = 0
    for p in range(1, len(w)):
        if initial[p]:
            continue
        if w[p - 1] < w[p]:
            k += 1
        elif w[p - 1] > w[p]:
            l += 1
    return k, l


def _initial_flags(word):
    bars = set(word.splits)
    return [p == 0 or p in bars for p in range(len(word.letters))]


def _thick_flags(w, initial):
    """Per-position booleans: block-initial, or the lower end of a fall."""
    return [initial[p] or w[p - 1] > w[p] for p in range(len(w))]


def sminv(word):
    """Number of sminversions of a segmented word.

    A pair i < j with w_i > w_j counts when (1) w_j starts its block, or
    (2) w_{j-1} > w_i, or (3) i != j-1, w_{j-1} = w_i and w_{j-1} starts
    its block, or (4) i != j-1 and w_{j-2} > w_{j-1} = w_i.  On
    permutations only the first two can fire.
    """
    return _sminv_count(word.letters, _initial_flags(word))


def _sminv_count(w, initial):
    """sminv of the letters w, with initial[p] true where a block starts.

    Outside rule (1), a pair can count only below a fall w_{j-1} > w_j:
    rule (2) takes the w_i strictly between them, and rules (3) and (4)
    the earlier copies of w_{j-1} when w_{j-1} is thick.
    """
    count = 0
    for j in range(1, len(w)):
        low = w[j]
        if initial[j]:
            count += sum(map(low.__lt__, w[:j]))
            continue
        high = w[j - 1]
        if high <= low:
            continue
        thick = initial[j - 1] or (j >= 2 and w[j - 2] > high)
        for a in w[: j - 1]:
            if low < a < high or (thick and a == high):
                count += 1
    return count


def thick_thin(word):
    """Per-position flags: "thick" (block-initial or fall end) or "thin"."""
    return tuple(
        "thick" if t else "thin"
        for t in _thick_flags(word.letters, _initial_flags(word))
    )


def split_positions(word):
    """1-based splitting values of a segmented permutation (tuple output).

    The value m splits when, with i the position of m and j of m+1:
    i thick and j thin; or both thin with i < j; or both thick with j < i.
    """
    w = word.letters
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError("splitting values are defined for segmented permutations")
    return _split_values(w, _thick_flags(w, _initial_flags(word)))


def _split_values(w, thick):
    """split_positions of the permutation w, given its thick flags."""
    at = [0] * len(w)  # at[m - 1]: the position of m
    for p, letter in enumerate(w):
        at[letter - 1] = p
    out = []
    for m in range(1, len(w)):
        i, j = at[m - 1], at[m]
        ti, tj = thick[i], thick[j]
        if ti > tj or (ti == tj and (j < i) == ti):
            out.append(m)
    return tuple(out)


def word_statistics(word):
    """(k, l, sminv, splitting values) of a segmented permutation at once.

    Runs the kernels of ascent_descent_counts, sminv and split_positions
    on one set of block-initial flags.  Unlike split_positions it does not
    check that the letters are a permutation.
    """
    w = word.letters
    initial = _initial_flags(word)
    k, l = _rise_fall_counts(w, initial)
    return k, l, _sminv_count(w, initial), _split_values(w, _thick_flags(w, initial))


# -- enumeration ---------------------------------------------------------------


def _arrangements(counts, prefix):
    """Yield prefix + w for every word w of content `counts`, lexicographically."""
    if not any(counts):
        yield prefix
        return
    for letter, count in enumerate(counts, 1):
        if count:
            counts[letter - 1] -= 1
            yield from _arrangements(counts, prefix + (letter,))
            counts[letter - 1] += 1


def iter_segmented_words(content):
    """Yield every segmented Smirnov word of the given content vector.

    content[i] is the multiplicity of the letter i+1; content (1^n) gives
    the segmented permutations.  Words come ordered by letters
    (lexicographic) and then by the bitmask of the split set, where a bar
    is forced between equal neighbours.  A single pass holds one word at
    a time.
    """
    n = sum(content)
    if n < 1 or min(content) < 0:
        raise ValueError("needs a nonempty content of nonnegative multiplicities")
    # every split set, indexed by its bitmask: bit i-1 marks a bar after i
    splits_of = [elements_of_mask(mask, n) for mask in range(1 << (n - 1))]
    new = tuple.__new__  # skips SegmentedWord's Python-level __new__, as iter_basis does
    for letters in _arrangements(list(content), ()):
        forced = sum(1 << i for i in range(n - 1) if letters[i] == letters[i + 1])
        for mask, splits in enumerate(splits_of):
            if mask & forced == forced:
                yield new(SegmentedWord, (letters, splits))


def enumerate_segmented_words(content, k=None, l=None):
    """All segmented Smirnov words of the given content vector, as a list.

    Ordered as iter_segmented_words yields them.  Passing k and/or l
    filters on the ascent and descent counts.
    """
    out = []
    for word in iter_segmented_words(content):
        if k is not None or l is not None:
            ka, la = ascent_descent_counts(word)
            if k not in (None, ka) or l not in (None, la):
                continue
        out.append(word)
    return out


def enumerate_segmented_permutations(n, k=None, l=None):
    """All 2^(n-1) n! segmented permutations of {1,...,n}: the segmented
    Smirnov words of content (1^n), filtered on k and l alike.

    Public API: the commands stream iter_segmented_words instead, but this
    lists the paper's SW(1^n, k, l) by name.
    """
    return enumerate_segmented_words((1,) * n, k, l)


# -- the q-count recursion -------------------------------------------------------


@lru_cache(maxsize=None)
def sw_q(n, k, l):
    """The sminv generating polynomial over segmented permutations SW(1^n,k,l).

    Satisfies sw_q(n,k,l) = [n-k-l]_q (sw_q(n-1,k,l) + sw_q(n-1,k,l-1)
    + sw_q(n-1,k-1,l) + sw_q(n-1,k-1,l-1)), starting from the empty word.
    """
    if n < 0:
        raise ValueError("needs n >= 0")
    if n == 0:
        return q_integer(1) if k == 0 and l == 0 else ZERO
    if k < 0 or l < 0 or k + l >= n:
        return ZERO
    factor = q_integer(n - k - l)
    return factor * (
        sw_q(n - 1, k, l)
        + sw_q(n - 1, k, l - 1)
        + sw_q(n - 1, k - 1, l)
        + sw_q(n - 1, k - 1, l - 1)
    )


# -- the insertion bijection ------------------------------------------------------


def psi(element):
    """Map an a12 basis element to its segmented permutation.

    Letters 2..n are inserted in order; the exponent alpha_i names the
    block position counted from the right (starting at 1) where i lands:
    a bare up-step opens a new block there, a theta step appends to it, a
    xi step prepends to it, and a down-step replaces a bar with i so that
    the merged block sits there.
    """
    if element.variant != "a12":
        raise ValueError("psi is defined on a12 elements")
    blocks = [[1]]
    alpha, theta, xi = element.alpha, element.theta, element.xi
    for idx in range(1, element.n):
        i = idx + 1
        p = alpha[idx] + 1
        t, x = theta[idx], xi[idx]
        if t == 0 and x == 0:
            blocks.insert(len(blocks) - p + 1, [i])
        elif t == 1 and x == 0:
            blocks[len(blocks) - p].append(i)
        elif t == 0 and x == 1:
            blocks[len(blocks) - p].insert(0, i)
        else:
            j = len(blocks) - 1 - p
            blocks[j] = blocks[j] + [i] + blocks[j + 1]
            del blocks[j + 1]
    letters = []
    splits = []
    for blk in blocks[:-1]:
        letters.extend(blk)
        splits.append(len(letters))
    letters.extend(blocks[-1])
    return SegmentedWord(tuple(letters), tuple(splits))


def psi_inverse(word):
    """Invert psi: peel letters n, n-1, ..., 2 off the segmented permutation.

    A letter alone in its block was an up-step; last (resp. first) in a
    larger block, a theta (resp. xi) step; interior, a down-step whose
    removal re-inserts the bar.  The block position from the right gives
    alpha_i + 1.  The letters must be 1..n and the bars strictly increase
    inside 1..n-1; then the blocks partition the word, none is empty, and
    the peeling always finds i and ends at the block (1).
    """
    n = word.n
    if sorted(word.letters) != list(range(1, n + 1)):
        raise ValueError("psi_inverse needs a segmented permutation")
    last = 0
    for bar in word.splits:
        if not last < bar < n:
            raise ValueError("psi_inverse needs a segmented permutation")
        last = bar
    blocks = [list(blk) for blk in word.blocks()]
    alpha = [0] * n
    theta = [0] * n
    xi = [0] * n
    for i in range(n, 1, -1):
        for bi, blk in enumerate(blocks):
            if i in blk:
                break
        p = len(blocks) - bi
        alpha[i - 1] = p - 1
        where = blk.index(i)
        if len(blk) == 1:
            del blocks[bi]
        elif where == len(blk) - 1:
            theta[i - 1] = 1
            blk.pop()
        elif where == 0:
            xi[i - 1] = 1
            blk.pop(0)
        else:
            theta[i - 1] = 1
            xi[i - 1] = 1
            blocks[bi : bi + 1] = [blk[:where], blk[where + 1 :]]
    return BasisElement(tuple(alpha), tuple(theta), tuple(xi), "a12")


# A monomial_str with a leading "*" has its fermion factors from the first
# match on: every x factor comes before them.
_FERMION_FACTORS = re.compile(r"\*(?:th|xi)")

# grows[thick][lands_left]: whether the split set gains n-1, from n-1's
# thick flag and whether n lands left of n-1.  n is thick after up and xi
# steps, and then n-1 splits when it is thick and n lands left of it; n is
# thin after theta and down steps, and then n-1 splits when it is thick or
# n lands right of it.
_N_THICK = ((0, 0), (0, 1))
_N_THIN = ((1, 0), (1, 1))


class _Insertion(NamedTuple):
    """One way psi inserts its last letter n into the entries of size n-1
    with one bar mask: one step with one alpha_n = a.

    The child's bar mask is `mask`, and n goes in at index `at` of the
    letters.  sigma is cut at cut = bars[bar], the index in sigma of the
    bar in front of block `bar` (-1 for block 0), and glued back as
    sigma[:cut + lo] + text + sigma[cut + hi:].  Block `bar` starts at
    letter `at`, so while every letter is one digit, cut = 2 at - 1.  The
    monomial gains x_factor after its x factors and `fermions` at the end.
    k, l and sminv grow by dk, dl and a.  The split set gains n-1 when
    grows[thick][r < left] is 1, with thick n-1's thick flag and r the
    number of blocks right of n-1's block: n lands left of n-1 exactly
    when r < left.
    """

    mask: int
    at: int
    a: int
    bar: int
    lo: int
    hi: int
    text: str
    x_factor: str
    fermions: str
    dk: int
    dl: int
    left: int
    grows: tuple


def _insertions(mask, n):
    """Every insertion of n into the entries of size n-1 with bar mask
    `mask`, in psi_table's order.

    Each step takes each alpha_n = a in 0..h'-1, h' the block count after
    the step, so that a blocks lie right of n's block.  An up step opens a
    new block, a theta step appends n to a block, a xi step prepends it,
    and a down step merges two neighbouring blocks around it (so needs at
    least two).
    """
    m = n - 1
    s = str(n)
    # starts[b]: the letters before block b, for the h blocks and b = h
    starts = [0] + [i + 1 for i in range(m - 1) if mask >> i & 1] + [m]
    h = len(starts) - 1
    x_factor = ["", "*x" + s] + ["*x%d^%d" % (n, a) for a in range(2, h + 1)]
    th, xi = "*th" + s, "*xi" + s
    # up: n alone in front of the word
    out = [_Insertion((mask << 1) | 1, 0, h, 0, 1, 1, s + "|", x_factor[h], "", 0, 0, h, _N_THICK)]
    for a in range(h):
        b = h - 1 - a  # the block with a blocks right of it
        # n after block b: alone in a new block (up) or last in b (theta);
        # the bars from position `end` on move one right
        end = starts[b + 1]
        moved = (mask & ((1 << (end - 1)) - 1)) | (mask >> (end - 1) << end)
        out.append(_Insertion(moved | (1 << (end - 1)), end, a, b + 1, 0, 0, "|" + s, x_factor[a], "",
                              0, 0, a, _N_THICK))
        out.append(_Insertion(moved, end, a, b + 1, 0, 0, " " + s, x_factor[a], th, 1, 0, a, _N_THIN))
        # n before block b: first in b (xi) or, for b > 0, in place of the
        # bar in front of b (down); the bars after `begin` move one right
        begin = starts[b]
        low, high = mask & ((1 << begin) - 1), mask >> begin << (begin + 1)
        out.append(_Insertion(low | high, begin, a, b, 1, 1, s + " ", x_factor[a], xi, 0, 1, a + 1, _N_THICK))
        if b:
            out.append(_Insertion((low ^ (1 << (begin - 1))) | high, begin, a, b, 0, 1, " " + s + " ",
                                  x_factor[a], th + xi, 1, 1, a + 1, _N_THIN))
    return out


def _parent(mask, letters, monomial):
    """What every insertion reads from one psi_table entry of size m, beyond
    its sigma and statistics: (xs, fs, r, thick).

    xs and fs are the monomial's x and fermion factors, each factor with a
    leading "*", so that joining is concatenation.  r blocks lie right of
    m's block, and thick is 1 when m starts its block, as the largest
    letter ends no fall.
    """
    at = letters.index(len(letters))
    thick = 1 if at == 0 else (mask >> (at - 1)) & 1
    starred = "*" + monomial if monomial != "1" else ""
    cut = _FERMION_FACTORS.search(starred)
    cut = cut.start() if cut else len(starred)
    return starred[:cut], starred[cut:], (mask >> at).bit_count(), thick


def psi_table(n):
    """The bijection table of size n, one entry per a12 element, unsorted.

    Each entry is (bar mask, letters, sigma, monomial, k, l, sminv, split)
    for sigma = psi(element): the mask has bit s-1 set for a bar after
    position s, sigma is the word as format_word writes it, monomial is the
    element's monomial_str(), and k, l, sminv and split are the word's
    statistics.

    The entries of size n grow from those of size n-1 as psi inserts its
    last letter n, one child for each of the parent's `_insertions`.  A
    child's letters, sigma and mask are its parent's with n put in at one
    place, and its monomial is its parent's with x_n^a after the x factors
    and the step's fermion factors at the end.  The recursion holds one
    entry of each size, so the table streams.  Inserting n, the new
    largest letter, with a blocks right of its block:

    * k grows by 1 after theta and down steps (n follows a smaller letter
      in its block), l by 1 after xi and down steps (n precedes one).
    * sminv grows by a.  A pair (n, w_j) counts by rule 1 exactly when w_j
      starts one of the a blocks to the right; rule 2 would need a letter
      above n.  After a xi or down step the letter now after n used to
      start its block: the earlier letters it counted against by rule 1
      it now counts against by rule 2, since n exceeds them all.
    * The split set gains n-1 or nothing.  No old letter's thick flag
      changes (a letter that stops starting its block becomes the low end
      of the fall from n), and n is thick after up and xi steps, thin
      after theta and down steps.  So split_positions' rule for the pair
      (n-1, n) needs only n-1's thick flag, the number r of blocks right
      of n-1's block, and whether n lands left of n-1: a > r after up and
      theta steps, a >= r after xi and down steps.
    """
    if n < 1:
        raise ValueError("psi_table needs n >= 1")
    if n == 1:
        yield 0, (1,), "1", "1", 0, 0, 0, ()
        return
    new = (n,)
    insertions = {}  # parent bar mask -> its insertions
    for mask, letters, sigma, monomial, k, l, inv, split in psi_table(n - 1):
        xs, fs, r, thick = _parent(mask, letters, monomial)
        splits = split, split + (n - 1,)
        # bars[b]: the index in sigma of the bar in front of block b, -1
        # for block 0 and len(sigma) for the end; letters may have several
        # digits here
        bars = [-1]
        for label in sigma.split("|"):
            bars.append(bars[-1] + len(label) + 1)
        if mask not in insertions:
            insertions[mask] = _insertions(mask, n)
        for child, at, a, bar, lo, hi, text, x_factor, fermions, dk, dl, left, grows in insertions[mask]:
            cut = bars[bar]
            yield (child, letters[:at] + new + letters[at:], sigma[:cut + lo] + text + sigma[cut + hi:],
                   (xs + x_factor + fs + fermions)[1:] or "1", k + dk, l + dl, inv + a,
                   splits[grows[thick][r < left]])


def psi_groups(n, form, label):
    """The bijection table of size n <= 9, one bar mask's group at a time.

    Yields, for each bar mask in ascending order, the list of its n! rows
    sorted, each row form((sigma, monomial, k, l, sminv, split)) with split
    the cell label("{1,3}").  form is tuple for the rows themselves, or a
    function that makes each row its output line; sorting the rows must
    sort them as their sigmas.  label is called once per split label.

    Only the table of size m = n-1 is held, from psi_table, as columns per
    bar mask: the sigmas as one string of slices 2m-1 wide, since every
    letter is one digit, gathered as bytes; k, l, sminv, r, thick and the
    split set's id in one array of bytes, six to an entry; and the ids of
    the x and fermion factors in an array of two-byte ints, two to an
    entry.  The split
    labels and the factor strings are held once each, in lists that live
    for the call.  No entry has a tuple or a string of its own.  Each
    insertion of one parent mask lands on one child mask, so a group is
    grown from the parent groups whose insertions land on it, in one loop
    over the columns, sorted, yielded and dropped.  Inside one parent mask
    every sigma has its bars at the same places, so an insertion cuts
    sigma at the same index in each: the one in front of the letter at
    which n goes in.
    """
    if n == 1:
        yield [form(("1", "1", 0, 0, 0, label("{}")))]
        return
    # array is an extension module, about 76 KB resident once loaded;
    # loaded here, it stays out of the commands that use smirnov without
    # this table, such as verify
    from array import array

    m = n - 1
    width = 2 * m - 1
    masks = range(1 << (m - 1))
    sigmas = [bytearray() for _ in masks]
    stats = [array("B") for _ in masks]  # k, l, sminv, r, thick, split id
    ids = [array("H") for _ in masks]  # x factor id, fermion factor id
    split_ids, x_ids, f_ids = {}, {}, {}  # each distinct one -> its id
    for mask, letters, sigma, monomial, k, l, inv, split in psi_table(m):
        xs, fs, r, thick = _parent(mask, letters, monomial)
        sigmas[mask] += sigma.encode()
        stats[mask].extend((k, l, inv, r, thick, split_ids.setdefault(split, len(split_ids))))
        ids[mask].extend((x_ids.setdefault(xs, len(x_ids)), f_ids.setdefault(fs, len(f_ids))))
    # labels[s]: the labels of split set s without and with m
    labels = [(label("{%s}" % ",".join(map(str, split))), label("{%s}" % ",".join(map(str, split + (m,)))))
              for split in split_ids]
    xs, fs = list(x_ids), list(f_ids)
    del split_ids, x_ids, f_ids
    sources = [[] for _ in range(1 << m)]  # child mask -> (parent columns, insertion)
    for mask in masks:
        sigma, sigmas[mask] = sigmas[mask].decode(), None
        for insertion in _insertions(mask, n):
            sources[insertion.mask].append((sigma, stats[mask], ids[mask], insertion))
    for found in sources:
        rows = []
        for sigma, stat, idx, (_, at, a, _, lo, hi, text, x_factor, fermions, dk, dl, left, grows) in found:
            head, tail = 2 * at - 1 + lo, 2 * at - 1 + hi
            rows += [
                form((sigma[o:o + head] + text + sigma[o + tail:o + width],
                      (xs[x] + x_factor + fs[f] + fermions)[1:] or "1",
                      k + dk, l + dl, inv + a, labels[s][grows[thick][r < left]]))
                for o, k, l, inv, r, thick, s, x, f in zip(range(0, len(sigma), width), *[iter(stat)] * 6,
                                                           *[iter(idx)] * 2)
            ]
        rows.sort()
        yield rows


def longest_monomial(n):
    """The length of the longest monomial in psi_table(n), from the bar
    masks alone.

    Every entry of one bar mask takes the same insertions, and each
    insertion puts the same factors into every monomial it grows, so the
    longest monomial of each mask grows from the longest of a parent mask.
    """
    longest = [0]  # by bar mask: the longest starred monomial ("" for "1")
    for size in range(2, n + 1):
        grown = [0] * (1 << (size - 1))
        for mask, length in enumerate(longest):
            for insertion in _insertions(mask, size):
                child = length + len(insertion.x_factor) + len(insertion.fermions)
                grown[insertion.mask] = max(grown[insertion.mask], child)
        longest = grown
    return max(max(longest) - 1, 1)
