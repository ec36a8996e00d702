"""Segmented Smirnov words, their statistics, and the bijection to the basis.

A segmented word is a word with bars splitting it into blocks; inside a
block adjacent letters must differ.  When the content is (1^n) the words
are segmented permutations, and an insertion bijection matches them with
the a12 basis elements, carrying ascents to the theta-degree, descents to
the xi-degree and the sminversion count to the x-degree.
"""

from functools import lru_cache
from typing import NamedTuple

from .basis import BasisElement
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
    splits_of = [tuple(i + 1 for i in range(n - 1) if mask >> i & 1) for mask in range(1 << (n - 1))]
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
    alpha_i + 1.
    """
    n = word.n
    if sorted(word.letters) != list(range(1, n + 1)):
        raise ValueError("psi_inverse needs a segmented permutation")
    blocks = [list(blk) for blk in word.blocks()]
    alpha = [0] * n
    theta = [0] * n
    xi = [0] * n
    for i in range(n, 1, -1):
        for bi, blk in enumerate(blocks):
            if i in blk:
                break
        else:
            raise ValueError("letter %d missing" % i)
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
    # a segmented permutation always peels down to the block (1); an empty
    # block, left by a bar at 0, at n or out of order, survives the peeling
    if blocks != [[1]]:
        raise ValueError("psi_inverse needs a segmented permutation")
    return BasisElement(tuple(alpha), tuple(theta), tuple(xi), "a12")


def psi_walk(n):
    """Every a12 element of size n with its image under psi, from one walk.

    A depth-first walk over psi's insertion tree: a node holds the blocks
    after letters 1..i-1, and its children insert i once for each step and
    each alpha_i = a in 0..h_i-1, h_i the block count after the step, so
    that a blocks lie right of i's block.  An up step opens a new block, a
    theta step appends i to a block, a xi step prepends it, and a down step
    merges two neighbouring blocks around it (so needs at least two).  Each
    node carries the element's monomial factors and each block's formatted
    string, so a leaf costs one join instead of n insertions and a
    reformat.

    Yields one (monomial, blocks, labels, k, l, sminv, split) tuple per
    element, in no particular order: monomial is the element's
    monomial_str(), blocks are those of psi(element) as tuples of letters,
    labels are the blocks as format_word writes them, and k, l, sminv and
    split are the word's statistics.  They are carried down the tree by
    three update rules per insertion: k and l by the step, sminv by a, and
    the split set by i-1 or nothing (psi_table states them in full).
    """
    if n < 1:
        raise ValueError("psi_walk needs n >= 1")
    # A node is (size, blocks, labels, x factors, fermion factors, k, l,
    # sminv, split, r, thick) with r and thick those of its largest letter.
    # Factors are kept with a leading "*" so that joining is concatenation.
    stack = [(1, ((1,),), ("1",), "", "", 0, 0, 0, (), 0, True)]
    while stack:
        size, blocks, labels, xs, fs, k, l, inv, split, r, thick = stack.pop()
        if size == n:
            yield (xs + fs)[1:] or "1", blocks, labels, k, l, inv, split
            continue
        i = size + 1
        s = str(i)
        x_factor = ["", "*x" + s] + ["*x%d^%d" % (i, a) for a in range(2, i)]
        up_fs, th_fs, xi_fs, down_fs = fs, fs + "*th" + s, fs + "*xi" + s, fs + "*th%s*xi%s" % (s, s)
        # i - 1 splits when it is thick and i, thick, lands left of it, or
        # when i is thin and i - 1 is thick or has i on its right
        grown = split + (size,)
        h = len(blocks)
        for a in range(h + 1):
            at = h - a
            stack.append((i, blocks[:at] + ((i,),) + blocks[at:],
                          labels[:at] + (s,) + labels[at:], xs + x_factor[a], up_fs,
                          k, l, inv + a, grown if thick and a > r else split, a, True))
        for a in range(h):
            at = h - 1 - a
            before, after = blocks[:at], blocks[at + 1:]
            lbefore, lafter = labels[:at], labels[at + 1:]
            blk, lab, child_xs = blocks[at], labels[at], xs + x_factor[a]
            stack.append((i, before + (blk + (i,),) + after,
                          lbefore + (lab + " " + s,) + lafter, child_xs, th_fs,
                          k + 1, l, inv + a, grown if thick or a <= r else split, a, False))
            stack.append((i, before + ((i,) + blk,) + after,
                          lbefore + (s + " " + lab,) + lafter, child_xs, xi_fs,
                          k, l + 1, inv + a, grown if thick and a >= r else split, a, True))
        for a in range(h - 1):
            at = h - 2 - a
            stack.append((i, blocks[:at] + (blocks[at] + (i,) + blocks[at + 1],) + blocks[at + 2:],
                          labels[:at] + (labels[at] + " " + s + " " + labels[at + 1],) + labels[at + 2:],
                          xs + x_factor[a], down_fs, k + 1, l + 1, inv + a,
                          grown if thick or a < r else split, a, False))


def psi_table(n):
    """The bijection table of size n, one entry per a12 element, unsorted.

    Each entry is (bar mask, letters, sigma, monomial, k, l, sminv, split)
    for sigma = psi(element): the mask has bit s-1 set for a bar after
    position s.  The columns are carried down psi_walk's insertion tree,
    so a leaf only packs its letters and mask from its blocks.  Inserting
    i, the new largest letter, with a blocks right of its block:

    * k grows by 1 after theta and down steps (i follows a smaller letter
      in its block), l by 1 after xi and down steps (i precedes one).
    * sminv grows by a.  A pair (i, w_j) counts by rule 1 exactly when w_j
      starts one of the a blocks to the right; rule 2 would need a letter
      above i.  After a xi or down step the letter now after i used to
      start its block: the earlier letters it counted against by rule 1
      it now counts against by rule 2, since i exceeds them all.
    * The split set gains i-1 or nothing.  No old letter's thick flag
      changes (a letter that stops starting its block becomes the low end
      of the fall from i), and i is thick after up and xi steps, thin
      after theta and down steps.  So split_positions' rule for the pair
      (i-1, i) needs only i-1's thick flag, the number r of blocks right
      of i-1's block, and whether i lands left of i-1: a > r after up and
      theta steps, a >= r after xi and down steps.
    """
    for monomial, blocks, labels, k, l, inv, split in psi_walk(n):
        letters = blocks[0]
        mask = 0
        for blk in blocks[1:]:
            mask |= 1 << (len(letters) - 1)
            letters += blk
        yield mask, letters, "|".join(labels), monomial, k, l, inv, split
