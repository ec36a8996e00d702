"""Brute-force verification of the basis conjectures on the quotient rings.

Works directly with the polynomial-exterior algebra on x, theta and xi
variables: symmetrize every monomial of a multidegree to span the
invariants, span the ideal piece by invariant-times-monomial products, and
read off the quotient dimension from an exact integer rank.  Everything is
deterministic: fixed monomial order, fixed pivot rule (the largest column
of each row, which in the canonical order of `_monomial_codes` is its
x_1-heaviest monomial), no floats.  The elimination keeps its pivot rows
fully reduced, so each row is cleared in one pass (see `_Echelon`).

Every graded piece, alone or in a window, takes one path: its size comes
from the closed form `ambient_size` and is checked against
`DEFAULT_MONOMIAL_CAP` before anything is eliminated (for a window, before
its first piece), and its rank from `_ideal_rank`.  `coinv oracle` and
verify's oracle checks judge a window by `compare_with_conjecture`.

The hot paths are exact shortcuts of the plain definitions, which the
tests keep as references (tests/oracle_reference.py, which also holds the
monomial type and the monomial lists they read).  A monomial is a packed
integer code, and each degree's codes are made once (`_monomial_codes`):
invariants symmetrize one code per orbit through a precomputed S_n action
table, type B ones too (the sign flips only scale or cancel an S_n orbit
sum), and ideal rows take the code of a product as the sum of its
factors' codes, with the fermionic sign read from a memo (`_product_sign`).
"""

from collections import defaultdict
from functools import lru_cache
from itertools import permutations, product
from math import comb, gcd

from . import basis
from .qpoly import QuvPolynomial


@lru_cache(maxsize=None)
def _compositions_of(total, slots):
    """Weak compositions of total into slots parts, lexicographic."""
    if slots == 0:
        return ((),) if total == 0 else ()
    return tuple(
        (first,) + rest for first in range(total + 1) for rest in _compositions_of(total - first, slots - 1)
    )


def _masks_of(n, count):
    """The masks over n variables with count bits set, ascending."""
    return [m for m in range(1 << n) if m.bit_count() == count]


# -- group actions ------------------------------------------------------------


def _permute_mask(mask, perm):
    """Move mask bits through the permutation, with the reordering sign."""
    images = [perm[i] for i in range(mask.bit_length()) if mask >> i & 1]
    sign = 1
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] > images[j]:
                sign = -sign
    new_mask = 0
    for b in images:
        new_mask |= 1 << b
    return sign, new_mask


@lru_cache(maxsize=None)
def _action_table(n):
    """The symmetric group S_n as (inverse perm, mask images) pairs.

    One entry per permutation, in the order of `itertools.permutations`;
    mask_images[mask] is `_permute_mask(mask, perm)`, so the fermionic
    part of the action becomes two lookups.  Type B needs no table of its
    own: see `invariant_subspace`.
    """
    table = []
    for perm in permutations(range(n)):
        inverse = [0] * n
        for i, p in enumerate(perm):
            inverse[p] = i
        table.append((tuple(inverse), tuple(_permute_mask(mask, perm) for mask in range(1 << n))))
    return tuple(table)


def _table_images(code, table, n, width):
    """Yield (sign, image) of the monomial packed in code (see
    `_monomial_codes`, at the given digit width) under every permutation
    of the table.

    The permutation sends x_i, theta_i and xi_i to the variables of slot
    perm[i]: the x digits are read in the order of the inverse permutation,
    and the masks go through the table, whose sign is the reordering
    parity of the fermionic factors.  Images are codes of the same width.
    """
    half = (1 << n) - 1
    tmask, xmask = code >> n & half, code & half
    digit = (1 << width) - 1
    xexp = [code >> 2 * n + width * i & digit for i in range(n)]
    for inverse, mask_images in table:
        s1, tm = mask_images[tmask]
        s2, xm = mask_images[xmask]
        packed = 0
        for i in reversed(inverse):
            packed = packed << width | xexp[i]
        yield s1 * s2, (packed << n | tm) << n | xm


@lru_cache(maxsize=None)
def _product_sign(t1, f1, t2, f2):
    """Reordering sign of theta_t1 xi_f1 * theta_t2 xi_f2 for disjoint masks.

    Thetas of the second factor cross the xis of the first (one sign per
    crossing pair), then each fermionic family merges with its own sorting
    sign: one per pair of a factor of the second below one of the first.
    """
    parity = t2.bit_count() * f1.bit_count()
    for mine, other in ((t1, t2), (f1, f2)):
        while other:
            low = other & -other
            parity += (mine >> low.bit_length()).bit_count()
            other ^= low
    return -1 if parity & 1 else 1


@lru_cache(maxsize=None)
def _monomial_codes(n, degree, width):
    """The monomials of the multidegree (r, s, t) in canonical order, as
    packed integers: the x exponents run over the weak compositions of r
    in lexicographic order, and within each, the theta masks with s bits
    and then the xi masks with t bits ascend.

    A code is (x exponents in base 2**width, x_1 lowest) << 2n | tmask << n
    | xmask, so width r.bit_length() holds every exponent.  For two
    monomials with disjoint masks whose exponents add up to less than
    2**width, the code of the product monomial is the sum of the codes.
    The order does not depend on width, so a column index means the same
    monomial at every width.  Built once per (n, degree, width): a window
    asks for each degree's codes once as an ambient piece (which is also
    what its invariants index) and again as factors and complements of
    every piece above it.
    """
    r, s, t = degree
    if s > n or t > n:
        return ()
    masks = [tm << n | xm for tm in _masks_of(n, s) for xm in _masks_of(n, t)]
    out = []
    for xexp in _compositions_of(r, n):
        packed = 0
        for e in reversed(xexp):
            packed = packed << width | e
        packed <<= 2 * n
        out.extend([packed | m for m in masks])
    return tuple(out)


# -- exact rank ---------------------------------------------------------------


class _Echelon:
    """Incremental integer row reduction with a fixed pivot rule.

    Rows are sparse dicts over column indices.  The stored rows are kept
    fully reduced: each holds its lead (its largest column, with a positive
    entry) and otherwise only non-pivot columns, and is gcd-normalized.
    An incoming row, copied, is reduced fraction-free in one pass: the
    stored row of each pivot column it holds is subtracted once, and since
    that fills in only non-pivot columns, nothing cascades.  A surviving
    row takes its largest column as lead and is gcd-normalized; that
    column is then cleared from every stored row holding it, each of
    which is gcd-normalized again.  `holders` lists, per non-pivot column,
    the leads of the stored rows that held it when it was listed; entries
    whose column has cancelled since are skipped.

    The leads are those of any elimination that pivots on the largest
    column: the columns that lead some vector of the row space.  So every
    insert returns what a plain echelon returns, and only the stored rows
    differ; they are the unique fully reduced basis of the row space.  The
    price is memory: reduced rows are denser mid-elimination, and their
    coefficients larger.  `pivots` is insertion-ordered, its newest value
    the row stored last.
    """

    def __init__(self):
        self.pivots = {}  # leading column -> row dict
        self.holders = defaultdict(list)  # non-pivot column -> leads of stored rows that held it

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, row):
        """Reduce a row; store it if independent.  Returns True if rank grew."""
        row = dict(row)
        if 0 in row.values():
            row = {c: v for c, v in row.items() if v}
        get = row.get
        pivots = self.pivots
        # Stored rows hold no pivot column but their lead, so subtracting
        # them fills in only non-pivot columns: one pass clears the row.
        for lead in pivots.keys() & row.keys():
            pivot = pivots[lead]
            if len(pivot) == 1:  # {lead: 1}
                del row[lead]
                continue
            a, b = pivot[lead], row[lead]
            if a == 1:
                mb = b
            else:
                g = gcd(a, b)
                ma, mb = a // g, b // g
                if ma != 1:
                    for c in row:
                        row[c] *= ma
            for c, v in pivot.items():
                w = get(c)
                if w is None:
                    row[c] = -v * mb
                else:
                    w -= v * mb
                    if w:
                        row[c] = w
                    else:
                        del row[c]
        if not row:
            return False
        lead = max(row)
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        a = row[lead]
        # Clear the new lead from every stored row that holds it; a holder
        # whose entry cancelled since it was listed is skipped.
        holders = self.holders
        for h in holders.pop(lead, ()):
            held = pivots[h]
            b = held.get(lead)
            if b is None:
                continue
            g = gcd(a, b)
            ma, mb = a // g, b // g
            if ma != 1:
                held = {c: v * ma for c, v in held.items()}
            for c, v in row.items():
                w = held.get(c)
                if w is None:
                    held[c] = -v * mb
                    holders[c].append(h)
                else:
                    w -= v * mb
                    if w:
                        held[c] = w
                    else:
                        del held[c]
            if held[h] != 1:
                g = gcd(*held.values())
                if g != 1:
                    held = {c: v // g for c, v in held.items()}
            pivots[h] = held
        for c in row:
            holders[c].append(lead)
        del holders[lead]
        pivots[lead] = row
        return True


# -- graded pieces of the quotient ----------------------------------------------


@lru_cache(maxsize=None)
def invariant_subspace(n, group_kind, degree):
    """Independent spanning vectors of the invariants in one multidegree.

    Reduces the Reynolds image of every monomial of the degree, in order,
    to an echelon basis.  The monomials are the packed codes of
    `_monomial_codes(n, degree, r.bit_length())`, the tuple that
    `_ideal_rank` caches as the ambient piece of this degree.  Only the
    first monomial of each orbit is symmetrized: if g.m = e.m' with
    e = +-1, then R(m') = e.R(m).  Vectors are sparse dicts over the
    canonical monomial index of the degree, in descending order of their
    pivot (largest) column.

    Type B symmetrizes through S_n alone.  Write deg_i(m) for the total
    degree of slot i (its x exponent plus its theta and xi bits); negating
    the slots of a set F multiplies m by (-1)^(sum of deg_i over F), so the
    2^n sign flips sum to 2^n when every deg_i is even and to 0 otherwise.
    Hence R_B(m) = 2^n R_A(m) for a monomial with even slots, and
    R_B(m) = 0 for any other; the rows are those of the hyperoctahedral sum.
    The parity of deg_i is bit i of tmask ^ xmask plus the lowest bit of
    the i-th x digit of the code, so a monomial has an odd slot exactly
    when those mask bits, moved to the digits' lowest bits, differ from
    the digits' own lowest bits.
    """
    if group_kind not in ("a", "b"):
        raise ValueError("group_kind must be 'a' or 'b'")
    if group_kind == "b" and sum(degree) & 1:
        return ()  # the slot degrees add up to an odd total, so one is odd
    width = degree[0].bit_length()
    basis = _monomial_codes(n, degree, width)
    index = {code: i for i, code in enumerate(basis)}
    table = _action_table(n)
    shift = n if group_kind == "b" else 0
    if shift:
        # spread[mask]: bit i of mask at the lowest bit of x digit i (at
        # width 0 every digit is 0, and spread[mask] is 0 only for mask 0)
        spread = [sum((mask >> i & 1) << width * i for i in range(n)) for mask in range(1 << n)]
        half, lows = (1 << n) - 1, spread[-1]
    ech = _Echelon()
    known = {}  # later orbit member -> (e, R(first member))
    for i, code in enumerate(basis):
        if shift and spread[(code >> n ^ code) & half] ^ (code >> 2 * n & lows):
            continue
        if i in known:
            sign, row = known.pop(i)
            if sign < 0:
                row = {c: -v for c, v in row.items()}
        else:
            sums = {}
            signs = {}
            for sign, image in _table_images(code, table, n, width):
                j = index[image]
                sums[j] = sums.get(j, 0) + sign
                signs.setdefault(j, sign)
            row = {j: c << shift for j, c in sums.items() if c}
            del signs[i]
            for j, sign in signs.items():
                known[j] = (sign, row)
        if not row:
            continue
        ech.insert(row)
    return tuple(dict(row) for _, row in sorted(ech.pivots.items(), reverse=True))


# Largest graded piece the oracle eliminates, in ambient monomials.
DEFAULT_MONOMIAL_CAP = 50000


def ambient_size(n, degree):
    """len(_monomial_codes(n, degree, width)), from the closed form without
    building it."""
    r, s, t = degree
    return comb(r + n - 1, n - 1) * comb(n, s) * comb(n, t)


def _check_cap(n, degree):
    size = ambient_size(n, degree)
    if size > DEFAULT_MONOMIAL_CAP:
        raise RuntimeError(
            "graded piece %r has %d monomials, over the cap %d" % (degree, size, DEFAULT_MONOMIAL_CAP)
        )


def quotient_dimension(n, group_kind, degree):
    """Dimension of one multigraded piece of the coinvariant quotient.

    The ideal piece in degree D is spanned by all products of an invariant
    of degree E (0 < E <= D componentwise) with a monomial of degree D - E;
    positive grading makes this exact with no truncation error.  The
    quotient dimension is the ambient count minus the exact rank.
    """
    _check_cap(n, degree)
    return ambient_size(n, degree) - _ideal_rank(n, group_kind, degree)


def _ideal_rank(n, group_kind, degree):
    """Rank of the ideal piece: every invariant times every monomial.

    Rows come in the order (E, invariant vector, complement monomial).
    Distinct factors times one monomial are distinct monomials, so a row
    has one entry per factor whose masks miss the monomial's.  Those
    factors and their signed coefficients depend only on the monomial's
    masks, so they are listed once per mask pattern.
    """
    r, s, t = degree
    width = r.bit_length()
    ambient = _monomial_codes(n, degree, width)
    index = {code: i for i, code in enumerate(ambient)}
    ncols = len(ambient)
    low = (1 << 2 * n) - 1
    half = (1 << n) - 1
    ech = _Echelon()
    pivots = ech.pivots
    for er, es, et in product(range(r + 1), range(s + 1), range(t + 1)):
        E = (er, es, et)
        if E == (0, 0, 0):
            continue
        invariants = invariant_subspace(n, group_kind, E)
        if not invariants:
            continue
        inv_codes = _monomial_codes(n, E, width)
        complement = _monomial_codes(n, (r - er, s - es, t - et), width)
        for vec in invariants:
            factors = [(inv_codes[col], coeff) for col, coeff in vec.items()]
            by_masks = {}
            for code in complement:
                masks = code & low
                terms = by_masks.get(masks)
                if terms is None:
                    t2, f2 = masks >> n, masks & half
                    terms = by_masks[masks] = [
                        (fcode, coeff * _product_sign(fcode >> n & half, fcode & half, t2, f2))
                        for fcode, coeff in factors
                        if not fcode & masks
                    ]
                if terms:
                    ech.insert({index[fcode + code]: c for fcode, c in terms})
                    if len(pivots) == ncols:
                        return ncols
    return len(pivots)


def default_max_x_degree(n, group_kind):
    """Conjectured top x-degree plus a safety margin of two."""
    return basis.top_x_degree(n, group_kind) + 2


# Most graded pieces a window lists.  The largest window that a test or the
# README runs, b12 n=4 with --long, has 475; at n = 1 every piece has one
# monomial, so the monomial cap alone would let a window grow without end.
WINDOW_PIECE_CAP = 100_000


def hilbert_via_oracle(n, group_kind, max_x_degree=None):
    """Assemble the quotient Hilbert series over all multidegrees.

    Scans x-degrees up to max_x_degree (default: conjectured top plus two)
    and all fermionic degrees up to n.  Returns (polynomial, complete,
    report) where complete is True iff every piece in the top two x-degrees
    vanished, and report lists one dict per multidegree.  Every piece is
    checked against the monomial cap, and the window against the piece
    cap, before the first piece is eliminated.
    """
    if max_x_degree is None:
        max_x_degree = default_max_x_degree(n, group_kind)
    if max_x_degree < 0:
        raise ValueError("max_x_degree must be at least 0, not %d" % max_x_degree)
    # checked as they are listed, so a large n is refused at its first
    # over-cap piece, before the rest of the window is built (and not
    # through `product`, which would hold every x-degree at once)
    degrees = []
    for degree in ((r, s, t) for r in range(max_x_degree + 1) for s in range(n + 1) for t in range(n + 1)):
        _check_cap(n, degree)
        degrees.append(degree)
        if len(degrees) > WINDOW_PIECE_CAP:
            raise RuntimeError(
                "the window of x-degrees 0..%d has %d graded pieces, over the cap %d"
                % (max_x_degree, (max_x_degree + 1) * (n + 1) ** 2, WINDOW_PIECE_CAP)
            )
    report = [_quotient_entry(n, group_kind, degree) for degree in degrees]
    terms = {tuple(row["degree"]): row["quotient"] for row in report if row["quotient"]}
    return QuvPolynomial(terms), not _top_band(report)[1], report


def _quotient_entry(n, group_kind, degree):
    """The report row of one piece, whose size the caller has checked."""
    ambient = ambient_size(n, degree)
    rank = _ideal_rank(n, group_kind, degree)
    return {"degree": list(degree), "ambient": ambient, "ideal_rank": rank, "quotient": ambient - rank}


def _top_band(report):
    """A window's top x-degree, and its nonzero pieces in its top two
    x-degrees: the pieces that make the window incomplete."""
    top = report[-1]["degree"][0]
    return top, [tuple(row["degree"]) for row in report if row["quotient"] and row["degree"][0] >= top - 1]


def compare_with_conjecture(n, group_kind, poly, report):
    """(top, band, expected, agrees) for a window of `hilbert_via_oracle`:
    its top x-degree and `_top_band`, the series of the conjectured basis
    (a12 for kind "a", b12 for "b"), and whether the window's series
    matches it: whole when the band is empty, else up to the window's top.
    """
    expected = basis.hilbert_series(n, group_kind + "12")
    top, band = _top_band(report)
    covered = {key: c for key, c in expected.terms.items() if not band or key[0] <= top}
    return top, band, expected, poly.terms == covered
