"""Brute-force verification of the basis conjectures on the quotient rings.

Works directly with the polynomial-exterior algebra on x, theta and xi
variables: symmetrize every monomial of a multidegree to span the
invariants, span the ideal piece by invariant-times-monomial products, and
read off the quotient dimension from an exact integer rank.  Everything is
deterministic: fixed monomial order, fixed pivot rule (the largest column
of each row, which in `monomial_basis` order is its x_1-heaviest
monomial), no floats.

Every graded piece, alone or in a window, takes one path: its size comes
from the closed form `ambient_size` and is checked against
`DEFAULT_MONOMIAL_CAP` before anything is eliminated (for a window, before
its first piece), and its rank from `_ideal_rank`.

The hot paths are exact shortcuts of the plain definitions, which the
tests keep as references (tests/oracle_reference.py): invariants symmetrize
one monomial per orbit through a precomputed S_n action table, type B ones
too (the sign flips only scale or cancel an S_n orbit sum), and ideal rows
are built from packed integer monomial codes, made once per degree, where
the code of a product is the sum of its factors' codes and the fermionic
sign is read from a memo (`_product_sign`).
"""

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import permutations, product, repeat
from math import comb, gcd

from .qpoly import QuvPolynomial


class SuperMonomial(tuple):
    """A monomial x^a theta_M xi_N: (xexp tuple, theta mask, xi mask).

    Masks are bitmasks over variable indices 0..n-1; the fermionic factors
    are implicitly ordered ascending, thetas before xis.
    """

    __slots__ = ()

    def __new__(cls, xexp, tmask, xmask):
        return tuple.__new__(cls, (tuple(xexp), tmask, xmask))

    @property
    def xexp(self):
        return self[0]

    @property
    def tmask(self):
        return self[1]

    @property
    def xmask(self):
        return self[2]


def _mask_bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


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


def _monomials(n, degree):
    """The monomials of the multidegree (r, s, t) in canonical order, as
    plain (xexp, tmask, xmask) tuples; built afresh on every call."""
    r, s, t = degree
    if s > n or t > n:
        return []
    masks_s, masks_t = _masks_of(n, s), _masks_of(n, t)
    return [(xexp, tm, xm) for xexp in _compositions_of(r, n) for tm in masks_s for xm in masks_t]


@lru_cache(maxsize=None)
def monomial_basis(n, degree):
    """All monomials of the multidegree (r, s, t) in canonical order."""
    return tuple(tuple.__new__(SuperMonomial, mono) for mono in _monomials(n, degree))


# -- group actions ------------------------------------------------------------


def _permute_mask(mask, perm):
    """Move mask bits through the permutation, with the reordering sign."""
    images = [perm[i] for i in _mask_bits(mask)]
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


def _table_images(mono, table):
    """Yield (sign, image) of mono under every permutation of the table.

    The permutation sends x_i, theta_i and xi_i to the variables of slot
    perm[i]; the sign is the reordering parity of the fermionic factors.
    Images are plain (xexp, tmask, xmask) tuples, equal to the
    SuperMonomials they stand for.
    """
    xexp, tmask, xmask = mono
    for inverse, mask_images in table:
        s1, tm = mask_images[tmask]
        s2, xm = mask_images[xmask]
        yield s1 * s2, (tuple([xexp[i] for i in inverse]), tm, xm)


# Reordering sign of a product, keyed by the masks (tmask1, xmask1, tmask2,
# xmask2) of its factors.  A pure function of its key, filled on first use.
_PRODUCT_SIGNS = {}


def _product_sign(t1, f1, t2, f2):
    """Reordering sign of theta_t1 xi_f1 * theta_t2 xi_f2 for disjoint masks.

    Thetas of the second factor cross the xis of the first (one sign per
    crossing pair), then each fermionic family merges with its own sorting
    sign: one per pair of a factor of the second below one of the first.
    """
    key = (t1, f1, t2, f2)
    sign = _PRODUCT_SIGNS.get(key)
    if sign is None:
        parity = t2.bit_count() * f1.bit_count()
        for mine, other in ((t1, t2), (f1, f2)):
            while other:
                low = other & -other
                parity += (mine >> low.bit_length()).bit_count()
                other ^= low
        sign = _PRODUCT_SIGNS[key] = -1 if parity & 1 else 1
    return sign


@lru_cache(maxsize=None)
def _monomial_codes(n, degree, width):
    """The monomials of `monomial_basis(n, degree)` as packed integers.

    A code is (x exponents in base 2**width, x_1 lowest) << 2n | tmask << n
    | xmask.  For two monomials with disjoint masks whose exponents add up
    to less than 2**width, the code of the product monomial is the sum of
    the codes.  Built from the compositions and masks directly, in the
    same order, and once per (n, degree, width): a window asks for each
    degree's codes once as an ambient piece and again as factors and
    complements of every piece above it.
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

    Rows are sparse dicts over column indices.  Each incoming row is
    reduced fraction-free against stored pivot rows (pivot = largest
    column index); surviving rows are gcd-normalized, with a positive
    pivot entry, and kept.  The reduction works on one copy of the row, in
    place, and a heap of its negated columns yields the next leading
    column.
    """

    def __init__(self):
        self.pivots = {}  # leading column -> row dict

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, row):
        """Reduce a row; store it if independent.  Returns True if rank grew."""
        row = {c: v for c, v in row.items() if v}
        get = row.get
        pivots = self.pivots
        # Every column of the row has an entry in the heap; entries of
        # columns that cancelled since they were pushed are skipped.
        heap = [-c for c in row]
        heapify(heap)
        while heap:
            lead = -heappop(heap)
            b = get(lead)
            if b is None:
                continue
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*row.values())
                if b < 0:
                    g = -g
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
                pivots[lead] = row
                return True
            a = pivot[lead]
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
                    heappush(heap, -c)
                else:
                    w -= v * mb
                    if w:
                        row[c] = w
                    else:
                        del row[c]
        return False


# -- graded pieces of the quotient ----------------------------------------------


@lru_cache(maxsize=None)
def invariant_subspace(n, group_kind, degree):
    """Independent spanning vectors of the invariants in one multidegree.

    Reduces the Reynolds image of every monomial of the degree, in order,
    to an echelon basis.  Only the first monomial of each orbit is
    symmetrized: if g.m = e.m' with e = +-1, then R(m') = e.R(m).  Vectors
    are sparse dicts over the canonical monomial index of the degree, in
    descending order of their pivot (largest) column.

    Type B symmetrizes through S_n alone.  Write deg_i(m) for the total
    degree of slot i (its x exponent plus its theta and xi bits); negating
    the slots of a set F multiplies m by (-1)^(sum of deg_i over F), so the
    2^n sign flips sum to 2^n when every deg_i is even and to 0 otherwise.
    Hence R_B(m) = 2^n R_A(m) for a monomial with even slots, and
    R_B(m) = 0 for any other; the rows are those of the hyperoctahedral sum.
    """
    if group_kind not in ("a", "b"):
        raise ValueError("group_kind must be 'a' or 'b'")
    if group_kind == "b" and sum(degree) & 1:
        return ()  # the slot degrees add up to an odd total, so one is odd
    # each degree is symmetrized once, so its monomials are not kept
    basis = _monomials(n, degree)
    index = {m: i for i, m in enumerate(basis)}
    table = _action_table(n)
    shift = n if group_kind == "b" else 0
    ech = _Echelon()
    known = {}  # later orbit member -> (e, R(first member))
    for i, mono in enumerate(basis):
        if shift:
            xexp, tmask, xmask = mono
            odd = tmask ^ xmask
            for slot, e in enumerate(xexp):
                odd ^= (e & 1) << slot
            if odd:
                continue
        if i in known:
            sign, row = known.pop(i)
            if sign < 0:
                row = {c: -v for c, v in row.items()}
        else:
            sums = {}
            signs = {}
            for sign, image in _table_images(mono, table):
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
        if ech.rank == len(basis):
            break
    return tuple(dict(row) for _, row in sorted(ech.pivots.items(), reverse=True))


# Largest graded piece the oracle eliminates, in ambient monomials.
DEFAULT_MONOMIAL_CAP = 50000


def ambient_size(n, degree):
    """len(monomial_basis(n, degree)), from the closed form without building it."""
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
    top = n * (n - 1) // 2 if group_kind == "a" else n * n
    return top + 2


def hilbert_via_oracle(n, group_kind, max_x_degree=None, jobs=1):
    """Assemble the quotient Hilbert series over all multidegrees.

    Scans x-degrees up to max_x_degree (default: conjectured top plus two)
    and all fermionic degrees up to n.  Returns (polynomial, complete,
    report) where complete is True iff every piece in the top two x-degrees
    vanished, and report lists one dict per multidegree.  Every piece is
    checked against the monomial cap before the first is eliminated.
    """
    if max_x_degree is None:
        max_x_degree = default_max_x_degree(n, group_kind)
    if max_x_degree < 0:
        raise ValueError("max_x_degree must be at least 0, not %d" % max_x_degree)
    degrees = list(product(range(max_x_degree + 1), range(n + 1), range(n + 1)))
    for degree in degrees:
        _check_cap(n, degree)
    pieces = (repeat(n), repeat(group_kind), degrees)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            report = list(pool.map(_quotient_entry, *pieces, chunksize=8))
    else:
        report = list(map(_quotient_entry, *pieces))
    terms = {tuple(row["degree"]): row["quotient"] for row in report if row["quotient"]}
    complete = all(r < max_x_degree - 1 for r, _, _ in terms)
    return QuvPolynomial(terms), complete, report


def _quotient_entry(n, group_kind, degree):
    """The report row of one piece, whose size the caller has checked."""
    ambient = ambient_size(n, degree)
    rank = _ideal_rank(n, group_kind, degree)
    return {"degree": list(degree), "ambient": ambient, "ideal_rank": rank, "quotient": ambient - rank}
