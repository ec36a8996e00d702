"""The oracle's plain definitions, kept as references for its fast paths.

`invariant_subspace` symmetrizes through the S_n table `oracle._action_table`,
type B included, and `oracle._ideal_rank` builds its rows from packed
monomial codes; the tests compare both against these definitions: the
monomial type and the monomials of a multidegree, the signed group acting
on one monomial at a time, the Reynolds sum over the group, the signed
action table over the whole hyperoctahedral group, the superalgebra product
of two monomials, and the exact rank of a list of rows.
"""

from functools import lru_cache
from itertools import permutations
from operator import add

from coinv.oracle import _Echelon, _permute_mask, _product_sign


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
    """The indices of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def compositions(total, slots):
    """The weak compositions of total into slots parts, lexicographic."""
    if slots == 0:
        return [()] if total == 0 else []
    return [(first,) + rest for first in range(total + 1) for rest in compositions(total - first, slots - 1)]


@lru_cache(maxsize=None)
def monomial_basis(n, degree):
    """All monomials of the multidegree (r, s, t) in canonical order, the
    order of the oracle's columns: x exponents lexicographic, then theta
    masks, then xi masks, each ascending."""
    r, s, t = degree
    masks_s = [m for m in range(1 << n) if m.bit_count() == s]
    masks_t = [m for m in range(1 << n) if m.bit_count() == t]
    return tuple(tuple.__new__(SuperMonomial, (xexp, tm, xm))
                 for xexp in compositions(r, n) for tm in masks_s for xm in masks_t)


@lru_cache(maxsize=None)
def signed_group(n, group_kind):
    """The group of one kind as (perm, signflags) pairs, signflags bit i
    negating slot i: the symmetric group (type A, negating nothing) or the
    hyperoctahedral group (type B)."""
    if group_kind not in ("a", "b"):
        raise ValueError("group_kind must be 'a' or 'b'")
    signs = range(1 << n) if group_kind == "b" else (0,)
    return tuple((perm, flags) for perm in permutations(range(n)) for flags in signs)


@lru_cache(maxsize=None)
def signed_action_table(n, group_kind):
    """The group of one kind as (inverse perm, negated slots, flags, mask
    images), one entry per element in the order of `signed_group`;
    mask_images[mask] is `_permute_mask(mask, perm)`."""
    table = []
    for perm, flags in signed_group(n, group_kind):
        inverse = [0] * n
        for i, p in enumerate(perm):
            inverse[p] = i
        images = tuple(_permute_mask(mask, perm) for mask in range(1 << n))
        table.append((tuple(inverse), tuple(_mask_bits(flags)), flags, images))
    return tuple(table)


def signed_table_images(mono, table):
    """Yield (sign, image) of mono under every g of a `signed_action_table`.

    g sends x_i, theta_i and xi_i to the variables of slot perm[i], negated
    when signflags marks slot i; the sign also collects the reordering
    parity of the fermionic factors.
    """
    xexp, tmask, xmask = mono
    for inverse, negated, flags, mask_images in table:
        s1, tm = mask_images[tmask]
        s2, xm = mask_images[xmask]
        sign = s1 * s2
        if flags:
            parity = (flags & tmask).bit_count() + (flags & xmask).bit_count()
            for i in negated:
                parity += xexp[i]
            if parity & 1:
                sign = -sign
        yield sign, (tuple([xexp[i] for i in inverse]), tm, xm)


def group_action(g, mono):
    """Image of a monomial under a signed permutation g = (perm, signflags).

    The sign collects the fermionic reordering parity and (-1) per negated
    variable counted with its total exponent; type A elements negate
    nothing (signflags 0).
    """
    perm, flags = g
    xexp = mono.xexp
    n = len(xexp)
    new_x = [0] * n
    for i, e in enumerate(xexp):
        new_x[perm[i]] = e
    sign = 1
    if flags:
        parity = 0
        for i in range(n):
            if flags >> i & 1:
                total = xexp[i] + (mono.tmask >> i & 1) + (mono.xmask >> i & 1)
                parity ^= total & 1
        if parity:
            sign = -1
    s1, tm = _permute_mask(mono.tmask, perm)
    s2, xm = _permute_mask(mono.xmask, perm)
    return sign * s1 * s2, SuperMonomial(new_x, tm, xm)


def reynolds(mono, n, group_kind):
    """Symmetrize a monomial over the group (sum with signs).

    Returns a dict mapping monomials to integer coefficients; may be empty
    when the orbit sum cancels.
    """
    out = {}
    for g in signed_group(n, group_kind):
        sign, image = group_action(g, mono)
        new = out.get(image, 0) + sign
        if new:
            out[image] = new
        else:
            del out[image]
    return out


def multiply_monomials(m1, m2):
    """Product in the superalgebra: None if a fermionic factor repeats."""
    x1, t1, f1 = m1
    x2, t2, f2 = m2
    if t1 & t2 or f1 & f2:
        return None
    sign = _product_sign(t1, f1, t2, f2)
    return sign, tuple.__new__(SuperMonomial, (tuple(map(add, x1, x2)), t1 | t2, f1 | f2))


def rank_of_rows(rows, ncols=None):
    """Exact rank of a list of sparse integer rows, through the oracle's
    echelon; stops once the rank reaches ncols."""
    ech = _Echelon()
    for row in rows:
        ech.insert(row)
        if ncols is not None and ech.rank == ncols:
            break
    return ech.rank
