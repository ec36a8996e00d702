"""The oracle's plain definitions, kept as references for its fast paths.

`invariant_subspace` symmetrizes through `oracle._action_table`, and
`oracle._ideal_rank` builds its rows from packed monomial codes; the tests
compare both against these definitions: the signed group acting on one
monomial at a time, the Reynolds sum over the group, the superalgebra
product of two monomials, and the exact rank of a list of rows.
"""

from operator import add

from coinv.oracle import SuperMonomial, _Echelon, _permute_mask, _product_sign, _signed_group


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
    for g in _signed_group(n, group_kind):
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
