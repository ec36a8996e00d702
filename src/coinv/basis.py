"""Conjectural monomial bases for the bosonic-fermionic coinvariant rings.

Five families are supported, named by variant strings:

  a12 : x^alpha theta_T xi_S over type A paths, alpha bounded by the
        generalized staircase alpha(T, S);
  a11 : x^alpha theta_T over T subset of {2,...,n}, bound alpha(T);
  a02 : theta_T xi_S over type A paths (no x part);
  b12 : type B analogue with the generalized beta(T, S) staircase;
  b11 : x^beta theta_T over T subset of {1,...,n}, bound beta(T).

Elements are stored as exponent data only; the sign that reordering the
fermionic factors would introduce is normalized away.
"""

from functools import lru_cache
from itertools import accumulate, product
from math import comb, factorial
from typing import NamedTuple

from . import motzkin
from .combinat import IndexSubset
from .qpoly import ONE, ZERO, QuvPolynomial, q_double_factorial_even, q_factorial, q_integer, q_stirling

VARIANTS = ("a12", "a11", "a02", "b12", "b11")


class BasisElement(NamedTuple):
    """A monomial x^alpha theta_T xi_S, as exponent vectors.

    alpha holds the x-exponents, theta and xi are 0/1 occupancy vectors
    (theta[i] == 1 iff theta_{i+1} divides the monomial).
    """

    alpha: tuple
    theta: tuple
    xi: tuple
    variant: str

    @property
    def n(self):
        return len(self.alpha)

    @property
    def theta_set(self):
        return frozenset(i + 1 for i, b in enumerate(self.theta) if b)

    @property
    def xi_set(self):
        return frozenset(i + 1 for i, b in enumerate(self.xi) if b)

    @property
    def deg_x(self):
        return sum(self.alpha)

    @property
    def deg_theta(self):
        return sum(self.theta)

    @property
    def deg_xi(self):
        return sum(self.xi)

    def monomial_str(self):
        """String form like "x2*x3^2*th3*xi3", "1" if empty.

        The x factors come first; fermionic factors follow in ascending
        index order, theta before xi at a shared index.
        """
        parts = []
        for i, e in enumerate(self.alpha):
            if e == 1:
                parts.append("x%d" % (i + 1))
            elif e > 1:
                parts.append("x%d^%d" % (i + 1, e))
        for i in range(self.n):
            if self.theta[i]:
                parts.append("th%d" % (i + 1))
            if self.xi[i]:
                parts.append("xi%d" % (i + 1))
        return "*".join(parts) if parts else "1"

    def to_json(self):
        return {"alpha": list(self.alpha), "theta": list(self.theta), "xi": list(self.xi)}

    def path(self):
        """The decorated path carrying this element (a12/a02/b12 variants)."""
        if self.variant in ("a12", "a02"):
            kind = "a"
        elif self.variant == "b12":
            kind = "b"
        else:
            raise ValueError("variant %s has no path model" % self.variant)
        steps = tuple(_STEP_OF_BITS[t, x] for t, x in zip(self.theta, self.xi))
        return motzkin.MotzkinPath(steps, kind)


_STEP_OF_BITS = {(t, x): s for s, (_, t, x) in enumerate(motzkin.STEPS)}


# -- staircase bounds --------------------------------------------------------


def _heights(T, S, n, floor):
    """The heights h_0 = 0, h_1, ..., h_n of the path with decoration sets
    T and S, whose step i moves by 1 - [i in T] - [i in S].

    Raises ValueError for a decoration outside {floor+1,...,n}, and at the
    first step where the path dips below its floor: 1 in type A, where the
    first step is the forced up-step, and 0 in type B.  Heights move by at
    most 1 a step, so that is also where the staircase first goes negative.
    """
    T = frozenset(T)
    S = frozenset(S)
    if any(not floor < i <= n for i in T | S):
        raise ValueError("decoration positions must lie in {%d,...,n}" % (floor + 1))
    heights = [0]
    for i in range(1, n + 1):
        heights.append(heights[-1] + 1 - (i in T) - (i in S))
        if heights[-1] < floor:
            raise ValueError("invalid (T, S): bound drops below 0 at position %d" % i)
    return heights


def _bound_of_heights(heights, kind):
    """The staircase read off path heights h_0 = 0, h_1, ..., h_n:
    alpha_i = h_i - 1 for kind "a", beta_i = h_{i-1} + h_i for kind "b"."""
    if kind == "a":
        return tuple(h - 1 for h in heights[1:])
    return tuple(a + b for a, b in zip(heights, heights[1:]))


def alpha_sequence(T, S, n):
    """The generalized type A staircase for decoration sets T, S.

    alpha_i = h_i - 1 along the type A path heights, so it starts at 0 and
    steps by -1 + [i not in T] + [i not in S].  Raises ValueError when
    (T, S) does not come from a valid type A path.
    """
    return _bound_of_heights(_heights(T, S, n, 1), "a")


def beta_sequence(T, S, n):
    """The generalized type B staircase for decoration sets T, S.

    beta_i = h_{i-1} + h_i along the type B path heights, so it starts at
    -1 + [1 not in T] + [1 not in S] and later entries add
    -2 + [i not in T] + [i-1 not in T] + [i not in S] + [i-1 not in S].
    Raises ValueError when (T, S) does not come from a valid type B path.
    """
    return _bound_of_heights(_heights(T, S, n, 0), "b")


def _staircase(T, S, n, kind):
    """alpha(T, S) for kind "a", beta(T, S) for kind "b"."""
    if kind == "a":
        return alpha_sequence(T, S, n)
    if kind == "b":
        return beta_sequence(T, S, n)
    raise ValueError("kind must be 'a' or 'b'")


def super_artin_bound(T, n, kind):
    """The (1,1) staircase: alpha(T) for kind "a", beta(T) for kind "b",
    the xi-free case S = {} of the generalized staircase."""
    return _staircase(T, (), n, kind)


def path_bound(path):
    """The staircase bound attached to a decorated path, read off the
    heights its steps reach; a MotzkinPath is valid, so nothing is checked."""
    steps = motzkin.STEPS
    heights = tuple(accumulate((steps[s][0] for s in path.steps), initial=0))
    return _bound_of_heights(heights, path.variant)


def stair_q(path):
    """The product of q-integers [k+1]_q over the path's staircase bound."""
    out = ONE
    for k in path_bound(path):
        out = out * q_integer(k + 1)
    return out


# -- path-state engine ----------------------------------------------------------
#
# Write h_i for the height after step i of a path (h_0 = 0).  Along a type A
# path alpha_i = h_i - 1, and along a type B path beta_i = h_{i-1} + h_i, so
# the staircase bound is a function of the heights alone and every series
# over a path-borne basis is a recursion over path states.  The recursions
# carry each polynomial in q, u, v as one nonnegative integer: the
# coefficient of q^a u^b v^c fills the bit field of `width` bits at slot
# a + qs*(b + us*c).  No coefficient of a partial sum exceeds the basis
# size, so fields never overflow, and adding or shifting these integers adds
# or multiplies the polynomials.


class _Packing:
    """The bit layout of packed polynomials for the a12 (kind "a") or b12
    (kind "b") series of size n."""

    def __init__(self, n, kind):
        if kind == "a":
            size, top_q = (1 << (n - 1)) * factorial(n), n * (n - 1) // 2
        else:
            size, top_q = 4**n * factorial(n), n * n
        self.width = -(-size.bit_length() // 8) * 8  # bits per field, whole bytes
        self.qs = top_q + 1  # slots per u^b v^c block
        self.us = n + 1  # blocks per power of v

    def shift(self, a, b, c):
        """Left shift that multiplies a packed polynomial by q^a u^b v^c."""
        return self.width * (a + self.qs * (b + self.us * c))

    def q_integer(self, k):
        """The packed q-integer [k]_q."""
        return sum(1 << self.width * a for a in range(k))

    def unpack(self, value):
        """The QuvPolynomial that `value` packs.

        Most fields are zero: whole u^b v^c blocks that no element reaches,
        and the q slots outside each piece's degree range.  So each block
        is cut to the span from its first to its last nonzero byte by
        C-level strips, and only the fields in that span are decoded.
        """
        step = self.width // 8
        size = self.qs * step  # bytes per u^b v^c block
        data = value.to_bytes(-(-value.bit_length() // (8 * size)) * size, "little")
        terms = {}
        for index, start in enumerate(range(0, len(data), size)):
            block = data[start:start + size].rstrip(b"\0")
            if not block:
                continue
            c, b = divmod(index, self.us)
            first = (len(block) - len(block.lstrip(b"\0"))) // step
            for a in range(first, -(-len(block) // step)):
                coeff = int.from_bytes(block[a * step:(a + 1) * step], "little")
                if coeff:
                    terms[(a, b, c)] = coeff
        return QuvPolynomial(terms)


@lru_cache(maxsize=8)
def _height_series(n, kind, start=None):
    """The a12 (kind "a") or b12 (kind "b") Hilbert series by recursion
    over the path height, restricted to the elements whose first `start`
    positions are bare up-steps with x-exponent 0.

    The state after step i is the height h_i.  A step multiplies by its
    weight 1, u, v or uv and by the q-integer of the staircase entry it
    fixes: [h_i]_q in type A, [h_{i-1} + h_i + 1]_q in type B.  The walk
    starts at height `start` after `start` steps, with weight 1.  The
    default start is the floor, which every element passes: 1 in type A,
    whose forced first up-step has the factor [1]_q = 1, and 0 in type B.
    """
    pack = _Packing(n, kind)
    q_ints = [pack.q_integer(k) for k in range(2 * n + 2)]
    moves = [(dh, pack.shift(0, t, x)) for dh, t, x in motzkin.STEPS]
    floor = 1 if kind == "a" else 0
    start = floor if start is None else start
    layer = {start: 1}
    for _ in range(n - start):
        nxt = {}
        for h, value in layer.items():
            fanout = {}
            for dh, shift in moves:
                if h + dh >= floor:
                    fanout[h + dh] = fanout.get(h + dh, 0) + (value << shift)
            for h1, term in fanout.items():
                if kind == "b":
                    term *= q_ints[h + h1 + 1]
                nxt[h1] = nxt.get(h1, 0) + term
        if kind == "a":
            for h1 in nxt:
                nxt[h1] *= q_ints[h1]
        layer = nxt
    return pack.unpack(sum(layer.values()))


@lru_cache(maxsize=8)
def ascent_table(n):
    """The a12 Hilbert series split by ascent set, without enumeration.

    Returns ((mask, poly), ...) in mask order over the ascent sets that
    occur, where bit i-1 of mask marks i as an ascent and poly sums
    q^deg_x u^deg_theta v^deg_xi over the elements with that ascent set.

    Whether i is an ascent depends on (theta_i, theta_{i+1}, alpha_i,
    alpha_{i+1}, xi_{i+1}) only (see ascent_positions), so the state after
    position i is (h_i, theta_i, alpha_i) plus the ascents fixed so far.  A
    depth-first walk over the ascent bits keeps one ascent prefix in memory
    at a time; the work grows with the 2^(n-1) ascent sets, not with the
    2^(n-1) n! elements.
    """
    if n < 1:
        raise ValueError("ascent_table needs n >= 1")
    pack = _Packing(n, "a")
    moves = [(dh, t, x, pack.shift(0, t, x)) for dh, t, x in motzkin.STEPS]
    out = []

    def walk(i, mask, states):
        # states maps (h_i, theta_i, alpha_i) to the packed weights of the
        # length-i prefixes whose ascents among 1..i-1 are `mask`
        if i == n:
            out.append((mask, pack.unpack(sum(states.values()))))
            return
        branches = ({}, {})
        for (h, t0, a0), value in states.items():
            for dh, t1, x1, shift in moves:
                h1 = h + dh
                if h1 < 1:
                    continue
                value_1 = value << shift
                for a1 in range(h1):
                    if t0 != t1:
                        rise = t0 < t1
                    elif t0:
                        rise = a0 >= a1 + x1
                    else:
                        rise = a0 < a1 + x1
                    branch = branches[rise]
                    key = (h1, t1, a1)
                    branch[key] = branch.get(key, 0) + (value_1 << pack.width * a1)
        for rise, branch in enumerate(branches):
            if branch:
                walk(i + 1, mask | rise << (i - 1), branch)

    # position 1 is the forced up-step: h_1 = 1, no decoration, alpha_1 = 0
    walk(1, 0, {(1, 0, 0): 1})
    return tuple(sorted(out))


# -- enumeration --------------------------------------------------------------


def _subset_bits(n, lowest):
    """All 0/1 vectors of length n that vanish below position `lowest`, by bitmask."""
    width = n - lowest + 1
    for mask in range(1 << width):
        yield tuple([0] * (lowest - 1) + [mask >> i & 1 for i in range(width)])


@lru_cache(maxsize=None)
def _path_rows(n, kind):
    """(theta, xi, bound) of every path of size n and kind, in the order of
    motzkin.enumerate_paths, kept so that a repeated pass only loops over
    alpha.  Paths are few (6,435 type A paths at n = 8) next to the
    elements they carry.

    Rows hold one shared tuple per distinct theta, xi and bound: the cache
    lives as long as the process, and at n = 8 the 24,310 type B rows have
    only 256 thetas and 2,123 bounds."""
    share = {}.setdefault
    rows = []
    for path in motzkin.enumerate_paths(n, kind):
        _, theta, xi = zip(*(motzkin.STEPS[s] for s in path.steps))
        bound = path_bound(path)
        rows.append((share(theta, theta), share(xi, xi), share(bound, bound)))
    return tuple(rows)


def iter_rows(n, variant):
    """Yield the rows (theta, xi, bound) of the basis, in canonical order.

    The basis is the union of the row boxes: a row stands for the elements
    x^alpha theta xi with 0 <= alpha <= bound entrywise.  Path-borne
    variants have one row per path, in lexicographic step order, with the
    staircase bound of the path, all zero for a02; the (1,1) variants have
    one row per theta, ordered by its bitmask, with the super-Artin bound.
    """
    if n < 1:
        raise ValueError("a basis needs n >= 1")
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % (variant,))
    if variant in ("a12", "b12"):
        yield from _path_rows(n, variant[0])
    elif variant == "a02":
        zero = (0,) * n
        for theta, xi, _ in _path_rows(n, "a"):
            yield theta, xi, zero
    else:
        zero_xi = (0,) * n
        for theta in _subset_bits(n, 2 if variant == "a11" else 1):
            T = frozenset(i + 1 for i, b in enumerate(theta) if b)
            yield theta, zero_xi, super_artin_bound(T, n, variant[0])


def iter_basis(n, variant):
    """Yield the full basis for the given variant, in canonical order: the
    rows of iter_rows in their order, each expanded into its alphas in
    lexicographic order.  A single pass holds one element at a time besides
    the per-path rows of _path_rows, so it can run over bases too large to
    keep.
    """
    # BasisElement(...) runs a Python-level __new__ per element; building
    # the same tuple subclass straight from tuple.__new__ halves the pass.
    new = tuple.__new__
    for theta, xi, bound in iter_rows(n, variant):
        for alpha in product(*[range(b + 1) for b in bound]):
            yield new(BasisElement, (alpha, theta, xi, variant))


def enumerate_basis(n, variant):
    """The full basis as a list, in the canonical order of iter_basis."""
    return list(iter_basis(n, variant))


def count_basis(n, variant):
    """Cardinality of the basis: the Hilbert series at q = u = v = 1."""
    return hilbert_series(n, variant).evaluate()


# -- series -------------------------------------------------------------------


def hilbert_series(n, variant):
    """The trigraded Hilbert series: sum of u^|T| v^|S| q^(sum alpha).

    a12 and b12 come from the path-height recursion; a11 and b11 are their
    xi-free parts (v = 0) and a02 is the x-free part of a12 (q = 0).
    """
    if n < 1:
        raise ValueError("hilbert_series needs n >= 1")
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % (variant,))
    series = _height_series(n, variant[0])
    if variant in ("a11", "b11"):
        return series.substitute(v=0)
    if variant == "a02":
        return series.substitute(q=0)
    return series


def hilbert_11_formula(n, kind):
    """Closed q-Stirling form of the (1,1) Hilbert series, kind "a" or "b".

    Type a sums u^(n-k) [k]_q! Stir_q(n,k); type b sums
    u^(n-k) [2k]_q!! Stir^B_q(n,k).  The k = 0 term is included: it
    vanishes in type a but carries u^n in type b.
    """
    if n < 1:
        raise ValueError("hilbert_11_formula needs n >= 1")
    total = ZERO
    for k in range(0, n + 1):
        fact = q_factorial(k) if kind == "a" else q_double_factorial_even(k)
        term = fact * q_stirling(n, k, kind)
        total = total + QuvPolynomial({(0, n - k, 0): 1}) * term
    return total


# -- ascents ------------------------------------------------------------------


def ascent_positions(alpha, theta, xi):
    """1-based ascent positions of an exponent triple (tuple output).

    Position i is an ascent when theta rises at i, or both theta bits are 1
    with alpha_i >= alpha_{i+1} + xi_{i+1}, or both are 0 with
    alpha_i < alpha_{i+1} + xi_{i+1}.
    """
    out = []
    for i in range(len(alpha) - 1):
        t0, t1 = theta[i], theta[i + 1]
        if t0 < t1:
            out.append(i + 1)
        elif t0 == t1 == 1 and alpha[i] >= alpha[i + 1] + xi[i + 1]:
            out.append(i + 1)
        elif t0 == t1 == 0 and alpha[i] < alpha[i + 1] + xi[i + 1]:
            out.append(i + 1)
    return tuple(out)


def ascent_set(element):
    """The ascent set Asc(b) of a basis element as an IndexSubset.

    Public API: nothing in coinv calls it, since the series read ascents
    from ascent_positions or ascent_table, but it states the paper's Asc(b)
    on the element type that iter_basis yields.
    """
    return IndexSubset(ascent_positions(element.alpha, element.theta, element.xi), element.n)


# -- counting recursions --------------------------------------------------------


def count_by_height(n, r):
    """Number of a12 elements whose staircase ends at height r: n! C(n-1, r).

    The final staircase value alpha_n equals the final path height minus 1.
    """
    if n < 1:
        raise ValueError("count_by_height needs n >= 1")
    if r < 0:
        return 0
    return factorial(n) * comb(n - 1, r)


@lru_cache(maxsize=None)
def count_by_height_recursion(n, r):
    """The same count through the step-by-step recursion.

    p(n,r) = (r+1) (p(n-1,r-1) + 2 p(n-1,r) + p(n-1,r+1)), anchored at
    p(1,r) = [r == 0] because the first step of a type A path is forced up.
    """
    if n < 1:
        raise ValueError("count_by_height_recursion needs n >= 1")
    if r < 0 or r > n - 1:
        return 0
    if n == 1:
        return 1 if r == 0 else 0
    return (r + 1) * (
        count_by_height_recursion(n - 1, r - 1)
        + 2 * count_by_height_recursion(n - 1, r)
        + count_by_height_recursion(n - 1, r + 1)
    )


@lru_cache(maxsize=None)
def count_type_b_refined(n, r, stepclass):
    """Type B count refined by final staircase height and last-step class.

    stepclass "E" means the last step is horizontal, "U" up, "D" down.
    The recursions track how the final staircase value beta_n responds to
    the last two steps; the base case puts the empty path in class E.
    """
    if stepclass not in ("E", "U", "D"):
        raise ValueError("stepclass must be 'E', 'U' or 'D'")
    if n < 0:
        raise ValueError("count_type_b_refined needs n >= 0")
    if r < 0:
        return 0
    if n == 0:
        return 1 if (stepclass == "E" and r == 0) else 0
    if stepclass == "E":
        return 2 * (r + 1) * (
            count_type_b_refined(n - 1, r, "E")
            + count_type_b_refined(n - 1, r - 1, "U")
            + count_type_b_refined(n - 1, r + 1, "D")
        )
    if stepclass == "U":
        return (r + 1) * (
            count_type_b_refined(n - 1, r - 1, "E")
            + count_type_b_refined(n - 1, r - 2, "U")
            + count_type_b_refined(n - 1, r, "D")
        )
    return (r + 1) * (
        count_type_b_refined(n - 1, r + 1, "E")
        + count_type_b_refined(n - 1, r, "U")
        + count_type_b_refined(n - 1, r + 2, "D")
    )


def count_type_b(n):
    """Cardinality of the b12 basis by the refined recursion: 4^n n!."""
    if n < 0:
        raise ValueError("count_type_b needs n >= 0")
    total = 0
    for r in range(0, 2 * n + 2):
        for cls in ("E", "U", "D"):
            total += count_type_b_refined(n, r, cls)
    return total
