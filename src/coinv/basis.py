"""Conjectural monomial bases for the bosonic-fermionic coinvariant rings.

Five families are supported, named by variant strings:

  a12 : x^alpha theta_T xi_S over type A paths, alpha bounded by the
        generalized staircase alpha(T, S);
  a11 : x^alpha theta_T over T subset of {2,...,n}, bound alpha(T);
  a02 : theta_T xi_S over type A paths (no x part);
  b12 : type B analogue with the generalized beta(T, S) staircase;
  b11 : x^beta theta_T over T subset of {1,...,n}, bound beta(T).

a11, a02 and b11 are a12 or b12 with one grading set to zero (`_ZEROED`):
the rows and the series of every variant come from the a12 or b12 paths.
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

# The grading each variant sets to zero in the a12 or b12 basis of its kind:
# none, v (no xi: the super-Artin (1,1) bases) or q (no x: the (0,2) basis).
_ZEROED = {"a12": None, "a11": "v", "a02": "q", "b12": None, "b11": "v"}
VARIANTS = tuple(_ZEROED)


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
        if self.variant not in ("a12", "a02", "b12"):
            raise ValueError("variant %s has no path model" % self.variant)
        steps = tuple(map(_STEP_OF_BITS.__getitem__, zip(self.theta, self.xi)))
        return motzkin.MotzkinPath(steps, self.variant[0])


_STEP_OF_BITS = {(t, x): s for s, (_, t, x) in enumerate(motzkin.STEPS)}


# -- staircase bounds --------------------------------------------------------


def _heights(T, S, n, kind):
    """The heights h_0 = 0, h_1, ..., h_n of the path of kind "a" or "b"
    with decoration sets T and S, whose step i moves by 1 - [i in T] - [i in S].

    Raises ValueError for a decoration outside {floor+1,...,n}, since the
    forced up-steps carry none, and at the first step where the path dips
    below its floor (motzkin.FLOOR).  Heights move by at most 1 a step, so
    that is also where the staircase first goes negative.
    """
    floor = motzkin.FLOOR[kind]
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
    return _bound_of_heights(_heights(T, S, n, "a"), "a")


def beta_sequence(T, S, n):
    """The generalized type B staircase for decoration sets T, S.

    beta_i = h_{i-1} + h_i along the type B path heights, so it starts at
    -1 + [1 not in T] + [1 not in S] and later entries add
    -2 + [i not in T] + [i-1 not in T] + [i not in S] + [i-1 not in S].
    Raises ValueError when (T, S) does not come from a valid type B path.
    """
    return _bound_of_heights(_heights(T, S, n, "b"), "b")


def super_artin_bound(T, n, kind):
    """The (1,1) staircase: alpha(T) for kind "a", beta(T) for kind "b",
    the xi-free case S = {} of the generalized staircase."""
    if kind not in motzkin.FLOOR:
        raise ValueError("kind must be 'a' or 'b'")
    return _bound_of_heights(_heights(T, (), n, kind), kind)


def path_bound(path):
    """The staircase bound attached to a decorated path, read off the
    heights its steps reach; a MotzkinPath is valid, so nothing is checked."""
    rises = motzkin.RISES
    heights = tuple(accumulate((rises[s] for s in path.steps), initial=0))
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


def top_x_degree(n, kind):
    """The largest x-degree of the a12 (kind "a") or b12 (kind "b") basis,
    the staircase sum of the all-up path."""
    return n * (n - 1) // 2 if kind == "a" else n * n


class _Packing:
    """The bit layout of packed polynomials for the a12 (kind "a") or b12
    (kind "b") series of size n."""

    def __init__(self, n, kind):
        size = (1 << (n - 1)) * factorial(n) if kind == "a" else 4**n * factorial(n)
        self.width = -(-size.bit_length() // 8) * 8  # bits per field, whole bytes
        self.qs = top_x_degree(n, kind) + 1  # slots per u^b v^c block
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


# Largest working set of the path-height walk, per kind, in bytes, as the
# walk estimates it: n whole packed values.  Set by runs under a 1 GiB
# address space: a12 n=36 (an estimate of 684 MB, a peak RSS of 954-1020 MB
# in two runs) and b12 n=30 (545 MB, 861-910 MB) finish, and a12 n=37
# (820 MB) and b12 n=31 (672 MB) run out of memory.  The type B walk peaks
# higher per estimated byte (1.55-1.64 times against 1.37-1.47 at those n),
# so its cap is lower.
WALK_BYTES_CAP = {"a": 750 * 10**6, "b": 600 * 10**6}


def _gated_packing(n, kind, values, cap, walk):
    """The packing of a walk of size n and kind that holds up to `values`
    whole packed values at once, refused, with the walk named as `walk`,
    when they would take more than `cap` bytes.

    A huge n is refused before n! is computed: with one-byte fields the
    values would already take (top x-degree + 1) (n + 1)^2 bytes each.
    """
    # least >= n, so an n over the cap is refused with n itself as the
    # bound: least // 10**6 could pass Python's int-to-str digit limit
    least = n if n > cap else (top_x_degree(n, kind) + 1) * (n + 1) ** 2 * values
    if least > cap:
        raise ValueError(
            "the %s at n=%d would hold at least %d MB of packed values, over the cap of %d MB"
            % (walk, n, least // 10**6, cap // 10**6)
        )
    pack = _Packing(n, kind)
    # a whole packed value spans us powers of v
    need = pack.width * pack.qs * pack.us**2 // 8 * values
    if need > cap:
        raise ValueError(
            "the %s at n=%d would hold about %d MB of packed values, over the cap of %d MB"
            % (walk, n, round(need / 10**6), cap // 10**6)
        )
    return pack


@lru_cache(maxsize=8)
def _height_series(n, kind, start=None):
    """The a12 (kind "a") or b12 (kind "b") Hilbert series by recursion
    over the path height, restricted to the elements whose first `start`
    positions are bare up-steps with x-exponent 0.

    The state after step i is the height h_i.  A step multiplies by its
    weight 1, u, v or uv and by the q-integer of the staircase entry it
    fixes: [h_i]_q in type A, [h_{i-1} + h_i + 1]_q in type B.  The walk
    starts at height `start` after `start` steps, with weight 1.  The
    default start is the floor (motzkin.FLOOR), which every element passes:
    in type A its forced first up-step has the factor [1]_q = 1.
    A layer holds up to n packed values, and a walk whose values would
    take more than its `WALK_BYTES_CAP` is refused before it starts.
    """
    pack = _gated_packing(n, kind, n, WALK_BYTES_CAP[kind], "type %s series" % kind.upper())
    q_ints = [pack.q_integer(k) for k in range(2 * n + 2)]
    moves = [(dh, pack.shift(0, t, x)) for dh, t, x in motzkin.STEPS]
    floor = motzkin.FLOOR[kind]
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


# Largest ascent table, in term slots: 2^(n-1) ascent sets, each a
# polynomial with at most (top x-degree + 1) q-degrees times n(n+1)/2
# (u, v)-degrees.  Runs of frobenius --form qsym under a 1 GiB address
# space peak at about 57 bytes a slot: 76 MB at n=10, 217 MB at n=11 and
# 581-588 MB at n=12 (10.7 million slots).  n=13 has 29.4 million.
TABLE_SLOTS_CAP = 15 * 10**6


@lru_cache(maxsize=8)
def ascent_table(n):
    """The a12 Hilbert series split by ascent set, without enumeration.

    Returns ((mask, poly), ...) in mask order over the ascent sets that
    occur, where bit i-1 of mask marks i as an ascent and poly sums
    q^deg_x u^deg_theta v^deg_xi over the elements with that ascent set:
    the leaves of the ascent walk (symfun._ascent_leaves), held whole.  A
    table of more term slots than `TABLE_SLOTS_CAP` is refused before the
    walk starts.
    """
    if n < 1:
        raise ValueError("ascent_table needs n >= 1")
    if n > TABLE_SLOTS_CAP.bit_length():
        # the 2^(n-1) ascent sets alone pass the cap, so no integer of n bits is built
        raise ValueError(
            "the ascent table at n=%d would have at least 2^%d terms, over the cap of %d"
            % (n, n - 1, TABLE_SLOTS_CAP)
        )
    slots = (1 << (n - 1)) * (top_x_degree(n, "a") + 1) * (n * (n + 1) // 2)
    if slots > TABLE_SLOTS_CAP:
        raise ValueError(
            "the ascent table at n=%d would have up to %d terms, over the cap of %d"
            % (n, slots, TABLE_SLOTS_CAP)
        )
    # the walk lives with the series that read it, so a command that never
    # reads it does not compile it
    from .symfun import _ascent_leaves

    pack = _Packing(n, "a")
    return tuple(sorted((mask, pack.unpack(value)) for mask, value in _ascent_leaves(n, pack)))


# -- enumeration --------------------------------------------------------------


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
    x^alpha theta xi with 0 <= alpha <= bound entrywise.  Every variant
    reads the path rows of a12 or b12 (`_path_rows`), one per path in
    lexicographic step order, through the grading `_ZEROED` sets to zero.
    a12 and b12 keep them all.  a02 (q = 0) keeps each row with an all-zero
    bound.  a11 and b11 (v = 0) keep the xi-free rows, ordered by theta
    bitmask: every theta over {floor+1,...,n} stays at or above the floor,
    so these are the super-Artin rows, one per theta, with bound
    alpha(T) or beta(T).
    """
    if n < 1:
        raise ValueError("a basis needs n >= 1")
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % (variant,))
    rows = _path_rows(n, variant[0])
    zeroed = _ZEROED[variant]
    if zeroed == "q":
        zero = (0,) * n
        for theta, xi, _ in rows:
            yield theta, xi, zero
        return
    if zeroed == "v":
        # a reversed theta compares as its bitmask, position n the highest bit
        rows = sorted((row for row in rows if not any(row[1])), key=lambda row: row[0][::-1])
    yield from rows


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

    a12 and b12 come from the path-height recursion; every other variant
    sets the grading `_ZEROED` names to zero in it: a11 and b11 are the
    xi-free parts (v = 0) and a02 is the x-free part of a12 (q = 0).
    """
    if n < 1:
        raise ValueError("hilbert_series needs n >= 1")
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % (variant,))
    series = _height_series(n, variant[0])
    zeroed = _ZEROED[variant]
    return series.substitute(**{zeroed: 0}) if zeroed else series


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
