"""Quasisymmetric assembly of the conjectural Frobenius series, and its
Schur expansion through the slinky straightening rule.

The Frobenius series is a sum of fundamental quasisymmetric functions
Q_{S,n} weighted by QuvPolynomial coefficients; subsets S are the internal
keys and the composition picture only appears at the Schur boundary.

Every coefficient reads one of two path-state engines, the ascent walk
below (as basis.ascent_table, its layered sum or its leaves) or basis's
path-height walk; none builds a basis element.
"""

from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from . import basis as basis_mod
from . import motzkin
from .combinat import Composition, IndexSubset, Partition, comp_of_set, elements_of_mask, set_of_comp
from .qpoly import ZERO, QuvPolynomial, q_binomial, q_power


class _Expansion:
    """A map from keys of one size n to QuvPolynomial.  Subclasses name the
    keys' json and csv field, their order, the error for a key of another
    size, and how a key is written: its csv label, its text line and its
    LaTeX basis function."""

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {} if coeffs is None else coeffs

    def __repr__(self):
        return "%s(n=%r, coeffs=%r)" % (type(self).__name__, self.n, self.coeffs)

    def add(self, key, poly):
        if key.n != self.n:
            raise ValueError(self._mismatch % (key.n, self.n))
        new = self.coeffs.get(key, ZERO) + poly
        if new:
            self.coeffs[key] = new
        else:
            self.coeffs.pop(key, None)

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: self._sort_key(kv[0]))

    def to_json(self):
        return {
            "n": self.n,
            "coeffs": [{self.field: list(key), "coeff": p.to_json()} for key, p in self.sorted_items()],
        }

    def latex(self):
        pieces = ["\\left(%s\\right) %s" % (c.latex(), self._latex_key(key)) for key, c in self.sorted_items()]
        return " + ".join(pieces) if pieces else "0"

    def __eq__(self, other):
        return type(other) is type(self) and self.n == other.n and self.coeffs == other.coeffs


class QSymExpansion(_Expansion):
    """A map from IndexSubset keys (shared ambient n) to QuvPolynomial."""

    field = "subset"
    _mismatch = "subset ambient %d does not match n=%d"
    add = _Expansion.add  # its own entry, where perfbench's tracer counts QSym adds

    def _sort_key(self, subset):
        return subset.bitmask()

    def label(self, subset):
        return "{%s}" % ",".join(map(str, subset.elements))

    def line(self, subset, coeff):
        return "%s: %s" % (subset, coeff)

    def _latex_key(self, subset):
        return "Q_{\\{%s\\},%d}" % (",".join(map(str, subset.elements)), self.n)

    def coefficient(self, subset):
        return self.coeffs.get(subset, ZERO)

    def total(self):
        """Sum of all coefficients; pairing with the n-th power of h_1."""
        out = ZERO
        for poly in self.coeffs.values():
            out = out + poly
        return out

    def substitute(self, **kwargs):
        out = QSymExpansion(self.n)
        for subset, poly in self.coeffs.items():
            out.add(subset, poly.substitute(**kwargs))
        return out


class SchurExpansion(_Expansion):
    """A map from Partition keys (all of the same n) to QuvPolynomial,
    ordered lexicographically ascending (columns first)."""

    field = "partition"
    _mismatch = "partition of %d does not match n=%d"

    def _sort_key(self, partition):
        return partition.parts

    def label(self, partition):
        return str(partition)

    def line(self, partition, coeff):
        return "s[%s]: %s" % (partition, coeff)

    def _latex_key(self, partition):
        return "s_{%s}" % " ".join(map(str, partition.parts))


# -- the Frobenius series ------------------------------------------------------


def frobenius_qsym(n, k=None, l=None):
    """The conjectural Frobenius series in the fundamental basis.

    Sums u^deg_theta v^deg_xi q^deg_x Q_{Asc(b),n} over basis elements.
    basis.ascent_table holds that sum once per n, split by ascent set, so
    the expansion keys the table's own immutable polynomials by their
    subsets and copies none of them.  Passing k and/or l restricts to fixed
    theta/xi degrees, and only then are the polynomials rebuilt.
    """
    table = basis_mod.ascent_table(n)
    if k is not None or l is not None:
        table = [(mask, _restrict(poly, k, l)) for mask, poly in table]
    coeffs = {IndexSubset(elements_of_mask(mask, n), n): poly for mask, poly in table if poly}
    return QSymExpansion(n, coeffs)


def _restrict(poly, k, l):
    """The terms of poly with u-degree k and v-degree l (None: any degree)."""
    return QuvPolynomial({
        key: coeff for key, coeff in poly.terms.items()
        if (k is None or key[1] == k) and (l is None or key[2] == l)
    })


def _q_slice(poly, k, l):
    """The u^k v^l coefficient of poly, a polynomial in q."""
    return _restrict(poly, k, l).substitute(u=1, v=1)


# -- the ascent walk ------------------------------------------------------------
#
# Whether i is an ascent depends on (theta_i, theta_{i+1}, alpha_i,
# alpha_{i+1}, xi_{i+1}) only (see basis.ascent_positions), so the a12
# prefixes of length i are summed by their state (h_i, theta_i, alpha_i),
# each sum one packed value (basis._Packing).  One step, `_ascent_step`,
# extends the states by a position and splits the extensions by whether
# the position before is an ascent.  Three walks read it: `_ascent_walk`
# follows both branches, every one for basis.ascent_table and those that
# can straighten to a Schur term for `schur_fold`, and
# `ascent_sum` keeps the branches its sets allow and merges them, so it
# holds two layers at most.  A walk's working set is gated by
# `_ascent_packing`.  The walk lives here, not in basis, because every
# command imports basis and, with no bytecode cached, compiles all of it.
#
# States are held as {(h_i, theta_i): [weight of alpha_i = 0, 1, ..., h_i - 1]}.


def _ascent_step(states, pack, flat, rise):
    """Extend the states after position i by position i+1, adding each
    extension into the dict `rise` if i is an ascent and into `flat` if
    not.  A branch given as None drops its extensions; flat and rise may
    be one dict, which merges them.

    Write c = alpha_{i+1} + xi_{i+1}.  By the rule of ascent_positions, i
    is an ascent when alpha_i < c and theta_i = 0, or when alpha_i >= c
    and theta_{i+1} = 1.  So for each new state the old alphas of one
    (h_i, theta_i) split at c into two runs, and each run's weight is read
    off a running sum, not added up alpha by alpha.
    """
    branches = (flat, rise)
    floor = motzkin.FLOOR["a"]
    for (h, t0), weights in states.items():
        below = list(accumulate(weights, initial=0))  # below[c]: alpha_i < c
        total = below[h]
        for dh, t1, x1 in motzkin.STEPS:
            h1 = h + dh
            if h1 < floor:
                continue
            low, high = branches[not t0], branches[t1]
            shift = pack.shift(0, t1, x1)
            for a1 in range(h1):
                c = min(a1 + x1, h)
                runs = ((low, total),) if low is high else ((low, below[c]), (high, total - below[c]))
                for branch, weight in runs:
                    if branch is not None and weight:
                        row = branch.setdefault((h1, t1), [0] * h1)
                        row[a1] += weight << shift + pack.width * a1


def _ascent_total(states):
    """The sum of every weight of the states."""
    return sum(map(sum, states.values()))


def _ascent_leaves(n, pack):
    """Yield (mask, packed polynomial) for every ascent set that occurs at
    size n, depth first over the ascent bits, where bit i-1 of mask marks
    i as an ascent."""
    return _ascent_walk(n, pack, None)


def _ascent_walk(n, pack, live):
    """The leaves of _ascent_leaves whose prefixes `live` keeps: a rise at
    i after the ascents of mask is walked only if live(mask, i) holds, or
    always when live is None.

    The walk keeps the states of one ascent prefix per depth: a layer is
    cleared once it has been stepped, so besides the path being walked
    only the rise branches still to visit are held.  The work grows with
    the 2^(n-1) ascent sets, not with the 2^(n-1) n! elements.
    """

    def walk(i, mask, states):
        if i == n:
            total = _ascent_total(states)
            states.clear()
            yield mask, total
            return
        flat, rise = {}, {} if live is None or live(mask, i) else None
        _ascent_step(states, pack, flat, rise)
        states.clear()  # the caller's branch: its weights live on in flat and rise
        if flat:
            yield from walk(i + 1, mask, flat)
        if rise:
            yield from walk(i + 1, mask | 1 << (i - 1), rise)

    # the forced up-steps end at the floor, with no decoration and alpha = 0
    floor = motzkin.FLOOR["a"]
    yield from walk(floor, 0, {(floor, 0): [1]})


# Largest working set of an ascent walk, in bytes, as the walk estimates it:
# up to n(n+1) states (h_i, theta_i, alpha_i) a layer, each a whole packed
# value, times the layers it holds, 2 for ascent_sum and n for the Schur
# fold.  Few states reach a whole value, so the peak is a fraction of the
# estimate.  Set by runs under a 1 GiB address space: the sum at n=24 (an
# estimate of 2,701 MB) peaks at 920 MB and at n=25 (3,703 MB) runs out of
# memory; the fold peaks at 62 MB at n=13 (220 MB) and 107 MB at n=14
# (426 MB), doubling with each n, so n=17 (2,078 MB) would take about
# 720 MB and n=18 (3,080 MB) about 1.4 GB.  The fold's sums per partition,
# 2 p(n) packed values and the output, grow faster than its layers.
ASCENT_BYTES_CAP = 3000 * 10**6


def _ascent_packing(n, walk, layers):
    """The packing of an ascent walk of size n that holds up to `layers`
    layers of states, refused, with the walk named as `walk`, past
    `ASCENT_BYTES_CAP`."""
    if n < 1:
        raise ValueError("an ascent walk needs n >= 1")
    return basis_mod._gated_packing(n, "a", layers * n * (n + 1), ASCENT_BYTES_CAP, walk)


@lru_cache(maxsize=8)
def ascent_sum(n, allowed, required):
    """The sum of q^deg_x u^deg_theta v^deg_xi over the a12 elements of
    size n whose ascent set A has required <= A <= allowed.

    allowed and required hold positions in 1..n-1; any container that
    `in` reads and lru_cache hashes will do (a tuple, a frozenset, a
    range).  The walk goes layer by layer: at each position it keeps the
    rise branch only where allowed holds the position and the flat branch
    only where required does not, and merges the two, so it holds the
    layer it steps and the next, not 2^(n-1) ascent prefixes.
    """
    pack = _ascent_packing(n, "ascent sum", 2)
    floor = motzkin.FLOOR["a"]
    states = {(floor, 0): [1]}
    for i in range(floor, n):
        layer = {}
        _ascent_step(states, pack, None if i in required else layer, layer if i in allowed else None)
        states = layer
    return pack.unpack(_ascent_total(states))


# -- slinky straightening ------------------------------------------------------


class SlinkyResult(NamedTuple):
    """Outcome of straightening: sign 0 means the term vanishes."""

    sign: int
    shape: object  # Partition or None


def slinky(comp):
    """Straighten a composition-indexed Schur term into +-(partition) or zero.

    The parts are drawn as rows of a French-notation diagram (first part at
    the bottom), each row pinned at its left end.  Rows then fall: every
    cell after the pin drops below its predecessor when that square is
    free, else slides one step right, so each row drapes into a ribbon
    over the rows below.  A final configuration that is a Young diagram
    gives that partition, signed by the parity of the total number of row
    levels the ribbons span beyond their own; anything else gives zero.
    """
    parts = tuple(comp.parts) if isinstance(comp, Composition) else tuple(comp)
    if any(p < 1 for p in parts):
        raise ValueError("composition parts must be positive")
    if not parts:
        return SlinkyResult(1, Partition(()))
    occupied = set()
    sign_exponent = 0
    for r, part in enumerate(parts):
        x, y = 0, r
        occupied.add((x, y))
        for _ in range(part - 1):
            if y - 1 >= 0 and (x, y - 1) not in occupied:
                y -= 1
            else:
                x += 1
            if (x, y) in occupied:
                # a draped ribbon ran into earlier cells; not a Young diagram
                return SlinkyResult(0, None)
            occupied.add((x, y))
        sign_exponent += r - y
    heights = len(parts)
    row_counts = []
    for y in range(heights):
        row = [x for (x, yy) in occupied if yy == y]
        count = len(row)
        if sorted(row) != list(range(count)):
            return SlinkyResult(0, None)
        row_counts.append(count)
    if any(row_counts[i] < row_counts[i + 1] for i in range(heights - 1)):
        return SlinkyResult(0, None)
    shape = Partition(tuple(row_counts))
    return SlinkyResult(-1 if sign_exponent % 2 else 1, shape)


def straighten(comp):
    """Reference straightening by sorting the shifted parts.

    With v_i = part_i - i, a repeated value kills the term; otherwise the
    values sort strictly decreasingly, the sorting parity gives the sign
    and adding the position back gives the partition.  Used to cross-check
    the geometric rule.
    """
    parts = tuple(comp.parts) if isinstance(comp, Composition) else tuple(comp)
    if not parts:
        return SlinkyResult(1, Partition(()))
    shifted = [p - i for i, p in enumerate(parts, start=1)]
    if len(set(shifted)) != len(shifted):
        return SlinkyResult(0, None)
    inversions = sum(
        1
        for i in range(len(shifted))
        for j in range(i + 1, len(shifted))
        if shifted[i] < shifted[j]
    )
    ordered = sorted(shifted, reverse=True)
    shape = Partition(tuple(v + i for i, v in enumerate(ordered, start=1)))
    return SlinkyResult(-1 if inversions % 2 else 1, shape)


# -- Schur expansion -----------------------------------------------------------


def schur_expansion(qsym):
    """Convert a fundamental-basis expansion of a symmetric function to Schur.

    Each subset key becomes its composition, the composition straightens to
    a signed partition or dies, and the signed coefficients accumulate.
    Garbage in (a non-symmetric expansion) gives garbage out.
    """
    out = SchurExpansion(qsym.n)
    for subset, coeff in qsym.sorted_items():
        sign, shape = slinky(comp_of_set(subset))
        if sign == 0:
            continue
        out.add(shape, coeff if sign > 0 else -coeff)
    return out


def _rise_may_straighten(mask, i):
    """Whether some ascent set that holds i and the ascents of mask below
    it can straighten to a nonzero term.

    The parts of Comp(S) up to its element i are the first parts of every
    completion of the prefix, and straighten kills a composition whose
    shifted parts part_j - j repeat.  So the rise is dead when the part it
    closes repeats the shifted value of an earlier part; earlier repeats
    were cut at their own rise.
    """
    last, parts, shifted = 0, 0, set()
    for j in range(1, i):
        if mask >> (j - 1) & 1:
            parts += 1
            shifted.add(j - last - parts)
            last = j
    return i - last - parts - 1 not in shifted


def schur_fold(n, k, l):
    """The Schur form of the conjectural Frobenius series, restricted to
    theta degree k and xi degree l (None: any degree), folded from the
    ascent walk as it yields each ascent set's packed polynomial.

    Each ascent set straightens to +-s_lambda or to nothing, and its
    polynomial is added, still packed, into lambda's sum of that sign, so
    no table is held: the walk's pending branches and two sums per
    partition are.  The walk skips each rise after which every ascent set
    straightens to nothing (_rise_may_straighten): at n = 14 it reaches
    1,510 of the 8,192 ascent sets, 986 of them nonzero.  It equals
    schur_expansion(frobenius_qsym(n, k, l)), which stays as the reference.
    """
    pack = _ascent_packing(n, "Schur fold", n)
    sums = {}  # (shape, sign) -> packed polynomial
    for mask, value in _ascent_walk(n, pack, _rise_may_straighten):
        sign, shape = slinky(comp_of_set(IndexSubset(elements_of_mask(mask, n), n)))
        if sign:
            sums[shape, sign] = sums.get((shape, sign), 0) + value
    out = SchurExpansion(n)
    for (shape, sign), value in sums.items():
        poly = _restrict(pack.unpack(value), k, l)
        out.add(shape, poly if sign > 0 else -poly)
    return out


def frobenius_schur(n):
    """Schur form of the conjectural Frobenius series."""
    return schur_fold(n, None, None)


# -- coefficient extraction ------------------------------------------------------


def h_mu_coefficient(n, k, l, mu):
    """Pairing of the (k,l) piece of the Frobenius series with h_mu.

    Equals the q-generating polynomial over basis elements with theta
    degree k, xi degree l and ascent set inside Set(mu).
    """
    if isinstance(mu, Partition):
        mu = mu.parts
    if sum(mu) != n:
        raise ValueError("mu must be a partition of n")
    allowed = set_of_comp(Composition(tuple(mu))).elements
    return _q_slice(ascent_sum(n, allowed, ()), k, l)


def hook_h_coefficient(n, k, l, d):
    """h-pairing against the hook (d+1, 1^(n-d-1)).

    Counts basis elements whose first d+1 positions are bare up-steps with
    no x contribution; this matches h_mu_coefficient on the hook.  Their
    paths reach height d+1 after d+1 steps with weight 1, so they are the
    a12 path-height walk started there.
    """
    if not 0 <= d <= n - 1:
        raise ValueError("needs 0 <= d <= n-1")
    return _q_slice(basis_mod._height_series(n, "a", d + 1), k, l)


def hook_schur_coefficient(n, k, l, d):
    """Schur coefficient of the hook (d+1, 1^(n-d-1)) in the (k,l) piece:
    the elements with ascent set exactly {d+1,...,n-1}."""
    if not 0 <= d <= n - 1:
        raise ValueError("needs 0 <= d <= n-1")
    interval = range(d + 1, n)
    return _q_slice(ascent_sum(n, interval, interval), k, l)


def choose2(a):
    """The binomial a(a-1)/2, nonnegative on every integer: choose2(-1) == 1."""
    return a * (a - 1) // 2


def hook_qbinomial_formula(n, k, l, d):
    """Closed q-binomial form of the hook Schur coefficient."""
    if not 0 <= d <= n - 1:
        raise ValueError("needs 0 <= d <= n-1")
    if k + l >= n:
        raise ValueError("needs k + l < n")
    return (
        q_power(choose2(n - d - k - l))
        * q_binomial(n - 1 - d, l)
        * q_binomial(n - 1 - k, d)
        * q_binomial(n - 1 - l, k)
    )


def sign_character_formula(n, k, l):
    """The d = 0 (column shape) case in its two-q-binomial form."""
    return q_power(choose2(n - k - l)) * q_binomial(n - 1, k + l) * q_binomial(k + l, k)


def hook_asc_characterization(element, d):
    """Structural test for ascent set exactly {d+1,...,n-1}.

    True iff for some pivot a in {d+1,...,n}: positions up to d+1 are bare
    up-steps; positions d+2..a have no theta and rising alpha (counting a
    xi decoration as half a step up); theta turns on right after a; and
    from a+2 on, theta stays on with weakly falling alpha.
    """
    alpha, theta, xi = element.alpha, element.theta, element.xi
    n = len(alpha)
    if not 0 <= d <= n - 1:
        raise ValueError("needs 0 <= d <= n-1")
    for m in range(d + 1):
        if alpha[m] or theta[m] or xi[m]:
            return False
    for a in range(d + 1, n + 1):
        ok = True
        for m in range(d + 2, a + 1):
            if theta[m - 1] or alpha[m - 2] >= alpha[m - 1] + xi[m - 1]:
                ok = False
                break
        if ok and a < n and (theta[a - 1] or not theta[a]):
            ok = False
        if ok:
            for m in range(a + 2, n + 1):
                if not theta[m - 1] or alpha[m - 2] < alpha[m - 1] + xi[m - 1]:
                    ok = False
                    break
        if ok:
            return True
    return False
