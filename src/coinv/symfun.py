"""Quasisymmetric assembly of the conjectural Frobenius series, and its
Schur expansion through the slinky straightening rule.

The Frobenius series is a sum of fundamental quasisymmetric functions
Q_{S,n} weighted by QuvPolynomial coefficients; subsets S are the internal
keys and the composition picture only appears at the Schur boundary.

Every coefficient reads one of basis's two path-state engines, the ascent
table or the path-height walk; none builds a basis element.
"""

from typing import NamedTuple

from . import basis as basis_mod
from .combinat import Composition, IndexSubset, Partition, comp_of_set, set_of_comp
from .qpoly import ZERO, QuvPolynomial, q_binomial, q_power


class _Expansion:
    """A map from keys of one size n to QuvPolynomial.  Subclasses name the
    keys' json field, their order and the error for a key of another size."""

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
            "coeffs": [{self._field: list(key), "coeff": p.to_json()} for key, p in self.sorted_items()],
        }

    def __eq__(self, other):
        return type(other) is type(self) and self.n == other.n and self.coeffs == other.coeffs


class QSymExpansion(_Expansion):
    """A map from IndexSubset keys (shared ambient n) to QuvPolynomial."""

    _field = "subset"
    _mismatch = "subset ambient %d does not match n=%d"
    add = _Expansion.add  # its own entry, where perfbench's tracer counts QSym adds

    def _sort_key(self, subset):
        return subset.bitmask()

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

    _field = "partition"
    _mismatch = "partition of %d does not match n=%d"

    def _sort_key(self, partition):
        return partition.parts

    def latex(self):
        pieces = []
        for p, c in self.sorted_items():
            sub = " ".join(str(x) for x in p.parts)
            pieces.append("\\left(%s\\right) s_{%s}" % (c.latex(), sub))
        return " + ".join(pieces) if pieces else "0"


# -- the Frobenius series ------------------------------------------------------


def frobenius_qsym(n, k=None, l=None):
    """The conjectural Frobenius series in the fundamental basis.

    Sums u^deg_theta v^deg_xi q^deg_x Q_{Asc(b),n} over basis elements,
    read off basis.ascent_table.
    Passing k and/or l restricts to fixed theta/xi degrees.
    """
    out = QSymExpansion(n)
    for mask, poly in basis_mod.ascent_table(n):
        poly = _restrict(poly, k, l)
        if poly:
            out.add(_subset_of_mask(mask, n), poly)
    return out


def _restrict(poly, k, l):
    """The terms of poly with u-degree k and v-degree l (None: any degree)."""
    return QuvPolynomial({
        key: coeff for key, coeff in poly.terms.items()
        if (k is None or key[1] == k) and (l is None or key[2] == l)
    })


def _subset_of_mask(mask, n):
    return IndexSubset(tuple(i + 1 for i in range(n - 1) if mask >> i & 1), n)


def _q_slice(polys, k, l):
    """The sum of the u^k v^l coefficients of polys, a polynomial in q."""
    terms = {}
    for poly in polys:
        for (a, b, c), coeff in poly.terms.items():
            if (b, c) == (k, l):
                terms[(a, 0, 0)] = terms.get((a, 0, 0), 0) + coeff
    return QuvPolynomial(terms)


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


def frobenius_schur(n):
    """Schur form of the conjectural Frobenius series."""
    return schur_expansion(frobenius_qsym(n))


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
    allowed = set_of_comp(Composition(tuple(mu))).bitmask()
    inside = (poly for mask, poly in basis_mod.ascent_table(n) if not mask & ~allowed)
    return _q_slice(inside, k, l)


def hook_h_coefficient(n, k, l, d):
    """h-pairing against the hook (d+1, 1^(n-d-1)).

    Counts basis elements whose first d+1 positions are bare up-steps with
    no x contribution; this matches h_mu_coefficient on the hook.  Their
    paths reach height d+1 after d+1 steps with weight 1, so they are the
    a12 path-height walk started there.
    """
    if not 0 <= d <= n - 1:
        raise ValueError("needs 0 <= d <= n-1")
    return _q_slice([basis_mod._height_series(n, "a", d + 1)], k, l)


def hook_schur_coefficient(n, k, l, d):
    """Schur coefficient of the hook (d+1, 1^(n-d-1)) in the (k,l) piece:
    the elements with ascent set exactly {d+1,...,n-1}."""
    if not 0 <= d <= n - 1:
        raise ValueError("needs 0 <= d <= n-1")
    interval = (1 << (n - 1)) - (1 << d)
    exact = (poly for mask, poly in basis_mod.ascent_table(n) if mask == interval)
    return _q_slice(exact, k, l)


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
