"""Exact sparse polynomial arithmetic in the grading variables q, u, v.

A QuvPolynomial is a finite integer combination of monomials q^a u^b v^c
with a, b, c >= 0.  The variable q tracks x-degree, u tracks theta-degree
and v tracks xi-degree throughout the package.  Coefficients are Python
ints, so nothing ever overflows.
"""

from functools import lru_cache


class QuvPolynomial:
    """Immutable sparse polynomial in q, u, v over the integers.

    Terms are stored as a dict mapping exponent triples (a, b, c) to
    nonzero integer coefficients.  Instances hash and compare by their
    term data, and every operation returns a fresh polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for key, coeff in terms.items():
                a, b, c = key
                if a < 0 or b < 0 or c < 0:
                    raise ValueError("negative exponent in %r" % (key,))
                if coeff:
                    cleaned[(a, b, c)] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("QuvPolynomial is immutable")

    def __reduce__(self):
        # the default restores the slot through __setattr__, which refuses
        return QuvPolynomial, (self.terms,)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return _trusted(terms)

    __radd__ = __add__

    def __neg__(self):
        return _trusted({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        terms = {}
        for (a1, b1, c1), co1 in self.terms.items():
            for (a2, b2, c2), co2 in other.terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                new = terms.get(key, 0) + co1 * co2
                if new:
                    terms[key] = new
                else:
                    del terms[key]
        return _trusted(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, QuvPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def coefficient(self, a, b, c):
        """Return the integer coefficient of q^a u^b v^c."""
        return self.terms.get((a, b, c), 0)

    def evaluate(self):
        """The value at q = u = v = 1: the sum of the coefficients."""
        return sum(self.terms.values())

    def substitute(self, q=None, u=None, v=None):
        """Substitute integer values for any subset of the variables.

        Unsubstituted variables remain formal; the result is a polynomial.
        """
        terms = {}
        for (a, b, c), coeff in self.terms.items():
            if q is not None:
                coeff *= q**a
                a = 0
            if u is not None:
                coeff *= u**b
                b = 0
            if v is not None:
                coeff *= v**c
                c = 0
            key = (a, b, c)
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return _trusted(terms)

    def sorted_terms(self):
        """Terms in canonical (ascending lexicographic) order."""
        return sorted(self.terms.items())

    # -- serialization -----------------------------------------------------

    def to_json(self):
        """JSON form: list of {"q","u","v","coeff"} records in canonical order."""
        return [
            {"q": a, "u": b, "v": c, "coeff": str(co)}
            for (a, b, c), co in self.sorted_terms()
        ]

    @staticmethod
    def from_json(records):
        return QuvPolynomial({(r["q"], r["u"], r["v"]): int(r["coeff"]) for r in records})

    def __str__(self):
        """Human-readable form, e.g. "q^2 + 3q + 2" (descending term order)."""
        return self._format(" %s ", latex=False)

    def latex(self):
        """LaTeX form with braced exponents, same term order as str()."""
        return self._format("%s", latex=True)

    def _format(self, joiner, latex):
        """Terms in descending order, each sign after the first written as
        joiner % sign; a leading minus sign is bare."""
        if not self.terms:
            return "0"
        out = []
        for key, coeff in sorted(self.terms.items(), reverse=True):
            mono = _monomial_str(key, latex)
            mag = abs(coeff)
            body = mono if mag == 1 and mono else "%d%s" % (mag, mono)
            sign = "-" if coeff < 0 else "+"
            if out:
                out.append(joiner % sign)
            elif sign == "-":
                out.append("-")
            out.append(body)
        return "".join(out)

    def __repr__(self):
        return "QuvPolynomial(%s)" % str(self)


def _trusted(terms):
    """Wrap a terms dict that is already clean: exponent triples of
    nonnegative ints, no zero coefficients.  Arithmetic results qualify, so
    they skip the per-term validation of QuvPolynomial.__init__."""
    poly = object.__new__(QuvPolynomial)
    object.__setattr__(poly, "terms", terms)
    return poly


def _monomial_str(key, latex):
    a, b, c = key
    out = ""
    for var, exp in (("q", a), ("u", b), ("v", c)):
        if exp == 0:
            continue
        if exp == 1:
            out += var
        elif latex:
            out += "%s^{%d}" % (var, exp)
        else:
            out += "%s^%d" % (var, exp)
    return out


def _coerce(value):
    if isinstance(value, QuvPolynomial):
        return value
    if isinstance(value, int):
        return QuvPolynomial({(0, 0, 0): value}) if value else ZERO
    raise TypeError("cannot combine QuvPolynomial with %r" % (value,))


ZERO = QuvPolynomial()
ONE = QuvPolynomial({(0, 0, 0): 1})


def q_power(a):
    """The monomial q^a."""
    return QuvPolynomial({(a, 0, 0): 1})


# -- q-analog building blocks ----------------------------------------------


def q_integer(k):
    """The q-integer [k]_q = 1 + q + ... + q^(k-1); [0]_q = 0."""
    if k < 0:
        raise ValueError("q_integer needs k >= 0")
    return QuvPolynomial({(a, 0, 0): 1 for a in range(k)})


def q_factorial(k):
    """The q-factorial [k]_q! = [1]_q [2]_q ... [k]_q (empty product is 1)."""
    if k < 0:
        raise ValueError("q_factorial needs k >= 0")
    out = ONE
    for m in range(1, k + 1):
        out = out * q_integer(m)
    return out


def q_double_factorial_even(k):
    """The even q-double factorial [2k]_q!! = [2]_q [4]_q ... [2k]_q."""
    if k < 0:
        raise ValueError("q_double_factorial_even needs k >= 0")
    out = ONE
    for m in range(1, k + 1):
        out = out * q_integer(2 * m)
    return out


@lru_cache(maxsize=None)
def q_binomial(m, r):
    """Gaussian binomial [m choose r]_q; 0 when out of range.

    Computed by the q-Pascal recursion
    [m r]_q = [m-1 r-1]_q + q^r [m-1 r]_q.
    """
    if r < 0 or m < 0 or r > m:
        return ZERO
    if r == 0 or r == m:
        return ONE
    return q_binomial(m - 1, r - 1) + q_power(r) * q_binomial(m - 1, r)


@lru_cache(maxsize=None)
def q_stirling(n, k, kind):
    """q-Stirling number by recursion, kind "a" or "b".

    Type a: Stir(n,k) = [k]_q Stir(n-1,k) + Stir(n-1,k-1).
    Type b: Stir(n,k) = [2k+1]_q Stir(n-1,k) + Stir(n-1,k-1).
    Both start from Stir(0,k) = 1 if k == 0 else 0.
    """
    if kind not in ("a", "b"):
        raise ValueError("kind must be 'a' or 'b'")
    if n < 0:
        raise ValueError("q_stirling needs n >= 0")
    if n == 0:
        return ONE if k == 0 else ZERO
    if k < 0 or k > n:
        return ZERO
    factor = q_integer(k) if kind == "a" else q_integer(2 * k + 1)
    return factor * q_stirling(n - 1, k, kind) + q_stirling(n - 1, k - 1, kind)
