"""Partitions, compositions and index subsets, with the Set/Comp conversions.

These index the quasisymmetric and Schur expansions: a subset S of
{1,...,n-1} corresponds to the composition of n whose partial sums are S.
"""

# Assigns a field past Record.__setattr__, which refuses every assignment.
_set_field = object.__setattr__


class Record:
    """An immutable record whose fields are its subclass's __slots__.

    Construction takes the fields by position or keyword, assigns them and
    then calls the subclass's __post_init__, which normalizes and validates
    them.  Records are equal when they have the same type and equal fields,
    hash as the tuple of their fields and cannot be changed afterwards.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError("%s takes exactly the fields (%s), each once"
                            % (type(self).__name__, ", ".join(fields)))
        for name, value in zip(fields, args):
            _set_field(self, name, value)
        self.__post_init__()

    # The field tuples are built inline, not by a shared method, so that a
    # tracer wrapping methods from outside sees no call per hash or compare.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self.__slots__
            return tuple([getattr(self, f) for f in fields]) == tuple([getattr(other, f) for f in fields])
        return NotImplemented

    def __hash__(self):
        return hash(tuple([getattr(self, f) for f in self.__slots__]))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


class Partition(Record):
    """A weakly decreasing tuple of positive integers (possibly empty)."""

    __slots__ = ("parts",)

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive: %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing: %r" % (parts,))

    @property
    def n(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def __iter__(self):
        return iter(self.parts)


def hook_partition(n, d):
    """The hook (d+1, 1^(n-d-1)) of n, for 0 <= d <= n-1."""
    if not 0 <= d <= n - 1:
        raise ValueError("hook needs 0 <= d <= n-1")
    return Partition((d + 1,) + (1,) * (n - d - 1))


class Composition(Record):
    """A tuple of positive integers; the empty composition of 0 is allowed."""

    __slots__ = ("parts",)

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 1 for p in parts):
            raise ValueError("composition parts must be positive: %r" % (parts,))

    @property
    def n(self):
        return sum(self.parts)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def __iter__(self):
        return iter(self.parts)


class IndexSubset(Record):
    """A subset of {1,...,n-1} for an ambient n, kept sorted."""

    __slots__ = ("elements", "n")

    def __post_init__(self):
        elems = tuple(sorted(self.elements))
        object.__setattr__(self, "elements", elems)
        if len(set(elems)) != len(elems):
            raise ValueError("repeated elements: %r" % (elems,))
        if any(not 1 <= e <= self.n - 1 for e in elems):
            raise ValueError("elements of %r not inside {1,...,%d}" % (elems, self.n - 1))

    def __str__(self):
        return "{%s}/n=%d" % (",".join(str(e) for e in self.elements), self.n)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, item):
        return item in self.elements

    def bitmask(self):
        """Bit i-1 set iff i is in the subset."""
        mask = 0
        for e in self.elements:
            mask |= 1 << (e - 1)
        return mask


def comp_of_set(subset):
    """The composition (s1, s2-s1, ..., n-sk) of the subset's ambient n."""
    s = subset.elements
    n = subset.n
    if not s:
        return Composition((n,)) if n else Composition(())
    parts = [s[0]]
    for i in range(1, len(s)):
        parts.append(s[i] - s[i - 1])
    parts.append(n - s[-1])
    return Composition(tuple(parts))


def set_of_comp(comp):
    """The partial sums of the composition, excluding the total."""
    elems = []
    total = 0
    for p in comp.parts[:-1]:
        total += p
        elems.append(total)
    return IndexSubset(tuple(elems), comp.n)


def enumerate_partitions(n):
    """All partitions of n in reverse-lexicographic order, e.g. (3),(2,1),(1,1,1)."""
    out = []

    def rec(remaining, bound, prefix):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for p in range(min(bound, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n if n else 1, [])
    return out


def enumerate_subsets(n):
    """All subsets of {1,...,n-1} ordered by bitmask value."""
    out = []
    for mask in range(1 << max(n - 1, 0)):
        elems = tuple(i + 1 for i in range(n - 1) if mask >> i & 1)
        out.append(IndexSubset(elems, n))
    return out
