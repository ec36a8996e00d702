"""Decorated modified Motzkin paths of type A and type B.

Steps come in four kinds: an up-step, a horizontal step carrying a theta
decoration, a horizontal step carrying a xi decoration, and a down-step
carrying both.  Type A paths must start with an up-step and stay at height
>= 1 afterwards; type B paths simply stay at height >= 0.
"""

from .combinat import Record

UP, HTHETA, HXI, DOWN = range(4)

STEP_CHARS = "UTXD"
# (height change, theta bit, xi bit) of each step kind, indexed by UP,
# HTHETA, HXI and DOWN: the one place the step encoding is written down.
STEPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 1, 1))
# The height change of each step kind, read off STEPS.
RISES = tuple(rise for rise, _, _ in STEPS)
_KINDS = frozenset(range(len(STEPS)))
# The floor of each path type: the height that a path may not dip below,
# which is also the number of forced up-steps it starts with.  A type A
# path starts with the up-step to height 1 and stays at height >= 1; a
# type B path stays at height >= 0.  The one place the floors are written.
FLOOR = {"a": 1, "b": 0}


class MotzkinPath(Record):
    """An immutable decorated path; variant is "a" or "b"."""

    __slots__ = ("steps", "variant")

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if self.variant not in FLOOR:
            raise ValueError("variant must be 'a' or 'b'")
        if not _KINDS.issuperset(steps):
            raise ValueError("unknown step kind in %r" % (steps,))
        if self.variant == "a":
            if not steps:
                raise ValueError("type A paths need length >= 1")
            if steps[0] != UP:
                raise ValueError("type A paths must start with an up-step")
        floor = FLOOR[self.variant]
        h = 0
        for i, s in enumerate(steps):
            h += RISES[s]
            if h < floor:
                raise ValueError("path dips below its floor at step %d" % (i + 1,))

    @property
    def n(self):
        return len(self.steps)

    def height_after(self, i):
        """Height after the first i steps; height_after(0) == 0."""
        if not 0 <= i <= len(self.steps):
            raise ValueError("step index out of range")
        return sum(STEPS[s][0] for s in self.steps[:i])

    def weight_sets(self):
        """The decoration index sets (T, S): positions carrying theta resp. xi.

        Positions are 1-based.  Horizontal theta steps and down-steps
        contribute to T; horizontal xi steps and down-steps contribute to S.
        """
        T = frozenset(i + 1 for i, s in enumerate(self.steps) if STEPS[s][1])
        S = frozenset(i + 1 for i, s in enumerate(self.steps) if STEPS[s][2])
        return T, S

    def __str__(self):
        return format_path(self)


def format_path(path):
    """Path literal, e.g. "U U D"."""
    return " ".join(STEP_CHARS[s] for s in path.steps)


def parse_path(text, variant):
    """Parse a path literal like "U T X D"."""
    steps = []
    for tok in text.split():
        idx = STEP_CHARS.find(tok.upper())
        if idx < 0:
            raise ValueError("unknown step token %r" % (tok,))
        steps.append(idx)
    return MotzkinPath(tuple(steps), variant)


def enumerate_paths(n, variant):
    """All valid paths of length n in lexicographic step order U < T < X < D."""
    if variant not in FLOOR:
        raise ValueError("variant must be 'a' or 'b'")
    if variant == "a" and n < 1:
        raise ValueError("type A enumeration needs n >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")

    floor = FLOOR[variant]
    out = []
    steps = []

    def rec(pos, height):
        if pos == n:
            out.append(MotzkinPath(tuple(steps), variant))
            return
        kinds = (UP,) if pos < floor else (UP, HTHETA, HXI, DOWN)
        for s in kinds:
            h = height + STEPS[s][0]
            if h < floor:
                continue
            steps.append(s)
            rec(pos + 1, h)
            steps.pop()

    rec(0, 0)
    return out


def delete_first_up(path):
    """Drop the forced first up-step of a type A path, giving a type B path.

    This is the height-shift bijection between type A paths of length n and
    type B paths of length n-1.
    """
    if path.variant != "a":
        raise ValueError("expects a type A path")
    return MotzkinPath(path.steps[1:], "b")
