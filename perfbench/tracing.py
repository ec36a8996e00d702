"""Per-layer spans and counters for a traced job, recorded from outside coinv.

install() wraps the functions and methods of every coinv module, so that each
call opens a span named after its layer. A layer is a module; the oracle is
split into its three stages. A layer's self time is the time its spans were
open minus the time their child spans, of any layer, were open. Spans are
folded into per-layer totals as they close, so memory stays flat however many
calls a job makes. Counters are kept at the same boundaries.
"""

import functools
import importlib
import inspect
import time
import types
from collections import defaultdict

LAYERS = ("qpoly", "combinat", "motzkin", "basis", "smirnov", "symfun", "oracle", "verify", "cli")

# Span names that differ from "<layer>.self_s": the oracle's stages.
SPAN_NAMES = {
    "oracle.invariant_subspace": "oracle.invariants_s",
    "oracle._ideal_rank": "oracle.rows_s",
    "oracle._Echelon.insert": "oracle.elim_s",
}

# Hot oracle helpers stay unwrapped, so that their time counts in the stage
# that calls them: symmetrisation in invariants, monomial products in rows.
UNWRAPPED = {
    "oracle.reynolds", "oracle.group_action", "oracle._permute_mask",
    "oracle.multiply_monomials", "oracle._popcount", "oracle._mask_bits",
}

# Called implicitly by dict, set and attribute machinery; wrapping them would
# cost more than the work they do.
SKIPPED_METHODS = {
    "__eq__", "__hash__", "__setattr__", "__iter__", "__contains__", "__bool__",
    "__repr__", "__len__", "__lt__",
}

# Counters incremented once per call.
CALL_COUNTERS = {
    "qpoly.QuvPolynomial.__add__": "qpoly.ops",
    "qpoly.QuvPolynomial.__radd__": "qpoly.ops",
    "qpoly.QuvPolynomial.__sub__": "qpoly.ops",
    "qpoly.QuvPolynomial.__rsub__": "qpoly.ops",
    "qpoly.QuvPolynomial.__mul__": "qpoly.ops",
    "qpoly.QuvPolynomial.__rmul__": "qpoly.ops",
    "qpoly.QuvPolynomial.substitute": "qpoly.ops",
    "combinat.IndexSubset.__post_init__": "combinat.subsets",
    "basis.ascent_positions": "basis.ascent_calls",
    "smirnov.psi": "smirnov.calls",
    "smirnov.psi_inverse": "smirnov.calls",
    "smirnov.sminv": "smirnov.calls",
    "smirnov.split_positions": "smirnov.calls",
    "symfun.QSymExpansion.add": "symfun.qsym_adds",
    "symfun.slinky": "symfun.slinky_calls",
    "oracle.quotient_dimension": "oracle.pieces",
    "oracle._quotient_entry": "oracle.pieces",
    "oracle._Echelon.insert": "oracle.rows_inserted",
}

# Counters incremented by the length of a freshly computed result.
SIZE_COUNTERS = {
    "motzkin.enumerate_paths": "motzkin.paths",
    "basis.enumerate_basis": "basis.elements",
}

# Values combined across jobs by max rather than by sum.
MAX_KEYS = ("oracle.max_coeff_bits",)


class Tracer:
    """A stack of open spans and the per-name totals of closed ones."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [name, start, time covered by child spans]
        self.totals = defaultdict(int)

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def leave(self):
        """Close the innermost span; return its duration."""
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        self.totals[name] += duration - covered
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def add(self, name, amount=1):
        self.totals[name] += amount

    def maximum(self, name, value):
        if value > self.totals[name]:
            self.totals[name] = value

    def summary(self):
        return dict(self.totals)


def _wrap(tracer, fn, span, after=None):
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = leave()
        if after is not None:
            after(args, result, duration)
        return result

    return traced


def _after_hook(tracer, key, fn):
    """What to record when the call `key` returns, or None."""
    hooks = []
    if key in CALL_COUNTERS:
        counter = CALL_COUNTERS[key]
        hooks.append(lambda args, result, duration: tracer.add(counter))
    if key in SIZE_COUNTERS:
        counter = SIZE_COUNTERS[key]
        if hasattr(fn, "cache_info"):
            # Only a cache miss materialises the result.
            last_misses = [fn.cache_info().misses]

            def count_size(args, result, duration):
                misses = fn.cache_info().misses
                if misses != last_misses[0]:
                    last_misses[0] = misses
                    tracer.add(counter, len(result))
        else:
            def count_size(args, result, duration):
                tracer.add(counter, len(result))
        hooks.append(count_size)
    if key == "oracle._Echelon.insert":
        hooks.append(lambda args, result, duration: _record_pivot(tracer, args[0], result))
    if not hooks:
        return None
    if len(hooks) == 1:
        return hooks[0]

    def run_all(args, result, duration):
        for hook in hooks:
            hook(args, result, duration)

    return run_all


def _record_pivot(tracer, echelon, grew):
    """Count an independent row and the bit length of its stored coefficients.

    A new pivot row is the last entry of the echelon's insertion-ordered
    pivot dict.
    """
    if not grew:
        return
    tracer.add("oracle.rows_independent")
    pivots = getattr(echelon, "pivots", None)
    if isinstance(pivots, dict) and pivots:
        row = next(reversed(pivots.values()))
        tracer.maximum("oracle.max_coeff_bits", max(abs(v).bit_length() for v in row.values()))


def _wrappable(fn, module):
    target = getattr(fn, "__wrapped__", fn)
    if not isinstance(target, types.FunctionType):
        return False
    return target.__code__.co_filename == module.__file__ and not inspect.isgeneratorfunction(target)


def install(tracer):
    """Wrap every coinv function and method defined in LAYERS' modules.

    Module-level names are replaced in every coinv module that imported them,
    and the check list of coinv.verify is rewrapped so each check also
    records its inclusive time as verify.check_s.<check name>.
    """
    modules = {layer: importlib.import_module("coinv." + layer) for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr, method in list(vars(obj).items()):
                    key = "%s.%s.%s" % (layer, name, attr)
                    if attr in SKIPPED_METHODS or key in UNWRAPPED or not _wrappable(method, module):
                        continue
                    span = SPAN_NAMES.get(key, layer + ".self_s")
                    setattr(obj, attr, _wrap(tracer, method, span, _after_hook(tracer, key, method)))
            elif callable(obj) and _wrappable(obj, module):
                key = "%s.%s" % (layer, name)
                if key in UNWRAPPED:
                    continue
                span = SPAN_NAMES.get(key, layer + ".self_s")
                replaced[id(obj)] = _wrap(tracer, obj, span, _after_hook(tracer, key, obj))
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])
    verify = modules["verify"]
    checks = getattr(verify, "ALL_CHECKS", [])
    for i, (name, check) in enumerate(checks):
        checks[i] = (name, _wrap(tracer, check, "verify.self_s", _inclusive(tracer, name)))


def _inclusive(tracer, check_name):
    key = "verify.check_s." + check_name

    def record(args, result, duration):
        tracer.add(key, duration)

    return record
