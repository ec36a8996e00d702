"""The aggregated cross-check suite behind the `verify` CLI command.

Each check replays one of the package's mathematical guarantees over an
exhaustive small range and returns None on success or a short witness
string on the first counterexample.  A check runs at the n it is given;
run_all lowers the requested n to the limit on the check's @_check line
and says so on stderr.  With two or more usable CPUs, forked workers run
the checks and report only whether each passed; run_all prints the lines
in check order and runs again, itself, each check that did not pass.
"""

import os
import sys
from functools import lru_cache, wraps
from itertools import combinations
from math import comb, factorial

from . import basis, motzkin, oracle, smirnov, symfun
from .combinat import (
    Composition,
    IndexSubset,
    comp_of_set,
    enumerate_partitions,
    enumerate_subsets,
    hook_partition,
    set_of_comp,
)
from .qpoly import ZERO, QuvPolynomial, q_binomial, q_power
from .symfun import choose2

# Each check as (name, check, limit), in the order run_all runs them.
CHECKS = []


def _check(name, limit):
    """Register the decorated body as the check `name`, which verify runs at
    n up to `limit`.  The body takes one m and returns a witness string or
    None; the check at n runs it for m = 1..n and returns the first witness.
    """

    def register(body):
        # perfbench's tracer reads __wrapped__ to find where a function is defined
        @wraps(body)
        def check(n):
            for m in range(1, n + 1):
                witness = body(m)
                if witness is not None:
                    return witness
            return None

        CHECKS.append((name, check, limit))
        return check

    return register


# -- qpoly ---------------------------------------------------------------------


@_check("q-pascal", 12)
def check_q_pascal(m):
    for r in range(1, m + 1):
        lhs = q_binomial(m, r)
        rhs = q_binomial(m - 1, r - 1) + q_power(r) * q_binomial(m - 1, r)
        if lhs != rhs:
            return "q-Pascal fails at (%d, %d)" % (m, r)


@_check("q-chu-vandermonde", 10)
def check_q_chu_vandermonde(m):
    for d in range(m):
        for k in range(m - d):
            for l in range(m - d):
                lhs = q_power(choose2(m - d - k - l)) * q_binomial(m - d - 1, l)
                rhs = ZERO
                for f in range(l + 1):
                    rhs = rhs + (
                        q_power(choose2(m - d - k - f) + choose2(l - f))
                        * q_binomial(m - d - 1 - k, f)
                        * q_binomial(k, l - f)
                    )
                if lhs != rhs:
                    return "q-Chu-Vandermonde fails at n=%d d=%d k=%d l=%d" % (m, d, k, l)


@_check("eval-at-one", 8)
def check_eval_at_one(m):
    a = basis.hilbert_series(m, "a12")
    b = smirnov.sw_q(m, 0, 0)
    prod = a * b
    if prod.evaluate() != a.evaluate() * b.evaluate():
        return "evaluation at 1 is not multiplicative at n=%d" % m


# -- combinat ------------------------------------------------------------------


@_check("set-comp-inverse", 10)
def check_set_comp_inverse(m):
    subsets = enumerate_subsets(m)
    if len(subsets) != 1 << (m - 1):
        return "subset count wrong at n=%d" % m
    for s in subsets:
        if set_of_comp(comp_of_set(s)) != s:
            return "Set(Comp(S)) != S at %s" % s
    seen = set()
    for s in subsets:
        comp = comp_of_set(s)
        if comp_of_set(set_of_comp(comp)) != comp:
            return "Comp(Set(a)) != a at %s" % comp
        seen.add(comp.parts)
    if len(seen) != len(subsets):
        return "Comp is not injective at n=%d" % m


# -- motzkin -------------------------------------------------------------------


@_check("path-counts", 8)
def check_path_counts(m):
    paths = motzkin.enumerate_paths(m, "a")
    if len(paths) != comb(2 * m - 1, m):
        return "type A path count wrong at n=%d" % m
    if len(set(paths)) != len(paths):
        return "duplicate type A paths at n=%d" % m
    if len(motzkin.enumerate_paths(m - 1, "b")) != len(paths):
        return "type A/type B count shift fails at n=%d" % m
    for p in paths:
        height = 0
        for s in p.steps:
            height += motzkin.STEPS[s][0]
            if height < motzkin.FLOOR["a"]:
                return "type A floor violated by %s" % p


# -- basis ---------------------------------------------------------------------


@_check("cardinality-a", 8)
def check_cardinality_a(m):
    if basis.count_basis(m, "a12") != (1 << (m - 1)) * factorial(m):
        return "a12 cardinality wrong at n=%d" % m


@_check("cardinality-b", 8)
def check_cardinality_b(m):
    if basis.count_basis(m, "b12") != 4**m * factorial(m):
        return "b12 cardinality wrong at n=%d" % m
    if basis.count_type_b(m) != 4**m * factorial(m):
        return "type B counting recursion wrong at n=%d" % m


@_check("specializations", 8)
def check_specializations(m):
    """a12 and b12 with xi = 0 are the super-Artin bases a11 and b11, and
    a12 with alpha = 0 is a02, compared row by row.

    iter_basis is the sum of the boxes {alpha : 0 <= alpha <= bound} of the
    (theta, xi, bound) rows of iter_rows.  A box with no negative entry
    holds 0, so it is a down-set with the single maximum `bound`, and the
    indicators of distinct such boxes are linearly independent: two bases
    are equal as multisets exactly when their rows are.  A row with a
    negative entry is an empty box, which breaks that, so it is refused.
    Every box holds alpha = 0 once, so the alpha-free part of a12 is the
    (theta, xi) of its rows.  iter_rows derives a11 and b11 from the path
    rows, so both they and the xi-free path rows are compared with rows
    built apart from any path: one per T of {floor+1,...,n}, with the
    bound super_artin_bound(T).
    """
    rows = {}
    for variant in basis.VARIANTS:
        rows[variant] = list(basis.iter_rows(m, variant))
        for row in rows[variant]:
            if min(row[2]) < 0:
                return "%s row %s has a negative bound entry at n=%d" % (variant, row, m)
    for kind in "ab":
        lowest = motzkin.FLOOR[kind] + 1
        artin = sorted(
            (tuple(int(i in T) for i in range(1, m + 1)), (0,) * m, basis.super_artin_bound(T, m, kind))
            for size in range(m - lowest + 2)
            for T in combinations(range(lowest, m + 1), size)
        )
        if sorted(row for row in rows[kind + "12"] if not any(row[1])) != artin:
            return "%s12 restricted to xi=0 differs from the super-Artin rows at n=%d" % (kind, m)
        if sorted(rows[kind + "11"]) != artin:
            return "%s11 differs from the super-Artin rows at n=%d" % (kind, m)
    if any(any(bound) for _, _, bound in rows["a02"]) or (
        sorted(row[:2] for row in rows["a12"]) != sorted(row[:2] for row in rows["a02"])
    ):
        return "a12 restricted to alpha=0 differs from a02 at n=%d" % m


@_check("hilbert-stirling-a", 12)
def check_hilbert_stirling_a(m):
    if basis.hilbert_series(m, "a12").substitute(v=0) != basis.hilbert_11_formula(m, "a"):
        return "a12 Hilbert at v=0 differs from the q-Stirling form at n=%d" % m


@_check("hilbert-stirling-b", 10)
def check_hilbert_stirling_b(m):
    if basis.hilbert_series(m, "b12").substitute(v=0) != basis.hilbert_11_formula(m, "b"):
        return "b12 Hilbert at v=0 differs from the q-Stirling form at n=%d" % m


@_check("hilbert-dimension", 8)
def check_hilbert_dimension(m):
    """a12 at q=u=v=1 and at q=0; b12 at q=u=v=1."""
    if basis.hilbert_series(m, "a12").evaluate() != (1 << (m - 1)) * factorial(m):
        return "a12 Hilbert at q=u=v=1 wrong at n=%d" % m
    weights = basis.hilbert_series(m, "a12").substitute(q=0)
    counts = {}
    for b in basis.iter_basis(m, "a02"):
        key = (0, b.deg_theta, b.deg_xi)
        counts[key] = counts.get(key, 0) + 1
    if weights != QuvPolynomial(counts):
        return "a12 Hilbert at q=0 differs from the a02 basis at n=%d" % m
    if basis.hilbert_series(m, "b12").evaluate() != 4**m * factorial(m):
        return "b12 Hilbert at q=u=v=1 wrong at n=%d" % m


def _count_by_end(m, kind):
    """The basis elements over the paths of size m and kind, counted by
    (final staircase entry, height change of the last step)."""
    groups = {}
    for path in motzkin.enumerate_paths(m, kind):
        bound = basis.path_bound(path)
        size = 1
        for b in bound:
            size *= b + 1
        key = (bound[-1], motzkin.STEPS[path.steps[-1]][0])
        groups[key] = groups.get(key, 0) + size
    return groups


@_check("count-by-height", 8)
def check_count_by_height(m):
    groups = _count_by_end(m, "a")
    for r in range(0, m + 1):
        expect = basis.count_by_height(m, r)
        if basis.count_by_height_recursion(m, r) != expect:
            return "count_by_height recursion differs at (%d, %d)" % (m, r)
        if sum(groups.get((r, dh), 0) for dh in (1, 0, -1)) != expect:
            return "count_by_height enumeration differs at (%d, %d)" % (m, r)


@_check("count-type-b-refined", 8)
def check_count_type_b_refined(m):
    """The last step's class is E, U or D as it keeps, raises or lowers the height."""
    groups = _count_by_end(m, "b")
    for r in range(0, 2 * m + 2):
        for cls, dh in (("E", 0), ("U", 1), ("D", -1)):
            if groups.get((r, dh), 0) != basis.count_type_b_refined(m, r, cls):
                return "type B refined count differs at n=%d r=%d class=%s" % (m, r, cls)


# -- smirnov -------------------------------------------------------------------


@_check("bijection-suite", 7)
def check_bijection_suite(m):
    count = sum(1 for _ in smirnov.iter_segmented_words((1,) * m))
    if count != (1 << (m - 1)) * factorial(m):
        return "segmented permutation count wrong at n=%d" % m
    elements = 0
    for b in basis.iter_basis(m, "a12"):
        elements += 1
        word = smirnov.psi(b)
        if not word.is_valid():
            return "psi produced an invalid word for %s" % (b,)
        # psi_inverse refuses a word that is not a permutation; a passing
        # round trip also proves psi injective
        if smirnov.psi_inverse(word) != b:
            return "psi round trip fails at %s" % (b,)
        k, l, inv, split = smirnov.word_statistics(word)
        if (b.deg_theta, b.deg_xi) != (k, l):
            return "theta/xi degree not preserved at %s" % (b,)
        if b.deg_x != inv:
            return "x-degree vs sminv fails at %s" % (b,)
        if basis.ascent_positions(b.alpha, b.theta, b.xi) != split:
            return "Asc != Split at %s" % (b,)
        if len(word.splits) + 1 != m - k - l:
            return "block count identity fails at %s" % (word,)
    # an injective psi into the segmented permutations is onto them
    # exactly when the counts agree
    if elements != count:
        return "psi is not surjective at n=%d" % m


@_check("sw-recursion", 7)
def check_sw_recursion(m):
    counts = {}  # (k, l) -> {sminv: number of words}
    for word in smirnov.iter_segmented_words((1,) * m):
        letters = word.letters
        initial = smirnov._initial_flags(word)
        by_inv = counts.setdefault(smirnov._rise_fall_counts(letters, initial), {})
        inv = smirnov._sminv_count(letters, initial)
        by_inv[inv] = by_inv.get(inv, 0) + 1
    total = ZERO
    for k in range(m):
        for l in range(m - k):
            poly = smirnov.sw_q(m, k, l)
            by_inv = counts.get((k, l), {})
            if QuvPolynomial({(inv, 0, 0): c for inv, c in by_inv.items()}) != poly:
                return "sw_q recursion differs from enumeration at (%d,%d,%d)" % (m, k, l)
            total = total + _shift_uv(poly, k, l)
    if total != basis.hilbert_series(m, "a12"):
        return "sum of sw_q pieces differs from the Hilbert series at n=%d" % m


def _shift_uv(poly, k, l):
    return QuvPolynomial({(a, b + k, c + l): co for (a, b, c), co in poly.terms.items()})


# -- symfun --------------------------------------------------------------------


def frobenius_qsym_via_words(n, k=None, l=None):
    """The Frobenius series as the sum of q^sminv u^k v^l Q_{Split,n} over
    the segmented permutations of size n (test oracle).

    It agrees with symfun.frobenius_qsym, which reads basis.ascent_table,
    through the bijection.  Passing k and/or l restricts to fixed theta/xi
    degrees.
    """
    stats = (smirnov.word_statistics(word) for word in smirnov.iter_segmented_words((1,) * n))
    return _qsym_tally(
        ((split, (inv, dk, dl)) for dk, dl, inv, split in stats
         if (k is None or dk == k) and (l is None or dl == l)),
        n,
    )


def _qsym_tally(pairs, n):
    """The QSymExpansion summing q^a u^b v^c Q_{S,n} over a stream of
    (S, (a, b, c)) pairs, counted as integers per subset and weight."""
    tallies = {}
    for subset, key in pairs:
        counts = tallies.setdefault(subset, {})
        counts[key] = counts.get(key, 0) + 1
    out = symfun.QSymExpansion(n)
    for subset, counts in tallies.items():
        out.add(IndexSubset(subset, n), QuvPolynomial(counts))
    return out


@_check("frobenius-routes", 6)
def check_frobenius_routes(m):
    via_basis = symfun.frobenius_qsym(m)
    via_words = frobenius_qsym_via_words(m)
    if via_basis != via_words:
        return "the two Frobenius routes disagree at n=%d" % m
    if via_basis.total() != basis.hilbert_series(m, "a12"):
        return "Frobenius paired with h_1^n misses the Hilbert series at n=%d" % m


@lru_cache(maxsize=1)
def _tallies_of_size(n):
    """The word tallies of the subsets of {1..n-1} counted so far, by
    subset.  A check runs its body at m = 1, 2, ..., and each body asks
    for subsets of its own m only, so only the last size asked for is
    kept: at n = 8 a tally of every size took 12.9 MB."""
    return {}


def _word_tally(subset):
    """The monomials of Q_{S,n} for the IndexSubset S of {1..n-1}, as
    {exponent vector: count} over the weakly increasing maps
    {1..n} -> {1..n} that rise strictly at the positions in S."""
    tallies = _tallies_of_size(subset.n)
    if subset in tallies:
        return tallies[subset]
    n = subset.n
    strict_at = set(subset.elements)

    def words(prefix, pos):
        if pos == n:
            yield prefix
            return
        lo = prefix[-1] + (1 if pos in strict_at else 0) if prefix else 1
        for letter in range(lo, n + 1):
            prefix.append(letter)
            yield from words(prefix, pos + 1)
            prefix.pop()

    counts = {}
    for w in words([], 0):
        exps = [0] * n
        for letter in w:
            exps[letter - 1] += 1
        key = tuple(exps)
        counts[key] = counts.get(key, 0) + 1
    tallies[subset] = counts
    return counts


def qsym_monomial_expansion(expansion):
    """Expand a QSymExpansion into monomials in n variables (test oracle).

    Returns a dict from exponent vectors (length n) to QuvPolynomial.
    Each Q_{S,n} contributes one word per weakly increasing map
    {1..n} -> {1..n} that rises strictly at the positions in S.  The words
    of each subset are counted per exponent vector once per (S, n), and
    each vector's polynomial is built once from integer coefficients.
    """
    n = expansion.n
    tallies = {}  # exponent vector -> {(a, b, c): coefficient}
    for subset, coeff in expansion.coeffs.items():
        for key, count in _word_tally(subset).items():
            terms = tallies.setdefault(key, {})
            for monomial, co in coeff.terms.items():
                terms[monomial] = terms.get(monomial, 0) + count * co
    out = {}
    for key, terms in tallies.items():
        poly = QuvPolynomial(terms)
        if poly:
            out[key] = poly
    return out


@_check("symmetry-witness", 8)
def check_symmetry_witness(m):
    """Each (k, l) piece is expanded, checked and dropped before the next."""
    for k in range(m):
        for l in range(m - k):
            exp = qsym_monomial_expansion(symfun.frobenius_qsym(m, k=k, l=l))
            for key, coeff in exp.items():
                for i in range(m - 1):
                    swapped = list(key)
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    if exp.get(tuple(swapped), ZERO) != coeff:
                        return "monomial expansion not symmetric at n=%d (k=%d,l=%d)" % (m, k, l)


@_check("h-mu-dual", 8)
def check_h_mu_dual(m):
    """The m_mu coefficient of each (k, l) piece is summed from the words of
    each Q_S at the exponent mu alone, with no piece expanded."""
    pieces = {(k, l): symfun.frobenius_qsym(m, k=k, l=l) for k in range(m) for l in range(m - k)}
    for mu in enumerate_partitions(m):
        exponent = tuple(mu.parts) + (0,) * (m - mu.length)
        for k in range(m):
            for l in range(m - k):
                via_theorem = symfun.h_mu_coefficient(m, k, l, mu)
                terms = {}
                for subset, coeff in pieces[k, l].coeffs.items():
                    count = _word_tally(subset).get(exponent, 0)
                    if count:
                        for monomial, co in coeff.terms.items():
                            terms[monomial] = terms.get(monomial, 0) + count * co
                via_monomials = QuvPolynomial(terms).substitute(u=1, v=1)
                if via_theorem != via_monomials:
                    return "h_mu dual-path fails at n=%d mu=%s (k=%d,l=%d)" % (m, mu, k, l)


@_check("hook-identities", 12)
def check_hook_identities(m):
    for d in range(m):
        for k in range(m):
            for l in range(m - k):
                enum = symfun.hook_schur_coefficient(m, k, l, d)
                closed = symfun.hook_qbinomial_formula(m, k, l, d)
                if enum != closed:
                    return "hook identity fails at n=%d d=%d k=%d l=%d" % (m, d, k, l)
                if d == 0 and closed != symfun.sign_character_formula(m, k, l):
                    return "sign character form fails at n=%d k=%d l=%d" % (m, k, l)


@_check("hook-h-dual", 12)
def check_hook_h_dual(m):
    for d in range(m):
        mu = hook_partition(m, d)
        for k in range(m):
            for l in range(m - k):
                if symfun.hook_h_coefficient(m, k, l, d) != symfun.h_mu_coefficient(m, k, l, mu):
                    return "hook h-coefficient differs from h_mu at n=%d d=%d k=%d l=%d" % (m, d, k, l)


@_check("hook-characterization", 7)
def check_hook_characterization(m):
    for b in basis.iter_basis(m, "a12"):
        asc = basis.ascent_positions(b.alpha, b.theta, b.xi)
        for d in range(m):
            direct = asc == tuple(range(d + 1, m))
            if symfun.hook_asc_characterization(b, d) != direct:
                return "hook ascent characterization differs at %s d=%d" % (b, d)


def _qsym_of_stream(elements, m, weight):
    """The QSymExpansion summing weight(b) Q_{Asc(b),m} over a stream of
    elements."""
    return _qsym_tally(((basis.ascent_positions(b.alpha, b.theta, b.xi), weight(b)) for b in elements), m)


@_check("frobenius-specializations", 8)
def check_frobenius_specializations(m):
    frob = symfun.frobenius_qsym(m)
    from_a02 = _qsym_of_stream(basis.iter_basis(m, "a02"), m, lambda b: (0, b.deg_theta, b.deg_xi))
    if frob.substitute(q=0) != from_a02:
        return "q=0 specialization differs from the a02 expansion at n=%d" % m
    from_a11 = _qsym_of_stream(basis.iter_basis(m, "a11"), m, lambda b: (b.deg_x, b.deg_theta, 0))
    if frob.substitute(v=0) != from_a11:
        return "v=0 specialization differs from the a11 expansion at n=%d" % m


@_check("slinky", 8)
def check_slinky(m):
    for subset in enumerate_subsets(m):
        comp = comp_of_set(subset)
        geometric = symfun.slinky(comp)
        reference = symfun.straighten(comp)
        if geometric != reference:
            return "slinky and straightening disagree at %s" % comp
        if geometric.sign and geometric.shape.n != m:
            return "slinky shape has the wrong size at %s" % comp
    for d in range(m):
        hook = hook_partition(m, d)
        res = symfun.slinky(Composition(hook.parts))
        if res.sign != 1 or res.shape != hook:
            return "hook composition does not fix itself at n=%d d=%d" % (m, d)


# -- oracle --------------------------------------------------------------------


def _oracle_witness(m, group_kind, name, series):
    """The oracle's verdict at m, its witness worded with `name` and
    `series`."""
    poly, complete, report = oracle.hilbert_via_oracle(m, group_kind)
    _, _, _, agrees = oracle.compare_with_conjecture(m, group_kind, poly, report)
    if not complete:
        return "%s truncation band is nonzero at n=%d" % (name, m)
    if not agrees:
        return "%s differs from the conjectural %s at n=%d" % (name, series, m)


@_check("oracle-type-a", 3)
def check_oracle_type_a(m):
    return _oracle_witness(m, "a", "oracle", "Hilbert series")


@_check("oracle-type-b", 2)
def check_oracle_type_b(m):
    return _oracle_witness(m, "b", "type B oracle", "series")


@_check("oracle-exactness", 2)
def check_oracle_exactness(m):
    """Recompute type A with a larger x-degree window; per-degree data must agree.

    At m=1 it checks nothing.
    """
    if m < 2:
        return None
    base = oracle.hilbert_via_oracle(m, "a")[2]
    wide = oracle.hilbert_via_oracle(m, "a", max_x_degree=oracle.default_max_x_degree(m, "a") + 2)[2]
    wide_map = {tuple(r["degree"]): r for r in wide}
    for row in base:
        other = wide_map[tuple(row["degree"])]
        if (row["ideal_rank"], row["quotient"]) != (other["ideal_rank"], other["quotient"]):
            return "per-degree ranks changed with a larger window at %r" % (row["degree"],)


# The checks in the order run_all runs them, as (name, check) pairs: the
# tracer in perfbench/ rewraps this list pair by pair.
ALL_CHECKS = [(name, check) for name, check, _ in CHECKS]
LIMITS = {name: limit for name, _, limit in CHECKS}


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _work(jobs, claims, verdicts, parent):
    """A worker: run the checks it claims and write each one's index and
    whether it passed to verdicts, until no check is left or its parent is
    gone.  A check that did not pass empties the claims, so no worker
    starts a check after it."""
    while os.getppid() == parent:
        claim = os.read(claims, 1)
        if not claim:
            return
        _, check, m = jobs[claim[0]]
        try:
            passed = check(m) is None
        except Exception:
            passed = False
        if not passed:
            while os.read(claims, 256):
                pass
        os.write(verdicts, bytes((claim[0], passed)))  # two bytes: one atomic write


def run_all(n):
    """Run every check at n lowered to its limit; stop at the first failure.

    Prints one "ok" or "FAIL" line per check.  Each check that ran
    below the requested n is named on stderr, so the report lines do not
    depend on n beyond the checks' results.  Returns 0 when everything
    passes, 1 otherwise.

    With two or more usable CPUs, one worker per CPU runs the checks.
    Every worker takes the next unclaimed check from one pipe, filled with
    one byte per check index, so the load balances as the checks run, and
    writes each check's index and whether it passed to one verdict pipe.
    The caller takes the checks in order and reads verdicts until the
    check's own arrives or no worker is left; it runs here, at its turn,
    every check that did not pass (it failed, raised or its worker died)
    and every check no worker reported.  Every check is deterministic, so
    stdout, stderr and the exit code are those of running the checks one
    by one, which is what the caller does with one CPU or without os.fork.
    The workers are killed and reaped before this returns or raises.
    """
    jobs = [(name, fn, min(n, LIMITS[name])) for name, fn in ALL_CHECKS]
    lanes = min(_usable_cpus(), len(jobs)) if hasattr(os, "fork") else 1
    claims, fill = os.pipe()
    os.write(fill, bytes(range(len(jobs))))  # one byte an index: at most 256 checks
    os.close(fill)
    read_verdicts, write_verdicts = os.pipe()
    parent = os.getpid()
    sys.stdout.flush()
    sys.stderr.flush()
    workers = []
    try:
        for _ in range(lanes if lanes > 1 else 0):
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_verdicts)
                    quiet = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(quiet, 1)
                    os.dup2(quiet, 2)
                    _work(jobs, claims, write_verdicts, parent)
                finally:
                    os._exit(0)
            workers.append(pid)
        os.close(write_verdicts)  # so the reads end once every worker has exited
        passed = {}  # check index -> whether a worker saw it pass
        for turn, (name, fn, m) in enumerate(jobs):
            while turn not in passed and (data := os.read(read_verdicts, 512)):
                passed.update(zip(data[::2], data[1::2]))
            witness = None if passed.get(turn) else fn(m)
            if m < n:
                print("verify: %s ran at n=%d (asked %d)" % (name, m, n), file=sys.stderr)
            if witness is not None:
                print("FAIL %s: %s" % (name, witness))
                return 1
            print("ok   %s" % name)
        return 0
    finally:
        for pid in workers:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        os.close(read_verdicts)
        os.close(claims)
