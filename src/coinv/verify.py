"""The aggregated cross-check suite behind the `verify` CLI command.

Each check replays one of the package's mathematical guarantees over an
exhaustive small range and returns None on success or a short witness
string on the first counterexample.  A check runs at the n it is given;
run_all lowers the requested n to the limit listed next to each check in
CHECKS and says so on stderr.
"""

import sys
from functools import lru_cache
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


# -- qpoly ---------------------------------------------------------------------


def check_q_pascal(n):
    for m in range(1, n + 1):
        for r in range(1, m + 1):
            lhs = q_binomial(m, r)
            rhs = q_binomial(m - 1, r - 1) + q_power(r) * q_binomial(m - 1, r)
            if lhs != rhs:
                return "q-Pascal fails at (%d, %d)" % (m, r)
    return None


def check_q_chu_vandermonde(n):
    for nn in range(1, n + 1):
        for d in range(nn):
            for k in range(nn - d):
                for l in range(nn - d):
                    lhs = q_power(choose2(nn - d - k - l)) * q_binomial(nn - d - 1, l)
                    rhs = ZERO
                    for f in range(l + 1):
                        rhs = rhs + (
                            q_power(choose2(nn - d - k - f) + choose2(l - f))
                            * q_binomial(nn - d - 1 - k, f)
                            * q_binomial(k, l - f)
                        )
                    if lhs != rhs:
                        return "q-Chu-Vandermonde fails at n=%d d=%d k=%d l=%d" % (nn, d, k, l)
    return None


def check_eval_at_one(n):
    for m in range(1, n + 1):
        a = basis.hilbert_series(m, "a12")
        b = smirnov.sw_q(m, 0, 0)
        prod = a * b
        if prod.evaluate() != a.evaluate() * b.evaluate():
            return "evaluation at 1 is not multiplicative at n=%d" % m
    return None


# -- combinat ------------------------------------------------------------------


def check_set_comp_inverse(n):
    for m in range(1, n + 1):
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
    return None


# -- motzkin -------------------------------------------------------------------


def check_path_counts(n):
    for m in range(1, n + 1):
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
                if height < 1:
                    return "type A floor violated by %s" % p
    return None


# -- basis ---------------------------------------------------------------------


def check_cardinality_a(n):
    for m in range(1, n + 1):
        if basis.count_basis(m, "a12") != (1 << (m - 1)) * factorial(m):
            return "a12 cardinality wrong at n=%d" % m
    return None


def check_cardinality_b(n):
    for m in range(1, n + 1):
        if basis.count_basis(m, "b12") != 4**m * factorial(m):
            return "b12 cardinality wrong at n=%d" % m
        if basis.count_type_b(m) != 4**m * factorial(m):
            return "type B counting recursion wrong at n=%d" % m
    return None


def check_specializations(n):
    """a12 with xi = 0 is a11, a12 with alpha = 0 is a02, and b12 with
    xi = 0 is b11, compared row by row.

    iter_basis is the sum of the boxes {alpha : 0 <= alpha <= bound} of the
    (theta, xi, bound) rows of iter_rows.  A box with no negative entry
    holds 0, so it is a down-set with the single maximum `bound`, and the
    indicators of distinct such boxes are linearly independent: two bases
    are equal as multisets exactly when their rows are.  A row with a
    negative entry is an empty box, which breaks that, so it is refused.
    Every box holds alpha = 0 once, so the alpha-free part of a12 is the
    (theta, xi) of its rows.
    """
    for m in range(1, n + 1):
        rows = {}
        for variant in basis.VARIANTS:
            rows[variant] = list(basis.iter_rows(m, variant))
            for row in rows[variant]:
                if min(row[2]) < 0:
                    return "%s row %s has a negative bound entry at n=%d" % (variant, row, m)
        if sorted(row for row in rows["a12"] if not any(row[1])) != sorted(rows["a11"]):
            return "a12 restricted to xi=0 differs from a11 at n=%d" % m
        if any(any(bound) for _, _, bound in rows["a02"]) or (
            sorted(row[:2] for row in rows["a12"]) != sorted(row[:2] for row in rows["a02"])
        ):
            return "a12 restricted to alpha=0 differs from a02 at n=%d" % m
        if sorted(row for row in rows["b12"] if not any(row[1])) != sorted(rows["b11"]):
            return "b12 restricted to xi=0 differs from b11 at n=%d" % m
    return None


def check_hilbert_stirling_a(n):
    for m in range(1, n + 1):
        if basis.hilbert_series(m, "a12").substitute(v=0) != basis.hilbert_11_formula(m, "a"):
            return "a12 Hilbert at v=0 differs from the q-Stirling form at n=%d" % m
    return None


def check_hilbert_stirling_b(n):
    for m in range(1, n + 1):
        if basis.hilbert_series(m, "b12").substitute(v=0) != basis.hilbert_11_formula(m, "b"):
            return "b12 Hilbert at v=0 differs from the q-Stirling form at n=%d" % m
    return None


def check_hilbert_dimension(n):
    """a12 at q=u=v=1 and at q=0; b12 at q=u=v=1."""
    for m in range(1, n + 1):
        if basis.hilbert_series(m, "a12").evaluate() != (1 << (m - 1)) * factorial(m):
            return "a12 Hilbert at q=u=v=1 wrong at n=%d" % m
        weights = basis.hilbert_series(m, "a12").substitute(q=0)
        counts = {}
        for b in basis.iter_basis(m, "a02"):
            key = (0, b.deg_theta, b.deg_xi)
            counts[key] = counts.get(key, 0) + 1
        if weights != QuvPolynomial(counts):
            return "a12 Hilbert at q=0 differs from the a02 basis at n=%d" % m
    for m in range(1, n + 1):
        if basis.hilbert_series(m, "b12").evaluate() != 4**m * factorial(m):
            return "b12 Hilbert at q=u=v=1 wrong at n=%d" % m
    return None


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


def check_count_by_height(n):
    for m in range(1, n + 1):
        groups = _count_by_end(m, "a")
        for r in range(0, m + 1):
            expect = basis.count_by_height(m, r)
            if basis.count_by_height_recursion(m, r) != expect:
                return "count_by_height recursion differs at (%d, %d)" % (m, r)
            if sum(groups.get((r, dh), 0) for dh in (1, 0, -1)) != expect:
                return "count_by_height enumeration differs at (%d, %d)" % (m, r)
    return None


def check_count_type_b_refined(n):
    """The last step's class is E, U or D as it keeps, raises or lowers the height."""
    for m in range(1, n + 1):
        groups = _count_by_end(m, "b")
        for r in range(0, 2 * m + 2):
            for cls, dh in (("E", 0), ("U", 1), ("D", -1)):
                if groups.get((r, dh), 0) != basis.count_type_b_refined(m, r, cls):
                    return "type B refined count differs at n=%d r=%d class=%s" % (m, r, cls)
    return None


# -- smirnov -------------------------------------------------------------------


def check_bijection_suite(n):
    for m in range(1, n + 1):
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
    return None


def check_sw_recursion(n):
    for m in range(1, n + 1):
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
    return None


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


def check_frobenius_routes(n):
    for m in range(1, n + 1):
        via_basis = symfun.frobenius_qsym(m)
        via_words = frobenius_qsym_via_words(m)
        if via_basis != via_words:
            return "the two Frobenius routes disagree at n=%d" % m
        if via_basis.total() != basis.hilbert_series(m, "a12"):
            return "Frobenius paired with h_1^n misses the Hilbert series at n=%d" % m
    return None


@lru_cache(maxsize=None)
def _word_tally(subset):
    """The monomials of Q_{S,n} for the IndexSubset S of {1..n-1}, as
    {exponent vector: count} over the weakly increasing maps
    {1..n} -> {1..n} that rise strictly at the positions in S."""
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


@lru_cache(maxsize=None)
def _piece_expansion(m, k, l):
    """The monomial expansion of the (k, l) piece of the Frobenius series
    of size m, shared by symmetry-witness and h-mu-dual."""
    return qsym_monomial_expansion(symfun.frobenius_qsym(m, k=k, l=l))


def check_symmetry_witness(n):
    for m in range(1, n + 1):
        for k in range(m):
            for l in range(m - k):
                exp = _piece_expansion(m, k, l)
                for key, coeff in exp.items():
                    for i in range(m - 1):
                        swapped = list(key)
                        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                        if exp.get(tuple(swapped), ZERO) != coeff:
                            return "monomial expansion not symmetric at n=%d (k=%d,l=%d)" % (m, k, l)
    return None


def check_h_mu_dual(n):
    for m in range(1, n + 1):
        for mu in enumerate_partitions(m):
            exponent = tuple(mu.parts) + (0,) * (m - mu.length)
            for k in range(m):
                for l in range(m - k):
                    via_theorem = symfun.h_mu_coefficient(m, k, l, mu)
                    via_monomials = _piece_expansion(m, k, l).get(exponent, ZERO).substitute(u=1, v=1)
                    if via_theorem != via_monomials:
                        return "h_mu dual-path fails at n=%d mu=%s (k=%d,l=%d)" % (m, mu, k, l)
    return None


def check_hook_identities(n):
    for m in range(1, n + 1):
        for d in range(m):
            for k in range(m):
                for l in range(m - k):
                    enum = symfun.hook_schur_coefficient(m, k, l, d)
                    closed = symfun.hook_qbinomial_formula(m, k, l, d)
                    if enum != closed:
                        return "hook identity fails at n=%d d=%d k=%d l=%d" % (m, d, k, l)
                    if d == 0 and closed != symfun.sign_character_formula(m, k, l):
                        return "sign character form fails at n=%d k=%d l=%d" % (m, k, l)
    return None


def check_hook_h_dual(n):
    for m in range(1, n + 1):
        for d in range(m):
            mu = hook_partition(m, d)
            for k in range(m):
                for l in range(m - k):
                    if symfun.hook_h_coefficient(m, k, l, d) != symfun.h_mu_coefficient(m, k, l, mu):
                        return "hook h-coefficient differs from h_mu at n=%d d=%d k=%d l=%d" % (m, d, k, l)
    return None


def check_hook_characterization(n):
    for m in range(1, n + 1):
        for b in basis.iter_basis(m, "a12"):
            asc = basis.ascent_positions(b.alpha, b.theta, b.xi)
            for d in range(m):
                direct = asc == tuple(range(d + 1, m))
                if symfun.hook_asc_characterization(b, d) != direct:
                    return "hook ascent characterization differs at %s d=%d" % (b, d)
    return None


def _qsym_of_stream(elements, m, weight):
    """The QSymExpansion summing weight(b) Q_{Asc(b),m} over a stream of
    elements."""
    return _qsym_tally(((basis.ascent_positions(b.alpha, b.theta, b.xi), weight(b)) for b in elements), m)


def check_frobenius_specializations(n):
    for m in range(1, n + 1):
        frob = symfun.frobenius_qsym(m)
        from_a02 = _qsym_of_stream(basis.iter_basis(m, "a02"), m, lambda b: (0, b.deg_theta, b.deg_xi))
        if frob.substitute(q=0) != from_a02:
            return "q=0 specialization differs from the a02 expansion at n=%d" % m
        from_a11 = _qsym_of_stream(basis.iter_basis(m, "a11"), m, lambda b: (b.deg_x, b.deg_theta, 0))
        if frob.substitute(v=0) != from_a11:
            return "v=0 specialization differs from the a11 expansion at n=%d" % m
    return None


def check_slinky(n):
    for m in range(1, n + 1):
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
    return None


# -- oracle --------------------------------------------------------------------


def check_oracle_type_a(n):
    for m in range(1, n + 1):
        poly, complete, _ = oracle.hilbert_via_oracle(m, "a")
        if not complete:
            return "oracle truncation band is nonzero at n=%d" % m
        if poly != basis.hilbert_series(m, "a12"):
            return "oracle differs from the conjectural Hilbert series at n=%d" % m
    return None


def check_oracle_type_b(n):
    for m in range(1, n + 1):
        poly, complete, _ = oracle.hilbert_via_oracle(m, "b")
        if not complete:
            return "type B oracle truncation band is nonzero at n=%d" % m
        if poly != basis.hilbert_series(m, "b12"):
            return "type B oracle differs from the conjectural series at n=%d" % m
    return None


def check_oracle_exactness(n):
    """Recompute type A with a larger x-degree window; per-degree data must agree.

    Runs from n=2 on; at n=1 it checks nothing.
    """
    if n < 2:
        return None
    base = oracle.hilbert_via_oracle(n, "a")[2]
    wide = oracle.hilbert_via_oracle(n, "a", max_x_degree=oracle.default_max_x_degree(n, "a") + 2)[2]
    wide_map = {tuple(r["degree"]): r for r in wide}
    for row in base:
        other = wide_map[tuple(row["degree"])]
        if (row["ideal_rank"], row["quotient"]) != (other["ideal_rank"], other["quotient"]):
            return "per-degree ranks changed with a larger window at %r" % (row["degree"],)
    return None


# Each check with the largest n it runs at.
CHECKS = [
    ("q-pascal", check_q_pascal, 12),
    ("q-chu-vandermonde", check_q_chu_vandermonde, 10),
    ("eval-at-one", check_eval_at_one, 6),
    ("set-comp-inverse", check_set_comp_inverse, 10),
    ("path-counts", check_path_counts, 8),
    ("cardinality-a", check_cardinality_a, 8),
    ("cardinality-b", check_cardinality_b, 6),
    ("specializations", check_specializations, 8),
    ("hilbert-stirling-a", check_hilbert_stirling_a, 7),
    ("hilbert-stirling-b", check_hilbert_stirling_b, 5),
    ("hilbert-dimension", check_hilbert_dimension, 7),
    ("count-by-height", check_count_by_height, 7),
    ("count-type-b-refined", check_count_type_b_refined, 5),
    ("bijection-suite", check_bijection_suite, 7),
    ("sw-recursion", check_sw_recursion, 7),
    ("frobenius-routes", check_frobenius_routes, 6),
    ("symmetry-witness", check_symmetry_witness, 5),
    ("h-mu-dual", check_h_mu_dual, 5),
    ("hook-identities", check_hook_identities, 7),
    ("hook-h-dual", check_hook_h_dual, 8),
    ("hook-characterization", check_hook_characterization, 7),
    ("frobenius-specializations", check_frobenius_specializations, 6),
    ("slinky", check_slinky, 8),
    ("oracle-type-a", check_oracle_type_a, 3),
    ("oracle-type-b", check_oracle_type_b, 2),
    ("oracle-exactness", check_oracle_exactness, 2),
]

# The checks in the order run_all runs them, as (name, check) pairs: the
# tracer in perfbench/ rewraps this list pair by pair.
ALL_CHECKS = [(name, check) for name, check, _ in CHECKS]
LIMITS = {name: limit for name, _, limit in CHECKS}


def run_all(n):
    """Run every check at n lowered to its limit; stop at the first failure.

    Prints one "ok" or "FAIL" line per check.  Each check that ran
    below the requested n is named on stderr, so the report lines do not
    depend on n beyond the checks' results.  Returns 0 when everything
    passes, 1 otherwise.
    """
    for name, fn in ALL_CHECKS:
        m = min(n, LIMITS[name])
        witness = fn(m)
        if m < n:
            print("verify: %s ran at n=%d (asked %d)" % (name, m, n), file=sys.stderr)
        if witness is None:
            print("ok   %s" % name)
        else:
            print("FAIL %s: %s" % (name, witness))
            return 1
    return 0
