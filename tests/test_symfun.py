import copy
import pickle

import pytest

from coinv import smirnov, verify
from coinv.basis import BasisElement, enumerate_basis
from coinv.combinat import Composition, IndexSubset, Partition, enumerate_partitions, enumerate_subsets, comp_of_set, hook_partition
from coinv.qpoly import ONE, ZERO, QuvPolynomial, q_power
from coinv.smirnov import enumerate_segmented_words, sminv
from coinv.symfun import (
    QSymExpansion,
    SchurExpansion,
    SlinkyResult,
    frobenius_qsym,
    frobenius_schur,
    h_mu_coefficient,
    hook_asc_characterization,
    hook_h_coefficient,
    hook_qbinomial_formula,
    hook_schur_coefficient,
    schur_expansion,
    sign_character_formula,
    slinky,
    straighten,
)

from golden import FROBENIUS, HILBERT, build_poly


def test_frobenius_qsym_small():
    f1 = frobenius_qsym(1)
    assert f1.coeffs == {IndexSubset((), 1): ONE}
    f2 = frobenius_qsym(2)
    assert f2.coefficient(IndexSubset((), 2)) == ONE
    assert f2.coefficient(IndexSubset((1,), 2)) == build_poly({(0, 0): [0, 1], (1, 0): [1], (0, 1): [1]})


def test_frobenius_routes_agree():
    for n in range(1, 6):
        assert frobenius_qsym(n) == verify.frobenius_qsym_via_words(n)
    for k in range(3):
        for l in range(3 - k):
            assert frobenius_qsym(3, k=k, l=l) == verify.frobenius_qsym_via_words(3, k=k, l=l)


def test_frobenius_pairs_to_hilbert():
    for n, expected in HILBERT.items():
        assert frobenius_qsym(n).total() == expected


def test_slinky_figures():
    # golden straightening cases, rows read bottom-to-top
    assert slinky(Composition((4, 1, 1, 5))) == SlinkyResult(1, Partition((4, 3, 2, 2)))
    assert slinky(Composition((4, 1, 1, 3))) == SlinkyResult(0, None)


def test_slinky_partitions_fixed():
    for n in range(1, 9):
        for p in enumerate_partitions(n):
            assert slinky(Composition(p.parts)) == SlinkyResult(1, p)


def test_slinky_two_row_relation():
    # s_(a,b) = -s_(b-1,a+1); the fixed points b = a+1 must vanish
    for total in range(2, 9):
        for a in range(1, total):
            b = total - a
            if b < 2:
                continue
            left = slinky(Composition((a, b)))
            right = slinky(Composition((b - 1, a + 1)))
            assert left.shape == right.shape
            assert left.sign == -right.sign
    assert slinky(Composition((1, 2))).sign == 0
    assert slinky(Composition((1, 3))) == SlinkyResult(-1, Partition((2, 2)))


def test_slinky_matches_straightening():
    for n in range(1, 9):
        for s in enumerate_subsets(n):
            comp = comp_of_set(s)
            assert slinky(comp) == straighten(comp)


def test_slinky_shape_size_and_hooks():
    for n in range(1, 9):
        for s in enumerate_subsets(n):
            res = slinky(comp_of_set(s))
            if res.sign:
                assert res.shape.n == n
        for d in range(n):
            hook = hook_partition(n, d)
            assert slinky(Composition(hook.parts)) == SlinkyResult(1, hook)


def test_schur_golden():
    for n, expected in FROBENIUS.items():
        schur = frobenius_schur(n)
        assert {p.parts: c for p, c in schur.coeffs.items()} == expected


def test_schur_expansion_drops_zeros():
    # F_(2,1) + F_(1,2) = s_(2,1): the (1,2) key straightens to zero
    exp = QSymExpansion(3)
    exp.add(IndexSubset((2,), 3), ONE)
    exp.add(IndexSubset((1,), 3), ONE)
    schur = schur_expansion(exp)
    assert schur.coeffs == {Partition((2, 1)): ONE}


def test_h_mu_examples():
    # mu = (1^n) allows every ascent set, giving the sw_q polynomial
    from coinv.smirnov import sw_q

    for n in range(1, 6):
        ones = Partition((1,) * n)
        for k in range(n):
            for l in range(n - k):
                assert h_mu_coefficient(n, k, l, ones) == sw_q(n, k, l)
    # only the unit has an empty ascent set
    assert h_mu_coefficient(3, 0, 0, Partition((3,))) == ONE


def test_h_mu_against_general_content_words():
    # the m_mu coefficient equals the sminv generating function over words
    # of content mu, which exercises all four sminversion rules
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            for k in range(n):
                for l in range(n - k):
                    direct = ZERO
                    for w in enumerate_segmented_words(mu.parts, k=k, l=l):
                        direct = direct + q_power(sminv(w))
                    assert direct == h_mu_coefficient(n, k, l, mu)


def test_h_mu_dual_path():
    assert verify.check_h_mu_dual(4) is None


def test_hook_h_coefficient():
    # d = n-1 forces the all-up path with no x weight
    for n in range(1, 6):
        for k in range(n):
            for l in range(n - k):
                expected = ONE if k == 0 and l == 0 else ZERO
                assert hook_h_coefficient(n, k, l, n - 1) == expected
    # agreement with the h_mu route on hooks
    for n in range(1, 6):
        for d in range(n):
            mu = hook_partition(n, d)
            for k in range(n):
                for l in range(n - k):
                    assert hook_h_coefficient(n, k, l, d) == h_mu_coefficient(n, k, l, mu)
    # the d = 0 case pairs against h_(1^n): the full (k,l) Hilbert piece
    from coinv.smirnov import sw_q

    assert hook_h_coefficient(3, 1, 1, 0) == sw_q(3, 1, 1)


def test_hook_schur_values():
    assert hook_schur_coefficient(3, 1, 1, 0) == build_poly({(0, 0): [1, 1]})
    assert hook_schur_coefficient(3, 0, 0, 2) == ONE
    assert hook_schur_coefficient(4, 1, 1, 1) == build_poly({(0, 0): [1, 3, 3, 1]})


def test_hook_identity():
    for n in range(1, 7):
        for d in range(n):
            for k in range(n):
                for l in range(n - k):
                    closed = hook_qbinomial_formula(n, k, l, d)
                    assert hook_schur_coefficient(n, k, l, d) == closed
                    if d == 0:
                        assert closed == sign_character_formula(n, k, l)


def test_hook_formula_edge_cases():
    # k = l = 0 reduces to a single q-binomial with a staircase power
    from coinv.qpoly import q_binomial

    for n in range(1, 8):
        for d in range(n):
            e = (n - d) * (n - d - 1) // 2
            assert hook_qbinomial_formula(n, 0, 0, d) == q_power(e) * q_binomial(n - 1, d)
    with pytest.raises(ValueError):
        hook_qbinomial_formula(3, 2, 1, 0)
    with pytest.raises(ValueError):
        hook_qbinomial_formula(3, 0, 0, 3)


def test_hook_asc_characterization():
    unit = BasisElement((0, 0, 0), (0, 0, 0), (0, 0, 0), "a12")
    assert hook_asc_characterization(unit, 2)
    assert not hook_asc_characterization(unit, 0)
    both = BasisElement((0, 0, 0), (0, 1, 1), (0, 0, 0), "a12")  # theta_2 theta_3
    assert hook_asc_characterization(both, 0)
    for n in range(1, 6):
        for b in enumerate_basis(n, "a12"):
            from coinv.basis import ascent_positions

            asc = ascent_positions(b.alpha, b.theta, b.xi)
            for d in range(n):
                assert hook_asc_characterization(b, d) == (asc == tuple(range(d + 1, n)))


def test_schur_latex_layout():
    latex = frobenius_schur(3).latex()
    # partitions appear columns-first
    assert latex.index("s_{1 1 1}") < latex.index("s_{2 1}") < latex.index("s_{3}")


def test_qsym_json():
    data = frobenius_qsym(2).to_json()
    assert data["n"] == 2
    assert [entry["subset"] for entry in data["coeffs"]] == [[], [1]]


# -- the per-element and per-word versions that tallies replaced ---------------


def reference_hook_h_coefficient(n, k, l, d):
    """One pass over the basis per call, one polynomial add per element."""
    total = ZERO
    for b in enumerate_basis(n, "a12"):
        if b.deg_theta != k or b.deg_xi != l:
            continue
        if all(b.alpha[m] == 0 and b.theta[m] == 0 and b.xi[m] == 0 for m in range(d + 1)):
            total = total + q_power(b.deg_x)
    return total


def test_hook_h_coefficient_matches_the_per_call_loop():
    for n in range(1, 7):
        for d in range(n):
            for k in range(n):
                for l in range(n - k):
                    assert hook_h_coefficient(n, k, l, d) == reference_hook_h_coefficient(n, k, l, d), (n, k, l, d)
    with pytest.raises(ValueError):
        hook_h_coefficient(3, 0, 0, 3)


def reference_words_route(n, k=None, l=None):
    """verify.frobenius_qsym_via_words with one QSymExpansion.add per word."""
    out = QSymExpansion(n)
    for word in smirnov.enumerate_segmented_permutations(n):
        dk, dl = smirnov.ascent_descent_counts(word)
        if k is not None and dk != k:
            continue
        if l is not None and dl != l:
            continue
        key = IndexSubset(smirnov.split_positions(word), n)
        out.add(key, QuvPolynomial({(sminv(word), dk, dl): 1}))
    return out


def test_words_route_matches_per_word_adds():
    for n in range(1, 6):
        filters = [(None, None)] + [(k, None) for k in range(n)] + [(None, l) for l in range(n)]
        filters += [(k, l) for k in range(n) for l in range(n - k)]
        for k, l in filters:
            assert verify.frobenius_qsym_via_words(n, k=k, l=l) == reference_words_route(n, k, l), (n, k, l)


def reference_hook_asc_characterization(element, d):
    """hook_asc_characterization with all() over a generator and .n."""
    alpha, theta, xi = element.alpha, element.theta, element.xi
    n = element.n
    if not 0 <= d <= n - 1:
        raise ValueError("needs 0 <= d <= n-1")
    if not all(alpha[m] == 0 and theta[m] == 0 and xi[m] == 0 for m in range(d + 1)):
        return False
    for a in range(d + 1, n + 1):
        ok = True
        for m in range(d + 2, a + 1):
            if theta[m - 1] != 0 or not alpha[m - 2] < alpha[m - 1] + xi[m - 1]:
                ok = False
                break
        if ok and a < n and not (theta[a - 1] == 0 and theta[a] == 1):
            ok = False
        if ok:
            for m in range(a + 2, n + 1):
                if theta[m - 1] != 1 or not alpha[m - 2] >= alpha[m - 1] + xi[m - 1]:
                    ok = False
                    break
        if ok:
            return True
    return False


def test_hook_asc_characterization_matches_the_generator_version():
    for n in range(1, 7):
        for b in enumerate_basis(n, "a12"):
            for d in range(n):
                assert hook_asc_characterization(b, d) == reference_hook_asc_characterization(b, d), (b, d)


def expansion_examples():
    qsym = QSymExpansion(2)
    qsym.add(IndexSubset((1,), 2), ONE)
    schur = SchurExpansion(2)
    schur.add(Partition((1, 1)), QuvPolynomial({(1, 0, 0): 2}))
    return [
        (qsym, "QSymExpansion(n=2, coeffs={IndexSubset(elements=(1,), n=2): QuvPolynomial(1)})"),
        (schur, "SchurExpansion(n=2, coeffs={Partition(parts=(1, 1)): QuvPolynomial(2q)})"),
        (QSymExpansion(3), "QSymExpansion(n=3, coeffs={})"),
        (SchurExpansion(3), "SchurExpansion(n=3, coeffs={})"),
    ]


@pytest.mark.parametrize("index", range(4))
def test_expansion_record_semantics(index):
    expansion, text = expansion_examples()[index]
    cls = type(expansion)
    assert repr(expansion) == text
    assert expansion == cls(expansion.n, dict(expansion.coeffs))
    assert expansion == cls(coeffs=dict(expansion.coeffs), n=expansion.n)
    assert expansion != cls(expansion.n + 1, dict(expansion.coeffs))
    other = SchurExpansion if cls is QSymExpansion else QSymExpansion
    assert expansion != other(expansion.n, dict(expansion.coeffs))
    with pytest.raises(TypeError, match="unhashable"):
        hash(expansion)
    for copied in (copy.copy(expansion), copy.deepcopy(expansion), pickle.loads(pickle.dumps(expansion))):
        assert type(copied) is cls and copied == expansion and repr(copied) == text
    # the expansions are mutable, and each starts with a dict of its own
    assert cls(1).coeffs is not cls(1).coeffs
    expansion.n = 7
    assert expansion.n == 7


def test_expansion_validation_messages():
    with pytest.raises(ValueError) as info:
        QSymExpansion(2).add(IndexSubset((), 3), ONE)
    assert str(info.value) == "subset ambient 3 does not match n=2"
    with pytest.raises(ValueError) as info:
        SchurExpansion(2).add(Partition((1,)), ONE)
    assert str(info.value) == "partition of 1 does not match n=2"


def test_schur_terms_that_cancel_leave_no_key():
    # Q_{{1},4} straightens to -s_{2,2} and Q_{{2},4} to +s_{2,2}
    qsym = QSymExpansion(4, {IndexSubset((1,), 4): ONE, IndexSubset((2,), 4): ONE})
    assert slinky(Composition((1, 3))) == SlinkyResult(-1, Partition((2, 2)))
    schur = schur_expansion(qsym)
    assert schur.coeffs == {}
    assert schur == SchurExpansion(4)
    assert schur.to_json() == {"n": 4, "coeffs": []}
