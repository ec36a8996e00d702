"""Acceptance suite: one test per criterion, at the full stated ranges.

Each test prints a PASS line on success (run pytest with -s to stream
them); a failure surfaces as a normal assertion with the witness text.
"""

import os
from math import factorial

import pytest

from coinv import basis, oracle, verify
from coinv.cli import bijection_rows
from coinv.symfun import frobenius_schur

from golden import BIJECTION_TABLES, FROBENIUS, HILBERT


def report(line):
    print(line)


def test_criterion_01_cardinality():
    for n in range(1, 9):
        assert basis.count_basis(n, "a12") == (1 << (n - 1)) * factorial(n), n
    for n in range(1, 7):
        assert basis.count_basis(n, "b12") == 4**n * factorial(n), n
    report("PASS 1: |B_n^(1,2)| = 2^(n-1) n! for n <= 8 and |B_Bn^(1,2)| = 4^n n! for n <= 6")


def test_criterion_02_hilbert_golden():
    for n, expected in HILBERT.items():
        assert basis.hilbert_series(n, "a12") == expected, n
    report("PASS 2: Hilbert series match the golden values for n = 1..4")


def test_criterion_03_frobenius_golden():
    for n, expected in FROBENIUS.items():
        got = {p.parts: c for p, c in frobenius_schur(n).coeffs.items()}
        assert got == expected, n
    report("PASS 3: Schur-form Frobenius series match the golden values for n = 1..4")


def test_criterion_04_bijection_suite():
    witness = verify.check_bijection_suite(7)
    assert witness is None, witness
    report("PASS 4: bijection round trip, weight preservation and Asc = Split for n <= 7")


def test_criterion_05_bijection_tables():
    for n, expected in BIJECTION_TABLES.items():
        assert bijection_rows(n) == expected, n
    report("PASS 5: the n = 1, 2, 3 conversion tables are reproduced exactly")


def test_criterion_06_recursion_equivalence():
    witness = verify.check_sw_recursion(7)
    assert witness is None, witness
    report("PASS 6: sw_q recursion equals direct enumeration and sums to the Hilbert series, n <= 7")


def test_criterion_07_hook_identity():
    witness = verify.check_hook_identities(7)
    assert witness is None, witness
    report("PASS 7: hook Schur coefficients equal the q-binomial closed form for n <= 7")


def test_criterion_08_h_mu_dual_path():
    witness = verify.check_h_mu_dual(5)
    assert witness is None, witness
    report("PASS 8: h_mu coefficients agree with brute-force monomial extraction for n <= 5")


def test_criterion_09_q_chu_vandermonde():
    witness = verify.check_q_chu_vandermonde(10)
    assert witness is None, witness
    report("PASS 9: q-Chu-Vandermonde identity verified exhaustively for n <= 10")


def test_criterion_10_oracle():
    witness = verify.check_oracle_type_a(3)
    assert witness is None, witness
    witness = verify.check_oracle_type_b(2)
    assert witness is None, witness
    report("PASS 10: quotient-ring oracle reproduces the series for n <= 3 (type A) and n <= 2 (type B)")


@pytest.mark.skipif(
    not os.environ.get("COINV_LONG"),
    reason="long n=4 oracle run; set COINV_LONG=1 (about 25 s)",
)
def test_criterion_10_long_oracle_n4():
    poly, complete, _ = oracle.hilbert_via_oracle(4, "a")
    assert complete
    assert poly == basis.hilbert_series(4, "a12")
    report("PASS 10 (long): the n = 4 type A oracle matches the conjectural series")


def test_criterion_11_cross_formulas():
    witness = verify.check_hilbert_stirling_a(7)
    assert witness is None, witness
    witness = verify.check_hilbert_stirling_b(5)
    assert witness is None, witness
    for n in range(1, 9):
        assert basis.hilbert_series(n, "a12").evaluate() == (1 << (n - 1)) * factorial(n)
    for n in range(1, 7):
        assert basis.hilbert_series(n, "b12").evaluate() == 4**n * factorial(n)
    report("PASS 11: q-Stirling closed forms and dimension specializations check out")
