import os
import subprocess
import sys
from pathlib import Path

import pytest

from coinv.qpoly import (
    ONE,
    ZERO,
    QuvPolynomial,
    q_binomial,
    q_double_factorial_even,
    q_factorial,
    q_integer,
    q_power,
    q_stirling,
)


def poly_q(*coeffs):
    """Polynomial in q alone from ascending coefficients."""
    return QuvPolynomial({(a, 0, 0): c for a, c in enumerate(coeffs) if c})


def test_q_integer():
    assert q_integer(0) == ZERO
    assert q_integer(1) == ONE
    assert q_integer(3) == poly_q(1, 1, 1)


def test_q_factorial():
    assert q_factorial(0) == ONE
    assert q_factorial(3) == poly_q(1, 2, 2, 1)
    assert q_factorial(3) == q_integer(2) * q_integer(3)


def test_q_double_factorial_even():
    assert q_double_factorial_even(0) == ONE
    assert q_double_factorial_even(2) == q_integer(2) * q_integer(4)


def test_q_binomial():
    assert q_binomial(4, 2) == poly_q(1, 1, 2, 1, 1)
    for n in range(0, 7):
        assert q_binomial(n, 0) == ONE
    assert q_binomial(2, 3) == ZERO
    assert q_binomial(-1, 0) == ZERO
    assert q_binomial(3, -1) == ZERO


def test_q_pascal_identity():
    for m in range(1, 13):
        for r in range(1, m + 1):
            assert q_binomial(m, r) == q_binomial(m - 1, r - 1) + q_power(r) * q_binomial(m - 1, r)


def test_q_stirling():
    assert q_stirling(0, 0, "a") == ONE
    assert q_stirling(0, 1, "a") == ZERO
    assert q_stirling(3, 2, "a") == poly_q(2, 1)
    assert q_stirling(3, 3, "a") == ONE
    # type b recursion spot check: Stir^B(2,1) = [3]_q Stir^B(1,1) + Stir^B(1,0)
    assert q_stirling(2, 1, "b") == q_integer(3) * q_stirling(1, 1, "b") + q_stirling(1, 0, "b")


def test_arithmetic_laws():
    a = q_factorial(4)
    b = q_binomial(5, 2)
    c = q_stirling(4, 2, "a")
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_eval_at_one():
    a = q_factorial(5)
    b = q_binomial(6, 3)
    assert a.evaluate() == sum(a.terms.values())
    assert (a * b).evaluate() == a.evaluate() * b.evaluate()


def test_no_zero_coefficients_stored():
    p = poly_q(1, 1) - poly_q(0, 1)
    assert p == ONE
    assert all(c != 0 for c in p.terms.values())
    assert not (p - ONE)


def test_substitute():
    p = QuvPolynomial({(2, 1, 0): 3, (0, 0, 1): 1, (0, 0, 0): 2})
    assert p.substitute(v=0) == QuvPolynomial({(2, 1, 0): 3, (0, 0, 0): 2})
    assert p.substitute(q=1, u=1, v=1) == QuvPolynomial({(0, 0, 0): 6})
    assert p.substitute(q=0) == QuvPolynomial({(0, 0, 1): 1, (0, 0, 0): 2})


def test_string_forms():
    assert str(ZERO) == "0"
    assert str(poly_q(2, 3, 1)) == "q^2 + 3q + 2"
    assert str(QuvPolynomial({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})) == "q + u + v + 1"
    assert str(poly_q(0, -1)) == "-q"


def test_json_round_trip():
    p = QuvPolynomial({(2, 1, 0): 3, (0, 0, 1): -1, (0, 0, 0): 10**30})
    records = p.to_json()
    assert records == sorted(records, key=lambda r: (r["q"], r["u"], r["v"]))
    assert all(isinstance(r["coeff"], str) for r in records)
    assert QuvPolynomial.from_json(records) == p


def test_from_json_round_trips_under_the_perfbench_tracer():
    """perfbench's tracer rewraps every method; from_json must survive it."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import tracing\n"
        "from coinv.qpoly import QuvPolynomial\n"
        "tracing.install(tracing.Tracer())\n"
        "p = QuvPolynomial({(1, 0, 2): 3, (0, 1, 0): -1})\n"
        "assert QuvPolynomial.from_json(p.to_json()) == p\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_immutability_and_hash():
    p = poly_q(1, 1)
    try:
        p.terms = {}
        raised = False
    except AttributeError:
        raised = True
    assert raised
    assert hash(poly_q(1, 1)) == hash(q_integer(2))


def test_constructor_rejects_negative_exponents():
    for key in ((-1, 0, 0), (0, -2, 0), (0, 0, -1)):
        with pytest.raises(ValueError):
            QuvPolynomial({key: 1})


def test_arithmetic_results_are_clean():
    a = QuvPolynomial({(1, 0, 0): 2, (0, 1, 0): -1, (0, 0, 0): 3})
    b = QuvPolynomial({(1, 0, 0): -2, (0, 0, 1): 5})
    for result in (a + b, a - b, -a, a * b, (a - a) * b, a.substitute(q=1), a.substitute(u=0)):
        assert all(coeff != 0 for coeff in result.terms.values())
        assert all(min(key) >= 0 and len(key) == 3 for key in result.terms)
        assert result == QuvPolynomial(result.terms)
    assert (a + b).terms == {(0, 1, 0): -1, (0, 0, 0): 3, (0, 0, 1): 5}
