from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prelie.errors import FieldMismatchError
from prelie.scalars import (
    QQ,
    FpElement,
    Poly,
    PrimeField,
    field_by_name,
    field_name,
    is_prime,
    scalar_to_str,
)


def test_rational_lowest_terms():
    x = QQ("2/4")
    assert x == Fraction(1, 2)
    assert scalar_to_str(x) == "1/2"
    assert scalar_to_str(QQ("-2/4")) == "-1/2"
    assert scalar_to_str(QQ(3)) == "3"


def test_rational_parse_roundtrip():
    for s in ["0", "7", "-1/2", "22/7"]:
        assert QQ.format(QQ.parse(s)) == s


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    assert PrimeField(2).p == 2
    assert PrimeField(13).p == 13


def test_is_prime_small():
    primes = [p for p in range(2, 30) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_fp_arithmetic():
    F5 = PrimeField(5)
    a, b = F5(3), F5(4)
    assert a + b == F5(2)
    assert a - b == F5(4)
    assert a * b == F5(2)
    assert a / b == F5(2)  # 3 * 4^{-1} = 3 * 4 = 12 = 2
    assert -a == F5(2)
    assert bool(F5(0)) is False
    assert a == 3 and a != 4


def test_fp_parse_and_format():
    F3 = PrimeField(3)
    assert F3.parse("2 mod 3") == F3(2)
    assert F3.parse("5") == F3(2)
    assert F3.parse("1/2") == F3(2)  # inverse of 2 is 2
    assert scalar_to_str(F3(2)) == "2 mod 3"
    with pytest.raises(FieldMismatchError):
        F3.parse("1 mod 5")


def test_fp_cross_field_mixing_rejected():
    with pytest.raises(FieldMismatchError):
        PrimeField(3)(1) + PrimeField(5)(1)


def test_field_names():
    assert field_by_name("q") is QQ
    assert field_by_name("f7") == PrimeField(7)
    assert field_name(PrimeField(2)) == "f2"
    assert field_name(QQ) == "q"
    with pytest.raises(ValueError):
        field_by_name("r64")


def test_prime_field_names_are_bounded_before_the_primality_test():
    assert field_by_name(f"f{2**31 - 1}").p == 2**31 - 1
    with pytest.raises(ValueError, match="exceeds the largest supported prime"):
        field_by_name("f100000000000031")  # prime; trial division would take seconds


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_fp_add_sub_inverse(a, b):
    F7 = PrimeField(7)
    x, y = F7(a), F7(b)
    assert x + y - y == x


@given(st.fractions(max_denominator=30), st.fractions(max_denominator=30))
def test_rational_exactness(a, b):
    assert QQ(a) + QQ(b) - QQ(b) == QQ(a)


# ---------------------------------------------------------------------------
# polynomials over a field


def _var(k, field=QQ):
    return Poly({(k,): field.one})


def test_poly_zero_is_falsy_and_cancels():
    x = _var(0)
    assert not Poly({})
    assert x and not (x - x)
    assert (x + x - x).terms == x.terms
    assert not (-x + x).terms


def test_poly_mixes_with_scalars():
    x = _var(0)
    assert x + 0 is x and 0 + x is x
    assert (x + 2).terms == {(0,): 1, (): 2}
    assert (2 - x).terms == {(): 2, (0,): -1}
    assert (Fraction(1, 2) * x).terms == {(0,): Fraction(1, 2)}
    zero = QQ.zero
    assert zero * x is zero and x * zero is zero


def test_poly_product_sorts_monomials_and_drops_zeros():
    x, y = _var(0), _var(1)
    assert (y * x).terms == (x * y).terms == {(0, 1): 1}
    assert ((x + y) * (x - y)).terms == {(0, 0): 1, (1, 1): -1}
    F2 = PrimeField(2)
    a, b = _var(0, F2), _var(1, F2)
    assert ((a + b) * (a + b)).terms == {(0, 0): F2(1), (1, 1): F2(1)}
    assert not (F2(1) * (a + a))


def test_poly_passes_through_fields_and_containers():
    from prelie.cochain import Cochain
    from prelie.linalg import Matrix

    F3 = PrimeField(3)
    x = _var(0, F3)
    y = _var(0)
    assert QQ(y) is y and F3(x) is x
    M = Matrix(F3, [[x, 1], [0, x]])
    assert M.data[0][0] is x and M.data[0][1] == F3(1)
    assert M.apply((F3(1), F3(2)))[0].at((F3(1),), F3.zero) == F3(0)
    f = Cochain(F3, 1, 1, 1, [[x]])
    assert f.values[0][0] is x


@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(0, 6), min_size=2, max_size=2))
def test_poly_evaluation_is_a_ring_map(cp, cq, point):
    F7 = PrimeField(7)
    x, y = _var(0, F7), _var(1, F7)
    monomials = [F7.one, x, y, x * y]

    def poly(coeffs):
        out = F7.zero
        for c, m in zip(coeffs, monomials):
            out = out + F7(c) * m
        return out

    p, q = poly(cp), poly(cq)
    values = tuple(F7(v) for v in point)

    def at(r):
        return r.at(values, F7.zero) if isinstance(r, Poly) else r

    assert at(p + q) == at(p) + at(q)
    assert at(p - q) == at(p) - at(q)
    assert at(p * q) == at(p) * at(q)
    expected = sum((F7(c) * w for c, w in
                    zip(cp, (F7.one, values[0], values[1], values[0] * values[1]))),
                   F7.zero)
    assert at(p) == expected
