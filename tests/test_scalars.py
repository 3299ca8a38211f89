from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import fraction_parse, poly_at, two_walk_lift
from prelie.errors import FieldMismatchError
from prelie.scalars import (
    QQ,
    FpElement,
    Poly,
    PrimeField,
    field_by_name,
    field_name,
    is_prime,
    lift,
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
        assert scalar_to_str(QQ.parse(s)) == s


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
    assert poly_at(M.apply((F3(1), F3(2)))[0], (F3(1),), F3.zero) == F3(0)
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
        return poly_at(r, values, F7.zero) if isinstance(r, Poly) else r

    assert at(p + q) == at(p) + at(q)
    assert at(p - q) == at(p) - at(q)
    assert at(p * q) == at(p) * at(q)
    expected = sum((F7(c) * w for c, w in
                    zip(cp, (F7.one, values[0], values[1], values[0] * values[1]))),
                   F7.zero)
    assert at(p) == expected


FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
PARSED = ["0", "-0", "007", "+3", " 5 ", "1/2", "-4/6", "3/6", "2/6", "1/0", "-0/0", "1/-2",
          "--1", "1.5", "1e3", "1_000", "\u0663", "\u00b2", "", "-", "1/", "abc",
          "9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000]


@pytest.mark.parametrize("s", PARSED, ids=lambda s: repr(s) if len(s) < 9 else f"{len(s)}-chars")
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_parse_agrees_with_fraction(field, s):
    # the same value, or the same exception with the same message (a bundle
    # prints it), whether the string took the int route or Fraction's
    try:
        want = fraction_parse(field, s)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            field.parse(s)
        assert str(got.value) == str(exc)
    else:
        got = field.parse(s)
        assert type(got) is type(want) and got == want


def _plain(x):
    """Nested tuples with each `Poly` as its sorted terms, so arrays compare by value."""
    if isinstance(x, Poly):
        return "poly", sorted(x.terms.items())
    return tuple(map(_plain, x)) if isinstance(x, tuple) else x


def _nests(field, integral: bool):
    if field.char:
        scalar = st.integers(0, field.p - 1).map(lambda r: FpElement(r, field.p))
    else:
        scalar = st.builds(Fraction, st.integers(-9, 9),
                           st.just(1) if integral else st.integers(1, 12))
    monomial = st.lists(st.integers(0, 2), max_size=2).map(lambda m: tuple(sorted(m)))
    poly = st.dictionaries(monomial, scalar.filter(bool), max_size=3).map(Poly)
    nest = st.recursive(st.one_of(scalar, poly), lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple)), max_leaves=24)
    return st.lists(nest, max_size=4)


@pytest.mark.parametrize("field, integral", [(QQ, True), (QQ, False)]
                         + [(F, False) for F in FIELDS[1:]], ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lift_matches_the_two_walk_lift(field, integral, data):
    arrays = data.draw(_nests(field, integral))
    lifted, down = lift(field, arrays)
    want, D = two_walk_lift(field, arrays)
    assert _plain(lifted) == _plain(want)
    assert D == 1 or not (integral or field.char)
    r = data.draw(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
    r.append(Poly({(): r[0], (1,): 7}))

    def back(x, k):
        return FpElement(x, field.p) if field.char else Fraction(x, D ** k)

    for k in range(4):
        got = down(r, k)
        expected = tuple(x.map(lambda c: back(c, k)) if isinstance(x, Poly) else back(x, k)
                         for x in r)
        assert _plain(got) == _plain(expected)
        assert [type(x) for x in got] == [type(x) for x in expected]


@pytest.mark.parametrize("field, bad", [
    (QQ, 1), (QQ, True), (QQ, 0.5), (QQ, FpElement(1, 3)),
    (PrimeField(3), 1), (PrimeField(3), False), (PrimeField(3), 1.0),
    (PrimeField(3), Fraction(1, 2)), (PrimeField(3), Fraction(1)), (PrimeField(3), FpElement(1, 5)),
], ids=repr)
def test_lift_rejects_a_scalar_of_another_kind(field, bad):
    for arrays in ([bad], ((field.one,), [field.zero, [bad]]), [Poly({(): bad})]):
        with pytest.raises(TypeError) as got:
            lift(field, arrays)
        with pytest.raises(TypeError) as want:
            two_walk_lift(field, arrays)
        assert str(got.value) == str(want.value)
