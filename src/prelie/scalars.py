"""Exact scalar fields: the rationals and prime fields F_p.

All arithmetic in this package is exact.  Rational scalars are plain
`fractions.Fraction` values (always in lowest terms with positive
denominator); prime-field scalars are `FpElement` values carrying their
residue and modulus.  Both support +, -, *, / and compare equal to plain
ints where that makes sense, so generic code can test ``x == 0`` without
knowing the field.

Serialized form: rationals as "n" or "n/d" (e.g. "3", "-1/2"),
prime-field values as "r mod p" (e.g. "2 mod 3").

`lift` turns a batch of one field's scalars into Python ints: over Q
every scalar is multiplied by D, the lcm of the batch's denominators;
over F_p each becomes its residue and D = 1.  An identity homogeneous of
degree k in the batch then evaluates on the ints to D^k times its field
value (over F_p, to an integer congruent to it), so the package's
checkers, coboundary rows, derived brackets and elimination run on the
lifted ints and map each result back (`descend`).  `lift` is the
package's one way from field scalars into the integers; the ints stay
in raw arrays, never in an algebra, representation, matrix or cochain,
and bundles and the command line never see them.

`Poly` is a polynomial with coefficients in one of these fields.  It
mixes with scalars under +, - and *, and both fields pass it through
unchanged, so the package's ordinary scalar code (matrices, cochains,
checkers) can run on polynomial entries and return polynomials.  `lift`
takes a `Poly` entry coefficient by coefficient, both ways.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import FieldMismatchError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FpElement:
    """An element of F_p, stored as a residue in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(f"F_{self.p} vs F_{other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} mod {self.p}"


class Poly:
    """A sparse polynomial {monomial: nonzero coefficient} over one field.

    A monomial is the sorted tuple of its variable indices, one index per
    power: (0, 0, 2) is x0^2 x2 and () is the constant monomial.  A Poly
    is falsy when it is zero, so code that skips zero scalars skips zero
    polynomials too; a zero scalar times a Poly is that scalar, which
    adds as zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not other:
                return self
            other = Poly({(): other})
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono)
            if s is None:
                terms[mono] = c
            else:
                s = s + c
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not other:
                return other
            return Poly({mono: v for mono, c in self.terms.items() if (v := other * c)})
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                s = terms.get(mono)
                terms[mono] = c1 * c2 if s is None else s + c1 * c2
        return Poly({mono: c for mono, c in terms.items() if c})

    __rmul__ = __mul__

    def map(self, f):
        """The polynomial with f applied to each coefficient; zero images drop out."""
        return Poly({mono: v for mono, c in self.terms.items() if (v := f(c))})


class RationalField:
    """The field of rational numbers; elements are `fractions.Fraction`."""

    char = 0
    name = "Q"

    def __call__(self, v) -> Fraction:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            return self.parse(v)
        if isinstance(v, Poly):
            return v
        raise TypeError(f"cannot coerce {v!r} into Q")

    zero = Fraction(0)
    one = Fraction(1)

    def parse(self, s: str) -> Fraction:
        """"n", "-n" and "n/d" in ASCII digits by `int`, any other string by `Fraction`."""
        s = s.strip()
        num, slash, den = s.partition("/")
        if (num.isdigit() or num[:1] == "-" and num[1:].isdigit()) and num.isascii() and (
                not slash or den.isdigit() and den.isascii()):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return Fraction(s)

    def elements(self):
        from .errors import InfiniteFieldError

        raise InfiniteFieldError("Q is infinite")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The finite field F_p for a prime p; elements are `FpElement`."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"F{p}"
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def __call__(self, v) -> FpElement:
        if isinstance(v, FpElement):
            if v.p != self.p:
                raise FieldMismatchError(f"F_{self.p} vs F_{v.p}")
            return v
        if isinstance(v, int):
            return FpElement(v, self.p)
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ZeroDivisionError(f"{v} has no image in F_{self.p}")
            return FpElement(v.numerator, self.p) / FpElement(v.denominator, self.p)
        if isinstance(v, str):
            return self.parse(v)
        if isinstance(v, Poly):
            return v
        raise TypeError(f"cannot coerce {v!r} into F_{self.p}")

    def parse(self, s: str) -> FpElement:
        s = s.strip()
        if "mod" in s:
            r, _, p = s.partition("mod")
            p = int(p)
            if p != self.p:
                raise FieldMismatchError(f"scalar is mod {p}, field is F_{self.p}")
            return FpElement(int(r), self.p)
        # field-generic fixtures store plain integers or fractions
        return self(QQ.parse(s))

    def elements(self):
        return [FpElement(i, self.p) for i in range(self.p)]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


def _lifted(arrays, p: int, D: int, dens: set) -> tuple:
    """``arrays`` as nested tuples of ints: residues over F_p (``p`` > 0), numerator *
    (D // denominator) over Q, denominators but 1 added to ``dens`` (at D = 1 the
    numerator alone: the lift if ``dens`` stays empty)."""
    out = []
    for x in arrays:
        t = type(x)
        if t is Fraction and not p:
            n, d = x.as_integer_ratio()
            if d != 1:
                dens.add(d)
            out.append(n if D == 1 else n * (D // d))
        elif t is FpElement and x.p == p:
            out.append(x.value)
        elif isinstance(x, (tuple, list)):
            out.append(_lifted(x, p, D, dens))
        elif t is Poly:
            out.append(Poly(dict(zip(x.terms, _lifted(tuple(x.terms.values()), p, D, dens)))))
        else:
            raise TypeError(f"cannot lift {x!r} from {'F_%d' % p if p else 'Q'}")
    return tuple(out)


def lift(field, arrays):
    """The scalars of ``arrays`` as Python ints, with the way back to the field.

    ``arrays`` nests tuples and lists of scalars of ``field``; the lifted
    copy keeps the nesting, as tuples.  Over Q every scalar is multiplied
    by D, the lcm of all their denominators; over F_p each becomes its
    residue and D = 1.  A `Poly` entry is lifted coefficient by
    coefficient (its variables are not scaled), so it becomes a `Poly`
    with int coefficients.  Returns the lifted arrays and ``down``:
    ``down(r, k)`` is the field value of a vector r of ints (or of such
    polynomials) that an identity homogeneous of degree k in these
    scalars evaluated to, that is r / D^k over Q and r mod p over F_p,
    again coefficient by coefficient.  A scalar or coefficient of any
    other kind raises TypeError.  Over Q, D != 1 costs a second walk.
    """
    p, dens = field.char, set()
    lifted = _lifted(arrays, p, 1, dens)
    D = lcm(*dens)
    if D != 1:
        lifted = _lifted(arrays, p, D, dens)
    return lifted, lambda r, k: descend(field, D ** k)(r)


def descend(field, scale):
    """The field vector whose lift is the vector r of ints (or int polynomials).

    r is ``scale`` times it: r / scale over Q, r mod p over F_p (where
    every D, hence ``scale``, is 1).
    """
    p, zero = field.char, field.zero

    def back(x):
        return FpElement(x, p) if p else Fraction(x, scale) if x else zero
    return lambda r: tuple(x.map(back) if isinstance(x, Poly) else back(x) for x in r)


_FIELD_NAMES = {"q": QQ}


MAX_PRIME = 2**31 - 1  # trial division costs sqrt(p); this bound keeps it to milliseconds


def field_by_name(name: str):
    """Field from its CLI name: "q" or "f<p>" (e.g. "f2", "f7"), p <= `MAX_PRIME`."""
    key = name.strip().lower()
    if key in _FIELD_NAMES:
        return _FIELD_NAMES[key]
    if key.startswith("f") and key[1:].isdigit():
        p = int(key[1:])
        if p > MAX_PRIME:
            raise ValueError(f"{p} exceeds the largest supported prime {MAX_PRIME}")
        return PrimeField(p)
    raise ValueError(f"unknown field name {name!r}")


def field_name(field) -> str:
    if isinstance(field, RationalField):
        return "q"
    return f"f{field.p}"


def scalar_to_str(x) -> str:
    if isinstance(x, FpElement):
        return f"{x.value} mod {x.p}"
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"not a scalar: {x!r}")

