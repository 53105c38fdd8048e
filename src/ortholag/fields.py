"""Exact scalar arithmetic over the rationals and over odd prime fields.

There is one Field class, and a field context is its characteristic Field.p:
QQ has p = 0, and GF(p) validates p and returns the context for F_p.
Equality, hashing, repr and coercion all read p.  A Scalar is an immutable
value tagged with its context.  The raw value inside a Scalar is a stdlib
Fraction over Q and an int reduced to [0, p) over F_p.  Field.raw coerces
any accepted input to a raw value, so the linear algebra kernels in linalg
run on raw values and make Scalars only for the Matrix or Subspace they
return.  _inv is the one inverse of raw values, used by Scalar division and
by every layer above.  Characteristic 2 is refused because the bilinear form
machinery divides by 2.
"""

from fractions import Fraction

from .errors import DivisionByZero, MixedContexts, UnsupportedContext, ZeroScalar

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic primality test; refuses n at or above _MR_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_BOUND:
        raise UnsupportedContext(
            f"primality of {n} is only certified below {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _inv(x, p):
    """The inverse of a raw value: mod p over F_p, a Fraction over Q (p = 0)."""
    if p:
        try:
            return pow(x, -1, p)
        except ValueError:  # x is 0 mod p
            raise DivisionByZero(f"division by zero in F_{p}") from None
    if x == 0:
        raise DivisionByZero("division by zero in Q")
    return 1 / x


def _sqrt(a, p):
    """Smaller root of a mod an odd prime p (Tonelli-Shanks); None if nonsquare."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


class Field:
    """A field context, identified by its characteristic p (0 for Q).

    Make contexts with QQ and GF(p), which validates p; Field(p) does not.
    """

    def __init__(self, p=0):
        self.p = p

    def scalar(self, value):
        """Coerce value (int, Fraction, str like '3/4', or Scalar) into this field."""
        if isinstance(value, Scalar) and value.field == self:
            return value
        return Scalar(self, self.raw(value))

    def raw(self, value):
        """Coerce value like scalar() does, but return the raw value."""
        p = self.p
        if type(value) is int:
            return value % p if p else Fraction(value)
        if isinstance(value, Scalar):
            if value.field != self:
                raise MixedContexts(f"scalar from {value.field} used in {self}")
            return value.value
        if isinstance(value, str):
            value = Fraction(value)
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot coerce {value!r} into {self}")
        if not p:
            return Fraction(value)
        if value.denominator % p == 0:
            raise DivisionByZero(f"denominator divisible by {p}")
        return value.numerator * pow(value.denominator, -1, p) % p

    @property
    def zero(self):
        return self.scalar(0)

    @property
    def one(self):
        return self.scalar(1)

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"F_{self.p}" if self.p else "Q"


QQ = Field()


def GF(p):
    """The field with p elements, p an odd prime (the usual spelling)."""
    if not isinstance(p, int) or not _is_prime(p):
        raise UnsupportedContext(f"{p} is not prime")
    if p == 2:
        raise UnsupportedContext("characteristic 2 is not supported")
    return Field(p)


class Scalar:
    """An immutable field element: a Fraction over Q, an int in [0, p) over F_p."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise MixedContexts(f"cannot mix {self.field} and {other.field}")
            return other
        if isinstance(other, (int, Fraction, str)):
            return self.field.scalar(other)
        return None  # defer to the other operand

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.scalar(self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.scalar(self.value - o.value)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.scalar(self.value * o.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field.scalar(self.value * _inv(o.value, self.field.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return self.field.scalar(-self.value)

    def __eq__(self, other):
        if isinstance(other, Scalar) and other.field != self.field:
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


def is_square(a):
    """Squareness test with witness for nonzero prime field scalars.

    Returns (True, root) with the smaller of the two roots, or (False, None).
    Not defined over Q; raises UnsupportedContext there.
    """
    if not a.field.p:
        raise UnsupportedContext("square testing is only supported over prime fields")
    if a.value % a.field.p == 0:
        raise ZeroScalar("squareness of zero is excluded")
    r = _sqrt(a.value, a.field.p)
    return (False, None) if r is None else (True, a.field.scalar(r))
