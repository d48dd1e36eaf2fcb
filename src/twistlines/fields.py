"""Exact scalar backends.

Every computation in this package is exact.  The default backend is the
field of arbitrary-precision rationals, held integer-natively: an integral
value is a plain Python ``int`` and only a value with denominator > 1 is a
``fractions.Fraction``.  The construction data is integral, so almost all
arithmetic stays on ints.  An odd prime field is available as a fast
cross-check backend (the constructions need 2 to be invertible, so
characteristic 2 is refused).

All package arithmetic computes on the native scalars with Python
operators and calls ``reduce_all`` once per result list to restore the
canonical form.  The per-scalar methods (``add``, ``sub``, ``mul``,
``neg``, ``div``, ``inv``) remain as the tests' per-coefficient references
and as the operations ``perfbench``'s tracer counts.
"""

from fractions import Fraction

__all__ = ["RationalField", "PrimeField", "QQ", "is_prime"]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # the least strong pseudoprime to all of them


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ``ValueError`` from psi_13 on, where it could err."""
    if n >= _PSI_13:
        raise ValueError(f"primality is only decided below {_PSI_13}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _demote(x):
    """A Fraction with denominator 1 as an int; anything else unchanged."""
    if x.denominator == 1:
        return x.numerator
    return x


class RationalField:
    """Arbitrary-precision rationals: ints when integral, else Fractions.

    Invariant: every operation returns an ``int`` for an integral result
    and a ``Fraction`` with denominator > 1 otherwise.  Both types compare
    and hash equal for equal values, so callers never see the difference.
    """

    name = "rational"
    characteristic = 0

    def __init__(self):
        self.zero = 0
        self.one = 1

    def of(self, value):
        if type(value) is int:
            return value
        if isinstance(value, int):
            return int(value)
        return _demote(value if isinstance(value, Fraction) else Fraction(value))

    def add(self, a, b):
        r = a + b
        return r if type(r) is int else _demote(r)

    def sub(self, a, b):
        r = a - b
        return r if type(r) is int else _demote(r)

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int else _demote(r)

    def neg(self, a):
        r = -a
        return r if type(r) is int else _demote(r)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if type(a) is int:
            return a if a in (1, -1) else Fraction(1, a)
        return _demote(1 / a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            return q if not r else Fraction(a, b)
        return _demote(Fraction(a) / b)

    def is_zero(self, a) -> bool:
        return a == 0

    def reduce_all(self, values) -> list:
        """Exact int/Fraction values as a list that keeps the invariant."""
        return [v if type(v) is int else _demote(v) for v in values]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers modulo an odd prime p; elements are plain ints in [0, p).

    ``of`` also accepts Fraction inputs so that rational data can be
    reduced mod p for backend cross-checks.
    """

    name = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported (2 must be invertible)")
        self.p = p
        self.zero = 0
        self.one = 1

    @property
    def characteristic(self) -> int:
        return self.p

    def of(self, value) -> int:
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def reduce_all(self, values) -> list:
        """Integer values as a list of their residues in [0, p)."""
        p = self.p
        return [v % p for v in values]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


#: Shared default backend.
QQ = RationalField()
