"""Homogeneous binary forms in T0, T1 over an exact field.

A form of degree d is stored as a coefficient tuple of length d+1, where
index i holds the coefficient of T0^(d-i) * T1^i.  The zero form carries a
nominal degree tag so that maps between bundles with empty or negative
twist gaps still type-check; a tag below zero forces the form to be zero
and is stored with an empty coefficient tuple.

Coefficients are stored reduced: over GF(p) an int in [0, p), over the
rationals an int or a ``Fraction``.  So a coefficient is zero iff it is
falsy, and the nonzero terms of a form (which also give its zero flag) are
read by ``itertools.compress`` on first use and kept, the form being
immutable.  The public constructor reduces its coefficients with
``field.of``; results that are reduced already (products, graded products,
solved coordinates) are built unchecked by
``BinaryForm._valid``.  Form arithmetic computes on the native scalars with
Python's operators and reduces each result once (``field.reduce_all``);
the product convolves both factors' kept terms.
The univariate helpers at the bottom, division with remainder and a - q*b
(the row and column operations of the rank profile), work the same way on
dense coefficient lists indexed by power.
"""

from fractions import Fraction
from itertools import compress

from .fields import _demote

__all__ = [
    "BinaryForm",
    "poly_divmod",
]

_ZEROS = {}  # (field, degree) -> the zero form, see BinaryForm.zero


class BinaryForm:
    """A homogeneous form.

    Immutable: ``terms()`` keeps the nonzero terms found on first use, and
    with them the zero flag, so ``coeffs`` is never rebound.
    """

    __slots__ = ("field", "degree", "coeffs", "_terms")

    def __init__(self, field, degree: int, coeffs):
        coeffs = tuple(map(field.of, coeffs))
        if len(coeffs) != max(0, degree + 1):
            raise ValueError(
                f"degree {degree} needs {max(0, degree + 1)} coefficients, got {len(coeffs)}"
            )
        self.field = field
        self.degree = degree
        self.coeffs = coeffs
        self._terms = None

    @classmethod
    def _valid(cls, field, degree: int, coeffs) -> "BinaryForm":
        """The form of max(0, degree + 1) reduced coefficients, unchecked."""
        form = object.__new__(cls)
        form.field, form.degree, form.coeffs, form._terms = field, degree, tuple(coeffs), None
        return form

    @classmethod
    def zero(cls, field, degree: int = 0) -> "BinaryForm":
        """The zero form of ``degree``, one shared object per (field, degree).

        A form is immutable, so sharing it changes no result, and equal
        matrices built of shared zeros compare them by identity; a matrix
        product or a pullback returns it for an entry that comes out zero.
        These are constants of (field, degree), not results of a
        computation, so the rules of the sweep memo (``families._once``) do
        not apply: the table lives as long as the process and is never
        cleared."""
        form = _ZEROS.get((field, degree))
        if form is None:
            form = cls._valid(field, degree, (field.zero,) * max(0, degree + 1))
            form._terms = ()
            _ZEROS[field, degree] = form
        return form

    @classmethod
    def constant(cls, field, value) -> "BinaryForm":
        return cls(field, 0, (value,))

    @classmethod
    def monomial(cls, field, degree: int, t1_exp: int, coeff=1) -> "BinaryForm":
        """coeff * T0^(degree - t1_exp) * T1^t1_exp."""
        if not 0 <= t1_exp <= degree:
            raise ValueError(f"T1-exponent {t1_exp} out of range for degree {degree}")
        coeffs = [field.zero] * (degree + 1)
        c = coeffs[t1_exp] = field.of(coeff)
        form = cls._valid(field, degree, coeffs)
        form._terms = ((t1_exp, c),) if c else ()
        return form

    def terms(self):
        """The nonzero (T1-exponent, coeff) pairs, in ascending exponent."""
        terms = self._terms
        if terms is None:
            coeffs = self.coeffs
            terms = self._terms = tuple(compress(enumerate(coeffs), coeffs))
        return terms

    def is_zero(self) -> bool:
        return not self.terms()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.field == other.field
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def _pairs(self, other):
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add or subtract forms of degrees {self.degree} and {other.degree}"
            )
        return zip(self.coeffs, other.coeffs)

    def __add__(self, other):
        f = self.field
        coeffs = f.reduce_all([a + b for a, b in self._pairs(other)])
        return BinaryForm._valid(f, self.degree, coeffs)

    def __neg__(self):
        f = self.field
        return BinaryForm._valid(f, self.degree, f.reduce_all([-c for c in self.coeffs]))

    def __sub__(self, other):
        f = self.field
        coeffs = f.reduce_all([a - b for a, b in self._pairs(other)])
        return BinaryForm._valid(f, self.degree, coeffs)

    def __mul__(self, other):
        """The product, convolved from both factors' kept terms."""
        f = self.field
        d = self.degree + other.degree
        acc = [0] * max(0, d + 1)
        right = other.terms()
        for s, x in self.terms():
            for t, y in right:
                acc[s + t] += x * y
        return BinaryForm._valid(f, d, f.reduce_all(acc))

    def substitute_power(self, d: int) -> "BinaryForm":
        """Substitute T0 -> T0^d, T1 -> T1^d."""
        if d < 1:
            raise ValueError("substitution exponent must be >= 1")
        f = self.field
        deg = self.degree * d
        if not self.terms():
            return BinaryForm.zero(f, deg)
        out = [f.zero] * (deg + 1)
        for i, c in enumerate(self.coeffs):
            out[i * d] = c
        return BinaryForm._valid(f, deg, out)

    def __repr__(self):
        if self.degree < 0 or self.is_zero():
            return f"0(deg {self.degree})"
        parts = []
        for i, c in self.terms():
            e0, e1 = self.degree - i, i
            mono = "*".join(
                ([f"T0^{e0}" if e0 > 1 else "T0"] if e0 else [])
                + ([f"T1^{e1}" if e1 > 1 else "T1"] if e1 else [])
            )
            try:
                negative = c < 0
            except TypeError:
                negative = False
            mag = -c if negative else c
            if not mono:
                body = str(mag)
            elif mag == self.field.one:
                body = mono
            else:
                body = f"{mag}*{mono}"
            parts.append(("-" if negative else "+", body))
        sign, body = parts[0]
        out = body if sign == "+" else f"-{body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


# ---------------------------------------------------------------------------
# univariate helpers (coefficient lists indexed by power, trimmed)

def _trim(field, poly):
    while poly and field.is_zero(poly[-1]):
        poly.pop()
    return poly


def poly_divmod(field, a, b):
    """Quotient and remainder of dense univariate polynomials over field.

    Native arithmetic: each quotient coefficient is the leading remainder
    coefficient times the modular inverse of b's leading one (GF(p)) or
    their exact quotient (rationals), and the remainder is reduced once.
    """
    b = _trim(field, list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = _trim(field, list(a))
    p = field.characteristic
    nb = len(b) - 1
    lead = b[-1]
    inv = pow(lead, p - 2, p) if p else None
    q = [field.zero] * max(0, len(r) - nb)
    for shift in range(len(r) - 1 - nb, -1, -1):
        top = r.pop()
        if p:
            c = top * inv % p
        elif type(top) is int and type(lead) is int and not top % lead:
            c = top // lead
        else:
            c = _demote(Fraction(top) / lead)
        if c:
            q[shift] = c
            for i in range(nb):
                r[shift + i] -= c * b[i]
    return q, _trim(field, field.reduce_all(r))


def _poly_submul(field, a, q, b):
    """a - q*b on native scalars, each coefficient reduced once, trimmed."""
    out = a + [field.zero] * (len(q) + len(b) - 1 - len(a))
    for s, x in enumerate(q):
        if x:
            for t, y in enumerate(b):
                out[s + t] -= x * y
    return _trim(field, field.reduce_all(out))


def random_form(field, degree: int, rng, span: int = 5) -> BinaryForm:
    """Uniform small-integer form, used by the property suites."""
    return BinaryForm(
        field, degree, [field.of(rng.randint(-span, span)) for _ in range(degree + 1)]
    )
