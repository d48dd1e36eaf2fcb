"""Homogeneous binary forms in T0, T1 over an exact field.

A form of degree d is stored as a coefficient tuple of length d+1, where
index i holds the coefficient of T0^(d-i) * T1^i.  The zero form carries a
nominal degree tag so that maps between bundles with empty or negative
twist gaps still type-check; a tag below zero forces the form to be zero
and is stored with an empty coefficient tuple.

Forms are immutable, so the nonzero terms of a form (which also give its
zero flag) are found on first use and kept.  The univariate helpers at the
bottom work on dense coefficient lists indexed by power; the form product
is their convolution.  Division with remainder and a - q*b (the row and
column operations of the rank profile) compute on native scalars and
reduce each result once (``field.reduce_all``).
"""

from fractions import Fraction

from .fields import _demote

__all__ = [
    "BinaryForm",
    "form_gcd",
    "poly_divmod",
    "poly_gcd",
]


class BinaryForm:
    """A homogeneous form.

    Immutable: ``terms()`` keeps the nonzero terms found on first use, and
    with them the zero flag, so ``coeffs`` is never rebound.
    """

    __slots__ = ("field", "degree", "coeffs", "_terms")

    def __init__(self, field, degree: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != max(0, degree + 1):
            raise ValueError(
                f"degree {degree} needs {max(0, degree + 1)} coefficients, got {len(coeffs)}"
            )
        self.field = field
        self.degree = degree
        self.coeffs = coeffs
        self._terms = None

    @classmethod
    def zero(cls, field, degree: int = 0) -> "BinaryForm":
        return cls(field, degree, (field.zero,) * max(0, degree + 1))

    @classmethod
    def constant(cls, field, value) -> "BinaryForm":
        return cls(field, 0, (field.of(value),))

    @classmethod
    def monomial(cls, field, degree: int, t1_exp: int, coeff=1) -> "BinaryForm":
        """coeff * T0^(degree - t1_exp) * T1^t1_exp."""
        if not 0 <= t1_exp <= degree:
            raise ValueError(f"T1-exponent {t1_exp} out of range for degree {degree}")
        coeffs = [field.zero] * (degree + 1)
        coeffs[t1_exp] = field.of(coeff)
        return cls(field, degree, coeffs)

    @classmethod
    def from_coeffs(cls, field, coeffs) -> "BinaryForm":
        coeffs = [field.of(c) for c in coeffs]
        return cls(field, len(coeffs) - 1, coeffs)

    def terms(self):
        """The nonzero (T1-exponent, coeff) pairs, in ascending exponent."""
        terms = self._terms
        if terms is None:
            fz = self.field.is_zero
            terms = self._terms = tuple((i, c) for i, c in enumerate(self.coeffs) if not fz(c))
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

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError(f"cannot add forms of degrees {self.degree} and {other.degree}")
        add = self.field.add
        return BinaryForm(
            self.field, self.degree, [add(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        neg = self.field.neg
        return BinaryForm(self.field, self.degree, [neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        d = self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return BinaryForm.zero(f, d)
        out = _poly_mul(f, self.coeffs, other.coeffs)
        out += [f.zero] * (d + 1 - len(out))
        return BinaryForm(f, d, out)

    def scale(self, scalar) -> "BinaryForm":
        f = self.field
        s = f.of(scalar)
        return BinaryForm(f, self.degree, [f.mul(s, c) for c in self.coeffs])

    def evaluate(self, t0, t1):
        """Value at the affine representative (t0, t1); (0, 0) is refused."""
        f = self.field
        t0, t1 = f.of(t0), f.of(t1)
        if f.is_zero(t0) and f.is_zero(t1):
            raise ValueError("(0, 0) does not represent a point of the projective line")
        acc = f.zero
        d = self.degree
        for i, c in enumerate(self.coeffs):
            if f.is_zero(c):
                continue
            term = c
            for _ in range(d - i):
                term = f.mul(term, t0)
            for _ in range(i):
                term = f.mul(term, t1)
            acc = f.add(acc, term)
        return acc

    def substitute_power(self, d: int) -> "BinaryForm":
        """Substitute T0 -> T0^d, T1 -> T1^d."""
        if d < 1:
            raise ValueError("substitution exponent must be >= 1")
        f = self.field
        deg = self.degree * d
        if self.degree < 0:
            return BinaryForm.zero(f, deg)
        out = [f.zero] * (deg + 1)
        for i, c in enumerate(self.coeffs):
            out[i * d] = c
        return BinaryForm(f, deg, out)

    def t1_valuation(self) -> int:
        """Largest j with T1^j dividing the form (degree+1 for the zero form)."""
        terms = self.terms()
        return terms[0][0] if terms else self.degree + 1

    def dehomogenize(self):
        """Coefficient list of f(x, 1) indexed by x-power."""
        return list(reversed(self.coeffs[self.t1_valuation() :]))

    @classmethod
    def rehomogenize(cls, field, poly) -> "BinaryForm":
        """Inverse of dehomogenize onto degree = deg(poly)."""
        poly = _trim(field, poly)
        if not poly:
            raise ValueError("cannot rehomogenize the zero polynomial without a degree")
        return cls(field, len(poly) - 1, list(reversed(poly)))

    def __repr__(self):
        if self.degree < 0 or self.is_zero():
            return f"0(deg {self.degree})"
        fz = self.field.is_zero
        parts = []
        for i, c in enumerate(self.coeffs):
            if fz(c):
                continue
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


def _poly_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            if not field.is_zero(y):
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trim(field, out)


def poly_gcd(field, a, b):
    """Monic gcd of univariate polynomials (empty list if both are zero)."""
    a = _trim(field, list(a))
    b = _trim(field, list(b))
    while b:
        _, r = poly_divmod(field, a, b)
        a, b = b, r
    if a:
        inv_lead = field.inv(a[-1])
        a = [field.mul(c, inv_lead) for c in a]
    return a


# ---------------------------------------------------------------------------
# homogeneous gcd


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic homogeneous gcd.

    The common T1-power is split off first (dehomogenizing at T1 = 1 loses
    it), then the one-variable Euclidean algorithm runs on the
    dehomogenizations and the result is rehomogenized.  Normalization makes
    the leading nonzero coefficient (highest T0-power) equal to 1.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd undefined for two zero forms")
    if f.is_zero():
        f, g = g, f
    if g.is_zero():
        body = BinaryForm.rehomogenize(f.field, f.dehomogenize())
        body = body.scale(f.field.inv(_lead(body)))
        return _attach_t1(body, f.t1_valuation())
    field = f.field
    vf, vg = f.t1_valuation(), g.t1_valuation()
    shared = min(vf, vg)
    p = poly_gcd(field, f.dehomogenize(), g.dehomogenize())
    body = BinaryForm.rehomogenize(field, p)
    return _attach_t1(body, shared)


def _lead(f: BinaryForm):
    for c in f.coeffs:
        if not f.field.is_zero(c):
            return c
    raise ValueError("zero form has no leading coefficient")


def _attach_t1(f: BinaryForm, power: int) -> BinaryForm:
    if power == 0:
        return f
    return f * BinaryForm.monomial(f.field, power, power)


def random_form(field, degree: int, rng, span: int = 5) -> BinaryForm:
    """Uniform small-integer form, used by the property suites."""
    return BinaryForm(
        field, degree, [field.of(rng.randint(-span, span)) for _ in range(degree + 1)]
    )
