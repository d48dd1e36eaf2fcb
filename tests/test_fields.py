import random
from fractions import Fraction

import pytest

from twistlines.fields import QQ, PrimeField, RationalField, is_prime


def test_rational_ops():
    f = QQ
    assert f.add(f.of(1), f.of(2)) == Fraction(3)
    assert f.div(f.of(1), f.of(3)) == Fraction(1, 3)
    assert f.is_zero(f.sub(f.of(5), f.of(5)))
    assert f.neg(f.of(2)) == Fraction(-2)


def test_prime_field_ops():
    gf = PrimeField(7)
    assert gf.add(5, 4) == 2
    assert gf.mul(3, 5) == 1
    assert gf.inv(3) == 5
    assert gf.div(1, 3) == 5
    assert gf.neg(2) == 5
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def test_prime_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_reduces_fractions():
    gf = PrimeField(10007)
    x = gf.of(Fraction(1, 2))
    assert gf.mul(x, 2) == 1


def test_is_prime():
    assert is_prime(10007)
    assert is_prime(2)
    assert not is_prime(10009 * 10007)
    assert not is_prime(1)
    assert is_prime(1000000007)  # large prime, exercises Miller-Rabin


PSI_12 = 318665857834031151167461  # strong pseudoprime to the primes up to 37
PSI_13 = 3317044064679887385961981  # ... and to 41


def test_is_prime_refuses_the_strong_pseudoprimes():
    assert not is_prime(PSI_12)
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(PSI_13)
    for p in (PSI_12, PSI_13):
        with pytest.raises(ValueError):
            PrimeField(p)


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    values = list(range(-5, 3000))
    values += [PSI_12 + d for d in range(-300, 301)] + [PSI_13 - d for d in range(1, 601)]
    values += [rng.randrange(10**k, 10 * 10**k) for k in range(3, 24) for _ in range(40)]
    values += [rng.randrange(PSI_13) | 1 for _ in range(500)]
    for n in values:
        assert is_prime(n) == sympy.isprime(n), n


def test_field_equality():
    assert QQ == RationalField()
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
