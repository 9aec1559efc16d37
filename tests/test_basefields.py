from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cycdiv import (PrimeField, QQ, is_prime, is_qth_power,
                    primitive_qth_root, qth_power_set)
from cycdiv.errors import CycdivError


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_primitive_qth_root_basics():
    assert primitive_qth_root(7, 3) == 2
    assert pow(2, 3, 7) == 1
    assert primitive_qth_root(11, 5) == 3
    assert pow(3, 5, 11) == 1
    assert primitive_qth_root(13, 3) == 3


def test_primitive_qth_root_rejects_bad_pairing():
    with pytest.raises(CycdivError):
        primitive_qth_root(7, 5)  # 5 does not divide 6


@pytest.mark.parametrize("p,q", [(7, 3), (13, 3), (11, 5), (29, 7)])
def test_primitive_root_powers_distinct(p, q):
    xi = primitive_qth_root(p, q)
    powers = {pow(xi, k, p) for k in range(q)}
    assert len(powers) == q
    assert pow(xi, q, p) == 1


def test_qth_power_set():
    assert qth_power_set(7, 3) == {1, 6}
    assert qth_power_set(11, 5) == {1, 10}
    assert qth_power_set(13, 3) == {1, 5, 8, 12}


def test_is_qth_power_prime_field():
    assert is_qth_power(7, 3, 6)
    assert not is_qth_power(7, 3, 2)
    # q coprime to p-1: the power map is bijective
    assert is_qth_power(7, 5, 3)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.add(4, 5) == 2
    assert F.mul(3, 5) == 1
    assert F.invert(3) == 5
    assert F.eq(F.pow(F.qth_root(6, 3), 3), 6)
    assert F.neg(2) == 5
    assert F.sub(1, 3) == 5


def test_prime_field_elements_and_units():
    F = PrimeField(5)
    assert list(F.elements()) == [0, 1, 2, 3, 4]
    assert list(F.units()) == [1, 2, 3, 4]


def test_rational_field():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.invert(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.is_qth_power(Fraction(4, 9), 2)
    assert not QQ.is_qth_power(Fraction(2), 2)
    assert not QQ.is_qth_power(Fraction(-4), 2)
    assert QQ.is_qth_power(Fraction(-8, 27), 3)
    assert QQ.qth_root(Fraction(4, 9), 2) == Fraction(2, 3)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_prime_field_mul_matches_ints(a, b):
    F = PrimeField(7)
    assert F.mul(a, b) == (a * b) % 7


@given(st.fractions(), st.fractions())
def test_rational_add_commutes(x, y):
    assert QQ.add(x, y) == QQ.add(y, x)
