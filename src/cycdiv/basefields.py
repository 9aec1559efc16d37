"""Prime fields F_p, the rationals, roots of unity and q-th power tests.

Field elements are plain Python values (ints in [0, p) for F_p,
``fractions.Fraction`` for the rationals); a *domain* object carries the
arithmetic.  Series domains (see :mod:`cycdiv.series`) follow the same
protocol, so towers can be built by nesting.  A series over Q stores its
coefficients as integer numerators over one denominator, but every Q value
it hands out (``coeffs``, ``residue``, ``angular_component``) or takes in
(construction, ``scale``, ``parse``) is a ``Fraction``, as here.
"""

import functools
import math
from fractions import Fraction

from .errors import CycdivError


def is_prime(n):
    """Deterministic trial division; intended for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def integer_nth_root(n, k):
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class Domain:
    """Protocol base for coefficient domains.  Values are immutable."""

    characteristic = 0
    # p when the domain is the Laurent field F_p((t)), which the F_p kernel
    # of ``series`` serves
    _laurent_p = None

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a):
        return self.eq(a, self.zero)

    def is_known_zero(self, a):
        """Zero as far as the representation can tell (== is_zero here)."""
        return self.is_zero(a)

    def drawer(self, rng, **opts):
        """A function of no arguments that draws one element as
        ``random_element(rng, **opts)`` does.  Domains whose draws need
        set-up (series, quadratic extensions) do it once in their own
        ``drawer``, so a loop builds one drawer and calls it."""
        return functools.partial(self.random_element, rng, **opts)

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.invert(a), -n)
        acc = self.one
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc


class PrimeField(Domain):
    """F_p with elements the canonical int representatives in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F{self.p}"

    def __call__(self, n):
        return self.from_int(n)

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def is_zero(self, a):
        return a % self.p == 0

    is_known_zero = is_zero

    def pow(self, a, n):
        if n < 0:
            return pow(self.invert(a), -n, self.p)
        return pow(a, n, self.p)

    def elements(self):
        return range(self.p)

    def units(self):
        return range(1, self.p)

    def is_qth_power(self, x, q):
        return is_qth_power(self.p, q, x % self.p)

    def qth_root(self, x, q):
        """Smallest r with r^q = x, or raise if none exists."""
        x = x % self.p
        if x == 0:
            return 0
        for r in range(1, self.p):
            if pow(r, q, self.p) == x:
                return r
        raise CycdivError(f"{x} is not a {q}-th power in F_{self.p}")

    def random_element(self, rng, nonzero=False):
        """A uniform element, or unit when ``nonzero``: the int that
        ``rng.randrange(1 if nonzero else 0, p)`` draws, from the same call
        of ``rng._randbelow``."""
        return rng._randbelow(self.p - 1) + 1 if nonzero else rng._randbelow(self.p)

    def to_str(self, a):
        return str(a % self.p)

    def parse(self, text):
        try:
            return int(text, 10) % self.p
        except ValueError:
            raise CycdivError(f"cannot parse {text!r} as an element of F_{self.p}") from None


class RationalField(Domain):
    """Q with elements ``fractions.Fraction``."""

    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "Q"

    def __call__(self, n):
        return Fraction(n)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / a

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return not a

    is_known_zero = is_zero

    def pow(self, a, n):
        return a ** n

    def is_qth_power(self, x, q):
        """Exact q-th power test on a nonzero rational."""
        if x == 0:
            return True
        if x < 0 and q % 2 == 0:
            return False
        num, den = abs(x.numerator), x.denominator
        rn, rd = integer_nth_root(num, q), integer_nth_root(den, q)
        return rn ** q == num and rd ** q == den

    def qth_root(self, x, q):
        if x == 0:
            return Fraction(0)
        if not self.is_qth_power(x, q):
            raise CycdivError(f"{x} is not a {q}-th power in Q")
        sign = -1 if x < 0 else 1
        num, den = abs(x.numerator), x.denominator
        return Fraction(sign * integer_nth_root(num, q), integer_nth_root(den, q))

    def random_element(self, rng, nonzero=False):
        """``Fraction(rng.randint(-9, 9), rng.randint(1, 9))``, drawn again
        while zero when ``nonzero``; see :func:`_random_rational`."""
        return Fraction(*_random_rational(rng._randbelow, nonzero))

    def to_str(self, a):
        return str(a)

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise CycdivError(f"cannot parse {text!r} as a rational number") from None


QQ = RationalField()


def _random_rational(below, nonzero):
    """A random rational as reduced (numerator, denominator), from the draws
    ``rng.randint(-9, 9)`` and ``rng.randint(1, 9)`` make, where ``below`` is
    the generator's ``_randbelow``; drawn again while zero when ``nonzero``."""
    while True:
        num, den = below(19) - 9, below(9) + 1
        if num or not nonzero:
            g = math.gcd(num, den)
            return num // g, den // g


def primitive_qth_root(p, q):
    """Smallest xi in F_p with xi^q = 1 and xi^k != 1 for 0 < k < q.

    Requires q | p-1; q prime, so any nontrivial q-th root is primitive.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if (p - 1) % q != 0:
        raise CycdivError(f"no primitive {q}-th root of unity in F_{p}: {q} does not divide {p - 1}")
    for x in range(2, p):
        if pow(x, q, p) == 1:
            return x
    raise CycdivError(f"no primitive {q}-th root of unity found in F_{p}")


def qth_power_set(p, q):
    """The image of x -> x^q on F_p^x."""
    return {pow(x, q, p) for x in range(1, p)}


def is_qth_power(p, q, x):
    """Membership of x != 0 in F_p^{x q}, via the exponent criterion."""
    x = x % p
    if x == 0:
        raise CycdivError("q-th power test is for nonzero elements")
    if (p - 1) % q != 0:
        return True  # x -> x^q is a bijection on F_p^x
    return pow(x, (p - 1) // q, p) == 1
