"""Truncated generalized power series (Laurent/Hahn) over a coefficient field.

A :class:`Series` is a finite support map exponent -> coefficient together
with either an absolute precision bound pi (coefficients at exponents < pi
are known, the rest unknown) or the EXACT marker (``precision is None``,
the element *is* its finite support).  Exponents live in a value group:
the integers, or Z[1/p] for Hahn towers.  The coefficient field of a
:class:`SeriesDomain` may itself be a series domain, which is how towers
like k((x))((t)) are built.  Exponents are always stored normalised (an
integral exponent is an ``int``), so the printed form of a result does not
depend on how it was computed.

Which kernel serves which domain:

* Products.  An operand with no stored coefficient (an exact zero or a
  bare O-term) gives an empty product at once, at the usual precision
  ``min(pa + v(b), pb + v(a))``; a sum with one only truncates the other
  operand.  When one operand has a single term, over any coefficient
  domain and value group, the product shifts the other operand's exponents
  and scales its coefficients: one coefficient product per term, no
  accumulation.  Over a prime field with value group Z every other
  product takes the one F_p kernel, ``_fp_products``, which adds +-a*b
  below a precision bound into an unreduced {exponent: int} map, reduced
  mod p once by ``_fp_series``.  Operands dense enough that their term
  count product beats ``_KRONECKER_DENSITY`` times their exponent spans are
  multiplied by Kronecker substitution: each support is packed into one
  Python int, the ints are multiplied once, and the slots below the bound
  are unpacked; sparser ones take a schoolbook loop on ints.  Each series
  keeps the packs made of it, one per slot width (``_packs``), each made
  from all of its terms, so a series that enters many products is packed
  once per width.  Every other product (Z[1/p] exponents, Q or series
  coefficients) uses the schoolbook loop in the coefficient ring.  All of
  them give the same coefficients and precision, by the one rule
  ``product_precision``.
* Products in a Kummer field K = k((t))(u), u^q = t the variable.
  ``kummer.kummer_mul`` interleaves the coordinates into one EXACT series in
  u = t^(1/q), so one ``Series.__mul__`` (Kronecker over F_p when dense)
  replaces the q^2 coordinate products; each output coordinate is cut at
  the ``product_precision`` of the pairs that reach it.
* Inversion and Hensel q-th roots.  Over every coefficient domain both are
  Newton iterations with precision doubling on truncated approximants:
  ``y <- y + y(1 - s*y)`` for the inverse, and the division-free
  inverse-root step ``y <- y + y(1 - s*y^q)/q`` followed by
  ``r = s*y^(q-1)`` for the root.  In a tower the start value carries the
  inner O-term of its coefficient, and the arithmetic carries it on, so a
  result claims no coefficient its input does not determine.  Every path
  ends with a full-precision check of its result.
* Sums of products of EXACT elements of a Laurent tower over Q or F_p.
  ``cycdiv.flat`` has the one accumulator for them, ``_FlatSum``: it takes
  its bounds and key width once from all the factors, flattens each factor
  once to (packed exponent key, int) pairs, adds every product into one
  {key: int} map, and reads the map back by an exact zero test (mod p over
  F_p) or by one ``_unflatten``, with no ``Series`` arithmetic before a
  result is built.  Its users: ``algebra.constants_mul`` (the lam*a_i*b_j
  of the structure constants), which returns its maps as a
  ``flat._FlatVector``, from which ``Element.is_known_zero``, ``==``
  between two products and the next ``constants_mul`` read without
  building a series; ``quaternion.AlbertForm.evaluate`` (sum c_i a_i^2
  over F, and its pair of sums over a quadratic extension F(gamma)); and
  ``quaternion.anisotropy_sample_test``, which reads only the zero test.
  Truncated inputs at any level, Z[1/p] exponents, a
  coefficient field as the domain and keys that would reach
  ``_FLAT_KEY_BITS`` keep the ``Series`` arithmetic.
* Linear systems.  ``linalg`` eliminates on ``Series`` over every domain.
  Over F_p((t)) it forms each row update, x - f*b or a Bareiss sum
  -(a*b + c*d), with the F_p kernel on one map and builds one series per
  entry; each pivot row entry keeps its packs for the whole step.  Over
  every domain a kernel vector comes from fraction-free elimination of a
  matrix EXACT at every level: its divisions are exact, long divisions on
  the lowest terms (dense over F_p((t))) that divide the coefficients of a
  tower one level down.
* Seeded draws.  ``drawer(rng, **opts)`` checks the options, computes the
  spans and sets up the coefficient domain's draw once (a tower's inner
  level gets one drawer of its own), and returns a function of no arguments
  that draws one element; ``random_element`` is one call of a new drawer,
  and a sampling loop builds one drawer and calls it.  Every int comes from
  ``rng._randbelow`` as ``lo + _randbelow(hi - lo + 1)``, which is what
  ``randint`` does (CPython 3.10 to 3.13), so a seed gives the same elements
  and leaves the generator in the same state as draws through ``randint``.
  The draw builds the stored form directly: over Q from reduced (numerator,
  denominator) pairs, over their lcm.  An empty range raises ``ValueError``
  when the drawer is called, at the draw where ``randint`` would.  A
  coefficient domain other than F_p, Q or a series domain, such as a field
  that overrides ``random_element``, is drawn through its own ``drawer``,
  which by default calls its ``random_element``.
* Equality.  ``agrees_to_precision`` returns at once when both series have
  the same precision, ``den`` and ``terms``, with no assumption about
  canonical forms; every other pair is compared coefficient by coefficient.
  ``==`` is structural: it compares precision, ``den`` and the ``terms``
  dicts, whose values compare structurally in their turn.

Only exact zeros are dropped from ``terms``.  In a tower a coefficient
known to no term, such as the O(x^3) of ``(x + O(x^3)) - (x)``, stays
stored: ``is_known_zero`` holds for it and ``is_zero`` does not, and a
series whose lowest stored coefficient is one has no known valuation.

Q coefficients are kept in content form.  A series over Q stores integer
numerators in ``terms`` over one positive denominator ``den``, with
``gcd(den, *numerators) == 1`` and ``den == 1`` when nothing is known; its
domain's ``ring`` is the integers, so the product and sum loops multiply and
add Python ints, and the content is divided out once per result (one
multi-argument ``math.gcd``), never once per coefficient product.  Every
way of building a Q series gives this one form.  ``coeffs``, ``residue``,
``angular_component``, ``to_str`` and ``parse`` are the boundary: they see
``Fraction`` coefficients, so printed results do not depend on the form.
Over every other coefficient domain ``terms`` holds the coefficients
themselves, ``den`` is 1 and ``ring`` is the coefficient domain; over F_p
they are the representatives in [1, p) however the series was built.
"""

import functools
import math
import operator
import re
import sys
from array import array
from collections.abc import Mapping
from fractions import Fraction

from .basefields import Domain, PrimeField, RationalField, _random_rational, is_prime
from .errors import CycdivError, DomainMismatchError, PrecisionError, ValueGroupError

INFINITY = math.inf

# Kronecker substitution pays once the schoolbook loop's term products
# (len(a) * len(b)) exceed this many times the slots it packs and unpacks
# (the two exponent spans).  Measured once on CPython 3.11 over F_7: dense
# 4-term operands (16 products, spans 8) cost 8 us by the loop and 9 us
# packed, dense 8-term ones 28 us and 13 us; 8 terms spread over 0..14000
# cost 36 us by the loop and 2.9 ms packed.
_KRONECKER_DENSITY = 2

# array typecodes by item size in bytes: the slot widths packing can use
_SLOT_CODES = {array(code).itemsize: code for code in "BHIQ"}
_SLOT_WIDTHS = sorted(_SLOT_CODES)


def _norm_exp(e):
    """Normalize an exponent: plain ints where possible."""
    if isinstance(e, Fraction):
        if e.denominator == 1:
            return int(e)
        return e
    if isinstance(e, int):
        return e
    if isinstance(e, float) and e == INFINITY:
        return e
    raise ValueGroupError(f"exponent {e!r} is not an integer or Fraction")


def _slot_width(bound):
    """Smallest array item size, in bytes, that holds values up to ``bound``."""
    bits = bound.bit_length()
    for width in _SLOT_WIDTHS:
        if 8 * width >= bits:
            return width
    return None


def _layout(s):
    """(low, span, packs) of an F_p series with a term: its least exponent,
    its exponent span and its Kronecker packs by slot width, kept on ``s``."""
    if s._packs is None:
        low = min(s.terms)
        s._packs = (low, max(s.terms) - low + 1, {})
    return s._packs


def _packed(s, width, p):
    """The int whose ``width``-byte slot i holds the coefficient of ``s`` at
    low + i (see ``_layout``): made once per width, from all of its terms."""
    low, span, packs = s._packs
    if (packed := packs.get(width)) is None:
        slots = array(_SLOT_CODES[width], bytes(span * width))
        for e, c in s.terms.items():
            slots[e - low] = c % p
        packed = packs[width] = int.from_bytes(slots, sys.byteorder)
    return packed


def _fp_products(out, a, b, sign, prec=INFINITY):
    """Add ``sign`` (1 or -1) times the terms of a*b below ``prec`` into
    ``out``, an unreduced {exponent: int} map, and return it; a and b are
    series over F_p((t)) with a term each.  Operands dense by the
    ``_KRONECKER_DENSITY`` rule are multiplied by Kronecker substitution on
    their kept packs, the others by a schoolbook loop on ints."""
    ta, tb = a.terms, b.terms
    la, lb = len(ta), len(tb)
    get = out.get
    # a cheap necessary condition first: the spans are at least la and lb
    if la * lb > _KRONECKER_DENSITY * (la + lb):
        (lo_a, na, _), (lo_b, nb, _) = _layout(a), _layout(b)
        p = a.domain.ring.p
        width = _slot_width(min(la, lb) * (p - 1) ** 2)
        if la * lb > _KRONECKER_DENSITY * (na + nb) and width is not None:
            lo, n = lo_a + lo_b, na + nb - 1
            cut = min(n, prec - lo)
            if cut > 0:
                product = _packed(a, width, p) * _packed(b, width, p)
                slots = array(_SLOT_CODES[width],
                              product.to_bytes(n * width, sys.byteorder)[:cut * width])
                if sign > 0 and not out:
                    out.update(zip(range(lo, lo + cut), slots))
                else:
                    for e, c in enumerate(slots, lo):
                        if c:
                            out[e] = get(e, 0) + sign * c
            return out
    if la > lb:
        ta, tb = tb, ta
    for e1, c1 in ta.items():
        c1 *= sign
        for e2, c2 in tb.items():
            e = e1 + e2
            if e < prec:
                out[e] = get(e, 0) + c1 * c2
    return out


def _fp_series(domain, out, prec=INFINITY):
    """The series over F_p((t)) of the unreduced map ``out``, known below
    ``prec``: reduced mod p once, without zeros and exponents from ``prec``
    on."""
    p = domain.ring.p
    terms = {e: r for e, c in out.items() if e < prec and (r := c % p)}
    return _stored(domain, terms, 1, None if prec == INFINITY else prec)


def _newton_doubling(y, k, n, step):
    """Lift ``y``, correct below relative exponent ``k`` (0 < k < n), to
    precision ``n``.  Each ``step(y, k)`` gets the approximant's terms as a
    series known to the doubled precision k, and returns it correct below k."""
    while k < n:
        k = _norm_exp(min(2 * k, n))
        y = step(_stored(y.domain, y.terms, y.den, k), k)
    return y


class _Integers:
    """Z, the ring of the numerators of a Q series in content form."""

    add, sub, mul, neg, eq = operator.add, operator.sub, operator.mul, operator.neg, operator.eq
    is_zero = operator.not_


_ZZ = _Integers()


class _Fractions(Mapping):
    """Read-only exponent -> Fraction view of numerators over one denominator;
    each coefficient is built when it is read."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms, den):
        self._terms, self._den = terms, den

    def __getitem__(self, e):
        return Fraction(self._terms[e], self._den)

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)


def _primitive(terms, den):
    """``terms`` over ``den`` with their common content divided out."""
    g = math.gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {e: c // g for e, c in terms.items()}, den // g


class ValueGroup:
    """Z, or the p-divisible group Z[1/p] of rationals with p-power denominator."""

    def __init__(self, p=None):
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, ValueGroup) and other.p == self.p

    def __hash__(self):
        return hash(("ValueGroup", self.p))

    def __repr__(self):
        return "Z" if self.p is None else f"Z[1/{self.p}]"

    def contains(self, e):
        e = Fraction(e)
        if self.p is None:
            return e.denominator == 1
        d = e.denominator
        while d % self.p == 0:
            d //= self.p
        return d == 1

    def contains_q_multiple(self, e, q):
        """Whether e lies in q*Gamma."""
        if not self.contains(e):
            raise ValueGroupError(f"{e} is not in {self!r}")
        e = Fraction(e)
        if self.p is not None and q == self.p:
            return True  # Z[1/p] is p-divisible
        # clear the (q-coprime) denominator; membership reads off the numerator
        return e.numerator % q == 0

    def is_coset_separating(self, gamma, q):
        """True iff qG, qG+gamma, ..., qG+(q-1)gamma are pairwise distinct.

        For q prime this is equivalent to gamma not lying in qG.
        """
        return not self.contains_q_multiple(gamma, q)


class Series:
    """Immutable truncated or exact generalized power series.

    ``terms`` maps exponents to stored coefficients: the coefficients
    themselves, or over Q their integer numerators over ``den`` (see the
    module docstring); ``coeffs`` gives them as coefficient-field elements.
    Do not mutate ``terms`` after construction: over F_p((t)) the F_p
    kernel keeps packs made from them (``_packs``).  Built via the factory
    methods on :class:`SeriesDomain`.
    """

    __slots__ = ("domain", "terms", "den", "precision", "_packs")

    def __init__(self, domain, coeffs, precision=None, _validate=True):
        """``coeffs`` maps exponents to coefficient-field elements;
        ``_validate=False`` skips the exponent checks and the zero filter
        (over F_p, reducing mod p still drops the multiples of p)."""
        if _validate:
            cd = domain.coeff
            clean = {}
            for e, c in coeffs.items():
                e = _norm_exp(e)
                if not domain.group.contains(e):
                    raise ValueGroupError(f"exponent {e} not in value group {domain.group!r}")
                if precision is not None and e >= precision:
                    continue
                if not cd.is_zero(c):
                    clean[e] = c
            coeffs = clean
            if precision is not None:
                precision = _norm_exp(precision)
        den, ring = 1, domain.ring
        if ring is _ZZ:
            if coeffs:
                # over the lcm of reduced denominators the content is 1 already
                den = math.lcm(*[c.denominator for c in coeffs.values()])
                coeffs = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
        elif isinstance(ring, PrimeField):
            p = ring.p
            coeffs = {e: r for e, c in coeffs.items() if (r := c % p)}
        self.domain = domain
        self.terms = coeffs
        self.den = den
        self.precision = precision
        self._packs = None

    # -- basic state ---------------------------------------------------

    @property
    def coeffs(self):
        """exponent -> coefficient, as elements of the coefficient field."""
        return _Fractions(self.terms, self.den) if self.domain.ring is _ZZ else self.terms

    def _coeff(self, e):
        """The coefficient at the support exponent e."""
        c = self.terms[e]
        return Fraction(c, self.den) if self.domain.ring is _ZZ else c

    @property
    def is_exact(self):
        return self.precision is None

    def is_known_zero(self):
        """No coefficient is known to be nonzero: no term is stored, or in a
        tower every stored coefficient is itself known zero (a bare O-term)."""
        if isinstance(self.domain.coeff, SeriesDomain):
            return all(c.is_known_zero() for c in self.terms.values())
        return not self.terms

    def is_exact_zero(self):
        return self.precision is None and not self.terms

    def valuation(self):
        """Minimal support exponent; INFINITY for exact zero.

        Raises PrecisionError when the element truncates to zero at finite
        precision, or when its lowest stored coefficient is known to no term
        (the valuation is then only bounded below).
        """
        if self.terms:
            v = min(self.terms)
            if isinstance(self.domain.coeff, SeriesDomain) and self.terms[v].is_known_zero():
                raise PrecisionError(f"valuation unknown: the coefficient of {self.domain.var}^{v} "
                                     f"is {self.terms[v]!r}")
            return v
        if self.precision is None:
            return INFINITY
        raise PrecisionError(
            f"valuation below precision unknown: element is O({self.domain.var}^{self.precision})"
        )

    def valuation_lower_bound(self):
        if self.terms:
            return min(self.terms)
        return INFINITY if self.precision is None else self.precision

    def residue(self):
        """Coefficient at exponent 0, extended by 0 off the valuation ring."""
        cd = self.domain.coeff
        if not self.terms:
            if self.precision is None or self.precision > 0:
                return cd.zero
            raise PrecisionError("insufficient precision to determine the residue")
        # below 0 the residue is 0 once the valuation is known to be negative
        if min(self.terms) < 0 and self.valuation() < 0:
            return cd.zero
        if self.precision is not None and self.precision <= 0:
            raise PrecisionError("insufficient precision to determine the residue")
        return self._coeff(0) if 0 in self.terms else cd.zero

    def angular_component(self):
        """Coefficient at the minimal exponent."""
        v = self.valuation()
        if v == INFINITY:
            raise CycdivError("angular component of the zero series is undefined")
        return self._coeff(v)

    # -- arithmetic ----------------------------------------------------

    def _check_domain(self, other):
        if not isinstance(other, Series) or (other.domain is not self.domain
                                             and other.domain != self.domain):
            raise DomainMismatchError("series from different domains")

    def __add__(self, other):
        return self._add(other, False)

    def __neg__(self):
        neg = self.domain.ring.neg
        return _stored(self.domain, {e: neg(c) for e, c in self.terms.items()}, self.den,
                       self.precision)

    def __sub__(self, other):
        return self._add(other, True)

    def _add(self, other, subtract):
        """self + other, or self - other without building -other."""
        self._check_domain(other)
        pa = INFINITY if self.precision is None else self.precision
        pb = INFINITY if other.precision is None else other.precision
        # a known-zero operand only truncates the other one to its precision
        if not other.terms:
            return self if pa <= pb else self.truncate(pb)
        if not self.terms:
            out = -other if subtract else other
            return out if pb <= pa else out.truncate(pa)
        prec = min(pa, pb)
        ring = self.domain.ring
        op = ring.sub if subtract else ring.add
        out, tb, den = dict(self.terms), other.terms, self.den
        if other.den != den:  # Q numerators over the common denominator
            den = math.lcm(den, other.den)
            fa, fb = den // self.den, den // other.den
            if fa != 1:
                out = {e: c * fa for e, c in out.items()}
            if fb != 1:
                tb = {e: c * fb for e, c in tb.items()}
        for e, c in tb.items():
            if e in out:
                s = op(out[e], c)
                if ring.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = ring.neg(c) if subtract else c
        if prec != INFINITY:
            out = {e: c for e, c in out.items() if e < prec}
        if den != 1:
            out, den = _primitive(out, den)
        return _stored(self.domain, out, den, None if prec == INFINITY else prec)

    def __mul__(self, other):
        self._check_domain(other)
        prec = product_precision(self, other)
        ring = self.domain.ring
        ca, cb = self.terms, other.terms
        if not (ca and cb):
            out = {}  # a known-zero operand: nothing but the precision to compute
        elif len(ca) == 1 or len(cb) == 1:
            # a single-term operand: shift and scale the other one
            cmul, czero = ring.mul, ring.is_zero
            out = {}
            if len(ca) == 1:
                (e1, c1), = ca.items()
                for e2, c2 in cb.items():
                    e = e1 + e2
                    if e < prec and not czero(p := cmul(c1, c2)):
                        out[e] = p
            else:
                (e2, c2), = cb.items()
                for e1, c1 in ca.items():
                    e = e1 + e2
                    if e < prec and not czero(p := cmul(c1, c2)):
                        out[e] = p
        elif self.domain._laurent_p:  # the F_p kernel
            return _fp_series(self.domain, _fp_products({}, self, other, 1, prec), prec)
        else:
            cmul, cadd, czero = ring.mul, ring.add, ring.is_zero
            out = {}
            for e1, c1 in ca.items():
                for e2, c2 in cb.items():
                    e = e1 + e2
                    if e >= prec:
                        continue
                    p = cmul(c1, c2)
                    if e in out:
                        out[e] = cadd(out[e], p)
                    else:
                        out[e] = p
            out = {e: c for e, c in out.items() if not czero(c)}
        if self.domain.group.p is not None:
            out, prec = {_norm_exp(e): c for e, c in out.items()}, _norm_exp(prec)
        den = self.den * other.den
        if den != 1:
            out, den = _primitive(out, den)
        return _stored(self.domain, out, den, None if prec == INFINITY else prec)

    def scale(self, c):
        """Multiply by a coefficient-field element."""
        ring = self.domain.ring
        if self.domain.coeff.is_zero(c):
            return _stored(self.domain, {}, 1, self.precision)
        den = self.den
        if ring is _ZZ:
            c, den = c.numerator, den * c.denominator
        out = {}
        for e, a in self.terms.items():
            p = ring.mul(c, a)
            if not ring.is_zero(p):
                out[e] = p
        if den != 1:
            out, den = _primitive(out, den)
        return _stored(self.domain, out, den, self.precision)

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        acc = self.domain.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def truncate(self, prec):
        prec = _norm_exp(prec)
        if self.precision is not None and self.precision <= prec:
            return self
        out, den = {e: c for e, c in self.terms.items() if e < prec}, self.den
        if den != 1:
            out, den = _primitive(out, den)
        return _stored(self.domain, out, den, prec)

    def shift(self, delta):
        """Multiply by the monomial of exponent delta."""
        delta = _norm_exp(delta)
        if not self.domain.group.contains(delta):
            raise ValueGroupError(f"exponent {delta} not in value group")
        prec = None if self.precision is None else _norm_exp(self.precision + delta)
        return _stored(self.domain, {_norm_exp(e + delta): c for e, c in self.terms.items()},
                       self.den, prec)

    def invert(self, target_precision=None):
        """Multiplicative inverse, exact for monomials, Newton otherwise.

        ``target_precision`` is an absolute exponent bound for the result;
        default is the domain's default precision.
        """
        v = self.valuation()
        if v == INFINITY:
            raise ZeroDivisionError("inverse of the zero series")
        domain = self.domain
        cd = domain.coeff
        lead_inv = cd.invert(self._coeff(v))
        if isinstance(cd, SeriesDomain) and cd.is_known_zero(lead_inv):
            raise PrecisionError(f"the inverse of the leading coefficient {self._coeff(v)!r} "
                                 f"is known to no term: {lead_inv!r}")
        if self.precision is None and len(self.terms) == 1:
            return Series(domain, {-v: lead_inv}, None, _validate=False)
        achievable = INFINITY if self.precision is None else _norm_exp(self.precision - 2 * v)
        if target_precision is None:
            target = min(domain.default_precision, achievable)
        else:
            target = _norm_exp(target_precision)
            if target > achievable:
                raise PrecisionError(
                    f"insufficient input precision: inverse only known to O(^{achievable})")
        x = Series(domain, {-v: lead_inv}, None, _validate=False)
        # Newton on the unit u = self * t^-v: the leading inverse is right
        # below the smallest positive exponent of u
        n = _norm_exp(target + v)
        k = min((e for e in self.terms if e > v), default=INFINITY) - v
        if k < n:
            u, one = self.shift(-v), domain.one
            y = _newton_doubling(domain.constant(lead_inv), k, n,
                                 lambda y, k: y + y * (one - u.truncate(k) * y))
            x = y.shift(-v)
        if not (self * x - domain.one).truncate(n).is_known_zero():
            raise CycdivError("series inversion did not converge")
        return x.truncate(target)

    # -- comparison / display -------------------------------------------

    def agrees_to_precision(self, other):
        """Equality on all jointly-known coefficients."""
        self._check_domain(other)
        ta, tb = self.terms, other.terms
        # identical stored forms agree on every coefficient
        if self.precision == other.precision and self.den == other.den and ta == tb:
            return True
        pa = INFINITY if self.precision is None else self.precision
        pb = INFINITY if other.precision is None else other.precision
        joint = min(pa, pb)
        keys = (e for e in ta.keys() | tb.keys() if e < joint)
        if self.domain.ring is _ZZ:
            # the dropped tails can leave the two over different denominators
            da, db = self.den, other.den
            return all(ta.get(e, 0) * db == tb.get(e, 0) * da for e in keys)
        cd = self.domain.coeff
        return all(cd.eq(ta.get(e, cd.zero), tb.get(e, cd.zero)) for e in keys)

    def __eq__(self, other):
        """Structural equality: the same stored form (support, coefficients
        and precision) at every level of a tower."""
        if not isinstance(other, Series) or other.domain != self.domain:
            return NotImplemented
        return (self.precision == other.precision and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("Series is not hashable; compare with agrees_to_precision")

    def __repr__(self):
        return self.domain.to_str(self)

    __str__ = __repr__


def product_precision(a, b):
    """The precision of a*b: INFINITY when both are EXACT, else
    ``min(pa + v(b), pb + v(a))`` with v the valuation lower bound."""
    pa, pb = a.precision, b.precision
    if pa is None and pb is None:
        return INFINITY
    return min(INFINITY if pa is None else pa + b.valuation_lower_bound(),
               INFINITY if pb is None else pb + a.valuation_lower_bound())


def _stored(domain, terms, den, precision):
    """The series with stored form ``terms`` over ``den``, already canonical
    (see the module docstring), built without ``__init__``'s conversion."""
    s = object.__new__(Series)
    s.domain = domain
    s.terms = terms
    s.den = den
    s.precision = precision
    s._packs = None
    return s


def _exp_str(var, e):
    if e == 1:
        return var
    if isinstance(e, int) and e > 1:
        return f"{var}^{e}"
    return f"{var}^({e})"


class SeriesDomain(Domain):
    """The field of (truncated) series over ``coeff`` in variable ``var``."""

    def __init__(self, coeff, var, group=None, default_precision=20):
        self.coeff = coeff
        self.var = var
        self.group = group if group is not None else ValueGroup()
        self.default_precision = default_precision
        self.characteristic = coeff.characteristic
        # what the stored coefficients are multiplied and added in
        self.ring = _ZZ if isinstance(coeff, RationalField) else coeff
        if type(coeff) is PrimeField and self.group.p is None:
            self._laurent_p = coeff.p
        self.zero = Series(self, {}, None, _validate=False)
        self.one = Series(self, {0: coeff.one}, None, _validate=False)

    def __eq__(self, other):
        return other is self or (isinstance(other, SeriesDomain) and other.coeff == self.coeff
                                 and other.var == self.var and other.group == self.group)

    def __hash__(self):
        return hash(("SeriesDomain", self.coeff, self.var, self.group))

    def __repr__(self):
        g = "" if self.group.p is None else f"^{self.group!r}"
        return f"{self.coeff!r}(({self.var}{g}))"

    # -- construction ----------------------------------------------------

    def series(self, coeffs, precision=None):
        return Series(self, coeffs, precision)

    def constant(self, c):
        return Series(self, {0: c} if not self.coeff.is_zero(c) else {}, None,
                      _validate=False)

    def monomial(self, e, c=None):
        c = self.coeff.one if c is None else c
        return self.series({e: c})

    @property
    def variable(self):
        return Series(self, {1: self.coeff.one}, None, _validate=False)

    def from_int(self, n):
        return self.constant(self.coeff.from_int(n))

    # -- Domain protocol ---------------------------------------------------
    # The series operators themselves, without a wrapper frame: a tower
    # calls them once per coefficient product.

    add, neg, sub, mul, pow = operator.add, operator.neg, operator.sub, operator.mul, operator.pow
    eq = staticmethod(Series.agrees_to_precision)
    is_zero = staticmethod(Series.is_exact_zero)
    is_known_zero = staticmethod(Series.is_known_zero)

    def invert(self, a):
        return a.invert()

    # -- q-th powers and roots ------------------------------------------

    def is_qth_power(self, s, q):
        """Decide q-th power membership in the Laurent/Hahn field.

        Uses the henselian criterion: valuation in q*Gamma and angular
        component a q-th power in the coefficient field.  Requires q
        different from the characteristic and a known valuation.
        """
        if q == self.characteristic:
            raise CycdivError("q-th power test needs q invertible in the field")
        v = s.valuation()
        if v == INFINITY:
            return True
        if not self.group.contains_q_multiple(v, q):
            return False
        return self.coeff.is_qth_power(s.angular_component(), q)

    def qth_root(self, s, q, target_precision=None):
        v = s.valuation()
        if v == INFINITY:
            return self.zero
        if not self.group.contains_q_multiple(v, q):
            raise CycdivError(f"valuation {v} is not in {q}*Gamma: no {q}-th root")
        unit = s.shift(-v)
        root = hensel_qth_root(unit, q, target_precision)
        return root.shift(Fraction(v, q))

    # -- randomized sampling ------------------------------------------------

    def drawer(self, rng, n_terms=3, exp_lo=-3, exp_hi=8, precision=None,
               nonzero=False, unit=False, **coeff_opts):
        """A function of no arguments that draws one seeded random series
        with sparse support; ``random_element`` makes one such draw.

        ``unit`` forces valuation 0; ``nonzero`` forces nonempty support.
        In Z[1/p] mode exponents may pick up p-power denominators.  The
        draws are those of ``rng.randint`` (see the module docstring).  The
        options, the spans and the coefficient domain's own drawer are set
        up here, once; an empty range raises ``ValueError`` when the
        function is called, at the draw where ``randint`` would.
        """
        below, cd, p = rng._randbelow, self.coeff, self.group.p
        k_lo = 1 if (nonzero or unit) else 0
        k_span, e_span = n_terms - k_lo + 1, exp_hi - exp_lo + 1
        kind = None if coeff_opts else type(cd)
        if kind is PrimeField:
            def coeff(p1=cd.p - 1):
                return below(p1) + 1
        elif kind is RationalField:  # a reduced (numerator, denominator) pair
            coeff = functools.partial(_random_rational, below, True)
        else:
            coeff = cd.drawer(rng, nonzero=True, **coeff_opts)

        def draw():
            if k_span <= 0:
                raise ValueError(f"empty range for randrange() ({k_lo}, {n_terms + 1}, {k_span})")
            while True:
                coeffs = {}
                k = k_lo + below(k_span)
                if k and e_span <= 0:
                    raise ValueError(
                        f"empty range for randrange() ({exp_lo}, {exp_hi + 1}, {e_span})")
                for _ in range(k):
                    e = exp_lo + below(e_span)
                    if p is not None and rng.random() < 0.4:
                        e = _norm_exp(Fraction(e, p ** (below(2) + 1)))
                    coeffs[e] = coeff()
                if unit:
                    coeffs = {e: c for e, c in coeffs.items() if e > 0}
                    coeffs[0] = coeff()
                if precision is not None:
                    coeffs = {e: c for e, c in coeffs.items() if e < precision}
                if nonzero and not coeffs:
                    continue
                if kind is RationalField:  # the content form, over the lcm of the denominators
                    den = math.lcm(*[d for _, d in coeffs.values()])
                    return _stored(self, {e: n * (den // d) for e, (n, d) in coeffs.items()},
                                   den, precision)
                if kind is PrimeField or kind is SeriesDomain:  # the stored form already
                    return _stored(self, coeffs, 1, precision)
                return Series(self, coeffs, precision, _validate=False)
        return draw

    def random_element(self, rng, **opts):
        """One draw of :meth:`drawer`."""
        return self.drawer(rng, **opts)()

    # -- text format ------------------------------------------------------

    def to_str(self, s):
        nested = isinstance(self.coeff, SeriesDomain)
        parts = []
        coeffs = s.coeffs
        for e in sorted(coeffs):
            cs = self.coeff.to_str(coeffs[e])
            if nested:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(_exp_str(self.var, e))
            else:
                parts.append(f"{cs}*{_exp_str(self.var, e)}")
        if s.precision is not None:
            parts.append(f"O({_exp_str(self.var, s.precision)})")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            if p.startswith("-") and not nested:
                text += " - " + p[1:]
            else:
                text += " + " + p
        return text

    def parse(self, text):
        """Parse the textual format, e.g. ``3*t^(-1) + 2 + 5*t^(3/7) + O(t^5)``.

        Malformed text raises :class:`CycdivError`.  Of several O-terms the
        smallest bound holds.
        """
        if not text.strip():
            raise CycdivError("empty series text")
        if text.rstrip()[-1] in "+-":
            raise CycdivError(f"dangling operator in {text!r}")
        depth = 0
        for ch in text:
            depth += (ch == "(") - (ch == ")")
            if depth < 0:
                break
        if depth:
            raise CycdivError(f"unbalanced parentheses in {text!r}")
        coeffs = {}
        precision = INFINITY
        for sign, term in _split_terms(text):
            if term.startswith("O(") and term.endswith(")"):
                if sign < 0:
                    raise CycdivError("O-term cannot be negated")
                precision = min(precision, self._parse_exp_token(term[2:-1]))
                continue
            e, c = self._parse_term(term)
            if sign < 0:
                c = self.coeff.neg(c)
            if e in coeffs:
                c = self.coeff.add(coeffs[e], c)
            coeffs[e] = c
        return self.series(coeffs, None if precision == INFINITY else precision)

    def _parse_exp_token(self, tok):
        tok = tok.strip()
        if tok == "1":
            return 0
        if tok == self.var:
            return 1
        m = re.fullmatch(re.escape(self.var) + r"\^\(?(-?\d+(?:/\d+)?)\)?", tok)
        if not m or m.group(1).endswith("/0"):
            raise CycdivError(f"cannot parse exponent token {tok!r}")
        return _norm_exp(Fraction(m.group(1)))

    def _parse_term(self, term):
        parts = _split_top(term, "*")
        if len(parts) == 1:
            p = parts[0]
            if p == self.var or p.startswith(self.var + "^"):
                return self._parse_exp_token(p), self.coeff.one
            return 0, self._parse_coeff(p)
        if len(parts) == 2:
            return self._parse_exp_token(parts[1]), self._parse_coeff(parts[0])
        raise CycdivError(f"cannot parse term {term!r}")

    def _parse_coeff(self, text):
        text = text.strip()
        if text.startswith("(") and text.endswith(")") and _matched(text):
            text = text[1:-1]
        return self.coeff.parse(text)


def _matched(text):
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i != len(text) - 1:
                return False
    return depth == 0


def _split_top(text, sep):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def _split_terms(text):
    """Split on top-level + and - into (sign, chunk) pairs.

    A term may carry one leading sign; an operator right after another one
    (``1 + + 2``, ``1 - -t``, ``--3``) raises :class:`CycdivError`.
    """
    text = text.strip()
    out, depth, cur, sign = [], 0, [], 1
    signed = False  # the term being read already has its sign
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-":
            prev = "".join(cur).strip()
            if not prev:
                if signed:
                    raise CycdivError(f"operator follows another operator in {text!r}")
                signed, sign = True, (1 if ch == "+" else -1)
                continue
            if prev[-1] not in "*^/(":
                out.append((sign, prev))
                cur, sign, signed = [], (1 if ch == "+" else -1), True
                continue
        cur.append(ch)
    last = "".join(cur).strip()
    if last:
        out.append((sign, last))
    return out


def hensel_qth_root(s, q, target_precision=None):
    """Newton lift of a q-th root of a valuation-0 series.

    The residue must be a q-th power in the coefficient field and q must be
    invertible (q != characteristic).  The root's residue is the coefficient
    field's canonical q-th root of the residue.
    """
    domain = s.domain
    cd = domain.coeff
    if q == domain.characteristic:
        raise CycdivError("Hensel q-th root needs q invertible (q != characteristic)")
    if s.valuation() != 0:
        raise CycdivError("Hensel q-th root needs a valuation-0 input")
    res = s.residue()
    if not cd.is_qth_power(res, q):
        raise CycdivError(f"residue {cd.to_str(res)} is not a {q}-th power in the residue field")
    if target_precision is None:
        target = domain.default_precision
    else:
        target = _norm_exp(target_precision)
    if s.precision is not None:
        target = min(target, s.precision)
    r0 = cd.qth_root(res, q)
    r = domain.constant(r0)
    # y lifts s^(-1/q) from 1/r0, which is right below the smallest positive
    # exponent of s; then s*y^(q-1) is the q-th root with residue r0.  In a
    # tower 1/r0 is taken as far as the O-term of r0 allows.
    k = min((e for e in s.terms if e > 0), default=INFINITY)
    if k < target:
        inv_q, one = cd.invert(cd.from_int(q)), domain.one
        if isinstance(cd, SeriesDomain) and r0.precision is not None:
            y0 = r0.invert(r0.precision - 2 * r0.valuation())
        else:
            y0 = cd.invert(r0)
        y = _newton_doubling(domain.constant(y0), k, target,
                             lambda y, k: y + (y * (one - s.truncate(k) * y ** q)).scale(inv_q))
        r = s.truncate(target) * y ** (q - 1)
    if not (r ** q - s).truncate(target).is_known_zero():
        raise CycdivError("Hensel lifting did not converge")
    return r.truncate(target)


def _is_exactly(F, a, b):
    """Whether a and b are the same element of F with nothing truncated: at
    each level of a series tower both are EXACT with the same support."""
    if isinstance(F, SeriesDomain):
        return (a.precision is None and b.precision is None
                and a.coeffs.keys() == b.coeffs.keys()
                and all(_is_exactly(F.coeff, c, b.coeffs[e]) for e, c in a.coeffs.items()))
    return isinstance(F, (PrimeField, RationalField)) and F.eq(a, b)


def root_domain(domain):
    """The innermost coefficient domain of a series tower."""
    while isinstance(domain, SeriesDomain):
        domain = domain.coeff
    return domain


def is_square_in_tower(s):
    """Exact squareness in the fraction field of a Q-rooted series tower.

    Rejects truncated input: squareness is not stable under truncation.
    """
    if not isinstance(s.domain, SeriesDomain):
        raise CycdivError("expected a series tower element")
    if not isinstance(root_domain(s.domain), RationalField):
        raise CycdivError("square test is implemented for Q-rooted towers")
    if not s.is_exact:
        raise PrecisionError("square test requires an EXACT series")
    if s.is_exact_zero():
        return True
    return s.domain.is_qth_power(s, 2)


def laurent(coeff, var="t", default_precision=20):
    """Laurent series field coeff((var)) with value group Z."""
    return SeriesDomain(coeff, var, ValueGroup(), default_precision)


def hahn(coeff, var, p, default_precision=20):
    """Hahn-type field coeff((var^Gamma)) with Gamma = Z[1/p]."""
    return SeriesDomain(coeff, var, ValueGroup(p), default_precision)
