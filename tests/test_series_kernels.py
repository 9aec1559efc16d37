"""The fast series kernels against the loops they replaced.

``ref_mul``, ``ref_add``, ``ref_invert`` and ``ref_hensel`` are the
schoolbook product, the term-by-term sum, the full-precision Newton inverse
and the Hensel loop that served every domain before the packed product, the
known-zero shortcuts and the precision-doubling iterations existed.  The
kernels must give structurally identical results: the same coefficients,
the same precision and, in towers, the same inner O-terms.  The exception
is inversion and Hensel roots over a tower, where the doubling driver and
the full-precision loops carry inner O-terms along other paths: there the
results agree on every coefficient both know, and
``test_tower_results_are_sound`` checks what the driver claims.
``ref_neg``, ``ref_scale``, ``ref_truncate`` and ``ref_agrees`` are the
Fraction-per-coefficient loops that served Q series before the content form.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cycdiv import INFINITY, PrimeField, QQ, Series, SeriesDomain, hahn, hensel_qth_root, laurent
from cycdiv.errors import CycdivError, PrecisionError
from cycdiv.verify import albert_setup, hahn_tower_context

# -- references ---------------------------------------------------------------


def ref_mul(a, b):
    """Schoolbook product with the precision rule min(pa + v(b), pb + v(a))."""
    a._check_domain(b)
    pa = INFINITY if a.precision is None else a.precision
    pb = INFINITY if b.precision is None else b.precision
    if pa == pb == INFINITY:
        prec = INFINITY
    else:
        prec = min(pa + b.valuation_lower_bound(), pb + a.valuation_lower_bound())
    cd = a.domain.coeff
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if e >= prec:
                continue
            p = cd.mul(c1, c2)
            out[e] = cd.add(out[e], p) if e in out else p
    out = {e: c for e, c in out.items() if not cd.is_zero(c)}
    return Series(a.domain, out, None if prec == INFINITY else prec, _validate=False)


def ref_pow(s, n):
    acc = s.domain.one
    base = s
    while n:
        if n & 1:
            acc = ref_mul(acc, base)
        base = ref_mul(base, base) if n > 1 else base
        n >>= 1
    return acc


def ref_invert(s, target_precision=None):
    """Newton x <- x(2 - s*x), every step at the full target precision."""
    v = s.valuation()
    if v == INFINITY:
        raise ZeroDivisionError("inverse of the zero series")
    domain = s.domain
    lead_inv = domain.coeff.invert(s.coeffs[v])
    if isinstance(domain.coeff, SeriesDomain) and lead_inv.is_known_zero():
        raise PrecisionError("the inverse of the leading coefficient is known to no term")
    if s.precision is None and len(s.coeffs) == 1:
        return Series(domain, {-v: lead_inv}, None, _validate=False)
    achievable = INFINITY if s.precision is None else s.precision - 2 * v
    if target_precision is None:
        target = min(domain.default_precision, achievable)
    else:
        target = target_precision
        if target > achievable:
            raise PrecisionError("insufficient input precision")
    x = Series(domain, {-v: lead_inv}, None, _validate=False)
    two = domain.from_int(2)
    for _ in range(200):
        if (ref_mul(s, x) - domain.one).truncate(target + v).is_known_zero():
            return x.truncate(target)
        x = ref_mul(x, two - ref_mul(s, x)).truncate(target)
    raise CycdivError("series inversion did not converge")


def ref_hensel(s, q, target_precision=None):
    """Newton r <- r - (r^q - s)/(q r^(q-1)), a full inverse per step."""
    domain = s.domain
    cd = domain.coeff
    if q == domain.characteristic or s.valuation() != 0:
        raise CycdivError("Hensel q-th root needs q invertible and a unit")
    res = s.residue()
    if not cd.is_qth_power(res, q):
        raise CycdivError("residue is not a q-th power")
    target = domain.default_precision if target_precision is None else target_precision
    if s.precision is not None:
        target = min(target, s.precision)
    r = domain.constant(cd.qth_root(res, q))
    for _ in range(200):
        err = (ref_pow(r, q) - s).truncate(target)
        if err.is_known_zero():
            return r.truncate(target)
        denom = ref_pow(r, q - 1).scale(cd.from_int(q))
        r = (r - ref_mul(err, ref_invert(denom, target))).truncate(target)
    raise CycdivError("Hensel lifting did not converge")


def ref_add(a, b, subtract=False):
    """a + b, or a - b, term by term, at the precision min(pa, pb)."""
    a._check_domain(b)
    pa = INFINITY if a.precision is None else a.precision
    pb = INFINITY if b.precision is None else b.precision
    prec = min(pa, pb)
    cd = a.domain.coeff
    op = cd.sub if subtract else cd.add
    out = dict(a.coeffs)
    for e, c in b.coeffs.items():
        if e in out:
            s = op(out[e], c)
            if cd.is_zero(s):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = cd.neg(c) if subtract else c
    if prec != INFINITY:
        out = {e: c for e, c in out.items() if e < prec}
    return Series(a.domain, out, None if prec == INFINITY else prec, _validate=False)


def ref_neg(a):
    cd = a.domain.coeff
    return Series(a.domain, {e: cd.neg(c) for e, c in a.coeffs.items()}, a.precision,
                  _validate=False)


def ref_scale(a, c):
    cd = a.domain.coeff
    out = {e: cd.mul(c, x) for e, x in a.coeffs.items()}
    return Series(a.domain, {e: x for e, x in out.items() if not cd.is_zero(x)},
                  a.precision, _validate=False)


def ref_truncate(a, prec):
    if a.precision is not None and a.precision <= prec:
        return a
    return Series(a.domain, {e: c for e, c in a.coeffs.items() if e < prec}, prec,
                  _validate=False)


def ref_agrees(a, b):
    """Coefficient by coefficient below the joint precision."""
    joint = min(INFINITY if s.precision is None else s.precision for s in (a, b))
    cd = a.domain.coeff
    return all(cd.eq(a.coeffs.get(e, cd.zero), b.coeffs.get(e, cd.zero))
               for e in set(a.coeffs) | set(b.coeffs) if e < joint)


def identical(a, b):
    """Same precision, support and coefficients, recursively through towers
    (``==`` compares series coefficients only where both are known)."""
    if a.precision != b.precision or set(a.coeffs) != set(b.coeffs):
        return False
    for e, c in a.coeffs.items():
        d = b.coeffs[e]
        if isinstance(c, Series):
            if not identical(c, d):
                return False
        elif not a.domain.coeff.eq(c, d):
            return False
    return True


def outcome(fn, *args):
    """The result of fn(*args), or the class of the library error it raised."""
    try:
        return fn(*args)
    except (CycdivError, ZeroDivisionError) as exc:
        return type(exc)


def same_outcome(got, want):
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    return identical(got, want)


def agreeing_outcome(got, want):
    """``got`` fails only where ``want`` fails, with the same error; where
    both return, they agree on every coefficient both know, at every level of
    a tower (``agrees_to_precision`` recurses through it).  Where only the
    reference fails, ``test_tower_results_are_sound`` checks ``got``."""
    if isinstance(got, type):
        return got is want
    return isinstance(want, type) or got.agrees_to_precision(want)


# -- inputs -------------------------------------------------------------------

F7, F11 = PrimeField(7), PrimeField(11)
LAURENT = {7: laurent(F7, "t", 30), 11: laurent(F11, "t", 30)}
QTH = {7: (2, 3), 11: (2, 5)}  # root degrees q, prime to p, taken over F_7 and F_11


@st.composite
def laurent_series(draw, unit=False):
    """Dense or sparse-wide supports, exact or truncated, over F_7 or F_11,
    with valuations down to -10 (0 for units)."""
    p = draw(st.sampled_from([7, 11]))
    R = LAURENT[p]
    lo = 0 if unit else draw(st.integers(-10, 10))
    if draw(st.booleans()):  # dense: every exponent in a run, a few zeros
        n = draw(st.integers(1, 45))
        coeffs = {lo + i: draw(st.integers(0, p - 1)) for i in range(n)}
    else:  # sparse-wide: a few terms spread over thousands of exponents
        exps = draw(st.lists(st.integers(lo, lo + 3000), min_size=1, max_size=8))
        coeffs = {e: draw(st.integers(1, p - 1)) for e in exps}
    coeffs[lo] = draw(st.integers(1, p - 1))
    precision = None
    if draw(st.booleans()):
        precision = max(coeffs) + draw(st.integers(-5, 25))
        if unit:
            precision = max(precision, 1)
    return R.series(coeffs, precision)


TARGETS = st.one_of(st.none(), st.integers(-3, 40))


# -- products -----------------------------------------------------------------


@given(laurent_series(), laurent_series())
@settings(max_examples=200, deadline=None)
def test_mul_matches_schoolbook(a, b):
    if a.domain != b.domain:
        b = a.domain.series(b.coeffs, b.precision)
    assert identical(a * b, ref_mul(a, b))


H7_WIDE = hahn(F7, "t", 7, 30)
RQ_WIDE = laurent(QQ, "X", 30)
_, QXY, _, _, _ = albert_setup(precision=8)
RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@st.composite
def field_series(draw, domain, max_terms=8):
    """Exact or truncated series over F_7 or Q; Hahn domains add exponents
    with denominators 7 and 49."""
    exps = st.integers(-12, 40)
    if domain.group.p is not None:
        exps = st.one_of(exps, st.builds(Fraction, st.integers(-84, 280), st.sampled_from([7, 49])))
    coeffs = st.integers(1, 6) if domain.coeff is F7 else RATIONALS
    return domain.series(draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms)),
                         draw(st.one_of(st.none(), st.integers(-12, 45))))


@st.composite
def tower_series(draw):
    """Series in Y over Q((X)), outer and inner precisions exact or finite."""
    coeffs = draw(st.dictionaries(st.integers(-4, 8), field_series(QXY.coeff, 3),
                                  min_size=1, max_size=4))
    return QXY.series(coeffs, draw(st.one_of(st.none(), st.integers(-4, 10))))


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_single_term_operands_match_schoolbook(data):
    kind = data.draw(st.sampled_from(["laurent", "hahn", "q", "tower"]))
    if kind == "laurent":
        a, b = data.draw(laurent_series()), data.draw(laurent_series())
        b = a.domain.series(b.coeffs, b.precision)
    elif kind == "tower":
        a, b = data.draw(tower_series()), data.draw(tower_series())
    else:
        domain = H7_WIDE if kind == "hahn" else RQ_WIDE
        a, b = data.draw(field_series(domain)), data.draw(field_series(domain))
    # one term of b, exact or at b's precision
    e = data.draw(st.sampled_from(sorted(b.coeffs))) if b.coeffs else 0
    m = b.domain.series({e: b.coeffs.get(e, b.domain.coeff.one)},
                        data.draw(st.sampled_from([None, b.precision])))
    for x, y in ((m, a), (a, m), (m, m), (a, b)):
        assert identical(x * y, ref_mul(x, y))
        assert identical(x - y, x + (-y))


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_known_zero_operands_match_references(data):
    """An exact zero or an O(t^k) with no known terms, on either side of
    ``*``, ``+`` and ``-``: same coefficients and precision as the loops."""
    kind = data.draw(st.sampled_from(["laurent", "hahn", "q", "tower"]))
    if kind == "laurent":
        a = data.draw(laurent_series())
    elif kind == "tower":
        a = data.draw(tower_series())
    else:
        a = data.draw(field_series(H7_WIDE if kind == "hahn" else RQ_WIDE))
    bounds = st.integers(-12, 45)
    if kind == "hahn":
        bounds = st.one_of(bounds, st.builds(Fraction, st.integers(-84, 315), st.sampled_from([7, 49])))
    z = a.domain.series({}, data.draw(st.one_of(st.none(), bounds)))
    for x, y in ((a, z), (z, a), (z, z)):
        assert identical(x * y, ref_mul(x, y))
        assert identical(x + y, ref_add(x, y))
        assert identical(x - y, ref_add(x, y, subtract=True))
    if z.precision is None or (a.precision is not None and a.precision <= z.precision):
        assert a + z is a and a - z is a


def test_dense_operands_are_packed_and_sparse_ones_are_not():
    """The F_p kernel keeps (low, span, {slot width: pack}) on each operand
    it has laid out: a dense one gets a pack, a wide sparse one none."""
    R = LAURENT[7]
    dense = R.series({e: 1 + e % 6 for e in range(30)}, 30)
    assert identical(dense * dense, ref_mul(dense, dense))
    assert dense._packs[:2] == (0, 30) and list(dense._packs[2]) == [2]
    wide = R.series({1750 * i: 3 for i in range(8)})
    assert identical(wide * wide, ref_mul(wide, wide))
    assert wide._packs == (0, 12251, {})


def test_packed_product_reduces_unreduced_coefficients():
    R = LAURENT[11]
    a = R.series({e: 11 * e - 3 for e in range(1, 25)})  # ints outside [0, 11)
    b = R.series({e: 10 for e in range(-4, 20)}, 20)
    assert identical(a * b, ref_mul(a, b))
    assert all(0 <= c < 11 for c in (a * b).coeffs.values())


# -- inversion ----------------------------------------------------------------


@given(laurent_series(), TARGETS)
@settings(max_examples=150, deadline=None)
def test_invert_matches_full_newton(s, target):
    assert same_outcome(outcome(s.invert, target), outcome(ref_invert, s, target))


@given(st.dictionaries(st.integers(-3, 12),
                       st.fractions(min_value=-4, max_value=4, max_denominator=5),
                       min_size=1, max_size=5),
       st.one_of(st.none(), st.integers(0, 14)), st.one_of(st.none(), st.integers(-2, 10)))
@settings(max_examples=60, deadline=None)
def test_invert_matches_full_newton_over_q(coeffs, precision, target):
    RQ = laurent(QQ, "X", 10)
    s = RQ.series(coeffs, precision)
    if s.is_known_zero():
        return
    assert same_outcome(outcome(s.invert, target), outcome(ref_invert, s, target))


def test_invert_precision_budget_still_fires():
    R = LAURENT[7]
    s = R.series({1: 1, 2: 1}, precision=6)  # v = 1: achievable 6 - 2 = 4
    for fn in (s.invert, lambda t: ref_invert(s, t)):
        with pytest.raises(PrecisionError):
            fn(5)
    assert identical(s.invert(4), ref_invert(s, 4))


class WrongInverseField(PrimeField):
    """F_p whose inverse is off by one: Newton cannot converge from it."""

    def invert(self, a):
        return (super().invert(a) + 1) % self.p


class WrongRootField(PrimeField):
    """F_p whose q-th root is off by one: not a root of the residue."""

    def qth_root(self, x, q):
        return (super().qth_root(x, q) + 1) % self.p


def test_invert_convergence_error_still_fires():
    R = laurent(WrongInverseField(7), "t", 8)
    s = R.parse("3 + t + 5*t^2")
    with pytest.raises(CycdivError, match="did not converge"):
        s.invert()
    with pytest.raises(CycdivError, match="did not converge"):
        ref_invert(s)


def test_hensel_convergence_error_still_fires():
    # the full Newton loop corrects a wrong residue root to another cube root
    # of 6 mod 7; the inverse-root iteration keeps it and its check fires
    R = laurent(WrongRootField(7), "t", 8)
    with pytest.raises(CycdivError, match="did not converge"):
        hensel_qth_root(R.parse("6 + t + 2*t^3"), 3)


# -- Hensel roots -------------------------------------------------------------


@given(laurent_series(unit=True), st.data())
@settings(max_examples=120, deadline=None)
def test_hensel_matches_full_newton(s, data):
    p = s.domain.coeff.p
    q = data.draw(st.sampled_from(QTH[p]))
    residue = pow(data.draw(st.integers(1, p - 1)), q, p)  # a q-th power
    s = s.domain.series({**s.coeffs, 0: residue}, s.precision)
    target = data.draw(TARGETS)
    assert same_outcome(outcome(hensel_qth_root, s, q, target),
                        outcome(ref_hensel, s, q, target))


def test_hensel_at_precision_400():
    R = laurent(F7, "t", 400)
    s = R.series({e: (3 * e * e + 1) % 7 for e in range(400)}, 400)
    s = s + R.from_int(6 - s.coeffs[0])
    r = hensel_qth_root(s, 3, 400)
    assert r.precision == 400 and r.coeffs[0] == F7.qth_root(6, 3)
    assert (r ** 3).agrees_to_precision(s)


# -- Hahn exponents -------------------------------------------------------------

H7 = hahn(F7, "t", 7, 6)


@given(st.dictionaries(st.integers(1, 40).map(lambda k: Fraction(k, 7)),
                       st.integers(1, 6), max_size=5),
       st.integers(1, 6), st.one_of(st.none(), st.integers(1, 6)))
@settings(max_examples=30, deadline=None)
def test_hahn_kernels_match_references(tail, lead, target):
    s = H7.series({**tail, 0: lead})
    assert identical(s * s, ref_mul(s, s))
    assert same_outcome(outcome(s.invert, target), outcome(ref_invert, s, target))
    s = H7.series({**tail, 0: 6})  # 6 = 3^3 in F_7
    assert same_outcome(outcome(hensel_qth_root, s, 3, target),
                        outcome(ref_hensel, s, 3, target))


# -- Q coefficients in content form ---------------------------------------------

HQ = hahn(QQ, "t", 7, 30)
ALL_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def canonical(s):
    """Whether s, and each series coefficient of it, is in the one stored form:
    over Q nonzero int numerators over den > 0 with gcd(den, *numerators) == 1
    (so den == 1 when nothing is known), over F_p the representatives in
    [1, p) over 1, elsewhere the coefficients over 1."""
    if isinstance(s.domain.coeff, PrimeField):
        return s.den == 1 and all(0 < c < s.domain.coeff.p for c in s.terms.values())
    if s.domain.coeff is not QQ:
        return s.den == 1 and all(canonical(c) for c in s.terms.values() if isinstance(c, Series))
    return (s.den > 0 and all(type(n) is int and n for n in s.terms.values())
            and math.gcd(s.den, *s.terms.values()) == 1)


@st.composite
def q_series_pair(draw):
    """Two series over Q((X)), the Z[1/7] Hahn field over Q, or Q((X))((Y)),
    exact or truncated, with valuations down to -12 (-4 in towers)."""
    kind = draw(st.sampled_from(["laurent", "hahn", "tower"]))
    if kind == "tower":
        return draw(tower_series()), draw(tower_series())
    domain = HQ if kind == "hahn" else RQ_WIDE
    return draw(field_series(domain)), draw(field_series(domain))


def coefficient(draw, domain):
    return draw(ALL_RATIONALS) if domain.coeff is QQ else draw(field_series(domain.coeff, 3))


@given(q_series_pair(), st.data())
@settings(max_examples=200, deadline=None)
def test_content_form_matches_fraction_references(pair, data):
    a, b = pair
    c = coefficient(data.draw, a.domain)
    k = data.draw(st.integers(-12, 45))
    for got, want in ((a * b, ref_mul(a, b)), (b * a, ref_mul(b, a)),
                      (a + b, ref_add(a, b)), (a - b, ref_add(a, b, subtract=True)),
                      (-a, ref_neg(a)), (a.scale(c), ref_scale(a, c)),
                      (a.truncate(k), ref_truncate(a, k))):
        assert canonical(got) and identical(got, want)
    assert a.agrees_to_precision(b) == ref_agrees(a, b)
    if a.domain.coeff is QQ:  # in towers == compares inner coefficients where known
        assert (a == b) == identical(a, b)


@given(q_series_pair(), st.integers(-12, 45), st.data())
@settings(max_examples=200, deadline=None)
def test_agreement_reads_only_jointly_known_coefficients(pair, k, data):
    """a truncated at k against a's head plus another tail from k on: equal
    where both are known, usually over different denominators; then one
    coefficient changed below the joint precision."""
    a, _ = pair
    domain = a.domain
    head = {e: c for e, c in a.coeffs.items() if e < k}
    tail = {e: coefficient(data.draw, domain)
            for e in data.draw(st.lists(st.integers(k, k + 20), max_size=4))}
    b = domain.series({**head, **tail})
    t = a.truncate(k)
    assert canonical(t) and canonical(b)
    assert t.agrees_to_precision(b) and b.agrees_to_precision(t) and ref_agrees(t, b)
    joint = k if a.precision is None else min(k, a.precision)
    if domain.coeff is QQ and joint > -12:
        e = data.draw(st.integers(-12, joint - 1))
        changed = b + domain.monomial(e, data.draw(RATIONALS))
        assert not t.agrees_to_precision(changed) and not changed.agrees_to_precision(t)
        assert not ref_agrees(t, changed)


def test_every_construction_route_is_canonical():
    RQ = laurent(QQ, "X", 10)
    s = Series(RQ, {0: Fraction(1, 2), 1: Fraction(1, 3), 4: Fraction(-5, 6)})
    assert (s.terms, s.den) == ({0: 3, 1: 2, 4: -5}, 6)
    assert s.coeffs == {0: Fraction(1, 2), 1: Fraction(1, 3), 4: Fraction(-5, 6)}
    t = s.truncate(2)
    assert (t.terms, t.den, t.precision) == ({0: 3, 1: 2}, 6, 2)
    u = s.truncate(1)
    assert (u.terms, u.den) == ({0: 1}, 2)
    assert ((s + (-s)).terms, (s + (-s)).den) == ({}, 1)
    rng = random.Random(11)
    built = [
        s, t, u, s * s, s - s, s.scale(Fraction(6)), s.scale(QQ.zero),
        Series(RQ, {0: Fraction(4, 6), 2: 3}, 5, _validate=False),
        Series(RQ, {}, 4), Series(RQ, {0: Fraction(0), 1: Fraction(2, 4)}, 1),
        RQ.series({1: Fraction(4, 6), 3: Fraction(9, 3)}, 2),
        RQ.parse("1/2 - 3/4*X^2 + 6/8*X^3 + O(X^5)"), RQ.parse("2/4 + O(X^0)"),
        RQ.from_int(6), RQ.constant(Fraction(-9, 6)), RQ.constant(QQ.zero),
        RQ.monomial(3, Fraction(5, 10)), RQ.variable, RQ.zero, RQ.one,
        HQ.parse("1/3*t^(1/7) + 2/9*t^(-2/49)"), QXY.parse("(1/2 + 2/3*X)*Y + (4/6 + O(X^2))"),
        RQ.parse("3/7 + X").invert(), hensel_qth_root(RQ.parse("4/9 + X"), 2),
    ]
    for domain in (RQ, HQ, QXY):
        built += [domain.random_element(rng, precision=rng.choice([None, 2, 5]))
                  for _ in range(30)]
    for x in built:
        assert canonical(x), x
        assert x.domain.parse(str(x)) == x  # the same stored form after printing


def test_every_prime_field_route_is_reduced():
    R = laurent(F7, "t", 10)
    assert R.constant(8).terms == {0: 1}
    assert R.series({0: 8}).residue() == 1
    assert R.series({1: -1}).angular_component() == 6
    assert (R.series({0: 8}) + R.zero).terms == (R.zero + R.series({0: 8})).terms == {0: 1}
    assert R.series({0: 14, 2: 7}, 5).terms == {} and R.constant(21) == R.zero
    rng = random.Random(12)
    s = Series(R, {-1: 15, 0: -3, 2: 7, 3: 22}, 6)
    assert s.terms == {-1: 1, 0: 4, 3: 1}
    built = [
        s, -s, s + R.zero, R.zero + s, s - R.zero, s * R.one, s * s, s.scale(8), s.shift(2),
        s.truncate(1), Series(R, {0: 8, 1: 14, 2: -1}, None, _validate=False),
        Series(R, {}, 3), R.series({-2: 9, 4: 70}), R.parse("8 + 13*t^2 - t^3 + O(t^4)"),
        R.constant(-6), R.from_int(50), R.monomial(3, 10), R.monomial(1), R.variable,
        R.zero, R.one, R.series({0: 8}).invert(), hensel_qth_root(R.series({0: 8, 1: 9}), 2),
    ]
    tower = TOWERS["F_7((x))((t))"]
    built += [tower.series({0: tower.coeff.series({0: 8, 1: -1}), 2: tower.coeff.constant(9)}),
              tower.constant(tower.coeff.constant(15)), tower.parse("(8 + 9*x) + (-1)*t")]
    built += [domain.random_element(rng, precision=rng.choice([None, 2, 5]))
              for domain in (R, tower, TOWERS["F_7((x^G))((t^G))"]) for _ in range(20)]
    for x in built:
        assert canonical(x), x
        assert x.domain.parse(str(x)) == x  # the same stored form after printing


# -- towers: the doubling driver against the full-precision loops ---------------

TOWERS = {
    "Q((X))((Y))": albert_setup(precision=4)[1],
    "F_7((x^G))((t^G))": hahn_tower_context(7, 3, precision=4).F,
    "F_7((x))((t))": laurent(laurent(F7, "x", 4), "t", 4),
}


@st.composite
def small_series(draw, domain, lo=-3, hi=5, min_size=1, described=False):
    """Up to three terms at exponents lo..hi (sevenths too in Z[1/7]), exact
    or truncated below 6; in a tower each coefficient is such a series.
    ``described`` gives the terms and the precision instead of the series."""
    exps = st.integers(lo, hi)
    if domain.group.p is not None:
        exps = st.one_of(exps, st.builds(Fraction, st.integers(7 * lo, 7 * hi), st.just(7)))
    if isinstance(domain.coeff, SeriesDomain):
        coeffs = small_series(domain.coeff)
    else:
        coeffs = RATIONALS if domain.coeff is QQ else st.integers(1, 6)
    terms = draw(st.dictionaries(exps, coeffs, min_size=min_size, max_size=3))
    precision = draw(st.one_of(st.none(), st.integers(lo, 6)))
    return (terms, precision) if described else domain.series(terms, precision)


@given(st.sampled_from(sorted(TOWERS)), st.data())
@settings(max_examples=80, deadline=None)
def test_tower_invert_and_hensel_match_full_newton(name, data):
    """Inner and outer O-terms, negative outer and inner valuations, q = 2 and 3."""
    F = TOWERS[name]
    s = data.draw(small_series(F))
    target = data.draw(st.one_of(st.none(), st.integers(-2, 4)))
    assert agreeing_outcome(outcome(s.invert, target), outcome(ref_invert, s, target))
    q = data.draw(st.sampled_from([2, 3]))
    # a unit whose residue is the q-th power of an inner series
    tail = data.draw(small_series(F, lo=1, hi=3, min_size=0))
    residue = data.draw(small_series(F.coeff)) ** q
    u = F.series({**tail.coeffs, 0: residue}, data.draw(st.one_of(st.none(), st.integers(1, 4))))
    target = data.draw(st.one_of(st.none(), st.integers(-1, 4)))
    assert agreeing_outcome(outcome(hensel_qth_root, u, q, target),
                            outcome(ref_hensel, u, q, target))


def test_tower_results_the_doubling_steps_would_change():
    """Two tower results the doubling driver prints otherwise than the old
    full-precision loops, which dropped coefficients known to no inner term.

    The inverse: 1/(4*x^(-2) + 4*x^7) is known below x^4 only, 2*x^2 +
    O(x^4), so each coefficient of the inverse is known two inner exponents
    past its lowest term.  At t^4 the terms that come through
    (4*x^2)*t^(20/7) start at x^30 and cancel, which leaves O(x^32); without
    that input term the driver prints 2*x^62 + O(x^64) there.  The old loop
    dropped the O-term and printed 2*x^62 + O(x^64).  That value is right,
    as the inverse at inner precision 40 shows, but a coefficient known to no
    term below x^32 claims nothing about it.

    The cube root: its t^2 coefficient is 3*x^4 exactly.  The root's start
    value 1/r0, r0 = 3*x^(-1) + O(x^3), is taken as far as r0's O-term
    allows, x^(-5), so r2 = 4*x^2 / (3*r0^2) is known to O(x^8); the loop
    knew it to O(x^6)."""
    H = TOWERS["F_7((x^G))((t^G))"]
    text = "(4*x^(-2) + 4*x^7)*t^(2/7) + (6*x^2 + 2*x^5)*t^(4/7) + (4*x^2)*t^(20/7)"
    inverse = H.parse(text).invert(8)
    assert identical(inverse, ref_invert(H.parse(text), 8))
    assert " + (O(x^32))*t^4 + " in repr(inverse)
    H40 = hahn(hahn(F7, "x", 7, 40), "t", 7, 4)
    wide = H40.parse(text).invert(8)
    assert repr(wide.coeffs[4]) == "2*x^62 + 3*x^65 + O(x^68)"
    assert H40.parse(repr(inverse)).agrees_to_precision(wide)
    L = TOWERS["F_7((x))((t))"]
    s = L.parse("(6*x^(-3)) + (4*x^2)*t^2")
    root = hensel_qth_root(s, 3)
    assert repr(root) == "(3*x^(-1) + O(x^3)) + (3*x^4 + O(x^8))*t^2 + O(t^4)"
    assert repr(ref_hensel(s, 3)) == "(3*x^(-1) + O(x^3)) + (3*x^4 + O(x^6))*t^2 + O(t^4)"
    assert root.agrees_to_precision(ref_hensel(s, 3))


# the towers above with inner precision 16: the filled-in inputs below are
# inverted and rooted there
WIDE_TOWERS = {
    "Q((X))((Y))": laurent(laurent(QQ, "X", 16), "Y", 4),
    "F_7((x^G))((t^G))": hahn(hahn(F7, "x", 7, 16), "t", 7, 4),
    "F_7((x))((t))": laurent(laurent(F7, "x", 16), "t", 4),
}


def exact_element(draw, D):
    """A random EXACT element of D, at every level."""
    if not isinstance(D, SeriesDomain):
        return draw(RATIONALS if D is QQ else st.integers(1, 6))
    return D.series({e: exact_element(draw, D.coeff)
                     for e in draw(st.lists(st.integers(-2, 4), max_size=2))})


def filled(draw, terms, precision, W):
    """An EXACT element of W that ``terms`` (exponent -> coefficient) and
    ``precision`` stand for: each O-term, at every level, filled with up to
    three random terms from its bound on."""
    terms = {e: filled(draw, c.coeffs, c.precision, W.coeff) if isinstance(c, Series) else c
             for e, c in terms.items()}
    if precision is not None:
        steps = st.integers(0, 3) if W.group.p is None else st.integers(0, 21).map(
            lambda k: Fraction(k, 7))
        for e in draw(st.lists(steps.map(lambda k: precision + k), max_size=3)):
            c = exact_element(draw, W.coeff)
            terms[e] = W.coeff.add(terms[e], c) if e in terms else c
    return W.series(terms)


@given(st.sampled_from(sorted(TOWERS)), st.data())
@settings(max_examples=60, deadline=None)
def test_tower_results_are_sound(name, data):
    """Every coefficient that ``invert`` or ``hensel_qth_root`` claims for a
    truncated tower input holds for each input it stands for: the result for
    a filled-in input, at inner precision 16, agrees with it wherever both
    are known."""
    F, W = TOWERS[name], WIDE_TOWERS[name]
    terms, precision = data.draw(small_series(F, described=True))
    target = data.draw(st.one_of(st.none(), st.integers(-2, 4)))
    got = outcome(F.series(terms, precision).invert, target)
    if not isinstance(got, type):
        want = filled(data.draw, terms, precision, W).invert(target)
        assert W.parse(repr(got)).agrees_to_precision(want)
    q = data.draw(st.sampled_from([2, 3]))
    terms, _ = data.draw(small_series(F, lo=1, hi=3, min_size=0, described=True))
    terms[0] = data.draw(small_series(F.coeff)) ** q
    precision = data.draw(st.one_of(st.none(), st.integers(1, 4)))
    target = data.draw(st.one_of(st.none(), st.integers(-1, 4)))
    got = outcome(hensel_qth_root, F.series(terms, precision), q, target)
    if not isinstance(got, type):
        want = hensel_qth_root(filled(data.draw, terms, precision, W), q, target)
        assert W.parse(repr(got)).agrees_to_precision(want)


# the cube root of TOWER_CUBE at precision 4, as the full-precision Hensel
# loop printed it; the doubling driver prints the same bytes
TOWER_CUBE = "(6 + x) + (1 + x^(1/7))*t^(1/7) + (3)*t^(5/7)"
TOWER_CUBE_ROOT = (Path(__file__).parent / "tower_cube_root_prec4.txt").read_text().rstrip("\n")


def test_tower_cube_root_printed_as_before():
    T = hahn_tower_context(7, 3, precision=4).F
    assert repr(hensel_qth_root(T.parse(TOWER_CUBE), 3)) == TOWER_CUBE_ROOT


# -- tower products, inverses and roots the references give unchanged -----------


def _tower_cases():
    T = hahn_tower_context(7, 3, precision=4).F
    k = T.coeff
    yield T, T.parse("(1 + x^(1/7))*t^(1/7) + (3 + x)"), T.parse("(1 + x)*t^(1/7) + (2 + x)")
    yield T, T.parse("(2)*t^(2/7) + (1 + 3*x^(2/7) + O(x^3))"), T.constant(k.parse("4 + x"))
    _, F, _, _, _ = albert_setup(precision=4)
    yield F, F.parse("(1 + X)*Y + (2 + 3*X^2)"), F.parse("(1 + X)*Y + (4 + X)")
    yield F, F.parse("(X)*Y^2 + (1 + X + O(X^3))"), F.parse("(1 + O(X^2))*Y + (9)")


@pytest.mark.parametrize("case", range(4))
def test_tower_results_unchanged(case):
    F, a, b = list(_tower_cases())[case]
    assert identical(a * b, ref_mul(a, b))
    for target in (None, 2, 4):
        assert same_outcome(outcome(a.invert, target), outcome(ref_invert, a, target))
        assert same_outcome(outcome(hensel_qth_root, b, 2, target),
                            outcome(ref_hensel, b, 2, target))
