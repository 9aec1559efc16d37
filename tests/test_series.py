from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycdiv import (INFINITY, PrimeField, QQ, ValueGroup, hahn, hahn_tower_context,
                    hensel_qth_root, is_square_in_tower, laurent)
from cycdiv.errors import (CycdivError, DomainMismatchError, PrecisionError,
                           ValueGroupError)

F7 = PrimeField(7)
R = laurent(F7, "t", 20)
H = hahn(F7, "x", 7, 6)


# -- value groups ----------------------------------------------------------

def test_value_group_membership():
    Z = ValueGroup()
    assert Z.contains(3) and Z.contains(-2)
    assert not Z.contains(Fraction(1, 7))
    Z7 = ValueGroup(7)
    assert Z7.contains(Fraction(1, 7)) and Z7.contains(Fraction(-3, 49))
    assert not Z7.contains(Fraction(1, 3))


def test_coset_separation():
    Z = ValueGroup()
    assert Z.is_coset_separating(1, 3)
    assert not Z.is_coset_separating(3, 3)
    assert Z.is_coset_separating(2, 3)
    Z7 = ValueGroup(7)
    assert Z7.is_coset_separating(1, 3)
    # Z[1/7] is 7-divisible: nothing separates for q = 7
    assert not Z7.is_coset_separating(1, 7)
    assert not Z7.is_coset_separating(Fraction(3, 49), 7)


def test_contains_q_multiple_rejects_foreign_exponent():
    with pytest.raises(ValueGroupError):
        ValueGroup().contains_q_multiple(Fraction(1, 2), 3)


# -- construction, valuation, residue ---------------------------------------

def test_valuation_and_residue():
    s = R.series({-2: 3, 0: 5, 4: 1})
    assert s.valuation() == -2
    assert s.angular_component() == 3
    assert s.residue() == 0  # off the valuation ring
    u = R.series({0: 5, 4: 1})
    assert u.residue() == 5
    assert R.zero.valuation() == INFINITY


def test_truncated_zero_valuation_raises():
    s = R.series({}, precision=5)
    with pytest.raises(PrecisionError):
        s.valuation()
    assert s.valuation_lower_bound() == 5


def test_residue_precision_guard():
    s = R.series({}, precision=0)
    with pytest.raises(PrecisionError):
        s.residue()
    assert R.series({}, precision=3).residue() == 0


def test_exponent_must_lie_in_group():
    with pytest.raises(ValueGroupError):
        R.series({Fraction(1, 7): 1})
    # fine in the Hahn domain
    assert H.series({Fraction(1, 7): 1}).valuation() == Fraction(1, 7)


# -- arithmetic and precision tracking --------------------------------------

def test_add_precision_is_min():
    a = R.series({0: 1}, precision=5)
    b = R.series({0: 1}, precision=9)
    assert (a + b).precision == 5


def test_mul_precision_rule():
    # prec(a*b) = min(pa + v(b), pb + v(a))
    a = R.series({2: 1}, precision=5)
    b = R.series({3: 1}, precision=10)
    assert (a * b).precision == 8
    exact = R.series({1: 1})
    assert (exact * a).precision == 6


def test_mul_exact_stays_exact():
    a = R.series({0: 1, 1: 6})  # 1 - t
    b = R.series({0: 1, 1: 1})  # 1 + t
    prod = a * b
    assert prod.is_exact
    assert prod == R.series({0: 1, 2: 6})  # 1 - t^2


def test_geometric_inverse():
    inv = R.parse("1 - t").invert(4)
    assert R.to_str(inv) == "1 + t + t^2 + t^3 + O(t^4)"


def test_monomial_inverse_exact():
    m = R.monomial(3, 2)
    inv = m.invert()
    assert inv.is_exact
    assert R.eq(m * inv, R.one)


def test_invert_precision_budget():
    s = R.series({1: 1, 2: 1}, precision=6)  # v = 1, achievable 6 - 2 = 4
    with pytest.raises(PrecisionError):
        s.invert(5)
    inv = s.invert(4)
    assert (s * inv).agrees_to_precision(R.one)


def test_tower_inverse_of_a_leading_coefficient_known_to_no_term():
    """Over F_7((x))((t)) with inner precision 3, 1/(x^-3 + x^-1) is
    x^3 - x^5 + ..., known to no term below O(x^3): a PrecisionError, not
    a Newton loop that does not converge."""
    X = laurent(F7, "x", 3)
    T = laurent(X, "t", 13)
    lead = T.constant(X.parse("x^(-3) + x^(-1)"))
    for s in (lead.truncate(13), lead, lead + T.parse("(1)*t")):
        with pytest.raises(PrecisionError, match="known to no term"):
            s.invert(13)


def test_tower_keeps_inner_o_terms():
    """A coefficient known only to an inner O-term stays stored: it is known
    to no term, but it is no exact zero, and below it the valuation is
    unknown."""
    T = laurent(laurent(F7, "x", 4), "t", 4)
    bare = T.parse("(O(x^3))")
    assert bare.is_known_zero() and not bare.is_exact_zero() and repr(bare) == "(O(x^3))"
    diff = T.parse("(x + O(x^3))") + T.parse("(6*x)")
    assert diff.is_known_zero() and not diff.is_exact_zero() and repr(diff) == "(O(x^3))"
    s = T.parse("(O(x^3))") + T.variable
    assert s != T.variable and repr(s) == "(O(x^3)) + (1)*t"
    with pytest.raises(PrecisionError, match="valuation unknown"):
        s.valuation()
    # below t^0 the residue depends on whether O(x^3) stands for zero
    with pytest.raises(PrecisionError, match="valuation unknown"):
        T.parse("(O(x^3))*t^(-1) + (2)").residue()


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        R.zero.invert()


def test_pow_negative():
    t = R.variable
    assert R.eq(t ** -2, R.monomial(-2))


def test_domain_mismatch():
    other = laurent(PrimeField(11), "t", 20)
    with pytest.raises(DomainMismatchError):
        R.one + other.one


def test_series_not_hashable():
    with pytest.raises(TypeError):
        hash(R.one)


# -- agreement and structural equality ---------------------------------------

def test_agrees_to_precision():
    a = R.series({0: 1, 5: 3}, precision=6)
    b = R.series({0: 1}, precision=4)
    assert a.agrees_to_precision(b)  # the t^5 term is beyond b's knowledge
    c = R.series({0: 2}, precision=4)
    assert not a.agrees_to_precision(c)


@pytest.mark.parametrize("make, text", [
    (lambda: laurent(PrimeField(7), "t", 20), "3 + t^2 + 6*t^(-1) + O(t^5)"),
    (lambda: laurent(QQ, "t", 20), "1/2 + 3/4*t + O(t^6)"),
    (lambda: laurent(laurent(QQ, "X"), "Y"),
     "(1/2 + X + O(X^3)) + (2/3*X^(-1))*Y + O(Y^4)"),
    (lambda: hahn_tower_context(7, 3, precision=4).F,
     "(1 + x^(1/7)) + (3*x + O(x^2))*t^(1/7) + (2)*t"),
], ids=["F_7((t))", "Q((t))", "Q((X))((Y))", "hahn tower"])
def test_identical_stored_forms_agree_at_once(make, text, monkeypatch):
    """Two separately built series with the same stored form agree without
    comparing a single coefficient."""
    domain = make()
    a, b = domain.parse(text), domain.parse(text)
    assert a is not b and a.terms is not b.terms and a == b

    def no_coefficient_comparisons(x, y):
        raise AssertionError("compared coefficient by coefficient")

    monkeypatch.setattr(domain.coeff, "eq", no_coefficient_comparisons)
    assert a.agrees_to_precision(b) and b.agrees_to_precision(a)


def test_different_stored_forms_take_the_general_path():
    a, b = R.parse("1 + O(t^3)"), R.parse("1 + t^5 + O(t^6)")
    assert a.agrees_to_precision(b) and b.agrees_to_precision(a)
    assert a != b  # structural equality sees the different precisions
    T = laurent(laurent(F7, "x", 4), "t", 4)
    c, d = T.parse("(1) + (O(x^3))*t"), T.parse("(1)")
    assert c.agrees_to_precision(d) and d.agrees_to_precision(c) and c != d
    # == is structural at every level: inner coefficients that only agree differ
    e, f = T.parse("(1 + O(x^3))"), T.parse("(1 + x^5 + O(x^6))")
    assert e.agrees_to_precision(f) and e != f
    assert not R.parse("t").agrees_to_precision(R.parse("t + t^5"))
    assert not T.parse("(x)").agrees_to_precision(T.parse("(x) + (1)*t^3"))


# -- Hensel lifting -----------------------------------------------------------

def test_hensel_cube_root():
    s = R.parse("1 + t")
    r = hensel_qth_root(s, 3, 6)
    assert R.to_str(r).startswith("1 + 5*t")
    assert (r ** 3).agrees_to_precision(s)


def test_hensel_needs_unit():
    with pytest.raises(CycdivError):
        hensel_qth_root(R.variable, 3)


def test_hensel_rejects_non_power_residue():
    with pytest.raises(CycdivError):
        hensel_qth_root(R.from_int(2), 3)  # 2 is not a cube mod 7


def test_hensel_rejects_q_equal_characteristic():
    with pytest.raises(CycdivError):
        hensel_qth_root(R.parse("1 + t"), 7)


def test_qth_root_with_shift():
    s = R.series({3: 1, 4: 1})  # t^3 (1 + t)
    r = R.qth_root(s, 3, 6)
    assert (r ** 3).agrees_to_precision(s)
    assert r.valuation() == 1


def test_hahn_fractional_root():
    s = H.series({1: 1})  # x, and 1/3 is not in Z[1/7]
    with pytest.raises(CycdivError):
        H.qth_root(s, 3)
    # 7th roots do exist in Z[1/7] exponents, but need q != characteristic
    H3 = hahn(PrimeField(3), "x", 7, 6)
    r = H3.qth_root(H3.series({1: 1}), 7, 2)
    assert r.valuation() == Fraction(1, 7)
    assert (r ** 7).agrees_to_precision(H3.series({1: 1}))


# -- q-th power predicates ----------------------------------------------------

def test_is_qth_power_series():
    assert R.is_qth_power(R.from_int(6), 3)          # 6 = 3^3 in F_7
    assert not R.is_qth_power(R.from_int(2), 3)      # 2 is not a cube
    assert not R.is_qth_power(R.variable, 3)          # v(t) = 1 not in 3Z
    assert R.is_qth_power(R.monomial(3, 6), 3)
    with pytest.raises(CycdivError):
        R.is_qth_power(R.one, 7)                      # q = characteristic


def test_square_test_over_q():
    RQ = laurent(QQ, "X", 20)
    one, x = RQ.one, RQ.variable
    assert is_square_in_tower((one + x) * (one + x))
    assert not is_square_in_tower(RQ.from_int(2) + RQ.from_int(2) * x * x)
    assert is_square_in_tower(RQ.from_int(4))
    with pytest.raises(PrecisionError):
        is_square_in_tower(RQ.one.truncate(5))


# -- parse / print ------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "0", "1", "6*t^3", "t^-2 + 3*t + 5*t^10", "1 + 5*t + O(t^6)",
    "3 - t", "t", "-3 + t", "- t^2 - 1", "+2*t",
])
def test_parse_roundtrip(text):
    s = R.parse(text)
    again = R.parse(R.to_str(s))
    assert s == again


def test_parse_fractional_exponent():
    s = H.parse("2*x^(1/7) + 3*x")
    assert s.valuation() == Fraction(1, 7)
    assert s == H.parse(H.to_str(s))


def test_parse_nested_tower():
    k = laurent(F7, "x", 6)
    T = laurent(k, "t", 6)
    s = T.parse("(1 + x)*t^2 + (3)")
    assert s.valuation() == 0
    assert T.parse(T.to_str(s)).agrees_to_precision(s)


# -- property-based checks ----------------------------------------------------

coeff7 = st.integers(min_value=0, max_value=6)
exps = st.integers(min_value=-4, max_value=8)
series7 = st.dictionaries(exps, coeff7, max_size=4).map(lambda d: R.series(d))


@given(series7, series7, series7)
@settings(max_examples=60)
def test_mul_distributes(a, b, c):
    assert R.eq(a * (b + c), a * b + a * c)


@given(series7, series7)
@settings(max_examples=60)
def test_mul_commutes(a, b):
    assert R.eq(a * b, b * a)


@given(series7)
@settings(max_examples=60)
def test_nonzero_exact_inverse_roundtrip(a):
    if a.is_known_zero():
        return
    inv = a.invert(8)
    assert (a * inv).agrees_to_precision(R.one)


# -- normalised exponents -------------------------------------------------------

def test_integral_exponents_print_the_same_however_built():
    T = hahn(F7, "t", 7, 20)
    prod = T.parse("t^(1/7)") * T.parse("t^(13/7)")
    assert T.to_str(prod) == T.to_str(T.parse("t^2")) == "t^2"
    assert T.to_str(T.parse("t^(1/7)").shift(Fraction(6, 7))) == "t"
    inv = T.parse("t^(1/7) + t^(3/7) + O(t^(16/7))").invert()
    assert inv.precision == 2 and isinstance(inv.precision, int)
    assert T.to_str(inv).endswith("O(t^2)")
    for s in (prod, inv, T.parse("1 + t^(1/7)") * T.parse("1 + t^(6/7) + O(t^3)")):
        assert all(isinstance(e, int) or e.denominator != 1 for e in s.coeffs)


# -- malformed text -------------------------------------------------------------

TOWER = laurent(laurent(F7, "x", 6), "t", 6)
RQ = laurent(QQ, "X", 6)


@pytest.mark.parametrize("domain,text", [
    *((R, text) for text in ["*t", "x", "1/0", "((1)", "abc", "1e5", "", "  ", "1 +",
                             "t^(1/0)", ")("]),
    (TOWER, "*t"), (TOWER, ""), (TOWER, "(1 + )*t"),
    (RQ, "1/0"), (RQ, "X^(1/2)"), (RQ, "abc"),
    # an operator right after another one
    *((R, text) for text in ["1 + + 2", "1 - -t", "1 -+ t", "--3", "+ -t"]),
    (TOWER, "(1 + + x)*t"), (TOWER, "(1)*t - - (x)"), (RQ, "1 - -1/2*X"),
])
def test_parse_rejects_malformed_text(domain, text):
    with pytest.raises(CycdivError):
        domain.parse(text)


def test_parse_keeps_the_smallest_o_term():
    assert R.parse("O(t^2) + O(t^3)").precision == 2
    assert R.parse("1 + O(t^5) + t + O(t^3)") == R.series({0: 1, 1: 1}, 3)


@given(st.text(alphabet="tx019+-*^()/O e", max_size=16))
@settings(max_examples=300, deadline=None)
def test_parse_fails_only_with_cycdiv_error(text):
    for domain in (R, H, TOWER, RQ):
        try:
            domain.parse(text)
        except CycdivError:
            pass


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
SERIES_TEXTS = {
    "R": st.dictionaries(exps, coeff7, max_size=4).map(R.series),
    "RQ": st.dictionaries(exps, rationals, max_size=4).map(RQ.series),
    "TOWER": st.dictionaries(exps, st.dictionaries(exps, coeff7, max_size=3).map(
        TOWER.coeff.series), max_size=3).map(TOWER.series),
}
DOMAINS = {"R": R, "RQ": RQ, "TOWER": TOWER}


@given(st.sampled_from(sorted(SERIES_TEXTS)), st.data())
@settings(max_examples=150, deadline=None)
def test_printed_series_parse_back_and_doubled_operators_fail(name, data):
    domain = DOMAINS[name]
    s = data.draw(SERIES_TEXTS[name])
    prec = data.draw(st.one_of(st.none(), st.integers(-4, 9)))
    if prec is not None:
        s = s.truncate(prec)
    text = domain.to_str(s)
    again = domain.parse(text)
    assert again.precision == s.precision and again.agrees_to_precision(s)
    assert domain.to_str(again) == text
    first, second = data.draw(st.sampled_from("+-")), data.draw(st.sampled_from("+-"))
    with pytest.raises(CycdivError):
        domain.parse(f"{text} {first} {second} {text}")
