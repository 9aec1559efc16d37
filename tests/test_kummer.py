import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycdiv import (KummerContext, PrimeField, QQ, SeriesDomain, galois_sigma, is_norm, laurent,
                    norm_formula, norm_oracle, norm_valuation)
from cycdiv.errors import CycdivError, PrecisionError
from cycdiv.kummer import _u_series_mul, kummer_mul
from cycdiv.verify import hahn_tower_context, hamilton_algebra, laurent_context
from test_series_kernels import canonical, identical

CTX = laurent_context(7, 3, precision=20)
R = CTX.F


def test_context_validation():
    F = laurent(PrimeField(7), "t", 20)
    with pytest.raises(ValueError):
        KummerContext(F, 4, F.variable, F.from_int(2))  # q not prime
    with pytest.raises(CycdivError):
        KummerContext(F, 3, F.variable, F.from_int(3))  # 3^3 = 6 != 1: not a root
    with pytest.raises(CycdivError):
        KummerContext(F, 3, F.variable, F.one)  # not primitive
    with pytest.raises(CycdivError):
        KummerContext(F, 3, F.monomial(3), F.from_int(2))  # v(t) = 3 in 3Z
    with pytest.raises(CycdivError):
        # q = characteristic
        KummerContext(laurent(PrimeField(3), "t", 20), 3, None, None)


def test_rational_context_rejects_square_t():
    with pytest.raises(CycdivError):
        KummerContext(QQ, 2, Fraction(4), Fraction(-1))


def test_galois_action():
    a = CTX.element([R.from_int(1), R.from_int(1), R.from_int(1)])
    s = galois_sigma(a, 1)
    # xi = 2 in F_7: coordinates become (1, 2, 4)
    assert [c.residue() for c in s.coords] == [1, 2, 4]
    assert galois_sigma(a, 0).coords == a.coords
    # sigma^3 = id realized as k mod q
    with pytest.raises(CycdivError):
        galois_sigma(a, 3)


def test_kummer_mul_u_cubed():
    u = CTX.u
    u3 = u * u * u
    assert R.eq(u3.coords[0], CTX.t)
    assert all(R.is_known_zero(c) for c in u3.coords[1:])


def test_norm_of_u():
    # N(u) = xi^{q(q-1)/2} t = t for odd q
    assert R.eq(CTX.norm_of_u(), CTX.t)
    assert R.eq(norm_oracle(CTX.u), CTX.t)
    # q = 2 over Q: N(u) = -t
    ctx2 = KummerContext(QQ, 2, Fraction(2), Fraction(-1))
    assert ctx2.norm_of_u() == Fraction(-2)


def test_norm_oracle_111():
    a = CTX.element([R.one, R.one, R.one])
    n = norm_oracle(a)
    assert R.to_str(n) == "1 + 5*t + t^2"
    assert norm_formula(a).agrees_to_precision(n)


def test_norm_is_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        a = CTX.random_element(rng, n_terms=2, exp_lo=-2, exp_hi=4)
        b = CTX.random_element(rng, n_terms=2, exp_lo=-2, exp_hi=4)
        assert R.eq(norm_oracle(a * b), R.mul(norm_oracle(a), norm_oracle(b)))


def test_closed_form_q2_over_rationals():
    ctx = KummerContext(QQ, 2, Fraction(3), Fraction(-1))
    a = ctx.element([Fraction(5), Fraction(2)])
    # N(b0 + b1 u) = b0^2 - t b1^2
    assert norm_oracle(a) == Fraction(25 - 3 * 4)
    assert norm_formula(a) == Fraction(13)


def test_closed_form_q3_structure():
    # N = b0^3 + t b1^3 + t^2 b2^3 - 3 t b0 b1 b2
    rng = random.Random(12)
    for _ in range(10):
        b = [R.random_element(rng) for _ in range(3)]
        t = CTX.t
        expected = R.pow(b[0], 3) + t * R.pow(b[1], 3) + t * t * R.pow(b[2], 3) \
            + R.from_int(-3) * t * b[0] * b[1] * b[2]
        assert norm_formula(CTX.element(b)).agrees_to_precision(expected)


def test_norm_valuation_identity():
    rng = random.Random(13)
    for _ in range(30):
        a = CTX.random_element(rng, n_terms=2, exp_lo=-5, exp_hi=5, nonzero=True)
        assert norm_valuation(a) == norm_oracle(a).valuation()


def test_norm_valuation_zero_rejected():
    with pytest.raises(CycdivError):
        norm_valuation(CTX.element([R.zero, R.zero, R.zero]))


def test_is_norm_residue_cases():
    dec = is_norm(CTX, R.from_int(2))
    assert not dec.is_norm
    assert dec.certificate["kind"] == "residue"
    dec = is_norm(CTX, R.from_int(6))
    assert dec.is_norm
    assert norm_oracle(dec.preimage).agrees_to_precision(R.from_int(6))


def test_is_norm_needs_a_known_root_coefficient():
    # below precision 1 the Hensel root knows no coefficient: no certificate
    for ctx, target in ((laurent_context(7, 3, precision=0), None), (CTX, 0), (CTX, -4)):
        with pytest.raises(PrecisionError):
            is_norm(ctx, ctx.F.parse("6 + t"), target)
    assert is_norm(CTX, R.parse("6 + t"), 1).preimage.coords[0].precision == 1


def test_is_norm_valuation_shift():
    # t = N(u); t^2 = N(u^2); and t * 6 is a norm as well
    dec = is_norm(CTX, R.variable)
    assert dec.is_norm
    assert norm_oracle(dec.preimage).agrees_to_precision(R.variable)
    dec = is_norm(CTX, R.monomial(2, 6))
    assert dec.is_norm
    assert norm_oracle(dec.preimage).agrees_to_precision(R.monomial(2, 6))
    # t * 2 is not: the adjusted residue is 2
    dec = is_norm(CTX, R.monomial(1, 2))
    assert not dec.is_norm


def test_is_norm_q2_sign():
    # over F = F_7((t)) with q = 2, xi = -1: N(u) = -t
    ctx = laurent_context(7, 2, precision=20)
    F = ctx.F
    dec = is_norm(ctx, F.monomial(1, 6))  # -t = N(u)
    assert dec.is_norm
    assert norm_oracle(dec.preimage).agrees_to_precision(F.monomial(1, 6))


def test_hahn_tower_context_norms():
    ctx = hahn_tower_context(7, 3, precision=5)
    F = ctx.F
    rng = random.Random(15)
    for _ in range(5):
        a = ctx.random_element(rng, n_terms=1, exp_lo=0, exp_hi=2)
        assert norm_formula(a).agrees_to_precision(norm_oracle(a))
    # x (the inner variable) is not a norm: v_inner not in 3*Z[1/7]
    dec = is_norm(ctx, F.constant(F.coeff.variable))
    assert not dec.is_norm


def test_is_norm_with_inner_o_terms_over_the_hahn_tower():
    ctx = hahn_tower_context(7, 3, precision=4)
    F = ctx.F
    # the residue O(x^2) stands for x^5 too, and (x^5) + t^(1/7) is no norm
    with pytest.raises(PrecisionError, match="valuation unknown"):
        is_norm(ctx, F.parse("(O(x^2)) + (1)*t^(1/7)"))
    assert not is_norm(ctx, F.parse("(x^5) + (1)*t^(1/7)")).is_norm
    x = F.parse("(6*x^(-6) + O(x^(-1))) + (4 + O(x^5))*t")
    dec = is_norm(ctx, x)
    assert dec.is_norm and not dec.preimage.is_known_zero()
    assert norm_oracle(dec.preimage).agrees_to_precision(x)


# -- kummer_mul: one product in k((u)) against the loop -------------------------

def ref_kummer_mul(a, b):
    """The loop: the q^2 coordinate products, times t when i + j >= q, added
    up; only exact zeros are skipped."""
    ctx = a.context
    F, q, t = ctx.F, ctx.q, ctx.t
    out = [F.zero] * q
    for i, ai in enumerate(a.coords):
        for j, bj in enumerate(b.coords):
            if F.is_zero(ai) or F.is_zero(bj):
                continue
            p, k = F.mul(ai, bj), i + j
            if k >= q:
                p, k = F.mul(p, t), k - q
            out[k] = F.add(out[k], p)
    return out


def _u_contexts():
    """K = k((u)) with u^q the variable: F_7((t)) q=3, F_11((t)) q=5, Q((t))
    q=2 and the tower F_7((x))((t)) q=3."""
    yield CTX
    yield laurent_context(11, 5, precision=20)
    QT = laurent(QQ, "t", 8)
    yield KummerContext(QT, 2, QT.variable, QT.from_int(-1))
    T = laurent(laurent(PrimeField(7), "x", 6), "t", 6)
    yield KummerContext(T, 3, T.variable, T.constant(T.coeff.constant(2)))


U_CONTEXTS = list(_u_contexts())


def coefficient(draw, domain, inner_o_terms):
    """A nonzero coefficient: F_p, Q with denominators, or an inner series
    with negative exponents and, when ``inner_o_terms``, maybe an O-term."""
    if isinstance(domain, PrimeField):
        return draw(st.integers(1, domain.p - 1))
    if domain is QQ:
        return draw(st.fractions(-9, 9, max_denominator=9).filter(bool))
    terms = {e: draw(st.integers(1, 6)) for e in draw(st.lists(st.integers(-2, 3), min_size=1,
                                                              max_size=3, unique=True))}
    prec = draw(st.none() | st.integers(-1, 4)) if inner_o_terms else None
    return domain.series(terms, prec)


def coordinate(draw, F, inner_o_terms):
    """An exact zero, an O-term with no known coefficient, or an exact,
    truncated or dense coordinate with exponents from -4 on."""
    kind = draw(st.sampled_from(["zero", "o-term", "exact", "truncated", "dense"]))
    if kind == "zero":
        return F.zero
    if kind == "o-term":
        return F.series({}, draw(st.integers(-4, 6)))
    if kind == "dense":
        exps = range(draw(st.integers(-4, 1)), draw(st.integers(2, 12)))
    else:
        exps = draw(st.lists(st.integers(-4, 8), max_size=5, unique=True))
    terms = {e: coefficient(draw, F.coeff, inner_o_terms) for e in exps}
    return F.series(terms, None if kind == "exact" else draw(st.integers(-4, 12)))


@pytest.mark.parametrize("case", range(len(U_CONTEXTS)))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_u_series_product_matches_the_loop(case, data):
    ctx = U_CONTEXTS[case]
    F = ctx.F
    inner_o_terms = isinstance(F.coeff, SeriesDomain) and data.draw(st.booleans())
    a, b = (ctx.element([coordinate(data.draw, F, inner_o_terms) for _ in range(ctx.q)])
            for _ in range(2))
    want = ref_kummer_mul(a, b)
    got = kummer_mul(a, b).coords
    assert all(identical(g, w) and canonical(g) for g, w in zip(got, want))
    # the u-route serves every such product, inner O-terms included
    assert _u_series_mul(a, b) is not None


def test_other_contexts_take_the_loop():
    hahn = hahn_tower_context(7, 3, precision=4)
    H = hamilton_algebra().kummer
    other_t = KummerContext(R, 3, R.parse("t + t^2"), R.from_int(2))
    rng = random.Random(16)
    for ctx in (hahn, H, other_t):
        assert ctx._u_field is None
        for _ in range(5):
            a, b = ctx.random_element(rng), ctx.random_element(rng)
            assert _u_series_mul(a, b) is None
            got, want = kummer_mul(a, b).coords, ref_kummer_mul(a, b)
            if ctx is H:
                assert list(got) == want
            else:
                assert all(identical(g, w) for g, w in zip(got, want))
