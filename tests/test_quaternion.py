import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycdiv import (AlbertForm, BiquaternionElement, PrimeField, QQ, QuadraticExtension,
                    QuaternionAlgebra, Series, StructureConstants, albert_form,
                    anisotropy_sample_test, constants_to_json, invert, is_square_in_tower,
                    laurent, nonsquare_witness, sos_leading_data, tensor)
from cycdiv.errors import CycdivError, DomainMismatchError, PrecisionError
from cycdiv.verify import albert_setup, hahn_tower_context
from test_algebra import exact_element, with_o_term
from test_series_kernels import canonical, identical

R, F, D1, D2, PHI = albert_setup(precision=10)


# -- references: the quaternion product and the biquaternion structure
# constants as they were computed before both went through structure
# constants and tensor()

def reference_table(D):
    """table[a][b] = (coefficient, basis index) of e_a * e_b in (u, v / F)."""
    F, u, v = D.F, D.u, D.v
    one, neg = F.one, F.neg
    uv = F.mul(u, v)
    return [
        [(one, 0), (one, 1), (one, 2), (one, 3)],
        [(one, 1), (u, 0), (one, 3), (u, 2)],
        [(one, 2), (neg(one), 3), (v, 0), (neg(v), 1)],
        [(one, 3), (neg(u), 2), (v, 1), (neg(uv), 0)],
    ]


def reference_quat_mul(D, x, y):
    """The quaternion product, one table entry per pair of coordinates."""
    F, table = D.F, reference_table(D)
    out = [F.zero] * 4
    for a, xa in enumerate(x):
        if F.is_known_zero(xa):
            continue
        for b, yb in enumerate(y):
            if F.is_known_zero(yb):
                continue
            coeff, idx = table[a][b]
            out[idx] = F.add(out[idx], F.mul(F.mul(xa, yb), coeff))
    return out


def reference_biquaternion_matrices(A, B):
    """The 16x16 loop over the two tables that built D1 (x) D2."""
    F, table1, table2 = A.F, reference_table(A), reference_table(B)
    matrices = [[[F.zero] * 16 for _ in range(16)] for _ in range(16)]
    for s in range(4):
        for t in range(4):
            for s2 in range(4):
                for t2 in range(4):
                    c1, s3 = table1[s][s2]
                    c2, t3 = table2[t][t2]
                    matrices[4 * s3 + t3][4 * s + t][4 * s2 + t2] = F.mul(c1, c2)
    return matrices


def reduced_norm(x):
    """a^2 - u b^2 - v c^2 + uv d^2 for x = a + b i + c j + d ij."""
    D, (a, b, c, d) = x.algebra, x.coords
    F = D.F
    n = F.sub(F.mul(a, a), F.mul(D.u, F.mul(b, b)))
    n = F.sub(n, F.mul(D.v, F.mul(c, c)))
    return F.add(n, F.mul(F.mul(D.u, D.v), F.mul(d, d)))


def conjugate(x):
    F = x.algebra.F
    a, b, c, d = x.coords
    return x.algebra.element((a, F.neg(b), F.neg(c), F.neg(d)))


@pytest.mark.parametrize("prec", [10, 4])
def test_tensor_matches_the_reference_loop(prec):
    _, Fp, A, B, _ = albert_setup(precision=prec)
    T = tensor(A, B)
    want = reference_biquaternion_matrices(A, B)
    assert T.n == 16 and T.labels[:5] == ["1(x)1", "1(x)i", "1(x)j", "1(x)ij", "i(x)1"]
    assert all(identical(x, y) for got_mat, want_mat in zip(T.constants.matrices, want)
               for got_row, want_row in zip(got_mat, want_mat)
               for x, y in zip(got_row, want_row))
    ref = StructureConstants(16, T.labels, want, field_descriptor=repr(Fp))
    assert constants_to_json(T.constants, Fp) == constants_to_json(ref, Fp)


@pytest.mark.parametrize("single_level", [False, True])
def test_quaternion_product_matches_the_reference(single_level):
    algebras = ([QuaternionAlgebra(R, R.variable, R.from_int(-1)),
                 QuaternionAlgebra(R, R.parse("2 + X"), R.parse("-X^3"))]
                if single_level else [D1, D2])
    rng = random.Random(39 + single_level)
    opts = [{}, {"n_terms": 2, "exp_lo": -2, "exp_hi": 3}, {"precision": 4, "nonzero": True}]
    truncated = 0
    for D in algebras:
        for trial in range(12):
            x = D.random_element(rng, **opts[trial % 3])
            y = D.random_element(rng, **opts[(trial + 1) % 3])
            got = (x * y).coords
            want = reference_quat_mul(D, x.coords, y.coords)
            assert all(identical(a, b) for a, b in zip(got, want))
            truncated += any(c.precision is not None for c in got)
    assert truncated >= 8


def test_quaternion_relations():
    i, j = D1.i, D1.j
    assert (i * i).coords[0].agrees_to_precision(D1.u)
    assert (j * j).coords[0].agrees_to_precision(D1.v)
    assert (i * j + j * i).is_known_zero()
    ij = i * j
    # (ij)^2 = -uv
    sq = (ij * ij).coords[0]
    assert sq.agrees_to_precision(F.neg(F.mul(D1.u, D1.v)))


def test_characteristic_two_rejected():
    from cycdiv import PrimeField
    F2 = PrimeField(2)
    with pytest.raises(CycdivError):
        QuaternionAlgebra(F2, F2.one, F2.one)


def test_reduced_norm_multiplicative():
    rng = random.Random(31)
    for _ in range(10):
        x = D1.random_element(rng, n_terms=1, exp_lo=-1, exp_hi=2)
        y = D1.random_element(rng, n_terms=1, exp_lo=-1, exp_hi=2)
        assert F.eq(reduced_norm(x * y), F.mul(reduced_norm(x), reduced_norm(y)))


def test_quat_invert():
    # over a single-level series field the coefficient arithmetic is exact,
    # so the inverse round-trips on all known coefficients
    D = QuaternionAlgebra(R, R.variable, R.from_int(-1))
    rng = random.Random(32)
    for _ in range(8):
        x = D.random_element(rng, n_terms=2, exp_lo=-2, exp_hi=3, nonzero=True)
        if R.is_known_zero(reduced_norm(x)):
            continue
        xi = invert(x)
        diff = x * xi - D.one
        assert all(R.is_known_zero(c) for c in diff.coords)


def test_quat_norm_is_x_conj_x():
    rng = random.Random(33)
    x = D1.random_element(rng, n_terms=1, exp_lo=0, exp_hi=2)
    prod = x * conjugate(x)
    assert F.eq(prod.coords[0], reduced_norm(x))
    assert all(F.is_known_zero(c) for c in prod.coords[1:])


def test_biquaternion_tensor_structure():
    B = tensor(D1, D2, BiquaternionElement)
    assert B.n == 16
    # (i (x) 1)(1 (x) i') = i (x) i' = (1 (x) i')(i (x) 1): tensor factors commute
    a, b = B.basis(4), B.basis(1)
    assert B.labels[4] == "i(x)1" and B.labels[1] == "1(x)i"
    ab, ba = a * b, b * a
    assert all(F.eq(x, y) for x, y in zip(ab.coords, ba.coords))
    # one is the identity
    rng = random.Random(34)
    z = B.random_element(rng, n_terms=1, exp_lo=-1, exp_hi=2)
    assert all(F.eq(x, y) for x, y in zip((B.one * z).coords, z.coords))


def test_biquaternion_associativity():
    B = tensor(D1, D2, BiquaternionElement)
    rng = random.Random(35)
    for _ in range(5):
        a = B.random_element(rng, n_terms=1, exp_lo=-1, exp_hi=2)
        b = B.random_element(rng, n_terms=1, exp_lo=-1, exp_hi=2)
        c = B.random_element(rng, n_terms=1, exp_lo=-1, exp_hi=2)
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert all(F.eq(x, y) for x, y in zip(lhs.coords, rhs.coords))


def test_albert_form_coefficients():
    # phi = <u, v, -uv, -u', -v', u'v'> with D1 = (X, -1), D2 = (-X, Y)
    x = F.constant(R.variable)
    y = F.variable
    expected = [x, F.from_int(-1), x, x, F.neg(y), F.neg(F.mul(x, y))]
    assert all(F.eq(a, b) for a, b in zip(PHI.coefficients, expected))


def test_albert_form_evaluate():
    a = [F.one] + [F.zero] * 5
    assert F.eq(PHI.evaluate(a), PHI.coefficients[0])
    with pytest.raises(CycdivError):
        PHI.evaluate([F.one] * 5)


# -- the Albert form on the flat form against the Series loop ------------------

def reference_evaluate(form, a, dom):
    """phi(a) as evaluate computed it before the flat sums: the Series loop,
    the coefficients injected when ``dom`` is a quadratic extension of F."""
    total = dom.zero
    for coeff, ai in zip(form.coefficients, a):
        coeff = coeff if dom == form.F else dom.inject(coeff)
        total = dom.add(total, dom.mul(coeff, dom.mul(ai, ai)))
    return total


def stored(x):
    """The stored form of a series, through every level of a tower (precision,
    den and terms), or the pair of stored forms of an element of K."""
    if isinstance(x, tuple):
        return tuple(stored(y) for y in x)
    return (x.precision, x.den,
            {e: stored(c) if isinstance(c, Series) else c for e, c in x.terms.items()})


@contextmanager
def loop_calls():
    """The list of the calls that reach the Series loop of ``AlbertForm``."""
    calls, real = [], AlbertForm._loop

    def spy(form, *args):
        calls.append(args)
        return real(form, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AlbertForm, "_loop", spy)
        yield calls


F7XT = laurent(laurent(PrimeField(7), "x", 8), "t", 8)
FORM_FIELDS = {"Q((X))((Y))": F, "F_7((x))((t))": F7XT}
PLANTED = (1, -1, 1, -1, 1, -1)


def _domain(T, over_k, draw):
    """T itself, or T(gamma) with gamma^2 drawn EXACT and nonzero."""
    if not over_k:
        return T
    if T is F and draw(st.booleans()):
        g2 = T.constant(nonsquare_witness(R)[0])  # the claim's 2 + 2X^2
    else:
        g2 = exact_element(draw, T)
        if g2.is_known_zero():
            g2 = T.from_int(3)
    return QuadraticExtension(T, g2)


def _argument(T, over_k, draw):
    return (exact_element(draw, T), exact_element(draw, T)) if over_k else exact_element(draw, T)


@pytest.mark.parametrize("field", sorted(FORM_FIELDS))
@pytest.mark.parametrize("over_k", [False, True])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_flat_evaluate_matches_the_loop(field, over_k, data):
    T = FORM_FIELDS[field]
    dom = _domain(T, over_k, data.draw)
    planted = data.draw(st.booleans())
    if planted:
        # an isotropic form at equal arguments: the value is zero, over
        # F_7((x))((t)) only mod 7 (-1 is stored as 6)
        form = AlbertForm(tuple(T.from_int(c) for c in PLANTED), T)
        a = (_argument(T, over_k, data.draw),) * 6
    else:
        form = AlbertForm(tuple(exact_element(data.draw, T) for _ in range(6)), T)
        a = tuple(_argument(T, over_k, data.draw) for _ in range(6))
    want = reference_evaluate(form, a, dom)
    with loop_calls() as calls:
        got = form.evaluate(a, domain=dom)
        is_zero = form._is_zero_at(a, dom)
    assert not calls
    assert stored(got) == stored(want)
    pairs = zip(got, want) if over_k else [(got, want)]
    assert all(canonical(g) and g == w for g, w in pairs)
    assert is_zero == dom.is_known_zero(want)
    assert is_zero or not planted


def _flat_edge_cases():
    """(id, form, a, domain, whether phi(a) is zero) that the flat sums serve."""
    x7 = F7XT.parse("(x^(-2) + 3)*t^(-1) + (5*x)")
    # 13 = -1 mod 7, but 1 + 13 is no zero over Z: the sum must be reduced
    yield ("cancels mod 7", AlbertForm((F7XT.one, F7XT.from_int(13)) + (F7XT.zero,) * 4, F7XT),
           (x7, x7) + (F7XT.one,) * 4, F7XT, True)
    # phi(a) = (0, 4): the first sum cancels, the second does not
    K = QuadraticExtension(F, F.constant(nonsquare_witness(R)[0]))
    yield ("first sum zero", AlbertForm(tuple(F.from_int(c) for c in PLANTED), F),
           ((F.one, F.one), (F.one, F.from_int(-1))) + (K.zero,) * 4, K, False)
    # every inner exponent is 1, so c*b*b lands on x^3 and gamma^2*c*c'*c' on x^4
    x = F7XT.constant(F7XT.coeff.variable)
    yield ("positive inner exponents", AlbertForm((x,) * 6, F7XT), ((x, x),) * 6,
           QuadraticExtension(F7XT, x), False)


@pytest.mark.parametrize("case", list(_flat_edge_cases()), ids=lambda case: case[0])
def test_flat_evaluate_edge_cases(case):
    _, form, a, dom, zero = case
    want = reference_evaluate(form, a, dom)
    with loop_calls() as calls:
        got = form.evaluate(a, domain=dom)
        is_zero = form._is_zero_at(a, dom)
    assert not calls
    assert stored(got) == stored(want)
    assert is_zero == dom.is_known_zero(want) == zero


def _fallback_cases():
    """(id, form, a, domain) that the flat sums cannot serve."""
    xo = R.series({0: Fraction(1)}, 2)  # 1 + O(X^2)
    yield "truncated", PHI, (F.variable.truncate(3),) + (F.one,) * 5, F
    yield "inner O-term", PHI, (F.series({1: xo}),) + (F.one,) * 5, F
    yield "wide inner", PHI, (F.constant(R.monomial(2 ** 70)),) + (F.one,) * 5, F
    yield "wide outer", PHI, (F.monomial(-2 ** 70),) + (F.one,) * 5, F
    K = QuadraticExtension(F, F.constant(nonsquare_witness(R)[0]))
    yield "truncated over K", PHI, ((F.one, F.variable.truncate(3)),) + (K.one,) * 5, K
    H = hahn_tower_context(7, 3, precision=4).F
    h = H.parse("(1 + x^(1/7))*t^(-1/7) + (3)")
    form = AlbertForm((H.one, H.from_int(-1), h, H.one, H.one, h), H)
    yield "Hahn tower", form, (h,) * 6, H


@pytest.mark.parametrize("case", list(_fallback_cases()), ids=lambda case: case[0])
def test_flat_evaluate_falls_back_to_the_loop(case):
    _, form, a, dom = case
    want = reference_evaluate(form, a, dom)
    with loop_calls() as calls:
        got = form.evaluate(a, domain=dom)
        is_zero = form._is_zero_at(a, dom)
    assert len(calls) == 2
    assert stored(got) == stored(want)
    assert is_zero == dom.is_known_zero(want)


def test_evaluate_injects_into_a_quadratic_extension_by_default():
    _, F20, _, _, phi = albert_setup(20)
    K = QuadraticExtension(F20, F20.constant(nonsquare_witness(F20.coeff)[0]))
    rng = random.Random(40)
    a = tuple(K.random_element(rng, n_terms=2, exp_lo=-2, exp_hi=4) for _ in range(6))
    assert stored(phi.evaluate(a, domain=K)) == stored(reference_evaluate(phi, a, K))
    rep = anisotropy_sample_test(phi, K, 20, random.Random(41))
    assert rep["trials"] == 20 and rep["failures"] == 0
    # neither F nor a quadratic extension of F
    other = laurent(laurent(QQ, "Z", 10), "W", 10)
    for dom in (other, QuadraticExtension(other, other.from_int(2))):
        with pytest.raises(DomainMismatchError):
            phi.evaluate((dom.one,) * 6, domain=dom)


def test_albert_form_mismatched_fields():
    other = QuaternionAlgebra(F, F.from_int(-1), F.from_int(-1))
    inner = laurent(QQ, "Z", 10)
    outer = laurent(inner, "W", 10)
    foreign = QuaternionAlgebra(outer, outer.from_int(-1), outer.from_int(-1))
    with pytest.raises(DomainMismatchError):
        albert_form(other, foreign)


def test_anisotropy_sampling_clean():
    rep = anisotropy_sample_test(PHI, F, 100, random.Random(36))
    assert rep["failures"] == 0 and rep["trials"] == 100


def test_isotropic_form_is_caught():
    # a sampler that always draws 1 finds the zeros of <1, -1, ..., 1, -1>
    from cycdiv.basefields import RationalField

    class AlwaysOne(RationalField):
        def random_element(self, rng, **opts):
            return Fraction(1)

    dom = AlwaysOne()
    iso = AlbertForm(tuple(Fraction(1 if k % 2 == 0 else -1) for k in range(6)), QQ)
    rep = anisotropy_sample_test(iso, dom, 20, random.Random(37))
    assert rep["failures"] == 20
    assert rep["counterexamples"][0] == (Fraction(1),) * 6


def test_quadratic_extension_arithmetic():
    w, cert = nonsquare_witness(R)
    assert not cert["is_square"]
    K = QuadraticExtension(F, F.constant(w))
    g2 = K.mul(K.gamma, K.gamma)
    assert K.eq(g2, K.inject(F.constant(w)))
    x = (F.one + F.variable, F.one)
    assert K.eq(K.mul(x, K.invert(x)), K.one)
    with pytest.raises(ZeroDivisionError):
        K.invert(K.zero)


def test_nonsquare_witness_values():
    w, _ = nonsquare_witness(R)
    # w = 2 + 2X^2 = (1+X)^2 + (1-X)^2
    one, x = R.one, R.variable
    assert R.eq(w, (one + x) * (one + x) + (one - x) * (one - x))
    assert not is_square_in_tower(w)
    assert is_square_in_tower((one + x) * (one + x))


def test_sos_leading_data_invariants():
    rng = random.Random(38)
    for _ in range(30):
        summands = [F.random_element(rng, n_terms=2, exp_lo=-2, exp_hi=3)
                    for _ in range(rng.randint(1, 4))]
        if all(s.is_known_zero() for s in summands):
            continue
        data = sos_leading_data(summands)
        assert data["outer_valuation"] % 2 == 0
        assert data["inner_valuation"] % 2 == 0
        assert data["leading_rational"] > 0


def test_sos_rejects_truncated():
    with pytest.raises(CycdivError):
        sos_leading_data([F.one.truncate(5)])


def test_sos_rejects_towers_over_f_p():
    # F_p is not ordered: 1 + 3 is 4 > 0, but 3 is also 10 mod 7
    T = laurent(laurent(PrimeField(7), "X", 10), "Y", 10)
    with pytest.raises(CycdivError):
        sos_leading_data([T.one, T.from_int(3)])


def test_sos_rejects_all_zero():
    with pytest.raises(CycdivError):
        sos_leading_data([F.zero])


def test_square_test_rejects_truncated():
    with pytest.raises(PrecisionError):
        is_square_in_tower(R.one.truncate(4))
