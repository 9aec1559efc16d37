import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycdiv import (QQ, BiquaternionElement, CyclicAlgebra, KummerContext, PrimeField,
                    QuaternionAlgebra, Series, SeriesDomain, StructureConstants,
                    constants_from_json, constants_mul, constants_to_json, galois_sigma, invert,
                    is_division, laurent, relation_mul, structure_constants, tensor,
                    zero_divisor_witness)
from cycdiv.algebra import ConstantsAlgebra, _flat_constants_mul, _left_coords, left_mul_matrix
from cycdiv.errors import CycdivError, DomainMismatchError, ZeroDivisorError
from cycdiv.flat import _FlatVector
from cycdiv.kummer import _from_u_series, _u_sigma
from cycdiv.verify import albert_setup, hahn_tower_context, hamilton_algebra, laurent_context
from test_series_kernels import canonical, identical

CTX = laurent_context(7, 3, precision=20)
R = CTX.F
D2ALG = CyclicAlgebra(CTX, R.from_int(2))


def test_defining_relations():
    D = D2ALG
    # X^q = alpha
    x3 = D.X * D.X * D.X
    assert (x3 - D.from_base(R.from_int(2))).is_known_zero()
    # u^q = t
    u3 = D.u * D.u * D.u
    assert (u3 - D.from_base(CTX.t)).is_known_zero()
    # X * b = sigma(b) * X for b in K
    k = CTX.element([R.from_int(3), R.from_int(1), R.from_int(5)])
    b = D.element([*k.coords] + [R.zero] * (D.n - D.q))  # the X^0 slice
    sb = D.element([*galois_sigma(k, 1).coords] + [R.zero] * (D.n - D.q))
    assert (D.X * b - sb * D.X).is_known_zero()


def test_basis_labels_and_index():
    D = D2ALG
    labels = D.labels
    assert labels[0] == "1"
    assert labels[D.basis_index(1, 0)] == "u"
    assert labels[D.basis_index(0, 1)] == "X"
    assert labels[D.basis_index(2, 2)] == "u^2*X^2"
    assert len(labels) == 9


def test_associativity_random():
    D = D2ALG
    rng = random.Random(21)
    for _ in range(15):
        a = D.random_element(rng, n_terms=1, exp_lo=-2, exp_hi=3)
        b = D.random_element(rng, n_terms=1, exp_lo=-2, exp_hi=3)
        c = D.random_element(rng, n_terms=1, exp_lo=-2, exp_hi=3)
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert all(R.eq(x, y) for x, y in zip(lhs.coords, rhs.coords))


def test_is_division_cases():
    div, dec = is_division(D2ALG)
    assert div and dec.certificate["kind"] == "residue"
    div6, dec6 = is_division(CyclicAlgebra(CTX, R.from_int(6)))
    assert not div6 and dec6.preimage is not None
    divt, dect = is_division(CyclicAlgebra(CTX, R.variable))
    assert not divt


def test_invert_roundtrip():
    D = D2ALG
    rng = random.Random(22)
    for _ in range(5):
        d = D.random_element(rng, n_terms=1, exp_lo=0, exp_hi=3, nonzero=True)
        x = invert(d, target_precision=12)
        assert (d * x - D.one).is_known_zero()
        assert (x * d - D.one).is_known_zero()


def test_hahn_tower_inverse_round_trips():
    """The inverse that `cycdiv algebra invert --hahn 7 --prec 4` prints for
    this d: d*x - 1 and x*d - 1 are known to be zero wherever x is known."""
    ctx = hahn_tower_context(7, 3, precision=4)
    F = ctx.F
    D = CyclicAlgebra(ctx, F.parse("x"))
    d = D.element(F.parse(c) for c in "(2 + x^(-1))*t^(-1/7) + (1);0;0;(x);0;0;0;0;(5)*t".split(";"))
    x = invert(d)
    assert not x.is_known_zero()
    for residual in (relation_mul(d, x) - D.one, relation_mul(x, d) - D.one):
        assert all(F.is_known_zero(c) and c.precision >= 4 for c in residual.coords)


def _coordinate(F, rng):
    """An exact zero, an O-term, or a random coordinate, exact or truncated."""
    kind = rng.randrange(4)
    if kind == 0:
        return F.zero
    if not isinstance(F, SeriesDomain):
        return F.random_element(rng, nonzero=True)
    if kind == 1:
        return F.series({}, rng.randint(-1, 4))
    c = F.random_element(rng, n_terms=2, exp_lo=-2, exp_hi=3)
    return c.truncate(rng.randint(0, 5)) if kind == 2 else c


def _q_laurent_context():
    F = laurent(QQ, "t")
    return KummerContext(F, 2, F.variable, F.from_int(-1))


@pytest.mark.parametrize("context", [lambda: laurent_context(7, 3), lambda: laurent_context(11, 5),
                                     lambda: hahn_tower_context(7, 3, precision=4),
                                     _q_laurent_context, None],
                         ids=["F_7((t))", "F_11((t))", "hahn", "Q((t))", "hamilton"])
def test_cyclic_left_mul_matrix_is_the_product_columns(context):
    """The matrix read off the rewriting rules is, entry by entry, the
    columns d * e_j of relation_mul, O-terms included."""
    if context is None:
        D = hamilton_algebra()
    else:
        ctx = context()
        D = CyclicAlgebra(ctx, ctx.F.parse("(3) + (1)*t + O(t^5)"))
    rng = random.Random(f"left-mul:{D!r}")
    for _ in range(6):
        d = D.element([_coordinate(D.F, rng) for _ in range(D.n)])
        cols = [(d * D.basis(j)).coords for j in range(D.n)]
        got = left_mul_matrix(d)
        for i in range(D.n):
            for j in range(D.n):
                if isinstance(D.F, SeriesDomain):
                    assert identical(got[i][j], cols[j][i])
                else:
                    assert got[i][j] == cols[j][i]


def test_invert_zero_raises():
    with pytest.raises(CycdivError, match="zero algebra element"):
        invert(D2ALG.element([R.zero] * 9))
    with pytest.raises(CycdivError, match="no coordinate is known to be nonzero"):
        invert(D2ALG.element([R.series({}, 3)] + [R.zero] * 8))


def test_zero_divisor_witness():
    D6 = CyclicAlgebra(CTX, R.from_int(6))
    left, right = zero_divisor_witness(D6, R.from_int(3))
    assert (left * right).is_known_zero()
    assert not left.is_known_zero() and not right.is_known_zero()
    with pytest.raises(CycdivError):
        zero_divisor_witness(D6, R.from_int(2))  # 2^3 = 1 != 6


def test_invert_zero_divisor_gives_kernel():
    D6 = CyclicAlgebra(CTX, R.from_int(6))
    left, _ = zero_divisor_witness(D6, R.from_int(3))
    with pytest.raises(ZeroDivisorError) as exc_info:
        invert(left)
    kern = D6.element(exc_info.value.kernel)
    assert not kern.is_known_zero()
    assert (left * kern).is_known_zero()


LEFT_COORDS_ALGEBRAS = [CyclicAlgebra(ctx, ctx.F.from_int(2))
                        for ctx in (laurent_context(7, 3), laurent_context(11, 5))]


@st.composite
def right_k_coordinates(draw):
    """An algebra over F_7((t)) (q = 3) or F_11((t)) (q = 5), its powers of
    xi times a constant (1, or the scale of a kernel's normalisation), and
    q u-series b_l, exact or truncated, with exponents from -12 on."""
    A = draw(st.sampled_from(LEFT_COORDS_ALGEBRAS))
    U, p = A.kummer._u_field, A.F.coeff.p
    xi, scale = A.kummer.xi.terms[0], draw(st.integers(1, p - 1))
    b = []
    for _ in range(A.q):
        precision = draw(st.one_of(st.none(), st.integers(-12, 14)))
        top = 13 if precision is None else precision
        terms = draw(st.dictionaries(st.integers(-12, 12).filter(lambda e: e < top),
                                     st.integers(1, p - 1), max_size=8))
        b.append(U.series(terms, precision))
    return A, [pow(xi, m, p) * scale % p for m in range(A.q)], b


@given(right_k_coordinates())
@settings(max_examples=200, deadline=None)
def test_left_coords_split_and_scale_in_one_pass(case):
    """The one-pass map back from K is sigma^l of each b_l split by exponent
    mod q, coefficient for coefficient and O-term for O-term."""
    A, xi_pows, b = case
    want = [c for l, s in enumerate(b)
            for c in _from_u_series(A.F, _u_sigma(s, l, xi_pows), A.q)]
    got = _left_coords(A, b, xi_pows)
    assert len(got) == len(want) == A.n
    assert all(identical(x, y) for x, y in zip(got, want))


def test_structure_constants_match_relations():
    D = D2ALG
    consts = structure_constants(D)
    rng = random.Random(23)
    for _ in range(10):
        a = D.random_element(rng, n_terms=1, exp_lo=-2, exp_hi=4)
        b = D.random_element(rng, n_terms=1, exp_lo=-2, exp_hi=4)
        expected = (a * b).coords
        got = constants_mul(a.coords, b.coords, consts, R)
        assert all(R.eq(x, y) for x, y in zip(expected, got))


def plain_constants_mul(a, b, constants, F):
    """a M_k b^T with every entry that is not exactly zero multiplied in, +-1
    ones and O-terms with no known coefficient included."""
    out = [F.zero] * constants.n
    for k, mat in enumerate(constants.matrices):
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                lam = mat[i][j]
                if not (F.is_zero(ai) or F.is_zero(bj) or F.is_zero(lam)):
                    out[k] = F.add(out[k], F.mul(F.mul(ai, bj), lam))
    return out


def _constants_cases():
    _, QXY, D1, D2, _ = albert_setup(precision=8)
    tower = hahn_tower_context(7, 3, precision=5)
    yield D2ALG.F, structure_constants(D2ALG), D2ALG.random_element
    H = hamilton_algebra()
    yield H.F, structure_constants(H), H.random_element
    T = CyclicAlgebra(tower, tower.F.constant(tower.F.coeff.variable))
    yield T.F, structure_constants(T), T.random_element
    B = tensor(D1, D2)
    yield QXY, B.constants, B.random_element


@pytest.mark.parametrize("case", range(4))
def test_constants_mul_matches_plain_loop(case):
    F, consts, sample = list(_constants_cases())[case]
    loaded = constants_from_json(constants_to_json(consts, F), F)
    rng = random.Random(25 + case)
    opts = [{}, {"n_terms": 2, "exp_lo": -2, "exp_hi": 3}, {"precision": 4}]
    for trial in range(12):
        kw = opts[trial % 3] if isinstance(F.zero, Series) else {}
        a, b = sample(rng, **kw).coords, sample(rng, **kw).coords
        want = plain_constants_mul(a, b, consts, F)
        for table in (consts, loaded):
            got = constants_mul(a, b, table, F)
            if isinstance(F.zero, Series):
                assert all(identical(x, y) for x, y in zip(got, want))
            else:
                assert got == want


@pytest.mark.parametrize("tower", [False, True])
def test_truncated_unit_entries_are_multiplied(tower):
    # 1 and -1 known only up to an O-term, at the outer or the inner level:
    # multiplying by them lowers the product's precision
    if tower:
        F = albert_setup(precision=8)[1]
        entries = ["(1 + O(X^3))", "(-1)*Y^0 + O(Y^4)", "(1)"]
        a, b = F.parse("(2 + X)*Y^(-1) + (X^2)*Y"), F.parse("(1/2 + X^5)*Y^2")
    else:
        F = R
        entries = ["1 + O(t^5)", "6 + O(t^3)", "1"]
        a, b = F.parse("t^(-1) + 2*t^3"), F.parse("3*t^2 + t^4")
    lams = [F.parse(text) for text in entries]
    consts = StructureConstants(3, ["e0", "e1", "e2"],
                                [[[lam, F.zero, F.zero]] + [[F.zero] * 3] * 2 for lam in lams])
    got = constants_mul([a, F.zero, F.zero], [b, F.zero, F.zero], consts, F)
    want = plain_constants_mul([a, F.zero, F.zero], [b, F.zero, F.zero], consts, F)
    assert all(identical(x, y) for x, y in zip(got, want))
    assert "O(" in F.to_str(got[0]) and "O(" not in F.to_str(got[2])


def test_o_term_only_coordinates_bound_every_product():
    # (1 + O(t^3)*u) * u = u + O(t^3)*u^2: the O-term is no exact zero
    o3 = R.parse("O(t^3)")
    want = ["0", "1", "O(t^3)"]
    got = CTX.element([R.one, o3, R.zero]) * CTX.u
    assert [R.to_str(c) for c in got.coords] == want
    d = D2ALG.element([R.one, o3] + [R.zero] * 7)
    for coords in (relation_mul(d, D2ALG.u).coords,
                   constants_mul(d.coords, D2ALG.u.coords, structure_constants(D2ALG), R)):
        assert [R.to_str(c) for c in coords] == want + ["0"] * 6
    # an O-term-only structure constant bounds the product it enters, too
    consts = StructureConstants(2, ["e0", "e1"], [[[R.one, R.zero], [R.zero, R.zero]],
                                                  [[o3, R.zero], [R.zero, R.zero]]])
    got = constants_mul([R.parse("2 + t"), R.zero], [R.one, R.zero], consts, R)
    assert [R.to_str(c) for c in got] == ["2 + t", "O(t^3)"]


# -- the flat product against the plain loop ------------------------------------

QXY = albert_setup(precision=8)[1]
F7XT = laurent(laurent(PrimeField(7), "x", 8), "t", 8)
QT = laurent(QQ, "t", 8)


def _flat_cases():
    """(F, constants) for the flat product: biquaternions over Q((X))((Y)),
    structure constants with denominators and negative exponents there,
    cyclic algebras with alpha = 1 + t over F_7((x))((t)), Q((t)) and F_7((t)),
    one over the three-level F_7((x))((y))((t)), and the Z[1/7] Hahn tower,
    which the flat product leaves to the loop."""
    _, _, D1, D2, _ = albert_setup(precision=8)
    yield QXY, tensor(D1, D2).constants
    H = QuaternionAlgebra(QXY, QXY.parse("(1/2*X^(-1) + 3)*Y^(-1) + (X^2)"),
                          QXY.parse("(-2/3) + (X^(-2))*Y"))
    yield QXY, H.constants
    xi = F7XT.constant(F7XT.coeff.constant(2))
    tower = KummerContext(F7XT, 3, F7XT.variable, xi)
    yield F7XT, structure_constants(CyclicAlgebra(tower, F7XT.one + F7XT.variable))
    F3 = laurent(laurent(laurent(PrimeField(7), "x", 4), "y", 4), "t", 4)
    deep = KummerContext(F3, 3, F3.variable, F3.from_int(2))
    yield F3, structure_constants(CyclicAlgebra(deep, F3.parse("((1)*y^(-1))*t + ((x))")))
    quadratic = KummerContext(QT, 2, QT.variable, QT.from_int(-1))
    yield QT, structure_constants(CyclicAlgebra(quadratic, QT.one + QT.variable))
    yield R, structure_constants(CyclicAlgebra(CTX, R.one + R.variable))
    hahn = hahn_tower_context(7, 3, precision=5)
    yield hahn.F, structure_constants(CyclicAlgebra(hahn, hahn.F.constant(hahn.F.coeff.variable)))


FLAT_CASES = list(_flat_cases())


def exact_element(draw, domain, wide=False):
    """An EXACT element with exponents from -3 to 3 at every level (up to
    +-2**70 at the innermost level when ``wide``), Q coefficients with
    denominators up to 9 and F_p coefficients not reduced mod p."""
    if not isinstance(domain, SeriesDomain):
        if isinstance(domain, PrimeField):
            return draw(st.integers(1, 3 * domain.p))
        return draw(st.fractions(min_value=-9, max_value=9, max_denominator=9))
    inner = isinstance(domain.coeff, SeriesDomain)
    exps = st.integers(-3, 3)
    if wide and not inner:
        exps = st.sampled_from([-2 ** 70, 2 ** 70])
    p = domain.group.p
    if p is not None:  # n/p in [-3, 3], built rather than filtered
        exps = exps | st.integers(-3 * p, 3 * p).map(lambda n: Fraction(n, p))
    return domain.series({e: exact_element(draw, domain.coeff, wide)
                          for e in draw(st.lists(exps, max_size=3, unique=True))})


def with_o_term(draw, F, c, inner):
    """c known only below a bound: at the outer level, or in one inner
    coefficient when ``inner`` and c has one."""
    if inner and c.terms:
        e = draw(st.sampled_from(sorted(c.terms)))
        head = c.coeffs[e]
        # an integer above the least exponent, which may be a fraction
        bound = draw(st.integers(math.floor(min(head.terms)) + 1, 4))
        cut = F.coeff.series({f: x for f, x in head.coeffs.items() if f < bound}, bound)
        return F.series({**c.coeffs, e: cut})
    return c.truncate(draw(st.integers(-3, 4)))


@pytest.mark.parametrize("case", range(len(FLAT_CASES)))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_flat_product_matches_plain_loop(case, data):
    F, consts = FLAT_CASES[case]
    mode = data.draw(st.sampled_from(["exact", "truncated", "inner O-term", "wide"]))
    inner = isinstance(F.coeff, SeriesDomain)
    if mode == "inner O-term" and not inner:
        mode = "truncated"
    a, b = ([exact_element(data.draw, F, mode == "wide") if data.draw(st.booleans()) else F.zero
             for _ in range(consts.n)] for _ in range(2))
    if mode in ("truncated", "inner O-term"):
        k = data.draw(st.integers(0, consts.n - 1))
        a[k] = with_o_term(data.draw, F, a[k], mode == "inner O-term")
    want = plain_constants_mul(a, b, consts, F)
    assert all(identical(x, y) for x, y in zip(constants_mul(a, b, consts, F), want))
    # exact coordinates over a Laurent tower over Q or F_p take the flat product
    flat = _flat_constants_mul(a, b, consts, F)
    narrow = mode == "exact" or (mode == "wide" and not any(c.terms for c in a + b))
    assert (flat is not None) == (narrow and F.group.p is None and F.coeff.group.p is None
                                  if inner else narrow)
    if flat is not None:
        assert all(canonical(x) and identical(x, y) for x, y in zip(flat, want))


def _conjugates(F, x, y):
    """x + y*i and x - y*i in the quaternion algebra (X^2, Y / F)."""
    H = QuaternionAlgebra(F, F.parse("(X^2)") if F is QXY else F.parse("t^2"),
                          F.parse("(X)*Y") if F is QXY else F.parse("3 + t"))
    return H.constants, [x, y, F.zero, F.zero], [x, F.neg(y), F.zero, F.zero]


@pytest.mark.parametrize("F, x, y", [
    (QXY, "(X) + (1/3)*Y", "(1)"),            # the Y^0 coefficient X^2 - X^2 cancels
    (QXY, "(X^(-1) + 2/5*X)*Y^(-2)", "(1/7)*Y^(-1)"),
    (QT, "t + 1/2*t^3", "1"),                 # t^2 - t^2 cancels
])
def test_flat_product_cancellations(F, x, y):
    consts, a, b = _conjugates(F, F.parse(x), F.parse(y))
    got = _flat_constants_mul(a, b, consts, F)
    assert got is not None
    assert all(canonical(g) and identical(g, w)
               for g, w in zip(got, plain_constants_mul(a, b, consts, F)))
    # (x + y i)(x - y i) = x^2 - y^2 i^2: the i coordinate cancels to an exact zero
    assert got[1].is_exact_zero() and not got[0].is_known_zero()
    if F is QXY and x == "(X) + (1/3)*Y":
        assert 0 not in got[0].terms and got[0].terms


# -- products of flat-backed elements ---------------------------------------------

def _split_tensor():
    """(X, 1) (x) (-X, Y) over Q((X))((Y)), which has zero divisors: j^2 = 1 in
    (X, 1), so (1 + j)(1 - j) = 0."""
    F = albert_setup(precision=8)[1]
    x = F.parse("(X)")
    B = tensor(QuaternionAlgebra(F, x, F.one), QuaternionAlgebra(F, F.neg(x), F.variable),
               BiquaternionElement)
    j = B.basis(8)  # j (x) 1, at index 2 * 4 + 0
    return F, B, x, j


def test_flat_zero_product_in_a_split_tensor():
    F, B, _, j = _split_tensor()
    prod = (B.one + j) * (B.one - j)
    assert isinstance(prod.coords, _FlatVector)
    assert prod.is_known_zero()
    # the zero test read the maps and built no coordinate
    assert prod.coords._series == [None] * B.n
    assert all(c.is_exact_zero() for c in prod.coords)
    assert prod == B.element([F.zero] * B.n) and prod.coords == (F.zero,) * B.n


def test_flat_product_cancelling_at_some_keys():
    # (X + j)(X - j) = X^2 - j^2 = X^2 - 1: X*(-j) + j*X cancels on the key of X*j
    F, B, x, j = _split_tensor()
    prod = (B.from_base(x) + j) * (B.from_base(x) - j)
    assert isinstance(prod.coords, _FlatVector) and not prod.is_known_zero()
    assert 0 in prod.coords._map(8).values()
    assert prod.coords[8].is_exact_zero()
    assert prod.coords[0] == F.parse("(-1 + X^2)")
    assert all(c.is_exact_zero() for k, c in enumerate(prod.coords) if k)
    assert prod == B.from_base(F.parse("(-1 + X^2)"))


def innermost_monomial(domain, e):
    """The monomial with exponent e at the innermost level and 0 above it."""
    if isinstance(domain.coeff, SeriesDomain):
        return domain.series({0: innermost_monomial(domain.coeff, e)})
    return domain.series({e: domain.coeff.one})


def _flat_operand(draw, A, mode):
    """An element of the ConstantsAlgebra A: a coordinate tuple, or a
    flat-backed one, the product of a tuple with 1 or with another tuple.
    A third of the coordinates are drawn as in
    ``test_flat_product_matches_plain_loop``, with exponents from -3 to 3 at
    every level, and one may get a term with exponent +-60 at the innermost
    level, which widens the keys of the products it enters.  In the modes
    "truncated" and "inner O-term" a coordinate may be known only below a
    bound."""
    F = A.F

    def coords():
        out = [exact_element(draw, F) if draw(st.integers(0, 2)) == 0 else F.zero
               for _ in range(A.n)]
        if mode != "exact" and draw(st.booleans()):
            k = draw(st.integers(0, A.n - 1))
            out[k] = with_o_term(draw, F, out[k], mode == "inner O-term")
        if draw(st.booleans()):
            k = draw(st.integers(0, A.n - 1))
            out[k] = F.add(out[k], innermost_monomial(F, draw(st.sampled_from([-60, 60]))))
        return A.element(out)

    x = coords()
    kind = draw(st.sampled_from(["tuple", "times one", "product"]))
    return x if kind == "tuple" else x * (A.one if kind == "times one" else coords())


@pytest.mark.parametrize("case", range(len(FLAT_CASES)))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_chained_flat_products_match_plain_loop(case, data):
    F, consts = FLAT_CASES[case]
    A = ConstantsAlgebra(F, consts)
    mode = data.draw(st.sampled_from(["exact", "truncated", "inner O-term"]))
    if mode == "inner O-term" and not isinstance(F.coeff, SeriesDomain):
        mode = "truncated"
    a, b, c = (_flat_operand(data.draw, A, mode) for _ in range(3))
    flat = F.coeff.group.p is None if isinstance(F.coeff, SeriesDomain) else F.group.p is None
    for x in (a, b, c):
        if isinstance(x.coords, _FlatVector):  # only products over a Laurent tower
            assert flat and all(s.is_exact for s in x.coords)

    def mul(x, y):
        return plain_constants_mul(x, y, consts, F)

    ra, rb, rc = (list(x.coords) for x in (a, b, c))
    lhs, rhs = (a * b) * c, a * (b * c)
    for got, want in ((lhs, mul(mul(ra, rb), rc)), (rhs, mul(ra, mul(rb, rc)))):
        assert len(got.coords) == A.n
        assert all(identical(x, y) for x, y in zip(got.coords, want))
    # == between two flat-backed products, read off their maps, agrees with
    # F.eq coordinate by coordinate, and with == on the built coordinates
    for x, y in ((lhs, rhs), (a * b, b * a), (a * b, a * c)):
        if isinstance(x.coords, _FlatVector) and isinstance(y.coords, _FlatVector):
            assert (x == y) == (y == x) == all(F.eq(s, t) for s, t in zip(x.coords, y.coords))
            assert (x.coords == tuple(y.coords)) == (tuple(x.coords) == y.coords) == (x == y)


def test_products_of_vectors_at_different_shifts():
    # products with X^(+-60) in a factor pack their keys at a wider shift
    # than a * b, so == and the product (a * b) * c build the coordinates of
    # a * b
    _, _, D1, D2, _ = albert_setup(precision=8)
    B = tensor(D1, D2, BiquaternionElement)
    F = B.F
    a = B.element([F.parse("(1 + X^3)*Y + (2/3*X^(-2))")] + [F.zero] * 4 + [F.parse("(X)")]
                  + [F.zero] * 10)
    b = B.element([F.parse("(X^2)*Y^(-1)")] + [F.zero] * 8 + [F.parse("(5/7 + X)")] + [F.zero] * 6)
    c = B.element([F.parse("(X^60)*Y + (X^(-60))")] + [F.zero] * 2 + [F.parse("(3)")]
                  + [F.zero] * 12)
    up, down = F.parse("(X^60)"), F.parse("(X^(-60))")
    ab, wide = a * b, a.scale(up) * b.scale(down)  # the same value
    assert ab.coords.acc.shift < wide.coords.acc.shift
    assert ab == wide and wide == ab
    halves = a.scale(F.from_int(2)) * b.scale(F.parse("(1/2)"))  # over another denominator
    assert halves.coords.den != ab.coords.den and ab == halves and halves == ab
    assert not ab == a.scale(F.from_int(2)) * b
    higher = a.scale(up) * b.scale(F.parse("(X^120)"))  # X^180 * a * b
    assert ab.coords.acc.shift < higher.coords.acc.shift and not ab == higher
    # X^160 and X^(-96)*Y pack to the same key at shift 8, where both
    # products are made; == compares them at a shift wide enough for both
    v1 = B.from_base(F.parse("(X^80)")) * B.from_base(F.parse("(X^80)"))
    v2 = B.from_base(F.parse("(X^(-48))")) * B.from_base(F.parse("(X^(-48))*Y"))
    assert v1.coords.acc.shift == v2.coords.acc.shift == 8
    assert not v1 == v2 and not v2 == v1
    lhs, rhs = ab * c, a * (b * c)
    assert lhs.coords.acc.shift > ab.coords.acc.shift
    assert lhs == rhs
    want = plain_constants_mul(plain_constants_mul(a.coords, b.coords, B.constants, F),
                               c.coords, B.constants, F)
    assert all(identical(x, y) for x, y in zip(lhs.coords, want))
    assert all(identical(x, y) for x, y in zip(rhs.coords, want))


@pytest.mark.parametrize("seed", range(4))
def test_biquaternion_claim_products_read_the_maps(seed):
    # triples drawn as biquaternion-pairs draws them: the products with a
    # vector factor and == between two vectors read the maps, so no
    # coordinate of a vector is ever built
    _, _, D1, D2, _ = albert_setup()
    B = tensor(D1, D2, BiquaternionElement)
    draw = B.drawer(random.Random(f"{seed}:biquaternion-pairs"), n_terms=1, exp_lo=-1, exp_hi=2)
    for _ in range(8):
        a, b, c = draw(), draw(), draw()
        ab, bc = a * b, b * c
        lhs, rhs = ab * c, a * bc
        assert lhs == rhs
        for x in (ab, bc, lhs, rhs):
            assert isinstance(x.coords, _FlatVector)
            assert x.coords._series == [None] * B.n


def test_constants_json_roundtrip():
    D = D2ALG
    consts = structure_constants(D)
    text = constants_to_json(consts, R)
    data = json.loads(text)
    assert data["n"] == 9
    assert data["basis"] == D.labels
    assert len(data["matrices"]) == 9
    loaded = constants_from_json(text, R)
    for k in range(9):
        for i in range(9):
            for j in range(9):
                assert R.eq(loaded.matrices[k][i][j], consts.matrices[k][i][j])


def test_constants_json_parses_each_entry_string_once():
    # the q = 3 table over F_7((t)) has 729 entries but 7 distinct strings;
    # sharing the parsed values changes no entry
    _, QXY, D1, D2, _ = albert_setup(precision=8)
    H = hamilton_algebra()
    for F, consts in ((R, structure_constants(D2ALG)), (QXY, tensor(D1, D2).constants),
                      (H.F, structure_constants(H))):
        text = constants_to_json(consts, F)
        entries = [s for mat in json.loads(text)["matrices"] for row in mat for s in row]
        loaded = constants_from_json(text, F)
        got = [x for mat in loaded.matrices for row in mat for x in row]
        assert len(got) == len(entries) and len(set(entries)) < len(entries)
        assert len({id(x) for x in got}) == len(set(entries))  # one value per string
        for x, s in zip(got, entries):
            want = F.parse(s)
            if isinstance(want, Series):
                assert x.terms == want.terms and x.den == want.den
                assert x.precision == want.precision
            else:
                assert type(x) is type(want) and x == want


def test_hamilton_quaternions():
    H = hamilton_algebra()
    # u^2 = -1, X^2 = -1, Xu = -uX
    assert (H.u * H.u + H.one).is_known_zero()
    assert (H.X * H.X + H.one).is_known_zero()
    assert (H.X * H.u + H.u * H.X).is_known_zero()
    d = H.element([Fraction(1)] * 4)
    di = invert(d)
    assert di.coords == (Fraction(1, 4), Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4))
    assert (d * di - H.one).is_known_zero()


def test_is_division_needs_valued_field():
    # the residue criterion needs a valuation; over plain Q it must refuse
    # rather than guess (norm membership over Q is a different problem)
    H = hamilton_algebra()
    with pytest.raises(CycdivError):
        is_division(H)


def test_tower_algebra_division():
    ctx = hahn_tower_context(7, 3, precision=5)
    F = ctx.F
    D = CyclicAlgebra(ctx, F.constant(F.coeff.variable))
    div, dec = is_division(D)
    assert div and dec.certificate["kind"] == "residue"
    rng = random.Random(24)
    for _ in range(10):
        d1 = D.random_element(rng, n_terms=1, exp_lo=0, exp_hi=2)
        d2 = D.random_element(rng, n_terms=1, exp_lo=0, exp_hi=2)
        if d1.is_known_zero() or d2.is_known_zero():
            continue
        assert not (d1 * d2).is_known_zero()


def test_algebra_element_guards():
    with pytest.raises(CycdivError):
        D2ALG.element([R.one])  # wrong length
    other = CyclicAlgebra(CTX, R.from_int(3))
    with pytest.raises(DomainMismatchError):
        relation_mul(D2ALG.one, other.one)
    with pytest.raises(CycdivError):
        CyclicAlgebra(CTX, R.zero)
    # the same guards on K, a cyclic, a quaternion and a biquaternion algebra
    _, _, D1, D2, _ = albert_setup(precision=8)
    B = tensor(D1, D2, BiquaternionElement)
    kinds = [CTX, D2ALG, D1, B]
    for A, foreign in zip(kinds, kinds[1:] + kinds[:1]):
        for n in (1, A.n - 1, A.n + 1):
            with pytest.raises(CycdivError):
                A.element([A.F.one] * n)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(DomainMismatchError):
                op(A.one, foreign.one)
        assert repr(A.element([A.F.zero] * A.n)) == "0"


def test_element_repr():
    assert repr(CTX.element([R.one, R.from_int(2), R.zero])) == "(1) + (2)*u"
    assert repr(KummerContext(QQ, 2, Fraction(-1), Fraction(-1)).u) == "u"
    assert repr(D2ALG.X * D2ALG.u) == "(2)*u*X"
    u, one = CTX.u, CTX.one
    assert repr(u - one) == "(6) + (1)*u" and repr(one - u) == "(1) + (6)*u"
    assert repr(-u + u.scale(R.from_int(3))) == "(2)*u"
    _, _, D1, D2, _ = albert_setup(precision=8)
    assert repr(D1.one + D1.i * D1.j) == "((1)) + ((1))*ij"
    assert repr(tensor(D1, D2, BiquaternionElement).basis(5)) == "((1))*i(x)i"
