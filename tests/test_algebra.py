import json
import operator
import random
from fractions import Fraction

import pytest

from cycdiv import (QQ, BiquaternionElement, CyclicAlgebra, KummerContext, Series,
                    StructureConstants, constants_from_json, constants_mul, constants_to_json,
                    galois_sigma, invert, is_division, relation_mul, structure_constants,
                    tensor, zero_divisor_witness)
from cycdiv.errors import CycdivError, DomainMismatchError, ZeroDivisorError
from cycdiv.verify import albert_setup, hahn_tower_context, hamilton_algebra, laurent_context
from test_series_kernels import identical

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
    b = D.from_kummer(CTX.element([R.from_int(3), R.from_int(1), R.from_int(5)]))
    sb = D.from_kummer(galois_sigma(CTX.element([R.from_int(3), R.from_int(1), R.from_int(5)]), 1))
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
    """a M_k b^T with every nonzero entry multiplied in, +-1 ones included."""
    out = [F.zero] * constants.n
    for k, mat in enumerate(constants.matrices):
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                lam = mat[i][j]
                if not (F.is_known_zero(ai) or F.is_known_zero(bj) or F.is_known_zero(lam)):
                    out[k] = F.add(out[k], F.mul(F.mul(ai, bj), lam))
    return out


def _constants_cases():
    _, QXY, D1, D2, _ = albert_setup(precision=8)
    tower = hahn_tower_context(7, 3, precision=5)
    yield D2ALG.F, structure_constants(D2ALG), D2ALG.random_element, 9
    H = hamilton_algebra()
    yield H.F, structure_constants(H), H.random_element, 4
    T = CyclicAlgebra(tower, tower.F.constant(tower.F.coeff.variable))
    yield T.F, structure_constants(T), T.random_element, 9
    B = tensor(D1, D2)
    yield QXY, B.constants, B.random_element, 16


@pytest.mark.parametrize("case", range(4))
def test_constants_mul_matches_plain_loop(case):
    F, consts, sample, n = list(_constants_cases())[case]
    loaded = constants_from_json(constants_to_json(consts, F), F)
    signs = [[sign for _, _, sign in entries] for entries in consts.sparse(F).values()]
    assert signs == [[sign for _, _, sign in entries] for entries in loaded.sparse(F).values()]
    # the entries printed as 1 or -1 (an O-term would show) take the add/sub path
    units = {F.to_str(F.one), F.to_str(F.neg(F.one))}
    tagged = sum(sign != 0 for row in signs for sign in row)
    assert tagged == sum(F.to_str(lam) in units for mat in consts.matrices
                         for row in mat for lam in row) > 0
    assert n != 16 or tagged == 108
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
    # 1 and -1 known only up to an O-term, at the outer or the inner level,
    # are no +-1 entries: multiplying by them lowers the product's precision
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
    assert [sign for _, _, sign in consts.sparse(F)[(0, 0)]] == [0, 0, 1]
    got = constants_mul([a, F.zero, F.zero], [b, F.zero, F.zero], consts, F)
    want = plain_constants_mul([a, F.zero, F.zero], [b, F.zero, F.zero], consts, F)
    assert all(identical(x, y) for x, y in zip(got, want))
    assert "O(" in F.to_str(got[0]) and "O(" not in F.to_str(got[2])


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
