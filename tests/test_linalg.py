"""The live-column elimination core against the full-width loops it replaced.

``ref_solve_linear`` is the Gauss–Jordan solve in plain ``Series`` (or
base-field) arithmetic over every column.  The truncated solve, the loop
over every series domain (on the F_p kernel of ``series`` over F_p((t))),
must give structurally identical results: the same inverse coordinates with
the same O-terms and the same errors, except that a matrix the truncated
solve finds singular but that has no kernel is now a PrecisionError: an
exact one that is singular only at the working precision, or one with an
entry truncated at some level.  The reference solve skips only exact zeros:
a multiplier known only to an O-term bounds the precision of the row it
reduces.  An exact system over a base field gets the same exact solution
from fraction-free elimination; one over F_p((t)) gets the solution of
``ref_bareiss`` cut at the truncated solve's working precision, or, where
that reference is too slow, agrees with ``ref_solve_linear`` on every
jointly known coefficient, is known at least as far, and solves the system.

Every kernel is the Cramer kernel of fraction-free elimination, over every
exact domain.  ``ref_bareiss`` is that elimination as Gauss–Jordan over every
column, in plain ``Series`` (or base-field) arithmetic: the forward
elimination and back-substitution of the library must give its solutions and
kernels structurally.  ``ref_kernel_vector``, the fraction-field kernel with
its denominators cleared, checks the Cramer kernel up to an exact multiple,
since both are read off the first column without a pivot of the same reduced
echelon form; its never-reduced fractions swell at n = 4, so only for n <= 3.
A matrix with an entry truncated at some level has no kernel to certify:
``kernel_vector`` raises PrecisionError.

``invert`` over K = F_p((u)) is checked against the solve over F that it
replaces for exact inputs (``left_mul_matrix`` and ``solve_linear``): the same
outcome, equal coefficients where both are known and no coordinate known to
less, and kernels that both products annihilate.
"""

import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cycdiv import (QQ, CyclicAlgebra, KummerContext, PrimeField, Series, hahn, laurent,
                    laurent_context)
from cycdiv import algebra as algebra_module, linalg
from cycdiv.algebra import (ConstantsAlgebra, constants_mul, invert, left_mul_matrix,
                            relation_mul, structure_constants, zero_divisor_witness)
from cycdiv.basefields import Domain
from cycdiv.cli import main
from cycdiv.errors import CycdivError, PrecisionError, ZeroDivisorError
from cycdiv.kummer import _to_u_series
from cycdiv.linalg import kernel_vector, solve_linear
from cycdiv.series import INFINITY, SeriesDomain
from cycdiv.verify import albert_setup, hahn_tower_context

from test_series_kernels import identical, ref_add, ref_mul

# -- references ---------------------------------------------------------------


class RefFractionField(Domain):
    """Fractions (num, den) over an integral domain, no reduction."""

    def __init__(self, base):
        self.base = base
        self.zero = (base.zero, base.one)
        self.one = (base.one, base.one)

    def inject(self, a):
        return (a, self.base.one)

    def add(self, x, y):
        b = self.base
        return (b.add(b.mul(x[0], y[1]), b.mul(y[0], x[1])), b.mul(x[1], y[1]))

    def neg(self, x):
        return (self.base.neg(x[0]), x[1])

    def mul(self, x, y):
        b = self.base
        return (b.mul(x[0], y[0]), b.mul(x[1], y[1]))

    def invert(self, x):
        if self.base.is_known_zero(x[0]):
            raise ZeroDivisionError("inverse of zero fraction")
        return (x[1], x[0])

    def is_zero(self, x):
        return self.base.is_known_zero(x[0])


def _ref_pivot_key(domain, value):
    if isinstance(domain, SeriesDomain):
        return value.valuation_lower_bound()
    return 0


def ref_solve_linear(domain, matrix, rhs, precision=None):
    """Gauss–Jordan over all n columns of every row."""
    n = len(matrix)
    series_mode = isinstance(domain, SeriesDomain)
    if series_mode:
        work = precision if precision is not None else domain.default_precision
        slack = 10
        M = [[e.truncate(work + slack) for e in row] for row in matrix]
        b = [e.truncate(work + slack) for e in rhs]
    else:
        M = [list(row) for row in matrix]
        b = list(rhs)

    def _invert(v):
        if series_mode:
            ach = INFINITY if v.precision is None else v.precision - 2 * v.valuation()
            return v.invert(min(work + slack, ach))
        return domain.invert(v)

    for col in range(n):
        pivot_row = None
        best = None
        for r in range(col, n):
            if not domain.is_known_zero(M[r][col]):
                key = _ref_pivot_key(domain, M[r][col])
                if best is None or key < best:
                    best, pivot_row = key, r
        if pivot_row is None:
            kernel = None
            if all(_all_exact(row) for row in matrix):
                kernel = ref_cramer_kernel(domain, matrix)
            raise ZeroDivisorError("singular linear system", kernel=kernel)
        M[col], M[pivot_row] = M[pivot_row], M[col]
        b[col], b[pivot_row] = b[pivot_row], b[col]
        pinv = _invert(M[col][col])
        M[col] = [domain.mul(pinv, e) for e in M[col]]
        b[col] = domain.mul(pinv, b[col])
        for r in range(n):
            # an O-term multiplier is no zero: it bounds the row's precision
            if r == col or domain.is_zero(M[r][col]):
                continue
            f = M[r][col]
            M[r] = [domain.sub(M[r][j], domain.mul(f, M[col][j])) for j in range(n)]
            b[r] = domain.sub(b[r], domain.mul(f, b[col]))
    return b


def exact_everywhere(e):
    """A base-field element, or an EXACT series whose coefficients are."""
    return not isinstance(e, Series) or (e.is_exact and all(map(exact_everywhere,
                                                                e.coeffs.values())))


def _all_exact(row):
    return all(map(exact_everywhere, row))


def ref_kernel_vector(domain, matrix):
    """Fraction-field elimination over all n columns, then cleared denominators."""
    n = len(matrix)
    ff = RefFractionField(domain)
    M = [[ff.inject(e) for e in row] for row in matrix]
    pivots = {}  # column -> row
    row = 0
    for col in range(n):
        pr = None
        for r in range(row, n):
            if not ff.is_zero(M[r][col]):
                pr = r
                break
        if pr is None:
            continue
        M[row], M[pr] = M[pr], M[row]
        pinv = ff.invert(M[row][col])
        M[row] = [ff.mul(pinv, e) for e in M[row]]
        for r in range(n):
            if r == row or ff.is_zero(M[r][col]):
                continue
            f = M[r][col]
            M[r] = [ff.sub(M[r][j], ff.mul(f, M[row][j])) for j in range(n)]
        pivots[col] = row
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    fc = free[0]
    x = [ff.zero] * n
    x[fc] = ff.one
    for col, r in pivots.items():
        x[col] = ff.neg(M[r][fc])
    cleared = []
    for i, (num, den) in enumerate(x):
        scale = domain.one
        for j, (_, dj) in enumerate(x):
            if j != i:
                scale = domain.mul(scale, dj)
        cleared.append(domain.mul(num, scale))
    if all(domain.is_known_zero(c) for c in cleared):
        raise CycdivError("kernel clearing produced the zero vector")
    return cleared


def _ref_divide(domain, a, b):
    """a / b where b divides a: in a base field a * b^-1; for EXACT series
    (Laurent, Hahn or towers), long division from the lowest terms, each
    coefficient divided one level down."""
    if not isinstance(domain, SeriesDomain):
        return domain.mul(a, domain.invert(b))
    cd = domain.coeff
    rest, bc = dict(a.coeffs), dict(b.coeffs)
    lb, hb = min(bc), max(bc)
    out = {}
    while rest:
        e = min(rest)
        assert e - lb <= max(rest) - hb, "inexact division"
        c = out[e - lb] = _ref_divide(cd, rest[e], bc[lb])
        for eb, cb in bc.items():
            k = e - lb + eb
            v = cd.sub(rest.get(k, cd.zero), cd.mul(c, cb))
            if cd.is_zero(v):
                rest.pop(k, None)
            else:
                rest[k] = v
    return domain.series(out)


def ref_bareiss(domain, matrix, rhs, precision):
    """The fraction-free solve as it was before forward elimination and
    back-substitution: Gauss–Jordan Bareiss (1968) over every column of every
    row of [M | rhs], in EXACT ``Series`` (or base-field) arithmetic.
    ("x", solution): x_l = N_l * det^-1 cut at t^precision, N_l the pivot
    row's right-hand side; ("kernel", the Cramer kernel): the last pivot at
    the first column without a pivot and -row[free] at each pivot column."""
    n = len(matrix)
    M = [[*row, b] for row, b in zip(matrix, rhs)]
    piv = domain.one
    pivots, free, top = {}, None, 0
    for col in range(n):
        pr = next((r for r in range(top, n) if not domain.is_zero(M[r][col])), None)
        if pr is None:
            free = col if free is None else free
            continue
        M[top], M[pr] = M[pr], M[top]
        prev, piv = piv, M[top][col]
        for r in range(n):
            if r != top:
                f = M[r][col]
                M[r] = [_ref_divide(domain, piv * x - f * y, prev) for x, y in zip(M[r], M[top])]
        pivots[col] = top
        top += 1
    if free is not None:
        kernel = [domain.zero] * n
        kernel[free] = piv
        for col, r in pivots.items():
            kernel[col] = domain.neg(M[r][free])
        return "kernel", kernel
    nums = [row[n] for row in M]
    lows = [x.valuation() for x in nums if not domain.is_zero(x)]
    if not lows:
        return "x", [domain.zero] * n
    inv = piv.invert(precision - min(lows))
    return "x", [domain.zero if x.is_exact_zero() else (x * inv).truncate(precision)
                 for x in nums]


def ref_cramer_kernel(domain, matrix):
    """The Cramer kernel of ``ref_bareiss``, or None for a nonsingular M."""
    kind, value = ref_bareiss(domain, matrix, [domain.zero] * len(matrix), None)
    return value if kind == "kernel" else None


# -- comparison -----------------------------------------------------------------


def same_vector(got, want):
    if got is None or want is None:
        return got is want
    return len(got) == len(want) and all(
        identical(a, b) if isinstance(a, Series) else a == b for a, b in zip(got, want))


def same_kernel(domain, matrix, got, want):
    """``got`` is ``want``, the Cramer kernel of ``ref_bareiss``,
    structurally, nonzero and annihilated by M exactly; for n <= 3 also an
    exact multiple of the kernel of ``ref_kernel_vector``."""
    if not same_vector(got, want):
        return False
    if got is None:
        return True
    add, sub, mul, zero = domain.add, domain.sub, domain.mul, domain.is_zero
    if all(map(zero, got)) or not all(zero(reduce(add, map(mul, row, got))) for row in matrix):
        return False
    if len(matrix) > 3:
        return True
    ref = ref_kernel_vector(domain, matrix)
    return all(zero(sub(mul(ki, rj), mul(kj, ri)))
               for ki, ri in zip(got, ref) for kj, rj in zip(got, ref))


def solve_outcome(solve, domain, matrix, rhs):
    """("x", solution), ("kernel", kernel or None) or the library error's class."""
    try:
        return "x", solve(domain, matrix, rhs)
    except ZeroDivisorError as exc:
        return "kernel", exc.kernel
    except (CycdivError, ZeroDivisionError) as exc:
        return type(exc)


def exact(matrix):
    return all(_all_exact(row) for row in matrix)


def working_precision(domain):
    return domain.default_precision + linalg._SLACK


def check_against_references(domain, matrix, rhs, kernels=True):
    """Solve, and with ``kernels`` also kernel_vector, against the references:
    ``ref_bareiss`` at the working precision for an EXACT system over
    F_p((t)), ``ref_solve_linear`` for every other."""
    got = solve_outcome(solve_linear, domain, matrix, rhs)
    if domain._laurent_p and exact([*matrix, rhs]):
        want = ref_bareiss(domain, matrix, rhs, working_precision(domain))
    else:
        want = solve_outcome(ref_solve_linear, domain, matrix, rhs)
    if want == ("kernel", None):
        want = PrecisionError  # singular only at the working precision, or truncated
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    elif got[0] == "kernel":
        assert want[0] == "kernel" and same_kernel(domain, matrix, got[1], want[1])
    else:
        assert want[0] == "x" and same_vector(got[1], want[1])
    if kernels and exact(matrix):
        assert same_kernel(domain, matrix, kernel_vector(domain, matrix),
                           ref_cramer_kernel(domain, matrix))
    elif kernels:
        with pytest.raises(PrecisionError, match="EXACT at every level"):
            kernel_vector(domain, matrix)
    return got


# -- inputs: cyclic algebras with alpha = beta^q ------------------------------------

CONTEXTS = {7: laurent_context(7, 3, precision=12), 11: laurent_context(11, 5, precision=8)}


def split_algebra(p, beta):
    """The cyclic algebra over F_p((t)) with alpha = beta^q, where X - beta
    is a zero divisor."""
    ctx = CONTEXTS[p]
    return CyclicAlgebra(ctx, ctx.F.from_int(pow(beta, ctx.q, p)))


@st.composite
def algebra_elements(draw):
    """Units 1 + g, g of positive valuation, and zero divisors g*(X - beta),
    g with one constant coordinate; coordinates exact or truncated."""
    p = draw(st.sampled_from([7, 11]))
    beta = draw(st.integers(1, p - 1))
    D = split_algebra(p, beta)
    F = D.F
    truncate_at = draw(st.one_of(st.none(), st.integers(2, 14)))
    coords = [F.zero] * D.n
    if draw(st.booleans()):
        for idx in draw(st.sets(st.integers(0, D.n - 1), min_size=1, max_size=3 if p == 7 else 2)):
            exps = draw(st.dictionaries(st.integers(1, 5), st.integers(1, p - 1),
                                        min_size=1, max_size=2))
            coords[idx] = F.series(exps)
        d = D.element(coords) + D.one
    else:
        coords[draw(st.integers(0, D.n - 1))] = F.from_int(draw(st.integers(1, p - 1)))
        d = D.element(coords) * (D.X - D.from_base(F.from_int(beta)))
    if truncate_at is not None:
        d = D.element([c.truncate(truncate_at) for c in d.coords])
    return d


def check_exact_against_truncated(domain, matrix, rhs):
    """An EXACT system over F_p((t)) too large for ``ref_bareiss``, which
    took 0.9 to 1.5 s on a 25 x 25 unit with two 2-term coordinates, against
    0.05 s for ``ref_solve_linear`` (Python 3.11, 2 vCPUs): the solve agrees
    with ``ref_solve_linear`` on every jointly known coefficient, each
    coordinate is known at least as far, and M x agrees with rhs; a unit the
    reference cannot pivot on at its working precision is only checked for
    the last.  A kernel is the reference's, as ``check_against_references``
    checks it."""
    got = solve_outcome(solve_linear, domain, matrix, rhs)
    want = solve_outcome(ref_solve_linear, domain, matrix, rhs)
    assert not isinstance(got, type)
    if got[0] == "kernel":
        assert want[0] == "kernel" and same_kernel(domain, matrix, got[1], want[1])
        return got
    x = got[1]
    if want[0] == "x":
        assert all(a.agrees_to_precision(b) and precision_of(a) >= precision_of(b)
                   for a, b in zip(x, want[1]))
    else:
        assert want == ("kernel", None)  # singular only at the working precision
    for row, b in zip(matrix, rhs):
        assert reduce(domain.add, map(domain.mul, row, x)).agrees_to_precision(b)
    return got


@given(algebra_elements())
@settings(max_examples=40, deadline=None)
def test_algebra_solves_and_kernels_match_full_width(d):
    # a singular exact matrix reaches kernel_vector through the solve; the
    # reference's unreduced fractions of a unit's exact kernel grow too fast
    F, matrix, rhs = d.algebra.F, left_mul_matrix(d), list(d.algebra.one.coords)
    if d.algebra.n == 25 and exact(matrix):
        got = check_exact_against_truncated(F, matrix, rhs)
    else:
        got = check_against_references(F, matrix, rhs, kernels=False)
    if not isinstance(got, type) and got[0] == "kernel":
        F = d.algebra.F
        assert all(F.is_zero(c) for c in (d * d.algebra.element(got[1])).coords)


@pytest.mark.parametrize("p, beta, idx", [(7, 3, 0), (7, 5, 4), (11, 2, 7)])
def test_zero_divisor_kernels_at_default_precision(p, beta, idx):
    ctx = laurent_context(p, 3 if p == 7 else 5)
    D = CyclicAlgebra(ctx, ctx.F.from_int(pow(beta, ctx.q, p)))
    coords = [D.F.zero] * D.n
    coords[idx] = D.F.from_int(2)
    d = D.element(coords) * (D.X - D.from_base(D.F.from_int(beta)))
    got = check_against_references(D.F, left_mul_matrix(d), list(D.one.coords))
    assert got[0] == "kernel" and got[1] is not None


# -- inputs: small matrices over F_p((t)), Q((t)), the Z[1/7] Hahn field and Q -----------

QT = laurent(QQ, "t", 4)
H7 = hahn(PrimeField(7), "t", 7, 2)
FP7 = laurent(PrimeField(7), "t", 4)
FP11 = laurent(PrimeField(11), "t", 4)
SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def entries(draw, domain, terms=3):
    """An entry: exact, truncated or known only to an O-term, with negative
    exponents; over F_p((t)) sometimes dense with 8 to 12 terms, so that the
    F_p kernel's products take the Kronecker branch."""
    if domain is QQ:
        return draw(SMALL)
    exps = st.integers(-3, 6)
    if domain is H7:
        exps = st.one_of(exps, st.builds(Fraction, st.integers(-21, 42), st.sampled_from([7, 49])))
    if domain is QT:
        coeffs = SMALL.filter(bool)
    else:
        coeffs = st.integers(1, domain.coeff.p - 1)
    precision = draw(st.one_of(st.none(), st.none(), st.integers(-2, 9)))
    if domain in (FP7, FP11) and terms > 1 and draw(st.integers(0, 3)) == 0:
        return domain.series(draw(st.dictionaries(st.integers(-3, 9), coeffs,
                                                  min_size=8, max_size=12)), precision)
    return domain.series(draw(st.dictionaries(exps, coeffs, max_size=terms)), precision)


@st.composite
def small_systems(draw):
    """n x n systems, n <= 4, and some made singular: a zero column, or a
    column that is a combination of the others."""
    domain = draw(st.sampled_from([QT, H7, QQ, FP7, FP11]))
    n = draw(st.integers(1, 4))
    matrix = [[draw(entries(domain)) for _ in range(n)] for _ in range(n)]
    rhs = [draw(entries(domain)) for _ in range(n)]
    how = draw(st.sampled_from(["any", "zero column", "combination"]))
    if how != "any":
        j = draw(st.integers(0, n - 1))
        weights = {i: draw(entries(domain, terms=1)) for i in range(n) if i != j}
        for row in matrix:
            value = domain.zero
            if how == "combination":
                for i, w in weights.items():
                    value = domain.add(value, domain.mul(w, row[i]))
            row[j] = value
    return domain, matrix, rhs


# cut one exponent too late, the truncated solve would keep 6*t below O(t)
@example((FP7, [[FP7.parse("1 + t"), FP7.one, FP7.zero], [FP7.parse("1 + O(t)"), FP7.zero, FP7.zero],
                [FP7.zero, FP7.zero, FP7.one]], [FP7.one, FP7.zero, FP7.zero]))
@given(small_systems())
@settings(max_examples=500, deadline=None)
def test_small_solves_and_kernels_match_full_width(system):
    check_against_references(*system)


class RouteSpy:
    """The class name of the route of every ``_eliminate`` call."""

    def __init__(self, monkeypatch):
        self.seen = []
        eliminate = linalg._eliminate

        def spy(rows, route):
            self.seen.append(type(route).__name__)
            return eliminate(rows, route)

        monkeypatch.setattr(linalg, "_eliminate", spy)

    def take(self):
        seen, self.seen = self.seen, []
        return seen


def test_f_p_laurent_systems_take_the_loop_and_kernels_take_bareiss(monkeypatch):
    """Over F_p((t)), as over every series domain, the truncated solve takes
    ``_Loop``; every kernel, and every EXACT system, over F as over K,
    takes ``_Bareiss``."""
    spy = RouteSpy(monkeypatch)
    D = split_algebra(7, 3)
    F = D.F
    unit = D.one + D.element([F.parse("t + 2*t^3")] * D.n)
    truncated = D.element([F.parse("1 + t + O(t^2)")] + [F.parse("O(t^2)")] * (D.n - 1))
    zero_divisor = D.element([F.from_int(2)] + [F.zero] * (D.n - 1)) * (
        D.X - D.from_base(F.from_int(3)))
    # an exact zero divisor over F is eliminated once, its kernel read off
    # the rows of the solve
    for d, routes in ((unit, ["_Bareiss"]), (truncated, ["_Loop"]),
                      (zero_divisor, ["_Bareiss"])):
        matrix, rhs = left_mul_matrix(d), list(D.one.coords)
        check_against_references(F, matrix, rhs, kernels=False)
        assert spy.take() == routes  # the references make no _eliminate call
    # an exact matrix gets its Cramer kernel; a truncated one has no
    # certified kernel and is eliminated by no route
    matrix = left_mul_matrix(zero_divisor)
    assert same_kernel(F, matrix, kernel_vector(F, matrix), ref_cramer_kernel(F, matrix))
    assert spy.take() == ["_Bareiss"]
    matrix = [[F.parse("1 + O(t^3)"), F.one], [F.one, F.one]]
    with pytest.raises(PrecisionError, match="EXACT at every level"):
        kernel_vector(F, matrix)
    assert spy.take() == []
    # invert's solve over K = F_7((u)): one elimination, a unit's and a zero
    # divisor's alike
    for d, outcome in ((unit, "x"), (zero_divisor, "kernel")):
        (got, _), domains = invert_outcome(d)
        assert (got, domains) == (outcome, [D.kummer._u_field]) and spy.take() == ["_Bareiss"]


def test_other_domains_take_the_loop(monkeypatch, capsys):
    spy = RouteSpy(monkeypatch)
    _, Y2, _, _, _ = albert_setup(precision=4)
    X, Y = Y2.constant(Y2.coeff.variable), Y2.variable
    tower = [[Y2.one + X * Y, X], [Y * Y, Y2.one + Y]]
    H = hahn_tower_context(7, 3, precision=3).F
    hahn_rows = [[H.parse("(1 + x) + (2)*t^(1/7)"), H.parse("(x)*t")],
                 [H.parse("(3)*t^(-1/7)"), H.one]]
    qt_rows = [[QT.parse("1 + t"), QT.parse("2*t")], [QT.parse("1/2"), QT.parse("3 + t^2")]]
    for domain, matrix in ((Y2, tower), (H, hahn_rows), (QT, qt_rows)):
        check_against_references(domain, matrix, [domain.one, domain.zero])
        assert spy.take() == ["_Loop", "_Bareiss"]  # the truncated solve, then the kernel
    # an exact system over the base field Q takes fraction-free elimination
    code = main(["algebra", "invert", "--rationals", "--q", "2", "--alpha", "-1",
                 "--d", "1;1;1;1"])
    assert code == 0 and spy.take() == ["_Bareiss"]
    assert capsys.readouterr().out == "1/4 + -1/4*u + -1/4*X + -1/4*u*X\n"


def test_free_column_before_pivots_is_kept():
    """The first free column comes before later pivot columns, so the
    elimination must go on past it: the kernel is read off the rows below."""
    t = QT.variable
    two, three, six = QT.from_int(2), QT.from_int(3), QT.from_int(6)
    zero_column = [[QT.zero, QT.one + t, t], [QT.zero, t * t, three], [QT.zero, two, QT.one - t]]
    doubled_column = [[QT.one, two, t], [t, t + t, QT.one], [three, six, t * t]]
    for matrix in (zero_column, doubled_column):
        kernel = kernel_vector(QT, matrix)
        assert same_kernel(QT, matrix, kernel, ref_cramer_kernel(QT, matrix))
        assert not all(QT.is_zero(c) for c in kernel)
        for row in matrix:
            assert QT.is_zero(sum((a * x for a, x in zip(row, kernel)), QT.zero))


def test_readme_zero_divisors_over_q_and_a_hahn_tower(monkeypatch, capsys):
    """``algebra invert`` on a zero divisor over Q and over the Hahn tower
    F_7((x^G))((t^G)): the kernel comes from fraction-free elimination in
    the arithmetic of the domain, over Q in the one elimination of the
    solve, over the tower once the truncated solve meets a column without a
    pivot.  The rewriting-rule product annihilates it."""
    spy = RouteSpy(monkeypatch)
    cases = [(KummerContext(QQ, 2, Fraction(-1), Fraction(-1)), "1", "1;0;1;0",
              ["--rationals", "--q", "2"], "-1 + X", ["_Bareiss"]),
             (hahn_tower_context(7, 3, precision=20), "6", "4;0;0;1;0;0;0;0;0",
              ["--hahn", "7"], "((2)) + ((3))*X + ((1))*X^2", ["_Loop", "_Bareiss"])]
    for ctx, alpha, coords, flags, printed, routes in cases:
        D = CyclicAlgebra(ctx, ctx.F.parse(alpha))
        d = D.element([D.F.parse(c) for c in coords.split(";")])
        with pytest.raises(ZeroDivisorError) as caught:
            invert(d)
        assert spy.take() == routes
        kernel = D.element(caught.value.kernel)
        assert not kernel.is_known_zero()
        assert all(D.F.is_zero(c) for c in relation_mul(d, kernel).coords)
        assert main(["algebra", "invert", *flags, "--alpha", alpha, "--d", coords]) == 1
        assert capsys.readouterr().out == f'{{"error": "zero divisor", "kernel": "{printed}"}}\n'
        assert spy.take() == routes


def test_seeded_4x4_hahn_kernel_within_a_second():
    """A singular 4 x 4 system over the Z[1/7] Hahn field, entries of 2 or 3
    terms with exponents in (1/49)Z, the last column a combination of the
    others with one-term weights.  Never-reduced fractions took more than
    8 s on it, fraction-free elimination 0.2 s (Python 3.11, 2 vCPUs)."""
    rng = random.Random(3)

    def entry(terms):
        return H7.series({Fraction(rng.randint(-21, 42), 49): rng.randint(1, 6)
                          for _ in range(terms)})

    matrix = [[entry(rng.randint(2, 3)) for _ in range(4)] for _ in range(4)]
    weights = [entry(1) for _ in range(3)]
    for row in matrix:
        row[3] = weights[0] * row[0] + weights[1] * row[1] + weights[2] * row[2]
    start = time.perf_counter()
    kernel = kernel_vector(H7, matrix)
    assert time.perf_counter() - start < 1
    assert not all(H7.is_zero(c) for c in kernel)
    assert all(H7.is_zero(sum((a * x for a, x in zip(row, kernel)), H7.zero)) for row in matrix)
    assert same_vector(kernel, ref_cramer_kernel(H7, matrix))


@pytest.mark.parametrize("inner", [QQ, PrimeField(7)], ids=["Q((x))((t))", "F_7((x))((t))"])
@pytest.mark.parametrize("n", [3, 4])
def test_tower_kernels_match_the_reference(inner, n):
    """Singular n x n systems over a tower whose entries have coefficients of
    two terms: every exact division divides those coefficients one level
    down, by leading coefficients that are no monomials."""
    X = laurent(inner, "x")
    T = laurent(X, "t")
    rng = random.Random(7)

    def coeff():
        return X.series({e: inner.from_int(rng.randint(1, 6)) for e in rng.sample(range(-2, 4), 2)})

    def entry(terms):
        return T.series({rng.randint(-1, 3): coeff() for _ in range(terms)})

    matrix = [[entry(2) for _ in range(n)] for _ in range(n)]
    weights = [entry(1) for _ in range(n - 1)]
    for row in matrix:
        row[n - 1] = sum((w * a for w, a in zip(weights, row)), T.zero)
    kernel = kernel_vector(T, matrix)
    assert same_kernel(T, matrix, kernel, ref_cramer_kernel(T, matrix))
    assert all(T.is_zero(sum((a * x for a, x in zip(row, kernel)), T.zero)) for row in matrix)


# -- the F_p kernel in elimination ------------------------------------------------

KERNEL_FIELDS = {7: laurent(PrimeField(7), "t", 30), 11: laurent(PrimeField(11), "t", 30)}


@st.composite
def kernel_entries(draw, R, exact=False):
    """An entry over R = F_p((t)) for the F_p kernel: dense (a run of up to 45
    exponents, a few of them zero), sparse (up to 8 terms over 3000
    exponents), an O-term alone or the exact zero; valuations down to -10;
    EXACT or truncated, unless ``exact``."""
    p, lo = R.coeff.p, draw(st.integers(-10, 10))
    kind = draw(st.sampled_from(["dense", "sparse", "O-term", "zero"]))
    if kind == "zero" or kind == "O-term" and exact:
        return R.zero
    if kind == "O-term":
        return R.series({}, lo)
    if kind == "dense":  # short runs take slot width 1 over F_7, long ones width 2
        n = draw(st.one_of(st.integers(1, 7), st.integers(8, 45)))
        coeffs = {lo + i: draw(st.integers(0, p - 1)) for i in range(n)}
    else:
        coeffs = {e: draw(st.integers(1, p - 1))
                  for e in draw(st.lists(st.integers(lo, lo + 3000), min_size=1, max_size=8))}
    coeffs[lo] = draw(st.integers(1, p - 1))
    precision = None if exact or draw(st.booleans()) else max(coeffs) + draw(st.integers(-5, 25))
    return R.series(coeffs, precision)


@st.composite
def kernel_cases(draw):
    """R = F_7((t)) or F_11((t)); x, y, b, f, g truncated at one working
    precision, as the truncated solve's entries are; a, bb, c, d EXACT and v
    EXACT and nonzero."""
    R = KERNEL_FIELDS[draw(st.sampled_from([7, 11]))]
    work = draw(st.integers(-5, 60))
    truncated = [draw(kernel_entries(R)).truncate(work) for _ in range(5)]
    exact = [draw(kernel_entries(R, exact=True)) for _ in range(4)]
    return R, truncated, exact + [draw(kernel_entries(R, exact=True).filter(lambda s: s.terms))]


def _dense(R, n, precision=None):
    return R.series({i: 1 + i % 6 for i in range(n)}, precision)


# over F_7 the 30-term f and a enter products at slot widths 1 and 2
R7 = KERNEL_FIELDS[7]
TWO_WIDTHS = (R7, [_dense(R7, n, 40) for n in (30, 5, 20, 30, 30)],
              [_dense(R7, n) for n in (30, 3, 20, 5, 2)])
# a*bv + cv*a = 7*(1 + t): a map of multiples of 7, and the quotient 0
CANCELLING = (R7, [_dense(R7, 2, 5)] * 5,
              [R7.one, R7.one, R7.from_int(6), R7.zero, R7.parse("1 + t")])


@example(TWO_WIDTHS)
@example(CANCELLING)
@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_fp_kernel_matches_references(case):
    """x - f*b as the truncated solve forms it (``_Loop.reduce_row``), and the
    Bareiss quotient -(sum of a*b)/v (``_quotient``), against ``ref_mul`` and
    ``ref_add``, stored form for stored form.  Each operand enters more than
    one product, at the slot widths its partners ask for, and one series is
    both operands of a product."""
    R, (x, y, b, f, g), (a, bb, c, d, v) = case
    check_reduce_row(R, [x, y, b], f, g)
    bv, cv, dv = ref_mul(bb, v), ref_mul(c, v), ref_mul(d, v)
    # the sum is v*(a*bb + c*a + v*d*d): v divides it
    got = linalg._quotient(R, ((a, bv), (cv, a), (dv, dv)), v)
    want = ref_add(ref_add(ref_mul(a, bb), ref_mul(c, a)), ref_mul(v, ref_mul(d, d)))
    assert identical(got, ref_add(R.zero, want, subtract=True))


def check_reduce_row(R, prow, f, g):
    """``_Loop.reduce_row`` of the row ``prow[1:] + [f]`` by f and then by g
    on the pivot row ``prow``, each step against the references; the
    entries of ``prow`` keep their packs from one step to the next."""
    loop = linalg._Loop(R, None)  # reduce_row reads no working precision
    row = [*prow[1:], f]
    for m in (f, g):
        want = [ref_add(x, ref_mul(m, b), subtract=True) for x, b in zip(row, prow)]
        loop.reduce_row(row, m, prow, range(len(row)))
        assert all(identical(got, w) for got, w in zip(row, want))


FP7_TOWER = laurent(laurent(PrimeField(7), "x", 4), "t", 4)
DIVIDE_DOMAINS = {"F_7((t))": FP7, "Q((t))": QT, "F_7((x))((t))": FP7_TOWER}


@pytest.mark.parametrize("name, a, b", [
    ("F_7((t))", "1 + t", "1 + 2*t"),  # a remainder past the quotient's end
    ("F_7((t))", "3", "1 + t"),  # a dividend shorter than the divisor
    ("F_7((t))", "t^(-2) + 5*t^4", "t^(-1) + t + t^3"),
    ("Q((t))", "1 + t", "1 + 2*t"),
    ("Q((t))", "1/2", "1 + t^2"),
    ("F_7((x))((t))", "(1) + (x)*t", "(1) + (1)*t"),
    ("F_7((x))((t))", "(1 + x)", "(1 + 2*x)"),  # the coefficients do not divide
])
def test_divide_refuses_a_pair_that_does_not_divide(name, a, b):
    """``_divide``'s check that nothing remains: dense over F_7((t)), on the
    lowest terms over Q((t)), and over a tower at either level."""
    domain = DIVIDE_DOMAINS[name]
    with pytest.raises(CycdivError, match="inexact division in fraction-free elimination"):
        linalg._divide(domain, domain.parse(a), domain.parse(b))


@st.composite
def long_division_cases(draw):
    """A divisor b over F_7((t)) or F_11((t)) of 1 to 64 terms, its exponents
    a run or spread 2 or 8 apart on average, valuations down to -10; a
    dividend, 1 or an EXACT series of up to 6 terms whose map is left
    unreduced; and a precision from 3 below the quotient's first exponent
    to 150 past it."""
    R = KERNEL_FIELDS[draw(st.sampled_from([7, 11]))]
    p, n, lo = R.coeff.p, draw(st.integers(1, 64)), draw(st.integers(-10, 10))
    spread = draw(st.sampled_from([1, 2, 8]))
    exps = {lo} | draw(st.sets(st.integers(lo + 1, lo + spread * n), max_size=n - 1))
    b = R.series({e: draw(st.integers(1, p - 1)) for e in exps})
    a = draw(st.one_of(st.just(R.one), st.dictionaries(
        st.integers(-5, 20), st.integers(1, p - 1), min_size=1, max_size=6).map(R.series)))
    first = min(a.terms) - lo
    return R, a, b, first + draw(st.integers(-3, 150))


@example((R7, R7.one, R7.parse("3*t^(-2) + t + 5*t^4"), 2))  # at the first exponent
@example((R7, R7.one, R7.parse("3*t^(-2) + t"), 1))  # below it
@example((R7, R7.parse("t + 6*t^3"), R7.parse("2*t^(-1)"), 4))  # a monomial divides exactly
@given(long_division_cases())
@settings(max_examples=300, deadline=None)
def test_long_division_matches_newton(case):
    """``_fp_divide`` to a finite precision, which gives the solve over K its
    1/det for sparse determinants, against ``Series.invert``, stored form
    for stored form: 1/b is ``b.invert(prec)``, known below t^prec (EXACT
    when b is a monomial), known to no term when prec is at or below its
    first exponent -v(b); a/b is a times the inverse to prec - v(a).  The
    dividend's map carries multiples of p, as a Bareiss sum's does."""
    R, a, b, prec = case
    p = R.coeff.p
    terms = {e: c + p * (e % 3) for e, c in a.terms.items()}
    got = linalg._fp_divide(R, terms, b, prec)
    if len(b.terms) == 1:
        want = ref_mul(a, b.invert())
    else:
        want = ref_mul(a, b.invert(prec - min(a.terms)))
    assert identical(got, want)
    if a == R.one:
        assert identical(got, b.invert(prec))


def test_sparse_determinants_take_long_division_and_dense_ones_newton(monkeypatch):
    """The solve over K divides 1 by det by long division while its products
    stay within ``_LONG_DIVISION_OPS``: the units of the zero-divisors
    benchmark workload (1 + g, g with six nonzero 2-term coordinates for
    q = 3 and two for q = 5, alpha = beta^q).  A dense q = 5 unit at
    precision 400 takes ``Series.invert``.  Either way the inverse is the
    one the other route gives."""
    routes = []
    fp_divide, newton = linalg._fp_divide, Series.invert

    def spy_divide(domain, terms, b, prec=INFINITY):
        if prec != INFINITY:
            routes.append("long division")
        return fp_divide(domain, terms, b, prec)

    def spy_newton(s, target_precision=None):
        routes.append("Newton")
        return newton(s, target_precision)

    monkeypatch.setattr(linalg, "_fp_divide", spy_divide)
    monkeypatch.setattr(Series, "invert", spy_newton)
    rng = random.Random(22)
    cases = []
    for (p, q), count in (((7, 3), 6), ((11, 5), 2)):
        D, _ = k_algebra(p, q, str(pow(3, q, p)))
        F = D.F
        keep = set(rng.sample(range(D.n), count))
        g = D.element([F.random_element(rng, n_terms=2, exp_lo=1, exp_hi=4, nonzero=True)
                       if i in keep else F.zero for i in range(D.n)])
        cases.append((D.one + g, None, "long division"))
    D5, _ = k_algebra(11, 5, "3")
    F5 = D5.F
    dense = [F5.series({e: rng.randrange(1, 11) for e in range(21)}) for _ in range(D5.n)]
    cases.append((D5.element(dense), 400, "Newton"))
    ops = linalg._LONG_DIVISION_OPS
    for d, prec, route in cases:
        x = invert(d, prec)
        assert all(c.is_known_zero() for c in (relation_mul(d, x) - d.algebra.one).coords)
        # the bound that sends the same det the other way
        monkeypatch.setattr(linalg, "_LONG_DIVISION_OPS", -1 if route == "long division"
                            else INFINITY)
        assert all(identical(a, b) for a, b in zip(x.coords, invert(d, prec).coords))
        monkeypatch.setattr(linalg, "_LONG_DIVISION_OPS", ops)
        assert routes == [route, {"long division": "Newton", "Newton": "long division"}[route]]
        routes.clear()


# -- the bugs -------------------------------------------------------------------------


@pytest.mark.parametrize("field", ["F_7((t))", "Q((t))"])
def test_o_term_only_multipliers_bound_the_inverse(field):
    """d = (1 + t + O(t^2), O(t^2), ...) stands for e = (1 + t) + t^2*u among
    others, whose inverse has 6*t^2 + ... at u over F_7 (-1*t^2 + ... over Q).
    Skipping the O(t^2) multipliers as zeros claimed O(t^30) there."""
    if field == "F_7((t))":
        ctx = laurent_context(7, 3)
    else:
        F = laurent(QQ, "t")
        ctx = KummerContext(F, 2, F.variable, F.from_int(-1))
    F = ctx.F
    D = CyclicAlgebra(ctx, F.from_int(2))
    d = D.element([F.parse("1 + t + O(t^2)")] + [F.parse("O(t^2)")] * (D.n - 1))
    e = D.element([F.parse("1 + t"), F.parse("t^2")] + [F.zero] * (D.n - 2))
    x, y = invert(d), invert(e)
    assert all(F.eq(a, b) for a, b in zip(x.coords, y.coords))
    assert repr(y.coords[1]).startswith("6*t^2 + " if field == "F_7((t))" else "-1*t^2 + ")
    assert [repr(c) for c in x.coords[1:]] == ["O(t^2)"] * (D.n - 1)
    matrix, rhs = left_mul_matrix(d), list(D.one.coords)
    assert same_vector(solve_linear(F, matrix, rhs), ref_solve_linear(F, matrix, rhs))


def test_unit_singular_at_working_precision_is_a_precision_error(capsys):
    """t^40 is a unit, but truncated at the working precision 30 it has no
    pivot, and the exact matrix has no kernel, so it is no zero divisor.
    Over Q((t)) an exact system still takes the truncated solve, and that is
    a PrecisionError.  Over F_7((t)) ``invert`` inverts it over K, where
    t^40 is a unit like any other, and in the structure-constant algebra,
    which has no route over K, by the exact solve over F: that was a
    PrecisionError too.  Both inverses round-trip."""
    QF = laurent(QQ, "t")
    with pytest.raises(PrecisionError, match="working precision 30, but the exact matrix"):
        solve_linear(QF, [[QF.parse("t^40")]], [QF.one])
    ctx = laurent_context(7, 3)
    D = CyclicAlgebra(ctx, ctx.F.from_int(2))
    coords = [D.F.zero] * D.n
    coords[0] = D.F.parse("t^40")
    d = D.element(coords)
    assert kernel_vector(D.F, left_mul_matrix(d)) is None
    x = invert(d)
    assert repr(x.coords[0]) == "t^(-40) + O(t^30)"
    A = ConstantsAlgebra(D.F, structure_constants(D))
    y, domains = invert_outcome(A.element(coords))
    assert y[0] == "x" and domains == [D.F]
    assert repr(y[1][0]) == repr(x.coords[0]) and all(c.is_exact_zero() for c in y[1][1:])
    one = constants_mul(coords, y[1], A.constants, D.F)
    assert all(a.agrees_to_precision(b) for a, b in zip(one, A.one.coords))
    one = relation_mul(d, x)
    assert all(a.agrees_to_precision(b) for a, b in zip(one.coords, D.one.coords))
    code = main(["algebra", "invert", "--alpha", "2", "--d", "t^40;0;0;0;0;0;0;0;0"])
    out, err = capsys.readouterr()
    assert code == 0 and out.startswith("(t^(-40) + O(t^30))") and err == ""


def test_tower_pivot_known_to_no_term_is_a_precision_error():
    """The pivot x^-3 + x^-1 of F_7((x))((t)) with inner precision 3 has an
    inverse known to no term (O(x^3)): the solve cannot go on."""
    X = laurent(PrimeField(7), "x", 3)
    T = laurent(X, "t", 4)
    matrix = [[T.constant(X.parse("x^(-3) + x^(-1)")), T.constant(X.parse("x^(-2) + 1"))],
              [T.zero, T.zero]]
    with pytest.raises(PrecisionError, match="known to no term"):
        solve_linear(T, matrix, [T.one, T.zero])


def test_tower_entry_exact_only_at_the_outer_level_has_no_kernel():
    """Over Q((x))((t)), 1 + O(x^2) stands for 1 + x^2 among others, with
    which M is nonsingular.  Only the outer level of that entry is EXACT, so
    no kernel is certified: ``kernel_vector`` returned [(-1), (1 + O(x^2))]
    and ``solve_linear`` raised ZeroDivisorError with it."""
    T = laurent(laurent(QQ, "x"), "t")
    matrix = [[T.parse("(1 + O(x^2))"), T.one], [T.one, T.one]]
    with pytest.raises(PrecisionError, match="EXACT at every level"):
        kernel_vector(T, matrix)
    with pytest.raises(PrecisionError, match="cannot decide singularity"):
        solve_linear(T, matrix, [T.one, T.zero])
    one_it_stands_for = [[T.parse("(1 + x^2)"), T.one], [T.one, T.one]]
    assert kernel_vector(T, one_it_stands_for) is None
    x = solve_linear(T, one_it_stands_for, [T.one, T.zero])
    for row, b in zip(one_it_stands_for, [T.one, T.zero]):
        assert sum((a * c for a, c in zip(row, x)), T.zero).agrees_to_precision(b)


@given(small_systems())
@settings(max_examples=100, deadline=None)
def test_exact_singular_system_always_carries_a_kernel(system):
    domain, matrix, rhs = system
    try:
        solve_linear(domain, matrix, rhs)
    except ZeroDivisorError as exc:
        assert exc.kernel is not None and exact(matrix)
    except PrecisionError:
        assert not exact(matrix) or kernel_vector(domain, matrix) is None


def test_truncated_system_without_pivot_is_a_precision_error(capsys):
    """O(t^2) may be a unit: a truncated system with no pivot is not known
    to be singular, so it has no kernel to report."""
    with pytest.raises(PrecisionError, match="working precision 14"):
        solve_linear(QT, [[QT.series({}, 2)]], [QT.one])
    with pytest.raises(PrecisionError, match="working precision 14"):
        solve_linear(QT, [[QT.one, QT.parse("1 + O(t^2)")], [QT.one, QT.one]], [QT.one, QT.one])
    code = main(["algebra", "invert", "--alpha", "6", "--d", "4 + O(t^3);0;0;1;0;0;0;0;0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "working precision 30" in err


@pytest.mark.parametrize("matrix, rhs", [
    ([[1, 2]], [1]),
    ([[1], [2]], [1, 2]),
    ([[1, 0], [0, 1]], [1]),
    ([[1, 0], [0, 1]], [1, 2, 3]),
    ([[1, 0], [0]], [1, 2]),
    ([[1, 0, 0], [0, 1, 0]], [1, 2]),
])
def test_wrong_shapes_raise(matrix, rhs):
    matrix = [[Fraction(e) for e in row] for row in matrix]
    with pytest.raises(CycdivError, match="square"):
        solve_linear(QQ, matrix, [Fraction(e) for e in rhs])
    if any(len(row) != len(matrix) for row in matrix):
        with pytest.raises(CycdivError, match="square"):
            kernel_vector(QQ, matrix)


# -- invert over K = F_p((u)) against the F-route ------------------------------------

K_CONTEXTS = {(7, 3): laurent_context(7, 3, precision=12),
              (11, 5): laurent_context(11, 5, precision=8),
              (13, 3): laurent_context(13, 3, precision=12)}
_ALGEBRAS = {}  # (p, q, alpha) -> (algebra, its structure constants)


def k_algebra(p, q, alpha):
    """The cyclic algebra over F_p((t)) with ``alpha`` (text), and its
    structure constants, made once."""
    if (p, q, alpha) not in _ALGEBRAS:
        ctx = K_CONTEXTS[p, q]
        D = CyclicAlgebra(ctx, ctx.F.parse(alpha))
        _ALGEBRAS[p, q, alpha] = D, structure_constants(D)
    return _ALGEBRAS[p, q, alpha]


def constants_of(D):
    return next(constants for E, constants in _ALGEBRAS.values() if E is D)


@st.composite
def k_route_elements(draw):
    """Exact d in algebras with alpha = beta^q, t, 3 + t, t^-1 + 2 or
    t^-5 + 2: units g and 1 + g with exponents from -10 to 4, and
    g*(X - beta) with exponents from -3 to 4.  g has 1 to 3 nonzero
    coordinates, one for g*(X - beta) when q = 5.  (The F-route's exact
    kernels swell with the spread of the exponents and with q: a wider
    g*(X - beta) can take it seconds and gigabytes.)"""
    p, q = draw(st.sampled_from(sorted(K_CONTEXTS)))
    beta = draw(st.integers(1, p - 1))
    alpha = draw(st.sampled_from([str(pow(beta, q, p)), "t", "3 + t", "t^(-1) + 2",
                                  "t^(-5) + 2"]))
    D, _ = k_algebra(p, q, alpha)
    F = D.F
    kind = draw(st.sampled_from(["g", "1 + g", "g*(X - beta)"]))
    coords = [F.zero] * D.n
    low = -3 if kind == "g*(X - beta)" else -10
    for idx in draw(st.sets(st.integers(0, D.n - 1), min_size=1,
                            max_size=1 if q == 5 and kind == "g*(X - beta)" else 3)):
        coords[idx] = F.series(draw(st.dictionaries(st.integers(low, 4), st.integers(1, p - 1),
                                                    min_size=1, max_size=3)))
    g = D.element(coords)
    d = {"g": g, "1 + g": D.one + g,
         "g*(X - beta)": g * (D.X - D.from_base(F.from_int(beta)))}[kind]
    assume(not d.is_known_zero())
    return d


def invert_outcome(d):
    """("x", coordinates), ("kernel", kernel) or the library error's class, and
    the domains of the ``solve_linear`` calls ``invert`` made."""
    domains = []

    def spy(domain, matrix, rhs, precision=None):
        domains.append(domain)
        return solve_linear(domain, matrix, rhs, precision)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra_module, "solve_linear", spy)
        try:
            return ("x", list(invert(d).coords)), domains
        except ZeroDivisorError as exc:
            return ("kernel", exc.kernel), domains
        except CycdivError as exc:
            return type(exc), domains


def precision_of(s):
    return INFINITY if s.precision is None else s.precision


def truncated_solve(domain, matrix, rhs):
    """The solve over F that the route over K replaced, for an EXACT M:
    Gauss–Jordan (``_Loop``) on the entries truncated at the working
    precision; at a column without a pivot the kernel of ``kernel_vector``,
    or PrecisionError when M is singular only at the working precision."""
    n, work = len(matrix), working_precision(domain)
    rows = [[e.truncate(work) for e in (*row, b)] for row, b in zip(matrix, rhs)]
    _, free = linalg._eliminate(rows, linalg._Loop(domain, work))
    if free is None:
        return [row[n] for row in rows]
    kernel = kernel_vector(domain, matrix)
    if kernel is None:
        raise PrecisionError("no pivot at the working precision")
    raise ZeroDivisorError("singular linear system", kernel=kernel)


def check_k_route(d):
    D = d.algebra
    F, U = D.F, D.kummer._u_field
    got, domains = invert_outcome(d)
    want = solve_outcome(truncated_solve, F, left_mul_matrix(d), list(D.one.coords))
    assert domains == [U]  # one q x q solve over K, whatever the outcome
    if want is PrecisionError and not isinstance(got, type) and got[0] == "x":
        # a unit the F-route's working precision cannot pivot on, inverted over K
        one = relation_mul(d, D.element(got[1]))
        assert all(a.agrees_to_precision(b) for a, b in zip(one.coords, D.one.coords))
        return got
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return got
    assert got[0] == want[0]
    if got[0] == "x":
        for a, b in zip(got[1], want[1]):
            assert a.agrees_to_precision(b) and precision_of(a) >= precision_of(b)
    else:
        kernel = got[1]
        assert not all(F.is_zero(c) for c in kernel)
        assert all(F.is_zero(c) for c in relation_mul(d, D.element(kernel)).coords)
        assert all(F.is_zero(c) for c in constants_mul(d.coords, kernel, constants_of(D), F))
        # normalised: the lowest coefficient of the last nonzero coordinate is 1
        last = next(c for c in reversed(kernel) if c.terms)
        assert last.terms[min(last.terms)] == 1
    return got


def _t40():
    D, _ = k_algebra(7, 3, "2")
    return D.element([D.F.parse("t^40")] + [D.F.zero] * (D.n - 1))


def _f_route_short():
    D, _ = k_algebra(11, 5, "t^(-10) + 3*t^2")
    coords = [D.F.zero] * D.n
    coords[2], coords[6], coords[9] = map(D.F.parse, ["7*t^(-2)", "8*t^(-9)", "t^(-9) + 6*t^(-7)"])
    return D.element(coords)


# a unit the F-route's working precision cannot pivot on, inverted exactly over K
@example(_t40())
# a unit the F-route finds no pivot for at its working precision, inverted over K
@example(_f_route_short())
@given(k_route_elements())
@settings(max_examples=150, deadline=None)
def test_invert_over_k_matches_the_f_route(d):
    check_k_route(d)


def test_k_route_serves_only_exact_f_p_laurent_cyclic_algebras():
    D, _ = k_algebra(7, 3, "2")
    F = D.F
    exact = D.one + D.element([F.parse("t^(-1)")] * D.n)
    assert check_k_route(exact)[0] == "x"
    truncated = D.element([F.parse("1 + O(t^5)")] + [F.zero] * (D.n - 1))
    assert invert_outcome(truncated)[1] == [F]
    ctx = K_CONTEXTS[7, 3]
    inexact_alpha = CyclicAlgebra(ctx, F.parse("2 + O(t^9)"))
    assert invert_outcome(inexact_alpha.one)[1] == [F]
    QF = laurent(QQ, "t")
    qt = CyclicAlgebra(KummerContext(QF, 2, QF.variable, QF.from_int(-1)), QF.from_int(2))
    assert invert_outcome(qt.one)[1] == [QF]
    tower = hahn_tower_context(7, 3, precision=3)
    assert invert_outcome(CyclicAlgebra(tower, tower.F.variable).one)[1] == [tower.F]


# ROADMAP item 3's cases, whose F-route kernels swell: Cramer's rule bounds a
# kernel's entries, and the K-route keeps within it


def test_dense_zero_divisor_kernel_within_the_cramer_bound():
    """q = 3 over F_7((t)), d = g*(X - 3) with nine dense coordinates of
    degree 8: the F-route took 4 to 5 s for entries of 48 704 terms (Python
    3.11, 2 vCPUs).  The matrix
    of d has entries of degree at most 9, so a kernel with entries of degree
    at most 8*9 = 72, that is at most 73 terms, exists."""
    rng = random.Random(5)
    D, _ = k_algebra(7, 3, "6")
    F = D.F
    g = D.element([F.series({e: rng.randrange(1, 7) for e in range(9)}) for _ in range(D.n)])
    d = g * (D.X - D.from_base(F.from_int(3)))
    start = time.perf_counter()
    with pytest.raises(ZeroDivisorError) as caught:
        invert(d)
    assert time.perf_counter() - start < 0.5
    kernel = caught.value.kernel
    assert max(len(c.terms) for c in kernel) <= 73
    assert all(F.is_zero(c) for c in relation_mul(d, D.element(kernel)).coords)


def _q5_zero_divisor():
    """q = 5 over F_11((t)): d = g*(X - 2), all 25 coordinates of g nonzero
    constants."""
    rng = random.Random(11)
    D, _ = k_algebra(11, 5, "10")
    F = D.F
    g = D.element([F.from_int(rng.randrange(1, 11)) for _ in range(D.n)])
    return g * (D.X - D.from_base(F.from_int(2)))


def test_q5_zero_divisor_with_25_constant_coordinates():
    """The F-route did not finish in 300 s on ``_q5_zero_divisor`` (Python
    3.11, 2 vCPUs)."""
    d = _q5_zero_divisor()
    D, constants = k_algebra(11, 5, "10")
    F = D.F
    start = time.perf_counter()
    with pytest.raises(ZeroDivisorError) as caught:
        invert(d)
    assert time.perf_counter() - start < 10
    kernel = caught.value.kernel
    assert all(F.is_zero(c) for c in relation_mul(d, D.element(kernel)).coords)
    assert all(F.is_zero(c) for c in constants_mul(d.coords, kernel, constants, F))


@st.composite
def exact_term_systems(draw):
    """Exact n x n systems over F_7((t)) or F_11((t)), n <= 5 (q = 5 solves
    5 x 5 systems over K), some made singular by a column that is a
    combination of the others."""
    domain = draw(st.sampled_from([FP7, FP11]))
    n = draw(st.integers(1, 5))
    entry = st.builds(domain.series, st.dictionaries(st.integers(-3, 6),
                                                     st.integers(1, domain.coeff.p - 1),
                                                     max_size=3))
    matrix = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        weights = {i: draw(entry) for i in range(n) if i != j}
        for row in matrix:
            row[j] = sum((w * row[i] for i, w in weights.items()), domain.zero)
    return domain, matrix, [draw(entry) for _ in range(n)]


@given(exact_term_systems())
@settings(max_examples=200, deadline=None)
def test_exact_solve_decides_singularity_exactly(system):
    """The solution or the kernel is structurally the one of ``ref_bareiss``,
    the Gauss–Jordan form of the same elimination, at the working precision,
    and ``kernel_vector`` gives the same kernel.  A solution solves the
    system to that precision; a kernel is exact and within Cramer's bound
    (r x r minors, r < n, of entries with exponents in [lo, hi] span at most
    r*(hi - lo))."""
    domain, matrix, rhs = system
    n, work = len(matrix), 20 + linalg._SLACK
    want = ref_bareiss(domain, matrix, rhs, work)
    got = solve_outcome(lambda *args: solve_linear(*args, 20), domain, matrix, rhs)
    assert got[0] == want[0] and same_vector(got[1], want[1])
    assert same_vector(kernel_vector(domain, matrix), want[1] if want[0] == "kernel" else None)
    if got[0] == "kernel":
        kernel = got[1]
        assert all(domain.is_zero(sum((a * c for a, c in zip(row, kernel)), domain.zero))
                   for row in matrix)
        exps = [e for row in matrix for c in row for e in c.terms] or [0]
        assert max(u_span(c) for c in kernel) <= (n - 1) * (max(exps) - min(exps))
        return
    x = got[1]
    assert all(c.precision == work or c.is_exact_zero() for c in x)
    for row, b in zip(matrix, rhs):
        assert sum((a * c for a, c in zip(row, x)), domain.zero).agrees_to_precision(b)


FP7_DEFAULT = laurent(PrimeField(7), "t")


def test_exact_solve_defaults_to_the_domain_precision():
    """Without ``precision`` the exact solve cuts at the domain's default
    precision plus the slack, where the truncated solve works; it raised
    TypeError."""
    F = FP7_DEFAULT
    x, = solve_linear(F, [[F.parse("1 + t")]], [F.one])
    assert x.precision == working_precision(F)
    assert identical(x, F.parse("1 + t").invert(working_precision(F)))


@pytest.mark.parametrize("domain, matrix, rhs", [
    # read as EXACT, a truncated entry had the inverse 1 + 6*t + ... + 6*t^9 + O(t^10)
    (FP7_DEFAULT, ["1 + t + O(t^2)"], ["1"]),
    # read as EXACT, a truncated right-hand side gave 1 + O(t^10)
    (FP7_DEFAULT, ["1"], ["1 + O(t)"]),
    # the exact solve serves F_p((t)) and base fields; over Q((t)) it was an
    # AttributeError traceback
    (laurent(QQ, "t"), ["1 + t"], ["1"]),
], ids=["truncated entry", "truncated rhs", "Q((t))"])
def test_inputs_the_exact_solve_cannot_serve_take_the_loop(monkeypatch, domain, matrix, rhs):
    """A truncated entry or right-hand side, or an EXACT system over
    Q((t)), takes the truncated solve and gets the solution of
    ``ref_solve_linear``."""
    spy = RouteSpy(monkeypatch)
    matrix, rhs = [[domain.parse(e) for e in matrix]], [domain.parse(e) for e in rhs]
    assert same_vector(solve_linear(domain, matrix, rhs, 10),
                       ref_solve_linear(domain, matrix, rhs, 10))
    assert spy.take() == ["_Loop"]


def test_exact_f_p_laurent_kernel_within_the_cramer_bound():
    """q = 5 over F_11((t)), alpha = 1, d = g*(X - 1) with g = 4*e14 + 5*e22:
    never-reduced fractions took 91 s for a kernel of
    ``left_mul_matrix(d)`` with entries of 61 979 terms.  The matrix has
    one-term entries of t-degree 0 or 1, so its r x r minors have t-degree
    at most r < 25; its Cramer kernel has entries of 5 terms, from
    ``kernel_vector`` and from the solve over F that reaches it."""
    ctx = laurent_context(11, 5)
    D = CyclicAlgebra(ctx, ctx.F.one)
    F = D.F
    g = [F.zero] * D.n
    g[14], g[22] = F.from_int(4), F.from_int(5)
    d = D.element(g) * (D.X - D.one)
    assert ";".join(map(repr, d.coords)) == "0;0;5;0;0;0;0;0;0;0;0;0;0;0;7;0;0;0;0;4;0;0;6;0;0"
    matrix = left_mul_matrix(d)

    def solve_kernel(F, matrix):
        with pytest.raises(ZeroDivisorError) as caught:
            solve_linear(F, matrix, list(D.one.coords))
        return caught.value.kernel

    for find in (kernel_vector, solve_kernel):
        start = time.perf_counter()
        kernel = find(F, matrix)
        assert time.perf_counter() - start < 1
        assert not all(F.is_zero(c) for c in kernel)
        assert max(len(c.terms) for c in kernel) <= 5
        assert all(F.is_zero(c) for c in relation_mul(d, D.element(kernel)).coords)


def k_system(d):
    """The q x q matrix over K that ``invert`` hands to ``solve_linear``."""
    seen = []

    def spy(domain, matrix, rhs, precision=None):
        seen.append(matrix)
        return solve_linear(domain, matrix, rhs, precision)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra_module, "solve_linear", spy)
        with pytest.raises(ZeroDivisorError):
            invert(d)
    return seen[0]


def u_span(s):
    return max(s.terms) - min(s.terms) if s.terms else 0


def test_q5_zero_divisor_kernel_within_the_cramer_bound():
    """The matrix over K of ``_q5_zero_divisor`` has entries of u-degree at
    most 4 and rank 4, so its Cramer kernel, 4 x 4 minors, has entries of
    u-degree span at most 16: t-degree at most 3.  The never-reduced
    fractions of ``kernel_vector`` gave u-degree 1080 (t-degree 216)."""
    d = _q5_zero_divisor()
    D, _ = k_algebra(11, 5, "10")
    U, q = D.kummer._u_field, D.q
    assert max(u_span(e) for row in k_system(d) for e in row) <= 4
    with pytest.raises(ZeroDivisorError) as caught:
        invert(d)
    kernel = caught.value.kernel
    assert max(u_span(_to_u_series(U, kernel[q * l:q * (l + 1)], q)) for l in range(q)) <= 16
    assert all(0 <= e <= 3 for c in kernel for e in c.terms)


def test_zero_divisor_of_rank_one_over_k():
    """d = g*(X^2 + 3X + 2)*h with alpha = 3^3 over F_7((t)): X^2 + 3X + 2 is
    (X^3 - 27)/(X - 3), of rank 1 as a matrix over K, so every 2 x 2 minor of
    its system over K, every entry of the adjugate, is 0.  The kernel is read
    off the one pivot, a 1 x 1 minor, not off an adjugate column."""
    D, constants = k_algebra(7, 3, "6")
    F = D.F
    _, right = zero_divisor_witness(D, F.from_int(3))
    g = D.element([F.parse(s) for s in ["1 + t", "2*t^2", "0", "3", "t^(-1)", "0", "0",
                                        "5*t^3 + t", "0"]])
    d = g * right * g
    matrix = k_system(d)
    U = D.kummer._u_field
    assert all(U.is_zero(matrix[i][j] * matrix[k][l] - matrix[i][l] * matrix[k][j])
               for i in range(3) for k in range(i + 1, 3) for j in range(3) for l in range(j + 1, 3))
    with pytest.raises(ZeroDivisorError) as caught:
        solve_linear(U, matrix, [U.one, U.zero, U.zero], 30)
    over_k = caught.value.kernel
    assert sum(not U.is_zero(c) for c in over_k) == 2
    assert max(u_span(c) for c in over_k) <= max(u_span(e) for row in matrix for e in row)
    assert all(U.is_zero(sum((a * x for a, x in zip(row, over_k)), U.zero)) for row in matrix)
    got, domains = invert_outcome(d)
    assert got[0] == "kernel" and domains == [U]
    kernel = got[1]
    assert not all(F.is_zero(c) for c in kernel)
    assert all(F.is_zero(c) for c in relation_mul(d, D.element(kernel)).coords)
    assert all(F.is_zero(c) for c in constants_mul(d.coords, kernel, constants, F))


def test_one_elimination_per_invert_over_k(monkeypatch):
    """``invert`` over K eliminates its q x q system once: a zero divisor's
    kernel is read off the rows the solve eliminated, by the one
    ``kernel_vector`` call per zero divisor.  Before, ``kernel_vector``
    eliminated M again."""
    eliminations, kernels = [], []
    eliminate, kernel_of = linalg._eliminate, linalg.kernel_vector

    def spy_eliminate(rows, route):
        eliminations.append(type(route).__name__)
        return eliminate(rows, route)

    def spy_kernel(*args, **kwargs):
        kernels.append(args[1])
        return kernel_of(*args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate", spy_eliminate)
    monkeypatch.setattr(linalg, "kernel_vector", spy_kernel)
    D3, _ = k_algebra(7, 3, "6")
    F3 = D3.F
    g3 = D3.element([F3.parse(s) for s in ["2", "t", "0", "3*t^2", "0", "0", "1", "0", "5"]])
    D5, _ = k_algebra(11, 5, "10")
    F5 = D5.F
    readme = D5.element([F5.from_int(int(c)) for c in
                         "9;5;4;10;2;2;4;2;0;8;10;10;9;2;7;4;0;0;4;9;5;7;0;1;5".split(";")])
    cli_unit = D5.element([F5.parse(c) for c in
                           "1;0;0;2*t;0;0;0;0;0;0;0;0;0;0;0;0;3*t^2 + t^4;0;0;0;0;0;0;0;0"
                           .split(";")])
    for d, zero_divisor in ((D3.one + D3.element([F3.variable] * D3.n), False),
                            (g3 * (D3.X - D3.from_base(F3.from_int(3))), True),
                            (cli_unit, False),
                            (readme, True)):
        got, domains = invert_outcome(d)
        assert got[0] == ("kernel" if zero_divisor else "x")
        assert domains == [d.algebra.kummer._u_field]
        assert eliminations == ["_Bareiss"]
        assert len(kernels) == (1 if zero_divisor else 0)
        eliminations.clear()
        kernels.clear()
