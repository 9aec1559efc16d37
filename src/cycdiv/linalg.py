"""Dense linear algebra over field domains: solves and exact kernel vectors.

``solve_linear`` and ``kernel_vector`` run one elimination core,
``_eliminate``, on the augmented rows ``[M | rhs]`` (a kernel has no
right-hand side).  The core owns the pivot search, the row swaps and the
live columns; a *route* brings ``forward`` (reduce only the rows below the
pivot, not every other row, and go on past a column without a pivot) and
two row operations, ``scale_row`` (invert the pivot, scale the pivot row)
and ``reduce_row`` (``row[j] -= f * prow[j]`` on the live columns).

Two routes, over every domain, on one arithmetic: the entries are the
domain's own elements (``Series`` in a series domain), combined with its
own operations.  Over F_p((t)) (a prime field, value group Z) a sum of
products is formed by the F_p kernel of ``series``,
``series._fp_products``: it adds each product, by Kronecker substitution
when dense and a schoolbook loop on ints otherwise, into one unreduced
{exponent: int} map, with no ``Series`` per product; the map is reduced
mod p once, by ``series._fp_series`` or by the exact division that takes
it.  Each series keeps its packs, so a pivot row entry is packed once per
pivot step and a multiplier once per row, not once per product.  The
results are those of the ``Series`` operators, stored form for stored
form.

* The truncated solve (``_Loop``), Gauss–Jordan in the domain: series
  entries are truncated to the working precision plus a slack, the pivot
  is an entry of least valuation, and it is inverted to the precision its
  O-term allows.  Over F_p((t)) ``row[j] -= f*prow[j]`` is one map per
  entry, cut at the precision ``x - f*b`` has in ``Series`` arithmetic.

* Every kernel, and the solve with ``fraction_free=True`` (``_Bareiss``):
  forward fraction-free elimination (Bareiss 1968) on entries EXACT at
  every level, then fraction-free back-substitution, every division exact.
  Every entry stays a minor of [M | rhs], so nothing swells past Cramer's
  bound, and the determinant decides singularity exactly.  A kernel is the
  Cramer kernel, r x r minors with r the rank.  A step forms
  -((-piv)*row[j] + f*prow[j]) and divides it exactly by ``_divide``:
  a * b^-1 in a base field, long division on the lowest terms in a series
  domain, the coefficients divided one level down in a tower.  Over
  F_p((t)) the unreduced map is divided as it is, densely on a list of
  ints (``_fp_divide``), with no ``Series`` before the quotient.  The
  solve serves EXACT F_p((t)) systems: x_l = N_l * det^-1, cut at the
  requested precision, with det^-1 to the precision that needs: by
  ``_fp_divide`` too (long division of 1, cut there), or by one
  ``Series.invert`` (Newton) when det has so many terms that Newton is
  cheaper (``_LONG_DIVISION_OPS``).  [M | rhs] is eliminated once: a
  singular M's kernel is read off the same rows.  ``algebra.invert`` in a
  cyclic algebra over F_p((t)) with EXACT inputs solves a q x q system
  over K = F_p((u)) so instead of the q^2 x q^2 one over F (see the
  ``cycdiv.algebra`` module docstring).

A multiplier f known only to an O-term is no zero: ``f*prow[j]`` is known to
no term, but it is known only to ``product_precision(f, prow[j])``, which
bounds what is known of ``row[j]`` after the step.  The truncated solve
applies that bound without a product; it skips only exact zeros.

A pivot step on column c reads column c and then writes only the live
columns: those right of c (the right-hand side with them, until a column
without a pivot; past it only a kernel is read).  No later step reads any
other column, so skipping them changes no result and saves about half of
the products.  In forward elimination a column without a pivot is 0 in
every row below, and stays 0.

Kernel extraction is exact because nothing in it is truncated and every
division in it is exact: an entry EXACT at every level is zero exactly when
no term of it is known, so a column without a pivot proves the matrix
singular, and the vector read off the eliminated rows annihilates M
exactly.  Truncated entries cannot decide this: ``O(t^k)`` may be nonzero,
and so may ``(1 + O(x^2)) - 1`` in a tower.  So ``kernel_vector`` raises
PrecisionError on a matrix with an entry truncated at any level, and
``solve_linear`` raises it when such a matrix has no pivot.
"""

import math
from bisect import insort
from functools import reduce

from .errors import CycdivError, PrecisionError, ZeroDivisorError
from .series import (INFINITY, Series, SeriesDomain, _fp_products, _fp_series, _layout, _stored,
                     product_precision)

# precision beyond the requested one that a series solve works at
_SLACK = 10

# The solve over F_p((t)) divides 1 by det by long division while its
# products (the terms of det times the quotient terms that can be nonzero)
# are at most this many, and by Newton (``Series.invert``) beyond, whose
# cost hardly grows with the terms of det.  Measured once on CPython 3.11
# over F_7 and F_11, with dets in F_p((u)), F_7((u^3)) and F_11((u^5)):
# the two took the same time at 5 000 to 6 000 products for 128 to 512
# terms, 9 000 to 14 000 for 32 to 153, and 24 000 for 59 or 95 terms at
# u^1230; at 8 terms long division was 4 to 15 times as fast.
_LONG_DIVISION_OPS = 8000


def _square(matrix, rhs=None):
    """The size n of a square matrix (and of ``rhs``), else CycdivError."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or (rhs is not None and len(rhs) != n):
        raise CycdivError(f"expected a square matrix and a right-hand side of its size, got "
                          f"{n} rows of lengths {sorted({len(row) for row in matrix})}"
                          + ("" if rhs is None else f" and {len(rhs)} right-hand sides"))
    return n


def _first(value):
    return 0


def _exact(rows):
    """Whether every entry of ``rows`` is EXACT at every level: a base-field
    element, or an EXACT series whose coefficients (as one row) are."""
    return all(not isinstance(e, Series) or e.precision is None and (
        not isinstance(e.domain.coeff, SeriesDomain) or _exact([e.terms.values()]))
        for row in rows for e in row)


def _eliminate(rows, route):
    """Gauss–Jordan, or forward elimination with ``route.forward``, on the n
    augmented ``rows`` in place; returns the pivot row of each pivot column,
    and the first column without a pivot (None if every column has one).
    Gauss–Jordan stops at that column; forward elimination goes on past it,
    as a kernel is read off its rows.

    Among the entries of a column in the rows not yet used that are not
    ``route.is_known_zero``, the first one of least ``route.pivot_key`` is
    the pivot.  Every other row (forward: below it) whose entry f in the
    pivot column is not ``route.is_zero`` is reduced by f times the pivot row.
    """
    n, width = len(rows), len(rows[0]) if rows else 0
    is_known_zero, is_zero, pivot_key = route.is_known_zero, route.is_zero, route.pivot_key
    scale_row, reduce_row, forward = route.scale_row, route.reduce_row, route.forward
    pivots, free, top = {}, None, 0
    for col in range(n):
        nonzero = [r for r in range(top, n) if not is_known_zero(rows[r][col])]
        if not nonzero:
            if not forward:
                return pivots, col
            free = col if free is None else free
            continue
        pr = min(nonzero, key=lambda r: pivot_key(rows[r][col]))
        rows[top], rows[pr] = rows[pr], rows[top]
        # past a column without a pivot only a kernel is read: the rhs is dead,
        # and the free column is 0 in the rows below, and stays 0
        live = range(col + 1, width if free is None else n)
        prow = rows[top]
        scale_row(prow, col, live)
        for r in range(top + 1 if forward else 0, n):
            if r != top and not is_zero(f := rows[r][col]):
                reduce_row(rows[r], f, prow, live)
        pivots[col] = top
        top += 1
    return pivots, free


class _Loop:
    """The truncated solve: Gauss–Jordan on elements of the field
    ``domain``.  Over F_p((t)) ``row[j] -= f*prow[j]`` adds the products
    into one unreduced int map by ``series._fp_products`` and builds one
    ``Series`` per entry; elsewhere it uses the domain's operations."""

    forward = False

    def __init__(self, domain, pivot_key, invert):
        self.domain, self.pivot_key, self.invert = domain, pivot_key, invert
        self.is_known_zero, self.is_zero = domain.is_known_zero, domain.is_zero

    def scale_row(self, row, col, live):
        mul = self.domain.mul
        pinv = self.invert(row[col])
        for j in live:
            row[j] = mul(pinv, row[j])

    def reduce_row(self, row, f, prow, live):
        if self.is_known_zero(f):
            # an O-term multiplier (is_zero skips exact zeros, and over a
            # base field the two tests agree): only the precision
            for j in live:
                prec = product_precision(f, prow[j])
                if prec != INFINITY:  # f*0 is an exact zero
                    row[j] = row[j].truncate(prec)
            return
        domain = self.domain
        if not domain._laurent_p:
            mul, sub = domain.mul, domain.sub
            for j in live:
                row[j] = sub(row[j], mul(f, prow[j]))
            return
        # x - f*b, cut where Series arithmetic cuts it: every entry is
        # truncated, and the kernel keeps the lowest exponents of f and b
        pf, lf = f.precision, _layout(f)[0]
        for j in live:
            x, b = row[j], prow[j]
            if b.terms:
                prec = min(x.precision, pf + _layout(b)[0], b.precision + lf)
                row[j] = _fp_series(domain, _fp_products(dict(x.terms), f, b, -1, prec), prec)
            elif (prec := b.precision + lf) < x.precision:
                row[j] = x.truncate(prec)


def _invert_pivot(v, work):
    """The inverse of the series pivot ``v`` to the working precision, or to
    less when the O-term of ``v`` allows no more."""
    achievable = INFINITY if v.precision is None else v.precision - 2 * v.valuation()
    return v.invert(min(work, achievable))


def _fp_divide(domain, terms, b, prec=INFINITY):
    """The quotient over F_p((t)) of the unreduced int map ``terms`` (not
    empty) by ``b``, EXACT: dense long division on a list of ints, reduced
    mod p once per quotient term.  At ``prec`` = INFINITY b divides the map,
    and a check makes sure that nothing remains; otherwise the quotient is
    known below t^prec and nothing is checked (a monomial b divides exactly
    at any ``prec``)."""
    p, tb = domain._laurent_p, b.terms
    lb = min(tb)
    inv = pow(tb[lb], -1, p)
    if len(tb) == 1:
        return _stored(domain, {e - lb: r for e, c in terms.items() if (r := c * inv % p)}, 1, None)
    la, span = min(terms), max(tb) - lb
    if prec == INFINITY:
        size = max(terms) - la + 1
        n = max(size - span, 0)
    else:  # the quotient terms below prec, and what they read of the map
        n = max(prec - la + lb, 0)
        size = n + span
    r = [0] * size
    for e, c in terms.items():
        if e - la < size:
            r[e - la] = c
    rest = [(e - lb, c) for e, c in tb.items() if e != lb]
    out = {}
    for i in range(n):
        if c := r[i] % p * inv % p:
            out[la - lb + i] = c
            for k, cb in rest:
                r[i + k] -= c * cb
    if prec != INFINITY:
        return _stored(domain, out, 1, prec)
    if any(c % p for c in r[n:]):
        raise CycdivError("inexact division in fraction-free elimination")
    return _stored(domain, out, 1, None)


def _divide(domain, a, b):
    """a / b for elements EXACT at every level, where b divides a: a * b^-1
    in a base field, ``_fp_divide`` over F_p((t)); in any other series
    domain long division on the lowest terms, whose coefficients are divided
    by the same rule one level down, with a check that the quotient ends
    where an exact one must."""
    if not isinstance(domain, SeriesDomain):
        return domain.mul(a, domain.invert(b))
    if domain._laurent_p:
        return _fp_divide(domain, a.terms, b)
    cd, bc, rest, out = domain.coeff, dict(b.coeffs), dict(a.coeffs), {}
    lb, last, todo = min(bc), max(rest) - max(bc), sorted(rest)
    for e in todo:  # ascending; an exponent met on the way is inserted past e
        if e not in rest:
            continue  # cancelled
        if e - lb > last:
            raise CycdivError("inexact division in fraction-free elimination")
        c = out[e - lb] = _divide(cd, rest[e], bc[lb])
        for eb, cb in bc.items():
            if (k := e - lb + eb) not in rest:
                insort(todo, k)
            if not cd.is_zero(v := cd.sub(rest.pop(k, cd.zero), cd.mul(c, cb))):
                rest[k] = v
    return domain.series(out)


def _quotient(d, pairs, divisor):
    """-(the sum of a*b over ``pairs``) / ``divisor``, which divides it, for
    elements of ``d`` EXACT at every level; over F_p((t)) the products go
    into one unreduced int map, divided as it is."""
    if d._laurent_p:
        out = {}
        for a, b in pairs:
            if a.terms and b.terms:
                _fp_products(out, a, b, -1)
        return _fp_divide(d, out, divisor) if out else d.zero
    total = reduce(d.sub, (d.mul(a, b) for a, b in pairs), d.zero)
    return total if d.is_zero(total) else _divide(d, total, divisor)


class _Bareiss:
    """Fraction-free elimination (Bareiss 1968) of ``rows``, EXACT at every
    level, in the arithmetic of ``domain``: made with the forward elimination
    of its rows (``pivots``, ``free``: what ``_eliminate`` returns).  A step
    on the pivot ``piv``, after the step on ``prev``, sets
    row[j] = (piv*row[j] - f*prow[j]) / prev on every row below,
    f = row[col], as the quotient of -((-piv)*row[j] + f*prow[j]); the
    division is exact, as every entry is then a minor of [M | rhs]."""

    pivot_key = staticmethod(_first)
    forward = True

    def __init__(self, domain, rows):
        self.domain, self.piv, self.prev = domain, domain.one, None
        self.is_known_zero = domain.is_zero
        self.rows = [list(row) for row in rows]
        self.pivots, self.free = _eliminate(self.rows, self)

    @staticmethod
    def is_zero(x):
        return False  # a row with f = 0 is still scaled by piv/prev

    def scale_row(self, row, col, live):
        # -piv once per step: its packs serve every row below
        self.prev, self.piv = self.piv, row[col]
        self.neg_piv = self.domain.neg(row[col])

    def reduce_row(self, row, f, prow, live):
        d, neg_piv, prev = self.domain, self.neg_piv, self.prev
        for j in live:
            row[j] = _quotient(d, ((neg_piv, row[j]), (f, prow[j])), prev)

    def back_substitute(self, col, value):
        """The x (a list over the columns of M) with x[col] = ``value``, 0 at
        the other columns without a pivot, that the pivot rows annihilate:
        from the last row up, x[c] = -(sum of row[j]*x[j]) / row[c], exact
        when ``value`` is the last pivot, as x[c] is then a minor of [M | rhs]."""
        x = {col: value}
        for c, r in sorted(((c, r) for c, r in self.pivots.items() if c < col), reverse=True):
            row = self.rows[r]
            if row[c] is value and len(x) == 1:  # row[c]*x[c] + row[col]*value = 0
                x[c] = self.domain.neg(row[col])
            else:
                x[c] = _quotient(self.domain, [(row[j], xj) for j, xj in x.items()], row[c])
        return [x.get(c) or self.domain.zero for c in range(len(self.rows))]


def solve_linear(domain, matrix, rhs, precision=None, fraction_free=False):
    """Solve M x = rhs over a field domain by elimination.

    ``matrix`` is a list of rows; ``rhs`` a list.  For series domains,
    ``precision`` bounds the working precision (default: the domain's).
    A singular system raises ZeroDivisorError, always carrying an exact
    kernel vector.  A column without a pivot at the working precision raises
    PrecisionError when some entry is truncated (it may be a unit known to
    too few terms) or when the exact matrix has no kernel.

    ``fraction_free`` is for EXACT M and rhs over F_p((t)), and raises
    CycdivError on any other input: the ``_Bareiss`` route, which decides
    singularity exactly and never raises PrecisionError.  Back-substitution
    on [M | rhs], eliminated once, gives det*x_l = N_l (det up to sign), so
    x_l = N_l * det^-1 takes one inverse of det, by long division
    (``_fp_divide``) or, for a det of many terms, by Newton
    (``Series.invert``), whichever ``_LONG_DIVISION_OPS`` says is cheaper;
    the two give the same terms.  Each x_l is cut at t^precision, and is an
    EXACT 0 when N_l is.  A singular M raises ZeroDivisorError with the
    kernel ``kernel_vector`` reads off those rows.
    """
    n = _square(matrix, rhs)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    if isinstance(domain, SeriesDomain) and precision is None:
        precision = domain.default_precision
    if fraction_free:
        if not (domain._laurent_p and _exact(rows)):
            raise CycdivError("a fraction-free solve needs EXACT entries over F_p((t))")
        route = _Bareiss(domain, rows)
        if route.free is not None:
            raise ZeroDivisorError("singular linear system",
                                   kernel=kernel_vector(domain, matrix, _eliminated=route))
        # [M | rhs] annihilates (-N, det): x_l = -nums[l] * det^-1, known past t^precision
        nums = route.back_substitute(n, route.piv)
        low = min((min(x.terms) for x in nums if x.terms), default=0)
        det, prec = route.piv, precision - low
        # the terms of 1/det below prec lie g apart from -v(det), g the gcd of
        # the gaps in det, and long division makes len(det) products for each
        v = min(det.terms)
        g = math.gcd(*[e - v for e in det.terms]) or 1
        if len(det.terms) * -(-(prec + v) // g) <= _LONG_DIVISION_OPS:
            inv = _fp_divide(domain, {0: 1}, det, prec)
        else:
            inv = det.invert(prec)
        return [_fp_series(domain, _fp_products({}, x, inv, -1, precision), precision)
                if x.terms else domain.zero for x in nums]
    if isinstance(domain, SeriesDomain):
        work = precision + _SLACK
        rows = [[e.truncate(work) for e in row] for row in rows]
        route = _Loop(domain, Series.valuation_lower_bound, lambda v: _invert_pivot(v, work))
    else:
        work, route = None, _Loop(domain, _first, domain.invert)
    _, free = _eliminate(rows, route)
    if free is None:
        return [row[n] for row in rows]
    if not _exact(matrix):
        raise PrecisionError(f"no pivot in column {free} at working precision {work}, "
                             "and the truncated entries cannot decide singularity")
    kernel = kernel_vector(domain, matrix)
    if kernel is None:
        raise PrecisionError(f"no pivot in column {free} at working precision {work}, "
                             "but the exact matrix is nonsingular")
    raise ZeroDivisorError("singular linear system", kernel=kernel)


def kernel_vector(domain, matrix, _eliminated=None):
    """An exact nonzero vector in the right kernel of M, or None.

    M must be EXACT at every level; any other matrix raises PrecisionError.
    Fraction-free elimination gives the Cramer kernel, r x r minors with r
    the rank: the last pivot at the first column without a pivot, and
    back-substitution above it, on the rows of ``_eliminated`` when
    ``solve_linear`` has eliminated them.
    """
    _square(matrix)
    if (route := _eliminated) is None:
        if not _exact(matrix):
            raise PrecisionError("a kernel needs a matrix EXACT at every level")
        route = _Bareiss(domain, matrix)
    if route.free is None:
        return None
    return route.back_substitute(route.free, route.piv)
