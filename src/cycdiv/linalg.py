"""Dense linear algebra over field domains: solves and exact kernel vectors.

``solve_linear`` and ``kernel_vector`` run one elimination core,
``_eliminate``, on the augmented rows ``[M | rhs]`` (a kernel has no
right-hand side).  The core owns the pivot search, the row swaps and the
live columns; a *route* brings the entry representation, ``forward``
(reduce only the rows below the pivot, not every other row, and go on past
a column without a pivot) and two row operations, ``scale_row`` (invert the
pivot, scale the pivot row) and ``reduce_row`` (``row[j] -= f * prow[j]``
on the live columns).

Which route serves which call:

* The truncated solve, Gauss–Jordan in the domain: series entries are
  truncated to the working precision plus a slack, the pivot is an entry of
  least valuation, and it is inverted to the precision its O-term allows.

  - Term maps, over F_p((t)): a ``SeriesDomain`` whose ``ring`` is a
    ``PrimeField`` and whose value group is Z (``_TermSolve``).  Each entry
    is a ``_Terms``, an ``{exponent: int}`` map with its precision and
    valuation bound.  Dense operands are multiplied by Kronecker
    substitution, with the density rule of ``series._kronecker_mul``; each
    entry keeps its packed int, so a pivot row entry is packed once per
    pivot step and a multiplier once per row, not once per product.  Sparse
    operands take the schoolbook loop.  No ``Series`` is built until the
    result.  ``row[j] -= f*prow[j]`` adds the term products straight into
    ``row[j]``'s map, reduces mod p once, and cuts at the precision
    ``series.product_precision`` gives; the pivot is inverted by
    ``Series.invert``.  The steps follow the rule of ``Series.__mul__`` and
    ``Series.__sub__``, so they give the same stored series as the loop.
  - The loop (``_Loop``), in the arithmetic of the domain itself: Hahn
    fields, towers, Q((t)) and base fields such as Q.

* Every kernel, and the solve with ``fraction_free=True`` (``_Bareiss``):
  forward fraction-free elimination (Bareiss 1968) on entries EXACT at
  every level, then fraction-free back-substitution, every division exact.
  Every entry stays a minor of [M | rhs], so nothing swells past Cramer's
  bound, and the determinant decides singularity exactly.  A kernel is the
  Cramer kernel, r x r minors with r the rank.  The entry arithmetic comes
  from the domain: over F_p((t)) the term maps above (``_TermBareiss``),
  divided by long division on their lowest terms; elsewhere the domain's
  own products and sums, divided by ``_divide``: long division on the
  lowest terms in a series domain, the coefficients divided one level down
  in a tower, and a * b^-1 in a base field.  The solve serves EXACT
  F_p((t)) systems: x_l = N_l * det^-1, one ``Series.invert``, cut at the
  requested precision.  [M | rhs] is eliminated once: a singular M's
  kernel is read off the same rows.  ``algebra.invert`` in a cyclic algebra
  over F_p((t)) with EXACT inputs solves a q x q system over K = F_p((u))
  so instead of the q^2 x q^2 one over F (see the ``cycdiv.algebra``
  module docstring).

A multiplier f known only to an O-term is no zero: ``f*prow[j]`` is known to
no term, but it is known only to ``product_precision(f, prow[j])``, which
bounds what is known of ``row[j]`` after the step.  Both truncated routes
apply that bound without a product; they skip only exact zeros.

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

from bisect import insort
from functools import reduce
from operator import attrgetter

from .basefields import PrimeField
from .errors import CycdivError, PrecisionError, ZeroDivisorError
from .series import (_KRONECKER_DENSITY, INFINITY, Series, SeriesDomain, _pack, _slot_width,
                     _slots, _stored, product_precision)

# precision beyond the requested one that a series solve works at
_SLACK = 10


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


def _same(value):
    return value


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
    """The loop route of the truncated solve: entries are elements of the
    field ``domain``, combined with its own operations."""

    forward = False

    def __init__(self, domain, pivot_key, invert):
        self.domain, self.pivot_key, self.invert = domain, pivot_key, invert
        self.is_known_zero, self.is_zero = domain.is_known_zero, domain.is_zero

    series = staticmethod(_same)

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
        mul, sub = self.domain.mul, self.domain.sub
        for j in live:
            row[j] = sub(row[j], mul(f, prow[j]))


def _is_term_field(domain):
    """Whether ``domain`` is F_p((t)), which the term-map route serves."""
    return (isinstance(domain, SeriesDomain) and type(domain.ring) is PrimeField
            and domain.group.p is None)


class _Terms:
    """A term-map entry: ``terms`` {exponent: int in [1, p)}, its precision
    (INFINITY for EXACT) and its valuation lower bound ``low``.  Its exponent
    span and its Kronecker packings, by slot width, are made on first use
    and kept: a pivot row entry or a multiplier is packed once for all the
    products it enters.  ``terms`` is not changed once it has been read as
    an operand."""

    __slots__ = ("terms", "prec", "low", "_span", "_packs")

    def __init__(self, terms, prec=INFINITY):
        self.terms, self.prec = terms, prec
        self.low = min(terms) if terms else prec
        self._span = self._packs = None

    def span(self):
        if self._span is None:
            self._span = max(self.terms) - self.low + 1
        return self._span

    def packed(self, width, p):
        """The int whose ``width``-byte slot i holds the coefficient at low + i."""
        if self._packs is None:
            self._packs = {}
        packed = self._packs.get(width)
        if packed is None:
            packed = self._packs[width] = _pack(self.terms, self.low, self.span(), width, p)
        return packed


def _add_products(out, a, b, p, prec, sign):
    """Add ``sign`` times the terms of a*b below ``prec`` into the map ``out``,
    unreduced mod p, and return it; a and b are nonzero ``_Terms``.  Dense
    operands (the density rule of ``series._kronecker_mul``) are multiplied
    by Kronecker substitution, the others term by term."""
    ta, tb = a.terms, b.terms
    la, lb = len(ta), len(tb)
    get = out.get
    # a cheap necessary condition first: the spans are at least la and lb
    if la * lb > _KRONECKER_DENSITY * (la + lb):
        na, nb = a.span(), b.span()
        width = _slot_width(min(la, lb) * (p - 1) ** 2)
        if la * lb > _KRONECKER_DENSITY * (na + nb) and width is not None:
            lo = a.low + b.low
            n = min(na + nb - 1, prec - lo)
            if n > 0:
                slots = enumerate(_slots(a.packed(width, p) * b.packed(width, p),
                                         na + nb - 1, width, n), lo)
                if sign > 0:
                    for e, c in slots:
                        if c:
                            out[e] = get(e, 0) + c
                else:
                    for e, c in slots:
                        if c:
                            out[e] = get(e, 0) - c
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


def _reduced(terms, p, prec=INFINITY):
    """``terms`` reduced mod p, without zeros and exponents from ``prec`` on."""
    return {e: r for e, c in terms.items() if e < prec and (r := c % p)}


def _invert_pivot(v, work):
    """The inverse of the series pivot ``v`` to the working precision, or to
    less when the O-term of ``v`` allows no more."""
    achievable = INFINITY if v.precision is None else v.precision - 2 * v.valuation()
    return v.invert(min(work, achievable))


class _TermSolve:
    """The term-map route of the truncated solve over F_p((t)); an entry is
    a ``_Terms``."""

    forward = False

    def __init__(self, domain, work):
        self.domain, self.p, self.work = domain, domain.ring.p, work

    def entry(self, s):
        """The entry of ``s`` truncated to the working precision."""
        prec = self.work if s.precision is None else min(s.precision, self.work)
        return _Terms({e: c for e, c in s.terms.items() if e < prec}, prec)

    def series(self, x):
        return _stored(self.domain, x.terms, 1, None if x.prec == INFINITY else x.prec)

    @staticmethod
    def is_known_zero(x):
        return not x.terms

    @staticmethod
    def is_zero(x):
        return not x.terms and x.prec == INFINITY

    pivot_key = staticmethod(attrgetter("low"))

    def scale_row(self, row, col, live):
        inv = _invert_pivot(self.series(row[col]), self.work)
        pinv, p = _Terms(inv.terms, INFINITY if inv.precision is None else inv.precision), self.p
        for j in live:
            b = row[j]
            prec = min(pinv.prec + b.low, b.prec + pinv.low)
            out = {}
            if b.terms:
                _add_products(out, pinv, b, p, prec, 1)
                out = _reduced(out, p)
            row[j] = _Terms(out, prec)

    def reduce_row(self, row, f, prow, live):
        p = self.p
        for j in live:
            x, b = row[j], prow[j]
            # the precision of f*prow[j] bounds row[j], even with no term
            prec = min(x.prec, f.prec + b.low, b.prec + f.low)
            t = x.terms
            if f.terms and b.terms:
                _add_products(t, f, b, p, prec, -1)
                t = _reduced(t, p, prec)
            elif prec < x.prec:
                t = {e: c for e, c in t.items() if e < prec}
            else:
                continue
            row[j] = _Terms(t, prec)


def _exact_quotient(a, b, p):
    """a / b for term maps (Laurent polynomials over F_p) where b divides a:
    long division on the lowest terms, with a check that nothing remains."""
    lb = min(b)
    inv = pow(b[lb], -1, p)
    if len(b) == 1:
        return {e - lb: c * inv % p for e, c in a.items()}
    la = min(a)
    r = [0] * (max(a) - la + 1)
    for e, c in a.items():
        r[e - la] = c
    rest = [(e - lb, c) for e, c in b.items() if e != lb]
    n = max(len(r) - (max(b) - lb), 0)
    out = {}
    for i in range(n):
        if c := r[i] % p * inv % p:
            out[la - lb + i] = c
            for k, cb in rest:
                r[i + k] -= c * cb
    if any(c % p for c in r[n:]):
        raise CycdivError("inexact division in fraction-free elimination")
    return out


def _divide(domain, a, b):
    """a / b for elements EXACT at every level, where b divides a: a * b^-1
    in a base field; in a series domain long division on the lowest terms,
    whose coefficients are divided by the same rule one level down, with a
    check that the quotient ends where an exact one must."""
    if not isinstance(domain, SeriesDomain):
        return domain.mul(a, domain.invert(b))
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
        self.domain, self.piv, self.prev = domain, self.entry(domain.one), None
        self.rows = [list(map(self.entry, row)) for row in rows]
        self.pivots, self.free = _eliminate(self.rows, self)

    # the entry arithmetic: the domain's own, and the exact division

    entry = series = staticmethod(_same)

    def is_known_zero(self, x):
        return self.domain.is_zero(x)

    def neg(self, x):
        return self.domain.neg(x)

    def quotient(self, pairs, divisor):
        """-(the sum of a*b over ``pairs``) / ``divisor``, which divides it."""
        d = self.domain
        total = reduce(d.sub, (d.mul(a, b) for a, b in pairs), d.zero)
        return total if d.is_zero(total) else _divide(d, total, divisor)

    # the route

    @staticmethod
    def is_zero(x):
        return False  # a row with f = 0 is still scaled by piv/prev

    def scale_row(self, row, col, live):
        self.prev, self.piv = self.piv, row[col]

    def reduce_row(self, row, f, prow, live):
        neg_piv, prev = self.neg(self.piv), self.prev
        for j in live:
            row[j] = self.quotient(((neg_piv, row[j]), (f, prow[j])), prev)

    def back_substitute(self, col, value):
        """The x (a list over the columns of M) with x[col] = ``value``, 0 at
        the other columns without a pivot, that the pivot rows annihilate:
        from the last row up, x[c] = -(sum of row[j]*x[j]) / row[c], exact
        when ``value`` is the last pivot, as x[c] is then a minor of [M | rhs]."""
        x = {col: value}
        for c, r in sorted(((c, r) for c, r in self.pivots.items() if c < col), reverse=True):
            row = self.rows[r]
            if row[c] is value and len(x) == 1:  # row[c]*x[c] + row[col]*value = 0
                x[c] = self.neg(row[col])
            else:
                x[c] = self.quotient([(row[j], xj) for j, xj in x.items()], row[c])
        return [x.get(c) or self.entry(self.domain.zero) for c in range(len(self.rows))]


class _TermBareiss(_Bareiss):
    """``_Bareiss`` over F_p((t)) on EXACT term maps (``_Terms``): products
    by ``_add_products``, the exact division by ``_exact_quotient``.  A
    reduction step works on the maps themselves, with no call per entry."""

    is_known_zero = staticmethod(_TermSolve.is_known_zero)
    series = _TermSolve.series

    @staticmethod
    def entry(s):
        return _Terms(s.terms)

    def neg(self, x):
        p = self.domain.ring.p
        return _Terms({e: p - c for e, c in x.terms.items()})

    def reduce_row(self, row, f, prow, live):
        p, piv, prev = self.domain.ring.p, self.piv, self.prev.terms
        for j in live:
            x, b = row[j], prow[j]
            out = {}
            if x.terms:
                _add_products(out, piv, x, p, INFINITY, 1)
            if f.terms and b.terms:
                _add_products(out, f, b, p, INFINITY, -1)
            out = _reduced(out, p)
            row[j] = _Terms(_exact_quotient(out, prev, p) if out else out)

    def quotient(self, pairs, divisor):
        p, out = self.domain.ring.p, {}
        for a, b in pairs:
            if a.terms and b.terms:
                _add_products(out, a, b, p, INFINITY, -1)
        out = _reduced(out, p)
        return _Terms(_exact_quotient(out, divisor.terms, p) if out else out)


def solve_linear(domain, matrix, rhs, precision=None, fraction_free=False):
    """Solve M x = rhs over a field domain by elimination.

    ``matrix`` is a list of rows; ``rhs`` a list.  For series domains,
    ``precision`` bounds the working precision (default: the domain's).
    A singular system raises ZeroDivisorError, always carrying an exact
    kernel vector.  A column without a pivot at the working precision raises
    PrecisionError when some entry is truncated (it may be a unit known to
    too few terms) or when the exact matrix has no kernel.

    ``fraction_free`` is for EXACT M and rhs over F_p((t)), and raises
    CycdivError on any other input: the ``_TermBareiss`` route, which decides
    singularity exactly and never raises PrecisionError.  Back-substitution
    on [M | rhs], eliminated once, gives det*x_l = N_l (det up to sign), so
    x_l = N_l * det^-1 takes one ``Series.invert`` of det; each x_l is cut
    at t^precision, and is an EXACT 0 when N_l is.  A singular M raises
    ZeroDivisorError with the kernel ``kernel_vector`` reads off those rows.
    """
    n = _square(matrix, rhs)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    if isinstance(domain, SeriesDomain) and precision is None:
        precision = domain.default_precision
    if fraction_free:
        if not (_is_term_field(domain) and _exact(rows)):
            raise CycdivError("a fraction-free solve needs EXACT entries over F_p((t))")
        route = _TermBareiss(domain, rows)
        if route.free is not None:
            raise ZeroDivisorError("singular linear system",
                                   kernel=kernel_vector(domain, matrix, _eliminated=route))
        # [M | rhs] annihilates (-N, det): x_l = -nums[l] * det^-1, known past t^precision
        nums = route.back_substitute(n, route.piv)
        low = min((x.low for x in nums if x.terms), default=0)
        inv, p = _Terms(route.series(route.piv).invert(precision - low).terms), domain.ring.p
        return [_stored(domain, _reduced(_add_products({}, x, inv, p, precision, -1), p), 1,
                        precision) if x.terms else domain.zero for x in nums]
    work = precision + _SLACK if isinstance(domain, SeriesDomain) else None
    if _is_term_field(domain):
        route = _TermSolve(domain, work)
        rows = [[route.entry(e) for e in row] for row in rows]
    elif work is not None:
        rows = [[e.truncate(work) for e in row] for row in rows]
        route = _Loop(domain, Series.valuation_lower_bound, lambda v: _invert_pivot(v, work))
    else:
        route = _Loop(domain, _first, domain.invert)
    _, free = _eliminate(rows, route)
    if free is None:
        return [route.series(row[n]) for row in rows]
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
        route = (_TermBareiss if _is_term_field(domain) else _Bareiss)(domain, matrix)
    if route.free is None:
        return None
    return [route.series(x) for x in route.back_substitute(route.free, route.piv)]
